import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from circletau.dynamics import find_cycles
from circletau.errors import (
    ConfigError,
    EmptyPlateau,
    NoConvergence,
    WrongProfile,
)
from circletau.experiments import (
    count_periodic_points,
    displacement_maxima,
    liouville_measure_estimate,
    noninjectivity_probe,
    trace_bubble,
    tsujii_gap,
)
from circletau.linearize import bubble_disk_radius
from circletau.maps import CircleMap, total_distortion
from circletau.uniformize import wrap_half

B = 1.0 / (4.0 * math.pi)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestTraceBubble:
    def test_arnold_endpoints_real(self, arnold_trace):
        assert arnold_trace.left.kind == "real"
        assert arnold_trace.right.kind == "real"
        assert arnold_trace.bubble_lo == pytest.approx(-B, abs=1e-8)
        assert arnold_trace.bubble_hi == pytest.approx(B, abs=1e-8)

    def test_heights_fall_toward_both_ends(self, arnold_trace):
        hs = [s.horocycle_height for s in arnold_trace.samples]
        k = len(hs) // 2
        assert all(b <= a for a, b in zip(hs[k:], hs[k + 1:]))
        assert all(b <= a for a, b in zip(hs[:k][::-1], hs[:k][::-1][1:]))

    def test_disk_containment_every_sample(self, arnold, arnold_trace,
                                           arnold_distortion):
        coarse = arnold_distortion / (4.0 * math.pi)
        for s in arnold_trace.samples:
            cycles = find_cycles(arnold.shifted(s.omega), 0, 1)
            R = bubble_disk_radius(cycles, 1).value
            assert s.horocycle_height <= 2.0 * min(R, coarse) + 1e-4

    def test_rotation_family_empty(self):
        with pytest.raises(EmptyPlateau):
            trace_bubble(CircleMap(0.0), 0, 1, samples=6)

    def test_two_humped_endpoint_kinds(self, hump_trace):
        assert hump_trace.left.kind == "complex"
        assert hump_trace.right.kind == "real"

    def test_two_humped_bubble_interval(self, hump_trace, two_humped):
        # the traced interval is (y1, y2), the two local maxima of x - f(x)
        (x1, y1), (x2, y2) = displacement_maxima(two_humped)
        assert hump_trace.bubble_lo == pytest.approx(y1, abs=1e-7)
        assert hump_trace.bubble_hi == pytest.approx(y2, abs=1e-7)
        # the plateau itself extends further left (4 fixed points there)
        assert hump_trace.plateau.omega_lo < y1 - 0.05

    def test_two_humped_left_angle_decay(self, hump_trace):
        angles = [s.tangency_angle for s in hump_trace.samples[:5]]
        assert all(a < b for a, b in zip(angles, angles[1:]))
        assert all(s.horocycle_height >= 1e-3 for s in hump_trace.samples[:5])

    def test_count_periodic_points(self, two_humped):
        (x1, y1), _ = displacement_maxima(two_humped)
        assert count_periodic_points(two_humped.shifted(y1 - 0.001), 0, 1) == 4
        assert count_periodic_points(two_humped.shifted(y1 + 0.001), 0, 1) == 2

    def test_sample_validation(self, arnold):
        with pytest.raises(ConfigError):
            trace_bubble(arnold, 0, 1, samples=3)


class TestMirrorSymmetry:
    def test_trace_mirrors_pointwise(self, hump_trace, hump_mirror_trace):
        # passing to x -> -f(-x) conjugates tau_bar by z -> -conj(z)
        a, b = hump_trace.samples, hump_mirror_trace.samples
        assert len(a) == len(b)
        for s, t in zip(a, reversed(b)):
            assert t.omega == pytest.approx(-s.omega, abs=1e-9)
            assert wrap_half(t.tau_re + s.tau_re) == pytest.approx(0.0, abs=1e-6)
            assert t.tau_im == pytest.approx(s.tau_im, abs=1e-6)

    def test_mirrored_endpoint_kinds_swap(self, hump_trace, hump_mirror_trace):
        assert hump_mirror_trace.left.kind == "real"
        assert hump_mirror_trace.right.kind == "complex"


def loop_displacement_maxima(map, grid=8192):
    """The per-point scan that displacement_maxima vectorises, kept as its reference."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = -np.asarray(map.displacement(x), dtype=float)
    out = []
    for i in range(grid):
        if g[i] >= g[i - 1] and g[i] >= g[(i + 1) % grid]:
            res = minimize_scalar(
                lambda t: float(map.displacement(t)),
                bounds=(x[i] - 1.0 / grid, x[i] + 1.0 / grid),
                method="bounded",
                options={"xatol": 1e-14},
            )
            out.append((float(res.x) % 1.0, -float(res.fun)))
    out.sort(key=lambda t: t[1])
    return out


class TestNoninjectivity:
    @pytest.mark.parametrize(
        "m, grid",
        [
            (CircleMap(0.0, (), (-0.05, -0.03)), 8192),
            (CircleMap(0.0, (), (B,)), 8192),
            (CircleMap(0.3, (0.01, 0.0, 0.004), (0.02,)), 8192),
            # constant displacement: every grid point ties with its neighbours
            (CircleMap(0.25), 64),
        ],
    )
    def test_maxima_scan_matches_loop(self, m, grid):
        maxima = displacement_maxima(m, grid)
        assert maxima
        assert maxima == loop_displacement_maxima(m, grid)

    def test_two_humped_report(self, two_humped, hump_trace):
        rep = noninjectivity_probe(two_humped, trace=hump_trace)
        assert rep.y1 == pytest.approx(0.00219144, abs=1e-6)
        assert rep.y2 == pytest.approx(0.06936635, abs=1e-6)
        assert rep.trace.left.kind == "complex"
        assert rep.trace.right.kind == "real"
        assert rep.left_tangency_ok
        assert rep.right_horocycle_ok
        assert len(rep.left_germ) == 6 and len(rep.right_germ) == 6
        # both germs head to 0: offsets shrink toward the endpoints
        assert abs(rep.left_germ[0][1]) < abs(rep.left_germ[-1][1])
        assert rep.right_germ[-1][2] < rep.right_germ[0][2]

    def test_single_hump_rejected(self, arnold):
        with pytest.raises(WrongProfile):
            noninjectivity_probe(arnold)

    def test_flat_profile_rejected(self):
        with pytest.raises(WrongProfile):
            noninjectivity_probe(CircleMap(0.3, (0.01,), ()))


class TestTsujii:
    def test_rotation_family_equality(self):
        rows = tsujii_gap(CircleMap(GOLDEN), 4)
        assert [(r.p, r.q) for r in rows] == [(1, 1), (1, 2), (2, 3), (3, 5)]
        for r in rows:
            # D_f = 0: |omega_0| = |theta - p/q| exactly
            assert abs(abs(r.omega0) - r.theta_gap) < 1e-10
            assert r.passed

    def test_tuned_arnold_passes_with_slack(self, golden_tuned_arnold):
        rows = tsujii_gap(golden_tuned_arnold, 4)
        assert [(r.p, r.q) for r in rows] == [(1, 1), (1, 2), (2, 3), (3, 5)]
        for r in rows:
            assert r.passed and r.slack > 0.0

    def test_resolution_guard(self, golden_tuned_arnold):
        with pytest.raises(NoConvergence):
            tsujii_gap(golden_tuned_arnold, 24)

    def test_rational_rejected(self, arnold):
        with pytest.raises(ConfigError):
            tsujii_gap(arnold.shifted(0.5), 3)


class TestLiouville:
    def test_rotation_family(self):
        rep = liouville_measure_estimate(CircleMap(0.0), 1.0, 10)
        # bound = sum over q <= 10 of 2/q^2 with C = 1
        assert rep.constant == pytest.approx(1.0, abs=1e-10)
        assert rep.bound_total == pytest.approx(
            sum(2.0 / q**2 for q in range(1, 11)), rel=1e-12
        )
        assert rep.bound_total == pytest.approx(3.0997, abs=1e-3)
        assert rep.passed
        # widths are exact for rotations: phi(q) margins of size 2/q^3
        for row in rep.rows:
            phi_q = sum(1 for p in range(row.q)
                        if math.gcd(p, row.q) == 1) if row.q > 1 else 1
            assert row.measured == pytest.approx(
                phi_q * 2.0 / row.q**3, abs=1e-6
            )

    def test_arnold_family(self, arnold, arnold_distortion):
        rep = liouville_measure_estimate(arnold, 1.0, 5)
        assert rep.constant == pytest.approx(math.exp(arnold_distortion), rel=1e-9)
        assert rep.constant == pytest.approx(9.0, abs=1e-6)  # e^{2 ln 3}
        assert rep.passed
        assert rep.measured_total <= rep.bound_total

    def test_empty(self, arnold):
        rep = liouville_measure_estimate(arnold, 1.0, 0)
        assert rep.measured_total == 0.0 and rep.bound_total == 0.0

    def test_beta_validation(self, arnold):
        with pytest.raises(ConfigError):
            liouville_measure_estimate(arnold, -1.0, 3)

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from circletau import dynamics
from circletau.dynamics import find_cycles, plateau
from circletau.errors import (
    ConfigError,
    EmptyPlateau,
    NoConvergence,
    NumericalError,
    WrongProfile,
)
from circletau.experiments import (
    _edge_facing_zero,
    _margin_edge,
    _nearest_count_jump,
    _rational_near,
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


def loop_nearest_count_jump(map, p, q, lo, hi, ref_count, from_right, coarse=96, tol=1e-10):
    """The count-jump search before _bisect, kept as its reference."""
    width = hi - lo
    if from_right:
        probes = [hi - width * (i + 1) / (coarse + 1) for i in range(coarse)]
        last_equal = hi
    else:
        probes = [lo + width * (i + 1) / (coarse + 1) for i in range(coarse)]
        last_equal = lo
    first_diff = None
    for w in probes:
        if count_periodic_points(map.shifted(w), p, q) == ref_count:
            last_equal = w
        else:
            first_diff = w
            break
    if first_diff is None:
        return None
    a, b = sorted((first_diff, last_equal))
    while b - a > tol:
        mid = 0.5 * (a + b)
        same = count_periodic_points(map.shifted(mid), p, q) == ref_count
        if same == from_right:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


class TestCountJump:
    @pytest.mark.parametrize("from_right", [True, False])
    def test_matches_loop(self, two_humped, from_right):
        # the scan trace_bubble makes from each plateau edge
        plat = plateau(two_humped, 0, 1)
        if from_right:
            ref = plat.omega_hi - 0.02 * plat.width
            lo, hi = plat.omega_lo, ref
        else:
            ref = plat.omega_lo + 0.02 * plat.width
            lo, hi = ref, plat.omega_hi
        ref_count = count_periodic_points(two_humped.shifted(ref), 0, 1)
        args = (two_humped, 0, 1, lo, hi, ref_count, from_right)
        jump = _nearest_count_jump(*args)
        assert jump is not None
        assert jump == loop_nearest_count_jump(*args)


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


def loop_edge_facing_zero(map, p, q, side, limit, tol=1e-12):
    """_edge_facing_zero before _rot_crossing, kept as its reference."""
    cmp = dynamics.compare_to_rational
    if side > 0:
        lo, hi = 0.0, limit
        for _ in range(8):
            if cmp(map.shifted(hi), p, q) >= 0:
                break
            hi *= 2.0
        else:
            raise NumericalError(f"could not bracket the {p}/{q} plateau above 0")
        while hi - lo > tol:
            m = 0.5 * (lo + hi)
            if cmp(map.shifted(m), p, q) >= 0:
                hi = m
            else:
                lo = m
        return 0.5 * (lo + hi)
    lo, hi = -limit, 0.0
    for _ in range(8):
        if cmp(map.shifted(lo), p, q) <= 0:
            break
        lo *= 2.0
    else:
        raise NumericalError(f"could not bracket the {p}/{q} plateau below 0")
    while hi - lo > tol:
        m = 0.5 * (lo + hi)
        if cmp(map.shifted(m), p, q) <= 0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def loop_margin_edge(map, target, bracket, want_geq, tol):
    """_margin_edge before _rot_crossing, kept as its reference."""
    lo, hi = bracket

    def side_at(w):
        return dynamics.compare_to_rational(
            map.shifted(w), target.numerator, target.denominator, grid=1024
        )

    for _ in range(8):
        if want_geq and side_at(lo) < 0:
            break
        if not want_geq and side_at(hi) > 0:
            break
        span = hi - lo
        if want_geq:
            lo -= span
        else:
            hi += span
    else:
        raise NumericalError(f"could not bracket rot = {target} near {bracket}")
    while hi - lo > tol:
        m = 0.5 * (lo + hi)
        side = side_at(m)
        if want_geq:
            if side >= 0:
                hi = m
            else:
                lo = m
        else:
            if side <= 0:
                lo = m
            else:
                hi = m
    return 0.5 * (lo + hi)


class TestCrossingsMatchLoops:
    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 5)])
    @pytest.mark.parametrize("reach", [1.05, 0.01])
    def test_edge_facing_zero(self, golden_tuned_arnold, arnold_distortion, compare_log,
                              p, q, reach):
        # the Tsujii approximants alternate sides of theta; |omega_0| is about
        # 0.1 e^{D_f} |theta - p/q|, so reach 0.01 makes the far bracket end
        # grow four times before the bisection
        m = golden_tuned_arnold
        side = 1 if p / q > GOLDEN else -1
        limit = reach * math.exp(arnold_distortion) * abs(GOLDEN - p / q) + 1e-9
        got = _edge_facing_zero(m, p, q, side, limit)
        calls = list(compare_log)
        compare_log.clear()
        assert got == loop_edge_facing_zero(m, p, q, side, limit)
        assert calls and calls == compare_log

    @pytest.mark.parametrize(
        "p, q", [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    )
    @pytest.mark.parametrize("pad_scale", [1.0, 0.01])
    def test_margin_edge(self, arnold, arnold_distortion, compare_log, p, q, pad_scale):
        # the margins of liouville_measure_estimate(arnold, beta=1, q_max=5);
        # the margins lie about 0.08 pad from the plateau, so pad_scale 0.01
        # makes the outer bracket end grow four times
        eps = q ** -3.0
        plat = plateau(arnold, p, q, tol=1e-9)
        pad = pad_scale * (1.3 * math.exp(arnold_distortion) * eps + 1e-7)
        margins = [
            (_rational_near(p / q - eps, 1e-9), (plat.omega_lo - pad, plat.omega_lo), True),
            (_rational_near(p / q + eps, 1e-9), (plat.omega_hi, plat.omega_hi + pad), False),
        ]
        for target, bracket, want_geq in margins:
            compare_log.clear()
            got = _margin_edge(arnold, target, bracket, want_geq, 1e-9)
            calls = list(compare_log)
            compare_log.clear()
            assert got == loop_margin_edge(arnold, target, bracket, want_geq, 1e-9)
            assert calls and calls == compare_log


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

import math
import random

import numpy as np
import pytest

from circletau import dynamics, experiments, uniformize
from circletau.dynamics import _parabolic_parameters, _rot_crossing, find_cycles, plateau
from circletau.errors import (
    ConfigError,
    EmptyPlateau,
    IllConditioned,
    NoConvergence,
    NumericalError,
    WrongProfile,
)
from circletau.experiments import (
    _boundary_values,
    _bubble_segment,
    _rational_near,
    count_periodic_points,
    displacement_maxima,
    liouville_measure_estimate,
    noninjectivity_probe,
    trace_atlas,
    trace_bubble,
    tsujii_gap,
)
from circletau.linearize import bubble_disk_radius
from circletau.maps import CircleMap, total_distortion
from circletau.uniformize import BoundaryValue, UpperHalfPoint, wrap_half
from conftest import assert_certified, golden_omega

B = 1.0 / (4.0 * math.pi)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def perfbench_factor(seed):
    """The factor in [0.998, 1.002] by which perfbench seed >= 1 scales b."""
    return 1.0 + 0.002 * random.Random(seed).uniform(-1.0, 1.0)


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
        # at q = 1 the saddle-node is the critical point of the displacement
        (x1, y1), (x2, y2) = displacement_maxima(two_humped)
        assert hump_trace.bubble_lo == pytest.approx(y1, abs=1e-12)
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


def stub_boundary_tau(map, omega, edge_distance=None, **kwargs):
    """A cheap deterministic stand-in for boundary_tau: tau from (omega, s)."""
    z = complex(omega + 0.5 * edge_distance, abs(edge_distance))
    return BoundaryValue(UpperHalfPoint(z.real, z.imag), z, 1e-9, (), "stub", omega)


class TestTraceAtlas:
    def test_matches_trace_bubble_per_plateau(self, arnold, monkeypatch):
        monkeypatch.setattr(experiments, "boundary_tau", stub_boundary_tau)
        traces, skipped = trace_atlas(arnold, 2, samples=6)
        assert skipped == []
        assert [(tr.p, tr.q) for tr in traces] == [(0, 1), (1, 2)]
        for tr in traces:
            alone = trace_bubble(arnold, tr.p, tr.q, samples=6, classify=False)
            assert tr.samples == alone.samples
            assert (tr.bubble_lo, tr.bubble_hi) == (alone.bubble_lo, alone.bubble_hi)
            assert tr.plateau == alone.plateau
            assert tr.left is None and tr.right is None

    def test_failed_sample_skips_its_plateau(self, arnold, monkeypatch):
        def stub(map, omega, edge_distance=None, **kwargs):
            if omega > 0.25:
                raise IllConditioned(f"stub refuses omega = {omega:.3f}")
            return stub_boundary_tau(map, omega, edge_distance)

        monkeypatch.setattr(experiments, "boundary_tau", stub)
        traces, skipped = trace_atlas(arnold, 2, samples=6)
        assert [(tr.p, tr.q) for tr in traces] == [(0, 1)]
        assert [(p, q, type(exc)) for p, q, exc in skipped] == [(1, 2, IllConditioned)]

    def test_samples_share_one_moment_store_per_call(self, arnold, monkeypatch):
        stores = []

        def stub(map, omega, edge_distance=None, **kwargs):
            stores.append(uniformize._MOMENTS.get())
            return stub_boundary_tau(map, omega, edge_distance)

        monkeypatch.setattr(experiments, "boundary_tau", stub)
        calls = [lambda: trace_bubble(arnold, 0, 1, samples=6, classify=False),
                 lambda: trace_atlas(arnold, 2, samples=6)]
        firsts = []
        for call in calls + calls:
            stores.clear()
            call()
            assert stores[0] is not None and all(s is stores[0] for s in stores)
            assert uniformize._MOMENTS.get() is None
            firsts.append(stores[0])
        assert len({id(s) for s in firsts}) == len(firsts)

    @pytest.mark.parametrize("q_max", [0, -1])
    def test_q_max_validation(self, arnold, q_max):
        with pytest.raises(ConfigError, match="q_max must be >= 1"):
            trace_atlas(arnold, q_max)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_validation(self, arnold, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            trace_atlas(arnold, 1, workers=workers)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            trace_bubble(arnold, 0, 1, workers=workers)

    def test_failed_sample_raises_from_trace_bubble(self, arnold, monkeypatch):
        def stub(map, omega, edge_distance=None, **kwargs):
            raise IllConditioned("stub refuses every sample")

        monkeypatch.setattr(experiments, "boundary_tau", stub)
        with pytest.raises(IllConditioned, match="stub refuses every sample"):
            trace_bubble(arnold, 0, 1, samples=6, classify=False)


class TestBoundaryValues:
    @pytest.mark.parametrize("count", [0, 1, 5, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_job_order_with_failure_in_its_slot(self, arnold, monkeypatch, workers, count):
        # pool workers are forked, so they inherit the stub
        def stub(map, omega, edge_distance=None, **kwargs):
            if omega == 3 / 8:
                raise IllConditioned(f"stub refuses omega = {omega}")
            return stub_boundary_tau(map, omega, edge_distance)

        monkeypatch.setattr(experiments, "boundary_tau", stub)
        jobs = [(k / 8, (k + 1) / 64) for k in range(count)]
        values = _boundary_values(arnold, jobs, workers)
        assert len(values) == count
        for (omega, s), v in zip(jobs, values):
            if omega == 3 / 8:
                assert type(v) is IllConditioned and str(v) == "stub refuses omega = 0.375"
            else:
                assert v == stub_boundary_tau(arnold, omega, s)


def loop_nearest_count_jump(map, p, q, lo, hi, ref_count, from_right, coarse=96, tol=1e-10):
    """The count-jump scan that located inner bubble edges before the
    saddle-node Newton, kept as its reference."""
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


# the two-hump 0/1 inner bubble edge, omega = -d(x_c) at the critical point
# x_c of the displacement, from mpmath at 40 digits
HUMP_INNER_EDGE = 0.0021914367299927


class TestCountJump:
    @pytest.mark.parametrize("from_right", [True, False])
    def test_matches_loop(self, two_humped, from_right):
        # the inner end of each segment is the count jump the scan brackets
        plat = plateau(two_humped, 0, 1)
        if from_right:
            ref = plat.omega_hi - 0.02 * plat.width
            lo, hi = plat.omega_lo, ref
        else:
            ref = plat.omega_lo + 0.02 * plat.width
            lo, hi = ref, plat.omega_hi
        ref_count = count_periodic_points(two_humped.shifted(ref), 0, 1)
        jump = loop_nearest_count_jump(two_humped, 0, 1, lo, hi, ref_count, from_right)
        seg = _bubble_segment(two_humped, 0, 1, 6, "right" if from_right else "left")
        inner = seg.bubble_lo if from_right else seg.bubble_hi
        assert inner == pytest.approx(jump, abs=1e-8)
        assert inner == pytest.approx(HUMP_INNER_EDGE if from_right else -HUMP_INNER_EDGE,
                                      abs=1e-12)


def periodic_point_count(map, omega, p, q):
    return sum(len(c.points) for c in find_cycles(map.shifted(omega), p, q))


class TestParabolicParameters:
    # plateaus on which the 96-probe count scan returned a segment across
    # a parabolic parameter: (map, p, q, parabolic parameters)
    @pytest.mark.parametrize(
        "m, p, q, params",
        [
            # a bubble within 2% of the right edge, past the scan's reference
            (CircleMap(0.0, (0.0199, -0.0292, 0.0073), (0.048, 0.0225, 0.0167)), 0, 1,
             [-0.002569477091, 0.061017820792]),
            # a bubble 4.5e-4 wide between probes 1.9e-3 apart
            (CircleMap(0.0, (0.0405, -0.0222), (-0.0582, 0.027)), 0, 1,
             [-0.018540698185, -0.018093252453]),
            # the first is found only from the extrema of G at the second
            (CircleMap(0.0, (-0.0496, 0.0098, -0.0157), (-0.0404, 0.0204, -0.0052)), 1, 2,
             [0.518282377764, 0.518300007569]),
            # the scan's left segment ended at the second parameter
            (CircleMap(0.0, (-0.0066, 0.0058, -0.0046), (0.0091, -0.0126, -0.0124)), 0, 1,
             [-0.017056787940, -0.016381444659, -0.011231226650, 0.021596483714]),
        ],
        ids=["A", "B", "C", "D"],
    )
    def test_segments_end_at_the_nearest_parameter(self, m, p, q, params):
        plat = plateau(m, p, q)
        found = _parabolic_parameters(m, p, q, plat.omega_lo, plat.omega_hi)
        assert found == pytest.approx(params, abs=1e-9)
        for w in found:
            assert periodic_point_count(m, w - 1e-7, p, q) != periodic_point_count(
                m, w + 1e-7, p, q)
        left = _bubble_segment(m, p, q, 6, "left")
        right = _bubble_segment(m, p, q, 6, "right")
        assert (left.bubble_lo, left.bubble_hi) == (plat.omega_lo, found[0])
        assert (right.bubble_lo, right.bubble_hi) == (found[-1], plat.omega_hi)


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

    def test_mirrored_inner_edge(self, hump_mirror_trace, two_humped):
        (x1, y1), _ = displacement_maxima(two_humped)
        assert hump_mirror_trace.bubble_hi == pytest.approx(-y1, abs=1e-12)


def loop_displacement_maxima(map, grid=8192):
    """The per-point scan that displacement_maxima vectorises, kept as its
    reference, with the package's refiner."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = -np.asarray(map.displacement(x), dtype=float)
    out = []
    for i in range(grid):
        if g[i] >= g[i - 1] and g[i] >= g[(i + 1) % grid]:
            xm, fm = dynamics.minimize_scalar(map, 0, 1, float(x[i]), 1.0 / grid, 1.0)
            out.append((xm % 1.0, -fm))
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
    """The Tsujii edge facing omega = 0 before _rot_crossing, kept as its reference."""
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
    """A Liouville margin edge before _rot_crossing, kept as its reference."""
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
    def test_edge_facing_zero(self, golden_tuned_arnold, arnold_distortion, p, q, reach):
        # the Tsujii approximants alternate sides of theta; |omega_0| is about
        # 0.1 e^{D_f} |theta - p/q|, so reach 0.01 makes the far bracket end
        # grow four times before the root search
        m = golden_tuned_arnold
        side = 1 if p / q > GOLDEN else -1
        limit = reach * math.exp(arnold_distortion) * abs(GOLDEN - p / q) + 1e-9
        # the two calls tsujii_gap makes
        if side > 0:
            got = _rot_crossing(m, p, q, 0.0, limit, 0, tol=1e-12)
        else:
            got = _rot_crossing(m, p, q, -limit, 0.0, 1, tol=1e-12)
        assert abs(got - loop_edge_facing_zero(m, p, q, side, limit)) <= 1e-12
        assert_certified(m, p, q, got, 0 if side > 0 else 1, 1e-12)

    @pytest.mark.parametrize(
        "p, q", [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    )
    @pytest.mark.parametrize("pad_scale", [1.0, 0.01])
    def test_margin_edge(self, arnold, arnold_distortion, p, q, pad_scale):
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
            # the two calls liouville_measure_estimate makes
            want = 0 if want_geq else 1
            got = _rot_crossing(arnold, target.numerator, target.denominator, *bracket, want,
                                grid=1024, tol=1e-9)
            assert abs(got - loop_margin_edge(arnold, target, bracket, want_geq, 1e-9)) <= 1e-9
            assert_certified(arnold, target.numerator, target.denominator, got, want, 1e-9,
                             grid=1024)


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

    @pytest.mark.parametrize(
        "base",
        [CircleMap(0.0, (), (B * perfbench_factor(seed),)) for seed in range(1, 6)]
        + [CircleMap(0.0, (), (-0.05, -0.03))],
        ids=[f"arnold-seed{seed}" for seed in range(1, 6)] + ["two-humped"],
    )
    def test_golden_shifts_pass(self, base):
        # their rotation numbers lie anywhere in a 4e-6 window around the
        # golden mean, some with a large partial quotient; seed 0 is
        # golden_tuned_arnold
        rows = tsujii_gap(base.shifted(golden_omega(base)), 4)
        assert [(r.p, r.q) for r in rows] == [(1, 1), (1, 2), (2, 3), (3, 5)]
        assert all(r.passed for r in rows)

    def test_resolution_guard(self, golden_tuned_arnold):
        with pytest.raises(NoConvergence):
            tsujii_gap(golden_tuned_arnold, 24)

    def test_rational_rejected(self, arnold):
        with pytest.raises(ConfigError):
            tsujii_gap(arnold.shifted(0.5), 3)


def reached_end(w, want, tol):
    """The end of a crossing's certificate where the extremum of G reaches
    the sign floor: right of the crossing for want = 0, left for want = 1."""
    return w + 0.5 * tol if want == 0 else w - 0.5 * tol


class TestOnePointCertificate:
    """One side of a Newton answer's certificate is one G point at Newton's x."""

    @pytest.mark.parametrize("case, count", [("plateau", 2), ("tsujii", 4), ("liouville", 40)])
    def test_newton_answers_read_one_jet(self, arnold, golden_tuned_arnold, monkeypatch,
                                         grid_shifts, case, count):
        # at the reached end of each Newton answer no G grid or orbit stage
        # is sampled, and exactly one jet is read
        jets, bisects, crossings = [], [], []
        jet, bisect, original = dynamics._g_jet, dynamics._bisect, dynamics._rot_crossing
        monkeypatch.setattr(dynamics, "_g_jet", lambda *args: jets.append(args[4]) or jet(*args))
        monkeypatch.setattr(dynamics, "_bisect",
                            lambda *args: bisects.append(args) or bisect(*args))

        def recording(map, p, q, lo, hi, want, grid=dynamics._G_GRID, tol=1e-10):
            marks = len(grid_shifts), len(jets), len(bisects)
            w = original(map, p, q, lo, hi, want, grid=grid, tol=tol)
            if len(bisects) == marks[2]:
                crossings.append((map, w, want, tol, grid_shifts[marks[0]:], jets[marks[1]:]))
            return w

        for module in (dynamics, experiments):
            monkeypatch.setattr(module, "_rot_crossing", recording)
        if case == "plateau":
            plateau(arnold, 0, 1)
        elif case == "tsujii":
            tsujii_gap(golden_tuned_arnold, 4)
        else:
            liouville_measure_estimate(arnold, 1.0, 5)
        assert len(crossings) == count
        for map, w, want, tol, shifts, omegas in crossings:
            reached = reached_end(w, want, tol)
            assert map.shifted(reached).mean_shift not in shifts
            assert omegas.count(reached) == 1

    def test_a_failed_point_falls_back_to_the_verdict(self, arnold, monkeypatch, grid_shifts):
        # Newton's omega is kept and its x moved by 0.5, onto the other
        # extremum of G, where the point settles nothing: the crossing then
        # samples the reached end and returns the same bits
        ref = plateau(arnold, 0, 1)
        start = len(grid_shifts)
        saddle_node = dynamics._saddle_node

        def planted(*args):
            root = saddle_node(*args)
            return None if root is None else (root[0] + 0.5, root[1])

        monkeypatch.setattr(dynamics, "_saddle_node", planted)
        got = plateau(arnold, 0, 1)
        assert (got.omega_lo.hex(), got.omega_hi.hex()) == (ref.omega_lo.hex(), ref.omega_hi.hex())
        for want, w in enumerate((got.omega_lo, got.omega_hi)):
            assert arnold.shifted(reached_end(w, want, 1e-10)).mean_shift in grid_shifts[start:]
            assert_certified(arnold, 0, 1, w, want, 1e-10)


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

    def test_crossings_take_few_g_evaluations(self, arnold, crossing_counts):
        # 40 crossings at about 2.4 G samplings each (95 in all, 2.24M
        # samples): the uniform grid of Newton's start and the orbit samples
        # of the side of its certificate that needs the whole circle; one G
        # point settles the other side.  Three grids each took 5.68M
        # samples, and a slide back to bisection would take about 30 each
        liouville_measure_estimate(arnold, 1.0, 5)
        assert crossing_counts["grids"] <= 100
        assert crossing_counts["points"] <= 2_400_000
        assert crossing_counts["fallbacks"] == 0

    def test_newton_answers_the_crossings(self, arnold, golden_tuned_arnold, monkeypatch):
        # a crossing answered by Newton on the saddle-node system never
        # reaches the bisection; each answer is still certified by the sign test
        records, bisect_calls = [], []
        original, bisect = dynamics._rot_crossing, dynamics._bisect

        def counting_bisect(*args, **kwargs):
            bisect_calls.append(args)
            return bisect(*args, **kwargs)

        def recording(map, p, q, lo, hi, want, grid=dynamics._G_GRID, tol=1e-10):
            before = len(bisect_calls)
            w = original(map, p, q, lo, hi, want, grid=grid, tol=tol)
            records.append((len(bisect_calls) == before, (map, p, q, w, want, tol, grid)))
            return w

        monkeypatch.setattr(dynamics, "_bisect", counting_bisect)
        for module in (dynamics, experiments):
            monkeypatch.setattr(module, "_rot_crossing", recording)
        liouville_measure_estimate(arnold, 1.0, 5)
        assert len(records) == 40
        assert sum(newton for newton, _ in records) >= 38
        tsujii_gap(golden_tuned_arnold, 4)
        assert len(records) == 44
        assert all(newton for newton, _ in records[40:])
        for newton, args in records:
            if newton:
                assert_certified(*args)

    def test_empty(self, arnold):
        rep = liouville_measure_estimate(arnold, 1.0, 0)
        assert rep.measured_total == 0.0 and rep.bound_total == 0.0

    def test_beta_validation(self, arnold):
        with pytest.raises(ConfigError):
            liouville_measure_estimate(arnold, -1.0, 3)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_is_rejected(self, arnold, beta):
        # a NaN beta reached _rational_near and raised a bare ValueError
        with pytest.raises(ConfigError, match="beta must be finite and positive"):
            liouville_measure_estimate(arnold, beta, 3)

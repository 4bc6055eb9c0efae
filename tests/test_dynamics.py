import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from circletau import dynamics
from circletau.dynamics import (
    _SIGN_FLOOR,
    _grid_roots,
    _rot_crossing,
    compare_to_rational,
    denjoy_distortion,
    find_cycles,
    plateau,
    plateau_bracket,
    rotation_estimate,
    rotation_number,
)
from circletau.errors import (
    ConfigError,
    ImagesOverlap,
    NoConvergence,
    NumericalError,
    RootFindingIncomplete,
    WrongRotationNumber,
)
from circletau.maps import CircleMap, _bisect, total_distortion
from conftest import assert_certified, record_shifts

B = 1.0 / (4.0 * math.pi)


def brute_force_roots(map, p, q, grid=1 << 16):
    """Independent periodic-point oracle: dense sign scan plus brentq."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    y = x.copy()
    for _ in range(q):
        y = map.lift(y)
    g = y - x - p

    def scalar(t):
        z = t
        for _ in range(q):
            z = float(map.lift(z))
        return z - t - p

    roots = []
    for i in range(grid - 1):
        if g[i] == 0.0:
            roots.append(x[i])
        elif g[i] * g[i + 1] < 0:
            roots.append(brentq(scalar, x[i], x[i + 1], xtol=1e-14))
    return sorted(roots)


@pytest.fixture(scope="module")
def golden_estimate(golden_tuned_arnold):
    return rotation_estimate(golden_tuned_arnold, tol=1e-9)


class TestRotationNumber:
    def test_rigid_rotation(self, rotation):
        assert rotation_number(rotation) == 0.25

    def test_arnold_fixed_point(self, arnold):
        # x = 0 is a fixed point, so rot = 0 exactly
        assert rotation_number(arnold) == 0.0

    def test_arnold_between_plateaus(self, arnold):
        fm = arnold.shifted(0.2)
        r = rotation_number(fm)
        assert 0.0 < r < 0.5
        # oracle: strictly right of the 0/1 plateau, left of the 1/2 one
        assert compare_to_rational(fm, 0, 1) == 1
        assert compare_to_rational(fm, 1, 2) == -1

    def test_monotone_in_omega(self, arnold):
        # tol matched to the devil-staircase reality: grid points can sit
        # arbitrarily close to high-denominator plateaus
        values = [rotation_number(arnold.shifted(w), tol=1e-6)
                  for w in np.linspace(0.0, 0.9, 16)]
        assert all(b >= a - 2e-6 for a, b in zip(values, values[1:]))

    def test_rational_detection_is_exact(self, arnold):
        est = rotation_estimate(arnold.shifted(0.5))
        assert est.exact is not None
        assert est.exact == Fraction(1, 2)

    def test_tol_validation(self, arnold):
        with pytest.raises(ConfigError):
            rotation_number(arnold, tol=1e-13)

    def test_nan_tol_is_rejected(self):
        # before the rigid-rotation shortcut, which would return for any tol
        with pytest.raises(ConfigError, match="tol must be"):
            rotation_estimate(CircleMap(0.3), tol=math.nan)

    def test_max_iter_validation(self, arnold):
        with pytest.raises(ConfigError):
            rotation_estimate(arnold.shifted(0.3), max_iter=0)

    def test_bracket_is_rigorous(self, golden_estimate):
        est = golden_estimate
        assert est.lo <= Fraction(est.value) <= est.hi
        # inside the 1.7e-11 closest-return bracket of the 2152841-step orbit
        assert Fraction(1330534, 2152841) <= Fraction(est.value) <= Fraction(16763, 27123)
        assert repr(est) == (
            "RotationEstimate(value=0.6180363528937239, lo=Fraction(144, 233), "
            "hi=Fraction(233, 377), exact=None, iterations=2048)"
        )

    def test_near_period_certifies_a_large_denominator(self):
        # rot = 987/1597 on a plateau of width ~1e-5: above the 1500 cap of
        # the doubling steps, so the certificate of the converged average
        # decides
        m = CircleMap(987 / 1597, (), (0.0,) * 1596 + (1e-5,))
        est = rotation_estimate(m, tol=1e-12, max_iter=400_000)
        assert est.exact == Fraction(987, 1597)
        assert est.iterations == 16384

    def test_no_convergence_reports_bracket(self):
        # a near-critical Arnold map: its average settles to 1e-12 only at
        # 16384 steps, so at 2048 it still moves
        m = CircleMap(0.6, (), (0.95 / (2.0 * math.pi),))
        with pytest.raises(NoConvergence) as err:
            rotation_estimate(m, tol=1e-12, max_iter=2048)
        lo, hi = err.value.bracket
        assert lo <= Fraction(rotation_estimate(m, tol=1e-12).value) <= hi


def old_rotation_step(map):
    """The orbit step rotation_estimate had before CircleMap.lift_float."""
    a0, cos_c, sin_c = map.mean_shift, map.cos_coeffs, map.sin_coeffs
    two_pi = 2.0 * math.pi

    def step(y):
        d = a0
        for k, a in enumerate(cos_c, start=1):
            if a:
                d += a * math.cos(two_pi * k * y)
        for k, bb in enumerate(sin_c, start=1):
            if bb:
                d += bb * math.sin(two_pi * k * y)
        return y + d

    return step


def loop_g_values(map, p, q, x):
    """G(x) = F^q(x) - x - p as dynamics evaluated it before IteratedMap.lift,
    kept as its reference: on an array, or on a Python float (float path)."""
    if isinstance(x, float):
        lift = map.lift_float
        y = x
        for _ in range(q):
            y = lift(y)
        return y - x - p
    y = np.asarray(x, dtype=float)
    for _ in range(q):
        y = map.lift(y)
    return y - x - p


class TestFloatPath:
    MAPS = [
        CircleMap(0.6180339887, (), (B,)),
        CircleMap(0.3, (0.01, 0.0, 0.004), (0.02, 0.0, -0.003)),
    ]

    @pytest.mark.parametrize("m", MAPS)
    @pytest.mark.parametrize("p, q", [(0, 1), (3, 5), (77, 125), (377, 610)])
    def test_g_float_equals_0d_array(self, m, p, q):
        fq = m.iterate(q)
        for t in np.random.default_rng(q).uniform(-1.0, 2.0, 12):
            via_float = fq.lift(float(t)) - float(t) - p
            assert type(via_float) is float
            assert via_float == float(fq.lift(np.asarray(t)) - t - p)
            assert via_float == loop_g_values(m, p, q, float(t))

    @pytest.mark.parametrize("m", MAPS)
    def test_rotation_orbit_matches_old_step(self, m):
        old, new = old_rotation_step(m), m.lift_float
        a = b = 0.0
        for _ in range(100_000):
            a, b = old(a), new(b)
            assert a == b
            a -= math.floor(a)
            b -= math.floor(b)


def two_sided_compare(map, p, q, grid=4096):
    """compare_to_rational as it was: both grid extremes refined, then the sign rule."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = loop_g_values(map, p, q, x)
    step = 1.0 / grid

    def refine(idx, sign):
        res = minimize_scalar(
            lambda t: sign * float(loop_g_values(map, p, q, float(t))),
            bounds=(x[idx] - step, x[idx] + step),
            method="bounded",
            options={"xatol": 1e-14, "maxiter": 300},
        )
        return sign * res.fun

    gmin = min(float(g.min()), refine(int(np.argmin(g)), +1.0))
    gmax = max(float(g.max()), refine(int(np.argmax(g)), -1.0))
    floor = _SIGN_FLOOR * max(1, q)
    if gmin > floor:
        return 1
    if gmax < -floor:
        return -1
    return 0


class TestCompareToRational:
    OFFSETS = (-1e-6, -1e-9, -1e-11, -3e-12, -1e-12, 0.0, 1e-12, 3e-12, 1e-11, 1e-9, 1e-6)

    def sweep(self, map, p, q, edges, grid):
        seen = set()
        for edge in edges:
            for d in self.OFFSETS:
                fm = map.shifted(edge + d)
                side = compare_to_rational(fm, p, q, grid)
                assert side == two_sided_compare(fm, p, q, grid), (p, q, edge, d)
                seen.add(side)
        return seen

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (2, 5)])
    def test_plateau_edges(self, arnold, p, q):
        pl = plateau(arnold, p, q, tol=1e-13)
        assert self.sweep(arnold, p, q, (pl.omega_lo, pl.omega_hi), 4096) == {-1, 0, 1}

    @pytest.mark.parametrize("target", [Fraction(10, 27), Fraction(15, 64), Fraction(49, 125)])
    def test_liouville_margin_rationals(self, arnold, target):
        p, q = target.numerator, target.denominator
        pl = plateau(arnold, p, q, tol=1e-13)
        seen = self.sweep(arnold, p, q, (pl.omega_lo, pl.omega_hi), 1024)
        assert {-1, 1} <= seen


def loop_compare_to_rational(map, p, q, grid=4096):
    """compare_to_rational before the cell bound, kept as its reference:
    the full grid, then the Brent refinement of the one extremum the sign
    rule still needs."""
    floor = _SIGN_FLOOR * max(1, q)
    if map.is_rotation:
        val = q * map.mean_shift - p
        return 1 if val > floor else -1 if val < -floor else 0
    fq = map.iterate(q)
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = fq.lift(x) - x - p

    def extremum(sign):
        i = int(np.argmin(sign * g))
        res = minimize_scalar(
            lambda t: sign * (fq.lift(float(t)) - float(t) - p),
            bounds=(x[i] - 1.0 / grid, x[i] + 1.0 / grid),
            method="bounded",
            options={"xatol": 1e-14, "maxiter": 300},
        )
        return sign * min(sign * float(g[i]), res.fun)

    if float(g.min()) > floor:
        return 1 if extremum(1.0) > floor else 0
    if float(g.max()) < -floor:
        return -1 if extremum(-1.0) < -floor else 0
    return 0


class TestCellBound:
    EDGE_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-3)

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (1, 3), (233, 377), (377, 610)])
    @pytest.mark.parametrize("name", ["arnold", "two_humped", "mixed"])
    def test_verdicts_match_loop(self, request, name, p, q):
        # the edges only place the shifts, so crossings on the 1024 grid
        # (to 1e-13) suffice.  At q >= 377 the plateau is under 4e-13 wide,
        # so the upper edge is sought within 1e-12 of the lower one; and one
        # 4096-point sign test and its reference take about 0.1 s, so those
        # run on the 1024 grid alone, which takes the same path: coarse
        # grid, full grid, refinement
        m = (CircleMap(0.0, (0.03,), (0.06,)) if name == "mixed"
             else request.getfixturevalue(name))
        wlo, whi = plateau_bracket(m, p, q)
        lo = _rot_crossing(m, p, q, wlo, whi, 0, grid=1024, tol=1e-13)
        if q >= 377:
            wlo, whi = lo, lo + 1e-12
        hi = _rot_crossing(m, p, q, wlo, whi, 1, grid=1024, tol=1e-13)
        shifts = [e + s * d for e in (lo, hi) for s in (-1.0, 1.0) for d in self.EDGE_OFFSETS]
        shifts += [lo + t * (hi - lo) for t in (0.25, 0.5, 0.75)]
        shifts += [lo - 0.2, hi + 0.2]
        seen = set()
        for grid in (1024, 4096) if q < 377 else (1024,):
            for w in shifts:
                side = compare_to_rational(m.shifted(w), p, q, grid)
                assert side == loop_compare_to_rational(m.shifted(w), p, q, grid), (grid, w)
                seen.add(side)
        assert seen == {-1, 0, 1}

    def test_rotation_verdicts_match_loop(self):
        for p, q in [(0, 1), (1, 2), (1, 3), (233, 377), (377, 610)]:
            for d in (0.0, 1e-14, 1e-12, 1e-9, 0.1):
                for s in (-1.0, 1.0):
                    m = CircleMap(p / q + s * d)
                    for grid in (1024, 4096):
                        got = compare_to_rational(m, p, q, grid)
                        assert got == loop_compare_to_rational(m, p, q, grid)

    def test_bracket_ends_settle_on_coarse_grid(self, arnold, crossing_counts):
        # the ends of plateau's default bracket
        for w, side in zip(plateau_bracket(arnold, 0, 1), (-1, 1)):
            before = dict(crossing_counts)
            assert compare_to_rational(arnold.shifted(w), 0, 1) == side
            assert crossing_counts["grids"] - before["grids"] == 1
            assert crossing_counts["points"] - before["points"] == 512
            assert crossing_counts["refinements"] == before["refinements"]

    @pytest.mark.parametrize("w, side", [(B + 1e-12, 1), (-B - 1e-12, -1)],
                             ids=["upper", "lower"])
    def test_near_edge_reaches_refinement(self, arnold, crossing_counts, w, side):
        # 1e-12 outside an edge of the 0/1 plateau, [-b, b]
        assert compare_to_rational(arnold.shifted(w), 0, 1) == side
        assert loop_compare_to_rational(arnold.shifted(w), 0, 1) == side
        assert crossing_counts["grids"] == 2
        assert crossing_counts["points"] == 512 + 4096
        assert crossing_counts["refinements"] == 1

    def test_grid_validation(self, arnold):
        for grid in (0, -8):
            with pytest.raises(ConfigError):
                compare_to_rational(arnold, 0, 1, grid)


def mp_g(map, p, q, x):
    """G = F^q(x) - x - p at the float x, stepped in 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        tau = 2 * mpmath.pi
        X = mpmath.mpf(x)
        for _ in range(q):
            d = mpmath.mpf(map.mean_shift)
            for k, c in enumerate(map.cos_coeffs, start=1):
                d += c * mpmath.cos(tau * k * X)
            for k, c in enumerate(map.sin_coeffs, start=1):
                d += c * mpmath.sin(tau * k * X)
            X += d
        return float(X - mpmath.mpf(x) - p)


class TestOrbitSamples:
    @pytest.fixture
    def grid_shifts(self, monkeypatch):
        # here only the uniform grids: the orbit stages are what replaced them
        return record_shifts(monkeypatch, ("_g_grid",))

    @pytest.mark.parametrize("n", [8, 512, 4096])
    @pytest.mark.parametrize("name", ["arnold", "two_humped", "mixed"])
    def test_q1_samples_are_the_grid(self, request, name, n):
        m = (CircleMap(0.0, (0.03,), (0.06,)) if name == "mixed"
             else request.getfixturevalue(name))
        for p in (0, 1):
            y, g = dynamics._g_orbit(m, p, 1, n)
            _, x, gg = dynamics._g_grid(m, p, 1, n)
            assert y.tobytes() == x.tobytes()
            assert g.tobytes() == gg.tobytes()

    @pytest.mark.parametrize("at, uniform", [(np.argmax, 1), (np.argmin, -1)])
    def test_uneven_gaps_bound_each_cell(self, period2_family, monkeypatch, at, uniform):
        # 101 true samples of G for 1/2 around an extremum, 4e-4 apart; rot
        # = 1/2, so G changes sign.  A bound of 1/n per cell would settle
        # the sign of the cluster; the gap of 0.96 past it settles nothing,
        # and the uniform grid finds the sign change
        fq, x, g = dynamics._g_grid(period2_family, 1, 2, 4096)
        c = x[at(g)]
        y = np.linspace(c - 0.02, c + 0.02, 101)
        gy = fq.lift(y) - y - 1
        bound = 1.0 / y.size + 2 * _SIGN_FLOOR
        assert gy.min() > bound if uniform > 0 else gy.max() < -bound
        monkeypatch.setattr(dynamics, "_g_orbit", lambda *args: (y, gy))
        assert compare_to_rational(period2_family, 1, 2) == 0

    @pytest.mark.parametrize("p, q", [(233, 377), (377, 610)])
    def test_sample_error_below_floor(self, golden_tuned_arnold, p, q):
        # the orbits reach |F^k| ~ 2 q rot where a grid reaches q rot; the
        # error of G at the sample's own float y stays under floor / 10
        rng = np.random.default_rng(0)
        for m in (-(-512 // q), max(-(-4096 // q), dynamics._ORBIT_STARTS)):
            y, g = dynamics._g_orbit(golden_tuned_arnold, p, q, m)
            picks = [int(np.argmin(g)), int(np.argmax(g)), *rng.choice(g.size, 8)]
            err = max(abs(g[i] - mp_g(golden_tuned_arnold, p, q, float(y[i]))) for i in picks)
            assert err <= 0.1 * _SIGN_FLOOR * q, (m, err)

    @pytest.mark.parametrize("shift", [0.12, 0.6])
    def test_loose_rotation_estimate_matches_grids(self, arnold, monkeypatch, shift):
        # the large-denominator sign tests of a loose tol settle on orbit
        # stages; with them off the uniform grids give the same estimate
        got = rotation_estimate(arnold.shifted(shift), tol=1e-6)
        original = dynamics._g_orbit

        def grids_only(map, p, q, m):
            # one sample of G = 0 settles no stage; at q = 1 they are the grid
            return original(map, p, q, m) if q == 1 else (np.zeros(1), np.zeros(1))

        monkeypatch.setattr(dynamics, "_g_orbit", grids_only)
        ref = rotation_estimate(arnold.shifted(shift), tol=1e-6)
        assert got == ref
        assert got.value.hex() == ref.value.hex()

    def test_golden_bisection_takes_no_grid(self, arnold, monkeypatch, grid_shifts):
        # the golden-mean bisection between the convergents 233/377 and
        # 377/610 settles every sign test on orbit stages
        steps = [0]
        lift, lift_float = CircleMap.lift, CircleMap.lift_float

        def counting_lift(self, z, _check=True):
            steps[0] += np.size(z)
            return lift(self, z, _check)

        def counting_lift_float(self, x):
            steps[0] += 1
            return lift_float(self, x)

        monkeypatch.setattr(CircleMap, "lift", counting_lift)
        monkeypatch.setattr(CircleMap, "lift_float", counting_lift_float)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = arnold.shifted(mid)
            if compare_to_rational(fm, 233, 377) > 0:
                hi = mid
            elif compare_to_rational(fm, 377, 610) < 0:
                lo = mid
            else:
                break
        else:
            pytest.fail("the bisection did not land between the convergents")
        assert grid_shifts == []
        assert steps[0] <= 500_000  # 0.34M; the uniform grids took 16.2M


def loop_grid_roots(g, x, fq, p):
    """The per-point scan that _grid_roots vectorises, kept as its reference,
    with the package's refiners: _bisect for a sign change, minimize_scalar
    for a tangency."""
    n = g.size
    h = 1.0 / n
    roots, suspects = [], []
    for i in range(n):
        gl, gr = g[i], g[(i + 1) % n]
        xl, xr = float(x[i]), float(x[i]) + h
        if gl == 0.0:
            roots.append(xl)
        elif gl * gr < 0.0:
            lo, hi = _bisect(lambda t: (fq.lift(t) - t - p >= 0.0) == (gl < 0.0), xl, xr, 1e-15)
            roots.append(0.5 * (lo + hi))
        elif (
            abs(gl) < 1e-6
            and abs(g[i - 1]) >= abs(gl)
            and abs(gl) <= abs(gr)
            and g[i - 1] * gl > 0.0
        ):
            sgn = 1.0 if gl >= 0.0 else -1.0
            xm, fm = dynamics.minimize_scalar(fq.base, p, fq.q, xl, h, sgn)
            if abs(fm) < 1e-10:
                roots.append(xm % 1.0)
            elif abs(fm) < 1e-8:
                suspects.append((xl - h, xl + h))
    return roots, suspects


class TestFindCycles:
    @pytest.mark.parametrize(
        "m, p, q",
        [
            (CircleMap(0.0, (), (B,)), 0, 1),
            (CircleMap(0.53, (), (0.0, 0.05)), 1, 2),
            # G = B (1 + sin(2 pi x + 0.3)) touches zero between grid points
            (CircleMap(B, (B * math.sin(0.3),), (B * math.cos(0.3),)), 0, 1),
        ],
    )
    def test_grid_scan_matches_loop(self, m, p, q):
        x = np.linspace(0.0, 1.0, 1 << 14, endpoint=False)
        g = loop_g_values(m, p, q, x)
        fq = m.iterate(q)
        assert np.array_equal(fq.lift(x) - x - p, g)
        roots, suspects = _grid_roots(g, x, fq, p)
        assert roots
        assert (roots, suspects) == loop_grid_roots(g, x, fq, p)

    def test_arnold_fixed_points(self, arnold):
        cycles = find_cycles(arnold, 0, 1)
        assert len(cycles) == 2
        by_point = {round(c.points[0], 9): c for c in cycles}
        assert by_point[0.0].multiplier == pytest.approx(1.5, abs=1e-9)
        assert by_point[0.0].kind == "repelling"
        assert by_point[0.5].multiplier == pytest.approx(0.5, abs=1e-9)
        assert by_point[0.5].kind == "attracting"

    @pytest.mark.parametrize(
        "name, shift, p, q, drop",
        [("period2_family", 0.0, 1, 2, 1), ("period2_family", 0.0, 1, 2, 2), ("arnold", 0.5, 1, 2, 1)],
    )
    def test_lost_root_raises(self, request, monkeypatch, name, shift, p, q, drop):
        # one lost root leaves a count that q does not divide; losing the
        # two lowest, which lie on different orbits, leaves two points that
        # f does not map onto each other
        m = request.getfixturevalue(name).shifted(shift)
        grid_roots = dynamics._grid_roots

        def losing(*args):
            roots, suspects = grid_roots(*args)
            return roots[drop:], suspects

        monkeypatch.setattr(dynamics, "_grid_roots", losing)
        with pytest.raises(RootFindingIncomplete):
            find_cycles(m, p, q)

    def test_identity_degenerate(self):
        with pytest.raises(RootFindingIncomplete):
            find_cycles(CircleMap(0.0), 0, 1)

    def test_wrong_rotation_number(self, arnold):
        with pytest.raises(WrongRotationNumber):
            find_cycles(arnold, 1, 2)

    def test_period_two_against_brute_force(self):
        m = CircleMap(0.5, (), (0.0, 0.05))
        cycles = find_cycles(m, 1, 2)
        assert len(cycles) == 2
        kinds = sorted(c.kind for c in cycles)
        assert kinds == ["attracting", "repelling"]
        found = sorted(t for c in cycles for t in c.points)
        oracle = brute_force_roots(m, 1, 2)
        assert len(found) == len(oracle) == 4
        assert np.allclose(found, oracle, atol=1e-10)

    def test_multiplier_product_identity(self, period2_family):
        for c in find_cycles(period2_family, 1, 2):
            direct = float(period2_family.iterate(c.period).deriv(c.points[0]))
            assert c.multiplier == pytest.approx(direct, rel=1e-8)

    def test_alternation(self, period2_family):
        cycles = find_cycles(period2_family, 1, 2)
        pts = sorted((t, c.kind) for c in cycles for t in c.points)
        kinds = [k for _, k in pts]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_coprimality_validation(self, arnold):
        with pytest.raises(ConfigError):
            find_cycles(arnold, 2, 4)


def loop_plateau_edges(map, p, q, tol=1e-10):
    """The bisection plateau had before _rot_crossing, kept as its reference."""
    wlo, whi = plateau_bracket(map, p, q)

    def bisect(lo, hi, want):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if dynamics.compare_to_rational(map.shifted(mid), p, q) >= want:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return bisect(wlo, whi, 0), bisect(wlo, whi, 1)


class TestPlateau:
    @pytest.mark.parametrize("name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("p, q", [(0, 1), (1, 2)])
    def test_edges_match_loop(self, request, name, p, q):
        # the edges are Newton roots certified by the sign of their extremum
        # tol apart; they match the bisection to its tol, not bit for bit
        m = request.getfixturevalue(name)
        pl = plateau(m, p, q)
        edges = (pl.omega_lo, pl.omega_hi)
        for want, got, ref in zip((0, 1), edges, loop_plateau_edges(m, p, q)):
            assert abs(got - ref) <= 1e-10
            assert_certified(m, p, q, got, want, 1e-10)

    @pytest.mark.parametrize("fault", ["offset", "raises"])
    def test_crossing_falls_back_to_bisection(self, arnold, monkeypatch, crossing_counts,
                                              fault):
        # a saddle-node off by 1e-3 fails its certificate; a Newton that
        # gives up (as on a NaN step) leaves no root.  Either way the sign
        # of the extremum is bisected on the bracket
        ref = loop_plateau_edges(arnold, 0, 1)
        saddle_node = dynamics._saddle_node

        def faulty_saddle_node(*args):
            root = saddle_node(*args)
            return None if fault == "raises" or root is None else (root[0], root[1] + 1e-3)

        monkeypatch.setattr(dynamics, "_saddle_node", faulty_saddle_node)
        pl = plateau(arnold, 0, 1)
        assert (pl.omega_lo, pl.omega_hi) == ref
        assert crossing_counts["fallbacks"] == 2

    @pytest.mark.parametrize("name, p, q, fallbacks", [
        ("mixed", 3, 8, 2), ("mixed", 5, 13, 1), ("two_humped", 5, 13, 1)])
    def test_real_crossings_fall_back_to_bisection(self, request, crossing_counts,
                                                   name, p, q, fallbacks):
        # from plateau_bracket's wide bracket Newton lands on the far edge
        # of these plateaus (both edges of mixed 3/8, the left edges of
        # 5/13), the certificate rejects it, and the sign is bisected
        m = (CircleMap(0.0, (0.03,), (0.06,)) if name == "mixed"
             else request.getfixturevalue(name))
        pl = plateau(m, p, q)
        assert crossing_counts["fallbacks"] == fallbacks
        for want, got, ref in zip((0, 1), (pl.omega_lo, pl.omega_hi),
                                  loop_plateau_edges(m, p, q)):
            assert abs(got - ref) <= 1e-10
            assert_certified(m, p, q, got, want, 1e-10)

    def test_crossing_raises_when_bracket_cannot_grow(self, arnold, monkeypatch):
        # the 1/2 plateau lies near omega = 1/2: Newton from the uniform
        # grids at lo and at the midpoint lands outside the bracket, and
        # growing hi from 1e-3 by the bracket's width 8 times reaches only
        # 0.128, each verdict on its own orbit samples, lo's too
        grids = record_shifts(monkeypatch, ("_g_grid",))
        orbits = record_shifts(monkeypatch, ("_g_orbit",))
        with pytest.raises(NumericalError):
            _rot_crossing(arnold, 1, 2, 0.0, 1e-3, 0)
        assert grids == [0.0, 5e-4]
        assert orbits == [0.0] + [1e-3 * 2**k for k in range(8)]

    @pytest.mark.parametrize("want, bracket, edge", [(0, (0.0, 0.05), -B), (1, (-0.05, 0.0), B)])
    def test_crossing_grows_a_fixed_end_on_the_wrong_side(self, arnold, want, bracket, edge):
        # both ends lie inside the 0/1 plateau [-b, b], so the crossing
        # lies outside the bracket, beyond the end that has to move
        got = _rot_crossing(arnold, 0, 1, *bracket, want)
        assert got == pytest.approx(edge, abs=1e-9)
        assert_certified(arnold, 0, 1, got, want, 1e-10)

    def test_crossings_evaluate_each_omega_once(self, arnold, monkeypatch):
        # a uniform G grid is sampled only at Newton's starts, and every
        # verdict of a crossing comes from its own signed extremum of one
        # orbit stage; no sign test of compare_to_rational is made.  Both
        # mixed 3/8 crossings bisect, and their first probe is the midpoint
        # start, which the orbit samples decide too
        def forbidden(*args):
            raise AssertionError("compare_to_rational called")

        monkeypatch.setattr(dynamics, "compare_to_rational", forbidden)
        grids = record_shifts(monkeypatch, ("_g_grid",))
        orbits = record_shifts(monkeypatch, ("_g_orbit",))
        starts, crossings = [], []
        saddle_node, original = dynamics._saddle_node, dynamics._rot_crossing

        def recording_saddle_node(map, p, q, x, w):
            starts.append(map.shifted(w).mean_shift)
            return saddle_node(map, p, q, x, w)

        def recording(*args, **kwargs):
            marks = len(grids), len(orbits), len(starts)
            try:
                return original(*args, **kwargs)
            finally:
                crossings.append((grids[marks[0]:], orbits[marks[1]:], starts[marks[2]:]))

        monkeypatch.setattr(dynamics, "_saddle_node", recording_saddle_node)
        monkeypatch.setattr(dynamics, "_rot_crossing", recording)
        plateau(arnold, 0, 1)
        with pytest.raises(ConfigError):  # the first crossing grows an end
            plateau(arnold, 0, 1, bracket=(-0.01, 0.01))
        with pytest.raises(NumericalError):
            dynamics._rot_crossing(arnold, 1, 2, 0.0, 1e-3, 0)
        plateau(CircleMap(0.0, (0.03,), (0.06,)), 3, 8)
        assert len(crossings) == 6
        for grid_shifts, orbit_shifts, start_shifts in crossings:
            assert grid_shifts == start_shifts
            assert len(set(orbit_shifts)) == len(orbit_shifts) > 0
        for _, orbit_shifts, start_shifts in crossings[-2:]:
            assert start_shifts[-1] in orbit_shifts

    def test_bisect_to_adjacent_floats(self):
        lo, hi = _bisect(lambda w: w >= 1.0 / 3.0, 0.0, 1.0, 0.0)
        assert lo < 1.0 / 3.0 <= hi
        assert math.nextafter(lo, 1.0) == hi

    def test_arnold_plateau_is_pm_b(self, arnold):
        # fixed points exist iff |omega| <= 1/(4 pi)
        pl = plateau(arnold, 0, 1)
        assert pl.omega_lo == pytest.approx(-B, abs=1e-9)
        assert pl.omega_hi == pytest.approx(B, abs=1e-9)

    def test_rotation_family_single_point(self):
        pl = plateau(CircleMap(0.0), 0, 1)
        assert pl.omega_lo == pytest.approx(0.0, abs=1e-9)
        assert pl.width <= 2e-10

    def test_arnold_half_plateau(self, arnold):
        pl = plateau(arnold, 1, 2)
        assert pl.omega_lo < 0.5 < pl.omega_hi
        assert pl.width > 1e-3

    def test_bad_bracket(self, arnold, monkeypatch):
        # rot > 0 at both ends of (0.2, 0.4): the left edge, -b, lies outside
        # it, so the right edge is never sought
        wants = []
        original = dynamics._rot_crossing

        def recording(*args, **kwargs):
            wants.append(args[5])
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_rot_crossing", recording)
        with pytest.raises(ConfigError, match=r"an edge is at -0\.0795"):
            plateau(arnold, 0, 1, bracket=(0.2, 0.4))
        assert wants == [0]

    @pytest.mark.parametrize("bracket", [(0.1, -0.1), (math.nan, 0.1), (-math.inf, 0.1)])
    def test_reversed_or_non_finite_bracket(self, arnold, bracket):
        with pytest.raises(ConfigError, match="must be finite with lo < hi"):
            plateau(arnold, 0, 1, bracket=bracket)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tol_validation(self, arnold, tol):
        # a NaN tol stopped both crossings at once: Plateau(0, 1, 0.0, 0.0)
        with pytest.raises(ConfigError, match="tol must be finite and positive"):
            plateau(arnold, 0, 1, tol=tol)

    def test_zero_denominator_is_rejected(self, arnold):
        # gcd(1, 0) = 1 passed the lowest-terms check, then p / q divided by 0
        for call in (plateau, plateau_bracket, find_cycles):
            with pytest.raises(ConfigError, match="q must be >= 1"):
                call(arnold, 1, 0)
        # before the rigid-rotation shortcut, which returned -1
        for m in (arnold, CircleMap(0.3)):
            with pytest.raises(ConfigError, match="q must be >= 1"):
                compare_to_rational(m, 1, 0)

    def test_edges_are_tangencies(self, arnold):
        # just inside each edge the two fixed points nearly merge
        pl = plateau(arnold, 0, 1)
        inner = pl.omega_hi - 1e-7
        cycles = find_cycles(arnold.shifted(inner), 0, 1)
        gap = min(abs(c.multiplier - 1.0) for c in cycles)
        assert gap < 2.6e-3  # ~ 2.5 sqrt(1e-7)


def mp_g_jet(map, p, q, x, omega):
    """(G, G_x, G_omega, G_xx, G_xomega) at 50 digits: G = F^q(x) - x - p
    for f + omega with exact harmonics 2 pi k, and its partial derivatives
    by mpmath.diff, independent of the chain rule."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        tau = 2 * mpmath.pi

        def g(x, omega):
            X = x
            for _ in range(q):
                d = map.mean_shift + omega
                for k, c in enumerate(map.cos_coeffs, start=1):
                    d += c * mpmath.cos(tau * k * X)
                for k, c in enumerate(map.sin_coeffs, start=1):
                    d += c * mpmath.sin(tau * k * X)
                X += d
            return X - x - p

        at = (mpmath.mpf(x), mpmath.mpf(omega))
        return [float(mpmath.diff(g, at, n)) for n in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]


class TestSaddleNode:
    @pytest.mark.parametrize("q", [1, 5, 125])
    @pytest.mark.parametrize("name", ["arnold", "two_humped", "mixed"])
    def test_jet_matches_mpmath(self, request, name, q):
        # the mixed map runs both the cos and the sin branch; the shifts lie
        # off the wide plateaus, where F^q' is of order one and not crushed
        # toward an attracting cycle
        m = (CircleMap(0.0, (0.03,), (0.06,)) if name == "mixed"
             else request.getfixturevalue(name))
        for omega, x in [(0.618, 0.1), (0.382, 0.62), (0.7071, 0.87)]:
            p = round(q * omega)
            got = dynamics._g_jet(m, p, q, x, omega)
            for a, b in zip(got, mp_g_jet(m, p, q, x, omega)):
                assert abs(a - b) <= 1e-9 * abs(b), (omega, x)
            # G has the bits of the float orbit that every sign test refines;
            # a changed summation order shows at a few of 64 points
            fq = m.shifted(omega).iterate(q)
            for t in (np.arange(64) / 64).tolist():
                assert dynamics._g_jet(m, p, q, t, omega)[0] == fq.lift(t) - t - p

    @pytest.mark.parametrize("q, x, w", [(1, 1.7e308, 0.0), (1, -1.7e308, 0.0),
                                         (2, 0.25, 1.7e308)])
    def test_start_off_the_circle_gives_none(self, arnold, q, x, w):
        # a jet there overflows 2 pi X to inf, and math.sin(inf) raises
        assert dynamics._saddle_node(arnold, 0, q, x, w) is None

    def test_converged_x_off_the_circle_gives_none(self, arnold, monkeypatch):
        # a planted jet whose Newton step moves omega by 1e-20, which
        # converges, and x by 1e20, which no crossing may read G at
        monkeypatch.setattr(dynamics, "_g_jet", lambda *args: (0.0, 1e-40, 1.0, -1e-60, 0.0))
        assert dynamics._saddle_node(arnold, 0, 1, 0.25, 0.0) is None


class TestDenjoyDistortion:
    def test_rotation_zero(self, rotation):
        assert denjoy_distortion(rotation, (0.1, 0.3), 5) == 0.0

    def test_arnold_single_step(self, arnold, arnold_distortion):
        d = denjoy_distortion(arnold, (0.1, 0.2), 1)
        assert 0.0 < d <= arnold_distortion + 1e-8

    def test_overlap_error(self, arnold):
        with pytest.raises(ImagesOverlap):
            denjoy_distortion(arnold, (0.1, 0.2), 2)

    def test_random_instances_respect_bound(self):
        rng = np.random.default_rng(11)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 4000:
            attempts += 1
            k = int(rng.integers(1, 3))
            coeffs = rng.uniform(-1.0, 1.0, 2 * k)
            scale = 0.7 / (2 * math.pi * sum(
                (i % k + 1) * abs(c) for i, c in enumerate(coeffs)))
            cos_c = tuple(scale * c for c in coeffs[:k])
            sin_c = tuple(scale * c for c in coeffs[k:])
            m = CircleMap(rng.uniform(0, 1), cos_c, sin_c)
            a = float(rng.uniform(0, 1))
            width = float(rng.uniform(0.005, 0.05))
            n = int(rng.integers(1, 5))
            try:
                d = denjoy_distortion(m, (a, a + width), n)
            except ImagesOverlap:
                continue
            bound = total_distortion(m)
            assert d <= bound + 1e-8
            checked += 1
        assert checked == 100

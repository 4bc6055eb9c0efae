import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from circletau import dynamics
from circletau.dynamics import (
    _SIGN_FLOOR,
    _g_values,
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
        # arbitrarily close to high-denominator plateaus where tighter
        # brackets stall
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

    def test_bracket_is_rigorous(self, golden_tuned_arnold):
        est = rotation_estimate(golden_tuned_arnold, tol=1e-9)
        assert est.bracket_width <= 1e-9
        assert float(est.lo) <= est.value <= float(est.hi)

    def test_no_convergence_reports_bracket(self):
        # a tiny perturbation of a rotation near 1/2 (the rigid rotation
        # shortcut would dodge the orbit): the bracket stalls
        m = CircleMap(0.4999999999, (), (1e-12,))
        with pytest.raises(NoConvergence) as err:
            rotation_estimate(m, tol=1e-12, max_iter=200_000)
        assert err.value.bracket is not None


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


class TestFloatPath:
    MAPS = [
        CircleMap(0.6180339887, (), (B,)),
        CircleMap(0.3, (0.01, 0.0, 0.004), (0.02, 0.0, -0.003)),
    ]

    @pytest.mark.parametrize("m", MAPS)
    @pytest.mark.parametrize("p, q", [(0, 1), (3, 5), (77, 125), (377, 610)])
    def test_g_float_equals_0d_array(self, m, p, q):
        for t in np.random.default_rng(q).uniform(-1.0, 2.0, 12):
            via_float = _g_values(m, p, q, float(t))
            assert type(via_float) is float
            assert via_float == float(_g_values(m, p, q, np.asarray(t)))

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
    g = _g_values(map, p, q, x)
    step = 1.0 / grid

    def refine(idx, sign):
        res = minimize_scalar(
            lambda t: sign * float(_g_values(map, p, q, float(t))),
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


def loop_grid_roots(g, x, scalar_g):
    """The per-point scan that _grid_roots vectorises, kept as its reference."""
    n = g.size
    h = 1.0 / n
    roots, suspects = [], []
    for i in range(n):
        gl, gr = g[i], g[(i + 1) % n]
        xl, xr = x[i], x[i] + h
        if gl == 0.0:
            roots.append(xl)
        elif gl * gr < 0.0:
            roots.append(brentq(scalar_g, xl, xr, xtol=1e-15, rtol=8.9e-16))
        elif (
            abs(gl) < 1e-6
            and abs(g[i - 1]) >= abs(gl)
            and abs(gl) <= abs(gr)
            and g[i - 1] * gl > 0.0
        ):
            sgn = 1.0 if gl >= 0.0 else -1.0
            res = minimize_scalar(
                lambda t: sgn * scalar_g(t),
                bounds=(xl - h, xl + h),
                method="bounded",
                options={"xatol": 1e-14, "maxiter": 300},
            )
            if abs(res.fun) < 1e-10:
                roots.append(float(res.x) % 1.0)
            elif abs(res.fun) < 1e-8:
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
        g = _g_values(m, p, q, x)

        def scalar_g(t):
            return float(_g_values(m, p, q, float(t)))

        roots, suspects = _grid_roots(g, x, scalar_g)
        assert roots
        assert (roots, suspects) == loop_grid_roots(g, x, scalar_g)

    def test_arnold_fixed_points(self, arnold):
        cycles = find_cycles(arnold, 0, 1)
        assert len(cycles) == 2
        by_point = {round(c.points[0], 9): c for c in cycles}
        assert by_point[0.0].multiplier == pytest.approx(1.5, abs=1e-9)
        assert by_point[0.0].kind == "repelling"
        assert by_point[0.5].multiplier == pytest.approx(0.5, abs=1e-9)
        assert by_point[0.5].kind == "attracting"

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
    def test_edges_match_loop(self, request, compare_log, name, p, q):
        m = request.getfixturevalue(name)
        pl = plateau(m, p, q)
        calls = compare_log[2:]  # after the two bracket checks
        compare_log.clear()
        assert (pl.omega_lo, pl.omega_hi) == loop_plateau_edges(m, p, q)
        assert calls and calls == compare_log

    def test_crossing_raises_when_bracket_cannot_grow(self, arnold, compare_log):
        # the 1/2 plateau lies near omega = 1/2: growing hi from 1e-3 by the
        # bracket's width 8 times reaches only 0.128
        with pytest.raises(NumericalError):
            _rot_crossing(arnold, 1, 2, 0.0, 1e-3, 0, grow="hi")
        assert [c[0] for c in compare_log] == [1e-3 * 2**k for k in range(8)]

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

    def test_bad_bracket(self, arnold):
        with pytest.raises(ConfigError):
            plateau(arnold, 0, 1, bracket=(0.2, 0.4))

    def test_edges_are_tangencies(self, arnold):
        # just inside each edge the two fixed points nearly merge
        pl = plateau(arnold, 0, 1)
        inner = pl.omega_hi - 1e-7
        cycles = find_cycles(arnold.shifted(inner), 0, 1)
        gap = min(abs(c.multiplier - 1.0) for c in cycles)
        assert gap < 2.6e-3  # ~ 2.5 sqrt(1e-7)


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
            bound = total_distortion(m).value
            assert d <= bound + 1e-8
            checked += 1
        assert checked == 100

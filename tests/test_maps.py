import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from circletau.errors import ConfigError, NotADiffeomorphism, StripExceeded
from circletau.maps import (
    _STRIP_CAP,
    _STRIP_GRID,
    _STRIP_MARGIN,
    CircleMap,
    _fpp_kinks,
    total_distortion,
)

B = 1.0 / (4.0 * math.pi)


def gauss_legendre_oracle(map, a, b, n=200):
    """Independent quadrature of |F''/F'| on a kink-free interval."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    vals = np.abs(map.deriv(x, 2) / map.deriv(x, 1))
    return 0.5 * (b - a) * float(weights @ vals)


class TestEvaluation:
    def test_rotation_lift(self, rotation):
        assert rotation.lift(0.1) == pytest.approx(0.35, abs=1e-15)

    def test_arnold_at_zero(self, arnold):
        assert arnold.lift(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_arnold_at_quarter(self, arnold):
        # sin(pi/2) = 1, so F(1/4) = 1/4 + 1/(4 pi)
        assert arnold.lift(0.25) == pytest.approx(0.25 + B, abs=1e-15)

    def test_periodicity_random(self, arnold, two_humped):
        rng = np.random.default_rng(7)
        for m in (arnold, two_humped, CircleMap(0.3, (0.01, 0.004), (0.02,))):
            x = rng.uniform(-3.0, 3.0, 1000)
            err = np.abs(m.lift(x + 1.0) - m.lift(x) - 1.0)
            assert float(err.max()) < 1e-12

    @pytest.mark.parametrize(
        "m",
        [
            CircleMap(0.0, (), (B,)),
            CircleMap(0.3, (0.01, 0.0, 0.004), (0.02, 0.0, -0.003)),
            CircleMap(-1.7, (0.0, -0.02), (0.05,)),
        ],
    )
    def test_lift_float_matches_array_lift(self, m):
        x = np.random.default_rng(3).uniform(-5.0, 5.0, 20000)
        scalar = np.array([m.lift_float(float(t)) for t in x])
        np.testing.assert_array_max_ulp(scalar, m.lift(x), maxulp=1)

    def test_strip_exceeded(self, arnold):
        delta = arnold.strip_halfwidth
        with pytest.raises(StripExceeded):
            arnold.lift(0.3 + 1.5j * delta)
        # inside the strip is fine
        arnold.lift(0.3 + 0.5j * delta)


class TestDerivative:
    def test_rotation(self, rotation):
        assert rotation.deriv(0.77) == pytest.approx(1.0, abs=0.0)

    def test_arnold_order1(self, arnold):
        assert arnold.deriv(0.0) == pytest.approx(1.5, abs=1e-15)
        assert arnold.deriv(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_finite_differences(self, arnold):
        rng = np.random.default_rng(3)
        m = CircleMap(0.1, (0.01,), (0.03, 0.002))
        h = 1e-6
        for _ in range(20):
            z = complex(rng.uniform(0, 1), rng.uniform(-0.02, 0.02))
            fd1 = (m.lift(z + h) - m.lift(z - h)) / (2 * h)
            assert abs(fd1 - m.deriv(z)) / abs(m.deriv(z)) < 1e-6
            fd2 = (m.deriv(z + h) - m.deriv(z - h)) / (2 * h)
            assert abs(fd2 - m.deriv(z, 2)) < 1e-5 * max(1.0, abs(m.deriv(z, 2)))

    def test_bad_order(self, arnold):
        with pytest.raises(ConfigError):
            arnold.deriv(0.1, order=3)


class TestShift:
    def test_real_shift_is_circle_map(self, rotation):
        from circletau.dynamics import rotation_number

        shifted = rotation.shifted(0.25)
        assert rotation_number(shifted) == pytest.approx(0.5, abs=1e-12)

    def test_zero_shift_identity(self, arnold):
        shifted = arnold.shifted(0.0)
        x = np.linspace(0, 1, 17)
        assert np.allclose(shifted.lift(x), arnold.lift(x), atol=0)

    def test_complex_shift_constant_imag(self, arnold):
        fm = arnold.shifted(0.1j)
        x = np.linspace(0, 1, 64)
        im = np.imag(fm.lift(x))
        assert np.allclose(im, 0.1, atol=1e-15)


def loop_fpp_kinks(map, grid=4096):
    """The per-cell scan that _fpp_kinks vectorises, kept as its reference."""
    xs = np.linspace(0.0, 1.0, grid + 1)
    fpp = map.deriv(xs, 2)
    kinks = []
    for i in range(grid):
        lo, hi = fpp[i], fpp[i + 1]
        if lo == 0.0:
            kinks.append(xs[i])
        elif lo * hi < 0.0:
            kinks.append(brentq(lambda t: map.deriv(t, 2), xs[i], xs[i + 1], xtol=1e-15))
    return kinks


class TestTotalDistortion:
    @pytest.mark.parametrize(
        "m",
        [
            # F'' vanishes exactly at the grid point x = 0
            CircleMap(0.0, (), (B,)),
            CircleMap(0.0, (), (-0.05, -0.03)),
            CircleMap(0.3, (0.01, 0.0, 0.004), (0.02,)),
        ],
    )
    def test_kink_scan_matches_loop(self, m):
        kinks = _fpp_kinks(m)
        assert kinks
        assert kinks == loop_fpp_kinks(m)

    def test_rotation_exactly_zero(self, rotation):
        d = total_distortion(rotation)
        assert d.value == 0.0 and d.quadrature_error == 0.0

    def test_arnold_closed_form(self, arnold):
        # integral of pi |sin 2 pi x| / (1 + cos(2 pi x)/2) over one period
        # evaluates to 2 ln 3 by substitution u = cos 2 pi x
        d = total_distortion(arnold)
        assert d.value == pytest.approx(2.0 * math.log(3.0), abs=1e-11)
        assert d.quadrature_error < 1e-10

    def test_arnold_vs_quadrature_oracle(self, arnold):
        # F'' vanishes at x = 0, 1/2: integrate each smooth half separately
        oracle = gauss_legendre_oracle(arnold, 0.0, 0.5) + gauss_legendre_oracle(
            arnold, 0.5, 1.0
        )
        assert total_distortion(arnold).value == pytest.approx(oracle, abs=1e-11)

    def test_small_coefficient_limit(self):
        # integrand ~ 4 pi^2 b |sin 2 pi x|, so D ~ 8 pi b
        prev = math.inf
        for b in (1e-2, 1e-3, 1e-4):
            d = total_distortion(CircleMap(0.0, (), (b,))).value
            assert d < prev
            assert d == pytest.approx(8.0 * math.pi * b, rel=2e-2 if b > 1e-3 else 1e-3)
            prev = d
        assert prev < 1e-2

    def test_subdivision_independence(self, two_humped):
        d1 = total_distortion(two_humped, subdivisions=8).value
        d2 = total_distortion(two_humped, subdivisions=13).value
        assert abs(d1 - d2) < 1e-9

    def test_not_a_diffeomorphism(self):
        bad = CircleMap(0.0, (), (0.2,), validate=False)  # 1 + 0.4 pi cos < 0
        with pytest.raises(NotADiffeomorphism):
            total_distortion(bad)


class TestIterate:
    def test_rotation_iterate(self):
        m = CircleMap(0.3)
        h = m.iterate(5)
        assert h.lift(0.2) == pytest.approx(0.2 + 1.5, abs=1e-14)

    def test_identity_iterate(self, arnold):
        h = arnold.iterate(1)
        x = np.linspace(0, 1, 13)
        assert np.allclose(h.lift(x), arnold.lift(x), atol=0)

    def test_chain_rule_at_fixed_point(self, arnold):
        # 0 is a fixed point with F'(0) = 3/2
        h = arnold.iterate(2)
        assert h.deriv(0.0) == pytest.approx(1.5**2, abs=1e-14)
        assert h.deriv(0.0, 2) == pytest.approx(
            float(arnold.deriv(0.0, 2)) * 1.5 * (1.0 + 1.5), abs=1e-12
        )

    def test_second_derivative_fd(self, arnold):
        h = arnold.iterate(3)
        x0, step = 0.3123, 1e-5
        fd = (float(h.lift(x0 + step)) - 2 * float(h.lift(x0)) + float(h.lift(x0 - step))) / step**2
        assert fd == pytest.approx(float(h.deriv(x0, 2)), rel=1e-4)

    def test_bad_count(self, arnold):
        with pytest.raises(ConfigError):
            arnold.iterate(0)

    @pytest.mark.parametrize("name, q", [("arnold", 2), ("two_humped", 2), ("two_humped", 3)])
    def test_strip_inside_loop_bracket(self, request, name, q):
        # the earlier fixed 50 halvings of [0, delta0] take the same midpoints,
        # so the bisection to adjacent floats ends inside their last bracket
        h = request.getfixturevalue(name).iterate(q)
        lo, hi = loop_iterated_strip_bracket(h)
        assert lo <= h.strip_halfwidth < hi
        assert h.strip_halfwidth < h.base.strip_halfwidth


def loop_iterated_strip_bracket(h):
    """The last bracket of the earlier 50-step IteratedMap strip bisection."""
    delta0 = h.base.strip_halfwidth
    x = np.linspace(0.0, 1.0, 512, endpoint=False)

    def ok(delta):
        for sign in (1.0, -1.0):
            z = x + 1j * sign * delta
            for _ in range(h.q - 1):
                z = h.base.lift(z, _check=False)
                if np.max(np.abs(np.imag(z))) >= delta0:
                    return False
        return True

    lo, hi = 0.0, delta0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def loop_strip_halfwidth(map):
    """The fixed 60-step strip bisection before _bisect, kept as its reference."""
    x = np.linspace(0.0, 1.0, _STRIP_GRID, endpoint=False)

    def ok(delta):
        for sign in (1.0, -1.0):
            fp = map.deriv(x + 1j * sign * delta, _check=False)
            if np.min(np.real(fp)) <= _STRIP_MARGIN:
                return False
        return True

    if map.is_rotation or ok(_STRIP_CAP):
        return _STRIP_CAP
    if not ok(2.0 ** -40):
        return 0.0
    lo, hi = 2.0 ** -40, _STRIP_CAP
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestValidationAndStrip:
    @pytest.mark.parametrize("name", ["arnold", "two_humped", "rotation"])
    def test_strip_matches_loop(self, request, name):
        m = request.getfixturevalue(name)
        assert m.strip_halfwidth == loop_strip_halfwidth(m)

    def test_construction_rejects_non_diffeo(self):
        with pytest.raises(NotADiffeomorphism):
            CircleMap(0.0, (), (0.3,))

    def test_certificate(self, arnold):
        assert arnold.derivative_certificate  # 2 pi (1/4pi) = 0.5 < 1
        # coefficient sum 2 pi (0.1 + 2*0.03) > 1: still a diffeomorphism
        # on the grid, but the rigorous certificate no longer applies
        assert not CircleMap(0.0, (0.1, 0.03), ()).derivative_certificate

    def test_rotation_strip_capped(self, rotation):
        assert rotation.strip_halfwidth == 4.0

    def test_arnold_strip(self, arnold):
        # min Re F' on the line Im z = delta is 1 - cosh(2 pi delta)/2,
        # which crosses 0.1 at delta = arccosh(1.8)/(2 pi)
        expected = math.acosh(1.8) / (2.0 * math.pi)
        assert arnold.strip_halfwidth == pytest.approx(expected, abs=1e-6)

    def test_mirrored(self, two_humped):
        m = two_humped.mirrored()
        x = np.linspace(0, 1, 41)
        assert np.allclose(m.lift(-x), -np.asarray(two_humped.lift(x)), atol=1e-14)


class TestDescriptor:
    def test_roundtrip(self, two_humped):
        desc = two_humped.to_descriptor()
        again = CircleMap.from_descriptor(json.loads(json.dumps(desc)))
        assert again == two_humped

    def test_bad_descriptor(self):
        with pytest.raises(ConfigError):
            CircleMap.from_descriptor({"mean_shift": "zero point five"})

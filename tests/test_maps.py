import json
import math

import numpy as np
import pytest

from circletau.errors import ConfigError, NotADiffeomorphism, StripExceeded
from circletau.maps import (
    TWO_PI,
    _STRIP_CAP,
    _STRIP_GRID,
    _STRIP_MARGIN,
    CircleMap,
    _bisect,
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


def loop_displacement(m, z):
    """CircleMap.displacement before it kept its nonzero harmonics, kept as
    its reference."""
    z = np.asarray(z)
    out = np.full(z.shape, m.mean_shift, dtype=z.dtype if np.iscomplexobj(z) else float)
    for k, a in enumerate(m.cos_coeffs, start=1):
        if a:
            out = out + a * np.cos(TWO_PI * k * z)
    for k, b in enumerate(m.sin_coeffs, start=1):
        if b:
            out = out + b * np.sin(TWO_PI * k * z)
    return out if out.shape else out[()]


def loop_deriv(m, z, order):
    """CircleMap.deriv before it kept its nonzero harmonics, kept as its
    reference."""
    z = np.asarray(z)
    dtype = z.dtype if np.iscomplexobj(z) else float
    out = np.full(z.shape, 1.0 if order == 1 else 0.0, dtype=dtype)
    for k, a in enumerate(m.cos_coeffs, start=1):
        if a:
            w = TWO_PI * k
            out = out + (-a * w * np.sin(w * z) if order == 1 else -a * w * w * np.cos(w * z))
    for k, b in enumerate(m.sin_coeffs, start=1):
        if b:
            w = TWO_PI * k
            out = out + (b * w * np.cos(w * z) if order == 1 else -b * w * w * np.sin(w * z))
    return out if out.shape else out[()]


class TestSparseHarmonics:
    @pytest.mark.parametrize(
        "name", ["arnold", "rotation", "two_humped", "period2_family", "mixed", "sparse_k2100"]
    )
    def test_matches_loop_bit_for_bit(self, request, name):
        extra = {
            "mixed": CircleMap(0.3, (0.02, 0.0, 0.01), (0.04, 0.015)),
            "sparse_k2100": CircleMap(0.3, (), (0.0,) * 2099 + (1e-5,)),
        }
        m = extra[name] if name in extra else request.getfixturevalue(name)
        # the strip check is not compared: the K = 2100 strip is 2e-4 wide
        rng = np.random.default_rng(11)
        points = [
            rng.uniform(-2.0, 2.0, 513),
            rng.uniform(0.0, 1.0, 64) + 1e-4j * rng.uniform(-1.0, 1.0, 64),
            np.asarray(0.1),
            0.37,
            0.2 + 5e-5j,
        ]
        for z in points:
            pairs = [(m.displacement(z, _check=False), loop_displacement(m, z))]
            pairs += [(m.deriv(z, order, _check=False), loop_deriv(m, z, order))
                      for order in (1, 2)]
            for got, ref in pairs:
                assert type(got) is type(ref)
                got, ref = np.asarray(got), np.asarray(ref)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


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

    def test_complex_shift_refused(self, arnold):
        # float(np.complex128) drops Im with only a warning, so shifted
        # must test the imaginary part itself
        for omega in (0.1j, 0.2 + 0.1j, np.complex128(0.1j)):
            with pytest.raises(ConfigError):
                arnold.shifted(omega)


def loop_fpp_kinks(map, grid=4096):
    """The per-cell scan that _fpp_kinks vectorises, kept as its reference,
    with the package's bisection."""
    xs = np.linspace(0.0, 1.0, grid + 1)
    fpp = map.deriv(xs, 2)
    kinks = []
    for i in range(grid):
        lo, hi = fpp[i], fpp[i + 1]
        if lo == 0.0:
            kinks.append(xs[i])
        elif lo * hi < 0.0:
            a, b = _bisect(lambda t: (map.deriv(t, 2) >= 0.0) == (lo < 0.0),
                           float(xs[i]), float(xs[i + 1]), 1e-15)
            kinks.append(0.5 * (a + b))
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
        assert total_distortion(rotation) == 0.0

    def test_arnold_closed_form(self, arnold):
        # integral of pi |sin 2 pi x| / (1 + cos(2 pi x)/2) over one period
        # evaluates to 2 ln 3 by substitution u = cos 2 pi x
        assert total_distortion(arnold) == pytest.approx(2.0 * math.log(3.0), abs=1e-11)

    def test_arnold_vs_quadrature_oracle(self, arnold):
        # F'' vanishes at x = 0, 1/2: integrate each smooth half separately
        oracle = gauss_legendre_oracle(arnold, 0.0, 0.5) + gauss_legendre_oracle(
            arnold, 0.5, 1.0
        )
        assert total_distortion(arnold) == pytest.approx(oracle, abs=1e-11)

    def test_small_coefficient_limit(self):
        # integrand ~ 4 pi^2 b |sin 2 pi x|, so D ~ 8 pi b
        prev = math.inf
        for b in (1e-2, 1e-3, 1e-4):
            d = total_distortion(CircleMap(0.0, (), (b,)))
            assert d < prev
            assert d == pytest.approx(8.0 * math.pi * b, rel=2e-2 if b > 1e-3 else 1e-3)
            prev = d
        assert prev < 1e-2

    @pytest.mark.parametrize(
        "m",
        [
            CircleMap(0.0, (), (-0.05, -0.03)),
            CircleMap(0.3, (0.01, 0.0, 0.004), (0.02,)),
            CircleMap(0.0, (), (-0.05, -0.03)).iterate(3),
        ],
    )
    def test_matches_quadrature_between_kinks(self, m):
        ends = _fpp_kinks(m)
        ends = ends + [ends[0] + 1.0]
        oracle = sum(gauss_legendre_oracle(m, a, b) for a, b in zip(ends, ends[1:]))
        assert total_distortion(m) == pytest.approx(oracle, abs=1e-12)

    def test_dense_kinks_all_found(self):
        # F'' = -b w^2 sin(w x), w = 2 pi K, has 2K zeros, some two to a
        # cell of a 4096-cell scan at K = 2100, and log F' swings between
        # log(1 + b w) and log(1 - b w) from each to the next
        K, b = 2100, 1e-5
        m = CircleMap(0.3, (), (0.0,) * (K - 1) + (b,))
        bw = b * 2.0 * math.pi * K
        assert len(_fpp_kinks(m)) == 2 * K
        assert total_distortion(m) == pytest.approx(
            2 * K * math.log((1.0 + bw) / (1.0 - bw)), rel=1e-12
        )

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

    @pytest.mark.parametrize("method", ["lift", "deriv"])
    @pytest.mark.parametrize("q", [1, 3])
    def test_strip_exceeded(self, arnold, method, q):
        z = 0.3 + 1.5j * arnold.strip_halfwidth
        with pytest.raises(StripExceeded):
            getattr(arnold.iterate(q), method)(z)

    @pytest.mark.parametrize("name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_float_lift_matches_0d_array(self, request, name, q):
        h = request.getfixturevalue(name).iterate(q)
        for t in np.random.default_rng(q).uniform(-1.0, 2.0, 200).tolist():
            via_float = h.lift(t)
            assert type(via_float) is float
            assert via_float == h.lift(np.asarray(t))

    @pytest.mark.parametrize("name", ["arnold", "two_humped", "mixed"])
    @pytest.mark.parametrize("q", [1, 3])
    def test_deriv_matches_loop_bit_for_bit(self, request, name, q):
        m = (CircleMap(0.3, (0.02, 0.0, 0.01), (0.04, 0.015)) if name == "mixed"
             else request.getfixturevalue(name))
        h = m.iterate(q)
        rng = np.random.default_rng(5)
        delta = 0.2 * h.strip_halfwidth
        points = [
            rng.uniform(-2.0, 2.0, 257),
            rng.uniform(0.0, 1.0, 32) + 1j * delta * rng.uniform(-1.0, 1.0, 32),
            np.asarray(0.1),
            0.37,
            0.2 + 0.5j * delta,
        ]
        for z in points:
            for order in (1, 2):
                got, ref = h.deriv(z, order), loop_iterated_deriv(h, z, order)
                assert type(got) is type(ref)
                got, ref = np.asarray(got), np.asarray(ref)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name, q", [("arnold", 2), ("two_humped", 2), ("two_humped", 3)])
    def test_strip_inside_loop_bracket(self, request, name, q):
        # the earlier fixed 50 halvings of [0, delta0] take the same midpoints,
        # so the bisection to adjacent floats ends inside their last bracket
        h = request.getfixturevalue(name).iterate(q)
        lo, hi = loop_iterated_strip_bracket(h)
        assert lo <= h.strip_halfwidth < hi
        assert h.strip_halfwidth < h.base.strip_halfwidth


def loop_iterated_deriv(h, z, order):
    """IteratedMap.deriv as it was, with d2 allocated for either order."""
    val = np.asarray(z)
    d1 = np.ones(val.shape)
    d2 = np.zeros_like(d1)
    for _ in range(h.q):
        fp = h.base.deriv(val, 1)
        if order == 2:
            d2 = h.base.deriv(val, 2) * d1 * d1 + fp * d2
        d1 = fp * d1
        val = h.base.lift(val)
    out = d1 if order == 1 else d2
    return out if out.shape else out[()]


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


def random_map(seed, modes=3, size=0.01):
    """Random a0, a_k, b_k in (-size, size) for k = 1..modes; with the
    defaults 2 pi sum k (|a_k| + |b_k|) < 0.76, so F' > 0."""
    c = np.random.default_rng(seed).uniform(-size, size, 2 * modes + 1)
    return CircleMap(c[0], tuple(c[1:modes + 1]), tuple(c[modes + 1:]))


RANDOM_MAPS = {"random3-seed1": random_map(1), "random3-seed2": random_map(2)}


class TestValidationAndStrip:
    @pytest.mark.parametrize("name", ["arnold", "two_humped", "rotation", "period2_family",
                                      *RANDOM_MAPS])
    def test_strip_matches_loop(self, request, name):
        # the oracle samples both lines Im z = +-delta, the property only +delta
        m = RANDOM_MAPS.get(name) or request.getfixturevalue(name)
        assert m.strip_halfwidth == loop_strip_halfwidth(m)

    def test_construction_rejects_non_diffeo(self):
        with pytest.raises(NotADiffeomorphism):
            CircleMap(0.0, (), (0.3,))

    @pytest.mark.parametrize("mean_shift, cos_c, sin_c", [
        (math.inf, (), (0.05,)),
        (math.nan, (), ()),
        (0.0, (), (math.nan,)),
        (0.0, (0.01, -math.inf), ()),
    ])
    @pytest.mark.parametrize("validate", [True, False])
    def test_non_finite_coefficients_are_rejected(self, mean_shift, cos_c, sin_c, validate):
        # a ConfigError before validate: an infinite shift passes the F' check
        # and NaN would reach LAPACK, or fail it as NotADiffeomorphism
        with pytest.raises(ConfigError, match="must be finite"):
            CircleMap(mean_shift, cos_c, sin_c, validate=validate)

    def test_non_finite_shift_is_rejected(self, arnold):
        with pytest.raises(ConfigError, match="must be finite"):
            arnold.shifted(math.inf)

    # theta = half a validation-grid step: F' = 1 - A cos(2 pi x - theta)
    # bottoms out at -1e-8 between two grid points
    HALF_STEP = math.pi / 8192

    @pytest.mark.parametrize(
        "cos_c, sin_c, true_min",
        [((), ((1.0 - 1e-4) / (2.0 * math.pi),), 1e-4),
         (((1.0 + 1e-8) * math.sin(HALF_STEP) / (2.0 * math.pi),),
          (-(1.0 + 1e-8) * math.cos(HALF_STEP) / (2.0 * math.pi),), -1e-8)],
        ids=["diffeo-under-margin", "fold-between-grid-points"],
    )
    def test_construction_needs_the_between_points_margin(self, cos_c, sin_c, true_min):
        probe = CircleMap(0.0, cos_c, sin_c, validate=False)
        grid = np.linspace(0.0, 1.0, 8192, endpoint=False)
        assert float(np.min(probe.deriv(grid))) > 0.0
        x_min = 0.5 if not cos_c else 0.5 / 8192
        assert float(probe.deriv(x_min)) == pytest.approx(true_min, rel=1e-3)
        with pytest.raises(NotADiffeomorphism):
            CircleMap(0.0, cos_c, sin_c)

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

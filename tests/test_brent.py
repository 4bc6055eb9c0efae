"""The package's Brent routines against scipy.optimize, kept as the oracle.

``maps.brentq`` and ``dynamics.minimize_scalar`` are ports of
scipy.optimize.brentq and of minimize_scalar(method="bounded") at
xatol = 1e-14, maxiter = 300.  On a seeded corpus they must return the
same bits and types, and raise the same exception types.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from circletau.dynamics import _g_extremum, _g_grid, minimize_scalar, plateau_bracket
from circletau.maps import CircleMap, brentq

B = 1.0 / (4.0 * math.pi)
MAPS = {
    "arnold": CircleMap(0.0, (), (B,)),
    "two_humped": CircleMap(0.0, (), (-0.05, -0.03)),
}
# (xtol, rtol) of the package's calls: _grid_roots, _fpp_kinks, _rot_crossing
TOLS = [(1e-15, 8.9e-16), (1e-15, None), (2.5e-11, None)]


def outcome(call):
    """(bits of the value as float64, its type), or the exception type."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return np.float64(value).tobytes(), type(value)


def assert_root_matches(f, a, b, xtol, rtol=None):
    kw = {} if rtol is None else {"rtol": rtol}
    ours = outcome(lambda: brentq(f, a, b, xtol=xtol, **kw))
    theirs = outcome(lambda: scipy.optimize.brentq(f, a, b, xtol=xtol, **kw))
    assert ours == theirs


def assert_min_matches(fn, a, b):
    res = scipy.optimize.minimize_scalar(
        lambda t: fn(float(t)), bounds=(a, b), method="bounded",
        options={"xatol": 1e-14, "maxiter": 300},
    )
    x, fun = minimize_scalar(fn, a, b)
    assert (outcome(lambda: x), outcome(lambda: fun)) == (
        outcome(lambda: res.x), outcome(lambda: res.fun))


def g_cells(name, q, seed):
    """A shifted map of the family, G = F^q - x - c on a 1024-point grid
    with c three tenths into its range (so G changes sign between grid
    points), and its scalar."""
    rng = np.random.default_rng(seed)
    fq = MAPS[name].shifted(float(rng.uniform(0.0, 1.0))).iterate(q)
    x = np.linspace(0.0, 1.0, 1024, endpoint=False)
    g = fq.lift(x) - x
    c = g.min() + 0.3 * (g.max() - g.min())
    return x, g - c, lambda t: fq.lift(t) - t - c


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("q", [1, 2, 5, 377])
@pytest.mark.parametrize("seed", [0, 1])
class TestGCells:
    def test_roots(self, name, q, seed):
        x, g, scalar = g_cells(name, q, seed)
        cells = np.flatnonzero(g * np.roll(g, -1) < 0.0)
        assert cells.size >= 2
        h = 1.0 / g.size
        for i in cells[:4]:
            for xtol, rtol in TOLS:
                assert_root_matches(scalar, x[i], x[i] + h, xtol, rtol)

    def test_extrema(self, name, q, seed):
        x, g, scalar = g_cells(name, q, seed)
        h = 1.0 / g.size
        for sign in (1.0, -1.0):
            i = int(np.argmin(sign * g))
            assert_min_matches(lambda t: sign * scalar(t), x[i] - h, x[i] + h)


@pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (2, 5)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_crossing_function(p, q, sign):
    """The function _rot_crossing hands to brentq: one extremum of G_omega
    over omega, shifted by the sign floor."""
    arnold = MAPS["arnold"]

    def signed(w):
        fq, x, g = _g_grid(arnold.shifted(w), p, q, 1024)
        return _g_extremum(fq, p, x, g, sign) - sign * 1e-13 * q

    assert_root_matches(signed, *plateau_bracket(arnold, p, q), 2.5e-11)


@pytest.mark.parametrize("m", [
    MAPS["arnold"],
    MAPS["two_humped"],
    CircleMap(0.3, (0.01, 0.0, 0.004), (0.02,)),
    MAPS["arnold"].iterate(2),
])
def test_fpp_cells(m):
    """The F'' cells that _fpp_kinks refines."""
    xs = np.linspace(0.0, 1.0, 4097)
    fpp = m.deriv(xs, 2)
    cells = np.flatnonzero(fpp[:-1] * fpp[1:] < 0.0)
    assert cells.size >= 1
    for i in cells:
        assert_root_matches(lambda t: m.deriv(t, 2), xs[i], xs[i + 1], 1e-15)


def nan_above(c):
    return lambda t: math.nan if t > c else t - 0.7


@pytest.mark.parametrize("f, a, b, xtol", [
    (lambda t: t, 0.0, 1.0, 1e-12),  # exact zero at a
    (lambda t: t - 1.0, 0.0, 1.0, 1e-12),  # exact zero at b
    (lambda t: t * t + 1.0, -1.0, 1.0, 1e-12),  # one sign: ValueError
    (lambda t: t * t - 1.0, -0.5, 0.5, 1e-12),  # one sign below zero
    (nan_above(0.5), 0.0, 1.0, 1e-12),  # NaN inside: ValueError
    (nan_above(-1.0), 0.0, 1.0, 1e-12),  # NaN at an end
    (lambda t: max(-0.1, min(0.1, t - 0.5)), -3.0, 1.0, 1e-15),  # flat ends
    (lambda t: max(0.0, abs(t - 0.5) - 0.2) * math.copysign(1.0, t - 0.5),
     0.0, 1.0, 1e-15),  # flat zero stretch
    (lambda t: math.copysign(1.0, t - 0.3), -1e300, 1e300, 1e-300),  # RuntimeError
    (lambda t: t * 1e-200, -1.0, 2.0, 1e-15),  # f(a) f(b) underflows to -0.0
    (lambda t: 1e-200 * (t * t + 1.0), -1.0, 1.0, 1e-15),  # one sign, f(a) f(b) underflows
    (lambda t: 1e-310 * (t - 0.5), 0.0, 1.0, 1e-15),  # subnormal values
    (lambda t: t**3 - 2.0 * t - 5.0, 2.0, 3.0, 1e-15),
    (lambda t: math.tan(t), 1.0, 2.0, 1e-15),  # a pole, not a root
    (lambda t: math.exp(t) - 1e5, -50.0, 50.0, 1e-13),
    # exact ties, dyadic: half the first bracket equals the stopping
    # half-width xtol / 2 at xcur = 0, so the search goes on
    (lambda t: t + 2.0**-22, -(2.0**-20), 0.0, 2.0**-20),
    # xtol set so that twice the fifth step's inverse quadratic try equals
    # its bound 3 |sbis| - delta exactly, which rejects the try
    (lambda t: t**3 - 0.1, -1.0, 1.0, 0.12379411248734529),
])
def test_synthetic_roots(f, a, b, xtol):
    assert_root_matches(f, a, b, xtol)


def test_synthetic_error_types():
    assert outcome(lambda: brentq(lambda t: t * t + 1.0, -1.0, 1.0, 1e-12)) is ValueError
    assert outcome(lambda: brentq(nan_above(0.5), 0.0, 1.0, 1e-12)) is ValueError
    assert outcome(lambda: brentq(lambda t: 1e-200 * (t * t + 1.0), -1.0, 1.0, 1e-15)) is ValueError
    step = lambda t: math.copysign(1.0, t - 0.3)  # noqa: E731
    assert outcome(lambda: brentq(step, -1e300, 1e300, 1e-300)) is RuntimeError


@pytest.mark.parametrize("fn, a, b", [
    (lambda t: t, -1.0, 1.0),  # minimum at the lower bound
    (lambda t: -t, 0.25, 0.2500001),  # minimum at the upper bound
    (lambda t: 0.0, -1.0, 1.0),  # flat
    (lambda t: max(0.0, abs(t - 0.5) - 0.2), 0.0, 1.0),  # flat bottom
    (lambda t: math.floor(4.0 * t), 0.0, 1.0),  # steps, integer values
    (lambda t: math.nan, 0.0, 1.0),  # NaN everywhere
    (lambda t: abs(t - 0.3), -1.0, 1.0),  # a kink
    (lambda t: math.cos(40.0 * t), 0.0, 1.0),  # many minima
    (lambda t: (t - 0.1) ** 2, 0.1 - 1.0 / 4096, 0.1 + 1.0 / 4096),  # one cell pair
    (lambda t: t * t, 2.0, 2.0),  # a point
    # exact ties: integer steps of a skewed V, where a new point's value
    # ties the third point's
    (lambda t: math.floor(64.0 * (0.25 - t if t < 0.25 else 2.5 * (t - 0.25))), 0.0, 1.0),
    # a parabola whose vertex a parabolic step reaches exactly 2 tol from
    # the lower bound, and its mirror at the upper bound
    (lambda t: (t - 6.666666984263217e-15) ** 2, 0.0, 1.0),
    (lambda t: (t + 6.666666984263217e-15) ** 2, -1.0, 0.0),
    # the first point is exactly 0 and stays the best, so tol = xatol / 3
    # throughout; a near-bound step of exactly tol comes back as |e| = tol
    # two iterations later, and the golden step taken there finds a
    # narrow well
    (lambda t: -1.0 if 1e-14 < t < 5e-14 else
     t * t * (0.01 if t > 0.05 else 0.02 if t < -0.05 else 1.0),
     -0.3819660112501051, 0.6180339887498949),
])
def test_synthetic_minima(fn, a, b):
    assert_min_matches(fn, a, b)


def test_random_polynomials():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = rng.normal(size=5)
        poly = lambda t, c=c: float(np.polyval(c, t))  # noqa: E731
        assert_min_matches(poly, -1.0, 1.0)
        r = float(rng.uniform(-1.0, 1.0))
        assert_root_matches(lambda t, c=c, r=r: (t - r) * (1.0 + c[0] ** 2 + math.sin(c[1] * t))
                            + c[2] * (t - r) ** 3, -1.5, 1.5, float(10 ** rng.uniform(-15, -3)))


EPS = np.finfo(float).eps


@pytest.mark.parametrize("xtol, rtol, message", [
    (0.0, None, "xtol too small"),
    (-1.0, None, "xtol too small"),
    (-0.0, None, "xtol too small"),
    (1e-12, 0.0, "rtol too small"),
    (1e-12, 4 * EPS * (1 - EPS), "rtol too small"),  # just below scipy's least rtol
    (1e-12, 4 * EPS, None),  # the least rtol itself
    (5e-324, None, None),  # the least positive xtol
    # a NaN tolerance passes both checks, as in scipy, and the first step
    # then lands on x = NaN
    (math.nan, None, "is NaN"),
    (1e-12, math.nan, "is NaN"),
    (math.inf, None, None),
])
def test_root_argument_checks(xtol, rtol, message):
    f = lambda t: t - 0.3  # noqa: E731
    kw = {} if rtol is None else {"rtol": rtol}
    for solver in (brentq, scipy.optimize.brentq):
        if message is None:
            solver(f, 0.0, 1.0, xtol=xtol, **kw)
        else:
            with pytest.raises(ValueError, match=message):
                solver(f, 0.0, 1.0, xtol=xtol, **kw)
    assert_root_matches(f, 0.0, 1.0, xtol, rtol)


@pytest.mark.parametrize("a, b", [
    (1.0, 0.0),  # bounds reversed
    (0.0, -(2.0**-1074)),
    (0.0, math.inf),
    (-math.inf, 0.0),
    (-math.inf, math.inf),
    (math.nan, 1.0),
    (0.0, math.nan),
])
def test_minimize_argument_checks(a, b):
    fn = lambda t: (t - 0.3) ** 2  # noqa: E731
    ours = outcome(lambda: minimize_scalar(fn, a, b))
    theirs = outcome(lambda: scipy.optimize.minimize_scalar(
        fn, bounds=(a, b), method="bounded", options={"xatol": 1e-14, "maxiter": 300}))
    assert ours is theirs is ValueError

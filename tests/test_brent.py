"""The package's one-dimensional refiners against independent oracles.

``dynamics.minimize_scalar`` refines a grid extremum of G = F^q - x - p
by Newton on the jet of one orbit, and ``maps._bisect`` bisects a sign
change of G (``dynamics._grid_roots``) or of F'' (``maps._fpp_kinks``) in
a grid cell.  The extrema are checked against 50-digit mpmath, the roots
and the rotation-number crossings against scipy.optimize.brentq, which
stays the tests' oracle.  No exception counts as an outcome: a call that
raises fails its test.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.optimize

from circletau import dynamics
from circletau.dynamics import (
    _g_extremum,
    _g_grid,
    _grid_roots,
    _rot_crossing,
    minimize_scalar,
    plateau_bracket,
)
from circletau.maps import CircleMap, _fpp_kinks

B = 1.0 / (4.0 * math.pi)
EPS = np.finfo(float).eps
MAPS = {
    "arnold": CircleMap(0.0, (), (B,)),
    "two_humped": CircleMap(0.0, (), (-0.05, -0.03)),
    "mixed": CircleMap(0.0, (0.03,), (0.06,)),
}


def g_cells(m, q, seed):
    """A shifted map of the family, G = F^q - x - c on a 1024-point grid
    with c three tenths into its range (so G changes sign between grid
    points), and its F^q, x, G and c."""
    rng = np.random.default_rng(seed)
    fq = m.shifted(float(rng.uniform(0.0, 1.0))).iterate(q)
    x = np.linspace(0.0, 1.0, 1024, endpoint=False)
    g = fq.lift(x) - x
    c = float(g.min() + 0.3 * (g.max() - g.min()))
    return fq, x, g - c, c


def mp_extremum(m, c, q, x, h):
    """(x*, G(x*)) at the critical point of G = F^q - x - c nearest x, by
    Newton on the 50-digit jet of the orbit, the float coefficients of m
    taken as exact; None when Newton leaves [x - h, x + h] or does not
    converge in 20 steps."""
    with mpmath.workdps(50):
        terms = [(mpmath.cos, lambda t: -mpmath.sin(t), 2 * mpmath.pi * k, a)
                 for k, a in enumerate(m.cos_coeffs, start=1) if a]
        terms += [(mpmath.sin, mpmath.cos, 2 * mpmath.pi * k, b)
                  for k, b in enumerate(m.sin_coeffs, start=1) if b]

        def jet(t):
            X, Xx, Xxx = t, mpmath.mpf(1), mpmath.mpf(0)
            for _ in range(q):
                d, f1, f2 = mpmath.mpf(m.mean_shift), 1, 0
                for fn, dfn, w, a in terms:
                    d, f1, f2 = d + a * fn(w * X), f1 + a * w * dfn(w * X), f2 - a * w * w * fn(w * X)
                X, Xx, Xxx = X + d, f1 * Xx, f2 * Xx * Xx + f1 * Xxx
            return X - t - c, Xx - 1, Xxx

        t = mpmath.mpf(x)
        for _ in range(20):
            _, gx, gxx = jet(t)
            step = gx / gxx
            t -= step
            if abs(t - x) > h:
                return None
            if abs(step) < mpmath.mpf(10) ** -40:
                return t, jet(t)[0]
    return None


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("q", [1, 2, 5, 377])
@pytest.mark.parametrize("seed", [0, 1])
class TestGCells:
    def test_roots(self, name, q, seed):
        """Every root of a sign-change cell, bisected to 1e-15, lies within
        2e-15 of scipy's brentq root of that cell, widened by the band
        16 q eps / |G_x| in which the rounding of G leaves its sign open
        (both solvers stop on some switch of the computed sign there)."""
        fq, x, g, c = g_cells(MAPS[name], q, seed)
        cells = np.flatnonzero(g * np.roll(g, -1) < 0.0)
        assert cells.size >= 2
        roots, suspects = _grid_roots(g, x, fq, c)
        assert suspects == [] and len(roots) == cells.size
        h = 1.0 / g.size
        for i, root in zip(cells, roots):
            ref = scipy.optimize.brentq(lambda t: fq.lift(t) - t - c, x[i], x[i] + h,
                                        xtol=1e-15, rtol=8.9e-16)
            gx = dynamics._g_jet(fq.base, c, q, ref, 0.0)[1]
            assert abs(root - ref) <= 2e-15 + 16 * q * EPS / abs(gx)

    def test_extrema(self, name, q, seed, monkeypatch):
        """The refined extremum of a grid cell is never worse than the grid
        value, every jet stays in the two cells around the grid point, and
        the value is the 50-digit extremum within a tenth of the sign floor
        1e-13 q.  Where 50 digits find no critical point in the cells the
        refiner keeps the grid value."""
        m = MAPS[name]
        fq, x, g, c = g_cells(m, q, seed)
        h = 1.0 / g.size
        jets, jet = [], dynamics._g_jet

        def recording(*args):
            jets.append(args[3])
            return jet(*args)

        monkeypatch.setattr(dynamics, "_g_jet", recording)
        for sign in (1.0, -1.0):
            i = int(np.argmin(sign * g))
            del jets[:]
            xm, fm = minimize_scalar(fq.base, c, q, float(x[i]), h, sign)
            assert fm <= sign * g[i]
            assert xm in jets and all(x[i] - h <= t <= x[i] + h for t in jets)
            ref = mp_extremum(fq.base, c, q, xm, h)
            if ref is None:
                # two-hump, q = 377, seed 1: F^q contracts by about 1e-81, so
                # G falls with slope -1 up to a jump inside the cells and
                # G_xx is noise; the true minimum lies up to h below
                assert (name, q, seed) == ("two_humped", 377, 1)
                assert (xm, fm) == (x[i], sign * g[i])
                continue
            assert abs(fm - sign * ref[1]) <= 1e-14 * q


def test_flat_cell_returns_the_grid_value():
    """A rigid rotation has G_xx = 0: one jet, and the grid point."""
    fq = CircleMap(0.25).iterate(3)
    for sign in (1.0, -1.0):
        assert minimize_scalar(fq.base, 0, 3, 0.125, 1.0 / 1024, sign) == (0.125, sign * 0.75)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_wrong_curvature_returns_the_grid_value(name, monkeypatch):
    """Started at the grid maximum of G, the minimiser of G meets G_xx < 0
    and keeps the grid point after one jet."""
    fq, x, g, c = g_cells(MAPS[name], 2, 0)
    i = int(np.argmax(g))
    jets, jet = [], dynamics._g_jet
    monkeypatch.setattr(dynamics, "_g_jet", lambda *args: jets.append(args) or jet(*args))
    assert minimize_scalar(fq.base, c, 2, float(x[i]), 1.0 / g.size, 1.0) == (x[i], g[i])
    assert len(jets) == 1


@pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (2, 5)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_crossing_function(p, q, sign):
    """A crossing lies within tol of scipy's brentq root of the function
    it certifies against: one extremum of G_omega over omega (max G for
    want = 0, min G for want = 1), shifted by the sign floor."""
    arnold = MAPS["arnold"]
    want = 0 if sign < 0.0 else 1

    def signed(w):
        fq, x, g = _g_grid(arnold.shifted(w), p, q, 1024)
        return _g_extremum(fq, p, x, g, sign) - sign * 1e-13 * q

    bracket = plateau_bracket(arnold, p, q)
    ref = scipy.optimize.brentq(signed, *bracket, xtol=2.5e-11)
    assert abs(_rot_crossing(arnold, p, q, *bracket, want, grid=1024) - ref) <= 1e-10


def kink_oracle(m):
    """Zeros of F'' on the 4096-cell scan: grid zeros, and scipy's brentq
    root of every cell where F'' changes sign."""
    xs = np.linspace(0.0, 1.0, 4097)
    fpp = m.deriv(xs, 2)
    out = []
    for i in range(4096):
        if fpp[i] == 0.0:
            out.append(xs[i])
        elif fpp[i] * fpp[i + 1] < 0.0:
            out.append(scipy.optimize.brentq(lambda t: m.deriv(t, 2), xs[i], xs[i + 1],
                                             xtol=1e-15))
    return out


@pytest.mark.parametrize("m", [
    MAPS["arnold"],
    MAPS["two_humped"],
    CircleMap(0.3, (0.01, 0.0, 0.004), (0.02,)),
    MAPS["arnold"].iterate(2),
])
def test_fpp_cells(m):
    """The zeros of F'' that _fpp_kinks bisects, against brentq."""
    kinks, ref = _fpp_kinks(m), kink_oracle(m)
    assert len(kinks) == len(ref) >= 1
    assert np.max(np.abs(np.subtract(kinks, ref))) <= 2e-15


def test_random_polynomials():
    """Random trigonometric polynomials of degree 3 as displacements, at
    q = 1 and 2: the refined extrema of G against mpmath, and the zeros of
    F'' against brentq."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.normal(size=(2, 3)) * 0.01 / np.arange(1, 4) ** 2
        m = CircleMap(float(rng.uniform()), tuple(a), tuple(b))
        kinks, ref = _fpp_kinks(m), kink_oracle(m)
        assert len(kinks) == len(ref)
        assert np.max(np.abs(np.subtract(kinks, ref))) <= 2e-15
        for q in (1, 2):
            fq, x, g, c = g_cells(m, q, 0)
            for sign in (1.0, -1.0):
                i = int(np.argmin(sign * g))
                xm, fm = minimize_scalar(fq.base, c, q, float(x[i]), 1.0 / g.size, sign)
                assert fm <= sign * g[i]
                assert abs(fm - sign * mp_extremum(fq.base, c, q, xm, 1.0 / g.size)[1]) <= 1e-14 * q

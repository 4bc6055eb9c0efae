"""Real one-dimensional dynamics: rotation numbers, cycles, plateaus, distortion.

Rotation numbers are weighted Birkhoff averages of the displacement along
the orbit of 0, doubled in length until they settle to tol.  Next to the
value come the closest-return records of that orbit: a record at step n
with return error e gives rot >= p/n (e > 0) or rot <= p/n (e < 0).  The
records are those of the computed float orbit, a pseudo-orbit of f with a
rounding error at every step, so the bracket is exact for that orbit but
is not a proof about f, and the average must lie inside it.  Rational
values are certified through the sign of G(x) = F^q(x) - x - p.  Since
the lift F^q increases, G on a cell [y_i, y_(i+1)] between two samples
lies between G(y_i) - gap and G(y_(i+1)) + gap, so samples whose G
exceeds the sign floor by each one's gap to the next (or lies below minus
the floor by the gap before it) settle the sign.  The samples are drawn
from orbits (``_g_orbit``): step k of the orbit of x_j gives
G(F^k(x_j)) = F^(k+q)(x_j) - F^k(x_j) - p, so one orbit of 2q - 1 steps
holds q samples, where a grid point costs q steps.  The sign is tried on
samples of an eighth of the grid's count, then on at least as many as
the grid has, and only when neither settles it does the uniform grid
decide, by the same bound with gap 1/n and then on one refined extremum
of G (``_g_extremum``).  The bound is exact for the true F^q and holds for
the computed orbit up to its rounding, which the floor absorbs; it is not
a proof about f.

Plateau edges, Tsujii approximant edges and Liouville margins are
rotation-number crossings, ``_rot_crossing``: the smallest omega with
rot(f + omega) >= p/q (want = 0) or > p/q (want = 1).  Such an omega is
a parabolic parameter, a saddle-node where G has a double root, so a
crossing first solves G = G_x = 0 by Newton in (x, omega)
(``_saddle_node``) on the jet of one orbit of length q (``_g_jet``),
with G shifted by the sign floor as the verdict below shifts it,
started from the extremum of the uniform G grid at the bracket end on
the wrong side and then from the bracket midpoint; that grid only seeds
Newton.  Every verdict comes from one function of omega, the extremum of
G that the sign test decides on (max G for want = 0, min G for want = 1),
which rises with omega, shifted by the sign floor and sampled once per
omega, the same way at every omega: the extremum of orbit samples of G,
refined by Newton on the jet.  The sign tol/2 either side of Newton's
root certifies it.  On one side the extremum has to reach the floor, and
one G point at Newton's x that reaches it is proof; only where that
point falls short is the side sampled.  Only when Newton has no
certified root inside the bracket is a wrong bracket end pushed out and
the sign of that function bisected (``maps._bisect``).  The verdict and
``compare_to_rational`` each refine a sampled extremum of G, so they
agree except where the two refined extrema straddle the floor.  The
parabolic parameters inside a plateau (``_parabolic_parameters``) are
the same saddle-nodes, unshifted, found by Newton from every local
extremum of G.

The orbit of ``rotation_estimate`` steps ``CircleMap.lift_float``, which
returns the same bits as ``lift`` (see ``circletau.maps``), and every G,
on a grid or on one float (a root's bisection), goes through
``IteratedMap.lift``; the jet steps the same op order, so its G has the
same bits.  The orbit samples step ``lift`` on the row of all starts, or
``lift_float`` on each start when there are few.  A refinement of a grid
point or sample has one solver per job: an extremum of G in the cells
around it is Newton on G_x = 0 on the jet (``minimize_scalar``), kept
only where it improves on the sampled value; a root of G in a
sign-change cell is bisected to 1e-15.  ``compare_to_rational`` refines
only the grid extremum its sign rule still needs, when no cell bound
settles it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    EmptyPlateau,
    ImagesOverlap,
    NoConvergence,
    NumericalError,
    RootFindingIncomplete,
    WrongRotationNumber,
)
from .maps import CircleMap, IteratedMap, _bisect

TOL_PARABOLIC = 1e-8  # |rho - 1| below root-refinement accuracy is parabolic

_G_GRID = 4096
_ORBIT_STARTS = 64  # least starts of the full orbit stage of compare_to_rational
_FLOAT_STARTS = 16  # orbit stages of fewer starts step Python floats
_ROOT_GRID = 1 << 14
_SIGN_FLOOR = 1e-13
_ORBIT_START = 1024  # first orbit length of rotation_estimate; lengths double
_ROOT_MERGE = 1e-12  # find_cycles merges roots closer than this
_DENJOY_GRID = 256
_NEWTON_STEPS = 12  # jets per Newton solve, in x (extrema) or in (x, omega)
_OFF_CIRCLE = 2.0**52  # from here on one ulp of x is a period or more


@dataclass(frozen=True)
class Cycle:
    """One periodic orbit: sorted points, period, winding, multiplier, kind."""

    points: tuple
    period: int
    winding: int
    multiplier: float
    kind: str  # attracting | repelling | parabolic

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind != "parabolic"


@dataclass(frozen=True)
class Plateau:
    """Parameter interval of the family f + omega on which rot = p/q."""

    p: int
    q: int
    omega_lo: float
    omega_hi: float

    @property
    def width(self) -> float:
        return self.omega_hi - self.omega_lo


# -- G(x) = F^q(x) - x - p machinery ----------------------------------------


def minimize_scalar(map, p: int, q: int, x0: float, h: float, sign: float):
    """(x, sign G(x)) at the least sign G, G = F^q - x - p, over the grid
    point x0 and the Newton iterates of G_x = 0 from it on the jet of one
    orbit (``_g_jet``).  Each step G_x/G_xx is clamped to [x0 - h,
    x0 + h], the cells around x0.  It stops where sign G_xx <= 0
    (a flat cell, or no minimum of sign G ahead), on a step of at most
    1e-15, on a step no shorter than the one before (where the rounding
    noise of G_x takes over, far above 1e-15 at high q), or after 12 jets.
    So the refinement can only lower sign G below its value at x0."""
    x, best, last = x0, (x0, math.inf), math.inf
    for _ in range(_NEWTON_STEPS):
        g, gx, _, gxx, _ = _g_jet(map, p, q, x, 0.0)
        if sign * g < best[1]:
            best = (x, sign * g)
        if not sign * gxx > 0.0:
            break
        step = gx / gxx
        if not 1e-15 < abs(step) < last:
            break
        x, last = min(max(x - step, x0 - h), x0 + h), abs(step)
    return best


def _g_grid(map, p: int, q: int, grid: int):
    """(F^q, x, G) with G = F^q(x) - x - p on the uniform grid x of [0, 1)."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    fq = map.iterate(q)
    return fq, x, fq.lift(x) - x - p


def _g_orbit(map, p: int, q: int, m: int):
    """(y, G) sorted by y: G = F^q - x - p sampled along the orbits of the
    m starts x_j = j/m of [0, 1), each stepped 2q - 1 times.  Step k of
    start j gives the sample y = F^k(x_j) mod 1 with G(y) = F^(k+q)(x_j) -
    F^k(x_j) - p, so m q samples cost (2q - 1) m map steps where a grid
    pays q per point.  At q = 1 they are the bits of _g_grid(map, p, 1, m).
    The samples are kept as y + iG in one complex array, sorted in place."""
    z = np.empty((q, m), complex)
    y, g = z.real, z.imag
    rows = [*y, *g]  # row k of the orbits: F^k in y for k < q, then in g
    rows[0][:] = np.linspace(0.0, 1.0, m, endpoint=False)
    if m < _FLOAT_STARTS:  # the fixed cost of a numpy call outweighs its points
        for j, t in enumerate(rows[0].tolist()):
            for row in rows[1:]:
                row[j] = t = map.lift_float(t)
    else:
        for prev, row in zip(rows, rows[1:]):
            row[:] = map.lift(prev)
    g -= y
    g -= p
    np.mod(y, 1.0, out=y)
    z = z.ravel()
    z.sort(kind="stable")  # by y; the rows of one step are runs of it
    return z.real, z.imag


def _g_extremum(fq, p: int, x, g, sign: float) -> float:
    """min G (sign = +1) or max G (sign = -1) over the circle from G's
    values g at the sorted points x of [0, 1): the extremum of g combined
    with its Newton refinement (minimize_scalar), clamped to the width of
    the wider of the two cells around it on either side, which can only
    lower the minimum or raise the maximum.  On a uniform grid of 2^k
    points both cells are exactly 1/n wide."""
    i, n = int(np.argmin(sign * g)), g.size
    h = max(x[i] - x[i - 1] + (i == 0), x[(i + 1) % n] + (i == n - 1) - x[i])
    refined = minimize_scalar(fq.base, p, fq.q, float(x[i]), float(h), sign)[1]
    return sign * min(sign * float(g[i]), refined)


def _g_jet(map, p: int, q: int, x: float, omega: float) -> tuple:
    """(G, G_x, G_omega, G_xx, G_xomega) of G = F^q(x) - x - p for f + omega
    at one float x.  It steps one orbit of q scalar steps in
    ``lift_float``'s op order, so G has the bits of ``IteratedMap.lift``
    on a float, and carries the chain rule along it: X_xx <- F''X_x^2 +
    F'X_xx, X_xw <- F''X_w X_x + F'X_xw, X_w <- F'X_w + 1, X_x <- F'X_x."""
    a0 = map.mean_shift + omega
    X, Xx, Xw, Xxx, Xxw = x, 1.0, 0.0, 0.0, 0.0
    for _ in range(q):
        d, f1, f2 = a0, 1.0, 0.0
        for w, c in map._cos_terms:
            cs, sn = math.cos(w * X), math.sin(w * X)
            d, f1, f2 = d + c * cs, f1 - c * w * sn, f2 - c * w * w * cs
        for w, c in map._sin_terms:
            cs, sn = math.cos(w * X), math.sin(w * X)
            d, f1, f2 = d + c * sn, f1 + c * w * cs, f2 - c * w * w * sn
        Xxx, Xxw = f2 * Xx * Xx + f1 * Xxx, f2 * Xw * Xx + f1 * Xxw
        Xw, Xx = f1 * Xw + 1.0, f1 * Xx
        X = X + d
    return X - x - p, Xx - 1.0, Xw, Xxx, Xxw


def compare_to_rational(map: CircleMap, p: int, q: int, grid: int = _G_GRID) -> int:
    """Sign of rot(f) - p/q: +1, -1, or 0 (p/q attained).

    rot > p/q iff G > 0 everywhere, rot < p/q iff G < 0 everywhere,
    and rot = p/q iff G vanishes somewhere.  The sign is decided against
    a floor of 1e-13 q.  Since F^q increases, G >= G(y_i) - gap_i and
    G <= G(y_(i+1)) + gap_i on the cell [y_i, y_(i+1)] between two sorted
    samples, so samples with every G(y_i) - gap_i above the floor give +1
    and samples with every G(y_(i+1)) + gap_i below minus the floor give
    -1.  The bound is exact for the true F^q and holds for the computed
    orbits up to their rounding, which the floor absorbs, so these exits
    fire only where the true G has that sign, up to rounding.  It is tried
    on two orbit stages (``_g_orbit``): ceil(grid / 8 / q) starts when
    grid // 8 is at least 64, then max(ceil(grid / q), min(64, grid))
    starts, each holding q samples; at q = 1 these are the grid points.
    When neither stage settles the sign, the uniform grid of grid points
    decides (the full stage itself at q = 1): first by the same bound with
    gap 1/grid, then by refining only the extremum that could still
    overturn its verdict (_g_extremum): the minimum when the grid minimum
    lies above the floor, the maximum when the grid maximum lies below
    minus the floor.  Otherwise G changes sign (or touches zero) on the
    grid and p/q is attained.
    """
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if grid < 1:
        raise ConfigError(f"grid must be >= 1, got {grid}")
    floor = _SIGN_FLOOR * max(1, q)
    if map.is_rotation:
        val = q * map.mean_shift - p  # G is the constant q*theta - p
        if val > floor:
            return 1
        if val < -floor:
            return -1
        return 0
    coarse = grid // 8
    stages = [-(-coarse // q)] if coarse >= 64 else []
    for m in stages + [max(-(-grid // q), min(_ORBIT_STARTS, grid))]:
        y, g = _g_orbit(map, p, q, m)
        s = 1 if g.min() > floor else -1 if g.max() < -floor else 0
        if s:  # s G >= s G(y_i) - d_i up to y_(i+s), d_i = |y_(i+s) - y_i|
            t = np.roll(y, -s)
            np.subtract(y, t, out=t)  # -s d_i, but for the wrap across 0
            t[-1 if s > 0 else 0] -= s
            t += g
            t *= s
            if float(t.min()) > floor:
                return s
    fq, x, g = (map.iterate(1), y, g) if q == 1 else _g_grid(map, p, q, grid)
    gmin, gmax = float(g.min()), float(g.max())
    if gmin - 1.0 / grid > floor:
        return 1
    if gmax + 1.0 / grid < -floor:
        return -1
    if gmin > floor:
        return 1 if _g_extremum(fq, p, x, g, 1.0) > floor else 0
    if gmax < -floor:
        return -1 if _g_extremum(fq, p, x, g, -1.0) < -floor else 0
    return 0


# -- rotation number ---------------------------------------------------------


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction in the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    a = math.floor(lo)
    if Fraction(a) >= lo and Fraction(a) <= hi:
        return Fraction(a)
    if math.floor(hi) > a:
        return Fraction(a + 1)
    # both in (a, a+1): recurse on reciprocals
    inner = _simplest_between(1 / (hi - a), 1 / (lo - a))
    return a + 1 / inner


@dataclass(frozen=True)
class RotationEstimate:
    """rot(f) from the weighted Birkhoff average of an orbit of 0.

    value has converged to tol, or is the certified rational exact; lo
    and hi are the closest-return records of the orbit that was run, exact
    for that float orbit but usually wider than tol (both equal exact
    when it is set); iterations is that orbit's length.
    """

    value: float
    lo: Fraction
    hi: Fraction
    exact: Fraction | None  # set when rot was certified rational
    iterations: int


def _closest_return_bracket(ys, carries) -> tuple:
    """(lo, hi) from the closest-return records of a reduced orbit.

    ys[n] is step n reduced mod 1 and carries[n] what the reduction took
    off.  A record at step n (|y_n - round(y_n)| below every earlier
    step's) with lift p + e gives rot >= p/n when e > 0 and rot <= p/n
    when e < 0.
    """
    y = ys[1:]
    e = y - np.round(y)
    err = np.abs(e)
    records = np.flatnonzero(err < np.minimum.accumulate(np.concatenate(([np.inf], err[:-1]))))
    lifts = np.cumsum(carries[1:]) + np.round(y).astype(np.int64)
    lo, hi = Fraction(-10), Fraction(10)
    for i in records.tolist():
        if e[i] > 0.0:
            lo = max(lo, Fraction(int(lifts[i]), i + 1))
        elif e[i] < 0.0:
            hi = min(hi, Fraction(int(lifts[i]), i + 1))
    return lo, hi


def rotation_estimate(map, tol: float = 1e-10, max_iter: int = 10_000_000) -> RotationEstimate:
    """Rotation number of the lift, converged to tol.

    The orbit of 0 is stepped with ``CircleMap.lift_float``, reduced mod 1
    with its carries kept, and rot is the weighted Birkhoff average of the
    displacement along it, with the bump w(t) = exp(-1/(t(1 - t))); for a
    Diophantine rot it converges faster than any power of the length (Das,
    Sander and Yorke, Nonlinearity 30, 2017).  The length doubles from
    1024, at most to max_iter, until two successive averages agree within
    tol/10; past max_iter NoConvergence is raised with the orbit's
    closest-return bracket.

    At each doubling the simplest rational within twice the change of
    the average (at least 1e-12) is tested through the sign of G
    (``compare_to_rational``), up to denominator 1500 while the average
    still moves and up to 20000 once it has converged; a rational so
    certified is returned as exact.  Otherwise lo and hi are the
    closest-return records of the orbit that was run, which is a
    pseudo-orbit of f with a rounding error at every step, so they bound
    rot of that float orbit, not of f; an average outside them raises
    NumericalError.
    """
    if not tol >= 1e-12:
        raise ConfigError(f"tol must be >= 1e-12, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if map.is_rotation:
        theta = map.mean_shift - math.floor(map.mean_shift)
        return RotationEstimate(theta, Fraction(theta), Fraction(theta), None, 0)

    step = map.lift_float
    floor = math.floor
    ys, carries = array("d", [0.0]), array("q", [0])
    y = 0.0
    prev = None
    n = min(_ORBIT_START, max_iter)
    while True:
        for _ in range(n + 1 - len(ys)):
            ynew = step(y)
            c = floor(ynew)
            y = ynew - c
            ys.append(y)
            carries.append(c)
        t = (np.arange(n) + 0.5) / n
        w = np.exp(-1.0 / (t * (1.0 - t)))
        orbit = np.array(ys)
        value = float(w @ map.displacement(orbit[:n]) / w.sum())
        converged = prev is not None and abs(value - prev) <= 0.1 * tol
        if prev is not None:
            # twice the last change covers an error that halves per doubling
            # (a parabolic cycle); 1e-12, the smallest tol, covers rounding
            radius = max(2.0 * abs(value - prev), 1e-12)
            cand = _simplest_between(Fraction(value - radius), Fraction(value + radius))
            if cand.denominator <= (20000 if converged else 1500) and compare_to_rational(
                map, cand.numerator, cand.denominator
            ) == 0:
                return RotationEstimate(float(cand), cand, cand, cand, n)
        if converged or n == max_iter:
            break
        prev = value
        n = min(2 * n, max_iter)

    lo, hi = _closest_return_bracket(orbit, np.array(carries))
    if not converged:
        raise NoConvergence(
            f"rotation number average still moves after {n} iterations (tol {tol:g})",
            bracket=(lo, hi),
        )
    if not lo <= Fraction(value) <= hi:
        raise NumericalError(
            f"average {value!r} lies outside the closest-return bracket [{lo}, {hi}]"
        )
    return RotationEstimate(value, lo, hi, None, n)


def rotation_number(map, tol: float = 1e-10) -> float:
    """rot(f) in [0, 1), within tol."""
    est = rotation_estimate(map, tol)
    return est.value - math.floor(est.value)


# -- periodic orbits ---------------------------------------------------------


def _grid_roots(g, x, fq, p: int):
    """Roots of G = F^q - x - p from its values g on the uniform grid x of
    R/Z, with fq = F^q.

    A grid point is a root when g vanishes there; a cell with a sign
    change is bisected (``maps._bisect``) to 1e-15, and the midpoint kept;
    a local minimum of |G| below 1e-6 with no adjacent sign change is a
    candidate tangency, refined as a smooth signed extremum
    (minimize_scalar) and kept when |G| < 1e-10 there (reported as a
    suspect interval when it stays in [1e-10, 1e-8)).  The cells are
    classified by masks, and refined in ascending order.  Returns
    (roots, suspects).
    """
    h = 1.0 / g.size
    gr, gp = np.roll(g, -1), np.roll(g, 1)
    ag = np.abs(g)
    zero = g == 0.0
    crossing = ~zero & (g * gr < 0.0)
    touching = (
        ~zero & ~crossing & (ag < 1e-6) & (np.abs(gp) >= ag) & (ag <= np.abs(gr)) & (gp * g > 0.0)
    )
    roots: list[float] = []
    suspects: list[tuple] = []
    for i in np.flatnonzero(zero | crossing | touching):
        xl = float(x[i])
        if zero[i]:
            roots.append(xl)
        elif crossing[i]:
            up = g[i] < 0.0  # G rises through the cell
            lo, hi = _bisect(lambda t: (fq.lift(t) - t - p >= 0.0) == up, xl, xl + h, 1e-15)
            roots.append(0.5 * (lo + hi))
        else:
            sgn = 1.0 if g[i] >= 0.0 else -1.0
            xm, fm = minimize_scalar(fq.base, p, fq.q, xl, h, sgn)
            if abs(fm) < 1e-10:
                roots.append(xm % 1.0)
            elif abs(fm) < 1e-8:
                suspects.append((xl - h, xl + h))
    return roots, suspects


def _check_lowest_terms(p: int, q: int) -> None:
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if math.gcd(abs(p), q) != 1:
        raise ConfigError(f"p/q = {p}/{q} must be in lowest terms")


def find_cycles(map: CircleMap, p: int, q: int) -> list[Cycle]:
    """All periodic orbits of type p/q, grouped and classified.

    Roots of G(x) = F^q(x) - x - p are located on a grid of 2^14 points:
    bisection refines each cell where G changes sign, and Newton
    minimisation of |G| near a sign-touching grid minimum keeps it as a
    parabolic root when |G| < 1e-10 there (tangencies are invisible to
    sign changes); see _grid_roots.
    Roots closer than 1e-12 on the circle are merged into one.

    f permutes the n merged points in their cyclic order, so n = m q, f
    shifts their indices by p m, and orbit j < m is every m-th point from
    point j.  One vectorised check asserts that f maps each point within
    1e-7 (mod 1) of the point p m places on; RootFindingIncomplete is
    raised when it fails or when q does not divide n, since a root was
    then lost or is spurious.  The multiplier of an orbit is the product
    of f' over its points in ascending order.
    """
    _check_lowest_terms(p, q)
    if compare_to_rational(map, p, q) != 0:
        raise WrongRotationNumber(f"rot(f) != {p}/{q}")

    fq, x, g = _g_grid(map, p, q, _ROOT_GRID)
    if float(np.max(np.abs(g))) < 1e-13:
        raise RootFindingIncomplete(
            "G vanishes identically at grid resolution: a continuum of "
            "periodic points (identity-like degeneracy)",
            suspect_intervals=[(0.0, 1.0)],
        )

    roots, suspects = _grid_roots(g, x, fq, p)

    if suspects:
        raise RootFindingIncomplete(
            "near-tangencies could not be resolved as roots or non-roots",
            suspect_intervals=suspects,
        )

    roots = sorted(float(r) % 1.0 for r in roots)
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) < _ROOT_MERGE:
            continue
        merged.append(r)
    if merged and (merged[0] + 1.0) - merged[-1] < _ROOT_MERGE:
        merged.pop()
    if not merged:
        raise RootFindingIncomplete("no periodic points found despite rot = p/q")

    n = len(merged)
    m = n // q
    root_arr = np.array(merged)
    image = map.lift(root_arr) % 1.0
    gap = np.abs(np.roll(root_arr, -p * m) - image)
    lost = image[np.minimum(gap, 1.0 - gap) > 1e-7]
    if n % q or lost.size:
        raise RootFindingIncomplete(
            f"the {n} periodic points found are not orbits of type {p}/{q} "
            "shifted cyclically by f: a root was lost or is spurious",
            suspect_intervals=[(y - 1e-6, y + 1e-6) for y in lost.tolist()] or [(0.0, 1.0)],
        )
    cycles: list[Cycle] = []
    for j in range(m):
        pts = merged[j::m]
        rho = 1.0
        for t in pts:
            rho *= float(map.deriv(t))
        if abs(rho - 1.0) <= TOL_PARABOLIC:
            kind = "parabolic"
        elif rho < 1.0:
            kind = "attracting"
        else:
            kind = "repelling"
        cycles.append(Cycle(tuple(pts), q, p, rho, kind))
    return cycles


# -- plateaus ----------------------------------------------------------------


def _saddle_node(map, p: int, q: int, x: float, w: float):
    """(x, omega) of a double root of G = F^q - x - p for f + omega: Newton
    in (x, omega) on (G, G_x) from (x, w), with Jacobian [[G_x, G_omega],
    [G_xx, G_xomega]] from ``_g_jet``.  It stops when the omega step is at
    most 1e-13, never on the x step: near a high-q saddle-node G is flat
    in x, G_xx is about 1e-13 and the x step is noise.  None when 12
    steps do not get there, and before the jet of an x or omega that is
    not finite or that floats cannot place on the circle (from 2^52 on
    one ulp is a period or more), where the jet could overflow; a
    returned x is on the circle.  At the solution the Jacobian is
    nonsingular whenever G_xx != 0, since G_omega > 0.  The x is returned
    too: a crossing's certificate reads G there."""
    for _ in range(_NEWTON_STEPS):
        if not (abs(x) < _OFF_CIRCLE and abs(w) < _OFF_CIRCLE):  # NaN too
            return None
        g, gx, gw, gxx, gxw = _g_jet(map, p, q, x, w)
        det = gx * gxw - gw * gxx
        if det == 0.0:
            return None
        x, step = x - (g * gxw - gw * gx) / det, (gx * gx - gxx * g) / det
        w -= step
        if abs(step) <= 1e-13 and abs(x) < _OFF_CIRCLE:
            return x, w
    return None


def _parabolic_parameters(map, p: int, q: int, lo: float, hi: float) -> list:
    """Sorted omega of the saddle-nodes G = G_x = 0 of G = F^q - x - p
    that lie more than 1e-10 (``plateau``'s tol) inside the plateau
    [lo, hi] of p/q: the parameters where a p/q cycle is parabolic and the
    count of periodic points changes.

    Newton in (x, omega) (``_saddle_node``) starts from every local
    extremum of the G grid at the midpoint, then from those of the G grid
    at each new parameter it finds, since for q > 1 the extrema of G move
    with omega.  Each omega returned is a converged saddle-node; the q
    points of one parabolic cycle give the same omega up to rounding, and
    the 1e-10 margin merges them.  A saddle-node is missed when its
    extremum exists neither at the midpoint nor at any parameter found."""
    found, starts = [], [0.5 * (lo + hi)]
    while starts:
        start = starts.pop()
        _, x, g = _g_grid(map.shifted(start), p, q, _G_GRID)
        d = np.roll(g, -1) - g
        for x0 in x[d * np.roll(d, 1) <= 0.0].tolist():
            _, w = _saddle_node(map, p, q, x0, start) or (None, None)
            if w is not None and lo < w < hi and min(abs(w - v) for v in (lo, hi, *found)) > 1e-10:
                found.append(w)
                starts.append(w)
    return sorted(found)


def _rot_crossing(map, p: int, q: int, lo: float, hi: float, want: int,
                  grid: int = _G_GRID, tol: float = 1e-10) -> float:
    """Smallest omega with rot(f + omega) >= p/q (want = 0) or > p/q
    (want = 1), to tol.

    Every verdict comes from one function of omega, the extremum of
    G_omega = F_omega^q - x - p that rises with omega, shifted by the sign
    floor: signed = max G + 1e-13 q (want = 0) or min G - 1e-13 q
    (want = 1).  The extremum is that of the orbit samples of G
    (``_g_orbit`` with ceil(grid / q) starts, at q = 1 the grid's points),
    refined by Newton on the jet (``_g_extremum``), at every omega.  omega
    lies right of the crossing when signed >= 0 (want = 0) or signed > 0
    (want = 1).  signed is cached for the call, so each omega is sampled
    once.

    compare_to_rational(f + omega, p, q, grid) >= want makes the same
    decision on its own samples: it refines a sampled extremum of G too,
    and its cell-bound exits fire only where the true G lies past the
    floor everywhere, up to rounding.  So the two agree except where their
    two refined extrema straddle the floor; the tests check answers
    against compare_to_rational (``assert_certified``).

    The crossing is a saddle-node, where G shifted by the floor has a
    double root (signed = 0 there), so unless f is a rigid rotation
    (G_x = 0 everywhere) Newton on G + shift = G_x = 0 (``_saddle_node``
    with p moved by the shift) runs first: from the extremum of the
    uniform G grid at the end that should lie on the wrong side (lo for
    want = 0, hi for want = 1), and once more from the midpoint of [lo, hi]
    if that fails.  That grid only seeds Newton; no verdict reads it.  Its
    iterates may leave the bracket; its root (x, w) is answered with w
    when w lies in [lo, hi] and the verdict certifies it: wrong at
    w - tol/2 and right at w + tol/2, so w lies within tol/2 of the
    switch.  At one of the two, right at w + tol/2 for want = 0 and
    wrong at w - tol/2 for want = 1, the extremum has to reach the floor,
    and G + shift at Newton's x reaching it there (one ``_g_jet``) is
    proof; only when it falls short is signed evaluated there.  The other
    needs the whole circle, so signed decides it.  The shift puts w on the
    switch itself, so a tol below floor / G_omega still certifies.  A
    wrong-end start matters: from the midpoint of a wide bracket Newton
    can land on the far edge of the same plateau, which the certificate
    rejects.  For a rigid rotation G + shift is the constant q (theta +
    omega) - p + shift, so its root w = (p - shift)/q - theta is tried
    under the same certificate instead.

    Otherwise an end of [lo, hi] that its own verdict puts on the wrong
    side is pushed out by the bracket's width, keeping the other end, up
    to 8 times before NumericalError is raised, and the verdict is
    bisected on [lo, hi] to tol (``maps._bisect``).
    """
    floor = _SIGN_FLOOR * max(1, q)
    sign, shift = (-1.0, floor) if want == 0 else (1.0, -floor)

    @functools.cache
    def signed(w):
        fq = map.shifted(w).iterate(q)
        x, g = _g_orbit(fq.base, p, q, -(-grid // q))
        return _g_extremum(fq, p, x, g, sign) + shift

    def right(w):
        return signed(w) >= 0.0 if want == 0 else signed(w) > 0.0

    def certified(x, w):
        # the extremum reaches the floor at w - sign tol/2 (right for want =
        # 0, wrong for want = 1), which one G point at Newton's x proves,
        # and not at w + sign tol/2, which needs the whole circle
        reached = w - sign * 0.5 * tol
        return ((sign * (_g_jet(map, p, q, x, reached)[0] + shift) <= 0.0
                 or sign * signed(reached) <= 0.0)
                and sign * signed(w + sign * 0.5 * tol) > 0.0)

    if map.is_rotation:  # G + shift = q (theta + omega) - p + shift
        w = (p - shift) / q - map.mean_shift
        if lo <= w <= hi and certified(0.0, w):
            return w
    starts = () if map.is_rotation else ((lo, hi)[want], 0.5 * (lo + hi))
    for start in starts:
        _, x, g = _g_grid(map.shifted(start), p, q, grid)
        root = _saddle_node(map, p - shift, q, float(x[np.argmin(sign * g)]), start)
        if root is not None and lo <= root[1] <= hi and certified(*root):
            return root[1]

    for _ in range(8):
        if not right(lo) and right(hi):
            break
        width = hi - lo
        lo, hi = (lo - width, hi) if right(lo) else (lo, hi + width)
    else:
        raise NumericalError(f"could not bracket the crossing of rot = {p}/{q} in 8 steps")

    lo, hi = _bisect(right, lo, hi, tol)
    return 0.5 * (lo + hi)


def plateau_bracket(map: CircleMap, p: int, q: int):
    """Omega interval with rot < p/q at the left end and > p/q at the right."""
    _check_lowest_terms(p, q)
    osc = sum(abs(a) for a in map.cos_coeffs) + sum(abs(b) for b in map.sin_coeffs)
    center = p / q - map.mean_shift
    return (center - osc - 0.05, center + osc + 0.05)


def plateau(map: CircleMap, p: int, q: int, bracket=None, tol: float = 1e-10) -> Plateau:
    """The interval of omega with rot(f + omega) = p/q, edges to tol.

    Each edge is a rotation-number crossing (_rot_crossing) started on
    the bracket (plateau_bracket by default): a saddle-node found by
    Newton on G = G_x = 0 and certified by the sign of one signed
    extremum of G to within tol/2, or, when Newton fails, that sign
    bisected to tol.  ConfigError is raised when an edge falls outside
    the bracket, that is when the bracket does not have rot < p/q at its
    left end and rot > p/q at its right (checked edge by edge, so a left
    edge outside the bracket raises before the right edge is sought), and
    when tol is not finite and positive.  A plateau that degenerates to a
    point (rigid rotations) is returned with omega_lo == omega_hi.
    """
    _check_lowest_terms(p, q)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if bracket is None:
        bracket = plateau_bracket(map, p, q)
    wlo, whi = float(bracket[0]), float(bracket[1])
    if not -math.inf < wlo < whi < math.inf:
        raise ConfigError(f"bracket ({wlo}, {whi}) must be finite with lo < hi")
    edges = []
    for want in (0, 1):  # a wrong-side bracket fails on its first edge
        edges.append(_rot_crossing(map, p, q, wlo, whi, want, tol=tol))
        if not wlo <= edges[-1] <= whi:
            raise ConfigError(
                f"bracket ({wlo}, {whi}) must satisfy rot < {p}/{q} on the left and "
                f"rot > {p}/{q} on the right (an edge is at {edges[-1]})"
            )
    omega_lo, omega_hi = edges
    if omega_hi < omega_lo - 4.0 * tol:
        raise EmptyPlateau(
            f"plateau of {p}/{q} degenerated below resolution",
            pinch=0.5 * (omega_lo + omega_hi),
        )
    if omega_hi < omega_lo:
        omega_lo = omega_hi = 0.5 * (omega_lo + omega_hi)
    return Plateau(p, q, omega_lo, omega_hi)


# -- Denjoy distortion --------------------------------------------------------


def _arcs_disjoint(arcs) -> bool:
    """Pairwise disjointness of arcs given as (start mod 1, length)."""
    if sum(length for _, length in arcs) >= 1.0:
        return False
    events = []
    for s, length in arcs:
        s %= 1.0
        if s + length <= 1.0:
            events.append((s, s + length))
        else:
            events.append((s, 1.0))
            events.append((0.0, s + length - 1.0))
    events.sort()
    for (a1, b1), (a2, b2) in zip(events, events[1:]):
        if a2 < b1:
            return False
    return True


def denjoy_distortion(map, interval, n: int) -> float:
    """max over x, y in I of log (F^n)'(x) / (F^n)'(y).

    For n >= 2 the intervals I, f(I), ..., f^n(I) must be pairwise
    disjoint (that is the hypothesis under which the distortion is
    bounded by the total distortion); n = 1 needs no disjointness.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 < b - a < 1.0):
        raise ConfigError(f"interval must have length in (0, 1), got ({a}, {b})")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if map.is_rotation:
        return 0.0

    ends = [a, b]
    arcs = []
    start = 0 if n >= 2 else 1  # include I itself for n >= 2
    for k in range(n + 1):
        if k >= start:
            arcs.append((ends[0] % 1.0, ends[1] - ends[0]))
        ends = [float(map.lift(t)) for t in ends]
    if len(arcs) > 1 and not _arcs_disjoint(arcs):
        raise ImagesOverlap(
            f"the intervals I, f(I), ..., f^{n}(I) are not pairwise disjoint"
        )

    logs = np.log(IteratedMap(map, n).deriv(np.linspace(a, b, _DENJOY_GRID)))
    return float(logs.max() - logs.min())

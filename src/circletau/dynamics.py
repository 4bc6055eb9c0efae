"""Real one-dimensional dynamics: rotation numbers, cycles, plateaus, distortion.

Rotation numbers are produced with a rigorous rational bracket: signed
closest returns of the orbit of 0 give convergents p/q with
rot >= p/q or rot <= p/q depending on the sign of the return error, so
consecutive records bracket rot within 1/(q_k q_{k+1}).  Rational values
are then certified exactly through the sign of G(x) = F^q(x) - x - p,
which is also what powers plateau-edge bisection.

All bisection is ``maps._bisect``, on a monotone predicate.  Plateau edges,
Tsujii approximant edges and Liouville margins are rotation-number
crossings, ``_rot_crossing``: the smallest omega with rot(f + omega)
>= p/q (want = 0) or > p/q (want = 1).

The orbit of ``rotation_estimate`` and every scalar G of a ``CircleMap``
(the Brent and brentq refinements) step ``CircleMap.lift_float``, which
returns the same bits as ``lift`` (see ``circletau.maps``), and
``compare_to_rational`` refines only the grid extremum its sign rule
still needs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    ConfigError,
    EmptyPlateau,
    ImagesOverlap,
    NoConvergence,
    NumericalError,
    RootFindingIncomplete,
    WrongRotationNumber,
)
from .maps import CircleMap, _bisect, total_distortion

TOL_PARABOLIC = 1e-8  # |rho - 1| below root-refinement accuracy is parabolic

_G_GRID = 4096
_ROOT_GRID = 1 << 14
_SIGN_FLOOR = 1e-13


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
    lo_kind: str = "unclassified"
    hi_kind: str = "unclassified"

    @property
    def width(self) -> float:
        return self.omega_hi - self.omega_lo


# -- G(x) = F^q(x) - x - p machinery ----------------------------------------


def _g_values(map, p: int, q: int, x):
    """G(x) = F^q(x) - x - p on an array, or on a Python float (float path)."""
    if isinstance(x, float) and isinstance(map, CircleMap):
        lift = map.lift_float
        y = x
        for _ in range(q):
            y = lift(y)
        return y - x - p
    y = np.asarray(x, dtype=float)
    for _ in range(q):
        y = map.lift(y)
    return y - x - p


def compare_to_rational(map, p: int, q: int, grid: int = _G_GRID) -> int:
    """Sign of rot(f) - p/q: +1, -1, or 0 (p/q attained).

    rot > p/q iff G > 0 everywhere, rot < p/q iff G < 0 everywhere,
    and rot = p/q iff G vanishes somewhere.  G is sampled on a uniform
    grid, and the sign is decided against a floor of 1e-13 q.  Brent
    refinement of a grid extremum can only lower the minimum or raise
    the maximum, so only the extremum that could still overturn the
    grid's verdict is refined: the minimum when it lies above the floor,
    the maximum when it lies below minus the floor.  Otherwise G changes
    sign (or touches zero) on the grid and p/q is attained.
    """
    floor = _SIGN_FLOOR * max(1, q)
    if getattr(map, "is_rotation", False):
        base = map.mean_shift if isinstance(map, CircleMap) else float(map.lift(0.0))
        val = q * base - p  # G is the constant q*theta - p
        if val > floor:
            return 1
        if val < -floor:
            return -1
        return 0
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = _g_values(map, p, q, x)
    step = 1.0 / grid

    def refined(idx, sign):
        # sign * min of sign*G over the two cells around grid point idx
        x0 = x[idx]
        res = minimize_scalar(
            lambda t: sign * float(_g_values(map, p, q, float(t))),
            bounds=(x0 - step, x0 + step),
            method="bounded",
            options={"xatol": 1e-14, "maxiter": 300},
        )
        return sign * res.fun

    gmin, gmax = float(g.min()), float(g.max())
    if gmin > floor:
        return 1 if min(gmin, refined(int(np.argmin(g)), +1.0)) > floor else 0
    if gmax < -floor:
        return -1 if max(gmax, refined(int(np.argmax(g)), -1.0)) < -floor else 0
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
    value: float
    lo: Fraction
    hi: Fraction
    exact: Fraction | None  # set when rot was certified rational
    iterations: int

    @property
    def bracket_width(self) -> float:
        return float(self.hi - self.lo)


def rotation_estimate(map, tol: float = 1e-10, max_iter: int = 10_000_000) -> RotationEstimate:
    """Rotation number of the lift with a rigorous bracket.

    Birkhoff orbit of x = 0 with acceleration at closest-return times;
    when the record sequence stalls, the smallest-denominator rational in
    the bracket is tested exactly via the sign of G.  The orbit steps
    ``CircleMap.lift_float``.
    """
    if tol < 1e-12:
        raise ConfigError(f"tol must be >= 1e-12, got {tol}")
    if map.is_rotation:
        theta = map.mean_shift - math.floor(map.mean_shift)
        return RotationEstimate(theta, Fraction(theta), Fraction(theta), None, 0)

    step = map.lift_float

    lo, hi = Fraction(-10), Fraction(10)
    y = 0.0
    carries = 0
    best = math.inf
    last_record = 0
    stall_allowance = 10000
    ring = deque(maxlen=8192)  # recent (n, y, carries) for near-period detection
    n = 0

    def try_rational() -> Fraction | None:
        # the bracket endpoints are record convergents and are often the
        # exact rational limit themselves: test them first
        for cand in (lo, hi):
            if abs(cand.denominator) <= 1500 and compare_to_rational(
                map, cand.numerator, cand.denominator
            ) == 0:
                return cand
        probe_lo, probe_hi = lo, hi
        for _ in range(8):
            try:
                cand = _simplest_between(probe_lo, probe_hi)
            except ValueError:
                return None
            if cand in (probe_lo, probe_hi):
                # closed-interval simplest hit an endpoint: the mediant is
                # the simplest strictly interior point
                cand = Fraction(
                    probe_lo.numerator + probe_hi.numerator,
                    probe_lo.denominator + probe_hi.denominator,
                )
            if cand.denominator > 1500:
                return None
            side = compare_to_rational(map, cand.numerator, cand.denominator)
            if side == 0:
                return cand
            if side > 0:
                probe_lo = cand
            else:
                probe_hi = cand
        return None

    def near_period_candidate():
        """Smallest-lag near-return of the recent orbit, as a fraction."""
        best_gap, cand = 0.01, None
        for m, ym, cm in ring:
            if m == n:
                continue
            d = y - ym
            d -= round(d)
            if abs(d) < best_gap:
                best_gap = abs(d)
                qc = n - m
                pc = carries - cm + round((y - ym) - d)
                cand = Fraction(pc, qc)
        return cand

    while n < max_iter:
        n += 1
        ynew = step(y)
        carry = math.floor(ynew)
        y = ynew - carry
        carries += carry
        ring.append((n, y, carries))
        e = y - round(y)
        if abs(e) < best:
            best = abs(e)
            last_record = n
            p = carries + round(y)
            if e == 0.0:
                cand = Fraction(p, n)
                if compare_to_rational(map, cand.numerator, cand.denominator) == 0:
                    return RotationEstimate(float(cand), cand, cand, cand, n)
            elif e > 0.0:
                lo = max(lo, Fraction(p, n))
            else:
                hi = min(hi, Fraction(p, n))
            if hi - lo <= tol:
                mid = (lo + hi) / 2
                return RotationEstimate(float(mid), lo, hi, None, n)
        if n > 4 * last_record + stall_allowance:
            # a big continued-fraction quotient (or a rational limit) is
            # pending: certify a small rational, or test the orbit's own
            # near-period; if neither settles it, raise the threshold
            cand = try_rational()
            if cand is not None:
                return RotationEstimate(float(cand), cand, cand, cand, n)
            near = near_period_candidate()
            if near is not None and lo <= near <= hi and near.denominator <= 20000:
                side = compare_to_rational(map, near.numerator, near.denominator)
                if side == 0:
                    return RotationEstimate(float(near), near, near, near, n)
                if side > 0:
                    lo = max(lo, near)
                else:
                    hi = min(hi, near)
                if hi - lo <= tol:
                    mid = (lo + hi) / 2
                    return RotationEstimate(float(mid), lo, hi, None, n)
            stall_allowance *= 4

    if hi - lo <= tol:
        mid = (lo + hi) / 2
        return RotationEstimate(float(mid), lo, hi, None, n)
    cand = try_rational()
    if cand is not None:
        return RotationEstimate(float(cand), cand, cand, cand, n)
    raise NoConvergence(
        f"rotation number bracket stalled at width {float(hi - lo):.3e} "
        f"after {n} iterations (tol {tol:g})",
        bracket=(lo, hi),
    )


def rotation_number(map, tol: float = 1e-10, max_iter: int = 10_000_000) -> float:
    """rot(f) in [0, 1), within tol."""
    est = rotation_estimate(map, tol, max_iter)
    return est.value - math.floor(est.value)


# -- periodic orbits ---------------------------------------------------------


def _grid_roots(g, x, scalar_g):
    """Roots of G from its values g on the uniform grid x of R/Z.

    A grid point is a root when g vanishes there; a cell with a sign
    change is refined by brentq; a local minimum of |G| below 1e-6 with
    no adjacent sign change is a candidate tangency, refined as a smooth
    signed extremum and kept when |G| < 1e-10 there (reported as a
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
        xl = x[i]
        if zero[i]:
            roots.append(xl)
        elif crossing[i]:
            roots.append(brentq(scalar_g, xl, xl + h, xtol=1e-15, rtol=8.9e-16))
        else:
            sgn = 1.0 if g[i] >= 0.0 else -1.0
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


def find_cycles(map, p: int, q: int, resolution: float = 1e-12) -> list[Cycle]:
    """All periodic orbits of type p/q, grouped and classified.

    Roots of G(x) = F^q(x) - x - p are located by a sign-change scan plus
    bisection and Newton polish; a sign-touching |G| minimum below 1e-10
    is kept as a parabolic root (tangencies are invisible to sign changes).
    """
    if q < 1:
        raise ConfigError(f"period must be positive, got {q}")
    if math.gcd(abs(p), q) != 1:
        raise ConfigError(f"p/q = {p}/{q} must be in lowest terms")
    if compare_to_rational(map, p, q) != 0:
        raise WrongRotationNumber(f"rot(f) != {p}/{q}")

    x = np.linspace(0.0, 1.0, _ROOT_GRID, endpoint=False)
    g = _g_values(map, p, q, x)
    if float(np.max(np.abs(g))) < 1e-13:
        raise RootFindingIncomplete(
            "G vanishes identically at grid resolution: a continuum of "
            "periodic points (identity-like degeneracy)",
            suspect_intervals=[(0.0, 1.0)],
        )

    def scalar_g(t):
        return float(_g_values(map, p, q, float(t)))

    roots, suspects = _grid_roots(g, x, scalar_g)

    if suspects:
        raise RootFindingIncomplete(
            "near-tangencies could not be resolved as roots or non-roots",
            suspect_intervals=suspects,
        )

    roots = sorted(float(r) % 1.0 for r in roots)
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) < max(resolution, 1e-12):
            continue
        merged.append(r)
    if merged and (merged[0] + 1.0) - merged[-1] < max(resolution, 1e-12):
        merged.pop()
    if not merged:
        raise RootFindingIncomplete("no periodic points found despite rot = p/q")

    # group into orbits
    root_arr = np.array(merged)
    unused = set(range(len(merged)))
    cycles: list[Cycle] = []
    while unused:
        i0 = min(unused)
        orbit_idx = [i0]
        unused.discard(i0)
        cur = merged[i0]
        for _ in range(q - 1):
            ynext = float(map.lift(cur)) % 1.0
            j = int(np.argmin(np.minimum(np.abs(root_arr - ynext), 1.0 - np.abs(root_arr - ynext))))
            dist = min(abs(root_arr[j] - ynext), 1.0 - abs(root_arr[j] - ynext))
            if dist > 1e-7:
                raise RootFindingIncomplete(
                    f"orbit continuation lost at x = {cur:.12f} -> {ynext:.12f}",
                    suspect_intervals=[(ynext - 1e-6, ynext + 1e-6)],
                )
            if j not in unused:
                raise RootFindingIncomplete(
                    f"orbit of {merged[i0]:.12f} revisits a used point before period {q}"
                )
            unused.discard(j)
            orbit_idx.append(j)
            cur = merged[j]
        pts = sorted(merged[j] for j in orbit_idx)
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

    cycles.sort(key=lambda c: c.points[0])
    return cycles


def cycles_to_csv_rows(cycles: Sequence[Cycle]):
    """Rows (p, q, point, rho, kind), one row per periodic point."""
    rows = []
    for c in cycles:
        for t in c.points:
            rows.append((c.winding, c.period, t, c.multiplier, c.kind))
    return rows


# -- plateaus ----------------------------------------------------------------


def _rot_crossing(map, p: int, q: int, lo: float, hi: float, want: int,
                  grid: int = _G_GRID, tol: float = 1e-10, grow=None) -> float:
    """Smallest omega with compare_to_rational(f + omega, p, q) >= want, to tol.

    grow ("lo", "hi" or None) names the end of [lo, hi] that may lie short
    of the crossing: it is tested and pushed out by the bracket's width,
    up to 8 times, before NumericalError is raised.
    """

    def right(w):
        return compare_to_rational(map.shifted(w), p, q, grid) >= want

    for _ in range(8):
        if grow is None or (right(hi) if grow == "hi" else not right(lo)):
            break
        width = hi - lo
        lo, hi = (lo, hi + width) if grow == "hi" else (lo - width, hi)
    else:
        raise NumericalError(f"could not bracket rot = {p}/{q} by growing {grow}")
    lo, hi = _bisect(right, lo, hi, tol)
    return 0.5 * (lo + hi)


def plateau_bracket(map: CircleMap, p: int, q: int):
    """Omega interval with rot < p/q at the left end and > p/q at the right."""
    osc = sum(abs(a) for a in map.cos_coeffs) + sum(abs(b) for b in map.sin_coeffs)
    center = p / q - map.mean_shift
    return (center - osc - 0.05, center + osc + 0.05)


def plateau(map: CircleMap, p: int, q: int, bracket=None, tol: float = 1e-10) -> Plateau:
    """The interval of omega with rot(f + omega) = p/q, edges to tol.

    Each edge is a rotation-number crossing (_rot_crossing).  A plateau
    that degenerates to a point (rigid rotations) is returned with
    omega_lo == omega_hi.
    """
    if math.gcd(abs(p), q) != 1:
        raise ConfigError(f"p/q = {p}/{q} must be in lowest terms")
    if bracket is None:
        bracket = plateau_bracket(map, p, q)
    wlo, whi = float(bracket[0]), float(bracket[1])
    side_lo = compare_to_rational(map.shifted(wlo), p, q)
    side_hi = compare_to_rational(map.shifted(whi), p, q)
    if side_lo >= 0 or side_hi <= 0:
        raise ConfigError(
            f"bracket ({wlo}, {whi}) must satisfy rot < {p}/{q} on the left "
            f"and rot > {p}/{q} on the right (got sides {side_lo}, {side_hi})"
        )
    omega_lo = _rot_crossing(map, p, q, wlo, whi, 0, tol=tol)
    omega_hi = _rot_crossing(map, p, q, wlo, whi, 1, tol=tol)
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


def denjoy_distortion(map, interval, n: int, grid: int = 256) -> float:
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

    x = np.linspace(a, b, grid)
    d1 = np.ones_like(x)
    cur = x.copy()
    for _ in range(n):
        d1 *= map.deriv(cur)
        cur = map.lift(cur)
    logs = np.log(d1)
    return float(logs.max() - logs.min())

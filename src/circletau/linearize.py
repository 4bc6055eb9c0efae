"""Linearizing charts at hyperbolic periodic points and the sigma sum.

Working with the q-th iterate H = F^q - p (a lift fixing each periodic
point), the chart inverse at a fixed point alpha with multiplier rho is

    phi^{-1}(x) = lim_n (H^n(x) - alpha) / rho^n        (attracting)
    phi^{-1}(x) = lim_n rho^n (H^{-n}(x) - alpha)       (repelling)

computed in ratio form together with its derivative.  Charts are
orientation preserving (phi'(0) = 1), so phi^{-1} is positive right of
alpha and negative left of it; with markers x_j in (alpha_j, alpha_{j+1})
the chart coordinates

    r_j = log phi_j^{-1}(x_j) / log rho_j
    s_j = log |phi_j^{-1}(x_{j-1})| / log rho_j + i pi / |log rho_j|

are branch-unambiguous, and sigma = sum_j (s_j - r_j) is the modulus of
the translation-glued comparison torus whose negative reciprocal is
quasiconformally close to the complex rotation number.

Charts take arrays.  ``IterationChart.inverse_with_deriv`` applies H (or
its Newton inverse) to all points still live at once, and each point
stops under its own rules, so it takes the steps, and gets the bits, of
a call on it alone.  ``sigma_from_charts`` evaluates each chart at its
two markers in one call, and ``xi_distortion`` each of its two charts on
the whole seam grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Cycle, find_cycles
from .errors import (
    ConfigError,
    NonCoprimeHomology,
    NotConverged,
    NotHyperbolic,
    NotInUpperHalfPlane,
    OutsideBasin,
    ParabolicPresent,
)
from .maps import IteratedMap, total_distortion
from .uniformize import hyperbolic_distance_mod1, wrap_half

_CHART_STOP = 1e-14  # |log| of a Schroeder step ratio at which a chart has converged
_CHART_CAP = 100_000
_XI_GRID = 65


class IterationChart:
    """Schroeder chart inverse at a hyperbolic fixed point of H = F^q - p,
    on a point or an array of points."""

    def __init__(self, map, p: int, q: int, alpha: float, rho: float):
        if abs(rho - 1.0) <= 1e-12:
            raise NotHyperbolic(f"multiplier {rho} is parabolic at {alpha}")
        self.p = p
        self.q = q
        self.alpha = float(alpha)
        self.rho = float(rho)
        self._fq = IteratedMap(map, q)

    @property
    def kind(self) -> str:
        return "attracting" if self.rho < 1.0 else "repelling"

    @property
    def log_rho(self) -> float:
        return math.log(self.rho)

    @property
    def modulus(self) -> float:
        return math.pi / abs(self.log_rho)

    def _h(self, x):
        return self._fq.lift(x) - self.p

    def _h_with_deriv(self, x):
        """(H(x), H'(x)) on an array x from one pass along its orbit, with
        the bits of ``_h`` and ``IteratedMap.deriv``."""
        base, d = self._fq.base, np.ones(x.shape)
        for _ in range(self.q):
            x, d = base.lift(x), base.deriv(x) * d
        return x - self.p, d

    def _h_inverse(self, target, z):
        """H^{-1}(target) by Newton from z, which it updates; each point
        stops at its own |step| < 1e-15 max(1, |z|)."""
        live = np.arange(z.size)
        for _ in range(80):
            zl = z[live]
            h, dh = self._h_with_deriv(zl)
            step = (h - target[live]) / dh
            zl = zl - step
            z[live] = zl
            live = live[np.abs(step) >= 1e-15 * np.maximum(1.0, np.abs(zl))]
            if not live.size:
                return z
        raise NotConverged(f"Newton inversion of F^{self.q} stalled near {z[live]}")

    def inverse_with_deriv(self, x):
        """(phi^{-1}(x), (phi^{-1})'(x)) for x in the lift chart adjacent to alpha.

        x is a point or an array of points, and both results have its
        shape.  Each step applies H (attracting) or its Newton inverse
        (repelling) to the points still live, and each point stops on
        its own: it iterates the ratio form of the Schroeder limit and,
        once its gap to alpha is ~1e-6 (still far above the rounding
        floor, where the per-step factors would pick up 1e-16/gap
        relative noise), sums the remaining geometric tail from the
        measured contraction, or stops at |log ratio| <= 1e-14.  So a
        point takes the steps, and gets the bits, of a call on it alone.
        Raises OutsideBasin when a point moves away from alpha and
        NotConverged when one is still live after 100,000 steps.
        """
        a, rho = self.alpha, self.rho
        start = np.array(x, dtype=float).reshape(-1)
        u = start - a
        far = np.abs(u) >= 0.75
        if far.any():
            raise OutsideBasin(f"{start[far]} is not adjacent to the periodic point {a}")
        du = np.ones_like(u)
        y = start.copy()
        prev_gap = np.abs(u)
        tail_gap = 1e-6 * np.maximum(1.0, prev_gap)
        live = np.flatnonzero(u)  # a point at alpha keeps (0, 1)
        for _ in range(_CHART_CAP):
            if not live.size:
                return u.reshape(np.shape(x))[()], du.reshape(np.shape(x))[()]
            yl = y[live]
            if rho < 1.0:
                ynext, dh = self._h_with_deriv(yl)
                ratio = (ynext - a) / ((yl - a) * rho)
                w = dh / rho
            else:
                ynext = self._h_inverse(yl, a + (yl - a) / rho)
                ratio = (ynext - a) * rho / (yl - a)
                w = rho / self._fq.deriv(ynext)
            gap = np.abs(ynext - a)
            away = (gap >= prev_gap[live]) & (gap > 1e-14)
            if away.any():
                raise OutsideBasin(
                    f"orbit of {start[live][away]} moves away from {a}: outside the basin"
                )
            ul = u[live] * ratio
            dul = du[live] * w
            log_r = np.log(np.abs(ratio))
            kappa = gap / prev_gap[live]
            stop = np.abs(log_r) <= _CHART_STOP
            tail = ~stop & (gap < tail_gap[live]) & ((kappa < 0.9) | (gap < 1e-12))
            t = kappa[tail] / (1.0 - kappa[tail])
            ul[tail] *= np.exp(log_r[tail] * t)
            dul[tail] *= np.exp(np.log(np.abs(w[tail])) * t)
            u[live], du[live], y[live], prev_gap[live] = ul, dul, ynext, gap
            live = live[~(stop | tail)]
        raise NotConverged(
            f"chart iteration at alpha = {a} did not stabilize within {_CHART_CAP} steps"
        )

    def inverse(self, x):
        return self.inverse_with_deriv(x)[0]


def linearizing_inverse(map, cycle: Cycle, base_point: float) -> float:
    """phi^{-1}(base_point) in the chart at the cycle point nearest base_point.

    Negative left of the periodic point, positive right of it.
    """
    if cycle.kind == "parabolic":
        raise NotHyperbolic("linearizing charts need a hyperbolic cycle")
    x = float(base_point)
    best = min(cycle.points, key=lambda a: abs(wrap_half(x - a)))
    alpha = best + round(x - best)  # representative of the point next to x
    chart = IterationChart(map, cycle.winding, cycle.period, alpha, cycle.multiplier)
    return chart.inverse(x)


@dataclass(frozen=True)
class SigmaData:
    """Chart coordinates of the markers and their sigma sum."""

    r_tilde: tuple
    s_tilde: tuple
    sigma: complex
    moduli: tuple  # pi / |log rho_j|
    marker_points: tuple
    alphas: tuple
    multipliers: tuple


def ordered_charts(map, p: int, q: int):
    """Charts at all periodic points of type p/q (``find_cycles``),
    cyclically ordered, attracting first.

    The 2mq fixed points of F^q - p are lifted to an increasing sequence
    alpha_0 < ... < alpha_{2mq-1} < alpha_0 + 1 with alpha_0 attracting
    and kinds alternating.
    """
    cycles = find_cycles(map, p, q)
    if any(not c.is_hyperbolic for c in cycles):
        raise NotHyperbolic("a parabolic cycle is present")
    pts = []
    for c in cycles:
        for t in c.points:
            pts.append((t, c.multiplier))
    pts.sort()
    kinds = [rho < 1.0 for _, rho in pts]
    if len(pts) % 2 != 0 or any(a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])):
        raise NotHyperbolic("attracting and repelling points do not alternate")
    start = kinds.index(True)
    ordered = pts[start:] + [(t + 1.0, rho) for t, rho in pts[:start]]
    return [IterationChart(map, p, q, t, rho) for t, rho in ordered]


def _check_marker(chart: IterationChart, x: float, lo: float, hi: float) -> float:
    """Enforce the ordering condition, pushing once by H if needed."""
    z = x
    for _ in range(2):
        hz = chart._h(z)
        if (lo < hz < z) if chart.kind == "attracting" else (z < hz < hi):
            return z
        z = hz
    raise ConfigError(f"marker {x} cannot satisfy the ordering condition")


def sigma_from_charts(charts, markers) -> SigmaData:
    """sigma = sum_j (s_j - r_j) from chart objects and markers.

    charts[j] needs .alpha, .rho, .log_rho, .modulus and .inverse(x) on
    an array x (its two markers);
    markers[j] must lie in (alpha_j, alpha_{j+1}).  This seam lets tests
    substitute exactly-linear charts.
    """
    n = len(charts)
    r_t, s_t = [], []
    for j in range(n):
        cj = charts[j]
        prev = markers[j - 1] - (1.0 if j == 0 else 0.0)
        u, v = (float(t) for t in cj.inverse(np.array([markers[j], prev])))
        if u <= 0.0:
            raise ConfigError(
                f"marker {markers[j]} is not right of alpha_{j} = {cj.alpha}"
            )
        if v >= 0.0:
            raise ConfigError(
                f"marker {prev} is not left of alpha_{j} = {cj.alpha}"
            )
        r_t.append(complex(math.log(u) / cj.log_rho, 0.0))
        s_t.append(complex(math.log(-v) / cj.log_rho, math.pi / abs(cj.log_rho)))
    sigma = sum(s - r for s, r in zip(s_t, r_t))
    return SigmaData(
        r_tilde=tuple(r_t),
        s_tilde=tuple(s_t),
        sigma=complex(sigma),
        moduli=tuple(c.modulus for c in charts),
        marker_points=tuple(markers),
        alphas=tuple(c.alpha for c in charts),
        multipliers=tuple(c.rho for c in charts),
    )


def sigma(map, p: int, q: int, markers: Sequence[float] | None = None) -> SigmaData:
    """Full sigma computation for a hyperbolic map with rot = p/q."""
    charts = ordered_charts(map, p, q)
    n = len(charts)
    alphas = [c.alpha for c in charts]
    alphas_ext = alphas + [alphas[0] + 1.0]
    if markers is None:
        markers = [0.5 * (alphas_ext[j] + alphas_ext[j + 1]) for j in range(n)]
    else:
        markers = [float(x) for x in markers]
        for j, x in enumerate(markers):
            if not (alphas_ext[j] < x < alphas_ext[j + 1]):
                raise ConfigError(
                    f"marker {x} is outside (alpha_{j}, alpha_{j+1})"
                )
    markers = [
        _check_marker(charts[j], markers[j], alphas_ext[j], alphas_ext[j + 1])
        for j in range(n)
    ]
    return sigma_from_charts(charts, markers)


# -- disk radius and inequality checks ----------------------------------------


@dataclass(frozen=True)
class DiskRadius:
    """R_omega and, when a distortion constant is supplied, D_f/(4 pi q^2)."""

    value: float
    coarse_bound: float | None


def bubble_disk_radius(cycles: Sequence[Cycle], q: int,
                       distortion: float | None = None) -> DiskRadius:
    """R = 1 / (2 pi q sum over periodic points of 1/|log rho|).

    Each orbit contributes q equal terms to the sum.
    """
    if not cycles:
        raise ConfigError("need at least one cycle")
    if any(not c.is_hyperbolic for c in cycles):
        raise ParabolicPresent("disk radius is undefined with a parabolic cycle")
    total = sum(q / abs(math.log(c.multiplier)) for c in cycles)
    R = 1.0 / (2.0 * math.pi * q * total)
    coarse = None if distortion is None else distortion / (4.0 * math.pi * q * q)
    return DiskRadius(R, coarse)


@dataclass(frozen=True)
class AnnuliCheck:
    passed: bool
    slack: float
    lhs: float  # Im tau / |a + b tau|^2 at the minimizing representative
    rhs: float  # sum of moduli


def annuli_inequality_check(tau, moduli: Sequence[float], homology) -> AnnuliCheck:
    """Length-area bound Im tau / |a + b tau|^2 >= sum mod A_j."""
    a, b = int(homology[0]), int(homology[1])
    if math.gcd(abs(a), abs(b)) != 1:
        raise NonCoprimeHomology(f"gcd({a}, {b}) != 1")
    z = complex(tau)
    if z.imag <= 0.0:
        raise NotInUpperHalfPlane(f"tau must have Im > 0, got {z}")
    if b == 0:
        denom = abs(a) ** 2
    else:
        n0 = round(-(a / b + z.real))
        denom = min(abs(a + b * (z + n)) ** 2 for n in (n0 - 1, n0, n0 + 1))
    lhs = z.imag / denom
    rhs = float(sum(moduli))
    return AnnuliCheck(lhs >= rhs, lhs - rhs, lhs, rhs)


@dataclass(frozen=True)
class QcTwistCheck:
    """Hyperbolic distance between q tau_bar and -1/sigma, with both bounds."""

    distance: float
    bound_base: float  # 5 D_f(f)
    bound_iterated: float  # 5 D_f(F^q), the safe variant
    sigma_data: SigmaData
    minus_inv_sigma: complex

    @property
    def within_base(self) -> bool:
        return self.distance <= self.bound_base

    @property
    def within_iterated(self) -> bool:
        return self.distance <= self.bound_iterated


def qc_estimate_check(map, p: int, q: int, tau_bar) -> QcTwistCheck:
    """d_H(q tau_bar, -1/sigma), compared against 5 D_f and 5 D_{F^q}."""
    sd = sigma(map, p, q)
    target = -1.0 / sd.sigma
    z = complex(tau_bar)
    if z.imag <= 0.0:
        raise NotInUpperHalfPlane("tau_bar must be interior (hyperbolic case)")
    dist = hyperbolic_distance_mod1(q * z, target)
    d_base = total_distortion(map)
    d_iter = d_base if q == 1 else total_distortion(map.iterate(q))
    return QcTwistCheck(dist, 5.0 * d_base, 5.0 * d_iter, sd, target)


def xi_distortion(map, p: int, q: int, j: int) -> float:
    """Distortion of the gluing xi_j = chart_{j+1}^{-1} o chart_j over one period.

    Parametrized by 65 equally spaced x in the fundamental interval
    between x_j and H(x_j):
    xi_j'(t) = s'(x) / t'(x) with t = log phi_j^{-1} / log rho_j and
    s = log |phi_{j+1}^{-1}| / log rho_{j+1}.  Each of the two charts is
    evaluated on the whole grid in one call.
    """
    charts = ordered_charts(map, p, q)
    n = len(charts)
    j = j % n
    cj = charts[j]
    cnext = charts[(j + 1) % n]
    shift = 1.0 if j == n - 1 else 0.0  # alpha_{j+1} wraps past alpha_0
    alpha_next = cnext.alpha + shift
    x0 = 0.5 * (cj.alpha + alpha_next)
    x1 = cj._h(x0)
    lo, hi = (x1, x0) if x1 < x0 else (x0, x1)
    xs = lo + (hi - lo) * np.arange(_XI_GRID) / (_XI_GRID - 1)
    u, du = cj.inverse_with_deriv(xs)
    v, dv = cnext.inverse_with_deriv(xs - shift)
    xi_p = (dv / (v * cnext.log_rho)) / (du / (u * cj.log_rho))
    if np.any(xi_p <= 0.0):
        raise NotConverged(f"xi' = {xi_p.min()} is not positive on the seam")
    logs = np.log(xi_p)
    return float(logs.max() - logs.min())

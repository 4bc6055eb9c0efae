"""Bubble tracing, endpoint classification, and the Tsujii experiments.

A bubble is traced over the maximal interval of hyperbolic parameters
abutting the right edge of a rational plateau (for single-bubble
plateaus that is the whole plateau).  Interior non-hyperbolic parameters
are located as jumps of the periodic-point count, which in an analytic
monotone family change exactly at parameters carrying a parabolic cycle;
the jump is bisected by ``maps._bisect``.  The plateau edge facing
omega = 0 (Tsujii) and the Liouville margins are rotation-number
crossings, ``dynamics._rot_crossing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .dynamics import (
    Plateau,
    _g_values,
    _rot_crossing,
    find_cycles,
    plateau,
    plateau_bracket,
    rotation_estimate,
)
from .errors import (
    ConfigError,
    EmptyPlateau,
    NoConvergence,
    NumericalError,
    WrongProfile,
)
from .maps import CircleMap, _bisect, total_distortion
from .uniformize import BoundaryValue, boundary_tau, wrap_half

_MIN_TRACEABLE_WIDTH = 1e-6
_EDGE_PROBE = 1e-7
_REAL_DECAY_RATIO = 0.5  # inner/outer multiplier-gap ratio separating real/complex
_COMPLEX_FLOOR = 1e-3


@dataclass(frozen=True)
class BubbleSample:
    """One extrapolated boundary point of a bubble."""

    omega: float
    p: int
    q: int
    tau_re: float
    tau_im: float
    horocycle_height: float  # h = |tau - p/q|^2 / Im tau at the nearest lift
    tangency_angle: float  # arg(tau - p/q)
    error_estimate: float

    @property
    def csv_row(self):
        return (
            self.omega,
            self.p,
            self.q,
            self.tau_re,
            self.tau_im,
            self.horocycle_height,
            self.tangency_angle,
            self.error_estimate,
        )


@dataclass(frozen=True)
class EndpointReport:
    omega0: float
    side: str  # left | right
    kind: str  # real | complex | none
    evidence: tuple  # (omega, min |rho - 1|) multiplier traces

    def to_json_dict(self) -> dict:
        return {
            "omega0": self.omega0,
            "side": self.side,
            "kind": self.kind,
            "evidence": [[w, m] for w, m in self.evidence],
        }


@dataclass(frozen=True)
class BubbleTrace:
    p: int
    q: int
    plateau: Plateau
    bubble_lo: float
    bubble_hi: float
    samples: tuple  # BubbleSample, ascending omega
    left: EndpointReport | None
    right: EndpointReport | None

    def csv_rows(self):
        return [s.csv_row for s in self.samples]


def count_periodic_points(map, p: int, q: int, grid: int = 8192) -> int:
    """Sign changes of G = F^q - x - p between neighbours on a periodic grid:
    the transversal solutions of F^q(x) = x + p inside grid cells.
    Tangencies, and roots that land exactly on a grid point, count zero."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = _g_values(map, p, q, x)
    return int(np.sum(g * np.roll(g, -1) < 0.0))


def sample_to_boundary(map, omega: float, p: int, q: int,
                       bv: BoundaryValue) -> BubbleSample:
    z = bv.tau_raw
    dx = wrap_half((z.real - p / q))
    im = max(z.imag, 1e-12)
    return BubbleSample(
        omega=omega,
        p=p,
        q=q,
        tau_re=bv.tau.re,
        tau_im=bv.tau.im,
        horocycle_height=(dx * dx + im * im) / im,
        tangency_angle=math.atan2(im, dx),
        error_estimate=bv.error_estimate,
    )


def _nearest_count_jump(map, p, q, lo, hi, ref_count, from_right,
                        coarse=96, tol=1e-10):
    """Interior parameter nearest the reference edge where the
    periodic-point count changes.

    Returns None when the count is constant on the scanned grid (single
    bubble).  Bubbles narrower than the coarse grid are not resolved.
    """
    width = hi - lo
    if from_right:
        probes = [hi - width * (i + 1) / (coarse + 1) for i in range(coarse)]
        last_equal = hi
    else:
        probes = [lo + width * (i + 1) / (coarse + 1) for i in range(coarse)]
        last_equal = lo
    first_diff = None
    for w in probes:  # marching away from the reference edge
        if count_periodic_points(map.shifted(w), p, q) == ref_count:
            last_equal = w
        else:
            first_diff = w
            break
    if first_diff is None:
        return None
    a, b = _bisect(
        lambda w: (count_periodic_points(map.shifted(w), p, q) == ref_count) == from_right,
        *sorted((first_diff, last_equal)),
        tol,
    )
    return 0.5 * (a + b)


def _multiplier_gap(map, omega, p, q) -> float:
    cycles = find_cycles(map.shifted(omega), p, q)
    return min(abs(c.multiplier - 1.0) for c in cycles)


def _classify_endpoint(map, p, q, edge: float, side: str,
                       inner_omegas: Sequence[float]) -> EndpointReport:
    """Real vs complex endpoint from the multiplier trace approaching the edge.

    A trace decaying like sqrt(distance) marks merging real cycles (the
    multiplier reaches 1 within resolution at the edge); a trace bounded
    away from 1 marks cycles that bifurcated into complex pairs.
    """
    sgn = 1.0 if side == "left" else -1.0
    probe = edge + sgn * _EDGE_PROBE
    omegas = [probe] + [w for w in inner_omegas]
    omegas.sort(key=lambda w: abs(w - edge))
    trace = []
    for w in omegas:
        try:
            trace.append((w, _multiplier_gap(map, w, p, q)))
        except NumericalError:
            continue
    if len(trace) < 3:
        return EndpointReport(edge, side, "none", tuple(trace))
    gaps = [m for _, m in trace]
    inner, outer = gaps[0], gaps[-1]
    dists = [abs(w - edge) for w, _ in trace]
    # sqrt-model fit quality
    cs = [m / math.sqrt(d) for (_, m), d in zip(trace, dists) if d > 0]
    c_med = sorted(cs)[len(cs) // 2]
    model_ok = c_med > 0 and all(
        abs(m - c_med * math.sqrt(d)) <= 0.5 * c_med * math.sqrt(d)
        for (_, m), d in zip(trace, dists)
        if d > 0
    )
    if model_ok and inner < _REAL_DECAY_RATIO * outer:
        return EndpointReport(edge, side, "real", tuple(trace))
    if inner >= _COMPLEX_FLOOR and inner >= _REAL_DECAY_RATIO * outer:
        return EndpointReport(edge, side, "complex", tuple(trace))
    return EndpointReport(edge, side, "none", tuple(trace))


def _boundary_worker(args):
    desc, omega, s, resid_target, n_cap = args
    m = CircleMap.from_descriptor(desc)
    return boundary_tau(m, omega, edge_distance=s, resid_target=resid_target,
                        n_cap=n_cap)


def trace_bubble(
    map: CircleMap,
    p: int,
    q: int,
    samples: int = 24,
    bracket=None,
    classify: bool = True,
    resid_target: float = 3e-7,
    n_cap: int = 384,
    edge_tol: float = 1e-10,
    workers: int = 1,
    segment: str = "right",
) -> BubbleTrace:
    """Sample tau_bar at Chebyshev-spaced omega inside the bubble.

    The traced interval is the maximal hyperbolic subinterval of the p/q
    plateau abutting its right (or left, per `segment`) edge; its
    endpoints are classified from the multiplier traces of the
    continuing cycles.
    """
    if samples < 6:
        raise ConfigError(f"need at least 6 samples, got {samples}")
    if segment not in ("left", "right"):
        raise ConfigError(f"segment must be 'left' or 'right', got {segment!r}")
    plat = plateau(map, p, q, bracket, tol=edge_tol)
    if plat.width < _MIN_TRACEABLE_WIDTH:
        raise EmptyPlateau(
            f"plateau of {p}/{q} too narrow to trace ({plat.width:.3e})",
            pinch=0.5 * (plat.omega_lo + plat.omega_hi),
        )
    from_right = segment == "right"
    if from_right:
        ref_omega = plat.omega_hi - 0.02 * plat.width
        scan = (plat.omega_lo, ref_omega)
    else:
        ref_omega = plat.omega_lo + 0.02 * plat.width
        scan = (ref_omega, plat.omega_hi)
    ref_count = count_periodic_points(map.shifted(ref_omega), p, q)
    jump = _nearest_count_jump(
        map, p, q, scan[0], scan[1], ref_count, from_right, tol=edge_tol
    )
    if from_right:
        blo = plat.omega_lo if jump is None else jump
        bhi = plat.omega_hi
    else:
        blo = plat.omega_lo
        bhi = plat.omega_hi if jump is None else jump

    mid = 0.5 * (blo + bhi)
    hw = 0.5 * (bhi - blo)
    nodes = sorted(
        mid + hw * math.cos((2 * k + 1) * math.pi / (2 * samples))
        for k in range(samples)
    )
    jobs = []
    for w in nodes:
        d_lo, d_hi = w - blo, bhi - w
        s = d_hi if d_hi <= d_lo else -d_lo
        jobs.append((w, s))
    if workers > 1 and isinstance(map, CircleMap):
        from concurrent.futures import ProcessPoolExecutor

        desc = map.to_descriptor()
        arglist = [(desc, w, s, resid_target, n_cap) for w, s in jobs]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            bvs = list(pool.map(_boundary_worker, arglist))
    else:
        bvs = [
            boundary_tau(map, w, edge_distance=s, resid_target=resid_target,
                         n_cap=n_cap)
            for w, s in jobs
        ]
    out = [
        sample_to_boundary(map, w, p, q, bv) for (w, s), bv in zip(jobs, bvs)
    ]

    left = right = None
    if classify:
        k = min(5, samples // 2)  # stay on the endpoint's side of the bubble
        left = _classify_endpoint(map, p, q, blo, "left", [s.omega for s in out[:k]])
        right = _classify_endpoint(
            map, p, q, bhi, "right", [s.omega for s in out[-k:]]
        )
        plat = Plateau(
            p, q, plat.omega_lo, plat.omega_hi,
            lo_kind=left.kind if blo == plat.omega_lo else plat.lo_kind,
            hi_kind=right.kind if bhi == plat.omega_hi else plat.hi_kind,
        )
    return BubbleTrace(p, q, plat, blo, bhi, tuple(out), left, right)


# -- non-injectivity scenario --------------------------------------------------


@dataclass(frozen=True)
class NoninjectivityReport:
    y1: float  # lower local maximum of x - f(x): complex left endpoint
    y2: float  # upper local maximum: real right endpoint
    x1: float
    x2: float
    trace: BubbleTrace
    left_tangency_ok: bool  # |angle| < 0.1 at the innermost resolvable samples
    right_horocycle_ok: bool  # h < 1e-2 at the innermost samples
    left_germ: tuple  # (omega, re offset from p/q, im) polyline
    right_germ: tuple

    def to_json_dict(self) -> dict:
        return {
            "y1": self.y1,
            "y2": self.y2,
            "left_kind": self.trace.left.kind,
            "right_kind": self.trace.right.kind,
            "left_tangency_ok": self.left_tangency_ok,
            "right_horocycle_ok": self.right_horocycle_ok,
            "left_germ": [list(t) for t in self.left_germ],
            "right_germ": [list(t) for t in self.right_germ],
        }


def displacement_maxima(map: CircleMap, grid: int = 8192):
    """Local maxima (x, value) of g(x) = x - F(x) over one period."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = -np.asarray(map.displacement(x), dtype=float)
    peaks = (g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
    out = []
    for i in np.flatnonzero(peaks):
        res = minimize_scalar(
            lambda t: float(map.displacement(t)),
            bounds=(x[i] - 1.0 / grid, x[i] + 1.0 / grid),
            method="bounded",
            options={"xatol": 1e-14},
        )
        out.append((float(res.x) % 1.0, -float(res.fun)))
    out.sort(key=lambda t: t[1])
    return out


def noninjectivity_probe(map: CircleMap, samples: int = 24,
                         germ_points: int = 6,
                         trace: BubbleTrace | None = None) -> NoninjectivityReport:
    """The two-maxima scenario: tangential exit at y1, horocycle entry at y2.

    Requires x - f(x) to have exactly two local maxima with distinct
    values y1 < y2; the bubble over (y1, y2) then has a complex left
    endpoint (tangent to the real direction) and a real right endpoint
    (entering every horocycle), which forces tau to be non-injective.
    A precomputed trace of the 0/1 bubble may be passed to avoid
    re-sampling.
    """
    maxima = displacement_maxima(map)
    if len(maxima) != 2:
        raise WrongProfile(
            f"x - f(x) has {len(maxima)} local maxima; need exactly 2"
        )
    (x1, y1), (x2, y2) = maxima
    if abs(y2 - y1) < 1e-10:
        raise WrongProfile("the two local maxima have equal heights")

    if trace is None:
        trace = trace_bubble(map, 0, 1, samples=samples)
    inner_left = trace.samples[0]
    inner_right = trace.samples[-1]
    left_ok = abs(inner_left.tangency_angle) < 0.1
    right_ok = inner_right.horocycle_height < 1e-2
    lg = tuple(
        (s.omega, wrap_half(s.tau_re), s.tau_im) for s in trace.samples[:germ_points]
    )
    rg = tuple(
        (s.omega, wrap_half(s.tau_re), s.tau_im) for s in trace.samples[-germ_points:]
    )
    return NoninjectivityReport(
        y1=y1,
        y2=y2,
        x1=x1,
        x2=x2,
        trace=trace,
        left_tangency_ok=left_ok,
        right_horocycle_ok=right_ok,
        left_germ=lg,
        right_germ=rg,
    )


# -- Tsujii inequality ---------------------------------------------------------


@dataclass(frozen=True)
class TsujiiRow:
    p: int
    q: int
    theta_gap: float  # |theta - p/q|
    omega0: float  # nearest parameter with rot = p/q (plateau edge facing 0)
    bound: float  # e^{D_f} |theta - p/q|
    slack: float

    @property
    def passed(self) -> bool:
        return self.slack >= -1e-12

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "theta_gap": self.theta_gap,
            "omega0": self.omega0,
            "bound": self.bound,
            "slack": self.slack,
            "passed": self.passed,
        }


def _convergents(theta: float, depth: int):
    """Continued-fraction convergents p/q of theta, k = 1..depth."""
    out = []
    a = []
    x = theta
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(theta)), 1
    for _ in range(depth):
        frac = x - math.floor(x)
        if frac < 1e-14:
            break
        x = 1.0 / frac
        ak = int(math.floor(x))
        p_prev, p_cur = p_cur, ak * p_cur + p_prev
        q_prev, q_cur = q_cur, ak * q_cur + q_prev
        g = math.gcd(p_cur, q_cur)
        out.append((p_cur // g, q_cur // g))
    return out


def _edge_facing_zero(map, p: int, q: int, side: int, limit: float,
                      tol: float = 1e-12) -> float:
    """Plateau edge of p/q nearest to omega = 0.

    side=+1: plateau right of 0, returns its left edge (smallest omega
    with rot >= p/q); side=-1 symmetric.  Growing the far end by the
    bracket's width doubles it.
    """
    if side > 0:
        return _rot_crossing(map, p, q, 0.0, limit, 0, tol=tol, grow="hi")
    return _rot_crossing(map, p, q, -limit, 0.0, 1, tol=tol, grow="lo")


def tsujii_gap(map: CircleMap, depth: int) -> list[TsujiiRow]:
    """|omega_0| <= e^{D_f} |theta - p/q| for continued-fraction approximants.

    theta = rot(f) must be irrational at working precision; approximants
    whose q^2 exceeds the rotation-number resolution raise NoConvergence.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    est = rotation_estimate(map, tol=1e-10, max_iter=3_000_000)
    if est.exact is not None:
        raise ConfigError(
            f"rot(f) = {est.exact} is rational; the inequality needs an "
            "irrational rotation number"
        )
    theta = est.value
    resolution = max(est.bracket_width, 4e-16)
    d_f = total_distortion(map).value
    grow = math.exp(d_f)
    approximants = _convergents(theta, depth)
    for pk, qk in approximants:
        if 1.0 / (qk * qk) < 50.0 * resolution:
            raise NoConvergence(
                f"approximant {pk}/{qk}: 1/q^2 is below the rotation-number "
                f"resolution {resolution:.2e}",
                bracket=(est.lo, est.hi),
            )
    rows = []
    for pk, qk in approximants:
        gap = abs(theta - pk / qk)
        side = 1 if pk / qk > theta else -1
        omega0 = _edge_facing_zero(map, pk, qk, side, limit=1.05 * grow * gap + 1e-9)
        bound = grow * gap
        rows.append(TsujiiRow(pk, qk, gap, omega0, bound, bound - abs(omega0)))
    return rows


# -- Liouville measure estimate -------------------------------------------------


@dataclass(frozen=True)
class LiouvilleRow:
    q: int
    measured: float  # sum over coprime p of margin measures
    bound: float  # 2 e^{D_f} / q^{1+beta}

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + 1e-12


@dataclass(frozen=True)
class LiouvilleReport:
    beta: float
    q_max: int
    constant: float  # C = e^{D_f}
    rows: tuple

    @property
    def measured_total(self) -> float:
        return sum(r.measured for r in self.rows)

    @property
    def bound_total(self) -> float:
        return sum(r.bound for r in self.rows)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _rational_near(value: float, rel_tol: float) -> Fraction:
    f = Fraction(value).limit_denominator(20000)
    if value != 0 and abs(float(f) - value) > rel_tol * abs(value):
        raise ConfigError(
            f"cannot represent {value} as a small rational within {rel_tol:g}"
        )
    return f


def _margin_edge(map, target: Fraction, bracket, want_geq: bool,
                 tol: float) -> float:
    """Smallest omega with rot >= target (want_geq) or largest with rot <= target."""
    want, grow = (0, "lo") if want_geq else (1, "hi")
    return _rot_crossing(map, target.numerator, target.denominator, *bracket, want,
                         grid=1024, tol=tol, grow=grow)


def liouville_measure_estimate(
    map: CircleMap, beta: float, q_max: int, tol: float = 1e-9
) -> LiouvilleReport:
    """Measured size of {omega : 0 < |rot(f_omega) - p/q| < q^-(2+beta)}.

    Plateau neighborhoods are measured by bisection (dense omega grids
    would alias the q^-(2+beta) widths away); the per-q totals must stay
    below 2 e^{D_f} / q^{1+beta}.
    """
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if q_max < 0:
        raise ConfigError(f"q_max must be >= 0, got {q_max}")
    C = math.exp(total_distortion(map).value)
    rows = []
    for q in range(1, q_max + 1):
        eps_q = q ** (-(2.0 + beta))
        total = 0.0
        for p in range(q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            plat = plateau(map, p, q, tol=tol)
            t_lo = _rational_near(p / q - eps_q, 1e-9)
            t_hi = _rational_near(p / q + eps_q, 1e-9)
            pad = 1.3 * C * eps_q + 1e-7
            left = _margin_edge(
                map, t_lo, (plat.omega_lo - pad, plat.omega_lo), True, tol
            )
            right = _margin_edge(
                map, t_hi, (plat.omega_hi, plat.omega_hi + pad), False, tol
            )
            total += (right - left) - plat.width
        rows.append(LiouvilleRow(q, total, 2.0 * C / q ** (1.0 + beta)))
    return LiouvilleReport(beta, q_max, C, tuple(rows))

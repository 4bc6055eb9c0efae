"""Bubble tracing, endpoint classification, and the Tsujii experiments.

A bubble is traced over the maximal interval of hyperbolic parameters
abutting the right edge of a rational plateau (for single-bubble
plateaus that is the whole plateau).  Interior non-hyperbolic parameters
are the saddle-nodes G = G_x = 0 of G = F^q - x - p inside the plateau,
where a cycle is parabolic and the periodic-point count changes; Newton
finds them from the extrema of G (``dynamics._parabolic_parameters``).
The plateau edge facing omega = 0 (Tsujii) and the Liouville margins are
rotation-number crossings, ``dynamics._rot_crossing``: saddle-nodes found
by Newton on G = G_x = 0, each certified by the sign of a signed extremum
of G tol/2 either side, with bracket growth and bisection of that sign
only as the fallback.

``trace_bubble`` and ``trace_atlas`` share three steps: ``_bubble_segment``
plans a bubble (plateau, saddle-node edge, Chebyshev nodes with their
signed edge distances) in the calling process; ``_boundary_values``, the
package's one fan-out, solves the boundary values of any list of such
samples with ``_boundary_batch``, in process or on one slice of the list
per worker of one process pool; ``_bubble_trace`` assembles the samples
and optionally classifies the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dynamics import (
    Plateau,
    _g_grid,
    _parabolic_parameters,
    _rot_crossing,
    find_cycles,
    minimize_scalar,
    plateau,
    rotation_estimate,
)
from .errors import (
    ConfigError,
    EmptyPlateau,
    NoConvergence,
    NumericalError,
    WrongProfile,
)
from .maps import CircleMap, total_distortion
from .uniformize import (
    BoundaryValue,
    _shared_moments,
    boundary_tau,
    wrap_half,
)

_MIN_TRACEABLE_WIDTH = 1e-6
_EDGE_PROBE = 1e-7
_REAL_DECAY_RATIO = 0.5  # inner/outer multiplier-gap ratio separating real/complex
_COMPLEX_FLOOR = 1e-3
_COUNT_GRID = 8192
_GERM_POINTS = 6  # samples per endpoint germ of the non-injectivity report
_TSUJII_TOL = 1e-12
_LIOUVILLE_TOL = 1e-9


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


@dataclass(frozen=True)
class EndpointReport:
    omega0: float
    side: str  # left | right
    kind: str  # real | complex | none
    evidence: tuple  # (omega, min |rho - 1|) multiplier traces


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


def count_periodic_points(map, p: int, q: int) -> int:
    """Sign changes of G = F^q - x - p between neighbours on a periodic grid:
    the transversal solutions of F^q(x) = x + p inside grid cells.
    Tangencies, and roots that land exactly on a grid point, count zero."""
    g = _g_grid(map, p, q, _COUNT_GRID)[2]
    return int(np.sum(g * np.roll(g, -1) < 0.0))


def sample_to_boundary(omega: float, p: int, q: int,
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


@dataclass(frozen=True)
class _Segment:
    """The planned part of a trace: plateau, bubble edges and its
    (omega, signed edge distance) boundary jobs, ascending in omega."""

    plateau: Plateau
    bubble_lo: float
    bubble_hi: float
    jobs: list


def _bubble_segment(map, p, q, samples: int, segment: str) -> _Segment:
    """Plan the trace of one bubble: the plateau, the inner edge of the
    traced segment and its Chebyshev nodes.

    The inner edge is the largest (right segment) or smallest (left
    segment) parabolic parameter inside the plateau
    (``dynamics._parabolic_parameters``), or the far plateau edge when
    there is none.  Every such parameter is a converged saddle-node
    G = G_x = 0; one is missed only when its extremum of G exists neither
    at the plateau midpoint nor at any parameter found."""
    if samples < 6:
        raise ConfigError(f"need at least 6 samples, got {samples}")
    if segment not in ("left", "right"):
        raise ConfigError(f"segment must be 'left' or 'right', got {segment!r}")
    plat = plateau(map, p, q)
    if plat.width < _MIN_TRACEABLE_WIDTH:
        raise EmptyPlateau(
            f"plateau of {p}/{q} too narrow to trace ({plat.width:.3e})",
            pinch=0.5 * (plat.omega_lo + plat.omega_hi),
        )
    inner = _parabolic_parameters(map, p, q, plat.omega_lo, plat.omega_hi)
    blo, bhi = plat.omega_lo, plat.omega_hi
    if inner:
        blo, bhi = (inner[-1], bhi) if segment == "right" else (blo, inner[0])

    mid = 0.5 * (blo + bhi)
    hw = 0.5 * (bhi - blo)
    nodes = sorted(
        mid + hw * math.cos((2 * k + 1) * math.pi / (2 * samples))
        for k in range(samples)
    )
    # signed distance to the nearer bubble edge: + to bhi, - to blo
    jobs = [(w, bhi - w if bhi - w <= w - blo else blo - w) for w in nodes]
    return _Segment(plat, blo, bhi, jobs)


def _boundary_batch(map, jobs) -> list:
    """boundary_tau at every (omega, s) job, in job order, all sharing one
    store of gluing moments; a job that raises NumericalError yields the
    exception in its slot."""
    out = []
    with _shared_moments():
        for omega, s in jobs:
            try:
                out.append(boundary_tau(map, omega, edge_distance=s))
            except NumericalError as exc:
                out.append(exc)
    return out


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def _boundary_values(map, jobs, workers: int) -> list:
    """_boundary_batch of all jobs, in job order.

    The package's one fan-out: with n = min(workers, len(jobs)), in
    process for n <= 1, otherwise each of the n workers of one process
    pool runs _boundary_batch on the slice jobs[i::n], so the map is sent
    once per worker.  Each batch has its own moment store (see ``uniformize``).
    A stored moment has the bits a fresh one has, so neither the job
    order nor the worker count changes a bit of the results.
    """
    n = min(workers, len(jobs))
    if n <= 1:
        return _boundary_batch(map, jobs)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n) as pool:
        batches = list(pool.map(_boundary_batch, [map] * n, [jobs[i::n] for i in range(n)]))
    out = [None] * len(jobs)
    for i, values in enumerate(batches):
        out[i::n] = values
    return out


def _bubble_trace(map, seg: _Segment, values, classify: bool) -> BubbleTrace:
    """Assemble a trace from its segment and boundary values, re-raising
    the first failed sample; optionally classify the bubble's endpoints."""
    for v in values:
        if isinstance(v, NumericalError):
            raise v
    plat, blo, bhi = seg.plateau, seg.bubble_lo, seg.bubble_hi
    p, q = plat.p, plat.q
    out = [sample_to_boundary(w, p, q, bv) for (w, _), bv in zip(seg.jobs, values)]
    left = right = None
    if classify:
        k = min(5, len(out) // 2)  # stay on the endpoint's side of the bubble
        left = _classify_endpoint(map, p, q, blo, "left", [s.omega for s in out[:k]])
        right = _classify_endpoint(
            map, p, q, bhi, "right", [s.omega for s in out[-k:]]
        )
    return BubbleTrace(p, q, plat, blo, bhi, tuple(out), left, right)


def trace_bubble(map: CircleMap, p: int, q: int, samples: int = 24, classify: bool = True,
                 workers: int = 1, segment: str = "right") -> BubbleTrace:
    """Sample tau_bar at Chebyshev-spaced omega inside the bubble.

    The traced interval is the maximal hyperbolic subinterval of the p/q
    plateau abutting its right (or left, per `segment`) edge, bounded by
    the nearest saddle-node G = G_x = 0 inside the plateau, found by
    Newton from the extrema of G (see ``_bubble_segment`` for what is
    guaranteed); its endpoints are classified from the multiplier traces
    of the continuing cycles.  workers < 1 raises ConfigError.
    """
    _check_workers(workers)
    seg = _bubble_segment(map, p, q, samples, segment)
    return _bubble_trace(map, seg, _boundary_values(map, seg.jobs, workers), classify)


def trace_atlas(map: CircleMap, q_max: int, samples: int = 16,
                workers: int = 1) -> tuple[list, list]:
    """Right-edge bubbles of every reduced p/q with q <= q_max, in (q, p)
    order, with all their samples solved through one fan-out.

    Returns (traces, skipped); a plateau whose planning or any sample
    raises NumericalError is left out of traces and listed in skipped as
    (p, q, error).  Endpoints are not classified.  q_max < 1 or
    workers < 1 raises ConfigError.
    """
    if q_max < 1:
        raise ConfigError(f"q_max must be >= 1, got {q_max}")
    _check_workers(workers)
    planned, skipped = [], []
    for q in range(1, q_max + 1):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            try:
                planned.append(_bubble_segment(map, p, q, samples, "right"))
            except NumericalError as exc:
                skipped.append((p, q, exc))
    values = _boundary_values(map, [j for seg in planned for j in seg.jobs], workers)
    traces = []
    for i, seg in enumerate(planned):
        try:
            traces.append(_bubble_trace(map, seg, values[i * samples:(i + 1) * samples],
                                        classify=False))
        except NumericalError as exc:
            skipped.append((seg.plateau.p, seg.plateau.q, exc))
    skipped.sort(key=lambda t: (t[1], t[0]))
    return traces, skipped


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


def displacement_maxima(map: CircleMap, grid: int = 8192):
    """Local maxima (x, value) of g(x) = x - F(x) over one period.

    Each grid maximum is refined as the minimum of the displacement
    F(x) - x, which is G = F^q - x - p at p = 0, q = 1, by Newton on its
    jet in the two cells around the grid point (minimize_scalar)."""
    x = np.linspace(0.0, 1.0, grid, endpoint=False)
    g = -np.asarray(map.displacement(x), dtype=float)
    peaks = (g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
    out = []
    for i in np.flatnonzero(peaks):
        xm, fm = minimize_scalar(map, 0, 1, float(x[i]), 1.0 / grid, 1.0)
        out.append((xm % 1.0, -fm))
    out.sort(key=lambda t: t[1])
    return out


def noninjectivity_probe(map: CircleMap, samples: int = 24,
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
        (s.omega, wrap_half(s.tau_re), s.tau_im) for s in trace.samples[:_GERM_POINTS]
    )
    rg = tuple(
        (s.omega, wrap_half(s.tau_re), s.tau_im) for s in trace.samples[-_GERM_POINTS:]
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


def _convergents(theta: float, depth: int):
    """Continued-fraction convergents p/q of theta, k = 1..depth."""
    out = []
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


def tsujii_gap(map: CircleMap, depth: int) -> list[TsujiiRow]:
    """|omega_0| <= e^{D_f} |theta - p/q| for continued-fraction approximants.

    theta = rot(f) must be irrational at working precision.  It is
    converged to resolution = 1e-10, and approximants with 1/q^2 below
    50 times that raise NoConvergence.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    resolution = 1e-10
    est = rotation_estimate(map, tol=resolution, max_iter=3_000_000)
    if est.exact is not None:
        raise ConfigError(
            f"rot(f) = {est.exact} is rational; the inequality needs an "
            "irrational rotation number"
        )
    theta = est.value
    d_f = total_distortion(map)
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
        limit = 1.05 * grow * gap + 1e-9
        # the plateau edge nearest omega = 0: a plateau right of 0 gives its
        # left edge (smallest omega with rot >= p/q), one left of 0 its right
        # edge.  omega = 0 lies off the plateau, on the wrong side, so Newton
        # starts there; only when it fails does the crossing double the
        # bracket while the far end falls short of the edge
        if pk / qk > theta:
            omega0 = _rot_crossing(map, pk, qk, 0.0, limit, 0, tol=_TSUJII_TOL)
        else:
            omega0 = _rot_crossing(map, pk, qk, -limit, 0.0, 1, tol=_TSUJII_TOL)
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


def liouville_measure_estimate(map: CircleMap, beta: float, q_max: int) -> LiouvilleReport:
    """Measured size of {omega : 0 < |rot(f_omega) - p/q| < q^-(2+beta)}.

    Plateau neighborhoods are measured by rotation-number crossings
    (dense omega grids would alias the q^-(2+beta) widths away); the per-q
    totals must stay below 2 e^{D_f} / q^{1+beta}.  The margins are
    crossings at p/q -+ q^-(2+beta), taken as rationals of denominator at
    most 20000 within a relative 1e-9 (``_rational_near``).  For a
    non-integer beta, q^-(2+beta) is irrational from q = 2 on and usually
    has no such rational, so ConfigError is raised: beta = 0.5 fails at
    q = 2 and beta = 1.5 at q = 3.
    """
    if not 0.0 < beta < math.inf:
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    if q_max < 0:
        raise ConfigError(f"q_max must be >= 0, got {q_max}")
    C = math.exp(total_distortion(map))
    rows = []
    for q in range(1, q_max + 1):
        eps_q = q ** (-(2.0 + beta))
        total = 0.0
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            plat = plateau(map, p, q, tol=_LIOUVILLE_TOL)
            t_lo = _rational_near(p / q - eps_q, 1e-9)
            t_hi = _rational_near(p / q + eps_q, 1e-9)
            pad = 1.3 * C * eps_q + 1e-7
            # smallest omega with rot >= t_lo, largest with rot <= t_hi
            left = _rot_crossing(map, t_lo.numerator, t_lo.denominator,
                                 plat.omega_lo - pad, plat.omega_lo, 0,
                                 grid=1024, tol=_LIOUVILLE_TOL)
            right = _rot_crossing(map, t_hi.numerator, t_hi.denominator,
                                  plat.omega_hi, plat.omega_hi + pad, 1,
                                  grid=1024, tol=_LIOUVILLE_TOL)
            total += (right - left) - plat.width
        rows.append(LiouvilleRow(q, total, 2.0 * C / q ** (1.0 + beta)))
    return LiouvilleReport(beta, q_max, C, tuple(rows))

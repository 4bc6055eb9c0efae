"""Complex rotation numbers via spectral solution of the gluing equation.

For Im(omega) > 0 the annulus between R/Z and R/Z + omega glued by
f + omega is a torus C/(Z + tau Z); the uniformizing map is sought as

    Phi(z) = z + sum_{k=1..N} a_k e^{2 pi i k z}
               + sum_{k=1..N} b_k e^{-2 pi i k (z - omega)}

so that every basis element has sup-modulus 1 on the closed annulus, and
(a, b, tau) solve the collocation equations
Phi(f(x_j) + omega) = Phi(x_j) + tau in least squares.

The collocation matrix is [E_f D - E_x, conj(E_f) - conj(E_x) D, -1] with
the omega-free tables E_f = e^{2 pi i k f(x_j)}, E_x = e^{2 pi i k x_j}
and D = diag(e^{2 pi i k omega}).  Each table is built from factored
powers: with k = B a + b, an entry is the product of a fine table
e^{2 pi i b t_j} (b = 1..B) and a coarse one e^{2 pi i B a t_j}, so cos
and sin are evaluated on M (B + N/B) angles instead of M N.  The matrix,
in Fortran order with its right-hand side appended, is factored by
Householder QR (LAPACK zgeqrf with its tuned workspace) so that only R
is read, and solved by a triangular solve.  The reported `cond` is an
upper bound on the 2-norm condition number: ||R||_F ||R^-1||_F, replaced
by the exact ratio of singular values of R only when the bound exceeds
COND_LIMIT, so the IllConditioned gate acts on the 2-norm condition
number.  Injectivity is checked by min |Phi'| over 4M points of both
boundary circles, each circle's values being one inverse FFT of the
coefficients of Phi'.

Boundary values tau_bar(omega) for real omega are obtained by
extrapolating a ladder of solves tau(omega + i y_l) to y = 0: plain
polynomial Richardson away from the bifurcation locus, and polynomial
interpolation in the fold variable u = sqrt(1 - i y / s) when the signed
distance s to the nearest non-hyperbolic parameter is known (the
extension of tau across a plateau has a square-root branch point there,
so the ladder must be interpolated through that structure to converge).
Both run one Neville tableau, ``_neville``, in their node variable.
Rungs are solved from the top down, and since a thinner annulus never
needs fewer modes than a thicker one, each rung starts its mode
escalation at the N of the previous rung's best solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular, svdvals
from scipy.linalg.lapack import zgeqrf, zgeqrf_lwork, ztrtri

from .errors import (
    ConfigError,
    ExtrapolationDiverged,
    IllConditioned,
    NotInUpperHalfPlane,
)

TWO_PI = 2.0 * math.pi
COND_LIMIT = 1e12
HARD_Y_FLOOR = 2e-5  # absolute floor for edge-adapted rungs
POWER_BLOCK = 16  # fine-table width B of _cis_powers


def wrap_half(x: float) -> float:
    """Reduce to (-1/2, 1/2]."""
    y = x - math.floor(x)
    return y - 1.0 if y > 0.5 else y


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point of H/Z (im > 0) or its boundary R/Z (im = 0), re in [0, 1)."""

    re: float
    im: float

    def __post_init__(self):
        if self.im < 0.0:
            raise ConfigError(f"im must be >= 0, got {self.im}")
        object.__setattr__(self, "re", self.re - math.floor(self.re))

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def lift_near(self, x0: float) -> complex:
        """The representative with Re nearest to x0."""
        return complex(x0 + wrap_half(self.re - x0), self.im)

    @staticmethod
    def from_complex(z: complex) -> "UpperHalfPoint":
        return UpperHalfPoint(z.real % 1.0, z.imag)


def hyperbolic_distance(z, w) -> float:
    """Poincare distance in the upper half-plane.

    arccosh(1 + |z-w|^2 / (2 Im z Im w)).
    """
    z = z.as_complex if isinstance(z, UpperHalfPoint) else complex(z)
    w = w.as_complex if isinstance(w, UpperHalfPoint) else complex(w)
    if z.imag <= 0.0 or w.imag <= 0.0:
        raise NotInUpperHalfPlane(f"points must have Im > 0, got {z}, {w}")
    return math.acosh(1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag))


def hyperbolic_distance_mod1(z, w) -> float:
    """d_H between classes in H/Z: lift z to the translate nearest w."""
    z = z.as_complex if isinstance(z, UpperHalfPoint) else complex(z)
    w = w.as_complex if isinstance(w, UpperHalfPoint) else complex(w)
    zl = complex(w.real + wrap_half(z.real - w.real), z.imag)
    best = hyperbolic_distance(zl, w)
    for k in (-1, 1):  # neighbors can win when Im is large
        best = min(best, hyperbolic_distance(zl + k, w))
    return best


def y_min(map) -> float:
    """Smallest annulus height for direct default solves: max(1e-3, delta/50)."""
    return max(1e-3, map.strip_halfwidth / 50.0)


@dataclass(frozen=True)
class ConjugacySolution:
    """One gluing solve: tau plus coefficients and diagnostics."""

    tau: UpperHalfPoint
    tau_raw: complex  # as solved, before mod-1 normalization
    coeff_up: tuple  # a_k, k = 1..N
    coeff_down: tuple  # b_k against the scaled basis e^{-2 pi i k (z - omega)}
    residual: float  # max collocation defect
    min_phi_prime: float  # min |Phi'| over both boundary circles
    cond: float  # upper bound on the 2-norm condition number, exact near COND_LIMIT
    omega: complex
    n_modes: int
    m_points: int

    @property
    def non_injective(self) -> bool:
        return self.min_phi_prime <= 1e-12

    def phi(self, z):
        z = np.asarray(z, dtype=complex)
        out = z.astype(complex).copy()
        for k, a in enumerate(self.coeff_up, start=1):
            out += a * np.exp(2j * math.pi * k * z)
        for k, b in enumerate(self.coeff_down, start=1):
            out += b * np.exp(-2j * math.pi * k * (z - self.omega))
        return out if out.shape else out[()]

    def phi_prime(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=complex)
        for k, a in enumerate(self.coeff_up, start=1):
            out += 2j * math.pi * k * a * np.exp(2j * math.pi * k * z)
        for k, b in enumerate(self.coeff_down, start=1):
            out -= 2j * math.pi * k * b * np.exp(-2j * math.pi * k * (z - self.omega))
        return out if out.shape else out[()]


def _cis(out, theta) -> None:
    """Write e^{i theta} into the complex array view out, from real angles."""
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)


def _cis_powers(t, N: int, out=None):
    """e^{2 pi i k t_j} for k = 1..N as an M x N array, from factored powers.

    Writing k = B a + b with 1 <= b <= B, each entry is one complex
    multiply of a fine table e^{2 pi i b t_j} and a coarse table
    e^{2 pi i B a t_j}, so cos and sin are taken on M (B + N/B) angles
    instead of M N.  The result is written into out when given.
    """
    t = np.asarray(t, dtype=float)
    B = min(N, POWER_BLOCK)
    if out is None:
        out = np.empty((t.size, N), dtype=complex)
    fine = out[:, :B]
    _cis(fine, TWO_PI * np.outer(t, np.arange(1, B + 1)))
    a = np.arange(1, -(-N // B))
    coarse = np.empty((t.size, a.size), dtype=complex)
    _cis(coarse, TWO_PI * np.outer(t, B * a))
    for i, lo in enumerate(B * a):
        w = min(B, N - lo)
        np.multiply(fine[:, :w], coarse[:, i : i + 1], out=out[:, lo : lo + w])
    return out


def _condition_bound(R) -> float:
    """Upper bound on the 2-norm condition number of the triangular factor R.

    kappa_F = ||R||_F ||R^-1||_F >= kappa_2 costs one triangular inverse;
    only when it exceeds COND_LIMIT are the singular values computed, so
    the value is exact whenever it came near the limit.
    """
    r_inv, info = ztrtri(R)
    if info == 0:
        kappa = float(np.linalg.norm(R) * np.linalg.norm(r_inv))
        if kappa <= COND_LIMIT:
            return kappa
    sv = svdvals(R, check_finite=False)
    return float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf


def _householder_r(Ab):
    """Triangular factor R of the Householder QR of Ab; Q is never formed.

    LAPACK zgeqrf, with the workspace zgeqrf_lwork reports as optimal,
    factors a Fortran-ordered copy, so Ab itself stays intact; only the
    upper triangle of its output is read.
    """
    lwork, _ = zgeqrf_lwork(*Ab.shape)
    qr, _, _, info = zgeqrf(Ab, lwork=int(lwork.real))
    if info != 0:
        raise ValueError(f"zgeqrf rejected argument {-info}")
    return np.triu(qr[: min(Ab.shape)])


def _solve_collocation(Ab, hint: str = ""):
    """Least squares A x = b for the augmented matrix Ab = [A | b].

    Householder QR of [A | b] gives R = [[R11, z], [0, rho]], and x solves
    R11 x = z.  Raises IllConditioned when the 2-norm condition number of
    A exceeds COND_LIMIT.  Returns (x, cond, max residual of A x - b),
    where cond is an upper bound on the 2-norm condition number, exact
    when it came near the limit.
    """
    n = Ab.shape[1] - 1
    R = _householder_r(Ab)
    R11 = R[:n, :n]
    cond = _condition_bound(R11)
    if not cond <= COND_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3g} exceeds {COND_LIMIT:g}{hint}")
    sol = solve_triangular(R11, R[:n, n], check_finite=False)
    residual = float(np.max(np.abs(Ab[:, :n] @ sol - Ab[:, n])))
    return sol, cond, residual


def _gluing_system(fx, omega: complex, N: int):
    """[E_f D - E_x, conj(E_f) - conj(E_x) D, -1 | x - F(x) - omega].

    E_f = e^{2 pi i k F(x_j)} and E_x = e^{2 pi i k x_j} are omega-free
    tables from _cis_powers; D = diag(e^{2 pi i k omega}) carries omega.
    Built in place in Fortran order, for zgeqrf, with one M x N complex
    temporary beside the matrix.
    """
    M = fx.size
    x = np.arange(M) / M
    D = np.exp(2j * math.pi * np.arange(1, N + 1) * omega)
    Ab = np.empty((M, 2 * N + 2), dtype=complex, order="F")
    up, dn = Ab[:, :N], Ab[:, N : 2 * N]
    _cis_powers(fx, N, out=up)
    np.conjugate(up, out=dn)
    up *= D
    ex = _cis_powers(x, N)
    up -= ex
    np.conjugate(ex, out=ex)
    ex *= D
    dn -= ex
    del ex
    Ab[:, 2 * N] = -1.0
    Ab[:, 2 * N + 1] = x - (fx + omega)
    return Ab


def _phi_prime_on_circles(a, b, omega: complex, L: int):
    """Phi' on the L-point grids of R/Z (row 0) and R/Z + omega (row 1).

    On each circle Phi' is a trigonometric polynomial in x with
    frequencies -N..N, so for L > 2N its grid values are one inverse FFT
    of its coefficients: (1, 2 pi i k a_k, -2 pi i k b_k D_k) on R/Z and
    (1, 2 pi i k a_k D_k, -2 pi i k b_k) on R/Z + omega.
    """
    N = len(a)
    k = np.arange(1, N + 1)
    D = np.exp(2j * math.pi * k * omega)
    da = 2j * math.pi * k * np.asarray(a)
    db = -2j * math.pi * k * np.asarray(b)
    c = np.zeros((2, L), dtype=complex)
    c[:, 0] = 1.0
    c[0, k], c[0, L - k] = da, db * D
    c[1, k], c[1, L - k] = da * D, db
    return np.fft.ifft(c, axis=1, norm="forward")


def complex_rotation_number(
    map,
    omega: complex,
    n_modes: int = 64,
    m_points: int | None = None,
    y_floor: float | None = None,
) -> ConjugacySolution:
    """Solve Phi(f(x) + omega) = Phi(x) + tau in least squares.

    y_floor guards against annuli thinner than the default basis can
    resolve; pass y_floor=0.0 to disable (the edge-adapted boundary
    ladder does, after checking the condition estimate instead).
    """
    omega = complex(omega)
    if omega.imag <= 0.0:
        raise NotInUpperHalfPlane(f"Im omega must be > 0, got {omega}")
    floor = y_min(map) if y_floor is None else y_floor
    if omega.imag < floor:
        raise IllConditioned(
            f"Im omega = {omega.imag:g} is below the resolution floor "
            f"{floor:g} (annulus thinner than the basis resolves); "
            "boundary values are reached by extrapolation, not direct solves"
        )
    N = int(n_modes)
    if N < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    M = 4 * N + 8 if m_points is None else int(m_points)
    if M < 4 * N + 4:
        raise ConfigError(f"m_points must be >= 4*n_modes + 4, got {M}")

    fx = np.asarray(np.real(map.lift(np.arange(M) / M)), dtype=float)
    sol, cond, residual = _solve_collocation(
        _gluing_system(fx, omega, N), "; reduce n_modes or increase Im omega"
    )
    tau = complex(sol[-1])
    if tau.imag <= 0.0:
        raise IllConditioned(
            f"solved tau = {tau:.6g} left the upper half-plane; "
            "the solve is not trustworthy at these parameters"
        )
    return ConjugacySolution(
        tau=UpperHalfPoint.from_complex(tau),
        tau_raw=tau,
        coeff_up=tuple(sol[:N]),
        coeff_down=tuple(sol[N : 2 * N]),
        residual=residual,
        min_phi_prime=float(
            np.min(np.abs(_phi_prime_on_circles(sol[:N], sol[N : 2 * N], omega, 4 * M)))
        ),
        cond=cond,
        omega=omega,
        n_modes=N,
        m_points=M,
    )


# -- boundary extrapolation ---------------------------------------------------


@dataclass(frozen=True)
class Rung:
    y: float
    tau: complex
    residual: float  # best over the rung's solves
    n_modes: int  # N of the best solve
    solves: int  # solves spent, escalations included
    target_met: bool  # residual <= resid_target
    cond: float  # condition bound of the best solve


@dataclass(frozen=True)
class BoundaryValue:
    """Extrapolated tau_bar(omega) with diagnostics."""

    tau: UpperHalfPoint
    tau_raw: complex
    error_estimate: float
    rungs: tuple
    method: str  # "richardson" | "fold"
    omega: float

    @property
    def rungs_missed(self) -> int:
        """Rungs whose best residual stayed above the residual target."""
        return sum(not r.target_met for r in self.rungs)

    @property
    def max_rung_residual(self) -> float:
        """Largest best-solve residual over the rungs."""
        return max(r.residual for r in self.rungs)


DEFAULT_LADDER = tuple(0.25 / 2**l for l in range(7))


def _heuristic_modes(y: float) -> int:
    return int(min(256, max(32, math.ceil(1.8 / max(y, 7e-3)))))


def _solve_rung(map, omega, y, resid_target, n_cap, y_floor, n_from=0) -> Rung:
    """Solve at omega + i y on the mode schedule of height y.

    The schedule is _heuristic_modes(y), then floor(1.6 N), and so on,
    capped at n_cap.  Escalation starts at its first member >= n_from
    (a lower rung passes the N of the rung above it, since a thinner
    annulus never needs fewer modes) and stops on the residual target,
    at the cap, or once a larger N stopped improving the residual.
    """
    N = _heuristic_modes(y)
    while N < n_from and N < n_cap:
        N = min(n_cap, int(N * 1.6))
    best, solves = None, 0
    while True:
        sol = complex_rotation_number(map, omega + 1j * y, N, y_floor=y_floor)
        solves += 1
        if best is None or sol.residual < best.residual:
            best = sol
        # stop on target, at the cap, or once escalation stopped helping
        if sol.residual <= resid_target or N >= n_cap or best.n_modes < N:
            break
        N = min(n_cap, int(N * 1.6))
    return Rung(
        y,
        best.tau_raw,
        best.residual,
        best.n_modes,
        solves,
        best.residual <= resid_target,
        best.cond,
    )


def _neville(nodes, vals, target, order):
    """Neville tableau at target; column m interpolates m + 1 consecutive nodes.

    Returns (value, estimate): the last entry of column `order` and its
    distance to the last entry of column order - 1, which drops the first
    of those nodes.  Raises ExtrapolationDiverged when a gap between
    consecutive entries of column `order` exceeds ten times the one
    before it (at order = len(nodes) - 1 there is nothing to test).
    """
    col = [complex(v) for v in vals]
    prev = col
    for m in range(1, order + 1):
        prev, col = col, [
            ((target - nodes[i + m]) * col[i] + (nodes[i] - target) * col[i + 1])
            / (nodes[i] - nodes[i + m])
            for i in range(len(col) - 1)
        ]
    gaps = [abs(b - a) for a, b in zip(col, col[1:])]
    for g0, g1 in zip(gaps, gaps[1:]):
        if g1 > 10.0 * g0 and g0 > 1e-13:
            raise ExtrapolationDiverged(
                f"extrapolation column {order} stopped contracting "
                f"(gaps {g0:.3e} -> {g1:.3e})"
            )
    return col[-1], abs(col[-1] - prev[-1])


def boundary_tau(
    map,
    omega: float,
    ladder: Sequence[float] | None = None,
    edge_distance: float | None = None,
    order: int = 3,
    resid_target: float = 3e-7,
    n_cap: int = 384,
    y_floor: float | None = None,
) -> BoundaryValue:
    """tau_bar(omega) = lim_{y->0} tau(omega + i y) by ladder extrapolation.

    edge_distance is the signed real offset from omega to the nearest
    non-hyperbolic parameter of the family (positive when the
    singularity lies to the right).  When given, rungs scaled to that
    distance are appended and the extrapolation runs in the fold
    variable u = sqrt(1 - i y / s); otherwise plain polynomial
    Richardson of the given order is used, both by _neville.  Richardson
    interpolates the last order + 1 rungs in y at 0, and its error
    estimate drops the highest of them; the fold interpolates every rung
    in u at 1, and its estimate drops the lowest rung.

    Rungs are solved in order of decreasing height, each starting its
    mode escalation at the N of the previous rung's best solve (see
    _solve_rung); the first rung starts at its heuristic N.  Nothing
    carries over between calls.
    """
    omega = float(omega)
    rungs_y = list(DEFAULT_LADDER if ladder is None else [float(y) for y in ladder])
    if not rungs_y or any(y <= 0 for y in rungs_y) or any(
        later >= earlier for later, earlier in zip(rungs_y[1:], rungs_y[:-1])
    ):
        raise ConfigError("ladder must be a decreasing sequence of positive heights")
    floor = y_min(map) if y_floor is None else y_floor
    if ladder is None:
        rungs_y = [y for y in rungs_y if y >= floor] or [floor]

    method = "richardson"
    if edge_distance is not None and edge_distance != 0.0:
        method = "fold"
        s = float(edge_distance)
        if abs(s) < 0.02:
            extra = [abs(s) * c for c in (2.0, 1.2, 0.7)]
            rungs_y += [
                y for y in extra if y < rungs_y[-1] and y >= HARD_Y_FLOOR
            ]
            floor = min(floor, HARD_Y_FLOOR)

    rungs = []
    for y in rungs_y:
        n_from = rungs[-1].n_modes if rungs else 0
        rungs.append(_solve_rung(map, omega, y, resid_target, n_cap, floor, n_from))

    # unwrap: mod-1 jumps between rungs would wreck the extrapolation
    taus = [rungs[0].tau]
    for r in rungs[1:]:
        prev = taus[-1]
        taus.append(complex(prev.real + wrap_half(r.tau.real - prev.real), r.tau.imag))

    if method == "fold":
        # lowest rung first: the estimate drops the rung nearest the edge
        nodes = [cmath.sqrt(1.0 - 1j * y / s) for y in reversed(rungs_y)]
        value, est = _neville(nodes, taus[::-1], 1.0, len(taus) - 1)
    else:
        value, est = _neville(rungs_y, taus, 0.0, min(order, len(rungs_y) - 1))

    im = value.imag
    if im < 0.0:
        # boundary values on R/Z extrapolate to im = 0 up to noise
        est = max(est, -im)
        im = 0.0
    return BoundaryValue(
        tau=UpperHalfPoint(value.real % 1.0, im),
        tau_raw=value,
        error_estimate=est,
        rungs=tuple(rungs),
        method=method,
        omega=omega,
    )


def solution_csv_row(sol: ConjugacySolution):
    """(re_omega, im_omega, re_tau, im_tau, residual, min_phi_prime, N, M)."""
    return (
        sol.omega.real,
        sol.omega.imag,
        sol.tau.re,
        sol.tau.im,
        sol.residual,
        sol.min_phi_prime,
        sol.n_modes,
        sol.m_points,
    )

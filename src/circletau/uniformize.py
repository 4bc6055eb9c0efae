"""Complex rotation numbers via spectral solution of the gluing equation.

For Im(omega) > 0 the annulus between R/Z and R/Z + omega glued by
f + omega is a torus C/(Z + tau Z); the uniformizing map is sought as

    Phi(z) = z + sum_{k=1..N} a_k e^{2 pi i k z}
               + sum_{k=1..N} b_k e^{-2 pi i k (z - omega)}

so that every basis element has sup-modulus 1 on the closed annulus, and
(a, b, tau) solve the collocation equations
Phi(f(x_j) + omega) = Phi(x_j) + tau in least squares.

The collocation matrix is A = [E_f D - E_x, conj(E_f) - conj(E_x) D, -1]
with the omega-free tables E_f = e^{2 pi i k f(x_j)}, E_x = e^{2 pi i k x_j}
and D = diag(e^{2 pi i k omega}).  Each table is built from factored
powers: with k = B a + b, an entry is the product of a fine table
e^{2 pi i b t_j} (b = 1..B) and a coarse one e^{2 pi i B a t_j}, so cos
and sin are evaluated on M (B + N/B) angles instead of M N.  A itself is
not formed: the system (_GluingSystem) keeps E_f and applies A x and
A^H r as products with E_f and one length-M FFT, since the points
x_j = j / M are equispaced and E_x is a DFT.  Only the QR fallback forms
the dense [A | b].

The least squares A x = b is first solved from a single-precision Gram
factor refined in double (Bjorck's corrected semi-normal equations, with
mixed-precision refinement after Carson and Higham): the Cholesky factor
R of A^H A is formed in complex64 (cpotrf), and from x = 0 the step
x += R^-1 R^-H A^H (b - A x) runs with the residual and x in complex128
until an update falls below 1e-15 max |x|, or until an update that fails
to halve the one before it is at most STALL_TOL = 4e-15 max |x| (the
updates have stalled at rounding level).  The `cond` of such a solve is
||R||_F ||R^-1||_F of the single-precision factor (_kappa_f).  The
complex128 Householder QR of [A | b] (numpy's qr, only R read) solves
instead whenever the Gram factor fails, its cond exceeds FAST_COND_LIMIT
= 1e4, an update above STALL_TOL max |x| fails to halve the one before
it, or REFINE_STEPS = 12 steps do not converge.  Its `cond` is
||R||_F ||R^-1||_F, replaced by the exact ratio of singular values of R
only when that bound exceeds COND_LIMIT, so the IllConditioned gate acts
on the 2-norm condition number.  A direction that A nearly annihilates
leaves the single-precision Gram matrix indefinite or its factor with a
cond above FAST_COND_LIMIT, so such a system reaches the gate (in every
synthetic kappa_2 = 1e13 case tried, also when b has no part along that
direction).  Both paths are BLAS work whose bits depend on the OpenBLAS
thread count: over 11 solves of the Arnold and two-hump maps at
N = 64..384, tau moved by at most 1.4 ulp between 1 and 2 threads (5 ulp
on the QR path), and min |Phi'| by at most 4e-12 relative on either path.
The products are numpy's, and the four LAPACK routines numpy has no
function for (cpotrf, ctrtri, ztrtri and ztrtrs) are bound from the
OpenBLAS in numpy's own wheel (circletau._lapack), so nothing imports scipy.

A^H A is not formed from A either.  Every entry of A^H A is a D-weighted
combination of the omega-free moments S(m) = sum_j e^{2 pi i m F(x_j)}
(|m| <= 2N) and P(l, +-k) = sum_j e^{2 pi i l F(x_j)} e^{-+2 pi i k j / M},
the DFT over j of the columns of E_f, assembled in O(N^2) (_moments,
_moment_gram).
Only D changes between the solves of one map at one N, so the moments
(2 N^2 complex64 values) are kept by (N, F(x_j)) and shared by every
solve of one boundary_tau call, or of one batch of boundary values
(``experiments._boundary_batch``, in process or in one pool worker).
Nothing is kept after the call returns, and a moment found in the store
is the one a fresh computation gives, bit for bit, so no result depends
on which solve computed it, on the job order or on the worker count.
The welding system of the welding module is this system at
omega = +i inf (D = 0), so it takes the same path.

Injectivity is checked by min |Phi'| over 4M points of both boundary
circles, each circle's values being one inverse FFT of the coefficients
of Phi'.

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
import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import cpotrf, trtri, ztrtrs
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
FAST_COND_LIMIT = 1e4  # largest single-precision cond the refinement is tried at
REFINE_STEPS = 12  # most refinement steps before the QR path takes over
STALL_TOL = 4e-15  # relative size of an update below which a stall is convergence
FFT_BLOCK = 64  # columns of E_f per FFT in _moments
RICHARDSON_ORDER = 3  # polynomial degree in y of the Richardson extrapolant

# gluing moments by (N, F(x_j) bytes) while a _shared_moments block is
# open; None outside one
_MOMENTS = contextvars.ContextVar("gluing_moments", default=None)


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

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def from_complex(z: complex) -> "UpperHalfPoint":
        return UpperHalfPoint(z.real % 1.0, z.imag)


def hyperbolic_distance(z, w) -> float:
    """Poincare distance in the upper half-plane.

    arccosh(1 + |z-w|^2 / (2 Im z Im w)).
    """
    z = complex(z)
    w = complex(w)
    if z.imag <= 0.0 or w.imag <= 0.0:
        raise NotInUpperHalfPlane(f"points must have Im > 0, got {z}, {w}")
    return math.acosh(1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag))


def hyperbolic_distance_mod1(z, w) -> float:
    """d_H between classes in H/Z: lift z to the translate nearest w."""
    z = complex(z)
    w = complex(w)
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
    cond: float  # ||R||_F ||R^-1||_F of the factor that solved; see _solve_collocation
    omega: complex
    n_modes: int
    m_points: int
    refine_steps: int  # double-precision refinement steps; 0 when the QR path solved

    @property
    def non_injective(self) -> bool:
        return self.min_phi_prime <= 1e-12

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
    instead of M N.  The fine table is the first B columns of the
    result, which is written into out when given.
    """
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty((t.size, N), dtype=complex)
    B = min(N, POWER_BLOCK)
    fine = out[:, :B]
    _cis(fine, TWO_PI * np.outer(t, np.arange(1, B + 1)))
    a = np.arange(1, -(-N // B))
    coarse = np.empty((t.size, a.size), dtype=complex)
    _cis(coarse, TWO_PI * np.outer(t, B * a))
    for i, lo in enumerate(B * a):
        w = min(B, N - lo)
        np.multiply(fine[:, :w], coarse[:, i : i + 1], out=out[:, lo : lo + w])
    return out


def _kappa_f(R) -> float:
    """kappa_F = ||R||_F ||R^-1||_F >= kappa_2 of the upper triangular R.

    One triangular inverse, ctrtri for a complex64 R and ztrtri for a
    complex128 one; inf when R is singular.
    """
    r_inv, info = trtri(R)
    if info != 0:
        return math.inf
    return float(np.linalg.norm(R)) * float(np.linalg.norm(r_inv))


def _qr_solve(Ab, hint: str = ""):
    """Least squares A x = b by Householder QR of [A | b], all in complex128.

    QR gives R = [[R11, z], [0, rho]], and x solves R11 x = z.  The cond
    is _kappa_f(R11); only when that exceeds COND_LIMIT are the singular
    values of R11 computed, so cond is exact whenever it came near the
    limit.  Raises IllConditioned when it exceeds COND_LIMIT.  Returns
    (x, cond).
    """
    n = Ab.shape[1] - 1
    R = np.linalg.qr(Ab, mode="r")
    R11 = R[:n, :n]
    cond = _kappa_f(R11)
    if not cond <= COND_LIMIT:
        sv = np.linalg.svd(R11, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if not cond <= COND_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3g} exceeds {COND_LIMIT:g}{hint}")
    # R11 is a row-major block: solve with its transpose as a lower
    # triangle (trans=1), which ztrtrs copies to Fortran order
    x, _ = ztrtrs(R11.T, R[:n, n], lower=1, trans=1)
    return x, cond


def _gram_refine(system):
    """Least squares A x = b from a complex64 Gram factor, refined in complex128.

    The Cholesky factor R of A^H A is formed in single precision (cpotrf
    of system.gram, the complex64 A^H A, in place) and promoted to
    complex128 once; from x = 0 the corrected semi-normal step
    x += R^-1 R^-H A^H (b - A x) runs in complex128, with A and A^H
    applied by system.matvec and system.rmatvec.  The refinement has
    converged once an update is at most 1e-15 max |x|, or once an update
    that fails to halve the one before it is at most STALL_TOL max |x|:
    there the updates stall at rounding level.  Returns (x, cond, steps),
    cond being ||R||_F ||R^-1||_F of the single-precision factor, or None
    on any of the fallback rules of _solve_collocation.
    """
    R32, info = cpotrf(system.gram)
    if info != 0:
        return None
    cond = _kappa_f(R32)
    if not cond <= FAST_COND_LIMIT:
        return None
    R = R32.astype(complex)
    b = system.rhs
    x, r = np.zeros(R.shape[0], dtype=complex), b
    last = math.inf
    for steps in range(1, REFINE_STEPS + 1):
        w, _ = ztrtrs(R, system.rmatvec(r), trans=2)
        dx, _ = ztrtrs(R, w)
        x += dx
        size = float(np.max(np.abs(dx)))
        top = float(np.max(np.abs(x)))
        if size <= 1e-15 * top:
            return x, cond, steps
        if not size <= 0.5 * last:
            return (x, cond, steps) if size <= STALL_TOL * top else None
        last = size
        r = b - system.matvec(x)
    return None


def _solve_collocation(system, hint: str = ""):
    """Least squares A x = b for a gluing system (_GluingSystem).

    The single-precision Gram factor refined in double (_gram_refine) is
    tried first, factoring system.gram, the complex64 A^H A, and applying
    A only through system.matvec and system.rmatvec.  When the factor
    fails, its cond exceeds FAST_COND_LIMIT, an update above STALL_TOL
    max |x| fails to halve the one before it, or the updates do not fall
    below 1e-15 max |x| within REFINE_STEPS steps, the complex128
    Householder QR (_qr_solve) of system.dense() solves instead; only
    that path raises IllConditioned, when the 2-norm condition number of
    A exceeds COND_LIMIT.
    Returns (x, cond, residual, refine_steps): cond is the Frobenius
    bound ||R||_F ||R^-1||_F of the factor that solved (single precision
    on the fast path, exact near COND_LIMIT on the QR path), residual
    the max of |A x - b| in complex128, and refine_steps is 0 when the
    QR path solved.
    """
    fast = _gram_refine(system)
    sol, cond, steps = fast if fast is not None else (*_qr_solve(system.dense(), hint), 0)
    residual = float(np.max(np.abs(system.matvec(sol) - system.rhs)))
    return sol, cond, residual, steps


@contextlib.contextmanager
def _shared_moments():
    """Share the gluing moments among every solve made inside the block.

    The store lives until the block exits; inside an enclosing block the
    enclosing store is used.  A moment is a function of (N, F(x_j)) only,
    so a solve that finds its moments here gets the same bits as one that
    computes them.
    """
    if _MOMENTS.get() is not None:
        yield
        return
    token = _MOMENTS.set({})
    try:
        yield
    finally:
        _MOMENTS.reset(token)


def _moments(ef):
    """The omega-free moments of E_f = ef (M x N), in complex64.

    S(m) = sum_j e^{2 pi i m F(x_j)} for m = 0..2N, and P(l, k) =
    sum_j e^{2 pi i l F(x_j)} e^{-2 pi i k j / M} as pp[l, k] = P(l, k)
    and pm[l, k] = P(l, -k) for k, l = 1..N.  P(l, k) and P(l, -k) are
    rows k and M - k of the DFT over j of column l, taken FFT_BLOCK
    columns at a time; S(l) = P(l, 0), and S(N + l) = sum_j E_f[j, N]
    E_f[j, l] is one matrix-vector product.  Returns (S, pp, pm).
    """
    M, N = ef.shape
    S = np.empty(2 * N + 1, dtype=np.complex64)
    pp = np.empty((N, N), dtype=np.complex64)
    pm = np.empty((N, N), dtype=np.complex64)
    S[0] = M
    for lo in range(0, N, FFT_BLOCK):
        hi = min(N, lo + FFT_BLOCK)
        dft = np.fft.fft(ef[:, lo:hi], axis=0)
        S[1 + lo : 1 + hi] = dft[0]
        pp[lo:hi] = dft[1 : N + 1].T
        pm[lo:hi] = dft[M - 1 : M - N - 1 : -1].T
    S[N + 1 :] = ef.T @ ef[:, N - 1]
    return S, pp, pm


def _gluing_moments(fx, ef):
    """_moments(ef) for E_f = ef built from fx, from the shared store when
    a _shared_moments block is open."""
    store = _MOMENTS.get()
    if store is None:
        return _moments(ef)
    key = (ef.shape[1], fx.tobytes())
    if key not in store:
        store[key] = _moments(ef)
    return store[key]


def _moment_gram(moments, D, M: int):
    """A^H A of the gluing matrix A = Ab[:, :-1], in complex64, in O(N^2).

    Since x_j = j / M, E_x^H E_x = M I and E_x^T E_x = 0, so with
    T[k, l] = S(l - k) (Toeplitz), H[k, l] = S(k + l) (Hankel) and
    Dc = conj(D), for 1 <= k, l <= N:
      UU = Dc_k D_l T - Dc_k conj P(k, l) - D_l P(l, k) + M delta_kl
      UV = Dc_k conj H - Dc_k D_l conj P(k, -l) - conj P(l, -k)
      VV = conj T - D_l P(k, l) - Dc_k conj P(l, k) + M |D_k|^2 delta_kl
    and the tau column is (-Dc_k conj S(k), -S(k), M).
    """
    S, pp, pm = moments
    N = D.size
    d = D.astype(np.complex64)
    dc = d.conj()
    # row k of T is S(-k .. N - 1 - k), a window of conj S(N - 1..1), S(0..N - 1)
    T = sliding_window_view(np.concatenate([S[N - 1 : 0 : -1].conj(), S[:N]]), N)[::-1]
    H = sliding_window_view(S[2:], N)
    G = np.empty((2 * N + 1, 2 * N + 1), dtype=np.complex64, order="F")
    UU, UV, VV = G[:N, :N], G[:N, N : 2 * N], G[N : 2 * N, N : 2 * N]
    X = dc[:, None] * pp.conj()
    np.multiply(T, np.outer(dc, d), out=UU)
    UU -= X
    UU -= X.conj().T
    Z = pp * d
    np.conjugate(T, out=VV)
    VV -= Z
    VV -= Z.conj().T
    diag = np.arange(N)
    UU[diag, diag] += M
    VV[diag, diag] += M * (d * dc).real
    np.multiply(d, pm.conj(), out=UV)
    np.subtract(H.conj(), UV, out=UV)
    UV *= dc[:, None]
    UV -= pm.T.conj()
    G[N : 2 * N, :N] = UV.conj().T
    G[:N, 2 * N] = -dc * S[1 : N + 1].conj()
    G[N : 2 * N, 2 * N] = -S[1 : N + 1]
    G[2 * N, :] = G[:, 2 * N].conj()
    G[2 * N, 2 * N] = M
    return G


def _collocation_points(map, n_modes, m_points):
    """(N, M, F(x_j)) at x_j = j / M, M defaulting to 4 N + 8.

    Raises ConfigError unless N >= 1 and M >= 4 N + 4.
    """
    N = int(n_modes)
    if N < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    M = 4 * N + 8 if m_points is None else int(m_points)
    if M < 4 * N + 4:
        raise ConfigError(f"m_points must be >= 4*n_modes + 4, got {M}")
    return N, M, map.lift(np.arange(M) / M)


class _GluingSystem:
    """The gluing matrix A = [E_f D - E_x, conj(E_f) - conj(E_x) D, -1] and b.

    Holds the omega-free table E_f = e^{2 pi i k F(x_j)} (M x N, Fortran
    order), D, the right side b = x - F(x) - shift and gram, the complex64
    A^H A (which the fast solve factors in place).  E_x = e^{2 pi i k x_j}
    at x_j = j / M is applied by one length-M FFT: E_x a = fft(v) with
    v[M - k] = a_k, conj(E_x) c = fft(v) with v[k] = c_k, and for
    F = fft(r), E_x^H r = F[k] and E_x^T r = F[M - k].  So A x costs one
    numpy product of two stacked vectors with E_f^T and one FFT, A^H r
    two vector-matrix products with E_f (conj(r) E_f and r E_f, never a
    copy of E_f^H) and one FFT, and A itself is formed only by dense().
    """

    def __init__(self, ef, D, rhs, gram):
        self.ef, self.D, self.rhs, self.gram = ef, D, rhs, gram

    def matvec(self, x):
        """A x = E_f (D a) + conj(E_f conj b) - [E_x a + conj(E_x) D b] - tau."""
        M, N = self.ef.shape
        a, b = x[:N], x[N : 2 * N]
        v = np.zeros(M, dtype=complex)
        v[M - N :] = a[::-1]
        v[1 : N + 1] = self.D * b
        up, dn = np.stack([self.D * a, b.conj()]) @ self.ef.T
        out = up + dn.conj()
        out -= np.fft.fft(v)
        out -= x[2 * N]
        return out

    def rmatvec(self, r):
        """A^H r = (conj(D) E_f^H r - F[k], E_f^T r - conj(D) F[M - k], -sum r)."""
        M, N = self.ef.shape
        F = np.fft.fft(r)
        dc = self.D.conj()
        out = np.empty(2 * N + 1, dtype=complex)
        out[:N] = dc * (r.conj() @ self.ef).conj() - F[1 : N + 1]
        out[N : 2 * N] = r @ self.ef - dc * F[M - 1 : M - N - 1 : -1]
        out[2 * N] = -r.sum()
        return out

    def dense(self):
        """[A | b] as an M x (2N + 2) complex128 array in Fortran order.

        Only the QR fallback and the test oracles form it, with one M x N
        table of E_x (_cis_powers).
        """
        M, N = self.ef.shape
        ex = _cis_powers(np.arange(M) / M, N)
        Ab = np.empty((M, 2 * N + 2), dtype=complex, order="F")
        up, dn = Ab[:, :N], Ab[:, N : 2 * N]
        np.multiply(self.ef, self.D, out=up)
        up -= ex
        np.conjugate(self.ef, out=dn)
        dn -= np.conjugate(ex) * self.D
        Ab[:, 2 * N] = -1.0
        Ab[:, 2 * N + 1] = self.rhs
        return Ab


def _gluing_system(fx, D, shift: complex):
    """The gluing system A x = b at D as a _GluingSystem.

    A = [E_f D - E_x, conj(E_f) - conj(E_x) D, -1] and b = x - F(x) - shift,
    with the omega-free tables E_f = e^{2 pi i k F(x_j)} and E_x =
    e^{2 pi i k x_j}, k = 1..N with N = D.size.  The gluing system at
    omega has D = diag(e^{2 pi i k omega}) and shift = omega; the welding
    system is its limit omega -> +i inf, D = 0.  E_f is built in Fortran
    order, for the BLAS calls of the solve, and the Gram matrix is
    assembled from its moments (_gluing_moments, _moment_gram).
    """
    M, N = fx.size, D.size
    ef = _cis_powers(fx, N, out=np.empty((M, N), dtype=complex, order="F"))
    gram = _moment_gram(_gluing_moments(fx, ef), D, M)
    return _GluingSystem(ef, D, np.arange(M) / M - (fx + shift), gram)


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
    resolve; it defaults to y_min(map).  boundary_tau passes its own
    floor: y_min(map), or min(y_min(map), HARD_Y_FLOOR) on a ladder
    within 0.02 of an edge.  y_floor=0.0 disables the guard.  A
    non-finite omega raises ConfigError.
    """
    omega = complex(omega)
    if not cmath.isfinite(omega):
        raise ConfigError(f"omega must be finite, got {omega}")
    if omega.imag <= 0.0:
        raise NotInUpperHalfPlane(f"Im omega must be > 0, got {omega}")
    floor = y_min(map) if y_floor is None else y_floor
    if omega.imag < floor:
        raise IllConditioned(
            f"Im omega = {omega.imag:g} is below the resolution floor "
            f"{floor:g} (annulus thinner than the basis resolves); "
            "boundary values are reached by extrapolation, not direct solves"
        )
    N, M, fx = _collocation_points(map, n_modes, m_points)
    D = np.exp(2j * math.pi * np.arange(1, N + 1) * omega)
    sol, cond, residual, steps = _solve_collocation(
        _gluing_system(fx, D, omega), "; reduce n_modes or increase Im omega"
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
        refine_steps=steps,
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
    refine_steps: int  # refinement steps of the best solve; 0 when the QR path solved


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
        best.refine_steps,
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
    resid_target: float = 3e-7,
    n_cap: int = 384,
) -> BoundaryValue:
    """tau_bar(omega) = lim_{y->0} tau(omega + i y) by ladder extrapolation.

    edge_distance is the signed real offset from omega to the nearest
    non-hyperbolic parameter of the family (positive when the
    singularity lies to the right).  When given, rungs scaled to that
    distance are appended and the extrapolation runs in the fold
    variable u = sqrt(1 - i y / s); otherwise plain polynomial
    Richardson of order RICHARDSON_ORDER is used, both by _neville.
    Richardson interpolates the last RICHARDSON_ORDER + 1 rungs in y at 0,
    and its error estimate drops the highest of them; the fold
    interpolates every rung in u at 1, and its estimate drops the lowest
    rung.  Every solve has the floor y_min(map), and the default ladder
    keeps only rungs at or above it; near an edge (|s| < 0.02) the floor
    drops to HARD_Y_FLOOR.  At least two rungs, fold rungs included,
    must enter the extrapolation, or ConfigError is raised.  So it is
    when a height is not finite and positive, when edge_distance is
    given but not finite and nonzero, and (at the first solve, in
    complex_rotation_number) when omega is not finite.

    Rungs are solved in order of decreasing height, each starting its
    mode escalation at the N of the previous rung's best solve (see
    _solve_rung); the first rung starts at its heuristic N.  The solves
    share the map's gluing moments (see the module docstring), or the
    store of an enclosing batch (``experiments._boundary_batch``).
    Nothing carries over between calls.
    """
    omega = float(omega)
    rungs_y = list(DEFAULT_LADDER if ladder is None else [float(y) for y in ladder])
    if not rungs_y or not all(0.0 < y < math.inf for y in rungs_y) or any(
        later >= earlier for later, earlier in zip(rungs_y[1:], rungs_y[:-1])
    ):
        raise ConfigError("ladder must be a decreasing sequence of positive finite heights")
    floor = y_min(map)
    if ladder is None:
        rungs_y = [y for y in rungs_y if y >= floor]

    method = "richardson"
    if edge_distance is not None:
        method = "fold"
        s = float(edge_distance)
        if not (math.isfinite(s) and s != 0.0):
            raise ConfigError(f"edge_distance must be finite and nonzero, got {s}")
        if abs(s) < 0.02:
            extra = [abs(s) * c for c in (2.0, 1.2, 0.7)]
            rungs_y += [
                y for y in extra if y < rungs_y[-1] and y >= HARD_Y_FLOOR
            ]
            floor = min(floor, HARD_Y_FLOOR)
    if len(rungs_y) < 2:
        raise ConfigError(f"extrapolation needs at least two rungs, got {rungs_y}")

    rungs = []
    with _shared_moments():
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
        value, est = _neville(rungs_y, taus, 0.0, min(RICHARDSON_ORDER, len(rungs_y) - 1))

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

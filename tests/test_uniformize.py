import bisect
import cmath
import contextlib
import ctypes
import ctypes.util
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack, svdvals
from scipy.linalg.blas import cherk, zgemm, zgemv

from circletau import _lapack, uniformize, welding
from circletau.errors import (
    ConfigError,
    ExtrapolationDiverged,
    IllConditioned,
    NotInUpperHalfPlane,
)
from circletau.maps import CircleMap
from circletau.uniformize import (
    COND_LIMIT,
    FAST_COND_LIMIT,
    UpperHalfPoint,
    _cis_powers,
    _collocation_points,
    _gluing_system,
    _gram_factor,
    _kappa_f,
    _neville,
    _phi_prime_on_circles,
    _qr_solve,
    _solve_collocation,
    _solve_rung,
    boundary_tau,
    complex_rotation_number,
    hyperbolic_distance,
    hyperbolic_distance_mod1,
    wrap_half,
    y_min,
)
from circletau.welding import welding_constant
from conftest import HUMP_EDGE_SAMPLE

B = 1.0 / (4.0 * math.pi)

KERNEL_CASES = [("arnold", 0.1 + 0.05j, 64), ("two_humped", HUMP_EDGE_SAMPLE + 8e-4j, 384)]
# omega of the systems checked against their dense form, per map
SYSTEM_OMEGA = {"arnold": 0.1 + 0.05j, "two_humped": HUMP_EDGE_SAMPLE + 8e-4j}
# the kernel cases and two more fold-rung heights of the edge sample
ORACLE_CASES = KERNEL_CASES + [
    ("two_humped", HUMP_EDGE_SAMPLE + 1j * y, 384) for y in (3e-3, 2e-2)
]
# every synthetic system below, as (singular values, seeds, b_rank)
SYNTHETIC_CASES = {
    "kappa-1e13": (np.logspace(0.0, -13.0, 40), range(4), None),
    "kappa-1e11-30-small": (np.r_[np.ones(10), np.full(30, 1e-11)], (0, 1), None),
    "ones": (np.ones(40), (1,), None),
    "kappa-10": (np.linspace(1.0, 0.1, 40), (0, 1, 3), None),
    "kappa-1e8": (np.logspace(0.0, -8.0, 40), (1,), None),
    "cpotrf-fails": (np.logspace(0.0, -5.0, 40), (0,), None),
    "cond-above-limit": (np.logspace(0.0, -4.0, 40), (0,), None),
    "no-convergence-in-12": (np.logspace(0.0, -3.5, 40), (0,), None),
    "stalls-at-1e-13": (np.logspace(0.0, -3.0, 40), (0,), None),
    "kappa-100": (np.linspace(1.0, 0.01, 40), range(6), None),
    "b-misses-1e-13": (np.r_[np.ones(39), 1e-13], range(4), 39),
}


@contextlib.contextmanager
def counting_dense():
    """Record the N of every dense [A | b] a gluing system forms inside the block."""
    calls = []
    dense = uniformize._GluingSystem.dense

    def counted(system):
        calls.append(system.ef.shape[1])
        return dense(system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uniformize._GluingSystem, "dense", counted)
        yield calls


@contextlib.contextmanager
def counting_routine(name):
    """Record the order n of every call of the LAPACK routine name that
    circletau._lapack makes inside the block (ztrtri: every triangular
    inverse; ztrtrs: every complex128 triangular solve)."""
    calls = []
    routine = _lapack._ROUTINES[name]
    # n is the first integer argument of every bound routine, after the layout
    n_at = 1 + _lapack._SIGNATURES[name].index(_lapack._INT)

    def counted(*args):
        calls.append(args[n_at])
        return routine(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(_lapack._ROUTINES, name, counted)
        yield calls


@pytest.fixture(scope="module")
def hump_edge_fold_run(two_humped):
    """Default fold ladder of the edge sample, and the dense matrices,
    triangular inverses and complex128 triangular solves it formed."""
    with (counting_dense() as calls, counting_routine("ztrtri") as inverses,
          counting_routine("ztrtrs") as solves):
        bv = boundary_tau(two_humped, HUMP_EDGE_SAMPLE, edge_distance=-1.1e-3)
    return bv, calls, inverses, solves


@pytest.fixture(scope="module")
def hump_edge_fold(hump_edge_fold_run):
    """Default fold ladder of the edge sample."""
    return hump_edge_fold_run[0]


def lstsq_gluing_oracle(map, omega, N):
    """The earlier SVD path: exp outer products and np.linalg.lstsq."""
    M = 4 * N + 8
    x = np.arange(M) / M
    fx = np.asarray(np.real(map.lift(x)), dtype=float) + omega
    k = np.arange(1, N + 1)
    col_up = np.exp(2j * math.pi * np.outer(fx, k)) - np.exp(2j * math.pi * np.outer(x, k))
    col_dn = np.exp(-2j * math.pi * np.outer(fx - omega, k)) - np.exp(
        -2j * math.pi * np.outer(x[:, None] - omega, k[None, :])
    )
    A = np.hstack([col_up, col_dn, -np.ones((M, 1), dtype=complex)])
    return np.linalg.lstsq(A, -(fx - x), rcond=None)[0]


def synthetic_system(singular_values, m=160, seed=0, b_rank=None):
    """[A | b] with A = U diag(s) V^H for random unitary U (m x n) and V.

    b is random, or confined to the span of the first b_rank columns of U.
    """
    rng = np.random.default_rng(seed)
    s = np.asarray(singular_values, dtype=float)
    n = s.size

    def unitary(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]

    U = unitary(m, n)
    A = U * s @ unitary(n, n).conj().T
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if b_rank is not None:
        b = U[:, :b_rank] @ b[:b_rank]
    return np.column_stack([A, b])


class DenseSystem:
    """A dense [A | b] behind the interface of uniformize._GluingSystem.

    The complex64 Gram matrix is formed by cherk from A, and A and A^H
    are applied as dense products.
    """

    def __init__(self, Ab):
        self.Ab, self.rhs = Ab, Ab[:, -1]
        self.gram = cherk(1.0, np.asfortranarray(Ab[:, :-1], dtype=np.complex64), trans=2)

    def matvec(self, x):
        return self.Ab[:, :-1] @ x

    def rmatvec(self, r):
        return zgemv(1.0, self.Ab[:, :-1], r, trans=2)

    def dense(self):
        return self.Ab


def cherk_solve(Ab):
    """_solve_collocation of the synthetic system [A | b] (see DenseSystem)."""
    return _solve_collocation(DenseSystem(Ab))


def qr_oracle(system):
    """(x, cond, residual) of the complex128 Householder QR path."""
    Ab = system.dense()
    x, cond = _qr_solve(Ab)
    return x, cond, float(np.max(np.abs(Ab[:, :-1] @ x - Ab[:, -1])))


def collocation_system(map, omega, N):
    """The gluing system at omega with the default M."""
    _, _, fx = _collocation_points(map, N, None)
    return _gluing_system(fx, np.exp(2j * math.pi * np.arange(1, N + 1) * omega), omega)


def loop_phi(sol, z):
    """Phi(z) of a solve, summed mode by mode."""
    z = np.asarray(z, dtype=complex)
    out = z.copy()
    for k, a in enumerate(sol.coeff_up, start=1):
        out += a * np.exp(2j * math.pi * k * z)
    for k, b in enumerate(sol.coeff_down, start=1):
        out += b * np.exp(-2j * math.pi * k * (z - sol.omega))
    return out


class TestUpperHalfPoint:
    def test_normalization(self):
        p = UpperHalfPoint(1.75, 0.5)
        assert p.re == pytest.approx(0.75)
        assert complex(p) == pytest.approx(0.75 + 0.5j)

    def test_negative_im_rejected(self):
        with pytest.raises(ConfigError):
            UpperHalfPoint(0.1, -0.2)


class TestHyperbolicDistance:
    def test_identical(self):
        assert hyperbolic_distance(1j, 1j) == 0.0

    def test_vertical_geodesic(self):
        assert hyperbolic_distance(1j, 2j) == pytest.approx(math.log(2), abs=1e-14)

    def test_formula(self):
        assert hyperbolic_distance(1j, 1 + 1j) == pytest.approx(
            math.acosh(1.5), abs=1e-14
        )

    def test_not_upper(self):
        with pytest.raises(NotInUpperHalfPlane):
            hyperbolic_distance(1j, 1.0)

    def test_mod1(self):
        # 0.9 + i is one unit translate away from -0.1 + i
        d = hyperbolic_distance_mod1(0.9 + 1j, -0.1 + 1j)
        assert d == pytest.approx(0.0, abs=1e-14)


class TestSolver:
    def test_rotation_exact(self):
        sol = complex_rotation_number(CircleMap(0.3), 0.1 + 0.2j, n_modes=8)
        assert abs(sol.tau_raw - (0.4 + 0.2j)) < 1e-12
        assert sol.residual < 1e-12
        assert max(abs(c) for c in sol.coeff_up + sol.coeff_down) < 1e-12
        assert not sol.non_injective
        assert sol.min_phi_prime == pytest.approx(1.0, abs=1e-10)

    def test_im_omega_positive_required(self, arnold):
        with pytest.raises(NotInUpperHalfPlane):
            complex_rotation_number(arnold, 0.3)

    def test_resolution_floor_guard(self):
        rot = CircleMap(0.3)
        assert y_min(rot) == pytest.approx(0.08)
        with pytest.raises(IllConditioned):
            complex_rotation_number(rot, 0.05j)

    @pytest.mark.parametrize("omega", [complex(0.1, math.nan), complex(math.nan, 0.2),
                                       complex(math.inf, 0.2), complex(0.1, math.inf)])
    def test_non_finite_omega_is_rejected(self, omega):
        with pytest.raises(ConfigError, match="omega must be finite"):
            complex_rotation_number(CircleMap(0.3), omega, n_modes=8)

    def test_collocation_count_validation(self, arnold):
        with pytest.raises(ConfigError):
            complex_rotation_number(arnold, 0.5j, n_modes=16, m_points=60)

    def test_default_m_is_the_smallest_7_smooth_count(self, rotation):
        smooth = [1]
        for p in (2, 3, 5, 7):
            smooth = [c * p**e for c in smooth for e in range(12) if c * p**e <= 4 * 512 + 64]
        smooth.sort()
        for N in range(1, 513):
            M = smooth[bisect.bisect_left(smooth, 4 * N + 8)]
            assert _collocation_points(rotation, N, None)[1] == M
        assert [_collocation_points(rotation, N, None)[1] for N in (48, 231, 384)] == [200, 945, 1568]
        # an explicit count is used as given, smooth or not
        for N, m_points in ((16, 68), (16, 69), (16, 71), (16, 72), (16, 97), (384, 1544)):
            assert _collocation_points(rotation, N, m_points)[1] == m_points

    @pytest.mark.parametrize("N", [0, -2, -100])
    def test_non_positive_n_modes_are_rejected(self, rotation, N):
        # checked before the default M is sought, which from 4 N + 8 = 0 would never end
        with pytest.raises(ConfigError, match="n_modes must be >= 1"):
            _collocation_points(rotation, N, None)

    @pytest.mark.parametrize("map_name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("N", [64, 384])
    def test_default_m_matches_4n_plus_8(self, request, map_name, N):
        m, omega = request.getfixturevalue(map_name), SYSTEM_OMEGA[map_name]
        smooth = complex_rotation_number(m, omega, N, y_floor=0.0)
        plain = complex_rotation_number(m, omega, N, 4 * N + 8, y_floor=0.0)
        assert smooth.m_points != plain.m_points
        assert abs(smooth.tau_raw - plain.tau_raw) < 1e-12

    @pytest.mark.parametrize("counts", [
        {"n_modes": 3.7}, {"n_modes": 16, "m_points": 72.9}, {"n_modes": math.nan},
        {"n_modes": math.inf}, {"n_modes": "16"}, {"n_modes": 16, "m_points": math.nan},
    ], ids=["float-n", "float-m", "nan-n", "inf-n", "string-n", "nan-m"])
    def test_non_integer_counts_are_rejected(self, arnold, counts):
        # int() truncated 3.7 to N = 3 and 72.9 to M = 72, and raised
        # ValueError or OverflowError on NaN and inf
        with pytest.raises(ConfigError, match="must be integers"):
            complex_rotation_number(arnold, 0.1 + 0.05j, **counts)
        with pytest.raises(ConfigError, match="must be integers"):
            welding_constant(arnold, **counts)

    def test_numpy_integer_counts_are_accepted(self, arnold):
        sol = complex_rotation_number(arnold, 0.1 + 0.05j, np.int64(16), np.int32(72))
        assert (sol.n_modes, sol.m_points) == (16, 72)
        assert sol.tau_raw == complex_rotation_number(arnold, 0.1 + 0.05j, 16, 72).tau_raw

    def test_holomorphy_cauchy_riemann(self, arnold):
        # d tau / d conj(omega) vanishes for a holomorphic function
        w0, h = 0.1 + 0.3j, 1e-3
        t = {}
        for dw in (h, -h, 1j * h, -1j * h):
            t[dw] = complex_rotation_number(arnold, w0 + dw, 32).tau_raw
        d_x = (t[h] - t[-h]) / (2 * h)
        d_y = (t[1j * h] - t[-1j * h]) / (2 * h)
        dbar = 0.5 * (d_x + 1j * d_y)
        assert abs(dbar) < 1e-5

    def test_translation_covariance(self, arnold):
        a = complex_rotation_number(arnold, 0.2 + 0.4j, 32)
        b = complex_rotation_number(arnold, 1.2 + 0.4j, 32)
        assert abs(wrap_half(a.tau.re - b.tau.re)) < 1e-10
        assert abs(a.tau.im - b.tau.im) < 1e-10
        # shifting the lift by an integer changes tau by that integer mod 1
        lifted = CircleMap(1.0, (), (B,))
        c = complex_rotation_number(lifted, 0.2 + 0.4j, 32)
        assert abs(wrap_half(c.tau.re - a.tau.re)) < 1e-10

    def test_mesh_convergence(self, arnold):
        s1 = complex_rotation_number(arnold, 0.05 + 0.1j, 32)
        s2 = complex_rotation_number(arnold, 0.05 + 0.1j, 64)
        assert abs(s2.tau_raw - s1.tau_raw) <= 10.0 * max(s1.residual, 1e-14)

    def test_pure_imaginary_omega_symmetric(self, arnold):
        # odd map: tau(i y) stays on the imaginary axis mod 1
        for y in (0.2, 0.1, 0.05):
            sol = complex_rotation_number(arnold, 1j * y, 64)
            assert abs(wrap_half(sol.tau.re)) < 1e-8

    def test_phi_satisfies_gluing(self, arnold):
        omega = 0.03 + 0.17j
        sol = complex_rotation_number(arnold, omega, 48)
        x = np.linspace(0, 1, 37)
        lhs = loop_phi(sol, np.asarray(arnold.lift(x), dtype=complex) + omega)
        rhs = loop_phi(sol, x + 0j) + sol.tau_raw
        assert float(np.max(np.abs(lhs - rhs))) < 5e-9


class TestCollocationKernel:
    @pytest.mark.parametrize("map_name, omega, N", KERNEL_CASES)
    def test_matches_lstsq(self, request, map_name, omega, N):
        m = request.getfixturevalue(map_name)
        sol = complex_rotation_number(m, omega, N, y_floor=0.0)
        ref = lstsq_gluing_oracle(m, omega, N)
        assert abs(sol.tau_raw - ref[-1]) < 1e-12
        coeffs = np.array(sol.coeff_up + sol.coeff_down)
        assert float(np.max(np.abs(coeffs - ref[:-1]))) < 1e-12

    @pytest.mark.parametrize("map_name, omega, N", KERNEL_CASES)
    def test_fft_phi_prime_matches_pointwise(self, request, map_name, omega, N):
        sol = complex_rotation_number(request.getfixturevalue(map_name), omega, N, y_floor=0.0)
        L = 4 * sol.m_points
        xb = np.arange(L) / L
        grids = _phi_prime_on_circles(sol.coeff_up, sol.coeff_down, omega, L)
        for grid, shift in zip(grids, (0.0, omega)):
            pointwise = sol.phi_prime(xb + shift)
            sup = float(np.max(np.abs(pointwise)))
            assert float(np.max(np.abs(grid - pointwise))) < 1e-12 * sup
            assert float(np.min(np.abs(grid))) == pytest.approx(
                float(np.min(np.abs(pointwise))), rel=1e-12
            )
        assert sol.min_phi_prime == float(np.min(np.abs(grids)))

    @pytest.mark.parametrize("N", [32, 48, 81, 185, 256, 384])
    def test_numpy_fft_matches_scipy_fft(self, N):
        """uniformize's FFTs are numpy.fft's; on the column blocks, vectors
        and inverse grids of the solves they have scipy.fft's bits."""
        fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(N)
        M = 4 * N + 8
        ef = np.asfortranarray(rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N)))
        v = rng.normal(size=M) + 1j * rng.normal(size=M)
        c = rng.normal(size=(2, 4 * M)) + 1j * rng.normal(size=(2, 4 * M))
        pairs = [(np.fft.fft(ef[:, lo : lo + uniformize.FFT_BLOCK], axis=0),
                  fft.fft(ef[:, lo : lo + uniformize.FFT_BLOCK], axis=0))
                 for lo in range(0, N, uniformize.FFT_BLOCK)]
        pairs.append((np.fft.fft(v), fft.fft(v)))
        pairs.append((np.fft.ifft(c, axis=1, norm="forward"), fft.ifft(c, axis=1, norm="forward")))
        for ours, theirs in pairs:
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    def test_cis_powers_match_mpmath(self, two_humped):
        mpmath = pytest.importorskip("mpmath")
        N, M = 384, 4 * 384 + 8
        t = np.asarray(two_humped.lift(np.arange(M) / M), dtype=float)[::61]
        assert 2.0 * math.pi * N * float(np.max(np.abs(t))) > 2.3e3
        got = _cis_powers(t, N)
        with mpmath.workdps(30):
            exact = np.array(
                [[complex(mpmath.expjpi(2 * k * mpmath.mpf(float(tj)))) for k in range(1, N + 1)]
                 for tj in t]
            )
        assert float(np.max(np.abs(got - exact))) < 1e-12

    def test_cond_gate_raises_above_limit(self):
        s = np.logspace(0.0, -13.0, 40)  # kappa_2 = 1e13
        with pytest.raises(IllConditioned):
            cherk_solve(synthetic_system(s))

    def test_cond_exact_fallback_passes_below_limit(self):
        # kappa_2 = 1e11, but 30 small singular values push the Frobenius
        # bound past the limit, so the gate needs the exact value
        s = np.r_[np.ones(10), np.full(30, 1e-11)]
        kappa_f = math.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        assert kappa_f > COND_LIMIT
        _, cond, _, steps = cherk_solve(synthetic_system(s))
        assert cond == pytest.approx(1e11, rel=1e-3)
        assert steps == 0

    @pytest.mark.parametrize(
        "s",
        [np.ones(40), np.linspace(1.0, 0.1, 40), np.logspace(0.0, -8.0, 40),
         np.r_[np.ones(10), np.full(30, 1e-11)]],
    )
    def test_cond_bounds_kappa_2(self, s):
        Ab = synthetic_system(s, seed=1)
        sol, cond, residual, steps = cherk_solve(Ab)
        assert cond >= (s.max() / s.min()) * (1.0 - 1e-6)
        if steps > 0:
            sv = svdvals(Ab[:, :-1])
            assert cond >= sv[0] / sv[-1]
        assert residual == pytest.approx(float(np.max(np.abs(Ab[:, :-1] @ sol - Ab[:, -1]))))
        if s.max() / s.min() < 1e3:
            ref = np.linalg.lstsq(Ab[:, :-1], Ab[:, -1], rcond=None)[0]
            assert float(np.max(np.abs(sol - ref))) < 1e-12


class TestGramRefinement:
    @pytest.mark.parametrize("map_name, omega, N", ORACLE_CASES)
    def test_matches_qr_oracle(self, request, map_name, omega, N):
        system = collocation_system(request.getfixturevalue(map_name), omega, N)
        sol, cond, residual, steps = _solve_collocation(system)
        ref, _, ref_residual = qr_oracle(system)
        assert steps > 0
        assert abs(sol[-1] - ref[-1]) < 1e-14
        sup = float(np.max(np.abs(ref[:-1])))
        assert float(np.max(np.abs(sol[:-1] - ref[:-1]))) < 1e-12 * sup
        assert residual == pytest.approx(ref_residual, rel=1e-10)
        sv = svdvals(system.dense()[:, :-1])
        assert cond >= sv[0] / sv[-1]

    def test_matches_mpmath(self, arnold):
        mpmath = pytest.importorskip("mpmath")
        system = collocation_system(arnold, 0.1 + 0.05j, 16)
        sol, _, _, steps = _solve_collocation(system)
        Ab = system.dense()
        with mpmath.workdps(40):
            x, _ = mpmath.qr_solve(
                mpmath.matrix(Ab[:, :-1].tolist()), mpmath.matrix(Ab[:, -1].tolist())
            )
        assert steps > 0
        assert abs(sol[-1] - complex(x[len(sol) - 1])) < 1e-13

    def test_solution_reports_its_path(self, arnold, monkeypatch):
        assert complex_rotation_number(arnold, 0.1 + 0.05j, 32).refine_steps > 0
        monkeypatch.setattr(uniformize, "_gram_refine", lambda *args: None)
        sol = complex_rotation_number(arnold, 0.1 + 0.05j, 32)
        assert sol.refine_steps == 0
        assert sol.cond == qr_oracle(collocation_system(arnold, 0.1 + 0.05j, 32))[1]

    def test_fold_ladder_rungs_take_the_fast_path(self, hump_edge_fold):
        assert all(r.refine_steps > 0 for r in hump_edge_fold.rungs)

    @pytest.mark.parametrize(
        "s",
        [np.logspace(0.0, -5.0, 40), np.logspace(0.0, -4.0, 40),
         np.logspace(0.0, -3.5, 40), np.logspace(0.0, -3.0, 40)],
        ids=["cpotrf-fails", "cond-above-limit", "no-convergence-in-12", "stalls-at-1e-13"],
    )
    def test_declined_systems_take_the_qr_path(self, s):
        Ab = synthetic_system(s)
        sol, cond, residual, steps = cherk_solve(Ab)
        ref, ref_cond, ref_residual = qr_oracle(DenseSystem(Ab))
        assert steps == 0
        assert (sol == ref).all() and cond == ref_cond and residual == ref_residual

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_updates_stalled_at_rounding_level_converge(self, seed):
        # kappa_2 = 10: the updates end at rounding level, about 1e-15
        # max |x|; whether the 1e-15 rule or STALL_TOL ends them depends
        # on each seed's rounding (see the real system below)
        Ab = synthetic_system(np.linspace(1.0, 0.1, 40), seed=seed)
        sol, _, _, steps = cherk_solve(Ab)
        ref = np.linalg.lstsq(Ab[:, :-1], Ab[:, -1], rcond=None)[0]
        assert steps > 0
        assert float(np.max(np.abs(sol - ref))) < 1e-12

    def test_real_system_stalled_at_rounding_level_needs_the_stall_rule(
        self, two_humped, monkeypatch
    ):
        # a thin rung by the two-hump edge (N = 256, y = 3e-4, cond 2.4e3):
        # its updates stop halving at 2.6e-15 max |x| with BLAS at 1 thread
        # and 2.8e-15 at 2, between 1e-15 and STALL_TOL, so only the stall
        # rule accepts it; without that rule it declines to the QR path
        def system():
            return collocation_system(two_humped, HUMP_EDGE_SAMPLE + 3e-4j, 256)

        sol, _, _, steps = _solve_collocation(system())
        ref = qr_oracle(system())[0]
        assert steps > 0 and abs(sol[-1] - ref[-1]) < 1e-14
        monkeypatch.setattr(uniformize, "STALL_TOL", 0.0)
        assert _solve_collocation(system())[3] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_stalls_above_rounding_level_decline(self, seed):
        # kappa_2 = 100: the updates stall at 9e-15 to 3.2e-14 max |x|
        Ab = synthetic_system(np.linspace(1.0, 0.01, 40), seed=seed)
        sol, cond, residual, steps = cherk_solve(Ab)
        ref, ref_cond, ref_residual = qr_oracle(DenseSystem(Ab))
        assert steps == 0
        assert (sol == ref).all() and cond == ref_cond and residual == ref_residual

    def test_fast_path_forms_no_dense_matrix(self, arnold, hump_edge_fold_run):
        bv, calls, _, _ = hump_edge_fold_run
        assert calls == [] and all(r.refine_steps > 0 for r in bv.rungs)
        with counting_dense() as calls:
            assert welding_constant(arnold, 48).refine_steps > 0
        assert calls == []

    def test_declined_solves_form_one_dense_matrix_each(self, arnold, monkeypatch):
        monkeypatch.setattr(uniformize, "_gram_refine", lambda *args: None)
        with counting_dense() as calls:
            bv = boundary_tau(arnold, 0.0, ladder=[0.2, 0.1, 0.05], resid_target=0.0, n_cap=64)
        assert len(calls) == sum(r.solves for r in bv.rungs) > 3
        assert all(r.refine_steps == 0 for r in bv.rungs)
        with counting_dense() as calls:
            assert welding_constant(arnold, 48).refine_steps == 0
        assert calls == [48]

    def test_fast_path_forms_no_triangular_inverse(self, arnold, hump_edge_fold_run):
        bv, _, inverses, _ = hump_edge_fold_run
        assert inverses == [] and all(r.refine_steps > 0 for r in bv.rungs)
        with counting_routine("ztrtri") as inverses:
            assert welding_constant(arnold, 48).refine_steps > 0
        assert inverses == []

    def test_declined_solves_form_one_triangular_inverse_each(self, arnold, monkeypatch):
        monkeypatch.setattr(uniformize, "_gram_refine", lambda *args: None)
        with counting_routine("ztrtri") as inverses:
            bv = boundary_tau(arnold, 0.0, ladder=[0.2, 0.1, 0.05], resid_target=0.0, n_cap=64)
        assert len(inverses) == sum(r.solves for r in bv.rungs) > 3
        with counting_routine("ztrtri") as inverses:
            assert welding_constant(arnold, 48).refine_steps == 0
        assert inverses == [2 * 48 + 1]

    def test_fast_path_solves_in_complex64_only(self, arnold, hump_edge_fold_run):
        bv, _, _, solves = hump_edge_fold_run
        assert solves == [] and all(r.refine_steps > 0 for r in bv.rungs)
        with counting_routine("ztrtrs") as solves, counting_routine("ctrtrs") as single:
            assert welding_constant(arnold, 48).refine_steps > 0
        assert solves == [] and set(single) == {2 * 48 + 1}

    def test_declined_solves_solve_in_complex128_only_in_qr(self, arnold, monkeypatch):
        monkeypatch.setattr(uniformize, "_gram_refine", lambda *args: None)
        qr_solve, in_qr = uniformize._qr_solve, []

        def counted(*args):
            before = len(solves)
            out = qr_solve(*args)
            in_qr.append(len(solves) - before)
            return out

        monkeypatch.setattr(uniformize, "_qr_solve", counted)
        with counting_routine("ztrtrs") as solves:
            bv = boundary_tau(arnold, 0.0, ladder=[0.2, 0.1, 0.05], resid_target=0.0, n_cap=64)
        assert in_qr == [1] * sum(r.solves for r in bv.rungs) and len(solves) == len(in_qr)
        in_qr.clear()
        with counting_routine("ztrtrs") as solves:
            assert welding_constant(arnold, 48).refine_steps == 0
        assert solves == [2 * 48 + 1] and in_qr == [1]

    def test_fast_solve_allocates_less_than_the_dense_matrix(self, two_humped):
        N = 384
        system = collocation_system(two_humped, HUMP_EDGE_SAMPLE + 8e-4j, N)
        M = system.ef.shape[0]
        tracemalloc.start()
        try:
            steps = _solve_collocation(system)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps > 0
        assert peak < M * (2 * N + 2) * np.dtype(complex).itemsize

    @pytest.mark.parametrize("seed", range(4))
    def test_gate_holds_when_b_misses_the_small_direction(self, seed):
        # kappa_2 = 1e13 through one direction b has no part in, so the
        # refinement alone would converge: the single-precision factor
        # fails, or (seed 3) its cond lands above FAST_COND_LIMIT
        Ab = synthetic_system(np.r_[np.ones(39), 1e-13], seed=seed, b_rank=39)
        with pytest.raises(IllConditioned):
            cherk_solve(Ab)


def assert_gates_as_kappa_f(gram):
    """_gram_factor's cond on gram is at most the kappa_F of scipy's
    ctrtri inverse of the same factor, and on the same side of
    FAST_COND_LIMIT; when cpotrf fails, _gram_factor declines."""
    R32, info = lapack.cpotrf(gram)
    factor = _gram_factor(np.array(gram, order="F"))
    if info != 0:
        assert factor is None
        return
    kappa_f = float(np.linalg.norm(R32)) * float(np.linalg.norm(lapack.ctrtri(R32)[0]))
    cond = factor[1]
    assert cond <= kappa_f * (1.0 + 1e-5)
    assert (cond <= FAST_COND_LIMIT) == (kappa_f <= FAST_COND_LIMIT)


class TestFastCond:
    """The fast path's O(n^2) cond estimate gates every system as the
    Frobenius bound kappa_F = ||R||_F ||R^-1||_F of its factor did."""

    @pytest.mark.parametrize("s, seed, b_rank", [
        pytest.param(s, seed, b_rank, id=f"{name}-{seed}")
        for name, (s, seeds, b_rank) in SYNTHETIC_CASES.items() for seed in seeds
    ])
    def test_synthetic_systems(self, s, seed, b_rank):
        assert_gates_as_kappa_f(DenseSystem(synthetic_system(s, seed=seed, b_rank=b_rank)).gram)

    @pytest.mark.parametrize("map_name, omega, N", ORACLE_CASES + [("arnold", 0.1 + 0.05j, 32)])
    def test_oracle_systems(self, request, map_name, omega, N):
        system = collocation_system(request.getfixturevalue(map_name), omega, N)
        assert_gates_as_kappa_f(system.gram)


def same_array(ours, theirs):
    """Equal bits, dtype, shape and memory layout."""
    return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and ours.flags.f_contiguous == theirs.flags.f_contiguous
            and ours.flags.c_contiguous == theirs.flags.c_contiguous
            and ours.tobytes(order="A") == theirs.tobytes(order="A"))


def assert_gram_factor_matches_scipy(gram):
    """cpotrf of the binding on a complex64 Gram matrix gives
    scipy.linalg.lapack's array and info; it factors in place."""
    ours_in, theirs_in = np.array(gram, order="F"), np.array(gram, order="F")
    R, info = _lapack.cpotrf(ours_in)
    R_ref, info_ref = lapack.cpotrf(theirs_in, overwrite_a=1)
    assert R is ours_in and R_ref is theirs_in
    assert info == info_ref and same_array(R, R_ref)
    return R, info


class TestLapackBinding:
    """circletau._lapack against scipy.linalg.lapack, kept as the oracle:
    the same output bits, layout and info at the calls the solve makes."""

    @pytest.mark.parametrize("map_name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("N", [32, 51, 81, 129, 206, 329, 384])
    def test_gram_factors_match_scipy(self, request, map_name, N):
        system = collocation_system(request.getfixturevalue(map_name), SYSTEM_OMEGA[map_name], N)
        R32, info = assert_gram_factor_matches_scipy(system.gram)
        assert info == 0
        rhs = system.rmatvec(system.rhs)
        # the fast path solves with the complex64 factor (ctrtrs); ztrtrs
        # is checked on the same factor in complex128
        for R, oracle in ((R32, lapack.ctrtrs), (R32.astype(complex), lapack.ztrtrs)):
            for trans in (0, 2):
                x, info = _lapack.trtrs(R, rhs, trans=trans)
                x_ref, info_ref = oracle(R, rhs, trans=trans)
                assert info == info_ref == 0 and same_array(x, x_ref)
                assert x.dtype == R.dtype

    @pytest.mark.parametrize("map_name, omega, N", ORACLE_CASES)
    def test_qr_path_routines_match_scipy(self, request, map_name, omega, N):
        system = collocation_system(request.getfixturevalue(map_name), omega, N)
        R = np.linalg.qr(system.dense(), mode="r")
        n = R.shape[1] - 1
        R11 = R[:n, :n]
        inv, info = _lapack.trtri(R11)
        inv_ref, info_ref = lapack.ztrtri(R11)
        assert info == info_ref == 0 and same_array(inv, inv_ref)
        x, info = _lapack.trtrs(R11.T, R[:n, n], lower=1, trans=1)
        x_ref, info_ref = lapack.ztrtrs(R11.T, R[:n, n], lower=1, trans=1)
        assert info == info_ref == 0 and same_array(x, x_ref)

    @pytest.mark.parametrize("gram", [
        DenseSystem(synthetic_system(np.logspace(0.0, -5.0, 40))).gram,
        np.asfortranarray(np.diag([1.0, 2.0, -1.0, 3.0]).astype(np.complex64)),
    ], ids=["cpotrf-fails", "negative-pivot"])
    def test_indefinite_gram_matches_scipy(self, gram):
        _, info = assert_gram_factor_matches_scipy(gram)
        assert info > 0

    def test_singular_factor_has_infinite_cond(self):
        R = np.triu(np.arange(1, 26).reshape(5, 5) * (1 + 1j)).astype(complex)
        R[2, 2] = 0.0
        inv, info = _lapack.trtri(R)
        inv_ref, info_ref = lapack.ztrtri(R)
        assert info == info_ref == 3 and same_array(inv, inv_ref)
        assert _kappa_f(R) == math.inf

    @pytest.mark.parametrize("seed", range(4))
    def test_kappa_1e13_systems_match_scipy_and_reach_the_gate(self, seed):
        for Ab in (synthetic_system(np.logspace(0.0, -13.0, 40), seed=seed),
                   synthetic_system(np.r_[np.ones(39), 1e-13], seed=seed, b_rank=39)):
            system = DenseSystem(Ab)
            assert_gram_factor_matches_scipy(system.gram)
            with pytest.raises(IllConditioned):
                _solve_collocation(system)

    def test_malformed_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="square"):
            _lapack.cpotrf(np.ones((3, 4), dtype=np.complex64, order="F"))
        for a in (np.eye(3, dtype=complex), np.eye(3, dtype=np.complex64, order="C") + 1j):
            with pytest.raises(ValueError, match="Fortran-ordered complex64"):
                _lapack.cpotrf(a)
        with pytest.raises(ValueError, match="square"):
            _lapack.trtri(np.ones(3, dtype=complex))
        for a in (np.eye(3), np.eye(3, dtype=np.complex64)):
            with pytest.raises(ValueError, match="complex128"):
                _lapack.trtri(a)
        for dtype in (complex, np.complex64):
            # b of another order, a not square, b not a vector
            with pytest.raises(ValueError, match="shape"):
                _lapack.trtrs(np.eye(3, dtype=dtype), np.ones(4, dtype=dtype))
            with pytest.raises(ValueError, match="square"):
                _lapack.trtrs(np.ones((3, 4), dtype=dtype), np.ones(3, dtype=dtype))
            with pytest.raises(ValueError, match="shape"):
                _lapack.trtrs(np.eye(3, dtype=dtype), np.ones((3, 1), dtype=dtype))
        for dtype in (float, np.float32, np.int64, np.clongdouble):
            with pytest.raises(ValueError, match="complex64 or complex128"):
                _lapack.trtrs(np.eye(3, dtype=dtype), np.ones(3, dtype=complex))

    def test_library_without_the_routines_fails_loudly(self):
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        with pytest.raises(ImportError, match="cpotrf") as err:
            _lapack._bind(libc)
        assert _lapack._lapack_build() in str(err.value)


class TestGluingSystem:
    @pytest.mark.parametrize("map_name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("N", [1, 16, 147, 384])
    @pytest.mark.parametrize("extra_points", [4, 8])
    def test_matches_dense(self, request, map_name, N, extra_points):
        M = 4 * N + extra_points
        x = np.arange(M) / M
        fx = np.asarray(request.getfixturevalue(map_name).lift(x), dtype=float)
        omega = SYSTEM_OMEGA[map_name]
        rng = np.random.default_rng(N + extra_points)
        v = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
        r = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        k = np.arange(1, N + 1)
        # the gluing system at omega, and at omega = +i inf (D = 0, the welding system)
        for D in (np.exp(2j * math.pi * k * omega), np.zeros(N, dtype=complex)):
            system = _gluing_system(fx, D, omega)
            Ab = system.dense()
            A = Ab[:, :-1]
            for got, want in ((system.matvec(v), A @ v), (system.rmatvec(r), A.conj().T @ r)):
                scale = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
            assert np.array_equal(Ab[:, -1], system.rhs)
            assert np.array_equal(system.rhs, x - (fx + omega))
            # the columns as exp outer products, independently of the power tables
            ef, ex = np.exp(2j * math.pi * np.outer(fx, k)), np.exp(2j * math.pi * np.outer(x, k))
            outer = np.hstack([ef * D - ex, ef.conj() - ex.conj() * D, -np.ones((M, 1))])
            assert float(np.max(np.abs(A - outer))) < 1e-12 * float(np.max(np.abs(outer)))

    @pytest.mark.parametrize("map_name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("N", [32, 51, 81, 129, 206, 329, 384])
    def test_products_match_blas_oracles(self, request, map_name, N):
        """A^H r has the bits of two zgemv calls with E_f, and A x is within
        1e-15 relative of one zgemm with two columns (the same bits with
        BLAS at one thread; at two, OpenBLAS may split the product
        differently)."""
        omega = SYSTEM_OMEGA[map_name]
        system = collocation_system(request.getfixturevalue(map_name), omega, N)
        ef, D = system.ef, system.D
        M = ef.shape[0]
        rng = np.random.default_rng(N)
        x = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
        r = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        F = np.fft.fft(r)
        want = np.empty(2 * N + 1, dtype=complex)
        want[:N] = D.conj() * zgemv(1.0, ef, r, trans=2) - F[1 : N + 1]
        want[N : 2 * N] = zgemv(1.0, ef, r, trans=1) - D.conj() * F[M - 1 : M - N - 1 : -1]
        want[2 * N] = -r.sum()
        assert system.rmatvec(r).tobytes() == want.tobytes()
        a, b = x[:N], x[N : 2 * N]
        v = np.zeros(M, dtype=complex)
        v[M - N :] = a[::-1]
        v[1 : N + 1] = D * b
        up, dn = zgemm(1.0, ef, np.column_stack([D * a, b.conj()])).T
        want = up + dn.conj() - np.fft.fft(v) - x[2 * N]
        got = system.matvec(x)
        assert float(np.max(np.abs(got - want))) <= 1e-15 * float(np.max(np.abs(want)))


class TestSharedMoments:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Moment computations (misses) and gluing systems built, by N."""
        counts = {"misses": [], "systems": []}
        moments, system = uniformize._moments, uniformize._gluing_system

        def counted_moments(ef):
            counts["misses"].append(ef.shape[1])
            return moments(ef)

        def counted_system(fx, D, shift):
            counts["systems"].append(D.size)
            return system(fx, D, shift)

        monkeypatch.setattr(uniformize, "_moments", counted_moments)
        for module in (uniformize, welding):
            monkeypatch.setattr(module, "_gluing_system", counted_system)
        return counts

    @pytest.mark.parametrize("map_name", ["arnold", "two_humped"])
    @pytest.mark.parametrize("N", [1, 16, 147, 384])
    @pytest.mark.parametrize("extra_points", [4, 8])
    def test_gram_matches_dense(self, request, map_name, N, extra_points):
        M = 4 * N + extra_points
        fx = np.asarray(request.getfixturevalue(map_name).lift(np.arange(M) / M), dtype=float)
        omega = SYSTEM_OMEGA[map_name]
        # the gluing system at omega, and at omega = +i inf (D = 0, the welding system)
        for D in (np.exp(2j * math.pi * np.arange(1, N + 1) * omega), np.zeros(N, dtype=complex)):
            system = _gluing_system(fx, D, omega)
            gram, A = system.gram, system.dense()[:, :-1]
            dense = A.conj().T @ A
            assert gram.dtype == np.complex64 and gram.shape == dense.shape
            scale = float(np.max(np.abs(dense)))
            assert float(np.max(np.abs(gram.astype(complex) - dense))) <= 1e-6 * scale

    @pytest.mark.parametrize("map_name, omega, N", ORACLE_CASES)
    def test_matches_qr_oracle(self, request, counts, map_name, omega, N):
        m = request.getfixturevalue(map_name)
        with uniformize._shared_moments():
            miss = complex_rotation_number(m, omega, N, y_floor=0.0)
            hit = complex_rotation_number(m, omega, N, y_floor=0.0)
        assert counts["misses"] == [N] and counts["systems"] == [N, N]
        alone = complex_rotation_number(m, omega, N, y_floor=0.0)
        assert hit == miss == alone
        ref, _, ref_residual = qr_oracle(collocation_system(m, omega, N))
        assert miss.refine_steps > 0
        assert abs(miss.tau_raw - ref[-1]) < 1e-14
        coeffs = np.array(miss.coeff_up + miss.coeff_down)
        sup = float(np.max(np.abs(ref[:-1])))
        assert float(np.max(np.abs(coeffs - ref[:-1]))) < 1e-12 * sup

    def test_second_map_at_same_n_gets_its_own(self, arnold, two_humped, counts):
        omega = 0.1 + 0.05j
        with uniformize._shared_moments():
            complex_rotation_number(arnold, omega, 32)
            shared = complex_rotation_number(two_humped, omega, 32)
        assert counts["misses"] == [32, 32]
        assert shared == complex_rotation_number(two_humped, omega, 32)

    def test_boundary_tau_shares_within_the_call_only(self, arnold, counts):
        def run():
            counts["misses"].clear()
            counts["systems"].clear()
            bv = boundary_tau(arnold, 0.0, ladder=[0.2, 0.1, 0.05], resid_target=0.0, n_cap=64)
            assert uniformize._MOMENTS.get() is None
            return bv, sorted(counts["misses"]), list(counts["systems"])

        bv, misses, systems = run()
        assert len(systems) == sum(r.solves for r in bv.rungs) > len(misses)
        assert misses == sorted(set(systems))
        assert run() == (bv, misses, systems)

    def test_welding_builds_one_gluing_system(self, arnold, counts):
        w = welding_constant(arnold, 48)
        assert counts == {"misses": [48], "systems": [48]}
        assert w.refine_steps > 0

    def test_enclosing_store_is_kept(self):
        with uniformize._shared_moments():
            outer = uniformize._MOMENTS.get()
            with uniformize._shared_moments():
                assert uniformize._MOMENTS.get() is outer
            assert uniformize._MOMENTS.get() is outer
        assert uniformize._MOMENTS.get() is None


class TestBoundaryTau:
    def test_rotation_family(self):
        bv = boundary_tau(CircleMap(0.3), 0.0, ladder=[0.4, 0.2, 0.1])
        assert bv.tau.re == pytest.approx(0.3, abs=1e-12)
        assert bv.tau.im == pytest.approx(0.0, abs=1e-12)

    def test_arnold_center(self, arnold_tau0):
        bv = arnold_tau0
        # odd symmetry pins Re = 0; Im frozen after the first verified run
        assert abs(wrap_half(bv.tau.re)) < 1e-8
        assert bv.tau.im == pytest.approx(0.0814328, abs=2e-6)
        assert bv.error_estimate < 1e-4
        assert bv.method == "richardson"

    def test_rungs_report_solves_and_target(self, arnold_tau0):
        bv = arnold_tau0
        assert all(r.solves >= 1 for r in bv.rungs)
        assert all(r.target_met == (r.residual <= 3e-7) for r in bv.rungs)
        assert bv.rungs_missed == sum(not r.target_met for r in bv.rungs)

    def test_rungs_report_cond_and_max_residual(self, arnold, arnold_tau0):
        bv = arnold_tau0
        assert bv.max_rung_residual == max(r.residual for r in bv.rungs)
        last = bv.rungs[-1]
        sol = complex_rotation_number(arnold, last.y * 1j, last.n_modes)
        assert last.cond == pytest.approx(sol.cond, rel=1e-9)
        assert last.refine_steps == sol.refine_steps > 0
        assert last.cond >= 1.0

    def test_zero_target_misses_every_rung(self, arnold):
        bv = boundary_tau(arnold, 0.0, ladder=[0.2, 0.1, 0.05], resid_target=0.0, n_cap=64)
        assert not any(r.target_met for r in bv.rungs)
        assert bv.rungs_missed == len(bv.rungs) == 3
        # each rung escalated until the cap: the first from its heuristic N,
        # the later ones starting where the rung above them ended
        assert all(r.n_modes == 64 for r in bv.rungs)
        assert bv.rungs[0].solves >= 2
        assert [r.solves for r in bv.rungs[1:]] == [1, 1]

    @pytest.mark.parametrize("case", ["arnold_center", "hump_fold_near_edge"])
    def test_warm_start_picks_the_cold_solves(self, request, arnold_tau0, case):
        # each rung escalates from the N of the rung above it; replaying
        # every rung from its heuristic N must pick the same solve
        if case == "arnold_center":
            m, bv = request.getfixturevalue("arnold"), arnold_tau0
        else:
            m, bv = request.getfixturevalue("two_humped"), request.getfixturevalue("hump_edge_fold")
        cold = [_solve_rung(m, bv.omega, r.y, 3e-7, 384, 0.0) for r in bv.rungs]
        assert [(r.n_modes, r.tau) for r in bv.rungs] == [(c.n_modes, c.tau) for c in cold]
        assert sum(r.solves for r in bv.rungs) <= sum(c.solves for c in cold)

    def test_ladder_validation(self, arnold):
        with pytest.raises(ConfigError):
            boundary_tau(arnold, 0.0, ladder=[0.1, 0.2])
        with pytest.raises(ConfigError):
            boundary_tau(arnold, 0.0, ladder=[])
        # a single rung is extrapolated against itself: its estimate would be 0
        with pytest.raises(ConfigError, match="two rungs"):
            boundary_tau(arnold, 0.0, ladder=[0.1])
        # the count includes the fold rungs that an edge distance appends
        bv = boundary_tau(CircleMap(0.3), 0.0, ladder=[0.1], edge_distance=0.01)
        assert bv.method == "fold" and len(bv.rungs) == 4

    @pytest.mark.parametrize("kwargs, match", [
        ({"omega": math.nan}, "omega must be finite"),
        ({"omega": math.inf}, "omega must be finite"),
        ({"ladder": [0.2, math.nan]}, "positive finite heights"),
        ({"ladder": [math.inf, 0.1]}, "positive finite heights"),
        ({"edge_distance": math.nan}, "edge_distance must be finite and nonzero"),
        ({"edge_distance": math.inf}, "edge_distance must be finite and nonzero"),
        ({"edge_distance": 0.0}, "edge_distance must be finite and nonzero"),
    ])
    def test_non_finite_or_zero_inputs_are_rejected(self, kwargs, match):
        args = {"omega": 0.0, "ladder": [0.4, 0.2, 0.1]} | kwargs
        with pytest.raises(ConfigError, match=match):
            boundary_tau(CircleMap(0.3), **args)

    def test_edge_fold_matches_disk_radius(self, arnold):
        # at the plateau edge the boundary value rides the shrinking disk:
        # h = 2R to solver accuracy (R from the multipliers, an
        # independent code path)
        from circletau.dynamics import find_cycles
        from circletau.linearize import bubble_disk_radius

        eps = 1e-3
        omega = B - eps
        bv = boundary_tau(arnold, omega, edge_distance=eps)
        z = bv.tau_raw
        h = abs(complex(wrap_half(z.real), z.imag)) ** 2 / z.imag
        R = bubble_disk_radius(find_cycles(arnold.shifted(omega), 0, 1), 1).value
        assert h == pytest.approx(2.0 * R, rel=2e-3)
        assert bv.method == "fold"

    def test_diverging_extrapolants_flagged(self):
        # the extrapolator's guard raises once column gaps grow more than
        # tenfold; drive it with data whose deep rungs go erratic
        ys = np.array([0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
        vals = ys * 1j + np.array([0.0, 0.0, 0.0, 0.0, 1e-6, 1e-1])
        with pytest.raises(ExtrapolationDiverged):
            _neville(ys, vals, 0.0, 3)


def old_richardson(ys, vals, order):
    """Richardson tableau in y before _neville, kept as its reference."""
    T = [list(map(complex, vals))]
    for m in range(1, order + 1):
        prev = T[-1]
        cur = []
        for l in range(len(vals) - m):
            r = ys[l] / ys[l + m]
            cur.append(prev[l + 1] + (prev[l + 1] - prev[l]) / (r - 1.0))
        T.append(cur)
    return T[order][-1], abs(T[order][-1] - T[order - 1][-1])


def old_neville(nodes, vals, target):
    """Fold-variable interpolant before _neville, kept as its reference."""
    p = [complex(v) for v in vals]
    x = [complex(t) for t in nodes]
    n = len(p)
    for m in range(1, n):
        for i in range(n - m):
            p[i] = ((target - x[i + m]) * p[i] + (x[i] - target) * p[i + 1]) / (
                x[i] - x[i + m]
            )
    return p[0]


def neville_tolerance(vals, target, *node_sets):
    """Rounding allowance for two evaluations of one Neville estimate: the
    ulp of the largest |value| times the summed |Lagrange weights| at target
    of the interpolants on node_sets that the estimate compares."""

    def weight_sum(xs):
        return sum(
            abs(math.prod((target - xk) / (xj - xk) for k, xk in enumerate(xs) if k != j))
            for j, xj in enumerate(xs)
        )

    return float(np.spacing(max(abs(v) for v in vals))) * sum(map(weight_sum, node_sets))


def ladder(bv):
    """Rung heights and mod-1 unwrapped rung taus, as boundary_tau extrapolates them."""
    taus = [bv.rungs[0].tau]
    for r in bv.rungs[1:]:
        prev = taus[-1]
        taus.append(complex(prev.real + wrap_half(r.tau.real - prev.real), r.tau.imag))
    return [r.y for r in bv.rungs], taus


class TestExtrapolator:
    def test_richardson_matches_old(self, arnold_tau0):
        bv = arnold_tau0
        ys, taus = ladder(bv)
        value, est = old_richardson(np.asarray(ys), taus, 3)
        assert bv.method == "richardson"
        assert abs(bv.tau_raw - value) <= 1e-15
        # the order-3 estimate compares the interpolants of the last 4 and 3 rungs
        tol = neville_tolerance(taus, 0.0, ys[-4:], ys[-3:])
        assert abs(bv.error_estimate - est) <= tol

    def test_fold_matches_old(self, hump_edge_fold):
        bv = hump_edge_fold
        ys, taus = ladder(bv)
        nodes = [cmath.sqrt(1.0 - 1j * y / -1.1e-3) for y in ys]
        value = old_neville(nodes, taus, 1.0)
        est = abs(value - old_neville(nodes[:-1], taus[:-1], 1.0))
        assert bv.method == "fold"
        assert abs(bv.tau_raw - value) <= 1e-15
        assert abs(bv.error_estimate - est) <= neville_tolerance(taus, 1.0, nodes, nodes[:-1])
        # the estimate drops the lowest rung; dropping the highest instead
        # would understate the error here
        _, top_dropped = _neville(nodes, taus, 1.0, len(nodes) - 1)
        assert top_dropped < 0.5 * est

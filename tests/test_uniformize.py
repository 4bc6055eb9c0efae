import cmath
import math

import numpy as np
import pytest

from circletau.errors import (
    ConfigError,
    ExtrapolationDiverged,
    IllConditioned,
    NotInUpperHalfPlane,
)
from circletau.maps import CircleMap
from circletau.uniformize import (
    COND_LIMIT,
    UpperHalfPoint,
    _cis_powers,
    _gluing_system,
    _householder_r,
    _neville,
    _phi_prime_on_circles,
    _solve_collocation,
    _solve_rung,
    boundary_tau,
    complex_rotation_number,
    hyperbolic_distance,
    hyperbolic_distance_mod1,
    wrap_half,
    y_min,
)

B = 1.0 / (4.0 * math.pi)

# a sample omega of the two-hump bubble, 1.1e-3 right of its left edge
HUMP_EDGE_SAMPLE = 0.0033358979962851837
KERNEL_CASES = [("arnold", 0.1 + 0.05j, 64), ("two_humped", HUMP_EDGE_SAMPLE + 8e-4j, 384)]


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


def synthetic_system(singular_values, m=160, seed=0):
    """[A | b] with A = U diag(s) V^H for random unitary U (m x n) and V."""
    rng = np.random.default_rng(seed)
    s = np.asarray(singular_values, dtype=float)
    n = s.size

    def unitary(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]

    A = unitary(m, n) * s @ unitary(n, n).conj().T
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.column_stack([A, b])


class TestUpperHalfPoint:
    def test_normalization(self):
        p = UpperHalfPoint(1.75, 0.5)
        assert p.re == pytest.approx(0.75)
        assert p.as_complex == pytest.approx(0.75 + 0.5j)

    def test_negative_im_rejected(self):
        with pytest.raises(ConfigError):
            UpperHalfPoint(0.1, -0.2)

    def test_lift_near(self):
        p = UpperHalfPoint(0.9, 0.3)
        assert p.lift_near(0.0) == pytest.approx(-0.1 + 0.3j)
        assert p.lift_near(2.0) == pytest.approx(1.9 + 0.3j)


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

    def test_collocation_count_validation(self, arnold):
        with pytest.raises(ConfigError):
            complex_rotation_number(arnold, 0.5j, n_modes=16, m_points=60)

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
        lhs = sol.phi(np.asarray(arnold.lift(x), dtype=complex) + omega)
        rhs = sol.phi(x + 0j) + sol.tau_raw
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

    @pytest.mark.parametrize("N", [147, 384])
    def test_householder_r_matches_numpy(self, two_humped, N):
        M = 4 * N + 8
        fx = np.asarray(two_humped.lift(np.arange(M) / M), dtype=float)
        Ab = _gluing_system(fx, HUMP_EDGE_SAMPLE + 8e-4j, N)
        ref = np.linalg.qr(Ab, mode="r")
        R = _householder_r(Ab)
        assert R.shape == ref.shape
        assert float(np.max(np.abs(R - ref))) <= 1e-13 * float(np.max(np.abs(ref)))

    def test_cond_gate_raises_above_limit(self):
        s = np.logspace(0.0, -13.0, 40)  # kappa_2 = 1e13
        with pytest.raises(IllConditioned):
            _solve_collocation(synthetic_system(s))

    def test_cond_exact_fallback_passes_below_limit(self):
        # kappa_2 = 1e11, but 30 small singular values push the Frobenius
        # bound past the limit, so the gate needs the exact value
        s = np.r_[np.ones(10), np.full(30, 1e-11)]
        kappa_f = math.sqrt(np.sum(s**2) * np.sum(s**-2.0))
        assert kappa_f > COND_LIMIT
        _, cond, _ = _solve_collocation(synthetic_system(s))
        assert cond == pytest.approx(1e11, rel=1e-3)

    @pytest.mark.parametrize(
        "s",
        [np.ones(40), np.linspace(1.0, 0.1, 40), np.logspace(0.0, -8.0, 40),
         np.r_[np.ones(10), np.full(30, 1e-11)]],
    )
    def test_cond_bounds_kappa_2(self, s):
        Ab = synthetic_system(s, seed=1)
        sol, cond, residual = _solve_collocation(Ab)
        assert cond >= (s.max() / s.min()) * (1.0 - 1e-6)
        assert residual == pytest.approx(float(np.max(np.abs(Ab[:, :-1] @ sol - Ab[:, -1]))))
        if s.max() / s.min() < 1e3:
            ref = np.linalg.lstsq(Ab[:, :-1], Ab[:, -1], rcond=None)[0]
            assert float(np.max(np.abs(sol - ref))) < 1e-12


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
            m = request.getfixturevalue("two_humped")
            bv = boundary_tau(m, HUMP_EDGE_SAMPLE, edge_distance=-1.1e-3)
        cold = [_solve_rung(m, bv.omega, r.y, 3e-7, 384, 0.0) for r in bv.rungs]
        assert [(r.n_modes, r.tau) for r in bv.rungs] == [(c.n_modes, c.tau) for c in cold]
        assert sum(r.solves for r in bv.rungs) <= sum(c.solves for c in cold)

    def test_ladder_validation(self, arnold):
        with pytest.raises(ConfigError):
            boundary_tau(arnold, 0.0, ladder=[0.1, 0.2])
        with pytest.raises(ConfigError):
            boundary_tau(arnold, 0.0, ladder=[])

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
        assert bv.error_estimate == pytest.approx(est, rel=1e-12, abs=0.0)

    def test_fold_matches_old(self, two_humped):
        bv = boundary_tau(two_humped, HUMP_EDGE_SAMPLE, edge_distance=-1.1e-3)
        ys, taus = ladder(bv)
        nodes = [cmath.sqrt(1.0 - 1j * y / -1.1e-3) for y in ys]
        value = old_neville(nodes, taus, 1.0)
        est = abs(value - old_neville(nodes[:-1], taus[:-1], 1.0))
        assert bv.method == "fold"
        assert abs(bv.tau_raw - value) <= 1e-15
        assert bv.error_estimate == pytest.approx(est, rel=1e-12, abs=0.0)
        # the estimate drops the lowest rung; dropping the highest instead
        # would understate the error here
        _, top_dropped = _neville(nodes, taus, 1.0, len(nodes) - 1)
        assert top_dropped < 0.5 * est

"""Acceptance gate: one test per criterion, at the stated tolerances.

Heavy artifacts (bubble traces, boundary values) come from session
fixtures in conftest so the whole suite stays within its time budget; a
summary line per criterion is printed at the end of the run.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from circletau.dynamics import find_cycles, plateau, rotation_estimate
from circletau.experiments import tsujii_gap
from circletau.linearize import bubble_disk_radius, qc_estimate_check, xi_distortion
from circletau.maps import CircleMap, total_distortion
from circletau.uniformize import (
    boundary_tau,
    complex_rotation_number,
    wrap_half,
)
from circletau.welding import asymptote_check, welding_constant

B = 1.0 / (4.0 * math.pi)


def mod1_distance(z, w):
    d = z - w
    return abs(complex(wrap_half(d.real), d.imag))


def test_criterion_01_rotation_exactness():
    rng = np.random.default_rng(101)
    thetas = rng.uniform(0.0, 1.0, 20)
    omegas = [complex(re, im) for re, im in
              zip(rng.uniform(0.0, 1.0, 10), rng.uniform(0.1, 5.0, 10))]
    for i, theta in enumerate(thetas):
        omega = omegas[i % len(omegas)]
        sol = complex_rotation_number(CircleMap(theta), omega, n_modes=8)
        assert mod1_distance(sol.tau_raw, theta + omega) < 1e-10


def test_criterion_02_welding_asymptote(arnold, arnold_weld):
    t0 = time.monotonic()
    rep = asymptote_check(arnold, [1.0, 2.0, 3.0], welding=arnold_weld)
    elapsed = time.monotonic() - t0
    assert rep.gaps[0] > rep.gaps[1] > rep.gaps[2]
    assert rep.gaps[2] < 1e-6
    assert elapsed < 30.0


def test_criterion_03_multiplier_bound():
    rng = np.random.default_rng(2024)
    checked_cycles = 0
    for i in range(50):
        k = int(rng.integers(1, 4))
        raw = rng.uniform(-1.0, 1.0, 2 * k)
        target = float(rng.uniform(0.3, 0.85))
        weight = 2.0 * math.pi * sum(
            (j % k + 1) * abs(c) for j, c in enumerate(raw)
        )
        scale = target / weight
        cos_c = tuple(scale * c for c in raw[:k])
        sin_c = tuple(scale * c for c in raw[k:])
        if i % 2 == 0:
            # pin a fixed point at 0: rot = 0/1
            a0 = -sum(cos_c)
            m = CircleMap(a0, cos_c, sin_c)
            p, q = 0, 1
        else:
            # tune the mean shift so 0 is a period-2 point: rot = 1/2
            def h(a0):
                mm = CircleMap(a0, cos_c, sin_c, validate=False)
                return float(mm.lift(float(mm.lift(0.0)))) - 1.0

            osc = sum(abs(c) for c in cos_c) + sum(abs(c) for c in sin_c)
            a0 = brentq(h, 0.5 - 2 * osc - 0.1, 0.5 + 2 * osc + 0.1, xtol=1e-14)
            m = CircleMap(a0, cos_c, sin_c)
            p, q = 1, 2
        d_f = total_distortion(m)
        for c in find_cycles(m, p, q):
            assert abs(math.log(c.multiplier)) <= d_f + 1e-8
            checked_cycles += 1
    assert checked_cycles >= 100


def test_criterion_04_disk_containment(arnold, arnold_tau0, arnold_distortion):
    z = arnold_tau0.tau_raw
    half_h = abs(complex(wrap_half(z.real), z.imag)) ** 2 / (2.0 * z.imag)
    R0 = bubble_disk_radius(find_cycles(arnold, 0, 1), 1).value
    assert R0 == pytest.approx(0.0407150, abs=1e-6)
    assert half_h <= R0 + 1e-4
    assert half_h <= arnold_distortion / (4.0 * math.pi) + 1e-4


def test_criterion_05_sigma_cross_check(arnold, arnold_tau0, arnold_distortion):
    chk = qc_estimate_check(arnold, 0, 1, arnold_tau0.tau)
    assert chk.distance <= 5.0 * arnold_distortion + 0.1


def test_criterion_06_qfold_cover(period2_family):
    fm = period2_family  # x + 0.53 + 0.05 sin(4 pi x)
    cycles = find_cycles(fm, 1, 2)
    assert all(c.is_hyperbolic for c in cycles)
    # edge distance of the 1/2 plateau on the f side
    base = CircleMap(0.0, (), (0.0, 0.05))
    plat = plateau(base, 1, 2)
    s_f = plat.omega_hi - fm.mean_shift
    assert 0.0 < s_f < fm.mean_shift - plat.omega_lo
    # f o f side: the rot-0 plateau of (f o f) + zeta ends where min G2 = 0
    h2 = fm.iterate(2)
    x = np.linspace(0.0, 1.0, 8192, endpoint=False)
    g2 = np.asarray(h2.lift(x), dtype=float) - x - 1.0
    s_h = -float(g2.min())
    tb_f = boundary_tau(fm, 0.0, edge_distance=s_f, resid_target=1e-9, n_cap=512)
    tb_h = boundary_tau(h2, 0.0, edge_distance=s_h, resid_target=1e-9, n_cap=512)
    doubled = 2.0 * tb_f.tau_raw
    assert mod1_distance(tb_h.tau_raw, doubled) < 1e-4


def test_criterion_07_diophantine_limit(golden_tuned_arnold, golden_parameter):
    est = rotation_estimate(golden_tuned_arnold, tol=1e-9)
    rot = est.value
    assert abs(rot - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-3
    heights = [0.2, 0.1, 0.05, 0.025]
    dists = []
    for y in heights:
        sol = complex_rotation_number(golden_tuned_arnold, 1j * y, 64)
        dists.append(mod1_distance(sol.tau_raw, complex(rot, 0.0)))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    # the y -> 0 limit itself is reached by ladder extrapolation
    bv = boundary_tau(golden_tuned_arnold, 0.0, ladder=heights)
    assert mod1_distance(bv.tau_raw, complex(rot, 0.0)) < 5e-3


def test_criterion_08_real_endpoints(arnold_trace):
    hs = [s.horocycle_height for s in arnold_trace.samples]
    left, right = hs[:5], hs[-5:]
    # heights fall monotonically into each endpoint
    assert all(a < b for a, b in zip(left, left[1:]))
    assert all(a > b for a, b in zip(right, right[1:]))
    assert left[0] < 1e-2 and right[-1] < 1e-2


def test_criterion_09_complex_endpoint(hump_trace):
    assert hump_trace.left.kind == "complex"
    inner = hump_trace.samples[:5]
    angles = [s.tangency_angle for s in inner]
    assert all(a < b for a, b in zip(angles, angles[1:]))
    assert all(s.horocycle_height >= 1e-3 for s in inner)


def test_criterion_10_tsujii(golden_tuned_arnold):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for row in tsujii_gap(CircleMap(golden), 4):
        assert abs(abs(row.omega0) - row.theta_gap) <= 1e-10  # equality, D_f = 0
    rows = tsujii_gap(golden_tuned_arnold, 4)
    assert [(r.p, r.q) for r in rows] == [(1, 1), (1, 2), (2, 3), (3, 5)]
    for row in rows:
        assert row.slack > 0.0


def test_criterion_11_symmetry_covariance(hump_trace, hump_mirror_trace):
    pairs = list(zip(hump_trace.samples, reversed(hump_mirror_trace.samples)))
    assert len(pairs) == len(hump_trace.samples)
    for s, t in pairs:
        assert t.omega == pytest.approx(-s.omega, abs=1e-8)
        # tau_bar of x -> -f(-x) at -omega equals -conj(tau_bar(omega))
        back = complex(-t.tau_re, t.tau_im)
        assert mod1_distance(back, complex(s.tau_re, s.tau_im)) < 1e-6


def test_criterion_12_gluing_distortion(arnold, arnold_distortion):
    bound = 4.0 * total_distortion(arnold.iterate(1)) + 1e-6
    assert bound == pytest.approx(4.0 * arnold_distortion + 1e-6, rel=1e-12)
    for j in (0, 1):
        assert xi_distortion(arnold, 0, 1, j) <= bound

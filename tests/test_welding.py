import math
import time

import numpy as np
import pytest

from circletau import uniformize
from circletau.errors import ConfigError, IllConditioned
from circletau.maps import CircleMap
from circletau.uniformize import complex_rotation_number
from circletau.welding import asymptote_check, welding_constant

B = 1.0 / (4.0 * math.pi)

# first verified run of the welder on the standard fixture
ARNOLD_CF_IM = 0.010287478223287


def lstsq_welding_oracle(map, N, gauge=0.0):
    """C_f from the earlier SVD path: exp outer products and np.linalg.lstsq."""
    M = 4 * N + 8
    x = np.arange(M) / M
    fx = np.asarray(np.real(map.lift(x)), dtype=float)
    k = np.arange(1, N + 1)
    A = np.hstack([
        -np.exp(2j * math.pi * np.outer(x, k)),
        np.exp(-2j * math.pi * np.outer(fx, k)),
        np.ones((M, 1), dtype=complex),
    ])
    sol = np.linalg.lstsq(A, (x - fx + gauge).astype(complex), rcond=None)[0]
    return gauge - sol[-1]


class TestWeldingConstant:
    def test_matches_lstsq(self, arnold, arnold_weld, two_humped):
        assert abs(arnold_weld.c_f - lstsq_welding_oracle(arnold, 48)) < 1e-12
        w = welding_constant(two_humped, 64, gauge_c_plus=0.5j)
        assert abs(w.c_f - lstsq_welding_oracle(two_humped, 64, 0.5j)) < 1e-12

    def test_matches_qr_oracle(self, arnold, monkeypatch):
        fast = welding_constant(arnold, 48)
        monkeypatch.setattr(uniformize, "_gram_refine", lambda *args: None)
        oracle = welding_constant(arnold, 48)
        assert fast.refine_steps > 0 and oracle.refine_steps == 0
        assert abs(fast.c_f - oracle.c_f) < 1e-12

    def test_rotation_translation_welding(self):
        w = welding_constant(CircleMap(0.25), 16)
        assert abs(w.c_f - 0.25) < 1e-12
        assert w.residual < 1e-12

    def test_identity(self):
        w = welding_constant(CircleMap(0.0), 8)
        assert abs(w.c_f) < 1e-13

    def test_arnold_odd_symmetry(self, arnold_weld):
        assert abs(arnold_weld.c_f.real) < 1e-8
        assert arnold_weld.c_f.imag == pytest.approx(ARNOLD_CF_IM, abs=1e-11)

    def test_gauge_invariance(self, arnold, arnold_weld):
        shifted = welding_constant(arnold, 48, gauge_c_plus=1.0 + 1.0j)
        assert abs(shifted.c_f - arnold_weld.c_f) < 1e-12
        assert shifted.c_plus == 1.0 + 1.0j
        assert shifted.c_f == shifted.c_plus - shifted.c_minus

    def test_conjugation_covariance(self, arnold, arnold_weld):
        mirrored = welding_constant(arnold.mirrored(), 48)
        assert abs(mirrored.c_f - (-arnold_weld.c_f.conjugate())) < 1e-8

    def test_cross_solver_agreement(self, arnold, arnold_weld):
        # ties the welder to the torus uniformizer through tau(4i)
        sol = complex_rotation_number(arnold, 4j, 48)
        assert abs(sol.tau_raw - 4j - arnold_weld.c_f) < 1e-8

    def test_collocation_validation(self, arnold):
        with pytest.raises(ConfigError):
            welding_constant(arnold, 16, m_points=60)

    @pytest.mark.parametrize("gauge", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_gauge_is_rejected(self, arnold, gauge):
        # a NaN gauge gave c_f = nan+nanj and a NaN residual
        with pytest.raises(ConfigError, match="gauge_c_plus must be finite"):
            welding_constant(arnold, 16, gauge_c_plus=gauge)


class TestAsymptote:
    def test_rotation_gaps_are_zero(self):
        rep = asymptote_check(CircleMap(0.3), [0.5, 1.0, 2.0], n_modes=16)
        assert all(g < 1e-12 for g in rep.gaps)

    def test_arnold_decreasing(self, arnold, arnold_weld):
        t0 = time.monotonic()
        rep = asymptote_check(arnold, [1.0, 2.0, 3.0], welding=arnold_weld)
        assert rep.decreasing
        assert rep.gaps[-1] < 1e-6
        assert time.monotonic() - t0 < 30.0
        # gap values from the first verified run
        assert rep.gaps[0] == pytest.approx(3.608e-05, rel=1e-3)
        assert rep.gaps[2] == pytest.approx(1.256e-10, rel=0.3)

    def test_below_floor_surfaced(self):
        # y_min of a rigid rotation is 0.08, so height 0.05 must fail
        # loudly, not silently
        with pytest.raises(IllConditioned):
            asymptote_check(CircleMap(0.3), [0.05], n_modes=16)

    def test_heights_must_increase(self, arnold):
        with pytest.raises(ConfigError):
            asymptote_check(arnold, [2.0, 1.0])

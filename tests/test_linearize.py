import math

import numpy as np
import pytest

from circletau.dynamics import find_cycles
from circletau.errors import (
    ConfigError,
    NonCoprimeHomology,
    NotHyperbolic,
    NotInUpperHalfPlane,
    OutsideBasin,
    ParabolicPresent,
)
from circletau.linearize import (
    IterationChart,
    annuli_inequality_check,
    bubble_disk_radius,
    linearizing_inverse,
    ordered_charts,
    qc_estimate_check,
    sigma,
    sigma_from_charts,
    xi_distortion,
)
from circletau.maps import CircleMap, total_distortion
from circletau.uniformize import hyperbolic_distance_mod1
from conftest import HUMP_EDGE_SAMPLE

B = 1.0 / (4.0 * math.pi)
IM_SIGMA = math.pi / math.log(1.5) + math.pi / math.log(2.0)
R0 = 1.0 / (2.0 * math.pi * (1.0 / math.log(1.5) + 1.0 / math.log(2.0)))


class LinearChart:
    """Exactly linear chart: phi is the identity shifted to alpha."""

    def __init__(self, alpha, rho):
        self.alpha = alpha
        self.rho = rho

    @property
    def log_rho(self):
        return math.log(self.rho)

    @property
    def modulus(self):
        return math.pi / abs(self.log_rho)

    def inverse(self, x):
        return x - self.alpha


class _LocalLinearMap:
    """Map protocol double: F(x) = alpha + rho (x - alpha) near alpha."""

    def __init__(self, alpha, rho):
        self.alpha, self.rho = alpha, rho

    def lift(self, x):
        return self.alpha + self.rho * (x - self.alpha)

    lift_float = lift

    def deriv(self, x, order=1):
        return self.rho if order == 1 else 0.0


class TestLinearizingInverse:
    def test_exact_linear_model(self):
        chart = IterationChart(_LocalLinearMap(0.25, 0.5), 0, 1, 0.25, 0.5)
        u, du = chart.inverse_with_deriv(0.4)
        assert u == pytest.approx(0.15, abs=1e-15)
        assert du == pytest.approx(1.0, abs=1e-15)

    def test_arnold_attracting_chart(self, arnold):
        att = [c for c in find_cycles(arnold, 0, 1) if c.kind == "attracting"][0]
        u = linearizing_inverse(arnold, att, 0.3)
        assert math.isfinite(u)
        # orientation: phi'(0) = 1 makes phi^{-1} negative left of alpha
        assert u < 0.0
        # Schroeder equation phi^{-1}(f(x)) = rho phi^{-1}(x)
        fu = linearizing_inverse(arnold, att, float(arnold.lift(0.3)))
        assert fu == pytest.approx(att.multiplier * u, rel=1e-9)

    def test_repelling_chart_schroeder(self, arnold):
        rep = [c for c in find_cycles(arnold, 0, 1) if c.kind == "repelling"][0]
        u = linearizing_inverse(arnold, rep, 0.85)
        fu = linearizing_inverse(arnold, rep, float(arnold.lift(0.85)))
        assert fu == pytest.approx(rep.multiplier * u, rel=1e-9)

    def test_outside_basin(self, arnold):
        cycles = find_cycles(arnold, 0, 1)
        rep = [c for c in cycles if c.kind == "repelling"][0]
        # the adjacent periodic point is a fixed point of the iteration:
        # the orbit cannot approach alpha from there
        with pytest.raises(OutsideBasin):
            linearizing_inverse(arnold, rep, 0.5)

    def test_parabolic_rejected(self, arnold):
        from circletau.dynamics import Cycle

        fake = Cycle((0.0,), 1, 0, 1.0, "parabolic")
        with pytest.raises(NotHyperbolic):
            linearizing_inverse(arnold, fake, 0.2)


class TestChartArrays:
    @pytest.mark.parametrize(
        "name, shift, p, q",
        [("arnold", 0.0, 0, 1), ("period2_family", 0.0, 1, 2), ("two_humped", HUMP_EDGE_SAMPLE, 0, 1)],
    )
    def test_array_matches_points(self, request, name, shift, p, q):
        # each point stops on its own, so it gets the bits of a call on it alone
        charts = ordered_charts(request.getfixturevalue(name).shifted(shift), p, q)
        assert {c.kind for c in charts} == {"attracting", "repelling"}
        alphas = [c.alpha for c in charts]
        for j, chart in enumerate(charts):
            left = alphas[j - 1] - (1.0 if j == 0 else 0.0)
            right = alphas[j + 1] if j + 1 < len(charts) else alphas[0] + 1.0
            ts = (0.9, 0.5, 0.1, 1e-4)
            xs = np.array(
                [chart.alpha - t * (chart.alpha - left) for t in ts]
                + [chart.alpha]
                + [chart.alpha + t * (right - chart.alpha) for t in ts]
            )
            u, du = chart.inverse_with_deriv(xs)
            assert u.shape == du.shape == xs.shape
            alone = [chart.inverse_with_deriv(float(x)) for x in xs]
            assert u.tolist() == [a for a, _ in alone]
            assert du.tolist() == [b for _, b in alone]
            assert (u[len(ts)], du[len(ts)]) == (0.0, 1.0)

    def test_one_point_outside_the_basin_raises(self, arnold):
        att, rep = ordered_charts(arnold, 0, 1)  # alpha = 0.5 and 1.0
        # 0.5 is the attracting fixed point next to alpha = 1: H^-1 keeps it there
        with pytest.raises(OutsideBasin):
            rep.inverse_with_deriv(np.array([0.85, 0.5, 1.2]))
        with pytest.raises(OutsideBasin):
            att.inverse_with_deriv(np.array([0.4, 1.3, 0.6]))


class TestSigma:
    def test_arnold_imaginary_part(self, arnold):
        sd = sigma(arnold, 0, 1)
        assert sd.sigma.imag == pytest.approx(IM_SIGMA, rel=1e-12)
        assert sd.sigma.imag == pytest.approx(sum(sd.moduli), rel=1e-12)
        assert sd.sigma.imag == pytest.approx(12.2805, abs=1e-4)

    def test_arnold_real_part_odd_symmetry(self, arnold):
        sd = sigma(arnold, 0, 1)
        assert abs(sd.sigma.real) < 1e-8

    def test_marker_coordinates(self, arnold):
        sd = sigma(arnold, 0, 1)
        for r, s, m in zip(sd.r_tilde, sd.s_tilde, sd.moduli):
            assert r.imag == 0.0
            assert s.imag == pytest.approx(m, rel=1e-12)

    def test_linear_chart_double_hand_value(self):
        # charts are identities: r_0 = log(0.25)/log(1/2) = 2,
        # s_0 = log|0.75 - 1|/log(1/2) + i pi/log 2 = 2 + i pi/log 2,
        # r_1 = log(0.25)/log 2 = -2, s_1 = -2 + i pi/log 2,
        # so sigma = 2 i pi / log 2
        charts = [LinearChart(0.0, 0.5), LinearChart(0.5, 2.0)]
        sd = sigma_from_charts(charts, [0.25, 0.75])
        assert sd.sigma == pytest.approx(2j * math.pi / math.log(2), abs=1e-14)

    def test_rejects_parabolic(self, arnold):
        # at the plateau edge omega = 1/(4 pi) the two fixed points merge
        # into a parabolic tangency at x = 3/4
        edge = arnold.shifted(B)
        cycles = find_cycles(edge, 0, 1)
        assert any(c.kind == "parabolic" for c in cycles)
        with pytest.raises(NotHyperbolic):
            sigma(edge, 0, 1)

    def test_custom_marker_validation(self, arnold):
        with pytest.raises(ConfigError):
            sigma(arnold, 0, 1, markers=[0.2, 0.75])  # 0.2 not in (0.5, 1)


class TestBubbleDiskRadius:
    def test_arnold_value(self, arnold, arnold_distortion):
        cycles = find_cycles(arnold, 0, 1)
        dr = bubble_disk_radius(cycles, 1, distortion=arnold_distortion)
        assert dr.value == pytest.approx(R0, rel=1e-12)
        assert dr.value == pytest.approx(0.0407150, abs=1e-6)
        assert dr.coarse_bound == pytest.approx(
            arnold_distortion / (4 * math.pi), rel=1e-12
        )
        assert dr.value <= dr.coarse_bound

    def test_near_parabolic_multiplier_shrinks_radius(self):
        from circletau.dynamics import Cycle

        radii = []
        for rho in (0.9, 0.99, 0.999):
            cycles = (
                Cycle((0.2,), 1, 0, rho, "attracting"),
                Cycle((0.7,), 1, 0, 1.5, "repelling"),
            )
            radii.append(bubble_disk_radius(cycles, 1).value)
        assert radii[0] > radii[1] > radii[2]
        assert radii[2] < 1e-3

    def test_parabolic_rejected(self):
        from circletau.dynamics import Cycle

        with pytest.raises(ParabolicPresent):
            bubble_disk_radius((Cycle((0.1,), 1, 0, 1.0, "parabolic"),), 1)

    def test_monotone_along_plateau_approach(self, arnold):
        # mechanism of the real-endpoint lemma: R -> 0 at the edge
        radii = []
        for eps in (3e-2, 1e-2, 3e-3, 1e-3):
            cycles = find_cycles(arnold.shifted(B - eps), 0, 1)
            radii.append(bubble_disk_radius(cycles, 1).value)
        assert all(b < a for a, b in zip(radii, radii[1:]))


class TestAnnuliInequality:
    def test_trivial_pass(self):
        chk = annuli_inequality_check(2j, [1.0], (1, 0))
        assert chk.passed and chk.slack == pytest.approx(1.0)

    def test_trivial_fail(self):
        chk = annuli_inequality_check(2j, [3.0], (1, 0))
        assert not chk.passed

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeHomology):
            annuli_inequality_check(2j, [1.0], (2, 4))

    def test_requires_interior_point(self):
        with pytest.raises(NotInUpperHalfPlane):
            annuli_inequality_check(0.3 + 0j, [1.0], (0, 1))

    def test_minimizes_over_representatives(self):
        # (a, b) = (0, 1): |tau + n| minimized near Re = 0
        a = annuli_inequality_check(0.9 + 0.05j, [4.0], (0, 1))
        b = annuli_inequality_check(-0.1 + 0.05j, [4.0], (0, 1))
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)

    def test_arnold_pipeline_near_equality(self, arnold, arnold_tau0):
        # the comparison torus sits exactly on the horocycle and the
        # gluing distortion is ~1e-6, so the length-area inequality is an
        # equality within the tau_bar measurement error; assert it up to
        # the propagated uncertainty
        sd = sigma(arnold, 0, 1)
        chk = annuli_inequality_check(arnold_tau0.tau, sd.moduli, (0, 1))
        sensitivity = chk.rhs**2  # d(1/Im)/d(Im) at Im ~ 1/rhs
        tol = 3.0 * sensitivity * max(arnold_tau0.error_estimate, 1e-6)
        assert chk.slack >= -tol
        assert abs(chk.slack) < 0.05  # and it really is nearly tight


class TestQcEstimate:
    def test_arnold_distance_small(self, arnold, arnold_tau0, arnold_distortion):
        chk = qc_estimate_check(arnold, 0, 1, arnold_tau0.tau)
        assert chk.distance <= 5.0 * arnold_distortion + 0.1
        assert chk.within_base and chk.within_iterated
        # for this symmetric map the tori nearly coincide
        assert chk.distance < 1e-3

    def test_synthetic_double_distance_zero(self):
        # translation gluings: tau equals -1/sigma exactly
        charts = [LinearChart(0.0, 0.5), LinearChart(0.5, 2.0)]
        sd = sigma_from_charts(charts, [0.25, 0.75])
        target = -1.0 / sd.sigma
        assert hyperbolic_distance_mod1(target, -1.0 / sd.sigma) == 0.0

    def test_rotation_rejected(self):
        with pytest.raises(Exception):
            qc_estimate_check(CircleMap(0.0), 0, 1, 0.5j)


class TestXiDistortion:
    def test_arnold_bounded(self, arnold, arnold_distortion):
        x0 = xi_distortion(arnold, 0, 1, 0)
        assert 0.0 < x0 <= 4.0 * arnold_distortion + 1e-6
        # golden value from the first verified run
        assert x0 == pytest.approx(9.681e-07, rel=5e-3)

    def test_odd_symmetry_pair(self, arnold):
        x0 = xi_distortion(arnold, 0, 1, 0)
        x1 = xi_distortion(arnold, 0, 1, 1)
        assert abs(x0 - x1) < 1e-8

    def test_ordered_charts_alternate(self, period2_family):
        charts = ordered_charts(period2_family, 1, 2)
        assert len(charts) == 4
        kinds = [c.kind for c in charts]
        assert kinds == ["attracting", "repelling", "attracting", "repelling"]
        alphas = [c.alpha for c in charts]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

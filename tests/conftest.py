import math

import pytest

from circletau import dynamics
from circletau.maps import CircleMap, total_distortion
from circletau.dynamics import compare_to_rational
from circletau.experiments import trace_bubble
from circletau.uniformize import boundary_tau
from circletau.welding import welding_constant

ARNOLD_B = 1.0 / (4.0 * math.pi)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a sample omega of the two-hump bubble, 1.1e-3 right of its left edge
HUMP_EDGE_SAMPLE = 0.0033358979962851837


@pytest.fixture(scope="session")
def arnold():
    """f(x) = x + (1/4pi) sin(2 pi x): the standard hyperbolic fixture."""
    return CircleMap(0.0, (), (ARNOLD_B,))


@pytest.fixture(scope="session")
def rotation():
    return CircleMap(0.25)


@pytest.fixture(scope="session")
def two_humped():
    """x - f(x) has two local maxima with distinct heights."""
    return CircleMap(0.0, (), (-0.05, -0.03))


@pytest.fixture(scope="session")
def period2_family():
    """x + 0.53 + 0.05 sin(4 pi x): rot = 1/2, hyperbolic, off-center."""
    return CircleMap(0.53, (), (0.0, 0.05))


@pytest.fixture(scope="session")
def arnold_distortion(arnold):
    return total_distortion(arnold)


@pytest.fixture(scope="session")
def arnold_tau0(arnold):
    """Extrapolated tau_bar at omega = 0 with the default ladder."""
    return boundary_tau(arnold, 0.0)


@pytest.fixture(scope="session")
def arnold_weld(arnold):
    return welding_constant(arnold, 48)


@pytest.fixture(scope="session")
def arnold_trace(arnold):
    """Bubble of the 0/1 plateau, 20 Chebyshev samples."""
    return trace_bubble(arnold, 0, 1, samples=20)


@pytest.fixture(scope="session")
def hump_trace(two_humped):
    """Bubble over (y1, y2) of the two-humped family.

    16 samples keep the innermost node at distance ~1.6e-4 from the
    endpoints, inside the resolvable zone of the edge-adapted ladder.
    """
    return trace_bubble(two_humped, 0, 1, samples=16)


@pytest.fixture(scope="session")
def hump_mirror_trace(two_humped):
    # the fixture map is odd, so its mirror coincides with it and the
    # mirrored bubble is the segment abutting the LEFT plateau edge
    return trace_bubble(two_humped.mirrored(), 0, 1, samples=16, segment="left")


def golden_omega(base):
    """omega with rot(base + omega) within ~2e-6 of the golden mean.

    Located by bisection against the convergents 233/377 (below) and
    377/610 (above the golden mean).
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = base.shifted(mid)
        if compare_to_rational(fm, 233, 377) > 0:  # above the upper convergent
            hi = mid
        elif compare_to_rational(fm, 377, 610) < 0:  # below the lower one
            lo = mid
        else:
            return mid
    raise AssertionError("bisection failed to land between the convergents")


@pytest.fixture(scope="session")
def golden_parameter(arnold):
    return golden_omega(arnold)


@pytest.fixture(scope="session")
def golden_tuned_arnold(golden_parameter):
    """Arnold map with mean shift tuned so rot is the golden mean."""
    return CircleMap(golden_parameter, (), (ARNOLD_B,))


def record_shifts(monkeypatch, names):
    """The list that the mean shift of the map of every call of the named
    G samplers of the dynamics module is appended to, in order."""
    shifts = []
    for name in names:

        def recording(map, p, q, n, _original=getattr(dynamics, name)):
            shifts.append(map.mean_shift)
            return _original(map, p, q, n)

        monkeypatch.setattr(dynamics, name, recording)
    return shifts


@pytest.fixture
def grid_shifts(monkeypatch):
    """The mean shift of the map of every G grid evaluation (``_g_grid``)
    and orbit stage (``_g_orbit``) made through the dynamics module, in
    order."""
    return record_shifts(monkeypatch, ("_g_grid", "_g_orbit"))


@pytest.fixture
def crossing_counts(monkeypatch):
    """Counts made through the dynamics module: G grid evaluations
    (``_g_grid``) and orbit stages (``_g_orbit``) as "grids", their G
    samples as "points" (grid times q, or m starts times q), Newton
    refinements of a grid extremum (``minimize_scalar``) and crossing
    fallbacks (``_bisect``, which ``find_cycles`` also calls on its
    roots)."""
    counts = {"grids": 0, "points": 0, "refinements": 0, "fallbacks": 0}
    for name in ("_g_grid", "_g_orbit"):

        def counting_grid(map, p, q, n, _original=getattr(dynamics, name)):
            counts["grids"] += 1
            counts["points"] += n * q
            return _original(map, p, q, n)

        monkeypatch.setattr(dynamics, name, counting_grid)
    for name, key in (("minimize_scalar", "refinements"), ("_bisect", "fallbacks")):
        original = getattr(dynamics, name)

        def counting(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    return counts


def assert_certified(map, p, q, omega, want, tol, grid=dynamics._G_GRID):
    """The sign test switches within tol/2 of omega: compare_to_rational(f +
    w, p, q) >= want is False at omega - tol/2 and True at omega + tol/2."""
    def right(w):
        return dynamics.compare_to_rational(map.shifted(w), p, q, grid) >= want

    assert not right(omega - 0.5 * tol)
    assert right(omega + 0.5 * tol)


# -- acceptance summary --------------------------------------------------------

_ACCEPTANCE_RESULTS = {}

ACCEPTANCE_TITLES = {
    1: "rotation exactness: |tau - (theta+omega)| < 1e-10",
    2: "welding asymptote: gaps at y=1,2,3 decreasing, final < 1e-6, < 30 s",
    3: "multiplier bound |log rho| <= D_f + 1e-8 on the 50-map suite",
    4: "disk containment |tau|^2/(2 Im tau) <= R_0 + 1e-4 and <= D_f/(4pi) + 1e-4",
    5: "sigma cross-check d_H(tau_bar, -1/sigma) <= 5 D_f + 0.1",
    6: "q-fold cover: tau_bar(f o f) = 2 tau_bar(f) mod 1 within 1e-4",
    7: "Diophantine limit at the golden-mean parameter (< 5e-3)",
    8: "real endpoints: h decreasing near both ends, final h < 1e-2",
    9: "complex endpoint: angle decreasing, h floor >= 1e-3",
    10: "Tsujii inequality: approximants 1/1..3/5 pass; rotations exact to 1e-10",
    11: "symmetry covariance: mirrored trace matches within 1e-6",
    12: "gluing distortion of each xi_j <= 4 D_f(F^q) + 1e-6",
}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "criterion" not in name:
        return
    try:
        num = int(name.split("criterion_")[1].split("_")[0])
    except (IndexError, ValueError):
        return
    _ACCEPTANCE_RESULTS[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[num]
        status = "PASS" if outcome == "passed" else outcome.upper()
        tw.write_line(f"criterion {num:2d}: {status} - {ACCEPTANCE_TITLES.get(num, '')}")

"""Workload inputs, timed operations and correctness gates.

Every input comes from the seed.  Seed 0 is the test-suite fixture; any
other seed scales each harmonic of the fixture map by its own factor in
[1 - SCALE, 1 + SCALE].  Each operation returns its output; ``summarize``
turns the output into plain numbers, which are checked against
invariants that hold for any seed and, at seed 0, against the reference
values in ``reference.json``.

Tolerances are never tighter than the ones the test suite applies to
the same quantity (tau values 1e-6, as in the mirror-covariance
criterion; plateau and bubble edges 1e-7; Liouville margins 1e-6;
welding constant 1e-8).  A boundary value whose reference error
estimate exceeds 1e-7 is compared within ten times that estimate.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import circletau as ct

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

ARNOLD_B = 1.0 / (4.0 * math.pi)
SCALE = 0.002
HUMP_SAMPLES = 6  # the smallest count trace_bubble accepts
ATLAS_QMAX = 2
ATLAS_SAMPLES = 8  # per plateau; the CLI default is 16
WORKERS = 2
PROBE = "liouville_measure_estimate(arnold, beta=0.5, q_max=2)"

TOL_TAU = 1e-6
TOL_EDGE = 1e-7
TOL_LIOUVILLE = 1e-6
TOL_TSUJII = 1e-9
TOL_SIGMA = 1e-6
TOL_WELD = 1e-8


# -- inputs ----------------------------------------------------------------


def factors(seed: int, n: int) -> list[float]:
    if seed == 0:
        return [1.0] * n
    rng = random.Random(seed)
    return [1.0 + SCALE * rng.uniform(-1.0, 1.0) for _ in range(n)]


def arnold(seed: int) -> ct.CircleMap:
    """x + b sin(2 pi x), b = 1/(4 pi) scaled by the seed."""
    (f,) = factors(seed, 1)
    return ct.CircleMap(0.0, (), (ARNOLD_B * f,))


def two_humped(seed: int) -> ct.CircleMap:
    """x - f(x) has two local maxima of distinct heights."""
    f1, f2 = factors(seed, 2)
    return ct.CircleMap(0.0, (), (-0.05 * f1, -0.03 * f2))


def golden_shift(base: ct.CircleMap) -> ct.CircleMap:
    """base + omega with rot between the convergents 233/377 and 377/610."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = base.shifted(mid)
        if ct.compare_to_rational(fm, 233, 377) > 0:
            hi = mid
        elif ct.compare_to_rational(fm, 377, 610) < 0:
            lo = mid
        else:
            return ct.CircleMap(mid, base.cos_coeffs, base.sin_coeffs)
    raise ct.NumericalError("golden-mean bisection did not land between the convergents")


def warm_up(workload: str, seed: int) -> None:
    """Build the workload's maps and make one small call into its main layer."""
    if workload == "hump-trace":
        ct.complex_rotation_number(two_humped(seed), 0.1j, 32)
    elif workload == "checks":
        ct.compare_to_rational(arnold(seed), 0, 1)
    else:
        raise ValueError(f"no in-process set-up for {workload!r}")


# -- checks ---------------------------------------------------------------


def mod1_distance(a: complex, b: complex) -> float:
    d = a - b
    return abs(complex(d.real - round(d.real), d.imag))


def _near(problems, label, got, want, tol):
    if not (abs(got - want) <= tol):
        problems.append(f"{label}: {got!r} vs reference {want!r} (tol {tol:g})")


def _finite(problems, label, values):
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{label}: non-finite value in {values}")


def _tau_tol(err_ref: float) -> float:
    return max(TOL_TAU, 10.0 * err_ref)


# -- operations -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    invariants: Callable[[dict], list]
    compare: Callable[[dict, dict], list]
    errors: Callable[[dict], list] = lambda s: []  # boundary-value error estimates


def _trace_summary(tr) -> dict:
    return {
        "bubble": [tr.bubble_lo, tr.bubble_hi],
        "left": tr.left.kind,
        "right": tr.right.kind,
        "samples": [[s.omega, s.tau_re, s.tau_im, s.error_estimate] for s in tr.samples],
    }


def _trace_invariants(s: dict) -> list:
    problems = []
    if len(s["samples"]) != HUMP_SAMPLES:
        problems.append(f"expected {HUMP_SAMPLES} samples, got {len(s['samples'])}")
    for w, re, im, err in s["samples"]:
        _finite(problems, f"sample at {w}", [w, re, im, err])
        if im < 0.0:
            problems.append(f"Im tau = {im} < 0 at omega = {w}")
    if s["right"] != "real":
        problems.append(f"right endpoint is {s['right']!r}, not 'real'")
    return problems


def _samples_vs_reference(problems, got, want):
    if len(got) != len(want):
        problems.append(f"{len(got)} samples vs {len(want)} in the reference")
        return
    for (w, re, im, _), (w0, re0, im0, err0) in zip(got, want):
        _near(problems, f"omega {w0}", w, w0, TOL_EDGE)
        d = mod1_distance(complex(re, im), complex(re0, im0))
        if not d <= _tau_tol(err0):
            problems.append(f"tau at omega {w0}: off by {d:.3g} (tol {_tau_tol(err0):.3g})")


def _trace_compare(s: dict, ref: dict) -> list:
    problems = []
    for got, want in zip(s["bubble"], ref["bubble"]):
        _near(problems, "bubble edge", got, want, TOL_EDGE)
    for side in ("left", "right"):
        if s[side] != ref[side]:
            problems.append(f"{side} endpoint {s[side]!r} vs reference {ref[side]!r}")
    _samples_vs_reference(problems, s["samples"], ref["samples"])
    return problems


# Each op builds its maps, so no pass reuses a map's cached strip width.


def hump_trace_ops(seed: int, ctx: dict) -> list[Op]:
    return [Op(
        "trace_bubble",
        lambda: ct.trace_bubble(two_humped(seed), 0, 1, samples=HUMP_SAMPLES, classify=True),
        _trace_summary, _trace_invariants, _trace_compare,
        lambda s: [row[3] for row in s["samples"]],
    )]


def _liouville_summary(rep) -> dict:
    return {"passed": rep.passed, "rows": [[r.q, r.measured, r.bound] for r in rep.rows]}


def _liouville_invariants(s: dict) -> list:
    return [] if s["passed"] else [f"Liouville rows fail their bound: {s['rows']}"]


def _liouville_compare(s: dict, ref: dict) -> list:
    problems = []
    if len(s["rows"]) != len(ref["rows"]):
        return [f"{len(s['rows'])} Liouville rows vs {len(ref['rows'])}"]
    for (q, m, b), (_, m0, b0) in zip(s["rows"], ref["rows"]):
        _near(problems, f"Liouville measure q={q}", m, m0, TOL_LIOUVILLE)
        _near(problems, f"Liouville bound q={q}", b, b0, TOL_LIOUVILLE)
    return problems


def _tsujii_summary(out) -> dict:
    shift, rows = out
    return {"shift": shift, "rows": [
        [r.p, r.q, r.theta_gap, r.omega0, r.bound, r.slack, r.passed] for r in rows
    ]}


def _tsujii_invariants(s: dict) -> list:
    problems = []
    pqs = [(r[0], r[1]) for r in s["rows"]]
    if pqs != [(1, 1), (1, 2), (2, 3), (3, 5)]:
        problems.append(f"Tsujii approximants {pqs}")
    problems += [f"Tsujii row {r[0]}/{r[1]} fails (slack {r[5]})" for r in s["rows"] if not r[6]]
    return problems


def _tsujii_compare(s: dict, ref: dict) -> list:
    problems = []
    _near(problems, "golden shift", s["shift"], ref["shift"], TOL_TSUJII)
    for r, r0 in zip(s["rows"], ref["rows"]):
        for k, label in ((2, "theta gap"), (3, "omega0"), (4, "bound")):
            _near(problems, f"Tsujii {label} {r0[0]}/{r0[1]}", r[k], r0[k], TOL_TSUJII)
    return problems


def _sigma_summary(sd) -> dict:
    return {"sigma": [sd.sigma.real, sd.sigma.imag]}


def _sigma_invariants(s: dict) -> list:
    problems = []
    _finite(problems, "sigma", s["sigma"])
    if not s["sigma"][1] > 0.0:
        problems.append(f"Im sigma = {s['sigma'][1]} is not positive")
    return problems


def _sigma_compare(s: dict, ref: dict) -> list:
    problems = []
    for got, want in zip(s["sigma"], ref["sigma"]):
        _near(problems, "sigma", got, want, TOL_SIGMA)
    return problems


def _weld_summary(w) -> dict:
    return {"c_f": [w.c_f.real, w.c_f.imag]}


def _weld_invariants(s: dict) -> list:
    problems = []
    _finite(problems, "C_f", s["c_f"])
    return problems


def _weld_compare(s: dict, ref: dict) -> list:
    problems = []
    for got, want in zip(s["c_f"], ref["c_f"]):
        _near(problems, "C_f", got, want, TOL_WELD)
    return problems


def checks_ops(seed: int, ctx: dict) -> list[Op]:
    # The Tsujii input is the fixture at every seed.  The golden shift of a
    # rescaled map lands at an arbitrary rotation number in a 4e-6 window
    # around the golden mean; rotation_estimate's time there depends on that
    # number's continued fraction (passes of 11 to 17 s at seeds 1-5), and at
    # seed 1 it exceeds tsujii_gap's 3M-iteration cap (NoConvergence).
    def tsujii():
        g = golden_shift(arnold(0))
        return g.mean_shift, ct.tsujii_gap(g, 4)

    return [
        Op("liouville", lambda: ct.liouville_measure_estimate(arnold(seed), 1.0, 5),
           _liouville_summary, _liouville_invariants, _liouville_compare),
        Op("tsujii", tsujii, _tsujii_summary, _tsujii_invariants, _tsujii_compare),
        Op("sigma", lambda: ct.sigma(arnold(seed), 0, 1),
           _sigma_summary, _sigma_invariants, _sigma_compare),
        Op("welding", lambda: ct.welding_constant(arnold(seed), 48),
           _weld_summary, _weld_invariants, _weld_compare),
    ]


def run_probe(seed: int) -> str | None:
    """The known Liouville defect at non-integer beta; returns the error, if any."""
    try:
        rep = ct.liouville_measure_estimate(arnold(seed), 0.5, 2)
    except ct.CircleTauError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None if rep.passed else "rows fail their bound"


# -- the CLI atlas ------------------------------------------------------------


def _tree_rss_mb(pid: int) -> float:
    """Resident memory of a process and all its descendants, from /proc."""
    total_kb = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo += [int(c) for c in fh.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def run_child(cmd: list, env: dict, timeout: float = 120.0) -> tuple:
    """Run cmd to completion; returns (completed process, peak tree RSS in MB)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    peak = [0.0]
    done = threading.Event()

    def poll():
        while not done.wait(0.02):
            peak[0] = max(peak[0], _tree_rss_mb(proc.pid))

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
        out, err = proc.communicate()
    finally:
        done.set()
        poller.join()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), peak[0]


def atlas_command(fmap: ct.CircleMap, outdir: Path, traced: bool) -> list:
    entry = [str(HERE / "cli_traced.py")] if traced else ["-m", "circletau.cli"]
    return [sys.executable, *entry, "atlas",
            "--map", json.dumps(fmap.to_descriptor()),
            "--qmax", str(ATLAS_QMAX), "--samples", str(ATLAS_SAMPLES),
            "--workers", str(WORKERS), "--emit", "csv", "--out", str(outdir)]


def _atlas_summary(rows) -> dict:
    return {"rows": rows}


def _atlas_invariants(s: dict) -> list:
    problems = []
    rows = s["rows"]
    for w, p, q, re, im, err in rows:
        _finite(problems, f"row at omega {w}", [w, re, im, err])
        if im < 0.0:
            problems.append(f"Im tau = {im} < 0 at omega = {w}")
    # the Arnold map is odd: f + omega mirrors to f - omega and p/q to -p/q,
    # so every plateau here (0/1, 1/2) maps to itself and
    # tau_bar(-omega) = -conj(tau_bar(omega)) mod 1
    plateaus = sorted({(p, q) for _, p, q, *_ in rows})
    if plateaus != [(0, 1), (1, 2)]:
        problems.append(f"atlas plateaus {plateaus}, expected 0/1 and 1/2")
    for pq in plateaus:
        pts = sorted((r for r in rows if (r[1], r[2]) == pq), key=lambda r: r[0])
        for a, b in zip(pts, reversed(pts)):
            if abs(math.remainder(a[0] + b[0], 1.0)) > TOL_EDGE:
                problems.append(f"{pq}: omega {a[0]} has no mirror partner ({b[0]})")
            d = mod1_distance(complex(-a[3], a[4]), complex(b[3], b[4]))
            if not d <= TOL_TAU:
                problems.append(f"{pq}: mirror covariance off by {d:.3g} at omega {a[0]}")
    return problems


def _atlas_compare(s: dict, ref: dict) -> list:
    problems = []
    got, want = s["rows"], ref["rows"]
    if [r[1:3] for r in got] != [r[1:3] for r in want]:
        return [f"atlas rows {[r[1:3] for r in got]} vs reference {[r[1:3] for r in want]}"]
    _samples_vs_reference(
        problems,
        [[r[0], r[3], r[4], r[5]] for r in got],
        [[r[0], r[3], r[4], r[5]] for r in want],
    )
    return problems


def cli_atlas_ops(seed: int, ctx: dict) -> list[Op]:
    fmap = arnold(seed)
    outdir = ctx["out"] / f"atlas-{os.getpid()}"

    def atlas():
        cmd = atlas_command(fmap, outdir, ctx.get("traced", False))
        (outdir / "atlas.csv").unlink(missing_ok=True)
        proc, rss = run_child(cmd, ctx["env"])
        ctx["child_rss"].append(rss)
        if proc.returncode != 0:
            raise ct.NumericalError(
                f"circletau atlas exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
        with open(outdir / "atlas.csv", newline="") as fh:
            body = list(csv.reader(fh))[1:]
        return [[float(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), float(r[7])]
                for r in body]

    return [Op("atlas", atlas, _atlas_summary, _atlas_invariants, _atlas_compare,
               lambda s: [row[5] for row in s["rows"]])]


WORKLOADS = {
    "hump-trace": hump_trace_ops,
    "checks": checks_ops,
    "cli-atlas": cli_atlas_ops,
}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)

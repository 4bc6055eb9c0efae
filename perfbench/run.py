"""Run one circletau benchmark workload, gate its outputs and print its metrics.

Usage, from the root of a circletau checkout:
    python3 perfbench/run.py --workload hump-trace --seed 0 --seconds 40 --trace 0

Workloads: hump-trace, checks, cli-atlas (see perfbench/README.md).
``--trace 0`` repeats passes of the workload for about ``--seconds``
seconds and reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs one untraced and one traced pass and reports the per-layer
metrics, writing the spans to perfbench/out/.  The library is loaded
from ./src and the CLI run as ``python -m circletau.cli``; nothing is
installed.  BLAS is pinned to one thread.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PIN)  # before numpy loads, here and in every child process

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- environment ------------------------------------------------------------


def openblas_libraries() -> list:
    """(file name, thread count, config) of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                config.restype = ctypes.c_char_p
                found.append((Path(path).name, get(), config().decode()))
                break
            else:
                continue
            break
    return found


def environment(args, workers: int) -> dict:
    import numpy
    import scipy

    blas = openblas_libraries()
    if not blas:
        raise SetupError("no OpenBLAS library found to read the BLAS thread count from")
    wrong = [(name, n) for name, n, _ in blas if n != int(PIN["OPENBLAS_NUM_THREADS"])]
    if wrong:
        raise SetupError(f"BLAS thread count {wrong} does not match the pin {PIN}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": [{"library": n, "threads": t, "config": c} for n, t, c in blas],
        "pin": PIN,
        "workers": workers,
    }


# -- measuring -------------------------------------------------------------


def run_pass(ops, tag: str, on_op=None):
    """Run every op once; returns (wall seconds of the ops, [(op, output, error, seconds)])."""
    wall, results = 0.0, []
    for op in ops:
        if on_op is not None:
            on_op(f"{tag}:{op.name}")
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # recorded and counted as a failed op
            out, err = None, exc
            traceback.print_exc(file=sys.stdout)
        seconds = time.perf_counter() - t0
        wall += seconds
        results.append((op, out, err, seconds))
    return wall, results


def gate(results, reference) -> tuple:
    """(ops attempted, ops failed, problems, summaries) for one pass."""
    problems, summaries = [], {}
    failed = 0
    for op, out, err, _ in results:
        if err is not None:
            found = [f"raised {type(err).__name__}: {err}"]
        else:
            summary = op.summarize(out)
            summaries[op.name] = summary
            found = op.invariants(summary)
            if reference is not None:
                found += op.compare(summary, reference[op.name])
        if found:
            failed += 1
            problems += [f"{op.name}: {p}" for p in found]
    return len(results), failed, problems, summaries


def timed_child(cmd, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return wall


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    if workload == "cli-atlas":
        cmd = [sys.executable, "-m", "circletau.cli", "--version"]
    else:
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return statistics.median(timed_child(cmd, env) for _ in range(SETUP_REPEATS))


# -- reporting -------------------------------------------------------------


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def metric_block(values: dict, kind: str) -> dict:
    units = declared(kind)
    missing = set(units) - set(values)
    if missing:
        raise SetupError(f"no value for the {kind} metrics {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["hump-trace", "checks", "cli-atlas"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "circletau" / "__init__.py").is_file():
        print(f"error: {SRC / 'circletau'} not found; run from a circletau checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    try:
        return run(args, child_env)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run(args, child_env: dict) -> int:
    import summary
    import workloads
    from tracer import Tracer

    in_process = args.workload != "cli-atlas"
    env = environment(args, workers=1 if in_process else workloads.WORKERS)
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}"
    for old in OUT.glob(spans_path.name + ".*"):
        old.unlink()
    ctx = {"out": OUT, "env": child_env, "child_rss": []}
    ops = workloads.WORKLOADS[args.workload](args.seed, ctx)
    reference = workloads.load_reference()[args.workload] if args.seed == 0 else None

    if in_process:
        workloads.warm_up(args.workload, args.seed)
    walls, passes = [], []
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed, child_env)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + max(walls) <= args.seconds:
            wall, results = run_pass(ops, f"pass{len(walls)}")
            walls.append(wall)
            passes.append(results)
    else:
        wall, results = run_pass(ops, "untraced")
        untraced = wall
        passes.append(results)
        if in_process:
            tracer = Tracer(str(spans_path), op="traced")
            tracer.install()
            try:
                wall, results = run_pass(ops, "traced", on_op=lambda op: setattr(tracer, "op", op))
            finally:
                tracer.uninstall()
                tracer.write()
        else:
            ctx["traced"] = True
            ctx["env"] = dict(child_env, PERFBENCH_SPANS=str(spans_path), PERFBENCH_OP="traced:atlas")
            wall, results = run_pass(ops, "traced")
        walls.append(wall)
        passes.append(results)
    shutil.rmtree(OUT / f"atlas-{os.getpid()}", ignore_errors=True)

    attempted = failed = 0
    problems, errs = [], []
    for results in passes:
        n, k, found, summaries = gate(results, reference)
        attempted += n
        failed += k
        problems += found
        for op, _, _, _ in results:
            if op.name in summaries:
                errs += op.errors(summaries[op.name])
    probe = workloads.run_probe(args.seed) if args.workload == "checks" else None
    for p in problems:
        print(f"gate failure: {p}")

    record = {"env": env, "walls": walls, "problems": problems,
              "op_seconds": [{op.name: t for op, _, _, t in results} for results in passes]}
    if args.trace == 0:
        if in_process:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak = max(ctx["child_rss"])
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": peak}
        metrics = metric_block(values, "end_to_end")
        probes = 1 if args.workload == "checks" else 0
        table = dict(values, ops=attempted + probes,
                     ops_failed=failed + (probe is not None))
        table["max_err_est"] = max(errs) if errs else "n/a (no boundary values)"
        print(f"passes: {len(walls)}, pass walls (s): {[round(w, 3) for w in walls]}")
        for name, value in table.items():
            unit = metrics[name]["unit"] if name in metrics else (
                "abs" if name == "max_err_est" else "count")
            print(f"{name:<14} {value} {unit}")
    else:
        records = summary.load(str(spans_path))
        values = summary.layer_metrics(records)
        traced = walls[-1]
        pool_wait = values["experiments.pool_wait_s"]
        values.update({
            "cli.serial_s": 0.0 if in_process else traced - pool_wait,
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_share": (traced - untraced) / untraced,
            "trace.coverage": summary.root_seconds(records) / traced,
        })
        metrics = metric_block(values, "per_layer")
        print(summary.format_table(records, traced))
        print(f"traced wall {traced:.3f} s, untraced {untraced:.3f} s, "
              f"tracing overhead {traced - untraced:+.3f} s, "
              f"layer coverage {100 * values['trace.coverage']:.1f}%")
        for name, m in metrics.items():
            print(f"{name:<32} {m['value']} {m['unit']}")
    if args.workload == "checks":
        print(f"probe {workloads.PROBE}: "
              + (f"FAILED ({probe}); known defect, see perfbench/README.md" if probe else "passed"))
    record.update(metrics=metrics, probe=probe)
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

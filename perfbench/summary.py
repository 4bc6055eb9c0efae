"""Per-layer metrics and the self-time table from a span file.

Usage:
    python3 perfbench/summary.py perfbench/out/spans-<workload>-s<seed> [--wall S]

Reads ``<path>.<pid>`` for every process that recorded spans (the
benchmark process or the traced CLI, and any pool workers) and prints
self time per layer and per entry point.  ``--wall`` is the traced wall
time the shares refer to; without it the shares are left out.
"""

from __future__ import annotations

import argparse
import glob
import json
from collections import defaultdict

N_CAP = 384  # trace_bubble's default cap on the number of modes

LAYER = {
    "complex_rotation_number": "uniformize",
    "boundary_tau": "uniformize",
    "ConjugacySolution.phi_prime": "uniformize",
    "compare_to_rational": "dynamics",
    "minimize_scalar": "dynamics",
    "plateau": "dynamics",
    "find_cycles": "dynamics",
    "rotation_estimate": "dynamics",
    "CircleMap.lift": "maps",
    "total_distortion": "maps",
    "count_periodic_points": "experiments",
    "trace_bubble": "experiments",
    "liouville_measure_estimate": "experiments",
    "tsujii_gap": "experiments",
    "ProcessPoolExecutor.map": "experiments",
    "sigma": "linearize",
    "welding_constant": "welding",
}


def load(path: str) -> list[dict]:
    records = []
    for part in sorted(glob.glob(glob.escape(path) + ".*")):
        with open(part) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return records


def _layer(rec: dict, by_key: dict) -> str:
    if rec["name"] != "numpy.linalg.lstsq":
        return LAYER[rec["name"]]
    parent = rec["parent"]
    while parent >= 0:  # lstsq belongs to the solver that called it
        up = by_key[(rec["pid"], parent)]
        if up["name"] in ("complex_rotation_number", "welding_constant"):
            return LAYER[up["name"]]
        parent = up["parent"]
    return "numpy"


def self_times(records: list[dict]) -> dict:
    """{(process role, layer, name): [calls, inclusive seconds, self seconds]}."""
    by_key = {(r["pid"], r["id"]): r for r in records if "id" in r}
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for r in records:
        role = "worker" if r.get("worker") else "main"
        row = table[(role, _layer(r, by_key), r["name"])]
        if "id" in r:
            row[0] += 1
            row[1] += r["end"] - r["start"]
        else:  # aggregated lift calls
            row[0] += r["calls"]
            row[1] += r["seconds"]
        row[2] += r["self"]
    return dict(table)


def root_seconds(records: list[dict]) -> float:
    """Time covered by spans in the traced process itself (not pool workers)."""
    roots = [r for r in records
             if "id" in r and r["parent"] < 0 and not r.get("worker")]
    lifts = [r for r in records
             if "calls" in r and r["parent"] < 0 and not r.get("worker")]
    return sum(r["end"] - r["start"] for r in roots) + sum(r["seconds"] for r in lifts)


def layer_metrics(records: list[dict]) -> dict:
    """The per-layer metrics of BENCHMARK.json that spans determine."""
    spans = defaultdict(list)
    for r in records:
        if "id" in r:
            spans[r["name"]].append(r)
    by_key = {(r["pid"], r["id"]): r for r in records if "id" in r}
    lifts = [r for r in records if "calls" in r]

    def incl(name):
        return sum(r["end"] - r["start"] for r in spans[name])

    def own(name):
        return sum(r["self"] for r in spans[name])

    solves = spans["complex_rotation_number"]
    bvs = [r for r in spans["boundary_tau"] if "rungs" in r]
    lstsq = [r for r in spans["numpy.linalg.lstsq"] if _layer(r, by_key) == "uniformize"]
    rungs = sum(r["rungs"] for r in bvs)
    lift_calls = sum(r["calls"] for r in lifts)
    lift_points = sum(r["points"] for r in lifts)
    return {
        "uniformize.solves": len(solves),
        "uniformize.solves_at_cap": sum(1 for r in solves if r.get("N", 0) >= N_CAP),
        "uniformize.solves_per_rung": len(solves) / rungs if rungs else 0.0,
        "uniformize.rungs": rungs,
        "uniformize.rungs_missed": sum(r["missed"] for r in bvs),
        "uniformize.max_err_est": max((r["err"] for r in bvs), default=0.0),
        "uniformize.boundary_calls": len(spans["boundary_tau"]),
        "uniformize.solve_s": incl("complex_rotation_number"),
        "uniformize.lstsq_s": sum(r["end"] - r["start"] for r in lstsq),
        "uniformize.phi_prime_s": incl("ConjugacySolution.phi_prime"),
        "uniformize.build_s": own("complex_rotation_number"),
        "uniformize.extrap_s": own("boundary_tau"),
        "uniformize.lstsq_flops": float(sum(r["M"] * r["cols"] ** 2 for r in lstsq)),
        "maps.lift_calls": lift_calls,
        "maps.lift_points": lift_points,
        "maps.points_per_lift": lift_points / lift_calls if lift_calls else 0.0,
        "maps.lift_s": sum(r["seconds"] for r in lifts),
        "maps.distortion_s": incl("total_distortion"),
        "dynamics.compare_calls": len(spans["compare_to_rational"]),
        "dynamics.compare_s": incl("compare_to_rational"),
        "dynamics.minimize_calls": len(spans["minimize_scalar"]),
        "dynamics.plateau_s": incl("plateau"),
        "dynamics.find_cycles_calls": len(spans["find_cycles"]),
        "dynamics.find_cycles_s": incl("find_cycles"),
        "dynamics.rotation_s": incl("rotation_estimate"),
        "experiments.count_calls": len(spans["count_periodic_points"]),
        "experiments.count_s": incl("count_periodic_points"),
        "experiments.trace_self_s": own("trace_bubble"),
        "experiments.bounds_self_s": own("liouville_measure_estimate") + own("tsujii_gap"),
        "experiments.pool_wait_s": incl("ProcessPoolExecutor.map"),
        "linearize.sigma_s": incl("sigma"),
        "welding.weld_s": incl("welding_constant"),
    }


def format_table(records: list[dict], wall: float | None = None) -> str:
    """Self time per entry point and per layer.

    Shares are of the traced wall time.  Pool workers ("worker" rows) run
    in parallel with the main process, so their shares add up over
    processes and can pass 100%.
    """
    table = self_times(records)
    layers = defaultdict(float)
    for (role, layer, _), (_, _, own) in table.items():
        layers[(role, layer)] += own
    share = (lambda s: f"{100.0 * s / wall:6.1f}%") if wall else (lambda s: "")
    lines = [f"{'proc':<7} {'layer':<12} {'entry point':<28} {'calls':>9} "
             f"{'incl s':>9} {'self s':>9}"]
    for (role, layer, name), (calls, total, own) in sorted(
            table.items(), key=lambda kv: (kv[0][0], -kv[1][2])):
        lines.append(f"{role:<7} {layer:<12} {name:<28} {calls:>9} {total:>9.3f} "
                     f"{own:>9.3f} {share(own)}")
    lines.append("")
    for (role, layer), own in sorted(layers.items(), key=lambda kv: (kv[0][0], -kv[1])):
        lines.append(f"{role:<7} {layer:<12} {'(layer self time)':<28} {'':>9} {'':>9} "
                     f"{own:>9.3f} {share(own)}")
    if wall:
        covered = root_seconds(records)
        lines.append(f"{'main':<7} {'all layers':<12} {'(coverage of traced wall)':<28} "
                     f"{'':>9} {wall:>9.3f} {covered:>9.3f} {share(covered)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans", help="span file prefix, as written by run.py --trace 1")
    ap.add_argument("--wall", type=float, help="traced wall time in seconds")
    args = ap.parse_args(argv)
    records = load(args.spans)
    if not records:
        print(f"no span files match {args.spans}.*")
        return 1
    print(format_table(records, args.wall))
    for name, value in layer_metrics(records).items():
        print(f"{name:<32} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate perfbench/reference.json: every op's output at seed 0.

Usage, from the root of a circletau checkout:
    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark compares seed-0 runs against this file.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    ctx = {"out": run.OUT, "env": env, "child_rss": []}
    reference = {}
    for name, make_ops in workloads.WORKLOADS.items():
        reference[name] = {}
        for op in make_ops(0, ctx):
            summary = op.summarize(op.run())
            problems = op.invariants(summary)
            if problems:
                print(f"{name}/{op.name}: {problems}", file=sys.stderr)
                return 1
            reference[name][op.name] = summary
            print(f"{name}/{op.name}: ok")
    shutil.rmtree(run.OUT / f"atlas-{os.getpid()}", ignore_errors=True)
    Path(workloads.REFERENCE).write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

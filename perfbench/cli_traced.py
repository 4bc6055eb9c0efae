"""``python -m circletau.cli`` with the benchmark's tracer installed.

Usage (as the traced cli-atlas run starts it):
    PERFBENCH_SPANS=<prefix> PERFBENCH_OP=<op id> python3 perfbench/cli_traced.py atlas ...

The spans of this process go to ``<prefix>.<pid>`` at exit; forked pool
workers write their own files.
"""

import atexit
import os
import runpy

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer(os.environ["PERFBENCH_SPANS"], op=os.environ.get("PERFBENCH_OP", ""))
    tracer.install()
    atexit.register(tracer.write)
    runpy.run_module("circletau.cli", run_name="__main__", alter_sys=True)

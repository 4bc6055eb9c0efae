"""One set-up of an in-process workload: import, build its maps, warm up.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
The caller times the whole process.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.warm_up(sys.argv[1], int(sys.argv[2]))

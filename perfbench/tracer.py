"""Outside-in span tracing of circletau's public entry points.

The tracer wraps functions and methods at their bindings: a function is
replaced in every loaded ``circletau`` module that holds it (modules
import each other's functions by name), a method on its class, and
``numpy.linalg.lstsq`` and ``ProcessPoolExecutor.map`` on their owners.
Each call records a span (name, start, end, parent, op id) in memory;
``write`` dumps them as JSON lines when the run ends.

``CircleMap.lift`` is called about a million times per pass of the
``checks`` workload, so its spans are not stored one by one: they are
aggregated per parent span into (calls, seconds, points) records.  The
parent's self time still excludes them.

Each process writes its spans to ``<path>.<pid>``.  A process forked
from a traced process (a pool worker) starts its own span list on its
first span and writes it when the worker exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from circletau import dynamics, experiments, linearize, maps, uniformize, welding

# (owner, attribute, span name); owners that are modules mean "patch every
# circletau module binding of this function"
TARGETS = [
    (uniformize, "complex_rotation_number", "complex_rotation_number"),
    (uniformize, "boundary_tau", "boundary_tau"),
    (uniformize.ConjugacySolution, "phi_prime", "ConjugacySolution.phi_prime"),
    (np.linalg, "lstsq", "numpy.linalg.lstsq"),
    (dynamics, "compare_to_rational", "compare_to_rational"),
    (dynamics, "minimize_scalar", "minimize_scalar"),
    (dynamics, "plateau", "plateau"),
    (dynamics, "find_cycles", "find_cycles"),
    (dynamics, "rotation_estimate", "rotation_estimate"),
    (maps.CircleMap, "lift", "CircleMap.lift"),
    (maps, "total_distortion", "total_distortion"),
    (experiments, "count_periodic_points", "count_periodic_points"),
    (experiments, "trace_bubble", "trace_bubble"),
    (experiments, "liouville_measure_estimate", "liouville_measure_estimate"),
    (experiments, "tsujii_gap", "tsujii_gap"),
    (linearize, "sigma", "sigma"),
    (welding, "welding_constant", "welding_constant"),
    (ProcessPoolExecutor, "map", "ProcessPoolExecutor.map"),
]

AGGREGATED = "CircleMap.lift"
_SOLVE_SIG = inspect.signature(uniformize.complex_rotation_number)
_BOUNDARY_SIG = inspect.signature(uniformize.boundary_tau)


def _solve_attrs(args, kwargs, result):
    bound = _SOLVE_SIG.bind(*args, **kwargs).arguments
    return {"N": int(bound.get("n_modes", 64))}


def _boundary_attrs(args, kwargs, result):
    bound = _BOUNDARY_SIG.bind(*args, **kwargs).arguments
    target = bound.get("resid_target", 3e-7)
    return {
        "rungs": len(result.rungs),
        "missed": sum(1 for r in result.rungs if r.residual > target),
        "err": result.error_estimate,
    }


def _lstsq_attrs(args, kwargs, result):
    m, n = np.shape(args[0])
    return {"M": int(m), "cols": int(n)}


ATTRS = {
    "complex_rotation_number": _solve_attrs,
    "boundary_tau": _boundary_attrs,
    "numpy.linalg.lstsq": _lstsq_attrs,
}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, path: str, op: str = ""):
        self.path = path
        self.op = op
        self.pid = os.getpid()
        # [name, start, end, parent, op, child seconds, attrs,
        #  lift calls, lift points, lift seconds] -- the lift columns count the
        #  CircleMap.lift calls made directly under this span
        self.spans = []
        self.root_lifts = self._root()
        self.stack = []
        self.worker = False
        self._saved = []

    # -- recording -------------------------------------------------------

    @staticmethod
    def _root():
        return [AGGREGATED, None, None, -1, "", 0.0, None, 0, 0, 0.0]

    def _enter_process(self):
        if os.getpid() != self.pid:  # first span in a forked pool worker
            self.pid = os.getpid()
            self.worker = True
            self.spans, self.root_lifts, self.stack = [], self._root(), []
            multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def wrap(self, fn, name):
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        if name == AGGREGATED:
            @functools.wraps(fn)
            def lift(map_self, z, *args, **kwargs):
                t0 = clock()
                try:
                    return fn(map_self, z, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec = self.spans[self.stack[-1]] if self.stack else self.root_lifts
                    rec[5] += dt
                    rec[7] += 1
                    rec[8] += getattr(z, "size", 1)
                    rec[9] += dt

            return lift

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter_process()
            parent = self.stack[-1] if self.stack else -1
            rec = [name, clock(), None, parent, self.op, 0.0, None, 0, 0, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                if name == "ProcessPoolExecutor.map":
                    result = iter(list(result))  # the parent blocks here
                return result
            finally:
                rec[2] = clock()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += rec[2] - rec[1]
                if attrs_of is not None:
                    try:
                        rec[6] = attrs_of(args, kwargs, result)
                    except (AttributeError, TypeError):
                        rec[6] = {"raised": True}

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "circletau" or k.startswith("circletau.")]
        for owner, attr, name in TARGETS:
            original = inspect.getattr_static(owner, attr)
            wrapped = self.wrap(getattr(owner, attr), name)
            self._patch(owner, attr, original, wrapped)
            if inspect.ismodule(owner):
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output ----------------------------------------------------------

    def write(self):
        """Write this process's spans to ``<path>.<pid>``."""
        path = f"{self.path}.{self.pid}"
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans + [self.root_lifts]):
                name, t0, t1, parent, op, child, attrs, calls, points, secs = rec
                common = {"op": op, "pid": self.pid, "worker": self.worker}
                if t0 is not None:
                    span = {"id": i, "name": name, "start": t0, "end": t1,
                            "parent": parent, "self": (t1 - t0) - child, **common}
                    fh.write(json.dumps({**span, **(attrs or {})}) + "\n")
                if calls:
                    fh.write(json.dumps({
                        "name": AGGREGATED, "parent": i if t0 is not None else -1,
                        "calls": calls, "points": points, "seconds": secs,
                        "self": secs, **common,
                    }) + "\n")
        return path

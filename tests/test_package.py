import ast
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import circletau


def test_all_names_resolve_to_public_objects():
    assert len(set(circletau.__all__)) == len(circletau.__all__)
    for name in circletau.__all__:
        obj = getattr(circletau, name)
        assert not isinstance(obj, types.ModuleType), name



SRC = pathlib.Path(circletau.__file__).resolve().parent


def _referenced(tree) -> set:
    """Names a module reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_dead_top_level_names():
    """Every top-level import is used in its module, and every private
    top-level function, class or constant is referenced somewhere in the
    package."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used_anywhere = set().union(*(_referenced(t) for t in trees.values()))
    dead = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if getattr(stmt, "module", None) == "__future__":
                    continue
                for alias in stmt.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loaded:
                        dead.append(f"{name}: unused import {bound}")
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for top in defined:
                private = top.startswith("_") and not top.startswith("__")
                if private and top not in used_anywhere:
                    dead.append(f"{name}: unreferenced {top}")
    assert dead == []


REPO = pathlib.Path(__file__).resolve().parents[1]


def _unreferenced_public(folders) -> list:
    """Public functions, methods, properties and classes of the package
    that no file in folders references besides their own definition; the
    package's re-exports in __init__.py do not count."""
    refs = set()
    for folder in folders:
        for path in sorted((REPO / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path == REPO / "src" / "circletau" / "__init__.py":
                tree.body = [s for s in tree.body if not isinstance(s, ast.ImportFrom)]
            refs |= _referenced(tree)
    unreferenced = []
    for path in sorted((REPO / "src" / "circletau").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                named = [(stmt.name, stmt.name)]
            elif isinstance(stmt, ast.ClassDef):
                named = [(stmt.name, stmt.name)] + [
                    (m.name, f"{stmt.name}.{m.name}")
                    for m in stmt.body if isinstance(m, ast.FunctionDef)
                ]
            else:
                continue
            unreferenced += [f"{path.name}: {qualname}" for name, qualname in named
                             if not name.startswith("_") and name not in refs]
    return unreferenced


def test_no_unreferenced_public_names():
    """Every public function, method, property or class of the package is
    referenced somewhere in src/, tests/, demos/ or perfbench/."""
    assert _unreferenced_public(("src", "tests", "demos", "perfbench")) == []


# The public names that only tests reach and that stay: the paper-level
# API kept for users, phi_prime (perfbench/tracer.py patches it by name,
# which the scan cannot see) and the properties of the result reports.
TEST_ONLY_API = {
    "dynamics.py: denjoy_distortion",
    # kept only because perfbench/tracer.py patches it by name; it goes
    # when the tracer stops patching it (ROADMAP item 1)
    "experiments.py: count_periodic_points",
    "linearize.py: linearizing_inverse",
    "linearize.py: QcTwistCheck.within_base",
    "linearize.py: QcTwistCheck.within_iterated",
    "maps.py: CircleMap.mirrored",
    "uniformize.py: ConjugacySolution.non_injective",
    "uniformize.py: ConjugacySolution.phi_prime",
    "uniformize.py: BoundaryValue.rungs_missed",
    "uniformize.py: BoundaryValue.max_rung_residual",
    "welding.py: AsymptoteReport.decreasing",
    "welding.py: asymptote_check",
}


def test_no_public_names_only_tests_reach():
    """Every public function, method, property or class of the package is
    referenced in src/, demos/ or perfbench/, or is listed in TEST_ONLY_API;
    every listed name still exists and is still reached only by tests."""
    assert sorted(_unreferenced_public(("src", "demos", "perfbench"))) == sorted(TEST_ONLY_API)


def _defaulted_params(func: ast.FunctionDef, is_method: bool):
    """(name, positional index or None) of each defaulted, non-underscore
    parameter; the index counts from the first argument a call passes."""
    pos = func.args.posonlyargs + func.args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    skip = int(is_method and not static)
    out = [(a.arg, i - skip) for i, a in enumerate(pos)
           if i >= len(pos) - len(func.args.defaults)]
    out += [(a.arg, None) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
            if d is not None]
    return [(name, i) for name, i in out if not name.startswith("_")]


def test_every_defaulted_parameter_is_set_by_a_call():
    """Every defaulted, non-underscore parameter of a public function or
    method of the package is set, by keyword or by position, by some call
    in src/, tests/, demos/ or perfbench/.  Calls are matched by the
    callee's name, and a call to a class is a call to its __init__."""
    params = []  # (qualname, callee name, parameter, positional index)
    for path in sorted((REPO / "src" / "circletau").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                params += [(f"{path.name}: {stmt.name}", stmt.name, n, i)
                           for n, i in _defaulted_params(stmt, False)]
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for m in stmt.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    callee = stmt.name if m.name == "__init__" else m.name
                    if callee.startswith("_"):
                        continue
                    params += [(f"{path.name}: {stmt.name}.{m.name}", callee, n, i)
                               for n, i in _defaulted_params(m, True)]
    set_by_call = set()  # (callee name, parameter name or positional index)
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    set_by_call |= {(name, k.arg) for k in node.keywords if k.arg}
                    set_by_call |= {(name, i) for i, a in enumerate(node.args)
                                    if not isinstance(a, ast.Starred)}
    unset = [f"{qualname}({name})" for qualname, callee, name, index in params
             if (callee, name) not in set_by_call and (callee, index) not in set_by_call]
    assert unset == []


def test_only_the_cli_knows_file_layouts():
    """cli.py is the one module that imports json or csv, and no function
    or method outside it has json or csv in its name: the library returns
    dataclasses and the CLI lays out every file it writes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if "json" in n.lower() or "csv" in n.lower()]
    assert found == []


def test_tracer_targets_resolve():
    """Every entry point perfbench/tracer.py patches by name still exists,
    so a deletion in the package cannot break a traced benchmark run."""
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _ in tracer.TARGETS:
        inspect.getattr_static(owner, attr)


def test_cli_import_skips_scipy_integrate():
    """Importing the CLI leaves scipy.integrate unimported: it costs every
    CLI call, --version included, 34-43 ms by -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, circletau.cli; print('scipy.integrate' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_skips_scipy_beyond_linalg():
    """Importing the CLI loads no scipy module at all, scipy.linalg
    included, and on Linux maps exactly one OpenBLAS, numpy's: the solve's
    four LAPACK routines come from numpy's own library (circletau._lapack).
    Every process pays for what the import loads, the pool workers of
    trace and atlas too."""
    code = (
        "import json, pathlib, sys, circletau.cli\n"
        "maps = pathlib.Path('/proc/self/maps')\n"
        "libs = {line.split()[-1] for line in maps.read_text().splitlines()"
        " if 'openblas' in line.rsplit('/', 1)[-1].lower()} if maps.exists() else None\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " None if libs is None else sorted(libs)]))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, check=True, capture_output=True, text=True, timeout=60)
    scipy_modules, openblas = json.loads(out.stdout)
    assert scipy_modules == []
    if sys.platform.startswith("linux"):
        assert openblas is not None and len(openblas) == 1, openblas


def test_no_module_imports_scipy():
    """No module of the package imports scipy: numpy is its only runtime
    dependency, and scipy is left to the tests as their oracle."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found.append((path.name, node.module))
    assert found == []


def test_runtime_dependency_is_numpy_only():
    """pyproject.toml lists numpy as the only runtime dependency; scipy
    is a test dependency."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[<>=!~ \[;]", d, maxsplit=1)[0] for d in project["dependencies"]]
    assert names == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])

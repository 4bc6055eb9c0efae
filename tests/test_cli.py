import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from circletau import experiments
from circletau.cli import main
from circletau.errors import IllConditioned
from circletau.uniformize import BoundaryValue, UpperHalfPoint

B = 1.0 / (4.0 * math.pi)
ROT_MAP = json.dumps({"mean_shift": 0.3, "cos": [], "sin": []})
ARNOLD_MAP = json.dumps({"mean_shift": 0.0, "sin": [B]})


def run(*args):
    return main(list(args))


class TestBasicCommands:
    def test_tau_rotation(self, tmp_path):
        rc = run("tau", "--map", ROT_MAP, "--omega", "0.1,0.2",
                 "--out", str(tmp_path), "--n", "8")
        assert rc == 0
        payload = json.loads((tmp_path / "tau.json").read_text())
        assert payload["tau_re"] == pytest.approx(0.4, abs=1e-12)
        assert payload["tau_im"] == pytest.approx(0.2, abs=1e-12)

    def test_weld_rotation(self, tmp_path):
        rc = run("weld", "--map", json.dumps({"mean_shift": 0.25}),
                 "--out", str(tmp_path))
        assert rc == 0
        payload = json.loads((tmp_path / "weld.json").read_text())
        assert payload["c_f_re"] == pytest.approx(0.25, abs=1e-12)
        assert payload["c_f_im"] == pytest.approx(0.0, abs=1e-12)

    def test_rot_and_cycles(self, tmp_path):
        assert run("rot", "--map", ARNOLD_MAP, "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "rot.json").read_text())["rot"] == 0.0
        assert run("cycles", "--map", ARNOLD_MAP, "--pq", "0/1",
                   "--out", str(tmp_path)) == 0
        rows = list(csv.DictReader((tmp_path / "cycles.csv").read_text().splitlines()))
        assert len(rows) == 2
        assert {r["kind"] for r in rows} == {"attracting", "repelling"}

    def test_boundary(self, tmp_path):
        rc = run("boundary", "--map", ROT_MAP, "--omega", "0.0",
                 "--ladder", "0.4,0.2,0.1", "--out", str(tmp_path))
        assert rc == 0
        payload = json.loads((tmp_path / "boundary.json").read_text())
        assert payload["tau_re"] == pytest.approx(0.3, abs=1e-10)
        assert payload["tau_im"] == pytest.approx(0.0, abs=1e-10)

    def test_sigma(self, tmp_path):
        rc = run("sigma", "--map", ARNOLD_MAP, "--pq", "0/1",
                 "--out", str(tmp_path))
        assert rc == 0
        payload = json.loads((tmp_path / "sigma.json").read_text())
        expected = math.pi / math.log(1.5) + math.pi / math.log(2.0)
        assert payload["sigma_im"] == pytest.approx(expected, rel=1e-9)

    def test_map_from_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(ROT_MAP)
        assert run("rot", "--map", str(path), "--out", str(tmp_path)) == 0


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        assert run("tau", "--map", ROT_MAP, "--omega", "0.1,0.2",
                   "--out", str(tmp_path), "--n", "4") == 2
        assert run("tau", "--map", ROT_MAP, "--out", str(tmp_path)) == 2
        assert run("rot", "--map", "not json at all",
                   "--out", str(tmp_path)) == 2
        assert run("tau", "--map", ROT_MAP, "--omega", "0.1,0.2",
                   "--emit", "pdf", "--out", str(tmp_path)) == 2

    def test_m_is_checked_by_the_library(self, tmp_path, capsys):
        floor = "m_points must be >= 4*n_modes + 4, got 30"
        assert run("tau", "--map", ROT_MAP, "--omega", "0.1,0.2", "--n", "8",
                   "--m", "30", "--out", str(tmp_path)) == 2
        assert floor in capsys.readouterr().err
        assert run("weld", "--map", ROT_MAP, "--m", "30", "--out", str(tmp_path)) == 2
        assert floor in capsys.readouterr().err
        # commands that take no --m ignore it
        assert run("rot", "--map", ROT_MAP, "--n", "8", "--m", "10",
                   "--out", str(tmp_path)) == 0

    def test_boundary_refuses_complex_omega_and_one_rung(self, tmp_path, capsys):
        assert run("boundary", "--map", ROT_MAP, "--omega", "0,0.1",
                   "--out", str(tmp_path)) == 2
        assert "imaginary part 0.1" in capsys.readouterr().err
        assert run("boundary", "--map", ROT_MAP, "--omega", "0",
                   "--ladder", "0.1", "--out", str(tmp_path)) == 2
        assert "two rungs" in capsys.readouterr().err
        assert not (tmp_path / "boundary.json").exists()

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # a rotation family has a point plateau: trace must fail loudly
        rc = run("trace", "--map", ROT_MAP, "--pq", "0/1",
                 "--out", str(tmp_path), "--workers", "1", "--samples", "6")
        assert rc == 3
        assert "EmptyPlateau" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ['{"mean_shift": Infinity, "sin": [0.05]}',
                                      '{"mean_shift": NaN}', '{"sin": [NaN]}'])
    @pytest.mark.parametrize("command", [("rot",), ("tau", "--omega", "0.1,0.2", "--n", "8")])
    def test_non_finite_map_is_2(self, tmp_path, capsys, spec, command):
        assert run(*command, "--map", spec, "--out", str(tmp_path)) == 2
        assert "map coefficients must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args, message", [
        (("rot", "--tol", "nan"), "--tol must be positive"),
        (("tau", "--omega", "0.1,nan", "--n", "8"), "omega must be finite"),
        (("boundary", "--omega", "nan", "--ladder", "0.4,0.2,0.1"), "omega must be finite"),
        (("boundary", "--omega", "0", "--ladder", "0.2,nan"), "positive finite heights"),
    ])
    def test_non_finite_scalar_is_2(self, tmp_path, capsys, args, message):
        assert run(*args, "--map", ROT_MAP, "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, emit, files", [
        (("rot", "--map", ROT_MAP), "json", ["rot.json"]),
        (("rot", "--map", ROT_MAP), "csv,svg", []),
        (("cycles", "--map", ARNOLD_MAP, "--pq", "0/1"), "csv", ["cycles.csv"]),
        (("cycles", "--map", ARNOLD_MAP, "--pq", "0/1"), "svg", []),
        (("tau", "--map", ROT_MAP, "--omega", "0.1,0.2", "--n", "8"), "csv", ["tau.csv"]),
        (("tau", "--map", ROT_MAP, "--omega", "0.1,0.2", "--n", "8"), "json", ["tau.json"]),
        (("tau", "--map", ROT_MAP, "--omega", "0.1,0.2", "--n", "8"), "svg", []),
        (("weld", "--map", ROT_MAP, "--n", "8"), "csv", []),
    ])
    def test_emit_selects_the_files(self, tmp_path, capsys, command, emit, files):
        # every command writes only the listed formats, and exits 2 when it
        # writes none of them (tau, rot and cycles used to ignore --emit)
        rc = run(*command, "--emit", emit, "--out", str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == files
        if files:
            assert rc == 0
        else:
            assert rc == 2
            assert f"which --emit '{emit}' leaves out" in capsys.readouterr().err

    def test_unknown_command_is_2(self, tmp_path):
        assert run("frobnicate", "--map", ROT_MAP) == 2

    def test_atlas_needs_a_period(self, tmp_path, capsys):
        for qmax in ("0", "-1"):
            assert run("atlas", "--map", ARNOLD_MAP, "--qmax", qmax, "--workers", "1",
                       "--out", str(tmp_path)) == 2
            assert f"q_max must be >= 1, got {qmax}" in capsys.readouterr().err
        assert not (tmp_path / "atlas.csv").exists()

    @pytest.mark.parametrize("command", [("trace", "--pq", "0/1"), ("atlas", "--qmax", "1")])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_must_be_positive(self, tmp_path, capsys, command, workers):
        assert run(*command, "--map", ARNOLD_MAP, "--workers", workers, "--samples", "6",
                   "--out", str(tmp_path)) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            os.makedirs(d)
            assert run("tau", "--map", ARNOLD_MAP, "--omega", "0.1,0.3",
                       "--out", str(d), "--n", "32") == 0
            assert run("weld", "--map", ARNOLD_MAP, "--out", str(d)) == 0
            outs.append(
                ((d / "tau.json").read_bytes(),
                 (d / "weld.json").read_bytes())
            )
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("trace")
    rc = run("trace", "--map", ARNOLD_MAP, "--pq", "0/1",
             "--samples", "6", "--workers", "1", "--out", str(d))
    assert rc == 0
    return d


class TestTraceOutputs:
    def test_csv_reingests_with_invariants(self, trace_dir):
        rows = list(csv.DictReader((trace_dir / "trace.csv").read_text().splitlines()))
        assert len(rows) == 6
        for r in rows:
            tau_re, tau_im = float(r["tau_re"]), float(r["tau_im"])
            h = float(r["h"])
            dx = (tau_re - 0.0 + 0.5) % 1.0 - 0.5
            assert h == pytest.approx((dx * dx + tau_im**2) / max(tau_im, 1e-12),
                                      rel=1e-9)
            assert tau_im >= 0.0

    def test_endpoint_json(self, trace_dir):
        payload = json.loads((trace_dir / "trace_endpoints.json").read_text())
        assert payload["left"]["kind"] == "real"
        assert payload["right"]["kind"] == "real"

    def test_svg_emitted(self, trace_dir):
        svg = (trace_dir / "trace.svg").read_text()
        assert svg.startswith("<svg")
        assert "exaggerated" in svg
        assert "<polyline" in svg


def test_atlas(tmp_path):
    rc = run("atlas", "--map", ARNOLD_MAP, "--qmax", "1", "--samples", "6",
             "--workers", "1", "--out", str(tmp_path))
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "atlas.csv").read_text().splitlines()))
    assert len(rows) == 6 and all(r["q"] == "1" for r in rows)
    svg = (tmp_path / "atlas.svg").read_text()
    assert "<ellipse" in svg  # tangent disks at each p/q


def test_atlas_names_skipped_plateaus(tmp_path, monkeypatch, capsys):
    def stub(map, omega, edge_distance=None, **kwargs):
        if omega > 0.25:
            raise IllConditioned(f"stub refuses omega = {omega:.3f}")
        z = complex(omega, abs(edge_distance))
        return BoundaryValue(UpperHalfPoint(z.real, z.imag), z, 1e-9, (), "stub", omega)

    monkeypatch.setattr(experiments, "boundary_tau", stub)
    rc = run("atlas", "--map", ARNOLD_MAP, "--qmax", "2", "--samples", "6",
             "--workers", "1", "--out", str(tmp_path))
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "atlas.csv").read_text().splitlines()))
    assert len(rows) == 6 and {(r["p"], r["q"]) for r in rows} == {("0", "1")}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("skipped 1/2: IllConditioned: stub refuses")


def test_atlas_pool_matches_serial(tmp_path):
    """The process-pool path writes the same bytes as the in-process one."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        subprocess.run(
            [sys.executable, "-m", "circletau.cli", "atlas", "--map", ARNOLD_MAP,
             "--qmax", "2", "--samples", "6", "--workers", workers, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outs.append((out / "atlas.csv").read_bytes())
    assert outs[0] == outs[1]

import csv
import json
import math
import os

import pytest

from circletau.cli import main

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

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # a rotation family has a point plateau: trace must fail loudly
        rc = run("trace", "--map", ROT_MAP, "--pq", "0/1",
                 "--out", str(tmp_path), "--workers", "1", "--samples", "6")
        assert rc == 3
        assert "EmptyPlateau" in capsys.readouterr().err

    def test_unknown_command_is_2(self, tmp_path):
        assert run("frobnicate", "--map", ROT_MAP) == 2


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

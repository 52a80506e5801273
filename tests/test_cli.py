import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import solvflow
import solvflow.cli as cli
import solvflow.flow
from solvflow import FlowKind, Terminal, validate

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def write_config(path, doc, payload=None):
    """Write a config file; `payload` goes to a sibling input file."""
    if payload is not None:
        (path.parent / "input.json").write_text(json.dumps(payload))
        doc = dict(doc, input="input.json")
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_config(tmp_path, rows, out, flow=None, name="cfg.json", **extra):
    doc = {"output_dir": str(out)}
    if flow:
        doc["flow"] = flow
    doc.update(extra)
    return write_config(tmp_path / name, doc, payload={"matrix": rows})


# ---------------------------------------------------------------------------
# configuration errors


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"flowz": {}},
                       payload={"matrix": [[0.0]]})
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 2
    assert "unknown key 'flowz'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["t_endd", "max_step", "init_step"])
def test_unknown_flow_key(tmp_path, capsys, key):
    # a misspelling, and keys FlowSpec does not have: step sizes come from
    # error control alone
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]],
                        tmp_path / "out", flow={key: 5.0})
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_flow_keys_are_flowspec_fields_and_readme_schema():
    fields = {f.name for f in dataclasses.fields(solvflow.FlowSpec)}
    assert cli._FLOW_KEYS == fields - {"a0"}
    block = re.search(r"Config schema.*?```json\n(.*?)```",
                      (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    assert set(json.loads(block)["flow"]) == cli._FLOW_KEYS


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    rc = cli.main(["simulate", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_no_partial_output_on_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out,
                        flow={"bogus": 1.0})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert not out.exists()


def test_overwrite_guard_and_force(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[0.0, 1.0], [-1.0, 0.0]], out,
                        flow={"t_end": 1.0})
    assert cli.main(["classify", "--config", cfg]) == 0
    assert cli.main(["classify", "--config", cfg]) == 2
    first = (out / "classify.json").read_bytes()
    assert cli.main(["classify", "--config", cfg, "--force"]) == 0
    assert (out / "classify.json").read_bytes() == first


_GRID = {"half_width": 1.0, "points": 3}


@pytest.mark.parametrize("command, payload, flags, key", [
    ("phase-plane", _GRID, ["--tol", "2"], "rel_tol"),
    ("phase-plane", _GRID, ["--t-end", "-1"], "t_end"),
    ("phase-plane", _GRID, ["--t-end", "nan"], "t_end"),
    ("phase-plane", {"half_width": math.nan, "points": 3}, [], "half_width"),
    ("ejsol", {"lambda": math.nan}, [], "lambda"),
    ("ejsol", {"lambda": 0.2}, ["--t-end", "-3"], "t_end"),
    ("ejsol", {"lambda": 0.2}, ["--t-end", "nan"], "t_end"),
    # values that pass a plain range check but overflow or underflow later
    ("classify", {"matrix": [[0.0, 0.0], [0.0, 0.0]]}, [], "matrix"),
    ("ejsol", {"lambda": 1e200}, [], "lambda"),
    ("ejsol", {"lambda": 0.2, "alpha0": 1e-200}, [], "alpha0"),
    ("ejsol", {"lambda": 0.2}, ["--t-end", "1e308"], "t_end"),
])
def test_bad_flow_values_exit_before_writing(tmp_path, capsys, command,
                                             payload, flags, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload=payload)
    assert cli.main([command, "--config", cfg, *flags]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flow", [
    {"t_end": "abc"}, {"t_end": None}, {"kind": "brackett"},
])
def test_flow_value_flowspec_rejects_exits_2(tmp_path, capsys, flow):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out, flow=flow)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "bad flow specification" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, key", [
    *[pytest.param("phase-plane", _GRID, key, id=f"phase-plane-{key}")
      for key in ("kind", "abs_tol", "sample_stride", "stop_when_stationary")],
    *[pytest.param("ejsol", {"lambda": 0.2}, key, id=f"ejsol-{key}")
      for key in ("rel_tol", "kind")],
])
def test_flow_key_the_command_does_not_read_exits_2(tmp_path, capsys, command,
                                                     payload, key):
    # FlowSpec fields, so simulate reads them; phase-plane reads only t_end
    # and rel_tol, ejsol only t_end
    value = "gradient" if key == "kind" else 0.5
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json",
                       {"flow": {key: value}, "output_dir": str(out)},
                       payload=payload)
    assert cli.main([command, "--config", cfg]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_flow_kind_ignores_case():
    cfg = types.SimpleNamespace(flow={"kind": "Normalized"})
    a0 = np.eye(2) / math.sqrt(2.0)
    assert cli._flow_spec(cfg, a0).kind is FlowKind.NORMALIZED


def test_worker_count_follows_cpu_affinity():
    if hasattr(os, "sched_getaffinity"):
        expected = len(os.sched_getaffinity(0))
    else:
        expected = os.cpu_count() or 1
    assert cli._worker_count() == expected


def test_readme_config_example_runs_verbatim(tmp_path, monkeypatch, capsys):
    readme = ROOT / "README.md"
    block = re.search(r"Config schema.*?```json\n(.*?)```", readme.read_text(),
                      re.DOTALL).group(1)
    doc = json.loads(block)
    (tmp_path / "cfg.json").write_text(block)
    (tmp_path / doc["input"]).write_text('{"matrix": [[1, 0], [0, -1]]}')
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["simulate", "--config", "cfg.json"])
    assert rc == 0, capsys.readouterr().err
    report = json.loads((tmp_path / doc["output_dir"] / "monitor.json").read_text())
    assert report["terminal"] == "reached_t_end"


# ---------------------------------------------------------------------------
# simulate


@pytest.mark.parametrize("flow", [
    {"t_end": 1e12, "sample_stride": 1e-3},  # a grid of petabytes
    {"t_end": 1e5, "sample_stride": 0.999},  # just over the cap
])
def test_simulate_rejects_oversized_sample_grid(tmp_path, capsys, flow):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out, flow=flow)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert f"more than {cli._MAX_SAMPLES} samples" in capsys.readouterr().err
    assert not out.exists()


def test_sample_grid_cap_admits_the_cap():
    cfg = types.SimpleNamespace(flow={"t_end": float(cli._MAX_SAMPLES),
                                      "sample_stride": 1.0})
    spec = cli._flow_spec(cfg, np.eye(2))
    assert spec.t_end / spec.sample_stride == cli._MAX_SAMPLES


def _full_matrix(entry):
    return {"matrix": [[entry, entry], [entry, entry]]}


_OVERFLOWING_INPUTS = {
    "matrix": _full_matrix(1e155),
    "structure-constants": {"dim": 3, "structure_constants": [[0, 1, 2, 1e155]]},
}


@pytest.mark.parametrize("command, payload", [
    *[pytest.param(command, payload, id=f"{name}-{command}")
      for name, payload in _OVERFLOWING_INPUTS.items()
      for command in ("simulate", "classify", "curvature")],
    # a finite squared norm, but the rhs at A0 overflows: no first step
    pytest.param("simulate", _full_matrix(1e100), id="matrix-1e100-simulate"),
    # a finite squared norm, but ||A||^3 overflows
    pytest.param("classify", _full_matrix(1e120), id="matrix-1e120-classify"),
    pytest.param("classify", _full_matrix(5e153), id="matrix-5e153-classify"),
    # a finite ||A||^3, but the curvature report does not stay finite:
    # ||Riem|| is inf at 1e100, the scalar curvature too at 5e153
    pytest.param("curvature", _full_matrix(1e100),
                 id="matrix-1e100-curvature"),
    pytest.param("classify", _full_matrix(1e100), id="matrix-1e100-classify"),
    # a finite curvature report, but the soliton residuals overflow
    pytest.param("classify", {"matrix": [[1e75, 2e75], [0.0, -1e75]]},
                 id="matrix-1e75-classify"),
    pytest.param("curvature", _full_matrix(5e153),
                 id="matrix-5e153-curvature"),
])
def test_input_with_overflowing_squared_norm_exits_2(tmp_path, capsys,
                                                    command, payload):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload=payload)
    assert cli.main([command, "--config", cfg]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_skew_start_is_stationary(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[0.0, 2.0], [-2.0, 0.0]], out,
                        flow={"t_end": 5.0, "stop_when_stationary": 1e-10})
    assert cli.main(["simulate", "--config", cfg]) == 0
    report = json.loads((out / "monitor.json").read_text())
    assert report["terminal"] == "stationary"
    assert report["violation_count"] == 0
    assert report["type3"]["sup"] == 0.0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0].startswith("t,a11")


def test_simulate_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out,
                        flow={"t_end": 10.0, "rel_tol": 1e-10,
                              "sample_stride": 1.0})
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        vals = dict(zip(header, map(float, line.split(","))))
        expect = (4.0 * vals["t"] + 1.0) ** -0.5
        assert vals["a11"] == pytest.approx(expect, abs=1e-8)
        assert vals["a22"] == pytest.approx(-expect, abs=1e-8)
    diags = [json.loads(s)
             for s in (out / "diagnostics.jsonl").read_text().splitlines()]
    assert len(diags) == len(lines) - 1
    stats = json.loads((out / "monitor.json").read_text())["stats"]
    assert set(stats) == {"accepted", "rejected", "rejected_error",
                          "rejected_nonfinite", "rejected_drift", "rhs_evals",
                          "h_min", "h_max", "h_next", "q_last", "t_stop"}
    assert stats["t_stop"] == 10.0
    assert diags[0]["norm_sq"] == pytest.approx(2.0)
    # the spectrum is real here and still goes out as [re, im] pairs
    for row in diags:
        assert len(row["spectrum"]) == 2
        assert all(isinstance(pair, list) and len(pair) == 2
                   and pair[1] == 0.0 for pair in row["spectrum"])


@pytest.mark.parametrize("rows, case", [
    ([[0.3, -1.0, 0.2], [1.2, 0.1, 0.0], [0.0, 0.5, -0.4]], "complex"),
    ([[1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, 0.25]], "real"),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "nilpotent"),
])
def test_diagnostics_jsonl_is_per_line_dumps(tmp_path, monkeypatch, rows, case):
    runs = []
    monkeypatch.setattr(cli, "_JSONL_CHUNK", 7)  # several chunks, one short
    monkeypatch.setattr(cli, "integrate", lambda spec: runs.append(
        solvflow.flow.integrate(spec)) or runs[-1])
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, rows, out,
                        flow={"t_end": 5.0, "sample_stride": 0.05})
    assert cli.main(["simulate", "--config", cfg]) == 0
    traj, = runs
    d, k = traj.diagnostics, len(traj.times)
    assert {"complex": np.any(d.spectra.imag != 0.0),
            "real": np.all(d.spectra.imag == 0.0) and d.a_of_t is not None,
            "nilpotent": d.a_of_t is None}[case]
    columns = dict(vars(d), t=traj.times, spectrum=d.spectra.astype(complex),
                   a_of_t=[None] * k if d.a_of_t is None else d.a_of_t)
    del columns["spectra"]
    want = "".join(
        cli._dumps({key: col[i] for key, col in columns.items()},
                   compact=True) + "\n" for i in range(k))
    assert (out / "diagnostics.jsonl").read_bytes() == want.encode()


def test_simulate_step_failure_exit_code(tmp_path, monkeypatch):
    a0 = np.array([[1.0, 0.0], [0.0, -1.0]])
    spec = solvflow.flow.FlowSpec(kind=solvflow.flow.FlowKind.BRACKET,
                                  a0=a0, t_end=0.5, sample_stride=0.1)
    broken = dataclasses.replace(solvflow.flow.integrate(spec),
                                 terminal=Terminal.STEP_FAILURE)
    monkeypatch.setattr(cli, "integrate", lambda spec: broken)
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out,
                        flow={"t_end": 0.5})
    assert cli.main(["simulate", "--config", cfg]) == 3
    report = json.loads((out / "monitor.json").read_text())
    assert report["terminal"] == "step_failure"


# ---------------------------------------------------------------------------
# classify


def test_classify_nilpotent_matrix(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[0.0, 1.0], [0.0, 0.0]], out)
    assert cli.main(["classify", "--config", cfg]) == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["soliton"]["label"] == "NilpotentSoliton"
    assert doc["soliton"]["c"] == pytest.approx(-2.0)
    assert doc["curvature"]["heintze"]["negative"] is False
    assert json.loads(capsys.readouterr().out) == doc


def test_classify_identity_matrix(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, 1.0]], out)
    assert cli.main(["classify", "--config", cfg]) == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["soliton"]["label"] == "NormalSoliton"
    assert doc["soliton"]["soliton_constant"] == pytest.approx(-2.0)
    assert doc["curvature"]["heintze"]["negative"] is True
    assert doc["curvature"]["sectional_max"] < 0.0


def test_classify_algebra_input(tmp_path):
    # heisenberg: [e0, e1] = e2, triples in canonical i < j form
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload={"dim": 3,
                                "structure_constants": [[0, 1, 2, 1.0]]})
    assert cli.main(["classify", "--config", cfg]) == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["input_kind"] == "algebra"
    assert doc["soliton"]["accepted"] is True


@pytest.mark.parametrize("payload", [
    {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
    {"matrix": [[0.0, 1.0], [0.0, 0.0]]},
    {"dim": 3, "structure_constants": [[0, 1, 2, 1.0]]},
], ids=["diag12", "e12", "heisenberg"])
def test_classify_writes_derivation_as_exact_array(tmp_path, capsys, payload):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload=payload)
    assert cli.main(["classify", "--config", cfg]) == 0
    text = (out / "classify.json").read_text()
    assert capsys.readouterr().out == text
    soliton = json.loads(text)["soliton"]
    if "matrix" in payload:
        verdict = solvflow.classify_soliton(payload["matrix"])
    else:
        verdict = solvflow.certify_algebraic_soliton(
            solvflow.MetricLieAlgebra.from_triples(
                payload["dim"], payload["structure_constants"]))
    assert soliton["accepted"] is verdict.accepted is True
    assert soliton["derivation"] == verdict.derivation.tolist()


# ---------------------------------------------------------------------------
# ejsol and phase-plane


def test_ejsol_rejects_bad_lambda(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"output_dir": str(tmp_path / "out")},
                       payload={"lambda": -0.5})
    assert cli.main(["ejsol", "--config", cfg]) == 2
    assert "lambda" in capsys.readouterr().err


def test_ejsol_document(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json",
                       {"flow": {"t_end": 10.0}, "output_dir": str(out)},
                       payload={"lambda": 0.2, "samples": 5})
    assert cli.main(["ejsol", "--config", cfg]) == 0
    doc = json.loads((out / "ejsol.json").read_text())
    assert doc["c_lambda"] == pytest.approx(1.68)
    assert doc["soliton_certified"] is True
    assert doc["crossing_time"] == 0.0
    assert len(doc["samples"]) == 5
    assert doc["samples"][0]["k13"] == pytest.approx(1.0 / 14.0)


def test_phase_plane_small_grid(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json",
                       {"flow": {"t_end": 1e12}, "output_dir": str(out)},
                       payload={"half_width": 1.0, "points": 5})
    assert cli.main(["phase-plane", "--config", cfg]) == 0
    assert (out / "atlas.csv").exists()
    assert (out / "phase_plane.gp").exists()
    text = capsys.readouterr().out
    assert "antiskew: 4" in text and "diagonal: 8" in text
    assert "x_axis: 4" in text and "y_axis: 4" in text


# ---------------------------------------------------------------------------
# validate


def _short_registry(monkeypatch, names):
    # each check has its own generator, so it gives the same result in a
    # short registry as in the full one, which test_validate.py runs
    monkeypatch.setattr(validate, "_CHECKS",
                        {name: validate._CHECKS[name] for name in names})


def test_validate_passes_and_is_deterministic(tmp_path, monkeypatch, capsys):
    _short_registry(monkeypatch, ["riemann-scaling", "trace-of-commutator",
                                  "phase-specialization"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    c1 = write_config(tmp_path / "c1.json", {"output_dir": str(out1)})
    c2 = write_config(tmp_path / "c2.json", {"output_dir": str(out2)})
    assert cli.main(["validate", "--config", c1]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert text.count("PASS") == len(text.strip().splitlines()) - 1 == 3
    assert cli.main(["validate", "--config", c2]) == 0
    report = (out1 / "validate.json").read_bytes()
    assert report == (out2 / "validate.json").read_bytes()
    assert json.loads(report)["passed"] is True
    assert ([c["name"] for c in json.loads(report)["checks"]]
            == list(validate._CHECKS))


def test_validate_catches_planted_sign_bug(monkeypatch, capsys):
    _short_registry(monkeypatch, ["trace-of-commutator",
                                  "gradient-vs-finite-difference"])
    true_rhs = solvflow.flow.gradient_rhs
    monkeypatch.setattr(solvflow.flow, "gradient_rhs",
                        lambda a: -true_rhs(a))
    assert cli.main(["validate"]) == 4
    captured = capsys.readouterr()
    assert "PASS trace-of-commutator" in captured.out
    assert "FAIL gradient-vs-finite-difference" in captured.out
    assert "gradient-vs-finite-difference" in captured.err


# ---------------------------------------------------------------------------
# demos


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    flow = cli._FLOW_TABLES["simulate"]
    assert set(flow) == fields - {"a0"}
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Demos")]
    schema = json.loads(re.search(r"Config schema.*?```json\n(.*?)```",
                                  section, re.DOTALL).group(1))
    assert set(schema) == set(cli._CONFIG)
    assert set(schema["flow"]) == set(flow)
    # each input file's snippet has its table's keys, and the phase-plane
    # values README calls the defaults are the table's
    snippets = {command: json.loads(text) for command, text in re.findall(
        r"^- (phase-plane|ejsol): `(\{.*?\})`", section, re.MULTILINE)}
    assert set(snippets["phase-plane"]) == set(cli._PHASE_INPUT)
    assert set(snippets["ejsol"]) == set(cli._EJSOL_INPUT)
    assert re.search(r"- phase-plane: `[^`]*` \(optional; these are\s+the"
                     r"\s+defaults\)", section)
    assert snippets["phase-plane"] == {
        key: entry[1] for key, entry in cli._PHASE_INPUT.items()}


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
_MATRIX = {"matrix": [[1.0, 2.0], [0.0, -1.0]]}


_OUT = ["--out", "out"]


@pytest.mark.parametrize("command, config, payload, flags, message", [
    ("classify", None, None, ["--config", "missing.json", *_OUT],
     "cannot read config file"),
    ("classify", "{not json", None, _OUT, "malformed JSON in config file"),
    # a UnicodeDecodeError and a RecursionError ended in a traceback, exit 1
    ("classify", b'{"seed": "\xff"}', None, _OUT,
     "malformed JSON in config file"),
    ("classify", "[" * 100_000, None, _OUT, "malformed JSON in config file"),
    ("classify", "[1, 2]", None, _OUT, "must be a JSON object"),
    ("simulate", {"flow": [1.0]}, _MATRIX, _OUT,
     "config key 'flow' must be an object"),
    ("classify", {"input": 3}, None, _OUT,
     "config key 'input' must be a path string"),
    ("classify", {"output_dir": 3}, _MATRIX, _OUT,
     "config key 'output_dir' must be a string"),
    ("classify", {"seed": -1}, _MATRIX, _OUT,
     "config key 'seed' must be an unsigned integer"),
    ("classify", {"seed": True}, _MATRIX, _OUT,
     "config key 'seed' must be an unsigned integer"),
    ("classify", {}, _MATRIX, ["--tol", "0", *_OUT], "--tol must be positive"),
    ("curvature", {}, _MATRIX, ["--seed", "-1", *_OUT],
     "--seed must be an unsigned integer"),
    ("classify", {}, {"matrix": [[1.0, 2.0]]}, _OUT,
     "expected a square matrix"),
    ("curvature", {}, {"structure_constants": [[0, 1, 1, 1.0]]}, _OUT,
     "needs 'dim' with structure_constants"),
    ("classify", {}, {"lambda": 0.2}, _OUT,
     "must contain 'matrix' or 'structure_constants'"),
    ("classify", {}, {"dim": 0, "structure_constants": []}, _OUT,
     "dimension 0"),
    ("curvature", {}, {"dim": 0, "structure_constants": []}, _OUT,
     "dimension 0"),
    ("curvature", {}, None, _OUT, "command 'curvature' needs an input file"),
    ("classify", {}, _MATRIX, [], "needs an output directory"),
    ("simulate", {}, {"dim": 2, "structure_constants": [[0, 1, 1, 1.0]]},
     _OUT, "simulate needs a matrix input"),
    ("ejsol", {}, None, _OUT, "ejsol needs an input file"),
    ("ejsol", {}, {"samples": 5}, _OUT, "needs 'lambda'"),
    ("curvature", {}, {"dim": 3.5, "structure_constants": [[0, 1, 2, 1.0]]},
     _OUT, "3.5 is not an integer"),
    # --tol inf took [[1, 2], [0, 1]] for a NormalSoliton and --tol nan
    # refused diag(1, -1), both with exit 0
    ("classify", {}, {"matrix": [[1.0, 2.0], [0.0, 1.0]]},
     ["--tol", "inf", *_OUT], "--tol must be positive and finite"),
    ("classify", {}, {"matrix": [[1.0, 0.0], [0.0, -1.0]]},
     ["--tol", "nan", *_OUT], "--tol must be positive and finite"),
    ("validate", None, None, ["--tol", "inf"],
     "--tol must be positive and finite"),
    # input files: "1" and true were read as 1.0, and the triple as
    # (0, 1, 1, 2.5)
    ("classify", {}, {"matrix": [["1", True], [0, "-1"]]}, _OUT,
     "'1' is not a number"),
    ("curvature", {},
     {"dim": 3, "structure_constants": [["0", 1.9, True, "2.5"]]}, _OUT,
     "'0' is not an integer"),
    ("classify", {}, {"dim": 3, "structure_constants": [[0, 1.9, 2, 1.0]]},
     _OUT, "1.9 is not an integer"),
    # a 40-byte input asked numpy for dim^3 doubles: a MemoryError
    ("classify", {}, {"dim": 1000000, "structure_constants": []}, _OUT,
     f"'dim' must be an integer at most {cli._MAX_DIM}"),
    ("curvature", {}, {"dim": cli._MAX_DIM + 1, "structure_constants": []},
     _OUT, f"'dim' must be an integer at most {cli._MAX_DIM}"),
    # json.load reads NaN and Infinity as floats
    ("classify", {}, {"dim": 3, "structure_constants": [[0, 1, 2, math.nan]]},
     _OUT, "non-finite structure constants"),
    ("curvature", {},
     {"dim": 3, "structure_constants": [[0, 1, 2, -math.inf]]}, _OUT,
     "non-finite structure constants"),
    ("classify", {}, {"dim": 3, "structure_constants": [[1, 0, 2, 1.0]]},
     _OUT, "indices out of range"),
    # an integer key takes 2.0 as 2, but not 3.5
    ("classify", {"seed": 3.5}, _MATRIX, _OUT,
     "config key 'seed' must be an unsigned integer"),
], ids=["unreadable-config", "malformed-config", "config-not-utf-8",
        "config-nested-too-deep", "config-not-an-object",
        "flow-not-an-object", "input-not-a-string",
        "output-dir-not-a-string", "negative-seed", "boolean-seed",
        "tol-flag-0", "seed-flag-negative", "matrix-not-square",
        "structure-constants-without-dim", "no-matrix-or-constants",
        "classify-dimension-0", "curvature-dimension-0",
        "no-input", "no-output-dir", "simulate-on-constants",
        "ejsol-without-input", "ejsol-without-lambda",
        "dimension-not-an-integer", "tol-flag-inf", "tol-flag-nan",
        "validate-tol-flag-inf", "matrix-entry-not-a-number",
        "triple-entries-not-typed", "triple-index-not-an-integer",
        "dimension-1e6", "dimension-above-the-bound", "triple-value-nan",
        "triple-value-infinity", "triple-index-i-above-j",
        "seed-not-an-integer"])
def test_config_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys,
                                                command, config, payload,
                                                flags, message):
    # each config error in cli.main's own words, run through the CLI
    monkeypatch.chdir(tmp_path)
    argv = [command, *flags]
    if config is not None:
        if isinstance(config, bytes):
            pathlib.Path("c.json").write_bytes(config)
        elif isinstance(config, str):
            pathlib.Path("c.json").write_text(config)
        else:
            write_config(pathlib.Path("c.json"), config, payload=payload)
        argv += ["--config", "c.json"]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert sorted(tmp_path.rglob("*")) == before


def test_seed_flag_overrides_the_config_seed(tmp_path):
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, _MATRIX["matrix"], out, seed=2.0)
    # an integer key takes 2.0 as 2
    assert cli.main(["curvature", "--config", cfg]) == 0
    assert '"seed": 2\n' in (out / "curvature.json").read_text()
    assert cli.main(["curvature", "--config", cfg, "--seed", "5",
                     "--force"]) == 0
    doc = json.loads((out / "curvature.json").read_text())
    assert doc["curvature"]["seed"] == 5


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
    # one row per sample: the grid is capped as simulate's is
    ("ejsol", {"lambda": 0.2, "samples": cli._MAX_SAMPLES + 1}, [], "samples"),
    # alpha0^2 overflows, and lambda alpha0^2 in K(e_1, e_3)
    ("ejsol", {"lambda": 0.2, "alpha0": 1e160}, [], "alpha0"),
    ("ejsol", {"lambda": 1e150, "alpha0": 1e100}, [], "alpha0"),
    # the velocity at a grid corner overflows: no first step
    ("phase-plane", {"half_width": 2e51, "points": 3}, [], "half_width"),
    ("phase-plane", {"half_width": 1e200, "points": 3}, [], "half_width"),
    # 2 half_width overflowed in linspace before any velocity was checked
    ("phase-plane", {"half_width": 1e308, "points": 3}, [], "half_width"),
    # one file per start: points^2 is capped as simulate's grid is
    ("phase-plane", {"points": 317}, [], "points"),
    # integer keys: int() truncated 3.7 to 3 and parsed "3"
    ("ejsol", {"lambda": 0.2, "samples": 3.7}, [], "samples"),
    ("ejsol", {"lambda": 0.2, "samples": "3"}, [], "samples"),
    ("ejsol", {"lambda": 0.2, "samples": True}, [], "samples"),
    ("phase-plane", {"points": 2.9}, [], "points"),
    ("phase-plane", {"points": "3"}, [], "points"),
    ("phase-plane", {"points": False}, [], "points"),
    # float keys: float() took true as 1.0 and parsed "0.2"
    ("ejsol", {"lambda": True}, [], "lambda"),
    ("ejsol", {"lambda": "0.2"}, [], "lambda"),
    ("phase-plane", {"half_width": True, "points": 3}, [], "half_width"),
    # an integer key takes 3.0 as 3 (test_phase_plane_small_grid), not 3.5
    ("phase-plane", {"points": 3.5}, [], "points"),
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
    {"t_end": True}, {"t_end": "0.5"}, {"t_end": 10**400},
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


def _simulated_spec(tmp_path, monkeypatch, rows, flow):
    """The FlowSpec `simulate` integrates for `rows` and `flow`."""
    specs = []

    def integrate(spec):
        specs.append(spec)
        return solvflow.flow.integrate(spec)
    monkeypatch.setattr(cli, "integrate", integrate)
    cfg = matrix_config(tmp_path, rows, tmp_path / "out", flow=flow)
    assert cli.main(["simulate", "--config", cfg]) == 0
    return specs[0]


def test_flow_kind_ignores_case(tmp_path, monkeypatch):
    a0 = (np.eye(2) / math.sqrt(2.0)).tolist()
    spec = _simulated_spec(tmp_path, monkeypatch, a0,
                           {"kind": "Normalized", "t_end": 0.1})
    assert spec.kind is FlowKind.NORMALIZED


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


def test_sample_grid_cap_admits_the_cap(tmp_path, monkeypatch):
    # a skew start is stationary, so the run stops at its first step
    flow = {"t_end": float(cli._MAX_SAMPLES), "sample_stride": 1.0,
            "stop_when_stationary": 1e-10}
    spec = _simulated_spec(tmp_path, monkeypatch, [[0.0, 1.0], [-1.0, 0.0]],
                           flow)
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
    # a finite squared norm, but values of the document are beyond the
    # range of doubles: ||Riem|| above 1e308
    pytest.param("classify", _full_matrix(5e153), id="matrix-5e153-classify"),
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


_A0 = np.array([[1.0, 2.0, 0.0], [0.5, 1.5, 0.3], [0.0, -0.2, 2.0]])


def _structure_triples(a):
    """Triples (0, i, k, A[k-1, i-1]) of mu_of_a(A)."""
    n = len(a)
    return [[0, i, k, float(a[k - 1][i - 1])] for i in range(1, n + 1)
            for k in range(1, n + 1) if a[k - 1][i - 1] != 0.0]


@pytest.mark.parametrize("command, payload, label", [
    # intermediates overflow at these scales, but every reported value is
    # representable: ||Riem|| near 1e240 or below, O(1) residuals
    pytest.param("classify", _full_matrix(1e120), "NormalSoliton",
                 id="matrix-1e120-classify"),
    pytest.param("curvature", _full_matrix(1e100), None,
                 id="matrix-1e100-curvature"),
    pytest.param("classify", _full_matrix(1e100), "NormalSoliton",
                 id="matrix-1e100-classify"),
    pytest.param("classify", {"matrix": [[1e75, 2e75], [0.0, -1e75]]},
                 "NotSoliton", id="matrix-1e75-classify"),
    # tiny inputs: not a soliton at any scale, and never flat; squares
    # underflow here, and the zero-matrix test once fired at 1e-200
    *[pytest.param("classify", {"matrix": (s * _A0).tolist()}, "NotSoliton",
                   id=f"a0-{s:g}-classify")
      for s in (1e-100, 1e-120, 1e-160, 1e-200, 1e-300)],
    pytest.param("curvature", {"matrix": (1e-300 * _A0).tolist()}, None,
                 id="a0-1e-300-curvature"),
    # the certification's flatness floor once accepted this as a soliton
    pytest.param("classify", {"dim": 4, "structure_constants":
                              _structure_triples(1e-7 * _A0)},
                 "NotSoliton", id="a0-1e-07-structure-classify"),
])
def test_input_with_representable_outputs_exits_0(tmp_path, capsys, command,
                                                  payload, label):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload=payload)
    assert cli.main([command, "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / f"{command}.json").read_text())
    assert doc["curvature"]["flat"] is False
    if label is not None:
        assert doc["soliton"]["label"] == label


# degree in A of each value of a classify or curvature document; the rest
# (labels, flags, residuals, counts) have degree 0
_DEGREE = {"c": 2, "soliton_constant": 2, "derivation": 2, "ricci": 2,
           "scalar": 2, "riem_norm": 2, "sectional_min": 2,
           "sectional_max": 2, "margin_c": 2, "margin_b": 1}


def _divided(doc, k):
    """A parsed document of 2^k A with each value of degree d times 2^-dk."""
    def times(v, e):
        return (None if v is None else [times(x, e) for x in v]
                if isinstance(v, list) else v * 2.0**e)
    if not isinstance(doc, dict):
        return doc
    return {key: times(v, -_DEGREE[key] * k) if key in _DEGREE
            else _divided(v, k) for key, v in doc.items()}


@pytest.mark.parametrize("n", range(1, 9))
def test_documents_are_scale_equivariant_bit_for_bit(tmp_path, n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    mats = {"random": a, "normal": validate._random_normal_matrix(rng, n)}
    if n > 1:  # the 1x1 nilpotent matrix is zero
        mats["nilpotent"] = np.triu(a, 1)
    for name, m in mats.items():
        for structure in (False, True):
            docs = {}
            for k in (0, -60, -1, 1, 30):
                mk = np.ldexp(m, k)
                payload = ({"dim": n + 1,
                            "structure_constants": _structure_triples(mk)}
                           if structure else {"matrix": mk.tolist()})
                cfg = write_config(tmp_path / "c.json", {}, payload=payload)
                for command in ("classify", "curvature"):
                    out = tmp_path / f"{name}-{structure}-{k}-{command}"
                    assert cli.main([command, "--config", cfg,
                                     "--out", str(out)]) == 0
                    doc = json.loads((out / f"{command}.json").read_text())
                    docs[k, command] = cli._dumps(_divided(doc, k))
            for (k, command), text in docs.items():
                assert text == docs[0, command], (name, structure, k, command)


@st.composite
def _inputs(draw):
    """A matrix or the structure constants of mu_of_a of one, n = 1..6,
    with entries 0 or +-10^u, u in [-300, 300], and some structure.

    The exponents spread by up to 30 or up to 600 around one drawn for the
    whole matrix, so that many inputs pass the squared-norm check.
    """
    n = draw(st.integers(1, 6))
    u0 = draw(st.floats(-300.0, 300.0))
    spread = draw(st.sampled_from([30.0, 600.0]))
    entry = st.one_of(st.just(0.0), st.builds(
        lambda sign, u: sign * 10.0**min(max(u0 + u, -300.0), 300.0),
        st.sampled_from([1.0, -1.0]), st.floats(-spread, spread)))
    a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    shape = draw(st.sampled_from(["dense", "triangular", "skew", "normal"]))
    a = {"dense": a, "triangular": np.triu(a), "skew": a - a.T,
         "normal": a + a.T}[shape]
    if draw(st.booleans()):
        return {"dim": n + 1, "structure_constants": _structure_triples(a)}
    return {"matrix": a.tolist()}


def _finite(obj):
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return obj not in ("inf", "-inf", "nan") and (
        not isinstance(obj, float) or math.isfinite(obj))


@given(_inputs(), st.sampled_from(["classify", "curvature"]))
# a subnormal entry at unit scale once made the LU of det divide by zero
@example({"matrix": [[0.0, 0.0, 1e-160, 0.0], [0.0, 0.0, 0.0, 1e148],
                     [-1e-160, 0.0, 0.0, 0.0], [0.0, -1e148, 0.0, 0.0]]},
         "classify")
# strings and booleans were read as numbers
@example({"matrix": [["1", True], [0, "-1"]]}, "classify")
@example({"dim": 3, "structure_constants": [["0", 1.9, True, "2.5"]]},
         "curvature")
@settings(max_examples=150, deadline=None, derandomize=True)
def test_classify_and_curvature_keep_the_exit_contract(payload, command):
    # exit 0 with finite, byte-deterministic output, or exit 2 with a
    # message and nothing written; no exception, no warning
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        tmp = pathlib.Path(tmp)
        cfg = write_config(tmp / "c.json", {}, payload=payload)
        texts = []
        for out in (tmp / "a", tmp / "b"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main([command, "--config", cfg, "--out", str(out)])
            if rc == 2:
                assert stderr.getvalue().startswith("config error: ")
                assert not out.exists()
                return
            assert rc == 0 and stderr.getvalue() == ""
            texts.append((out / f"{command}.json").read_bytes())
            assert stdout.getvalue().encode() == texts[-1]
        assert texts[0] == texts[1]
        assert _finite(json.loads(texts[0]))


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


def test_simulate_exits_4_on_a_violation_after_writing_its_files(
        tmp_path, monkeypatch, capsys):
    # every start that monitor_suite passes exits 0; plant one violation
    monkeypatch.setattr(cli, "monitor_suite",
                        lambda traj: [(0.5, "norm_sq_increase", 1e-3)])
    out = tmp_path / "out"
    cfg = matrix_config(tmp_path, [[1.0, 0.0], [0.0, -1.0]], out,
                        flow={"t_end": 1.0})
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_VIOLATIONS == 4
    assert sorted(f.name for f in out.iterdir()) == [
        "diagnostics.jsonl", "monitor.json", "trajectory.csv"]
    report = json.loads((out / "monitor.json").read_text())
    assert report["violation_count"] == 1
    assert report["violations"] == [
        {"t": 0.5, "rule": "norm_sq_increase", "magnitude": 1e-3}]
    assert "violations: 1" in capsys.readouterr().out


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
                          "rejected_nonfinite", "rhs_evals", "h_min",
                          "h_max", "h_next", "q_last", "t_stop"}
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
    # several blocks, one short
    monkeypatch.setattr(solvflow.flow, "_DIAG_BLOCK", 7)
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
        _recursive_dumps({key: col[i] for key, col in columns.items()},
                         compact=True) + "\n" for i in range(k))
    assert (out / "diagnostics.jsonl").read_bytes() == want.encode()


def _recursive_dumps(obj, indent=0, compact=False):
    """Oracle: the JSON writer before its float fast path."""
    def fmt(v):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            return '"%s"' % repr(v)
        return format(v, ".17g")

    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (complex, np.complexfloating)):
        obj = [obj.real, obj.imag]
    pad = "" if compact else "  " * indent
    pad_in = "" if compact else "  " * (indent + 1)
    sep = "," if compact else ",\n"
    nl = "" if compact else "\n"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{pad_in}"{k}": {_recursive_dumps(obj[k], indent + 1, compact)}'
                 for k in sorted(obj))
        return "{" + nl + sep.join(items) + nl + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = (pad_in + _recursive_dumps(v, indent + 1, compact) for v in obj)
        return "[" + nl + sep.join(items) + nl + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_dumps_matches_the_recursive_writer():
    rng = np.random.default_rng(0)
    doc = {
        "nested": rng.standard_normal((3, 2, 2)),
        "rows": [rng.standard_normal(3).tolist(), [], [1.5, [2.5, -0.0]]],
        "float64": np.float64(1.0 / 3.0), "float32": np.float32(0.1),
        "ints": [0, -7, 2**70, np.int64(5)], "bools": [True, False, np.bool_(1)],
        "none": None, "special": [math.inf, -math.inf, math.nan,
                                  np.float64(-math.inf)],
        "complex": [1.0 + 2.0j, np.complex128(-0.5j), np.array([3 - 1j])],
        "text": "a\"b", "empty": {}, "tuple": (1.0, "x", None),
        "verdict": solvflow.certify_algebraic_soliton(
            solvflow.mu_of_a(np.eye(2))),
        "top": 0.1,
    }
    assert cli._dumps(doc) == _recursive_dumps(doc)
    for leaf in (0.1, math.nan, -math.inf, np.float64(2.0), 7, True, None):
        assert cli._dumps(leaf) == _recursive_dumps(leaf)


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


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0**u)


_NOT_NUMBERS = st.sampled_from([math.nan, math.inf, "abc", None, [1.0]])


def _keys_with_one_bad(draw, values):
    """{key: value}: each key of `values`, {key: (valid, invalid)}, left out
    or drawn valid, but for at most one drawn invalid."""
    bad = draw(st.one_of(st.none(), st.sampled_from(list(values))))
    out = {}
    for key, (valid, invalid) in values.items():
        if key == bad:
            out[key] = draw(invalid)
        elif draw(st.booleans()):
            out[key] = draw(valid)
    return out


def _keeps_the_exit_contract(command, payload, flow, exits):
    """Run `command` twice on one config: exit 2 with a message and nothing
    written, or an exit in `exits` with the same files, byte for byte, and
    nothing on stderr; no exception, no warning.  Returns the files, or
    None after exit 2."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        tmp = pathlib.Path(tmp)
        cfg = write_config(tmp / "c.json", {"flow": flow}, payload=payload)
        files = []
        for out in (tmp / "a", tmp / "b"):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main([command, "--config", cfg, "--out", str(out)])
            if rc == 2:
                assert stderr.getvalue().startswith("config error: ")
                assert not out.exists()
                return None
            assert rc in exits and stderr.getvalue() == ""
            files.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert files[0] == files[1]
        return files[0]


@st.composite
def _simulate_configs(draw):
    """(matrix, flow block) for `simulate`: n = 1..6, a short t_end, and
    each flow key left out or valid, but for at most one invalid key."""
    n = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    shape = draw(st.sampled_from(["dense", "skew", "normal", "unit"]))
    a = {"dense": a, "skew": a - a.T, "normal": a + a.T,
         "unit": a / max(np.linalg.norm(a), 1e-300)}[shape]
    t_end = draw(_log_floats(1e-3, 1.0))
    values = {
        "kind": (st.sampled_from(["bracket", "normalized", "gradient",
                                  "Gradient"]),
                 st.sampled_from(["brackett", "", 3, None])),
        "t_end": (st.just(t_end), st.one_of(
            st.sampled_from([0.0, -1.0, "0.5x"]), _NOT_NUMBERS)),
        "rel_tol": (_log_floats(1e-12, 1e-4),
                    st.sampled_from([0.0, 1.0, 2.0, -1e-8, math.nan])),
        "abs_tol": (_log_floats(1e-15, 1e-8),
                    st.sampled_from([0.0, 1.0, -1e-13, "x"])),
        # up to 200 samples when valid; invalid ones include a grid over
        # the sample cap
        "sample_stride": (_log_floats(t_end / 200.0, 3.0 * t_end),
                          st.one_of(st.sampled_from(
                              [0.0, -0.1, t_end / 2e5]), _NOT_NUMBERS)),
        "stop_when_stationary": (_log_floats(1e-12, 1e-2),
                                 st.sampled_from([0.0, 1.0, -1e-9, "x"])),
    }
    flow = _keys_with_one_bad(draw, values)
    if "t_end" not in flow:  # the CLI's default, 10, is not short
        flow["t_end"] = t_end
    return a.tolist(), flow


_SIMULATE_FILES = ("trajectory.csv", "diagnostics.jsonl", "monitor.json")


@given(_simulate_configs())
# ||A||^4 underflowed to 0 in F = ||[A, A^T]||^2 / ||A||^4: 0 / 0 warned
@example(([[2.7267981421745873e-105]], {"t_end": 1.0}))
# tr S(A0)^2 is subnormal: 1/u0 in the decay bound overflowed
@example(([[1e-155]], {"t_end": 1.0}))
# ||A||^2 = 2e224: raw F = F_normalized ||A||^4 overflowed
@example(([[0.0, 1e112], [-1e112, 0.0]], {"t_end": 0.3, "kind": "gradient"}))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simulate_keeps_the_exit_contract(config):
    rows, flow = config
    files = _keeps_the_exit_contract("simulate", {"matrix": rows}, flow,
                                     exits=(0, 3, 4))
    assert files is None or sorted(files) == sorted(_SIMULATE_FILES)


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
    # an integer key takes 3.0 as 3: the 3x3 grid less its 3 fixed points
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out / "3")},
                       payload={"half_width": 1.0, "points": 3.0})
    assert cli.main(["phase-plane", "--config", cfg]) == 0
    assert len((out / "3" / "atlas.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize("half_width", [1e-13, 1e-11])
def test_phase_plane_keeps_the_grid_at_small_half_width(tmp_path, monkeypatch,
                                                        half_width):
    # the skip of the fixed line x + y = 0 is relative to half_width
    monkeypatch.setattr(cli, "_worker_count", lambda: 1)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"output_dir": str(out)},
                       payload={"half_width": half_width})
    assert cli.main(["phase-plane", "--config", cfg]) == 0
    assert len((out / "atlas.csv").read_text().splitlines()) == 1 + 1640


def test_phase_plane_at_the_largest_half_width_fails_steps_quietly(tmp_path):
    # 2e51 exits 2 (test_bad_flow_values_exit_before_writing); at 1e51 the
    # velocity is finite, and every start fails its steps with no warning
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json",
                       {"flow": {"t_end": 1.0}, "output_dir": str(out)},
                       payload={"half_width": 1e51, "points": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["phase-plane", "--config", cfg]) == 3
    labels = [line.split(",")[2] for line in
              (out / "atlas.csv").read_text().splitlines()[1:]]
    assert labels == ["step_failure"] * 6


@st.composite
def _phase_plane_configs(draw):
    """(input, flow block) for `phase-plane`: half_width over +-300
    decades, 2 to 5 points, and t_end and rel_tol each left out or valid,
    but for at most one invalid key."""
    payload = {"half_width": 10.0 ** draw(st.floats(-300.0, 300.0)),
               "points": draw(st.integers(2, 5))}
    flow = _keys_with_one_bad(draw, {
        "t_end": (_log_floats(1e-3, 1e12), st.one_of(
            st.sampled_from([0.0, -1.0, "1x"]), _NOT_NUMBERS)),
        "rel_tol": (_log_floats(1e-12, 1e-4),
                    st.sampled_from([0.0, 1.0, 2.0, -1e-6, math.nan])),
    })
    return payload, flow


@given(_phase_plane_configs())
# the fixed line's skip was 1e-12 absolute below half_width 1: at 1e-13 no
# start was left, and phase-plane exited 1 on an empty grid
@example(({"half_width": 1e-13, "points": 3}, {}))
@example(({"half_width": 1e-11, "points": 4}, {}))
# the velocity at the corner overflows: numpy warned, then exit 3
@example(({"half_width": 1e70, "points": 3}, {"t_end": 1.0}))
@example(({"half_width": 2e51, "points": 3}, {"t_end": 1.0}))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_phase_plane_keeps_the_exit_contract(config):
    # the pool is covered by test_pooled_sweep_writes_the_serial_files
    payload, flow = config
    with unittest.mock.patch.object(cli, "_worker_count", lambda: 1):
        files = _keeps_the_exit_contract("phase-plane", payload, flow,
                                         exits=(0, 3))
    if files is not None:  # the atlas, its script and one CSV per start
        assert len(files) == 2 + len(files["atlas.csv"].splitlines()) - 1


@st.composite
def _ejsol_configs(draw):
    """(input, flow block) for `ejsol`: lambda, alpha0, samples and t_end
    each left out or valid over hundreds of decades, but for at most one
    invalid key; lambda, which ejsol needs, is never left out."""
    keys = _keys_with_one_bad(draw, {
        "lambda": (st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                             _log_floats(1e-300, 1e300)),
                   st.sampled_from([0.0, -0.5, math.inf, math.nan, "x"])),
        "alpha0": (_log_floats(1e-300, 1e300),
                   st.sampled_from([0.0, -1.0, math.inf, math.nan, "x"])),
        "samples": (st.integers(2, 200),
                    st.sampled_from([0, 1, cli._MAX_SAMPLES + 1, "x", None])),
        "t_end": (st.one_of(st.just(0.0), _log_floats(1e-300, 1e300)),
                  st.one_of(st.sampled_from([-1.0, "1x"]), _NOT_NUMBERS)),
    })
    keys.setdefault("lambda", draw(st.floats(0.0, 1.0, exclude_min=True)))
    flow = {"t_end": keys.pop("t_end")} if "t_end" in keys else {}
    return keys, flow


@given(_ejsol_configs())
# alpha0^2 overflowed in K(e_1, e_3): exit 1 with an OverflowError
@example(({"lambda": 0.2, "alpha0": 1e160}, {}))
# lambda alpha0^2 overflowed: exit 0 with K(e_1, e_3) = -inf
@example(({"lambda": 1e150, "alpha0": 1e100}, {}))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_ejsol_keeps_the_exit_contract(config):
    payload, flow = config
    files = _keeps_the_exit_contract("ejsol", payload, flow, exits=(0,))
    if files is not None:
        assert _finite(json.loads(files["ejsol.json"]))


# ---------------------------------------------------------------------------
# validate


def _short_registry(monkeypatch, names):
    # each check has its own generator, so it gives the same result in a
    # short registry as in the full one, which test_validate.py runs
    monkeypatch.setattr(validate, "_CHECKS",
                        {name: validate._CHECKS[name] for name in names})


def test_validate_passes_and_is_deterministic(tmp_path, monkeypatch, capsys):
    _short_registry(monkeypatch, ["riemann-scaling", "trace-square-identity",
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
    _short_registry(monkeypatch, ["trace-square-identity",
                                  "c02-algebraic-identities"])
    true_rhs = solvflow.flow.gradient_rhs
    monkeypatch.setattr(solvflow.flow, "gradient_rhs",
                        lambda a: -true_rhs(a))
    assert cli.main(["validate"]) == 4
    captured = capsys.readouterr()
    assert "PASS trace-square-identity" in captured.out
    assert "FAIL c02-algebraic-identities" in captured.out
    assert "c02-algebraic-identities" in captured.err


def test_validate_reports_a_check_that_raises_as_a_failure(monkeypatch,
                                                           capsys):
    def check_stops_early(rng):
        raise ArithmeticError("bridge integration stopped early")

    # the run goes on past the check that raised
    monkeypatch.setattr(validate, "_CHECKS",
                        {"stops-early": check_stops_early,
                         "riemann-scaling": validate._CHECKS["riemann-scaling"]})
    assert cli.main(["validate"]) == 4
    captured = capsys.readouterr()
    assert "FAIL stops-early residual=inf" in captured.out
    assert "PASS riemann-scaling" in captured.out
    check = validate.run_check("stops-early")
    assert (check.passed, check.residual) == (False, math.inf)
    assert check.detail == "ArithmeticError: bridge integration stopped early"


def test_validate_refuses_an_existing_report_before_running(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    calls = []
    monkeypatch.setattr(validate, "_CHECKS",
                        {"counted": lambda rng: calls.append(rng)})
    (tmp_path / "validate.json").write_text("kept\n")
    assert cli.main(["validate", "--out", str(tmp_path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert calls == []
    assert (tmp_path / "validate.json").read_text() == "kept\n"


# ---------------------------------------------------------------------------
# demos


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path,
                                   PYTHONWARNINGS="error::RuntimeWarning"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

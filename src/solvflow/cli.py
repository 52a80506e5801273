"""Command-line front end: config parsing, subcommand dispatch, file emission.

One JSON config file plus flag overrides (flags win).  All emitted files are
deterministic for a fixed config and seed: floats are printed with 17
significant digits, JSON keys are sorted, and line endings are LF.

Exit codes: 0 success; 2 configuration or input error (nothing written);
3 integration step failure (partial results are written); 4 monitor or
validation violations (results are written).
"""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import sys

import numpy as np

from .casebook import (
    c_lambda,
    default_phase_grid,
    ejsol_algebra,
    ejsol_curvature_crossing,
    ejsol_exact,
    ejsol_initial,
    ejsol_k13,
    phase2d_sweep,
    soliton_alpha,
)
from . import flow
from .flow import _RHS, FlowKind, FlowSpec, Terminal, integrate
from .geometry import (
    MetricLieAlgebra,
    build_curvature_report,
    heintze_check,
    mu_of_a,
    type3_monitor,
)
from .matcore import as_matrix, frob_norm
from .soliton import certify_algebraic_soliton, classify_soliton, monitor_suite
from .validate import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEP_FAILURE = 3
EXIT_VIOLATIONS = 4

# largest t_end / sample_stride of `simulate`, `samples` of `ejsol` and
# points^2 of `phase-plane`: every sample or start is held in memory and
# written out, so this bounds memory and files
_MAX_SAMPLES = 100_000
# largest `dim` of structure constants.  Time bounds it, not memory: the
# arrays are dim^3 (`classify` peaks at 48 MB at dim 48, one BLAS thread),
# while the Jacobi check and ||Riem|| are dim^5 work (the check alone takes
# about 40 ms at dim 48 and 1.6 s at dim 96)
_MAX_DIM = 48


class ConfigError(Exception):
    """Bad config, flags, or input file; nothing has been written."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(v):
    v = float(v)
    if math.isfinite(v):
        return format(v, ".17g")
    return '"%s"' % repr(v)


def _dumps(obj, indent=0):
    """JSON text with sorted keys and 17-significant-digit floats.

    Dataclasses are written field by field, arrays as nested lists and
    complex numbers as [real, imag] pairs.
    """
    if isinstance(obj, (float, np.floating)):  # most leaves
        return _fmt_float(obj)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (complex, np.complexfloating)):
        obj = [obj.real, obj.imag]
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{pad_in}"{k}": {_dumps(obj[k], indent + 1)}'
                 for k in sorted(obj))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = (pad_in + _dumps(v, indent + 1) for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, obj):
    """Write `obj` as one JSON document and return the text written."""
    text = _dumps(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# config handling: one table of keys for each block a command reads


def _json_value(raw, json_type):
    """`raw` as a JSON value that Python loads as a `json_type`, or what the
    reader `json_type` makes of it.  A boolean or a string is never a number
    (`float` takes true and parses "3"); an integer key takes 3.0 as 3."""
    if not isinstance(json_type, type):
        return json_type(raw)
    if json_type is float and type(raw) is int:
        raw = float(raw)  # OverflowError beyond the range of doubles
    elif json_type is int and type(raw) is float and raw.is_integer():
        raw = int(raw)
    if type(raw) is not json_type:
        raise TypeError(f"{raw!r} is not {_JSON_NAMES[json_type]}")
    return raw


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}
_REQUIRED = object()  # the default of a key that must be given


def _json_matrix(raw):
    """Rows of JSON numbers as a square float matrix (`as_matrix`)."""
    return as_matrix([[_json_value(v, float) for v in row] for row in raw])


def _read(raw, table, where, name="'{}'"):
    """Each key of `table` read from the JSON object `raw`, or its default;
    a ConfigError names a bad key as `name` formats it."""
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key '{key}' in {where}")
    values = {}
    for key, (json_type, default, ok, text) in table.items():
        if key not in raw:
            if default is _REQUIRED:
                given = f" with {', '.join(raw)}" if raw else ""
                raise ConfigError(f"{where} needs '{key}'{given}")
            values[key] = default
            continue
        what = f"{name.format(key)} must be {text}"
        try:  # a float ** out of range raises in `ok` too
            value = _json_value(raw[key], json_type)
            good = ok is None or ok(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{what}; {exc}") from exc
        if not good:
            raise ConfigError(f"{what}, got {raw[key]!r}")
        values[key] = value
    return values


# Each table maps a key to (JSON type, default or _REQUIRED, range or
# None, the requirement in words); NaN fails every comparison, so it is in
# no range.  The config file's top level; `input` is relative to its file:
_CONFIG = {
    "input": (str, None, None, "a path string"),
    "flow": (dict, {}, None, "an object"),
    "output_dir": (str, None, None, "a string"),
    "seed": (int, 0, lambda v: v >= 0, "an unsigned integer"),
}
# --seed is read as the seed key and --t-end as flow's t_end; --tol is
# classify's tolerance, and rel_tol where the command's flow block has one
_FLAGS = {"--seed": _CONFIG["seed"],
          "--tol": (float, 1e-8, lambda v: 0.0 < v < math.inf,
                    "positive and finite")}
# simulate's flow block: FlowSpec's fields but a0, which comes from the
# input; FlowSpec.__post_init__ is the one range check of their values
_SIMULATE_FLOW = {
    "kind": (str, "bracket", None, "a string"),
    "t_end": (float, 10.0, None, "a number"),
    **{f.name: (float, f.default, None, "a number")
       for f in dataclasses.fields(FlowSpec)
       if f.name not in ("kind", "a0", "t_end")},
}
_FLOW_TABLES = {
    "simulate": _SIMULATE_FLOW,
    "phase-plane": {
        "t_end": (float, 1e12, lambda v: 0.0 < v < math.inf,
                  "positive and finite"),
        "rel_tol": (float, 1e-6, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    },
    # alpha(t_end) > 0 is checked once lambda and alpha0 are read
    "ejsol": {"t_end": (float, 100.0, lambda v: 0.0 <= v < math.inf,
                        "finite and >= 0")},
    # classify, curvature and validate read no flow key and take the names
    # of simulate's, so that one config file serves every command
    **dict.fromkeys(("classify", "curvature", "validate"), dict.fromkeys(
        _SIMULATE_FLOW, (lambda raw: raw, None, None, "any value"))),
}
# the input of simulate, classify and curvature is one of these two
_MATRIX_INPUT = {"matrix": (_json_matrix, _REQUIRED, None,
                            "a square array of rows of numbers")}
_ALGEBRA_INPUT = {
    "dim": (int, _REQUIRED, lambda v: v <= _MAX_DIM,
            f"an integer at most {_MAX_DIM}"),
    # `MetricLieAlgebra.from_triples` types and checks each [i, j, k, v]
    "structure_constants": (list, _REQUIRED, None,
                            "an array of [i, j, k, value], i, j, k integers"),
}
# on the grid ||velocity||^2 <= 32 half_width^6, which is finite up to 1e51
_PHASE_INPUT = {
    "half_width": (float, 2.0, lambda v: 0.0 < v <= 1e51,
                   "positive and at most 1e51"),
    "points": (int, 41, lambda v: 2 <= v and v * v <= _MAX_SAMPLES,
               f"an integer at least 2, with points^2 at most {_MAX_SAMPLES}"),
}
# outside these ranges c_lambda or alpha0^-2 overflows, or alpha0^-2
# underflows to 0.  alpha0 defaults to lambda's soliton scale, and lambda
# alpha0^2 is checked once both are read.
_EJSOL_INPUT = {
    "lambda": (float, _REQUIRED,
               lambda v: v > 0.0 and math.isfinite(c_lambda(v)),
               "positive, with c_lambda = lambda^2 + (1-lambda)^2 + 1 finite"),
    "alpha0": (float, None,
               lambda v: v > 0.0 and 0.0 < v ** -2.0 < math.inf,
               "positive, with alpha0^-2 positive and finite"),
    "samples": (int, 50, lambda v: 2 <= v <= _MAX_SAMPLES,
                f"an integer, at least 2 and at most {_MAX_SAMPLES}"),
}


def _load_json_object(path, what):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return obj


def build_config(args):
    """The run's command, input, flow, output_dir, seed, force and tol, from
    the config file and the flags, which win; each read by `_read`."""
    raw = ({} if args.config is None
           else _load_json_object(args.config, "config file"))
    top = _read(raw, _CONFIG, "config", name="config key '{}'")
    path = top["input"]
    if path is not None:
        path = (pathlib.Path(args.config).parent / path).resolve()
    out = top["output_dir"] if args.out is None else args.out
    given = {"--seed": args.seed, "--tol": args.tol}
    flags = _read({flag: v for flag, v in given.items() if v is not None},
                  _FLAGS, "flags", name="{}")
    seed = top["seed"] if args.seed is None else flags["--seed"]
    table = _FLOW_TABLES[args.command]
    flow = dict(top["flow"])
    if args.t_end is not None:
        flow["t_end"] = args.t_end
    if args.tol is not None and "rel_tol" in table:
        flow["rel_tol"] = flags["--tol"]  # ejsol ignores the flag
    flow = _read(flow, table, f"config 'flow' block of {args.command}",
                 name="bad flow specification: '{}'")
    return argparse.Namespace(
        command=args.command, input=path, flow=flow, seed=seed,
        output_dir=None if out is None else pathlib.Path(out),
        force=bool(args.force), tol=flags["--tol"])


def _require_input(cfg):
    """The input {"matrix": rows} or {"dim": m, "structure_constants": ...},
    with a finite squared norm: every command squares it."""
    path = cfg.input
    if path is None:
        raise ConfigError(f"command '{cfg.command}' needs an input file "
                          "(config key 'input')")
    obj = _load_json_object(path, "input file")
    if "matrix" in obj:
        kind = "matrix"
        payload = _read(obj, _MATRIX_INPUT, f"input {path}")["matrix"]
    elif "structure_constants" in obj:
        keys = _read(obj, _ALGEBRA_INPUT, f"input {path}")
        try:
            kind, payload = "algebra", MetricLieAlgebra.from_triples(
                keys["dim"], keys["structure_constants"])
        except ValueError as exc:
            raise ConfigError(f"bad structure constants in {path}: {exc}") from exc
    else:
        raise ConfigError(
            f"input {path} must contain 'matrix' or 'structure_constants'")
    with np.errstate(over="ignore"):
        nrm = frob_norm(payload if kind == "matrix" else payload.c)
    if not math.isfinite(nrm * nrm):  # Python floats give inf, not an error
        raise ConfigError(f"input {path} is too large: its squared norm "
                          "overflows")
    return kind, payload


def _prepare_output_dir(cfg, names):
    """Create output_dir and refuse to clobber existing files without --force."""
    if cfg.output_dir is None:
        raise ConfigError(f"command '{cfg.command}' needs an output directory "
                          "(config key 'output_dir' or --out)")
    out = cfg.output_dir
    if not cfg.force:
        for name in names:
            p = out / name
            if p.exists():
                raise ConfigError(
                    f"refusing to overwrite existing {p} (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_finite_velocity(kind, a0, what):
    """Refuse a start at which the norm of the flow's velocity overflows:
    no first step can be estimated there (`flow._initial_step`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        f0_nrm = frob_norm(_RHS[kind](a0))
    if not math.isfinite(f0_nrm):
        raise ConfigError(f"{what} is too large: the flow's velocity at it "
                          "overflows")


def _worker_count():
    """Phase-plane pool size: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg):
    kind, payload = _require_input(cfg)
    if kind != "matrix":
        raise ConfigError("simulate needs a matrix input")
    try:  # FlowSpec checks the ranges of the flow block's values
        spec = FlowSpec(a0=payload,
                        **dict(cfg.flow, kind=cfg.flow["kind"].lower()))
    except ValueError as exc:
        raise ConfigError(f"bad flow specification: {exc}") from exc
    if spec.t_end / spec.sample_stride > _MAX_SAMPLES:
        raise ConfigError(
            f"t_end / sample_stride = {spec.t_end / spec.sample_stride:.3g} "
            f"asks for more than {_MAX_SAMPLES} samples")
    _require_finite_velocity(spec.kind, spec.a0, f"input {cfg.input}")
    out = _prepare_output_dir(
        cfg, ["trajectory.csv", "diagnostics.jsonl", "monitor.json"])

    traj = integrate(spec)
    violations = monitor_suite(traj)

    with open(out / "trajectory.csv", "w", newline="") as fh:
        traj.to_csv(fh)
    _write_diagnostics_jsonl(out / "diagnostics.jsonl", traj)

    report = {
        "terminal": traj.terminal.name.lower(),
        "violations": [
            {"t": t, "rule": rule, "magnitude": mag}
            for t, rule, mag in violations
        ],
        "violation_count": len(violations),
        "stats": {k: v for k, v in sorted(traj.stats.items())
                  if isinstance(v, (int, float))},
    }
    if spec.kind is FlowKind.BRACKET:
        try:
            t3 = type3_monitor(traj)
            report["type3"] = {
                "sup": t3.sup,
                "samples": int(len(t3.products)),
                "final": float(t3.products[-1]) if len(t3.products) else 0.0,
            }
        except ValueError as exc:
            report["type3"] = {"skipped": str(exc)}
    _write_json(out / "monitor.json", report)

    print(f"terminal: {report['terminal']}")
    print(f"violations: {len(violations)}")
    print(f"wrote {out / 'trajectory.csv'}, {out / 'diagnostics.jsonl'}, "
          f"{out / 'monitor.json'}")
    if traj.terminal is Terminal.STEP_FAILURE:
        return EXIT_STEP_FAILURE
    if violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


def _write_diagnostics_jsonl(path, traj):
    """One line per sample, as `_dumps` writes it without newlines or indents.

    Each column goes through tolist() and _fmt_float once, in the
    flow._DIAG_BLOCK sample blocks of the diagnostics, which bounds the text
    held in memory.  A real spectrum still goes out as [re, im] pairs.
    """
    d = traj.diagnostics
    scalars = dict(vars(d), t=traj.times)
    del scalars["spectra"], scalars["a_of_t"]
    keys = sorted([*scalars, "a_of_t", "spectrum"])
    template = "{{" + ",".join(f'"{key}": {{}}' for key in keys) + "}}\n"
    with open(path, "w", newline="\n") as fh:
        for lo in range(0, len(traj.times), flow._DIAG_BLOCK):
            rows = slice(lo, lo + flow._DIAG_BLOCK)
            text = {key: [_fmt_float(v) for v in col[rows].tolist()]
                    for key, col in scalars.items()}
            text["a_of_t"] = (
                ["null"] * len(text["t"]) if d.a_of_t is None
                else [_fmt_float(v) for v in d.a_of_t[rows].tolist()])
            text["spectrum"] = [
                "[" + ",".join(f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]"
                               for z in row) + "]"
                for row in d.spectra[rows].astype(complex).tolist()]
            fh.writelines(template.format(*line)
                          for line in zip(*(text[key] for key in keys)))


def _all_finite(obj):
    """Whether every float in a tree of dataclasses and dicts is finite."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    return not isinstance(obj, (float, np.ndarray)) or np.isfinite(obj).all()


def cmd_classify_or_curvature(cfg):
    """Curvature report, and for `classify` the soliton verdict; a value
    too large for a double is inf (see `matcore.pow2`) and exits 2."""
    kind, payload = _require_input(cfg)
    matrix = kind == "matrix"
    document = {"input_kind": kind, "curvature": build_curvature_report(
        mu_of_a(payload) if matrix else payload, seed=cfg.seed,
        heintze=heintze_check(payload) if matrix else None)}
    if cfg.command == "classify":
        verdict = classify_soliton if matrix else certify_algebraic_soliton
        try:  # classify_soliton raises for the zero matrix
            document["soliton"] = verdict(payload, tol=cfg.tol)
        except ValueError as exc:
            raise ConfigError(f"'{kind}' in {cfg.input}: {exc}") from exc
    if not _all_finite(document):
        raise ConfigError(f"input {cfg.input} is too large: a value of "
                          f"{cfg.command} overflows")
    out = _prepare_output_dir(cfg, [f"{cfg.command}.json"])
    print(_write_json(out / f"{cfg.command}.json", document))
    return EXIT_OK


def cmd_phase_plane(cfg):
    obj = ({} if cfg.input is None
           else _load_json_object(cfg.input, "input file"))
    keys = _read(obj, _PHASE_INPUT, f"input {cfg.input}")
    grid = default_phase_grid(**keys)  # half_width and points

    names = ["atlas.csv", "phase_plane.gp"]
    names += [f"traj_{i:05d}.csv" for i in range(len(grid))]
    out = _prepare_output_dir(cfg, names)

    rows = phase2d_sweep(grid, cfg.flow["t_end"], out_dir=out,
                         rel_tol=cfg.flow["rel_tol"],
                         workers=_worker_count())
    counts = {}
    for row in rows:
        counts[row.label] = counts.get(row.label, 0) + 1
    for label in sorted(counts):
        print(f"{label}: {counts[label]}")
    print(f"wrote {out / 'atlas.csv'} and {len(rows)} trajectory files")
    if counts.get("step_failure"):
        return EXIT_STEP_FAILURE
    return EXIT_OK


def cmd_ejsol(cfg):
    if cfg.input is None:
        raise ConfigError("ejsol needs an input file with at least 'lambda'")
    keys = _read(_load_json_object(cfg.input, "input file"), _EJSOL_INPUT,
                 f"input {cfg.input}")
    lam, t_end = keys["lambda"], cfg.flow["t_end"]
    alpha0 = soliton_alpha(lam) if keys["alpha0"] is None else keys["alpha0"]
    # lambda alpha0^2 is the largest term of K(e_1, e_3)
    if not math.isfinite(lam * alpha0 * alpha0):
        raise ConfigError(f"'alpha0' must keep lambda alpha0^2 finite, "
                          f"got {alpha0!r}")
    state0 = ejsol_initial(lam, alpha0)
    rows = []
    try:  # alpha(t_end) underflows to 0, and EjsolState refuses it
        for t in np.linspace(0.0, t_end, keys["samples"]):
            state = ejsol_exact(state0, float(t))
            rows.append({"t": state.t, "alpha": state.alpha, "h": state.h,
                         "k13": ejsol_k13(state)})
    except ValueError as exc:
        raise ConfigError(f"'t_end' must keep alpha and h positive, "
                          f"got {t_end!r}") from exc
    try:
        crossing = ejsol_curvature_crossing(lam, alpha0)
    except ValueError:
        crossing = None
    verdict = certify_algebraic_soliton(ejsol_algebra(lam, soliton_alpha(lam)))
    document = {
        "lambda": lam,
        "alpha0": alpha0,
        "c_lambda": c_lambda(lam),
        "soliton_alpha": soliton_alpha(lam),
        "soliton_certified": bool(verdict.accepted),
        "crossing_time": crossing,
        "samples": rows,
    }
    out = _prepare_output_dir(cfg, ["ejsol.json"])
    print(_write_json(out / "ejsol.json", document))
    return EXIT_OK


def cmd_validate(cfg):
    out = None
    if cfg.output_dir is not None:  # refuse to clobber before any check runs
        out = _prepare_output_dir(cfg, ["validate.json"])
    report = run_validation(seed=cfg.seed)
    if out is not None:
        _write_json(out / "validate.json", report)
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"{mark} {check.name} residual={check.residual:.17g} "
              f"tolerance={check.tolerance:.17g}")
    if report.passed:
        print(f"all {len(report.checks)} checks passed (seed {report.seed})")
        return EXIT_OK
    worst = max(report.failures, key=lambda c: c.residual)
    for check in report.failures:
        print(f"validation failure: {check.name} "
              f"residual={check.residual:.17g}", file=sys.stderr)
    print(f"worst failure: {worst.name} residual={worst.residual:.17g}",
          file=sys.stderr)
    return EXIT_VIOLATIONS


_COMMANDS = {
    "simulate": (cmd_simulate,
                 "integrate one flow and write trajectory + monitors"),
    "classify": (cmd_classify_or_curvature,
                 "soliton verdict and curvature report for one input"),
    "curvature": (cmd_classify_or_curvature, "curvature report only"),
    "phase-plane": (cmd_phase_plane,
                    "sweep the 2x2 antidiagonal grid and write an atlas"),
    "ejsol": (cmd_ejsol,
              "exact curves and curvature crossing for the 4-d family"),
    "validate": (cmd_validate, "run the library's invariant self-checks"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solvflow",
        description="Bracket-flow simulation and curvature analysis of "
                    "one-codimension solvable metric Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--t-end", type=float, dest="t_end",
                       help="override flow.t_end")
        p.add_argument("--tol", type=float,
                       help="override rel_tol / classification tolerance")
        p.add_argument("--out", help="override output_dir")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--force", action="store_true",
                       help="allow overwriting existing output files")
    return parser


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](build_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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

_COMMANDS = ("simulate", "classify", "curvature", "phase-plane", "ejsol",
             "validate")
_TOP_KEYS = {"input", "flow", "output_dir", "seed"}
# the config's flow block names FlowSpec's fields; a0 comes from the input
_FLOW_KEYS = {f.name for f in dataclasses.fields(FlowSpec)} - {"a0"}
# commands that read only some flow keys reject the rest by name;
# classify, curvature and validate read none and accept a shared block
_FLOW_KEYS_READ = {"phase-plane": {"t_end", "rel_tol"}, "ejsol": {"t_end"}}
# largest t_end / sample_stride that `simulate` accepts: every sample is
# held in memory and written out, so the grid bounds memory and file sizes
_MAX_SAMPLES = 100_000
# samples formatted per write of diagnostics.jsonl
_JSONL_CHUNK = 4096


class ConfigError(Exception):
    """Bad config, flags, or input file; nothing has been written."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(v):
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        return '"%s"' % repr(v)
    return format(v, ".17g")


def _dumps(obj, indent=0, compact=False):
    """JSON text with sorted keys and 17-significant-digit floats.

    Dataclasses are written field by field, arrays as nested lists and
    complex numbers as [real, imag] pairs.
    """
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
        items = (f'{pad_in}"{k}": {_dumps(obj[k], indent + 1, compact)}'
                 for k in sorted(obj))
        return "{" + nl + sep.join(items) + nl + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = (pad_in + _dumps(v, indent + 1, compact) for v in obj)
        return "[" + nl + sep.join(items) + nl + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
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
# config handling


@dataclasses.dataclass
class RunConfig:
    command: str
    input: pathlib.Path | None = None
    flow: dict = dataclasses.field(default_factory=dict)
    output_dir: pathlib.Path | None = None
    seed: int = 0
    force: bool = False
    tol: float | None = None  # --tol override, also the classify tolerance


def _reject_unknown(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _load_json_object(path, what):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return obj


def build_config(args):
    cfg = RunConfig(command=args.command)
    if args.config is not None:
        raw = _load_json_object(args.config, "config file")
        _reject_unknown(raw, _TOP_KEYS, "config")
        if "flow" in raw:
            if not isinstance(raw["flow"], dict):
                raise ConfigError("config key 'flow' must be an object")
            _reject_unknown(raw["flow"], _FLOW_KEYS, "config 'flow' block")
            read = _FLOW_KEYS_READ.get(args.command, _FLOW_KEYS)
            _reject_unknown(raw["flow"], read,
                            f"config 'flow' block: {args.command} reads "
                            f"only {', '.join(sorted(read))}")
            cfg.flow = dict(raw["flow"])
        if "input" in raw:
            if not isinstance(raw["input"], str):
                raise ConfigError("config key 'input' must be a path string")
            base = pathlib.Path(args.config).parent
            cfg.input = (base / raw["input"]).resolve()
        if "output_dir" in raw:
            if not isinstance(raw["output_dir"], str):
                raise ConfigError("config key 'output_dir' must be a string")
            cfg.output_dir = pathlib.Path(raw["output_dir"])
        if "seed" in raw:
            if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool) \
                    or raw["seed"] < 0:
                raise ConfigError("config key 'seed' must be an unsigned integer")
            cfg.seed = raw["seed"]
    # flags win over the config file
    if args.t_end is not None:
        cfg.flow["t_end"] = args.t_end
    if args.tol is not None:
        if args.tol <= 0:
            raise ConfigError("--tol must be positive")
        cfg.tol = args.tol
        cfg.flow["rel_tol"] = args.tol
    if args.out is not None:
        cfg.output_dir = pathlib.Path(args.out)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be an unsigned integer")
        cfg.seed = args.seed
    cfg.force = bool(args.force)
    return cfg


def _flow_spec(cfg, a0):
    """FlowSpec from the config's flow block; FlowSpec validates it."""
    kw = {"t_end": 10.0, **cfg.flow}
    kind = str(kw.pop("kind", "bracket")).lower()
    try:
        spec = FlowSpec(kind=kind, a0=a0, **{k: float(v) for k, v in kw.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad flow specification: {exc}") from exc
    if spec.t_end / spec.sample_stride > _MAX_SAMPLES:
        raise ConfigError(
            f"t_end / sample_stride = {spec.t_end / spec.sample_stride:.3g} "
            f"asks for more than {_MAX_SAMPLES} samples")
    return spec


def _load_matrix_or_algebra(path):
    """Input JSON: {"matrix": rows} or {"dim": m, "structure_constants": ...}.

    Either input must have a finite squared norm: every command squares it.
    """
    obj = _load_json_object(path, "input file")
    if "matrix" in obj:
        _reject_unknown(obj, {"matrix"}, f"input {path}")
        try:
            kind, payload = "matrix", as_matrix(obj["matrix"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad matrix in {path}: {exc}") from exc
    elif "structure_constants" in obj:
        _reject_unknown(obj, {"structure_constants", "dim"}, f"input {path}")
        if "dim" not in obj:
            raise ConfigError(f"input {path} needs 'dim' with structure_constants")
        try:
            kind, payload = "algebra", MetricLieAlgebra.from_triples(
                int(obj["dim"]), obj["structure_constants"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad structure constants in {path}: {exc}") from exc
    else:
        raise ConfigError(
            f"input {path} must contain 'matrix' or 'structure_constants'")
    with np.errstate(over="ignore"):
        nrm = (frob_norm(payload) if kind == "matrix"
               else payload.bracket_norm())
    if not math.isfinite(nrm * nrm):  # Python floats give inf, not an error
        raise ConfigError(f"input {path} is too large: its squared norm "
                          "overflows")
    return kind, payload


def _positive_finite(v):
    return 0.0 < v < math.inf


def _number(mapping, key, default, ok, what, cast=float):
    """`mapping[key]` (else `default`) as a number that satisfies `ok`.

    NaN fails every comparison, so it never satisfies a range check.
    """
    raw = mapping.get(key, default)
    try:
        value = cast(raw)
        good = ok(value)
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        raise ConfigError(f"'{key}' must be {what}, got {raw!r}")
    return value


def _require_input(cfg):
    if cfg.input is None:
        raise ConfigError(f"command '{cfg.command}' needs an input file "
                          "(config key 'input')")
    return _load_matrix_or_algebra(cfg.input)


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
    spec = _flow_spec(cfg, payload)
    with np.errstate(over="ignore", invalid="ignore"):
        f0_nrm = frob_norm(_RHS[spec.kind](spec.a0))
    if not math.isfinite(f0_nrm):  # no first step can be estimated
        raise ConfigError(f"input {cfg.input} is too large: the flow's "
                          "velocity at it overflows")
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
    """One line per sample, the text _dumps(line, compact=True) gives.

    Each column goes through tolist() and _fmt_float once, _JSONL_CHUNK
    samples at a time, which bounds the text held in memory.  A real
    spectrum still goes out as [re, im] pairs.
    """
    d = traj.diagnostics
    scalars = dict(vars(d), t=traj.times)
    del scalars["spectra"], scalars["a_of_t"]
    keys = sorted([*scalars, "a_of_t", "spectrum"])
    template = "{{" + ",".join(f'"{key}": {{}}' for key in keys) + "}}\n"
    with open(path, "w", newline="\n") as fh:
        for lo in range(0, len(traj.times), _JSONL_CHUNK):
            rows = slice(lo, lo + _JSONL_CHUNK)
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


def _curvature_report(cfg, kind, payload):
    """An input whose curvature overflows (entries near 1e100) exits 2."""
    matrix = kind == "matrix"
    with np.errstate(over="ignore", invalid="ignore"):
        report = build_curvature_report(
            mu_of_a(payload) if matrix else payload, seed=cfg.seed,
            heintze=heintze_check(payload) if matrix else None)
    if not _all_finite(report):
        raise ConfigError(f"input {cfg.input} is too large: its curvature "
                          "overflows")
    return report


def cmd_classify(cfg):
    kind, payload = _require_input(cfg)
    tol = cfg.tol if cfg.tol is not None else 1e-8
    if kind == "matrix":
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                verdict = classify_soliton(payload, tol=tol)
        except ValueError as exc:
            raise ConfigError(f"'matrix' in {cfg.input}: {exc}") from exc
        if not _all_finite(verdict):
            raise ConfigError(f"input {cfg.input} is too large: its soliton "
                              "residuals overflow")
    else:
        verdict = certify_algebraic_soliton(payload, tol=tol)
    document = {"input_kind": kind, "soliton": verdict,
                "curvature": _curvature_report(cfg, kind, payload)}
    out = _prepare_output_dir(cfg, ["classify.json"])
    print(_write_json(out / "classify.json", document))
    return EXIT_OK


def cmd_curvature(cfg):
    kind, payload = _require_input(cfg)
    document = {"input_kind": kind,
                "curvature": _curvature_report(cfg, kind, payload)}
    out = _prepare_output_dir(cfg, ["curvature.json"])
    print(_write_json(out / "curvature.json", document))
    return EXIT_OK


def cmd_phase_plane(cfg):
    obj = {}
    if cfg.input is not None:
        obj = _load_json_object(cfg.input, "input file")
        _reject_unknown(obj, {"half_width", "points"}, f"input {cfg.input}")
    half_width = _number(obj, "half_width", 2.0, _positive_finite,
                         "positive and finite")
    points = _number(obj, "points", 41, lambda v: v >= 2, "at least 2", int)
    t_end = _number(cfg.flow, "t_end", 1e12, _positive_finite,
                    "positive and finite")
    rel_tol = _number(cfg.flow, "rel_tol", 1e-6, lambda v: 0.0 < v < 1.0,
                      "in (0, 1)")
    grid = default_phase_grid(half_width=half_width, points=points)

    names = ["atlas.csv", "phase_plane.gp"]
    names += [f"traj_{i:05d}.csv" for i in range(len(grid))]
    out = _prepare_output_dir(cfg, names)

    rows = phase2d_sweep(grid, t_end, out_dir=out, rel_tol=rel_tol,
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
    obj = _load_json_object(cfg.input, "input file")
    _reject_unknown(obj, {"lambda", "alpha0", "samples"}, f"input {cfg.input}")
    if "lambda" not in obj:
        raise ConfigError(f"input {cfg.input} needs 'lambda'")
    # outside these ranges c_lambda or alpha0^-2 overflows, or alpha(t_end)
    # underflows to 0 and ejsol_exact raises
    lam = _number(obj, "lambda", None,
                  lambda v: v > 0.0 and _positive_finite(c_lambda(v)),
                  "positive, with c_lambda = lambda^2 + (1-lambda)^2 + 1 finite")
    alpha0 = _number(obj, "alpha0", soliton_alpha(lam),
                     lambda v: v > 0.0 and _positive_finite(v ** -2.0),
                     "positive, with alpha0^-2 positive and finite")
    samples = _number(obj, "samples", 50, lambda v: v >= 2, "at least 2", int)
    state0 = ejsol_initial(lam, alpha0)
    t_end = _number(cfg.flow, "t_end", 100.0,
                    lambda v: 0.0 <= v < math.inf
                    and ejsol_exact(state0, v).alpha > 0.0,
                    "finite and >= 0, with alpha and h positive at t_end")

    rows = []
    for t in np.linspace(0.0, t_end, samples):
        state = ejsol_exact(state0, float(t))
        rows.append({"t": state.t, "alpha": state.alpha, "h": state.h,
                     "k13": ejsol_k13(state)})
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
    report = run_validation(seed=cfg.seed)
    if cfg.output_dir is not None:
        out = _prepare_output_dir(cfg, ["validate.json"])
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


_DISPATCH = {
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "curvature": cmd_curvature,
    "phase-plane": cmd_phase_plane,
    "ejsol": cmd_ejsol,
    "validate": cmd_validate,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solvflow",
        description="Bracket-flow simulation and curvature analysis of "
                    "one-codimension solvable metric Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "integrate one flow and write trajectory + monitors",
        "classify": "soliton verdict and curvature report for one input",
        "curvature": "curvature report only",
        "phase-plane": "sweep the 2x2 antidiagonal grid and write an atlas",
        "ejsol": "exact curves and curvature crossing for the 4-d family",
        "validate": "run the library's invariant self-checks",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
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
        cfg = build_config(args)
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

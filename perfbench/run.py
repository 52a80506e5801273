"""solvflow benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, longrun, certify (see perfbench/README.md).  The inputs
come from --seed.  Passes over the workload's items repeat, one after
another in this process, until --seconds have been used (at least five
passes).  Every pass is checked for correctness outside its timed region.
Untraced passes sample a fixed reference kernel between items, and the
gated times are in units of its time (reference.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead (median traced minus median untraced pass time).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Exit status: 0 when every output passed its rule, 1 when one did not,
2 on a usage error or a checkout that holds no solvflow sources.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import env

HERE = pathlib.Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_PASSES = 500
# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# the end-to-end metrics in the JSON line of --trace 0, in BENCHMARK.json
# order.  The *_ref times are in units of the reference kernel's time,
# measured beside them (reference.py).
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "item_p50_ref": "ref",
    "peak_rss_mb": "MB",
}
# also end to end, printed in the report and in INFO["report"] but kept out
# of the JSON metrics.  The times in seconds move with the machine's speed by
# more than any allowed bound between runs on a shared 2-vCPU VM, and the
# tail follows its short slowdowns even in ref (README.md, Steadiness);
# error_rate is 0 on correct code and max_rel_err moves with the seed's inputs.
REPORT_ONLY = {
    "item_tail_ref": "ref",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "reference_ms": "ms",
    "error_rate": "ratio",
    "max_rel_err": "ratio",
}

# per-layer metrics filled from the workloads' deterministic counters
_FROM_COUNTERS = {
    "sweep": {"casebook.files_written": "files_written",
              "casebook.bytes_written": "bytes_written"},
    "certify": {"cli.bytes_written": "bytes_written"},
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "longrun", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _measure_setup(workload, seed, work):
    """Median wall time of fresh interpreters doing the run's set-up."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = work / f"probe{k}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                                 workload, str(seed), str(probe_dir)],
                                stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout) polls, which rounds the end time up
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with status {code}")
        shutil.rmtree(probe_dir)
    return statistics.median(times), times


def _tail_percentile(guaranteed):
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if guaranteed * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


@dataclasses.dataclass
class Pass:
    """One pass over the workload's items."""

    wall: float          # pass time, without the reference kernel's samples
    items: list          # time of each item
    reference: float     # median time of the reference kernel around it
    verdict: object      # workloads.Verdict
    tracer: object = None


def _one_pass(wl, inputs, work, k, tracer=None):
    """Run and check one pass.

    An untraced pass samples the workload's reference kernel just before it
    starts, between items (see workloads.ItemClock) and just after it ends.
    A traced pass takes no samples, so they add nothing to its spans.
    """
    import reference
    import workloads

    out_dir = work / f"pass{k}"
    out_dir.mkdir()
    clock = workloads.ItemClock(
        None if tracer else reference.KERNELS[wl.reference])
    if not tracer:
        clock.sample_reference()
    before = len(clock.reference_times)
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        output = wl.run_pass(inputs, out_dir, clock)
        wall = time.perf_counter() - t0 - sum(clock.reference_times[before:])
    if not tracer:
        clock.sample_reference()
    if len(clock.times) != wl.items_per_pass(inputs):
        raise RuntimeError(f"timed {len(clock.times)} items, expected "
                           f"{wl.items_per_pass(inputs)}")
    verdict = wl.check(inputs, output, out_dir)
    shutil.rmtree(out_dir)
    ref = math.nan if tracer else statistics.median(clock.reference_times)
    return Pass(wall, clock.times, ref, verdict, tracer)


def _run_passes(wl, inputs, work, seconds, traced):
    """Untraced passes, or untraced/traced pairs, until `seconds` are used."""
    import tracing

    deadline = time.perf_counter() + seconds
    plain, traced_passes = [], []
    rounds = []          # time each round took, with its checks and samples
    while len(plain) + len(traced_passes) < MAX_PASSES:
        done = len(traced_passes) if traced else len(plain)
        if done >= (1 if traced else wl.min_passes):
            if time.perf_counter() + statistics.median(rounds) > deadline:
                break
        t0 = time.perf_counter()
        order = (False, True) if (traced and done % 2 == 0) else (True, False)
        for with_trace in (order if traced else (False,)):
            k = len(plain) + len(traced_passes)
            if with_trace:
                traced_passes.append(
                    _one_pass(wl, inputs, work, k, tracing.Tracer()))
            else:
                plain.append(_one_pass(wl, inputs, work, k))
        rounds.append(time.perf_counter() - t0)
    return plain, traced_passes


def _end_to_end(wl, inputs, plain, setup_s):
    """End-to-end values over the untraced passes.

    Each item runs once per pass.  The *_ref values divide each pass's times
    by the median time of the reference kernel sampled in and around it.
    wall is the median over passes; item_p50 the median over items of each
    item's median over passes; the tail pools every item sample of every
    pass, so that at least ten samples lie beyond it.
    """
    import numpy as np

    per_item = np.array([p.items for p in plain])      # passes x items
    ref = np.array([p.reference for p in plain])
    walls = np.array([p.wall for p in plain])
    per_pass = wl.items_per_pass(inputs)
    pct = _tail_percentile(per_pass * wl.min_passes)
    scaled = per_item / ref[:, None]
    wall_s = float(np.median(walls))

    values = {
        "setup_s": setup_s,
        "wall_ref": float(np.median(walls / ref)),
        "item_p50_ref": float(np.median(np.median(scaled, axis=0))),
        "item_tail_ref": float(np.percentile(scaled, pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall_s,
        "items_per_s": per_pass / wall_s,
        "item_p50_ms": 1e3 * float(np.median(np.median(per_item, axis=0))),
        "item_tail_ms": 1e3 * float(np.percentile(per_item, pct)),
        "reference_ms": 1e3 * float(np.median(ref)),
        "error_rate": (sum(p.verdict.failed for p in plain)
                       / (per_pass * len(plain))),
        "max_rel_err": max(p.verdict.max_rel_err for p in plain),
    }
    return values, {"tail_percentile": pct, "item_samples": int(per_item.size),
                    "pass_walls_s": walls.tolist(),
                    "pass_reference_ms": (1e3 * ref).tolist()}


def _per_layer(workload, plain, traced_passes):
    import tracing

    rows = []
    for p in traced_passes:
        m = p.tracer.metrics(p.wall)
        for metric, key in _FROM_COUNTERS.get(workload, {}).items():
            m[metric] = p.verdict.counters[key]
        for metric in tracing.LAYER_METRICS:
            m.setdefault(metric, 0)
        rows.append(m)
    steady = all(r[k] == rows[0][k] for r in rows for k in tracing.DETERMINISTIC)
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    for k in tracing.DETERMINISTIC:
        values[k] = rows[0][k]
    values["flow.rhs_s_computed"] = tracing.rhs_seconds_computed(
        traced_passes[0].tracer.rhs_evals)
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced_passes)
        - statistics.median(p.wall for p in plain))
    return {k: values[k] for k in tracing.LAYER_METRICS}, steady


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = _parse(argv)
    # turn a termination request into SystemExit, so the cleanup below runs
    signal.signal(signal.SIGTERM, _terminate)
    env.prepare()
    from probe import setup
    import tracing

    env.WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=env.WORK))
    try:
        setup_s, setup_samples = _measure_setup(args.workload, args.seed, work)
        wl, inputs = setup(args.workload, args.seed, work)
        plain, traced_passes = _run_passes(wl, inputs, work, args.seconds,
                                           bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            env.WORK.rmdir()

    verdicts = [p.verdict for p in plain + traced_passes]
    first = verdicts[0]
    repeatable = all(v.digest == first.digest and v.counters == first.counters
                     for v in verdicts)
    attempted = wl.items_per_pass(inputs) * len(verdicts)
    failed = sum(v.failed for v in verdicts)
    values, tail = _end_to_end(wl, inputs, plain, setup_s)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced_passes),
        "items_per_pass": wl.items_per_pass(inputs), **tail,
        "setup_samples_s": setup_samples, "repeatable": repeatable,
        "digest": first.digest, "counters": first.counters,
        "error_rate": failed / attempted, "env": env.describe(),
        "report": {k: values[k] for k in REPORT_ONLY},
    }
    units = {**END_TO_END, **REPORT_ONLY}
    print(f"perfbench {args.workload} seed={args.seed} passes={len(plain)}"
          f" traced_passes={len(traced_passes)}")
    for name, unit in units.items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  (p{tail['tail_percentile']:g} of "
                    f"{tail['item_samples']} samples)")
        print(f"  {name:<14} {values[name]:.6g} {unit}{note}")

    if args.trace:
        layer, steady = _per_layer(args.workload, plain, traced_passes)
        repeatable &= steady
        info["repeatable"] = repeatable
        for name, value in layer.items():
            print(f"  {name:<44} {value:.6g} {tracing.LAYER_METRICS[name][0]}")
        metrics = {k: {"value": float(v), "unit": tracing.LAYER_METRICS[k][0]}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    if not repeatable:
        print("perfbench: outputs or counters differ between passes of one seed",
              file=sys.stderr)
    correct = failed == 0 and repeatable
    print("INFO " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

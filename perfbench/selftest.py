"""Self-test of the benchmark: tracing must not change what the program does.

    python3 perfbench/selftest.py

For each workload, runs `run.py` untraced and traced with seed 1 for one
second each, in two processes, and requires:

* both runs correct, with equal output digests, deterministic counters and
  error_rate;
* every pass inside each run repeatable (same digest and counters);
* the traced run's spans below the entry spans (`phase2d_sweep`,
  `cli.main`) covering at least 90% of each traced pass's wall time, so
  time no span accounts for stays below 10%.

Exit status 0 when every workload passes, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("sweep", "longrun", "certify")
MIN_COVERAGE = 0.9
SEED = 1
SECONDS = 1.0


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines
                 if line.startswith("INFO ")), None)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, info, result, proc.stderr


def check(workload):
    """Problems found for one workload; empty when it passes."""
    runs = [_run(workload, trace) for trace in (0, 1)]
    problems = []
    for trace, (code, info, result, err) in enumerate(runs):
        if code != 0 or info is None or not result["correct"]:
            problems.append(f"trace={trace} run failed (status {code}): "
                            f"{err.strip()[-300:]}")
    if problems:
        return problems
    (_, plain, _, _), (_, traced, result, _) = runs
    for key in ("digest", "counters", "error_rate"):
        if plain[key] != traced[key]:
            problems.append(f"{key} differs: untraced {plain[key]!r}, "
                            f"traced {traced[key]!r}")
    coverage = result["metrics"]["trace.span_coverage"]["value"]
    if coverage < MIN_COVERAGE:
        problems.append(f"spans cover {coverage:.3f} of wall_s, "
                        f"below {MIN_COVERAGE}")
    return problems


def main():
    ok = True
    for workload in WORKLOADS:
        problems = check(workload)
        ok &= not problems
        print(f"{'PASS' if not problems else 'FAIL'} {workload}")
        for problem in problems:
            print(f"  {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

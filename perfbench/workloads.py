"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one client: the items of a pass run one
after another in this process, with no pool.  `generate` builds the inputs
from the seed (set-up, untimed), `run_pass` is the timed work and returns
what the program produced, and `check` judges those outputs item by item
against closed forms or an independent route, outside the timed region.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

from solvflow import casebook, cli, flow, geometry, soliton

# seconds between two samples of the reference kernel inside a pass
REFERENCE_INTERVAL_S = 0.5


class ItemClock:
    """Duration and return value of each call made through `wrap`.

    With a reference kernel, the clock also times that kernel whenever
    REFERENCE_INTERVAL_S have passed since it last ran, just before the next
    call starts, so a pass carries a sample of the machine's speed about that
    often.  Those samples are outside every item's time.
    """

    def __init__(self, reference=None):
        self.times = []
        self.returns = []
        self.reference_times = []
        self._reference = reference
        self._last = -math.inf

    def sample_reference(self):
        t0 = time.perf_counter()
        self._reference()
        self._last = time.perf_counter()
        self.reference_times.append(self._last - t0)

    def wrap(self, fn):
        times, returns = self.times, self.returns

        def timed(*args, **kwargs):
            if (self._reference is not None
                    and time.perf_counter() - self._last
                    >= REFERENCE_INTERVAL_S):
                self.sample_reference()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)
            returns.append(out)
            return out

        return timed


@contextlib.contextmanager
def patched(owner, name, value):
    """Bind `owner.name` to `value` for the duration of the block."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


@dataclasses.dataclass
class Verdict:
    """Outcome of checking one pass."""

    failed: int          # items that broke a correctness rule
    max_rel_err: float   # worst accuracy figure of the pass
    digest: str          # hash of the outputs; equal on every pass of a seed
    counters: dict       # deterministic counts read from returned objects


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()[:16]


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# sweep: many short 2x2 settle runs


class Sweep:
    """`casebook.phase2d_sweep` over a jittered antidiagonal grid, serially.

    The grid is a 10 x 10 cell grid on [-2, 2]^2 without the cells on the
    fixed line x + y = 0.  Each point sits at its cell's centre, moved by the
    seed by at most `jitter` of a cell along each axis.  A point never leaves
    its quadrant or crosses x + y = 0, so the seed cannot change which points
    decay along the diagonal (slow) and which settle on the antiskew line
    (fast).  An item is one grid point, timed as its `casebook.settle` call.
    """

    name = "sweep"
    reference = "steps"   # reference kernel, see reference.py
    min_passes = 5
    cells = 10           # grid cells per axis
    half_width = 2.0
    jitter = 0.4         # share of a cell a point may move along each axis
    t_end = 1e12
    line_tol = 1e-5      # c09: antiskew limits satisfy |x+y| <= tol * max(1, r)

    def generate(self, seed, workdir):
        rng = _rng(seed, 1)
        cell = 2.0 * self.half_width / self.cells
        centres = -self.half_width + cell * (np.arange(self.cells) + 0.5)
        grid = []
        for x in centres:
            for y in centres:
                if abs(x + y) < 0.5 * cell:   # a cell on the fixed line
                    continue
                dx, dy = rng.uniform(-self.jitter, self.jitter, 2) * cell
                grid.append((float(x + dx), float(y + dy)))
        return grid

    def items_per_pass(self, grid):
        return len(grid)

    def run_pass(self, grid, out_dir, clock):
        with patched(casebook, "settle", clock.wrap(casebook.settle)):
            rows = casebook.phase2d_sweep(grid, self.t_end, out_dir=out_dir,
                                          workers=None)
        return rows, list(clock.returns)

    def check(self, grid, output, out_dir):
        rows, settled = output
        failed = abs(len(rows) - len(grid))
        worst = 0.0
        labels = {}
        for row, (x0, y0) in zip(rows, grid):
            labels[row.label] = labels.get(row.label, 0) + 1
            bad = row.label in ("undecided", "step_failure")
            bad |= (row.x0, row.y0) != (x0, y0)
            if row.label == "antiskew":
                ratio = abs(row.x_inf + row.y_inf) / max(1.0, math.hypot(
                    row.x_inf, row.y_inf))
                worst = max(worst, ratio)
                bad |= ratio > self.line_tol
            failed += int(bad)
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        expected = len(grid) + 2  # one CSV per point, atlas.csv, phase_plane.gp
        atlas = (out_dir / "atlas.csv").read_bytes()
        if len(files) != expected or atlas.count(b"\n") != len(grid) + 1:
            failed += 1
        counters = {
            "points": len(rows),
            "labels": dict(sorted(labels.items())),
            "files_written": len(files),
            "bytes_written": sum(p.stat().st_size for p in files),
            "steps_accepted": sum(t.stats["accepted"] for t, _ in settled),
            "steps_rejected": sum(t.stats["rejected"] for t, _ in settled),
            "rhs_evals": sum(t.stats["rhs_evals"] for t, _ in settled),
            "samples": sum(len(t.times) for t, _ in settled),
            "stages": sum(t.stats.get("stages", 1) for t, _ in settled),
        }
        return Verdict(failed, worst, _digest(atlas), counters)


# ---------------------------------------------------------------------------
# longrun: few long trajectories on a dense sample grid


class Longrun:
    """The c11 starts, conjugated and scaled, run to a long horizon.

    An item is one trajectory: `flow.integrate` then `geometry.type3_monitor`.
    Each start is s * Q S Q^T with Q orthogonal and s > 0, which keeps it
    normal or a nilpotent soliton, so A(t) = (k s^2 t + 1)^(-1/2) A0 exactly.
    """

    name = "longrun"
    reference = "steps"
    min_passes = 5
    variants = 5         # seeded conjugations of each start
    horizon = 50.0
    stride = 0.1
    rel_tol = 1e-10
    err_tol = 1e-6       # c01 bound on the relative error to the closed form
    spread_tol = 0.01    # c11 bound on the late-window spread of t * |Riem|
    # start S and the rate k of its closed form at scale 1
    bases = (
        (np.diag([1.0, -1.0]), 4.0),              # normal, 2 tr S^2 = 4
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 3.0),  # E12: |A|^2 - c = 1 + 2
        (np.eye(2), 4.0),                          # normal, 2 tr S^2 = 4
    )

    def generate(self, seed, workdir):
        rng = _rng(seed, 2)
        out = []
        for _ in range(self.variants):
            for base, rate in self.bases:
                q = _random_orthogonal(rng, 2)
                scale = float(rng.uniform(1.0, 1.5))
                out.append((scale * (q @ base @ q.T), rate * scale * scale))
        return out

    def items_per_pass(self, starts):
        return len(starts)

    def _one(self, a0):
        spec = flow.FlowSpec(kind=flow.FlowKind.BRACKET, a0=a0,
                             t_end=self.horizon, rel_tol=self.rel_tol,
                             abs_tol=1e-13, sample_stride=self.stride)
        traj = flow.integrate(spec)
        return traj, geometry.type3_monitor(traj)

    def run_pass(self, starts, out_dir, clock):
        one = clock.wrap(self._one)
        return [one(a0) for a0, _ in starts]

    def check(self, starts, output, out_dir):
        failed = 0
        worst = 0.0
        chunks = []
        expected_samples = int(round(self.horizon / self.stride)) + 1
        for (a0, rate), (traj, rep) in zip(starts, output):
            factor = (rate * traj.times + 1.0) ** -0.5
            exact = factor[:, None, None] * a0
            err = float(np.max(
                np.linalg.norm(traj.states - exact, axis=(1, 2))
                / np.linalg.norm(exact, axis=(1, 2))))
            window = rep.products[rep.times >= 0.5 * self.horizon]
            spread = float((np.max(window) - np.min(window)) / np.max(window))
            worst = max(worst, err)
            bad = err > self.err_tol or not spread < self.spread_tol
            bad |= not (np.isfinite(rep.sup) and rep.sup > 0.0)
            bad |= traj.terminal is not flow.Terminal.REACHED_T_END
            bad |= len(traj.times) != expected_samples
            failed += int(bad)
            chunks += [traj.states.tobytes(), rep.products.tobytes()]
        failed += abs(len(output) - len(starts))
        counters = {
            "trajectories": len(output),
            "steps_accepted": sum(t.stats["accepted"] for t, _ in output),
            "steps_rejected": sum(t.stats["rejected"] for t, _ in output),
            "rhs_evals": sum(t.stats["rhs_evals"] for t, _ in output),
            "samples": sum(len(t.times) for t, _ in output),
        }
        return Verdict(failed, worst, _digest(*chunks), counters)


# ---------------------------------------------------------------------------
# certify: the structure-constant soliton route through the CLI


def _random_normal(rng, n):
    """Orthogonal conjugate of a block diagonal of real and 2x2 rotation blocks."""
    blocks = np.zeros((n, n))
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.6:
            re, im = rng.standard_normal(2)
            blocks[i, i] = blocks[i + 1, i + 1] = re
            blocks[i, i + 1], blocks[i + 1, i] = im, -im
            i += 2
        else:
            blocks[i, i] = rng.standard_normal()
            i += 1
    q = _random_orthogonal(rng, n)
    return q @ blocks @ q.T


def _structure_triples(a):
    """Triples (0, i, k, A[k-1, i-1]) of mu(e_0, e_i) = A e_i, i.e. mu_of_a(A)."""
    n = a.shape[0]
    return [[0, i, k, float(a[k - 1, i - 1])]
            for i in range(1, n + 1) for k in range(1, n + 1)
            if a[k - 1, i - 1] != 0.0]


@dataclasses.dataclass
class CertifyItem:
    n: int
    kind: str            # "normal" (a soliton) or "generic" (not one)
    a: np.ndarray
    config: object       # path of the CLI config naming the input file
    out: object          # output directory of this item


class Certify:
    """`solvflow classify` on structure constants of mu_of_a(A), n = 2..14.

    An item is one CLI call.  Per n, A is a random normal matrix (a soliton)
    or a random generic matrix (not one).
    """

    name = "certify"
    reference = "svd"
    min_passes = 5
    ladder = (2, 4, 6, 8, 10, 12, 14)
    const_tol = 1e-6     # relative gap between the two routes' soliton constants

    def generate(self, seed, workdir):
        rng = _rng(seed, 3)
        items = []
        for n in self.ladder:
            for kind in ("normal", "generic"):
                a = (_random_normal(rng, n) if kind == "normal"
                     else rng.standard_normal((n, n)))
                stem = f"{kind}_{n:02d}"
                (workdir / f"{stem}.json").write_text(json.dumps(
                    {"dim": n + 1, "structure_constants": _structure_triples(a)}))
                config = workdir / f"{stem}.config.json"
                config.write_text(json.dumps({"input": f"{stem}.json"}))
                items.append(CertifyItem(n, kind, a, config, stem))
        return items

    def items_per_pass(self, items):
        return len(items)

    def run_pass(self, items, out_dir, clock):
        main = clock.wrap(cli.main)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return [main(["classify", "--config", str(it.config),
                          "--out", str(out_dir / it.out), "--force"])
                    for it in items]

    def check(self, items, output, out_dir):
        failed = abs(len(output) - len(items))
        worst = 0.0
        chunks = []
        labels = {}
        written = 0
        for it, code in zip(items, output):
            path = out_dir / it.out / "classify.json"
            if code != 0 or not path.is_file():
                failed += 1
                continue
            raw = path.read_bytes()
            written += len(raw)
            chunks.append(raw)
            doc = json.loads(raw)["soliton"]
            labels[doc["label"]] = labels.get(doc["label"], 0) + 1
            expected = soliton.classify_soliton(it.a)
            bad = doc["label"] != expected.label
            if expected.accepted and not bad:
                gap = (abs(doc["soliton_constant"] - expected.soliton_constant)
                       / abs(expected.soliton_constant))
                err = max(doc["residuals"]["ric_decomposition"], gap)
                worst = max(worst, err)
                bad = gap > self.const_tol
            failed += int(bad)
        counters = {"calls": len(output), "labels": dict(sorted(labels.items())),
                    "bytes_written": written}
        return Verdict(failed, worst, _digest(*chunks), counters)


WORKLOADS = {w.name: w for w in (Sweep(), Longrun(), Certify())}

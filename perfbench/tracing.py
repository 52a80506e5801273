"""Spans around the public entry points of every solvflow layer.

The spans are recorded from outside the package: `Tracer.installed()`
rebinds each traced function in every solvflow namespace that holds it
(`casebook`, `soliton` and `cli` bind `integrate` and `settle` with
`from .flow import ...`, so patching `flow.integrate` alone would miss their
calls) and restores the originals on exit.  Spans stay in memory; the
per-layer metrics are computed from them after each traced pass.

`flow._RHS` keeps references captured at import, so the right-hand side
cannot be intercepted from outside.  Its time is computed instead, as
rhs evaluations times the measured per-call cost of the public rhs at the
same shape, and labelled as computed.
"""

import contextlib
import statistics
import time

import numpy as np

import solvflow
from solvflow import casebook, cli, flow, geometry, matcore, soliton

_MODULES = (solvflow, matcore, flow, geometry, soliton, casebook, cli)

# (span name, module that defines the function, attribute)
_TARGETS = (
    ("matcore.eigenvalues", matcore, "eigenvalues"),
    ("flow.integrate", flow, "integrate"),
    ("flow.settle", flow, "settle"),
    ("flow.diagnostic_row", flow, "diagnostic_row"),
    ("geometry.mu_of_a", geometry, "mu_of_a"),
    ("geometry.riemann_tensor", geometry, "riemann_tensor"),
    ("geometry.type3_monitor", geometry, "type3_monitor"),
    ("geometry.ricci_general", geometry, "ricci_general"),
    ("geometry.ricci_block", geometry, "ricci_block"),
    ("geometry.sample_sectional", geometry, "sample_sectional"),
    ("geometry.sectional_curvature", geometry, "sectional_curvature"),
    ("geometry.build_curvature_report", geometry, "build_curvature_report"),
    ("soliton.certify_algebraic_soliton", soliton, "certify_algebraic_soliton"),
    ("soliton.derivation_basis", soliton, "derivation_basis"),
    ("casebook.phase2d_sweep", casebook, "phase2d_sweep"),
    ("cli.main", cli, "main"),
)

# spans that wrap a whole pass or a whole item of a workload.  Their self time
# is reported (casebook.sweep_self_s, cli.self_s) but counts as time no span
# accounts for in trace.span_coverage.
_ENTRY_SPANS = ("casebook.phase2d_sweep", "cli.main")

# per-layer metric -> (unit, better); counts must repeat exactly between passes
LAYER_METRICS = {
    "flow.steps_accepted": ("count", "lower"),
    "flow.steps_rejected": ("count", "lower"),
    "flow.accept_ratio": ("ratio", "higher"),
    "flow.rhs_evals": ("count", "lower"),
    "flow.rhs_evals_per_step": ("evals/step", "lower"),
    "flow.samples": ("count", "lower"),
    "flow.stages": ("count", "lower"),
    "flow.step_s": ("s", "lower"),
    "flow.rhs_s_computed": ("s", "lower"),
    "flow.diagnostics_s": ("s", "lower"),
    "flow.to_csv_s": ("s", "lower"),
    "matcore.eigenvalues_calls": ("count", "lower"),
    "matcore.eigenvalues_s": ("s", "lower"),
    "casebook.sweep_self_s": ("s", "lower"),
    "casebook.files_written": ("count", "lower"),
    "casebook.bytes_written": ("bytes", "lower"),
    "geometry.mu_of_a_calls": ("count", "lower"),
    "geometry.mu_of_a_s": ("s", "lower"),
    "geometry.riemann_s": ("s", "lower"),
    "geometry.type3_s": ("s", "lower"),
    "geometry.ricci_s": ("s", "lower"),
    "geometry.sectional_s": ("s", "lower"),
    "geometry.curvature_report_s": ("s", "lower"),
    "soliton.certify_s": ("s", "lower"),
    "soliton.derivation_basis_s": ("s", "lower"),
    "soliton.svd_bytes_computed": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
}

# metrics that must repeat exactly on every pass of one seed
DETERMINISTIC = tuple(k for k, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count", "bytes")) + (
    "flow.accept_ratio", "flow.rhs_evals_per_step")

_PUBLIC_RHS = {
    flow.FlowKind.BRACKET: flow.bracket_rhs,
    flow.FlowKind.NORMALIZED: flow.normalized_rhs,
    flow.FlowKind.GRADIENT: flow.gradient_rhs,
}


class Tracer:
    """Spans of one traced pass, plus counts read from returned objects.

    A span is [name, parent index or -1, start, end].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = dict.fromkeys(
            ("flow.steps_accepted", "flow.steps_rejected", "flow.rhs_evals",
             "flow.samples", "flow.stages", "soliton.svd_bytes_computed"), 0)
        self.rhs_evals = {}   # (flow kind, n) -> evaluations inside integrate

    def _wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(rec, out)
            return out

        return traced

    def _after_integrate(self, rec, traj):
        stats = traj.stats
        c = self.counts
        c["flow.steps_accepted"] += stats["accepted"]
        c["flow.steps_rejected"] += stats["rejected"]
        c["flow.rhs_evals"] += stats["rhs_evals"]
        c["flow.samples"] += len(traj.times)
        c["flow.stages"] += 1
        key = (traj.spec.kind, traj.spec.dim)
        self.rhs_evals[key] = self.rhs_evals.get(key, 0) + stats["rhs_evals"]

    def _svd_recorder(self, svd):
        spans, stack = self.spans, self._stack

        def recorded(*args, **kwargs):
            out = svd(*args, **kwargs)
            if stack and spans[stack[-1]][0] == "soliton.derivation_basis":
                arrays = out if isinstance(out, tuple) else (out,)
                self.counts["soliton.svd_bytes_computed"] += sum(
                    a.nbytes for a in arrays)
            return out

        return recorded

    @contextlib.contextmanager
    def installed(self):
        """Trace every target for the duration of the block."""
        undo = []

        def bind(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, home, attr in _TARGETS:
                original = getattr(home, attr)
                hook = self._after_integrate if name == "flow.integrate" else None
                wrapper = self._wrap(name, original, hook)
                for mod in _MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            bind(mod, key, wrapper)
            bind(flow.Trajectory, "to_csv",
                 self._wrap("flow.to_csv", flow.Trajectory.to_csv))
            bind(np.linalg, "svd", self._svd_recorder(np.linalg.svd))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def metrics(self, wall):
        """Per-layer times and counts of the pass, and its span coverage.

        Coverage is the share of the pass spent inside spans below the entry
        spans: top-level span time minus the entry spans' self time.
        """
        n = len(self.spans)
        dur = [end - start for _, _, start, end in self.spans]
        child = [0.0] * n
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total, own, calls = {}, {}, {}
        eig_in_flow = 0.0
        top = 0.0
        for i, (name, parent, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += dur[i]
            elif name == "matcore.eigenvalues" and \
                    self.spans[parent][0] in ("flow.integrate", "flow.settle"):
                # _a_of_t, called by integrate and when settle stitches stages
                eig_in_flow += dur[i]

        def t(*names):
            return sum(total.get(x, 0.0) for x in names)

        out = dict(self.counts)
        c = self.counts
        attempted = c["flow.steps_accepted"] + c["flow.steps_rejected"]
        out["flow.accept_ratio"] = (c["flow.steps_accepted"] / attempted
                                    if attempted else 0.0)
        out["flow.rhs_evals_per_step"] = (c["flow.rhs_evals"] / attempted
                                          if attempted else 0.0)
        out["matcore.eigenvalues_calls"] = calls.get("matcore.eigenvalues", 0)
        out["geometry.mu_of_a_calls"] = calls.get("geometry.mu_of_a", 0)
        out.update({
            "flow.step_s": own.get("flow.integrate", 0.0),
            "flow.diagnostics_s": t("flow.diagnostic_row") + eig_in_flow,
            "flow.to_csv_s": t("flow.to_csv"),
            "matcore.eigenvalues_s": t("matcore.eigenvalues"),
            "casebook.sweep_self_s": own.get("casebook.phase2d_sweep", 0.0),
            "geometry.mu_of_a_s": t("geometry.mu_of_a"),
            "geometry.riemann_s": t("geometry.riemann_tensor"),
            "geometry.type3_s": t("geometry.type3_monitor"),
            "geometry.ricci_s": t("geometry.ricci_general", "geometry.ricci_block"),
            "geometry.sectional_s": t("geometry.sample_sectional",
                                      "geometry.sectional_curvature"),
            "geometry.curvature_report_s": t("geometry.build_curvature_report"),
            "soliton.certify_s": t("soliton.certify_algebraic_soliton"),
            "soliton.derivation_basis_s": t("soliton.derivation_basis"),
            "cli.self_s": own.get("cli.main", 0.0),
            "trace.span_coverage": (
                (top - sum(own.get(x, 0.0) for x in _ENTRY_SPANS)) / wall
                if wall > 0 else 0.0),
        })
        return out


def rhs_seconds_computed(rhs_evals, reps=1000, blocks=3):
    """Sum over (kind, n) of evaluations times the public rhs's per-call cost."""
    rng = np.random.default_rng(0)
    total = 0.0
    for (kind, n), evals in sorted(rhs_evals.items()):
        a = rng.standard_normal((n, n))
        a /= np.linalg.norm(a)
        fn = _PUBLIC_RHS[kind]
        per_call = []
        for _ in range(blocks):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(a)
            per_call.append((time.perf_counter() - t0) / reps)
        total += evals * statistics.median(per_call)
    return total

"""Spans around the calls into each sgdlab layer, recorded from outside the package.

`instrument(tracer)` replaces public functions on the `sgdlab` module objects
with timing wrappers and puts the originals back on exit.  Objective batch
calls are wrapped on each `Objective` that `objectives.catalog_lookup`
returns, and `NoiseModel.envelope_batch` on the class.  The wrappers only
time and count: arguments and results pass through untouched, so a traced
call writes the same report bytes as an untraced one.

Per-step calls (`Objective.grad`, `g1`, `NoiseModel.sigma_at`) are not
wrapped: a span costs about a microsecond, as much as the step itself.  The
runner times them standalone instead.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (span name, module that callers resolve the name through, attribute).
# A name imported with `from x import f` is looked up in the importing
# module, so it is patched there.
TARGETS = (
    ("config.load_config", "sgdlab.cli", "load_config"),
    ("engine.run_trajectory", "sgdlab.diagnostics", "run_trajectory"),
    ("engine.run_trajectory", "sgdlab.engine", "run_trajectory"),
    ("engine.validate_schedule", "sgdlab.engine", "validate_schedule"),
    ("diagnostics.run_ensemble", "sgdlab.diagnostics", "run_ensemble"),
    ("diagnostics.gradient_convergence_stats", "sgdlab.diagnostics",
     "gradient_convergence_stats"),
    ("diagnostics.envelope_sup_over_ball", "sgdlab.diagnostics", "envelope_sup_over_ball"),
    ("checkers.holder_sup_on_box", "sgdlab.checkers", "holder_sup_on_box"),
    ("checkers.check_descent_inequality", "sgdlab.checkers", "check_descent_inequality"),
    ("checkers.sample_gradient_norms", "sgdlab.checkers", "sample_gradient_norms"),
    ("checkers.check_variance_control", "sgdlab.checkers", "check_variance_control"),
    ("checkers.check_grad_bound", "sgdlab.checkers", "check_grad_bound"),
    ("checkers.check_expected_smoothness", "sgdlab.checkers", "check_expected_smoothness"),
    ("checkers.probe_radial_conditions", "sgdlab.checkers", "probe_radial_conditions"),
    ("checkers.estimate_local_holder", "sgdlab.checkers", "estimate_local_holder"),
    ("checkers.find_eigenvalue_threshold", "sgdlab.checkers", "find_eigenvalue_threshold"),
    ("reports.ensemble_report_payload", "sgdlab.reports", "ensemble_report_payload"),
    ("reports.write_json", "sgdlab.reports", "write_json"),
    ("reports.write_checkpoints_csv", "sgdlab.reports", "write_checkpoints_csv"),
    ("reports.write_radial_csv", "sgdlab.reports", "write_radial_csv"),
)

OBJECTIVE_BATCH_FIELDS = ("value_batch", "grad_batch", "grad_norm_batch")


def _count_trajectory(counts: Counter, args, kwargs, traj) -> None:
    counts["engine.steps"] += traj.last_k
    counts["engine.trajectories_truncated"] += int(traj.truncated)
    # Computed, not measured: the runner allocates a (K+1) x p iterate trace
    # and a (K+1) norm trace of float64 per trajectory.
    p = traj.thetas.shape[1]
    counts["engine.trace_bytes"] += 8 * (traj.horizon + 1) * (p + 1)


def _count_schedule_scan(counts: Counter, args, kwargs, report) -> None:
    counts["engine.schedule_steps"] += report.horizon_used + 1


def _count_threshold_scan(counts: Counter, args, kwargs, threshold) -> None:
    k_max = kwargs["K_max"] if "K_max" in kwargs else args[3]
    counts["engine.schedule_steps"] += k_max + 1


def _count_checkpoints(counts: Counter, args, kwargs, result) -> None:
    counts["diagnostics.checkpoints"] += len(result.convergence.ks)


COUNTERS = {
    "engine.run_trajectory": _count_trajectory,
    "engine.validate_schedule": _count_schedule_scan,
    "checkers.find_eigenvalue_threshold": _count_threshold_scan,
    "diagnostics.run_ensemble": _count_checkpoints,
}


class Tracer:
    """In-memory spans `[name, start, end, parent index]` plus exact counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> tuple[dict, dict, Counter]:
        """(inclusive seconds, self seconds, call count) per span name."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start)
            calls[name] += 1
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return total, self_s, calls


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls of one `cli.main` through `tracer`."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped = {}
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:  # a later refactor may drop a function; its spans read 0
            continue
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(name, fn)
        patch(module, attr, wrapped[fn])

    objectives = importlib.import_module("sgdlab.objectives")
    lookup = objectives.catalog_lookup

    def traced_lookup(*args, **kwargs):
        obj = lookup(*args, **kwargs)
        for field in OBJECTIVE_BATCH_FIELDS:
            setattr(obj, field, tracer.wrap(f"objectives.{field}", getattr(obj, field)))
        return obj

    patch(objectives, "catalog_lookup", traced_lookup)
    patch(objectives.NoiseModel, "envelope_batch",
          tracer.wrap("objectives.envelope_batch", objectives.NoiseModel.envelope_batch))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""Differential test: the block worker against the per-trajectory reference.

`_reference_summarize_one` and `reference_ensemble` are the per-trajectory
worker and the aggregation that `diagnostics._run_block` replaced, kept
verbatim apart from their names and with the worker pool left out (it mapped
the same calls in the same order).  For every ensemble size and jobs level,
each EnsembleResult field, NaN positions included, and the report bytes must
be those of the reference.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from sgdlab.diagnostics import (
    CaptureConfig,
    CaptureReport,
    DichotomyClassification,
    EnsembleResult,
    EnsembleSpec,
    _check_gammas,
    classify_dichotomy,
    default_epsilon_conv,
    default_r_div,
    default_window,
    envelope_sup_over_ball,
    gradient_convergence_stats,
    run_ensemble,
    split_seed,
)
from sgdlab.engine import Schedule, run_trajectory
from sgdlab.errors import ContractViolation
from sgdlab.objectives import NoiseSpec, ObjectiveSpec, _norms
from sgdlab.reports import dumps_json, ensemble_report_payload


@dataclass
class _TrajectorySummary:
    f_gap: np.ndarray
    grad_norm: np.ndarray
    classification: DichotomyClassification
    escape_ks: np.ndarray | None
    overflow: bool
    domain_violation: bool
    f_lim_estimate: float
    last_k: int
    seed: int


def _reference_summarize_one(spec: EnsembleSpec, index: int, W: int, epsilon_conv: float,
                             R_div: float, capture: CaptureConfig | None) -> _TrajectorySummary:
    oracle = spec.build()
    seed = split_seed(spec.master_seed, index)
    traj = run_trajectory(oracle, spec.schedule, np.asarray(spec.theta0, dtype=float),
                          spec.horizon, seed, record_stride=spec.record_stride)
    # The run's records are the first n checkpoints: both grids are
    # record_points with one stride, and the run's grid stops at its last_k.
    cps = spec.checkpoints()
    n = int(np.searchsorted(cps, traj.last_k, side="right"))
    f_gap = np.full(len(cps), np.nan)
    grad_norm = np.full(len(cps), np.nan)
    f_gap[:n] = traj.f_values[:n] - oracle.objective.f_lb
    grad_norm[:n] = traj.grad_norms[:n]

    classification = classify_dichotomy(traj, W, epsilon_conv, R_div)

    escape_ks = None
    if capture is not None:
        dist = _norms(traj.trace - np.asarray(capture.theta_bar, dtype=float)[None, :])
        inside = dist[:-1] <= capture.R
        jumped = dist[1:] >= capture.R + capture.epsilon
        escape_ks = np.nonzero(inside & jumped)[0].astype(np.int64)

    window_sel = traj.ks > (traj.last_k - W)
    f_lim_estimate = float(np.mean(traj.f_values[window_sel]))

    return _TrajectorySummary(
        f_gap=f_gap,
        grad_norm=grad_norm,
        classification=classification,
        escape_ks=escape_ks,
        overflow=traj.overflow,
        domain_violation=traj.domain_violation,
        f_lim_estimate=f_lim_estimate,
        last_k=traj.last_k,
        seed=seed,
    )


def reference_ensemble(spec, *, W=None, epsilon_conv=None, R_div=None, gammas=None,
                       capture=None) -> EnsembleResult:
    W = default_window(spec.horizon) if W is None else int(W)
    epsilon_conv = default_epsilon_conv(spec.theta0) if epsilon_conv is None else float(epsilon_conv)
    R_div = default_r_div(spec.theta0) if R_div is None else float(R_div)
    if W > spec.horizon:
        raise ContractViolation("window W must be <= horizon")
    _check_gammas(gammas)
    g_r = None
    if capture is not None:
        capture.check(spec.objective.dimension)
        g_r = envelope_sup_over_ball(spec, capture.theta_bar, capture.R)

    args = [(spec, i, W, epsilon_conv, R_div, capture) for i in range(spec.n_trajectories)]
    summaries = [_reference_summarize_one(*a) for a in args]

    cps = spec.checkpoints()
    f_gap = np.vstack([s.f_gap for s in summaries])
    grad_norm = np.vstack([s.grad_norm for s in summaries])
    report = gradient_convergence_stats(
        cps, f_gap, grad_norm,
        [s.f_lim_estimate for s in summaries],
        gammas=gammas,
    )

    capture_report = None
    if capture is not None:
        counts = np.zeros(spec.horizon, dtype=np.int64)
        for s in summaries:
            counts[s.escape_ks] += 1
        n = spec.n_trajectories
        empirical = counts / n
        lmax = spec.schedule.bounds(spec.horizon)[0]
        tail = (capture.epsilon ** -2) * lmax ** 2 * g_r
        se = np.sqrt(empirical * (1.0 - empirical) / n)
        margin = empirical - tail - 4.0 * se
        nonzero = np.nonzero(counts)[0]
        capture_report = CaptureReport(
            theta_bar=tuple(float(x) for x in capture.theta_bar),
            R=capture.R,
            epsilon=capture.epsilon,
            G_R=g_r,
            n_trajectories=n,
            n_steps=spec.horizon,
            escape_counts={int(k): int(counts[k]) for k in nonzero},
            empirical=empirical,
            theoretical_tail=tail,
            empirical_sum=float(np.sum(empirical)),
            theoretical_sum=float(np.sum(tail)),
            total_escapes=int(np.sum(counts)),
            bound_margin_max=float(np.max(margin)) if len(margin) else 0.0,
        )
        report.escape_total = capture_report.total_escapes

    return EnsembleResult(
        spec=spec,
        convergence=report,
        classifications=[s.classification for s in summaries],
        capture=capture_report,
        n_overflow=sum(1 for s in summaries if s.overflow),
        n_domain_violation=sum(1 for s in summaries if s.domain_violation),
        seeds=[s.seed for s in summaries],
        last_ks=[s.last_k for s in summaries],
    )


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def _spec(objective, noise, schedule, theta0, horizon, stride, seed):
    return functools.partial(EnsembleSpec, objective=objective, noise=noise,
                             schedule=schedule, theta0=theta0, horizon=horizon,
                             master_seed=seed, record_stride=stride)


# name -> (spec for a given n_trajectories, run_ensemble keywords)
CASES = {
    "quadratic-capture": (
        _spec(ObjectiveSpec("quadratic"), NoiseSpec("additive-gaussian", sigma=2.0),
              Schedule.scalar(0.5, 0.75, k0=2), (1.0,), 300, 7, 11),
        {"capture": CaptureConfig((0.0,), 0.5, 0.25), "gammas": [0.0, 0.5]}),
    # domain exits whose last_k falls between stride points
    "log1p-domain-exits": (
        _spec(ObjectiveSpec("log1p-abs"), NoiseSpec("additive-gaussian", sigma=1.0),
              Schedule.scalar(0.5, 0.75), (2.0,), 200, 10, 3),
        {}),
    # |theta| doubles each step, so every run overflows before the horizon
    "overflow-capture": (
        _spec(ObjectiveSpec("quadratic"), NoiseSpec("additive-gaussian", sigma=1.0),
              Schedule.scalar(3.0, 0.0), (1.0,), 600, 10, 5),
        {"capture": CaptureConfig((0.0,), 1.0, 0.5)}),
    "rotated-p3-statedep": (
        _spec(ObjectiveSpec("smooth-rectifier", dimension=3),
              NoiseSpec("additive-gaussian-statedep", sigma_expr="0.3*(1+norm(theta))"),
              Schedule.rotated([0.5, 0.3, 0.2], [0.75, 0.8, 0.9], k0=2, rotation_seed=4),
              (1.0, -0.5, 2.0), 150, 5, 9),
        {"gammas": [0.25, 0.75]}),
    # 203 = 20 * 10 + 3: the last checkpoint is off the stride grid
    "stride-off-horizon": (
        _spec(ObjectiveSpec("smooth-rectifier"), NoiseSpec("rademacher-radial"),
              Schedule.scalar(0.4, 0.6), (1.5,), 203, 10, 21),
        {"W": 37}),
}


@functools.cache
def _reference(case, n):
    make_spec, kwargs = CASES[case]
    spec = make_spec(n_trajectories=n)
    with np.errstate(over="ignore"):  # as in cli.main: overflow is counted, not warned
        return spec, reference_ensemble(spec, **kwargs)


def _assert_same(got, want, path="result"):
    assert type(got) is type(want), path
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, path
        assert got.tobytes() == want.tobytes(), path
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), path
    else:
        assert got == want, path


def test_the_cases_reach_the_edges():
    _, domain = _reference("log1p-domain-exits", 13)
    assert 0 < domain.n_domain_violation < 13
    off_grid = [k for k in domain.last_ks if k % 10 and k < 200]
    assert off_grid
    _, overflow = _reference("overflow-capture", 7)
    assert overflow.n_overflow == 7 and overflow.capture.total_escapes > 0
    _, captured = _reference("quadratic-capture", 13)
    assert captured.capture.total_escapes > 0
    assert any(math.isnan(v) for v in overflow.convergence.f_gap_mean)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 13])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_worker_matches_the_per_trajectory_reference(case, n, jobs):
    spec, want = _reference(case, n)
    with np.errstate(over="ignore"):
        got = run_ensemble(spec, jobs=jobs, **CASES[case][1])
    assert got.spec is spec
    for f in dataclasses.fields(want):
        if f.name != "spec":
            _assert_same(getattr(got, f.name), getattr(want, f.name), f.name)
    assert dumps_json(ensemble_report_payload(got)) == dumps_json(ensemble_report_payload(want))

"""Diagnostics tests: classification rules, ensemble determinism, capture
tallies, convergence statistics, stopping times."""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import diagnostics
from sgdlab.diagnostics import (
    CaptureConfig,
    EnsembleSpec,
    _column_stats,
    classify_dichotomy,
    compute_stopping_times,
    envelope_sup_over_ball,
    run_ensemble,
    split_seed,
)
from sgdlab.engine import Schedule, Trajectory, run_trajectory
from sgdlab.errors import ContractViolation
from sgdlab.objectives import NoiseModel, NoiseSpec, ObjectiveSpec, StochasticOracle, catalog_lookup
from sgdlab.reports import dumps_json, ensemble_report_payload


def synthetic_trajectory(norms, horizon=None, **flags):
    norms = np.asarray(norms, dtype=float)
    n = len(norms)
    return Trajectory(
        ks=np.arange(n),
        trace=norms[:, None].copy(),
        f_values=np.zeros(n),
        grad_norms=np.zeros(n),
        seed=0,
        horizon=n - 1 if horizon is None else horizon,
        **flags,
    )


# ---------------------------------------------------------------------------
# dichotomy classification
# ---------------------------------------------------------------------------

def test_classify_decaying_norms_converged_like():
    ks = np.arange(1, 2001)
    traj = synthetic_trajectory(1.0 / ks)
    c = classify_dichotomy(traj, 200, 0.5, 10.0)
    assert c.verdict == "converged-like"
    assert c.evidence["window_range"] < 0.5
    assert c.evidence["window_min"] + c.evidence["window_range"] < 10.0


def test_classify_growing_norms_diverging_like():
    traj = synthetic_trajectory(np.arange(2000, dtype=float))
    c = classify_dichotomy(traj, 100, 0.5, 10.0)
    assert c.verdict == "diverging-like"
    assert c.evidence["window_min"] > 10.0


def test_classify_oscillation_undecided():
    r_div = 10.0
    norms = np.tile([0.0, 2.0 * r_div], 500)
    c = classify_dichotomy(synthetic_trajectory(norms), 100, 0.5, r_div)
    assert c.verdict == "undecided"


def test_classify_rules_are_mutually_exclusive():
    # converged-like needs window max < R_div, diverging-like needs min > R_div
    rng = np.random.default_rng(0)
    for _ in range(200):
        norms = rng.uniform(0, 30, 50)
        c = classify_dichotomy(synthetic_trajectory(norms), 20, rng.uniform(0.1, 5),
                               rng.uniform(1, 20))
        conv = (c.evidence["window_range"] < c.epsilon_conv
                and c.evidence["window_min"] + c.evidence["window_range"] < c.R_div)
        div = c.evidence["window_min"] > c.R_div
        assert not (conv and div)
        assert c.verdict == ("converged-like" if conv else
                             "diverging-like" if div else "undecided")


def test_domain_exit_is_truncated_whatever_the_window_shows():
    # the window sits still at the floor: the window rules alone say converged-like
    norms = np.full(100, 1.0)
    assert classify_dichotomy(synthetic_trajectory(norms), 20, 0.5, 10.0).verdict == (
        "converged-like")
    traj = synthetic_trajectory(norms, horizon=500, violation_theta=np.array([0.9]))
    c = classify_dichotomy(traj, 20, 0.5, 10.0)
    assert c.verdict == "truncated"
    assert c.evidence == {"last_k": 99}


def test_overflowed_trajectory_keeps_its_window_verdict():
    traj = synthetic_trajectory(np.arange(100, dtype=float), horizon=500, overflow=True)
    assert classify_dichotomy(traj, 20, 0.5, 10.0).verdict == "diverging-like"


def test_overflowed_run_with_a_still_full_window_is_never_converged_like():
    # the window rules alone say converged-like below R_div
    still = np.full(20, 5.0)
    assert classify_dichotomy(synthetic_trajectory(still, horizon=500), 20, 0.5,
                              10.0).verdict == "converged-like"
    c = classify_dichotomy(synthetic_trajectory(still, horizon=500, overflow=True), 20, 0.5, 10.0)
    assert c.verdict == "undecided"
    assert c.evidence == {"window_range": 0.0, "window_min": 5.0}
    high = synthetic_trajectory(np.full(20, 50.0), horizon=500, overflow=True)
    assert classify_dichotomy(high, 20, 0.5, 10.0).verdict == "diverging-like"


def test_exp_abs_run_capped_at_its_first_record_reads_undecided():
    # F(700) is OVERFLOW_CAP, so each run's records stop at theta0: a window
    # of W = 1 iterate with range 0, below the default R_div of 1e3 * 701
    spec = EnsembleSpec(objective=ObjectiveSpec("exp-abs"), noise=NoiseSpec("zero"),
                        schedule=Schedule.scalar(1.0, 0.0), theta0=(700.0,), horizon=1000,
                        n_trajectories=2, master_seed=0)
    result = run_ensemble(spec, W=1)
    assert result.n_overflow == 2 and result.last_ks == [0, 0]
    assert [c.verdict for c in result.classifications] == ["undecided"] * 2
    assert [c.evidence for c in result.classifications] == [
        {"window_range": 0.0, "window_min": 700.0}] * 2


def test_f_that_overflows_on_the_record_grid_warns_nothing():
    # power-q(q=4) from 2 under step 1: the iterates stay below THETA_CAP
    # until their F = x**4 overflows float64 on the record grid; the records
    # are read under run_trajectory's errors.numeric_policy, so a library
    # caller sees no numpy warning (pytest turns one into an error)
    spec = EnsembleSpec(objective=ObjectiveSpec("power-q", q=4.0), noise=NoiseSpec("zero"),
                        schedule=Schedule.scalar(1.0, 0.0), theta0=(2.0,), horizon=1000,
                        n_trajectories=2, master_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_ensemble(spec)
    assert result.n_overflow == 2 and result.n_domain_violation == 0


@pytest.mark.parametrize("flags", [{"overflow": True}, {"violation_theta": np.array([0.5])}])
def test_run_stopped_before_its_window_filled_is_truncated(flags):
    # a window of W - 1 iterates is not read, whichever way the run stopped;
    # one of W is read after an overflow, and a domain exit is truncated anyway
    short = synthetic_trajectory(np.full(19, 20.0), horizon=500, **flags)
    c = classify_dichotomy(short, 20, 0.5, 10.0)
    assert c.verdict == "truncated" and c.evidence == {"last_k": 18}
    full = synthetic_trajectory(np.full(20, 20.0), horizon=500, **flags)
    assert classify_dichotomy(full, 20, 0.5, 10.0).verdict == (
        "diverging-like" if "overflow" in flags else "truncated")


def test_power_q_divergence_that_overflows_before_its_window_is_truncated():
    # power-q(q=2) from 2 under a constant step 3: x_k = 2 * (-5)^k passes
    # THETA_CAP at step 215 of 5000, long before the default window of 500 fills
    spec = EnsembleSpec(objective=ObjectiveSpec("power-q", q=2.0), noise=NoiseSpec("zero"),
                        schedule=Schedule.scalar(3.0, 0.0), theta0=(2.0,), horizon=5000,
                        n_trajectories=4, master_seed=0)
    result = run_ensemble(spec)
    assert result.n_overflow == 4 and result.n_domain_violation == 0
    assert [c.verdict for c in result.classifications] == ["truncated"] * 4
    assert [c.evidence for c in result.classifications] == [{"last_k": 214}] * 4
    assert result.last_ks == [214] * 4


def test_classify_window_contract():
    traj = synthetic_trajectory(np.ones(100))
    with pytest.raises(ContractViolation):
        classify_dichotomy(traj, 0, 0.1, 10.0)
    with pytest.raises(ContractViolation):
        classify_dichotomy(traj, 1000, 0.1, 10.0)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def quad_spec(noise=None, K=2000, n=10, seed=42, stride=1, theta0=(1.0,),
              schedule=None):
    return EnsembleSpec(
        objective=ObjectiveSpec("quadratic"),
        noise=noise or NoiseSpec("zero"),
        schedule=schedule or Schedule.scalar(0.5, 0.75, k0=2),
        theta0=theta0,
        horizon=K,
        n_trajectories=n,
        master_seed=seed,
        record_stride=stride,
    )


def test_zero_noise_ensemble_all_converged_with_recursion_oracle():
    spec = quad_spec(K=2000, n=10, stride=10)
    result = run_ensemble(spec, epsilon_conv=0.5, R_div=10.0)
    assert [c.verdict for c in result.classifications] == ["converged-like"] * 10
    # deterministic recursion oracle: theta_K = theta0 * prod(1 - eta_k)
    x = 1.0
    for k in range(2000):
        x = x - 0.5 * (k + 2.0) ** -0.75 * x
    med = result.convergence.grad_norm_median[-1]
    assert med == pytest.approx(abs(x), rel=1e-12)
    assert med < 1e-3


def test_ensemble_bitwise_determinism():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0), K=500, n=6)
    r1 = run_ensemble(spec, gammas=[0.0, 0.5],
                      capture=CaptureConfig((0.0,), 1.0, 0.5))
    r2 = run_ensemble(spec, gammas=[0.0, 0.5],
                      capture=CaptureConfig((0.0,), 1.0, 0.5))
    assert dumps_json(ensemble_report_payload(r1)) == dumps_json(ensemble_report_payload(r2))


@pytest.mark.parametrize("capture,message", [
    (CaptureConfig((0.0,), 1.0, 0.0), "epsilon must be finite and > 0"),
    (CaptureConfig((0.0,), 1.0, -0.5), "epsilon must be finite and > 0"),
    (CaptureConfig((0.0, 5.0), 1.0, 0.5), "theta_bar must have p = 1 entries"),
    (CaptureConfig((0.0,), -1.0, 0.5), "R must be finite and >= 0"),
    # a NaN centre ran and reported 0 escapes with G_R and bound_margin_max NaN
    (CaptureConfig((math.nan,), 1.0, 0.5), "theta_bar entries must be finite"),
    (CaptureConfig((-math.inf,), 1.0, 0.5), "theta_bar entries must be finite"),
])
def test_bad_capture_block_fails_before_any_trajectory(monkeypatch, capture, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(diagnostics, "run_trajectory", no_run)
    with pytest.raises(ContractViolation, match=message):
        run_ensemble(quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0), K=50, n=2),
                     capture=capture)


@pytest.mark.parametrize("kwargs", [
    {"epsilon_conv": -1.0, "R_div": -5.0},  # every run would read diverging-like
    {"epsilon_conv": 0.0},
    {"R_div": 0.0},
    {"epsilon_conv": float("nan")},
    {"R_div": float("inf")},
])
def test_bad_verdict_constants_fail_before_any_trajectory(monkeypatch, kwargs):
    def no_run(*args, **kw):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(diagnostics, "run_trajectory", no_run)
    with pytest.raises(ContractViolation, match="epsilon_conv and R_div must be finite"):
        run_ensemble(quad_spec(theta0=(0.5,), K=50, n=2), **kwargs)


def test_ensemble_parallel_matches_sequential():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=0.5), K=300, n=8)
    seq = run_ensemble(spec)
    par = run_ensemble(spec, jobs=2)
    assert dumps_json(ensemble_report_payload(seq)) == dumps_json(ensemble_report_payload(par))


@pytest.mark.parametrize("n,jobs,cpus,workers", [
    (2, 10**5, 8, 2),      # capped by the two one-trajectory blocks
    (100, 10**5, 8, 8),    # capped by the CPU count
    (100, 3, 8, 3),
    (4, 4, None, None),    # an unknown CPU count means one worker: no pool
])
def test_worker_pool_is_capped_by_cpus_and_blocks(monkeypatch, n, jobs, cpus, workers):
    # a fake pool records max_workers and maps inline: no process starts
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=0.5), K=20, n=n, stride=5)
    serial = dumps_json(ensemble_report_payload(run_ensemble(spec)))
    # run_ensemble imports the pool class where it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    result = run_ensemble(spec, jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert dumps_json(ensemble_report_payload(result)) == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_last_ks_are_each_trajectorys_last_step_in_order(jobs):
    # log1p-abs from 3.0 with sigma 0.3: some trajectories leave the domain
    # between checkpoints, the others run the full horizon
    spec = EnsembleSpec(
        objective=ObjectiveSpec("log1p-abs"), noise=NoiseSpec("additive-gaussian", sigma=0.3),
        schedule=Schedule.scalar(0.5, 0.75), theta0=(3.0,), horizon=200, n_trajectories=8,
        master_seed=3, record_stride=10)
    result = run_ensemble(spec, jobs=jobs)
    oracle = spec.build()
    expected = [run_trajectory(oracle, spec.schedule, [3.0], 200, seed, record_stride=10).last_k
                for seed in result.seeds]
    assert result.last_ks == expected
    truncated = [k < spec.horizon for k in result.last_ks]
    assert 0 < sum(truncated) < spec.n_trajectories
    assert result.n_domain_violation == sum(truncated)
    assert [c.verdict == "truncated" for c in result.classifications] == truncated
    # a trajectory counts at checkpoint k exactly while k <= its last_k
    assert result.convergence.n_alive == [
        sum(last >= k for last in result.last_ks) for k in result.convergence.ks]


def test_trajectory_seeds_are_split_and_distinct():
    spec = quad_spec(n=20)
    result = run_ensemble(spec)
    assert result.seeds == [split_seed(42, i) for i in range(20)]
    assert len(set(result.seeds)) == 20


def test_split_seed_is_stable():
    # frozen: seed splitting must never change across releases
    assert split_seed(0, 0) == 8668861027912758289
    assert split_seed(20250808, 7) == 6254504508572951081


@pytest.mark.parametrize("args,name", [
    ((1.5, 0), "master_seed"),   # split as seed 1
    ((-1, 0), "master_seed"),    # numpy's ValueError
    ((True, 0), "master_seed"),  # split as seed 1
    ((0, -1), "index"),
    ((0, 2.5), "index"),         # split as index 2
])
def test_split_seed_refuses_a_seed_or_index_that_is_not_an_integer_at_least_0(args, name):
    with pytest.raises(ContractViolation, match=rf"^{name} must be an integer >= 0, got "):
        split_seed(*args)
    assert split_seed(np.int64(3), np.uint8(2)) == split_seed(3, 2)


# ---------------------------------------------------------------------------
# capture / escape
# ---------------------------------------------------------------------------

def capture_report(spec, theta_bar, R, epsilon):
    return run_ensemble(spec, capture=CaptureConfig(tuple(theta_bar), R, epsilon)).capture


def test_zero_noise_descent_never_escapes():
    spec = quad_spec(K=500, n=5, theta0=(0.9,))
    report = capture_report(spec, [0.0], 2.0, 0.2)
    assert report.total_escapes == 0
    assert np.all(report.empirical == 0.0)


def test_theoretical_tail_closed_form():
    # eta_k = (k+1)^-0.75, eps = 1, G_R = sup_{|x|<=2} x^2 = 4 (zero noise)
    spec = quad_spec(schedule=Schedule.scalar(1.0, 0.75, k0=1), K=1000, n=2,
                     theta0=(0.5,))
    report = capture_report(spec, [0.0], 2.0, 1.0)
    assert report.G_R == pytest.approx(4.0, rel=1e-8)
    ks = np.arange(1000)
    expected = 4.0 * (ks + 1.0) ** -1.5
    assert report.theoretical_tail == pytest.approx(expected, rel=1e-8)
    oracle_sum = math.fsum(4.0 * (k + 1.0) ** -1.5 for k in range(1000))
    assert report.theoretical_sum == pytest.approx(oracle_sum, rel=1e-10)


def test_escape_bound_holds_for_compliant_noise():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0),
                     schedule=Schedule.scalar(1.0, 0.75, k0=1),
                     K=3000, n=50, theta0=(0.5,), stride=100)
    result = run_ensemble(spec, capture=CaptureConfig((0.0,), 1.0, 0.5))
    assert result.capture.bound_margin_max <= 0.0


def test_capture_margin_false_alarm_rate_and_power():
    # quadratic + N(0, 1) noise: G_R = R^2 + 1 is the exact sup of E g^2 over
    # the ball, so eps^-2 eta_k^2 G_R bounds each step's escape probability and
    # every bound_margin_max > 0 is a false alarm (0 of 2000 seeds measured).
    # The tail is loose (8.6x the escape frequency at k = 0, 28-93x later), so
    # power is shown against a tail understated 30x (1999 of 2000 caught).
    false_alarms = caught = 0
    for seed in range(60):
        spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0), seed=seed,
                         schedule=Schedule.scalar(1.0, 0.6), K=10, n=100, theta0=(0.0,), stride=10)
        cap = capture_report(spec, [0.0], 0.2, 0.5)
        four_se = 4.0 * np.sqrt(cap.empirical * (1.0 - cap.empirical) / cap.n_trajectories)
        margin = cap.empirical - cap.theoretical_tail - four_se
        assert np.max(margin) == cap.bound_margin_max
        false_alarms += cap.bound_margin_max > 0.0
        caught += np.max(cap.empirical - cap.theoretical_tail / 30.0 - four_se) > 0.0
    assert false_alarms <= 1
    assert caught >= 58


def test_rademacher_counterexample_produces_escapes():
    # pilot-pinned: the multiplicative random walk leaves a moderate ball
    spec = EnsembleSpec(
        objective=ObjectiveSpec("loglog1p-abs"),
        noise=NoiseSpec("rademacher-radial"),
        schedule=Schedule.scalar(0.5, 0.6, k0=1),
        theta0=(100.0,),
        horizon=10**4,
        n_trajectories=20,
        master_seed=55,
        record_stride=100,
    )
    report = capture_report(spec, [0.0], 150.0, 15.0)
    assert report.total_escapes > 0
    assert report.G_R >= 150.0 ** 2


def test_envelope_sup_radial_reduction_matches_grid():
    spec = EnsembleSpec(
        objective=ObjectiveSpec("quadratic", dimension=2),
        noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(1.0, 0.75, dim=2),
        theta0=(1.0, 0.0),
        horizon=10,
        n_trajectories=1,
        master_seed=0,
    )
    # ball of radius 2 around (1, 0): norms reach 3, so sup G = 9 + p sigma^2
    val = envelope_sup_over_ball(spec, [1.0, 0.0], 2.0)
    assert val == pytest.approx(9.0 + 2.0, rel=1e-6)


@pytest.mark.parametrize("theta_bar,R,message", [
    ([0.0], math.nan, "R must be finite and >= 0, got nan"),
    ([1.0, 0.0], math.inf, "R must be finite and >= 0, got inf"),
    ([1.0, 0.0], -math.inf, "R must be finite and >= 0, got -inf"),
    ([math.nan], 2.0, r"theta_bar entries must be finite, got \[nan\]"),
    ([1.0, math.inf], 2.0, r"theta_bar entries must be finite, got \[1.0, inf\]"),
])
def test_envelope_sup_refuses_a_ball_that_is_not_finite(theta_bar, R, message):
    # only R < 0 was refused: each of these returned NaN
    p = len(theta_bar)
    spec = EnsembleSpec(
        objective=ObjectiveSpec("quadratic", dimension=p),
        noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(1.0, 0.75, dim=p), theta0=(1.0,) * p, horizon=10,
        n_trajectories=1, master_seed=0)
    with pytest.raises(ContractViolation, match=message):
        envelope_sup_over_ball(spec, theta_bar, R)


# ---------------------------------------------------------------------------
# convergence statistics
# ---------------------------------------------------------------------------

def test_deterministic_descent_mean_grad_strictly_decreasing():
    spec = quad_spec(K=1000, n=4, stride=50)
    result = run_ensemble(spec)
    means = np.array(result.convergence.grad_norm_mean)
    assert np.all(np.diff(means) < 0.0)


def test_gamma_zero_moment_is_identically_one():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=0.5), K=500, n=6,
                     stride=50)
    result = run_ensemble(spec, gammas=[0.0, 0.5])
    assert all(v == 1.0 for v in result.convergence.gamma_moments[0.0])
    assert all(0.0 <= v for v in result.convergence.gamma_moments[0.5])


def test_quantiles_are_ordered():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0), K=400, n=30,
                     stride=20)
    rep = run_ensemble(spec).convergence
    for q25, med, q75 in zip(rep.f_gap_q25, rep.f_gap_median, rep.f_gap_q75):
        assert q25 <= med <= q75
    for q25, med, q75 in zip(rep.grad_norm_q25, rep.grad_norm_median, rep.grad_norm_q75):
        assert q25 <= med <= q75


def test_sup_mean_f_matches_manual_max():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=0.7), K=300, n=12,
                     stride=10)
    rep = run_ensemble(spec).convergence
    assert rep.sup_mean_f == pytest.approx(np.nanmax(rep.f_gap_mean), rel=1e-15)
    idx = int(np.nanargmax(rep.f_gap_mean))
    assert rep.sup_mean_f_k == rep.ks[idx]
    assert rep.sup_mean_f_se == pytest.approx(rep.f_gap_se[idx], rel=1e-15)


def test_f_lim_estimates_per_trajectory():
    spec = quad_spec(K=200, n=7, stride=10)
    rep = run_ensemble(spec, W=50).convergence
    assert len(rep.f_lim_estimates) == 7
    # zero-noise quadratic: the final-window mean of F is positive and tiny
    assert all(0.0 <= v < 1e-2 for v in rep.f_lim_estimates)


def test_truncated_trajectories_counted_via_n_alive():
    # big constant steps on exp-abs overflow quickly for every trajectory
    spec = EnsembleSpec(
        objective=ObjectiveSpec("exp-abs"),
        noise=NoiseSpec("zero"),
        schedule=Schedule.scalar(10.0, 0.0, k0=1),
        theta0=(5.0,),
        horizon=100,
        n_trajectories=3,
        master_seed=1,
        record_stride=1,
    )
    result = run_ensemble(spec)
    assert result.n_overflow == 3
    alive = result.convergence.n_alive
    assert alive[0] == 3
    assert alive[-1] == 0


def test_final_decade_slope_negative_for_contraction():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=0.1),
                     schedule=Schedule.scalar(1.0, 0.75, k0=1),
                     K=20000, n=10, stride=500)
    rep = run_ensemble(spec).convergence
    assert rep.final_decade_slope is not None
    assert rep.final_decade_slope < 0.0


# ---------------------------------------------------------------------------
# stopping times
# ---------------------------------------------------------------------------

def f_trajectory(f_values):
    f = np.asarray(f_values, dtype=float)
    n = len(f)
    return Trajectory(
        ks=np.arange(n),
        trace=np.zeros((n, 1)),
        f_values=f,
        grad_norms=np.zeros(n),
        seed=0,
        horizon=n - 1,
    )


def test_stopping_times_example_sequence():
    st_out = compute_stopping_times(f_trajectory([0.0, 0.5, 1.2, 2.3, 3.5]))
    assert st_out.taus == [0, 2, 3, 4]
    assert st_out.tau_geq_k
    assert st_out.complete  # the final step is itself a stopping time


def test_stopping_times_constant_sequence():
    st_out = compute_stopping_times(f_trajectory(np.ones(50)))
    assert st_out.taus == [0]
    assert not st_out.complete


def test_stopping_times_strict_increase_and_gap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = np.cumsum(rng.uniform(-0.5, 0.8, 200))
        st_out = compute_stopping_times(f_trajectory(f))
        taus = st_out.taus
        assert all(b > a for a, b in zip(taus, taus[1:]))
        for a, b in zip(taus, taus[1:]):
            assert f[b] > f[a] + 1.0
            # minimality: no earlier index crossed the threshold
            assert np.all(f[a + 1:b] <= f[a] + 1.0)
        assert st_out.tau_geq_k


def test_stopping_times_require_stride_one():
    traj = f_trajectory(np.arange(10.0))
    traj.record_stride = 4
    with pytest.raises(ContractViolation):
        compute_stopping_times(traj)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_stopping_times_invariants_hold_on_any_sequence(f_values):
    st_out = compute_stopping_times(f_trajectory(f_values))
    taus = st_out.taus
    assert taus[0] == 0
    assert all(b > a for a, b in zip(taus, taus[1:]))
    f = np.asarray(f_values)
    for a, b in zip(taus, taus[1:]):
        assert f[b] > f[a] + 1.0
    assert st_out.tau_geq_k == all(t >= i for i, t in enumerate(taus))


def test_stopping_times_on_counterexample_run():
    obj = catalog_lookup("loglog1p-abs")
    oracle = StochasticOracle(obj, NoiseModel("rademacher-radial", 1))
    traj = run_trajectory(oracle, Schedule.scalar(0.5, 0.6, k0=1), [100.0],
                          5000, seed=split_seed(9, 0), record_stride=1)
    st_out = compute_stopping_times(traj)
    taus = st_out.taus
    assert all(b > a for a, b in zip(taus, taus[1:]))
    for a, b in zip(taus, taus[1:]):
        assert traj.f_values[b] > traj.f_values[a] + 1.0


def test_capture_sparse_counts_reconstruct_empirical():
    spec = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0),
                     schedule=Schedule.scalar(1.0, 0.75, k0=1),
                     K=500, n=40, theta0=(0.5,), stride=50)
    report = capture_report(spec, [0.0], 1.0, 0.5)
    rebuilt = np.zeros(spec.horizon)
    for k, c in report.escape_counts.items():
        rebuilt[k] = c / report.n_trajectories
    assert np.array_equal(rebuilt, report.empirical)
    assert report.total_escapes == sum(report.escape_counts.values())


def test_report_json_survives_dead_checkpoints():
    # overflowing ensembles leave NaN columns; JSON must emit null, not NaN
    spec = EnsembleSpec(
        objective=ObjectiveSpec("exp-abs"),
        noise=NoiseSpec("zero"),
        schedule=Schedule.scalar(10.0, 0.0, k0=1),
        theta0=(5.0,),
        horizon=50,
        n_trajectories=2,
        master_seed=3,
        record_stride=1,
    )
    result = run_ensemble(spec)
    text = dumps_json(ensemble_report_payload(result))
    assert "NaN" not in text
    assert "null" in text


@pytest.mark.parametrize("spec", [
    pytest.param(quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0),
                           schedule=Schedule.scalar(3.0, 0.0), K=600, n=7, stride=10),
                 id="quadratic-c3-overflow"),
    pytest.param(EnsembleSpec(ObjectiveSpec("exp-abs", r0=1.0), NoiseSpec("zero"),
                              Schedule.scalar(1.0, 0.75), (400.0,), 600, 3, 0, 10),
                 id="exp-abs-from-400"),
])
def test_overflowing_ensemble_statistics_emit_no_warnings(spec):
    # outside cli.main, under run_ensemble's own errors.numeric_policy: an
    # overflowed run is counted, and its statistics are inf or NaN (null in
    # the report), without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_ensemble(spec)
    assert result.n_overflow == spec.n_trajectories
    assert math.isnan(result.convergence.f_gap_se[-1])


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_ensemble_spec_validation():
    with pytest.raises(ContractViolation):
        quad_spec(K=0)
    with pytest.raises(ContractViolation):
        quad_spec(n=0)
    with pytest.raises(ContractViolation):
        quad_spec(theta0=(1.0, 2.0))
    with pytest.raises(ContractViolation):
        run_ensemble(quad_spec(K=10), W=100)


@pytest.mark.parametrize("kwargs,name", [
    pytest.param({"K": 10.5}, "horizon", id="horizon"),
    # built, then failed in range with a TypeError
    pytest.param({"n": 2.5}, "n_trajectories", id="n_trajectories"),
    pytest.param({"stride": 2.5}, "record_stride", id="record_stride"),
    pytest.param({"stride": True}, "record_stride", id="record_stride-bool"),
])
def test_ensemble_spec_refuses_a_size_that_is_not_an_integer_at_least_1(kwargs, name):
    with pytest.raises(ContractViolation, match=rf"^{name} must be an integer >= 1, got "):
        quad_spec(**kwargs)


@pytest.mark.parametrize("W", [2.5, 0, True])
def test_run_ensemble_refuses_a_window_that_is_not_an_integer_at_least_1(monkeypatch, W):
    # 2.5 ran quietly as W = 2
    def no_run(*args, **kw):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(diagnostics, "run_trajectory", no_run)
    with pytest.raises(ContractViolation, match=rf"^W must be an integer >= 1, got {W!r}$"):
        run_ensemble(quad_spec(K=50, n=2), W=W)


def test_classify_dichotomy_refuses_a_window_that_is_not_an_integer():
    # 2.5 raised a TypeError from the window's slice
    with pytest.raises(ContractViolation, match=r"^W must be an integer >= 1, got 2.5$"):
        classify_dichotomy(synthetic_trajectory(np.ones(20)), 2.5, 0.5, 10.0)


@pytest.mark.parametrize("epsilon_conv,R_div", [
    (math.nan, 10.0), (-1.0, 10.0), (0.5, math.nan), (0.5, math.inf)])
def test_classify_dichotomy_refuses_bad_verdict_constants(epsilon_conv, R_div):
    # each returned a verdict, where run_ensemble refuses the same values
    with pytest.raises(ContractViolation, match=rf"^epsilon_conv and R_div must be finite "
                       rf"and > 0, got {epsilon_conv!r} and {R_div!r}$"):
        classify_dichotomy(synthetic_trajectory(np.ones(20)), 5, epsilon_conv, R_div)


@pytest.mark.parametrize("jobs", [2.5, True, 0, -1])
def test_run_ensemble_refuses_a_jobs_level_that_is_not_an_integer_at_least_1(monkeypatch,
                                                                            jobs):
    # 2.5 raised numpy's TypeError at 100 trajectories; True, 0 and -1 ran
    # as one worker
    def no_run(*args, **kw):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(diagnostics, "run_trajectory", no_run)
    with pytest.raises(ContractViolation, match=rf"^jobs must be an integer >= 1, got {jobs!r}$"):
        run_ensemble(quad_spec(K=50, n=100), jobs=jobs)


@pytest.mark.parametrize("p,theta_bar", [(2, [1.0]), (2, [1.0, 0.0, 0.0]), (1, [1.0, 5.0])])
def test_envelope_sup_refuses_a_centre_of_another_dimension(p, theta_bar):
    # each returned a value: 11.0 at p = 2, and at p = 1 the grid read the
    # first entry alone
    spec = EnsembleSpec(
        objective=ObjectiveSpec("quadratic", dimension=p),
        noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(1.0, 0.75, dim=p), theta0=(1.0,) * p, horizon=10,
        n_trajectories=1, master_seed=0)
    with pytest.raises(ContractViolation,
                       match=rf"^theta_bar must have p = {p} entries, got {len(theta_bar)}$"):
        envelope_sup_over_ball(spec, theta_bar, 2.0)


@pytest.mark.parametrize("kwargs,message", [
    ({"theta0": (math.nan,)}, "theta0 entries must be finite"),
    ({"theta0": (math.inf,)}, "theta0 entries must be finite"),
    # a negative seed built, and run_ensemble then died in numpy's SeedSequence
    ({"seed": -1}, "master_seed must be an integer >= 0"),
    ({"seed": 1.5}, "master_seed must be an integer >= 0"),
    ({"seed": True}, "master_seed must be an integer >= 0"),
])
def test_nonfinite_theta0_or_bad_master_seed_is_refused_by_name(kwargs, message):
    with pytest.raises(ContractViolation, match=message):
        quad_spec(**kwargs)


def test_numpy_integer_master_seed_is_accepted():
    assert quad_spec(seed=np.int64(42)).master_seed == 42


# ---------------------------------------------------------------------------
# vectorized per-column statistics
# ---------------------------------------------------------------------------

def _reference_column_stats(matrix):
    """The per-column loop that _column_stats vectorizes."""
    n_cols = matrix.shape[1]
    n_alive = np.sum(~np.isnan(matrix), axis=0).astype(int)
    out = [np.full(n_cols, np.nan) for _ in range(5)]
    for j in range(n_cols):
        col = matrix[:, j]
        col = col[~np.isnan(col)]
        if col.size == 0:
            continue
        out[0][j] = np.mean(col)
        out[1][j] = np.std(col, ddof=1) / np.sqrt(col.size) if col.size > 1 else 0.0
        out[2][j] = np.median(col)
        out[3][j] = np.quantile(col, 0.25)
        out[4][j] = np.quantile(col, 0.75)
    return (n_alive, *out)


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 7, 50, 201])
def test_column_stats_bit_equal_to_per_column_loop(n_rows):
    rng = np.random.default_rng(n_rows)
    matrix = np.exp(3.0 * rng.standard_normal((n_rows, 40)))
    matrix[:, 5] = matrix[0, 5]  # constant column: se is exactly 0
    # truncated trajectories leave NaN suffixes; the last column is all NaN
    for i in range(0, n_rows, 3):
        matrix[i, rng.integers(10, 40):] = np.nan
    matrix[:, -1] = np.nan
    got = _column_stats(matrix)
    _assert_column_stats_equal(got, _reference_column_stats(matrix))
    assert np.isnan(got[1][-1]) and got[0][-1] == 0

    # NaN holes: alive sets that change back and forth between neighbouring
    # columns, and all-NaN columns between alive ones
    holed = np.exp(3.0 * rng.standard_normal((n_rows, 40)))
    holed[0, 3:6] = holed[0, 8] = holed[0, 12] = np.nan
    holed[n_rows // 2, 4] = holed[n_rows // 2, 9:11] = np.nan
    holed[:, [14, 15, 20]] = np.nan
    holed[rng.random((n_rows, 40)) < 0.2] = np.nan
    got = _column_stats(holed)
    _assert_column_stats_equal(got, _reference_column_stats(holed))
    assert got[0][14] == got[0][20] == 0 and np.isnan(got[1][15]) and any(got[0][16:20])

    # more shapes and magnitudes: 1 to 61 columns, scales near
    # both ends of float64, both signs, and small integers (ties at the
    # quantile interpolation points), each with random NaN suffixes
    draws = (
        lambda size: 1e-300 * rng.standard_normal(size),
        lambda size: 1e300 * rng.standard_normal(size),
        lambda size: rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size),
        lambda size: rng.integers(-3, 4, size).astype(float),
    )
    for n_cols in (1, 2, 13, 61):
        for draw in draws:
            matrix = draw((n_rows, n_cols))
            for i in rng.choice(n_rows, size=n_rows // 2, replace=False):
                matrix[i, rng.integers(0, n_cols + 1):] = np.nan
            with np.errstate(over="ignore"):  # 1e300 squared: se is inf on both sides
                got, want = _column_stats(matrix), _reference_column_stats(matrix)
            _assert_column_stats_equal(got, want)


def test_convergence_report_declares_the_derived_columns():
    # the field declarations are the JSON keys; SERIES x STATISTICS names them
    names = [f.name for f in dataclasses.fields(diagnostics.ConvergenceReport)]
    derived = [f"{series}_{stat}" for series in diagnostics.SERIES
               for stat in diagnostics.STATISTICS]
    assert names[:2 + len(derived)] == ["ks", "n_alive", *derived]
    assert names[2 + len(derived)] == "f_lim_estimates"


def _assert_column_stats_equal(got, want):
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.tobytes() == w.tobytes()


def _per_series_stats(f_gap, grad_norm, gammas):
    """gradient_convergence_stats' columns from one _column_stats call per
    series: {column: values} and {gamma: moments}."""
    with np.errstate(over="ignore", invalid="ignore"):
        series = {"f_gap": f_gap, "grad_norm": grad_norm, "grad_norm_sq": grad_norm ** 2}
        columns = {}
        for name, matrix in series.items():
            n_alive, *stats = _column_stats(matrix)
            columns.setdefault("n_alive", n_alive)  # of f_gap
            columns.update({f"{name}_{stat}": values
                            for stat, values in zip(diagnostics.STATISTICS, stats)})
        moments = {}
        for gamma in gammas:
            powed = np.maximum(f_gap, 0.0) ** gamma
            powed[np.isnan(f_gap)] = np.nan
            moments[gamma] = _column_stats(powed)[1]
    return columns, moments


def _ensemble_rows(spec):
    """The f_gap and grad_norm rows that run_ensemble reduces, and the
    per-trajectory (classification, f_lim, overflow, domain_violation,
    last_k, seed) tuples."""
    f_gap, grad_norm, _, rows = diagnostics._run_block(
        spec, range(spec.n_trajectories), diagnostics.default_window(spec.horizon),
        diagnostics.default_epsilon_conv(spec.theta0), diagnostics.default_r_div(spec.theta0),
        None)
    return f_gap, grad_norm, rows


def _holed_rows():
    """f_gap and grad_norm with different NaN holes: the alive rows change
    between the series of one checkpoint, so runs cover single columns."""
    rng = np.random.default_rng(8)
    f_gap = np.exp(2.0 * rng.standard_normal((9, 30))) - 1.0
    grad_norm = np.exp(2.0 * rng.standard_normal((9, 30)))
    f_gap[rng.random(f_gap.shape) < 0.2] = np.nan
    grad_norm[rng.random(grad_norm.shape) < 0.2] = np.nan
    grad_norm[:, 7] = np.nan
    return f_gap, grad_norm, [(None, float(i), False, False, 29, 0) for i in range(9)]


_TRUNCATED = EnsembleSpec(ObjectiveSpec("log1p-abs"), NoiseSpec("additive-gaussian", sigma=0.3),
                          Schedule.scalar(0.5, 0.75), (3.0,), 200, 8, 3, 10)
_OVERFLOWING = quad_spec(noise=NoiseSpec("additive-gaussian", sigma=1.0),
                         schedule=Schedule.scalar(3.0, 0.0), K=600, n=7, stride=10)


@pytest.mark.parametrize("rows_of, holds", [
    # a domain exit between checkpoints ends a row off the stride grid
    pytest.param(lambda: _ensemble_rows(_TRUNCATED),
                 lambda rows: any(r[3] and r[4] % 10 for r in rows), id="truncated-off-grid"),
    pytest.param(lambda: _ensemble_rows(_OVERFLOWING),
                 lambda rows: all(r[2] for r in rows), id="all-overflow"),
    pytest.param(lambda: _ensemble_rows(quad_spec(
        noise=NoiseSpec("additive-gaussian", sigma=0.5), K=300, n=6, stride=7)),
        lambda rows: all(r[4] == 300 for r in rows), id="full-horizon"),
    pytest.param(_holed_rows, lambda rows: True, id="different-holes"),
])
def test_stacked_statistics_equal_one_column_stats_call_per_series(rows_of, holds):
    f_gap, grad_norm, rows = rows_of()
    assert holds(rows)
    gammas = [0.0, 0.5, 0.9]
    report = diagnostics.gradient_convergence_stats(
        np.arange(f_gap.shape[1]), f_gap, grad_norm, [r[1] for r in rows], gammas)
    columns, moments = _per_series_stats(f_gap, grad_norm, gammas)
    for name, values in columns.items():
        assert np.array(getattr(report, name)).tobytes() == values.tobytes(), name
    assert list(report.gamma_moments) == gammas
    for gamma, values in moments.items():
        assert np.array(report.gamma_moments[gamma]).tobytes() == values.tobytes(), gamma

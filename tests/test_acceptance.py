"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Thresholds marked
"pilot-pinned" were frozen from pilot runs before this suite was written;
exact values are stated next to each assertion.  The first runs of criteria
5-7 are module-scoped fixtures, computed once whichever tests are selected:
criteria 5-7 assert on them, and criterion 10 re-runs each and compares
report bytes.
"""

import math
import time

import numpy as np
import pytest

from sgdlab.checkers import (
    check_descent_inequality,
    check_grad_bound,
    check_variance_control,
    estimate_local_holder,
    find_eigenvalue_threshold,
    holder_sup_on_box,
    probe_radial_conditions,
)
from sgdlab.diagnostics import (
    CaptureConfig,
    EnsembleSpec,
    classify_dichotomy,
    compute_stopping_times,
    run_ensemble,
    split_seed,
)
from sgdlab.engine import Schedule, Trajectory, run_trajectory, validate_schedule
from sgdlab.objectives import NoiseModel, NoiseSpec, ObjectiveSpec, StochasticOracle, catalog_lookup
from sgdlab.reports import dumps_json, ensemble_report_payload


class FirstRun:
    """A criterion's first run: its result, its report text and its seconds,
    which count in that criterion's budget.  run and report redo both."""

    def __init__(self, run, report):
        self.run, self.report = run, report
        started = time.monotonic()
        self.result = run()
        self.text = report(self.result)
        self.seconds = time.monotonic() - started


def _ensemble_text(result):
    return dumps_json(ensemble_report_payload(result))


CATALOG_WITH_BOXES = [
    ("quadratic", {}, (-10.0, 10.0)),
    ("smooth-rectifier", {}, (-10.0, 10.0)),
    ("gauss-bump", {}, (-10.0, 10.0)),
    ("exp-abs", {}, (1.0, 10.0)),
    ("power-q", {"q": 3.0}, (1.0, 10.0)),
    ("log1p-abs", {}, (1.0, 10.0)),
    ("loglog1p-abs", {}, (1.0, 10.0)),
]


def announce(num, name, started, budget, detail=""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]{suffix}")


# ---------------------------------------------------------------------------
# 1. unconditional-lemma fuzz suite
# ---------------------------------------------------------------------------

def test_criterion_01_variance_fuzz():
    started = time.monotonic()
    rng = np.random.default_rng(20250801)
    failures = 0
    for _ in range(10**4):
        n = int(rng.integers(1, 64))
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        kind = rng.integers(0, 3)
        if kind == 0:
            samples = np.abs(rng.standard_normal(n)) * scale
        elif kind == 1:
            samples = rng.uniform(0.0, scale, n)
        else:
            samples = np.abs(rng.standard_normal(n)) * scale
            samples[rng.random(n) < 0.3] = 0.0
        alpha = float(rng.uniform(1e-9, 1.0))
        report = check_variance_control(samples, alpha)
        failures += report.verdict != "pass"
    assert failures == 0
    announce(1, "variance-control fuzz", started, 10.0, "10^4 cases, 0 failures")


# ---------------------------------------------------------------------------
# 2. descent-lemma suite
# ---------------------------------------------------------------------------

def test_criterion_02_descent_suite():
    started = time.monotonic()
    for name, kw, box in CATALOG_WITH_BOXES:
        obj = catalog_lookup(name, **kw)
        l_tilde = 2.0 * holder_sup_on_box(obj, box, 1.0)
        report = check_descent_inequality(obj, 10**4, l_tilde, 1.0, box, seed=202)
        assert report.verdict == "pass", (name, report.worst_violation)
        assert report.worst_violation <= 1e-9
    under = check_descent_inequality(
        catalog_lookup("quadratic"), 10**4, 0.9, 1.0, (-10.0, 10.0), seed=202)
    assert under.verdict == "fail"
    theta = np.asarray(under.witness["theta"])
    phi = np.asarray(under.witness["phi"])
    quad = catalog_lookup("quadratic")
    lhs = (quad.value(theta) - quad.value(phi) - float(quad.grad(phi) @ (theta - phi))
           - 0.9 / 2.0 * float(np.linalg.norm(theta - phi)) ** 2)
    assert lhs > 1e-9
    announce(2, "descent-lemma suite", started, 30.0,
             "7 objectives x 10^4 pairs + verified witness")


# ---------------------------------------------------------------------------
# 3. gradient-energy bound
# ---------------------------------------------------------------------------

def test_criterion_03_gradient_energy_bound():
    started = time.monotonic()
    quad = check_grad_bound(catalog_lookup("quadratic"), 1.0, 1.0, 1000,
                            (-10.0, 10.0), seed=303, tol=1e-12)
    assert quad.verdict == "pass"
    assert abs(quad.worst_violation) <= 1e-12  # exact equality case
    rect = check_grad_bound(catalog_lookup("smooth-rectifier"), 0.25, 1.0, 1000,
                            (-20.0, 20.0), seed=303)
    assert rect.verdict == "pass"
    announce(3, "gradient-energy bound", started, 5.0,
             "quadratic equality at 1e-12; rectifier with L=0.25")


# ---------------------------------------------------------------------------
# 4. schedule validation matrix
# ---------------------------------------------------------------------------

def _series_diverges(term_fn):
    """Partial-sum oracle at horizon 10^6: decade increments of a convergent
    power series shrink geometrically."""
    sums, total, prev = [], 0.0, 0
    for h in (10**4, 10**5, 10**6):
        ks = np.arange(prev, h, dtype=float)
        total += float(np.sum(term_fn(ks)))
        sums.append(total)
        prev = h
    return (sums[2] - sums[1]) / (sums[1] - sums[0]) >= 0.95


def test_criterion_04_schedule_validation_matrix():
    started = time.monotonic()
    for beta in (0.4, 0.6, 0.75, 1.0, 1.2):
        for alpha in (0.5, 1.0):
            report = validate_schedule(Schedule.scalar(1.0, beta, k0=1), alpha, 10**4)
            exp_p2 = "pass" if beta * (1.0 + alpha) > 1.0 else "fail"
            exp_p3 = "pass" if beta <= 1.0 else "fail"
            assert report.p2_verdict == exp_p2, (beta, alpha)
            assert report.p3_verdict == exp_p3, (beta, alpha)
            assert report.p4_verdict == "pass", (beta, alpha)  # scalar family
            # independent cross-check against the partial-sum oracle
            assert (report.p2_verdict == "fail") == _series_diverges(
                lambda ks: ((ks + 1.0) ** -beta) ** (1.0 + alpha))
            assert (report.p3_verdict == "pass") == _series_diverges(
                lambda ks: (ks + 1.0) ** -beta)
    threshold = find_eigenvalue_threshold(Schedule.scalar(1.0, 0.75, k0=1), 4.0, 1.0, 10**4)
    assert threshold == 6
    announce(4, "schedule validation matrix", started, 5.0,
             "5 beta x 2 alpha analytic pattern + settling index 6")


# ---------------------------------------------------------------------------
# 5. capture surrogate
# ---------------------------------------------------------------------------

def _capture_spec(master_seed):
    return EnsembleSpec(
        objective=ObjectiveSpec("quadratic"),
        noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(1.0, 0.75, k0=1),
        theta0=(0.5,),
        horizon=10**5,
        n_trajectories=200,
        master_seed=master_seed,
        record_stride=1000,
    )


CAPTURE_SEEDS = (20250808, 20250809, 20250810)
CAPTURE_CFG = CaptureConfig(theta_bar=(0.0,), R=1.0, epsilon=0.5)


def _capture_run(seed):
    return run_ensemble(_capture_spec(seed), capture=CAPTURE_CFG)


@pytest.fixture(scope="module")
def first_capture():
    return FirstRun(lambda: _capture_run(CAPTURE_SEEDS[0]), _ensemble_text)


@pytest.mark.slow
def test_criterion_05_capture_surrogate(first_capture):
    started = time.monotonic() - first_capture.seconds
    late_zero_batches = 0
    for i, seed in enumerate(CAPTURE_SEEDS):
        result = first_capture.result if i == 0 else _capture_run(seed)
        cap = result.capture
        # per-k Markov-bound check: empirical <= tail + 4 binomial sigma
        assert cap.bound_margin_max <= 0.0, seed
        late = sum(c for k, c in cap.escape_counts.items() if k >= 10**3)
        late_zero_batches += late == 0
    # pilot-pinned: zero late escapes in at least 95% of batches (here: all)
    assert late_zero_batches / len(CAPTURE_SEEDS) >= 0.95
    announce(5, "capture surrogate", started, 300.0,
             f"3 batches x 200 trajectories x 10^5 steps, "
             f"{late_zero_batches}/3 with zero escapes past k=10^3")


# ---------------------------------------------------------------------------
# 6. dichotomy demonstration
# ---------------------------------------------------------------------------

def _dichotomy_spec_a():
    return EnsembleSpec(
        objective=ObjectiveSpec("quadratic"),
        noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(1.0, 0.75, k0=1),
        theta0=(1.0,),
        horizon=10**4,
        n_trajectories=100,
        master_seed=61001,
        record_stride=100,
    )


def _dichotomy_spec_c():
    return EnsembleSpec(
        objective=ObjectiveSpec("loglog1p-abs"),
        noise=NoiseSpec("rademacher-radial"),
        schedule=Schedule.scalar(0.5, 0.6, k0=1),
        theta0=(1000.0,),
        horizon=10**4,
        n_trajectories=100,
        master_seed=61003,
        record_stride=100,
    )


# pilot-pinned dichotomy thresholds for the 10^4-step ensembles
DICHO_KW = dict(W=1000, epsilon_conv=0.5, R_div=2000.0)


def _frac(classifications, verdict):
    return sum(c.verdict == verdict for c in classifications) / len(classifications)


def _dichotomy_b():
    """The rectifier's deterministic slide and its verdict."""
    traj = run_trajectory(
        StochasticOracle(catalog_lookup("smooth-rectifier"), NoiseModel("zero", 1)),
        Schedule.scalar(1.0, 0.75, k0=1), [-1.0], 10**4, seed=0)
    return traj, classify_dichotomy(traj, 1000, 0.002, 2.0)  # pilot-pinned R_div


def _dichotomy_b_text(run):
    traj, verdict = run
    return dumps_json({"classification": verdict, "final_grad_norm": float(traj.grad_norms[-1])})


@pytest.fixture(scope="module")
def first_dichotomy_a():
    return FirstRun(lambda: run_ensemble(_dichotomy_spec_a(), **DICHO_KW), _ensemble_text)


@pytest.fixture(scope="module")
def first_dichotomy_b():
    return FirstRun(_dichotomy_b, _dichotomy_b_text)


@pytest.fixture(scope="module")
def first_dichotomy_c():
    return FirstRun(lambda: run_ensemble(_dichotomy_spec_c(), **DICHO_KW), _ensemble_text)


def test_criterion_06_dichotomy_demonstration(first_dichotomy_a, first_dichotomy_b,
                                              first_dichotomy_c):
    started = time.monotonic() - (first_dichotomy_a.seconds + first_dichotomy_b.seconds
                                  + first_dichotomy_c.seconds)
    # (a) additive noise on a coercive bowl: converged-like in norm
    res_a = first_dichotomy_a.result
    frac_conv = _frac(res_a.classifications, "converged-like")
    assert frac_conv >= 0.95
    assert res_a.convergence.grad_norm_median[-1] < 0.05

    # (b) deterministic slide down the flat shoulder of the softplus:
    # iterate norm grows without bound while the gradient vanishes
    traj, verdict_b = first_dichotomy_b.result
    assert verdict_b.verdict == "diverging-like"
    assert traj.grad_norms[-1] < 0.05

    # (c) the heavy radial-noise counterexample: strictly more diverging-like
    # verdicts than (a) at the same horizon (sign-only criterion)
    res_c = first_dichotomy_c.result
    frac_div_c = _frac(res_c.classifications, "diverging-like")
    frac_div_a = _frac(res_a.classifications, "diverging-like")
    assert frac_div_c > frac_div_a
    announce(6, "dichotomy demonstration", started, 600.0,
             f"(a) {frac_conv:.0%} converged-like; (b) diverging-like with "
             f"grad {traj.grad_norms[-1]:.3f}; (c) {frac_div_c:.0%} > {frac_div_a:.0%}")


# ---------------------------------------------------------------------------
# 7. expected-smoothness moment surrogate
# ---------------------------------------------------------------------------

def _moment_spec():
    return EnsembleSpec(
        objective=ObjectiveSpec("smooth-rectifier"),
        noise=NoiseSpec("additive-gaussian", sigma=0.1),
        schedule=Schedule.scalar(1.0, 0.75, k0=1),
        theta0=(0.0,),
        horizon=10**5,
        n_trajectories=200,
        master_seed=70707,
        record_stride=1000,
    )


@pytest.fixture(scope="module")
def first_moment():
    return FirstRun(lambda: run_ensemble(_moment_spec(), gammas=[0.0, 0.5]), _ensemble_text)


@pytest.mark.slow
def test_criterion_07_moment_surrogate(first_moment):
    started = time.monotonic() - first_moment.seconds
    rep = first_moment.result.convergence
    ks = np.array(rep.ks)
    means = np.array(rep.f_gap_mean)
    ses = np.array(rep.f_gap_se)
    sup_1e4 = float(np.max(means[ks <= 10**4]))
    idx_1e5 = int(np.argmax(means))
    sup_1e5 = float(means[idx_1e5])
    # stability surrogate for sup_k E[F - f_lb] staying finite
    assert sup_1e5 - sup_1e4 <= 4.0 * ses[idx_1e5] + 1e-12
    assert rep.final_decade_slope is not None
    assert rep.final_decade_slope < 0.0
    announce(7, "expected-smoothness moment surrogate", started, 300.0,
             f"sup stable ({sup_1e4:.6f} -> {sup_1e5:.6f}); "
             f"final-decade slope {rep.final_decade_slope:.3f} < 0")


# ---------------------------------------------------------------------------
# 8. radial classification under the counterexample envelope
# ---------------------------------------------------------------------------

def _counterexample_envelope(obj):
    def G(theta):
        g = obj.grad(theta)
        return float(g @ g) + float(theta @ theta)
    return G


def test_criterion_08_radial_classification():
    started = time.monotonic()
    quad = catalog_lookup("quadratic")
    probe_q = probe_radial_conditions(
        quad, _counterexample_envelope(quad), 1.0, 0.5,
        [1e1, 1e2, 1e3, 1e4, 1e5, 1e6], 0.25)
    assert probe_q.a6_verdict == "satisfied-at-horizon"
    for rec in probe_q.records:
        assert rec.ratio == pytest.approx(0.5, abs=1e-6)

    loglog = catalog_lookup("loglog1p-abs")
    probe_l = probe_radial_conditions(
        loglog, _counterexample_envelope(loglog), 1.0, 0.5,
        [1e1, 1e2, 1e3, 1e4, 1e5, 1e6], 0.25)
    assert probe_l.a6_verdict == "violated-at-horizon"

    bump = catalog_lookup("gauss-bump")
    probe_g = probe_radial_conditions(
        bump, _counterexample_envelope(bump), 1.0, 0.5,
        [1.0, 2.0, 4.0, 8.0, 16.0], 0.25)
    assert probe_g.a5_trend == "decreasing"
    announce(8, "radial classification", started, 60.0,
             "quadratic ratio 0.5 satisfied; loglog violated; bump decreasing")


# ---------------------------------------------------------------------------
# 9. stopping-time suite
# ---------------------------------------------------------------------------

def _f_traj(f_values):
    f = np.asarray(f_values, dtype=float)
    return Trajectory(
        ks=np.arange(len(f)), trace=np.zeros((len(f), 1)), f_values=f,
        grad_norms=np.zeros(len(f)), seed=0, horizon=len(f) - 1)


def test_criterion_09_stopping_times():
    started = time.monotonic()
    st1 = compute_stopping_times(_f_traj([0.0, 0.5, 1.2, 2.3, 3.5]))
    assert st1.taus == [0, 2, 3, 4] and st1.tau_geq_k
    st2 = compute_stopping_times(_f_traj(np.ones(40)))
    assert st2.taus == [0] and not st2.complete
    st3 = compute_stopping_times(_f_traj([5.0, 5.5, 7.0, 6.9, 8.1]))
    assert st3.taus == [0, 2, 4]

    # 50 counterexample trajectories started near the domain floor, where a
    # +1 objective crossing is reachable by the multiplicative walk
    oracle = StochasticOracle(
        catalog_lookup("loglog1p-abs"), NoiseModel("rademacher-radial", 1))
    sched = Schedule.scalar(0.6, 0.5, k0=1)
    n_with_crossings = 0
    for i in range(50):
        traj = run_trajectory(
            oracle, sched, [3.0], 10**4, split_seed(90909, i),
            record_stride=1)
        st_out = compute_stopping_times(traj)
        taus = st_out.taus
        assert all(b > a for a, b in zip(taus, taus[1:]))
        for a, b in zip(taus, taus[1:]):
            assert traj.f_values[b] > traj.f_values[a] + 1.0
        n_with_crossings += len(taus) > 1
        verdict = classify_dichotomy(traj, 1000, 0.5, 2000.0).verdict
        if verdict == "diverging-like":
            assert st_out.tau_geq_k
    assert n_with_crossings >= 1  # deterministic with the frozen master seed

    # non-vacuous crossing fuzz: heavy noise and a slow-decay schedule keep
    # the objective jumping across +1 thresholds
    noisy = StochasticOracle(
        catalog_lookup("quadratic"), NoiseModel("additive-gaussian", 1, sigma=3.0))
    slow = Schedule.scalar(1.0, 0.1, k0=1)
    total_taus = 0
    for i in range(20):
        traj = run_trajectory(noisy, slow, [0.0], 2000, split_seed(777, i),
                              record_stride=1)
        st_out = compute_stopping_times(traj)
        taus = st_out.taus
        assert all(b > a for a, b in zip(taus, taus[1:]))
        for a, b in zip(taus, taus[1:]):
            assert traj.f_values[b] > traj.f_values[a] + 1.0
        assert st_out.tau_geq_k
        total_taus += len(taus) - 1
    assert total_taus >= 50  # frozen seeds give 78
    announce(9, "stopping-time suite", started, 120.0,
             f"3 unit examples; 50 counterexample runs ({n_with_crossings} "
             f"crossing); fuzz with {total_taus} crossings")


# ---------------------------------------------------------------------------
# 10. determinism of criteria 5-7
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_determinism(first_capture, first_dichotomy_a, first_dichotomy_b,
                                  first_dichotomy_c, first_moment):
    started = time.monotonic()
    for first in (first_capture, first_dichotomy_a, first_dichotomy_b, first_dichotomy_c,
                  first_moment):
        assert first.report(first.run()) == first.text
    announce(10, "determinism", started, 300.0,
             "criteria 5-7 reports byte-identical on re-run")

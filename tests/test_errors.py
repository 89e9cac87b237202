"""errors.py at the library boundary: every entry point returns or refuses an
overflowing input without a numpy warning, and the argument rules are raised
from errors.py alone.

The suite turns every warning into an error (`filterwarnings = error`), so a
RuntimeWarning that leaks from an entry point fails the call that caused it.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import sgdlab
from sgdlab import (
    NoiseModel,
    Schedule,
    StochasticOracle,
    catalog_lookup,
    check_descent_inequality,
    check_expected_smoothness,
    check_grad_bound,
    check_variance_control,
    classify_dichotomy,
    compute_stopping_times,
    estimate_local_holder,
    find_eigenvalue_threshold,
    gradient_convergence_stats,
    holder_sup_on_box,
    probe_radial_conditions,
    run_ensemble,
    run_trajectory,
    split_seed,
    validate_schedule,
)
from sgdlab.checkers import sample_gradient_norms
from sgdlab.diagnostics import CaptureConfig, EnsembleSpec, envelope_sup_over_ball
from sgdlab.engine import Trajectory
from sgdlab.errors import ContractViolation, SgdLabError
from sgdlab.objectives import NoiseSpec, ObjectiveSpec

# power-q(4)'s gradient 4 x^3 passes the float range near 3.56e102
P4 = catalog_lookup("power-q", q=4.0)
BOX = (1e102, 3.6e102)
QUADRATIC = catalog_lookup("quadratic")
QUADRATIC2 = catalog_lookup("quadratic", 2)
UNDERFLOWING = Schedule.diagonal([1.0, 1.0], [0.5, 400.0])
# c = 2.5, zero noise: each step multiplies theta by -1.5, past THETA_CAP
# after about 850 steps
DIVERGING = dict(schedule=Schedule.scalar(2.5, 0.0), theta0=(1.0,), horizon=2000)


def _diverging_run():
    return run_trajectory(StochasticOracle(QUADRATIC, NoiseModel("zero", 1)),
                          DIVERGING["schedule"], DIVERGING["theta0"], DIVERGING["horizon"], 7)


CALLS = {
    # these nine warned before the policy sat on every entry point
    "holder_sup_on_box": lambda: holder_sup_on_box(P4, BOX, 1.0),
    "check_descent_inequality": lambda: check_descent_inequality(P4, 50, 1.0, 1.0, BOX),
    "check_grad_bound": lambda: check_grad_bound(P4, 1.0, 1.0, 50, BOX),
    "check_expected_smoothness": lambda: check_expected_smoothness(
        StochasticOracle(P4, NoiseModel("additive-gaussian", 1, sigma=1.0)),
        1.0, 1.0, 1.0, 4, 20, BOX),
    "probe_radial_conditions": lambda: probe_radial_conditions(
        P4, NoiseModel("zero", 1).envelope(P4), 1.0, 1.0, [2e102, 3e102], 1.0),
    "check_variance_control": lambda: check_variance_control([1e200, 1e201], 1.0),
    "validate_schedule": lambda: validate_schedule(Schedule.scalar(1e300, 0.0), 1.0, 10),
    "NoiseModel.second_moment": lambda: NoiseModel("zero", 1).second_moment(
        np.array([1e200]), np.array([1e200])),
    "Schedule.rotated": lambda: Schedule.rotated([1.0, 1.0], [0.6, 0.6],
                                                 q=np.full((2, 2), 1e200)),
    # a step index below -k0: numpy's power of a negative base is NaN
    "Schedule.eigenvalues": lambda: Schedule.scalar(1.0, 0.75).eigenvalues([-5.0]),
    # one overflowing call for each other export and method, and for the
    # two public functions outside the exports that cli.main calls
    "estimate_local_holder": lambda: estimate_local_holder(P4, [3e102], 1e102, 1.0, 16),
    # lambda_max / lambda_min is 1e310
    "find_eigenvalue_threshold": lambda: find_eigenvalue_threshold(
        Schedule.diagonal([1e300, 1e-10], [0.0, 0.0]), 4.0, 1.0, 10),
    "run_trajectory": _diverging_run,
    "run_ensemble": lambda: run_ensemble(EnsembleSpec(
        ObjectiveSpec("quadratic"), NoiseSpec("zero"), n_trajectories=3, master_seed=1,
        **DIVERGING)),
    "gradient_convergence_stats": lambda: gradient_convergence_stats(
        np.array([0, 1]), np.array([[1e300, 1e300], [1e300, np.nan]]),
        np.array([[1e200, 1e200], [1e200, np.nan]]), [1e300, 1e300], gammas=[0.5]),
    "classify_dichotomy": lambda: classify_dichotomy(_diverging_run(), 10, 1e-3, 1e3),
    "compute_stopping_times": lambda: compute_stopping_times(_diverging_run()),
    "split_seed": lambda: split_seed(2**64 - 1, 2**63),
    "catalog_lookup": lambda: catalog_lookup("power-q", q=4.0, r0=1e200),
    "NoiseModel.__post_init__": lambda: NoiseModel("rademacher-radial", 2,
                                                   direction=np.array([1e200, 1e200])),
    # 1/0 at the origin: the inf sigma is refused by name
    "NoiseModel.sigma_at": lambda: NoiseModel(
        "additive-gaussian-statedep", 2, sigma_expr="1/norm(theta)").sigma_at(np.zeros(2)),
    "sample_gradient_norms": lambda: sample_gradient_norms(
        StochasticOracle(QUADRATIC2, NoiseModel("zero", 2)),
        [1e200, 1e200], np.random.default_rng(1), 8),
    # the 1-D grid's width hi - lo overflows
    "envelope_sup_over_ball": lambda: envelope_sup_over_ball(EnsembleSpec(
        ObjectiveSpec("quadratic"), NoiseSpec("zero"), n_trajectories=1, master_seed=1,
        **DIVERGING), (0.0,), 1e308),
    "NoiseModel.envelope_batch": lambda: NoiseModel(
        "additive-gaussian-statedep", 2, sigma_expr="norm(theta)**2").envelope_batch(
            QUADRATIC2, np.full((3, 2), 1e200)),
    # lambda_min underflows to 0 from k = 6: kappa is 1/0 there
    "Schedule.bounds": lambda: UNDERFLOWING.bounds(10),
    "Schedule.last_peak_above": lambda: UNDERFLOWING.last_peak_above(4.0, 10, 1.0),
    "Schedule.scalar": lambda: Schedule.scalar(1e300, 0.0).eigenvalues([0.0]),
    "Schedule.diagonal": lambda: Schedule.diagonal([np.inf, 1.0], [0.0, 0.0]),
    # the squared norm of a row of 1e200 overflows
    "Trajectory.norms": lambda: Trajectory(np.array([0]), np.full((1, 2), 1e200),
                                           np.zeros(1), np.zeros(1), 0, 1).norms(),
    "Objective.check_domain": lambda: catalog_lookup("log1p-abs", 2).check_domain(
        np.full((2, 2), 1e200)),
    "NoiseModel.draw": lambda: NoiseModel("additive-gaussian", 1, sigma=1e154).draw(
        np.random.default_rng(1), 4),
    "NoiseSpec.build": lambda: NoiseSpec("rademacher-radial", direction=(1e200, 1e200)).build(2),
    "ObjectiveSpec.build": lambda: ObjectiveSpec("power-q", q=4.0, r0=1e200).build(),
    "EnsembleSpec.build": lambda: EnsembleSpec(
        ObjectiveSpec("power-q", q=4.0, r0=1e200), NoiseSpec("zero"), **DIVERGING,
        n_trajectories=1, master_seed=1).build(),
    "EnsembleSpec.checkpoints": lambda: EnsembleSpec(
        ObjectiveSpec("quadratic"), NoiseSpec("zero"), Schedule.scalar(1.0, 0.75), (1.0,),
        2**53, 1, 1, record_stride=2**52).checkpoints(),
    "CaptureConfig.check": lambda: CaptureConfig((1e308, 1e308), 1e308, 1e308).check(2),
    # these two return the per-point callables that the steps and the
    # radial probe call, which are left bare
    "NoiseModel.envelope": lambda: NoiseModel("zero", 1).envelope(P4),
    "NoiseModel.sampler": lambda: NoiseModel("zero", 1).sampler(P4.grad),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_an_overflowing_call_returns_or_refuses_without_a_warning(name):
    before = np.geterr()
    try:
        CALLS[name]()
    except SgdLabError:
        pass
    assert np.geterr() == before  # the policy leaves the caller's state as it was


def test_the_gate_calls_every_exported_function():
    exported = {name for name, value in vars(sgdlab).items() if inspect.isfunction(value)}
    assert exported - set(CALLS) == set()


def test_the_gate_calls_every_public_method_of_the_exported_classes():
    # Schedule.scan and peaks_of_block, with no entry here, warned on a
    # schedule whose lambda_min underflows; a new method fails here by name
    methods = {f"{name}.{attr}" for name, cls in vars(sgdlab).items() if inspect.isclass(cls)
               for attr, member in vars(cls).items() if not attr.startswith("_")
               and (inspect.isfunction(member) or isinstance(member, staticmethod))}
    assert methods - set(CALLS) == set()


def test_np_errstate_is_entered_in_errors_py_alone():
    # a new inner block fails here by its file's name: put the entry point
    # under @numeric_policy instead
    package = Path(sgdlab.__file__).parent
    assert sorted(path.name for path in package.glob("*.py")
                  if "np.errstate(" in path.read_text(encoding="utf-8")) == ["errors.py"]


# The words of each shared argument rule's message, as errors.py raises it;
# an older wording that a restated copy used ("L_tilde must be > 0") too.
SHARED_RULES = {
    "check_int": r"must be an integer >=",
    "check_alpha": r"must be in \(0, 1\]",
    "check_finite": r"must be finite(?! and >)",
    "check_positive": r"must be (finite and )?> 0",
    "check_box": r"with hi > lo",
    "check_increasing": r"must be strictly increasing",
    "check_nonnegative": r"must be finite and >= 0, got",
    "check_window": r"must be <= horizon",
    "check_dim": r"must have dimension p = ",
}
# The wordings of the inline tests that check_dim and check_nonnegative
# replaced: none may come back anywhere in the package.
RETIRED_WORDINGS = [
    r"must have shape \(\{\w+\},\)",
    r"!= (objective|schedule|noise) dimension",
    r"dimension does not match",
    r"must have p = ",
    r"must have length p",
    r"exponents beta must be >= 0",
]


def _raised_rules(path: Path) -> set[str]:
    """The shared rules whose words a raise statement of the module spells."""
    words = [node.value for raise_ in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(raise_, ast.Raise) for node in ast.walk(raise_)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {rule for rule, pattern in SHARED_RULES.items()
            if any(re.search(pattern, text) for text in words)}


def test_the_shared_argument_rules_are_raised_in_errors_py_alone():
    # a restated rule fails here by its module's name and the rule's: call
    # the rule of errors.py instead
    package = Path(sgdlab.__file__).parent
    assert _raised_rules(package / "errors.py") == set(SHARED_RULES)
    assert {(path.name, rule) for path in package.glob("*.py") if path.name != "errors.py"
            for rule in _raised_rules(path)} == set()
    assert {(path.name, pattern) for path in package.glob("*.py")
            for pattern in RETIRED_WORDINGS
            if re.search(pattern, path.read_text(encoding="utf-8"))} == set()


QUADRATIC3 = catalog_lookup("quadratic", 3)
ADDITIVE2 = NoiseModel("additive-gaussian", 2, sigma=1.0)


def _stats(n_ks=5, grad_norm_shape=(3, 5), n_f_lim=3):
    """gradient_convergence_stats on an f_gap of 3 rows and 5 checkpoints."""
    return gradient_convergence_stats(np.arange(n_ks), np.ones((3, 5)),
                                      np.ones(grad_norm_shape), [0.0] * n_f_lim)


# Each call used to return a value computed on the wrong points, or to die
# in a numpy ValueError; p = 2 throughout but for the objective of a 2-D noise.
@pytest.mark.parametrize("call, message", [
    (lambda: estimate_local_holder(QUADRATIC2, [1.0, 2.0, 3.0], 0.5, 1.0, 8),
     r"^phi must have dimension p = 2, got 3$"),
    (lambda: estimate_local_holder(QUADRATIC2, [1.0], 0.5, 1.0, 8),
     r"^phi must have dimension p = 2, got 1$"),
    (lambda: estimate_local_holder(QUADRATIC2, [[1.0, 2.0]], 0.5, 1.0, 8),
     r"^phi must have dimension p = 2, got \(1, 2\)$"),
    (lambda: sample_gradient_norms(StochasticOracle(QUADRATIC2, ADDITIVE2), [1.0, 2.0, 3.0],
                                   np.random.default_rng(1), 5),
     r"^theta must have dimension p = 2, got 3$"),
    (lambda: sample_gradient_norms(StochasticOracle(QUADRATIC2, ADDITIVE2), [1.0],
                                   np.random.default_rng(1), 5),
     r"^theta must have dimension p = 2, got 1$"),
    (lambda: catalog_lookup("log1p-abs", 2).check_domain(np.ones(3)),
     r"^theta must have dimension p = 2, got 3$"),
    (lambda: catalog_lookup("log1p-abs", 2).check_domain(np.ones(4)),
     r"^theta must have dimension p = 2, got 4$"),
    (lambda: ADDITIVE2.second_moment(np.ones(3), np.ones(3)),
     r"^theta must have dimension p = 2, got 3$"),
    (lambda: NoiseModel("additive-gaussian-statedep", 2, sigma_expr="norm(theta)").sigma_at(
        np.ones(3)), r"^theta must have dimension p = 2, got 3$"),
    (lambda: ADDITIVE2.envelope(QUADRATIC3)(np.ones(3)),
     r"^objective must have dimension p = 2, got 3$"),
    (lambda: ADDITIVE2.envelope_batch(QUADRATIC3, np.ones((2, 3))),
     r"^objective must have dimension p = 2, got 3$"),
    (lambda: ADDITIVE2.envelope_batch(QUADRATIC2, np.ones((4, 3))),
     r"^thetas must have dimension p = 2, got 3$"),
    # a one-entry vector at p > 1 is refused, not repeated p times
    (lambda: Schedule.rotated([0.5, 0.2], [0.75]), r"^beta must have dimension p = 2, got 1$"),
    (lambda: Schedule("diagonal-power", [1.0], [0.5, 0.6], 1.0, 2),
     r"^c must have dimension p = 2, got 1$"),
    (lambda: run_trajectory(StochasticOracle(QUADRATIC3, NoiseModel("zero", 3)),
                            Schedule.scalar(0.5, 0.75, dim=3), [0.5], 10, 1),
     r"^theta0 must have dimension p = 3, got 1$"),
    (lambda: _stats(n_ks=2), r"^ks must have shape \(5,\) beside f_gap, got \(2,\)$"),
    (lambda: _stats(grad_norm_shape=(3, 4)), r"^grad_norm must have shape \(3, 5\) "),
    (lambda: _stats(n_f_lim=7), r"^f_lim_estimates must have shape \(3,\) "),
], ids=["holder-phi-3", "holder-phi-1", "holder-phi-row", "gradient-norms-theta-3",
        "gradient-norms-theta-1", "check-domain-3", "check-domain-4", "second-moment-theta",
        "sigma-at-theta", "envelope-objective", "envelope-batch-objective",
        "envelope-batch-rows", "rotated-one-entry-beta", "schedule-one-entry-c",
        "run-trajectory-one-entry-theta0", "stats-ks", "stats-grad-norm", "stats-f-lim"])
def test_an_argument_of_another_dimension_is_refused_by_name(call, message):
    with pytest.raises(ContractViolation, match=message):
        call()


# A ragged point, which numpy gives no shape, at p = 2: each call raised
# numpy's "inhomogeneous shape" ValueError.
RAGGED = ((1.0, 2.0), 3.0)
STATEDEP2 = NoiseModel("additive-gaussian-statedep", 2, sigma_expr="norm(theta)")


@pytest.mark.parametrize("call, name", [
    (lambda: EnsembleSpec(ObjectiveSpec("quadratic", 2), NoiseSpec("zero"),
                          Schedule.diagonal([1.0, 1.0], 0.75), RAGGED, 10, 1, 1), "theta0"),
    (lambda: CaptureConfig(RAGGED, 1.0, 0.1).check(2), "capture theta_bar"),
    (lambda: run_trajectory(StochasticOracle(QUADRATIC2, ADDITIVE2),
                            Schedule.diagonal([1.0, 1.0], 0.75), RAGGED, 10, 1), "theta0"),
    (lambda: NoiseModel("rademacher-radial", 2, direction=RAGGED), "rademacher direction"),
    (lambda: QUADRATIC2.check_domain(RAGGED), "theta"),
    (lambda: STATEDEP2.sigma_at(RAGGED), "theta"),
    (lambda: estimate_local_holder(QUADRATIC2, RAGGED, 0.5, 1.0, 8), "phi"),
    (lambda: Schedule.rotated([0.5, 0.2], RAGGED), "beta"),
    (lambda: sample_gradient_norms(StochasticOracle(QUADRATIC2, ADDITIVE2), RAGGED,
                                   np.random.default_rng(1), 5), "theta"),
    (lambda: ADDITIVE2.envelope_batch(QUADRATIC2, RAGGED), "thetas"),
], ids=["ensemble-theta0", "capture-theta_bar", "run-trajectory-theta0", "direction",
        "check-domain", "sigma-at", "holder-phi", "rotated-beta", "gradient-norms-theta",
        "envelope-batch-thetas"])
def test_a_ragged_point_is_refused_by_name(call, name):
    with pytest.raises(ContractViolation,
                       match=rf"^{name} must have dimension p = 2, got a ragged sequence "
                             r"\(\(1\.0, 2\.0\), 3\.0\)$"):
        call()


LOG1P_1D = EnsembleSpec(ObjectiveSpec("log1p-abs"), NoiseSpec("zero"), Schedule.scalar(1.0, 0.75),
                        (2.0,), 10, 1, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: Schedule("weekly-power", [1.0], [0.75], 1.0, 1),
     r"^unknown schedule family 'weekly-power'$"),
    (lambda: Schedule("diagonal-power", [1.0, 1.0], [0.75, 0.75], 1.0, 2, q=np.eye(2)),
     r"^diagonal-power does not take an orthogonal factor$"),
    (lambda: NoiseModel("pink", 1), r"^unknown noise kind 'pink'$"),
    (lambda: catalog_lookup("quadratic", 0), r"^dimension must be an integer >= 1, got 0$"),
    # log1p-abs's floor is 1: the ball [-0.5, 0.5] lies below it
    (lambda: envelope_sup_over_ball(LOG1P_1D, (0.0,), 0.5),
     r"^ball lies entirely inside the forbidden region$"),
    (lambda: check_descent_inequality(QUADRATIC, 10, 1.0, 1.0, (1.0, 0.0)),
     r"^box must be two numbers \[lo, hi\] with hi > lo and a finite hi - lo, got \(1.0, 0.0\)$"),
    (lambda: holder_sup_on_box(QUADRATIC, (0.0, 0.0), 1.0),
     r"^box must be two numbers \[lo, hi\] with hi > lo and a finite hi - lo, got \(0.0, 0.0\)$"),
    (lambda: check_descent_inequality(QUADRATIC, 10, 0.0, 1.0, (0.0, 1.0)),
     r"^L_tilde must be finite and > 0, got 0.0$"),
], ids=["schedule-family", "schedule-factor", "noise-kind", "catalog-dimension",
        "envelope-ball-below-floor", "descent-box-hi-below-lo", "holder-box-empty",
        "descent-L_tilde-0"])
def test_each_library_refusal_that_no_command_reaches_is_refused_by_name(call, message):
    with pytest.raises(ContractViolation, match=message):
        call()


# An integer beyond float64 (10**400): numpy's float conversion raises
# OverflowError, which each rule reads as NaN and refuses by its name.
HUGE = 10**400


@pytest.mark.parametrize("call, name", [
    (lambda: holder_sup_on_box(QUADRATIC, (0, HUGE), 1.0), "box"),
    (lambda: check_descent_inequality(QUADRATIC, 10, HUGE, 1.0, (0, 1)), "L_tilde"),
    (lambda: check_grad_bound(QUADRATIC, HUGE, 1.0, 10, (0, 1)), "L"),
    (lambda: find_eigenvalue_threshold(Schedule.scalar(1.0, 0.75), HUGE, 1.0, 10), "C"),
    (lambda: check_variance_control([1.0, HUGE], 1.0), "samples"),
    (lambda: Schedule("scalar-power", [1.0], [0.75], HUGE, 1), "k0"),
    (lambda: Schedule.scalar(HUGE, 0.75), "c"),
    (lambda: catalog_lookup("power-q", q=HUGE), "q"),
    (lambda: classify_dichotomy(_diverging_run(), 5, HUGE, 1.0), "epsilon_conv"),
    (lambda: run_trajectory(StochasticOracle(QUADRATIC, NoiseModel("zero", 1)),
                            Schedule.scalar(1.0, 0.75), [HUGE], 10, 1), "theta0"),
    (lambda: NoiseModel("additive-gaussian", 1, sigma=HUGE), "sigma"),
    (lambda: CaptureConfig((0.0,), HUGE, 0.1).check(1), "capture R"),
], ids=["holder-box", "descent-L_tilde", "grad-bound-L", "threshold-C", "variance-samples",
        "schedule-k0", "scalar-schedule-c", "catalog-q", "dichotomy-epsilon", "theta0",
        "noise-sigma", "capture-R"])
def test_an_integer_beyond_float64_is_refused_by_name(call, name):
    with pytest.raises(ContractViolation, match=rf"^{name} must be "):
        call()

"""Checker tests: each expected value is either exact arithmetic or frozen
from an independent brute-force oracle that the test re-runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab.checkers import (
    _van_der_corput,
    check_descent_inequality,
    check_expected_smoothness,
    check_grad_bound,
    check_variance_control,
    estimate_local_holder,
    find_eigenvalue_threshold,
    holder_sup_on_box,
    probe_radial_conditions,
    sample_gradient_norms,
)
from sgdlab.engine import Schedule
from sgdlab.errors import ContractViolation, DomainError
from sgdlab.objectives import NoiseModel, StochasticOracle, catalog_lookup


def dense_holder_oracle(grad1, center, r, alpha, n=10**6):
    """Brute force: max difference ratio over a uniform grid of the interval."""
    xs = np.linspace(center - r, center + r, n + 1)
    xs = xs[xs != center]
    g = grad1(xs)
    gc = grad1(np.array([center]))[0]
    return float(np.max(np.abs(g - gc) / np.abs(xs - center) ** alpha))


# ---------------------------------------------------------------------------
# estimate_local_holder
# ---------------------------------------------------------------------------

def test_holder_quadratic_is_exactly_one():
    obj = catalog_lookup("quadratic")
    for phi, r in [(0.0, 0.5), (2.0, 1.0), (-3.0, 0.25)]:
        est = estimate_local_holder(obj, [phi], r, 1.0, 257)
        assert est.value == 1.0
    obj2 = catalog_lookup("quadratic", dimension=3)
    est = estimate_local_holder(obj2, [1.0, 0.0, -1.0], 0.7, 1.0, 400)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_holder_rectifier_matches_dense_grid_oracle():
    # frozen oracle value: the difference ratio sup on [-0.5, 0.5] around 0
    # approaches the curvature at 0, which is exactly 1/4
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    oracle = dense_holder_oracle(sig, 0.0, 0.5, 1.0)
    assert oracle == pytest.approx(0.25, abs=1e-9)
    obj = catalog_lookup("smooth-rectifier")
    est = estimate_local_holder(obj, [0.0], 0.5, 1.0, 100000)
    assert est.value == pytest.approx(oracle, abs=1e-4)
    assert est.value <= oracle + 1e-12  # sampled estimate lower-bounds the sup


def test_holder_gauss_bump_matches_dense_grid_oracle():
    grad1 = lambda x: -2.0 * x * np.exp(-x * x)
    oracle = dense_holder_oracle(grad1, 3.0, 0.5, 1.0)
    assert oracle == pytest.approx(0.0178236237, abs=1e-9)  # frozen
    obj = catalog_lookup("gauss-bump")
    est = estimate_local_holder(obj, [3.0], 0.5, 1.0, 100000)
    assert est.value == pytest.approx(oracle, abs=1e-4)
    assert est.value <= oracle + 1e-12


@pytest.mark.parametrize("name,phi,dim,method", [
    ("smooth-rectifier", [0.0], 1, "grid"),
    ("gauss-bump", [3.0], 1, "grid"),
    ("smooth-rectifier", [0.5, -0.5], 2, "pair-sampling"),
])
def test_holder_estimate_monotone_in_samples(name, phi, dim, method):
    obj = catalog_lookup(name, dimension=dim)
    estimates = [estimate_local_holder(obj, phi, 0.5, 1.0, n) for n in (4, 16, 64, 256, 1024)]
    assert all(est.method == method for est in estimates)  # the dimension picks it
    values = [est.value for est in estimates]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_holder_ball_domain_error():
    obj = catalog_lookup("loglog1p-abs")
    with pytest.raises(DomainError, match=r"phi=\[1\.2\]"):
        estimate_local_holder(obj, [1.2], 0.5, 1.0, 16)
    est = estimate_local_holder(obj, [2.0], 0.5, 1.0, 16)
    assert est.value > 0.0


def test_holder_contracts():
    obj = catalog_lookup("quadratic")
    with pytest.raises(ContractViolation):
        estimate_local_holder(obj, [0.0], 0.0, 1.0, 16)
    with pytest.raises(ContractViolation):
        estimate_local_holder(obj, [0.0], 0.5, 1.0, 1)


# ---------------------------------------------------------------------------
# descent inequality
# ---------------------------------------------------------------------------

def test_descent_quadratic_identity():
    obj = catalog_lookup("quadratic")
    report = check_descent_inequality(obj, 2000, 1.0, 1.0, (-5.0, 5.0), seed=1)
    assert report.verdict == "pass"
    assert report.worst_violation <= 1e-12  # the inequality is an identity


def test_descent_quadratic_understated_constant_fails_with_witness():
    obj = catalog_lookup("quadratic")
    report = check_descent_inequality(obj, 2000, 0.9, 1.0, (-5.0, 5.0), seed=1)
    assert report.verdict == "fail"
    theta = np.asarray(report.witness["theta"])
    phi = np.asarray(report.witness["phi"])
    lhs = (obj.value(theta) - obj.value(phi) - float(obj.grad(phi) @ (theta - phi))
           - 0.9 / 2.0 * float(np.linalg.norm(theta - phi)) ** 2)
    assert lhs > report.tolerance
    assert lhs == pytest.approx(report.worst_violation, rel=1e-12)
    # analytic form of the violation: (1 - 0.9)/2 * ||theta - phi||^2
    assert lhs == pytest.approx(0.05 * float(np.sum((theta - phi) ** 2)), rel=1e-9)


def test_descent_rectifier_quarter_curvature_passes():
    obj = catalog_lookup("smooth-rectifier")
    # grid oracle: curvature sup on the box is 1/4
    sup = holder_sup_on_box(obj, (-10.0, 10.0), 1.0)
    assert sup <= 0.25 + 1e-12
    report = check_descent_inequality(obj, 4000, 0.25, 1.0, (-10.0, 10.0), seed=2)
    assert report.verdict == "pass"


def test_descent_with_doubled_grid_sup_passes_for_all_catalog_objectives():
    for name, kw, box in [
        ("quadratic", {}, (-10.0, 10.0)),
        ("smooth-rectifier", {}, (-10.0, 10.0)),
        ("gauss-bump", {}, (-10.0, 10.0)),
        ("exp-abs", {}, (1.0, 10.0)),
        ("power-q", {"q": 3.0}, (1.0, 10.0)),
        ("log1p-abs", {}, (1.0, 10.0)),
        ("loglog1p-abs", {}, (1.0, 10.0)),
    ]:
        obj = catalog_lookup(name, **kw)
        l_tilde = 2.0 * holder_sup_on_box(obj, box, 1.0)
        report = check_descent_inequality(obj, 2000, l_tilde, 1.0, box, seed=3)
        assert report.verdict == "pass", (name, report.worst_violation)


# ---------------------------------------------------------------------------
# variance control
# ---------------------------------------------------------------------------

def test_variance_all_ones_is_equality():
    for alpha in (0.25, 0.5, 1.0):
        report = check_variance_control(np.ones(17), alpha)
        assert report.verdict == "pass"
        assert report.witness["chain"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_variance_alpha_one_is_equality_in_first_link():
    samples = np.array([0.3, 1.7, 2.2, 0.0])
    report = check_variance_control(samples, 1.0)
    chain = report.witness["chain"]
    assert chain[0] == pytest.approx(chain[1], rel=1e-15)
    assert report.verdict == "pass"


def test_variance_frozen_example():
    # direct arithmetic: mean(s^1.5) = 2^1.5/2 = sqrt(2); mean(s^2)^0.75 = 2^0.75
    report = check_variance_control([0.0, 2.0], 0.5)
    chain = report.witness["chain"]
    assert chain[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert chain[1] == pytest.approx(2.0 ** 0.75, abs=1e-12)
    assert chain[2] == pytest.approx(1.75, abs=1e-15)
    assert report.verdict == "pass"


def test_variance_contract_violations():
    with pytest.raises(ContractViolation):
        check_variance_control([-0.1, 1.0], 0.5)
    with pytest.raises(ContractViolation):
        check_variance_control([], 0.5)
    with pytest.raises(ContractViolation):
        check_variance_control([1.0], 0.0)


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40),
    alpha=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_variance_chain_is_unconditional(samples, alpha):
    report = check_variance_control(np.array(samples), alpha)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# gradient-energy bound
# ---------------------------------------------------------------------------

def test_gradbound_quadratic_equality():
    obj = catalog_lookup("quadratic")
    report = check_grad_bound(obj, 1.0, 1.0, 1000, (-10.0, 10.0), seed=4, tol=1e-12)
    assert report.verdict == "pass"
    # the bound reads ||theta||^2 <= 2 * (||theta||^2 / 2): equality everywhere
    assert abs(report.worst_violation) <= 1e-12


def test_gradbound_rectifier():
    obj = catalog_lookup("smooth-rectifier")
    report = check_grad_bound(obj, 0.25, 1.0, 1000, (-20.0, 20.0), seed=4)
    assert report.verdict == "pass"
    # spot value at 0: sigmoid(0)^2 = 1/4 <= 0.5 * log 2
    assert 0.25 <= 0.5 * math.log(2.0)


def test_gradbound_understated_constant_fails():
    obj = catalog_lookup("quadratic")
    report = check_grad_bound(obj, 0.4, 1.0, 500, (-10.0, 10.0), seed=4)
    assert report.verdict == "fail"
    w = report.witness
    # witness reproduces: ||grad||^2 > (0.4 * 2 * F)^1 = 0.8 * F
    phi = np.asarray(w["phi"])
    f = obj.value(phi)
    gsq = float(obj.grad(phi) @ obj.grad(phi))
    assert gsq > 0.8 * f
    assert w["grad_norm_sq"] == pytest.approx(gsq, rel=1e-12)


def test_gradbound_missing_constant_is_inconclusive():
    obj = catalog_lookup("log1p-abs")  # no declared global constant
    report = check_grad_bound(obj, obj.l_global, 1.0, 100, (1.0, 5.0))
    assert report.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# expected smoothness
# ---------------------------------------------------------------------------

def test_smoothness_gaussian_exact_constants_pass():
    obj = catalog_lookup("quadratic", dimension=2)
    oracle = StochasticOracle(obj, NoiseModel("additive-gaussian", 2, sigma=1.5))
    c1 = 2 * 1.5 ** 2  # p * sigma^2, the exact decomposition
    report = check_expected_smoothness(oracle, c1, 0.0, 1.0, 8, 4000, (-5.0, 5.0), seed=5)
    assert report.verdict == "pass"


def test_smoothness_rademacher_on_quadratic():
    # E||sample||^2 = 2 theta^2 and C2 (F - f_lb) = 4 * theta^2/2 = 2 theta^2
    obj = catalog_lookup("quadratic")
    oracle = StochasticOracle(obj, NoiseModel("rademacher-radial", 1))
    report = check_expected_smoothness(oracle, 0.0, 4.0, 1.0, 8, 4000, (-5.0, 5.0), seed=6)
    assert report.verdict == "pass"


def test_smoothness_rademacher_on_loglog_fails_at_large_radius():
    obj = catalog_lookup("loglog1p-abs")
    oracle = StochasticOracle(obj, NoiseModel("rademacher-radial", 1))
    # closed-form comparison at theta = 100: second moment ~ theta^2 = 1e4,
    # while the bound stays O(1)
    theta = np.array([100.0])
    g = obj.grad(theta)
    second = float(g @ g) + 100.0 ** 2
    bound = 1.0 + (obj.value(theta) - obj.f_lb) + float(g @ g)
    assert second > bound * 100
    report = check_expected_smoothness(oracle, 1.0, 1.0, 1.0, 8, 2000, (50.0, 150.0), seed=7)
    assert report.verdict == "fail"
    assert report.witness["empirical_second_moment"] > report.witness["bound"]


def test_smoothness_nan_margins_fail():
    # exp(700)^2 overflows: the moment and the bound are inf, each margin NaN
    obj = catalog_lookup("exp-abs")
    oracle = StochasticOracle(obj, NoiseModel("additive-gaussian", 1, sigma=1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_expected_smoothness(oracle, 1.0, 0.0, 1.0, 4, 100, (700.0, 710.0))
    assert report.verdict == "fail"
    assert math.isnan(report.worst_violation)
    assert report.witness["theta"][0] >= 700.0


def test_smoothness_margin_false_alarm_rate_and_power():
    # quadratic + N(0, 1) noise: E||sample||^2 = 1 + ||grad||^2 exactly, so
    # C = (1, 0, 1) is the true bound and each failure is a false alarm.
    # The 4-sigma margin keeps those rare (1 in 1000 seeds measured), and a
    # bound lowered by 0.3 is still caught (200 of 200 seeds measured).
    oracle = StochasticOracle(catalog_lookup("quadratic"),
                              NoiseModel("additive-gaussian", 1, sigma=1.0))

    def failures(c1, seeds):
        return sum(check_expected_smoothness(oracle, c1, 0.0, 1.0, 10, 2000, (-3.0, 3.0),
                                             seed=seed).verdict == "fail" for seed in seeds)

    assert failures(1.0, range(1000)) <= 5
    assert failures(0.7, range(10000, 10200)) >= 195


def test_smoothness_contracts():
    obj = catalog_lookup("quadratic")
    oracle = StochasticOracle(obj, NoiseModel("zero", 1))
    with pytest.raises(ContractViolation):
        check_expected_smoothness(oracle, -1.0, 0.0, 1.0, 4, 100, (-1.0, 1.0))
    with pytest.raises(ContractViolation):
        check_expected_smoothness(oracle, 0.0, 0.0, 0.5, 4, 100, (-1.0, 1.0))


def test_sample_gradient_norms_shape_and_domain():
    obj = catalog_lookup("loglog1p-abs")
    oracle = StochasticOracle(obj, NoiseModel("rademacher-radial", 1))
    rng = np.random.default_rng(0)
    s = sample_gradient_norms(oracle, [5.0], rng, 100)
    assert s.shape == (100,)
    assert np.all(s >= 0)
    with pytest.raises(DomainError):
        sample_gradient_norms(oracle, [0.2], rng, 10)


# ---------------------------------------------------------------------------
# radial probe
# ---------------------------------------------------------------------------

def counterexample_envelope(obj):
    def G(theta):
        g = obj.grad(theta)
        return float(g @ g) + float(theta @ theta)
    return G


def _reference_van_der_corput(n: int) -> np.ndarray:
    # the per-point loop that checkers._van_der_corput vectorizes, verbatim
    out = np.empty(n)
    for i in range(1, n + 1):
        v = 0.0
        denom = 1.0
        x = i
        while x:
            denom *= 2.0
            v += (x & 1) / denom
            x >>= 1
        out[i - 1] = v
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 510, 4097, 100000])
def test_van_der_corput_matches_per_point_loop(n):
    got = _van_der_corput(n)
    assert got.tobytes() == _reference_van_der_corput(n).tobytes()


def test_probe_quadratic_ratio_is_half():
    obj = catalog_lookup("quadratic")
    probe = probe_radial_conditions(
        obj, counterexample_envelope(obj), 1.0, 0.5,
        [10.0, 100.0, 1000.0, 1e4, 1e5, 1e6], 0.25)
    for rec in probe.records:
        assert rec.ratio == pytest.approx(0.5, abs=1e-6)
    assert probe.a6_verdict == "satisfied-at-horizon"
    assert probe.a5_trend == "increasing-unbounded"


def test_probe_loglog_ratio_decays_like_inverse_rho_sq_log_rho():
    obj = catalog_lookup("loglog1p-abs")
    probe = probe_radial_conditions(
        obj, counterexample_envelope(obj), 1.0, 0.5, [1e2, 1e4, 1e6], 0.25)
    assert probe.a6_verdict == "violated-at-horizon"
    assert probe.a5_trend == "increasing-unbounded"
    ratios = [rec.ratio for rec in probe.records]
    assert ratios[0] > ratios[1] > ratios[2]
    # frozen band from the pilot: ratio * rho^2 * log(rho) stays near 1
    for rec in probe.records:
        normalized = rec.ratio * rec.radius ** 2 * math.log(rec.radius)
        assert 0.7 <= normalized <= 1.05, rec.radius


def test_probe_gauss_bump_a5_trend_decreasing():
    obj = catalog_lookup("gauss-bump")
    probe = probe_radial_conditions(
        obj, counterexample_envelope(obj), 1.0, 0.5, [1.0, 2.0, 4.0, 8.0, 16.0], 0.25)
    assert probe.a5_trend == "decreasing"


def test_probe_ratio_recomputes_from_record_fields():
    obj = catalog_lookup("loglog1p-abs")
    alpha = 1.0
    probe = probe_radial_conditions(
        obj, counterexample_envelope(obj), alpha, 0.5, [10.0, 100.0, 1000.0], 0.25)
    for rec in probe.records:
        denom = (rec.L_r + (1.0 if rec.L_r == 0.0 else 0.0)) * (
            rec.G_value ** ((1.0 + alpha) / 2.0) + (1.0 if rec.G_value == 0.0 else 0.0))
        assert rec.ratio == pytest.approx(rec.grad_norm_sq / denom, abs=1e-12)


def test_probe_contracts():
    obj = catalog_lookup("loglog1p-abs")
    G = counterexample_envelope(obj)
    with pytest.raises(ContractViolation):
        probe_radial_conditions(obj, G, 1.0, 0.5, [10.0, 5.0], 0.25)  # not increasing
    with pytest.raises(ContractViolation):
        probe_radial_conditions(obj, G, 1.0, 0.5, [1.2], 0.25)  # below r0 + r
    with pytest.raises(ContractViolation):
        probe_radial_conditions(obj, G, 1.0, 0.5, [10.0], 0.0)  # b must be > 0


# ---------------------------------------------------------------------------
# eigenvalue threshold (step-size settling index)
# ---------------------------------------------------------------------------

def test_threshold_example_matches_direct_scan():
    sched = Schedule.scalar(1.0, 0.75, k0=1)
    # direct evaluation oracle over k = 0..10: h(k) = (k+1)^-0.75 <= 1/4
    hs = [(k + 1.0) ** -0.75 for k in range(11)]
    expected = min(k for k in range(11) if all(h <= 0.25 for h in hs[k:]))
    assert expected == 6
    assert find_eigenvalue_threshold(sched, 4.0, 1.0, 1000) == 6


def test_threshold_trivial_and_never_cases():
    sched = Schedule.scalar(1.0, 0.75, k0=1)
    assert find_eigenvalue_threshold(sched, 0.5, 1.0, 1000) == 0  # 1/C = 2 >= 1
    const = Schedule.scalar(2.0, 0.0, k0=1)  # lambda^alpha * kappa = 2 forever
    assert find_eigenvalue_threshold(const, 1.0, 1.0, 1000) is None


def test_threshold_satisfies_eigenvalue_lower_bound_inequality():
    for beta, c_const, alpha in [(0.75, 4.0, 1.0), (0.6, 2.5, 0.5), (0.9, 10.0, 1.0)]:
        sched = Schedule.scalar(1.0, beta, k0=1)
        K = find_eigenvalue_threshold(sched, c_const, alpha, 10**5)
        assert K is not None
        d = sched.eigenvalues([K])
        lmin, lmax = d.min(), d.max()
        assert lmin - (c_const / 2.0) * lmax ** (1.0 + alpha) >= 0.5 * lmin - 1e-12
        if K > 0:
            d = sched.eigenvalues([K - 1])
            lmin_b, lmax_b = d.min(), d.max()
            assert lmin_b - (c_const / 2.0) * lmax_b ** (1.0 + alpha) < 0.5 * lmin_b


def test_threshold_contracts():
    sched = Schedule.scalar(1.0, 0.75)
    with pytest.raises(ContractViolation):
        find_eigenvalue_threshold(sched, 0.0, 1.0, 100)
    with pytest.raises(ContractViolation):
        find_eigenvalue_threshold(sched, 1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# non-finite constants and boxes
# ---------------------------------------------------------------------------

_QUADRATIC = catalog_lookup("quadratic")
_BOX = (-1.0, 1.0)
# each checker with arguments it accepts, and the constants and box it must
# refuse when one is NaN or infinite
_CHECKERS = {
    check_descent_inequality: (dict(obj=_QUADRATIC, n_pairs=10, L_tilde=1.0, alpha=1.0,
                                    box=_BOX), ["L_tilde", "alpha", "tol", "box"]),
    check_grad_bound: (dict(obj=_QUADRATIC, L=1.0, alpha=1.0, n_points=10, box=_BOX),
                       ["L", "alpha", "tol", "box"]),
    check_expected_smoothness: (dict(
        oracle=StochasticOracle(_QUADRATIC, NoiseModel("zero", 1)), C1=0.0, C2=0.0, C3=1.0,
        n_points=2, n_draws=4, box=_BOX), ["C1", "C2", "C3", "box"]),
    check_variance_control: (dict(norm_samples=np.ones(4), alpha=1.0), ["alpha", "tol"]),
    holder_sup_on_box: (dict(obj=_QUADRATIC, box=_BOX, alpha=1.0), ["alpha", "box"]),
    estimate_local_holder: (dict(obj=_QUADRATIC, phi=[0.0], r=1.0, alpha=1.0, n_samples=4),
                            ["r", "alpha"]),
    probe_radial_conditions: (dict(obj=_QUADRATIC, G_fn=lambda theta: 1.0, alpha=1.0, r=0.5,
                                   radii=[10.0], b_threshold=0.25), ["alpha", "r", "b_threshold"]),
    find_eigenvalue_threshold: (dict(schedule=Schedule.scalar(1.0, 0.75), C=4.0, alpha=1.0,
                                     K_max=10), ["C", "alpha"]),
}
_NONFINITE = {"value": [math.nan, math.inf, -math.inf],
              "box": [(-math.inf, math.inf), (math.nan, 1.0), (0.0, math.inf)]}


@pytest.mark.parametrize("checker, parameter, value", [
    pytest.param(checker, parameter, value, id=f"{checker.__name__}-{parameter}-{value}")
    for checker, (_, parameters) in _CHECKERS.items() for parameter in parameters
    for value in _NONFINITE["box" if parameter == "box" else "value"]])
def test_nonfinite_checker_constant_is_refused_by_name(checker, parameter, value):
    # a NaN L_tilde, L or C1 gave `fail`, a NaN lemma-4 C or alpha no
    # threshold, a NaN alpha a nan Holder estimate and a NaN b_threshold
    # `inconclusive`; an infinite box raised numpy's OverflowError
    kwargs = _CHECKERS[checker][0]
    checker(**kwargs)
    with pytest.raises(ContractViolation, match=rf"^{parameter} must be"):
        checker(**{**kwargs, parameter: value})

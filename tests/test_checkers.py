"""Checker tests: each expected value is either exact arithmetic or frozen
from an independent brute-force oracle that the test re-runs."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import checkers, engine, reports
from sgdlab.checkers import (
    _van_der_corput,
    _worst_point,
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
from sgdlab.engine import Schedule, validate_schedule
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


def _every_grid_pair(obj, box, alpha) -> float:
    """The Hölder sup by brute force: the max over the pairs i < j of the
    distinct grid points, in one array."""
    xs = np.unique(np.linspace(*box, checkers.HOLDER_BOX_SAMPLES))
    g = obj.grad_batch(xs[:, None])[:, 0]
    i, j = np.triu_indices(len(xs), k=1)
    return float(np.max(np.abs(g[j] - g[i]) / np.abs(xs[j] - xs[i]) ** alpha))


# power-q(4)'s gradient 4 x^3 overflows from about 3.56e102: one grid point
# (inf ratios), then many (inf - inf, NaN ratios)
_P4 = catalog_lookup("power-q", q=4.0)
_THRESHOLD = float(np.nextafter((np.finfo(float).max / 4.0) ** (1.0 / 3.0), 0.0))


@pytest.mark.parametrize("obj, box, alpha, expect", [
    (catalog_lookup("quadratic"), (-10.0, 10.0), 1.0, 1.0),
    (catalog_lookup("smooth-rectifier"), (-10.0, 10.0), 0.5, None),
    (catalog_lookup("gauss-bump"), (-3.0, 3.0), 0.7, None),
    (_P4, (1e102, _THRESHOLD * 1.001), 1.0, math.inf),
    (_P4, (2e102, 3e103), 1.0, math.nan),
    (_P4, (1.0, 1.0000000000000004), 1.0, None),  # 3 distinct grid points
], ids=["quadratic", "rectifier", "gauss-bump", "one-inf-gradient", "nan-ratios", "narrow"])
@pytest.mark.parametrize("rows", [1, 2, 3, 7, 512, 10**6])
def test_holder_sup_in_blocks_of_grid_rows_is_the_max_over_every_pair(
        monkeypatch, obj, box, alpha, expect, rows):
    # a block of grid rows reads each pair (i, j > i), a pair of two of its
    # rows twice and its diagonal as 0; the max has the brute force's bits
    monkeypatch.setattr(checkers, "_ROWS", rows)
    with np.errstate(all="ignore"):  # the gradient's own overflow
        want = _every_grid_pair(obj, box, alpha)
    assert repr(holder_sup_on_box(obj, box, alpha)) == repr(want)
    if expect is not None:
        assert repr(want) == repr(expect)


def test_holder_contracts():
    obj = catalog_lookup("quadratic")
    with pytest.raises(ContractViolation):
        estimate_local_holder(obj, [0.0], 0.0, 1.0, 16)
    with pytest.raises(ContractViolation):
        estimate_local_holder(obj, [0.0], 0.5, 1.0, 1)


@pytest.mark.parametrize("n_samples", [2.5, True, 1])
def test_holder_refuses_a_sample_count_that_is_not_an_integer_at_least_2(n_samples):
    # 2.5 raised numpy's TypeError where the ball was drawn
    obj = catalog_lookup("quadratic")
    with pytest.raises(ContractViolation,
                       match=rf"^n_samples must be an integer >= 2, got {n_samples!r}$"):
        estimate_local_holder(obj, [0.0], 0.5, 1.0, n_samples)


@pytest.mark.parametrize("phi", [[math.nan], [math.inf], [1.0, -math.inf]])
def test_holder_refuses_a_non_finite_center(phi):
    # no pair of the ball keeps a positive distance: the estimate read 0.0
    obj = catalog_lookup("quadratic", len(phi))
    with pytest.raises(ContractViolation, match=r"^phi must be finite"):
        estimate_local_holder(obj, phi, 0.5, 1.0, 16)


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


def test_variance_chain_whose_links_overflow_is_inconclusive():
    # finite samples whose powers overflow: an inf link compares with nothing,
    # so the chain is no violation, and it stays the witness
    for alpha, finite in ((1.0, [False, False, False]), (0.5, [True, False, False])):
        report = check_variance_control([1e200, 1e201], alpha)
        assert report.verdict == "inconclusive"
        assert [math.isfinite(m) for m in report.witness["chain"]] == finite
        assert report.witness["alpha"] == alpha


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e308), min_size=1, max_size=40),
    alpha=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_variance_chain_is_unconditional(samples, alpha):
    report = check_variance_control(np.array(samples), alpha)
    finite = all(map(math.isfinite, report.witness["chain"]))
    assert report.verdict == ("pass" if finite else "inconclusive")


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


@pytest.mark.parametrize("L, alpha", [(-100.0, 0.5), (-2.0, 0.7), (0.0, 1.0)])
def test_gradbound_refuses_a_nonpositive_constant(L, alpha):
    # L = -100 at alpha 0.5 passed; L = -2 at alpha 0.7 made the bound complex
    obj = catalog_lookup("quadratic")
    with pytest.raises(ContractViolation, match=r"^L must be > 0$"):
        check_grad_bound(obj, L, alpha, 100, (-10.0, 10.0))


def test_gradbound_refuses_a_constant_whose_power_overflows():
    # Python's float L ** (1 / alpha) raised OverflowError, not ContractViolation
    obj = catalog_lookup("quadratic")
    with pytest.raises(ContractViolation,
                       match=r"^L must have a finite L \*\* \(1/alpha\), got 1e\+300 at alpha 0.5$"):
        check_grad_bound(obj, 1e300, 0.5, 100, (-10.0, 10.0))


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


_QUAD = catalog_lookup("quadratic")
_QUAD_ORACLE = StochasticOracle(_QUAD, NoiseModel("additive-gaussian", 1, sigma=1.0))
_BOX = (-1.0, 1.0)
# each seeded checker as a function of its seed
_SEEDED = {
    "estimate_local_holder": lambda seed: estimate_local_holder(
        catalog_lookup("quadratic", 2), [0.0, 0.0], 0.5, 1.0, 16, seed=seed),
    "holder_sup_on_box": lambda seed: holder_sup_on_box(_QUAD, _BOX, 1.0, seed=seed),
    "check_descent_inequality": lambda seed: check_descent_inequality(
        _QUAD, 8, 1.0, 1.0, _BOX, seed=seed),
    "check_grad_bound": lambda seed: check_grad_bound(_QUAD, 1.0, 1.0, 8, _BOX, seed=seed),
    "check_expected_smoothness": lambda seed: check_expected_smoothness(
        _QUAD_ORACLE, 1.0, 0.0, 1.0, 2, 8, _BOX, seed=seed),
    "probe_radial_conditions": lambda seed: probe_radial_conditions(
        _QUAD, lambda theta: 1.0, 1.0, 0.5, [1.0, 2.0], 0.1, seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, -1, True])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_checker_refuses_a_seed_that_is_not_an_integer_at_least_0(name, seed):
    # -1 raised numpy's ValueError and 1.5 its TypeError, or ran as seed 1
    with pytest.raises(ContractViolation, match=r"^seed must be an integer >= 0, got "):
        _SEEDED[name](seed)
    _SEEDED[name](np.int64(3))


@pytest.mark.parametrize("n", [0, -1, 2.5])
@pytest.mark.parametrize("name,call", [
    pytest.param("n_pairs", lambda n: check_descent_inequality(_QUAD, n, 1.0, 1.0, _BOX),
                 id="descent"),
    pytest.param("n_points", lambda n: check_grad_bound(_QUAD, 1.0, 1.0, n, _BOX),
                 id="gradbound"),
    pytest.param("n_points", lambda n: check_expected_smoothness(
        _QUAD_ORACLE, 1.0, 0.0, 1.0, n, 8, _BOX), id="smoothness"),
    pytest.param("n", lambda n: sample_gradient_norms(
        _QUAD_ORACLE, [1.0], np.random.default_rng(0), n), id="sample_gradient_norms"),
])
def test_sampled_checker_refuses_a_sample_size_that_is_not_an_integer_at_least_1(name, call, n):
    # 0 raised a TypeError from _worst_point's comparison with None, -1
    # numpy's ValueError (sample_gradient_norms returned an empty array at 0),
    # 2.5 numpy's TypeError
    with pytest.raises(ContractViolation, match=rf"^{name} must be an integer >= 1, got {n}$"):
        call(n)


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


@pytest.mark.parametrize("radii", [[math.nan], [10.0, math.nan], [math.nan, 10.0],
                                   [10.0, math.inf]])
def test_probe_refuses_non_finite_radii(radii):
    # NaN passes the increasing and floor tests; the probe read inconclusive
    obj = catalog_lookup("loglog1p-abs")
    with pytest.raises(ContractViolation, match=r"^radii must be finite"):
        probe_radial_conditions(obj, counterexample_envelope(obj), 1.0, 0.5, radii, 0.25)


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
    # lambda_max = (k + 1)^-400 is 0 from k = 6, where kappa = 0/0 is NaN,
    # which breaks the bound up to K_max
    tiny = Schedule.scalar(1.0, 400.0)
    assert tiny.eigenvalues([5, 6]).tolist() == [[6.0 ** -400], [0.0]]
    assert find_eigenvalue_threshold(tiny, 1.0, 1.0, 5) == 0
    assert find_eigenvalue_threshold(tiny, 1.0, 1.0, 6) is None


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


@pytest.mark.parametrize("K_max", [True, 10.5, 0, -3])
def test_threshold_K_max_is_an_integer_at_least_1(K_max):
    # True ran as K_max 1 and returned None, 10.5 raised numpy's TypeError
    with pytest.raises(ContractViolation,
                       match=rf"^K_max must be an integer >= 1, got {K_max!r}$"):
        find_eigenvalue_threshold(Schedule.scalar(1.0, 0.75), 4.0, 1.0, K_max)
    assert find_eigenvalue_threshold(Schedule.scalar(1.0, 0.75), 4.0, 1.0, np.int64(10)) == 6


@pytest.mark.parametrize("chunk", [5, 6, 7])
def test_threshold_reads_again_the_top_most_bad_block(monkeypatch, chunk):
    # the last bad index 5 is the first (chunk 5), last (6) and an inner (7)
    # index of its block; the blocks above it are good
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    assert find_eigenvalue_threshold(Schedule.scalar(1.0, 0.75), 4.0, 1.0, 40) == 6


@pytest.mark.parametrize("build", [
    lambda: Schedule.scalar(1.0, 0.75),
    lambda: Schedule.rotated([0.5, 0.4, 0.3], [0.6, 0.7, 0.8], rotation_seed=1)],
    ids=["scalar", "rotated-p3"])
def test_the_schedule_scans_hold_memory_flat_in_the_size(build):
    # the two scans at 2,000,000 indices stream their blocks; a table of
    # lambda_max and lambda_min peaked at 17.6 MB (p = 1) and 34.6 MB (p = 3)
    n = 2_000_000

    def scans():
        schedule = build()
        validate_schedule(schedule, 1.0, n)
        find_eigenvalue_threshold(schedule, 4.0, 1.0, n)

    assert _peak_bytes(scans) < 8e6


# ---------------------------------------------------------------------------
# the sampled checkers in blocks of rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values", [
    [math.nan, 1.0, 5.0, math.nan, 7.0],  # a NaN in the first block
    [0.0, 1.0, 3.0, math.nan, 3.0, math.nan],  # NaNs after the first maximum
    [1.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0],  # ties across every block edge
    [-math.inf, -math.inf, -math.inf],
    [1.0, math.inf, 0.0, math.inf, math.nan],
    [-3.0, -1.0, -2.0, -1.0, -1.0],
], ids=["nan-first-block", "nans-after-max", "ties", "all-minus-inf", "inf-ties-then-nan",
        "negative-ties"])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 1000])
def test_worst_point_across_blocks_is_argmax_of_the_whole_sample(monkeypatch, values, rows):
    # the first maximum, and the first NaN before any number, as np.argmax
    # picks them on the whole array; the witness is read from its own row
    monkeypatch.setattr(checkers, "_ROWS", rows)
    values = np.array(values)
    blocks = []

    def block(rows: slice):
        blocks.append(rows.start)
        return values[rows], lambda j, start=rows.start: start + j

    report = _worst_point("x", len(values), 0.0, block)
    i = int(np.argmax(values))
    assert report.witness == i
    assert report.worst_violation == values[i] or math.isnan(values[i])
    assert report.verdict == ("pass" if values[i] <= 0.0 else "fail")
    # the scan stops at the block of the first NaN
    assert blocks == list(range(0, i + 1 if math.isnan(values[i]) else len(values), rows))


_POWER4 = catalog_lookup("power-q", q=4.0)
_BLOCK_CASES = {
    # F overflows in some points of this box and not in others: NaN, inf and
    # finite violations, with a NaN in the first block of 2 and 3 rows
    "descent-nan": (check_descent_inequality, dict(
        obj=_POWER4, n_pairs=13, L_tilde=1.0, alpha=1.0, box=(1e76, 4e77), seed=3)),
    "gradbound-nan": (check_grad_bound, dict(
        obj=_POWER4, L=1.0, alpha=1.0, n_points=13, box=(1e76, 4e77), seed=5)),
    # far out, the rectifier's every relative gradbound violation is -1.0: ties
    "gradbound-ties": (check_grad_bound, dict(
        obj=catalog_lookup("smooth-rectifier", 2), L=0.25, alpha=1.0, n_points=13,
        box=(1e76, 4e77), seed=1)),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocked_checkers_report_the_point_of_one_block(monkeypatch, case):
    checker, kwargs = _BLOCK_CASES[case]
    whole = reports.dumps_json(checker(**kwargs))  # 13 rows: one block
    for rows in (1, 2, 3, 5, 12):
        monkeypatch.setattr(checkers, "_ROWS", rows)
        assert reports.dumps_json(checker(**kwargs)) == whole, rows
    report = json.loads(whole)
    if case.endswith("nan"):
        assert report["worst_violation"] is None and report["verdict"] == "fail"
    else:
        assert report["worst_violation"] == -1.0
        assert report["witness"]["phi"] == np.random.default_rng(1).uniform(
            1e76, 4e77, (1, 2))[0].tolist()


def _peak_bytes(fn) -> int:
    fn()  # numpy's and the objective's one-time allocations
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("checker, points, kwargs", [
    (check_descent_inequality, 2, dict(n_pairs=200000, L_tilde=2.0)),
    (check_grad_bound, 1, dict(L=1.0, n_points=200000)),
], ids=["descent", "gradbound"])
def test_blocked_checkers_hold_their_points_and_a_few_blocks(checker, points, kwargs):
    # the points drawn (thetas and phis, or the gradbound points) and at most
    # 12 blocks of rows beside them; whole-sample temporaries peaked at
    # 15.3 MB (descent) and 9.2 MB (gradbound)
    n = next(v for k, v in kwargs.items() if k.startswith("n_"))
    peak = _peak_bytes(lambda: checker(obj=catalog_lookup("quadratic"), alpha=1.0,
                                       box=(-10.0, 10.0), **kwargs))
    assert peak < points * n * 8 + 12 * checkers._ROWS * 8


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
    validate_schedule: (dict(schedule=Schedule.scalar(1.0, 0.75), alpha=1.0, horizon=10),
                        ["alpha"]),
}
_NONFINITE = {"value": [math.nan, math.inf, -math.inf],
              "box": [(-math.inf, math.inf), (math.nan, 1.0), (0.0, math.inf),
                      (-1e308, 1e308)]}  # hi - lo overflows


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


@pytest.mark.parametrize("checker", [
    check_descent_inequality, check_grad_bound, estimate_local_holder,
    find_eigenvalue_threshold, holder_sup_on_box, probe_radial_conditions, validate_schedule],
    ids=lambda checker: checker.__name__)
@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
def test_alpha_outside_unit_interval_is_refused_by_name(checker, alpha):
    # the config refuses such an alpha; on the library path most of these
    # ran, as a Hölder exponent of 0 or 1.5, or a negative one
    kwargs = _CHECKERS[checker][0]
    with pytest.raises(ContractViolation, match=rf"^alpha must be in \(0, 1\], got {alpha!r}$"):
        checker(**{**kwargs, "alpha": alpha})


@pytest.mark.parametrize("constants", [(-1.0, 0.0, 1.0), (0.0, -1e-300, 1.0), (0.0, 0.0, 0.5)])
def test_smoothness_constants_outside_their_ranges_are_refused_by_the_noise_models_rule(
        constants):
    # the checker spelt its own copy of objectives.smoothness_constants' rule
    kwargs = _CHECKERS[check_expected_smoothness][0]
    with pytest.raises(ContractViolation, match=r"^smoothness constants must be three finite"):
        check_expected_smoothness(**{**kwargs, **dict(zip(("C1", "C2", "C3"), constants))})

"""Objective catalog and noise model tests.

Gradients are validated against central finite differences, noise samplers
against their declared means and second-moment envelopes.
"""

import math
import warnings

import numpy as np
import pytest

from sgdlab.errors import ContractViolation, DomainError, UnknownObjectiveError
from sgdlab.objectives import (
    CATALOG_NAMES,
    OVERFLOW_CAP,
    NoiseModel,
    NoiseSpec,
    StochasticOracle,
    _compile_sigma_expr,
    _sigma_norm,
    catalog_lookup,
    sigmoid,
    softplus,
)

ALL_SPECS = [
    ("quadratic", {}),
    ("smooth-rectifier", {}),
    ("exp-abs", {}),
    ("power-q", {"q": 3.0}),
    ("power-q", {"q": 0.5}),
    ("log1p-abs", {}),
    ("loglog1p-abs", {}),
    ("gauss-bump", {}),
]


def value_and_grad(obj, theta):
    theta = np.asarray(theta, dtype=float)
    return obj.value(theta), obj.grad(theta)


def sample_block(noise, obj, theta, rng, n):
    """n stochastic gradients at theta, one per row, from the noise model's
    draw and sampler (a zero-noise sampler gives the gradient itself)."""
    theta = np.asarray(theta, dtype=float)
    w = noise.draw(rng, n)
    return noise.sampler(obj.grad)(theta, float(np.linalg.norm(theta)), w)


def domain_points(obj, n, rng, scale=5.0):
    """Random points inside the objective's valid domain."""
    pts = rng.uniform(-scale, scale, size=(n, obj.dim))
    if obj.r0 > 0.0:
        norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        lift = (obj.r0 + rng.uniform(0.1, scale, n)) / np.maximum(norms, 1e-12)
        pts = pts * lift[:, None]
    return pts


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_rectifier_at_zero():
    obj = catalog_lookup("smooth-rectifier")
    f, g = value_and_grad(obj, [0.0])
    assert f == pytest.approx(math.log(2.0), abs=1e-12)
    assert g[0] == pytest.approx(0.5, abs=1e-15)


def test_quadratic_at_3_4():
    obj = catalog_lookup("quadratic", dimension=2)
    f, g = value_and_grad(obj, [3.0, 4.0])
    assert f == 12.5
    assert np.array_equal(g, np.array([3.0, 4.0]))


def test_log1p_abs_at_e_minus_1():
    obj = catalog_lookup("log1p-abs")
    f, g = value_and_grad(obj, [math.e - 1.0])
    assert f == pytest.approx(1.0, abs=1e-12)
    assert g[0] == pytest.approx(1.0 / math.e, abs=1e-12)


def test_catalog_declared_constants():
    assert catalog_lookup("quadratic").f_lb == 0.0
    assert catalog_lookup("quadratic").l_global == 1.0
    assert catalog_lookup("smooth-rectifier").f_lb == 0.0
    assert catalog_lookup("smooth-rectifier").l_global == 0.25
    assert catalog_lookup("loglog1p-abs").r0 == 1.0
    assert catalog_lookup("gauss-bump").f_lb == 0.0
    # floors of the restricted entries are the function values at r0
    assert catalog_lookup("exp-abs").f_lb == pytest.approx(math.e)
    assert catalog_lookup("log1p-abs").f_lb == pytest.approx(math.log(2.0))
    assert catalog_lookup("loglog1p-abs").f_lb == pytest.approx(math.log(math.log(2.0)))


def test_rectifier_l_global_matches_grid_sup_of_curvature():
    # sup of sigmoid'(x) = sigmoid(x)(1 - sigmoid(x)) over a dense grid is 1/4
    xs = np.linspace(-20.0, 20.0, 400001)
    s = sigmoid(xs)
    assert np.max(s * (1.0 - s)) == pytest.approx(0.25, abs=1e-9)


def test_loglog_real_and_ordered_on_domain():
    obj = catalog_lookup("loglog1p-abs")
    rho = np.geomspace(1.0, 1e6, 2000)
    vals = obj.value_batch(rho[:, None])
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals >= obj.f_lb)


def test_catalog_lookup_errors():
    with pytest.raises(UnknownObjectiveError):
        catalog_lookup("not-a-function")
    with pytest.raises(ContractViolation):
        catalog_lookup("power-q")  # missing q
    with pytest.raises(ContractViolation):
        catalog_lookup("power-q", q=-1.0)


def test_domain_error_below_floor():
    obj = catalog_lookup("loglog1p-abs")
    with pytest.raises(DomainError) as err:
        obj.check_domain(np.array([0.5]))
    assert err.value.theta is not None
    # a stack of points: the first one below the floor is reported
    with pytest.raises(DomainError) as err:
        obj.check_domain(np.array([[2.0], [0.5], [0.25]]))
    assert err.value.theta.tolist() == [0.5]
    catalog_lookup("log1p-abs", dimension=2).check_domain(np.array([[1.0, 0.0], [0.0, -1.5]]))


def test_softplus_stability():
    assert softplus(np.array([-800.0]))[0] == 0.0
    assert softplus(np.array([800.0]))[0] == 800.0
    assert np.all(np.isfinite(softplus(np.linspace(-1e4, 1e4, 101))))
    s = sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert np.all((s >= 0.0) & (s <= 1.0))


def _masked_sigmoid(x):
    """The two-branch masked form that sigmoid replaces."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_equal_to_masked_form():
    rng = np.random.default_rng(3)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000123], dtype=np.uint64).view(float)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 710.5, -710.5,
                        745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324])
    x = np.concatenate([special, nans, 40.0 * rng.standard_normal(100_000)])
    assert sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()
    grid = rng.standard_normal((300, 4))
    assert sigmoid(grid).tobytes() == _masked_sigmoid(grid).tobytes()


def _where_sigmoid(x):
    """The np.where form with Python-scalar operands that sigmoid replaces."""
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def test_sigmoid_bit_equal_to_where_form_on_stacks_and_points():
    rng = np.random.default_rng(4)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000123], dtype=np.uint64).view(float)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 746.0, -746.0,
                        800.0, -800.0, 1e3, -1e3, 1e308, -1e308, 5e-324, -5e-324])
    wide = rng.standard_normal(40_000) * 10.0 ** rng.uniform(-3.0, 3.0, 40_000)
    x = np.concatenate([special, nans, wide, 40.0 * rng.standard_normal(60_000)])
    assert sigmoid(x).tobytes() == _where_sigmoid(x).tobytes()
    stack = x[: len(x) // 4 * 4].reshape(-1, 4)  # the specials sit in the first rows
    assert sigmoid(stack).tobytes() == _where_sigmoid(stack).tobytes()
    for point in stack[:2000]:  # one (4,) point at a time, as the engine calls it
        assert sigmoid(point).tobytes() == _where_sigmoid(point).tobytes()
    for v in np.concatenate([special, nans]):
        assert sigmoid(np.array([v])).tobytes() == _where_sigmoid(np.array([v])).tobytes()


def test_sigma_norm_is_numpy_norm_for_1d_floats():
    rng = np.random.default_rng(5)
    points = [rng.standard_normal(p) * 10.0 ** rng.uniform(-150.0, 150.0)
              for p in (1, 2, 3, 4, 5, 8, 17, 33, 100) for _ in range(200)]
    points += [np.zeros(4), np.full(4, 1e200), np.array([1e300, -1e300]),  # overflow: inf
               np.array([np.inf, 1.0]), np.array([np.nan, 1.0]), np.array([-0.0])]
    with np.errstate(over="ignore"):
        for theta in points:
            got, want = _sigma_norm(theta), np.linalg.norm(theta)
            assert type(got) is type(want) is np.float64
            assert got.tobytes() == want.tobytes(), theta
        assert _sigma_norm(np.full(4, 1e200)) == np.inf


_THETA = np.array([3.0, -4.0, 1e-3, 12.5])


@pytest.mark.parametrize("arg,args,kwargs", [
    (_THETA, (1,), {}), (_THETA, (), {"ord": 1}), (_THETA, (), {"ord": np.inf}),
    (_THETA, (2,), {}), (_THETA, (), {"keepdims": True}),
    (np.array([3, -4, 12]), (), {}),                        # integers
    (np.array([3.0, -4.0], dtype=np.float32), (), {}),      # another float type
    (np.array([[3.0, -4.0], [1.0, 2.0]]), (), {}),          # 2-D
    # strided; sqrt(x.dot(x)) has other bits than np.linalg.norm on this one
    (np.random.default_rng(4).standard_normal(300)[::3], (), {}),
    ((np.arange(40.0) * 1.1)[::-1], (), {}),                # reversed
    ([3.0, -4.0], (), {}),                                  # a list
])
def test_sigma_norm_falls_back_to_numpy_for_other_calls(arg, args, kwargs):
    got, want = _sigma_norm(arg, *args, **kwargs), np.linalg.norm(arg, *args, **kwargs)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# sigma expressions with a norm(theta) that reads the step's norm, and with
# norms that do not (other arguments, keywords)
SHARED_NORM = ["norm(theta)", "1/norm(theta)", "exp(-norm(theta))", "0.1*(1+norm(theta))"]
OWN_NORM = ["norm(theta, 1)", "norm(theta[:2])", "norm(abs(theta))"]
# a theta bound inside the expression is another value, so nothing is rewritten
BINDING = {
    "(lambda theta: norm(theta))(2*theta)": 2.0,
    "[norm(theta) for theta in [2*theta]][0]": 2.0,
    "0*(theta := 3*theta)[0] + norm(theta)": 3.0,
}


def _sigma_or_error(fn, *args):
    try:
        return float.hex(fn(*args))
    except ContractViolation as exc:
        return str(exc)


def _sigma_points():
    rng = np.random.default_rng(8)
    points = [rng.standard_normal(4) * 10.0 ** rng.uniform(-100.0, 100.0) for _ in range(300)]
    return points + [np.zeros(4), np.full(4, 1e200), np.array([1e200, 0.0, 0.0, 0.0])]


@pytest.mark.parametrize("expr", SHARED_NORM + OWN_NORM)
def test_shared_norm_has_the_bits_of_norm_theta(expr):
    fn = _compile_sigma_expr(expr)
    with np.errstate(divide="ignore", over="ignore"):  # 1/0; the square of 1e200
        for theta in _sigma_points():
            shared = _sigma_or_error(fn, theta, math.sqrt(theta.dot(theta)))
            assert shared == _sigma_or_error(fn, theta), (expr, theta)
        # the norm passed in is what norm(theta) reads, and only norm(theta)
        theta = np.array([3.0, -4.0, 1e-3, 12.5])
        assert (fn(theta, 7.0) == fn(np.array([7.0, 0.0, 0.0, 0.0]))) == (expr in SHARED_NORM)
    if expr == "1/norm(theta)":  # numpy's 1/0 is inf, still refused
        with pytest.raises(ContractViolation, match="gave inf"), np.errstate(divide="ignore"):
            fn(np.zeros(4), 0.0)


@pytest.mark.parametrize("expr", BINDING)
def test_expression_that_binds_theta_is_not_rewritten(expr):
    fn = _compile_sigma_expr(expr)
    for theta in _sigma_points()[:50]:
        want = float(np.linalg.norm(BINDING[expr] * theta))
        assert float.hex(fn(theta)) == float.hex(want)
        assert float.hex(fn(theta, 7.0)) == float.hex(want)


def test_sigma_expression_compiles_to_the_same_floats():
    rng = np.random.default_rng(6)
    for expr in ("0.1*(1+norm(theta))", "norm(theta, 1)  # a trailing comment",
                 "sqrt(1 + norm(theta)**2)", "exp(-norm(theta))"):
        fn = _compile_sigma_expr(expr)
        for theta in rng.standard_normal((50, 4)):
            want = float(eval(expr, {"__builtins__": {}, "norm": np.linalg.norm,
                                     "sqrt": np.sqrt, "exp": np.exp}, {"theta": theta}))
            assert fn(theta) == want
    with pytest.raises(ContractViolation, match="gave inf"):  # numpy's 1/0, not Python's
        with np.errstate(divide="ignore"):
            _compile_sigma_expr("1/norm(theta)")(np.zeros(3))


def test_exp_abs_value_is_capped():
    obj = catalog_lookup("exp-abs")
    assert obj.value(np.array([1000.0])) == OVERFLOW_CAP


# ---------------------------------------------------------------------------
# gradient check: central finite differences, relative 1e-6
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kw", ALL_SPECS)
@pytest.mark.parametrize("dim", [1, 3])
def test_gradients_match_finite_differences(name, kw, dim):
    obj = catalog_lookup(name, dimension=dim, **kw)
    rng = np.random.default_rng(10 * ALL_SPECS.index((name, kw)) + dim)
    pts = domain_points(obj, 100, rng)
    for theta in pts:
        g = obj.grad(theta)
        h = 1e-6 * max(1.0, float(np.linalg.norm(theta)))
        fd = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd[i] = (obj.value(theta + e) - obj.value(theta - e)) / (2.0 * h)
        scale = max(1.0, float(np.linalg.norm(g)))
        assert np.max(np.abs(fd - g)) <= 1e-6 * scale, (name, theta.tolist())


@pytest.mark.parametrize("name,kw", ALL_SPECS)
def test_batch_forms_match_pointwise(name, kw):
    obj = catalog_lookup(name, dimension=2, **kw)
    rng = np.random.default_rng(21)
    pts = domain_points(obj, 50, rng)
    vb = obj.value_batch(pts)
    gb = obj.grad_batch(pts)
    gn = obj.grad_norm_batch(pts)
    for i, theta in enumerate(pts):
        assert vb[i] == pytest.approx(obj.value(theta), rel=1e-14)
        assert gb[i] == pytest.approx(obj.grad(theta), rel=1e-14)
        assert gn[i] == pytest.approx(float(np.linalg.norm(obj.grad(theta))), rel=1e-12)


def test_scalar_fast_paths_match_vector_forms():
    for name, kw in ALL_SPECS:
        obj = catalog_lookup(name, dimension=1, **kw)
        xs = [-3.0, -1.5, 1.2, 4.0] if obj.r0 == 0.0 else [-4.0, -1.5, 1.2, 4.0]
        for x in xs:
            assert obj.g1(x) == pytest.approx(obj.grad(np.array([x]))[0], rel=1e-14)


def test_f_lb_holds_on_dense_grid():
    for name, kw in ALL_SPECS:
        obj = catalog_lookup(name, dimension=1, **kw)
        lo = obj.r0 if obj.r0 > 0 else -30.0
        xs = np.linspace(lo, 30.0, 20001)[:, None]
        vals = obj.value_batch(xs)
        assert np.min(vals) >= obj.f_lb - 1e-12, name


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def test_zero_noise_returns_exact_gradient():
    obj = catalog_lookup("quadratic")
    noise = NoiseModel("zero", 1)
    rng = np.random.default_rng(0)
    assert noise.draw(rng, 5) is None
    draw = sample_block(noise, obj, [1.7], rng, 5)
    assert np.array_equal(draw, obj.grad(np.array([1.7])))


def test_gaussian_sigma_zero_is_exact():
    obj = catalog_lookup("quadratic")
    noise = NoiseModel("additive-gaussian", 1, sigma=0.0)
    rng = np.random.default_rng(0)
    assert np.all(sample_block(noise, obj, [2.5], rng, 8) == 2.5)


def test_rademacher_two_outcomes_at_theta_2():
    obj = catalog_lookup("quadratic")
    noise = NoiseModel("rademacher-radial", 1)
    rng = np.random.default_rng(1)
    draws = set(sample_block(noise, obj, [2.0], rng, 64)[:, 0].tolist())
    assert draws == {0.0, 4.0}
    # mean over the two equiprobable outcomes is the exact gradient
    assert (0.0 + 4.0) / 2.0 == obj.grad(np.array([2.0]))[0]


def test_gaussian_empirical_mean_within_band():
    # standard-error oracle: mean of n draws deviates by ~sigma/sqrt(n)
    obj = catalog_lookup("quadratic")
    noise = NoiseModel("additive-gaussian", 1, sigma=1.0)
    rng = np.random.default_rng(7)
    n = 10**5
    draws = obj.grad(np.array([0.0]))[0] + noise.sigma * rng.standard_normal(n)
    assert abs(np.mean(draws)) <= 3.0 / math.sqrt(n)
    # the noise model's own draw and sampler agree (small-n smoke check)
    rng2 = np.random.default_rng(8)
    small = sample_block(noise, obj, [0.0], rng2, 2000)[:, 0]
    assert abs(np.mean(small)) <= 4.0 / math.sqrt(2000)


@pytest.mark.parametrize("kind,sigma,expr", [
    ("additive-gaussian", 0.8, None),
    ("rademacher-radial", 0.0, None),
    ("additive-gaussian-statedep", 0.0, "0.1*(1+norm(theta))"),
])
def test_unbiasedness_within_3_sigma(kind, sigma, expr):
    # Each coordinate's band is 3 * sqrt(G - ||grad||^2) / sqrt(n).  For
    # rademacher-radial that is exactly 3 standard errors of the one noisy
    # coordinate: 10 two-sided checks at 0.27% each, a ~2.7% false-alarm
    # rate.  The Gaussian kinds spread that variance over 2 coordinates, so
    # each band is 4.24 standard errors: 20 checks, a ~0.05% rate.
    obj = catalog_lookup("quadratic", dimension=2)
    noise = NoiseModel(kind, 2, sigma=sigma, sigma_expr=expr)
    rng_pts = np.random.default_rng(17)
    for i, theta in enumerate(domain_points(obj, 10, rng_pts, scale=3.0)):
        rng = np.random.default_rng(i)
        n = 4000
        draws = sample_block(noise, obj, theta, rng, n)
        mean = draws.mean(axis=0)
        grad = obj.grad(theta)
        per_coord_sd = np.sqrt(noise.second_moment(theta, grad) - grad @ grad + 1e-30)
        band = 3.0 * per_coord_sd / math.sqrt(n) + 1e-12
        assert np.all(np.abs(mean - grad) <= band), (kind, theta)


def test_declared_envelope_dominates_empirical_second_moment():
    # G is the exact second moment and the standard error of the mean of
    # 1e5 squared norms is at most G / sqrt(1e5) here, so the 1% margin is at
    # least 3.16 standard errors per point: under ~0.08% each (normal
    # approximation), under 2.4% for all 30 points.
    obj = catalog_lookup("quadratic", dimension=2)
    rng_pts = np.random.default_rng(23)
    for kind, sigma, expr in [
        ("additive-gaussian", 0.5, None),
        ("rademacher-radial", 0.0, None),
        ("additive-gaussian-statedep", 0.0, "0.2*(1+norm(theta))"),
    ]:
        noise = NoiseModel(kind, 2, sigma=sigma, sigma_expr=expr)
        G = noise.envelope(obj)
        for i, theta in enumerate(domain_points(obj, 10, rng_pts, scale=3.0)):
            rng = np.random.default_rng(i)
            draws = sample_block(noise, obj, theta, rng, 10**5)
            second = float(np.mean(np.einsum("ij,ij->i", draws, draws)))
            assert second <= G(theta) * 1.01, (kind, theta)


def test_rademacher_envelope_exact_two_outcome_expectation():
    # E||grad + rho X u||^2 over X in {-1, +1} equals ||grad||^2 + rho^2
    obj = catalog_lookup("quadratic", dimension=3)
    noise = NoiseModel("rademacher-radial", 3)
    G = noise.envelope(obj)
    rng = np.random.default_rng(5)
    for theta in rng.uniform(-4, 4, size=(25, 3)):
        grad = obj.grad(theta)
        rho = float(np.linalg.norm(theta))
        plus = grad + rho * noise.direction
        minus = grad - rho * noise.direction
        exact = 0.5 * float(plus @ plus) + 0.5 * float(minus @ minus)
        assert abs(exact - G(theta)) <= 1e-9
        assert abs(G(theta) - (grad @ grad + rho * rho)) <= 1e-9


def test_statedep_sigma_expression_whitelist():
    with pytest.raises(ContractViolation):
        NoiseModel("additive-gaussian-statedep", 1, sigma_expr="__import__('os')")
    with pytest.raises(ContractViolation):
        NoiseModel("additive-gaussian-statedep", 1, sigma_expr=None)
    nm = NoiseModel("additive-gaussian-statedep", 1, sigma_expr="0.5*abs(theta[0])")
    assert nm.sigma_at(np.array([-2.0])) == 1.0


# Names inside nested code: a comprehension, a lambda and a generator
# expression, each reading an attribute that the top level never names.
NESTED_ESCAPES = [
    "[t.__class__.__mro__[-1].__subclasses__() for t in [theta]][0] and 0.1",
    "(lambda: theta.__class__)() and 0.1",
    "[*(t.__class__ for t in [theta])][0] and 0.1",
]


@pytest.mark.parametrize("expr", NESTED_ESCAPES)
def test_sigma_expression_whitelist_covers_nested_code(expr):
    with pytest.raises(ContractViolation, match="disallowed name '__class__'"):
        NoiseModel("additive-gaussian-statedep", 2, sigma_expr=expr)


def test_sigma_expression_nested_code_may_read_allowed_names():
    nm = NoiseModel("additive-gaussian-statedep", 2,
                    sigma_expr="(lambda x: 0.5 * sqrt(x))(norm(theta))")
    assert nm.sigma_at(np.array([3.0, 4.0])) == 0.5 * np.sqrt(5.0)


def test_noise_declared_constants():
    assert NoiseModel("zero", 2).constants == (0.0, 0.0, 1.0)
    nm = NoiseModel("additive-gaussian", 3, sigma=2.0)
    assert nm.constants == (12.0, 0.0, 1.0)  # p * sigma^2
    assert NoiseModel("rademacher-radial", 2).constants is None


# A fixed seed for the generator and the splits, as the reference gate's
# DRAW_SEED fixes its drawn configs.
SPLIT_SEED = 2021


@pytest.mark.parametrize("noise", [
    NoiseModel("additive-gaussian", 1, sigma=0.7),
    NoiseModel("additive-gaussian", 3, sigma=0.7),
    NoiseModel("additive-gaussian-statedep", 3, sigma_expr="0.3*(1+norm(theta))"),
    NoiseModel("rademacher-radial", 3),
    NoiseModel("zero", 3),
], ids=lambda noise: f"{noise.kind}-p{noise.dim}")
def test_a_split_draw_has_the_bytes_and_the_stream_of_one_draw(noise):
    # the engine draws each block's noise just before it steps the block:
    # any split into pieces, empty ones included, must give the bytes of one
    # draw and leave the generator where one draw leaves it
    splits = np.random.default_rng(SPLIT_SEED)
    empty = 0
    for _ in range(300):
        n = int(splits.integers(0, 400))
        cuts = np.sort(splits.integers(0, n + 1, int(splits.integers(0, 8))))
        sizes = np.diff([0, *cuts, n]).tolist()
        empty += sizes.count(0)
        one, split = np.random.default_rng(SPLIT_SEED), np.random.default_rng(SPLIT_SEED)
        whole = noise.draw(one, n)
        pieces = [noise.draw(split, m) for m in sizes]
        if whole is None:
            assert pieces == [None] * len(sizes)
        else:
            assert np.concatenate(pieces).tobytes() == whole.tobytes(), sizes
        assert split.bit_generator.state == one.bit_generator.state, sizes
    assert empty > 50


@pytest.mark.parametrize("direction", [(1.0,), (1.0, 0.0, 0.0)])
def test_rademacher_direction_must_have_p_entries(direction):
    # [1.0] at p = 2 broadcast onto both coordinates; three entries crashed a step
    with pytest.raises(ContractViolation, match="must have p = 2 entries"):
        NoiseModel("rademacher-radial", 2, direction=np.array(direction))
    with pytest.raises(ContractViolation, match="must have p = 2 entries"):
        NoiseSpec("rademacher-radial", direction=direction).build(2)


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
def test_rademacher_direction_of_extreme_scale_is_normalized(scale):
    # ||u||^2 overflows to inf (u / inf was [0, 0]), or underflows to a
    # subnormal (u / ||u|| was 6e-6 off unit length) or to 0 (rejected as zero)
    unit = NoiseModel("rademacher-radial", 2, direction=np.array([1.0, -1.0])).direction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nm = NoiseModel("rademacher-radial", 2, direction=np.array([scale, -scale]))
    assert nm.direction.tolist() == unit.tolist()
    # an ordinary direction keeps the bits of u / ||u||
    u = np.array([0.3, 1e-3])
    assert (NoiseModel("rademacher-radial", 2, direction=u).direction.tobytes()
            == (u / np.linalg.norm(u)).tobytes())


@pytest.mark.parametrize("direction", [(math.inf, 0.0), (1.0, math.nan)])
def test_rademacher_direction_must_be_finite(direction):
    with pytest.raises(ContractViolation, match="must be finite"):
        NoiseModel("rademacher-radial", 2, direction=np.array(direction))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0])
def test_sigma_must_be_finite_and_nonnegative(sigma):
    # a NaN or inf sigma built, and the run then read as overflow at step 0
    with pytest.raises(ContractViolation, match="sigma must be finite and >= 0"):
        NoiseModel("additive-gaussian", 1, sigma=sigma)


@pytest.mark.parametrize("sigma,dim", [(1e200, 1), (2e154, 1), (1e154, 2**53)])
def test_sigma_whose_second_moment_overflows_is_refused(sigma, dim):
    # 1e200 ** 2 raised OverflowError; 1e154 ** 2 * 2**53 gave constants of inf
    with pytest.raises(ContractViolation, match="sigma must have a finite second moment"):
        NoiseModel("additive-gaussian", dim, sigma=sigma)


@pytest.mark.parametrize("sigma,dim", [(1e154, 1), (1.3e154, 1), (0.7, 3), (5e-324, 3),
                                       (1e100, 2**20)])
def test_valid_sigma_keeps_its_declared_constant(sigma, dim):
    nm = NoiseModel("additive-gaussian", dim, sigma=sigma)
    assert float.hex(nm.constants[0]) == float.hex(dim * sigma ** 2)


def test_oracle_dimension_mismatch():
    with pytest.raises(ContractViolation):
        StochasticOracle(catalog_lookup("quadratic", dimension=2), NoiseModel("zero", 3))


def test_catalog_names_cover_spec_set():
    for name in CATALOG_NAMES:
        kw = {"q": 2.0} if name == "power-q" else {}
        assert catalog_lookup(name, **kw).dim == 1


@pytest.mark.parametrize("constants", [
    (math.nan, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, -1e-300, 1.0), (0.0, math.inf, 1.0),
    (0.0, 0.0, 0.5), (0.0, 0.0, -math.inf), (1.0, 0.0), (1.0, 0.0, 1.0, 2.0)])
def test_declared_noise_constants_outside_their_ranges_are_refused(constants):
    # C1 >= 0, C2 >= 0 and C3 >= 1, all finite, as check_expected_smoothness
    # requires; (nan, 0, 1) and (-1, 0, 1) built
    with pytest.raises(ContractViolation, match="noise constants must be"):
        NoiseModel("zero", 1, constants=constants)
    assert NoiseModel("zero", 1, constants=(0.0, 2.0, 1.0)).constants == (0.0, 2.0, 1.0)

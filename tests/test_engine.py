"""Engine tests: step arithmetic, schedules, validation, trajectory contracts.

Dense references such as q @ diag(d) @ q.T are built here from the
schedule's eigensystem; the engine itself never forms M_k.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sgdlab import engine, objectives
from sgdlab.diagnostics import split_seed
from sgdlab.engine import (
    _FLOAT_P,
    ORTHO_TOL,
    Schedule,
    random_orthogonal,
    run_trajectory,
    validate_schedule,
)
from sgdlab.errors import ContractViolation, DomainError
from sgdlab.objectives import NoiseModel, StochasticOracle, catalog_lookup


def make_oracle(name, noise_kind="zero", sigma=0.0, dim=1, **kw):
    obj = catalog_lookup(name, dimension=dim, **kw)
    return StochasticOracle(obj, NoiseModel(noise_kind, dim, sigma=sigma))


def one_step(sched, theta0, name="quadratic"):
    """theta_1 of a zero-noise run: theta0 - M_0 grad F(theta0)."""
    obj = catalog_lookup(name, dimension=sched.dim)
    traj = run_trajectory(StochasticOracle(obj, NoiseModel("zero", sched.dim)), sched,
                          theta0, 1, seed=0)
    return traj.thetas[1]


def dense_matrix(sched, k):
    """M_k as a dense matrix, built from the schedule's eigensystem."""
    d = sched.eigenvalues([k])[0]
    q = sched.q if sched.family == "rotated-diagonal-power" else np.eye(sched.dim)
    return q @ np.diag(d) @ q.T


# ---------------------------------------------------------------------------
# the SGD step, through run_trajectory
# ---------------------------------------------------------------------------

def test_sgd_step_scalar_half_identity():
    # quadratic: grad = theta, so a constant step of 1/2 halves the iterate
    out = one_step(Schedule.scalar(0.5, 0.0, dim=2), [2.0, 0.0])
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_sgd_step_zero_gradient_is_identity():
    # the gauss-bump gradient underflows to (-)0 far from the origin
    theta = np.array([30.0, -40.0, 5.0])
    obj = catalog_lookup("gauss-bump", dimension=3)
    assert not np.any(obj.grad(theta))
    sched = Schedule.diagonal([0.3, 0.2, 0.9], [0.5, 0.5, 0.5])
    traj = run_trajectory(StochasticOracle(obj, NoiseModel("zero", 3)), sched, theta, 5,
                          seed=0)
    assert np.array_equal(traj.thetas, np.tile(theta, (6, 1)))


def test_sgd_step_rectifier_at_zero():
    # gradient of the softplus at 0 is exactly 1/2
    out = one_step(Schedule.scalar(0.1, 0.0), [0.0], name="smooth-rectifier")
    assert out[0] == pytest.approx(-0.05, abs=1e-15)


def test_sgd_step_dimension_mismatch():
    oracle = make_oracle("quadratic", dim=2)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, Schedule.scalar(0.5, 0.0, dim=2), [1.0, 1.0, 1.0], 1, seed=0)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, Schedule.scalar(0.5, 0.0, dim=3), [1.0, 1.0], 1, seed=0)


@pytest.mark.parametrize("kind", ["scalar", "diagonal", "rotated"])
def test_sgd_step_linear_in_gradient(kind):
    # on the quadratic the step is theta - M theta, so M g = g - one_step(g)
    rng = np.random.default_rng(3)
    p = 4
    d = rng.uniform(0.1, 2.0, p)
    zeros = np.zeros(p)
    if kind == "scalar":
        sched = Schedule.scalar(d[0], 0.0, dim=p)
    elif kind == "diagonal":
        sched = Schedule.diagonal(d, zeros)
    else:
        q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        sched = Schedule.rotated(d, zeros, q=q)

    def apply(g):
        return g - one_step(sched, g)

    g1, g2 = rng.standard_normal(p), rng.standard_normal(p)
    a, b = 0.7, -1.3
    lhs = apply(a * g1 + b * g2)
    rhs = a * apply(g1) + b * apply(g2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# step matrices M_k
# ---------------------------------------------------------------------------

def test_matrix_rejects_nonpositive_eigenvalues():
    with pytest.raises(ContractViolation):
        Schedule.diagonal([0.5, 0.0], [0.5, 0.5])
    with pytest.raises(ContractViolation):
        Schedule.rotated([0.5, -1.0], [0.5, 0.5])


def test_matrix_rejects_non_orthogonal_factor():
    with pytest.raises(ContractViolation):
        Schedule.rotated([0.2, 0.1], [0.5, 0.5], q=[[1.0, 0.1], [0.0, 1.0]])
    # a non-symmetric M would step [1, 1] to [0.125, 0.25]
    with pytest.raises(ContractViolation, match="not orthogonal"):
        Schedule.rotated([0.5, 0.5], [0.75, 0.75], q=[[1.0, 0.5], [0.0, 1.0]])
    # a factor of the wrong size is refused here, not inside the step's matmul
    with pytest.raises(ContractViolation, match="shape"):
        Schedule.rotated([0.5, 0.5], [0.75, 0.75], q=np.eye(3))
    # within ORTHO_TOL is accepted, and generated factors pass the same test
    c, s = math.cos(0.3), math.sin(0.3)
    Schedule.rotated([0.5, 0.5], [0.75, 0.75], q=[[c, -s], [s, c + 0.5 * ORTHO_TOL]])
    Schedule.rotated(np.ones(8), np.full(8, 0.75), rotation_seed=11)


def test_explicit_rotation_factor_has_its_own_label():
    t = 0.3
    q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    explicit = Schedule.rotated([0.5, 0.2], [0.75, 0.75], q=q)
    seeded = Schedule.rotated([0.5, 0.2], [0.75, 0.75])
    assert seeded.label == "rotated-diagonal-power(c=0.5,0.2,beta=0.75,0.75,k0=1,p=2,rot=0)"
    assert explicit.label != seeded.label
    digest = hashlib.sha256(q.tobytes()).hexdigest()[:12]
    assert explicit.label.endswith(f",rot=q:{digest})")
    assert explicit.rotation_seed is None
    assert Schedule.rotated([0.5, 0.2], [0.75, 0.75], q=q.T).label != explicit.label


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda q: np.ascontiguousarray(q.T).T],
                         ids=["fortran", "transposed"])
def test_rotation_factor_layout_changes_neither_label_nor_run(layout):
    # the label hashes the factor's C-order bytes, and the step's gemvs sum
    # in the order of its layout: one factor, one label, one run
    q = random_orthogonal(4, 3)
    oracle = StochasticOracle(catalog_lookup("quadratic", 4),
                              NoiseModel("additive-gaussian", 4, sigma=0.5))
    runs = []
    for factor in (q, layout(q)):
        sched = Schedule.rotated([0.5, 0.4, 0.3, 0.2], [0.6] * 4, q=factor)
        traj = run_trajectory(oracle, sched, [1.0, -2.0, 0.5, 3.0], 1000, seed=7)
        runs.append((sched.label, traj.trace.tobytes()))
    assert runs[0] == runs[1]


def test_rotated_matrix_eigen_bounds_invariant():
    # eigenvalues are invariant under orthogonal conjugation
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
    sched = Schedule.rotated([0.2, 0.1], [0.0, 0.0], q=q)
    d = sched.eigenvalues([0])
    assert (d.min(axis=1)[0], d.max(axis=1)[0]) == (0.1, 0.2)
    dense = dense_matrix(sched, 0)
    assert np.max(np.abs(dense - dense.T)) <= 1e-15
    assert np.linalg.eigvalsh(dense) == pytest.approx([0.1, 0.2])


def test_matrix_apply_matches_dense():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    sched = Schedule.rotated([0.5, 0.25, 1.5], [0.0, 0.0, 0.0], q=q)
    g = rng.standard_normal(3)
    assert g - one_step(sched, g) == pytest.approx(dense_matrix(sched, 0) @ g, abs=1e-14)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_eigen_bounds_examples():
    s = Schedule.scalar(1.0, 0.75, k0=1)
    d = s.eigenvalues([0, 15])
    assert d.shape == (2, 1)
    assert d[0, 0] == 1.0
    assert d[1, 0] == pytest.approx(0.125, abs=1e-15)  # 16^0.75 = 8
    s2 = Schedule.diagonal([1.0, 2.0], [0.5, 1.0], k0=3)
    assert s2.eigenvalues([1]).tolist() == [[0.5, 0.5]]
    assert s2.eigenvalues([13]).tolist() == [[0.25, 0.125]]


def test_scalar_schedule_kappa_is_one():
    s = Schedule.scalar(0.3, 0.6, k0=2, dim=3)
    d = s.eigenvalues([0, 1, 10, 1000])
    assert np.array_equal(d.max(axis=1) / d.min(axis=1), np.ones(4))


def test_schedule_emits_valid_matrices():
    s = Schedule.rotated([0.5, 0.2], [0.75, 0.6], k0=1, rotation_seed=5)
    assert np.all(s.eigenvalues([0, 3, 50]) > 0)
    for k in [0, 3, 50]:
        dense = dense_matrix(s, k)
        assert np.max(np.abs(dense - dense.T)) <= 1e-12
        assert np.all(np.linalg.eigvalsh(dense) > 0)


BETAS = (0.0, 0.5, 0.6, 0.75, 1.0, 1.2)


@pytest.mark.parametrize("n", [200, 65536])
@pytest.mark.parametrize("k0", [1.0, 1.5, 2.0])
def test_eigenvalues_bit_equal_to_the_formulas_they_replace(n, k0):
    # the 1-D step sizes of the scalar loop and the lambda_max/lambda_min
    # scans were separate expressions; each must read the same bits from
    # Schedule.eigenvalues
    ks = np.arange(n)
    kf = np.arange(n, dtype=float)
    for beta in BETAS:
        s = Schedule.scalar(0.7, beta, k0=k0)
        etas = s.c[0] * (kf + s.k0) ** (-s.beta[0])
        assert s.eigenvalues(ks)[:, 0].tobytes() == etas.tobytes(), beta
    s = Schedule.diagonal(np.linspace(0.3, 1.1, 6), BETAS, k0=k0)
    old = s.c[None, :] * (kf[:, None] + s.k0) ** (-s.beta[None, :])
    d = s.eigenvalues(ks)
    assert d.max(axis=1).tobytes() == old.max(axis=1).tobytes()
    assert d.min(axis=1).tobytes() == old.min(axis=1).tobytes()


@pytest.mark.parametrize("schedule", [
    Schedule.scalar(0.5, 0.75), Schedule.diagonal([1.0, 0.3], [0.6, 1.2], k0=1.5),
    Schedule.rotated([0.5, 0.9], [0.0, 1.2], rotation_seed=3)], ids=lambda s: s.family)
def test_bounds_table_is_reused_and_extended(schedule):
    d = schedule.eigenvalues(np.arange(70000))
    for n in (100, 70000, 50):  # shorter, then longer (rebuilt), then shorter (reused)
        lmax = schedule.bounds(n)
        assert np.array_equal(lmax, d[:n].max(axis=1))
        assert not lmax.flags.writeable
    table = schedule.bounds(70000)
    assert np.shares_memory(schedule.bounds(50), table)


@pytest.mark.parametrize("family", ["scalar-power", "diagonal-power", "rotated-diagonal-power"])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.75, 1.0, 2.0])
def test_bounds_filled_in_blocks_are_bit_equal_to_eigenvalues(monkeypatch, family, p, beta):
    # `bounds` copies the walk's lambda_max of each block (`eigenvalues` fills
    # one block buffer in place); its row max equals that of one fresh call,
    # in blocks that end inside the table and at its end, also at the
    # exponents that numpy's scalar `**` special-cases (0, -0.5, -1, -2)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    scalar = family == "scalar-power"
    c = np.full(p, 0.7) if scalar else np.linspace(0.3, 1.7, p)
    betas = np.full(p, beta) if scalar else np.array([beta, 0.6, beta][:p])
    for n in (21, 23, 5):  # three whole blocks; and a part block; one part block
        lmax = Schedule(family, c, betas, 1.5, p).bounds(n)
        assert lmax.tobytes() == Schedule(family, c, betas, 1.5, p).eigenvalues(
            np.arange(n)).max(axis=1).tobytes()


def _same(a, b) -> bool:
    """a and b hold NaN at the same indices and the same bits elsewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and \
        a[~nan].tobytes() == b[~nan].tobytes()


def _drawn_schedule(rng) -> Schedule:
    """A random schedule of p 1-5 in any family, with rows that underflow to 0
    (c 1e-300 or beta 400) among its draws."""
    p = int(rng.integers(1, 6))
    family = str(rng.choice(engine.POWER_FAMILIES))
    size = 1 if family == "scalar-power" else p
    c = rng.choice([1e-300, 0.5, 1.0, 2.0], size) * rng.uniform(0.5, 2.0, size)
    beta = rng.choice([0.0, 0.5, 0.75, 1.0, 2.0, 400.0], size) * rng.choice(
        [1.0, rng.uniform(0.5, 1.5)], size)
    k0 = float(rng.choice([1.0, 1.5, rng.uniform(1.0, 10.0)]))
    return Schedule(family, np.resize(c, p), np.resize(beta, p), k0, p,
                    rotation_seed=int(rng.integers(10)) if family.startswith("rotated") else None)


def test_the_walk_has_the_bits_of_a_per_index_evaluation(monkeypatch):
    # scan's terms and peaks, every block that peaks_of_block reads again and
    # the bounds table, against one eigenvalues(np.arange(n)) call: its row
    # max and min, lmax ** alpha * (lmax / lmin) per index, and np.sum and
    # np.max per block in block order; small blocks give every draw block
    # edges, and underflowing rows a NaN peak (0^alpha * 0 / 0)
    rng = np.random.default_rng(2021)
    zero_rows = nan_peaks = 0
    for _ in range(300):
        schedule = _drawn_schedule(rng)
        chunk, n = int(rng.choice([1, 3, 7, 64])), int(rng.integers(1, 200))
        alpha = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)]))
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        with np.errstate(all="ignore"):
            d = schedule.eigenvalues(np.arange(n))
            lmax, lmin = d.max(axis=1), d.min(axis=1)
            h = lmax ** alpha * (lmax / lmin)
            starts = range(0, n, chunk)
            terms = [np.sum(lmax[a:a + chunk] ** (1.0 + alpha)) for a in starts]
            peaks = [np.max(h[a:a + chunk]) for a in starts]
            walk_terms, walk_peaks = schedule.scan(n, alpha)
            assert _same(walk_terms, terms) and _same(walk_peaks, peaks), schedule.label
            for i, a in enumerate(starts):
                start, block = schedule.peaks_of_block(i, n, alpha)
                assert start == a and _same(block, h[a:a + chunk]), (schedule.label, i)
        assert lmax.tobytes() == schedule.bounds(n).tobytes(), schedule.label
        zero_rows += not lmax.all()
        nan_peaks += bool(np.isnan(peaks).any())
    assert zero_rows >= 20 and nan_peaks >= 20


def test_schedule_parameter_validation():
    with pytest.raises(ContractViolation):
        Schedule.scalar(0.0, 0.75)  # c must be > 0
    with pytest.raises(ContractViolation):
        Schedule.scalar(1.0, -0.1)  # beta must be >= 0
    with pytest.raises(ContractViolation):
        Schedule.scalar(1.0, 0.75, k0=0.5)  # k0 must be >= 1


@pytest.mark.parametrize("build,name", [
    pytest.param(lambda: Schedule.scalar(math.nan, 0.75), "c", id="scalar-c-nan"),
    pytest.param(lambda: Schedule.scalar(math.inf, 0.75), "c", id="scalar-c-inf"),
    pytest.param(lambda: Schedule.scalar(1.0, math.inf), "beta", id="scalar-beta-inf"),
    pytest.param(lambda: Schedule.scalar(1.0, 0.75, k0=math.nan), "k0", id="scalar-k0-nan"),
    pytest.param(lambda: Schedule.scalar(1.0, 0.75, k0=math.inf), "k0", id="scalar-k0-inf"),
    pytest.param(lambda: Schedule.diagonal([1.0, math.nan], [0.75, 0.75]), "c",
                 id="diagonal-c-nan"),
    pytest.param(lambda: catalog_lookup("power-q", q=math.nan), "q", id="power-q-q-nan"),
    pytest.param(lambda: catalog_lookup("power-q", q=math.inf), "q", id="power-q-q-inf"),
    pytest.param(lambda: catalog_lookup("log1p-abs", r0=math.nan), "r0", id="log1p-abs-r0-nan"),
])
def test_nonfinite_parameter_is_refused_by_name(build, name):
    # c = nan was refused as "scalar-power requires one (c, beta) pair"; the
    # others built, and a run under them read as overflow or as step size 0
    with pytest.raises(ContractViolation, match=rf"\b{name} must be finite"):
        build()


# ---------------------------------------------------------------------------
# validate_schedule with an independent partial-sum oracle
# ---------------------------------------------------------------------------

def series_diverges_oracle(term_fn):
    """Brute-force convergence test: decade increments of the partial sums
    shrink geometrically for a convergent power series and do not for a
    divergent one."""
    sums = []
    total = 0.0
    prev = 0
    for h in (10**3, 10**4, 10**5, 10**6):
        ks = np.arange(prev, h, dtype=float)
        total += float(np.sum(term_fn(ks)))
        sums.append(total)
        prev = h
    inc_last = sums[3] - sums[2]
    inc_prev = sums[2] - sums[1]
    return (inc_last / inc_prev) >= 0.95  # diverges (or borderline log-diverges)


@pytest.mark.parametrize(
    "beta,alpha,p2,p3",
    [
        (0.75, 1.0, "pass", "pass"),
        (0.4, 1.0, "fail", "pass"),
        (1.2, 1.0, "pass", "fail"),
    ],
)
def test_validate_schedule_examples(beta, alpha, p2, p3):
    s = Schedule.scalar(1.0, beta, k0=1)
    report = validate_schedule(s, alpha, horizon=10**4)
    assert report.p2_verdict == p2
    assert report.p3_verdict == p3
    assert report.p4_verdict == "pass"
    # cross-check the analytic exponent verdicts against the sum oracle
    p2_oracle_diverges = series_diverges_oracle(
        lambda ks: ((ks + 1.0) ** -beta) ** (1.0 + alpha))
    assert (report.p2_verdict == "fail") == p2_oracle_diverges
    p3_oracle_diverges = series_diverges_oracle(lambda ks: (ks + 1.0) ** -beta)
    assert (report.p3_verdict == "pass") == p3_oracle_diverges


def test_validate_schedule_partial_sum_matches_direct_sum():
    s = Schedule.scalar(1.0, 0.75, k0=1)
    report = validate_schedule(s, 1.0, horizon=1000)
    direct = math.fsum((k + 1.0) ** -1.5 for k in range(0, 1001))
    assert report.p2_partial_sum == pytest.approx(direct, rel=1e-12)


def test_validate_schedule_p4_fails_for_spread_exponents():
    # lambda_max^alpha * kappa ~ (k+k0)^(beta_max - (1+alpha)*beta_min)
    s = Schedule.diagonal([1.0, 1.0], [0.2, 0.9], k0=1)
    report = validate_schedule(s, 1.0, horizon=100)
    assert report.p4_verdict == "fail"
    s2 = Schedule.diagonal([1.0, 1.0], [0.5, 0.9], k0=1)
    assert validate_schedule(s2, 1.0, horizon=100).p4_verdict == "pass"


def test_validate_schedule_constant_schedule():
    s = Schedule.scalar(0.5, 0.0, k0=1)
    report = validate_schedule(s, 1.0, horizon=100)
    assert report.p2_verdict == "fail"   # constant terms never sum finitely
    assert report.p3_verdict == "pass"
    assert report.p4_verdict == "fail"   # lambda_max^alpha * kappa stays at 0.5


def test_validate_schedule_contract():
    s = Schedule.scalar(1.0, 0.75)
    with pytest.raises(ContractViolation):
        validate_schedule(s, 0.0, 10)
    with pytest.raises(ContractViolation):
        validate_schedule(s, 1.5, 10)
    with pytest.raises(ContractViolation):
        validate_schedule(s, 1.0, 0)


@pytest.mark.parametrize("horizon", [True, 10.5, 0, -3])
def test_validate_schedule_horizon_is_an_integer_at_least_1(horizon):
    # True ran as horizon 1 and reported horizon_used True, 10.5 raised
    # numpy's TypeError
    s = Schedule.scalar(1.0, 0.75)
    with pytest.raises(ContractViolation,
                       match=rf"^horizon must be an integer >= 1, got {horizon!r}$"):
        validate_schedule(s, 1.0, horizon)
    assert validate_schedule(s, 1.0, np.int64(10)).horizon_used == 10


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------

def test_run_trajectory_two_constant_steps():
    oracle = make_oracle("quadratic")
    sched = Schedule.scalar(0.5, 0.0, k0=1)  # eta = 0.5 at every step
    traj = run_trajectory(oracle, sched, [1.0], 2, seed=0)
    assert np.array_equal(traj.thetas.ravel(), np.array([1.0, 0.5, 0.25]))
    assert np.array_equal(traj.f_values, np.array([0.5, 0.125, 0.03125]))
    assert np.array_equal(traj.ks, np.array([0, 1, 2]))


def test_zero_noise_quadratic_contracts_exactly():
    oracle = make_oracle("quadratic")
    sched = Schedule.scalar(0.8, 0.75, k0=2)
    K = 50
    traj = run_trajectory(oracle, sched, [1.0], K, seed=0)
    x = 1.0
    for k in range(K):
        eta = 0.8 * (k + 2.0) ** -0.75
        x = x - eta * x  # the recursion arithmetic, bit for bit
        assert traj.thetas[k + 1, 0] == x
        # contraction identity holds to float rounding
        assert abs(abs(traj.thetas[k + 1, 0]) - (1.0 - eta) * abs(traj.thetas[k, 0])
                   ) <= 4e-16 * max(1.0, abs(x))


@pytest.mark.parametrize("noise_kind,sigma,dim", [
    ("additive-gaussian", 1.0, 1),
    ("rademacher-radial", 0.0, 1),
    ("additive-gaussian", 0.5, 3),
])
def test_run_trajectory_deterministic_replay(noise_kind, sigma, dim):
    obj = catalog_lookup("quadratic", dimension=dim)
    oracle = StochasticOracle(obj, NoiseModel(noise_kind, dim, sigma=sigma))
    sched = Schedule.scalar(0.5, 0.75, k0=1, dim=dim)
    theta0 = [1.0] * dim
    a = run_trajectory(oracle, sched, theta0, 400, seed=99)
    b = run_trajectory(oracle, sched, theta0, 400, seed=99)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.f_values, b.f_values)
    assert np.array_equal(a.grad_norms, b.grad_norms)
    assert np.array_equal(a.norms(), b.norms())
    assert a.seed == b.seed


def test_replaying_recorded_seed_reproduces_trajectory():
    oracle = make_oracle("quadratic", "additive-gaussian", sigma=1.0)
    sched = Schedule.scalar(1.0, 0.75)
    first = run_trajectory(oracle, sched, [2.0], 300, seed=split_seed(11, 4))
    replay = run_trajectory(oracle, sched, [2.0], 300, seed=first.seed)
    assert np.array_equal(first.thetas, replay.thetas)
    assert np.array_equal(first.f_values, replay.f_values)


def test_run_trajectory_final_gradient_median():
    # frozen from a pilot run: the per-seed final gradient norm scales like
    # sqrt(eta_K / 2) ~ 0.009, so the median over seeds sits well below 0.05
    oracle = make_oracle("quadratic", "additive-gaussian", sigma=1.0)
    sched = Schedule.scalar(1.0, 0.75, k0=1)
    finals = []
    for i in range(100):
        traj = run_trajectory(oracle, sched, [1.0], 10**5, seed=split_seed(4242, i),
                              record_stride=10**5)
        finals.append(traj.grad_norms[-1])
    assert np.median(finals) < 0.05


def test_record_stride_and_final_index():
    oracle = make_oracle("quadratic", "additive-gaussian", sigma=0.3)
    sched = Schedule.scalar(0.5, 0.75)
    traj = run_trajectory(oracle, sched, [1.0], 1005, seed=5, record_stride=100)
    assert traj.ks[0] == 0
    assert traj.ks[-1] == 1005
    assert np.all(np.diff(traj.ks[:-1]) == 100)
    assert len(traj.f_values) == len(traj.ks) == len(traj.grad_norms)


def test_overflow_truncates_with_flag():
    # huge constant steps on exp-abs blow the iterate up within a few steps
    oracle = make_oracle("exp-abs")
    sched = Schedule.scalar(10.0, 0.0, k0=1)
    traj = run_trajectory(oracle, sched, [5.0], 50, seed=0)
    assert traj.overflow
    assert traj.truncated
    assert np.all(np.isfinite(traj.f_values))
    assert not traj.domain_violation


def test_vector_overflow_is_flagged_without_a_warning():
    # the jump past 1e154 overflows the accept norm's dot product; warnings
    # are errors in this suite, so a RuntimeWarning from it fails here
    oracle = make_oracle("quadratic", dim=2)
    sched = Schedule.scalar(1e60, 0.0, dim=2)
    traj = run_trajectory(oracle, sched, [1e100, 1e100], 50, seed=0)
    assert traj.overflow
    assert traj.last_k == 0
    assert not traj.domain_violation


def test_domain_truncation_mode_flags_instead():
    oracle = make_oracle("loglog1p-abs")
    sched = Schedule.scalar(5.0, 0.0, k0=1)
    traj = run_trajectory(oracle, sched, [1.5], 50, seed=0)
    assert traj.domain_violation
    assert traj.truncated
    assert traj.violation_theta is not None
    assert abs(traj.violation_theta[0]) < 1.0


def test_theta0_outside_domain_rejected():
    oracle = make_oracle("loglog1p-abs")
    sched = Schedule.scalar(0.1, 0.75)
    with pytest.raises(DomainError):
        run_trajectory(oracle, sched, [0.5], 10, seed=0)


def test_f_values_respect_lower_bound():
    for name, kw, theta0 in [
        ("quadratic", {}, [0.3]),
        ("smooth-rectifier", {}, [-2.0]),
        ("loglog1p-abs", {}, [50.0]),
    ]:
        oracle = StochasticOracle(
            catalog_lookup(name, **kw), NoiseModel("additive-gaussian", 1, sigma=0.2))
        traj = run_trajectory(oracle, Schedule.scalar(0.2, 0.75), theta0, 500, seed=8)
        assert np.all(traj.f_values >= oracle.objective.f_lb)


def test_run_trajectory_contract_checks():
    oracle = make_oracle("quadratic")
    sched = Schedule.scalar(0.5, 0.75)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, sched, [1.0], 0, seed=0)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, sched, [1.0], 10, seed=0, record_stride=0)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, sched, [np.inf], 10, seed=0)
    with pytest.raises(ContractViolation):
        run_trajectory(oracle, Schedule.scalar(0.5, 0.75, dim=2), [1.0], 10, seed=0)


@pytest.mark.parametrize("seed", [1.5, -1, True])
def test_run_trajectory_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # 1.5 ran as seed 1 and recorded seed 1; -1 died in numpy's default_rng
    oracle = make_oracle("quadratic", "additive-gaussian", sigma=1.0)
    with pytest.raises(ContractViolation, match=r"^seed must be an integer >= 0, got "):
        run_trajectory(oracle, Schedule.scalar(0.5, 0.75), [1.0], 10, seed=seed)
    assert run_trajectory(oracle, Schedule.scalar(0.5, 0.75), [1.0], 10,
                          seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("seed", [1.5, -1, True])
def test_rotation_seed_that_is_not_an_integer_at_least_0_is_refused(seed):
    # 1.5 was labelled rot=1.5 and built seed 1's factor
    with pytest.raises(ContractViolation, match=r"^rotation_seed must be an integer >= 0"):
        Schedule.rotated([1.0, 0.5], [0.75, 0.75], rotation_seed=seed)
    assert Schedule.rotated([1.0, 0.5], [0.75, 0.75], rotation_seed=np.int64(3)).q.tobytes() == (
        random_orthogonal(2, 3).tobytes())


@pytest.mark.parametrize("name,value", [
    ("K", 10.5),              # numpy's TypeError
    ("K", True),
    ("record_stride", 2.5),   # an IndexError
    ("record_stride", 0),
])
def test_run_trajectory_refuses_a_size_that_is_not_an_integer_at_least_1(name, value):
    oracle = make_oracle("quadratic", "additive-gaussian", sigma=1.0)
    kwargs = {"K": 10, "record_stride": 1, name: value}
    with pytest.raises(ContractViolation, match=rf"^{name} must be an integer >= 1, got "):
        run_trajectory(oracle, Schedule.scalar(0.5, 0.75), [1.0], seed=0, **kwargs)


# ---------------------------------------------------------------------------
# immutable values
# ---------------------------------------------------------------------------

VALUES = {
    "scalar": lambda: Schedule.scalar(0.5, 0.75),
    "rotated": lambda: Schedule.rotated([0.5, 0.9], [0.6, 0.7], rotation_seed=3),
    "rademacher": lambda: NoiseModel("rademacher-radial", 2, direction=[1.0, 1.0]),
    "statedep": lambda: NoiseModel("additive-gaussian-statedep", 1, sigma_expr="0.1"),
    "oracle": lambda: make_oracle("quadratic", "additive-gaussian", sigma=1.0),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_no_field_of_a_schedule_noise_model_or_oracle_can_be_assigned(make):
    value = make()
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_the_array_fields_are_read_only():
    s, noise = VALUES["rotated"](), VALUES["rademacher"]()
    for array in (s.c, s.beta, s.q, noise.direction):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_callers_write_into_its_arrays_does_not_reach_the_schedule():
    # the schedule kept the caller's arrays: after c[0] = 50 its label read
    # c=50,2 and its steps used 50, and validate_schedule still returned the
    # memoised P2 sum 11.79 (a schedule built with c = 50, 2 reads 10840)
    c, beta = np.array([1.0, 2.0]), np.array([0.6, 0.7])
    s = Schedule.diagonal(c, beta)
    steps, p2 = s.eigenvalues(np.arange(100)), validate_schedule(s, 1.0, 1000).p2_partial_sum
    c[0], beta[0] = 50.0, 0.1
    assert s.label == "diagonal-power(c=1,2,beta=0.6,0.7,k0=1,p=2)"
    assert s.eigenvalues(np.arange(100)).tobytes() == steps.tobytes()
    assert validate_schedule(s, 1.0, 1000).p2_partial_sum == p2 == validate_schedule(
        Schedule.diagonal([1.0, 2.0], [0.6, 0.7]), 1.0, 1000).p2_partial_sum


def test_a_callers_write_into_an_explicit_factor_does_not_reach_the_schedule():
    # the schedule kept the caller's q: a write left it no longer orthogonal
    # under a label that still hashed the old bytes
    q = random_orthogonal(2, 5)
    s = Schedule.rotated([1.0, 0.5], [0.75, 0.75], q=q)
    label, before = s.label, one_step(s, [1.0, -2.0])
    q[:] = 7.0 * np.eye(2)
    assert s.q.tobytes() == random_orthogonal(2, 5).tobytes()
    assert s.label == label and one_step(s, [1.0, -2.0]).tobytes() == before.tobytes()


def test_a_schedule_cannot_be_changed_under_its_memo():
    # beta = 0.1 was accepted after a check, and the next validate_schedule
    # returned the memoised P2 sum 2.549; a schedule built with beta 0.1
    # reads 313.6
    s = Schedule.scalar(1.0, 0.75)
    p2 = validate_schedule(s, 1.0, 1000).p2_partial_sum
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.beta = np.array([0.1])
    assert validate_schedule(s, 1.0, 1000).p2_partial_sum == p2 == pytest.approx(2.549, abs=1e-3)
    changed = validate_schedule(Schedule.scalar(1.0, 0.1), 1.0, 1000).p2_partial_sum
    assert changed == pytest.approx(313.6, abs=0.1)


def test_a_pickled_schedule_is_the_same_immutable_value():
    # the --jobs pool sends the ensemble's schedule to its workers by pickle
    import pickle

    s = VALUES["rotated"]()
    validate_schedule(s, 1.0, 100)
    t = pickle.loads(pickle.dumps(s))
    assert t.label == s.label and t.q.tobytes() == s.q.tobytes()
    assert not (t.c.flags.writeable or t.beta.flags.writeable or t.q.flags.writeable)
    assert validate_schedule(t, 1.0, 100) == validate_schedule(s, 1.0, 100)


def test_rotated_schedule_trajectory_matches_dense_iteration():
    obj = catalog_lookup("quadratic", dimension=2)
    oracle = StochasticOracle(obj, NoiseModel("zero", 2))
    sched = Schedule.rotated([0.4, 0.15], [0.75, 0.75], k0=1, rotation_seed=3)
    traj = run_trajectory(oracle, sched, [1.0, -2.0], 30, seed=0)
    theta = np.array([1.0, -2.0])
    for k in range(30):
        theta = theta - dense_matrix(sched, k) @ obj.grad(theta)
        assert traj.thetas[k + 1] == pytest.approx(theta, abs=1e-13)


def test_vector_and_scalar_paths_agree():
    # the p=1 fast loop and the general loop must produce the same floats
    obj = catalog_lookup("quadratic", dimension=1)
    oracle = StochasticOracle(obj, NoiseModel("additive-gaussian", 1, sigma=0.7))
    sched = Schedule.scalar(0.5, 0.75)
    fast = run_trajectory(oracle, sched, [1.0], 200, seed=13)
    # disable the scalar fast path to force the general loop
    obj2 = catalog_lookup("quadratic", dimension=1)
    obj2.g1 = None
    oracle2 = StochasticOracle(obj2, NoiseModel("additive-gaussian", 1, sigma=0.7))
    slow = run_trajectory(oracle2, sched, [1.0], 200, seed=13)
    assert np.array_equal(fast.thetas, slow.thetas)


@pytest.mark.parametrize("noise", [
    NoiseModel("additive-gaussian-statedep", 4, sigma_expr="0.1*(1+norm(theta))"),
    NoiseModel("rademacher-radial", 4),
])
def test_strided_theta0_runs_as_its_contiguous_copy(noise):
    # Both kinds scale their noise by the step's norm sqrt(theta.dot(theta)),
    # which sums a strided view in another order: theta0 is made contiguous.
    rng = np.random.default_rng(17)
    for _ in range(1000):
        strided = rng.standard_normal(8)[::2]
        contiguous = strided.copy()
        if math.sqrt(strided.dot(strided)) != math.sqrt(contiguous.dot(contiguous)):
            break
    else:
        pytest.fail("no point whose strided norm has other bits")
    oracle = StochasticOracle(catalog_lookup("smooth-rectifier", dimension=4), noise)
    sched = Schedule.rotated([0.5, 0.4, 0.3, 0.2], [0.6, 0.65, 0.7, 0.8], rotation_seed=7)
    a = run_trajectory(oracle, sched, strided, 40, seed=3)
    b = run_trajectory(oracle, sched, contiguous, 40, seed=3)
    assert a.trace.tobytes() == b.trace.tobytes()


def _spied(obj):
    """obj with grad and grad_plus counting their calls, and the counts."""
    calls = {"grad": 0, "grad_plus": 0}

    def spy(name, form):
        def counted(*args):
            calls[name] += 1
            return form(*args)
        return None if form is None else counted

    return dataclasses.replace(obj, grad=spy("grad", obj.grad),
                               grad_plus=spy("grad_plus", obj.grad_plus)), calls


@pytest.mark.parametrize("make, p, form", [
    (lambda p: catalog_lookup("smooth-rectifier", p), objectives._SIGMOID_LIST_P - 1,
     "grad_plus"),
    (lambda p: catalog_lookup("smooth-rectifier", p), objectives._SIGMOID_LIST_P,
     "grad_plus"),
    (lambda p: catalog_lookup("smooth-rectifier", p), _FLOAT_P - 1, "grad_plus"),
    (lambda p: catalog_lookup("smooth-rectifier", p), _FLOAT_P, "grad"),
    (lambda p: dataclasses.replace(catalog_lookup("power-q", p, q=1.5), grad_plus=None),
     3, "grad"),
    (lambda p: catalog_lookup("quadratic", p), 3, "grad"),
], ids=["float-form-below-the-sigmoid-crossover", "float-form-at-the-sigmoid-crossover",
        "float-form-below-crossover", "array-form-at-crossover", "no-float-form",
        "quadratic"])
@pytest.mark.parametrize("kind", ["zero", "additive-gaussian", "rademacher-radial",
                                  "additive-gaussian-statedep"])
def test_each_step_samples_with_the_form_of_its_dimension(monkeypatch, make, p, form, kind):
    K = 50
    noise = NoiseModel(kind, p, sigma=0.1, sigma_expr="0.1*(1+norm(theta))")
    obj, calls = _spied(make(p))
    sigmoid = objectives.sigmoid  # the rectifier's float form hands back to it

    def counted(x):
        if np.ndim(x) == 1:  # a point, not the records' grad_batch
            calls["sigmoid"] = calls.get("sigmoid", 0) + 1
        return sigmoid(x)

    monkeypatch.setattr(objectives, "sigmoid", counted)
    sched = Schedule.rotated(np.full(p, 0.05), np.full(p, 0.7))
    theta0 = np.linspace(1.0, 2.0, p)
    traj = run_trajectory(StochasticOracle(obj, noise), sched, theta0, K, seed=4)
    assert traj.last_k == K
    want = {"grad": 0, "grad_plus": 0, form: K}
    # without a noise term the rectifier's float form is sigmoid from p = 5
    if (form == "grad_plus" and obj.id == "smooth-rectifier"
            and kind in ("zero", "additive-gaussian") and p >= objectives._SIGMOID_LIST_P):
        want["sigmoid"] = K
    assert calls == want
    # and the array form alone runs the same bytes
    plain = run_trajectory(StochasticOracle(dataclasses.replace(obj, grad_plus=None), noise),
                           sched, theta0, K, seed=4)
    assert plain.trace.tobytes() == traj.trace.tobytes()

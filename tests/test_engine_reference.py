"""Differential tests: the engine's step loops against reference copies.

`_reference_scalar_loop` and `_reference_vector_loop` are the straightforward
per-step loops that the engine's fast paths replaced, kept verbatim apart
from reading the chunk size from the engine.  They are run in their
truncating mode, the engine's only behaviour: a domain exit ends the run and
is flagged.  The fast path, the chunk driver `_drive` with its 1-D or
p-dimensional stepper, must give the same iterate bits, the same
overflow/domain flags and the same violation point over the whole catalog,
every noise kind, every schedule family and p in {1, 3, 4}.  The reference
loops keep the rotated step as q @ (ds[j] * (q.T @ g)), the form the
engine's ndarray.dot gemv replaced, and the 1-D reference tests every
iterate where the engine tests a block of them at once.
"""

import dataclasses
import itertools
import math
from functools import partial

import numpy as np
import pytest

from sgdlab import engine
from sgdlab.engine import (
    THETA_CAP,
    Schedule,
    _drive,
    _scalar_chunk,
    _vector_chunk,
    random_orthogonal,
    run_trajectory,
)
from sgdlab.errors import DomainError
from sgdlab.objectives import NoiseModel, StochasticOracle, catalog_lookup

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def _reference_scalar_loop(g1, noise, etas, x0: float, K: int, rng, r0: float,
                           truncate_on_domain: bool):
    trace = np.empty(K + 1)
    trace[0] = x0
    x = x0
    kind = noise.kind
    sigma = noise.sigma
    overflow = False
    domain_hit = False
    viol = None
    last = K
    k = 0
    stop = False
    while k < K and not stop:
        n = min(engine._CHUNK, K - k)
        if kind == "additive-gaussian" or kind == "additive-gaussian-statedep":
            z = rng.standard_normal(n)
        elif kind == "rademacher-radial":
            z = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
        else:
            z = None
        for j in range(n):
            if kind == "zero":
                g = g1(x)
            elif kind == "additive-gaussian":
                g = g1(x) + sigma * z[j]
            elif kind == "rademacher-radial":
                g = g1(x) + abs(x) * z[j]
            else:
                g = g1(x) + noise.sigma_at(np.array([x])) * z[j]
            xn = x - etas[k + j] * g
            if not (-THETA_CAP < xn < THETA_CAP):
                overflow = True
                last = k + j
                stop = True
                break
            if r0 > 0.0 and abs(xn) < r0:
                if not truncate_on_domain:
                    raise DomainError(
                        f"iterate left the domain (|theta| < {r0}) at step {k + j + 1}",
                        theta=np.array([xn]),
                    )
                domain_hit = True
                viol = np.array([xn])
                last = k + j
                stop = True
                break
            trace[k + j + 1] = xn
            x = xn
        k += n
    return trace[: last + 1], overflow, domain_hit, viol


def _reference_vector_loop(objective, noise, schedule, theta0, K, rng, truncate_on_domain):
    p = objective.dim
    r0 = objective.r0
    trace = np.empty((K + 1, p))
    trace[0] = theta0
    theta = theta0.copy()
    grad = objective.grad
    kind = noise.kind
    overflow = False
    domain_hit = False
    viol = None
    last = K
    is_rotated = schedule.family == "rotated-diagonal-power"
    q = schedule.q
    k = 0
    stop = False
    while k < K and not stop:
        n = min(engine._CHUNK, K - k)
        ks = np.arange(k, k + n, dtype=float)
        ds = schedule.c[None, :] * (ks[:, None] + schedule.k0) ** (-schedule.beta[None, :])
        if kind == "additive-gaussian" or kind == "additive-gaussian-statedep":
            z = rng.standard_normal((n, p))
        elif kind == "rademacher-radial":
            z = rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
        else:
            z = None
        for j in range(n):
            g = grad(theta)
            if kind == "additive-gaussian":
                g = g + noise.sigma * z[j]
            elif kind == "rademacher-radial":
                g = g + float(np.linalg.norm(theta)) * z[j] * noise.direction
            elif kind == "additive-gaussian-statedep":
                g = g + noise.sigma_at(theta) * z[j]
            if is_rotated:
                step = q @ (ds[j] * (q.T @ g))
            else:
                step = ds[j] * g
            theta_n = theta - step
            nrm = float(np.linalg.norm(theta_n))
            if not (nrm < THETA_CAP):
                overflow = True
                last = k + j
                stop = True
                break
            if r0 > 0.0 and nrm < r0:
                if not truncate_on_domain:
                    raise DomainError(
                        f"iterate left the domain (norm < {r0}) at step {k + j + 1}",
                        theta=theta_n,
                    )
                domain_hit = True
                viol = theta_n
                last = k + j
                stop = True
                break
            trace[k + j + 1] = theta_n
            theta = theta_n
        k += n
    return trace[: last + 1], overflow, domain_hit, viol


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

OBJECTIVES = [
    ("quadratic", {}),
    ("smooth-rectifier", {}),
    ("gauss-bump", {}),
    ("exp-abs", {}),
    ("power-q", {"q": 1.5}),
    ("power-q", {"q": 4.0}),
    ("log1p-abs", {}),
    ("loglog1p-abs", {}),
]
NOISES = [
    ("zero", {}),
    ("additive-gaussian", {"sigma": 0.7}),
    ("rademacher-radial", {}),
    ("additive-gaussian-statedep", {"sigma_expr": "0.3*(1+norm(theta))"}),
]
FAMILIES = ("scalar-power", "diagonal-power", "rotated-diagonal-power")
# (c, beta, |theta0|): a decaying schedule, a constant step that overflows or
# leaves the domain quickly, and a start where the power-q(q=4) gradient
# overflows a double at the second step.
SETTINGS = [(0.5, 0.75, 2.0), (3.0, 0.0, 2.0), (3.0, 0.0, 1e34)]
K = 200
CHUNK = 64  # several chunks per run, and stops inside a chunk
# 1-D blocks of 1, 1, 2, 4, then 5 iterates: they grow, end inside the chunk
# and at its end (64 = 8 + 11 * 5 + 1)
FIRST_BLOCK, BLOCK = 1, 5


def _schedule(family, p, c, beta):
    cs = c * np.linspace(1.0, 0.5, p)
    bs = beta * np.linspace(1.0, 1.2, p)
    if family == "scalar-power":
        return Schedule.scalar(c, beta, dim=p)
    if family == "diagonal-power":
        return Schedule.diagonal(cs, bs)
    return Schedule.rotated(cs, bs, rotation_seed=5)


def _reference(loop):
    """A reference loop in truncating mode, returning the fast loops' triple."""

    def run(*args):
        trace, overflow, domain_hit, viol = loop(*args, True)
        assert domain_hit == (viol is not None)
        return trace, overflow, viol

    return run


def _engine_loops():
    """The engine's chunk driver with its 1-D and p-dimensional steppers,
    called as the reference loops are."""

    def scalar(g1, noise, etas, x0, K, rng, r0):
        step = partial(_scalar_chunk, g1, noise, etas, r0)
        return _drive(step, x0, K, noise, rng)

    def vector(obj, noise, sched, theta0, K, rng):
        step = partial(_vector_chunk, noise.sampler(obj.grad), sched, obj.r0)
        return _drive(step, theta0, K, noise, rng)

    return scalar, vector


def _run(loop, obj, noise, sched, theta0, seed):
    rng = np.random.default_rng(seed)
    if loop == "fast":
        scalar, vector = _engine_loops()
    else:
        scalar, vector = _reference(_reference_scalar_loop), _reference(_reference_vector_loop)
    with np.errstate(all="ignore"):
        if obj.dim == 1:
            etas = sched.eigenvalues(np.arange(K))[:, 0]
            trace, over, viol = scalar(obj.g1, noise, etas, float(theta0[0]), K, rng, obj.r0)
            trace = trace[:, None]
        else:
            trace, over, viol = vector(obj, noise, sched, theta0, K, rng)
    return (trace.shape, trace.tobytes(), over, viol is not None,
            None if viol is None else np.asarray(viol).tobytes())


def test_fast_loops_match_reference_bit_for_bit(monkeypatch):
    monkeypatch.setattr(engine, "_CHUNK", CHUNK)
    monkeypatch.setattr(engine, "_FIRST_BLOCK", FIRST_BLOCK)
    monkeypatch.setattr(engine, "_BLOCK", BLOCK)
    outcomes = {"full": 0, "overflow": 0, "domain": 0}
    grid = itertools.product(OBJECTIVES, NOISES, FAMILIES, (1, 3, 4), SETTINGS)
    for seed, combo in enumerate(grid):
        (name, okw), (kind, nkw), family, p, (c, beta, scale) = combo
        obj = catalog_lookup(name, dimension=p, **okw)
        noise = NoiseModel(kind, p, **nkw)
        sched = _schedule(family, p, c, beta)
        theta0 = scale * np.array([1.0, -0.6, 0.3, -0.8][:p])
        ref = _run("reference", obj, noise, sched, theta0, seed)
        assert _run("fast", obj, noise, sched, theta0, seed) == ref, combo
        outcomes["overflow" if ref[2] else "domain" if ref[3] else "full"] += 1
    # the grid exercises every exit of the loops
    assert all(count >= 10 for count in outcomes.values()), outcomes


@pytest.mark.parametrize("p", [2, 3, 4, 8, 16])
def test_rotated_gemv_by_dot_has_the_bits_of_matmul(p):
    # The engine's rotated step q.dot(d * qt.dot(g)), qt = q.T the transposed
    # view, against q @ (d * (q.T @ g)), on this build's BLAS.  Do not make
    # qt a contiguous copy of q.T: that takes the other gemv, which sums in
    # another order.  With numpy 2.4 on x86-64 the copy changed the last bit
    # on 81% of 50000 random rows at p = 4, and on 40-100% of rows for each
    # p from 2 to 33.
    rng = np.random.default_rng(p)
    q = random_orthogonal(p, 7)
    qt = q.T
    for _ in range(2000):
        d = rng.uniform(0.01, 1.0, p)
        g = rng.standard_normal(p) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert q.dot(d * qt.dot(g)).tobytes() == (q @ (d * (q.T @ g))).tobytes()


@pytest.mark.parametrize("p", [1, 3])
def test_power_q_gradient_overflow_is_flagged_as_overflow(p):
    # theta1 ~ -1.2e103 * e1; the gradient 4 * |theta1|**3 overflows a double,
    # which Python float pow raises on and numpy turns into inf.
    obj = catalog_lookup("power-q", dimension=p, q=4.0)
    sched = Schedule.scalar(3.0, 0.0, dim=p)
    theta0 = 1e34 * np.eye(p)[0]
    with np.errstate(all="ignore"):
        traj = run_trajectory(StochasticOracle(obj, NoiseModel("zero", p)), sched,
                              theta0, 10, seed=0)
        assert not np.isfinite(obj.grad(-1.2e103 * np.eye(p)[0])).all()
    assert traj.overflow and not traj.domain_violation
    assert traj.trace.shape == (1, p)  # F(theta1) = inf cuts the records too


@pytest.mark.parametrize("p", [1, 3])
def test_iterate_exactly_on_the_domain_floor_is_kept(p):
    # power-q(q=2) from 2*e1 with step 0.25: theta1 = e1 sits on r0 = 1 exactly
    # and stays; theta2 = 0.5*e1 leaves the domain.
    obj = catalog_lookup("power-q", dimension=p, q=2.0)
    noise = NoiseModel("zero", p)
    sched = Schedule.scalar(0.25, 0.0, dim=p)
    theta0 = 2.0 * np.eye(p)[0]
    ref = _run("reference", obj, noise, sched, theta0, 0)
    assert _run("fast", obj, noise, sched, theta0, 0) == ref
    assert ref[0] == (2, p)
    assert ref[3]  # domain exit at the second step


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("start", [THETA_CAP, -THETA_CAP, np.nextafter(THETA_CAP, 0.0)])
def test_iterate_on_the_cap_is_overflow_and_just_below_it_is_kept(p, start):
    # quadratic, zero noise, constant step 2: theta1 = -theta0 exactly, so a
    # run from the cap overflows at the first step and one from the float
    # just below it swings between +-theta0 for the whole horizon.
    obj = catalog_lookup("quadratic", dimension=p)
    noise = NoiseModel("zero", p)
    sched = Schedule.scalar(2.0, 0.0, dim=p)
    theta0 = start * np.eye(p)[0]
    ref = _run("reference", obj, noise, sched, theta0, 0)
    assert _run("fast", obj, noise, sched, theta0, 0) == ref
    if abs(start) == THETA_CAP:
        assert ref[0] == (1, p) and ref[2] and not ref[3]
    else:
        assert ref[0] == (K + 1, p) and not ref[2] and not ref[3]


def test_nan_iterate_is_flagged_as_overflow():
    # power-q(q=4) from 1e34 under a rotated constant step: the gradient at
    # theta1 overflows to +-inf and the rotation sums inf with -inf, so the
    # second iterate is NaN in every coordinate.
    obj = catalog_lookup("power-q", dimension=3, q=4.0)
    noise = NoiseModel("zero", 3)
    sched = _schedule("rotated-diagonal-power", 3, 3.0, 0.0)
    theta0 = 1e34 * np.array([1.0, -0.6, 0.3])
    with np.errstate(all="ignore"):
        out, (size, theta2) = _vector_chunk(noise.sampler(obj.grad), sched, obj.r0, theta0, 0,
                                            K, None)
    assert len(out) == 1 and np.isnan(size) and np.isnan(theta2).all()
    ref = _run("reference", obj, noise, sched, theta0, 0)
    assert _run("fast", obj, noise, sched, theta0, 0) == ref
    assert ref[0] == (2, 3) and ref[2] and not ref[3]


# ---------------------------------------------------------------------------
# the 1-D block path at its edges
# ---------------------------------------------------------------------------

# Each block is as long as the run before it, from 1 up to 4 iterates, in
# chunks of 13: blocks hold iterates 1, 2, 3-4, 5-8, 9-12, 13 | 14-17, 18-21,
# 22-25, 26 | ...
SMALL_FIRST_BLOCK, SMALL_BLOCK, SMALL_CHUNK = 1, 4, 13


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(engine, "_FIRST_BLOCK", SMALL_FIRST_BLOCK)
    monkeypatch.setattr(engine, "_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(engine, "_CHUNK", SMALL_CHUNK)


def _both(obj, noise, sched, theta0, seed=0):
    ref = _run("reference", obj, noise, sched, np.array([theta0]), seed)
    assert _run("fast", obj, noise, sched, np.array([theta0]), seed) == ref
    return ref


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("j", [1, 3, 5, 9, 14, 18,  # first iterate of a block
                               2, 4, 8, 12, 17,  # last iterate of a block
                               13, 26])  # last iterate of a chunk
def test_block_exit_at_each_position_in_block_and_chunk(j):
    noise = NoiseModel("zero", 1)
    # overflow: quadratic, step 3, x_k = (-2)^k x0, first |x| >= THETA_CAP at j
    over = _both(catalog_lookup("quadratic"), noise, Schedule.scalar(3.0, 0.0),
                 1.5 * THETA_CAP * 2.0 ** -j)
    assert over[0] == (j, 1) and over[2] and not over[3]
    # domain exit: power-q(q=2), step 0.25, x_k = x0 / 2^k, first below r0 = 1 at j
    dom = _both(catalog_lookup("power-q", q=2.0), noise, Schedule.scalar(0.25, 0.0),
                1.5 * 2.0 ** (j - 1))
    assert dom[0] == (j, 1) and not dom[2] and dom[3]


def _quadratic_with(g1):
    return dataclasses.replace(catalog_lookup("quadratic"), g1=g1)


@pytest.mark.usefixtures("small_blocks")
def test_block_nan_iterate_is_flagged_as_overflow():
    # x halves under step 0.5; g1 is NaN at x_5 = 0.125, so iterate 6, the
    # middle of a block, is NaN
    obj = _quadratic_with(lambda x: x if abs(x) > 0.2 else math.nan)
    ref = _both(obj, NoiseModel("zero", 1), Schedule.scalar(0.5, 0.0), 4.0)
    assert ref[0] == (6, 1) and ref[2] and not ref[3]


@pytest.mark.parametrize("blocks", ["small", "default"])
def test_domain_exit_before_a_raising_step_is_truncated(request, blocks):
    # power-q(q=0.5) from 1 with step 2: theta1 = 1 - 2 * 0.5 = 0 leaves the
    # domain, and g1(0) = 0.5 * 0 ** -0.5 raises ZeroDivisionError in the
    # step after it, which the block reads before its test runs (the small
    # blocks' second block; the default first block of 64).
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    obj = catalog_lookup("power-q", q=0.5)
    noise = NoiseModel("zero", 1)
    sched = Schedule.scalar(2.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        obj.g1(0.0)
    ref = _both(obj, noise, sched, 1.0)
    assert ref[0] == (1, 1) and not ref[2] and ref[3]
    traj = run_trajectory(StochasticOracle(obj, noise), sched, [1.0], K, seed=0)
    assert traj.domain_violation and not traj.overflow
    assert traj.trace.shape == (1, 1) and traj.violation_theta.tolist() == [0.0]


@pytest.mark.usefixtures("small_blocks")
def test_g1_raising_at_an_accepted_iterate_raises_at_the_same_step():
    # quadratic from 8 under a decaying step: g1 raises at x_19 (accepted,
    # r0 = 0), in the step to iterate 20, the middle of the second chunk's
    # second block.  The step sizes change with k, so a replay from the wrong
    # iterate would raise at another x.
    sched = Schedule.scalar(0.5, 0.5)
    xs = [8.0]
    for eta in sched.bounds(19)[0].tolist():
        xs.append(xs[-1] - eta * xs[-1])
    limit = 0.5 * (xs[18] + xs[19])

    def g1(x):
        if abs(x) < limit:
            raise ValueError(f"g1 at {float(x)!r}")
        return x

    obj = _quadratic_with(g1)
    for loop in ("reference", "fast"):
        with pytest.raises(ValueError) as raised:
            _run(loop, obj, NoiseModel("zero", 1), sched, np.array([8.0]), 0)
        assert str(raised.value) == f"g1 at {xs[19]!r}"


@pytest.mark.parametrize("growth, j_about", [(2.0 ** 20, 25), (1.0, 500), (0.1, 3600),
                                             (0.01, 34700), (0.005, 69300)])
def test_run_steps_at_most_its_own_length_past_its_exit(growth, j_about):
    # quadratic under step 2 + growth: x_k = (-(1 + growth))^k overflows near
    # step j_about, in the first block, the growing blocks, the full-size
    # blocks of the first chunk and in the second chunk.
    calls = 0

    def g1(x):
        nonlocal calls
        calls += 1
        return x

    n = 2 * engine._CHUNK
    noise = NoiseModel("zero", 1)
    etas = Schedule.scalar(2.0 + growth, 0.0).bounds(n)[0]
    step = partial(_scalar_chunk, g1, noise, etas, 0.0)
    trace, overflow, viol = _drive(step, 1.0, n, noise, np.random.default_rng(0))
    j = len(trace)  # the step that made the rejected iterate
    assert overflow and viol is None and abs(j - j_about) < 0.01 * j_about + 1
    assert j <= calls <= j + min(max(j, engine._FIRST_BLOCK), engine._BLOCK)
    assert engine._FIRST_BLOCK <= 64 and engine._BLOCK <= 4096


# ---------------------------------------------------------------------------
# special floats through the 1-D buffers
# ---------------------------------------------------------------------------


class _Normals:
    """A stand-in generator whose standard normals are the given values, in order."""

    def __init__(self, z):
        self.z, self.used = z, 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        self.used += n
        return self.z[self.used - n:self.used].reshape(shape)


NAN_PAYLOAD = np.array([0x7FF4000000000123], dtype=np.uint64).view(np.float64)[0]
SUBNORMAL = 5e-324


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("at, value, r0, exit_kind", [
    (None, None, 0.0, "full"),
    (16, math.inf, 0.0, "overflow"),
    (25, -math.inf, 0.0, "overflow"),
    (30, NAN_PAYLOAD, 0.0, "overflow"),
    (20, -0.0, 1e-300, "domain"),  # a step of 1 makes x - (x + -0.0) = 0.0 < r0
])
def test_special_floats_pass_through_the_buffers_bit_for_bit(at, value, r0, exit_kind):
    # Additive noise with -0.0 and the smallest subnormal among its normals,
    # subnormal step sizes, and a last entry of +-inf, a NaN with a payload or
    # a -0.0 that drives the run out.  The infinite iterates end a block (17)
    # and a chunk (26); the NaN iterate 31 starts a block, whose next step
    # raises in g1, so that block is replayed from slices of the buffers.
    K = 40
    etas = np.full(K, 0.5)
    etas[7], etas[8] = SUBNORMAL, np.nextafter(np.finfo(float).tiny, 0.0)
    z = np.random.default_rng(3).standard_normal(K)
    z[3], z[10] = -0.0, SUBNORMAL
    if at is not None:
        z[at] = value
        if exit_kind == "domain":
            etas[at] = 1.0
    noise = NoiseModel("additive-gaussian", 1, sigma=1.0)

    def g1(x):
        if x != x:
            raise ValueError("g1 at NaN")
        return x

    rejected = []

    def step(*args):
        accepted, rej = _scalar_chunk(g1, noise, etas, r0, *args)
        rejected.append(rej)
        return accepted, rej

    with np.errstate(invalid="ignore"):  # sigma * NaN_PAYLOAD quiets a signalling NaN
        ref_trace, ref_over, ref_domain, ref_viol = _reference_scalar_loop(
            g1, noise, etas, 0.75, K, _Normals(z), r0, True)
        trace, over, viol = _drive(step, 0.75, K, noise, _Normals(z))
        w = (noise.sigma * z).tolist()
    assert trace.tobytes() == ref_trace.tobytes()
    kind = "overflow" if over else "domain" if viol is not None else "full"
    assert kind == exit_kind and over == ref_over and ref_domain == (viol is not None)
    if exit_kind == "full":
        assert len(trace) == K + 1 and rejected[-1] is None
        return
    # the rejected iterate, stepped on Python floats as the list-based loop did
    j = len(trace) - 1
    x = float(trace[-1])
    want = x - etas.tolist()[j] * (x + w[j])
    size, got = rejected[-1]
    assert j == at
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.float64(size).tobytes() == np.float64(abs(want)).tobytes()
    if exit_kind == "domain":
        assert viol.tobytes() == ref_viol.tobytes() == np.array([0.0]).tobytes()

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
engine's ndarray.dot gemv replaced.
"""

import itertools
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
    out = []
    with np.errstate(all="ignore"):
        size, theta2 = _vector_chunk(noise.sampler(obj.grad), sched, obj.r0, theta0, 0, K,
                                     None, out)
    assert len(out) == 1 and np.isnan(size) and np.isnan(theta2).all()
    ref = _run("reference", obj, noise, sched, theta0, 0)
    assert _run("fast", obj, noise, sched, theta0, 0) == ref
    assert ref[0] == (2, 3) and ref[2] and not ref[3]

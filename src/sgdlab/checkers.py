"""Numerical checkers for the analysis assumptions and technical inequalities.

Every checker is a falsifiable test with an explicit tolerance: it reports a
pass/fail/inconclusive verdict, the worst violation it found, and a witness
that reproduces a failure.  Sampling-based estimates of suprema are lower
bounds by construction; checkers that need an upper bound take it as an
explicit input (or use twice a grid estimate) rather than silently trusting
a sampled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Schedule, Verdict, _check_alpha, _check_int, _check_seed
from .errors import ContractViolation, DomainError, numeric_policy
from .objectives import Objective, StochasticOracle, _norms

ZERO_CLAMP = 1e-300
DEFAULT_TOL = 1e-9
# Ball samples per local Hölder estimate of probe_radial_conditions.
PROBE_HOLDER_SAMPLES = 512
# Grid points (1-D) or random pairs (p > 1) of holder_sup_on_box.
HOLDER_BOX_SAMPLES = 512
# Rows per block of the sampled checkers: the descent and gradbound checks
# evaluate their points, and the variance and smoothness checks square their
# draws, this many at a time, and the 1-D Hölder sup reads about this many
# grid pairs at a time, so beside the drawn points they hold a few blocks of
# temporaries whatever the sample size.  16384 rows (128 KiB at p = 1) read
# check-suite wall_ref about 5% above 32768 rows for 0.8 MB less peak RSS
# (6 runs each, 2 vCPU).
_ROWS = 32768


@dataclass
class AssumptionReport:
    """Outcome of one numerical check.

    On failure the witness reproduces the violation when re-evaluated; on an
    inconclusive verdict required inputs were missing.
    """

    assumption_id: str
    verdict: Verdict
    worst_violation: float
    witness: object
    tolerance: float


@dataclass
class HolderEstimate:
    """Sampled local Hölder constant of the gradient over a closed ball.

    value = max over sampled points phi' of
        ||grad(phi') - grad(phi)|| / ||phi' - phi||^alpha,
    hence a lower bound of the true supremum.  The sample sequence is nested,
    so the estimate never decreases as n_samples grows.
    """

    center: np.ndarray
    radius: float
    alpha: float
    value: float
    n_samples: int
    method: str


@dataclass
class RadialRecord:
    radius: float
    grad_norm_sq: float
    L_r: float
    G_value: float
    ratio: float


@dataclass
class RadialProbe:
    """Gradient-energy vs noise-and-smoothness balance along a fixed ray.

    At each probe radius rho the record holds ||grad||^2, the sampled local
    Hölder constant L_r, the envelope value G, and

        ratio = grad_norm_sq / ((L_r + [L_r = 0]) * (G^((1+alpha)/2) + [G = 0]))

    with exact-zero indicator guards.  a5_trend tracks the monotonicity of F
    along the ray; a6_verdict states whether the ratio clears b_threshold at
    the largest radii.  Both are finite-horizon statements only.
    """

    radii: list[float]
    records: list[RadialRecord]
    alpha: float
    r: float
    b_threshold: float
    a5_trend: str
    a6_verdict: str


def _finite(**values) -> None:
    """Raise ContractViolation naming the first value (a number, or a point or
    list of numbers) that is or holds a NaN or an infinity."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ContractViolation(f"{name} must be finite, got {value!r}")


def _box_bounds(box: tuple[float, float]) -> tuple[float, float]:
    """(lo, hi) of a box, refused unless its width hi - lo is finite (so are
    lo and hi) and hi > lo."""
    lo, hi = float(box[0]), float(box[1])
    if not math.isfinite(hi - lo):
        raise ContractViolation(f"box must be finite, with a finite hi - lo, got {tuple(box)!r}")
    if not hi > lo:
        raise ContractViolation("box must satisfy hi > lo")
    return lo, hi


def _van_der_corput(n: int) -> np.ndarray:
    """First n points of the base-2 bit-reversal sequence in (0, 1).

    Bit j of i adds 2^-(j+1) to point i; every term and partial sum is an
    exact dyadic fraction, so the vectorized sum has the bits of a per-point
    loop.
    """
    x = np.arange(1, n + 1, dtype=np.int64)
    out = np.zeros(n)
    denom = 1.0
    for _ in range(int(n).bit_length()):
        denom *= 2.0
        out += (x & 1) / denom
        x >>= 1
    return out


def _ball_points(phi: np.ndarray, r: float, n: int, seed: int) -> np.ndarray:
    """Nested sample sequence in the closed ball around phi.

    grid (1-D): both endpoints first, then bit-reversal points of the
    interval.  pair-sampling (p > 1): alternating sphere/interior points from
    a seeded stream, one fixed draw count per point.  Either way the first n
    points of a longer sequence coincide with the shorter one.
    """
    p = phi.shape[0]
    if p == 1:
        pts = np.empty((n, 1))
        pts[0, 0] = phi[0] + r
        if n > 1:
            pts[1, 0] = phi[0] - r
        if n > 2:
            v = _van_der_corput(n - 2)
            pts[2:, 0] = phi[0] + (2.0 * v - 1.0) * r
        return pts
    rng = np.random.default_rng(seed)
    pts = np.empty((n, p))
    for i in range(n):
        d = rng.standard_normal(p)
        nd = float(np.linalg.norm(d))
        if nd == 0.0:  # pragma: no cover - measure zero
            d[0] = 1.0
            nd = 1.0
        rad = r if i % 2 == 0 else r * rng.random() ** (1.0 / p)
        pts[i] = phi + (rad / nd) * d
    return pts


@numeric_policy
def estimate_local_holder(
    obj: Objective,
    phi,
    r: float,
    alpha: float,
    n_samples: int,
    seed: int = 0,
) -> HolderEstimate:
    """Sampled L_r(phi): max gradient-difference ratio over the closed ball.

    The ball is sampled on a grid in 1-D and by pair-sampling for p > 1
    (_ball_points).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    _finite(phi=phi.tolist(), r=r)
    _check_alpha(alpha)
    _check_seed("seed", seed)
    if r <= 0.0:
        raise ContractViolation("radius r must be > 0")
    _check_int("n_samples", n_samples, 2)
    if obj.r0 > 0.0 and float(np.linalg.norm(phi)) - r < obj.r0:
        raise DomainError(
            f"ball of radius {r} around phi={phi.tolist()} intersects the "
            f"forbidden region norm < {obj.r0}",
            theta=phi,
        )
    pts = _ball_points(phi, r, n_samples, seed)
    diffs = pts - phi[None, :]
    dists = _norms(diffs)
    keep = dists > 0.0
    gphi = obj.grad(phi)
    gdiff = obj.grad_batch(pts[keep]) - gphi[None, :]
    num = _norms(gdiff)
    ratios = num / dists[keep] ** alpha
    value = float(np.max(ratios)) if ratios.size else 0.0
    return HolderEstimate(
        center=phi, radius=r, alpha=alpha, value=value,
        n_samples=n_samples, method="grid" if phi.shape[0] == 1 else "pair-sampling",
    )


@numeric_policy
def holder_sup_on_box(obj: Objective, box: tuple[float, float], alpha: float,
                      seed: int = 0) -> float:
    """Grid estimate of the pairwise Hölder ratio supremum over a box.

    For 1-D objectives this is exact over all grid pairs at a positive
    distance, taken a block of grid rows (about _ROWS pairs) at a time; for
    p > 1 it falls back to seeded random pairs.  A lower bound of the true
    sup either way, and NaN if any ratio is NaN.
    """
    _check_alpha(alpha)
    _check_seed("seed", seed)
    if obj.dim == 1:
        # the distinct grid points: a box narrower than the grid repeats
        # points, and a pair at distance 0 has no ratio
        xs = np.unique(np.linspace(*_box_bounds(box), HOLDER_BOX_SAMPLES))
        obj.check_domain(xs[:, None])
        g = obj.grad_batch(xs[:, None])[:, 0]
        n = len(xs)
        step = max(1, _ROWS // n)
        sups = []
        for a in range(0, n - 1, step):
            # rows i = a..a+step-1 against the columns j = a+1..n-1: every
            # pair (i, j > i), a pair of two rows also as (j, i), whose ratio
            # has the same bits, and each (i, i) once, set to 0 / inf
            rows = slice(a, a + step)
            dx = np.abs(xs[a + 1:] - xs[rows, None])
            dg = np.abs(g[a + 1:] - g[rows, None])
            np.fill_diagonal(dx[1:], np.inf)
            np.fill_diagonal(dg[1:], 0.0)
            sups.append(np.max(dg / dx ** alpha))
        return float(np.max(sups))
    rng = np.random.default_rng(seed)
    a = _uniform_box(rng, HOLDER_BOX_SAMPLES, box, obj.dim)
    b = _uniform_box(rng, HOLDER_BOX_SAMPLES, box, obj.dim)
    obj.check_domain(a)
    obj.check_domain(b)
    diff = b - a
    dist = _norms(diff)
    keep = dist > 0
    gd = obj.grad_batch(b[keep]) - obj.grad_batch(a[keep])
    num = _norms(gd)
    return float(np.max(num / dist[keep] ** alpha))


def _uniform_box(rng: np.random.Generator, n: int, box: tuple[float, float],
                 dim: int) -> np.ndarray:
    lo, hi = _box_bounds(box)
    return rng.uniform(lo, hi, size=(n, dim))


def _worst_point(assumption_id: str, n: int, tol: float,
                 block: Callable[[slice], tuple]) -> AssumptionReport:
    """The verdict of a sampled check from the violations of its n points.

    block(rows) evaluates the points of a slice of at most _ROWS rows and
    returns their violations and a witness(j) read from row j of that block.
    The worst point is the first maximum, as np.argmax picks it on the whole
    array: a block's argmax replaces the worst so far only if it is larger,
    or NaN, and the scan stops at the first NaN.  So a NaN violation is the
    worst and fails the check: a point whose violation cannot be evaluated
    is never read as a pass.
    """
    worst = witness = None
    for start in range(0, n, _ROWS):
        values, row = block(slice(start, start + _ROWS))
        j = int(np.argmax(values))
        if worst is None or not values[j] <= worst:
            worst, witness = float(values[j]), row(j)
            if math.isnan(worst):
                break
    return AssumptionReport(
        assumption_id=assumption_id,
        verdict="pass" if worst <= tol else "fail",
        worst_violation=worst,
        witness=witness,
        tolerance=tol,
    )


@numeric_policy
def check_descent_inequality(
    obj: Objective,
    n_pairs: int,
    L_tilde: float,
    alpha: float,
    box: tuple[float, float],
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AssumptionReport:
    """Check the Hölder descent inequality on sampled pairs.

    Requires, for every sampled (theta, phi) in the box,

        F(theta) - F(phi) - grad(phi)^T (theta - phi)
            - L_tilde/(1+alpha) * ||theta - phi||^(1+alpha)  <=  tol.

    worst_violation is the largest left-hand side seen, at the first pair
    that reaches it (a NaN first).  All thetas are drawn, then all phis, and
    the pairs are evaluated _ROWS at a time, so beside the pairs the check
    holds a few blocks of temporaries.
    """
    _finite(L_tilde=L_tilde, tol=tol)
    _check_alpha(alpha)
    if L_tilde <= 0.0:
        raise ContractViolation("L_tilde must be > 0")
    _check_int("n_pairs", n_pairs, 1)
    _check_seed("seed", seed)
    rng = np.random.default_rng(seed)
    thetas = _uniform_box(rng, n_pairs, box, obj.dim)
    phis = _uniform_box(rng, n_pairs, box, obj.dim)
    obj.check_domain(thetas)
    obj.check_domain(phis)
    scale = L_tilde / (1.0 + alpha)

    def block(rows: slice):
        theta, phi = thetas[rows], phis[rows]
        diff = theta - phi
        inner = np.einsum("ij,ij->i", obj.grad_batch(phi), diff)
        lhs = (obj.value_batch(theta) - obj.value_batch(phi) - inner
               - scale * _norms(diff) ** (1.0 + alpha))
        return lhs, lambda j: {
            "theta": theta[j].tolist(), "phi": phi[j].tolist(), "lhs": float(lhs[j])}

    return _worst_point("descent", n_pairs, tol, block)


@numeric_policy
def check_variance_control(norm_samples, alpha: float,
                           tol: float = 1e-12) -> AssumptionReport:
    """Check the two-link moment chain on nonnegative samples s:

        mean(s^(1+alpha)) <= mean(s^2)^((1+alpha)/2)
                          <= (1+alpha)/2 * mean(s^2) + (1-alpha)/2.

    The chain holds for every nonnegative sample set and alpha in (0, 1].
    Links can be mathematical equalities (alpha = 1, or a single sample), so
    the tolerance is applied relative to the link magnitude: pow rounding on
    large samples would otherwise register as a violation.  A link that
    overflows cannot be compared, so such a chain reads inconclusive, with
    the chain as its witness.
    """
    s = np.asarray(norm_samples, dtype=float)
    if s.size == 0:
        raise ContractViolation("sample set must be nonempty")
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise ContractViolation("samples must be finite and >= 0")
    _check_alpha(alpha)
    _finite(tol=tol)

    m_low = float(np.mean(s ** (1.0 + alpha)))
    m_sq = np.mean(s ** 2)
    m_mid = float(m_sq ** ((1.0 + alpha) / 2.0))
    m_young = float((1.0 + alpha) / 2.0 * m_sq + (1.0 - alpha) / 2.0)
    worst = max(
        (m_low - m_mid) / max(1.0, abs(m_mid)),
        (m_mid - m_young) / max(1.0, abs(m_young)),
    )
    chain = [m_low, m_mid, m_young]
    verdict = "pass" if worst <= tol else "fail"
    if not all(map(math.isfinite, chain)):
        verdict = "inconclusive"
    return AssumptionReport(
        assumption_id="variance",
        verdict=verdict,
        worst_violation=worst,
        witness={"chain": chain, "alpha": alpha},
        tolerance=tol,
    )


@numeric_policy
def check_grad_bound(
    obj: Objective,
    L: float | None,
    alpha: float,
    n_points: int,
    box: tuple[float, float],
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AssumptionReport:
    """Check the gradient-energy bound from the global Hölder constant:

        ||grad(phi)||^2 <= (L^(1/alpha) * (1+alpha)/alpha * (F(phi) - f_lb))^(2*alpha/(1+alpha))

    at sampled points, to relative tolerance tol, reported at the first
    point of largest violation (a NaN first).  The points are evaluated
    _ROWS at a time, so beside them the check holds a few blocks of
    temporaries.  Without a global constant the verdict is inconclusive.
    """
    _check_alpha(alpha)
    _check_int("n_points", n_points, 1)
    _check_seed("seed", seed)
    if L is None:
        return AssumptionReport(
            assumption_id="gradbound",
            verdict="inconclusive",
            worst_violation=0.0,
            witness=None,
            tolerance=tol,
        )
    _finite(L=L, tol=tol)
    if L <= 0.0:
        raise ContractViolation("L must be > 0")
    rng = np.random.default_rng(seed)
    pts = _uniform_box(rng, n_points, box, obj.dim)
    obj.check_domain(pts)
    scale = L ** (1.0 / alpha) * (1.0 + alpha) / alpha

    def block(rows: slice):
        phi = pts[rows]
        gsq = obj.grad_norm_batch(phi) ** 2
        bound = (scale * (obj.value_batch(phi) - obj.f_lb)) ** (2.0 * alpha / (1.0 + alpha))
        rel = (gsq - bound) / np.maximum(1.0, bound)
        return rel, lambda j: {
            "phi": phi[j].tolist(), "grad_norm_sq": float(gsq[j]), "bound": float(bound[j])}

    return _worst_point("gradbound", n_points, tol, block)


def _sample_sq_norms(oracle: StochasticOracle, theta: np.ndarray,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of ||sample||^2 at theta, one sample per row of the noise
    block, formed and squared _ROWS rows at a time.

    theta is contiguous, and its norm is the engine's sqrt(theta.dot(theta)),
    which the state-scaled kinds read; a strided theta would sum in another order.
    """
    noise = oracle.noise
    w = noise.draw(rng, n)
    sample = noise.sampler(oracle.objective.grad)
    nrm = math.sqrt(theta.dot(theta))
    if w is None:  # zero noise: every draw is the exact gradient
        g = sample(theta, nrm, None)
        return np.full(n, float(g @ g))
    sq = np.empty(n)
    for start in range(0, n, _ROWS):
        draws = sample(theta, nrm, w[start:start + _ROWS])
        sq[start:start + _ROWS] = np.einsum("ij,ij->i", draws, draws)
    return sq


@numeric_policy
def sample_gradient_norms(oracle: StochasticOracle, theta, rng: np.random.Generator,
                          n: int) -> np.ndarray:
    """n draws of ||sample|| at theta (input for the variance-control check)."""
    _check_int("n", n, 1)
    theta = np.ascontiguousarray(theta, dtype=float)  # at least 1-D
    oracle.objective.check_domain(theta)
    return np.sqrt(_sample_sq_norms(oracle, theta, rng, n))


@numeric_policy
def check_expected_smoothness(
    oracle: StochasticOracle,
    C1: float,
    C2: float,
    C3: float,
    n_points: int,
    n_draws: int,
    box: tuple[float, float],
    seed: int = 0,
) -> AssumptionReport:
    """Check the declared second-moment bound

        E||sample||^2 <= C1 + C2*(F - f_lb) + C3*||grad||^2

    empirically: at each sampled theta, the mean of n_draws squared sample
    norms must not exceed the bound plus a 4-sigma statistical margin.
    """
    _finite(C1=C1, C2=C2, C3=C3)
    if C1 < 0.0 or C2 < 0.0:
        raise ContractViolation("C1 and C2 must be >= 0")
    if C3 < 1.0:
        raise ContractViolation("C3 must be >= 1")
    _check_int("n_draws", n_draws, 2)
    _check_int("n_points", n_points, 1)
    _check_seed("seed", seed)
    obj = oracle.objective
    rng = np.random.default_rng(seed)
    pts = _uniform_box(rng, n_points, box, obj.dim)
    obj.check_domain(pts)

    m_hat = np.empty(n_points)
    se = np.empty(n_points)
    bound = np.empty(n_points)
    for i, theta in enumerate(pts):
        sq = _sample_sq_norms(oracle, theta, rng, n_draws)
        m_hat[i] = np.mean(sq)
        se[i] = np.std(sq, ddof=1) / np.sqrt(n_draws)
        g = obj.grad(theta)
        bound[i] = C1 + C2 * (obj.value(theta) - obj.f_lb) + C3 * float(g @ g)
    # 4-sigma statistical margin, then a relative slack for rounding.
    margin = m_hat - bound - 4.0 * se - 1e-12 * np.maximum(1.0, bound)

    def block(rows: slice):
        return margin[rows], lambda j: {
            "theta": pts[rows][j].tolist(), "empirical_second_moment": float(m_hat[rows][j]),
            "bound": float(bound[rows][j]), "stderr": float(se[rows][j])}

    return _worst_point("smoothness", n_points, 0.0, block)


@numeric_policy
def probe_radial_conditions(
    obj: Objective,
    G_fn: Callable[[np.ndarray], float],
    alpha: float,
    r: float,
    radii,
    b_threshold: float,
    seed: int = 0,
) -> RadialProbe:
    """Probe the gradient-energy / noise balance along the first axis.

    Verdicts are horizon-bound: satisfied-at-horizon means the ratio clears
    b_threshold at the largest probed radii, violated-at-horizon means it is
    decreasing and below the threshold there; no claim about the true limit.
    """
    radii = [float(x) for x in radii]
    _finite(r=r, b_threshold=b_threshold, radii=radii)
    _check_alpha(alpha)
    if len(radii) == 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ContractViolation("radii must be strictly increasing")
    if b_threshold <= 0.0:
        raise ContractViolation("b_threshold must be > 0")
    if any(rho < obj.r0 + r for rho in radii):
        raise ContractViolation(f"all radii must be >= r0 + r = {obj.r0 + r}")
    _check_seed("seed", seed)

    u = np.zeros(obj.dim)
    u[0] = 1.0
    records = []
    f_values = []
    for rho in radii:
        phi = rho * u
        g = obj.grad(phi)
        gns = float(g @ g)
        est = estimate_local_holder(obj, phi, r, alpha, PROBE_HOLDER_SAMPLES, seed=seed)
        l_r = est.value if est.value >= ZERO_CLAMP else 0.0
        g_val = float(G_fn(phi))
        g_val = g_val if g_val >= ZERO_CLAMP else 0.0
        denom = (l_r + (1.0 if l_r == 0.0 else 0.0)) * (
            g_val ** ((1.0 + alpha) / 2.0) + (1.0 if g_val == 0.0 else 0.0)
        )
        records.append(RadialRecord(
            radius=rho, grad_norm_sq=gns, L_r=l_r, G_value=g_val,
            ratio=gns / denom,
        ))
        f_values.append(obj.value(phi))

    diffs = np.diff(f_values)
    if len(diffs) and np.all(diffs > 0.0):
        a5 = "increasing-unbounded"
    elif len(diffs) and np.all(diffs <= 0.0) and np.any(diffs < 0.0):
        # exact-zero diffs tolerated: F may underflow to 0.0 along the ray
        a5 = "decreasing"
    else:
        a5 = "bounded"

    tail = records[-min(3, len(records)):]
    ratios = [rec.ratio for rec in tail]
    if all(x >= b_threshold for x in ratios):
        a6 = "satisfied-at-horizon"
    elif all(b < a for a, b in zip(ratios, ratios[1:])) and all(x < b_threshold for x in ratios):
        a6 = "violated-at-horizon"
    else:
        a6 = "inconclusive"

    return RadialProbe(
        radii=radii, records=records, alpha=alpha, r=r,
        b_threshold=b_threshold, a5_trend=a5, a6_verdict=a6,
    )


@numeric_policy
def find_eigenvalue_threshold(schedule: Schedule, C: float, alpha: float,
                              K_max: int) -> int | None:
    """Smallest K with lambda_max(M_k)^alpha * kappa(M_k) <= 1/C for all
    k in [K, K_max]; None when the condition never settles by K_max.

    The returned K is exactly the index from which the eigenvalue lower bound
    lambda_min - (C/2) lambda_max^(1+alpha) >= lambda_min/2 holds.  The
    block peaks of `Schedule.scan` find the top-most block that breaks it
    (a NaN peak, where lambda_max underflows to 0, breaks it), and only that
    block is read again for its last bad index.
    """
    _finite(C=C)
    _check_alpha(alpha)
    if C <= 0.0:
        raise ContractViolation("C must be > 0")
    _check_int("K_max", K_max, 1)
    target = 1.0 / C
    peaks = schedule.scan(K_max + 1, alpha)[1]
    bad = [i for i, peak in enumerate(peaks) if not peak <= target]
    if not bad:
        return 0
    start, h = schedule.peaks_of_block(bad[-1], K_max + 1, alpha)
    last_bad = start + int(np.nonzero(~(h <= target))[0][-1])
    return None if last_bad == K_max else last_bad + 1

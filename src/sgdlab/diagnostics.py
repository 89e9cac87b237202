"""Monte Carlo ensembles and the statistics that operationalize the theory.

Everything here is a finite-horizon surrogate of an asymptotic statement:
dichotomy verdicts are "-like", radial and capture verdicts are horizon
bound, and expectations are ensemble means with standard errors.  Ensembles
are deterministic functions of their spec: trajectory i always runs with
seed split(master_seed, i), and aggregation happens in fixed trajectory
order, so results do not depend on execution interleaving.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import Schedule, Trajectory, record_points, run_trajectory
from .errors import (ContractViolation, check_dim, check_finite, check_int, check_nonnegative,
                     check_positive, check_window, numeric_policy)
from .objectives import NoiseSpec, ObjectiveSpec, StochasticOracle, _norms


# Points of the grid that envelope_sup_over_ball maximizes over.
ENVELOPE_GRID = 8193
# The per-checkpoint columns of a ConvergenceReport: each series is reduced
# to each statistic (se is the standard error of the mean), in this order, as
# the column f"{series}_{statistic}".
SERIES = ("f_gap", "grad_norm", "grad_norm_sq")
STATISTICS = ("mean", "se", "median", "q25", "q75")


@numeric_policy
def split_seed(master_seed: int, index: int) -> int:
    """Hash-split the master seed: trajectory seeds are reproducible and do
    not change when the ensemble is extended."""
    check_int("master_seed", master_seed)
    check_int("index", index)
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for an ensemble of independent trajectories."""

    objective: ObjectiveSpec
    noise: NoiseSpec
    schedule: Schedule
    theta0: tuple[float, ...]
    horizon: int
    n_trajectories: int
    master_seed: int
    record_stride: int = 1

    def __post_init__(self):
        for name in ("horizon", "n_trajectories", "record_stride"):
            check_int(name, getattr(self, name), 1)
        check_dim("schedule", self.schedule.dim, self.objective.dimension)
        check_dim("theta0", self.theta0, self.objective.dimension)
        check_finite(theta0=self.theta0)
        check_int("master_seed", self.master_seed)

    def build(self) -> StochasticOracle:
        obj = self.objective.build()
        return StochasticOracle(obj, self.noise.build(obj.dim))

    @property
    def ids(self) -> dict[str, str]:
        """The labels that name the objective, noise and schedule in reports."""
        return {"objective_id": self.objective.label, "noise_id": self.noise.label,
                "schedule_id": self.schedule.label}

    def checkpoints(self) -> np.ndarray:
        return record_points(self.horizon, self.record_stride)


def _check_ball(theta_bar, R, dim: int, prefix: str = "") -> None:
    """Raise ContractViolation, its message led by prefix, unless theta_bar
    is a finite point of dimension dim and R is finite and >= 0."""
    check_dim(f"{prefix}theta_bar", theta_bar, dim)
    check_finite(**{f"{prefix}theta_bar": theta_bar})
    check_nonnegative(**{f"{prefix}R": R})


@dataclass(frozen=True)
class CaptureConfig:
    """Ball and jump size for escape-event tracking."""

    theta_bar: tuple[float, ...]
    R: float
    epsilon: float

    def check(self, dim: int) -> None:
        """Raise ContractViolation unless the ball passes _check_ball and
        epsilon is finite and > 0 with a finite epsilon**-2, the factor of
        the capture tail bound."""
        _check_ball(self.theta_bar, self.R, dim, "capture ")
        check_positive(**{"capture epsilon": self.epsilon})
        try:
            float(self.epsilon) ** -2
        except OverflowError:  # Python's float power, epsilon below about 1.5e-154
            raise ContractViolation(
                f"capture epsilon must have a finite epsilon**-2, got {self.epsilon!r}") from None


@dataclass
class DichotomyClassification:
    """Finite-horizon verdict on the iterate norms over the final window.

    truncated: the run left the domain, or stopped (overflow included)
    before its window held W iterates, so it shows neither outcome; the
    evidence is its last recorded step (last_k) and no window is read.
    Otherwise converged-like: window range < epsilon_conv and window max <
    R_div, for a run that did not overflow; diverging-like: window min >
    R_div; anything else is undecided, and the evidence carries the window
    range and window min that the rules used.  An overflowed run with a full
    window is therefore diverging-like or undecided, never converged-like:
    its window ends where the iterates left float range.
    """

    verdict: str
    window_length: int
    epsilon_conv: float
    R_div: float
    evidence: dict


@dataclass
class ConvergenceReport:
    """Per-checkpoint ensemble statistics of F - f_lb and the gradient norm.

    Statistics at checkpoint k are taken over the trajectories still running
    at step k (n_alive); the columns from f_gap_mean to grad_norm_sq_q75 are
    the SERIES x STATISTICS columns, in that order.  sup_mean_f estimates
    sup_k E[F(theta_k) - f_lb]; final_decade_slope is the least-squares slope
    of log mean gradient norm against log k over the last decade of
    checkpoints.
    """

    ks: list[int]
    n_alive: list[int]
    f_gap_mean: list[float]
    f_gap_se: list[float]
    f_gap_median: list[float]
    f_gap_q25: list[float]
    f_gap_q75: list[float]
    grad_norm_mean: list[float]
    grad_norm_se: list[float]
    grad_norm_median: list[float]
    grad_norm_q25: list[float]
    grad_norm_q75: list[float]
    grad_norm_sq_mean: list[float]
    grad_norm_sq_se: list[float]
    grad_norm_sq_median: list[float]
    grad_norm_sq_q25: list[float]
    grad_norm_sq_q75: list[float]
    f_lim_estimates: list[float]
    sup_mean_f: float
    sup_mean_f_k: int
    sup_mean_f_se: float
    gamma_moments: dict[float, list[float]] | None
    final_decade_slope: float | None
    escape_total: int | None = None


@dataclass
class CaptureReport:
    """Escape frequencies against the step-size tail bound.

    empirical[k] is the fraction of trajectories with ||theta_k - theta_bar||
    <= R and ||theta_{k+1} - theta_bar|| >= R + epsilon; theoretical_tail[k]
    is epsilon^-2 * lambda_max(M_k)^2 * G_R with G_R the grid maximum of the
    declared envelope over the ball.  bound_margin_max is the largest value
    of empirical - tail - 4 * binomial stderr over all k (<= 0 means the
    per-step bound held everywhere).
    """

    theta_bar: tuple[float, ...]
    R: float
    epsilon: float
    G_R: float
    n_trajectories: int
    n_steps: int
    escape_counts: dict[int, int]
    empirical: np.ndarray = field(repr=False)
    theoretical_tail: np.ndarray = field(repr=False)
    empirical_sum: float = 0.0
    theoretical_sum: float = 0.0
    total_escapes: int = 0
    bound_margin_max: float = 0.0


@dataclass
class EnsembleResult:
    """Everything run_ensemble produces, in fixed trajectory order."""

    spec: EnsembleSpec
    convergence: ConvergenceReport
    classifications: list[DichotomyClassification]
    capture: CaptureReport | None
    n_overflow: int
    n_domain_violation: int
    seeds: list[int]
    last_ks: list[int]  # a trajectory with last_k < horizon was truncated


@dataclass
class StoppingTimes:
    """Indices where F first exceeds its value at the previous stopping time
    by more than 1, starting from tau_0 = 0.

    complete is True when the final recorded step is itself a stopping time
    (the sequence filled the horizon); it is False when the horizon ended
    while scanning for the next crossing.  tau_geq_k records whether
    tau_k >= k held for every recorded k.
    """

    taus: list[int]
    complete: bool
    tau_geq_k: bool


# ---------------------------------------------------------------------------
# dichotomy classification
# ---------------------------------------------------------------------------

def default_window(horizon: int) -> int:
    return max(1, horizon // 10)


def default_epsilon_conv(theta0) -> float:
    return 1e-3 * (1.0 + float(np.linalg.norm(theta0)))


def default_r_div(theta0) -> float:
    return 1e3 * (1.0 + float(np.linalg.norm(theta0)))


@numeric_policy
def classify_dichotomy(traj: Trajectory, W: int, epsilon_conv: float,
                       R_div: float) -> DichotomyClassification:
    """Classify a trajectory from its per-step norms over its final W steps."""
    check_window(W, traj.horizon)
    check_positive(epsilon_conv=epsilon_conv, R_div=R_div)
    if traj.domain_violation or traj.last_k + 1 < W:
        return DichotomyClassification(
            verdict="truncated", window_length=W, epsilon_conv=epsilon_conv, R_div=R_div,
            evidence={"last_k": traj.last_k})
    window = traj.norms(W)
    wmin = float(window.min())
    wmax = float(window.max())
    wrange = wmax - wmin
    if wrange < epsilon_conv and wmax < R_div and not traj.overflow:
        verdict = "converged-like"
    elif wmin > R_div:
        verdict = "diverging-like"
    else:
        verdict = "undecided"
    return DichotomyClassification(
        verdict=verdict,
        window_length=W,
        epsilon_conv=epsilon_conv,
        R_div=R_div,
        evidence={"window_range": wrange, "window_min": wmin},
    )


# ---------------------------------------------------------------------------
# block worker
# ---------------------------------------------------------------------------

def run_member(spec: EnsembleSpec, oracle: StochasticOracle, index: int) -> Trajectory:
    """Trajectory `index` of the ensemble: run_trajectory from theta0 with the
    seed split_seed(master_seed, index).  oracle is spec.build(), which a
    caller running several trajectories builds once."""
    seed = split_seed(spec.master_seed, index)
    return run_trajectory(oracle, spec.schedule, spec.theta0, spec.horizon, seed,
                          spec.record_stride)


@numeric_policy
def _run_block(spec: EnsembleSpec, indices: range, W: int, epsilon_conv: float,
               R_div: float, capture: CaptureConfig | None):
    """Run the trajectories `indices` of the ensemble and reduce them in order.

    Returns the block's f_gap and grad_norm rows on spec.checkpoints() (NaN
    past each run's last record on the grid), its escape counts per step (None
    without capture) and one (classification, f_lim estimate, overflow,
    domain_violation, last_k, seed) tuple per trajectory.
    """
    oracle = spec.build()
    f_lb = oracle.objective.f_lb
    cps = spec.checkpoints()
    f_gap = np.full((len(indices), len(cps)), np.nan)
    grad_norm = np.full_like(f_gap, np.nan)
    counts = None if capture is None else np.zeros(spec.horizon, dtype=np.int64)
    theta_bar = None if capture is None else np.asarray(capture.theta_bar, dtype=float)
    rows = []
    for row, index in enumerate(indices):
        traj = run_member(spec, oracle, index)
        # The run's records are the first n checkpoints: both grids are
        # record_points with one stride, and the run's grid stops at its
        # last_k, which a truncated run may reach off the stride grid.
        n = int(np.searchsorted(cps, traj.last_k, side="right"))
        f_gap[row, :n] = traj.f_values[:n] - f_lb
        grad_norm[row, :n] = traj.grad_norms[:n]
        if capture is not None:
            dist = _norms(traj.trace - theta_bar)
            counts[:traj.last_k] += ((dist[:-1] <= capture.R)
                                     & (dist[1:] >= capture.R + capture.epsilon))
        tail = traj.f_values[traj.ks > traj.last_k - W]
        f_lim = float(np.add.reduce(tail) / len(tail))  # np.mean's own sum and divide
        rows.append((classify_dichotomy(traj, W, epsilon_conv, R_div), f_lim,
                     traj.overflow, traj.domain_violation, traj.last_k, traj.seed))
    return f_gap, grad_norm, counts, rows


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _linear_quantile(s: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(s, q, axis=1) of rows s sorted along axis 1, in numpy's
    own 'linear' (Hyndman-Fan 7) arithmetic: its virtual index with
    alpha = beta = 1, both neighbours the last entry from index n - 1 on,
    and its two-sided lerp."""
    n, alpha, beta = s.shape[1], 1, 1
    vi = n * q + (alpha + q * (1 - alpha - beta)) - 1
    prev = -1 if vi >= n - 1 else math.floor(vi)
    t = vi - prev
    a, b = s[:, prev], s[:, prev + 1 if prev >= 0 else -1]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _column_stats(matrix: np.ndarray):
    """n_alive and the per-column STATISTICS, ignoring NaN entries.

    Each run of neighbouring columns with the same alive (non-NaN) rows is
    reduced along the rows of a contiguous transpose, which gives the bits
    of the per-column calls; NaN suffixes make at most n_rows + 1 runs.
    One np.sort of the run gives the median (np.median's mean of the middle
    pair or element) and both quartiles (_linear_quantile).  A -0.0 beside
    a +0.0 may sort to the other side of it than under np.quantile's
    partition; no report series holds -0.0 (F - f_lb, norms, their squares
    and powers of max(f_gap, 0.0) are >= +0.0 or nonzero).
    """
    alive = ~np.isnan(matrix)
    n_alive = alive.sum(axis=0)
    stats = np.full((len(STATISTICS), matrix.shape[1]), np.nan)
    edges = np.nonzero((alive[:, 1:] != alive[:, :-1]).any(axis=0))[0] + 1
    for lo, hi in zip([0, *edges], [*edges, matrix.shape[1]]):
        n = int(n_alive[lo])
        if n:
            rows = np.ascontiguousarray(matrix[alive[:, lo], lo:hi].T)
            mean, se, med, q25, q75 = stats[:, lo:hi]
            mean[:] = np.mean(rows, axis=1)
            se[:] = np.std(rows, axis=1, ddof=1) / np.sqrt(n) if n > 1 else 0.0
            s = np.sort(rows, axis=1)
            h = n // 2
            med[:] = s[:, h] if n % 2 else (s[:, h - 1] + s[:, h]) / 2
            q25[:], q75[:] = _linear_quantile(s, 0.25), _linear_quantile(s, 0.75)
    return (n_alive, *stats)


def _check_gammas(gammas) -> None:
    if gammas is not None and not all(0.0 <= gamma < 1.0 for gamma in gammas):
        raise ContractViolation("gamma moments require gamma in [0, 1)")


@numeric_policy
def gradient_convergence_stats(
    ks: np.ndarray,
    f_gap: np.ndarray,
    grad_norm: np.ndarray,
    f_lim_estimates: list[float],
    gammas: list[float] | None = None,
) -> ConvergenceReport:
    """Aggregate per-checkpoint ensemble statistics.

    ks are the checkpoint indices; f_gap and grad_norm are
    (n_trajectories, n_checkpoints) matrices with NaN marking steps past a
    trajectory's truncation point.
    """
    ks = np.asarray(ks)
    shape = np.shape(f_gap)
    for name, got, want in (("ks", ks.shape, shape[1:]), ("grad_norm", np.shape(grad_norm), shape),
                            ("f_lim_estimates", np.shape(f_lim_estimates), shape[:1])):
        if got != want:
            raise ContractViolation(f"{name} must have shape {want} beside f_gap, got {got}")
    _check_gammas(gammas)
    # An overflowed run's inf or NaN entries give inf or NaN statistics (a
    # null se in the report).
    series = [f_gap, grad_norm, grad_norm ** 2]
    for gamma in gammas or ():
        powed = np.maximum(f_gap, 0.0) ** gamma
        powed[np.isnan(f_gap)] = np.nan
        series.append(powed)
    # One _column_stats call for every series: stacked checkpoint-major
    # (column j * S + s is series s at checkpoint j), so one run of
    # same-alive columns covers them all, and each column keeps its bits.
    S = len(series)
    stacked = np.empty((f_gap.shape[0], f_gap.shape[1] * S))
    for s, matrix in enumerate(series):
        stacked[:, s::S] = matrix
    n_alive, *stats = _column_stats(stacked)
    columns = {f"{name}_{stat}": values[s::S]
               for s, name in enumerate(SERIES) for stat, values in zip(STATISTICS, stats)}
    gamma_moments = None if gammas is None else {
        gamma: stats[0][s::S].tolist() for s, gamma in enumerate(gammas, len(SERIES))}
    n_alive = n_alive[::S]  # of f_gap
    fg_mean = columns["f_gap_mean"]
    valid = ~np.isnan(fg_mean)
    if np.any(valid):
        sup_idx = int(np.nanargmax(fg_mean))
        sup_mean_f = float(fg_mean[sup_idx])
        sup_k = int(ks[sup_idx])
        sup_se = float(columns["f_gap_se"][sup_idx])
    else:  # pragma: no cover - all trajectories dead at every checkpoint
        sup_mean_f, sup_k, sup_se = float("nan"), -1, float("nan")

    slope = None
    gn_mean = columns["grad_norm_mean"]
    k_hi = int(ks[-1])
    sel = (ks >= max(1, k_hi // 10)) & (ks >= 1) & ~np.isnan(gn_mean) & (gn_mean > 0.0)
    if np.sum(sel) >= 2:
        x = np.log(ks[sel].astype(float))
        y = np.log(gn_mean[sel])
        slope = float(np.polyfit(x, y, 1)[0])

    return ConvergenceReport(
        ks=[int(k) for k in ks],
        n_alive=n_alive.tolist(),
        **{name: values.tolist() for name, values in columns.items()},
        f_lim_estimates=[float(x) for x in f_lim_estimates],
        sup_mean_f=sup_mean_f,
        sup_mean_f_k=sup_k,
        sup_mean_f_se=sup_se,
        gamma_moments=gamma_moments,
        final_decade_slope=slope,
    )


@numeric_policy
def envelope_sup_over_ball(spec: EnsembleSpec, theta_bar, R: float) -> float:
    """Grid maximization of the declared envelope G over the closed ball.

    Exact up to grid resolution for 1-D problems; radial problems reduce to a
    1-D sweep over the norm range covered by the ball.  The grid is clipped
    to the objective's domain.
    """
    oracle = spec.build()
    obj = oracle.objective
    noise = oracle.noise
    tb = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    _check_ball(tb.tolist(), R, obj.dim)
    if obj.dim == 1:
        lo, hi = tb[0] - R, tb[0] + R
        xs = np.linspace(lo, hi, ENVELOPE_GRID)
        if obj.r0 > 0.0:
            xs = xs[np.abs(xs) >= obj.r0]
            if xs.size == 0:
                raise ContractViolation("ball lies entirely inside the forbidden region")
        pts = xs[:, None]
    elif obj.radial and noise.kind == "additive-gaussian-statedep":
        raise ContractViolation(
            f"envelope maximization does not support additive-gaussian-statedep noise "
            f"on the radial objective {obj.id!r} at p = {obj.dim} (only in 1-D)"
        )
    elif obj.radial:
        nb = float(np.linalg.norm(tb))
        lo = max(obj.r0, max(0.0, nb - R))
        hi = nb + R
        rhos = np.linspace(lo, hi, ENVELOPE_GRID)
        pts = np.zeros((len(rhos), obj.dim))
        pts[:, 0] = rhos
    else:
        raise ContractViolation(
            "envelope maximization supports 1-D problems and radial objectives"
        )
    g_vals = noise.envelope_batch(obj, pts)
    return float(np.max(g_vals))


@numeric_policy
def run_ensemble(
    spec: EnsembleSpec,
    *,
    W: int | None = None,
    epsilon_conv: float | None = None,
    R_div: float | None = None,
    gammas: list[float] | None = None,
    capture: CaptureConfig | None = None,
    jobs: int = 1,
) -> EnsembleResult:
    """Run the ensemble and aggregate convergence statistics, dichotomy
    classifications, and (optionally) capture/escape tallies.

    Deterministic given the spec: identical specs yield identical results,
    independent of the jobs level.
    """
    W = default_window(spec.horizon) if W is None else W
    epsilon_conv = default_epsilon_conv(spec.theta0) if epsilon_conv is None else float(epsilon_conv)
    R_div = default_r_div(spec.theta0) if R_div is None else float(R_div)
    # Before any trajectory runs: a bad window, verdict constant or gamma, or
    # a capture block the envelope cannot handle, is a config error that
    # should cost nothing.
    check_window(W, spec.horizon)
    check_positive(epsilon_conv=epsilon_conv, R_div=R_div)
    check_int("jobs", jobs, 1)
    _check_gammas(gammas)
    g_r = None
    if capture is not None:
        capture.check(spec.objective.dimension)
        g_r = envelope_sup_over_ball(spec, capture.theta_bar, capture.R)

    # Contiguous blocks by one rule for every jobs level; at most one worker
    # per CPU and per block starts.  The results depend on neither.
    n = spec.n_trajectories
    size = max(1, n // (4 * jobs))
    blocks = [range(lo, min(lo + size, n)) for lo in range(0, n, size)]
    work = partial(_run_block, spec, W=W, epsilon_conv=epsilon_conv, R_div=R_div,
                   capture=capture)
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: a run that starts no pool loads neither
        # concurrent.futures nor multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, blocks))
    else:
        parts = list(map(work, blocks))
    f_gaps, grad_norms, block_counts, block_rows = zip(*parts)
    classifications, f_lims, overflows, domain_violations, last_ks, seeds = zip(
        *(r for rows in block_rows for r in rows))

    report = gradient_convergence_stats(
        spec.checkpoints(), np.concatenate(f_gaps), np.concatenate(grad_norms), f_lims,
        gammas=gammas)

    capture_report = None
    if capture is not None:
        counts = sum(block_counts)
        empirical = counts / n
        lmax = spec.schedule.bounds(spec.horizon)
        tail = (capture.epsilon ** -2) * lmax ** 2 * g_r
        se = np.sqrt(empirical * (1.0 - empirical) / n)
        margin = empirical - tail - 4.0 * se
        nonzero = np.nonzero(counts)[0]
        capture_report = CaptureReport(
            theta_bar=tuple(float(x) for x in capture.theta_bar),
            R=capture.R,
            epsilon=capture.epsilon,
            G_R=g_r,
            n_trajectories=n,
            n_steps=spec.horizon,
            escape_counts={int(k): int(counts[k]) for k in nonzero},
            empirical=empirical,
            theoretical_tail=tail,
            empirical_sum=float(np.sum(empirical)),
            theoretical_sum=float(np.sum(tail)),
            total_escapes=int(np.sum(counts)),
            bound_margin_max=float(np.max(margin)) if len(margin) else 0.0,
        )
        report.escape_total = capture_report.total_escapes

    return EnsembleResult(
        spec=spec,
        convergence=report,
        classifications=list(classifications),
        capture=capture_report,
        n_overflow=sum(overflows),
        n_domain_violation=sum(domain_violations),
        seeds=list(seeds),
        last_ks=list(last_ks),
    )


@numeric_policy
def compute_stopping_times(traj: Trajectory) -> StoppingTimes:
    """Scan the recorded objective values for +1 threshold crossings.

    Requires every step recorded (stride 1): the crossing indices are exact
    step indices, not checkpoint positions.
    """
    if traj.record_stride != 1:
        raise ContractViolation("stopping times need record_stride == 1")
    f = traj.f_values
    taus = [0]
    current = float(f[0])
    for j in range(1, len(f)):
        if f[j] > current + 1.0:
            taus.append(j)
            current = float(f[j])
    complete = len(taus) > 1 and taus[-1] == len(f) - 1
    tau_geq_k = all(t >= i for i, t in enumerate(taus))
    return StoppingTimes(taus=taus, complete=complete, tau_geq_k=tau_geq_k)

"""SGD recursion with matrix-valued learning rates and power-law schedules.

The update is theta_{k+1} = theta_k - M_k * sample_k where sample_k is one
stochastic-gradient draw and M_k is a symmetric positive-definite matrix
emitted by a schedule.  Schedules are (rotated) diagonal power laws with
eigenvalues d_i(k) = c_i * (k + k0)^(-beta_i), so the eigenvalue bounds
lambda_min/lambda_max/kappa are exact and the step-size summability tests
reduce to exponent comparisons.

beta_i = 0 is allowed (constant eigenvalue); the summability tests stay exact
for that case and it is needed to express constant step sizes.
"""

from __future__ import annotations

import math
import numbers
import operator
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Literal

import numpy as np

from .errors import (ContractViolation, check_alpha, check_dim, check_finite, check_int,
                     check_nonnegative, check_positive, numeric_policy)
from .objectives import OVERFLOW_CAP, StochasticOracle, _frozen_copy, _norms, _set_frozen_state

# Iterates at or beyond this magnitude are treated as numeric overflow;
# squared norms then still fit in a float64.
THETA_CAP = 1e150

ORTHO_TOL = 1e-10

# The block size of the lambda_max table and of the schedule scans.
_CHUNK = 65536

# The least and the most steps of a block of _drive's step grid.
_FIRST_BLOCK = 64
_BLOCK = 4096

# Below this dimension the p > 1 step of a state-scaled noise kind forms its
# stochastic gradient on Python floats (Objective.grad_plus), from it up with
# length-p numpy calls: the float form's cost grows with p, the array form's
# barely.  A rotated rectifier step with state-dependent noise took 6.5 / 6.6
# us (float / array) at p = 7, 6.7 / 6.7 at p = 8 and 7.8 / 7.3 at p = 12 on
# a 2-vCPU host.
_FLOAT_P = 8

# The kinds whose noise term scales with theta, which the float form serves
# (1.05-1.35x faster than the array form); zero and additive noise step the
# array form at every p.
STATE_SCALED_KINDS = ("rademacher-radial", "additive-gaussian-statedep")

Verdict = Literal["pass", "fail", "inconclusive"]

POWER_FAMILIES = ("scalar-power", "diagonal-power", "rotated-diagonal-power")


def _as_vector(x, dim: int, name: str) -> np.ndarray:
    """x, or a single number repeated, as a read-only finite float copy of shape (dim,)."""
    single = isinstance(x, numbers.Number) or getattr(x, "ndim", None) == 0
    if not single:
        check_dim(name, x, dim)  # before any conversion: numpy cannot convert a ragged x
    check_finite(**{name: x})
    return _frozen_copy(np.full(dim, x, dtype=float) if single else x)


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    """Deterministic random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q


@dataclass(frozen=True)
class Schedule:
    """Power-law learning-rate schedule d_i(k) = c_i * (k + k0)^(-beta_i).

    k0 >= 1 keeps k = 0 well defined.  The rotated family conjugates the
    diagonal by a fixed orthogonal factor built from rotation_seed (or given
    explicitly), which changes eigenvectors but not eigenvalues.  No seed
    means seed 0, and is recorded as 0.  An explicit factor sets rotation_seed
    to None, and the label names it by the first 12 hex digits of the sha256
    of its bytes (`rot=q:<hex>`).  A frozen value: c, beta and q are its own
    read-only copies.
    """

    family: str
    c: np.ndarray
    beta: np.ndarray
    k0: float
    dim: int
    rotation_seed: int | None = None
    q: np.ndarray | None = None
    # bounds' lambda_max table and _scan's ((n, alpha), P2 terms, Lemma-4 peaks)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    __setstate__ = _set_frozen_state

    def __getstate__(self):  # not the memo: its table would come back writeable
        return {**self.__dict__, "_memo": {}}

    @numeric_policy
    def __post_init__(self):
        if self.family not in POWER_FAMILIES:
            raise ContractViolation(f"unknown schedule family {self.family!r}")
        for name in ("c", "beta"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), self.dim, name))
        check_positive(c=self.c.tolist())
        check_finite(k0=self.k0)
        check_nonnegative(beta=self.beta.tolist())
        if self.k0 < 1.0:
            raise ContractViolation("offset k0 must be >= 1")
        if self.family == "scalar-power":
            if not (np.all(self.c == self.c[0]) and np.all(self.beta == self.beta[0])):
                raise ContractViolation("scalar-power requires one (c, beta) pair")
        if self.family == "rotated-diagonal-power":
            seed, q = None, self.q  # an explicit factor: no seed produced it
            if q is None:  # seed 0 builds it when none is given, so seed 0 names it
                seed = 0 if self.rotation_seed is None else self.rotation_seed
                check_int("rotation_seed", seed)
                q = random_orthogonal(self.dim, int(seed))
            # C order: the label hashes these bytes, and the gemvs of a step
            # sum in the order of q's layout, so one layout for one label
            q = _frozen_copy(q)
            if q.shape != (self.dim, self.dim):
                raise ContractViolation(
                    f"orthogonal factor must have shape ({self.dim}, {self.dim}), "
                    f"got {q.shape}")
            err = float(np.max(np.abs(q.T @ q - np.eye(self.dim))))
            if not err <= ORTHO_TOL:
                raise ContractViolation(f"factor is not orthogonal (|Q^T Q - I| = {err:g})")
            object.__setattr__(self, "rotation_seed", seed)
            object.__setattr__(self, "q", q)
        elif self.q is not None:
            raise ContractViolation(f"{self.family} does not take an orthogonal factor")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(c: float, beta: float, k0: float = 1.0, dim: int = 1) -> "Schedule":
        return Schedule("scalar-power", c, beta, k0, dim)

    @staticmethod
    def diagonal(c, beta, k0: float = 1.0) -> "Schedule":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return Schedule("diagonal-power", c, beta, k0, len(c))

    @staticmethod
    def rotated(c, beta, k0: float = 1.0, rotation_seed: int = 0, q=None) -> "Schedule":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return Schedule("rotated-diagonal-power", c, beta, k0, len(c),
                        rotation_seed=rotation_seed, q=q)

    # -- evaluation ---------------------------------------------------------

    @property
    def label(self) -> str:
        c = ",".join(f"{v:g}" for v in self.c)
        b = ",".join(f"{v:g}" for v in self.beta)
        extra = "" if self.q is None else f",rot={self.rotation_seed}"  # rotated family
        if self.q is not None and self.rotation_seed is None:  # an explicit factor
            import hashlib  # here, not at the top: it adds ~7 ms to every CLI start

            extra = ",rot=q:" + hashlib.sha256(self.q.tobytes()).hexdigest()[:12]
        return f"{self.family}(c={c},beta={b},k0={self.k0:g},p={self.dim}{extra})"

    @numeric_policy
    def eigenvalues(self, ks, out=None) -> np.ndarray:
        """d_i(k) = c_i * (k + k0)^(-beta_i) at each step index in ks, shape (n, p),
        into out when given (an (n, p) float array), else into a new array.

        The one definition of the step sizes: the p > 1 steps read it
        directly, the rest through the walk `_blocks`, which passes it each
        block's buffer as out (`bounds`: the 1-D steps and the capture tail;
        `_peaks`: the P2 sum and the Lemma-4 threshold).
        """
        ks = np.asarray(ks, dtype=float)
        d = np.add(ks[:, None], self.k0, out=np.empty((len(ks), self.dim)) if out is None else out)
        np.power(d, -self.beta[None, :], out=d)
        return np.multiply(self.c, d, out=d)

    @numeric_policy
    def bounds(self, n: int) -> np.ndarray:
        """lambda_max of M_k for k = 0..n-1, as a read-only array: the row max
        of each block of the walk, kept on the schedule (8 bytes per index);
        a later call with n no larger returns a prefix of it."""
        table = self._memo.get("bounds")
        if table is None or len(table) < n:
            table = np.empty(n)
            for start, d in self._blocks(n):
                d.max(axis=1, out=table[start:start + len(d)])
            table.flags.writeable = False
            self._memo["bounds"] = table
        return table[:n]

    @numeric_policy
    def last_peak_above(self, t: float, n: int, alpha: float) -> int | None:
        """The last k < n whose lambda_max^alpha * kappa is not <= t (NaN is
        not), or None: the block peaks of `_scan` find the top-most block
        that breaks t, and only that block is read again."""
        bad = [i for i, peak in enumerate(self._scan(n, alpha)[1]) if not peak <= t]
        if not bad:
            return None
        start, _, h = next(self._peaks(n, alpha, bad[-1]))
        return start + int(np.flatnonzero(~(h <= t))[-1])

    def _blocks(self, n: int, first: int = 0):
        """Yield (start, eigenvalues) for each 0-anchored _CHUNK block of
        k = 0..n-1 from block `first` on: the one walk over the step sizes,
        into one block buffer from one index buffer shifted per block (exact
        below 2**53, as np.arange is), so each block holds until the next
        (fresh 512 KB temporaries per block ran 2,000,000 p = 1 indices in
        18 ms, not 14.5, on 2 vCPUs)."""
        m = min(n - first * _CHUNK, _CHUNK)
        base, ks, block = np.arange(m, dtype=float), np.empty(m), np.empty((m, self.dim))
        for start in range(first * _CHUNK, n, _CHUNK):
            j = min(n - start, _CHUNK)
            yield start, self.eigenvalues(np.add(base[:j], start, out=ks[:j]), out=block[:j])

    def _peaks(self, n: int, alpha: float, first: int = 0):
        """Yield (start, lambda_max, lambda_max^alpha * kappa) per block of
        the walk, `**` skipped at alpha = 1, where numpy's fast path copies.
        p > 1 takes the row max, min and kappa into two buffers per pass.
        p = 1 takes no kappa (1, or NaN where lambda_max underflows to 0)
        and no buffer: two per pass cost check-suite 2-9% of its wall time."""
        m = min(n - first * _CHUNK, _CHUNK)
        rows = None if self.dim == 1 else (np.empty(m), np.empty(m))
        for start, d in self._blocks(n, first):
            if rows is None:
                lmax = d[:, 0]
                h = lmax if alpha == 1.0 else lmax ** alpha
                h = h if lmax.all() else np.where(lmax == 0.0, math.nan, h)
            else:
                lmax = d.max(axis=1, out=rows[0][:len(d)])
                kappa = np.divide(lmax, d.min(axis=1, out=rows[1][:len(d)]), out=rows[1][:len(d)])
                h = np.multiply(lmax if alpha == 1.0 else lmax ** alpha, kappa, out=kappa)
            yield start, lmax, h

    def _scan(self, n: int, alpha: float) -> tuple[list[float], list[float]]:
        """The P2 term sum(lambda_max^(1+alpha)) and the Lemma-4 peak of each
        block of k = 0..n-1 from one streamed pass (`_peaks`), kept for the
        last (n, alpha), so the two scans of a `check` share the pass."""
        if self._memo.get("scan", ((),))[0] != (n, alpha):
            terms, peaks = [], []
            for _, lmax, h in self._peaks(n, alpha):
                terms.append(float(np.sum(lmax ** (1.0 + alpha))))
                peaks.append(float(np.max(h)))
            self._memo["scan"] = ((n, alpha), terms, peaks)
        return self._memo["scan"][1:]


@dataclass
class ScheduleReport:
    """Verdicts for the step-size summability and conditioning requirements.

    Every verdict is analytic (an exponent comparison of the power law);
    p2_partial_sum is the finite-horizon sum of lambda_max^(1+alpha), i.e. a
    lower estimate of its limit S.
    """

    alpha: float
    p2_partial_sum: float
    p2_verdict: Verdict
    p3_verdict: Verdict
    p4_verdict: Verdict
    analytic_basis: str
    horizon_used: int


@numeric_policy
def validate_schedule(schedule: Schedule, alpha: float, horizon: int) -> ScheduleReport:
    """Check the schedule against the three eigenvalue-sequence requirements.

    P2: sum_k lambda_max(M_k)^(1+alpha) finite  <=>  min(beta)*(1+alpha) > 1.
    P3: sum_k lambda_min(M_k) infinite          <=>  max(beta) <= 1.
    P4: lambda_max(M_k)^alpha * kappa(M_k) -> 0 <=>  max(beta) < (1+alpha)*min(beta).

    The partial sum is accumulated to the horizon: the block terms of
    `Schedule._scan`, added in block order.
    """
    check_alpha("alpha", alpha)
    check_int("horizon", horizon, 1)

    total = 0.0
    for term in schedule._scan(horizon + 1, alpha)[0]:  # not sum(): from Python 3.12 it compensates
        total += term

    bmin = float(np.min(schedule.beta))
    bmax = float(np.max(schedule.beta))
    p2 = "pass" if bmin * (1.0 + alpha) > 1.0 else "fail"
    p3 = "pass" if bmax <= 1.0 else "fail"
    p4 = "pass" if bmax < (1.0 + alpha) * bmin else "fail"
    basis = (
        "power-family exponent tests: "
        f"P2 iff min(beta)*(1+alpha) > 1 [{bmin * (1 + alpha):g} vs 1]; "
        f"P3 iff max(beta) <= 1 [{bmax:g}]; "
        f"P4 iff max(beta) < (1+alpha)*min(beta) [{bmax:g} vs {(1 + alpha) * bmin:g}]"
    )

    return ScheduleReport(
        alpha=alpha,
        p2_partial_sum=total,
        p2_verdict=p2,
        p3_verdict=p3,
        p4_verdict=p4,
        analytic_basis=basis,
        horizon_used=horizon,
    )


def record_points(last: int, stride: int) -> np.ndarray:
    """The record grid 0, s, 2s, ... up to last, plus last itself."""
    points = np.arange(0, last + 1, stride)
    return points if points[-1] == last else np.append(points, last)


@dataclass
class Trajectory:
    """A recorded SGD run: the iterate trace and F and the gradient norm on its grid.

    trace holds every iterate 0..last_k as a (last_k + 1, p) array; F and the
    gradient norm are recorded at the stride points ks (record_points).  A run
    that overflows, or whose next iterate leaves the domain, is truncated at
    its last good iterate and flagged rather than raised: divergence and a
    domain exit are outcomes.  violation_theta is the iterate that left.
    """

    ks: np.ndarray
    trace: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    seed: int
    horizon: int
    record_stride: int = 1
    overflow: bool = False
    violation_theta: np.ndarray | None = None

    @property
    def thetas(self) -> np.ndarray:
        return self.trace[self.ks]

    @property
    def last_k(self) -> int:
        return int(self.ks[-1])

    @property
    def truncated(self) -> bool:
        return self.last_k < self.horizon

    @property
    def domain_violation(self) -> bool:
        return self.violation_theta is not None

    def norms(self, W: int | None = None) -> np.ndarray:
        """||theta_k|| for k = 0..last_k, or for its last W >= 1 iterates only:
        |theta| in 1-D, row norms for p > 1 (each row's bits do not depend
        on the rows beside it)."""
        trace = self.trace
        if W is not None:
            check_int("W", W, 1)  # trace[-0:] is the whole trace
            trace = trace[-W:]
        if trace.shape[1] == 1:
            return np.abs(trace[:, 0])
        return _norms(trace)


def _drive(step, x0, K: int, noise, rng):
    """Run a block stepper for K steps from x0; returns (trace over 0..last,
    overflow, the iterate that left the domain or None).

    The one step grid: a block is as long as the run before it, at least
    _FIRST_BLOCK and at most _BLOCK steps, and its noise is drawn just before
    it is stepped (split draws have the bytes and stream of one), so a run
    that exits at step j draws at most j + min(max(j, _FIRST_BLOCK), _BLOCK)
    steps.  step(x, k, n, w) steps from x over step indices k..k+n-1 with
    noise w and returns (the accepted iterates, the first rejected one as
    (size, iterate) or None).  The one place that tells the two exits apart:
    a size not below THETA_CAP (NaN included) is overflow, any other was
    below the domain floor r0.
    """
    trace = np.empty((K + 1,) + np.shape(x0))
    trace[0] = x0
    x, k = x0, 0
    while k < K:
        n = min(max(_FIRST_BLOCK, k), _BLOCK, K - k)
        accepted, rejected = step(x, k, n, noise.draw(rng, n))
        m = len(accepted)
        if m:
            trace[k + 1:k + 1 + m] = accepted
        if rejected is not None:
            size, x = rejected
            overflow = not size < THETA_CAP
            return trace[: k + m + 1], overflow, None if overflow else np.atleast_1d(x)
        x = accepted[-1]
        k += n
    return trace, False, None


def _scalar_path(g1, noise, etas, x, w, raised):
    """Yield the 1-D iterates after x, one per step size in etas, untested.

    w is None (zero noise) or the block's noise draws as a buffer: sigma * z
    for additive-gaussian (quadratic's g1, operator.pos, inlined), and for the
    state-scaled kinds the signs (rademacher-radial, scaled by |x|) or z
    (statedep: scaled by sigma of the norm sqrt(x * x), the bits of its
    norm(theta), on floats for an exact sigma_expr).
    One loop per noise form keeps the kind test out of the step.  The g1
    scalars use the math module (np.exp and math.exp can differ by one ulp).
    A step that raises ends the path, and its exception goes to raised.
    """
    try:
        if w is None:
            for eta in etas:
                x = x - eta * g1(x)
                yield x
        elif noise.kind == "additive-gaussian" and g1 is operator.pos:
            for eta, wj in zip(etas, w):
                x = x - eta * (x + wj)
                yield x
        elif noise.kind == "additive-gaussian":
            for eta, wj in zip(etas, w):
                x = x - eta * (g1(x) + wj)
                yield x
        elif noise.kind == "rademacher-radial":
            for eta, wj in zip(etas, w):
                x = x - eta * (g1(x) + abs(x) * wj)
                yield x
        else:
            sigma, sqrt = noise.sigma_of_norm, math.sqrt
            for eta, wj in zip(etas, w):
                x = x - eta * (g1(x) + sigma(sqrt(x * x), x) * wj)
                yield x
    except Exception as error:
        raised.append(error)


def _scalar_block(g1, noise, etas, r0, x, k, n, w):
    """The 1-D stepper for _drive, on Python floats; etas holds every step size.

    The path steps on array("d") copies of the block's step sizes and noise,
    which make each float as the loop reads it (the floats of .tolist()).
    It is read once by np.fromiter and tested once, r0 <= |x| < THETA_CAP on
    the array.  A step past the exit may raise (power-q with q < 1 divides
    by zero at 0; a state-dependent sigma may be NaN there): the path ends
    there, the iterates before it are tested, and the exception is raised
    only if all of them are kept, so the run stops where a per-step loop
    stops and raises only where a step from an accepted iterate raises.
    """
    etas = array("d", etas[k:k + n].tobytes())
    w = None if w is None else array("d", w.tobytes())
    x = float(x)  # the previous block's last iterate comes back as a float64
    raised = []
    xs = np.fromiter(_scalar_path(g1, noise, etas, x, w, raised), float)
    size = np.abs(xs)
    bad = ~((r0 <= size) & (size < THETA_CAP))
    if bad.any():
        i = int(bad.argmax())
        return xs[:i], (size[i], xs[i])
    if raised:
        raise raised[0]
    return xs, None


def _vector_block(sample, schedule: Schedule, r0, theta, k, n, w, lists=False):
    """The p-dimensional stepper for _drive; accepts iff r0 <= ||theta|| < THETA_CAP.

    sample takes each step's noise row as an array, or with lists as a list
    of floats, the block converted once.
    The rotated step is q.dot(d * q.T.dot(g)), one gemv per product and per
    iterate, with q.T the transposed view: it has the bits of
    q @ (d * (q.T @ g)) in fewer calls.  A gemm over the block, or a
    contiguous copy of q.T, sums in another order and changes the bits.
    """
    q = schedule.q
    qt = None if q is None else q.T
    nrm = math.sqrt(theta.dot(theta))
    out = []
    rows = [None] * n if w is None else w.tolist() if lists else w
    for d, wj in zip(schedule.eigenvalues(np.arange(k, k + n)), rows):
        g = sample(theta, nrm, wj)
        theta_n = theta - (d * g if q is None else q.dot(d * qt.dot(g)))
        nrm = math.sqrt(theta_n.dot(theta_n))
        if not r0 <= nrm < THETA_CAP:
            return out, (nrm, theta_n)
        out.append(theta_n)
        theta = theta_n
    return out, None


def _stepper(objective, noise, schedule: Schedule, K: int) -> partial:
    """The block stepper that run_trajectory drives for K steps of objective:
    the 1-D one on g1, else the p-dimensional one on noise.sampler(grad) or,
    for 1 < p < _FLOAT_P under a state-scaled kind, on the same bits from the
    float form grad_plus(theta, nrm, s, v) on rows as lists: (s, v) is
    (nrm * w[0], u) for rademacher-radial (numpy's (nrm * w) * u) and
    (sigma(theta), w) for statedep, sigma read before the gradient."""
    if objective.dim == 1 and objective.g1 is not None:
        return partial(_scalar_block, objective.g1, noise, schedule.bounds(K), objective.r0)
    plus = objective.grad_plus
    if 1 < objective.dim < _FLOAT_P and plus is not None and noise.kind in STATE_SCALED_KINDS:
        if noise.kind == "rademacher-radial":
            u = noise.direction.tolist()
            sample = lambda theta, nrm, w: plus(theta, nrm, nrm * w[0], u)
        else:
            sigma = noise.sigma_of_norm
            sample = lambda theta, nrm, w: plus(theta, nrm, sigma(nrm, theta), w)
        return partial(_vector_block, sample, schedule, objective.r0, lists=True)
    return partial(_vector_block, noise.sampler(objective.grad), schedule, objective.r0)


@numeric_policy
def run_trajectory(
    oracle: StochasticOracle,
    schedule: Schedule,
    theta0,
    K: int,
    seed: int,
    record_stride: int = 1,
) -> Trajectory:
    """Run the recursion for K steps from theta0, one oracle draw per step.

    Deterministic given seed: the noise is drawn block by block, the draws
    of one piece of K steps, so a rerun with identical arguments reproduces
    every recorded field bit for bit.  F and the gradient norm are recorded
    at every stride point plus the final index.  A theta0 outside the domain
    raises DomainError; a later iterate outside it ends the run (Trajectory).
    """
    objective = oracle.objective
    noise = oracle.noise
    check_int("K", K, 1)
    check_int("record_stride", record_stride, 1)
    check_int("seed", seed)
    check_dim("schedule", schedule.dim, objective.dim)
    # a contiguous copy: the first step's norm sqrt(theta.dot(theta)) sums a
    # strided view in another order, and sigma_expr's norm(theta) reads it
    theta0 = _as_vector(theta0, objective.dim, "theta0")
    objective.check_domain(theta0)

    rng = np.random.default_rng(int(seed))

    step = _stepper(objective, noise, schedule, K)
    x0 = float(theta0[0]) if step.func is _scalar_block else theta0
    # An iterate that overflows (its norm's dot product included) is flagged
    # by the accept test, and an F that overflows by the cut below.
    trace, overflow, viol = _drive(step, x0, K, noise, rng)
    trace = trace.reshape(len(trace), objective.dim)
    ks = record_points(trace.shape[0] - 1, record_stride)
    thetas = trace[ks]
    f_values = np.asarray(objective.value_batch(thetas), dtype=float)
    grad_norms = np.asarray(objective.grad_norm_batch(thetas), dtype=float)
    # F at or beyond the cap is numeric overflow: truncate at the last good record.
    bad = ~np.isfinite(f_values) | (f_values >= OVERFLOW_CAP)
    if bad.any():
        cut = max(int(np.argmax(bad)), 1)
        ks, f_values, grad_norms = ks[:cut], f_values[:cut], grad_norms[:cut]
        trace = trace[: int(ks[-1]) + 1]
        overflow = True

    return Trajectory(
        ks=ks,
        trace=trace,
        f_values=f_values,
        grad_norms=grad_norms,
        seed=int(seed),
        horizon=K,
        record_stride=record_stride,
        overflow=overflow,
        violation_theta=viol,
    )

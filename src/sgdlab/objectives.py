"""Closed-form objective functions and stochastic-gradient noise models.

Every objective carries exact value and gradient functions plus the declared
constants the assumption checkers consume: a lower bound ``f_lb``, an
optional global Hölder constant ``l_global`` for the gradient, and a domain
floor ``r0`` (evaluation is restricted to ``norm(theta) >= r0`` when
``r0 > 0``).

The catalog:

    quadratic        F = 0.5*||theta||^2
    smooth-rectifier F = sum_i log(1 + exp(theta_i))      (softplus)
    exp-abs          F = exp(||theta||),        restricted to ||theta|| >= r0
    power-q          F = ||theta||^q  (q > 0),  restricted
    log1p-abs        F = log(1 + ||theta||),    restricted
    loglog1p-abs     F = log(log(1 + ||theta||)), restricted
    gauss-bump       F = exp(-||theta||^2)

The 1-D forms are extended to dimension p either radially (F = g(||theta||))
or, for the rectifier, coordinate-wise; for p = 1 both coincide with the 1-D
originals.

Noise models add zero-mean perturbations to the exact gradient, so
unbiasedness holds by construction, and each declares a closed-form
second-moment envelope G with E||sample||^2 <= G(theta) (with equality for
every kind implemented here).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable

import numpy as np

from .errors import ContractViolation, DomainError, UnknownObjectiveError

# Values are capped here instead of overflowing to inf; the trajectory runner
# treats any F at or above the cap as overflow.
OVERFLOW_CAP = 1e300

CATALOG_NAMES = (
    "quadratic",
    "smooth-rectifier",
    "exp-abs",
    "power-q",
    "log1p-abs",
    "loglog1p-abs",
    "gauss-bump",
)

RESTRICTED_DEFAULT_R0 = 1.0


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# 0-d operands: a Python float or int operand costs a scalar conversion per call.
_ZERO = np.array(0.0)
_ONE = np.array(1.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)) for x >= 0 and exp(x)/(1 + exp(x)) below, without masks.

    exp(-|x|) is taken as exp(min(x, -x)), which passes a NaN through with
    its sign and payload, as the two-branch form does.  The numerator is
    max(e, x >= 0): e = exp(-|x|) <= 1, so it is 1 for x >= 0 and e below
    (and NaN for NaN), the bits of np.where(x >= 0, 1.0, e).
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= _ZERO) / (_ONE + e)


def _sigmoid1(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


@dataclass
class Objective:
    """A closed-form objective with exact gradient and declared constants.

    The callables operate on numpy arrays: ``value``/``grad`` on a single
    point of shape (p,), the ``*_batch`` variants on stacks of shape (n, p).
    ``g1`` is the scalar gradient fast path, present only when ``dim == 1``.
    """

    id: str
    dim: int
    f_lb: float
    l_global: float | None
    r0: float
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    value_batch: Callable[[np.ndarray], np.ndarray]
    grad_batch: Callable[[np.ndarray], np.ndarray]
    grad_norm_batch: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[float], float] | None = None
    radial: bool = False

    def check_domain(self, thetas: np.ndarray) -> None:
        """Raise DomainError at the first point below the floor r0.

        thetas is one point of shape (p,) or a stack of shape (n, p).
        """
        if self.r0 <= 0.0:
            return
        pts = np.asarray(thetas, dtype=float).reshape(-1, self.dim)
        bad = _norms(pts) < self.r0
        if np.any(bad):
            theta = pts[int(np.argmax(bad))]
            raise DomainError(
                f"objective {self.id!r} requires norm(theta) >= {self.r0}; "
                f"got theta={theta.tolist()}",
                theta=theta,
            )


def _norms(thetas: np.ndarray) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    return np.sqrt(np.einsum("ij,ij->i", thetas, thetas))


def _make_quadratic(dim: int) -> Objective:
    """F = 0.5*||theta||^2, grad = theta. Smooth everywhere, l_global = 1."""

    def value(theta):
        return 0.5 * float(theta.dot(theta))

    def grad(theta):
        return np.array(theta, dtype=float, copy=True)

    def value_batch(thetas):
        rho = _norms(thetas)
        return 0.5 * rho * rho

    def grad_batch(thetas):
        return np.array(thetas, dtype=float, copy=True)

    def grad_norm_batch(thetas):
        return _norms(thetas)

    return Objective(
        id="quadratic",
        dim=dim,
        f_lb=0.0,
        l_global=1.0,
        r0=0.0,
        value=value,
        grad=grad,
        value_batch=value_batch,
        grad_batch=grad_batch,
        grad_norm_batch=grad_norm_batch,
        # +x is the identity on floats, -0.0 and NaN included, at about half
        # the call cost of `lambda x: x`
        g1=operator.pos if dim == 1 else None,
        radial=True,
    )


def _make_smooth_rectifier(dim: int) -> Objective:
    """F = sum_i softplus(theta_i), grad_i = sigmoid(theta_i).

    l_global = 0.25: the Hessian is diag(sigmoid'(theta_i)) and
    sup sigmoid' = 1/4 (attained at 0).
    """

    def value(theta):
        return float(np.sum(softplus(theta)))

    def value_batch(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return softplus(thetas).sum(axis=1)

    def grad_batch(thetas):
        return sigmoid(np.atleast_2d(np.asarray(thetas, dtype=float)))

    def grad_norm_batch(thetas):
        return _norms(grad_batch(thetas))

    return Objective(
        id="smooth-rectifier",
        dim=dim,
        f_lb=0.0,
        l_global=0.25,
        r0=0.0,
        value=value,
        grad=sigmoid,
        value_batch=value_batch,
        grad_batch=grad_batch,
        grad_norm_batch=grad_norm_batch,
        g1=_sigmoid1 if dim == 1 else None,
    )


def _make_gauss_bump(dim: int) -> Objective:
    """F = exp(-||theta||^2), grad = -2*exp(-||theta||^2)*theta.

    Smooth everywhere; l_global = 2 (Hessian norm is maximal at the origin).
    """

    def value(theta):
        return math.exp(-theta.dot(theta))

    def grad(theta):
        return -2.0 * math.exp(-theta.dot(theta)) * np.asarray(theta, dtype=float)

    def value_batch(thetas):
        rho = _norms(thetas)
        return np.exp(-rho * rho)

    def grad_batch(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        rho2 = np.einsum("ij,ij->i", thetas, thetas)
        return -2.0 * np.exp(-rho2)[:, None] * thetas

    def grad_norm_batch(thetas):
        rho = _norms(thetas)
        return 2.0 * rho * np.exp(-rho * rho)

    return Objective(
        id="gauss-bump",
        dim=dim,
        f_lb=0.0,
        l_global=2.0,
        r0=0.0,
        value=value,
        grad=grad,
        value_batch=value_batch,
        grad_batch=grad_batch,
        grad_norm_batch=grad_norm_batch,
        g1=(lambda x: -2.0 * x * math.exp(-x * x)) if dim == 1 else None,
        radial=True,
    )


def _make_radial(
    name: str,
    dim: int,
    r0: float,
    g1: Callable[[float], float],
    gp1: Callable[[float], float],
    g_vec: Callable[[np.ndarray], np.ndarray],
    gp_vec: Callable[[np.ndarray], np.ndarray],
) -> Objective:
    """Radial objective F = g(||theta||) restricted to ||theta|| >= r0 > 0.

    grad = g'(rho) * theta / rho; well defined since rho >= r0 > 0 on the
    domain, and ||grad|| = |g'(rho)|.  f_lb = g(r0): every g in the catalog
    is nondecreasing on [r0, inf).
    """
    if r0 <= 0.0:
        raise ContractViolation(f"radial objective {name!r} needs a domain floor r0 > 0")

    def value(theta):
        return g1(math.sqrt(theta.dot(theta)))

    def grad(theta):
        rho = math.sqrt(theta.dot(theta))
        return (gp1(rho) / rho) * np.asarray(theta, dtype=float)

    def value_batch(thetas):
        return g_vec(_norms(thetas))

    def grad_batch(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        rho = _norms(thetas)
        return (gp_vec(rho) / rho)[:, None] * thetas

    def grad_norm_batch(thetas):
        return np.abs(gp_vec(_norms(thetas)))

    return Objective(
        id=name,
        dim=dim,
        f_lb=g1(r0),
        l_global=None,
        r0=r0,
        value=value,
        grad=grad,
        value_batch=value_batch,
        grad_batch=grad_batch,
        grad_norm_batch=grad_norm_batch,
        g1=(lambda x: gp1(abs(x)) * (1.0 if x >= 0 else -1.0)) if dim == 1 else None,
        radial=True,
    )


def _exp_capped1(rho: float) -> float:
    return math.exp(rho) if rho < 690.0 else OVERFLOW_CAP


def _pow1(rho: float, q: float) -> float:
    """rho ** q, giving inf where Python float pow raises OverflowError
    (as a numpy float64 does)."""
    try:
        return rho ** q
    except OverflowError:
        return math.inf


def _exp_capped_vec(rho: np.ndarray) -> np.ndarray:
    return np.where(rho < 690.0, np.exp(np.minimum(rho, 690.0)), OVERFLOW_CAP)


def catalog_lookup(
    name: str,
    dimension: int = 1,
    q: float | None = None,
    r0: float | None = None,
) -> Objective:
    """Build a catalog objective by name.

    ``q`` is required for power-q; ``r0`` overrides the default domain floor
    (1.0) of the restricted entries and is ignored for the unrestricted ones.
    Either one, when given, must be finite.
    """
    if dimension < 1:
        raise ContractViolation("dimension must be >= 1")
    for param, value in (("q", q), ("r0", r0)):
        if value is not None and not math.isfinite(value):
            raise ContractViolation(f"{param} must be finite, got {value!r}")
    if name == "quadratic":
        return _make_quadratic(dimension)
    if name == "smooth-rectifier":
        return _make_smooth_rectifier(dimension)
    if name == "gauss-bump":
        return _make_gauss_bump(dimension)

    floor = RESTRICTED_DEFAULT_R0 if r0 is None else float(r0)
    if name == "exp-abs":
        return _make_radial(
            "exp-abs", dimension, floor,
            g1=_exp_capped1,
            gp1=_exp_capped1,
            g_vec=_exp_capped_vec,
            gp_vec=_exp_capped_vec,
        )
    if name == "power-q":
        if q is None or q <= 0:
            raise ContractViolation("power-q requires parameter q > 0")
        qf = float(q)
        return _make_radial(
            f"power-q(q={qf:g})", dimension, floor,
            g1=lambda rho: _pow1(rho, qf),
            gp1=lambda rho: qf * _pow1(rho, qf - 1.0),
            g_vec=lambda rho: rho ** qf,
            gp_vec=lambda rho: qf * rho ** (qf - 1.0),
        )
    if name == "log1p-abs":
        return _make_radial(
            "log1p-abs", dimension, floor,
            g1=lambda rho: math.log1p(rho),
            gp1=lambda rho: 1.0 / (1.0 + rho),
            g_vec=np.log1p,
            gp_vec=lambda rho: 1.0 / (1.0 + rho),
        )
    if name == "loglog1p-abs":
        if floor <= 0.0:
            raise ContractViolation("loglog1p-abs needs r0 > 0 so F is real")
        return _make_radial(
            "loglog1p-abs", dimension, floor,
            g1=lambda rho: math.log(math.log1p(rho)),
            gp1=lambda rho: 1.0 / ((1.0 + rho) * math.log1p(rho)),
            g_vec=lambda rho: np.log(np.log1p(rho)),
            gp_vec=lambda rho: 1.0 / ((1.0 + rho) * np.log1p(rho)),
        )
    raise UnknownObjectiveError(
        f"unknown objective {name!r}; expected one of {CATALOG_NAMES}"
    )


@dataclass(frozen=True)
class ObjectiveSpec:
    """Picklable recipe for a catalog objective (used by configs and workers)."""

    name: str
    dimension: int = 1
    q: float | None = None
    r0: float | None = None

    def build(self) -> Objective:
        return catalog_lookup(self.name, self.dimension, q=self.q, r0=self.r0)

    @property
    def label(self) -> str:
        parts = [self.name]
        if self.q is not None:
            parts.append(f"q={self.q:g}")
        if self.r0 is not None:
            parts.append(f"r0={self.r0:g}")
        parts.append(f"p={self.dimension}")
        return f"{parts[0]}({','.join(parts[1:])})"


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

NOISE_KINDS = ("zero", "additive-gaussian", "rademacher-radial", "additive-gaussian-statedep")


_F64 = np.dtype(np.float64)


def _sigma_norm(x, *args, **kwargs):
    """np.linalg.norm in fewer calls: for a contiguous 1-D float64 x alone,
    numpy's own sqrt(x.dot(x)), as a numpy float64 so the expression's
    arithmetic on it (1/0, overflow) stays numpy's.  A strided x would be
    summed in another order, so it goes to np.linalg.norm like any other."""
    if (not args and not kwargs and type(x) is np.ndarray and x.ndim == 1
            and x.dtype == _F64 and x.flags.c_contiguous):
        return np.float64(math.sqrt(x.dot(x)))
    return np.linalg.norm(x, *args, **kwargs)


def _code_names(code: CodeType):
    """The names that code and the code nested in it (lambdas, comprehensions) read."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_names(const)


def _compile_sigma_expr(expr: str) -> Callable[[np.ndarray], float]:
    """Compile a sigma(theta) expression over a tiny whitelisted namespace.

    Available names: theta (array), norm, abs, exp, log, log1p, sqrt, pi, e;
    the code nested in the expression may read no other name either.
    Once its names are checked, the expression is compiled again as the
    body of a one-argument function, which is cheaper to call than eval.
    """
    try:
        code = compile(expr, "<sigma-expr>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ContractViolation(f"sigma expression {expr!r} does not parse: {exc}") from exc
    base = {
        "norm": _sigma_norm,
        "abs": np.abs,
        "exp": np.exp,
        "log": np.log,
        "log1p": np.log1p,
        "sqrt": np.sqrt,
        "pi": math.pi,
        "e": math.e,
    }
    for name in _code_names(code):
        if name not in base and name != "theta":
            raise ContractViolation(f"sigma expression uses disallowed name {name!r}")

    # The newline keeps a trailing comment in expr from swallowing the ")".
    sigma_of = eval(compile(f"lambda theta: ({expr}\n)", "<sigma-expr>", "eval"),
                    {"__builtins__": {}, **base})

    def fn(theta: np.ndarray) -> float:
        sigma = float(sigma_of(theta))
        if not 0.0 <= sigma < math.inf:
            raise ContractViolation(
                f"sigma expression {expr!r} gave {sigma!r} at theta={theta.tolist()}; "
                "sigma must be finite and >= 0")
        return sigma

    return fn


@dataclass
class NoiseModel:
    """Zero-mean gradient noise with a declared second-moment envelope.

    kinds:
      zero                       sample = grad
      additive-gaussian          sample = grad + sigma * Z,  Z ~ N(0, I_p)
      rademacher-radial          sample = grad + ||theta|| * X * u, X = +-1 fair
      additive-gaussian-statedep sample = grad + sigma(theta) * Z

    The envelope G(theta) = E||sample||^2 is exact for all four kinds:
    ||grad||^2 plus p*sigma^2, ||theta||^2, or p*sigma(theta)^2 respectively.
    ``constants`` holds declared expected-smoothness coefficients (C1, C2, C3)
    when they are declarable independently of the objective.
    """

    kind: str
    dim: int
    sigma: float = 0.0
    sigma_expr: str | None = None
    direction: np.ndarray | None = None
    constants: tuple[float, float, float] | None = field(default=None)
    _sigma_fn: Callable[[np.ndarray], float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ContractViolation(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ContractViolation(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.kind == "rademacher-radial":
            u = self.direction
            if u is None:
                u = np.zeros(self.dim)
                u[0] = 1.0
            u = np.asarray(u, dtype=float)
            if u.shape != (self.dim,):
                raise ContractViolation(f"rademacher direction must have p = {self.dim} "
                                        f"entries, got {u.size}")
            if not np.all(np.isfinite(u)):
                raise ContractViolation("rademacher direction must be finite")
            with np.errstate(over="ignore"):
                nu = float(np.linalg.norm(u))
            if not 1e-150 <= nu < math.inf and np.any(u):
                # the squared norm overflowed, or underflowed to 0 or to a
                # subnormal with few bits: rescale by the largest entry first
                u = u / np.max(np.abs(u))
                nu = float(np.linalg.norm(u))
            if nu == 0.0:
                raise ContractViolation("rademacher direction must be nonzero")
            self.direction = u / nu
        if self.kind == "additive-gaussian-statedep":
            if not self.sigma_expr:
                raise ContractViolation("statedep noise requires sigma_expr")
            self._sigma_fn = _compile_sigma_expr(self.sigma_expr)
        if self.constants is None:
            if self.kind == "zero":
                self.constants = (0.0, 0.0, 1.0)
            elif self.kind == "additive-gaussian":
                self.constants = (self.dim * self.sigma ** 2, 0.0, 1.0)

    def sigma_at(self, theta: np.ndarray) -> float:
        if self.kind == "additive-gaussian":
            return self.sigma
        if self.kind == "additive-gaussian-statedep":
            return self._sigma_fn(np.asarray(theta, dtype=float))
        return 0.0

    def second_moment(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """Exact E||sample||^2 at theta given grad = gradF(theta)."""
        g2 = float(grad @ grad)
        if self.kind == "zero":
            return g2
        if self.kind == "additive-gaussian":
            return g2 + self.dim * self.sigma ** 2
        if self.kind == "rademacher-radial":
            return g2 + float(theta @ theta)
        s = self.sigma_at(theta)
        return g2 + self.dim * s * s

    def envelope(self, objective: Objective) -> Callable[[np.ndarray], float]:
        """The declared envelope G as a function of theta alone."""

        def G(theta: np.ndarray) -> float:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            return self.second_moment(theta, objective.grad(theta))

        return G

    def envelope_batch(self, objective: Objective, thetas: np.ndarray) -> np.ndarray:
        """Vectorized declared envelope over a stack of points."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        g2 = objective.grad_norm_batch(thetas) ** 2
        if self.kind == "zero":
            return g2
        if self.kind == "additive-gaussian":
            return g2 + self.dim * self.sigma ** 2
        if self.kind == "rademacher-radial":
            return g2 + np.einsum("ij,ij->i", thetas, thetas)
        sig = np.array([self.sigma_at(t) for t in thetas])
        return g2 + self.dim * sig ** 2

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray | None:
        """n steps' noise in the order that fixes the seed streams.

        Gaussian kinds draw an (n, dim) block of normals, scaled by sigma for
        the additive kind; rademacher-radial draws n fair signs as an (n, 1)
        column; zero draws none.
        """
        if self.kind == "additive-gaussian":
            return self.sigma * rng.standard_normal((n, self.dim))
        if self.kind == "additive-gaussian-statedep":
            return rng.standard_normal((n, self.dim))
        if self.kind == "rademacher-radial":
            return (rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0)[:, None]
        return None

    def sampler(self, grad: Callable[[np.ndarray], np.ndarray]) -> Callable[..., np.ndarray]:
        """The stochastic gradient as f(theta, norm(theta), w) for noise w from draw.

        w is one step's row of draw (the engine) or a whole block (one
        sample per row).  The kind is chosen here, once, so a step loop
        carries no kind test.
        """
        if self.kind == "zero":
            return lambda theta, nrm, w: grad(theta)
        if self.kind == "additive-gaussian":
            return lambda theta, nrm, w: grad(theta) + w
        if self.kind == "rademacher-radial":
            u = self.direction
            return lambda theta, nrm, w: grad(theta) + nrm * w * u
        sigma_fn = self._sigma_fn
        return lambda theta, nrm, w: grad(theta) + sigma_fn(theta) * w


@dataclass(frozen=True)
class NoiseSpec:
    """Picklable recipe for a noise model."""

    kind: str
    sigma: float = 0.0
    sigma_expr: str | None = None
    direction: tuple[float, ...] | None = None
    constants: tuple[float, float, float] | None = None

    def build(self, dim: int) -> NoiseModel:
        direction = None if self.direction is None else np.asarray(self.direction, dtype=float)
        return NoiseModel(
            kind=self.kind,
            dim=dim,
            sigma=self.sigma,
            sigma_expr=self.sigma_expr,
            direction=direction,
            constants=self.constants,
        )

    @property
    def label(self) -> str:
        if self.kind == "additive-gaussian":
            return f"additive-gaussian(sigma={self.sigma:g})"
        if self.kind == "additive-gaussian-statedep":
            return f"additive-gaussian-statedep(sigma={self.sigma_expr})"
        return self.kind


@dataclass
class StochasticOracle:
    """An objective paired with a noise model: an unbiased stochastic-gradient oracle."""

    objective: Objective
    noise: NoiseModel

    def __post_init__(self):
        if self.objective.dim != self.noise.dim:
            raise ContractViolation(
                f"objective dimension {self.objective.dim} != noise dimension {self.noise.dim}"
            )

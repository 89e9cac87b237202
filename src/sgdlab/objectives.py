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

import ast
import functools
import math
import operator
from dataclasses import dataclass
from types import CodeType
from typing import Callable

import numpy as np

from .errors import (ContractViolation, DomainError, UnknownObjectiveError, as_floats,
                     check_dim, check_finite, check_int, check_nonnegative, check_positive,
                     numeric_policy)

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


# A 0-d operand: a Python float or int operand costs a scalar conversion per call.
_ONE = np.array(1.0)
_F64 = np.dtype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)) for x >= 0 and exp(x)/(1 + exp(x)) below, without masks.

    exp(-|x|) is taken as exp(min(x, -x)), which passes a NaN through with
    its sign and payload, as the two-branch form does.  The numerator is
    max(e, sign(x)): e = exp(-|x|) <= 1, so it is 1 for x > 0, e = 1 for
    x = +-0, e for x < 0 (sign -1 < e) and e's NaN for NaN, the bits of
    np.where(x >= 0, 1.0, e) with a float-float maximum and no bool cast.
    """
    if type(x) is not np.ndarray or x.dtype is not _F64:  # else asarray returns x
        x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, np.sign(x)) / (_ONE + e)


def _sigmoid_plus(theta: np.ndarray, nrm: float, s: float, v: list) -> np.ndarray:
    """sigmoid(theta) + s * v on Python floats.

    e is sigmoid's own np.exp(np.minimum(x, -x)), and its numerator
    max(e, sign(x)) is 1.0 for x > 0 and e otherwise (1 at +-0, e below 0,
    e's NaN for a NaN), so each coordinate has sigmoid's bits.
    """
    e = np.exp(np.minimum(theta, -theta)).tolist()
    return np.array([(1.0 if t > 0 else ei) / (1.0 + ei) + s * vi
                     for t, ei, vi in zip(theta.tolist(), e, v)])


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
    ``grad_plus(theta, nrm, s, v)`` is the affine float form of the
    stochastic gradient, ``grad(theta) + s * v`` at one contiguous point
    given its norm ``nrm = math.sqrt(theta.dot(theta))``, with ``v`` a list
    of p floats.  It computes each coordinate on Python floats with the
    operations ``grad`` does elementwise, in the same order, so its array
    has ``grad``'s bits.  Every catalog objective but the quadratic has one
    (its ``grad`` is one copy, and a list of its noisy gradient costs more
    than numpy's two or three calls from p = 6 up), and an objective without
    it (None) is sampled through ``grad`` alone (see ``engine._stepper``).
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
    grad_plus: Callable[..., np.ndarray] | None = None

    @numeric_policy
    def check_domain(self, thetas: np.ndarray) -> None:
        """Raise DomainError at the first point below the floor r0.

        thetas is one point of shape (p,) or a stack of shape (n, p).  The
        size is the steps' accept test's: abs(x) in 1-D, else the sqrt of a
        contiguous row's vecdot, the bits of math.sqrt(theta.dot(theta)).
        """
        pts = np.atleast_2d(np.ascontiguousarray(as_floats("theta", thetas, self.dim)))
        check_dim("theta", pts.shape[-1], self.dim)
        if self.r0 <= 0.0:
            return
        size = np.abs(pts[:, 0]) if self.dim == 1 else np.sqrt(np.vecdot(pts, pts))
        bad = size < self.r0
        if np.any(bad):
            theta = pts[int(np.argmax(bad))]
            raise DomainError(
                f"objective {self.id!r} requires norm(theta) >= {self.r0}; "
                f"got theta={theta.tolist()}",
                theta=theta,
            )


def _norms(thetas: np.ndarray) -> np.ndarray:
    """Row norms by einsum, for the pinned report statistics only: the batch
    forms, Trajectory.norms, the capture distances and the checkers' ratios
    (the domain test reads the step's norm, Objective.check_domain)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    return np.sqrt(np.einsum("ij,ij->i", thetas, thetas))


def _frozen_copy(x) -> np.ndarray:
    """x as a new read-only C-order float array, shared with no caller."""
    a = np.array(x, dtype=float, order="C")
    a.flags.writeable = False
    return a


def _set_frozen_state(value, state: dict) -> None:
    """The __setstate__ of a frozen value: pickle restores arrays writeable."""
    for array in state.values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    value.__dict__.update(state)


def _scaled_plus(c: float, theta: np.ndarray, s: float, v: list) -> np.ndarray:
    """c * theta + s * v as one list of Python floats made into a float64
    array: numpy's elementwise c * theta, then its + s * w, each correctly
    rounded, in one pass over the coordinates.  The float form of a gradient
    c * theta (gauss-bump, the radial objectives)."""
    return np.array([c * t + s * vi for t, vi in zip(theta.tolist(), v)])


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
        grad_plus=_sigmoid_plus,
    )


def _make_gauss_bump(dim: int) -> Objective:
    """F = exp(-||theta||^2), grad = -2*exp(-||theta||^2)*theta.

    Smooth everywhere; l_global = 2 (Hessian norm is maximal at the origin).
    """

    def value(theta):
        return math.exp(-theta.dot(theta))

    def grad(theta):
        return -2.0 * math.exp(-theta.dot(theta)) * np.asarray(theta, dtype=float)

    def grad_plus(theta, nrm, s, v):
        return _scaled_plus(-2.0 * math.exp(-theta.dot(theta)), theta, s, v)

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
        grad_plus=grad_plus,
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
    check_positive(r0=r0)

    def value(theta):
        return g1(math.sqrt(theta.dot(theta)))

    def grad(theta):
        rho = math.sqrt(theta.dot(theta))
        return (gp1(rho) / rho) * np.asarray(theta, dtype=float)

    def grad_plus(theta, nrm, s, v):
        # grad's factor: nrm is its rho, the same sqrt of the same dot
        return _scaled_plus(gp1(nrm) / nrm, theta, s, v)

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
        grad_plus=grad_plus,
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


@numeric_policy
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
    check_int("dimension", dimension, 1)
    check_finite(q=q, r0=r0)
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
        check_positive(q=q)
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


def smoothness_constants(constants, name: str) -> tuple[float, float, float]:
    """constants as a tuple, refused under name unless they are three finite
    numbers (C1, C2, C3) with C1 >= 0, C2 >= 0 and C3 >= 1: the one rule of
    the expected-smoothness constants, declared on a NoiseModel, passed to
    check_expected_smoothness or given as checks.smoothness.constants."""
    c = tuple(constants)
    if not (len(c) == 3 and all(map(math.isfinite, c))
            and c[0] >= 0.0 and c[1] >= 0.0 and c[2] >= 1.0):
        raise ContractViolation(
            f"{name} must be three finite numbers (C1, C2, C3) with "
            f"C1 >= 0, C2 >= 0 and C3 >= 1, got {constants!r}")
    return c


def _code_names(code: CodeType):
    """The names that code and the code nested in it (lambdas, comprehensions) read."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_names(const)


# Expressions that bind a name, so that a theta inside them may be another value.
_BINDS = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
          ast.NamedExpr)


class _ShareNorm(ast.NodeTransformer):
    """Rewrite each norm(theta) call (one bare argument) as the name nrm."""

    def visit_Call(self, node):
        self.generic_visit(node)
        func, args = node.func, node.args
        if (isinstance(func, ast.Name) and func.id == "norm" and not node.keywords
                and len(args) == 1 and isinstance(args[0], ast.Name)
                and args[0].id == "theta"):
            return ast.copy_location(ast.Name("nrm", ast.Load()), node)
        return node


_EXACT_OPS = (ast.UAdd, ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div)


def _reads_nrm(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "nrm" for n in ast.walk(node))


def _exact(node: ast.AST) -> bool:
    """Whether node, each norm(theta) in it read as nrm, is in the exact grammar.

    The grammar: int and float literals, nrm, pi, e, unary + and -, binary
    + - * /, and abs and sqrt of a term that reads nrm.  IEEE 754 rounds each
    of these correctly, so a Python float, a numpy float64 and a float64
    array give the same bits; a term of literals alone is Python arithmetic
    in every form.  numpy's abs and sqrt of a Python int are not the
    builtins' (int64 wraps, and an int past it has no sqrt), hence the nrm.
    """
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in ("nrm", "pi", "e")
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _EXACT_OPS) and _exact(node.operand)
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _EXACT_OPS) and _exact(node.left) and _exact(node.right)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("abs", "sqrt") and len(node.args) == 1
            and not node.keywords and _exact(node.args[0]) and _reads_nrm(node.args[0]))


# The float form of an exact expression: Python raises where numpy returns
# inf or NaN (a division by zero, sqrt of a negative, an int too large for a
# float), and a sigma outside [0, inf) is refused, so those cases go back to
# the numpy form, which gives today's value or ContractViolation.
_FLOAT_FORM = """\
def sigma(nrm, theta):
    try:
        s = {}
        if 0.0 <= s < inf:
            return s
    except (ZeroDivisionError, ValueError, OverflowError):
        pass
    return fn(nrm, theta)
"""


# Cached without a bound: a NoiseModel compiles its expression once, at
# construction, and looks its forms up here wherever it uses them, so a
# process never compiles one expression twice; the two forms are pure
# functions of expr.
@functools.cache
def _compile_sigma_expr(expr: str) -> tuple[Callable[..., float], Callable[..., float]]:
    """Compile a sigma(theta) expression over a tiny whitelisted namespace.

    Available names: theta (array), norm, abs, exp, log, log1p, sqrt, pi, e;
    the code nested in the expression may read no other name either.
    Once its names are checked, the expression is compiled again as the
    body of a lambda of (nrm, theta), cheaper to call than eval, in which
    each norm(theta) reads nrm: the norm that every caller passes, the
    step's sqrt(theta.dot(theta)) or sigma_at's np.linalg.norm(theta).  An
    expression that binds a name (a lambda, a comprehension, :=) is compiled
    as it is, every norm going to np.linalg.norm.

    Returns (fn, of_norm).  fn(nrm, theta) is the numpy evaluator at one
    point or a 1-D float, which it wraps.  For an expression in the exact
    grammar (_exact), which reads no theta, of_norm evaluates it on Python
    floats, passing a case that raises or leaves [0, inf) back to fn, so it
    has fn's bits or raises its error; for any other expression of_norm is fn.
    """
    try:
        tree = ast.parse(expr, "<sigma-expr>", "eval")
        code = compile(tree, "<sigma-expr>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ContractViolation(f"sigma expression {expr!r} does not parse: {exc}") from exc
    base = {
        "norm": np.linalg.norm,
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

    if not any(isinstance(node, _BINDS) for node in ast.walk(tree)):
        tree = _ShareNorm().visit(tree)
    function = ast.parse("lambda nrm, theta: 0", mode="eval")
    function.body.body = tree.body
    sigma_of = eval(compile(function, "<sigma-expr>", "eval"), {"__builtins__": {}, **base})

    def fn(nrm: float, theta: np.ndarray | float) -> float:
        if type(theta) is not np.ndarray:
            theta = np.array([theta])
        sigma = float(sigma_of(np.float64(nrm), theta))
        if not 0.0 <= sigma < math.inf:
            raise ContractViolation(
                f"sigma expression {expr!r} gave {sigma!r} at theta={theta.tolist()}; "
                "sigma must be finite and >= 0")
        return sigma

    if not (_exact(tree.body) and _reads_nrm(tree.body)):
        return fn, fn
    # the float form's abs and exception types are the builtins: the exact
    # grammar lets the expression itself read no name but nrm, pi, e, abs, sqrt
    scope = {"pi": math.pi, "e": math.e, "sqrt": math.sqrt, "inf": math.inf, "fn": fn}
    exec(compile(_FLOAT_FORM.format(ast.unparse(tree.body)), "<sigma-expr>", "exec"), scope)
    return fn, scope["sigma"]


@dataclass(frozen=True)
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
    when they are declarable independently of the objective.  A frozen
    value: direction is its own read-only copy.
    """

    kind: str
    dim: int
    sigma: float = 0.0
    sigma_expr: str | None = None
    direction: np.ndarray | None = None
    constants: tuple[float, float, float] | None = None
    __setstate__ = _set_frozen_state

    @numeric_policy
    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ContractViolation(f"unknown noise kind {self.kind!r}")
        check_nonnegative(sigma=self.sigma)
        if self.dim * (self.sigma * self.sigma) == math.inf:
            # Python's sigma ** 2 raises OverflowError here (sigma above about 1.34e154)
            raise ContractViolation(
                f"sigma must have a finite second moment dim * sigma**2, got {self.sigma!r}")
        if self.kind == "rademacher-radial":
            u = np.arange(self.dim) == 0 if self.direction is None else self.direction  # e_1
            check_dim("rademacher direction", u, self.dim)
            u = np.asarray(u, dtype=float)
            check_finite(direction=u.tolist())
            nu = float(np.linalg.norm(u))
            if not 1e-150 <= nu < math.inf and np.any(u):
                # the squared norm overflowed, or underflowed to 0 or to a
                # subnormal with few bits: rescale by the largest entry first
                u = u / np.max(np.abs(u))
                nu = float(np.linalg.norm(u))
            if nu == 0.0:
                raise ContractViolation("rademacher direction must be nonzero")
            object.__setattr__(self, "direction", u / nu)
        if self.direction is not None:
            object.__setattr__(self, "direction", _frozen_copy(self.direction))
        if self.kind == "additive-gaussian-statedep":
            if not self.sigma_expr:
                raise ContractViolation("statedep noise requires sigma_expr")
            _compile_sigma_expr(self.sigma_expr)  # a bad expression is refused here
        c = self.constants
        if c is not None:
            c = smoothness_constants(c, "noise constants")
        elif self.kind == "zero":
            c = (0.0, 0.0, 1.0)
        elif self.kind == "additive-gaussian":
            c = (self.dim * self.sigma ** 2, 0.0, 1.0)
        object.__setattr__(self, "constants", c)

    @property
    def sigma_of_norm(self) -> Callable[[float, np.ndarray | float], float] | None:
        """sigma(nrm, theta) as a float, nrm the norm of theta; None without sigma_expr."""
        return None if self.sigma_expr is None else _compile_sigma_expr(self.sigma_expr)[1]

    @numeric_policy
    def sigma_at(self, theta: np.ndarray) -> float:
        check_dim("theta", theta, self.dim)
        return self._sigma(theta)

    def _sigma(self, theta) -> float:
        """sigma_at of a theta that has passed its dimension test."""
        if self.kind == "additive-gaussian":
            return self.sigma
        if self.kind == "additive-gaussian-statedep":
            theta = np.asarray(theta, dtype=float)
            return self.sigma_of_norm(float(np.linalg.norm(theta)), theta)
        return 0.0

    @numeric_policy
    def second_moment(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """Exact E||sample||^2 at theta given grad = gradF(theta)."""
        check_dim("theta", theta, self.dim)
        check_dim("grad", grad, self.dim)
        g2 = float(grad @ grad)
        if self.kind == "zero":
            return g2
        if self.kind == "additive-gaussian":
            return g2 + self.dim * self.sigma ** 2
        if self.kind == "rademacher-radial":
            return g2 + float(theta @ theta)
        s = self._sigma(theta)
        return g2 + self.dim * s * s

    def envelope(self, objective: Objective) -> Callable[[np.ndarray], float]:
        """The declared envelope G as a function of theta alone."""
        check_dim("objective", objective.dim, self.dim)

        def G(theta: np.ndarray) -> float:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            return self.second_moment(theta, objective.grad(theta))

        return G

    @numeric_policy
    def envelope_batch(self, objective: Objective, thetas: np.ndarray) -> np.ndarray:
        """Vectorized declared envelope over a stack of points."""
        check_dim("objective", objective.dim, self.dim)
        thetas = np.atleast_2d(as_floats("thetas", thetas, self.dim))
        check_dim("thetas", thetas.shape[-1], self.dim)
        g2 = objective.grad_norm_batch(thetas) ** 2
        if self.kind == "zero":
            return g2
        if self.kind == "additive-gaussian":
            return g2 + self.dim * self.sigma ** 2
        if self.kind == "rademacher-radial":
            return g2 + np.einsum("ij,ij->i", thetas, thetas)
        # contiguous rows: each row norm then has the bits of np.linalg.norm's;
        # a norm that overflows reaches sigma as inf, as in np.linalg.norm
        thetas = np.ascontiguousarray(thetas)
        sigma = self.sigma_of_norm
        sig = np.array([sigma(nrm, theta) for nrm, theta
                        in zip(np.sqrt(np.vecdot(thetas, thetas)).tolist(), thetas)])
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
        """The stochastic gradient as f(theta, norm(theta), w) for noise w from
        draw, one step's row or a block (one sample per row): its array form,
        the kind chosen here, once, so that a step loop carries no kind test."""
        if self.kind == "zero":
            return lambda theta, nrm, w: grad(theta)
        if self.kind == "additive-gaussian":
            return lambda theta, nrm, w: grad(theta) + w
        if self.kind == "rademacher-radial":
            u = self.direction
            return lambda theta, nrm, w: grad(theta) + nrm * w * u
        sigma = self.sigma_of_norm
        return lambda theta, nrm, w: grad(theta) + sigma(nrm, theta) * w


@dataclass(frozen=True)
class NoiseSpec:
    """Picklable recipe for a noise model."""

    kind: str
    sigma: float = 0.0
    sigma_expr: str | None = None
    direction: tuple[float, ...] | None = None
    constants: tuple[float, float, float] | None = None

    def build(self, dim: int) -> NoiseModel:
        return NoiseModel(
            kind=self.kind,
            dim=dim,
            sigma=self.sigma,
            sigma_expr=self.sigma_expr,
            direction=self.direction,
            constants=self.constants,
        )

    @property
    def label(self) -> str:
        if self.kind == "additive-gaussian":
            return f"additive-gaussian(sigma={self.sigma:g})"
        if self.kind == "additive-gaussian-statedep":
            return f"additive-gaussian-statedep(sigma={self.sigma_expr})"
        return self.kind


@dataclass(frozen=True)
class StochasticOracle:
    """An objective paired with a noise model: an unbiased stochastic-gradient oracle."""

    objective: Objective
    noise: NoiseModel

    def __post_init__(self):
        check_dim("noise", self.noise.dim, self.objective.dim)

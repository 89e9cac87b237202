"""Exception types shared across the package, its one numeric-error policy,
and the argument rules that every module applies.

Every entry point (the functions that `sgdlab/__init__.py` exports and
`sample_gradient_norms`, `envelope_sup_over_ball`, `cli.main`, the pool worker
`diagnostics._run_block`, and the methods of the exported classes that compute
on caller input) carries `@numeric_policy`; no other code enters an
`np.errstate`, and per-step callables are left bare.
"""

import math
import numbers

import numpy as np

# Overflow, NaN and 1/0 are outcomes that sgdlab reports (a diverging run
# counts in n_overflow, a NaN violation fails its check, a non-finite sigma
# is a ContractViolation), not numpy warnings.  On numpy >= 2 an errstate
# instance is a decorator that enters a fresh context per call: it nests,
# holds on any thread and pickles to a pool worker with the function.  One
# entry costs about 1.5 us (a p = 4 step about 6.5 us), hence not per step.
numeric_policy = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class SgdLabError(Exception):
    """Base class for all sgdlab errors."""


class ContractViolation(SgdLabError):
    """An operation was called with arguments that violate its contract."""


class DomainError(SgdLabError):
    """An objective was evaluated outside its restricted domain.

    Carries the offending point so callers (and the CLI) can report it.
    """

    def __init__(self, message: str, theta=None):
        super().__init__(message)
        self.theta = theta


class UnknownObjectiveError(SgdLabError, KeyError):
    """Catalog lookup for a name that does not exist."""


class ConfigError(SgdLabError):
    """Experiment configuration is malformed or inconsistent."""


# The argument rules: one function per rule, each raising ContractViolation
# with a message led by the parameter's name (the config passes its dotted
# key and turns the exception into a ConfigError).

def check_int(name: str, value, least: int = 0) -> None:
    """An integer >= least (numpy's too, but not a bool); least 0 is the seed rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ContractViolation(f"{name} must be an integer >= {least}, got {value!r}")


def check_dim(name: str, value, p: int) -> None:
    """value, a dimension (an integer) or a vector, is p or of shape (p,); the
    message gives a 1-D vector's length, another value's shape, or a ragged one."""
    try:
        n = value if isinstance(value, (int, np.integer)) else np.shape(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        n = f"a ragged sequence {value!r}"
    n = n[0] if isinstance(n, tuple) and len(n) == 1 else n
    if n != p:
        raise ContractViolation(f"{name} must have dimension p = {p}, got {n}")


def as_floats(name: str, value, p: int) -> np.ndarray:
    """value (a number, a point or a stack of points) as a float array; a
    ragged one, which numpy cannot convert, is refused by check_dim under name."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        check_dim(name, value, p)
        raise


def check_alpha(name: str, value) -> None:
    """A Hölder exponent in (0, 1] (which refuses NaN and inf too)."""
    if not 0.0 < value <= 1.0:
        raise ContractViolation(f"{name} must be in (0, 1], got {value!r}")


def check_window(W, horizon: int) -> None:
    """A final window of W steps of a run of horizon steps: 1 <= W <= horizon."""
    check_int("W", W, 1)
    if W > horizon:
        raise ContractViolation(f"window W must be <= horizon {horizon}, got {W!r}")


def _floats(value) -> np.ndarray:
    """value as a float array, or NaN where it holds an integer beyond
    float64 (Python's int, which numpy's conversion refuses with
    OverflowError): each rule below refuses NaN under its own message."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        return np.array(math.nan)


def check_finite(**values) -> None:
    """Each value not None (not given), a number or a point or list of
    numbers, holds no NaN and no infinity."""
    for name, value in values.items():
        if value is not None and not np.isfinite(_floats(value)).all():
            raise ContractViolation(f"{name} must be finite, got {value!r}")


def check_positive(**values) -> None:
    """Each value, a number or an array of numbers, is finite and > 0."""
    for name, value in values.items():
        v = _floats(value)  # None is NaN: refused
        if not ((0.0 < v) & (v < math.inf)).all():
            raise ContractViolation(f"{name} must be finite and > 0, got {value!r}")


def check_nonnegative(**values) -> None:
    """Each value, a number or an array of numbers, is finite and >= 0."""
    for name, value in values.items():
        v = _floats(value)
        if not ((0.0 <= v) & (v < math.inf)).all():
            raise ContractViolation(f"{name} must be finite and >= 0, got {value!r}")


def check_box(name: str, box) -> tuple[float, float]:
    """(lo, hi) of a box given as exactly two real numbers with hi > lo and a
    finite width hi - lo (so lo and hi are finite too)."""
    pair = tuple(box) if isinstance(box, (tuple, list, np.ndarray)) else ()
    if len(pair) == 2 and all(isinstance(v, numbers.Real) for v in pair):
        lo, hi = float(_floats(pair[0])), float(_floats(pair[1]))
        if hi > lo and math.isfinite(hi - lo):
            return lo, hi
    raise ContractViolation(
        f"{name} must be two numbers [lo, hi] with hi > lo and a finite hi - lo, got {box!r}")


def check_increasing(name: str, values, least: float) -> None:
    """A nonempty list of numbers, strictly increasing, whose first is >= least."""
    if not values or not values[0] >= least or any(not b > a for a, b in zip(values, values[1:])):
        raise ContractViolation(
            f"{name} must be strictly increasing and at least {least!r}, got {values!r}")

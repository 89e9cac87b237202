"""Exception types shared across the package, and its one numeric-error policy.

Every entry point (the functions that `sgdlab/__init__.py` exports and
`sample_gradient_norms`, `envelope_sup_over_ball`, `cli.main`, the pool worker
`diagnostics._run_block`, and the methods of the exported classes that compute
on caller input) carries `@numeric_policy`; no other code enters an
`np.errstate`, and per-step callables are left bare.
"""

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

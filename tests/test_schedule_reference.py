"""Differential tests: the schedule scans against reference copies.

`_reference_p2_partial_sum` and `_reference_threshold` are the scans that
`Schedule.bounds` replaced, kept verbatim apart from reading the chunk size
from the engine: each recomputed `eigenvalues` itself and reduced it to
lambda_max/lambda_min, the threshold in 1 << 20 blocks from the top.  Both
scans now read one table built on the engine's chunk grid, and must give the
same bits for scalar, diagonal and rotated schedules, with beta 0 and
beta > 1, k0 1 and 1.5, on either side of every chunk boundary.
"""

import numpy as np
import pytest

from sgdlab import engine
from sgdlab.checkers import find_eigenvalue_threshold
from sgdlab.engine import Schedule, validate_schedule

# ---------------------------------------------------------------------------
# reference scans
# ---------------------------------------------------------------------------


def _reference_p2_partial_sum(schedule, alpha, horizon):
    total = 0.0
    for start in range(0, horizon + 1, engine._CHUNK):
        ks = np.arange(start, min(start + engine._CHUNK, horizon + 1))
        total += float(np.sum(schedule.eigenvalues(ks).max(axis=1) ** (1.0 + alpha)))
    return total


def _reference_threshold(schedule, C, alpha, K_max):
    target = 1.0 / C
    chunk = 1 << 20
    suffix_ok_from = None  # smallest K valid for the suffix scanned so far
    for hi in range(K_max, -1, -chunk):
        lo = max(0, hi - chunk + 1)
        ks = np.arange(lo, hi + 1)
        d = schedule.eigenvalues(ks)
        lmax = d.max(axis=1)
        lmin = d.min(axis=1)
        h = lmax ** alpha * (lmax / lmin)
        ok = h <= target
        if not np.all(ok):
            last_bad = lo + int(np.nonzero(~ok)[0][-1])
            return None if last_bad == K_max else last_bad + 1
        suffix_ok_from = lo
    return suffix_ok_from


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

SCHEDULES = {
    "scalar": lambda: Schedule.scalar(0.5, 0.75, k0=1.0),
    "scalar-beta0": lambda: Schedule.scalar(2.0, 0.0, k0=1.5),
    "diagonal": lambda: Schedule.diagonal([1.0, 0.3], [0.6, 1.2], k0=1.5),
    "rotated": lambda: Schedule.rotated([0.5, 0.9], [0.0, 1.2], k0=1.0, rotation_seed=3),
}
SIZES = [1, 65535, 65536, 65537, 1 << 20, (1 << 20) + 1]


def _settling_constants(schedule, alpha, K_max):
    """C values that put the threshold at None, 0, mid-range and K_max where
    the schedule's h_k = lambda_max^alpha * kappa allows it."""
    d = schedule.eigenvalues(np.arange(K_max + 1))
    lmax, lmin = d.max(axis=1), d.min(axis=1)
    h = lmax ** alpha * (lmax / lmin)
    below = 1.0 - 1e-12  # so that 1 / C is not rounded under the h it targets
    return [2.0 / h[K_max], below / h.max(), below / h[K_max // 2], below / h[K_max]]


@pytest.mark.parametrize("K", SIZES)
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_scans_match_reference(name, K):
    schedule = SCHEDULES[name]()
    for alpha in (1.0, 0.7):  # 1.0 takes numpy's square fast path in the sum
        got = validate_schedule(schedule, alpha, K).p2_partial_sum
        assert got.hex() == _reference_p2_partial_sum(schedule, alpha, K).hex()
    for C in _settling_constants(schedule, 0.7, K):
        assert (find_eigenvalue_threshold(schedule, C, 0.7, K)
                == _reference_threshold(schedule, C, 0.7, K))


def test_threshold_cases_cover_every_outcome():
    # the constants above reach all four kinds of answer at the chunk edges
    schedule = SCHEDULES["scalar"]()
    K = (1 << 20) + 1
    got = [find_eigenvalue_threshold(schedule, C, 1.0, K)
           for C in _settling_constants(schedule, 1.0, K)]
    assert got[0] is None and got[1] == 0 and got[3] == K
    assert 0 < got[2] < K


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_bounds_table_is_reused_and_extended(name):
    schedule = SCHEDULES[name]()
    d = schedule.eigenvalues(np.arange(70000))
    for n in (100, 70000, 50):  # shorter, then longer (rebuilt), then shorter (reused)
        lmax, lmin = schedule.bounds(n)
        assert np.array_equal(lmax, d[:n].max(axis=1))
        assert np.array_equal(lmin, d[:n].min(axis=1))
        assert not lmax.flags.writeable and not lmin.flags.writeable
    table = schedule.bounds(70000)[0]
    assert np.shares_memory(schedule.bounds(50)[0], table)
    assert np.shares_memory(*schedule.bounds(10)) == (schedule.dim == 1)

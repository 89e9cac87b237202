"""The names the benchmark reaches into sgdlab by must exist.

bench/tracing.py wraps functions by module and attribute name and skips a
name it cannot find, so a renamed function would silently time as 0.  The
runner's micro-timings call a few per-step callables directly.  This test
only imports and inspects; it runs nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import sgdlab.cli
from sgdlab.config import load_config
from sgdlab.engine import Schedule, run_trajectory
from sgdlab.objectives import NoiseModel, Objective, catalog_lookup

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    missing = [(module, attr) for _, module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
    for field in tracing.OBJECTIVE_BATCH_FIELDS:
        assert field in Objective.__dataclass_fields__
        assert callable(getattr(catalog_lookup("quadratic"), field))
    assert callable(importlib.import_module("sgdlab.objectives").catalog_lookup)
    assert callable(NoiseModel.envelope_batch)


def test_names_used_by_the_micro_timings_resolve():
    rect1 = load_config(BENCH / "configs" / "dense-checkpoints.json").objective.build()
    cfg4 = load_config(BENCH / "configs" / "rotated-p4.json")
    rect4 = cfg4.objective.build()
    noise4 = cfg4.noise.build(rect4.dim)
    assert callable(rect1.g1) and callable(rect1.grad) and callable(rect4.grad)
    assert callable(noise4.sigma_at) and callable(noise4.envelope_batch)
    assert "record_stride" in inspect.signature(run_trajectory).parameters


@pytest.mark.parametrize("workload", sorted(p.stem for p in (BENCH / "configs").glob("*.json")))
def test_config_surface_used_by_the_runner_resolves(workload):
    # SETUP_CODE calls sgdlab.cli.load_config(path) with one argument, and
    # micro_timings reads objective, noise, schedule and run.theta0
    cfg = sgdlab.cli.load_config(BENCH / "configs" / f"{workload}.json")
    obj = cfg.objective.build()
    assert callable(obj.grad)
    assert callable(cfg.noise.build(obj.dim).sigma_at)
    assert isinstance(cfg.schedule, Schedule)
    assert len(list(cfg.run.theta0)) == obj.dim

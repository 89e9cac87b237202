"""The names the benchmark reaches into sgdlab by must exist, and its counts must hold.

bench/tracing.py wraps functions by module and attribute name and skips a
name it cannot find, so a renamed function would silently time as 0.  The
runner's micro-timings call a few per-step callables directly.  The
tracer's step counts come from the Trajectory records that the
run_trajectory calls of run_ensemble and of `stopping-times` return, one
call per trajectory; tiny runs of both check them against the trajectories'
own last_ks.  Its schedule counts come from the sizes `check`
passes the two schedule scans.  A traced `run` must reach each report writer
through its traced name, so the `reports.*` spans cannot read 0.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import sgdlab.cli
from sgdlab import reports
from sgdlab.config import load_config
from sgdlab.diagnostics import ConvergenceReport, EnsembleSpec, run_ensemble
from sgdlab.engine import Schedule, run_trajectory
from sgdlab.objectives import NoiseModel, NoiseSpec, Objective, ObjectiveSpec, catalog_lookup

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
    assert list(inspect.signature(run_trajectory).parameters) == [
        "oracle", "schedule", "theta0", "K", "seed", "record_stride"]


def test_traced_step_counts_match_the_ensemble():
    # log1p-abs from 2.0 (master seed 3): three trajectories leave the domain
    # within 14 steps, one runs the full horizon
    spec = EnsembleSpec(
        objective=ObjectiveSpec("log1p-abs"), noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(0.5, 0.75), theta0=(2.0,), horizon=200, n_trajectories=4,
        master_seed=3, record_stride=10)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        result = run_ensemble(spec)
    assert 0 < result.n_domain_violation < spec.n_trajectories
    assert tracer.counts["engine.steps"] == sum(result.last_ks)
    assert tracer.counts["engine.trajectories_truncated"] == sum(
        k < spec.horizon for k in result.last_ks)
    # one traced call per trajectory, each counted with its full (K+1) x (p+1) trace
    _, _, calls = tracer.summary()
    assert calls["engine.run_trajectory"] == spec.n_trajectories
    assert tracer.counts["engine.trace_bytes"] == 8 * (200 + 1) * (1 + 1) * spec.n_trajectories


def test_traced_stopping_times_run_each_trajectory_once(tmp_path, monkeypatch):
    # stopping-times reaches run_trajectory through diagnostics.run_member,
    # trajectory i of the ensemble, so its steps are counted like a run's
    members = []

    def record(spec, oracle, index, _run=sgdlab.diagnostics.run_member):
        members.append(index)
        return _run(spec, oracle, index)

    monkeypatch.setattr(sgdlab.diagnostics, "run_member", record)
    cfg = {"objective": {"name": "log1p-abs"},
           "noise": {"kind": "additive-gaussian", "sigma": 1.0},
           "schedule": {"family": "scalar-power", "c": 0.5, "beta": 0.75, "k0": 1, "p": 1},
           "run": {"theta0": [2.0], "K": 200, "n_trajectories": 4, "master_seed": 3},
           "output": {"directory": str(tmp_path / "out")}}
    path = tmp_path / "st.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert sgdlab.cli.main(["stopping-times", "--config", str(path)]) == 0
    entries = json.loads((tmp_path / "out" / "stopping_times.json").read_text())["trajectories"]
    last_ks = [entry["last_k"] for entry in entries]
    assert members == [0, 1, 2, 3]
    _, _, calls = tracer.summary()
    assert calls["engine.run_trajectory"] == 4
    assert tracer.counts["engine.steps"] == sum(last_ks)
    assert 0 < tracer.counts["engine.trajectories_truncated"] == sum(k < 200 for k in last_ks)


def test_traced_schedule_steps_match_the_check_sizes(tmp_path):
    # check-suite's steps_per_ref counts the indices that validate_schedule and
    # find_eigenvalue_threshold scan, from the arguments the CLI passes them
    cfg = json.loads((BENCH / "configs" / "check-suite.json").read_text(encoding="utf-8"))
    checks = cfg["checks"]
    checks.update(horizon=70000, descent={"n_pairs": 50}, variance={"n_samples": 50},
                  gradbound={"n_points": 50}, smoothness={"n_points": 2, "n_draws": 50},
                  lemma4={"C": 4.0, "K_max": 65537})
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "check.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert sgdlab.cli.main(["check", "--config", str(path)]) == 0
    assert tracer.counts["engine.schedule_steps"] == (70000 + 1) + (65537 + 1)


def test_traced_run_calls_each_report_writer_once(tmp_path, monkeypatch):
    # dense-checkpoints formats the same convergence columns for both writers;
    # each must still be one traced call with its documented payload
    payloads = {}
    for name in ("write_json", "write_checkpoints_csv"):
        def record(path, payload, _name=name, _write=getattr(reports, name)):
            payloads.setdefault(_name, []).append(payload)
            _write(path, payload)
        monkeypatch.setattr(reports, name, record)
    cfg = json.loads((BENCH / "configs" / "dense-checkpoints.json").read_text(encoding="utf-8"))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert sgdlab.cli.main(["run", "--config", str(path)]) == 0
    _, _, calls = tracer.summary()
    assert calls["reports.write_json"] == 1
    assert calls["reports.write_checkpoints_csv"] == 1
    assert calls["reports.ensemble_report_payload"] == 1
    [json_payload] = payloads["write_json"]
    [csv_payload] = payloads["write_checkpoints_csv"]
    assert isinstance(json_payload, dict)
    assert isinstance(csv_payload, ConvergenceReport)
    assert json_payload["convergence"] is csv_payload


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

"""Serialization contracts: report JSON documents carry exactly the typed
fields, CSV emission is RFC 4180 and parses back to the same values."""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sgdlab import cli, diagnostics, reports
from sgdlab.checkers import (
    check_descent_inequality,
    estimate_local_holder,
    probe_radial_conditions,
)
from sgdlab.diagnostics import EnsembleSpec, run_ensemble
from sgdlab.engine import Schedule, validate_schedule
from sgdlab.objectives import NoiseSpec, ObjectiveSpec, catalog_lookup
from sgdlab.reports import dumps_json, ensemble_report_payload, write_checkpoints_csv


def to_plain(obj):
    """The report object as the JSON document the reports contain."""
    return json.loads(dumps_json(obj))


def test_assumption_report_fields():
    obj = catalog_lookup("quadratic")
    report = check_descent_inequality(obj, 100, 1.0, 1.0, (-2.0, 2.0))
    doc = to_plain(report)
    assert set(doc) == {"assumption_id", "verdict", "worst_violation",
                        "witness", "tolerance"}


def test_schedule_report_fields():
    report = validate_schedule(Schedule.scalar(1.0, 0.75), 1.0, 100)
    doc = to_plain(report)
    assert set(doc) == {"alpha", "p2_partial_sum", "p2_verdict", "p3_verdict",
                        "p4_verdict", "analytic_basis", "horizon_used"}


def test_holder_estimate_fields():
    obj = catalog_lookup("quadratic")
    doc = to_plain(estimate_local_holder(obj, [1.0], 0.5, 1.0, 32))
    assert set(doc) == {"center", "radius", "alpha", "value", "n_samples", "method"}


def test_radial_probe_fields():
    obj = catalog_lookup("quadratic")
    G = lambda th: float(th @ th)
    probe = probe_radial_conditions(obj, G, 1.0, 0.5, [10.0, 100.0], 0.25)
    doc = to_plain(probe)
    assert set(doc) == {"radii", "records", "alpha", "r", "b_threshold",
                        "a5_trend", "a6_verdict"}
    assert set(doc["records"][0]) == {"radius", "grad_norm_sq", "L_r",
                                      "G_value", "ratio"}


def small_result():
    spec = EnsembleSpec(
        objective=ObjectiveSpec("quadratic"),
        noise=NoiseSpec("additive-gaussian", sigma=0.5),
        schedule=Schedule.scalar(0.5, 0.75),
        theta0=(1.0,),
        horizon=100,
        n_trajectories=3,
        master_seed=1,
        record_stride=10,
    )
    return run_ensemble(spec, gammas=[0.0])


def test_classification_and_convergence_fields():
    result = small_result()
    cls = to_plain(result.classifications[0])
    assert set(cls) == {"verdict", "window_length", "epsilon_conv", "R_div", "evidence"}
    assert set(cls["evidence"]) == {"window_range", "window_min"}
    conv = to_plain(result.convergence)
    for key in ("ks", "n_alive", "f_gap_mean", "f_gap_se", "grad_norm_mean",
                "grad_norm_sq_mean", "f_lim_estimates", "sup_mean_f",
                "gamma_moments", "final_decade_slope", "escape_total"):
        assert key in conv


def test_ensemble_payload_is_valid_json():
    payload = dumps_json(ensemble_report_payload(small_result()))
    parsed = json.loads(payload)
    assert parsed["spec"]["schedule"]["family"] == "scalar-power"
    assert len(parsed["seeds"]) == 3


def test_checkpoints_csv_round_trips(tmp_path):
    result = small_result()
    path = tmp_path / "checkpoints.csv"
    write_checkpoints_csv(path, result.convergence)
    raw = path.read_bytes()
    assert b"\r\n" in raw
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    conv = result.convergence
    assert len(rows) == len(conv.ks) * (13 + len(conv.gamma_moments))
    # spot-parse: values written with repr round-trip exactly
    mean_rows = [r for r in rows if r["statistic"] == "f_gap_mean"]
    for row, k, value in zip(mean_rows, result.convergence.ks,
                             result.convergence.f_gap_mean):
        assert int(row["k"]) == k
        assert float(row["value"]) == value


def test_numpy_scalars_and_arrays_serialize():
    doc = to_plain({"a": np.float64(1.5), "b": np.int64(3),
                       "c": np.array([1.0, float("nan")]), "d": float("inf")})
    assert doc == {"a": 1.5, "b": 3, "c": [1.0, None], "d": None}


# ---------------------------------------------------------------------------
# the run payload: each convergence column formatted once, as a snapshot
# ---------------------------------------------------------------------------

DENSE_CHECKPOINTS = Path(__file__).resolve().parent.parent / "bench" / "configs" / \
    "dense-checkpoints.json"


def _cli_run(tmp_path, monkeypatch):
    """Run dense-checkpoints' config through the CLI; the EnsembleResult it made."""
    results = []

    def record(*args, **kwargs):
        results.append(run_ensemble(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(diagnostics, "run_ensemble", record)
    cfg = json.loads(DENSE_CHECKPOINTS.read_text(encoding="utf-8"))
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 0
    [result] = results
    return result


def _columns(conv):
    """The list columns of a convergence report and its gamma moments."""
    columns = {f.name: getattr(conv, f.name) for f in dataclasses.fields(conv)
               if isinstance(getattr(conv, f.name), list)}
    columns.update({("gamma_moments", g): v for g, v in conv.gamma_moments.items()})
    return columns


def test_cli_run_leaves_only_the_dataclass_fields_on_the_report(tmp_path, monkeypatch):
    conv = _cli_run(tmp_path, monkeypatch).convergence
    assert set(vars(conv)) == {f.name for f in dataclasses.fields(conv)}


def test_cli_run_formats_each_convergence_column_at_most_once(tmp_path, monkeypatch):
    formatted = []

    def record(values):
        if not isinstance(values, reports._Column):
            formatted.append(list(values))
        return texts(values)

    texts = reports._texts
    monkeypatch.setattr(reports, "_texts", record)
    columns = _columns(_cli_run(tmp_path, monkeypatch).convergence)
    assert len(columns) == 20
    for name, values in columns.items():
        assert formatted.count(values) <= 1, name


_MUTATIONS = {
    "set-item": lambda conv: conv.grad_norm_se.__setitem__(2, math.inf),
    "replace-column": lambda conv: setattr(conv, "f_gap_mean", [2.0 * x for x in conv.f_gap_mean]),
    "append": lambda conv: conv.ks.append(10**6),
    "gamma-set-item": lambda conv: conv.gamma_moments[0.0].__setitem__(1, 2.5),
    "replace-gammas": lambda conv: setattr(conv, "gamma_moments", {0.25: [1.0]}),
}


@pytest.mark.parametrize("mutate", sorted(_MUTATIONS))
def test_payload_is_a_snapshot_of_the_convergence_report(mutate):
    result = small_result()
    payload = ensemble_report_payload(result)
    _MUTATIONS[mutate](result.convergence)
    assert dumps_json(payload) == dumps_json(ensemble_report_payload(small_result()))


def test_payload_convergence_writes_the_bytes_of_the_plain_report(tmp_path):
    # log1p-abs from 3.0: every trajectory leaves the domain before the
    # horizon, so the late checkpoints' statistics are NaN
    spec = EnsembleSpec(
        objective=ObjectiveSpec("log1p-abs"), noise=NoiseSpec("additive-gaussian", sigma=1.0),
        schedule=Schedule.scalar(0.5, 0.75), theta0=(3.0,), horizon=200, n_trajectories=3,
        master_seed=3, record_stride=10)
    result = run_ensemble(spec, gammas=[0.0, 0.5])
    conv = result.convergence
    assert result.n_domain_violation == 3 and conv.n_alive[-1] == 0
    assert math.isnan(conv.f_gap_mean[-1]) and not math.isnan(conv.f_gap_mean[0])
    frozen = ensemble_report_payload(result)["convergence"]
    write_checkpoints_csv(tmp_path / "payload.csv", frozen)
    write_checkpoints_csv(tmp_path / "plain.csv", conv)
    assert (tmp_path / "payload.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert dumps_json(frozen) == dumps_json(conv)

"""Serialization contracts: report JSON documents carry exactly the typed
fields, CSV emission is RFC 4180 and parses back to the same values."""

import csv
import io
import json

import numpy as np

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

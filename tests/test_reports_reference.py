"""Differential tests: the report emitters against reference copies.

`_reference_to_jsonable` with `json.dumps(indent=2, sort_keys=True,
allow_nan=False)`, and `csv.writer(lineterminator="\\r\\n")` with
`_reference_fmt` and the row builders, are the emitters that
`sgdlab.reports` replaced, kept verbatim apart from their names.  Every file
the CLI writes must have the bytes the reference writes from the same
payload, and so must arbitrary nested payloads and CSV cells.  The texts that
the two `run` writers share must never be stale: not across commands, and not
after a report column changed between the two writes.
"""

import csv
import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab import reports
from sgdlab.cli import main
from sgdlab.diagnostics import CaptureReport, ConvergenceReport, EnsembleSpec, run_ensemble
from sgdlab.engine import Schedule
from sgdlab.objectives import NoiseSpec, ObjectiveSpec

# ---------------------------------------------------------------------------
# reference emitters
# ---------------------------------------------------------------------------


def _reference_to_jsonable(obj):
    """Recursively convert dataclasses / numpy values to plain JSON types."""
    if isinstance(obj, CaptureReport):
        d = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
             if f.name not in ("empirical", "theoretical_tail")}
        return _reference_to_jsonable(d)
    if isinstance(obj, Schedule):
        return {
            "family": obj.family,
            "c": _reference_to_jsonable(obj.c),
            "beta": _reference_to_jsonable(obj.beta),
            "k0": obj.k0,
            "p": obj.dim,
            "rotation_seed": obj.rotation_seed,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _reference_dumps_json(payload) -> str:
    return json.dumps(_reference_to_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _reference_write_json(path, payload) -> None:
    Path(path).write_text(_reference_dumps_json(payload), encoding="utf-8")


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if not math.isfinite(value) else repr(value)
    return str(value)


def _reference_write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(v) for v in row])


def _reference_checkpoint_rows(report: ConvergenceReport):
    """Long-format rows (k, statistic, value, stderr) for plotting tools."""
    stats = [
        ("f_gap_mean", report.f_gap_mean, report.f_gap_se),
        ("f_gap_median", report.f_gap_median, None),
        ("f_gap_q25", report.f_gap_q25, None),
        ("f_gap_q75", report.f_gap_q75, None),
        ("grad_norm_mean", report.grad_norm_mean, report.grad_norm_se),
        ("grad_norm_median", report.grad_norm_median, None),
        ("grad_norm_q25", report.grad_norm_q25, None),
        ("grad_norm_q75", report.grad_norm_q75, None),
        ("grad_norm_sq_mean", report.grad_norm_sq_mean, report.grad_norm_sq_se),
        ("grad_norm_sq_median", report.grad_norm_sq_median, None),
        ("grad_norm_sq_q25", report.grad_norm_sq_q25, None),
        ("grad_norm_sq_q75", report.grad_norm_sq_q75, None),
        ("n_alive", report.n_alive, None),
    ]
    rows = []
    for i, k in enumerate(report.ks):
        for name, values, ses in stats:
            rows.append((k, name, values[i], None if ses is None else ses[i]))
        if report.gamma_moments:
            for gamma in sorted(report.gamma_moments):
                rows.append((k, f"f_gap_gamma_moment[{gamma:g}]",
                             report.gamma_moments[gamma][i], None))
    return rows


def _reference_write_checkpoints_csv(path, report: ConvergenceReport) -> None:
    _reference_write_csv(path, ["k", "statistic", "value", "stderr"],
                         _reference_checkpoint_rows(report))


def _reference_radial_probe_rows(probe):
    return [
        (rec.radius, rec.grad_norm_sq, rec.L_r, rec.G_value, rec.ratio)
        for rec in probe.records
    ]


def _reference_write_radial_csv(path, probe) -> None:
    _reference_write_csv(path, ["radius", "grad_norm_sq", "L_r", "G_value", "ratio"],
                         _reference_radial_probe_rows(probe))


def _reference_stopping_times_rows(all_taus):
    rows = []
    for i, st in enumerate(all_taus):
        for j, tau in enumerate(st.taus):
            rows.append((i, j, tau))
    return rows


def _reference_write_stopping_times_csv(path, all_taus) -> None:
    _reference_write_csv(path, ["trajectory", "tau_index", "tau"],
                         _reference_stopping_times_rows(all_taus))


REFERENCE = {
    "write_json": _reference_write_json,
    "write_checkpoints_csv": _reference_write_checkpoints_csv,
    "write_radial_csv": _reference_write_radial_csv,
    "write_stopping_times_csv": _reference_write_stopping_times_csv,
}

# ---------------------------------------------------------------------------
# every file the CLI writes
# ---------------------------------------------------------------------------


def _config(outdir, **blocks):
    cfg = {
        "objective": {"name": "quadratic"},
        "noise": {"kind": "additive-gaussian", "sigma": 1.0},
        "schedule": {"family": "scalar-power", "c": 1.0, "beta": 0.75, "k0": 1, "p": 1},
        "run": {"theta0": [1.0], "K": 500, "n_trajectories": 4,
                "master_seed": 11, "record_stride": 50},
        "diagnostics": {"capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": 0.5},
                        "gammas": [0.0, 0.5]},
        "checks": {"alpha": 1.0, "horizon": 10000, "lemma4": {"C": 4.0, "K_max": 1000}},
        "output": {"directory": str(outdir), "formats": ["json", "csv"]},
    }
    cfg.update(blocks)
    return cfg


# Scalar step 2 and huge noise make theta_{k+1} = -theta_k + noise a random
# walk that overflows THETA_CAP at a different step on each trajectory, so
# later checkpoints have 0 < n_alive < N and finally n_alive = 0 (NaN columns).
_TRUNCATED = dict(
    noise={"kind": "additive-gaussian", "sigma": 1e149},
    schedule={"family": "scalar-power", "c": 2.0, "beta": 0.0, "k0": 1, "p": 1},
    run={"theta0": [1.0], "K": 100, "n_trajectories": 6, "master_seed": 3,
         "record_stride": 1},
)
_ROTATED = dict(
    objective={"name": "smooth-rectifier", "dimension": 2},
    noise={"kind": "additive-gaussian-statedep", "sigma_expr": "0.5*(1+norm(theta))"},
    schedule={"family": "rotated-diagonal-power", "c": [0.5, 0.2],
              "beta": [0.75, 0.8], "k0": 2, "p": 2, "rotation_seed": 9},
    run={"theta0": [1.0, -1.0], "K": 300, "n_trajectories": 3, "master_seed": 5,
         "record_stride": 7},
    diagnostics={"gammas": [0.25]},
)

SCENARIOS = {
    "run-capture-gammas": (["run"], {}, {"write_json", "write_checkpoints_csv"}),
    "run-truncated": (["run"], _TRUNCATED, {"write_json", "write_checkpoints_csv"}),
    "run-rotated": (["run"], _ROTATED, {"write_json", "write_checkpoints_csv"}),
    "check-all": (["check"], {}, {"write_json", "write_radial_csv"}),
    "stopping-times": (["stopping-times"], {}, {"write_json", "write_stopping_times_csv"}),
}


def _record_writes(monkeypatch):
    """Route the reports writers through a recorder; returns its call list."""
    calls = []
    for name in REFERENCE:
        def record(path, payload, _name=name, _write=getattr(reports, name)):
            calls.append((_name, Path(path), payload))
            _write(path, payload)
        monkeypatch.setattr(reports, name, record)
    return calls


def _assert_bit_equal_to_reference(calls, ref_dir):
    ref_dir.mkdir()
    for name, path, payload in calls:
        REFERENCE[name](ref_dir / path.name, payload)
        assert path.read_bytes() == (ref_dir / path.name).read_bytes(), path.name


def _run_cli(tmp_path, argv, cfg):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--config", str(cfg_path)]) in (0, 1)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cli_reports_bit_equal_to_reference(tmp_path, monkeypatch, scenario):
    argv, blocks, writers = SCENARIOS[scenario]
    calls = _record_writes(monkeypatch)
    _run_cli(tmp_path, argv, _config(tmp_path / "out", **blocks))

    assert {name for name, _, _ in calls} == writers
    if scenario == "check-all":
        assert len(calls) == 8  # seven JSON reports and radial_probe.csv
    _assert_bit_equal_to_reference(calls, tmp_path / "reference")
    if scenario == "run-truncated":
        assert b"null" in (tmp_path / "out" / "ensemble_report.json").read_bytes()
        assert b",f_gap_mean,,\r\n" in (tmp_path / "out" / "checkpoints.csv").read_bytes()


# ---------------------------------------------------------------------------
# strings formatted once for both run reports
# ---------------------------------------------------------------------------


def test_two_runs_in_one_process_each_write_their_own_bytes(tmp_path, monkeypatch):
    # Equal shapes, other seeds: no text formatted for the first run's report
    # may reach the second run's files, even where the second report takes
    # the memory the first one freed.
    calls = _record_writes(monkeypatch)
    for seed in (11, 12):
        cfg = _config(tmp_path / f"out{seed}")
        cfg["run"]["master_seed"] = seed
        _run_cli(tmp_path, ["run"], cfg)
        assert [name for name, _, _ in calls] == ["write_json", "write_checkpoints_csv"]
        _assert_bit_equal_to_reference(calls, tmp_path / f"reference{seed}")
        calls.clear()
    for name in ("ensemble_report.json", "checkpoints.csv"):
        assert (tmp_path / "out11" / name).read_bytes() != (tmp_path / "out12" / name).read_bytes()


def _append_checkpoint(conv):
    for field in dataclasses.fields(conv):
        values = getattr(conv, field.name)
        if isinstance(values, list) and field.name != "f_lim_estimates":
            values.append({"ks": 10**6, "n_alive": 1}.get(field.name, 0.5))
    for values in conv.gamma_moments.values():
        values.append(1.5)


# Each changes the report after its first write, in place or by replacing a
# column; f_gap_median[1] is 0.0 at the first write.
_CHANGES = {
    "replace-column": lambda conv: setattr(conv, "f_gap_mean", [2.0 * x for x in conv.f_gap_mean]),
    "set-item": lambda conv: conv.grad_norm_se.__setitem__(2, math.inf),
    "negative-zero": lambda conv: conv.f_gap_median.__setitem__(1, -0.0),  # == 0.0
    "int-to-float": lambda conv: conv.n_alive.__setitem__(0, float(conv.n_alive[0])),
    "append-checkpoint": _append_checkpoint,
    "gamma-in-place": lambda conv: conv.gamma_moments[0.5].reverse(),
    "replace-gammas": lambda conv: setattr(conv, "gamma_moments", {0.25: list(conv.f_gap_q75)}),
    "mixed-kinds": lambda conv: setattr(conv, "grad_norm_q25", [None, *conv.grad_norm_q25[1:]]),
}


@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_convergence_column_changed_between_writes_is_written_new(tmp_path, change):
    spec = EnsembleSpec(
        objective=ObjectiveSpec("quadratic"), noise=NoiseSpec("additive-gaussian", sigma=0.5),
        schedule=Schedule.scalar(0.5, 0.75), theta0=(1.0,), horizon=60, n_trajectories=3,
        master_seed=1, record_stride=10)
    conv = run_ensemble(spec, gammas=[0.0, 0.5]).convergence
    conv.f_gap_median[1] = 0.0
    reports.write_json(tmp_path / "old.json", {"convergence": conv})

    _CHANGES[change](conv)
    reports.write_checkpoints_csv(tmp_path / "new.csv", conv)
    reports.write_json(tmp_path / "new.json", {"convergence": conv})

    _reference_write_checkpoints_csv(tmp_path / "ref.csv", conv)
    _reference_write_json(tmp_path / "ref.json", {"convergence": conv})
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "new.json").read_bytes() != (tmp_path / "old.json").read_bytes()


# ---------------------------------------------------------------------------
# arbitrary payloads
# ---------------------------------------------------------------------------

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   1.1125369292536007e-308, 2.2250738585072014e-308, 1e16, 1e-7,
                   1.7976931348623157e308, 0.1]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_ints = st.one_of(st.integers(), st.integers(min_value=2**63 - 2, max_value=2**70),
                  st.integers(min_value=-(2**70), max_value=-(2**63)))
_texts = st.text(st.one_of(st.sampled_from('",\\\n\r\t\x00\x1f\x7f éß€😀'),
                           st.characters()), max_size=8)
_numpy = st.one_of(
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.lists(_floats, max_size=5).map(np.array),
    st.lists(st.integers(-(2**62), 2**62), max_size=5).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(_floats, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)),
)
_leaves = st.one_of(_floats, _ints, st.booleans(), st.none(), _texts, _numpy,
                    st.lists(_floats, max_size=6), st.lists(_ints, max_size=6))
_keys = st.one_of(_texts, _ints, _floats, st.booleans())
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_payloads)
@example({10: 1, 9: [], 0.5: {}, "a": [[], {}], 2**64: -0.0})
@example({"escape_counts": {3: 1, 10: 2, 9: 4}, "gamma_moments": {0.0: [1.0], 0.25: []}})
@example([math.nan, 1.0, math.inf])
@example([1, True, 2])
@example(np.array([[1.0, math.nan], [-math.inf, 5e-324]]))
def test_dumps_json_bit_equal_to_reference(payload):
    assert reports.dumps_json(payload) == _reference_dumps_json(payload)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


_cells = st.one_of(_floats, _ints, st.booleans(), st.none(), _texts,
                   _floats.map(np.float64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_cells, min_size=5, max_size=5), max_size=3),
       st.lists(st.lists(_ints, max_size=3), max_size=3))
@example([["a,b", 'say "hi"', "two\nlines", "cr\rhere", ""]], [[]])
@example([[math.nan, math.inf, None, -0.0, 1e16]], [[0, 2**64]])
def test_csv_writers_bit_equal_to_reference(csv_dir, rows, taus):
    out = csv_dir
    fields = ("radius", "grad_norm_sq", "L_r", "G_value", "ratio")
    probe = SimpleNamespace(records=[SimpleNamespace(**dict(zip(fields, row)))
                                     for row in rows])
    reports.write_radial_csv(out / "new.csv", probe)
    _reference_write_radial_csv(out / "ref.csv", probe)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    all_taus = [SimpleNamespace(taus=t) for t in taus]
    reports.write_stopping_times_csv(out / "new_st.csv", all_taus)
    _reference_write_stopping_times_csv(out / "ref_st.csv", all_taus)
    assert (out / "new_st.csv").read_bytes() == (out / "ref_st.csv").read_bytes()

"""CLI tests: exit codes, file outputs, config round-trip, overrides."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgdlab.cli import main
from sgdlab.config import config_from_dict, load_config
from sgdlab.errors import ConfigError


def base_config(outdir, **overrides):
    cfg = {
        "objective": {"name": "quadratic"},
        "noise": {"kind": "additive-gaussian", "sigma": 1.0},
        "schedule": {"family": "scalar-power", "c": 1.0, "beta": 0.75, "k0": 1, "p": 1},
        "run": {"theta0": [1.0], "K": 500, "n_trajectories": 4,
                "master_seed": 11, "record_stride": 50},
        "diagnostics": {"capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": 0.5},
                        "gammas": [0.0, 0.5]},
        "output": {"directory": str(outdir)},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_reports_and_exits_zero(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "out" / "ensemble_report.json").exists()
    assert (tmp_path / "out" / "checkpoints.csv").exists()
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["spec"]["n_trajectories"] == 4
    assert len(report["classifications"]) == 4
    assert report["capture"]["G_R"] == 2.0
    csv_bytes = (tmp_path / "out" / "checkpoints.csv").read_bytes()
    assert csv_bytes.startswith(b"k,statistic,value,stderr\r\n")


def test_run_refuses_overwrite_without_force(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 2
    assert main(["run", "--config", cfg_path, "--force"]) == 0


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    first = (tmp_path / "out" / "ensemble_report.json").read_bytes()
    first_csv = (tmp_path / "out" / "checkpoints.csv").read_bytes()
    assert main(["run", "--config", cfg_path, "--force"]) == 0
    assert (tmp_path / "out" / "ensemble_report.json").read_bytes() == first
    assert (tmp_path / "out" / "checkpoints.csv").read_bytes() == first_csv


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["runn"] = cfg.pop("run")
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("block,key,literal", [
    ("run", "K", "1e400"),                                 # JSON reads it as inf
    ("schedule", "beta", '"x"'),
    ("noise", "sigma_expr", '"0.1*(1+norm(theta)"'),       # unclosed parenthesis
    ("run", "K", "null"),                                  # null only where the default is
    ("run", "K", "1e300"),                                 # sizes are at most 2**53
])
def test_malformed_config_value_exits_2(tmp_path, capsys, block, key, literal):
    cfg = base_config(tmp_path / "out")
    if block == "noise":
        cfg["noise"] = {"kind": "additive-gaussian-statedep"}
    cfg[block][key] = "@VALUE@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@VALUE@"', literal), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("sgdlab: config error:")
    with pytest.raises(ConfigError):
        load_config(path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr", ["log(-1.0)+0*norm(theta)", "-0.5*(1+norm(theta))"])
@pytest.mark.parametrize("argv", [["run"], ["check", "--which", "variance"]])
def test_nonfinite_or_negative_sigma_exits_2(tmp_path, capsys, expr, argv):
    # sigma must be finite and >= 0 where it is evaluated; a NaN would
    # otherwise cut every trajectory at k=0 as "overflow" and exit 0
    cfg = base_config(tmp_path / "out")
    cfg["noise"] = {"kind": "additive-gaussian-statedep", "sigma_expr": expr}
    cfg["objective"]["dimension"] = 2
    cfg["schedule"]["p"] = 2
    cfg["run"].update(theta0=[1.0, 1.0], K=200, n_trajectories=4)
    cfg["diagnostics"] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main([*argv, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error: sigma expression")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("K,flags", [(10**15, []), (500, ["--horizon", str(10**30)])])
def test_unallocatable_size_exits_2(tmp_path, capsys, K, flags):
    # a 10**15-step trace needs 8 PB, more than any address space, so numpy
    # refuses it at once; a flag above 2**53 is refused like a config value
    cfg = base_config(tmp_path / "out")
    cfg["run"]["K"] = K
    assert main(["run", "--config", write_config(tmp_path, cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:")
    assert len(err.splitlines()) == 1


def test_domain_violating_theta0_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["run"]["theta0"] = [0.5]
    cfg["diagnostics"] = {}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "0.5" in err  # offending point printed


def test_jobs_flag_produces_identical_output(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "a"))
    assert main(["run", "--config", cfg_path]) == 0
    cfg_path2 = write_config(tmp_path, base_config(tmp_path / "b"), name="c2.json")
    assert main(["run", "--config", cfg_path2, "--jobs", "2"]) == 0
    a = (tmp_path / "a" / "ensemble_report.json").read_bytes()
    b = (tmp_path / "b" / "ensemble_report.json").read_bytes()
    assert a == b


def test_formats_subset_json_only(tmp_path):
    cfg = base_config(tmp_path / "out", output={"directory": str(tmp_path / "out"),
                                                "formats": ["json"]})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out" / "ensemble_report.json").exists()
    assert not (tmp_path / "out" / "checkpoints.csv").exists()


# ---------------------------------------------------------------------------
# overrides and environment
# ---------------------------------------------------------------------------

def test_env_seed_overrides_file(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    monkeypatch.setenv("SGDLAB_SEED", "999")
    assert main(["run", "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["spec"]["master_seed"] == 999


def test_flag_overrides_env_and_file(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    monkeypatch.setenv("SGDLAB_SEED", "999")
    assert main(["run", "--config", cfg_path, "--master-seed", "123"]) == 0
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["spec"]["master_seed"] == 123


def test_invalid_env_seed_exits_2(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    monkeypatch.setenv("SGDLAB_SEED", "not-a-number")
    assert main(["run", "--config", cfg_path]) == 2


def test_horizon_and_output_dir_flags(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path, "--horizon", "100",
                 "--output-dir", str(tmp_path / "alt")]) == 0
    report = json.loads((tmp_path / "alt" / "ensemble_report.json").read_text())
    assert report["spec"]["horizon"] == 100


# ---------------------------------------------------------------------------
# check / probe-radial / validate-schedule / stopping-times
# ---------------------------------------------------------------------------

def test_check_all_pass_for_sane_setup(tmp_path):
    # every check on the default quadratic + gaussian + beta=0.75 setup passes
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = {"alpha": 1.0, "horizon": 10000, "lemma4": {"C": 4.0, "K_max": 1000}}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["check", "--config", cfg_path]) == 0
    for stem in ("schedule_report", "descent_report", "variance_report",
                 "gradbound_report", "smoothness_report", "radial_probe",
                 "lemma4_report"):
        assert (tmp_path / "out" / f"{stem}.json").exists()
    sched = json.loads((tmp_path / "out" / "schedule_report.json").read_text())
    assert sched["report"]["p2_verdict"] == "pass"
    lemma4 = json.loads((tmp_path / "out" / "lemma4_report.json").read_text())
    assert lemma4["report"]["threshold"] == 6
    probe = json.loads((tmp_path / "out" / "radial_probe.json").read_text())
    assert probe["report"]["a6_verdict"] == "satisfied-at-horizon"


def test_check_inconclusive_counts_as_ok(tmp_path):
    # no global Hölder constant declared: gradbound is inconclusive, exit 0
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "log1p-abs"}
    cfg["run"]["theta0"] = [3.0]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["check", "--config", cfg_path, "--which", "gradbound"]) == 0
    report = json.loads((tmp_path / "out" / "gradbound_report.json").read_text())
    assert report["report"]["verdict"] == "inconclusive"


def test_check_summability_failure_exits_1(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["schedule"]["beta"] = 1.2  # sum of lambda_min converges: requirement fails
    cfg_path = write_config(tmp_path, cfg)
    assert main(["check", "--config", cfg_path, "--which", "p1p2p3p4"]) == 1
    report = json.loads((tmp_path / "out" / "schedule_report.json").read_text())
    assert report["report"]["p3_verdict"] == "fail"


def test_check_unknown_name_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["check", "--config", cfg_path, "--which", "nonsense"]) == 2


def test_probe_radial_counterexample_exits_1(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["noise"] = {"kind": "rademacher-radial"}
    cfg["run"]["theta0"] = [100.0]
    cfg["diagnostics"] = {"radii": [1e2, 1e3, 1e4, 1e5, 1e6], "alpha": 1.0,
                          "r": 0.5, "b_threshold": 0.25}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["probe-radial", "--config", cfg_path]) == 1
    probe = json.loads((tmp_path / "out" / "radial_probe.json").read_text())
    assert probe["report"]["a6_verdict"] == "violated-at-horizon"
    assert (tmp_path / "out" / "radial_probe.csv").exists()


def test_probe_radial_quadratic_exits_0(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["noise"] = {"kind": "rademacher-radial"}
    cfg["diagnostics"] = {"radii": [10.0, 100.0, 1000.0], "alpha": 1.0,
                          "r": 0.5, "b_threshold": 0.25}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["probe-radial", "--config", cfg_path]) == 0
    probe = json.loads((tmp_path / "out" / "radial_probe.json").read_text())
    assert probe["report"]["a6_verdict"] == "satisfied-at-horizon"


def test_validate_schedule_subcommand(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["validate-schedule", "--config", cfg_path]) == 0
    assert (tmp_path / "out" / "schedule_report.json").exists()


def test_stopping_times_subcommand(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["noise"] = {"kind": "rademacher-radial"}
    cfg["run"] = {"theta0": [100.0], "K": 2000, "n_trajectories": 3,
                  "master_seed": 5, "record_stride": 1}
    cfg["diagnostics"] = {}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["stopping-times", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "stopping_times.json").read_text())
    assert len(data["trajectories"]) == 3
    for entry in data["trajectories"]:
        taus = entry["taus"]
        assert taus[0] == 0
        assert all(b > a for a, b in zip(taus, taus[1:]))
    assert (tmp_path / "out" / "stopping_times.csv").exists()


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------

def test_config_round_trip_is_lossless(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["schedule"] = {"family": "rotated-diagonal-power", "c": [0.5, 0.2],
                       "beta": [0.75, 0.8], "k0": 2, "p": 2, "rotation_seed": 9}
    cfg["objective"] = {"name": "power-q", "q": 3.0, "dimension": 2}
    cfg["run"]["theta0"] = [2.0, 2.0]
    parsed = config_from_dict(cfg)
    normalized = parsed.to_dict()
    reparsed = config_from_dict(json.loads(json.dumps(normalized)))
    assert reparsed.to_dict() == normalized


def test_config_accepts_q_seed_alias(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["schedule"] = {"family": "rotated-diagonal-power", "c": [0.5, 0.2],
                       "beta": [0.75, 0.8], "k0": 1, "p": 2, "q_seed": 4}
    cfg["objective"] = {"name": "quadratic", "dimension": 2}
    cfg["run"]["theta0"] = [1.0, 1.0]
    parsed = config_from_dict(cfg)
    assert parsed.schedule.rotation_seed == 4
    assert parsed.to_dict()["schedule"]["rotation_seed"] == 4


def test_config_rejects_bad_values(tmp_path):
    good = base_config(tmp_path / "out")
    for mutation in [
        {"objective": {"name": "no-such"}},
        {"noise": {"kind": "bad-kind"}},
        {"schedule": {"family": "scalar-power", "c": -1.0, "beta": 0.75, "k0": 1, "p": 1}},
        {"run": {"theta0": [1.0], "K": 0}},
        {"output": {"directory": "x", "formats": ["yaml"]}},
    ]:
        cfg = {**good, **mutation}
        with pytest.raises(ConfigError):
            config_from_dict(cfg)


def test_flags_have_config_equivalents(tmp_path):
    # force, jobs, and check selection can all come from the file
    cfg = base_config(tmp_path / "out")
    cfg["output"]["force"] = True
    cfg["run"]["jobs"] = 2
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0  # overwrite allowed by config

    cfg2 = base_config(tmp_path / "out2")
    cfg2["checks"] = {"which": ["p1p2p3p4"], "horizon": 1000}
    cfg2_path = write_config(tmp_path, cfg2, name="c2.json")
    assert main(["check", "--config", cfg2_path]) == 0
    assert (tmp_path / "out2" / "schedule_report.json").exists()
    assert not (tmp_path / "out2" / "variance_report.json").exists()


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")


def test_cli_help_does_not_crash():
    assert main(["--help"]) == 0

"""CLI tests: exit codes, file outputs, config validation, overrides."""

import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdlab
from sgdlab import cli, diagnostics, engine, reports
from sgdlab.cli import build_parser, main
from sgdlab.config import REQUIRED, SCHEMA, config_from_dict, load_config
from sgdlab.engine import Schedule, run_trajectory
from sgdlab.errors import ConfigError, DomainError
from sgdlab.objectives import NoiseModel, StochasticOracle, catalog_lookup


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


def _in_a_fresh_process(code: str, *args: str, env: dict | None = None) -> list[str]:
    """The stdout lines of `python -c code *args`, with this sgdlab importable
    and env laid over this process's environment."""
    src = str(Path(sgdlab.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    return out.stdout.splitlines()


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


@pytest.mark.parametrize("command,which,blocked,written", [
    pytest.param("run", [], "checkpoints.csv", "ensemble_report.json", id="run"),
    pytest.param("check", ["--which", "descent,lemma4"], "lemma4_report.json",
                 "descent_report.json", id="check"),
])
def test_force_refuses_a_report_path_that_is_a_directory(
        tmp_path, capsys, command, which, blocked, written):
    # a directory in a report's place is refused before any compute, with
    # --force too: no traceback, and none of the command's reports written
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(ALL_CHECKS)
    (tmp_path / "out" / blocked).mkdir(parents=True)
    argv = [command, "--config", write_config(tmp_path, cfg), "--force", *which]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"sgdlab: config error: cannot write {tmp_path / 'out' / blocked}: " \
                  "it is a directory\n"
    assert not (tmp_path / "out" / written).exists()


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    first = (tmp_path / "out" / "ensemble_report.json").read_bytes()
    first_csv = (tmp_path / "out" / "checkpoints.csv").read_bytes()
    assert main(["run", "--config", cfg_path, "--force"]) == 0
    assert (tmp_path / "out" / "ensemble_report.json").read_bytes() == first
    assert (tmp_path / "out" / "checkpoints.csv").read_bytes() == first_csv


@pytest.mark.parametrize("target", ["missing/checkpoints.csv", "elsewhere.csv"],
                         ids=["dangling", "to-a-file"])
def test_run_replaces_a_symlinked_report_instead_of_writing_through_it(tmp_path, target):
    # a link into a missing directory: the run wrote ensemble_report.json and
    # then raised FileNotFoundError through the link, leaving half a set
    (tmp_path / "elsewhere.csv").write_bytes(b"keep")
    out = tmp_path / "out"
    out.mkdir()
    (out / "checkpoints.csv").symlink_to(tmp_path / target)
    assert main(["run", "--config", write_config(tmp_path, base_config(out)), "--force"]) == 0
    assert main(["run", "--config", write_config(
        tmp_path, base_config(tmp_path / "fresh"), "fresh.json")]) == 0
    assert sorted(os.listdir(out)) == ["checkpoints.csv", "ensemble_report.json"]
    assert not (out / "checkpoints.csv").is_symlink()
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "elsewhere.csv").read_bytes() == b"keep"
    assert not (tmp_path / "missing").exists()


def test_a_report_set_whose_second_write_fails_leaves_the_earlier_set(
        tmp_path, capsys, monkeypatch):
    # the rerun wrote its ensemble_report.json in place, then the disk-full
    # OSError from checkpoints.csv left the run with a traceback and a mixed set
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg_path]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    def disk_full(path, payload):
        Path(path).write_bytes(b"k,stat")  # part of the file, then no space
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(reports, "write_checkpoints_csv", disk_full)
    # another seed: a report that the rerun replaced would have other bytes
    assert main(["run", "--config", cfg_path, "--force", "--master-seed", "12"]) == 2
    assert capsys.readouterr().err == (
        f"sgdlab: config error: cannot write {out / 'checkpoints.csv'}: "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


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
    ("noise", "direction", "[1e400]"),                     # entries must be finite
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


@pytest.mark.parametrize("argv", [["run"], ["check", "--which", "smoothness"]])
def test_sigma_whose_square_overflows_exits_2(tmp_path, capsys, argv):
    # Python's 1e200 ** 2 raised OverflowError in the noise constants: exit 1
    cfg = base_config(tmp_path / "out", diagnostics={})
    cfg["noise"] = {"kind": "additive-gaussian", "sigma": 1e200}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error: invalid noise: sigma must have a finite")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr", [
    "[t.__class__.__mro__[-1].__subclasses__() for t in [theta]][0] and 0.1",
    "(lambda: theta.__class__)() and 0.1",
    "[*(t.__class__ for t in [theta])][0] and 0.1",
])
def test_sigma_expression_with_a_disallowed_nested_name_exits_2(tmp_path, capsys, expr):
    cfg = base_config(tmp_path / "out", diagnostics={})
    cfg["noise"] = {"kind": "additive-gaussian-statedep", "sigma_expr": expr}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:")
    assert err.endswith("sigma expression uses disallowed name '__class__'\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


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


LONG_INT = "1" + "0" * 399  # beyond float64, so math.isfinite would overflow on it


@pytest.mark.parametrize("where,literal,message", [
    pytest.param("run", "5", "'run' block must be a JSON object", id="run"),
    pytest.param("output", "3", "'output' block must be a JSON object", id="output"),
    pytest.param("diagnostics", '"x"', "'diagnostics' block must be a JSON object",
                 id="diagnostics"),
    pytest.param("diagnostics.capture", "1", "'diagnostics.capture' block must be a JSON object",
                 id="diagnostics.capture"),
    pytest.param("checks", "[]", "'checks' block must be a JSON object", id="checks"),
    pytest.param("checks.descent", "1", "'checks.descent' block must be a JSON object",
                 id="checks.descent"),
    pytest.param("output.directory", "null", "output.directory must be a string",
                 id="output.directory-null"),  # was written to a directory named None
    pytest.param("run.K", LONG_INT, "run.K must be an integer from 1 to 2**53",
                 id="run.K-400-digits"),
    # sizes, counts and horizons are >= 1: n_pairs 0 or -1 crashed `check` in numpy,
    # and smoothness over 0 points passed
    pytest.param("checks.descent.n_pairs", "0", "checks.descent.n_pairs must be an integer",
                 id="checks.descent.n_pairs-0"),
    pytest.param("checks.variance.n_samples", "-1", "checks.variance.n_samples must be an",
                 id="checks.variance.n_samples-negative"),
    pytest.param("checks.smoothness.n_points", "0", "checks.smoothness.n_points must be an",
                 id="checks.smoothness.n_points-0"),
    pytest.param("noise.sigma", LONG_INT, "noise.sigma is beyond the float64 range",
                 id="noise.sigma-400-digits"),
    pytest.param("schedule.c", LONG_INT, "schedule.c is beyond the float64 range",
                 id="schedule.c-400-digits"),
    pytest.param("run.theta0", f"[{LONG_INT}]", "run.theta0 entry is beyond the float64",
                 id="run.theta0-400-digits"),
    # verdict constants and alphas that make a verdict meaningless: with
    # epsilon_conv -1 and R_div -5 every run read diverging-like, and checks.alpha 7
    # ran descent and gradbound to two fail reports
    pytest.param("diagnostics.epsilon_conv", "-1", "diagnostics.epsilon_conv must be > 0",
                 id="diagnostics.epsilon_conv-negative"),
    pytest.param("diagnostics.epsilon_conv", "0", "diagnostics.epsilon_conv must be > 0",
                 id="diagnostics.epsilon_conv-0"),
    pytest.param("diagnostics.R_div", "-5", "diagnostics.R_div must be > 0",
                 id="diagnostics.R_div-negative"),
    pytest.param("checks.alpha", "7", "checks.alpha must be in (0, 1]", id="checks.alpha-7"),
    pytest.param("checks.alpha", "0", "checks.alpha must be in (0, 1]", id="checks.alpha-0"),
    pytest.param("diagnostics.alpha", "1.5", "diagnostics.alpha must be in (0, 1]",
                 id="diagnostics.alpha-1.5"),
    # beyond Python's int-digit limit, so json.loads raises a plain ValueError
    pytest.param("run.K", "1" * 5000, "malformed JSON", id="run.K-5000-digits"),
    pytest.param("run.theta0", "[" * 100000 + "]" * 100000, "malformed JSON",
                 id="run.theta0-nested-1e5-deep"),
])
def test_malformed_config_block_exits_2(tmp_path, capsys, where, literal, message):
    # the value at the dotted path `where` (a block or a field) becomes `literal`
    cfg = base_config(tmp_path / "out")
    *parents, key = where.split(".")
    block = cfg
    for name in parents:
        block = block.setdefault(name, {})
    block[key] = "@VALUE@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@VALUE@"', literal), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:") and message in err
    assert len(err.splitlines()) == 1
    with pytest.raises(ConfigError):
        load_config(path)
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"objective": {"name": "\xff"}}')
    assert main(["run", "--config", str(path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("source", ["file", "SGDLAB_SEED", "--master-seed", "checks.seed"])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, command, source):
    # numpy's SeedSequence takes integers >= 0, wherever the seed comes from
    cfg = base_config(tmp_path / "out")
    flags = ["--which", "variance"] if command == "check" else []
    if source == "file":
        cfg["run"]["master_seed"] = -1
    elif source == "SGDLAB_SEED":
        monkeypatch.setenv("SGDLAB_SEED", "-5")
    elif source == "--master-seed":
        flags += ["--master-seed", "-3"]
    else:
        cfg["checks"] = {"seed": -2}
    assert main([command, "--config", write_config(tmp_path, cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:") and "seed must be an integer >= 0" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("objective,noise,schedule,theta0", [
    pytest.param({"name": "power-q", "q": 3.0}, {"kind": "zero"},
                 {"family": "scalar-power", "c": 1.0, "beta": 0.75, "p": 1}, [5.0],
                 id="power-q-p1"),
    pytest.param({"name": "power-q", "q": 3.0, "dimension": 2}, {"kind": "zero"},
                 {"family": "scalar-power", "c": 1.0, "beta": 0.75, "p": 2}, [5.0, 5.0],
                 id="power-q-p2"),
    pytest.param({"name": "quadratic"}, {"kind": "additive-gaussian", "sigma": 1e149},
                 {"family": "scalar-power", "c": 2.0, "beta": 0.0, "p": 1}, [1.0],
                 id="quadratic-sigma-1e149"),
])
def test_diverging_run_prints_no_warnings(tmp_path, capsys, objective, noise, schedule,
                                          theta0):
    # divergence is an outcome the report counts (n_overflow), not a numpy warning
    cfg = base_config(tmp_path / "out", objective=objective, noise=noise, schedule=schedule,
                      diagnostics={})
    cfg["run"] = {"theta0": theta0, "K": 100, "n_trajectories": 6, "master_seed": 3,
                  "record_stride": 10}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["n_overflow"] == 6


@pytest.mark.parametrize("direction", [[1.0], [1.0, 0.0, 0.0]])
def test_noise_direction_of_another_length_exits_2(tmp_path, capsys, direction):
    # p = 2: [1.0] ran a noise the declared envelope does not describe, and
    # three entries died in a numpy broadcast traceback
    cfg = base_config(tmp_path / "out", objective={"name": "quadratic", "dimension": 2},
                      noise={"kind": "rademacher-radial", "direction": direction},
                      schedule={"family": "scalar-power", "c": 0.5, "beta": 0.75, "p": 2},
                      diagnostics={})
    cfg["run"]["theta0"] = [1.0, 1.0]
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:") and "must have p = 2 entries" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _rademacher_run(tmp_path, name, direction):
    out = tmp_path / name
    cfg = base_config(out, objective={"name": "quadratic", "dimension": 2},
                      noise={"kind": "rademacher-radial", "direction": direction},
                      schedule={"family": "scalar-power", "c": 0.5, "beta": 0.75, "p": 2},
                      diagnostics={})
    cfg["run"]["theta0"] = [1.0, 1.0]
    return main(["run", "--config", write_config(tmp_path, cfg, f"{name}.json")]), out


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_noise_direction_of_extreme_scale_runs_as_its_unit_vector(tmp_path, capsys, scale):
    # [1e200, 1e200] ran with zero noise and a numpy warning; [1e-200, 1e-200]
    # exited 2 as a zero direction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _rademacher_run(tmp_path, "scaled", [scale, scale])
    assert code == 0 and capsys.readouterr().err == ""
    assert _rademacher_run(tmp_path, "unit", [1.0, 1.0])[0] == 0
    csv = (out / "checkpoints.csv").read_bytes()
    assert csv == (tmp_path / "unit" / "checkpoints.csv").read_bytes()


@pytest.mark.parametrize("constants", [[-1.0, 0.0, 1.0], [0.0, -0.5, 1.0], [0.0, 0.0, 0.5]])
@pytest.mark.parametrize("command", ["run", "check"])
def test_noise_constants_outside_their_ranges_exit_2(tmp_path, capsys, command, constants):
    # a C1 or C2 below 0 ran, and failed only in the smoothness check
    cfg = base_config(tmp_path / "out",
                      noise={"kind": "additive-gaussian", "sigma": 1.0, "constants": constants})
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:") and "noise constants must be" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@functools.cache
def _unit_vectors_at_the_floor() -> dict[str, list[float]]:
    """Two unit vectors of the first p = 2, 3, ... that has both on the running
    BLAS core: the step's size sqrt(theta.dot(theta)) is 1.0 at "norm-1" and
    below 1.0 at "norm-below-1", and an einsum row norm reads the two the
    other way round.  A p = 2 dot rounds like the einsum on AVX2 and older
    cores, and differs from it at about 6% of unit vectors on AVX-512 ones."""
    rng = np.random.default_rng(0)
    for p in range(2, 17):
        thetas = rng.standard_normal((20000, p))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        rows = thetas.tolist()
        step = np.array([math.sqrt(t.dot(t)) for t in map(np.array, rows)])
        einsum = np.sqrt(np.einsum("ij,ij->i", thetas, thetas))
        kept = np.flatnonzero((step == 1.0) & (einsum < 1.0))
        dropped = np.flatnonzero((step < 1.0) & (einsum >= 1.0))
        if len(kept) and len(dropped):
            return {"norm-1": rows[kept[0]], "norm-below-1": rows[dropped[0]]}
    raise AssertionError("no p up to 16 has unit vectors whose two norms straddle 1.0")


@pytest.mark.parametrize("r0,theta0,kept", [
    # the step's norm and the einsum's fall on opposite sides of 1.0 here
    pytest.param(1.0, "norm-1", True, id="norm-1"),
    pytest.param(1.0, "norm-below-1", False, id="norm-below-1"),
    # the 1-D size is abs(x); sqrt(x * x) underflows to 0 here
    pytest.param(1e-170, [1e-170], True, id="p1-at-1e-170"),
    pytest.param(1e-170, [-9.999999999999998e-171], False, id="p1-below-1e-170"),
])
def test_domain_test_agrees_with_the_step_at_the_floor(tmp_path, r0, theta0, kept):
    if isinstance(theta0, str):
        theta0 = _unit_vectors_at_the_floor()[theta0]
    theta, p = np.array(theta0), len(theta0)
    size = abs(theta0[0]) if p == 1 else math.sqrt(theta.dot(theta))
    assert (r0 <= size) == kept  # the steppers' accept test
    obj = catalog_lookup("log1p-abs", p, r0=r0)
    oracle = StochasticOracle(obj, NoiseModel("zero", p))
    schedule = Schedule.scalar(0.1, 0.75, dim=p)
    if kept:
        obj.check_domain(theta)
        assert run_trajectory(oracle, schedule, theta0, 5, seed=0).trace[0].tolist() == theta0
    else:
        with pytest.raises(DomainError):
            obj.check_domain(theta)
        with pytest.raises(DomainError):
            run_trajectory(oracle, schedule, theta0, 5, seed=0)
    cfg = base_config(tmp_path / "out",
                      objective={"name": "log1p-abs", "dimension": p, "r0": r0},
                      schedule={"family": "scalar-power", "c": 0.1, "beta": 0.75, "p": p},
                      diagnostics={})
    cfg["run"]["theta0"] = theta0
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == (0 if kept else 3)


def test_domain_violating_theta0_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["run"]["theta0"] = [0.5]
    cfg["diagnostics"] = {}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("[0.5]") == 1  # offending point printed, once


def test_domain_exit_is_reported_truncated_not_converged(tmp_path):
    # Each trajectory creeps down exp-abs to its floor and steps below it near
    # k = 1.3e5.  Its last W norms then sit at the floor with a range under
    # epsilon_conv, which the window rules alone would call converged-like.
    cfg = base_config(
        tmp_path / "out",
        objective={"name": "exp-abs", "dimension": 1, "r0": 1.0},
        noise={"kind": "additive-gaussian", "sigma": 1e-6},
        schedule={"family": "scalar-power", "c": 1e-4, "beta": 0.75, "k0": 1, "p": 1},
        diagnostics={})
    cfg["run"] = {"theta0": [1.02], "K": 200000, "n_trajectories": 4, "master_seed": 1,
                  "record_stride": 100}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["n_domain_violation"] == 4
    assert report["verdict_counts"] == {"truncated": 4}
    assert all(c["evidence"]["last_k"] < 200000 for c in report["classifications"])


def test_overflow_before_the_window_filled_is_reported_truncated(tmp_path):
    # sigma = 1e152 passes the config (p * sigma^2 is finite) and throws each
    # trajectory past THETA_CAP at its first step.  Its window then holds
    # theta0 alone, of range 0, which the window rules would call converged-like.
    cfg = base_config(tmp_path / "out", noise={"kind": "additive-gaussian", "sigma": 1e152},
                      diagnostics={})
    cfg["run"] = {"theta0": [0.5], "K": 1000, "n_trajectories": 4, "master_seed": 11,
                  "record_stride": 50}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert report["n_overflow"] == 4 and report["n_domain_violation"] == 0
    assert report["verdict_counts"] == {"truncated": 4}
    assert [c["evidence"] for c in report["classifications"]] == [{"last_k": 0}] * 4


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"

# Prints the process's OpenBLAS core, and on Haswell the workloads whose
# exit code or report hashes at their pinned seeds differ from
# bench/pinned.json, as a JSON list.
WORKLOADS_ON_THE_CORE = """\
import ctypes, glob, hashlib, json, os, sys, tempfile
from pathlib import Path
import numpy
from sgdlab.cli import main

try:
    lib, = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
except (ValueError, AttributeError):
    sys.exit(print("no scipy-openblas"))
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode())
if corename() != b"Haswell":
    sys.exit()
bench, differ = Path(sys.argv[1]), []
with tempfile.TemporaryDirectory() as tmp:
    for name, pin in json.loads((bench / "pinned.json").read_text()).items():
        cfg = json.loads((bench / "configs" / f"{name}.json").read_text())
        cfg["output"]["directory"] = out = os.path.join(tmp, name)
        command, block, seed = (("run", "run", "master_seed")
                                if "ensemble_report.json" in pin["sha256"]
                                else ("check", "checks", "seed"))
        cfg[block][seed] = pin["seed"]
        Path(out + ".json").write_text(json.dumps(cfg))
        code = main([command, "--config", out + ".json"])
        got = {report: hashlib.sha256(Path(out, report).read_bytes()).hexdigest()
               for report in pin["sha256"]}
        if (code, got) != (pin["exit_code"], pin["sha256"]):
            differ.append(name)
print(json.dumps(differ))
"""


def test_on_the_haswell_core_only_the_p4_workload_moves_its_pinned_bytes():
    # the p > 1 gemvs and accept norm round by the BLAS core; a p = 1 report
    # that came to depend on it would be named here
    lines = _in_a_fresh_process(WORKLOADS_ON_THE_CORE, str(BENCH_CONFIGS.parent),
                                env={"OPENBLAS_CORETYPE": "Haswell"})
    if lines[0] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell loaded {lines[0]!r}")
    assert set(json.loads(lines[1])) == {"rotated-p4"}


@pytest.mark.parametrize("workload,block", [
    ("dense-checkpoints", {"W": 800}),  # W > K = 300
    # the capture envelope needs a 1-D or radial objective, not the p=4 rectifier
    ("rotated-p4", {"capture": {"theta_bar": [0.0] * 4, "R": 1.0, "epsilon": 0.5}}),
    ("dense-checkpoints", {"gammas": [0.5, 1.5]}),  # gamma moments need gamma in [0, 1)
    # the capture block's contract: theta_bar a point of dimension p, R >= 0,
    # epsilon > 0 (its default 0.1 R included)
    ("capture-1d", {"capture": {"theta_bar": [0.0, 5.0], "R": 1.0, "epsilon": 0.5}}),
    ("capture-1d", {"capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": 0.0}}),
    ("capture-1d", {"capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": -0.5}}),
    ("capture-1d", {"capture": {"theta_bar": [0.0], "R": 0.0}}),
    ("capture-1d", {"capture": {"theta_bar": [0.0], "R": -1.0, "epsilon": 0.5}}),
    # finite and > 0, but Python's epsilon ** -2 overflowed after every trajectory
    ("capture-1d", {"capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": 1e-160}}),
])
def test_late_config_error_leaves_no_directory(tmp_path, capsys, workload, block):
    cfg = json.loads((BENCH_CONFIGS / f"{workload}.json").read_text(encoding="utf-8"))
    cfg["diagnostics"] = block
    cfg["output"]["directory"] = str(tmp_path / "out")
    with mock.patch.object(diagnostics, "run_trajectory",
                           wraps=diagnostics.run_trajectory) as run:
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert run.call_count == 0  # rejected before any trajectory ran
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "config error" in err and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("theta_bar", [[0.0], [0.0, 0.0, 0.0]])
def test_capture_theta_bar_of_another_dimension_is_rejected(tmp_path, theta_bar):
    # p = 2; the cases above cover p = 1 through the CLI
    cfg = base_config(tmp_path / "out", objective={"name": "quadratic", "dimension": 2})
    cfg["schedule"]["p"] = 2
    cfg["run"]["theta0"] = [1.0, 1.0]
    cfg["diagnostics"]["capture"]["theta_bar"] = theta_bar
    with pytest.raises(ConfigError, match=f"must have p = 2 entries, got {len(theta_bar)}"):
        config_from_dict(cfg)


def test_capture_on_a_radial_objective_with_statedep_noise_names_the_pairing(tmp_path, capsys):
    # the envelope grid supports radial objectives, but not this noise on them
    cfg = base_config(tmp_path / "out", objective={"name": "log1p-abs", "dimension": 2},
                      noise={"kind": "additive-gaussian-statedep",
                             "sigma_expr": "0.1*(1+norm(theta))"})
    cfg["schedule"]["p"] = 2
    cfg["run"]["theta0"] = [3.0, 1.0]
    cfg["diagnostics"]["capture"]["theta_bar"] = [2.0, 0.0]
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "sgdlab: config error: envelope maximization does not support "
        "additive-gaussian-statedep noise on the radial objective 'log1p-abs' at p = 2 "
        "(only in 1-D)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "check", "probe-radial", "validate-schedule",
                                     "stopping-times"])
def test_objective_schedule_dimension_mismatch_exits_2(tmp_path, capsys, command):
    cfg = base_config(tmp_path / "out", objective={"name": "quadratic", "dimension": 2},
                      diagnostics={})
    cfg["run"]["theta0"] = [1.0, 1.0]
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert not (tmp_path / "out").exists()
    assert "schedule dimension 1 != objective dimension 2" in capsys.readouterr().err


def test_jobs_flag_produces_identical_output(tmp_path):
    outputs = []
    for jobs in (1, 2, 3):
        cfg_path = write_config(tmp_path, base_config(tmp_path / f"j{jobs}"),
                                name=f"c{jobs}.json")
        assert main(["run", "--config", cfg_path, "--jobs", str(jobs)]) == 0
        outputs.append([(tmp_path / f"j{jobs}" / name).read_bytes()
                        for name in ("ensemble_report.json", "checkpoints.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_formats_subset_json_only(tmp_path):
    cfg = base_config(tmp_path / "out", output={"directory": str(tmp_path / "out"),
                                                "formats": ["json"]})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out" / "ensemble_report.json").exists()
    assert not (tmp_path / "out" / "checkpoints.csv").exists()


def test_formats_selecting_no_report_leave_no_directory(tmp_path):
    # the schedule check writes only JSON, so csv alone selects nothing
    cfg = base_config(tmp_path / "out", output={"directory": str(tmp_path / "out"),
                                                "formats": ["csv"]})
    cfg["checks"] = {"which": ["p1p2p3p4"], "horizon": 100}
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_output_directory_that_is_or_sits_below_a_file_exits_2(tmp_path, capsys, command,
                                                                 below):
    blocker = tmp_path / "notadir"
    blocker.write_bytes(b"keep")
    cfg = base_config(blocker / below)
    cfg["checks"] = small_checks(["p1p2p3p4", "variance"])
    with mock.patch.object(diagnostics, "run_ensemble", wraps=diagnostics.run_ensemble) as ens, \
            mock.patch.object(cli, "_run_check", wraps=cli._run_check) as check:
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert ens.call_count == check.call_count == 0  # refused before any compute
    assert blocker.read_bytes() == b"keep"
    err = capsys.readouterr().err
    assert err == f"sgdlab: config error: output.directory {str(blocker / below)!r}: " \
                  f"{blocker} is not a directory\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_output_directory_the_system_cannot_stat_exits_2(tmp_path, capsys, command):
    # a 300-byte name (above NAME_MAX) exited 1 with an ENAMETOOLONG traceback
    outdir = tmp_path / ("x" * 300)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(["p1p2p3p4", "variance"])
    cfg_path = write_config(tmp_path, cfg)
    with mock.patch.object(diagnostics, "run_ensemble", wraps=diagnostics.run_ensemble) as ens, \
            mock.patch.object(cli, "_run_check", wraps=cli._run_check) as check:
        assert main([command, "--config", cfg_path, "--output-dir", str(outdir)]) == 2
    assert ens.call_count == check.call_count == 0  # refused before any compute
    assert os.listdir(tmp_path) == ["config.json"]
    err = capsys.readouterr().err
    assert err == f"sgdlab: config error: output.directory {str(outdir)!r}: " \
                  f"{os.strerror(errno.ENAMETOOLONG)}\n"


@pytest.mark.parametrize("key,value,which", [
    ("checks.lemma4.C", -1.0, ["p1p2p3p4", "lemma4"]),
    ("diagnostics.r", -0.5, ["variance", "radial"]),
    ("diagnostics.b_threshold", 0.0, ["variance", "radial"]),
    ("diagnostics.radii", [100.0, 10.0], ["variance", "radial"]),
    ("checks.smoothness.n_draws", 1, ["variance", "smoothness"]),
    ("checks.smoothness.constants", [-1.0, 0.0, 1.0], ["variance", "smoothness"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_a_refused_check_constant_exits_2_before_any_check_runs(tmp_path, capsys, key, value,
                                                                which):
    # each exited 2 only after the checks before it in `which` had run (a
    # P2 scan at horizon 2e8 for 1.14 s before a lemma4 C of -1)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(which)
    *path, last = key.split(".")
    block = cfg
    for name in path:
        block = block.setdefault(name, {})
    block[last] = value
    with mock.patch.object(cli, "_run_check", wraps=cli._run_check) as check:
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert check.call_count == 0
    err = capsys.readouterr().err
    assert err.startswith(f"sgdlab: config error: {key} must be") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


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


def test_check_that_fails_late_writes_nothing(tmp_path, capsys):
    # the schedule check passes, then descent samples below the domain floor:
    # no report is written, so a rerun meets the same domain error again
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["run"]["theta0"] = [3.0]
    cfg["checks"] = {"which": ["p1p2p3p4", "descent"], "horizon": 1000,
                     "descent": {"box": [-10.0, 10.0]}}
    cfg_path = write_config(tmp_path, cfg)
    for _ in range(2):
        assert main(["check", "--config", cfg_path]) == 3
        assert not (tmp_path / "out").exists()
        assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("check, block, p", [
    ("gradbound", {}, 1),
    ("smoothness", {"n_draws": 20}, 1),
    ("descent", {"L_tilde": 2.0}, 1),
    ("descent", {}, 2),
    ("descent", {}, 1),  # a null L_tilde from the Hölder sup over the box
])
def test_check_box_whose_width_overflows_exits_2(tmp_path, capsys, check, block, p):
    # hi - lo is inf: the draws died in rng.uniform with a traceback, and a
    # 1-D descent with a null L_tilde read "L_tilde must be finite, got nan"
    cfg = base_config(tmp_path / "out", objective={"name": "quadratic", "dimension": p},
                      noise={"kind": "additive-gaussian", "sigma": 1.0},
                      schedule={"c": 1.0, "beta": 0.75, "p": p},
                      diagnostics={})
    cfg["run"]["theta0"] = [1.0] * p
    cfg["checks"] = {"which": [check], check: {**block, "box": [-1e308, 1e308]}}
    if check == "smoothness":
        cfg["noise"]["constants"] = [0.0, 0.0, 1.0]
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"sgdlab: config error: checks.{check}.box must have a finite width "
                   "hi - lo, got [-1e+308, 1e+308]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("box", [[1.0, 1.0000000000000002], [-5e-324, 5e-324]])
def test_descent_box_narrower_than_the_grid_runs(tmp_path, capsys, box):
    # 512 grid points on a box a few floats wide repeat; their zero-distance
    # pairs made the 1-D Hölder sup 0/0, and a null L_tilde exited 2 with
    # "L_tilde must be finite, got nan", a value the config never set
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = {"which": ["descent"], "descent": {"n_pairs": 100, "box": box}}
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "descent_report.json").read_text())
    # the quadratic's gradient is the identity: every pair's ratio is 1
    assert report["L_tilde"] == 2.0 and report["report"]["verdict"] == "pass"


@pytest.mark.parametrize("L, alpha", [(-100.0, 0.5), (-2.0, 0.7), (0.0, 1.0)])
def test_nonpositive_gradbound_constant_exits_2(tmp_path, capsys, L, alpha):
    # L = -100 at alpha 0.5 passed the check; L = -2 at alpha 0.7 made the
    # bound complex, printed two ComplexWarnings and reported its real part
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = {"which": ["gradbound"], "alpha": alpha, "gradbound": {"L": L}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        f"sgdlab: config error: checks.gradbound.L must be > 0, got {L!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("objective, gradbound, alpha, message", [
    # Python's L ** (1 / alpha) raised OverflowError in the check: exit 1, a traceback
    pytest.param("quadratic", {"L": 1e300}, 0.5,
                 "checks.gradbound.L must have a finite L ** (1/alpha), got 1e+300 at alpha 0.5",
                 id="given-L"),
    # a null L checks with the objective's l_global, 2.0 for gauss-bump
    pytest.param("gauss-bump", {}, 0.0005,
                 "the objective's l_global (checks.gradbound.L null) must have a "
                 "finite L ** (1/alpha), got 2.0 at alpha 0.0005", id="null-L"),
])
def test_gradbound_constant_whose_power_overflows_exits_2(tmp_path, capsys, objective,
                                                          gradbound, alpha, message):
    cfg = base_config(tmp_path / "out", objective={"name": objective})
    cfg["checks"] = {"which": ["p1p2p3p4", "gradbound"], "alpha": alpha, "gradbound": gradbound}
    with mock.patch.object(cli.checkers, "check_grad_bound") as check, \
            mock.patch.object(cli.engine, "validate_schedule") as scan:
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert check.call_count == scan.call_count == 0  # refused before any check ran
    assert capsys.readouterr().err == f"sgdlab: config error: {message}\n"
    assert not (tmp_path / "out").exists()


# `check` runs the schedule scans (cli.SCHEDULE_LANE) on the calling thread
# while a thread of the command takes the sampled checks from one queue,
# largest first; the calling thread joins the drain once its scans return.
# These tests pin that the threads and the order change no byte and no exit,
# that a failure decides as in a serial run, and that no thread outlives `main`.

ALL_CHECKS = ["p1p2p3p4", "descent", "variance", "gradbound", "smoothness", "radial",
              "lemma4"]


def small_checks(which):
    return {"which": which, "horizon": 10000, "lemma4": {"C": 4.0, "K_max": 1000},
            "descent": {"n_pairs": 2000}, "variance": {"n_samples": 2000},
            "gradbound": {"n_points": 2000}, "smoothness": {"n_points": 5, "n_draws": 200}}


@pytest.fixture
def started_threads(monkeypatch):
    """The threads that start while the test runs."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("objective,schedule,which,checks,digests", [
    # c = 1e200 overflows (k + k0)**-beta * c in the schedule scans, on the
    # calling thread: main's np.errstate must cover them, or the warning raises
    pytest.param(
        {"name": "quadratic"}, {"c": 1e200}, ["p1p2p3p4", "descent", "lemma4"],
        {"lemma4": {"K_max": 1000}},
        {"schedule_report.json":
         "558017d5cb83c3aabbcb71027e61dc6cebcc0bb69a39a58612bd1f13281ab0b9",
         "descent_report.json":
         "a727beb4da543218550c79442b9c2d3e67835ec2a70b5eeef0de2f4891b406ed",
         "lemma4_report.json":
         "6dafa91122100c5cd24567690ab71090ed7ff517ecf974717009dff35dfc393e"},
        id="schedule-lane-overflow"),
    # exp(700)^2 overflows in the sampled check, which the command's thread
    # takes from the queue at once: the checkers' own np.errstate must cover it
    pytest.param(
        {"name": "exp-abs"}, {}, ["smoothness", "p1p2p3p4"],
        {"smoothness": {"box": [700.0, 710.0], "n_draws": 100}},
        {"schedule_report.json":
         "1e06a3411140b0ab448c00c248846c550451b2b8e08dda2cb45e8dee68eb28a3",
         "smoothness_report.json":
         "0fb1744d69e8c965aa7770498f3d075dbe0b486919d5fe123db385558fe55888"},
        id="sampled-lane-overflow"),
])
def test_check_lanes_keep_mains_errstate(tmp_path, capsys, started_threads, objective,
                                         schedule, which, checks, digests):
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = objective
    cfg["schedule"].update(schedule)
    cfg["run"]["theta0"] = [3.0]
    cfg["checks"] = {"which": which, "horizon": 1000, **checks}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == ""
    assert len(started_threads) == 1
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()} == digests


def test_check_over_every_check_writes_the_bytes_of_single_check_runs(
        tmp_path, started_threads):
    before = threading.active_count()
    cfg = base_config(tmp_path / "all")
    cfg["checks"] = small_checks(ALL_CHECKS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the lanes trade the interpreter as often as they can
    try:
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(started_threads) == 1
    for check in ALL_CHECKS:
        cfg = base_config(tmp_path / "one")
        cfg["checks"] = small_checks([check])
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(started_threads) == 1  # a single check starts no thread
    assert threading.active_count() == before
    # each check of both kinds starts its own thread and joins it
    cfg = base_config(tmp_path / "again")
    cfg["checks"] = small_checks(ALL_CHECKS)
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(started_threads) == 2 and threading.active_count() == before
    together = sorted((tmp_path / "all").iterdir())
    assert len(together) == 8  # seven JSON reports and the radial CSV
    assert [path.name for path in together] == sorted(
        path.name for path in (tmp_path / "one").iterdir())
    for path in together:
        assert path.read_bytes() == (tmp_path / "one" / path.name).read_bytes(), path.name


def test_a_repeated_check_runs_once(tmp_path, monkeypatch):
    # checks.which keeps the first place of each entry: a repeated check is
    # neither run nor written twice, and the reports keep their bytes
    calls = []

    def counted(config, oracle, name, _run=cli._run_check):
        calls.append(name)
        return _run(config, oracle, name)

    monkeypatch.setattr(cli, "_run_check", counted)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(ALL_CHECKS)
    outputs = []
    for tag, which in (("twice", "descent,descent,lemma4,lemma4"), ("once", "descent,lemma4")):
        argv = ["check", "--config", write_config(tmp_path, cfg), "--which", which,
                "--output-dir", str(tmp_path / tag)]
        assert main(argv) == 0
        assert sorted(calls) == ["descent", "lemma4"]
        calls.clear()
        outputs.append({path.name: path.read_bytes() for path in (tmp_path / tag).iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["descent_report.json", "lemma4_report.json"]


def test_check_leaves_no_lane_thread_and_no_bounds_table(tmp_path, monkeypatch,
                                                          started_threads):
    # the lane thread ends before main returns, so nothing holds the
    # command's schedule and its scan memo after it
    schedules = []

    def loaded(*args, _load=cli.load_config):
        config = _load(*args)
        schedules.append(weakref.ref(config.schedule))
        return config

    monkeypatch.setattr(cli, "load_config", loaded)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(ALL_CHECKS)
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(started_threads) == 1 and not started_threads[0].is_alive()
    assert len(schedules) == 1 and schedules[0]() is None


@pytest.mark.parametrize("C,reread", [(1.0, None), (4.0, 0)])
def test_the_two_schedule_scans_share_one_pass(tmp_path, monkeypatch, C, reread):
    # a check of both scans at equal sizes and alpha reads each of the
    # horizon + 1 indices once; with C = 4 the last bad index is 5, so block
    # 0 is read again, once, and with C = 1 no block breaks the bound
    rows = []

    def eigenvalues(self, ks, out=None, _eigenvalues=Schedule.eigenvalues):
        rows.append((int(ks[0]), len(ks)))
        return _eigenvalues(self, ks, out)

    monkeypatch.setattr(Schedule, "eigenvalues", eigenvalues)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = {"which": ["p1p2p3p4", "lemma4"], "horizon": 200000,
                     "lemma4": {"C": C, "K_max": 200000}}
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
    chunk = engine._CHUNK
    blocks = [(start, min(chunk, 200001 - start)) for start in range(0, 200001, chunk)]
    assert rows == blocks + ([] if reread is None else [blocks[reread]])


def test_a_two_lane_check_leaves_the_thread_count_as_it_was(tmp_path):
    # in a fresh process, so that no earlier command in this one hides a
    # thread that the first check of a process would leave
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(["p1p2p3p4", "variance"])
    code = ("import sys, threading\n"
            "import sgdlab.cli\n"
            "before = threading.active_count()\n"
            "assert sgdlab.cli.main(['check', '--config', sys.argv[1]]) == 0\n"
            "print(threading.active_count() - before)\n")
    assert _in_a_fresh_process(code, write_config(tmp_path, cfg)) == ["0"]
    assert (tmp_path / "out" / "variance_report.json").exists()


@pytest.mark.parametrize("which,code", [
    # a schedule scan fails first in `which` order: MemoryError, exit 2
    (["p1p2p3p4", "descent", "lemma4", "variance"], 2),
    # a sampled check fails first: descent samples below the floor, exit 3
    (["variance", "descent", "p1p2p3p4", "lemma4"], 3),
])
def test_first_failure_in_which_order_decides_as_in_a_serial_run(
        tmp_path, capsys, monkeypatch, started_threads, which, code):
    def scan(*args):
        raise MemoryError("the schedule scan")

    monkeypatch.setattr(cli.engine, "validate_schedule", scan)
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "loglog1p-abs"}
    cfg["run"]["theta0"] = [3.0]
    cfg["checks"] = {"which": which, "lemma4": {"K_max": 1000},
                     "descent": {"box": [-10.0, 10.0]}}
    cfg_path = write_config(tmp_path, cfg)
    before = threading.active_count()
    assert main(["check", "--config", cfg_path]) == code
    assert len(started_threads) == 1
    assert threading.active_count() == before  # the lane thread was joined
    lanes = capsys.readouterr().err
    assert len(lanes.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    # every check on the calling thread, in `which` order: a serial run
    monkeypatch.setattr(cli, "SCHEDULE_LANE", tuple(ALL_CHECKS))
    assert main(["check", "--config", cfg_path]) == code
    assert len(started_threads) == 1
    assert capsys.readouterr().err == lanes
    assert not (tmp_path / "out").exists()


def test_the_queue_is_largest_declared_size_first_ties_in_which_order(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["diagnostics"]["radii"] = [1.0, 2.0]  # 2 * PROBE_HOLDER_SAMPLES = 1024
    cfg["checks"] = {"descent": {"n_pairs": 300}, "variance": {"n_samples": 1000},
                     "gradbound": {"n_points": 300}, "smoothness": {"n_points": 2, "n_draws": 150}}
    config = load_config(write_config(tmp_path, cfg))
    assert cli._queue(config, ["gradbound", "smoothness", "variance", "descent", "radial"]) == [
        "radial", "variance", "gradbound", "smoothness", "descent"]
    assert cli._queue(config, ["descent", "radial", "smoothness", "gradbound"]) == [
        "radial", "descent", "smoothness", "gradbound"]
    # every sampled check has a declared size, so none can miss the queue
    sampled = [check for check in cli.CHECK_REPORTS if check not in cli.SCHEDULE_LANE]
    assert sorted(cli._queue(config, sampled)) == sorted(sampled)


def _raising_checks(raisers):
    """A _run_check that raises ConfigError(name) for each name in raisers,
    once raisers[name] (a callable) returns; and the lists of the names that
    it was called with and that it raised for, in the order of the events."""
    calls, raised = [], []

    def run_check(config, oracle, name, _run=cli._run_check):
        calls.append(name)
        if name in raisers:
            raisers[name]()
            raised.append(name)
            raise ConfigError(name)
        return _run(config, oracle, name)

    return run_check, calls, raised


def test_sampled_checks_alone_run_in_which_order_on_the_calling_thread(
        tmp_path, capsys, monkeypatch, started_threads):
    # no second thread drains the queue, so the size order could not shorten
    # the run: descent raises before smoothness, larger and later in `which`,
    # starts
    run_check, calls, _ = _raising_checks({"descent": lambda: None})
    monkeypatch.setattr(cli, "_run_check", run_check)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(["variance", "descent", "smoothness"])
    cfg["checks"]["smoothness"]["n_draws"] = 1000
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert calls == ["variance", "descent"]
    assert started_threads == []
    assert capsys.readouterr().err == "sgdlab: config error: descent\n"


def test_the_earliest_exception_in_which_order_is_raised_not_the_first_in_time(
        tmp_path, capsys, monkeypatch):
    # smoothness, later in `which` but larger, is taken first and raises
    # first; variance raises after it, and its exception is the one raised
    smoothness_raised = threading.Event()
    run_check, calls, raised = _raising_checks({
        "smoothness": smoothness_raised.set,
        "variance": lambda: smoothness_raised.wait(5)})
    monkeypatch.setattr(cli, "_run_check", run_check)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(["p1p2p3p4", "variance", "smoothness"])
    cfg["checks"]["smoothness"]["n_draws"] = 1000
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert raised == ["smoothness", "variance"]
    assert sorted(calls) == ["p1p2p3p4", "smoothness", "variance"]
    assert capsys.readouterr().err == "sgdlab: config error: variance\n"
    assert not (tmp_path / "out").exists()


def test_no_check_after_the_earliest_exception_starts(tmp_path, capsys, monkeypatch):
    # smoothness, the largest, raises at once; the schedule scan waits for it,
    # so lemma4 and every queued check later in `which` than smoothness comes
    # after the exception and must not start, while descent, earlier, runs
    smoothness_raised = threading.Event()
    run_check, calls, _ = _raising_checks({"smoothness": smoothness_raised.set})

    def scan_after_smoothness(config, oracle, name):
        if name == "p1p2p3p4":
            assert smoothness_raised.wait(5)
        return run_check(config, oracle, name)

    monkeypatch.setattr(cli, "_run_check", scan_after_smoothness)
    cfg = base_config(tmp_path / "out")
    cfg["checks"] = small_checks(["p1p2p3p4", "descent", "smoothness", "variance",
                                  "gradbound", "radial", "lemma4"])
    cfg["checks"]["smoothness"]["n_draws"] = 1000
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
    assert sorted(calls) == ["descent", "p1p2p3p4", "smoothness"]
    assert capsys.readouterr().err == "sgdlab: config error: smoothness\n"


def test_check_with_nan_smoothness_margins_fails(tmp_path):
    # exp(700)^2 overflows, so every sampled margin is inf - inf = NaN
    cfg = base_config(tmp_path / "out")
    cfg["objective"] = {"name": "exp-abs"}
    cfg["run"]["theta0"] = [3.0]
    cfg["checks"] = {"which": ["smoothness"],
                     "smoothness": {"box": [700.0, 710.0], "n_draws": 100}}
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == 1
    report = json.loads((tmp_path / "out" / "smoothness_report.json").read_text())
    assert report["report"]["verdict"] == "fail"
    assert report["report"]["witness"] is not None


@pytest.mark.parametrize("noise,code,digest", [
    ({"kind": "additive-gaussian-statedep", "sigma_expr": "0.1*(1+norm(theta))"}, 0,
     "5d2f4c5848dfe5829fe242745979a1ff634c9e7ab6ea573d1fcf105ad99afa7a"),
    ({"kind": "rademacher-radial"}, 1,
     "d8b9fc3d62d43a864e09e3f86071eaf823597aaf6821d4425783877dbe4a0a2a"),
])
def test_state_scaled_smoothness_report_keeps_its_bytes(tmp_path, noise, code, digest):
    # the sampled norm is the engine's sqrt(theta.dot(theta)), and statedep's
    # norm(theta) reads it; the bytes are those of np.linalg.norm(theta)
    cfg = {"objective": {"name": "smooth-rectifier", "dimension": 3}, "noise": noise,
           "schedule": {"family": "scalar-power", "c": 1.0, "beta": 0.75, "p": 3},
           "checks": {"which": ["smoothness"], "seed": 4,
                      "smoothness": {"constants": [0.5, 0.0, 2.0], "n_points": 12,
                                     "n_draws": 400, "box": [-3.0, 3.0]}},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["check", "--config", write_config(tmp_path, cfg)]) == code
    report = (tmp_path / "out" / "smoothness_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


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
# config parsing
# ---------------------------------------------------------------------------

def test_config_accepts_q_seed_alias(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["schedule"] = {"family": "rotated-diagonal-power", "c": [0.5, 0.2],
                       "beta": [0.75, 0.8], "k0": 1, "p": 2, "q_seed": 4}
    cfg["objective"] = {"name": "quadratic", "dimension": 2}
    cfg["run"]["theta0"] = [1.0, 1.0]
    cfg["diagnostics"]["capture"]["theta_bar"] = [0.0, 0.0]
    parsed = config_from_dict(cfg)
    assert parsed.schedule.rotation_seed == 4


def test_rotation_seed_and_its_alias_together_exit_2(tmp_path, capsys):
    # q_seed was dropped without a word when rotation_seed was also given
    cfg = base_config(tmp_path / "out", objective={"name": "quadratic", "dimension": 2},
                      diagnostics={})
    cfg["schedule"] = {"family": "rotated-diagonal-power", "c": [0.5, 0.2],
                       "beta": [0.75, 0.8], "p": 2, "rotation_seed": 3, "q_seed": 4}
    cfg["run"]["theta0"] = [1.0, 1.0]
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgdlab: config error:") and len(err.splitlines()) == 1
    assert "schedule.rotation_seed" in err and "q_seed" in err
    assert not (tmp_path / "out").exists()


def _schema_entries(fields, parent=()):
    """Every key and block of a SCHEMA table as (path, kind, default)."""
    for key, (kind, default) in fields.items():
        yield (*parent, key), kind, default
        if isinstance(kind, dict):
            yield from _schema_entries(kind, (*parent, key))


def test_readme_config_block_shows_the_schema_defaults():
    # README's full config has the keys of SCHEMA at every level (the alias
    # q_seed may be left out), each at its default; a required key may show
    # any value
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("A full config (defaults shown", 1)[1]
    shown = {"config": json.loads(after.split("```json\n", 1)[1].split("```", 1)[0])}
    for path, kind, default in _schema_entries({"config": (SCHEMA, REQUIRED)}):
        block = shown
        for key in path[:-1]:
            block = block[key]
        if path[-1] == "q_seed" and path[-1] not in block:
            continue
        value = block[path[-1]]
        if isinstance(kind, dict):
            assert set(kind) - {"q_seed"} <= set(value) <= set(kind), path
        elif default is not REQUIRED:
            assert value == default, path


def test_loaded_config_reads_each_block_key_under_its_schema_name():
    # every key of the diagnostics, checks and output blocks, nested ones
    # included, is read on a loaded config under its own name, and equals its
    # SCHEMA default where that is not null
    loaded = config_from_dict({"objective": {"name": "quadratic"}, "schedule": {},
                               "diagnostics": {"capture": {}}})
    for block in ("diagnostics", "checks", "output"):
        for path, kind, default in _schema_entries(SCHEMA[block][0], (block,)):
            value = loaded
            for key in path:
                value = getattr(value, key)
            if default is not None and not isinstance(kind, dict):
                assert value == (tuple(default) if isinstance(default, list) else default), path


def test_unseeded_rotation_reports_seed_0(tmp_path):
    # the factor of an unseeded rotated schedule is built from seed 0 and named so
    outputs = []
    for name, extra in (("none", {}), ("zero", {"rotation_seed": 0})):
        cfg = base_config(tmp_path / name, objective={"name": "quadratic", "dimension": 2},
                          diagnostics={})
        cfg["schedule"] = {"family": "rotated-diagonal-power", "c": [0.5, 0.2],
                           "beta": [0.75, 0.8], "p": 2, **extra}
        cfg["run"].update(theta0=[1.0, -1.0], K=100, record_stride=10)
        assert main(["run", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
        outputs.append((tmp_path / name / "ensemble_report.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert b"rot=0)" in outputs[0] and b'"rotation_seed": 0' in outputs[0]


@pytest.mark.parametrize("objective,box", [
    ({"name": "quadratic"}, (-10.0, 10.0)),
    ({"name": "quadratic", "r0": 2.0}, (-10.0, 10.0)),  # r0 of an unrestricted objective
    ({"name": "exp-abs"}, (1.0, 10.0)),
    ({"name": "power-q", "q": 1.5, "r0": 2.0}, (2.0, 11.0)),
])
def test_default_check_box_sits_above_the_domain_floor(tmp_path, objective, box):
    parsed = config_from_dict(base_config(tmp_path / "out", objective=objective))
    assert parsed.objective.build().r0 == max(box[0], 0.0)
    checks = parsed.checks
    assert checks.descent.box == checks.gradbound.box == checks.smoothness.box == box


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


SHARED_FLAGS = ["-h", "--help", "--config", "--output-dir", "--force", "--jobs",
                "--master-seed", "--horizon", "--n-trajectories", "--record-stride",
                "--formats"]


def test_every_subcommand_takes_the_shared_flags_and_only_check_takes_which():
    # the shared flags come from one parent parser; their order is the help's
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: [flag for action in parser._actions for flag in action.option_strings]
               for name, parser in sub.choices.items()}
    assert options == {"run": SHARED_FLAGS, "check": [*SHARED_FLAGS, "--which"],
                       "probe-radial": SHARED_FLAGS, "validate-schedule": SHARED_FLAGS,
                       "stopping-times": SHARED_FLAGS}


def test_which_outside_check_exits_2_with_one_error_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", "--config", cfg_path, "--which", "lemma4"]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "sgdlab: error: unrecognized arguments: --which lemma4"]
    assert not (tmp_path / "out").exists()


def test_a_run_that_starts_no_pool_imports_no_pool(tmp_path):
    # concurrent.futures and multiprocessing (with logging, socket and
    # subprocess) load only where run_ensemble starts a pool
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    code = ("import sys\n"
            "import sgdlab.cli\n"
            "pool = {'concurrent.futures', 'multiprocessing'}\n"
            "sgdlab.cli.load_config(sys.argv[1])\n"
            "print(sorted(pool & set(sys.modules)))\n"
            "assert sgdlab.cli.main(['run', '--config', sys.argv[1], '--jobs', '1']) == 0\n"
            "print(sorted(pool & set(sys.modules)))\n")
    assert _in_a_fresh_process(code, cfg_path) == ["[]", "[]"]
    assert (tmp_path / "out" / "ensemble_report.json").exists()


# ---------------------------------------------------------------------------
# config fuzzer
# ---------------------------------------------------------------------------

FUZZ_BASES = (
    {   # 1-D quadratic, scalar schedule, capture and moments
        "objective": {"name": "quadratic"},
        "noise": {"kind": "additive-gaussian", "sigma": 1.0},
        "schedule": {"family": "scalar-power", "c": 1.0, "beta": 0.75, "k0": 1, "p": 1},
        "run": {"theta0": [1.0], "K": 60, "n_trajectories": 3, "master_seed": 11,
                "record_stride": 10, "jobs": 1},
        "diagnostics": {"W": 6, "epsilon_conv": 0.1, "R_div": 1e3,
                        "capture": {"theta_bar": [0.0], "R": 1.0, "epsilon": 0.5},
                        "gammas": [0.0, 0.5]},
        "checks": {"seed": 0, "horizon": 100, "which": ["p1p2p3p4", "variance", "lemma4"],
                   "variance": {"n_samples": 50}, "lemma4": {"C": 1.0, "K_max": 100}},
        "output": {"directory": "out", "formats": ["json", "csv"], "force": True},
    },
    {   # p=2 rectifier, state-dependent noise, rotated schedule
        "objective": {"name": "smooth-rectifier", "dimension": 2},
        "noise": {"kind": "additive-gaussian-statedep", "sigma_expr": "0.1*(1+norm(theta))"},
        "schedule": {"family": "rotated-diagonal-power", "c": [1.0, 0.5], "beta": [0.6, 0.8],
                     "k0": 1, "p": 2, "rotation_seed": 7},
        "run": {"theta0": [0.5, -0.5], "K": 40, "n_trajectories": 2, "master_seed": 5,
                "record_stride": 1},
        "diagnostics": {"radii": [10.0, 100.0]},
        "checks": {"seed": 3, "horizon": 100, "which": ["descent", "gradbound", "smoothness"],
                   "descent": {"n_pairs": 10, "box": [-2.0, 2.0]},
                   "gradbound": {"n_points": 10}, "smoothness": {"n_points": 2, "n_draws": 20}},
        "output": {"directory": "out", "force": True},
    },
    {   # p=2 quadratic, Rademacher noise along a declared direction
        "objective": {"name": "quadratic", "dimension": 2},
        "noise": {"kind": "rademacher-radial", "direction": [0.6, 0.8]},
        "schedule": {"family": "diagonal-power", "c": [0.5, 0.25], "beta": [0.75, 0.9],
                     "k0": 1, "p": 2},
        "run": {"theta0": [1.0, -1.0], "K": 40, "n_trajectories": 2, "master_seed": 2,
                "record_stride": 5},
        "diagnostics": {"W": 4, "epsilon_conv": 0.1, "R_div": 100.0, "radii": [10.0]},
        "checks": {"seed": 1, "horizon": 100, "which": ["variance", "smoothness", "radial"],
                   "variance": {"n_samples": 20},
                   "smoothness": {"n_points": 2, "n_draws": 20}},
        "output": {"directory": "out", "force": True},
    },
)

# Every JSON value but a valid size or worker count above 200: drawn configs
# stay tiny and never start a second process.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(0, 200), st.integers(-(10**6), -1),
    st.sampled_from([2**53 + 1, 10**30, 10**400, 1e308, 0.5, -0.0]),
    st.sampled_from(["", "x", "a\nb", "quadratic", "1e3"]),
)
_json_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.sampled_from(["", "x", "K", "name", "kind"]), _scalars, max_size=2),
)
_bad_ints = st.sampled_from([0, -1, -(10**30), 2**53 + 1, 10**30])
# Capture blocks every command must reject at config load, as (key, value)
# laid over a valid block; a theta_bar length is drawn as an offset from p.
_bad_captures = st.one_of(
    st.tuples(st.just("theta_bar"), st.sampled_from([-1, 1, 2])),
    st.tuples(st.just("R"), st.sampled_from([-1.0, -1e-300, -(10**6)])),
    st.tuples(st.just("epsilon"), st.sampled_from([0, 0.0, -0.0, -0.5, -(10**6), 1e-160])),
    st.tuples(st.just("R"), st.just(0.0)),  # with the default epsilon 0.1 R = 0
)


def _paths(config):
    """Every block and every value inside a block, as key tuples."""
    for block, body in config.items():
        yield (block,)
        for key, value in body.items():
            yield (block, key)
            if isinstance(value, dict):
                yield from ((block, key, sub) for sub in value)


@st.composite
def _fuzzed_invocations(draw):
    base = draw(st.sampled_from(FUZZ_BASES))
    config = json.loads(json.dumps(base))
    # one draw in four puts in a bad capture block instead of the random value
    bad_capture = draw(_bad_captures) if draw(st.integers(0, 3)) == 0 else None
    if bad_capture is None:
        path = draw(st.sampled_from(sorted(_paths(base))))
        value = draw(_json_values)
        if path[-1] == "jobs" and type(value) is int and value > 1:
            value = 1
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        p = base["schedule"]["p"]
        key, value = bad_capture
        capture = {"theta_bar": [0.0] * p, "R": 1.0}
        if key == "theta_bar":
            value = [0.0] * (p + value)  # never p entries; p - 1 may be none
        if key != "R" or value != 0.0:
            capture["epsilon"] = 0.5
        capture[key] = value
        config["diagnostics"]["capture"] = capture
    flags, env = [], {}
    extra = draw(st.sampled_from([None, "--master-seed", "--horizon", "--jobs", "SGDLAB_SEED"]))
    if extra == "--master-seed":
        flags += [extra, str(draw(st.integers(0, 99) | _bad_ints))]
    elif extra == "--horizon":
        flags += [extra, str(draw(st.integers(1, 200) | _bad_ints))]
    elif extra == "--jobs":
        flags += [extra, str(draw(st.just(1) | _bad_ints))]
    elif extra == "SGDLAB_SEED":
        env[extra] = draw(st.sampled_from(["0", "17", "-5", "", "x", " 3 ", str(10**30)]))
    command = draw(st.sampled_from(["run", "stopping-times", "check", "probe-radial"]))
    return command, config, flags, env, bad_capture is not None


def _invoke(command, config, flags=(), env=None):
    """main's exit code and stderr for the command on the config, run in a
    fresh directory with the given environment (SGDLAB_SEED unset unless given)."""
    env = env or {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if not env:
            os.environ.pop("SGDLAB_SEED", None)
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", "config.json", *flags])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fuzzed_invocations())
def test_fuzzed_config_exits_cleanly(invocation):
    # any one value or block of a tiny config replaced by any JSON value, or a
    # bad capture block put in, with or without flags and SGDLAB_SEED: an exit
    # code, never a traceback, and a config error is one line; every command
    # rejects a bad capture block
    command, config, flags, env, bad_capture = invocation
    code, err = _invoke(command, config, flags, env)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert code == 2 or not bad_capture, err
    if code == 2:
        assert len(err.splitlines()) == 1, err


def _bad_values(kind, default):
    """Values that a key or block of this kind refuses, null where the default is not."""
    if isinstance(kind, dict):
        values = [5, [], "x"]
    elif isinstance(kind, tuple):  # an enum
        values = ["no-such", 5]
    elif isinstance(kind, list):  # a nonempty subset
        values = [[], ["x"], kind[0]]
    else:
        values = {
            "size": [0, -1, 2**53 + 1, 1.5, True, "1"],
            "seed": [-1, 1.5, True],
            "number": ["x", True, [1.0], 10**400],
            "positive": [0, -1.0],
            "unit": [0, 1.5],
            "vector": [[], [None], [1e400], 1.0],
            "triple": [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
            "box": [[1.0, 1.0], [2.0, 1.0], [1.0], [-1e308, 1e308]],
            "numbers": ["x", [], [None]],
            "string": [5, ["x"]],
            "bool": [1, "true"],
        }[kind]
    return values + ([None] if default is not None else [])


@st.composite
def _schema_violations(draw):
    path, kind, default = draw(st.sampled_from(list(_schema_entries(SCHEMA))))
    config = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    parent = config
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    parent[path[-1]] = draw(st.sampled_from(_bad_values(kind, default)))
    command = draw(st.sampled_from(["run", "stopping-times", "check", "probe-radial",
                                    "validate-schedule"]))
    return command, config


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_schema_violations())
def test_every_schema_key_refuses_a_bad_value_of_its_kind(violation):
    # every key of SCHEMA, present in the base config or not, with a value
    # its kind refuses: a one-line config error for every command
    command, config = violation
    code, err = _invoke(command, config)
    assert code == 2 and len(err.splitlines()) == 1, err
    assert err.startswith("sgdlab: config error:"), err


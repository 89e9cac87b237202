"""Self-test of the benchmark at tiny sizes; about twenty seconds on two cores.

    python3 bench/selftest.py

It runs every workload with shrunken configs, traced and untraced, and checks:
  - a traced call writes the same report bytes as an untraced one, and the
    tracer puts every patched function back;
  - each run's last line is the result object with exactly the metrics of
    BENCHMARK.json, each with its declared unit and a finite number, and
    `correct` is true;
  - every per-layer metric is non-zero on at least one workload, so a
    misspelt span or counter name cannot hide behind the default 0;
  - the runner exits non-zero without a result in a tree that holds only
    BENCHMARK.json and bench/.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run_bench
from tracing import TARGETS, Tracer, instrument

# Per-layer metrics that may be 0 everywhere on a healthy tree.
MAY_BE_ZERO = {"engine.trajectories_truncated", "trace.overhead_s"}

TINY = {
    "capture-1d": {"run": {"K": 300, "n_trajectories": 3, "record_stride": 30}},
    "rotated-p4": {"run": {"K": 60, "n_trajectories": 2, "record_stride": 10}},
    "dense-checkpoints": {"run": {"K": 40, "n_trajectories": 3}},
    "check-suite": {"checks": {
        "horizon": 2000, "descent": {"n_pairs": 200}, "variance": {"n_samples": 200},
        "gradbound": {"n_points": 200}, "smoothness": {"n_points": 3, "n_draws": 200},
        "lemma4": {"C": 4.0, "K_max": 2000}}},
}


def write_tiny_configs(source: Path, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, blocks in TINY.items():
        cfg = json.loads((source / f"{name}.json").read_text(encoding="utf-8"))
        for block, values in blocks.items():
            cfg[block].update(values)
        (directory / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")


def originals() -> dict:
    found = {(module, attr): getattr(importlib.import_module(module), attr)
             for _, module, attr in TARGETS}
    objectives = importlib.import_module("sgdlab.objectives")
    found["catalog_lookup"] = objectives.catalog_lookup
    found["envelope_batch"] = objectives.NoiseModel.envelope_batch
    return found


def check_traced_equals_untraced(main) -> None:
    before = originals()
    for workload in run_bench.WORKLOADS.values():
        plain = run_bench.Invocation(workload, 5, "selftest-plain")
        traced = run_bench.Invocation(workload, 5, "selftest-traced")
        assert plain.call(main)[0] == 0, workload.name
        tracer = Tracer()
        with instrument(tracer):
            assert traced.call(tracer.wrap("cli.main", main))[0] == 0, workload.name
        names = plain.written()
        assert names and plain.digests(names) == traced.digests(names), (
            f"{workload.name}: traced bytes differ")
        assert tracer.spans, workload.name
    assert originals() == before, "instrument() left a function patched"


def result_of(trace: int, workload: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                             "--trace", str(trace)])
    assert rc == 0, (workload, trace, rc)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, units: dict, where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert list(result["metrics"]) == list(units), f"{where}: metric names differ"
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}, (where, name)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (where, name)


def check_bare_tree_fails() -> None:
    bare = run_bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run_bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "capture-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "runner succeeded without sources"
    assert '"metrics"' not in proc.stdout, "runner printed a result without sources"
    shutil.rmtree(bare)


def main() -> int:
    sgdlab = run_bench.load_sgdlab()
    tiny = run_bench.WORK / "selftest-configs"
    write_tiny_configs(run_bench.CONFIGS, tiny)
    run_bench.CONFIGS = tiny
    run_bench.PINNED = run_bench.WORK / "selftest-pinned.json"
    run_bench.SETUP_SAMPLES = 2
    with contextlib.redirect_stdout(io.StringIO()):
        run_bench.pin()

    check_traced_equals_untraced(sgdlab.cli.main)
    declared = run_bench.manifest()
    assert list(declared["why"]) == list(run_bench.WORKLOADS), "workloads differ"
    seen_nonzero = set()
    for workload in run_bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(trace, workload)
            check_result(result, declared[kind], f"{workload} --trace {trace}")
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload
            seen_nonzero |= {k for k, m in result["metrics"].items() if m["value"] != 0}
    never = set(declared["per_layer"]) - seen_nonzero - MAY_BE_ZERO
    assert not never, f"per-layer metrics 0 on every workload: {sorted(never)}"

    check_bare_tree_fails()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

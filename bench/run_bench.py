"""Benchmark for sgdlab: `sgdlab.cli.main` on four fixed configs.

Run from the repository root:

    python3 bench/run_bench.py --workload capture-1d --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --seconds 20     # every workload, then a summary table
    python3 bench/run_bench.py --pin            # rewrite bench/pinned.json
    python3 bench/selftest.py                   # self-test at tiny sizes

One run is one process.  It imports sgdlab from `src/` of the tree it sits
in (nothing needs building) and calls `cli.main` in process with jobs=1,
again and again until `--seconds` have passed, each time with the same argv.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json:
  wall_ref       median over calls of the call's wall time divided by the
                 time of the workload's reference kernel (see KERNELS),
                 timed just before and after it; unit "ref"
  steps_per_ref  steps per call / wall_ref.  Steps are SGD steps (the sum of
                 every trajectory's last_k) for `run`, and schedule indices
                 scanned by validate_schedule and find_eigenvalue_threshold
                 for `check`
  setup_s        `import sgdlab.cli` plus `load_config` in a fresh
                 interpreter, median of several samples spread over the run
  peak_rss_mb    ru_maxrss of this process
and prints above the JSON line the raw wall_s (median, minimum and the
highest percentile with >= 10 samples beyond it, with the sample count),
steps_per_s and error_rate.
`--trace 1` alternates untraced and traced calls and reports the per-layer
metrics: span times per call (see tracing.py), exact counts, standalone
per-step micro-timings, the tracing overhead and source line counts.

Correctness: every run first calls the workload at its pinned seed and
compares exit code and the sha256 of every report with bench/pinned.json.
Every later call must reproduce the bytes of the first call at `--seed`,
and that first call is traced, so traced and untraced reports are compared
on every run.  A call that raises, returns another exit code or writes other
bytes counts as failed; error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import timeit
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CONFIGS = BENCH / "configs"
PINNED = BENCH / "pinned.json"
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

SETUP_SAMPLES = 9
MICRO_REPEATS = 5
TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it
MODULES = ("cli", "config", "engine", "objectives", "diagnostics", "checkers",
           "reports", "errors", "__init__")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    kernel: str  # reference kernel with the same bottleneck, see KERNELS


# Why each workload exists and what it bypasses is the `why` of BENCHMARK.json.
# Sizes are in configs/<name>.json: calls of 0.15-0.4 s, so that a 20 s run
# holds 50-130 of them.  Which per-layer metric should move which end-to-end
# metric (the prediction for any engine or aggregation change):
#   engine.run_trajectory.*, engine.ns_per_step.*, engine.steps
#       -> wall_ref, steps_per_ref on capture-1d and rotated-p4; little on
#          dense-checkpoints; none on check-suite
#   engine.trace_bytes -> peak_rss_mb on capture-1d and dense-checkpoints
#   objectives.grad / sigma_at ns_per_call -> wall_ref on rotated-p4
#   diagnostics.gradient_convergence_stats.s, reports.* -> wall_ref on
#       dense-checkpoints, a minority share on capture-1d
#   checkers.*.s, engine.validate_schedule.s, objectives.*_batch.s
#       -> wall_ref on check-suite
#   config.load_config.s -> setup_s everywhere; cli.main.self_s -> wall_ref
WORKLOADS = {w.name: w for w in (
    Workload("capture-1d", "run", "interpreter"),
    Workload("rotated-p4", "run", "interpreter"),
    Workload("dense-checkpoints", "run", "interpreter"),
    Workload("check-suite", "check", "array"),
)}


def load_sgdlab():
    """Import sgdlab from this tree's src/, never from an installed copy."""
    if not (SRC / "sgdlab" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no sgdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgdlab.cli

    if SRC.resolve() not in Path(sgdlab.__file__).resolve().parents:
        raise SystemExit(f"run_bench: imported sgdlab from {sgdlab.__file__}, not {SRC}")
    return sgdlab


def manifest() -> dict:
    """BENCHMARK.json: workload reasons and the metric names and units to print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"why": {w["name"]: w["why"] for w in spec["workloads"]},
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

class Invocation:
    """One argv for `cli.main`, its output directory and materialized config."""

    def __init__(self, workload: Workload, seed: int | None, tag: str):
        cfg = json.loads((CONFIGS / f"{workload.name}.json").read_text(encoding="utf-8"))
        self.outdir = WORK / workload.name / tag
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        cfg["output"]["directory"] = str(self.outdir)
        if seed is not None and workload.command == "check":
            cfg["checks"]["seed"] = seed
        config_path = WORK / workload.name / f"{tag}.config.json"
        config_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        self.config_path = config_path
        self.seed = seed if seed is not None else (
            cfg["checks"]["seed"] if workload.command == "check" else cfg["run"]["master_seed"])
        self.argv = [workload.command, "--config", str(config_path)]
        if seed is not None and workload.command == "run":
            self.argv += ["--master-seed", str(seed)]

    def call(self, main) -> tuple[int | None, float]:
        """(exit code or None if it raised, wall seconds), into an emptied directory."""
        for path in self.outdir.iterdir():
            path.unlink()
        t0 = perf_counter()
        try:
            rc = main(self.argv)
        except Exception:  # a traceback is a failed invocation, not a crash of the run
            traceback.print_exc()
            rc = None
        return rc, perf_counter() - t0

    def written(self) -> list[str]:
        return sorted(p.name for p in self.outdir.iterdir())

    def digests(self, names: list[str]) -> dict[str, str | None]:
        """sha256 of the named reports; None for one that was not written.

        Only pinned reports are compared, so a file the program adds beside
        them (a log or a timing sidecar) is not a mismatch.
        """
        return {name: hashlib.sha256((self.outdir / name).read_bytes()).hexdigest()
                if (self.outdir / name).is_file() else None for name in names}

    def bytes_written(self, names: list[str]) -> int:
        return sum((self.outdir / name).stat().st_size for name in names)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}")


def gate(workload: Workload, main, tally: Tally) -> list[str]:
    """Call at the pinned seed; compare exit code and every report hash.

    Returns the names of the pinned reports.
    """
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload.name]
    inv = Invocation(workload, None, "pinned")
    rc, _ = inv.call(main)
    got = inv.digests(sorted(pinned["sha256"]))
    for name, digest in got.items():
        verdict = "ok" if digest == pinned["sha256"][name] else "MISMATCH"
        print(f"hash pinned seed={inv.seed} {name} {digest} {verdict}")
    tally.record(rc == pinned["exit_code"] and got == pinned["sha256"],
                 f"pinned call: exit {rc}, expected {pinned['exit_code']}, "
                 f"hashes {'match' if got == pinned['sha256'] else 'differ'}")
    return sorted(pinned["sha256"])


def reference_call(inv: Invocation, names: list[str], main, tally: Tally):
    """First call at the run's seed, traced; returns (digests, tracer)."""
    tracer = Tracer()
    with instrument(tracer):
        rc, _ = inv.call(tracer.wrap("cli.main", main))
    ref = inv.digests(names)
    for name, digest in ref.items():
        print(f"hash seed={inv.seed} {name} {digest}")
    tally.record(rc == 0 and None not in ref.values(), f"reference call: exit {rc}")
    return ref, tracer


def checked_call(inv: Invocation, main, ref: dict, tally: Tally) -> float:
    rc, wall = inv.call(main)
    same = inv.digests(list(ref)) == ref
    tally.record(rc == 0 and same, f"exit {rc}, reports {'same' if same else 'differ'}")
    return wall


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int | None:
    """Highest of p50..p99 with at least TAIL_SAMPLES samples beyond it."""
    best = None
    for q in (50, 75, 90, 95, 99):
        if n - math.ceil(q / 100.0 * n) >= TAIL_SAMPLES:
            best = q
    return best


def median_by_key(rows: list[dict]) -> dict:
    keys = set().union(*rows) if rows else set()
    return {k: statistics.median_low(r.get(k, 0) for r in rows) for k in keys}


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

# Reference kernels.  On a shared 2-vCPU x86 host the speed drifts by 20-50%
# for tens of seconds at a time, so median wall times of whole 20 s runs
# scattered by 20-45% across runs, more than any useful bound.  Each call is
# therefore reported relative to a fixed kernel timed just before and just
# after it, which slows down with the host (1-4% scatter on the same host).
# The kernel matches the workload's bottleneck; it is benchmark code, which a
# change to sgdlab cannot make faster or slower.
_Z = np.random.default_rng(0).standard_normal(4000).tolist()
_V = np.random.default_rng(1).standard_normal(100_000)


def _interpreter_kernel() -> float:
    """A scalar float loop and a loop of length-4 numpy calls, as in the engine."""
    x = 0.5
    for z in _Z:
        x -= 0.01 * (1.0 / (1.0 + math.exp(-x)) + z)
    th = np.ones(4)
    for z in _Z[:200]:
        th = th - 0.01 * (np.tanh(th) + z)
        th = th / max(1.0, float(np.linalg.norm(th)))
    return x + float(th[0])


def _array_kernel() -> float:
    """One sort of a 100k-element array, as in the checkers' batch passes."""
    return float(np.sort(_V)[0])


KERNELS = {"interpreter": _interpreter_kernel, "array": _array_kernel}


def kernel_seconds(name: str) -> float:
    t0 = perf_counter()
    KERNELS[name]()
    return perf_counter() - t0


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sgdlab.cli
sgdlab.cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def setup_sample(config_path: Path) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    sgdlab = load_sgdlab()
    main = sgdlab.cli.main
    tally = Tally()
    names = gate(workload, main, tally)
    inv = Invocation(workload, seed, "measured")
    ref, tracer = reference_call(inv, names, main, tally)
    steps = tracer.counts["engine.steps"] + tracer.counts["engine.schedule_steps"]

    # Set-up samples are spread over the window rather than taken in a burst,
    # so that their median sees the same mix of host load as the calls do.
    walls, kernels, setup = [], [], []
    start = perf_counter()
    while not walls or perf_counter() < start + seconds:
        if len(setup) < SETUP_SAMPLES * (perf_counter() - start) / seconds:
            setup.append(setup_sample(inv.config_path))
        before = kernel_seconds(workload.kernel)
        walls.append(checked_call(inv, main, ref, tally))
        kernels.append((before + kernel_seconds(workload.kernel)) / 2.0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(inv.config_path))

    wall = statistics.median(walls)
    wall_ref = statistics.median(w / k for w, k in zip(walls, kernels))
    tail = tail_percentile(len(walls))
    tail_text = "none" if tail is None else f"p{tail}={percentile(walls, tail)!r} s"
    print(f"wall_s samples={len(walls)} median={wall!r} s min={min(walls)!r} s; highest "
          f"percentile with >={TAIL_SAMPLES} samples beyond it: {tail_text}")
    print(f"steps_per_s={steps / wall!r} 1/s ({steps} steps per call / median wall_s)")
    print(f"{workload.kernel} kernel median={statistics.median(kernels)!r} s")
    print(f"setup_s samples={len(setup)} {[round(s, 4) for s in setup]}")
    print(f"error_rate={tally.failed / tally.attempted!r} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    return {
        "wall_ref": wall_ref,
        "steps_per_ref": steps / wall_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tally


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

# (metric tag, workload whose objective/noise/schedule it uses, steps per timing)
STEP_COMBOS = (
    ("quad-gauss-scalar-p1", "capture-1d", 50000),
    ("rect-gauss-scalar-p1", "dense-checkpoints", 50000),
    ("rect-statedep-rotated-p4", "rotated-p4", 2000),
)


def micro_timings() -> dict:
    """Per-step costs a span would distort, timed standalone."""
    from sgdlab.config import load_config
    from sgdlab.engine import run_trajectory
    from sgdlab.objectives import StochasticOracle

    def build(workload):
        cfg = load_config(CONFIGS / f"{workload}.json")
        obj = cfg.objective.build()
        return cfg, obj, cfg.noise.build(obj.dim)

    out = {}
    for tag, workload, k in STEP_COMBOS:
        cfg, obj, noise = build(workload)
        oracle = StochasticOracle(obj, noise)
        theta0 = list(cfg.run.theta0)
        times = []
        for rep in range(MICRO_REPEATS):
            t0 = perf_counter()
            run_trajectory(oracle, cfg.schedule, theta0, k, rep, record_stride=k)
            times.append(perf_counter() - t0)
        out[f"engine.ns_per_step.{tag}"] = statistics.median(times) / k * 1e9

    def ns_per_call(fn, arg, number=20000):
        timer = timeit.Timer("fn(arg)", globals={"fn": fn, "arg": arg})
        return statistics.median(timer.repeat(MICRO_REPEATS, number)) / number * 1e9

    _, rect1, _ = build("dense-checkpoints")
    _, rect4, noise4 = build("rotated-p4")
    theta1 = np.array([0.3])
    theta4 = np.array([0.3, -0.7, 1.1, -0.2])
    out["objectives.grad.ns_per_call.p1"] = ns_per_call(rect1.grad, theta1)
    out["objectives.grad.ns_per_call.p4"] = ns_per_call(rect4.grad, theta4)
    out["objectives.g1.ns_per_call"] = ns_per_call(rect1.g1, 0.3)
    out["objectives.sigma_at.ns_per_call"] = ns_per_call(noise4.sigma_at, theta4)
    return out


def source_lines() -> dict:
    """Non-blank, non-comment lines of each module under src/sgdlab/."""
    out = {}
    for module in MODULES:
        lines = (SRC / "sgdlab" / f"{module}.py").read_text(encoding="utf-8").splitlines()
        out[f"src.loc.{module}"] = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#"))
    out["src.loc.total"] = sum(out.values())
    return out


def call_metrics(tracer, bytes_written: int) -> dict:
    total, self_s, calls = tracer.summary()
    row = {f"{name}.s": t for name, t in total.items()}
    row.update({f"{name}.self_s": t for name, t in self_s.items()})
    row.update({f"{name}.calls": n for name, n in calls.items()})
    row["trace.spans"] = len(tracer.spans)
    row.update({k: tracer.counts[k] for k in (
        "engine.steps", "engine.schedule_steps", "engine.trajectories_truncated",
        "engine.trace_bytes", "diagnostics.checkpoints")})
    row["reports.bytes_written"] = bytes_written
    return row


def per_layer(workload: Workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    sgdlab = load_sgdlab()
    main = sgdlab.cli.main
    tally = Tally()
    names = gate(workload, main, tally)
    inv = Invocation(workload, seed, "measured")
    ref, _ = reference_call(inv, names, main, tally)
    metrics = micro_timings()

    untraced, traced, rows = [], [], []
    deadline = perf_counter() + seconds
    while not rows or perf_counter() < deadline:
        untraced.append(checked_call(inv, main, ref, tally))
        tracer = Tracer()
        with instrument(tracer):
            traced.append(checked_call(inv, tracer.wrap("cli.main", main), ref, tally))
        rows.append(call_metrics(tracer, inv.bytes_written(names)))

    metrics.update(median_by_key(rows))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics.update(source_lines())

    wall = metrics["cli.main.s"]
    shares = sorted(((v, k[:-len(".self_s")]) for k, v in metrics.items()
                     if k.endswith(".self_s")), reverse=True)
    print(f"traced calls={len(rows)} median traced wall={wall!r} s, untraced="
          f"{statistics.median(untraced)!r} s, overhead={metrics['trace.overhead_s']!r} s")
    for value, name in shares[:6]:
        print(f"self time {name}: {value!r} s ({100.0 * value / wall:.1f}% of cli.main)")
    print(f"error_rate={tally.failed / tally.attempted!r} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    return metrics, tally


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def result_line(values: dict, units: dict, tally: Tally) -> str:
    """The final JSON line: exactly the declared metrics, in declared order.

    A span that never ran in this workload (no trajectory in check-suite, no
    checker in a run workload) reads 0.
    """
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def pin() -> int:
    """Rewrite bench/pinned.json from one call per workload at its pinned seed."""
    sgdlab = load_sgdlab()
    pinned = {}
    for workload in WORKLOADS.values():
        inv = Invocation(workload, None, "pinned")
        rc, _ = inv.call(sgdlab.cli.main)
        pinned[workload.name] = {"seed": inv.seed, "exit_code": rc,
                                 "sha256": inv.digests(inv.written())}
        print(workload.name, pinned[workload.name])
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run_all(args) -> int:
    """Every workload, one process each, then one table."""
    units = manifest()["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(f"{'metric':44s}" + "".join(f"{name:>20s}" for name in WORKLOADS))
    for metric, unit in units.items():
        cells = "".join(
            f"{'-' if r is None else format(r['metrics'][metric]['value'], '.6g'):>20s}"
            for r in results.values())
        print(f"{metric + ' [' + unit + ']':44s}{cells}")
    cells = "".join(f"{'-' if r is None else format(r['failed'] / r['attempted'], '.6g'):>20s}"
                    for r in results.values())
    print(f"{'error_rate [ratio]':44s}{cells}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite bench/pinned.json at each workload's pinned seed")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS[args.workload]
    spec = manifest()
    units = spec["per_layer" if args.trace else "end_to_end"]
    print(f"workload {workload.name}: {spec['why'][workload.name]}")
    measure = per_layer if args.trace else end_to_end
    values, tally = measure(workload, args.seed, args.seconds)
    for name, unit in units.items():
        print(f"{name} = {values.get(name, 0)!r} {unit}")
    print(result_line(values, units, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: run, check, probe-radial, validate-schedule, stopping-times.
All take a JSON experiment config (--config).  A few common values can be
set by flags, and SGDLAB_SEED sets the master seed; both are laid over the
file's JSON before the config is validated (flag wins over the environment,
which wins over the file).

Exit codes: 0 success, 1 a selected check failed, 2 configuration problem
or a report that could not be written (the set is written all or nothing),
3 a theta0 or sample point below the objective's domain floor (the offending
point is printed to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import checkers, diagnostics, engine, reports
from .config import CHECK_REPORTS, ExperimentConfig, load_config
from .errors import ConfigError, ContractViolation, DomainError, numeric_policy
from .objectives import StochasticOracle


def build_parser() -> argparse.ArgumentParser:
    # The shared flags are declared once, on a parent that each subcommand
    # copies (parents=[common]).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON experiment config")
    common.add_argument("--output-dir", default=None, help="override output.directory")
    common.add_argument("--force", action="store_true", default=None,
                        help="allow overwriting report files (output.force)")
    common.add_argument("--jobs", type=int, default=None,
                        help="parallel trajectory workers (run.jobs); at most the CPU "
                             "count and the number of trajectory blocks start, and the "
                             "reports do not depend on it")
    common.add_argument("--master-seed", type=int, default=None, help="override run.master_seed")
    common.add_argument("--horizon", type=int, default=None, help="override run.K")
    common.add_argument("--n-trajectories", type=int, default=None,
                        help="override run.n_trajectories")
    common.add_argument("--record-stride", type=int, default=None,
                        help="override run.record_stride")
    common.add_argument("--formats", default=None,
                        help="comma list from {json,csv}; overrides output.formats")

    parser = argparse.ArgumentParser(
        prog="sgdlab",
        description="SGD with matrix-valued learning rates: runs, checks, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run an ensemble and write reports")
    check_p = sub.add_parser("check", parents=[common], help="run assumption / schedule checkers")
    check_p.add_argument("--which", default=None,
                         help=f"comma subset of {','.join(CHECK_REPORTS)} (checks.which)")
    sub.add_parser("probe-radial", parents=[common], help="probe the radial growth balance")
    sub.add_parser("validate-schedule", parents=[common], help="validate the step-size schedule")
    sub.add_parser("stopping-times", parents=[common], help="objective threshold-crossing times")
    return parser


def _split(text: str | None) -> list[str] | None:
    return None if text is None else [t.strip() for t in text.split(",") if t.strip()]


def _overrides(args) -> dict:
    """The flags and SGDLAB_SEED as config blocks, to be laid over the file's."""
    seed = os.environ.get("SGDLAB_SEED")
    if seed is not None:
        try:
            seed = int(seed)
        except ValueError as exc:
            raise ConfigError(f"SGDLAB_SEED must be an integer, got {seed!r}") from exc
    if args.master_seed is not None:
        seed = args.master_seed
    blocks = {
        "run": {"K": args.horizon, "n_trajectories": args.n_trajectories,
                "record_stride": args.record_stride, "jobs": args.jobs, "master_seed": seed},
        "output": {"directory": args.output_dir, "force": args.force,
                   "formats": _split(args.formats)},
        "checks": {"which": _split(getattr(args, "which", None))},
    }
    return {name: {key: value for key, value in block.items() if value is not None}
            for name, block in blocks.items()}


def _report_paths(config: ExperimentConfig, names: list[str]) -> dict[str, Path]:
    """The paths of the named reports whose format is in output.formats.

    A path that exists is refused here, before any compute, unless force is on;
    so is, even with force, a path that is a directory, and so is an output
    directory that is or sits below a file, or that the system cannot stat.
    """
    outdir = Path(config.output.directory)
    paths = {}
    try:
        for name in names:
            path = outdir / name
            if path.suffix[1:] not in config.output.formats:
                continue
            if path.exists() and not config.output.force:
                raise ConfigError(f"refusing to overwrite {path}; pass --force to allow")
            if path.is_dir():
                raise ConfigError(f"cannot write {path}: it is a directory")
            paths[name] = path
        files = [p for p in (outdir, *outdir.parents) if p.exists() and not p.is_dir()]
    except OSError as error:
        raise ConfigError(f"output.directory {str(outdir)!r}: {error.strerror}") from error
    if paths and files:
        raise ConfigError(f"output.directory {str(outdir)!r}: {files[0]} is not a directory")
    return paths


def _write_reports(config: ExperimentConfig, paths: dict[str, Path], writers: dict) -> None:
    """Make the output directory and write the set of reports all or nothing.

    writer(temporary, payload) writes each report to a temporary file beside
    it; only once every write has returned does os.replace move each
    temporary onto its path, which replaces a symlink there instead of
    writing through it.  An OSError removes the temporaries and is a config
    error, so a failed set leaves the earlier reports as they were.  Each
    command calls this once, after all of its compute, so a command that
    fails leaves neither a directory nor a partial set of reports behind, and
    one whose formats select no report leaves no directory.
    """
    if not paths:
        return
    # path is the one an error names: the directory, then each report in turn
    path, staged = Path(config.output.directory), {}
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, path in paths.items():
            writer, payload = writers[name]
            staged[path] = path.with_name(f".{name}.{os.getpid()}.tmp")
            writer(staged[path], payload)
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except OSError as error:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {error.strerror or error}") from error


def _cmd_run(config: ExperimentConfig) -> int:
    paths = _report_paths(config, ["ensemble_report.json", "checkpoints.csv"])
    diag = config.diagnostics
    result = diagnostics.run_ensemble(
        config.run,
        W=diag.W,
        epsilon_conv=diag.epsilon_conv,
        R_div=diag.R_div,
        gammas=diag.gammas,
        capture=diag.capture,
        jobs=config.jobs,
    )
    # One payload for both reports: its convergence columns are formatted once.
    payload = reports.ensemble_report_payload(result)
    _write_reports(config, paths, {
        "ensemble_report.json": (reports.write_json, payload),
        "checkpoints.csv": (reports.write_checkpoints_csv, payload["convergence"]),
    })
    return 0


def _run_check(config: ExperimentConfig, oracle: StochasticOracle, name: str):
    """Returns (document body for JSON, failed flag).

    The body always puts the typed report under "report"; check-specific
    context (e.g. the descent constant actually used) sits alongside it.
    """
    checks = config.checks
    obj = oracle.objective
    if name == "p1p2p3p4":
        report = engine.validate_schedule(config.schedule, checks.alpha, checks.horizon)
        return {"report": report}, "fail" in (report.p2_verdict, report.p3_verdict,
                                              report.p4_verdict)
    if name == "radial":
        diag = config.diagnostics
        probe = checkers.probe_radial_conditions(
            obj, oracle.noise.envelope(obj), diag.alpha, diag.r, list(diag.radii),
            diag.b_threshold, seed=checks.seed)
        return {"report": probe}, probe.a6_verdict == "violated-at-horizon"
    if name == "lemma4":
        threshold = checkers.find_eigenvalue_threshold(
            config.schedule, checks.lemma4.C, checks.alpha, checks.lemma4.K_max)
        return {"report": {
            "C": checks.lemma4.C,
            "alpha": checks.alpha,
            "K_max": checks.lemma4.K_max,
            "threshold": threshold,
        }}, threshold is None
    body = {}
    if name == "descent":
        l_tilde = checks.descent.L_tilde
        if l_tilde is None:
            l_tilde = 2.0 * checkers.holder_sup_on_box(
                obj, checks.descent.box, checks.alpha, seed=checks.seed)
        body["L_tilde"] = l_tilde
        report = checkers.check_descent_inequality(
            obj, checks.descent.n_pairs, l_tilde, checks.alpha,
            checks.descent.box, seed=checks.seed)
    elif name == "variance":
        rng = np.random.default_rng(checks.seed)
        samples = checkers.sample_gradient_norms(
            oracle, np.asarray(config.run.theta0, dtype=float), rng,
            checks.variance.n_samples)
        report = checkers.check_variance_control(samples, checks.alpha)
    elif name == "gradbound":
        report = checkers.check_grad_bound(
            obj, checks.gradbound.L, checks.alpha, checks.gradbound.n_points,
            checks.gradbound.box, seed=checks.seed)
    else:  # smoothness
        constants = checks.smoothness.constants or oracle.noise.constants
        if constants is None:
            report = checkers.AssumptionReport(
                assumption_id="smoothness", verdict="inconclusive",
                worst_violation=0.0, witness=None, tolerance=0.0)
        else:
            c1, c2, c3 = constants
            report = checkers.check_expected_smoothness(
                oracle, c1, c2, c3, checks.smoothness.n_points,
                checks.smoothness.n_draws, checks.smoothness.box, seed=checks.seed)
    body["report"] = report
    return body, report.verdict == "fail"


# The schedule scans.  They share the schedule's memo of block sums (the
# P2 sum and Schedule.last_peak_above read one pass), so they run one after
# the other on the calling thread.
SCHEDULE_LANE = ("p1p2p3p4", "lemma4")


def _queue(config: ExperimentConfig, names) -> list[str]:
    """The sampled checks in names, largest first by the points or draws that
    their config blocks declare; ties keep their order in names."""
    checks = config.checks
    size = {"smoothness": checks.smoothness.n_points * checks.smoothness.n_draws,
            "descent": checks.descent.n_pairs, "variance": checks.variance.n_samples,
            "gradbound": checks.gradbound.n_points,
            "radial": len(config.diagnostics.radii) * checkers.PROBE_HOLDER_SAMPLES}
    return sorted(names, key=lambda name: -size[name])


def _cmd_check(config: ExperimentConfig, which) -> int:
    """Run the selected checks on the calling thread and, when both kinds are
    selected, on a daemon thread of this command (an interrupt does not wait
    for it), joined before the results are read.  The calling thread runs the
    schedule scans (SCHEDULE_LANE) first; the sampled checks wait in one
    queue, largest first (`_queue`), that the daemon thread drains from the
    start and the calling thread once its scans return.  A check of sampled checks alone
    runs them in `which` order on the calling thread.  The threads share no other mutable
    state: each sampled check seeds its own Generator and carries
    errors.numeric_policy itself.  One kind alone starts no thread.  No check
    later in `which` than the earliest exception so far starts, and the
    earliest exception in `which` order is raised, as a serial run would raise
    it.  The report bytes depend on neither the order nor the threads.
    """
    stems = {check: CHECK_REPORTS[check] for check in which}
    paths = _report_paths(config, [f"{stem}.json" for stem in stems.values()]
                          + (["radial_probe.csv"] if "radial" in which else []))
    oracle = config.run.build()
    rank = {check: i for i, check in enumerate(which)}
    results = {}
    lock = threading.Lock()
    first_error = len(which)  # the `which` rank of the earliest exception so far

    def drain(queue: list[str]) -> None:
        """Run the checks that queue holds into results[name], as (body,
        failed) or as the exception that the check raised."""
        nonlocal first_error
        while True:
            with lock:
                if not queue:
                    return
                name = queue.pop(0)
                if rank[name] > first_error:
                    continue
            try:
                results[name] = _run_check(config, oracle, name)
            except Exception as exc:
                results[name] = exc
                with lock:
                    first_error = min(first_error, rank[name])

    sampled = [check for check in which if check not in SCHEDULE_LANE]
    lane = None
    if 0 < len(sampled) < len(which):
        sampled = _queue(config, sampled)  # one thread alone keeps `which` order
        lane = threading.Thread(target=drain, args=(sampled,), daemon=True)
        lane.start()
    drain([check for check in which if check in SCHEDULE_LANE])
    drain(sampled)
    if lane is not None:
        lane.join()
    writers = {}
    any_failed = False
    for check, stem in stems.items():
        if isinstance(results[check], Exception):
            raise results[check]
        body, failed = results[check]
        any_failed |= failed
        writers[f"{stem}.json"] = (reports.write_json, {"check": check, **body})
        if check == "radial":
            writers[f"{stem}.csv"] = (reports.write_radial_csv, body["report"])
    _write_reports(config, paths, writers)
    return 1 if any_failed else 0


def _cmd_stopping_times(config: ExperimentConfig) -> int:
    paths = _report_paths(config, ["stopping_times.json", "stopping_times.csv"])
    spec = dataclasses.replace(config.run, record_stride=1)
    oracle = spec.build()
    entries = []
    all_taus = []
    for i in range(spec.n_trajectories):
        traj = diagnostics.run_member(spec, oracle, i)
        st = diagnostics.compute_stopping_times(traj)
        all_taus.append(st)
        entries.append({
            "trajectory": i,
            "seed": traj.seed,
            "taus": st.taus,
            "complete": st.complete,
            "tau_geq_k": st.tau_geq_k,
            "overflow": traj.overflow,
            "domain_violation": traj.domain_violation,
            "last_k": traj.last_k,
        })
    _write_reports(config, paths, {
        "stopping_times.json": (reports.write_json, {
            **spec.ids, "horizon": spec.horizon, "trajectories": entries}),
        "stopping_times.csv": (reports.write_stopping_times_csv, all_taus),
    })
    return 0


def _run_command(args) -> int:
    config = load_config(args.config, _overrides(args))
    if args.command == "run":
        return _cmd_run(config)
    if args.command == "stopping-times":
        return _cmd_stopping_times(config)
    return _cmd_check(config, {"check": config.checks.which, "probe-radial": ["radial"],
                               "validate-schedule": ["p1p2p3p4"]}[args.command])


@numeric_policy
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run_command(args)
    except (ConfigError, ContractViolation) as exc:
        print(f"sgdlab: config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"sgdlab: domain error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"sgdlab: config error: the configured sizes do not fit in memory ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

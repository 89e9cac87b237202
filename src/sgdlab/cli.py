"""Command-line entry point.

Subcommands: run, check, probe-radial, validate-schedule, stopping-times.
All take a JSON experiment config (--config).  A few common values can be
set by flags, and SGDLAB_SEED sets the master seed; both are laid over the
file's JSON before the config is validated (flag wins over the environment,
which wins over the file).

Exit codes: 0 success, 1 a selected check failed, 2 configuration problem,
3 a theta0 or sample point below the objective's domain floor (the offending
point is printed to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import checkers, diagnostics, engine, reports
from .config import CHECK_REPORTS, ExperimentConfig, load_config
from .errors import ConfigError, ContractViolation, DomainError
from .objectives import StochasticOracle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdlab",
        description="SGD with matrix-valued learning rates: runs, checks, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--output-dir", default=None, help="override output.directory")
        p.add_argument("--force", action="store_true", default=None,
                       help="allow overwriting report files (output.force)")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel trajectory workers (run.jobs)")
        p.add_argument("--master-seed", type=int, default=None, help="override run.master_seed")
        p.add_argument("--horizon", type=int, default=None, help="override run.K")
        p.add_argument("--n-trajectories", type=int, default=None,
                       help="override run.n_trajectories")
        p.add_argument("--record-stride", type=int, default=None,
                       help="override run.record_stride")
        p.add_argument("--formats", default=None,
                       help="comma list from {json,csv}; overrides output.formats")

    add_common(sub.add_parser("run", help="run an ensemble and write reports"))
    check_p = sub.add_parser("check", help="run assumption / schedule checkers")
    add_common(check_p)
    check_p.add_argument("--which", default=None,
                         help=f"comma subset of {','.join(CHECK_REPORTS)} (checks.which)")
    add_common(sub.add_parser("probe-radial", help="probe the radial growth balance"))
    add_common(sub.add_parser("validate-schedule", help="validate the step-size schedule"))
    add_common(sub.add_parser("stopping-times", help="objective threshold-crossing times"))
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


def _prepare_paths(config: ExperimentConfig, names: list[str]) -> dict[str, Path]:
    """The report paths, refused before any compute if one exists and force is off.

    The directory is made only by _make_dir, just before the first report is
    written, so a command that fails earlier leaves none behind.
    """
    outdir = Path(config.output.directory)
    paths = {}
    for name in names:
        path = outdir / name
        if path.exists() and not config.output.force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force to allow")
        paths[name] = path
    return paths


def _make_dir(config: ExperimentConfig) -> None:
    Path(config.output.directory).mkdir(parents=True, exist_ok=True)


def _cmd_run(config: ExperimentConfig) -> int:
    formats = config.output.formats
    names = []
    if "json" in formats:
        names.append("ensemble_report.json")
    if "csv" in formats:
        names.append("checkpoints.csv")
    paths = _prepare_paths(config, names)

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
    _make_dir(config)
    if "json" in formats:
        reports.write_json(paths["ensemble_report.json"],
                           reports.ensemble_report_payload(result))
    if "csv" in formats:
        reports.write_checkpoints_csv(paths["checkpoints.csv"], result.convergence)
    return 0


def _report_failed(payload) -> bool:
    verdict = getattr(payload, "verdict", None)
    return verdict == "fail"


def _run_check(config: ExperimentConfig, name: str):
    """Returns (document body for JSON, failed flag, optional csv writer).

    The body always puts the typed report under "report"; check-specific
    context (e.g. the descent constant actually used) sits alongside it.
    """
    checks = config.checks
    obj = config.objective.build()
    if name == "p1p2p3p4":
        report = engine.validate_schedule(config.schedule, checks.alpha, checks.horizon)
        failed = "fail" in (report.p2_verdict, report.p3_verdict, report.p4_verdict)
        return {"report": report}, failed, None
    if name == "descent":
        l_tilde = checks.descent_l_tilde
        if l_tilde is None:
            l_tilde = 2.0 * checkers.holder_sup_on_box(
                obj, checks.descent_box, checks.alpha, seed=checks.seed)
        report = checkers.check_descent_inequality(
            obj, checks.descent_n_pairs, l_tilde, checks.alpha,
            checks.descent_box, seed=checks.seed)
        return {"L_tilde": l_tilde, "report": report}, _report_failed(report), None
    if name == "variance":
        oracle = StochasticOracle(obj, config.noise.build(obj.dim))
        rng = np.random.default_rng(checks.seed)
        samples = checkers.sample_gradient_norms(
            oracle, np.asarray(config.run.theta0, dtype=float), rng,
            checks.variance_n_samples)
        report = checkers.check_variance_control(samples, checks.alpha)
        return {"report": report}, _report_failed(report), None
    if name == "gradbound":
        l_const = checks.gradbound_l if checks.gradbound_l is not None else obj.l_global
        report = checkers.check_grad_bound(
            obj, l_const, checks.alpha, checks.gradbound_n_points,
            checks.gradbound_box, seed=checks.seed)
        return {"report": report}, _report_failed(report), None
    if name == "smoothness":
        oracle = StochasticOracle(obj, config.noise.build(obj.dim))
        constants = checks.smoothness_constants or oracle.noise.constants
        if constants is None:
            report = checkers.AssumptionReport(
                assumption_id="smoothness", verdict="inconclusive",
                worst_violation=0.0, witness=None, tolerance=0.0)
            return {"report": report}, False, None
        c1, c2, c3 = constants
        report = checkers.check_expected_smoothness(
            oracle, c1, c2, c3, checks.smoothness_n_points,
            checks.smoothness_n_draws, checks.smoothness_box, seed=checks.seed)
        return {"report": report}, _report_failed(report), None
    if name == "radial":
        diag = config.diagnostics
        noise = config.noise.build(obj.dim)
        probe = checkers.probe_radial_conditions(
            obj, noise.envelope(obj), diag.alpha, diag.r, list(diag.radii),
            diag.b_threshold, seed=checks.seed)
        failed = probe.a6_verdict == "violated-at-horizon"
        return ({"report": probe}, failed,
                lambda path: reports.write_radial_csv(path, probe))
    # lemma4
    threshold = checkers.find_eigenvalue_threshold(
        config.schedule, checks.lemma4_c, checks.alpha, checks.lemma4_k_max)
    body = {"report": {
        "C": checks.lemma4_c,
        "alpha": checks.alpha,
        "K_max": checks.lemma4_k_max,
        "threshold": threshold,
    }}
    return body, threshold is None, None


def _cmd_check(config: ExperimentConfig, which) -> int:
    formats = config.output.formats
    names = []
    for check in which:
        stem = CHECK_REPORTS[check]
        if "json" in formats:
            names.append(f"{stem}.json")
        if "csv" in formats and check == "radial":
            names.append(f"{stem}.csv")
    paths = _prepare_paths(config, names)

    any_failed = False
    for check in which:
        body, failed, csv_writer = _run_check(config, check)
        any_failed |= failed
        stem = CHECK_REPORTS[check]
        _make_dir(config)
        if "json" in formats:
            reports.write_json(paths[f"{stem}.json"], {"check": check, **body})
        if "csv" in formats and csv_writer is not None:
            csv_writer(paths[f"{stem}.csv"])
    return 1 if any_failed else 0


def _cmd_stopping_times(config: ExperimentConfig) -> int:
    formats = config.output.formats
    names = []
    if "json" in formats:
        names.append("stopping_times.json")
    if "csv" in formats:
        names.append("stopping_times.csv")
    paths = _prepare_paths(config, names)

    spec = dataclasses.replace(config.run, record_stride=1)
    oracle = spec.build()
    entries = []
    all_taus = []
    for i in range(spec.n_trajectories):
        seed = diagnostics.split_seed(spec.master_seed, i)
        traj = engine.run_trajectory(
            oracle, spec.schedule, np.asarray(spec.theta0, dtype=float),
            spec.horizon, seed, record_stride=1)
        st = diagnostics.compute_stopping_times(traj)
        all_taus.append(st)
        entries.append({
            "trajectory": i,
            "seed": seed,
            "taus": st.taus,
            "complete": st.complete,
            "tau_geq_k": st.tau_geq_k,
            "overflow": traj.overflow,
            "domain_violation": traj.domain_violation,
            "last_k": traj.last_k,
        })
    _make_dir(config)
    if "json" in formats:
        reports.write_json(paths["stopping_times.json"], {
            "objective_id": spec.objective_id,
            "noise_id": spec.noise_id,
            "schedule_id": spec.schedule_id,
            "horizon": spec.horizon,
            "trajectories": entries,
        })
    if "csv" in formats:
        reports.write_stopping_times_csv(paths["stopping_times.csv"], all_taus)
    return 0


def _run_command(args) -> int:
    config = load_config(args.config, _overrides(args))
    if args.command == "run":
        return _cmd_run(config)
    if args.command == "stopping-times":
        return _cmd_stopping_times(config)
    return _cmd_check(config, {"check": config.checks.which, "probe-radial": ["radial"],
                               "validate-schedule": ["p1p2p3p4"]}[args.command])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # Overflow, NaN and division by zero are reported by the code that
        # meets them (a diverging trajectory counts in n_overflow, a non-finite
        # sigma is a ContractViolation), not as numpy warnings.  Entered once
        # per command, not per step, where its ~2 us would show.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _run_command(args)
    except ConfigError as exc:
        print(f"sgdlab: config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        theta = None if exc.theta is None else np.asarray(exc.theta).tolist()
        print(f"sgdlab: domain error: {exc} (theta={theta})", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"sgdlab: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"sgdlab: config error: the configured sizes do not fit in memory ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

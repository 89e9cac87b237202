"""Experiment configuration: the JSON schema, its defaults and its one validator.

`load_config` reads a JSON file and merges command-line overrides into it
block by block; `config_from_dict` then checks every value once and builds
the objects that run.  Unknown keys are rejected (they are almost always
typos).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import CaptureConfig, EnsembleSpec
from .engine import Schedule
from .errors import ConfigError, ContractViolation
from .objectives import NOISE_KINDS, NoiseSpec, ObjectiveSpec

DEFAULT_FORMATS = ("json", "csv")
# Above 2**53 a JSON number is no longer an exact integer, and no array of
# that many elements can be allocated.
MAX_SIZE = 2**53
# Each check and the stem of the report file it writes.
CHECK_REPORTS = {
    "p1p2p3p4": "schedule_report",
    "descent": "descent_report",
    "variance": "variance_report",
    "gradbound": "gradbound_report",
    "smoothness": "smoothness_report",
    "radial": "radial_probe",
    "lemma4": "lemma4_report",
}
CHECK_NAMES = tuple(CHECK_REPORTS)


def _block(value, allowed: set[str], where: str) -> dict:
    """A config object that has no keys but the allowed ones."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where!r} block must be a JSON object")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where!r} block")
    return value


def _number(value, where: str, integer: bool = False) -> float | int:
    """A finite JSON number as a float, or as an int (JSON reads 1e400 as inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is beyond the float64 range") from None


def _get(block: dict, key: str, default, where: str, integer: bool = False):
    """block[key] as a finite number; null is accepted only where the default is."""
    value = block.get(key, default)
    if value is None and default is None:
        return None
    return _number(value, f"{where}.{key}", integer)


def _get_positive(block: dict, key: str, default, where: str, hi: float = math.inf):
    """block[key] as a finite number in (0, hi]; null is accepted only where
    the default is."""
    value = _get(block, key, default, where)
    if value is not None and not 0.0 < value <= hi:
        bound = "> 0" if hi == math.inf else f"in (0, {hi:g}]"
        raise ConfigError(f"{where}.{key} must be {bound}, got {value!r}")
    return value


def _get_size(block: dict, key: str, default, where: str):
    """block[key] as an integer size, count or horizon from 1 to MAX_SIZE."""
    value = _get(block, key, default, where, integer=True)
    if value is not None and not 1 <= value <= MAX_SIZE:
        raise ConfigError(f"{where}.{key} must be an integer from 1 to 2**53, "
                          f"got {block[key]!r}")
    return value


def _get_seed(block: dict, key: str, default, where: str):
    """block[key] as a seed numpy's SeedSequence accepts: an integer >= 0."""
    value = _get(block, key, default, where, integer=True)
    if value is not None and value < 0:
        raise ConfigError(f"{where}.{key} must be an integer >= 0, got {value}")
    return value


@dataclass(frozen=True)
class DiagnosticsBlock:
    W: int | None
    epsilon_conv: float | None
    R_div: float | None
    capture: CaptureConfig | None
    gammas: tuple[float, ...] | None
    radii: tuple[float, ...]
    alpha: float
    r: float
    b_threshold: float


@dataclass(frozen=True)
class ChecksBlock:
    alpha: float
    horizon: int
    seed: int
    which: tuple[str, ...]
    descent_n_pairs: int
    descent_l_tilde: float | None  # None: use 2x the grid Hölder-sup estimate
    descent_box: tuple[float, float]
    variance_n_samples: int
    gradbound_n_points: int
    gradbound_box: tuple[float, float]
    gradbound_l: float | None  # None: use the objective's declared constant
    smoothness_constants: tuple[float, float, float] | None
    smoothness_n_points: int
    smoothness_n_draws: int
    smoothness_box: tuple[float, float]
    lemma4_c: float
    lemma4_k_max: int


@dataclass(frozen=True)
class OutputBlock:
    directory: str
    formats: tuple[str, ...]
    force: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveSpec
    noise: NoiseSpec
    schedule: Schedule
    run: EnsembleSpec
    jobs: int
    diagnostics: DiagnosticsBlock
    checks: ChecksBlock
    output: OutputBlock


def _default_box(r0: float) -> tuple[float, float]:
    """The checks' default sample box: above the domain floor, if there is one."""
    return (r0, r0 + 9.0) if r0 > 0.0 else (-10.0, 10.0)


def _parse_vector(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of numbers")
    return tuple(_number(v, f"{where} entry") for v in value)


def _parse_box(value, default: tuple[float, float], where: str) -> tuple[float, float]:
    if value is None:
        return default
    box = _parse_vector(value, where)
    if len(box) != 2 or not box[1] > box[0]:
        raise ConfigError(f"{where} must be [lo, hi] with hi > lo")
    return (box[0], box[1])


def config_from_dict(raw: dict) -> ExperimentConfig:
    _block(raw, {"objective", "noise", "schedule", "run", "diagnostics", "checks",
                 "output"}, "config")

    # objective -------------------------------------------------------------
    ob = _block(raw.get("objective", {}), {"name", "dimension", "q", "r0"}, "objective")
    if "name" not in ob:
        raise ConfigError("config needs an objective block with a name")
    objective = ObjectiveSpec(
        name=str(ob["name"]),
        dimension=_get_size(ob, "dimension", 1, "objective"),
        q=_get(ob, "q", None, "objective"),
        r0=_get(ob, "r0", None, "objective"),
    )
    try:
        r0 = objective.build().r0  # also fails fast on bad objective parameters
    except (ContractViolation, KeyError) as exc:
        raise ConfigError(f"invalid objective: {exc}") from exc

    # noise -----------------------------------------------------------------
    nb = _block(raw.get("noise", {"kind": "zero"}),
                {"kind", "sigma", "sigma_expr", "direction", "constants"}, "noise")
    if "kind" not in nb:
        raise ConfigError("noise block needs a kind")
    if nb["kind"] not in NOISE_KINDS:
        raise ConfigError(f"unknown noise kind {nb['kind']!r}; expected one of {NOISE_KINDS}")
    constants = nb.get("constants")
    if constants is not None:
        constants = _parse_vector(constants, "noise.constants")
        if len(constants) != 3:
            raise ConfigError("noise.constants must be [C1, C2, C3]")
    direction = nb.get("direction")
    if direction is not None:
        direction = _parse_vector(direction, "noise.direction")
    sigma_expr = nb.get("sigma_expr")
    if sigma_expr is not None and not isinstance(sigma_expr, str):
        raise ConfigError("noise.sigma_expr must be a string")
    noise = NoiseSpec(
        kind=nb["kind"],
        sigma=_get(nb, "sigma", 0.0, "noise"),
        sigma_expr=sigma_expr,
        direction=direction,
        constants=constants,
    )

    # schedule ----------------------------------------------------------------
    if "schedule" not in raw:
        raise ConfigError("config needs a schedule block")
    sb = dict(_block(raw["schedule"], {"family", "c", "beta", "k0", "p", "rotation_seed",
                                       "q_seed"}, "schedule"))
    if "q_seed" in sb:  # accepted alias for rotation_seed
        sb.setdefault("rotation_seed", sb.pop("q_seed"))
    p = _get_size(sb, "p", 1, "schedule")
    c = sb.get("c", 1.0)
    beta = sb.get("beta", 0.75)
    c_vec = (_parse_vector(c, "schedule.c") if isinstance(c, list)
             else (_number(c, "schedule.c"),) * p)
    b_vec = (_parse_vector(beta, "schedule.beta") if isinstance(beta, list)
             else (_number(beta, "schedule.beta"),) * p)
    if len(c_vec) != p or len(b_vec) != p:
        raise ConfigError("schedule.c and schedule.beta must have length p")
    try:
        schedule = Schedule(
            family=sb.get("family", "scalar-power"),
            c=np.asarray(c_vec),
            beta=np.asarray(b_vec),
            k0=_get(sb, "k0", 1.0, "schedule"),
            dim=p,
            rotation_seed=_get_seed(sb, "rotation_seed", None, "schedule"),
        )
    except ContractViolation as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc

    # run ---------------------------------------------------------------------
    rb = _block(raw.get("run", {}), {"theta0", "K", "n_trajectories", "master_seed",
                                     "record_stride", "jobs"}, "run")
    jobs = _get_size(rb, "jobs", 1, "run")
    try:
        run = EnsembleSpec(
            objective=objective,
            noise=noise,
            schedule=schedule,
            theta0=_parse_vector(rb.get("theta0", [1.0] * p), "run.theta0"),
            horizon=_get_size(rb, "K", 1000, "run"),
            n_trajectories=_get_size(rb, "n_trajectories", 1, "run"),
            master_seed=_get_seed(rb, "master_seed", 0, "run"),
            record_stride=_get_size(rb, "record_stride", 1, "run"),
        )
    except ContractViolation as exc:
        raise ConfigError(f"invalid run block: {exc}") from exc

    # diagnostics ---------------------------------------------------------------
    db = _block(raw.get("diagnostics", {}), {"W", "epsilon_conv", "R_div", "capture", "gammas",
                                             "radii", "alpha", "r", "b_threshold"}, "diagnostics")
    capture = None
    if db.get("capture") is not None:
        cap = _block(db["capture"], {"theta_bar", "R", "epsilon"}, "diagnostics.capture")
        cap_r = _get(cap, "R", 1.0, "capture")
        capture = CaptureConfig(
            theta_bar=_parse_vector(cap.get("theta_bar", [0.0] * p), "capture.theta_bar"),
            R=cap_r,
            epsilon=_get(cap, "epsilon", 0.1 * cap_r, "capture"),  # default 0.1 R
        )
        try:
            capture.check(p)
        except ContractViolation as exc:
            raise ConfigError(f"invalid diagnostics.capture block: {exc}") from exc
    gammas = db.get("gammas")
    diagnostics = DiagnosticsBlock(
        W=_get_size(db, "W", None, "diagnostics"),
        epsilon_conv=_get_positive(db, "epsilon_conv", None, "diagnostics"),
        R_div=_get_positive(db, "R_div", None, "diagnostics"),
        capture=capture,
        gammas=None if gammas is None else _parse_vector(gammas, "diagnostics.gammas"),
        radii=_parse_vector(db.get("radii", [1e1, 1e2, 1e3, 1e4, 1e5, 1e6]),
                            "diagnostics.radii"),
        alpha=_get_positive(db, "alpha", 1.0, "diagnostics", hi=1.0),
        r=_get(db, "r", 0.5, "diagnostics"),
        b_threshold=_get(db, "b_threshold", 0.25, "diagnostics"),
    )

    # checks ----------------------------------------------------------------
    cb = _block(raw.get("checks", {}), {"alpha", "horizon", "seed", "which", "descent",
                                        "variance", "gradbound", "smoothness", "lemma4"}, "checks")
    box_default = _default_box(r0)
    dc = _block(cb.get("descent", {}), {"n_pairs", "L_tilde", "box"}, "checks.descent")
    vc = _block(cb.get("variance", {}), {"n_samples"}, "checks.variance")
    gc = _block(cb.get("gradbound", {}), {"n_points", "box", "L"}, "checks.gradbound")
    sc = _block(cb.get("smoothness", {}), {"constants", "n_points", "n_draws", "box"},
                "checks.smoothness")
    lc = _block(cb.get("lemma4", {}), {"C", "K_max"}, "checks.lemma4")
    sm_constants = sc.get("constants")
    if sm_constants is not None:
        sm_constants = _parse_vector(sm_constants, "checks.smoothness.constants")
        if len(sm_constants) != 3:
            raise ConfigError("checks.smoothness.constants must be [C1, C2, C3]")
    which = cb.get("which", list(CHECK_NAMES))
    if (not isinstance(which, list) or not which
            or any(w not in CHECK_NAMES for w in which)):
        raise ConfigError(f"checks.which must be a nonempty subset of {CHECK_NAMES}")
    checks = ChecksBlock(
        alpha=_get_positive(cb, "alpha", 1.0, "checks", hi=1.0),
        horizon=_get_size(cb, "horizon", 100000, "checks"),
        seed=_get_seed(cb, "seed", 0, "checks"),
        which=tuple(which),
        descent_n_pairs=_get_size(dc, "n_pairs", 10000, "checks.descent"),
        descent_l_tilde=_get(dc, "L_tilde", None, "checks.descent"),
        descent_box=_parse_box(dc.get("box"), box_default, "checks.descent.box"),
        variance_n_samples=_get_size(vc, "n_samples", 10000, "checks.variance"),
        gradbound_n_points=_get_size(gc, "n_points", 1000, "checks.gradbound"),
        gradbound_box=_parse_box(gc.get("box"), box_default, "checks.gradbound.box"),
        gradbound_l=_get(gc, "L", None, "checks.gradbound"),
        smoothness_constants=sm_constants,
        smoothness_n_points=_get_size(sc, "n_points", 10, "checks.smoothness"),
        smoothness_n_draws=_get_size(sc, "n_draws", 10000, "checks.smoothness"),
        smoothness_box=_parse_box(sc.get("box"), box_default, "checks.smoothness.box"),
        lemma4_c=_get(lc, "C", 1.0, "checks.lemma4"),
        lemma4_k_max=_get_size(lc, "K_max", 100000, "checks.lemma4"),
    )

    # output ------------------------------------------------------------------
    out = _block(raw.get("output", {}), {"directory", "formats", "force"}, "output")
    formats = out.get("formats", list(DEFAULT_FORMATS))
    if (not isinstance(formats, list) or not formats
            or any(f not in DEFAULT_FORMATS for f in formats)):
        raise ConfigError("output.formats must be a nonempty subset of ['json', 'csv']")
    directory = out.get("directory", "sgdlab-out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory must be a string")
    force = out.get("force", False)
    if not isinstance(force, bool):
        raise ConfigError("output.force must be a boolean")
    output = OutputBlock(directory=directory, formats=tuple(formats), force=force)

    try:
        noise.build(objective.dimension)  # compiles and checks sigma_expr
    except ContractViolation as exc:
        raise ConfigError(f"invalid noise: {exc}") from exc

    return ExperimentConfig(
        objective=objective,
        noise=noise,
        schedule=schedule,
        run=run,
        jobs=jobs,
        diagnostics=diagnostics,
        checks=checks,
        output=output,
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON file, lay each block of overrides over its block, validate."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int beyond the digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    for key, values in (overrides or {}).items():
        if values and isinstance(raw, dict) and isinstance(raw.get(key, {}), dict):
            raw[key] = {**raw.get(key, {}), **values}
    return config_from_dict(raw)

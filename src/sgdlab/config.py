"""Experiment configuration: JSON schema, defaults, and lossless round-trip.

The canonical form materializes every default, so parse -> serialize ->
parse is the identity on the normalized dictionary.  Unknown keys are
rejected (they are almost always typos).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Schedule
from .errors import ConfigError, ContractViolation
from .objectives import NOISE_KINDS, NoiseSpec, ObjectiveSpec

DEFAULT_FORMATS = ("json", "csv")
# Above 2**53 a JSON number is no longer an exact integer, and no array of
# that many elements can be allocated.
MAX_SIZE = 2**53
CHECK_NAMES = ("p1p2p3p4", "descent", "variance", "gradbound", "smoothness",
               "radial", "lemma4")


def _require_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where!r} block")


def _number(value, where: str) -> float | int:
    """A finite JSON number (JSON reads 1e400 as inf, and NaN is accepted)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _get_num(block: dict, key: str, default, where: str, integer: bool = False):
    """block[key] as a finite number; null is accepted only where the default is."""
    value = block.get(key, default)
    if value is None and default is None:
        return None
    value = _number(value, f"{where}.{key}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{where}.{key} must be an integer")
        return int(value)
    return float(value)


def _get_size(block: dict, key: str, default, where: str):
    """block[key] as an integer size, step count or index of at most MAX_SIZE."""
    value = _get_num(block, key, default, where, integer=True)
    if value is not None and abs(value) > MAX_SIZE:
        raise ConfigError(f"{where}.{key} must be at most 2**53, got {block[key]!r}")
    return value


@dataclass(frozen=True)
class CaptureBlock:
    theta_bar: tuple[float, ...]
    R: float
    epsilon: float

    def to_dict(self) -> dict:
        return {"theta_bar": list(self.theta_bar), "R": self.R, "epsilon": self.epsilon}


@dataclass(frozen=True)
class RunBlock:
    theta0: tuple[float, ...]
    K: int
    n_trajectories: int
    master_seed: int
    record_stride: int
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "theta0": list(self.theta0),
            "K": self.K,
            "n_trajectories": self.n_trajectories,
            "master_seed": self.master_seed,
            "record_stride": self.record_stride,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class DiagnosticsBlock:
    W: int | None
    epsilon_conv: float | None
    R_div: float | None
    capture: CaptureBlock | None
    gammas: tuple[float, ...] | None
    radii: tuple[float, ...]
    alpha: float
    r: float
    b_threshold: float

    def to_dict(self) -> dict:
        return {
            "W": self.W,
            "epsilon_conv": self.epsilon_conv,
            "R_div": self.R_div,
            "capture": None if self.capture is None else self.capture.to_dict(),
            "gammas": None if self.gammas is None else list(self.gammas),
            "radii": list(self.radii),
            "alpha": self.alpha,
            "r": self.r,
            "b_threshold": self.b_threshold,
        }


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

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "horizon": self.horizon,
            "seed": self.seed,
            "which": list(self.which),
            "descent": {
                "n_pairs": self.descent_n_pairs,
                "L_tilde": self.descent_l_tilde,
                "box": list(self.descent_box),
            },
            "variance": {"n_samples": self.variance_n_samples},
            "gradbound": {
                "n_points": self.gradbound_n_points,
                "box": list(self.gradbound_box),
                "L": self.gradbound_l,
            },
            "smoothness": {
                "constants": None if self.smoothness_constants is None
                else list(self.smoothness_constants),
                "n_points": self.smoothness_n_points,
                "n_draws": self.smoothness_n_draws,
                "box": list(self.smoothness_box),
            },
            "lemma4": {"C": self.lemma4_c, "K_max": self.lemma4_k_max},
        }


@dataclass(frozen=True)
class OutputBlock:
    directory: str
    formats: tuple[str, ...]
    force: bool = False

    def to_dict(self) -> dict:
        return {"directory": self.directory, "formats": list(self.formats),
                "force": self.force}


@dataclass
class ExperimentConfig:
    objective: ObjectiveSpec
    noise: NoiseSpec
    schedule: Schedule
    run: RunBlock
    diagnostics: DiagnosticsBlock
    checks: ChecksBlock
    output: OutputBlock

    def to_dict(self) -> dict:
        return {
            "objective": {
                "name": self.objective.name,
                "dimension": self.objective.dimension,
                "q": self.objective.q,
                "r0": self.objective.r0,
            },
            "noise": {
                "kind": self.noise.kind,
                "sigma": self.noise.sigma,
                "sigma_expr": self.noise.sigma_expr,
                "direction": None if self.noise.direction is None else list(self.noise.direction),
                "constants": None if self.noise.constants is None else list(self.noise.constants),
            },
            "schedule": {
                "family": self.schedule.family,
                "c": [float(v) for v in self.schedule.c],
                "beta": [float(v) for v in self.schedule.beta],
                "k0": self.schedule.k0,
                "p": self.schedule.dim,
                "rotation_seed": self.schedule.rotation_seed,
            },
            "run": self.run.to_dict(),
            "diagnostics": self.diagnostics.to_dict(),
            "checks": self.checks.to_dict(),
            "output": self.output.to_dict(),
        }


def _default_box(objective: ObjectiveSpec) -> tuple[float, float]:
    from .objectives import RESTRICTED_DEFAULT_R0

    r0 = objective.r0
    if r0 is None and objective.name in ("exp-abs", "power-q", "log1p-abs", "loglog1p-abs"):
        r0 = RESTRICTED_DEFAULT_R0
    if r0 and r0 > 0:
        return (float(r0), float(r0) + 9.0)
    return (-10.0, 10.0)


def _parse_vector(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of numbers")
    return tuple(float(_number(v, f"{where} entry")) for v in value)


def _parse_box(value, default: tuple[float, float], where: str) -> tuple[float, float]:
    if value is None:
        return default
    box = _parse_vector(value, where)
    if len(box) != 2 or not box[1] > box[0]:
        raise ConfigError(f"{where} must be [lo, hi] with hi > lo")
    return (box[0], box[1])


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, {"objective", "noise", "schedule", "run", "diagnostics",
                        "checks", "output"}, "config")

    # objective -------------------------------------------------------------
    ob = raw.get("objective")
    if not isinstance(ob, dict) or "name" not in ob:
        raise ConfigError("config needs an objective block with a name")
    _require_keys(ob, {"name", "dimension", "q", "r0"}, "objective")
    objective = ObjectiveSpec(
        name=str(ob["name"]),
        dimension=_get_size(ob, "dimension", 1, "objective"),
        q=_get_num(ob, "q", None, "objective"),
        r0=_get_num(ob, "r0", None, "objective"),
    )

    # noise -----------------------------------------------------------------
    nb = raw.get("noise", {"kind": "zero"})
    if not isinstance(nb, dict) or "kind" not in nb:
        raise ConfigError("noise block needs a kind")
    _require_keys(nb, {"kind", "sigma", "sigma_expr", "direction", "constants"}, "noise")
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
        kind=str(nb["kind"]),
        sigma=_get_num(nb, "sigma", 0.0, "noise"),
        sigma_expr=sigma_expr,
        direction=direction,
        constants=None if constants is None else tuple(constants),
    )

    # schedule ----------------------------------------------------------------
    sb = raw.get("schedule")
    if not isinstance(sb, dict):
        raise ConfigError("config needs a schedule block")
    sb = dict(sb)
    if "q_seed" in sb:  # accepted alias for rotation_seed
        sb.setdefault("rotation_seed", sb.pop("q_seed"))
    _require_keys(sb, {"family", "c", "beta", "k0", "p", "rotation_seed"}, "schedule")
    family = sb.get("family", "scalar-power")
    p = _get_size(sb, "p", 1, "schedule")
    c = sb.get("c", 1.0)
    beta = sb.get("beta", 0.75)
    c_vec = (_parse_vector(c, "schedule.c") if isinstance(c, list)
             else (float(_number(c, "schedule.c")),) * p)
    b_vec = (_parse_vector(beta, "schedule.beta") if isinstance(beta, list)
             else (float(_number(beta, "schedule.beta")),) * p)
    if len(c_vec) != p or len(b_vec) != p:
        raise ConfigError("schedule.c and schedule.beta must have length p")
    rotation_seed = _get_num(sb, "rotation_seed", None, "schedule", integer=True)
    try:
        schedule = Schedule(
            family=family,
            c=np.asarray(c_vec),
            beta=np.asarray(b_vec),
            k0=_get_num(sb, "k0", 1.0, "schedule"),
            dim=p,
            rotation_seed=rotation_seed,
        )
    except ContractViolation as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc

    # run ---------------------------------------------------------------------
    rb = raw.get("run", {})
    _require_keys(rb, {"theta0", "K", "n_trajectories", "master_seed",
                       "record_stride", "jobs"}, "run")
    theta0 = _parse_vector(rb.get("theta0", [1.0] * p), "run.theta0")
    run = RunBlock(
        theta0=theta0,
        K=_get_size(rb, "K", 1000, "run"),
        n_trajectories=_get_size(rb, "n_trajectories", 1, "run"),
        master_seed=_get_num(rb, "master_seed", 0, "run", integer=True),
        record_stride=_get_size(rb, "record_stride", 1, "run"),
        jobs=_get_size(rb, "jobs", 1, "run"),
    )
    if run.K < 1:
        raise ConfigError("run.K must be >= 1")
    if run.n_trajectories < 1:
        raise ConfigError("run.n_trajectories must be >= 1")
    if run.record_stride < 1:
        raise ConfigError("run.record_stride must be >= 1")
    if run.jobs < 1:
        raise ConfigError("run.jobs must be >= 1")
    if len(theta0) != objective.dimension:
        raise ConfigError("run.theta0 length must equal objective.dimension")

    # diagnostics ---------------------------------------------------------------
    db = raw.get("diagnostics", {})
    _require_keys(db, {"W", "epsilon_conv", "R_div", "capture", "gammas",
                       "radii", "alpha", "r", "b_threshold"}, "diagnostics")
    cap = db.get("capture")
    capture = None
    if cap is not None:
        _require_keys(cap, {"theta_bar", "R", "epsilon"}, "diagnostics.capture")
        cap_r = _get_num(cap, "R", 1.0, "capture")
        capture = CaptureBlock(
            theta_bar=_parse_vector(cap.get("theta_bar", [0.0] * p), "capture.theta_bar"),
            R=cap_r,
            epsilon=_get_num(cap, "epsilon", 0.1 * cap_r, "capture"),  # default 0.1 R
        )
    gammas = db.get("gammas")
    diagnostics = DiagnosticsBlock(
        W=_get_size(db, "W", None, "diagnostics"),
        epsilon_conv=_get_num(db, "epsilon_conv", None, "diagnostics"),
        R_div=_get_num(db, "R_div", None, "diagnostics"),
        capture=capture,
        gammas=None if gammas is None else _parse_vector(gammas, "diagnostics.gammas"),
        radii=_parse_vector(db.get("radii", [1e1, 1e2, 1e3, 1e4, 1e5, 1e6]),
                            "diagnostics.radii"),
        alpha=_get_num(db, "alpha", 1.0, "diagnostics"),
        r=_get_num(db, "r", 0.5, "diagnostics"),
        b_threshold=_get_num(db, "b_threshold", 0.25, "diagnostics"),
    )

    # checks ----------------------------------------------------------------
    cb = raw.get("checks", {})
    _require_keys(cb, {"alpha", "horizon", "seed", "which", "descent", "variance",
                       "gradbound", "smoothness", "lemma4"}, "checks")
    box_default = _default_box(objective)
    dc = cb.get("descent", {})
    _require_keys(dc, {"n_pairs", "L_tilde", "box"}, "checks.descent")
    vc = cb.get("variance", {})
    _require_keys(vc, {"n_samples"}, "checks.variance")
    gc = cb.get("gradbound", {})
    _require_keys(gc, {"n_points", "box", "L"}, "checks.gradbound")
    sc = cb.get("smoothness", {})
    _require_keys(sc, {"constants", "n_points", "n_draws", "box"}, "checks.smoothness")
    lc = cb.get("lemma4", {})
    _require_keys(lc, {"C", "K_max"}, "checks.lemma4")
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
        alpha=_get_num(cb, "alpha", 1.0, "checks"),
        horizon=_get_size(cb, "horizon", 100000, "checks"),
        seed=_get_num(cb, "seed", 0, "checks", integer=True),
        which=tuple(which),
        descent_n_pairs=_get_size(dc, "n_pairs", 10000, "checks.descent"),
        descent_l_tilde=_get_num(dc, "L_tilde", None, "checks.descent"),
        descent_box=_parse_box(dc.get("box"), box_default, "checks.descent.box"),
        variance_n_samples=_get_size(vc, "n_samples", 10000, "checks.variance"),
        gradbound_n_points=_get_size(gc, "n_points", 1000, "checks.gradbound"),
        gradbound_box=_parse_box(gc.get("box"), box_default, "checks.gradbound.box"),
        gradbound_l=_get_num(gc, "L", None, "checks.gradbound"),
        smoothness_constants=None if sm_constants is None else tuple(sm_constants),
        smoothness_n_points=_get_size(sc, "n_points", 10, "checks.smoothness"),
        smoothness_n_draws=_get_size(sc, "n_draws", 10000, "checks.smoothness"),
        smoothness_box=_parse_box(sc.get("box"), box_default, "checks.smoothness.box"),
        lemma4_c=_get_num(lc, "C", 1.0, "checks.lemma4"),
        lemma4_k_max=_get_size(lc, "K_max", 100000, "checks.lemma4"),
    )

    # output ------------------------------------------------------------------
    out = raw.get("output", {})
    _require_keys(out, {"directory", "formats", "force"}, "output")
    formats = out.get("formats", list(DEFAULT_FORMATS))
    if (not isinstance(formats, list) or not formats
            or any(f not in DEFAULT_FORMATS for f in formats)):
        raise ConfigError("output.formats must be a nonempty subset of ['json', 'csv']")
    force = out.get("force", False)
    if not isinstance(force, bool):
        raise ConfigError("output.force must be a boolean")
    output = OutputBlock(
        directory=str(out.get("directory", "sgdlab-out")),
        formats=tuple(formats),
        force=force,
    )

    try:
        objective.build()  # fail fast on bad objective parameters
    except (ContractViolation, KeyError) as exc:
        raise ConfigError(f"invalid objective: {exc}") from exc
    try:
        noise.build(objective.dimension)  # compiles and checks sigma_expr
    except ContractViolation as exc:
        raise ConfigError(f"invalid noise: {exc}") from exc

    return ExperimentConfig(
        objective=objective,
        noise=noise,
        schedule=schedule,
        run=run,
        diagnostics=diagnostics,
        checks=checks,
        output=output,
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(raw)

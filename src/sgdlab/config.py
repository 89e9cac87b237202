"""Experiment configuration: the JSON schema with its defaults, its reader and its builder.

`load_config` reads a JSON file and lays command-line overrides over it block
by block; `config_from_dict` reads every value against `SCHEMA` once and
builds the objects that run.  Unknown keys are rejected (they are almost
always typos).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from .checkers import grad_bound_scale
from .diagnostics import CaptureConfig, EnsembleSpec
from .engine import POWER_FAMILIES, Schedule
from .errors import (ConfigError, ContractViolation, check_alpha, check_box, check_finite,
                     check_increasing, check_int, check_positive)
from .objectives import CATALOG_NAMES, NOISE_KINDS, NoiseSpec, ObjectiveSpec, smoothness_constants

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


REQUIRED = object()  # the default of a key, or the absent value of a block, that must be given
_ALL_CHECKS = list(CHECK_NAMES)
_ALL_FORMATS = ["json", "csv"]
# Every key once, as key: (kind, default); a block is ({key: ...}, value when
# absent).  The kinds are "size" (an integer from 1 to MAX_SIZE), "seed" (an
# integer >= 0), "number" (finite), "positive", "unit" (an alpha), "vector"
# (a nonempty list of numbers), "triple", "box", "numbers" (a number or a
# vector), "string" and "bool"; a tuple of strings is an enum and a list of
# strings a nonempty subset.  The ranges are the rules of errors.py.  A null
# default is derived from other values by config_from_dict, or means "not set".
SCHEMA = {
    "objective": ({"name": (CATALOG_NAMES, REQUIRED), "dimension": ("size", 1),
                   "q": ("number", None), "r0": ("number", None)}, {}),
    "noise": ({"kind": (NOISE_KINDS, REQUIRED), "sigma": ("number", 0.0),
               "sigma_expr": ("string", None), "direction": ("vector", None),
               "constants": ("triple", None)}, {"kind": "zero"}),
    "schedule": ({
        "family": (POWER_FAMILIES, "scalar-power"), "c": ("numbers", 1.0),
        "beta": ("numbers", 0.75), "k0": ("number", 1.0), "p": ("size", 1),
        "rotation_seed": ("seed", None), "q_seed": ("seed", None),  # alias of rotation_seed
    }, REQUIRED),
    "run": ({
        "theta0": ("vector", None),  # [1.0] * p
        "K": ("size", 1000), "n_trajectories": ("size", 1), "master_seed": ("seed", 0),
        "record_stride": ("size", 1), "jobs": ("size", 1),
    }, {}),
    "diagnostics": ({
        "W": ("size", None), "epsilon_conv": ("positive", None), "R_div": ("positive", None),
        "capture": ({"theta_bar": ("vector", None),  # zeros
                     "R": ("number", 1.0),
                     "epsilon": ("number", None)}, None),  # 0.1 R
        "gammas": ("vector", None), "radii": ("vector", [1e1, 1e2, 1e3, 1e4, 1e5, 1e6]),
        "alpha": ("unit", 1.0), "r": ("positive", 0.5), "b_threshold": ("positive", 0.25),
    }, {}),
    "checks": ({  # a null box is derived from the objective's domain floor r0
        "alpha": ("unit", 1.0), "horizon": ("size", 100000), "seed": ("seed", 0),
        "which": (_ALL_CHECKS, _ALL_CHECKS),
        "descent": ({"n_pairs": ("size", 10000), "L_tilde": ("positive", None),
                     "box": ("box", None)}, {}),
        "variance": ({"n_samples": ("size", 10000)}, {}),
        "gradbound": ({"n_points": ("size", 1000), "box": ("box", None),
                       "L": ("positive", None)}, {}),
        "smoothness": ({"constants": ("triple", None), "n_points": ("size", 10),
                        "n_draws": ("size", 10000), "box": ("box", None)}, {}),
        "lemma4": ({"C": ("positive", 1.0), "K_max": ("size", 100000)}, {}),
    }, {}),
    "output": ({"directory": ("string", "sgdlab-out"), "formats": (_ALL_FORMATS, _ALL_FORMATS),
                "force": ("bool", False)}, {}),
}
@contextmanager
def _refused(prefix: str = ""):
    """A ContractViolation of the block as a ConfigError, its message led by prefix."""
    try:
        yield
    except ContractViolation as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _number(value, where: str, kind: str = "number") -> float | int:
    """A finite JSON number in the range of its kind: an int for a size or a
    seed, else a float (JSON reads 1e400 as inf; an integer may be beyond float64)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if isinstance(value, float):
        check_finite(**{where: value})
    if kind in ("size", "seed"):
        number = int(value) if isinstance(value, float) and value.is_integer() else value
        check_int(where, number, 1 if kind == "size" else 0)
        if number > MAX_SIZE and kind == "size":
            raise ConfigError(f"{where} must be an integer from 1 to 2**53, got {value!r}")
        return number
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is beyond the float64 range") from None
    if kind == "positive":
        check_positive(**{where: number})
    elif kind == "unit":
        check_alpha(where, number)
    return number


def _read(value, kind, where: str):
    """A config value read against its kind in SCHEMA.  A block is read key by
    key: no unknown keys, every absent key at its default, null accepted only
    where the default is null."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'config'!r} block must be a JSON object")
        if unknown := set(value) - set(kind):
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'config'!r} block")
        out = {}
        for key, (sub, default) in kind.items():
            name = f"{where}.{key}" if where else key
            given = value.get(key, default)
            if given is REQUIRED:
                raise ConfigError(f"config needs {name}")
            out[key] = None if given is None and default is None else _read(given, sub, name)
        return out
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ConfigError(f"{where} must be one of {list(kind)}, got {value!r}")
    if isinstance(kind, list):
        if (not isinstance(value, list) or not value
                or any(not isinstance(v, str) or v not in kind for v in value)):
            raise ConfigError(f"{where} must be a nonempty subset of {kind}")
        return tuple(dict.fromkeys(value))  # a repeated entry once, at its first place
    if kind in ("string", "bool"):
        if not isinstance(value, {"string": str, "bool": bool}[kind]):
            raise ConfigError(f"{where} must be a {kind}")
        return value
    if kind == "numbers":
        kind = "vector" if isinstance(value, list) else "number"
    if kind in ("vector", "triple", "box"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty list of numbers")
        vector = tuple(_number(v, f"{where} entry") for v in value)
        if kind == "triple" and len(vector) != 3:
            raise ConfigError(f"{where} must be [C1, C2, C3]")
        if kind == "box":
            check_box(where, value)
        return vector
    return _number(value, where, kind)


def _namespace(block: dict) -> SimpleNamespace:
    """A read block with each key, nested blocks too, as an attribute of its config name."""
    return SimpleNamespace(**{key: _namespace(value) if isinstance(value, dict) else value
                              for key, value in block.items()})


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveSpec
    noise: NoiseSpec
    schedule: Schedule
    run: EnsembleSpec
    jobs: int
    diagnostics: SimpleNamespace
    checks: SimpleNamespace
    output: SimpleNamespace


def config_from_dict(raw: dict) -> ExperimentConfig:
    with _refused():
        blocks = _read(raw, SCHEMA, "")
    objective = ObjectiveSpec(**blocks["objective"])
    with _refused("invalid objective: "):
        built = objective.build()  # fails fast on bad objective parameters
    r0 = built.r0
    noise = NoiseSpec(**blocks["noise"])

    sb = blocks["schedule"]
    q_seed = sb.pop("q_seed")
    if q_seed is not None:
        if sb["rotation_seed"] is not None:
            raise ConfigError("give schedule.rotation_seed or its alias schedule.q_seed, not both")
        sb["rotation_seed"] = q_seed
    p = sb.pop("p")
    with _refused("invalid schedule: "):
        schedule = Schedule(dim=p, **sb)

    rb = blocks["run"]
    jobs = rb.pop("jobs")
    with _refused("invalid run block: "):
        run = EnsembleSpec(objective=objective, noise=noise, schedule=schedule,
                           theta0=rb.pop("theta0") or (1.0,) * p, horizon=rb.pop("K"), **rb)

    db = blocks["diagnostics"]
    cap = db["capture"]
    if cap is not None:
        db["capture"] = CaptureConfig(
            theta_bar=cap["theta_bar"] or (0.0,) * p, R=cap["R"],
            epsilon=0.1 * cap["R"] if cap["epsilon"] is None else cap["epsilon"])
        with _refused("invalid diagnostics.capture block: "):
            db["capture"].check(p)

    sm, gb = blocks["checks"]["smoothness"], blocks["checks"]["gradbound"]
    with _refused():  # the rules of probe_radial_conditions and of the checkers
        check_increasing("diagnostics.radii", list(db["radii"]), r0 + db["r"])
        check_int("checks.smoothness.n_draws", sm["n_draws"], 2)
        if sm["constants"] is not None:
            smoothness_constants(sm["constants"], "checks.smoothness.constants")
        name = "checks.gradbound.L"
        if gb["L"] is None:  # the constant that a null L checks with
            gb["L"], name = built.l_global, "the objective's l_global (checks.gradbound.L null)"
        if gb["L"] is not None:
            grad_bound_scale(gb["L"], blocks["checks"]["alpha"], name)

    box = (r0, r0 + 9.0) if r0 > 0.0 else (-10.0, 10.0)  # above the domain floor, if any
    for check in ("descent", "gradbound", "smoothness"):
        blocks["checks"][check]["box"] = blocks["checks"][check]["box"] or box

    with _refused("invalid noise: "):
        noise.build(objective.dimension)  # compiles and checks sigma_expr

    return ExperimentConfig(
        objective=objective, noise=noise, schedule=schedule, run=run, jobs=jobs,
        **{key: _namespace(blocks[key]) for key in ("diagnostics", "checks", "output")})


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

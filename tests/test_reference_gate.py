"""The differential gate: sgdlab against the reference sgdlab of
`tests/reference_sgdlab.py`.

Tiny configs drawn from `config.SCHEMA` (every objective, noise kind and
schedule family, p from 1 to 4, capture on and off) run through `cli.main`
and through the reference, with the engine's block sizes and the chunk of
its step-size scans patched small, and every report of `run`,
`stopping-times` and `check --which p1p2p3p4,lemma4` must have the same
bytes and the same exit code.  Tiny `check` configs, drawn apart, run all
seven checks in a drawn order with the sampled checkers' block of rows and
sample counts patched small, against the same reference.  Five named
13-trajectory `run` configs go through `cli.main` with `--jobs` 1, 2 and 3,
so the worker pool writes the reference's bytes too.
The hand-built edge tests below them hold the step loops to the
reference's per-trajectory function where a drawn config would rarely land
(special floats, exits at block edges, a raising g1, a sigma that
is NaN or divides by zero past the exit, the cap, the floor, NaN), the
inlined quadratic step to the general 1-D loop, the 1-D norm sqrt(x * x) to
that of a one-element array, and the report writers to its json/csv
emitters on arbitrary payloads, across two runs in one process and after a
column changed.
"""

import ast
import dataclasses
import json
import math
import operator
import tempfile
import warnings
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import hypothesis
import numpy as np
import pytest
import reference_sgdlab as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab import checkers, engine, objectives, reports
from sgdlab.cli import main
from sgdlab.config import SCHEMA
from sgdlab.diagnostics import EnsembleSpec, run_ensemble
from sgdlab.engine import (
    THETA_CAP,
    Schedule,
    _drive,
    _scalar_block,
    _stepper,
    _vector_block,
    random_orthogonal,
    run_trajectory,
)
from sgdlab.errors import ContractViolation
from sgdlab.objectives import (
    NoiseModel,
    NoiseSpec,
    ObjectiveSpec,
    StochasticOracle,
    catalog_lookup,
)

# ---------------------------------------------------------------------------
# drawn configs, cli.main against the reference
# ---------------------------------------------------------------------------

OBJECTIVES = SCHEMA["objective"][0]["name"][0]
NOISE_KINDS = SCHEMA["noise"][0]["kind"][0]
FAMILIES = SCHEMA["schedule"][0]["family"][0]
COMMANDS = ("run", "stopping-times", "check")


@st.composite
def _setups(draw):
    """(chunk, first block, block) sizes and a config whose horizons end
    inside a chunk and at its edges."""
    chunk = draw(st.sampled_from([5, 13, 32]))
    sizes = (chunk, draw(st.sampled_from([1, 2])), draw(st.sampled_from([3, 5])))
    horizon = st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 2])
    p = draw(st.sampled_from([1, 2, 3, 4]))
    objective = {"name": draw(st.sampled_from(OBJECTIVES)), "dimension": p}
    if objective["name"] == "power-q":
        objective["q"] = draw(st.sampled_from([0.5, 1.5, 2.0, 4.0]))
    if ObjectiveSpec(**objective).build().r0 > 0.0 and draw(st.booleans()):
        objective["r0"] = draw(st.sampled_from([0.5, 1.5]))
    noise = {"kind": draw(st.sampled_from(NOISE_KINDS))}
    if noise["kind"] == "additive-gaussian":
        noise["sigma"] = draw(st.sampled_from([0.7, 1e149]))
    elif noise["kind"] == "additive-gaussian-statedep":
        noise["sigma_expr"] = draw(st.sampled_from(["0.3*(1+norm(theta))",
                                                    "0.5*exp(-norm(theta))"]))
    elif p > 1 and draw(st.booleans()):
        noise["direction"] = [1.0, -2.0, 0.5, 3.0][:p]
    family = draw(st.sampled_from(FAMILIES))
    c, beta = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0])), draw(st.sampled_from(
        [0.0, 0.6, 0.75, 1.0, 1.2]))
    schedule = {"family": family, "p": p, "k0": draw(st.sampled_from([1, 1.5])),
                "c": c, "beta": beta}
    if family != "scalar-power":
        schedule["c"] = [c * (1.0 - 0.2 * i) for i in range(p)]
        schedule["beta"] = [beta * (1.0 + 0.1 * i) for i in range(p)]
    if family == "rotated-diagonal-power" and draw(st.booleans()):
        schedule["rotation_seed"] = draw(st.integers(0, 9))
    K = draw(horizon)
    # 9 trajectories: numpy's pairwise sum takes 8 or more in another order
    run = {"K": K, "n_trajectories": draw(st.sampled_from([1, 2, 3, 9])),
           "master_seed": draw(st.integers(0, 2**40)),
           "record_stride": draw(st.sampled_from([1, 2, 3, 7, K]))}
    if draw(st.integers(0, 3)):  # else the default theta0, [1.0] * p
        scale = draw(st.sampled_from([0.5, 2.0, 1e140, 1e149]))
        run["theta0"] = [scale * v for v in [1.0, -0.6, 0.3, -0.8][:p]]
    diagnostics = {"gammas": draw(st.sampled_from([None, [0.0, 0.5], [0.25, 0.0]])),
                   "W": draw(st.sampled_from([None, 1, 3, K]))}
    if draw(st.booleans()):
        diagnostics["capture"] = {"R": draw(st.sampled_from([0.5, 1.0, 2.5]))}
        if draw(st.booleans()):
            diagnostics["capture"]["epsilon"] = 0.25
    checks = {"alpha": draw(st.sampled_from([1.0, 0.7, 0.5])), "horizon": draw(horizon),
              "lemma4": {"C": draw(st.sampled_from([0.5, 4.0, 100.0])),
                         "K_max": draw(horizon)}}
    output = {"formats": draw(st.sampled_from([["json", "csv"], ["json"], ["csv"]]))}
    return sizes, {"objective": objective, "noise": noise, "schedule": schedule, "run": run,
                   "diagnostics": diagnostics, "checks": checks, "output": output}


def _edge(objective, schedule, theta0, K, noise=None, sizes=(5, 1, 3)):
    """A drawn-config-shaped example for an edge no draw is likely to reach."""
    return sizes, {"objective": objective, "noise": noise or {"kind": "zero"},
                       "schedule": schedule,
                       "run": {"theta0": theta0, "K": K, "n_trajectories": 1},
                       "checks": {"horizon": K, "lemma4": {"K_max": K}}}


def _cli(command, config, flags=()):
    """main's exit code and report files for the command on the config."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "output": {**config.get("output", {}),
                                                         "directory": str(out)}}))
        code = main([command, "--config", str(path), *flags])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, files


def _block_edges(sizes, K) -> set:
    """The first and last iterate of each block of a run of K steps under
    the (chunk, first block, block) sizes."""
    _, first, most = sizes
    edges, k = set(), 0
    while k < K:
        n = min(max(first, k), most, K - k)
        edges |= {k + 1, k + n}
        k += n
    return edges


def _reached(command, files, setup) -> set:
    """What the reports show the config reached, for the coverage count."""
    sizes, config = setup
    seen = set()
    if command == "run" and "ensemble_report.json" in files:
        report = json.loads(files["ensemble_report.json"])
        spec = report["spec"]
        seen |= {("objective", spec["objective"]["name"]), ("noise", spec["noise"]["kind"]),
                 ("family", spec["schedule"]["family"]),
                 ("p", min(spec["schedule"]["p"], 2)), ("capture", report["capture"] is not None)}
        # the 1-D state-dependent kind steps past its exit, as every 1-D kind does
        if (spec["noise"]["kind"] == "additive-gaussian-statedep" and spec["schedule"]["p"] == 1
                and report["n_overflow"] + report["n_domain_violation"]):
            seen.add(("statedep-1d", "early exit"))
        # more truncated runs than domain exits: an overflow before the window filled
        verdicts = [c["verdict"] for c in report["classifications"]]
        if verdicts.count("truncated") > report["n_domain_violation"]:
            seen.add(("overflow", "before its window filled"))
    if command == "stopping-times" and "stopping_times.json" in files:
        report = json.loads(files["stopping_times.json"])
        # quadratic's g1 is inlined in the 1-D additive-gaussian step
        identity = (config["objective"]["name"] == "quadratic"
                    and config["objective"].get("dimension", 1) == 1
                    and config["noise"]["kind"] == "additive-gaussian")
        edges = _block_edges(sizes, report["horizon"])
        for t in report["trajectories"]:
            seen.add(("exit", "overflow" if t["overflow"] else "domain" if t["domain_violation"]
                      else "full"))
            if identity and t["overflow"] and t["last_k"] + 1 in edges:
                seen.add(("identity-1d", "overflow at a block edge"))
    if command == "check" and "lemma4_report.json" in files:
        report = json.loads(files["lemma4_report.json"])["report"]
        threshold = report["threshold"]
        seen.add(("threshold", threshold if threshold in (None, 0) else "inside"))
    return seen


def _spied_sigma_forms(reached):
    """Patch _compile_sigma_expr so that each float form notes in reached the
    p it steps at and each case it passes back to fn.  The spied forms are
    compiled afresh (past the cache), as their scope is changed below."""
    compile_forms = objectives._compile_sigma_expr.__wrapped__

    def spied(expr):
        fn, of_norm = compile_forms(expr)
        if of_norm.__name__ != "sigma":  # outside the exact grammar: fn alone
            return fn, of_norm
        scope = of_norm.__globals__  # the float form reads fn from it per call

        def passed_back(nrm, theta):
            reached.add(("statedep float form", "passed back to fn"))
            return fn(nrm, theta)

        def float_form(nrm, theta):
            reached.add(("statedep float form", "p = 1" if type(theta) is float else "p > 1"))
            return of_norm(nrm, theta)

        scope["fn"] = passed_back
        return fn, float_form

    return mock.patch.object(objectives, "_compile_sigma_expr", spied)


# A fixed seed, not derandomize=True: that seed hashes the test's source,
# decorators included, so an edit to the @example list would draw 150 other
# setups and could drop a coverage target the edit had nothing to do with.
DRAW_SEED = 2021


def _drawn(test):
    """The gate's 150 drawn setups, from DRAW_SEED, after test's @examples."""
    return settings(max_examples=150, deadline=None, database=None)(
        hypothesis.seed(DRAW_SEED)(given(_setups())(test)))


def test_an_added_example_leaves_the_drawn_setups_as_they_are():
    # two sources that differ by one @example line: a seed hashed from the
    # source would draw two other sets
    added = _edge({"name": "quadratic"}, {"c": 0.5}, [1.0], 4)
    plain, with_example = [], []

    @_drawn
    def draw_plain(setup):
        plain.append(repr(setup))

    @_drawn
    @example(added)
    def draw_with_example(setup):
        with_example.append(repr(setup))

    draw_plain()
    draw_with_example()
    assert len(plain) == 150
    assert with_example == [repr(added), *plain]


def test_cli_reports_have_the_bytes_of_the_reference():
    reached = set()

    @_drawn
    # theta_1 on the domain floor r0 = 1 exactly (kept), theta_2 below it
    @example(_edge({"name": "power-q", "q": 2.0}, {"c": 0.25, "beta": 0.0}, [2.0], 6))
    @example(_edge({"name": "power-q", "q": 2.0, "dimension": 3},
                   {"c": 0.25, "beta": 0.0, "p": 3}, [2.0, 0.0, 0.0], 6))
    # from the cap: overflow at the first step; from just below: the horizon
    @example(_edge({"name": "quadratic"}, {"c": 2.0, "beta": 0.0}, [THETA_CAP], 7))
    @example(_edge({"name": "quadratic", "dimension": 2}, {"c": 2.0, "beta": 0.0, "p": 2},
                   [-float(np.nextafter(THETA_CAP, 0.0)), 0.0], 7))
    # the rotation sums inf with -inf: theta_2 is NaN in every coordinate
    @example(_edge({"name": "power-q", "q": 4.0, "dimension": 3},
                   {"family": "rotated-diagonal-power", "c": [3.0, 2.25, 1.5],
                    "beta": [0.0, 0.0, 0.0], "p": 3, "rotation_seed": 5},
                   [1e34, -0.6e34, 0.3e34], 7))
    # 1-D state-dependent noise whose sigma is NaN below the floor, where the
    # block steps past its exit: it leaves the domain at step 3
    @example(_edge({"name": "loglog1p-abs"}, {"c": 1.0, "beta": 0.0}, [2.0], 30,
                   {"kind": "additive-gaussian-statedep",
                    "sigma_expr": "0.3*sqrt(norm(theta) - 1)"}))
    # power-q(q=0.5) from 1 under step 2 lands on 0.0, below the floor, and the
    # next step, in the same first block of 2, divides by zero in g1
    @example(_edge({"name": "power-q", "q": 0.5}, {"c": 2.0, "beta": 0.0}, [1.0], 6,
                   sizes=(5, 2, 3)))
    # the inlined identity step: x_k = (-2)^k x0 plus noise overflows at
    # iterate 8, the first of the block 8-10
    @example(_edge({"name": "quadratic"}, {"c": 3.0, "beta": 0.0},
                   [1.5 * THETA_CAP * 2.0 ** -8], 10, {"kind": "additive-gaussian", "sigma": 0.7}))
    # either side of engine._FLOAT_P = 8: the float form at p = 2 and 7, the
    # array form at p = 8, under rademacher and state-dependent noise
    @example(_edge({"name": "gauss-bump", "dimension": 2},
                   {"family": "diagonal-power", "c": [0.5, 0.25], "beta": [0.6, 0.7], "p": 2},
                   [0.3, -1.0], 20, {"kind": "rademacher-radial", "direction": [1.0, -2.0]}))
    @example(_edge({"name": "smooth-rectifier", "dimension": 7},
                   {"family": "rotated-diagonal-power", "c": [1.0] * 7, "beta": [0.6] * 7,
                    "p": 7, "rotation_seed": 3},
                   [0.5, -0.5, 1.0, 0.0, -800.0, 2.0, -1.0], 20,
                   {"kind": "additive-gaussian-statedep", "sigma_expr": "0.1*(1+norm(theta))"}))
    @example(_edge({"name": "power-q", "q": 1.5, "dimension": 7},
                   {"family": "rotated-diagonal-power", "c": [0.05] * 7, "beta": [0.7] * 7,
                    "p": 7}, [2.0, -1.0, 0.5, 1.5, -0.5, 1.0, 0.25], 20,
                   {"kind": "rademacher-radial"}))
    @example(_edge({"name": "power-q", "q": 1.5, "dimension": 8},
                   {"family": "rotated-diagonal-power", "c": [0.05] * 8, "beta": [0.7] * 8,
                    "p": 8}, [2.0, -1.0, 0.5, 1.5, -0.5, 1.0, 0.25, -2.0], 20,
                   {"kind": "additive-gaussian-statedep", "sigma_expr": "0.1*(1+norm(theta))"}))
    @example(_edge({"name": "smooth-rectifier", "dimension": 8},
                   {"family": "diagonal-power", "c": [0.5] * 8, "beta": [0.6] * 8, "p": 8},
                   [0.5, -0.5, 1.0, 0.0, -800.0, 2.0, -1.0, 0.25], 20,
                   {"kind": "rademacher-radial"}))
    # lambda_max = (k + 1)^-400 underflows to 0 from k = 6: the Lemma-4
    # peak 0^alpha * (0 / 0) is NaN, so the threshold is None
    @example(_edge({"name": "quadratic"}, {"c": 1.0, "beta": 400.0}, [1.0], 12))
    # the same at checks.alpha 0.5: both p = 1 peak forms (lambda_max itself at
    # alpha 1, its power otherwise) meet the zero rows
    @example(((5, 1, 3), {**_edge({"name": "quadratic"}, {"c": 1.0, "beta": 400.0}, [1.0],
                                  12)[1],
                          "checks": {"horizon": 12, "alpha": 0.5, "lemma4": {"K_max": 12}}}))
    # lambda_max = (k + 1)^-0.75 <= 1/4 from k = 6: the last bad index, 5, is
    # the last of the first block of 6, and the two blocks above it are good
    @example(((6, 1, 3), {**_edge({"name": "quadratic"}, {"c": 1.0, "beta": 0.75}, [1.0], 13)[1],
                          "checks": {"horizon": 13, "lemma4": {"C": 4.0, "K_max": 13}}}))
    # x_{k+1} = -w_k, iid N(0, 0.49): escapes at one- and two-digit steps
    @example(((5, 1, 3), {"objective": {"name": "quadratic"},
                          "noise": {"kind": "additive-gaussian", "sigma": 0.7},
                          "schedule": {"c": 1.0, "beta": 0.0},
                          "run": {"K": 30, "n_trajectories": 3, "record_stride": 4},
                          "diagnostics": {"capture": {"R": 0.5, "epsilon": 0.25}}}))
    def check(setup):
        (chunk, first_block, block), config = setup
        # `check` runs the two schedule scans here, and all seven checks below
        config = {**config, "checks": {**config.get("checks", {}),
                                       "which": ["p1p2p3p4", "lemma4"]}}
        with mock.patch.multiple(engine, _CHUNK=chunk, _FIRST_BLOCK=first_block, _BLOCK=block), \
                _spied_sigma_forms(reached):
            for command in COMMANDS:
                want = reference.main(command, config)
                assert _cli(command, config) == want, command
                reached.update(_reached(command, want[1], setup))

    check()
    want = {("objective", name) for name in OBJECTIVES} | {
        ("noise", kind) for kind in NOISE_KINDS} | {("family", f) for f in FAMILIES} | {
        ("p", 1), ("p", 2), ("capture", True), ("capture", False), ("exit", "full"),
        ("exit", "overflow"), ("exit", "domain"), ("threshold", None), ("threshold", 0),
        ("threshold", "inside"), ("statedep-1d", "early exit"),
        ("identity-1d", "overflow at a block edge"), ("overflow", "before its window filled"),
        ("statedep float form", "p = 1"), ("statedep float form", "p > 1"),
        ("statedep float form", "passed back to fn")}
    assert want <= reached, want - reached


def test_the_reference_reads_only_the_definitions_of_the_spec():
    # no stepper, `_drive`, ensemble worker, aggregation, checker or report
    # writer: of engine the chunk, of checkers the sample counts and constants
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module.startswith("sgdlab") for alias in node.names}

    def attributes(module):
        return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == module}

    assert imported == {"engine", "checkers", "CHECK_REPORTS", "config_from_dict",
                        "ENVELOPE_GRID", "split_seed", "THETA_CAP", "ConfigError",
                        "ContractViolation", "DomainError", "OVERFLOW_CAP", "_norms"}
    assert attributes("engine") == {"_CHUNK"}
    assert attributes("checkers") == {"HOLDER_BOX_SAMPLES", "PROBE_HOLDER_SAMPLES",
                                      "DEFAULT_TOL", "ZERO_CLAMP"}


# ---------------------------------------------------------------------------
# drawn `check` configs, all seven checks, against the reference
# ---------------------------------------------------------------------------

CHECKS = tuple(SCHEMA["checks"][0]["which"][1])
def _boxes(p: int) -> list:
    """The sampled checks' boxes at dimension p: the default one (above the
    domain floor), one below every floor but zero (exit 3 where there is
    one), one above every floor, one two floats wide, which the 1-D Hölder
    grid repeats, and one whose points' squared norms run from 1e308 to
    2.56e308, past the float range in some points and not in others, so that
    NaN, infinite and finite violations mix."""
    edge = 1e154 / math.sqrt(p)
    return [None, None, [-3.0, 2.0], [2.0, 5.5], [1.5, 1.5000000000000002], [edge, 1.6 * edge]]


@st.composite
def _check_setups(draw):
    """(rows, grid, ball) sizes, to patch checkers._ROWS, HOLDER_BOX_SAMPLES
    and PROBE_HOLDER_SAMPLES with, and a `check` config whose samples end
    inside a block of rows and at its edges."""
    rows = draw(st.sampled_from([1, 2, 3, 5]))
    sizes = (rows, draw(st.sampled_from([2, 5, 16])), draw(st.sampled_from([2, 5, 9])))
    n = st.sampled_from([1, rows, rows + 1, 2 * rows, 3 * rows + 2])
    p = draw(st.sampled_from([1, 2, 3, 4]))
    objective = {"name": draw(st.sampled_from(OBJECTIVES)), "dimension": p}
    if objective["name"] == "power-q":
        objective["q"] = draw(st.sampled_from([0.5, 1.5, 4.0]))
    if ObjectiveSpec(**objective).build().r0 > 0.0 and draw(st.booleans()):
        objective["r0"] = draw(st.sampled_from([0.5, 1.5]))
    noise = {"kind": draw(st.sampled_from(NOISE_KINDS))}
    if noise["kind"] == "additive-gaussian":
        noise["sigma"] = draw(st.sampled_from([0.7, 3.0]))
    elif noise["kind"] == "additive-gaussian-statedep":
        noise["sigma_expr"] = draw(st.sampled_from(["0.3*(1+norm(theta))",
                                                    "0.5*exp(-norm(theta))"]))
    elif p > 1 and draw(st.booleans()):
        noise["direction"] = [1.0, -2.0, 0.5, 3.0][:p]
    family = draw(st.sampled_from(FAMILIES))
    schedule = {"family": family, "p": p, "c": 0.5, "beta": draw(st.sampled_from([0.6, 1.2]))}
    if family != "scalar-power":
        schedule["c"] = [0.5 * (1.0 - 0.2 * i) for i in range(p)]
        schedule["beta"] = [schedule["beta"] * (1.0 + 0.1 * i) for i in range(p)]
    order = draw(st.permutations(CHECKS))
    boxes = st.sampled_from(_boxes(p))
    checks = {
        "alpha": draw(st.sampled_from([1.0, 0.5])), "horizon": 7,
        "seed": draw(st.integers(0, 2**40)),
        "which": list(order[:draw(st.sampled_from([2, 7, 7]))]),
        "descent": {"n_pairs": draw(n), "box": draw(boxes),
                    "L_tilde": draw(st.sampled_from([None, None, 0.05, 100.0]))},
        "variance": {"n_samples": draw(n)},
        "gradbound": {"n_points": draw(n), "box": draw(boxes),
                      "L": draw(st.sampled_from([None, 0.05, 4.0]))},
        "smoothness": {"n_points": draw(n), "n_draws": draw(st.sampled_from([2, 5])),
                       "box": draw(boxes),
                       "constants": draw(st.sampled_from(
                           [None, None, [0.0, 0.0, 1.0], [1.0, 2.0, 3.0]]))},
        "lemma4": {"C": draw(st.sampled_from([0.5, 100.0])), "K_max": 9}}
    for block in ("descent", "gradbound", "smoothness"):  # null is the default box
        checks[block] = {k: v for k, v in checks[block].items() if v is not None}
    diagnostics = {"alpha": draw(st.sampled_from([1.0, 0.5])),
                   "r": draw(st.sampled_from([0.5, 0.25])),
                   "b_threshold": draw(st.sampled_from([0.25, 1e-6, 50.0])),
                   "radii": draw(st.sampled_from([[2.0, 5.0, 40.0], [3.0],
                                                  [10.0, 1e3, 1e5, 1e7]]))}
    run = {"theta0": [draw(st.sampled_from([1.0, 3.0])) * v for v in [1.5, -0.5, 2.0, 0.7][:p]]}
    output = {"formats": draw(st.sampled_from([["json", "csv"], ["json"], ["csv"]]))}
    return sizes, {"objective": objective, "noise": noise, "schedule": schedule, "run": run,
                   "diagnostics": diagnostics, "checks": checks, "output": output}


def _check_edge(rows, checks, objective=None, noise=None):
    """A drawn-check-shaped example on the 1-D quadratic."""
    return (rows, 16, 5), {"objective": objective or {"name": "quadratic"},
                           "noise": noise or {"kind": "zero"}, "schedule": {"c": 0.5},
                           "checks": {"horizon": 7, "lemma4": {"K_max": 9}, **checks}}


def _spied_assumptions(seen: list):
    """Patch the reference's _assumption to note (check, violations) in seen."""
    assumption = reference._assumption

    def spied(assumption_id, values, tol, witnesses):
        seen.append((assumption_id, list(values)))
        return assumption(assumption_id, values, tol, witnesses)

    return mock.patch.object(reference, "_assumption", spied)


def _reached_checks(setup, code, files, seen) -> set:
    """What the drawn check reached, for the coverage count."""
    (rows, grid, _), config = setup
    reached = {("exit", code)}
    for assumption_id, values in seen:
        i = reference._worst(values)
        if math.isnan(values[i]):
            reached.add(("worst", "NaN"))
        if rows > 1 and len(values) > rows and i % rows in (0, rows - 1):
            reached.add(("worst", "at a block edge"))
        if assumption_id == "smoothness":
            reached.add(("smoothness", config["noise"]["kind"]))
    for name, data in files.items():
        if name.endswith(".json") and b'"verdict": "fail"' in data:
            reached.add(("verdict", "fail"))
    descent = config["checks"].get("descent", {})
    if (config["objective"].get("dimension", 1) == 1 and "L_tilde" not in descent
            and "descent_report.json" in files
            and len(np.unique(np.linspace(*descent.get("box", (-10.0, 10.0)), grid))) < grid):
        reached.add(("Hölder grid", "repeats a point"))
    return reached


def test_check_reports_have_the_bytes_of_the_reference():
    reached = set()

    @settings(max_examples=100, deadline=None, database=None)
    @hypothesis.seed(DRAW_SEED)
    @given(_check_setups())
    # an inf in the first block of 2, and a NaN, the worst, in the second
    @example(_check_edge(2, {"which": ["descent"], "seed": 1,
                             "descent": {"n_pairs": 7, "box": [1e154, 1.6e154]}}))
    # a 2-float box: the 1-D Hölder grid repeats its points
    @example(_check_edge(5, {"which": ["descent"], "descent": {"box": [1.0, 1.0000000000000002]}}))
    # n_draws 1, C3 below 1 and radii out of order are refused (exit 2)
    @example(_check_edge(2, {"which": ["smoothness"], "smoothness": {"n_draws": 1}}))
    @example(((2, 16, 5), {**_check_edge(2, {"which": ["radial", "descent"]})[1],
                           "diagnostics": {"radii": [4.0, 2.5]}}))
    @example(_check_edge(2, {"which": ["variance", "smoothness"],
                             "smoothness": {"constants": [0.0, 0.0, 0.5]}}))
    # squared norms of 1.3e308 whose mean overflows: the chain is inconclusive
    @example(((2, 16, 5), {**_check_edge(2, {"which": ["variance"], "variance": {"n_samples": 3}})[1],
                           "run": {"theta0": [1.3e154]}}))
    def check(setup):
        (rows, grid, ball), config = setup
        seen = []
        with mock.patch.multiple(checkers, _ROWS=rows, HOLDER_BOX_SAMPLES=grid,
                                 PROBE_HOLDER_SAMPLES=ball), _spied_assumptions(seen):
            want = reference.main("check", config)
            assert _cli("check", config) == want
        reached.update(_reached_checks(setup, *want, seen))

    check()
    want = {("exit", code) for code in (0, 1, 2, 3)} | {
        ("smoothness", kind) for kind in NOISE_KINDS} | {
        ("worst", "NaN"), ("worst", "at a block edge"), ("verdict", "fail"),
        ("Hölder grid", "repeats a point")}
    assert want <= reached, want - reached


def test_check_reports_have_the_bytes_of_the_reference_at_the_default_sizes():
    # the drawn checks patch the grid, ball and block sizes small; here every
    # check runs at its own, on one config of each dimension kind
    for objective in ({"name": "smooth-rectifier"}, {"name": "gauss-bump", "dimension": 3}):
        config = {"objective": objective, "schedule": {"c": 0.5, "p": objective.get("dimension", 1)},
                  "noise": {"kind": "additive-gaussian", "sigma": 0.5},
                  "diagnostics": {"radii": [10.0, 100.0, 1000.0]},
                  "checks": {"horizon": 100, "descent": {"n_pairs": 50},
                             "variance": {"n_samples": 50}, "gradbound": {"n_points": 50},
                             "smoothness": {"n_points": 3, "n_draws": 50},
                             "lemma4": {"K_max": 100}}}
        code, files = _cli("check", config)
        assert code in (0, 1) and len(files) == 8
        assert (code, files) == reference.main("check", config)


def _ensemble(objective, noise, schedule, theta0, K, stride, seed, **diagnostics):
    """A 13-trajectory run config at the engine's own block sizes:
    --jobs 1 runs blocks of 3 in process, --jobs 2 and 3 blocks of 1 in a pool."""
    return {"objective": objective, "noise": noise, "schedule": schedule,
            "run": {"theta0": theta0, "K": K, "n_trajectories": 13, "record_stride": stride,
                    "master_seed": seed}, "diagnostics": diagnostics}


_GAUSS = {"kind": "additive-gaussian", "sigma": 1.0}
JOBS_CASES = {
    "quadratic-capture": _ensemble(
        {"name": "quadratic"}, {**_GAUSS, "sigma": 2.0},
        {"c": 0.5, "beta": 0.75, "k0": 2}, [1.0], 300, 7, 11,
        capture={"R": 0.5, "epsilon": 0.25}, gammas=[0.0, 0.5]),
    # domain exits whose last_k falls between stride points
    "log1p-domain-exits": _ensemble(
        {"name": "log1p-abs"}, _GAUSS, {"c": 0.5, "beta": 0.75}, [2.0], 200, 10, 3),
    # |theta| doubles each step, so every run overflows before the horizon
    "overflow-capture": _ensemble(
        {"name": "quadratic"}, _GAUSS, {"c": 3.0, "beta": 0.0}, [1.0], 600, 10, 5,
        capture={"R": 1.0, "epsilon": 0.5}),
    "rotated-p3-statedep": _ensemble(
        {"name": "smooth-rectifier", "dimension": 3},
        {"kind": "additive-gaussian-statedep", "sigma_expr": "0.3*(1+norm(theta))"},
        {"family": "rotated-diagonal-power", "p": 3, "c": [0.5, 0.3, 0.2],
         "beta": [0.75, 0.8, 0.9], "k0": 2, "rotation_seed": 4},
        [1.0, -0.5, 2.0], 150, 5, 9, gammas=[0.25, 0.75]),
    # 203 = 20 * 10 + 3: the last checkpoint is off the stride grid
    "stride-off-horizon": _ensemble(
        {"name": "smooth-rectifier"}, {"kind": "rademacher-radial"},
        {"c": 0.4, "beta": 0.6}, [1.5], 203, 10, 21, W=37),
}


@cache
def _reference_run(case):
    return reference.main("run", JOBS_CASES[case])


def test_the_jobs_cases_reach_the_edges():
    reports = {case: json.loads(_reference_run(case)[1]["ensemble_report.json"])
               for case in JOBS_CASES}
    domain = reports["log1p-domain-exits"]
    assert 0 < domain["n_domain_violation"] < 13
    last_ks = [c["evidence"]["last_k"] for c in domain["classifications"]
               if c["verdict"] == "truncated"]
    assert any(k % 10 and k < 200 for k in last_ks)
    overflow = reports["overflow-capture"]
    assert overflow["n_overflow"] == 13 and overflow["capture"]["total_escapes"] > 0
    assert None in overflow["convergence"]["f_gap_mean"]
    assert reports["quadratic-capture"]["capture"]["total_escapes"] > 0


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(JOBS_CASES))
def test_run_reports_do_not_depend_on_jobs(case, jobs):
    # the drawn configs run in one process; this holds the worker pool and
    # its blocks to the reference's bytes
    assert _cli("run", JOBS_CASES[case], flags=["--jobs", str(jobs)]) == _reference_run(case)


# ---------------------------------------------------------------------------
# the step loops at their edges, against the reference's iterates
# ---------------------------------------------------------------------------

K = 200


def _run(loop, obj, noise, sched, theta0, seed):
    """(trace shape, trace bytes, overflow, domain exit, violation bytes) of
    K steps by the engine's `_drive` and steppers or by the reference."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        if loop == "reference":
            trace, over, viol = reference.iterates(obj, noise, sched, theta0, K, rng)
        else:
            trace, over, viol = _drive_engine(obj, noise, sched, theta0, K, rng)
    return (trace.shape, trace.tobytes(), over, viol is not None,
            None if viol is None else np.asarray(viol).tobytes())


def _drive_engine(obj, noise, sched, theta0, K, rng):
    """_drive over the stepper that run_trajectory builds for obj: the
    trace as a (last + 1, p) array, overflow and the domain exit."""
    step = _stepper(obj, noise, sched, K)
    if obj.dim == 1:
        trace, over, viol = _drive(step, float(theta0[0]), K, noise, rng)
        return trace[:, None], over, viol
    return _drive(step, theta0, K, noise, rng)


def _both(obj, noise, sched, theta0, seed=0):
    ref = _run("reference", obj, noise, sched, np.atleast_1d(theta0), seed)
    assert _run("fast", obj, noise, sched, np.atleast_1d(theta0), seed) == ref
    return ref


@pytest.mark.parametrize("p", [2, 3, 4, 8, 16])
def test_rotated_gemv_by_dot_has_the_bits_of_matmul(p):
    # The engine's rotated step q.dot(d * qt.dot(g)), qt = q.T the transposed
    # view, against q @ (d * (q.T @ g)), on this build's BLAS.  Do not make
    # qt a contiguous copy of q.T: that takes the other gemv, which sums in
    # another order.  With numpy 2.4 on x86-64 the copy changed the last bit
    # on 81% of 50000 random rows at p = 4, and on 40-100% of rows for each
    # p from 2 to 33.
    rng = np.random.default_rng(p)
    q = random_orthogonal(p, 7)
    qt = q.T
    for _ in range(2000):
        d = rng.uniform(0.01, 1.0, p)
        g = rng.standard_normal(p) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert q.dot(d * qt.dot(g)).tobytes() == (q @ (d * (q.T @ g))).tobytes()


@pytest.mark.parametrize("p", [1, 3])
def test_power_q_gradient_overflow_is_flagged_as_overflow(p):
    # theta1 ~ -1.2e103 * e1; the gradient 4 * |theta1|**3 overflows a double,
    # which Python float pow raises on and numpy turns into inf.
    obj = catalog_lookup("power-q", dimension=p, q=4.0)
    sched = Schedule.scalar(3.0, 0.0, dim=p)
    theta0 = 1e34 * np.eye(p)[0]
    with np.errstate(all="ignore"):
        traj = run_trajectory(StochasticOracle(obj, NoiseModel("zero", p)), sched,
                              theta0, 10, seed=0)
        assert not np.isfinite(obj.grad(-1.2e103 * np.eye(p)[0])).all()
    assert traj.overflow and not traj.domain_violation
    assert traj.trace.shape == (1, p)  # F(theta1) = inf cuts the records too


@pytest.mark.parametrize("p", [1, 3])
def test_iterate_exactly_on_the_domain_floor_is_kept(p):
    # power-q(q=2) from 2*e1 with step 0.25: theta1 = e1 sits on r0 = 1 exactly
    # and stays; theta2 = 0.5*e1 leaves the domain.
    ref = _both(catalog_lookup("power-q", dimension=p, q=2.0), NoiseModel("zero", p),
                Schedule.scalar(0.25, 0.0, dim=p), 2.0 * np.eye(p)[0])
    assert ref[0] == (2, p)
    assert ref[3]  # domain exit at the second step


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("start", [THETA_CAP, -THETA_CAP, np.nextafter(THETA_CAP, 0.0)])
def test_iterate_on_the_cap_is_overflow_and_just_below_it_is_kept(p, start):
    # quadratic, zero noise, constant step 2: theta1 = -theta0 exactly, so a
    # run from the cap overflows at the first step and one from the float
    # just below it swings between +-theta0 for the whole horizon.
    ref = _both(catalog_lookup("quadratic", dimension=p), NoiseModel("zero", p),
                Schedule.scalar(2.0, 0.0, dim=p), start * np.eye(p)[0])
    if abs(start) == THETA_CAP:
        assert ref[0] == (1, p) and ref[2] and not ref[3]
    else:
        assert ref[0] == (K + 1, p) and not ref[2] and not ref[3]


def test_nan_iterate_is_flagged_as_overflow():
    # power-q(q=4) from 1e34 under a rotated constant step: the gradient at
    # theta1 overflows to +-inf and the rotation sums inf with -inf, so the
    # second iterate is NaN in every coordinate.
    obj = catalog_lookup("power-q", dimension=3, q=4.0)
    noise = NoiseModel("zero", 3)
    sched = Schedule.rotated([3.0, 2.25, 1.5], [0.0, 0.0, 0.0], rotation_seed=5)
    theta0 = 1e34 * np.array([1.0, -0.6, 0.3])
    with np.errstate(all="ignore"):
        out, (size, theta2) = _vector_block(noise.sampler(obj.grad), sched, obj.r0, theta0, 0,
                                            K, None)
    assert len(out) == 1 and np.isnan(size) and np.isnan(theta2).all()
    ref = _both(obj, noise, sched, theta0)
    assert ref[0] == (2, 3) and ref[2] and not ref[3]


# Each block is as long as the run before it, from 1 up to 4 iterates:
# blocks hold iterates 1, 2, 3-4, 5-8, 9-12, 13-16, 17-20, 21-24, ...
SMALL_FIRST_BLOCK, SMALL_BLOCK = 1, 4


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(engine, "_FIRST_BLOCK", SMALL_FIRST_BLOCK)
    monkeypatch.setattr(engine, "_BLOCK", SMALL_BLOCK)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("j", [1, 3, 5, 9, 13, 17, 21,  # first iterate of a block
                               2, 4, 8, 12, 16, 20])  # last iterate of a block
def test_block_exit_at_the_first_and_last_iterate_of_a_block(j, p):
    noise, e1 = NoiseModel("zero", p), np.eye(p)[0]
    # overflow: quadratic, step 3, x_k = (-2)^k x0, first |x| >= THETA_CAP at j
    over = _both(catalog_lookup("quadratic", dimension=p), noise,
                 Schedule.scalar(3.0, 0.0, dim=p), 1.5 * THETA_CAP * 2.0 ** -j * e1)
    assert over[0] == (j, p) and over[2] and not over[3]
    # domain exit: power-q(q=2), step 0.25, x_k = x0 / 2^k, first below r0 = 1 at j
    dom = _both(catalog_lookup("power-q", dimension=p, q=2.0), noise,
                Schedule.scalar(0.25, 0.0, dim=p), 1.5 * 2.0 ** (j - 1) * e1)
    assert dom[0] == (j, p) and not dom[2] and dom[3]


def _quadratic_with(g1):
    return dataclasses.replace(catalog_lookup("quadratic"), g1=g1)


@pytest.mark.usefixtures("small_blocks")
def test_block_nan_iterate_is_flagged_as_overflow():
    # x halves under step 0.5; g1 is NaN at x_5 = 0.125, so iterate 6, the
    # middle of a block, is NaN
    obj = _quadratic_with(lambda x: x if abs(x) > 0.2 else math.nan)
    ref = _both(obj, NoiseModel("zero", 1), Schedule.scalar(0.5, 0.0), 4.0)
    assert ref[0] == (6, 1) and ref[2] and not ref[3]


@pytest.mark.parametrize("blocks", ["small", "default"])
def test_domain_exit_before_a_raising_step_is_truncated(request, blocks):
    # power-q(q=0.5) from 1 with step 2: theta1 = 1 - 2 * 0.5 = 0 leaves the
    # domain, and g1(0) = 0.5 * 0 ** -0.5 raises ZeroDivisionError in the
    # step after it, which ends the block's path before its test runs (the
    # small blocks' second block; the default first block of 64).
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    obj = catalog_lookup("power-q", q=0.5)
    noise = NoiseModel("zero", 1)
    sched = Schedule.scalar(2.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        obj.g1(0.0)
    ref = _both(obj, noise, sched, 1.0)
    assert ref[0] == (1, 1) and not ref[2] and ref[3]
    traj = run_trajectory(StochasticOracle(obj, noise), sched, [1.0], K, seed=0)
    assert traj.domain_violation and not traj.overflow
    assert traj.trace.shape == (1, 1) and traj.violation_theta.tolist() == [0.0]


def test_each_block_is_one_read_the_raising_block_included(monkeypatch):
    # power-q(q=0.5) held at x = 1 by zero steps, then a step of 2 lands on
    # 0.0 at iterate 4001, whose next step raises ZeroDivisionError in g1.
    # The run steps the blocks 1-64, 65-128, ..., 2049-4096, seven in all:
    # one np.fromiter read each, the raising block included, and each step
    # once.
    obj = catalog_lookup("power-q", q=0.5)
    calls = 0

    def g1(x):
        nonlocal calls
        calls += 1
        return obj.g1(x)

    noise = NoiseModel("zero", 1)
    n, j = 4500, 4000
    etas = np.zeros(n)
    etas[j] = 2.0
    reads = 0
    fromiter = np.fromiter

    def counted(*args, **kwargs):
        nonlocal reads
        reads += 1
        return fromiter(*args, **kwargs)

    monkeypatch.setattr(np, "fromiter", counted)
    step = partial(_scalar_block, g1, noise, etas, obj.r0)
    trace, overflow, viol = _drive(step, 1.0, n, noise, np.random.default_rng(0))
    assert trace.tolist() == [1.0] * (j + 1) and not overflow and viol.tolist() == [0.0]
    assert reads == 7 and calls == j + 2


_NAN_BELOW_1 = NoiseModel("additive-gaussian-statedep", 1,
                          sigma_expr="0.3*sqrt(norm(theta) - 1)")


@pytest.mark.parametrize("blocks", ["small", "default"])
def test_statedep_sigma_nan_past_the_exit_is_read_in_blocks(request, blocks):
    # log1p-abs from 2 under step 1: the run leaves r0 = 1 at step 3, and
    # sigma = 0.3*sqrt(|x| - 1) is NaN at that rejected iterate, so the
    # block's next step raises ContractViolation, which ends its path before
    # its test runs
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    sched = Schedule.scalar(1.0, 0.0)
    ref = _both(catalog_lookup("log1p-abs"), _NAN_BELOW_1, sched, 2.0)
    assert ref[0] == (3, 1) and not ref[2] and ref[3]
    # with the floor at 0.5 the NaN sigma falls on an accepted iterate: both raise there
    obj = catalog_lookup("log1p-abs", r0=0.5)
    raised = []
    for loop in ("reference", "fast"):
        with pytest.raises(ContractViolation, match="sigma must be finite") as error:
            _run(loop, obj, _NAN_BELOW_1, sched, np.array([2.0]), 0)
        raised.append(str(error.value))
    assert raised[0] == raised[1]


def test_statedep_sigma_dividing_by_zero_past_the_exit_warns_nothing():
    # power-q(q=2) from 2 under step 0.5: sigma(2) = 0, so x_1 = 2 - 0.5 * 4
    # is 0.0 exactly, below r0 = 1, and the block's next step divides by zero
    # in sigma(0) = 2 / 0, a step that the run never keeps
    obj = catalog_lookup("power-q", q=2.0)
    noise = NoiseModel("additive-gaussian-statedep", 1,
                       sigma_expr="abs(norm(theta) - 2) / norm(theta)")
    sched = Schedule.scalar(0.5, 0.0)
    ref = _both(obj, noise, sched, 2.0)
    assert ref[0] == (1, 1) and ref[3] and ref[4] == np.array([0.0]).tobytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run_trajectory(StochasticOracle(obj, noise), sched, [2.0], K, seed=0)
    assert caught == []
    assert traj.domain_violation and traj.violation_theta.tolist() == [0.0]


@pytest.mark.usefixtures("small_blocks")
def test_g1_raising_at_an_accepted_iterate_raises_at_the_same_step():
    # quadratic from 8 under a decaying step: g1 raises at x_19 (accepted,
    # r0 = 0), in the step to iterate 20, the last of the block 17-20.  The
    # step sizes change with k, so a replay from the wrong iterate would
    # raise at another x.
    sched = Schedule.scalar(0.5, 0.5)
    xs = [8.0]
    for eta in sched.bounds(19).tolist():
        xs.append(xs[-1] - eta * xs[-1])
    limit = 0.5 * (xs[18] + xs[19])

    def g1(x):
        if abs(x) < limit:
            raise ValueError(f"g1 at {float(x)!r}")
        return x

    obj = _quadratic_with(g1)
    for loop in ("reference", "fast"):
        with pytest.raises(ValueError) as raised:
            _run(loop, obj, NoiseModel("zero", 1), sched, np.array([8.0]), 0)
        assert str(raised.value) == f"g1 at {xs[19]!r}"


def _raising_below_1(x):
    if abs(x) < 1.0:
        raise ValueError(f"g1 at {float(x)!r}")
    return x


# (blocks, s): the step s that raises is the first, a middle or the last step
# of its block (small blocks 2, 5-8, 9-12; default blocks 1-64, 65-128)
_RAISING_STEPS = [("small", 2), ("small", 5), ("small", 6), ("small", 7), ("small", 8),
                  ("small", 9), ("small", 12), ("default", 64), ("default", 65),
                  ("default", 100), ("default", 128)]
# zero noise, and noise far below an ulp of the iterates, for the noisy loop
_TINY_NOISE = [NoiseModel("zero", 1), NoiseModel("additive-gaussian", 1, sigma=1e-300)]


def _halving_to_0_75(request, blocks, s, r0):
    """quadratic with g1 raising below 1 and floor r0, from 1.5 * 2^(s - 2)
    under step 0.5: iterate s - 1 is 0.75, and the step s from it raises."""
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    obj = dataclasses.replace(_quadratic_with(_raising_below_1), r0=r0)
    return obj, Schedule.scalar(0.5, 0.0), 1.5 * 2.0 ** (s - 2)


@pytest.mark.parametrize("noise", _TINY_NOISE, ids=["zero", "gauss"])
@pytest.mark.parametrize("blocks, s", _RAISING_STEPS)
def test_a_step_raising_past_an_exit_stops_the_run_at_the_rejected_iterate(
        request, blocks, s, noise):
    # iterate s - 1 = 0.75 is below r0 = 1: the run stops there, whether the
    # raising step comes later in its block or starts the next one
    obj, sched, x0 = _halving_to_0_75(request, blocks, s, 1.0)
    ref = _both(obj, noise, sched, x0)
    assert ref[0] == (s - 1, 1) and not ref[2] and ref[4] == np.array([0.75]).tobytes()


@pytest.mark.parametrize("noise", _TINY_NOISE, ids=["zero", "gauss"])
@pytest.mark.parametrize("blocks, s", _RAISING_STEPS)
def test_a_step_raising_from_an_accepted_iterate_raises_as_the_reference(
        request, blocks, s, noise):
    # r0 = 0.5 keeps iterate s - 1 = 0.75, so the step s raises, from a read
    # that holds nothing where s is the first step of its block
    obj, sched, x0 = _halving_to_0_75(request, blocks, s, 0.5)
    raised = []
    for loop in ("reference", "fast"):
        with pytest.raises(Exception) as error:
            _run(loop, obj, noise, sched, np.array([x0]), 0)
        raised.append((type(error.value), str(error.value)))
    assert raised == [(ValueError, "g1 at 0.75")] * 2


@pytest.mark.parametrize("growth, j_about", [(2.0 ** 20, 25), (1.0, 500), (0.1, 3600),
                                             (0.01, 34700), (0.005, 69300)])
def test_run_steps_at_most_its_own_length_past_its_exit(growth, j_about):
    # quadratic under step 2 + growth: x_k = (-(1 + growth))^k overflows near
    # step j_about, in the first block, the growing blocks and the full-size
    # blocks.
    calls = 0

    def g1(x):
        nonlocal calls
        calls += 1
        return x

    n = 2 ** 17
    noise = NoiseModel("zero", 1)
    etas = Schedule.scalar(2.0 + growth, 0.0).bounds(n)
    step = partial(_scalar_block, g1, noise, etas, 0.0)
    trace, overflow, viol = _drive(step, 1.0, n, noise, np.random.default_rng(0))
    j = len(trace)  # the step that made the rejected iterate
    assert overflow and viol is None and abs(j - j_about) < 0.01 * j_about + 1
    assert j <= calls <= j + min(max(j, engine._FIRST_BLOCK), engine._BLOCK)
    assert engine._FIRST_BLOCK <= 64 and engine._BLOCK <= 4096


class _Normals:
    """A stand-in generator whose standard normals are the given values, in order."""

    def __init__(self, z):
        self.z, self.used = z, 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        self.used += n
        return self.z[self.used - n:self.used].reshape(shape)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("growth, j_about", [(1e100, 2), (200.0, 65), (0.0715, 5000)])
def test_run_draws_at_most_its_own_length_past_its_exit(p, growth, j_about):
    # quadratic under step 2 + growth with N(0, 1) noise: |x_k| grows as
    # (1 + growth)^k and overflows near step j_about of 20000; no block past
    # the one that holds the exit has its noise drawn
    K = 20000
    obj = catalog_lookup("quadratic", dimension=p)
    noise = NoiseModel("additive-gaussian", p, sigma=1.0)
    sched = Schedule.scalar(2.0 + growth, 0.0, dim=p)
    rng = _Normals(np.random.default_rng(7).standard_normal(K * p))
    with np.errstate(all="ignore"):
        trace, overflow, _ = _drive_engine(obj, noise, sched, np.ones(p), K, rng)
    j = len(trace)  # the step that made the rejected iterate
    assert overflow and abs(j - j_about) <= 0.01 * j_about + 1
    assert j <= rng.used // p <= j + min(max(j, engine._FIRST_BLOCK), engine._BLOCK)


@dataclasses.dataclass
class _StepSizes:
    """A stand-in 1-D schedule whose step sizes are the given values."""

    etas: np.ndarray
    q = None

    def eigenvalues(self, ks):
        return self.etas[ks][:, None]


NAN_PAYLOAD = np.array([0x7FF4000000000123], dtype=np.uint64).view(np.float64)[0]
SUBNORMAL = 5e-324


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("at, value, r0, exit_kind", [
    (None, None, 0.0, "full"),
    (16, math.inf, 0.0, "overflow"),
    (27, -math.inf, 0.0, "overflow"),
    (30, NAN_PAYLOAD, 0.0, "overflow"),
    (20, -0.0, 1e-300, "domain"),  # a step of 1 makes x - (x + -0.0) = 0.0 < r0
])
def test_special_floats_pass_through_the_buffers_bit_for_bit(at, value, r0, exit_kind):
    # Additive noise with -0.0 and the smallest subnormal among its normals,
    # subnormal step sizes, and a last entry of +-inf, a NaN with a payload or
    # a -0.0 that drives the run out.  The infinite iterates start a block
    # (17) and end one (28); the NaN iterate 31 is inside the block 29-32,
    # whose next step raises in g1 and ends that block's path.
    K = 40
    etas = np.full(K, 0.5)
    etas[7], etas[8] = SUBNORMAL, np.nextafter(np.finfo(float).tiny, 0.0)
    z = np.random.default_rng(3).standard_normal(K)
    z[3], z[10] = -0.0, SUBNORMAL
    if at is not None:
        z[at] = value
        if exit_kind == "domain":
            etas[at] = 1.0
    noise = NoiseModel("additive-gaussian", 1, sigma=1.0)

    def g1(x):
        if x != x:
            raise ValueError("g1 at NaN")
        return x

    rejected = []

    def step(*args):
        accepted, rej = _scalar_block(g1, noise, etas, r0, *args)
        rejected.append(rej)
        return accepted, rej

    obj = dataclasses.replace(catalog_lookup("quadratic"), g1=g1, r0=r0)
    with np.errstate(invalid="ignore"):  # sigma * NaN_PAYLOAD quiets a signalling NaN
        ref_trace, ref_over, ref_viol = reference.iterates(
            obj, noise, _StepSizes(etas), [0.75], K, _Normals(z))
        trace, over, viol = _drive(step, 0.75, K, noise, _Normals(z))
        w = (noise.sigma * z).tolist()
    assert trace.tobytes() == ref_trace.tobytes()
    kind = "overflow" if over else "domain" if viol is not None else "full"
    assert kind == exit_kind and over == ref_over and (ref_viol is None) == (viol is None)
    if exit_kind == "full":
        assert len(trace) == K + 1 and rejected[-1] is None
        return
    # the rejected iterate, stepped on Python floats as the list-based loop did
    j = len(trace) - 1
    x = float(trace[-1])
    want = x - etas.tolist()[j] * (x + w[j])
    size, got = rejected[-1]
    assert j == at
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.float64(size).tobytes() == np.float64(abs(want)).tobytes()
    if exit_kind == "domain":
        assert viol.tobytes() == ref_viol.tobytes() == np.array([0.0]).tobytes()


# quadratic's g1, which the 1-D additive-gaussian step inlines, and the same
# identity through the general loop
IDENTITY, GENERAL = operator.pos, lambda x: +x


def _steps_1d(g1, noise, etas, r0, x0, z):
    """_drive over _scalar_block with g1 on the normals z: the trace bytes,
    the exit and each block's rejected iterate and size as bytes."""
    rejected = []

    def step(*args):
        accepted, rej = _scalar_block(g1, noise, etas, r0, *args)
        rejected.append(rej and np.array(rej).tobytes())
        return accepted, rej

    with np.errstate(invalid="ignore"):  # sigma * NAN_PAYLOAD quiets a signalling NaN
        trace, over, viol = _drive(step, x0, len(etas), noise, _Normals(z))
    return trace.tobytes(), over, viol is None or viol.tobytes(), rejected


def _identity_case(K, at, value):
    """Step sizes 0.5 with two subnormals, and normals with -0.0, 1e-160,
    the smallest subnormal and -1e-300; the step to iterate `at` draws
    value (with a step of 1 for -0.0: x - (x + -0.0) is 0.0, below a floor)."""
    etas = np.full(K, 0.5)
    etas[9], etas[10] = SUBNORMAL, np.nextafter(np.finfo(float).tiny, 0.0)
    z = np.random.default_rng(5).standard_normal(K)
    z[3], z[6], z[10], z[11] = -0.0, 1e-160, SUBNORMAL, -1e-300
    if at is not None:
        z[at - 1] = value  # the step that makes iterate `at`
        etas[at - 1] = 1.0 if value == 0.0 else etas[at - 1]
    return etas, z


_EXITS = [(math.inf, "overflow"), (-math.inf, "overflow"), (NAN_PAYLOAD, "overflow"),
          (1e300, "overflow"), (-0.0, "domain")]


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("value, exit_kind", _EXITS)
@pytest.mark.parametrize("at", [1, 2, 3, 4, 5, 8, 9, 12, 13, 16, 17])
def test_identity_step_has_the_bits_of_the_general_loop_at_block_edges(at, value, exit_kind):
    # iterate `at` is the first or last of a small block
    assert catalog_lookup("quadratic").g1 is IDENTITY
    noise = NoiseModel("additive-gaussian", 1, sigma=1.0)
    etas, z = _identity_case(40, at, value)
    r0 = 1e-300 if exit_kind == "domain" else 0.0
    identity = _steps_1d(IDENTITY, noise, etas, r0, 0.75, z)
    assert identity == _steps_1d(GENERAL, noise, etas, r0, 0.75, z)
    trace, over, viol, rejected = identity
    assert len(trace) == 8 * at and over == (exit_kind == "overflow") and rejected[-1]


@pytest.mark.parametrize("at", [None, 64, 65, 4096, 4097, 8192, 8193])
def test_identity_step_has_the_bits_of_the_general_loop_at_default_sizes(at):
    # blocks 1-64, 65-128, ..., 2049-4096, 4097-8192, 8193-8292
    noise = NoiseModel("additive-gaussian", 1, sigma=0.5)
    etas, z = _identity_case(2 * engine._BLOCK + 100, at, math.inf)
    identity = _steps_1d(IDENTITY, noise, etas, 0.0, 0.75, z)
    assert identity == _steps_1d(GENERAL, noise, etas, 0.0, 0.75, z)
    assert len(identity[0]) == 8 * (len(etas) + 1 if at is None else at)


# Where x * x underflows, sqrt(x * x) is not |x|: 1e-160 squares to a
# subnormal near 1e-320, whose root is 9.99994433575849e-161.
_NORM_FLOATS = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1e-160, -1e-160,
                np.finfo(float).tiny, 1.3e154, -1.3e154, 1.35e154,
                np.finfo(float).max, math.inf, -math.inf, math.nan]


def test_the_1d_norm_has_the_bits_of_the_norm_of_a_one_element_array():
    # the 1-D statedep step passes sigma the norm sqrt(v * v); the reference
    # and every other caller take np.linalg.norm(np.array([v])), sqrt(a.dot(a))
    bits = np.random.default_rng(11).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    # Python floats, as the step reads them from its buffers
    values = [*map(float, _NORM_FLOATS), float(NAN_PAYLOAD), *bits.view(np.float64).tolist()]
    assert len(values) == 200_015 and math.sqrt(1e-160 * 1e-160) != 1e-160
    with np.errstate(over="ignore", invalid="ignore"):
        mismatched = [v for v in values if np.float64(math.sqrt(v * v)).tobytes()
                      != np.linalg.norm(np.array([v])).tobytes()]
    assert mismatched == []


@pytest.mark.parametrize("x0", [0.0, -0.0, SUBNORMAL, 1e-160, -1e-160, 3e-155, 1.3e154,
                                -1.35e154])
def test_statedep_1d_step_takes_the_reference_norm(x0):
    # sigma(x) = norm(theta): from 1e-160 the step's sigma is 9.99994433575849e-161,
    # not |x|; from -1.35e154 the norm is inf and both refuse that sigma
    noise = NoiseModel("additive-gaussian-statedep", 1, sigma_expr="norm(theta)")
    got = []
    for loop in ("reference", "fast"):
        try:
            got.append(_run(loop, catalog_lookup("quadratic"), noise, Schedule.scalar(0.5, 0.0),
                            np.array([x0]), 3))
        except ContractViolation as error:
            got.append(str(error))
    assert got[0] == got[1]
    assert isinstance(got[0], str) or x0 != -1.35e154


# ---------------------------------------------------------------------------
# the report writers against the reference's json and csv emitters
# ---------------------------------------------------------------------------


def test_two_runs_in_one_process_each_write_their_own_bytes():
    # Equal shapes, other seeds: no text formatted for the first run's report
    # may reach the second run's files, even where the second report takes
    # the memory the first one freed.
    config = {"objective": {"name": "quadratic"}, "noise": {"kind": "additive-gaussian",
                                                           "sigma": 1.0},
              "schedule": {"c": 1.0}, "run": {"K": 500, "n_trajectories": 4,
                                              "record_stride": 50},
              "diagnostics": {"capture": {"R": 1.0, "epsilon": 0.5}, "gammas": [0.0, 0.5]}}
    outputs = []
    for seed in (11, 12):
        config["run"]["master_seed"] = seed
        outputs.append(_cli("run", config))
        assert outputs[-1] == reference.main("run", config)
    assert all(outputs[0][1][name] != outputs[1][1][name] for name in outputs[0][1])


def _append_checkpoint(conv):
    for field in dataclasses.fields(conv):
        values = getattr(conv, field.name)
        if isinstance(values, list) and field.name != "f_lim_estimates":
            values.append({"ks": 10**6, "n_alive": 1}.get(field.name, 0.5))
    for values in conv.gamma_moments.values():
        values.append(1.5)


# Each changes the report after its first write, in place or by replacing a
# column; f_gap_median[1] is 0.0 at the first write.  The writers are called
# on the plain report, as a library caller would, so each formats its columns
# afresh and no text from the first write may reach the second.
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

    columns = dataclasses.asdict(conv)
    assert (tmp_path / "new.csv").read_bytes() == reference.checkpoints_csv(columns).encode()
    assert (tmp_path / "new.json").read_bytes() == reference.json_text(
        {"convergence": columns}).encode()
    assert (tmp_path / "new.json").read_bytes() != (tmp_path / "old.json").read_bytes()


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
    assert reports.dumps_json(payload) == reference.json_text(payload)


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
    fields = [f.name for f in dataclasses.fields(checkers.RadialRecord)]
    probe = SimpleNamespace(records=[SimpleNamespace(**dict(zip(fields, row)))
                                     for row in rows])
    reports.write_radial_csv(csv_dir / "radial.csv", probe)
    assert (csv_dir / "radial.csv").read_bytes() == reference.csv_text(fields, rows).encode()

    reports.write_stopping_times_csv(csv_dir / "st.csv", [SimpleNamespace(taus=t) for t in taus])
    want = reference.csv_text(("trajectory", "tau_index", "tau"),
                              [(i, j, tau) for i, t in enumerate(taus) for j, tau in enumerate(t)])
    assert (csv_dir / "st.csv").read_bytes() == want.encode()

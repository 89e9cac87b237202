"""A reference sgdlab: from a config to report bytes in the plainest code.

It reproduces the bytes of `sgdlab run`, `sgdlab stopping-times` and
`sgdlab check` (all seven checks) from the definitions of the spec alone,
trajectory by trajectory, step by step and sampled point by sampled point:

- trajectory i draws from default_rng(split_seed(master_seed, i)), through
  NoiseModel.draw, in one piece of K steps;
- step k takes row k of Schedule.eigenvalues as d: theta - q @ (d * (q.T @ g))
  (rotated) or theta - d * g for p > 1, with g the catalog gradient plus the
  noise term, and x - eta * (g1(x) + noise term) on Python floats for p = 1;
- an iterate is kept iff r0 <= its size < THETA_CAP; the first one that is
  not ends the run, as overflow when its size is not below THETA_CAP (NaN
  included) and as a domain exit otherwise;
- F and the gradient norm are read on the stride grid, and a record with F
  not finite or at OVERFLOW_CAP ends the records there (overflow);
- each checkpoint column is reduced over the trajectories alive there with
  np.mean, np.std, np.median and np.quantile, and the reports are
  json.dumps(indent=2, sort_keys=True) of plain values (keys str'd,
  non-finite floats null) and csv.writer rows;
- each sampled check seeds one default_rng(checks.seed), draws its points
  whole (the descent check all its thetas, then all its phis), evaluates
  them one at a time, and reports the first maximum of its violations as
  the worst point, the first NaN before any number.

It reads the configs through `config.config_from_dict` and otherwise uses the
catalog objectives, NoiseModel, Schedule, split_seed, the spec labels and the
constants (the checkers' sample counts and tolerances among them); no
stepper, ensemble worker, aggregation, checker or report writer of the
package, and no sigma form: a state-dependent sigma is its sigma_expr
evaluated by eval.  `main` returns the exit code and the bytes of every report file.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

from sgdlab import checkers, engine
from sgdlab.config import CHECK_REPORTS, config_from_dict
from sgdlab.diagnostics import ENVELOPE_GRID, split_seed
from sgdlab.engine import THETA_CAP
from sgdlab.errors import ConfigError, ContractViolation, DomainError
from sgdlab.objectives import OVERFLOW_CAP, _norms

# ---------------------------------------------------------------------------
# one trajectory
# ---------------------------------------------------------------------------


def iterates(objective, noise, schedule, theta0, K: int, rng):
    """(the kept iterates as a (last + 1, p) array, overflow, the iterate
    that left the domain or None) of K steps from theta0."""
    one_d = objective.dim == 1
    x = float(theta0[0]) if one_d else np.array(theta0, dtype=float)
    trace = [x]
    w = noise.draw(rng, K)
    ds = schedule.eigenvalues(np.arange(K))
    for k in range(K):
        if one_d:
            x = _step_1d(objective.g1, noise, float(ds[k, 0]), x,
                         None if w is None else float(w[k, 0]))
            size = abs(x)
        else:
            x = _step(objective.grad, noise, schedule.q, ds[k], x, None if w is None else w[k])
            size = np.linalg.norm(x)
        if not objective.r0 <= size < THETA_CAP:
            overflow = not size < THETA_CAP
            violation = None if overflow else np.atleast_1d(x)
            return np.reshape(trace, (len(trace), -1)), overflow, violation
        trace.append(x)
    return np.reshape(trace, (len(trace), -1)), False, None


def _step_1d(g1, noise, eta: float, x: float, w: float | None) -> float:
    if w is None:
        return x - eta * g1(x)
    if noise.kind == "additive-gaussian":  # w is sigma * z
        return x - eta * (g1(x) + w)
    if noise.kind == "rademacher-radial":  # w is the sign
        return x - eta * (g1(x) + abs(x) * w)
    return x - eta * (g1(x) + _sigma(noise, np.array([x])) * w)


_SIGMA_NAMES = {"__builtins__": {}, "norm": np.linalg.norm, "abs": np.abs, "exp": np.exp,
                "log": np.log, "log1p": np.log1p, "sqrt": np.sqrt, "pi": math.pi, "e": math.e}


def _sigma(noise, theta: np.ndarray) -> float:
    """sigma_expr at theta by eval, with numpy's norm; a sigma outside [0, inf)
    is refused with NoiseModel's message."""
    sigma = float(eval(noise.sigma_expr, dict(_SIGMA_NAMES, theta=theta)))
    if not 0.0 <= sigma < math.inf:
        raise ContractViolation(
            f"sigma expression {noise.sigma_expr!r} gave {sigma!r} at theta={theta.tolist()}; "
            "sigma must be finite and >= 0")
    return sigma


def _sample(grad, noise, theta, w):
    """One draw of the stochastic gradient at theta for the noise row w."""
    g = grad(theta)
    if noise.kind == "additive-gaussian":
        g = g + w
    elif noise.kind == "rademacher-radial":
        g = g + np.linalg.norm(theta) * w * noise.direction
    elif noise.kind == "additive-gaussian-statedep":
        g = g + _sigma(noise, theta) * w
    return g


def _step(grad, noise, q, d, theta, w):
    g = _sample(grad, noise, theta, w)
    return theta - (d * g if q is None else q @ (d * (q.T @ g)))


def trajectory(objective, noise, schedule, theta0, K: int, seed: int, stride: int) -> dict:
    """Trajectory `seed`: its iterates and its records on the stride grid."""
    objective.check_domain(np.asarray(theta0, dtype=float))
    trace, overflow, violation = iterates(objective, noise, schedule, theta0, K,
                                          np.random.default_rng(seed))
    ks = _grid(len(trace) - 1, stride)
    f = np.asarray(objective.value_batch(trace[ks]), dtype=float)
    g = np.asarray(objective.grad_norm_batch(trace[ks]), dtype=float)
    for i, value in enumerate(f):
        if not math.isfinite(value) or value >= OVERFLOW_CAP:
            cut = max(i, 1)
            ks, f, g, overflow = ks[:cut], f[:cut], g[:cut], True
            trace = trace[:ks[-1] + 1]
            break
    return {"ks": np.array(ks), "f": f, "grad_norm": g, "trace": trace, "seed": seed,
            "overflow": overflow, "domain_violation": violation is not None,
            "last_k": ks[-1]}


# ---------------------------------------------------------------------------
# the commands
# ---------------------------------------------------------------------------


def _members(spec, stride: int):
    objective = spec.objective.build()
    noise = spec.noise.build(objective.dim)
    for i in range(spec.n_trajectories):
        yield trajectory(objective, noise, spec.schedule, spec.theta0, spec.horizon,
                         split_seed(spec.master_seed, i), stride)


def _grid(last: int, stride: int) -> list[int]:
    ks = list(range(0, last + 1, stride))
    return ks if ks[-1] == last else ks + [last]


def _column_stats(matrix: np.ndarray) -> dict:
    """n_alive and the statistics of each column over its non-NaN entries."""
    out = {"n_alive": [], "mean": [], "se": [], "median": [], "q25": [], "q75": []}
    for column in matrix.T:
        alive = column[~np.isnan(column)]
        n = len(alive)
        out["n_alive"].append(n)
        if n == 0:
            for stat in ("mean", "se", "median", "q25", "q75"):
                out[stat].append(math.nan)
            continue
        out["mean"].append(float(np.mean(alive)))
        out["se"].append(float(np.std(alive, ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
        out["median"].append(float(np.median(alive)))
        q25, q75 = np.quantile(alive, [0.25, 0.75])
        out["q25"].append(float(q25))
        out["q75"].append(float(q75))
    return out


def _envelope_max(objective, noise, theta_bar, R: float) -> float | None:
    """The grid maximum of the declared envelope over the ball; None where
    there is no grid (the ball below the floor, or p > 1 but not radial)."""
    tb = np.asarray(theta_bar, dtype=float)
    if objective.dim == 1:
        xs = np.linspace(tb[0] - R, tb[0] + R, ENVELOPE_GRID)
        if objective.r0 > 0.0:
            xs = xs[np.abs(xs) >= objective.r0]
        if xs.size == 0:
            return None
        points = xs[:, None]
    elif objective.radial and noise.kind != "additive-gaussian-statedep":
        nb = float(np.linalg.norm(tb))
        rhos = np.linspace(max(objective.r0, max(0.0, nb - R)), nb + R, ENVELOPE_GRID)
        points = np.zeros((ENVELOPE_GRID, objective.dim))
        points[:, 0] = rhos
    else:
        return None
    return float(np.max(noise.envelope_batch(objective, points)))


def _run(config) -> tuple[int, dict]:
    spec, diag = config.run, config.diagnostics
    objective = spec.objective.build()
    noise = spec.noise.build(objective.dim)
    K, n = spec.horizon, spec.n_trajectories
    norm0 = 1.0 + float(np.linalg.norm(spec.theta0))
    W = max(1, K // 10) if diag.W is None else diag.W
    eps_conv = 1e-3 * norm0 if diag.epsilon_conv is None else diag.epsilon_conv
    r_div = 1e3 * norm0 if diag.R_div is None else diag.R_div
    if W > K or not all(0.0 <= gamma < 1.0 for gamma in diag.gammas or ()):
        return 2, {}
    capture = diag.capture
    if capture is not None:
        g_r = _envelope_max(objective, noise, capture.theta_bar, capture.R)
        if g_r is None:
            return 2, {}
    cps = _grid(K, spec.record_stride)
    f_gap = np.full((n, len(cps)), np.nan)
    grad_norm = np.full((n, len(cps)), np.nan)
    counts = np.zeros(K, dtype=np.int64)
    seeds, f_lims, classifications = [], [], []
    n_overflow = n_domain = 0
    try:
        for i, t in enumerate(_members(spec, spec.record_stride)):
            for j, k in enumerate(cps):  # checkpoint k is recorded iff k <= last_k
                if k <= t["last_k"]:
                    f_gap[i, j] = t["f"][j] - objective.f_lb
                    grad_norm[i, j] = t["grad_norm"][j]
            if capture is not None:
                dist = _norms(t["trace"] - np.asarray(capture.theta_bar, dtype=float))
                for k in range(t["last_k"]):
                    if dist[k] <= capture.R and dist[k + 1] >= capture.R + capture.epsilon:
                        counts[k] += 1
            f_lims.append(float(np.mean(t["f"][t["ks"] > t["last_k"] - W])))
            classifications.append(_classify(t, W, eps_conv, r_div))
            seeds.append(t["seed"])
            n_overflow += t["overflow"]
            n_domain += t["domain_violation"]
    except DomainError:
        return 3, {}

    conv = _convergence(cps, f_gap, grad_norm, f_lims, diag.gammas)
    capture_block = None
    if capture is not None:
        capture_block = _capture(spec, capture, g_r, counts)
        conv["escape_total"] = capture_block["total_escapes"]
    verdicts = [c["verdict"] for c in classifications]
    report = {
        "spec": _spec_block(spec), "ids": _ids(spec), "seeds": seeds,
        "n_overflow": n_overflow, "n_domain_violation": n_domain,
        "verdict_counts": {v: verdicts.count(v) for v in verdicts},
        "classifications": classifications, "convergence": conv, "capture": capture_block}
    return 0, {"ensemble_report.json": json_text(report),
               "checkpoints.csv": checkpoints_csv(conv)}


def _convergence(cps: list[int], f_gap, grad_norm, f_lims: list[float], gammas) -> dict:
    """The convergence block: each series' statistics per checkpoint column."""
    conv = {"ks": cps, "f_lim_estimates": f_lims, "gamma_moments": None, "escape_total": None}
    for series, matrix in (("f_gap", f_gap), ("grad_norm", grad_norm),
                           ("grad_norm_sq", grad_norm ** 2)):
        stats = _column_stats(matrix)
        conv.setdefault("n_alive", stats.pop("n_alive"))  # of f_gap
        conv.update((f"{series}_{stat}", values) for stat, values in stats.items())
    if gammas is not None:
        dead = np.isnan(f_gap)  # where nan ** 0 would be 1
        conv["gamma_moments"] = {
            gamma: _column_stats(np.where(dead, np.nan, np.maximum(f_gap, 0.0) ** gamma))["mean"]
            for gamma in gammas}
    idx = int(np.nanargmax(conv["f_gap_mean"]))
    conv.update(sup_mean_f=conv["f_gap_mean"][idx], sup_mean_f_k=cps[idx],
                sup_mean_f_se=conv["f_gap_se"][idx],
                final_decade_slope=_slope(cps, conv["grad_norm_mean"]))
    return conv


def _capture(spec, capture, g_r: float, counts) -> dict:
    """The capture block: escape frequencies against the step-size tail bound."""
    n, K = spec.n_trajectories, spec.horizon
    empirical = counts / n
    lmax = spec.schedule.eigenvalues(np.arange(K)).max(axis=1)
    tail = (capture.epsilon ** -2) * lmax ** 2 * g_r
    margin = empirical - tail - 4.0 * np.sqrt(empirical * (1.0 - empirical) / n)
    return {"theta_bar": list(capture.theta_bar), "R": capture.R, "epsilon": capture.epsilon,
            "G_R": g_r, "n_trajectories": n, "n_steps": K,
            "escape_counts": {k: int(c) for k, c in enumerate(counts) if c},
            "empirical_sum": float(np.sum(empirical)), "theoretical_sum": float(np.sum(tail)),
            "total_escapes": int(np.sum(counts)), "bound_margin_max": float(np.max(margin))}


def _classify(t: dict, W: int, eps_conv: float, r_div: float) -> dict:
    out = {"window_length": W, "epsilon_conv": eps_conv, "R_div": r_div}
    if t["domain_violation"] or t["last_k"] + 1 < W:  # left, or stopped before the window
        return {**out, "verdict": "truncated", "evidence": {"last_k": t["last_k"]}}
    trace = t["trace"]
    window = (np.abs(trace[:, 0]) if trace.shape[1] == 1 else _norms(trace))[-W:]
    wmin, wmax = float(np.min(window)), float(np.max(window))
    if wmax - wmin < eps_conv and wmax < r_div and not t["overflow"]:
        verdict = "converged-like"
    elif wmin > r_div:
        verdict = "diverging-like"
    else:
        verdict = "undecided"
    return {**out, "verdict": verdict,
            "evidence": {"window_range": wmax - wmin, "window_min": wmin}}


def _slope(ks: list[int], gn_mean: list[float]) -> float | None:
    """The least-squares slope of log mean gradient norm against log k over
    the last decade of checkpoints, where the mean is positive."""
    low = max(1, ks[-1] // 10)
    sel = [(k, m) for k, m in zip(ks, gn_mean) if k >= low and m > 0.0]
    if len(sel) < 2:
        return None
    x, y = np.log(np.array([k for k, _ in sel], dtype=float)), np.log([m for _, m in sel])
    return float(np.polyfit(x, y, 1)[0])


def _spec_block(spec) -> dict:
    s = spec.schedule
    return {"objective": dataclasses.asdict(spec.objective),
            "noise": dataclasses.asdict(spec.noise),
            "schedule": {"family": s.family, "c": s.c.tolist(), "beta": s.beta.tolist(),
                         "k0": s.k0, "p": s.dim, "rotation_seed": s.rotation_seed},
            "theta0": list(spec.theta0), "horizon": spec.horizon,
            "n_trajectories": spec.n_trajectories, "master_seed": spec.master_seed,
            "record_stride": spec.record_stride}


def _ids(spec) -> dict:
    return {"objective_id": spec.objective.label, "noise_id": spec.noise.label,
            "schedule_id": spec.schedule.label}


def _stopping_times(config) -> tuple[int, dict]:
    spec = config.run
    entries, rows = [], []
    try:
        for i, t in enumerate(_members(spec, 1)):
            f = t["f"]
            taus, current = [0], float(f[0])
            for j in range(1, len(f)):
                if f[j] > current + 1.0:
                    taus.append(j)
                    current = float(f[j])
            entries.append({
                "trajectory": i, "seed": t["seed"], "taus": taus,
                "complete": len(taus) > 1 and taus[-1] == len(f) - 1,
                "tau_geq_k": all(tau >= m for m, tau in enumerate(taus)),
                "overflow": t["overflow"], "domain_violation": t["domain_violation"],
                "last_k": t["last_k"]})
            rows += [(i, m, tau) for m, tau in enumerate(taus)]
    except DomainError:
        return 3, {}
    report = {**_ids(spec), "horizon": spec.horizon, "trajectories": entries}
    return 0, {"stopping_times.json": json_text(report),
               "stopping_times.csv": csv_text(("trajectory", "tau_index", "tau"), rows)}


def _p1p2p3p4(config, objective, noise) -> tuple[dict, bool]:
    schedule, checks = config.schedule, config.checks
    alpha, horizon = checks.alpha, checks.horizon
    total = 0.0
    for start in range(0, horizon + 1, engine._CHUNK):
        ks = np.arange(start, min(start + engine._CHUNK, horizon + 1))
        total += float(np.sum(schedule.eigenvalues(ks).max(axis=1) ** (1.0 + alpha)))
    bmin, bmax = float(np.min(schedule.beta)), float(np.max(schedule.beta))
    verdicts = ["pass" if bmin * (1.0 + alpha) > 1.0 else "fail",
                "pass" if bmax <= 1.0 else "fail",
                "pass" if bmax < (1.0 + alpha) * bmin else "fail"]
    basis = ("power-family exponent tests: "
             f"P2 iff min(beta)*(1+alpha) > 1 [{bmin * (1 + alpha):g} vs 1]; "
             f"P3 iff max(beta) <= 1 [{bmax:g}]; "
             f"P4 iff max(beta) < (1+alpha)*min(beta) [{bmax:g} vs {(1 + alpha) * bmin:g}]")
    report = dict(zip(("p2_verdict", "p3_verdict", "p4_verdict"), verdicts), alpha=alpha,
                  p2_partial_sum=total, analytic_basis=basis, horizon_used=horizon)
    return {"report": report}, "fail" in verdicts


def _lemma4(config, objective, noise) -> tuple[dict, bool]:
    """The smallest K with lambda_max^alpha * kappa <= 1/C on [K, K_max]."""
    alpha, C, k_max = config.checks.alpha, config.checks.lemma4.C, config.checks.lemma4.K_max
    d = config.schedule.eigenvalues(np.arange(k_max + 1))
    lmax, lmin = d.max(axis=1), d.min(axis=1)
    bad = np.nonzero(~(lmax ** alpha * (lmax / lmin) <= 1.0 / C))[0]
    threshold = 0 if len(bad) == 0 else None if bad[-1] == k_max else int(bad[-1]) + 1
    return {"report": {"C": C, "alpha": alpha, "K_max": k_max, "threshold": threshold}}, \
        threshold is None


# The sampled checks.  Each seeds one default_rng(checks.seed) and draws its
# points whole, in the order the spec gives; then it visits the points one at
# a time, evaluating each on a one-row array (the catalog's batch functions,
# and numpy's power, have the same bits on one row as on many).


def _worst(values: list[float]) -> int:
    """The index of the worst value: the first NaN, else the first maximum."""
    worst = 0
    for i, value in enumerate(values):
        if math.isnan(value):
            return i
        if value > values[worst]:
            worst = i
    return worst


def _assumption(assumption_id: str, values: list[float], tol: float, witnesses) -> tuple:
    """The report of a sampled check at its worst point, and whether it failed."""
    i = _worst(values)
    verdict = "pass" if values[i] <= tol else "fail"
    return {"report": {"assumption_id": assumption_id, "verdict": verdict,
                       "worst_violation": values[i], "witness": witnesses[i],
                       "tolerance": tol}}, verdict == "fail"


def _inconclusive(assumption_id: str, tol: float) -> tuple:
    return {"report": {"assumption_id": assumption_id, "verdict": "inconclusive",
                       "worst_violation": 0.0, "witness": None, "tolerance": tol}}, False


def _box(rng, n: int, box, p: int) -> np.ndarray:
    return rng.uniform(box[0], box[1], size=(n, p))


def _sq_norms(objective, noise, theta, rng, n: int) -> np.ndarray:
    """n draws of ||sample||^2 at theta, one noise row each.  Zero noise
    draws the exact gradient n times, whose square is g @ g."""
    w = noise.draw(rng, n)
    if w is None:
        g = objective.grad(theta)
        return np.full(n, float(g @ g))
    rows = [_sample(objective.grad, noise, theta, w[j])[None, :] for j in range(n)]
    return np.array([np.einsum("ij,ij->i", row, row)[0] for row in rows])


def _holder_sup(objective, box, alpha: float, seed: int) -> float:
    """The largest |grad(x) - grad(y)| / |x - y|^alpha over the pairs at a
    positive distance, NaN if any ratio is NaN: every pair of the
    HOLDER_BOX_SAMPLES-point grid in 1-D, HOLDER_BOX_SAMPLES random pairs
    (all the x's drawn, then all the y's) for p > 1."""
    n = checkers.HOLDER_BOX_SAMPLES
    ratios = []
    if objective.dim == 1:
        xs = np.linspace(box[0], box[1], n)[:, None]
        objective.check_domain(xs)
        g = [objective.grad_batch(xs[i:i + 1])[0] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist = np.abs(xs[j] - xs[i])
                if dist[0] > 0.0:
                    ratios.append(float((np.abs(g[j] - g[i]) / dist ** alpha)[0]))
        return float(np.max(ratios))
    rng = np.random.default_rng(seed)
    xs = _box(rng, n, box, objective.dim)
    ys = _box(rng, n, box, objective.dim)
    objective.check_domain(xs)
    objective.check_domain(ys)
    for i in range(n):
        x, y = xs[i:i + 1], ys[i:i + 1]
        dist = _norms(y - x)
        if dist[0] > 0.0:
            num = _norms(objective.grad_batch(y) - objective.grad_batch(x))
            ratios.append(float((num / dist ** alpha)[0]))
    return float(np.max(ratios))


def _descent(config, objective, noise) -> tuple[dict, bool]:
    checks, descent = config.checks, config.checks.descent
    alpha, tol = checks.alpha, checkers.DEFAULT_TOL
    l_tilde = descent.L_tilde
    if l_tilde is None:
        l_tilde = 2.0 * _holder_sup(objective, descent.box, alpha, checks.seed)
    if not (math.isfinite(l_tilde) and l_tilde > 0.0):
        raise ContractViolation(f"L_tilde must be finite and > 0, got {l_tilde!r}")
    rng = np.random.default_rng(checks.seed)
    thetas = _box(rng, descent.n_pairs, descent.box, objective.dim)
    phis = _box(rng, descent.n_pairs, descent.box, objective.dim)
    objective.check_domain(thetas)
    objective.check_domain(phis)
    lhs, witnesses = [], []
    for i in range(descent.n_pairs):
        theta, phi = thetas[i:i + 1], phis[i:i + 1]
        diff = theta - phi
        inner = np.einsum("ij,ij->i", objective.grad_batch(phi), diff)
        value = float((objective.value_batch(theta) - objective.value_batch(phi) - inner
                       - (l_tilde / (1.0 + alpha)) * _norms(diff) ** (1.0 + alpha))[0])
        lhs.append(value)
        witnesses.append({"theta": theta[0].tolist(), "phi": phi[0].tolist(), "lhs": value})
    body, failed = _assumption("descent", lhs, tol, witnesses)
    return {"L_tilde": l_tilde, **body}, failed


def _variance(config, objective, noise) -> tuple[dict, bool]:
    """The two-link moment chain on the norms of n_samples draws at theta0."""
    alpha = config.checks.alpha
    theta = np.asarray(config.run.theta0, dtype=float)
    objective.check_domain(theta)
    rng = np.random.default_rng(config.checks.seed)
    s = np.sqrt(_sq_norms(objective, noise, theta, rng, config.checks.variance.n_samples))
    if not all(math.isfinite(v) for v in s):
        raise ContractViolation("samples must be finite and >= 0")
    m_low = float(np.mean(s ** (1.0 + alpha)))
    m_mid = float(np.mean(s ** 2) ** ((1.0 + alpha) / 2.0))
    m_young = float((1.0 + alpha) / 2.0 * np.mean(s ** 2) + (1.0 - alpha) / 2.0)
    worst = max((m_low - m_mid) / max(1.0, abs(m_mid)),
                (m_mid - m_young) / max(1.0, abs(m_young)))
    chain = [m_low, m_mid, m_young]
    body, failed = _assumption("variance", [worst], 1e-12, [{"chain": chain, "alpha": alpha}])
    if not all(math.isfinite(m) for m in chain):  # an overflowed link compares nothing
        body["report"]["verdict"], failed = "inconclusive", False
    return body, failed


def _gradbound(config, objective, noise) -> tuple[dict, bool]:
    checks, gb = config.checks, config.checks.gradbound
    alpha, tol = checks.alpha, checkers.DEFAULT_TOL
    L = gb.L if gb.L is not None else objective.l_global
    if L is None:
        return _inconclusive("gradbound", tol)
    rng = np.random.default_rng(checks.seed)
    pts = _box(rng, gb.n_points, gb.box, objective.dim)
    objective.check_domain(pts)
    rel, witnesses = [], []
    for i in range(gb.n_points):
        phi = pts[i:i + 1]
        f = objective.value_batch(phi) - objective.f_lb
        gsq = objective.grad_norm_batch(phi) ** 2
        bound = (L ** (1.0 / alpha) * (1.0 + alpha) / alpha * f) ** (2.0 * alpha / (1.0 + alpha))
        rel.append(float(((gsq - bound) / np.maximum(1.0, bound))[0]))
        witnesses.append({"phi": phi[0].tolist(), "grad_norm_sq": float(gsq[0]),
                          "bound": float(bound[0])})
    return _assumption("gradbound", rel, tol, witnesses)


def _smoothness(config, objective, noise) -> tuple[dict, bool]:
    """E||sample||^2 <= C1 + C2 (F - f_lb) + C3 ||grad||^2 at each point,
    with a 4-sigma margin on the mean of n_draws draws and a 1e-12 relative slack."""
    checks, sm = config.checks, config.checks.smoothness
    constants = sm.constants or noise.constants
    if constants is None:
        return _inconclusive("smoothness", 0.0)
    C1, C2, C3 = constants
    if C1 < 0.0 or C2 < 0.0 or C3 < 1.0 or sm.n_draws < 2:
        raise ContractViolation("C1, C2 >= 0, C3 >= 1 and n_draws >= 2")
    rng = np.random.default_rng(checks.seed)
    pts = _box(rng, sm.n_points, sm.box, objective.dim)
    objective.check_domain(pts)
    margins, witnesses = [], []
    for theta in pts:  # each point's draws after the last point's
        sq = _sq_norms(objective, noise, theta, rng, sm.n_draws)
        m_hat = np.mean(sq)
        se = np.std(sq, ddof=1) / np.sqrt(sm.n_draws)
        g = objective.grad(theta)
        bound = C1 + C2 * (objective.value(theta) - objective.f_lb) + C3 * float(g @ g)
        margins.append(float(m_hat - bound - 4.0 * se - 1e-12 * np.maximum(1.0, bound)))
        witnesses.append({"theta": theta.tolist(), "empirical_second_moment": float(m_hat),
                          "bound": float(bound), "stderr": float(se)})
    return _assumption("smoothness", margins, 0.0, witnesses)


def _ball(phi: np.ndarray, r: float, n: int, seed: int) -> list[np.ndarray]:
    """The n ball points of the local Hölder estimate: in 1-D phi + r, phi - r,
    then phi + (2 v_i - 1) r for the bit-reversal points v_i = 1/2, 1/4, 3/4, ...;
    for p > 1 from default_rng(seed), per point a normal direction and then,
    at odd points, a radius r * u^(1/p)."""
    p = phi.shape[0]
    if p == 1:
        points = [phi + r, phi - r]
        for i in range(1, n - 1):
            v, bit, j = 0.0, 0.5, i
            while j:
                v += bit * (j & 1)
                bit, j = bit / 2.0, j >> 1
            points.append(phi + (2.0 * v - 1.0) * r)
        return points[:n]
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        d = rng.standard_normal(p)
        rad = r if i % 2 == 0 else r * rng.random() ** (1.0 / p)
        points.append(phi + (rad / float(np.linalg.norm(d))) * d)
    return points


def _local_holder(objective, phi, r: float, alpha: float, seed: int) -> float:
    """max over the ball points at a positive distance of
    |grad(x) - grad(phi)| / |x - phi|^alpha (NaN if any is NaN), 0 if none."""
    if objective.r0 > 0.0 and float(np.linalg.norm(phi)) - r < objective.r0:
        raise DomainError("the ball leaves the domain", theta=phi)
    g_phi = objective.grad(phi)
    ratios = []
    for x in _ball(phi, r, checkers.PROBE_HOLDER_SAMPLES, seed):
        dist = _norms(x[None, :] - phi[None, :])
        if dist[0] > 0.0:
            num = _norms(objective.grad_batch(x[None, :]) - g_phi[None, :])
            ratios.append(float((num / dist ** alpha)[0]))
    return float(np.max(ratios)) if ratios else 0.0


def _radial(config, objective, noise) -> tuple[dict, bool]:
    diag = config.diagnostics
    alpha, r, radii, b = diag.alpha, diag.r, list(diag.radii), diag.b_threshold
    if (any(y <= x for x, y in zip(radii, radii[1:])) or b <= 0.0 or r <= 0.0
            or any(rho < objective.r0 + r for rho in radii)):
        raise ContractViolation("bad radial probe parameters")
    G = noise.envelope(objective)
    clamp = checkers.ZERO_CLAMP
    records, f = [], []
    for rho in radii:
        phi = np.zeros(objective.dim)
        phi[0] = rho
        g = objective.grad(phi)
        l_r = _local_holder(objective, phi, r, alpha, config.checks.seed)
        l_r = l_r if l_r >= clamp else 0.0
        g_val = float(G(phi))
        g_val = g_val if g_val >= clamp else 0.0
        denom = (l_r if l_r else 1.0) * (g_val ** ((1.0 + alpha) / 2.0) + (0.0 if g_val else 1.0))
        gns = float(g @ g)
        records.append({"radius": rho, "grad_norm_sq": gns, "L_r": l_r, "G_value": g_val,
                        "ratio": gns / denom})
        f.append(objective.value(phi))
    steps = [y - x for x, y in zip(f, f[1:])]
    if steps and all(s > 0.0 for s in steps):
        a5 = "increasing-unbounded"
    elif steps and all(s <= 0.0 for s in steps) and any(s < 0.0 for s in steps):
        a5 = "decreasing"
    else:
        a5 = "bounded"
    tail = [rec["ratio"] for rec in records[-3:]]
    if all(x >= b for x in tail):
        a6 = "satisfied-at-horizon"
    elif all(y < x for x, y in zip(tail, tail[1:])) and all(x < b for x in tail):
        a6 = "violated-at-horizon"
    else:
        a6 = "inconclusive"
    return {"report": {"radii": radii, "records": records, "alpha": alpha, "r": r,
                       "b_threshold": b, "a5_trend": a5, "a6_verdict": a6}}, \
        a6 == "violated-at-horizon"


CHECKS = {"p1p2p3p4": _p1p2p3p4, "descent": _descent, "variance": _variance,
          "gradbound": _gradbound, "smoothness": _smoothness, "radial": _radial,
          "lemma4": _lemma4}


def _check(config) -> tuple[int, dict]:
    """Each check of checks.which in turn.  The first that raises sets the exit
    code (3 for a point below the domain floor, 2 for a refused constant) and
    no report is written; else the code is 1 if any check failed."""
    objective = config.run.objective.build()
    noise = config.run.noise.build(objective.dim)
    files, failed = {}, False
    for name in config.checks.which:
        try:
            body, fail = CHECKS[name](config, objective, noise)
        except DomainError:
            return 3, {}
        except ContractViolation:
            return 2, {}
        failed |= fail
        stem = CHECK_REPORTS[name]
        files[f"{stem}.json"] = json_text({"check": name, **body})
        if name == "radial":
            records = body["report"]["records"]
            files[f"{stem}.csv"] = csv_text(list(records[0]),
                                            [list(rec.values()) for rec in records])
    return int(failed), files


COMMANDS = {"run": _run, "stopping-times": _stopping_times, "check": _check}


def main(command: str, raw: dict) -> tuple[int, dict[str, bytes]]:
    """The exit code and the report files {name: bytes} of `sgdlab <command>`
    on the config dict raw (`check` runs the checks of checks.which)."""
    try:
        config = config_from_dict(raw)
    except ConfigError:  # a refused value exits 2 before anything runs
        return 2, {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as cli.main
        code, files = COMMANDS[command](config)
    return code, {name: text.encode("utf-8") for name, text in files.items()
                  if name.rsplit(".", 1)[1] in config.output.formats}


# ---------------------------------------------------------------------------
# report bytes
# ---------------------------------------------------------------------------


def plain(value):
    """value as json.dumps takes it: str keys, lists, Python numbers, None
    for a non-finite float."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def json_text(payload) -> str:
    return json.dumps(plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return value


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return out.getvalue()


def checkpoints_csv(conv: dict) -> str:
    """Rows (k, statistic, value, stderr): per checkpoint each series' mean
    (its se as stderr), median and quartiles, n_alive, then the gamma moments."""
    names = [(f"{series}_{stat}", f"{series}_se" if stat == "mean" else None)
             for series in ("f_gap", "grad_norm", "grad_norm_sq")
             for stat in ("mean", "median", "q25", "q75")] + [("n_alive", None)]
    moments = conv["gamma_moments"] or {}
    rows = []
    for i, k in enumerate(conv["ks"]):
        rows += [(k, name, conv[name][i], None if se is None else conv[se][i])
                 for name, se in names]
        rows += [(k, f"f_gap_gamma_moment[{gamma:g}]", moments[gamma][i], None)
                 for gamma in sorted(moments)]
    return csv_text(("k", "statistic", "value", "stderr"), rows)

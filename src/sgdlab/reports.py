"""Deterministic JSON and CSV emission for reports.

This module is the one definition of report bytes.  Same inputs produce
byte-identical files:

- JSON has the layout of ``json.dumps(obj, indent=2, sort_keys=True)``:
  dict keys become ``str(k)`` and are sorted as strings, floats are written
  with ``float.__repr__`` (non-finite ones as null), strings are ASCII-escaped.
- CSV follows RFC 4180 as ``csv.writer`` writes it: a header row, CRLF line
  endings, floats as ``repr`` (non-finite ones and None as empty cells) and
  QUOTE_MINIMAL quoting of string cells.

Each report is built as one string in one pass and written with one write.
"""

from __future__ import annotations

import dataclasses
import math
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .diagnostics import CaptureReport, ConvergenceReport, EnsembleResult
from .engine import Schedule

_CSV_QUOTE = re.compile(r'[,"\r\n]')


def _mapping(obj) -> dict | None:
    """The dict a report object is written as; None for other values."""
    if isinstance(obj, CaptureReport):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                if f.name not in ("empirical", "theoretical_tail")}
    if isinstance(obj, Schedule):
        return {
            "family": obj.family,
            "c": obj.c,
            "beta": obj.beta,
            "k0": obj.k0,
            "p": obj.dim,
            "rotation_seed": obj.rotation_seed,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return None


def _emit(obj, out: list[str], level: int) -> None:
    """Append the JSON text of obj, nested `level` deep, to out."""
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        out.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, out, level)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, level)
    elif isinstance(obj, dict):
        _emit_dict(obj, out, level)
    elif (mapping := _mapping(obj)) is not None:
        _emit_dict(mapping, out, level)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_list(seq, out: list[str], level: int) -> None:
    if not seq:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    out += ("[", inner)
    kinds = set(map(type, seq))
    if kinds == {float} and all(map(math.isfinite, seq)):
        out.append(sep.join(map(float.__repr__, seq)))
    elif kinds == {int}:
        out.append(sep.join(map(int.__repr__, seq)))
    else:
        for i, item in enumerate(seq):
            if i:
                out.append(sep)
            _emit(item, out, level + 1)
    out += ("\n", "  " * level, "]")


def _emit_dict(mapping: dict, out: list[str], level: int) -> None:
    if not mapping:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    out += ("{", inner)
    items = sorted({str(k): v for k, v in mapping.items()}.items())
    for i, (key, value) in enumerate(items):
        if i:
            out += (",", inner)
        out += (encode_basestring_ascii(key), ": ")
        _emit(value, out, level + 1)
    out += ("\n", "  " * level, "}")


def dumps_json(payload) -> str:
    out: list[str] = []
    _emit(payload, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(path, payload) -> None:
    Path(path).write_text(dumps_json(payload), encoding="utf-8")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        text = repr(value) if math.isfinite(value) else ""
    else:
        text = str(value)
    if _CSV_QUOTE.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values) -> list[str]:
    """One CSV column: each value formatted once, as csv.writer would write it."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return list(map(_cell, values))


def _write_csv(path, header, columns: list[list[str]]) -> None:
    """Write a header and the rows of equally long formatted columns."""
    lines = [",".join(_cells(header)), *map(",".join, zip(*columns))]
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")


_CHECKPOINT_STATS = (
    ("f_gap_mean", "f_gap_se"),
    ("f_gap_median", None),
    ("f_gap_q25", None),
    ("f_gap_q75", None),
    ("grad_norm_mean", "grad_norm_se"),
    ("grad_norm_median", None),
    ("grad_norm_q25", None),
    ("grad_norm_q75", None),
    ("grad_norm_sq_mean", "grad_norm_sq_se"),
    ("grad_norm_sq_median", None),
    ("grad_norm_sq_q25", None),
    ("grad_norm_sq_q75", None),
    ("n_alive", None),
)


def write_checkpoints_csv(path, report: ConvergenceReport) -> None:
    """Long-format rows (k, statistic, value, stderr) for plotting tools:
    for each checkpoint, the statistics above and then the gamma moments."""
    n = len(report.ks)
    names = [name for name, _ in _CHECKPOINT_STATS]
    values = [_cells(getattr(report, name)) for name in names]
    errors = [[""] * n if se is None else _cells(getattr(report, se))
              for _, se in _CHECKPOINT_STATS]
    for gamma in sorted(report.gamma_moments or ()):
        names.append(f"f_gap_gamma_moment[{gamma:g}]")
        values.append(_cells(report.gamma_moments[gamma]))
        errors.append([""] * n)
    _write_csv(path, ("k", "statistic", "value", "stderr"), [
        [k for k in _cells(report.ks) for _ in names],
        _cells(names) * n,
        list(chain.from_iterable(zip(*values))),
        list(chain.from_iterable(zip(*errors))),
    ])


def ensemble_report_payload(result: EnsembleResult) -> dict:
    counts: dict[str, int] = {}
    for c in result.classifications:
        counts[c.verdict] = counts.get(c.verdict, 0) + 1
    return {
        "spec": {
            "objective": result.spec.objective,
            "noise": result.spec.noise,
            "schedule": result.spec.schedule,
            "theta0": list(result.spec.theta0),
            "horizon": result.spec.horizon,
            "n_trajectories": result.spec.n_trajectories,
            "master_seed": result.spec.master_seed,
            "record_stride": result.spec.record_stride,
        },
        "ids": result.spec.ids,
        "seeds": result.seeds,
        "n_overflow": result.n_overflow,
        "n_domain_violation": result.n_domain_violation,
        "verdict_counts": counts,
        "classifications": result.classifications,
        "convergence": result.convergence,
        "capture": result.capture,
    }


_RADIAL_COLUMNS = ("radius", "grad_norm_sq", "L_r", "G_value", "ratio")


def write_radial_csv(path, probe) -> None:
    _write_csv(path, _RADIAL_COLUMNS, [
        _cells([getattr(rec, name) for rec in probe.records]) for name in _RADIAL_COLUMNS])


def write_stopping_times_csv(path, all_taus) -> None:
    trajectory: list[int] = []
    tau_index: list[int] = []
    taus: list = []
    for i, st in enumerate(all_taus):
        trajectory += [i] * len(st.taus)
        tau_index += range(len(st.taus))
        taus += st.taus
    _write_csv(path, ("trajectory", "tau_index", "tau"),
               [_cells(trajectory), _cells(tau_index), _cells(taus)])

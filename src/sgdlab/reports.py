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
The columns of a ConvergenceReport appear in both `run` reports.
ensemble_report_payload formats each once, into its JSON texts and CSV cells
together, and freezes it with them as a _Column, a tuple that cannot go
stale; both writers read those strings, with the bytes of formatting each
report on its own.
"""

from __future__ import annotations

import dataclasses
import math
import re
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .checkers import RadialRecord
from .diagnostics import SERIES, STATISTICS, CaptureReport, ConvergenceReport, EnsembleResult
from .engine import Schedule

_CSV_QUOTE = re.compile(r'[,"\r\n]')


class _Column(tuple):
    """A report column frozen as a tuple, with its _texts formatted once."""

    def __new__(cls, values):
        column = super().__new__(cls, values)
        column.texts = _texts(values)
        return column


def _texts(values) -> tuple[list[str], list[str]] | None:
    """(JSON texts, CSV cells) of a list of plain floats or of plain ints.

    One repr per item and one kind and finiteness test per list; a
    non-finite float is null in JSON and an empty cell in CSV.  A _Column
    gives the pair it was frozen with.  None for any other list, whose items
    are formatted one at a time.
    """
    if isinstance(values, _Column):
        return values.texts
    kinds = set(map(type, values))
    if kinds <= {int}:  # plain ints, or no items
        texts = list(map(int.__repr__, values))
        return texts, texts
    if kinds != {float}:
        return None
    texts = list(map(float.__repr__, values))
    finite = list(map(math.isfinite, values))
    if all(finite):
        return texts, texts
    return ([t if f else "null" for t, f in zip(texts, finite)],
            [t if f else "" for t, f in zip(texts, finite)])


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


def _emit_texts(texts: list[str], out: list[str], level: int) -> None:
    """Append a JSON array of items already formatted."""
    if not texts:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    out += ("[", inner, ("," + inner).join(texts), "\n", "  " * level, "]")


def _emit_list(seq, out: list[str], level: int) -> None:
    if (texts := _texts(seq)) is not None:
        _emit_texts(texts[0], out, level)
        return
    inner = "\n" + "  " * (level + 1)
    out += ("[", inner)
    for i, item in enumerate(seq):
        if i:
            out += (",", inner)
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
    texts = _texts(values)
    return list(map(_cell, values)) if texts is None else texts[1]


def _write_csv(path, header, rows) -> None:
    """Write a header and rows of formatted cells."""
    lines = chain([",".join(_cells(header))], map(",".join, rows))
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")


def write_checkpoints_csv(path, report: ConvergenceReport) -> None:
    """Long-format rows (k, statistic, value, stderr) for plotting tools: for
    each checkpoint, each series' statistics but se (the stderr of its mean
    row), n_alive and then the gamma moments."""
    stats = [(f"{series}_{stat}", f"{series}_se" if stat == "mean" else None)
             for series in SERIES for stat in STATISTICS if stat != "se"]
    blank = [""] * len(report.ks)
    names, values, errors = [], [], []
    for name, se in [*stats, ("n_alive", None)]:
        names.append(name)
        values.append(_cells(getattr(report, name)))
        errors.append(blank if se is None else _cells(getattr(report, se)))
    gamma_moments = report.gamma_moments or {}
    for gamma in sorted(gamma_moments):
        names.append(f"f_gap_gamma_moment[{gamma:g}]")
        values.append(_cells(gamma_moments[gamma]))
        errors.append(blank)
    ks = _cells(report.ks)
    _write_csv(path, ("k", "statistic", "value", "stderr"), zip(
        chain.from_iterable(map(repeat, ks, repeat(len(names)))),
        cycle(_cells(names)),
        chain.from_iterable(zip(*values)),
        chain.from_iterable(zip(*errors)),
    ))


def ensemble_report_payload(result: EnsembleResult) -> dict:
    """The ensemble_report.json payload.

    Its "convergence" entry is a copy of result.convergence whose list
    columns and gamma moments are _Columns, formatted once here for both
    `run` reports.  The copy is a snapshot: later changes to
    result.convergence, which is left as it is, do not reach it.
    """
    counts: dict[str, int] = {}
    for c in result.classifications:
        counts[c.verdict] = counts.get(c.verdict, 0) + 1
    conv = result.convergence
    columns = {f.name: _Column(value) for f in dataclasses.fields(conv)
               if isinstance(value := getattr(conv, f.name), list)}
    if isinstance(conv.gamma_moments, dict):
        columns["gamma_moments"] = {
            gamma: _Column(values) for gamma, values in conv.gamma_moments.items()}
    return {
        "spec": result.spec,
        "ids": result.spec.ids,
        "seeds": result.seeds,
        "n_overflow": result.n_overflow,
        "n_domain_violation": result.n_domain_violation,
        "verdict_counts": counts,
        "classifications": result.classifications,
        "convergence": dataclasses.replace(conv, **columns),
        "capture": result.capture,
    }


def write_radial_csv(path, probe) -> None:
    names = [f.name for f in dataclasses.fields(RadialRecord)]
    _write_csv(path, names, zip(*[
        _cells([getattr(rec, name) for rec in probe.records]) for name in names]))


def write_stopping_times_csv(path, all_taus) -> None:
    trajectory: list[int] = []
    tau_index: list[int] = []
    taus: list = []
    for i, st in enumerate(all_taus):
        trajectory += [i] * len(st.taus)
        tau_index += range(len(st.taus))
        taus += st.taus
    _write_csv(path, ("trajectory", "tau_index", "tau"),
               zip(_cells(trajectory), _cells(tau_index), _cells(taus)))

"""Deterministic JSON / CSV serialization of transcripts and tables.

Density matrices carry their layout, and no timestamps or other run-varying
data ever enter the payload, so identical configurations produce
byte-identical files.  :func:`transcript_to_dict` keeps every matrix's
``entries`` as its complex ``ndarray``; :func:`dumps_json` writes each one
as nested ``[re, im]`` pairs, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` writes for those nested lists
(:func:`complex_pairs`), but renders the matrices itself: the rest of the
payload goes through ``json`` with a placeholder in place of each matrix,
and each matrix block is spliced in, its distinct floats formatted once.
CSV numbers are formatted with 12 significant digits and a ``.`` decimal
separator, independent of locale.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Iterable

import numpy as np

from .linalg import DensityMatrix
from .protocols import ProtocolTranscript

SCHEMA = "qswitch-lab/1"
# stands in for each matrix in the text json writes; lengthened while a
# string of the payload equals it
_MARKER = "@qswitch-lab matrix@"


def fmt(x) -> str:
    """12-significant-digit decimal rendering for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def complex_pairs(arr: np.ndarray):
    """Nested lists of [re, im] pairs: the JSON form of a complex array."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def density_to_dict(dm: DensityMatrix) -> dict:
    return {
        "labels": list(dm.layout.labels),
        "dims": list(dm.layout.dims),
        "entries": dm.entries,
    }


def transcript_to_dict(t: ProtocolTranscript, header: dict | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "header": header or {},
        "protocol": t.protocol_id,
        "params": t.params,
        "stages": [{"name": s.name, "state": density_to_dict(s.state)} for s in t.stages],
        "branches": [
            {
                "controller_outcome": b.controller_outcome,
                "probability": b.probability,
                "receiver_outcomes": list(b.receiver_outcomes)
                if b.receiver_outcomes is not None
                else None,
                "decoded": b.decoded,
                "null": b.state is None,
                "metrics": _plain(b.metrics),
            }
            for b in t.branches
        ],
        "metrics": _plain(t.metrics),
    }


def _plain(obj):
    """Recursively convert numpy scalars/arrays into JSON-friendly values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def dumps_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, with every
    2-d ``ndarray`` in the payload written as its :func:`complex_pairs`."""
    marker = _MARKER
    while True:
        matrices = []
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=partial(_take_matrix, matrices, marker))
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(matrices) + 1:
            break
        marker += "@"
    out = [pieces[0]]
    for m, piece in zip(matrices, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out.append(_render_matrix(m, len(line) - len(line.lstrip(" "))))
        out.append(piece)
    out.append("\n")
    return "".join(out)


def _take_matrix(matrices: list, marker: str, obj):
    """``json`` default hook: stand the marker in for a 2-d array."""
    if not (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    matrices.append(obj)
    return marker


def _render_matrix(m: np.ndarray, indent: int) -> str:
    """``json`` text of ``complex_pairs(m)`` as a value on a line indented by
    ``indent`` spaces."""
    # the float bit patterns, re and im interleaved: equal bits, equal text,
    # and -0.0 stays apart from 0.0 (json writes them differently)
    bits = np.ascontiguousarray(m, dtype=complex).view(np.int64).reshape(-1)
    distinct, inverse = np.unique(bits, return_inverse=True)
    # json itself formats the distinct floats (repr, NaN, Infinity)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    pad = ["\n" + " " * (indent + k) for k in (0, 2, 4, 6)]
    open_pair, close_pair = "[" + pad[3], pad[2] + "]"
    # [opening, re, sep, im, sep, re, ..., im, closing]
    parts = np.empty(2 * bits.size + 1, dtype=object)
    parts[0] = "[" + pad[1] + "[" + pad[2] + open_pair
    parts[1::2] = np.array(text, dtype=object)[inverse]
    parts[2::4] = "," + pad[3]
    after_pair = parts[4::4]  # a view
    after_pair[:] = close_pair + "," + pad[2] + open_pair
    after_pair[m.shape[1] - 1::m.shape[1]] = (
        close_pair + pad[1] + "]," + pad[1] + "[" + pad[2] + open_pair)
    after_pair[-1] = close_pair + pad[1] + "]" + pad[0] + "]"
    return "".join(parts.tolist())


def transcript_metric_row(t: ProtocolTranscript) -> tuple[list[str], list[str]]:
    """Flat (header, row) pair of the transcript's scalar metrics."""
    cols = ["protocol"]
    row = [t.protocol_id]
    for k in sorted(t.params):
        cols.append(k)
        row.append(str(t.params[k]))
    for k in sorted(t.metrics):
        v = t.metrics[k]
        if isinstance(v, (bool, int, float, np.floating, np.integer, np.bool_)):
            cols.append(k)
            row.append(fmt(v))
    return cols, row


def sweep_csv_lines(table: dict) -> list[str]:
    """CSV rendering of a necessity-sweep table, deterministic row order."""
    rows = table["rows"]
    d = table["d"]
    cols = [f"lambda_{j}" for j in range(d)]
    extra = [k for k in ("metric", "top_schmidt_gap", "resource_concurrence",
                         "optimal_decode_success", "is_perfect") if k in rows[0]]
    header = ",".join(cols + extra)
    lines = [header]
    for r in rows:
        cells = [fmt(s) for s in r["spectrum"]]
        cells += [fmt(r[k]) for k in extra]
        lines.append(",".join(cells))
    return lines


def write_text(path: str, lines: Iterable[str] | str) -> None:
    if isinstance(lines, str):
        data = lines
    else:
        data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)

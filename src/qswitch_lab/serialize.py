"""Deterministic JSON / CSV serialization of transcripts and tables.

Density matrices carry their layout, and no timestamps or other run-varying
data ever enter the payload, so identical configurations produce
byte-identical files.  :func:`transcript_to_dict` keeps every state as its
``DensityMatrix`` under ``entries``.  :func:`json_chunks` yields, piece by
piece, what ``json.dumps(..., sort_keys=True, indent=2)`` writes when each
matrix (a state or a 2-d ``ndarray``) is given as nested ``[re, im]`` lists:
the rest of the payload goes through ``json`` with a placeholder in place of
each matrix, and each matrix follows one row at a time.  A row of +0.0 is
text built once per matrix; the other rows are formatted, each distinct
float once.  A state is read from its support block: every row outside the
support is the zero row, so its whole matrix is never built.
:func:`write_text` writes the pieces as they come, so the whole text is never
held in memory; :func:`dumps_json` joins them.  CSV numbers are formatted with 12
significant digits and a ``.`` decimal separator, independent of locale.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Iterable, Iterator

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


def density_to_dict(dm: DensityMatrix) -> dict:
    return {
        "labels": list(dm.layout.labels),
        "dims": list(dm.layout.dims),
        "entries": dm,
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


def json_chunks(payload: dict) -> Iterator[str]:
    """The text of :func:`dumps_json`, in pieces: the ``json`` text around
    the matrices, then each matrix one row at a time."""
    marker = _MARKER
    while True:
        matrices = []
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=partial(_take_matrix, matrices, marker))
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(matrices) + 1:
            break
        marker += "@"
    yield pieces[0]
    for m, before, piece in zip(matrices, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _matrix_rows(m, len(line) - len(line.lstrip(" ")))
        yield piece
    yield "\n"


def dumps_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, with every
    2-d ``ndarray`` in the payload written as its nested ``[re, im]`` lists."""
    return "".join(json_chunks(payload))


def _take_matrix(matrices: list, marker: str, obj):
    """``json`` default hook: stand the marker in for a state or a 2-d array."""
    if not (isinstance(obj, DensityMatrix)
            or isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    matrices.append(obj)
    return marker


def _live_rows(m) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Shape of ``m`` (a state or a 2-d array), the rows holding a float other
    than +0.0, and their float bit patterns, re and im interleaved.

    Equal bits give equal text, and -0.0 stays apart from 0.0 (json writes
    them differently).  A state's rows come from its support block.
    """
    if isinstance(m, DensityMatrix) and m.support is not None:
        block = np.ascontiguousarray(m.block).view(np.int64)  # (k, 2k)
        held = block.any(axis=1)
        bits = np.zeros((held.sum(), m.dim, 2), dtype=np.int64)
        bits[:, m.support] = block[held].reshape(bits.shape[0], -1, 2)
        return m.dim, m.dim, m.support[held], bits.reshape(bits.shape[0], -1)
    if isinstance(m, DensityMatrix):
        m = m.block
    bits = np.ascontiguousarray(m, dtype=complex).view(np.int64)
    live = np.flatnonzero(bits.any(axis=1))
    return m.shape[0], m.shape[1], live, bits[live]


def _matrix_rows(m, indent: int) -> Iterator[str]:
    """``json`` text of the nested ``[re, im]`` lists of ``m`` (a state or a
    2-d array) as a value on a line indented by ``indent`` spaces, one row at
    a time."""
    n_rows, n_cols, live, bits = _live_rows(m)
    pad = ["\n" + " " * (indent + k) for k in (0, 2, 4, 6)]
    row_open, row_close = "[" + pad[2] + "[" + pad[3], pad[2] + "]" + pad[1] + "]"
    in_pair, between_pairs = "," + pad[3], pad[2] + "]," + pad[2] + "[" + pad[3]
    zero_row = row_open + between_pairs.join(["0.0" + in_pair + "0.0"] * n_cols) + row_close
    # only the rows holding a float other than +0.0 are formatted
    distinct, inverse = np.unique(bits.reshape(-1), return_inverse=True)
    # json itself formats the distinct floats (repr, NaN, Infinity)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    # per row: [opening, re, sep, im, sep, re, ..., im, closing]
    parts = np.empty((live.size, 4 * n_cols + 1), dtype=object)
    parts[:, 0], parts[:, 2::4], parts[:, 4::4], parts[:, -1] = (
        row_open, in_pair, between_pairs, row_close)
    parts[:, 1::2] = np.array(text, dtype=object)[inverse].reshape(live.size, 2 * n_cols)
    rows = dict(zip(live.tolist(), parts))
    for r in range(n_rows):
        yield ("," if r else "[") + pad[1]
        yield "".join(rows[r].tolist()) if r in rows else zero_row
    yield pad[0] + "]"


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


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as they come.

    The first chunk is taken before the file is opened, so a payload that
    :func:`json_chunks` cannot serialize raises without touching ``path``.
    """
    chunks = iter(chunks)
    first = next(chunks, "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first)
        for chunk in chunks:
            fh.write(chunk)

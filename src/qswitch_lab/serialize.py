"""Deterministic JSON / CSV serialization of transcripts and tables.

Density matrices carry their layout, and no timestamps or other run-varying
data ever enter the payload, so identical configurations produce
byte-identical files.  Metric values go in as the protocols produce them,
plain ``bool``, ``int`` and ``float``, so a flag is written ``true`` or
``false``; a numpy bool or integer raises instead of being converted.
:func:`transcript_to_dict` keeps every state as its ``DensityMatrix`` under
``entries``; :func:`report_to_dict` is the payload of a report with no
states.  :func:`scalar_metrics` selects the metrics that ``run`` prints and
puts in its CSV row.  :func:`json_chunks` yields, as UTF-8 bytes piece by piece, what
``json.dumps(..., sort_keys=True, indent=2)`` writes when each matrix (a
state or a 2-d ``ndarray``) is given as nested ``[re, im]`` lists: the rest
of the payload goes through ``json`` with a placeholder in place of
each matrix, and each matrix follows one row at a time, each row with the
separator before it.  A row of +0.0 is one ``bytes`` object per matrix,
yielded again for each such row; the other rows are formatted a bounded
block at a time, each distinct float of a block once.  A state is read from
its support block: every row outside the support is the zero row, so its
whole matrix is never built.  :func:`write_text` writes the pieces as they
come, in bounded batches of one ``os.writev`` call each, so the whole text is
never held in memory and a run of zero rows goes to the kernel from one
buffer; it writes over an existing file's bytes in place, and then cuts the
file to the length written.  :func:`dumps_json` joins the pieces.  CSV
numbers are formatted with 12 significant digits and a ``.`` decimal
separator, independent of locale, and every CSV text, a ``run`` row or a
sweep table, is written by :func:`csv_text`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .linalg import DensityMatrix
from .protocols import ProtocolTranscript

SCHEMA = "qswitch-lab/1"
# stands in for each matrix in the text json writes; lengthened while a
# string of the payload equals it
_MARKER = "@qswitch-lab matrix@"
# the cells of a matrix formatted at once, so that rendering a dense matrix
# holds a bounded part of its text
_RENDER_CELLS = 1 << 12
# a batch of write_text ends at this many bytes, or at the most buffers one
# writev call takes (16 is the least POSIX allows)
_BATCH_BYTES = 1 << 20
try:
    _BATCH_CHUNKS = max(os.sysconf("SC_IOV_MAX"), 16)
except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
    _BATCH_CHUNKS = 16


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


def report_to_dict(header: dict, metrics: dict) -> dict:
    """The JSON payload of a report that holds no states: header and metrics."""
    return {"schema": SCHEMA, "header": header, "metrics": metrics}


def transcript_to_dict(
    t: ProtocolTranscript, header: dict | None = None, privacy: dict | None = None
) -> dict:
    """The JSON payload of a transcript; ``privacy`` is a
    :func:`~qswitch_lab.protocols.privacy_report`, written with its maxima and
    its Helstrom errors keyed ``"i,j"``."""
    payload = {
        **report_to_dict(header or {}, t.metrics),
        "protocol": t.protocol_id,
        "params": t.params,
        "stages": [{"name": n, "state": density_to_dict(s)} for n, s in t.stages.items()],
        "branches": [
            {
                "controller_outcome": b.controller_outcome,
                "probability": b.probability,
                "receiver_outcomes": b.receiver_outcomes,  # json writes a tuple as a list
                "decoded": b.decoded,
                "null": b.state is None,
                "metrics": b.metrics,
            }
            for b in t.branches
        ],
    }
    if privacy is not None:
        payload["privacy"] = {
            "max_pairwise_trace_distance": privacy["max_pairwise_trace_distance"],
            "max_pairwise_outcome_tv": privacy["max_pairwise_outcome_tv"],
            "helstrom_errors": {f"{i},{j}": v for (i, j), v in privacy["helstrom_errors"].items()},
        }
    return payload


def json_chunks(payload: dict) -> Iterator[bytes]:
    """The text of :func:`dumps_json` as UTF-8 bytes, in pieces: the ``json``
    text around the matrices, then each matrix one row at a time."""
    marker = _MARKER
    while True:
        matrices = []
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=partial(_take_matrix, matrices, marker))
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(matrices) + 1:
            break
        marker += "@"
    yield pieces[0].encode()
    for m, before, piece in zip(matrices, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        indent = len(line) - len(line.lstrip(" "))
        rows = _matrix_rows(m, indent)
        yield b"[" + next(rows)[1:]  # the first row opens the list
        yield from rows
        yield ("\n" + " " * indent + "]" + piece).encode()
    yield b"\n"


def dumps_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, with every
    2-d ``ndarray`` in the payload written as its nested ``[re, im]`` lists."""
    return b"".join(json_chunks(payload)).decode()


def _take_matrix(matrices: list, marker: str, obj):
    """``json`` default hook: stand the marker in for a state or a 2-d array."""
    if not (isinstance(obj, DensityMatrix)
            or isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    matrices.append(obj)
    return marker


def _float_bits(m) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Shape of ``m`` (a state or a 2-d array), and the float bit patterns of
    its entries as an int64 array of shape ``(len(rows), len(cols), 2)``, re
    then im, at the matrix rows ``rows`` and columns ``cols``; every other
    entry is +0.0.

    Equal bits give equal text, and -0.0 stays apart from 0.0 (json writes
    them differently).  A state gives its support block, not copied.
    """
    if isinstance(m, DensityMatrix):
        k = m.support.size
        bits = np.ascontiguousarray(m.block).view(np.int64).reshape(k, k, 2)
        return m.dim, m.dim, m.support, m.support, bits
    a = np.ascontiguousarray(m, dtype=complex)
    n_rows, n_cols = a.shape
    bits = a.view(np.int64).reshape(n_rows, n_cols, 2)
    return n_rows, n_cols, np.arange(n_rows), np.arange(n_cols), bits


def _matrix_rows(m, indent: int) -> Iterator[bytes]:
    """``json`` text of the rows of the nested ``[re, im]`` lists of ``m`` (a
    state or a 2-d array) as a value on a line indented by ``indent`` spaces,
    one row at a time, each led by ``","``."""
    n_rows, n_cols, rows, cols, bits = _float_bits(m)
    pad = ["\n" + " " * (indent + k) for k in (2, 4, 6)]
    lead, row_close = "," + pad[0] + "[" + pad[1] + "[" + pad[2], pad[1] + "]" + pad[0] + "]"
    in_pair, between_pairs = "," + pad[2], pad[1] + "]," + pad[1] + "[" + pad[2]
    zero_row = (lead + between_pairs.join(["0.0" + in_pair + "0.0"] * n_cols)
                + row_close).encode()
    # only the rows holding a float other than +0.0 are formatted, a block of
    # rows at a time
    held = np.flatnonzero(bits.any(axis=(1, 2)))
    step = max(1, _RENDER_CELLS // n_cols)
    done = 0
    for at in (held[lo:lo + step] for lo in range(0, held.size, step)):
        cells = np.zeros((at.size, n_cols, 2), dtype=np.int64)
        cells[:, cols] = bits[at]
        distinct, inverse = np.unique(cells.reshape(-1), return_inverse=True)
        # json itself formats the distinct floats (repr, NaN, Infinity)
        text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
        # per row: [lead, re, sep, im, sep, re, ..., im, closing]
        parts = np.empty((at.size, 4 * n_cols + 1), dtype=object)
        parts[:, 0], parts[:, 2::4], parts[:, 4::4], parts[:, -1] = (
            lead, in_pair, between_pairs, row_close)
        parts[:, 1::2] = np.array(text, dtype=object)[inverse].reshape(at.size, 2 * n_cols)
        for r, row in zip(rows[at].tolist(), parts.tolist()):
            yield from repeat(zero_row, r - done)
            yield "".join(row).encode()
            done = r + 1
    yield from repeat(zero_row, n_rows - done)


def scalar_metrics(metrics: dict) -> dict:
    """The metrics that are one number or flag, by sorted key: what ``run``
    prints and what its CSV row holds."""
    return {k: metrics[k] for k in sorted(metrics) if isinstance(metrics[k], (bool, int, float))}


def metric_row(lead: dict, metrics: dict) -> tuple[list[str], list[str]]:
    """Flat (header, row) pair: the ``lead`` columns in their order, then the
    scalar metrics."""
    scalars = scalar_metrics(metrics)
    return [*lead, *scalars], [*map(str, lead.values()), *map(fmt, scalars.values())]


def transcript_metric_row(t: ProtocolTranscript) -> tuple[list[str], list[str]]:
    """Flat (header, row) pair: the protocol, the sorted params and the
    transcript's scalar metrics."""
    return metric_row({"protocol": t.protocol_id, **dict(sorted(t.params.items()))}, t.metrics)


def sweep_csv_lines(table: dict) -> list[list[str]]:
    """CSV lines of a necessity-sweep table as cells: the header, then one
    line per row in the table's order."""
    rows = table["rows"]
    extra = [k for k in ("metric", "top_schmidt_gap", "resource_concurrence",
                         "optimal_decode_success", "is_perfect") if k in rows[0]]
    header = [f"lambda_{j}" for j in range(table["d"])] + extra
    return [header] + [[fmt(v) for v in (*r["spectrum"], *(r[k] for k in extra))] for r in rows]


def csv_text(lines: Iterable[list[str]]) -> str:
    """CSV text of ``lines`` of cells, each line ending in ``\\n``; a cell
    holding a comma, a quote or a line break is quoted."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(lines)
    return text.getvalue()


def write_text(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes ``chunks`` to ``path`` as they come.

    The first chunk is taken before the file is opened, so a payload that
    :func:`json_chunks` cannot serialize raises without touching ``path``.
    The chunks are gathered into batches, each written by one ``os.writev``
    call, so the many rows of a large matrix are not a system call each, and
    the kernel copies a repeated zero row from its one buffer each time.  A
    batch ends at ``_BATCH_BYTES`` or at the most buffers one ``writev``
    takes, so a matrix whose rows are all formatted is held a bounded part at
    a time.  Where ``os.writev`` does not exist (Windows), each batch is
    joined and written by one ``os.write``.

    An existing regular file is not truncated on opening: the text is written
    over its bytes in place and the file is then cut to the length written.
    On ext4, writing a transcript over its last copy took 3-5 times as long
    when the file was truncated first.  Otherwise this is ``open(path,
    "wb")``: the same inode, so a hard link reads the new text and the file
    keeps its mode; a symlink is followed; a new file gets mode 0o666 less
    the umask; a device or FIFO such as ``/dev/null`` or a piped
    ``/dev/stdout`` is written and never cut.  If a chunk raises part-way,
    the file holds exactly what was written before it.
    """
    chunks = iter(chunks)
    first = next(chunks, b"")
    # O_BINARY (Windows only) keeps the C runtime from rewriting "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        batch, size = [first], len(first)
        try:
            for chunk in chunks:
                batch.append(chunk)
                size += len(chunk)
                if size >= _BATCH_BYTES or len(batch) == _BATCH_CHUNKS:
                    full, batch, size = batch, [], 0
                    _write_all(fd, full)
        finally:
            _write_all(fd, batch)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def _write_all(fd: int, batch: list) -> None:
    """Write the chunks of ``batch`` to ``fd`` in order: after a short
    write, the next call starts at the first byte not yet written."""
    writev = getattr(os, "writev", None)
    i = 0
    while i < len(batch):
        n = writev(fd, batch[i:]) if writev else os.write(fd, b"".join(batch[i:]))
        while i < len(batch) and n >= len(batch[i]):
            n -= len(batch[i])
            i += 1
        if n:
            batch[i] = memoryview(batch[i])[n:]

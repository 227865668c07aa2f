"""Kraus channels: construction, Choi matrices, equality, and the closed
action of the coincidence channel.

A channel is stored as one read-only stack of its Kraus operators, shape
``(n_kraus, out_dim, in_dim)``, and every list is built by array
operations on that stack.  Channel identity is
always decided through the Choi matrix (two Kraus lists describe the same
channel iff their Choi matrices coincide), with the Frobenius distance
reported alongside every verdict.

The Choi matrix uses the unnormalized convention ``C = (id (x) ch)(Omega)``
with ``Omega = sum_{k,l} |kk><ll|``, so ``trace(C) = in_dim`` and the
partial trace of ``C`` over the output factor equals the identity for a
trace-preserving channel.  It shares the state's support-block holder
(``linalg._SupportBlock``) at layout ``(in_dim, out_dim)`` and adds only its
own checks: finite, Hermitian, positive semidefinite, and the output
marginal, read through the partial-trace plan of a state, the identity.
:func:`choi` keeps the indices where some vectorized Kraus operator is
nonzero (d^2 of the d^4 of the coincidence channel K^(1)) and forms the Gram
product there, the checks read that block, and :func:`channels_equal` takes
the Frobenius distance on the union of the two supports, from a channel or
from a Choi matrix built once for several comparisons.  No dense Kraus
action is applied here: the protocols apply the coincidence channel through
:func:`apply_coincidence`, and the tests hold the dense action of a Kraus
list as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    SubsystemLayout,
    _coincidence,
    _min_eigenvalue,
    _on_union,
    _readonly,
    _sum_left,
    _summed,
    _SupportBlock,
    _trace_terms,
    _whole,
)
from .numeric import PSD_FLOOR, STRUCTURAL_TOL, guard_dimension, policy


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators.

    ``kraus`` is taken as any sequence of equal-shape matrices (or a 3-D
    array) and stored as one read-only ``(n_kraus, out_dim, in_dim)`` array;
    the dimensions are read off its shape.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = _readonly(self.kraus)
        except ValueError as exc:  # ragged shapes, among others
            raise ValueError(f"Kraus operators must be matrices of one shape: {exc}") from exc
        if not ops.shape or ops.shape[0] == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise ValueError(f"Kraus operators must be matrices, got a stack of shape {ops.shape}")
        if not all(ops.shape[1:]):
            raise ValueError(f"Kraus operators must have positive dimensions, got {ops.shape[1:]}")
        # sum_i K_i^dag K_i = flat^dag flat, over row chunks of 16 MB: no whole conjugate copy
        flat = ops.reshape(-1, ops.shape[2])
        step = 2**20 // ops.shape[2]
        gram = sum(f.conj().T @ f for f in (flat[i:i + step] for i in range(0, len(flat), step)))
        dev = np.abs(gram - np.eye(ops.shape[2])).max()
        if not dev <= policy.spectral_tol:  # rejects NaN too
            raise ValueError(f"not trace preserving: max |sum K^dag K - I| = {dev:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    def is_square(self) -> bool:
        return self.in_dim == self.out_dim


def erasing_channel(d: int, j: int) -> KrausChannel:
    """Channel mapping every state of a d-level system to |j><j|.

    Kraus set { |j><i| : i = 0..d-1 }.
    """
    if not 0 <= j < d:
        raise ValueError(f"target index {j} out of range for dimension {d}")
    ops = np.zeros((d, d, d), dtype=complex)
    ops[np.arange(d), j, np.arange(d)] = 1.0
    return KrausChannel(ops)


# ---------------------------------------------------------------------------
# Vacuum extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtendedChannel:
    """A channel enlarged with a vacuum sector.

    The realized channel acts on dimension ``d+1`` where the last basis
    index is the vacuum state; its Kraus operators are the base operators
    padded with the vacuum amplitudes on the corner: ``K_i (+) alpha_i``.
    Which extension is chosen matters: controlled-choice combinators built
    from the same base channels but different amplitudes are different
    channels.
    """

    base: KrausChannel
    amplitudes: np.ndarray
    realized: KrausChannel

    @property
    def target_dim(self) -> int:
        return self.base.in_dim


def vacuum_extend(base: KrausChannel, amplitudes) -> ExtendedChannel:
    """Extend a channel with one vacuum level and the given amplitudes.

    ``amplitudes`` must have one entry per Kraus operator and unit Euclidean
    norm: the sum of their squared moduli, added in order, within
    ``spectral_tol`` of 1.  The vacuum level is appended as the last basis
    index and is a fixed point of the realized channel.
    """
    if not base.is_square():
        raise ValueError("only square channels can be vacuum-extended")
    alpha = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if alpha.shape[0] != base.n_kraus:
        raise ValueError(
            f"got {alpha.shape[0]} amplitudes for {base.n_kraus} Kraus operators"
        )
    # decided on the squared norm, the vacuum entry of sum K^dag K that the
    # realized channel's trace check reads, so an accepted vector gives a channel
    sq = _sum_left(alpha.real * alpha.real + alpha.imag * alpha.imag)
    if not abs(sq - 1.0) <= policy.spectral_tol:  # rejects NaN too
        raise ValueError(f"amplitude vector norm is {float(np.sqrt(sq))!r}, not 1")
    d = base.in_dim
    ops = np.zeros((base.n_kraus, d + 1, d + 1), dtype=complex)
    ops[:, :d, :d] = base.kraus
    ops[:, d, d] = alpha
    realized = KrausChannel(ops)
    return ExtendedChannel(base, _readonly(alpha), realized)


# ---------------------------------------------------------------------------
# The coincidence channel's action, Choi, equality
# ---------------------------------------------------------------------------


def apply_coincidence(rho: DensityMatrix, acting_on: Sequence[str]) -> DensityMatrix:
    """Apply the coincidence channel K^(N) to the addressed labels, identity elsewhere.

    ``acting_on`` lists the N >= 1 target labels and then the control label,
    the input factors of ``k_multiline(d, N)`` in order; all of them must
    have the same dimension d >= 2.  The result equals the dense Kraus
    action of ``k_multiline(d, N)`` on these labels (the tests' oracle
    ``kraus_apply``) bit for bit, from the channel's closed action on the
    state's support block instead of its d(d^N - 1) + 1 Kraus operators.
    """
    positions = rho.layout.positions(acting_on)
    acted = tuple(rho.layout.dims[p] for p in positions)
    d = acted[0] if acted else 0
    if len(acted) < 2 or set(acted) != {d} or d < 2:
        raise ValueError(
            f"the coincidence channel acts on at least one target and a control of one "
            f"dimension d >= 2; labels {tuple(acting_on)} have dims {acted}"
        )
    guard_dimension(d ** len(acted), f"{len(acted) - 1}-line coincidence channel")
    return _coincidence(rho, positions)


class ChoiMatrix(_SupportBlock):
    """Unnormalized Choi matrix; factor order is input (x) output, so index
    ``k * out_dim + a`` is input k and output a.

    Held on its support as a state is (``linalg._SupportBlock``), at layout
    ``(in_dim, out_dim)``: ``ChoiMatrix(entries, in_dim, out_dim)`` finds the
    support of a whole matrix as ``DensityMatrix(entries, layout)`` does,
    :func:`choi` that of a Kraus stack.  Its checks (finite, Hermitian,
    positive semidefinite, output marginal the identity) read the block only.
    """

    def __init__(self, entries, in_dim: int, out_dim: int):
        m = np.asarray(entries, dtype=complex)
        n = in_dim * out_dim
        if m.shape != (n, n):
            raise ValueError(f"Choi matrix must be {n}x{n}")
        super().__init__(m, _choi_layout(in_dim, out_dim))

    @property
    def in_dim(self) -> int:
        return self.layout.dims[0]

    @property
    def out_dim(self) -> int:
        return self.layout.dims[1]

    def __post_init__(self):
        block = self.block
        if not np.isfinite(block).all():  # eigvalsh does not converge on them
            raise ValueError("Choi matrix has NaN or infinite entries")
        herm = np.abs(block - block.conj().T).max() if block.size else 0.0
        if not herm <= STRUCTURAL_TOL:  # eigvalsh reads one triangle only
            raise ValueError(f"Choi matrix not Hermitian: max asymmetry {herm:.3e}")
        min_eig = _min_eigenvalue(block, self.dim) if block.size else 0.0
        if not min_eig >= PSD_FLOOR:
            raise ValueError(f"Choi matrix not PSD: min eigenvalue {min_eig:.3e}")
        red = _whole(*_summed(self, _trace_terms(self, [0])), self.in_dim)  # Tr_out C
        dev = np.abs(red - np.eye(self.in_dim)).max()
        if not dev <= policy.spectral_tol:
            raise ValueError(f"output marginal of Choi differs from identity by {dev:.3e}")


def _choi_layout(in_dim: int, out_dim: int) -> SubsystemLayout:
    return SubsystemLayout((in_dim, out_dim), ("in", "out"))


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix sum_i |K_i>><<K_i| with |K>> = sum_k |k> (x) K|k>.

    Entry ``k * out_dim + a`` of |K_i>> is <a|K_i|k>.  The support is every
    index where some |K_i>> is nonzero, and the block the Gram product of the
    vectors cut to it, so the whole matrix is never formed.
    """
    guard_dimension(ch.in_dim * ch.out_dim, "Choi matrix")
    k, a = np.nonzero((ch.kraus != 0).any(axis=0).T)  # ascending k * out_dim + a
    vecs = ch.kraus[:, a, k]  # row i is |K_i>> on the support
    return ChoiMatrix._of_block(_choi_layout(ch.in_dim, ch.out_dim), k * ch.out_dim + a,
                                vecs.T @ vecs.conj())


@dataclass(frozen=True)
class ChannelComparison:
    equal: bool
    distance: float
    tol: float


def channels_equal(a: KrausChannel | ChoiMatrix, b: KrausChannel | ChoiMatrix,
                   tol: float | None = None) -> ChannelComparison:
    """Choi-based equality test; the Frobenius distance is always reported.

    Each side is a channel or its Choi matrix, so a caller that compares one
    channel with several builds its Choi matrix once.  The distance is taken
    on the union of the two supports, outside which both matrices are zero.
    """
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        raise ValueError(
            f"dimension mismatch: ({a.in_dim}->{a.out_dim}) vs ({b.in_dim}->{b.out_dim})"
        )
    tol = policy.spectral_tol if tol is None else float(tol)
    ca, cb = (c if isinstance(c, ChoiMatrix) else choi(c) for c in (a, b))
    # both blocks on the union of their supports (linalg._on_union, which
    # finds it without the numpy.ma import of a plain np.unique or np.union1d)
    on_union = _on_union((ca, cb))[1]
    dist = float(np.linalg.norm(on_union[0] - on_union[1]))
    return ChannelComparison(dist <= tol, dist, tol)

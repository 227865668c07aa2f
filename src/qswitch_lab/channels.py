"""Kraus channels: construction, application, Choi matrices, equality.

A channel is stored as one read-only stack of its Kraus operators, shape
``(n_kraus, out_dim, in_dim)``, and every list is built by array
operations on that stack.  Channel identity is
always decided through the Choi matrix (two Kraus lists describe the same
channel iff their Choi matrices coincide), with the Frobenius distance
reported alongside every verdict.

The Choi matrix uses the unnormalized convention ``C = (id (x) ch)(Omega)``
with ``Omega = sum_{k,l} |kk><ll|``, so ``trace(C) = in_dim`` and the
partial trace of ``C`` over the output factor equals the identity for a
trace-preserving channel.  Its positivity is decided on its support, as for
``linalg.DensityMatrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    _coincidence,
    _conjugate,
    _min_eigenvalue,
    _readonly,
    _trimmed,
)
from .numeric import PSD_FLOOR, guard_dimension, policy


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
        # sum_i K_i^dag K_i = flat^dag flat, over row chunks of 16 MB: no whole conjugate copy
        flat = ops.reshape(-1, ops.shape[2])
        step = 2**20 // max(ops.shape[2], 1)
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


def identity_channel(d: int) -> KrausChannel:
    """The identity channel on d levels; no caller in the package, it stays
    as public channel API, the unit of channel composition."""
    return KrausChannel(np.eye(d, dtype=complex)[None])


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
    norm; the vacuum level is appended as the last basis index and is a
    fixed point of the realized channel.
    """
    if not base.is_square():
        raise ValueError("only square channels can be vacuum-extended")
    alpha = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if alpha.shape[0] != base.n_kraus:
        raise ValueError(
            f"got {alpha.shape[0]} amplitudes for {base.n_kraus} Kraus operators"
        )
    nrm = np.linalg.norm(alpha)
    if not abs(nrm - 1.0) <= policy.spectral_tol:  # rejects NaN too
        raise ValueError(f"amplitude vector norm is {nrm!r}, not 1")
    d = base.in_dim
    ops = np.zeros((base.n_kraus, d + 1, d + 1), dtype=complex)
    ops[:, :d, :d] = base.kraus
    ops[:, d, d] = alpha
    realized = KrausChannel(ops)
    return ExtendedChannel(base, _readonly(alpha), realized)


def remix(ch: KrausChannel, unitary: np.ndarray) -> KrausChannel:
    """Change Kraus representation: K'_m = sum_i U[m, i] K_i (same channel).

    No caller in the package; it stays as public channel API, the freedom
    that Choi-based equality (:func:`channels_equal`) is insensitive to.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (ch.n_kraus, ch.n_kraus):
        raise ValueError("remixing unitary must be square over the Kraus index")
    return KrausChannel(np.tensordot(u, ch.kraus, axes=1))


# ---------------------------------------------------------------------------
# Application, Choi, equality
# ---------------------------------------------------------------------------


def apply(ch: KrausChannel, rho: DensityMatrix, acting_on: Sequence[str]) -> DensityMatrix:
    """Apply the channel to the addressed labels, identity elsewhere.

    ``acting_on`` is ordered: its k-th label corresponds to the k-th tensor
    factor of the channel's input space.  No caller in the package: the
    protocols use :func:`apply_coincidence`.  It stays as the general Kraus
    action of the public API and as the reference that tests compare
    ``apply_coincidence`` with, bit for bit.
    """
    if not ch.is_square():
        raise ValueError("only square channels can be embedded with identity padding")
    positions = rho.layout.positions(acting_on)
    acted_dim = math.prod(rho.layout.dims[p] for p in positions)
    if acted_dim != ch.in_dim:
        raise ValueError(
            f"channel input dimension {ch.in_dim} does not match labels "
            f"{tuple(acting_on)} with total dimension {acted_dim}"
        )
    return _conjugate(rho, positions, ch.kraus)


def apply_coincidence(rho: DensityMatrix, acting_on: Sequence[str]) -> DensityMatrix:
    """Apply the coincidence channel K^(N) to the addressed labels, identity elsewhere.

    ``acting_on`` lists the N >= 1 target labels and then the control label,
    the input factors of ``k_multiline(d, N)`` in order; all of them must
    have the same dimension d >= 2.  The result equals
    ``apply(k_multiline(d, N), rho, acting_on)`` bit for bit, from the
    channel's closed action on the state's support block instead of its
    d(d^N - 1) + 1 Kraus operators.
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


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Unnormalized Choi matrix; factor order is input (x) output."""

    entries: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        n = self.in_dim * self.out_dim
        if m.shape != (n, n):
            raise ValueError(f"Choi matrix must be {n}x{n}")
        if not np.isfinite(m).all():  # eigvalsh does not converge on them
            raise ValueError("Choi matrix has NaN or infinite entries")
        min_eig = _min_eigenvalue(_trimmed(np.arange(n), m, n)[1], n)
        if not min_eig >= PSD_FLOOR:
            raise ValueError(f"Choi matrix not PSD: min eigenvalue {min_eig:.3e}")
        red = np.einsum(
            m.reshape(self.in_dim, self.out_dim, self.in_dim, self.out_dim), [0, 2, 1, 2]
        )
        dev = np.abs(red - np.eye(self.in_dim)).max()
        if not dev <= policy.spectral_tol:
            raise ValueError(f"output marginal of Choi differs from identity by {dev:.3e}")
        object.__setattr__(self, "entries", _readonly(m))


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix sum_i |K_i>><<K_i| with |K>> = sum_k |k> (x) K|k>."""
    guard_dimension(ch.in_dim * ch.out_dim, "Choi matrix")
    vecs = ch.kraus.transpose(0, 2, 1).reshape(ch.n_kraus, -1)  # row i is |K_i>>
    return ChoiMatrix(vecs.T @ vecs.conj(), ch.in_dim, ch.out_dim)


@dataclass(frozen=True)
class ChannelComparison:
    equal: bool
    distance: float
    tol: float


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float | None = None) -> ChannelComparison:
    """Choi-based equality test; the Frobenius distance is always reported."""
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        raise ValueError(
            f"dimension mismatch: ({a.in_dim}->{a.out_dim}) vs ({b.in_dim}->{b.out_dim})"
        )
    tol = policy.spectral_tol if tol is None else float(tol)
    dist = float(np.linalg.norm(choi(a).entries - choi(b).entries))
    return ChannelComparison(dist <= tol, dist, tol)


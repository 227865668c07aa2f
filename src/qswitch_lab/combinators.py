"""Coherently controlled combinations of channels: order and choice.

Two families are built here, plus their closed forms:

* control over the *order* of d channels: a d-level control selects one of
  the d cyclic execution orders.  When the control is |j>, the j-th channel
  acts last.  The result depends only on the branch channels.
* control over the *choice* of d vacuum-extended channels: the control
  selects which channel receives the message while all others receive the
  vacuum.  The result depends on the vacuum amplitudes as well.

For d mutually orthogonal information-erasing channels (the j-th erasing to
|j>) both constructions collapse, after restricting the choice combinator to
the message sector, to one and the same channel with the closed Kraus form
``{P0} + {|j><l| (x) |j><j| : l != j}`` where ``P0 = sum_j |jj><jj|``.  The
brute-force tuple enumerations are kept as oracles against the closed forms;
the N-line oracle is the cyclic switch of the channels' N-fold tensor powers.
The rank-one decomposition of the choice reads each channel's vacuum
interference operator ``F_j = sum_i conj(alpha_i) K_i``.  The closed-form
Kraus list :func:`k_multiline` (``N = 1`` for a single line) is itself an
oracle: the protocols apply the channel through
``channels.apply_coincidence``, which uses its closed action and builds no
Kraus list.  Each operator stack is sized by ``numeric.guard_dimension``
before it is built; a tuple enumeration holds the product of the Kraus counts.

Factor order throughout: target(s) first, control last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ExtendedChannel, KrausChannel, erasing_channel, vacuum_extend
from .linalg import Ket, _product, _readonly
from .numeric import STRUCTURAL_TOL, ZERO_OPERATOR_TOL, guard_dimension, policy


def _drop_zero(ops: np.ndarray) -> np.ndarray:
    """The operators of a stack whose largest entry is above the zero tolerance."""
    return ops[np.abs(ops).max(axis=(1, 2)) > ZERO_OPERATOR_TOL]


def _control_diagonal(counts: list[int], dim: int, block) -> KrausChannel:
    """One operator per tuple of picks, block-diagonal in an n-level control.

    ``block(j)`` is control value j's ``dim`` x ``dim`` block of every
    operator, broadcast over the n tuple axes.  Each block goes into the stack
    and is tested for zeros there, so no temporary exceeds one block.
    """
    n = len(counts)
    ops = np.zeros(tuple(counts) + (dim, n, dim, n), dtype=complex)
    live = np.zeros(tuple(counts), dtype=bool)
    for j in range(n):
        ops[..., :, j, :, j] = blk = block(j)
        live |= np.abs(blk).max(axis=(-2, -1)) > ZERO_OPERATOR_TOL
    ops.setflags(write=False)  # the channel keeps a read-only stack without a copy
    ops = ops.reshape(-1, dim * n, dim * n)
    return KrausChannel(ops if live.all() else ops[live.ravel()])  # no copy when all live


def _on_own_axis(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Put the leading (Kraus) axis of stack c on broadcast axis c of n.

    A broadcast product of the results then forms every tuple of picks, one
    per stack, at once, and the n tuple axes flatten in C order, which is
    itertools.product order.
    """
    n = len(stacks)
    return [
        s.reshape((1,) * c + (s.shape[0],) + (1,) * (n - 1 - c) + s.shape[1:])
        for c, s in enumerate(stacks)
    ]


# ---------------------------------------------------------------------------
# Order and choice by enumeration (oracle path)
# ---------------------------------------------------------------------------


def cyclic_switch(channels: list[KrausChannel]) -> KrausChannel:
    """Control over the d cyclic orders of d channels, by full enumeration.

    Kraus operators are indexed by one Kraus choice per channel; the branch
    for control value j is the operator product over the cyclic order
    starting (and ending) so that channel j acts last.  Zero operators are
    dropped.  The stack holds one operator per tuple, the product of the
    Kraus counts: d erasing channels give d^d operators of dimension d^2,
    admitted up to d = 5 at the default dimension limit.
    """
    if not channels:
        raise ValueError("need at least one channel")
    n, d = len(channels), channels[0].in_dim
    if any(c.in_dim != d or not c.is_square() for c in channels):
        raise ValueError("all channels must be square with equal dimension")
    guard_dimension(d * n, "cyclic switch", math.prod(ch.n_kraus for ch in channels))
    stacks = _on_own_axis([ch.kraus for ch in channels])
    return _control_diagonal(  # channel j acts last on control value j
        [ch.n_kraus for ch in channels], d,
        lambda j: functools.reduce(np.matmul, stacks[j:] + stacks[:j]),
    )


def controlled_choice(channels: list[ExtendedChannel]) -> KrausChannel:
    """Control over which of d extended channels receives the message.

    Kraus operators are indexed by one Kraus choice per channel; the branch
    for control value j applies channel j's (extended) operator weighted by
    the product of the other channels' vacuum amplitudes.  Acts on the
    extended target (d+1) (x) d-level control.  The stack is sized like
    that of :func:`cyclic_switch`.
    """
    if not channels:
        raise ValueError("need at least one channel")
    n, d = len(channels), channels[0].target_dim
    if any(c.target_dim != d for c in channels):
        raise ValueError("all extended channels must share the target dimension")
    dd = d + 1
    guard_dimension(dd * n, "controlled choice", math.prod(c.realized.n_kraus for c in channels))
    stacks = _on_own_axis([c.realized.kraus for c in channels])
    amps = _on_own_axis([c.amplitudes for c in channels])

    def block(j: int) -> np.ndarray:
        # the other channels' vacuum amplitudes, multiplied in channel order (_product)
        coeff = functools.reduce(_product, (amps[l] for l in range(n) if l != j), np.ones((1,) * n))
        return _product(coeff[..., None, None], stacks[j])

    return _control_diagonal([c.realized.n_kraus for c in channels], dd, block)


def coincidence_extensions(d: int) -> list[ExtendedChannel]:
    """The d erasing channels extended with amplitudes alpha_i = <i|l>.

    These are precisely the extensions for which the controlled choice
    coincides with the controlled order on the message sector.
    """
    return [vacuum_extend(erasing_channel(d, l), np.eye(d)[l]) for l in range(d)]


def target_sector_restriction(ch: KrausChannel, d: int) -> KrausChannel:
    """Compress a combinator on an extended target to the message sector.

    Drops the vacuum level of the extended (d+1)-level target, the first
    factor, keeping the control factor whole.  The compression is a channel
    only when ``ch`` maps the message sector into itself, as vacuum
    extensions do; the trace-preservation test of the compressed operators
    checks this.
    """
    control_dim = ch.in_dim // (d + 1)
    if control_dim * (d + 1) != ch.in_dim:
        raise ValueError(f"channel dimension {ch.in_dim} is not (d+1) * control_dim for d={d}")
    # the target's digit of a basis index is the index // control_dim
    keep = np.flatnonzero(np.arange(ch.in_dim) // control_dim < d)
    return KrausChannel(_drop_zero(ch.kraus[:, keep[:, None], keep]))


# ---------------------------------------------------------------------------
# Closed forms as Kraus lists (oracles)
# ---------------------------------------------------------------------------


def k_multiline(d: int, n_lines: int) -> KrausChannel:
    """Coincidence channel for N parallel transmission lines, closed form.

    Acts on N target qudits (x) one d-level control.  Kraus set
    ``{P0^N} + {|j>^N <y| (x) |j><j| : y != (j,...,j)}`` with
    ``P0^N = sum_j (|j><j|)^N (x) |j><j|``.  N = 1 is the single-line
    closed form ``{P0} + {|j><l| (x) |j><j| : l != j}``, with the identity on
    span{|j>|j>}.
    The package applies it, identity on any spectator system, through its
    closed action ``channels.apply_coincidence``.

    The list holds d(d^N - 1) + 1 dense operators of dimension d^(N+1).
    """
    if d < 2 or n_lines < 1:
        raise ValueError("need d >= 2 and at least one line")
    dim = d ** (n_lines + 1)
    n_kraus = d * (d**n_lines - 1) + 1
    guard_dimension(dim, f"{n_lines}-line coincidence channel", n_kraus)
    span = np.arange(d) * ((dim - 1) // (d - 1))  # c_j = |j>^N |j>
    ops = np.zeros((n_kraus, dim, dim), dtype=complex)
    ops[0, span, span] = 1.0  # P0^N
    # then |c_j><y, j| for j ascending, y ascending, skipping y = (j, ..., j)
    j, y = np.divmod(np.arange(d ** (n_lines + 1)), d**n_lines)
    cols = y * d + j
    rest = cols != span[j]
    ops[np.arange(1, n_kraus), span[j[rest]], cols[rest]] = 1.0
    return KrausChannel(ops)


def k_multiline_enumerated(channels: list[KrausChannel], n_lines: int) -> KrausChannel:
    """Brute-force N-line order combinator; oracle for :func:`k_multiline`.

    The cyclic switch of the channels' N-fold tensor powers: channel c acts
    as itself on each of the N lines at once.  In a tensor power, line 0 is
    the most significant factor of the matrix indices and of the Kraus
    index.  A power holds n_kraus^N operators and the switch prod(n_kraus)^N:
    for d erasing channels the default limit admits (3, 2), not (3, 3), (4, 2).
    """
    if not channels or n_lines < 1:
        raise ValueError("need at least one channel and at least one line")
    t = channels[0].in_dim
    if any(c.in_dim != t or not c.is_square() for c in channels):
        raise ValueError("all channels must be square with equal dimension")
    guard_dimension(t**n_lines, "tensor power stack", sum(c.n_kraus**n_lines for c in channels))
    return cyclic_switch([KrausChannel(_tensor_power(c.kraus, n_lines)) for c in channels])


def _tensor_power(ops: np.ndarray, n: int) -> np.ndarray:
    """The Kraus stack of the n-fold tensor power of a channel, by one broadcast.

    Copy c of the stack sits on axes (c, n + c, 2n + c) of 3n, so the product
    holds K_{i_0} (x) ... (x) K_{i_{n-1}} at [i_0..i_{n-1}, a_0..a_{n-1},
    b_0..b_{n-1}], which flattens with line 0 most significant.
    """
    sizes = np.repeat(ops.shape, n)
    copies = [ops.reshape(np.where(np.arange(3 * n) % n == c, sizes, 1)) for c in range(n)]
    return math.prod(copies).reshape(np.asarray(ops.shape) ** n)


# ---------------------------------------------------------------------------
# Structure of the controlled choice: rank-one decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TDecomposition:
    """Rank-one structure of a choice combinator of erasing channels.

    On the message sector the channel splits into a single coherent Kraus
    operator ``t0 = sum_j |j><v_j| (x) |j><j|`` plus classical remainder
    terms weighted by ``I - |v_j><v_j|``, held as one read-only ``(d, d, d)``
    array indexed by j.  ``|j><v_j|`` is the vacuum interference operator of
    channel j.  The vectors ``v_j`` may be sub-normalized; they have unit
    norm exactly when the coherent part alone preserves probability on the
    corresponding control branch.
    """

    t0: np.ndarray
    v: list[Ket]
    remainder_weights: np.ndarray
    d: int

    def reconstructed_channel(self) -> KrausChannel:
        """Kraus form of t0 plus the spectral square roots of the remainders.

        Eigenpair (mu, u) of remainder j above the zero tolerance gives the
        operator sqrt(mu) |jj><u, j|, in order of j and then of mu.
        """
        d = self.d
        vals, vecs = np.linalg.eigh(self.remainder_weights)
        j, k = np.nonzero(vals >= ZERO_OPERATOR_TOL)  # eigenpair k of remainder j
        bras = np.sqrt(vals[j, k])[:, None] * vecs[j, :, k].conj()  # sqrt(mu) <u|
        ops = np.zeros((1 + len(j), d, d, d, d), dtype=complex)
        ops[0] = self.t0.reshape(d, d, d, d)
        ops[np.arange(1, 1 + len(j)), j, j, :, j] = bras
        return KrausChannel(_drop_zero(ops.reshape(-1, d * d, d * d)))


def t_decomposition(channels: list[ExtendedChannel]) -> TDecomposition:
    """Extract the rank-one decomposition of a d-ary choice of erasing channels.

    ``v_j`` is read off the vacuum interference operator of channel j,
    ``F_j = sum_i conj(alpha_i) K_i``, which for a channel erasing onto |j>
    has the form |j><v_j| (Chiribella & Kristjansson, Proc. R. Soc. A 475,
    20180903 (2019)).
    """
    if not channels:
        raise ValueError("need at least one channel")
    d = len(channels)
    if any(c.target_dim != d for c in channels):
        raise ValueError("need d extensions of d-dimensional channels")
    vs = np.zeros((d, d), dtype=complex)
    t0 = np.zeros((d, d, d, d), dtype=complex)
    for j, ext in enumerate(channels):
        _require_erasing_to(ext.base, j)
        f = np.tensordot(ext.amplitudes.conj(), ext.base.kraus, axes=1)  # F_j = |j><v_j|
        if np.linalg.norm(np.delete(f, j, axis=0)) > policy.spectral_tol:
            raise ValueError(f"channel {j} is not an erasing channel onto |{j}>")
        vs[j] = f[j].conj()
        if np.linalg.norm(vs[j]) > 1.0 + STRUCTURAL_TOL:
            raise ValueError(f"extracted vector {j} has norm above 1")
        t0[j, j, :, j] = f[j]  # |j><v_j| (x) |j><j|
    remainders = np.eye(d) - vs[:, :, None] * vs[:, None, :].conj()
    return TDecomposition(
        _readonly(t0.reshape(d * d, d * d)), [Ket.raw(v) for v in vs], _readonly(remainders), d
    )


def _require_erasing_to(ch: KrausChannel, j: int) -> None:
    """Check that a channel sends every input to |j><j| (erasing channel)."""
    flat = ch.kraus.transpose(1, 0, 2).reshape(ch.out_dim, -1)
    img = flat @ flat.conj().T / ch.in_dim  # sum_i K_i (I/d) K_i^dag
    img[j, j] -= 1.0  # minus |j><j|
    if np.abs(img).max() > policy.spectral_tol:
        raise ValueError(f"channel is not information-erasing onto |{j}>")

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
brute-force tuple enumerations are kept (with hard caps) as oracles against
the closed forms.  The closed-form Kraus list :func:`k_multiline` (``N = 1``
for a single line) is itself a capped oracle: the protocols apply the
channel through ``channels.apply_coincidence``, which uses its closed action
and builds no Kraus list.

Factor order throughout: target(s) first, control last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import (
    ExtendedChannel,
    KrausChannel,
    canonicalize_extension,
    erasing_channel,
    restrict_channel,
    vacuum_extend,
)
from .linalg import Ket, Operator
from .numeric import ResourceGuardError, guard_dimension, policy

_ENUM_MAX_CHANNELS = 4          # cap for the d^d tuple enumerations
_MULTILINE_ENUM_MAX = (2, 2)    # (d, N) cap for the d^(dN) enumeration


def _basis_column(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _proj(d: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[j, j] = 1.0
    return m


def _drop_zero(ops: list[np.ndarray]) -> list[np.ndarray]:
    return [k for k in ops if np.abs(k).max() > policy.zero_operator_tol]


# ---------------------------------------------------------------------------
# Order and choice by enumeration (oracle path)
# ---------------------------------------------------------------------------


def cyclic_switch(channels: list[KrausChannel]) -> KrausChannel:
    """Control over the d cyclic orders of d channels, by full enumeration.

    Kraus operators are indexed by one Kraus choice per channel; the branch
    for control value j is the operator product over the cyclic order
    starting (and ending) so that channel j acts last.  Zero operators are
    dropped.  Enumeration grows as the product of Kraus counts, so the
    number of channels is capped at 4; use :func:`k_multiline` beyond.
    """
    n = len(channels)
    if n == 0:
        raise ValueError("need at least one channel")
    if n > _ENUM_MAX_CHANNELS:
        raise ResourceGuardError(
            f"cyclic enumeration is capped at {_ENUM_MAX_CHANNELS} channels, got {n}"
        )
    d = channels[0].in_dim
    if any(c.in_dim != d or not c.is_square() for c in channels):
        raise ValueError("all channels must be square with equal dimension")
    guard_dimension(d * n, "cyclic switch")
    ops = []
    for tup in product(*[range(c.n_kraus) for c in channels]):
        s = np.zeros((d * n, d * n), dtype=complex)
        for j in range(n):
            prod_op = np.eye(d, dtype=complex)
            for k in range(n):
                c = (j + k) % n
                prod_op = prod_op @ channels[c].kraus[tup[c]]
            s += np.kron(prod_op, _proj(n, j))
        ops.append(s)
    return KrausChannel(tuple(_drop_zero(ops)), d * n, d * n)


def controlled_choice(channels: list[ExtendedChannel]) -> KrausChannel:
    """Control over which of d extended channels receives the message.

    Kraus operators are indexed by one Kraus choice per channel; the branch
    for control value j applies channel j's (extended) operator weighted by
    the product of the other channels' vacuum amplitudes.  Acts on the
    extended target (d+1) (x) d-level control.  Enumeration capped like
    :func:`cyclic_switch`.
    """
    n = len(channels)
    if n == 0:
        raise ValueError("need at least one channel")
    if n > _ENUM_MAX_CHANNELS:
        raise ResourceGuardError(
            f"choice enumeration is capped at {_ENUM_MAX_CHANNELS} channels, got {n}"
        )
    d = channels[0].target_dim
    if any(c.target_dim != d for c in channels):
        raise ValueError("all extended channels must share the target dimension")
    dd = d + 1
    guard_dimension(dd * n, "controlled choice")
    ops = []
    for tup in product(*[range(c.realized.n_kraus) for c in channels]):
        t = np.zeros((dd * n, dd * n), dtype=complex)
        for j in range(n):
            coeff = 1.0 + 0.0j
            for l in range(n):
                if l != j:
                    coeff *= channels[l].amplitudes[tup[l]]
            if coeff != 0:
                t += coeff * np.kron(channels[j].realized.kraus[tup[j]], _proj(n, j))
        ops.append(t)
    return KrausChannel(tuple(_drop_zero(ops)), dd * n, dd * n)


def coincidence_extensions(d: int) -> list[ExtendedChannel]:
    """The d erasing channels extended with amplitudes alpha_i = <i|l>.

    These are precisely the extensions for which the controlled choice
    coincides with the controlled order on the message sector.
    """
    exts = []
    for l in range(d):
        alpha = np.zeros(d, dtype=complex)
        alpha[l] = 1.0
        exts.append(vacuum_extend(erasing_channel(d, l), alpha))
    return exts


def target_sector_restriction(ch: KrausChannel, d: int, n_targets: int = 1) -> KrausChannel:
    """Compress a combinator on extended targets to the message sector.

    Drops the vacuum level of each of the ``n_targets`` extended (d+1)-level
    factors, keeping the control factor whole.  Vacuum extensions map the
    message sector into itself, so the compression is a channel.
    """
    control_dim = ch.in_dim // (d + 1) ** n_targets
    if control_dim * (d + 1) ** n_targets != ch.in_dim:
        raise ValueError("channel dimension is not (d+1)^n_targets * control_dim")
    dims = [d + 1] * n_targets + [control_dim]
    keep = []
    for idx in product(*[range(s) for s in dims]):
        if all(idx[t] < d for t in range(n_targets)):
            flat = 0
            for s, i in zip(dims, idx):
                flat = flat * s + i
            keep.append(flat)
    return restrict_channel(ch, keep)


# ---------------------------------------------------------------------------
# Closed forms as Kraus lists (capped oracles)
# ---------------------------------------------------------------------------


def k_multiline(d: int, n_lines: int) -> KrausChannel:
    """Coincidence channel for N parallel transmission lines, closed form.

    Acts on N target qudits (x) one d-level control.  Kraus set
    ``{P0^N} + {|j>^N <y| (x) |j><j| : y != (j,...,j)}`` with
    ``P0^N = sum_j (|j><j|)^N (x) |j><j|``.  N = 1 is the single-line
    closed form ``{P0} + {|j><l| (x) |j><j| : l != j}``, with the identity on
    span{|j>|j>}.
    Identity on any spectator system is the caller's job via
    ``apply(..., acting_on)``.

    The list holds d(d^N - 1) + 1 dense operators, so besides the total
    dimension it is capped by its storage: at most that of one operator at
    the dimension limit (``policy.max_dim``), checked before anything is
    allocated.
    """
    if d < 2 or n_lines < 1:
        raise ValueError("need d >= 2 and at least one line")
    dim = d ** (n_lines + 1)
    guard_dimension(dim, f"{n_lines}-line coincidence channel")
    n_kraus = d * (d**n_lines - 1) + 1
    need, cap = n_kraus * dim * dim * 16, policy.max_dim**2 * 16
    if need > cap:
        raise ResourceGuardError(
            f"{n_lines}-line coincidence channel as a Kraus list needs {n_kraus} "
            f"operators of dimension {dim} ({need / 1e6:.0f} MB), above the storage "
            f"limit of {cap / 1e6:.0f} MB (max_dim {policy.max_dim} squared)"
        )

    def chain(j: int) -> np.ndarray:
        v = np.ones(1, dtype=complex)
        for _ in range(n_lines):
            v = np.kron(v, _basis_column(d, j))
        return v

    p0 = np.zeros((dim, dim), dtype=complex)
    for j in range(d):
        v = np.kron(chain(j), _basis_column(d, j))
        p0 += np.outer(v, v.conj())
    ops = [p0]
    for j in range(d):
        ket = np.kron(chain(j), _basis_column(d, j))
        for y in product(range(d), repeat=n_lines):
            if y == (j,) * n_lines:
                continue
            bra = np.ones(1, dtype=complex)
            for yn in y:
                bra = np.kron(bra, _basis_column(d, yn))
            bra = np.kron(bra, _basis_column(d, j))
            ops.append(np.outer(ket, bra.conj()))
    return KrausChannel(tuple(ops), dim, dim)


def k_multiline_enumerated(channels: list[KrausChannel], n_lines: int) -> KrausChannel:
    """Brute-force N-line order combinator; oracle for :func:`k_multiline`.

    Enumerates one Kraus index per (channel, line) pair, so the tuple space
    has size prod(n_kraus)^N; hard-capped at d = 2, N <= 2.
    """
    d = len(channels)
    if (d, n_lines) > _MULTILINE_ENUM_MAX:
        raise ResourceGuardError(
            f"multiline enumeration capped at (d, N) <= {_MULTILINE_ENUM_MAX}, "
            f"got ({d}, {n_lines})"
        )
    t = channels[0].in_dim
    if any(c.in_dim != t or not c.is_square() for c in channels):
        raise ValueError("all channels must be square with equal dimension")
    dim = t**n_lines * d
    guard_dimension(dim, "multiline enumeration")
    counts = [c.n_kraus for c in channels]
    ops = []
    for tup in product(*[range(counts[l]) for l in range(d) for _ in range(n_lines)]):
        idx = np.array(tup).reshape(d, n_lines)  # idx[l, n]: Kraus pick of channel l on line n
        kop = np.zeros((dim, dim), dtype=complex)
        for j in range(d):
            per_line = []
            for n in range(n_lines):
                prod_op = np.eye(t, dtype=complex)
                for k in range(d):
                    c = (j + k) % d
                    prod_op = prod_op @ channels[c].kraus[idx[c, n]]
                per_line.append(prod_op)
            full = per_line[0]
            for n in range(1, n_lines):
                full = np.kron(full, per_line[n])
            kop += np.kron(full, _proj(d, j))
        ops.append(kop)
    return KrausChannel(tuple(_drop_zero(ops)), dim, dim)


# ---------------------------------------------------------------------------
# Structure of the controlled choice: rank-one decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TDecomposition:
    """Rank-one structure of a choice combinator of erasing channels.

    On the message sector the channel splits into a single coherent Kraus
    operator ``t0 = sum_j |j><v_j| (x) |j><j|`` plus classical remainder
    terms weighted by ``I - |v_j><v_j|``.  The vectors ``v_j`` may be
    sub-normalized; they have unit norm exactly when the coherent part
    alone preserves probability on the corresponding control branch.
    """

    t0: Operator
    v: list[Ket]
    remainder_weights: dict[int, Operator]
    d: int

    def reconstructed_channel(self) -> KrausChannel:
        """Kraus form of t0 plus the spectral square roots of the remainders."""
        d = self.d
        ops = [self.t0.entries]
        for j, w in self.remainder_weights.items():
            vals, vecs = np.linalg.eigh(w.entries)
            ket_jj = np.kron(_basis_column(d, j), _basis_column(d, j))
            for mu, col in zip(vals, vecs.T):
                if mu < policy.zero_operator_tol:
                    continue
                bra = np.kron(col.conj(), _basis_column(d, j).conj())
                ops.append(np.sqrt(mu) * np.outer(ket_jj, bra))
        return KrausChannel(tuple(_drop_zero(ops)), d * d, d * d)


def t_decomposition(channels: list[ExtendedChannel]) -> TDecomposition:
    """Extract the rank-one decomposition of a d-ary choice of erasing channels.

    Each extension is first canonicalized (amplitude vector rotated to
    (1, 0, ..., 0) by a Householder remix); ``v_j`` is then read off the
    first base Kraus operator of channel j, which has the form |j><v_j|.
    """
    d = len(channels)
    if any(c.target_dim != d for c in channels):
        raise ValueError("need d extensions of d-dimensional channels")
    vs: list[Ket] = []
    t0 = np.zeros((d * d, d * d), dtype=complex)
    remainders: dict[int, Operator] = {}
    for j, ext in enumerate(channels):
        _require_erasing_to(ext.base, j)
        canon = canonicalize_extension(ext)
        first = canon.base.kraus[0]
        vj = first.conj().T @ _basis_column(d, j)  # first = |j><v_j|
        if np.linalg.norm(first - np.outer(_basis_column(d, j), vj.conj())) > policy.spectral_tol:
            raise ValueError(f"channel {j} is not an erasing channel onto |{j}>")
        if np.linalg.norm(vj) > 1.0 + policy.structural_tol:
            raise ValueError(f"extracted vector {j} has norm above 1")
        vs.append(Ket.raw(vj))
        t0 += np.kron(np.outer(_basis_column(d, j), vj.conj()), _proj(d, j))
        remainders[j] = Operator(np.eye(d, dtype=complex) - np.outer(vj, vj.conj()))
    return TDecomposition(Operator(t0), vs, remainders, d)


def _require_erasing_to(ch: KrausChannel, j: int) -> None:
    """Check that a channel sends every input to |j><j| (erasing channel)."""
    d = ch.in_dim
    img = sum(k @ (np.eye(d, dtype=complex) / d) @ k.conj().T for k in ch.kraus)
    if np.abs(img - _proj(d, j)).max() > policy.spectral_tol:
        raise ValueError(f"channel is not information-erasing onto |{j}>")

"""Dense complex linear algebra over multi-qudit Hilbert spaces.

Kets are thin immutable wrappers around ``numpy`` arrays; operators and gates
are plain arrays, read-only where cached.  A density matrix is stored as its
support block: the ascending indices whose row or column holds a nonzero
entry, and the matrix on them, at every dimension; ``_SupportBlock`` holds
that form for states and ``channels.ChoiMatrix`` alike, and each kind adds
only its own checks.  Every step maps a support block to a support block,
so a low-rank state in a large space costs its support only; ``_whole``
builds the whole matrix on request, and ``_on_union`` stacks several blocks
on the union of their supports.  A step that only moves entries to other
indices (``_remapped``) is not checked again; this module has no Kronecker
product, as a factor in a basis state joins a state by such a move.
The index plan of a step (where each support index goes) is kept per
dimensions, addressed factors and support, so states that share a support
share one plan; it reads each digit of a support index off its stride, so no
plan tabulates the basis and a layout may have any number of factors.
Composite systems carry a :class:`SubsystemLayout` that assigns a dimension
and a unique role label to every tensor factor; the leftmost factor is the
most significant one (``numpy.kron`` convention).

A ``DensityMatrix`` may also hold a stack: R states of one layout, held on
the union of their supports, its block of shape ``(R, k, k)``; a row is
zero outside its own support, and ``_row`` takes it out on that support
again.  Each step has one kernel, which works on the last two axes of a
block and so takes a stack as it takes a state: the checks decide every
row and raise the first failing row's message.  The index moves, the summed
terms (``_added``), the phase gates (``apply_phases``), the expectations
(``fidelity_with_ket``) and the measurement (``projective_measure``)
multiply entry by entry from real products (``_product``), which round
alike on every CPU, and add in order from +0.0, with no BLAS call; so a row
keeps the bits of its lone run on any union of supports, on any CPU.  A
measurement of a stack gives per outcome one ``MeasurementBranch`` that
holds each row's probability and the stack of the rows' states; a stack's
branch is null in every row or in none.  The live branches of one
measurement are checked as one stack, each outcome's state its row;
``apply_phases`` takes one phase vector, or one per row of a stack; and
``trace_distance`` takes two stacks, one ``eigvalsh`` call for all rows.

Everything here is a pure function of its inputs.  In particular,
measurement is exact branch enumeration: :func:`projective_measure` returns
every outcome with its probability, never a sample, so downstream protocol
runs are deterministic.  The constant kets (:func:`basis_ket`,
:func:`fourier_basis`) are built once per process, :func:`ghz_ket` on each
call (its dense target grows as d^parties), and
:func:`schmidt_coefficients` gives the Schmidt spectrum of a cut without
forming the Schmidt vectors, from a matrix on the ket's nonzero amplitudes
grouped by their digits on each side of the cut.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .numeric import NULL_BRANCH_TOL, PSD_FLOOR, STRUCTURAL_TOL, policy


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only complex array: ``a`` itself if it is one and no
    writeable array shares its memory, else a copy."""
    base = a
    while isinstance(base, np.ndarray) and base.dtype == complex and not base.flags.writeable:
        if base.base is None:
            return a
        base = base.base
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tensor factors of a composite system.

    ``dims[i]`` is the dimension of the i-th factor and ``labels[i]`` its
    role tag (e.g. ``"A"``, ``"A'"``, ``"B1"``, ``"C"``).  Labels must be
    unique so that operations can be addressed by name.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in dims):
            raise ValueError(f"subsystem dimensions must be integers, got {dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must have equal length")
        if any(d <= 0 for d in self.dims):
            raise ValueError("subsystem dimensions must be positive")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in layout: {self.labels}")

    @functools.cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}; layout has {self.labels}") from None

    def positions(self, labels: Iterable[str]) -> list[int]:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"repeated labels in {labels}")
        return [self.index_of(lbl) for lbl in labels]

    def keep(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels, in original relative order."""
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise ValueError(f"unknown labels {sorted(unknown)}; layout has {self.labels}")
        pairs = [(d, l) for d, l in zip(self.dims, self.labels) if l in wanted]
        return SubsystemLayout(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def relabel(self, mapping: dict[str, str]) -> "SubsystemLayout":
        return SubsystemLayout(self.dims, tuple(mapping.get(l, l) for l in self.labels))


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure-state amplitude vector.

    The default constructor insists on unit Euclidean norm (within the
    structural tolerance); use :meth:`normalized` to rescale an arbitrary
    vector or :meth:`raw` when a sub-normalized vector is genuinely meant.
    """

    amplitudes: np.ndarray
    _checked: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if self._checked:
            _check_norms(amps)

    @classmethod
    def normalized(cls, amplitudes) -> "Ket":
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        nrm = _norms(a)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(a / nrm)

    @classmethod
    def raw(cls, amplitudes) -> "Ket":
        return cls(np.asarray(amplitudes, dtype=complex), _checked=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        """|psi><psi|, its block the outer product of the nonzero amplitudes."""
        if layout is None:
            layout = SubsystemLayout((self.dim,), ("A",))
        return _densities(self.amplitudes, layout)


def _norms(a: np.ndarray):
    """The Euclidean norm over the last axis of ``a``: its squared moduli
    added in order (``_sum_left``), with no BLAS call, so the same bits, and
    the same verdict at a tolerance, on every CPU; an empty axis has norm 0."""
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1])
    return np.sqrt(_sum_left(a.real * a.real + a.imag * a.imag))


def _check_norms(amplitudes: np.ndarray) -> None:
    """Check that a ket's amplitudes, or every row of a stack of them, have
    unit Euclidean norm (``_norms``) within the structural tolerance; the
    first row that fails raises the message its own ``Ket`` raises."""
    norms = _norms(amplitudes)
    bad = ~(abs(norms - 1.0) <= STRUCTURAL_TOL)  # rejects NaN too
    if bad.any():
        raise ValueError(f"ket norm is {float(norms[bad][0])!r}, not 1; use Ket.normalized "
                         "or Ket.raw for explicit unnormalized construction")


def _densities(amplitudes: np.ndarray, layout: SubsystemLayout) -> "DensityMatrix":
    """|psi><psi| of a ket's amplitudes, or the stack of them over rows of
    amplitudes, on the indices where some row is nonzero."""
    dim = amplitudes.shape[-1]
    _check_dim(dim, layout)
    support = np.flatnonzero((amplitudes != 0).reshape(-1, dim).any(axis=0))
    v = amplitudes[..., support]
    outer = _product(v[..., :, None], v.conj()[..., None, :])  # no fused multiply-add
    return DensityMatrix._of_block(layout, support, outer)


def _trimmed(support: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support of an n x n matrix given by its block on ``support``, and
    the block on it; ``_trimmed(np.arange(n), m)`` for a whole matrix ``m``.

    ``support`` holds ascending indices and may be larger than the support;
    every entry outside it is zero.  The support is every index whose row or
    column holds an exactly nonzero entry; a NaN or infinite entry is
    nonzero, so it stays in.  A stack of blocks keeps every index that some
    row holds.
    """
    nz = block != 0
    held = (nz.any(axis=-1) | nz.any(axis=-2)).reshape(-1, support.size)
    keep = np.flatnonzero(held.any(axis=0))
    if keep.size < support.size:
        support, block = support[keep], block[..., keep[:, None], keep]
    return support, block


def _whole(support: np.ndarray, block: np.ndarray, n: int) -> np.ndarray:
    """The whole n x n matrix (of each row of a stack) of a block held on
    ``support``, read-only; the block itself when it is already whole."""
    if support.size == n:
        return block
    m = np.zeros(block.shape[:-2] + (n, n), dtype=complex)
    m[..., support[:, None], support] = block
    m.setflags(write=False)
    return m


def _on_union(held: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The ascending union of several ``_SupportBlock``s' supports (states,
    stacks or Choi matrices), and each block placed on it, stacked; blocks of
    one support are stacked as they are.  With ``return_inverse``, numpy 2's
    ``unique`` does not import ``numpy.ma``."""
    if len({h.support.tobytes() for h in held}) == 1:
        return held[0].support, np.stack([h.block for h in held])
    support, place = np.unique(np.concatenate([h.support for h in held]), return_inverse=True)
    at = np.split(place, np.cumsum([h.support.size for h in held[:-1]]))
    return support, np.stack([_whole(p, h.block, support.size) for p, h in zip(at, held)])


def _min_eigenvalue(block: np.ndarray, n: int):
    """Smallest eigenvalue of an n x n matrix, from its support block (of
    each matrix of a stack of blocks).

    The rows and columns outside the block are exactly zero and add only zero
    eigenvalues, so the minimum is that of the block, capped at 0 when the
    block is smaller than the matrix.
    """
    low = np.linalg.eigvalsh(block)[..., 0]
    return np.minimum(low, 0.0) if block.shape[-1] < n else low


def _every(verdicts) -> bool:
    """Whether every verdict of a stack holds; a state's one verdict is read
    as it is, which is faster than a reduction."""
    return bool(verdicts.all() if verdicts.ndim else verdicts)


def _check(block: np.ndarray, n: int) -> None:
    """Decide a block, or every row of a stack of blocks: Hermitian, unit
    trace, positive semidefinite.  A failing stack raises the message of its
    first failing row, checked on its own support.

    Each check is written to fail on NaN, which compares False both ways; a
    NaN or infinite entry fails the residual, and past it every entry is
    finite.  An empty support (the zero matrix) fails on the trace.
    """
    herm = np.abs(block - block.conj().swapaxes(-1, -2)).max() if block.size else 0.0
    if herm <= STRUCTURAL_TOL and block.size:
        ok = ((abs(block.trace(axis1=-2, axis2=-1) - 1.0) <= STRUCTURAL_TOL)
              & (_min_eigenvalue(block, n) >= PSD_FLOOR))
        if _every(ok):
            return
    if block.ndim > 2:
        for row in block:
            _check(_trimmed(np.arange(row.shape[-1]), row)[1], n)
    if not herm <= STRUCTURAL_TOL:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = block.trace()
    if not abs(tr - 1.0) <= STRUCTURAL_TOL:
        raise ValueError(f"trace is {tr!r}, not 1")
    raise ValueError(f"not positive semidefinite: min eigenvalue {_min_eigenvalue(block, n):.3e}")


def _check_dim(n: int, layout: SubsystemLayout) -> None:
    if n != layout.total_dim:
        raise ValueError(
            f"matrix dimension {n} does not match layout "
            f"dims {layout.dims} (product {layout.total_dim})"
        )


@dataclass(frozen=True, init=False, eq=False)
class _SupportBlock:
    """A matrix with a layout, held as its ``support`` (the ascending indices
    whose row or column holds an exactly nonzero entry) and its ``block``, the
    read-only matrix on them; ``entries``, the whole matrix, is built only on
    request.  Each kind (``DensityMatrix``, ``channels.ChoiMatrix``) adds its
    own ``__post_init__`` check, which reads the block only and is exact: the
    rows and columns left out are zero and add only zero eigenvalues.
    """

    layout: SubsystemLayout
    support: np.ndarray
    block: np.ndarray

    def __init__(self, m: np.ndarray, layout: SubsystemLayout):
        """Hold the whole complex matrix ``m``, its shape checked, on its support."""
        support, block = _trimmed(np.arange(m.shape[0]), m)
        self._set(layout, support, _readonly(block) if block is m else block)
        self.__post_init__()

    @classmethod
    def _of_block(cls, layout: SubsystemLayout, support, block: np.ndarray):
        """The checked matrix with ``block`` on ``support`` (as for ``_trimmed``),
        or the checked stack with a block of shape ``(*lead, k, k)``, on the
        union of its rows' supports."""
        out = cls._unchecked(layout, *_trimmed(support, block))
        out.__post_init__()
        return out

    @classmethod
    def _unchecked(cls, layout: SubsystemLayout, support, block: np.ndarray):
        """The matrix with exactly this support and block, not checked."""
        out = object.__new__(cls)
        out._set(layout, support, block)
        return out

    def _set(self, layout, support, block) -> None:
        support.setflags(write=False)
        block.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def entries(self) -> np.ndarray:
        """The whole matrix (of each row of a stack), read-only; built on
        each request unless the block is the whole matrix."""
        return _whole(self.support, self.block, self.dim)


class DensityMatrix(_SupportBlock):
    """Hermitian, unit-trace, positive semidefinite matrix with a layout,
    held on its support; ``DensityMatrix(entries, layout)`` finds the
    support of a whole matrix.  The steps of this module also take a stack
    of states of one layout, held on the union of their supports with a
    block of shape ``(R, k, k)``; ``_row`` takes a row out on its own
    support, and the public constructor builds states only.
    """

    def __init__(self, entries, layout: SubsystemLayout):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_dim(m.shape[0], layout)
        super().__init__(m, layout)

    def _row(self, k) -> "DensityMatrix":
        """Row k of a stack, or the stack of the rows in an index array, on its
        own support (as ``_trimmed`` finds it); not checked again."""
        return DensityMatrix._unchecked(self.layout, *_trimmed(self.support, self.block[k]))

    def __post_init__(self):
        _check(self.block, self.dim)

    def purity(self) -> float:
        # sum of |rho_ij|^2, which is Tr rho^2 for Hermitian rho; the squared
        # moduli added in row-major order, with no BLAS call: the same bits on
        # every CPU, so the verdict of is_pure does not move with the kernel
        b = self.block.reshape(-1)
        return float(_sum_left(b.real * b.real + b.imag * b.imag))

    def is_pure(self, tol: float | None = None) -> bool:
        tol = policy.spectral_tol if tol is None else tol
        return self.purity() >= 1.0 - tol

    def to_ket(self, tol: float | None = None) -> Ket:
        """Extract the state vector of a pure density matrix (phase arbitrary).

        The ket is the top eigenvector of the support block, embedded in zeros.
        """
        tol = policy.spectral_tol if tol is None else tol
        if not self.is_pure(tol):
            raise ValueError(f"state is mixed (purity {self.purity():.6f}); no ket exists")
        top = np.linalg.eigh(self.block)[1][:, -1]
        v = np.zeros(self.dim, dtype=complex)
        v[self.support] = top
        return Ket.normalized(v)

    def relabel(self, mapping: dict[str, str]) -> "DensityMatrix":
        """The same state under renamed labels, sharing the support block."""
        return DensityMatrix._unchecked(self.layout.relabel(mapping), self.support, self.block)


def _per_layout(plan):
    """Call ``plan(dims, positions, support)`` as ``plan(rho, positions)``.

    A plan depends only on the dimensions, the positions and the support, so
    it is kept, read-only, for the most recent of them: the many small states
    of a sweep share their plans, and so do the messages of a private dit
    (one support) and the branches of a GHZ run.
    """

    @functools.lru_cache(maxsize=64)
    def kept(dims, positions, support):
        out = plan(dims, positions, np.frombuffer(support, dtype=np.intp))
        for a in out:
            a.setflags(write=False)
        return out

    def planned(rho: DensityMatrix, positions: Sequence[int]):
        support = np.asarray(rho.support, dtype=np.intp).tobytes()
        return kept(rho.layout.dims, tuple(positions), support)

    planned.cache_info, planned.cache_clear = kept.cache_info, kept.cache_clear
    return planned


def _split_plan(dims, positions, support) -> tuple[np.ndarray, np.ndarray]:
    """For every support index: its index over the factors at ``positions``
    (in that order, first most significant) and the rest of it, the full
    index with those factors' digits 0.  Each digit is read off its stride,
    so no table spans the basis and any number of factors is taken."""
    acted = np.zeros_like(support)
    rest = support.copy()
    for p in positions:
        stride = math.prod(dims[p + 1:])
        digit = support // stride % dims[p]
        acted = acted * dims[p] + digit
        rest -= digit * stride
    return acted, rest


_split = _per_layout(_split_plan)


def _remapped(rho: DensityMatrix, layout: SubsystemLayout, indices: np.ndarray) -> DensityMatrix:
    """``rho`` with the entries of support index k moved to ``indices[k]``.

    Moving entries changes no verdict, so the result is not checked again.
    """
    order = np.argsort(indices)
    return DensityMatrix._unchecked(layout, indices[order], rho.block[..., order[:, None], order])


def _stacked(states: Sequence[DensityMatrix]) -> DensityMatrix:
    """The stack of checked states (or stacks) of one layout, one per row, on
    the union of their supports; not checked again.

    Each row holds its state's entries, so a step that reads ``entries``
    reads each state as it is; states of one support keep their blocks as
    they are.
    """
    return DensityMatrix._unchecked(states[0].layout, *_on_union(states))


# ---------------------------------------------------------------------------
# Standard vectors and bases
# ---------------------------------------------------------------------------

# The cached builders depend only on their integer arguments and return
# immutable kets (frozen, read-only amplitudes), so each is built once;
# ghz_ket is not kept, as its dense target grows as d^parties.


@functools.cache
def basis_ket(dim: int, index: int) -> Ket:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return Ket(v)


def fourier_ket(d: int, m: int) -> Ket:
    """m-th Fourier vector (1/sqrt(d)) sum_j exp(+2*pi*i*j*m/d) |j>.

    The exponent sign is fixed to ``+``; all decoding conventions in this
    package are derived from it.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    if not 0 <= m < d:
        raise ValueError(f"Fourier index {m} out of range for dimension {d}")
    j = np.arange(d)
    return Ket(np.exp(2j * np.pi * j * m / d) / np.sqrt(d))


@functools.cache
def fourier_basis(d: int) -> tuple[Ket, ...]:
    return tuple(fourier_ket(d, m) for m in range(d))


def ghz_ket(d: int, parties: int, phase_index: int = 0) -> Ket:
    """(1/sqrt(d)) sum_j exp(2*pi*i*j*x/d) |j>^(x parties).

    ``parties=2`` gives the maximally entangled two-qudit states; the
    ``phase_index`` selects the member of the phased family (0 is the
    canonical one).
    """
    if d < 2 or parties < 1:
        raise ValueError("need d >= 2 and at least one party")
    v = np.zeros(d**parties, dtype=complex)
    stride = (d**parties - 1) // (d - 1)  # index of |j,j,...,j> is j * stride
    v[::stride] = np.exp(1j * (2 * np.pi * np.arange(d) * phase_index / d)) / np.sqrt(d)
    return Ket(v)


# ---------------------------------------------------------------------------
# Partial trace, embedding, measurement
# ---------------------------------------------------------------------------


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on the kept labels, in their original relative order."""
    keep = list(keep)
    if not keep:
        raise ValueError("must keep at least one subsystem")
    keep_pos = sorted(rho.layout.positions(keep))
    support, reduced = _summed(rho, _trace_terms(rho, keep_pos))
    new_layout = rho.layout.keep([rho.layout.labels[p] for p in keep_pos])
    return DensityMatrix._of_block(new_layout, support, reduced)


def _summed(rho: DensityMatrix, terms) -> tuple[np.ndarray, np.ndarray]:
    """The output support of a plan of terms and the block they sum to.

    ``terms`` is the output support and each term as its flat place in the
    output block (row * k + col, k the support size) and its place in the
    input block (rows, cols), in the order the terms are added.  Each output
    entry starts at +0.0; a term between indices outside the support is zero
    and left out, which changes no sum.
    """
    support, out, src_rows, src_cols = terms
    block = _added(rho.block[..., src_rows, src_cols], out, support.size ** 2)
    return support, block.reshape(block.shape[:-1] + (support.size, support.size))


def _added(terms: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """Each term on the last axis of ``terms`` added into its cell of a
    ``(..., size)`` array that starts at +0.0, in order, repeats too (one
    ``np.add.at`` over a flat index, faster than an ``Ellipsis`` one)."""
    lead = terms.shape[:-1]
    rows = math.prod(lead)
    out = np.zeros(rows * size, dtype=terms.dtype)
    np.add.at(out, (np.arange(rows)[:, None] * size + cells).reshape(-1), terms.reshape(-1))
    return out.reshape(lead + (size,))


def _paired(key: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """The terms (as ``_summed`` takes them) that map each support index to
    ``out``: every pair (i, j) with ``key[i] == key[j]``, by ascending key
    and then row-major, into output cell (out[i], out[j])."""
    out_support, row = np.unique(out, return_inverse=True)
    order = np.argsort(key, kind="stable")
    i, j = np.nonzero(key[order, None] == key[order])
    i, j = order[i], order[j]
    return out_support, row[i] * out_support.size + row[j], i, j


def _trace_plan(dims, keep_pos, support) -> tuple[np.ndarray, ...]:
    """The terms of the partial trace onto ``keep_pos``: each (kept, kept')
    entry sums the block over the traced-out index, ascending, as the sum
    over the whole matrix runs."""
    kept = _split_plan(dims, keep_pos, support)[0]
    traced = _split_plan(dims, tuple(p for p in range(len(dims)) if p not in keep_pos), support)[0]
    return _paired(traced, kept)


_trace_terms = _per_layout(_trace_plan)


def _coincidence_plan(dims, positions, support) -> tuple[np.ndarray, ...]:
    """The terms of ``_coincidence``: the span entries, then the collapse
    terms by ascending acted index, the order of the Kraus list."""
    d = dims[positions[0]]
    acted, rest = _split_plan(dims, positions, support)
    j = acted % d  # the control digit
    span = j * ((d ** len(positions) - 1) // (d - 1))  # c_j = |j>^N|j>
    # every digit of c_j is j, so its full-index offset is j times the strides' sum
    offset = j * sum(math.prod(dims[p + 1:]) for p in positions)
    # the span entries pair with each other under one key below every acted index
    return _paired(np.where(acted == span, -1, acted), rest + offset)


_coincidence_terms = _per_layout(_coincidence_plan)


def _coincidence(rho: DensityMatrix, positions: Sequence[int]) -> DensityMatrix:
    """The N-line coincidence channel on `positions`, identity elsewhere.

    ``positions`` addresses N targets and then the control, all of one
    dimension d >= 2.  The output is P rho P on span{c_j = |j>^N|j>} plus,
    for each control value j and every other acted basis state a whose
    control digit is j, the block <a| rho |a> on the other subsystems moved
    onto |c_j><c_j|.  Each output entry takes its terms in the order of the
    Kraus list of ``k_multiline`` (the projector, then a ascending), so the
    result equals that list's dense Kraus action (the tests' oracle
    ``kraus_apply``) bit for bit.
    """
    return DensityMatrix._of_block(rho.layout, *_summed(rho, _coincidence_terms(rho, positions)))


def _broadcasts(vectors: tuple, lead: tuple) -> bool:
    """Whether a lead of phase vectors broadcasts to a stack's."""
    return len(vectors) <= len(lead) and all(v in (1, r) for v, r in zip(vectors[::-1], lead[::-1]))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b of two complex arrays (broadcast), from real products and sums.

    numpy's complex multiply fuses one product into its sum where its SIMD
    dispatch has FMA and not below it; separate real products and sums round
    alike on every CPU.
    """
    re = a.real * b.real
    out = np.empty(re.shape, dtype=complex)
    np.subtract(re, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def apply_phases(rho: DensityMatrix, phases, label: str) -> DensityMatrix:
    """Conjugate a state, or a stack, by the diagonal gate diag(g) on one
    labeled factor, identity elsewhere: up to rounding, the dense Kraus
    action of ``np.diag(g)`` (the tests' oracle ``kraus_apply``).

    ``phases`` is one vector g, or one per row: a ``(*lead, m)`` stack whose
    lead broadcasts to the stack's.  Every phase must have modulus 1 within
    ``spectral_tol``.  Block entry (s, t) becomes rho_st * (g[a_s] *
    conj(g[a_t])), a_s the factor's digit of support index s (``_split``),
    with no BLAS call: products of the entry alone (``_product``), so a row
    of a stack keeps the bits of its lone run, and an entry that is exactly
    zero stays +0.0.
    """
    g = np.asarray(phases, dtype=complex)
    pos = rho.layout.index_of(label)
    m = rho.layout.dims[pos]
    lead = rho.block.shape[:-2]
    if not g.ndim or g.shape[-1] != m or not _broadcasts(g.shape[:-1], lead):
        raise ValueError(
            f"phases of shape {g.shape} cannot act on label {label!r} of dimension {m}"
            + (f" of a stack of shape {lead}" if lead else "")
        )
    if not (np.abs(np.abs(g) - 1.0) <= policy.spectral_tol).all():  # NaN too
        raise ValueError("phases are not of modulus 1 within tolerance")
    at = g[..., _split(rho, [pos])[0]]
    block = _product(rho.block, _product(at[..., :, None], at.conj()[..., None, :]))
    np.add(block, 0.0, out=block)  # a -0.0 product reads +0.0, as a sum from +0.0 does
    return DensityMatrix._of_block(rho.layout, rho.support, block)


def _measure_plan(dims, positions, support) -> tuple[np.ndarray, ...]:
    """The terms of measuring the factor at ``positions``: the output support
    (each support index with the factor's digit dropped, ascending), each
    support index's digit of the factor (``_split_plan``), and the flat
    output cell (row * k + col, k the output support size) of every block
    entry, in row-major order."""
    [pos] = positions
    acted, rest = _split_plan(dims, positions, support)
    low = math.prod(dims[pos + 1:])
    out_support, row = np.unique(rest // (dims[pos] * low) * low + rest % low, return_inverse=True)
    return out_support, acted, (row[:, None] * out_support.size + row).reshape(-1)


_measure_terms = _per_layout(_measure_plan)


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    """One outcome of a measurement: of a state, its probability (a float)
    and post-measurement state; of a stack, each row's probability (an
    array) and the stack of the rows' states.  ``state`` is None for a null
    (zero-probability) branch."""

    outcome: int
    probability: float | np.ndarray
    state: DensityMatrix | None


def projective_measure(
    rho: DensityMatrix, basis: Sequence[Ket], subsystem: str
) -> list[MeasurementBranch]:
    """Measure one labeled factor of a state, or of every row of a stack, in
    the given orthonormal basis.

    Returns every branch: ``(outcome index, probability, post-measurement
    state on the remaining labels)``.  Each row's probabilities sum to one;
    a branch below the null threshold is kept in the list with probability
    0.0 and a ``None`` state so that transcripts stay complete.  A stack's
    branch is null in every row or in none; one null in some rows only
    raises.  All branch blocks come from one pass over the support entries,
    with no BLAS call: entry (s, t) adds ``_product(rho_st, conj(v_k[a_s])
    v_k[a_t])`` into the entry of the other digits of s and t in the block
    of outcome k, a_s the measured digit of s (``_measure_terms``); each
    block entry adds its terms in row-major order from +0.0 (``_added``),
    and each probability is its block's diagonal added left to right from
    +0.0 (``_sum_left``).  So a row of a stack keeps the bits of its lone run
    on any union of supports.  The live branches are checked as one stack,
    and each outcome's state is its row of it (``_row``).
    """
    pos = rho.layout.index_of(subsystem)
    s = rho.layout.dims[pos]
    if len(basis) != s:
        raise ValueError(f"basis has {len(basis)} vectors but subsystem {subsystem} has dimension {s}")
    if rho.layout.n_subsystems < 2:
        raise ValueError("measurement removes the measured factor; need at least two subsystems")
    mat = np.column_stack([k.amplitudes for k in basis])
    gram = mat.conj().T @ mat
    dev = np.abs(gram - np.eye(s)).max()
    if not dev <= policy.spectral_tol:  # NaN and inf too
        raise ValueError(f"measurement basis is not orthonormal: max Gram deviation {dev:.3e}")

    support, acted, cells = _measure_terms(rho, [pos])
    lead = rho.block.shape[:-2]
    v = mat.T[:, acted]  # each outcome's amplitude at each support index's digit
    w = _product(v.conj()[:, :, None], v[:, None, :]).reshape((s,) + (1,) * len(lead) + (-1,))
    terms = _product(rho.block.reshape(lead + (-1,)), w)  # (outcome, *lead, s t)
    blocks = _added(terms, cells, support.size ** 2).reshape(terms.shape[:-1] + (support.size,) * 2)
    p = _sum_left(blocks.real.diagonal(axis1=-2, axis2=-1))  # (outcome, *lead)

    null = (p < NULL_BRANCH_TOL).reshape(s, -1)
    some = null.any(axis=1) & ~null.all(axis=1)
    if some.any():
        raise ValueError(f"branch {np.flatnonzero(some)[0]} is null in some rows of the stack only")
    p[null[:, 0]] = 0.0
    live = np.flatnonzero(~null[:, 0])
    remaining = [l for i, l in enumerate(rho.layout.labels) if i != pos]
    states = [None] * s
    if live.size:
        stack = DensityMatrix._of_block(rho.layout.keep(remaining), support,
                                        blocks[live] / p[live][..., None, None])
        for i, k in enumerate(live.tolist()):
            states[k] = stack._row(i)
    total = _sum_left(np.moveaxis(p, 0, -1))  # left to right, as the branches come
    summed = abs(total - 1.0) <= policy.spectral_tol  # NaN too
    if not _every(summed):
        raise ValueError(f"branch probabilities sum to {float(total[~summed][0])!r}, not 1")
    probabilities = list(p) if lead else p.tolist()
    return [MeasurementBranch(k, *branch) for k, branch in enumerate(zip(probabilities, states))]


# ---------------------------------------------------------------------------
# Schmidt coefficients and distances
# ---------------------------------------------------------------------------


def schmidt_coefficients(
    psi: Ket, layout: SubsystemLayout, left_labels: Sequence[str]
) -> np.ndarray:
    """Schmidt coefficients of a pure state across the given bipartition.

    ``left_labels`` picks one side of the cut (in layout order); the other
    side is the complement.  The coefficients come back as a read-only
    array in descending order, min(dim_left, dim_right) of them; their
    squares sum to one.  The Schmidt vectors are not formed.
    """
    if psi.dim != layout.total_dim:
        raise ValueError("ket dimension does not match layout")
    unknown = set(left_labels) - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    left = [l in set(left_labels) for l in layout.labels]
    if all(left) or not any(left):
        raise ValueError("both sides of the cut must be nonempty")
    [(_, mats)] = _cut_matrices(psi, layout, np.array([left]))
    side = math.prod(d for d, on in zip(layout.dims, left) if on)
    out = np.zeros(min(side, psi.dim // side))  # the rows and columns left out add zeros
    # the full decomposition, not compute_uv=False: another LAPACK driver
    # can move the singular values by an ulp
    values = np.linalg.svd(mats[0], full_matrices=False)[1]
    out[:values.size] = values
    out.setflags(write=False)
    return out


def _cut_matrices(psi: Ket, layout: SubsystemLayout, left: np.ndarray) -> list:
    """The matrix of a ket across each cut, read off the support's digits,
    as stacks of one shape: ``(cuts, stack)`` pairs, ``cuts`` the rows of
    ``left`` (one bool per factor, True on the left side) in the stack.

    A matrix's rows are the distinct left-side indices of the nonzero
    amplitudes (the left factors' digits, first most significant),
    ascending, and its columns the right-side ones: at full support it is
    the whole matrix across the cut, and otherwise the rows and columns left
    out are zero and add only zero singular values.  The zero ket keeps its
    index 0, a zero.
    """
    dims = np.array(layout.dims)
    nonzero = np.flatnonzero(psi.amplitudes)
    if not nonzero.size:
        nonzero = np.zeros(1, dtype=np.intp)
    strides = np.array([math.prod(layout.dims[p + 1:]) for p in range(dims.size)])
    # each amplitude's index with the right factors' digits 0, and the rest:
    # the left and right indices in the order of their digits
    on_left = np.where(left, strides, 0) @ (nonzero // strides[:, None] % dims[:, None])
    ranks, counts = _ranks(np.concatenate([on_left, nonzero - on_left]))
    n = len(left)
    rows, cols, n_rows, n_cols = ranks[:n], ranks[n:], counts[:n], counts[n:]
    out = []
    for shape in dict.fromkeys(zip(n_rows.tolist(), n_cols.tolist())):
        cuts = np.flatnonzero((n_rows == shape[0]) & (n_cols == shape[1]))
        mats = np.zeros((cuts.size,) + shape, dtype=complex)
        mats[np.arange(cuts.size)[:, None], rows[cuts], cols[cuts]] = psi.amplitudes[nonzero]
        out.append((cuts, mats))
    return out


def _ranks(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an integer array, each entry's rank among the row's
    distinct values, ascending, and the number of distinct values."""
    each = np.arange(index.shape[0])[:, None]
    order = np.argsort(index, axis=-1, kind="stable")
    ordered = index[each, order]
    rank = np.zeros_like(index)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=-1, out=rank[:, 1:])
    out = np.empty_like(rank)
    out[each, order] = rank
    return out, rank[:, -1] + 1


def _clamp(val, what: str, hi: float = 1.0):
    """Clamp a float, or each entry of an array, into [0, hi] as
    ``min(max(v, 0.0), hi)`` does; an excursion beyond ``spectral_tol`` is an
    error, raised for the first one.  A scalar comes back as a float."""
    tol = policy.spectral_tol
    val = np.asarray(val, dtype=float)
    beyond = ~((-tol <= val) & (val <= hi + tol))  # NaN too
    if beyond.any():
        raise ValueError(f"{what} is {float(val[beyond][0])!r}, outside [0, {hi:g}] "
                         "beyond the spectral tolerance")
    # np.where keeps the -0.0 that min and max keep; np.clip leaves signed zeros unspecified
    val = np.where(val < 0.0, 0.0, np.where(hi < val, hi, val))
    return float(val) if val.ndim == 0 else val


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """(1/2) * trace norm of the difference, in [0, 1]: a float, or for two
    stacks an array of one per row, from one ``eigvalsh`` call."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return _half_trace_norms(rho.entries - sigma.entries)


def _half_trace_norms(diff: np.ndarray):
    """(1/2) * trace norm of a Hermitian difference of states, or of each of
    a stack of them, clamped into [0, 1] as a trace distance."""
    eigs = np.linalg.eigvalsh(diff)
    return _clamp(0.5 * np.abs(eigs).sum(axis=-1), "trace distance")


def _sum_left(terms: np.ndarray) -> np.ndarray:
    """The sum over the last axis of ``terms`` (at least one term), from +0.0
    and left to right.

    ``np.cumsum`` adds in order, where numpy's ``sum`` over a contiguous axis
    regroups its terms past 8 and 128.  In order, a zero term changes no
    nonzero partial sum, so a row held on a larger support than its own
    keeps the bits of its lone run; and adding the +0.0 start last gives
    what adding it first gives, so an exactly zero sum is +0.0.
    """
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _expectations(block: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re <v| block |v> over the last two axes of ``block``, ``v`` the ket's
    amplitudes on the block's support (the two broadcast): the terms
    Re(block_st * (conj(v_s) * v_t)), each product formed as ``_product``
    forms it, in row-major order, added by ``_sum_left``, with no BLAS call."""
    vr, vi = v.real, v.imag
    wr = vr[..., :, None] * vr[..., None, :] + vi[..., :, None] * vi[..., None, :]
    wi = vr[..., :, None] * vi[..., None, :] - vi[..., :, None] * vr[..., None, :]
    terms = block.real * wr - block.imag * wi
    return _sum_left(terms.reshape(terms.shape[:-2] + (-1,)))


def fidelity_with_ket(rho: DensityMatrix, psi: Ket):
    """<psi| rho |psi>, the fidelity with a pure target: a float, or an
    array of one per row of a stack.  The ket is read on the state's support
    only (``_expectations``)."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    return _clamp(_expectations(rho.block, psi.amplitudes[rho.support]), "fidelity")

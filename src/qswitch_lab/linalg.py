"""Dense complex linear algebra over multi-qudit Hilbert spaces.

Kets are thin immutable wrappers around ``numpy`` arrays; operators and gates
are plain arrays, read-only where cached.  A density matrix is stored as its
support block: the ascending indices whose row or column holds a nonzero
entry (every index for a small matrix), and the matrix on them.  Every step
maps a support block to a support block, so a low-rank state in a large
space costs its support only; the whole matrix is built only on request.
The index plan of a step (where each support index goes) is kept per
dimensions, addressed factors and support, so states that share a support
share one plan.
Composite systems carry a :class:`SubsystemLayout` that assigns a dimension
and a unique role label to every tensor factor; the leftmost factor is the
most significant one (``numpy.kron`` convention).

A ``DensityMatrix`` may also hold a stack: R states of one layout and one
support, its block of shape ``(R, k, k)``.  Each step has one kernel, which
works on the last two axes of a block and so takes a stack as it takes a
state: the checks decide every row and raise the first failing row's
message, a measurement gives each row its probability and null rule, and
every product reads each row in the memory order of a lone state's, so a
row rounds as a run of its own.  A stack whose rows do not all hold
nonzeros on its whole trimmed support raises ``_SupportsDiffer``.

Everything here is a pure function of its inputs.  In particular,
measurement is exact branch enumeration: :func:`projective_measure` returns
every outcome with its probability, never a sample, so downstream protocol
runs are deterministic.  The constant kets (:func:`basis_ket`,
:func:`fourier_basis`, :func:`ghz_ket`) are built once per process, and
:func:`schmidt_coefficients` gives the Schmidt spectrum of a cut without
forming the Schmidt vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .numeric import policy


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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
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
            nrm = np.linalg.norm(amps)
            if not abs(nrm - 1.0) <= policy.structural_tol:  # rejects NaN too
                raise ValueError(
                    f"ket norm is {nrm!r}, not 1; use Ket.normalized or Ket.raw "
                    "for explicit unnormalized construction"
                )

    @classmethod
    def normalized(cls, amplitudes) -> "Ket":
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(a)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(a / nrm)

    @classmethod
    def raw(cls, amplitudes) -> "Ket":
        return cls(np.asarray(amplitudes, dtype=complex), _checked=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density(self, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        """|psi><psi|, its block the outer product of the nonzero amplitudes."""
        if layout is None:
            layout = SubsystemLayout((self.dim,), ("A",))
        return _densities(self.amplitudes, layout)


def _densities(amplitudes: np.ndarray, layout: SubsystemLayout) -> "DensityMatrix":
    """|psi><psi| of a ket's amplitudes, or the stack of them over rows of
    amplitudes, on the indices where some row is nonzero."""
    dim = amplitudes.shape[-1]
    _check_dim(dim, layout)
    # a small state keeps the whole outer product, its signed zeros too;
    # this saves time only, see _SUPPORT_MIN_DIM
    if dim <= _SUPPORT_MIN_DIM:
        support = np.arange(dim)
    else:
        support = np.flatnonzero((amplitudes != 0).reshape(-1, dim).any(axis=0))
    v = amplitudes[..., support]
    return DensityMatrix._of_block(layout, support, v[..., :, None] * v.conj()[..., None, :])


# at or below this dimension a state keeps its whole matrix as its block and
# skips the support scan.  For speed only: at 0 every golden keeps its bytes,
# but `_trimmed` scans every small block, and a 101-point d = 2 sweep's protocol
# work took 8.6 % longer (0.421 -> 0.457 s CPU, 14 pairs, 1 BLAS thread, 2 vCPU)
_SUPPORT_MIN_DIM = 16


class _SupportsDiffer(ValueError):
    """The rows of a stack do not all hold nonzeros on its whole support."""


def _occupied(block: np.ndarray) -> np.ndarray:
    """Per row of a block (or of each block of a stack), whether the index
    holds an exactly nonzero entry in its row or its column."""
    nz = block != 0
    return nz.any(axis=-1) | nz.any(axis=-2)


def _trimmed(support: np.ndarray, block: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The support of an n x n matrix given by its block on ``support``, and
    the block on it; ``_trimmed(np.arange(n), m, n)`` for a whole matrix ``m``.

    ``support`` holds ascending indices and may be larger than the support;
    every entry outside it is zero.  The support is every index whose row or
    column holds an exactly nonzero entry; a NaN or infinite entry is
    nonzero, so it stays in.  At or below ``_SUPPORT_MIN_DIM`` the support is
    every index and the block the whole matrix, its signed zeros kept.  A
    stack of blocks keeps every index that some row holds.
    """
    if n <= _SUPPORT_MIN_DIM:
        if support.size == n:
            return support, block
        m = np.zeros(block.shape[:-2] + (n, n), dtype=complex)
        m[..., support[:, None], support] = block
        return np.arange(n), m
    held = _occupied(block)
    keep = np.flatnonzero(held.reshape(-1) if held.size == support.size else held.any(axis=0))
    if keep.size < support.size:
        support, block = support[keep], block[..., keep[:, None], keep]
    return support, block


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
    first failing row, checked on its own.

    Each check is written to fail on NaN, which compares False both ways; a
    NaN or infinite entry fails the residual, and past it every entry is
    finite.  An empty support (the zero matrix) fails on the trace.
    """
    tol = policy.structural_tol
    herm = np.abs(block - block.conj().swapaxes(-1, -2)).max() if block.size else 0.0
    if herm <= tol and block.size:
        ok = ((abs(block.trace(axis1=-2, axis2=-1) - 1.0) <= tol)
              & (_min_eigenvalue(block, n) >= policy.psd_floor))
        if _every(ok):
            return
    if block.ndim == 3:
        for row in block:
            _check(row, n)
    if not herm <= tol:
        raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = block.trace()
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"trace is {tr!r}, not 1")
    raise ValueError(f"not positive semidefinite: min eigenvalue {_min_eigenvalue(block, n):.3e}")


def _check_dim(n: int, layout: SubsystemLayout) -> None:
    if n != layout.total_dim:
        raise ValueError(
            f"matrix dimension {n} does not match layout "
            f"dims {layout.dims} (product {layout.total_dim})"
        )


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix with a layout.

    A state is its layout, its ``support`` (the ascending indices whose row
    or column holds an exactly nonzero entry) and its ``block``, the
    read-only matrix on the support; every other entry is zero.  At or below
    ``_SUPPORT_MIN_DIM`` the support is every index, ``np.arange(dim)``, and
    ``block`` the whole matrix.  ``entries``, the whole matrix, is built only
    on request.  The steps of this module also take a stack of states of one
    layout and support, held as the same type with a block of shape
    ``(R, k, k)``; the public constructor builds states only.

    ``DensityMatrix(entries, layout)`` finds the support of a whole matrix.
    The steps of this module map a support block to a support block, and
    each checked output is checked once, on its block: every nonzero entry
    lies inside it, so the Hermiticity residual and the trace are those of
    the whole matrix, and the rows and columns left out add only zero
    eigenvalues.  The checks are exact, and a low-rank state in a large space
    costs its support only.
    """

    layout: SubsystemLayout
    support: np.ndarray
    block: np.ndarray

    def __init__(self, entries, layout: SubsystemLayout):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        n = m.shape[0]
        _check_dim(n, layout)
        support, block = _trimmed(np.arange(n), m, n)
        if block is entries:  # the caller keeps its own array
            block = block.copy()
        self._set(layout, support, block)
        self.__post_init__()

    @classmethod
    def _of_block(cls, layout: SubsystemLayout, support, block: np.ndarray) -> "DensityMatrix":
        """The checked state with ``block`` on ``support`` (as for ``_trimmed``),
        or the checked stack with a block of shape ``(R, k, k)``, whose rows
        must each hold the whole support when it is trimmed."""
        out = cls._unchecked(layout, *_trimmed(support, block, layout.total_dim))
        out.__post_init__()
        if block.ndim == 3 and len(block) > 1 and out.dim > _SUPPORT_MIN_DIM:
            if not _occupied(out.block).all():
                raise _SupportsDiffer("the rows of a stack hold different supports")
        return out

    @classmethod
    def _unchecked(cls, layout: SubsystemLayout, support, block: np.ndarray) -> "DensityMatrix":
        """The state with exactly this support and block, not checked."""
        out = object.__new__(cls)
        out._set(layout, support, block)
        return out

    def _set(self, layout, support, block) -> None:
        support.setflags(write=False)
        block.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)

    def __post_init__(self):
        _check(self.block, self.dim)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def entries(self) -> np.ndarray:
        """The whole matrix (of each row of a stack), read-only; built on
        each request unless the block is the whole matrix."""
        if self.support.size == self.dim:
            return self.block
        m = np.zeros(self.block.shape[:-2] + (self.dim, self.dim), dtype=complex)
        m[..., self.support[:, None], self.support] = self.block
        m.setflags(write=False)
        return m

    def purity(self) -> float:
        # sum of |rho_ij|^2, which is Tr rho^2 for Hermitian rho
        return float(np.vdot(self.block, self.block).real)

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

    def reorder(self, new_labels: Sequence[str]) -> "DensityMatrix":
        """Permute tensor factors into the given label order."""
        if sorted(new_labels) != sorted(self.layout.labels):
            raise ValueError(f"{new_labels} is not a permutation of {self.layout.labels}")
        perm = self.layout.positions(new_labels)
        dims = self.layout.dims
        new_layout = SubsystemLayout(tuple(dims[p] for p in perm), tuple(new_labels))
        return _remapped(self, new_layout, _split(self, perm)[0])


@functools.cache
def _offsets(dims: tuple[int, ...], positions: tuple[int, ...]) -> np.ndarray:
    """Full-index offset of each basis state of the factors at ``positions``
    (in that order, first most significant); read-only."""
    off = np.zeros(1, dtype=np.intp)
    for p in positions:
        off = (off[:, None] + math.prod(dims[p + 1:]) * np.arange(dims[p])).reshape(-1)
    off.setflags(write=False)
    return off


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
    index with those factors' digits 0."""
    digits = np.unravel_index(support, dims)
    acted = np.zeros_like(support)
    for p in positions:
        acted = acted * dims[p] + digits[p]
    return acted, support - _offsets(dims, positions)[acted]


_split = _per_layout(_split_plan)


def _remapped(rho: DensityMatrix, layout: SubsystemLayout, indices: np.ndarray) -> DensityMatrix:
    """``rho`` with the entries of support index k moved to ``indices[k]``.

    Moving entries changes no verdict, so the result is not checked again.
    """
    order = np.argsort(indices)
    return DensityMatrix._unchecked(layout, indices[order], rho.block[..., order[:, None], order])


# ---------------------------------------------------------------------------
# Standard vectors and bases
# ---------------------------------------------------------------------------

# The cached builders depend only on their integer arguments and return
# immutable kets (frozen, read-only amplitudes), so each is built once.


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


@functools.cache
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
    for j in range(d):
        v[j * stride] = np.exp(2j * np.pi * j * phase_index / d) / np.sqrt(d)
    return Ket(v)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------


def tensor(a, b):
    """Kronecker product; the left operand is the most significant factor.

    Accepts two kets, two arrays or two density matrices (whose layouts are
    concatenated, and whose blocks are multiplied on the product support;
    the left one may be a stack); any other pair is rejected.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        layout = SubsystemLayout(a.layout.dims + b.layout.dims, a.layout.labels + b.layout.labels)
        support = (a.support[:, None] * b.dim + b.support).reshape(-1)
        return DensityMatrix._of_block(layout, support, np.kron(a.block, b.block))
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket.raw(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


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

    ``terms`` is the output support and each term as its place in the
    output block (rows, cols) and in the input block (rows, cols), in the
    order the terms are added.  Each output entry starts at +0.0; a term
    between indices outside the support is zero and left out, which changes
    no sum.
    """
    support, rows, cols, src_rows, src_cols = terms
    block = np.zeros(rho.block.shape[:-2] + (support.size, support.size), dtype=complex)
    np.add.at(block, (..., rows, cols), rho.block[..., src_rows, src_cols])  # in order, repeats too
    return support, block


def _pairs_by(key: np.ndarray, among: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j) of ``among`` with ``key[i] == key[j]``, by ascending key."""
    among = among[np.argsort(key[among], kind="stable")]
    i, j = np.nonzero(key[among, None] == key[among])
    return among[i], among[j]


def _trace_plan(dims, keep_pos, support) -> tuple[np.ndarray, ...]:
    """The terms of the partial trace onto ``keep_pos``: each (kept, kept')
    entry sums the block over the traced-out index, ascending, as the sum
    over the whole matrix runs."""
    kept = _split_plan(dims, keep_pos, support)[0]
    traced = _split_plan(dims, tuple(p for p in range(len(dims)) if p not in keep_pos), support)[0]
    out_support, row = np.unique(kept, return_inverse=True)
    i, j = _pairs_by(traced, np.arange(traced.size))
    return out_support, row[i], row[j], i, j


_trace_terms = _per_layout(_trace_plan)


def _grid_plan(dims, positions, support) -> tuple[np.ndarray, ...]:
    """Where ``_compact`` puts each support index, and its grid in full indices.

    The grid is (acted basis state, rest-index occurring in the support).
    Returns each support index's flat place in it, the occurring
    rest-indices (ascending), and the grid's places and full indices in
    ascending full-index order.
    """
    acted, rest = _split_plan(dims, positions, support)
    rest, col = np.unique(rest, return_inverse=True)
    index = (_offsets(dims, positions)[:, None] + rest).reshape(-1)
    order = np.argsort(index)
    return acted * rest.size + col, rest, order, index[order]


_grid = _per_layout(_grid_plan)


def _compact(rho: DensityMatrix, flat: np.ndarray, m: int, r: int) -> np.ndarray:
    """rho on its grid (``_grid``) as an ``(m, r, m, r)`` tensor (each row of
    a stack as one): with every rest-index present, rho with the addressed
    factors moved to the front."""
    lead = rho.block.shape[:-2]
    t = np.zeros(lead + (m * r, m * r), dtype=complex)
    t[..., flat[:, None], flat] = rho.block
    return t.reshape(lead + (m, r, m, r))


def _conjugate(rho: DensityMatrix, positions: Sequence[int], ops: np.ndarray) -> DensityMatrix:
    """sum_i (K_i on `positions`, identity elsewhere) rho (...)^dagger.

    ``positions`` fixes the correspondence between the operators' tensor
    factors and the subsystems they act on; the operators must be square
    with dimension equal to the product of the addressed subsystem dims,
    which the callers check.  The two products per operator contract the
    acted axis of the compacted tensor (``_compact``) over its full length,
    as they would on the whole matrix; each is the product, on the same
    operands in the same memory order, that ``np.tensordot(K, t, (1, 0))``
    and ``np.tensordot(t1, K.conj(), (2, 1))`` compute with ``np.dot``, so it
    rounds as they do (``np.matmul`` over a C-ordered stack multiplies each
    row as ``np.dot`` does).
    """
    flat, rest, order, index = _grid(rho, positions)
    m, r = ops.shape[-1], rest.size
    t = _compact(rho, flat, m, r)
    lead = t.shape[:-4]
    out = np.zeros_like(t)
    for K in ops:
        t1 = (K @ t.reshape(lead + (m, -1))).reshape(t.shape)  # (i, q, l, r)
        t2 = t1.swapaxes(-1, -2).reshape(lead + (-1, m)) @ K.conj().T  # (i q r, k)
        out += t2.reshape(lead + (m, r, r, m)).swapaxes(-1, -2)
    out = out.reshape(lead + (index.size, index.size))[..., order[:, None], order]
    return DensityMatrix._of_block(rho.layout, index, out)


def _coincidence_plan(dims, positions, support) -> tuple[np.ndarray, ...]:
    """The terms of ``_coincidence``: the span entries, then the collapse
    terms by ascending acted index, the order of the Kraus list."""
    d = dims[positions[0]]
    acted, rest = _split_plan(dims, positions, support)
    span = (acted % d) * ((d ** len(positions) - 1) // (d - 1))  # c_j, j the control digit
    out_support, row = np.unique(rest + _offsets(dims, positions)[span], return_inverse=True)
    kept = np.flatnonzero(acted == span)
    moved_i, moved_j = _pairs_by(acted, np.flatnonzero(acted != span))
    i = np.concatenate([np.repeat(kept, kept.size), moved_i])
    j = np.concatenate([np.tile(kept, kept.size), moved_j])
    return out_support, row[i], row[j], i, j


_coincidence_terms = _per_layout(_coincidence_plan)


def _coincidence(rho: DensityMatrix, positions: Sequence[int]) -> DensityMatrix:
    """The N-line coincidence channel on `positions`, identity elsewhere.

    ``positions`` addresses N targets and then the control, all of one
    dimension d >= 2.  The output is P rho P on span{c_j = |j>^N|j>} plus,
    for each control value j and every other acted basis state a whose
    control digit is j, the block <a| rho |a> on the other subsystems moved
    onto |c_j><c_j|.  Each output entry takes its terms in the order of the
    Kraus list of ``k_multiline`` (the projector, then a ascending), so the
    result equals the Kraus application bit for bit.
    """
    return DensityMatrix._of_block(rho.layout, *_summed(rho, _coincidence_terms(rho, positions)))


def apply_unitary(rho: DensityMatrix, u: np.ndarray, acting_on: Sequence[str]) -> DensityMatrix:
    """Conjugate by a unitary on the addressed labels, identity elsewhere."""
    u = np.asarray(u, dtype=complex)
    positions = rho.layout.positions(acting_on)
    acted_dim = math.prod(rho.layout.dims[p] for p in positions)
    if u.shape != (acted_dim, acted_dim):
        raise ValueError(
            f"unitary of shape {u.shape} cannot act on labels {tuple(acting_on)} "
            f"with total dimension {acted_dim}"
        )
    if not np.abs(u.conj().T @ u - np.eye(acted_dim)).max() <= policy.spectral_tol:  # NaN too
        raise ValueError("operator is not unitary within tolerance")
    return _conjugate(rho, positions, u[None])


def permute_basis(rho: DensityMatrix, perm: Sequence[int], acting_on: Sequence[str]) -> DensityMatrix:
    """Conjugate by the basis permutation |a> -> |perm[a]> on the addressed labels.

    Equals ``apply_unitary`` with the permutation matrix, but moves the
    support's indices and entries instead of multiplying by it.  ``perm``
    indexes the basis of the addressed labels in the order given (first most
    significant) and must be a permutation of ``range(m)``, m the product of
    their dimensions.
    """
    positions = rho.layout.positions(acting_on)
    acted_dim = math.prod(rho.layout.dims[p] for p in positions)
    perm = np.asarray(perm)
    src = np.full(acted_dim, -1)  # the output's a-th basis state comes from src[a]
    if perm.shape == (acted_dim,) and perm.dtype.kind in "iu":
        if ((perm >= 0) & (perm < acted_dim)).all():
            src[perm] = np.arange(acted_dim)
    if (src < 0).any():  # out of range, wrong length or type, or a repeated index
        raise ValueError(
            f"index map is not a permutation of the {acted_dim} basis states "
            f"of labels {tuple(acting_on)}"
        )
    acted, rest = _split(rho, positions)
    moved = rest + _offsets(rho.layout.dims, tuple(positions))[perm[acted]]
    return _remapped(rho, rho.layout, moved)


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    outcome: int
    probability: float
    state: DensityMatrix | None  # None marks a zero-probability (null) branch


def projective_measure(
    rho: DensityMatrix, basis: Sequence[Ket], subsystem: str
) -> list[MeasurementBranch]:
    """Measure one labeled factor in the given orthonormal basis.

    Returns every branch: ``(outcome index, probability, post-measurement
    state on the remaining labels)``.  Probabilities sum to one; branches
    with probability below the null threshold are kept in the list with a
    ``None`` state so that transcripts stay complete (``_measured``).
    """
    return _branches(_measured(rho, basis, subsystem))


def _branches(outcomes: list) -> list[MeasurementBranch]:
    """The branches of a state's measurement (``_measured``)."""
    return [MeasurementBranch(k, float(p), state) for k, (p, _, state) in enumerate(outcomes)]


def _measured(rho: DensityMatrix, basis: Sequence[Ket], subsystem: str) -> list[tuple]:
    """Measure one labeled factor of a state, or of every row of a stack.

    Returns per outcome the probability (0.0 for a null branch; one per row
    of a stack), whether the branch is live, and the state of a live branch
    (the stack of the live rows' states), or None.  Each branch block is
    contracted from the compacted tensor (``_compact``) over the measured
    factor's full dimension, and its trace is summed over the whole
    diagonal, zeros in place, so numpy groups every sum as for the whole
    matrix.  Each row's probabilities must sum to one.
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

    flat, rest, _, _ = _grid(rho, [pos])
    t = _compact(rho, flat, s, rest.size)  # (p, q, l, r) of each row
    lead = t.shape[:-4]
    n_rows = math.prod(lead)
    remaining = [l for i, l in enumerate(rho.layout.labels) if i != pos]
    new_layout = rho.layout.keep(remaining)
    out_dim = new_layout.total_dim
    low = math.prod(rho.layout.dims[pos + 1:])
    rest = (rest // (s * low)) * low + rest % low  # drop the measured digit
    # the second contraction reads its matrix in the memory order the whole
    # state gives it, Fortran order when no factor follows the measured one
    # and C order otherwise: BLAS rounds the two differently
    if low == 1:
        t = t.swapaxes(-1, -2)  # (p, q, r, l)
    # each product is the ``np.dot`` that ``np.tensordot(v.conj(), t, (0, 0))``
    # and ``np.tensordot(v, t1, (0, l))`` call on a row, on the same operands;
    # the first one's matrix is the same for every basis vector
    rows = t.reshape(lead + (s, -1))

    outcomes = []
    total = 0.0
    for ket_k in basis:
        v = ket_k.amplitudes
        t1 = (v.conj().reshape(1, s) @ rows).reshape(lead + t.shape[-3:])
        if low == 1:
            t1 = t1.swapaxes(-1, -2)  # (q, l, r)
        t1 = t1.swapaxes(-3, -2)  # (l, q, r)
        t2 = v.reshape(1, s) @ t1.reshape(lead + (s, -1))  # (1, q r)
        support, block = _trimmed(rest, t2.reshape(lead + (rest.size, rest.size)), out_dim)
        diagonal = block.diagonal(axis1=-2, axis2=-1)
        if support.size < out_dim:  # a trimmed block: the zeros go in place
            diagonal = np.zeros(lead + (out_dim,), dtype=complex)
            diagonal[..., support] = block.diagonal(axis1=-2, axis2=-1)
        p = diagonal.sum(axis=-1).real
        live = ~(p < policy.null_branch_tol)
        n_live = np.count_nonzero(live)
        state = None
        if n_live == n_rows:
            state = DensityMatrix._of_block(new_layout, support, block / p[..., None, None])
        elif n_live:  # some rows of a stack
            state = DensityMatrix._of_block(new_layout, support, block[live] / p[live, None, None])
        if n_live < n_rows:
            p = np.where(live, p, 0.0)
        outcomes.append((p, live, state))
        total = total + p  # left to right, as the branches come
    summed = abs(total - 1.0) <= policy.spectral_tol  # NaN too
    if not _every(summed):
        raise ValueError(f"branch probabilities sum to {float(total[~summed][0])!r}, not 1")
    return outcomes


# ---------------------------------------------------------------------------
# Schmidt coefficients and distances
# ---------------------------------------------------------------------------


def schmidt_coefficients(
    psi: Ket, layout: SubsystemLayout, left_labels: Sequence[str]
) -> np.ndarray:
    """Schmidt coefficients of a pure state across the given bipartition.

    ``left_labels`` picks one side of the cut (in layout order); the other
    side is the complement.  The coefficients come back as a read-only
    array in descending order; their squares sum to one.  The Schmidt
    vectors are not formed.
    """
    if psi.dim != layout.total_dim:
        raise ValueError("ket dimension does not match layout")
    left = [l for l in layout.labels if l in set(left_labels)]
    right = [l for l in layout.labels if l not in set(left_labels)]
    unknown = set(left_labels) - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    if not left or not right:
        raise ValueError("both sides of the cut must be nonempty")
    lpos = layout.positions(left)
    rpos = layout.positions(right)
    t = psi.amplitudes.reshape(layout.dims)
    mat = t.transpose(lpos + rpos).reshape(
        math.prod(layout.dims[p] for p in lpos), math.prod(layout.dims[p] for p in rpos)
    )
    # the full decomposition, not compute_uv=False: another LAPACK driver
    # can move the singular values by an ulp
    s = np.linalg.svd(mat, full_matrices=False)[1]
    s.setflags(write=False)
    return s


def _clamp(val, what: str, hi: float = 1.0):
    """Clamp a float, or each entry of an array, into [0, hi]; an excursion
    beyond ``spectral_tol`` is an error, raised for the first one."""
    tol = policy.spectral_tol
    if not isinstance(val, np.ndarray) or not val.ndim:
        val = float(val)
        if not -tol <= val <= hi + tol:  # NaN too
            raise ValueError(
                f"{what} is {val!r}, outside [0, {hi:g}] beyond the spectral tolerance")
        return min(max(val, 0.0), hi)
    low, high = val.min(), val.max()  # NaN too
    if not (-tol <= low and high <= hi + tol):
        return _clamp(val[~((-tol <= val) & (val <= hi + tol))][0], what, hi)  # raises
    if low < 0.0 or hi < high:
        val = np.where(val < 0.0, 0.0, np.where(hi < val, hi, val))  # as min(max(v, 0.0), hi)
    return val


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of the difference; in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return _clamp(float(0.5 * np.abs(eigs).sum()), "trace distance")


def fidelity_with_ket(rho: DensityMatrix, psi: Ket):
    """<psi| rho |psi>, the fidelity with a pure target: a float, or an
    array of one per row of a stack."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    v = psi.amplitudes
    lead = rho.block.shape[:-2]
    if rho.support.size == rho.dim:  # the whole matrix, in C order as a copy has it
        u = v.conj() @ np.ascontiguousarray(rho.block)
    else:
        # the support columns over every row: each sum runs over the whole index
        # range and so groups its terms as the product with the whole matrix does
        cols = np.zeros(lead + (rho.dim, rho.support.size), dtype=complex)
        cols[..., rho.support, :] = rho.block
        u = np.zeros(lead + (rho.dim,), dtype=complex)
        u[..., rho.support] = v.conj() @ cols
    # a (1, n) by (n, 1) product is the vector dot ``u @ v`` of one row
    return _clamp((u[..., None, :] @ v[:, None])[..., 0, 0].real, "fidelity")

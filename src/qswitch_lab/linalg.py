"""Dense complex linear algebra over multi-qudit Hilbert spaces.

Kets and density matrices are thin immutable wrappers around ``numpy``
arrays; operators and gates are plain arrays, read-only where cached.
Composite systems carry a :class:`SubsystemLayout` that assigns a dimension
and a unique role label to every tensor factor; the leftmost factor is the
most significant one (``numpy.kron`` convention).

Everything here is a pure function of its inputs.  In particular,
measurement is exact branch enumeration: :func:`projective_measure` returns
every outcome with its probability, never a sample, so downstream protocol
runs are deterministic.  The constant kets (:func:`basis_ket`,
:func:`fourier_basis`, :func:`ghz_ket`) are built once per process, and
:func:`schmidt_coefficients` gives the Schmidt spectrum of a cut without
forming the Schmidt vectors.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .numeric import policy


def _readonly(a: np.ndarray) -> np.ndarray:
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

    @property
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


@dataclass(frozen=True)
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
        if layout is None:
            layout = SubsystemLayout((self.dim,), ("A",))
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), layout)


# at or below this dimension the checks and ``to_ket`` use the whole matrix:
# locating the support costs about as much as the decomposition itself
_SUPPORT_MIN_DIM = 16


def _support_block(m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The support of a square matrix and the block of ``m`` on it.

    The support is every index whose row or column holds an exactly nonzero
    entry; a NaN or infinite entry is nonzero, so it stays in.  The support
    is None, and the block ``m`` itself, at or below ``_SUPPORT_MIN_DIM`` and
    when the support is every index.
    """
    n = m.shape[0]
    if n > _SUPPORT_MIN_DIM:
        nz = m != 0
        support = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
        if support.size < n:
            return support, m[np.ix_(support, support)]
    return None, m


def _min_eigenvalue(block: np.ndarray, n: int) -> float:
    """Smallest eigenvalue of an n x n matrix, from its support block.

    The rows and columns outside the block are exactly zero and add only zero
    eigenvalues, so the minimum is that of the block, capped at 0 when the
    block is smaller than the matrix.
    """
    low = float(np.linalg.eigvalsh(block)[0])
    return min(low, 0.0) if block.shape[0] < n else low


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix with a layout.

    Construction finds the support once, the indices whose row or column is
    not exactly zero, and decides all three properties on the support block.
    Every nonzero entry lies inside that block, so the Hermiticity residual
    and the trace are those of the whole matrix, and the rows and columns
    left out add only zero eigenvalues: the checks are exact.  ``to_ket``
    decomposes the same block.  A low-rank state in a large space therefore
    costs a decomposition of its support only.
    """

    entries: np.ndarray
    layout: SubsystemLayout
    _support: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if m.shape[0] != self.layout.total_dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match layout "
                f"dims {self.layout.dims} (product {self.layout.total_dim})"
            )
        support, b = _support_block(m)
        # each check is written to fail on NaN, which compares False both
        # ways; a NaN or infinite entry already makes ``herm`` NaN.  An empty
        # support (the zero matrix) fails on the trace.
        herm = np.abs(b - b.conj().T).max() if b.size else 0.0
        if not herm <= policy.structural_tol:
            raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
        tr = b.trace()
        if not abs(tr - 1.0) <= policy.structural_tol:
            raise ValueError(f"trace is {tr!r}, not 1")
        min_eig = _min_eigenvalue(b, m.shape[0])
        if not min_eig >= policy.psd_floor:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "entries", _readonly(m))
        object.__setattr__(self, "_support", support)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        # sum of |rho_ij|^2, which is Tr rho^2 for Hermitian rho
        return float(np.vdot(self.entries, self.entries).real)

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
        support = self._support
        if support is None:
            return Ket.normalized(np.linalg.eigh(self.entries)[1][:, -1])
        v = np.zeros(self.dim, dtype=complex)
        v[support] = np.linalg.eigh(self.entries[np.ix_(support, support)])[1][:, -1]
        return Ket.normalized(v)

    def relabel(self, mapping: dict[str, str]) -> "DensityMatrix":
        """The same state under renamed labels.

        The entries and dims are unchanged, so are the verdicts: the result
        shares the validated entries and support and is not checked again.
        """
        out = copy.copy(self)
        object.__setattr__(out, "layout", self.layout.relabel(mapping))
        return out

    def reorder(self, new_labels: Sequence[str]) -> "DensityMatrix":
        """Permute tensor factors into the given label order."""
        if sorted(new_labels) != sorted(self.layout.labels):
            raise ValueError(f"{new_labels} is not a permutation of {self.layout.labels}")
        perm = self.layout.positions(new_labels)
        n = self.layout.n_subsystems
        t = self.entries.reshape(self.layout.dims * 2)
        t = t.transpose(perm + [n + p for p in perm])
        new_layout = SubsystemLayout(
            tuple(self.layout.dims[p] for p in perm), tuple(new_labels)
        )
        return DensityMatrix(t.reshape(self.dim, self.dim), new_layout)


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
    concatenated); any other pair is rejected.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(
            np.kron(a.entries, b.entries),
            SubsystemLayout(a.layout.dims + b.layout.dims, a.layout.labels + b.layout.labels),
        )
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
    dims = rho.layout.dims
    n = len(dims)
    t = rho.entries.reshape(dims * 2)
    ket_idx = list(range(n))
    bra_idx = [i + n if i in keep_pos else i for i in range(n)]
    out_idx = keep_pos + [i + n for i in keep_pos]
    reduced = np.einsum(t, ket_idx + bra_idx, out_idx)
    kept_labels = [rho.layout.labels[p] for p in keep_pos]
    new_layout = rho.layout.keep(kept_labels)
    dim = new_layout.total_dim
    return DensityMatrix(reduced.reshape(dim, dim), new_layout)


def _embedded(
    entries: np.ndarray,
    dims: Sequence[int],
    positions: Sequence[int],
    kernel: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run ``kernel`` on rho with the addressed factors moved to the front.

    The kernel sees rho as an ``(m, r, m, r)`` tensor: ``m`` indexes the
    subsystems at ``positions`` (in that order, first most significant) and
    ``r`` the rest in layout order.  Its ``(m, r, m, r)`` result is moved
    back to the layout order.
    """
    n = len(dims)
    positions = list(positions)
    rest = [p for p in range(n) if p not in positions]
    perm = positions + rest
    pdims = [dims[p] for p in perm]
    m = math.prod(dims[p] for p in positions)
    r = math.prod(dims[p] for p in rest) if rest else 1
    t = entries.reshape(tuple(dims) * 2)
    t = t.transpose(perm + [n + p for p in perm]).reshape(m, r, m, r)
    out = kernel(t).reshape(tuple(pdims) * 2)
    inv = list(np.argsort(perm))
    out = out.transpose(inv + [n + i for i in inv])
    full = math.prod(dims)
    return out.reshape(full, full)


def _conjugate_embedded(
    entries: np.ndarray,
    dims: Sequence[int],
    positions: Sequence[int],
    ops: Sequence[np.ndarray],
) -> np.ndarray:
    """sum_i (K_i on `positions`, identity elsewhere) rho (...)^dagger.

    ``positions`` fixes the correspondence between the operators' tensor
    factors and the subsystems they act on; the operators must be square
    with dimension equal to the product of the addressed subsystem dims,
    which the callers check.
    """

    def kraus_sum(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        for K in ops:
            t1 = np.tensordot(K, t, axes=(1, 0))          # (i, q, l, r)
            t2 = np.tensordot(t1, K.conj(), axes=(2, 1))  # (i, q, r, k)
            out += t2.transpose(0, 1, 3, 2)
        return out

    return _embedded(entries, dims, positions, kraus_sum)


def _coincidence_embedded(
    entries: np.ndarray, dims: Sequence[int], positions: Sequence[int]
) -> np.ndarray:
    """The N-line coincidence channel on `positions`, identity elsewhere.

    ``positions`` addresses N targets and then the control, all of one
    dimension d >= 2.  The output is P rho P on span{c_j = |j>^N|j>} plus,
    for each control value j and every other acted basis state a whose
    control digit is j, the block <a| rho |a> on the other subsystems moved
    onto |c_j><c_j|.  Terms are accumulated in the order of the Kraus list
    of ``k_multiline`` (the projector, then j ascending, then a ascending),
    so the result equals the Kraus application bit for bit.
    """
    d = dims[positions[0]]

    def collapse(t: np.ndarray) -> np.ndarray:
        m, r = t.shape[0], t.shape[1]
        span = np.arange(d) * ((m - 1) // (d - 1))  # c_j = j (1 + d + ... + d^N)
        block = np.ix_(span, np.arange(r), span, np.arange(r))
        out = np.zeros_like(t)
        out[block] += t[block]
        for j, c in enumerate(span):
            for a in range(j, m, d):  # acted indices whose control digit is j
                if a != c:
                    out[c, :, c, :] += t[a, :, a, :]
        return out

    return _embedded(entries, dims, positions, collapse)


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
    out = _conjugate_embedded(rho.entries, rho.layout.dims, positions, [u])
    return DensityMatrix(out, rho.layout)


def permute_basis(rho: DensityMatrix, perm: Sequence[int], acting_on: Sequence[str]) -> DensityMatrix:
    """Conjugate by the basis permutation |a> -> |perm[a]> on the addressed labels.

    Equals ``apply_unitary`` with the permutation matrix, but moves entries
    instead of multiplying by it.  ``perm`` indexes the basis of the
    addressed labels in the order given (first most significant) and must be
    a permutation of ``range(m)``, m the product of their dimensions.
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

    def gather(t: np.ndarray) -> np.ndarray:
        return t[src][:, :, src]

    out = _embedded(rho.entries, rho.layout.dims, positions, gather)
    return DensityMatrix(out, rho.layout)


@dataclass(frozen=True)
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
    ``None`` state so that transcripts stay complete.
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
    if dev > policy.spectral_tol:
        raise ValueError(f"measurement basis is not orthonormal: max Gram deviation {dev:.3e}")

    dims = rho.layout.dims
    n = len(dims)
    t = rho.entries.reshape(dims * 2)
    remaining = [l for i, l in enumerate(rho.layout.labels) if i != pos]
    new_layout = rho.layout.keep(remaining)
    out_dim = new_layout.total_dim

    branches: list[MeasurementBranch] = []
    for k, ket_k in enumerate(basis):
        v = ket_k.amplitudes
        t1 = np.tensordot(v.conj(), t, axes=(0, pos))
        # after removing ket axis `pos`, the bra axis of the measured factor
        # sits at index (n - 1) + pos
        t2 = np.tensordot(v, t1, axes=(0, n - 1 + pos))
        block = t2.reshape(out_dim, out_dim)
        p = float(np.real(np.trace(block)))
        if p < policy.null_branch_tol:
            branches.append(MeasurementBranch(k, 0.0, None))
        else:
            branches.append(MeasurementBranch(k, p, DensityMatrix(block / p, new_layout)))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > policy.spectral_tol:
        raise ValueError(f"branch probabilities sum to {total!r}, not 1")
    return branches


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


def _clamp(val: float, what: str, hi: float = 1.0) -> float:
    """Clamp into [0, hi]; an excursion beyond ``spectral_tol`` is an error."""
    if not -policy.spectral_tol <= val <= hi + policy.spectral_tol:
        raise ValueError(f"{what} is {val!r}, outside [0, {hi:g}] beyond the spectral tolerance")
    return min(max(val, 0.0), hi)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of the difference; in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return _clamp(float(0.5 * np.abs(eigs).sum()), "trace distance")


def fidelity_with_ket(rho: DensityMatrix, psi: Ket) -> float:
    """<psi| rho |psi>, the fidelity with a pure target."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch")
    v = psi.amplitudes
    return _clamp(float(np.real(v.conj() @ rho.entries @ v)), "fidelity")

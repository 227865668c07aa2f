"""Entanglement and distinguishability measures.

Concurrence for two qubits, the generalized geometric measure (GGM) for
pure multipartite states, maximal-entanglement tests, the Helstrom error
for binary state discrimination, and the total-variation distance of two
outcome distributions.  The pure-state measures read only Schmidt
coefficients (``linalg.schmidt_coefficients``), never Schmidt vectors, each
cut's from the support's digits; the GGM takes all cuts of one matrix shape
in one stacked SVD.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import (
    DensityMatrix, Ket, SubsystemLayout, _clamp, _cut_matrices, _every, schmidt_coefficients,
)
from .numeric import MAX_GGM_PARTIES, STRUCTURAL_TOL, ResourceGuardError, policy

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence_2qubit(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum.

    max(0, l1 - l2 - l3 - l4) where the l's are the decreasingly ordered
    square roots of the eigenvalues of rho * (sy(x)sy) rho^* (sy(x)sy).
    See https://en.wikipedia.org/wiki/Concurrence_(quantum_computing).

    The l's are computed as singular values of sqrt(rho) (sy(x)sy)
    sqrt(rho)^*, which avoids the square-root noise amplification of the
    direct eigenvalue route near rank-deficient states.
    """
    if rho.dim != 4:
        raise ValueError(f"concurrence is defined for two qubits, got dimension {rho.dim}")
    vals, vecs = np.linalg.eigh(rho.entries)
    # a floor for the square root, not a check: rho passed its positivity
    # check when built, and no verdict compares against this floor
    vals = np.where(vals < 1e-15, 0.0, vals)
    sqrt_rho = (vecs * np.sqrt(vals)) @ vecs.conj().T
    lams = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def bipartition_reports(psi: Ket, layout: SubsystemLayout) -> np.ndarray:
    """Top squared Schmidt coefficient of every nonempty proper bipartition,
    a read-only array checked to lie in (0, 1]; the cuts run by the side with
    the first label, by its size and then lexicographically.

    Each cut's matrix is read off the support's digits
    (``linalg._cut_matrices``), and the cuts of one matrix shape take one
    stacked SVD, which computes each matrix as a call of its own does.
    """
    n = layout.n_subsystems
    if n < 2:
        raise ValueError("need at least two subsystems")
    if n > MAX_GGM_PARTIES:
        raise ResourceGuardError(
            f"bipartition enumeration over {n} parties exceeds the cap of {MAX_GGM_PARTIES}"
        )
    # every unordered cut exactly once: the side containing the first label
    lefts = [(0,) + rest for r in range(1, n) for rest in combinations(range(1, n), r - 1)]
    sides = np.array([[p in pos for p in range(n)] for pos in lefts])
    top = np.zeros(len(lefts))
    for members, mats in _cut_matrices(psi, layout, sides):
        # the full decomposition, as in schmidt_coefficients
        top[members] = np.linalg.svd(mats, full_matrices=False)[1][:, 0]
    # pow(s, 2), as a float's s**2 computes it; an array's ** 2 is s * s,
    # which rounds another way for about 1 value in 1000
    top = np.float_power(top, 2)
    bad = ~((0.0 < top) & (top <= 1.0 + STRUCTURAL_TOL))  # NaN too
    if bad.any():
        raise ValueError(f"top squared Schmidt coefficient {float(top[bad][0])} out of (0, 1]")
    top.setflags(write=False)
    return top


def ggm(psi: Ket, layout: SubsystemLayout) -> float:
    """Generalized geometric measure of a pure multipartite state.

    One minus the largest squared top Schmidt coefficient over all
    bipartitions; 0 for states product across some cut, (d-1)/d for
    d-level GHZ states.
    """
    return _clamp(float(1.0 - bipartition_reports(psi, layout).max()), "GGM")


def is_maximally_entangled(
    psi: Ket, layout: SubsystemLayout, left_labels, tol: float | None = None
) -> bool:
    """True iff all Schmidt coefficients across the cut equal 1/sqrt(m)."""
    tol = policy.spectral_tol if tol is None else float(tol)
    coeffs = schmidt_coefficients(psi, layout, left_labels)
    return bool(np.abs(coeffs - 1.0 / np.sqrt(len(coeffs))).max() <= tol)


def helstrom_error(
    rho0: DensityMatrix, rho1: DensityMatrix, p0: float | np.ndarray
) -> float | np.ndarray:
    """Minimal error probability for discriminating rho0 (prior p0) from rho1:
    a float, or for two stacks an array of one per row, with one prior per
    row; a prior outside [0, 1] (or NaN) in any row raises."""
    p = np.asarray(p0, dtype=float)
    ok = (0.0 <= p) & (p <= 1.0)  # NaN too
    if not _every(ok):
        raise ValueError(f"prior {p[~ok][0] if p.ndim else p0} out of [0, 1]")
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    p = p[..., None, None]
    eigs = np.linalg.eigvalsh(p * rho0.entries - (1.0 - p) * rho1.entries)
    return _clamp(0.5 * (1.0 - np.abs(eigs).sum(axis=-1)), "Helstrom error", 0.5)


def total_variation(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(0.5 * np.abs(p - q).sum())

"""Global numeric policy: tolerances and resource guards.

Every structural invariant (hermiticity, normalization, trace) is checked
against ``structural_tol``; everything that goes through an eigen- or
singular-value decomposition uses the looser ``spectral_tol``.  A single
module-level :data:`policy` instance is consulted by all modules; callers
that need different tolerances either pass an explicit ``tol`` argument or
set the policy fields.  Each CLI command sets ``max_dim`` and
``spectral_tol`` from its flags and restores them when it ends.
:func:`guard_dimension` is the one size rule; a dense site calls it with what
it is about to allocate, before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass


class ResourceGuardError(ValueError):
    """Raised when a requested computation exceeds the configured size limits."""


@dataclass
class NumericPolicy:
    structural_tol: float = 1e-12
    spectral_tol: float = 1e-10
    psd_floor: float = -1e-10
    zero_operator_tol: float = 1e-14
    null_branch_tol: float = 1e-12
    max_dim: int = 4096
    max_ggm_parties: int = 6


policy = NumericPolicy()


def guard_dimension(dim: int, what: str, count: int = 1) -> None:
    """Refuse ``count`` matrices of dimension ``dim`` holding more entries
    than one ``max_dim`` x ``max_dim`` matrix: ``count * dim**2 > max_dim**2``."""
    if dim > policy.max_dim:
        raise ResourceGuardError(
            f"{what} needs total dimension {dim}, above the configured "
            f"limit of {policy.max_dim}"
        )
    need, cap = count * dim * dim * 16, policy.max_dim**2 * 16
    if need > cap:
        raise ResourceGuardError(
            f"{what} needs {count} matrices of dimension {dim} ({need / 1e6:.3g} MB), "
            f"above the {cap / 1e6:.3g} MB of one matrix at the limit of {policy.max_dim}"
        )

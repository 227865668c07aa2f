"""Global numeric policy: tolerances and resource guards.

Every structural invariant (hermiticity, normalization, trace) is checked
against ``structural_tol``; everything that goes through an eigen- or
singular-value decomposition uses the looser ``spectral_tol``.  A single
module-level :data:`policy` instance is consulted by all modules; callers
that need different tolerances either pass an explicit ``tol`` argument or
set the policy fields.  Each CLI command sets ``max_dim`` and
``spectral_tol`` from its flags and restores them when it ends.
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


def guard_dimension(dim: int, what: str) -> None:
    if dim > policy.max_dim:
        raise ResourceGuardError(
            f"{what} needs total dimension {dim}, above the configured "
            f"limit of {policy.max_dim}"
        )

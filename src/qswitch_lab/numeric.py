"""Numeric policy: tolerances and resource guards.

The policy is two settable values, held by the one module-level
:data:`policy` that every module reads: ``spectral_tol``, the tolerance of
everything that goes through an eigen- or singular-value decomposition, and
``max_dim``, the size limit.  Each CLI command sets them from its flags and
restores them when it ends; a caller that needs another tolerance passes an
explicit ``tol``.  Every other rule is a fixed constant of this module.
:func:`guard_dimension` is the one size rule; a dense site calls it with what
it is about to allocate, before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass

STRUCTURAL_TOL = 1e-12  # hermiticity, normalization and trace
PSD_FLOOR = -1e-10  # the least eigenvalue a positive semidefinite matrix may show
ZERO_OPERATOR_TOL = 1e-14  # a Kraus operator (or eigenvalue) no larger is zero
NULL_BRANCH_TOL = 1e-12  # a measurement branch of lower probability is null
MAX_GGM_PARTIES = 6  # the most parties whose bipartitions the GGM enumerates


class ResourceGuardError(ValueError):
    """Raised when a requested computation exceeds the configured size limits."""


@dataclass
class NumericPolicy:
    spectral_tol: float = 1e-10
    max_dim: int = 4096

    def __setattr__(self, name: str, value) -> None:
        # a name that is not a field, such as a rule that is now a constant,
        # would otherwise be set and never read
        if name not in self.__dataclass_fields__:
            raise AttributeError(
                f"NumericPolicy has no setting {name!r}; its settings are "
                + " and ".join(self.__dataclass_fields__)
            )
        super().__setattr__(name, value)


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

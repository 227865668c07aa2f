"""Deterministic simulator for coherently controlled quantum channels.

The package builds channels whose configuration (execution order or channel
choice) is selected by a quantum control system that may be entangled with
the transmitted data, and verifies the resulting identities and protocol
guarantees numerically: private classical transmission, bipartite
entanglement establishment, and multipartite GHZ distribution over
information-erasing channels.
"""

from .channels import (
    ChannelComparison,
    ChoiMatrix,
    ExtendedChannel,
    KrausChannel,
    apply_coincidence,
    channels_equal,
    choi,
    erasing_channel,
    vacuum_extend,
)
from .combinators import (
    TDecomposition,
    coincidence_extensions,
    controlled_choice,
    cyclic_switch,
    k_multiline,
    k_multiline_enumerated,
    t_decomposition,
    target_sector_restriction,
)
from .linalg import (
    DensityMatrix,
    Ket,
    MeasurementBranch,
    SubsystemLayout,
    apply_phases,
    basis_ket,
    fidelity_with_ket,
    fourier_basis,
    fourier_ket,
    ghz_ket,
    partial_trace,
    projective_measure,
    schmidt_coefficients,
    trace_distance,
)
from .metrics import (
    concurrence_2qubit,
    ggm,
    helstrom_error,
    is_maximally_entangled,
)
from .numeric import NumericPolicy, ResourceGuardError, policy
from .protocols import (
    Branch,
    ProtocolTranscript,
    ResourceState,
    classical_flag_encodings,
    clone_fan_out,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    necessity_sweep,
    phase_vector,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
    run_private_dit_ensemble,
)

__version__ = "0.1.0"

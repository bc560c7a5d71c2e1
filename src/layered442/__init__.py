"""Simulation and certification toolkit for a layered three-photon state.

The package rebuilds the full experimental pipeline of a (4, 4, 2)
entangled photonic state: circuit-level generation with post-selection,
Poissonian measurement statistics, dimensionality witnessing against the
3/4 class bound, and layered quantum-key-distribution rate analysis.
"""

from .hilbert import (
    DensityOperator,
    PureState,
    SchmidtData,
    basis_state,
    fidelity_pure,
    partial_trace,
    rank_vector,
    schmidt_decompose,
)
from .circuit import (
    CircuitOutcome,
    apply_white_noise,
    bell_pair,
    circuit_psi442,
    dimension_double,
    ghz_fuse,
    hwp_matrix,
    make_psi442,
)
from .witness import (
    Certification,
    ElementEstimate,
    RankVectorClass,
    certify_dimensionality,
    fidelity_from_elements,
    fmax_class_bound,
    ghz_witness_value,
    max_overlap_bounded_rank,
    offdiag_from_correlators,
    offdiag_from_pair_correlators,
    search_class_overlap,
    subspace_fidelity,
)
from .tomography import (
    CountRecord,
    ExperimentPlan,
    MeasurementSetting,
    born_probabilities,
    estimate_elements,
    exact_records,
    monte_carlo_errors,
    simulate_counts,
    standard_plan,
)
from .qkd import (
    LAYERS,
    LayerKeyReport,
    LayerSpec,
    QberReport,
    asymptotic_key_rate,
    binary_entropy,
    compute_qbers,
    key_map_ab,
    key_map_abc,
)

__version__ = "0.1.0"

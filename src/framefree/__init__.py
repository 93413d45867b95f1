"""Fisher-information engine for two-copy twirled network states.

Builds locally and globally unitary-invariant two-copy states from encoded
probe pairs, computes quantum and classical Fisher information for the
reversed- and identical-encoding protocols and for five measurement
strategies, and verifies every closed form against brute-force
density-matrix oracles at desk scale.
"""

from .tensor import (
    DensityOperator,
    QuditLayout,
    StateVector,
    dim_cap,
    haar_unitary,
    hamming,
    hermitian_eig,
    kron,
    local_unitary,
    partial_trace,
    swap_operator,
)
from .states import (
    IE,
    RE,
    EncodedPair,
    HamiltonianSpec,
    distributed_encode,
    evolve,
    ghz_state,
    make_pair,
    product_plus_state,
)
from .twirl import (
    GuiState,
    LuiState,
    g_twirl_apply,
    ghz_lui,
    global_overlap,
    gui_density,
    gui_state,
    lui_coefficients,
    lui_density,
    mc_local_twirl,
    product_lui,
    swap_overlaps,
)
from .fisher import (
    FisherResult,
    SpectrumEntry,
    f0,
    lui_spectrum,
    qfi_from_spectrum,
    qfi_ghz_closed,
    qfi_gui_ghz_closed,
    qfi_gui_re,
    qfi_ie_general,
    qfi_m_site_closed,
    qfi_one_site_closed,
    qfi_product_closed,
    qfi_re_general,
)
from .measure import (
    EstimationRun,
    OutcomeDistribution,
    cfi,
    cfi_dm,
    cfi_grm,
    cfi_gst,
    cfi_lbm,
    cfi_lst,
    estimation_experiment,
    mle_estimate,
    probs_dm,
    probs_gst,
    probs_lbm,
    probs_lst,
    sample_outcomes,
)
from .verify import (
    CommutantQuery,
    CommutantResult,
    DistanceReport,
    commutant_dimension,
    invariance_suite,
    mc_convergence,
    trace_distance,
)

__version__ = "0.1.0"

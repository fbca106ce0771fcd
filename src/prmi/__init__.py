"""Doubly minimized Petz-Renyi mutual information via alternating minimization.

The package computes inf over product states of the Petz divergence of order
alpha from a fixed bipartite state, with certified stopping rules for
alpha in (1/2, 1) (sublinear rate) and alpha in (1, 2] (linear rate), the
classical PMF specialization, and brute-force grid oracles for validation.
"""

from .am_engine import (
    AmConfig,
    ContractionReport,
    ConvergenceTrace,
    LinearConstants,
    MonotonicityViolation,
    NoCertificate,
    NotStrictlyPositive,
    OrthogonalInitializer,
    SublinearConstants,
    TraceRecord,
    algorithm1,
    algorithm2,
    contraction_probe,
    kappa_estimate,
    linear_constants,
    restrict_initializer,
    run_uncertified,
    spectrum_floors,
    sublinear_constants,
)
from .classical_rmi import (
    JointPmf,
    Pmf,
    algorithm_classical,
    birkhoff_kappa_classical,
    cc_embed,
    cross_ratio_diameter,
    d_alpha_classical,
    n_x_to_y,
    n_y_to_x,
    run_uncertified_classical,
)
from .hilbert_metric import (
    SupportMismatch,
    d_h,
    d_h_bound_from_spectra,
    d_h_vec,
    m_ratio,
    m_ratio_vec,
    tensor_additivity_residual,
)
from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    DimMismatch,
    HermitianOperator,
    InvalidExponent,
    InvalidOperator,
    SupportCutoff,
    SupportRelation,
    ZeroOperator,
    eig_hermitian,
    min_nonzero_eig,
    partial_trace,
    power_on_support,
    random_density,
    schatten_norm,
    support_relation,
)
from .oracle import OracleResult, TooLarge, grid_min_classical, grid_min_quantum_qubit, kl_reference
from .petz_divergence import (
    DomainViolation,
    UnsupportedOrder,
    d_alpha,
    partial_min_sigma,
    partial_min_tau,
    q_alpha,
    sibson_residual,
)

__version__ = "0.1.0"

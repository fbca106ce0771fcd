"""Doubly minimized Petz-Renyi mutual information via alternating minimization.

The package computes inf over product states of the Petz divergence of order
alpha from a fixed bipartite state, with certified stopping rules for
alpha in (1/2, 1) (sublinear rate) and alpha in (1, 2] (linear rate), the
classical PMF specialization, and brute-force grid oracles for validation.
"""

import importlib

from .am_engine import (
    AmConfig,
    ConvergenceTrace,
    LinearConstants,
    MonotonicityViolation,
    NoCertificate,
    OrthogonalInitializer,
    SublinearConstants,
    TraceRecord,
    algorithm1,
    algorithm2,
    linear_constants,
    restrict_initializer,
    run_uncertified,
    spectrum_floors,
    sublinear_constants,
)
from .classical_rmi import (
    JointPmf,
    NotStrictlyPositive,
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
from .hilbert_metric import d_h
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
from .petz_divergence import DomainViolation, UnsupportedOrder, d_alpha

__version__ = "0.1.0"

# The grid oracles validate solves; no solve or CLI run calls them, so
# ``oracle`` is imported on first use of one of its names (PEP 562).
_ORACLE_NAMES = ("OracleResult", "TooLarge", "grid_min_classical", "grid_min_quantum_qubit", "kl_reference")

__all__ = [
    "AmConfig",
    "BipartiteState",
    "ConvergenceTrace",
    "DEFAULT_CUT",
    "DimMismatch",
    "DomainViolation",
    "HermitianOperator",
    "InvalidExponent",
    "InvalidOperator",
    "JointPmf",
    "LinearConstants",
    "MonotonicityViolation",
    "NoCertificate",
    "NotStrictlyPositive",
    "OrthogonalInitializer",
    "Pmf",
    "SublinearConstants",
    "SupportCutoff",
    "SupportRelation",
    "TraceRecord",
    "UnsupportedOrder",
    "ZeroOperator",
    "algorithm1",
    "algorithm2",
    "algorithm_classical",
    "birkhoff_kappa_classical",
    "cc_embed",
    "cross_ratio_diameter",
    "d_alpha",
    "d_alpha_classical",
    "d_h",
    "eig_hermitian",
    "linear_constants",
    "min_nonzero_eig",
    "n_x_to_y",
    "n_y_to_x",
    "oracle",
    "partial_trace",
    "power_on_support",
    "random_density",
    "restrict_initializer",
    "run_uncertified",
    "run_uncertified_classical",
    "schatten_norm",
    "spectrum_floors",
    "sublinear_constants",
    "support_relation",
    *_ORACLE_NAMES,
]


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import oracle``: the latter asks this hook again.
    oracle = importlib.import_module(".oracle", __name__)
    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

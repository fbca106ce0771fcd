"""Hilbert's projective metric on the PSD cone and on nonnegative vectors.

The dominance functional M(X/Y) = ||Y^(-1/2) X Y^(-1/2)||_inf and the
projective distance d_H(X, Y) = log(M(X/Y) M(Y/X)) drive the linear-rate
certificate; +inf is returned whenever the supports do not match.
"""

from __future__ import annotations

import math

import numpy as np

from .operator_core import (
    DEFAULT_CUT,
    HermitianOperator,
    SupportCutoff,
    SupportRelation,
    ZeroOperator,
    min_nonzero_eig,
    support_eigh,
    support_relation,
)

# Extended nonnegative real; math.inf marks mismatched supports.
ProjectiveDistance = float


class SupportMismatch(Exception):
    """Arguments were required to have equal supports but do not."""


def m_ratio(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> float:
    """Dominance functional M(X/Y); +inf when X is not dominated by Y.

    X is compressed to the support of Y before inverting, so the value is
    well-defined under the cutoff whenever the dominance check passes.
    """
    wy, vs = support_eigh(y.entries, cut)
    if not wy.size:
        raise ZeroOperator("M(X/Y) undefined for Y = 0")
    rel = support_relation(x, y, cut)
    if rel not in (SupportRelation.DOMINATED, SupportRelation.EQUAL_SUPPORT):
        return math.inf
    inv_sqrt = 1.0 / np.sqrt(wy)
    compressed = vs.conj().T @ x.entries @ vs
    t = compressed * np.outer(inv_sqrt, inv_sqrt)
    lam = np.linalg.eigvalsh((t + t.conj().T) / 2.0)
    return float(np.max(np.abs(lam))) if lam.size else 0.0


def d_h(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> ProjectiveDistance:
    """Projective distance log(M(X/Y) M(Y/X)); 0 for X = Y = 0, +inf off-support."""
    rel = support_relation(x, y, cut)
    x_zero = float(np.max(np.abs(x.entries))) == 0.0
    y_zero = float(np.max(np.abs(y.entries))) == 0.0
    if x_zero and y_zero:
        return 0.0
    if rel is not SupportRelation.EQUAL_SUPPORT or y_zero:
        return math.inf
    prod = m_ratio(x, y, cut) * m_ratio(y, x, cut)
    return max(math.log(prod), 0.0)


def d_h_bound_from_spectra(
    sigma: HermitianOperator, tau: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> float:
    """Spectral upper bound on d_H for equal-support states.

    Returns -2 log min(min nonzero eig sigma, min nonzero eig tau).
    """
    if support_relation(sigma, tau, cut) is not SupportRelation.EQUAL_SUPPORT:
        raise SupportMismatch("spectral bound requires equal supports")
    lam = min(min_nonzero_eig(sigma, cut), min_nonzero_eig(tau, cut))
    return -2.0 * math.log(lam)


def tensor_additivity_residual(
    x_a: HermitianOperator,
    y_a: HermitianOperator,
    x_b: HermitianOperator,
    y_b: HermitianOperator,
    cut: SupportCutoff = DEFAULT_CUT,
) -> float:
    """|d_H(X_a⊗X_b, Y_a⊗Y_b) - d_H(X_a, Y_a) - d_H(X_b, Y_b)|; test probe."""
    joint = d_h(
        HermitianOperator._wrap(np.kron(x_a.entries, x_b.entries)),
        HermitianOperator._wrap(np.kron(y_a.entries, y_b.entries)),
        cut,
    )
    return abs(joint - d_h(x_a, y_a, cut) - d_h(x_b, y_b, cut))


def m_ratio_vec(p, q, rel_tol: float = DEFAULT_CUT.rel_tol) -> float:
    """Classical dominance functional: max of P/Q over the support of Q."""
    pv = np.asarray(p, dtype=np.float64).ravel()
    qv = np.asarray(q, dtype=np.float64).ravel()
    if pv.shape != qv.shape:
        raise ValueError("shape mismatch")
    if not qv.max(initial=0.0) > 0.0:
        raise ZeroOperator("M(P/Q) undefined for Q = 0")
    supp_q = qv > rel_tol * qv.max()
    mass_outside = float(pv[~supp_q].max(initial=0.0))
    if mass_outside > rel_tol * max(pv.max(initial=0.0), 1e-300):
        return math.inf
    return float(np.max(pv[supp_q] / qv[supp_q]))


def d_h_vec(p, q, rel_tol: float = DEFAULT_CUT.rel_tol) -> ProjectiveDistance:
    """Projective distance between nonnegative vectors."""
    pv = np.asarray(p, dtype=np.float64).ravel()
    qv = np.asarray(q, dtype=np.float64).ravel()
    p_zero = not pv.max(initial=0.0) > 0.0
    q_zero = not qv.max(initial=0.0) > 0.0
    if p_zero and q_zero:
        return 0.0
    if p_zero or q_zero:
        return math.inf
    m1 = m_ratio_vec(pv, qv, rel_tol)
    m2 = m_ratio_vec(qv, pv, rel_tol)
    if math.isinf(m1) or math.isinf(m2):
        return math.inf
    return max(math.log(m1 * m2), 0.0)

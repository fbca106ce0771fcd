"""Hilbert's projective metric on the PSD cone and on nonnegative vectors.

The dominance functional M(X/Y) = ||Y^(-1/2) X Y^(-1/2)||_inf and the
projective distance d_H(X, Y) = log(M(X/Y) M(Y/X)) drive the linear-rate
certificate; +inf is returned whenever the supports do not match.

Both come from the support eigenpairs of the two arguments: X's support part
compressed to supp Y (C = V^dag X V = B B^dag, ``operator_core._overlap_pair``
gives the factor B) is whitened by Y's support eigenvalues, and the whitened
spectrum lam gives M(X/Y) = max lam and, on equal supports,
d_H = log(max lam / min lam).  X << Y is ``operator_core._dominated`` on
tr C = ||B||_F^2, and Y << X holds when every whitened eigenvalue is above the
cutoff; d_H is symmetric at the cutoff.  For vectors the whitened spectrum is
the ratio P/Q.
"""

from __future__ import annotations

import math

import numpy as np

from .operator_core import (
    DEFAULT_CUT,
    HermitianOperator,
    SupportCutoff,
    ZeroOperator,
    _dominated,
    _inside,
    _overlap_pair,
)

# Extended nonnegative real; math.inf marks mismatched supports.
ProjectiveDistance = float


class SupportMismatch(Exception):
    """Arguments were required to have equal supports but do not."""


def _whitened_eigvals(factor: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Ascending spectrum of Y^(-1/2) X Y^(-1/2) on supp Y: that of K K^dag, K = Y^(-1/2) B."""
    k = factor / np.sqrt(wy)[:, None]
    return np.linalg.eigvalsh(k @ k.conj().T)


def spread_distance(top: float, low: float, rel_tol: float) -> ProjectiveDistance:
    """d_H = log(top/low) from the extreme whitened values of X against Y on supp Y.

    Y << X exactly when the smallest value is above the cutoff, so the
    distance is +inf otherwise.  For vectors the whitened values are the
    ratios P/Q on the support of Q.
    """
    if not low > rel_tol * top:
        return math.inf
    return max(math.log(top / low), 0.0)


def whitened_distance(
    factor: np.ndarray, mass: float, wy: np.ndarray, cut: SupportCutoff
) -> ProjectiveDistance:
    """d_H(X, Y) from Y's support eigenvalues ``wy`` and X compressed to supp Y.

    ``factor`` is the ``_overlap`` factor B, with B B^dag = V^dag X V for Y's
    support eigenvectors V, and ``mass`` is tr X.  One ``eigvalsh`` of the
    r x r whitened compression gives both the distance and the check Y << X;
    X << Y is read off the traces.  +inf when either support check fails.
    """
    if not _dominated(_inside(factor), mass, cut):
        return math.inf
    lam = _whitened_eigvals(factor, wy)
    return spread_distance(float(lam[-1]), float(lam[0]), cut.rel_tol)


def m_ratio(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> float:
    """Dominance functional M(X/Y); +inf when X is not dominated by Y.

    X's support part is compressed to the support of Y before inverting, so the
    value is well-defined under the cutoff whenever the dominance check passes.
    """
    wx, wy, factor = _overlap_pair(x, y, cut)
    if not wy.size:
        raise ZeroOperator("M(X/Y) undefined for Y = 0")
    if not _dominated(_inside(factor), float(wx.sum()), cut):
        return math.inf
    return float(np.max(np.abs(_whitened_eigvals(factor, wy))))


def d_h(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> ProjectiveDistance:
    """Projective distance log(M(X/Y) M(Y/X)); 0 for X = Y = 0, +inf off-support.

    One ``support_eigh`` per argument and one ``eigvalsh`` (:func:`whitened_distance`).
    """
    wx, wy, factor = _overlap_pair(x, y, cut)
    if not wy.size:
        return 0.0 if not wx.size else math.inf
    return whitened_distance(factor, float(wx.sum()), wy, cut)


def d_h_bound_from_spectra(
    sigma: HermitianOperator, tau: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> float:
    """Spectral upper bound on d_H for equal-support states.

    Returns -2 log min(min nonzero eig sigma, min nonzero eig tau), all read
    off one :func:`operator_core._overlap_pair` (two ``support_eigh``): the
    supports are equal when sigma << tau and the ranks agree.
    """
    ws, wt, factor = _overlap_pair(sigma, tau, cut)
    if ws.size != wt.size or not _dominated(_inside(factor), float(ws.sum()), cut):
        raise SupportMismatch("spectral bound requires equal supports")
    if not ws.size:
        raise ZeroOperator("operator vanishes at the cutoff")
    return -2.0 * math.log(min(ws[0], wt[0]))


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
    if math.isinf(m_ratio_vec(pv, qv, rel_tol)):
        return math.inf
    supp_q = qv > rel_tol * qv.max()
    ratio = pv[supp_q] / qv[supp_q]
    return spread_distance(ratio.max(), ratio.min(), rel_tol)

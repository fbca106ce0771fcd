"""Hilbert's projective metric on the PSD cone and on nonnegative vectors.

The projective distance d_H(X, Y) = log(M(X/Y) M(Y/X)), with the dominance
functional M(X/Y) = ||Y^(-1/2) X Y^(-1/2)||_inf, drives the linear-rate
certificate; +inf is returned whenever the supports do not match.

It comes from the support eigenpairs of the two arguments: X's support part
compressed to supp Y (C = V^dag X V = B B^dag, ``operator_core._overlap_pair``
gives the factor B) is whitened by Y's support eigenvalues, and on equal
supports the whitened spectrum lam gives d_H = log(max lam / min lam)
(``whitened_distance``, which the quantum stepper calls directly).  X << Y
is ``operator_core._dominated`` on tr C = ||B||_F^2, and Y << X holds when
every whitened eigenvalue is above the cutoff; d_H is symmetric at the
cutoff.  For vectors the whitened spectrum is the ratio P/Q, and
``spread_distance`` serves both.  M(X/Y) itself and the vector functionals
are test references, in ``tests/references.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .operator_core import (
    DEFAULT_CUT,
    HermitianOperator,
    SupportCutoff,
    _dominated,
    _eigvalsh,
    _inside,
    _overlap_pair,
)

# Extended nonnegative real; math.inf marks mismatched supports.
ProjectiveDistance = float


def _whitened_eigvals(factor: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Ascending spectrum of Y^(-1/2) X Y^(-1/2) on supp Y: that of K K^dag, K = Y^(-1/2) B."""
    k = factor / np.sqrt(wy)[:, None]
    return _eigvalsh(k @ k.conj().T)


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

"""Petz Renyi divergence, its order domain, and rho^alpha.

The divergence of order alpha is ``log(tr[rho^a sigma^(1-a)]) / (a - 1)`` on
its domain and +inf otherwise; ``_check_alpha`` is the order domain of every
entry point.  For a bipartite state and a fixed marginal argument, minimizing
over the other product factor has a closed form, which the engine's gemv
half-steps apply to ``_rho_alpha_tensor``.  The tests' references, the power
form ``q_alpha`` of the trace term and the einsum minimizers, are in
``tests/references.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    HermitianOperator,
    SupportCutoff,
    _dominated,
    _inside,
    _orthogonal,
    _overlap_pair,
)

# +inf encodes a divergence outside its finiteness domain.
DivergenceValue = float

UNDERFLOW_Q = 1e-300


class UnsupportedOrder(ValueError):
    """alpha = 1 is excluded; use the mutual-information reference instead."""


class DomainViolation(Exception):
    """Support conditions for finiteness / well-definedness fail."""


def _check_alpha(alpha: float) -> None:
    """The order domain of every entry point: finite alpha > 0 and alpha != 1."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha == 1.0:
        raise UnsupportedOrder("alpha = 1 is not supported; see oracle.kl_reference")


def d_alpha(
    rho: HermitianOperator,
    sigma: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> DivergenceValue:
    """Petz divergence of order alpha; +inf outside the domain.

    Domain and trace term come from one ``_overlap_pair`` (two ``eigh``): rho
    not orthogonal to sigma, and rho << sigma above order one; with
    |B_ji|^2 = wx_i |<y_j|x_i>|^2, tr[rho^a sigma^(1-a)] = wy^(1-a) |B|^2 wx^(a-1).
    """
    _check_alpha(alpha)
    wx, wy, overlap = _overlap_pair(rho, sigma, cut)
    mass, inside = float(wx.sum()), _inside(overlap)
    if _orthogonal(inside, mass, cut) or (alpha > 1 and not _dominated(inside, mass, cut)):
        return math.inf
    q = float(wy ** (1.0 - alpha) @ np.abs(overlap) ** 2 @ wx ** (alpha - 1.0))
    if q <= UNDERFLOW_Q:
        return math.inf
    return math.log(q) / (alpha - 1.0)


def _rho_alpha_tensor(rho_ab: BipartiteState, alpha: float, cut: SupportCutoff) -> np.ndarray:
    """rho^alpha on its support, shaped (d_a, d_b, d_a, d_b).

    V diag(w_cut^alpha) V^dag from the state's set-up at the cutoff, the
    kernel zeroed and V^dag formed once per state (``BipartiteState._setup``).
    """
    setup = rho_ab._setup(cut)
    ra = np.dot(rho_ab.spectrum[1] * setup.w_cut**alpha, setup.vh)
    return ra.reshape(rho_ab.d_a, rho_ab.d_b, rho_ab.d_a, rho_ab.d_b)

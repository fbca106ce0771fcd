"""Petz Renyi divergence, its trace functional, its order domain, and rho^alpha.

The divergence of order alpha is ``log(tr[rho^a sigma^(1-a)]) / (a - 1)`` on
its domain and +inf otherwise; ``_check_alpha`` is the order domain of every
entry point.  For a bipartite state and a fixed marginal argument, minimizing
over the other product factor has a closed form, which the engine's gemv
half-steps apply to ``_rho_alpha_tensor``; the einsum form of those
minimizers, the tests' reference for the half-steps, is in
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
    SupportRelation,
    _power,
    power_on_support,
    support_mask,
    support_relation,
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


def q_alpha(
    rho: HermitianOperator,
    sigma: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> float:
    """Trace functional tr[rho^alpha sigma^(1-alpha)], powers on supports; alpha = 1 is allowed."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    ra = power_on_support(rho, alpha, cut)
    sb = power_on_support(sigma, 1.0 - alpha, cut)
    val = float(np.trace(ra.entries @ sb.entries).real)
    return max(val, 0.0)


def domain_holds(
    rho: HermitianOperator,
    sigma: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> bool:
    """Finiteness domain: (alpha < 1 and rho not orthogonal to sigma) or rho << sigma."""
    rel = support_relation(rho, sigma, cut)
    if rel in (SupportRelation.DOMINATED, SupportRelation.EQUAL_SUPPORT):
        return True
    return alpha < 1 and rel is not SupportRelation.ORTHOGONAL


def d_alpha(
    rho: HermitianOperator,
    sigma: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> DivergenceValue:
    """Petz divergence of order alpha; +inf outside the domain."""
    _check_alpha(alpha)
    if not domain_holds(rho, sigma, alpha, cut):
        return math.inf
    q = q_alpha(rho, sigma, alpha, cut)
    if q <= UNDERFLOW_Q:
        return math.inf
    return math.log(q) / (alpha - 1.0)


def _rho_alpha_tensor(rho_ab: BipartiteState, alpha: float, cut: SupportCutoff) -> np.ndarray:
    """rho^alpha on its support from the cached spectrum, shaped (d_a, d_b, d_a, d_b)."""
    w, v = rho_ab.spectrum
    ra = _power(np.where(support_mask(w, cut), w, 0.0), v, alpha)
    return ra.reshape(rho_ab.d_a, rho_ab.d_b, rho_ab.d_a, rho_ab.d_b)

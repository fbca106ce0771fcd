"""Petz Renyi divergence, its trace functional, and the explicit partial minimizers.

The divergence of order alpha is ``log(tr[rho^a sigma^(1-a)]) / (a - 1)`` on
its domain and +inf otherwise.  For a bipartite state and a fixed marginal
argument, minimizing over the other product factor has a closed form; the
minimizers are exposed here as the einsum reference for the engine's gemv
half-steps, which also carry the closed-form minimized value.
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


def _contract_a(rho_alpha_4d: np.ndarray, s_a: np.ndarray) -> np.ndarray:
    """tr_A[rho^alpha (S_A ⊗ 1_B)] for a precomputed rho^alpha tensor."""
    return np.einsum("abcd,ca->bd", rho_alpha_4d, s_a)


def _contract_b(rho_alpha_4d: np.ndarray, t_b: np.ndarray) -> np.ndarray:
    """tr_B[rho^alpha (1_A ⊗ T_B)]."""
    return np.einsum("abcd,db->ac", rho_alpha_4d, t_b)


def _check_partial_domain(
    marginal: HermitianOperator, sigma: HermitianOperator, alpha: float, cut: SupportCutoff
) -> None:
    if not domain_holds(marginal, sigma, alpha, cut):
        why = "is not dominated by" if alpha > 1 else "has a support orthogonal to"
        raise DomainViolation(f"at alpha={alpha:g} the state marginal {why} the product factor")


def partial_min_tau(
    rho_ab: BipartiteState,
    sigma_a: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> HermitianOperator:
    """Unique minimizer over the B factor for a fixed A factor.

    Returns the normalized (tr_A[rho^alpha sigma_A^(1-alpha)])^(1/alpha).
    """
    _check_alpha(alpha)
    _check_partial_domain(rho_ab.marginal_a(), sigma_a, alpha, cut)
    r4 = _rho_alpha_tensor(rho_ab, alpha, cut)
    s = power_on_support(sigma_a, 1.0 - alpha, cut).entries
    w = HermitianOperator._wrap(_contract_a(r4, s))
    tau = power_on_support(w, 1.0 / alpha, cut)
    tr = tau.trace()
    if tr <= 0:
        raise DomainViolation("partial minimizer has vanishing trace")
    return HermitianOperator._wrap(tau.entries / tr)


def partial_min_sigma(
    rho_ab: BipartiteState,
    tau_b: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> HermitianOperator:
    """Mirror of :func:`partial_min_tau` with the roles of A and B swapped."""
    _check_alpha(alpha)
    _check_partial_domain(rho_ab.marginal_b(), tau_b, alpha, cut)
    r4 = _rho_alpha_tensor(rho_ab, alpha, cut)
    t = power_on_support(tau_b, 1.0 - alpha, cut).entries
    w = HermitianOperator._wrap(_contract_b(r4, t))
    sigma = power_on_support(w, 1.0 / alpha, cut)
    tr = sigma.trace()
    if tr <= 0:
        raise DomainViolation("partial minimizer has vanishing trace")
    return HermitianOperator._wrap(sigma.entries / tr)


def product_operator(sigma_a: HermitianOperator, tau_b: HermitianOperator) -> HermitianOperator:
    return HermitianOperator._wrap(np.kron(sigma_a.entries, tau_b.entries))


def sibson_residual(
    rho_ab: BipartiteState,
    sigma_a: HermitianOperator,
    tau_b: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> float:
    """|D(rho||sigma⊗tau) - D(rho||sigma⊗tau_hat) - D(tau_hat||tau)|.

    The decomposition through the optimal tau_hat holds identically; the
    residual probes the numerical pipeline.  If both sides are infinite the
    residual is zero.
    """
    tau_hat = partial_min_tau(rho_ab, sigma_a, alpha, cut)
    lhs = d_alpha(rho_ab.op, product_operator(sigma_a, tau_b), alpha, cut)
    mid = d_alpha(rho_ab.op, product_operator(sigma_a, tau_hat), alpha, cut)
    gap = d_alpha(tau_hat, tau_b, alpha, cut)
    if math.isinf(lhs) or math.isinf(mid) or math.isinf(gap):
        both_inf = math.isinf(lhs) and (math.isinf(mid) or math.isinf(gap))
        return 0.0 if both_inf else math.inf
    return abs(lhs - mid - gap)

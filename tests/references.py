"""Independent references and probes that the tests check ``prmi`` against.

No solve, CLI run or oracle calls these, so they live with the tests:

- ``q_alpha``: the Petz trace term tr[rho^alpha sigma^(1-alpha)] from two
  operator powers on the supports, and ``petz_domain``, the finiteness
  domain from ``support_relation``: the reference for ``prmi.d_alpha``'s
  overlap-factor form.
- ``partial_min_tau``/``partial_min_sigma``: the closed-form partial
  minimizers as einsum contractions of rho^alpha, the reference for the
  engine's gemv half-steps; ``product_operator`` and ``sibson_residual``
  check the decomposition of the divergence through them.
- ``m_ratio`` and ``d_h_bound_from_spectra``: the dominance functional
  M(X/Y) and a spectral bound on ``prmi.hilbert_metric.d_h``;
  ``tensor_additivity_residual`` probes d_H on tensor products; and
  ``m_ratio_vec``/``d_h_vec``, the same functionals on nonnegative vectors.
- ``contraction_probe``: the sampled contraction ratio of the A-to-B map in
  d_H; ``projective_diameter_from_vectors``: a lower bound on that map's
  projective diameter.
- ``bloch_grid``: the qubit oracle's grid, one (r, theta, phi) row per
  point, for the brute-force scans the oracle is checked against.
- ``pure_state_value`` and ``maximally_correlated_value``: the exact
  minimum of the information for a pure state and for a maximally
  correlated PMF or diagonal state, at every order above 1/2 and every
  size, as Renyi entropies (``renyi_entropy``) of the weights; a product
  state's minimum is 0.

Import them as the tests import ``conftest``: ``from references import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prmi.am_engine import _AmRun, _certificate
from prmi.hilbert_metric import _whitened_eigvals, d_h, spread_distance
from prmi.operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    HermitianOperator,
    SupportCutoff,
    SupportRelation,
    ZeroOperator,
    _dominated,
    _inside,
    _overlap_pair,
    power_on_support,
    random_density,
    support_pairs,
    support_relation,
)
from prmi.oracle import _bloch_axes
from prmi.petz_divergence import DomainViolation, _check_alpha, _rho_alpha_tensor, d_alpha

# ---------------------------------------------------------------- Petz trace term


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


def petz_domain(
    rho: HermitianOperator, sigma: HermitianOperator, alpha: float, cut: SupportCutoff = DEFAULT_CUT
) -> bool:
    """Finiteness domain of D_alpha(rho||sigma) from ``support_relation``.

    Below order one the supports must not be orthogonal; above it rho << sigma.
    """
    relation = support_relation(rho, sigma, cut)
    if alpha < 1:
        return relation is not SupportRelation.ORTHOGONAL
    return relation in (SupportRelation.DOMINATED, SupportRelation.EQUAL_SUPPORT)


# ---------------------------------------------------------------- partial minimizers


def _contract_a(rho_alpha_4d: np.ndarray, s_a: np.ndarray) -> np.ndarray:
    """tr_A[rho^alpha (S_A ⊗ 1_B)] for a precomputed rho^alpha tensor."""
    return np.einsum("abcd,ca->bd", rho_alpha_4d, s_a)


def _contract_b(rho_alpha_4d: np.ndarray, t_b: np.ndarray) -> np.ndarray:
    """tr_B[rho^alpha (1_A ⊗ T_B)]."""
    return np.einsum("abcd,db->ac", rho_alpha_4d, t_b)


def _check_partial_domain(
    marginal: HermitianOperator, sigma: HermitianOperator, alpha: float, cut: SupportCutoff
) -> None:
    if not petz_domain(marginal, sigma, alpha, cut):
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


# ---------------------------------------------------------------- Hilbert's projective metric


class SupportMismatch(Exception):
    """Arguments were required to have equal supports but do not."""


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


def d_h_bound_from_spectra(
    sigma: HermitianOperator, tau: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> float:
    """Spectral upper bound on d_H for equal-support states.

    Returns -2 log min(min nonzero eig sigma, min nonzero eig tau), all read
    off one ``operator_core._overlap_pair`` (two ``support_eigh``): the
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


def d_h_vec(p, q, rel_tol: float = DEFAULT_CUT.rel_tol) -> float:
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


# ---------------------------------------------------------------- contraction probes


@dataclass(frozen=True)
class ContractionReport:
    gamma: float
    max_ratio: float
    trials: int


def contraction_probe(
    rho_ab: BipartiteState,
    alpha: float,
    trials: int,
    rng: np.random.Generator | None = None,
    cut: SupportCutoff = DEFAULT_CUT,
) -> ContractionReport:
    """Sample the contraction ratio of the A-to-B map in the projective metric.

    Draws random pairs of states with the support of the A marginal and
    returns the largest observed ratio d_H(N(s), N(s')) / d_H(s, s'); for
    the orders with the linear certificate the ratio is bounded by
    gamma = 1 - 1/alpha, and other orders raise ``NoCertificate``.  A
    rank-one marginal, whose support holds a single state, is rejected.
    """
    _certificate(_AmRun, alpha, "linear")
    vs = support_pairs(*rho_ab.marginal_spectrum, cut)[1]
    if vs.shape[1] < 2:
        raise ValueError("contraction probe requires an A-marginal support of rank 2 or more")
    rng = np.random.default_rng(0) if rng is None else rng
    gamma = 1.0 - 1.0 / alpha
    max_ratio = 0.0
    done = 0
    while done < trials:
        # V^dag G G^dag V / tr for d_a x d_a Ginibre G: random_density(d_a) restricted.
        pair = [random_density(vs.shape[1], rng, rank=rho_ab.d_a).entries for _ in range(2)]
        s1, s2 = (HermitianOperator._wrap(vs @ m @ vs.conj().T) for m in pair)
        base = d_h(s1, s2, cut)
        if not math.isfinite(base) or base < 1e-12:
            continue
        mapped = d_h(
            partial_min_tau(rho_ab, s1, alpha, cut), partial_min_tau(rho_ab, s2, alpha, cut), cut
        )
        max_ratio = max(max_ratio, mapped / base)
        done += 1
    return ContractionReport(gamma=gamma, max_ratio=max_ratio, trials=trials)


def projective_diameter_from_vectors(
    rho_ab: BipartiteState,
    alpha: float,
    vectors: np.ndarray,
    cut: SupportCutoff = DEFAULT_CUT,
) -> float:
    """Largest d_H between compressions <v| rho^alpha |v> over the given A vectors.

    The compressions are operators on B; their pairwise projective distances
    lower-bound the projective diameter of the contraction map.
    """
    r4 = _rho_alpha_tensor(rho_ab, alpha, cut)
    mats = []
    for v in vectors:
        v = np.asarray(v, dtype=np.complex128)
        m = np.einsum("abcd,a,c->bd", r4, v.conj(), v)
        mats.append(HermitianOperator._wrap(m))
    delta = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            delta = max(delta, d_h(mats[i], mats[j], cut))
    return delta


# ---------------------------------------------------------------- closed-form values


def renyi_entropy(weights, order: float) -> float:
    """H_order(p) = log(sum p^order) / (1 - order) on the nonzero weights of a PMF; order != 1."""
    p = np.asarray(weights, dtype=np.float64)
    return math.log(float(np.sum(p[p > 0] ** order))) / (1.0 - order)


def pure_state_value(weights, alpha: float) -> float:
    """x* of a pure state whose squared Schmidt coefficients are ``weights``, alpha > 1/2.

    x* = 2 H_beta(weights) with beta = 1/(2 alpha - 1): the value at the
    Schmidt-diagonal sigma = tau with eigenvalues proportional to
    weights^beta, which a Lagrange computation gives; that it is the minimum
    is checked numerically (``tests/test_closed_forms.py``).
    """
    return 2.0 * renyi_entropy(weights, 1.0 / (2.0 * alpha - 1.0))


def maximally_correlated_value(weights, alpha: float) -> float:
    """x* of the PMF diag(weights), and of the diagonal state with those weights, alpha > 1/2.

    x* = H_{alpha/(2 alpha - 1)}(weights); uniform weights on d points give log d.
    """
    return renyi_entropy(weights, alpha / (2.0 * alpha - 1.0))


# ---------------------------------------------------------------- qubit oracle grid


def bloch_grid(step: float) -> np.ndarray:
    """(r, theta, phi) product grid of ``prmi.oracle._bloch_axes``, one row per point.

    The radius is the slowest axis and the azimuth the fastest, so each radius
    holds one contiguous block of (n+1)·n directions in the same order.
    """
    rr, tt, pp = np.meshgrid(*_bloch_axes(step), indexing="ij")
    return np.stack([rr.ravel(), tt.ravel(), pp.ravel()], axis=1)

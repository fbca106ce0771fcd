"""Classical specialization: PMFs, the classical iteration maps, and certificates.

A classical-classical state is a density matrix diagonal in a fixed product
basis; its joint PMF carries all the structure.  The iteration maps become
vector updates, the projective metric becomes a max-ratio over coordinates,
and the linear-rate certificate extends to every alpha > 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .am_engine import (
    AmConfig,
    ConvergenceTrace,
    LinearConstants,
    NotStrictlyPositive,
    OrthogonalInitializer,
    _drive,
    _linear_certificate,
    _linear_constants,
    _no_certificate,
    algorithm2,
    step_floor,
)
from .hilbert_metric import spread_distance
from .operator_core import DEFAULT_CUT, BipartiteState, HermitianOperator, support_mask
from .petz_divergence import DomainViolation, UnsupportedOrder

_SUM_TOL = 1e-12


def _readonly_float(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pmf:
    """Nonnegative weights summing to one."""

    weights: np.ndarray

    @classmethod
    def from_weights(cls, weights) -> "Pmf":
        w = np.asarray(weights, dtype=np.float64).ravel()
        if np.any(w < 0):
            raise ValueError("PMF weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"PMF weights sum to {w.sum()}, not 1")
        return cls(_readonly_float(w))

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class JointPmf:
    """Nonnegative |X| x |Y| matrix summing to one."""

    weights: np.ndarray

    @classmethod
    def from_weights(cls, weights) -> "JointPmf":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"joint PMF must be a matrix, got shape {w.shape}")
        if np.any(w < 0):
            raise ValueError("PMF weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"PMF weights sum to {w.sum()}, not 1")
        return cls(_readonly_float(w))

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def marginal_x(self) -> Pmf:
        return Pmf.from_weights(self.weights.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf.from_weights(self.weights.sum(axis=0))


def _as_array(p) -> np.ndarray:
    if isinstance(p, (Pmf, JointPmf)):
        return p.weights
    return np.asarray(p, dtype=np.float64)


def _validated_joint(p) -> np.ndarray:
    """Weights of a :class:`JointPmf`; raw arrays are validated as one first."""
    if isinstance(p, JointPmf):
        return p.weights
    return JointPmf.from_weights(p).weights


def _pow_on_supp(v: np.ndarray, p: float) -> np.ndarray:
    out = np.zeros_like(v)
    m = support_mask(v, DEFAULT_CUT)
    out[m] = v[m] ** p
    return out


def d_alpha_classical(p, q, alpha: float) -> float:
    """Renyi divergence of order alpha between equally shaped weight arrays.

    The sum runs over the support of the first argument; for alpha > 1 any
    zero of the second argument inside that support gives +inf.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise UnsupportedOrder("alpha = 1 is not supported")
    pv = _as_array(p).ravel()
    qv = _as_array(q).ravel()
    if pv.shape != qv.shape:
        raise ValueError("shape mismatch")
    sp = support_mask(pv, DEFAULT_CUT)
    sq = support_mask(qv, DEFAULT_CUT)
    if alpha > 1 and np.any(sp & ~sq):
        return math.inf
    both = sp & sq
    if not both.any():
        return math.inf
    s = float(np.sum(pv[both] ** alpha * qv[both] ** (1.0 - alpha)))
    if s <= 0:
        return math.inf
    return math.log(s) / (alpha - 1.0)


def _check_classical_domain(p_marg: np.ndarray, q: np.ndarray, alpha: float) -> None:
    sp = support_mask(p_marg, DEFAULT_CUT)
    sq = support_mask(q, DEFAULT_CUT)
    if alpha > 1:
        if np.any(sp & ~sq):
            raise DomainViolation("alpha > 1 requires the marginal support inside the PMF support")
    elif not np.any(sp & sq):
        raise DomainViolation("marginal and PMF have disjoint supports")


def n_x_to_y(p_xy, q_x, alpha: float) -> Pmf:
    """Classical X-to-Y iteration map: normalized (sum_x P^alpha Q^(1-alpha))^(1/alpha)."""
    P = _as_array(p_xy)
    q = _as_array(q_x).ravel()
    _check_classical_domain(P.sum(axis=1), q, alpha)
    w = _pow_on_supp(q, 1.0 - alpha) @ _pow_on_supp(P, alpha)
    t = _pow_on_supp(w, 1.0 / alpha)
    return Pmf.from_weights(t / t.sum())


def n_y_to_x(p_xy, r_y, alpha: float) -> Pmf:
    """Classical Y-to-X iteration map, mirror of :func:`n_x_to_y`."""
    P = _as_array(p_xy)
    r = _as_array(r_y).ravel()
    _check_classical_domain(P.sum(axis=0), r, alpha)
    w = _pow_on_supp(P, alpha) @ _pow_on_supp(r, 1.0 - alpha)
    t = _pow_on_supp(w, 1.0 / alpha)
    return Pmf.from_weights(t / t.sum())


def cc_embed(p_xy) -> BipartiteState:
    """Diagonal bipartite state carrying the joint PMF (second index fastest)."""
    P = _as_array(p_xy)
    nx, ny = P.shape
    return BipartiteState.from_operator(
        HermitianOperator.diagonal(P.ravel()), nx, ny
    )


def cross_ratio_diameter(p_xy, alpha: float) -> float:
    """Exact projective diameter: alpha * max log cross-ratio of the joint PMF.

    Requires a strictly positive PMF.
    """
    P = _as_array(p_xy)
    if np.any(P <= 0):
        raise NotStrictlyPositive("cross-ratio diameter requires a strictly positive PMF")
    logp = np.log(P)
    delta = 0.0
    ny = P.shape[1]
    for y in range(ny):
        for yp in range(ny):
            diff = logp[:, y] - logp[:, yp]
            delta = max(delta, float(diff.max() - diff.min()))
    return alpha * delta


def birkhoff_kappa_classical(p_xy, alpha: float) -> float:
    """tanh(diameter/4): the improved contraction factor for positive PMFs."""
    return math.tanh(cross_ratio_diameter(p_xy, alpha) / 4.0)


def _restrict_pmf(q: np.ndarray, p_marg: np.ndarray) -> np.ndarray:
    mask = support_mask(p_marg, DEFAULT_CUT)
    restricted = np.where(mask, q, 0.0)
    tr = float(restricted.sum())
    if tr <= DEFAULT_CUT.rel_tol:
        raise OrthogonalInitializer("initializer has no mass on the marginal support")
    return restricted / tr


class _ClassicalRun:
    """Vector-arithmetic twin of the quantum run for a fixed joint PMF."""

    def __init__(self, P: np.ndarray, alpha: float, q0: np.ndarray) -> None:
        self.alpha = alpha
        self.wa = _pow_on_supp(P, alpha)
        self.q_x = q0
        self.prev_q: np.ndarray | None = None
        self.r_y: np.ndarray | None = None
        self.x = math.nan
        self.q = math.nan

    def x_to_y(self) -> None:
        w = _pow_on_supp(self.q_x, 1.0 - self.alpha) @ self.wa
        t = _pow_on_supp(w, 1.0 / self.alpha)
        s = float(t.sum())
        if s <= 0:
            raise DomainViolation("iterate collapsed to zero")
        self.r_y = t / s
        self.x = (self.alpha / (self.alpha - 1.0)) * math.log(s)
        self.q = s**self.alpha

    def y_to_x(self) -> None:
        w = self.wa @ _pow_on_supp(self.r_y, 1.0 - self.alpha)
        t = _pow_on_supp(w, 1.0 / self.alpha)
        self.q_x = t / float(t.sum())

    def full_step(self) -> None:
        self.prev_q = self.q_x
        self.y_to_x()
        self.x_to_y()

    def step_distance(self) -> float:
        """d_H(q_{n-1}, q_n) plus the rounding floor; +inf when the support changed."""
        supp = support_mask(self.prev_q, DEFAULT_CUT)
        if not np.array_equal(supp, support_mask(self.q_x, DEFAULT_CUT)):
            return math.inf
        ratio = self.q_x[supp] / self.prev_q[supp]
        dist = spread_distance(ratio.max(), ratio.min(), DEFAULT_CUT.rel_tol)
        return dist + step_floor(self.alpha, self.q_x.size + self.r_y.size, 1.0)

    def sigma_op(self) -> HermitianOperator:
        return HermitianOperator.diagonal(self.q_x)

    def tau_op(self) -> HermitianOperator:
        return HermitianOperator.diagonal(self.r_y)


def _linear_start(
    P: np.ndarray, q0_vec: np.ndarray, alpha: float
) -> tuple[_ClassicalRun, LinearConstants]:
    """Run after its first half-step from the restricted ``q0_vec``, with its linear constants."""
    run = _ClassicalRun(P, alpha, q0_vec)
    row_mass = run.wa.sum(axis=1)
    lam_a = float(row_mass[support_mask(row_mass, DEFAULT_CUT)].min())
    run.x_to_y()
    q0_min = float(q0_vec[support_mask(q0_vec, DEFAULT_CUT)].min())
    return run, _linear_constants(alpha, lam_a, run.q, q0_min)


def classical_linear_constants(p_xy, q0_pmf, alpha: float) -> LinearConstants:
    """Classical analogue of the linear-rate stopping constants, valid for alpha > 1."""
    if not alpha > 1.0:
        raise ValueError(f"classical linear constants require alpha > 1, got {alpha}")
    P = _as_array(p_xy)
    q0_vec = _restrict_pmf(_as_array(q0_pmf).ravel(), P.sum(axis=1))
    return _linear_start(P, q0_vec, alpha)[1]


def _initial_q(P: np.ndarray, config: AmConfig, q0) -> np.ndarray:
    p_x = P.sum(axis=1)
    if q0 is not None:
        raw = _as_array(q0).ravel()
    elif config.init == "marginal":
        raw = p_x
    elif config.init == "uniform":
        raw = np.full(P.shape[0], 1.0 / P.shape[0])
    else:
        if config.sigma0 is None:
            raise ValueError("init='explicit' requires sigma0 or an explicit PMF")
        raw = np.diag(config.sigma0.entries).real
    return _restrict_pmf(raw, p_x)


def algorithm_classical(p_xy, config: AmConfig, q0=None) -> ConvergenceTrace:
    """Certified classical run.

    For alpha > 1 the run is native vector arithmetic with the classical
    linear certificate (any alpha in (1, inf)); for alpha in (1/2, 1) the
    PMF is embedded as a diagonal state and certified through the quantum
    sublinear certificate, which coincides with the classical quantity on
    such states.
    """
    P = _validated_joint(p_xy)
    alpha = config.alpha
    if 0.5 < alpha < 1.0:
        sigma0 = HermitianOperator.diagonal(_initial_q(P, config, q0))
        return algorithm2(cc_embed(P), replace(config, init="explicit", sigma0=sigma0))
    if not alpha > 1.0:
        raise ValueError(
            f"certified classical runs require alpha in (1/2, 1) or (1, inf), got {alpha}"
        )
    t_start = time.perf_counter()
    run, consts = _linear_start(P, _initial_q(P, config, q0), alpha)
    return _drive(run, _linear_certificate(run, consts), config, config.max_iter, t_start)


def run_uncertified_classical(
    p_xy, config: AmConfig, num_iter: int, q0=None
) -> ConvergenceTrace:
    """Plain classical alternating minimization for exactly ``num_iter`` iterations."""
    if num_iter < 0:
        raise ValueError("num_iter must be nonnegative")
    P = _validated_joint(p_xy)
    t_start = time.perf_counter()
    run = _ClassicalRun(P, config.alpha, _initial_q(P, config, q0))
    run.x_to_y()
    return _drive(run, _no_certificate, config, num_iter, t_start)

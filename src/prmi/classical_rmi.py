"""Classical specialization: PMFs, the classical iteration maps, and certificates.

A classical-classical state is a density matrix diagonal in a fixed product
basis; its joint PMF carries all the structure.  The iteration maps become
vector updates, the projective metric becomes a max-ratio over coordinates,
and the linear-rate certificate extends to every alpha > 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .am_engine import (
    AmConfig,
    ConvergenceTrace,
    LinearConstants,
    NotStrictlyPositive,
    OrthogonalInitializer,
    TERMINATED_CERTIFICATE,
    TERMINATED_MAX_ITER,
    TraceRecord,
    _eps_linear,
    algorithm2,
)
from .operator_core import DEFAULT_CUT, BipartiteState, HermitianOperator
from .petz_divergence import DomainViolation, UnsupportedOrder

_REL_TOL = DEFAULT_CUT.rel_tol
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


def _supp(v: np.ndarray) -> np.ndarray:
    top = v.max(initial=0.0)
    return v > _REL_TOL * top if top > 0 else np.zeros_like(v, dtype=bool)


def _pow_on_supp(v: np.ndarray, p: float) -> np.ndarray:
    out = np.zeros_like(v)
    m = _supp(v)
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
    sp = _supp(pv)
    sq = _supp(qv)
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
    sp = _supp(p_marg)
    sq = _supp(q)
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
    mask = _supp(p_marg)
    restricted = np.where(mask, q, 0.0)
    tr = float(restricted.sum())
    if tr <= _REL_TOL:
        raise OrthogonalInitializer("initializer has no mass on the marginal support")
    return restricted / tr


class _ClassicalRun:
    """Vector-arithmetic twin of the quantum run for a fixed joint PMF."""

    def __init__(self, P: np.ndarray, alpha: float, q0: np.ndarray) -> None:
        self.alpha = alpha
        self.wa = _pow_on_supp(P, alpha)
        self.q_x = q0
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
        self.y_to_x()
        self.x_to_y()


def classical_linear_constants(p_xy, q0_pmf, alpha: float) -> LinearConstants:
    """Classical analogue of the linear-rate stopping constants, valid for alpha > 1."""
    if not alpha > 1.0:
        raise ValueError(f"classical linear constants require alpha > 1, got {alpha}")
    P = _as_array(p_xy)
    q0_vec = _restrict_pmf(_as_array(q0_pmf).ravel(), P.sum(axis=1))
    wa = _pow_on_supp(P, alpha)
    row_mass = wa.sum(axis=1)
    lam_a = float(row_mass[_supp(row_mass)].min())
    run = _ClassicalRun(P, alpha, q0_vec)
    run.x_to_y()
    q0 = run.q
    c_a = (lam_a / q0) ** (1.0 / alpha)
    q0_min = float(q0_vec[_supp(q0_vec)].min())
    c0 = -2.0 * math.log(min(q0_min, c_a))
    return LinearConstants(gamma=1.0 - 1.0 / alpha, c0=c0, lambda_a=lam_a, q0=q0, c_a=c_a)


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


def _diag_op(v: np.ndarray) -> HermitianOperator:
    return HermitianOperator.diagonal(v)


def algorithm_classical(p_xy, config: AmConfig, q0=None) -> ConvergenceTrace:
    """Certified classical run.

    For alpha > 1 the run is native vector arithmetic with the classical
    linear-rate schedule (any alpha in (1, inf)); for alpha in (1/2, 1) the
    PMF is embedded as a diagonal state and certified through the quantum
    sublinear certificate, which coincides with the classical quantity on
    such states.
    """
    P = _validated_joint(p_xy)
    alpha = config.alpha
    if 0.5 < alpha < 1.0:
        init_q = _initial_q(P, config, q0)
        qconfig = AmConfig(
            alpha=alpha,
            eps0=config.eps0,
            init="explicit",
            sigma0=_diag_op(init_q),
            max_iter=config.max_iter,
            cut=config.cut,
            record_states=config.record_states,
        )
        return algorithm2(cc_embed(P), qconfig)
    if not alpha > 1.0:
        raise ValueError(
            f"certified classical runs require alpha in (1/2, 1) or (1, inf), got {alpha}"
        )

    t_start = time.perf_counter()
    init_q = _initial_q(P, config, q0)
    consts = classical_linear_constants(P, init_q, alpha)
    run = _ClassicalRun(P, alpha, init_q)
    run.x_to_y()

    records: list[TraceRecord] = []
    n = 0
    eps = _eps_linear(alpha, consts.gamma, consts.c0, n)
    records.append(TraceRecord(n, run.x, eps, run.q, time.perf_counter() - t_start))
    terminated = TERMINATED_CERTIFICATE
    while eps >= config.eps0:
        if n >= config.max_iter:
            terminated = TERMINATED_MAX_ITER
            break
        run.full_step()
        n += 1
        eps = _eps_linear(alpha, consts.gamma, consts.c0, n)
        records.append(TraceRecord(n, run.x, eps, run.q, time.perf_counter() - t_start))
    return ConvergenceTrace(
        alpha=alpha,
        records=records,
        final_x=run.x,
        final_sigma_a=_diag_op(run.q_x),
        final_tau_b=_diag_op(run.r_y),
        terminated_by=terminated,
    )


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
    records = [TraceRecord(0, run.x, None, run.q, time.perf_counter() - t_start)]
    for n in range(1, num_iter + 1):
        run.full_step()
        records.append(TraceRecord(n, run.x, None, run.q, time.perf_counter() - t_start))
    return ConvergenceTrace(
        alpha=config.alpha,
        records=records,
        final_x=run.x,
        final_sigma_a=_diag_op(run.q_x),
        final_tau_b=_diag_op(run.r_y),
        terminated_by=TERMINATED_MAX_ITER,
    )

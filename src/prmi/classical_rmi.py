"""Classical specialization: PMFs, the classical iteration maps, and certificates.

A classical-classical state is a density matrix diagonal in a fixed product
basis; its joint PMF carries all the structure.  The iteration maps become
vector updates, the projective metric becomes a max-ratio over coordinates,
and the linear-rate certificate extends to every alpha > 1.

One vector stepper, ``_ClassicalRun``, implements the classical half-step for
every entry point: the maps ``n_x_to_y``/``n_y_to_x``, ``algorithm_classical``
at both certificates, and ``run_uncertified_classical``.  It is the quantum
stepper on the diagonal state ``cc_embed(P)``, so the quantum certificates
hold for it as they stand.  The two solves hand it to ``am_engine._solve``,
the body of every iterating entry point, which takes its initializer
(``_ClassicalRun.initial``), asks the order rule, builds it and drives it;
``classical_linear_constants`` wraps its weights as the diagonal operator a
classical ``AmConfig.init`` takes, so ``am_engine._constants`` resolves them
through the same ``initial``.  The support cutoff acts at set-up, on P and
on the initial q, and each half-step keeps the supports of the marginals
fixed there, the rows and columns of P's support, which is what the
iteration preserves in exact arithmetic.  So the stepper compresses P^alpha
to that support block once and carries q and r on it: a half-step is one
gemv with the dense block and two plain powers, with no mask, and the
full-length PMFs are built only when an operator or a map's output is asked
for.  A supported entry of P whose power underflows to 0 raises
``FloatingPointError``.  Above order one a zero on the support raises
``DomainViolation``, as the quantum stepper does when a half-step loses a
support direction; below it a zero weighs zero.  The linear certificate
holds at every order above one (``_ClassicalRun.linear_max``).
``cc_embed`` stays as the reference the tests compare against.
``cross_ratio_diameter`` and ``birkhoff_kappa_classical`` give the exact
projective diameter of the classical map and its Birkhoff rate; both
require a strictly positive PMF and raise ``NotStrictlyPositive``
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .am_engine import (
    AmConfig,
    ConvergenceTrace,
    LinearConstants,
    OrthogonalInitializer,
    _constants,
    _initializer,
    _out_of_range,
    _solve,
    step_floor,
)
from .hilbert_metric import spread_distance
from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    HermitianOperator,
    SupportCutoff,
    _orthogonal,
    support_mask,
)
from .petz_divergence import DomainViolation, _check_alpha

_SUM_TOL = 1e-12
_DIAGONAL_TOL = 1e-12


class NotStrictlyPositive(Exception):
    """The exact projective diameter requires a strictly positive PMF."""


def _checked_weights(w: np.ndarray) -> np.ndarray:
    """A read-only copy of ``w`` once it is a PMF: every weight >= 0 (so none is NaN), sum one."""
    if not (w >= 0).all():
        raise ValueError("PMF weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > _SUM_TOL:
        raise ValueError(f"PMF weights sum to {w.sum()}, not 1")
    out = np.array(w)  # a copy, in w's memory order
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pmf:
    """Nonnegative weights summing to one."""

    weights: np.ndarray

    @classmethod
    def from_weights(cls, weights) -> "Pmf":
        return cls(_checked_weights(np.asarray(weights, dtype=np.float64).ravel()))

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
        return cls(_checked_weights(w))

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


def _as_array(p) -> np.ndarray:
    if isinstance(p, (Pmf, JointPmf)):
        return p.weights
    return np.asarray(p, dtype=np.float64)


def _validated_joint(p) -> np.ndarray:
    """Weights of a :class:`JointPmf`; raw arrays are validated as one first."""
    if isinstance(p, JointPmf):
        return p.weights
    return JointPmf.from_weights(p).weights


def _pow_on(v: np.ndarray, mask: np.ndarray, p: float) -> np.ndarray:
    """``v ** p`` on ``mask``, zero elsewhere."""
    return np.power(v, p, out=np.zeros_like(v), where=mask)


def d_alpha_classical(p, q, alpha: float) -> float:
    """Renyi divergence of order alpha between equally shaped weight arrays.

    The sum runs over the support of the first argument; for alpha > 1 any
    zero of the second argument inside that support gives +inf.
    """
    _check_alpha(alpha)
    pv = _as_array(p).ravel()
    qv = _as_array(q).ravel()
    if pv.shape != qv.shape:
        raise ValueError("shape mismatch")
    sp, sq = support_mask(pv, DEFAULT_CUT), support_mask(qv, DEFAULT_CUT)
    if not _domain_holds(sp, sq, alpha):
        return math.inf
    both = sp & sq
    s = float(np.sum(pv[both] ** alpha * qv[both] ** (1.0 - alpha)))
    if s <= 0:
        return math.inf
    return math.log(s) / (alpha - 1.0)


def _domain_holds(sp: np.ndarray, sq: np.ndarray, alpha: float) -> bool:
    """Finiteness domain of D_alpha(p||q) from the support masks of p and q.

    The supports meet, and supp p lies inside supp q for alpha > 1.
    """
    if alpha > 1 and np.any(sp & ~sq):
        return False
    return bool(np.any(sp & sq))


def _map_once(P: np.ndarray, q: np.ndarray, alpha: float) -> Pmf:
    """The half-step from q on the rows of P, inside the domain of D_alpha(p_x||q)."""
    masks = support_mask(P.sum(axis=1), DEFAULT_CUT), support_mask(q, DEFAULT_CUT)
    if not _domain_holds(*masks, alpha):
        why = "has points outside" if alpha > 1 else "is disjoint from"
        raise DomainViolation(f"at alpha={alpha:g} the marginal support {why} the PMF support")
    _check_alpha(alpha)  # the quantum maps' orders; the stepper divides by alpha - 1
    run = _ClassicalRun(P, alpha, DEFAULT_CUT, q)
    return Pmf.from_weights(_full(run.r_y, run.supp_y))


def n_x_to_y(p_xy, q_x, alpha: float) -> Pmf:
    """Classical X-to-Y iteration map: normalized (sum_x P^alpha Q^(1-alpha))^(1/alpha)."""
    return _map_once(_validated_joint(p_xy), _as_array(q_x).ravel(), alpha)


def n_y_to_x(p_xy, r_y, alpha: float) -> Pmf:
    """Classical Y-to-X iteration map: :func:`n_x_to_y` of the transposed PMF."""
    return _map_once(_validated_joint(p_xy).T, _as_array(r_y).ravel(), alpha)


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


def _restrict_pmf(q: np.ndarray, p_marg: np.ndarray, cut: SupportCutoff) -> np.ndarray:
    """q restricted to the support of ``p_marg`` and renormalized; the quantum rule on diagonals."""
    restricted = np.where(support_mask(p_marg, cut), q, 0.0)
    tr = float(restricted.sum())
    if _orthogonal(tr, float(q.sum()), cut):
        raise OrthogonalInitializer("initializer has no mass on the marginal support")
    return restricted / tr


def _diagonal(op: HermitianOperator) -> np.ndarray:
    """The weights of a diagonal initializer.

    The classical run is the quantum one on ``cc_embed(P)`` only from a
    diagonal initializer: the diagonal of any other is a different start, so
    an off-diagonal part above ``_DIAGONAL_TOL`` times the largest entry
    raises ``ValueError``.
    """
    diag = np.diag(op.entries)
    off = float(np.abs(op.entries - np.diag(diag)).max())
    if off > _DIAGONAL_TOL * float(np.abs(op.entries).max()):
        raise ValueError(
            f"a classical initializer must be diagonal: off-diagonal entry of modulus {off:.3e}"
        )
    return diag.real


def _full(v: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """The vector that is ``v`` on the mask ``supp`` and zero elsewhere."""
    out = np.zeros(supp.size)
    out[supp] = v
    return out


def _diagonal_on(v: np.ndarray, supp: np.ndarray) -> HermitianOperator:
    return HermitianOperator.diagonal(_full(v, supp))


class _ClassicalRun:
    """``am_engine._AmRun`` on a diagonal state, with vectors for eigenpairs.

    The cutoff acts once, at set-up: on P before the power alpha and on the
    initial q (the support eigenvalues of rho and of sigma0).  The supports
    of the two marginals are fixed there too, as the rows and columns of P
    with a supported entry, before the power, and P^alpha is compressed to
    that dense block once.  A supported entry whose power underflows to 0
    raises ``FloatingPointError``: the point would leave the support
    unannounced, and the run would solve another PMF.  q and r (``q_x``,
    ``r_y``) live on the block; full-length vectors are built only on
    request (``operators``).  Each half-step is then one gemv
    with the block and plain powers.  Its weights w are powered 1/alpha with
    no mask: above order one a zero in w leaves the domain and raises
    ``DomainViolation``, as ``_AmRun._keep`` does, and below it a zero
    weighs zero.  So no iterate has a zero to mask in its power 1 - alpha
    either, except the initial q, which is powered under its mask once.  A
    relative cutoff on w itself would drop supported points once alpha is
    large, since the range of w grows like the range of P to the power
    alpha.  The run is built half-stepped, and the maps contract d_H at every
    order above one.  As in ``_AmRun``, the exponents 1 - alpha and 1/alpha
    and the factor alpha/(alpha-1) are fixed at set-up.
    """

    linear_max = math.inf

    @staticmethod
    def initial(P: np.ndarray, config: AmConfig) -> np.ndarray:
        """The restricted initial q: the X marginal p_x, or ``config``'s initializer's diagonal."""
        p_x = P.sum(axis=1)
        raw = _initializer(config.init, p_x.size)
        return _restrict_pmf(p_x if raw is None else _diagonal(raw), p_x, config.cut)

    def __init__(self, P: np.ndarray, alpha: float, cut: SupportCutoff, q0: np.ndarray) -> None:
        self.alpha = alpha
        self.cut = cut
        self._dual = 1.0 - alpha
        self._inv = 1.0 / alpha
        self._x_scale = alpha / (alpha - 1.0)
        self._dims = P.shape[0] + P.shape[1]
        supp = support_mask(P, cut)
        self.supp_x, self.supp_y = supp.any(axis=1), supp.any(axis=0)
        wa = _pow_on(P, supp, alpha)
        lost = np.count_nonzero(supp) - np.count_nonzero(wa)
        if lost:
            raise _out_of_range(
                f"P^alpha underflows to 0 at {lost} of {np.count_nonzero(supp)} supported entries"
            )
        self.block = wa.compress(self.supp_x, axis=0).compress(self.supp_y, axis=1)
        q = np.where(support_mask(q0, cut), q0, 0.0)
        self.sigma0_min = float(q[q > 0].min())
        self.q_x = q[self.supp_x]
        self._q_dual = _pow_on(self.q_x, self.q_x > 0, self._dual)
        self.prev_q: np.ndarray | None = None
        self.a_to_b()

    def _root(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """w^(1/alpha) normalized, and its prior mass, for weights w on their fixed support.

        Above order one w^(1/alpha) is zero only where w is, so the domain
        check and the mass read one list of Python floats.
        """
        t = w**self._inv
        weights = t.tolist()
        if self.alpha > 1.0 and 0.0 in weights:
            kept = np.count_nonzero(t)
            raise DomainViolation(f"iterate kept {kept} of its {t.size} support points")
        s = sum(weights)
        if s <= 0:
            raise DomainViolation("iterate collapsed to zero")
        return t / s, s

    def a_to_b(self) -> None:
        """Update r from q; refresh the objective via the closed form."""
        self.r_y, s = self._root(np.dot(self._q_dual, self.block))
        self.x = self._x_scale * math.log(s)
        self.q = s**self.alpha

    def b_to_a(self) -> None:
        """Update q from r."""
        self.q_x = self._root(np.dot(self.block, self.r_y**self._dual))[0]
        self._q_dual = self.q_x**self._dual

    def full_step(self) -> None:
        self.prev_q = self.q_x
        self.b_to_a()
        self.a_to_b()

    def step_distance(self) -> float:
        """d_H(q_{n-1}, q_n) plus the rounding floor; +inf when the support changed.

        Only an initial q can have a zero on the block: otherwise a zero of
        the new q is a zero ratio, which ``spread_distance`` reads as +inf.
        """
        prev, new = self.prev_q, self.q_x
        if 0.0 in prev.tolist():
            supp = prev > 0
            if (supp != (new > 0)).any():
                return math.inf
            prev, new = prev[supp], new[supp]
        ratio = (new / prev).tolist()
        dist = spread_distance(max(ratio), min(ratio), self.cut.rel_tol)
        return dist + step_floor(self.alpha, self._dims, 1.0)

    def operators(self):
        """Builders of the current q and r as full-length diagonal operators.

        They hold the block PMFs and their masks, not the run.
        """
        return (
            partial(_diagonal_on, self.q_x, self.supp_x),
            partial(_diagonal_on, self.r_y, self.supp_y),
        )

    def lambda_a(self) -> float:
        """Smallest nonzero row sum of P^alpha (the A marginal of rho^alpha)."""
        return float(self.block.sum(axis=1).min())

    def lambda_b(self) -> float:
        """Smallest nonzero column sum of P^alpha (the B marginal of rho^alpha)."""
        return float(self.block.sum(axis=0).min())


def classical_linear_constants(p_xy, q0_pmf, alpha: float) -> LinearConstants:
    """Classical analogue of the linear-rate stopping constants, valid for every alpha > 1.

    Orders without the linear certificate raise ``NoCertificate``.
    """
    q0 = HermitianOperator.diagonal(_as_array(q0_pmf).ravel())
    return _constants(_ClassicalRun, "linear", _validated_joint(p_xy), AmConfig(alpha, init=q0))


def algorithm_classical(p_xy, config: AmConfig) -> ConvergenceTrace:
    """Certified classical run: linear certificate for any alpha > 1, sublinear for (1/2, 1).

    On the diagonal embedding the vector stepper is the quantum run, so the
    quantum certificates apply as they stand; the linear one extends from
    (1, 2] to every alpha > 1 because the classical maps contract Hilbert's
    metric by gamma = 1 - 1/alpha at every such order.  Other orders raise
    ``NoCertificate``.
    """
    return _solve(_ClassicalRun, _validated_joint(p_xy), config)


def run_uncertified_classical(p_xy, config: AmConfig, num_iter: int) -> ConvergenceTrace:
    """Plain classical alternating minimization for exactly ``num_iter`` iterations."""
    return _solve(_ClassicalRun, _validated_joint(p_xy), config, num_iter)

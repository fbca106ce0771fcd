"""Alternating minimization for the doubly minimized Petz-Renyi mutual information.

The iteration alternates the two closed-form partial minimizers.  For
alpha in (1, 2] (and every alpha > 1 on PMFs) the maps contract Hilbert's
projective metric d_H with ratio gamma = 1 - 1/alpha, which gives the linear
certificate below; for alpha in (1/2, 1) the certificate is the a-posteriori
bound c0 * sqrt(x_{n-1} - x_n) (sublinear rate).

Linear certificate.  Write sigma_n for the A iterate at record n (sigma_0 the
restricted initializer), tau_n = N(sigma_n) for its partial minimizer, x_n
for the objective at sigma_n (x) tau_n, and sigma*, tau* = N(sigma*), x* for
the limit.

- A full step applies two gamma-contractions, so
  d_H(sigma_n, sigma*) <= gamma^2 d_H(sigma_{n-1}, sigma*).
- x_n - x* <= g(d_H(sigma_n, sigma*)) with
  g(D) = expm1((alpha-1)(1+gamma) D)/(alpha-1).  The bound compares
  sigma_n (x) tau_n with sigma* (x) tau* factor by factor, and
  d_H(tau_n, tau*) <= gamma d_H(sigma_n, sigma*) because tau_n, tau* are
  images under a gamma-contraction: that is the (1+gamma) factor.  g is
  increasing, so any upper bound D_n on d_H(sigma_n, sigma*) certifies
  eps_n = g(D_n).  The a priori schedule is the case D_n = gamma^(2n) c0,
  where c0 bounds d_H(sigma_0, sigma*) (``linear_constants``).
- The triangle inequality and the contraction give
  d_H(sigma_{n-1}, sigma*) <= d_H(sigma_{n-1}, sigma_n) + gamma^2 d_H(sigma_{n-1}, sigma*),
  hence d_H(sigma_n, sigma*) <= gamma^2/(1-gamma^2) d_H(sigma_{n-1}, sigma_n).
- The certificate runs the recursion D_0 = c0,
  D_n = min(gamma^2 D_{n-1}, gamma^2/(1-gamma^2) d_n) and stops once
  g(D_n) < eps0.  The min keeps eps_n nonincreasing and never above
  g(gamma^(2n) c0), so no run takes more steps than the a priori n*.

d_n is the computed d_H(sigma_{n-1}, sigma_n) (the steppers'
``step_distance``; +inf at step 1 only, from an initializer of lower rank
than rho_A, which leaves the a priori term) plus a floor f/gamma^2,
f = 64 (d_A + d_B) eps kappa.  Rounding
enters twice.  Whitening sigma_n by sigma_{n-1}^(-1/2) turns an absolute
error of order eps lambda_max(sigma_n) into a relative one of order
eps kappa(sigma_{n-1}).  And the computed sigma_n equals the exact step from
sigma_{n-1} only within some delta in d_H, which adds delta/(1-gamma^2) to
the bound above, i.e. delta/gamma^2 inside d_n.  Each half-step
eigendecomposes a matrix of condition number kappa_sigma^alpha or
kappa_tau^alpha, formed by a gemv from the other factor's power 1 - alpha
whose terms cancel by up to kappa^(alpha-1); so delta is of order
eps (kappa_sigma kappa_tau)^(alpha-1) (kappa_sigma + kappa_tau) = eps kappa,
which also dominates the whitening error, and 64 (d_A + d_B) covers the
dimension factors of the gemv and eigh backward errors.  The classical maps
are positive sums and powers, accurate entrywise, so kappa = 1 there.  A
stagnating iterate thus reads the floor, never 0.  Below the floor D_n can
still shrink through gamma^2 D_{n-1} and the a priori term, which carry no
rounding allowance.

Every run, quantum or classical, certified or not, goes through one body,
``_solve``, which the five iterating entry points call with their stepper
(``_AmRun`` here, ``classical_rmi._ClassicalRun`` for PMFs).  It takes, in
this order, the stepper's initializer (``initial``, which reads the
initializer kind through ``_initializer``), the order's certificate, the
stepper, built half-stepped, and the one loop, ``_drive``.  ``_drive`` takes
the stepper and a certificate ``eps_at(n, x_prev, x)`` (the linear
recursion, the sublinear bound, or none), records each iterate and decides
why the run stopped.  Only the linear certificate calls ``step_distance``.
The constants of both certificates come from ``_linear_start`` and
``_sublinear_start``, which read them off a stepper of either kind through
``sigma0_min``, ``lambda_a()``, ``lambda_b()`` and ``q``.  Which order has
which certificate is stated once, in ``_certificate``: linear on
(1, ``linear_max``] of the stepper (2 for ``_AmRun``, every order above one
for the classical stepper), sublinear on (1/2, 1), and ``NoCertificate``
elsewhere.  Solves, ``algorithm1``/``algorithm2``'s choice of side, and the
constants all ask it, from the stepper's class and before a run is set up,
so an order without a certificate costs no set-up.  The engine imports no
reference of its own: the einsum partial minimizers and the sampled
contraction probe it is checked against are in ``tests/references.py``.
Both steppers fix an iterate's support at set-up, as the iteration keeps
it in exact arithmetic, and no half-step applies the relative cutoff: a
quantum half-step keeps the r largest eigenpairs of its matrix, r the rank
of rho_A or rho_B at the cutoff (``_AmRun._keep``), and the classical one
powers on the marginal supports of P^alpha.

The trace ``_drive`` returns keeps the final eigenpairs (the final PMFs of a
classical run) behind two builders from ``run.operators()``:
``final_sigma_a`` and ``final_tau_b`` are built on first access, bit for bit
as the stepper would build them, and the stepper itself, with its rho^alpha
matrix, is freed when ``_drive`` returns.

Set-up.  What a solve needs from the state alone is decomposed once per
``BipartiteState`` and cached on it: the spectrum of rho, from which each
order builds rho^alpha, and the A marginal with its spectrum.  Every order
of a sweep and every cutoff starts from those arrays, as do the support
ranks, read off them with the B marginal's eigenvalues.  ``_AmRun`` always
starts from the eigenpairs of the restricted initializer (``_AmRun.initial``).
For the marginal initializer they are (w_s/sum w_s, V_s), the support part of
the cached marginal spectrum at the run's cutoff, so it costs no
decomposition; a uniform or explicit initializer is compressed to that
support at r x r (r its rank), factored once and rotated back.
Per order there remains the rho^alpha contraction matrix and the
certificate's constants.

Per step.  At desk sizes numpy's per-call overhead, not LAPACK, is most of a
step, so the steppers keep the number of numpy calls down without changing
what is decomposed.  A solve takes 2 + 2n ``eigh`` and n ``eigvalsh`` with
the linear certificate, 3 + 2n ``eigh`` with the sublinear one, each through
``operator_core``'s kernel pair ``_eigh``/``_eigvalsh``, which calls the
LAPACK gufunc without ``np.linalg``'s wrapper and returns the same bits.  Each
quantum half-step forms its gemv operand as the transposed power
S^T = conj(V) diag(lam^(1-alpha)) V^T, which is C-contiguous and flattens
without a copy, and the exponents 1 - alpha and 1/alpha and the factor
alpha/(alpha-1) are fixed at set-up.  The step distance whitens the
``_overlap`` factor of the new sigma and reads the dominance trace as its
squared Frobenius norm (``hilbert_metric.whitened_distance``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .hilbert_metric import whitened_distance
from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    HermitianOperator,
    SupportCutoff,
    _orthogonal,
    _overlap,
    _power,
    support_eigh,
    support_mask,
    support_pairs,
)
from .petz_divergence import DomainViolation, _check_alpha, _rho_alpha_tensor


class OrthogonalInitializer(Exception):
    """Initializer has no overlap with the support of the A marginal."""


class MonotonicityViolation(Exception):
    """Objective increased beyond numerical slack; the run is unreliable."""


class NoCertificate(ValueError):
    """The order has no stopping certificate for this kind of run."""


TERMINATED_CERTIFICATE = "certificate"
TERMINATED_MAX_ITER = "max_iter"

_INIT_CHOICES = ("marginal", "uniform", "explicit")

_EPS = float(np.finfo(np.float64).eps)
_NO_CUT = SupportCutoff(0.0)


@dataclass(frozen=True)
class AmConfig:
    """Run parameters: order, target accuracy, initializer (``sigma0`` iff 'explicit'), caps."""

    alpha: float
    eps0: float = 1e-6
    init: str = "marginal"
    sigma0: HermitianOperator | None = None
    max_iter: int = 100_000
    cut: SupportCutoff = DEFAULT_CUT
    record_states: bool = False

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not self.eps0 > 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if self.init not in _INIT_CHOICES:
            raise ValueError(f"init must be one of {_INIT_CHOICES}, got {self.init!r}")
        if self.init == "explicit" and self.sigma0 is None:
            raise ValueError("init='explicit' requires sigma0")
        if self.init != "explicit" and self.sigma0 is not None:
            raise ValueError(f"sigma0 is read only with init='explicit', got init={self.init!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _initializer(config: AmConfig, dim: int) -> HermitianOperator | None:
    """The initializer both steppers read off ``config`` for a ``dim``-dimensional factor.

    None stands for the marginal, which each stepper starts from what it holds.
    """
    if config.init == "marginal":
        return None
    if config.init == "uniform":
        return HermitianOperator._wrap(np.eye(dim) / dim)
    if config.sigma0.dim != dim:
        raise ValueError(f"sigma0 has dim {config.sigma0.dim}, expected {dim}")
    return config.sigma0


@dataclass(frozen=True)
class TraceRecord:
    n: int
    x_n: float
    eps_n: float | None
    q_n: float
    wall_time: float


@dataclass
class ConvergenceTrace:
    """Per-iteration record of one run plus the final iterates.

    ``final_sigma_a`` and ``final_tau_b`` are built on first access, by the
    two builders in ``_finals``, from the final eigenpairs (the final PMFs of
    a classical run); a sweep that reads only values never builds them.  The
    builders hold those arrays and nothing else, so a trace keeps no stepper,
    and with it no rho^alpha matrix, alive.
    """

    alpha: float
    records: list[TraceRecord]
    final_x: float
    terminated_by: str
    _finals: tuple[Callable[[], HermitianOperator], Callable[[], HermitianOperator]] = field(
        repr=False, compare=False
    )
    sigma_states: list[HermitianOperator] | None = None
    tau_states: list[HermitianOperator] | None = None

    @cached_property
    def final_sigma_a(self) -> HermitianOperator:
        return self._finals[0]()

    @cached_property
    def final_tau_b(self) -> HermitianOperator:
        return self._finals[1]()

    @property
    def x_values(self) -> np.ndarray:
        return np.array([r.x_n for r in self.records])

    @property
    def iterations(self) -> int:
        return self.records[-1].n


@dataclass(frozen=True)
class LinearConstants:
    """Stopping constants for the linear-rate certificate (alpha in (1, 2])."""

    gamma: float
    c0: float
    lambda_a: float
    q0: float
    c_a: float


@dataclass(frozen=True)
class SublinearConstants:
    """Stopping constants for the sublinear certificate (alpha in (1/2, 1))."""

    lambda_a: float
    lambda_b: float
    lambda_a0: float
    c0: float


def restrict_initializer(
    sigma0: HermitianOperator,
    rho_a: HermitianOperator,
    cut: SupportCutoff = DEFAULT_CUT,
) -> HermitianOperator:
    """Compress an initializer to the support of the A marginal and renormalize.

    The iteration map is invariant under this restriction, so any initializer
    with nonzero overlap can be replaced by its compressed version.
    """
    vs = support_eigh(rho_a.entries, cut)[1]
    return HermitianOperator._wrap(vs @ _compress(sigma0, vs, cut) @ vs.conj().T)


def _compress(sigma0: HermitianOperator, vs: np.ndarray, cut: SupportCutoff) -> np.ndarray:
    """V^dag sigma0 V / tr for orthonormal columns V = ``vs``; ⊥ is relative to tr sigma0."""
    compressed = vs.conj().T @ sigma0.entries @ vs
    tr = float(compressed.trace().real)
    if _orthogonal(tr, sigma0.trace(), cut):
        raise OrthogonalInitializer(
            f"initializer overlap {tr:.3e} with the A-marginal support is below the cutoff"
        )
    return compressed / tr


def _rank(w: np.ndarray, cut: SupportCutoff) -> int:
    """Support rank at the cutoff of an ascending spectrum."""
    return int(np.count_nonzero(support_mask(w, cut, float(w[-1]))))


def _operator(vals: np.ndarray, vecs: np.ndarray) -> HermitianOperator:
    return HermitianOperator._wrap(_power(vals, vecs, 1.0))


class _AmRun:
    """Mutable state of one run; caches rho^alpha as one gemv matrix and the eigenfactors.

    States are carried as (support eigenvalues, eigenvector block) pairs so
    each half-step costs one gemv and one small eigendecomposition; the
    objective value comes from the closed form for the partial minimum.  The
    gemv operand is the transposed power S^T = conj(V) diag(lam^(1-alpha)) V^T,
    built as such, so it is C-contiguous and flattens without a copy; the
    exponents 1 - alpha, 1/alpha and the factor alpha/(alpha-1) are fixed at
    set-up.  ``sigma0`` is the restricted initializer in that form
    (``initial``); the run is built half-stepped, with tau, x and q of
    sigma0.  The maps contract d_H for orders in (1, ``linear_max``].
    ``rank_a`` and ``rank_b``, the support ranks of rho_A and rho_B at the
    cutoff, are the ranks every sigma and tau keep (``_keep``).  Operators
    are built only on request, by the builders ``operators`` returns.
    """

    linear_max = 2.0

    @staticmethod
    def initial(rho_ab: BipartiteState, config: AmConfig) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the restricted initializer, the form the run starts from.

        The A marginal restricted to its own support is (w_s/sum w_s, V_s) of
        its cached spectrum, so that initializer costs no decomposition.
        """
        raw = _initializer(config, rho_ab.d_a)
        if raw is None:
            w, v = support_pairs(*rho_ab.marginal_spectrum, config.cut)
            return w / float(w.sum()), v
        return _restricted_pairs(rho_ab, raw, config.cut)

    def __init__(
        self,
        rho_ab: BipartiteState,
        alpha: float,
        cut: SupportCutoff,
        sigma0: tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.alpha = alpha
        self.cut = cut
        self.d_a = rho_ab.d_a
        self.d_b = rho_ab.d_b
        self._dual = 1.0 - alpha
        self._inv = 1.0 / alpha
        self._x_scale = alpha / (alpha - 1.0)
        r4 = _rho_alpha_tensor(rho_ab, alpha, cut)
        # m[(a, c), (b, d)] = r4[a, b, c, d], so each half-step is a gemv from one side.
        self.m = r4.transpose(0, 2, 1, 3).reshape(self.d_a**2, self.d_b**2)
        self.rank_a = _rank(rho_ab.marginal_spectrum[0], cut)
        self.rank_b = _rank(rho_ab._marginal_b_spectrum, cut)
        self.sigma_vals, self.sigma_vecs = sigma0
        self.sigma0_min = float(self.sigma_vals[0])
        self.prev_sigma: tuple[np.ndarray, np.ndarray] | None = None
        self.a_to_b()

    def _keep(self, mat: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``rank`` largest eigenpairs of a half-step matrix: the iterate on its fixed support.

        ``support_pairs`` at a zero threshold applies the PSD guard and drops a
        nonpositive eigenvalue.  Above order one a dropped direction leaves
        the Petz domain, so it raises; below it the direction weighs zero,
        unless every direction is dropped.
        """
        vals, vecs = support_eigh(mat, _NO_CUT)
        if vals.size > rank:
            return vals[-rank:], vecs[:, -rank:]
        if vals.size < rank and (self.alpha > 1.0 or not vals.size):
            raise DomainViolation(f"iterate kept {vals.size} of its {rank} support directions")
        return vals, vecs

    def _dual_t(self, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """(V diag(vals^(1-alpha)) V^dag)^T, C-contiguous, as the flat gemv operand."""
        return ((vecs.conj() * vals**self._dual) @ vecs.T).ravel()

    def a_to_b(self) -> None:
        """Update tau from sigma; refresh the objective via the closed form."""
        s_t = self._dual_t(self.sigma_vals, self.sigma_vecs)
        w_mat = (s_t @ self.m).reshape(self.d_b, self.d_b)
        vals, vecs = self._keep(w_mat, self.rank_b)
        t = vals**self._inv
        ssum = float(t.sum())
        self.tau_vals = t / ssum
        self.tau_vecs = vecs
        self.x = self._x_scale * math.log(ssum)
        self.q = ssum**self.alpha

    def b_to_a(self) -> None:
        """Update sigma from tau."""
        w_mat = (self.m @ self._dual_t(self.tau_vals, self.tau_vecs)).reshape(self.d_a, self.d_a)
        vals, vecs = self._keep(w_mat, self.rank_a)
        s = vals**self._inv
        self.sigma_vals = s / float(s.sum())
        self.sigma_vecs = vecs

    def full_step(self) -> None:
        self.prev_sigma = (self.sigma_vals, self.sigma_vecs)
        self.b_to_a()
        self.a_to_b()

    def step_distance(self) -> float:
        """d_H(sigma_{n-1}, sigma_n) plus the rounding floor; +inf when sigma_0 had a lower rank.

        The new sigma is whitened in the previous one's eigenbasis: one
        r x r product gives the ``_overlap`` factor, and one ``eigvalsh``
        the distance.  The conditioning kappa is taken in Python floats.
        """
        w_old, v_old = self.prev_sigma
        w_new, t = self.sigma_vals, self.tau_vals
        factor = _overlap(w_new, self.sigma_vecs, v_old)
        dist = whitened_distance(factor, float(w_new.sum()), w_old, self.cut)
        k_s = max(float(w_old[-1]) / float(w_old[0]), float(w_new[-1]) / float(w_new[0]))
        k_t = float(t[-1]) / float(t[0])
        kappa = (k_s * k_t) ** (self.alpha - 1.0) * (k_s + k_t)
        return dist + step_floor(self.alpha, self.d_a + self.d_b, kappa)

    def operators(self) -> tuple[Callable[[], HermitianOperator], Callable[[], HermitianOperator]]:
        """Builders of the current sigma and tau operators; they hold eigenpairs, not the run."""
        return (
            partial(_operator, self.sigma_vals, self.sigma_vecs),
            partial(_operator, self.tau_vals, self.tau_vecs),
        )

    def lambda_a(self) -> float:
        """Smallest supported eigenvalue of the A marginal of rho^alpha."""
        marginal = (self.m @ np.eye(self.d_b).ravel()).reshape(self.d_a, self.d_a)
        return float(support_eigh(marginal, self.cut)[0][0])

    def lambda_b(self) -> float:
        """Smallest supported eigenvalue of the B marginal of rho^alpha."""
        marginal = (np.eye(self.d_a).ravel() @ self.m).reshape(self.d_b, self.d_b)
        return float(support_eigh(marginal, self.cut)[0][0])


def _restricted_pairs(
    rho_ab: BipartiteState, sigma0: HermitianOperator, cut: SupportCutoff
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``restrict_initializer(sigma0, rho_A, cut)``, factored at r x r."""
    vs = support_pairs(*rho_ab.marginal_spectrum, cut)[1]
    vals, vecs = support_eigh(_compress(sigma0, vs, cut), cut)
    return vals, vs @ vecs


def _linear_start(run) -> LinearConstants:
    """Linear constants of a fresh stepper of either kind; takes no step.

    The stepper (``_AmRun`` or ``classical_rmi._ClassicalRun``) provides
    ``sigma0_min``, the smallest supported value of the restricted
    initializer, ``lambda_a()`` and, being built half-stepped, q0 as
    ``run.q``.  The formula is the one :func:`linear_constants` documents.
    """
    alpha = run.alpha
    lam_a, q0 = run.lambda_a(), run.q
    c_a = (lam_a / q0) ** (1.0 / alpha)
    c0 = -2.0 * math.log(min(run.sigma0_min, c_a))
    return LinearConstants(gamma=1.0 - 1.0 / alpha, c0=c0, lambda_a=lam_a, q0=q0, c_a=c_a)


def _sublinear_start(run) -> SublinearConstants:
    """Sublinear constants of a fresh stepper of either kind; takes no step."""
    alpha, s0_min = run.alpha, run.sigma0_min
    lam_a, lam_b = run.lambda_a(), run.lambda_b()
    bulk = max(
        lam_b**-1.0,
        lam_a ** (alpha * (1.0 - alpha) / (1.0 - 2.0 * alpha))
        * lam_b ** (alpha**2 / (1.0 - 2.0 * alpha)),
    )
    c0 = 2.0 * math.sqrt(5.0) * bulk * s0_min ** (alpha - 1.0)
    return SublinearConstants(lambda_a=lam_a, lambda_b=lam_b, lambda_a0=s0_min, c0=c0)


_STARTS = {"linear": _linear_start, "sublinear": _sublinear_start}


def _constants(stepper: type, kind: str, data, alpha: float, cut: SupportCutoff, init):
    """``kind``'s constants off a fresh stepper; as in a solve, ``init`` comes before the rule."""
    _certificate(stepper, alpha, kind)
    return _STARTS[kind](stepper(data, alpha, cut, init))


def linear_constants(
    rho_ab: BipartiteState,
    sigma0: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> LinearConstants:
    """Initializer-only bound c0 that starts the linear certificate.

    lambda_A is the smallest nonzero eigenvalue of the A marginal of
    rho^alpha; q0 the objective trace term after the first half-step from the
    restricted initializer; c_A = (lambda_A/q0)^(1/alpha) floors the spectrum
    of the unknown minimizer, so c0 = -2 log min(min spec sigma0~, c_A) bounds
    the projective distance from the initializer to the minimizer.  Orders
    without the linear certificate raise :class:`NoCertificate`.
    """
    return _constants(_AmRun, "linear", rho_ab, alpha, cut, _restricted_pairs(rho_ab, sigma0, cut))


def sublinear_constants(
    rho_ab: BipartiteState,
    sigma0: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> SublinearConstants:
    """Constant c0 in the a-posteriori bound c0 * sqrt(x_{n-1} - x_n).

    Orders without the sublinear certificate raise :class:`NoCertificate`.
    """
    pairs = _restricted_pairs(rho_ab, sigma0, cut)
    return _constants(_AmRun, "sublinear", rho_ab, alpha, cut, pairs)


def step_floor(alpha: float, dims: int, kappa: float) -> float:
    """Rounding floor 64 * dims * eps * kappa / gamma^2 added to a computed step distance.

    ``dims`` is d_A + d_B and ``kappa`` the conditioning of one full step;
    the module docstring says why this covers the rounding.
    """
    gamma = 1.0 - 1.0 / alpha
    return 64.0 * dims * _EPS * kappa / (gamma * gamma)


# A certificate is a callable eps_at(n, x_prev, x) -> eps_n, or None where no
# bound exists; x_prev is the objective one full step before x.


def _linear_certificate(run, consts: LinearConstants):
    """eps_n = g(D_n) for the bound D_n >= d_H(sigma_n, sigma*) of the module docstring.

    D_0 = c0 and D_n = min(gamma^2 D_{n-1}, gamma^(2n) c0, gamma^2/(1-gamma^2) d_n)
    with d_n = ``run.step_distance()``.  The a priori term gamma^(2n) c0 is
    implied by the first; taking it as well keeps eps_n at or below the a
    priori schedule in floating point too.
    """
    alpha, gamma, c0 = run.alpha, consts.gamma, consts.c0
    g2 = gamma * gamma
    bound = c0

    def eps_at(n: int, x_prev: float, x: float) -> float:
        nonlocal bound
        if n:
            bound = min(g2 * bound, gamma ** (2 * n) * c0, g2 / (1.0 - g2) * run.step_distance())
        arg = (alpha - 1.0) * (1.0 + gamma) * bound
        return math.inf if arg > 700.0 else math.expm1(arg) / (alpha - 1.0)

    return eps_at


def _sublinear_certificate(c0: float):
    """A posteriori bound c0 * sqrt(x_prev - x) on the clipped drop; none at n = 0."""

    def eps_at(n: int, x_prev: float, x: float) -> float | None:
        if n == 0:
            return None
        drop = x_prev - x
        if drop < -1e-10:
            raise MonotonicityViolation(f"objective increased by {-drop:.3e} at iteration {n}")
        return c0 * math.sqrt(max(drop, 0.0))

    return eps_at


def _no_certificate(n: int, x_prev: float, x: float) -> None:
    return None


def _certificate(stepper: type, alpha: float, kind: str | None = None) -> str:
    """The one order rule: the certificate a kind of stepper has at an order.

    "linear" for 1 < alpha <= ``stepper.linear_max``, the orders on which the
    maps contract d_H; "sublinear" for 1/2 < alpha < 1.  Any other order of
    the domain (``_check_alpha``) raises ``NoCertificate``, and so does one
    whose certificate is not ``kind`` when a kind is asked for.  Solves and
    the constants ask it before they build a stepper.
    """
    _check_alpha(alpha)
    top = stepper.linear_max
    if 1.0 < alpha <= top:
        found = "linear"
    elif 0.5 < alpha < 1.0:
        found = "sublinear"
    else:
        raise NoCertificate(
            f"certified runs require 1/2 < alpha < 1 or 1 < alpha <= {top:g}, got {alpha}"
        )
    if kind not in (None, found):
        raise NoCertificate(f"alpha = {alpha:g} has the {found} certificate, not the {kind} one")
    return found


def _drive(run, eps_at, config: AmConfig, max_iter: int, t_start: float) -> ConvergenceTrace:
    """The one iteration loop of every run, quantum (``_AmRun``) or classical.

    ``run`` arrives half-stepped, as every stepper is built.  Each pass
    records iteration n (plus the states when ``config.record_states``), stops
    on the certificate once eps_n < eps0, else on the cap once n >= max_iter,
    else takes a full step.  The trace gets the stepper's final operator
    builders (``run.operators()``), not the stepper.
    """
    records: list[TraceRecord] = []
    sigmas: list[HermitianOperator] | None = [] if config.record_states else None
    taus: list[HermitianOperator] | None = [] if config.record_states else None
    n, x_prev = 0, run.x
    while True:
        eps = eps_at(n, x_prev, run.x)
        records.append(TraceRecord(n, run.x, eps, run.q, time.perf_counter() - t_start))
        if sigmas is not None:
            sigma, tau = run.operators()
            sigmas.append(sigma())
            taus.append(tau())
        if eps is not None and eps < config.eps0:
            terminated = TERMINATED_CERTIFICATE
            break
        if n >= max_iter:
            terminated = TERMINATED_MAX_ITER
            break
        x_prev = run.x
        run.full_step()
        n += 1
    return ConvergenceTrace(
        alpha=config.alpha,
        records=records,
        final_x=run.x,
        terminated_by=terminated,
        _finals=run.operators(),
        sigma_states=sigmas,
        tau_states=taus,
    )


def _solve(
    stepper: type, data, config: AmConfig, num_iter: int | None = None, kind: str | None = None
) -> ConvergenceTrace:
    """The one body of the five iterating entry points.

    The stepper's initializer first, so a bad one is reported first, then the
    order's certificate (of ``kind`` if given), the stepper and ``_drive``.
    With ``num_iter`` there is no certificate and exactly that many steps.
    """
    if num_iter is not None and num_iter < 0:
        raise ValueError("num_iter must be nonnegative")
    t_start = time.perf_counter()
    init = stepper.initial(data, config)
    found = None if num_iter is not None else _certificate(stepper, config.alpha, kind)
    run = stepper(data, config.alpha, config.cut, init)
    if found is None:
        return _drive(run, _no_certificate, config, num_iter, t_start)
    consts = _STARTS[found](run)
    if found == "linear":
        return _drive(run, _linear_certificate(run, consts), config, config.max_iter, t_start)
    return _drive(run, _sublinear_certificate(consts.c0), config, config.max_iter, t_start)


def algorithm1(rho_ab: BipartiteState, config: AmConfig) -> ConvergenceTrace:
    """Certified run for alpha in (1, 2] with the linear certificate.

    Stops once eps_n = (exp((alpha-1)(1+gamma) D_n) - 1)/(alpha-1) drops below
    eps0, where D_n >= d_H(sigma_n, sigma*) is the smaller of the a priori
    gamma^(2n) c0 and the a posteriori bound from the last step (module
    docstring); the output then lies within eps0 of the infimum.  Other
    orders raise :class:`NoCertificate`.
    """
    return _solve(_AmRun, rho_ab, config, kind="linear")


def algorithm2(rho_ab: BipartiteState, config: AmConfig) -> ConvergenceTrace:
    """Certified run for alpha in (1/2, 1) with the a-posteriori certificate.

    After each full iteration eps = c0 * sqrt(x_prev - x) bounds the distance
    of the current objective value from the infimum; the loop exits once
    eps < eps0.  Other orders raise :class:`NoCertificate`.
    """
    return _solve(_AmRun, rho_ab, config, kind="sublinear")


def run_uncertified(
    rho_ab: BipartiteState, config: AmConfig, num_iter: int
) -> ConvergenceTrace:
    """Plain alternating minimization for exactly ``num_iter`` full iterations.

    No stopping certificate is attached (eps_n is None); valid for any
    alpha in (0, 1) or (1, inf).  Used for long-run reference values and for
    orders outside the certified ranges.
    """
    return _solve(_AmRun, rho_ab, config, num_iter)


def spectrum_floors(
    rho_ab: BipartiteState,
    sigma0: HermitianOperator,
    alpha: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> tuple[float, float]:
    """Guaranteed lower bounds (c_A, c_B) on the nonzero spectra of all iterates.

    For alpha > 1 the floors are (lambda/q0)^(1/alpha) with q0 the initial
    objective trace term (they apply to sigma from iteration 1 on and to every
    tau); for alpha in (1/2, 1) they depend on the initializer spectrum and
    apply to every iterate.  The floors do not rest on contraction, so their
    domain is (1/2, 1) and (1, inf), wider than the certificates' order rule:
    on 21 seeded 2x2-3x3 states (full-rank, near-singular, rank 2-5) at
    alpha 2.5, 3, 4, 6 and 8, none of 3255 iterate spectra fell below them.
    """
    _check_alpha(alpha)
    pairs = _restricted_pairs(rho_ab, sigma0, cut)
    if not (alpha > 1.0 or 0.5 < alpha < 1.0):
        raise ValueError(f"spectrum floors require alpha in (1/2, 1) or (1, inf), got {alpha}")
    run = _AmRun(rho_ab, alpha, cut, pairs)
    if alpha > 1.0:
        lin = _linear_start(run)
        return lin.c_a, (run.lambda_b() / lin.q0) ** (1.0 / alpha)
    sub = _sublinear_start(run)
    exp1 = alpha / (2.0 * alpha - 1.0)
    exp2 = (1.0 - alpha) / (2.0 * alpha - 1.0)
    c_a = min(1.0, sub.lambda_a**exp1 * sub.lambda_b**exp2) * sub.lambda_a0
    c_b = sub.lambda_b ** (1.0 / alpha) * c_a ** ((1.0 - alpha) / alpha)
    return c_a, c_b

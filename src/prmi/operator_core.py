"""Dense Hermitian linear algebra with support-aware semantics.

Everything downstream (divergences, projective metric, iteration maps) is
built on eigendecompositions of small dense Hermitian matrices.  Powers of
positive semidefinite operators are always taken on the support: eigenvalues
below a relative cutoff count as kernel and map to zero.  That rule lives in
``_supported`` (``support_mask`` applies it to arrays).  ``support_pairs``
applies it, with the PSD guard, to ascending eigenpairs a caller holds, or
to eigenvalues alone, and ``support_eigh`` is the eigendecomposition that
applies it.  The iteration's half-steps and constants call the kernel pair
below and ``support_pairs`` directly, one Python call layer fewer.

Every eigendecomposition in the package goes through one kernel pair,
``_eigh`` and ``_eigvalsh``: numpy's LAPACK gufuncs ``eigh_lo`` and
``eigvalsh_lo`` called directly, the routine and dtype loop
``np.linalg.eigh``/``eigvalsh`` call, so the output is theirs bit for bit.
At desk sizes numpy's per-call wrapper (array conversion, type resolution,
an ``errstate`` context and the result tuple) costs more than LAPACK itself:
on one core of a 2-vCPU Xeon with BLAS on one thread, a 2x2 complex ``eigh``
takes about 7.2 us through ``np.linalg`` and 2.8 us here, a 16x16 one 51 and
46 us.  The wrapper's one check, ``LinAlgError`` when LAPACK fails to
converge (it then returns NaN eigenvalues), is the kernel's test of the
returned spectrum.

Every support relation is read off those eigenpairs by one kernel,
``_overlap`` (the factor B of X's support part compressed to supp Y, C = B
B^dag), and the trace of C, ``_inside(B)``, against tr X: X << Y by
``_dominated``, X ⊥ Y by ``_orthogonal``.  The same factor carries the
Petz trace term (``petz_divergence.d_alpha``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, eigvalsh_lo as _eigvalsh_lo

HERMITICITY_RTOL = 1e-12
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


class OperatorError(Exception):
    """Base class for operator-level failures."""


class InvalidOperator(OperatorError):
    """Entries are non-finite or too far from self-adjoint / PSD."""


class ZeroOperator(OperatorError):
    """Operation undefined for the zero operator."""


class DimMismatch(OperatorError):
    """Dimensions are inconsistent with the requested tensor factorization."""


class InvalidExponent(OperatorError):
    """Schatten exponent outside (0, inf]."""


@dataclass(frozen=True)
class SupportCutoff:
    """Relative eigenvalue threshold: lam < rel_tol * lam_max counts as kernel."""

    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in [0, 1), got {self.rel_tol}")


DEFAULT_CUT = SupportCutoff()


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _symmetrized(mat: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """(mat + mat^dag)/2 as a fresh read-only complex array, ``adjoint`` being the view mat^dag.

    The sum is a new array, so it is halved and frozen in place: one pass, no copy.
    """
    out = np.add(mat, adjoint, dtype=np.complex128)
    out /= 2.0
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """Immutable dense self-adjoint operator.

    Build through :meth:`from_entries` (validates and symmetrizes) or the
    convenience constructors; ``entries`` is a read-only complex array.
    """

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries) -> "HermitianOperator":
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidOperator(f"expected a square matrix, got shape {mat.shape}")
        # A NaN or an inf shows in the largest modulus; a modulus up to half the
        # float64 maximum keeps every part of mat + mat^dag finite.
        scale = float(np.abs(mat).max())
        if not scale <= _HALF_MAX:
            why = "entries contain non-finite values"
            if math.isfinite(scale):
                why += f" once symmetrized: largest modulus {scale:.3e} > half the float64 maximum"
            raise InvalidOperator(why)
        adjoint = mat.conj().T
        asym = float(np.abs(mat - adjoint).max())
        if asym > HERMITICITY_RTOL * max(scale, 1e-300):
            raise InvalidOperator(
                f"matrix is not self-adjoint: asymmetry {asym:.3e} exceeds "
                f"{HERMITICITY_RTOL:.1e} * {scale:.3e}"
            )
        return cls(_symmetrized(mat, adjoint))

    @classmethod
    def _wrap(cls, mat: np.ndarray) -> "HermitianOperator":
        """Trusted constructor for matrices already Hermitian by construction."""
        return cls(_symmetrized(mat, mat.conj().T))

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(_readonly(np.eye(dim)))

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        w = np.asarray(values, dtype=np.float64)
        if not np.isfinite(w).all():
            raise InvalidOperator("entries contain non-finite values")
        return cls(_readonly(np.diag(w)))

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


class SupportRelation(Enum):
    DOMINATED = "dominated"        # X << Y
    EQUAL_SUPPORT = "equal_support"  # X ~ Y
    ORTHOGONAL = "orthogonal"      # X ⊥ Y
    NONE = "none"


def _converged(w: np.ndarray) -> np.ndarray:
    """``w`` unless LAPACK failed, which it reports as NaN eigenvalues: then ``LinAlgError``.

    With no ``errstate`` around the call, numpy may first warn of the invalid
    value LAPACK flags.
    """
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a nonempty float64 or complex128 Hermitian matrix.

    The LAPACK gufunc behind ``np.linalg.eigh`` on the lower triangle, on the
    dtype loop of ``mat``, so ``(w, v)`` is ``np.linalg.eigh(mat)`` bit for bit.
    """
    w, v = _eigh_lo(mat)
    return _converged(w), v


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a nonempty float64 or complex128 Hermitian matrix (see :func:`_eigh`)."""
    return _converged(_eigvalsh_lo(mat))


def eig_hermitian(x: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with eigenvalues sorted in descending order.

    Returns ``(w, v)`` with ``x = v @ diag(w) @ v.conj().T``.
    """
    if not np.all(np.isfinite(x.entries)):
        raise InvalidOperator("entries contain non-finite values")
    w, v = _eigh(x.entries)
    return w[::-1].copy(), v[:, ::-1].copy()


def _supported(value, top: float, cut: SupportCutoff):
    """The support rule: ``value`` (a number or an array) is above ``cut.rel_tol`` times ``top``.

    ``top`` is the largest value; nothing is supported when it is not positive.
    """
    return value > cut.rel_tol * max(top, 0.0)


def support_mask(values: np.ndarray, cut: SupportCutoff, top: float | None = None) -> np.ndarray:
    """The entries of ``values`` in the support (:func:`_supported`).

    ``top`` is the largest entry when the caller already holds it (the last
    value of an ascending spectrum); otherwise it is read from ``values``.
    """
    if top is None:
        top = float(values.max(initial=0.0))
    return _supported(values, top, cut)


def support_pairs(
    w: np.ndarray, v: np.ndarray | None, cut: SupportCutoff
) -> tuple[np.ndarray, np.ndarray | None]:
    """The support part of ascending eigenpairs ``(w, v)`` of a PSD matrix.

    A clearly negative eigenvalue (relative to the spectral radius) is
    rejected since every caller requires a PSD argument.  When the smallest
    eigenvalue is in the support, it is positive, so the guard holds, and so
    is every other: the arrays are returned as given, with nothing built.
    Otherwise the support is the top of the ascending spectrum, and the
    arrays are sliced to it; the zero matrix gives empty arrays.  ``v`` is
    None when only the eigenvalues were computed (``_eigvalsh``).
    """
    lo, hi = float(w[0]), float(w[-1])
    if _supported(lo, hi, cut):
        return w, v
    if lo < -1e-8 * max(hi, -lo):
        raise InvalidOperator(f"operator is not PSD: min eigenvalue {lo:.3e}")
    start = w.size - int(np.count_nonzero(_supported(w, hi, cut)))
    return w[start:], None if v is None else v[:, start:]


def support_eigh(mat: np.ndarray, cut: SupportCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a PSD matrix on its support at the cutoff.

    ``eigh`` reads one triangle, so ``mat`` need not be re-symmetrized; the
    guard and the cutoff are :func:`support_pairs`.
    """
    return support_pairs(*_eigh(mat), cut)


def _power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """V diag(w^p) V^dag from eigenpairs ``(w, v)``.

    ``petz_divergence._rho_alpha_tensor`` forms the same product with the
    V^dag that the state's set-up caches.
    """
    return (v * w**p) @ v.conj().T


def power_on_support(
    x: HermitianOperator, p: float, cut: SupportCutoff = DEFAULT_CUT
) -> HermitianOperator:
    """PSD power taken on the support: kernel eigenvalues map to zero.

    ``x**0`` is the support projector.  A negative power of the zero operator
    raises :class:`ZeroOperator`.
    """
    w, vs = support_eigh(x.entries, cut)
    if not w.size:
        if p < 0:
            raise ZeroOperator("negative power of the zero operator")
        return HermitianOperator._wrap(np.zeros_like(x.entries))
    return HermitianOperator._wrap(_power(w, vs, p))


def support_projector(x: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT) -> HermitianOperator:
    return power_on_support(x, 0.0, cut)


def partial_trace(
    x: HermitianOperator, d_a: int, d_b: int, which: str
) -> HermitianOperator:
    """Trace out subsystem ``which`` of an operator on A⊗B (B index fastest)."""
    if x.dim != d_a * d_b:
        raise DimMismatch(f"dim {x.dim} != d_a*d_b = {d_a * d_b}")
    t = x.entries.reshape(d_a, d_b, d_a, d_b)
    w = which.upper()
    if w == "A":
        return HermitianOperator._wrap(np.einsum("abac->bc", t))
    if w == "B":
        return HermitianOperator._wrap(np.einsum("abcb->ac", t))
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def schatten_norm(x: HermitianOperator, p: float) -> float:
    """Schatten p-(quasi-)norm from the eigenvalues; p = inf gives max |lam|."""
    w = _eigvalsh(x.entries)
    if p == np.inf:
        return float(np.max(np.abs(w))) if w.size else 0.0
    if not p > 0:
        raise InvalidExponent(f"p must be positive or inf, got {p}")
    return float(np.sum(np.abs(w) ** p) ** (1.0 / p))


def min_nonzero_eig(x: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT) -> float:
    """Smallest eigenvalue above the support cutoff."""
    w, _ = support_eigh(x.entries, cut)
    if not w.size:
        raise ZeroOperator("operator vanishes at the cutoff")
    return float(w[0])


def _overlap(wx: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """The factor B = (vy^dag vx) diag(sqrt wx) of X's support part (wx, vx) compressed to span vy.

    The compression is C = B B^dag, never formed: its trace is
    ``_inside(B)`` = ||B||_F^2, and X compressed to the complement is PSD of
    trace tr X - tr C.
    """
    return np.dot(vy.conj().T, vx) * np.sqrt(wx)


def _inside(b: np.ndarray) -> float:
    """tr B B^dag = ||B||_F^2: the trace of X inside span vy for B = :func:`_overlap`."""
    return float(np.vdot(b, b).real)


def _overlap_pair(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X's and Y's support eigenvalues and their :func:`_overlap` factor (two ``support_eigh``)."""
    if x.dim != y.dim:
        raise DimMismatch(f"dims differ: {x.dim} vs {y.dim}")
    wx, vx = support_eigh(x.entries, cut)
    wy, vy = support_eigh(y.entries, cut)
    return wx, wy, _overlap(wx, vx, vy)


def _dominated(inside: float, mass: float, cut: SupportCutoff) -> bool:
    """X << Y: the trace of X outside supp Y, ``mass - inside``, is at most rel_tol tr X."""
    return mass - inside <= cut.rel_tol * mass


def _orthogonal(inside: float, mass: float, cut: SupportCutoff) -> bool:
    """X ⊥ Y: the trace of X inside supp Y, ``inside``, is at most rel_tol tr X."""
    return inside <= cut.rel_tol * mass


def support_relation(
    x: HermitianOperator, y: HermitianOperator, cut: SupportCutoff = DEFAULT_CUT
) -> SupportRelation:
    """Classify the support relation of two PSD operators at the cutoff.

    X ~ Y when X << Y and both supports have the same rank (both zero included).
    """
    wx, wy, overlap = _overlap_pair(x, y, cut)
    mass, inside = float(wx.sum()), _inside(overlap)
    if _dominated(inside, mass, cut):
        return SupportRelation.EQUAL_SUPPORT if wx.size == wy.size else SupportRelation.DOMINATED
    if _orthogonal(inside, mass, cut):
        return SupportRelation.ORTHOGONAL
    return SupportRelation.NONE


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> HermitianOperator:
    """Random density matrix from the Ginibre ensemble (full rank by default).

    A ``rank`` above ``dim`` gives a full-rank state.  ``dim`` or ``rank``
    below 1 raises ``ValueError`` before anything is drawn from ``rng``.
    """
    r = dim if rank is None else rank
    if dim < 1 or r < 1:
        raise ValueError(f"a density needs dim >= 1 and rank >= 1, got dim={dim}, rank={r}")
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return HermitianOperator._wrap(m / np.trace(m).real)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _SolveSetup:
    """What every solve of one state at one cutoff reads, whatever its order.

    Built once per state and cutoff (``BipartiteState._setup``), read-only:

    - ``rank_a``, ``rank_b``: the support ranks of rho_A and rho_B at the
      cutoff, which every iterate keeps;
    - ``marginal``: (w_s/sum w_s, V_s), the support part of the A marginal's
      spectrum normalized.  It is the restricted marginal initializer, and
      every other initializer is compressed to span V_s;
    - ``w_cut``, ``vh``: rho's spectrum with its kernel set to zero, and
      V^dag, from which each order builds rho^alpha = V diag(w_cut^alpha) V^dag.
    """

    rank_a: int
    rank_b: int
    marginal: tuple[np.ndarray, np.ndarray]
    w_cut: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, state: "BipartiteState", cut: SupportCutoff) -> "_SolveSetup":
        w_s, v_s = support_pairs(*state.marginal_spectrum, cut)
        w_b = state._marginal_b_spectrum
        w, v = state.spectrum
        return cls(
            rank_a=w_s.size,
            rank_b=int(np.count_nonzero(support_mask(w_b, cut, float(w_b[-1])))),
            marginal=(_frozen(w_s / float(w_s.sum())), _frozen(v_s)),
            w_cut=_frozen(np.where(support_mask(w, cut), w, 0.0)),
            vh=_frozen(v.conj().T),
        )


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on A⊗B with recorded subsystem dimensions.

    Everything a solve needs from the state alone is computed on first use
    and kept on the instance, read-only: the spectrum of ``op``, the two
    marginals, the spectrum of the A marginal and the eigenvalues of the B
    marginal, and per cutoff the :class:`_SolveSetup` read off them
    (``_setup``).  Every order of a sweep starts from the same arrays; two
    states with equal entries share nothing.
    """

    d_a: int
    d_b: int
    op: HermitianOperator

    PSD_TOL = 1e-10
    TRACE_TOL = 1e-10

    @classmethod
    def from_operator(cls, op: HermitianOperator, d_a: int, d_b: int) -> "BipartiteState":
        if d_a < 1 or d_b < 1 or op.dim != d_a * d_b:
            raise DimMismatch(f"op dim {op.dim} incompatible with {d_a}x{d_b}")
        state = cls(d_a, d_b, op)
        w = state.spectrum[0]
        if float(w[0]) < -cls.PSD_TOL:
            raise InvalidOperator(f"state is not PSD: min eigenvalue {w[0]:.3e}")
        tr = float(w.sum())
        if abs(tr - 1.0) > cls.TRACE_TOL:
            raise InvalidOperator(f"state trace {tr} differs from 1 beyond {cls.TRACE_TOL}")
        return state

    @classmethod
    def from_matrix(cls, entries, d_a: int, d_b: int) -> "BipartiteState":
        return cls.from_operator(HermitianOperator.from_entries(entries), d_a, d_b)

    @property
    def dim(self) -> int:
        return self.op.dim

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending ``(w, v)`` of ``op``: decomposed once, at validation."""
        w, v = _eigh(self.op.entries)
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @cached_property
    def _marginal_a(self) -> HermitianOperator:
        return partial_trace(self.op, self.d_a, self.d_b, "B")

    @cached_property
    def _marginal_b(self) -> HermitianOperator:
        return partial_trace(self.op, self.d_a, self.d_b, "A")

    def marginal_a(self) -> HermitianOperator:
        return self._marginal_a

    def marginal_b(self) -> HermitianOperator:
        return self._marginal_b

    @cached_property
    def marginal_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending ``(w, v)`` of the A marginal, the start of every solve."""
        w, v = _eigh(self.marginal_a().entries)
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @cached_property
    def _marginal_b_spectrum(self) -> np.ndarray:
        """Read-only ascending eigenvalues of the B marginal, for its support rank and entropy."""
        w = _eigvalsh(self.marginal_b().entries)
        w.flags.writeable = False
        return w

    @cached_property
    def _setups(self) -> dict[SupportCutoff, _SolveSetup]:
        return {}

    def _setup(self, cut: SupportCutoff) -> _SolveSetup:
        """The order-independent set-up of every solve at ``cut``, built on first use."""
        setup = self._setups.get(cut)
        if setup is None:
            setup = self._setups[cut] = _SolveSetup.of(self, cut)
        return setup

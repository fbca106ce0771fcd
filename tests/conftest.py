import math
import sys
from collections import Counter

import numpy as np
import pytest

from prmi import (
    DEFAULT_CUT,
    BipartiteState,
    HermitianOperator,
    SupportRelation,
    operator_core,
    random_density,
)


def random_state(d_a: int, d_b: int, rng: np.random.Generator) -> BipartiteState:
    """Random full-rank bipartite state (Ginibre)."""
    return BipartiteState.from_operator(random_density(d_a * d_b, rng), d_a, d_b)


def random_product_state(d_a: int, d_b: int, rng: np.random.Generator) -> BipartiteState:
    a = random_density(d_a, rng)
    b = random_density(d_b, rng)
    return BipartiteState.from_matrix(np.kron(a.entries, b.entries), d_a, d_b)


def maximally_correlated(d: int) -> BipartiteState:
    """(1/d) sum_x |xx><xx| in the computational product basis."""
    mat = np.zeros((d * d, d * d))
    for x in range(d):
        idx = x * d + x
        mat[idx, idx] = 1.0 / d
    return BipartiteState.from_matrix(mat, d, d)


def near_singular(d: int, eta: float, rng: np.random.Generator) -> BipartiteState:
    """Maximally correlated state plus eta times a Ginibre density matrix."""
    mat = maximally_correlated(d).op.entries + eta * random_density(d * d, rng).entries
    return BipartiteState.from_matrix(mat / np.trace(mat).real, d, d)


def random_pmf(shape, rng: np.random.Generator, full_support: bool = True) -> np.ndarray:
    p = rng.random(shape)
    if full_support:
        p += 0.05
    p /= p.sum()
    return p


def uniform_state(d_a: int, d_b: int) -> BipartiteState:
    return BipartiteState.from_matrix(np.eye(d_a * d_b) / (d_a * d_b), d_a, d_b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def by_shape(name: str, mat) -> tuple:
    """``count_decompositions`` key: the matrix shape."""
    return np.shape(mat)


def by_name(name: str, mat) -> str:
    """``count_decompositions`` key: ``"eigh"`` or ``"eigvalsh"``."""
    return name


def count_decompositions(monkeypatch, key=by_shape) -> Counter:
    """Count the eigen kernel's calls, ``operator_core._eigh``/``_eigvalsh``, under ``key(name, matrix)``.

    ``name`` is ``"eigh"`` or ``"eigvalsh"``; the default key is the matrix
    shape.  Every ``prmi`` module that binds a kernel function is patched, so
    no decomposition in ``src/`` escapes the count.
    """
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        real = getattr(operator_core, f"_{name}")

        def counted(mat, _name=name, _real=real):
            calls[key(_name, mat)] += 1
            return _real(mat)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("prmi.") and getattr(module, f"_{name}", None) is real:
                monkeypatch.setattr(module, f"_{name}", counted)
    return calls


def a_priori_eps(alpha: float, consts, n: int) -> float:
    """The a priori schedule g(gamma^(2n) c0), g(D) = expm1((alpha-1)(1+gamma) D)/(alpha-1)."""
    arg = (alpha - 1.0) * (1.0 + consts.gamma) * (consts.gamma ** (2 * n) * consts.c0)
    return math.inf if arg > 700.0 else math.expm1(arg) / (alpha - 1.0)


def a_priori_iterations(alpha: float, consts, eps0: float) -> int:
    """n*: the first n whose a priori eps_n is below eps0."""
    n = 0
    while not a_priori_eps(alpha, consts, n) < eps0:
        n += 1
    return n


def composed_ratios(x, y, rel_tol: float = DEFAULT_CUT.rel_tol) -> tuple[float, float, float]:
    """The three ratios the projector/Schatten-norm support relation compares with the cutoff.

    With a^0 the support projector of a at the cutoff and ||.|| the spectral
    norm of the full entries: ||(1 - y^0) x (1 - y^0)|| / ||x|| (x << y when
    small), the same with x and y swapped, and ||y^0 x y^0|| / ||x|| (x ⊥ y
    when small).  A zero numerator reads 0.
    """

    def projector(a):
        w, v = np.linalg.eigh(a)
        v = v[:, w > rel_tol * max(w[-1], 0.0)]
        return v @ v.conj().T

    def norm(a):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))

    def ratio(part, whole):
        top = norm(part)
        return top / norm(whole) if top else 0.0

    a, b = x.entries, y.entries
    pa, pb = projector(a), projector(b)
    qa, qb = np.eye(len(a)) - pa, np.eye(len(b)) - pb
    return ratio(qb @ a @ qb, a), ratio(qa @ b @ qa, b), ratio(pb @ a @ pb, a)


def composed_support_relation(x, y, rel_tol: float = DEFAULT_CUT.rel_tol) -> SupportRelation:
    """Reference copy of the projector/Schatten-norm support relation, in numpy only."""
    x_out, y_out, x_in = composed_ratios(x, y, rel_tol)
    if x_out <= rel_tol and y_out <= rel_tol:
        return SupportRelation.EQUAL_SUPPORT
    if x_out <= rel_tol:
        return SupportRelation.DOMINATED
    if x_in <= rel_tol:
        return SupportRelation.ORTHOGONAL
    return SupportRelation.NONE

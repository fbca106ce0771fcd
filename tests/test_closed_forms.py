"""Certified solves against closed-form minima (ROADMAP item 14).

A pure state, a maximally correlated state or PMF with weights lambda, and a
product state have an exact x* at every order above 1/2 and every size
(``references.pure_state_value``, ``references.maximally_correlated_value``
and 0).  The grid runs them with a smallest weight down to 1e-10, where the
half-step matrices span that weight to the power alpha: 1e-20 at alpha 2,
far below the relative 1e-12 support cutoff.  The iterate keeps its
marginal's support rank all the same, so in the Schmidt/product basis every
run certifies a value within eps0.

Under local Haar unitaries the same states must still end in a sound
certificate, ``DomainViolation`` or ``InvalidOperator``, apart from the
listed false certificates: there the rotated half-step matrix resolves its
smallest eigenvalues only to about eps times its largest (ROADMAP items 2
and 11), so the iterate's small directions carry that error into x.
"""

import itertools

import numpy as np
import pytest

from prmi import AmConfig, BipartiteState, JointPmf, algorithm1, algorithm2, algorithm_classical
from prmi.operator_core import InvalidOperator
from prmi.petz_divergence import DomainViolation
from references import maximally_correlated_value, pure_state_value

FAMILIES = ("pure", "mc", "product")
DIMS = (2, 3, 4)
SMALLEST = (1e-3, 1e-6, 1e-8, 1e-10)
ALPHAS = (0.6, 0.9, 1.25, 1.5, 2.0)
EPS0 = (1e-6, 1e-8, 1e-10)

# (family, d, smallest weight, alpha, eps0) of the rotated grid whose certificate
# misses x* by more than eps0 (ROADMAP items 2 and 11).
FALSE_ROTATED = {
    ("mc", 2, 1e-10, 1.5, 1e-10),
    ("mc", 2, 1e-08, 2.0, 1e-08),
    ("mc", 2, 1e-08, 2.0, 1e-10),
    ("mc", 3, 1e-10, 1.5, 1e-10),
    ("mc", 3, 1e-08, 2.0, 1e-08),
    ("mc", 3, 1e-08, 2.0, 1e-10),
    ("mc", 4, 1e-10, 1.5, 1e-10),
    ("mc", 4, 1e-08, 2.0, 1e-08),
    ("mc", 4, 1e-08, 2.0, 1e-10),
    ("mc", 4, 1e-06, 2.0, 1e-10),
    ("product", 2, 1e-08, 2.0, 1e-10),
    ("product", 4, 1e-08, 2.0, 1e-10),
}


def geometric_weights(d: int, smallest: float) -> np.ndarray:
    """Weights proportional to smallest^(i/(d-1)), i = 0..d-1: from 1 down to ``smallest``."""
    w = smallest ** (np.arange(d) / (d - 1))
    return w / w.sum()


def closed_form_case(family: str, d: int, smallest: float):
    """A d x d state of ``family`` in the Schmidt/product basis, and x* as a function of alpha."""
    lam = geometric_weights(d, smallest)
    diagonal = np.arange(d) * (d + 1)  # the basis vectors |ii>
    if family == "pure":
        psi = np.zeros(d * d)
        psi[diagonal] = np.sqrt(lam)
        return np.outer(psi, psi), lambda alpha: pure_state_value(lam, alpha)
    if family == "mc":
        weights = np.zeros(d * d)
        weights[diagonal] = lam
        return np.diag(weights), lambda alpha: maximally_correlated_value(lam, alpha)
    other = np.arange(1.0, d + 1)
    return np.kron(np.diag(lam), np.diag(other / other.sum())), lambda alpha: 0.0


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def solve_grid(family: str, rotated: bool) -> dict:
    """Per (family, d, smallest, alpha, eps0): a certificate's error x - x*, or what raised."""
    outcomes = {}
    for (i, d), (j, smallest) in itertools.product(enumerate(DIMS), enumerate(SMALLEST)):
        mat, value = closed_form_case(family, d, smallest)
        if rotated:
            rng = np.random.default_rng([FAMILIES.index(family), i, j])
            u = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
            mat = u @ mat @ u.conj().T
        rho = BipartiteState.from_matrix(mat, d, d)
        for alpha, eps0 in itertools.product(ALPHAS, EPS0):
            solve = algorithm1 if alpha > 1 else algorithm2
            key = (family, d, smallest, alpha, eps0)
            try:
                trace = solve(rho, AmConfig(alpha=alpha, eps0=eps0))
            except (DomainViolation, InvalidOperator) as exc:
                outcomes[key] = type(exc).__name__
                continue
            assert trace.terminated_by == "certificate", key
            outcomes[key] = trace.final_x - value(alpha)
    return outcomes


def false_certificates(outcomes: dict) -> set:
    return {key for key, err in outcomes.items() if isinstance(err, float) and abs(err) > key[-1]}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_basis_run_certifies_within_eps0(family):
    outcomes = solve_grid(family, rotated=False)
    assert all(isinstance(err, float) for err in outcomes.values())
    assert false_certificates(outcomes) == set()


def test_rotated_runs_certify_within_eps0_or_raise():
    outcomes = {}
    for family in FAMILIES:
        outcomes.update(solve_grid(family, rotated=True))
    assert len(outcomes) == 540
    assert false_certificates(outcomes) == FALSE_ROTATED


@pytest.mark.parametrize("d", DIMS)
def test_classical_maximally_correlated_pmf(d):
    for smallest, alpha, eps0 in itertools.product(SMALLEST, ALPHAS + (4.0,), EPS0):
        lam = geometric_weights(d, smallest)
        pmf = JointPmf.from_weights(np.diag(lam))
        trace = algorithm_classical(pmf, AmConfig(alpha=alpha, eps0=eps0))
        assert trace.terminated_by == "certificate"
        assert abs(trace.final_x - maximally_correlated_value(lam, alpha)) <= eps0

"""Property tests of the a posteriori linear certificate (alpha > 1).

Every certified run is held to references that do not reuse the iteration:
zero from below, the divergence at a random product state from above, and
the a priori schedule g(gamma^(2n) c0) as a ceiling on every eps_n.  A few
fixed seeds also compare the value with a long uncertified run, and the
bound D_n behind each eps_n with the distance to that run's final sigma: the
value gap is second order in that distance, so only the distance shows an
underestimated D_n.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import a_priori_eps, a_priori_iterations, near_singular
from prmi import (
    AmConfig,
    BipartiteState,
    HermitianOperator,
    algorithm1,
    algorithm_classical,
    d_alpha,
    d_alpha_classical,
    d_h,
    linear_constants,
    random_density,
    run_uncertified,
    run_uncertified_classical,
)
from prmi.classical_rmi import classical_linear_constants

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
eps_exponents = st.integers(min_value=3, max_value=12)
quantum_alphas = st.floats(min_value=1.01, max_value=2.0)


def rank_deficient(d_a: int, d_b: int, rank: int, rng: np.random.Generator) -> BipartiteState:
    return BipartiteState.from_operator(random_density(d_a * d_b, rng, rank=rank), d_a, d_b)


def random_pmf3(rng: np.random.Generator) -> np.ndarray:
    p = rng.random((3, 3))
    return p / p.sum()


def check_schedule(trace, alpha: float, consts, eps0: float) -> None:
    """eps_n nonincreasing and at or below the a priori schedule, so n <= n*."""
    eps = [r.eps_n for r in trace.records]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    for r in trace.records:
        assert r.eps_n <= a_priori_eps(alpha, consts, r.n) * (1.0 + 1e-12)
    assert trace.iterations <= a_priori_iterations(alpha, consts, eps0)


def check_quantum(rho: BipartiteState, alpha: float, eps0: float, rng: np.random.Generator) -> None:
    trace = algorithm1(rho, AmConfig(alpha=alpha, eps0=eps0))
    assert trace.terminated_by == "certificate"
    x = trace.final_x
    assert x >= -eps0
    product = np.kron(random_density(rho.d_a, rng).entries, random_density(rho.d_b, rng).entries)
    assert x - eps0 <= d_alpha(rho.op, HermitianOperator.from_entries(product), alpha)
    check_schedule(trace, alpha, linear_constants(rho, rho.marginal_a(), alpha), eps0)


@PROPERTY
@given(
    seed=seeds,
    d=st.sampled_from([2, 3]),
    log_eta=st.floats(min_value=-10.0, max_value=-2.0),
    alpha=quantum_alphas,
    k=eps_exponents,
)
def test_near_singular_states(seed, d, log_eta, alpha, k):
    rng = np.random.default_rng(seed)
    check_quantum(near_singular(d, 10.0**log_eta, rng), alpha, 10.0**-k, rng)


@PROPERTY
@given(
    seed=seeds,
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    rank_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    alpha=quantum_alphas,
    k=eps_exponents,
)
def test_rank_deficient_states(seed, dims, rank_share, alpha, k):
    d_a, d_b = dims
    rank = 1 + int(rank_share * (d_a * d_b - 1))  # 1 .. d_a d_b - 1
    rng = np.random.default_rng(seed)
    check_quantum(rank_deficient(d_a, d_b, rank, rng), alpha, 10.0**-k, rng)


@PROPERTY
@given(seed=seeds, alpha=st.floats(min_value=1.01, max_value=8.0), k=eps_exponents)
def test_pmfs_3x3(seed, alpha, k):
    rng = np.random.default_rng(seed)
    p, eps0 = random_pmf3(rng), 10.0**-k
    trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=eps0))
    assert trace.terminated_by == "certificate"
    x = trace.final_x
    assert x >= -eps0
    q, r = rng.random(3) + 1e-3, rng.random(3) + 1e-3
    assert x - eps0 <= d_alpha_classical(p, np.outer(q / q.sum(), r / r.sum()), alpha)
    check_schedule(trace, alpha, classical_linear_constants(p, p.sum(axis=1), alpha), eps0)


def spread_pmf3(rng: np.random.Generator) -> np.ndarray:
    """3x3 PMF whose entries are log-uniform over three decades."""
    p = 10.0 ** (-3.0 * rng.random((3, 3)))
    return p / p.sum()


@PROPERTY
@given(seed=seeds, alpha=st.sampled_from([4.0, 6.0, 8.0]))
def test_spread_pmfs_value_is_the_objective_at_the_returned_pair(seed, alpha):
    # At large orders P^alpha spans far more than the support cutoff's 1e12;
    # the certified value must still be the objective of the pair returned.
    p = spread_pmf3(np.random.default_rng(seed))
    trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=1e-6))
    assert trace.terminated_by == "certificate"
    q = np.diag(trace.final_sigma_a.entries).real
    r = np.diag(trace.final_tau_b.entries).real
    assert abs(d_alpha_classical(p, np.outer(q, r), alpha) - trace.final_x) <= 1e-9


QUANTUM_CASES = {
    "near-singular-2": lambda rng: near_singular(2, 1e-6, rng),
    "near-singular-3": lambda rng: near_singular(3, 1e-10, rng),
    "rank2-2x2": lambda rng: rank_deficient(2, 2, 2, rng),
    "rank3-3x2": lambda rng: rank_deficient(3, 2, 3, rng),
}


def distance_bound(eps_n: float, alpha: float) -> float:
    """D_n recovered from eps_n = g(D_n)."""
    gamma = 1.0 - 1.0 / alpha
    return math.log1p((alpha - 1.0) * eps_n) / ((alpha - 1.0) * (1.0 + gamma))


def check_against_reference(trace, reference, alpha: float, eps0: float) -> None:
    assert trace.terminated_by == "certificate"
    assert abs(trace.final_x - reference.final_x) <= eps0
    limit = reference.final_sigma_a
    for r, sigma in zip(trace.records, trace.sigma_states):
        assert d_h(sigma, limit) <= distance_bound(r.eps_n, alpha) + 1e-12  # reference rounding ~1e-15


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.25, 2.0])
@pytest.mark.parametrize("case", sorted(QUANTUM_CASES))
def test_agrees_with_uncertified_run(seed, alpha, case):
    rho = QUANTUM_CASES[case](np.random.default_rng(seed))
    eps0 = 1e-8
    trace = algorithm1(rho, AmConfig(alpha=alpha, eps0=eps0, record_states=True))
    reference = run_uncertified(rho, AmConfig(alpha=alpha), 400)
    check_against_reference(trace, reference, alpha, eps0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.5, 4.0, 8.0])
def test_classical_agrees_with_uncertified_run(seed, alpha):
    p = random_pmf3(np.random.default_rng(seed))
    eps0 = 1e-8
    trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=eps0, record_states=True))
    reference = run_uncertified_classical(p, AmConfig(alpha=alpha), 400)
    check_against_reference(trace, reference, alpha, eps0)

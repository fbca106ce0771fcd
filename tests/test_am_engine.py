import math
from collections import Counter

import numpy as np
import pytest

from conftest import maximally_correlated, random_product_state, random_state, uniform_state
from prmi import (
    DEFAULT_CUT,
    AmConfig,
    BipartiteState,
    HermitianOperator,
    OrthogonalInitializer,
    algorithm1,
    algorithm2,
    contraction_probe,
    cross_ratio_diameter,
    d_h,
    kappa_estimate,
    linear_constants,
    n_a_to_b,
    n_b_to_a,
    random_density,
    restrict_initializer,
    run_uncertified,
    spectrum_floors,
    sublinear_constants,
)
from prmi.am_engine import NotStrictlyPositive, _AmRun, projective_diameter_from_vectors


def uniform_op(d):
    return HermitianOperator.from_entries(np.eye(d) / d)


class TestIterationMaps:
    def test_product_fixed_point(self, rng):
        rho = random_product_state(2, 3, rng)
        tau = n_a_to_b(rho, rho.marginal_a(), 0.75)
        assert np.max(np.abs(tau.entries - rho.marginal_b().entries)) <= 1e-11
        sigma = n_b_to_a(rho, rho.marginal_b(), 0.75)
        assert np.max(np.abs(sigma.entries - rho.marginal_a().entries)) <= 1e-11

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.5])
    def test_maximally_correlated_uniform_fixed_point(self, alpha):
        rho = maximally_correlated(2)
        tau = n_a_to_b(rho, uniform_op(2), alpha)
        sigma = n_b_to_a(rho, uniform_op(2), alpha)
        assert np.max(np.abs(tau.entries - np.eye(2) / 2)) <= 1e-12
        assert np.max(np.abs(sigma.entries - np.eye(2) / 2)) <= 1e-12

    def test_output_support_and_trace(self, rng):
        rho = random_state(2, 2, rng)
        sigma = random_density(2, rng)
        tau = n_a_to_b(rho, sigma, 1.5)
        assert abs(tau.trace() - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(tau.entries)) > 0

    def test_swap_symmetric_state(self, rng):
        base = random_density(4, rng).entries
        perm = [0, 2, 1, 3]
        sym = (base + base[np.ix_(perm, perm)]) / 2
        from prmi import BipartiteState

        rho = BipartiteState.from_matrix(sym / np.trace(sym).real, 2, 2)
        tau = random_density(2, rng)
        assert np.max(np.abs(n_b_to_a(rho, tau, 1.5).entries - n_a_to_b(rho, tau, 1.5).entries)) <= 1e-10


class TestHalfStepKernel:
    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    @pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2)])
    def test_gemv_half_steps_match_partial_minimizers(self, rng, d_a, d_b, alpha):
        # d_a != d_b and rank-deficient marginals: a swapped index order cannot hide.
        rho = BipartiteState.from_operator(random_density(d_a * d_b, rng, rank=2), d_a, d_b)
        sigma0 = restrict_initializer(random_density(d_a, rng), rho.marginal_a())
        run = _AmRun(rho, alpha, DEFAULT_CUT, sigma0)
        run.a_to_b()
        tau = run.tau_op()
        assert np.max(np.abs(tau.entries - n_a_to_b(rho, sigma0, alpha).entries)) <= 1e-12
        run.b_to_a()
        assert np.max(np.abs(run.sigma_op().entries - n_b_to_a(rho, tau, alpha).entries)) <= 1e-12


class TestStateSpectrumCache:
    def test_state_decomposed_once_across_orders(self, rng, monkeypatch):
        calls = Counter()
        for name in ("eigh", "eigvalsh"):

            def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
                calls[np.shape(a)] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rho = BipartiteState.from_matrix(random_density(9, rng).entries, 3, 3)
        algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-4))
        algorithm1(rho, AmConfig(alpha=1.5))
        algorithm1(rho, AmConfig(alpha=2.0))
        assert calls[(9, 9)] == 1
        assert calls[(3, 3)] > 0


class TestRestrictInitializer:
    def test_idempotent_on_supported(self, rng):
        rho_a = random_density(3, rng)
        sigma = random_density(3, rng)
        once = restrict_initializer(sigma, rho_a)
        twice = restrict_initializer(once, rho_a)
        assert np.max(np.abs(once.entries - twice.entries)) <= 1e-12

    def test_rank_one_compression(self):
        out = restrict_initializer(uniform_op(2), HermitianOperator.diagonal([1.0, 0.0]))
        assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_map_invariance(self, rng):
        # Restriction leaves the map output unchanged when the initializer
        # commutes with the support projector of the A marginal (it always
        # does for full-rank marginals and in the classical/diagonal case).
        from prmi import BipartiteState

        small = random_state(2, 3, rng)
        big = np.zeros((9, 9), dtype=complex)
        big[:6, :6] = small.op.entries
        rho = BipartiteState.from_matrix(big, 3, 3)
        block = np.zeros((3, 3), dtype=complex)
        block[:2, :2] = 0.6 * random_density(2, rng).entries
        block[2, 2] = 0.4
        sigma0 = HermitianOperator.from_entries(block)
        restricted = restrict_initializer(sigma0, rho.marginal_a())
        lhs = n_a_to_b(rho, sigma0, 0.75)
        rhs = n_a_to_b(rho, restricted, 0.75)
        assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-10

    def test_map_invariance_rank_one_marginal(self, rng):
        # For a rank-one A marginal the compression argument holds for every
        # initializer with nonzero overlap.
        from prmi import BipartiteState

        tau = random_density(2, rng)
        mat = np.zeros((6, 6), dtype=complex)
        mat[:2, :2] = tau.entries  # |0><0|_A ⊗ tau_B with d_a=3, d_b=2
        rho = BipartiteState.from_matrix(mat, 3, 2)
        sigma0 = random_density(3, rng)
        lhs = n_a_to_b(rho, sigma0, 0.75)
        rhs = n_a_to_b(rho, restrict_initializer(sigma0, rho.marginal_a()), 0.75)
        assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-10

    def test_orthogonal_rejected(self):
        sigma = HermitianOperator.diagonal([0.0, 1.0])
        rho_a = HermitianOperator.diagonal([1.0, 0.0])
        with pytest.raises(OrthogonalInitializer):
            restrict_initializer(sigma, rho_a)


class TestConstants:
    def test_linear_constants_uniform_instance(self):
        rho = uniform_state(2, 2)
        consts = linear_constants(rho, uniform_op(2), 2.0)
        assert consts.gamma == pytest.approx(0.5, abs=1e-15)
        assert consts.lambda_a == pytest.approx(0.125, abs=1e-15)
        assert consts.q0 == pytest.approx(1.0, abs=1e-12)
        assert consts.c_a == pytest.approx(math.sqrt(0.125), abs=1e-12)
        assert consts.c0 == pytest.approx(3 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("alpha,gamma", [(2.0, 0.5), (1.25, 0.2)])
    def test_gamma_arithmetic(self, alpha, gamma, rng):
        rho = random_state(2, 2, rng)
        consts = linear_constants(rho, rho.marginal_a(), alpha)
        assert consts.gamma == pytest.approx(gamma, abs=1e-12)

    def test_c0_dominates_distance_to_limit(self, rng):
        rho = random_state(2, 2, rng)
        sigma0 = random_density(2, rng)
        consts = linear_constants(rho, sigma0, 1.5)
        trace = run_uncertified(
            rho, AmConfig(alpha=1.5, init="explicit", sigma0=sigma0), 200
        )
        restricted = restrict_initializer(sigma0, rho.marginal_a())
        assert consts.c0 >= d_h(restricted, trace.final_sigma_a) - 1e-6

    def test_sublinear_constants_uniform_instance(self):
        rho = uniform_state(2, 2)
        consts = sublinear_constants(rho, uniform_op(2), 0.75)
        assert consts.lambda_a == pytest.approx(2.0 ** -0.5, abs=1e-14)
        assert consts.lambda_b == pytest.approx(2.0 ** -0.5, abs=1e-14)
        assert consts.lambda_a0 == pytest.approx(0.5, abs=1e-14)
        assert consts.c0 == pytest.approx(4 * math.sqrt(5), abs=1e-9)

    def test_sublinear_invariant_under_restriction(self, rng):
        rho = random_state(2, 2, rng)
        sigma0 = random_density(2, rng)
        restricted = restrict_initializer(sigma0, rho.marginal_a())
        a = sublinear_constants(rho, sigma0, 0.75)
        b = sublinear_constants(rho, restricted, 0.75)
        assert a.c0 == pytest.approx(b.c0, rel=1e-12)


class TestAlgorithm1:
    def test_product_terminates_at_zero(self, rng):
        rho = random_product_state(2, 2, rng)
        trace = algorithm1(rho, AmConfig(alpha=1.5, eps0=1e-6))
        assert trace.terminated_by == "certificate"
        assert abs(trace.final_x) <= 1e-10

    def test_maximally_mixed(self):
        trace = algorithm1(uniform_state(2, 2), AmConfig(alpha=2.0, eps0=1e-6))
        assert abs(trace.final_x) <= 1e-6

    def test_certified_error_vs_long_run(self, rng):
        rho = random_state(2, 2, rng)
        trace = algorithm1(rho, AmConfig(alpha=1.5, eps0=1e-6))
        long_run = run_uncertified(rho, AmConfig(alpha=1.5), 2000)
        assert abs(trace.final_x - long_run.final_x) <= 1e-6

    def test_eps_schedule_monotone(self, rng):
        rho = random_state(2, 2, rng)
        trace = algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-8))
        eps = [r.eps_n for r in trace.records]
        assert all(eps[i] >= eps[i + 1] for i in range(len(eps) - 1))

    def test_max_iter_flagged(self, rng):
        rho = random_state(2, 2, rng)
        trace = algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-12, max_iter=2))
        assert trace.terminated_by == "max_iter"

    def test_rejects_out_of_range_alpha(self, rng):
        rho = random_state(2, 2, rng)
        with pytest.raises(ValueError):
            algorithm1(rho, AmConfig(alpha=2.5))


class TestAlgorithm2:
    def test_product_immediate(self, rng):
        rho = random_product_state(2, 2, rng)
        trace = algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-4))
        assert trace.terminated_by == "certificate"
        assert abs(trace.final_x) <= 1e-9

    def test_maximally_mixed(self):
        trace = algorithm2(uniform_state(2, 2), AmConfig(alpha=0.75, eps0=1e-4))
        assert abs(trace.final_x) <= 1e-4

    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_certified_error_vs_long_run(self, rng, alpha):
        rho = random_state(2, 2, rng)
        trace = algorithm2(rho, AmConfig(alpha=alpha, eps0=1e-4))
        long_run = run_uncertified(rho, AmConfig(alpha=alpha), 3000)
        assert abs(trace.final_x - long_run.final_x) <= 1e-4

    def test_first_record_has_no_eps(self, rng):
        rho = random_state(2, 2, rng)
        trace = algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-4))
        assert trace.records[0].eps_n is None
        assert all(r.eps_n is not None for r in trace.records[1:])

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the a posteriori bound clips a rounding-level rise "
        "of x to a zero drop and certifies eps_n = 0",
    )
    def test_certificate_survives_rounding(self):
        # On this state the objective rises by ~2e-15 at iteration 6; the
        # absolute monotonicity slack lets it through and eps_n becomes 0.
        rho = random_state(2, 2, np.random.default_rng(3))
        trace = algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-14))
        if trace.terminated_by == "certificate":
            assert trace.records[-1].eps_n > 0


class TestDescentAndFixedPoint:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.1, 1.5, 2.0])
    def test_monotone_descent(self, rng, alpha):
        rho = random_state(2, 3, rng)
        trace = run_uncertified(rho, AmConfig(alpha=alpha), 60)
        assert np.all(np.diff(trace.x_values) <= 1e-10)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_fixed_point_consistency(self, rng, alpha):
        rho = random_state(2, 2, rng)
        trace = run_uncertified(rho, AmConfig(alpha=alpha), 200)
        sigma, tau = trace.final_sigma_a, trace.final_tau_b
        tau_next = n_a_to_b(rho, sigma, alpha)
        sigma_next = n_b_to_a(rho, tau, alpha)
        assert np.max(np.abs(tau_next.entries - tau.entries)) <= 1e-8
        assert np.max(np.abs(sigma_next.entries - sigma.entries)) <= 1e-8

    def test_below_half_alpha_stays_at_uniform_fixed_point(self):
        rho = maximally_correlated(2)
        trace = run_uncertified(rho, AmConfig(alpha=0.3, init="uniform"), 50)
        assert np.max(np.abs(trace.x_values - math.log(2))) <= 1e-10
        suboptimal_gap = math.log(2) - (0.3 / 0.7) * math.log(2)
        assert suboptimal_gap > 0.39

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_spectrum_floors_hold_on_iterates(self, rng, alpha):
        rho = random_state(2, 2, rng)
        sigma0 = random_density(2, rng)
        c_a, c_b = spectrum_floors(rho, sigma0, alpha)
        trace = run_uncertified(
            rho,
            AmConfig(alpha=alpha, init="explicit", sigma0=sigma0, record_states=True),
            30,
        )
        for n, (sig, tau) in enumerate(zip(trace.sigma_states, trace.tau_states)):
            lam_sig = np.min(np.linalg.eigvalsh(sig.entries))
            lam_tau = np.min(np.linalg.eigvalsh(tau.entries))
            if alpha < 1 or n >= 1:
                assert lam_sig >= c_a - 1e-12
            assert lam_tau >= c_b - 1e-12


class TestProbes:
    def test_contraction_ratio_below_gamma(self, rng):
        rho = random_state(2, 2, rng)
        report = contraction_probe(rho, 1.5, 50, rng)
        assert report.max_ratio <= report.gamma + 1e-9

    def test_maximally_mixed_ratio(self, rng):
        report = contraction_probe(uniform_state(2, 2), 2.0, 30, rng)
        assert report.max_ratio <= 0.5 + 1e-9

    def test_kappa_zero_for_maximally_mixed(self):
        assert kappa_estimate(uniform_state(2, 2), 2.0, 5) <= 1e-12

    def test_kappa_requires_positive_state(self):
        with pytest.raises(NotStrictlyPositive):
            kappa_estimate(maximally_correlated(2), 2.0, 5)

    def test_kappa_monotone_in_samples(self, rng):
        rho = random_state(2, 2, rng)
        k_small = kappa_estimate(rho, 1.5, 5, np.random.default_rng(9))
        k_large = kappa_estimate(rho, 1.5, 25, np.random.default_rng(9))
        assert k_large >= k_small - 1e-15

    def test_cc_diameter_matches_classical_formula(self, rng):
        p = rng.random((2, 2)) + 0.1
        p /= p.sum()
        from prmi import cc_embed

        rho = cc_embed(p)
        basis = np.eye(2)
        delta_quantum = projective_diameter_from_vectors(rho, 1.5, basis)
        assert delta_quantum == pytest.approx(cross_ratio_diameter(p, 1.5), abs=1e-10)

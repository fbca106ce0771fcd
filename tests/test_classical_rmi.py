import math

import numpy as np
import pytest

from conftest import random_pmf
from prmi import (
    AmConfig,
    HermitianOperator,
    JointPmf,
    Pmf,
    UnsupportedOrder,
    algorithm_classical,
    birkhoff_kappa_classical,
    cc_embed,
    cross_ratio_diameter,
    d_alpha,
    d_alpha_classical,
    d_h_vec,
    grid_min_classical,
    n_x_to_y,
    n_y_to_x,
    run_uncertified,
    run_uncertified_classical,
)
from prmi.am_engine import NotStrictlyPositive
from prmi.petz_divergence import DomainViolation, product_operator


class TestPmfTypes:
    def test_valid(self):
        Pmf.from_weights([0.25, 0.75])
        JointPmf.from_weights([[0.5, 0.25], [0.125, 0.125]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf.from_weights([1.1, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointPmf.from_weights([[0.5, 0.25], [0.125, 0.0]])

    def test_marginals(self):
        j = JointPmf.from_weights([[0.4, 0.1], [0.1, 0.4]])
        assert np.allclose(j.marginal_x().weights, [0.5, 0.5])


class TestClassicalDivergence:
    def test_self_zero(self, rng):
        p = random_pmf(4, rng)
        assert d_alpha_classical(p, p, 0.75) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert d_alpha_classical([1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_support_violation_above_one(self):
        assert d_alpha_classical([0.5, 0.5], [1.0, 0.0], 1.5) == math.inf

    def test_alpha_one_rejected(self):
        with pytest.raises(UnsupportedOrder):
            d_alpha_classical([0.5, 0.5], [0.5, 0.5], 1.0)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 2.0])
    def test_matches_quantum_on_diagonal(self, rng, alpha):
        p = random_pmf((2, 3), rng)
        q = random_pmf(2, rng)
        r = random_pmf(3, rng)
        classical = d_alpha_classical(p, np.outer(q, r), alpha)
        quantum = d_alpha(
            cc_embed(p).op,
            product_operator(HermitianOperator.diagonal(q), HermitianOperator.diagonal(r)),
            alpha,
        )
        assert classical == pytest.approx(quantum, abs=1e-10)


class TestIterationMaps:
    def test_product_recovers_marginal(self, rng):
        q = random_pmf(3, rng)
        r = random_pmf(2, rng)
        joint = np.outer(q, r)
        assert np.allclose(n_x_to_y(joint, q, 0.75).weights, r, atol=1e-12)
        assert np.allclose(n_y_to_x(joint, r, 0.75).weights, q, atol=1e-12)

    def test_uniform_diagonal_fixed_point(self):
        joint = np.diag([0.5, 0.5])
        out = n_x_to_y(joint, np.array([0.5, 0.5]), 0.3)
        assert np.allclose(out.weights, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_matches_quantum_map_on_embedding(self, rng, alpha):
        from prmi import n_a_to_b

        p = random_pmf((2, 2), rng)
        q = random_pmf(2, rng)
        classical = n_x_to_y(p, q, alpha).weights
        quantum = n_a_to_b(cc_embed(p), HermitianOperator.diagonal(q), alpha)
        assert np.max(np.abs(np.diag(quantum.entries).real - classical)) <= 1e-12

    def test_domain_violation(self):
        joint = np.diag([0.5, 0.5])
        with pytest.raises(DomainViolation):
            n_x_to_y(joint, np.array([1.0, 0.0]), 1.5)


class TestEmbed:
    def test_uniform(self):
        state = cc_embed(np.full((2, 2), 0.25))
        assert np.allclose(state.op.entries, np.eye(4) / 4)

    def test_point_mass(self):
        p = np.zeros((2, 2))
        p[0, 0] = 1.0
        state = cc_embed(p)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(state.op.entries, expect)


class TestClassicalAlgorithm:
    def test_product_zero(self, rng):
        q = random_pmf(2, rng)
        r = random_pmf(2, rng)
        trace = algorithm_classical(np.outer(q, r), AmConfig(alpha=2.0, eps0=1e-6))
        assert trace.terminated_by == "certificate"
        assert abs(trace.final_x) <= 1e-9

    def test_correlated_vs_grid_oracle(self):
        p = np.array([[0.4, 0.1], [0.1, 0.4]])
        trace = algorithm_classical(p, AmConfig(alpha=2.0, eps0=1e-6))
        oracle = grid_min_classical(p, 2.0, 1e-3)
        assert abs(trace.final_x - oracle.min_value) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.75, 4.0])
    def test_certified_against_long_run(self, rng, alpha):
        p = random_pmf((3, 2), rng)
        eps0 = 1e-4 if alpha < 1 else 1e-6
        trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=eps0))
        long_run = run_uncertified_classical(p, AmConfig(alpha=alpha), 3000)
        assert abs(trace.final_x - long_run.final_x) <= eps0

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_per_iterate_agreement_with_quantum(self, rng, alpha):
        for _ in range(5):
            p = random_pmf((2, 2), rng)
            cfg = AmConfig(alpha=alpha)
            classical = run_uncertified_classical(p, cfg, 40)
            quantum = run_uncertified(cc_embed(p), cfg, 40)
            assert np.max(np.abs(classical.x_values - quantum.x_values)) <= 1e-10

    def test_alpha_above_two_supported(self, rng):
        p = random_pmf((2, 2), rng)
        trace = algorithm_classical(p, AmConfig(alpha=4.0, eps0=1e-6))
        assert trace.terminated_by == "certificate"

    @pytest.mark.parametrize(
        "weights", [[[0.4, 0.2], [0.1, 0.6]], [[0.5, -0.1], [0.1, 0.5]], [0.5, 0.5]]
    )
    def test_rejects_invalid_joint_pmf(self, weights):
        # sum 1.3, a negative entry, not a matrix
        for alpha in [0.75, 1.5]:
            with pytest.raises(ValueError):
                algorithm_classical(weights, AmConfig(alpha=alpha))
            with pytest.raises(ValueError):
                run_uncertified_classical(weights, AmConfig(alpha=alpha), 5)


class TestContractionClassical:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 2.0, 4.0])
    def test_sampled_ratio_below_gamma(self, rng, alpha):
        p = random_pmf((3, 3), rng)
        gamma = abs(1.0 - 1.0 / alpha)
        for _ in range(40):
            q1 = random_pmf(3, rng)
            q2 = random_pmf(3, rng)
            base = d_h_vec(q1, q2)
            if base < 1e-12:
                continue
            mapped = d_h_vec(n_x_to_y(p, q1, alpha).weights, n_x_to_y(p, q2, alpha).weights)
            assert mapped <= gamma * base + 1e-9

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_sampled_ratio_below_gamma_kappa(self, rng, alpha):
        p = random_pmf((2, 2), rng)
        gamma = abs(1.0 - 1.0 / alpha)
        kappa = birkhoff_kappa_classical(p, alpha)
        for _ in range(40):
            q1 = random_pmf(2, rng)
            q2 = random_pmf(2, rng)
            base = d_h_vec(q1, q2)
            if base < 1e-12:
                continue
            mapped = d_h_vec(n_x_to_y(p, q1, alpha).weights, n_x_to_y(p, q2, alpha).weights)
            assert mapped <= gamma * kappa * base + 1e-9

    def test_diameter_requires_positive(self):
        with pytest.raises(NotStrictlyPositive):
            cross_ratio_diameter(np.diag([0.5, 0.5]), 2.0)

    def test_diameter_uniform_is_zero(self):
        assert cross_ratio_diameter(np.full((2, 2), 0.25), 2.0) == pytest.approx(0.0)

import math

import numpy as np
import pytest

from conftest import random_pmf
from prmi import (
    DEFAULT_CUT,
    AmConfig,
    HermitianOperator,
    JointPmf,
    Pmf,
    SupportCutoff,
    UnsupportedOrder,
    algorithm2,
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
    sublinear_constants,
)
from prmi.am_engine import NotStrictlyPositive, _sublinear_start
from prmi.classical_rmi import _ClassicalRun, classical_linear_constants
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
        from prmi import partial_min_tau

        p = random_pmf((2, 2), rng)
        q = random_pmf(2, rng)
        classical = n_x_to_y(p, q, alpha).weights
        quantum = partial_min_tau(cc_embed(p), HermitianOperator.diagonal(q), alpha)
        assert np.max(np.abs(np.diag(quantum.entries).real - classical)) <= 1e-12

    def test_domain_violation(self):
        joint = np.diag([0.5, 0.5])
        with pytest.raises(DomainViolation):
            n_x_to_y(joint, np.array([1.0, 0.0]), 1.5)

    def test_alpha_one_rejected_like_the_quantum_map(self):
        joint = np.diag([0.5, 0.5])
        for a_map in (n_x_to_y, n_y_to_x):
            with pytest.raises(UnsupportedOrder):
                a_map(joint, np.array([0.5, 0.5]), 1.0)


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

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_record_states(self, rng, alpha):
        p = random_pmf((2, 3), rng)
        cfg = AmConfig(alpha=alpha, eps0=1e-6, record_states=True)
        for trace in [run_uncertified_classical(p, cfg, 5), algorithm_classical(p, cfg)]:
            assert len(trace.sigma_states) == len(trace.tau_states) == len(trace.records)
            for op in trace.sigma_states + trace.tau_states:
                assert np.count_nonzero(op.entries - np.diag(np.diag(op.entries))) == 0
            assert np.array_equal(trace.sigma_states[-1].entries, trace.final_sigma_a.entries)
            assert np.array_equal(trace.tau_states[-1].entries, trace.final_tau_b.entries)

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
            with pytest.raises(ValueError):
                n_x_to_y(weights, [0.5, 0.5], alpha)
            with pytest.raises(ValueError):
                n_y_to_x(weights, [0.5, 0.5], alpha)
        with pytest.raises(ValueError):
            classical_linear_constants(weights, [0.5, 0.5], 1.5)

    @pytest.mark.parametrize("alpha", [6.0, 8.0])
    def test_small_marginal_point_survives_large_order(self, alpha):
        # The row sums of P^alpha span more than 1e12 here: a relative cutoff on
        # the half-step weights would set q_x[0] = 0 inside supp p_x and return
        # the value of a smaller problem, +inf at the returned pair.
        p = np.array([[0.002, 0.001, 0.002], [0.05, 0.3, 0.1], [0.2, 0.1, 0.245]])
        trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=1e-6))
        assert trace.terminated_by == "certificate"
        q = np.diag(trace.final_sigma_a.entries).real
        r = np.diag(trace.final_tau_b.entries).real
        assert abs(d_alpha_classical(p, np.outer(q, r), alpha) - trace.final_x) <= 1e-9
        gap = grid_min_classical(p, alpha, 1e-3).min_value - trace.final_x
        assert 0.0 <= gap <= 1e-4

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_explicit_initializer_scale_does_not_matter(self, alpha):
        p = np.array([[0.4, 0.1], [0.1, 0.4]])
        traces = []
        for scale in (1.0, 1e-6, 1e-13):
            sigma0 = HermitianOperator.diagonal([scale * 0.3, scale * 0.7])
            config = AmConfig(alpha=alpha, init="explicit", sigma0=sigma0)
            traces.append(algorithm_classical(p, config))
        for trace in traces[1:]:
            assert trace.iterations == traces[0].iterations
            assert np.max(np.abs(trace.x_values - traces[0].x_values)) <= 1e-12

    def test_explicit_initializer_of_wrong_length(self):
        sigma0 = HermitianOperator.diagonal([0.2, 0.3, 0.5])
        config = AmConfig(alpha=1.5, init="explicit", sigma0=sigma0)
        for run in (algorithm_classical, lambda p, c: run_uncertified_classical(p, c, 3)):
            with pytest.raises(ValueError, match="dim 3, expected 2"):
                run(np.array([[0.4, 0.1], [0.1, 0.4]]), config)

    def test_constants_read_the_marginal_support(self):
        # lambda_A is the smallest nonzero row sum of P^alpha, 1.29e-16 at
        # alpha 6, not the smallest one above a relative cutoff.
        p = np.array([[0.002, 0.001, 0.002], [0.05, 0.3, 0.1], [0.2, 0.1, 0.245]])
        consts = classical_linear_constants(p, p.sum(axis=1), 6.0)
        assert consts.lambda_a == pytest.approx(float(np.sum(p[0] ** 6.0)), rel=1e-12)


def _equivalence_pmfs():
    rng = np.random.default_rng(7)
    pmfs = [random_pmf(shape, rng) for shape in [(2, 2), (2, 3), (3, 2), (3, 3)]]
    with_zero = random_pmf((3, 3), rng)
    with_zero[1, 2] = 0.0
    return pmfs + [with_zero / with_zero.sum()]


class TestEmbeddingEquivalence:
    """The vector stepper is the quantum stepper on the diagonal embedding."""

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_sublinear_run_matches_embedded_quantum_run(self, alpha):
        for p in _equivalence_pmfs():
            q0 = HermitianOperator.diagonal(p.sum(axis=1))
            classical = algorithm_classical(p, AmConfig(alpha=alpha, eps0=1e-4))
            quantum = algorithm2(
                cc_embed(p), AmConfig(alpha=alpha, eps0=1e-4, init="explicit", sigma0=q0)
            )
            assert classical.terminated_by == quantum.terminated_by == "certificate"
            assert classical.iterations == quantum.iterations
            assert np.max(np.abs(classical.x_values - quantum.x_values)) <= 1e-12
            c0 = _sublinear_start(_ClassicalRun(p, alpha, DEFAULT_CUT, p.sum(axis=1))).c0
            assert c0 == pytest.approx(sublinear_constants(cc_embed(p), q0, alpha).c0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_cutoff_matches_embedded_quantum_run(self, alpha):
        # The 1e-4 entry lies below the 1e-3 cutoff: the classical run must drop it
        # exactly where the quantum run drops the eigenvalue.
        rng = np.random.default_rng(11)
        skewed = rng.random((3, 3)) ** 4
        for p in [np.array([[0.3, 1e-4], [0.2, 0.4999]]), skewed / skewed.sum()]:
            cfg = AmConfig(alpha=alpha, cut=SupportCutoff(1e-3))
            classical = run_uncertified_classical(p, cfg, 30)
            quantum = run_uncertified(cc_embed(p), cfg, 30)
            assert np.max(np.abs(classical.x_values - quantum.x_values)) <= 1e-12


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

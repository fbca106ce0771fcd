import math

import numpy as np
import pytest

from conftest import maximally_correlated, random_product_state, random_state
from prmi import (
    DEFAULT_CUT,
    AmConfig,
    HermitianOperator,
    UnsupportedOrder,
    d_alpha,
    d_alpha_classical,
    grid_min_classical,
    grid_min_quantum_qubit,
    partial_min_sigma,
    partial_min_tau,
    q_alpha,
    random_density,
    schatten_norm,
    sibson_residual,
    spectrum_floors,
)
from prmi.am_engine import _AmRun, _restricted_pairs
from prmi.petz_divergence import DomainViolation, product_operator

ALPHAS = [0.6, 0.75, 0.9, 1.5, 2.0]


class TestOrderRule:
    """Every entry point applies the one order domain: finite alpha > 0, alpha != 1."""

    @staticmethod
    def _entry_points(rng):
        rho = random_state(2, 2, rng)
        op = random_density(2, rng)
        p = [[0.4, 0.1], [0.1, 0.4]]
        return [
            lambda a: AmConfig(alpha=a),
            lambda a: d_alpha(op, op, a),
            lambda a: d_alpha_classical([0.5, 0.5], [0.5, 0.5], a),
            lambda a: grid_min_classical(p, a, 0.1),
            lambda a: grid_min_quantum_qubit(rho, a, 0.1),
            lambda a: spectrum_floors(rho, rho.marginal_a(), a),
        ]

    def test_alpha_one_is_an_unsupported_order(self, rng):
        assert issubclass(UnsupportedOrder, ValueError)
        for call in self._entry_points(rng):
            with pytest.raises(UnsupportedOrder):
                call(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, math.inf])
    def test_nonpositive_order_rejected(self, rng, alpha):
        for call in self._entry_points(rng):
            with pytest.raises(ValueError):
                call(alpha)


class TestQAlpha:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_self_is_one(self, rng, alpha):
        rho = random_density(3, rng)
        assert q_alpha(rho, rho, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_correlated_hand_value(self):
        rho = maximally_correlated(2)
        unif = HermitianOperator.from_entries(np.eye(4) / 4)
        assert q_alpha(rho.op, unif, 0.75) == pytest.approx(2.0 ** (0.75 - 1.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_order_outside_the_domain_rejected(self, rng, alpha):
        rho = random_density(2, rng)
        with pytest.raises(ValueError):
            q_alpha(rho, rho, alpha)

    def test_orthogonal_supports(self):
        a = HermitianOperator.diagonal([1.0, 0.0])
        b = HermitianOperator.diagonal([0.0, 1.0])
        assert q_alpha(a, b, 0.75) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9])
    def test_range_for_states_below_one(self, rng, alpha):
        for _ in range(10):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            q = q_alpha(rho, sigma, alpha)
            assert -1e-12 <= q <= 1.0 + 1e-10


class TestDAlpha:
    def test_self_is_zero(self, rng):
        rho = random_density(3, rng)
        assert d_alpha(rho, rho, 0.75) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 2.0])
    def test_maximally_correlated_log_d(self, alpha):
        rho = maximally_correlated(2)
        unif = HermitianOperator.from_entries(np.eye(4) / 4)
        assert d_alpha(rho.op, unif, alpha) == pytest.approx(math.log(2), abs=1e-10)

    def test_domain_failure_gives_inf(self):
        rho = HermitianOperator.diagonal([0.5, 0.5])
        sigma = HermitianOperator.diagonal([1.0, 0.0])
        assert d_alpha(rho, sigma, 1.5) == math.inf

    def test_alpha_one_rejected(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(UnsupportedOrder):
            d_alpha(rho, rho, 1.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonnegative_for_states(self, rng, alpha):
        for _ in range(10):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            assert d_alpha(rho, sigma, alpha) >= -1e-9

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exp_consistency(self, rng, alpha):
        rho, sigma = random_density(3, rng), random_density(3, rng)
        d = d_alpha(rho, sigma, alpha)
        assert math.exp((alpha - 1.0) * d) == pytest.approx(
            q_alpha(rho, sigma, alpha), abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9])
    def test_renyi_pinsker(self, rng, alpha):
        for _ in range(20):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            diff = HermitianOperator.from_entries(_power(rho, alpha) - _power(sigma, alpha))
            lhs = (1.0 - alpha) / (4.0 * alpha) * schatten_norm(diff, 1.0 / alpha) ** 2
            assert lhs <= 1.0 - q_alpha(rho, sigma, alpha) + 1e-9


def _power(op, p):
    from prmi import power_on_support

    return power_on_support(op, p).entries


class TestPartialMinimizer:
    def test_product_recovers_marginal(self, rng):
        rho = random_product_state(2, 3, rng)
        tau = partial_min_tau(rho, rho.marginal_a(), 0.75)
        assert np.max(np.abs(tau.entries - rho.marginal_b().entries)) <= 1e-11

    def test_maximally_correlated_uniform(self):
        rho = maximally_correlated(2)
        sigma = HermitianOperator.from_entries(np.eye(2) / 2)
        tau = partial_min_tau(rho, sigma, 1.5)
        assert np.max(np.abs(tau.entries - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_unit_trace_and_minimality(self, rng, alpha):
        rho = random_state(2, 2, rng)
        sigma = random_density(2, rng)
        tau_hat = partial_min_tau(rho, sigma, alpha)
        assert abs(tau_hat.trace() - 1.0) <= 1e-12
        best = d_alpha(rho.op, product_operator(sigma, tau_hat), alpha)
        for _ in range(50):
            tau = random_density(2, rng)
            other = d_alpha(rho.op, product_operator(sigma, tau), alpha)
            assert best <= other + 1e-10

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_closed_form_value_matches(self, rng, alpha):
        rho = random_state(2, 3, rng)
        sigma = random_density(2, rng)
        tau_hat = partial_min_tau(rho, sigma, alpha)
        direct = d_alpha(rho.op, product_operator(sigma, tau_hat), alpha)
        # The engine's half-step carries the minimized value in closed form.
        run = _AmRun(rho, alpha, DEFAULT_CUT, _restricted_pairs(rho, sigma, DEFAULT_CUT))
        run.a_to_b()
        assert direct == pytest.approx(run.x, abs=1e-9)

    def test_domain_violation(self):
        rho = maximally_correlated(2)
        sigma = HermitianOperator.diagonal([1.0, 0.0])
        with pytest.raises(DomainViolation):
            partial_min_tau(rho, sigma, 1.5)

    def test_sigma_variant_mirrors(self, rng):
        rho = random_state(2, 2, rng)
        tau = random_density(2, rng)
        swapped = _swap_qubits(rho)
        lhs = partial_min_sigma(rho, tau, 1.5)
        rhs = partial_min_tau(swapped, tau, 1.5)
        assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-10


def _swap_qubits(rho):
    from prmi import BipartiteState

    perm = [0, 2, 1, 3]
    mat = rho.op.entries[np.ix_(perm, perm)]
    return BipartiteState.from_matrix(mat, 2, 2)


class TestSibson:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_residual_zero_at_optimum(self, rng, alpha):
        rho = random_state(2, 2, rng)
        sigma = random_density(2, rng)
        tau_hat = partial_min_tau(rho, sigma, alpha)
        assert sibson_residual(rho, sigma, tau_hat, alpha) <= 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_residual_random_instances(self, rng, alpha):
        for _ in range(10):
            rho = random_state(2, 2, rng)
            sigma = random_density(2, rng)
            tau = random_density(2, rng)
            assert sibson_residual(rho, sigma, tau, alpha) <= 1e-8

    def test_product_state_case(self, rng):
        rho = random_product_state(2, 2, rng)
        sigma = rho.marginal_a()
        tau = random_density(2, rng)
        assert sibson_residual(rho, sigma, tau, 0.75) <= 1e-8
        tau_hat = partial_min_tau(rho, sigma, 0.75)
        assert d_alpha(rho.op, product_operator(sigma, tau_hat), 0.75) == pytest.approx(
            0.0, abs=1e-10
        )

import math

import numpy as np
import pytest

from conftest import by_name, count_decompositions, maximally_correlated, random_product_state, random_state
from prmi import (
    DEFAULT_CUT,
    AmConfig,
    HermitianOperator,
    UnsupportedOrder,
    d_alpha,
    d_alpha_classical,
    grid_min_classical,
    grid_min_quantum_qubit,
    random_density,
    schatten_norm,
    spectrum_floors,
)
from prmi.am_engine import _AmRun
from prmi.petz_divergence import UNDERFLOW_Q, DomainViolation
from references import (
    partial_min_sigma,
    partial_min_tau,
    petz_domain,
    product_operator,
    q_alpha,
    sibson_residual,
)

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


GRID_ALPHAS = [0.3, 0.6, 0.75, 0.9, 1.25, 1.5, 2.0, 3.0, 6.0]


def _power_form(rho, sigma, alpha):
    """The divergence from the references: ``petz_domain`` and log(``q_alpha``)/(alpha - 1)."""
    if not petz_domain(rho, sigma, alpha):
        return math.inf
    q = q_alpha(rho, sigma, alpha)
    return math.inf if q <= UNDERFLOW_Q else math.log(q) / (alpha - 1.0)


def _seeded_pairs(rng, per_dim=40):
    """Pairs at d = 2-6 with ranks 1-d; every third sigma mixes in rho, so rho << sigma."""
    for d in range(2, 7):
        for k in range(per_dim):
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            sigma = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            if k % 3 == 0:
                t = rng.uniform(0.05, 0.95)
                sigma = HermitianOperator._wrap(t * rho.entries + (1.0 - t) * sigma.entries)
            yield rho, sigma


def _embedded(d, block):
    """A d x d operator holding ``block`` in its leading corner."""
    out = np.zeros((d, d), dtype=np.complex128)
    out[: block.shape[0], : block.shape[0]] = block
    return HermitianOperator._wrap(out)


def _edge_pairs(rng):
    """Named pairs at the edges of the domain."""
    rho3 = random_density(3, rng)
    low = random_density(2, rng).entries
    return {
        "zero sigma": (rho3, HermitianOperator._wrap(np.zeros((3, 3)))),
        "orthogonal": (
            HermitianOperator.diagonal([0.4, 0.6, 0.0]),
            HermitianOperator.diagonal([0.0, 0.0, 1.0]),
        ),
        "rank 1 in rank 2": (
            HermitianOperator.diagonal([1.0, 0.0, 0.0]),
            _embedded(3, low),
        ),
        "rank 2 in rank 3": (_embedded(3, low), rho3),
        "equal rank-deficient supports": (
            _embedded(4, low),
            _embedded(4, random_density(2, rng).entries),
        ),
        "rank 2 over rank 1": (_embedded(3, low), HermitianOperator.diagonal([1.0, 0.0, 0.0])),
        "overlapping rank-deficient supports": (
            _embedded(3, low),
            HermitianOperator.diagonal([0.0, 0.3, 0.7]),
        ),
    }


def _agrees(got, want):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestOverlapKernel:
    """``d_alpha`` reads domain and trace term off one support ``eigh`` of each argument."""

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_two_eigh_per_call(self, rng, monkeypatch, alpha):
        pairs = [
            (random_density(3, rng), random_density(3, rng)),
            (HermitianOperator.diagonal([0.5, 0.5, 0.0]), HermitianOperator.diagonal([1, 0, 0])),
        ]
        for rho, sigma in pairs:
            calls = count_decompositions(monkeypatch, key=by_name)
            d_alpha(rho, sigma, alpha)
            assert calls == {"eigh": 2}

    def test_agrees_with_the_power_form_on_seeded_pairs(self):
        rng = np.random.default_rng(19)
        infinite = finite = 0
        for rho, sigma in _seeded_pairs(rng):
            for alpha in GRID_ALPHAS:
                got, want = d_alpha(rho, sigma, alpha), _power_form(rho, sigma, alpha)
                assert _agrees(got, want), (rho.dim, alpha, got, want)
                infinite += math.isinf(want)
                finite += math.isfinite(want)
        # both branches are exercised: unequal ranks leave the domain above order one
        assert infinite > 100 and finite > 1000

    @pytest.mark.parametrize("alpha", GRID_ALPHAS)
    def test_agrees_with_the_power_form_at_the_domain_edges(self, alpha):
        for name, (rho, sigma) in _edge_pairs(np.random.default_rng(7)).items():
            got, want = d_alpha(rho, sigma, alpha), _power_form(rho, sigma, alpha)
            assert _agrees(got, want), (name, got, want)

    def test_domain_edges_take_the_expected_branch(self):
        pairs = _edge_pairs(np.random.default_rng(7))
        for name in ("zero sigma", "orthogonal"):
            assert all(math.isinf(d_alpha(*pairs[name], a)) for a in GRID_ALPHAS), name
        finite = ("rank 1 in rank 2", "rank 2 in rank 3", "equal rank-deficient supports")
        for name in finite:
            assert all(math.isfinite(d_alpha(*pairs[name], a)) for a in GRID_ALPHAS), name
        for name in ("rank 2 over rank 1", "overlapping rank-deficient supports"):
            values = [d_alpha(*pairs[name], a) for a in GRID_ALPHAS]
            assert all(math.isfinite(v) == (a < 1) for a, v in zip(GRID_ALPHAS, values)), name


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
        run = _AmRun(rho, alpha, DEFAULT_CUT, _AmRun.initial(rho, AmConfig(alpha, init=sigma)))
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

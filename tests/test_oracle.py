import math

import numpy as np
import pytest

from conftest import maximally_correlated, random_pmf, random_product_state, random_state, uniform_state
from prmi import (
    AmConfig,
    BipartiteState,
    HermitianOperator,
    TooLarge,
    algorithm1,
    grid_min_classical,
    grid_min_quantum_qubit,
    kl_reference,
    algorithm2,
    d_alpha,
    random_density,
)
from prmi.oracle import _bloch_grid, simplex_grid
from prmi import _scan


class TestSimplexGrid:
    def test_counts(self):
        assert len(simplex_grid(2, 0.1)) == 11
        assert len(simplex_grid(3, 0.1)) == 66

    def test_rows_sum_to_one(self):
        g = simplex_grid(3, 0.05)
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-12)

    def test_refinement_is_superset(self):
        coarse = simplex_grid(2, 0.1)
        fine = simplex_grid(2, 0.05)
        coarse_set = {tuple(row) for row in coarse}
        fine_set = {tuple(row) for row in fine}
        assert coarse_set <= fine_set


class TestScanKernels:
    def test_pair_scan_matches_bruteforce(self, rng):
        a = rng.random((57, 3)).astype(np.float32)
        c = rng.random((83, 3)).astype(np.float32)
        val, i, j, n_eval = _scan.pair_scan(a, c, want_max=False)
        full = a.astype(np.float64) @ c.astype(np.float64).T
        assert val == pytest.approx(full.min(), abs=1e-6)
        assert n_eval == 57 * 83

    @pytest.mark.parametrize("want_max", [False, True])
    def test_pruned_scan_equals_full_scan(self, rng, want_max):
        for _ in range(5):
            a = rng.random((400, 3))
            c = rng.random((300, 3))
            v1, i1, j1, _ = _scan.pair_scan(a, c, want_max)
            v2, i2, j2, n2 = _scan.pruned_pair_scan(a, c, want_max)
            assert v1 == v2
            assert n2 <= 400 * 300


class TestClassicalOracle:
    def test_product_pmf_minimum_zero(self, rng):
        q = random_pmf(2, rng)
        r = random_pmf(2, rng)
        res = grid_min_classical(np.outer(q, r), 2.0, 0.01)
        assert res.min_value <= 1e-3

    def test_uniform_diagonal_below_half(self):
        p = np.diag([0.5, 0.5])
        res = grid_min_classical(p, 0.3, 1e-3)
        expect = (0.3 / 0.7) * math.log(2)
        assert res.min_value == pytest.approx(expect, abs=1e-5)

    def test_monotone_refinement(self, rng):
        # refinement can only lower the grid minimum; the drop is bounded by
        # an empirically generous step-proportional constant (50 * step)
        for _ in range(5):
            p = random_pmf((2, 2), rng)
            coarse = grid_min_classical(p, 1.5, 0.02)
            fine = grid_min_classical(p, 1.5, 0.01)
            assert fine.min_value <= coarse.min_value + 1e-12
            assert coarse.min_value - fine.min_value <= 50 * 0.02

    def test_too_large(self, rng):
        with pytest.raises(TooLarge):
            grid_min_classical(random_pmf((4, 2), rng), 2.0, 0.05)

    def test_step_validation(self, rng):
        with pytest.raises(ValueError):
            grid_min_classical(random_pmf((2, 2), rng), 2.0, 0.5)

    def test_argmin_params_are_simplex_points(self, rng):
        p = random_pmf((2, 3), rng)
        res = grid_min_classical(p, 1.5, 0.02)
        q, r = res.argmin_params[:2], res.argmin_params[2:]
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert r.sum() == pytest.approx(1.0, abs=1e-9)
        assert res.evaluations > 0


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_state(params):
    """Qubit density matrices (..., 2, 2) from Bloch parameters (..., 3) = (r, theta, phi)."""
    r, theta, phi = np.moveaxis(np.asarray(params), -1, 0)
    vec = r[..., None] * np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )
    return 0.5 * (_PAULIS[0] + np.einsum("...k,kab->...ab", vec, _PAULIS[1:]))


def _brute_force_qubit_min(rho, alpha, step):
    """Grid minimum over every (sigma, tau) pair of the qubit grid, all in float64.

    rho^alpha and each sigma^(1-alpha) come from their own eigendecompositions;
    S = tr[rho^alpha sigma^(1-alpha) ⊗ tau^(1-alpha)] is the bilinear form
    u_i g u_j in Pauli coordinates, reduced in row blocks.
    """
    w, v = np.linalg.eigh(rho.op.entries)
    wa = np.where(w > 1e-12 * w[-1], w, 0.0) ** alpha
    ra = (v * wa) @ v.conj().T
    g = np.array([[np.trace(ra @ np.kron(pk, pl)).real for pl in _PAULIS] for pk in _PAULIS])
    lam, vec = np.linalg.eigh(_bloch_state(_bloch_grid(step)))
    powers = (vec * lam[:, None, :] ** (1.0 - alpha)) @ np.swapaxes(vec.conj(), -1, -2)
    u = np.einsum("nab,kba->nk", powers, _PAULIS).real / 2.0
    c = u @ g.T
    reduce = np.max if alpha < 1 else np.min
    s_best = reduce([reduce(u[lo : lo + 512] @ c.T) for lo in range(0, len(u), 512)])
    return max(math.log(s_best) / (alpha - 1.0), 0.0)


class TestQuantumOracle:
    def test_product_state_minimum_zero(self, rng):
        rho = random_product_state(2, 2, rng)
        res = grid_min_quantum_qubit(rho, 1.5, 0.05)
        assert res.min_value <= 10 * 0.05

    def test_maximally_mixed(self):
        res = grid_min_quantum_qubit(uniform_state(2, 2), 0.75, 0.05)
        assert res.min_value <= 5e-3

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_monotone_refinement(self, rng, alpha):
        rho = random_state(2, 2, rng)
        coarse = grid_min_quantum_qubit(rho, alpha, 0.1)
        fine = grid_min_quantum_qubit(rho, alpha, 0.05)
        assert fine.min_value <= coarse.min_value + 1e-12
        for res, n in [(coarse, 10), (fine, 20)]:
            grid_points = n * (n + 1) * n
            assert res.evaluations == grid_points * ((n + 1) * n + n)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_float64_brute_force(self, rank, alpha):
        rho = BipartiteState.from_operator(
            random_density(4, np.random.default_rng(300 + rank), rank=rank), 2, 2
        )
        for step in [0.1, 0.05]:
            res = grid_min_quantum_qubit(rho, alpha, step)
            assert res.min_value == pytest.approx(
                _brute_force_qubit_min(rho, alpha, step), abs=1e-9
            )
            sigma = _bloch_state(res.argmin_params[:3])
            tau = _bloch_state(res.argmin_params[3:])
            product = HermitianOperator.from_entries(np.kron(sigma, tau))
            assert d_alpha(rho.op, product, alpha) == pytest.approx(res.min_value, abs=1e-10)

    def test_sandwich_against_engine(self, rng):
        rho = random_state(2, 2, rng)
        res = grid_min_quantum_qubit(rho, 1.5, 0.05)
        trace = algorithm1(rho, AmConfig(alpha=1.5, eps0=1e-6))
        assert trace.final_x <= res.min_value + 1e-9
        assert trace.final_x >= res.min_value - 1e-6 - 10 * 0.05

    def test_too_large(self, rng):
        with pytest.raises(TooLarge):
            grid_min_quantum_qubit(random_state(2, 3, rng), 1.5, 0.05)


class TestKlReference:
    def test_product_state(self, rng):
        assert kl_reference(random_product_state(2, 3, rng)) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_correlated(self):
        assert kl_reference(maximally_correlated(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_maximally_mixed(self):
        assert kl_reference(uniform_state(2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_near_one_continuity(self, rng):
        rho = random_state(2, 2, rng)
        mi = kl_reference(rho)
        below = algorithm2(rho, AmConfig(alpha=0.98, eps0=1e-6)).final_x
        above = algorithm1(rho, AmConfig(alpha=1.02, eps0=1e-6)).final_x
        assert abs(below - mi) <= 0.05
        assert abs(above - mi) <= 0.05

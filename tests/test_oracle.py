import itertools
import math

import numpy as np
import pytest

from conftest import (
    by_name,
    count_decompositions,
    maximally_correlated,
    random_pmf,
    random_product_state,
    random_state,
    uniform_state,
)
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
    d_alpha_classical,
    random_density,
)
from prmi.oracle import _best_directions, _simplex_counts, simplex_grid
from prmi import _scan
from references import bloch_grid


class TestSimplexGrid:
    def test_counts(self):
        assert len(simplex_grid(2, 0.1)) == 11
        assert len(simplex_grid(3, 0.1)) == 66

    def test_rows_sum_to_one(self):
        g = simplex_grid(3, 0.05)
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("step", [0.1, 0.02, 1e-3])
    def test_rows_sum_to_one_at_other_steps(self, step):
        g = simplex_grid(3, step)
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("step", [0.07, 0.095])
    def test_step_must_divide_one(self, step):
        # round(1/step)·step is 0.98 or 1.045: such grid points are not PMFs
        with pytest.raises(ValueError, match="integer m"):
            simplex_grid(3, step)
        with pytest.raises(ValueError, match="integer m"):
            grid_min_classical(np.outer([0.5, 0.5], [0.5, 0.5]), 2.0, step)

    def test_refinement_is_superset(self):
        coarse = simplex_grid(2, 0.1)
        fine = simplex_grid(2, 0.05)
        coarse_set = {tuple(row) for row in coarse}
        fine_set = {tuple(row) for row in fine}
        assert coarse_set <= fine_set

    @pytest.mark.parametrize("m", [10, 37, 100])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shifted_lattice_is_the_masked_one(self, k, m):
        # grid_min_classical's q grid above order one, against the mask it replaced
        for active in itertools.product([False, True], repeat=k):
            active = np.array(active)
            if not active.any():
                continue
            full = _simplex_counts(k, m)
            masked = full[:, np.all(full[active] > 0, axis=0)]
            shifted = _simplex_counts(k, m - int(active.sum())) + active[:, None]
            assert shifted.dtype == masked.dtype
            np.testing.assert_array_equal(shifted, masked)

    def test_lattice_is_shared_read_only(self):
        counts = _simplex_counts(3, 20)
        assert _simplex_counts(3, 20) is counts
        with pytest.raises(ValueError):
            counts[0, 0] = 1
        grid = simplex_grid(3, 0.05)
        grid[0, 0] = 0.5
        assert simplex_grid(3, 0.05)[0, 0] == 0.0


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


def _pmfs_with_zeros(shape, rng):
    """Seeded PMFs of one shape: one zero entry, then an all-zero row and column where possible."""
    out = []
    for kind in ["entry", "row", "column"]:
        p = random_pmf(shape, rng)
        if kind == "entry":
            p[rng.integers(shape[0]), rng.integers(shape[1])] = 0.0
        elif kind == "row" and shape[0] > 1:
            p[rng.integers(shape[0])] = 0.0
        elif kind == "column" and shape[1] > 1:
            p[:, rng.integers(shape[1])] = 0.0
        else:
            continue
        out.append(p / p.sum())
    return out


def _grid_points(k, step):
    """Every PMF on k outcomes whose entries are multiples of step, from a plain enumeration."""
    m = round(1.0 / step)
    counts = [c for c in itertools.product(range(m + 1), repeat=k) if sum(c) == m]
    return np.array(counts, dtype=np.float64) * step


def _brute_force_classical_min(p, alpha, step):
    """Grid minimum over every (q, r) pair as one float64 product u @ wa @ v.T.

    Zero coordinates contribute nothing; above order one a grid PMF that
    vanishes on the support of its marginal makes the objective +inf and is
    dropped.
    """

    def coords(grid, support):
        u = np.where(grid > 0, grid, 1.0) ** (1.0 - alpha) * (grid > 0)
        if alpha > 1:
            u = u[np.all(grid[:, support] > 0, axis=1)]
        return u

    u = coords(_grid_points(p.shape[0], step), p.sum(axis=1) > 0)
    v = coords(_grid_points(p.shape[1], step), p.sum(axis=0) > 0)
    s = u @ (p**alpha) @ v.T
    s_best = s.max() if alpha < 1 else s.min()
    return max(math.log(s_best) / (alpha - 1.0), 0.0)


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
        pmfs = [random_pmf((2, 2), rng) for _ in range(5)]
        with_zeros = random_pmf((3, 3), rng)
        with_zeros[0, 1] = 0.0
        with_zeros[:, 2] = 0.0
        pmfs += [with_zeros / with_zeros.sum(), random_pmf((1, 3), rng), random_pmf((3, 1), rng)]
        for p in pmfs:
            for alpha in [0.75, 1.5, 4.0]:
                coarse = grid_min_classical(p, alpha, 0.02)
                fine = grid_min_classical(p, alpha, 0.01)
                assert fine.min_value <= coarse.min_value + 1e-12
                assert coarse.min_value - fine.min_value <= 50 * 0.02

    def test_evaluations_count_transfer_checks(self):
        # 3x1: the search is trivial, one check per q grid point (all 66
        # below order one; the 36 with no zero coordinate above it)
        p31 = np.array([[0.2], [0.3], [0.5]])
        assert grid_min_classical(p31, 0.75, 0.1).evaluations == 66
        assert grid_min_classical(p31, 1.5, 0.1).evaluations == 36
        # 2x2 at step 0.1 and order 4: 9 q grid points are strictly
        # positive, and one of them moves a unit and is checked again
        p = np.array([[0.4, 0.1], [0.2, 0.3]])
        assert grid_min_classical(p, 4.0, 0.1).evaluations == 10

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize(
        "shape", [(2, 2), (2, 3), (3, 2), (3, 3), (1, 3), (3, 1)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_matches_float64_brute_force(self, shape, alpha):
        rng = np.random.default_rng(500 + 10 * shape[0] + shape[1])
        for p in _pmfs_with_zeros(shape, rng):
            for step in [0.1, 0.05, 0.02]:
                res = grid_min_classical(p, alpha, step)
                assert res.min_value == pytest.approx(
                    _brute_force_classical_min(p, alpha, step), abs=1e-12
                )
                q, r = res.argmin_params[: shape[0]], res.argmin_params[shape[0] :]
                value = max(d_alpha_classical(p, np.outer(q, r), alpha), 0.0)
                assert value == pytest.approx(res.min_value, abs=1e-12)

    def test_refuses_orders_too_close_to_one(self):
        # g(k) = (k/100)^(-1e-14) spans only ~200 ulps, so its differences
        # are not convex in float64 and no transfer-optimal point is certified
        with pytest.raises(ArithmeticError):
            grid_min_classical(np.array([[0.4, 0.1], [0.2, 0.3]]), 1.0 + 1e-14, 0.01)

    def test_rejects_invalid_joint_pmf(self):
        with pytest.raises(ValueError):
            grid_min_classical([[0.5, -0.1], [0.1, 0.5]], 1.5, 0.01)
        with pytest.raises(ValueError):
            grid_min_classical([[0.4, 0.2], [0.1, 0.6]], 0.75, 0.01)

    def test_too_large(self, rng):
        with pytest.raises(TooLarge):
            grid_min_classical(random_pmf((4, 2), rng), 2.0, 0.05)

    def test_step_validation(self, rng):
        with pytest.raises(ValueError):
            grid_min_classical(random_pmf((2, 2), rng), 2.0, 0.5)

    def test_argmin_params_are_simplex_points(self, rng):
        # zero rows and columns too: the q grid above order one is built per support
        for p in [random_pmf((2, 3), rng), *_pmfs_with_zeros((3, 3), rng)]:
            for alpha in [0.75, 1.5]:
                res = grid_min_classical(p, alpha, 0.02)
                q, r = res.argmin_params[: p.shape[0]], res.argmin_params[p.shape[0] :]
                assert q.sum() == pytest.approx(1.0, abs=1e-9)
                assert r.sum() == pytest.approx(1.0, abs=1e-9)
                assert res.evaluations > 0

    def test_result_has_no_instance_dict(self):
        # bulk validation holds many results; slots keep each one small
        res = grid_min_classical(np.outer([0.5, 0.5], [0.5, 0.5]), 2.0, 0.1)
        assert not hasattr(res, "__dict__")


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
    lam, vec = np.linalg.eigh(_bloch_state(bloch_grid(step)))
    powers = (vec * lam[:, None, :] ** (1.0 - alpha)) @ np.swapaxes(vec.conj(), -1, -2)
    u = np.einsum("nab,kba->nk", powers, _PAULIS).real / 2.0
    c = u @ g.T
    reduce = np.max if alpha < 1 else np.min
    s_best = reduce([reduce(u[lo : lo + 512] @ c.T) for lo in range(0, len(u), 512)])
    return max(math.log(s_best) / (alpha - 1.0), 0.0)


class TestBestDirections:
    """The closed-form direction search of the qubit oracle against every grid direction."""

    @pytest.mark.parametrize("step", [0.1, 0.07, 0.095, 0.05])
    def test_matches_exhaustive_maximum(self, step):
        def unit(theta, phi):
            return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])

        n = round(1.0 / step)
        theta, phi = bloch_grid(step)[: (n + 1) * n, 1:].T  # the directions of one radius
        gaps = (phi[:n] + np.append(phi[1:n], 2 * np.pi)) / 2
        polar = np.concatenate([theta[::n], (theta[:-n:n] + theta[n::n]) / 2])
        # v on and between the grid angles, at phi_v = ±π, zero, ±z and in general position
        on_grid = unit(*np.meshgrid(polar, np.concatenate([phi[:n], gaps, [np.pi, -np.pi]])))
        rng = np.random.default_rng(17)
        v = np.concatenate(
            [on_grid.reshape(3, -1), rng.standard_normal((3, 500)), [[0, 0, 0], [0, 0, 0], [0, 1, -1]]],
            axis=1,
        )
        exhaustive = unit(theta, phi).T @ v
        index, best = _best_directions(v, step)
        assert np.allclose(best, exhaustive.max(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(exhaustive[index, np.arange(v.shape[1])], best, rtol=0, atol=1e-12)


def _structured_qubit_state(kind):
    """Two-qubit states that put the oracle's best directions w_i[1:] on the closed form's edges."""
    rng = np.random.default_rng(41)
    if kind == "maximally mixed":  # w_i[1:] = 0 for every sigma
        return uniform_state(2, 2)
    if kind == "diagonal":  # w_i[1:] on the z axis
        p = rng.random(4)
        return BipartiteState.from_matrix(np.diag(p / p.sum()), 2, 2)
    if kind == "product":
        return random_product_state(2, 2, rng)
    if kind == "real":  # for sigma in the xz plane, w_i[1:] has azimuth 0 or ±π
        a = rng.standard_normal((4, 4))
        return BipartiteState.from_matrix(a @ a.T / np.trace(a @ a.T), 2, 2)
    return BipartiteState.from_operator(random_density(4, rng, rank=1), 2, 2)


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
            assert res.evaluations == grid_points * (6 + n)

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

    # 1/0.07 and 1/0.095 are not integers: at 0.07 the polar angles stop short
    # of π and the azimuths leave a wider gap before 2π; at 0.095 the last
    # polar angle passes π, so its best azimuth is the opposite one
    @pytest.mark.parametrize("step", [0.1, 0.07, 0.095])
    @pytest.mark.parametrize("alpha", [0.6, 1.5, 4.0])
    @pytest.mark.parametrize(
        "kind", ["maximally mixed", "diagonal", "product", "real", "rank 1"]
    )
    def test_closed_form_edge_cases(self, kind, alpha, step):
        rho = _structured_qubit_state(kind)
        res = grid_min_quantum_qubit(rho, alpha, step)
        assert res.min_value == pytest.approx(_brute_force_qubit_min(rho, alpha, step), abs=1e-9)
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

    def test_pure_state_is_twice_the_schmidt_entropy(self):
        psi = np.zeros(6)
        psi[0], psi[4] = math.sqrt(0.7), math.sqrt(0.3)
        rho = BipartiteState.from_matrix(np.outer(psi, psi), 2, 3)
        entropy = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
        assert kl_reference(rho) == pytest.approx(2.0 * entropy, abs=1e-12)

    def test_warm_state_is_not_decomposed(self, rng, monkeypatch):
        rho = random_state(2, 3, rng)
        rho.spectrum, rho.marginal_spectrum, rho._marginal_b_spectrum
        calls = count_decompositions(monkeypatch, key=by_name)
        kl_reference(rho)
        assert sum(calls.values()) == 0

    def test_alpha_near_one_continuity(self, rng):
        rho = random_state(2, 2, rng)
        mi = kl_reference(rho)
        below = algorithm2(rho, AmConfig(alpha=0.98, eps0=1e-6)).final_x
        above = algorithm1(rho, AmConfig(alpha=1.02, eps0=1e-6)).final_x
        assert abs(below - mi) <= 0.05
        assert abs(above - mi) <= 0.05

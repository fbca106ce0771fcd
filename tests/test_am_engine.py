import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import (
    a_priori_eps,
    a_priori_iterations,
    by_name,
    count_decompositions,
    maximally_correlated,
    near_singular,
    random_pmf,
    random_product_state,
    random_state,
    uniform_state,
)
from prmi import (
    DEFAULT_CUT,
    AmConfig,
    BipartiteState,
    HermitianOperator,
    MonotonicityViolation,
    NoCertificate,
    OrthogonalInitializer,
    SupportCutoff,
    algorithm1,
    algorithm2,
    algorithm_classical,
    cc_embed,
    cross_ratio_diameter,
    d_alpha,
    d_h,
    linear_constants,
    random_density,
    restrict_initializer,
    run_uncertified,
    run_uncertified_classical,
    spectrum_floors,
    sublinear_constants,
)
from prmi import am_engine, operator_core
from prmi.am_engine import _AmRun, _sublinear_certificate, step_floor
from prmi.classical_rmi import _ClassicalRun, classical_linear_constants
from prmi.operator_core import InvalidOperator, support_eigh
from prmi.petz_divergence import DomainViolation
from references import (
    contraction_probe,
    partial_min_sigma,
    partial_min_tau,
    product_operator,
    projective_diameter_from_vectors,
)


def uniform_op(d):
    return HermitianOperator.from_entries(np.eye(d) / d)


class TestIterationMaps:
    def test_product_fixed_point(self, rng):
        rho = random_product_state(2, 3, rng)
        tau = partial_min_tau(rho, rho.marginal_a(), 0.75)
        assert np.max(np.abs(tau.entries - rho.marginal_b().entries)) <= 1e-11
        sigma = partial_min_sigma(rho, rho.marginal_b(), 0.75)
        assert np.max(np.abs(sigma.entries - rho.marginal_a().entries)) <= 1e-11

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.5])
    def test_maximally_correlated_uniform_fixed_point(self, alpha):
        rho = maximally_correlated(2)
        tau = partial_min_tau(rho, uniform_op(2), alpha)
        sigma = partial_min_sigma(rho, uniform_op(2), alpha)
        assert np.max(np.abs(tau.entries - np.eye(2) / 2)) <= 1e-12
        assert np.max(np.abs(sigma.entries - np.eye(2) / 2)) <= 1e-12

    def test_output_support_and_trace(self, rng):
        rho = random_state(2, 2, rng)
        sigma = random_density(2, rng)
        tau = partial_min_tau(rho, sigma, 1.5)
        assert abs(tau.trace() - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(tau.entries)) > 0

    def test_swap_symmetric_state(self, rng):
        base = random_density(4, rng).entries
        perm = [0, 2, 1, 3]
        sym = (base + base[np.ix_(perm, perm)]) / 2
        from prmi import BipartiteState

        rho = BipartiteState.from_matrix(sym / np.trace(sym).real, 2, 2)
        tau = random_density(2, rng)
        assert np.max(np.abs(partial_min_sigma(rho, tau, 1.5).entries - partial_min_tau(rho, tau, 1.5).entries)) <= 1e-10


class TestHalfStepKernel:
    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    @pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2)])
    def test_gemv_half_steps_match_partial_minimizers(self, rng, d_a, d_b, alpha):
        # d_a != d_b and rank-deficient marginals: a swapped index order cannot hide.
        rho = BipartiteState.from_operator(random_density(d_a * d_b, rng, rank=2), d_a, d_b)
        sigma0 = restrict_initializer(random_density(d_a, rng), rho.marginal_a())
        run = _AmRun(rho, alpha, DEFAULT_CUT, support_eigh(sigma0.entries, DEFAULT_CUT))
        run.a_to_b()
        tau = run.operators()[1]()
        assert np.max(np.abs(tau.entries - partial_min_tau(rho, sigma0, alpha).entries)) <= 1e-12
        run.b_to_a()
        assert np.max(np.abs(run.operators()[0]().entries - partial_min_sigma(rho, tau, alpha).entries)) <= 1e-12


class TestHalfStepSupport:
    """A half-step keeps the rank of its marginal's support, fixed at set-up (``_AmRun._keep``)."""

    @staticmethod
    def keep(alpha, eigenvalues):
        rho = random_state(2, 2, np.random.default_rng(5))
        run = _AmRun(rho, alpha, DEFAULT_CUT, _AmRun.initial(rho, AmConfig(alpha=alpha)))
        assert run.rank_a == run.rank_b == 2
        u = np.linalg.qr(np.arange(1.0, 5.0).reshape(2, 2))[0]
        return run._keep(u @ np.diag(eigenvalues) @ u.T, 2)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_small_positive_eigenvalue_is_kept(self, alpha):
        # below the run's relative cutoff (1e-12), which the half-step does not apply
        vals, vecs = self.keep(alpha, [1.0, 1e-14])
        assert vals.shape == (2,) and vecs.shape == (2, 2)
        assert vals[0] == pytest.approx(1e-14, abs=1e-15)

    def test_nonpositive_eigenvalue_leaves_the_domain_above_order_one(self):
        with pytest.raises(DomainViolation):
            self.keep(1.5, [1.0, -1e-12])

    def test_nonpositive_eigenvalue_is_dropped_below_order_one(self):
        vals, vecs = self.keep(0.75, [1.0, -1e-12])
        assert vals == pytest.approx([1.0], abs=1e-12)
        assert vecs.shape == (2, 1)

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_clearly_negative_eigenvalue_is_invalid(self, alpha):
        with pytest.raises(InvalidOperator):
            self.keep(alpha, [1.0, -1e-6])


class TestStateSpectrumCache:
    def test_state_decomposed_once_across_orders(self, rng, monkeypatch):
        calls = count_decompositions(monkeypatch)
        rho = BipartiteState.from_matrix(random_density(9, rng).entries, 3, 3)
        algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-4))
        algorithm1(rho, AmConfig(alpha=1.5))
        algorithm1(rho, AmConfig(alpha=2.0))
        assert calls[(9, 9)] == 1
        assert calls[(3, 3)] > 0

    def test_classical_run_below_order_one_never_decomposes(self, rng, monkeypatch):
        calls = count_decompositions(monkeypatch)
        trace = algorithm_classical(random_pmf((3, 3), rng), AmConfig(alpha=0.75, eps0=1e-4))
        assert trace.terminated_by == "certificate"
        assert sum(calls.values()) == 0


def _setup_before_caching(rho_ab, config):
    """In-test copy of the restricted initializer's set-up by d x d projector products.

    The initializer (the A marginal, uniform, or the operator ``config.init``) is
    compressed to the A-marginal support by projector products and
    renormalized, and the result is decomposed again at the cutoff; the
    marginal spectrum is not cached and nothing is compressed at r x r.
    """
    rel_tol = config.cut.rel_tol
    rho_a = rho_ab.marginal_a().entries
    if isinstance(config.init, HermitianOperator):
        raw = config.init.entries
    else:
        raw = {"marginal": rho_a, "uniform": np.eye(rho_ab.d_a) / rho_ab.d_a}[config.init]
    w, v = np.linalg.eigh(rho_a)
    vs = v[:, w > rel_tol * max(w[-1], 0.0)]
    proj = vs @ vs.conj().T
    compressed = proj @ raw @ proj
    compressed = compressed / np.trace(compressed).real
    w, v = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    keep = w > rel_tol * max(w[-1], 0.0)
    return w[keep], v[:, keep]


def _skewed_marginal(rng):
    """Full-rank 2x3 state whose A marginal has eigenvalues about 1e-5 apart."""
    k = np.kron(np.diag([1.0, 3e-3]), np.eye(3))
    mat = k @ random_density(6, rng).entries @ k
    return BipartiteState.from_matrix(mat / np.trace(mat).real, 2, 3)


def _setup_states():
    rng = np.random.default_rng(31)
    return {
        "skewed 2x3": _skewed_marginal(rng),
        "full 2x2": random_state(2, 2, rng),
        "full 2x3": random_state(2, 3, rng),
        "full 3x3": random_state(3, 3, rng),
        "pure 3x2": BipartiteState.from_operator(random_density(6, rng, rank=1), 3, 2),
        "rank3 3x3": BipartiteState.from_operator(random_density(9, rng, rank=3), 3, 3),
        "mc+1e-6 2x2": near_singular(2, 1e-6, rng),
        "mc+1e-10 3x3": near_singular(3, 1e-10, rng),
    }


class TestSetupOnce:
    """Solves start from the cached marginal spectrum, as the old set-up would."""

    RUNS = {
        "algorithm1 1.5": lambda rho, cut: algorithm1(rho, AmConfig(alpha=1.5, eps0=1e-8, cut=cut)),
        "algorithm1 2.0": lambda rho, cut: algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-8, cut=cut)),
        "algorithm2 0.75": lambda rho, cut: algorithm2(
            rho, AmConfig(alpha=0.75, eps0=1e-4, cut=cut)
        ),
        "uncertified 0.6": lambda rho, cut: run_uncertified(rho, AmConfig(alpha=0.6, cut=cut), 25),
        "uncertified 3.0": lambda rho, cut: run_uncertified(rho, AmConfig(alpha=3.0, cut=cut), 25),
    }

    @pytest.mark.parametrize("cut", [DEFAULT_CUT, SupportCutoff(1e-3)], ids=["default", "1e-3"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_agrees_with_restrict_then_decompose(self, run, cut, monkeypatch):
        solve = self.RUNS[run]
        for name, rho in _setup_states().items():
            cached = solve(rho, cut)
            with monkeypatch.context() as m:
                m.setattr(_AmRun, "initial", staticmethod(_setup_before_caching))
                before = solve(rho, cut)
            assert cached.terminated_by == before.terminated_by, name
            assert cached.iterations == before.iterations, name
            assert np.max(np.abs(cached.x_values - before.x_values)) <= 1e-10, name

    def test_explicit_and_uniform_initializers_unchanged(self, monkeypatch):
        # Compressed at r x r now: the same solves as the d x d set-up within rounding.
        rng = np.random.default_rng(47)
        for name, rho in _setup_states().items():
            sigma0 = random_density(rho.d_a, rng)
            for init, cut, (alpha, eps0, solve) in itertools.product(
                ("uniform", sigma0),
                (DEFAULT_CUT, SupportCutoff(1e-3)),
                [(1.5, 1e-8, algorithm1), (0.75, 1e-4, algorithm2), (3.0, 1e-6, run_uncertified)],
            ):
                config = AmConfig(alpha=alpha, eps0=eps0, init=init, cut=cut)
                args = (25,) if solve is run_uncertified else ()
                now = solve(rho, config, *args)
                with monkeypatch.context() as m:
                    m.setattr(_AmRun, "initial", staticmethod(_setup_before_caching))
                    before = solve(rho, config, *args)
                label = (name, init if init == "uniform" else "operator", cut.rel_tol, alpha)
                assert now.terminated_by == before.terminated_by, label
                assert now.iterations == before.iterations, label
                assert np.max(np.abs(now.x_values - before.x_values)) <= 1e-10, label

    def test_initializer_scale_does_not_matter(self, rng):
        rho = random_state(2, 2, rng)
        traces = []
        for scale in (1.0, 1e-6, 1e-13):
            sigma0 = HermitianOperator.diagonal([scale * 0.3, scale * 0.7])
            traces.append(algorithm1(rho, AmConfig(alpha=1.5, init=sigma0)))
        for trace in traces[1:]:
            assert trace.iterations == traces[0].iterations
            assert np.max(np.abs(trace.x_values - traces[0].x_values)) <= 1e-12

    def test_marginal_initializer_reuses_the_cached_vectors(self, rng):
        rho = random_state(2, 3, rng)
        vals, vecs = _AmRun.initial(rho, AmConfig(alpha=1.5))
        assert vecs is rho.marginal_spectrum[1]
        assert vals.sum() == pytest.approx(1.0, abs=1e-15)


class TestSetupCacheScope:
    """The set-up cache lives on the state instance and nowhere else."""

    def test_equal_states_share_nothing(self, rng):
        entries = random_density(6, rng).entries
        first = BipartiteState.from_matrix(entries, 2, 3)
        algorithm1(first, AmConfig(alpha=1.5))
        second = BipartiteState.from_matrix(entries, 2, 3)
        # Only the validation spectrum is computed before a solve asks for more.
        cached = {"marginal_spectrum", "_marginal_b_spectrum", "_marginal_a", "_marginal_b"}
        assert not cached & set(vars(second))
        algorithm1(second, AmConfig(alpha=1.5))
        pairs = [
            (first.spectrum[0], second.spectrum[0]),
            (first.spectrum[1], second.spectrum[1]),
            (first.marginal_spectrum[0], second.marginal_spectrum[0]),
            (first.marginal_spectrum[1], second.marginal_spectrum[1]),
            (first._marginal_b_spectrum, second._marginal_b_spectrum),
            (first.marginal_a().entries, second.marginal_a().entries),
            (first.marginal_b().entries, second.marginal_b().entries),
        ]
        for a, b in pairs:
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, b)

    def test_marginal_decomposed_once_per_state(self, rng, monkeypatch):
        entries = random_density(6, rng).entries
        marginal = BipartiteState.from_matrix(entries, 2, 3).marginal_a().entries
        hits = count_decompositions(
            monkeypatch, key=lambda name, mat: name == "eigh" and np.array_equal(mat, marginal)
        )
        for _ in range(2):
            state = BipartiteState.from_matrix(entries, 2, 3)
            for cut in (DEFAULT_CUT, SupportCutoff(1e-3)):
                algorithm2(state, AmConfig(alpha=0.75, eps0=1e-4, cut=cut))
                algorithm1(state, AmConfig(alpha=1.5, cut=cut))
                run_uncertified(state, AmConfig(alpha=3.0, cut=cut), 3)
        assert hits[True] == 2

    def test_cached_arrays_read_only(self, rng):
        state = random_state(2, 3, rng)
        algorithm1(state, AmConfig(alpha=1.5))
        arrays = [*state.spectrum, *state.marginal_spectrum, state._marginal_b_spectrum]
        arrays += [state.marginal_a().entries, state.marginal_b().entries]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_one_state_at_two_cuts_matches_fresh_states(self, rng):
        # The A marginal's small eigenvalue (about 1e-5 of the top) lies inside
        # the default support and outside the 1e-3 one, so the cut decides the
        # problem; the cache must not carry one cut's support into the other.
        entries = _skewed_marginal(rng).op.entries
        shared = BipartiteState.from_matrix(entries, 2, 3)
        for cut in (SupportCutoff(1e-3), DEFAULT_CUT, SupportCutoff(1e-3)):
            for solve in (algorithm1, algorithm2):
                config = AmConfig(alpha=1.5 if solve is algorithm1 else 0.75, eps0=1e-5, cut=cut)
                reused = solve(shared, config)
                fresh = solve(BipartiteState.from_matrix(entries, 2, 3), config)
                assert np.array_equal(reused.x_values, fresh.x_values)
                assert reused.terminated_by == fresh.terminated_by
                assert np.array_equal(reused.final_sigma_a.entries, fresh.final_sigma_a.entries)


def _sweep_records(trace):
    """Everything a trace reports but its wall times, for bit-for-bit comparison by ``repr``."""
    rows = [(r.n, r.x_n, r.eps_n, r.q_n) for r in trace.records]
    return repr((rows, trace.final_x, trace.terminated_by))


SWEEP_ORDERS = (0.6, 0.75, 0.9, 1.25, 1.5, 2.0)


def _certified(state, alpha, **kw):
    config = AmConfig(alpha=alpha, eps0=1e-6 if alpha > 1 else 1e-4, **kw)
    return (algorithm1 if alpha > 1 else algorithm2)(state, config)


class TestSetupRecord:
    """The order-independent set-up is built once per state and cutoff, and changes no output."""

    def test_built_once_per_cutoff(self, rng, monkeypatch):
        built = Counter()
        real = operator_core._SolveSetup.of

        def of(state, cut):
            built[cut] += 1
            return real(state, cut)

        monkeypatch.setattr(operator_core._SolveSetup, "of", staticmethod(of))
        state = random_state(2, 3, rng)
        for alpha, init in zip(SWEEP_ORDERS, itertools.cycle(("marginal", "uniform"))):
            _certified(state, alpha, init=init)
        run_uncertified(state, AmConfig(alpha=3.0), 2)
        assert built == {DEFAULT_CUT: 1}
        coarse = SupportCutoff(1e-3)
        for alpha in SWEEP_ORDERS:
            _certified(state, alpha, cut=coarse)
        assert built == {DEFAULT_CUT: 1, coarse: 1}

    @pytest.mark.parametrize("kind", ["full", "skewed", "rank 3"])
    def test_sweep_on_one_state_matches_fresh_states(self, rng, kind):
        if kind == "full":
            entries = random_density(6, rng).entries
        elif kind == "skewed":
            entries = _skewed_marginal(rng).op.entries
        else:
            entries = random_density(6, rng, rank=3).entries
        shared = BipartiteState.from_matrix(entries, 2, 3)
        for alpha in SWEEP_ORDERS:
            for init in ("marginal", "uniform"):
                fresh = _certified(BipartiteState.from_matrix(entries, 2, 3), alpha, init=init)
                assert _sweep_records(_certified(shared, alpha, init=init)) == _sweep_records(fresh)

    def test_record_is_read_only(self, rng):
        setup = random_state(2, 3, rng)._setup(DEFAULT_CUT)
        for arr in (*setup.marginal, setup.w_cut, setup.vh):
            assert not arr.flags.writeable


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
        lhs = partial_min_tau(rho, sigma0, 0.75)
        rhs = partial_min_tau(rho, restricted, 0.75)
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
        lhs = partial_min_tau(rho, sigma0, 0.75)
        rhs = partial_min_tau(rho, restrict_initializer(sigma0, rho.marginal_a()), 0.75)
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
        trace = run_uncertified(rho, AmConfig(alpha=1.5, init=sigma0), 200)
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


class TestCertificateRule:
    """``am_engine._certificate`` is the one rule from an order to its certificate."""

    @pytest.mark.parametrize(
        "solve, alpha",
        [(algorithm1, 0.75), (algorithm1, 2.5), (algorithm2, 1.5), (algorithm2, 0.3)],
    )
    def test_quantum_orders_without_this_certificate(self, rng, solve, alpha):
        with pytest.raises(NoCertificate):
            solve(random_state(2, 2, rng), AmConfig(alpha=alpha))

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_classical_orders_without_a_certificate(self, rng, alpha):
        with pytest.raises(NoCertificate):
            algorithm_classical(random_pmf((2, 3), rng), AmConfig(alpha=alpha))

    CONSTANTS = {
        "linear_constants 2.5": lambda rho, p: linear_constants(rho, rho.marginal_a(), 2.5),
        "sublinear_constants 1.5": lambda rho, p: sublinear_constants(rho, rho.marginal_a(), 1.5),
        "contraction_probe 3": lambda rho, p: contraction_probe(rho, 3.0, 5),
        "classical_linear_constants 0.75": lambda rho, p: classical_linear_constants(
            p, p.sum(axis=1), 0.75
        ),
    }

    @pytest.mark.parametrize("ask", sorted(CONSTANTS))
    def test_constants_follow_the_rule(self, rng, ask):
        with pytest.raises(NoCertificate):
            self.CONSTANTS[ask](random_state(2, 2, rng), random_pmf((2, 3), rng))

    SOLVES = {
        "algorithm1": lambda rho, p, config: algorithm1(rho, config),
        "algorithm2": lambda rho, p, config: algorithm2(rho, config),
        "run_uncertified": lambda rho, p, config: run_uncertified(rho, config, 3),
        "algorithm_classical": lambda rho, p, config: algorithm_classical(p, config),
        "run_uncertified_classical": lambda rho, p, config: run_uncertified_classical(p, config, 3),
    }

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_initializer_is_checked_before_the_order(self, rng, solve):
        # alpha = 3 has no quantum certificate and algorithm2's is not linear.
        config = AmConfig(alpha=3.0, init=random_density(3, rng))
        with pytest.raises(ValueError, match="sigma0 has dim 3, expected 2"):
            self.SOLVES[solve](random_state(2, 2, rng), random_pmf((2, 3), rng), config)


class TestConfigInitializer:
    """``AmConfig.init`` is "marginal", "uniform" or the initializer operator itself."""

    SKEWED = HermitianOperator.diagonal([0.999, 0.001])

    def test_init_is_a_name_or_an_operator(self):
        # The former sentinel and a bare array are neither.
        for init in ("explicit", np.diag([0.999, 0.001])):
            with pytest.raises(ValueError, match="init must be 'marginal', 'uniform' or a"):
                AmConfig(alpha=1.5, init=init)

    def test_explicit_sigma0_is_the_start(self):
        rho = random_state(2, 2, np.random.default_rng(0))
        default = run_uncertified(rho, AmConfig(alpha=1.5), 1)
        skewed = run_uncertified(rho, AmConfig(alpha=1.5, init=self.SKEWED), 1)
        assert default.x_values[0] == pytest.approx(0.2561, abs=1e-4)
        assert skewed.x_values[0] == pytest.approx(5.7187, abs=1e-4)


class TestOneInitializerPath:
    """Every solve and constants function resolves its initializer through a stepper's ``initial``.

    Solves take it from their ``AmConfig``, the constants functions build one
    around their initializer argument; either way ``_AmRun.initial`` or
    ``_ClassicalRun.initial`` runs exactly once, and the other never.
    """

    ENTRY_POINTS = {
        "algorithm1": (_AmRun, lambda rho, p: algorithm1(rho, AmConfig(alpha=1.5))),
        "algorithm2": (_AmRun, lambda rho, p: algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-4))),
        "run_uncertified": (_AmRun, lambda rho, p: run_uncertified(rho, AmConfig(alpha=3.0), 2)),
        "linear_constants": (_AmRun, lambda rho, p: linear_constants(rho, rho.marginal_a(), 1.5)),
        "sublinear_constants": (
            _AmRun,
            lambda rho, p: sublinear_constants(rho, uniform_op(rho.d_a), 0.75),
        ),
        "spectrum_floors": (_AmRun, lambda rho, p: spectrum_floors(rho, rho.marginal_a(), 3.0)),
        "algorithm_classical": (
            _ClassicalRun,
            lambda rho, p: algorithm_classical(p, AmConfig(alpha=1.5)),
        ),
        "run_uncertified_classical": (
            _ClassicalRun,
            lambda rho, p: run_uncertified_classical(p, AmConfig(alpha=0.6, init="uniform"), 2),
        ),
        "classical_linear_constants": (
            _ClassicalRun,
            lambda rho, p: classical_linear_constants(p, p.sum(axis=1), 1.5),
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_resolved_once_through_initial(self, entry, monkeypatch):
        stepper, call = self.ENTRY_POINTS[entry]
        calls = []

        def counted(cls):
            real = cls.initial

            def initial(data, config):
                calls.append(cls)
                return real(data, config)

            return staticmethod(initial)

        for cls in (_AmRun, _ClassicalRun):
            monkeypatch.setattr(cls, "initial", counted(cls))
        rng = np.random.default_rng(5)
        call(random_state(2, 3, rng), random_pmf((2, 3), rng))
        assert calls == [stepper]


def _spy_on_drive(monkeypatch, record):
    """Pass every stepper that reaches ``_drive`` to ``record`` first."""
    real = am_engine._drive

    def spy(run, *args):
        record(run)
        return real(run, *args)

    monkeypatch.setattr(am_engine, "_drive", spy)


class TestSolvePathCost:
    """What one solve decomposes, and what its trace keeps."""

    def test_algorithm1_decompositions(self, rng, monkeypatch):
        rho = random_state(3, 2, rng)
        rho.marginal_spectrum, rho._marginal_b_spectrum  # cached on the state, outside every solve
        calls = count_decompositions(monkeypatch, key=by_name)
        trace = algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-10))
        n = trace.iterations
        assert trace.terminated_by == "certificate" and n >= 3
        # first half-step; two half-steps per step; lambda_A and one step distance per step
        assert calls == {"eigh": 1 + 2 * n, "eigvalsh": n + 1}

    def test_algorithm2_decompositions(self, rng, monkeypatch):
        rho = random_state(2, 3, rng)
        rho.marginal_spectrum, rho._marginal_b_spectrum
        calls = count_decompositions(monkeypatch, key=by_name)
        trace = algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-6))
        n = trace.iterations
        assert trace.terminated_by == "certificate" and n >= 3
        # first half-step and two half-steps per step; lambda_A and lambda_B
        assert calls == {"eigh": 1 + 2 * n, "eigvalsh": 2}

    SOLVES = {
        "algorithm1": lambda rng: algorithm1(random_state(2, 3, rng), AmConfig(alpha=1.5)),
        "algorithm2": lambda rng: algorithm2(random_state(3, 2, rng), AmConfig(alpha=0.75)),
        "uncertified": lambda rng: run_uncertified(random_state(2, 2, rng), AmConfig(alpha=3.0), 5),
        "classical": lambda rng: algorithm_classical(random_pmf((2, 3), rng), AmConfig(alpha=4.0)),
        "uncertified classical": lambda rng: run_uncertified_classical(
            random_pmf((3, 2), rng), AmConfig(alpha=0.3), 5
        ),
    }

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_trace_keeps_no_stepper(self, rng, monkeypatch, solve):
        refs = []
        _spy_on_drive(monkeypatch, lambda run: refs.append(weakref.ref(run)))
        trace = self.SOLVES[solve](rng)
        assert len(refs) == 1
        assert refs[0]() is None
        assert trace.final_sigma_a.trace() == pytest.approx(1.0, abs=1e-12)
        assert trace.final_tau_b.trace() == pytest.approx(1.0, abs=1e-12)

    def test_quantum_final_operators_built_on_access_bit_for_bit(self, rng, monkeypatch):
        runs, built = [], Counter()
        _spy_on_drive(monkeypatch, runs.append)
        real = am_engine._operator

        def counted(vals, vecs):
            built["operator"] += 1
            return real(vals, vecs)

        monkeypatch.setattr(am_engine, "_operator", counted)
        trace = algorithm1(random_state(2, 3, rng), AmConfig(alpha=1.5))
        (run,) = runs
        assert built["operator"] == 0
        for op, vals, vecs in (
            (trace.final_sigma_a, run.sigma_vals, run.sigma_vecs),
            (trace.final_tau_b, run.tau_vals, run.tau_vecs),
        ):
            expect = HermitianOperator._wrap(am_engine._power(vals, vecs, 1.0))
            assert op.entries.tobytes() == expect.entries.tobytes()
        assert built["operator"] == 2
        assert trace.final_sigma_a is trace.final_sigma_a
        assert built["operator"] == 2

    def test_classical_final_operators_bit_for_bit(self, rng, monkeypatch):
        runs = []
        _spy_on_drive(monkeypatch, runs.append)
        trace = algorithm_classical(random_pmf((3, 2), rng), AmConfig(alpha=2.0))
        (run,) = runs
        for op, pmf in ((trace.final_sigma_a, run.q_x), (trace.final_tau_b, run.r_y)):
            assert op.entries.tobytes() == HermitianOperator.diagonal(pmf).entries.tobytes()


DESK_FAMILIES = {
    "full rank": lambda rng: random_state(2, 3, rng),
    "rank deficient": lambda rng: BipartiteState.from_operator(random_density(9, rng, rank=5), 3, 3),
    "mc + 1e-10 Ginibre": lambda rng: near_singular(3, 1e-10, rng),
    "maximally correlated": lambda rng: maximally_correlated(3),
    "product": lambda rng: random_product_state(2, 3, rng),
}


def _close(a: HermitianOperator, b: HermitianOperator) -> bool:
    return a.entries.shape == b.entries.shape and np.max(np.abs(a.entries - b.entries)) <= 1e-10


class TestWholeRunsMatchTheReference:
    """Certified desk-scale runs, every iterate, against the einsum partial minimizers.

    The reference iterates sigma_{n+1} = partial_min_sigma(tau_n) from the
    restricted marginal, tau_n = partial_min_tau(sigma_n), and reads x_n as
    the divergence at sigma_n (x) tau_n; a PMF run is held to the quantum run
    on its diagonal embedding.
    """

    @pytest.mark.parametrize("alpha", [0.6, 1.25, 2.0])
    @pytest.mark.parametrize("family", sorted(DESK_FAMILIES))
    def test_quantum(self, rng, family, alpha):
        rho = DESK_FAMILIES[family](rng)
        solve = algorithm1 if alpha > 1 else algorithm2
        trace = solve(rho, AmConfig(alpha=alpha, eps0=1e-6 if alpha > 1 else 1e-4))
        assert trace.terminated_by == "certificate"
        sigma = restrict_initializer(rho.marginal_a(), rho.marginal_a())
        for n, x in enumerate(trace.x_values):
            if n:
                sigma = partial_min_sigma(rho, tau, alpha)
            tau = partial_min_tau(rho, sigma, alpha)
            assert abs(x - d_alpha(rho.op, product_operator(sigma, tau), alpha)) <= 1e-10
        assert _close(trace.final_sigma_a, sigma)
        assert _close(trace.final_tau_b, tau)

    @pytest.mark.parametrize("alpha", [0.6, 1.25, 2.0, 4.0])
    def test_pmf(self, rng, alpha):
        p = random_pmf((3, 3), rng)
        trace = algorithm_classical(p, AmConfig(alpha=alpha, eps0=1e-6 if alpha > 1 else 1e-4))
        assert trace.terminated_by == "certificate"
        quantum = run_uncertified(cc_embed(p), AmConfig(alpha=alpha), trace.iterations)
        assert np.max(np.abs(trace.x_values - quantum.x_values)) <= 1e-10
        assert _close(trace.final_sigma_a, quantum.final_sigma_a)
        assert _close(trace.final_tau_b, quantum.final_tau_b)


class TestStepperStartsHalfStepped:
    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.5, 3.0])
    def test_quantum(self, rng, alpha):
        rho = random_state(2, 3, rng)
        run = _AmRun(rho, alpha, DEFAULT_CUT, _AmRun.initial(rho, AmConfig(alpha=alpha)))
        x, q = run.x, run.q
        assert math.isfinite(x) and math.isfinite(q)
        run.a_to_b()
        assert (run.x, run.q) == (x, q)

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.5, 8.0])
    def test_classical(self, rng, alpha):
        p = random_pmf((3, 2), rng)
        run = _ClassicalRun(p, alpha, DEFAULT_CUT, p.sum(axis=1))
        x, r_y = run.x, run.r_y
        assert math.isfinite(x)
        run.a_to_b()
        assert run.x == x
        assert np.array_equal(run.r_y, r_y)


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


# Every entry point that iterates, run with an iteration cap k that no
# certificate can beat (eps0 = 1e-12 after at most 3 full steps).
CAPPED_RUNS = {
    "algorithm1": lambda rho, p, k: algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-12, max_iter=k)),
    "algorithm2": lambda rho, p, k: algorithm2(rho, AmConfig(alpha=0.75, eps0=1e-12, max_iter=k)),
    "run_uncertified": lambda rho, p, k: run_uncertified(rho, AmConfig(alpha=1.5), k),
    "algorithm_classical": lambda rho, p, k: algorithm_classical(
        p, AmConfig(alpha=4.0, eps0=1e-12, max_iter=k)
    ),
    "run_uncertified_classical": lambda rho, p, k: run_uncertified_classical(
        p, AmConfig(alpha=1.5), k
    ),
}


class TestDriver:
    @pytest.mark.parametrize("cap", [1, 3])
    @pytest.mark.parametrize("entry", sorted(CAPPED_RUNS))
    def test_cap_gives_one_record_per_iteration(self, rng, entry, cap):
        trace = CAPPED_RUNS[entry](random_state(2, 2, rng), random_pmf((2, 3), rng), cap)
        assert [r.n for r in trace.records] == list(range(cap + 1))
        assert trace.terminated_by == "max_iter"
        assert trace.final_x == trace.records[-1].x_n

    def test_sublinear_certificate(self):
        eps_at = _sublinear_certificate(2.0)
        assert eps_at(0, 0.5, 0.5) is None
        assert eps_at(4, 0.5, 0.5 - 1e-6) == pytest.approx(2.0e-3, rel=1e-9)
        assert eps_at(4, 0.5, 0.5 + 1e-12) == 0.0  # inside the monotonicity slack
        with pytest.raises(MonotonicityViolation):
            eps_at(4, 0.5, 0.5 + 1e-6)


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
        tau_next = partial_min_tau(rho, sigma, alpha)
        sigma_next = partial_min_sigma(rho, tau, alpha)
        assert np.max(np.abs(tau_next.entries - tau.entries)) <= 1e-8
        assert np.max(np.abs(sigma_next.entries - sigma.entries)) <= 1e-8

    def test_below_half_alpha_stays_at_uniform_fixed_point(self):
        rho = maximally_correlated(2)
        trace = run_uncertified(rho, AmConfig(alpha=0.3, init="uniform"), 50)
        assert np.max(np.abs(trace.x_values - math.log(2))) <= 1e-10
        suboptimal_gap = math.log(2) - (0.3 / 0.7) * math.log(2)
        assert suboptimal_gap > 0.39

    def test_spectrum_floors_check_the_order_before_set_up(self, rng, monkeypatch):
        setups = Counter()
        real_tensor = am_engine._rho_alpha_tensor

        def tensor(*args):
            setups["tensor"] += 1
            return real_tensor(*args)

        monkeypatch.setattr(am_engine, "_rho_alpha_tensor", tensor)
        with pytest.raises(ValueError, match="spectrum floors require alpha"):
            spectrum_floors(random_state(2, 2, rng), random_density(2, rng), 0.3)
        assert setups["tensor"] == 0

    @pytest.mark.parametrize("alpha", [0.75, 1.5])
    def test_spectrum_floors_hold_on_iterates(self, rng, alpha):
        rho = random_state(2, 2, rng)
        sigma0 = random_density(2, rng)
        c_a, c_b = spectrum_floors(rho, sigma0, alpha)
        trace = run_uncertified(
            rho,
            AmConfig(alpha=alpha, init=sigma0, record_states=True),
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

    def test_contraction_probe_rejects_rank_one_marginal(self, rng):
        # |0><0| (x) tau: every restricted state is |0><0|, so no pair has d_H > 0.
        tau = random_density(2, rng).entries
        rho = BipartiteState.from_matrix(np.kron(np.diag([1.0, 0.0]), tau), 2, 2)
        with pytest.raises(ValueError, match="rank 2"):
            contraction_probe(rho, 1.5, 5, rng)

    def test_maximally_mixed_ratio(self, rng):
        report = contraction_probe(uniform_state(2, 2), 2.0, 30, rng)
        assert report.max_ratio <= 0.5 + 1e-9

    def test_cc_diameter_matches_classical_formula(self, rng):
        p = rng.random((2, 2)) + 0.1
        p /= p.sum()
        from prmi import cc_embed

        rho = cc_embed(p)
        basis = np.eye(2)
        delta_quantum = projective_diameter_from_vectors(rho, 1.5, basis)
        assert delta_quantum == pytest.approx(cross_ratio_diameter(p, 1.5), abs=1e-10)


def _started_run(rho, alpha):
    run = _AmRun(rho, alpha, DEFAULT_CUT, _AmRun.initial(rho, AmConfig(alpha=alpha)))
    run.a_to_b()
    run.full_step()
    return run


def _quantum_floor(run):
    k_s = max(run.prev_sigma[0][-1] / run.prev_sigma[0][0], run.sigma_vals[-1] / run.sigma_vals[0])
    k_t = run.tau_vals[-1] / run.tau_vals[0]
    kappa = (k_s * k_t) ** (run.alpha - 1.0) * (k_s + k_t)
    return step_floor(run.alpha, run.d_a + run.d_b, float(kappa))


class TestStepDistance:
    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
    def test_identical_iterates_read_the_floor(self, d_a, d_b):
        # The maximally mixed state is a fixed point of the marginal initializer, bit for bit.
        run = _started_run(uniform_state(d_a, d_b), 1.5)
        assert np.array_equal(run.sigma_vals, run.prev_sigma[0])
        assert np.array_equal(run.sigma_vecs, run.prev_sigma[1])
        assert run.step_distance() == _quantum_floor(run) > 0.0

    def test_product_state_reads_the_floor(self, rng):
        run = _started_run(random_product_state(2, 3, rng), 2.0)
        floor = _quantum_floor(run)
        assert floor > 0.0
        assert floor <= run.step_distance() <= floor + 1e-13

    def test_classical_identical_iterates_read_the_floor(self):
        p = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        run = _ClassicalRun(p, 4.0, DEFAULT_CUT, p.sum(axis=1))
        run.a_to_b()
        run.full_step()
        assert np.array_equal(run.q_x, run.prev_q)
        assert run.step_distance() == step_floor(4.0, 5, 1.0) > 0.0

    @pytest.mark.parametrize("alpha", [1.25, 2.0])
    def test_matches_d_h_on_rank_deficient_state(self, rng, alpha):
        rho = BipartiteState.from_operator(random_density(6, rng, rank=2), 3, 2)
        run = _started_run(rho, alpha)
        w, v = run.prev_sigma
        prev = HermitianOperator._wrap((v * w) @ v.conj().T)
        expect = d_h(run.operators()[0](), prev)
        assert 0.0 < expect < math.inf
        assert run.step_distance() - _quantum_floor(run) == pytest.approx(expect, rel=1e-9, abs=1e-13)

    def test_support_rank_change_reads_inf(self, rng):
        run = _started_run(random_state(2, 2, rng), 2.0)
        w, v = run.prev_sigma
        assert math.isfinite(run.step_distance())
        run.prev_sigma = (w[1:], v[:, 1:])  # rank 1 -> rank 2
        assert run.step_distance() == math.inf
        run.prev_sigma = (w, v)
        run.sigma_vals, run.sigma_vecs = run.sigma_vals[1:], run.sigma_vecs[:, 1:]  # rank 2 -> 1
        assert run.step_distance() == math.inf

    def test_classical_support_change_reads_inf(self, rng):
        p = random_pmf((3, 3), rng)
        run = _ClassicalRun(p, 2.0, DEFAULT_CUT, p.sum(axis=1))
        run.a_to_b()
        run.full_step()
        assert math.isfinite(run.step_distance())
        run.prev_q = np.array([0.5, 0.5, 0.0])
        assert run.step_distance() == math.inf

    def test_classical_shared_zero_is_masked(self, rng, recwarn):
        p = random_pmf((3, 3), rng)
        run = _ClassicalRun(p, 2.0, DEFAULT_CUT, p.sum(axis=1))
        run.prev_q, run.q_x = np.array([0.5, 0.5, 0.0]), np.array([0.4, 0.6, 0.0])
        assert run.step_distance() == pytest.approx(math.log(1.5) + step_floor(2.0, 6, 1.0), rel=1e-15)
        assert not recwarn.list


class TestLinearCertificate:
    def test_infinite_step_distance_certifies_on_a_priori_term(self, rng, monkeypatch):
        rho = random_state(2, 2, rng)
        consts = linear_constants(rho, rho.marginal_a(), 2.0)
        monkeypatch.setattr(_AmRun, "step_distance", lambda self: math.inf)
        trace = algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-8))
        assert trace.terminated_by == "certificate"
        assert trace.iterations == a_priori_iterations(2.0, consts, 1e-8)
        for r in trace.records:
            assert r.eps_n == pytest.approx(a_priori_eps(2.0, consts, r.n), rel=1e-12)

    def test_classical_infinite_step_distance_certifies_on_a_priori_term(self, rng, monkeypatch):
        p = random_pmf((3, 3), rng)
        consts = classical_linear_constants(p, p.sum(axis=1), 4.0)
        monkeypatch.setattr(_ClassicalRun, "step_distance", lambda self: math.inf)
        trace = algorithm_classical(p, AmConfig(alpha=4.0, eps0=1e-8))
        assert trace.iterations == a_priori_iterations(4.0, consts, 1e-8)
        for r in trace.records:
            assert r.eps_n == pytest.approx(a_priori_eps(4.0, consts, r.n), rel=1e-12)

    def test_stops_before_a_priori_count(self, rng):
        rho = random_state(2, 2, rng)
        consts = linear_constants(rho, rho.marginal_a(), 2.0)
        trace = algorithm1(rho, AmConfig(alpha=2.0, eps0=1e-6))
        assert trace.terminated_by == "certificate"
        assert trace.iterations < a_priori_iterations(2.0, consts, 1e-6)
        long_run = run_uncertified(rho, AmConfig(alpha=2.0), 500)
        assert abs(trace.final_x - long_run.final_x) <= 1e-6

from collections import Counter

import numpy as np
import pytest

from conftest import by_name, composed_ratios, composed_support_relation, count_decompositions
from prmi import (
    DEFAULT_CUT,
    BipartiteState,
    DimMismatch,
    HermitianOperator,
    InvalidExponent,
    InvalidOperator,
    SupportCutoff,
    SupportRelation,
    ZeroOperator,
    eig_hermitian,
    min_nonzero_eig,
    partial_trace,
    power_on_support,
    random_density,
    schatten_norm,
    support_relation,
)
from prmi.operator_core import _eigh, _eigvalsh, support_eigh, support_pairs


def rand_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator.from_entries((g + g.conj().T) / 2)


class TestHermitianOperator:
    def test_symmetrizes_roundtrip_noise(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 1e-15
        op = HermitianOperator.from_entries(mat)
        assert np.allclose(op.entries, op.entries.conj().T)

    def test_rejects_gross_asymmetry(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 0.3
        with pytest.raises(InvalidOperator):
            HermitianOperator.from_entries(mat)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidOperator):
            HermitianOperator.from_entries(np.array([[np.nan, 0], [0, 1.0]]))

    def test_entries_read_only(self):
        op = HermitianOperator.identity(2)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf)])
    def test_infinite_entry_named(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(InvalidOperator, match="non-finite"):
            HermitianOperator.from_entries(mat)

    def test_entry_whose_modulus_overflows_rejected(self):
        # Finite parts whose modulus overflows: (mat + mat^dag)/2 would not be finite.
        entry = 1.5e308 + 1.5e308j
        mat = np.array([[1.0, entry], [np.conj(entry), 1.0]])
        with pytest.raises(InvalidOperator, match="non-finite"):
            HermitianOperator.from_entries(mat)

    @pytest.mark.parametrize("entry", [1.2e308, 1e308 + 1e308j], ids=["real", "complex"])
    def test_entry_too_large_to_symmetrize_rejected(self, entry):
        # Finite entries above half the float64 maximum: (mat + mat^dag)/2 would
        # give inf+nanj (real) or nan+nanj (complex) off the diagonal.
        mat = np.array([[1.0, entry], [np.conj(entry), 1.0]])
        with pytest.raises(InvalidOperator, match="non-finite values once symmetrized"):
            HermitianOperator.from_entries(mat)

    def test_half_the_float64_maximum_is_accepted(self):
        half = float(np.finfo(np.float64).max) / 2.0
        op = HermitianOperator.from_entries([[1.0, half], [half, 1.0]])
        assert np.isfinite(op.entries).all() and op.entries[0, 1] == half

    @pytest.mark.parametrize("build", ["from_entries", "_wrap"])
    def test_symmetrized_copy(self, rng, build):
        g = rng.standard_normal((3, 3))
        mat = g + g.T + 1e-14 * rng.standard_normal((3, 3))
        op = getattr(HermitianOperator, build)(mat)
        assert op.entries.dtype == np.complex128 and not op.entries.flags.writeable
        assert np.array_equal(op.entries, ((mat + mat.T) / 2.0).astype(np.complex128))
        mat[0, 0] = 7.0  # the operator does not share the caller's array
        assert op.entries[0, 0] != 7.0


class TestEig:
    def test_identity(self):
        w, v = eig_hermitian(HermitianOperator.identity(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(2))

    def test_already_diagonal(self):
        w, v = eig_hermitian(HermitianOperator.diagonal([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_reconstruction_residual(self, rng):
        x = rand_hermitian(4, rng)
        w, v = eig_hermitian(x)
        recon = (v * w) @ v.conj().T
        scale = np.max(np.abs(x.entries))
        assert np.max(np.abs(recon - x.entries)) <= 1e-10 * scale * x.dim
        assert np.all(np.diff(w) <= 0)


class TestPowerOnSupport:
    def test_diagonal_sqrt(self):
        out = power_on_support(HermitianOperator.diagonal([4.0, 0.0]), 0.5)
        assert np.allclose(out.entries, np.diag([2.0, 0.0]))

    def test_identity_inverse(self):
        out = power_on_support(HermitianOperator.identity(3), -1.0)
        assert np.allclose(out.entries, np.eye(3))

    def test_square_matches_product(self, rng):
        x = random_density(3, rng, rank=2)
        sq = power_on_support(x, 2.0)
        assert np.max(np.abs(sq.entries - x.entries @ x.entries)) <= 1e-10

    def test_zero_power_is_support_projector(self, rng):
        x = random_density(3, rng, rank=2)
        proj = power_on_support(x, 0.0)
        assert np.allclose(proj.entries @ proj.entries, proj.entries, atol=1e-12)
        assert abs(proj.trace() - 2.0) < 1e-9

    def test_negative_power_of_zero_raises(self):
        with pytest.raises(ZeroOperator):
            power_on_support(HermitianOperator.diagonal([0.0, 0.0]), -1.0)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.25, 1.0])
    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.25, 1.0])
    def test_power_addition_on_support(self, rng, p, q):
        x = random_density(3, rng)
        lhs = power_on_support(x, p).entries @ power_on_support(x, q).entries
        rhs = power_on_support(x, p + q).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestPartialTrace:
    def test_product_case(self, rng):
        a = random_density(2, rng)
        b = random_density(3, rng)
        joint = HermitianOperator.from_entries(np.kron(a.entries, b.entries))
        out = partial_trace(joint, 2, 3, "A")
        assert np.allclose(out.entries, b.entries, atol=1e-12)
        out_b = partial_trace(joint, 2, 3, "B")
        assert np.allclose(out_b.entries, a.entries, atol=1e-12)

    def test_maximally_mixed(self):
        out = partial_trace(HermitianOperator.from_entries(np.eye(4) / 4), 2, 2, "B")
        assert np.allclose(out.entries, np.eye(2) / 2)

    def test_trace_preserving(self, rng):
        x = rand_hermitian(6, rng)
        out = partial_trace(x, 2, 3, "A")
        assert abs(out.trace() - x.trace()) <= 1e-12

    def test_linearity(self, rng):
        x, y = rand_hermitian(6, rng), rand_hermitian(6, rng)
        a, b = 0.3, -1.7
        combo = HermitianOperator.from_entries(a * x.entries + b * y.entries)
        lhs = partial_trace(combo, 2, 3, "A").entries
        rhs = a * partial_trace(x, 2, 3, "A").entries + b * partial_trace(y, 2, 3, "A").entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            partial_trace(HermitianOperator.identity(5), 2, 3, "A")


class TestSchattenNorm:
    def test_trace_norm_identity(self):
        assert schatten_norm(HermitianOperator.identity(3), 1.0) == pytest.approx(3.0)

    def test_sup_norm(self):
        assert schatten_norm(HermitianOperator.diagonal([3.0, -4.0]), np.inf) == pytest.approx(4.0)

    def test_quasi_norm_hand_value(self):
        assert schatten_norm(HermitianOperator.diagonal([1.0, 1.0]), 0.5) == pytest.approx(4.0)

    def test_monotone_in_p(self, rng):
        x = random_density(4, rng)
        grid = [0.5, 1.0, 2.0, np.inf]
        vals = [schatten_norm(x, p) for p in grid]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            schatten_norm(HermitianOperator.identity(2), -1.0)


class TestMinNonzeroEig:
    def test_simple(self):
        assert min_nonzero_eig(HermitianOperator.diagonal([0.7, 0.3])) == pytest.approx(0.3)

    def test_cutoff_absorbs_kernel(self):
        op = HermitianOperator.diagonal([1.0, 1e-16])
        assert min_nonzero_eig(op, SupportCutoff(1e-12)) == pytest.approx(1.0)

    def test_marginal_of_state_power(self):
        rho = HermitianOperator.from_entries(np.eye(4) / 4)
        out = partial_trace(power_on_support(rho, 0.75), 2, 2, "B")
        assert min_nonzero_eig(out) == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_zero_raises(self):
        with pytest.raises(ZeroOperator):
            min_nonzero_eig(HermitianOperator.diagonal([0.0, 0.0]))


def _kernel_inputs(rng):
    """Seeded Hermitian matrices, d 1-16, float64 and complex128: indefinite, PSD of rank
    d // 2, diagonal, zero, and the transposed (Fortran-ordered) view of the indefinite one."""
    for d in range(1, 17):
        for dtype in (np.float64, np.complex128):
            g = rng.standard_normal((d, d)).astype(dtype)
            if dtype is np.complex128:
                g += 1j * rng.standard_normal((d, d))
            indefinite = g + g.conj().T
            low = g[:, : d // 2]
            yield indefinite
            yield indefinite.T
            yield low @ low.conj().T
            yield np.diag(rng.standard_normal(d)).astype(dtype)
            yield np.zeros((d, d), dtype)


class TestEigenKernel:
    """``_eigh``/``_eigvalsh`` are ``np.linalg.eigh``/``eigvalsh`` bit for bit, with its failure check."""

    def test_bit_identical_to_numpy(self, rng):
        count = 0
        for mat in _kernel_inputs(rng):
            w, v = _eigh(mat)
            want_w, want_v = np.linalg.eigh(mat)
            vals = _eigvalsh(mat)
            want_vals = np.linalg.eigvalsh(mat)
            for got, want in [(w, want_w), (v, want_v), (vals, want_vals)]:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            count += 1
        assert count == 16 * 2 * 5

    # Without np.linalg's errstate, numpy may warn of the invalid value LAPACK flags first.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nan_matrix_raises(self, dtype):
        mat = np.full((3, 3), np.nan, dtype)
        with pytest.raises(np.linalg.LinAlgError):
            _eigh(mat)
        with pytest.raises(np.linalg.LinAlgError):
            _eigvalsh(mat)


class TestSupportPairs:
    def test_full_support_returns_the_given_arrays(self, rng):
        w, v = np.linalg.eigh(random_density(3, rng).entries)
        w2, v2 = support_pairs(w, v, SupportCutoff(1e-12))
        assert w2 is w and v2 is v

    def test_cut_keeps_the_top_pairs(self):
        w, v = np.linalg.eigh(np.diag([1e-5, 0.5, 0.3]))
        w2, v2 = support_pairs(w, v, SupportCutoff(1e-3))
        assert np.array_equal(w2, w[1:])
        assert np.array_equal(v2, v[:, 1:])
        assert np.array_equal(support_eigh(np.diag([1e-5, 0.5, 0.3]), SupportCutoff(1e-3))[0], w2)

    def test_rejects_clearly_negative(self):
        w, v = np.linalg.eigh(np.diag([-1e-3, 1.0]))
        with pytest.raises(InvalidOperator, match="PSD"):
            support_pairs(w, v, SupportCutoff())

    def test_zero_matrix_gives_empty_arrays(self):
        w, v = support_pairs(*np.linalg.eigh(np.zeros((2, 2))), SupportCutoff())
        assert w.shape == (0,) and v.shape == (2, 0)

    @pytest.mark.parametrize(
        "diag, rel_tol", [([0.2, 0.5, 0.3], 1e-12), ([1e-5, 0.5, 0.3], 1e-3), ([0.0, 0.0, 0.0], 1e-12)]
    )
    def test_eigenvalues_alone(self, diag, rel_tol):
        w, v = np.linalg.eigh(np.diag(diag))
        cut = SupportCutoff(rel_tol)
        w2, v2 = support_pairs(w, None, cut)
        assert v2 is None and np.array_equal(w2, support_pairs(w, v, cut)[0])
        with pytest.raises(InvalidOperator, match="PSD"):
            support_pairs(np.array([-1e-3, 1.0]), None, cut)


class TestSupportRelation:
    def test_dominated(self):
        rel = support_relation(
            HermitianOperator.diagonal([1.0, 0.0]), HermitianOperator.diagonal([1.0, 1.0])
        )
        assert rel is SupportRelation.DOMINATED

    def test_orthogonal(self):
        rel = support_relation(
            HermitianOperator.diagonal([1.0, 0.0]), HermitianOperator.diagonal([0.0, 1.0])
        )
        assert rel is SupportRelation.ORTHOGONAL

    def test_equal_support(self):
        rel = support_relation(
            HermitianOperator.diagonal([0.5, 0.5]), HermitianOperator.diagonal([0.9, 0.1])
        )
        assert rel is SupportRelation.EQUAL_SUPPORT

    def test_none(self):
        x = HermitianOperator.diagonal([0.5, 0.5, 0.0])
        y = HermitianOperator.diagonal([0.0, 0.5, 0.5])
        assert support_relation(x, y) is SupportRelation.NONE

    def test_matches_composed_definition(self):
        # The trace of X's support part and the spectral norm of its full
        # entries may disagree within a factor d of the cutoff; pairs whose
        # relations fall inside that band are left out.
        pairs = _relation_pairs(np.random.default_rng(2507), rounds=6)
        seen, tol = Counter(), DEFAULT_CUT.rel_tol
        for x, y in pairs:
            if any(tol / x.dim < r < tol * x.dim for r in composed_ratios(x, y)):
                seen["near the cutoff"] += 1
                continue
            expect = composed_support_relation(x, y)
            assert support_relation(x, y) is expect
            seen[expect] += 1
        assert min(seen[rel] for rel in SupportRelation) >= 100
        assert sum(seen.values()) > 2000 and seen["near the cutoff"] <= 20

    def test_zero_pairs(self):
        zero, e0 = HermitianOperator.diagonal([0.0, 0.0]), HermitianOperator.diagonal([1.0, 0.0])
        for x, y, expect in [
            (zero, zero, SupportRelation.EQUAL_SUPPORT),
            (zero, e0, SupportRelation.DOMINATED),
            (e0, zero, SupportRelation.ORTHOGONAL),
        ]:
            assert support_relation(x, y) is expect is composed_support_relation(x, y)

    def test_sub_cutoff_entries_are_kernel_both_ways(self):
        # X's three small eigenvalues lie below the cutoff, so supp X = supp Y.
        x = HermitianOperator.diagonal([1.0, 5e-13, 5e-13, 5e-13])
        y = HermitianOperator.diagonal([1.0, 0.0, 0.0, 0.0])
        for a, b in [(x, y), (y, x)]:
            assert support_relation(a, b) is SupportRelation.EQUAL_SUPPORT
            assert composed_support_relation(a, b) is SupportRelation.EQUAL_SUPPORT

    def test_two_eigh_and_no_eigvalsh(self, rng, monkeypatch):
        calls = count_decompositions(monkeypatch, key=by_name)
        x, y = random_density(3, rng, rank=2), random_density(3, rng)
        assert support_relation(x, y) is SupportRelation.DOMINATED
        assert calls == {"eigh": 2}


def _unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


def _spread(v, rng, low):
    """Density operator on the span of the columns ``v``, spectrum log-uniform down to ``low``."""
    w = np.exp(rng.uniform(np.log(low), 0.0, v.shape[1]))
    m = (v * w) @ v.conj().T
    return m / np.sum(w) if w.size else m


def _relation_pairs(rng, rounds):
    """Pairs at d = 1..6 and every rank: X inside, outside, across or random to supp Y.

    Y's spectrum spans down to 1e-11 of its top, X's down to 1e-9, and a
    nonzero X carries 1e-14 noise below the cutoff.  Every relation the two rules
    decide is then far from their tolerances, whose forms (trace of X's
    support part against spectral norms of the full entries) differ within a
    factor d of the cutoff.
    """
    pairs = []
    for _ in range(rounds):
        for d in range(1, 7):
            for r_y in range(d + 1):
                u = _unitary(d, rng)
                inside, outside = u[:, :r_y], u[:, r_y:]
                y = _spread(inside, rng, 1e-11)
                for r_x in range(d + 1):
                    spans = [_unitary(d, rng)[:, :r_x]]
                    if r_x <= r_y:
                        spans.append(inside @ _unitary(r_y, rng)[:, :r_x])
                    if r_x <= d - r_y:
                        spans.append(outside @ _unitary(d - r_y, rng)[:, :r_x])
                    if 2 <= r_x and r_y and d - r_y:
                        k = rng.integers(1, r_x)
                        if k <= r_y and r_x - k <= d - r_y:
                            spans.append(np.hstack([inside[:, :k], outside[:, : r_x - k]]))
                    for v in spans:
                        x = _spread(v, rng, 1e-9)
                        if r_x:
                            x = x + 1e-14 * random_density(d, rng).entries
                        pairs.append((HermitianOperator._wrap(x), HermitianOperator._wrap(y)))
    return pairs


class TestBipartiteState:
    def test_accepts_valid(self, rng):
        BipartiteState.from_operator(random_density(6, rng), 2, 3)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidOperator, match="trace"):
            BipartiteState.from_matrix(np.eye(4) * 0.9 / 4, 2, 2)

    def test_rejects_negative(self):
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(InvalidOperator, match="PSD"):
            BipartiteState.from_matrix(mat, 2, 2)

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            BipartiteState.from_operator(random_density(4, rng), 2, 3)

    def test_spectrum_read_only_and_exact(self, rng):
        state = BipartiteState.from_operator(random_density(6, rng), 2, 3)
        w, v = state.spectrum
        assert state.spectrum[1] is v
        assert np.max(np.abs((v * w) @ v.conj().T - state.op.entries)) <= 1e-14
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_marginal_spectrum_cached_and_exact(self, rng):
        state = BipartiteState.from_operator(random_density(6, rng, rank=1), 3, 2)
        w, v = state.marginal_spectrum
        assert state.marginal_spectrum[1] is v
        assert state.marginal_a() is state.marginal_a()
        assert np.all(w[:-1] <= w[1:])
        assert np.max(np.abs((v * w) @ v.conj().T - state.marginal_a().entries)) <= 1e-14

    def test_marginals(self, rng):
        a = random_density(2, rng)
        b = random_density(3, rng)
        state = BipartiteState.from_matrix(np.kron(a.entries, b.entries), 2, 3)
        assert np.allclose(state.marginal_a().entries, a.entries, atol=1e-12)
        assert np.allclose(state.marginal_b().entries, b.entries, atol=1e-12)

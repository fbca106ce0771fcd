import math
from collections import Counter

import numpy as np
import pytest

from conftest import composed_support_relation
from prmi import (
    DEFAULT_CUT,
    DimMismatch,
    HermitianOperator,
    SupportRelation,
    ZeroOperator,
    d_h,
    partial_trace,
    power_on_support,
    random_density,
)
from references import (
    SupportMismatch,
    d_h_bound_from_spectra,
    d_h_vec,
    m_ratio,
    m_ratio_vec,
    tensor_additivity_residual,
)


def rand_full_rank(dim, rng):
    return random_density(dim, rng)


class TestMRatio:
    def test_self_is_one(self, rng):
        x = rand_full_rank(3, rng)
        assert m_ratio(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, rng):
        x = rand_full_rank(3, rng)
        two_x = HermitianOperator.from_entries(2.0 * x.entries)
        assert m_ratio(two_x, x) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_matches_max_ratio(self, rng):
        p = rng.random(4) + 0.1
        q = rng.random(4) + 0.1
        quantum = m_ratio(HermitianOperator.diagonal(p), HermitianOperator.diagonal(q))
        assert quantum == pytest.approx(np.max(p / q), abs=1e-12)
        assert m_ratio_vec(p, q) == pytest.approx(np.max(p / q), abs=1e-15)

    def test_not_dominated_is_inf(self):
        x = HermitianOperator.diagonal([1.0, 1.0])
        y = HermitianOperator.diagonal([1.0, 0.0])
        assert m_ratio(x, y) == math.inf

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroOperator):
            m_ratio(HermitianOperator.identity(2), HermitianOperator.diagonal([0.0, 0.0]))


class TestDH:
    def test_projective_definiteness(self, rng):
        x = rand_full_rank(3, rng)
        assert d_h(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        x, y = rand_full_rank(3, rng), rand_full_rank(3, rng)
        ax = HermitianOperator.from_entries(3.7 * x.entries)
        by = HermitianOperator.from_entries(0.2 * y.entries)
        assert d_h(ax, by) == pytest.approx(d_h(x, y), abs=1e-12)

    def test_symmetry(self, rng):
        x, y = rand_full_rank(4, rng), rand_full_rank(4, rng)
        assert d_h(x, y) == pytest.approx(d_h(y, x), abs=1e-12)

    def test_binary_hand_value(self):
        p, q = 0.7, 0.4
        val = d_h(HermitianOperator.diagonal([p, 1 - p]), HermitianOperator.diagonal([q, 1 - q]))
        expect = abs(math.log(p * (1 - q)) - math.log(q * (1 - p)))
        assert val == pytest.approx(expect, abs=1e-12)
        assert d_h_vec([p, 1 - p], [q, 1 - q]) == pytest.approx(expect, abs=1e-12)

    def test_support_mismatch_is_inf(self):
        x = HermitianOperator.diagonal([1.0, 0.0])
        y = HermitianOperator.diagonal([0.5, 0.5])
        assert d_h(x, y) == math.inf

    def test_zero_pair(self):
        z = HermitianOperator.diagonal([0.0, 0.0])
        assert d_h(z, z) == 0.0

    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.5, 1.0])
    def test_power_contraction(self, rng, r):
        for _ in range(5):
            x, y = rand_full_rank(3, rng), rand_full_rank(3, rng)
            lhs = d_h(power_on_support(x, r), power_on_support(y, r))
            assert lhs <= abs(r) * d_h(x, y) + 1e-9

    def test_linear_map_contraction(self, rng):
        for _ in range(5):
            z = random_density(6, rng)
            x, y = rand_full_rank(2, rng), rand_full_rank(2, rng)
            z4 = z.entries.reshape(2, 3, 2, 3)
            lx = HermitianOperator.from_entries(np.einsum("abcd,ca->bd", z4, x.entries))
            ly = HermitianOperator.from_entries(np.einsum("abcd,ca->bd", z4, y.entries))
            assert d_h(lx, ly) <= d_h(x, y) + 1e-9

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_inverse_power_ratio_at_least_one(self, rng, alpha):
        # M(sigma^(1-alpha) / tau^(1-alpha)) >= 1 for equal-support states
        for _ in range(5):
            s, t = rand_full_rank(3, rng), rand_full_rank(3, rng)
            m = m_ratio(power_on_support(s, 1 - alpha), power_on_support(t, 1 - alpha))
            assert m >= 1.0 - 1e-10

    @pytest.mark.parametrize("alpha", [0.6, 2.0])
    def test_classical_inverse_power_ratio(self, rng, alpha):
        for _ in range(10):
            q = rng.random(4) + 0.05
            q /= q.sum()
            r = rng.random(4) + 0.05
            r /= r.sum()
            assert m_ratio_vec(q ** (1 - alpha), r ** (1 - alpha)) >= 1.0 - 1e-12


class TestSpectralBound:
    def test_two_eigh(self, rng, monkeypatch):
        s = random_density(3, rng)
        t = random_density(3, rng)
        calls = Counter()
        for name in ("eigh", "eigvalsh"):

            def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert math.isfinite(d_h_bound_from_spectra(s, t))
        assert calls == {"eigh": 2}

    def test_rank_deficient_pair_and_zero(self, rng):
        s = random_density(3, rng, rank=2)
        w = np.linalg.eigvalsh(s.entries)
        assert d_h_bound_from_spectra(s, s) == pytest.approx(-2 * math.log(w[1]), rel=1e-12)
        zero = HermitianOperator.diagonal([0.0, 0.0, 0.0])
        with pytest.raises(ZeroOperator):
            d_h_bound_from_spectra(zero, zero)
        for x, y in ((zero, s), (s, zero)):
            with pytest.raises(SupportMismatch):
                d_h_bound_from_spectra(x, y)

    def test_uniform_pair(self):
        u = HermitianOperator.from_entries(np.eye(2) / 2)
        assert d_h_bound_from_spectra(u, u) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_hand_example(self):
        s = HermitianOperator.diagonal([0.9, 0.1])
        t = HermitianOperator.from_entries(np.eye(2) / 2)
        bound = d_h_bound_from_spectra(s, t)
        assert bound == pytest.approx(-2 * math.log(0.1), abs=1e-12)
        assert d_h(s, t) == pytest.approx(math.log(1.8 / 0.2), abs=1e-12)
        assert d_h(s, t) <= bound

    def test_random_bound_dominates(self, rng):
        for _ in range(20):
            s, t = rand_full_rank(3, rng), rand_full_rank(3, rng)
            assert d_h_bound_from_spectra(s, t) >= d_h(s, t) - 1e-10

    def test_support_mismatch_raises(self, rng):
        s = random_density(3, rng, rank=2)
        t = rand_full_rank(3, rng)
        with pytest.raises(SupportMismatch):
            d_h_bound_from_spectra(s, t)


class TestTensorAdditivity:
    def test_residual_small(self, rng):
        for _ in range(5):
            xa, ya = rand_full_rank(2, rng), rand_full_rank(2, rng)
            xb, yb = rand_full_rank(2, rng), rand_full_rank(2, rng)
            assert tensor_additivity_residual(xa, ya, xb, yb) <= 1e-9

    def test_degenerate_second_factor(self, rng):
        xa, ya = rand_full_rank(2, rng), rand_full_rank(2, rng)
        xb = rand_full_rank(2, rng)
        assert tensor_additivity_residual(xa, ya, xb, xb) <= 1e-9

    def test_scaling_one_factor(self, rng):
        xa, ya = rand_full_rank(2, rng), rand_full_rank(2, rng)
        xb, yb = rand_full_rank(2, rng), rand_full_rank(2, rng)
        base = tensor_additivity_residual(xa, ya, xb, yb)
        scaled = tensor_additivity_residual(
            HermitianOperator.from_entries(3.0 * xa.entries), ya, xb, yb
        )
        assert scaled == pytest.approx(base, abs=1e-10)


def _composed_m_ratio(x, y):
    """Reference: M(X/Y) behind the projector/norm support relation, by an inverse square root."""
    wy, vs = np.linalg.eigh(y.entries)
    keep = wy > DEFAULT_CUT.rel_tol * max(wy[-1], 0.0)
    if not keep.any():
        raise ZeroOperator("M(X/Y) undefined for Y = 0")
    relation = composed_support_relation(x, y)
    if relation not in (SupportRelation.DOMINATED, SupportRelation.EQUAL_SUPPORT):
        return math.inf
    wy, vs = wy[keep], vs[:, keep]
    inv_sqrt = 1.0 / np.sqrt(wy)
    t = (vs.conj().T @ x.entries @ vs) * np.outer(inv_sqrt, inv_sqrt)
    lam = np.linalg.eigvalsh((t + t.conj().T) / 2.0)
    return float(np.max(np.abs(lam))) if lam.size else 0.0


def _composed_d_h(x, y):
    """Reference: log(M(X/Y) M(Y/X)) behind the projector/norm support relation."""
    x_zero = float(np.max(np.abs(x.entries))) == 0.0
    y_zero = float(np.max(np.abs(y.entries))) == 0.0
    if x_zero and y_zero:
        return 0.0
    if composed_support_relation(x, y) is not SupportRelation.EQUAL_SUPPORT or y_zero:
        return math.inf
    return max(math.log(_composed_m_ratio(x, y) * _composed_m_ratio(y, x)), 0.0)


def _same_support(x, rng):
    """A random density operator with exactly the support of ``x``."""
    w, v = np.linalg.eigh(x.entries)
    v = v[:, w > DEFAULT_CUT.rel_tol * w[-1]]
    g = rng.standard_normal((v.shape[1],) * 2) + 1j * rng.standard_normal((v.shape[1],) * 2)
    m = v @ (g @ g.conj().T) @ v.conj().T
    return HermitianOperator.from_entries(m / np.trace(m).real)


def _pairs(rng):
    """Equal-support, dominated, non-dominated, orthogonal and zero pairs, rank-deficient ones included."""
    out = []
    for d in (2, 3, 4):
        for rank in range(1, d + 1):
            x = random_density(d, rng, rank=rank)
            out.append((x, _same_support(x, rng)))
            out.append((x, random_density(d, rng)))
            out.append((random_density(d, rng), x))
            out.append((x, random_density(d, rng, rank=rank)))
    zero = HermitianOperator.diagonal([0.0, 0.0, 0.0])
    e0, e12 = HermitianOperator.diagonal([1.0, 0.0, 0.0]), HermitianOperator.diagonal([0.0, 0.4, 0.6])
    out += [(e0, e12), (e12, e0), (zero, e0), (e0, zero), (zero, zero)]
    return out


class TestOneShotDH:
    def test_matches_composed_definition(self, rng):
        finite = 0
        for x, y in _pairs(rng):
            expect, got = _composed_d_h(x, y), d_h(x, y)
            if math.isinf(expect):
                assert got == math.inf
            else:
                finite += 1
                assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)
            if np.any(y.entries):
                m_expect, m_got = _composed_m_ratio(x, y), m_ratio(x, y)
                assert m_got == m_expect if math.isinf(m_expect) else m_got == pytest.approx(m_expect, rel=1e-10)
        assert finite >= 9  # the equal-support pairs, every rank

    def test_symmetric_at_the_cutoff(self):
        # X's three small eigenvalues lie below the cutoff: d_H reads X's support part.
        x = HermitianOperator.diagonal([1.0, 5e-13, 5e-13, 5e-13])
        y = HermitianOperator.diagonal([1.0, 0.0, 0.0, 0.0])
        assert d_h(x, y) == d_h(y, x) == 0.0
        assert m_ratio(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_two_eigh_and_one_eigvalsh(self, rng, monkeypatch):
        x = random_density(3, rng, rank=2)
        y = _same_support(x, rng)
        calls = Counter()
        for name in ("eigh", "eigvalsh"):

            def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert math.isfinite(d_h(x, y))
        assert calls == {"eigh": 2, "eigvalsh": 1}

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(DimMismatch):
            d_h(random_density(2, rng), random_density(3, rng))

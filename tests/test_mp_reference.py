"""Certified 2x2 solves against a rounding-free reference (ROADMAP item 13).

``mp_reference_values`` runs the same alternating iteration as the engine at
40 significant digits, so its limit x* carries no float64 rounding: a
certificate then has to satisfy |x - x*| <= eps0 against an independent
value, not against a longer run of the same float64 iteration.

The reference applies the engine's relative 1e-12 cutoff to the spectrum of
rho and of rho_A (the marginal initializer), which fixes the problem being
solved: without it, the ~1e-17 eigenvalues that a float64 rank-1 or rank-2
state carries would enter rho^alpha and move x* (by 7e-11 on the rank-2
input below at alpha 0.6), enough to read a sound certificate at eps0 =
1e-10 as a false one.  Half-step matrices are powered on the eigenvalues
above 1e-30 of their largest, which only removes the 40-digit rounding of
the marginal kernels.

``mp_d_alpha`` is the same kind of reference for ``d_alpha``: the Petz trace
term at 40 digits from the eigenpairs of both arguments above the same
1e-12 cutoff.
"""

import functools

import numpy as np
import pytest

from conftest import maximally_correlated, near_singular, random_product_state
from prmi import (
    AmConfig,
    BipartiteState,
    HermitianOperator,
    algorithm1,
    algorithm2,
    d_alpha,
    random_density,
)

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
STATE_CUT = 1e-12
HALF_STEP_CUT = 1e-30


def _mp_eigenpairs(mat, rel):
    """Eigenvalues above ``rel`` times the largest, with their eigenvectors (columns)."""
    w, v = mpmath.eighe(mat)
    top = max(w)
    keep = [k for k in range(mat.rows) if w[k] > rel * top]
    return [w[k] for k in keep], [v[:, k] for k in keep]


def _mp_power(w, vecs, p, dim):
    out = mpmath.zeros(dim)
    for lam, vec in zip(w, vecs):
        out += (lam**p) * vec * vec.transpose_conj()
    return out


def mp_reference_values(rho_ab: BipartiteState, alpha: float, steps: int) -> list:
    """x_0, x_1, ... of the 2x2 quantum iteration from the marginal initializer, at 40 digits.

    x_n = alpha/(alpha-1) log tr W_B^(1/alpha) with W_B = tr_A[rho^alpha (sigma_n^(1-alpha) ⊗ 1)],
    the engine's closed form; the run stops early once x changes by less than 1e-35.
    """
    assert (rho_ab.d_a, rho_ab.d_b) == (2, 2)
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(alpha)
        rho = mpmath.matrix(rho_ab.op.entries.tolist())
        w, vecs = _mp_eigenpairs(rho, STATE_CUT)
        r4 = _mp_power(w, vecs, a, 4)
        rho_a = mpmath.matrix(2)
        for i, j, b in np.ndindex(2, 2, 2):
            rho_a[i, j] += rho[2 * i + b, 2 * j + b]
        w, vecs = _mp_eigenpairs(rho_a, STATE_CUT)
        sigma = _mp_power(w, vecs, 1, 2) / sum(w)
        xs = []
        for _ in range(steps + 1):
            w, vecs = _mp_eigenpairs(sigma, HALF_STEP_CUT)
            s = _mp_power(w, vecs, 1 - a, 2)
            w_b = mpmath.matrix(2)
            for i, c, b, d in np.ndindex(2, 2, 2, 2):
                w_b[b, d] += s[c, i] * r4[2 * i + b, 2 * c + d]
            w, vecs = _mp_eigenpairs(w_b, HALF_STEP_CUT)
            total = sum(lam ** (1 / a) for lam in w)
            xs.append(a / (a - 1) * mpmath.log(total))
            if len(xs) > 1 and abs(xs[-1] - xs[-2]) < mpmath.mpf(10) ** -35:
                break
            tau = _mp_power(w, vecs, 1 / a, 2) / total
            w, vecs = _mp_eigenpairs(tau, HALF_STEP_CUT)
            t = _mp_power(w, vecs, 1 - a, 2)
            w_a = mpmath.matrix(2)
            for i, c, b, d in np.ndindex(2, 2, 2, 2):
                w_a[i, c] += r4[2 * i + b, 2 * c + d] * t[d, b]
            w, vecs = _mp_eigenpairs(w_a, HALF_STEP_CUT)
            sigma = _mp_power(w, vecs, 1 / a, 2) / sum(lam ** (1 / a) for lam in w)
        return xs


def _ranked(rank):
    rho = random_density(4, np.random.default_rng(rank), rank=rank)
    return BipartiteState.from_operator(rho, 2, 2)


def _near_singular(eta):
    return near_singular(2, eta, np.random.default_rng(3))


STATES = {
    **{
        f"near-singular {eta:g}": functools.partial(_near_singular, eta)
        for eta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    },
    **{f"rank {r}": functools.partial(_ranked, r) for r in (1, 2, 3)},
    "product": lambda: random_product_state(2, 2, np.random.default_rng(5)),
    "maximally correlated": lambda: maximally_correlated(2),
}


# Two orders from each certified range, to keep this near 5 s; every eps0
# lies above the rounding floor that ROADMAP item 2's strict xfails pin.
# The orders 0.75 and 1.5 were sound on these states as well.
@pytest.mark.parametrize("alpha", [0.6, 0.9, 1.25, 2.0])
@pytest.mark.parametrize("name", sorted(STATES))
def test_certificate_holds_against_the_40_digit_limit(name, alpha):
    rho = STATES[name]()
    xs = mp_reference_values(rho, alpha, 400)
    assert abs(xs[-1] - xs[-2]) < 1e-30, "the reference did not converge"
    limit = float(xs[-1])
    solve = algorithm1 if alpha > 1 else algorithm2
    for eps0 in (1e-4, 1e-6, 1e-10):
        trace = solve(rho, AmConfig(alpha=alpha, eps0=eps0))
        assert trace.terminated_by == "certificate", eps0
        assert abs(trace.final_x - limit) <= eps0, eps0


def mp_d_alpha(rho: HermitianOperator, sigma: HermitianOperator, alpha: float):
    """D_alpha(rho || sigma) at 40 digits, for pairs inside the Petz domain.

    log(sum_ij wx_i^a wy_j^(1-a) |<y_j|x_i>|^2)/(a-1) over the eigenpairs of
    rho and sigma above ``STATE_CUT`` of their largest eigenvalue.
    """
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(alpha)
        wx, vx = _mp_eigenpairs(mpmath.matrix(rho.entries.tolist()), STATE_CUT)
        wy, vy = _mp_eigenpairs(mpmath.matrix(sigma.entries.tolist()), STATE_CUT)
        q = mpmath.fsum(
            lam**a * mu ** (1 - a) * abs((y.transpose_conj() * x)[0]) ** 2
            for lam, x in zip(wx, vx)
            for mu, y in zip(wy, vy)
        )
        return mpmath.log(q) / (a - 1)


def _same_support_pair(d, rng):
    """Two densities of rank d - 1 on one seeded subspace."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = np.linalg.qr(g)[0][:, : d - 1]
    return tuple(
        HermitianOperator._wrap(v @ random_density(d - 1, rng).entries @ v.conj().T)
        for _ in range(2)
    )


def _d_alpha_pairs():
    """Seeded pairs inside the domain at every order, d 2-4: both full rank, a rank-deficient
    rho against a full-rank sigma, and equal rank-deficient supports."""
    rng = np.random.default_rng(2025)
    for d in (2, 3, 4):
        for _ in range(3):
            yield f"full d={d}", random_density(d, rng), random_density(d, rng)
            yield f"rho rank {d - 1}", random_density(d, rng, rank=d - 1), random_density(d, rng)
            yield f"equal supports d={d}", *_same_support_pair(d, rng)


# The power form in tests/references.py is up to 1.2e-11 off at alpha >= 3,
# from the cancellation in V diag(w^(1-a)) V^dag; d_alpha reads the overlap
# factor instead and stays within 1e-13 of the 40-digit value on these pairs.
@pytest.mark.parametrize("alpha", [0.6, 1.5, 3.0, 6.0])
def test_d_alpha_against_40_digits(alpha):
    checked = 0
    for label, rho, sigma in _d_alpha_pairs():
        want = float(mp_d_alpha(rho, sigma, alpha))
        got = d_alpha(rho, sigma, alpha)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (label, got, want)
        checked += 1
    assert checked == 27

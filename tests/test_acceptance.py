"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints one ``ACCEPTANCE <id> <name>: PASS`` line (run with ``-s`` to
see them); a pytest failure marks the criterion as failed.  Criteria with a
stated runtime budget assert it.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    maximally_correlated,
    random_pmf,
    random_product_state,
    random_state,
    uniform_state,
)
from prmi import (
    AmConfig,
    HermitianOperator,
    algorithm1,
    algorithm2,
    algorithm_classical,
    birkhoff_kappa_classical,
    cc_embed,
    cross_ratio_diameter,
    d_alpha,
    d_h,
    grid_min_classical,
    grid_min_quantum_qubit,
    linear_constants,
    n_x_to_y,
    power_on_support,
    random_density,
    run_uncertified,
    run_uncertified_classical,
    schatten_norm,
    spectrum_floors,
    sublinear_constants,
)
from references import (
    contraction_probe,
    d_h_vec,
    m_ratio,
    m_ratio_vec,
    q_alpha,
    sibson_residual,
    tensor_additivity_residual,
)

ALL_ALPHAS = [0.6, 0.75, 0.9, 1.1, 1.5, 2.0]


def _eps0(alpha: float) -> float:
    return 1e-6 if alpha > 1 else 1e-4


def _certified(rho, alpha, eps0=None, **kwargs):
    cfg = AmConfig(alpha=alpha, eps0=eps0 or _eps0(alpha), **kwargs)
    return (algorithm1 if alpha > 1 else algorithm2)(rho, cfg)


def _ok(tag: str, name: str) -> None:
    print(f"ACCEPTANCE {tag} {name}: PASS")


def test_criterion_01_monotone_descent():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    states = [random_state(2, 2, rng) for _ in range(10)]
    states += [random_state(2, 3, rng) for _ in range(10)]
    for rho in states:
        for alpha in ALL_ALPHAS:
            trace = _certified(rho, alpha)
            assert np.all(np.diff(trace.x_values) <= 1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok("01", f"monotone-descent ({elapsed:.1f}s)")


def test_criterion_02_product_state_zero():
    rng = np.random.default_rng(102)
    for k in range(10):
        rho = random_product_state(2, 3 if k % 2 else 2, rng)
        for alpha in ALL_ALPHAS:
            trace = _certified(rho, alpha)
            assert trace.terminated_by == "certificate"
            assert abs(trace.final_x) <= max(_eps0(alpha), 1e-9)
    _ok("02", "product-state-zero")


def test_criterion_03_maximally_correlated_log_d():
    rho = maximally_correlated(2)
    unif = HermitianOperator.from_entries(np.eye(4) / 4)
    for alpha in [0.6, 0.75, 1.5, 2.0]:
        assert d_alpha(rho.op, unif, alpha) == pytest.approx(math.log(2), abs=1e-10)
    _ok("03", "maximally-correlated-log-d")


def test_criterion_04_below_half_alpha_regression():
    rho = maximally_correlated(2)
    trace = run_uncertified(rho, AmConfig(alpha=0.3, init="uniform"), 50)
    assert np.max(np.abs(trace.x_values - math.log(2))) <= 1e-10
    true_minimum = (0.3 / 0.7) * math.log(2)
    assert math.log(2) - true_minimum > 0.39
    _ok("04", "below-half-alpha-fixed-point")


def test_criterion_05_linear_certificate_soundness():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    for _ in range(10):
        rho = random_state(2, 2, rng)
        for alpha in [1.5, 2.0]:
            trace = algorithm1(rho, AmConfig(alpha=alpha, eps0=1e-6))
            assert trace.terminated_by == "certificate"
            proxy = run_uncertified(rho, AmConfig(alpha=alpha), 10_000)
            assert abs(trace.final_x - proxy.final_x) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok("05", f"linear-certificate-soundness ({elapsed:.1f}s)")


def test_criterion_06_state_convergence_rate():
    rng = np.random.default_rng(106)
    gamma = 0.5  # alpha = 2
    for _ in range(5):
        rho = random_state(2, 2, rng)
        trace = run_uncertified(rho, AmConfig(alpha=2.0, record_states=True), 200)
        sigma_hat = trace.sigma_states[-1]
        d0 = d_h(trace.sigma_states[0], sigma_hat)
        for n in range(21):
            dist = d_h(trace.sigma_states[n], sigma_hat)
            assert dist <= gamma ** (2 * n) * d0 * (1 + 1e-6)
    _ok("06", "linear-state-rate")


def test_criterion_07_sublinear_inequalities():
    rng = np.random.default_rng(107)
    for _ in range(10):
        rho = random_state(2, 2, rng)
        for alpha in [0.6, 0.75, 0.9]:
            consts = sublinear_constants(rho, rho.marginal_a(), alpha)
            trace = run_uncertified(rho, AmConfig(alpha=alpha), 10_000)
            xs = trace.x_values
            x_inf = xs[-1]
            x0 = xs[0]
            cap = max(1.5 * consts.c0**2, 2 * x0)
            for n in range(1, 101):
                gap = abs(xs[n] - x_inf)
                drop = max(xs[n - 1] - xs[n], 0.0)
                assert gap <= consts.c0 * math.sqrt(drop) + 1e-9
                assert gap <= cap / n
    _ok("07", "sublinear-certificate-inequalities")


def test_criterion_08_oracle_agreement():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    step_cl, step_qu = 1e-3, 2e-2

    for pmf in [random_pmf((2, 2), rng), random_pmf((2, 2), rng)]:
        for alpha in [0.75, 1.5, 2.0, 4.0]:
            engine = algorithm_classical(pmf, AmConfig(alpha=alpha, eps0=_eps0(alpha)))
            oracle = grid_min_classical(pmf, alpha, step_cl)
            assert abs(engine.final_x - oracle.min_value) <= _eps0(alpha) + 10 * step_cl

    pmf3 = random_pmf((3, 3), rng)
    for alpha in [0.75, 1.5, 2.0, 4.0]:
        engine = algorithm_classical(pmf3, AmConfig(alpha=alpha, eps0=_eps0(alpha)))
        oracle = grid_min_classical(pmf3, alpha, step_cl)
        assert abs(engine.final_x - oracle.min_value) <= _eps0(alpha) + 10 * step_cl

    for _ in range(2):
        rho = random_state(2, 2, rng)
        for alpha in [0.75, 1.5]:
            engine = _certified(rho, alpha)
            oracle = grid_min_quantum_qubit(rho, alpha, step_qu)
            assert abs(engine.final_x - oracle.min_value) <= _eps0(alpha) + 10 * step_qu

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok("08", f"oracle-agreement ({elapsed:.1f}s)")


def test_criterion_09_cc_reduction():
    rng = np.random.default_rng(109)
    for _ in range(20):
        pmf = random_pmf((2, 2), rng)
        for alpha in [0.75, 1.5]:
            cfg = AmConfig(alpha=alpha)
            classical = run_uncertified_classical(pmf, cfg, 40)
            quantum = run_uncertified(cc_embed(pmf), cfg, 40)
            assert np.max(np.abs(classical.x_values - quantum.x_values)) <= 1e-10
    _ok("09", "cc-reduction")


def test_criterion_10_contraction_probes():
    rng = np.random.default_rng(110)
    for _ in range(5):
        rho = random_state(2, 2, rng)
        for alpha in [1.5, 2.0]:
            report = contraction_probe(rho, alpha, 200, rng)
            assert report.max_ratio <= report.gamma + 1e-9

    for alpha in [0.6, 0.75, 1.5, 2.0, 4.0]:
        pmf = random_pmf((3, 3), rng)
        gamma = abs(1.0 - 1.0 / alpha)
        kappa = birkhoff_kappa_classical(pmf, alpha)
        for _ in range(200):
            q1, q2 = random_pmf(3, rng), random_pmf(3, rng)
            base = d_h_vec(q1, q2)
            if base < 1e-12:
                continue
            mapped = d_h_vec(
                n_x_to_y(pmf, q1, alpha).weights, n_x_to_y(pmf, q2, alpha).weights
            )
            assert mapped <= gamma * base + 1e-9
            assert mapped <= gamma * kappa * base + 1e-9
    _ok("10", "contraction-probes")


def test_criterion_11_invariant_suites():
    rng = np.random.default_rng(111)

    # Sibson residual, 100 instances per order
    for alpha in [0.6, 0.75, 0.9, 1.5, 2.0]:
        for _ in range(100):
            rho = random_state(2, 2, rng)
            sigma = random_density(2, rng)
            tau = random_density(2, rng)
            assert sibson_residual(rho, sigma, tau, alpha) <= 1e-8

    # Renyi Pinsker on 100 pairs per order
    for alpha in [0.5, 0.6, 0.75, 0.9]:
        for _ in range(100):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            diff = HermitianOperator.from_entries(
                power_on_support(rho, alpha).entries - power_on_support(sigma, alpha).entries
            )
            lhs = (1 - alpha) / (4 * alpha) * schatten_norm(diff, 1 / alpha) ** 2
            assert lhs <= 1.0 - q_alpha(rho, sigma, alpha) + 1e-9

    # Projective metric: scale invariance, symmetry, tensor additivity
    for _ in range(20):
        x, y = random_density(3, rng), random_density(3, rng)
        ax = HermitianOperator.from_entries(2.5 * x.entries)
        by = HermitianOperator.from_entries(0.3 * y.entries)
        assert d_h(ax, by) == pytest.approx(d_h(x, y), abs=1e-12)
        assert d_h(x, y) == pytest.approx(d_h(y, x), abs=1e-12)
        xa, ya = random_density(2, rng), random_density(2, rng)
        xb, yb = random_density(2, rng), random_density(2, rng)
        assert tensor_additivity_residual(xa, ya, xb, yb) <= 1e-9

    # Power contraction for |r| <= 1
    for r in [-1.0, -0.5, 0.5, 1.0]:
        for _ in range(10):
            x, y = random_density(3, rng), random_density(3, rng)
            assert d_h(power_on_support(x, r), power_on_support(y, r)) <= abs(r) * d_h(x, y) + 1e-9

    # Inverse-power dominance ratios stay above one (quantum and classical)
    for alpha in [1.1, 1.5, 2.0]:
        for _ in range(10):
            s, t = random_density(3, rng), random_density(3, rng)
            assert m_ratio(power_on_support(s, 1 - alpha), power_on_support(t, 1 - alpha)) >= 1 - 1e-10
    for alpha in [0.6, 2.0]:
        for _ in range(10):
            q = random_pmf(4, rng)
            r = random_pmf(4, rng)
            assert m_ratio_vec(q ** (1 - alpha), r ** (1 - alpha)) >= 1 - 1e-12

    # Spectrum floors along certified-range runs
    for alpha in [0.6, 0.75, 1.5, 2.0]:
        for _ in range(3):
            rho = random_state(2, 2, rng)
            sigma0 = random_density(2, rng)
            c_a, c_b = spectrum_floors(rho, sigma0, alpha)
            trace = run_uncertified(
                rho, AmConfig(alpha=alpha, init=sigma0, record_states=True), 40
            )
            for n, (sig, tau) in enumerate(zip(trace.sigma_states, trace.tau_states)):
                if alpha < 1 or n >= 1:
                    assert np.min(np.linalg.eigvalsh(sig.entries)) >= c_a - 1e-12
                assert np.min(np.linalg.eigvalsh(tau.entries)) >= c_b - 1e-12
    _ok("11", "invariant-suites")


def test_criterion_12_sublinear_hand_constant():
    consts = sublinear_constants(
        uniform_state(2, 2), HermitianOperator.from_entries(np.eye(2) / 2), 0.75
    )
    assert consts.c0 == pytest.approx(4 * math.sqrt(5), abs=1e-9)
    _ok("12", "sublinear-hand-constant")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the 2*log(2) target presumes q0 = tr[rho^2 (sigma x tau)] = 1/16, but the "
        "defining trace term is q0 = tr[rho^2 (sigma x tau)^(-1)] = 1 for this input "
        "(the same quantity the q-functional self-test pins to 1), giving c0 = 3*log(2)"
    ),
)
def test_criterion_12_linear_hand_constant_as_stated():
    consts = linear_constants(
        uniform_state(2, 2), HermitianOperator.from_entries(np.eye(2) / 2), 2.0
    )
    print("ACCEPTANCE 12 linear-hand-constant-as-stated: FAIL (documented discrepancy)")
    assert consts.c0 == pytest.approx(2 * math.log(2), abs=1e-12)


def test_criterion_12_linear_hand_constant_computed():
    consts = linear_constants(
        uniform_state(2, 2), HermitianOperator.from_entries(np.eye(2) / 2), 2.0
    )
    assert consts.lambda_a == pytest.approx(0.125, abs=1e-15)
    assert consts.q0 == pytest.approx(1.0, abs=1e-12)
    assert consts.c_a == pytest.approx(math.sqrt(0.125), abs=1e-13)
    assert consts.c0 == pytest.approx(3 * math.log(2), abs=1e-12)
    _ok("12", "linear-hand-constant-computed")

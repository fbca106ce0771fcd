"""Brute-force reference minimizers for validating the engine at desk scale.

The oracles grid both product factors exhaustively and never touch the
iteration maps, so a bug there cannot leak in here.  Objective evaluations
are reduced to a bilinear form over precomputed grid coordinates and streamed
through the scan kernels: the classical oracle runs the exact pruned pair
scan, and the qubit oracle a separable scan that replaces the all-pairs
search with one row maximum over Bloch directions (see
``grid_min_quantum_qubit``).  Both return the minimum over every pair of
grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _scan
from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    SupportCutoff,
)
from .petz_divergence import _rho_alpha_tensor

_PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


class TooLarge(Exception):
    """Input exceeds the desk-scale limits of the brute-force oracle."""


@dataclass(frozen=True)
class OracleResult:
    """Grid minimum of the divergence over product states.

    ``argmin_params`` concatenates the grid parameters of the two factors:
    the two PMFs for ``grid_min_classical``, and the Bloch parameters
    ``(r, theta, phi)`` of sigma then tau for ``grid_min_quantum_qubit``.
    ``evaluations`` counts the dot products the scan computed.  For
    ``grid_min_classical`` it is the number of (q, r) grid pairs evaluated:
    the product of the two grid sizes less the pairs pruning skipped.  For
    ``grid_min_quantum_qubit`` on an N-point grid with n radii and (n+1)·n
    directions it is N·((n+1)·n + n): one product per (sigma, direction)
    pair plus one per (sigma, radius) pair.
    """

    min_value: float
    argmin_params: np.ndarray
    grid_step: float
    evaluations: int


def _check_step(step: float) -> None:
    if not 0.0 < step <= 0.1:
        raise ValueError(f"step must lie in (0, 0.1], got {step}")


def _divergence_from_trace_term(s_best: float, alpha: float) -> float:
    """Map the extremal trace term to the divergence value.

    The minimum over product states is nonnegative, so tiny negative values
    produced by float32 evaluation noise are clamped to zero.
    """
    if s_best <= 0:
        return math.inf
    return max(math.log(s_best) / (alpha - 1.0), 0.0)


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All barycentric grid points of the (k-1)-simplex with spacing ``step``.

    Coordinates are integer multiples of ``step``; refining the step by an
    integer factor yields a superset with bit-identical common points.
    """
    _check_step(step)
    m = round(1.0 / step)
    if k == 1:
        counts = np.array([[m]])
    elif k == 2:
        i = np.arange(m + 1)
        counts = np.stack([i, m - i], axis=1)
    elif k == 3:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        counts = np.stack([i[keep], j[keep], m - i[keep] - j[keep]], axis=1)
    else:
        raise TooLarge(f"simplex grid supports at most 3 outcomes, got {k}")
    return counts.astype(np.float64) * step


def _classical_coords(grid: np.ndarray, active: np.ndarray, alpha: float):
    """Per-point coordinates g^(1-alpha) with zeros outside the active support.

    For alpha > 1 grid points with a zero on the active support are invalid
    (the objective is +inf there) and are dropped; the returned index map
    recovers original grid rows.
    """
    if alpha > 1:
        valid = np.all(grid[:, active] > 0, axis=1)
    else:
        valid = np.ones(len(grid), dtype=bool)
    g = grid[valid]
    coords = np.zeros_like(g)
    nz = g > 0
    coords[nz] = g[nz] ** (1.0 - alpha)
    coords[:, ~active] = 0.0
    return coords, np.flatnonzero(valid)


def grid_min_classical(p_xy, alpha: float, step: float) -> OracleResult:
    """Exhaustive grid minimum of the classical divergence over product PMFs."""
    from .classical_rmi import _as_array

    P = _as_array(p_xy)
    nx, ny = P.shape
    if nx > 3 or ny > 3:
        raise TooLarge(f"classical oracle limited to 3x3, got {nx}x{ny}")
    _check_step(step)
    if not alpha > 0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and not 1, got {alpha}")

    wa = np.zeros_like(P)
    wa[P > 0] = P[P > 0] ** alpha
    active_x = P.sum(axis=1) > 0
    active_y = P.sum(axis=0) > 0

    q_grid = simplex_grid(nx, step)
    r_grid = simplex_grid(ny, step)
    u, q_idx = _classical_coords(q_grid, active_x, alpha)
    v, r_idx = _classical_coords(r_grid, active_y, alpha)
    c = v @ wa.T  # S_ij = sum_x u[i, x] * c[j, x]

    want_max = alpha < 1  # D = log(S)/(alpha-1): maximize S below 1, minimize above
    s_best, i, j, evaluated = _scan.pruned_pair_scan(u, c, want_max)
    value = _divergence_from_trace_term(s_best, alpha)
    params = np.concatenate([q_grid[q_idx[i]], r_grid[r_idx[j]]])
    return OracleResult(
        min_value=value, argmin_params=params, grid_step=step, evaluations=evaluated
    )


def _bloch_grid(step: float) -> np.ndarray:
    """(r, theta, phi) product grid: radii are multiples of step below 1.

    The radius is the slowest axis, so each radius holds one contiguous block
    of (n+1)·n directions in the same order.
    """
    n = round(1.0 / step)
    r = np.arange(n) * step
    theta = np.arange(n + 1) * (math.pi * step)
    phi = np.arange(n) * (2.0 * math.pi * step)
    rr, tt, pp = np.meshgrid(r, theta, phi, indexing="ij")
    return np.stack([rr.ravel(), tt.ravel(), pp.ravel()], axis=1)


def _bloch_radial(r: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Half sum and half difference of the eigenvalue powers ((1 ± r)/2)^p."""
    fp = ((1.0 + r) / 2.0) ** p
    fm = ((1.0 - r) / 2.0) ** p
    return (fp + fm) / 2.0, (fp - fm) / 2.0


def _bloch_directions(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors for polar angles theta and azimuths phi."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )


def _bloch_power_coords(params: np.ndarray, p: float) -> np.ndarray:
    """Pauli coordinates of sigma^p for sigma with Bloch parameters (r, theta, phi)."""
    half_sum, half_diff = _bloch_radial(params[:, 0], p)
    n = _bloch_directions(params[:, 1], params[:, 2])
    return np.column_stack([half_sum, n * half_diff[:, None]])


def grid_min_quantum_qubit(
    rho_ab: BipartiteState,
    alpha: float,
    step: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> OracleResult:
    """Exact Bloch-grid minimum of the divergence over qubit product states.

    Both factors range over the Bloch-ball grid of ``_bloch_grid`` (N points:
    n radii strictly below one, so every grid state is full rank, times
    (n+1)·n directions).  In Pauli coordinates the trace term is the bilinear
    form S_ij = w_i · v_j with w = u g, where u_i are the coordinates of
    sigma_i^(1-alpha), g pairs rho^alpha with Pauli products, and
    v_j = (hs_k, hd_k n) for tau_j at radius k and direction n.  The
    half difference hd_k = (lam_+^p - lam_-^p)/2 with p = 1 - alpha has the
    sign of 1 - alpha, and S is maximized below order one and minimized above
    it, so in both cases the best tau at radius k takes the direction that
    maximizes w_i[1:] · n.  The scan therefore needs one row maximum over the
    directions per sigma (float32, N·(n+1)·n products), a float64 pass over
    the N·n (sigma, radius) pairs, and one float64 row to recover the
    direction; S at the chosen pair is then evaluated in float64.  The result
    is the minimum over all N² grid pairs, up to the float32 rounding of the
    direction maxima when two candidates nearly tie.
    ``evaluations`` is N·((n+1)·n + n).
    """
    if rho_ab.d_a != 2 or rho_ab.d_b != 2:
        raise TooLarge("quantum oracle limited to two qubits")
    _check_step(step)
    if not alpha > 0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and not 1, got {alpha}")

    ra = _rho_alpha_tensor(rho_ab, alpha, cut).reshape(4, 4)
    g = np.empty((4, 4))
    for k in range(4):
        for l in range(4):
            g[k, l] = float(np.trace(ra @ np.kron(_PAULIS[k], _PAULIS[l])).real)

    p = 1.0 - alpha
    params = _bloch_grid(step)
    n_dirs = len(params) // round(1.0 / step)
    half_sum, half_diff = _bloch_radial(params[::n_dirs, 0], p)
    dirs = _bloch_directions(params[:n_dirs, 1], params[:n_dirs, 2])
    w = _bloch_power_coords(params, p) @ g  # S_ij = w_i · (coordinates of tau_j^p)

    # D = log(S)/(alpha-1): maximize S below 1, minimize above.  Either way the
    # best direction maximizes w_i[1:] · n, as half_diff has the sign of 1 - alpha.
    e = _scan.row_extremes(w[:, 1:], dirs, want_max=True).astype(np.float64)
    per_radius = np.outer(w[:, 0], half_sum) + np.outer(e, half_diff)
    flat = int(np.argmax(per_radius) if alpha < 1 else np.argmin(per_radius))
    i, k = divmod(flat, half_sum.size)
    j = k * n_dirs + int(np.argmax(dirs @ w[i, 1:]))
    s_best = float(w[i] @ _bloch_power_coords(params[j : j + 1], p)[0])
    value = _divergence_from_trace_term(s_best, alpha)
    return OracleResult(
        min_value=value,
        argmin_params=np.concatenate([params[i], params[j]]),
        grid_step=step,
        evaluations=len(params) * (n_dirs + half_sum.size),
    )


def _entropy(op_entries: np.ndarray) -> float:
    w = np.linalg.eigvalsh(op_entries)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


def kl_reference(rho_ab: BipartiteState) -> float:
    """Mutual information tr[rho (log rho - log rho_A ⊗ rho_B)].

    Continuity reference for orders near one; computed as the entropy
    combination H(A) + H(B) - H(AB), which handles rank deficiency cleanly.
    """
    ha = _entropy(rho_ab.marginal_a().entries)
    hb = _entropy(rho_ab.marginal_b().entries)
    hab = _entropy(rho_ab.op.entries)
    return ha + hb - hab

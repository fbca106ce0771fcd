"""Brute-force reference minimizers for validating the engine at desk scale.

The oracles grid both product factors and never touch the iteration maps, so
a bug there cannot leak in here.  Both return the minimum over every pair of
grid points without visiting every pair:

- ``grid_min_classical`` fixes the first PMF q at each of its grid points.
  The trace term is then separable and convex in the lattice counts of the
  second PMF, so an exact per-point search by one-unit transfers between
  coordinates finds its grid optimum.  Its grid step must be 1/m for an
  integer m, so that every grid point is a PMF.  The integer lattice of
  each (outcomes, m) is built once and shared read-only between calls;
  above order one the q points with no zero on the support are built
  directly, as a smaller lattice shifted up by one on the support rows.
- ``grid_min_quantum_qubit`` fixes sigma at each of its grid points.  The
  best tau direction at every radius then maximizes one linear function on
  the unit sphere.  Along each grid axis that function is a unimodal
  cosine, so its grid maximum is one of four directions found in closed
  form from the grid angles bracketing its maximizer, and one table over
  (sigma, tau radius) pairs is left.

Every reported minimum is evaluated in float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    DEFAULT_CUT,
    BipartiteState,
    SupportCutoff,
    support_mask,
)
from .petz_divergence import _check_alpha, _rho_alpha_tensor

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class TooLarge(Exception):
    """Input exceeds the desk-scale limits of the brute-force oracle."""


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Grid minimum of the divergence over product states.

    ``argmin_params`` concatenates the grid parameters of the two factors:
    the two PMFs for ``grid_min_classical``, and the Bloch parameters
    ``(r, theta, phi)`` of sigma then tau for ``grid_min_quantum_qubit``.
    ``evaluations`` counts the work the search did.  For
    ``grid_min_classical`` it is the number of transfer-optimality checks:
    one per q grid point (above order one, only the points with no zero on
    the support) plus one more for each pass in which that point still moved
    a unit.  With a one-column support it is the number of q grid points.  For
    ``grid_min_quantum_qubit`` on an N-point grid with n radii and (n+1)·n
    directions it is N·(6 + n): per sigma, two candidate azimuths and four
    candidate directions for the tau direction, then one product per
    (sigma, radius) pair.

    Results have slots and no per-instance dict, since a validation loop may
    hold many of them at once.
    """

    min_value: float
    argmin_params: np.ndarray
    grid_step: float
    evaluations: int


def _check_step(step: float) -> None:
    if not 0.0 < step <= 0.1:
        raise ValueError(f"step must lie in (0, 0.1], got {step}")


def _simplex_size(step: float) -> int:
    """The lattice sum m = 1/step of a simplex grid, which must be an integer.

    Grid coordinates are lattice counts times ``step``, with the counts
    summing to m, so for any other step the points sum to m·step, not one.
    """
    _check_step(step)
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError(f"simplex grid step must be 1/m for an integer m, got {step}")
    return m


def _divergence_from_trace_term(s_best: float, alpha: float) -> float:
    """Map the extremal trace term to the divergence value.

    The divergence is nonnegative, but where a grid pair reproduces the
    minimizer exactly (a product PMF, say) rounding can leave S a few ulp on
    the wrong side of one; the value is then clamped to zero.
    """
    if s_best <= 0:
        return math.inf
    return max(math.log(s_best) / (alpha - 1.0), 0.0)


@functools.lru_cache(maxsize=8)
def _simplex_counts(k: int, m: int) -> np.ndarray:
    """Integer points of {n in N^k : sum n = m}, one column each, as a read-only (k, N) array.

    Columns run with the first count slowest and the second next, which is
    lexicographic order, so adding one vector to every column keeps it.
    The array depends on (k, m) alone, so it is built once and shared by
    every caller; the 8 most recently used lattices are kept.  The largest
    this module builds, three outcomes at m = 1000 (step 1e-3), is
    501501 x 3 int64, about 12 MB, so the cache holds at most about 96 MB.
    """
    if k == 1:
        counts = np.array([[m]])
    elif k == 2:
        i = np.arange(m + 1)
        counts = np.stack([i, m - i])
    elif k == 3:
        lengths = np.arange(m + 1, 0, -1)  # first count i leaves m - i + 1 choices
        i = np.repeat(np.arange(m + 1), lengths)
        j = np.arange(i.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        counts = np.stack([i, j, m - i - j])
    else:
        raise TooLarge(f"simplex grid supports at most 3 outcomes, got {k}")
    counts.flags.writeable = False
    return counts


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All barycentric grid points of the (k-1)-simplex with spacing ``step``.

    Coordinates are integer multiples of ``step``, which must be 1/m for an
    integer m; refining the step by an integer factor yields a superset with
    bit-identical common points.  The returned array is a fresh copy.
    """
    return _simplex_counts(k, _simplex_size(step)).T.astype(np.float64, order="C") * step


def _grid_powers(alpha: float, step: float) -> np.ndarray:
    """g[n] = (n·step)^(1-alpha) for the counts n = 0..1/step of one coordinate.

    These are the powers of the ``simplex_grid`` coordinates.  g[0] is set
    to 0 at every order; above order one a zero count is never looked up.
    """
    counts = np.arange(1, round(1.0 / step) + 1).astype(np.float64)
    return np.concatenate([[0.0], (counts * step) ** (1.0 - alpha)])


def _argmax_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row index of each column's maximum, and that maximum, for a (n, L) array.

    n is at most four here; comparing whole rows is several times faster
    than ``np.argmax(a, axis=0)`` over so short an axis.
    """
    best = a.max(axis=0)
    idx = np.full(a.shape[1], a.shape[0] - 1)
    for y in range(a.shape[0] - 2, -1, -1):
        idx = np.where(a[y] == best, y, idx)
    return idx, best


def _warm_start(c: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """Lattice counts summing to m near the continuous optimum r ∝ c^(1/alpha).

    Counts are rounded to nearest and the sum is corrected by one unit where
    needed; above order one every zero count is then lifted to one, the unit
    coming from the largest count of its column.
    """
    n = c.shape[0]
    w = c ** (1.0 / alpha)
    tot = w.sum(axis=0)
    x = m * np.divide(w, tot, out=np.full_like(w, 1.0 / n), where=tot > 0)
    k = np.rint(x).astype(np.int64)
    short = m - k.sum(axis=0)  # -1, 0 or 1 for at most three coordinates
    k[_argmax_rows((x - k) * short)[0], np.arange(k.shape[1])] += short
    if alpha > 1:
        for y in range(n):
            zero = np.flatnonzero(k[y] == 0)
            k[y, zero] = 1
            k[_argmax_rows(np.take(k, zero, axis=1))[0], zero] -= 1
    return k


def _transfer_search(c: np.ndarray, alpha: float, g: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact lattice optimum of each column of c, and the number of column checks.

    Column l of the (n, L) array c >= 0 is one problem: minimize
    sign · sum_y c[y, l] g[k_y] over counts k_y >= 0 summing to m, where g
    is the ``_grid_powers`` table of m + 1 entries.  Below order one
    sign = -1 (S is maximized) and g(0) = 0; above it sign = +1 and
    g(0) = +inf, so every count stays at least one.  Each term is convex in
    its count, so a point that no one-unit transfer between two coordinates
    improves is a global minimum (exchange optimality of M-convex functions,
    Murota, Discrete Convex Analysis, Thm 6.26).  Every pass applies the
    steepest strictly improving transfer to each column that still has one;
    a column leaves once none does, and only such certified columns are
    returned.  Marginal costs are read from one table of grid differences,
    whose convexity is checked first.
    """
    n, L = c.shape
    m = g.size - 1
    k = _warm_start(c, alpha, m)
    if n == 1:
        return k, L
    lo = 1 if alpha > 1 else 0  # smallest allowed count
    cost = np.diff(g) if alpha > 1 else -np.diff(g)  # cost[k]: from count k to k + 1
    if np.any(np.diff(cost[lo:]) < 0):
        raise ArithmeticError(
            f"grid differences at alpha={alpha}, step 1/{m} are not convex in float64"
        )
    pad = np.concatenate([[0.0], cost, [0.0]])  # pad[k + 1] = cost[k]
    live = np.arange(L)
    checks = 0
    for _ in range(n * m):
        if live.size == 0:
            return k, checks
        checks += live.size
        if live.size == L:  # every column: read k and c in place
            kk, cc = k, c
        else:
            kk, cc = np.take(k, live, axis=1), np.take(c, live, axis=1)
        up = cc * pad[kk + 1]
        up[kk == m] = np.inf
        down = cc * pad[kk]
        down[kk <= lo] = -np.inf
        i, saving = _argmax_rows(down)
        j, neg_cost = _argmax_rows(-up)
        better = saving > -neg_cost  # implies i != j, as cost is nondecreasing
        live = live[better]
        k[i[better], live] -= 1
        k[j[better], live] += 1
    raise ArithmeticError(f"transfer search did not settle within {n * m} passes")


def grid_min_classical(p_xy, alpha: float, step: float) -> OracleResult:
    """Exact grid minimum of the classical divergence over product PMFs.

    For a fixed grid PMF q the trace term S = sum_y c_y r_y^(1-alpha), with
    c_y = sum_x q_x^(1-alpha) P_xy^alpha, is separable in r.  Each point of
    the q grid is solved exactly over the r grid by ``_transfer_search``,
    and the best q point is taken.  The search runs on the columns of P's
    support only: r mass off it adds nothing to S, and moving it onto the
    support never lowers S below order one nor raises it above, so some
    grid optimum puts none there.  Above order one S is +inf where q
    vanishes on P's row support, so the q grid is only the points with a
    count of at least one on each support row: the lattice of m − |supp|
    shifted up by one on those rows, in the full lattice's column order.
    ``step`` must be 1/m for an integer m, else ``ValueError``.  Raw weights
    are validated as a ``JointPmf``.  An order at which P^alpha on the
    support or the grid powers are not finite and positive in float64 also
    raises ``ValueError``, before the search.
    """
    from .classical_rmi import _validated_joint

    P = _validated_joint(p_xy)
    nx, ny = P.shape
    if nx > 3 or ny > 3:
        raise TooLarge(f"classical oracle limited to 3x3, got {nx}x{ny}")
    m = _simplex_size(step)
    _check_alpha(alpha)

    on = P > 0
    powered = P[on] ** alpha
    # P <= 1, so P^alpha can only underflow; the grid powers are monotone in
    # the count, between step^(1-alpha) and 1, and a Python float power
    # raises OverflowError where numpy's would warn and give inf.
    try:
        in_range = powered.min() > 0.0 and float(step) ** (1.0 - float(alpha)) < math.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(
            f"alpha={alpha:g}: P^alpha on the support or the grid powers (n*step)^(1-alpha) "
            "are not finite and positive in float64"
        )
    wa = np.zeros_like(P)
    wa[on] = powered
    active_x = P.sum(axis=1) > 0
    active_y = P.sum(axis=0) > 0
    g = _grid_powers(alpha, step)

    if alpha > 1:
        q = _simplex_counts(nx, m - int(active_x.sum())) + active_x[:, None]
    else:
        q = _simplex_counts(nx, m)
    # one row per support column, C order: the search reduces over that short axis
    c = np.ascontiguousarray(wa[active_x][:, active_y].T @ g[q[active_x]])
    k, checks = _transfer_search(c, alpha, g)

    s = np.einsum("yl,yl->l", c, g[k])
    i = int(np.argmax(s) if alpha < 1 else np.argmin(s))
    r = np.zeros(ny)
    r[active_y] = k[:, i] * step
    return OracleResult(
        min_value=_divergence_from_trace_term(float(s[i]), alpha),
        argmin_params=np.concatenate([q[:, i] * step, r]),
        grid_step=step,
        evaluations=checks,
    )


def _bloch_axes(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii, polar angles and azimuths of the Bloch grid, with n = round(1/step).

    The n radii k·step lie below one, the n + 1 polar angles are a·π·step and
    the n azimuths b·2π·step.  When 1/step is not an integer the polar angles
    end short of π or just past it, and the gap from the last azimuth to 2π
    differs from the others.
    """
    n = round(1.0 / step)
    return (
        np.arange(n) * step,
        np.arange(n + 1) * (math.pi * step),
        np.arange(n) * (2.0 * math.pi * step),
    )


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


def _azimuth_bracket(angle: np.ndarray, step: float) -> np.ndarray:
    """The grid azimuths on either side of each angle in [0, 2π], as (2, N) indices.

    Past the last azimuth the bracket wraps to index 0, the azimuth 2π.
    """
    n = round(1.0 / step)
    b = np.minimum(np.floor(angle / (2.0 * math.pi * step)).astype(np.intp), n - 1)
    return np.stack([b, (b + 1) % n])


def _best_directions(v: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """For each column of v (3, N): the grid direction maximizing v · n, and that maximum.

    The direction is returned as its index a·n + b among the (n+1)·n grid
    directions n(theta_a, phi_b) = (sin theta cos phi, sin theta sin phi,
    cos theta).  Since v · n = sin theta · |v_xy| cos(phi − phi_v) + v_z cos theta:

    - where sin theta >= 0 the best azimuth maximizes cos(phi − phi_v), which
      falls with the distance from phi_v around the circle, so it is one of
      the two grid azimuths bracketing phi_v;
    - with A the larger of v_x cos phi + v_y sin phi at those two, the
      objective in theta is A sin theta + v_z cos theta, a cosine peaking at
      atan2(A, v_z) in [0, π], so the best polar angle up to π is one of the
      two grid angles bracketing that peak, clipped to the grid;
    - only the last polar angle can pass π (when 1/step rounds up); there
      sin theta < 0 and the best azimuth brackets phi_v + π instead.

    The maximum over all (n+1)·n directions is therefore the largest of four
    candidates, each evaluated in float64.  The brackets use the grid's own
    spacings, π·step and 2π·step.  Rounding can shift a bracket by one index
    only where the angle sits on a grid angle, which both brackets then hold.
    """
    _, theta, phi = _bloch_axes(step)
    n = phi.size
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    v_x, v_y, v_z = v
    phi_v = np.arctan2(v_y, v_x)  # in [-π, π]

    def lift(b: np.ndarray) -> np.ndarray:
        """v_x cos phi + v_y sin phi at the azimuth indices b."""
        return v_x * cos_p[b] + v_y * sin_p[b]

    b = _azimuth_bracket(np.where(phi_v < 0, phi_v + 2.0 * math.pi, phi_v), step)
    c = lift(b)
    better = c[1] > c[0]
    lifted = np.where(better, c[1], c[0])
    # lifted >= 0 up to rounding; a +0.0 floor keeps the peak in [0, π]
    peak = np.arctan2(np.where(lifted > 0, lifted, 0.0), v_z)
    a = np.minimum(np.floor(peak / (math.pi * step)).astype(np.intp), n)
    a = np.stack([a, np.minimum(a + 1, n)])
    south = _azimuth_bracket(phi_v + math.pi, step)
    vals = np.concatenate(
        [
            lifted * np.sin(theta)[a] + v_z * np.cos(theta)[a],
            math.sin(theta[n]) * lift(south) + v_z * math.cos(theta[n]),
        ]
    )
    cand = np.concatenate([a * n + np.where(better, b[1], b[0]), n * n + south])
    pick, best = _argmax_rows(vals)
    return cand[pick, np.arange(v.shape[1])], best


def grid_min_quantum_qubit(
    rho_ab: BipartiteState,
    alpha: float,
    step: float,
    cut: SupportCutoff = DEFAULT_CUT,
) -> OracleResult:
    """Exact Bloch-grid minimum of the divergence over qubit product states.

    Both factors range over the Bloch-ball product grid of ``_bloch_axes``
    (N points: n radii strictly below one, so every grid state is full rank,
    times (n+1)·n directions).  In Pauli coordinates the trace term is the bilinear
    form S_ij = w_i · v_j with w = u g, where u_i are the coordinates of
    sigma_i^(1-alpha), g pairs rho^alpha with Pauli products, and
    v_j = (hs_k, hd_k n) for tau_j at radius k and direction n.  The
    half difference hd_k = (lam_+^p - lam_-^p)/2 with p = 1 - alpha has the
    sign of 1 - alpha, and S is maximized below order one and minimized above
    it, so in both cases the best tau at radius k takes the direction that
    maximizes w_i[1:] · n.  That maximum has a closed form over the grid
    (``_best_directions``, four candidate directions per sigma), so what is
    left is one float64 table over the N·n (sigma, radius) pairs, whose
    extreme is the minimum over all N² grid pairs.  ``evaluations`` is
    N·(6 + n).
    """
    if rho_ab.d_a != 2 or rho_ab.d_b != 2:
        raise TooLarge("quantum oracle limited to two qubits")
    _check_step(step)
    _check_alpha(alpha)

    # g_kl = tr[rho^alpha (P_k ⊗ P_l)]
    g = np.einsum("abcd,kca,ldb->kl", _rho_alpha_tensor(rho_ab, alpha, cut), _PAULIS, _PAULIS).real
    radii, theta, phi = _bloch_axes(step)
    n = radii.size
    half_sum, half_diff = _bloch_radial(radii, 1.0 - alpha)
    dirs = _bloch_directions(np.repeat(theta, n), np.tile(phi, n + 1))
    # sigma^(1-alpha) at radius k and direction n has Pauli coordinates (hs_k, hd_k n);
    # w holds one column per grid sigma: radius slowest, then polar angle, then azimuth
    w = g[0][:, None, None] * half_sum[:, None] + (g[1:].T @ dirs.T)[:, None] * half_diff[:, None]
    w = w.reshape(4, -1)

    # D = log(S)/(alpha-1): maximize S below 1, minimize above.  Either way the
    # best direction maximizes w_i[1:] · n, as half_diff has the sign of 1 - alpha.
    d, e = _best_directions(w[1:], step)
    per_radius = np.stack([w[0], e], axis=1) @ np.stack([half_sum, half_diff])
    flat = int(np.argmax(per_radius) if alpha < 1 else np.argmin(per_radius))
    i, k = divmod(flat, n)
    j = int(d[i])
    s_best = float(w[0, i] * half_sum[k] + half_diff[k] * (w[1:, i] @ dirs[j]))

    def point(radius: int, direction: int) -> list[float]:
        return [radii[radius], theta[direction // n], phi[direction % n]]

    return OracleResult(
        min_value=_divergence_from_trace_term(s_best, alpha),
        argmin_params=np.array(point(*divmod(i, dirs.shape[0])) + point(k, j)),
        grid_step=step,
        evaluations=w.shape[1] * (6 + n),
    )


def _entropy(w: np.ndarray) -> float:
    """Von Neumann entropy of an ascending spectrum, on its support (``support_mask``)."""
    w = w[support_mask(w, DEFAULT_CUT, top=float(w[-1]))]
    return float(-np.sum(w * np.log(w)))


def kl_reference(rho_ab: BipartiteState) -> float:
    """Mutual information tr[rho (log rho - log rho_A ⊗ rho_B)].

    Continuity reference for orders near one; computed as the entropy
    combination H(A) + H(B) - H(AB), which handles rank deficiency cleanly.
    The three spectra are the state's cached ones, each cut at the support
    rule, so a state whose caches are warm is not decomposed again.
    """
    ha = _entropy(rho_ab.marginal_spectrum[0])
    hb = _entropy(rho_ab._marginal_b_spectrum)
    hab = _entropy(rho_ab.spectrum[0])
    return ha + hb - hab

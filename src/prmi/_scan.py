"""Fused bilinear scan kernels backing the brute-force grid oracles.

The oracles reduce objective evaluations to dot products of at most four
terms, S_ij = sum_k A[i, k] * C[j, k]; these kernels stream over all pairs
and keep per-row extremes without materializing the n-by-m value matrix.
min/max reductions are order-independent, so results do not depend on the
thread schedule.  For nonnegative A an exact branch-and-prune scan skips rows whose
best possible value provably cannot beat the incumbent.
"""

from __future__ import annotations

import numpy as np

# Read only by ``bench/layers.py`` (``scan_bytes_per_eval``); the numpy kernel
# is the only one.  Drop it with the bench's pair-scan names (ROADMAP item 6).
_HAVE_NUMBA = False

# Relative slack that makes pruning bounds safe against float32 evaluation
# noise (~5e-7 per dot product); pruned rows provably cannot beat the
# incumbent even as evaluated in float32.
_SAFETY = 1e-4

_BLOCK = 2048


def _as_f32_4(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float32)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if a.shape[1] > 4:
        raise ValueError("at most 4 coordinates supported")
    if a.shape[1] < 4:
        pad = np.zeros((a.shape[0], 4 - a.shape[1]), dtype=np.float32)
        a = np.hstack([a, pad])
    return np.ascontiguousarray(a)


def row_extremes(u: np.ndarray, c: np.ndarray, want_max: bool) -> np.ndarray:
    """Per-row min (or max) over j of sum_k u[i,k] c[j,k], float32.

    Rows are multiplied in blocks of at most 2^24 products, so the n-by-m
    value matrix is never held whole.
    """
    u, c = _as_f32_4(u), _as_f32_4(c)
    out = np.empty(u.shape[0], dtype=np.float32)
    reduce = np.max if want_max else np.min
    step = max(1, (1 << 24) // max(c.shape[0], 1))
    for lo in range(0, u.shape[0], step):
        hi = min(lo + step, u.shape[0])
        out[lo:hi] = reduce(u[lo:hi] @ c.T, axis=1)
    return out


def _argmin_in_row(u_row: np.ndarray, c: np.ndarray, want_max: bool) -> tuple[float, int]:
    vals = c @ u_row
    j = int(np.argmax(vals)) if want_max else int(np.argmin(vals))
    return float(vals[j]), j


def pair_scan(
    u: np.ndarray, c: np.ndarray, want_max: bool
) -> tuple[float, int, int, int]:
    """Exhaustive extreme of the bilinear form over all (i, j) pairs.

    Returns (value, argmin_i, argmin_j, pair_evaluations).
    """
    u4 = _as_f32_4(u)
    c4 = _as_f32_4(c)
    per_row = row_extremes(u4, c4, want_max)
    i = int(np.argmax(per_row)) if want_max else int(np.argmin(per_row))
    val, j = _argmin_in_row(u4[i].astype(np.float64), c4.astype(np.float64), want_max)
    return float(per_row[i]), i, j, u4.shape[0] * c4.shape[0]


def _safe(bound: np.ndarray, want_max: bool) -> np.ndarray:
    slack = _SAFETY * np.abs(bound) + 1e-300
    return bound + slack if want_max else bound - slack


def pruned_pair_scan(
    u: np.ndarray, c: np.ndarray, want_max: bool
) -> tuple[float, int, int, int]:
    """Exact pair extreme for nonnegative u and c via safe alternating pruning.

    A pair (i, j) survives only while its one-sided bound (coordinates of the
    partner replaced by their column extremes) could still beat the incumbent;
    the bounds are valid because all coordinates are nonnegative, and they are
    padded against float32 evaluation noise, so the result equals the full
    scan's float32 extreme.  Row and column pruning alternate, each pass
    tightening the other side's bound, and the survivors are scanned in bound
    order with early exit.
    """
    u4 = _as_f32_4(u)
    c4 = _as_f32_4(c)
    if np.any(u4 < 0) or np.any(c4 < 0):
        raise ValueError("pruned scan requires nonnegative coordinates")
    u64 = u4.astype(np.float64)
    c64 = c4.astype(np.float64)
    n, m = u4.shape[0], c4.shape[0]
    better = np.greater if want_max else np.less

    def bound_beats(bound: np.ndarray, incumbent: float) -> np.ndarray:
        return better(_safe(bound, want_max), incumbent)

    # Seed the incumbent with the exact float32 row extremes of the rows whose
    # bound over the full grid is most promising.
    col_ext = c64.max(axis=0) if want_max else c64.min(axis=0)
    row_bound = u64 @ col_ext
    seed_count = min(n, 512)
    seed_rows = np.argpartition(-row_bound if want_max else row_bound, seed_count - 1)[
        :seed_count
    ]
    per_row = row_extremes(np.ascontiguousarray(u4[seed_rows]), c4, want_max)
    evaluated = seed_rows.size * m
    k = int(np.argmax(per_row)) if want_max else int(np.argmin(per_row))
    best = float(per_row[k])
    best_i = int(seed_rows[k])

    unseeded = np.ones(n, dtype=bool)
    unseeded[seed_rows] = False
    rows = np.flatnonzero(unseeded)
    cols = np.arange(m)
    for _ in range(3):
        if rows.size == 0 or cols.size == 0:
            break
        row_ext = (
            u64[rows].max(axis=0) if want_max else u64[rows].min(axis=0)
        )
        col_bound = c64[cols] @ row_ext
        cols = cols[bound_beats(col_bound, best)]
        if cols.size == 0:
            break
        col_ext = c64[cols].max(axis=0) if want_max else c64[cols].min(axis=0)
        row_bound_sub = u64[rows] @ col_ext
        keep = bound_beats(row_bound_sub, best)
        rows = rows[keep]
        if rows.size == 0:
            break

    if rows.size and cols.size:
        c_sub = np.ascontiguousarray(c4[cols])
        col_ext = c64[cols].max(axis=0) if want_max else c64[cols].min(axis=0)
        final_bound = _safe(u64[rows] @ col_ext, want_max)
        order = np.argsort(-final_bound if want_max else final_bound, kind="stable")
        for lo in range(0, rows.size, _BLOCK):
            chunk = order[lo : lo + _BLOCK]
            if not better(final_bound[chunk[0]], best):
                break
            viable = chunk[better(final_bound[chunk], best)]
            if viable.size == 0:
                continue
            sub_rows = rows[viable]
            per_row = row_extremes(np.ascontiguousarray(u4[sub_rows]), c_sub, want_max)
            evaluated += sub_rows.size * cols.size
            k = int(np.argmax(per_row)) if want_max else int(np.argmin(per_row))
            cand = float(per_row[k])
            if better(cand, best):
                best = cand
                best_i = int(sub_rows[k])
    _, best_j = _argmin_in_row(u64[best_i], c64, want_max)
    return best, best_i, best_j, evaluated

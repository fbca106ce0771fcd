"""Float32 row extremes of a bilinear form, kept only for the benchmark's layer probes.

``row_extremes`` reduces S_ij = sum_k A[i, k] * C[j, k], dot products of at
most four terms, to per-row extremes without materializing the n-by-m value
matrix.  No solve, CLI run or oracle calls this module: the qubit grid
oracle finds its best directions in closed form.  ``row_extremes``,
``pair_scan`` (the exhaustive pair extreme), its alias ``pruned_pair_scan``
and ``_HAVE_NUMBA`` stay only while ``bench/layers.py`` names them; once it
drops them the module can be deleted whole (ROADMAP items 4 and 6).
"""

from __future__ import annotations

import numpy as np

# Read only by ``bench/layers.py`` (``scan_bytes_per_eval``); the numpy kernel
# is the only one.  Drop it with the bench's pair-scan names (ROADMAP item 6).
_HAVE_NUMBA = False


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


def pair_scan(
    u: np.ndarray, c: np.ndarray, want_max: bool
) -> tuple[float, int, int, int]:
    """Exhaustive extreme of the bilinear form over all (i, j) pairs.

    Returns (value, argmin_i, argmin_j, pair_evaluations).
    """
    u4 = _as_f32_4(u)
    c4 = _as_f32_4(c)
    per_row = row_extremes(u4, c4, want_max)
    pick = np.argmax if want_max else np.argmin
    i = int(pick(per_row))
    j = int(pick(c4.astype(np.float64) @ u4[i].astype(np.float64)))
    return float(per_row[i]), i, j, u4.shape[0] * c4.shape[0]


def pruned_pair_scan(
    u: np.ndarray, c: np.ndarray, want_max: bool
) -> tuple[float, int, int, int]:
    """:func:`pair_scan`, under the name the benchmark's layer tracer still lists (ROADMAP item 6)."""
    return pair_scan(u, c, want_max)

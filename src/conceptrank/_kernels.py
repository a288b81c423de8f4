"""Numeric kernels shared by the graph and weight steps, in numpy.

Each is vectorized across rows or columns and exact up to rounding: the
projections sort once and solve their piecewise-linear threshold
equations on the sorted kinks, without iterating to a tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simplex_project_rows",
    "project_rows_nonneg_l1",
    "push_hinge_means",
    "colmax_ball_project",
]


def simplex_project_rows(V: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Project each row of V onto {a : a >= 0, sum(a) = total}.

    Sort-and-threshold Euclidean projection, vectorized across rows.
    """
    V = np.asarray(V, dtype=np.float64)
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - total
    ind = np.arange(1, V.shape[1] + 1)
    cond = U > css / ind
    rho = np.count_nonzero(cond, axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


def project_rows_nonneg_l1(V: np.ndarray, cap: float) -> np.ndarray:
    """Project each row of V onto {w : w >= 0, sum(w) <= cap}."""
    W = np.maximum(np.asarray(V, dtype=np.float64), 0.0)
    sums = W.sum(axis=1)
    over = sums > cap
    if np.any(over):
        W[over] = simplex_project_rows(W[over], cap)
        # float rounding can leave a row an ulp above the cap
        for _ in range(4):
            sums = W[over].sum(axis=1)
            bad = sums > cap
            if not np.any(bad):
                break
            rows = np.flatnonzero(over)[bad]
            W[rows] *= cap / W[rows].sum(axis=1, keepdims=True)
    return W


def push_hinge_means(f_pos: np.ndarray, f_neg: np.ndarray) -> np.ndarray:
    """Per-negative mean hinge (1 - (f_i - f_j))_+ averaged over positives."""
    H = np.maximum(1.0 - (f_pos[:, None] - f_neg[None, :]), 0.0)
    return H.sum(axis=0) / f_pos.shape[0]


def colmax_ball_project(V: np.ndarray, budget: float) -> np.ndarray:
    """Project onto {Z >= 0 : sum_j max_i Z_ij <= budget}.

    Column water levels t_j share a marginal value theta.  The total level
    is continuous, piecewise linear and nonincreasing in theta, with kinks
    at the column marginals and column sums; bisection over the sorted
    kinks finds the linear piece on which it meets the budget, and the
    crossing on that piece is exact.
    """
    Z = np.maximum(np.asarray(V, dtype=np.float64), 0.0)
    if Z.max(axis=0, initial=0.0).sum() <= budget:
        return Z
    U = -np.sort(-Z, axis=0)
    CS = np.cumsum(U, axis=0)
    p, q = U.shape
    counts = np.arange(p)[:, None]
    # H[k] = sum_i (u_i - u_k)_+ : the column marginal at level u_k, rising in k
    H = np.vstack([np.zeros((1, q)), CS[:-1]]) - counts * U
    cols = np.arange(q)

    def levels(theta: float) -> np.ndarray:
        K = np.maximum(np.sum(H < theta, axis=0), 1)
        return np.maximum((CS[K - 1, cols] - theta) / K, 0.0)

    kinks = np.unique(np.concatenate([[0.0], H.ravel(), CS[-1]]))
    lo, hi = 0, kinks.shape[0] - 1  # total(kinks[lo]) > budget >= total(kinks[hi])
    total_lo, total_hi = float(levels(kinks[lo]).sum()), 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        total = float(levels(kinks[mid]).sum())
        if total > budget:
            lo, total_lo = mid, total
        else:
            hi, total_hi = mid, total
    theta = kinks[lo] + (total_lo - budget) * (kinks[hi] - kinks[lo]) / (total_lo - total_hi)
    return np.minimum(Z, levels(theta)[None, :])

"""Numeric kernels shared by the graph and weight steps, in numpy.

Each is vectorized across rows and exact up to rounding: the
projections sort once and solve their piecewise-linear threshold
equations on the sorted kinks, without iterating to a tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simplex_project_rows",
    "project_rows_nonneg_l1",
    "push_hinge_means",
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

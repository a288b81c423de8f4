"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The active path is chosen at import time: numba, an optional dependency
(the ``numba`` extra), is used when it imports successfully, unless the
environment variable ``CONCEPTRANK_NUMBA`` is set to ``0``/``false``/``off``.
Both implementations are kept importable so tests can assert parity.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "simplex_project_rows",
    "project_rows_nonneg_l1",
    "push_hinge_means",
    "colmax_ball_project",
    "warmup",
]


def _numba_requested() -> bool:
    return os.environ.get("CONCEPTRANK_NUMBA", "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def simplex_project_rows_np(V: np.ndarray, total: float = 1.0) -> np.ndarray:
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


def project_rows_nonneg_l1_np(V: np.ndarray, cap: float) -> np.ndarray:
    """Project each row of V onto {w : w >= 0, sum(w) <= cap}."""
    W = np.maximum(np.asarray(V, dtype=np.float64), 0.0)
    sums = W.sum(axis=1)
    over = sums > cap
    if np.any(over):
        W[over] = simplex_project_rows_np(W[over], cap)
        # float rounding can leave a row an ulp above the cap
        for _ in range(4):
            sums = W[over].sum(axis=1)
            bad = sums > cap
            if not np.any(bad):
                break
            rows = np.flatnonzero(over)[bad]
            W[rows] *= cap / W[rows].sum(axis=1, keepdims=True)
    return W


def push_hinge_means_np(f_pos: np.ndarray, f_neg: np.ndarray) -> np.ndarray:
    """Per-negative mean hinge (1 - (f_i - f_j))_+ averaged over positives."""
    H = np.maximum(1.0 - (f_pos[:, None] - f_neg[None, :]), 0.0)
    return H.sum(axis=0) / f_pos.shape[0]


def colmax_ball_project_np(V: np.ndarray, budget: float) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

NUMBA_ENABLED = False
simplex_project_rows_nb = None
project_rows_nonneg_l1_nb = None
push_hinge_means_nb = None
colmax_ball_project_nb = None

if _numba_requested():
    try:
        from numba import njit

        @njit(cache=True)
        def _simplex_rows_impl(V, total):
            n, d = V.shape
            out = np.empty((n, d))
            for r in range(n):
                u = np.sort(V[r])[::-1]
                css = 0.0
                theta = 0.0
                for j in range(d):
                    css += u[j]
                    t = (css - total) / (j + 1)
                    if u[j] > t:
                        theta = t
                for j in range(d):
                    x = V[r, j] - theta
                    out[r, j] = x if x > 0.0 else 0.0
            return out

        @njit(cache=True)
        def _cap_rows_impl(V, cap):
            n, d = V.shape
            out = np.empty((n, d))
            for r in range(n):
                s = 0.0
                for j in range(d):
                    x = V[r, j]
                    x = x if x > 0.0 else 0.0
                    out[r, j] = x
                    s += x
                if s > cap:
                    u = np.sort(out[r])[::-1]
                    css = 0.0
                    theta = 0.0
                    for j in range(d):
                        css += u[j]
                        t = (css - cap) / (j + 1)
                        if u[j] > t:
                            theta = t
                    s = 0.0
                    for j in range(d):
                        x = out[r, j] - theta
                        x = x if x > 0.0 else 0.0
                        out[r, j] = x
                        s += x
                    for _ in range(4):
                        if s <= cap:
                            break
                        scale = cap / s
                        s = 0.0
                        for j in range(d):
                            out[r, j] *= scale
                            s += out[r, j]
            return out

        @njit(cache=True)
        def _push_means_impl(f_pos, f_neg):
            p = f_pos.shape[0]
            q = f_neg.shape[0]
            phi = np.zeros(q)
            for j in range(q):
                acc = 0.0
                for i in range(p):
                    h = 1.0 - (f_pos[i] - f_neg[j])
                    if h > 0.0:
                        acc += h
                phi[j] = acc / p
            return phi

        @njit(cache=True)
        def _colmax_levels(U, CS, theta, t):
            p, q = U.shape
            total = 0.0
            for j in range(q):
                K = 1
                for k in range(1, p):
                    if CS[k - 1, j] - k * U[k, j] < theta:
                        K = k + 1
                    else:
                        break
                tj = (CS[K - 1, j] - theta) / K
                if tj < 0.0:
                    tj = 0.0
                t[j] = tj
                total += tj
            return total

        @njit(cache=True)
        def _colmax_ball_impl(V, budget):
            p, q = V.shape
            Z = np.empty((p, q))
            total = 0.0
            for j in range(q):
                mx = 0.0
                for i in range(p):
                    x = V[i, j]
                    x = x if x > 0.0 else 0.0
                    Z[i, j] = x
                    if x > mx:
                        mx = x
                total += mx
            if total <= budget:
                return Z
            U = np.empty((p, q))
            CS = np.empty((p, q))
            hi = 0.0
            for j in range(q):
                col = np.sort(Z[:, j])[::-1]
                acc = 0.0
                for i in range(p):
                    U[i, j] = col[i]
                    acc += col[i]
                    CS[i, j] = acc
                if acc > hi:
                    hi = acc
            lo = 0.0
            t = np.empty(q)
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if _colmax_levels(U, CS, mid, t) > budget:
                    lo = mid
                else:
                    hi = mid
            _colmax_levels(U, CS, hi, t)
            for j in range(q):
                for i in range(p):
                    if Z[i, j] > t[j]:
                        Z[i, j] = t[j]
            return Z

        def simplex_project_rows_nb(V, total=1.0):
            return _simplex_rows_impl(
                np.ascontiguousarray(V, dtype=np.float64), float(total)
            )

        def project_rows_nonneg_l1_nb(V, cap):
            return _cap_rows_impl(
                np.ascontiguousarray(V, dtype=np.float64), float(cap)
            )

        def push_hinge_means_nb(f_pos, f_neg):
            return _push_means_impl(
                np.ascontiguousarray(f_pos, dtype=np.float64),
                np.ascontiguousarray(f_neg, dtype=np.float64),
            )

        def colmax_ball_project_nb(V, budget):
            return _colmax_ball_impl(
                np.ascontiguousarray(V, dtype=np.float64), float(budget)
            )

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


if NUMBA_ENABLED:
    simplex_project_rows = simplex_project_rows_nb
    project_rows_nonneg_l1 = project_rows_nonneg_l1_nb
    push_hinge_means = push_hinge_means_nb
    colmax_ball_project = colmax_ball_project_nb
else:
    simplex_project_rows = simplex_project_rows_np
    project_rows_nonneg_l1 = project_rows_nonneg_l1_np
    push_hinge_means = push_hinge_means_np
    colmax_ball_project = colmax_ball_project_np


def warmup() -> None:
    """Trigger JIT compilation of the active kernels on tiny inputs."""
    v = np.array([[0.3, -0.1, 0.5]])
    simplex_project_rows(v, 1.0)
    project_rows_nonneg_l1(v, 1.0)
    push_hinge_means(np.array([0.5, 1.0]), np.array([0.2]))
    colmax_ball_project(np.array([[1.5, 0.2], [0.3, 0.9]]), 1.0)

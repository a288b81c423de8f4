"""Adaptive neighbor probabilities from aggregated-score distances.

Each video row i gets a probability vector a_i over a fixed candidate
neighbor set, minimizing  sum_j d_ij a_ij + gamma_i sum_j a_ij^2  on the
probability simplex.  The minimizer is the Euclidean projection of
-d_i / (2 gamma_i) onto the simplex, so every row update is exact and in
closed form.  Rows are mutually independent given the score vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "NeighborMatrix",
    "update_neighbor_rows",
    "gamma_for_k",
    "candidate_neighbors",
]


@dataclass
class NeighborMatrix:
    """Row-stochastic neighbor probabilities over per-row candidate sets.

    ``candidates[i]`` lists the columns row i may assign mass to (never
    including i itself); ``probs[i]`` are the matching probabilities and
    sum to 1.  ``gamma[i]`` is the row regularizer used to produce it.
    """

    candidates: np.ndarray  # (n, k_cand) int
    probs: np.ndarray  # (n, k_cand) float, rows sum to 1
    gamma: np.ndarray  # (n,) float, > 0

    @property
    def n_rows(self) -> int:
        return self.candidates.shape[0]


def update_neighbor_rows(D: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Closed-form row minimizers for a (n, k_cand) distance matrix: row i
    is the simplex projection of -D[i] / (2 gamma[i]).

    The projection ignores a constant added to a row, so row i projects
    -(D[i] - min D[i]) / (2 gamma[i]), which is exact: a row whose
    distances lie far above its gamma keeps the digits of their
    differences, and stays stochastic.  All-zero distances give the
    uniform vector (the analytic limit), and gamma -> infinity approaches
    uniform for any bounded distances.  At ``gamma_for_k``'s boundary
    exactly k entries are > 0 (no rounding edges).
    """
    if np.any(gamma <= 0):
        raise ValueError("all gamma values must be positive")
    shifted = D - D.min(axis=1, keepdims=True)
    return _kernels.simplex_project_rows(-shifted / (2.0 * gamma[:, None]))


def gamma_for_k(d: np.ndarray, k: int) -> float:
    """Row regularizer giving update_neighbor_rows a support of exactly k.

    Uses the boundary value (k d_(k+1) - sum_{j<=k} d_(j)) / 2 on the
    ascending-sorted distances.  When ties make support exactly k
    unattainable, k is widened to the end of the tie run and the same
    boundary formula is applied, so the result has the smallest attainable
    support >= k.  Every gamma > 0 gives a row at one distance d the uniform
    row; it takes gamma = max(d, 1), on the scale of its distances and of
    normalized scores, so that once the distances move apart the row's
    probabilities follow them and not their rounding.  Other degenerate
    (non-positive) values are nudged to 1e-12.
    """
    d = np.sort(np.asarray(d, dtype=np.float64))
    n = d.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got {k}")
    if d[0] == d[-1]:
        return max(float(d[0]), 1.0)
    kk = k
    while kk < n and d[kk] == d[kk - 1]:
        kk += 1
    if kk < n:
        gamma = (kk * d[kk] - d[:kk].sum()) / 2.0
    else:
        gamma = (n * d[-1] - d.sum()) / 2.0
    if gamma <= 0.0:
        gamma += 1e-12
    return float(gamma)


def candidate_neighbors(S: np.ndarray, k_cand: int) -> np.ndarray:
    """k_cand nearest rows of S per row (Euclidean), self excluded.

    Distance ties break by ascending row index, making the candidate sets
    deterministic.  Computed once before optimization.
    """
    n = S.shape[0]
    if not 1 <= k_cand <= n - 1:
        raise ValueError(f"need 1 <= k_candidates <= {n - 1}, got {k_cand}")
    sq = np.sum(S * S, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (S @ S.T)
    np.fill_diagonal(d2, np.inf)
    # a stable sort keeps equal distances in ascending column order
    order = np.argsort(d2, axis=1, kind="stable")
    return np.ascontiguousarray(order[:, :k_cand])

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


def gamma_for_k(d: np.ndarray, k: int) -> float | np.ndarray:
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

    ``d`` is one row of distances, which gives a float, or an (n, k_cand)
    array, which gives the n gammas of its rows, each the same bits as the
    row alone gives.
    """
    d = np.sort(np.asarray(d, dtype=np.float64), axis=-1)
    n = d.shape[-1]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got {k}")
    if d.ndim == 1:
        return _sorted_gamma(d, k)
    # a sum over the last axis adds each row as a 1-d sum does: its first
    # entry, then the pairwise sum of the rest (a cumsum would not)
    gamma = (k * d[:, k] - np.sum(d[:, :k], axis=1)) / 2.0
    # a tie at the k-th distance (an all-equal row among them) widens k,
    # and a non-positive gamma is nudged: the one-row rule takes those rows
    for i in np.flatnonzero((d[:, k] == d[:, k - 1]) | (gamma <= 0.0)):
        gamma[i] = _sorted_gamma(d[i], k)
    return gamma


def _sorted_gamma(d: np.ndarray, k: int) -> float:
    """``gamma_for_k`` of one row of ascending distances."""
    n = d.shape[0]
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


# rows whose distances ``candidate_neighbors`` computes and picks from at
# once, so no n x n array is built
_CANDIDATE_BLOCK = 128


def candidate_neighbors(S: np.ndarray, k_cand: int) -> np.ndarray:
    """k_cand nearest rows of S per row (Euclidean), self excluded.

    Distance ties break by ascending row index, making the candidate sets
    deterministic: each row's candidates are the first k_cand entries of a
    stable argsort of its distances.  The squared distances
    |s_i|^2 + |s_j|^2 - 2 s_i . s_j  are computed for a block of
    ``_CANDIDATE_BLOCK`` rows at a time, against every row, so memory grows
    with n times the block, never with n^2.  A block's product can differ
    from the same rows of a full n x n product at rounding level, which can
    reorder near-ties, such as those among repeated rows.  No row is sorted
    in full.  A block finds each row's k_cand-th distance with
    ``np.partition`` and picks every index strictly below it, then the
    indices tied at it in ascending order until k_cand are picked; a stable
    sort of the picked indices by distance gives their order.  Computed
    once before optimization.
    """
    n = S.shape[0]
    if not 1 <= k_cand <= n - 1:
        raise ValueError(f"need 1 <= k_candidates <= {n - 1}, got {k_cand}")
    # squared norms a block at a time too, so no n x m product is built
    sq = np.empty(n)
    for lo in range(0, n, _CANDIDATE_BLOCK):
        block = S[lo : lo + _CANDIDATE_BLOCK]
        sq[lo : lo + _CANDIDATE_BLOCK] = np.sum(block * block, axis=1)
    out = np.empty((n, k_cand), dtype=np.intp)
    for lo in range(0, n, _CANDIDATE_BLOCK):
        out[lo : lo + _CANDIDATE_BLOCK] = _block_candidates(S, sq, lo, k_cand)
    return out


def _block_candidates(S: np.ndarray, sq: np.ndarray, lo: int, k_cand: int) -> np.ndarray:
    """``candidate_neighbors`` of the ``_CANDIDATE_BLOCK`` rows of S from row
    lo, given the squared norms sq of every row.  The block's arrays are
    released on return, before the next block's are built."""
    block = S[lo : lo + _CANDIDATE_BLOCK]
    m = block.shape[0]
    # (|s_i|^2 + |s_j|^2) - 2 s_i . s_j  in that order, in place where it
    # can be, so at most two block-sized arrays are alive
    twice = block @ S.T
    twice *= 2.0
    d = sq[lo : lo + m, None] + sq[None, :]
    d -= twice
    del twice
    d[np.arange(m), np.arange(lo, lo + m)] = np.inf
    kth = np.partition(d, k_cand - 1, axis=1)[:, [k_cand - 1]]
    below = d < kth
    tied = d == kth
    fill = k_cand - below.sum(axis=1, keepdims=True)
    pick = below | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= fill))
    cols = np.nonzero(pick)[1].reshape(-1, k_cand)
    order = np.argsort(np.take_along_axis(d, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)

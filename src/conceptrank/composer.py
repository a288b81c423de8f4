"""Joint optimization of per-video aggregation weights and neighbor graph.

The objective combines three terms over n = l + u videos with scores
f_i = w_i . s_i:

  sum_ij a_ij (f_i - f_j)^2          graph smoothness with learned neighbors
  + gamma_i sum_ij a_ij^2            uniform-neighbor prior per row
  + lambda * max_j mean_i hinge_ij   top-push ranking loss over pseudo labels

subject to row-stochastic a_i and w_i >= 0 with an optional per-row l1 cap.
Optimization alternates an exact closed-form neighbor step with a convex
weight step, so the objective trace never increases.

The objective sees the weights only through the scores, and the weight
constraints only through each score's box 0 <= f_i <= cap * max_k s_ik.
So the fit carries the n scores, not the n x m weights, and derives one
weight matrix that gives the final scores once, after the loop
(``final_weights``).  The push term depends on the negatives only through
the top negative's score, so the weight step is a quadratic program in the
scores, that level and one hinge slack per positive whose hinge can clip
(``_ScoreQP``).  Unlabelled scores meet only the graph term, so each one
whose box cannot bind is eliminated as the harmonic extension of the
others (a Kron reduction, ``_harmonic_split``), and the QP keeps the
pseudo-labelled scores and the few unlabelled ones that could reach their
box.  It is solved exactly, once per step, with an interior-point method
that stops when a duality gap, certified over every score at the lifted
iterate, meets its tolerance; a step that stops above it is reported in
``FitResult.warnings``.  Where the optimum is not unique, the solved one is
moved in closed form to an optimum whose gaps do not grow with where the
solver closed an open box (``_compress_gaps``), then toward the input
scores (``_nearest_shift``).  The step sees one graph, the edges with
a_ij > 0 (the neighbor step leaves no rounding-level ones): P, its
Laplacian on the free scores, is built from the edge list once per step
(``_laplacian``), so no n x n adjacency is formed, and its components are
labelled once (``_components``).  Each dense matrix the step factors (every
Newton system on the kept scores, the eliminated block of P, and, for the
certificate, the Schur complement on the kept scores grounded on one row of
each flat component) goes through ``_cholesky_inverse``, a recursive block
Cholesky that does its work in matrix products and overwrites the matrix
with its inverse factor.  So a step holds P, the eliminated block's factor,
the Schur complement and its grounded factor, and one Newton matrix or
factor; no factor spans every free score, and there is no
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from warnings import warn

import numpy as np

from .graph import (
    NeighborMatrix,
    candidate_neighbors,
    gamma_for_k,
    update_neighbor_rows,
)
from .query import PseudoLabels, RelevanceVector

__all__ = [
    "ScoreMatrix",
    "CompositionConfig",
    "FitResult",
    "normalize_scores",
    "row_scores",
    "score_box_top",
    "push_loss_from_scores",
    "smoothness_value",
    "objective",
    "update_scores",
    "final_weights",
    "fit",
    "fuse_supervised",
    "SUPERVISED_COLUMN_ID",
]

SUPERVISED_COLUMN_ID = "__supervised__"

# relative duality gap that every weight step of ``fit`` is certified to
WEIGHT_STEP_TOL = 1e-9
# interior-point iterations that a weight step of ``fit`` may take
WEIGHT_STEP_MAX_ITERS = 500


@dataclass
class ScoreMatrix:
    """Concept-detector scores, one row per video, weak rows first.

    Rows [0, l) belong to the weak (description-bearing) split and rows
    [l, l+u) to the test split.  Columns follow ``concept_ids``.
    """

    values: np.ndarray
    video_ids: list[str]
    l: int
    u: int
    concept_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n, m = self.values.shape
        if n != self.l + self.u:
            raise ValueError(f"{n} rows but l + u = {self.l + self.u}")
        if len(self.video_ids) != n or len(set(self.video_ids)) != n:
            raise ValueError("video_ids must be unique and match the row count")
        if len(self.concept_ids) != m:
            raise ValueError("concept_ids must match the column count")
        if self.l < 2:
            raise ValueError("need at least 2 weak videos")
        if m < 1:
            raise ValueError("need at least one concept column")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite")

    @property
    def n_videos(self) -> int:
        return self.l + self.u

    @property
    def n_concepts(self) -> int:
        return self.values.shape[1]

    def test_ids(self) -> list[str]:
        return self.video_ids[self.l :]


@dataclass
class CompositionConfig:
    """Hyperparameters of the alternating optimizer."""

    lambda_push: float = 1.0
    k_neighbors: int = 7
    k_candidates: int = 50
    max_outer_iters: int = 100
    tol: float = 1e-6
    weight_cap: float | None = 1.0  # None reproduces the bare w >= 0 constraint

    def __post_init__(self):
        if self.lambda_push <= 0:
            raise ValueError("lambda_push must be positive")
        if self.tol <= 0 or self.max_outer_iters < 1:
            raise ValueError("tol must be positive and max_outer_iters >= 1")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.k_candidates < 1:
            raise ValueError(f"k_candidates must be >= 1, got {self.k_candidates}")
        if self.weight_cap is not None and self.weight_cap <= 0:
            raise ValueError("weight_cap must be positive (or None to disable)")


@dataclass
class FitResult:
    """Outcome of ``fit``.

    ``weights`` is one of the many weight matrices that give ``scores``:
    the relevance prior scaled down, or moved toward the cap vertex of
    each row's top concept (see ``final_weights``).  ``scores`` is
    recomputed from it.
    """

    weights: np.ndarray
    neighbors: NeighborMatrix
    objective_trace: list[float]
    scores: np.ndarray
    initial_scores: np.ndarray
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)

    @property
    def uncertified_steps(self) -> int:
        """Weight steps above their tolerance; ``fit`` warns of nothing else."""
        return len(self.warnings)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def normalize_scores(raw: ScoreMatrix) -> ScoreMatrix:
    """Min-max rescale each column to [0, 1]; constant columns become 0.5."""
    V = raw.values
    lo = V.min(axis=0)
    hi = V.max(axis=0)
    span = hi - lo
    out = np.empty_like(V)
    const = span == 0.0
    out[:, const] = 0.5
    if np.any(~const):
        out[:, ~const] = (V[:, ~const] - lo[~const]) / span[~const]
    return ScoreMatrix(
        values=out,
        video_ids=list(raw.video_ids),
        l=raw.l,
        u=raw.u,
        concept_ids=list(raw.concept_ids),
    )


def row_scores(W: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-video aggregated scores f_i = w_i . s_i."""
    return np.einsum("ij,ij->i", W, values)


def push_loss_from_scores(f: np.ndarray, labels: PseudoLabels) -> float:
    """Max over negatives of the mean positive hinge, from scores directly.

    Every hinge grows with the negative's score, so the max is the mean
    hinge against the top negative.
    """
    top = f[np.asarray(labels.negatives)].max()
    return float(np.mean(np.maximum(1.0 - f[np.asarray(labels.positives)] + top, 0.0)))


def smoothness_value(f: np.ndarray, neighbors: NeighborMatrix) -> float:
    """sum_i sum_{j in candidates(i)} a_ij (f_i - f_j)^2."""
    diff = f[:, None] - f[neighbors.candidates]
    return float(np.sum(neighbors.probs * diff * diff))


def score_box_top(values: np.ndarray, cap: float | None) -> np.ndarray:
    """Per-video upper bound on achievable scores f_i = w_i . s_i."""
    top = values.max(axis=1)
    if cap is None:
        # a row without a positive score can only reach f_i = 0
        return np.where(top > 0.0, np.inf, 0.0)
    return cap * top


def objective(
    f: np.ndarray,
    neighbors: NeighborMatrix,
    labels: PseudoLabels,
    gamma: float | np.ndarray,
    lambda_push: float,
) -> float:
    """Full objective at the scores f: smoothness + neighbor prior +
    weighted push loss."""
    probs = neighbors.probs
    if np.any(probs < -1e-12) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("neighbor rows must be stochastic")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.float64), (probs.shape[0],))
    reg = float(np.sum(gamma * np.sum(probs * probs, axis=1)))
    return (
        smoothness_value(f, neighbors)
        + reg
        + lambda_push * push_loss_from_scores(f, labels)
    )


# ---------------------------------------------------------------------------
# weight subproblem
# ---------------------------------------------------------------------------


# rows at most in a leaf of ``_cholesky_inverse``, which LAPACK factors and
# inverts directly; above it the work is done in matrix products
_CHOLESKY_LEAF = 48


def _cholesky_inverse(A: np.ndarray) -> np.ndarray:
    """Overwrite a symmetric positive definite A with the inverse Li of its
    Cholesky factor, so that  A^-1 v = Li' (Li v), and return it.  Li is
    lower triangular with exact zeros above the diagonal.  Raises
    ``LinAlgError`` when A, or any trailing Schur complement, is not
    numerically positive definite; A is then left part overwritten.

    With A split in 2x2 blocks and L21 = A21 Li11',
      Li = [[Li11, 0], [-Li22 L21 Li11, Li22]],  Li22 = inv-chol(A22 - L21 L21'),
    so nearly all of the flops are matrix products, which run several times
    faster than ``np.linalg.cholesky`` at the weight step's sizes.
    """
    n = A.shape[0]
    if n <= _CHOLESKY_LEAF:
        # inv pivots, so it can leave rounding-level entries above the diagonal
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return A
    h = n // 2
    A11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    _cholesky_inverse(A11)
    L21 = A21 @ A11.T
    A22 -= L21 @ L21.T
    _cholesky_inverse(A22)
    np.matmul(A22, L21 @ A11, out=A21)
    A21 *= -1.0
    A[:h, h:] = 0.0
    return A


# rows whose harmonic weights sum to at most this are kept by
# ``_harmonic_split``: their lift would be 0, or rounding noise around it,
# on the bottom of their box
_LIFT_FLOOR = 1e-12


def _laplacian(neighbors: NeighborMatrix, free: np.ndarray) -> np.ndarray:
    """4 L[free, free], with L the Laplacian of the symmetrized neighbor
    graph  M = (A + A') / 2.

    The off-diagonal entries are scattered from the edges with a_ij > 0.  Each
    diagonal entry is minus the ``np.sum`` of its row's off-diagonal
    entries, plus the weight of the row's edges to rows outside ``free``.
    With every row free this is  4 M.sum(axis=1)  bit for bit: the
    interior point's stopping test on an uncapped step needs  P 1  at the
    accuracy of a pairwise sum, which adding the diagonal edge by edge
    does not keep.
    """
    n, k = neighbors.candidates.shape
    edge = neighbors.probs > 0.0
    nf = free.shape[0]
    col = np.full(n, -1)
    col[free] = np.arange(nf)
    i = col[np.repeat(np.arange(n), k)[edge.ravel()]]
    j = col[neighbors.candidates[edge]]
    w = 2.0 * neighbors.probs[edge]  # 4 (a_ij / 2) on each side of the edge
    inner = (i >= 0) & (j >= 0)
    a, b, w_in = i[inner], j[inner], -w[inner]
    P = np.zeros((nf, nf))
    np.add.at(P, (a, b), w_in)
    np.add.at(P, (b, a), w_in)
    # an edge with one end pinned adds its weight to the free end only
    out_i, out_j = (i >= 0) & (j < 0), (j >= 0) & (i < 0)
    pinned = np.bincount(
        np.concatenate([i[out_i], j[out_j]]),
        weights=np.concatenate([w[out_i], w[out_j]]),
        minlength=nf,
    )
    P[np.diag_indices(nf)] = -P.sum(axis=1) + pinned
    return P


def _harmonic_split(
    P: np.ndarray, kept: np.ndarray, top: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(B, H, w, S, Li): the rows of P to keep, the rows to eliminate as the
    harmonic extension  f_H = w f_B  of the kept ones, the Schur complement
    S = P_BB + P_BH w,  the curvature of  f'Pf / 2  in f_B once f_H is
    eliminated (a Kron reduction), and the inverse Cholesky factor Li of
    P_HH, with which the certificate measures the eliminated rows.

    ``kept`` masks the rows that must be kept; ``top`` is each row's box top.
    For a row that meets no term but P's, the best score given f_B is
    w f_B  with  w = -P_HH^-1 P_HB  (Zhu, Ghahramani & Lafferty, ICML 2003).
    P is a Laplacian plus a nonnegative diagonal, so w >= 0 and each row of
    w sums to at most 1 (the maximum principle).  A row h stays in H when
    its weights do not sum to 0 and  w_h . (top_B - top_h) <= 0:  then
    w_h . top_B <= top_h, so  0 < w_h f_B < top_h  whenever f_B lies
    strictly inside its boxes, and h's box never binds.  The second test
    is exact on equal tops, which every open box has.  Every other row
    moves to B, and w is built again, with one factor of P_HH, until no row
    moves.  The QP over f_B with curvature S then has the same optimal
    value as the QP over every row.  If P_HH cannot be factored, every row
    is kept, and S is P itself.
    """
    kept = kept.copy()
    while True:
        B, H = np.flatnonzero(kept), np.flatnonzero(~kept)
        if H.shape[0] == 0:
            return B, H, np.zeros((0, B.shape[0])), P, np.zeros((0, 0))
        try:
            Li = _cholesky_inverse(P[np.ix_(H, H)])
        except np.linalg.LinAlgError:
            kept[:] = True
            continue
        G = Li @ P[np.ix_(H, B)]
        w = -(Li.T @ G)
        # w_h . top_B - top_h = w_h . (top_B - top_h) - (1 - sum w_h) top_h,
        # and the last term is >= 0; equal tops (an open box) give exactly 0
        rise = np.einsum("hb,hb->h", w, top[B][None, :] - top[H][:, None])
        move = (rise > 0.0) | (w.sum(axis=1) <= _LIFT_FLOOR)
        if not np.any(move):
            S = P[np.ix_(B, B)]
            S -= G.T @ G
            return B, H, w, S, Li
        kept[H[move]] = True


class _ScoreQP:
    """The weight step for fixed neighbor probabilities, as a QP over
    x = (f_free, t, xi).

    Every hinge  (1 - f_{p_i} + f_{n_j})_+  grows with f_{n_j}, so the push
    loss  max_j mean_i (1 - f_{p_i} + f_{n_j})_+  is the mean hinge of each
    positive against the top negative alone (Li, Jin & Zhou, *Top Rank
    Optimization in Linear Time*, NIPS 2014).  The QP minimizes
    1/2 f'Sf + lin'x + const  over the kept free scores f, the level t of
    the top negative and one hinge slack xi_i per clipped positive, subject
    to  lo <= x <= up  and the rows

      f_{n_j} - t <= 0                                 (each negative j)
      t - f_{p_i} - xi_i <= -1,  xi_i >= 0             (i in C)

    Videos whose score box is [0, 0] are pinned and left out (``free``
    holds the others), and a box without a top (no cap) is closed at n
    (see ``update_scores``).  Positives whose score cannot exceed 1 never
    clip their hinges against the nonnegative level t, so those hinges
    enter linearly: U is the set of those positives, C the others,
    a = |U|/p, and the objective is
    2 f'Lf - (lam/p) sum_U f + lam a t + (lam/p) sum_C xi + lam a.  With
    the default cap and scores in [0, 1], C is empty and x = (f, t).

    The step sees one edge set, the edges with a_ij > 0: P = 4 L[free, free]
    (``_laplacian``), and ``group`` labels the components of that graph
    over every video (``_components``); ``labelled`` marks the
    pseudo-labelled videos.  A free score's component is flat when it holds
    no pinned video: ``flat`` lists those free rows, ``member`` numbers
    their components and ``size`` counts them.  Their indicators span the
    null space of P.  x holds only the kept scores f_B: the pseudo-labelled
    ones, those of flat components without a pseudo label (whose level P
    does not fix, so they would make P_HH singular), and each unlabelled
    score whose harmonic extension could reach its box
    (``_harmonic_split``).  Every other free score meets only the graph
    term, so it is eliminated as  f_H = w f_B,  S is the Schur complement
    of P on f_B, and nf counts the kept scores.  The lift of a strictly
    feasible f_B lies strictly inside the eliminated boxes, so they never
    bind, and the QP over x has the optimal value of the QP over every free
    score.  ``gap`` certifies the lifted point (``lift``) against that full
    QP, with P as it is: the bound holds at any strictly feasible
    primal-dual point, wherever it came from.

    The rows are never formed as a matrix.  Each slack sits in one hinge
    row, so ``newton`` eliminates the slacks and factors only an
    (nf + 1) x (nf + 1) system.
    """

    def __init__(
        self,
        neighbors: NeighborMatrix,
        labels: PseudoLabels,
        lambda_push: float,
        hi: np.ndarray,
    ):
        self.n = hi.shape[0]
        hi = np.where(np.isinf(hi), float(self.n), hi)
        self.neighbors = neighbors
        self.labels = labels
        pos = self.pos = np.asarray(labels.positives)
        neg = self.neg = np.asarray(labels.negatives)
        self.lam = float(lambda_push)
        free = self.free = np.flatnonzero(hi > 0.0)
        self.top = hi[free]
        self.P = _laplacian(neighbors, free)
        group = self.group = _components(neighbors)
        self.labelled = np.isin(np.arange(self.n), np.concatenate([pos, neg]))
        # a flat component holds no pinned video
        flat = ~np.isin(group[free], np.delete(group, free))
        self.flat = np.flatnonzero(flat)
        self.member = np.unique(group[free][flat], return_inverse=True)[1]
        self.size = np.bincount(self.member)
        kept = self.labelled[free]
        # a flat component without a pseudo label meets P_HH as a singular block
        held = np.bincount(self.member, weights=kept[self.flat], minlength=self.size.shape[0])
        kept[self.flat[held[self.member] == 0.0]] = True
        self.keep, self.drop, self.w, self.S, self.Li_H = _harmonic_split(
            self.P, kept, self.top
        )
        nf = self.nf = self.keep.shape[0]
        col = np.full(self.n, -1)
        col[free[self.keep]] = np.arange(nf)
        # the certificate's factor: S grounded on one kept row of each flat
        # component (``split``); each has one, its pseudo labels or all of it
        at = col[free[self.flat]]
        first = np.unique(self.member[at >= 0], return_index=True)[1]
        self.ground = at[at >= 0][first]
        Sg = self.S.copy()
        Sg[self.ground, :] = 0.0
        Sg[:, self.ground] = 0.0
        Sg[self.ground, self.ground] = 1.0
        try:
            self.Li_S = _cholesky_inverse(Sg)
        except np.linalg.LinAlgError:
            # an edge can be weak enough to make the grounded S numerically
            # singular; the certificate then uses only the linear bound,
            # which needs no factor
            self.Li_S = None
        p = pos.shape[0]
        n_epi = self.n_epi = neg.shape[0]
        clip = hi[pos] > 1.0
        unclipped, clipped = pos[~clip], pos[clip]
        n_clip = clipped.shape[0]
        a = unclipped.shape[0] / p
        self.const = self.lam * a  # also the cost of t
        self.slack_cost = self.lam / p
        self.t = nf
        nx = nf + 1 + n_clip

        self.lin = np.zeros(nx)
        linear = unclipped[col[unclipped] >= 0]
        self.lin[col[linear]] = -self.slack_cost
        self.lin[self.t] = self.const
        self.lin[nf + 1 :] = self.slack_cost
        self.lo = np.concatenate([np.zeros(nf), [-np.inf], np.zeros(n_clip)])
        self.up = np.concatenate([self.top[self.keep], np.full(1 + n_clip, np.inf)])
        # rows: one per negative, then one hinge row per clipped positive
        self.b = np.concatenate([np.zeros(n_epi), np.full(n_clip, -1.0)])
        self.hp = col[clipped]
        self.n_free = col[neg] >= 0
        self.hn = col[neg[self.n_free]]

    def value(self, f: np.ndarray) -> float:
        """Smoothness + push at the scores f, in the objective's arithmetic."""
        push = push_loss_from_scores(f, self.labels)
        return smoothness_value(f, self.neighbors) + self.lam * push

    def split(self, r: np.ndarray) -> tuple[np.ndarray, float]:
        """(flat, curved) for r over the free scores: the projection of r
        onto the null space of P (its mean on each flat component) and
        r_c' P^+ r_c / 2  for the rest r_c = r - flat (inf when the
        grounded S could not be factored).

        Block elimination of  P y = r_c  over (f_B, f_H) gives
          r_c' P^+ r_c = |Li_H r_H|^2 + r^' S^+ r^,   r^ = r_B + w' r_H,
        with r_B and r_H the kept and eliminated rows of r_c.  r^ is
        orthogonal to the null space of S, as r_c is to that of P, so with
        its grounded entries zeroed the grounded system solves  S y = r^
        up to a constant on each flat component, which r^ does not see:
        r^' S^+ r^ = |Li_S r^|^2.
        """
        flat = np.zeros_like(r)
        means = np.bincount(self.member, weights=r[self.flat], minlength=self.size.shape[0])
        flat[self.flat] = (means / self.size)[self.member]
        if self.Li_S is None:
            return flat, np.inf
        r_c = r - flat
        r_h = r_c[self.drop]
        r_hat = r_c[self.keep] + self.w.T @ r_h
        r_hat[self.ground] = 0.0
        curved = np.sum(np.square(self.Li_H @ r_h)) + np.sum(np.square(self.Li_S @ r_hat))
        return flat, 0.5 * float(curved)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The row values A x (compared against ``b``)."""
        nf = self.nf
        f, t = x[:nf], x[nf]
        fn = np.zeros(self.n_epi)
        fn[self.n_free] = f[self.hn]
        return np.concatenate([fn - t, t - f[self.hp] - x[nf + 1 :]])

    def rows_t(self, z: np.ndarray) -> np.ndarray:
        """The adjoint A' z of ``rows``."""
        nf = self.nf
        z_e, z_h = z[: self.n_epi], z[self.n_epi :]
        g = np.zeros(self.lin.shape[0])
        g[self.hn] = z_e[self.n_free]
        g[self.hp] -= z_h
        g[nf] = z_h.sum() - z_e.sum()
        g[nf + 1 :] = -z_h
        return g

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = self.lin.copy()
        g[: self.nf] += self.S @ x[: self.nf]
        return g

    def objective(self, x: np.ndarray) -> float:
        f = x[: self.nf]
        return 0.5 * float(f @ (self.S @ f)) + float(self.lin @ x) + self.const

    def newton(self, d_rows: np.ndarray, d_diag: np.ndarray):
        """A function that solves with the Newton matrix  H = S + A' diag(d_rows) A + diag(d_diag).

        Each slack sits in one hinge row and its own bound, so eliminating
        it leaves the row acting on (f_{p_i}, t) with the series weight of
        the row and the bound.  Every remaining row is then  +-(f_v - t), so
        the (f, t) matrix is S plus the diagonal plus each row's weight at
        (v, v) and (t, t) and, negated, at (v, t) and (t, v).  H is positive
        semidefinite and nearly singular along directions in which the
        optimum is degenerate (shifting every score and t together changes
        no term when no bound is active); Jacobi scaling with a tiny ridge
        keeps the inverse Cholesky factor of the (f, t) system
        (``_cholesky_inverse``) stable, and two refinement passes against H
        itself restore accuracy in every direction that changes the
        objective.  The (f, t) matrix is overwritten by its factor, and the
        caller drops the returned function before it asks for the next, so
        one Newton matrix or factor is alive.  The returned function keeps
        the single unrefined pass as its ``eliminate`` attribute, so the
        elimination can be checked alone.
        """
        nf, t, hp = self.nf, self.t, self.hp
        ny = nf + 1
        d_e, d_h = d_rows[: self.n_epi], d_rows[self.n_epi :]
        d_x = d_diag[ny:]
        e = d_h + d_x
        rho = d_h / e
        w = d_h * d_x / e
        # the rows +-(f_v - t) with a free v and their weights; the row of
        # a pinned negative is -t and adds to (t, t) only
        ends = np.concatenate([self.hn, hp])
        c = np.concatenate([d_e[self.n_free], w])
        K = np.zeros((ny, ny))
        K[:nf, :nf] = self.S
        K[np.diag_indices(ny)] += d_diag[:ny]
        K[ends, ends] += c
        K[ends, t] -= c
        K[t, ends] -= c
        K[t, t] += d_e.sum() + w.sum()
        d = np.sqrt(np.maximum(np.diag(K), 1e-300))
        K /= d[:, None]
        K /= d[None, :]
        K[np.diag_indices(ny)] += 1e-12
        Li = _cholesky_inverse(K)

        def eliminate(r: np.ndarray) -> np.ndarray:
            r_y = r[:ny].copy()
            u = rho * r[ny:]
            r_y[hp] -= u
            r_y[t] += u.sum()
            dy = (Li.T @ (Li @ (r_y / d))) / d
            dx = (r[ny:] + d_h * (dy[t] - dy[hp])) / e
            return np.concatenate([dy, dx])

        def hmul(v: np.ndarray) -> np.ndarray:
            out = self.rows_t(d_rows * self.rows(v)) + d_diag * v
            out[:nf] += self.S @ v[:nf]
            return out

        def solve(r: np.ndarray) -> np.ndarray:
            x = eliminate(r)
            for _ in range(2):
                x += eliminate(r - hmul(x))
            return x

        solve.eliminate = eliminate
        return solve

    def start(self):
        """Strictly feasible primal-dual point: mid-box scores, the level t
        one above the top negative score, unit row slacks, and multipliers
        that make every variable stationary."""
        nf, n_epi = self.nf, self.n_epi
        x = np.zeros(self.lin.shape[0])
        x[:nf] = 0.5 * self.up[:nf]
        x[self.t] = float(np.max(self.rows(x)[:n_epi])) + 1.0
        x[nf + 1 :] = np.maximum(self.rows(x)[n_epi:] - self.b[n_epi:], 0.0) + 1.0
        # each slack passes half of its cost to its hinge row and half to
        # its lower bound; the level t has cost lam a and no curvature, so
        # the negatives' rows carry lam a plus the hinge multipliers
        z_a = np.empty(self.b.shape[0])
        z_lo = np.zeros_like(x)
        z_up = np.zeros_like(x)
        z_a[n_epi:] = z_lo[nf + 1 :] = 0.5 * self.slack_cost
        z_a[:n_epi] = (self.const + z_a[n_epi:].sum()) / n_epi
        # the score boxes absorb the rest; at mid-box equal offsets cancel
        r = (self.grad(x) + self.rows_t(z_a))[:nf]
        offset = (self.lam / n_epi) / x[:nf]
        z_lo[:nf] = np.maximum(r, 0.0) + offset
        z_up[:nf] = np.maximum(-r, 0.0) + offset
        return x, z_lo, z_up, z_a

    def gap(self, x: np.ndarray, z_a: np.ndarray) -> float:
        """Certified bound on objective(x) - optimum, or inf if x is not
        strictly feasible; both over every free score, at the lifted scores.

        Fixes row multipliers that make t and the slacks dual feasible:
        hinge multipliers capped at the slack cost lam/p, whose remainder
        goes to the slack's lower bound, and the negatives' multipliers
        rescaled to sum to lam a plus the hinge multipliers (stationarity
        in t).  The Lagrangian is then a convex quadratic in the scores
        alone, with gradient r at x, and the gap adds the row
        complementarity to a bound on how far the Lagrangian falls below
        its value at x over the score box.  That fall is at most the box
        term  f'(r)_+ + (up - f)'(-r)_+  of the linear model, and at most
        r_c'P^+r_c / 2  plus the box term of r_0, where r_0 is the
        projection of r onto the null space of P (its mean on each flat
        component) and r_c the rest; the smaller of the two is used.  The
        second does not grow with the level of the scores along directions
        that P does not see.  ``split`` computes it from the matrices the
        step solves with, P_HH's factor and the Schur complement S, so no
        factor spans every free score.
        """
        nf, n_epi = self.nf, self.n_epi
        f, xi = self.lift(x), x[nf + 1 :]
        s_a = self.b - self.rows(x)
        s_up = self.top - f
        if min(s_a.min(), f.min(initial=1.0), s_up.min(initial=1.0), xi.min(initial=1.0)) <= 0.0:
            return np.inf
        z = np.maximum(z_a, 0.0)
        z[n_epi:] = np.minimum(z[n_epi:], self.slack_cost)
        z[:n_epi] *= (self.const + z[n_epi:].sum()) / z[:n_epi].sum()
        r = self.P @ f
        r[self.keep] += (self.lin + self.rows_t(z))[:nf]

        def box_term(g):
            return float(f @ np.maximum(g, 0.0) + s_up @ np.maximum(-g, 0.0))

        flat, curved = self.split(r)
        fall = min(box_term(r), curved + box_term(flat))
        return float(s_a @ z + xi @ (self.slack_cost - z[n_epi:])) + fall

    def lift(self, x: np.ndarray) -> np.ndarray:
        """The free scores of x: its kept scores and their harmonic extension."""
        f = np.empty(self.free.shape[0])
        f[self.keep] = x[: self.nf]
        f[self.drop] = self.w @ x[: self.nf]
        return f

    def scores(self, x: np.ndarray) -> np.ndarray:
        f = np.zeros(self.n)
        f[self.free] = np.clip(self.lift(x), 0.0, self.top)
        return f


def _interior_point(qp: _ScoreQP, tol: float, max_iters: int) -> tuple[np.ndarray, float]:
    """Mehrotra predictor-corrector from the QP's strictly feasible start.

    Stops when the certified gap (``_ScoreQP.gap``) is at most
    tol * max(1, |objective|), when it has stopped shrinking (three
    iterations in a row that leave it above 0.9 times its best value and
    above the iterate's complementarity s'z, which the gap tracks until it
    reaches its rounding floor), or after max_iters iterations.  Returns the
    iterate with the smallest gap and that gap; the caller decides what a
    gap above tolerance means.
    """
    b = qp.b
    has_lo = np.isfinite(qp.lo)
    has_up = np.isfinite(qp.up)
    lo = np.where(has_lo, qp.lo, 0.0)
    up = np.where(has_up, qp.up, 0.0)
    n_con = int(has_lo.sum() + has_up.sum()) + b.shape[0]

    def max_step(v, dv):
        shrink = dv < 0.0
        if not np.any(shrink):
            return 1.0
        return min(1.0, float(np.min(-v[shrink] / dv[shrink])))

    x, z_lo, z_up, z_a = qp.start()
    best_x, best_gap = x, qp.gap(x, z_a)
    gap, slow, stalled = best_gap, False, 0
    for _ in range(max_iters):
        s_lo = np.where(has_lo, x - lo, 1.0)
        s_up = np.where(has_up, up - x, 1.0)
        s_a = b - qp.rows(x)
        comp = float(s_lo[has_lo] @ z_lo[has_lo] + s_up[has_up] @ z_up[has_up] + s_a @ z_a)
        # a gap that stops shrinking although the complementarity has fallen
        # below it has reached rounding level; above it, the gap can swing
        # while the iterate still converges
        stalled = stalled + 1 if slow and gap > comp else 0
        if best_gap <= tol * max(1.0, abs(qp.objective(best_x))) or stalled >= 3:
            break
        d_diag = np.where(has_lo, z_lo / s_lo, 0.0) + np.where(has_up, z_up / s_up, 0.0)
        r_d = qp.grad(x) - z_lo + z_up + qp.rows_t(z_a)
        mu = comp / n_con

        def direction(rc_lo, rc_up, rc_a):
            # Newton step on the perturbed KKT system, slacks eliminated
            rhs = -r_d - rc_lo / s_lo + rc_up / s_up + qp.rows_t(rc_a / s_a)
            dx = solve(rhs)
            Adx = qp.rows(dx)
            dz_lo = np.where(has_lo, (-rc_lo - z_lo * dx) / s_lo, 0.0)
            dz_up = np.where(has_up, (-rc_up + z_up * dx) / s_up, 0.0)
            dz_a = (-rc_a + z_a * Adx) / s_a
            alpha = min(
                max_step(s_lo[has_lo], dx[has_lo]),
                max_step(s_up[has_up], -dx[has_up]),
                max_step(s_a, -Adx),
                max_step(z_lo[has_lo], dz_lo[has_lo]),
                max_step(z_up[has_up], dz_up[has_up]),
                max_step(z_a, dz_a),
            )
            return dx, Adx, dz_lo, dz_up, dz_a, alpha

        try:
            solve = None  # drop the last factor before the next matrix is built
            solve = qp.newton(z_a / s_a, d_diag)
            rc_lo = np.where(has_lo, s_lo * z_lo, 0.0)
            rc_up = np.where(has_up, s_up * z_up, 0.0)
            dx, Adx, dz_lo, dz_up, dz_a, alpha = direction(rc_lo, rc_up, s_a * z_a)
            mu_aff = float(
                ((s_lo + alpha * dx) * (z_lo + alpha * dz_lo))[has_lo].sum()
                + ((s_up - alpha * dx) * (z_up + alpha * dz_up))[has_up].sum()
                + ((s_a - alpha * Adx) * (z_a + alpha * dz_a)).sum()
            ) / n_con
            sigma_mu = (mu_aff / mu) ** 3 * mu
            dx, Adx, dz_lo, dz_up, dz_a, alpha = direction(
                np.where(has_lo, rc_lo + dx * dz_lo - sigma_mu, 0.0),
                np.where(has_up, rc_up - dx * dz_up - sigma_mu, 0.0),
                s_a * z_a - Adx * dz_a - sigma_mu,
            )
        except np.linalg.LinAlgError:
            break
        # near the boundary, rounding can put a full fraction-to-boundary
        # step outside the feasible set: shorten it until it is inside
        alpha *= 0.99
        for _ in range(8):
            x_new = x + alpha * dx
            z_a_new = z_a + alpha * dz_a
            gap = qp.gap(x_new, z_a_new)
            if np.isfinite(gap):
                break
            alpha *= 0.5
        else:
            break
        x, z_lo, z_up, z_a = x_new, z_lo + alpha * dz_lo, z_up + alpha * dz_up, z_a_new
        # a gap that shrinks steadily, if slowly, is still converging
        slow = gap > 0.9 * best_gap
        if gap < best_gap:
            best_x, best_gap = x, gap
    return best_x, best_gap


def update_scores(
    f_in: np.ndarray,
    neighbors: NeighborMatrix,
    labels: PseudoLabels,
    lambda_push: float,
    hi: np.ndarray,
    max_iters: int = WEIGHT_STEP_MAX_ITERS,
    tol: float = WEIGHT_STEP_TOL,
) -> np.ndarray:
    """Exact weight step, solved as a quadratic program in score space.

    The subproblem objective depends on the weights only through the
    per-video scores f_i = w_i . s_i, and the weight constraint set maps
    to the box 0 <= f_i <= hi_i = cap * max_k s_ik (``score_box_top``).
    Writing the push loss as the mean hinge against the level t of the
    top negative (with one hinge slack per positive whose hinge can clip,
    see ``_ScoreQP``) makes the step a convex QP.  Only the push term sees
    the pseudo-labelled scores; an unlabelled score whose box cannot bind
    is the harmonic extension of the others, so the QP keeps only the
    pseudo-labelled scores and the unlabelled ones that could reach their
    box (or hold a level of their own), with the rest eliminated
    (``_harmonic_split``).  An interior-point method solves it until the
    duality gap of its iterate, lifted back to every score, is at most
    ``tol * max(1, |objective|)``; that gap is a certified bound on the
    distance to the optimum of the QP over every score.  A step that spends
    ``max_iters`` iterations, or whose gap stops shrinking, before it gets
    there raises a ``RuntimeWarning`` that states the gap.

    Without a cap the box has no top, and the step closes it at n.  The
    optimum is then not unique: the level of a component of positives
    whose hinges are all clipped, for one, changes no term, and the
    interior point settles near the analytic center of the optimal set,
    which drifts with n.  So every gap of more than 1 between sorted
    optimal scores is narrowed to 1 (``_compress_gaps``), which keeps an
    optimum and leaves every step capped at 1 as it is.  Last, the shifts
    that change no term move toward the input scores (``_nearest_shift``):
    a component of the neighbor graph without pseudo labels keeps its
    input mean, and the labelled components move together.

    Returns the optimized scores, or the input scores f_in if those have
    the lower subproblem value, so the objective never increases.
    """
    f, gap, bound = _weight_step(f_in, neighbors, labels, lambda_push, hi, max_iters, tol)
    if gap > bound:
        warn(_gap_message(gap, bound), RuntimeWarning, stacklevel=2)
    return f


def _weight_step(f_in, neighbors, labels, lambda_push, hi, max_iters, tol):
    """``update_scores`` with its certificate: returns (f, gap, bound),
    where gap bounds the distance of the solved scores to the optimum and
    bound is the tolerance it was asked to meet.  One QP is solved, over the
    kept scores (``_ScoreQP``); the scores it eliminates follow as their
    harmonic extension, and the closed-form moves below act on every score."""
    qp = _ScoreQP(neighbors, labels, lambda_push, hi)
    x, gap = _interior_point(qp, tol, max_iters)
    bound = tol * max(1.0, abs(qp.objective(x)))
    f = _nearest_shift(qp, _compress_gaps(qp.scores(x)), f_in, hi)
    if qp.value(f) <= qp.value(f_in):
        return f, gap, bound
    return f_in, gap, bound


def _gap_message(gap: float, bound: float) -> str:
    return f"weight step stopped at certified gap {gap:.3g}, above its tolerance {bound:.3g}"


def _components(neighbors: NeighborMatrix) -> np.ndarray:
    """Component label of every row of the graph with the neighbor edges
    a_ij > 0: the smallest row index in its component."""
    n, k = neighbors.candidates.shape
    edge = neighbors.probs > 0.0
    i = np.repeat(np.arange(n), k)[edge.ravel()]
    j = neighbors.candidates[edge]
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, i, label[j])
        np.minimum.at(new, j, label[i])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _compress_gaps(f: np.ndarray) -> np.ndarray:
    """f with every gap of more than 1 between consecutive sorted scores
    narrowed to 1, by lowering each score by the excess of the gaps below it.

    Narrowing such a gap never raises the step's objective: hinges across
    it stay clipped or shrink, edges across it shorten, and the scores only
    fall, keep their order and stay at or above the lowest one, so they
    stay in their boxes.  So an optimum comes back as an optimum, with no
    gap left that grows with where an open box was closed.  A vector
    without such a gap, which includes every step capped at 1, comes back
    bit for bit.
    """
    order = np.argsort(f, kind="stable")
    out = f.copy()
    out[order[1:]] -= np.cumsum(np.maximum(np.diff(f[order]) - 1.0, 0.0))
    return out


def _nearest_shift(
    qp: _ScoreQP,
    f: np.ndarray,
    f0: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Among the optima that differ from f by shifting groups of videos,
    the one nearest the input scores f0.

    Adding a constant to a connected component of the neighbor graph
    changes no smoothness term, and adding it to every component that
    holds a pseudo label changes no push term, since both depend on score
    differences only.  So each component without pseudo labels, and the
    union of the labelled ones, may move by any amount that keeps its
    scores inside their boxes [0, hi]; a group with a pinned video (box
    [0, 0]) cannot move.  The nearest such optimum moves each group by the
    mean of f0 - f over it, clipped to that range.  Relative moves of
    labelled components that leave the push term unchanged are searched
    only in part: ``_compress_gaps`` has closed every gap above 1 between
    them, and moves within the gaps left are not searched.
    """
    n = f.shape[0]
    group = np.where(np.isin(qp.group, qp.group[qp.labelled]), n, qp.group)
    size = np.bincount(group, minlength=n + 1)
    move = np.bincount(group, weights=f0 - f, minlength=n + 1) / np.maximum(size, 1)
    lo = np.full(n + 1, -np.inf)
    up = np.full(n + 1, np.inf)
    np.maximum.at(lo, group, -f)
    np.minimum.at(up, group, hi - f)
    return np.clip(f + np.clip(move, lo, up)[group], 0.0, hi)


def final_weights(
    w0: np.ndarray, values: np.ndarray, f: np.ndarray, cap: float | None
) -> np.ndarray:
    """Feasible weight rows that give the scores f, from the prior row w0.

    Per row, with g = w0 . s and j the first index of max_k s_k, a score
    f <= g scales the prior, w = (f / g) w0 (w0 itself when g = 0).  A
    higher one moves the prior toward concept j: with a cap, along the
    segment to the vertex cap e_j, w = (1 - theta) w0 + theta cap e_j with
    theta = (f - g) / (cap s_j - g); without one, by (f - g) / s_j along
    e_j.  No bisection is needed.  f must lie in its box
    [0, ``score_box_top``].
    """
    n = values.shape[0]
    W = np.tile(w0, (n, 1))
    g = row_scores(W, values)
    j = np.argmax(values, axis=1)
    s_j = values[np.arange(n), j]
    # a row without a positive score can only scale the prior
    down = (f <= g) | (s_j <= 0.0)
    scale = np.divide(f, g, out=np.ones(n), where=g != 0.0)
    W[down] *= scale[down, None]
    up = np.flatnonzero(~down)
    if cap is None:
        W[up, j[up]] += (f[up] - g[up]) / s_j[up]
    else:
        theta = (f[up] - g[up]) / (cap * s_j[up] - g[up])
        W[up] *= 1.0 - theta[:, None]
        W[up, j[up]] += theta * cap
    return W


# ---------------------------------------------------------------------------
# alternating fit and supervised fusion
# ---------------------------------------------------------------------------


def _check_labels(labels: PseudoLabels, l: int) -> None:
    idx = list(labels.positives) + list(labels.negatives)
    if min(idx) < 0 or max(idx) >= l:
        raise ValueError(f"pseudo-label indices must lie in [0, {l})")


def _initial_row(w_init_row: np.ndarray, m: int, cap: float | None) -> np.ndarray:
    """Relevance prior renormalized onto the weight constraint set."""
    r = np.asarray(w_init_row, dtype=np.float64)
    if r.shape != (m,):
        raise ValueError(f"initial weights must have length {m}")
    if np.any(r < 0):
        raise ValueError("initial weights must be nonnegative")
    scale = cap if cap is not None else 1.0
    total = r.sum()
    if total <= 0.0:
        return np.full(m, scale / m)
    return r * (scale / total)


def fit(
    S: ScoreMatrix,
    labels: PseudoLabels,
    w_init_row: RelevanceVector | np.ndarray,
    config: CompositionConfig,
) -> FitResult:
    """Alternate exact neighbor updates with convex weight updates.

    Every weight row starts at the renormalized relevance prior, so the
    iteration-0 scores reproduce the fixed-weight baseline ranking.  The
    loop carries the scores only; the weights that give its last scores
    are derived once, after it (``final_weights``).  The objective is
    recorded after every block and is non-increasing; the loop stops when
    the relative decrease over one outer iteration falls below
    ``config.tol``.  The fit counts as converged only if it stopped so and
    its last weight step met its certified tolerance; every step that did
    not is stated in ``warnings`` (and counted by ``uncertified_steps``).
    """
    _check_labels(labels, S.l)
    vals = S.values
    if vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9:
        raise ValueError("scores must be normalized to [0, 1] before fitting")
    n, m = vals.shape
    if isinstance(w_init_row, RelevanceVector):
        w_init_row = w_init_row.values
    cap = config.weight_cap
    w0 = _initial_row(w_init_row, m, cap)
    initial_scores = row_scores(np.tile(w0, (n, 1)), vals)
    hi = score_box_top(vals, cap)

    k_cand = min(config.k_candidates, n - 1)
    candidates = candidate_neighbors(vals, k_cand)

    f = initial_scores
    D = np.square(f[:, None] - f[candidates])
    if k_cand == 1:
        # a single candidate takes probability 1 whatever gamma is
        gammas = np.ones(n)
    else:
        # per-row gamma frozen at the initial distances so the objective is
        # fixed across iterations and the trace stays monotone
        k_nb = min(config.k_neighbors, k_cand - 1)
        gammas = np.array([gamma_for_k(D[i], k_nb) for i in range(n)])

    trace: list[float] = []
    warnings: list[str] = []
    neighbors = None
    prev_outer = None
    converged = False
    iterations = 0
    for _ in range(config.max_outer_iters):
        iterations += 1
        D = np.square(f[:, None] - f[candidates])
        probs = update_neighbor_rows(D, gammas)
        neighbors = NeighborMatrix(candidates=candidates, probs=probs, gamma=gammas)
        trace.append(objective(f, neighbors, labels, gammas, config.lambda_push))

        f, gap, bound = _weight_step(
            f,
            neighbors,
            labels,
            config.lambda_push,
            hi,
            WEIGHT_STEP_MAX_ITERS,
            WEIGHT_STEP_TOL,
        )
        uncertified = bool(gap > bound)
        if uncertified:
            warnings.append(_gap_message(gap, bound))
        trace.append(objective(f, neighbors, labels, gammas, config.lambda_push))

        if prev_outer is not None:
            if prev_outer - trace[-1] < config.tol * max(1.0, abs(prev_outer)):
                converged = True
                break
        prev_outer = trace[-1]

    W = final_weights(w0, vals, f, cap)
    return FitResult(
        weights=W,
        neighbors=neighbors,
        objective_trace=trace,
        scores=row_scores(W, vals),
        initial_scores=initial_scores,
        # a stall of an uncertified step is no sign of an optimum
        converged=converged and not uncertified,
        iterations=iterations,
        warnings=warnings,
    )


def fuse_supervised(S: ScoreMatrix, sup: np.ndarray) -> ScoreMatrix:
    """Append a supervised per-video score as one extra concept column.

    The fused matrix is re-normalized column-wise; already-normalized
    columns are unchanged, so dropping the new column recovers the input.
    """
    sup = np.asarray(sup, dtype=np.float64)
    if sup.shape != (S.n_videos,):
        raise ValueError(f"need {S.n_videos} supervised scores, got {sup.shape}")
    if not np.all(np.isfinite(sup)):
        raise ValueError("supervised scores must be finite")
    fused = ScoreMatrix(
        values=np.hstack([S.values, sup[:, None]]),
        video_ids=list(S.video_ids),
        l=S.l,
        u=S.u,
        concept_ids=list(S.concept_ids) + [SUPERVISED_COLUMN_ID],
    )
    return normalize_scores(fused)

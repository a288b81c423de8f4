"""The weight step of ``fit``: one convex QP in the scores, solved exactly.

For fixed neighbor probabilities the objective sees the weights only
through the scores f_i = w_i . s_i, and the weight constraints only through
each score's box 0 <= f_i <= cap * max_k s_ik.  The push term depends on
the negatives only through the top negative's score, so the step is a
quadratic program in the scores, that level and one hinge slack per
positive whose hinge can clip (``_ScoreQP``).  ``_interior_point`` solves
it and returns a duality gap certified over every score at the lifted
point; ``update_scores`` warns of a step whose gap is above its tolerance,
and ``fit`` counts it.  Where the optimum is not unique, the solved one is
moved in closed form to an optimum whose gaps do not grow with where the
solver closed an open box (``_compress_gaps``), then toward the input
scores (``_nearest_shift``).

Unlabelled scores meet only the graph term, so the QP is solved over the
labelled scores and the few unlabelled ones whose box binds; every other
score is eliminated as the harmonic extension of the kept ones (a Kron
reduction, Dorfler & Bullo, IEEE TCS 2013), with its box dropped.  Which
boxes bind is found by seed and verify.  A step starts from the rows whose
input score sits at its top, the last step's active tops (``_weight_step``).
Each round solves the relaxed QP with a Mehrotra interior point
(``_mehrotra``), on one slack vector s and one multiplier vector z with
an entry per inequality, bound or row, and lifts the result; a row whose
lift reaches its top joins the kept rows, and another round follows.  By
the maximum principle of the harmonic extension (Zhu, Ghahramani &
Lafferty, ICML 2003) a lift never passes the highest kept score, so the
relaxation only drops upper bounds, and an optimum of it that is feasible
is the optimum of the full QP; the gap is then certified against the full
QP.  Most steps take one or two rounds.

Every matrix of the step belongs to one object, ``_KronLaplacian``, built
once per step.  The step sees one graph, the edges with a_ij > 0 (the
neighbor step leaves no rounding-level ones): P, its Laplacian on the free
scores, is built from the edge list (``_laplacian``), so no n x n adjacency
is formed, its components are labelled once (``_components``), and it is
factored once (``_harmonic_split``), on the rows every round keeps.  A row
that joins in a later round is moved back with a correction of the rank
of the rows moved, not a second factor.  The QP reaches the graph only
through the object's matvec by the Schur complement S, its factor of the
bordered Newton block, the lift of the kept scores, the residual P f and
the certificate's curvature split.  Each dense matrix the object factors
(every Newton block on the kept scores, the eliminated block of P, and the
Schur complement grounded on one row of each flat component) goes through
``_cholesky_inverse``, a recursive block Cholesky that does its work in
matrix products and overwrites the matrix with its inverse factor; only
the small triangular factor of the moved rows comes from ``np.linalg.qr``.
So a step holds P, the eliminated block's factor, S and its grounded
factor, and one Newton matrix or factor; no factor spans every free score,
and there is no eigendecomposition.
"""

from __future__ import annotations

from warnings import warn

import numpy as np

from .graph import NeighborMatrix
from .query import PseudoLabels

# relative duality gap that every weight step of ``fit`` is certified to
WEIGHT_STEP_TOL = 1e-9
# an input score within this fraction of its top starts the weight step kept
_AT_TOP = WEIGHT_STEP_TOL**0.5
# interior-point iterations that a weight step of ``fit`` may take
WEIGHT_STEP_MAX_ITERS = 500


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
    # one scatter over the entries (a, b), then (b, a): the same additions
    # in the same order as two np.add.at calls, in one pass.  With no edge
    # inside ``free`` np.bincount returns integers
    P = np.bincount(
        np.concatenate([a * nf + b, b * nf + a]),
        weights=np.concatenate([w_in, w_in]),
        minlength=nf * nf,
    ).astype(np.float64, copy=False).reshape(nf, nf)
    # an edge with one end pinned adds its weight to the free end only
    out_i, out_j = (i >= 0) & (j < 0), (j >= 0) & (i < 0)
    pinned = np.bincount(
        np.concatenate([i[out_i], j[out_j]]),
        weights=np.concatenate([w[out_i], w[out_j]]),
        minlength=nf,
    )
    P[np.diag_indices(nf)] = -P.sum(axis=1) + pinned
    return P


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


def _harmonic_split(P: np.ndarray, kept: np.ndarray) -> tuple:
    """(B, H, w, S, Li): the rows of P to keep, the rows to eliminate as the
    harmonic extension  f_H = w f_B  of the kept ones, the Schur complement
    S = P_BB + P_BH w,  the curvature of  f'Pf / 2  in f_B once f_H is
    eliminated (a Kron reduction), and the inverse Cholesky factor Li of
    P_HH, with which the certificate measures the eliminated rows.

    ``kept`` masks the rows to keep.  For a row that meets no term but P's,
    the best score given f_B is  w f_B  with  w = -P_HH^-1 P_HB  (Zhu,
    Ghahramani & Lafferty, ICML 2003).  P is a Laplacian plus a nonnegative
    diagonal, so w >= 0 and each row of w sums to at most 1 (the maximum
    principle): a lift never passes the highest kept score.  A row whose
    weights sum to at most ``_LIFT_FLOOR`` would be lifted onto the bottom
    of its box, so it moves to B and w is built again (moving rows to B
    only raises the other rows' sums).  No box top is tested here: the
    rows whose top binds are found after a solve, by lifting it
    (``_interior_point``), and moved back without a second split
    (``_KronLaplacian.reduce``).  If P_HH cannot be factored, every row is
    kept, and S is P itself.
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
        low = w.sum(axis=1) <= _LIFT_FLOOR
        if not np.any(low):
            S = P[np.ix_(B, B)]
            S -= G.T @ G
            return B, H, w, S, Li
        kept[H[low]] = True


class _KronLaplacian:
    """The graph term of one weight step on its free scores, Kron-reduced
    onto the kept ones: every matrix and factor the step uses.

    Built from the neighbor graph, the free rows ``free``, the mask
    ``labelled`` of the videos the push loss sees and the free rows' box
    tops ``top``.  P = 4 L[free, free] (``_laplacian``) is the curvature of
    the smoothness term, and ``group`` labels the components of the graph
    over every video (``_components``).  A free score's component is flat
    when it holds no pinned video: ``flat`` lists those free rows,
    ``member`` numbers their components and ``size`` counts them.  Their
    indicators span the null space of P.

    P is split once (``_harmonic_split``), keeping the rows that ``_kept``
    masks: the labelled ones, and those of flat components without a label
    (P does not fix their level, so they would make P_HH singular).  The
    split keeps ``base``, eliminates ``elim`` with the harmonic weights
    ``w`` and the inverse factor ``Li_H`` of P_HH, and leaves the Schur
    complement ``S_base``.  ``reduce`` moves eliminated rows M back
    among the kept ones without a second factor of P: the harmonic
    extension with f_M held is  w f_B + K_M T (f_M - w_M f_B),  with
    K = P_HH^-1 = Li_H' Li_H  and  T = (K_MM)^-1,  which is the Schur
    complement of P_HH onto M.  So the Schur complement on B + M is
    [[S_base + w_M' T w_M, -w_M' T], [-T w_M, T]],  and the eliminated
    rows' curvature loses  v' T v,  v = K_M' r,  to M.  T = Li_M' Li_M
    comes from the QR factor R of  Li_H[:, M]  (K_MM = R'R, Li_M = R^-T),
    so its conditioning is that of Li_H's columns, not their square.

    The kept scores f_B (``keep``, masked by ``kept``) are the rows the QP
    solves for; the others (``drop``) meet only the graph term and follow as
    their harmonic extension.  S is the Schur complement of P on f_B, nf
    counts the kept scores and ``col`` gives each video's column among them
    (-1 for none).  ``Li_S`` is the inverse factor of S grounded on one kept
    row of each flat component (``ground``), or None when it cannot be
    factored.  ``ceiling`` holds the tops of the relaxed QP over f_B: each
    eliminated row's top raised to at least the highest kept one, which no
    lift reaches (the maximum principle), so no eliminated box binds.
    ``reached`` masks the eliminated rows whose lift reaches their own top.

    The QP sees the graph only through ``matvec``, ``factor``, ``lift``,
    ``residual`` and ``split``.
    """

    def __init__(
        self, neighbors: NeighborMatrix, free: np.ndarray, labelled: np.ndarray, top: np.ndarray
    ):
        self.free, self.labelled, self.top = free, labelled, top
        self.P = _laplacian(neighbors, free)
        group = self.group = _components(neighbors)
        # a flat component holds no pinned video
        flat = ~np.isin(group[free], np.delete(group, free))
        self.flat = np.flatnonzero(flat)
        self.member = np.unique(group[free][flat], return_inverse=True)[1]
        self.size = np.bincount(self.member)
        required = self._kept()
        self.base, self.elim, self.w, self.S_base, self.Li_H = _harmonic_split(self.P, required)
        self.reduce(required)

    def _kept(self) -> np.ndarray:
        """The free rows that the split of P must keep: the labelled ones,
        and every row of a flat component that holds none of them."""
        kept = self.labelled[self.free]
        held = np.bincount(self.member, weights=kept[self.flat], minlength=self.size.shape[0])
        kept[self.flat[held[self.member] == 0.0]] = True
        return kept

    def reduce(self, kept: np.ndarray) -> None:
        """Keep the eliminated rows that ``kept`` masks as well as ``base``;
        the last reduction's S and factor are released before the new ones
        are built."""
        self.S = self.Li_S = None
        moved = self.moved = np.flatnonzero(kept[self.elim])
        self.drop = np.delete(self.elim, moved)
        self.kept = np.zeros(self.free.shape[0], dtype=bool)
        self.kept[self.base] = True
        self.kept[self.elim[moved]] = True
        keep = self.keep = np.flatnonzero(self.kept)
        nf = self.nf = keep.shape[0]
        at_b = self.at_b = np.searchsorted(keep, self.base)
        at_m = self.at_m = np.searchsorted(keep, self.elim[moved])
        if moved.shape[0] == 0:
            self.S = self.S_base
            self.Li_M = self.Y = self.U = None
        else:
            Z = self.Li_H[:, moved]
            Li_M = self.Li_M = np.linalg.inv(np.linalg.qr(Z, mode="r")).T
            self.U = (self.Li_H.T @ Z) @ Li_M.T  # K_M Li_M'
            Y = self.Y = Li_M @ self.w[moved]  # Li_M w_M
            S = self.S = np.empty((nf, nf))
            S[np.ix_(at_b, at_b)] = self.S_base + Y.T @ Y
            C = -(Li_M.T @ Y)  # -T w_M
            S[np.ix_(at_m, at_b)] = C
            S[np.ix_(at_b, at_m)] = C.T
            S[np.ix_(at_m, at_m)] = Li_M.T @ Li_M
        col = self.col = np.full(self.labelled.shape[0], -1)
        col[self.free[keep]] = np.arange(nf)
        self.ceiling = self.top.copy()
        self.ceiling[self.drop] = np.maximum(self.top[self.drop], self.top[keep].max(initial=0.0))
        # each flat component has a kept row: its labelled rows or all of it
        at = col[self.free[self.flat]]
        first = np.unique(self.member[at >= 0], return_index=True)[1]
        self.ground = at[at >= 0][first]
        try:
            self.Li_S = _cholesky_inverse(self._grounded())
        except np.linalg.LinAlgError:
            # an edge can be weak enough to make the grounded S numerically
            # singular; the certificate then uses only the linear bound,
            # which needs no factor
            self.Li_S = None

    def reached(self, f_b: np.ndarray) -> np.ndarray:
        """Mask of the free rows eliminated by the split whose lift from the
        kept scores f_b reaches their top."""
        out = np.zeros(self.free.shape[0], dtype=bool)
        f = self.lift(f_b)
        out[self.drop] = f[self.drop] >= self.top[self.drop]
        return out

    def _grounded(self) -> np.ndarray:
        """A copy of S with each ``ground`` row and column set to the identity's."""
        Sg = self.S.copy()
        Sg[self.ground, :] = 0.0
        Sg[:, self.ground] = 0.0
        Sg[self.ground, self.ground] = 1.0
        return Sg

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """S v, for v over the kept scores."""
        return self.S @ v

    def residual(self, f: np.ndarray) -> np.ndarray:
        """P f, the gradient of  f'Pf / 2,  for f over the free scores."""
        return self.P @ f

    def lift(self, f_b: np.ndarray) -> np.ndarray:
        """The free scores of the kept scores f_b: f_b and its harmonic
        extension, computed over ``elim`` with the moved rows held at f_b."""
        f = np.empty(self.free.shape[0])
        f[self.keep] = f_b
        g = self.w @ f_b[self.at_b]
        if self.U is not None:
            g += self.U @ (self.Li_M @ (f_b[self.at_m] - g[self.moved]))
        f[self.drop] = np.delete(g, self.moved)
        return f

    def factor(self, diag: np.ndarray, ends: np.ndarray, c: np.ndarray):
        """A function that solves with the bordered (nf + 1) x (nf + 1) matrix
        K over (f_B, t): S on the kept scores, plus diag, plus for each row
        +-(f_v - t) (v in ``ends``, weight c_v) c_v at (v, v) and -c_v at
        (v, t) and (t, v); diag's last entry carries the whole (t, t) entry.

        K is positive semidefinite and nearly singular along directions in
        which the optimum is degenerate (shifting every score and t together
        changes no term when no bound is active); Jacobi scaling with a tiny
        ridge keeps its inverse Cholesky factor (``_cholesky_inverse``)
        stable.  K is overwritten by its factor, so one Newton matrix or
        factor is alive while the caller holds one returned function.
        """
        nf = t = self.nf
        ny = nf + 1
        K = np.zeros((ny, ny))
        K[:nf, :nf] = self.S
        K[np.diag_indices(ny)] += diag
        K[ends, ends] += c
        K[ends, t] -= c
        K[t, ends] -= c
        d = np.sqrt(np.maximum(np.diag(K), 1e-300))
        K /= d[:, None]
        K /= d[None, :]
        K[np.diag_indices(ny)] += 1e-12
        Li = _cholesky_inverse(K)
        return lambda r: (Li.T @ (Li @ (r / d))) / d

    def split(self, r: np.ndarray) -> tuple[np.ndarray, float]:
        """(flat, curved) for r over the free scores: the projection of r
        onto the null space of P (its mean on each flat component) and
        r_c' P^+ r_c / 2  for the rest r_c = r - flat (inf when the
        grounded S could not be factored).

        Block elimination of  P y = r_c  over (f_B, f_H) gives
          r_c' P^+ r_c = r_H' P_HH^-1 r_H + r^' S^+ r^,   r^ = r_B + w' r_H,
        with r_B and r_H the kept and eliminated rows of r_c and w the
        harmonic weights of the eliminated rows.  With r_H set in ``elim``
        and 0 on the moved rows M, the first term is  |Li_H r_H|^2 - |c|^2,
        c = Li_M K_M' r_H,  and w' r_H is  w' r_H - Y' c  on ``base`` and
        Li_M' c  on M, with the split's own w (see the class).  r^ is
        orthogonal to the null space of S, as r_c is to that of P, so with
        its grounded entries zeroed the grounded system solves  S y = r^  up
        to a constant on each flat component, which r^ does not see:
        r^' S^+ r^ = |Li_S r^|^2.
        """
        flat = np.zeros_like(r)
        means = np.bincount(self.member, weights=r[self.flat], minlength=self.size.shape[0])
        flat[self.flat] = (means / self.size)[self.member]
        if self.Li_S is None:
            return flat, np.inf
        r_c = r - flat
        r_h = r_c[self.elim]
        r_h[self.moved] = 0.0
        r_hat = r_c[self.keep]
        r_hat[self.at_b] += self.w.T @ r_h
        curved = np.sum(np.square(self.Li_H @ r_h))
        if self.U is not None:
            c = self.U.T @ r_h
            r_hat[self.at_b] -= self.Y.T @ c
            r_hat[self.at_m] += self.Li_M.T @ c
            curved -= np.sum(np.square(c))
        r_hat[self.ground] = 0.0
        curved += np.sum(np.square(self.Li_S @ r_hat))
        return flat, 0.5 * float(curved)


class _ScoreQP:
    """The weight step for fixed neighbor probabilities, as a QP over
    x = (f_B, t, xi).

    Every hinge  (1 - f_{p_i} + f_{n_j})_+  grows with f_{n_j}, so the push
    loss  max_j mean_i (1 - f_{p_i} + f_{n_j})_+  is the mean hinge of each
    positive against the top negative alone (Li, Jin & Zhou, *Top Rank
    Optimization in Linear Time*, NIPS 2014).  The QP minimizes
    1/2 f'Sf + lin'x + const  over the kept free scores f, the level t of
    the top negative and one hinge slack xi_i per clipped positive, subject
    to  f, xi >= 0,  f <= up  (the kept scores' tops) and the rows

      f_{n_j} - t <= 0                                 (each negative j)
      t - f_{p_i} - xi_i <= -1                         (i in C)

    Each bound and row, in that order, is one entry of  G x + s = h,
    s >= 0:  ``ineq`` is G x, ``ineq_t`` its adjoint and ``slack`` h - G x,
    and ``start`` gives one multiplier per entry of s.  The level t has no
    bound.

    Videos whose score box is [0, 0] are pinned and left out (``free``
    holds the others), and a box without a top (no cap) is closed at n
    (see ``update_scores``).  Positives whose score cannot exceed 1 never
    clip their hinges against the nonnegative level t, so those hinges
    enter linearly: U is the set of those positives, C the others,
    a = |U|/p, and the objective is
    2 f'Lf - (lam/p) sum_U f + lam a t + (lam/p) sum_C xi + lam a.  With
    the default cap and scores in [0, 1], C is empty and x = (f, t).

    The graph term lives in ``lap`` (``_KronLaplacian``): x holds only the
    nf kept scores f_B, every other free score is their harmonic extension,
    and S is the Schur complement of P on f_B.  So the QP over x is the QP
    over every free score with the eliminated rows' boxes dropped, a
    relaxation: a lift stays inside the box ``lap.ceiling`` gives it, but
    can pass its own top.  ``reduce`` keeps more rows.  Where every lift
    lies strictly inside its own box, the two QPs share their optimum.
    ``gap`` certifies the lifted point against the full QP, or the relaxed
    one with the tops ``lap.ceiling``, with P as it is: the bound holds at
    any strictly feasible primal-dual point, wherever it came from.

    Neither G nor the rows A are formed as a matrix.  Each slack sits in one
    hinge row, so ``newton`` eliminates the slacks and factors only an
    (nf + 1) x (nf + 1) system.
    """

    def __init__(
        self, neighbors: NeighborMatrix, labels: PseudoLabels, lambda_push: float, hi: np.ndarray
    ):
        self.n = hi.shape[0]
        hi = np.where(np.isinf(hi), float(self.n), hi)
        self.neighbors, self.labels = neighbors, labels
        pos = self.pos = np.asarray(labels.positives)
        neg = self.neg = np.asarray(labels.negatives)
        self.lam = float(lambda_push)
        free = self.free = np.flatnonzero(hi > 0.0)
        self.top = hi[free]
        labelled = np.isin(np.arange(self.n), np.concatenate([pos, neg]))
        self.lap = _KronLaplacian(neighbors, free, labelled, self.top)
        p = pos.shape[0]
        self.n_epi = neg.shape[0]
        clip = hi[pos] > 1.0
        self.unclipped, self.clipped = pos[~clip], pos[clip]
        a = self.unclipped.shape[0] / p
        self.const = self.lam * a  # also the cost of t
        self.slack_cost = self.lam / p
        self._index()

    def reduce(self, kept: np.ndarray) -> None:
        """Keep the free rows that ``kept`` masks as well, from here on
        (``_KronLaplacian.reduce``)."""
        self.lap.reduce(kept)
        self._index()

    def _index(self) -> None:
        """The cost, bounds and row indices over the kept scores of ``lap``."""
        lap, neg = self.lap, self.neg
        nf = self.nf = lap.nf
        col = lap.col
        n_clip = self.clipped.shape[0]
        self.t = nf
        self.lin = np.zeros(nf + 1 + n_clip)
        linear = self.unclipped[col[self.unclipped] >= 0]
        self.lin[col[linear]] = -self.slack_cost
        self.lin[self.t] = self.const
        self.lin[nf + 1 :] = self.slack_cost
        self.up = self.top[lap.keep]
        # rows: one per negative, then one hinge row per clipped positive
        self.b = np.concatenate([np.zeros(self.n_epi), np.full(n_clip, -1.0)])
        self.hp = col[self.clipped]
        self.n_free = col[neg] >= 0
        self.hn = col[neg[self.n_free]]
        # the bounds: -x_j <= 0 on every entry but t, then f_j <= up_j
        self.box = np.concatenate([np.delete(np.arange(self.lin.shape[0]), nf), np.arange(nf)])
        self.sign = np.concatenate([np.full(nf + n_clip, -1.0), np.ones(nf)])
        self.h = np.concatenate([np.zeros(nf + n_clip), self.up, self.b])

    def value(self, f: np.ndarray) -> float:
        """Smoothness + push at the scores f, in the objective's arithmetic."""
        push = push_loss_from_scores(f, self.labels)
        return smoothness_value(f, self.neighbors) + self.lam * push

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

    def ineq(self, x: np.ndarray) -> np.ndarray:
        """G x, the left-hand sides of every inequality  G x <= h:  the
        bounds' ``sign * x[box]``, then the rows A x."""
        return np.concatenate([self.sign * x[self.box], self.rows(x)])

    def ineq_t(self, v: np.ndarray) -> np.ndarray:
        """The adjoint G' v of ``ineq``."""
        nb = self.box.shape[0]
        bounds = np.bincount(self.box, weights=self.sign * v[:nb], minlength=self.lin.shape[0])
        return bounds + self.rows_t(v[nb:])

    def slack(self, x: np.ndarray) -> np.ndarray:
        """The slacks  s = h - G x  of every inequality at x."""
        return self.h - self.ineq(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = self.lin.copy()
        g[: self.nf] += self.lap.matvec(x[: self.nf])
        return g

    def objective(self, x: np.ndarray) -> float:
        f = x[: self.nf]
        return 0.5 * float(f @ self.lap.matvec(f)) + float(self.lin @ x) + self.const

    def newton(self, d_rows: np.ndarray, d_diag: np.ndarray):
        """A function that solves with the Newton matrix  H = S + A' diag(d_rows) A + diag(d_diag).

        Each slack sits in one hinge row and its own bound, so eliminating
        it leaves the row acting on (f_{p_i}, t) with the series weight of
        the row and the bound.  Every remaining row is then  +-(f_v - t), so
        the (f, t) matrix is S plus the diagonal plus each row's weight at
        (v, v) and (t, t) and, negated, at (v, t) and (t, v), which
        ``_KronLaplacian.factor`` factors.  Two refinement passes against H
        itself restore accuracy in every direction that changes the
        objective.  The caller drops the returned function before it asks
        for the next, so one Newton matrix or factor is alive.  The returned
        function keeps the single unrefined pass as its ``eliminate``
        attribute, so the elimination can be checked alone.
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
        diag = d_diag[:ny].copy()
        diag[t] += d_e.sum() + w.sum()
        solve_y = self.lap.factor(
            diag, np.concatenate([self.hn, hp]), np.concatenate([d_e[self.n_free], w])
        )

        def eliminate(r: np.ndarray) -> np.ndarray:
            r_y = r[:ny].copy()
            u = rho * r[ny:]
            r_y[hp] -= u
            r_y[t] += u.sum()
            dy = solve_y(r_y)
            dx = (r[ny:] + d_h * (dy[t] - dy[hp])) / e
            return np.concatenate([dy, dx])

        def hmul(v: np.ndarray) -> np.ndarray:
            out = self.rows_t(d_rows * self.rows(v)) + d_diag * v
            out[:nf] += self.lap.matvec(v[:nf])
            return out

        def solve(r: np.ndarray) -> np.ndarray:
            x = eliminate(r)
            for _ in range(2):
                x += eliminate(r - hmul(x))
            return x

        solve.eliminate = eliminate
        return solve

    def start(self):
        """Strictly feasible primal-dual point (x, z): mid-box scores, the
        level t one above the top negative score, unit row slacks, and
        multipliers z, in the order of ``ineq``, that make every variable
        stationary."""
        nf, n_epi = self.nf, self.n_epi
        x = np.zeros(self.lin.shape[0])
        x[:nf] = 0.5 * self.up
        x[self.t] = float(np.max(self.rows(x)[:n_epi])) + 1.0
        x[nf + 1 :] = np.maximum(self.rows(x)[n_epi:] - self.b[n_epi:], 0.0) + 1.0
        # each slack passes half of its cost to its hinge row and half to
        # its lower bound; the level t has cost lam a and no curvature, so
        # the negatives' rows carry lam a plus the hinge multipliers
        z_a = np.empty(self.b.shape[0])
        z_a[n_epi:] = 0.5 * self.slack_cost
        z_a[:n_epi] = (self.const + z_a[n_epi:].sum()) / n_epi
        # the score boxes absorb the rest; at mid-box equal offsets cancel
        r = (self.grad(x) + self.rows_t(z_a))[:nf]
        offset = (self.lam / n_epi) / x[:nf]
        return x, np.concatenate(
            [np.maximum(r, 0.0) + offset, z_a[n_epi:], np.maximum(-r, 0.0) + offset, z_a]
        )

    def gap(self, x: np.ndarray, z_a: np.ndarray, top: np.ndarray | None = None) -> float:
        """Certified bound on objective(x) - optimum, or inf if x is not
        strictly feasible; both over every free score, at the lifted scores,
        with the free scores' boxes closed at ``top`` (by default their own
        tops: the full QP; ``lap.ceiling`` gives the relaxed QP).

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
        f, xi = self.lap.lift(x[:nf]), x[nf + 1 :]
        s_a = self.b - self.rows(x)
        s_up = (self.top if top is None else top) - f
        if min(s_a.min(), f.min(initial=1.0), s_up.min(initial=1.0), xi.min(initial=1.0)) <= 0.0:
            return np.inf
        z = np.maximum(z_a, 0.0)
        z[n_epi:] = np.minimum(z[n_epi:], self.slack_cost)
        z[:n_epi] *= (self.const + z[n_epi:].sum()) / z[:n_epi].sum()
        r = self.lap.residual(f)
        r[self.lap.keep] += (self.lin + self.rows_t(z))[:nf]

        def box_term(g):
            return float(f @ np.maximum(g, 0.0) + s_up @ np.maximum(-g, 0.0))

        flat, curved = self.lap.split(r)
        fall = min(box_term(r), curved + box_term(flat))
        return float(s_a @ z + xi @ (self.slack_cost - z[n_epi:])) + fall

    def scores(self, x: np.ndarray) -> np.ndarray:
        f = np.zeros(self.n)
        f[self.free] = np.clip(self.lap.lift(x[: self.nf]), 0.0, self.top)
        return f


def _interior_point(qp: _ScoreQP, tol: float, max_iters: int) -> tuple[np.ndarray, float]:
    """The QP over every free score, solved in rounds over the kept ones.

    Each round solves the relaxed QP that ``qp`` holds: the eliminated
    scores follow as the harmonic extension of the kept ones, and their
    boxes are dropped (``_mehrotra``).  A row whose lift then reaches its
    top joins the kept rows (``_ScoreQP.reduce``), and the next round
    solves again.  Once every lift lies strictly inside its box, the relaxed
    optimum is feasible for the full QP, so it is the full optimum.  Returns
    the last round's iterate and the gap of the full QP there.  The kept
    rows only grow, so at worst every free row is kept.
    """
    while True:
        x, gap = _mehrotra(qp, tol, max_iters)
        reached = qp.lap.reached(x[: qp.nf])
        if not np.any(reached):
            return x, gap
        qp.reduce(qp.lap.kept | reached)


def _mehrotra(qp: _ScoreQP, tol: float, max_iters: int) -> tuple[np.ndarray, float]:
    """Mehrotra predictor-corrector from the QP's strictly feasible start.

    Every bound and row of the QP is one inequality of  G x + s = h
    (``_ScoreQP.ineq``), so the method carries one slack vector s = h - G x,
    recomputed from x, and one multiplier vector z > 0: each iteration
    takes one complementarity s'z, one Newton matrix with  D = z / s  split
    into its rows' and its bounds' weights, and, for the predictor and
    then the corrector, one residual, one ratio test on s and one on z.
    Solves the relaxed QP over the kept scores: its certified gap
    (``_ScoreQP.gap`` with the tops ``lap.ceiling``) guards each step, and
    the method stops when that gap is at most tol * max(1, |objective|),
    when it has stopped shrinking (three iterations in a row that leave it
    above 0.9 times its best value and above the iterate's complementarity
    s'z, which the gap tracks until it reaches its rounding floor), or after
    max_iters iterations.  It also stops once the gap is at most
    sqrt(tol) * max(1, |objective|) and the best iterate's lift reaches an
    eliminated row's top (``lap.reached``), since the caller then solves
    again with that row kept.  Returns the iterate with the smallest relaxed
    gap and the gap of the full QP there, which is at most the relaxed one
    when every lift lies strictly inside its own box and inf when one does
    not; the caller decides what a gap above tolerance means.
    """
    nb = qp.box.shape[0]

    def max_step(v, dv):
        shrink = dv < 0.0
        if not np.any(shrink):
            return 1.0
        return min(1.0, float(np.min(-v[shrink] / dv[shrink])))

    ceiling = qp.lap.ceiling
    x, z = qp.start()
    best_x, best_z, best_gap = x, z, qp.gap(x, z[nb:], ceiling)
    gap, slow, stalled = best_gap, False, 0
    for _ in range(max_iters):
        s = qp.slack(x)
        comp = float(s @ z)
        # a gap that stops shrinking although the complementarity has fallen
        # below it has reached rounding level; above it, the gap can swing
        # while the iterate still converges
        stalled = stalled + 1 if slow and gap > comp else 0
        scale = max(1.0, abs(qp.objective(best_x)))
        if best_gap <= tol * scale or stalled >= 3:
            break
        # once a lift has passed its top this close to the optimum, its row
        # joins the kept ones and the next round solves again, so this
        # round's last digits would be thrown away
        if best_gap <= tol**0.5 * scale and np.any(qp.lap.reached(best_x[: qp.nf])):
            break
        r_d = qp.grad(x) + qp.ineq_t(z)
        mu = comp / s.shape[0]

        def direction(rc):
            # Newton step on the perturbed KKT system, s and z eliminated
            dx = solve(qp.ineq_t(rc / s) - r_d)
            ds = -qp.ineq(dx)
            dz = -(rc + z * ds) / s
            return dx, ds, dz, min(max_step(s, ds), max_step(z, dz))

        try:
            solve = None  # drop the last factor before the next matrix is built
            d = z / s
            solve = qp.newton(d[nb:], np.bincount(qp.box, weights=d[:nb], minlength=x.shape[0]))
            dx, ds, dz, alpha = direction(s * z)
            mu_aff = float((s + alpha * ds) @ (z + alpha * dz)) / s.shape[0]
            sigma_mu = (mu_aff / mu) ** 3 * mu
            dx, ds, dz, alpha = direction(s * z + ds * dz - sigma_mu)
        except np.linalg.LinAlgError:
            break
        # near the boundary, rounding can put a full fraction-to-boundary
        # step outside the feasible set: shorten it until it is inside
        alpha *= 0.99
        for _ in range(8):
            x_new, z_new = x + alpha * dx, z + alpha * dz
            gap = qp.gap(x_new, z_new[nb:], ceiling)
            if np.isfinite(gap):
                break
            alpha *= 0.5
        else:
            break
        x, z = x_new, z_new
        # a gap that shrinks steadily, if slowly, is still converging
        slow = gap > 0.9 * best_gap
        if gap < best_gap:
            best_x, best_z, best_gap = x, z, gap
    return best_x, qp.gap(best_x, best_z[nb:])


def update_scores(
    f_in: np.ndarray, neighbors: NeighborMatrix, labels: PseudoLabels, lambda_push: float,
    hi: np.ndarray, max_iters: int = WEIGHT_STEP_MAX_ITERS, tol: float = WEIGHT_STEP_TOL,
) -> np.ndarray:
    """Exact weight step, solved as a quadratic program in score space.

    The subproblem objective depends on the weights only through the
    per-video scores f_i = w_i . s_i, and the weight constraint set maps
    to the box 0 <= f_i <= hi_i = cap * max_k s_ik (``score_box_top``).
    Writing the push loss as the mean hinge against the level t of the
    top negative (with one hinge slack per positive whose hinge can clip,
    see ``_ScoreQP``) makes the step a convex QP.  Only the push term sees
    the pseudo-labelled scores; an unlabelled score whose box does not bind
    is the harmonic extension of the others.  So the QP is solved in rounds
    over the pseudo-labelled scores, the unlabelled ones that hold a level
    of their own, and the unlabelled ones whose box binds, with the rest
    eliminated and their boxes dropped (``_harmonic_split``).  The first
    round also keeps the rows whose input score sits at its top, and each
    round adds the rows whose lifted score reaches its top
    (``_weight_step``, ``_interior_point``).  An interior-point method
    solves each round until the duality gap of its iterate is at most
    ``tol * max(1, |objective|)``.  Once no lift reaches its top, the gap
    of the last round's point, lifted back to every score, is a certified
    bound on its distance to the optimum of the QP over every score.  A
    step that spends ``max_iters`` iterations, or whose gap stops
    shrinking, before it gets there raises a ``RuntimeWarning`` that
    states the gap.

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
    if not gap <= bound:  # a NaN gap certifies nothing
        warn(_gap_message(gap, bound), RuntimeWarning, stacklevel=2)
    return f


def _weight_step(f_in, neighbors, labels, lambda_push, hi, max_iters, tol):
    """``update_scores`` with its certificate: returns (f, gap, bound),
    where gap bounds the distance of the solved scores to the optimum and
    bound is the tolerance it was asked to meet.

    One QP is built (``_ScoreQP``) and solved in rounds over the kept
    scores (``_interior_point``).  The first round keeps the rows every
    split keeps and the free rows whose input score lies within ``_AT_TOP``
    of its top, relative to it: the last step's active tops, most of which
    stay active.  The scores it eliminates follow as their harmonic
    extension, and the closed-form moves below act on every score."""
    qp = _ScoreQP(neighbors, labels, lambda_push, hi)
    seed = qp.top - f_in[qp.free] <= _AT_TOP * qp.top
    if np.any(seed & ~qp.lap.kept):
        qp.reduce(qp.lap.kept | seed)
    x, gap = _interior_point(qp, tol, max_iters)
    bound = tol * max(1.0, abs(qp.objective(x)))
    f = _nearest_shift(qp.lap, _compress_gaps(qp.scores(x)), f_in, hi)
    if qp.value(f) <= qp.value(f_in):
        return f, gap, bound
    return f_in, gap, bound


def _gap_message(gap: float, bound: float) -> str:
    return f"weight step stopped at certified gap {gap:.3g}, above its tolerance {bound:.3g}"


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
    lap: _KronLaplacian, f: np.ndarray, f0: np.ndarray, hi: np.ndarray
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
    group = np.where(np.isin(lap.group, lap.group[lap.labelled]), n, lap.group)
    size = np.bincount(group, minlength=n + 1)
    move = np.bincount(group, weights=f0 - f, minlength=n + 1) / np.maximum(size, 1)
    lo = np.full(n + 1, -np.inf)
    up = np.full(n + 1, np.inf)
    np.maximum.at(lo, group, -f)
    np.minimum.at(up, group, hi - f)
    return np.clip(f + np.clip(move, lo, up)[group], 0.0, hi)

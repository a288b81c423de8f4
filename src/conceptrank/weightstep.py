"""The weight step of ``fit``: one convex QP in the scores, solved exactly.

For fixed neighbor probabilities the objective sees the weights only
through the scores f_i = w_i . s_i, and the weight constraints only through
each score's box 0 <= f_i <= cap * max_k s_ik.  The push term depends on
the negatives only through the top negative's score, so the step is a
quadratic program in the scores and that level t (``_ScoreQP``), with the
hinge of each positive whose hinge can clip in closed form.
``_solve_rounds`` solves it and returns a duality gap certified over every
score at the lifted point;
``_weight_step``, the one entry, returns that gap with its tolerance, and
``fit`` judges and counts it.  Where the optimum is not unique, the solve
holds each level that no term fixes at the input scores, and the solved
optimum is then moved in closed form to one without gaps above 1 between
sorted scores (``_compress_gaps``), then toward the input scores
(``_nearest_shift``).  This module holds the QP only: the objective the
step descends lives in ``composer``.

Unlabelled scores meet only the graph term, so the QP is solved over the
labelled scores and the few unlabelled ones whose box binds; every other
score is eliminated as the harmonic extension of the kept ones (a Kron
reduction, Dorfler & Bullo, IEEE TCS 2013), with its box dropped.  Which
boxes bind is found by seed and verify.  The one split of P already keeps
the rows whose input score sits at its top, the last step's active tops,
so the first round moves no rows.  Each round solves the relaxed QP, the
QP with the eliminated rows' boxes dropped, and lifts the result; a row
whose lift reaches its top joins the kept rows, and another round follows.
Each round is solved exactly (``_active_set``): a primal-dual active set
over the kept scores' boxes, the negatives' rows and the clipped
positives' kinks, one small linear solve in S per pass, with the
negatives taken as one block.  A capped step starts with t at its floor
0, where every capped optimum seen so far has it; a step whose hinges can
clip starts with t free.  A round that the active set declines, which no
input probed has shown, ends the step at its input scores with an
infinite gap, which ``fit`` reports as an uncertified step.  By the
maximum principle of the harmonic extension (Zhu, Ghahramani & Lafferty,
ICML 2003) a lift never passes the highest kept score, so the relaxation
only drops upper bounds, and an optimum of it whose every lift lies
inside its own box is the optimum of the full QP.  Once a round's lifts
do, its point is certified once, by the duality gap of the full QP.  Most
steps take one or two rounds.

Every matrix of the step belongs to one object, ``_KronLaplacian``, built
once per step.  The step sees one graph, the edges with a_ij > 0 (the
neighbor step leaves no rounding-level ones): P, its Laplacian on the free
scores, is kept as the free rows' edge list (``_EdgeList``), so neither an
n x n adjacency nor P itself is formed.  The graph's components are
labelled once (``_components``), and P is split once
(``_harmonic_split``), on the rows every round keeps, from the blocks
P_HH, P_HB and P_BB that the split builds from the edge list.  A row
that joins in a later round is moved back with a correction of the rank
of the rows moved, not a second factor.  The QP reaches the graph only
through the object's Schur complement S, the lift of the kept scores, the
residual P f and the certificate's curvature split.  Each dense matrix the
object factors (the eliminated block of P, and the Schur complement
grounded on one row of each flat component) goes through
``_cholesky_inverse``, a recursive block Cholesky that does its work in
matrix products and overwrites the matrix with its inverse factor; only
the small triangular factor of the moved rows comes from ``np.linalg.qr``.
So a step holds P's edge list, the eliminated block's factor, and S and
its grounded factor.  Of these only the eliminated block's factor grows
with the square of the free scores' count; S grows with that of the kept
ones.  No factor spans every free score, and there is no
eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from .graph import NeighborMatrix
from .query import PseudoLabels

# relative duality gap that every weight step of ``fit`` is certified to
WEIGHT_STEP_TOL = 1e-9
# an input score within this fraction of its top starts the weight step kept
_AT_TOP = WEIGHT_STEP_TOL**0.5


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
    faster than ``np.linalg.cholesky`` at the weight step's sizes.  L21 is
    written into A21's storage, so one half-size product at a time is held
    beside A.
    """
    n = A.shape[0]
    if n <= _CHOLESKY_LEAF:
        # inv pivots, so it can leave rounding-level entries above the diagonal
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return A
    h = n // 2
    A11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    _cholesky_inverse(A11)
    A21[...] = A21 @ A11.T  # L21
    A22 -= A21 @ A21.T
    _cholesky_inverse(A22)
    np.matmul(A22, A21 @ A11, out=A21)
    A21 *= -1.0
    A[:h, h:] = 0.0
    return A


# rows whose harmonic weights sum to at most this are kept by
# ``_harmonic_split``: their lift would be 0, or rounding noise around it,
# on the bottom of their box
_LIFT_FLOOR = 1e-12


# free rows whose off-diagonal entries ``_EdgeList`` lays out densely at
# once to sum each row's diagonal entry, so no nf x nf array is built
_DIAGONAL_BLOCK = 128


class _EdgeList:
    """P = 4 L[free, free], with L the Laplacian of the symmetrized neighbor
    graph  M = (A + A') / 2,  held as the edge list it is built from.

    Each edge a_ij > 0 with both ends free joins the free rows ``a`` and
    ``b`` (numbered within ``free``, in the order of the neighbor lists)
    with the weight ``w`` = 2 a_ij, which is 4 (a_ij / 2) on each side: it
    adds -w at (a, b) and at (b, a).  A row's candidates are distinct, so
    each off-diagonal entry of P adds at most two values, an edge's and its
    reverse's, and holds the same bits in whatever order they are added.
    An edge with one end pinned adds its weight to ``pinned`` at the free
    end.  Each diagonal entry ``diag`` is minus the ``np.sum`` of its row's
    off-diagonal entries, plus ``pinned``; the rows are laid out densely
    ``_DIAGONAL_BLOCK`` at a time to be summed.  With every row free that
    is  4 M.sum(axis=1)  bit for bit.  A diagonal added edge by edge, in one
    ``np.bincount``, also certifies every step probed and builds in a fifth
    of the time, but it moves the scores by rounding, and converged rankings
    follow such moves through their near-ties, so it waits for rankings that
    depend only on the problem.  ``block`` builds any block of P, and
    ``residual`` multiplies by P, from the list alone.
    """

    def __init__(self, neighbors: NeighborMatrix, free: np.ndarray):
        n, k = neighbors.candidates.shape
        edge = neighbors.probs > 0.0
        nf = self.nf = free.shape[0]
        col = np.full(n, -1)
        col[free] = np.arange(nf)
        i = col[np.repeat(np.arange(n), k)[edge.ravel()]]
        j = col[neighbors.candidates[edge]]
        w = 2.0 * neighbors.probs[edge]
        inner = (i >= 0) & (j >= 0)
        self.a, self.b, self.w = i[inner], j[inner], w[inner]
        out_i, out_j = (i >= 0) & (j < 0), (j >= 0) & (i < 0)
        self.pinned = np.bincount(
            np.concatenate([i[out_i], j[out_j]]),
            weights=np.concatenate([w[out_i], w[out_j]]),
            minlength=nf,
        )
        # the diagonal entries are 0 while the rows are summed
        self.diag = np.zeros(nf)
        every = np.arange(nf)
        diag = np.empty(nf)
        for lo in range(0, nf, _DIAGONAL_BLOCK):
            rows = every[lo : lo + _DIAGONAL_BLOCK]
            diag[rows] = -self.block(rows, every).sum(axis=1) + self.pinned[rows]
        self.diag = diag

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """P[np.ix_(rows, cols)], bit for bit, for index arrays of free rows
        without repeats: the off-diagonal entries inside the block,
        scattered by one np.bincount, and the diagonal entries it holds."""
        at_row = np.full(self.nf, -1)
        at_row[rows] = np.arange(rows.shape[0])
        at_col = np.full(self.nf, -1)
        at_col[cols] = np.arange(cols.shape[0])
        i, j, v = [], [], []
        # each edge's entry at (a, b), then its entry at (b, a)
        for r, c in ((at_row[self.a], at_col[self.b]), (at_row[self.b], at_col[self.a])):
            inside = (r >= 0) & (c >= 0)
            i.append(r[inside])
            j.append(c[inside])
            v.append(-self.w[inside])
        m = cols.shape[0]
        out = np.bincount(
            np.concatenate(i) * m + np.concatenate(j),
            weights=np.concatenate(v),
            minlength=rows.shape[0] * m,
        )
        # with no edge inside the block np.bincount returns integers
        out = out.astype(np.float64, copy=False).reshape(rows.shape[0], m)
        both = (at_row >= 0) & (at_col >= 0)
        out[at_row[both], at_col[both]] = self.diag[both]
        return out

    def residual(self, f: np.ndarray) -> np.ndarray:
        """P f, summed as the edge differences  sum_j w_ij (f_i - f_j) + pinned_i f_i.

        A difference of equal scores is exactly 0, so on a level vector the
        product is exactly its pinned part: P 1 = ``pinned``, and a shift of
        every score moves P f by no rounding of the diagonal against its
        row.  An uncapped step's scores sit near n / 2, where the diagonal
        form  P @ f  carries that rounding times the level into the
        certificate's residual."""
        d = self.w * (f[self.a] - f[self.b])
        out = np.bincount(self.a, weights=d, minlength=self.nf)
        out -= np.bincount(self.b, weights=d, minlength=self.nf)
        return out + self.pinned * f


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


def _harmonic_split(P: _EdgeList, kept: np.ndarray) -> tuple:
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
    (``_solve_rounds``), and moved back without a second split
    (``_KronLaplacian.reduce``).  P_HH, P_HB and P_BB are built from P's
    edge list (``_EdgeList.block``), so P itself is never formed.  If P_HH
    cannot be factored, every row is kept, and S is all of P, the one case
    that builds it.
    """
    kept = kept.copy()
    while True:
        B, H = np.flatnonzero(kept), np.flatnonzero(~kept)
        if H.shape[0] == 0:
            return B, H, np.zeros((0, B.shape[0])), P.block(B, B), np.zeros((0, 0))
        try:
            Li = _cholesky_inverse(P.block(H, H))
        except np.linalg.LinAlgError:
            kept[:] = True
            continue
        G = Li @ P.block(H, B)
        w = -(Li.T @ G)
        low = w.sum(axis=1) <= _LIFT_FLOOR
        if not np.any(low):
            S = P.block(B, B)
            S -= G.T @ G
            return B, H, w, S, Li
        kept[H[low]] = True


class _KronLaplacian:
    """The graph term of one weight step on its free scores, Kron-reduced
    onto the kept ones: every matrix and factor the step uses.

    Built from the neighbor graph, the free rows ``free``, the mask
    ``labelled`` of the videos the push loss sees, the free rows' box tops
    ``top`` and their input scores ``f``.  P = 4 L[free, free] is the
    curvature of the smoothness term.  It is kept as the free rows' edge
    list ``edges`` (``_EdgeList``), never as an nf x nf array: the split
    builds the blocks it factors from that list, and the certificate sums
    P f over it (``_EdgeList.residual``).  ``group`` labels the components
    of the graph over every video (``_components``).  A free score's
    component is flat when it holds no pinned video: ``flat`` lists those
    free rows, ``member`` numbers their components and ``size`` counts
    them.  Their indicators span the null space of P.

    P is split once (``_harmonic_split``), keeping the rows that ``_kept``
    masks, the labelled ones and those of flat components without a label
    (P does not fix their level, so they would make P_HH singular), and
    the seed rows (masked by ``seed``), whose input score lies within
    ``_AT_TOP`` of its top, relative to it: the last step's active tops,
    most of which stay active.  The split keeps ``base``, eliminates
    ``elim`` with the harmonic weights ``w`` and the inverse factor
    ``Li_H`` of P_HH, and leaves the Schur complement ``S_base``.
    ``reduce`` moves eliminated rows M that a later round finds at their
    tops back among the kept ones without a second factor of P: the
    harmonic extension with f_M held is
    w f_B + K_M T (f_M - w_M f_B),  with
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
    factored.  ``reached`` masks the eliminated rows whose lift reaches
    their own top: where it masks none, the lift lies inside every box.

    The QP sees the graph only through S, ``lift``, ``edges.residual`` and
    ``split``.
    """

    def __init__(
        self, neighbors: NeighborMatrix, free: np.ndarray, labelled: np.ndarray, top: np.ndarray,
        f: np.ndarray,
    ):
        self.free, self.labelled, self.top = free, labelled, top
        self.edges = _EdgeList(neighbors, free)
        group = self.group = _components(neighbors)
        # a flat component holds no pinned video
        flat = ~np.isin(group[free], np.delete(group, free))
        self.flat = np.flatnonzero(flat)
        self.member = np.unique(group[free][flat], return_inverse=True)[1]
        self.size = np.bincount(self.member)
        self.seed = top - f <= _AT_TOP * top
        kept = self._kept() | self.seed
        self.base, self.elim, self.w, self.S_base, self.Li_H = _harmonic_split(self.edges, kept)
        self.reduce(kept)

    def _kept(self) -> np.ndarray:
        """The free rows that the split of P keeps whatever the input
        scores: the labelled ones, and every row of a flat component that
        holds none of them."""
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
    """The weight step for fixed neighbor probabilities, as a QP over the
    kept scores f and the level t of the top negative.

    Every hinge  (1 - f_{p_i} + f_{n_j})_+  grows with f_{n_j}, so the push
    loss  max_j mean_i (1 - f_{p_i} + f_{n_j})_+  is the mean hinge of each
    positive against the top negative alone (Li, Jin & Zhou, *Top Rank
    Optimization in Linear Time*, NIPS 2014).  The QP minimizes

      1/2 f'Sf + lin'f + lam a t + (lam/p) sum_C (1 + t - f_p)_+ + lam a

    over the kept free scores f and the level t, subject to  0 <= f <= up
    (the kept scores' tops) and  f_n <= t  for each negative n.  The level
    t has no bound of its own.

    Videos whose score box is [0, 0] are pinned and left out (``free``
    holds the others), and a box without a top (no cap) is closed at n
    (see ``_weight_step``).  ``f_in`` keeps the free rows' input scores and
    ``t_in`` the input's top negative score, where ``_active_set`` holds
    the levels that no term fixes.  Positives whose score cannot exceed 1
    never clip their hinges against the nonnegative level t, so those
    hinges enter linearly, as -lam/p in ``lin``: U is the set of those
    positives, C the others (``clipped``, at the kept columns ``hp``) and
    a = |U|/p.  With the default cap and scores in [0, 1], C is empty.  The
    negatives' kept columns are ``hn``, for the negatives that ``n_free``
    masks; a pinned negative's score is 0.

    The graph term lives in ``lap`` (``_KronLaplacian``), split once from
    the step's input scores f_in: f holds only the nf kept scores, every
    other free score is their harmonic extension, and S is the Schur
    complement of P on the kept scores.  So this QP is the QP over every
    free score with the eliminated rows' boxes dropped, a relaxation, whose
    optimum is the full one once every lift lies inside its own box;
    ``reduce`` keeps more rows.  ``gap`` certifies a lifted point against
    the full QP, with P as it is: the bound holds at any feasible
    primal-dual point, on the boundary too, wherever it came from.
    """

    def __init__(
        self, f_in: np.ndarray, neighbors: NeighborMatrix, labels: PseudoLabels,
        lambda_push: float, hi: np.ndarray,
    ):
        self.n = hi.shape[0]
        hi = np.where(np.isinf(hi), float(self.n), hi)
        pos = np.asarray(labels.positives)
        neg = self.neg = np.asarray(labels.negatives)
        lam = float(lambda_push)
        free = self.free = np.flatnonzero(hi > 0.0)
        self.top = hi[free]
        labelled = np.isin(np.arange(self.n), np.concatenate([pos, neg]))
        self.f_in = f_in[free]
        # the input's top negative score: where t is held when no term fixes it
        self.t_in = float(np.max(f_in[neg], initial=0.0))
        self.lap = _KronLaplacian(neighbors, free, labelled, self.top, self.f_in)
        p = pos.shape[0]
        clip = hi[pos] > 1.0
        self.unclipped, self.clipped = pos[~clip], pos[clip]
        a = self.unclipped.shape[0] / p
        self.const = lam * a  # also the cost of t
        self.slack_cost = lam / p
        self._index()

    def reduce(self, kept: np.ndarray) -> None:
        """Keep the free rows that ``kept`` masks as well, from here on
        (``_KronLaplacian.reduce``)."""
        self.lap.reduce(kept)
        self._index()

    def _index(self) -> None:
        """The cost, bounds and label columns over the kept scores of ``lap``."""
        lap, neg = self.lap, self.neg
        col = lap.col
        self.nf = lap.nf
        self.lin = np.zeros(self.nf)
        linear = self.unclipped[col[self.unclipped] >= 0]
        self.lin[col[linear]] = -self.slack_cost
        self.up = self.top[lap.keep]
        self.hp = col[self.clipped]
        self.n_free = col[neg] >= 0
        self.hn = col[neg[self.n_free]]

    def objective(self, f: np.ndarray, t: float) -> float:
        hinge = np.maximum(1.0 + t - f[self.hp], 0.0)
        quad = 0.5 * float(f @ (self.lap.S @ f)) + float(self.lin @ f)
        return quad + self.const * t + self.slack_cost * float(hinge.sum()) + self.const

    def gap(self, f_b: np.ndarray, t: float, z: np.ndarray, nu: np.ndarray) -> float:
        """Certified bound on objective(f_b, t) - optimum, or inf if the
        point is not feasible; both over every free score, at the lifted
        scores f, with the free scores' own boxes.  A point on the boundary,
        with a score at a bound or a negative at t, is certified like any
        other feasible point; a score outside its box, or above t, gives inf.

        ``z`` holds the negatives' multipliers and ``nu`` the clipped
        hinges'.  The gap fixes them to make t dual feasible: nu capped to
        [0, lam/p], and z rescaled to sum to lam a plus nu's sum
        (stationarity in t).  Each clipped hinge h = 1 + t - f_p enters
        through its slack max(h, 0), which is feasible by construction, so
        its complementarity is  nu max(-h, 0) + max(h, 0) (lam/p - nu).  The
        Lagrangian is then a convex quadratic in the scores alone, with
        gradient r at f, and the gap adds the complementarity to a bound on
        how far the Lagrangian falls below its value at f over the score
        box.  That fall is at most the box term  f'(r)_+ + (up - f)'(-r)_+
        of the linear model, and at most  r_c'P^+r_c / 2  plus the box term
        of r_0, where r_0 is the projection of r onto the null space of P
        (its mean on each flat component) and r_c the rest; the smaller of
        the two is used.  The second does not grow with the level of the
        scores along directions that P does not see.  ``split`` computes it
        from the matrices the step solves with, P_HH's factor and the Schur
        complement S, so no factor spans every free score.
        """
        f = self.lap.lift(f_b)
        f_n = np.zeros(self.neg.shape[0])
        f_n[self.n_free] = f_b[self.hn]
        s_n, s_up = t - f_n, self.top - f
        if min(s_n.min(initial=1.0), f.min(initial=1.0), s_up.min(initial=1.0)) < 0.0:
            return np.inf
        cost = self.slack_cost
        z = np.maximum(z, 0.0)
        nu = np.minimum(np.maximum(nu, 0.0), cost)
        z *= (self.const + nu.sum()) / z.sum()
        grad = self.lin.copy()
        grad[self.hn] += z[self.n_free]
        grad[self.hp] -= nu
        r = self.lap.edges.residual(f)
        r[self.lap.keep] += grad

        def box_term(g):
            return float(f @ np.maximum(g, 0.0) + s_up @ np.maximum(-g, 0.0))

        flat, curved = self.lap.split(r)
        fall = min(box_term(r), curved + box_term(flat))
        h = 1.0 + t - f_b[self.hp]
        slack = float(np.maximum(-h, 0.0) @ nu + np.maximum(h, 0.0) @ (cost - nu))
        return float(s_n @ z) + slack + fall

    def scores(self, f_b: np.ndarray) -> np.ndarray:
        f = np.zeros(self.n)
        f[self.free] = np.clip(self.lap.lift(f_b), 0.0, self.top)
        return f


def _solve_rounds(qp: _ScoreQP) -> tuple[np.ndarray, float, float] | None:
    """The QP over every free score, solved in rounds over the kept ones.

    Each round solves the relaxed QP that ``qp`` holds exactly
    (``_active_set``): the eliminated scores follow as the harmonic
    extension of the kept ones, and their boxes are dropped.  A row whose
    lift then reaches its top joins the kept rows (``_ScoreQP.reduce``),
    and the next round solves again.  Once every lift lies inside its box,
    the relaxed optimum is feasible for the full QP, so it is the full
    optimum, and its point is certified there, once, by the full QP's gap
    (``_ScoreQP.gap``).  Returns that round's kept scores, t and gap, or
    None as soon as a round is declined.  The kept rows only grow, so at
    worst every free row is kept.
    """
    while True:
        solved = _active_set(qp)
        if solved is None:
            return None
        f, t, z, nu = solved
        reached = qp.lap.reached(f)
        if not np.any(reached):
            return f, t, qp.gap(f, t, z, nu)
        qp.reduce(qp.lap.kept | reached)


# passes of ``_active_set`` after which a round whose sets still change is
# declined, and its step ends uncertified
_ACTIVE_SET_PASSES = 16
# relative tolerance of ``_active_set``'s bound and sign tests: without it,
# rows at exactly 0 with a zero gradient can make the sets cycle
_ACTIVE_SET_TOL = 1e-12


def _active_set(qp: _ScoreQP) -> tuple[np.ndarray, float, np.ndarray, np.ndarray] | None:
    """The relaxed QP solved exactly by a primal-dual active set
    (Hintermuller, Ito & Kunisch, SIAM J. Optim. 2002).  Returns the point
    (f, t) and the multipliers (z, nu) of the negatives and of the clipped
    hinges, or None when the round is declined: its sets still change after
    ``_ACTIVE_SET_PASSES`` passes, its linear system is singular, a level
    that rises meets no bound, or t's multipliers need more than t's cost.

    Each pass guesses a state for every row.  A kept score is at its floor
    0, at its top, or inactive.  A negative is tied to the level t
    (f_n = t) or free below it.  A clipped positive is below its kink (its
    hinge enters linearly: -lam/p on f_p and +lam/p on t), at it
    (f_p = t + 1), or above it (its hinge is 0).  With the tied rows folded
    into t, the inactive scores and t solve one linear system in S.  The
    first pass ties every negative, as one block, and starts each clipped
    positive on the side of its kink that its input score is, and the seed
    rows, whose input score sits at its top, at their tops.  Each pass then
    keeps a top row while its gradient g = S f + lin is at most 0 and a
    floor row while it is at least 0, and moves an inactive row that passes
    a bound onto it; it unties a negative whose multiplier -g_n is
    negative and ties a free one above t; it moves a positive at its kink
    whose multiplier g_p leaves [0, lam/p] to the side it points to, and
    a positive that crosses its kink onto it.  The loop stops when the
    states repeat, or declines after ``_ACTIVE_SET_PASSES`` passes.

    Without clipped hinges t starts at its floor 0, with every negative
    tied, as at every capped optimum seen so far; with them t starts free,
    and it
    moves to its floor, with every negative tied, when it falls below 0.  A
    tied row that passes its top leaves t for its top.  Taking the
    negatives as one block removes the cycling that plain active-set
    iterations show on their degenerate floors.

    The system is singular along the directions that change no term: the
    level of a flat component of the graph whose kept rows are all
    inactive, and, with t free, t together with every flat component that
    holds a tied row, where no fixed row holds them.  Each such direction
    is held where its scores keep the mean of the step's input scores (t
    alone, with nothing tied, at the input's top negative score), moved
    only as far as keeps every row inside its box and on its side of t
    and of its kink.  A direction along which the linear terms do not
    cancel has no optimum in the guessed states: a component with a
    positive whose hinge enters linearly rises, and t with a hinge that
    enters linearly falls, until its first row meets a bound, t or its
    kink (t: 0, or a free negative or a kink outside its components), and
    that row changes state.

    The negatives' multipliers are their -g_j where tied.  At t's floor
    they are max(0, -g_j) plus an equal share of what is left of t's cost,
    lam a plus the hinge multipliers, and the round declines when those
    need more than that cost by more than ``_ACTIVE_SET_TOL`` of it.  The
    hinges' multipliers are lam/p below the kink and g_p at it.  The point
    is not certified here: ``_solve_rounds`` certifies the last round's.
    """
    lap, nf, up, lin, cost = qp.lap, qp.nf, qp.up, qp.lin, qp.slack_cost
    neg = np.zeros(nf, dtype=bool)
    neg[qp.hn] = True
    pos = np.zeros(nf, dtype=bool)
    pos[qp.hp] = True
    flat = np.zeros(lap.free.shape[0], dtype=bool)
    flat[lap.flat] = True
    flat = flat[lap.keep]
    group = lap.group[lap.free[lap.keep]]
    n_group = lap.group.shape[0]
    f_in = qp.f_in[lap.keep]
    kinks = t_free = bool(pos.any())
    t = qp.t_in
    tied = neg.copy()
    below = pos & (f_in < t + 1.0)
    top = lap.seed[lap.keep] & ~tied
    floor = np.zeros(nf, dtype=bool)
    eps_f = _ACTIVE_SET_TOL * up
    eps_g = _ACTIVE_SET_TOL * max(1.0, cost)
    eps_t = _ACTIVE_SET_TOL * max(1.0, float(up.max(initial=1.0)))
    for _ in range(_ACTIVE_SET_PASSES):
        inactive = ~(tied | top | floor)
        lin_b = np.where(below, -cost, lin)
        lin_t = qp.const + cost * np.count_nonzero(below)
        kink = tied & pos
        f = np.where(top, up, 0.0)
        f[kink] = 1.0
        held = top | kink
        # the flat components that no fixed row holds, and those tied to t
        fixed = top | floor if t_free else ~inactive
        level = flat & (np.bincount(group[fixed], minlength=n_group) == 0)[group]
        at_t = np.zeros(n_group, dtype=bool)
        lone = inactive & level
        if t_free:
            at_t[group[tied]] = True
            lone &= ~at_t[group]
        t_level = t_free and bool(level[tied].all())
        # one row of each lone component, and t on its level, held at 0
        solved = inactive
        if lone.any():
            solved = inactive.copy()
            solved[_first_of_each(np.flatnonzero(lone), group)] = False
        rows = np.flatnonzero(solved)
        S_I = lap.S[rows]
        b = -(lin_b[rows] + S_I[:, held] @ f[held])
        try:
            if t_free and not t_level:
                T = np.flatnonzero(tied)
                S_T = lap.S[T]
                a = S_I[:, T].sum(axis=1)
                K = np.empty((rows.shape[0] + 1, rows.shape[0] + 1))
                K[:-1, :-1] = S_I[:, rows]
                K[:-1, -1] = K[-1, :-1] = a
                K[-1, -1] = S_T[:, T].sum()
                rhs_t = -(lin_t + (lin_b[T] + S_T[:, held] @ f[held]).sum())
                y = np.linalg.solve(K, np.append(b, rhs_t))
                f[rows], t = y[:-1], float(y[-1])
            else:
                f[rows] = np.linalg.solve(S_I[:, rows], b)
                t = 0.0
        except np.linalg.LinAlgError:
            return None
        if t_free:
            f[tied] += t
        # the levels that change no term are held at the input scores, as
        # near as the rows' bounds, t and the kinks allow; along a level
        # whose linear terms do not cancel, a row changes state instead
        rising = lone
        if lone.any():
            rise = np.bincount(group[lone], weights=lin_b[lone], minlength=n_group) < -0.5 * cost
            rising = lone & rise[group]
        above = pos & ~(tied | below)
        if t_level:
            on_t = (inactive & at_t[group]) | tied
            outside = ~lone & ~at_t[group] & ~tied
            if lin_t + lin_b[on_t].sum() > 0.5 * cost:
                # t falls: to 0, a row of its components to its floor, or
                # to a free negative or below a kink outside them
                cand = [
                    (np.flatnonzero(inactive & at_t[group]), f, "floor"),
                    (np.flatnonzero(outside & neg), t - f, "tie"),
                    (np.flatnonzero(outside & below), t + 1.0 - f, "tie"),
                ]
                event = _first_event(cand, t)
                if event is None:
                    t_free = False
                    tied |= neg
                    top &= ~neg
                    floor &= ~neg
                else:
                    top, floor, tied, below = _enter(event, top, floor, tied, below)
                continue
            lo = max(
                -t, float((-f[on_t]).max(initial=-np.inf)),
                float((f - t)[outside & neg].max(initial=-np.inf)),
                float((f - t - 1.0)[outside & below].max(initial=-np.inf)),
            )
            hi = min(
                float((up - f)[on_t].min(initial=np.inf)),
                float((f - t - 1.0)[outside & above].min(initial=np.inf)),
            )
            want = float(np.mean((f_in - f)[on_t])) if on_t.any() else qp.t_in - t
            move = min(max(want, lo), hi)
            f[on_t] += move
            t += move
        if rising.any():
            # each component that rises: its first row to reach its top, t
            # (a free negative) or its kink (a positive below it)
            for k in np.flatnonzero(rise):
                inside = lone & (group == k)
                cand = [
                    (np.flatnonzero(inside), up - f, "top"),
                    (np.flatnonzero(inside & neg), t - f, "tie"),
                    (np.flatnonzero(inside & below), t + 1.0 - f, "tie"),
                ]
                event = _first_event(cand, np.inf)
                if event is None:
                    return None
                top, floor, tied, below = _enter(event, top, floor, tied, below)
            continue
        if lone.any():
            lo = np.full(n_group, -np.inf)
            hi = np.full(n_group, np.inf)
            np.maximum.at(lo, group[lone], -f[lone])
            np.maximum.at(lo, group[lone & above], (t + 1.0 - f)[lone & above])
            np.minimum.at(hi, group[lone], (up - f)[lone])
            np.minimum.at(hi, group[lone & neg], (t - f)[lone & neg])
            np.minimum.at(hi, group[lone & below], (t + 1.0 - f)[lone & below])
            want = np.bincount(group[lone], weights=(f_in - f)[lone], minlength=n_group)
            want /= np.maximum(np.bincount(group[lone], minlength=n_group), 1)
            move = np.minimum(np.maximum(want, lo), hi)
            f[lone] += move[group[lone]]
        g = lap.S @ f + lin_b
        new_top = np.where(top, g <= eps_g, inactive & (f > up + eps_f))
        new_floor = np.where(floor, g >= -eps_g, inactive & (f < -eps_f))
        same = np.array_equal(new_top, top) and np.array_equal(new_floor, floor)
        # without clipped hinges t stays at its floor with every negative
        # tied there, and no tied row can pass its top
        if kinks:
            new_tied = tied.copy()
            new_below = below.copy()
            if t_free:
                new_tied[tied & neg & (g > eps_g)] = False
                new_tied[~tied & neg & (f > t + eps_f)] = True
            new_tied[kink & ((g < -eps_g) | (g > cost + eps_g))] = False
            new_below[kink & (g > cost + eps_g)] = True
            cross = (below & ~tied & (f > t + 1.0 + eps_f)) | (above & (f < t + 1.0 - eps_f))
            new_tied[cross] = True
            new_below[cross] = False
            # a tied row past its top leaves t for it: a negative below t, a
            # positive below its kink
            over = tied & (f > up + eps_f)
            new_tied[over] = False
            new_top[over] = True
            new_below[over & pos] = True
            # t below its floor: it stays there, with every negative tied
            drop = t_free and t < -eps_t
            if drop:
                t_free = False
                new_tied |= neg
            new_top &= ~new_tied
            new_floor &= ~new_tied
            same = not drop and (
                np.array_equal(new_top, top) and np.array_equal(new_floor, floor)
                and np.array_equal(new_tied, tied) and np.array_equal(new_below, below)
            )
            tied, below = new_tied, new_below
        top, floor = new_top, new_floor
        if same:
            break
    else:
        return None
    f = np.clip(f, 0.0, up)
    g = lap.S @ f + lin_b
    nu = np.where(below[qp.hp], cost, 0.0)
    at_kink = tied[qp.hp]
    nu[at_kink] = np.clip(g[qp.hp][at_kink], 0.0, cost)
    z = np.zeros(qp.neg.shape[0])
    if t_free:
        t = max(t, 0.0, float(f[qp.hn].max(initial=0.0)))
        z[qp.n_free] = np.where(tied[qp.hn], np.maximum(-g[qp.hn], 0.0), 0.0)
    else:
        t = 0.0
        target = qp.const + float(nu.sum())
        need = np.maximum(-g[qp.hn], 0.0)
        rest = target - need.sum()
        if rest < -_ACTIVE_SET_TOL * max(target, cost):
            return None
        z[:] = max(rest, 0.0) / z.shape[0]
        z[qp.n_free] += need
    if not z.sum() > 0.0:
        # nothing for the rows to carry: ``gap`` scales these to t's cost
        z[:] = 1.0
    return f, t, z, nu


def _first_of_each(rows: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The first of ``rows`` in each of their groups."""
    rows = rows[np.argsort(group[rows], kind="stable")]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = group[rows[1:]] != group[rows[:-1]]
    return rows[first]


def _first_event(cand: list, limit: float):
    """(row, kind) of the smallest distance among the candidates, each
    (rows, distance of every kept row, kind), or None if none is below
    ``limit``."""
    best, event = limit, None
    for rows, dist, kind in cand:
        if rows.shape[0] > 0:
            i = rows[np.argmin(dist[rows])]
            if dist[i] < best:
                best, event = dist[i], (i, kind)
    return event


def _enter(event, top, floor, tied, below):
    """The states with the event's row moved to its top or floor, or tied
    to t: a negative at t, a positive at its kink."""
    i, kind = event
    top, floor, tied, below = top.copy(), floor.copy(), tied.copy(), below.copy()
    top[i] = kind == "top"
    floor[i] = kind == "floor"
    tied[i] = kind == "tie"
    below[i] &= kind != "tie"
    return top, floor, tied, below


def _weight_step(f_in, neighbors, labels, lambda_push, hi, tol):
    """The weight step from the input scores f_in, solved exactly as a
    quadratic program in score space: returns (f, gap, bound), the solved
    scores, a certified bound on the distance of the solved point to the
    optimum, and the tolerance it was asked to meet.  The caller decides
    what a gap above its bound, or a NaN gap, means, and whether to keep f.

    The subproblem objective depends on the weights only through the
    per-video scores f_i = w_i . s_i, and the weight constraint set maps
    to the box 0 <= f_i <= hi_i = cap * max_k s_ik (``score_box_top``).
    Writing the push loss as the mean hinge against the level t of the
    top negative makes the step a convex QP in the scores and t, built
    once (``_ScoreQP``).  Only the push
    term sees the pseudo-labelled scores; an unlabelled score whose box
    does not bind is the harmonic extension of the others.  So the QP is
    solved in rounds over the pseudo-labelled scores, the unlabelled ones
    that hold a level of their own, and the unlabelled ones whose box
    binds, with the rest eliminated and their boxes dropped
    (``_KronLaplacian``).  The first round keeps the rows whose input score
    sits at its top, and each round adds the rows whose lifted score
    reaches its top (``_solve_rounds``).  Each round is solved exactly,
    with one linear solve per active-set pass (``_active_set``).  Once no
    lift reaches its top, the duality gap of the last round's point, lifted
    back to every score, is a certified bound on its distance to the
    optimum of the QP over every score; the step computes it once, and the
    bound it is held to is  tol * max(1, |objective|)  there.  A round that
    the active set declines ends the step at its input scores f_in, with
    gap inf and bound tol.

    Without a cap the box has no top, and the step closes it at n.  The
    optimum is then not unique: the overall level, the level of a
    component of positives whose hinges are all clipped, and t where no
    hinge binds change no term.  The active set holds each such direction
    at the input scores, so no top binds and the step does not depend on
    where the box was closed.  Every gap of more than 1 between sorted
    optimal scores is then narrowed to 1 (``_compress_gaps``), which keeps
    an optimum and leaves every step capped at 1 as it is.  Last, the
    shifts that change no term move toward the input scores
    (``_nearest_shift``): a component of the neighbor graph without pseudo
    labels keeps its input mean, and the labelled components move together.
    """
    qp = _ScoreQP(f_in, neighbors, labels, lambda_push, hi)
    solved = _solve_rounds(qp)
    if solved is None:
        return f_in, np.inf, tol
    f, t, gap = solved
    bound = tol * max(1.0, abs(qp.objective(f, t)))
    return _nearest_shift(qp.lap, _compress_gaps(qp.scores(f)), f_in, hi), gap, bound


def _compress_gaps(f: np.ndarray) -> np.ndarray:
    """f with every gap of more than 1 between consecutive sorted scores
    narrowed to 1, by lowering each score by the excess of the gaps below it.

    Narrowing such a gap never raises the step's objective: hinges across
    it stay clipped or shrink, edges across it shorten, and the scores only
    fall, keep their order and stay at or above the lowest one, so they
    stay in their boxes.  So an optimum comes back as an optimum.  A vector
    without such a gap, which includes every step capped at 1, comes back
    bit for bit.  The active set's optima hold such a gap only by rounding,
    as the 1 + 1.1e-15 at a clipped positive's kink in one step of the
    converged ``uncapped`` benchmark input of seed 91 (instance 0); its
    ranking moves without the narrowing.
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
    labelled components that leave the push term unchanged are not searched
    here: ``_active_set`` holds each level that no term fixes at the input
    scores, and ``_compress_gaps`` has closed every gap above 1.
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

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
So the fit carries the n scores, not the n x m weights, and returns the
scores that its last kept weight step certified; it builds no weight
matrix.  One feasible weight matrix that gives them (``final_weights``) is
derived only when ``FitResult.weights`` is read.  The weight step is a
certified convex QP in the scores, solved exactly by an active set; it
lives in ``weightstep``, with every matrix it factors, and returns its
scores with its certified gap and tolerance.  This module holds the model
and the verdict on each step: the scores, the objective and the fit,
which keeps a step's scores only if its own objective does not rise, and
reports a step that stopped above its tolerance in ``FitResult.warnings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import NeighborMatrix, candidate_neighbors, gamma_for_k, update_neighbor_rows
from .query import PseudoLabels, RelevanceVector
# ``fit`` looks up ``_weight_step`` and its tolerance here at call time, so
# they can be replaced on this module
from .weightstep import WEIGHT_STEP_TOL, _weight_step

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
    "final_weights",
    "fit",
    "fuse_supervised",
    "SUPERVISED_COLUMN_ID",
]

SUPERVISED_COLUMN_ID = "__supervised__"


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
        # a NaN fails every comparison, so each test is written to pass only
        # on a finite value in range
        if not 0.0 < self.lambda_push < np.inf:
            raise ValueError("lambda_push must be positive and finite")
        if not 0.0 < self.tol < np.inf or self.max_outer_iters < 1:
            raise ValueError("tol must be positive and finite and max_outer_iters >= 1")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.k_candidates < 1:
            raise ValueError(f"k_candidates must be >= 1, got {self.k_candidates}")
        if self.weight_cap is not None and not 0.0 < self.weight_cap < np.inf:
            raise ValueError("weight_cap must be positive and finite (or None to disable)")


@dataclass
class FitResult:
    """Outcome of ``fit``.

    ``scores`` are the scores of the last weight step that ``fit`` kept,
    with the bits that step returned; rankings are read off them.  A
    weight step is uncertified when the duality gap of its last round's
    point is above its tolerance, or NaN, or when the exact active-set
    solve declined one of its rounds, which keeps its input scores with gap
    inf; on every input probed, with or without a cap, none was.
    """

    neighbors: NeighborMatrix
    objective_trace: list[float]
    scores: np.ndarray
    initial_scores: np.ndarray
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)
    # the prior row, the score matrix and the cap that ``weights`` is
    # derived from
    _weight_basis: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def uncertified_steps(self) -> int:
        """Weight steps above their tolerance; ``fit`` warns of nothing else."""
        return len(self.warnings)

    @property
    def weights(self) -> np.ndarray:
        """One of the many weight matrices that give ``scores``, derived
        anew on each read: the relevance prior scaled down, or moved toward
        the cap vertex of each row's top concept (``final_weights``).  Its
        row scores match ``scores`` to rounding, not bit for bit."""
        w0, values, cap = self._weight_basis
        return final_weights(w0, values, self.scores, cap)


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


def score_box_top(values: np.ndarray, cap: float | None) -> np.ndarray:
    """Per-video upper bound on achievable scores f_i = w_i . s_i."""
    top = values.max(axis=1)
    if cap is None:
        # a row without a positive score can only reach f_i = 0
        return np.where(top > 0.0, np.inf, 0.0)
    return cap * top


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


def _gap_message(gap: float, bound: float) -> str:
    return f"weight step stopped at certified gap {gap:.3g}, above its tolerance {bound:.3g}"


def fit(
    S: ScoreMatrix,
    labels: PseudoLabels,
    w_init_row: RelevanceVector | np.ndarray,
    config: CompositionConfig,
) -> FitResult:
    """Alternate exact neighbor updates with convex weight updates.

    Every weight row starts at the renormalized relevance prior, so the
    iteration-0 scores reproduce the fixed-weight baseline ranking.  The
    loop carries the scores only, and the result's ``scores`` are the last
    kept weight step's, as it returned them; no weight matrix is built
    (see ``FitResult.weights``).  The objective is recorded after every
    block and is non-increasing.  A weight step's scores are kept only if
    the objective at them is at most the one before the step; otherwise
    the input scores stay, and the entry before is recorded again, so
    every weight step's entry is at most the one before it, bit for bit.
    The loop stops when the relative decrease over one outer iteration
    falls below ``config.tol``.  The fit counts as converged only if it
    stopped so and its last weight step met its certified tolerance; every
    step that did not is stated in ``warnings`` (and counted by
    ``uncertified_steps``): a step whose last round's point has a gap
    above its bound, and a step whose round the active set declined, which
    returns its input scores with gap inf.
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
    # the bits of row_scores(np.tile(w0, (n, 1)), vals), without the tile
    initial_scores = np.einsum("ij,j->i", vals, w0)
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
        gammas = gamma_for_k(D, k_nb)

    trace: list[float] = []
    warnings: list[str] = []
    prev_outer = np.inf  # no decrease from it counts as converged
    converged = False
    for iterations in range(1, config.max_outer_iters + 1):
        D = np.square(f[:, None] - f[candidates])
        probs = update_neighbor_rows(D, gammas)
        neighbors = NeighborMatrix(candidates=candidates, probs=probs, gamma=gammas)
        trace.append(objective(f, neighbors, labels, gammas, config.lambda_push))

        g, gap, bound = _weight_step(f, neighbors, labels, config.lambda_push, hi, WEIGHT_STEP_TOL)
        # a NaN gap certifies nothing
        uncertified = not gap <= bound
        if uncertified:
            warnings.append(_gap_message(gap, bound))
        # a certified step can still end above an input that was already
        # within its gap of the optimum; the input is kept then, so the
        # trace never rises
        value = objective(g, neighbors, labels, gammas, config.lambda_push)
        if value <= trace[-1]:
            f = g
        trace.append(min(value, trace[-1]))

        if prev_outer - trace[-1] < config.tol * max(1.0, abs(prev_outer)):
            converged = True
            break
        prev_outer = trace[-1]

    return FitResult(
        neighbors=neighbors,
        objective_trace=trace,
        scores=f,
        initial_scores=initial_scores,
        # a stall of an uncertified step is no sign of an optimum
        converged=converged and not uncertified,
        iterations=iterations,
        warnings=warnings,
        _weight_basis=(w0, vals, cap),
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

"""References the tests compare the program against, and shared generators.

The references are independent or slower forms of what ``conceptrank``
computes: the per-phrase query steps, which embed every phrase they
touch; brute-force enumerations of the simplex projection and the push
loss; a central-difference gradient; a dense Laplacian and one scattered
by ``np.add.at``, an eigendecomposition split, an out-of-place block
Cholesky inverse and an SLSQP solve of the weight step.  No program path
calls them.  The generators draw random solver inputs, and
``project_row`` and ``neighbor_row`` run the batched graph kernels on one
row.  ``bench_generator`` loads the benchmark's input generator.
"""

import importlib.util
import os
import sys

import numpy as np

from conceptrank._kernels import simplex_project_rows
from conceptrank.composer import ScoreMatrix, push_loss_from_scores, smoothness_value
from conceptrank.embeddings import EmbeddingTable, cosine, phrase_vector
from conceptrank.errors import CoverageError
from conceptrank.graph import (
    NeighborMatrix,
    candidate_neighbors,
    gamma_for_k,
    update_neighbor_rows,
)
from conceptrank.query import (
    ConceptVocabulary,
    EventQuery,
    PseudoLabels,
    RelevanceVector,
    VideoRecord,
)
from conceptrank.synth import toy_embedding_rows
from conceptrank.text import clean_text, tokenize
from conceptrank.weightstep import _CHOLESKY_LEAF


def random_instance(rng, n_max=30, m_max=5, n_min=6):
    """Random normalized score matrix, pseudo labels, and neighbor graph."""
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    l = max(2, n // 2)
    u = n - l
    vals = rng.uniform(0, 1, (n, m))
    S = ScoreMatrix(
        values=vals,
        video_ids=[f"v{i:03d}" for i in range(n)],
        l=l,
        u=u,
        concept_ids=[f"c{j}" for j in range(m)],
    )
    n_pos = int(rng.integers(1, max(2, l // 2)))
    n_neg = int(rng.integers(1, max(2, l - n_pos)))
    perm = rng.permutation(l)
    labels = PseudoLabels(
        positives=tuple(int(i) for i in perm[:n_pos]),
        negatives=tuple(int(i) for i in perm[n_pos : n_pos + n_neg]),
    )
    k_cand = min(5, n - 1)
    cands = candidate_neighbors(vals, k_cand)
    f0 = vals @ rng.uniform(0, 1, m)
    D = np.square(f0[:, None] - f0[cands])
    gammas = np.array(
        [
            gamma_for_k(D[i], min(3, k_cand - 1)) if k_cand > 1 else 1.0
            for i in range(n)
        ]
    )
    probs = update_neighbor_rows(D, gammas)
    neighbors = NeighborMatrix(candidates=cands, probs=probs, gamma=gammas)
    W0 = np.tile(rng.uniform(0, 1, m), (n, 1))
    lam = float(rng.uniform(0.3, 3.0))
    return S, labels, neighbors, W0, lam


def random_scores_and_labels(rng, n_max=40):
    n = int(rng.integers(4, n_max + 1))
    scores = rng.normal(0, 1.5, n)
    n_pos = int(rng.integers(1, max(2, n // 2)))
    n_neg = int(rng.integers(1, max(2, n - n_pos)))
    perm = rng.permutation(n)
    labels = PseudoLabels(
        positives=tuple(int(i) for i in perm[:n_pos]),
        negatives=tuple(int(i) for i in perm[n_pos : n_pos + n_neg]),
    )
    return scores, labels


def project_row(v):
    """``simplex_project_rows`` on the one-row matrix [v]."""
    return simplex_project_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


def neighbor_row(d, gamma):
    """``update_neighbor_rows`` on one row of distances d with regularizer gamma."""
    d = np.asarray(d, dtype=np.float64)
    return update_neighbor_rows(d[None, :], np.array([gamma], dtype=np.float64))[0]


def weight_step_value(f, neighbors, labels, lam):
    """The weight step's subproblem value at the scores f: the smoothness
    and push terms of ``objective``, without the neighbor prior."""
    return smoothness_value(f, neighbors) + lam * push_loss_from_scores(f, labels)


def slsqp_weight_step_value(neighbors, labels, lam, hi):
    """Optimal weight-step value from scipy's SLSQP, as an independent check.

    Solves the pairwise hinge form over (f, t, xi), with one slack per
    (positive, negative) pair, not the weight step's form over the top
    negative: minimize
    2 f'Lf + lam t  subject to  t >= mean_i xi_ij,  xi_ij >= 1 - f_pi + f_nj,
    xi >= 0  and  0 <= f <= hi, from two starts, and returns the smaller
    subproblem value of the clipped scores.  The graph Laplacian L is
    built here, densely, from the neighbor lists.
    """
    from scipy.optimize import minimize

    n = hi.shape[0]
    pos, neg = np.asarray(labels.positives), np.asarray(labels.negatives)
    p, q = pos.shape[0], neg.shape[0]
    L = dense_laplacian(neighbors)
    top = np.where(np.isfinite(hi), hi, float(n))

    def obj(z):
        f = z[:n]
        return 2.0 * f @ L @ f + lam * z[n]

    def jac(z):
        g = np.zeros(z.shape[0])
        g[:n] = 4.0 * L @ z[:n]
        g[n] = lam
        return g

    def cons(z):
        f, t, xi = z[:n], z[n], z[n + 1 :].reshape(p, q)
        hinge = 1.0 - f[pos][:, None] + f[neg][None, :]
        return np.concatenate([t - xi.mean(axis=0), (xi - hinge).ravel()])

    bounds = [(0.0, h) for h in top] + [(None, None)] + [(0.0, None)] * (p * q)
    best = np.inf
    for f0 in (0.5 * top, np.zeros(n)):
        xi0 = np.maximum(1.0 - f0[pos][:, None] + f0[neg][None, :], 0.0)
        z0 = np.concatenate([f0, [xi0.mean(axis=0).max()], xi0.ravel()])
        res = minimize(
            obj, z0, jac=jac, bounds=bounds,
            constraints=[{"type": "ineq", "fun": cons}],
            method="SLSQP", options={"ftol": 1e-15, "maxiter": 3000},
        )
        best = min(best, weight_step_value(np.clip(res.x[:n], 0.0, top), neighbors, labels, lam))
    return best


def dense_laplacian(neighbors):
    """Laplacian of the symmetrized graph M = (A + A') / 2, from a dense A."""
    n = neighbors.candidates.shape[0]
    A = np.zeros((n, n))
    A[np.arange(n)[:, None], neighbors.candidates] = neighbors.probs
    M = 0.5 * (A + A.T)
    return np.diag(M.sum(axis=1)) - M


def add_at_laplacian(neighbors, free):
    """The dense P = 4 L[free, free] that ``weightstep._EdgeList`` holds as
    its edge list, with the off-diagonal entries scattered by two
    ``np.add.at`` calls, (a, b) and then (b, a), and each diagonal entry
    minus its row's ``np.sum`` plus the weight of its edges to pinned rows:
    every block the edge list builds must equal its slice bit for bit."""
    n, k = neighbors.candidates.shape
    edge = neighbors.probs > 0.0
    nf = free.shape[0]
    col = np.full(n, -1)
    col[free] = np.arange(nf)
    i = col[np.repeat(np.arange(n), k)[edge.ravel()]]
    j = col[neighbors.candidates[edge]]
    w = 2.0 * neighbors.probs[edge]
    inner = (i >= 0) & (j >= 0)
    a, b, w_in = i[inner], j[inner], -w[inner]
    P = np.zeros((nf, nf))
    np.add.at(P, (a, b), w_in)
    np.add.at(P, (b, a), w_in)
    out_i, out_j = (i >= 0) & (j < 0), (j >= 0) & (i < 0)
    pinned = np.bincount(
        np.concatenate([i[out_i], j[out_j]]),
        weights=np.concatenate([w[out_i], w[out_j]]),
        minlength=nf,
    )
    P[np.diag_indices(nf)] = -P.sum(axis=1) + pinned
    return P


def eigen_curvature_split(P, r):
    """Reference for the certificate's curvature term, from the spectrum of P.

    Splits r into its projection r_0 onto the numerical null space of P
    (eigenvalues at most 1e-10 of the largest, or of 1) and the rest r_c,
    and returns (r_0, r_c' P^+ r_c / 2).
    """
    eig, vec = np.linalg.eigh(P)
    curved = eig > 1e-10 * max(1.0, float(eig.max(initial=0.0)))
    c = vec.T @ r
    flat = vec[:, ~curved] @ c[~curved]
    return flat, 0.5 * float(np.sum(c[curved] ** 2 / eig[curved]))


def out_of_place_cholesky_inverse(A: np.ndarray) -> np.ndarray:
    """Reference for ``weightstep._cholesky_inverse``: the same recursive
    block routine, which writes the inverse factor into a fresh array and
    leaves A as it is."""
    Li = np.zeros(A.shape)
    _cholesky_inverse_into(A, Li)
    return Li


def _cholesky_inverse_into(A: np.ndarray, Li: np.ndarray) -> None:
    """Write the lower triangle of ``out_of_place_cholesky_inverse(A)`` into
    Li; the blocks above the diagonal are left as they are."""
    n = A.shape[0]
    if n <= _CHOLESKY_LEAF:
        # inv pivots, so it can leave rounding-level entries above the diagonal
        Li[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return
    h = n // 2
    Li11, Li21, Li22 = Li[:h, :h], Li[h:, :h], Li[h:, h:]
    _cholesky_inverse_into(A[:h, :h], Li11)
    L21 = A[h:, :h] @ Li11.T
    _cholesky_inverse_into(A[h:, h:] - L21 @ L21.T, Li22)
    np.matmul(Li22, L21 @ Li11, out=Li21)
    Li21 *= -1.0


# ---------------------------------------------------------------------------
# per-phrase query steps
# ---------------------------------------------------------------------------


def phrase_relevance(
    query: EventQuery, vocab: ConceptVocabulary, table: EmbeddingTable
) -> RelevanceVector:
    """Clamped cosine between the query phrase and each concept-name phrase.

    Negative cosines are clamped to 0 so values live in [0, 1].  Concept
    names with no in-vocabulary token get 0 and are flagged; a fully
    out-of-vocabulary query raises CoverageError.
    """
    qvec = phrase_vector(query.text_tokens(), table).vector
    return _relevance_of_phrase(qvec, vocab, table)


def phrase_weak_labels(
    record: VideoRecord, vocab: ConceptVocabulary, table: EmbeddingTable
) -> RelevanceVector:
    """Concept relevance of a weak video's cleaned description."""
    if record.split != "weak":
        raise ValueError(f"weak labels need a weak-split record, got {record.split!r}")
    dvec = phrase_vector(clean_text(record.description), table).vector
    return _relevance_of_phrase(dvec, vocab, table)


def _relevance_of_phrase(
    vec: np.ndarray, vocab: ConceptVocabulary, table: EmbeddingTable
) -> RelevanceVector:
    values = np.zeros(len(vocab))
    oov = set()
    for k, concept in enumerate(vocab.concepts):
        try:
            cvec = phrase_vector(tokenize(concept.name), table).vector
        except CoverageError:
            oov.add(k)
            continue
        values[k] = max(0.0, cosine(vec, cvec))
    return RelevanceVector(values=values, oov_concepts=frozenset(oov))


def phrase_partition(
    query: EventQuery,
    weak_records: list[VideoRecord],
    table: EmbeddingTable,
    n_pos: int,
    n_neg: int,
) -> PseudoLabels:
    """Split weak videos into pseudo positives/negatives by query similarity.

    Videos are ranked by cosine between the cleaned-description phrase and
    the query phrase; the top ``n_pos`` become positives and the bottom
    ``n_neg`` negatives.  Ties break by ascending video_id, which makes the
    split deterministic.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be >= 1")
    if n_pos + n_neg > len(weak_records):
        raise ValueError(
            f"n_pos + n_neg = {n_pos + n_neg} exceeds the {len(weak_records)} weak videos"
        )
    if any(r.split != "weak" for r in weak_records):
        raise ValueError("all records must be weak-split")
    qvec = phrase_vector(query.text_tokens(), table).vector
    sims = [
        cosine(qvec, phrase_vector(clean_text(r.description), table).vector)
        for r in weak_records
    ]
    ranked = sorted(
        range(len(weak_records)),
        key=lambda i: (-sims[i], weak_records[i].video_id),
    )
    return PseudoLabels(
        positives=tuple(ranked[:n_pos]),
        negatives=tuple(ranked[len(ranked) - n_neg :]),
    )


def toy_embedding_table() -> EmbeddingTable:
    """``conceptrank.synth.toy_embedding_rows`` as a table."""
    rows = toy_embedding_rows()
    return EmbeddingTable(dimension=rows[0][1].shape[0], vectors={t: v for t, v in rows})


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def support_size(a: np.ndarray, tol: float = 1e-12) -> int:
    """Number of entries above ``tol``, the nudge scale of ``gamma_for_k``."""
    return int(np.count_nonzero(np.asarray(a) > tol))


def brute_force_simplex(v: np.ndarray) -> np.ndarray:
    """Exact simplex projection by enumerating all support subsets.

    For every nonempty support the equality-constrained quadratic has the
    closed form a_T = v_T + (1 - sum v_T)/|T|; the feasible candidate with
    the smallest distance to v is the projection.  Guarded to dimension 6.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    if d > 6:
        raise ValueError("oracle is exponential; dimension must be <= 6")
    best = None
    best_dist = np.inf
    for mask in range(1, 2**d):
        support = [i for i in range(d) if mask >> i & 1]
        a_t = v[support] + (1.0 - v[support].sum()) / len(support)
        if np.any(a_t < -1e-12):
            continue
        a = np.zeros(d)
        a[support] = np.maximum(a_t, 0.0)
        dist = float(np.sum((a - v) ** 2))
        if dist < best_dist:
            best_dist = dist
            best = a
    return best


def brute_force_push(scores, labels: PseudoLabels) -> float:
    """Top-push loss by direct double-loop enumeration over P x N."""
    worst = 0.0
    p = len(labels.positives)
    for j in labels.negatives:
        total = 0.0
        for i in labels.positives:
            h = 1.0 - (scores[i] - scores[j])
            if h > 0.0:
                total += h
        worst = max(worst, total / p)
    return worst


def finite_diff_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    grad = np.empty_like(flat)
    for i in range(flat.shape[0]):
        step = np.zeros_like(flat)
        step[i] = h
        grad[i] = (
            fn((flat + step).reshape(x.shape)) - fn((flat - step).reshape(x.shape))
        ) / (2.0 * h)
    return grad.reshape(x.shape)


def bench_generator():
    """``perfbench/gen.py``, which writes the benchmark's inputs, as a module."""
    name = "perfbench_gen"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclass looks itself up there
        spec.loader.exec_module(module)
    return sys.modules[name]

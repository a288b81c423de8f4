"""Shared generators for solver-level tests."""

import numpy as np

from conceptrank.composer import ScoreMatrix
from conceptrank.graph import (
    NeighborMatrix,
    candidate_neighbors,
    gamma_for_k,
    update_neighbor_rows,
)
from conceptrank.query import PseudoLabels


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


def slsqp_weight_step_value(prob, hi):
    """Optimal weight-step value from scipy's SLSQP, as an independent check.

    Solves the general hinge form over (f, t, xi): minimize
    2 f'Lf + lam t  subject to  t >= mean_i xi_ij,  xi_ij >= 1 - f_pi + f_nj,
    xi >= 0  and  0 <= f <= hi, from two starts, and returns the smaller
    subproblem value of the clipped scores.  The graph Laplacian L is
    built here, densely, from the neighbor lists.
    """
    from scipy.optimize import minimize

    n = hi.shape[0]
    pos, neg = prob.pos, prob.neg
    p, q = pos.shape[0], neg.shape[0]
    L = dense_laplacian(prob.neighbors)
    top = np.where(np.isfinite(hi), hi, float(n))

    def obj(z):
        f = z[:n]
        return 2.0 * f @ L @ f + prob.lam * z[n]

    def jac(z):
        g = np.zeros(z.shape[0])
        g[:n] = 4.0 * L @ z[:n]
        g[n] = prob.lam
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
        best = min(best, prob.value(np.clip(res.x[:n], 0.0, top)))
    return best


def dense_laplacian(neighbors):
    """Laplacian of the symmetrized graph M = (A + A') / 2, from a dense A."""
    n = neighbors.candidates.shape[0]
    A = np.zeros((n, n))
    A[np.arange(n)[:, None], neighbors.candidates] = neighbors.probs
    M = 0.5 * (A + A.T)
    return np.diag(M.sum(axis=1)) - M


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

import numpy as np

from conceptrank import _kernels


def test_numpy_fallback_results_reasonable():
    v = np.array([[0.9, 0.6, 0.1]])
    np.testing.assert_allclose(
        _kernels.simplex_project_rows(v, 1.0), [[0.65, 0.35, 0.0]], atol=1e-15
    )


def _colmax_bisection_reference(V, budget):
    """Projection onto {Z >= 0 : sum_j max_i Z_ij <= budget} by nested
    bisection on its KKT form: Z = min(V+, t) with column levels t_j >= 0
    that share one marginal sum_i (v_ij - t_j)_+ = theta and sum to budget."""
    Z = np.maximum(V, 0.0)
    if Z.max(axis=0).sum() <= budget:
        return Z

    def levels(theta):
        lo, hi = np.zeros(Z.shape[1]), Z.max(axis=0)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = np.maximum(Z - mid, 0.0).sum(axis=0) > theta
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        return hi

    lo, hi = 0.0, float(Z.sum(axis=0).max())
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if levels(mid).sum() > budget else (lo, mid)
    return np.minimum(Z, levels(hi))


def test_colmax_ball_matches_bisection_reference():
    rng = np.random.default_rng(4)
    for _ in range(40):
        V = rng.normal(0, 1.5, (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        if rng.uniform() < 0.3:
            V = np.round(V, 1)  # tied entries give repeated kinks
        budget = float(rng.uniform(0.05, 3.0))
        got = _kernels.colmax_ball_project(V, budget)
        np.testing.assert_allclose(got, _colmax_bisection_reference(V, budget), atol=1e-12)
        assert got.max(axis=0).sum() <= budget + 1e-12

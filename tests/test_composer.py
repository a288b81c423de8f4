import tracemalloc

import numpy as np
import pytest

from conceptrank import composer, weightstep
from conceptrank.cli import main
from conceptrank.composer import (
    CompositionConfig,
    ScoreMatrix,
    _initial_row,
    final_weights,
    fit,
    fuse_supervised,
    normalize_scores,
    objective,
    push_loss_from_scores,
    row_scores,
    score_box_top,
    smoothness_value,
)
from conceptrank.graph import (
    NeighborMatrix,
    candidate_neighbors,
    gamma_for_k,
    update_neighbor_rows,
)
from conceptrank.query import PseudoLabels
from conceptrank.weightstep import _KronLaplacian, _ScoreQP, _solve_rounds

from helpers import (
    add_at_laplacian,
    bench_generator,
    brute_force_push,
    dense_laplacian,
    eigen_curvature_split,
    finite_diff_gradient,
    neighbor_row,
    out_of_place_cholesky_inverse,
    random_instance,
    random_scores_and_labels,
    slsqp_weight_step_value,
    weight_step_value,
)


def _step_inputs(S, W0, cap):
    """Input scores of a weight step from a weight matrix, and the box top."""
    hi = score_box_top(S.values, cap)
    return np.minimum(row_scores(W0, S.values), hi), hi


def _qp(nb, labels, lam, hi):
    """The weight step's QP from scores at the bottom of their boxes, so
    that no row is kept for its input score."""
    return _ScoreQP(np.zeros(hi.shape[0]), nb, labels, lam, hi)


def _keep_every_row(monkeypatch):
    """Make ``_ScoreQP`` keep every free score: the QP before elimination."""
    monkeypatch.setattr(_KronLaplacian, "_kept", lambda lap: np.ones_like(lap.free, dtype=bool))


def _matrix(values, l=None):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    l = l if l is not None else n
    return ScoreMatrix(
        values=values,
        video_ids=[f"v{i}" for i in range(n)],
        l=l,
        u=n - l,
        concept_ids=[f"c{j}" for j in range(values.shape[1])],
    )


class TestNormalizeScores:
    def test_rescale(self):
        S = _matrix([[0.0], [5.0], [10.0]])
        np.testing.assert_allclose(normalize_scores(S).values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column(self):
        S = _matrix([[3.0], [3.0], [3.0]])
        np.testing.assert_array_equal(normalize_scores(S).values[:, 0], [0.5, 0.5, 0.5])

    def test_fixed_point(self):
        S = _matrix([[0.0, 0.2], [0.4, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(normalize_scores(S).values, S.values)


class TestAggregate:
    """``row_scores``, the aggregation f_i = w_i . s_i, on one-row inputs."""

    def test_zero_weights(self):
        assert row_scores(np.zeros((1, 4)), np.full((1, 4), 0.3))[0] == 0.0

    def test_selector(self):
        assert row_scores(np.array([[1.0, 0.0]]), np.array([[0.7, 0.2]]))[0] == 0.7

    def test_arithmetic(self):
        got = row_scores(np.array([[0.5, 0.5]]), np.array([[0.4, 0.8]]))[0]
        assert got == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            row_scores(np.ones((1, 2)), np.ones((1, 3)))


class TestPushLoss:
    def test_worked_example(self):
        f = np.array([2.0, 0.5, 1.0])
        labels = PseudoLabels(positives=(0, 1), negatives=(2,))
        assert push_loss_from_scores(f, labels) == pytest.approx(0.75, abs=1e-15)

    def test_margin_satisfied(self):
        f = np.array([3.0, 2.5, 1.0, 0.2])
        labels = PseudoLabels(positives=(0, 1), negatives=(2, 3))
        assert push_loss_from_scores(f, labels) == 0.0

    def test_zero_weights_unit_loss(self):
        # zero weights give zero scores: every hinge sits at the margin
        labels = PseudoLabels(positives=(0, 1), negatives=(2, 3))
        assert push_loss_from_scores(np.zeros(6), labels) == 1.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            scores, labels = random_scores_and_labels(rng)
            got = push_loss_from_scores(scores, labels)
            want = brute_force_push(scores, labels)
            assert abs(got - want) <= 1e-12

    def test_equals_mean_hinge_against_top_negative(self):
        # every hinge grows with the negative's score, so the max over
        # negatives is the mean hinge against the top negative alone; the
        # weight step's QP is built on this.  Draws hold tied top negatives,
        # negatives pinned at 0 and positive scores above 1
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(4, 30))
            f = rng.uniform(0.0, 2.0, n)
            perm = rng.permutation(n)
            n_pos = int(rng.integers(1, n - 2))
            pos, neg = perm[:n_pos], perm[n_pos:]
            f[neg[rng.uniform(size=neg.shape[0]) < 0.3]] = 0.0
            if rng.uniform() < 0.5:
                f[neg[: int(rng.integers(2, neg.shape[0] + 1))]] = f[neg].max()
            labels = PseudoLabels(tuple(int(i) for i in pos), tuple(int(i) for i in neg))
            want = np.mean(np.maximum(1.0 - f[pos] + f[neg].max(), 0.0))
            assert push_loss_from_scores(f, labels) == pytest.approx(want, abs=1e-12)


class TestObjective:
    def _setup(self, rng):
        S, labels, neighbors, W0, lam = random_instance(rng)
        f, _ = _step_inputs(S, W0, 1.0)
        return labels, neighbors, f, lam

    def test_direct_evaluation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            labels, nb, f, lam = self._setup(rng)
            gamma = nb.gamma
            got = objective(f, nb, labels, gamma, lam)
            # term-by-term direct evaluation
            smooth = 0.0
            reg = 0.0
            for i in range(nb.n_rows):
                for c, j in enumerate(nb.candidates[i]):
                    smooth += nb.probs[i, c] * (f[i] - f[j]) ** 2
                    reg += gamma[i] * nb.probs[i, c] ** 2
            push = brute_force_push(f, labels)
            assert got == pytest.approx(smooth + reg + lam * push, rel=1e-10)

    def test_lambda_linearity(self):
        rng = np.random.default_rng(22)
        labels, nb, f, _ = self._setup(rng)
        gamma = nb.gamma
        base = objective(f, nb, labels, gamma, 0.0 + 1e-300)
        one = objective(f, nb, labels, gamma, 1.0)
        two = objective(f, nb, labels, gamma, 2.0)
        assert two - base == pytest.approx(2.0 * (one - base), rel=1e-9)

    def test_equal_scores_only_regularizer(self):
        labels = PseudoLabels(positives=(0,), negatives=(1,))
        cands = np.array([[1, 2], [0, 2], [0, 1], [0, 1]])
        probs = np.full((4, 2), 0.5)
        nb = NeighborMatrix(candidates=cands, probs=probs, gamma=np.ones(4))
        f = np.full(4, 0.3)
        lam = 1e-300
        got = objective(f, nb, labels, 1.0, lam)
        assert got == pytest.approx(4 * 2 * 0.25, rel=1e-12)

    def test_invalid_rows_rejected(self):
        rng = np.random.default_rng(23)
        labels, nb, f, lam = self._setup(rng)
        bad = nb.probs.copy()
        bad[0] *= 2.0
        nb_bad = NeighborMatrix(candidates=nb.candidates, probs=bad, gamma=nb.gamma)
        with pytest.raises(ValueError):
            objective(f, nb_bad, labels, nb.gamma, lam)


class TestReferenceSolver:
    def test_smoothness_only_limit(self):
        # vanishing push weight: the solver should flatten all scores
        rng = np.random.default_rng(41)
        S, labels, nb, W0, _ = random_instance(rng, n_max=14, m_max=3)
        f0, hi = _step_inputs(S, W0, 1.0)
        f, gap, bound = composer._weight_step(f0, nb, labels, 1e-12, hi, 1e-14)
        assert gap <= bound
        assert smoothness_value(f, nb) <= 1e-6

    def test_tiny_grid_search_instance(self):
        # one positive with score 1, one negative with score 0, single
        # concept: with a large push weight the hinge must close
        S = _matrix([[1.0], [0.0]], l=2)
        labels = PseudoLabels(positives=(0,), negatives=(1,))
        nb = NeighborMatrix(
            candidates=np.array([[1], [0]]),
            probs=np.ones((2, 1)),
            gamma=np.ones(2),
        )
        lam, cap = 20.0, 2.0
        f0, hi = _step_inputs(S, np.full((2, 1), 0.5), cap)
        f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        assert gap <= bound
        # grid-search oracle over both scores, each across its box
        best = min(
            weight_step_value(np.array([fp, fn]), nb, labels, lam)
            for fp in np.linspace(0.0, hi[0], 201)
            for fn in np.linspace(0.0, hi[1], 201)
        )
        assert weight_step_value(f, nb, labels, lam) <= best + 1e-6
        assert push_loss_from_scores(f, labels) <= 1e-9

    def test_monotone_contract(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=4)
            f0, hi = _step_inputs(S, W0, 1.0)
            before = weight_step_value(f0, nb, labels, lam)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
            assert gap <= bound
            assert weight_step_value(f, nb, labels, lam) <= before + 1e-12

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_matches_independent_qp_solve(self, cap):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(60)
        for _ in range(8):
            S, labels, nb, W0, lam = random_instance(rng, n_max=14, m_max=3)
            f0, hi = _step_inputs(S, W0, cap)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-10)
            assert gap <= bound
            want = slsqp_weight_step_value(nb, labels, lam, hi)
            assert weight_step_value(f, nb, labels, lam) <= want + 1e-8

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_certified_gap(self, cap):
        # the certificate meets its tolerance and bounds the distance to
        # the optimum: no feasible point scores below value - gap; without
        # a cap the sampled points reach beyond the box closed at n
        rng = np.random.default_rng(61)
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=4)
            hi = score_box_top(S.values, cap)
            qp = _qp(nb, labels, lam, hi)
            f_b, t, gap = _solve_rounds(qp)
            value = weight_step_value(qp.scores(f_b), nb, labels, lam)
            assert gap <= 1e-10 * max(1.0, value)
            # t is at least the top negative score, so the objective bounds the value
            assert value <= qp.objective(f_b, t) + 1e-12
            top = np.where(np.isinf(hi), 2.0 * S.n_videos, hi)
            for _ in range(50):
                f = rng.uniform(0.0, 1.0, hi.shape[0]) * top
                assert weight_step_value(f, nb, labels, lam) >= value - gap - 1e-12

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_gap_bounds_at_any_multipliers(self, cap):
        # the certificate makes its own multipliers dual feasible, so it
        # bounds objective - optimum whatever multipliers it is given, hinge
        # multipliers far above the slack cost among them.  The point is
        # mid-box scores and the level t one above the top negative score,
        # with each hinge's slack in closed form
        rng = np.random.default_rng(62)
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=4)
            hi = score_box_top(S.values, cap)
            qp = _qp(nb, labels, lam, hi)
            optimum = qp.objective(*_solve_rounds(qp)[:2])
            f_b = 0.5 * qp.up
            t = float(f_b[qp.hn].max(initial=0.0)) + 1.0
            n_neg = qp.neg.shape[0]
            for _ in range(5):
                z = rng.uniform(0.0, 10.0 * lam, n_neg + qp.hp.shape[0])
                gap = qp.gap(f_b, t, z[:n_neg], z[n_neg:])
                assert gap >= qp.objective(f_b, t) - optimum - 1e-9

    def test_curvature_matches_spectrum(self):
        # the certificate's split of r into a flat part and the curvature
        # term r_c'P^+r_c / 2, computed from the Kron-reduced Laplacian's
        # factors of P_HH and the grounded Schur complement, against the
        # eigendecomposition of the full P; blocks of videos form components,
        # one pinned video makes its component curved, and the unlabelled
        # videos of labelled components are eliminated
        rng = np.random.default_rng(70)
        eliminated = 0
        for _ in range(10):
            sizes = rng.integers(3, 7, size=int(rng.integers(2, 5)))
            n = int(sizes.sum())
            block = np.repeat(np.arange(sizes.shape[0]), sizes)
            cands = np.zeros((n, 3), dtype=int)
            probs = np.zeros((n, 3))
            for i in range(n):
                mates = np.flatnonzero((block == block[i]) & (np.arange(n) != i))
                cands[i, :2] = rng.choice(mates, 2, replace=False)
                cands[i, 2] = rng.choice(np.flatnonzero(block != block[i]))
                probs[i, :2] = rng.dirichlet(np.ones(2))
            nb = NeighborMatrix(candidates=cands, probs=probs, gamma=np.ones(n))
            rng.uniform(0.0, 1.0, (n, 2))  # the unused score rows, kept in the draws
            hi = np.ones(n)
            hi[rng.integers(n)] = 0.0
            free = np.flatnonzero(hi > 0.0)
            labelled = np.isin(np.arange(n), [0, 1, 2, 3])
            lap = _KronLaplacian(nb, free, labelled, hi[free], np.zeros(free.shape[0]))
            assert lap.size.shape[0] >= 1 and lap.flat.shape[0] < free.shape[0]
            eliminated += lap.drop.shape[0]
            P = add_at_laplacian(nb, free)
            for _ in range(5):
                r = rng.normal(size=free.shape[0])
                flat, curved = lap.split(r)
                flat_ref, curved_ref = eigen_curvature_split(P, r)
                np.testing.assert_allclose(flat, flat_ref, atol=1e-10)
                np.testing.assert_allclose(curved, curved_ref, rtol=1e-8)
        assert eliminated > 0

    def test_certificate_without_curvature_factor(self, monkeypatch):
        # when the grounded Schur complement cannot be factored, the
        # certificate keeps only the linear bound, which is still a bound
        rng = np.random.default_rng(71)
        S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=3)
        hi = score_box_top(S.values, 1.0)
        with monkeypatch.context() as patch:
            # a grounded Schur complement that is not positive definite
            patch.setattr(_KronLaplacian, "_grounded", lambda lap: -np.eye(lap.nf))
            qp = _qp(nb, labels, lam, hi)
        assert qp.lap.Li_S is None
        f_b, t, gap = _solve_rounds(qp)
        value = weight_step_value(qp.scores(f_b), nb, labels, lam)
        assert np.isfinite(gap)
        for _ in range(50):
            f = rng.uniform(0.0, 1.0, hi.shape[0]) * hi
            assert weight_step_value(f, nb, labels, lam) >= value - gap - 1e-12

    @pytest.mark.parametrize("cap", [1.0, None], ids=["capped", "uncapped"])
    def test_graph_matrices_built_once_per_step(self, cap, monkeypatch):
        # one weight step builds P's edge list once, labels the graph's
        # components once, factors P once and solves one QP, with or without
        # a cap; the QP takes one relaxed solve per round, each over more
        # kept rows than the last, and builds one reduction, one grounded
        # factor of S, per round.  Each round makes one call of the exact
        # active-set solve, and the step computes one duality gap, at the
        # last round's point.  Each step runs from the drawn scores and again
        # with an unlabelled test row at its top, which the first split
        # keeps, so the first round moves no rows
        rng = np.random.default_rng(74)
        calls = {"_EdgeList": 0, "_components": 0, "_harmonic_split": 0, "_solve_rounds": 0}
        sizes, reductions, certified = [], [], []
        active_set = weightstep._active_set
        grounded = weightstep._KronLaplacian._grounded
        gap = weightstep._ScoreQP.gap

        def solve(qp):
            sizes.append(qp.nf)
            return active_set(qp)

        def factored(lap):
            reductions.append(lap.nf)
            return grounded(lap)

        def certify(qp, *args):
            certified.append(qp.nf)
            return gap(qp, *args)

        monkeypatch.setattr(weightstep, "_active_set", solve)
        monkeypatch.setattr(weightstep._KronLaplacian, "_grounded", factored)
        monkeypatch.setattr(weightstep._ScoreQP, "gap", certify)

        def counted(name):
            inner = getattr(weightstep, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(weightstep, name, counted(name))
        for _ in range(5):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=3)
            f0, hi = _step_inputs(S, W0, cap)
            v = S.n_videos - 1  # a test video, never pseudo-labelled
            assert hi[v] > 0.0
            at_top = f0.copy()
            at_top[v] = min(hi[v], float(S.n_videos))  # an open box is closed at n
            for f_in in (f0, at_top):
                for name in calls:
                    calls[name] = 0
                sizes.clear()
                reductions.clear()
                certified.clear()
                f, step_gap, bound = composer._weight_step(f_in, nb, labels, lam, hi, 1e-9)
                assert step_gap <= bound
                assert calls == {
                    "_EdgeList": 1, "_components": 1, "_harmonic_split": 1, "_solve_rounds": 1
                }
                assert sizes and all(a < b for a, b in zip(sizes, sizes[1:]))
                assert reductions == sizes
                assert certified == sizes[-1:]

    @pytest.mark.parametrize("cap", [1.0, None], ids=["capped", "uncapped"])
    def test_weight_step_heap_ceiling(self, cap, monkeypatch):
        # the eliminated block's factor, the harmonic weights, the Schur
        # complement and its grounded factor, then the active set's linear
        # systems on the kept scores: 1.38 (capped) and 1.17 (uncapped)
        # dense (nf + 1)^2 arrays traced above the heap at entry on this
        # draw, and 4.0 with every score kept.  A dense P beside them, as
        # the step once held, gave 2.36 and 2.23; a factor of P over every
        # free score for the certificate gave 3.5 and 3.3.  A factor written
        # beside its input adds up to one more array
        rng = np.random.default_rng(81)
        S, labels, nb, W0, lam = random_instance(rng, n_min=320, n_max=320, m_max=3)
        f0, hi = _step_inputs(S, W0, cap)
        nf = int(np.count_nonzero(hi > 0.0))
        assert nf >= 300
        for keep_all in (False, True):
            with monkeypatch.context() as patch:
                if keep_all:
                    _keep_every_row(patch)
                tracemalloc.start()  # traces only what is allocated from here on
                try:
                    composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak / (8.0 * (nf + 1) ** 2) <= (4.5 if keep_all else 3.0)

    @staticmethod
    def _cli_graph(vals):
        """The neighbor graph at the CLI's k: 10 candidates, 5 neighbors,
        on the distances of the mean scores."""
        cands = candidate_neighbors(vals, 10)
        f0 = vals.mean(axis=1)
        D = np.square(f0[:, None] - f0[cands])
        gammas = np.array([gamma_for_k(D[i], 5) for i in range(vals.shape[0])])
        return NeighborMatrix(candidates=cands, probs=update_neighbor_rows(D, gammas), gamma=gammas)

    def test_subproblem_heap_ceiling_on_one_component(self):
        # the eliminated block's factor, the Schur complement on the 120
        # labelled scores and its grounded factor, with little beside them:
        # 1.22 dense (nf + 1)^2 arrays traced on this draw, whose edges join
        # every video, and 2.18 with a dense P beside them.  A dense copy of
        # the flat component's block, as a projector added with np.ix_
        # makes, adds half an array or more
        rng = np.random.default_rng(83)
        n = 320
        vals = rng.uniform(0.0, 1.0, (n, 4))
        perm = rng.permutation(n)
        labels = PseudoLabels(
            positives=tuple(int(i) for i in perm[:20]),
            negatives=tuple(int(i) for i in perm[20:120]),
        )
        nb = self._cli_graph(vals)
        assert np.all(weightstep._components(nb) == 0)
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            qp = _qp(nb, labels, 1.0, np.ones(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qp.lap.Li_S is not None and qp.lap.size.tolist() == [n]
        assert peak / (8.0 * (n + 1) ** 2) <= 2.9

    def test_weight_step_memory_without_dense_laplacian(self, monkeypatch):
        # one capped step at the CLI's 20/100 labels and k (10 candidates,
        # 5 neighbors) on n = 2000 videos.  The one array the step holds of
        # the eliminated rows' count squared is P_HH, overwritten by its
        # factor, which holds one half-size product at a time beside it,
        # n_elim^2 / 4 more; everything else fits in c n k floats with
        # c = 16.  The bound allows n_elim^2 / 2, two such products at once.
        # A dense P of the free scores adds n^2 floats, 32.0 MB, to a peak
        # of 35.9 MB traced here without it, against a bound of 45.0 MB
        rng = np.random.default_rng(91)
        n, k = 2000, 10
        vals = rng.uniform(0.0, 1.0, (n, 3))
        perm = rng.permutation(n)
        labels = PseudoLabels(
            positives=tuple(int(i) for i in perm[:20]),
            negatives=tuple(int(i) for i in perm[20:120]),
        )
        step = (vals.mean(axis=1), self._cli_graph(vals), labels, 1.0, score_box_top(vals, 1.0))
        elim = []
        split = weightstep._harmonic_split

        def spy(P, kept):
            out = split(P, kept)
            elim.append(out[1].shape[0])
            return out

        monkeypatch.setattr(weightstep, "_harmonic_split", spy)
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            f, gap, bound = composer._weight_step(*step, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap <= bound and elim[0] > 0.9 * n
        assert peak <= 8.0 * (1.5 * elim[0] ** 2 + 16 * n * k)

    @classmethod
    def _cli_step(cls):
        """A capped weight step's inputs at the CLI's 20/100 labels on 320
        videos, and the count of free scores."""
        rng = np.random.default_rng(88)
        n = 320
        vals = rng.uniform(0.0, 1.0, (n, 4))
        perm = rng.permutation(n)
        labels = PseudoLabels(
            positives=tuple(int(i) for i in perm[:20]),
            negatives=tuple(int(i) for i in perm[20:120]),
        )
        hi = score_box_top(vals, 1.0)
        step = (vals.mean(axis=1), cls._cli_graph(vals), labels, 1.0, hi)
        return step, int(np.count_nonzero(hi > 0.0))

    def test_no_factor_spans_every_free_score(self, monkeypatch):
        # the certificate measures the eliminated scores with P_HH's factor
        # and the kept ones with the grounded Schur complement's, so no
        # matrix the step factors has a row for every free score
        step, nf = self._cli_step()
        sides = []
        factor = weightstep._cholesky_inverse

        def spy(A):
            sides.append(A.shape[0])
            return factor(A)

        monkeypatch.setattr(weightstep, "_cholesky_inverse", spy)
        f, gap, bound = composer._weight_step(*step, 1e-9)
        assert nf >= 300 and gap <= bound
        assert sides and max(sides) < nf

    @pytest.mark.parametrize("cap", [None, 2.0])
    def test_clip_regime_at_cli_label_counts(self, cap):
        # 20 positives and 100 negatives: the clip regime carries one hinge
        # slack per positive against the top negative, and one row per
        # negative and per slack.  The exact active-set solve certifies it
        rng = np.random.default_rng(66)
        n, l = 160, 130
        vals = rng.uniform(0.0, 1.0, (n, 4))
        perm = rng.permutation(l)
        vals[perm[:20], 0] = 1.0  # every positive's box exceeds 1
        S = ScoreMatrix(
            values=vals,
            video_ids=[f"v{i:03d}" for i in range(n)],
            l=l,
            u=n - l,
            concept_ids=[f"c{j}" for j in range(4)],
        )
        labels = PseudoLabels(
            positives=tuple(int(i) for i in perm[:20]),
            negatives=tuple(int(i) for i in perm[20:120]),
        )
        nb = self._cli_graph(vals)
        hi = score_box_top(vals, cap)
        qp = _qp(nb, labels, 1.0, hi)
        assert qp.clipped.shape[0] == qp.hp.shape[0] == 20
        assert qp.neg.shape[0] == 100
        f_b, t, gap = _solve_rounds(qp)
        assert gap <= 1e-9 * max(1.0, qp.objective(f_b, t))

    @staticmethod
    def _split_instance(rng):
        # three graph components: positives (rows 0-3), negatives (4-7)
        # and unlabelled test videos (8-11)
        blocks = [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12)]
        cands = np.array([b[b != i] for b in blocks for i in b])
        nb = NeighborMatrix(
            candidates=cands, probs=rng.dirichlet(np.ones(3), size=12), gamma=np.ones(12)
        )
        S = _matrix(rng.uniform(0.1, 1.0, (12, 3)), l=8)
        labels = PseudoLabels(positives=(0, 1, 2, 3), negatives=(4, 5, 6, 7))
        W0 = np.tile(rng.uniform(0.0, 1.0, 3), (12, 1))
        return S, labels, nb, W0, float(rng.uniform(0.5, 3.0))

    @staticmethod
    def _fit_graph_instance(rng):
        # the graph that ``fit`` builds (``candidate_neighbors``,
        # ``gamma_for_k``, ``update_neighbor_rows``) with k = 7 neighbors of
        # 10 candidates, on two clusters of k + 1 videos: labelled (rows
        # 0-7) and unlabelled (8-15).  Each video's k neighbors are its
        # cluster, so no edge may cross the gap
        vals = np.concatenate([rng.uniform(0.1, 0.3, (8, 3)), rng.uniform(0.7, 0.9, (8, 3))])
        prior = rng.uniform(0.1, 1.0, 3)
        W0 = np.tile(prior / prior.sum(), (16, 1))
        f0 = row_scores(W0, vals)
        cands = candidate_neighbors(vals, 10)
        D = np.square(f0[:, None] - f0[cands])
        gammas = np.array([gamma_for_k(d, 7) for d in D])
        nb = NeighborMatrix(candidates=cands, probs=update_neighbor_rows(D, gammas), gamma=gammas)
        labels = PseudoLabels(positives=(0, 1, 2, 3), negatives=(4, 5, 6, 7))
        return _matrix(vals, l=8), labels, nb, W0, float(rng.uniform(0.5, 3.0))

    @pytest.mark.parametrize("cap", [None, 1.0])
    def test_unlabelled_component_keeps_input_level(self, cap):
        # any constant is optimal on a component without pseudo labels; the
        # step keeps the input mean (clipped to the component's boxes)
        rng = np.random.default_rng(64)
        cases = [self._split_instance(rng) for _ in range(10)]
        for S, labels, nb, W0, lam in cases + [self._fit_graph_instance(rng)]:
            f0, hi = _step_inputs(S, W0, cap)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-12)
            assert gap <= bound
            want = min(float(f0[8:].mean()), float(hi[8:].min()))
            np.testing.assert_allclose(f[8:], want, atol=1e-9)

    def test_uncapped_step_does_not_depend_on_box_closure(self, monkeypatch):
        # positives and negatives in separate components: once the push
        # term is flat, the positives' level is not fixed by the objective.
        # It must not follow where the open box is closed for the solver.
        rng = np.random.default_rng(67)
        cases = [self._split_instance(rng) for _ in range(10)]

        def step(S, labels, nb, W0, lam):
            f0, hi = _step_inputs(S, W0, None)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-12)
            assert gap <= bound
            return f

        base = [step(*case) for case in cases]

        class WideBox(weightstep._ScoreQP):
            def __init__(self, f_in, neighbors, labels, lambda_push, hi):
                super().__init__(
                    f_in, neighbors, labels, lambda_push,
                    np.where(np.isinf(hi), 3.0 * hi.shape[0], hi),
                )

        monkeypatch.setattr(weightstep, "_ScoreQP", WideBox)
        for case, f in zip(cases, base):
            np.testing.assert_allclose(step(*case), f, atol=1e-3)
            # the level stays within one unit per component of the data
            assert f.max() <= f[8:].max() + 3.0

    def test_uncapped_step_same_at_either_box_closure(self, monkeypatch):
        # the instances above, with the open box closed at n and at 3n: no
        # top binds, and each level that no term fixes is held at the input
        # scores, not where a solver stopped, so the exact active-set solve
        # returns the same scores either way
        rng = np.random.default_rng(67)
        cases = [self._split_instance(rng) for _ in range(10)]

        def step(S, labels, nb, W0, lam):
            f0, hi = _step_inputs(S, W0, None)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-12)
            assert gap <= bound
            return f

        base = [step(*case) for case in cases]

        class WideBox(weightstep._ScoreQP):
            def __init__(self, f_in, neighbors, labels, lambda_push, hi):
                super().__init__(
                    f_in, neighbors, labels, lambda_push,
                    np.where(np.isinf(hi), 3.0 * hi.shape[0], hi),
                )

        monkeypatch.setattr(weightstep, "_ScoreQP", WideBox)
        for case, f in zip(cases, base):
            np.testing.assert_allclose(step(*case), f, rtol=0.0, atol=1e-12)

    def test_uncapped_zero_row_is_pinned(self):
        # one concept: normalization leaves the minimum video's row all zero,
        # and no weight can lift that video's score
        rng = np.random.default_rng(62)
        S, labels, nb, W0, lam = random_instance(rng, n_max=12, m_max=1)
        S = normalize_scores(S)
        zero = int(np.argmin(S.values[:, 0]))
        f0, hi = _step_inputs(S, W0, None)
        assert hi[zero] == 0.0
        assert np.all(np.isinf(np.delete(hi, zero)))
        f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-10)
        assert gap <= bound
        assert np.all(f >= 0.0) and f[zero] == 0.0
        qp = _qp(nb, labels, lam, np.where(np.isinf(hi), float(S.n_videos), hi))
        f_b, t, _ = _solve_rounds(qp)
        assert weight_step_value(f, nb, labels, lam) <= qp.objective(f_b, t) + 1e-9

    def test_output_feasible(self):
        rng = np.random.default_rng(43)
        S, labels, nb, W0, lam = random_instance(rng)
        f0, hi = _step_inputs(S, W0, 1.0)
        f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        assert gap <= bound
        assert np.all(f >= 0.0)
        assert np.all(f <= hi)

    @pytest.mark.parametrize("cap", [1.0, None], ids=["capped", "uncapped"])
    def test_declined_round_keeps_input_scores(self, cap, monkeypatch):
        # a round that the exact active-set solve declines ends the step: it
        # returns its input scores, bit for bit, with gap inf above its
        # tolerance
        rng = np.random.default_rng(43)
        S, labels, nb, W0, lam = random_instance(rng)
        f0, hi = _step_inputs(S, W0, cap)
        monkeypatch.setattr(weightstep, "_active_set", lambda qp: None)
        f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        np.testing.assert_array_equal(f, f0)
        assert gap == np.inf and bound == 1e-9


    @pytest.mark.parametrize("cap", [1.0, None], ids=["capped", "uncapped"])
    def test_gap_above_tolerance_keeps_solved_scores(self, cap, monkeypatch):
        # a last round whose point the certificate puts above its tolerance
        # is not declined: the step returns that round's scores, bit for
        # bit as when certified, with its finite gap, and the caller judges
        rng = np.random.default_rng(43)
        S, labels, nb, W0, lam = random_instance(rng)
        f0, hi = _step_inputs(S, W0, cap)
        want, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        assert gap <= bound
        monkeypatch.setattr(_ScoreQP, "gap", lambda qp, *args: 1.0)
        f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        np.testing.assert_array_equal(f, want)
        assert gap == 1.0 > bound


class TestHarmonicSplit:
    """The weight step with unlabelled scores eliminated as the harmonic
    extension of the kept ones, against the same step with every free score
    kept: both certified, with values within their certified gaps."""

    @staticmethod
    def _compare(f0, nb, labels, lam, hi, monkeypatch):
        """The reduced step's scores and the free rows its last round kept,
        after checking it against the step that keeps every free row."""
        kept = []
        reduce = weightstep._KronLaplacian.reduce

        def spy(lap, rows):
            reduce(lap, rows)
            kept.append(lap.keep)

        with monkeypatch.context() as patch:
            patch.setattr(weightstep._KronLaplacian, "reduce", spy)
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        with monkeypatch.context() as patch:
            _keep_every_row(patch)
            g, gap_all, bound_all = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
        assert gap <= bound and gap_all <= bound_all
        diff = weight_step_value(f, nb, labels, lam) - weight_step_value(g, nb, labels, lam)
        assert abs(diff) <= gap + gap_all + 1e-12
        return f, np.flatnonzero(hi > 0.0)[kept[-1]]

    @staticmethod
    def _low_row_instance(rng):
        """A draw whose last video, a test video that is never
        pseudo-labelled, has a low box among high ones and the pseudo
        positives as its only neighbours, so its harmonic extension is the
        mean of their scores, which the push term lifts above its top."""
        S, labels, nb, W0, lam = random_instance(rng, n_min=16, n_max=24, m_max=3)
        low = S.n_videos - 1
        S.values[low] *= 0.02
        cands, probs = nb.candidates.copy(), nb.probs.copy()
        probs[cands == low] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        pos = list(labels.positives)[: cands.shape[1]]
        cands[low, : len(pos)], probs[low] = pos, 0.0
        probs[low, : len(pos)] = 1.0 / len(pos)
        nb = NeighborMatrix(candidates=cands, probs=probs, gamma=nb.gamma)
        return S, labels, nb, W0, lam, low

    @pytest.mark.parametrize("cap", [1.0, 2.0])
    def test_row_that_can_pass_its_top_is_kept(self, cap, monkeypatch):
        # an unlabelled video with a low box among high ones: the harmonic
        # extension of its neighbours at the solution passes its top, so
        # eliminating it would leave its box
        rng = np.random.default_rng(86)
        for _ in range(10):
            S, labels, nb, W0, lam, low = self._low_row_instance(rng)
            f0, hi = _step_inputs(S, W0, cap)
            f, kept = self._compare(f0, nb, labels, lam, hi, monkeypatch)
            assert low in kept
            assert kept.shape[0] < S.n_videos

    @pytest.mark.parametrize("cap", [1.0, None], ids=["capped", "uncapped"])
    def test_row_attached_only_to_pinned_rows_is_kept(self, cap, monkeypatch):
        # a test video whose only neighbours are pinned (box [0, 0]): its
        # harmonic weights are all 0, so its lift would sit on the bottom of
        # its box, where the certificate rejects the point
        rng = np.random.default_rng(87)
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_min=16, n_max=24, m_max=3)
            n = S.n_videos
            lone, pinned = n - 1, [n - 2, n - 3]
            S.values[pinned] = 0.0
            cands, probs = nb.candidates.copy(), nb.probs.copy()
            probs[cands == lone] = 0.0
            probs /= probs.sum(axis=1, keepdims=True)
            cands[lone, :2], probs[lone] = pinned, 0.0
            probs[lone, :2] = 0.5
            nb = NeighborMatrix(candidates=cands, probs=probs, gamma=nb.gamma)
            f0, hi = _step_inputs(S, W0, cap)
            assert hi[lone] > 0.0 and np.all(hi[pinned] == 0.0)
            f, kept = self._compare(f0, nb, labels, lam, hi, monkeypatch)
            assert lone in kept and f[lone] <= 1e-3

    def test_singular_eliminated_block_keeps_every_row(self):
        # rows 1 and 2 meet only each other, so P_HH is singular and cannot
        # be factored: nothing is eliminated, and S is all of P.  Row 0
        # meets only the pinned row 3
        nb = NeighborMatrix(
            candidates=np.array([[3], [2], [1], [0]]), probs=np.ones((4, 1)), gamma=np.ones(4)
        )
        free = np.arange(3)
        P = add_at_laplacian(nb, free)
        edges = weightstep._EdgeList(nb, free)
        B, H, w, S, Li = weightstep._harmonic_split(edges, np.array([True, False, False]))
        assert B.tolist() == [0, 1, 2] and H.size == 0 and w.shape == (0, 3) and Li.shape == (0, 0)
        np.testing.assert_array_equal(S, P)

    def test_open_box_at_mid_box(self, tmp_path, monkeypatch):
        # the first weight step of the ``uncapped`` benchmark input (seed 96,
        # instance 0): every box is open and closed at n, far above the
        # scores, whose level the exact active-set solve holds at the input,
        # so only the pseudo-labelled rows are kept, and the reduced step
        # matches the step that keeps every free row
        gen = bench_generator()
        gen.generate("uncapped", 96, 0, str(tmp_path))
        steps = []

        def first_step(*args):
            steps.append(args)
            raise RuntimeError("first weight step captured")

        with monkeypatch.context() as patch:
            patch.setattr(composer, "_weight_step", first_step)
            main(gen.rank_argv("uncapped", str(tmp_path), str(tmp_path / "out")))
        f0, nb, labels, lam, hi = steps[0][:5]
        f, kept = self._compare(f0, nb, labels, lam, hi, monkeypatch)
        assert np.all(np.isinf(hi))
        assert kept.shape[0] == len(labels.positives) + len(labels.negatives)

    def test_moved_rows_match_a_direct_split(self, monkeypatch):
        # eliminated rows moved back among the kept ones by ``reduce``,
        # without a second factor of P, against a split that keeps them from
        # the start and against dense references: the Schur complement, the
        # lift as a harmonic solve, and the certificate's curvature term
        rng = np.random.default_rng(90)
        moved = 0
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_min=20, n_max=40, m_max=3)
            n = S.n_videos
            hi = score_box_top(S.values, 1.0)
            hi[rng.integers(n)] = 0.0
            free = np.flatnonzero(hi > 0.0)
            labelled = np.isin(np.arange(n), labels.positives + labels.negatives)
            lap = _KronLaplacian(nb, free, labelled, hi[free], np.zeros(free.shape[0]))
            rows = np.zeros(free.shape[0], dtype=bool)
            rows[rng.choice(lap.elim, size=min(4, lap.elim.shape[0] // 2), replace=False)] = True
            lap.reduce(lap.kept | rows)
            moved += lap.moved.shape[0]
            with monkeypatch.context() as patch:
                patch.setattr(_KronLaplacian, "_kept", lambda self: lap.kept.copy())
                direct = _KronLaplacian(nb, free, labelled, hi[free], np.zeros(free.shape[0]))
            np.testing.assert_array_equal(lap.keep, direct.keep)
            np.testing.assert_array_equal(lap.drop, direct.drop)
            np.testing.assert_allclose(lap.S, direct.S, rtol=1e-9, atol=1e-12)
            B, H, P = lap.keep, lap.drop, add_at_laplacian(nb, free)
            for _ in range(5):
                f_b = rng.uniform(0.0, 1.0, lap.nf) * lap.top[B]
                f = lap.lift(f_b)
                np.testing.assert_allclose(f, direct.lift(f_b), rtol=1e-9, atol=1e-12)
                want = np.linalg.solve(P[np.ix_(H, H)], -P[np.ix_(H, B)] @ f_b)
                np.testing.assert_allclose(f[H], want, rtol=1e-9, atol=1e-12)
                r = rng.normal(size=free.shape[0])
                flat, curved = lap.split(r)
                flat_ref, curved_ref = eigen_curvature_split(P, r)
                np.testing.assert_allclose(flat, flat_ref, atol=1e-10)
                np.testing.assert_allclose(curved, curved_ref, rtol=1e-8)
        assert moved > 0

    @pytest.mark.parametrize("cap", [1.0, 2.0])
    def test_binding_row_joins_in_round_two(self, cap, monkeypatch):
        # the low-box instances of ``test_row_that_can_pass_its_top_is_kept``
        # with the low row's input score below its top, so the first round
        # eliminates it.  Where its lift passes its top, the second round
        # keeps it (on all 10 instances with either cap), and a step from
        # that output, where it sits at its top, keeps it from the first
        # round; elsewhere it stays eliminated inside its box.  Every step is
        # certified.  The exact active-set solve is called once per round
        rng = np.random.default_rng(86)
        joined = 0
        rounds = []
        active_set = weightstep._active_set

        def spy(qp):
            rounds.append(qp.free[qp.lap.keep])
            return active_set(qp)

        monkeypatch.setattr(weightstep, "_active_set", spy)
        for _ in range(10):
            S, labels, nb, W0, lam, low = self._low_row_instance(rng)
            f0, hi = _step_inputs(S, W0, cap)
            f0[low] = 0.5 * hi[low]
            rounds.clear()
            f, gap, bound = composer._weight_step(f0, nb, labels, lam, hi, 1e-9)
            assert gap <= bound and low not in rounds[0]
            if low in rounds[-1]:
                assert low in rounds[1]
                joined += 1
                rounds.clear()
                f, gap, bound = composer._weight_step(f, nb, labels, lam, hi, 1e-9)
                assert gap <= bound and low in rounds[0]
            else:
                assert f[low] < hi[low]
        assert joined >= 8

    def test_bench_steps_match_every_row_kept(self, tmp_path, monkeypatch):
        # the first four weight steps of the ``solve`` benchmark input (seed
        # 96, instance 0), where unlabelled rows reach their tops: the step
        # over the kept rows, with its rounds, against the step that keeps
        # every free row, both certified
        gen = bench_generator()
        gen.generate("solve", 96, 0, str(tmp_path))
        steps = []
        inner = composer._weight_step

        def record(*args):
            steps.append(args)
            return inner(*args)

        with monkeypatch.context() as patch:
            patch.setattr(composer, "_weight_step", record)
            main(gen.rank_argv("solve", str(tmp_path), str(tmp_path / "out")))
        assert len(steps) == 4
        binding = 0
        for f0, nb, labels, lam, hi in (step[:5] for step in steps):
            f, kept = self._compare(f0, nb, labels, lam, hi, monkeypatch)
            assert kept.shape[0] < 0.5 * hi.shape[0]
            binding += kept.shape[0] - len(labels.positives) - len(labels.negatives)
        assert binding > 0


class TestActiveSet:
    """The exact solve of a round (``weightstep._active_set``) and the
    certificate at the boundary points it returns."""

    @staticmethod
    def _boundary_point(qp, rng):
        """(f_b, t): a feasible point of the QP with kept scores at 0, at
        their tops and inside, whose lifts stay inside their own boxes (the
        draws whose lifts do not are drawn again), and the level t at the
        top negative score, so that its row is tight."""
        while True:
            f = rng.uniform(0.0, 1.0, qp.nf) * qp.up
            side = rng.integers(0, 3, qp.nf)
            f[side == 0] = 0.0
            f[side == 1] = qp.up[side == 1]
            if np.all(qp.lap.lift(f) <= qp.top):
                return f, max(float(f[qp.hn].max(initial=0.0)), 0.0)

    @staticmethod
    def _dense_gap(qp, P, f_b, t, z, nu):
        """``_ScoreQP.gap`` from dense matrices: the lift as a harmonic
        solve in P, each multiplier added to its own video's row one at a
        time, the hinges in closed form from each positive's score, and the
        curvature term from P's spectrum."""
        B, H = qp.lap.keep, qp.lap.drop
        f = np.empty(qp.free.shape[0])
        f[B] = f_b
        f[H] = np.linalg.solve(P[np.ix_(H, H)], -P[np.ix_(H, B)] @ f_b)
        at = np.full(qp.n, -1)
        at[qp.free] = np.arange(qp.free.shape[0])
        z = np.maximum(z, 0.0)
        nu = np.minimum(np.maximum(nu, 0.0), qp.slack_cost)
        z *= (qp.const + nu.sum()) / z.sum()
        r = P @ f
        r[B] += qp.lin
        rows = 0.0
        for j, v in enumerate(qp.neg):
            if at[v] >= 0:
                r[at[v]] += z[j]
            rows += (t - (f[at[v]] if at[v] >= 0 else 0.0)) * z[j]
        for i, v in enumerate(qp.clipped):
            r[at[v]] -= nu[i]
            h = 1.0 + t - f[at[v]]
            rows += nu[i] * max(-h, 0.0) + max(h, 0.0) * (qp.slack_cost - nu[i])
        s_up = qp.top - f

        def box_term(g):
            return float(f @ np.maximum(g, 0.0) + s_up @ np.maximum(-g, 0.0))

        flat, curved = eigen_curvature_split(P, r)
        return rows + min(box_term(r), curved + box_term(flat))

    @pytest.mark.parametrize("top", [0.8, 1.5])
    def test_gap_at_boundary_points(self, top):
        # a point on bounds, with a negative at t and hinges at, below and
        # above their kinks (box 1.5), is certified like any other feasible
        # point: the gap matches its dense reference and bounds the distance
        # to the optimum, which the rounds of exact solves give.  A score
        # outside its box gives inf
        rng = np.random.default_rng(92)
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=3)
            hi = top * rng.uniform(0.5, 1.0, S.n_videos)
            hi[rng.integers(S.n_videos)] = 0.0
            qp = _qp(nb, labels, lam, hi)
            P = add_at_laplacian(nb, qp.free)
            f_opt, t_opt, _ = _solve_rounds(qp)
            optimum = qp.objective(f_opt, t_opt)
            n_neg = qp.neg.shape[0]
            for _ in range(5):
                f_b, t = self._boundary_point(qp, rng)
                z = rng.uniform(0.0, 2.0 * lam, n_neg + qp.hp.shape[0])
                z, nu = z[:n_neg], z[n_neg:]
                gap = qp.gap(f_b, t, z, nu)
                assert np.isfinite(gap)
                want = self._dense_gap(qp, P, f_b, t, z, nu)
                assert gap == pytest.approx(want, rel=1e-8, abs=1e-12)
                assert gap >= qp.objective(f_b, t) - optimum - 1e-9
                v = int(rng.integers(qp.nf))
                for outside in (-1e-9, qp.up[v] + 1e-9):
                    bad = f_b.copy()
                    bad[v] = outside
                    assert qp.gap(bad, t, z, nu) == np.inf

    def test_lift_rounded_past_the_highest_top(self):
        # every box top 1.5 and every kept score at it: no lift passes 1.5
        # (the maximum principle), but rounding puts some a few units in the
        # last place above it.  Such a row counts as reaching its top, so the
        # next round keeps it, and the point is not feasible for the full
        # QP: its gap reads inf.  The rounds on the same QP end with every
        # lift inside its box and a certified gap
        rng = np.random.default_rng(92)
        over = 0
        for _ in range(10):
            S, labels, nb, W0, lam = random_instance(rng, n_max=16, m_max=3)
            qp = _qp(nb, labels, lam, np.full(S.n_videos, 1.5))
            n_neg = qp.neg.shape[0]
            z = rng.uniform(0.0, 2.0 * lam, n_neg + qp.hp.shape[0])
            lifted = qp.lap.lift(qp.up) > 1.5
            over += int(np.any(lifted))
            assert np.all(qp.lap.reached(qp.up)[lifted])
            assert np.isfinite(qp.gap(qp.up, 1.5, z[:n_neg], z[n_neg:])) == (not np.any(lifted))
            f_b, t, gap = _solve_rounds(qp)
            assert gap <= 1e-9 * max(1.0, abs(qp.objective(f_b, t)))
        assert over >= 3

    @pytest.mark.parametrize("cap", [1.5, 2.0, None])
    def test_hinge_slacks_certified_below_slsqp(self, cap):
        # the draws of ``test_matches_independent_qp_solve`` and
        # ``test_certified_gap`` with a cap above 1 or none, so that hinge
        # slacks enter the QP: the exact solve certifies every round, and
        # the step's value at its scores is at most that of an independent
        # SLSQP solve of the same step
        pytest.importorskip("scipy")
        draws = [(60, 8, dict(n_max=14, m_max=3)), (61, 10, dict(n_max=16, m_max=4))]
        clipped = 0
        for seed, count, sizes in draws:
            rng = np.random.default_rng(seed)
            for _ in range(count):
                S, labels, nb, W0, lam = random_instance(rng, **sizes)
                hi = score_box_top(S.values, cap)
                qp = _qp(nb, labels, lam, hi)
                clipped += qp.clipped.shape[0]
                f_b, t, gap = _solve_rounds(qp)
                assert gap <= 1e-10 * max(1.0, abs(qp.objective(f_b, t)))
                value = weight_step_value(qp.scores(f_b), nb, labels, lam)
                # within gap of the optimum, which is at most SLSQP's value;
                # the two values are summed differently, so up to rounding
                assert value <= slsqp_weight_step_value(nb, labels, lam, hi) + gap + 1e-12
        assert clipped >= 10

    def test_certified_below_slsqp(self):
        # the capped draws of ``test_matches_independent_qp_solve`` and
        # ``test_certified_gap``: the exact solve certifies every round, and
        # the step's value at its scores is at most that of an independent
        # SLSQP solve of the same step
        pytest.importorskip("scipy")
        draws = [(60, 8, dict(n_max=14, m_max=3)), (61, 10, dict(n_max=16, m_max=4))]
        for seed, count, sizes in draws:
            rng = np.random.default_rng(seed)
            for _ in range(count):
                S, labels, nb, W0, lam = random_instance(rng, **sizes)
                hi = score_box_top(S.values, 1.0)
                qp = _qp(nb, labels, lam, hi)
                f_b, t, gap = _solve_rounds(qp)
                assert gap <= 1e-10 * max(1.0, abs(qp.objective(f_b, t)))
                value = weight_step_value(qp.scores(f_b), nb, labels, lam)
                # within gap of the optimum, which is at most SLSQP's value;
                # the two values are summed differently, so up to rounding
                assert value <= slsqp_weight_step_value(nb, labels, lam, hi) + gap + 1e-12


class TestCompressGaps:
    def test_no_wide_gap_is_bit_for_bit(self):
        # scores in [0, 1], as every step capped at 1 gives, and sorted gaps
        # up to exactly 1
        rng = np.random.default_rng(84)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            for f in (
                rng.uniform(0.0, 1.0, n),
                rng.permutation(np.cumsum(rng.choice([0.0, 0.5, 1.0], n))),
            ):
                np.testing.assert_array_equal(weightstep._compress_gaps(f), f)

    def test_uncapped_optima_stay_optimal(self):
        # uncapped step optima (the box closed at n) from the exact
        # active-set solve, which holds each level that no term fixes at
        # the input scores: no sorted gap exceeds 1.  The optimum with each
        # score raised by twice its rank, so that every sorted gap exceeds 1,
        # comes back with no score risen, order and boxes kept, no sorted gap
        # above 1, and the step's value not risen
        rng = np.random.default_rng(85)
        cases = [random_instance(rng, n_max=20, m_max=3) for _ in range(10)]
        cases += [TestReferenceSolver._split_instance(rng) for _ in range(10)]
        for S, labels, nb, W0, lam in cases:
            hi = score_box_top(S.values, None)
            qp = _qp(nb, labels, lam, hi)
            f_b, _, _ = _solve_rounds(qp)
            f = qp.scores(f_b)
            assert np.all(np.diff(np.sort(f)) <= 1.0)
            order = np.argsort(f, kind="stable")
            wide = f.copy()
            wide[order] += 2.0 * np.arange(f.shape[0])
            g = weightstep._compress_gaps(wide)
            assert np.all(g <= wide)
            assert np.all(np.diff(g[order]) >= 0.0)
            assert np.all((g >= 0.0) & (g <= hi))
            assert np.all(np.diff(g[order]) <= 1.0 + 1e-12)
            value = weight_step_value(wide, nb, labels, lam)
            assert weight_step_value(g, nb, labels, lam) <= value + 1e-12 * max(1.0, value)


class TestLaplacian:
    # P is held as its edge list (``weightstep._EdgeList``): each block it
    # builds must hold the bits of the same slice of a dense P scattered by
    # np.add.at, and its product must be P f
    @staticmethod
    def _graphs(rng):
        # edge lists with mutual, zero-probability and 1e-17 edges, each
        # as drawn and with a random subset of its edges set to 0
        for _ in range(200):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, min(6, n - 1) + 1))
            cands = np.array(
                [rng.choice(np.delete(np.arange(n), i), k, replace=False) for i in range(n)]
            )
            probs = rng.dirichlet(np.ones(k), size=n)
            probs[rng.uniform(size=(n, k)) < 0.2] = 0.0
            probs[rng.uniform(size=(n, k)) < 0.1] = 1e-17
            for kept in (probs, np.where(rng.uniform(size=(n, k)) < 0.7, probs, 0.0)):
                nb = NeighborMatrix(candidates=cands, probs=kept, gamma=np.ones(n))
                yield nb, 4.0 * dense_laplacian(nb)

    @staticmethod
    def _from_edges(rng, nb, free):
        """All of P from the edge list, after checking the edge list's
        blocks: split into kept and eliminated rows as ``_harmonic_split``
        does, and on random rows and columns in random order."""
        edges = weightstep._EdgeList(nb, free)
        want = add_at_laplacian(nb, free)
        nf = free.shape[0]
        kept = rng.uniform(size=nf) < 0.3
        B, H = np.flatnonzero(kept), np.flatnonzero(~kept)
        blocks = [(H, H), (H, B), (B, B)]
        for _ in range(2):
            blocks.append(tuple(rng.permutation(nf)[: rng.integers(0, nf + 1)] for _ in range(2)))
        for rows, cols in blocks:
            got = edges.block(rows, cols)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want[np.ix_(rows, cols)])
        every = np.arange(nf)
        return edges.block(every, every)

    def test_every_row_free_is_exact(self):
        rng = np.random.default_rng(75)
        mutual = 0
        for nb, want in self._graphs(rng):
            n = nb.n_rows
            np.testing.assert_array_equal(self._from_edges(rng, nb, np.arange(n)), want)
            A = np.zeros((n, n), dtype=bool)
            A[np.arange(n)[:, None], nb.candidates] = nb.probs > 0.0
            mutual += int(np.sum(A & A.T))
        assert mutual > 0

    def test_pinned_rows(self):
        # the edges to pinned rows move into the diagonal, which then sums
        # its terms in another order
        rng = np.random.default_rng(76)
        for nb, want in self._graphs(rng):
            n = nb.n_rows
            free = np.flatnonzero(rng.uniform(size=n) < 0.7)
            got = self._from_edges(rng, nb, free)
            np.testing.assert_allclose(got, want[np.ix_(free, free)], rtol=1e-15, atol=0.0)
            np.testing.assert_array_equal(got, add_at_laplacian(nb, free))

    def test_no_edge_inside_free_rows(self):
        # the off-diagonal scatter is empty; the diagonal holds only the
        # edges to pinned rows, as floats
        rng = np.random.default_rng(77)
        for nb, want in self._graphs(rng):
            for free in (np.array([0]), np.array([], dtype=int)):
                got = self._from_edges(rng, nb, free)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, add_at_laplacian(nb, free))
                np.testing.assert_allclose(got, want[np.ix_(free, free)], rtol=1e-15, atol=0.0)

    def test_residual_is_exact_on_constants(self):
        # P f summed as edge differences: P 1 is exactly the weight of the
        # edges to pinned rows, which the dense P's diagonal holds only up
        # to the rounding of its row sum, and P f matches the dense product
        # within 1e-13 of  |P| |f|
        rng = np.random.default_rng(78)
        for nb, want in self._graphs(rng):
            n = nb.n_rows
            for free in (np.arange(n), np.flatnonzero(rng.uniform(size=n) < 0.7)):
                edges = weightstep._EdgeList(nb, free)
                P = add_at_laplacian(nb, free)
                nf = free.shape[0]
                to_pinned = -np.delete(want[free], free, axis=1).sum(axis=1)
                np.testing.assert_allclose(edges.pinned, to_pinned, rtol=1e-15, atol=0.0)
                np.testing.assert_array_equal(edges.residual(np.ones(nf)), edges.pinned)
                level = float(rng.choice([1.0, 200.0]))
                f = level + rng.uniform(size=nf)
                err = np.abs(edges.residual(f) - P @ f)
                assert np.all(err <= 1e-13 * (np.abs(P) @ np.abs(f)))


class TestCholeskyInverse:
    def test_matches_dense_inverse(self):
        # below, at and above the recursion's leaf size
        rng = np.random.default_rng(72)
        leaf = weightstep._CHOLESKY_LEAF
        for n in (0, 1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf + 3, 5 * leaf, 641):
            B = rng.normal(size=(n, n))
            A = B @ B.T / n + np.eye(n)
            work = A.copy()
            Li = weightstep._cholesky_inverse(work)
            assert Li is work  # overwritten in place
            assert np.all(np.triu(Li, 1) == 0.0)
            np.testing.assert_allclose(Li.T @ Li, np.linalg.inv(A), rtol=1e-10, atol=1e-13)

    def test_indefinite_schur_complement_raises(self, monkeypatch):
        # the leading block is the identity, so the first half factors; the
        # trailing Schur complement has a negative eigenvalue, so the error
        # comes out of the second recursive call
        rng = np.random.default_rng(79)
        n = 2 * weightstep._CHOLESKY_LEAF + 3
        h = n // 2
        B = rng.normal(size=(n - h, h))
        C = np.diag(np.r_[np.ones(n - h - 1), -0.5])
        A = np.block([[np.eye(h), B.T], [B, B @ B.T + C]])
        calls = []
        inner = weightstep._cholesky_inverse

        def spy(M):
            calls.append(M.shape[0])
            inner(M)
            calls.append(-M.shape[0])
            return M

        monkeypatch.setattr(weightstep, "_cholesky_inverse", spy)
        with pytest.raises(np.linalg.LinAlgError):
            weightstep._cholesky_inverse(A)
        assert calls[:2] == [n, h]
        # the first half returned before the second half began, which raised
        assert calls.index(-h) < calls.index(n - h)
        assert -(n - h) not in calls and -n not in calls

    def test_memory_one_half_size_product(self):
        # L21 is written into A21's storage, so one (n/2)^2 product at a
        # time is held beside A: 0.27 n^2 floats traced here.  An L21 held
        # as an array of its own, beside a product made from it, peaks at
        # 0.52 n^2
        n = 1000
        B = np.random.default_rng(82).normal(size=(n, n))
        A = B @ B.T / n + np.eye(n)
        del B
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            weightstep._cholesky_inverse(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * n * n * 8

    def test_bit_identical_to_out_of_place_reference(self):
        # overwriting A runs the same operations in the same order as
        # writing the factor into a fresh array
        rng = np.random.default_rng(80)
        for n in (0, 1, 47, 48, 49, 99, 143, 401, 641):
            B = rng.normal(size=(n, n))
            A = B @ B.T / max(n, 1) + np.eye(n)
            want = out_of_place_cholesky_inverse(A)
            np.testing.assert_array_equal(weightstep._cholesky_inverse(A.copy()), want)


class TestFinalWeights:
    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_feasible_weights_give_the_scores(self, cap):
        # rows at the box top, below and above the prior's score, an
        # all-zero row, and a row whose positive entries the prior leaves
        # at zero weight
        rng = np.random.default_rng(73)
        for _ in range(100):
            n, m = int(rng.integers(4, 10)), int(rng.integers(2, 6))
            prior = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) > 0.3)
            prior[0] = 0.0
            w0 = _initial_row(prior, m, cap)
            vals = rng.uniform(0.0, 1.0, (n, m)) * (rng.uniform(size=(n, m)) > 0.2)
            vals[0] = 0.0
            vals[1] = np.where(w0 == 0.0, rng.uniform(0.1, 1.0, m), 0.0)
            g = vals @ w0
            hi = score_box_top(vals, cap)
            top = np.where(np.isinf(hi), g + 3.0 * vals.max(axis=1), hi)
            kind = rng.integers(3, size=n)
            f = np.select(
                [kind == 0, kind == 1], [top, g * rng.uniform(size=n)],
                g + (top - g) * rng.uniform(size=n),
            )
            W = final_weights(w0, vals, f, cap)
            assert np.all(W >= 0.0)
            if cap is not None:
                assert np.all(W.sum(axis=1) <= cap * (1.0 + 1e-12))
            err = np.abs(row_scores(W, vals) - f)
            assert np.all(err <= 1e-12 * np.maximum(1.0, f))
            below = f <= g
            # a row at or below the prior's score is the prior scaled down
            np.testing.assert_allclose(
                W[below] * w0.sum(), np.outer(W[below].sum(axis=1), w0), atol=1e-15
            )


class TestGradient:
    def test_smoothness_grad_matches_finite_differences(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            S, labels, nb, W0, lam = random_instance(rng, n_max=12, m_max=3)
            P = add_at_laplacian(nb, np.arange(S.n_videos))
            W = np.maximum(W0 + rng.normal(0, 0.05, W0.shape), 0.0)

            def smooth_of_w(Wx):
                return smoothness_value(row_scores(Wx, S.values), nb)

            # P is the Hessian of the smoothness term, so P f its gradient
            grad_f = P @ row_scores(W, S.values)
            analytic = grad_f[:, None] * S.values
            numeric = finite_diff_gradient(smooth_of_w, W, h=1e-6)
            denom = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(numeric - analytic) / denom <= 1e-5


class TestScaleCoupling:
    def test_score_weight_rescaling_invariance(self):
        rng = np.random.default_rng(47)
        S, labels, nb, W0, lam = random_instance(rng)
        alpha = 3.7
        f1 = row_scores(W0, S.values)
        f2 = row_scores(W0 / alpha, S.values * alpha)
        np.testing.assert_allclose(f1, f2, atol=1e-9)
        assert push_loss_from_scores(f1, labels) == pytest.approx(
            push_loss_from_scores(f2, labels), abs=1e-9
        )
        d1 = np.square(f1[0] - f1[1:5])
        d2 = np.square(f2[0] - f2[1:5])
        np.testing.assert_allclose(neighbor_row(d1, 0.5), neighbor_row(d2, 0.5), atol=1e-9)


class TestFit:
    def _normalized_instance(self, rng, n_max=20, m_max=4):
        S, labels, nb, W0, lam = random_instance(rng, n_max=n_max, m_max=m_max)
        return normalize_scores(S), labels

    def test_candidates_at_one_distance(self):
        # one video at score 0 and twelve at 0.3: the first video's ten
        # candidates all lie at distance 0.09, which must still give it a
        # stochastic neighbor row
        S = _matrix([[0.0]] + [[0.3]] * 12, l=8)
        labels = PseudoLabels(positives=(1, 2), negatives=(0, 3))
        cfg = CompositionConfig(k_candidates=10, k_neighbors=5)
        res = fit(S, labels, np.ones(1), cfg)
        assert res.converged
        np.testing.assert_allclose(res.neighbors.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_candidates_near_one_distance(self):
        # one video at score 0, nine at 0.3 and three 2e-12 above them: the
        # first video's ten candidates lie within 1e-12 of distance 0.09,
        # which gives it a gamma of about 1e-12, far below its distances
        S = _matrix([[0.0]] + [[0.3]] * 9 + [[0.3 + 2e-12]] * 3, l=8)
        labels = PseudoLabels(positives=(1, 2), negatives=(0, 3))
        cfg = CompositionConfig(k_candidates=10, k_neighbors=5)
        res = fit(S, labels, np.ones(1), cfg)
        assert res.converged
        np.testing.assert_allclose(res.neighbors.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_initialization_reproduces_fixed_weight_ranking(self):
        rng = np.random.default_rng(48)
        S, labels = self._normalized_instance(rng)
        w_prior = rng.uniform(0.1, 1.0, S.n_concepts)
        cfg = CompositionConfig(max_outer_iters=1, k_candidates=5)
        res = fit(S, labels, w_prior, cfg)
        expected = row_scores(
            np.tile(w_prior * (1.0 / w_prior.sum()), (S.n_videos, 1)), S.values
        )
        np.testing.assert_array_equal(res.initial_scores, expected)
        # scaled prior preserves the fixed-weight ordering exactly
        ids = list(S.video_ids)
        from conceptrank.evaluation import ranked_list

        assert [v for v, _ in ranked_list(ids, res.initial_scores)] == [
            v for v, _ in ranked_list(ids, S.values @ w_prior)
        ]

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_initial_scores_are_the_tiled_prior_rows(self, cap):
        # the iteration-0 scores carry the bits of the prior row tiled into
        # a weight matrix, on narrow and wide shapes and a prior with zeros
        rng = np.random.default_rng(57)
        for n, m in [(12, 1), (40, 7), (97, 37), (230, 200)]:
            S = _matrix(rng.uniform(0.0, 1.0, (n, m)), l=n // 2)
            labels = PseudoLabels(positives=(0, 1), negatives=(2, 3, 4))
            prior = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) > 0.3)
            cfg = CompositionConfig(weight_cap=cap, max_outer_iters=1, k_candidates=5)
            res = fit(S, labels, prior, cfg)
            w0 = _initial_row(prior, m, cap)
            np.testing.assert_array_equal(
                res.initial_scores, row_scores(np.tile(w0, (n, 1)), S.values)
            )

    def test_trace_monotone(self):
        rng = np.random.default_rng(49)
        for _ in range(5):
            S, labels = self._normalized_instance(rng)
            cfg = CompositionConfig(max_outer_iters=6, k_candidates=5)
            res = fit(S, labels, np.ones(S.n_concepts), cfg)
            trace = np.array(res.objective_trace)
            # a weight step's entry never rises, bit for bit; a neighbor
            # step's entry only by rounding
            assert np.all(trace[1::2] <= trace[0::2])
            assert np.all(np.diff(trace)[1::2] <= 1e-10)

    def test_step_that_raises_the_objective_is_not_kept(self, monkeypatch):
        # a certified weight step whose scores are worse than its input: the
        # input scores with the pseudo negative of the highest box raised to
        # its top.  The fit keeps its input scores, and each weight step's
        # trace entry repeats the entry before it
        inputs = []

        def worse(f_in, neighbors, labels, lambda_push, hi, tol):
            inputs.append(f_in)
            f = f_in.copy()
            neg = np.asarray(labels.negatives)
            v = neg[np.argmax(hi[neg])]
            f[v] = hi[v]
            return f, 0.0, tol

        monkeypatch.setattr(composer, "_weight_step", worse)
        rng = np.random.default_rng(59)
        S, labels = self._normalized_instance(rng)
        res = fit(S, labels, np.ones(S.n_concepts), CompositionConfig(k_candidates=5))
        assert res.iterations == len(inputs) >= 2 and res.uncertified_steps == 0
        for f_in in inputs:
            np.testing.assert_array_equal(f_in, res.initial_scores)
        np.testing.assert_array_equal(res.scores, res.initial_scores)
        trace = res.objective_trace
        assert trace[1::2] == trace[0::2]

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_scores_from_last_weight_step(self, cap, monkeypatch):
        # the fit returns the scores its last weight step certified, with
        # the bits that step returned: no weight matrix re-rounds them
        steps = []
        inner = composer._weight_step

        def spy(*args):
            out = inner(*args)
            steps.append(out[0].copy())
            return out

        monkeypatch.setattr(composer, "_weight_step", spy)
        rng = np.random.default_rng(50)
        for _ in range(3):
            S, labels = self._normalized_instance(rng, n_max=60, m_max=8)
            cfg = CompositionConfig(weight_cap=cap, max_outer_iters=3, k_candidates=5)
            steps.clear()
            res = fit(S, labels, rng.uniform(0.1, 1.0, S.n_concepts), cfg)
            assert len(steps) == res.iterations
            np.testing.assert_array_equal(res.scores, steps[-1])

    @pytest.mark.parametrize("cap", [1.0, 2.0, None])
    def test_cap_disabled(self, cap):
        # the weights derived on read are feasible, with or without the
        # cap, and give the scores to rounding
        rng = np.random.default_rng(51)
        S, labels = self._normalized_instance(rng, n_max=12)
        cfg = CompositionConfig(weight_cap=cap, max_outer_iters=3, k_candidates=5)
        res = fit(S, labels, np.ones(S.n_concepts), cfg)
        W = res.weights
        assert W.shape == S.values.shape and np.all(W >= 0.0)
        if cap is not None:
            assert np.all(W.sum(axis=1) <= cap * (1.0 + 1e-12))
        err = np.abs(row_scores(W, S.values) - res.scores)
        assert np.all(err <= 1e-12 * np.maximum(1.0, res.scores))

    @pytest.mark.parametrize("iters", [1, 6])
    def test_weights_derived_once(self, iters, monkeypatch):
        # the fit carries scores and derives no weights; each read of
        # ``weights`` derives them once, from the scores the fit returned
        calls = []

        def counted(*args):
            calls.append(args)
            return final_weights(*args)

        monkeypatch.setattr(composer, "final_weights", counted)
        rng = np.random.default_rng(55)
        S, labels = self._normalized_instance(rng)
        cfg = CompositionConfig(max_outer_iters=iters, tol=1e-300, k_candidates=5)
        res = fit(S, labels, np.ones(S.n_concepts), cfg)
        assert res.iterations == iters
        assert calls == []
        W = res.weights
        assert len(calls) == 1 and calls[0][2] is res.scores
        np.testing.assert_array_equal(res.weights, W)
        assert len(calls) == 2

    def test_fit_builds_no_weight_matrix(self):
        # many more concepts than videos, so one n x m array (16.4 MB) would
        # outweigh all the fit holds: 4.2 MB traced here.  A tiled prior
        # row and a weight matrix to rank by take the peak to 29.0 MB, and
        # the candidate search's squared norms taken over all of S at once
        # to 16.5 MB
        rng = np.random.default_rng(58)
        n, m = 512, 4000
        S = _matrix(rng.uniform(0.0, 1.0, (n, m)), l=200)
        perm = rng.permutation(200)
        labels = PseudoLabels(
            positives=tuple(int(i) for i in perm[:20]),
            negatives=tuple(int(i) for i in perm[20:120]),
        )
        cfg = CompositionConfig(max_outer_iters=2, k_candidates=10, k_neighbors=5)
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            fit(S, labels, np.ones(m), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * m * 8

    def test_uncertified_last_step_is_not_converged(self, monkeypatch):
        # the exact active-set solve, which certifies these capped steps,
        # declines every round, so each step keeps its input scores with
        # gap inf, and the fit stalls well before its iteration cap
        rng = np.random.default_rng(53)
        S, labels = self._normalized_instance(rng)
        cfg = CompositionConfig(k_candidates=5)
        with monkeypatch.context() as patch:
            patch.setattr(weightstep, "_active_set", lambda qp: None)
            res = fit(S, labels, np.ones(S.n_concepts), cfg)
        assert res.iterations < cfg.max_outer_iters
        assert res.converged is False
        gaps = [w for w in res.warnings if "certified gap" in w]
        assert res.uncertified_steps == len(gaps) == res.iterations
        certified = fit(S, labels, np.ones(S.n_concepts), cfg)
        assert certified.converged and certified.uncertified_steps == 0

    def test_nan_gap_is_not_converged(self, monkeypatch):
        # the second of two weight steps reports a NaN gap: the fit counts
        # it as uncertified and does not report convergence
        gaps = []
        inner = weightstep._solve_rounds

        def nan_second_gap(qp):
            f_b, t, gap = inner(qp)
            gaps.append(gap)
            return f_b, t, np.nan if len(gaps) == 2 else gap

        monkeypatch.setattr(weightstep, "_solve_rounds", nan_second_gap)
        rng = np.random.default_rng(56)
        S, labels = self._normalized_instance(rng)
        # a tolerance that the second outer iteration's decrease meets
        cfg = CompositionConfig(k_candidates=5, tol=0.99)
        res = fit(S, labels, np.ones(S.n_concepts), cfg)
        assert res.iterations == 2
        assert res.uncertified_steps == 1 and "certified gap nan" in res.warnings[0]
        assert res.converged is False

    def test_two_videos_fit(self):
        # each video's one candidate takes probability 1, whatever gamma is
        S = _matrix([[1.0, 0.2], [0.0, 0.6]], l=2)
        labels = PseudoLabels(positives=(0,), negatives=(1,))
        res = fit(S, labels, np.ones(2), CompositionConfig())
        np.testing.assert_allclose(res.neighbors.probs, np.ones((2, 1)), atol=1e-15)
        assert res.converged and res.uncertified_steps == 0

    def test_one_candidate_fit(self):
        rng = np.random.default_rng(54)
        S, labels = self._normalized_instance(rng)
        res = fit(S, labels, np.ones(S.n_concepts), CompositionConfig(k_candidates=1))
        np.testing.assert_allclose(res.neighbors.probs, np.ones((S.n_videos, 1)), atol=1e-15)
        assert np.all(np.diff(res.objective_trace) <= 1e-10)

    @pytest.mark.parametrize("name", ["k_neighbors", "k_candidates"])
    def test_neighbor_counts_validated(self, name):
        with pytest.raises(ValueError, match=name):
            CompositionConfig(**{name: 0})

    def test_unnormalized_scores_rejected(self):
        S = _matrix([[0.0], [5.0], [10.0]], l=3)
        labels = PseudoLabels(positives=(0,), negatives=(1,))
        with pytest.raises(ValueError):
            fit(S, labels, np.ones(1), CompositionConfig())

    def test_label_range_validated(self):
        rng = np.random.default_rng(52)
        S, _ = self._normalized_instance(rng)
        bad = PseudoLabels(positives=(0,), negatives=(S.n_videos + 3,))
        with pytest.raises(ValueError):
            fit(S, bad, np.ones(S.n_concepts), CompositionConfig())


class TestFuseSupervised:
    def test_append_then_drop_recovers(self):
        rng = np.random.default_rng(53)
        S = normalize_scores(_matrix(rng.uniform(0, 1, (6, 3)), l=4))
        sup = rng.uniform(0, 1, 6)
        fused = fuse_supervised(S, sup)
        assert fused.n_concepts == S.n_concepts + 1
        np.testing.assert_allclose(fused.values[:, :-1], S.values, atol=1e-15)

    def test_length_mismatch(self):
        S = normalize_scores(_matrix(np.random.default_rng(0).uniform(0, 1, (6, 2)), l=4))
        with pytest.raises(ValueError):
            fuse_supervised(S, np.ones(5))

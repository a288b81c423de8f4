import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrank.composer import ScoreMatrix
from conceptrank.evaluation import (
    average_precision,
    borda_baseline,
    mean_average_precision,
    ranked_list,
)


def _matrix(values, l):
    values = np.asarray(values, dtype=np.float64)
    return ScoreMatrix(
        values=values,
        video_ids=[f"v{i}" for i in range(values.shape[0])],
        l=l,
        u=values.shape[0] - l,
        concept_ids=[f"c{j}" for j in range(values.shape[1])],
    )


class TestRankedList:
    def test_sorted_desc_ties_by_id(self):
        got = ranked_list(["b", "a", "c"], np.array([0.5, 0.5, 0.9]))
        assert got == [("c", 0.9), ("a", 0.5), ("b", 0.5)]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ranked_list(["a", "a"], np.array([1.0, 2.0]))


class TestAveragePrecision:
    def test_worked_example(self):
        ranking = [("p1", 3.0), ("n1", 2.0), ("p2", 1.0)]
        assert average_precision(ranking, {"p1", "p2"}) == pytest.approx(5.0 / 6.0)

    def test_perfect_ranking(self):
        ranking = [("p1", 3.0), ("p2", 2.0), ("n1", 1.0)]
        assert average_precision(ranking, {"p1", "p2"}) == 1.0

    def test_single_positive_last(self):
        n = 7
        ranking = [(f"x{i}", float(n - i)) for i in range(n)]
        assert average_precision(ranking, {f"x{n-1}"}) == pytest.approx(1.0 / n)

    def test_empty_positives(self):
        with pytest.raises(ValueError):
            average_precision([("a", 1.0)], set())

    def test_missing_positive_listed(self):
        with pytest.raises(ValueError, match="zz"):
            average_precision([("a", 1.0)], {"zz"})

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            scores = rng.normal(0, 1, n)
            ids = [f"v{i}" for i in range(n)]
            pos = {ids[i] for i in rng.choice(n, size=max(1, n // 3), replace=False)}
            a1 = average_precision(ranked_list(ids, scores), pos)
            a2 = average_precision(ranked_list(ids, np.exp(2.0 * scores)), pos)
            assert a1 == pytest.approx(a2, abs=1e-12)

    @given(st.integers(min_value=2, max_value=16), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_always_in_unit_interval(self, n, pyrandom):
        ids = [f"v{i}" for i in range(n)]
        scores = np.array([pyrandom.random() for _ in range(n)])
        pos = {ids[i] for i in pyrandom.sample(range(n), k=pyrandom.randint(1, n))}
        ap = average_precision(ranked_list(ids, scores), pos)
        assert 0.0 <= ap <= 1.0


class TestMeanAveragePrecision:
    def test_identical_aps(self):
        report = mean_average_precision({"e1": 0.4, "e2": 0.4, "e3": 0.4})
        assert report.map_value == pytest.approx(0.4, abs=1e-15)

    def test_mean_within_rounding(self):
        report = mean_average_precision({"e1": 0.25, "e2": 0.75})
        assert report.map_value == pytest.approx(0.5, abs=1e-12)
        assert report.as_dict()["mAP"] == report.map_value

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision({})


class TestBorda:
    def test_single_concept_matches_score_ranking(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0, 1, (8, 1))
        S = _matrix(vals, l=3)
        got = [vid for vid, _ in borda_baseline(S)]
        want = [vid for vid, _ in ranked_list(S.test_ids(), vals[3:, 0])]
        assert got == want

    def test_duplicated_columns_same_ranking(self):
        rng = np.random.default_rng(13)
        col = rng.uniform(0, 1, (8, 1))
        one = borda_baseline(_matrix(col, l=2))
        two = borda_baseline(_matrix(np.hstack([col, col]), l=2))
        assert [v for v, _ in one] == [v for v, _ in two]

    def test_matches_sorted_per_column(self):
        # against the per-column Python sort it replaces, on draws with
        # scores tied within a column and 0.0 against -0.0, which compare
        # equal and so fall to the video_id tie-break; ids are shuffled so
        # that their order differs from the rows'
        rng = np.random.default_rng(14)
        for _ in range(50):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            vals = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(n + 2, m))
            vals[rng.uniform(size=vals.shape) < 0.3] = rng.uniform(0.0, 1.0)
            ids = [f"v{i:02d}" for i in rng.permutation(n + 2)]
            S = ScoreMatrix(
                values=vals, video_ids=ids, l=2, u=n, concept_ids=[f"c{j}" for j in range(m)]
            )
            test, tids = vals[2:], S.test_ids()
            points = np.zeros(n)
            for col in range(m):
                order = sorted(range(n), key=lambda i: (-test[i, col], tids[i]))
                for rank, i in enumerate(order, start=1):
                    points[i] += n - rank
            assert borda_baseline(S) == ranked_list(tids, points)

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrank import composer
from conceptrank.cli import main
from conceptrank.graph import _CANDIDATE_BLOCK, candidate_neighbors, gamma_for_k

from helpers import (
    bench_generator,
    brute_force_simplex,
    neighbor_row,
    project_row,
    support_size,
)


class TestSimplexProject:
    def test_already_on_simplex(self):
        np.testing.assert_array_equal(
            project_row(np.array([0.5, 0.5])), [0.5, 0.5]
        )

    def test_derived_example(self):
        np.testing.assert_allclose(
            project_row(np.array([0.9, 0.6, 0.1])), [0.65, 0.35, 0.0], atol=1e-15
        )

    def test_constant_vector_gives_uniform(self):
        # the zero vector is exact; other constants round at the last ulp
        np.testing.assert_array_equal(project_row(np.zeros(5)), np.full(5, 0.2))
        for c in (-3.0, 7.5):
            out = project_row(np.full(5, c))
            np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            v = rng.uniform(-5, 5, dim)
            got = project_row(v)
            want = brute_force_simplex(v)
            assert np.linalg.norm(got - want) <= 1e-8

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_property(self, v):
        v = np.array(v)
        got = project_row(v)
        want = brute_force_simplex(v)
        assert np.linalg.norm(got - want) <= 1e-8
        assert abs(got.sum() - 1.0) < 1e-9
        assert np.all(got >= 0.0)


class TestUpdateNeighbors:
    def test_zero_distances_uniform(self):
        out = neighbor_row(np.zeros(4), gamma=2.0)
        np.testing.assert_array_equal(out, np.full(4, 0.25))

    def test_two_point_example(self):
        np.testing.assert_array_equal(
            neighbor_row(np.array([0.0, 8.0]), gamma=1.0), [1.0, 0.0]
        )

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            neighbor_row(np.array([0.1, 0.2]), gamma=0.0)

    def test_beats_uniform_objective(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            d = rng.uniform(0, 4, dim)
            gamma = float(rng.uniform(0.05, 5.0))
            a = neighbor_row(d, gamma)
            uniform = np.full(dim, 1.0 / dim)

            def obj(x):
                return float(d @ x + gamma * (x @ x))

            assert obj(a) <= obj(uniform) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = rng.uniform(0, 3, 5)
            a1 = neighbor_row(d, 0.7)
            a2 = neighbor_row(d + 2.5, 0.7)
            np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = rng.uniform(0, 2, 5)
            j = int(rng.integers(5))
            a_before = neighbor_row(d, 1.0)
            d2 = d.copy()
            d2[j] += rng.uniform(0.1, 1.0)
            a_after = neighbor_row(d2, 1.0)
            assert a_after[j] <= a_before[j] + 1e-12

    def test_distances_far_above_gamma(self):
        # nine candidates at 0.09 and one 1e-12 further give gamma 4.5e-12
        # at k = 5; projecting -d / (2 gamma), about -1e10, lost the
        # differences' digits and gave a row summing to 1 + 1.3e-5
        d = np.r_[np.full(9, 0.09), 0.09 + 1e-12]
        g = gamma_for_k(d, 5)
        assert g < 1e-11
        assert abs(neighbor_row(d, g).sum() - 1.0) <= 1e-12
        rng = np.random.default_rng(3)
        for _ in range(300):
            dim = int(rng.integers(2, 30))
            d = rng.choice([0.09, 1.0, 1e3]) + rng.uniform(0.0, 1e-12, dim)
            a = neighbor_row(d, float(rng.choice([1e-14, 1e-12, gamma_for_k(d, 1)])))
            assert np.all(a >= 0.0) and abs(a.sum() - 1.0) <= 1e-12

    def test_large_gamma_approaches_uniform(self):
        d = np.array([0.3, 1.2, 0.8, 2.0])
        a = neighbor_row(d, 1e9)
        assert np.abs(a - 0.25).max() <= 1e-6


class TestGammaForK:
    def test_worked_example(self):
        d = np.array([0.0, 1.0, 2.0, 3.0])
        g = gamma_for_k(d, 2)
        assert g == 1.5
        assert support_size(neighbor_row(d, g)) == 2

    def test_all_equal_distances(self):
        # any gamma > 0 gives the uniform row; a rounding-level one loses
        # every digit of the projection
        for dist in (0.0, 1e-8, 0.01, 0.09, 2.0, 1e4):
            for length in (5, 12, 50):
                d = np.full(length, dist)
                g = gamma_for_k(d, 2)
                assert g > 0
                a = neighbor_row(d, g)
                assert support_size(a) == length
                assert abs(a.sum() - 1.0) <= 1e-12

    def test_nearest_neighbor_limit(self):
        d = np.array([0.5, 3.0, 4.0, 5.0])
        g = gamma_for_k(d, 1)
        a = neighbor_row(d, g)
        assert support_size(a) == 1
        assert a.argmax() == 0

    def test_tie_fallback_support_at_least_k(self):
        d = np.array([0.0, 1.0, 1.0, 2.0])
        g = gamma_for_k(d, 2)
        assert support_size(neighbor_row(d, g)) >= 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            gamma_for_k(np.array([1.0, 2.0]), 2)

    def test_random_support(self):
        # the support is counted with no tolerance: rounding leaves no
        # probability of about 1e-16 past the k-th entry
        rng = np.random.default_rng(7)
        for _ in range(300):
            dim = int(rng.integers(3, 30))
            d = rng.uniform(0, 5, dim)
            k = int(rng.integers(1, dim))
            a = neighbor_row(d, gamma_for_k(d, k))
            assert np.count_nonzero(a > 0.0) == k
            assert abs(a.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [1, 3, 7, 8, 12, 29])
    def test_rows_match_one_row_at_a_time(self, k):
        # an (n, k_cand) array gives each row the bits of that row alone:
        # the same prefix sums (pairwise from k = 9 on), and the one-row
        # rule for a tie at the k-th distance and for a single distance
        rng = np.random.default_rng(k)
        D = np.vstack([
            rng.uniform(0.0, 5.0, (40, 30)),
            rng.integers(0, 4, (40, 30)) * 0.25,
            np.full((3, 30), 0.09),
            np.zeros((2, 30)),
        ])
        got = gamma_for_k(D, k)
        want = np.array([gamma_for_k(d, k) for d in D])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        d = np.sort(D, axis=1)
        assert np.sum(d[:, k] == d[:, k - 1]) > 5

    @pytest.mark.parametrize("k", [3, 7, 12])
    def test_nudged_rows_match_one_row_at_a_time(self, k):
        # distances an ulp apart whose boundary value rounds to <= 0 with
        # no tie at the k-th distance: the one-row rule nudges them
        rng = np.random.default_rng(k)
        rows = []
        for _ in range(20000):
            base = rng.uniform(0.05, 2.0)
            d = base + rng.integers(0, 4, 30) * np.spacing(base)
            s = np.sort(d)
            if s[k] != s[k - 1] and k * s[k] - s[:k].sum() <= 0.0:
                rows.append(d)
                if len(rows) == 5:
                    break
        assert len(rows) == 5
        D = np.vstack(rows + [rng.uniform(0.0, 5.0, 30)])
        got = gamma_for_k(D, k)
        want = np.array([gamma_for_k(d, k) for d in D])
        assert got.tobytes() == want.tobytes()
        assert np.all((got[:5] > 0.0) & (got[:5] <= 1e-12))

    @pytest.mark.parametrize("workload", sorted(bench_generator().WORKLOADS))
    def test_rows_match_on_bench_distances(self, workload, tmp_path, monkeypatch):
        # fit takes every row's gamma in one call, from the distances of
        # its initial scores; on a benchmark input each row gets its own
        # gamma's bits
        gen = bench_generator()
        calls = []

        def recorded(D, k):
            calls.append((D.copy(), k, gamma_for_k(D, k)))
            return calls[-1][2]

        monkeypatch.setattr(composer, "gamma_for_k", recorded)
        data = str(tmp_path / "in")
        os.makedirs(data)
        gen.generate(workload, 90, 0, data)
        assert main(gen.rank_argv(workload, data, str(tmp_path / "out"))) == 0
        assert len(calls) == gen.WORKLOADS[workload].events
        for D, k, got in calls:
            want = np.array([gamma_for_k(d, k) for d in D])
            assert D.ndim == 2 and got.tobytes() == want.tobytes()


class TestCandidateNeighbors:
    def test_shape_and_self_exclusion(self):
        rng = np.random.default_rng(0)
        S = rng.uniform(0, 1, (12, 3))
        cands = candidate_neighbors(S, 5)
        assert cands.shape == (12, 5)
        for i in range(12):
            assert i not in cands[i]

    def test_nearest_first(self):
        S = np.array([[0.0], [0.1], [5.0]])
        cands = candidate_neighbors(S, 2)
        assert cands[0].tolist() == [1, 2]

    def test_deterministic_ties(self):
        S = np.zeros((4, 2))
        c1 = candidate_neighbors(S, 3)
        c2 = candidate_neighbors(S, 3)
        np.testing.assert_array_equal(c1, c2)
        assert c1[0].tolist() == [1, 2, 3]
        # small integer coordinates: exact distances, most of them tied
        S = np.random.default_rng(5).integers(0, 3, (40, 2)).astype(np.float64)
        cands = candidate_neighbors(S, 12)
        d2 = np.square(S[:, None, :] - S[None, :, :]).sum(axis=2)
        for i in range(len(S)):
            others = [j for j in range(len(S)) if j != i]
            order = sorted(others, key=lambda j: (d2[i, j], j))
            assert cands[i].tolist() == order[:12]

    def test_memory_linear_in_n(self):
        # the distances are computed a block of rows at a time, so the traced
        # peak stays below four blocks of them (12.3 MB here), where the
        # n x n matrix of them alone would take 72 MB
        S = np.random.default_rng(12).uniform(0, 1, (3000, 20))
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            candidate_neighbors(S, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _CANDIDATE_BLOCK * S.shape[0] * 8

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            candidate_neighbors(np.zeros((3, 2)), 3)

    def test_matches_stable_argsort(self):
        # the first k columns of a stable argsort of the same distances, on
        # random rows, integer rows (most distances tied) and repeated rows
        # (zero distances tied), with more rows than one block.  The
        # distances are computed a block of rows at a time, as the program
        # does: a product over one block can differ from the full product at
        # rounding level, which reorders repeated rows' ties
        rng = np.random.default_rng(11)
        inputs = [
            rng.uniform(0, 1, (300, 5)),
            rng.integers(0, 3, (300, 2)).astype(np.float64),
            np.repeat(rng.uniform(0, 1, (30, 4)), 10, axis=0),
            rng.uniform(0, 1, (7, 3)),
        ]
        for S in inputs:
            n = S.shape[0]
            sq = np.sum(S * S, axis=1)
            d2 = np.concatenate(
                [
                    sq[lo : lo + _CANDIDATE_BLOCK, None] + sq[None, :]
                    - 2.0 * (S[lo : lo + _CANDIDATE_BLOCK] @ S.T)
                    for lo in range(0, n, _CANDIDATE_BLOCK)
                ]
            )
            np.fill_diagonal(d2, np.inf)
            want = np.argsort(d2, axis=1, kind="stable")
            for k in sorted({1, 2, 5, 12, n // 2, n - 1} & set(range(1, n))):
                np.testing.assert_array_equal(candidate_neighbors(S, k), want[:, :k])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrank.graph import candidate_neighbors, gamma_for_k

from helpers import brute_force_simplex, neighbor_row, project_row, support_size


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

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            candidate_neighbors(np.zeros((3, 2)), 3)

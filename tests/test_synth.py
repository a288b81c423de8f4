import numpy as np
import pytest

from conceptrank.synth import gen_instance, toy_embedding_rows
from conceptrank.query import PseudoLabels
from conceptrank.text import porter_stem

from helpers import (
    brute_force_push,
    brute_force_simplex,
    finite_diff_gradient,
    toy_embedding_table,
)


class TestToyTable:
    def test_unit_one_hot_vectors(self):
        table = toy_embedding_table()
        for vec in table.vectors.values():
            assert np.count_nonzero(vec) == 1
            assert vec.max() == 1.0

    def test_stems_included(self):
        table = toy_embedding_table()
        for token, vec in toy_embedding_rows():
            stem = porter_stem(token)
            assert stem in table
            np.testing.assert_array_equal(table.vectors[stem], vec)


class TestGenInstance:
    def test_same_seed_bit_identical(self):
        a = gen_instance(seed=11, l=8, u=8, m=5, n_informative=2, sigma=0.2)
        b = gen_instance(seed=11, l=8, u=8, m=5, n_informative=2, sigma=0.2)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.informative == b.informative
        assert [v.description for v in a.videos] == [v.description for v in b.videos]

    def test_different_seed_differs(self):
        a = gen_instance(seed=11, l=8, u=8, m=5, n_informative=2, sigma=0.2)
        b = gen_instance(seed=12, l=8, u=8, m=5, n_informative=2, sigma=0.2)
        assert not np.array_equal(a.scores, b.scores)

    def test_noiseless_informative_column_separates(self):
        inst = gen_instance(seed=3, l=10, u=10, m=4, n_informative=1, sigma=0.0)
        k = inst.informative[0]
        truth = np.concatenate([inst.weak_truth, inst.test_truth])
        col = inst.scores[:, k]
        assert col[truth == 1].min() >= 0.7
        assert col[truth == 0].max() <= 0.3

    def test_noise_clipped_to_unit_interval(self):
        inst = gen_instance(seed=4, l=10, u=10, m=4, n_informative=1, sigma=0.6)
        assert inst.scores.min() >= 0.0 and inst.scores.max() <= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_instance(seed=0, l=2, u=8, m=4, n_informative=1, sigma=0.0)
        with pytest.raises(ValueError):
            gen_instance(seed=0, l=8, u=8, m=4, n_informative=5, sigma=0.0)
        with pytest.raises(ValueError):
            gen_instance(seed=0, l=8, u=8, m=4, n_informative=1, sigma=-0.1)

    def test_exact_pseudo_labels_match_truth(self):
        inst = gen_instance(seed=5, l=12, u=8, m=4, n_informative=1, sigma=0.0)
        labels = inst.exact_pseudo_labels()
        assert set(labels.positives) == set(np.flatnonzero(inst.weak_truth == 1))


# the oracles of helpers.py, which the tests of graph and composer trust,
# checked here on cases worked by hand
class TestBruteForceSimplex:
    def test_uniform_for_constants(self):
        np.testing.assert_allclose(
            brute_force_simplex(np.zeros(4)), np.full(4, 0.25), atol=1e-12
        )

    def test_already_feasible(self):
        v = np.array([0.2, 0.8])
        np.testing.assert_allclose(brute_force_simplex(v), v, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            brute_force_simplex(np.zeros(7))


class TestBruteForcePush:
    def test_matches_by_hand(self):
        labels = PseudoLabels(positives=(0, 1), negatives=(2,))
        assert brute_force_push([2.0, 0.5, 1.0], labels) == pytest.approx(0.75)

    def test_no_violation(self):
        labels = PseudoLabels(positives=(0,), negatives=(1,))
        assert brute_force_push([5.0, 1.0], labels) == 0.0


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_linear_exact_for_any_step(self):
        c = np.array([2.0, -3.0, 0.5])
        for h in (1e-3, 1e-5, 1e-7):
            grad = finite_diff_gradient(lambda x: float(c @ x), np.zeros(3), h=h)
            np.testing.assert_allclose(grad, c, atol=1e-8)

    def test_matrix_shaped_input(self):
        x = np.arange(6.0).reshape(2, 3)
        grad = finite_diff_gradient(lambda m: float(np.sum(m * m)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-5)

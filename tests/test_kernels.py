import numpy as np

from conceptrank import _kernels


def test_simplex_project_rows_worked_example():
    v = np.array([[0.9, 0.6, 0.1]])
    np.testing.assert_allclose(
        _kernels.simplex_project_rows(v), [[0.65, 0.35, 0.0]], atol=1e-15
    )

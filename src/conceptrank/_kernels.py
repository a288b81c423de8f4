"""The neighbor step's row projection onto the probability simplex, in numpy.

It is vectorized across rows and exact up to rounding: it sorts once and
solves its piecewise-linear threshold equation on the sorted kinks,
without iterating to a tolerance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_project_rows"]


def simplex_project_rows(V: np.ndarray) -> np.ndarray:
    """Project each row of V onto the probability simplex
    {a : a >= 0, sum(a) = 1}.

    Sort-and-threshold Euclidean projection, vectorized across rows.
    """
    V = np.asarray(V, dtype=np.float64)
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, V.shape[1] + 1)
    cond = U > css / ind
    rho = np.count_nonzero(cond, axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


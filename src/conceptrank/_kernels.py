"""The neighbor step's row projection onto the probability simplex, in numpy.

It is vectorized across rows and exact up to rounding: it sorts once and
solves its piecewise-linear threshold equation on the sorted kinks,
without iterating to a tolerance, and returns rounding-level entries as 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_project_rows"]


def simplex_project_rows(V: np.ndarray) -> np.ndarray:
    """Project each row of V onto the probability simplex
    {a : a >= 0, sum(a) = 1}.

    Sort-and-threshold Euclidean projection, vectorized across rows: row i
    is  V_i - theta_i  with every entry at or below its rounding error,
    k eps max(1, |theta_i|)  on rows of length k, set to exactly 0.  So at
    ``graph.gamma_for_k``'s boundary no (k+1)-th entry keeps ~1e-16.
    """
    V = np.asarray(V, dtype=np.float64)
    k = V.shape[1]
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, k + 1)
    cond = U > css / ind
    rho = np.count_nonzero(cond, axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    out = V - theta[:, None]
    noise = k * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(theta))
    out[out <= noise[:, None]] = 0.0
    return out

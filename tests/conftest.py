import numpy as np
import pytest

from conceptrank.embeddings import EmbeddingTable


@pytest.fixture(scope="session")
def tiny_table():
    """Three orthogonal tokens (plus stems), as in the worked examples."""
    vecs = {
        "dog": np.array([1.0, 0.0, 0.0]),
        "show": np.array([0.0, 1.0, 0.0]),
        "parade": np.array([0.0, 0.0, 1.0]),
        "parad": np.array([0.0, 0.0, 1.0]),  # cleaned-description stem
    }
    return EmbeddingTable(dimension=3, vectors=vecs)

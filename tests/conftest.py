import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a Tier-1 result depends only on the code
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def caution_matrix():
    """Rank-2 matrix with duplicated columns; sigma = (sqrt2, sqrt2, 0, 0)."""
    return np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])


@pytest.fixture
def gram_demo_matrix():
    """Nearly dependent columns whose Gram matrix is singular in float64."""
    return np.array([[1.0, 1.0], [1e-9, 0.0], [0.0, 1e-9]])

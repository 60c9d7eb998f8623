import os

# one BLAS thread unless the environment sets another count, set before
# numpy loads OpenBLAS: a suite that shares the cores with other numpy work
# then does not oversubscribe them, which stretched the timed acceptance
# tests past their gates.  pytest loads this file before any module under
# tests/ and, on a whole-suite run (testpaths lists tests/ first), before
# perfbench/tests as well
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

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

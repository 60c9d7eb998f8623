import os
from pathlib import Path

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


@pytest.fixture
def numpy_without_avx_env():
    """Environment for a child process that runs this checkout's cssident
    with numpy's AVX2/AVX-512 targets turned off: their complex loops round
    a product like a fused multiply-add.  Targets this process already
    runs without stay off; NPY_DISABLE_CPU_FEATURES is left unset when
    neither list names any."""
    import cssident
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    src = str(Path(cssident.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items()
           if not key.startswith("NPY_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    targets = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() + [
        name for name in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
        if __cpu_features__.get(name)]
    if targets:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    return env

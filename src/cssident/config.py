"""Central numeric defaults.

Every tolerance used by the library lives here.  Values can be overridden
per call (most functions take a ``tol`` argument) or globally through
environment variables with the ``CSSIDENT_`` prefix:

    CSSIDENT_TOL_ORTH         orthonormality check tolerance
    CSSIDENT_TOL_RECON        factorization reconstruction tolerance
    CSSIDENT_TOL_RANK_FACTOR  multiplier c in the rank cutoff c*n*eps*sigma_1
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances for factorization and rank decisions.

    ``rank_factor`` scales the relative rank cutoff: a singular value
    sigma_j is treated as zero when sigma_j <= rank_factor * n * eps * sigma_1.
    """

    orth: float = 1e-12
    recon: float = 1e-12
    rank_factor: float = 1.0

    def rank_cutoff(self, n: int, sigma1: float) -> float:
        """Absolute cutoff below which singular values count as zero."""
        return self.rank_factor * n * _EPS * sigma1


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    return float(raw)


def from_env() -> Tolerances:
    """Build tolerances from ``CSSIDENT_*`` environment variables."""
    return Tolerances(
        orth=_env_float("CSSIDENT_TOL_ORTH", 1e-12),
        recon=_env_float("CSSIDENT_TOL_RECON", 1e-12),
        rank_factor=_env_float("CSSIDENT_TOL_RANK_FACTOR", 1.0),
    )


DEFAULT = from_env()

# Residuals this far above the rank cutoff no longer count as an exact
# rank deficiency (covers the sqrt(p) inflation of projector round-off).
RESIDUAL_DEFICIENCY_FACTOR = 4.0

# Relative slack on srrqr's bound f: a swap is taken only while
# max rho > f * (1 + SRRQR_TIE_SLACK), and the srrqr-coupling-cap check
# allows the same slack.
SRRQR_TIE_SLACK = 1e-12

SCHEMA_VERSION = "1"

"""Central numeric constants.

Every tolerance and convention the library shares lives here, as a plain
constant, so results depend only on the input and the call's arguments:

    ORTH_TOL                    orthonormality check on Q factors
    RECON_TOL                   relative reconstruction check on QR factors
    rank_cutoff(n, sigma1)      singular values at or below n*eps*sigma_1
                                count as zero
    RESIDUAL_DEFICIENCY_FACTOR  gamma2's exact-deficiency margin
    SRRQR_TIE_SLACK             relative slack on srrqr's bound f
    SCHEMA_VERSION              version stamped into every JSON output
    FLOAT_FMT                   17 significant digits, so every float
                                written to a text file round-trips exactly
"""
from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

ORTH_TOL = 1e-12
RECON_TOL = 1e-12


def rank_cutoff(n: int, sigma1: float) -> float:
    """Absolute cutoff below which singular values count as zero."""
    return n * _EPS * sigma1


# Residuals this far above the rank cutoff no longer count as an exact
# rank deficiency (covers the sqrt(p) inflation of projector round-off).
RESIDUAL_DEFICIENCY_FACTOR = 4.0

# Relative slack on srrqr's bound f: a swap is taken only while
# max rho > f * (1 + SRRQR_TIE_SLACK), and the srrqr-coupling-cap check
# allows the same slack.
SRRQR_TIE_SLACK = 1e-12

SCHEMA_VERSION = "1"

FLOAT_FMT = "%.17g"

"""Parameter identifiability analysis by column subset selection.

The package selects well-conditioned column subsets of sensitivity
matrices directly, through pivoted QR machinery, instead of forming the
information (Gram) matrix whose explicit construction squares the
condition number.
"""
from .css import (
    ALGORITHMS,
    CssResult,
    RankPolicy,
    RankSelection,
    SrrqrConfig,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    run_css,
    select_k,
    srrqr_rho,
)
from .errors import (
    CssIdentError,
    InputDomainError,
    IntegrationFailureError,
    NumericalFailureError,
)
from .generators import (
    SpectrumSpec,
    designated_k,
    gen_gu_eisenstat,
    gen_jolliffe,
    gen_kahan,
    gen_ships,
    gen_sorensen_embree,
    haar_orthonormal,
    realize,
)
from .linalg import (
    QrFactors,
    SvdFactors,
    condition_number,
    qr_col_pivoted,
    qr_unpivoted,
    residual_norm,
    singular_values,
    svd,
)
from .matio import read_matrix, write_matrix
from .metrics import (
    BoundCheck,
    GramLossReport,
    MetricsRecord,
    compute_metrics,
    gram_loss_demo,
    theorem_bound_checks,
)
from .odesens import (
    NOMINAL_SVIR,
    PrescribedSystem,
    SensMethod,
    SvirParams,
    SvirState,
    TimeGrid,
    build_prescribed_system,
    default_initial_state,
    integrate,
    observe_prescribed,
    observe_prescribed_integrated,
    sample_nominal_neighborhood,
    svir_rhs,
    svir_sensitivity,
    verify_prescribed_sensitivity,
)
from .bench import AggregateReport, ExperimentSpec, run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

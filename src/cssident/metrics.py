"""Selection quality metrics and the Gram-matrix precision-loss demo.

gamma1 compares the conditioning of the selected block against the best
possible, gamma2 compares the rejected block's projection residual
against the best possible, and tau is the condition number improvement.
Exactly rank-deficient and infinitely ill-conditioned cases are resolved
by an explicit flag instead of a silent NaN:

    gamma2_flag  'ok'               finite ratio
                 'exact-deficiency' numerator and denominator both below
                                    the rank cutoff; gamma2 reported as 1
                 'infinite'         only the denominator vanished
    tau_flag     'ok' | 'undefined' (cond(chi) infinite; tau is None)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import RECON_TOL, RESIDUAL_DEFICIENCY_FACTOR, SRRQR_TIE_SLACK, rank_cutoff
from .css import CssResult, v11_inverse_norm
from .errors import InputDomainError, NumericalFailureError
from .linalg import SvdFactors, _pow2_exponent, check_matrix, residual_norm, svd


@dataclass(frozen=True)
class MetricsRecord:
    """Quality metrics of one CssResult plus the raw quantities behind them."""

    algorithm: str
    k: int
    gamma1: float
    gamma2: float
    tau: float | None
    gamma2_flag: str
    tau_flag: str
    sigma_k_chi1: float
    sigma_k_chi: float
    residual: float
    sigma_k_plus_1: float
    cond_chi1: float
    cond_chi: float

    def as_dict(self) -> dict:
        # every field is a scalar, so a shallow copy equals asdict's deep one
        return dict(vars(self))


def compute_metrics(chi, chi_svd: SvdFactors, result: CssResult) -> MetricsRecord:
    """Evaluate gamma1, gamma2 and tau for ``result`` against ``chi``.

    ``chi_svd`` is ``svd(chi)``.  The factors must actually factor ``chi``:
    the column norms of their r must match those of ``chi[:, perm]``, in
    O(np) and without their q (``QrFactors.column_norm_error``, a
    misfit no larger than the reconstruction residual's).  chi1/chi2
    quantities are recomputed from the selected columns, independently of
    the stored factors.  Factors with non-finite entries raise
    NumericalFailureError.
    """
    arr = check_matrix(chi)
    n, p = arr.shape
    k = result.k
    # chi is finite, so the misfit is finite exactly where r is
    misfit = result.factors.column_norm_error(arr)
    if not math.isfinite(misfit):
        raise NumericalFailureError("the result's factors are not finite")
    if misfit > 100 * RECON_TOL:
        raise InputDomainError("result was not produced from this matrix")
    sigma = chi_svd.sigma
    sigma1 = float(sigma[0])
    cutoff = rank_cutoff(n, sigma1)

    perm = result.perm
    chi1 = arr[:, perm[:k]]
    chi2 = arr[:, perm[k:]]
    s_chi1 = np.linalg.svd(chi1, compute_uv=False)
    sigma_k_chi1 = float(s_chi1[k - 1])
    sigma_k_chi = float(sigma[k - 1])
    sigma_k_plus_1 = float(sigma[k])
    resid = residual_norm(chi1, chi2)

    gamma1 = sigma_k_chi1 / sigma_k_chi if sigma_k_chi > 0 else 1.0

    if sigma_k_plus_1 <= cutoff:
        if resid <= RESIDUAL_DEFICIENCY_FACTOR * np.sqrt(p) * cutoff:
            gamma2, gamma2_flag = 1.0, "exact-deficiency"
        else:
            gamma2, gamma2_flag = float("inf"), "infinite"
    else:
        gamma2, gamma2_flag = resid / sigma_k_plus_1, "ok"

    cond_chi = float("inf") if sigma[-1] <= cutoff else sigma1 / float(sigma[-1])
    cond_chi1 = (
        float("inf") if s_chi1[-1] <= cutoff else float(s_chi1[0] / s_chi1[-1])
    )
    if np.isinf(cond_chi):
        tau, tau_flag = None, "undefined"
    else:
        tau, tau_flag = cond_chi1 / cond_chi, "ok"

    return MetricsRecord(
        algorithm=result.algorithm,
        k=k,
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        tau=None if tau is None else float(tau),
        gamma2_flag=gamma2_flag,
        tau_flag=tau_flag,
        sigma_k_chi1=sigma_k_chi1,
        sigma_k_chi=sigma_k_chi,
        residual=float(resid),
        sigma_k_plus_1=sigma_k_plus_1,
        cond_chi1=cond_chi1,
        cond_chi=float(cond_chi),
    )


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs + slack (or >=, per ``sense``)."""

    name: str
    satisfied: bool
    lhs: float
    rhs: float
    sense: str  # 'le' or 'ge'
    slack: float


def _check(name, lhs, rhs, sense, slack, e=0) -> BoundCheck:
    # decided on values scaled by the exact power of two 2^-e and reported
    # in input units, as inf past the double range
    if sense == "le":
        ok = lhs <= rhs + slack
    else:
        ok = lhs >= rhs - slack
    return BoundCheck(name=name, satisfied=bool(ok), lhs=_ldexp_or_inf(lhs, e),
                      rhs=_ldexp_or_inf(rhs, e), sense=sense,
                      slack=_ldexp_or_inf(slack, e))


def _ldexp_or_inf(x: float, e: int) -> float:
    # x * 2^e for x >= 0, exact where it fits; inf past the double range,
    # where ldexp raises OverflowError
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def theorem_bound_checks(chi_svd: SvdFactors, result: CssResult) -> list[BoundCheck]:
    """Evaluate the stated accuracy guarantees for one result.

    ``chi_svd`` is the SVD of the matrix ``result`` was selected from.
    Includes singular value interlacing for the final split and the
    algorithm-specific bounds.  Each inequality allows an absolute slack
    of 1e-8 sigma_1, except the two unitless caps, b3's ||V11^{-1}|| <=
    2^(k-1) and srrqr's coupling <= f, which allow 1e-9 times 2^(k-1) and
    f; srrqr's bound f is the one it ran with, ``result.extras['f']``.

    Each inequality is decided on sigma and R scaled by the exact power of
    two that brings sigma_1 into [0.5, 1), so no bound over- or underflows;
    lhs, rhs and slack are reported in input units, as inf where the value
    exceeds the double range.  The b1 and b3 bounds with a factor
    2^(p-k-1) or 2^(k-1) are inf where they exceed the double range even
    after scaling, and 0 where the sigma they multiply is 0.

    For b1, ``b1-residual-upper`` is the stated form ||R22||_2 <=
    2^(p-k-1) sigma_{k+1}.  At k = p-1 it demands |r_pp| <= sigma_p, but
    |r_pp| >= sigma_p for every permutation, so no selection meets it
    beyond the slack (it is unsatisfied on all 64 b1 SVIR analyses in
    perfbench/golden/svir100.json, k = 3 = p-1).  What b1 guarantees is
    ``b1-diag-l`` (|r_ll| <= sqrt(l) sigma_l for l = k+1..p) and the
    ``b1-residual-upper-proof-form`` that follows from it.
    """
    e = _pow2_exponent(chi_svd.sigma)
    sigma = np.ldexp(chi_svd.sigma, -e).tolist()
    p = len(sigma)
    k = result.k
    slack = 1e-8 * sigma[0]
    r = np.ldexp(result.factors.r, -e)
    r11 = r[:k, :k]
    r22 = r[k:, k:]
    s_r11 = np.linalg.svd(r11, compute_uv=False).tolist()
    s_r22 = np.linalg.svd(r22, compute_uv=False).tolist()

    def check(name, lhs, rhs, sense):
        return _check(name, lhs, rhs, sense, slack, e)

    checks = []
    for j in range(k):
        checks.append(check(f"interlacing-r11-{j + 1}", s_r11[j], sigma[j], "le"))
    for j in range(p - k):
        checks.append(check(f"interlacing-r22-{j + 1}", s_r22[j], sigma[k + j], "ge"))

    alg = result.algorithm
    if alg == "b1":
        checks.append(check(
            "b1-residual-upper", s_r22[0], _ldexp_or_inf(sigma[k], p - k - 1), "le",
        ))
        checks.append(check(
            "b1-residual-upper-proof-form", s_r22[0],
            math.sqrt(p * (p - k)) * _ldexp_or_inf(sigma[k], p - k - 1), "le",
        ))
        for ell in range(k + 1, p + 1):
            checks.append(check(
                f"b1-diag-{ell}", abs(float(r[ell - 1, ell - 1])),
                math.sqrt(ell) * sigma[ell - 1], "le",
            ))
    elif alg == "b4":
        checks.append(check(
            "b4-sigmak-lower", s_r11[-1], 2.0 ** (1 - k) * sigma[k - 1], "ge",
        ))
        for ell in range(1, k + 1):
            checks.append(check(
                f"b4-diag-{ell}", abs(float(r[ell - 1, ell - 1])),
                sigma[ell - 1] / math.sqrt(p - ell + 1), "ge",
            ))
    elif alg == "b3":
        v11_inv = result.extras.get("v11_inv_norm")
        if v11_inv is None:
            v11_inv = v11_inverse_norm(chi_svd, result.perm, k)
        cap = _ldexp_or_inf(1.0, k - 1)
        checks.append(_check("b3-v11-inverse-cap", v11_inv, cap, "le", 1e-9 * cap))
        checks.append(check("b3-sigmak-lower", s_r11[-1], sigma[k - 1] / v11_inv, "ge"))
        checks.append(check("b3-residual-upper", s_r22[0], v11_inv * sigma[k], "le"))
    elif alg == "srrqr":
        fval = result.extras["f"]
        factor = math.sqrt(1.0 + fval * fval * k * (p - k))
        for i in range(k):
            checks.append(check(
                f"srrqr-sigma-lower-{i + 1}", s_r11[i], sigma[i] / factor, "ge",
            ))
        for j in range(p - k):
            checks.append(check(
                f"srrqr-sigma-upper-{j + 1}", s_r22[j], sigma[k + j] * factor, "le",
            ))
        coupling = sla.solve_triangular(r11, r[:k, k:]) if p > k else np.zeros((k, 0))
        max_entry = float(np.max(np.abs(coupling))) if coupling.size else 0.0
        checks.append(_check("srrqr-coupling-cap", max_entry,
                             fval * (1.0 + SRRQR_TIE_SLACK), "le", 1e-9 * fval))
    return checks


@dataclass(frozen=True)
class GramLossReport:
    """Numerical ranks of the precision-loss demo matrix, computed via the
    Gram-matrix eigenvalue route and via the SVD route."""

    matrix: np.ndarray
    gram: np.ndarray
    eta: float
    gram_eigenvalues: np.ndarray
    gram_rank: int
    sigma: np.ndarray
    css_rank: int


def gram_loss_demo(eta: float = 1e-12) -> GramLossReport:
    """Contrast rank detection on [[1,1],[1e-9,0],[0,1e-9]].

    The Gram matrix formed in double precision is exactly singular, so
    the eigenvalue route reports rank 1, while the SVD of the matrix
    itself resolves sigma_2 ~ 1e-9 and reports rank 2 at relative
    threshold eta.  Eigenvalues are squared singular values, so the
    eigenvalue-route threshold is eta^2 * lambda_1.
    """
    if not eta >= 0:
        raise InputDomainError("eta must be nonnegative")
    chi = np.array([[1.0, 1.0], [1e-9, 0.0], [0.0, 1e-9]])
    gram = chi.T @ chi
    eigvals = np.linalg.eigvalsh(gram)[::-1]
    lam1 = float(eigvals[0])
    gram_rank = int(np.sum(eigvals > eta * eta * lam1)) if lam1 > 0 else 0
    sigma = svd(chi).sigma
    css_rank = int(np.sum(sigma > eta * sigma[0])) if sigma[0] > 0 else 0
    return GramLossReport(
        matrix=chi,
        gram=gram,
        eta=eta,
        gram_eigenvalues=eigvals,
        gram_rank=gram_rank,
        sigma=sigma,
        css_rank=css_rank,
    )

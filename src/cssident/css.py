"""Column subset selection: rank policies and the four selection algorithms.

Each algorithm returns a :class:`CssResult` whose permutation splits the
input columns into ``identifiable`` (first k) and ``unidentifiable``
(remaining p - k).  Every step is one column exchange (:func:`_exchange`):
columns a <= b of the working QR factorization are swapped, the block
``r[a:end, a:end]`` is re-factored by an unpivoted QR with a nonnegative
diagonal, and the result is applied to ``r[a:end, end:]`` and
``q[:, a:end]``.  b1 and srrqr restore only the disturbed block (end = b + 1),
b4 and b3 the whole trailing block (end = p).  Magnitude ties break to the
lowest index.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .config import SRRQR_TIE_SLACK
from .errors import InputDomainError, NumericalFailureError
from .linalg import (
    QrFactors,
    SvdFactors,
    _nonneg_diag,
    _pow2_scale,
    check_matrix,
    qr_col_pivoted,
    qr_unpivoted,
    svd,
)

ALGORITHMS = ("b1", "b4", "b3", "srrqr")


@dataclass(frozen=True)
class RankPolicy:
    """How to pick the number k of identifiable parameters.

    mode is one of 'fixed', 'absolute', 'relative', 'gap'.  ``k`` is used
    by 'fixed'; ``eta`` is the threshold for 'absolute'/'relative'.
    """

    mode: str
    k: int | None = None
    eta: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fixed", "absolute", "relative", "gap"):
            raise InputDomainError(f"unknown rank policy mode {self.mode!r}")
        if self.mode == "fixed" and (self.k is None or self.k < 1):
            raise InputDomainError("fixed rank policy needs k >= 1")
        if self.eta < 0:
            raise InputDomainError("eta must be nonnegative")

    @classmethod
    def fixed(cls, k: int) -> "RankPolicy":
        return cls(mode="fixed", k=k)

    @classmethod
    def absolute(cls, eta: float) -> "RankPolicy":
        return cls(mode="absolute", eta=eta)

    @classmethod
    def relative(cls, eta: float) -> "RankPolicy":
        return cls(mode="relative", eta=eta)

    @classmethod
    def gap(cls) -> "RankPolicy":
        return cls(mode="gap")


class RankSelection(NamedTuple):
    k: int
    degenerate: bool


def select_k(sigma, policy: RankPolicy) -> RankSelection:
    """Select k from a descending singular value sequence.

    The result is always clamped to [1, p-1].  ``degenerate`` is set when
    every singular value falls below the threshold, in which case k = 1.
    """
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim != 1 or sig.size == 0:
        raise InputDomainError("sigma must be a nonempty 1-D sequence")
    if np.any(np.diff(sig) > 0) or np.any(sig < 0):
        raise InputDomainError("sigma must be nonnegative and descending")
    p = sig.size
    if p < 2:
        raise InputDomainError("rank selection needs at least two singular values")

    def clamp(k: int) -> int:
        return min(max(k, 1), p - 1)

    if policy.mode == "fixed":
        return RankSelection(clamp(int(policy.k)), False)
    if policy.mode in ("absolute", "relative"):
        thr = policy.eta if policy.mode == "absolute" else policy.eta * sig[0]
        count = int(np.sum(sig > thr))
        if count == 0:
            return RankSelection(1, True)
        return RankSelection(clamp(count), False)
    # gap: maximize sigma_k / sigma_{k+1}, ties to the smallest k
    ratios = np.empty(p - 1)
    for i in range(p - 1):
        if sig[i + 1] == 0.0:
            ratios[i] = np.inf if sig[i] > 0 else 1.0
        else:
            ratios[i] = sig[i] / sig[i + 1]
    return RankSelection(int(np.argmax(ratios)) + 1, False)


@dataclass(frozen=True)
class SrrqrConfig:
    """Strong-RRQR parameters: bound f >= 1 and swap budget.

    ``max_swaps`` defaults to 4*k*(p-k) when left as None.
    """

    f: float = 1.0
    max_swaps: int | None = None

    def __post_init__(self):
        if self.f < 1.0:
            raise InputDomainError("srrqr needs f >= 1")
        if self.max_swaps is not None and self.max_swaps < 1:
            raise InputDomainError("max_swaps must be positive")

    def swap_budget(self, k: int, p: int) -> int:
        return self.max_swaps if self.max_swaps is not None else 4 * k * (p - k)


@dataclass(frozen=True)
class CssResult:
    """Outcome of one column subset selection run."""

    algorithm: str
    k: int
    factors: QrFactors
    identifiable: tuple[int, ...]
    unidentifiable: tuple[int, ...]
    swap_count: int = 0
    degenerate_k: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def perm(self) -> np.ndarray:
        return self.factors.perm


def _check_css_input(chi, k: int) -> np.ndarray:
    arr = check_matrix(chi)
    n, p = arr.shape
    if n < p:
        raise InputDomainError(f"CSS requires rows >= cols, got {n}x{p}")
    if not 1 <= k < p:
        raise InputDomainError(f"k must satisfy 1 <= k < p, got k={k}, p={p}")
    return arr


def _result(algorithm, k, perm, q, r, swap_count=0, extras=None):
    return CssResult(
        algorithm=algorithm,
        k=k,
        factors=QrFactors(perm=perm, q=q, r=r),
        identifiable=tuple(int(j) for j in perm[:k]),
        unidentifiable=tuple(int(j) for j in perm[k:]),
        swap_count=swap_count,
        extras=extras or {},
    )


def _working(fac: QrFactors):
    # writable copies of frozen factors for the exchange steps
    return fac.q.copy(), fac.r.copy(), fac.perm.copy()


def _exchange(q, r, perm, a: int, b: int, end: int) -> None:
    # swap columns a <= b < end, re-QR r[a:end, a:end] with a nonnegative
    # diagonal and apply it to r[a:end, end:] and q[:, a:end]; rows above a
    # and below end stay triangular, so a[:, perm] == q @ r is kept
    r[:, [a, b]] = r[:, [b, a]]
    perm[[a, b]] = perm[[b, a]]
    qt, r[a:end, a:end] = _nonneg_diag(*np.linalg.qr(r[a:end, a:end]))
    r[a:end, end:] = qt.T @ r[a:end, end:]
    q[:, a:end] = q[:, a:end] @ qt


def css_b1(chi, k: int) -> CssResult:
    """Deflation from the back: repeatedly expose a smallest singular value.

    For block sizes l = p down to k+1, the right singular vector of the
    leading l x l block for its smallest singular value is computed, its
    magnitude-largest entry is swapped to position l, and the block is
    re-triangularized.  The trailing diagonal entries then satisfy
    |r_ll| <= sqrt(l) * sigma_l.
    """
    arr = _check_css_input(chi, k)
    q, r, perm = _working(qr_unpivoted(arr))
    for ell in range(arr.shape[1], k, -1):
        _, _, vt = np.linalg.svd(r[:ell, :ell])
        m = int(np.argmax(np.abs(vt[-1])))
        _exchange(q, r, perm, m, ell - 1, ell)
    return _result("b1", k, perm, q, r)


def _greedy_front(arr, k: int, subspace: bool):
    # for l = 1..k: take the dominant right singular vector (b4) or the
    # k-l+1 dominant ones (b3) of the trailing block, swap the column with
    # the largest norm in them to the front and re-QR the trailing block
    p = arr.shape[1]
    q, r, perm = _working(qr_unpivoted(arr))
    for i in range(k):
        _, _, vt = np.linalg.svd(r[i:, i:])
        w = vt[: k - i if subspace else 1]
        m = int(np.argmax(np.linalg.norm(w, axis=0)))
        _exchange(q, r, perm, i, i + m, p)
    return q, r, perm


def css_b4(chi, k: int) -> CssResult:
    """Greedy selection from the front via dominant singular vectors.

    For l = 1..k the dominant right singular vector of the trailing block
    is computed and its magnitude-largest entry is swapped to the front of
    the block.  The leading diagonal entries then satisfy
    |r_ll| >= sigma_l / sqrt(p - l + 1).
    """
    arr = _check_css_input(chi, k)
    q, r, perm = _greedy_front(arr, k, subspace=False)
    return _result("b4", k, perm, q, r)


def css_b3(chi, k: int, chi_svd: SvdFactors | None = None) -> CssResult:
    """Greedy selection by column norms of the dominant right subspace.

    For l = 1..k the k-l+1 dominant right singular vectors of the trailing
    block form W (transposed); the column of W with the largest 2-norm is
    swapped to the front of the block.  The norm ||V11^{-1}||_2 of the
    selected leading block of the input's dominant right singular vectors
    is reported in ``extras['v11_inv_norm']``; pass ``chi_svd = svd(chi)``
    when it is already known, otherwise it is computed here.
    """
    arr = _check_css_input(chi, k)
    q, r, perm = _greedy_front(arr, k, subspace=True)
    if chi_svd is None:
        chi_svd = svd(arr)
    v11_inv = v11_inverse_norm(chi_svd, perm, k)
    return _result("b3", k, perm, q, r, extras={"v11_inv_norm": v11_inv})


def v11_inverse_norm(chi_svd: SvdFactors, perm, k: int) -> float:
    """||V11^{-1}||_2 for the leading k x k block of V1^T P.

    V1 holds the k dominant right singular vectors in ``chi_svd``; the
    value is 1/sigma_min of the rows of V1 picked by the first k
    permutation entries.  Infinite when that block is singular.
    """
    block = chi_svd.v[np.asarray(perm)[:k], :k]
    smin = np.linalg.svd(block, compute_uv=False)[-1]
    return float(1.0 / smin) if smin > 0 else float("inf")


def leverage_scores(v_sub, tol_orth: float = 1e-8) -> np.ndarray:
    """Squared row norms of a matrix with orthonormal columns.

    The scores sum to the number of columns.  Input orthonormality is
    checked to ``tol_orth``.
    """
    arr = check_matrix(v_sub, "v_sub")
    m = arr.shape[1]
    if np.linalg.norm(arr.T @ arr - np.eye(m)) > tol_orth:
        raise InputDomainError("v_sub does not have orthonormal columns")
    return np.sum(arr * arr, axis=1)


def _check_triangular(r, name="r") -> np.ndarray:
    arr = check_matrix(r, name)
    if arr.shape[0] != arr.shape[1]:
        raise InputDomainError(f"{name} must be square, got {arr.shape}")
    if np.any(np.tril(arr, -1) != 0.0):
        raise InputDomainError(f"{name} must be upper triangular")
    return arr


def srrqr_rho(r, k: int, i: int, j: int) -> float:
    """Determinant growth factor for swapping columns i and k+j.

    Equals sqrt((R11^{-1} R12)_{ij}^2 + (||R22 e_j|| * ||e_i^T R11^{-1}||)^2),
    the ratio det(R~11)/det(R11) after the physical swap and re-QR, for
    triangular factors with nonnegative diagonals.  Indices are 0-based:
    0 <= i < k indexes rows of the leading block, 0 <= j < p-k indexes
    columns of the trailing block.  This is entry (i, j) of the matrix
    that :func:`css_srrqr` maximizes.
    """
    arr = _check_triangular(r)
    p = arr.shape[0]
    if not 1 <= k < p:
        raise InputDomainError(f"k must satisfy 1 <= k < p, got k={k}, p={p}")
    if not (0 <= i < k and 0 <= j < p - k):
        raise InputDomainError(f"indices out of range: i={i}, j={j}, k={k}, p={p}")
    if np.any(np.diag(arr)[:k] == 0.0):
        raise NumericalFailureError("leading block R11 is singular")
    return float(_rho_matrix(arr, k)[i, j])


def _rho_matrix(r, k: int) -> np.ndarray:
    # rho is invariant under scaling r; the exact power-of-two scale keeps
    # the row and column norms below from over- or underflowing
    r = r * _pow2_scale(r)
    r11, r12, r22 = r[:k, :k], r[:k, k:], r[k:, k:]
    a = sla.solve_triangular(r11, r12)
    rinv = sla.solve_triangular(r11, np.eye(k))
    row_inv_norms = np.linalg.norm(rinv, axis=1)
    col_norms = np.linalg.norm(r22, axis=0)
    return np.sqrt(a * a + np.outer(row_inv_norms, col_norms) ** 2)


def css_srrqr(chi, k: int, cfg: SrrqrConfig | None = None) -> CssResult:
    """Strong rank-revealing QR by pairwise column swaps.

    Starting from a column-pivoted QR, columns (i, k+j) with the largest
    determinant growth factor rho_ij are swapped while max rho exceeds
    f*(1 + SRRQR_TIE_SLACK); each swap re-QRs only the disturbed block
    ``r[i:k+j+1, i:k+j+1]``.  Ties go to the lexicographically smallest
    (i, j).  ``extras`` records convergence, the final max rho and the
    log-determinant history of the leading block.
    """
    cfg = cfg or SrrqrConfig()
    arr = _check_css_input(chi, k)
    p = arr.shape[1]
    q, r, perm = _working(qr_col_pivoted(arr))
    if np.any(np.diag(r)[:k] == 0.0):
        raise NumericalFailureError(
            "initial pivoted QR has a singular leading block; reduce k"
        )
    budget = cfg.swap_budget(k, p)
    threshold = cfg.f * (1.0 + SRRQR_TIE_SLACK)
    logdet_history = [float(np.sum(np.log(np.diag(r)[:k])))]
    swaps = 0
    while True:
        rho = _rho_matrix(r, k)
        max_rho = float(rho.max())
        if max_rho <= threshold or swaps >= budget:
            break
        i, j = np.unravel_index(int(np.argmax(rho)), rho.shape)
        b = k + int(j)
        _exchange(q, r, perm, int(i), b, b + 1)
        swaps += 1
        logdet_history.append(float(np.sum(np.log(np.diag(r)[:k]))))
    extras = {
        "converged": max_rho <= threshold,
        "max_rho": max_rho,
        "f": cfg.f,
        "logdet_history": logdet_history,
    }
    return _result("srrqr", k, perm, q, r, swap_count=swaps, extras=extras)


def run_css(chi, chi_svd: SvdFactors, algorithm: str, policy: RankPolicy,
            cfg: SrrqrConfig | None = None) -> CssResult:
    """Select k by ``policy`` and run the requested algorithm.

    ``chi_svd`` is ``svd(chi)``; ``algorithm`` is one of 'b1', 'b4',
    'b3', 'srrqr'.
    """
    arr = check_matrix(chi)
    name = algorithm.lower()
    if name not in ALGORITHMS:
        raise InputDomainError(f"unknown algorithm {algorithm!r}")
    k, degenerate = select_k(chi_svd.sigma, policy)
    if name == "b1":
        result = css_b1(arr, k)
    elif name == "b4":
        result = css_b4(arr, k)
    elif name == "b3":
        result = css_b3(arr, k, chi_svd)
    else:
        result = css_srrqr(arr, k, cfg)
    return replace(result, degenerate_k=True) if degenerate else result

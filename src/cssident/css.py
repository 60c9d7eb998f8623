"""Column subset selection: rank policies and the four selection algorithms.

Each algorithm returns a :class:`CssResult` whose permutation splits the
input columns into ``identifiable`` (first k) and ``unidentifiable``
(remaining p - k).  The selection loops carry only the triangular factor
R and ``perm``.  Every step is one column exchange (:func:`_exchange`):
columns a <= b of R are swapped and the disturbed rows are re-factored
by an unpivoted QR with a nonnegative diagonal, of which only R is taken:
no exchange forms a Q.  b1 re-factors ``r[a:b+1, a:b+1]``, because its
later steps read only the leading block; b4 and b3 the trailing block
``r[a:, a:]``; srrqr, whose rho reads R12 and R22, the wide block
``r[a:b+1, a:]``.  Magnitude ties break to the lowest index.  Every step
runs on R scaled by the exact power of two that brings max|r| into
[0.5, 1), so each decision, ties included, is the same whatever the
input's units.
A result's factors are the QR of ``chi[:, perm]``, computed once from the
selected order, so they do not depend on the route that reached it.  No
selection forms the Q of chi: the starts read R alone, and a result's q
is formed only if a caller reads it.

b1 picks each column from the smallest right singular vector of the
leading block R11.  A block inverse iteration with triangular solves
estimates it, and the exact SVD of R11 decides every step whose pick the
iteration cannot certify.  ``perm`` is then the one an SVD at every step
gives, except where the certificate vouches for a pick the SVD does not
make: its gap uses a lower bound on the second eigenvalue where an upper
bound is needed (see :func:`css_b1`).

b4 and b3 pick each column from the dominant right singular vectors of the
trailing block.  They take the pick from that block's Gram matrix, from
one eigenvector where they read one and from an eigendecomposition where
they read several, and keep it where a Davis-Kahan certificate shows that
the SVD of the block picks the same column; otherwise the SVD decides.
Their ``perm`` is then the SVD's at every step, by the certificate's
error bound (see :func:`css_b4`).  All three back off to the SVD alone after repeated
uncertified steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .config import SRRQR_TIE_SLACK
from .errors import InputDomainError, NumericalFailureError
from .linalg import (
    _EPS,
    QrFactors,
    SvdFactors,
    _pow2_exponent,
    _qr_r,
    _require_tall,
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
    by 'fixed', which requires it; ``eta`` is the threshold that 'absolute'
    and 'relative' require, and the other modes record it as 0.0.
    """

    mode: str
    k: int | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "absolute", "relative", "gap"):
            raise InputDomainError(f"unknown rank policy mode {self.mode!r}")
        if self.mode == "fixed" and (self.k is None or self.k < 1):
            raise InputDomainError("fixed rank policy needs k >= 1")
        if self.eta is None and self.mode in ("absolute", "relative"):
            raise InputDomainError(f"{self.mode} rank policy needs eta")
        object.__setattr__(self, "eta", float(self.eta or 0.0))
        if not self.eta >= 0:
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
        if not self.f >= 1.0:
            raise InputDomainError("srrqr needs f >= 1")
        if self.max_swaps is not None and self.max_swaps < 1:
            raise InputDomainError("max_swaps must be positive")

    def swap_budget(self, k: int, p: int) -> int:
        return self.max_swaps if self.max_swaps is not None else 4 * k * (p - k)


@dataclass(frozen=True)
class CssResult:
    """Outcome of one column subset selection run.

    ``factors`` is the QR of ``chi[:, perm]`` (nonnegative diagonal),
    computed once from the selected order: two algorithms that select the
    same order return the same factors, bit for bit.  Its r is computed
    with the result and its q on the first read, as in
    :func:`~cssident.linalg.qr_unpivoted`.
    """

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
    _require_tall(arr, "CSS")
    p = arr.shape[1]
    if not 1 <= k < p:
        raise InputDomainError(f"k must satisfy 1 <= k < p, got k={k}, p={p}")
    return arr


def _result(algorithm, arr, k, perm, swap_count=0, extras=None):
    # the one place a result's factors are built: the QR of arr[:, perm], so
    # they depend on the selected order alone, not on the route that reached it
    return CssResult(
        algorithm=algorithm,
        k=k,
        factors=qr_unpivoted(arr[:, perm])._relabel(perm),
        identifiable=tuple(int(j) for j in perm[:k]),
        unidentifiable=tuple(int(j) for j in perm[k:]),
        swap_count=swap_count,
        extras=extras or {},
    )


def _working(fac: QrFactors):
    # writable copies of a start's r and perm for the exchange steps, with r
    # scaled by the exact power of two 2^-e that brings max|r| into [0.5, 1):
    # every step then decides on the same r whatever the input's units.  No
    # step reads the start's q, so it is never formed
    e = _pow2_exponent(fac.r)
    return np.ldexp(fac.r, -e), fac.perm.copy(), e


def _exchange(r, perm, a: int, b: int) -> None:
    # swap columns a <= b and re-QR r[a:, a:] with a nonnegative diagonal,
    # taking R alone.  r is the view of rows 0..b or more of the working R
    # that the caller's later steps read; below row b columns a and b are
    # zero, so the rows left out stay triangular.  On a wide r[a:, a:]
    # (srrqr) the QR's reflectors reach the columns past the square block,
    # so they take its Q^T without a Q being formed
    r[:, [a, b]] = r[:, [b, a]]
    perm[[a, b]] = perm[[b, a]]
    r[a:, a:] = _qr_r(r[a:, a:])


# b1's inverse iteration (see css_b1): vectors per block and sweeps before
# the exact SVD decides; for b1, b4 and b3, the largest block that goes
# straight to the SVD (below about 32 to 40 columns a certified step costs
# more than the SVD it replaces) and the factor by which an argmax margin
# must exceed its error bound
_B1_BLOCK = 4
_B1_MAX_SWEEPS = 16
_SMALL = 32
_SAFETY = 8.0


class _Backoff:
    """Skip rule for certified routes that keep failing.

    After f >= 2 uncertified attempts in a row the SVD also decides the next
    2^(f-2) - 1 steps, which bounds the work spent where the certificate
    keeps failing, as on a clustered spectrum.
    """

    def __init__(self):
        self.failed = 0  # uncertified attempts in a row
        self.skip = 0  # steps left that go straight to the SVD

    def attempt(self) -> bool:
        # whether this step may try the certified route
        if self.skip:
            self.skip -= 1
            return False
        return True

    def record(self, certified: bool) -> None:
        self.failed = 0 if certified else self.failed + 1
        self.skip = 2 ** (self.failed - 2) - 1 if self.failed >= 2 else 0


def _b1_certified_argmax(block, start):
    # block inverse iteration on M = R^{-1} R^{-T} (eigenvalues 1/sigma^2)
    # for the scaled upper triangular block R, started from the columns of
    # start; returns (m, Ritz vectors, sweeps), or (None, None, sweeps) when
    # the pick is not certified
    maxcol = float(np.sqrt(np.max(np.einsum("ij,ij->j", block, block))))
    x = np.linalg.qr(start)[0]
    for sweep in range(1, _B1_MAX_SWEEPS + 1):
        y = sla.solve_triangular(block, x, trans="T", check_finite=False)
        if not np.all(np.isfinite(y)):
            return None, None, sweep
        # Ritz pairs of M on span(x): theta_i = s_i^2, vectors x w_i
        u, s, wt = np.linalg.svd(y, full_matrices=False)
        ritz = x @ wt.T
        z = sla.solve_triangular(block, u, check_finite=False)
        if not np.all(np.isfinite(z)):
            return None, None, sweep
        # M ritz_i = s_i z_i, so residual_i / theta_1 is s_i |z_i - s_i ritz_i| / s_1^2
        s1, s2 = float(s[0]), float(s[1])
        ratio = s2 / s1
        res1 = float(np.linalg.norm(z[:, 0] - s1 * ritz[:, 0])) / s1
        res2 = ratio * float(np.linalg.norm(z[:, 1] - s2 * ritz[:, 1])) / s1
        mag = np.abs(ritz[:, 0])
        m = int(np.argmax(mag))
        margin = float(mag[m] - np.partition(mag, -2)[-2])
        # the exact SVD's own error, eps ||R|| / (sigma_{l-1} - sigma_l)
        floor = _EPS * maxcol * s2 / (1.0 - ratio) if ratio < 1.0 else float("inf")
        gap = 1.0 - ratio * ratio - res2
        # the start block alone decides nothing
        if sweep > 1:
            target = margin / _SAFETY - floor
            if target <= 0:
                return None, None, sweep
            if gap > 0:
                error = res1 / gap
                if error < target:
                    return m, ritz, sweep
                # the error shrinks by about theta_s / theta_1 per sweep
                rate = (float(s[-1]) / s1) ** 2
                if error * rate ** (_B1_MAX_SWEEPS - sweep) >= target:
                    return None, None, sweep
        x = np.linalg.qr(z)[0]
    return None, None, _B1_MAX_SWEEPS


def css_b1(chi, k: int) -> CssResult:
    """Deflation from the back: repeatedly expose a smallest singular value.

    For block sizes l = p down to k+1, the magnitude-largest entry of the
    right singular vector of the leading l x l block R11 for its smallest
    singular value is swapped to position l, and the block is
    re-triangularized.  The trailing diagonal entries then satisfy
    |r_ll| <= sqrt(l) * sigma_l.

    Only that entry's position m is needed.  For l > 32 it is estimated by
    a block inverse iteration with 4 vectors on M = R11^{-1} R11^{-T}
    (eigenvalues theta = 1/sigma^2), which applies triangular solves only,
    starts from the previous step's Ritz vectors and runs on R scaled by a
    power of two.  Each sweep takes the Ritz pairs from the SVD of the thin
    matrix R11^{-T} X.  From the second sweep on, m is accepted when the
    gap between the two largest entries of the first Ritz vector exceeds 8
    times the sum of the iteration's error bound res_1 / (theta_1 - theta_2
    - res_2) and the exact SVD's own error eps ||R11|| / (sigma_{l-1} -
    sigma_l).  Otherwise the SVD of R11 decides: at once when that SVD
    error alone rules out a certificate or when the error bound, shrinking
    by theta_4 / theta_1 per sweep, would not get there within 16 sweeps;
    also for blocks of 32 or fewer columns, a zero diagonal entry or
    non-finite solves.  After f >= 2 uncertified steps in a row the SVD
    also decides the next 2^(f-2) - 1 steps, which bounds the work spent
    where a spectrum stays clustered.  Where the certificate is right, both
    routes pick the same m, so ``perm`` is the SVD's at every step; the
    factors are the QR of ``chi[:, perm]``.  The certificate is not sound:
    its gap uses the Ritz value theta_2, a lower bound on the second
    eigenvalue of M where an upper bound is needed, so it can vouch for a
    pick the SVD does not make.  A 120 x 60 input with sigma =
    1 +- logspace(-12, -2) (alternating signs, Haar U and V from
    ``default_rng(3)``), k = 12, shows it: at l = 59 the iteration
    certifies column 36 after 2 sweeps where the SVD picks column 1.
    Without the backoff it certified wrong picks on 2 of 3 clustered
    400 x 200 inputs, so the backoff guards correctness as well as time.
    The error bound also assumes that the start block has a component
    along the wanted vector.  ``extras`` counts the steps the SVD decided
    (``svd_fallbacks``) and the sweeps run (``solve_sweeps``).
    """
    arr = _check_css_input(chi, k)
    r, perm, _ = _working(qr_unpivoted(arr))
    p = arr.shape[1]
    if p > _SMALL:
        # fixed start vectors, so that reruns take the same route
        start = np.random.default_rng(0).standard_normal((p, _B1_BLOCK))
        fresh = start[:, 0]
    fallbacks = sweeps = 0
    backoff = _Backoff()
    for ell in range(p, k, -1):
        m = None
        if ell > _SMALL and backoff.attempt() and np.all(np.diag(r)[:ell] != 0.0):
            m, ritz, used = _b1_certified_argmax(np.ascontiguousarray(r[:ell, :ell]),
                                                 start)
            sweeps += used
            backoff.record(m is not None)
        if m is None:
            fallbacks += 1
            _, _, vt = np.linalg.svd(r[:ell, :ell])
            m = int(np.argmax(np.abs(vt[-1])))
            ritz = vt[: -_B1_BLOCK - 1: -1].T
        # later steps read only r[:ell - 1, :ell - 1], so the columns past
        # ell are left as they are
        _exchange(r[:ell, :ell], perm, m, ell - 1)
        if ell - 1 > _SMALL:
            # the exchange moves column ell-1 to m and drops the old column m
            start = ritz[:, 1:].copy()
            start[m] = start[ell - 1]
            start = np.column_stack([start[: ell - 1], fresh[: ell - 1]])
    extras = {"svd_fallbacks": fallbacks, "solve_sweeps": sweeps}
    return _result("b1", arr, k, perm, extras=extras)


def _top_eigenvector(g, w1: float, w2: float, delta: float):
    # the dominant eigenvector x of the symmetric G with computed eigenvalues
    # w1 > w2, from one solve with the shift w1 + delta started from the column
    # of G with the largest diagonal entry, and a bound on each |x_j|'s error.
    # With the Rayleigh quotient rho and the residual r = G x - rho x,
    # sin(x, v1) <= (||r|| + delta) / (rho - w2 - 2 delta) (Davis-Kahan;
    # Parlett, The Symmetric Eigenvalue Problem, 11.7), where delta also covers
    # the rounding of r; each entry is then off by at most sqrt(2) times that.
    # (None, None) where the solve fails or the bound has no gap
    x0 = g[:, int(np.argmax(np.diag(g)))]
    try:
        x = np.linalg.solve(g - (w1 + delta) * np.eye(g.shape[0]), x0)
    except np.linalg.LinAlgError:
        return None, None
    norm = float(np.linalg.norm(x))
    if not 0.0 < norm < np.inf:
        return None, None
    x /= norm
    gx = g @ x
    rho = float(x @ gx)
    gap = rho - w2 - 2.0 * delta
    if not gap > 0:
        return None, None
    res = float(np.linalg.norm(gx - rho * x))
    return x, np.sqrt(2.0) * (res + delta) / gap


def _gram_certified_pick(block, d: int):
    # the column with the largest norm in the d dominant right singular
    # vectors of block, taken from G = B^T B; None when the certificate
    # cannot vouch that the SVD of block picks the same column.
    # B is block scaled by its own power of two, so that G is not subnormal
    # where block is far below max|r|.  For d = 1 the eigenvalues and one
    # shifted solve give the vector; for d > 1, all eigenpairs.
    # numpy's eigensolvers, not scipy's: scipy ships its own OpenBLAS, and
    # alternating its threads with numpy's in the exchange oversubscribes
    # the cores unless BLAS is pinned to one thread
    ell = block.shape[1]
    b = np.ldexp(block, -_pow2_exponent(block))
    g = b.T @ b
    fro2 = float(np.trace(g))  # ||B||_F^2
    if d == 1:
        w = np.linalg.eigvalsh(g)
    else:
        w, v = np.linalg.eigh(g)
    # delta bounds the rounding of G plus the eigensolver's backward error,
    # so by Weyl each computed eigenvalue is off by at most delta
    delta = 2.0 * ell * _EPS * fro2
    w_d, w_next = float(w[-d]), max(float(w[-d - 1]), 0.0)
    sep = w_d - w_next - 2.0 * delta
    if not sep > 0:
        return None
    if d == 1:
        top, error = _top_eigenvector(g, w_d, w_next, delta)
        if top is None:
            return None
        scores = np.abs(top)
    else:
        top = v[:, -d:]
        scores = np.sqrt(np.einsum("ij,ij->i", top, top))
        # by Davis-Kahan the computed top-d subspace, and so each score, is
        # off by at most delta / sep
        error = delta / sep
    # the SVD's own error eps ||B|| / (sigma_d - sigma_{d+1}), with ||B|| <=
    # ||B||_F and sigma_d - sigma_{d+1} >= sep / (sigma_d + sigma_{d+1}),
    # plus the rounding of the d-term norms
    sum_sigma = np.sqrt(w_d + delta) + np.sqrt(w_next + delta)
    floor = _EPS * (np.sqrt(fro2) * sum_sigma / sep + d)
    m = int(np.argmax(scores))
    margin = float(scores[m] - np.partition(scores, -2)[-2])
    return m if margin > _SAFETY * 2.0 * (error + floor) else None


def _greedy_front(arr, k: int, subspace: bool):
    # for l = 1..k: take the dominant right singular vector (b4) or the
    # k-l+1 dominant ones (b3) of the trailing block, swap the column with
    # the largest norm in them to the front and re-QR the trailing block;
    # returns perm and the number of steps the SVD decided
    p = arr.shape[1]
    r, perm, _ = _working(qr_unpivoted(arr))
    backoff = _Backoff()
    fallbacks = 0
    for i in range(k):
        d = k - i if subspace else 1
        m = None
        if p - i > _SMALL and backoff.attempt():
            m = _gram_certified_pick(r[i:, i:], d)
            backoff.record(m is not None)
        if m is None:
            fallbacks += 1
            _, _, vt = np.linalg.svd(r[i:, i:])
            m = int(np.argmax(np.linalg.norm(vt[:d], axis=0)))
        _exchange(r, perm, i, i + m)
    return perm, fallbacks


def css_b4(chi, k: int) -> CssResult:
    """Greedy selection from the front via dominant singular vectors.

    For l = 1..k the dominant right singular vector of the trailing block
    is computed and its magnitude-largest entry is swapped to the front of
    the block.  The leading diagonal entries then satisfy
    |r_ll| >= sigma_l / sqrt(p - l + 1).

    Only that entry's position is needed.  For blocks of more than 32
    columns it is taken from the top eigenvector of G = B^T B, where B is
    the block scaled by its own power of two.  A direct symmetric solver
    gives the eigenvalues w of G alone, and one solve with G - (w_1 +
    delta) I, started from the column of G with the largest diagonal
    entry, gives the vector x.  delta = 2 l eps ||B||_F^2 bounds the
    rounding of G plus the eigensolver's backward error.  With the Rayleigh
    quotient rho and the residual r = G x - rho x, Davis-Kahan bounds
    sin(x, v_1) by (||r|| + delta) / (rho - w_2 - 2 delta), so each entry
    is off by at most sqrt(2) times that.  The pick is kept when the gap
    between the two largest entries exceeds 16 times the sum of that bound
    and the SVD's own error eps ||B|| / (sigma_1 - sigma_2) plus rounding;
    exact ties never pass.  Otherwise the SVD of the block decides, as it
    does for blocks of 32 or fewer columns and, as in :func:`css_b1`, for the
    next 2^(f-2) - 1 steps after f >= 2 uncertified steps in a row.  On a
    certified step both routes pick the same column, so ``perm`` is the
    SVD's at every step; the factors are the QR of ``chi[:, perm]``.  On the
    benchmark's pools the SVD decided 0 of 800 steps on ships 400x200
    (k = 40), 0 of 640 on ships 200x100 (k = 20) and 3840 of 11880 on
    Kahan n = 100 (k = 99: the first step of each matrix and the 31 steps
    on blocks of 32 or fewer columns).  ``extras['svd_fallbacks']`` counts
    the steps the SVD decided.
    """
    arr = _check_css_input(chi, k)
    perm, fallbacks = _greedy_front(arr, k, subspace=False)
    return _result("b4", arr, k, perm, extras={"svd_fallbacks": fallbacks})


def css_b3(chi, k: int, chi_svd: SvdFactors | None = None) -> CssResult:
    """Greedy selection by column norms of the dominant right subspace.

    For l = 1..k the d = k-l+1 dominant right singular vectors of the
    trailing block form W (transposed); the column of W with the largest
    2-norm is swapped to the front of the block.  The pick is taken and
    certified as in :func:`css_b4`, but for d > 1 from all eigenpairs of
    the Gram matrix, whose top-d subspace Davis-Kahan puts within delta /
    (w_d - w_{d+1} - 2 delta), with the SVD's error eps ||B|| / (sigma_d -
    sigma_{d+1}) in place of that of the first pair; the last step (d = 1)
    is b4's.  The SVD decided 0 of 800 steps on ships 400x200 (k = 40), 0
    of 640 on ships 200x100 (k = 20) and 10613 of 11880 on Kahan n = 100
    (k = 99), where the column norms
    tie to rounding level over long runs of early steps, so the backoff
    leaves most later steps to the SVD too.  ``extras`` counts the
    steps the SVD decided (``svd_fallbacks``) and reports the norm
    ||V11^{-1}||_2 of the selected leading block of the input's dominant
    right singular vectors (``v11_inv_norm``); pass ``chi_svd = svd(chi)``
    when it is already known, otherwise it is computed here.
    """
    arr = _check_css_input(chi, k)
    perm, fallbacks = _greedy_front(arr, k, subspace=True)
    if chi_svd is None:
        chi_svd = svd(arr)
    extras = {"v11_inv_norm": v11_inverse_norm(chi_svd, perm, k),
              "svd_fallbacks": fallbacks}
    return _result("b3", arr, k, perm, extras=extras)


def v11_inverse_norm(chi_svd: SvdFactors, perm, k: int) -> float:
    """||V11^{-1}||_2 for the leading k x k block of V1^T P.

    V1 holds the k dominant right singular vectors in ``chi_svd``; the
    value is 1/sigma_min of the rows of V1 picked by the first k
    permutation entries.  Infinite when that block is singular.
    """
    block = chi_svd.v[np.asarray(perm)[:k], :k]
    smin = np.linalg.svd(block, compute_uv=False)[-1]
    return float(1.0 / smin) if smin > 0 else float("inf")


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
    r = np.ldexp(r, -_pow2_exponent(r))
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
    f*(1 + SRRQR_TIE_SLACK); each swap re-QRs only the disturbed rows
    i..k+j from column i on, taking R alone.  Ties go to the
    lexicographically smallest (i, j).  ``extras`` records convergence, the
    final max rho and the log-determinant history of the leading block.
    """
    cfg = cfg or SrrqrConfig()
    arr = _check_css_input(chi, k)
    p = arr.shape[1]
    r, perm, e = _working(qr_col_pivoted(arr))
    if np.any(np.diag(r)[:k] == 0.0):
        raise NumericalFailureError(
            "initial pivoted QR has a singular leading block; reduce k"
        )
    budget = cfg.swap_budget(k, p)
    threshold = cfg.f * (1.0 + SRRQR_TIE_SLACK)

    def logdet():
        # of the leading block in input units
        return float(np.sum(np.log(np.ldexp(np.diag(r)[:k], e))))

    logdet_history = [logdet()]
    swaps = 0
    while True:
        rho = _rho_matrix(r, k)
        max_rho = float(rho.max())
        if max_rho <= threshold or swaps >= budget:
            break
        i, j = np.unravel_index(int(np.argmax(rho)), rho.shape)
        b = k + int(j)
        # rho reads R12 and R22: rows i..b are re-factored from column i on
        _exchange(r[:b + 1], perm, int(i), b)
        swaps += 1
        logdet_history.append(logdet())
    extras = {
        "converged": max_rho <= threshold,
        "max_rho": max_rho,
        "f": cfg.f,
        "logdet_history": logdet_history,
    }
    return _result("srrqr", arr, k, perm, swap_count=swaps, extras=extras)


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

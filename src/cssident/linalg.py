"""Dense matrix primitives: QR, SVD, residual norms, condition numbers.

Every :class:`QrFactors` is the unpivoted QR of its column order: a
pivoted search decides only ``perm``, and the factors are the QR of
``a[:, perm]``.  That search takes LAPACK's ``dgeqp3`` order, or the
classical greedy loop's, with lowest-index ties, when the two largest
columns tie.  They follow one nonnegative-diagonal convention, applied
by ``_nonneg_rows``: after the backend Householder QR, each column of Q
and row of R is sign-flipped so that diag(R) >= 0.  Permutations are
stored as index arrays ``perm`` with the meaning ``a[:, perm] == q @ r``.
The factorizations here compute R at once and Q, or an SVD's U, only when
it is first read: the analysis reads neither.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import scipy.linalg as sla

from .config import _EPS, ORTH_TOL, RECON_TOL, rank_cutoff
from .errors import InputDomainError, NumericalFailureError


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InputDomainError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputDomainError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputDomainError(f"{name} contains non-finite entries")
    return arr


def _require_tall(a: np.ndarray, op: str) -> None:
    n, p = a.shape
    if n < p:
        raise InputDomainError(f"{op} requires rows >= cols, got {n}x{p}")


def identity_perm(p: int) -> np.ndarray:
    return np.arange(p)


def check_perm(perm, p: int) -> np.ndarray:
    """Validate a permutation image over {0, ..., p-1}."""
    idx = np.asarray(perm, dtype=int)
    if idx.shape != (p,) or not np.array_equal(np.sort(idx), np.arange(p)):
        raise InputDomainError(f"not a permutation of 0..{p - 1}: {perm!r}")
    return idx


class _Record:
    """Read-only record of read-only arrays.

    A field formed on demand is stored as ``None`` under its private name
    until its first read forms it, and is kept from then on.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


class QrFactors(_Record):
    """QR factors of the column order ``perm``: ``a[:, perm] == q @ r``.

    q is n x p with orthonormal columns, r is p x p upper triangular with
    nonnegative diagonal, perm is the column permutation image.  q and r
    are the unpivoted QR of ``a[:, perm]``, whichever route chose perm.

    Pass q, or ``cols``: a private copy of the factored columns that no one
    writes to.  Then q is formed on its first read, as the reduced QR of
    ``cols`` with the signs of r; that QR repeats the R-only QR's dgeqrf on
    the same bits, so q is the one an eager QR returns.  The routes of this
    module pass ``cols``: the analysis reads r alone.
    """

    def __init__(self, perm, q=None, r=None, *, cols=None):
        if r is None or (q is None) == (cols is None):
            raise TypeError("QrFactors takes r and exactly one of q and cols")
        self._set(perm=perm, r=r, _q=q, _cols=cols)

    @property
    def q(self) -> np.ndarray:
        if self._q is None:
            self._set(_q=_nonneg_diag(*np.linalg.qr(self._cols))[0], _cols=None)
        return self._q

    @property
    def p(self) -> int:
        return self.r.shape[0]

    def _relabel(self, perm) -> "QrFactors":
        # the same factors as the QR of the column order perm, q still formed
        # on demand
        return QrFactors(perm, self._q, self.r, cols=self._cols)

    def reconstruction_error(self, a: np.ndarray) -> float:
        """Relative Frobenius residual ||a*P - q*r||_F / ||a||_F.

        Both norms are taken of copies scaled by the same exact power of
        two, so their squares cannot over- or underflow.
        """
        e = _pow2_exponent(a)
        num = float(np.linalg.norm(np.ldexp(a[:, self.perm] - self.q @ self.r, -e)))
        den = float(np.linalg.norm(np.ldexp(a, -e)))
        return num / den if den > 0 else num

    def column_norm_error(self, a: np.ndarray) -> float:
        """Relative misfit ||c(a*P) - c(r)||_2 / ||a||_F of the column norms
        c, in O(np) and without q.

        Column norms survive the orthonormal q, so the misfit is at most
        :meth:`reconstruction_error` to rounding.  Both sets of norms are
        taken of copies scaled by the same exact power of two.
        """
        e = _pow2_exponent(a)
        want = np.linalg.norm(np.ldexp(a, -e), axis=0)[self.perm]
        got = np.linalg.norm(np.ldexp(self.r, -e), axis=0)
        num = float(np.linalg.norm(got - want))
        den = float(np.linalg.norm(want))
        return num / den if den > 0 else num

    def validate(self, a: np.ndarray) -> None:
        """Check orthonormality, triangularity and reconstruction."""
        p = self.p
        check_perm(self.perm, p)
        if np.linalg.norm(self.q.T @ self.q - np.eye(p)) > ORTH_TOL:
            raise NumericalFailureError("q has lost orthonormality")
        if np.any(np.tril(self.r, -1) != 0.0):
            raise NumericalFailureError("r is not exactly upper triangular")
        if self.reconstruction_error(a) > RECON_TOL:
            raise NumericalFailureError("factors do not reconstruct the input")


class SvdFactors(_Record):
    """Thin SVD ``a == u @ diag(sigma) @ v.T`` with sigma descending.

    Pass u, or ``qr`` and ``u_r``: the QR of a and the left singular
    vectors of its r.  Then u = ``qr.q @ u_r`` is formed on its first read,
    the bits an eager product gives; :func:`svd` passes these, as no step
    of the analysis reads u.
    """

    def __init__(self, u=None, sigma=None, v=None, *, qr=None, u_r=None):
        if sigma is None or v is None or (u is None) == (qr is None or u_r is None):
            raise TypeError("SvdFactors takes sigma, v and either u or qr and u_r")
        self._set(sigma=sigma, v=v, _u=u, _qr=qr, _u_r=u_r)

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            self._set(_u=self._qr.q @ self._u_r, _qr=None, _u_r=None)
        return self._u

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.sigma[:, None] * self.v.T)


def _nonneg_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the row signs s that make diag(r) >= 0, a zero diagonal keeping +1, and
    # r with its rows flipped by them and exact zeros below the diagonal
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return s, np.triu(r * s[:, None])


def _nonneg_diag(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # flip signs per column of q and row of r so diag(r) >= 0
    s, r = _nonneg_rows(r)
    return q * s, r


def _qr_r(a: np.ndarray) -> np.ndarray:
    # the reduced QR's R of a, tall or wide, bit for bit (both modes of
    # np.linalg.qr run the same dgeqrf on the same copy of a), with its rows
    # flipped to a nonnegative diagonal and without forming Q
    return _nonneg_rows(np.linalg.qr(a, mode="r"))[1]


def _pow2_exponent(a: np.ndarray) -> int:
    # e with max|a| 2^-e in [0.5, 1); np.ldexp(a, -e) changes no bits of a
    # result unless squares would over- or underflow.  The exponent, not the
    # factor 2^-e, is returned: for max|a| < 2^-1022 that factor is inf
    return int(np.frexp(np.max(np.abs(a)))[1])


def qr_unpivoted(a) -> QrFactors:
    """Thin Householder QR with identity permutation.

    Requires rows >= cols.  The triangular factor has a nonnegative
    diagonal, which the strong-RRQR determinant identity relies on.  r is
    computed here and q on its first read, from a copy of ``a`` taken here.
    """
    arr = check_matrix(a)
    _require_tall(arr, "qr_unpivoted")
    cols = arr.copy()
    return QrFactors(identity_perm(arr.shape[1]), r=_qr_r(cols), cols=cols)


# below this column norm the squares of a column's entries may underflow
# (they lose bits below about 2^-1022, so for norms below about 2^-511)
_TINY_NORM = 2.0 ** -480


def _column_norms(a: np.ndarray) -> np.ndarray:
    # 2-norms of the columns of a; those below _TINY_NORM are recomputed from
    # a copy scaled by 2^600, so they keep their relative accuracy.  Every
    # other norm keeps the bits of np.linalg.norm
    norms = np.linalg.norm(a, axis=0)
    tiny = norms < _TINY_NORM
    if np.any(tiny):
        norms[tiny] = np.ldexp(np.linalg.norm(np.ldexp(a[:, tiny], 600), axis=0), -600)
    return norms


def _householder_pivoted(r: np.ndarray) -> np.ndarray:
    # the column order of greedy max-column-norm Householder QR of the tall
    # matrix r, which it overwrites: norms recomputed from the trailing block,
    # ties to the lowest index.  Only the order is kept; the factors of that
    # order are taken afterwards by one unpivoted QR
    p = r.shape[1]
    perm = identity_perm(p)
    for j in range(p):
        m = j + int(np.argmax(_column_norms(r[j:, j:])))
        if m != j:
            r[:, [j, m]] = r[:, [m, j]]
            perm[[j, m]] = perm[[m, j]]
        x = r[j:, j]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            continue
        v = x.copy()
        v[0] += normx if v[0] >= 0 else -normx
        v /= np.linalg.norm(v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
    return perm


def _rounding_bound(n: int, norm_a, norm_b):
    # how far apart two column norms of an n-row matrix may be computed by
    # two backward-stable factorizations, given the columns' input norms:
    # qr_col_pivoted's test for a tie between its two largest columns
    return 16.0 * n * _EPS * (norm_a + norm_b)


def qr_col_pivoted(a) -> QrFactors:
    """Householder QR with greedy max-column-norm pivoting.

    A search decides the column order; the factors are the QR of that
    order.  At each step the pivot is the remaining column with the largest
    2-norm of the updated trailing block, up to rounding.  The search runs
    on a copy scaled by an exact power of two, so the column norms cannot
    over- or underflow and the pivots do not depend on the input's units.
    The factors are ``qr_unpivoted`` of a fresh copy of the scaled columns
    in ``perm`` order, with r scaled back, so |diag(r)| is nonincreasing up
    to rounding; as there, q is formed on its first read.

    The order is LAPACK's blocked pivoted QR (``dgeqp3``), so among
    trailing norms within rounding of each other the pivot is LAPACK's.
    When the two largest input columns tie, lying within the rounding
    bound 16 n eps (||a_i|| + ||a_j||) of each other (Kahan matrices,
    equal-norm columns), the classical loop orders the whole input
    instead: norms recomputed from the trailing block, ties to the lowest
    index.  Pivots among trailing norms below the rounding level are set
    by rounding.
    """
    arr = check_matrix(a)
    _require_tall(arr, "qr_col_pivoted")
    n, p = arr.shape
    e = _pow2_exponent(arr)
    s = np.ldexp(arr, -e)
    top = np.sort(np.linalg.norm(s, axis=0))[-2:]
    if p > 1 and top[1] - top[0] <= _rounding_bound(n, top[1], top[0]):
        perm = _householder_pivoted(s)
    else:
        perm = sla.qr(s, mode="r", pivoting=True, check_finite=False)[1].astype(int)
    cols = np.ldexp(arr[:, perm], -e)
    return QrFactors(perm, r=np.ldexp(_qr_r(cols), e), cols=cols)


def svd(a) -> SvdFactors:
    """Thin SVD computed through a preliminary QR.

    The input is first reduced by an unpivoted QR, then the p x p
    triangular factor is decomposed; this keeps the inner SVD at the
    dimension of the Gram matrix without ever forming it.  sigma and v are
    computed here; u = q u_R, and with it the QR's q, on the first read of
    u.
    """
    arr = check_matrix(a)
    _require_tall(arr, "svd")
    fac = qr_unpivoted(arr)
    ur, sigma, vt = _svd_r(fac.r)
    return SvdFactors(sigma=sigma, v=vt.T, qr=fac, u_r=ur)


def _svd_r(r: np.ndarray):
    # the SVD of a QR's triangular factor, the inner step of svd; LAPACK may
    # also return non-finite singular values without an error
    try:
        ur, sigma, vt = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise NumericalFailureError(f"inner SVD did not converge: {exc}") from exc
    if not np.all(np.isfinite(sigma)):
        raise NumericalFailureError("inner SVD returned non-finite singular values")
    return ur, sigma, vt


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order (QR-first route)."""
    return svd(a).sigma


def orthonormal_range(a) -> np.ndarray:
    """Orthonormal basis of range(a) for a tall ``a``, truncated at the rank
    cutoff.

    The basis is the u of :func:`svd`, bit for bit, taken with its QR's q
    formed at once: the basis reads it, so one reduced QR costs less than
    an R-only QR and a second one for q.
    """
    arr = check_matrix(a)
    _require_tall(arr, "orthonormal_range")
    q, r = _nonneg_diag(*np.linalg.qr(arr))
    ur, sigma, _ = _svd_r(r)
    u = q @ ur
    if sigma[0] == 0.0:
        return u[:, :0]
    cutoff = rank_cutoff(arr.shape[0], float(sigma[0]))
    rank = int(np.sum(sigma > cutoff))
    return u[:, :rank]


def residual_norm(a1, a2) -> float:
    """2-norm of the projection residual ||(I - a1 a1^+) a2||_2.

    The Moore-Penrose action is applied through a truncated SVD of a1
    (never through the Gram matrix of a1).
    """
    m1 = check_matrix(a1, "a1")
    m2 = check_matrix(a2, "a2")
    if m1.shape[0] != m2.shape[0]:
        raise InputDomainError(
            f"row mismatch: a1 has {m1.shape[0]} rows, a2 has {m2.shape[0]}"
        )
    basis = orthonormal_range(m1)
    if basis.shape[1] == 0:
        return float(np.linalg.norm(m2, 2))
    return float(np.linalg.norm(m2 - basis @ (basis.T @ m2), 2))


def condition_number(a) -> float:
    """2-norm condition number sigma_1/sigma_p, inf past the rank cutoff."""
    arr = check_matrix(a)
    _require_tall(arr, "condition_number")
    sigma = singular_values(arr)
    if sigma[0] == 0.0:
        return float("inf")
    cutoff = rank_cutoff(max(arr.shape), float(sigma[0]))
    if sigma[-1] <= cutoff:
        return float("inf")
    return float(sigma[0] / sigma[-1])

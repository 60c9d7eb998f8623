"""Dense matrix primitives: QR, SVD, residual norms, condition numbers.

All factorizations follow a nonnegative-diagonal convention for the
triangular factor: after the backend Householder QR, each column of Q and
row of R is sign-flipped so that diag(R) >= 0.  Permutations are stored as
index arrays ``perm`` with the meaning ``a[:, perm] == q @ r``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import ORTH_TOL, RECON_TOL, rank_cutoff
from .errors import InputDomainError, NumericalFailureError


_EPS = float(np.finfo(float).eps)


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


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def identity_perm(p: int) -> np.ndarray:
    return np.arange(p)


def check_perm(perm, p: int) -> np.ndarray:
    """Validate a permutation image over {0, ..., p-1}."""
    idx = np.asarray(perm, dtype=int)
    if idx.shape != (p,) or not np.array_equal(np.sort(idx), np.arange(p)):
        raise InputDomainError(f"not a permutation of 0..{p - 1}: {perm!r}")
    return idx


@dataclass(frozen=True)
class QrFactors:
    """Pivoted QR factors with ``a[:, perm] == q @ r``.

    q is n x p with orthonormal columns, r is p x p upper triangular with
    nonnegative diagonal, perm is the column permutation image.
    """

    perm: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        _freeze(self.perm, self.q, self.r)

    @property
    def p(self) -> int:
        return self.r.shape[0]

    def reconstruction_error(self, a: np.ndarray) -> float:
        """Relative Frobenius residual ||a*P - q*r||_F / ||a||_F.

        Both norms are taken of copies scaled by the same exact power of
        two, so their squares cannot over- or underflow.
        """
        e = _pow2_exponent(a)
        num = float(np.linalg.norm(np.ldexp(a[:, self.perm] - self.q @ self.r, -e)))
        den = float(np.linalg.norm(np.ldexp(a, -e)))
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


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``a == u @ diag(sigma) @ v.T`` with sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _freeze(self.u, self.sigma, self.v)

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.sigma[:, None] * self.v.T)


def _nonneg_diag(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # flip signs per column so diag(r) >= 0; zero diagonal keeps +1
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s, np.triu(r * s[:, None])


def _pow2_exponent(a: np.ndarray) -> int:
    # e with max|a| 2^-e in [0.5, 1); np.ldexp(a, -e) changes no bits of a
    # result unless squares would over- or underflow.  The exponent, not the
    # factor 2^-e, is returned: for max|a| < 2^-1022 that factor is inf
    return int(np.frexp(np.max(np.abs(a)))[1])


def qr_unpivoted(a) -> QrFactors:
    """Thin Householder QR with identity permutation.

    Requires rows >= cols.  The triangular factor has a nonnegative
    diagonal, which the strong-RRQR determinant identity relies on.
    """
    arr = check_matrix(a)
    _require_tall(arr, "qr_unpivoted")
    q, r = np.linalg.qr(arr)
    q, r = _nonneg_diag(q, r)
    return QrFactors(perm=identity_perm(arr.shape[1]), q=q, r=r)


def _householder_pivoted(r: np.ndarray):
    # greedy max-column-norm Householder QR of the tall matrix r, in place:
    # norms recomputed from the trailing block, ties to the lowest index;
    # returns (q, upper triangular r, perm) with no sign fix
    n, p = r.shape
    perm = identity_perm(p)
    reflectors: list[tuple[int, np.ndarray] | None] = []
    for j in range(p):
        norms = np.linalg.norm(r[j:, j:], axis=0)
        m = j + int(np.argmax(norms))
        if m != j:
            r[:, [j, m]] = r[:, [m, j]]
            perm[[j, m]] = perm[[m, j]]
        x = r[j:, j]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += normx if v[0] >= 0 else -normx
        v /= np.linalg.norm(v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        r[j + 1:, j] = 0.0
        reflectors.append((j, v))
    q = np.eye(n, p)
    for item in reversed(reflectors):
        if item is None:
            continue
        j, v = item
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    return q, np.triu(r[:p, :]), perm


def _rounding_bound(n: int, norm_a, norm_b):
    # how far apart two trailing column norms of an n-row matrix may be
    # computed by two backward-stable factorizations, given the columns'
    # input norms
    return 16.0 * n * _EPS * (norm_a + norm_b)


def _certified_prefix(r: np.ndarray, col_norms: np.ndarray, n: int) -> int:
    # number J of leading pivots of the pivoted factor r (columns in pivot
    # order, col_norms their input norms) that the greedy loop chooses as
    # well: at every step j < J the pivot's trailing norm ||r[j:, j]|| beats
    # every other ||r[j:, c]|| by more than the rounding bound, which covers
    # both factorizations' errors in those norms unless their squares
    # underflow
    p = r.shape[1]
    squares = np.cumsum((r * r)[::-1], axis=0)[::-1]
    others = np.where(np.triu(np.ones((p, p), dtype=bool), 1), squares, -1.0)[:-1]
    runner = np.argmax(others, axis=1)
    steps = np.arange(p - 1)
    margin = np.sqrt(squares[steps, steps]) - np.sqrt(others[steps, runner])
    certified = margin > _rounding_bound(n, col_norms[:-1], col_norms[runner])
    failed = np.flatnonzero(~certified)
    return int(failed[0]) if failed.size else p


def _replay_swaps(piv: np.ndarray, steps: int) -> np.ndarray:
    # column order after the first ``steps`` pivot swaps of the greedy loop,
    # which swaps position j with the current position of column piv[j]
    order = identity_perm(piv.size)
    where = identity_perm(piv.size)
    for j in range(steps):
        m, c = where[piv[j]], order[j]
        order[j], order[m] = piv[j], c
        where[piv[j]], where[c] = j, m
    return order


def qr_col_pivoted(a) -> QrFactors:
    """Householder QR with classical greedy max-column-norm pivoting.

    At each step the pivot is the remaining column with the largest
    2-norm of the updated trailing block; ties break to the lowest index.
    |diag(r)| is nonincreasing.  The factorization runs on a copy scaled
    by an exact power of two, so the column norms cannot over- or
    underflow and the pivots do not depend on the input's units.

    LAPACK's blocked pivoted QR (``dgeqp3``) computes the factorization,
    and its pivots are kept for as long as each one beats the runner-up by
    more than a rounding bound of 16 n eps (||a_pivot|| + ||a_runner||);
    the trailing norms are read from its R.  From the first step that
    bound does not certify, a Householder loop with norms recomputed from
    the trailing block and lowest-index ties decides the rest, on LAPACK's
    trailing block.  When the two largest input columns already lie within
    the bound (Kahan matrices, equal-norm columns), that loop factors the
    whole input.  Pivots among trailing norms below the rounding level are
    set by rounding.
    """
    arr = check_matrix(a)
    _require_tall(arr, "qr_col_pivoted")
    n, p = arr.shape
    e = _pow2_exponent(arr)
    s = np.ldexp(arr, -e)
    col_norms = np.linalg.norm(s, axis=0)
    top = np.sort(col_norms)[-2:]
    if p > 1 and top[1] - top[0] <= _rounding_bound(n, top[1], top[0]):
        q, r, perm = _householder_pivoted(s)
    else:
        q, r, perm = sla.qr(s, mode="economic", pivoting=True, check_finite=False)
        perm = perm.astype(int)
        done = _certified_prefix(r, col_norms[perm], n)
        if done < p:
            # the loop's column order at step `done`, as columns of r
            cols = np.argsort(perm)[_replay_swaps(perm, done)]
            q2, r2, perm2 = _householder_pivoted(r[done:, cols[done:]])
            cols[done:] = cols[done:][perm2]
            perm, r = perm[cols], r[:, cols]
            r[done:, done:] = r2
            q[:, done:] = q[:, done:] @ q2
    q, r = _nonneg_diag(q, np.ldexp(r, e))
    return QrFactors(perm=perm, q=q, r=r)


def svd(a) -> SvdFactors:
    """Thin SVD computed through a preliminary QR.

    The input is first reduced by an unpivoted QR, then the p x p
    triangular factor is decomposed; this keeps the inner SVD at the
    dimension of the Gram matrix without ever forming it.
    """
    arr = check_matrix(a)
    _require_tall(arr, "svd")
    fac = qr_unpivoted(arr)
    try:
        ur, sigma, vt = np.linalg.svd(fac.r)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise NumericalFailureError(
            "inner SVD did not converge", detail=str(exc)
        ) from exc
    return SvdFactors(u=fac.q @ ur, sigma=sigma, v=vt.T)


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order (QR-first route)."""
    return svd(a).sigma


def orthonormal_range(a) -> np.ndarray:
    """Orthonormal basis of range(a), truncated at the rank cutoff."""
    arr = check_matrix(a)
    if arr.shape[0] >= arr.shape[1]:
        fac = svd(arr)
        u, sigma = fac.u, fac.sigma
    else:
        u, sigma, _ = np.linalg.svd(arr, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u[:, :0]
    cutoff = rank_cutoff(max(arr.shape), float(sigma[0]))
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

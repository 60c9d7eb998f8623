"""Sensitivity matrices from the SVIR compartment model, and a linear
dynamical system realizing a prescribed sensitivity SVD.

:func:`integrate` steps a numpy state of any shape with classical RK4.
SVIR sensitivities step each perturbed trajectory on Python scalars
instead, one observation interval per call of an RK4 kernel with the
right-hand side written out inline.  Their bits are those of the numpy
model the tests keep as reference (``tests/svir_reference.py``): its
right-hand side under :func:`integrate`, with all perturbed trajectories
as one batched state.  Central-fd runs on floats and divides by N, which
gives the bits of numpy's real loops; complex-step runs on complex
numbers and multiplies by 1/N, which gives those of numpy's complex loops
without fused multiply-adds, whatever numpy's runtime SIMD dispatch,
provided CPython does not fuse its complex product either (an x86-64
build without -march does not).  Finiteness is checked once per
observation interval: a state changes only by x = x + ..., so once
non-finite it stays so, and an interval that fails is replayed one step
at a time.  A failure then names the earliest step at which any
trajectory leaves the double range, as one batched state would.

The SVIR right-hand side is implemented exactly as printed in the source
model: the susceptible equation carries no -nu*S term, so the total
population is not conserved; d(S+V+I+R)/dt = nu*S along trajectories.
That defect is measured, not corrected: ``TestPopulationBookkeeping``
checks it against the tests' reference.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import _EPS
from .errors import InputDomainError, IntegrationFailureError
from .linalg import SvdFactors

_CBRT_EPS = _EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class SvirParams:
    """SVIR rate parameters (1/day except alpha, dimensionless)."""

    beta: float = 0.80    # transmission coefficient
    nu: float = 0.004     # vaccination rate
    alpha: float = 0.10   # infection probability after vaccination
    gamma: float = 0.14   # recovery rate

    def __post_init__(self):
        vals = (self.beta, self.nu, self.alpha, self.gamma)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise InputDomainError("SVIR parameters must be nonnegative and finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta, self.nu, self.alpha, self.gamma])

    @classmethod
    def from_array(cls, q) -> "SvirParams":
        beta, nu, alpha, gamma = (float(x) for x in q)
        return cls(beta=beta, nu=nu, alpha=alpha, gamma=gamma)


NOMINAL_SVIR = SvirParams()

PARAM_NAMES = ("beta", "nu", "alpha", "gamma")


@dataclass(frozen=True)
class SvirState:
    """Compartment counts S, V, I, R and the population constant N."""

    s: float
    v: float
    i: float
    r: float
    n: float

    def __post_init__(self):
        if not (np.all(np.isfinite((self.s, self.v, self.i, self.r, self.n)))
                and self.n > 0):
            raise InputDomainError(
                "S, V, I, R and N must be finite, and N must be positive")


def default_initial_state(n_total: float = 1e5, i0: float = 10.0) -> SvirState:
    """Artifact default: I0 infectious seeded into an otherwise
    susceptible population."""
    return SvirState(s=n_total - i0, v=0.0, i=i0, r=0.0, n=n_total)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation times (days)."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise InputDomainError("time grid must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(t)):
            raise InputDomainError("time grid must be finite")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise InputDomainError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)
        t.flags.writeable = False

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def days(cls, count: int) -> "TimeGrid":
        """Daily grid t = 0, 1, ..., count-1."""
        return cls(np.arange(float(count)))


DEFAULT_GRID = TimeGrid.days(31)


@dataclass(frozen=True)
class SensMethod:
    """Derivative approximation: 'central-fd' (relative step, at least
    machine epsilon) or 'complex-step' (absolute step, at least the
    smallest normal float).  A smaller step cannot resolve a derivative:
    q_j +- h_j rounds back to q_j, or Im f / h loses bits to underflow.

    The floor promises no more than that.  A central-fd step of at least
    eps keeps q_j +- h_j apart, but I(t) need not resolve the
    perturbation: at step 2.220446049250313e-16 the nu and alpha columns
    of the nominal SVIR sensitivity are exactly zero, and srrqr then marks
    nu unidentifiable along with alpha."""

    kind: str
    step: float

    def __post_init__(self):
        if self.kind not in ("central-fd", "complex-step"):
            raise InputDomainError(f"unknown sensitivity method {self.kind!r}")
        least = _EPS if self.kind == "central-fd" else float(np.finfo(float).tiny)
        if not least <= self.step < np.inf:
            raise InputDomainError(
                f"{self.kind} step must be finite and at least {least!r}")

    @classmethod
    def central_fd(cls, step: float = _CBRT_EPS) -> "SensMethod":
        return cls(kind="central-fd", step=step)

    @classmethod
    def complex_step(cls, step: float = 1e-20) -> "SensMethod":
        return cls(kind="complex-step", step=step)


DEFAULT_SENS_METHOD = SensMethod.complex_step()
SVIR_SUBSTEPS = 100


def integrate(rhs, x0, grid: TimeGrid, substeps: int) -> np.ndarray:
    """Classical fixed-step RK4 over the grid.

    ``rhs(t, x)`` must return dx/dt with the shape of ``x``; each grid
    interval is split into ``substeps`` uniform steps.  The state may have
    any shape and be real or complex.  Returns len(grid) x x0.shape, whose
    first entry is x0 at grid.times[0].
    """
    if substeps < 1:
        raise InputDomainError("substeps must be >= 1")
    x = np.asarray(x0)
    dtype = np.result_type(x.dtype, float)
    x = x.astype(dtype)
    times = grid.times
    out = np.empty((times.size, *x.shape), dtype=dtype)
    out[0] = x
    # a blow-up is reported by the finiteness check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in range(times.size - 1):
            h = (times[idx + 1] - times[idx]) / substeps
            t = times[idx]
            for _ in range(substeps):
                k1 = rhs(t, x)
                k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
                k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
                k4 = rhs(t + h, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = t + h
                if not np.all(np.isfinite(x)):
                    raise IntegrationFailureError(
                        f"non-finite state at t={t:.6g}", time=float(t))
            out[idx + 1] = x
    return out


def _rk4_real(s, v, i, r, beta, nu, ab, gamma, n_total, h, substeps):
    # substeps RK4 steps from (s, v, i, r), with alpha*beta = ab formed
    # first and no call inside the loop.  dS/dt is -x with x = beta*I*S/N;
    # a float x + (-y) is x - y bit for bit, so the S stages subtract x
    # instead of adding -x
    hh = 0.5 * h
    h6 = h / 6.0
    for _ in range(substeps):
        xa = beta * i * s / n_total
        xv = ab * i * v / n_total
        a3 = gamma * i
        a1 = nu * s - xv
        a2 = (xa + xv) - a3
        s1 = s - hh * xa
        v1 = v + hh * a1
        i1 = i + hh * a2
        xb = beta * i1 * s1 / n_total
        xv = ab * i1 * v1 / n_total
        b3 = gamma * i1
        b1 = nu * s1 - xv
        b2 = (xb + xv) - b3
        s1 = s - hh * xb
        v1 = v + hh * b1
        i1 = i + hh * b2
        xc = beta * i1 * s1 / n_total
        xv = ab * i1 * v1 / n_total
        c3 = gamma * i1
        c1 = nu * s1 - xv
        c2 = (xc + xv) - c3
        s1 = s - h * xc
        v1 = v + h * c1
        i1 = i + h * c2
        xd = beta * i1 * s1 / n_total
        xv = ab * i1 * v1 / n_total
        d3 = gamma * i1
        d1 = nu * s1 - xv
        d2 = (xd + xv) - d3
        s = s + h6 * (((-xa - 2.0 * xb) - 2.0 * xc) - xd)
        v = v + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
        i = i + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
        r = r + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
    return s, v, i, r


def _rk4_complex(s, v, i, r, beta, nu, ab, gamma, n_total, h, substeps):
    # _rk4_real on complex numbers, with dS/dt = -x as the reference forms it:
    # for complex numbers x + (-y) and x - y can differ in the sign of a
    # zero.  numpy's complex loops promote each real factor to a complex
    # one with zero imaginary part; the constants are promoted here once,
    # which also spares CPython the float product it tries first
    hh = complex(0.5 * h)
    h6 = complex(h / 6.0)
    hc = complex(h)
    two = complex(2.0)
    inv_n = complex(1.0 / n_total)
    for _ in range(substeps):
        xs = beta * i * s * inv_n
        xv = ab * i * v * inv_n
        a3 = gamma * i
        a0 = -xs
        a1 = nu * s - xv
        a2 = (xs + xv) - a3
        s1 = s + hh * a0
        v1 = v + hh * a1
        i1 = i + hh * a2
        xs = beta * i1 * s1 * inv_n
        xv = ab * i1 * v1 * inv_n
        b3 = gamma * i1
        b0 = -xs
        b1 = nu * s1 - xv
        b2 = (xs + xv) - b3
        s1 = s + hh * b0
        v1 = v + hh * b1
        i1 = i + hh * b2
        xs = beta * i1 * s1 * inv_n
        xv = ab * i1 * v1 * inv_n
        c3 = gamma * i1
        c0 = -xs
        c1 = nu * s1 - xv
        c2 = (xs + xv) - c3
        s1 = s + hc * c0
        v1 = v + hc * c1
        i1 = i + hc * c2
        xs = beta * i1 * s1 * inv_n
        xv = ab * i1 * v1 * inv_n
        d3 = gamma * i1
        d0 = -xs
        d1 = nu * s1 - xv
        d2 = (xs + xv) - d3
        s = s + h6 * (((a0 + two * b0) + two * c0) + d0)
        v = v + h6 * (((a1 + two * b1) + two * c1) + d1)
        i = i + h6 * (((a2 + two * b2) + two * c2) + d2)
        r = r + h6 * (((a3 + two * b3) + two * c3) + d3)
    return s, v, i, r


def _infectious(q: list, ic: SvirState, times: list, substeps: int):
    # I(t) on the grid for one parameter vector q of Python floats or
    # complex numbers.  Returns (I values, None), or (I values so far,
    # (idx, k, t)) for the first step k of grid interval idx that leaves a
    # state non-finite, with t accumulated as t = t + h like integrate's
    beta, nu, alpha, gamma = q
    if isinstance(beta, complex):
        rk4, isfinite, scalar = _rk4_complex, cmath.isfinite, complex
    else:
        rk4, isfinite, scalar = _rk4_real, math.isfinite, float
    ab, n_total = alpha * beta, float(ic.n)
    x = (scalar(ic.s), scalar(ic.v), scalar(ic.i), scalar(ic.r))
    out = [x[2]]
    for idx in range(len(times) - 1):
        h = (times[idx + 1] - times[idx]) / substeps
        end = rk4(*x, beta, nu, ab, gamma, n_total, h, substeps)
        if not all(map(isfinite, end)):
            t = times[idx]
            for k in range(substeps):
                x = rk4(*x, beta, nu, ab, gamma, n_total, h, 1)
                t = t + h
                if not all(map(isfinite, x)):
                    return out, (idx, k, t)
        x = end
        out.append(x[2])
    return out, None


def svir_sensitivity(params: SvirParams, ic: SvirState | None = None,
                     grid: TimeGrid | None = None,
                     method: SensMethod | None = None,
                     substeps: int = SVIR_SUBSTEPS) -> np.ndarray:
    """n x 4 sensitivity of I(t_i) to (beta, nu, alpha, gamma).

    central-fd perturbs each parameter by h_j = step*max(|q_j|, 1e-8) on
    both sides and returns (f(q + h_j e_j) - f(q - h_j e_j)) / (2 h_j);
    complex-step returns Im f(q + ih e_j) / h with absolute step h.
    Defaults: default_initial_state(), DEFAULT_GRID, DEFAULT_SENS_METHOD.
    Raises InputDomainError for a grid of fewer than 4 observations,
    substeps < 1, or a central-fd q_j +- h_j that is not finite, and
    IntegrationFailureError at the earliest RK4 step that leaves a
    perturbed state non-finite.
    """
    ic = ic or default_initial_state()
    grid = grid or DEFAULT_GRID
    method = method or DEFAULT_SENS_METHOD
    if len(grid) < 4:
        raise InputDomainError("sensitivity grid needs at least 4 observations")
    if substeps < 1:
        raise InputDomainError("substeps must be >= 1")
    # Python floats, so that an overflow gives inf rather than a warning
    q0 = [float(x) for x in (params.beta, params.nu, params.alpha, params.gamma)]
    h = float(method.step)
    if method.kind == "central-fd":
        # q0 + h_j e_j and q0 - h_j e_j, interleaved per parameter; q0 is
        # finite, so an infinite h_j leaves q_j +- h_j infinite too
        hs = [h * max(abs(x), 1e-8) for x in q0]
        vectors = []
        for j, name in enumerate(PARAM_NAMES):
            for qj in (q0[j] + hs[j], q0[j] - hs[j]):
                if not math.isfinite(qj):
                    raise InputDomainError(
                        f"central-fd step {method.step!r} takes {name} +- h "
                        "out of the double range")
                vectors.append(q0[:j] + [qj] + q0[j + 1:])
    else:
        # q0 + ih e_j
        vectors = [[complex(x, h if k == j else 0.0) for k, x in enumerate(q0)]
                   for j in range(4)]
    times = [float(t) for t in grid.times]
    runs = [_infectious(q, ic, times, substeps) for q in vectors]
    failures = [failure for _, failure in runs if failure is not None]
    if failures:
        # the earliest failing step, which is what one batched state reports
        _, _, t = min(failures)
        raise IntegrationFailureError(f"non-finite state at t={t:.6g}", time=t)
    f = np.array([out for out, _ in runs]).T
    if method.kind == "central-fd":
        return (f[:, 0::2] - f[:, 1::2]) / (2.0 * np.array(hs))
    return f.imag / h


def sample_nominal_neighborhood(params: SvirParams, fraction: float,
                                seed) -> SvirParams:
    """Uniform draw of each component from [(1-f) q_j, (1+f) q_j]."""
    if not 0.0 <= fraction < 1.0:
        raise InputDomainError("fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    q = params.as_array()
    lo, hi = (1.0 - fraction) * q, (1.0 + fraction) * q
    return SvirParams.from_array(rng.uniform(lo, hi))


@dataclass(frozen=True)
class PrescribedSystem:
    """Diagonal linear system dx/dt = diag(lam) x, x(0) = V^T q, y = U x,
    whose sensitivity matrix at t = horizon equals U diag(sigma) V^T."""

    lam: np.ndarray
    u: np.ndarray
    v: np.ndarray
    horizon: float

    def __post_init__(self):
        for arr in (self.lam, self.u, self.v):
            np.asarray(arr).flags.writeable = False

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.horizon * self.lam)


def build_prescribed_system(factors: SvdFactors, horizon: float) -> PrescribedSystem:
    """Pick decay rates lam_j = ln(sigma_j)/T so exp(T lam_j) = sigma_j.

    The factors must be u n x p, sigma of length p and v p x p.  Zero
    singular values are rejected: the logarithm is undefined and the
    construction has no limit there; so are infinite and NaN ones.
    """
    if not 0 < horizon < np.inf:
        raise InputDomainError("horizon T must be positive and finite")
    u = np.asarray(factors.u, dtype=float)
    sigma = np.asarray(factors.sigma, dtype=float)
    v = np.asarray(factors.v, dtype=float)
    p = sigma.size
    if u.ndim != 2 or u.shape[1] != p or sigma.ndim != 1 or v.shape != (p, p):
        raise InputDomainError(
            "prescribed system needs u n x p, sigma of length p and v p x p, "
            f"got u {u.shape}, sigma {sigma.shape}, v {v.shape}"
        )
    if not np.all((sigma > 0.0) & (sigma < np.inf)):
        raise InputDomainError(
            "prescribed system needs finite, strictly positive singular values"
        )
    lam = np.log(sigma) / horizon
    return PrescribedSystem(lam=lam, u=u, v=v, horizon=horizon)


def observe_prescribed(system: PrescribedSystem, q, t: float) -> np.ndarray:
    """Closed-form observation y(t) = U diag(exp(t lam)) V^T q."""
    q = np.asarray(q, dtype=float)
    return system.u @ (np.exp(t * system.lam) * (system.v.T @ q))


def observe_prescribed_integrated(system: PrescribedSystem, q, t: float,
                                  substeps: int = 2000) -> np.ndarray:
    """Same observation through RK4 integration (closed-form cross-check)."""
    if not t >= 0:
        raise InputDomainError("observation time t must be nonnegative")
    q = np.asarray(q, dtype=float)
    grid = TimeGrid(np.array([0.0, t]) if t > 0 else np.array([0.0]))
    traj = integrate(lambda _t, x: system.lam * x, system.v.T @ q, grid, substeps)
    return system.u @ traj[-1]


@dataclass(frozen=True)
class PrescribedReport:
    rel_error: float
    tol: float
    passed: bool


def verify_prescribed_sensitivity(system: PrescribedSystem, q,
                                  tol: float = 1e-10) -> PrescribedReport:
    """Central finite differences of the observation over q at t = T,
    compared against U diag(sigma) V^T in the spectral norm.

    The observation is linear in q, so the check is h-independent up to
    roundoff; steps of max(1, |q_j|) keep the subtraction well scaled.
    """
    if not tol >= 0:
        raise InputDomainError("tol must be nonnegative")
    q = np.asarray(q, dtype=float)
    p = q.size
    target = system.u @ (system.sigma[:, None] * system.v.T)
    fd = np.empty_like(target)
    for j in range(p):
        h = max(1.0, abs(q[j]))
        qp = q.copy()
        qp[j] += h
        qm = q.copy()
        qm[j] -= h
        fd[:, j] = (
            observe_prescribed(system, qp, system.horizon)
            - observe_prescribed(system, qm, system.horizon)
        ) / (2.0 * h)
    sigma1 = float(np.max(system.sigma))
    rel = float(np.linalg.norm(fd - target, 2) / sigma1)
    return PrescribedReport(rel_error=rel, tol=tol, passed=rel <= tol)

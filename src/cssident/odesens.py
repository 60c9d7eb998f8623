"""Sensitivity matrices from the SVIR compartment model, and a linear
dynamical system realizing a prescribed sensitivity SVD.

An SVIR state is an array whose first axis is (S, V, I, R); trailing
axes hold independent trajectories, which :func:`integrate` steps as one.

The SVIR right-hand side is implemented exactly as printed in the source
model: the susceptible equation carries no -nu*S term, so the total
population is not conserved; d(S+V+I+R)/dt = nu*S along trajectories.
That defect is measurable through :func:`population_defect` rather than
silently corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, IntegrationFailureError
from .linalg import SvdFactors

_CBRT_EPS = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


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

    def as_array(self, dtype=float) -> np.ndarray:
        return np.array([self.beta, self.nu, self.alpha, self.gamma], dtype=dtype)

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

    def as_array(self, dtype=float) -> np.ndarray:
        return np.array([self.s, self.v, self.i, self.r], dtype=dtype)


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
    """Derivative approximation: 'central-fd' (relative step) or
    'complex-step' (absolute step)."""

    kind: str
    step: float

    def __post_init__(self):
        if self.kind not in ("central-fd", "complex-step"):
            raise InputDomainError(f"unknown sensitivity method {self.kind!r}")
        if not 0 < self.step < np.inf:
            raise InputDomainError("step must be positive and finite")

    @classmethod
    def central_fd(cls, step: float = _CBRT_EPS) -> "SensMethod":
        return cls(kind="central-fd", step=step)

    @classmethod
    def complex_step(cls, step: float = 1e-20) -> "SensMethod":
        return cls(kind="complex-step", step=step)


DEFAULT_SENS_METHOD = SensMethod.complex_step()
SVIR_SUBSTEPS = 100


def svir_rhs(x: np.ndarray, q: np.ndarray, n_total: float) -> np.ndarray:
    """Time derivative of (S, V, I, R), exactly as printed.

    ``x`` is an array whose first axis is (S, V, I, R) and ``q`` one whose
    first axis is (beta, nu, alpha, gamma), real or complex; their
    trailing axes index independent trajectories and broadcast together.
    """
    s, v, i, r = x
    beta, nu, alpha, gamma = q
    infection_s = beta * i * s / n_total
    infection_v = alpha * beta * i * v / n_total
    return np.array([-infection_s, nu * s - infection_v,
                     infection_s + infection_v - gamma * i, gamma * i])


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


def _infectious_trajectories(qs: np.ndarray, ic: SvirState, grid: TimeGrid,
                             substeps: int) -> np.ndarray:
    # I(t) for every column of the 4 x m parameter array qs, integrated as
    # one 4 x m state; returns len(grid) x m
    x0 = np.repeat(ic.as_array(qs.dtype)[:, None], qs.shape[1], axis=1)
    traj = integrate(lambda _t, x: svir_rhs(x, qs, ic.n), x0, grid, substeps)
    return traj[:, 2]


def svir_sensitivity(params: SvirParams, ic: SvirState | None = None,
                     grid: TimeGrid | None = None,
                     method: SensMethod | None = None,
                     substeps: int = SVIR_SUBSTEPS) -> np.ndarray:
    """n x 4 sensitivity of I(t_i) to (beta, nu, alpha, gamma).

    central-fd perturbs each parameter by step*max(|q_j|, 1e-8) on both
    sides; complex-step evaluates Im f(q + ih e_j)/h with absolute step h.
    Defaults: default_initial_state(), DEFAULT_GRID, DEFAULT_SENS_METHOD.
    """
    ic = ic or default_initial_state()
    grid = grid or DEFAULT_GRID
    method = method or DEFAULT_SENS_METHOD
    if len(grid) < 4:
        raise InputDomainError("sensitivity grid needs at least 4 observations")
    q0 = params.as_array()
    if method.kind == "central-fd":
        # columns q0 + h_j e_j and q0 - h_j e_j, interleaved per parameter
        h = method.step * np.maximum(np.abs(q0), 1e-8)
        j = np.arange(4)
        qs = np.repeat(q0[:, None], 8, axis=1)
        qs[j, 2 * j] += h
        qs[j, 2 * j + 1] -= h
        f = _infectious_trajectories(qs, ic, grid, substeps)
        return (f[:, 0::2] - f[:, 1::2]) / (2.0 * h)
    h = method.step
    qs = np.repeat(q0.astype(complex)[:, None], 4, axis=1)
    qs[np.diag_indices(4)] += 1j * h
    return np.imag(_infectious_trajectories(qs, ic, grid, substeps)) / h


def population_defect(params: SvirParams, ic: SvirState, grid: TimeGrid,
                      substeps: int, reference_integral: float) -> float:
    """|(S+V+I+R)(T) - (S+V+I+R)(0) - nu * integral(S dt)|.

    ``reference_integral`` must be an accurate value of integral(S dt);
    the defect then isolates the RK4 error of the trajectory itself.
    """
    q = params.as_array()
    traj = integrate(lambda _t, x: svir_rhs(x, q, ic.n), ic.as_array(), grid,
                     substeps)
    total_change = float(traj[-1].sum() - traj[0].sum())
    return abs(total_change - params.nu * reference_integral)


def susceptible_integral(params: SvirParams, ic: SvirState, grid: TimeGrid,
                         substeps: int = 800) -> float:
    """integral of S dt over the grid, via an augmented quadrature state."""
    q = params.as_array()

    def rhs(_t, x):
        return np.concatenate([svir_rhs(x[:4], q, ic.n), x[:1]])

    x0 = np.concatenate([ic.as_array(), [0.0]])
    traj = integrate(rhs, x0, grid, substeps)
    return float(traj[-1, 4])


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

"""The SVIR model as numpy arrays through ``cssident.integrate``: the
reference that the library's scalar RK4 kernels are checked against.

A state is an array whose first axis is (S, V, I, R) and a parameter
vector one whose first axis is (beta, nu, alpha, gamma); trailing axes
hold independent trajectories, which ``integrate`` steps as one.

The right-hand side is the model exactly as printed: the susceptible
equation carries no -nu*S term, so the total population is not
conserved; d(S+V+I+R)/dt = nu*S along trajectories.
:func:`population_defect` measures that defect rather than correcting it.
"""
import numpy as np

from cssident import SensMethod, SvirParams, SvirState, TimeGrid, integrate


def state_array(ic: SvirState, dtype=float) -> np.ndarray:
    return np.array([ic.s, ic.v, ic.i, ic.r], dtype=dtype)


def param_array(params: SvirParams, dtype=float) -> np.ndarray:
    return np.array([params.beta, params.nu, params.alpha, params.gamma],
                    dtype=dtype)


def svir_rhs(x: np.ndarray, q: np.ndarray, n_total: float) -> np.ndarray:
    """Time derivative of (S, V, I, R), real or complex; the trailing axes
    of ``x`` and ``q`` broadcast together."""
    s, v, i, r = x
    beta, nu, alpha, gamma = q
    infection_s = beta * i * s / n_total
    infection_v = alpha * beta * i * v / n_total
    return np.array([-infection_s, nu * s - infection_v,
                     infection_s + infection_v - gamma * i, gamma * i])


def batched_sensitivity(params: SvirParams, ic: SvirState, grid: TimeGrid,
                        method: SensMethod, substeps: int) -> np.ndarray:
    """The perturbed trajectories as one numpy state through integrate,
    which stops at the first non-finite step; central-fd's state is 4 x 8
    and real, complex-step's 4 x 4 and complex."""
    if method.kind == "central-fd":
        q0 = param_array(params)
        h = method.step * np.maximum(np.abs(q0), 1e-8)
        j = np.arange(4)
        qs = np.repeat(q0[:, None], 8, axis=1)
        qs[j, 2 * j] += h
        qs[j, 2 * j + 1] -= h
    else:
        qs = np.repeat(param_array(params, complex)[:, None], 4, axis=1)
        qs[np.diag_indices(4)] += 1j * method.step
    x0 = np.repeat(state_array(ic, qs.dtype)[:, None], qs.shape[1], axis=1)
    f = integrate(lambda _t, x: svir_rhs(x, qs, ic.n), x0, grid, substeps)[:, 2]
    if method.kind == "central-fd":
        return (f[:, 0::2] - f[:, 1::2]) / (2.0 * h)
    return f.imag / method.step


def population_defect(params: SvirParams, ic: SvirState, grid: TimeGrid,
                      substeps: int, reference_integral: float) -> float:
    """|(S+V+I+R)(T) - (S+V+I+R)(0) - nu * integral(S dt)|.

    ``reference_integral`` must be an accurate value of integral(S dt);
    the defect then isolates the RK4 error of the trajectory itself.
    """
    q = param_array(params)
    traj = integrate(lambda _t, x: svir_rhs(x, q, ic.n), state_array(ic), grid,
                     substeps)
    total_change = float(traj[-1].sum() - traj[0].sum())
    return abs(total_change - params.nu * reference_integral)


def susceptible_integral(params: SvirParams, ic: SvirState, grid: TimeGrid,
                         substeps: int = 800) -> float:
    """integral of S dt over the grid, via an augmented quadrature state."""
    q = param_array(params)

    def rhs(_t, x):
        return np.concatenate([svir_rhs(x[:4], q, ic.n), x[:1]])

    x0 = np.concatenate([state_array(ic), [0.0]])
    traj = integrate(rhs, x0, grid, substeps)
    return float(traj[-1, 4])

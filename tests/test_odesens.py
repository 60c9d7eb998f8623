import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cssident import (
    InputDomainError,
    IntegrationFailureError,
    NOMINAL_SVIR,
    RankPolicy,
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
    select_k,
    svd,
    svir_sensitivity,
    verify_prescribed_sensitivity,
)
from cssident.config import _EPS
from cssident.linalg import SvdFactors
from svir_reference import (
    batched_sensitivity,
    param_array,
    population_defect,
    state_array,
    susceptible_integral,
    svir_rhs,
)

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _rhs_of(state: SvirState, params: SvirParams) -> np.ndarray:
    return svir_rhs(state_array(state), param_array(params), state.n)


class TestSvirRhs:
    def test_no_infection_without_infectious(self):
        state = SvirState(s=1000.0, v=50.0, i=0.0, r=0.0, n=1e5)
        d = _rhs_of(state, NOMINAL_SVIR)
        assert_allclose(d, [0.0, NOMINAL_SVIR.nu * 1000.0, 0.0, 0.0])

    def test_zero_parameters(self):
        state = SvirState(s=10.0, v=10.0, i=10.0, r=10.0, n=100.0)
        d = _rhs_of(state, SvirParams(beta=0.0, nu=0.0, alpha=0.0, gamma=0.0))
        assert_allclose(d, np.zeros(4))

    def test_equal_compartments_hand_check(self):
        # independent arithmetic for S=V=I=R=N/4 at the nominal rates
        n = 1e5
        quarter = n / 4.0
        state = SvirState(s=quarter, v=quarter, i=quarter, r=quarter, n=n)
        d = _rhs_of(state, NOMINAL_SVIR)
        infection_s = 0.80 * quarter * quarter / n          # 5000
        infection_v = 0.10 * 0.80 * quarter * quarter / n   # 500
        expected = [
            -infection_s,
            0.004 * quarter - infection_v,
            infection_s + infection_v - 0.14 * quarter,
            0.14 * quarter,
        ]
        assert_allclose(d, expected, rtol=1e-14)


class TestSvirState:
    @pytest.mark.parametrize("field", ("s", "v", "i", "r", "n"))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_rejected(self, field, value):
        counts = {"s": 1.0, "v": 0.0, "i": 1.0, "r": 0.0, "n": 2.0}
        with pytest.raises(InputDomainError):
            SvirState(**(counts | {field: value}))

    def test_population_must_be_positive(self):
        with pytest.raises(InputDomainError):
            SvirState(s=1.0, v=0.0, i=1.0, r=0.0, n=0.0)


class TestIntegrate:
    def test_constant_field(self):
        traj = integrate(lambda t, x: np.zeros_like(x), np.array([2.0, -1.0]),
                         TimeGrid.days(5), substeps=3)
        assert_allclose(traj, np.tile([2.0, -1.0], (5, 1)))

    def test_exponential_decay(self):
        traj = integrate(lambda t, x: -x, np.array([1.0]),
                         TimeGrid(np.array([0.0, 1.0])), substeps=100)
        assert traj[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_observed_order_is_four(self):
        errs = []
        for substeps in (10, 20, 40, 80):
            traj = integrate(lambda t, x: -x, np.array([1.0]),
                             TimeGrid(np.array([0.0, 1.0])), substeps=substeps)
            errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(3.8 <= o <= 4.2 for o in orders)

    def test_state_of_any_shape(self):
        # a 2 x 3 state steps as six independent scalar trajectories
        rates = np.array([[-1.0, -0.5, 0.0], [0.25, -2.0, 1.0]])
        x0 = np.arange(1.0, 7.0).reshape(2, 3)
        grid = TimeGrid.days(4)
        traj = integrate(lambda t, x: rates * x, x0, grid, substeps=7)
        assert traj.shape == (4, 2, 3)
        np.testing.assert_array_equal(traj[0], x0)
        for a in range(2):
            for b in range(3):
                one = integrate(lambda t, x: rates[a, b] * x, x0[a, b], grid, 7)
                np.testing.assert_array_equal(traj[:, a, b], one)

    def test_svir_trajectory_stays_physical(self):
        ic = default_initial_state()
        q = param_array(NOMINAL_SVIR)

        def rhs(t, x):
            return svir_rhs(x, q, ic.n)

        traj = integrate(rhs, state_array(ic), TimeGrid.days(31), substeps=100)
        assert np.all(np.isfinite(traj))
        assert np.all(traj[:, 2] >= 0.0)

    def test_blowup_raises_with_time(self):
        with np.errstate(over="ignore"), pytest.raises(IntegrationFailureError) as err:
            integrate(lambda t, x: x * x, np.array([1e200]),
                      TimeGrid(np.array([0.0, 1.0])), substeps=10)
        assert err.value.time is not None

    def test_grid_validation(self):
        with pytest.raises(InputDomainError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InputDomainError):
            integrate(lambda t, x: -x, np.array([1.0]), TimeGrid.days(3),
                      substeps=0)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_grid_rejects_nonfinite_times(self, bad):
        # a NaN passes the increasing check, and an inf end passes it too
        for times in ([0.0, bad, 2.0], [0.0, 1.0, 2.0, bad]):
            with pytest.raises(InputDomainError, match="time grid must be finite"):
                TimeGrid(np.array(times))


class TestPopulationBookkeeping:
    def test_total_change_matches_vaccination_inflow(self):
        # d(S+V+I+R)/dt = nu*S as printed; the defect against an accurate
        # integral of S shrinks at fourth order in the substep size
        params = NOMINAL_SVIR
        ic = default_initial_state()
        grid = TimeGrid.days(11)
        ref = susceptible_integral(params, ic, grid, substeps=800)
        defects = [population_defect(params, ic, grid, s, ref)
                   for s in (2, 4, 8)]
        assert defects[0] / defects[1] >= 8.0
        assert defects[1] / defects[2] >= 8.0


class TestSensMethod:
    # positive, finite, and no smaller than machine epsilon (central-fd,
    # relative) or the smallest normal float (complex-step, absolute)
    @pytest.mark.parametrize("step, kind", [
        *((step, kind) for step in (0.0, -1e-6, np.inf, np.nan)
          for kind in ("central-fd", "complex-step")),
        (1e-17, "central-fd"), (1e-320, "complex-step"), (5e-324, "complex-step")])
    def test_step_must_be_positive_and_finite(self, kind, step):
        with pytest.raises(InputDomainError):
            SensMethod(kind, step)

    def test_boundary_steps_are_accepted(self):
        assert SensMethod.central_fd(_EPS).step == _EPS
        tiny = float(np.finfo(float).tiny)
        sens = svir_sensitivity(NOMINAL_SVIR, grid=TimeGrid.days(11), substeps=40,
                                method=SensMethod.complex_step(tiny))
        ref = svir_sensitivity(NOMINAL_SVIR, grid=TimeGrid.days(11), substeps=40)
        assert_allclose(sens, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


class TestSvirSensitivity:
    def test_disease_free_equilibrium_is_insensitive(self):
        ic = SvirState(s=1e5, v=0.0, i=0.0, r=0.0, n=1e5)
        sens = svir_sensitivity(NOMINAL_SVIR, ic, TimeGrid.days(6),
                                SensMethod.complex_step(), substeps=20)
        assert np.max(np.abs(sens)) <= 1e-12

    def test_methods_agree(self):
        grid = TimeGrid.days(11)
        cs = svir_sensitivity(NOMINAL_SVIR, method=SensMethod.complex_step(),
                              grid=grid, substeps=40)
        fd = svir_sensitivity(NOMINAL_SVIR, method=SensMethod.central_fd(),
                              grid=grid, substeps=40)
        assert np.linalg.norm(cs - fd) <= 1e-6 * np.linalg.norm(cs)

    @staticmethod
    def _one_trajectory_per_vector(q0, ic, grid, method, substeps):
        # reference: each perturbed parameter vector integrated on its own
        def infectious(q):
            traj = integrate(lambda _t, x: svir_rhs(x, q, ic.n),
                             state_array(ic, q.dtype), grid, substeps)
            return traj[:, 2]

        sens = np.empty((len(grid), 4))
        for j in range(4):
            if method.kind == "central-fd":
                h = method.step * max(abs(q0[j]), 1e-8)
                qp, qm = q0.copy(), q0.copy()
                qp[j] += h
                qm[j] -= h
                sens[:, j] = (infectious(qp) - infectious(qm)) / (2.0 * h)
            else:
                qc = q0.astype(complex)
                qc[j] += 1j * method.step
                sens[:, j] = np.imag(infectious(qc)) / method.step
        return sens

    @pytest.mark.parametrize("method", (SensMethod.central_fd(),
                                        SensMethod.complex_step()))
    def test_batched_matches_one_trajectory_per_vector(self, method):
        params = sample_nominal_neighborhood(NOMINAL_SVIR, 0.2, seed=5)
        ic, grid = default_initial_state(), TimeGrid.days(11)
        sens = svir_sensitivity(params, ic, grid, method, substeps=40)
        ref = self._one_trajectory_per_vector(param_array(params), ic, grid,
                                              method, 40)
        if method.kind == "central-fd":
            np.testing.assert_array_equal(sens, ref)
        else:
            # under numpy's AVX2/AVX-512 loops a complex product rounds like
            # a fused multiply-add, which the scalar kernel does not
            assert np.max(np.abs(sens - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("method", (SensMethod.central_fd(),
                                        SensMethod.complex_step()),
                             ids=lambda method: method.kind)
    @pytest.mark.parametrize("pool", ("svir20", "svir100"))
    def test_reproduces_the_golden_tables(self, pool, method):
        # every committed sensitivity of the benchmark, bit for bit;
        # perfbench/ is read, never changed
        table = json.loads((PERFBENCH / "golden" / f"{pool}.json").read_text())
        sys.path.insert(0, str(PERFBENCH))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(PERFBENCH))
        moved = [draw for draw in range(table["size"])
                 if not np.array_equal(
                     svir_sensitivity(workloads.svir_params(draw), method=method,
                                      substeps=table["substeps"]),
                     np.array(table["sens"][f"{draw}/{method.kind}"]))]
        assert moved == []

    @pytest.mark.parametrize("params, method", (
        (SvirParams(beta=1e300), SensMethod.central_fd()),
        (NOMINAL_SVIR, SensMethod.central_fd(1e300)),
        (SvirParams(beta=500.0), SensMethod.central_fd(0.5)),
        (SvirParams(beta=1e300), SensMethod.complex_step()),
        (NOMINAL_SVIR, SensMethod.complex_step(1e308))),
        ids=("beta-central-fd", "step-central-fd", "staggered-central-fd",
             "beta-complex-step", "step-complex-step"))
    def test_failure_matches_the_batched_state(self, params, method):
        # in the staggered case beta + h_1 fails at t=0.05, six trajectories
        # at 0.1, gamma - h_4 at 0.98 and beta - h_1 never
        self._assert_failure_matches(params, method)

    def _assert_failure_matches(self, params, method):
        # same failure time and message as the batched state; returns the time
        ic, grid, substeps = default_initial_state(), TimeGrid.days(5), 100
        with pytest.raises(IntegrationFailureError) as ref:
            batched_sensitivity(params, ic, grid, method, substeps)
        with pytest.raises(IntegrationFailureError) as err:
            svir_sensitivity(params, ic, grid, method, substeps)
        assert err.value.time == ref.value.time
        assert str(err.value) == str(ref.value)
        return ref.value.time

    @pytest.mark.parametrize("method", (SensMethod.central_fd(),
                                        SensMethod.complex_step()),
                             ids=lambda method: method.kind)
    def test_failure_inside_a_later_interval_matches_the_batched_state(self, method):
        # gamma = 285 puts the RK4 step just past its stability edge, so
        # the state overflows at t=1.84: interval 1, step 83 of 100, which
        # the kernel finds by replaying interval 1 one step at a time
        time = self._assert_failure_matches(SvirParams(gamma=285.0), method)
        assert 1.0 < time < 2.0 and 0.015 < time % 1.0 < 0.985

    def test_central_fd_perturbation_out_of_the_double_range_is_an_input_error(self):
        # h_j overflows in the product, or q_j + h_j in the sum; either is
        # rejected before any numpy overflow warning (an error under pytest),
        # numpy scalars from a library caller included
        for beta, step in ((1e300, 1e300), (1e308, 1.0),
                           (np.float64(1e300), np.float64(1e300))):
            with pytest.raises(InputDomainError, match="takes beta "):
                svir_sensitivity(SvirParams(beta=beta), method=SensMethod.central_fd(step))

    # (rates, initial state, grid times, substeps): zero rates, a zero
    # compartment, a negative compartment, an R at the top of the double
    # range that overflows while S, V and I stay finite, the nominal model
    # on a grid of uneven intervals (each stepped with its own h) at one
    # and seven substeps, and a blow-up; failures are compared
    DAYS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    UNEVEN = (0.0, 0.5, 2.0, 2.25, 7.0)
    EDGE_CASES = (
        ((0.0, 0.0, 0.0, 0.0), (99990.0, 0.0, 10.0, 0.0, 1e5), DAYS, 20),
        ((0.8, 0.004, 0.1, 0.14), (0.0, 5e4, 10.0, 0.0, 1e5), DAYS, 20),
        ((0.8, 0.004, 0.1, 0.14), (99990.0, -100.0, 10.0, -3.0, 1e5), DAYS, 20),
        ((0.8, 0.004, 0.1, 1.0), (0.0, 0.0, 1e294, 1.7976931348623157e308, 1e5),
         DAYS, 20),
        ((0.8, 0.004, 0.1, 0.14), (99990.0, 0.0, 10.0, 0.0, 1e5), UNEVEN, 1),
        ((0.8, 0.004, 0.1, 0.14), (99990.0, 0.0, 10.0, 0.0, 1e5), UNEVEN, 7),
        ((1e300, 0.004, 0.1, 0.14), (99990.0, 0.0, 10.0, 0.0, 1e5), DAYS, 20),
    )
    EDGE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[2])
import numpy as np
from cssident import (IntegrationFailureError, SensMethod, SvirParams, SvirState,
                      TimeGrid, svir_sensitivity)
from svir_reference import batched_sensitivity

def outcome(route, rates, state, times, substeps):
    try:
        sens = route(SvirParams(*rates), SvirState(*state), TimeGrid(np.array(times)),
                     SensMethod.complex_step(), substeps)
    except IntegrationFailureError as exc:
        return [exc.time, str(exc)]
    return [x.hex() for x in sens.ravel().tolist()]

print(json.dumps([[outcome(svir_sensitivity, *case),
                   outcome(batched_sensitivity, *case)]
                  for case in json.loads(sys.argv[1])]))
"""

    def test_complex_step_matches_numpy_without_avx_on_edge_inputs(
            self, numpy_without_avx_env):
        # numpy's complex loops without AVX2/AVX-512 round each product
        # unfused, as the scalar kernel does; both run in one child process
        proc = subprocess.run(
            [sys.executable, "-c", self.EDGE_CHILD, json.dumps(self.EDGE_CASES),
             str(TESTS)],
            env=numpy_without_avx_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert [kern == ref for kern, ref in results] == [True] * len(self.EDGE_CASES)
        assert results[-1][0][1].startswith("non-finite state at t=")

    def test_central_fd_matches_the_batched_state_on_edge_inputs(self):
        # numpy's real loops do not fuse, whatever its SIMD dispatch, so the
        # batched real state runs in this process
        def outcome(route, rates, state, times, substeps):
            try:
                sens = route(SvirParams(*rates), SvirState(*state),
                             TimeGrid(np.array(times)), SensMethod.central_fd(),
                             substeps)
            except IntegrationFailureError as exc:
                return exc.time, str(exc)
            return sens.tobytes()

        results = [(outcome(svir_sensitivity, *case),
                    outcome(batched_sensitivity, *case)) for case in self.EDGE_CASES]
        assert [kern == ref for kern, ref in results] == [True] * len(self.EDGE_CASES)
        assert results[-1][0][1].startswith("non-finite state at t=")

    def test_gap_policy_selects_three(self):
        sens = svir_sensitivity(NOMINAL_SVIR)
        assert sens.shape == (31, 4)
        assert select_k(svd(sens).sigma, RankPolicy.gap()).k == 3

    def test_grid_needs_enough_observations(self):
        with pytest.raises(InputDomainError):
            svir_sensitivity(NOMINAL_SVIR, grid=TimeGrid.days(3))


class TestNominalNeighborhood:
    def test_zero_fraction_returns_nominal(self):
        q = sample_nominal_neighborhood(NOMINAL_SVIR, 0.0, seed=1)
        assert q == NOMINAL_SVIR

    def test_half_fraction_interval(self):
        for seed in range(200):
            q = sample_nominal_neighborhood(NOMINAL_SVIR, 0.5, seed=seed)
            assert 0.40 <= q.beta <= 1.20
            assert 0.002 <= q.nu <= 0.006

    def test_mean_matches_nominal(self):
        betas = [sample_nominal_neighborhood(NOMINAL_SVIR, 0.5, seed=s).beta
                 for s in range(10_000)]
        assert abs(np.mean(betas) - 0.80) <= 0.01 * 0.80

    def test_fraction_domain(self):
        with pytest.raises(InputDomainError):
            sample_nominal_neighborhood(NOMINAL_SVIR, 1.0, seed=0)


def _seeded_factors(seed, n, p, lo=1e-3, hi=1e2):
    rng = np.random.default_rng(seed)
    from cssident.generators import _haar

    u = _haar(rng, n, p)
    v = _haar(rng, p, p)
    sigma = np.sort(10.0 ** rng.uniform(np.log10(lo), np.log10(hi), p))[::-1]
    return SvdFactors(u=u, sigma=sigma, v=v)


class TestPrescribedSystem:
    def test_unit_sigma_zero_rates(self):
        fac = _seeded_factors(0, 5, 3)
        fac = SvdFactors(u=fac.u, sigma=np.ones(3), v=fac.v)
        system = build_prescribed_system(fac, horizon=1.0)
        assert_allclose(system.lam, np.zeros(3))
        q = np.array([1.0, -2.0, 0.5])
        assert_allclose(observe_prescribed(system, q, 1.0),
                        fac.u @ (fac.v.T @ q))

    def test_exact_log_rates(self):
        fac = _seeded_factors(1, 4, 2)
        fac = SvdFactors(u=fac.u, sigma=np.array([np.e ** 2, np.e]), v=fac.v)
        system = build_prescribed_system(fac, horizon=1.0)
        assert_allclose(system.lam, [2.0, 1.0], rtol=1e-14)

    def test_rejects_zero_singular_value(self):
        fac = _seeded_factors(2, 4, 2)
        fac = SvdFactors(u=fac.u, sigma=np.array([1.0, 0.0]), v=fac.v)
        with pytest.raises(InputDomainError):
            build_prescribed_system(fac, horizon=1.0)

    @pytest.mark.parametrize("bad", (np.inf, np.nan))
    def test_rejects_non_finite_singular_value(self, bad):
        fac = _seeded_factors(2, 4, 2)
        fac = SvdFactors(u=fac.u, sigma=np.array([bad, 1.0]), v=fac.v)
        with pytest.raises(InputDomainError):
            build_prescribed_system(fac, horizon=1.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InputDomainError):
            build_prescribed_system(_seeded_factors(3, 4, 2), horizon=0.0)

    @pytest.mark.parametrize("horizon", (np.inf, np.nan))
    def test_rejects_infinite_or_nan_horizon(self, horizon):
        with pytest.raises(InputDomainError):
            build_prescribed_system(_seeded_factors(3, 4, 2), horizon=horizon)

    def test_observation_at_origin_and_linearity(self):
        system = build_prescribed_system(_seeded_factors(4, 8, 5), horizon=1.0)
        q1 = np.arange(5.0)
        q2 = np.linspace(-1, 1, 5)
        assert_allclose(observe_prescribed(system, np.zeros(5), 0.7), np.zeros(8))
        left = observe_prescribed(system, q1 + q2, 0.7)
        right = (observe_prescribed(system, q1, 0.7)
                 + observe_prescribed(system, q2, 0.7))
        assert np.linalg.norm(left - right) <= 1e-13 * np.linalg.norm(right)

    def test_verification_identity_case(self):
        fac = SvdFactors(u=np.eye(3), sigma=np.ones(3), v=np.eye(3))
        system = build_prescribed_system(fac, horizon=1.0)
        report = verify_prescribed_sensitivity(system, np.array([1.0, 2.0, 3.0]),
                                               tol=1e-12)
        assert report.passed and report.rel_error <= 1e-12

    @pytest.mark.parametrize("tol", (np.nan, -1.0))
    def test_verification_rejects_tol(self, tol):
        fac = SvdFactors(u=np.eye(3), sigma=np.ones(3), v=np.eye(3))
        system = build_prescribed_system(fac, horizon=1.0)
        with pytest.raises(InputDomainError):
            verify_prescribed_sensitivity(system, np.ones(3), tol=tol)

    def test_verification_seeded(self):
        system = build_prescribed_system(_seeded_factors(5, 8, 5), horizon=1.0)
        q = np.random.default_rng(6).standard_normal(5)
        report = verify_prescribed_sensitivity(system, q, tol=1e-10)
        assert report.passed

    def test_integration_cross_check(self):
        system = build_prescribed_system(
            _seeded_factors(7, 6, 4, lo=1e-2, hi=10.0), horizon=0.8
        )
        q = np.array([0.3, -1.1, 0.7, 2.0])
        closed = observe_prescribed(system, q, 0.8)
        numeric = observe_prescribed_integrated(system, q, 0.8)
        assert np.linalg.norm(closed - numeric) <= 1e-8 * np.linalg.norm(closed)

    def test_integrated_observation_time_domain(self):
        # sigma (2, 0.5) at T = 1; the closed form at t = -1 is (0.5, 2)
        fac = SvdFactors(u=np.eye(2), sigma=np.array([2.0, 0.5]), v=np.eye(2))
        system = build_prescribed_system(fac, horizon=1.0)
        q = np.ones(2)
        assert_allclose(observe_prescribed(system, q, -1.0), [0.5, 2.0])
        for t in (-1.0, np.nan):
            with pytest.raises(InputDomainError):
                observe_prescribed_integrated(system, q, t)
        np.testing.assert_array_equal(
            observe_prescribed_integrated(system, q, 0.0), q)

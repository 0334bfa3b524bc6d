"""Integrators, variational dynamics, growth bounds, and Lyapunov
exponent estimation."""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from contractkit import flows, pde, weights
from contractkit.errors import ContractViolation, DimensionError, DivergenceError, StiffnessError
from contractkit.flows import (
    ODE_RTOL,
    VectorField,
    fd_jacobian,
    fit_decay_rate,
    integrate,
    integrate_variational,
    integrator_entry,
    linear_field,
    matvec,
    mle_estimate,
    rk4_record_times,
    rk4_steps,
    verify_growth_bound,
)
from contractkit.measures import weighted_rate
from contractkit.sip import L2, NormSpec

SHEAR = np.array([[-1.0, 10.0], [0.0, -1.0]])


def _same_bits(a, b):
    """a and b are arrays of one dtype and shape holding the same bytes
    (unlike ==, tells -0.0 from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestIntegrate:
    def test_scalar_exponential(self):
        traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=1e-3)
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) - 1.0 * np.eye(4)
        u0 = rng.standard_normal(4)
        traj = integrate(linear_field(A), u0, (0.0, 1.0), dt=1e-3)
        expect = sla.expm(A) @ u0
        assert np.linalg.norm(traj.final_state - expect) <= 1e-6 * np.linalg.norm(expect)

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (1e-2, 5e-3):
            traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=dt)
            errs.append(abs(traj.final_state[0] - np.exp(-1.0)))
        assert errs[0] / errs[1] >= 8.0

    def test_adaptive_matches_fixed(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3)) - 2 * np.eye(3)
        u0 = rng.standard_normal(3)
        fixed = integrate(linear_field(A), u0, (0.0, 2.0), dt=1e-4)
        adaptive = integrate(linear_field(A), u0, (0.0, 2.0), rtol=1e-10)
        assert np.linalg.norm(fixed.final_state - adaptive.final_state) <= 1e-6
        assert adaptive.stats["steps"] > 0

    def test_divergence_error_keeps_last_state(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(lambda t, u: u**2, [2.0], (0.0, 5.0), dt=1e-2)
        assert err.value.last_state is not None
        assert np.all(np.isfinite(err.value.last_state))

    def test_step_budget_stiffness_error(self, monkeypatch):
        monkeypatch.setattr(flows, "MAX_RECORD_STEPS", 200)
        with pytest.raises(StiffnessError):
            integrate(lambda t, u: -1e6 * u, [1.0], (0.0, 10.0), rtol=1e-12)

    def test_times_strictly_increasing_and_span(self):
        traj = integrate(lambda t, u: -u, [1.0], (0.0, 0.7), dt=1e-2, record_every=3)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.7)

    def test_argument_validation(self):
        with pytest.raises(ContractViolation):
            integrate(lambda t, u: -u, [1.0], (0.0, 1.0))
        with pytest.raises(ContractViolation):
            integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=1e-3, rtol=1e-6)
        with pytest.raises(ContractViolation):
            integrate(lambda t, u: -u, [1.0], (1.0, 0.5), dt=1e-3)

    @pytest.mark.parametrize("every", [0, -3, 2.5, np.int64(0)])
    def test_record_every_must_be_a_positive_integer(self, every):
        f = lambda t, u: -u
        with pytest.raises(ContractViolation, match="record_every"):
            integrate(f, [1.0], (0.0, 1.0), dt=0.1, record_every=every)
        with pytest.raises(ContractViolation, match="record_every"):
            integrate(f, [1.0], (0.0, 1.0), rtol=1e-6, record_every=every)
        with pytest.raises(ContractViolation, match="record_every"):
            rk4_record_times(0.0, 1.0, 0.1, every)

    @pytest.mark.parametrize("every", [1, 3, np.int32(3), np.int64(4)])
    def test_record_every_takes_integers_numpy_ones_too(self, every):
        traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=0.1, record_every=every)
        assert np.array_equal(traj.times, rk4_record_times(0.0, 1.0, 0.1, every))
        assert len(traj.times) == 1 + 10 // every + (10 % every != 0)
        # the adaptive branch records at t_eval: record_every must be 1
        if every == 1:
            traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, record_every=every)
            assert np.array_equal(traj.times, [0.0, 1.0])
        else:
            with pytest.raises(ContractViolation, match="record_every"):
                integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, record_every=every)


# Each failure contract runs on a field without a Jacobian, which LSODA
# differences itself should it switch to BDF, and on one with it, handed to
# LSODA as Dfun.  The case ids keep the names of the two scipy solvers that
# first held these contracts, so that the test ids stay stable.
JAC_CASES = pytest.mark.parametrize("with_jac", [False, True], ids=["DOP853", "Radau"])


def _field(f, jac, with_jac):
    return VectorField(f=f, jac=jac if with_jac else None, dim=1)


class TestSolverPath:
    """The rtol branch: one LSODA call under the integrate contracts."""

    STIFF = np.array([[-1e5, 1.0], [0.0, -1.0]])

    def test_stiff_linear_matches_expm(self):
        u0 = np.array([1.0, 1.0])
        traj = integrate(linear_field(self.STIFF), u0, (0.0, 5.0), rtol=1e-10)
        expect = sla.expm(5.0 * self.STIFF) @ u0
        assert np.linalg.norm(traj.final_state - expect) <= 1e-7 * np.linalg.norm(expect)
        # explicit RK4 is stable only for dt <= 2.785 / 1e5
        rk4_limit_steps = 5.0 / 2.785e-5
        assert traj.stats["steps"] < rk4_limit_steps / 100
        assert traj.stats["njev"] >= 1 and traj.stats["bdf_records"] == 1

    def test_nonstiff_linear_matches_expm(self):
        A = np.array([[-0.3, 2.0], [-2.0, -0.3]])
        u0 = np.array([1.0, -0.5])
        t_eval = rk4_record_times(0.0, 6.0, 5e-3, 10)
        traj = integrate(linear_field(A), u0, (0.0, 6.0), rtol=1e-10, t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        expect = np.array([sla.expm(t * A) @ u0 for t in t_eval])
        assert np.max(np.abs(traj.states - expect)) <= 1e-9
        # a tenth of the evaluations fixed-step RK4 makes on the same recording grid
        assert traj.stats["nfev"] < 4 * rk4_steps(0.0, 6.0, 5e-3)[0] / 10
        assert traj.stats["njev"] == 0 and traj.stats["bdf_records"] == 0

    def test_nonstiff_run_never_calls_the_jacobian(self):
        def jac(t, u):
            raise AssertionError("a non-stiff run asked for the Jacobian")

        fld = VectorField(f=lambda t, u: -u, jac=jac, dim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(fld, [1.0], (0.0, 1.0), rtol=1e-8)
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), rel=1e-7)
        assert traj.stats["njev"] == 0 and traj.stats["bdf_records"] == 0

    @pytest.mark.parametrize("with_jac", [False, True])
    def test_stiff_run_switches_to_bdf(self, with_jac):
        A = self.STIFF
        calls = {"f": 0, "jac": 0}

        def f(t, u):
            calls["f"] += 1
            return A @ u

        def jac(t, u):
            calls["jac"] += 1
            return A

        fld = VectorField(f=f, jac=jac if with_jac else None, dim=2)
        t_eval = np.linspace(0.5, 5.0, 10)
        traj = integrate(fld, [1.0, 1.0], (0.0, 5.0), rtol=1e-10, t_eval=t_eval)
        assert traj.stats["bdf_records"] == 10 and traj.stats["njev"] >= 1
        # with no Jacobian LSODA differences f: njev counts those, nfev their calls
        assert calls["jac"] == (traj.stats["njev"] if with_jac else 0)
        assert calls["f"] == traj.stats["nfev"]
        np.testing.assert_allclose(traj.states, [sla.expm(t * A) @ [1.0, 1.0] for t in t_eval],
                                   rtol=1e-6, atol=1e-8)

    def test_nonstiff_step_budget_stiffness_error(self, monkeypatch):
        monkeypatch.setattr(flows, "MAX_RECORD_STEPS", 5)
        with pytest.raises(StiffnessError, match="Excess work"):
            integrate(lambda t, u: -u, [1.0], (0.0, 10.0), rtol=1e-12)

    def test_step_budget_bounds_the_steps_between_records(self, monkeypatch):
        # about 270 steps in all, fewer than 100 between any two records
        monkeypatch.setattr(flows, "MAX_RECORD_STEPS", 100)
        t_eval = np.linspace(1.0, 10.0, 10)
        traj = integrate(lambda t, u: -u, [1.0], (0.0, 10.0), rtol=1e-12, t_eval=t_eval)
        assert traj.stats["steps"] > 100
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-t_eval), rtol=0, atol=1e-11)

    def test_t_eval_times_exact(self):
        t_eval = np.array([0.0, 0.1, 0.25, 1.0 / 3.0, 0.9, 1.0])
        for fld in (lambda t, u: -u, linear_field(-np.eye(1))):
            traj = integrate(fld, [1.0], (0.0, 1.0), rtol=1e-10, t_eval=t_eval)
            assert np.array_equal(traj.times, t_eval)
            np.testing.assert_allclose(traj.states[:, 0], np.exp(-t_eval), rtol=1e-8)
        inner = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-10, t_eval=[0.5])
        assert np.array_equal(inner.times, [0.5])

    def test_t_eval_validation(self):
        with pytest.raises(ContractViolation):
            integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=1e-2, t_eval=[0.5])
        for bad in ([0.5, 0.5], [0.0, 2.0], [-0.1, 0.5], [], [0.0]):
            with pytest.raises(ContractViolation):
                integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, t_eval=bad)
        for every in (2, 5):
            with pytest.raises(ContractViolation, match="record_every"):
                integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, record_every=every)

    def test_record_every(self):
        # without t_eval the adaptive branch records the initial and the last state
        fld = linear_field(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        traj = integrate(fld, [1.0, 0.0], (0.0, 3.0), rtol=1e-10)
        assert np.array_equal(traj.times, [0.0, 3.0]) and traj.stats["steps"] > 1
        np.testing.assert_allclose(traj.final_state, [np.cos(3.0), -np.sin(3.0)], atol=1e-9)
        with pytest.raises(ContractViolation, match="record_every"):
            integrate(fld, [1.0, 0.0], (0.0, 3.0), rtol=1e-10, record_every=5)

    def test_step_budget_stiffness_error(self, monkeypatch):
        monkeypatch.setattr(flows, "MAX_RECORD_STEPS", 5)
        with pytest.raises(StiffnessError, match="Excess work"):
            integrate(lambda t, u: -1e6 * u, [1.0], (0.0, 10.0), rtol=1e-12)

    @JAC_CASES
    def test_step_underflow_stiffness_error(self, with_jac):
        # f jumps by 1e20 at t = 0.5: no step above the spacing of t passes
        # the error test there, and LSODA, whose t + h then equals t, creeps
        # until the step budget runs out, a fraction of a second at its size
        fld = _field(lambda t, u: -u if t <= 0.5 else np.full_like(u, 1e20),
                     lambda t, u: np.array([[-1.0 if t <= 0.5 else 0.0]]), with_jac)
        start = time.perf_counter()
        with pytest.raises(StiffnessError, match="Excess work.*"):
            integrate(fld, [2.0], (0.0, 1.0), rtol=1e-6)
        assert time.perf_counter() - start < 10.0

    @JAC_CASES
    def test_divergence_error_keeps_last_state(self, with_jac):
        fld = _field(lambda t, u: 1000.0 * u, lambda t, u: np.array([[1000.0]]), with_jac)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(fld, [1.0], (0.0, 1.0), rtol=1e-6)
        state = err.value.last_state
        assert state is not None and np.all(np.isfinite(state))
        assert state[0] > 1e300
        assert 0.6 < err.value.t < 0.8

    def test_foreign_value_error_escapes(self):
        # a ValueError raised inside f, with no overflow, is not divergence
        def f(t, u):
            if t > 0.5:
                raise ValueError("broken right-hand side")
            return -u

        with pytest.raises(ValueError, match="broken right-hand side"):
            integrate(f, [1.0], (0.0, 1.0), rtol=1e-6)

    @JAC_CASES
    def test_overflow_in_trial_stages_only_is_divergence(self, with_jac):
        # f is -u up to t = 0.5 and overflows past it: the accepted states
        # and their f stay below 1, but the trial step across t = 0.5
        # overflows, and LSODA reports the non-finite arithmetic that follows
        # as illegal input
        calls = []

        def f(t, u):
            calls.append((t, np.all(np.isfinite(u))))
            return -u if t <= 0.5 else np.full_like(u, np.inf)

        fld = _field(f, lambda t, u: -np.eye(1), with_jac)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(fld, [1.0], (0.0, 1.0), rtol=1e-8)
        state, t = err.value.last_state, err.value.t
        assert 0.49 < t <= 0.5
        assert np.all(np.isfinite(state))
        assert state[0] == pytest.approx(np.exp(-t), rel=1e-5)
        assert any(t_ > 0.5 and finite for t_, finite in calls)

    def test_state_gone_non_finite_is_divergence(self):
        # LSODA steps on through nan and reports success: the records say otherwise
        def f(t, u):
            return -u if t <= 0.5 else np.full_like(u, np.nan)

        t_eval = np.linspace(0.1, 1.0, 10)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(f, [1.0], (0.0, 1.0), rtol=1e-6, t_eval=t_eval)
        assert err.value.t in t_eval and err.value.t <= 0.5
        assert err.value.last_state[0] == pytest.approx(np.exp(-err.value.t), rel=1e-5)

    def test_rows_after_a_failure_never_leak(self):
        # odeint leaves the rows after a failure unwritten: a run that fails
        # right after a successful one on the same grid must report the state
        # it reached, not a row of the earlier run
        t_eval = np.linspace(0.05, 1.0, 20)
        integrate(lambda t, u: -3.0 * u, [7.0], (0.0, 1.0), rtol=1e-10, t_eval=t_eval)

        def f(t, u):
            return -u if t <= 0.5 else np.full_like(u, np.inf)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(f, [1.0], (0.0, 1.0), rtol=1e-10, t_eval=t_eval)
        assert 0.45 < err.value.t <= 0.5
        assert err.value.last_state[0] == pytest.approx(np.exp(-err.value.t), rel=1e-8)

    def test_nested_adaptive_run_refused(self):
        # LSODA keeps its state in global memory: an rtol run inside the
        # right-hand side of another would corrupt it
        def f(t, u):
            integrate(lambda s, v: -v, [1.0], (0.0, 0.1), rtol=1e-8)
            return -u

        with pytest.raises(ContractViolation, match="inside the right-hand side"):
            integrate(f, [1.0], (0.0, 1.0), rtol=1e-8)
        # the refusal leaves nothing behind
        traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-10)
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), rel=1e-9)

    def test_stats_keys(self):
        for fld, u0 in ((lambda t, u: -u, [1.0]), (linear_field(self.STIFF), [1.0, 1.0])):
            traj = integrate(fld, u0, (0.0, 1.0), rtol=1e-6)
            assert set(traj.stats) == {"method", "rtol", "steps", "nfev", "njev",
                                       "bdf_records"}
            assert traj.stats["method"] == "LSODA" and traj.stats["rtol"] == 1e-6
            assert traj.stats["nfev"] >= traj.stats["steps"] > 0
        # a fixed step makes four evaluations of f, a linear field's too
        for fld in (lambda t, u: -u, linear_field(-np.eye(1))):
            fixed = integrate(fld, [1.0], (0.0, 1.0), dt=0.1)
            assert fixed.stats == {"accepted": 10, "rejected": 0, "nfev": 40}

    def test_integrator_entry_reports_the_run_it_is_given(self):
        traj = integrate(linear_field(self.STIFF), [1.0, 1.0], (0.0, 1.0), rtol=1e-8)
        entry = integrator_entry([traj, traj])
        assert entry == {"method": "LSODA", "rtol": 1e-8,
                         **{k: 2 * traj.stats[k]
                            for k in ("steps", "nfev", "njev", "bdf_records")}}
        assert entry["njev"] >= 2 and entry["bdf_records"] == 2

    def test_evaluations_go_through_the_vector_field(self):
        calls = {"f": 0, "jac": 0}
        A = self.STIFF

        def f(t, u):
            calls["f"] += 1
            return A @ u

        def jac(t, u):
            calls["jac"] += 1
            return A

        traj = integrate(VectorField(f=f, jac=jac, dim=2), [1.0, 1.0], (0.0, 1.0),
                         rtol=1e-6)
        assert calls["f"] == traj.stats["nfev"]
        assert calls["jac"] == traj.stats["njev"] >= 1

    def test_import_leaves_scipy_integrate_unimported(self):
        import os
        import subprocess
        import sys

        import contractkit

        src = os.path.dirname(os.path.dirname(os.path.abspath(contractkit.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, contractkit, contractkit.cli; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestRK4Grid:
    def test_steps(self):
        assert rk4_steps(0.0, 1.0, 0.1) == (10, 0.1)
        # 2.1 / 0.7 rounds to 3.0000000000000004: a rounding error adds no step
        assert rk4_steps(0.0, 2.1, 0.7)[0] == 3
        assert rk4_steps(0.0, 1.0, 0.3) == (4, 0.25)

    def test_record_times_are_what_integrate_records(self):
        f = lambda t, u: -u
        for t0, t1, dt, every in [(0.0, 1.0, 0.1, 3), (0.5, 2.0, 0.07, 4),
                                  (0.0, 2.1, 0.7, 1), (0.0, 1.0, 0.5, 200),
                                  (0.0, 15.0, 0.52, 1)]:
            traj = integrate(f, [1.0], (t0, t1), dt=dt, record_every=every)
            assert np.array_equal(rk4_record_times(t0, t1, dt, every), traj.times)

    def test_constant_field_keeps_its_array(self):
        # the field returns the same array at every stage; the step must not
        # write into it
        c = np.array([0.5, -2.0, 3.0])
        keep = c.copy()
        u0 = np.array([1.0, 0.0, -1.0])
        traj = integrate(VectorField(f=lambda t, u: c, dim=3, grid=object()), u0,
                         (0.0, 2.0), dt=0.25)
        assert np.array_equal(c, keep)
        np.testing.assert_allclose(traj.final_state, u0 + 2.0 * c, rtol=0, atol=1e-14)
        np.testing.assert_allclose(traj.states, u0 + traj.times[:, None] * c,
                                   rtol=0, atol=1e-14)

    def test_last_time_is_exactly_t1(self):
        # 29 steps of fl(15 / 29) add up to 15 + 2^-49
        assert 29 * (15.0 / 29) > 15.0
        assert rk4_record_times(0.0, 15.0, 0.52, 1)[-1] == 15.0
        assert integrate(lambda t, u: -u, [1.0], (0.0, 15.0), dt=0.52).times[-1] == 15.0
        traj = integrate_variational(lambda t, u: -u, [1.0], [1.0], (0.0, 15.0), 0.52)
        assert traj.times[-1] == 15.0


def _linear_cases():
    """(field, A, stable dt) per linear field f(t, u) = A u: heat on 1-D
    periodic, Neumann and Dirichlet grids and a 2-D periodic grid, a dense
    and a sparse matrix."""
    rng = np.random.default_rng(3)
    cases = {}
    for boundary in ("periodic", "neumann", "dirichlet"):
        disc = pde.build_discretization(32, boundary=boundary)
        cases[boundary] = (pde.heat_field(disc, 0.7), 0.2 * disc.h**2 / 0.7)
    disc = pde.build_discretization(8, dims=2, boundary="periodic")
    cases["periodic_2d"] = (pde.heat_field(disc, 1.0), 0.1 * disc.h**2)
    B, C = rng.standard_normal((2, 6, 6))
    cases["dense"] = (linear_field(-B @ B.T / 6 - np.eye(6) + (C - C.T) / 2), 0.05)
    S = sp.random(40, 40, density=0.1, random_state=1, format="csr")
    cases["sparse"] = (linear_field(S - 3.0 * sp.identity(40, format="csr")), 0.05)
    return {name: (fld, _dense(fld.jacobian(0.0, np.zeros(fld.dim))), dt)
            for name, (fld, dt) in cases.items()}


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A)


LINEAR_CASES = _linear_cases()


def _one_step_matrix(A, dt):
    """RK4's one-step matrix for f(t, u) = A u, the degree-4 Taylor
    polynomial of exp(dt A): I + dt A (I + dt A/2 (I + dt A/3 (I + dt A/4)))."""
    P = eye = np.eye(A.shape[0])
    for k in (4, 3, 2, 1):
        P = eye + (dt / k) * (A @ P)
    return P


def _matrix_steps(P, u0, nsteps):
    """u0 and its nsteps products by P, one row each."""
    states = [u0]
    for _ in range(nsteps):
        states.append(P @ states[-1])
    return np.array(states)


def _csr_cases():
    """Sparse matrices with the layouts scipy's CSR kernel meets: int32 and
    int64 indices, unsorted column indices with duplicate entries, empty
    rows, and a rectangular matrix (the shape of two-level Burgers' K)."""
    rng = np.random.default_rng(19)
    cases = {"int32": sp.random(30, 30, density=0.2, format="csr", random_state=rng)}
    A = cases["int32"].copy()
    A.indptr, A.indices = A.indptr.astype(np.int64), A.indices.astype(np.int64)
    cases["int64"] = A
    # row 0 holds column 3 twice, out of order; rows 1 and 3 are empty
    indptr = np.array([0, 4, 4, 6, 6, 9], dtype=np.int32)
    indices = np.array([3, 1, 3, 0, 2, 1, 4, 0, 2], dtype=np.int32)
    cases["unsorted_duplicates"] = sp.csr_matrix((rng.standard_normal(9), indices, indptr),
                                                 shape=(5, 5))
    B = sp.random(40, 25, density=0.3, format="lil", random_state=rng)
    B[::3] = 0.0
    cases["empty_rows"] = B.tocsr()
    cases["rectangular"] = sp.random(512, 1024, density=0.005, format="csr",
                                     random_state=rng)
    return cases


CSR_CASES = _csr_cases()


class TestMatvec:
    """``matvec`` calls scipy's private CSR kernel with no dispatch in front:
    it must stay ``A @ u`` bit for bit, so a scipy change fails here."""

    @pytest.mark.parametrize("name", list(CSR_CASES))
    def test_is_the_sparse_product_bit_for_bit(self, name):
        A = CSR_CASES[name]
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2 * A.shape[1])
        # a contiguous state, a strided view and one holding signed zeros
        for u in (z[:A.shape[1]], z[::2], np.where(z[1::2] > 0, 0.0, -0.0)):
            assert _same_bits(matvec(A)(u), A @ u)

    def test_layouts_are_what_they_claim(self):
        assert CSR_CASES["int32"].indices.dtype == np.int32
        assert CSR_CASES["int64"].indices.dtype == np.int64
        assert not CSR_CASES["unsorted_duplicates"].has_canonical_format
        assert np.any(np.diff(CSR_CASES["empty_rows"].indptr) == 0)

    def test_each_call_returns_a_fresh_array(self):
        A = CSR_CASES["int32"]
        u = np.random.default_rng(8).standard_normal(30)
        Au = matvec(A)
        first = Au(u)
        first[:] = np.nan
        second = Au(u)
        assert _same_bits(second, A @ u) and not np.shares_memory(first, second)

    def test_refuses_a_state_of_the_wrong_shape(self):
        Au = matvec(CSR_CASES["rectangular"])
        for u in (np.ones(1023), np.ones(1025), np.ones((1024, 1))):
            with pytest.raises(DimensionError):
                Au(u)


class TestRK4OneStepMatrix:
    """Fixed-step RK4, which the vanishing-viscosity scheme runs, takes four
    evaluations of f per step; for a linear field that step is one product
    by its one-step matrix, the oracle here."""

    @pytest.mark.parametrize("name", list(LINEAR_CASES))
    @pytest.mark.parametrize("nsteps", [1, 640])
    def test_matrix_step_is_the_four_stage_step(self, name, nsteps):
        fld, A, dt = LINEAR_CASES[name]
        u0 = np.random.default_rng(nsteps).standard_normal(fld.dim)
        span = (0.0, nsteps * dt)
        assert rk4_steps(*span, dt) == (nsteps, pytest.approx(dt, rel=1e-15))
        got = integrate(fld, u0, span, dt=dt, record_every=64)
        want = _matrix_steps(_one_step_matrix(A, rk4_steps(*span, dt)[1]), u0, nsteps)
        want = want[np.unique(np.r_[0:nsteps + 1:64, nsteps])]
        assert np.array_equal(got.times, rk4_record_times(*span, dt, 64))
        assert np.max(np.abs(got.states - want)) <= 1e-13 * np.max(np.abs(want))
        assert got.stats["nfev"] == 4 * nsteps

    @pytest.mark.parametrize("linear", [True, False])
    def test_one_step_call_per_accepted_step(self, monkeypatch, linear):
        calls = []
        step = flows._rk4_step

        def counted(f, t, u, dt):
            calls.append(t)
            return step(f, t, u, dt)

        monkeypatch.setattr(flows, "_rk4_step", counted)
        if linear:
            fld, _, dt = LINEAR_CASES["neumann"]
            traj = integrate(fld, np.ones(fld.dim), (0.0, 37 * dt), dt=dt, record_every=5)
            assert len(calls) == 37
        else:
            traj = integrate(lambda t, u: -u**3, [1.0], (0.0, 1.0), dt=0.1)
            assert len(calls) == 10
        assert len(calls) == traj.stats["accepted"] and traj.stats["rejected"] == 0

    def test_heat_run_is_repeated_one_step_products(self):
        # n = 16 periodic heat at its explicit stability step, 500 steps
        disc = pde.build_discretization(16, boundary="periodic")
        fld = pde.heat_field(disc)
        span = (0.0, 500 * 0.2 * disc.h**2)
        nsteps, dt = rk4_steps(*span, 0.2 * disc.h**2)
        assert nsteps == 500
        u = np.random.default_rng(16).standard_normal(16)
        traj = integrate(fld, u, span, dt=0.2 * disc.h**2)
        want = _matrix_steps(_one_step_matrix(disc.laplacian.toarray(), dt), u, nsteps)
        assert np.max(np.abs(traj.states - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", list(LINEAR_CASES))
    def test_both_steps_diverge_together(self, name):
        # an unstable dt for a field scaled to spectral radius 1: the four
        # stages' f values then stay below the state they build, so the
        # stages overflow in the step in which the matrix products do
        _, A, _ = LINEAR_CASES[name]
        A = A / np.max(np.abs(np.linalg.eigvals(A)))
        P = _one_step_matrix(A, 1e3)
        u0 = np.random.default_rng(4).standard_normal(A.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(linear_field(A), u0, (0.0, 1e9), dt=1e3)
            u, k = u0, 0
            while np.isfinite(P @ u).all():
                u, k = P @ u, k + 1
        assert err.value.t == pytest.approx(1e3 * (k + 1), rel=1e-15)
        assert np.all(np.isfinite(err.value.last_state))
        assert np.max(np.abs(err.value.last_state - u)) <= 1e-13 * np.max(np.abs(u))


class TestVariational:
    def test_linear_perturbation_independent_of_base_point(self):
        A = SHEAR
        du0 = np.array([0.3, -0.2])
        outs = []
        for u0 in (np.zeros(2), np.array([5.0, -3.0])):
            traj = integrate_variational(linear_field(A), u0, du0, (0.0, 2.0), 1e-3)
            outs.append(traj.perturbations[-1])
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9)

    def test_cubic_contraction_nonincreasing(self):
        f = VectorField(f=lambda t, u: -u**3, jac=lambda t, u: np.diag(-3.0 * u**2),
                        dim=1)
        traj = integrate_variational(f, np.array([1.0]), np.array([1.0]), (0.0, 4.0),
                                     1e-3, record_every=50)
        norms = np.linalg.norm(traj.perturbations, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_fd_jacobian_matches_exact(self):
        rng = np.random.default_rng(2)
        f = lambda t, u: np.array([np.sin(u[0]) * u[1], u[0] ** 2 - np.cos(u[1])])
        exact = lambda t, u: np.array([[np.cos(u[0]) * u[1], np.sin(u[0])],
                                       [2.0 * u[0], np.sin(u[1])]])
        for _ in range(10):
            u = rng.standard_normal(2)
            J = fd_jacobian(f, 0.0, u)
            assert np.linalg.norm(J - exact(0.0, u)) <= 1e-5 * (1 + np.linalg.norm(exact(0.0, u)))


class TestGrowthBound:
    def test_diagonal_identity_weight(self):
        rep = verify_growth_bound(np.diag([-1.0, -2.0]), weights.identity(), L2,
                                  np.array([1.0, 1.0]), np.array([0.5, -0.5]),
                                  (0.0, 4.0), 1e-3, record_every=20)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-6
        assert not rep["advisory"]

    def test_shear_weighted_vs_unweighted(self):
        th = weights.diagonal([0.01, 1.0])
        u0 = np.array([0.0, 0.0])
        du0 = np.array([0.0, 1.0])
        rep = verify_growth_bound(SHEAR, th, L2, u0, du0, (0.0, 10.0), 1e-3,
                                  record_every=20)
        assert rep["lambda_sup"] == pytest.approx(-0.95)
        assert rep["kappa"] == pytest.approx(100.0)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-6
        # unweighted distance overshoots its initial value transiently
        assert np.max(rep["pair_distances"]) > 1.5 * rep["pair_distances"][0]
        # but stays below the kappa e^{lambda t} envelope
        assert rep["max_pair_ratio"] <= 1.0 + 1e-6
        # norm contraction kicks in before the transient bound
        assert rep["transient_bound"] == pytest.approx(2 * np.log(100.0) / 0.95)
        assert rep["contracted_after_tb"]

    def test_unbounded_weight_has_no_transient_bound(self):
        th = weights.custom(lambda t, u, n: np.diag([0.01, 1.0]),
                            inverse=lambda t, u, n: np.diag([100.0, 1.0]))
        rep = verify_growth_bound(SHEAR, th, L2, np.zeros(2), np.array([0.0, 1.0]),
                                  (0.0, 2.0), 1e-2)
        assert rep["lambda_sup"] < 0 and th.bound_b == np.inf
        assert rep["transient_bound"] == np.inf and not rep["contracted_after_tb"]

    def test_heat_pairwise_contraction(self):
        from contractkit.pde import build_discretization, heat_field
        from contractkit.geometry import Projector

        disc = build_discretization(16, boundary="neumann")
        fld = heat_field(disc, 1.0)
        proj = Projector.mean(16)
        qw = weights.projection_complement(proj.P)
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(16)
        du0 = proj.Q @ rng.standard_normal(16)
        rep = verify_growth_bound(fld, qw, L2, u0, du0, (0.0, 0.2),
                                  0.2 * disc.h**2, grid=disc.grid, record_every=10)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-6

    def test_one_norm_call_per_series(self, monkeypatch):
        # the weighted perturbations and the pair separations are each one
        # sip.norm call over the recorded rows
        from contractkit import flows

        calls = []
        norm = flows.sip_norm
        monkeypatch.setattr(flows, "sip_norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
        rep = verify_growth_bound(SHEAR, weights.diagonal([0.01, 1.0]), L2, np.zeros(2),
                                  np.array([0.0, 1.0]), (0.0, 2.0), 1e-3)
        assert len(calls) == 2
        assert len(rep["weighted_ratios"]) == len(rep["times"]) > 1000


class TestRateReuse:
    def _count_solves(self, monkeypatch):
        import contractkit.flows as flows

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return weighted_rate(*args, **kwargs)

        monkeypatch.setattr(flows, "weighted_rate", counting)
        return calls

    def _run(self, f, th, u0=(0.0, 0.0), **kwargs):
        return verify_growth_bound(f, th, L2, np.array(u0), np.array([0.2, 1.0]),
                                   (0.0, 4.0), 1e-2, **kwargs)

    def test_constant_rate_solved_once(self, monkeypatch):
        import contractkit.flows as flows

        th = weights.diagonal([0.01, 1.0])
        calls = self._count_solves(monkeypatch)
        rep = self._run(SHEAR, th)
        assert len(calls) == 1 and rep["rate_solves"] == 1
        # the same check, solving at every state
        monkeypatch.setattr(flows, "_bit_equal", lambda a, b: False)
        ref = self._run(SHEAR, th)
        assert ref["rate_solves"] == len(ref["times"]) == 401
        assert np.array_equal(rep["rates"], ref["rates"])
        assert rep["kappa"] == ref["kappa"] == pytest.approx(100.0)
        assert rep["max_weighted_ratio"] == ref["max_weighted_ratio"]
        assert rep["max_pair_ratio"] == ref["max_pair_ratio"]

    def test_nonlinear_field_solves_every_state(self, monkeypatch):
        f = VectorField(f=lambda t, u: -u - u**3, jac=lambda t, u: np.diag(-1.0 - 3.0 * u**2),
                        dim=2)
        calls = self._count_solves(monkeypatch)
        # at the equilibrium the Jacobian stays put: one solve is exact there
        assert self._run(f, weights.identity())["rate_solves"] == 1
        calls.clear()
        rep = self._run(f, weights.identity(), u0=(1.0, -0.5))
        assert len(calls) == rep["rate_solves"] == len(rep["times"]) == 401
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4

    def test_time_varying_weight_solves_every_state(self, monkeypatch):
        import contractkit.flows as flows

        th = weights.custom(
            lambda t, u, n: np.diag([1.5 + np.sin(t), 1.0]),
            inverse=lambda t, u, n: np.diag([1.0 / (1.5 + np.sin(t)), 1.0]),
            dmatrix_dt=lambda t, u, n: np.diag([np.cos(t), 0.0]), b=2.5, time_varying=True)
        calls = self._count_solves(monkeypatch)
        rep = self._run(np.diag([-1.0, -2.0]), th)
        assert len(calls) == rep["rate_solves"] == len(rep["times"]) == 401
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4
        # kappa follows the weight too
        monkeypatch.setattr(flows, "_bit_equal", lambda a, b: False)
        assert rep["kappa"] == self._run(np.diag([-1.0, -2.0]), th)["kappa"]
        assert rep["kappa"] > 2.4

    def test_state_dependent_weight_solves_where_it_changes(self, monkeypatch):
        import contractkit.flows as flows

        # Theta(u) = diag(1 + u_0^2, 1): a new array at every record, equal to
        # the last only while u_0 stays put
        th = weights.custom(lambda t, u, n: np.diag([1.0 + u[0] ** 2, 1.0]),
                            inverse=lambda t, u, n: np.diag([1.0 / (1.0 + u[0] ** 2), 1.0]),
                            b=2.0)
        A = np.diag([-1.0, -2.0])
        rep = self._run(A, th, u0=(0.5, 0.0))
        assert 1 < rep["rate_solves"] <= len(rep["times"]) == 401
        monkeypatch.setattr(flows, "_bit_equal", lambda a, b: False)
        ref = self._run(A, th, u0=(0.5, 0.0))
        assert rep["kappa"] == ref["kappa"] > 1.0
        assert np.array_equal(rep["rates"], ref["rates"])
        assert np.array_equal(rep["weighted_ratios"], ref["weighted_ratios"])

    def test_constant_weight_hands_out_one_array(self, monkeypatch):
        import contractkit.flows as flows

        # every record compares Theta and its inverse by identity alone
        compared = []
        monkeypatch.setattr(flows, "_bit_equal",
                            lambda a, b: compared.append(a is b) or a is b)
        rep = self._run(SHEAR, weights.diagonal([0.01, 1.0]))
        assert rep["rate_solves"] == 1 and all(compared) and len(compared) == 4 * 400

    def test_report_names_its_integrator(self):
        rep = self._run(SHEAR, weights.identity())
        entry = rep["integrator"]
        assert entry["method"] == "LSODA" and entry["rtol"] == ODE_RTOL
        assert entry["nfev"] > entry["steps"] > 0
        assert np.array_equal(rep["pair_times"], rk4_record_times(0.0, 4.0, 1e-2, 1))


class TestVariationalSolverPath:
    def test_off_grid_records_at_rk4_times_and_matches_rk4(self):
        f = VectorField(f=lambda t, u: np.array([u[1], -u[0] - 0.3 * u[1] - u[0] ** 3]),
                        jac=lambda t, u: np.array([[0.0, 1.0], [-1.0 - 3.0 * u[0] ** 2, -0.3]]),
                        dim=2)
        u0, du0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        traj = integrate_variational(f, u0, du0, (0.0, 2.0), 1e-2, record_every=10)
        assert traj.stats["method"] == "LSODA"
        assert np.array_equal(traj.times, rk4_record_times(0.0, 2.0, 1e-2, 10))

        def aug(t, z):
            return np.concatenate([f.eval(t, z[:2]), f.jacobian(t, z[:2]) @ z[2:]])

        ref = integrate(aug, np.concatenate([u0, du0]), (0.0, 2.0), dt=1e-4,
                        record_every=1000)
        np.testing.assert_allclose(traj.times, ref.times, rtol=0, atol=1e-12)
        assert np.max(np.abs(traj.states - ref.states[:, :2])) <= 1e-8
        assert np.max(np.abs(traj.perturbations - ref.states[:, 2:])) <= 1e-8

    def test_fast_decay_keeps_relative_accuracy(self):
        # ||du(8)|| ~ e^-24 ~ 4e-11 lies below the solver's absolute
        # tolerance; the growth and pair ratios are exactly 1
        du0 = np.array([0.3, 0.7])
        rep = verify_growth_bound(-3.0 * np.eye(2), weights.identity(), L2,
                                  np.array([1.0, -0.5]), du0, (0.0, 8.0), 1e-3)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4
        assert rep["max_pair_ratio"] <= 1.0 + 1e-4
        assert np.max(np.abs(rep["weighted_ratios"] - 1.0)) <= 1e-8
        assert rep["pair_distances"][-1] == pytest.approx(
            np.exp(-24.0) * np.linalg.norm(du0), rel=1e-8)
        traj = integrate_variational(-3.0 * np.eye(2), np.ones(2), du0, (0.0, 8.0), 1e-3)
        np.testing.assert_allclose(traj.perturbations[-1], np.exp(-24.0) * du0, rtol=1e-8)

    def test_nonlinear_pair_separation_matches_two_runs(self):
        # a nonzero equilibrium: the pair separation decays far below the
        # state and ends on the linearized flow
        f = VectorField(f=lambda t, u: 1.0 - u - u**3 / 3.0,
                        jac=lambda t, u: np.diag(-1.0 - u**2), dim=1)
        u0, du0 = np.array([0.0]), np.array([0.8])
        rep = verify_growth_bound(f, weights.identity(), L2, u0, du0, (0.0, 20.0), 1e-2)
        assert rep["integrator"]["steps"] < 500
        assert rep["max_pair_ratio"] <= 1.0 and rep["pair_distances"][-1] < 1e-12
        ref = [integrate(f, u, (0.0, 20.0), dt=1e-3, record_every=10).states[:, 0]
               for u in (u0, u0 + du0)]
        sep = np.abs(ref[1] - ref[0])
        big = sep > 1e-8
        np.testing.assert_allclose(rep["pair_distances"][big], sep[big], rtol=1e-6)

    def test_overflowing_pair_separation_is_divergence(self):
        # u = 0 stays put while the pair separation grows like e^t
        f = VectorField(f=lambda t, u: u, jac=lambda t, u: np.eye(2), dim=2)
        with warnings.catch_warnings(), pytest.raises(DivergenceError):
            warnings.simplefilter("ignore", RuntimeWarning)
            verify_growth_bound(f, weights.identity(), L2, np.zeros(2), np.array([1.0, 0.5]),
                                (0.0, 800.0), 1.0)

    def test_zero_perturbation_refused(self):
        with pytest.raises(ContractViolation):
            integrate_variational(linear_field(SHEAR), np.ones(2), np.zeros(2), (0.0, 1.0), 0.1)

    def test_grid_field_runs_lsoda(self):
        # a field on a grid takes the one simulation path: LSODA, recorded
        # where RK4 at its stability step would record
        from contractkit.pde import build_discretization, heat_field

        disc = build_discretization(16, boundary="neumann")
        fld = heat_field(disc, 1.0)
        dt = 0.2 * disc.h**2
        rng = np.random.default_rng(4)
        u0, du0 = rng.standard_normal(16), rng.standard_normal(16)
        traj = integrate_variational(fld, u0, du0, (0.0, 0.05), dt, record_every=5)
        assert traj.stats["method"] == "LSODA" and traj.stats["rtol"] == ODE_RTOL
        assert np.array_equal(traj.times, rk4_record_times(0.0, 0.05, dt, 5))
        L = fld.jacobian(0.0, u0).toarray()
        for t, u, du in zip(traj.times, traj.states, traj.perturbations):
            np.testing.assert_allclose(u, sla.expm(t * L) @ u0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(du, sla.expm(t * L) @ du0, rtol=0, atol=1e-10)


class TestMLE:
    def test_diagonal(self):
        est = mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, 30.0), 0.5)
        assert est.value == pytest.approx(-1.0, abs=0.05)
        assert est.converged

    def test_shear_slack_vs_measure(self):
        from contractkit.measures import mu

        # defective double eigenvalue: ||du|| ~ t e^{-t}, so the estimate
        # approaches -1 like log(t)/t and needs a long horizon
        est = mle_estimate(SHEAR, np.zeros(2), (0.0, 160.0), 0.5)
        assert est.value == pytest.approx(-1.0, abs=0.05)
        assert mu(SHEAR, L2).value == pytest.approx(4.0)
        assert est.value <= mu(SHEAR, L2).value + 0.05

    def test_report_names_its_integrator(self):
        est = mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, 5.0), 0.5)
        entry = est.integrator
        assert entry["method"] == "LSODA" and entry["rtol"] == ODE_RTOL
        # one solve over the whole span, recorded every 0.5
        assert entry["steps"] >= 10 and entry["nfev"] > entry["steps"]
        np.testing.assert_allclose(est.times, 0.5 * np.arange(1, 11), rtol=0, atol=1e-12)

    def test_perturbation_below_the_smallest_float(self):
        # exp(-900) underflows: the growth comes from the carried log magnitude
        est = mle_estimate(np.diag([-1000.0, -900.0]), np.zeros(2), (0.0, 4.0), 1.0)
        assert np.isfinite(est.value)
        assert est.value == pytest.approx(-900.0, rel=5e-3)

    def test_p_norm_variants(self):
        for p in (1.0, 2.0, np.inf):
            est = mle_estimate(np.diag([-0.5, -3.0]), np.zeros(2), (0.0, 30.0),
                               0.5, p=p)
            assert est.value == pytest.approx(-0.5, abs=0.05)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_history_matches_expm(self, p):
        # the running estimate is log(||e^{At} du0||_p / ||du0||_p) / t at
        # every record, du0 the seeded draw mle_estimate makes
        A = np.array([[-1.0, 10.0, 0.0], [0.0, -1.0, 2.0], [0.05, 0.0, -2.0]])  # stable
        est = mle_estimate(A, np.zeros(3), (0.0, 20.0), 0.5, p=p, seed=4)
        du0 = np.random.default_rng(4).standard_normal(3)
        exact = [np.log(np.linalg.norm(sla.expm(t * A) @ du0, p) / np.linalg.norm(du0, p)) / t
                 for t in est.times]
        assert len(est.times) == 40
        np.testing.assert_allclose(est.history, exact, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t_end, interval, n_records", [
        (40.0, 0.45, 88), (3.0, 0.1, 30), (40.0, 0.5, 80), (40.0, 40.0, 1)])
    def test_records_whole_intervals_within_the_run(self, t_end, interval, n_records):
        # 40 / 0.45 = 88.9: the run ends at 39.6, not past t_end at 40.05;
        # 3 / 0.1 rounds to 29.999999999999996 and still counts 30
        est = mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, t_end), interval)
        assert len(est.times) == n_records
        assert est.times[-1] == pytest.approx(n_records * interval, rel=1e-12)
        assert est.times[-1] <= t_end * (1.0 + 1e-12)

    def test_interval_longer_than_the_run_refused(self):
        with pytest.raises(ContractViolation, match="longer than the run"):
            mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, 40.0), 100.0)

    def test_grid_field_matches_expm(self):
        # the Dirichlet heat field: every mode decays, the slowest at minus
        # the discrete Poincare constant
        from contractkit.pde import build_discretization, dirichlet_poincare_constant, heat_field

        disc = build_discretization(8, boundary="dirichlet")
        est = mle_estimate(heat_field(disc, 1.0), np.zeros(8), (0.0, 2.0), 0.1, seed=3)
        du0 = np.random.default_rng(3).standard_normal(8)
        L = disc.laplacian.toarray()
        exact = [np.log(np.linalg.norm(sla.expm(t * L) @ du0) / np.linalg.norm(du0)) / t
                 for t in est.times]
        assert len(est.times) == 20 and est.integrator["method"] == "LSODA"
        np.testing.assert_allclose(est.history, exact, rtol=0, atol=1e-9)
        # log(|e^{tL} du0| / |du0|) / t tends to the slowest rate like 1 / t
        assert est.value == pytest.approx(-dirichlet_poincare_constant(8, disc.h), rel=0.1)


class TestFitDecay:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        v = 3.0 * np.exp(-3.0 * t)
        slope, info = fit_decay_rate(t, v)
        assert slope == pytest.approx(-3.0, rel=1e-6)
        assert info["points"] > 10


    def test_floor_drops_the_error_plateau(self):
        t = np.linspace(0.0, 20.0, 801)
        # decay at rate -2 that levels off at a 1e-11 integration-error plateau
        v = 3e-4 * np.exp(-2.0 * t) + 1e-11 * (1.5 + np.sin(37.0 * t))
        assert fit_decay_rate(t, v)[0] > -1.0
        slope, info = fit_decay_rate(t, v, floor=1e-8)
        assert slope == pytest.approx(-2.0, rel=1e-3)
        assert info["points"] > 5


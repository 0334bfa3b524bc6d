"""Integrators, variational dynamics, growth bounds, and Lyapunov
exponent estimation."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from contractkit import weights
from contractkit.errors import ContractViolation, DivergenceError, StiffnessError
from contractkit.flows import (
    ODE_RTOL,
    VectorField,
    fd_jacobian,
    fit_decay_rate,
    integrate,
    integrate_variational,
    integrator_entry,
    linear_field,
    mle_estimate,
    rk4_record_times,
    rk4_steps,
    verify_growth_bound,
)
from contractkit.measures import weighted_rate
from contractkit.sip import L2, NormSpec

SHEAR = np.array([[-1.0, 10.0], [0.0, -1.0]])


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

    def test_step_budget_stiffness_error(self):
        with pytest.raises(StiffnessError):
            integrate(lambda t, u: -1e6 * u, [1.0], (0.0, 10.0), rtol=1e-12,
                      max_steps=200)

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

    def test_diagnostics_recorded(self):
        fld = linear_field(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        fld.diagnostics["energy"] = lambda u: float(u @ u)
        traj = integrate(fld, [1.0, 0.0], (0.0, 3.0), dt=1e-3, record_every=100)
        e = traj.stats["diagnostics"]["energy"]
        assert np.max(np.abs(e - e[0])) <= 1e-10


class TestSolverPath:
    """The rtol branch: a scipy OdeSolver stepped under the integrate contracts."""

    STIFF = np.array([[-1e5, 1.0], [0.0, -1.0]])

    def test_radau_stiff_linear_matches_expm(self):
        u0 = np.array([1.0, 1.0])
        traj = integrate(linear_field(self.STIFF), u0, (0.0, 5.0), rtol=1e-8,
                         method="Radau")
        expect = sla.expm(5.0 * self.STIFF) @ u0
        assert np.linalg.norm(traj.final_state - expect) <= 1e-7 * np.linalg.norm(expect)
        # explicit RK4 is stable only for dt <= 2.785 / 1e5
        rk4_limit_steps = 5.0 / 2.785e-5
        assert traj.stats["steps"] < rk4_limit_steps / 100
        assert traj.stats["njev"] >= 1 and traj.stats["nlu"] >= 1

    def test_dop853_nonstiff_linear_matches_expm(self):
        A = np.array([[-0.3, 2.0], [-2.0, -0.3]])
        u0 = np.array([1.0, -0.5])
        t_eval = rk4_record_times(0.0, 6.0, 5e-3, 10)
        traj = integrate(linear_field(A), u0, (0.0, 6.0), rtol=1e-10, method="DOP853",
                         t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        expect = np.array([sla.expm(t * A) @ u0 for t in t_eval])
        assert np.max(np.abs(traj.states - expect)) <= 1e-9
        # far fewer steps than fixed-step RK4 takes on the same recording grid
        assert traj.stats["steps"] < rk4_steps(0.0, 6.0, 5e-3)[0] / 10
        assert traj.stats["njev"] == 0 and traj.stats["nlu"] == 0

    @pytest.mark.parametrize("method", ["DOP853"])
    def test_explicit_methods_get_no_jacobian(self, method):
        def jac(t, u):
            raise AssertionError("an explicit method asked for the Jacobian")

        fld = VectorField(f=lambda t, u: -u, jac=jac, dim=1)
        # scipy warns about a jac handed to a solver that has no use for it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(fld, [1.0], (0.0, 1.0), rtol=1e-8, method=method)
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), rel=1e-7)

    def test_dop853_step_budget_stiffness_error(self):
        with pytest.raises(StiffnessError, match="budget"):
            integrate(lambda t, u: -u, [1.0], (0.0, 10.0), rtol=1e-12,
                      method="DOP853", max_steps=5)

    def test_t_eval_times_exact(self):
        t_eval = np.array([0.0, 0.1, 0.25, 1.0 / 3.0, 0.9, 1.0])
        for method in ("DOP853", "Radau"):
            traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-10,
                             method=method, t_eval=t_eval)
            assert np.array_equal(traj.times, t_eval)
            np.testing.assert_allclose(traj.states[:, 0], np.exp(-t_eval), rtol=1e-8)
        inner = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-10, t_eval=[0.5])
        assert np.array_equal(inner.times, [0.5])

    def test_t_eval_validation(self):
        with pytest.raises(ContractViolation):
            integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=1e-2, t_eval=[0.5])
        for bad in ([0.5, 0.5], [0.0, 2.0], [-0.1, 0.5], []):
            with pytest.raises(ContractViolation):
                integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, t_eval=bad)
        for method in ("euler", "BDF", "RK45"):
            with pytest.raises(ContractViolation):
                integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, method=method)

    def test_record_every_and_diagnostics(self):
        fld = linear_field(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        fld.diagnostics["energy"] = lambda u: float(u @ u)
        traj = integrate(fld, [1.0, 0.0], (0.0, 3.0), rtol=1e-10, record_every=5)
        steps = traj.stats["steps"]
        assert len(traj.times) == 1 + steps // 5 + (steps % 5 != 0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 3.0
        e = traj.stats["diagnostics"]["energy"]
        assert len(e) == len(traj.times)
        assert np.max(np.abs(e - 1.0)) <= 1e-8

    def test_step_budget_stiffness_error(self):
        with pytest.raises(StiffnessError):
            integrate(lambda t, u: -1e6 * u, [1.0], (0.0, 10.0), rtol=1e-12,
                      method="Radau", max_steps=5)

    @pytest.mark.parametrize("method", ["DOP853", "Radau"])
    def test_step_underflow_stiffness_error(self, method):
        # finite-time blow-up at t = 0.5: the step shrinks below the spacing of t
        with pytest.raises(StiffnessError, match="underflow"):
            integrate(lambda t, u: u**2, [2.0], (0.0, 1.0), rtol=1e-6, method=method)

    @pytest.mark.parametrize("method", ["DOP853", "Radau"])
    def test_divergence_error_keeps_last_state(self, method):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                integrate(lambda t, u: 1000.0 * u, [1.0], (0.0, 1.0), rtol=1e-6,
                          method=method)
        state = err.value.last_state
        assert state is not None and np.all(np.isfinite(state))
        assert state[0] > 1e300
        assert 0.6 < err.value.t < 0.8

    def test_foreign_value_error_escapes(self):
        # a ValueError raised inside a step, with no overflow, is not divergence
        def f(t, u):
            if t > 0.5:
                raise ValueError("broken right-hand side")
            return -u

        with pytest.raises(ValueError, match="broken right-hand side"):
            integrate(f, [1.0], (0.0, 1.0), rtol=1e-6, method="Radau")

    def test_stats_keys(self):
        for method in ("DOP853", "Radau"):
            traj = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), rtol=1e-6, method=method)
            assert set(traj.stats) == {"method", "rtol", "steps", "nfev", "njev", "nlu"}
            assert traj.stats["method"] == method and traj.stats["rtol"] == 1e-6
            assert traj.stats["nfev"] >= traj.stats["steps"] > 0
        fixed = integrate(lambda t, u: -u, [1.0], (0.0, 1.0), dt=0.1)
        assert fixed.stats == {"accepted": 10, "rejected": 0}

    def test_integrator_entry_reports_the_run_it_is_given(self):
        traj = integrate(linear_field(self.STIFF), [1.0, 1.0], (0.0, 1.0), rtol=1e-8,
                         method="Radau")
        entry = integrator_entry([traj, traj])
        assert entry == {"method": "Radau", "rtol": 1e-8,
                         **{k: 2 * traj.stats[k] for k in ("steps", "nfev", "njev", "nlu")}}
        assert entry["njev"] >= 2 and entry["nlu"] >= 2

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
                         rtol=1e-6, method="Radau")
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

    def test_last_time_is_exactly_t1(self):
        # 29 steps of fl(15 / 29) add up to 15 + 2^-49
        assert 29 * (15.0 / 29) > 15.0
        assert rk4_record_times(0.0, 15.0, 0.52, 1)[-1] == 15.0
        assert integrate(lambda t, u: -u, [1.0], (0.0, 15.0), dt=0.52).times[-1] == 15.0
        traj = integrate_variational(lambda t, u: -u, [1.0], [1.0], (0.0, 15.0), 0.52)
        assert traj.times[-1] == 15.0


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
                                  0.2 * disc.h**2, rate_stride=10,
                                  grid=disc.grid, record_every=10)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-6


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
        assert self._run(f, weights.identity(), rate_stride=10)["rate_solves"] == 1
        calls.clear()
        rep = self._run(f, weights.identity(), u0=(1.0, -0.5), rate_stride=10)
        assert len(calls) == rep["rate_solves"] == len(rep["times"]) == 41
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4

    def test_time_varying_weight_solves_every_state(self, monkeypatch):
        import contractkit.flows as flows

        th = weights.custom(
            lambda t, u, n: np.diag([1.5 + np.sin(t), 1.0]),
            inverse=lambda t, u, n: np.diag([1.0 / (1.5 + np.sin(t)), 1.0]),
            dmatrix_dt=lambda t, u, n: np.diag([np.cos(t), 0.0]), b=2.5, time_varying=True)
        calls = self._count_solves(monkeypatch)
        rep = self._run(np.diag([-1.0, -2.0]), th, rate_stride=10)
        assert len(calls) == rep["rate_solves"] == len(rep["times"]) == 41
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4
        # kappa follows the weight too
        monkeypatch.setattr(flows, "_bit_equal", lambda a, b: False)
        assert rep["kappa"] == self._run(np.diag([-1.0, -2.0]), th, rate_stride=10)["kappa"]
        assert rep["kappa"] > 2.4

    def test_report_names_its_integrator(self):
        rep = self._run(SHEAR, weights.identity(), rate_stride=10)
        entry = rep["integrator"]
        assert entry["method"] == "DOP853" and entry["rtol"] == ODE_RTOL
        assert entry["nfev"] > entry["steps"] > 0
        assert np.array_equal(rep["pair_times"], rk4_record_times(0.0, 4.0, 1e-2, 1))


class TestVariationalSolverPath:
    def test_off_grid_records_at_rk4_times_and_matches_rk4(self):
        f = VectorField(f=lambda t, u: np.array([u[1], -u[0] - 0.3 * u[1] - u[0] ** 3]),
                        jac=lambda t, u: np.array([[0.0, 1.0], [-1.0 - 3.0 * u[0] ** 2, -0.3]]),
                        dim=2)
        u0, du0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        traj = integrate_variational(f, u0, du0, (0.0, 2.0), 1e-2, record_every=10)
        assert traj.stats["method"] == "DOP853"
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
        rep = verify_growth_bound(f, weights.identity(), L2, u0, du0, (0.0, 20.0), 1e-2,
                                  rate_stride=10)
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

    def test_grid_field_runs_rk4(self):
        from contractkit.pde import build_discretization, heat_field

        disc = build_discretization(16, boundary="neumann")
        fld = heat_field(disc, 1.0)
        dt = 0.2 * disc.h**2
        rng = np.random.default_rng(4)
        u0, du0 = rng.standard_normal(16), rng.standard_normal(16)
        traj = integrate_variational(fld, u0, du0, (0.0, 0.05), dt, record_every=5)
        assert "method" not in traj.stats
        assert traj.stats["accepted"] == rk4_steps(0.0, 0.05, dt)[0]
        assert np.array_equal(traj.times, rk4_record_times(0.0, 0.05, dt, 5))
        L = fld.jacobian(0.0, u0).toarray()
        np.testing.assert_allclose(traj.perturbations[-1], sla.expm(0.05 * L) @ du0,
                                   atol=1e-6)


class TestMLE:
    def test_diagonal(self):
        est = mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, 30.0), 0.5, 1e-2)
        assert est.value == pytest.approx(-1.0, abs=0.05)
        assert est.converged

    def test_shear_slack_vs_measure(self):
        from contractkit.measures import mu

        # defective double eigenvalue: ||du|| ~ t e^{-t}, so the estimate
        # approaches -1 like log(t)/t and needs a long horizon
        est = mle_estimate(SHEAR, np.zeros(2), (0.0, 160.0), 0.5, 1e-2)
        assert est.value == pytest.approx(-1.0, abs=0.05)
        assert mu(SHEAR, L2).value == pytest.approx(4.0)
        assert est.value <= mu(SHEAR, L2).value + 0.05

    def test_report_names_its_integrator(self):
        est = mle_estimate(np.diag([-1.0, -2.0]), np.zeros(2), (0.0, 5.0), 0.5, 1e-2)
        entry = est.integrator
        assert entry["method"] == "DOP853" and entry["rtol"] == ODE_RTOL
        # one solve per renormalization interval
        assert entry["steps"] >= 10 and entry["nfev"] > entry["steps"]

    def test_perturbation_below_the_smallest_float(self):
        # exp(-900) underflows: the growth comes from the carried log magnitude
        est = mle_estimate(np.diag([-1000.0, -900.0]), np.zeros(2), (0.0, 4.0), 1.0, 1.0)
        assert np.isfinite(est.value)
        assert est.value == pytest.approx(-900.0, rel=5e-3)

    def test_p_norm_variants(self):
        for p in (1.0, 2.0, np.inf):
            est = mle_estimate(np.diag([-0.5, -3.0]), np.zeros(2), (0.0, 30.0),
                               0.5, 1e-2, p=p)
            assert est.value == pytest.approx(-0.5, abs=0.05)


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


class TestTrajectoryExport:
    def test_csv_table_with_perturbation_norms(self, tmp_path):
        from contractkit.reporting import write_csv

        traj = integrate_variational(linear_field(np.diag([-1.0, -2.0])),
                                     np.array([1.0, 1.0]), np.array([0.1, 0.2]),
                                     (0.0, 1.0), 1e-2, record_every=10)
        header, cols = traj.table()
        assert header == ["time", "u0", "u1", "perturbation_norm"]
        path = tmp_path / "traj.csv"
        write_csv(str(path), header, cols)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,u0,u1,perturbation_norm"
        assert len(lines) == len(traj.times) + 1

"""Certifiers: subspaces, level-set manifolds, symmetries, limit cycles,
and phase-locking."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

from contractkit import geometry, sampling, systems
from contractkit.errors import ContractViolation
from contractkit.flows import (
    VectorField,
    fd_jacobian,
    integrate,
    linear_field,
    rk4_record_times,
)
from contractkit.geometry import (
    ODE_RTOL,
    Conjugacy,
    Projector,
    SimCheck,
    Submersion,
    certify_limit_cycle,
    certify_manifold_contraction,
    certify_phase_locking,
    certify_subspace_contraction,
    check_equivariance,
    check_subspace_invariance,
    check_temporal_symmetry,
    conjugate_field,
    extract_period,
    project_to_level_set,
    rotation_subspace_projector,
    simulate,
    sweep_loop,
)
from contractkit.measures import RateEstimate, nonlinear_rate, weighted_rate
from contractkit.pde import build_discretization, heat_field, neumann_second_eigenvalue
from contractkit.reporting import checks_in, verdict
from contractkit.sip import L2
from rk4_reference import rk4


def rotation_field():
    """Pure rotation f(u) = Omega u with Omega skew (unit angular speed);
    spheres are invariant but nothing contracts toward them."""
    Om = np.array([[0.0, -1.0], [1.0, 0.0]])
    return VectorField(f=lambda t, u: Om @ u, jac=lambda t, u: Om, dim=2,
                       name="rotation")


def hopf_with_equilibrium_on_loop():
    """Hopf-like field scaled by (1 - cos(theta)): the speed vanishes at
    the point (1, 0) of the unit circle, violating non-accumulation."""
    base = systems.hopf_field()

    def f(t, u):
        x, y = u
        r2 = x * x + y * y
        s = 1.0 - x / max(np.sqrt(r2), 1e-12)
        return s * base.eval(t, u)

    return VectorField(f=f, dim=2, name="hopf_pinned")


def band_sampler(lo=0.8, hi=1.2, n=24, seed=1, dim=2):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        u = rng.uniform(-hi, hi, dim)
        if lo <= np.linalg.norm(u) <= hi:
            out.append((0.0, u))
    return out


def onto_columns(B):
    """The projector B (B^T B)^{-1} B^T onto the columns of B."""
    return Projector(B @ np.linalg.solve(B.T @ B, B.T))


class TestProjector:
    def test_algebra(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 2))
        proj = onto_columns(B)
        n = 6
        assert np.linalg.norm(proj.P @ proj.P - proj.P) <= 1e-10
        assert np.linalg.norm(proj.Q @ proj.Q - proj.Q) <= 1e-10
        assert np.linalg.norm(proj.P @ proj.Q) <= 1e-10
        assert np.linalg.norm(proj.P + proj.Q - np.eye(n)) <= 1e-12

    def test_rejects_non_projection(self):
        with pytest.raises(ContractViolation):
            Projector(np.array([[1.0, 0.3], [0.0, 0.5]]))


class TestSubspaceInvariance:
    def test_heat_mean_projector(self):
        disc = build_discretization(16, boundary="neumann")
        fld = heat_field(disc, 1.0)
        rep = check_subspace_invariance(fld, Projector.mean(16),
                                        sampling.gaussian_samples(6, 16, seed=0))
        assert rep["passed"] and rep["max_residual"] <= 1e-12

    def test_identity_dynamics_any_projector(self):
        rng = np.random.default_rng(1)
        proj = onto_columns(rng.standard_normal((5, 2)))
        fld = VectorField(f=lambda t, u: u, jac=lambda t, u: np.eye(5), dim=5)
        rep = check_subspace_invariance(fld, proj, sampling.gaussian_samples(6, 5, seed=2))
        assert rep["passed"]

    def test_constant_forcing_breaks_invariance(self):
        proj = Projector.mean(4)
        c = np.array([1.0, -1.0, 0.5, 2.0])  # not constant, so not in im(P)
        fld = VectorField(f=lambda t, u: u + c, dim=4)
        rep = check_subspace_invariance(fld, proj, sampling.gaussian_samples(6, 4, seed=3))
        assert not rep["passed"]


class TestSubspaceContraction:
    def test_heat_certified_with_sim(self):
        disc = build_discretization(16, boundary="neumann")
        fld = heat_field(disc, 1.0)
        sim = SimCheck(t_end=0.5, dt=0.2 * disc.h**2, n_ic=3, seed=5,
                       record_every=5)
        rep = certify_subspace_contraction(fld, Projector.mean(16), spec=L2,
                                           sampler=sampling.gaussian_samples(6, 16, seed=4),
                                           sim=sim, grid=disc.grid)
        assert rep["certified"]
        assert rep["rate"].value == pytest.approx(neumann_second_eigenvalue(16, disc.h),
                                                  rel=1e-10)
        assert rep["sim"]["check"].passed
        # a field on a grid takes the one simulation path, LSODA
        entry = rep["sim"]["integrator"]
        assert entry["method"] == "LSODA" and entry["rtol"] == ODE_RTOL
        assert entry["nfev"] >= entry["steps"] > 0
        # each fit reads the decay above the solver's error floor
        assert all(0.0 < fit["floor"] < 1e-8 for fit in rep["sim"]["fits"])

    def test_heat_cross_check_trajectory_matches_expm(self, monkeypatch):
        # the sim trajectories record exactly where RK4 at the stability
        # step would, and match the matrix exponential to 1e-9
        runs = []

        def spy(*args):
            runs.append((args[1], simulate(*args)))
            return runs[-1][1]

        monkeypatch.setattr(geometry, "simulate", spy)
        disc = build_discretization(16, boundary="neumann")
        sim = SimCheck(t_end=0.5, dt=0.2 * disc.h**2, n_ic=3, seed=5, record_every=5)
        certify_subspace_contraction(heat_field(disc, 1.0), Projector.mean(16), spec=L2,
                                     sampler=sampling.gaussian_samples(6, 16, seed=4),
                                     sim=sim, grid=disc.grid)
        assert len(runs) == 3
        L = disc.laplacian.toarray()
        for u0, traj in runs:
            assert np.array_equal(traj.times, rk4_record_times(0.0, 0.5, sim.dt, 5))
            exact = np.array([sla.expm(t * L) @ u0 for t in traj.times])
            assert np.max(np.abs(traj.states - exact)) <= 1e-9

    def test_identity_dynamics_not_certified(self):
        fld = VectorField(f=lambda t, u: u, jac=lambda t, u: np.eye(6), dim=6)
        rep = certify_subspace_contraction(fld, Projector.mean(6), spec=L2,
                                           sampler=sampling.gaussian_samples(4, 6, seed=6))
        assert not rep["certified"]
        assert rep["rate"].value == pytest.approx(1.0, rel=1e-10)

    def test_both_checks_failed_status_withheld(self):
        # "rate_only" would claim a rate that was not shown
        fld = linear_field(np.array([[1.0, 0.5], [0.0, 1.0]]))
        rep = certify_subspace_contraction(
            fld, Projector.mean(2),
            sampler=[(0.0, np.array([1.0, -0.3])), (0.0, np.array([0.2, 0.7]))])
        inv, rate = rep["checks"]
        assert not inv.passed and inv.value == pytest.approx(0.088, abs=1e-3)
        assert not rate.passed and rate.value == pytest.approx(0.75)
        assert rep["certified"] is False and rep["status"] == "withheld"

    def test_rate_without_invariance_status_rate_only(self):
        c = np.array([1.0, -1.0, 0.5, 2.0])  # not constant, so not in im(P)
        fld = VectorField(f=lambda t, u: -u + c, jac=lambda t, u: -np.eye(4), dim=4)
        rep = certify_subspace_contraction(fld, Projector.mean(4),
                                           sampler=sampling.gaussian_samples(4, 4, seed=3))
        inv, rate = rep["checks"]
        assert not inv.passed and rate.passed
        assert rep["certified"] is False and rep["status"] == "rate_only"

    def test_degenerate_complement_raises(self):
        from contractkit.errors import DegenerateWeightError

        fld = linear_field(-np.eye(4))
        with pytest.raises(DegenerateWeightError):
            certify_subspace_contraction(fld, Projector(np.eye(4)), spec=L2,
                                         sampler=sampling.gaussian_samples(2, 4, seed=0))

    def test_heat_certified_without_sim(self):
        # the certificate is uniform in the mean-complement seminorm
        disc = build_discretization(8, boundary="neumann")
        rep = certify_subspace_contraction(
            heat_field(disc, 1.0), Projector.mean(8), spec=L2,
            sampler=sampling.gaussian_samples(4, 8, seed=7), grid=disc.grid)
        assert rep["certified"] and "sim" not in rep and "asymptotic" not in rep
        assert rep["rate"].value == pytest.approx(neumann_second_eigenvalue(8, disc.h),
                                                  rel=1e-10)


class TestManifold:
    def test_hopf_certified(self):
        f = systems.hopf_field()
        sub = systems.circle_submersion()
        sim = SimCheck(t_end=20.0, dt=5e-3, n_ic=3, seed=8, ic_scale=0.3,
                       record_every=10)
        rep = certify_manifold_contraction(f, sub, spec=L2,
                                           sampler=band_sampler(seed=9), sim=sim)
        assert rep["certified"]
        assert -3.33 <= rep["rate"].value <= -0.9
        assert rep["sim"]["check"].passed

    def test_affine_level_map_matches_subspace_rate(self):
        disc = build_discretization(12, boundary="neumann")
        fld = heat_field(disc, 1.0)
        proj = Projector.mean(12)
        sub = Submersion(phi=lambda u: proj.Q @ u, dphi=lambda u: proj.Q, codim=12)
        sampler = sampling.gaussian_samples(5, 12, seed=10)
        r_sub = certify_subspace_contraction(fld, proj, spec=L2, sampler=sampler,
                                             grid=disc.grid)["rate"].value
        r_man = nonlinear_rate(fld, sub.weight(), spec=L2, sampler=sampler,
                               grid=disc.grid).value
        assert abs(r_sub - r_man) <= 1e-10 * max(1.0, abs(r_sub))

    def test_rotation_field_not_certified(self):
        f = rotation_field()
        sub = systems.circle_submersion()
        rep = certify_manifold_contraction(f, sub, spec=L2,
                                           sampler=band_sampler(seed=11))
        checks = {c.name: c for c in rep["checks"]}
        assert checks["manifold_tangency"].passed
        assert not checks["manifold_rate"].passed
        assert abs(rep["rate"].value) <= 1e-8
        assert not rep["certified"]

    def test_no_sample_on_the_level_set_withheld(self):
        # |u|^2 + 1 has no zero: no sample projects, and the sim never runs
        sub = Submersion(phi=lambda u: u @ u + 1.0, dphi=lambda u: 2.0 * u[None, :])
        sim = SimCheck(t_end=1.0, dt=5e-3, n_ic=1)
        rep = certify_manifold_contraction(systems.hopf_field(), sub, spec=L2,
                                           sampler=band_sampler(seed=9), sim=sim)
        checks = {c.name: c for c in rep["checks"]}
        assert checks["samples_on_manifold"].value == 0.0
        assert not checks["samples_on_manifold"].passed
        assert "sim" not in rep
        assert rep["certified"] is False and rep["status"] == "withheld"

    def test_projection_onto_level_set(self):
        sub = systems.circle_submersion()
        w = project_to_level_set(sub, np.array([0.2, 0.1]))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)


class TestEquivariance:
    def test_periodic_heat_shifts(self):
        disc = build_discretization(16, boundary="periodic")
        fld = heat_field(disc, 1.0)
        eye = np.eye(16)
        shifts = [np.roll(eye, s, axis=0) for s in (1, 3, 7)]
        rep = check_equivariance(fld, shifts,
                                 sampling.gaussian_samples(6, 16, seed=12))
        assert rep["passed"] and rep["max_residual"] <= 1e-12

    def test_square_map_sign_flip_fails(self):
        fld = VectorField(f=lambda t, u: u**2, dim=3)
        rep = check_equivariance(fld, [-np.eye(3)],
                                 sampling.gaussian_samples(5, 3, seed=13))
        assert not rep["passed"]

    def test_pushforward_identity_by_construction(self):
        # the conjugate field satisfies g(t, h(u)) = Dh(u) f(t, u) exactly
        base = linear_field(np.array([[-1.0, 0.5], [0.0, -2.0]]))
        conj = Conjugacy(
            h=lambda u: u + 0.2 * u**3,
            h_inv=None,
            dh=lambda u: np.diag(1.0 + 0.6 * u**2),
        )
        rng = np.random.default_rng(14)
        for _ in range(10):
            u = rng.standard_normal(2)
            lhs = conj.jac(u) @ base.eval(0.0, u)
            g_at_hu = conj.jac(u) @ base.eval(0.0, u)  # definition of the pushforward
            assert np.allclose(lhs, g_at_hu)

    def test_nonlinear_involution_symmetry_passes(self):
        # h = sigma o (-id) o sigma^{-1} is a nonlinear involution; averaging
        # any field with its h-conjugate gives a differentially equivariant f
        def sigma(w):
            return w + 0.2 * w**3 + 0.1 * w**2

        def dsigma(w):
            return 1.0 + 0.6 * w**2 + 0.2 * w

        def sigma_inv(v):
            return np.array([brentq(lambda w: sigma(w) - target, -50.0, 50.0)
                             for target in np.atleast_1d(v)])

        def h(u):
            return sigma(-sigma_inv(u))

        def dh(u):
            w = sigma_inv(u)
            return np.diag(-dsigma(-w) / dsigma(w))

        base = VectorField(f=lambda t, u: -u + 0.3 * np.tanh(u), dim=2)

        def conj_base(t, v):
            u = h(v)  # h is an involution, h^{-1} = h
            return dh(u) @ base.eval(t, u)

        f_sym = VectorField(f=lambda t, u: 0.5 * (base.eval(t, u) + conj_base(t, u)),
                            dim=2)
        hconj = Conjugacy(h=h, h_inv=h, dh=dh)
        rng = np.random.default_rng(15)
        samples = [(0.0, rng.uniform(-1.0, 1.0, 2)) for _ in range(8)]
        rep = check_equivariance(f_sym, [hconj], samples)
        assert rep["passed"], rep["max_residual"]

    def test_invariant_limit_conclusion(self):
        fld = linear_field(np.diag([-1.0, -1.0]))
        T = np.array([[0.0, 1.0], [1.0, 0.0]])
        rate = RateEstimate(-1.0, "eigen")
        rep = check_equivariance(fld, [T], sampling.gaussian_samples(4, 2, seed=16),
                                 rate=rate)
        assert rep["invariant_limit"].passed


class TestTemporalSymmetry:
    def _forced(self):
        return VectorField(f=lambda t, u: -u + np.sin(2.0 * np.pi * t),
                           jac=lambda t, u: -np.eye(1), dim=1)

    def test_autonomous_any_tau(self):
        fld = linear_field(np.diag([-1.0]))
        for tau in (0.3, 1.0, 7.7):
            rep = check_temporal_symmetry(fld, tau,
                                          sampling.gaussian_samples(4, 1, seed=17))
            assert rep["passed"] and rep["max_residual"] == 0.0

    def test_tau_none_refused(self):
        with pytest.raises(ContractViolation, match="tau"):
            check_temporal_symmetry(self._forced(), None,
                                    sampling.gaussian_samples(2, 1, seed=17))

    def test_forced_period_one(self):
        sim = SimCheck(t_end=8.0, dt=1e-3, n_ic=1, seed=18)
        rate = RateEstimate(-1.0, "eigen")
        rep = check_temporal_symmetry(self._forced(), 1.0,
                                      sampling.gaussian_samples(5, 1, seed=19,
                                                                t_range=(0.0, 2.0)),
                                      sim=sim, rate=rate)
        assert rep["passed"]
        assert rep["periodic_limit"].passed
        ratios = rep["sim"]["decay_ratios"]
        # snapshots differ by a factor e^{-tau} each period
        assert np.allclose(ratios[1:4], np.exp(-1.0), rtol=0.05)

    def _spy(self, monkeypatch):
        runs = []

        def spy(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(geometry, "integrate", spy)
        return runs

    @pytest.mark.parametrize("dt", [0.3, 0.07])
    def test_snapshots_a_period_apart_off_the_step_grid(self, monkeypatch, dt):
        # 1 / dt is no whole number of steps; the snapshots are still at m tau
        runs = self._spy(monkeypatch)
        sim = SimCheck(t_end=8.0, dt=dt, n_ic=1, seed=18)
        rep = check_temporal_symmetry(self._forced(), 1.0,
                                      sampling.gaussian_samples(5, 1, seed=19,
                                                                t_range=(0.0, 2.0)),
                                      sim=sim, rate=RateEstimate(-1.0, "eigen"))
        assert np.array_equal(runs[0].times, np.arange(10.0))
        assert rep["sim"]["geometric_decay"].passed

    def _rk4_integrate(self, f, u0, t_span, t_eval):
        # RK4 at the sim's step 1e-3, recorded every tau = 1, its stats in the
        # keys of an integrator entry
        traj = rk4(f, u0, t_span, 1e-3, 1000)
        traj.stats = {"method": "RK4", "rtol": None, "steps": traj.stats["accepted"],
                      "nfev": traj.stats["nfev"], "njev": 0, "bdf_records": 0}
        return traj

    @pytest.mark.parametrize("t_end", [15.0, 30.0, 40.0])
    def test_long_run_verdict_matches_rk4(self, monkeypatch, t_end):
        sampler = sampling.gaussian_samples(5, 1, seed=19, t_range=(0.0, 2.0))
        sim = SimCheck(t_end=t_end, dt=1e-3, n_ic=1, seed=18)
        rate = RateEstimate(-1.0, "eigen")
        rep = check_temporal_symmetry(self._forced(), 1.0, sampler, sim=sim, rate=rate)
        assert rep["sim"]["integrator"]["method"] == "LSODA"
        monkeypatch.setattr(geometry, "integrate", self._rk4_integrate)
        ref = check_temporal_symmetry(self._forced(), 1.0, sampler, sim=sim, rate=rate)
        assert ref["sim"]["integrator"]["method"] == "RK4"
        assert rep["sim"]["geometric_decay"].passed and ref["sim"]["geometric_decay"].passed
        if t_end >= 40.0:
            # the differences e^-t |d0| reach the integration error (about
            # 1e-14) near t = 31; past it they do not repeat, and their
            # ratios reach 1
            assert np.max(rep["sim"]["decay_ratios"]) >= 1.0

    def test_grid_field_snapshots_any_period_apart(self, monkeypatch):
        # autonomous periodic heat: any tau is a symmetry; tau = 0.0505 is
        # 50.5 steps of 1e-3, and the snapshots are still a period apart
        runs = self._spy(monkeypatch)
        disc = build_discretization(16, boundary="periodic")
        sampler = sampling.gaussian_samples(3, 16, seed=21, t_range=(0.0, 1.0))
        sim = SimCheck(t_end=0.2, dt=1e-3, n_ic=1, seed=22)
        rep = check_temporal_symmetry(heat_field(disc, 1.0), 0.0505, sampler, sim=sim,
                                      rate=RateEstimate(-1.0, "eigen"))
        assert np.array_equal(runs[0].times, 0.0505 * np.arange(5))
        assert rep["passed"] and rep["sim"]["geometric_decay"].passed

    def test_grid_field_snapshots_a_period_apart(self, monkeypatch):
        runs = self._spy(monkeypatch)
        disc = build_discretization(16, boundary="periodic")
        sampler = sampling.gaussian_samples(3, 16, seed=21, t_range=(0.0, 1.0))
        sim = SimCheck(t_end=0.2, dt=1e-3, n_ic=1, seed=22)
        rep = check_temporal_symmetry(heat_field(disc, 1.0), 0.05, sampler, sim=sim,
                                      rate=RateEstimate(-1.0, "eigen"))
        assert runs[0].stats["method"] == "LSODA"
        assert np.array_equal(runs[0].times, 0.05 * np.arange(6))
        assert rep["passed"] and rep["sim"]["geometric_decay"].passed
        # the off-mean part decays by e^{lambda_2 tau} each period
        lam2 = -2.0 / disc.h**2 * (1.0 - np.cos(2.0 * np.pi / 16))
        np.testing.assert_allclose(rep["sim"]["decay_ratios"], np.exp(0.05 * lam2), rtol=1e-4)

    def test_off_period_tau_no_geometric_decay(self):
        sim = SimCheck(t_end=8.0, dt=1e-3, n_ic=1, seed=18)
        rep = check_temporal_symmetry(self._forced(), 0.7,
                                      sampling.gaussian_samples(5, 1, seed=20,
                                                                t_range=(0.0, 2.0)),
                                      sim=sim, rate=RateEstimate(-1.0, "eigen"))
        assert not rep["sim"]["geometric_decay"].passed

    def test_positive_rate_fails_periodic_limit(self):
        fld = linear_field(np.diag([-1.0]))
        rep = check_temporal_symmetry(fld, 1.0, sampling.gaussian_samples(4, 1, seed=17),
                                      rate=RateEstimate(0.5, "eigen"))
        assert rep["passed"] and not rep["periodic_limit"].passed
        assert verdict(rep)["certified"] is False

    def test_wrong_tau_fails(self):
        rep = check_temporal_symmetry(self._forced(), 0.7,
                                      sampling.gaussian_samples(5, 1, seed=20,
                                                                t_range=(0.0, 2.0)))
        assert not rep["passed"]

    def test_tau_positive_required(self):
        with pytest.raises(ContractViolation):
            check_temporal_symmetry(self._forced(), -1.0, [])


class TestLimitCycle:
    sub = systems.circle_submersion()

    def test_sweep_covers_circle(self):
        pts = sweep_loop(self.sub, np.array([1.3, 0.2]))
        assert len(pts) > 100
        for w in pts[:: max(1, len(pts) // 17)]:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-8
        angles = np.sort(np.arctan2([w[1] for w in pts], [w[0] for w in pts]))
        assert np.max(np.diff(angles)) < 0.1  # no gaps

    def test_hopf_certified_with_period(self):
        sim = SimCheck(t_end=60.0, dt=5e-3, seed=21, record_every=10,
                       ics=[np.array([0.5, 0.0]), np.array([0.0, -1.5]),
                            np.array([0.9, 0.9])])
        rep = certify_limit_cycle(systems.hopf_field(), self.sub,
                                  Conjugacy.identity(), tau=None,
                                  sampler=band_sampler(seed=22), sim=sim)
        assert rep["certified"]
        assert rep["sim"]["period"] == pytest.approx(2.0 * np.pi, rel=0.01)
        assert rep["min_loop_speed"] == pytest.approx(1.0, rel=1e-6)

    def test_sheared_conjugate_same_period(self):
        S = np.array([[1.0, 0.8], [0.0, 1.0]])
        fld = systems.conjugated_field(systems.hopf_field(), S)
        conj = Conjugacy.linear(S)
        ics = [np.linalg.solve(S, v) for v in (np.array([0.5, 0.0]),
                                               np.array([0.0, -1.5]),
                                               np.array([0.9, 0.9]))]
        sim = SimCheck(t_end=60.0, dt=5e-3, seed=23, record_every=10, ics=ics)
        rep = certify_limit_cycle(fld, self.sub, conj, tau=None,
                                  sampler=band_sampler(seed=24), sim=sim)
        assert rep["certified"]
        assert rep["sim"]["period"] == pytest.approx(2.0 * np.pi, rel=0.01)
        # the u-space attractor is the sheared loop: h(u) ends on the circle
        traj = rk4(fld, ics[0], (0.0, 60.0), 5e-3, 100)
        v_end = S @ traj.final_state
        assert np.linalg.norm(v_end) == pytest.approx(1.0, abs=1e-4)

    def test_sim_records_at_rk4_times_and_matches_rk4(self):
        fld = systems.hopf_field()
        ics = [np.array([0.5, 0.0]), np.array([0.0, -1.5])]
        sim = SimCheck(t_end=60.0, dt=5e-3, record_every=10, ics=ics)
        rep, traj = geometry._certify_limit_cycle(fld, self.sub, Conjugacy.identity(),
                                                  tau=None, spec=L2,
                                                  sampler=band_sampler(seed=22), sim=sim,
                                                  seed=0)
        assert np.array_equal(traj.times, rk4_record_times(0.0, 60.0, 5e-3, 10))
        ref = rk4(fld, ics[0], (0.0, 60.0), 5e-3, 10)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-8
        entry = rep["sim"]["integrator"]
        assert entry["method"] == "LSODA" and entry["rtol"] == ODE_RTOL
        assert entry["nfev"] > entry["steps"] > 0

    def test_sim_matches_the_exact_hopf_solution(self):
        # the limit_cycle config's three initial states at seed 0, against
        # r^2 = r0^2 e^2t / (1 + r0^2 (e^2t - 1)) and theta = theta0 + t
        rng = np.random.default_rng(0)
        sim = SimCheck(t_end=60.0, dt=5e-3, record_every=10)
        for u0 in (np.array([0.5, 0.0]), np.array([0.0, -1.5]),
                   0.5 + rng.uniform(0.0, 1.0, 2)):
            traj = simulate(systems.hopf_field(), u0, sim)
            t, r0sq = traj.times, u0 @ u0
            r = np.sqrt(r0sq / (np.exp(-2.0 * t) + r0sq * -np.expm1(-2.0 * t)))
            theta = np.arctan2(u0[1], u0[0]) + t
            exact = np.c_[r * np.cos(theta), r * np.sin(theta)]
            assert np.max(np.abs(traj.states - exact)) <= 6.5e-10

    def test_period_and_first_fit_share_one_integration(self, monkeypatch):
        runs = []

        def spy(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(geometry, "simulate", spy)
        ics = [np.array([0.5, 0.0]), np.array([0.0, -1.5])]
        sim = SimCheck(t_end=60.0, dt=5e-3, record_every=10, ics=ics)
        rep, traj = geometry._certify_limit_cycle(systems.hopf_field(), self.sub,
                                                  Conjugacy.identity(), tau=None, spec=L2,
                                                  sampler=band_sampler(seed=22), sim=sim,
                                                  seed=0)
        assert len(runs) == len(ics)
        assert traj is runs[0]
        period, _ = extract_period(runs[0].times, runs[0].states[:, 0])
        assert rep["sim"]["period"] == period
        public = certify_limit_cycle(systems.hopf_field(), self.sub, Conjugacy.identity(),
                                     tau=None, sampler=band_sampler(seed=22), sim=sim)
        assert set(public["sim"]) == set(rep["sim"])
        assert "trajectory" not in public["sim"]

    def test_sim_off_grid_end_time(self):
        # 29 steps of fl(15 / 29) overshoot 15 by 2^-49; the solver's
        # t_eval must still end at 15 exactly
        sim = SimCheck(t_end=15.0, dt=0.52, n_ic=1)
        traj = simulate(systems.hopf_field(), np.array([0.5, 0.0]), sim)
        assert traj.stats["method"] == "LSODA"
        assert traj.times[-1] == 15.0
        assert np.array_equal(traj.times, rk4_record_times(0.0, 15.0, 0.52, 1))

    def test_equilibrium_on_loop_withheld(self):
        rep = certify_limit_cycle(hopf_with_equilibrium_on_loop(), self.sub,
                                  Conjugacy.identity(), tau=None,
                                  sampler=band_sampler(seed=25))
        assert not rep["certified"]
        assert "loop_non_accumulation" in rep["failing_hypotheses"]

    def test_rotation_field_withheld_no_contraction(self):
        rep = certify_limit_cycle(rotation_field(), self.sub,
                                  Conjugacy.identity(), tau=None,
                                  sampler=band_sampler(seed=26))
        assert not rep["certified"]
        assert rep["failing_hypotheses"] == ["loop_contraction"]


class TestVerdict:
    """A failed simulation cross-check withholds the certificate, and the
    status says so too."""

    def test_too_short_limit_cycle_simulation(self):
        sim = SimCheck(t_end=0.02, dt=5e-3, n_ic=1)
        rep = certify_limit_cycle(systems.hopf_field(), systems.circle_submersion(),
                                  Conjugacy.identity(), tau=None,
                                  sampler=band_sampler(seed=22), sim=sim)
        assert all(c.passed for c in rep["checks"]) and not rep["sim"]["check"].passed
        assert rep["certified"] is False and rep["status"] == "withheld"

    @pytest.mark.parametrize("certifier", ["subspace", "manifold", "limit_cycle"])
    def test_failed_fit_withholds_status(self, certifier, monkeypatch):
        monkeypatch.setattr(geometry, "fit_decay_rate", lambda *a, **k: (np.nan, {}))
        sim = SimCheck(t_end=0.1, dt=1e-2, n_ic=1)
        if certifier == "subspace":
            disc = build_discretization(8, boundary="neumann")
            rep = certify_subspace_contraction(
                heat_field(disc, 1.0), Projector.mean(8), spec=L2,
                sampler=sampling.gaussian_samples(4, 8, seed=7), sim=sim, grid=disc.grid)
        elif certifier == "manifold":
            rep = certify_manifold_contraction(systems.hopf_field(), systems.circle_submersion(),
                                               spec=L2, sampler=band_sampler(seed=9), sim=sim)
        else:
            rep = certify_limit_cycle(systems.hopf_field(), systems.circle_submersion(),
                                      Conjugacy.identity(), tau=None,
                                      sampler=band_sampler(seed=22), sim=sim)
        assert all(c.passed for c in rep["checks"]) and not rep["sim"]["check"].passed
        assert np.isnan(rep["sim"]["check"].value)
        assert rep["certified"] is False and rep["status"] == "withheld"



class TestPhaseLocking:
    mats = [np.eye(2), np.array([[1.4, 0.5], [0.0, 0.8]]),
            np.array([[0.7, 0.0], [0.3, 1.2]])]

    def _leader(self, omega=1.0, seed=27):
        return certify_limit_cycle(systems.hopf_field(omega=omega),
                                   systems.circle_submersion(),
                                   Conjugacy.identity(), tau=None,
                                   sampler=band_sampler(seed=seed))

    def _torus_samples(self, n_osc, seed=28, n=20):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            th = rng.uniform(0.0, 2.0 * np.pi)
            base = np.array([np.cos(th), np.sin(th)])
            vs = np.concatenate([base + 0.1 * rng.standard_normal(2)
                                 for _ in range(n_osc)])
            us = np.concatenate([np.linalg.solve(self.mats[i], vs[2 * i:2 * i + 2])
                                 for i in range(n_osc)])
            out.append((0.0, us))
        return out

    def test_coupled_locks(self):
        fld = systems.coupled_hopf_field([1.0] * 3, self.mats, coupling=0.4)
        sim = SimCheck(t_end=80.0, dt=2e-3, n_ic=1, seed=29, ic_scale=0.4,
                       record_every=25)
        rep = certify_phase_locking(fld, [Conjugacy.linear(M) for M in self.mats],
                                    rotation_subspace_projector(3),
                                    sampler=self._torus_samples(3),
                                    leader=self._leader(), sim=sim)
        assert rep["certified"]
        periods = np.asarray(rep["sim"]["periods"])
        assert np.max(periods) - np.min(periods) <= 0.01 * np.mean(periods)
        assert rep["sim"]["phase_drift_final_quarter"] < 1e-3

    def test_sim_records_at_rk4_times_and_matches_rk4(self, monkeypatch):
        runs = []

        def spy(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(geometry, "simulate", spy)
        fld = systems.coupled_hopf_field([1.0] * 3, self.mats, coupling=0.4)
        sim = SimCheck(t_end=20.0, dt=2e-3, n_ic=1, seed=29, ic_scale=0.4,
                       record_every=25)
        rep = certify_phase_locking(fld, [Conjugacy.linear(M) for M in self.mats],
                                    rotation_subspace_projector(3),
                                    sampler=self._torus_samples(3),
                                    leader=self._leader(), sim=sim)
        (traj,) = runs
        assert np.array_equal(traj.times, rk4_record_times(0.0, 20.0, 2e-3, 25))
        u0 = geometry._sim_initial_conditions(sim, 6)[0]
        ref = rk4(fld, u0, (0.0, 20.0), 2e-3, 25)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-8
        assert rep["sim"]["integrator"] == {"method": "LSODA", "rtol": ODE_RTOL,
                                            "steps": traj.stats["steps"],
                                            "nfev": traj.stats["nfev"],
                                            "njev": 0, "bdf_records": 0}

    def test_uncoupled_distinct_frequencies_withheld(self):
        fld = systems.coupled_hopf_field([1.0, 1.13, 0.91], self.mats, coupling=0.0)
        sim = SimCheck(t_end=80.0, dt=2e-3, n_ic=1, seed=30, ic_scale=0.4,
                       record_every=25)
        rep = certify_phase_locking(fld, [Conjugacy.linear(M) for M in self.mats],
                                    rotation_subspace_projector(3),
                                    sampler=self._torus_samples(3),
                                    leader=self._leader(), sim=sim)
        assert not rep["certified"]
        assert rep["rate"].value >= -1e-9

    def test_no_period_fails_common_period(self, monkeypatch):
        monkeypatch.setattr(geometry, "extract_period", lambda *a: (np.nan, []))
        fld = systems.coupled_hopf_field([1.0] * 3, self.mats, coupling=0.4)
        sim = SimCheck(t_end=5.0, dt=2e-3, n_ic=1, seed=29, ic_scale=0.4,
                       record_every=25)
        rep = certify_phase_locking(fld, [Conjugacy.linear(M) for M in self.mats],
                                    rotation_subspace_projector(3),
                                    sampler=self._torus_samples(3),
                                    leader=self._leader(), sim=sim)
        common = rep["sim"]["common_period"]
        assert not common.passed and np.isnan(common.value)
        assert any(c is common for c in checks_in(rep))
        assert rep["certified"] is False and rep["status"] == "withheld"

    def test_missing_leader_withheld(self):
        fld = systems.coupled_hopf_field([1.0] * 2, self.mats[:2], coupling=0.4)
        rep = certify_phase_locking(fld, [Conjugacy.linear(M) for M in self.mats[:2]],
                                    rotation_subspace_projector(2),
                                    sampler=self._torus_samples(2), leader=None)
        assert rep["status"] == "withheld"
        assert "leader" in rep["reason"]

    def test_single_oscillator_reduces_to_limit_cycle(self):
        leader = self._leader()
        fld = systems.coupled_hopf_field([1.0], [np.eye(2)], coupling=0.0)
        rep = certify_phase_locking(fld, [Conjugacy.identity()],
                                    rotation_subspace_projector(1),
                                    sampler=self._torus_samples(1), leader=leader)
        assert rep["reduces_to"] == "limit_cycle"
        assert rep["certified"] == leader["certified"]


def extract_period_loop(times, series):
    """extract_period as first written: one crossing at a time."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(series, dtype=float)
    i0 = len(t) // 2
    t, x = t[i0:], x[i0:]
    x = x - np.mean(x)
    crossings = []
    for i in range(len(x) - 1):
        if x[i] < 0.0 <= x[i + 1]:
            frac = -x[i] / (x[i + 1] - x[i])
            crossings.append(t[i] + frac * (t[i + 1] - t[i]))
    if len(crossings) < 3:
        return np.nan, crossings
    return float(np.mean(np.diff(crossings))), crossings


class TestPeriodExtraction:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 60.0, 3000))
        # a noisy oscillation, with exact zeros and a flat stretch on some seeds
        x = np.sin(rng.uniform(0.3, 3.0) * t) + 0.05 * rng.standard_normal(t.size)
        if seed % 2:
            x = np.round(x, 1)
        period, crossings = extract_period(t, x)
        ref_period, ref_crossings = extract_period_loop(t, x)
        assert period == ref_period
        assert np.array_equal(crossings, ref_crossings)

    def test_too_few_crossings_same_as_the_loop(self):
        t = np.linspace(0.0, 10.0, 200)
        for x in (np.sin(0.5 * t), np.sin(1.3 * t), np.full_like(t, np.nan)):
            period, crossings = extract_period(t, x)
            ref_period, ref_crossings = extract_period_loop(t, x)
            assert np.isnan(period) and np.isnan(ref_period)
            assert np.array_equal(crossings, ref_crossings) and len(crossings) < 3

    def test_known_period(self):
        t = np.linspace(0.0, 50.0, 4000)
        x = np.sin(0.7 * t)
        period, crossings = extract_period(t, x)
        assert period == pytest.approx(2.0 * np.pi / 0.7, rel=1e-3)
        assert len(crossings) >= 3

    def test_too_few_crossings_nan(self):
        t = np.linspace(0.0, 1.0, 100)
        period, _ = extract_period(t, np.sin(0.5 * t))
        assert np.isnan(period)


def test_linear_conjugate_field():
    # v = M u turns f into M f(M^-1 v), with Jacobian M J M^-1
    M = np.array([[2.0, 1.0], [0.0, 0.5]])
    Minv = np.linalg.inv(M)
    fld = systems.hopf_field(omega=1.3)
    g = conjugate_field(fld, [Conjugacy.linear(M)])
    rng = np.random.default_rng(30)
    for _ in range(3):
        v = rng.standard_normal(2)
        np.testing.assert_allclose(g.eval(0.0, v), M @ fld.eval(0.0, Minv @ v),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(g.jacobian(0.0, v),
                                   M @ fld.jacobian(0.0, Minv @ v) @ Minv,
                                   rtol=1e-13, atol=1e-13)


def test_stacked_conjugate_consistency():
    mats = [np.eye(2), np.diag([2.0, 0.5])]
    fld = systems.coupled_hopf_field([1.0, 1.0], mats, coupling=0.3)
    G = conjugate_field(fld, [Conjugacy.linear(M) for M in mats])
    rng = np.random.default_rng(31)
    # exact chain-rule Jacobian vs finite differences of the conjugate field
    from contractkit.flows import fd_jacobian

    for _ in range(3):
        v = rng.standard_normal(4)
        J_exact = G.jacobian(0.0, v)
        J_fd = fd_jacobian(G.eval, 0.0, v)
        assert np.linalg.norm(J_exact - J_fd) <= 1e-4 * (1 + np.linalg.norm(J_exact))


def _coupled_hopf_reference(omegas, mats, K, u):
    """dv_i/dt = hopf(v_i) + K sum_j (v_j - v_i), oscillator by oscillator."""
    n = len(omegas)
    vs = [M @ u[2 * i:2 * i + 2] for i, M in enumerate(mats)]
    out = []
    for i, (w, v) in enumerate(zip(omegas, vs)):
        dv = systems.hopf_field(omega=w).eval(0.0, v)
        dv = dv + K * sum(vj - v for vj in vs)
        out.append(np.linalg.solve(mats[i], dv))
    assert len(out) == n
    return np.concatenate(out)


class TestSingularConjugacy:
    def test_linear_conjugacy_raises(self):
        with pytest.raises(ContractViolation, match="linear conjugacy matrix is singular"):
            Conjugacy.linear(np.ones((2, 2)))

    def test_conjugate_field_raises(self):
        # a Conjugacy built directly around a singular linear matrix
        M = np.ones((2, 2))
        conj = Conjugacy(h=lambda u: M @ u, h_inv=lambda v: v, dh=lambda u: M,
                         linear_matrix=M)
        with pytest.raises(ContractViolation, match="conjugacy matrix is singular"):
            conjugate_field(systems.hopf_field(), [conj])


class TestCoupledHopf:
    omegas = [1.0, 1.13, 0.91, 1.05]
    mats = [np.eye(2), np.array([[1.4, 0.5], [0.0, 0.8]]),
            np.array([[0.7, 0.0], [0.3, 1.2]]), np.array([[1.1, -0.4], [0.2, 0.9]])]

    def test_matches_per_oscillator_loop(self):
        fld = systems.coupled_hopf_field(self.omegas, self.mats, coupling=0.4)
        rng = np.random.default_rng(41)
        for _ in range(20):
            u = 1.5 * rng.standard_normal(8)
            ref = _coupled_hopf_reference(self.omegas, self.mats, 0.4, u)
            assert np.linalg.norm(fld.eval(0.0, u) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_jacobian_matches_finite_differences(self):
        fld = systems.coupled_hopf_field(self.omegas, self.mats, coupling=0.4)
        rng = np.random.default_rng(42)
        for _ in range(5):
            u = rng.standard_normal(8)
            J = fld.jacobian(0.0, u)
            assert J.shape == (8, 8)
            J_fd = fd_jacobian(fld.eval, 0.0, u)
            assert np.linalg.norm(J - J_fd) <= 1e-6 * (1.0 + np.linalg.norm(J))


def _sampler_users():
    """Every geometry check and certifier, as a function of its sampler."""
    heat = heat_field(build_discretization(8, boundary="neumann"))
    mats = TestPhaseLocking.mats[:2]
    return {
        "subspace_invariance": lambda s: check_subspace_invariance(
            heat, Projector.mean(8), s),
        "subspace_contraction": lambda s: certify_subspace_contraction(
            heat, Projector.mean(8), sampler=s),
        "manifold": lambda s: certify_manifold_contraction(
            systems.hopf_field(), systems.circle_submersion(), sampler=s),
        "equivariance": lambda s: check_equivariance(heat, [np.eye(8)], s),
        "temporal_symmetry": lambda s: check_temporal_symmetry(heat, 1.0, s),
        "limit_cycle": lambda s: certify_limit_cycle(
            systems.hopf_field(), systems.circle_submersion(), Conjugacy.identity(),
            None, sampler=s),
        "phase_locking": lambda s: certify_phase_locking(
            systems.coupled_hopf_field([1.0] * 2, mats, coupling=0.4),
            [Conjugacy.linear(M) for M in mats], rotation_subspace_projector(2),
            sampler=s, leader=None),
    }


class TestSamplerContract:
    """Every check reads its sampler through ``sampling.read``: at least one
    sample is required, and a missing or empty sampler is refused."""

    @pytest.mark.parametrize("user", sorted(_sampler_users()))
    @pytest.mark.parametrize("sampler", [None, []], ids=["none", "empty"])
    def test_refuses_missing_or_empty_sampler(self, user, sampler):
        with pytest.raises(ContractViolation, match="sampler"):
            _sampler_users()[user](sampler)

    def test_a_generator_is_read_once(self):
        heat = heat_field(build_discretization(8, boundary="neumann"))
        samples = sampling.gaussian_samples(4, 8, seed=3)
        rep = certify_subspace_contraction(heat, Projector.mean(8),
                                           sampler=iter(samples))
        again = certify_subspace_contraction(heat, Projector.mean(8), sampler=samples)
        assert rep["invariance"]["samples"] == rep["rate"].sample_count == 4
        assert rep["rate"].value == again["rate"].value
        assert rep["certified"]

    def test_no_group_element_refused(self):
        with pytest.raises(ContractViolation, match="group element"):
            check_equivariance(rotation_field(), [], band_sampler(n=2))


def _nan_after(base, t_nan):
    """``base`` until time t_nan and nan from then on; its exact Jacobian
    stays finite, so only the hypothesis residuals see the nan."""
    return VectorField(f=lambda t, u: base.eval(t, u) if t < t_nan else np.full(2, np.nan),
                       jac=base.jac, dim=2, name="nan_after")


class TestNanResidual:
    """A nan residual is the statistic of its check, which then fails: no
    running max drops it."""

    def _assert_nan_failed(self, check):
        assert np.isnan(check.value) and not check.passed

    def test_subspace_invariance(self):
        f = _nan_after(rotation_field(), 0.0)
        rep = check_subspace_invariance(f, Projector(np.diag([1.0, 0.0])),
                                        band_sampler(n=3))
        self._assert_nan_failed(rep["check"])
        assert np.isnan(rep["max_residual"]) and not rep["passed"]

    def test_manifold_tangency(self):
        f = _nan_after(systems.hopf_field(), 0.0)
        rep = certify_manifold_contraction(f, systems.circle_submersion(),
                                           sampler=band_sampler(n=4))
        checks = {c.name: c for c in rep["checks"]}
        self._assert_nan_failed(checks["manifold_tangency"])
        assert checks["manifold_rate"].passed and not rep["certified"]

    def test_equivariance(self):
        rep = check_equivariance(_nan_after(rotation_field(), 0.0), [-np.eye(2)],
                                 band_sampler(n=3))
        self._assert_nan_failed(rep["checks"][0])
        assert np.isnan(rep["max_residual"]) and not rep["passed"]

    def test_temporal_symmetry(self):
        f = _nan_after(rotation_field(), 0.5)
        rep = check_temporal_symmetry(f, 1.0, band_sampler(n=3))
        self._assert_nan_failed(rep["check"])
        assert np.isnan(rep["max_residual"]) and not rep["passed"]

    def test_loop_symmetry(self):
        # finite at the sample time 0, nan at every shifted time of autonomy
        f = _nan_after(systems.hopf_field(), 0.1)
        rep = certify_limit_cycle(f, systems.circle_submersion(), Conjugacy.identity(),
                                  None, sampler=band_sampler(n=4))
        checks = {c.name: c for c in rep["checks"]}
        self._assert_nan_failed(checks["loop_symmetry"])
        assert checks["loop_invariance"].passed
        assert rep["failing_hypotheses"] == ["loop_symmetry"]

    def test_loop_invariance(self):
        f = _nan_after(systems.hopf_field(), 0.0)
        with np.errstate(invalid="ignore"):
            rep = certify_limit_cycle(f, systems.circle_submersion(),
                                      Conjugacy.linear(np.eye(2)), None,
                                      sampler=band_sampler(n=4))
        checks = {c.name: c for c in rep["checks"]}
        self._assert_nan_failed(checks["loop_invariance"])
        assert not rep["certified"]


class TestWorstResidual:
    def test_same_bits_as_the_norm_loop(self):
        rng = np.random.default_rng(42)
        pairs = []
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-12, 6)
            pairs.append((scale * rng.standard_normal(n), rng.standard_normal(n)))
        worst = 0.0
        for r, s in pairs:
            assert geometry._norm(r) == np.linalg.norm(r)
            worst = max(worst, np.linalg.norm(r) / (1.0 + np.linalg.norm(s)))
        assert geometry._worst_residual(pairs) == worst
        for k in range(0, 2000, 97):
            assert geometry._worst_residual(pairs[k:k + 5]) == max(
                np.linalg.norm(r) / (1.0 + np.linalg.norm(s)) for r, s in pairs[k:k + 5])

    def test_nan_wherever_it_is(self):
        pairs = [(np.ones(3), np.ones(3))] * 3
        for k in range(3):
            bad = list(pairs)
            bad[k] = (np.array([1.0, np.nan, 0.0]), np.ones(3))
            assert np.isnan(geometry._worst_residual(bad))

    def test_no_pairs_is_nan(self):
        assert np.isnan(geometry._worst_residual([]))

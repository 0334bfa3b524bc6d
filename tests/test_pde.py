"""Discretizations and the PDE experiments."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from contractkit import pde, sampling
from contractkit.errors import ContractViolation
from contractkit.flows import fd_jacobian, integrate, rk4_record_times
from contractkit.sip import L2, NormSpec, norm


class TestDiscretization:
    def test_neumann_rows_sum_to_zero(self):
        disc = pde.build_discretization(16, boundary="neumann_zero_flux")
        rows = np.asarray(disc.laplacian.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) <= 1e-12
        assert np.linalg.norm(disc.laplacian @ np.ones(16)) <= 1e-12

    def test_neumann_second_eigenvalue_formula(self):
        for n in (8, 16, 32):
            disc = pde.build_discretization(n, boundary="neumann")
            vals = np.linalg.eigvalsh(disc.laplacian.toarray())
            second = np.sort(vals)[-2]
            assert second == pytest.approx(
                pde.neumann_second_eigenvalue(n, disc.h), rel=1e-8)

    def test_dirichlet_negative_definite_poincare(self):
        disc = pde.build_discretization(16, boundary="dirichlet_zero")
        L = disc.laplacian.toarray()
        vals = np.linalg.eigvalsh(L)
        assert np.max(vals) < 0
        lam_min = pde.dirichlet_poincare_constant(16, disc.h)
        assert -np.max(vals) == pytest.approx(lam_min, rel=1e-10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi = rng.standard_normal(16)
            assert phi @ (L @ phi) <= -lam_min * (phi @ phi) + 1e-9

    def test_periodic_symmetric_kernel_constants(self):
        disc = pde.build_discretization(16, boundary="periodic")
        L = disc.laplacian.toarray()
        assert np.linalg.norm(L - L.T) <= 1e-12
        assert np.linalg.norm(L @ np.ones(16)) <= 1e-12

    def test_2d_laplacian_shape_and_kernel(self):
        disc = pde.build_discretization(8, dims=2, boundary="neumann")
        assert disc.laplacian.shape == (64, 64)
        assert np.linalg.norm(disc.laplacian @ np.ones(64)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ContractViolation):
            pde.build_discretization(2)
        with pytest.raises(ContractViolation):
            pde.build_discretization(8, dims=3)
        with pytest.raises(ContractViolation):
            pde.build_discretization(8, boundary="robin")


_PAD = {"periodic": "wrap", "neumann": "edge", "dirichlet": "constant"}


def _lap_stencil(u, h, boundary):
    """Reference 3-point Laplacian along every axis of u, with the boundary's
    ghost values from np.pad (wrapped, mirrored edge, or zero)."""
    g = np.pad(u, 1, mode=_PAD[boundary])
    inner = tuple(slice(1, -1) for _ in range(u.ndim))
    out = np.zeros_like(u)
    for ax in range(u.ndim):
        up = list(inner)
        um = list(inner)
        up[ax], um[ax] = slice(2, None), slice(None, -2)
        out += g[tuple(up)] - 2.0 * g[inner] + g[tuple(um)]
    return out / h**2


def _burgers_centered_stencil(u, h, eps):
    flux = 0.5 * u * u
    return (-(np.roll(flux, -1) - np.roll(flux, 1)) / (2.0 * h)
            + eps * _lap_stencil(u, h, "periodic"))


def _assert_matches(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestGridFields:
    """The sparse-matrix right-hand sides against inline numpy stencils."""

    rng = np.random.default_rng(42)

    def test_laplacian_fields_match_stencils(self):
        for boundary, dims in [("periodic", 1), ("neumann", 1), ("dirichlet", 1),
                               ("neumann", 2), ("periodic", 2)]:
            n = 32 if dims == 1 else 8
            disc = pde.build_discretization(n, dims=dims, boundary=boundary)
            fld = pde.heat_field(disc, 0.7)
            u = self.rng.standard_normal((n,) * dims)
            ref = 0.7 * _lap_stencil(u, disc.h, boundary).ravel()
            _assert_matches(fld.eval(0.0, u.ravel()), ref)
            assert np.array_equal(fld.jacobian(0.0, u.ravel()).toarray(),
                                  (0.7 * disc.laplacian).toarray())

    def test_burgers_matches_stencils(self):
        disc = pde.build_discretization(64, boundary="periodic")
        u = self.rng.standard_normal(64)
        _assert_matches(pde.burgers_field(disc, 0.03).eval(0.0, u),
                        _burgers_centered_stencil(u, disc.h, 0.03))
        # Godunov flux of u^2/2 on the face between points i and i + 1
        face = [max(0.5 * max(u[i], 0.0) ** 2, 0.5 * min(u[(i + 1) % 64], 0.0) ** 2)
                for i in range(64)]
        ref = [-(face[i] - face[i - 1]) / disc.h for i in range(64)]
        _assert_matches(pde.burgers_field(disc, 0.03, scheme="upwind").eval(0.0, u),
                        np.asarray(ref) + 0.03 * _lap_stencil(u, disc.h, "periodic"))

    def test_reaction_diffusion_fields_match_stencils(self):
        disc = pde.build_discretization(32, boundary="neumann")
        u = self.rng.standard_normal(32)
        fld = pde.reaction_diffusion_field(disc, 0.5, pde.allen_cahn_reaction())
        _assert_matches(fld.eval(0.0, u),
                        0.5 * _lap_stencil(u, disc.h, "neumann") + u - u**3)
        x, y = np.abs(self.rng.standard_normal((2, 32))) + 0.5
        fld = pde.reaction_diffusion_field(disc, [1e-3, 0.1],
                                           pde.brusselator_reaction(a=1.0, b=1.8))
        xy2 = x * x * y
        ref = np.concatenate([1e-3 * _lap_stencil(x, disc.h, "neumann") + 1.0 - 2.8 * x + xy2,
                              0.1 * _lap_stencil(y, disc.h, "neumann") + 1.8 * x - xy2])
        _assert_matches(fld.eval(0.0, np.concatenate([x, y])), ref)

    def test_poisson_flow_matches_stencil(self):
        disc = pde.build_discretization(32, boundary="dirichlet")
        fn, dfn, _ = pde.sine_reaction(5.0)
        fld = pde.poisson_gradient_flow(disc, fn, dfn)
        u = self.rng.standard_normal(32)
        _assert_matches(fld.eval(0.0, u),
                        _lap_stencil(u, disc.h, "dirichlet") + 5.0 * np.sin(u))

    def test_burgers_flux_is_conservative(self):
        disc = pde.build_discretization(64, boundary="periodic")
        u = self.rng.standard_normal(64)
        for scheme in ("centered", "upwind"):
            rhs = pde.burgers_field(disc, 0.01, scheme=scheme).eval(0.0, u)
            assert abs(np.sum(rhs)) <= 1e-9 * np.sum(np.abs(rhs))

    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    def test_burgers_commutes_with_grid_shifts(self, scheme):
        # the translation_invariance hypothesis of vanishing_osl rests on this
        disc = pde.build_discretization(96, boundary="periodic")
        fld = pde.burgers_field(disc, 0.01, scheme=scheme)
        u = np.sin(2 * np.pi * np.arange(96) / 96) + 0.3 * self.rng.standard_normal(96)
        fu = fld.eval(0.0, u)
        for shift in (1, 32, 95):
            diff = fld.eval(0.0, np.roll(u, shift)) - np.roll(fu, shift)
            assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(fu))

    @pytest.mark.parametrize("species", [1, 2])
    def test_reaction_diffusion_jacobian_matches_fd(self, species):
        disc = pde.build_discretization(16, boundary="neumann")
        if species == 1:
            fld = pde.reaction_diffusion_field(disc, 0.5, pde.allen_cahn_reaction())
            z = self.rng.standard_normal(16)
        else:
            r = pde.brusselator_reaction(a=1.0, b=1.8)
            fld = pde.reaction_diffusion_field(disc, [1e-3, 0.1], r)
            z = (r.steady_state[:, None] + 0.3 * self.rng.standard_normal((2, 16))).ravel()
        J = fld.jacobian(0.0, z)
        assert J.shape == (16 * species, 16 * species)
        assert np.max(np.abs(J - fd_jacobian(fld.eval, 0.0, z))) <= 1e-6 * np.max(np.abs(J))


class TestHeatExperiment:
    def test_all_checks_pass(self):
        rep, series = pde.heat_zero_flux_experiment(n=16, alpha=1.0, t_end=0.5, seed=0)
        assert rep["passed"]
        assert rep["certified"]
        header, cols = series["decay"]
        assert header[0] == "time"

    # seeds whose u0 barely excites the slowest mode, so faster modes set
    # the early decay
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 6, 10, 15, 23, 24, 29,
                                      657035583, 1282648386])
    def test_fitted_decay_matches_certified_rate(self, seed):
        rep, _ = pde.heat_zero_flux_experiment(n=16, alpha=1.0, t_end=0.5, seed=seed)
        (check,) = [c for c in rep["checks"] if c.name == "fitted_decay_within_2pct"]
        assert check.passed
        assert check.value <= 1e-4

    def test_constant_initial_state_stays_flat(self):
        disc = pde.build_discretization(16, boundary="neumann")
        fld = pde.heat_field(disc, 1.0)
        traj = integrate(fld, np.full(16, 3.0), (0.0, 0.3), dt=0.2 * disc.h**2,
                         record_every=50)
        from contractkit.geometry import Projector

        Q = Projector.mean(16).Q
        assert all(np.linalg.norm(Q @ u) <= 1e-12 for u in traj.states)

    def test_2d_variant(self):
        rep, _ = pde.heat_zero_flux_experiment(n=8, alpha=1.0, t_end=0.3, seed=1,
                                               dims=2)
        assert rep["certified"]
        assert rep["mass_drift"] <= 1e-10


class TestReactionDiffusion:
    def test_allen_cahn_homogenizes(self):
        rep, _ = pde.reaction_diffusion_experiment(n=16, alphas=0.5, t_end=6.0, seed=0)
        assert rep["certified"]
        assert rep["homogenized"]
        lam = rep["lambda_certified"]
        assert abs(rep["fitted_decay"] - lam) <= 0.1 * abs(lam)

    def test_zero_reaction_reduces_to_heat(self):
        zero = pde.PointwiseReaction(fn=lambda U: np.zeros_like(U),
                                     jac=lambda U: np.zeros((1, 1, U.shape[1])),
                                     n_species=1, name="zero")
        rep, _ = pde.reaction_diffusion_experiment(n=16, alphas=1.0, reaction=zero,
                                                   t_end=0.5, seed=0, amplitude=1.0)
        assert rep["certified"]
        lam_heat = pde.neumann_second_eigenvalue(16, 1.0 / 16)
        assert rep["fitted_decay"] == pytest.approx(lam_heat, rel=0.02)

    def test_brusselator_turing_counterexample(self):
        r = pde.brusselator_reaction(a=1.0, b=1.8)
        rep, _ = pde.reaction_diffusion_experiment(
            n=64, alphas=[1e-3, 0.1], reaction=r, t_end=60.0, seed=0,
            amplitude=0.05, base_state=r.steady_state)
        assert not rep["certified"]
        # condition (2) fails for the activator
        failing = [c for c in rep["checks"] if not c.passed]
        assert any("species_0" in c.name for c in failing)
        assert not rep["homogenized"]
        assert rep["final_qnorm_ratio"] > 0.1

    def test_radau_matches_rk4_reference_brusselator(self):
        # the experiment's solve: Radau at the times fixed-step RK4 records
        r = pde.brusselator_reaction(a=1.0, b=1.8)
        disc = pde.build_discretization(16, boundary="neumann")
        fld = pde.reaction_diffusion_field(disc, [1e-3, 0.1], r)
        rng = np.random.default_rng(0)
        u0 = (np.repeat(r.steady_state[:, None], 16, axis=1)
              + 0.05 * rng.standard_normal((2, 16))).reshape(-1)
        t_end, dt, every = 10.0, 0.2 * disc.h**2 / 0.1, 25
        ref = integrate(fld, u0, (0.0, t_end), dt=dt, record_every=every)
        traj = integrate(fld, u0, (0.0, ref.times[-1]), rtol=pde.STIFF_RTOL,
                         method=pde.STIFF_METHOD, t_eval=ref.times)
        assert np.array_equal(traj.times, ref.times)
        # relative to the state's scale; most of the gap is RK4's own error
        # in the fast initial transient
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-6 * np.max(np.abs(ref.states))

    def test_report_names_the_integrator(self):
        rep, series = pde.reaction_diffusion_experiment(n=16, alphas=0.5, t_end=2.0, seed=0)
        integ = rep["integrator"]
        assert set(integ) == {"method", "rtol", "steps", "nfev", "njev", "nlu"}
        assert integ["method"] == "Radau" and integ["rtol"] == pde.STIFF_RTOL
        assert integ["nfev"] >= integ["steps"] > 0 and integ["njev"] >= 1
        # the output grid of RK4 at its stability step: 1,280 steps, every 6th
        times = series["decay"][1][0]
        assert np.array_equal(times, rk4_record_times(0.0, 2.0, 0.2 / 16**2 / 0.5, 6))


class TestPoisson:
    def test_zero_reaction_gives_zero_solution(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, fn=lambda u: np.zeros_like(u),
                                                  dfn=lambda u: np.zeros_like(u),
                                                  seed=0, refinement=(8, 16))
        assert rep["passed"]
        assert rep["max_residual"] <= 1e-10

    def test_sine_reaction_unique_fixed_point(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=32, c=5.0, seed=0)
        assert rep["certified"]
        assert rep["max_pairwise_distance"] <= 1e-8
        assert rep["max_residual"] <= 1e-8

    def test_supercritical_not_certified_but_runs(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, c=30.0, seed=0,
                                                  refinement=(8, 16))
        assert not rep["certified"]
        assert rep["existence_note"] == "existence not certified"

    def test_refinement_monotone_to_continuum(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, c=5.0, seed=0)
        lams = rep["refinement"]["lambda"]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[-1] < math.pi**2
        assert lams[-1] == pytest.approx(math.pi**2, rel=5e-3)

    def test_report_names_the_integrator(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, c=5.0, seed=0, n_init=2,
                                                  refinement=(8, 16))
        integ = rep["integrator"]
        assert integ["method"] == "Radau" and integ["rtol"] == pde.STIFF_RTOL
        assert integ["nfev"] >= integ["steps"] > 0 and integ["nlu"] >= 1
        assert rep["max_residual"] <= 1e-10


class TestSobolevRate:
    def test_heat_rate_monotone_in_k(self):
        disc = pde.build_discretization(32, boundary="periodic")
        fld = pde.heat_field(disc, 1.0)
        sampler = sampling.gaussian_samples(3, 32, seed=0)
        r0 = pde.sobolev_rate(fld, 0, 2.0, sampler=sampler).value
        r1 = pde.sobolev_rate(fld, 1, 2.0, sampler=sampler).value
        r2 = pde.sobolev_rate(fld, 2, 2.0, sampler=sampler).value
        # all three are 0 (the constant mode); higher-k Gram matrices are
        # worse conditioned, so allow eigensolver noise
        assert r1 <= r0 + 1e-6
        assert r2 <= r0 + 1e-6

    def test_transport_isometric_every_order(self):
        from contractkit.flows import VectorField
        from contractkit.grids import derivative_matrix_1d

        disc = pde.build_discretization(32, boundary="periodic")
        D = derivative_matrix_1d(32, disc.h, "periodic")
        fld = VectorField(f=lambda t, u: -(D @ u), jac=lambda t, u: (-D).toarray(),
                          dim=32, grid=disc.grid)
        sampler = sampling.gaussian_samples(3, 32, seed=1)
        for k in (0, 1, 2):
            r = pde.sobolev_rate(fld, k, 2.0, sampler=sampler).value
            assert abs(r) <= 1e-8

    def test_viscous_burgers_h1_finite(self):
        disc = pde.build_discretization(64, boundary="periodic")
        fld = pde.burgers_field(disc, 0.05)
        x = np.arange(64) * disc.h
        sampler = sampling.states([np.sin(2 * np.pi * x), 0.5 * np.cos(2 * np.pi * x)])
        est = pde.sobolev_rate(fld, 1, 2.0, sampler=sampler)
        assert np.isfinite(est.value)
        assert est.method == "sampled"

    def test_k_cap(self):
        disc = pde.build_discretization(16, boundary="periodic")
        fld = pde.heat_field(disc, 1.0)
        with pytest.raises(ContractViolation):
            pde.sobolev_rate(fld, 3, 2.0, sampler=[])


class TestRegularizedFamily:
    def test_burgers_jacobian_formula(self):
        from contractkit.grids import derivative_matrix_1d

        disc = pde.build_discretization(32, boundary="periodic")
        fld = pde.burgers_field(disc, 0.05)
        D = derivative_matrix_1d(32, disc.h, "periodic")
        rng = np.random.default_rng(5)
        for _ in range(2):
            u = rng.standard_normal(32)
            expect = (-(D @ sp.diags(u)) + 0.05 * disc.laplacian).toarray()
            assert np.array_equal(fld.jacobian(0.0, u), expect)

    def test_burgers_eps_residual_decreasing(self):
        fam = pde.burgers_family(n=64)
        rng = np.random.default_rng(2)
        u = np.sin(2 * np.pi * np.arange(64) / 64) + 0.1 * rng.standard_normal(64)
        f0 = fam.field(0.0)
        # same centered scheme at eps = 0 for the pointwise-limit probe
        disc = pde.build_discretization(64, boundary="periodic")
        f0c = pde.burgers_field(disc, 0.0, scheme="centered")
        res = [np.linalg.norm(fam.field(e).eval(0.0, u) - f0c.eval(0.0, u))
               for e in fam.eps_schedule]
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_constant_family_differences_zero(self):
        disc = pde.build_discretization(32, boundary="periodic")
        fld = pde.heat_field(disc, 0.05)
        fam = pde.RegularizedFamily(f_eps=lambda e: fld,
                                    eps_schedule=(0.1, 0.05, 0.025, 0.0125),
                                    grid=disc.grid)
        u0 = np.sin(2 * np.pi * np.arange(32) / 32)
        rep, _ = pde.vanishing_osl_experiment(fam, u0, t_end=0.1, n_out=20, seed=0)
        assert all(d <= 1e-14 for d in rep["successive_differences"])

    def test_advection_limit_is_transported_profile(self):
        n = 128
        fam = pde.advection_family(n=n, speed=1.0,
                                   eps_schedule=(0.02, 0.01, 0.005, 0.0025))
        x = np.arange(n) / n
        u0 = np.exp(-50.0 * (x - 0.3) ** 2)
        t_end = 0.25
        errs = []
        for eps in fam.eps_schedule:
            disc_h = 1.0 / n
            dt = min(0.2 * disc_h / 2.0, disc_h**2 / (2 * eps))
            traj = integrate(fam.field(eps), u0, (0.0, t_end), dt=dt,
                             record_every=10**9)
            shift = int(round(1.0 * t_end * n))  # exact transport on the grid
            exact = np.roll(u0, shift)
            errs.append(np.linalg.norm(traj.final_state - exact) / np.linalg.norm(exact))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # error is O(eps): halving eps roughly halves the error
        assert errs[-1] <= 0.7 * errs[-2]


class TestVanishingOSL:
    @staticmethod
    def _small(lambda_bound=None):
        fam = pde.burgers_family(n=64, eps_schedule=(0.08, 0.04, 0.02, 0.01))
        x = np.arange(64) / 64
        return pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x), t_end=0.1,
                                            n_out=20, seed=0, lambda_bound=lambda_bound)[0]

    def test_rate_bound_not_declared_is_not_checked(self):
        rep = self._small()
        assert rep["lambda_declared"] == "not declared"
        assert "uniform_rate_bound" not in [c.name for c in rep["hypotheses"]]
        assert rep["lambda_observed"] == max(rep["rates"].values())

    def test_declared_rate_bound_is_checked(self):
        lam = self._small()["lambda_observed"]
        above = self._small(lambda_bound=lam + 1.0)
        below = self._small(lambda_bound=lam - 1.0)
        assert above["lambda_declared"] == lam + 1.0
        for rep, passed in ((above, True), (below, False)):
            (check,) = [c for c in rep["hypotheses"] if c.name == "uniform_rate_bound"]
            assert check.passed is passed
            assert check.value == lam
        assert "uniform_rate_bound" not in above["hypotheses_failed"]
        assert "uniform_rate_bound" in below["hypotheses_failed"]

    def test_weak_form_factors_match_dense_test_functions(self):
        rng = np.random.default_rng(4)
        times, xs = np.linspace(0.0, 0.5, 41), np.arange(32) / 32
        uu = rng.standard_normal((41, 32))
        flux = lambda u: 0.5 * u * u
        psis = pde._test_functions(times, xs, np.random.default_rng(0), 5)
        raw, denom = pde._weak_form_residuals(uu, psis, 1.0 / 32, 0.5 / 40, flux)
        for (btp, bx, bt, bxp), r, d in zip(psis, raw, denom):
            psi_t, psi_x = np.outer(btp, bx), np.outer(bt, bxp)
            dense = np.sum(uu * psi_t + flux(uu) * psi_x) / 32 * 0.5 / 40
            scale = (np.max(np.abs(uu)) * np.sum(np.abs(psi_t))
                     + np.max(np.abs(flux(uu))) * np.sum(np.abs(psi_x))) / 32 * 0.5 / 40
            assert r == pytest.approx(dense, rel=1e-12, abs=1e-15 * scale)
            assert d == pytest.approx(scale, rel=1e-12)

    def test_burgers_small_scale(self):
        fam = pde.burgers_family(n=96)
        x = np.arange(96) / 96
        rep, series = pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x),
                                                   t_end=0.4, n_out=80, seed=0)
        assert rep["cauchy_trend"]
        assert not rep["hypotheses_failed"]
        assert rep["rate_trend_increasing"]
        assert rep["grid"]["n"] == 96

    def test_weak_residual_improves_under_joint_refinement(self):
        def run(n, schedule):
            fam = pde.burgers_family(n=n, eps_schedule=schedule)
            x = np.arange(n) / n
            rep, _ = pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x),
                                                  t_end=0.4, n_out=80, seed=0)
            return rep["max_weak_residual"]

        coarse = run(96, (0.08, 0.04, 0.02, 0.01))
        fine = run(192, (0.04, 0.02, 0.01, 0.005))
        assert fine < coarse

    def test_validation(self):
        fam = pde.burgers_family(n=64, eps_schedule=(0.1, 0.05))
        with pytest.raises(ContractViolation):
            pde.vanishing_osl_experiment(fam, np.zeros(64))
        disc = pde.build_discretization(16, boundary="neumann")
        fam2 = pde.RegularizedFamily(f_eps=lambda e: pde.heat_field(disc, e),
                                     eps_schedule=(0.1, 0.05, 0.025, 0.0125),
                                     grid=disc.grid)
        with pytest.raises(ContractViolation):
            pde.vanishing_osl_experiment(fam2, np.zeros(16))

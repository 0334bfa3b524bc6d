"""Discretizations and the PDE experiments."""

import math
import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from contractkit import cli, flows, pde, sampling
from contractkit.errors import ContractViolation
from contractkit.flows import (ODE_RTOL, fd_jacobian, integrate, linear_field, rk4_record_times,
                               simulate_flow)
from contractkit.reporting import checks_in
from contractkit.sip import L2, NormSpec, norm


class TestDiscretization:
    def test_neumann_rows_sum_to_zero(self):
        disc = pde.build_discretization(16, boundary="neumann")
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
        disc = pde.build_discretization(16, boundary="dirichlet")
        L = disc.laplacian.toarray()
        vals = np.linalg.eigvalsh(L)
        assert np.max(vals) < 0
        lam_min = pde.dirichlet_poincare_constant(16, disc.h)
        assert -np.max(vals) == pytest.approx(lam_min, rel=1e-10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi = rng.standard_normal(16)
            assert phi @ (L @ phi) <= -lam_min * (phi @ phi) + 1e-9

    def test_unknown_boundary_names_itself(self):
        with pytest.raises(ContractViolation, match="robin"):
            pde.build_discretization(16, boundary="robin")

    def test_only_the_three_boundary_names(self):
        for name in ("neumann_zero_flux", "dirichlet_zero", "none"):
            with pytest.raises(ContractViolation, match=name):
                pde.build_discretization(16, boundary=name)

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


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
# the shipped vanishing_osl schedule
EPS_SCHEDULE = (0.05, 0.025, 0.0125, 0.00625)


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


def _sparse_product_cases():
    """(field, the same right-hand side as ``A @ u`` products of scipy's
    sparse matrices, state size) for each field whose constant sparse
    product is ``flows.matvec``."""
    per = pde.build_discretization(64, boundary="periodic")
    neu = pde.build_discretization(32, boundary="neumann")
    dirichlet = pde.build_discretization(32, boundary="dirichlet")
    lap, D = per.laplacian, per.gradients[0]
    ac, br = pde.allen_cahn_reaction(), pde.brusselator_reaction(a=1.0, b=1.8)
    fn, dfn = pde.sine_reaction(5.0)
    kron = lambda alphas: sp.kron(sp.diags(alphas), neu.laplacian, format="csr")
    lap3 = pde._block_diag([dirichlet.laplacian] * 3)
    S = sp.random(40, 40, density=0.1, random_state=1, format="csr")
    cases = {
        "heat": (pde.heat_field(neu, 0.7), lambda u: (0.7 * neu.laplacian) @ u, 32),
        "allen_cahn": (pde.reaction_diffusion_field(neu, 0.5, ac),
                       lambda z: kron([0.5]) @ z + ac.fn(z.reshape(1, -1)).ravel(), 32),
        "brusselator": (pde.reaction_diffusion_field(neu, [1e-3, 0.1], br),
                        lambda z: kron([1e-3, 0.1]) @ z + br.fn(z.reshape(2, -1)).ravel(), 64),
        "poisson_3": (pde.poisson_gradient_flow(dirichlet, fn, dfn, copies=3),
                      lambda u: lap3 @ u + fn(u), 96),
        "linear_sparse": (linear_field(S), lambda u: S @ u, 40),
    }
    for levels in ((0.03,), (0.03, 0.01)):
        m = len(levels)
        diffusion = pde._block_diag([e * lap for e in levels])
        K = sp.hstack([diffusion, -pde._block_diag([D] * m)], format="csr")
        cases[f"burgers_centered_{m}"] = (
            pde.burgers_field(per, levels), lambda u, K=K: K @ np.concatenate([u, 0.5 * u * u]),
            64 * m)
        cases[f"burgers_upwind_{m}"] = (
            pde.burgers_field(per, levels, scheme="upwind"),
            lambda u, diffusion=diffusion, m=m: diffusion @ u - pde._upwind_flux_difference(
                u.reshape(m, -1), 1.0 / per.h).ravel(), 64 * m)
    A = pde._block_diag([(-1.0 * D + e * lap).tocsr() for e in (0.1, 0.05)])
    cases["advection_2"] = (pde.advection_family(64, 1.0, EPS_SCHEDULE).field(0.1, 0.05),
                            lambda u: A @ u, 128)
    return cases


SPARSE_PRODUCT_CASES = _sparse_product_cases()


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
        fn, dfn = pde.sine_reaction(5.0)
        fld = pde.poisson_gradient_flow(disc, fn, dfn)
        u = self.rng.standard_normal(32)
        _assert_matches(fld.eval(0.0, u),
                        _lap_stencil(u, disc.h, "dirichlet") + 5.0 * np.sin(u))

    @pytest.mark.parametrize("name", list(SPARSE_PRODUCT_CASES))
    def test_fields_keep_the_bits_of_their_sparse_products(self, name):
        fld, ref, size = SPARSE_PRODUCT_CASES[name]
        rng = np.random.default_rng(19)
        for u in (rng.standard_normal(size), np.abs(rng.standard_normal(size)) + 0.5):
            got, want = fld.eval(0.0, u), ref(u)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("n,eps", [(64, 0.03), (256, 0.00625)])
    def test_fused_burgers_matches_two_products(self, n, eps):
        # one product [eps L | -D] [u; u^2/2] against eps L u - D (u^2/2)
        disc = pde.build_discretization(n, boundary="periodic")
        fld = pde.burgers_field(disc, eps)
        D = disc.gradients[0]
        for u in (self.rng.standard_normal(n), 1e3 * np.sin(2 * np.pi * np.arange(n) / n)):
            diffusion, advection = eps * disc.laplacian @ u, D @ (0.5 * u * u)
            # rounding error relative to the size of the two terms summed
            scale = np.max(np.abs(diffusion)) + np.max(np.abs(advection))
            assert np.max(np.abs(fld.eval(0.0, u) - (diffusion - advection))) <= 1e-14 * scale
        J = fld.jacobian(0.0, u)
        fd = fd_jacobian(fld.eval, 0.0, u)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    def test_reactions_keep_their_bits(self):
        # each reaction fills one (m, npts) array with the arithmetic of the
        # expressions it replaced
        u = self.rng.standard_normal(33)
        got = pde.allen_cahn_reaction().fn(u[None, :])
        assert got.shape == (1, 33) and np.array_equal(got, (u - u * u * u)[None, :])
        a, b = 1.0, 1.8
        x, y = np.abs(self.rng.standard_normal((2, 33))) + 0.5
        xy2 = x * x * y
        got = pde.brusselator_reaction(a, b).fn(np.stack([x, y]))
        assert np.array_equal(got, np.stack([a - (b + 1.0) * x + xy2, b * x - xy2]))

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

    @staticmethod
    def _sparse_reaction_diffusion_jacobian(disc, alphas, reaction, z):
        # the sparse construction: the diffusion matrix's COO entries, plus
        # the (i, j) species coupling on the diagonal of block (i, j)
        m, npts = reaction.n_species, disc.npoints
        D = sp.kron(sp.diags(np.broadcast_to(alphas, (m,))), disc.laplacian).tocoo()
        i, j, k = np.indices((m, m, npts)).reshape(3, -1)
        vals = reaction.jac(z.reshape(m, npts)).ravel()
        return sp.csc_matrix((np.r_[D.data, vals],
                              (np.r_[D.row, i * npts + k], np.r_[D.col, j * npts + k])),
                             shape=D.shape)

    @pytest.mark.parametrize("species,n", [(1, 16), (2, 64)])
    def test_reaction_diffusion_jacobian_is_the_dense_one_sparse(self, species, n):
        disc = pde.build_discretization(n, boundary="neumann")
        if species == 1:
            alphas, r = 0.5, pde.allen_cahn_reaction()
            z = self.rng.standard_normal(n)
        else:
            alphas, r = [1e-3, 0.1], pde.brusselator_reaction(a=1.0, b=1.8)
            z = (r.steady_state[:, None] + 0.3 * self.rng.standard_normal((2, n))).ravel()
        fld = pde.reaction_diffusion_field(disc, alphas, r)
        J = fld.jacobian(0.0, z)
        # dense, with the bits of the sparse construction
        assert isinstance(J, np.ndarray)
        assert np.array_equal(J, self._sparse_reaction_diffusion_jacobian(
            disc, alphas, r, z).toarray())
        # each call copies the stored diffusion matrix
        J[:] = np.nan
        assert np.array_equal(fld.jacobian(0.0, z), self._sparse_reaction_diffusion_jacobian(
            disc, alphas, r, z).toarray())

    def test_poisson_jacobian_is_the_dense_one_sparse(self):
        disc = pde.build_discretization(32, boundary="dirichlet")
        fn, dfn = pde.sine_reaction(5.0)
        u = self.rng.standard_normal(32)
        fld = pde.poisson_gradient_flow(disc, fn, dfn)
        J = fld.jacobian(0.0, u)
        # dense, with the bits of the sparse sum
        assert isinstance(J, np.ndarray)
        assert np.array_equal(J, (disc.laplacian + sp.diags(dfn(u))).toarray())
        J[:] = np.nan
        assert np.array_equal(fld.jacobian(0.0, u), disc.laplacian.toarray() + np.diag(dfn(u)))


class TestHeatExperiment:
    def test_all_checks_pass(self):
        rep, series = pde.heat_zero_flux_experiment(n=16, alpha=1.0, t_end=0.5, seed=0,
                                                    dims=1)
        assert all(c.passed for c in checks_in(rep))
        assert rep["certified"]
        header, cols = series["decay"]
        assert header[0] == "time"

    # seeds whose u0 barely excites the slowest mode, so faster modes set
    # the early decay
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 6, 10, 15, 23, 24, 29,
                                      657035583, 1282648386])
    def test_fitted_decay_matches_certified_rate(self, seed):
        rep, _ = pde.heat_zero_flux_experiment(n=16, alpha=1.0, t_end=0.5, seed=seed,
                                               dims=1)
        (check,) = [c for c in rep["checks"] if c.name == "fitted_decay_within_2pct"]
        assert check.passed
        assert check.value <= 1e-4

    def test_records_match_expm(self, monkeypatch):
        # the records of the experiment's run, at the times fixed-step RK4 at
        # the stability step would record, are e^{t alpha L} u0 to 1e-9
        runs = []

        def spy(fld, u0, *args):
            runs.append((np.array(u0), simulate_flow(fld, u0, *args)))
            return runs[-1][1]

        monkeypatch.setattr(pde, "simulate_flow", spy)
        rep, series = pde.heat_zero_flux_experiment(n=16, alpha=0.7, t_end=0.5, seed=3,
                                                    dims=1)
        ((u0, traj),) = runs
        disc = pde.build_discretization(16, boundary="neumann")
        dt = 0.2 * disc.h**2 / 0.7
        assert np.array_equal(traj.times, rk4_record_times(0.0, 0.5, dt, 2))
        assert np.array_equal(series["decay"][1][0], traj.times)
        L = 0.7 * disc.laplacian.toarray()
        exact = np.array([sla.expm(t * L) @ u0 for t in traj.times])
        assert np.max(np.abs(traj.states - exact)) <= 1e-9
        assert rep["mass_drift"] <= 1e-13

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
        rep, _ = pde.reaction_diffusion_experiment(n=16, alphas=0.5,
                                                   reaction=pde.allen_cahn_reaction(),
                                                   t_end=6.0, seed=0, amplitude=0.05)
        assert rep["certified"]
        assert rep["homogenized"]
        lam = rep["lambda_certified"]
        assert abs(rep["fitted_decay"] - lam) <= 0.1 * abs(lam)

    def test_zero_reaction_reduces_to_heat(self):
        zero = pde.PointwiseReaction(fn=lambda U: np.zeros_like(U),
                                     jac=lambda U: np.zeros((1, 1, U.shape[1])),
                                     n_species=1, name="zero", steady_state=np.zeros(1))
        rep, _ = pde.reaction_diffusion_experiment(n=16, alphas=1.0, reaction=zero,
                                                   t_end=0.5, seed=0, amplitude=1.0)
        assert rep["certified"]
        lam_heat = pde.neumann_second_eigenvalue(16, 1.0 / 16)
        assert rep["fitted_decay"] == pytest.approx(lam_heat, rel=0.02)

    def test_brusselator_turing_counterexample(self):
        r = pde.brusselator_reaction(a=1.0, b=1.8)
        rep, _ = pde.reaction_diffusion_experiment(
            n=64, alphas=[1e-3, 0.1], reaction=r, t_end=60.0, seed=0, amplitude=0.05)
        assert not rep["certified"]
        # condition (2) fails for the activator
        failing = [c for c in rep["checks"] if not c.passed]
        assert any("species_0" in c.name for c in failing)
        assert not rep["homogenized"]
        assert rep["final_qnorm_ratio"] > 0.1

    def test_radau_matches_rk4_reference_brusselator(self):
        # the experiment's solve: LSODA at the times fixed-step RK4 records
        r = pde.brusselator_reaction(a=1.0, b=1.8)
        disc = pde.build_discretization(16, boundary="neumann")
        fld = pde.reaction_diffusion_field(disc, [1e-3, 0.1], r)
        rng = np.random.default_rng(0)
        u0 = (np.repeat(r.steady_state[:, None], 16, axis=1)
              + 0.05 * rng.standard_normal((2, 16))).reshape(-1)
        t_end, dt, every = 10.0, 0.2 * disc.h**2 / 0.1, 25
        ref = integrate(fld, u0, (0.0, t_end), dt=dt, record_every=every)
        traj = integrate(fld, u0, (0.0, ref.times[-1]), rtol=ODE_RTOL, t_eval=ref.times)
        assert np.array_equal(traj.times, ref.times)
        # relative to the state's scale; most of the gap is RK4's own error
        # in the fast initial transient
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-6 * np.max(np.abs(ref.states))

    def test_allen_cahn_run_matches_a_tight_radau_reference(self, monkeypatch):
        # the reaction_diffusion config's run at seed 0, against scipy's Radau at 1e-13
        from scipy.integrate import solve_ivp

        runs = []

        def spy(fld, u0, *args):
            runs.append((fld, np.array(u0), simulate_flow(fld, u0, *args)))
            return runs[-1][2]

        monkeypatch.setattr(pde, "simulate_flow", spy)
        pde.reaction_diffusion_experiment(n=16, alphas=0.5, reaction=pde.allen_cahn_reaction(),
                                          t_end=6.0, seed=0, amplitude=0.05)
        ((fld, u0, traj),) = runs
        ref = solve_ivp(fld.eval, (0.0, traj.times[-1]), u0, method="Radau", rtol=1e-13,
                        atol=1e-13, t_eval=traj.times,
                        jac=fld.jacobian)
        assert np.max(np.abs(traj.states - ref.y.T)) <= 3.9e-9

    def test_report_names_the_integrator(self):
        rep, series = pde.reaction_diffusion_experiment(n=16, alphas=0.5,
                                                        reaction=pde.allen_cahn_reaction(),
                                                        t_end=2.0, seed=0, amplitude=0.05)
        integ = rep["integrator"]
        assert set(integ) == {"method", "rtol", "steps", "nfev", "njev", "bdf_records"}
        assert integ["method"] == "LSODA" and integ["rtol"] == ODE_RTOL
        assert integ["nfev"] >= integ["steps"] > 0 and integ["njev"] >= 1
        assert integ["bdf_records"] >= 1
        # the output grid of RK4 at its stability step: 1,280 steps, every 6th
        times = series["decay"][1][0]
        assert np.array_equal(times, rk4_record_times(0.0, 2.0, 0.2 / 16**2 / 0.5, 6))


class TestPoisson:
    def test_zero_reaction_gives_zero_solution(self):
        zero = (lambda u: np.zeros_like(u), lambda u: np.zeros_like(u))
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=zero, seed=0,
                                                  refinement=(8, 16))
        assert all(c.passed for c in checks_in(rep))
        assert rep["max_residual"] <= 1e-10

    def test_sine_reaction_unique_fixed_point(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=32, reaction=pde.sine_reaction(5.0),
                                                  seed=0, refinement=(8, 16, 32, 64))
        assert rep["certified"]
        assert rep["max_pairwise_distance"] <= 1e-8
        assert rep["max_residual"] <= 1e-8

    def test_supercritical_not_certified_but_runs(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=pde.sine_reaction(30.0),
                                                  seed=0, refinement=(8, 16))
        assert not rep["certified"]
        assert rep["existence_note"] == "existence not certified"

    def test_refinement_monotone_to_continuum(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=pde.sine_reaction(5.0),
                                                  seed=0, refinement=(8, 16, 32, 64))
        lams = rep["refinement"]["lambda"]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[-1] < math.pi**2
        assert lams[-1] == pytest.approx(math.pi**2, rel=5e-3)

    def test_supercritical_fixed_points_disagree(self):
        # the stacked run still finds distinct fixed points when f expands
        # faster than the Poincare constant, and agreement then fails
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=pde.sine_reaction(30.0),
                                                  seed=0, refinement=(8, 16))
        (agree,) = [c for c in rep["checks"] if c.name == "fixed_point_agreement"]
        assert not agree.passed and agree.value == rep["max_pairwise_distance"] > 1.0
        assert rep["max_residual"] <= 1e-8

    def test_stacked_flow_is_the_one_copy_flow_blockwise(self):
        disc = pde.build_discretization(16, boundary="dirichlet")
        fn, dfn = pde.sine_reaction(5.0)
        one = pde.poisson_gradient_flow(disc, fn, dfn)
        stacked = pde.poisson_gradient_flow(disc, fn, dfn, 3)
        us = np.random.default_rng(3).standard_normal((3, 16))
        z = us.ravel()
        assert stacked.dim == 48
        assert np.array_equal(stacked.eval(0.0, z),
                              np.concatenate([one.eval(0.0, u) for u in us]))
        J = stacked.jacobian(0.0, z)
        assert np.array_equal(J, sla.block_diag(*[one.jacobian(0.0, u) for u in us]))

    def test_single_initial_state(self):
        # the experiment stacks _POISSON_N_INIT flows; one flow alone, run as
        # the experiment runs it, reaches a fixed point too, and two such
        # runs from different single states agree
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=pde.sine_reaction(5.0),
                                                  seed=0, refinement=(8, 16))
        assert rep["certified"] and rep["max_pairwise_distance"] <= 1e-8
        assert rep["max_residual"] <= 1e-8 and rep["integrator"]["steps"] > 0
        disc = pde.build_discretization(16, boundary="dirichlet")
        fld = pde.poisson_gradient_flow(disc, *pde.sine_reaction(5.0))
        rng = np.random.default_rng(0)
        ends = [integrate(fld, rng.standard_normal(16), (0.0, pde._POISSON_T_MAX),
                          rtol=ODE_RTOL).final_state for _ in range(2)]
        assert max(np.linalg.norm(fld.eval(0.0, u)) for u in ends) <= 1e-8
        assert np.linalg.norm(ends[0] - ends[1]) <= 1e-8

    def test_report_names_the_integrator(self):
        rep, _ = pde.nonlinear_poisson_experiment(n=16, reaction=pde.sine_reaction(5.0),
                                                  seed=0, refinement=(8, 16))
        integ = rep["integrator"]
        assert integ["method"] == "LSODA" and integ["rtol"] == ODE_RTOL
        assert integ["nfev"] >= integ["steps"] > 0 and integ["njev"] >= 1
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


def _diffusion_family(disc, op, diffusivity):
    """Regularized family whose level eps is u_t = diffusivity(eps) op u:
    f_eps(*levels) is block diagonal, one block per level."""
    def f_eps(*levels):
        return linear_field(sp.block_diag([diffusivity(e) * op for e in levels], format="csr"))

    return pde.RegularizedFamily(f_eps=f_eps, eps_schedule=(0.1, 0.05, 0.025, 0.0125),
                                 grid=disc.grid)


class TestStackedFamily:
    """field(e1, e2) runs its two copies with the arithmetic of one-level runs."""

    @pytest.mark.parametrize("family,levels", [
        (lambda: pde.burgers_family(64, EPS_SCHEDULE), (0.025, 0.0125)),
        (lambda: pde.burgers_family(64, EPS_SCHEDULE), (0.0, 0.0)),
        (lambda: pde.advection_family(64, 1.0, EPS_SCHEDULE), (0.05, 0.025)),
    ], ids=["burgers_centered", "burgers_upwind", "advection"])
    def test_copies_match_one_level_runs_bit_for_bit(self, family, levels):
        fam = family()
        x = np.arange(64) / 64
        # the copies meet where one is 0 and the other -1, so a flux that
        # leaks across the seam shows
        u0s = [np.sin(2 * np.pi * x), -np.cos(2 * np.pi * x)]
        fld = fam.field(*levels)
        assert fld.dim == 128
        stacked = integrate(fld, np.concatenate(u0s), (0.0, 0.05), dt=2e-4,
                            record_every=25)
        for i, (eps, u0) in enumerate(zip(levels, u0s)):
            one = integrate(fam.field(eps), u0, (0.0, 0.05), dt=2e-4, record_every=25)
            assert np.array_equal(stacked.times, one.times)
            assert np.array_equal(stacked.states[:, 64 * i:64 * (i + 1)], one.states)

    def test_one_level_burgers_is_burgers_field(self):
        fam = pde.burgers_family(n=64, eps_schedule=(0.1, 0.05, 0.01, 0.0))
        disc = pde.build_discretization(64, boundary="periodic")
        u = np.random.default_rng(6).standard_normal(64)
        for eps, scheme in ((0.05, "centered"), (0.0, "upwind")):
            assert np.array_equal(fam.field(eps).eval(0.0, u),
                                  pde.burgers_field(disc, eps, scheme=scheme).eval(0.0, u))
        assert np.array_equal(fam.field(0.05).jacobian(0.0, u),
                              pde.burgers_field(disc, 0.05).jacobian(0.0, u))

    def test_shipped_vanishing_osl_stacks_levels_of_one_step(self, monkeypatch):
        # 17, 9, 7 and 7 substeps per record: the two levels of 7 run as one
        # integration, and so does the translation-invariance pair
        calls = []
        step = flows._rk4_step

        def counted(f, t, u, dt):
            calls.append(u.size)
            return step(f, t, u, dt)

        monkeypatch.setattr(flows, "_rk4_step", counted)
        name, seed, _, params = cli.parse_config(os.path.join(CONFIG_DIR, "vanishing_osl.cfg"))
        rep, _ = cli.EXPERIMENTS[name].runner(params, seed)
        assert sorted(rep["dt_per_eps"].values()) == [0.0025 / k for k in (17, 9, 7, 7)]
        assert len(calls) == 6610
        assert calls.count(512) == 200 * 7 + 10 and calls.count(256) == 200 * (17 + 9)


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
        fam = pde.burgers_family(n=64, eps_schedule=EPS_SCHEDULE)
        rng = np.random.default_rng(2)
        u = np.sin(2 * np.pi * np.arange(64) / 64) + 0.1 * rng.standard_normal(64)
        f0 = fam.field(0.0)
        # same centered scheme at eps = 0 for the pointwise-limit probe
        disc = pde.build_discretization(64, boundary="periodic")
        f0c = pde.burgers_field(disc, 0.0, scheme="centered")
        res = [np.linalg.norm(fam.field(e).eval(0.0, u) - f0c.eval(0.0, u))
               for e in fam.eps_schedule]
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_constant_family_differences_zero(self, monkeypatch):
        monkeypatch.setattr(pde, "_N_OUT", 20)
        disc = pde.build_discretization(32, boundary="periodic")
        fam = _diffusion_family(disc, disc.laplacian, lambda e: 0.05)
        u0 = np.sin(2 * np.pi * np.arange(32) / 32)
        rep, _ = pde.vanishing_osl_experiment(fam, u0, p=2.0, t_end=0.1, lambda_bound=None,
                                              seed=0)
        assert all(d <= 1e-14 for d in rep["successive_differences"])
        (shift,) = [h for h in rep["hypotheses"] if h.name == "translation_invariance"]
        assert shift.passed

    def test_translation_invariance_fails_for_diffusion_varying_in_space(self, monkeypatch):
        # u_t = eps c(x) u_xx does not commute with grid shifts: the stacked
        # shifted and unshifted pair must tell
        monkeypatch.setattr(pde, "_N_OUT", 20)
        disc = pde.build_discretization(32, boundary="periodic")
        x = np.arange(32) / 32
        c = sp.diags(1.0 + 0.5 * np.sin(2 * np.pi * x))
        fam = _diffusion_family(disc, c @ disc.laplacian, lambda e: e)
        u0 = np.sin(2 * np.pi * x) + 0.5 * np.cos(6 * np.pi * x)
        rep, _ = pde.vanishing_osl_experiment(fam, u0, p=2.0, t_end=0.1, lambda_bound=None,
                                              seed=0)
        (shift,) = [h for h in rep["hypotheses"] if h.name == "translation_invariance"]
        assert not shift.passed and shift.value > 1e-6
        assert "translation_invariance" in rep["hypotheses_failed"]

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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "_N_OUT", 20)
            return pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x), p=2.0, t_end=0.1,
                                                lambda_bound=lambda_bound, seed=0)[0]

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

    def test_burgers_small_scale(self, monkeypatch):
        monkeypatch.setattr(pde, "_N_OUT", 80)
        fam = pde.burgers_family(n=96, eps_schedule=EPS_SCHEDULE)
        x = np.arange(96) / 96
        rep, series = pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x), p=2.0,
                                                   t_end=0.4, lambda_bound=None, seed=0)
        assert rep["cauchy_trend"].passed
        assert not rep["hypotheses_failed"]
        assert rep["rate_trend_increasing"]
        assert rep["grid"]["n"] == 96

    def test_weak_residual_improves_under_joint_refinement(self, monkeypatch):
        monkeypatch.setattr(pde, "_N_OUT", 80)

        def run(n, schedule):
            fam = pde.burgers_family(n=n, eps_schedule=schedule)
            x = np.arange(n) / n
            rep, _ = pde.vanishing_osl_experiment(fam, np.sin(2 * np.pi * x), p=2.0,
                                                  t_end=0.4, lambda_bound=None, seed=0)
            return rep["max_weak_residual"]

        coarse = run(96, (0.08, 0.04, 0.02, 0.01))
        fine = run(192, (0.04, 0.02, 0.01, 0.005))
        assert fine < coarse

    def test_validation(self):
        fam = pde.burgers_family(n=64, eps_schedule=(0.1, 0.05))
        with pytest.raises(ContractViolation):
            pde.vanishing_osl_experiment(fam, np.zeros(64), 2.0, 0.5, None, 0)
        disc = pde.build_discretization(16, boundary="neumann")
        fam2 = _diffusion_family(disc, disc.laplacian, lambda e: e)
        with pytest.raises(ContractViolation):
            pde.vanishing_osl_experiment(fam2, np.zeros(16), 2.0, 0.5, None, 0)

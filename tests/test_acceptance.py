"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from contractkit import cli, flows, geometry, pde, sampling, systems, weights
from contractkit.measures import mu, mu_fd_oracle, weighted_rate
from contractkit.sip import L1, L2, LINF, NormSpec, norm, sip
from test_sip import sip_fd_oracle

P_SET = [1.0, 1.5, 2.0, 3.0, np.inf]
SHEAR = np.array([[-1.0, 10.0], [0.0, -1.0]])


def random_stable_matrix(rng, n, margin=0.5):
    """Random matrix shifted so its spectral abscissa is about -margin."""
    A = rng.standard_normal((n, n))
    alpha = np.max(np.real(np.linalg.eigvals(A)))
    return A - (alpha + margin) * np.eye(n)


@contextmanager
def criterion(num, desc):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [FAIL] {desc} ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:2d} [PASS] {desc} ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_semi_inner_product_axioms():
    with criterion(1, "semi-inner-product axioms and oracle agreement"):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        for p in P_SET:
            spec = NormSpec(p=p)
            for _ in range(500):
                u = rng.standard_normal(8)
                v = rng.standard_normal(8)
                a = float(rng.uniform(0.0, 4.0))
                nu = norm(u, spec)
                # item 2: [u, u] = ||u||^2
                assert abs(sip(u, u, spec) - nu**2) <= 1e-10 * max(1.0, nu**2)
                # item 3: Cauchy-Schwarz
                s_uv = sip(u, v, spec)
                bound = (nu * norm(v, spec)) ** 2
                assert s_uv**2 <= bound * (1.0 + 1e-10)
                # item 4: subadditivity in the second slot
                w = rng.standard_normal(8)
                lhs = sip(u, v + w, spec)
                rhs = s_uv + sip(u, w, spec)
                assert lhs <= rhs + 1e-10 * max(1.0, abs(lhs), abs(rhs))
                # item 5: nonnegative homogeneity, both slots
                scale = max(1.0, abs(s_uv)) * max(a, 1.0)
                assert abs(sip(a * u, v, spec) - a * s_uv) <= 1e-10 * scale
                assert abs(sip(u, a * v, spec) - a * s_uv) <= 1e-10 * scale
            for _ in range(100):
                u = rng.standard_normal(6)
                v = rng.standard_normal(6)
                got = sip_fd_oracle(u, v, spec)
                scale = max(1.0, norm(u, spec) * norm(v, spec))
                assert abs(sip(u, v, spec) - got.value) <= 1e-6 * scale
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_matrix_measure_oracle():
    with criterion(2, "matrix-measure closed forms vs difference-quotient oracle"):
        t0 = time.monotonic()
        rng = np.random.default_rng(102)
        for spec in (L1, L2, LINF):
            for _ in range(50):
                n = int(rng.integers(2, 6))
                A = rng.standard_normal((n, n))
                closed = mu(A, spec).value
                got = mu_fd_oracle(A, spec)
                assert abs(closed - got.value) <= 1e-4
                alpha = float(np.max(np.real(np.linalg.eigvals(A))))
                assert closed >= alpha - 1e-10
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_generalized_jacobian_identity():
    with criterion(3, "weighted rate equals measure of the generalized Jacobian"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Th = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
            w = weights.constant_matrix(Th)
            lhs = weighted_rate(A, w, spec=L2).value
            rhs = mu(Th @ A @ np.linalg.inv(Th), L2).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_criterion_4_growth_bound():
    with criterion(4, "perturbation growth bound, weighted and pairwise"):
        rng = np.random.default_rng(104)
        for k in range(20):
            n = int(rng.integers(2, 6))
            A = random_stable_matrix(rng, n, margin=0.3)
            rep = flows.verify_growth_bound(
                A, weights.identity(), L2, rng.standard_normal(n),
                rng.standard_normal(n), (0.0, 5.0), 1e-3, record_every=25)
            assert rep["max_weighted_ratio"] <= 1.0 + 1e-4
            assert rep["max_pair_ratio"] <= 1.0 + 1e-4
        th = weights.diagonal([0.01, 1.0])
        rep = flows.verify_growth_bound(SHEAR, th, L2, np.zeros(2),
                                        np.array([0.2, 1.0]), (0.0, 10.0), 1e-3,
                                        record_every=25)
        assert rep["lambda_sup"] == pytest.approx(-0.95)
        assert rep["max_weighted_ratio"] <= 1.0 + 1e-4
        assert rep["kappa"] == pytest.approx(100.0)
        assert rep["max_pair_ratio"] <= 1.0 + 1e-4


def test_criterion_5_mle_bounds():
    with criterion(5, "Lyapunov exponent below the measure and the radius-b rate"):
        t0 = time.monotonic()
        rng = np.random.default_rng(105)
        b = 1.01
        origin = lambda n: sampling.states([np.zeros(n)])
        for k in range(10):
            n = int(rng.integers(2, 5))
            # normal (symmetric) stable system: the b^2 lambda_b bound is
            # only informative for weights near the identity
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            evals = -rng.uniform(0.2, 1.5, n)
            A = q @ np.diag(evals) @ q.T
            est2 = flows.mle_estimate(A, np.zeros(n), (0.0, 60.0), 0.5,
                                      p=2.0, seed=k)
            for p in (1.0, 2.0, np.inf):
                est_p = flows.mle_estimate(A, np.zeros(n), (0.0, 60.0), 0.5,
                                           p=p, seed=k)
                assert est_p.value <= mu(A, NormSpec(p=p)).value + 0.05
            lam_b = weights.optimize_diagonal_weight(A, L2, b=b,
                                                     sampler=origin(n)).lambda_b
            assert est2.value <= b**2 * lam_b + 0.05
            assert est2.value <= lam_b + 0.05
        # non-normal systems: the limit form of the bound
        for k in range(10):
            n = int(rng.integers(2, 5))
            A = random_stable_matrix(rng, n, margin=0.3)
            est = flows.mle_estimate(A, np.zeros(n), (0.0, 100.0), 0.5,
                                     p=2.0, seed=k)
            lam_b = weights.optimize_diagonal_weight(A, L2, b=b,
                                                     sampler=origin(n)).lambda_b
            assert est.value <= lam_b + 0.05
        assert time.monotonic() - t0 < 15.0


def test_criterion_6_heat_zero_flux():
    with criterion(6, "zero-flux heat: certified rate, fitted decay, mass"):
        rep, _ = pde.heat_zero_flux_experiment(n=16, alpha=1.0, t_end=0.5, seed=0, dims=1)
        lam_formula = -1.0 * (2.0 * 16**2) * (1.0 - np.cos(np.pi / 16))
        assert rep["rate"].value == pytest.approx(lam_formula, rel=1e-8)
        assert abs(rep["fitted_decay"] - rep["rate"].value) <= 0.02 * abs(rep["rate"].value)
        assert rep["mass_drift"] <= 1e-10
        assert rep["certified"]


def test_criterion_7_reaction_diffusion():
    with criterion(7, "reaction-diffusion homogenization and its counter-example"):
        rep, _ = pde.reaction_diffusion_experiment(n=16, alphas=0.5,
                                                   reaction=pde.allen_cahn_reaction(),
                                                   t_end=6.0, seed=0, amplitude=0.05)
        mqd = abs(pde.neumann_second_eigenvalue(16, 1.0 / 16))
        assert 0.5 * mqd > 1.0  # homogenizing regime
        assert rep["certified"]
        assert rep["fitted_decay"] < 0
        lam = rep["lambda_certified"]
        assert abs(rep["fitted_decay"] - lam) <= 0.1 * abs(lam)
        r = pde.brusselator_reaction(a=1.0, b=1.8)
        rep2, _ = pde.reaction_diffusion_experiment(
            n=64, alphas=[1e-3, 0.1], reaction=r, t_end=60.0, seed=0, amplitude=0.05)
        assert not rep2["certified"]
        assert rep2["final_qnorm_ratio"] > 0.1


def test_criterion_8_nonlinear_poisson():
    with criterion(8, "nonlinear Poisson: unique fixed point and refinement trend"):
        rep, _ = pde.nonlinear_poisson_experiment(n=32, reaction=pde.sine_reaction(5.0),
                                                  seed=0, refinement=(8, 16, 32, 64))
        assert rep["certified"]  # c = 5 < discrete Poincare constant
        assert rep["max_pairwise_distance"] <= 1e-8
        assert rep["max_residual"] <= 1e-8
        lams = rep["refinement"]["lambda"]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert abs(lams[-1] - np.pi**2) < abs(lams[0] - np.pi**2)


def test_criterion_9_limit_cycle():
    with criterion(9, "limit-cycle certificate, decay exponent, conjugate period"):
        sub = systems.circle_submersion()
        rng = np.random.default_rng(109)
        band = []
        while len(band) < 24:
            u = rng.uniform(-1.2, 1.2, 2)
            if 0.8 <= np.linalg.norm(u) <= 1.2:
                band.append((0.0, u))
        ics = [np.array([0.5, 0.0]), np.array([0.0, -1.5]), np.array([0.9, 0.9])]
        sim = geometry.SimCheck(t_end=60.0, dt=5e-3, seed=1, record_every=10, ics=ics)
        rep = geometry.certify_limit_cycle(systems.hopf_field(), sub,
                                           geometry.Conjugacy.identity(), tau=None,
                                           sampler=band, sim=sim)
        assert rep["certified"]
        assert all(c.passed for c in rep["checks"])
        for fit in rep["sim"]["fits"]:
            assert fit["fitted"] <= -0.8
        period_plain = rep["sim"]["period"]
        assert period_plain == pytest.approx(2.0 * np.pi, rel=0.01)

        S = np.array([[1.0, 0.8], [0.0, 1.0]])
        fld = systems.conjugated_field(systems.hopf_field(), S)
        conj = geometry.Conjugacy.linear(S)
        simS = geometry.SimCheck(t_end=60.0, dt=5e-3, seed=1, record_every=10,
                                 ics=[np.linalg.solve(S, v) for v in ics])
        repS = geometry.certify_limit_cycle(fld, sub, conj, tau=None,
                                            sampler=band, sim=simS)
        assert repS["certified"]
        assert repS["sim"]["period"] == pytest.approx(period_plain, rel=0.01)
        traj = flows.integrate(fld, np.linalg.solve(S, ics[0]), (0.0, 60.0),
                               dt=5e-3, record_every=100)
        assert np.linalg.norm(S @ traj.final_state) == pytest.approx(1.0, abs=1e-4)


def test_criterion_10_phase_locking():
    with criterion(10, "phase locking: common period, constant phases, control"):
        mats = [np.eye(2), np.array([[1.4, 0.5], [0.0, 0.8]]),
                np.array([[0.7, 0.0], [0.3, 1.2]])]
        sub = systems.circle_submersion()
        rng = np.random.default_rng(110)
        leader_band = []
        while len(leader_band) < 20:
            u = rng.uniform(-1.2, 1.2, 2)
            if 0.85 <= np.linalg.norm(u) <= 1.2:
                leader_band.append((0.0, u))
        leader = geometry.certify_limit_cycle(systems.hopf_field(), sub,
                                              geometry.Conjugacy.identity(),
                                              tau=None, sampler=leader_band)
        assert leader["certified"]

        def torus_samples(n_osc):
            out = []
            for _ in range(20):
                th = rng.uniform(0.0, 2.0 * np.pi)
                base = np.array([np.cos(th), np.sin(th)])
                vs = np.concatenate([base + 0.1 * rng.standard_normal(2)
                                     for _ in range(n_osc)])
                us = np.concatenate([np.linalg.solve(mats[i], vs[2 * i:2 * i + 2])
                                     for i in range(n_osc)])
                out.append((0.0, us))
            return out

        proj_w = geometry.rotation_subspace_projector(3)
        sim = geometry.SimCheck(t_end=80.0, dt=2e-3, n_ic=1, seed=2, ic_scale=0.4,
                                record_every=25)
        coupled = systems.coupled_hopf_field([1.0] * 3, mats, coupling=0.4)
        rep = geometry.certify_phase_locking(
            coupled, [geometry.Conjugacy.linear(M) for M in mats], proj_w,
            sampler=torus_samples(3), leader=leader, sim=sim)
        assert rep["certified"]
        periods = np.asarray(rep["sim"]["periods"])
        assert np.max(periods) - np.min(periods) <= 0.01 * np.mean(periods)
        assert np.mean(periods) == pytest.approx(2.0 * np.pi, rel=0.01)
        assert rep["sim"]["phase_drift_final_quarter"] < 1e-3

        control = systems.coupled_hopf_field([1.0, 1.13, 0.91], mats, coupling=0.0)
        rep0 = geometry.certify_phase_locking(
            control, [geometry.Conjugacy.linear(M) for M in mats], proj_w,
            sampler=torus_samples(3), leader=leader, sim=sim)
        assert not rep0["certified"]
        p0 = np.asarray(rep0["sim"]["periods"])
        assert np.max(p0) - np.min(p0) > 0.01 * np.mean(p0)


def test_criterion_11_vanishing_regularization():
    with criterion(11, "vanishing-regularization Burgers: Cauchy trend, weak residual"):
        t0 = time.monotonic()
        fam = pde.burgers_family(n=256, eps_schedule=(0.05, 0.025, 0.0125, 0.00625))
        x = np.arange(256) / 256.0
        assert pde._N_OUT == 200
        rep, _ = pde.vanishing_osl_experiment(fam, np.sin(2.0 * np.pi * x), p=2.0,
                                              t_end=0.5, lambda_bound=None, seed=0)
        eps = rep["eps_schedule"]
        assert len(eps) == 4
        assert all(e2 == pytest.approx(e1 / 2) for e1, e2 in zip(eps, eps[1:]))
        diffs = rep["successive_differences"]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert len(rep["weak_residuals"]) == 10
        assert rep["max_weak_residual"] <= 1e-2
        assert not rep["hypotheses_failed"]
        assert time.monotonic() - t0 < 300.0


QUICK_CONFIGS = {
    "measure": "matrix = -2 1; 0 -3\np = 1\n",
    "weighted_rate": "matrix = -1 10; 0 -1\nweight_kind = diagonal\nweight_diag = 0.01 1\n",
    "optimize_weight": "matrix = -1 10; 0 -1\nb = 50\n",
    "growth_bound": ("matrix = -1 10; 0 -1\nweight_kind = diagonal\n"
                     "weight_diag = 0.01 1\nt_end = 4\ndt = 1e-3\n"),
    "mle": "matrix = -1 0; 0 -2\nt_end = 10\nrenorm_interval = 0.5\n",
    "subspace": "n = 8\nt_end = 0.2\n",
    "manifold": "t_end = 15\ndt = 0.01\n",
    "symmetry": "kind = spatial\nn = 8\nt_end = 3\n",
    "limit_cycle": "t_end = 25\ndt = 0.01\n",
    "phase_locking": "n_oscillators = 2\nt_end = 30\ndt = 5e-3\n",
    "heat": "n = 16\nt_end = 0.3\n",
    "reaction_diffusion": "n = 16\nt_end = 2\n",
    "poisson": "n = 16\nrefinement = 8 16\n",
    "sobolev_rate": "system = transport\nn = 32\nk = 2\n",
    "vanishing_osl": ("family = burgers\nn = 64\neps_schedule = 0.08 0.04 0.02 0.01\n"
                      "t_end = 0.1\n"),
}


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "every experiment re-run is byte-identical in CSV outputs"):
        for name, body in QUICK_CONFIGS.items():
            outputs = []
            for run_id in ("a", "b"):
                out = tmp_path / name / run_id
                cfg = tmp_path / f"{name}_{run_id}.cfg"
                cfg.write_text(
                    f"[experiment]\nname = {name}\nseed = 7\n"
                    f"output_dir = {out}\n\n[params]\n{body}")
                code = cli.run(str(cfg))
                assert code in (0, 2), f"{name} exited {code}"
                csvs = sorted(f.name for f in out.glob("*.csv"))
                assert csvs, f"{name} wrote no CSV series"
                outputs.append({f: (out / f).read_bytes() for f in csvs})
            assert outputs[0].keys() == outputs[1].keys(), name
            for fname in outputs[0]:
                assert outputs[0][fname] == outputs[1][fname], f"{name}/{fname}"

"""Experiment orchestration: strict config parsing, seeded runners for all
experiments, and deterministic report/CSV emission.

Every runner returns ``(report, series)``.  A runner that certifies ends in
``reporting.verdict``: the certificate is granted exactly when its report
holds at least one ``Check`` and every one of them passed, and the run
prints exactly those checks.

Exit codes: 0 success, 2 certificate withheld (a check in the report failed
but the run completed), 1 parse/validation/numerical error.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import flows, geometry, measures, pde, sampling, systems, weights
from .errors import ConfigError, ContractkitError
from .measures import mu, mu_fd_oracle, weighted_rate
from .reporting import Check, checks_in, jsonify, verdict, write_csv, write_report
from .sip import L2, NormSpec
from .sip import norm as sip_norm

_REQUIRED = object()


@dataclass
class Param:
    type: str
    default: object = _REQUIRED
    help: str = ""
    choices: tuple = None
    positive: bool = False


def _parse_matrix(text):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    mat = [[float(x) for x in r.replace(",", " ").split()] for r in rows]
    if len({len(r) for r in mat}) != 1:
        raise ValueError("ragged matrix rows")
    return np.asarray(mat)


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    "floats": lambda s: [float(x) for x in s.replace(",", " ").split()],
    "ints": lambda s: [int(x) for x in s.replace(",", " ").split()],
    "matrix": _parse_matrix,
}


def _coerce(name, param, raw):
    try:
        val = _PARSERS[param.type](raw)
    except Exception as exc:
        raise ConfigError(f"field '{name}': cannot parse {raw!r} as {param.type}",
                          field=name) from exc
    if param.choices is not None and val not in param.choices:
        raise ConfigError(f"field '{name}': {val!r} not in {param.choices}", field=name)
    if param.positive:
        vals = np.atleast_1d(np.asarray(val, dtype=float))
        if np.any(vals <= 0):
            raise ConfigError(f"field '{name}': must be positive", field=name)
    return val


# ---------------------------------------------------------------------------
# experiment runners: (params, seed) -> (report, series); a report that
# certifies carries its verdict from reporting.verdict
# ---------------------------------------------------------------------------

def _run_measure(p, seed):
    A = p["matrix"]
    spec = NormSpec(p=p["p"])
    est = mu(A, spec, seed=seed)
    report = {"rate": est}
    series = {}
    if A.shape[0] <= 6:
        hs = np.geomspace(1e-2, 1e-6, 9)
        orc = mu_fd_oracle(A, spec, h_list=hs, seed=seed)
        report["oracle"] = {"value": orc.value, "converged": orc.converged}
        report["oracle_gap"] = abs(orc.value - est.value)
        series["oracle"] = (["time", "h", "quotient"],
                            [np.arange(len(hs), dtype=float), hs, orc.quotients])
    return report, series


def _make_weight_from_params(p, dim):
    kind = p["weight_kind"]
    if kind == "identity":
        return weights.identity()
    if kind in ("diagonal", "constant"):
        key = "weight_diag" if kind == "diagonal" else "weight_matrix"
        if p.get(key) is None:
            raise ConfigError(f"field '{key}': required for {kind} weights", field=key)
        return (weights.diagonal if kind == "diagonal" else weights.constant_matrix)(p[key])
    if kind == "projection_mean":
        return geometry.Projector.mean(dim).weight()
    raise ConfigError(f"unknown weight kind {kind}", field="weight_kind")


def _run_weighted_rate(p, seed):
    A = p["matrix"]
    spec = NormSpec(p=p["p"])
    th = _make_weight_from_params(p, A.shape[0])
    est = weighted_rate(A, th, spec=spec, seed=seed)
    report = {"rate": est, "weight_kind": th.kind}
    if th.invertible:
        Th = th.matrix(0.0, None, A.shape[0])
        Ti = th.inv_matrix(0.0, None, A.shape[0])
        cross = mu(Th @ A @ Ti, spec, seed=seed)
        report["generalized_jacobian_rate"] = cross
        report["identity_gap"] = abs(cross.value - est.value)
    series = {"rate": (["time", "value"], [np.zeros(1), np.array([est.value])])}
    return report, series


def _run_optimize_weight(p, seed):
    A = p["matrix"]
    spec = NormSpec(p=p["p"])
    res = weights.optimize_diagonal_weight(
        A, spec=spec, b=p["b"], sampler=sampling.states([np.zeros(A.shape[0])]),
        seed=seed)
    report = {
        "lambda_b": res.lambda_b,
        "b": res.b,
        "transient_bound": res.transient_bound,
        "iterations": res.iterations,
        "best_diagonal": list(res.best_weight.params["entries"]),
        "note": "diagonal upper bound on the radius-b rate",
    }
    hist = np.asarray(res.history)
    series = {"iterations": (["time", "lambda"],
                             [np.arange(len(hist), dtype=float), hist])}
    return report, series


# the growth and pair ratios may exceed 1 by this much (integration and
# quadrature error)
_GROWTH_RATIO_TOL = 1e-4


def _run_growth_bound(p, seed):
    A = p["matrix"]
    n = A.shape[0]
    th = _make_weight_from_params(p, n)
    spec = NormSpec(p=p["p"])
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n)
    du0 = rng.standard_normal(n)
    rep = flows.verify_growth_bound(A, th, spec, u0, du0,
                                    (0.0, p["t_end"]), p["dt"])
    checks = [
        Check.leq("weighted_growth_ratio", rep["max_weighted_ratio"], 1.0 + _GROWTH_RATIO_TOL),
        Check.leq("pair_distance_ratio", rep["max_pair_ratio"], 1.0 + _GROWTH_RATIO_TOL),
    ]
    report = {
        "lambda_sup": rep["lambda_sup"],
        "kappa": rep["kappa"],
        "advisory": rep["advisory"],
        "transient_bound": rep["transient_bound"],
        "contracted_after_tb": rep["contracted_after_tb"],
        "rate_solves": rep["rate_solves"],
        "integrator": rep["integrator"],
        "checks": checks,
    }
    series = {
        "ratios": (["time", "weighted_ratio"], [rep["times"], rep["weighted_ratios"]]),
        "pair": (["time", "distance"], [rep["pair_times"], rep["pair_distances"]]),
    }
    return verdict(report), series


def _run_mle(p, seed):
    A = p["matrix"]
    res = flows.mle_estimate(A, np.zeros(A.shape[0]), (0.0, p["t_end"]),
                             p["renorm_interval"], p=p["p"], seed=seed)
    mu_p = mu(A, NormSpec(p=p["p"]), seed=seed)
    report = {
        "mle": res.value,
        "converged": res.converged,
        "mu_p": mu_p,
        "mle_below_mu": bool(res.value <= mu_p.value + 0.05),
        "integrator": res.integrator,
    }
    series = {"history": (["time", "running_estimate"], [res.times, res.history])}
    return report, series


def _run_subspace(p, seed):
    disc = pde.build_discretization(p["n"], boundary="neumann")
    fld = pde.heat_field(disc, p["alpha"])
    proj = geometry.Projector.mean(disc.npoints)
    rng = np.random.default_rng(seed)
    sampler = sampling.gaussian_samples(8, disc.npoints, seed=seed)
    dt = 0.2 * disc.h**2 / p["alpha"]
    sim = geometry.SimCheck(t_end=p["t_end"], dt=dt, n_ic=3, seed=seed,
                            record_every=max(1, int(p["t_end"] / dt / 200)))
    rep = geometry.certify_subspace_contraction(fld, proj, spec=L2,
                                                sampler=sampler, sim=sim,
                                                grid=disc.grid, seed=seed)
    traj = geometry.simulate(fld, rng.standard_normal(disc.npoints), sim)
    qn = sip_norm(proj.q_rows(traj.states), L2, disc.grid, rows=True)
    series = {"decay": (["time", "q_norm"], [traj.times, qn])}
    return rep, series


def _band_sampler(p, n_samples, seed):
    """lo of ``radial_band`` (two values, 0 <= lo < hi) and the first 24 of
    ``n_samples`` seeded box samples whose radius lies in the band."""
    lo, hi = p["radial_band"]
    raw = sampling.box_samples(n_samples, [-hi, -hi], [hi, hi], seed=seed)
    return lo, [(t, u) for t, u in raw if lo <= np.linalg.norm(u) <= hi][:24]


def _run_manifold(p, seed):
    fld = systems.hopf_field(omega=p["omega"], gain=p["gain"])
    sub = systems.circle_submersion()
    lo, sampler = _band_sampler(p, 60, seed)
    sim = geometry.SimCheck(t_end=p["t_end"], dt=p["dt"], n_ic=3, seed=seed,
                            ic_scale=0.4, record_every=10)
    rep = geometry.certify_manifold_contraction(fld, sub, spec=L2,
                                                sampler=sampler, sim=sim, seed=seed)
    rng = np.random.default_rng(seed)
    u0 = np.array([lo, 0.0]) + 0.01 * rng.standard_normal(2)
    traj = geometry.simulate(fld, u0, sim)
    dist = np.abs(sub.values(traj.states)[:, 0])
    series = {"decay": (["time", "level_residual"], [traj.times, dist])}
    return rep, series


def _run_symmetry(p, seed):
    if p["kind"] == "spatial":
        disc = pde.build_discretization(p["n"], boundary="periodic")
        fld = pde.heat_field(disc, p["alpha"])
        shifts = [np.roll(np.eye(disc.npoints), s, axis=0) for s in p["shifts"]]
        sampler = sampling.gaussian_samples(6, disc.npoints, seed=seed)
        rep = geometry.check_equivariance(fld, shifts, sampler)
        rng = np.random.default_rng(seed)
        dt = 0.2 * disc.h**2 / p["alpha"]
        traj = flows.simulate_flow(fld, rng.standard_normal(disc.npoints),
                                   (0.0, p["t_end"]), dt,
                                   max(1, int(p["t_end"] / dt / 100)))
        u_inf = traj.final_state
        inv_res = max(float(np.linalg.norm(T @ u_inf - u_inf)) for T in shifts)
        inv_check = Check.leq("limit_state_invariance", inv_res, 1e-6)
        rep["limit_invariance"] = {"check": inv_check.name, "max_residual": inv_res}
        rep["checks"] = rep["checks"] + [inv_check]
        series = {"limit": (["time", "state_spread"], [traj.times, np.ptp(traj.states, axis=1)])}
        return verdict(rep), series
    # temporal: scalar relaxation with periodic forcing
    tau = p["tau"]
    forcing_period = p["forcing_period"]
    fld = flows.VectorField(f=lambda t, u: -u + np.sin(2.0 * math.pi * t / forcing_period),
                            jac=lambda t, u: -np.eye(1), dim=1, name="forced_relaxation")
    sampler = sampling.gaussian_samples(8, 1, t_range=(0.0, 3.0), seed=seed)
    # the check records at t = m tau and reads no step
    sim = geometry.SimCheck(t_end=p["t_end"], dt=None, n_ic=1, seed=seed)
    rate = measures.nonlinear_rate(fld, weights.identity(), spec=L2,
                                   sampler=sampler, seed=seed)
    rep = geometry.check_temporal_symmetry(fld, tau, sampler, sim=sim, rate=rate)
    diffs = rep["sim"]["snapshot_diffs"]
    series = {"snapshots": (["time", "snapshot_diff"],
                            [np.arange(len(diffs), dtype=float), diffs])}
    return verdict(rep), series


def _run_limit_cycle(p, seed):
    base = systems.hopf_field(omega=p["omega"], gain=p["gain"])
    sub = systems.circle_submersion()
    if p.get("shear") is not None:
        M = p["shear"]
        fld = systems.conjugated_field(base, M)
        conj = geometry.Conjugacy.linear(M)
    else:
        fld = base
        conj = geometry.Conjugacy.identity()
    _, sampler = _band_sampler(p, 80, seed)
    rng = np.random.default_rng(seed)
    ics = [np.linalg.solve(conj.linear_matrix, v) if conj.linear_matrix is not None else v
           for v in (np.array([0.5, 0.0]), np.array([0.0, -1.5]),
                     0.5 + rng.uniform(0.0, 1.0, 2))]
    sim = geometry.SimCheck(t_end=p["t_end"], dt=p["dt"], seed=seed,
                            record_every=10, ics=ics)
    rep, traj = geometry._certify_limit_cycle(fld, sub, conj, tau=None, spec=L2,
                                              sampler=sampler, sim=sim, seed=seed)
    # the certifier's first trajectory starts at ics[0]; it ran only if the
    # hypotheses held
    if traj is None:
        traj = geometry.simulate(fld, ics[0], sim)
    dist = np.abs(sub.values(conj.values(traj.states))[:, 0])
    series = {"decay": (["time", "loop_distance"], [traj.times, dist])}
    return rep, series


def _run_phase_locking(p, seed):
    n_osc = p["n_oscillators"]
    omegas = p["omegas"]
    if len(omegas) == 1:
        omegas = omegas * n_osc
    rng = np.random.default_rng(seed)
    mats = [np.eye(2)]
    for _ in range(n_osc - 1):
        M = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        while abs(np.linalg.det(M)) < 0.3:
            M = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        mats.append(M)
    fld = systems.coupled_hopf_field(omegas, mats, p["coupling"])
    sub = systems.circle_submersion()
    leader_sampler = [(t, v) for t, v in sampling.box_samples(
        60, [-1.2, -1.2], [1.2, 1.2], seed=seed) if 0.85 <= np.linalg.norm(v) <= 1.2]
    leader = geometry.certify_limit_cycle(systems.hopf_field(omega=omegas[0]), sub,
                                          geometry.Conjugacy.identity(), tau=None,
                                          sampler=leader_sampler, seed=seed)
    samples = []
    for _ in range(20):
        th = rng.uniform(0.0, 2.0 * math.pi)
        base = np.array([math.cos(th), math.sin(th)])
        vs = np.concatenate([base + 0.1 * rng.standard_normal(2) for _ in range(n_osc)])
        us = np.concatenate([np.linalg.solve(mats[i], vs[2 * i:2 * i + 2])
                             for i in range(n_osc)])
        samples.append((0.0, us))
    proj_w = geometry.rotation_subspace_projector(n_osc)
    sim = geometry.SimCheck(t_end=p["t_end"], dt=p["dt"], n_ic=1, seed=seed,
                            ic_scale=0.4, record_every=20)
    rep = geometry.certify_phase_locking(fld, [geometry.Conjugacy.linear(M) for M in mats],
                                         proj_w, spec=L2, sampler=samples,
                                         leader=leader, sim=sim, seed=seed)
    series = {}
    if "sim" in rep:
        periods = np.asarray(rep["sim"]["periods"], dtype=float)
        series["periods"] = (["time", "period"],
                             [np.arange(n_osc, dtype=float), periods])
    return rep, series


def _run_heat(p, seed):
    return pde.heat_zero_flux_experiment(seed=seed, **p)


def _reaction(p):
    return (pde.allen_cahn_reaction() if p["reaction"] == "allen_cahn"
            else pde.brusselator_reaction(a=p["a"], b=p["b"]))


def _run_reaction_diffusion(p, seed):
    return pde.reaction_diffusion_experiment(
        n=p["n"], alphas=p["alphas"], reaction=_reaction(p), t_end=p["t_end"],
        seed=seed, amplitude=p["amplitude"])


def _run_poisson(p, seed):
    return pde.nonlinear_poisson_experiment(
        n=p["n"], reaction=pde.sine_reaction(p["c"]), seed=seed,
        refinement=tuple(p["refinement"]))


def _run_sobolev_rate(p, seed):
    n = p["n"]
    sysname = p["system"]
    if sysname == "heat_periodic":
        disc = pde.build_discretization(n, boundary="periodic")
        fld = pde.heat_field(disc, p["alpha"])
        sampler = sampling.gaussian_samples(4, disc.npoints, seed=seed)
    elif sysname == "transport":
        disc = pde.build_discretization(n, boundary="periodic")
        D = disc.gradients[0]
        fld = flows.VectorField(f=lambda t, u, Du=flows.matvec(D): -Du(u),
                                jac=lambda t, u: (-D).toarray(), dim=n, name="transport",
                                grid=disc.grid)
        sampler = sampling.gaussian_samples(4, n, seed=seed)
    else:  # burgers
        disc = pde.build_discretization(n, boundary="periodic")
        fld = pde.burgers_field(disc, p["eps"])
        x = np.arange(n) * disc.h
        rng = np.random.default_rng(seed)
        sampler = [(0.0, np.sin(2.0 * math.pi * x) * rng.uniform(0.5, 1.0))
                   for _ in range(4)]
    ks = list(range(p["k"] + 1))
    rates = [pde.sobolev_rate(fld, k, p["p"], sampler=sampler, seed=seed).value
             for k in ks]
    report = {
        "system": sysname,
        "rates_by_order": {str(k): r for k, r in zip(ks, rates)},
        "advisory": "sampled rate; not a certified global bound",
    }
    series = {"rates": (["time", "k", "rate"],
                        [np.arange(len(ks), dtype=float),
                         np.asarray(ks, dtype=float), np.asarray(rates)])}
    return report, series


def _run_vanishing_osl(p, seed):
    n, eps = p["n"], tuple(p["eps_schedule"])
    fam = (pde.burgers_family(n=n, eps_schedule=eps) if p["family"] == "burgers"
           else pde.advection_family(n=n, speed=p["speed"], eps_schedule=eps))
    x = np.arange(n) / n
    if p["initial"] == "sine":
        u0 = np.sin(2.0 * math.pi * x)
    else:
        u0 = np.exp(-50.0 * (x - 0.3) ** 2)
    return pde.vanishing_osl_experiment(fam, u0, p=p["p"], t_end=p["t_end"],
                                        lambda_bound=p["lambda_bound"], seed=seed)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SIM_DT_HELP = ("step of the recording grid of the simulation "
                "(the times fixed-step RK4 at this step would record); the "
                "adaptive solver's accuracy is set by flows.ODE_RTOL")


@dataclass
class Experiment:
    description: str
    params: dict
    runner: object


EXPERIMENTS = {
    "measure": Experiment(
        "logarithmic norm of a matrix in an lp norm, with the "
        "definition-level difference-quotient oracle",
        {"matrix": Param("matrix"), "p": Param("float", 2.0)},
        _run_measure),
    "weighted_rate": Experiment(
        "weighted contraction rate of a matrix under an operator weight; "
        "for invertible weights, cross-checked against the measure of the "
        "generalized Jacobian",
        {"matrix": Param("matrix"), "p": Param("float", 2.0),
         "weight_kind": Param("str", "identity",
                              choices=("identity", "diagonal", "constant",
                                       "projection_mean")),
         "weight_diag": Param("floats", None), "weight_matrix": Param("matrix", None)},
        _run_weighted_rate),
    "optimize_weight": Experiment(
        "radius-b diagonal weight optimization of the contraction rate "
        "(coordinate descent), with the transient bound t_b",
        {"matrix": Param("matrix"), "p": Param("float", 2.0),
         "b": Param("float", 10.0, positive=True)},
        _run_optimize_weight),
    "growth_bound": Experiment(
        "perturbation growth bound in a weighted norm along a trajectory, "
        "plus the pairwise-trajectory bound with prefactor kappa(weight)",
        {"matrix": Param("matrix"), "p": Param("float", 2.0),
         "weight_kind": Param("str", "identity",
                              choices=("identity", "diagonal", "constant",
                                       "projection_mean")),
         "weight_diag": Param("floats", None), "weight_matrix": Param("matrix", None),
         "t_end": Param("float", 8.0, positive=True),
         "dt": Param("float", 1e-3, positive=True, help=_SIM_DT_HELP)},
        _run_growth_bound),
    "mle": Experiment(
        "maximum Lyapunov exponent from one run of a co-integrated "
        "perturbation, compared with the matrix measure upper bound",
        {"matrix": Param("matrix"), "p": Param("float", 2.0),
         "t_end": Param("float", 40.0, positive=True),
         "renorm_interval": Param("float", 0.5, positive=True,
                                  help="interval at which the running estimate is "
                                       "recorded; the perturbation is never "
                                       "renormalized")},
        _run_mle),
    "subspace": Experiment(
        "contraction of the zero-flux heat equation to its spatial mean: "
        "invariant-subspace certificate in the mean-complement seminorm",
        {"n": Param("int", 16, positive=True), "alpha": Param("float", 1.0, positive=True),
         "t_end": Param("float", 0.5, positive=True)},
        _run_subspace),
    "manifold": Experiment(
        "contraction of a planar oscillator to its invariant circle: "
        "level-set certificate with the level-map-derivative weight",
        {"omega": Param("float", 1.0), "gain": Param("float", 1.0, positive=True),
         "radial_band": Param("floats", [0.8, 1.2]),
         "t_end": Param("float", 40.0, positive=True),
         "dt": Param("float", 5e-3, positive=True, help=_SIM_DT_HELP)},
        _run_manifold),
    "symmetry": Experiment(
        "equivariance checks: spatial shifts commuting with periodic "
        "diffusion (invariant limit state), or time-periodic forcing "
        "(convergence to a periodic solution)",
        {"kind": Param("str", "spatial", choices=("spatial", "temporal")),
         "n": Param("int", 16, positive=True), "alpha": Param("float", 1.0, positive=True),
         "shifts": Param("ints", [1, 3]), "tau": Param("float", 1.0, positive=True),
         "forcing_period": Param("float", 1.0, positive=True),
         "t_end": Param("float", 6.0, positive=True)},
        _run_symmetry),
    "limit_cycle": Experiment(
        "limit-cycle certificate for a planar oscillator (optionally pulled "
        "back through a linear conjugacy): loop invariance, contraction, "
        "symmetry, and non-accumulation",
        {"omega": Param("float", 1.0), "gain": Param("float", 1.0, positive=True),
         "shear": Param("matrix", None),
         "radial_band": Param("floats", [0.8, 1.2]),
         "t_end": Param("float", 60.0, positive=True),
         "dt": Param("float", 5e-3, positive=True, help=_SIM_DT_HELP)},
        _run_limit_cycle),
    "phase_locking": Experiment(
        "phase-locking of diffusively coupled heterogeneous oscillators: "
        "leader limit-cycle certificate plus contraction to the "
        "rotation-shift subspace; simulated common period",
        {"n_oscillators": Param("int", 3, positive=True),
         "omegas": Param("floats", [1.0]),
         "coupling": Param("float", 0.4),
         "t_end": Param("float", 80.0, positive=True),
         "dt": Param("float", 2e-3, positive=True, help=_SIM_DT_HELP)},
        _run_phase_locking),
    "heat": Experiment(
        "zero-flux heat equation: certified decay rate of the off-mean "
        "component vs the dense eigensolve and the fitted decay; mass "
        "conservation",
        {"n": Param("int", 16, positive=True), "alpha": Param("float", 1.0, positive=True),
         "t_end": Param("float", 0.5, positive=True), "dims": Param("int", 1)},
        _run_heat),
    "reaction_diffusion": Experiment(
        "homogenization of reaction-diffusion with zero flux: reaction rate "
        "vs diffusion strength in the mean-complement seminorm; certificate "
        "withheld in the pattern-forming regime",
        {"n": Param("int", 16, positive=True), "alphas": Param("floats", [0.5]),
         "reaction": Param("str", "allen_cahn", choices=("allen_cahn", "brusselator")),
         "a": Param("float", 1.0, positive=True), "b": Param("float", 1.8),
         "t_end": Param("float", 6.0, positive=True),
         "amplitude": Param("float", 0.05, positive=True)},
        _run_reaction_diffusion),
    "poisson": Experiment(
        "existence and uniqueness for the nonlinear Poisson problem via the "
        "gradient flow: reaction rate below the discrete Poincare constant, "
        "common fixed point from random initializations, refinement table",
        {"n": Param("int", 32, positive=True), "c": Param("float", 5.0),
         "refinement": Param("ints", [8, 16, 32, 64])},
        _run_poisson),
    "sobolev_rate": Experiment(
        "contraction rates in discrete Sobolev norms: diffusion (rates "
        "monotone in the derivative order), transport (isometric at every "
        "order), viscous Burgers (sampled, advisory)",
        {"system": Param("str", "heat_periodic",
                         choices=("heat_periodic", "transport", "burgers")),
         "n": Param("int", 64, positive=True), "alpha": Param("float", 1.0, positive=True),
         "eps": Param("float", 0.05, positive=True),
         "k": Param("int", 1), "p": Param("float", 2.0)},
        _run_sobolev_rate),
    "vanishing_osl": Experiment(
        "vanishing-regularization limit on the periodic interval: uniform "
        "rate/boundedness/translation/continuity hypotheses, Cauchy trend "
        "of successive solutions, weak-form residual of the extrapolated "
        "limit",
        {"family": Param("str", "burgers", choices=("burgers", "advection")),
         "n": Param("int", 256, positive=True),
         "eps_schedule": Param("floats", [0.05, 0.025, 0.0125, 0.00625]),
         "speed": Param("float", 1.0),
         "initial": Param("str", "sine", choices=("sine", "bump")),
         "t_end": Param("float", 0.5, positive=True), "p": Param("float", 2.0),
         "lambda_bound": Param("float", None,
                               help="declared uniform rate bound; checked as "
                                    "uniform_rate_bound when given")},
        _run_vanishing_osl),
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def parse_config(path):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = set(cp.sections())
    if not sections <= {"experiment", "params"}:
        bad = sorted(sections - {"experiment", "params"})[0]
        raise ConfigError(f"unknown section [{bad}]", field=bad)
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section", field="experiment")
    exp_keys = set(cp["experiment"])
    if not exp_keys <= {"name", "seed", "output_dir"}:
        bad = sorted(exp_keys - {"name", "seed", "output_dir"})[0]
        raise ConfigError(f"unknown key '{bad}' in [experiment]", field=bad)
    name = cp["experiment"].get("name")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}", field="name")
    try:
        seed = int(cp["experiment"].get("seed", "0"))
    except ValueError:
        raise ConfigError("field 'seed': must be an integer", field="seed")
    if seed < 0:
        raise ConfigError(f"field 'seed': must be non-negative, got {seed}", field="seed")
    output_dir = cp["experiment"].get("output_dir", os.path.join("runs", name))
    schema = EXPERIMENTS[name].params
    raw = dict(cp["params"]) if "params" in sections else {}
    unknown = set(raw) - set(schema)
    if unknown:
        bad = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{bad}' in [params]", field=bad)
    params = {}
    for key, spec in schema.items():
        if key in raw:
            params[key] = _coerce(key, spec, raw[key])
        elif spec.default is _REQUIRED:
            raise ConfigError(f"missing required field '{key}'", field=key)
        else:
            params[key] = spec.default
    # validate refuses what run would; the last two restate rules of pde and flows (t0 = 0)
    for key, fits, need in (
        ("radial_band", lambda b: len(b) == 2 and 0.0 <= b[0] < b[1], "two values 0 <= lo < hi"),
        ("omegas", lambda w: len(w) in (1, params["n_oscillators"]), "one or one per oscillator"),
        ("alphas", lambda a: len(a) in (1, _reaction(params).n_species), "one or one per species"),
        ("renorm_interval", lambda h: h <= params["t_end"], "at most t_end"),
    ):
        if key in params and not fits(params[key]):
            raise ConfigError(f"field '{key}': need {need}, got {params[key]}", field=key)
    return name, seed, output_dir, params


def run(config_path):
    """Execute the experiment named in the config; exit code 0 success,
    2 certificate withheld, 1 error."""
    try:
        name, seed, output_dir, params = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}" + (f" (field: {exc.field})" if exc.field else ""),
              file=sys.stderr)
        return 1
    output_dir = os.environ.get("CONTRACTKIT_OUTPUT_DIR", output_dir)
    try:
        report, series = EXPERIMENTS[name].runner(params, seed)
    except ContractkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    certified = report.get("certified")
    os.makedirs(output_dir, exist_ok=True)
    files = []
    for sname, (header, cols) in series.items():
        path = os.path.join(output_dir, f"{sname}.csv")
        write_csv(path, header, cols)
        files.append(path)
    full_report = {
        "experiment": name,
        "seed": seed,
        "config": jsonify({k: v for k, v in params.items()}),
        "certified": certified,
        "report": report,
        "files": sorted(os.path.basename(f) for f in files),
    }
    rpath = os.path.join(output_dir, "report.json")
    write_report(rpath, full_report)
    files.append(rpath)
    print(f"experiment: {name} (seed {seed})")
    for c in checks_in(report):
        mark = "PASS" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: {c.value:.6g} {c.direction} {c.threshold:.6g}")
    if certified is not None:
        print(f"  certificate: {'granted' if certified else 'withheld'}")
    for f in files:
        print(f"  wrote {f}")
    if certified is False:
        return 2
    return 0


def list_experiments():
    for name, exp in EXPERIMENTS.items():
        required = [k for k, v in exp.params.items() if v.default is _REQUIRED]
        print(f"{name}: {exp.description}")
        keys = ", ".join(f"{k} ({v.type})" for k, v in exp.params.items())
        req = ", ".join(required) if required else "none"
        print(f"    params: {keys}")
        print(f"    required: {req}")
        for k, v in exp.params.items():
            if v.help:
                print(f"    {k}: {v.help}")
    return 0


def validate(config_path):
    try:
        name, seed, output_dir, params = parse_config(config_path)
    except ConfigError as exc:
        print(f"invalid: {exc}" + (f" (field: {exc.field})" if exc.field else ""),
              file=sys.stderr)
        return 1
    print(f"ok: experiment {name}, seed {seed}, output {output_dir}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="contractkit",
        description="contraction-rate certificates for discretized ODEs and PDEs")
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    subs.add_parser("list", help="list experiments, descriptions, config keys")
    p_val = subs.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "list":
        return list_experiments()
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())

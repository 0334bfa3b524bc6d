"""Certifiers for non-equilibrium limits: invariant subspaces, level-set
submanifolds, symmetric and periodic solutions, limit cycles, and
phase-locking of coupled oscillators.

Each certifier evaluates its hypotheses numerically on sampled states and,
when a simulation check is requested, cross-checks the certified decay
quantity against trajectories from random initial conditions, each one
integrated by ``simulate`` (the temporal-symmetry check calls
``flows.integrate`` itself, to record a period apart).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractViolation, NumericalError
from .flows import (ODE_RTOL, VectorField, as_vector_field, fd_jacobian, fit_decay_rate,
                    integrate, integrator_entry, simulate_flow)
from .measures import as_matrix, inverse, nonlinear_rate
from .reporting import Check, verdict
from .sampling import read as read_samples
from .sip import L2
from .sip import norm as sip_norm
from .weights import jacobian_of_map, projection_complement

RESIDUAL_TOL = 1e-8
_RATE_TOL = 1e-12          # certified means rate < -_RATE_TOL
_SPEED_FLOOR_FRAC = 1e-6   # loop non-accumulation margin vs mean speed
_LEVEL_TOL = 1e-10         # level-set projection: residual ||phi(u)|| reached
_LEVEL_MAX_ITER = 60       # ... within this many damped Newton steps
_SWEEP_DS = 0.04           # arclength step of the loop sweep and speed search
_SWEEP_MAX_STEPS = 4000
_LOOP_TIMES = 3            # sample times at which the loop hypotheses are checked
_PERIOD_RTOL = 0.01        # phase-locking: common period within this spread
_PHASE_DRIFT_TOL = 1e-3    # ... and phase differences drifting less than this


def _identity(u):
    return u


@dataclass
class Projector:
    """Bounded linear projection P with its complement Q = I - P cached."""

    P: np.ndarray
    Q: np.ndarray = None

    def __post_init__(self):
        self.P = np.asarray(as_matrix(self.P), dtype=float)
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ContractViolation("projector must be a square matrix")
        self.Q = np.eye(self.P.shape[0]) - self.P
        scale = 1.0 + np.linalg.norm(self.P)
        if np.linalg.norm(self.P @ self.P - self.P) > 1e-10 * scale:
            raise ContractViolation("P^2 != P")
        if np.linalg.norm(self.P @ self.Q) > 1e-10 * scale:
            raise ContractViolation("PQ != 0")

    @classmethod
    def mean(cls, n, ncomp=1):
        """Blockwise projection onto componentwise-constant states."""
        p1 = np.full((n, n), 1.0 / n)
        if ncomp == 1:
            return cls(p1)
        return cls(np.kron(np.eye(ncomp), p1))

    def weight(self):
        return projection_complement(self.P)

    def q_rows(self, states):
        """Q u per row u of ``states``, as Q @ u rounds it (not as a matrix product)."""
        return np.matmul(self.Q, states[:, :, None])[:, :, 0]


@dataclass
class Submersion:
    """Level-set map phi with surjective derivative; M = phi^{-1}(0)."""

    phi: object
    dphi: object = None
    codim: int = 1

    def value(self, u):
        return np.atleast_1d(np.asarray(self.phi(np.asarray(u)), dtype=float))

    def values(self, states):
        """phi(u) for each row u of ``states``, one state at a time (on the
        stacked states numpy rounds some maps otherwise: x ** 2 is pow on a
        scalar, x * x on an array), as one (len(states), codim) array."""
        return np.array([self.phi(u) for u in states], dtype=float).reshape(len(states), -1)

    def jac(self, u):
        u = np.asarray(u, dtype=float)
        if self.dphi is not None:
            return np.atleast_2d(np.asarray(self.dphi(u), dtype=float))
        return np.atleast_2d(fd_jacobian(lambda t, x: self.value(x), 0.0, u))

    def min_singular_value(self, u):
        return float(np.linalg.svd(self.jac(u), compute_uv=False)[-1])

    def weight(self):
        return jacobian_of_map(self.jac)


@dataclass
class Conjugacy:
    """Diffeomorphism h with inverse and derivative (FD fallback)."""

    h: object
    h_inv: object
    dh: object = None
    linear_matrix: np.ndarray = None

    def value(self, u):
        return np.asarray(self.h(np.asarray(u)), dtype=float)

    def values(self, states):
        """h(u) for each row u of ``states``: the states themselves for the
        identity, and for a linear h one stacked product, which rounds each
        row as M @ u does."""
        if self.h is _identity:
            return states
        if self.linear_matrix is not None:
            return np.matmul(self.linear_matrix, states[:, :, None])[:, :, 0]
        return np.array([self.h(u) for u in states], dtype=float)

    def inverse(self, v):
        return np.asarray(self.h_inv(np.asarray(v)), dtype=float)

    def jac(self, u):
        u = np.asarray(u, dtype=float)
        if self.dh is not None:
            return np.atleast_2d(np.asarray(self.dh(u), dtype=float))
        return fd_jacobian(lambda t, x: self.value(x), 0.0, u)

    @classmethod
    def identity(cls):
        return cls(h=_identity, h_inv=_identity,
                   dh=lambda u: np.eye(np.asarray(u).shape[0]))

    @classmethod
    def linear(cls, M):
        M = np.asarray(M, dtype=float)
        Minv = inverse(M, "linear conjugacy matrix")
        return cls(h=lambda u: M @ u, h_inv=lambda v: Minv @ v,
                   dh=lambda u: M, linear_matrix=M)


def conjugate_field(f, conjs):
    """Push a field through blockwise conjugacies v_i = h_i(u_i), one per
    equal block of the state (a list of one for the whole state):
    g(t, v) = Dh(h^{-1}(v)) f(t, h^{-1}(v)), block by block."""
    f = as_vector_field(f)
    blocks = []                      # (h_i, slice of block i), set at the first call

    def g(t, v):
        if not blocks:
            m = len(v) // len(conjs)
            blocks.extend((c, slice(i * m, (i + 1) * m)) for i, c in enumerate(conjs))
        us = [c.inverse(v[b]) for c, b in blocks]
        fu = f.eval(t, us[0] if len(us) == 1 else np.concatenate(us))
        out = [c.jac(u) @ fu[b] for (c, b), u in zip(blocks, us)]
        return out[0] if len(out) == 1 else np.concatenate(out)

    jac = None
    if f.jac is not None and all(c.linear_matrix is not None for c in conjs):
        M = sla.block_diag(*[c.linear_matrix for c in conjs])
        Minv = inverse(M, "block-diagonal conjugacy matrix")

        def jac(t, v):
            return M @ as_matrix(f.jacobian(t, Minv @ v)) @ Minv

    return VectorField(f=g, jac=jac, dim=f.dim, name=f.name + "_conjugate")


@dataclass
class SimCheck:
    """Parameters of the simulation cross-check attached to certificates.
    Explicit initial conditions in ``ics`` override the seeded random ones."""

    t_end: float
    dt: float
    n_ic: int = 3
    seed: int = 0
    ic_scale: float = 1.0
    record_every: int = 1
    ics: list = None


def simulate(f, u0, sim):
    """One simulation of a cross-check over (0, sim.t_end) by
    ``flows.simulate_flow``: LSODA at ``ODE_RTOL``, recorded at the times
    RK4 at ``sim.dt`` would record, every ``sim.record_every``-th step."""
    return simulate_flow(f, u0, (0.0, sim.t_end), sim.dt, sim.record_every)


def _error_floor(states):
    """A simulation's error floor, 100 ODE_RTOL (1 + max ||u||) over the
    recorded states: below it a recorded quantity is integration error."""
    return 100.0 * ODE_RTOL * (1.0 + float(np.max(np.linalg.norm(states, axis=1))))


def _sim_initial_conditions(sim, dim, base=None):
    if sim.ics is not None:
        return [np.asarray(u, dtype=float) for u in sim.ics]
    rng = np.random.default_rng(sim.seed)
    base = np.zeros(dim) if base is None else np.asarray(base, dtype=float)
    return [base + sim.ic_scale * rng.standard_normal(dim) for _ in range(sim.n_ic)]


def _decay_cross_check(f, sim, dim, quantity, lam, base_ic=None):
    """Simulate n_ic trajectories and fit the decay exponent of the series
    ``quantity(states)`` (one value per recorded state) above the
    simulation's error floor; the slowest fit must not
    be slower than lam + 0.1 |lam| (``simulated_decay``; a nan fit fails).
    Returns the summary and the trajectories."""
    fits = []
    trajs = []
    for u0 in _sim_initial_conditions(sim, dim, base=base_ic):
        traj = simulate(f, u0, sim)
        series = quantity(traj.states)
        floor = _error_floor(traj.states)
        slope, info = fit_decay_rate(traj.times, series, floor=floor)
        fits.append({"fitted": slope, "points": info.get("points", 0), "floor": floor})
        trajs.append(traj)
    threshold = lam + 0.1 * abs(lam)
    slowest = np.max([f_["fitted"] for f_ in fits])
    return {"fits": fits, "threshold": threshold,
            "check": Check.leq("simulated_decay", slowest, threshold),
            "integrator": integrator_entry(trajs)}, trajs


def _norm(v):
    """The 2-norm of a 1-D real vector, as np.linalg.norm computes it:
    sqrt(v . v), without its per-call overhead."""
    return math.sqrt(v @ v)


def _worst_residual(pairs):
    """The largest relative residual ||r|| / (1 + ||s||) over (r, s) pairs,
    nan when one of them is nan (and when there are none): a hypothesis
    whose residual is not a number fails its check."""
    res = [_norm(r) / (1.0 + _norm(s)) for r, s in pairs]
    return float(np.max(res)) if res else math.nan


def check_subspace_invariance(f, proj, sampler):
    """Residuals of Q f(t, P v) = 0 over sampled (t, v)."""
    f = as_vector_field(f)
    samples = read_samples(sampler)
    fvs = [f.eval(t, proj.P @ v) for t, v in samples]
    worst = _worst_residual((proj.Q @ fv, fv) for fv in fvs)
    check = Check.leq("subspace_invariance", worst, RESIDUAL_TOL)
    return {"check": check, "max_residual": worst, "samples": len(samples),
            "passed": check.passed}


def certify_subspace_contraction(f, proj, spec=L2, *, sampler, sim=None, grid=None,
                                 seed=0):
    """Certificate of exponential contraction to im(P): invariance of the
    subspace plus a negative rate in the Q-weighted (semi)norm."""
    f = as_vector_field(f)
    samples = read_samples(sampler)
    inv = check_subspace_invariance(f, proj, samples)
    rate = nonlinear_rate(f, projection_complement(proj.P), spec=spec, sampler=samples,
                          grid=grid, seed=seed)
    rate_check = Check.lt("subspace_rate", rate.value, -_RATE_TOL)
    report = {
        "certificate": "decay of the off-subspace component ||Q u(t)||",
        "rate": rate,
        "checks": [inv["check"], rate_check],
        "invariance": {**inv, "check": inv["check"].name},
    }
    if sim is not None and inv["passed"] and rate_check.passed:
        dim = proj.P.shape[0]
        report["sim"], _ = _decay_cross_check(
            f, sim, dim, lambda U: sip_norm(proj.q_rows(U), spec, grid, rows=True),
            rate.value)
    rate_only = rate_check.passed and not inv["passed"]
    return verdict(report, "rate_only" if rate_only else "withheld")


def project_to_level_set(sub, u0):
    """Damped Newton projection of u0 onto phi^{-1}(0) using the
    pseudo-inverse of Dphi, to a residual of ``_LEVEL_TOL``."""
    u = np.asarray(u0, dtype=float).copy()
    r = sub.value(u)
    for _ in range(_LEVEL_MAX_ITER):
        nr = _norm(r)
        if nr <= _LEVEL_TOL:
            return u
        step = np.linalg.lstsq(sub.jac(u), r, rcond=None)[0]
        lam = 1.0
        while lam > 1e-6:
            u_try = u - lam * step
            r_try = sub.value(u_try)
            if _norm(r_try) < nr:
                u, r = u_try, r_try
                break
            lam *= 0.5
        else:
            break
    if _norm(sub.value(u)) > _LEVEL_TOL:
        raise NumericalError("level-set projection did not converge")
    return u


def _project_samples(sub, samples):
    """(t, w) for each sample (t, u) whose projection w onto the level set
    of ``sub`` converges; the others are left out."""
    out = []
    for t, u in samples:
        try:
            out.append((t, project_to_level_set(sub, u)))
        except NumericalError:
            continue
    return out


def certify_manifold_contraction(f, sub, spec=L2, *, sampler, sim=None, seed=0):
    """Certificate of contraction to the level set M = phi^{-1}(0):
    tangency of the flow on M plus a negative rate with weight Dphi(u)."""
    f = as_vector_field(f)
    samples = read_samples(sampler)
    on_manifold = _project_samples(sub, samples)
    fvs = [(w, f.eval(t, w)) for t, w in on_manifold]
    tangency = _worst_residual((sub.jac(w) @ fv, fv) for w, fv in fvs)
    min_sv = min(sub.min_singular_value(u) for _, u in on_manifold + samples)

    rate = nonlinear_rate(f, sub.weight(), spec=spec, sampler=samples, seed=seed)
    checks = [
        Check.leq("manifold_tangency", tangency, RESIDUAL_TOL),
        Check.lt("manifold_rate", rate.value, -_RATE_TOL),
        Check.geq("submersion_min_singular_value", min_sv, 1e-8),
        Check.geq("samples_on_manifold", len(on_manifold), 1),
    ]
    report = {
        "certificate": "decay of the level-set residual ||phi(u(t))||",
        "rate": rate,
        "checks": checks,
        "on_manifold_coverage": len(on_manifold) / len(samples),
        "projection_failures": len(samples) - len(on_manifold),
    }
    if sim is not None and all(c.passed for c in checks):
        dim = samples[0][1].shape[0]
        report["sim"], _ = _decay_cross_check(
            f, sim, dim, lambda U: sip_norm(sub.values(U), L2, rows=True),
            rate.value, base_ic=on_manifold[0][1])
    return verdict(report)


def check_equivariance(f, group_elems, sampler, rate=None):
    """Residuals of f(t, h(u)) = Dh(u) f(t, u) for each group element h, a
    ``Conjugacy`` or a matrix T (h(u) = T u, Dh = T), one check per element.
    With a contraction rate, ``invariant_limit`` checks that it is negative:
    the limiting solution is then invariant under the group."""
    f = as_vector_field(f)
    samples = read_samples(sampler)
    fus = [(t, u, f.eval(t, u)) for t, u in samples]
    per_elem = []
    for idx, T in enumerate(group_elems):
        h = T if isinstance(T, Conjugacy) else Conjugacy.linear(T)
        images = [(t, h.value(u), h.jac(u) @ fu) for t, u, fu in fus]
        worst = _worst_residual((f.eval(t, hu) - dhf, dhf) for t, hu, dhf in images)
        per_elem.append(Check.leq(f"equivariance_elem_{idx}", worst, RESIDUAL_TOL))
    if not per_elem:
        raise ContractViolation("equivariance needs at least one group element")
    passed = all(c.passed for c in per_elem)
    report = {
        "checks": per_elem,
        "passed": passed,
        "max_residual": float(np.max([c.value for c in per_elem])),
        "samples": len(samples),
    }
    if rate is not None:
        report["contraction_rate"] = rate
        report["invariant_limit"] = Check.lt("contraction_rate", rate.value, -_RATE_TOL)
        if passed and report["invariant_limit"].passed:
            report["conclusion"] = "limiting solution is invariant under the group"
    return report


def check_temporal_symmetry(f, tau, sampler, sim=None, rate=None):
    """Residuals of f(t, u) = f(t + tau, u); with a negative contraction
    rate (``periodic_limit``) this certifies convergence to a tau-periodic
    solution, checked by the geometric decay of ||u(t + (m+1) tau) -
    u(t + m tau)||, recorded by LSODA at ``ODE_RTOL`` at t = m tau exactly
    for m = 0 .. max(3, t_end / tau) + 1: the largest ratio of successive
    differences must be below 1 (inf when none is resolved).  Only the
    ratios whose newer difference is above the simulation's error floor, 100 ODE_RTOL
    (1 + max ||u||), are checked: below it the differences are integration
    error, which does not repeat from one period to the next."""
    if tau is None or tau <= 0:
        raise ContractViolation(f"tau must be positive, got {tau!r}")
    f = as_vector_field(f)
    samples = read_samples(sampler)
    fus = [(t, u, f.eval(t, u)) for t, u in samples]
    worst = _worst_residual((fu - f.eval(t + tau, u), fu) for t, u, fu in fus)
    check = Check.leq("temporal_symmetry", worst, RESIDUAL_TOL)
    report = {"check": check, "passed": check.passed, "max_residual": worst,
              "samples": len(samples), "tau": tau}
    if rate is not None:
        report["contraction_rate"] = rate
        report["periodic_limit"] = Check.lt("contraction_rate", rate.value, -_RATE_TOL)
    if sim is not None:
        if f.dim is None:
            raise ContractViolation("temporal-symmetry simulation needs f.dim")
        u0 = _sim_initial_conditions(sim, f.dim)[0]
        n_periods = max(3, int(sim.t_end / tau))
        traj = integrate(f, u0, (0.0, (n_periods + 1) * tau),
                         t_eval=tau * np.arange(n_periods + 2))
        snaps = traj.states[1:]
        diffs = np.array([np.linalg.norm(snaps[m + 1] - snaps[m])
                          for m in range(len(snaps) - 1)])
        ratios = diffs[1:] / np.maximum(diffs[:-1], 1e-300)
        floor = _error_floor(snaps)
        resolved = diffs[1:] > floor
        report["sim"] = {
            "snapshot_diffs": diffs,
            "decay_ratios": ratios,
            "diff_floor": floor,
            "geometric_decay": Check.lt("geometric_decay", np.max(ratios[resolved])
                                        if np.any(resolved) else np.inf, 1.0),
            "integrator": integrator_entry([traj]),
        }
    return report


def _loop_tangent(sub, w):
    """Unit vector spanning ker(Dphi(w)) when the level set is a curve: the
    right singular vectors past the numerical rank, as scipy's null_space
    takes them (rank tolerance eps max(shape) s_max)."""
    J = sub.jac(w)
    _, s, vh = np.linalg.svd(J)
    rank = int(np.count_nonzero(s > s.max() * np.finfo(float).eps * max(J.shape)))
    if vh.shape[0] - rank != 1:
        return None
    return vh[rank] / np.linalg.norm(vh[rank])


def sweep_loop(sub, w0):
    """Trace the closed curve phi^{-1}(0) from w0 by arclength continuation
    (march along the null space of Dphi in steps of ``_SWEEP_DS``,
    re-projecting each step)."""
    w = project_to_level_set(sub, w0)
    t_prev = _loop_tangent(sub, w)
    if t_prev is None:
        return [w]
    pts = [w.copy()]
    for step in range(_SWEEP_MAX_STEPS):
        w_next = project_to_level_set(sub, w + _SWEEP_DS * t_prev)
        t_new = _loop_tangent(sub, w_next)
        if t_new is None:
            break
        if np.dot(t_new, t_prev) < 0:
            t_new = -t_new
        w, t_prev = w_next, t_new
        if step > 3 and np.linalg.norm(w - pts[0]) < 0.75 * _SWEEP_DS:
            break
        pts.append(w.copy())
    return pts


def _min_loop_speed(sub, g, times, loop_pts):
    """Minimum over the loop and the given times of ||g(t, w)||, refined by
    a 1D search along the arclength direction around the lowest samples."""
    from scipy.optimize import minimize_scalar

    def speed(w):
        return min(_norm(g.eval(t, w)) for t in times)

    values = np.array([speed(w) for w in loop_pts])
    order = np.argsort(values)
    best = float(values[order[0]])
    for i in order[:3]:
        w = loop_pts[i]
        tan = _loop_tangent(sub, w)
        if tan is None:
            continue
        res = minimize_scalar(
            lambda s: speed(project_to_level_set(sub, w + s * tan)),
            bounds=(-_SWEEP_DS, _SWEEP_DS), method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best, values


def certify_limit_cycle(f, sub, conj, tau, spec=L2, *, sampler, sim=None, seed=0):
    """Certificate of convergence to a limit cycle on h^{-1}(phi^{-1}(0)).

    Checks, on the conjugate field g(t, v) = Dh(h^{-1}(v)) f(t, h^{-1}(v)):
    loop invariance (tangency on the loop), loop contraction (negative rate
    with weight Dphi), loop symmetry (tau-periodicity of g; autonomy when
    tau is None), and loop non-accumulation (the speed on the loop, minimized
    along the loop, stays above a fraction of its mean).

    With ``sim`` and every hypothesis met, ``report["sim"]`` also carries the
    period of the first simulated trajectory.
    """
    return _certify_limit_cycle(f, sub, conj, tau, spec, sampler, sim, seed)[0]


def _certify_limit_cycle(f, sub, conj, tau, spec, sampler, sim, seed):
    """``certify_limit_cycle``'s report and the first simulated trajectory,
    the one its period comes from (None when no sim ran)."""
    f = as_vector_field(f)
    g = conjugate_field(f, [conj])
    samples = read_samples(sampler)
    loop_pts = [w for _, w in _project_samples(sub, samples)]
    if not loop_pts:
        raise ContractViolation("no sampler point could be projected onto the loop")
    dim = loop_pts[0].shape[0]
    if dim == sub.codim + 1:
        loop_pts = sweep_loop(sub, loop_pts[0]) + loop_pts
    times = sorted({t for t, _ in samples})[:_LOOP_TIMES]

    taus = [tau] if tau is not None else [0.37, 1.0, math.e]
    gvs = [(t, w, g.eval(t, w)) for w in loop_pts for t in times]
    tangency = _worst_residual((sub.jac(w) @ gv, gv) for _, w, gv in gvs)
    sym_res = _worst_residual((gv - g.eval(t + dt_, w), gv)
                              for t, w, gv in gvs for dt_ in taus)
    min_speed, speeds = _min_loop_speed(sub, g, times, loop_pts)
    rate = nonlinear_rate(g, sub.weight(), spec=spec, sampler=samples, seed=seed)

    checks = [
        Check.leq("loop_invariance", tangency, RESIDUAL_TOL),
        Check.lt("loop_contraction", rate.value, -_RATE_TOL),
        Check.leq("loop_symmetry", sym_res, RESIDUAL_TOL),
        Check.geq("loop_non_accumulation", min_speed,
                  _SPEED_FLOOR_FRAC * float(np.mean(speeds))),
    ]
    failing = [c.name for c in checks if not c.passed]
    report = {
        "certificate": "convergence to a limit cycle on the conjugate loop",
        "failing_hypotheses": failing,
        "rate": rate,
        "checks": checks,
        "min_loop_speed": min_speed,
        "mean_loop_speed": float(np.mean(speeds)),
        "loop_points": len(loop_pts),
    }
    traj = None
    if sim is not None and not failing:
        dim = samples[0][1].shape[0]
        sim_out, trajs = _decay_cross_check(
            f, sim, dim, lambda U: sip_norm(sub.values(conj.values(U)), L2, rows=True),
            rate.value)
        # period of the conjugate state from the first trajectory
        traj = trajs[0]
        period, crossings = extract_period(traj.times, conj.values(traj.states)[:, 0])
        sim_out["period"] = period
        sim_out["n_crossings"] = len(crossings)
        report["sim"] = sim_out
    return verdict(report), traj


def extract_period(times, series):
    """Period from linearly interpolated up-crossings of the centered last
    half of the signal; nan when fewer than three crossings are found."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(series, dtype=float)
    i0 = len(t) // 2
    t, x = t[i0:], x[i0:]
    x = x - np.mean(x)
    i = np.flatnonzero((x[:-1] < 0.0) & (0.0 <= x[1:]))     # x[i] < 0 <= x[i + 1]
    frac = -x[i] / (x[i + 1] - x[i])
    crossings = t[i] + frac * (t[i + 1] - t[i])
    if len(crossings) < 3:
        return math.nan, crossings
    return float(np.mean(np.diff(crossings))), crossings


def rotation_subspace_projector(n_osc):
    """Orthogonal projector onto the synchronous states {(z, ..., z) : z in
    R^2}, the rotation-shift subspace with zero shifts, one plane per
    oscillator."""
    # orthonormal columns: the 2 x 2 identities stacked
    B = np.tile(np.eye(2), (n_osc, 1)) / math.sqrt(n_osc)
    return Projector(B @ B.T)


def certify_phase_locking(f, conjs, proj_w, spec=L2, *, sampler,
                          leader=None, sim=None, seed=0):
    """Certificate of phase-locking for coupled heterogeneous oscillators:
    a certified limit-cycle leader plus a negative rate of the stacked
    conjugate dynamics in the complement of the rotation-shift subspace.

    The simulated subsystems must reach a common period (relative spread
    within ``_PERIOD_RTOL``, ``common_period``) with phase differences that
    drift by less than ``_PHASE_DRIFT_TOL`` (``phases_locked``).  Without a
    certified leader the report holds no check, so it is withheld; a single
    oscillator carries the leader's report and so its verdict."""
    samples = read_samples(sampler)
    if leader is None or not leader["certified"]:
        return verdict({"reason": "leader limit-cycle certification missing"})
    f = as_vector_field(f)
    n_osc = len(conjs)
    if n_osc == 1:
        return verdict({"reduces_to": "limit_cycle", "leader": leader})
    G = conjugate_field(f, conjs)
    rate = nonlinear_rate(G, projection_complement(proj_w.P), spec=spec,
                          sampler=samples, seed=seed)
    rate_check = Check.lt("phase_lock_rate", rate.value, -_RATE_TOL)
    report = {
        "certificate": "common asymptotic period with constant phase shifts",
        "rate": rate,
        "checks": [rate_check],
        "leader": {"certified": leader["certified"], "rate": leader["rate"]},
    }
    if sim is not None:
        dim = samples[0][1].shape[0]
        m = dim // n_osc
        traj = simulate(f, _sim_initial_conditions(sim, dim)[0], sim)
        vs = np.concatenate([c.values(traj.states[:, i * m:(i + 1) * m])
                             for i, c in enumerate(conjs)], axis=1)
        periods = np.array([extract_period(traj.times, vs[:, i * m])[0]
                            for i in range(n_osc)])
        spread = (np.max(periods) - np.min(periods)) / np.mean(periods)

        phases = np.stack([
            np.unwrap(np.arctan2(vs[:, i * m + 1], vs[:, i * m]))
            for i in range(n_osc)
        ])
        quarter = len(traj.times) * 3 // 4
        drift = 0.0
        for i in range(n_osc):
            for j in range(i + 1, n_osc):
                d = phases[i] - phases[j]
                drift = max(drift, float(np.max(np.abs(d[quarter:] - d[-1]))))
        report["sim"] = {
            "periods": periods,
            "common_period": Check.leq("common_period", spread, _PERIOD_RTOL),
            "mean_period": float(np.mean(periods)),
            "phase_drift_final_quarter": drift,
            "phases_locked": Check.lt("phases_locked", drift, _PHASE_DRIFT_TOL),
            "integrator": integrator_entry([traj]),
        }
    return verdict(report)

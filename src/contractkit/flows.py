"""Trajectory and variational integration, growth-bound verification, and
maximum-Lyapunov-exponent estimation.

``integrate`` has two branches.  With a fixed step ``dt`` it runs the
classical fourth-order one-step method, the reference method.  With a
tolerance ``rtol`` it steps one of scipy's adaptive ``OdeSolver`` classes:
DOP853, the explicit eighth-order Dormand-Prince method (the default), or
the implicit Radau IIA method, which gets ``VectorField.jacobian`` and runs
the stiff semi-discretised PDEs.
scipy.integrate is imported only on that branch.

``simulate_flow`` holds the one rule by which the simulations pick a
branch: a field on a grid keeps fixed-step RK4 at its step ``dt``, and any
other field runs ``ODE_METHOD`` at ``ODE_RTOL``, recorded at the times RK4
would record.  The simulation cross-checks of ``geometry`` and the
variational flows (``integrate_variational`` and ``verify_growth_bound``,
which carry a tangent perturbation, and a pair separation, with the state as
one augmented field) both go through it.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolation, DimensionError, DivergenceError, StiffnessError
from .grids import GridFunction
from .measures import as_matrix, weighted_rate
from .sip import L2, NormSpec
from .sip import norm as sip_norm

_FD_REL_STEP = math.sqrt(np.finfo(float).eps)


@dataclass
class VectorField:
    """Right-hand side f(t, u) with exact or finite-difference Jacobian."""

    f: object
    jac: object = None
    dim: int = None
    name: str = ""
    grid: object = None
    diagnostics: dict = field(default_factory=dict)

    def eval(self, t, u):
        return np.asarray(self.f(t, np.asarray(u)), dtype=float)

    def jacobian(self, t, u):
        u = np.asarray(u, dtype=float)
        if self.jac is not None:
            return as_matrix(self.jac(t, u))
        return fd_jacobian(self.eval, t, u)

    def __call__(self, t, u):
        return self.eval(t, u)


def fd_jacobian(f, t, u, rel_step=_FD_REL_STEP):
    """Central-difference Jacobian, step = sqrt(eps) * (1 + ||u||)."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    h = rel_step * (1.0 + np.linalg.norm(u))
    J = np.empty((n, n))
    for j in range(n):
        up = u.copy()
        um = u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (np.asarray(f(t, up)) - np.asarray(f(t, um))) / (2.0 * h)
    return J


def linear_field(A, name="linear"):
    A = as_matrix(A)
    return VectorField(
        f=lambda t, u, A=A: A @ u,
        jac=lambda t, u, A=A: A,
        dim=A.shape[0],
        name=name,
    )


def as_vector_field(obj):
    if isinstance(obj, VectorField):
        return obj
    if sp.issparse(obj) or isinstance(obj, np.ndarray):
        return linear_field(obj)
    if callable(obj):
        return VectorField(f=obj)
    raise ContractViolation(f"cannot interpret {type(obj)} as a vector field")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray                 # (nt, n)
    perturbations: np.ndarray = None   # (nt, n) or None
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise DimensionError("trajectory times must be strictly increasing")
        self.times = t
        self.states = np.asarray(self.states, dtype=float)

    @property
    def final_state(self):
        return self.states[-1]

    def table(self, norm_spec=None):
        """(header, columns) for CSV export: time, state columns, and the
        perturbation norm when perturbations were recorded."""
        header = ["time"] + [f"u{i}" for i in range(self.states.shape[1])]
        cols = [self.times] + [self.states[:, i] for i in range(self.states.shape[1])]
        if self.perturbations is not None:
            spec = norm_spec or L2
            header.append("perturbation_norm")
            cols.append(np.array([sip_norm(d, spec) for d in self.perturbations]))
        return header, cols


def _rk4_step(f, t, u, dt):
    k1 = f(t, u)
    k2 = f(t + 0.5 * dt, u + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, u + 0.5 * dt * k2)
    k4 = f(t + dt, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(u, t, prev):
    if not np.all(np.isfinite(u)):
        raise DivergenceError(f"state became non-finite at t={t:.6g}", t=t, last_state=prev)


# the adaptive solver of the simulations off the grid and its tolerance
ODE_METHOD = "DOP853"
# Radau is implicit and the only one given VectorField.jacobian
SOLVER_METHODS = ("DOP853", "Radau")
# the counts an adaptive run's stats carry
_SOLVER_COUNTS = ("steps", "nfev", "njev", "nlu")
ODE_RTOL = 1e-10
# |f| above which Radau's Newton residual, sums of f values times
# coefficients below 10, may overflow
_NEAR_OVERFLOW = np.finfo(float).max / 2**10


def rk4_steps(t0, t1, dt):
    """The number of steps fixed-step RK4 takes over (t0, t1) for a requested
    step ``dt``, and the step it then takes."""
    nsteps = max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))
    return nsteps, (t1 - t0) / nsteps


def rk4_record_times(t0, t1, dt, record_every):
    """The times ``integrate(..., dt=dt, record_every=record_every)`` records:
    t0, every ``record_every``-th step and the last, which is exactly t1."""
    nsteps, dt_eff = rk4_steps(t0, t1, dt)
    times = t0 + np.unique(np.r_[0:nsteps + 1:record_every, nsteps]) * dt_eff
    times[-1] = t1
    return times


def integrate(f, u0, t_span, dt=None, rtol=None, record_every=1, max_steps=50_000_000,
              method=ODE_METHOD, t_eval=None):
    """Integrate du/dt = f(t, u) over t_span.

    Give exactly one of ``dt`` or ``rtol``.  ``dt`` runs fixed-step RK4
    (local truncation error O(dt^5) per step); stats count its steps as
    ``accepted``/``rejected``.  ``rtol`` runs the scipy ``OdeSolver`` named
    by ``method`` (one of ``SOLVER_METHODS``) with absolute tolerance rtol
    too, for at most ``max_steps`` steps; stats carry ``method``, ``rtol``,
    ``steps``, ``nfev``, ``njev`` and ``nlu``.  ``t_eval`` (``rtol`` only)
    records exactly those times, from the solver's dense output; otherwise
    the initial state, every ``record_every``-th step and the last are
    recorded.
    """
    f = as_vector_field(f)
    if isinstance(u0, GridFunction):
        u0 = u0.ravel()
    u = np.array(u0, dtype=float).reshape(-1)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ContractViolation("t_span must have t1 > t0")
    if (dt is None) == (rtol is None):
        raise ContractViolation("give exactly one of dt or rtol")
    if dt is not None:
        if t_eval is not None:
            raise ContractViolation("t_eval needs the adaptive branch (rtol)")
        times, states, stats = _integrate_rk4(f, u, t0, t1, dt, record_every)
    else:
        times, states, stats = _integrate_solver(f, u, t0, t1, rtol, method, t_eval,
                                                 record_every, max_steps)
    if f.diagnostics:
        stats["diagnostics"] = {name: np.asarray([fn(s) for s in states])
                                for name, fn in f.diagnostics.items()}
    return Trajectory(np.asarray(times), np.asarray(states), stats=stats)


def _integrate_rk4(f, u, t0, t1, dt, record_every):
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    nsteps, dt_eff = rk4_steps(t0, t1, dt)
    times = [t0]
    states = [u.copy()]
    t = t0
    for step in range(nsteps):
        u_new = _rk4_step(f.eval, t, u, dt_eff)
        _check_finite(u_new, t + dt_eff, u)
        u = u_new
        # exactly t1 after the last step, where t0 + nsteps * dt_eff may
        # round one ulp past it
        t = t1 if step == nsteps - 1 else t0 + (step + 1) * dt_eff
        if (step + 1) % record_every == 0 or step == nsteps - 1:
            times.append(t)
            states.append(u.copy())
    return times, states, {"accepted": nsteps, "rejected": 0}


def _integrate_solver(f, u, t0, t1, rtol, method, t_eval, record_every, max_steps):
    if method not in SOLVER_METHODS:
        raise ContractViolation(f"unknown method {method!r}; use one of {SOLVER_METHODS}")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float).reshape(-1)
        if (t_eval.size == 0 or np.any(np.diff(t_eval) <= 0)
                or t_eval[0] < t0 or t_eval[-1] > t1):
            raise ContractViolation("t_eval must be strictly increasing inside t_span")
    import scipy.integrate

    overflowed = False               # f returned non-finite or near-overflow values

    def fun(t, y):
        nonlocal overflowed
        out = f.eval(t, y)
        if not np.abs(out).max() < _NEAR_OVERFLOW:     # true for inf and nan too
            overflowed = True
        return out

    jac = {"jac": lambda t, y: f.jacobian(t, y)} if method == "Radau" else {}
    solver = getattr(scipy.integrate, method)(fun, t0, u, t1, rtol=rtol, atol=rtol, **jac)
    times, states = ([t0], [u.copy()]) if t_eval is None else ([], [])
    n_done = 0                       # t_eval entries recorded so far
    steps = since_record = 0
    while solver.status == "running":
        if steps >= max_steps:
            raise StiffnessError("step budget exhausted")
        last = solver.y.copy()
        overflowed = False
        try:
            message = solver.step()
            failed = solver.status == "failed"
        except ValueError:
            # scipy's LU solves refuse the non-finite Newton residual of an
            # implicit step whose f values overflow in its linear combinations
            # of them; a ValueError with no such f values is not divergence
            if not overflowed:
                raise
            failed = True
        if failed:
            # the solver still stands on the last accepted state; an
            # overflowed trial step that was then retried is no failure
            if overflowed:
                raise DivergenceError(f"the solution overflowed near t={solver.t:.6g}",
                                      t=solver.t, last_state=last)
            raise StiffnessError(f"step size underflow at t={solver.t:.6g}: {message}")
        _check_finite(solver.y, solver.t, last)
        steps += 1
        if t_eval is None:
            since_record += 1
            if since_record >= record_every or solver.status == "finished":
                times.append(solver.t)
                states.append(solver.y.copy())
                since_record = 0
        else:
            upto = int(np.searchsorted(t_eval, solver.t, side="right"))
            if upto > n_done:
                times.extend(t_eval[n_done:upto])
                states.extend(solver.dense_output()(t_eval[n_done:upto]).T)
                n_done = upto
    return times, states, {"method": method, "rtol": rtol, "steps": steps,
                           "nfev": solver.nfev, "njev": solver.njev, "nlu": solver.nlu}


def simulate_flow(f, u0, t_span, dt, record_every=1, t_eval=None):
    """Integrate by the simulation rule.  A field on a grid (a
    semi-discretised PDE) runs fixed-step RK4 at ``dt``, its explicit
    stability step, recording every ``record_every``-th step.  Any other
    field runs ``ODE_METHOD`` at ``ODE_RTOL``, recorded at ``t_eval``, by
    default at the times that RK4 run would record (``rk4_record_times``),
    so ``dt`` sets only where it records."""
    f = as_vector_field(f)
    if f.grid is not None:
        return integrate(f, u0, t_span, dt=dt, record_every=record_every)
    if t_eval is None:
        t_eval = rk4_record_times(*t_span, dt, record_every)
    return integrate(f, u0, t_span, rtol=ODE_RTOL, method=ODE_METHOD, t_eval=t_eval)


def integrator_entry(trajs):
    """A report's ``integrator`` entry for runs of one method and tolerance:
    the method, its rtol, and each count the runs carry summed over
    ``trajs`` (steps and right-hand-side evaluations, and for the adaptive
    solvers Jacobians and LU factorisations too)."""
    stats = [traj.stats for traj in trajs]
    if "method" in stats[0]:
        return {"method": stats[0]["method"], "rtol": stats[0]["rtol"],
                **{k: sum(s[k] for s in stats) for k in _SOLVER_COUNTS}}
    steps = sum(s["accepted"] for s in stats)
    return {"method": "RK4", "rtol": None, "steps": steps, "nfev": 4 * steps}


# a pair separation w below this, relative to 1 + ||u||, follows the
# linearized flow: f(u + w) - f(u) would keep fewer digits than Df(u) w loses
_PAIR_LINEAR = 1e-6


def _variational(f, u0, du0, t_span, dt, record_every, pair=False):
    """Co-integrate the state u, a tangent perturbation du with d(du)/dt =
    Df_t(u) du and, with ``pair``, the separation w = u2 - u of the
    trajectory u2 from u0 + du0, as one augmented field run by
    ``simulate_flow``.  Off the grid du and w are carried as a direction d
    and a log magnitude s (x = e^s d / |d|), so the solver's absolute
    tolerance bounds their relative error however far they decay; fixed-step
    RK4, linear in them, carries them as they are.  Returns the trajectory
    of u and, per carried vector, its unit directions and log magnitudes."""
    f = as_vector_field(f)
    u = np.array(u0.ravel() if isinstance(u0, GridFunction) else u0, dtype=float).reshape(-1)
    du = np.array(du0, dtype=float).reshape(-1)
    if u.shape != du.shape:
        raise DimensionError("u0 and du0 must have the same shape")
    r = np.linalg.norm(du)
    if r == 0.0:
        raise ContractViolation("du0 must be nonzero")
    n = u.shape[0]
    blocks = [n + k * (n + 1) for k in range(2 if pair else 1)]
    polar = f.grid is None

    def rhs(t, z):
        x = z[:n]
        fx, J = f.eval(t, x), f.jacobian(t, x)
        out = [fx]
        for b in blocks:
            d, mag = z[b:b + n], np.exp(z[b + n])          # inf: the pair diverged
            if b == n or (polar and mag <= _PAIR_LINEAR * (1.0 + math.sqrt(x @ x))):
                h = J @ d
            else:   # the pair's carried vector is c d; h is its rate of change over c
                c = mag / math.sqrt(d @ d) if polar else 1.0
                h = (f.eval(t, x + c * d) - fx) / c
            g = (d @ h) / (d @ d) if polar else 0.0
            out += [h - g * d, [g]]
        return np.concatenate(out)

    z0 = np.concatenate([u] + [np.r_[du / r, math.log(r)] if polar else np.r_[du, 0.0]
                              for _ in blocks])
    aug = VectorField(f=rhs, dim=z0.size, name=f.name + "_variational", grid=f.grid)
    traj = simulate_flow(aug, z0, t_span, dt, record_every)
    out = []
    for b in blocks:
        d = traj.states[:, b:b + n]
        norms = np.linalg.norm(d, axis=1)
        out.append((d / norms[:, None], traj.states[:, b + n] if polar else np.log(norms)))
    return Trajectory(traj.times, traj.states[:, :n], stats=traj.stats), out


def integrate_variational(f, u0, du0, t_span, dt, record_every=1):
    """Co-integrate the state and a nonzero tangent perturbation with the
    linearized dynamics d(du)/dt = Df_t(u) du, as one augmented field run
    by ``simulate_flow``."""
    traj, [(d, s)] = _variational(f, u0, du0, t_span, dt, record_every)
    traj.perturbations = np.exp(s)[:, None] * d
    return traj


def _bit_equal(a, b):
    """True when a and b are the same matrix to the bit (None: absent)."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return (sp.issparse(a) and sp.issparse(b) and a.shape == b.shape
            and (a != b).nnz == 0)


def verify_growth_bound(f, theta, spec, u0, du0, t_span, dt,
                        rate_stride=1, grid=None, tol=1e-4, record_every=1):
    """Check the perturbation growth bound ||du(t)||_Theta <=
    exp(int lambda ds) ||du(0)||_Theta along a trajectory, and the pairwise
    trajectory bound ||u1 - u2|| <= kappa(Theta) e^{lambda t} ||u1(0) - u2(0)||.

    The rate is solved again only where the Jacobian, Theta, dTheta/dt or
    Theta^{-1} differ from those at the previous state checked, and kappa
    only where Theta or Theta^{-1} differ; ``rate_solves`` counts the
    solves.  The report is advisory when any rate along the trajectory came
    from sampling rather than an eigensolve or closed form.
    """
    f = as_vector_field(f)
    traj, [(v, rho), (q, sigma)] = _variational(f, u0, du0, t_span, dt, record_every,
                                                pair=True)
    idx = np.unique(np.r_[0:len(traj.times):rate_stride, len(traj.times) - 1])
    ts = traj.times[idx]
    n = traj.states.shape[1]

    rates, wnorms = [], []
    advisory = False
    kappa = 1.0
    solves = 0
    prev = None                      # (J, Theta, dTheta/dt, Theta^-1) at the last state
    for i in idx:
        t_i, u_i = traj.times[i], traj.states[i]
        Th = theta.matrix(t_i, u_i, n)
        Ti = theta.inv_matrix(t_i, u_i, n) if theta.invertible else None
        key = (f.jacobian(t_i, u_i), Th, theta.dmatrix_dt(t_i, u_i, n), Ti)
        same = [False] * 4 if prev is None else list(map(_bit_equal, key, prev))
        if not all(same):
            r = weighted_rate(key[0], theta, t_i, u_i, spec=spec, grid=grid)
            solves += 1
            advisory = advisory or r.method == "sampled"
        if theta.invertible and not (same[1] and same[3]):
            kappa = max(kappa, np.linalg.norm(Th, 2) * np.linalg.norm(Ti, 2))
        prev = key
        rates.append(r.value)
        wnorms.append(sip_norm(Th @ v[i], spec, grid))
    rates = np.asarray(rates)
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(ts))])

    wnorms = np.asarray(wnorms)
    if wnorms[0] == 0.0:
        raise ContractViolation("initial perturbation has zero weighted norm")
    # ratios from the log magnitudes, which do not underflow
    ratios = np.exp(rho[idx] - rho[0] - cumint) * wnorms / wnorms[0]
    lam_sup = float(np.max(rates))

    qnorms = np.array([sip_norm(d, spec, grid) for d in q])
    dists = np.exp(sigma) * qnorms
    pair_ratios = (np.exp(sigma - sigma[0] - lam_sup * (traj.times - traj.times[0]))
                   * qnorms / (kappa * qnorms[0]))

    b = theta.bound_b
    t_b = -2.0 * math.log(b) / lam_sup if (lam_sup < 0 and np.isfinite(b) and b >= 1) else math.inf
    after = traj.times - traj.times[0] >= t_b
    contracted_after_tb = bool(np.all(dists[after] < dists[0])) if np.any(after) else False
    tail = dists[len(dists) * 3 // 4:]
    tail_monotone = bool(np.all(np.diff(tail) <= 1e-12 + 1e-6 * dists[0]))

    return {
        "times": ts,
        "rates": rates,
        "lambda_sup": lam_sup,
        "advisory": advisory,
        "rate_solves": solves,
        "weighted_ratios": ratios,
        "max_weighted_ratio": float(np.max(ratios)),
        "weighted_ok": bool(np.max(ratios) <= 1.0 + tol),
        "kappa": float(kappa),
        "pair_times": traj.times,
        "pair_distances": dists,
        "max_pair_ratio": float(np.max(pair_ratios)),
        "pair_ok": bool(np.max(pair_ratios) <= 1.0 + tol),
        "transient_bound": t_b,
        "contracted_after_tb": contracted_after_tb,
        "tail_monotone": tail_monotone,
        "asymptotic_check": "empirical",
        "integrator": integrator_entry([traj]),
    }


@dataclass
class MLEResult:
    value: float
    converged: bool
    times: np.ndarray = None
    history: np.ndarray = None
    integrator: dict = None


def mle_estimate(f, u0, t_span, renorm_interval, dt, p=2.0, seed=0):
    """Maximum Lyapunov exponent by the renormalized-perturbation method:
    average the log growth of a co-integrated tangent vector over fixed
    renormalization intervals."""
    f = as_vector_field(f)
    u = np.array(u0, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    du = rng.standard_normal(u.shape[0])
    spec = NormSpec(p=p)
    du /= sip_norm(du, spec)
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_seg = max(1, int(round((t1 - t0) / renorm_interval)))
    log_sum = 0.0
    t = t0
    hist_t, hist, segs = [], [], []
    for _ in range(n_seg):
        # the log growth over the segment from the carried log magnitude, so
        # a perturbation that decays below the smallest float still counts
        seg, [(d, s)] = _variational(f, u, du, (t, t + renorm_interval), dt,
                                     record_every=10**9)
        segs.append(seg)
        u = seg.states[-1]
        r = sip_norm(d[-1], spec)
        log_sum += s[-1] + math.log(r)
        du = d[-1] / r
        t += renorm_interval
        hist_t.append(t)
        hist.append(log_sum / (t - t0))
    hist = np.asarray(hist)
    value = float(hist[-1])
    i34 = max(0, int(len(hist) * 0.75) - 1)
    converged = bool(abs(hist[i34] - value) <= 0.02 * max(1.0, abs(value)))
    return MLEResult(value=value, converged=converged, times=np.asarray(hist_t),
                     history=hist, integrator=integrator_entry(segs))


def fit_decay_rate(times, values, rel_window=(1e-8, 1e-1), min_points=5, floor=0.0):
    """Least-squares slope of log(values) vs time, restricted to the values
    above ``floor`` that have decayed into ``rel_window`` relative to their
    initial magnitude (falls back to those in the tail half)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    ref = v[0] if v[0] > 0 else np.max(v)
    above = v > floor
    mask = above & (v >= rel_window[0] * ref) & (v <= rel_window[1] * ref)
    if np.count_nonzero(mask) < min_points:
        tail = np.zeros_like(above)
        tail[len(v) // 2:] = True
        mask = above & tail
    if np.count_nonzero(mask) < 2:
        return math.nan, {"points": int(np.count_nonzero(mask))}
    slope, intercept = np.polyfit(t[mask], np.log(v[mask]), 1)
    resid = np.log(v[mask]) - (slope * t[mask] + intercept)
    return float(slope), {
        "points": int(np.count_nonzero(mask)),
        "intercept": float(intercept),
        "rms_residual": float(np.sqrt(np.mean(resid**2))),
    }

"""Trajectory and variational integration, growth-bound verification, and
maximum-Lyapunov-exponent estimation.

``integrate`` has two branches.  With a tolerance ``rtol`` it is one call of
ODEPACK's LSODA (``scipy.integrate.odeint``, imported only on that branch),
which runs the whole integration in compiled code, switches between Adams
(non-stiff) and BDF (stiff) by itself, and interpolates its records from its
own history at no extra evaluations of f.  BDF gets
``VectorField.jacobian`` as a dense matrix when the field has ``jac``, and
differences f otherwise.  A failed run raises ``DivergenceError`` when f or
the state neared overflow or LSODA's arithmetic met a non-finite value, and
``StiffnessError`` with LSODA's reason otherwise.  With a fixed step ``dt``
it runs the classical fourth-order one-step method, which only the
vanishing-viscosity scheme uses: its eps = 0 upwind level has no Jacobian.
Each constant sparse product of an evaluation is ``matvec``: scipy's CSR
kernel from the private ``scipy.sparse._sparsetools``, without scipy's
per-call dispatch, pinned to ``A @ u`` bit for bit by a test.

``simulate_flow`` is the one simulation path: LSODA at ``ODE_RTOL``,
recorded at the times fixed-step RK4 would record.  The simulation
cross-checks of ``geometry``, the heat and reaction-diffusion experiments
and the variational flows (``integrate_variational``,
``verify_growth_bound`` and ``mle_estimate``, which carry a tangent
perturbation, and a pair separation, with the state as one augmented field)
all go through it.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import ContractViolation, DimensionError, DivergenceError, StiffnessError
from .measures import as_matrix, weighted_rate
from .sip import NormSpec
from .sip import norm as sip_norm
from .weights import transient_bound

_FD_REL_STEP = math.sqrt(np.finfo(float).eps)


@dataclass
class VectorField:
    """Right-hand side f(t, u) and its exact or difference Jacobian."""

    f: object
    jac: object = None
    dim: int = None
    name: str = ""
    grid: object = None

    def eval(self, t, u):
        return np.asarray(self.f(t, np.asarray(u)), dtype=float)

    def jacobian(self, t, u):
        u = np.asarray(u, dtype=float)
        if self.jac is not None:
            return as_matrix(self.jac(t, u))
        return fd_jacobian(self.eval, t, u)

    def __call__(self, t, u):
        return self.eval(t, u)


def fd_jacobian(f, t, u):
    """Central-difference Jacobian, step = sqrt(eps) * (1 + ||u||)."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    h = _FD_REL_STEP * (1.0 + np.linalg.norm(u))
    J = np.empty((n, n))
    for j in range(n):
        up = u.copy()
        um = u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (np.asarray(f(t, up)) - np.asarray(f(t, um))) / (2.0 * h)
    return J


def matvec(A):
    """u -> A @ u for a constant matrix A; for a sparse A, scipy's CSR kernel
    with no per-call dispatch, bit for bit as A @ u."""
    if not sp.issparse(A):
        return A.__matmul__
    A = A.tocsr()
    (M, N), ptr, idx, data = A.shape, A.indptr, A.indices, A.data

    def product(u):
        if u.shape != (N,):      # the kernel reads N entries of u unchecked
            raise DimensionError(f"matvec needs a vector of length {N}, got shape {u.shape}")
        out = np.zeros(M)
        _csr_matvec(M, N, ptr, idx, data, u, out)
        return out
    return product


def linear_field(A):
    A = as_matrix(A)
    return VectorField(f=lambda t, u, Au=matvec(A): Au(u), jac=lambda t, u, A=A: A,
                       dim=A.shape[0], name="linear")


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


def _rk4_step(f, t, u, dt):
    """One classical RK4 step."""
    h = 0.5 * dt
    k1 = f(t, u)
    k2 = f(t + h, u + h * k1)
    acc = k1 + 2.0 * k2         # the step's own buffer: f may return a shared array
    k3 = f(t + h, u + h * k2)
    acc += 2.0 * k3
    acc += f(t + dt, u + dt * k3)
    acc *= dt / 6.0
    return np.add(u, acc, out=acc)


def _check_finite(u, t, prev):
    if not np.isfinite(u).all():
        raise DivergenceError(f"state became non-finite at t={t:.6g}", t=t, last_state=prev)


# the tolerance of every adaptive run
ODE_RTOL = 1e-12
# LSODA's step budget between two records.  No record interval of a shipped
# config takes more than about 1,300 steps (Poisson's one interval to
# t = 400); a run whose step underflows (t + h = t) creeps on until the
# budget is spent, a fraction of a second at this size
MAX_RECORD_STEPS = 100_000
# the counts an adaptive run's stats carry
_SOLVER_COUNTS = ("steps", "nfev", "njev", "bdf_records")
# |f| or |u| above which a failed run counts as divergence
_NEAR_OVERFLOW = np.finfo(float).max / 2**10
# LSODA keeps its state in global memory: set while one runs
_lsoda_running = False


def rk4_steps(t0, t1, dt):
    """The number of steps fixed-step RK4 takes over (t0, t1) for a requested
    step ``dt``, and the step it then takes."""
    nsteps = max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))
    return nsteps, (t1 - t0) / nsteps


def _check_record_every(record_every):
    if not (isinstance(record_every, (int, np.integer)) and record_every >= 1):
        raise ContractViolation(f"record_every must be an integer >= 1, got {record_every!r}")


def rk4_record_times(t0, t1, dt, record_every):
    """The times ``integrate(..., dt=dt, record_every=record_every)`` records:
    t0, every ``record_every``-th step and the last, which is exactly t1."""
    _check_record_every(record_every)
    nsteps, dt_eff = rk4_steps(t0, t1, dt)
    times = t0 + np.unique(np.r_[0:nsteps + 1:record_every, nsteps]) * dt_eff
    times[-1] = t1
    return times


def integrate(f, u0, t_span, dt=None, rtol=None, record_every=1, t_eval=None):
    """Integrate du/dt = f(t, u) over t_span.

    Give exactly one of ``dt`` or ``rtol``.  ``dt`` runs fixed-step RK4
    (local truncation error O(dt^5) per step), recording the initial state,
    every ``record_every``-th step and the last; stats count its steps as
    ``accepted``/``rejected`` and its ``nfev``.
    ``rtol`` runs LSODA with absolute tolerance rtol too, recording exactly
    the times ``t_eval`` (by default t0 and t1; ``record_every`` must be 1),
    with at most ``MAX_RECORD_STEPS`` steps between two records; stats carry
    ``method`` ("LSODA"), ``rtol``, ``steps``, ``nfev``, ``njev`` and
    ``bdf_records``, the records LSODA reached on BDF.  An ``rtol`` run
    cannot start inside the right-hand side of another (``ContractViolation``).
    """
    f = as_vector_field(f)
    u = np.array(u0, dtype=float).reshape(-1)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ContractViolation("t_span must have t1 > t0")
    if (dt is None) == (rtol is None):
        raise ContractViolation("give exactly one of dt or rtol")
    _check_record_every(record_every)
    if dt is not None:
        if t_eval is not None:
            raise ContractViolation("t_eval needs the adaptive branch (rtol)")
        times, states, stats = _integrate_rk4(f, u, t0, t1, dt, record_every)
    else:
        if record_every != 1:
            raise ContractViolation("record_every needs the fixed-step branch (dt); "
                                    "the adaptive branch records at t_eval")
        times, states, stats = _integrate_solver(f, u, t0, t1, rtol, t_eval)
    return Trajectory(np.asarray(times), np.asarray(states), stats=stats)


def _integrate_rk4(f, u, t0, t1, dt, record_every):
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    nsteps, dt_eff = rk4_steps(t0, t1, dt)
    times, states, t = [t0], [u.copy()], t0
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
    return times, states, {"accepted": nsteps, "rejected": 0, "nfev": 4 * nsteps}


def _integrate_solver(f, u, t0, t1, rtol, t_eval):
    global _lsoda_running
    if t_eval is None:
        times = t_eval = np.array([t0, t1])
    else:
        t_eval = np.asarray(t_eval, dtype=float).reshape(-1)
        if (t_eval.size == 0 or np.any(np.diff(t_eval) <= 0)
                or t_eval[0] < t0 or t_eval[-1] > t1 or t_eval[-1] == t0):
            raise ContractViolation("t_eval must be strictly increasing inside t_span "
                                    "and end after t0")
        # odeint's first row is u0 at its first time, which is t0
        times = t_eval if t_eval[0] == t0 else np.r_[t0, t_eval]
    if _lsoda_running:
        raise ContractViolation("an rtol integration cannot run inside the right-hand "
                                "side of another: LSODA keeps its state in global memory")
    from scipy.integrate import ODEintWarning, odeint

    ev, last = f.eval, (t0, None)    # the last evaluation of f: its time and value

    def rhs(t, y):
        nonlocal last
        last = (t, ev(t, y))
        return last[1]

    def jac(t, y):
        J = f.jacobian(t, y)
        return J.toarray() if sp.issparse(J) else J

    _lsoda_running = True
    try:
        with warnings.catch_warnings():      # a failure raises below, with its reason
            warnings.simplefilter("ignore", ODEintWarning)
            ys, info = odeint(rhs, u, times, Dfun=None if f.jac is None else jac,
                              rtol=rtol, atol=rtol, tfirst=True, full_output=True,
                              mxstep=MAX_RECORD_STEPS)
    finally:
        _lsoda_running = False
    message = info["message"]
    if message == "Integration successful.":
        # LSODA steps on through nan: the first record that is not finite failed
        finite = np.isfinite(ys).all(axis=1)
        if finite.all():
            return t_eval, ys[len(times) - len(t_eval):], {
                "method": "LSODA", "rtol": rtol, "steps": int(info["nst"][-1]),
                "nfev": int(info["nfe"][-1]), "njev": int(info["nje"][-1]),
                "bdf_records": int(np.count_nonzero(info["mused"] == 2))}
        k = int(np.argmin(finite))
    else:
        # LSODA writes no row after a failure, nor the info of a row that
        # failed on a non-finite value: the failed row is the first that lies
        # past the last evaluation of f or that LSODA did not reach
        reached = (info["tcur"] >= times[1:]) & (times[1:] <= last[0])
        k = 1 + int(np.argmin(reached)) if not reached.all() else len(times) - 1
    (t, fu), state = last, ys[k]
    if not np.isfinite(state).all():
        t, state = times[k - 1], ys[k - 1]
    # LSODA reports its own non-finite arithmetic as illegal input
    if (message.startswith("Illegal input") or not np.abs(fu).max() < _NEAR_OVERFLOW
            or not np.abs(ys[k]).max() < _NEAR_OVERFLOW):          # true for nan too
        raise DivergenceError(f"the solution overflowed near t={t:.6g}", t=t,
                              last_state=state.copy())
    raise StiffnessError(f"LSODA stopped near t={t:.6g}: {message}")


def simulate_flow(f, u0, t_span, dt, record_every=1):
    """Integrate a simulation: LSODA at ``ODE_RTOL``, recorded at the times
    fixed-step RK4 at ``dt`` would record, every ``record_every``-th step
    (``rk4_record_times``), so ``dt`` sets only where it records."""
    return integrate(f, u0, t_span, rtol=ODE_RTOL,
                     t_eval=rk4_record_times(*t_span, dt, record_every))


def integrator_entry(trajs):
    """A report's ``integrator`` entry for LSODA runs of one tolerance: the
    method, its rtol, and each count the runs carry (steps, right-hand-side
    evaluations, Jacobians and the records reached on BDF) summed over
    ``trajs``."""
    stats = [traj.stats for traj in trajs]
    return {"method": stats[0]["method"], "rtol": stats[0]["rtol"],
            **{k: sum(s[k] for s in stats) for k in _SOLVER_COUNTS}}


# a pair separation w below this, relative to 1 + ||u||, follows the
# linearized flow: f(u + w) - f(u) would keep fewer digits than Df(u) w loses
_PAIR_LINEAR = 1e-6


def _variational(f, u0, du0, t_span, dt, record_every, pair=False):
    """Co-integrate the state u, a tangent perturbation du with d(du)/dt =
    Df_t(u) du and, with ``pair``, the separation w = u2 - u of the
    trajectory u2 from u0 + du0, as one augmented field run by
    ``simulate_flow``.  du and w are carried as a direction d and a log
    magnitude s (x = e^s d / |d|), so the solver's absolute tolerance bounds
    their relative error however far they decay.  Returns the trajectory of
    u and, per carried vector, its unit directions and log magnitudes."""
    f = as_vector_field(f)
    u = np.array(u0, dtype=float).reshape(-1)
    du = np.array(du0, dtype=float).reshape(-1)
    if u.shape != du.shape:
        raise DimensionError("u0 and du0 must have the same shape")
    r = np.linalg.norm(du)
    if r == 0.0:
        raise ContractViolation("du0 must be nonzero")
    n = u.shape[0]
    blocks = [n + k * (n + 1) for k in range(2 if pair else 1)]

    def rhs(t, z):
        x = z[:n]
        fx, J = f.eval(t, x), f.jacobian(t, x)
        out = [fx]
        for b in blocks:
            d, mag = z[b:b + n], np.exp(z[b + n])          # inf: the pair diverged
            if b == n or mag <= _PAIR_LINEAR * (1.0 + math.sqrt(x @ x)):
                h = J @ d
            else:   # the pair's carried vector is c d; h is its rate of change over c
                c = mag / math.sqrt(d @ d)
                h = (f.eval(t, x + c * d) - fx) / c
            g = (d @ h) / (d @ d)
            out += [h - g * d, [g]]
        return np.concatenate(out)

    z0 = np.concatenate([u] + [np.r_[du / r, math.log(r)] for _ in blocks])
    aug = VectorField(f=rhs, dim=z0.size, name=f.name + "_variational")
    traj = simulate_flow(aug, z0, t_span, dt, record_every)
    out = []
    for b in blocks:
        d = traj.states[:, b:b + n]
        out.append((d / np.linalg.norm(d, axis=1)[:, None], traj.states[:, b + n]))
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


def verify_growth_bound(f, theta, spec, u0, du0, t_span, dt, grid=None,
                        record_every=1):
    """Check the perturbation growth bound ||du(t)||_Theta <=
    exp(int lambda ds) ||du(0)||_Theta along a trajectory, and the pairwise
    trajectory bound ||u1 - u2|| <= kappa(Theta) e^{lambda t} ||u1(0) - u2(0)||.

    Both are checked at every record.  The rate is solved again only where
    the Jacobian, Theta, dTheta/dt or Theta^{-1} differ from those at the
    previous record, and kappa only where Theta or Theta^{-1} differ;
    ``rate_solves`` counts the solves.  The report is advisory when any rate
    along the trajectory came from sampling rather than an eigensolve or
    closed form.
    """
    f = as_vector_field(f)
    traj, [(v, rho), (q, sigma)] = _variational(f, u0, du0, t_span, dt, record_every,
                                                pair=True)
    ts = traj.times
    n = traj.states.shape[1]

    rates, runs = [], []             # runs: (Theta, the records it weights) per run
    advisory, kappa, solves = False, 1.0, 0
    prev = None                      # (J, Theta, dTheta/dt, Theta^-1) at the last state
    for i, (t_i, u_i) in enumerate(zip(ts, traj.states)):
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
        if not same[1]:
            runs.append((Th, []))
        runs[-1][1].append(i)
        prev = key
        rates.append(r.value)
    rates = np.asarray(rates)
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(ts))])

    # the weighted tangent vectors Theta v, one product per run of one Theta
    tv = np.concatenate([v[rows] @ Th.T for Th, rows in runs])
    wnorms = sip_norm(tv, spec, grid, rows=True)
    if wnorms[0] == 0.0:
        raise ContractViolation("initial perturbation has zero weighted norm")
    # ratios from the log magnitudes, which do not underflow
    ratios = np.exp(rho - rho[0] - cumint) * wnorms / wnorms[0]
    lam_sup = float(np.max(rates))

    qnorms = sip_norm(q, spec, grid, rows=True)
    dists = np.exp(sigma) * qnorms
    pair_ratios = (np.exp(sigma - sigma[0] - lam_sup * (traj.times - traj.times[0]))
                   * qnorms / (kappa * qnorms[0]))

    t_b = transient_bound(lam_sup, theta.bound_b)
    after = traj.times - traj.times[0] >= t_b
    contracted_after_tb = bool(np.all(dists[after] < dists[0])) if np.any(after) else False

    return {
        "times": ts,
        "rates": rates,
        "lambda_sup": lam_sup,
        "advisory": advisory,
        "rate_solves": solves,
        "weighted_ratios": ratios,
        "max_weighted_ratio": float(np.max(ratios)),
        "kappa": float(kappa),
        "pair_times": traj.times,
        "pair_distances": dists,
        "max_pair_ratio": float(np.max(pair_ratios)),
        "transient_bound": t_b,
        "contracted_after_tb": contracted_after_tb,
        "integrator": integrator_entry([traj]),
    }


@dataclass
class MLEResult:
    value: float
    converged: bool
    times: np.ndarray = None
    history: np.ndarray = None
    integrator: dict = None


def mle_estimate(f, u0, t_span, renorm_interval, p=2.0, seed=0):
    """Maximum Lyapunov exponent from one co-integrated tangent vector du:
    the running estimate log(||du(t)||_p / ||du(t0)||_p) / (t - t0), recorded
    every ``renorm_interval`` for as many whole intervals as fit in t_span
    (``ContractViolation`` when none does).  The perturbation is carried as
    a direction and a log magnitude, so one run needs no renormalization,
    and one that decays below the smallest float still counts."""
    u = np.array(u0, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    du = rng.standard_normal(u.shape[0])
    spec = NormSpec(p=p)
    du /= sip_norm(du, spec)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if renorm_interval > t1 - t0:
        raise ContractViolation(f"renorm_interval {renorm_interval!r} is longer than the run")
    # the whole intervals in the run, one short of t1 by rounding included (3 / 0.1 < 30)
    n_seg = int((t1 - t0) / renorm_interval * (1.0 + 1e-9))
    traj, [(d, s)] = _variational(f, u, du, (t0, t0 + n_seg * renorm_interval),
                                  renorm_interval, 1)
    times = traj.times[1:]
    hist = (s[1:] + np.log(sip_norm(d[1:], spec, rows=True))) / (times - t0)
    value = float(hist[-1])
    i34 = max(0, int(len(hist) * 0.75) - 1)
    converged = bool(abs(hist[i34] - value) <= 0.02 * max(1.0, abs(value)))
    return MLEResult(value=value, converged=converged, times=times,
                     history=hist, integrator=integrator_entry([traj]))


# fewer points than this in the fit window: fall back to the tail half
_FIT_MIN_POINTS = 5


def fit_decay_rate(times, values, rel_window=(1e-8, 1e-1), floor=0.0):
    """Least-squares slope of log(values) vs time, restricted to the values
    above ``floor`` that have decayed into ``rel_window`` relative to their
    initial magnitude (falls back to those in the tail half)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    ref = v[0] if v[0] > 0 else np.max(v)
    above = v > floor
    mask = above & (v >= rel_window[0] * ref) & (v <= rel_window[1] * ref)
    if np.count_nonzero(mask) < _FIT_MIN_POINTS:
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

"""Semi-discretized PDE test problems and experiments: zero-flux heat,
reaction-diffusion homogenization, nonlinear Poisson fixed points, Sobolev
rates, and vanishing one-sided-Lipschitz (viscosity-like) limits."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolation, DimensionError
from .flows import (ODE_RTOL, VectorField, fit_decay_rate, integrate, integrator_entry,
                    matvec, rk4_steps, simulate_flow)
from .geometry import Projector, check_subspace_invariance
from .grids import Grid, derivative_matrix_1d
from .measures import mu, nonlinear_rate, weighted_rate
from .reporting import Check, verdict
from .sip import L2, NormSpec
from .sip import norm as sip_norm
from .weights import identity as identity_weight
from .weights import projection_complement

@dataclass
class Discretization:
    dims: int
    n: int
    h: float
    boundary: str
    laplacian: sp.spmatrix
    gradients: list
    grid: Grid

    @property
    def npoints(self):
        return self.n ** self.dims


def _laplacian_1d(n, h, boundary):
    inv_h2 = 1.0 / (h * h)
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    L = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if boundary == "periodic":
        L[0, n - 1] = 1.0
        L[n - 1, 0] = 1.0
    elif boundary == "neumann":
        L[0, 0] = -1.0
        L[n - 1, n - 1] = -1.0
    # dirichlet: zero ghost values, matrix unchanged
    return (L * inv_h2).tocsr()


def build_discretization(n, dims=1, boundary="periodic"):
    """Uniform grid on [0, 1]^dims with the requested boundary.

    Spacing: 1/n for periodic and zero-flux grids, 1/(n+1) for the
    zero-Dirichlet grid (interior points only).
    """
    if n < 4:
        raise ContractViolation("need n >= 4 grid points")
    if dims not in (1, 2):
        raise ContractViolation("dims must be 1 or 2")
    if boundary not in ("periodic", "neumann", "dirichlet"):
        raise ContractViolation(f"unknown boundary {boundary!r}")
    h = 1.0 / (n + 1) if boundary == "dirichlet" else 1.0 / n
    L1d = _laplacian_1d(n, h, boundary)
    eye = sp.identity(n, format="csr")
    d = derivative_matrix_1d(n, h, boundary)
    if dims == 1:
        lap, grads = L1d, [d]
    else:
        lap = sp.kron(L1d, eye, format="csr") + sp.kron(eye, L1d, format="csr")
        grads = [sp.kron(d, eye, format="csr"), sp.kron(eye, d, format="csr")]
    grid = Grid((n,) * dims, (h,) * dims, boundary)
    return Discretization(dims=dims, n=n, h=h, boundary=boundary,
                          laplacian=lap, gradients=grads, grid=grid)


def neumann_second_eigenvalue(n, h):
    """Slowest nonzero mode of the 1D zero-flux Laplacian."""
    return -(2.0 / h**2) * (1.0 - math.cos(math.pi / n))


def dirichlet_poincare_constant(n, h):
    """|largest eigenvalue| of the 1D zero-Dirichlet Laplacian, the
    discrete Poincare constant."""
    return (2.0 / h**2) * (1.0 - math.cos(math.pi * h))


def _block_diag(blocks):
    """The block-diagonal CSR matrix of ``blocks``; a single block as it is
    (scipy's ``block_diag`` takes 0.6 ms to copy one)."""
    return blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")


def heat_field(disc, alpha=1.0):
    lap = alpha * disc.laplacian
    return VectorField(f=lambda t, u, lap_u=matvec(lap): lap_u(u), jac=lambda t, u: lap,
                       dim=disc.npoints, name=f"heat(alpha={alpha})", grid=disc.grid)


# ---------------------------------------------------------------------------
# pointwise reactions
# ---------------------------------------------------------------------------

@dataclass
class PointwiseReaction:
    """Spatially local reaction: fn maps (m, npts) values to (m, npts)
    rates, jac maps them to the (m, m, npts) per-point Jacobian; its
    experiments sample states about the constant state ``steady_state``."""

    fn: object
    jac: object
    n_species: int
    name: str
    steady_state: np.ndarray


def allen_cahn_reaction():
    def fn(U):
        out, u = np.empty_like(U), U[0]
        out[0] = u - u * u * u
        return out

    def jac(U):
        return (1.0 - 3.0 * U[0] ** 2)[None, None, :]

    return PointwiseReaction(fn, jac, 1, "allen_cahn", np.zeros(1))


def brusselator_reaction(a=1.0, b=1.8):
    def fn(U):
        (x, y), out = U, np.empty_like(U)
        xy2 = x * x * y
        out[0], out[1] = a - (b + 1.0) * x + xy2, b * x - xy2
        return out

    def jac(U):
        x, y = U
        J = np.empty((2, 2, x.shape[0]))
        J[0, 0] = -(b + 1.0) + 2.0 * x * y
        J[0, 1] = x * x
        J[1, 0] = b - 2.0 * x * y
        J[1, 1] = -x * x
        return J

    return PointwiseReaction(fn, jac, 2, "brusselator", np.array([a, b / a]))


def reaction_diffusion_field(disc, alphas, reaction):
    """du_i/dt = alpha_i Lap u_i + r_i(u_1, ..., u_m), species stacked;
    ``alphas`` is one diffusivity for every species or one per species."""
    m = reaction.n_species
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.size not in (1, m):
        raise DimensionError(f"need one diffusivity or one per species, got {alphas.size}")
    npts = disc.npoints
    diffusion = sp.kron(sp.diags(np.broadcast_to(alphas, (m,))), disc.laplacian, format="csr")
    diffuse = matvec(diffusion)

    def f(t, z):
        return diffuse(z) + reaction.fn(z.reshape(m, npts)).ravel()

    # the dense diffusion matrix, plus the reaction on the diagonal of each block (i, j)
    D = diffusion.toarray()
    i, j, k = np.indices((m, m, npts)).reshape(3, -1)
    rows, cols = i * npts + k, j * npts + k

    def jac(t, z):
        J = D.copy()
        J[rows, cols] += reaction.jac(z.reshape(m, npts)).ravel()
        return J

    return VectorField(f=f, jac=jac, dim=m * npts,
                       name=f"reaction_diffusion({reaction.name})", grid=disc.grid)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

_N_OUT = 200               # heat, reaction-diffusion: about this many records;
                           # vanishing limit: exactly this many output intervals
_RD_SAMPLES = 12           # reaction-diffusion: states sampled for the rates
_POISSON_N_INIT = 3        # Poisson: gradient flows from this many random states,
_POISSON_T_MAX = 400.0     # ... stacked as one run this long
_N_TEST = 10               # vanishing limit: weak-form test functions, and
_N_RATE_SAMPLES = 6        # ... states sampled per eps for the rate


def _record_every(t_end, dt):
    """The step count between records that gives about ``_N_OUT`` records
    of fixed-step RK4 at ``dt`` over (0, t_end)."""
    return max(1, rk4_steps(0.0, t_end, dt)[0] // _N_OUT)


def heat_zero_flux_experiment(n, alpha, t_end, seed, dims):
    """Zero-flux heat equation contracting to its spatial mean: certify the
    rate in the mean-complement seminorm, simulate, and compare the fitted
    decay of ||Q u(t)|| with the certified value."""
    disc = build_discretization(n, dims=dims, boundary="neumann")
    npts = disc.npoints
    fld = heat_field(disc, alpha)
    proj = Projector.mean(npts)
    qw = projection_complement(proj.P)

    rng = np.random.default_rng(seed)
    inv = check_subspace_invariance(fld, proj, [(0.0, rng.standard_normal(npts))
                                                for _ in range(5)])
    rate = weighted_rate(alpha * disc.laplacian, qw, spec=L2, grid=disc.grid)
    lam_formula = alpha * neumann_second_eigenvalue(n, disc.h)

    u0 = rng.standard_normal(npts)
    # recorded where fixed-step RK4 at the explicit stability step would record
    dt = 0.2 * disc.h**2 / alpha
    traj = simulate_flow(fld, u0, (0.0, t_end), dt, _record_every(t_end, dt))
    qnorm = sip_norm(proj.q_rows(traj.states), L2, disc.grid, rows=True)
    mass = np.array([float(np.mean(u)) for u in traj.states])
    # the certificate predicts the asymptotic rate: fit the last half of the
    # run, where the slowest mode dominates even when u0 barely excites it
    half = len(traj.times) // 2
    fitted, fit_info = fit_decay_rate(traj.times[half:], qnorm[half:],
                                      rel_window=(1e-8, 1.0))
    mass_drift = float(np.max(np.abs(mass - mass[0])))

    checks = [
        inv["check"],
        Check.lt("subspace_rate", rate.value, 0.0),
        Check.leq("rate_matches_formula",
                  abs(rate.value - lam_formula) / abs(lam_formula), 1e-8),
        Check.leq("fitted_decay_within_2pct",
                  abs(fitted - rate.value) / abs(rate.value), 0.02),
        Check.leq("mass_conservation", mass_drift, 1e-10 * max(1.0, abs(mass[0]))),
    ]
    report = {
        "experiment": "heat",
        "n": n, "alpha": alpha, "dims": dims, "h": disc.h,
        "rate": rate,
        "lambda_formula": lam_formula,
        "fitted_decay": fitted,
        "fit": fit_info,
        "mass_drift": mass_drift,
        "checks": checks,
    }
    series = {
        "decay": (["time", "q_norm", "mass"], [traj.times, qnorm, mass]),
    }
    return verdict(report), series


def reaction_diffusion_experiment(n, alphas, reaction, t_end, seed, amplitude):
    """Homogenization certificate for reaction-diffusion with zero flux:
    condition (1) the constant subspace is invariant, condition (2) every
    species' reaction rate in the mean-complement seminorm is beaten by its
    diffusion; then simulate and fit the decay of ||Q u(t)||, from states
    sampled about ``reaction.steady_state``."""
    m = reaction.n_species
    disc = build_discretization(n, dims=1, boundary="neumann")
    npts = disc.npoints
    fld = reaction_diffusion_field(disc, alphas, reaction)
    alphas = np.broadcast_to(np.atleast_1d(np.asarray(alphas, dtype=float)), (m,))
    proj_full = Projector.mean(npts, ncomp=m)
    q_species = projection_complement(Projector.mean(npts).P)

    rng = np.random.default_rng(seed)
    base = np.asarray(reaction.steady_state, dtype=float)

    def sample_state():
        return (np.repeat(base[:, None], npts, axis=1)
                + amplitude * rng.standard_normal((m, npts))).reshape(-1)

    samples = [(0.0, sample_state()) for _ in range(_RD_SAMPLES)]

    cond1 = check_subspace_invariance(fld, proj_full, samples)
    mqd = abs(neumann_second_eigenvalue(n, disc.h))
    species_checks = []
    species_rates = []
    for i in range(m):
        # species i alone: a field whose Jacobian at a stacked state is the
        # reaction's i-th diagonal block (only the Jacobian is read)
        block = VectorField(f=None, dim=npts, jac=lambda t, z, i=i: np.diag(
            reaction.jac(z.reshape(m, npts))[i, i]))
        worst = nonlinear_rate(block, q_species, spec=L2, sampler=samples,
                               grid=disc.grid).value
        species_rates.append(worst)
        species_checks.append(
            Check.lt(f"species_{i}_rate_vs_diffusion", worst, alphas[i] * mqd))
    full_weight = projection_complement(proj_full.P)
    coupled = nonlinear_rate(fld, full_weight, spec=L2, sampler=samples, grid=None)

    u0 = sample_state()
    # recorded where fixed-step RK4 at the explicit stability step would record
    dt = 0.2 * disc.h**2 / max(float(np.max(alphas)), 1e-12)
    traj = simulate_flow(fld, u0, (0.0, t_end), dt, _record_every(t_end, dt))
    qnorm = sip_norm(proj_full.q_rows(traj.states), L2, disc.grid, rows=True)
    fitted, fit_info = fit_decay_rate(traj.times, qnorm)
    final_ratio = float(qnorm[-1] / qnorm[0])

    report = {
        "experiment": "reaction_diffusion",
        "n": n, "alphas": list(map(float, alphas)), "reaction": reaction.name,
        "condition1": cond1, "species_rates": species_rates,
        "diffusion_strength": [float(a * mqd) for a in alphas],
        "lambda_certified": float(coupled.value),
        "coupled_rate": coupled,
        "checks": [cond1["check"], *species_checks],
        "fitted_decay": fitted,
        "fit": fit_info,
        "final_qnorm_ratio": final_ratio,
        "homogenized": bool(final_ratio < 0.1),
        "integrator": integrator_entry([traj]),
    }
    series = {"decay": (["time", "q_norm"], [traj.times, qnorm])}
    return verdict(report), series


def sine_reaction(c):
    """The pair (f, f') of the scalar pointwise map f(u) = c sin(u)."""
    return (lambda u: c * np.sin(u)), (lambda u: c * np.cos(u))


def poisson_gradient_flow(disc, fn, dfn, copies=1):
    """u_t = Lap u + f(u), whose equilibria solve the Poisson problem; on
    ``copies`` stacked states, u_t = kron(I, Lap) u + f(u)."""
    lap = _block_diag([disc.laplacian] * copies)
    dense, diag = lap.toarray(), np.diag_indices(lap.shape[0])

    def jac(t, u):
        J = dense.copy()
        J[diag] += dfn(u)
        return J

    return VectorField(f=lambda t, u, lap_u=matvec(lap): lap_u(u) + fn(u), jac=jac,
                       dim=copies * disc.npoints, name="poisson_gradient_flow",
                       grid=disc.grid)


def nonlinear_poisson_experiment(n, reaction, seed, refinement):
    """Existence and uniqueness for Lap u + f(u) = 0 with zero Dirichlet
    data, ``reaction`` the pair (f, f'): when the expansion rate of f stays
    below the discrete Poincare constant, the gradient flow contracts to a
    unique fixed point, reached from ``_POISSON_N_INIT`` random states."""
    fn, dfn = reaction
    disc = build_discretization(n, dims=1, boundary="dirichlet")
    npts = disc.npoints
    lam_omega = -mu(disc.laplacian, L2).value
    lam_formula = dirichlet_poincare_constant(n, disc.h)

    rng = np.random.default_rng(seed)
    probe_states = [rng.standard_normal(npts) for _ in range(8)] + [np.zeros(npts)]
    sup_df = max(float(np.max(dfn(u))) for u in probe_states)
    rate_check = Check.lt("reaction_rate_below_poincare", sup_df, lam_omega)

    # the gradient flows as one run of their stacked states
    fld = poisson_gradient_flow(disc, fn, dfn, _POISSON_N_INIT)
    run = integrate(fld, rng.standard_normal(_POISSON_N_INIT * npts),
                    (0.0, _POISSON_T_MAX), rtol=ODE_RTOL)
    fixed_points = run.final_state.reshape(_POISSON_N_INIT, npts)
    resid = fld.eval(0.0, run.final_state).reshape(_POISSON_N_INIT, npts)
    max_resid = float(np.max(np.linalg.norm(resid, axis=1)))
    max_pair = max(float(np.linalg.norm(a - b))
                   for i, a in enumerate(fixed_points) for b in fixed_points[i + 1:])

    table_n, table_lam = [], []
    for nk in refinement:
        dk = build_discretization(nk, dims=1, boundary="dirichlet")
        table_n.append(nk)
        table_lam.append(dirichlet_poincare_constant(nk, dk.h))

    checks = [
        rate_check,
        Check.leq("fixed_point_agreement", max_pair, 1e-8),
        Check.leq("fixed_point_residual", max_resid, 1e-8),
    ]
    report = {
        "experiment": "poisson",
        "n": n, "c_or_sup_df": sup_df,
        "lambda_omega": float(lam_omega),
        "lambda_formula": float(lam_formula),
        "existence_note": None if rate_check.passed else "existence not certified",
        "max_pairwise_distance": max_pair,
        "max_residual": max_resid,
        "checks": checks,
        "refinement": {"n": table_n, "lambda": table_lam,
                       "continuum": math.pi**2},
        "integrator": integrator_entry([run]),
    }
    series = {
        "refinement": (["time", "poincare_constant"],
                       [np.asarray(table_n, dtype=float), np.asarray(table_lam)]),
    }
    return verdict(report), series


def sobolev_rate(f, k, p, *, sampler, seed=0):
    """Unweighted contraction rate of f in the discrete Sobolev (k, p) norm
    on its grid ``f.grid``; used for regularity bounds on trajectory pairs."""
    if k > 2:
        raise ContractViolation("finite-difference Sobolev rates support k <= 2")
    if f.grid is None:
        raise ContractViolation("sobolev_rate needs a field on a grid")
    return nonlinear_rate(f, identity_weight(), spec=NormSpec(p=p, k=k), sampler=sampler,
                          grid=f.grid, seed=seed)


# ---------------------------------------------------------------------------
# vanishing one-sided-Lipschitz limits
# ---------------------------------------------------------------------------

@dataclass
class RegularizedFamily:
    """Family f_eps -> f as eps -> 0+, e.g. adding eps * Laplacian.

    ``f_eps(*levels)`` is the field of len(levels) stacked copies of the
    grid state, copy i at eps = levels[i], given levels that are all
    positive or all zero; with one level it is the field at that eps."""

    f_eps: object                    # eps levels -> VectorField of their copies
    eps_schedule: tuple
    description: str = ""
    flux: object = None              # flux F(u) of the eps = 0 conservation law
    grid: Grid = None

    def field(self, *eps):
        return self.f_eps(*eps)


def _upwind_flux_difference(u, inv_h):
    """Godunov flux difference of the convex flux u^2/2 (robust at eps = 0),
    along the last axis."""
    face = np.maximum(0.5 * np.maximum(u, 0.0) ** 2,
                      0.5 * np.minimum(np.roll(u, -1, axis=-1), 0.0) ** 2)
    return (face - np.roll(face, 1, axis=-1)) * inv_h


def burgers_field(disc, eps, scheme="centered"):
    """Viscous Burgers u_t = -(u^2/2)_x + eps u_xx in conservative form on a
    periodic grid: centered face fluxes, or upwind (Godunov) ones.  A
    sequence ``eps`` gives the field of its stacked copies, copy i at eps[i]."""
    if disc.boundary != "periodic":
        raise ContractViolation("Burgers fields are built on periodic grids")
    levels = np.atleast_1d(eps).tolist()
    m = len(levels)
    diffusion = _block_diag([e * disc.laplacian for e in levels])
    if scheme == "centered":
        D = _block_diag([disc.gradients[0]] * m)
        Kx = matvec(sp.hstack([diffusion, -D], format="csr"))   # [eps L | -D] [u; u^2/2]
        f = lambda t, u: Kx(np.concatenate([u, 0.5 * u * u]))

        def jac(t, u):
            return (-(D @ sp.diags(u)) + diffusion).toarray()
    elif scheme == "upwind":
        inv_h, diffuse = 1.0 / disc.h, matvec(diffusion)
        f = lambda t, u: (diffuse(u)
                          - _upwind_flux_difference(u.reshape(m, -1), inv_h).ravel())
        jac = None
    else:
        raise ContractViolation(f"unknown scheme {scheme!r}")
    return VectorField(f=f, jac=jac, dim=m * disc.n,
                       name=f"burgers(eps={eps},{scheme})", grid=disc.grid)


def burgers_family(n, eps_schedule):
    """Viscous Burgers u_t + (u^2/2)_x = eps u_xx on the periodic unit
    interval; centered fluxes for eps > 0, upwind ones at eps = 0."""
    disc = build_discretization(n, dims=1, boundary="periodic")

    def make(*eps):
        return burgers_field(disc, eps, scheme="centered" if min(eps) > 0 else "upwind")

    return RegularizedFamily(
        f_eps=make, eps_schedule=tuple(eps_schedule),
        description="viscous Burgers, centered flux, eps*Laplacian regularizer",
        flux=lambda u: 0.5 * u * u, grid=disc.grid,
    )


def advection_family(n, speed, eps_schedule):
    """Linear advection with eps-diffusion; the eps -> 0 limit is the
    exactly transported profile."""
    disc = build_discretization(n, dims=1, boundary="periodic")
    D = disc.gradients[0]

    def make(*eps):
        A = _block_diag([(-speed * D + e * disc.laplacian).tocsr() for e in eps])
        return VectorField(f=lambda t, u, Au=matvec(A): Au(u), jac=lambda t, u: A,
                           dim=A.shape[0], name=f"advection(eps={eps})", grid=disc.grid)

    return RegularizedFamily(
        f_eps=make, eps_schedule=tuple(eps_schedule),
        description="linear advection, eps*Laplacian regularizer",
        flux=lambda u: speed * u, grid=disc.grid,
    )


def _bump(z):
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi**2))
    return out


def _bump_prime(z):
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi**2)) * (-2.0 * zi / (1.0 - zi**2) ** 2)
    return out


def _test_functions(times, xs, rng, n_test):
    """Smooth space-time bumps psi(t, x) = b_t(t) b_x(x) compactly supported
    in (0, T) x (0, 1), each returned as the 1-D factors of its derivatives
    on the output grid: psi_t = outer(b_t', b_x), psi_x = outer(b_t, b_x')."""
    T = times[-1]
    out = []
    for _ in range(n_test):
        ct = rng.uniform(0.35 * T, 0.65 * T)
        wt = rng.uniform(0.2 * T, 0.3 * T)
        cx = rng.uniform(0.35, 0.65)
        wx = rng.uniform(0.15, 0.3)
        zt = (times - ct) / wt
        zx = (xs - cx) / wx
        bt, btp = _bump(zt), _bump_prime(zt) / wt
        bx, bxp = _bump(zx), _bump_prime(zx) / wx
        out.append((btp, bx, bt, bxp))
    return out


def _weak_form_residuals(uu, psis, h, dt, flux):
    """Signed weak-form functionals int int (u psi_t + F(u) psi_x) and the
    normalization scales, per test function given by its factors."""
    fu = flux(uu)
    scale_u = float(np.max(np.abs(uu)))
    scale_f = float(np.max(np.abs(fu)))
    raws, denoms = [], []
    for btp, bx, bt, bxp in psis:
        raws.append(float((btp @ uu @ bx + bt @ fu @ bxp) * h * dt))
        denoms.append((scale_u * float(np.sum(np.abs(btp)) * np.sum(np.abs(bx))) +
                       scale_f * float(np.sum(np.abs(bt)) * np.sum(np.abs(bxp)))) * h * dt)
    return np.asarray(raws), np.asarray(denoms)


def vanishing_osl_experiment(family, u0, p, t_end, lambda_bound, seed):
    """Vanishing-regularization limit on the periodic interval, recorded at
    ``_N_OUT`` equal steps of (0, t_end).

    Per eps: check a uniform sampled contraction rate, a uniformly bounded
    solution, translation invariance of the scheme, and short-time
    continuity about the initial data; then verify that successive
    space-time L^p differences decrease (Cauchy trend) and that the
    extrapolated limit satisfies the conservation-law weak form against
    smooth test functions.  The levels that share an RK4 step (eps = 0 on
    its own) run as one integration of ``family.field(*levels)``, and the
    shifted and unshifted states of the translation check as one more.  A
    ``lambda_bound`` of None declares no uniform rate bound to check.
    """
    eps_list = list(family.eps_schedule)
    if len(eps_list) < 4:
        raise ContractViolation("need an eps schedule with >= 4 levels")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ContractViolation("eps schedule must be strictly decreasing")
    grid = family.grid
    if grid.boundary != "periodic":
        raise ContractViolation("vanishing-regularization runs need a periodic grid")
    n = grid.shape[0]
    h = grid.spacing[0]
    u0 = np.asarray(u0, dtype=float)
    spec = NormSpec(p=p)
    rng = np.random.default_rng(seed)

    dt_out = t_end / _N_OUT
    times = np.linspace(0.0, t_end, _N_OUT + 1)
    xs = np.arange(n) * h
    umax = float(np.max(np.abs(u0))) + 1.0

    dt_adv = 0.2 * h / umax
    dts, groups = {}, {}
    for eps in eps_list:
        dt_diff = h * h / (2.0 * eps) if eps > 0 else np.inf
        substeps = max(1, int(math.ceil(dt_out / min(dt_adv, dt_diff))))
        dts[eps] = dt_out / substeps
        groups.setdefault((substeps, eps > 0), []).append(eps)

    sols, rec_times, rates, sup_norms = {}, {}, {}, {}
    for (substeps, _), levels in groups.items():
        traj = integrate(family.field(*levels), np.tile(u0, len(levels)), (0.0, t_end),
                         dt=dts[levels[0]], record_every=substeps)
        if len(traj.times) != _N_OUT + 1:
            raise ContractViolation("output grid mismatch")
        for i, eps in enumerate(levels):
            rec_times[eps] = traj.times
            # contiguous like a one-level run's states: numpy sums a strided
            # view in another order, and the norms below would round otherwise
            sols[eps] = np.ascontiguousarray(traj.states[:, i * n:(i + 1) * n])
    for eps in eps_list:
        sup_norms[eps] = float(np.max(sip_norm(sols[eps], spec, grid, rows=True)))
        idx = np.linspace(0, _N_OUT, _N_RATE_SAMPLES, dtype=int)
        samp = [(float(rec_times[eps][i]), sols[eps][i]) for i in idx]
        rates[eps] = nonlinear_rate(family.field(eps), identity_weight(), spec=spec,
                                    sampler=samp, grid=grid).value

    # hypothesis 1: uniform rate bound, checked only against a declared bound
    lam_obs = max(rates.values())
    hyp1 = ([] if lambda_bound is None else
            [Check.leq("uniform_rate_bound", lam_obs, lambda_bound + 1e-12)])
    rate_trend_increasing = bool(all(
        rates[e2] >= rates[e1] - 1e-9 for e1, e2 in zip(eps_list, eps_list[1:])))

    # hypothesis 2: bounded solution, by 2 ||u0|| + 1
    c_decl = 2.0 * sip_norm(u0, spec, grid) + 1.0
    hyp2 = Check.leq("bounded_solution", max(sup_norms.values()), c_decl)

    # hypothesis 3: translation invariance (grid-shift spot check)
    shift = n // 3
    eps_chk = eps_list[-1]
    t_short = 10 * dts[eps_chk]
    pair = integrate(family.field(eps_chk, eps_chk), np.r_[np.roll(u0, shift), u0],
                     (0.0, t_short), dt=dts[eps_chk], record_every=10**9).final_state
    a, b = pair[:n], np.roll(pair[n:], shift)
    shift_res = float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))
    hyp3 = Check.leq("translation_invariance", shift_res, 1e-10)

    # hypothesis 4: uniform continuity about the initial data at a fixed delta
    delta_steps = max(1, int(math.ceil(10 * max(dts.values()) / dt_out)))
    delta = delta_steps * dt_out
    m_eps = {eps: sip_norm(sols[eps][delta_steps] - u0, spec, grid)
             for eps in eps_list}
    hyp4 = Check.leq("uniform_initial_continuity",
                     max(m_eps.values()), 2.0 * m_eps[eps_list[-1]] + 1e-14)

    # conclusion: Cauchy trend of successive space-time differences
    spacetime = Grid((_N_OUT + 1, n), (dt_out, h))
    diffs = [sip_norm(sols[e1] - sols[e2], spec, spacetime)
             for e1, e2 in zip(eps_list, eps_list[1:])]
    cauchy = Check.lt("cauchy_trend", max(np.diff(diffs), default=-math.inf), 0.0)

    # extrapolated limit (linear in eps) and its weak-form residual,
    # normalized per test function by the triangle-inequality scale of the
    # two integrals; the per-functional eps-extrapolation is reported as a
    # secondary diagnostic.
    eJ, eP = eps_list[-1], eps_list[-2]
    w = eJ / (eP - eJ)
    u_ext = sols[eJ] + w * (sols[eJ] - sols[eP])
    weak = weak_func = None
    if family.flux is not None:
        psis = _test_functions(times, xs, rng, _N_TEST)
        raw_state, denom_state = _weak_form_residuals(u_ext, psis, h, dt_out, family.flux)
        weak = list(np.abs(raw_state) / np.maximum(denom_state, 1e-300))
        raw_J, denom_J = _weak_form_residuals(sols[eJ], psis, h, dt_out, family.flux)
        raw_P, _ = _weak_form_residuals(sols[eP], psis, h, dt_out, family.flux)
        raw_ext = raw_J + w * (raw_J - raw_P)
        weak_func = list(np.abs(raw_ext) / np.maximum(denom_J, 1e-300))
    checks = [*hyp1, hyp2, hyp3, hyp4]
    report = {
        "experiment": "vanishing_osl",
        "grid": {"n": n, "h": h, "boundary": grid.boundary},
        "scheme": family.description,
        "dt_per_eps": {str(e): dts[e] for e in eps_list},
        "p": p,
        "t_end": t_end,
        "eps_schedule": eps_list,
        "rates": {str(e): rates[e] for e in eps_list},
        "rate_trend_increasing": rate_trend_increasing,
        "lambda_observed": float(lam_obs),
        "lambda_declared": (float(lambda_bound) if lambda_bound is not None
                            else "not declared"),
        "sup_norms": {str(e): sup_norms[e] for e in eps_list},
        "initial_continuity": {str(e): m_eps[e] for e in eps_list},
        "delta": delta,
        "hypotheses": checks,
        "hypotheses_failed": [c.name for c in checks if not c.passed],
        "successive_differences": diffs,
        "cauchy_trend": cauchy,
        "weak_residuals": weak,
        "max_weak_residual": (max(weak) if weak else None),
        "weak_residuals_functional_extrapolation": weak_func,
        "observational_note": "conclusion checks are observational; "
                              "hypothesis failures are named above",
    }
    series = {
        "differences": (["time", "eps_high", "eps_low", "lp_difference"],
                        [np.arange(len(diffs), dtype=float),
                         np.asarray(eps_list[:-1]), np.asarray(eps_list[1:]),
                         np.asarray(diffs)]),
        "profiles": (["time"] + [f"u_eps{i}" for i in range(len(eps_list))] + ["u_extrapolated"],
                     [xs] + [sols[e][-1] for e in eps_list] + [u_ext[-1]]),
    }
    return verdict(report), series

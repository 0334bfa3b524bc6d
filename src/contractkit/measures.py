"""Logarithmic norms (matrix measures) and weighted contraction rates.

The measure of a matrix A in a given norm is the one-sided derivative

    mu(A) = lim_{h->0+} (||I + h A|| - 1) / h,

the tightest exponential growth bound for the linear flow.  The weighted
contraction rate of A under an operator family Theta(t, u) is

    sup_{v != 0} [Theta v, (dTheta/dt + Theta A) v] / ||Theta v||^2,

computed exactly for p = 2 as one standard symmetric eigenproblem (on
(dTheta/dt + Theta A) Theta^{-1}, or on the coimage of a surjective
non-invertible weight, a Sobolev measure through a cached Cholesky factor
of its Gram matrix; only the weighted Sobolev rate on a coimage still
solves a pencil), via the classical column/row formulas for p in {1, inf}
with invertible weights, and otherwise by a seeded ray search whose 32
starts advance together.  Each probe batch is one call of a ratio set up
once per solve (``_sip_ratio``): sum_alpha S_alpha^(q-1) c_alpha / sum_alpha
S_alpha^q, q = 2/p, S_alpha = sum |a|^p and c_alpha = sum |a|^(p-1) sgn(a) b
of a = D^alpha T v, b = D^alpha C v (|alpha| <= k; the weight cancels; at
k = 0 the one quotient c / S).  On a real smooth quotient (1 < p < inf, lp
or Sobolev) a sweep is one Newton move per start (``_ratio_derivatives``)
save after a stalled one; any other sweep probes axes, random directions
and its displacement.  It ends after two sweeps in a row in which no start
gains over 1e-13 max(1, |best|) and reports the reference pairing of
``sip.norm`` / ``sip.sip`` at the best probe, where the two must agree.

The grid is an argument of every rate, as of the norm: it sets the
quadrature weight, and for a Sobolev norm (k >= 1) the derivatives.  A
Sobolev rate raises ContractViolation without a grid, and DimensionError
when the operator, or the image of the weight, is not a whole number of
grid functions.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ContractViolation, DegenerateWeightError, DimensionError, NumericalError
from .grids import derivative_ops, unit_grid
from .sampling import read as read_samples
from .sip import _ARGMAX_RTOL, _ORACLE_RTOL, L2, NormSpec, OracleResult, gram_matrix
from .sip import norm as sip_norm
from .sip import sip as sip_pair

_KERNEL_RTOL = 1e-10    # singular values below rtol*smax count as kernel
_CONFIRM_RTOL = 1e-9    # steering ratio vs reference value at the argmax
_RESTARTS = 32          # seeded starts of the ray search
_STEPS = np.array([1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.125, -0.125])  # step multiples probed
_SWEEPS = 40            # sweeps of the ray search, at most
_STALL_RTOL = 1e-13     # a sweep in which no start gains more, times max(1, |best|), stalls
_STALLS = 2             # consecutive stalled sweeps that end the search
_SHRINK = 0.25          # step factor after a sweep without gain
_MIN_STEP = 1e-9        # a start whose step falls below this stops
_LADDER = 2.0 ** np.arange(1, -21, -1)  # Newton step multiples probed, 2 down to 2^-20
_SHIFT_RTOL = 1e-12     # least Newton shift beyond lambda_max, times max |lambda|
_NEWTON_BLOCK = 2**14   # Hessian entries formed at once by a Newton move
_CACHE_MAX_N = 1024     # largest Sobolev Gram factor kept, N = ncomp * grid points


def as_matrix(A):
    """A sparse matrix as it is, anything else as a dense array."""
    if sp.issparse(A):
        return A
    return np.asarray(A)


def inverse(M, name):
    """np.linalg.inv of M (or a stack), ContractViolation naming it if singular."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise ContractViolation(f"{name} is singular") from exc


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A)


@dataclass
class RateEstimate:
    """A contraction-rate value together with how it was obtained.

    ``sampled`` values are maxima over finitely many probes and hence lower
    bounds on the true supremum; ``sample_count`` is then the number of ray
    search starts, or of ``nonlinear_rate``'s (t, u) samples."""

    value: float
    method: str              # closed_form | eigen | sampled
    sample_count: int = 1
    residual: float = 0.0
    argmax: object = None


def _check_square(M):
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"operator must be square, got shape {M.shape}")


def _max_eig(S, G=None):
    """Largest eigenvalue of the symmetric matrix S, or of the symmetric
    pencil (S, G) with G positive definite."""
    n = S.shape[0]
    try:
        return float(sla.eigh(S, G, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0])
    except Exception as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def _sym(M):
    Md = _dense(M)
    if np.iscomplexobj(Md):
        return 0.5 * (Md + Md.conj().T)
    return 0.5 * (Md + Md.T)


def _mu_l1(M):
    """max over columns j of Re(m_jj) + sum_{i != j} |m_ij|."""
    Md = _dense(M)
    col = np.sum(np.abs(Md), axis=0) - np.abs(np.diag(Md)) + np.real(np.diag(Md))
    return float(np.max(col))


def _mu_linf(M):
    Md = _dense(M)
    row = np.sum(np.abs(Md), axis=1) - np.abs(np.diag(Md)) + np.real(np.diag(Md))
    return float(np.max(row))


def _finite(vals):
    """NaN and +-inf mapped to -inf, so that argmax picks a finite probe."""
    return np.where(np.isfinite(vals), vals, -np.inf)


def _ray_search(objective, reference, n, seed, derivatives=None):
    """Multi-start ascent of a 0-homogeneous ratio over rays.

    ``objective`` maps a batch (m, n) of vectors to m values.  The
    ``_RESTARTS`` seeded unit starts advance together.  With ``derivatives``
    (``_ratio_derivatives``) a sweep is one ``_newton_move`` per start save
    after a stalled sweep.  Any other sweep walks the n axes, n random unit
    directions per start and its own displacement; along each, every start
    probes ``_STEPS`` times its step (times the displacement) in one call
    and moves to its best probe if that gains, shrinks its step by
    ``_SHRINK`` after a sweep without gain and stops below ``_MIN_STEP``.
    The search ends after ``_SWEEPS``, or ``_STALLS`` sweeps in a row in
    which no start gains over ``_STALL_RTOL`` max(1, |best|): a start may
    stall once, then climb, and a pattern sweep moves starts where Newton's
    g or H is not finite.  It returns ``reference`` at the best point."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((_RESTARTS, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    fx = _finite(objective(x))
    step, rows, stalls = np.ones(_RESTARTS), np.arange(_RESTARTS), 0
    for _ in range(_SWEEPS):
        x0, f0 = x, fx
        if derivatives is not None and not stalls:
            x, fx = _newton_move(objective, derivatives, x, fx)
        else:
            rand = rng.standard_normal((n, _RESTARTS, n))
            rand /= np.linalg.norm(rand, axis=2, keepdims=True)
            for d in [*np.eye(n), *rand, None]:
                d = x - x0 if d is None else step[:, None] * d
                probes = x[:, None] + _STEPS[:, None] * d[:, None]
                vals = _finite(objective(probes.reshape(-1, n))).reshape(_RESTARTS, -1)
                j = vals.argmax(axis=1)
                up = vals[rows, j] > fx
                x = np.where(up[:, None], probes[rows, j], x)
                fx = np.where(up, vals[rows, j], fx)
            step = np.where(fx > f0, step, step * _SHRINK)
            step[step < _MIN_STEP] = 0.0
            x = x / np.linalg.norm(x, axis=1, keepdims=True)
            fx = _finite(objective(x))
        stalls = 0 if np.any(fx - _STALL_RTOL * max(1.0, abs(fx.max())) > f0) else stalls + 1
        if stalls == _STALLS:
            break
    i = int(fx.argmax())
    if not np.isfinite(fx[i]):
        raise NumericalError("ray search failed to produce a finite value")
    best, value = objective(x[i][None])[0], reference(x[i])
    if not abs(best - value) <= _CONFIRM_RTOL * max(1.0, abs(value)):
        raise NumericalError(
            f"ray-search objective {best!r} disagrees with the reference {value!r} at its argmax"
        )
    return value, x[i], _RESTARTS


def _newton_move(objective, derivatives, x, fx):
    """One Newton move per unit start x (a row of ``x``, of value ``fx``) on
    any real smooth quotient, lp or Sobolev (``_ratio_derivatives``): a
    sweep of ``_ray_search`` there, unless the sweep before it stalled.

    With the gradient g_t = P g and Hessian H_t = P H P projected by
    P = I - x x^T, the step d in x^perp solves (H_t - s I) d = -g_t for the
    shift s = max(lambda_max(H_t), 0) + |g_t| + ``_SHIFT_RTOL`` max |lambda|:
    H_t - s I is negative definite, so d ascends, and s tends to the plain
    Newton shift as g_t vanishes.  The ``_LADDER`` probes x + 2^j d,
    renormalized, are scored in one objective call, and a start moves to its
    best probe where that gains.  A start whose g or H is not finite, or
    whose g_t is 0, does not move.  The Hessians are formed in blocks of
    ``_NEWTON_BLOCK`` entries."""
    m, n = x.shape
    d = np.zeros_like(x)
    size = max(1, _NEWTON_BLOCK // n**2)
    for lo in range(0, m, size):
        xs = x[lo:lo + size]
        g, H = derivatives(xs)
        g = g - (g * xs).sum(axis=1, keepdims=True) * xs
        Hx = (H @ xs[:, :, None])[:, :, 0]
        H -= Hx[:, :, None] * xs[:, None] + xs[:, :, None] * Hx[:, None]
        H += (Hx * xs).sum(axis=1)[:, None, None] * xs[:, :, None] * xs[:, None]
        gn = np.linalg.norm(g, axis=1)
        ok = np.isfinite(gn) & np.isfinite(H).all(axis=(1, 2)) & (gn > 0)
        if ok.any():
            H, g = H[ok], g[ok]
            lam = np.linalg.eigvalsh(H)
            H[:, range(n), range(n)] -= (np.maximum(lam[:, -1], 0.0) + gn[ok]
                                         + _SHIFT_RTOL * np.abs(lam).max(axis=1))[:, None]
            d[lo:lo + size][ok] = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
    probes = x[:, None] + _LADDER[:, None] * d[:, None]
    probes /= np.linalg.norm(probes, axis=2, keepdims=True)
    vals = _finite(objective(probes.reshape(-1, n))).reshape(m, -1)
    rows, j = np.arange(m), vals.argmax(axis=1)
    up = (vals[rows, j] > fx) & d.any(axis=1)
    return np.where(up[:, None], probes[rows, j], x), np.where(up, vals[rows, j], fx)


def _sip_ratio(T, C, spec, grid):
    """The batched ratio V -> [Tv, Cv] / ||Tv||^2 per row v of V in the norm
    ``spec`` on ``grid`` (-inf where Tv vanishes), T (None: the identity,
    whose product is skipped) and C dense (N, r).

    D, the vstack of every D^alpha (|alpha| <= k) applied to each component,
    is built once, so a call is a few numpy reductions over an (orders, N, m)
    array, with the arithmetic of sip.norm / sip.sip order by order; at k = 0
    and 1 < p < inf, where the weight and the p-th roots cancel, the one
    quotient sum |a|^(p-1) sgn(a) b / sum |a|^p of a = Tv and b = Cv.  For a
    single row, T v is the matrix-vector product the reference forms, and D
    stays sparse, so the slices D^alpha T v are the very numbers sip.sip
    pairs: a last-bit difference at an exact zero (p = 1) or a tie (p = inf)
    would set the two values apart.  A batch of many rows rounds T V
    differently, which is why ``_ray_search`` scores its best point alone."""
    N = C.shape[0]
    D = _derivative_stack(spec, grid, N)
    p, w = spec.p, grid.cell_measure

    def ratio(V):
        a, b = V.T if T is None else T @ V.T, C @ V.T
        if D is not None:
            a, b = D @ a, D @ b
        a, b = a.reshape(-1, N, V.shape[0]), b.reshape(-1, N, V.shape[0])
        au, s = np.abs(a), np.sign(a)
        if np.iscomplexobj(s):
            s = s.conj()    # the pairing is Re(conj(sgn a) b)
        if D is None and 1.0 < p < np.inf:
            q = au[0] ** (p - 1.0)
            num, den = (q * s[0] * b[0]).sum(axis=0).real, (q * au[0]).sum(axis=0)
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), -np.inf)
        if np.isinf(p):
            nus = au.max(axis=1)
            ties = au >= nus[:, None] * (1.0 - _ARGMAX_RTOL)
            pairs = nus * np.where(ties, (s * b).real, -np.inf).max(axis=1)
        elif p == 1.0:
            nus = w * au.sum(axis=1)
            pairs = nus * w * np.where(a != 0, (s * b).real, np.abs(b)).sum(axis=1)
        else:
            nus = (w * (au ** p).sum(axis=1)) ** (1.0 / p)
            cores = (au ** (p - 1.0) * s * b).sum(axis=1).real
            pairs = np.where(nus > 0, np.where(nus > 0, nus, 1.0) ** (2.0 - p) * w * cores, 0.0)
        nv = nus[0] if len(nus) == 1 else np.sqrt((nus ** 2).sum(axis=0))
        return np.where(nv > 0, pairs.sum(axis=0) / np.where(nv > 0, nv, 1.0) ** 2, -np.inf)

    return ratio


def _derivative_stack(spec, grid, N):
    """The vstack of every D^alpha (|alpha| <= k) applied to each component
    of an N-vector on ``grid``, sparse CSR; None at k = 0."""
    if spec.k == 0:
        return None
    per_comp = sp.identity(N // grid.npoints, format="csr")
    return sp.vstack([sp.kron(per_comp, op) for op in derivative_ops(grid, spec.k)],
                     format="csr")


def _ratio_derivatives(T, C, spec, grid):
    """Gradient and Hessian of the ratio ``_sip_ratio`` scores, for real T
    (None: the identity) and C and 1 < p < inf: rows X (m, n) -> g (m, n),
    H (m, n, n).  The stacks A = D^alpha T and B = D^alpha C are formed once.

    In the notation of the module docstring the ratio is the convex
    combination r = sum l r_alpha of the orders' quotients r_alpha = c / S,
    l = S^q / sum S^q.  With phi = |a|^(p-1) sgn a, phi' = (p-1) |a|^(p-2),
    phi'' = (p-1)(p-2) |a|^(p-3) sgn a, S' = p A^T phi and e = S' / S, the
    quotient's own gradient and Hessian
        g_alpha = (A^T (phi' b) + B^T phi - r_alpha S') / S,
        H_alpha = (A^T diag(phi'' b - p r_alpha phi') A + P + P^T
                   - g_alpha S'^T - S' g_alpha^T) / S,  P = A^T diag(phi') B,
    give g = sum l (g_alpha + q (r_alpha - r) e) and H = sum l (H_alpha
    + q (r_alpha - r) (p A^T diag(phi') A / S + (q-1) e e^T) + q (d e^T
    + e d^T)), d = g_alpha - g: at k = 0 (l = 1) g_alpha and H_alpha.  They
    are not finite where r is not twice differentiable: D^alpha T v = 0, or a
    zero entry of a at p < 3; a zero row of A, which adds 0 to r, is dropped."""
    p, q = spec.p, 2.0 / spec.p
    D, (N, n) = _derivative_stack(spec, grid, C.shape[0]), C.shape
    orders = [(T, C)] if D is None else list(zip(
        (D.toarray() if T is None else D @ T).reshape(-1, N, n), (D @ C).reshape(-1, N, n)))
    orders = [(A, B) if A is None else (A[A.any(1)], B[A.any(1)]) for A, B in orders]

    def parts(X, A, B):  # S, r_alpha, S', g_alpha, phi' and the diagonal of H_alpha
        a, b = X if A is None else X @ A.T, X @ B.T
        au, s = np.abs(a), np.sign(a)
        phi, d1 = au ** (p - 1.0) * s, (p - 1.0) * au ** (p - 2.0)
        S = (au ** p).sum(axis=1)
        r = (phi * b).sum(axis=1) / S
        dS = p * (phi if A is None else phi @ A)
        g = ((d1 * b if A is None else (d1 * b) @ A) + phi @ B - r[:, None] * dS) / S[:, None]
        return S, r, dS, g, d1, (p - 1.0) * (p - 2.0) * au ** (p - 3.0) * s * b - p * r[:, None] * d1

    def derivatives(X):
        with np.errstate(all="ignore"):
            got = [parts(X, A, B) for A, B in orders]
            F = sum(S ** q for S, *_ in got)
            lam = [S ** q / F for S, *_ in got]
            r = sum(la * ra for la, (_, ra, *_) in zip(lam, got))
            g = sum(la[:, None] * (ga + q * (ra - r)[:, None] * (dS / S[:, None]))
                    for la, (S, ra, dS, ga, *_) in zip(lam, got))
            H = 0.0
            for (A, B), la, (S, ra, dS, ga, d1, w) in zip(orders, lam, got):
                # K + K^T is S / l times the order's term of H
                w = w + 2.0 * (ra - r)[:, None] * d1
                u = q * (ga - g) - ga + (0.5 * q * (q - 1.0) * (ra - r) / S)[:, None] * dS
                if A is None:
                    K = d1[:, :, None] * B
                    K[:, range(len(B)), range(len(B))] += 0.5 * w
                else:
                    K = A.T @ (d1[:, :, None] * B + 0.5 * w[:, :, None] * A)
                K += u[:, :, None] * dS[:, None]
                H = H + (K + K.transpose(0, 2, 1)) / (S / la)[:, None, None]
            return g, H

    return derivatives


def _sampled_rate(T, C, spec, grid, seed):
    """Ray-search sup_v [Tv, Cv] / ||Tv||^2 on ``grid`` (unit weights when it
    is None; T None is the identity), reported through sip.norm / sip.sip.
    Real T and C at 1 < p < inf, every k, are searched by Newton moves
    (``_ray_search``); p in {1, inf} and complex operators by pattern sweeps."""
    if grid is None:
        grid = unit_grid(C.shape[0])

    def reference(v):
        tv = v if T is None else T @ v
        nv = sip_norm(tv, spec, grid)
        if nv == 0.0:
            return -np.inf
        return sip_pair(tv, C @ v, spec, grid) / nv**2

    smooth = 1.0 < spec.p < np.inf and not (np.iscomplexobj(C) or np.iscomplexobj(T))
    val, argv, count = _ray_search(
        _sip_ratio(T, C, spec, grid), reference, C.shape[1], seed=seed,
        derivatives=_ratio_derivatives(T, C, spec, grid) if smooth else None)
    return RateEstimate(val, "sampled", sample_count=count, argmax=argv)


def _factor_gram(k, grid, ncomp):
    """G = R^T R for the order-k Sobolev Gram matrix of ``ncomp`` components
    on ``grid``: R sparse upper-triangular CSR and R^{-1} dense and C-ordered,
    both read-only (LAPACK works in place on G.T)."""
    L = sla.cholesky(gram_matrix(NormSpec(p=2.0, k=k), grid, ncomp).toarray().T,
                     lower=True, overwrite_a=True)
    R = sp.csr_matrix(L.T)
    Rinv = sla.lapack.dtrtri(L, lower=1, overwrite_c=1)[0].T
    for a in (R.data, R.indices, R.indptr, Rinv):
        a.setflags(write=False)     # every caller gets these same arrays
    return R, Rinv


_cached_gram_factor = lru_cache(maxsize=8)(_factor_gram)


def _gram_factor(k, grid, ncomp):
    """``_factor_gram``, cached while N = ncomp * grid.npoints <= _CACHE_MAX_N,
    as each entry holds a dense N x N R^{-1} (8 MiB at N = 1,024)."""
    cached = ncomp * grid.npoints <= _CACHE_MAX_N
    return (_cached_gram_factor if cached else _factor_gram)(k, grid, ncomp)


def _check_sobolev_grid(spec, grid, n):
    """A Sobolev norm is taken on a grid, of which its n-vectors must be a
    whole number of grid functions."""
    if spec.k > 0 and grid is None:
        raise ContractViolation("Sobolev measures need the grid argument")
    if spec.k > 0 and (n < grid.npoints or n % grid.npoints):
        raise DimensionError(f"dim {n} is not a multiple of {grid.npoints} grid points")


def mu(A, spec=L2, grid=None, seed=0):
    """Logarithmic norm of a square operator in the norm given by ``spec``.

    Closed forms: p = 2 is the largest eigenvalue of the symmetrized matrix
    (of R M R^{-1} when k > 0, for the Gram matrix G = R^T R), p = 1 / p = inf
    are the classical column / row formulas.  A closed form or eigen solve of
    a matrix that is not finite raises NumericalError.  Other p fall back to a
    sampled ray search and are flagged as such.
    """
    M = as_matrix(A)
    _check_square(M)
    n = M.shape[0]
    p, k = spec.p, spec.k
    _check_sobolev_grid(spec, grid, n)
    if p == 2.0:
        if k == 0:
            return RateEstimate(_max_eig(_sym(M)), "eigen")
        # the pencil (sym(G M), G) with G = R^T R is the standard sym(R M R^-1)
        R, Rinv = _gram_factor(k, grid, n // grid.npoints)
        return RateEstimate(_max_eig(_sym(R @ (M @ Rinv))), "eigen")
    if k == 0 and p in (1.0, np.inf):
        val = (_mu_l1 if p == 1.0 else _mu_linf)(M)
        if not np.isfinite(val):
            raise NumericalError(f"closed-form p = {p} measure is not finite: {val}")
        return RateEstimate(val, "closed_form")

    return _sampled_rate(None, _dense(M), spec, grid, seed)


def _opnorm(M, p, seed):
    if p in (1.0, 2.0) or np.isinf(p):
        return float(np.linalg.norm(M, np.inf if np.isinf(p) else int(p)))
    spec = NormSpec(p=p)

    def objective(V):  # ||M v||_p / ||v||_p per row, NaN at v = 0
        return ((np.abs(V @ M.T) ** p).sum(axis=1) / (np.abs(V) ** p).sum(axis=1)) ** (1.0 / p)

    # the search returns a unit vector, so the reference never divides by 0
    val, _, _ = _ray_search(objective, lambda v: sip_norm(M @ v, spec) / sip_norm(v, spec),
                            M.shape[1], seed)
    return val


def mu_fd_oracle(A, spec=L2, h_list=None, seed=0):
    """Definition-level oracle (||I + h A|| - 1)/h with linear-in-h
    extrapolation of each successive pair of quotients.  The value is the
    extrapolation of the two smallest h, converged when the one before it
    is within ``_ORACLE_RTOL`` (never with only two h).  Dims <= 6 only."""
    M = _dense(as_matrix(A))
    _check_square(M)
    if M.shape[0] > 6:
        raise ContractViolation("mu_fd_oracle is restricted to dim <= 6")
    if spec.k != 0:
        raise ContractViolation("mu_fd_oracle handles lp norms only")
    if h_list is None:
        h_list = np.geomspace(1e-2, 1e-6, 9)
    h_list = np.asarray(h_list, dtype=float)
    if h_list.size < 2 or np.any(h_list <= 0) or np.any(np.diff(h_list) >= 0):
        raise ContractViolation("h_list must have >= 2 strictly decreasing positive entries")
    eye = np.eye(M.shape[0])
    q = np.array([(_opnorm(eye + h * M, spec.p, seed=seed) - 1.0) / h for h in h_list])
    h1, h0 = h_list[:-1], h_list[1:]
    ext = (h1 * q[1:] - h0 * q[:-1]) / (h1 - h0)
    converged = ext.size > 1 and abs(ext[-2] - ext[-1]) <= _ORACLE_RTOL * max(1.0, abs(ext[-1]))
    return OracleResult(value=float(ext[-1]), converged=bool(converged), quotients=q)


def coimage_of(Th):
    """One SVD Theta = U S V^H of a non-invertible weight: its largest
    singular value and its coimage (V_r, s_r, U_r^H), where V_r is an
    orthonormal basis of ker(Theta)^perp, s_r the nonzero singular values
    and U_r = Theta V_r / s_r has orthonormal columns."""
    u, svals, vt = np.linalg.svd(Th)
    smax = svals[0] if svals.size else 0.0
    r = np.count_nonzero(svals > _KERNEL_RTOL * max(smax, 1.0))
    if r == 0:
        raise DegenerateWeightError("weight vanishes on every direction")
    return float(smax), (vt[:r].conj().T, svals[:r], u[:, :r].conj().T)


def weighted_rate(A, theta, t=0.0, u=None, spec=L2, grid=None, seed=0):
    """Theta-weighted contraction rate of a linear operator.

    For an invertible weight this is the measure of the generalized
    Jacobian C Theta^{-1}, C = dTheta/dt + Theta A.  For a surjective
    non-invertible weight the supremum is taken over ker(Theta)^perp, where
    the weighted seminorm is a norm; at p = 2 it is the largest eigenvalue
    of sym(U_r^H C V_r / s_r) on the coimage of ``coimage_of``, formed as
    s_r V_r^H A V_r (+ U_r^H dTheta V_r), as U_r^H Theta = s_r V_r^H.  Only
    the Sobolev rate there still solves a pencil, with U_r^H G U_r.
    """
    M = as_matrix(A)
    _check_square(M)
    n = M.shape[0]
    Th, dTh = theta.matrix(t, u, n), theta.dmatrix_dt(t, u, n)
    if Th.shape[1] != n:
        raise DimensionError(f"weight maps dim {Th.shape[1]}, operator dim {n}")
    _check_sobolev_grid(spec, grid, Th.shape[0])
    if theta.kind in ("identity", "diagonal"):
        # Theta A Theta^{-1} as (d_i a_ij)(1/d_j): the dense products add only 0s to these
        d = np.diag(Th)
        return mu(d[:, None] * _dense(M) * (1.0 / d), spec, grid=grid, seed=seed)
    if not theta.invertible:
        Vr, s, UrH = theta.coimage if theta.coimage is not None else coimage_of(Th)[1]
        if spec.p == 2.0 and spec.k == 0:
            K = (s[:, None] * Vr.conj().T) @ (M @ Vr) + (0.0 if dTh is None else UrH @ dTh @ Vr)
            return RateEstimate(_max_eig(_sym(K / s)), "eigen")
    C = Th @ _dense(M) if dTh is None else dTh + Th @ _dense(M)
    if theta.invertible:
        return mu(C @ np.asarray(theta.inv_matrix(t, u, n)), spec, grid=grid, seed=seed)
    if spec.p == 2.0:
        GU = gram_matrix(spec, grid, ncomp=Th.shape[0] // grid.npoints) @ UrH.conj().T
        return RateEstimate(_max_eig(_sym(GU.conj().T @ C @ Vr / s), UrH @ GU), "eigen")
    return _sampled_rate(Th @ Vr, C @ Vr, spec, grid, seed)


def nonlinear_rate(f, theta, spec=L2, *, sampler, grid=None, seed=0):
    """Empirical sup over sampled (t, u) of the weighted rate of Df_t(u).

    This is a sampled estimate of the supremum, reported as such; it is
    never a certified global bound.  The sampler is required and read by
    ``sampling.read``.
    """
    samples = read_samples(sampler)
    best = -np.inf
    best_at = None
    for t, u in samples:
        r = weighted_rate(f.jacobian(t, u), theta, t, u, spec=spec, grid=grid, seed=seed)
        if r.value > best:
            best = r.value
            best_at = (t, u)
    return RateEstimate(best, "sampled", sample_count=len(samples), argmax=best_at)

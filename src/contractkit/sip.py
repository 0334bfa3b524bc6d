"""Semi-inner products on discretized lp and Sobolev spaces.

The pairing [u, v] is induced by the right Gateaux derivative of the norm,

    [u, v] = ||u|| * lim_{h->0+} (||u + h v|| - ||u||) / h,

which coincides with the inner product for p = 2 and has closed forms for
the other lp norms.  At the kinks of the non-smooth norms (zero entries for
p = 1, tied argmax for p = inf) the right-handed limit is taken literally.
Sobolev pairings sum the per-derivative-order lp pairings,

    [u, v]_{k,p} = sum_{|a| <= k} [D^a u, D^a v]_{lp},

with the compatible norm ||u||_{k,p} = (sum_a ||D^a u||_p^2)^(1/2), so that
[u, u] = ||u||^2 holds exactly at every order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DimensionError
from .grids import as_gridfunction, derivative_ops

_ARGMAX_RTOL = 1e-12  # relative tie tolerance for the p = inf argmax set


@dataclass(frozen=True)
class NormSpec:
    """Which norm backs the semi-inner product: lp(p) when k = 0, the
    discrete Sobolev (k, p) norm otherwise.  ``grid_spacing``, when given,
    is checked against the grid of the operands."""

    p: float = 2.0
    k: int = 0
    grid_spacing: tuple = None

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ContractViolation(f"p must be in [1, inf], got {self.p}")
        if self.k < 0 or int(self.k) != self.k:
            raise ContractViolation(f"k must be a nonnegative integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.grid_spacing is not None:
            gs = tuple(float(h) for h in np.atleast_1d(self.grid_spacing))
            if any(h <= 0 for h in gs):
                raise ContractViolation("grid_spacing entries must be positive")
            object.__setattr__(self, "grid_spacing", gs)

    @property
    def kind(self):
        return "lp" if self.k == 0 else "sobolev"


L1 = NormSpec(p=1.0)
L2 = NormSpec(p=2.0)
LINF = NormSpec(p=np.inf)


def _check_grid(u, spec):
    if spec.grid_spacing is not None and spec.grid_spacing != u.grid.spacing:
        raise DimensionError(
            f"spec spacing {spec.grid_spacing} does not match grid "
            f"spacing {u.grid.spacing}"
        )


def _lp_norm(flat, w, p):
    if flat.size == 0:
        raise DimensionError("empty state")
    if np.isinf(p):
        return float(np.max(np.abs(flat)))
    if p == 2.0:
        return float(np.sqrt(w * np.real(np.vdot(flat, flat))))
    if p == 1.0:
        return float(w * np.sum(np.abs(flat)))
    return float((w * np.sum(np.abs(flat) ** p)) ** (1.0 / p))


def _lp_sip(uf, vf, w, p):
    """Closed-form lp semi-inner product of flat arrays, weight w per point.
    Real and complex states share one body through the unit vector
    s = u/|u| (0 where u = 0): [u, v] pairs Re(conj(s) v) with |u|^(p-1)."""
    if p == 2.0:
        return float(w * np.real(np.vdot(uf, vf)))
    au = np.abs(uf)
    nz = au > 0
    s = uf / np.where(nz, au, 1.0)
    if np.isinf(p):
        nu = np.max(au)
        if nu == 0.0:
            return 0.0
        ties = au >= nu * (1.0 - _ARGMAX_RTOL)
        return float(nu * np.max(np.real(np.conj(s[ties]) * vf[ties])))
    if p == 1.0:
        n1 = w * np.sum(au)
        if n1 == 0.0:
            return 0.0
        inner = np.sum(np.real(np.conj(s[nz]) * vf[nz])) + np.sum(np.abs(vf[~nz]))
        return float(n1 * w * inner)
    nu = _lp_norm(uf, w, p)
    if nu == 0.0:
        return 0.0
    core = np.sum(au ** (p - 1.0) * np.real(np.conj(s) * vf))
    return float(nu ** (2.0 - p) * w * core)


def _order_slices(u, spec):
    """Flattened D^alpha u for every multi-index |alpha| <= k."""
    gf = u
    ops = derivative_ops(gf.grid, spec.k)
    comps = list(gf.components())
    out = []
    for op in ops:
        pieces = [op @ c.reshape(-1) for c in comps]
        out.append(np.concatenate(pieces))
    return out


def norm(u, spec=L2, grid=None):
    """Quadrature-weighted lp or discrete Sobolev (k,p) norm.  A bare vector
    whose length is a whole multiple of ``grid.npoints`` is taken on that
    grid as stacked components, as ``GridFunction`` takes it; any other
    gets unit weights."""
    on_grid = grid is not None and np.size(u) % grid.npoints == 0
    u = as_gridfunction(u, grid if on_grid else None)
    _check_grid(u, spec)
    w = u.grid.cell_measure
    if spec.k == 0:
        return _lp_norm(u.ravel(), w, spec.p)
    slices = _order_slices(u, spec)
    return float(np.sqrt(sum(_lp_norm(s, w, spec.p) ** 2 for s in slices)))


def sip(u, v, spec=L2):
    """Semi-inner product [u, v] for the norm described by ``spec``."""
    u = as_gridfunction(u)
    v = as_gridfunction(v, u.grid)
    if u.values.shape != v.values.shape:
        raise DimensionError(
            f"shape mismatch: {u.values.shape} vs {v.values.shape}"
        )
    _check_grid(u, spec)
    w = u.grid.cell_measure
    if spec.k == 0:
        return _lp_sip(u.ravel(), v.ravel(), w, spec.p)
    su = _order_slices(u, spec)
    sv = _order_slices(v, spec)
    return float(sum(_lp_sip(a, b, w, spec.p) for a, b in zip(su, sv)))


@dataclass
class OracleResult:
    value: float
    converged: bool
    quotients: np.ndarray = field(repr=False, default=None)


def sip_fd_oracle(u, v, spec=L2, h_list=None, rtol=1e-6):
    """Definition-level oracle for [u, v]: one-sided difference quotients of
    the norm at decreasing h.  Returns the value at the smallest h and a
    convergence flag (successive quotients within tolerance)."""
    if h_list is None:
        h_list = np.geomspace(1e-3, 1e-8, 11)
    h_list = np.asarray(h_list, dtype=float)
    if h_list.size == 0 or np.any(h_list <= 0) or np.any(np.diff(h_list) >= 0):
        raise ContractViolation("h_list must be nonempty, positive, strictly decreasing")
    u = as_gridfunction(u)
    v = as_gridfunction(v, u.grid)
    nu = norm(u, spec)
    vals = np.empty_like(h_list)
    for i, h in enumerate(h_list):
        nq = norm(u + h * v, spec)
        vals[i] = nu * (nq - nu) / h
    scale = max(1.0, abs(vals[-1]))
    converged = bool(h_list.size > 1 and abs(vals[-1] - vals[-2]) <= rtol * scale)
    return OracleResult(value=float(vals[-1]), converged=converged, quotients=vals)


def gram_matrix(spec, grid, ncomp=1):
    """SPD matrix G with u' G u = ||u||^2 for p = 2 norms (lp or Sobolev),
    acting on flattened states.  Only defined for p = 2."""
    import scipy.sparse as sp

    if spec.p != 2.0:
        raise ContractViolation("gram_matrix requires p = 2")
    w = grid.cell_measure
    n = grid.npoints
    if spec.k == 0:
        g1 = sp.identity(n, format="csr") * w
    else:
        g1 = None
        for op in derivative_ops(grid, spec.k):
            term = (op.T @ op) * w
            g1 = term if g1 is None else g1 + term
        g1 = g1.tocsr()
    if ncomp == 1:
        return g1
    return sp.kron(sp.identity(ncomp, format="csr"), g1, format="csr")

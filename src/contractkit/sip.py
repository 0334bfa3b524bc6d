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

A state is an array: a whole number of grid functions, one component after
the other.  Its grid is always an argument, which sets the quadrature weight
and the derivatives; without one, an lp state has unit weights on a 1-D grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DimensionError
from .grids import derivative_ops, unit_grid

_ARGMAX_RTOL = 1e-12  # relative tie tolerance for the p = inf argmax set
_ORACLE_RTOL = 1e-6   # the difference-quotient oracles' convergence tolerance


@dataclass(frozen=True)
class NormSpec:
    """Which norm backs the semi-inner product: lp(p) when k = 0, the
    discrete Sobolev (k, p) norm otherwise."""

    p: float = 2.0
    k: int = 0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ContractViolation(f"p must be in [1, inf], got {self.p}")
        if self.k < 0 or int(self.k) != self.k:
            raise ContractViolation(f"k must be a nonnegative integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


L1 = NormSpec(p=1.0)
L2 = NormSpec(p=2.0)
LINF = NormSpec(p=np.inf)


def _lp_norm(a, w, p):
    """lp norm of a flat state, or of each row of a 2-D array of states."""
    if a.shape[-1] == 0:
        raise DimensionError("empty state")
    if p == 2.0:    # one dot product per state: vecdot's row is vdot's bits
        return np.sqrt(w * np.real(np.vecdot(a, a)))
    au = np.abs(a)
    if np.isinf(p):
        return au.max(axis=-1)
    # np.power, the array loop even for one state: a scalar ** may round otherwise
    return np.power(w * (au ** p).sum(axis=-1), 1.0 / p)


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


def _grid_of(n, spec, grid):
    """The grid of a state of n values: ``grid``, of which it must be a whole
    number of components, or without one unit weights, for an lp norm only."""
    if grid is None:
        if spec.k > 0:
            raise ContractViolation("Sobolev norms need the grid argument")
        return unit_grid(n)
    if n % grid.npoints:
        raise DimensionError(f"state of size {n} is not a whole number of "
                             f"grid functions on {grid.npoints} points")
    return grid


def _order_slices(u, spec, grid):
    """D^alpha u, each component's slice after the other, for every |alpha| <= k."""
    comps = u.reshape(-1, grid.npoints)
    return [np.concatenate([op @ c for c in comps]) for op in derivative_ops(grid, spec.k)]


def norm(u, spec=L2, grid=None, *, rows=False):
    """Quadrature-weighted lp or discrete Sobolev (k,p) norm of the state u
    on ``grid`` (unit weights when it is None, for an lp norm only).  u holds
    whole grid functions, one component after the other; any other size
    raises DimensionError.  With ``rows``, each row of the 2-D array ``u`` is
    one such state, and the result is the array of their norms, each the
    one-state norm bit for bit, and empty when u has no rows."""
    u = np.asarray(u)
    if rows:
        grid = _grid_of(u.shape[-1], spec, grid)
        if spec.k > 0:
            return np.array([norm(r, spec, grid) for r in u], dtype=float)
        return _lp_norm(u, grid.cell_measure, spec.p)
    u, grid = u.reshape(-1), _grid_of(u.size, spec, grid)
    w = grid.cell_measure
    if spec.k == 0:
        return float(_lp_norm(u, w, spec.p))
    slices = _order_slices(u, spec, grid)
    return float(np.sqrt(sum(_lp_norm(s, w, spec.p) ** 2 for s in slices)))


def sip(u, v, spec=L2, grid=None):
    """Semi-inner product [u, v] for the norm described by ``spec``, with u
    and v taken on ``grid`` as ``norm`` takes them."""
    u, v = np.asarray(u).reshape(-1), np.asarray(v).reshape(-1)
    grid = _grid_of(u.size, spec, grid)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    w = grid.cell_measure
    if spec.k == 0:
        return _lp_sip(u, v, w, spec.p)
    su = _order_slices(u, spec, grid)
    sv = _order_slices(v, spec, grid)
    return float(sum(_lp_sip(a, b, w, spec.p) for a, b in zip(su, sv)))


@dataclass
class OracleResult:
    value: float
    converged: bool
    quotients: np.ndarray = field(repr=False, default=None)


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

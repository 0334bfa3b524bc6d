"""Uniform grids: the metadata a discretized state needs for quadrature
and finite-difference derivatives."""

import math
from dataclasses import dataclass
from functools import lru_cache

import scipy.sparse as sp

from .errors import DimensionError

BOUNDARIES = ("none", "periodic", "neumann", "dirichlet")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid: points per axis, spacing per axis, boundary tag."""

    shape: tuple
    spacing: tuple
    boundary: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if len(self.shape) != len(self.spacing):
            raise DimensionError("shape and spacing must have the same length")
        if any(n < 1 for n in self.shape):
            raise DimensionError("grid axes must have at least one point")
        if any(h <= 0 for h in self.spacing):
            raise DimensionError("grid spacing must be positive")
        if self.boundary not in BOUNDARIES:
            raise DimensionError(f"unknown boundary tag {self.boundary!r}")

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def npoints(self):
        return math.prod(self.shape)

    @property
    def cell_measure(self):
        """Quadrature weight of a single grid cell, prod of spacings."""
        return float(math.prod(self.spacing))


@lru_cache(maxsize=64)
def unit_grid(n):
    """1D grid with unit weights; the default for a state given without a grid."""
    return Grid((int(n),), (1.0,), "none")


@lru_cache(maxsize=64)
def derivative_matrix_1d(n, h, boundary):
    """Sparse centered first-derivative matrix, one-sided at closed ends."""
    if n < 3:
        raise DimensionError("need at least 3 points for derivatives")
    inv2h = 1.0 / (2.0 * h)
    rows, cols, vals = [], [], []
    for i in range(n):
        if boundary == "periodic":
            rows += [i, i]
            cols += [(i + 1) % n, (i - 1) % n]
            vals += [inv2h, -inv2h]
        elif i == 0:
            rows += [0, 0, 0]
            cols += [0, 1, 2]
            vals += [-3.0 * inv2h, 4.0 * inv2h, -inv2h]
        elif i == n - 1:
            rows += [i, i, i]
            cols += [n - 1, n - 2, n - 3]
            vals += [3.0 * inv2h, -4.0 * inv2h, inv2h]
        else:
            rows += [i, i]
            cols += [i + 1, i - 1]
            vals += [inv2h, -inv2h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _axis_op(grid, axis, order):
    """D_axis^order lifted to the full tensor grid (single component)."""
    mats = []
    for ax, n in enumerate(grid.shape):
        if ax == axis and order > 0:
            d = derivative_matrix_1d(n, grid.spacing[ax], grid.boundary)
            m = d
            for _ in range(order - 1):
                m = m @ d
            mats.append(m)
        else:
            mats.append(sp.identity(n, format="csr"))
    full = mats[0]
    for m in mats[1:]:
        full = sp.kron(full, m, format="csr")
    return full


def multi_indices(ndim, k):
    """All derivative multi-indices with total order <= k, identity first."""
    out = []
    for total in range(k + 1):
        if ndim == 1:
            out.append((total,))
        else:
            for a in range(total + 1):
                out.append((total - a, a))
    return out


@lru_cache(maxsize=32)
def derivative_ops(grid, k):
    """Sparse D^alpha for every multi-index |alpha| <= k, acting on flat
    single-component vectors; the first entry is the identity."""
    ops = []
    for alpha in multi_indices(grid.ndim, k):
        op = sp.identity(grid.npoints, format="csr")
        for ax, order in enumerate(alpha):
            if order > 0:
                op = _axis_op(grid, ax, order) @ op
        ops.append(op)
    return tuple(ops)

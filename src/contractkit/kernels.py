"""Numpy stencils and lp accumulation cores, kept for the benchmark.

No module of the package imports this one.  The grid right-hand sides in
:mod:`contractkit.pde` evaluate the sparse matrices of ``Discretization``,
and :mod:`contractkit.sip` takes its lp sums itself, for real and complex
states alike.  The module stays because the benchmark harness in
``perfbench/`` imports it, reads ``backend()`` and times these nine names
by looking them up on it.

All kernels take and return float64 arrays.
"""

import numpy as np


# ---------------------------------------------------------------------------
# 1D Laplacian stencils (second order).  inv_h2 = 1/h^2.
# ---------------------------------------------------------------------------

def lap1d_periodic(u, inv_h2):
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) * inv_h2


def lap1d_neumann(u, inv_h2):
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_h2
    out[0] = (u[1] - u[0]) * inv_h2
    out[-1] = (u[-2] - u[-1]) * inv_h2
    return out


def lap1d_dirichlet(u, inv_h2):
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_h2
    out[0] = (u[1] - 2.0 * u[0]) * inv_h2
    out[-1] = (u[-2] - 2.0 * u[-1]) * inv_h2
    return out


# ---------------------------------------------------------------------------
# Viscous Burgers right-hand side, conservative flux form on a periodic grid:
#     u_t = -(u^2/2)_x + eps * u_xx
# centered: face flux (F_i + F_{i+1})/2; upwind: Godunov flux for the convex
# flux u^2/2, robust at eps = 0.
# ---------------------------------------------------------------------------

def burgers_rhs_centered(u, inv_h, inv_h2, eps):
    flux = 0.5 * u * u
    adv = (np.roll(flux, -1) - np.roll(flux, 1)) * (0.5 * inv_h)
    return -adv + eps * lap1d_periodic(u, inv_h2)


def burgers_rhs_upwind(u, inv_h, inv_h2, eps):
    up = np.roll(u, -1)
    left = np.maximum(u, 0.0)
    right = np.minimum(up, 0.0)
    face = np.maximum(0.5 * left * left, 0.5 * right * right)
    adv = (face - np.roll(face, 1)) * inv_h
    return -adv + eps * lap1d_periodic(u, inv_h2)


# ---------------------------------------------------------------------------
# Fused reaction-diffusion right-hand sides (zero-flux boundaries).
# ---------------------------------------------------------------------------

def allen_cahn_rhs(u, alpha, inv_h2):
    return alpha * lap1d_neumann(u, inv_h2) + u - u * u * u


def brusselator_rhs(x, y, a, b, dx, dy, inv_h2):
    xy2 = x * x * y
    fx = dx * lap1d_neumann(x, inv_h2) + a - (b + 1.0) * x + xy2
    fy = dy * lap1d_neumann(y, inv_h2) + b * x - xy2
    return fx, fy


# ---------------------------------------------------------------------------
# lp accumulation cores (real data, scalar quadrature weight).
# ---------------------------------------------------------------------------

def lp_power_sum(u, p):
    """sum |u_i|^p for finite p."""
    return float(np.sum(np.abs(u) ** p))


def lp_sip_smooth(u, v, p):
    """sum |u_i|^(p-1) sgn(u_i) v_i, the smooth-norm core for 1 < p < inf."""
    return float(np.sum(np.abs(u) ** (p - 1.0) * np.sign(u) * v))


def backend():
    """Name of the kernel path; numpy is the only one."""
    return "numpy"

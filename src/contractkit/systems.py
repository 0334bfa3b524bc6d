"""Built-in dynamical systems used by the experiments and tests."""

import numpy as np

from .flows import VectorField
from .geometry import Submersion
from .measures import inverse


def hopf_field(omega=1.0, gain=1.0):
    """Planar oscillator with an attracting unit circle:
    rdot = gain * r (1 - r^2), thetadot = omega, in Cartesian coordinates.
    The arithmetic runs on Python floats: the same bits as on numpy scalars,
    at a fraction of the cost per call."""

    def f(t, u):
        x, y = u.tolist()
        r2 = x * x + y * y
        return np.array([gain * x * (1.0 - r2) - omega * y,
                         gain * y * (1.0 - r2) + omega * x])

    def jac(t, u):
        x, y = u.tolist()
        return np.array([
            [gain * (1.0 - 3.0 * x * x - y * y), -omega - 2.0 * gain * x * y],
            [omega - 2.0 * gain * x * y, gain * (1.0 - x * x - 3.0 * y * y)],
        ])

    return VectorField(f=f, jac=jac, dim=2, name=f"hopf(omega={omega},gain={gain})")


def circle_submersion():
    """phi(u) = ||u||^2 - 1, whose zero set is the unit circle."""
    return Submersion(
        phi=lambda u: np.array([u[0] ** 2 + u[1] ** 2 - 1.0]),
        dphi=lambda u: np.array([[2.0 * u[0], 2.0 * u[1]]]),
        codim=1,
    )


def conjugated_field(base, M):
    """Field whose conjugate under v = M u is ``base``: f(t, u) =
    M^{-1} base(t, M u)."""
    M = np.asarray(M, dtype=float)
    Minv = inverse(M, "conjugacy matrix")

    def f(t, u):
        return Minv @ base.eval(t, M @ u)

    def jac(t, u):
        return Minv @ base.jacobian(t, M @ u) @ M

    return VectorField(f=f, jac=jac, dim=base.dim,
                       name=base.name + "_pulled_back")


def coupled_hopf_field(omegas, conj_mats, coupling):
    """n coupled oscillators, heterogeneous through linear conjugacies:
    in conjugate coordinates v_i = M_i u_i every subsystem runs the same
    planar oscillator plus diffusive coupling,

        dv_i/dt = hopf(v_i; omega_i) + K * sum_j (v_j - v_i),

    mapped back through u_i = M_i^{-1} v_i.  The block-diagonal M and M^{-1}
    are kept as stacks of their 2 x 2 blocks.  f maps through them with one
    stacked product each way and takes the planar terms on Python floats in
    numpy's order of operations (the coupling as (K n)(mean - v_i), the mean
    summed oscillator by oscillator), so it keeps the bits of the array form
    at a fraction of its cost."""
    n_osc = len(omegas)
    M = np.stack([np.asarray(Mi, dtype=float) for Mi in conj_mats])     # (n, 2, 2)
    Minv = inverse(M, "an oscillator's conjugacy matrix")
    omega = np.asarray(omegas, dtype=float)
    omega_list = omega.tolist()
    K = float(coupling)
    Kn = K * n_osc
    eye = np.eye(2)
    stacked = (n_osc, 2, 1)

    def f(t, u):
        v = (M @ u.reshape(stacked)).ravel().tolist()
        xs, ys = v[0::2], v[1::2]
        mx, my = sum(xs) / n_osc, sum(ys) / n_osc
        dv = []
        for x, y, w in zip(xs, ys, omega_list):
            radial = 1.0 - (x * x + y * y)
            dv += (Kn * (mx - x) + (x * radial - w * y), Kn * (my - y) + (y * radial + w * x))
        return (Minv @ np.array(dv).reshape(stacked)).reshape(-1)

    def jac(t, u):
        v = (M @ u.reshape(stacked))[..., 0]
        x, y = v[:, 0], v[:, 1]
        hopf = np.stack([
            np.stack([1.0 - 3.0 * x * x - y * y, -omega - 2.0 * x * y], axis=1),
            np.stack([omega - 2.0 * x * y, 1.0 - x * x - 3.0 * y * y], axis=1),
        ], axis=1)
        core = np.broadcast_to(K * eye, (n_osc, n_osc, 2, 2)).copy()
        diag = np.arange(n_osc)
        core[diag, diag] = hopf - K * (n_osc - 1) * eye
        blocks = Minv[:, None] @ core @ M[None, :]                        # (n, n, 2, 2)
        return blocks.transpose(0, 2, 1, 3).reshape(2 * n_osc, 2 * n_osc)

    return VectorField(f=f, jac=jac, dim=2 * n_osc, name="coupled_hopf")

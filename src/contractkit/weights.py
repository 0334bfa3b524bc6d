"""Weight families Theta(t, u) and the radius-b diagonal rate optimizer.

A weight re-norms tangent vectors: invertible families give equivalent
norms (asymptotic contraction certificates), surjective non-invertible
ones give seminorms measuring displacement transverse to a subspace or
manifold.  ``bound_b`` is the declared uniform bound on ||Theta|| and
||Theta^{-1}||.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .measures import coimage_of, inverse, nonlinear_rate
from .sampling import read as read_samples
from .sip import L2

_PROJ_TOL = 1e-10
_PROJ_PROBES = 8          # random probes of Q^2 = Q, seeded with 0
# the diagonal optimizer stops after this many sweeps or below this log-step
_MAX_SWEEPS = 200
_STEP_TOL = 1e-3


@dataclass
class WeightFamily:
    kind: str
    bound_b: float
    invertible: bool
    time_varying: bool = False
    params: dict = field(default_factory=dict)
    _matrix: object = None   # (t, u, n) -> ndarray
    _inv: object = None      # (t, u, n) -> ndarray
    _dmat: object = None     # (t, u, n) -> ndarray
    # (V_r, s_r, U_r^H) of a constant non-invertible weight (measures.coimage_of)
    coimage: tuple = None

    def matrix(self, t, u, n):
        return np.asarray(self._matrix(t, u, n))

    def inv_matrix(self, t, u, n):
        if not self.invertible or self._inv is None:
            raise ContractViolation(f"{self.kind} weight has no inverse")
        return np.asarray(self._inv(t, u, n))

    def dmatrix_dt(self, t, u, n):
        """Time derivative of Theta at (t, u); None means identically zero."""
        if not self.time_varying:
            return None
        if self._dmat is None:
            raise ContractViolation(
                "time-varying weight must provide its time derivative"
            )
        return np.asarray(self._dmat(t, u, n))


def _frozen(a):
    a.setflags(write=False)     # a constant weight hands this one array to every caller
    return a


_eye = functools.lru_cache(maxsize=None)(lambda n: _frozen(np.eye(n)))


def identity():
    return WeightFamily(
        kind="identity", bound_b=1.0, invertible=True,
        _matrix=lambda t, u, n: _eye(n), _inv=lambda t, u, n: _eye(n),
    )


def constant_matrix(M, b=None):
    M = _frozen(np.array(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ContractViolation("constant weight matrix must be square")
    Minv = _frozen(inverse(M, "constant weight matrix"))
    measured = float(max(np.linalg.norm(M, 2), np.linalg.norm(Minv, 2)))
    if b is None:
        b = measured
    elif measured > b * (1 + 1e-9):
        raise ContractViolation(f"declared bound b={b} violated: measured {measured:.6g}")
    return WeightFamily(
        kind="constant_matrix", bound_b=float(b), invertible=True,
        params={"matrix": M},
        _matrix=lambda t, u, n, M=M: M,
        _inv=lambda t, u, n, Mi=Minv: Mi,
    )


def diagonal(entries, b=None):
    d = np.asarray(entries, dtype=float)
    if np.any(d <= 0):
        raise ContractViolation("diagonal weight entries must be positive")
    measured = max(float(np.max(d)), float(np.max(1.0 / d)))
    if b is None:
        b = measured
    elif measured > b * (1 + 1e-9):
        raise ContractViolation(f"diagonal entries must lie in [1/b, b] for b={b}; "
                                f"measured {measured:.6g}")
    return WeightFamily(
        kind="diagonal", bound_b=float(b), invertible=True,
        params={"entries": d},
        _matrix=lambda t, u, n, D=_frozen(np.diag(d)): D,
        _inv=lambda t, u, n, Di=_frozen(np.diag(1.0 / d)): Di,
    )


def projection_complement(P):
    """Q = I - P for a bounded linear projection P (P^2 = P)."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    Q = np.eye(n) - P
    rng = np.random.default_rng(0)
    for _ in range(_PROJ_PROBES):
        v = rng.standard_normal(n)
        if np.linalg.norm(Q @ (Q @ v) - Q @ v) > _PROJ_TOL * (1 + np.linalg.norm(v)):
            raise ContractViolation("P is not a projection: Q^2 != Q on probes")
    bound, basis = coimage_of(Q)
    return WeightFamily(
        kind="projection_complement", bound_b=bound, invertible=False,
        params={"P": P, "Q": Q},
        _matrix=lambda t, u, n_, Q=Q: Q, coimage=basis,
    )


def jacobian_of_map(dphi):
    """State-dependent surjective weight Theta(u) = Dphi(u), with no bound
    declared."""
    return WeightFamily(
        kind="jacobian_of_map", bound_b=np.inf, invertible=False,
        params={"dphi": dphi},
        _matrix=lambda t, u, n, dphi=dphi: np.atleast_2d(dphi(np.asarray(u))),
    )


def custom(matrix, inverse=None, dmatrix_dt=None, b=np.inf, time_varying=False):
    return WeightFamily(
        kind="custom", bound_b=float(b), invertible=inverse is not None,
        time_varying=time_varying,
        _matrix=matrix, _inv=inverse, _dmat=dmatrix_dt,
    )


def check_radius_b(theta, b, sampler):
    """Probe ||Theta|| and ||Theta^{-1}|| over sampled (t, u) against b."""
    if not theta.invertible:
        raise ContractViolation("radius check needs an invertible weight")
    samples = read_samples(sampler)
    max_fwd = max(float(np.linalg.norm(theta.matrix(t, u, len(u)), 2)) for t, u in samples)
    max_inv = max(float(np.linalg.norm(theta.inv_matrix(t, u, len(u)), 2)) for t, u in samples)
    observed = max(max_fwd, max_inv)
    return {
        "max_theta": max_fwd,
        "max_theta_inv": max_inv,
        "observed": observed,
        "bound": float(b),
        "passed": bool(observed <= b * (1 + 1e-9)),
        "samples": len(samples),
    }


def transient_bound(lam, b):
    """The transient bound t_b = -2 ln(b) / lambda after which a contraction
    at rate lambda beats the prefactor b^2 of a radius-b weight; inf unless
    lambda < 0 and b is a finite bound >= 1."""
    if lam < 0 and math.isfinite(b) and b >= 1:
        return -2.0 * math.log(b) / lam
    return math.inf


@dataclass
class AsymptoticRateResult:
    """Best rate found within a radius-b diagonal family, with the transient
    bound t_b (``transient_bound``)."""

    lambda_b: float
    best_weight: WeightFamily
    b: float
    transient_bound: float
    iterations: int
    history: list = field(default_factory=list)


def optimize_diagonal_weight(A_or_f, spec=L2, b=10.0, *, sampler, seed=0):
    """Coordinate descent over time-invariant diagonal weights with entries
    in [1/b, b], minimizing the sampled nonlinear rate.

    Multiplicative steps (initial factor 2) halve on failed sweeps; stops
    when the log-step drops below ``_STEP_TOL`` or after ``_MAX_SWEEPS``.
    The result upper-bounds the radius-b rate within the diagonal family.
    """
    if b <= 1.0:
        raise ContractViolation("optimizer needs b > 1")
    from .flows import as_vector_field

    f = as_vector_field(A_or_f)
    samples = read_samples(sampler)
    n = samples[0][1].shape[0]

    def evaluate(d):
        w = diagonal(d, b=b)
        return nonlinear_rate(f, w, spec=spec, sampler=samples, seed=seed).value

    d = np.ones(n)
    best = evaluate(d)
    log_step = math.log(2.0)
    sweeps = 0
    lo, hi = 1.0 / b, b
    history = [best]
    while sweeps < _MAX_SWEEPS and log_step >= _STEP_TOL:
        improved = False
        for i in range(n):
            for sgn in (1.0, -1.0):
                trial = float(np.clip(d[i] * math.exp(sgn * log_step), lo, hi))
                if trial == d[i]:
                    continue
                d_try = d.copy()
                d_try[i] = trial
                val = evaluate(d_try)
                if val < best - 1e-12:
                    best = val
                    d = d_try
                    improved = True
        sweeps += 1
        history.append(best)
        if not improved:
            log_step *= 0.5
    return AsymptoticRateResult(
        lambda_b=best,
        best_weight=diagonal(d, b=b),
        b=float(b),
        transient_bound=transient_bound(best, b),
        iterations=sweeps,
        history=history,
    )

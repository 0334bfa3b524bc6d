"""Deterministic samplers of (t, u) pairs for the sampled suprema."""

import numpy as np


def states(us, t=0.0):
    """Fixed list of states at a common time."""
    return [(t, np.asarray(u, dtype=float)) for u in us]


def box_samples(n_samples, low, high, t_range=(0.0, 0.0), seed=0):
    """Uniform samples from a box, times uniform in t_range; seeded."""
    rng = np.random.default_rng(seed)
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    out = []
    for _ in range(n_samples):
        u = rng.uniform(low, high)
        t = rng.uniform(t_range[0], t_range[1]) if t_range[1] > t_range[0] else t_range[0]
        out.append((t, u))
    return out


def gaussian_samples(n_samples, dim, scale=1.0, t_range=(0.0, 0.0), seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        u = scale * rng.standard_normal(dim)
        t = rng.uniform(t_range[0], t_range[1]) if t_range[1] > t_range[0] else t_range[0]
        out.append((t, u))
    return out

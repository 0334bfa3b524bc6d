"""Deterministic samplers of (t, u) pairs for the sampled suprema, and
``read``, the one reader of a sampler."""

import numpy as np

from .errors import ContractViolation


def read(sampler):
    """The (t, u) pairs of ``sampler`` as a list, each u a float array,
    taken in one pass.  A sampler is required and must yield at least one
    pair: ContractViolation on None or on an empty sampler."""
    if sampler is None:
        raise ContractViolation("a sampler of (t, u) pairs is required")
    samples = [(t, np.asarray(u, dtype=float)) for t, u in sampler]
    if not samples:
        raise ContractViolation("the sampler yielded no (t, u) samples")
    return samples


def states(us):
    """Fixed list of states at time 0."""
    return [(0.0, np.asarray(u, dtype=float)) for u in us]


def box_samples(n_samples, low, high, seed=0):
    """Uniform samples from a box at time 0; seeded."""
    rng = np.random.default_rng(seed)
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    return [(0.0, rng.uniform(low, high)) for _ in range(n_samples)]


def gaussian_samples(n_samples, dim, t_range=(0.0, 0.0), seed=0):
    """Standard normal states, times uniform in t_range; seeded."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        u = rng.standard_normal(dim)
        t = rng.uniform(t_range[0], t_range[1]) if t_range[1] > t_range[0] else t_range[0]
        out.append((t, u))
    return out

"""Seeded input generators that scale to any interface count.

``verify.random_tent_pattern`` rejection-samples roots with a fixed
minimum spacing, so it never returns at about 31 roots.  These generators
jitter an even grid instead: every draw is accepted, and the spacing
floor shrinks with n rather than blocking it.
"""

from __future__ import annotations

import math

import numpy as np

JITTER = 0.3  # node offset as a share of the grid spacing; gaps stay >= 0.4 h


def ordered_heights(n: int, rng: np.random.Generator) -> list[float]:
    """n strictly increasing heights in (-1, 1): a jittered even grid."""
    h = 2.0 / (n + 1)
    z = -1.0 + h * (np.arange(1, n + 1) + rng.uniform(-JITTER, JITTER, n))
    return [float(v) for v in z]


def tent_heights(n: int, rng: np.random.Generator) -> list[float]:
    """Zero-mean heights whose xi crosses zero between every interface pair.

    The n - 1 crossing points are drawn first as jittered roots; the
    interfaces sit at the midpoints of consecutive nodes (-1, roots, 1).
    """
    nodes = [-1.0, *ordered_heights(n - 1, rng), 1.0]
    return [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def pass_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for pass ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng([seed, index])

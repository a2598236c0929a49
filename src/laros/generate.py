"""Synthetic instance generators: the planted rank-one-plus-noise model,
planted bicliques, noise samplers, and the 6x6 two-block demo matrix.

All generators are pure functions of their parameters and seed; block
noise streams are spawned independently from the master seed so enlarging
the ambient matrix never reshuffles the planted block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import BlockSelector

NOISE_FAMILIES = ("uniform", "bernoulli")

# Entries of the block factors are kept strictly positive: perturbations
# are clipped at -1 + FACTOR_FLOOR.
FACTOR_FLOOR = 1e-6


def _check_noise(family, sigma0, c3):
    """Rejects an unknown family, a sigma0 or c3 outside its range, and a
    noise bound 2*c3*sigma0 that overflows."""
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}, "
                         f"expected one of {NOISE_FAMILIES}")
    # written so that NaN fails too
    if not 0.0 < sigma0 < math.inf:
        raise ValueError(f"sigma0 must be finite and positive, got {sigma0}")
    if not 0.0 <= c3 < math.inf:
        raise ValueError(f"c3 must be finite and nonnegative, got {c3}")
    if 2.0 * c3 * sigma0 == math.inf:
        raise ValueError(f"noise bound 2*c3*sigma0 overflows at c3={c3}, "
                         f"sigma0={sigma0}")


@dataclass(frozen=True)
class PlantedModel:
    """Parameters of the planted rank-one block model.

    The signal block is sigma0 * u0 v0^T on the leading M x N corner with
    u0 = ones + p, v0 = ones + q (||p|| <= c1*sqrt(M), ||q|| <= c2*sqrt(N),
    both entrywise > -1), plus i.i.d. nonnegative noise of mean c3*sigma0
    everywhere (none at c3 = 0). The centered, sigma0-scaled noise is
    b-subgaussian (see `b`).
    """

    m: int
    n: int
    M: int
    N: int
    sigma0: float = 1.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    noise_family: str = "uniform"
    p_seed: int = 0
    q_seed: int = 0

    def __post_init__(self):
        if min(self.m, self.n, self.M, self.N) < 1:
            raise ValueError("dimensions must be positive")
        if self.M >= self.m or self.N >= self.n:
            raise ValueError("block must be strictly smaller than the matrix")
        _check_noise(self.noise_family, self.sigma0, self.c3)
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {v}")
        # a bound on the entries, formed in the order plant_rank_one forms
        # them, so that no intermediate of a model that passes overflows
        peak = self.sigma0 * ((1.0 + self.c1 * math.sqrt(self.M))
                              * (1.0 + self.c2 * math.sqrt(self.N))
                              + 2.0 * self.c3)
        if peak == math.inf:
            raise ValueError(
                f"entries can overflow at sigma0={self.sigma0}, c1={self.c1}, "
                f"c2={self.c2}, c3={self.c3}")

    @property
    def b(self):
        """The noise's subgaussian parameter: c3, or 1.0 at c3 = 0 (no
        noise, which any b > 0 bounds)."""
        return self.c3 if self.c3 > 0 else 1.0


@dataclass(frozen=True)
class PlantedInstance:
    """A generated matrix with its ground-truth block."""

    a: np.ndarray
    truth: BlockSelector


def sample_noise(family, sigma0, c3, rows, cols, seed):
    """Draw a rows-by-cols noise matrix with i.i.d. entries of mean
    c3*sigma0.

    uniform: entries on [0, 2*c3*sigma0] (centered scaled variable is
    c3-subgaussian); bernoulli: 0 or 2*c3*sigma0 with probability 1/2.
    Either gives zeros at c3 = 0.
    """
    _check_noise(family, sigma0, c3)
    rng = np.random.default_rng(seed)
    if family == "uniform":
        return rng.uniform(0.0, 2.0 * c3 * sigma0, size=(rows, cols))
    return rng.integers(0, 2, size=(rows, cols)) * (2.0 * c3 * sigma0)


def _perturbation(length, cap, seed):
    """Vector with ||p||_2 <= cap and entries > -1, from its own stream."""
    if cap <= 0:
        return np.zeros(length)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(length)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        return np.zeros(length)
    p = direction / nrm * cap * rng.uniform()
    return np.maximum(p, -1.0 + FACTOR_FLOOR)  # clip shrinks, cap preserved


def plant_rank_one(model, seed):
    """Generate a planted instance: signal block plus blockwise noise.

    The master seed spawns one child stream per block (11, 12, 21, 22);
    the factor perturbations come from the model's own p/q seeds so the
    planted signal is fixed across noise draws.
    """
    ss = np.random.SeedSequence(seed)
    s11, s12, s21, s22 = ss.spawn(4)
    bm, bn, m, n = model.M, model.N, model.m, model.n

    p = _perturbation(bm, model.c1 * math.sqrt(bm), model.p_seed)
    q = _perturbation(bn, model.c2 * math.sqrt(bn), model.q_seed)
    u0 = 1.0 + p
    v0 = 1.0 + q

    a = np.zeros((m, n))
    a[:bm, :bn] = model.sigma0 * np.outer(u0, v0)
    fam, s0, c3 = model.noise_family, model.sigma0, model.c3
    a[:bm, :bn] += sample_noise(fam, s0, c3, bm, bn, s11)
    a[:bm, bn:] += sample_noise(fam, s0, c3, bm, n - bn, s12)
    a[bm:, :bn] += sample_noise(fam, s0, c3, m - bm, bn, s21)
    a[bm:, bn:] += sample_noise(fam, s0, c3, m - bm, n - bn, s22)

    truth = BlockSelector(rows=np.arange(bm), cols=np.arange(bn))
    return PlantedInstance(a=a, truth=truth)


def plant_biclique(m, n, M, N, p_edge, seed):
    """Generate a bipartite adjacency matrix with a planted all-ones block.

    Entries outside the block are i.i.d. Bernoulli(p_edge). The planted
    block itself carries no noise.
    """
    if not (1 <= M <= m and 1 <= N <= n):
        raise ValueError("block must fit inside the matrix")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError(f"p_edge must lie in [0, 1], got {p_edge}")
    rng = np.random.default_rng(seed)
    a = (rng.random((m, n)) < p_edge).astype(float)
    a[:M, :N] = 1.0
    truth = BlockSelector(rows=np.arange(M), cols=np.arange(N))
    return PlantedInstance(a=a, truth=truth)


def two_block_matrix():
    """The 6x6 demo matrix with two approximately rank-one 3x3 diagonal
    blocks and a noisy upper-right corner; the standard fixture for
    exercising block identification."""
    return np.array([
        [0.8, 0.9, 1.1, 0.1, 0.2, 0.2],
        [0.8, 1.1, 0.8, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.8, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.8, 0.9, 1.0],
        [0.0, 0.0, 0.0, 0.9, 1.0, 0.8],
        [0.0, 0.0, 0.0, 1.0, 1.1, 0.8],
    ])

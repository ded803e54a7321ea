"""Seeded instance families: random +/-1 graphs, bit-inner-product graphs, cycles, paths.

Random families draw one block of splitmix64 outputs per graph and spend them
one per edge in lexicographic (i, j) order, so every instance is reproducible
from (family, n, seed) alone.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, compress, product

import numpy as np

from . import rng
from .errors import CapacityError, InputError
from .graph import MAX_VERTICES, SignedWeightedGraph, _is_int, _is_real


def _check_n(n: int, low: int = 2, per_vertex: int = 1) -> int:
    """n as an int; the graph has per_vertex * n vertices."""
    if not _is_int(n) or n < low:
        raise InputError(f"vertex count must be an integer >= {low}, got {n!r}")
    if per_vertex * n > MAX_VERTICES:
        raise CapacityError(f"{per_vertex * n} vertices exceed the bitmask cap of {MAX_VERTICES}")
    return int(n)


@functools.cache
def _pairs(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(i, j) columns of the vertex pairs i < j of 1..n, n >= 2, in lexicographic order."""
    return tuple(zip(*combinations(range(1, n + 1), 2)))


def random_pm1_complete(n: int, seed: int) -> SignedWeightedGraph:
    """Complete graph on n vertices with independent uniform +/-1 weights."""
    n = _check_n(n)
    ends = _pairs(n)
    weights = rng.signs(rng.draws(seed, 0, len(ends[0])))
    return SignedWeightedGraph(n, tuple(zip(*ends, weights.tolist())))


def hadamard_instance(n: int) -> SignedWeightedGraph:
    """Complete graph with a_ij = (-1)^<bits(i-1), bits(j-1)> over k = ceil(log2 n) bits.

    Bit vectors are little-endian: i-1 = i_1 2^0 + i_2 2^1 + ...  The weights
    form the off-diagonal part of a sign matrix with pairwise nearly
    orthogonal rows, which pins every cut weight of the whole graph inside
    [-n^{3/2}/sqrt(2), n^{3/2}/sqrt(2)].
    """
    n = _check_n(n)
    ends = _pairs(n)
    signs = [(1.0, -1.0)[((i - 1) & (j - 1)).bit_count() & 1] for i, j in zip(*ends)]
    return SignedWeightedGraph(n, tuple(zip(*ends, signs)))


def random_pm1_bipartite(n_per_side: int, seed: int) -> SignedWeightedGraph:
    """Complete bipartite graph between {1..m} and {m+1..2m} with uniform +/-1 weights."""
    m = _check_n(n_per_side, low=1, per_vertex=2)
    ends = tuple(zip(*product(range(1, m + 1), range(m + 1, 2 * m + 1))))
    weights = rng.signs(rng.draws(seed, 0, m * m))
    return SignedWeightedGraph(2 * m, tuple(zip(*ends, weights.tolist())))


def uniform_real_complete(n: int, seed: int) -> SignedWeightedGraph:
    """Complete graph with uniform weights 2u - 1 in [-1, 1) \\ {0}, for stress runs.

    An output with u exactly 1/2 would give a zero weight; it is skipped and
    the next output takes its edge.
    """
    n = _check_n(n)
    ends = _pairs(n)
    weights = np.empty(0)
    used = 0
    while len(weights) < len(ends[0]):
        block = 2.0 * rng.units(rng.draws(seed, used, len(ends[0]) - len(weights))) - 1.0
        used += len(block)
        weights = np.concatenate((weights, block[block != 0.0]))
    return SignedWeightedGraph(n, tuple(zip(*ends, weights.tolist())))


def random_signed_graph(n: int, seed: int) -> SignedWeightedGraph:
    """Random graph for the census: each pair kept with prob 1/2, sign +/-1.

    One output per pair: the low bit decides presence (1 -> present), bit 1
    the sign (0 -> +1).
    """
    n = _check_n(n)
    ends = _pairs(n)
    u = rng.draws(seed, 0, len(ends[0]))
    present = rng.bits(u) == 1.0
    kept = present.tolist()
    weights = rng.signs(rng.shifted(u))[present]
    return SignedWeightedGraph(n, tuple(zip(*(compress(c, kept) for c in ends), weights.tolist())))


def _check_signs(signs, count: int, what: str) -> tuple[float, ...]:
    try:
        signs = tuple(signs)
    except TypeError:
        raise InputError(f"{what} needs a sequence of {count} signs, got {signs!r}") from None
    if len(signs) != count:
        raise InputError(f"{what} needs exactly {count} signs, got {len(signs)}")
    if {*map(type, signs)} <= {float} and {*signs} <= {1.0, -1.0}:  # float signs, as sets
        return signs
    if not all(_is_real(s) and s in (1.0, -1.0) for s in signs):
        raise InputError(f"{what} signs must be the numbers +1 or -1, got {signs}")
    return tuple(map(float, signs))


def signed_cycle(n: int, signs) -> SignedWeightedGraph:
    """Cycle 1-2-...-n-1 with unit-magnitude signed weights.

    signs[k] is the sign of the k-th edge along the traversal, i.e. edge
    {k+1, k+2} for k < n-1 and the closing edge {1, n} for k = n-1.
    """
    n = _check_n(n, low=3)
    signs = _check_signs(signs, n, f"cycle on {n} vertices")
    edges = list(zip(range(1, n), range(2, n + 1), signs))
    edges.insert(1, (1, n, signs[n - 1]))  # edge order: {1, n} sorts right after {1, 2}
    return SignedWeightedGraph(n, tuple(edges))


def signed_path(n: int, signs) -> SignedWeightedGraph:
    """Path 1-2-...-n with unit-magnitude signed weights; signs[k] is edge {k+1, k+2}."""
    n = _check_n(n)
    signs = _check_signs(signs, n - 1, f"path on {n} vertices")
    return SignedWeightedGraph(n, tuple(zip(range(1, n), range(2, n + 1), signs)))


# family -> (generator, the argument it takes after n: "seed", "signs" or None).
# For random_pm1_bipartite n is the size of one side (the graph has 2n vertices).
INSTANCE_FAMILIES = {
    "random_pm1_complete": (random_pm1_complete, "seed"),
    "hadamard": (hadamard_instance, None),
    "random_pm1_bipartite": (random_pm1_bipartite, "seed"),
    "cycle": (signed_cycle, "signs"),
    "path": (signed_path, "signs"),
}


def hadamard_discrepancy_bound(n: int) -> float:
    """Upper bound n^{3/2}/sqrt(2) on |cut weight| for the bit-inner-product instance."""
    return n**1.5 / math.sqrt(2.0)

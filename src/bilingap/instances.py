"""Seeded instance families: random +/-1 graphs, bit-inner-product graphs, cycles, paths.

Random families draw one block of splitmix64 outputs per graph and spend them
one per edge in lexicographic (i, j) order, so every instance is reproducible
from (family, n, seed) alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import rng
from .errors import InputError
from .graph import MAX_VERTICES, SignedWeightedGraph, _int_arg, _is_real


def _check_n(n: int, low: int = 2, per_vertex: int = 1) -> int:
    """n as an int; the graph has per_vertex * n vertices."""
    return _int_arg(n, "vertex count", low, MAX_VERTICES // per_vertex)


def _frozen(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for c in columns:
        c.setflags(write=False)
    return columns


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (i, j) columns of the vertex pairs i < j of 1..n, n >= 2, in (i, j) order."""
    i, j = np.triu_indices(n, 1)  # row by row: lexicographic
    return _frozen(i + 1, j + 1)


def random_pm1_complete(n: int, seed: int) -> SignedWeightedGraph:
    """Complete graph on n vertices with independent uniform +/-1 weights."""
    n = _check_n(n)
    i, j = _pairs(n)
    return SignedWeightedGraph.from_columns(n, i, j, rng.signs(rng.draws(seed, 0, len(i))))


def hadamard_instance(n: int) -> SignedWeightedGraph:
    """Complete graph with a_ij = (-1)^<bits(i-1), bits(j-1)> over k = ceil(log2 n) bits.

    Bit vectors are little-endian: i-1 = i_1 2^0 + i_2 2^1 + ...  The weights
    form the off-diagonal part of a sign matrix with pairwise nearly
    orthogonal rows, which pins every cut weight of the whole graph inside
    [-n^{3/2}/sqrt(2), n^{3/2}/sqrt(2)].
    """
    n = _check_n(n)
    i, j = _pairs(n)
    parity = (i - 1) & (j - 1)  # < 64: three folds leave the popcount parity in bit 0
    for shift in (4, 2, 1):
        parity ^= parity >> shift
    return SignedWeightedGraph.from_columns(n, i, j, 1.0 - 2.0 * (parity & 1))


def random_pm1_bipartite(n_per_side: int, seed: int) -> SignedWeightedGraph:
    """Complete bipartite graph between {1..m} and {m+1..2m} with uniform +/-1 weights."""
    m = _check_n(n_per_side, low=1, per_vertex=2)
    i = np.repeat(np.arange(1, m + 1), m)
    j = np.tile(np.arange(m + 1, 2 * m + 1), m)
    return SignedWeightedGraph.from_columns(2 * m, i, j, rng.signs(rng.draws(seed, 0, m * m)))


def uniform_real_complete(n: int, seed: int) -> SignedWeightedGraph:
    """Complete graph with uniform weights 2u - 1 in [-1, 1) \\ {0}, for stress runs.

    An output with u exactly 1/2 would give a zero weight; it is skipped and
    the next output takes its edge.
    """
    n = _check_n(n)
    i, j = _pairs(n)
    weights = np.empty(0)
    used = 0
    while len(weights) < len(i):
        block = 2.0 * rng.units(rng.draws(seed, used, len(i) - len(weights))) - 1.0
        used += len(block)
        weights = np.concatenate((weights, block[block != 0.0]))
    return SignedWeightedGraph.from_columns(n, i, j, weights)


def random_signed_graph(n: int, seed: int) -> SignedWeightedGraph:
    """Random graph for the census: each pair kept with prob 1/2, sign +/-1.

    One output per pair: the low bit decides presence (1 -> present), bit 1
    the sign (0 -> +1).
    """
    n = _check_n(n)
    i, j = _pairs(n)
    u = rng.draws(seed, 0, len(i))
    present = rng.bits(u) == 1.0
    weights = rng.signs(rng.shifted(u))[present]
    return SignedWeightedGraph.from_columns(n, i[present], j[present], weights)


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


@functools.cache
def _walk_pairs(n: int, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) columns, in (i, j) order, of the edges {k, k+1}, and {1, n} if closed."""
    i = np.arange(1, n)
    j = i + 1
    if closed:  # {1, n} sorts right after {1, 2}
        i, j = np.insert(i, 1, 1), np.insert(j, 1, n)
    return _frozen(i, j)


def signed_cycle(n: int, signs) -> SignedWeightedGraph:
    """Cycle 1-2-...-n-1 with unit-magnitude signed weights.

    signs[k] is the sign of the k-th edge along the traversal, i.e. edge
    {k+1, k+2} for k < n-1 and the closing edge {1, n} for k = n-1.
    """
    n = _check_n(n, low=3)
    signs = _check_signs(signs, n, f"cycle on {n} vertices")
    w = np.array((signs[0], signs[-1], *signs[1:-1]))  # in the order of _walk_pairs
    return SignedWeightedGraph.from_columns(n, *_walk_pairs(n, True), w)


def signed_path(n: int, signs) -> SignedWeightedGraph:
    """Path 1-2-...-n with unit-magnitude signed weights; signs[k] is edge {k+1, k+2}."""
    n = _check_n(n)
    signs = _check_signs(signs, n - 1, f"path on {n} vertices")
    return SignedWeightedGraph.from_columns(n, *_walk_pairs(n, False), np.array(signs))


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

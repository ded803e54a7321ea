"""Signed weighted graphs on vertices 1..n with bitmask vertex subsets.

A graph is identified with the bilinear function b(x) = sum a_ij x_i x_j over
its weighted edges, so "graph" and "instance" are used interchangeably.
Subsets are stored as bitmasks (vertex v <-> bit v-1), which caps n at 63.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import CapacityError, InputError

MAX_VERTICES = 63
MAX_TOTAL_ABS_WEIGHT = 1e300  # instance files above this would overflow cut sums to inf


@dataclass(frozen=True, order=True)
class VertexSubset:
    """Immutable set of 1-based vertex indices backed by a bitmask."""

    mask: int = 0

    def __post_init__(self) -> None:
        if type(self.mask) is not int:  # a numpy integer becomes an int
            if not _is_int(self.mask):
                raise InputError(f"vertex subset mask must be an integer, got {self.mask!r}")
            object.__setattr__(self, "mask", int(self.mask))
        if self.mask < 0:
            raise InputError("vertex subset mask must be non-negative")

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "VertexSubset":
        m = 0
        for v in members:
            if not _is_int(v):
                raise InputError(f"vertex index {v!r} is not an integer")
            v = int(v)
            if v < 1:
                raise InputError(f"vertex indices are 1-based, got {v}")
            if v > MAX_VERTICES:
                raise CapacityError(f"vertex {v} exceeds the bitmask cap of {MAX_VERTICES}")
            m |= 1 << (v - 1)
        return cls(m)

    @classmethod
    def of(cls, *members: int) -> "VertexSubset":
        return cls.from_members(members)

    @classmethod
    def full(cls, n: int) -> "VertexSubset":
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"full subset needs 0 <= n <= {MAX_VERTICES}, got {n}")
        return cls((1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __contains__(self, v: int) -> bool:
        return v >= 1 and bool(self.mask >> (v - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length()
            m ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def issubset(self, other: "VertexSubset") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "VertexSubset") -> "VertexSubset":
        return VertexSubset(self.mask | other.mask)

    def intersection(self, other: "VertexSubset") -> "VertexSubset":
        return VertexSubset(self.mask & other.mask)

    def difference(self, other: "VertexSubset") -> "VertexSubset":
        return VertexSubset(self.mask & ~other.mask)


# The exact-type test first: the ABC checks cost several times more per edge.
def _is_int(v) -> bool:
    """Python or numpy integer, but not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _is_real(v) -> bool:
    """Python or numpy real number, but not a bool."""
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


# Number tokens in files and on the command line are ASCII only: int() and
# float() would also take "1_0" and non-ASCII digits such as "\u0663".
_INT_TOKEN = re.compile(r"[+-]?[0-9]+", re.ASCII)
_REAL_TOKEN = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)


def ascii_int(token: str) -> int:
    """Decimal integer token, optionally signed; ValueError on anything else."""
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def ascii_float(token: str) -> float:
    """Decimal float token, as repr(float) writes one; ValueError on anything else."""
    if not _REAL_TOKEN.fullmatch(token):
        raise ValueError(f"invalid number {token!r}")
    return float(token)


def _first(flags: Iterable) -> int | None:
    """Index of the first true flag, or None."""
    return next(compress(count(), flags), None)


def _first_raising(f: Callable, values: Iterable, errors) -> int | None:
    """Index of the first value on which f raises one of errors, or None."""
    for k, v in enumerate(values):
        try:
            f(v)
        except errors:
            return k
    return None


def _canonical_columns(n: int, edges: tuple) -> tuple[tuple, tuple, tuple]:
    """Checked (i, j, weight) columns of an edge list, sorted by (i, j).

    Each check runs over whole columns, and an edge that fails one ends the
    edges (stop) that the later checks count.  So a bad list raises what a
    per-edge loop would: its first bad edge, at the first check it fails.
    """
    stop, fault = len(edges), None

    def cut(k, message):  # no annotations: a nested def would build them on every call
        nonlocal stop, fault
        if k is not None and k < stop:
            stop, fault = k, message(k)

    try:
        i, j, w = zip(*edges, strict=True)
    except (TypeError, ValueError):  # no edges, or some edge is not a triple
        unpack = lambda e: tuple(zip(range(3), e, strict=True))  # fails where i, j, w = e does
        cut(_first_raising(unpack, edges, (TypeError, ValueError)),
            lambda k: f"edge {edges[k]!r} is not an (i, j, weight) triple")
        i, j, w = tuple(zip(*edges[:stop])) or ((), (), ())
    if {*map(type, i), *map(type, j)} != {int}:
        cut(_first(not (_is_int(a) and _is_int(b)) for a, b in zip(i, j)),
            lambda k: f"edge {edges[k]!r}: vertex indices must be integers")
        i, j = tuple(map(int, i[:stop])), tuple(map(int, j[:stop]))
    w = w[:stop]
    if {*map(type, w)} != {float}:
        cut(_first(not _is_real(v) for v in w),
            lambda k: f"edge {edges[k]!r}: weight must be a real number")
        cut(_first_raising(float, w[:stop], OverflowError),
            lambda k: f"edge {edges[k]!r} has a weight beyond the float range")
        w = tuple(map(float, w[:stop]))
    pair = lambda k: f"edge ({i[k]}, {j[k]})"
    if i and not (min(i) >= 1 and max(j) <= n and all(map(lt, i, j))):
        cut(_first(not 1 <= a < b <= n for a, b in zip(i, j)),
            lambda k: f"{pair(k)} must satisfy 1 <= i < j <= {n}")
    if not (all(w) and all(map(math.isfinite, w))):  # a zero weight is false
        cut(_first(not (v and math.isfinite(v)) for v in w),
            lambda k: f"{pair(k)} has zero weight; omit absent edges" if w[k] == 0.0
            else f"{pair(k)} has non-finite weight {w[k]!r}")
    pairs = list(zip(i[:stop], j[:stop]))
    ascending = all(map(lt, pairs, islice(pairs, 1, None)))
    if not ascending and len(set(pairs)) < len(pairs):
        seen: set[tuple] = set()  # seen.add returns None, so a pair is true once seen
        cut(_first(p in seen or seen.add(p) for p in pairs), lambda k: f"duplicate {pair(k)}")
    if fault is not None:
        raise InputError(fault)
    return (i, j, w) if ascending else tuple(zip(*sorted(zip(i, j, w))))


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Simple undirected graph with nonzero real edge weights.

    Edges are stored canonically as (i, j, weight) with 1 <= i < j <= n, sorted
    lexicographically.  Construction validates the whole edge list and builds
    weight_matrix, the read-only dense symmetric (n+1, n+1) weight matrix with
    zero diagonal (row and column 0 unused); instances are immutable afterwards.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise InputError(f"vertex count must be a positive integer, got {self.n!r}")
        if self.n > MAX_VERTICES:
            raise CapacityError(
                f"vertex count {self.n} exceeds the bitmask cap of {MAX_VERTICES}"
            )
        object.__setattr__(self, "n", int(self.n))
        i, j, w = _canonical_columns(self.n, tuple(self.edges))
        object.__setattr__(self, "edges", tuple(zip(i, j, w)))
        i, j, w = cols = (np.fromiter(i, np.int64), np.fromiter(j, np.int64), np.fromiter(w, float))
        object.__setattr__(self, "_columns", cols)  # the edges as numpy columns
        matrix = np.zeros((self.n + 1, self.n + 1))
        matrix[i, j] = w
        matrix[j, i] = w
        matrix.setflags(write=False)
        object.__setattr__(self, "weight_matrix", matrix)

    @property
    def vertices(self) -> VertexSubset:
        return VertexSubset.full(self.n)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def total_abs_weight(self) -> float:
        """Left-to-right total of |weight| in edge order, as ordered_sum adds."""
        with np.errstate(over="ignore"):  # a total beyond the float range is inf
            return float(np.cumsum(np.abs(self._columns[2]))[-1]) if self.edges else 0.0

    @cached_property
    def pair_masks(self) -> tuple[tuple[int, float], ...]:
        """(bitmask of the two endpoints, weight) per edge, in edge order."""
        i, j, w = self._columns
        return tuple(zip(((1 << i - 1) | (1 << j - 1)).tolist(), w.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """adjacency[v] lists (neighbor, weight) pairs, neighbors ascending; index 0 unused."""
        # edges run in (i, j) order, so each list fills in ascending order
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n + 1)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return tuple(map(tuple, adj))

    def weight(self, i: int, j: int) -> float:
        """Weight of edge {i, j}, or 0.0 if absent."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"({i}, {j}) is not a vertex pair of a graph on {self.n} vertices")
        return float(self.weight_matrix[i, j])


@dataclass(frozen=True)
class Cut:
    """One side of a cut of the subgraph induced by ground_set."""

    ground_set: VertexSubset
    side: VertexSubset
    weight: float

    def __post_init__(self) -> None:
        if not self.side.issubset(self.ground_set):
            raise InputError("cut side must be a subset of the ground set")


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right total from 0.0: the one summation order of every float total.

    sum() would do on Python 3.11, but from 3.12 on it compensates float
    rounding, so the same edges would give other doubles.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _check_subset(g: SignedWeightedGraph, x: VertexSubset) -> None:
    if x.mask >> g.n:
        raise InputError(
            f"subset {sorted(x.members)} is not contained in the vertex set 1..{g.n}"
        )


# Each weight below selects edges by their endpoint mask pm: inside x is
# x & pm == pm, one endpoint in u is u & pm not in (0, pm).


def gamma_weight(g: SignedWeightedGraph, x: VertexSubset) -> float:
    """Total signed weight of edges with both endpoints in x."""
    _check_subset(g, x)
    m = x.mask
    return ordered_sum(w for pm, w in g.pair_masks if m & pm == pm)


def gamma_abs_weight(g: SignedWeightedGraph, x: VertexSubset) -> float:
    """Total absolute weight of edges with both endpoints in x."""
    _check_subset(g, x)
    m = x.mask
    return ordered_sum(abs(w) for pm, w in g.pair_masks if m & pm == pm)


def cut_weight(g: SignedWeightedGraph, x: VertexSubset, u: VertexSubset) -> float:
    """Signed weight of edges inside x crossing between u and x minus u."""
    _check_subset(g, x)
    if not u.issubset(x):
        raise InputError("cut side must be a subset of the ground set")
    xm, um = x.mask, u.mask
    return ordered_sum(w for pm, w in g.pair_masks if xm & pm == pm and um & pm not in (0, pm))


def cross_weight(g: SignedWeightedGraph, a: VertexSubset, b: VertexSubset) -> float:
    """Signed weight of edges with one endpoint in a and the other in b (disjoint sets)."""
    _check_subset(g, a)
    _check_subset(g, b)
    if a.mask & b.mask:
        raise InputError("cross_weight requires disjoint subsets")
    am, bm = a.mask, b.mask
    return ordered_sum(w for pm, w in g.pair_masks if am & pm and bm & pm)


# ---------------------------------------------------------------------------
# Instance files.  JSON: {"n": int, "edges": [[i, j, weight], ...]}.
# Text: one "i j weight" line per edge, '#' comments and blank lines ignored,
# first non-comment line "n <count>".  Weights round-trip exactly in both
# formats (shortest-repr float serialization).
# ---------------------------------------------------------------------------


def to_json_dict(g: SignedWeightedGraph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def from_json_dict(data: dict) -> SignedWeightedGraph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError('instance JSON must be an object with "n" and "edges"')
    n = data["n"]
    edges = data["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f'"n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise InputError('"edges" must be an array of [i, j, weight] triples')
    return SignedWeightedGraph(n, tuple(edges))


def dumps_json(g: SignedWeightedGraph) -> str:
    return json.dumps(to_json_dict(g))


def loads_json(text: str) -> SignedWeightedGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid instance JSON: {exc}") from None
    return from_json_dict(data)


def dumps_text(g: SignedWeightedGraph) -> str:
    # The vertex count rides in a comment so the body stays pure edge triples;
    # it preserves trailing isolated vertices across a round trip.
    lines = [f"# n {g.n}"]
    lines += [f"{i} {j} {w!r}" for i, j, w in g.edges]
    return "\n".join(lines) + "\n"


def loads_text(text: str) -> SignedWeightedGraph:
    """Parse "i j weight" lines; '#' comments and blank lines are ignored.

    A "# n <count>" comment (or a bare "n <count>" line) pins the vertex
    count; otherwise it is inferred as the largest endpoint.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        cparts = comment.split()
        if n is None and len(cparts) == 2 and cparts[0] == "n":
            try:
                n = ascii_int(cparts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {cparts[1]!r}") from None
        parts = line.split()
        if not parts:
            continue
        if n is None and len(parts) == 2 and parts[0] == "n" and not edges:
            try:
                n = ascii_int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 3:
            raise InputError(f'line {lineno}: expected "i j weight", got {raw!r}')
        try:
            edges.append((ascii_int(parts[0]), ascii_int(parts[1]), ascii_float(parts[2])))
        except ValueError:
            raise InputError(f"line {lineno}: bad edge line {raw!r}") from None
    if n is None:
        if not edges:
            raise InputError("instance text has no edges and no vertex count marker")
        n = max(max(i, j) for i, j, _ in edges)
    return SignedWeightedGraph(n, tuple(edges))


def write_instance(g: SignedWeightedGraph, path: str | Path, fmt: str | None = None) -> None:
    """Write an instance file; fmt 'json' or 'text', default from the extension."""
    path = Path(path)
    fmt = fmt or ("json" if path.suffix == ".json" else "text")
    if fmt == "json":
        path.write_text(dumps_json(g) + "\n")
    elif fmt == "text":
        path.write_text(dumps_text(g))
    else:
        raise InputError(f"unknown instance format {fmt!r} (expected 'json' or 'text')")


def read_instance(path: str | Path, fmt: str | None = None) -> SignedWeightedGraph:
    """Read an instance file, sniffing JSON vs text from extension then content.

    Rejects instances whose total absolute weight exceeds MAX_TOTAL_ABS_WEIGHT.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from None
    if fmt is None:
        fmt = "json" if path.suffix == ".json" or text.lstrip().startswith("{") else "text"
    if fmt == "json":
        g = loads_json(text)
    elif fmt == "text":
        g = loads_text(text)
    else:
        raise InputError(f"unknown instance format {fmt!r} (expected 'json' or 'text')")
    if not g.total_abs_weight <= MAX_TOTAL_ABS_WEIGHT:
        raise InputError(
            f"instance {path}: total absolute weight {g.total_abs_weight!r} "
            f"exceeds {MAX_TOTAL_ABS_WEIGHT!r}"
        )
    return g

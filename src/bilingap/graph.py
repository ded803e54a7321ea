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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapacityError, InputError, InvariantViolationError

MAX_VERTICES = 63
MAX_TOTAL_ABS_WEIGHT = 1e300  # a graph above this could overflow its cut and gap sums to inf
# The one float rule outside the LP: values within _SLACK times the total |weight|
# compared (the graph's, or an induced subgraph's) count as equal.
_SLACK = 1e-12
_TINY = float(np.finfo(float).tiny)  # the smallest normal float; a weight below it is refused


@dataclass(frozen=True, order=True)
class VertexSubset:
    """Immutable set of 1-based vertex indices backed by a bitmask."""

    mask: int = 0

    def __post_init__(self) -> None:
        if type(self.mask) is not int or self.mask < 0:  # a numpy integer becomes an int
            object.__setattr__(self, "mask", _int_arg(self.mask, "vertex subset mask", 0))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "VertexSubset":
        m = 0
        for v in members:
            m |= 1 << _int_arg(v, "vertex index", 1, MAX_VERTICES) - 1
        return cls(m)

    @classmethod
    def of(cls, *members: int) -> "VertexSubset":
        return cls.from_members(members)

    @classmethod
    def full(cls, n: int) -> "VertexSubset":
        return cls((1 << _int_arg(n, "vertex count", 0, MAX_VERTICES)) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __contains__(self, v: int) -> bool:
        v = _int_arg(v, "vertex")  # any integer may be asked; a non-integer is an InputError
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


# The one number rule: every integer the library takes is read by _int_arg and
# every real by _real_arg.  The exact-type tests come first: the ABC checks
# cost several times more per call.
def _is_int(v) -> bool:
    """Python or numpy integer, but not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _is_real(v) -> bool:
    """Python or numpy real number, but not a bool."""
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _int_arg(v, what: str, low: int | None = None, cap: int | None = None) -> int:
    """Integer v as an int; InputError below low, CapacityError above cap."""
    if type(v) is not int:
        if not _is_int(v):
            raise InputError(f"{what} must be an integer, got {v!r}")
        v = int(v)
    if low is not None and v < low:
        raise InputError(f"{what} must be >= {low}, got {v}")
    if cap is not None and v > cap:
        raise CapacityError(f"{what} must be <= {cap}, got {v}")
    return v


def _real_arg(v, what: str) -> float:
    """Real v as the float64 equal to it; InputError for a real that float64 does not hold.

    That is a numpy float wider than float64 (from_columns' dtype rule), a
    value between two doubles such as 2**53 + 1 or Fraction(1, 3), or beyond them.
    """
    if type(v) is float:
        return v
    if not _is_real(v):
        raise InputError(f"{what} must be a real number, got {v!r}")
    if isinstance(v, np.integer):
        v = int(v)  # numpy would round it to a double before comparing
    try:
        f = float(v)
    except OverflowError:
        raise InputError(f"{what} {v!r} is beyond the float range") from None
    if f != v and f == f or isinstance(v, np.floating) and v.itemsize > 8:  # nan is a double
        raise InputError(f"{what} {v!r} is not a float64 value")
    return f


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


def _checked_columns(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """int64 (i, j) and float64 weight columns sorted by (i, j), and the weight matrix.

    i and j may be of any integer dtype and w of any integer or float dtype
    that float64 holds; an integer weight must equal a double, as in _real_arg.
    The checks run over whole columns and only tell good columns from bad
    ones: bad columns give None. from_columns then walks its edges with
    _edge_columns to name the first bad one; the tuple constructor's edges
    have already passed that walk.
    """
    m = len(w)
    if w.dtype.kind in "iu":
        f = w.astype(float)
        big = np.abs(f) >= 2.0**53  # every smaller integer is a double
        if w[big].tolist() != f[big].tolist():  # Python's int == float is exact
            return None
        w = f
    try:
        key = np.ravel_multi_index((i, j), (n + 1, n + 1))  # ValueError: an index outside 0..n
    except ValueError:
        return None
    if np.count_nonzero(i) < m or np.count_nonzero(i < j) < m:  # 0 <= i here: i >= 1 and i < j
        return None
    matrix = np.zeros((n + 1, n + 1))
    matrix.put(key, w)  # the upper triangle, as float64
    w = matrix.take(key)
    # a zero weight or a repeated (i, j) fills fewer than m entries; then subnormal, inf, nan
    if np.count_nonzero(matrix) < m or np.count_nonzero(np.isfinite(w) & (abs(w) >= _TINY)) < m:
        return None
    if np.count_nonzero(key[1:] > key[:-1]) < m - 1:  # key order is (i, j) order
        order = np.argsort(key, kind="stable")
        i, j, w = i[order], j[order], w[order]
    i, j = i.astype(np.int64), j.astype(np.int64)
    matrix[j, i] = w
    return i, j, w, matrix


def _edge_columns(n: int, edges: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (i, j) and float64 weight columns of the edges, in input order.

    One pass checks edge by edge, so the first bad edge in input order raises
    its InputError and an edge that is a one-shot iterator is read only once.
    """
    try:
        edges = iter(edges)
    except TypeError:
        raise InputError(f"edge list {edges!r} is not an iterable of triples") from None
    seen = set()
    rows_i, rows_j, rows_w = [], [], []
    for e in edges:
        try:
            i, j, w = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not an (i, j, weight) triple") from None
        if type(i) is not int or type(j) is not int:
            i, j = (_int_arg(v, f"edge {e!r}: vertex index") for v in (i, j))
        if type(w) is not float:
            w = _real_arg(w, f"edge ({i}, {j}) weight")
        if not 1 <= i < j <= n:
            raise InputError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= {n}")
        if w == 0.0:
            raise InputError(f"edge ({i}, {j}) has zero weight; omit absent edges")
        if abs(w) < _TINY:
            raise InputError(f"edge ({i}, {j}) has subnormal weight {w!r}, below {_TINY!r}")
        if not math.isfinite(w):
            raise InputError(f"edge ({i}, {j}) has non-finite weight {w!r}")
        if (i, j) in seen:
            raise InputError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        rows_i.append(i)
        rows_j.append(j)
        rows_w.append(w)
    return np.array(rows_i, np.int64), np.array(rows_j, np.int64), np.array(rows_w, float)


def _column(values, name: str, floating: bool) -> np.ndarray:
    """values as a 1-D array of integers, or also of floats that float64 holds if floating."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # ragged or otherwise not an array
        raise InputError(f"edge column {name} is not an array") from None
    kind = a.dtype.kind
    # a long double is wider than float64, which would round it
    if a.ndim != 1 or not (kind in "iu" or floating and kind == "f" and a.dtype.itemsize <= 8):
        what = "integers or floats no wider than float64" if floating else "integers"
        got = f"dtype {a.dtype}, shape {a.shape}"
        raise InputError(f"edge column {name} must be a 1-D array of {what}, got {got}")
    return a


@dataclass(frozen=True, init=False)
class SignedWeightedGraph:
    """Simple undirected graph with nonzero, finite, normal float edge weights.

    Edges are stored canonically as (i, j, weight) with 1 <= i < j <= n, sorted
    lexicographically.  Construction validates the whole edge list, rejects a
    total |weight| above MAX_TOTAL_ABS_WEIGHT and builds weight_matrix, the
    read-only dense symmetric (n+1, n+1) weight matrix with zero diagonal (row
    and column 0 unused); instances are immutable afterwards.  The graph holds
    its edges as numpy columns; the Python edges tuple is built from them on
    first read, by ==, hash and repr too, and code that walks the columns
    never builds it.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]  # compared, hashed and shown; built by edges below

    def __init__(self, n: int, edges: Iterable = ()) -> None:
        n = _int_arg(n, "vertex count", 1, MAX_VERTICES)
        self._store(n, _checked_columns(n, *_edge_columns(n, edges)))

    @classmethod
    def from_columns(cls, n: int, i, j, w) -> "SignedWeightedGraph":
        """The graph with edges (i[k], j[k], w[k]): the tuple constructor's rules on numpy columns.

        i and j must be 1-D integer arrays and w a 1-D array of integers or of
        floats no wider than float64, all of one length; array-likes are read
        with np.asarray. Any other dtype (bool, object, complex, string, long
        double, ...), shape or length raises InputError, and no value is
        coerced. The columns are checked whole; only when they fail does the
        tuple constructor's per-edge walk run, to raise its error for the
        first bad edge in column order.
        """
        n = _int_arg(n, "vertex count", 1, MAX_VERTICES)
        i, j, w = _column(i, "i", False), _column(j, "j", False), _column(w, "w", True)
        if not len(i) == len(j) == len(w):
            raise InputError(f"edge columns differ in length: {len(i)}, {len(j)}, {len(w)}")
        columns = _checked_columns(n, i, j, w)
        if columns is None:
            _edge_columns(n, zip(i.tolist(), j.tolist(), w.tolist()))  # names the first bad edge
        g = cls.__new__(cls)
        g._store(n, columns)
        return g

    def _store(self, n: int, columns: tuple[np.ndarray, ...] | None) -> None:
        """Set the attributes from _checked_columns' output, which the graph alone holds."""
        if columns is None:  # _edge_columns found no bad edge
            raise InvariantViolationError("the edge column checks rejected a list with no bad edge")
        i, j, w, matrix = columns
        abs_w = np.abs(w)  # at most 1953 terms, each within the cap, cannot overflow
        total = column_sum(abs_w) if abs_w.max(initial=0.0) <= MAX_TOTAL_ABS_WEIGHT else math.inf
        if total > MAX_TOTAL_ABS_WEIGHT:
            raise InputError(f"total absolute weight of the edges exceeds {MAX_TOTAL_ABS_WEIGHT!r}")
        matrix.setflags(write=False)
        vars(self).update(  # what object.__setattr__ does for a frozen dataclass, in one call
            n=n,
            _columns=(i, j, w),  # the edges as numpy columns
            weight_matrix=matrix,
            total_abs_weight=total,  # left-to-right total of |weight| in edge order
        )

    @property
    def vertices(self) -> VertexSubset:
        return VertexSubset.full(self.n)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, weight) per edge in (i, j) order, built from the columns on first read."""
        i, j, w = self._columns
        return tuple(zip(i.tolist(), j.tolist(), w.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self._columns[2])

    @cached_property
    def pair_masks(self) -> tuple[tuple[int, float], ...]:
        """(bitmask of the two endpoints, weight) per edge, in edge order."""
        i, j, w = self._columns
        return tuple(zip(((1 << i - 1) | (1 << j - 1)).tolist(), w.tolist()))

    @cached_property
    def integer_weights(self) -> bool:
        """Whether every edge weight is an integer (true with no edges)."""
        w = self._columns[2]
        return bool(np.array_equal(w, np.trunc(w)))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """adjacency[v] lists (neighbor, weight) pairs, neighbors ascending; index 0 unused."""
        # edges run in (i, j) order, so each list fills in ascending order
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n + 1)]
        for i, j, w in zip(*(c.tolist() for c in self._columns)):
            adj[i].append((j, w))
            adj[j].append((i, w))
        return tuple(map(tuple, adj))

    def weight(self, i: int, j: int) -> float:
        """Weight of edge {i, j}, or 0.0 if absent."""
        i, j = _int_arg(i, "vertex i"), _int_arg(j, "vertex j")
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


def column_sum(values: np.ndarray) -> float:
    """ordered_sum of a float column: np.add.accumulate adds left to right, np.sum pairwise.

    It is the ufunc np.cumsum calls, so the doubles are the same, without cumsum's
    Python-level dispatch.
    """
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


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
# the vertex count in a "# n <count>" comment.  Weights round-trip exactly in
# both formats (shortest-repr float serialization).
# ---------------------------------------------------------------------------


def dumps_json(g: SignedWeightedGraph) -> str:
    return json.dumps({"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]})


def _read_json(text: str, what: str):
    """The one JSON reader for instance and config files: every ValueError json.loads
    raises (malformed JSON, an integer past the digit limit), nesting too deep to
    parse and a repeated object key are each an InputError."""

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"invalid {what} JSON: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except InputError:  # unique_keys' own, already prefixed
        raise
    except ValueError as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid {what} JSON: nested too deep to parse") from None


def loads_json(text: str) -> SignedWeightedGraph:
    data = _read_json(text, "instance")
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError('instance JSON must be an object with "n" and "edges"')
    if not isinstance(data["edges"], list):
        raise InputError('"edges" must be an array of [i, j, weight] triples')
    return SignedWeightedGraph(data["n"], tuple(data["edges"]))


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
        try:  # an integer weight stays an int, for the weight rule to judge as in JSON
            w = int(parts[2]) if _INT_TOKEN.fullmatch(parts[2]) else ascii_float(parts[2])
            edges.append((ascii_int(parts[0]), ascii_int(parts[1]), w))
        except ValueError:
            raise InputError(f"line {lineno}: bad edge line {raw!r}") from None
    if n is None:
        if not edges:
            raise InputError("instance text has no edges and no vertex count marker")
        n = max(max(i, j) for i, j, _ in edges)
    return SignedWeightedGraph(n, tuple(edges))


def write_instance(g: SignedWeightedGraph, path: str | Path) -> None:
    """Write an instance file: JSON for a .json name, text for any other name."""
    path = Path(path)
    path.write_text(dumps_json(g) + "\n" if path.suffix == ".json" else dumps_text(g))


def read_instance(path: str | Path) -> SignedWeightedGraph:
    """Read an instance file: JSON when its first non-blank character is '{' or '[',
    text otherwise, whatever the file is called."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from None
    return loads_json(text) if text.lstrip()[:1] in ("{", "[") else loads_text(text)

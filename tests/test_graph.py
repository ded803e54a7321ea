from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilingap import graph
from bilingap.cli import main
from bilingap.cuts import extreme_cuts, find_large_cut, half_weight_partition
from bilingap.envelopes import EvaluationPoint, dual_certificate, evaluate_bilinear
from bilingap.errors import CapacityError, InputError, InvariantViolationError
from bilingap.graph import (
    MAX_TOTAL_ABS_WEIGHT,
    MAX_VERTICES,
    Cut,
    SignedWeightedGraph,
    VertexSubset,
    _is_int,
    _is_real,
    ascii_float,
    ascii_int,
    cross_weight,
    cut_weight,
    dumps_json,
    dumps_text,
    gamma_abs_weight,
    gamma_weight,
    loads_json,
    loads_text,
    read_instance,
    write_instance,
)
from bilingap.hullcheck import check_hull_exact
from bilingap.instances import (
    hadamard_instance,
    random_pm1_bipartite,
    random_pm1_complete,
    random_signed_graph,
    signed_cycle,
    signed_path,
    uniform_real_complete,
)

from conftest import TRIANGLE, assert_same_graph, random_int_graph, subset_weights_reference

MIXED = SignedWeightedGraph(3, ((1, 2, 5.0), (1, 3, -2.0), (2, 3, 1.0)))


def hadamard4():
    from bilingap.instances import hadamard_instance

    return hadamard_instance(4)


class TestVertexSubset:
    def test_members_round_trip(self):
        s = VertexSubset.from_members([3, 1, 5])
        assert sorted(s.members) == [1, 3, 5]
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert list(iter(s)) == [1, 3, 5]

    def test_membership_takes_any_integer(self):
        s = VertexSubset(0b101)
        assert [v in s for v in (0, -1, 1, 2, 3, np.int64(3), 10**30)] == [
            False, False, True, False, True, True, False
        ]

    @pytest.mark.parametrize("v", [True, 1.0, "1", None], ids=["True", "1.0", "str", "None"])
    def test_membership_of_a_non_integer_is_an_input_error(self, v):
        with pytest.raises(InputError, match="vertex must be an integer"):
            v in VertexSubset(3)

    def test_full(self):
        assert sorted(VertexSubset.full(4).members) == [1, 2, 3, 4]
        assert VertexSubset.full(0).mask == 0

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None, np.float64(3.0)])
    def test_full_rejects_a_non_integer_count(self, n):
        with pytest.raises(InputError, match="vertex count must be an integer"):
            VertexSubset.full(n)

    def test_full_takes_a_numpy_count(self):
        full = VertexSubset.full(np.int64(3))
        assert type(full.mask) is int and full.mask == 0b111

    def test_set_algebra(self):
        a = VertexSubset.from_members([1, 2])
        b = VertexSubset.from_members([2, 3])
        assert sorted(a.union(b).members) == [1, 2, 3]
        assert sorted(a.intersection(b).members) == [2]
        assert sorted(a.difference(b).members) == [1]
        assert a.issubset(VertexSubset.full(3))
        assert not a.issubset(b)

    def test_bounds(self):
        with pytest.raises(InputError):
            VertexSubset.from_members([0])
        with pytest.raises(CapacityError):
            VertexSubset.from_members([64])
        with pytest.raises(CapacityError):
            VertexSubset.full(64)
        with pytest.raises(InputError, match="vertex count must be >= 0"):
            VertexSubset.full(-1)

    @pytest.mark.parametrize("member", [1.7, 2.0, True, "3", None])
    def test_rejects_non_integer_members(self, member):
        with pytest.raises(InputError):
            VertexSubset.from_members([1, member])

    def test_accepts_numpy_integers(self):
        assert VertexSubset.from_members([np.int64(3), np.uint8(1)]).mask == 0b101
        mask = VertexSubset(np.int64(5)).mask
        assert type(mask) is int and mask == 0b101

    @pytest.mark.parametrize("mask", [1.5, 2.0, True, "3", None, np.float64(3.0)])
    def test_rejects_a_non_integer_mask(self, mask):
        with pytest.raises(InputError, match="mask must be an integer"):
            VertexSubset(mask)

    def test_empty_is_falsy(self):
        assert not VertexSubset.from_members([])
        assert VertexSubset.from_members([1])


class TestGraphConstruction:
    def test_canonical_sort(self):
        g = SignedWeightedGraph(3, ((2, 3, 1.0), (1, 2, 2.0)))
        assert g.edges == ((1, 2, 2.0), (2, 3, 1.0))

    def test_rejects_reversed_edge(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(3, ((2, 1, 1.0),))

    def test_rejects_loop(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(3, ((2, 2, 1.0),))

    def test_rejects_zero_weight(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(2, ((1, 2, 0.0),))

    def test_rejects_a_subnormal_weight_and_takes_the_smallest_normal_one(self):
        for w in (5e-324, -math.nextafter(TINY, 0.0)):
            with pytest.raises(InputError, match="subnormal weight"):
                SignedWeightedGraph(2, ((1, 2, w),))
            with pytest.raises(InputError, match="subnormal weight"):
                SignedWeightedGraph.from_columns(2, [1], [2], [w])
        for w in (TINY, -TINY):
            assert SignedWeightedGraph(2, ((1, 2, w),)).total_abs_weight == TINY
            assert SignedWeightedGraph.from_columns(2, [1], [2], [w]).total_abs_weight == TINY

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(2, ((1, 2, math.inf),))

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(3, ((1, 2, 1.0), (1, 2, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(2, ((1, 3, 1.0),))

    @pytest.mark.parametrize("i", [0, -1, np.int64(0)])
    def test_rejects_a_vertex_below_one(self, i):
        with pytest.raises(InputError, match=rf"edge \({i}, 2\) must satisfy 1 <= i < j <= 3"):
            SignedWeightedGraph(3, ((1, 3, 1.0), (i, 2, 1.0)))

    @pytest.mark.parametrize(
        "edge",
        [(1.7, 2, 1.0), (1, 2.0, 1.0), (True, 2, 1.0), (1, "2", 1.0), (1, 3, True),
         (1, 3, np.bool_(True)), (1, 3, "1.5"), (1, 3, None), (1, 3, 10**400)],
    )
    def test_rejects_coercible_edge_fields(self, edge):
        with pytest.raises(InputError):
            SignedWeightedGraph(3, (edge,))

    def test_rejects_bool_vertex_count(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(True, ())

    @pytest.mark.parametrize("n", [3.0, "3", None, np.float64(3.0), np.bool_(True), 0])
    def test_rejects_a_non_integer_vertex_count(self, n):
        with pytest.raises(InputError):
            SignedWeightedGraph(n, ())

    def test_numpy_vertex_count_becomes_int(self):
        g = SignedWeightedGraph(np.int64(3), ((1, 3, 1.0),))
        assert type(g.n) is int and g.n == 3

    def test_accepts_numpy_integers_and_floats(self):
        g = SignedWeightedGraph(3, ((np.int64(1), np.int32(3), np.float32(0.5)), (1, 2, 2)))
        assert g.edges == ((1, 2, 2.0), (1, 3, 0.5))
        assert all(type(v) is int for i, j, _ in g.edges for v in (i, j))
        assert all(type(w) is float for _, _, w in g.edges)

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            SignedWeightedGraph(64, ())
        assert SignedWeightedGraph(63, ()).n == 63

    def test_accessors(self):
        assert MIXED.num_edges == 3
        assert MIXED.total_abs_weight == 8.0
        assert MIXED.weight(1, 3) == -2.0
        assert MIXED.weight(3, 1) == -2.0
        assert MIXED.weight_matrix[2, 3] == 1.0
        assert MIXED.adjacency[2] == ((1, 5.0), (3, 1.0))
        with pytest.raises(InputError):
            MIXED.weight(1, 1)
        assert MIXED.weight(np.int64(1), np.uint8(3)) == -2.0

    @pytest.mark.parametrize("i", [True, 1.0, "1", None])
    def test_weight_takes_integer_vertices_only(self, i):
        with pytest.raises(InputError, match=f"vertex i must be an integer, got {i!r}"):
            MIXED.weight(i, 2)

    def test_weight_matrix_immutable(self):
        with pytest.raises(ValueError):
            MIXED.weight_matrix[1, 2] = 9.0


TINY = sys.float_info.min  # the smallest normal float


def _construction_reference(n: int, edges) -> dict:
    """The per-edge construction loop that the column checks replace, with its derived fields."""
    canon = []
    seen = set()
    for e in edges:
        try:
            i, j, w = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not an (i, j, weight) triple") from None
        if not (_is_int(i) and _is_int(j)):
            v = j if _is_int(i) else i
            raise InputError(f"edge {e!r}: vertex index must be an integer, got {v!r}")
        if not _is_real(w):
            raise InputError(f"edge ({i}, {j}) weight must be a real number, got {w!r}")
        try:
            i, j, w = int(i), int(j), float(w)
        except OverflowError:
            raise InputError(f"edge ({i}, {j}) weight {w!r} is beyond the float range") from None
        if not 1 <= i < j <= n:
            raise InputError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= {n}")
        if w == 0.0:
            raise InputError(f"edge ({i}, {j}) has zero weight; omit absent edges")
        if abs(w) < sys.float_info.min:
            raise InputError(f"edge ({i}, {j}) has subnormal weight {w!r}, below {TINY!r}")
        if not math.isfinite(w):
            raise InputError(f"edge ({i}, {j}) has non-finite weight {w!r}")
        if (i, j) in seen:
            raise InputError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        canon.append((i, j, w))
    canon.sort(key=lambda e: (e[0], e[1]))
    matrix = np.zeros((n + 1, n + 1))
    adj = [[] for _ in range(n + 1)]
    total = 0.0
    for i, j, w in canon:
        matrix[i, j] = matrix[j, i] = w
        adj[i].append((j, w))
        adj[j].append((i, w))
        total += abs(w)
    if total > MAX_TOTAL_ABS_WEIGHT:
        raise InputError(f"total absolute weight of the edges exceeds {MAX_TOTAL_ABS_WEIGHT!r}")
    return {
        "edges": tuple(canon),
        "weight_matrix": matrix,
        "pair_masks": tuple(((1 << i - 1) | (1 << j - 1), w) for i, j, w in canon),
        "adjacency": tuple(tuple(sorted(a)) for a in adj),
        "total_abs_weight": total,
    }


def _random_edge_list(rng: random.Random) -> tuple[int, list]:
    """Shuffled edges on 1..n, n <= 63, as tuples or lists of Python and numpy numbers.

    One list in four may draw weights up to 1e308, which mostly puts its total
    above MAX_TOTAL_ABS_WEIGHT.
    """
    n = rng.randint(1, 63)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    count = len(pairs) if rng.random() < 0.2 else rng.randint(0, min(len(pairs), 300))
    huge = 1e308 if rng.random() < 0.25 else 1.0
    edges = []
    for i, j in rng.sample(pairs, count):
        w = rng.choice(
            (rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)), rng.uniform(-1.0, 1.0) * huge,
             rng.choice((-3, 2, 7)), 10.0 ** rng.randint(-300, 300))
        ) or 0.5
        if rng.random() < 0.2:
            i, j = np.int64(i), rng.choice((np.int32, np.int64, int))(j)
        if rng.random() < 0.2:
            w = rng.choice((np.float64, np.float32 if 1e-30 < abs(w) < 1e30 else float, float))(w)
        edges.append(rng.choice((tuple, list))((i, j, w)))
    return n, edges


# Faults for one edge on vertex pair (i, j) of a graph on n vertices; "duplicate"
# repeats the pair of the graph's first edge.
_FAULTS = {
    "not a triple": lambda i, j, n: (i, j),
    "not iterable": lambda i, j, n: 7,
    "float index": lambda i, j, n: (float(i), j, 1.0),
    "bool index": lambda i, j, n: (True, j, 1.0),
    "string weight": lambda i, j, n: (i, j, "1.5"),
    "numpy bool weight": lambda i, j, n: (i, j, np.bool_(True)),
    "huge weight": lambda i, j, n: (i, j, 10**400),
    "reversed": lambda i, j, n: (j, i, 1.0),
    "beyond n": lambda i, j, n: (i, n + 1, 1.0),
    "huge index": lambda i, j, n: (i, 2**70, 1.0),
    "zero": lambda i, j, n: (i, j, 0.0),
    "subnormal": lambda i, j, n: (i, j, -5e-324),
    "largest subnormal": lambda i, j, n: (i, j, np.float64(math.nextafter(TINY, 0.0))),
    "infinite": lambda i, j, n: (i, j, -math.inf),
    "nan": lambda i, j, n: (np.int64(i), j, np.float64(math.nan)),
    "reversed and zero": lambda i, j, n: (j, i, 0.0),
    "float index and zero": lambda i, j, n: (float(i), j, 0.0),
    "duplicate": None,
}


class TestColumnConstruction:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_edge_loop(self, seed):
        rng = random.Random(seed)
        capped = 0
        for _ in range(40):
            n, edges = _random_edge_list(rng)
            try:
                ref = _construction_reference(n, edges)
            except InputError as exc:  # the total is above MAX_TOTAL_ABS_WEIGHT
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    SignedWeightedGraph(n, tuple(edges))
                capped += 1
                continue
            g = SignedWeightedGraph(n, tuple(edges))
            assert g.edges == ref["edges"]
            assert [type(v) for e in g.edges for v in e] == [int, int, float] * g.num_edges
            assert g.weight_matrix.tobytes() == ref["weight_matrix"].tobytes()
            assert g.pair_masks == ref["pair_masks"]
            assert g.adjacency == ref["adjacency"]
            assert g.total_abs_weight.hex() == ref["total_abs_weight"].hex()
        assert 0 < capped < 40

    @pytest.mark.parametrize("edges", [5, None, 2.5])
    def test_a_non_iterable_edge_list_is_an_input_error(self, edges):
        with pytest.raises(InputError, match="is not an iterable of triples"):
            SignedWeightedGraph(3, edges)

    @pytest.mark.parametrize("first", list(_FAULTS))
    def test_reports_the_first_bad_edge(self, first):
        rng = random.Random(first)
        n = 6
        pairs = rng.sample([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], 12)
        valid = [(i, j, rng.choice((-1.0, 0.5, 2.0))) for i, j in pairs]

        def fault(kind, k):
            if kind == "duplicate":
                return (*pairs[0], 3.0)
            return _FAULTS[kind](*pairs[k], n)

        for second in _FAULTS:
            p = rng.randint(1, 5)
            q = rng.randint(p + 1, len(valid) - 1)
            edges = list(valid)
            edges[p], edges[q] = fault(first, p), fault(second, q)
            with pytest.raises(InputError) as want:
                _construction_reference(n, edges)
            with pytest.raises(InputError) as got:
                SignedWeightedGraph(n, tuple(edges))
            assert str(got.value) == str(want.value), (first, second)

    def test_a_turned_down_list_with_no_bad_edge_exits_3(self, monkeypatch, tmp_path, capsys):
        """Column checks that reject a good list leave the walk nothing to name: exit 3."""
        path = tmp_path / "mixed.json"
        write_instance(MIXED, path)
        monkeypatch.setattr(graph, "_checked_columns", lambda n, i, j, w: None)  # every list "bad"
        with pytest.raises(InvariantViolationError, match="no bad edge"):
            SignedWeightedGraph(3, MIXED.edges)
        assert main(["hullcheck", "--instance", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation:") and "Traceback" not in err

    def test_a_one_shot_iterator_edge_does_not_hide_the_first_bad_edge(self):
        with pytest.raises(InputError, match=re.escape("edge (1, 3) has zero weight")):
            SignedWeightedGraph(3, (iter((1, 2, 1.0)), (1, 3, 0.0)))
        with pytest.raises(InputError, match=re.escape("edge (2, 1) must satisfy")):
            SignedWeightedGraph(3, ((1, 3, 1.0), iter((2, 1, 1.0))))

    def test_one_shot_iterator_edges_build(self):
        g = SignedWeightedGraph(3, (iter((2, 3, 1.0)), (x for x in (1, 2, 5.0)), [1, 3, -2.0]))
        assert_same_graph(g, MIXED)
        assert_same_graph(SignedWeightedGraph(3, iter(MIXED.edges)), MIXED)


def _columns_of(edges, index_dtype, weight_dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    i, j, w = zip(*edges) if edges else ((), (), ())
    return np.array(i, index_dtype), np.array(j, index_dtype), np.array(w, weight_dtype)


class TestFromColumns:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_tuple_constructor(self, seed):
        """Unsorted columns of several dtypes give the tuple-built graph bit for bit."""
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(1, 63)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 200)))
            ints = rng.random() < 0.3
            edges = [(i, j, rng.choice((-3, 1, 2)) if ints else rng.uniform(-1.0, 1.0) or 0.5)
                     for i, j in picked]
            want = SignedWeightedGraph(n, tuple(edges))
            index_dtype = rng.choice((np.int64, np.int32, np.int8, np.uint8, np.uint64))
            weight_dtype = rng.choice((np.int64, np.int16, np.float64)) if ints else np.float64
            i, j, w = _columns_of(edges, index_dtype, weight_dtype)
            got = SignedWeightedGraph.from_columns(np.int64(n) if ints else n, i, j, w)
            assert_same_graph(got, want)
            assert got == want
            assert [c.dtype for c in got._columns] == [np.int64, np.int64, np.float64]
            ref = _construction_reference(n, edges)
            assert got.edges == ref["edges"]
            assert got.weight_matrix.tobytes() == ref["weight_matrix"].tobytes()

    def test_takes_array_likes_and_keeps_its_own_copy(self):
        i, j, w = np.array([2, 1, 1]), np.array([3, 3, 2]), np.array([1.0, -2.0, 5.0])
        g = SignedWeightedGraph.from_columns(3, i, j, w)
        i[:], j[:], w[:] = 1, 2, 9.0
        assert_same_graph(g, MIXED)
        from_lists = SignedWeightedGraph.from_columns(3, [1, 1, 2], (2, 3, 3), [5, -2, 1])
        assert_same_graph(from_lists, MIXED)

    def test_float32_and_float16_weights_widen_exactly(self):
        w = np.array([0.1, -2.5e-3, 7.0], np.float32)
        g = SignedWeightedGraph.from_columns(3, [1, 1, 2], [2, 3, 3], w)
        assert [e[2] for e in g.edges] == [float(x) for x in w]
        g16 = SignedWeightedGraph.from_columns(3, [1], [2], np.array([0.1], np.float16))
        assert g16.edges == ((1, 2, float(np.float16(0.1))),)

    def test_no_edges(self):
        empty = np.empty(0, np.int64)
        g = SignedWeightedGraph.from_columns(4, empty, empty, np.empty(0))
        assert_same_graph(g, SignedWeightedGraph(4))

    @pytest.mark.parametrize(
        "i, j, w, message",
        [
            ([1], [2], [True], "column w must be a 1-D array of integers or floats no wider "
                               "than float64, got dtype bool"),
            ([True], [2], [1.0], "column i must be a 1-D array of integers, got dtype bool"),
            ([1], np.array([2], object), [1.0], "column j must be a 1-D array of integers, got "
                                                "dtype object"),
            ([1], [2], [1 + 0j], "got dtype complex128"),
            ([1], [2], ["1.5"], "got dtype <U3"),
            (["1"], [2], [1.0], "got dtype <U1"),
            ([1.0], [2], [1.0], "column i must be a 1-D array of integers, got dtype float64"),
            ([1], [2], np.array(["2020-01-01"], "datetime64[D]"), "got dtype datetime64[D]"),
            ([[1]], [[2]], [1.0], "got dtype int64, shape (1, 1)"),
            (1, 2, 1.0, "got dtype int64, shape ()"),
            ([1], [2, 3], [1.0, 1.0], "edge columns differ in length: 1, 2, 2"),
            ([1, 2], [2, 3], [1.0], "edge columns differ in length: 2, 2, 1"),
            ([[1], [1, 2]], [2], [1.0], "edge column i is not an array"),
        ],
    )
    def test_rejects_a_column_of_the_wrong_kind(self, i, j, w, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SignedWeightedGraph.from_columns(3, i, j, w)

    @pytest.mark.parametrize("n", [0, 64, True, 3.0, "3"])
    def test_rejects_a_bad_vertex_count_as_the_tuple_constructor_does(self, n):
        with pytest.raises((InputError, CapacityError)) as want:
            SignedWeightedGraph(n, ((1, 2, 1.0),))
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            SignedWeightedGraph.from_columns(n, [1], [2], [1.0])

    # vertex pair and weight of a bad edge on n = 6 vertices
    BAD = {
        "zero": (2, 4, 0.0),
        "subnormal": (2, 4, 5e-324),
        "largest subnormal": (2, 4, -math.nextafter(TINY, 0.0)),
        "nan": (2, 4, math.nan),
        "inf": (2, 4, -math.inf),
        "i == j": (3, 3, 1.0),
        "i > j": (5, 2, 1.0),
        "i = 0": (0, 2, 1.0),
        "j > n": (2, 7, 1.0),
        "negative": (-1, 2, 1.0),
        "int64 max": (1, 2**63 - 1, 1.0),
        "int64 min": (-(2**63), 2, 1.0),
        "duplicate": (1, 2, 3.0),
    }

    @pytest.mark.parametrize("first", list(BAD))
    def test_names_the_first_bad_edge_as_the_tuple_constructor_does(self, first):
        rng = random.Random(first)
        valid = [(1, 2, 1.0), (1, 5, -1.0), (2, 3, 0.5), (3, 6, 2.0), (4, 5, -0.25), (5, 6, 1.0)]
        for second in self.BAD:
            edges = list(valid)
            p = rng.randint(1, 3)
            edges.insert(p, self.BAD[first])
            edges.insert(rng.randint(p + 1, len(edges)), self.BAD[second])
            with pytest.raises(InputError) as want:
                SignedWeightedGraph(6, tuple(edges))
            with pytest.raises(InputError) as got:
                SignedWeightedGraph.from_columns(6, *_columns_of(edges, np.int64, np.float64))
            assert str(got.value) == str(want.value), (first, second)
            assert str(want.value) == str(_raises(lambda: _construction_reference(6, edges)))

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int8])
    def test_a_bad_index_is_named_as_given_in_its_dtype(self, dtype):
        big = np.iinfo(dtype).max
        with pytest.raises(InputError, match=re.escape(f"edge (1, {big}) must satisfy")):
            SignedWeightedGraph.from_columns(
                3, np.array([1, 1], dtype), np.array([2, big], dtype), [1.0, 1.0]
            )

    def test_rejects_long_double_weights(self):
        w = np.array([1.0, 2.0], np.longdouble)
        if w.dtype.itemsize <= 8:
            pytest.skip("long double is float64 on this platform")
        with pytest.raises(InputError, match="no wider than float64, got dtype float"):
            SignedWeightedGraph.from_columns(3, [1, 1], [2, 3], w)


WIDE_LONG_DOUBLE = np.dtype(np.longdouble).itemsize > 8  # float64 on some platforms

# (value, the double every entry point reads it as, or None where each refuses it)
VALUE_TABLE = [
    (2**53, 2.0**53),
    (2**53 + 1, None),
    (2**60, 2.0**60),
    (2**63 - 1, None),
    (-(2**63), -(2.0**63)),
    (np.uint64(2**64 - 1), None),
    (np.int64(2**53 + 1), None),
    (Fraction(1, 2), 0.5),
    (Fraction(1, 3), None),
    (np.longdouble(0.5), None if WIDE_LONG_DOUBLE else 0.5),
    (np.longdouble(1) / 3, None if WIDE_LONG_DOUBLE else 1 / 3),
    (np.float32(0.1), float(np.float32(0.1))),
    (True, None),
    ("1", None),
    (10**400, None),
]
VALUE_IDS = [repr(v)[:40] for v, _ in VALUE_TABLE]


class TestValueTable:
    """Each entry point reads a real number as the double equal to it, or refuses it."""

    @pytest.mark.parametrize("value, want", VALUE_TABLE, ids=VALUE_IDS)
    def test_both_constructors_store_the_same_double(self, value, want):
        column = np.asarray([value])
        from_column = lambda: SignedWeightedGraph.from_columns(2, [1], [2], column)
        if want is None:
            with pytest.raises(InputError, match=re.escape("edge (1, 2) weight")) as refused:
                SignedWeightedGraph(2, ((1, 2, value),))
        else:
            assert SignedWeightedGraph(2, ((1, 2, value),)).edges == ((1, 2, want),)
        if not (column.dtype.kind in "iu" or column.dtype.kind == "f" and column.itemsize <= 8):
            with pytest.raises(InputError, match="edge column w must be a 1-D array"):
                from_column()  # a Fraction, long double, bool, string or huge int column
        elif want is None:  # a column it takes is walked edge by edge: the same error
            with pytest.raises(InputError, match=re.escape(str(refused.value)) + "$"):
                from_column()
        else:
            assert from_column().edges == ((1, 2, want),)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_columns_at_the_dtype_limits(self, dtype):
        info = np.iinfo(dtype)
        doubles = [int(info.max) + 1 - 2**11, 2**53, 2**62] + [int(info.min)] * (dtype is np.int64)
        w = np.array(doubles, dtype)
        g = SignedWeightedGraph.from_columns(5, [1] * len(w), range(2, len(w) + 2), w)
        assert [e[2] for e in g.edges] == [float(v) for v in doubles]
        for bad in (info.max, 2**53 + 1):  # max is 2**63 - 1 or 2**64 - 1: no double
            with pytest.raises(InputError, match=re.escape(f"edge (1, 3) weight {bad} is not")):
                SignedWeightedGraph.from_columns(3, [1, 1], [2, 3], np.array([1, bad], dtype))

    @pytest.mark.parametrize("value, want", VALUE_TABLE, ids=VALUE_IDS)
    def test_coordinates_follow_the_rule_in_range(self, value, want):
        if want is None or not 0 <= want <= 1:
            with pytest.raises(InputError, match="coordinate 1"):
                EvaluationPoint.of(value)
        else:
            assert EvaluationPoint.of(value).coords == (want,)

    @pytest.mark.parametrize("value, want", VALUE_TABLE, ids=VALUE_IDS)
    def test_mu_follows_the_rule(self, value, want):
        # over the empty support any mu of the right sign is a valid certificate
        side = "upper_envelope" if want is not None and want < 0 else "lower_envelope"
        if want is None:
            with pytest.raises(InputError, match="^mu "):
                dual_certificate(TRIANGLE, VertexSubset(), value, side)
        else:
            assert dual_certificate(TRIANGLE, VertexSubset(), value, side).y == -0.5 * want


class TestLazyEdges:
    """The edges tuple is built from the columns on first read; until then nothing holds it."""

    def test_the_searches_leave_the_edge_tuple_unbuilt(self):
        graphs = (
            uniform_real_complete(20, seed=3),
            random_pm1_complete(12, seed=5),
            random_signed_graph(9, seed=2),
            signed_cycle(5, (1, -1, 1, 1, -1)),
            SignedWeightedGraph(6, ((5, 6, 2.0), (1, 3, -1.0))),
        )
        for g in graphs:
            find_large_cut(g, rng_seed=0)
            find_large_cut(g, rng_seed=1, trial_budget=1)
            half_weight_partition(g)
            check_hull_exact(g)
            extreme_cuts(g, g.vertices)
            assert "edges" not in vars(g), g.n
        g = graphs[0]
        assert g.edges is g.edges and "edges" in vars(g)  # built once, then held

    def test_tuple_and_column_graphs_read_the_same(self):
        # unsorted, with int weights: both constructors read back the canonical tuple
        edges = ((3, 4, 2), (1, 4, 7), (1, 2, -1))
        want = ((1, 2, -1.0), (1, 4, 7.0), (3, 4, 2.0))
        by_tuple = SignedWeightedGraph(4, edges)

        def by_columns():
            return SignedWeightedGraph.from_columns(4, [3, 1, 1], [4, 4, 2], [2, 7, -1])

        # hash, == and repr each build the tuple of a graph that has not read it yet
        assert hash(by_columns()) == hash(by_tuple)
        assert by_columns() == by_tuple
        assert repr(by_columns()) == repr(by_tuple) == f"SignedWeightedGraph(n=4, edges={want!r})"
        by_columns = by_columns()
        for g in (by_tuple, by_columns):
            assert g.edges == want
            assert [type(v) for e in g.edges for v in e] == [int, int, float] * 3
        assert by_columns != SignedWeightedGraph(5, want)
        assert by_columns != SignedWeightedGraph(4, want[:2])
        assert SignedWeightedGraph(n=4, edges=iter(edges)) == by_columns
        assert dataclasses.replace(by_columns, n=5) == SignedWeightedGraph(5, want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_columns.edges = ()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SignedWeightedGraph(5),
            lambda: SignedWeightedGraph(4, ((3, 4, 2), (1, 2, -1))),
            lambda: random_pm1_complete(9, seed=1),
            lambda: hadamard_instance(7),
            lambda: random_pm1_bipartite(3, seed=2),
            lambda: uniform_real_complete(8, seed=4),
            lambda: random_signed_graph(10, seed=6),
            lambda: signed_cycle(4, (1, -1, 1, 1)),
            lambda: signed_path(5, (-1, 1, 1, -1)),
        ],
        ids=["no_edges", "tuple", "pm1_complete", "hadamard", "pm1_bipartite", "uniform_real",
             "random_signed", "cycle", "path"],
    )
    def test_num_edges_counts_the_edge_tuple(self, build):
        g = build()
        assert g.num_edges == len(g.edges)


def _raises(build) -> Exception:
    with pytest.raises(InputError) as caught:
        build()
    return caught.value


class TestCutType:
    def test_side_must_be_subset(self):
        with pytest.raises(InputError):
            Cut(
                ground_set=VertexSubset.from_members([1, 2]),
                side=VertexSubset.from_members([3]),
                weight=0.0,
            )


class TestGammaAndCut:
    def test_gamma_triangle_full(self):
        assert gamma_weight(TRIANGLE, VertexSubset.full(3)) == 3.0

    def test_gamma_singleton(self):
        assert gamma_weight(TRIANGLE, VertexSubset.from_members([1])) == 0.0

    def test_gamma_mixed_pair(self):
        assert gamma_weight(MIXED, VertexSubset.from_members([1, 2])) == 5.0

    def test_gamma_abs_mixed_full(self):
        assert gamma_abs_weight(MIXED, VertexSubset.full(3)) == 8.0

    def test_gamma_abs_empty(self):
        assert gamma_abs_weight(MIXED, VertexSubset.from_members([])) == 0.0

    def test_gamma_abs_hadamard4(self):
        assert gamma_abs_weight(hadamard4(), VertexSubset.full(4)) == 6.0

    def test_cut_triangle(self):
        full = VertexSubset.full(3)
        assert cut_weight(TRIANGLE, full, VertexSubset.from_members([1])) == 2.0
        assert cut_weight(TRIANGLE, full, VertexSubset.from_members([])) == 0.0

    def test_cut_hadamard4(self):
        h = hadamard4()
        assert cut_weight(h, VertexSubset.full(4), VertexSubset.from_members([4])) == -1.0

    def test_cut_requires_nested_subsets(self):
        with pytest.raises(InputError):
            cut_weight(TRIANGLE, VertexSubset.from_members([1, 2]), VertexSubset.from_members([3]))

    def test_subset_out_of_range(self):
        with pytest.raises(InputError):
            gamma_weight(TRIANGLE, VertexSubset.from_members([4]))

    def test_cross_weight(self):
        a = VertexSubset.from_members([1])
        b = VertexSubset.from_members([2, 3])
        assert cross_weight(MIXED, a, b) == 3.0
        with pytest.raises(InputError):
            cross_weight(MIXED, a, VertexSubset.from_members([1, 2]))


@st.composite
def graph_and_split(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 9))
    g = random_int_graph(seed, n)
    x_mask = draw(st.integers(0, (1 << n) - 1))
    u_mask = draw(st.integers(0, (1 << n) - 1)) & x_mask
    return g, VertexSubset(x_mask), VertexSubset(u_mask)


class TestAlgebraicProperties:
    @given(graph_and_split())
    @settings(max_examples=120, deadline=None)
    def test_cut_symmetry(self, gxu):
        g, x, u = gxu
        assert cut_weight(g, x, u) == pytest.approx(
            cut_weight(g, x, x.difference(u)), abs=1e-12
        )

    @given(graph_and_split())
    @settings(max_examples=120, deadline=None)
    def test_gamma_decomposition(self, gxu):
        g, x, u = gxu
        lhs = gamma_weight(g, x)
        rhs = gamma_weight(g, u) + gamma_weight(g, x.difference(u)) + cut_weight(g, x, u)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(graph_and_split())
    @settings(max_examples=120, deadline=None)
    def test_cut_bounded_by_abs_gamma(self, gxu):
        g, x, u = gxu
        assert abs(cut_weight(g, x, u)) <= gamma_abs_weight(g, x) + 1e-12


@st.composite
def graph_and_subsets(draw):
    """A +/-1, uniform-real, sparse or edgeless graph on 1..63 vertices, x, u inside x,
    and disjoint a, b."""
    n = draw(st.one_of(st.just(MAX_VERTICES), st.integers(1, MAX_VERTICES)))
    family = draw(st.sampled_from(["pm1", "real", "sparse", "edgeless"]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if family == "edgeless" or (family == "sparse" and rnd.random() >= 0.1):
                continue
            w = rnd.choice((1.0, -1.0)) if family == "pm1" else rnd.uniform(-1.0, 1.0)
            edges.append((i, j, w or 0.5))
    full = (1 << n) - 1
    x = draw(st.integers(0, full))
    u = draw(st.integers(0, full)) & x
    a = draw(st.integers(0, full))
    b = draw(st.integers(0, full)) & ~a
    return SignedWeightedGraph(n, tuple(edges)), *map(VertexSubset, (x, u, a, b))


class TestPairMasks:
    @given(graph_and_subsets())
    @settings(max_examples=300, deadline=None)
    def test_weights_equal_the_per_edge_loops(self, case):
        g, x, u, a, b = case
        got = [gamma_weight(g, x), gamma_abs_weight(g, x), cut_weight(g, x, u)]
        got.append(cross_weight(g, a, b))
        assert [v.hex() for v in got] == [v.hex() for v in subset_weights_reference(g, x, u, a, b)]

    def test_pair_masks(self):
        assert MIXED.pair_masks == ((0b011, 5.0), (0b101, -2.0), (0b110, 1.0))
        g = SignedWeightedGraph(63, ((1, 63, 2.0),))
        assert g.pair_masks == ((1 | 1 << 62, 2.0),)

    @pytest.mark.parametrize(
        "weights, integer",
        [
            ((), True),
            ((5, -2.0, 1e20), True),
            ((5.0, -2.5, 1.0), False),
            ((1.0, 1.0, 2**-30), False),
        ],
    )
    def test_integer_weights(self, weights, integer):
        g = SignedWeightedGraph(3, tuple(zip((1, 1, 2), (2, 3, 3), weights)))
        assert g.integer_weights is integer
        assert SignedWeightedGraph.from_columns(3, *g._columns).integer_weights is integer

    @pytest.mark.parametrize("mask, members", [(0b1001, [1, 4]), (1 << 63 | 1, [1, 64])])
    def test_subset_beyond_n_rejected(self, mask, members):
        message = f"subset {members} is not contained in the vertex set 1..3"
        for weight in (gamma_weight, gamma_abs_weight):
            with pytest.raises(InputError, match=re.escape(message)):
                weight(TRIANGLE, VertexSubset(mask))
        with pytest.raises(InputError, match=re.escape(message)):
            cut_weight(TRIANGLE, VertexSubset(mask), VertexSubset())
        with pytest.raises(InputError, match=re.escape(message)):
            cross_weight(TRIANGLE, VertexSubset(), VertexSubset(mask))

    def test_totals_run_left_to_right(self):
        # a compensated sum (sum() from Python 3.12 on) would give 1.0
        g = SignedWeightedGraph(3, ((1, 2, 1e16), (1, 3, 1.0), (2, 3, -1e16)))
        assert gamma_weight(g, VertexSubset.full(3)) == 0.0
        assert evaluate_bilinear(g, EvaluationPoint.of(1.0, 1.0, 1.0)) == 0.0


class TestSerialization:
    WEIGHTS = (0.1, -2.5e-7, 1.0 / 3.0, 5.0, -17.0)

    def _sample(self):
        edges = tuple((1, k + 2, w) for k, w in enumerate(self.WEIGHTS))
        return SignedWeightedGraph(8, edges)  # vertices 7,8 isolated

    def test_json_round_trip_bit_exact(self):
        g = self._sample()
        g2 = loads_json(dumps_json(g))
        assert g2.n == g.n and g2.edges == g.edges

    def test_text_round_trip_bit_exact(self):
        g = self._sample()
        g2 = loads_text(dumps_text(g))
        assert g2.n == g.n and g2.edges == g.edges

    def test_text_accepts_comments_and_blanks(self):
        text = "# instance\n\n1 2 0.5   # inline comment\n2 3 -1\n"
        g = loads_text(text)
        assert g.n == 3
        assert g.edges == ((1, 2, 0.5), (2, 3, -1.0))

    def test_text_infers_n_from_endpoints(self):
        g = loads_text("1 4 2.0\n")
        assert g.n == 4

    def test_text_header_variants(self):
        assert loads_text("n 5\n1 2 1.0\n").n == 5
        assert loads_text("# n 5\n1 2 1.0\n").n == 5

    def test_text_rejects_garbage(self):
        with pytest.raises(InputError):
            loads_text("1 2\n")
        with pytest.raises(InputError):
            loads_text("1 2 x\n")
        with pytest.raises(InputError):
            loads_text("# nothing\n")

    # each text parsed at exit 0 into coerced values while int()/float() read the tokens
    @pytest.mark.parametrize(
        "text",
        [
            "# n 13\n1_2 13 1_0.5\n",
            "1 2 1_0.5\n",
            "\u0663 4 1.0\n",
            "1 2 \u0661.5\n",
            "1 \uff12 1.0\n",
            "n \u0664\n1 2 1.0\n",
            "# n 1_0\n1 2 1.0\n",
        ],
    )
    def test_text_rejects_non_ascii_or_underscored_numbers(self, text):
        with pytest.raises(InputError):
            loads_text(text)

    @given(st.floats())
    @settings(max_examples=200, deadline=None)
    def test_ascii_float_reads_every_repr(self, w):
        back = ascii_float(repr(w))
        assert back == w or (math.isnan(w) and math.isnan(back))

    @pytest.mark.parametrize("token", ["0", "+7", "-12", "007", str(2**70)])
    def test_ascii_int_accepts(self, token):
        assert ascii_int(token) == int(token)

    @pytest.mark.parametrize(
        "token", ["", " 1", "1 ", "1_0", "\u0663", "1.0", "0x1", "1e3", "+", "--1", "nan"]
    )
    def test_ascii_int_rejects(self, token):
        with pytest.raises(ValueError):
            ascii_int(token)

    @pytest.mark.parametrize(
        "token",
        ["", "1_0.5", "\u0661.5", "0x1p0", ".", "e5", "1e", "in", "nan1", " 1.0", "infinit"],
    )
    def test_ascii_float_rejects(self, token):
        with pytest.raises(ValueError):
            ascii_float(token)

    @pytest.mark.parametrize(
        "text",
        ['{"n": 3, "edges": [[1.7, 2, 1.0]]}', '{"n": 3, "edges": [[1, 3, true]]}',
         '{"n": 3, "edges": [[1, 3, "2"]]}', '{"n": true, "edges": []}'],
    )
    def test_json_rejects_coercible_fields(self, text):
        with pytest.raises(InputError):
            loads_json(text)

    def test_json_rejects_malformed(self):
        with pytest.raises(InputError):
            loads_json("[1, 2]")
        with pytest.raises(InputError):
            loads_json("{\"edges\": []}")
        with pytest.raises(InputError):
            loads_json("not json")
        with pytest.raises(InputError, match="triple"):
            loads_json('{"n": 2, "edges": [0]}')  # an edge that is not a sequence

    @pytest.mark.parametrize("name", ["g.json", "g.txt"])
    def test_file_round_trip_by_extension(self, tmp_path, name):
        g = self._sample()
        path = tmp_path / name
        write_instance(g, path)
        assert read_instance(path).edges == g.edges

    @pytest.mark.parametrize("name", ["oddname.dat", "noext", "g.JSON", "g.json.txt"])
    def test_any_name_but_json_is_written_as_text(self, tmp_path, name):
        g = self._sample()
        path = tmp_path / name
        write_instance(g, path)
        assert path.read_text() == dumps_text(g)
        assert read_instance(path).edges == g.edges

    def test_read_sniffs_json_content_without_extension(self, tmp_path):
        g = self._sample()
        path = tmp_path / "noext"
        path.write_text(dumps_json(g))
        assert read_instance(path).edges == g.edges

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_read_rejects_total_weight_above_cap(self, tmp_path, fmt):
        # no graph above the cap can be built, so the file is written by hand
        edges = ((1, 2, 1e308), (1, 3, -1e308), (2, 3, 1e308))
        path = tmp_path / f"huge.{'json' if fmt == 'json' else 'txt'}"
        if fmt == "json":
            path.write_text(json.dumps({"n": 3, "edges": edges}))
        else:
            path.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in edges))
        with pytest.raises(InputError, match="total absolute weight"):
            read_instance(path)
        g = SignedWeightedGraph(2, ((1, 2, MAX_TOTAL_ABS_WEIGHT),))
        write_instance(g, path)
        assert read_instance(path).edges == g.edges

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_instance(tmp_path / "absent.json")

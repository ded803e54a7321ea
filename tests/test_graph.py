from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilingap.envelopes import EvaluationPoint, evaluate_bilinear
from bilingap.errors import CapacityError, InputError
from bilingap.graph import (
    MAX_TOTAL_ABS_WEIGHT,
    MAX_VERTICES,
    Cut,
    SignedWeightedGraph,
    VertexSubset,
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

from conftest import random_int_graph, subset_weights_reference

TRIANGLE = SignedWeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
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

    def test_full(self):
        assert sorted(VertexSubset.full(4).members) == [1, 2, 3, 4]
        assert VertexSubset.full(0).mask == 0

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

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(2, ((1, 2, math.inf),))

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(3, ((1, 2, 1.0), (1, 2, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            SignedWeightedGraph(2, ((1, 3, 1.0),))

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

    def test_weight_matrix_immutable(self):
        with pytest.raises(ValueError):
            MIXED.weight_matrix[1, 2] = 9.0


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

    def test_format_override(self, tmp_path):
        g = self._sample()
        path = tmp_path / "oddname.dat"
        write_instance(g, path, fmt="text")
        assert read_instance(path, fmt="text").edges == g.edges
        with pytest.raises(InputError):
            write_instance(g, tmp_path / "bad.json", fmt="xml")
        with pytest.raises(InputError):
            read_instance(path, fmt="xml")

    def test_read_sniffs_json_content_without_extension(self, tmp_path):
        g = self._sample()
        path = tmp_path / "noext"
        write_instance(g, path, fmt="json")
        assert read_instance(path).edges == g.edges

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_read_rejects_total_weight_above_cap(self, tmp_path, fmt):
        # the constructor keeps accepting it; only instance files are capped
        g = SignedWeightedGraph(3, ((1, 2, 1e308), (1, 3, -1e308), (2, 3, 1e308)))
        path = tmp_path / "huge"
        write_instance(g, path, fmt=fmt)
        with pytest.raises(InputError, match="total absolute weight"):
            read_instance(path)
        g = SignedWeightedGraph(2, ((1, 2, MAX_TOTAL_ABS_WEIGHT),))
        write_instance(g, path, fmt=fmt)
        assert read_instance(path).edges == g.edges

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_instance(tmp_path / "absent.json")

from __future__ import annotations

import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilingap import experiments
from bilingap.cuts import all_subset_cut_extremes, all_subset_gamma
from bilingap.experiments import ExperimentConfig
from bilingap.graph import SignedWeightedGraph, VertexSubset
from bilingap.hullcheck import (
    HullExactness,
    _extract_cycle,
    check_hull_exact,
    verify_exactness_numerically,
)
from bilingap.instances import signed_cycle, signed_path

from conftest import TRIANGLE, random_int_graph


def assert_coloring_valid(g, coloring, monochrome_sign):
    assert set(coloring) == set(range(1, g.n + 1))
    assert set(coloring.values()) <= {0, 1}
    for i, j, w in g.edges:
        same = coloring[i] == coloring[j]
        if (w > 0) == (monochrome_sign > 0):
            assert same, f"edge ({i},{j},{w}) should be monochromatic"
        else:
            assert not same, f"edge ({i},{j},{w}) should cross"


def assert_cycle_valid(g, cyc):
    verts = cyc.vertices
    assert len(verts) >= 3
    assert len(set(verts)) == len(verts)
    pos = neg = 0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        w = g.weight(a, b)
        assert w != 0.0, f"({a},{b}) is not an edge of the graph"
        if w > 0:
            pos += 1
        else:
            neg += 1
    assert (pos, neg) == (cyc.positive_edges, cyc.negative_edges)
    assert pos % 2 == 1 or neg % 2 == 1


def numeric_exact_all_subsets(g, tol=1e-9):
    mu_plus, mu_minus = all_subset_cut_extremes(g)
    gam_abs = all_subset_gamma(g, absolute=True)
    return bool((abs((mu_plus - mu_minus) - gam_abs) <= tol).all())


class TestExamples:
    def test_all_positive_triangle(self):
        res = check_hull_exact(TRIANGLE)
        assert not res.exact
        assert res.violating_cycle is not None
        assert set(res.violating_cycle.vertices) == {1, 2, 3}
        assert res.violating_cycle.positive_edges == 3
        assert res.violating_cycle.negative_edges == 0
        assert_cycle_valid(TRIANGLE, res.violating_cycle)
        # the positive coloring (all monochromatic) still exists
        assert res.positive_coloring is not None
        assert res.negative_coloring is None

    def test_balanced_four_cycle(self):
        g = signed_cycle(4, (1, 1, -1, -1))
        res = check_hull_exact(g)
        assert res.exact
        assert res.violating_cycle is None
        assert_coloring_valid(g, res.positive_coloring, monochrome_sign=+1)
        assert_coloring_valid(g, res.negative_coloring, monochrome_sign=-1)

    def test_four_cycle_odd_positive(self):
        g = signed_cycle(4, (1, 1, 1, -1))
        res = check_hull_exact(g)
        assert not res.exact
        assert_cycle_valid(g, res.violating_cycle)

    def test_four_cycle_all_patterns(self):
        # a 4-cycle is exact iff the positive edge count is even
        for signs in itertools.product((1, -1), repeat=4):
            g = signed_cycle(4, signs)
            want = signs.count(1) % 2 == 0
            assert check_hull_exact(g).exact == want

    def test_forests_always_exact(self):
        for signs in itertools.product((1, -1), repeat=4):
            g = signed_path(5, signs)
            res = check_hull_exact(g)
            assert res.exact
            assert_coloring_valid(g, res.positive_coloring, +1)
            assert_coloring_valid(g, res.negative_coloring, -1)
        star = SignedWeightedGraph(5, ((1, 2, 1.0), (1, 3, -2.0), (1, 4, 0.5), (1, 5, -1.0)))
        assert check_hull_exact(star).exact

    def test_odd_cycles_never_exact(self):
        for n in (3, 5, 7):
            for trial in range(10):
                import random as _random

                rnd = _random.Random(n * 100 + trial)
                signs = [rnd.choice((1, -1)) for _ in range(n)]
                assert not check_hull_exact(signed_cycle(n, signs)).exact

    def test_edgeless_and_single_vertex(self):
        for g in (SignedWeightedGraph(1, ()), SignedWeightedGraph(4, ())):
            res = check_hull_exact(g)
            assert res.exact
            assert res.positive_coloring is not None

    def test_weight_magnitude_irrelevant(self):
        a = signed_cycle(4, (1, 1, -1, -1))
        b = SignedWeightedGraph(4, tuple((i, j, w * (3.7 if i == 1 else 0.2)) for i, j, w in a.edges))
        assert check_hull_exact(a).exact == check_hull_exact(b).exact


class TestRandomGraphInvariants:
    @given(st.integers(0, 10**6), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_result_self_consistent(self, seed, n):
        g = random_int_graph(seed, n)
        res = check_hull_exact(g)
        if res.exact:
            assert res.violating_cycle is None
            assert_coloring_valid(g, res.positive_coloring, +1)
            assert_coloring_valid(g, res.negative_coloring, -1)
        else:
            assert_cycle_valid(g, res.violating_cycle)
            assert res.positive_coloring is None or res.negative_coloring is None

    def test_json_contract(self):
        d = check_hull_exact(TRIANGLE).to_json_dict()
        assert set(d) == {
            "exact", "positive_coloring", "negative_coloring",
            "violating_cycle", "violating_cycle_edge_counts",
        }
        assert d["exact"] is False
        assert isinstance(d["violating_cycle"], list)
        assert d["positive_coloring"] is not None
        exact_d = check_hull_exact(signed_cycle(4, (1, 1, -1, -1))).to_json_dict()
        assert exact_d["violating_cycle"] is None
        assert all(isinstance(k, str) for k in exact_d["positive_coloring"])

    def test_json_literal_output(self):
        """The whole JSON text, key order included, of one failing and one exact instance."""

        def as_text(g):
            return json.dumps(check_hull_exact(g).to_json_dict())

        assert as_text(TRIANGLE) == (
            '{"exact": false, "positive_coloring": {"1": 0, "2": 0, "3": 0}, '
            '"negative_coloring": null, "violating_cycle": [2, 1, 3], '
            '"violating_cycle_edge_counts": {"positive": 3, "negative": 0}}'
        )
        assert as_text(signed_cycle(4, (1, 1, -1, -1))) == (
            '{"exact": true, "positive_coloring": {"1": 0, "2": 0, "3": 0, "4": 1}, '
            '"negative_coloring": {"1": 0, "2": 1, "3": 0, "4": 0}, '
            '"violating_cycle": null, "violating_cycle_edge_counts": null}'
        )


class TestNumericVerification:
    def test_examples(self):
        g = signed_cycle(4, (1, 1, -1, -1))
        assert verify_exactness_numerically(g, g.vertices)
        assert not verify_exactness_numerically(TRIANGLE, TRIANGLE.vertices)

    def test_tiny_subsets_trivially_pass(self):
        assert verify_exactness_numerically(TRIANGLE, VertexSubset.from_members([]))
        assert verify_exactness_numerically(TRIANGLE, VertexSubset.from_members([2]))
        assert verify_exactness_numerically(TRIANGLE, VertexSubset.from_members([1, 3]))

    @given(st.integers(0, 10**6), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_parity_criterion_equals_numeric_criterion(self, seed, n):
        g = random_int_graph(seed, n)
        assert check_hull_exact(g).exact == numeric_exact_all_subsets(g)

    def test_exhaustive_small_cycles_and_paths(self):
        for n in range(3, 7):
            for signs in itertools.product((1, -1), repeat=n):
                g = signed_cycle(n, signs)
                assert check_hull_exact(g).exact == numeric_exact_all_subsets(g)
        for n in range(2, 7):
            for signs in itertools.product((1, -1), repeat=n - 1):
                g = signed_path(n, signs)
                assert check_hull_exact(g).exact == numeric_exact_all_subsets(g)

    def test_violating_cycle_support_has_strict_gap_shortfall(self):
        # at the half point supported on a violating cycle the hull gap is
        # strictly below the McCormick gap
        from bilingap.envelopes import EvaluationPoint, gap_report

        for seed in (1, 4, 9, 25, 33):
            g = random_int_graph(seed, 7)
            res = check_hull_exact(g)
            if res.exact:
                continue
            support = set(res.violating_cycle.vertices)
            coords = [0.5 if v in support else 0.0 for v in range(1, 8)]
            rep = gap_report(g, EvaluationPoint.from_iterable(coords))
            assert rep.chgap < rep.mcgap - 1e-9
            assert not verify_exactness_numerically(
                g, VertexSubset.from_members(support)
            )


def _propagate_reference(g, cross_negative):
    """One sign's constraint-propagation two-coloring, one BFS per sign.

    cross_negative True: negative edges bichromatic, positive monochromatic.
    Returns (coloring, None), or (None, cycle) at the first conflicting edge.
    """
    color, parent = {}, {}
    for root in range(1, g.n + 1):
        if root in color:
            continue
        color[root] = 0
        parent[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in g.adjacency[u]:
                want = color[u] ^ int((w < 0) if cross_negative else (w > 0))
                if v not in color:
                    color[v] = want
                    parent[v] = u
                    queue.append(v)
                elif color[v] != want:
                    return None, _extract_cycle(g, parent, u, v)
    return color, None


def _two_pass_reference(g):
    pos_coloring, pos_conflict = _propagate_reference(g, cross_negative=True)
    neg_coloring, neg_conflict = _propagate_reference(g, cross_negative=False)
    return HullExactness(
        exact=pos_conflict is None and neg_conflict is None,
        positive_coloring=pos_coloring,
        negative_coloring=neg_coloring,
        violating_cycle=pos_conflict or neg_conflict,
    )


def _sparse_graph(seed):
    """Seeded signed graph on 1..39 vertices; every third one split into three components."""
    rnd = random.Random(seed)
    n = rnd.randint(1, 39)
    density = rnd.uniform(0.05, 0.8)
    split = seed % 3 == 0
    edges = tuple(
        (i, j, rnd.choice((1.0, -1.0)) * rnd.randint(1, 4))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rnd.random() < density and (not split or 3 * (i - 1) // n == 3 * (j - 1) // n)
    )
    return SignedWeightedGraph(n, edges)


class TestOneLabelingMatchesTwoPasses:
    """check_hull_exact's one BFS against the two per-sign propagations it replaced."""

    @staticmethod
    def assert_same(g):
        got, want = check_hull_exact(g), _two_pass_reference(g)
        assert got == want  # colorings, cycle vertices and edge counts
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        return got.positive_coloring is not None, got.negative_coloring is not None

    def test_census_pool(self):
        # every cycle and path sign pattern for n = 2..8, then seeded random graphs
        cfg = ExperimentConfig(kind="hull_census", n_min=2, n_max=8, num_instances=20)
        outcomes = {self.assert_same(g) for _, g in experiments._census_instances(cfg)}
        assert outcomes == set(itertools.product((True, False), repeat=2))

    def test_sparse_and_disconnected_graphs(self):
        outcomes = {self.assert_same(_sparse_graph(seed)) for seed in range(600)}
        assert outcomes == set(itertools.product((True, False), repeat=2))


class TestWholeSetIdentity:
    """The identity on X = V alone decides exactness (see verify_exactness_numerically)."""

    def test_equals_the_parity_decision_and_the_all_subset_numerics(self):
        exact_count = 0
        for n in range(2, 21):
            for seed in range(110):
                prob = 0.6 if seed % 5 == 0 else min(1.0, (0.5 + seed % 4) / n)
                g = random_int_graph(1000 * n + seed, n, edge_prob=prob)
                whole = verify_exactness_numerically(g, g.vertices)
                assert whole == check_hull_exact(g).exact, (n, seed)
                if n <= 10:
                    assert whole == experiments._numeric_exact(g), (n, seed)
                exact_count += whole
        assert 0 < exact_count < 19 * 110

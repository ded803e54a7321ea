from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilingap import cuts
from bilingap.cuts import (
    ENUMERATION_CAP,
    all_subset_cut_extremes,
    all_subset_gamma,
    cut_range_bruteforce,
    extreme_cuts,
    find_large_cut,
    half_weight_partition,
    max_cut_bruteforce,
    min_cut_bruteforce,
)
from bilingap.errors import CapacityError, InputError
from bilingap.graph import (
    SignedWeightedGraph,
    VertexSubset,
    cut_weight,
    gamma_abs_weight,
    gamma_weight,
)
from bilingap.instances import (
    hadamard_instance,
    random_pm1_complete,
    random_signed_graph,
    signed_cycle,
    signed_path,
    uniform_real_complete,
)

from conftest import enumerate_cut_values, oracle_mu, random_int_graph, splitmix64_reference

TRIANGLE = SignedWeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))


class TestBruteforceExamples:
    def test_triangle(self):
        w, cut = max_cut_bruteforce(TRIANGLE, TRIANGLE.vertices)
        assert w == 2.0 and sorted(cut.side.members) == [1]
        w, cut = min_cut_bruteforce(TRIANGLE, TRIANGLE.vertices)
        assert w == 0.0 and cut.side.mask == 0

    def test_hadamard4(self):
        h = hadamard_instance(4)
        w, cut = max_cut_bruteforce(h, h.vertices)
        assert w == 3.0 and sorted(cut.side.members) == [1]
        w, cut = min_cut_bruteforce(h, h.vertices)
        assert w == -1.0 and sorted(cut.side.members) == [4]

    def test_singleton_ground_set(self):
        w, cut = max_cut_bruteforce(TRIANGLE, VertexSubset.from_members([2]))
        assert w == 0.0 and cut.side.mask == 0
        assert cut_range_bruteforce(TRIANGLE, VertexSubset.from_members([2])) == (0.0, 0.0)

    def test_witness_weight_is_recomputed(self):
        g = random_int_graph(404, 7)
        for x in (g.vertices, VertexSubset.from_members([1, 3, 4, 6])):
            w, cut = max_cut_bruteforce(g, x)
            assert cut.weight == w == cut_weight(g, x, cut.side)
            w, cut = min_cut_bruteforce(g, x)
            assert cut.weight == w == cut_weight(g, x, cut.side)

    def test_capacity(self):
        g = SignedWeightedGraph(ENUMERATION_CAP + 1, ((1, 2, 1.0),))
        with pytest.raises(CapacityError):
            max_cut_bruteforce(g, g.vertices)


class TestExtremeCuts:
    def test_views_agree_with_one_pass(self):
        g = random_int_graph(404, 9)
        for x in (g.vertices, VertexSubset.from_members([1, 3, 4, 6, 8]), VertexSubset.of(2)):
            hi, lo = extreme_cuts(g, x)
            assert max_cut_bruteforce(g, x) == hi
            assert min_cut_bruteforce(g, x) == lo
            assert cut_range_bruteforce(g, x) == (hi[0], lo[0])

    @pytest.mark.parametrize(
        "fn", [extreme_cuts, max_cut_bruteforce, min_cut_bruteforce, cut_range_bruteforce]
    )
    @pytest.mark.parametrize("members", [(5,), (4, 5), (1, 4)])
    def test_out_of_range_subset_rejected(self, fn, members):
        with pytest.raises(InputError, match="not contained"):
            fn(TRIANGLE, VertexSubset.of(*members))

    def test_brute_fallback_enumerates_once(self, enumeration_calls):
        g = random_pm1_complete(3, seed=8)
        res = find_large_cut(g, rng_seed=8, trial_budget=1)
        assert res.case_taken == "brute_fallback"
        assert res.cut.weight == -2.0
        assert enumeration_calls == [g.vertices]


def _cut_extremes_reference(g: SignedWeightedGraph, x: VertexSubset) -> tuple[int, int]:
    """Block loop over all 2^k masks, with whole-block temporaries, that the kernel replaces."""
    verts = sorted(x.members)
    k = len(verts)
    if k <= 1:
        return 0, 0
    w_sub = g.weight_matrix[np.ix_(verts, verts)]
    total = float(np.triu(w_sub, 1).sum())
    h = k // 2
    kb = k - h
    sa = cuts.sign_matrix(h)
    sb = cuts.sign_matrix(kb)
    qa = 0.5 * np.einsum("mp,pq,mq->m", sa, w_sub[:h, :h], sa)
    qb = 0.5 * np.einsum("mp,pq,mq->m", sb, w_sub[h:, h:], sb)
    va = sa @ w_sub[:h, h:]
    rows_per_block = max(1, (1 << 22) >> h)
    best_max, best_max_mask = -math.inf, 0
    best_min, best_min_mask = math.inf, 0
    for start in range(0, 1 << kb, rows_per_block):
        stop = min(start + rows_per_block, 1 << kb)
        svals = qb[start:stop, None] + qa[None, :] + sb[start:stop] @ va.T
        values = (total - svals) * 0.5
        flat_max = int(np.argmax(values))
        val = float(values.flat[flat_max])
        if val > best_max:
            best_max = val
            best_max_mask = ((start + flat_max // (1 << h)) << h) | (flat_max % (1 << h))
        flat_min = int(np.argmin(values))
        val = float(values.flat[flat_min])
        if val < best_min:
            best_min = val
            best_min_mask = ((start + flat_min // (1 << h)) << h) | (flat_min % (1 << h))
    return best_max_mask, best_min_mask


_WEIGHT_KINDS = ("pm1", "real", "sparse", "zero")
# 1 entry forces one B row per block, the max(1, ...) clamp
_BLOCK_SIZES = pytest.mark.parametrize(
    "block_entries", [cuts._BLOCK_ENTRIES, 1], ids=["default", "one_row"]
)


def _kernel_graph(seed: int, k: int, kind: str) -> SignedWeightedGraph:
    """Graph on k vertices: +/-1, uniform real or sparse real weights, or no edges."""
    rnd = random.Random(seed)
    edges = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if kind == "pm1":
                edges.append((i, j, rnd.choice((-1.0, 1.0))))
            elif kind == "real":
                edges.append((i, j, rnd.uniform(-3.0, 3.0) or 1.0))
            elif kind == "sparse" and rnd.random() < 0.2:
                edges.append((i, j, rnd.uniform(-1e3, 1e3) or 1.0))
    return SignedWeightedGraph(k, tuple(edges))


class TestEnumerationKernel:
    """The half walk picks the same first-attaining witnesses as the full walk."""

    @_BLOCK_SIZES
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 14), kind=st.sampled_from(_WEIGHT_KINDS))
    @example(seed=0, k=2, kind="pm1")
    @example(seed=1, k=2, kind="real")
    @example(seed=2, k=3, kind="real")
    @example(seed=3, k=3, kind="zero")
    @settings(max_examples=60, deadline=None)
    def test_matches_full_walk(self, block_entries, seed, k, kind):
        g = _kernel_graph(seed, k, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "_BLOCK_ENTRIES", block_entries)
            assert cuts._cut_extremes(g, g.vertices) == _cut_extremes_reference(g, g.vertices)

    @_BLOCK_SIZES
    def test_hadamard16_matches_full_walk(self, monkeypatch, block_entries):
        monkeypatch.setattr(cuts, "_BLOCK_ENTRIES", block_entries)
        h = hadamard_instance(16)
        assert cuts._cut_extremes(h, h.vertices) == _cut_extremes_reference(h, h.vertices)

    def test_subset_ground_set_matches_full_walk(self):
        g = _kernel_graph(99, 12, "real")
        x = VertexSubset.from_members([2, 3, 5, 7, 8, 11, 12])
        assert cuts._cut_extremes(g, x) == _cut_extremes_reference(g, x)

    def test_k24_scratch_stays_small(self):
        # whole-block temporaries of the full walk peaked at 128 MiB here
        g = random_pm1_complete(24, seed=24)
        tracemalloc.start()
        try:
            extreme_cuts(g, g.vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@st.composite
def graph_and_ground_set(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 11))
    g = random_int_graph(seed, n)
    mask = draw(st.integers(0, (1 << n) - 1))
    return g, VertexSubset(mask)


class TestBruteforceAgainstOracle:
    @given(graph_and_ground_set())
    @settings(max_examples=80, deadline=None)
    def test_extremes_match_pure_python(self, gx):
        g, x = gx
        values = enumerate_cut_values(g, x)
        mx, _ = max_cut_bruteforce(g, x)
        mn, _ = min_cut_bruteforce(g, x)
        assert mx == pytest.approx(max(values.values()), abs=1e-9)
        assert mn == pytest.approx(min(values.values()), abs=1e-9)
        assert cut_range_bruteforce(g, x) == pytest.approx((mx, mn), abs=1e-9)

    def test_float_weights_and_odd_even_splits(self):
        import random as _random

        for n in (11, 12):  # odd and even meet-in-the-middle splits
            rnd = _random.Random(n * 1000 + 7)
            edges = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rnd.random() < 0.5:
                        edges.append((i, j, rnd.uniform(-3, 3)))
            g = SignedWeightedGraph(n, tuple(edges))
            values = enumerate_cut_values(g, g.vertices)
            mx, cut_hi = max_cut_bruteforce(g, g.vertices)
            mn, cut_lo = min_cut_bruteforce(g, g.vertices)
            assert mx == pytest.approx(max(values.values()), abs=1e-9)
            assert mn == pytest.approx(min(values.values()), abs=1e-9)

    @given(graph_and_ground_set())
    @settings(max_examples=50, deadline=None)
    def test_max_nonneg_min_nonpos_and_sign_flip(self, gx):
        g, x = gx
        mx, _ = max_cut_bruteforce(g, x)
        mn, _ = min_cut_bruteforce(g, x)
        assert mx >= 0.0 >= mn
        flipped = SignedWeightedGraph(g.n, tuple((i, j, -w) for i, j, w in g.edges))
        fx, _ = max_cut_bruteforce(flipped, x)
        fn, _ = min_cut_bruteforce(flipped, x)
        assert fx == pytest.approx(-mn, abs=1e-9)
        assert fn == pytest.approx(-mx, abs=1e-9)


def _partition_reference(g: SignedWeightedGraph) -> tuple[VertexSubset, VertexSubset]:
    """The adjacency-tuple sweep that half_weight_partition replaces."""
    n = g.n
    incident = [0.0] * (n + 1)
    for i, j, w in g.edges:
        incident[i] += abs(w)
        incident[j] += abs(w)
    side = [0] * (n + 1)
    to_cross = [0.0] * (n + 1)
    move_cap = n * max(1, g.num_edges) + n + 1
    moves = 0
    changed = True
    while changed and moves <= move_cap:
        changed = False
        for v in range(1, n + 1):
            if 2.0 * to_cross[v] < incident[v]:
                side[v] ^= 1
                to_cross[v] = incident[v] - to_cross[v]
                for u, w in g.adjacency[v]:
                    if side[u] == side[v]:
                        to_cross[u] -= abs(w)
                    else:
                        to_cross[u] += abs(w)
                moves += 1
                changed = True
    left = VertexSubset.from_members(v for v in range(1, n + 1) if side[v] == side[1])
    return left, g.vertices.difference(left)


def _partition_cases():
    signs = random.Random(5)
    for n in range(2, 51):
        yield random_pm1_complete(n, n)
        yield uniform_real_complete(n, n)
        yield random_signed_graph(n, n)
        yield signed_path(n, [signs.choice((-1, 1)) for _ in range(n - 1)])
        if n >= 3:
            yield signed_cycle(n, [signs.choice((-1, 1)) for _ in range(n)])


class TestHalfWeightPartition:
    def test_path_example(self):
        g = SignedWeightedGraph(3, ((1, 2, 3.0), (2, 3, -4.0)))
        left, right = half_weight_partition(g)
        assert sorted(left.members) == [1, 3]
        assert sorted(right.members) == [2]

    def test_single_edge(self):
        g = SignedWeightedGraph(2, ((1, 2, -7.0),))
        left, right = half_weight_partition(g)
        assert sorted(left.members) == [1]
        assert sorted(right.members) == [2]

    def test_vertex_one_is_left(self):
        for seed in range(20):
            g = random_int_graph(seed, 6)
            left, right = half_weight_partition(g)
            assert 1 in left.members
            assert left.mask & right.mask == 0
            assert left.mask | right.mask == g.vertices.mask

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_crossing_at_least_half(self, seed, n):
        g = random_int_graph(seed, n)
        left, right = half_weight_partition(g)
        crossing = sum(
            abs(w)
            for i, j, w in g.edges
            if (left.mask >> (i - 1) & 1) != (left.mask >> (j - 1) & 1)
        )
        # integer weights so the half-total comparison is exact in floats
        assert 2.0 * crossing >= g.total_abs_weight

    def test_matches_the_adjacency_sweep(self):
        for g in _partition_cases():
            left, right = half_weight_partition(g)
            want = _partition_reference(g)
            assert (left.mask, right.mask) == (want[0].mask, want[1].mask), g.n
            crossing = math.fsum(
                abs(w) for i, j, w in g.edges if (i in left) != (j in left)
            )
            assert 2.0 * crossing >= math.fsum(abs(w) for _, _, w in g.edges)


class TestAllSubsetTables:
    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_tables_match_per_subset_brute(self, seed, n):
        g = random_int_graph(seed, n)
        mu_plus, mu_minus = all_subset_cut_extremes(g)
        gam = all_subset_gamma(g)
        gam_abs = all_subset_gamma(g, absolute=True)
        for mask in range(1 << n):
            x = VertexSubset(mask)
            assert gam[mask] == pytest.approx(gamma_weight(g, x), abs=1e-9)
            assert gam_abs[mask] == pytest.approx(gamma_abs_weight(g, x), abs=1e-9)
            op, om = oracle_mu(g, x)
            assert mu_plus[mask] == pytest.approx(op, abs=1e-9)
            assert mu_minus[mask] == pytest.approx(om, abs=1e-9)

    def test_capacity(self):
        g = SignedWeightedGraph(17, ((1, 2, 1.0),))
        with pytest.raises(CapacityError):
            all_subset_cut_extremes(g)
        with pytest.raises(CapacityError):
            all_subset_gamma(g)


def _subset_extremes_reference(g: SignedWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise submask loop that the vectorized all-subset tables replace."""
    size = 1 << g.n
    gam = all_subset_gamma(g)
    mu_plus = np.zeros(size)
    mu_minus = np.zeros(size)
    for x_mask in range(size):
        gx = gam[x_mask]
        hi = 0.0
        lo = 0.0
        sub = (x_mask - 1) & x_mask
        while sub:
            val = gx - gam[sub] - gam[x_mask ^ sub]
            if val > hi:
                hi = val
            elif val < lo:
                lo = val
            sub = (sub - 1) & x_mask
        mu_plus[x_mask] = hi
        mu_minus[x_mask] = lo
    return mu_plus, mu_minus


def _mixed_weight_graph(seed: int, n: int) -> SignedWeightedGraph:
    """Random graph with dyadic and uniform real weights, seeded."""
    rnd = random.Random(seed)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rnd.random() < 0.7:
                w = rnd.choice([3.5, -3.5, 2.25, -2.25, rnd.uniform(-3.0, 3.0)])
                edges.append((i, j, w or 1.0))
    return SignedWeightedGraph(n, tuple(edges))


def _assert_same_bytes(tables, reference):
    assert tables[0].tobytes() == reference[0].tobytes()
    assert tables[1].tobytes() == reference[1].tobytes()


class TestAllSubsetKernel:
    @given(st.integers(0, 10**6), st.integers(1, 10), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tables_bit_identical_to_reference(self, seed, n, integer_weights):
        g = random_int_graph(seed, n) if integer_weights else _mixed_weight_graph(seed, n)
        _assert_same_bytes(all_subset_cut_extremes(g), _subset_extremes_reference(g))

    def test_overflowing_pairs_match_reference(self):
        # gamma overflows to +-inf, so some pairs evaluate inf - inf = nan;
        # the loop never takes a nan, and neither may the kernel.
        edges = ((1, 2, 1e308), (1, 3, 1e308), (2, 3, 1e308), (3, 4, -1e308), (1, 4, 2.5))
        g = SignedWeightedGraph(4, edges)
        with np.errstate(over="ignore", invalid="ignore"):
            tables = all_subset_cut_extremes(g)
            reference = _subset_extremes_reference(g)
        _assert_same_bytes(tables, reference)
        assert not np.isnan(tables[0]).any() and not np.isnan(tables[1]).any()

    def test_n16_sampled_masks_match_enumeration(self):
        g = random_int_graph(1616, 16)
        rnd = random.Random(16)
        masks = [0, 1, (1 << 16) - 1, (1 << 16) - 2, 0b1010101010101010]
        masks += [rnd.getrandbits(16) for _ in range(15)]
        try:
            mu_plus, mu_minus = all_subset_cut_extremes(g)
        finally:
            cuts._build_pair_chunks.cache_clear()  # the n = 16 pairs take ~170 MB
        for mask in masks:
            assert (mu_plus[mask], mu_minus[mask]) == cut_range_bruteforce(g, VertexSubset(mask))


class TestFindLargeCut:
    def test_mixed_triangle_example(self):
        g = SignedWeightedGraph(3, ((1, 2, 5.0), (1, 3, -2.0), (2, 3, 1.0)))
        res = find_large_cut(g, rng_seed=0)
        assert res.case_taken == "case2"
        assert res.cut.weight == 6.0
        assert res.bound == pytest.approx(8.0 / (600.0 * math.sqrt(3)), abs=1e-12)
        assert res.meets_guarantee

    def test_path_example(self):
        g = SignedWeightedGraph(3, ((1, 2, 3.0), (2, 3, -4.0)))
        res = find_large_cut(g, rng_seed=0)
        assert res.case_taken == "case1"
        assert res.cut.weight == 3.0
        assert sorted(res.cut.side.members) == [1]

    def test_deterministic(self):
        g = random_int_graph(777, 14)
        a = find_large_cut(g, rng_seed=5, trial_budget=200)
        b = find_large_cut(g, rng_seed=5, trial_budget=200)
        assert a == b
        c = find_large_cut(g, rng_seed=6, trial_budget=200)
        assert c.bound == a.bound  # bound depends only on the graph

    def test_trivial_graphs(self):
        g1 = SignedWeightedGraph(1, ())
        res = find_large_cut(g1, rng_seed=0)
        assert res.cut.weight == 0.0 and res.meets_guarantee
        g_edgeless = SignedWeightedGraph(5, ())
        res = find_large_cut(g_edgeless, rng_seed=0)
        assert res.cut.weight == 0.0 and res.meets_guarantee

    def test_brute_fallback_on_tiny_budget(self):
        # seed 2's first draw has an even low bit, so the single trial samples
        # the empty set and misses the statistic; n <= 26 falls back to brute
        g = SignedWeightedGraph(2, ((1, 2, -7.0),))
        assert splitmix64_reference(2, 1)[0] & 1 == 0
        res = find_large_cut(g, rng_seed=2, trial_budget=1)
        assert res.case_taken == "brute_fallback"
        assert res.cut.weight == -7.0
        assert sorted(res.cut.side.members) == [1]
        assert res.meets_guarantee
        assert res.trials_used == 1

    def test_trial_t_reads_outputs_tL_onwards(self, monkeypatch):
        # the blocks the trials draw, in order, are the stream's prefix: trial t
        # reads outputs t*L .. t*L+L-1 for the L left vertices
        g = random_pm1_complete(5, seed=1)
        size = len(half_weight_partition(g)[0])
        blocks = []
        real_draws = cuts.draws

        def recorded(seed, start, count):
            blocks.append(real_draws(seed, start, count))
            return blocks[-1]

        monkeypatch.setattr(cuts, "draws", recorded)
        retried = 0
        for seed in range(40):
            blocks.clear()
            res = find_large_cut(g, rng_seed=seed, trial_budget=5)
            assert len(blocks) == res.trials_used
            drawn = np.concatenate(blocks).tolist()
            assert drawn == splitmix64_reference(seed, size * res.trials_used)
            retried += res.trials_used > 1
        assert retried >= 5

    def test_budget_validation(self):
        with pytest.raises(InputError):
            find_large_cut(TRIANGLE, rng_seed=0, trial_budget=0)

    @pytest.mark.parametrize(
        "seed, budget, message",
        [(0, 2.5, "trial budget"), (0, True, "trial budget"),
         (0, "10", "trial budget"), (0, None, "trial budget"), (1.5, 10, "seed"),
         (True, 10, "seed"), ("1", 10, "seed")],
    )
    def test_rejects_non_integer_seed_and_budget(self, seed, budget, message):
        with pytest.raises(InputError, match=message):
            find_large_cut(TRIANGLE, rng_seed=seed, trial_budget=budget)

    def test_numpy_integer_seed_and_budget(self):
        g = random_pm1_complete(12, seed=3)
        assert find_large_cut(g, np.int64(4), np.int32(7)) == find_large_cut(g, 4, 7)

    def test_pm1_complete_n20_all_seeds_meet(self):
        g = random_pm1_complete(20, seed=0)
        for seed in range(100):
            res = find_large_cut(g, rng_seed=seed)
            assert res.meets_guarantee
            assert abs(res.cut.weight) >= res.bound

    def test_witness_weight_consistency(self):
        for seed in range(30):
            g = random_int_graph(seed + 5000, 9)
            res = find_large_cut(g, rng_seed=seed)
            assert res.cut.weight == cut_weight(g, g.vertices, res.cut.side)
            if res.meets_guarantee:
                assert abs(res.cut.weight) >= res.bound - 1e-9

    def test_weight_never_beats_exact_optimum(self):
        for seed in range(20):
            g = random_int_graph(seed + 900, 8)
            res = find_large_cut(g, rng_seed=seed)
            mx, mn = cut_range_bruteforce(g, g.vertices)
            assert abs(res.cut.weight) <= max(mx, -mn) + 1e-9

    def test_json_contract(self):
        res = find_large_cut(TRIANGLE, rng_seed=0)
        d = res.to_json_dict()
        assert set(d) == {"side", "weight", "bound", "meets_guarantee", "trials_used", "case"}
        assert isinstance(d["side"], list)

    def test_case_coverage_across_seeds(self):
        seen = set()
        for seed in range(200):
            g = random_int_graph(seed, 4 + seed % 9)
            seen.add(find_large_cut(g, rng_seed=seed).case_taken)
            if {"case1", "case2", "case3"} <= seen:
                break
        assert {"case1", "case2", "case3"} <= seen


class TestAnticoncentration:
    def test_pm1_column_sums_exceed_half_sqrt_deg_often(self):
        # For a random subset S of one side, each opposite column sum of a
        # +-1 matrix lands at least sqrt(deg)/2 away from zero with
        # probability >= 1/24.  Empirical check with a fixed seed stream.
        rows, cols = 10, 10
        trials = 3000
        stream = iter(splitmix64_reference(31337, rows * cols + trials * rows))
        a = np.array(
            [[-1.0 if next(stream) & 1 else 1.0 for _ in range(cols)] for _ in range(rows)]
        )
        hits = np.zeros(cols)
        for _ in range(trials):
            picks = np.array([float(next(stream) & 1) for _ in range(rows)])
            colsums = picks @ a
            hits += (np.abs(colsums) >= 0.5 * math.sqrt(rows)).astype(float)
        assert (hits / trials >= 1.0 / 24.0).all()

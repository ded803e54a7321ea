from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bilingap
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
from bilingap.envelopes import dual_certificate
from bilingap.errors import CapacityError, CertificateError, InputError
from bilingap.graph import (
    SignedWeightedGraph,
    VertexSubset,
    column_sum,
    cross_weight,
    cut_weight,
    gamma_abs_weight,
    gamma_weight,
    ordered_sum,
)
from bilingap.instances import (
    hadamard_instance,
    random_pm1_complete,
    random_signed_graph,
    signed_cycle,
    signed_path,
    uniform_real_complete,
)
from bilingap.rng import bits, draws

from conftest import (
    TRIANGLE,
    enumerate_cut_values,
    oracle_mu,
    random_int_graph,
    splitmix64_reference,
)


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
    """Every one of the 2^k masks in ascending order; the first whose cut is within the slack.

    The slack is _SLACK times the total |weight| of the induced subgraph, and
    each cut is the weight between a side and its complement, b^T W (1 - b).
    """
    verts = sorted(x.members)
    k = len(verts)
    w_sub = g.weight_matrix[np.ix_(verts, verts)]
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    values = np.einsum("mp,mp->m", bits @ w_sub, 1.0 - bits)
    slack = cuts._SLACK * float(np.abs(np.triu(w_sub, 1)).sum())
    return (
        int(np.argmax(values >= values.max() - slack)),
        int(np.argmax(values <= values.min() + slack)),
    )


def _first_attaining_reference(g: SignedWeightedGraph, x: VertexSubset) -> tuple[int, int]:
    """The earlier rule: the first mask whose double equals the extreme, walking all 2^k masks.

    Each cut is (total - (qb + qa + sb . va)) / 2 in that order of operations.
    """
    verts = sorted(x.members)
    k = len(verts)
    if k <= 1:
        return 0, 0
    w_sub = g.weight_matrix[np.ix_(verts, verts)]
    total = float(np.triu(w_sub, 1).sum())
    h = k // 2
    sa = 1.0 - 2.0 * cuts.bit_matrix(h)
    sb = 1.0 - 2.0 * cuts.bit_matrix(k - h)
    qa = 0.5 * np.einsum("mp,pq,mq->m", sa, w_sub[:h, :h], sa)
    qb = 0.5 * np.einsum("mp,pq,mq->m", sb, w_sub[h:, h:], sb)
    values = (total - (qb[:, None] + qa[None, :] + sb @ (sa @ w_sub[:h, h:]).T)) * 0.5
    return int(np.argmax(values)), int(np.argmin(values))


_WEIGHT_KINDS = ("pm1", "real", "sparse", "zero")
# integer weights, scanned in float32: "at_bound" weights total _FLOAT32_TOTAL
_INTEGER_KINDS = ("pm1", "int_sparse", "zero", "at_bound")
# 1 byte forces one B row per block, the max(1, ...) clamp; 3 << 12 bytes is no
# power of two, so the last block is shorter than the reused buffer.  A float32
# bound of -1 scans integer weights in float64 too.
_BLOCK_SIZES = pytest.mark.parametrize(
    "block_bytes, float32_total",
    [(b, t) for t in (cuts._FLOAT32_TOTAL, -1) for b in (cuts._BLOCK_BYTES, 1, 3 << 12)],
    ids=["default", "one_row", "short_last", "default_f64", "one_row_f64", "short_last_f64"],
)


def _kernel_graph(seed: int, k: int, kind: str) -> SignedWeightedGraph:
    """Graph on k vertices with the weights of kind (see _WEIGHT_KINDS and _INTEGER_KINDS).

    +/-1, uniform real, sparse real or sparse integer weights, no edges, or
    integer weights whose total |weight| is exactly _FLOAT32_TOTAL.
    """
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
            elif kind == "int_sparse" and rnd.random() < 0.2:
                edges.append((i, j, float(rnd.choice((-1, 1)) * rnd.randint(1, 1000))))
            elif kind == "at_bound":
                edges.append((i, j, float(rnd.randint(1, cuts._FLOAT32_TOTAL // k**2))))
    if kind == "at_bound":  # the last edge tops the total up to the bound
        i, j, _ = edges.pop()
        edges.append((i, j, cuts._FLOAT32_TOTAL - sum(w for _, _, w in edges)))
        edges = [(i, j, rnd.choice((-w, w))) for i, j, w in edges]
    return SignedWeightedGraph(k, tuple(edges))


class TestEnumerationKernel:
    """The half walk picks the same witnesses within the slack as the full walk."""

    @_BLOCK_SIZES
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 14),
        kind=st.sampled_from(_WEIGHT_KINDS + ("int_sparse", "at_bound")),
    )
    @example(seed=0, k=2, kind="pm1")
    @example(seed=1, k=2, kind="real")
    @example(seed=2, k=3, kind="real")
    @example(seed=3, k=3, kind="zero")
    @example(seed=4, k=14, kind="at_bound")
    @settings(max_examples=60, deadline=None)
    def test_matches_full_walk(self, block_bytes, float32_total, seed, k, kind):
        g = _kernel_graph(seed, k, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "_BLOCK_BYTES", block_bytes)
            mp.setattr(cuts, "_FLOAT32_TOTAL", float32_total)
            assert cuts._cut_extremes(g, g.vertices) == _cut_extremes_reference(g, g.vertices)

    @_BLOCK_SIZES
    def test_hadamard16_matches_full_walk(self, monkeypatch, block_bytes, float32_total):
        monkeypatch.setattr(cuts, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(cuts, "_FLOAT32_TOTAL", float32_total)
        h = hadamard_instance(16)
        assert cuts._cut_extremes(h, h.vertices) == _cut_extremes_reference(h, h.vertices)

    @pytest.mark.parametrize("k", range(2, ENUMERATION_CAP + 1))
    def test_float32_scan_matches_float64_scan(self, monkeypatch, k):
        graphs = [_kernel_graph(k, k, kind) for kind in _INTEGER_KINDS]
        graphs += [hadamard_instance(k), random_pm1_complete(k, seed=k)]
        assert graphs[3].total_abs_weight == cuts._FLOAT32_TOTAL  # "at_bound"
        for g in graphs:
            assert cuts._scan_dtype(g, g.total_abs_weight) is np.float32
        got = [cuts._cut_extremes(g, g.vertices) for g in graphs]
        monkeypatch.setattr(cuts, "_FLOAT32_TOTAL", -1)
        assert got == [cuts._cut_extremes(g, g.vertices) for g in graphs]

    def test_float32_guard_keeps_large_integer_totals_exact(self):
        # 8 T > 2^24.  In float32 the form of {1}, 2^24 + 3, rounds to 2^24 + 4,
        # the maximum, which {2} attains: the max witness would move to {1}.
        g = SignedWeightedGraph(3, ((1, 2, 2.0**24), (1, 3, 3.0), (2, 3, 4.0)))
        assert g.integer_weights and g.total_abs_weight > cuts._FLOAT32_TOTAL
        assert cuts._cut_extremes(g, g.vertices) == _cut_extremes_reference(g, g.vertices) == (2, 0)
        (mx, cut), _ = extreme_cuts(g, g.vertices)
        assert (mx, cut.side) == (2.0**24 + 4, VertexSubset.of(2))
        assert cuts._scan_dtype(g, g.total_abs_weight) is np.float64

    @pytest.mark.parametrize(
        "weights", [(0.5, -1.5, 2.0), (1.0, 1.0, 1e-3), (3.0, -2.0, 2.0**-20)], ids=str
    )
    def test_non_integer_weights_scan_in_float64(self, weights):
        g = SignedWeightedGraph(3, tuple(zip((1, 1, 2), (2, 3, 3), weights)))
        assert not g.integer_weights
        assert cuts._scan_dtype(g, g.total_abs_weight) is np.float64
        assert cuts._cut_extremes(g, g.vertices) == _cut_extremes_reference(g, g.vertices)

    def test_subset_ground_set_matches_full_walk(self):
        g = _kernel_graph(99, 12, "real")
        x = VertexSubset.from_members([2, 3, 5, 7, 8, 11, 12])
        assert cuts._cut_extremes(g, x) == _cut_extremes_reference(g, x)

    def test_unit_weights_keep_the_first_attaining_witnesses(self):
        # at x1 the slack picks the masks of the exact-double rule on every fixed graph
        for k in range(2, 19):
            for seed in range(6):
                for kind in _WEIGHT_KINDS:
                    g = _kernel_graph(seed, k, kind)
                    want = _first_attaining_reference(g, g.vertices)
                    assert cuts._cut_extremes(g, g.vertices) == want, (k, seed, kind)

    def test_k24_scratch_stays_small(self):
        # whole-block temporaries of the full walk peaked at 128 MiB here, and
        # per-block temporaries of 2 MiB blocks at 4.45 MiB
        g = random_pm1_complete(24, seed=24)
        tracemalloc.start()
        try:
            extreme_cuts(g, g.vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_k24_first_call_keeps_little_cached(self):
        # a fresh interpreter, so no table is cached yet; the kernel keeps
        # _mask_table(12) (416 KiB) and its halves' _mask_table(6) and (5)
        # (5 KiB), and one more 12-bit table would pass the bound
        script = (
            "import tracemalloc\n"
            "from bilingap.cuts import extreme_cuts\n"
            "from bilingap.instances import random_pm1_complete\n"
            "g = random_pm1_complete(24, 24)\n"
            "tracemalloc.start()\n"
            "extreme_cuts(g, g.vertices)\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(bilingap.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) < 0.6 * 2**20


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
    """The adjacency-tuple sweep that half_weight_partition replaces, with its float slack."""
    n = g.n
    tie = cuts._SLACK * g.total_abs_weight
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
            if 2.0 * to_cross[v] < incident[v] - tie:
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


def _scaled(g: SignedWeightedGraph, factor: float) -> SignedWeightedGraph:
    return SignedWeightedGraph(g.n, tuple((i, j, w * factor) for i, j, w in g.edges))


def _spread(g: SignedWeightedGraph, n: int, place) -> SignedWeightedGraph:
    """g's edges on vertices place(1..g.n) of an n-vertex graph; the other vertices are isolated."""
    return SignedWeightedGraph(n, tuple((place(i), place(j), w) for i, j, w in g.edges))


def _partition_cases():
    signs = random.Random(5)
    for n in range(2, 51):
        yield random_pm1_complete(n, n)
        yield uniform_real_complete(n, n)
        yield random_signed_graph(n, n)
        yield signed_path(n, [signs.choice((-1, 1)) for _ in range(n - 1)])
        if n >= 3:
            yield signed_cycle(n, [signs.choice((-1, 1)) for _ in range(n)])
    for n in (2, 3, 7, 20, 50, 63):
        for g in (random_pm1_complete(n, 100 + n), uniform_real_complete(n, 100 + n)):
            yield _scaled(g, 0.999e300 / g.total_abs_weight)  # the total just under the cap
            yield _scaled(g, 1e-300)  # normal weights whose tie slack is subnormal
        pm1 = random_pm1_complete(n, 200 + n)
        yield _scaled(pm1, 3.0)
        yield _scaled(pm1, 1.0 / 3.0)
    for m in (2, 5, 12, 31):
        sparse = random_signed_graph(m, 300 + m)
        yield _spread(sparse, 2 * m + 1, lambda v: 2 * v)  # every odd vertex isolated
        yield _spread(sparse, 63, lambda v: 63 - m + v)  # vertices 1..63 - m isolated
    yield SignedWeightedGraph(5, ())  # no edge: nothing moves
    for seed in range(3):
        yield random_pm1_complete(63, seed)
        yield uniform_real_complete(63, seed)
        yield random_signed_graph(63, seed)


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


def _subset_gamma_reference(q: np.ndarray) -> np.ndarray:
    """1/2 b^T q b mask by mask, each summed exactly with fsum."""
    k = len(q)
    rows = q.tolist()
    out = np.empty(1 << k)
    for m in range(1 << k):
        on = [p for p in range(k) if m >> p & 1]
        out[m] = 0.5 * math.fsum(rows[r][s] for r in on for s in on)
    return out


def _symmetric(rng: np.random.Generator, k: int, integer: bool) -> np.ndarray:
    a = rng.integers(-4, 5, size=(k, k)).astype(np.float64) if integer else rng.normal(size=(k, k))
    return a + a.T  # nonzero diagonal


class TestSubsetGamma:
    @pytest.mark.parametrize("k", range(15))
    def test_matches_the_per_mask_form(self, k):
        rng = np.random.default_rng(k)
        q_int = _symmetric(rng, k, integer=True)
        assert cuts.subset_gamma(q_int).tobytes() == _subset_gamma_reference(q_int).tobytes()
        q_real = _symmetric(rng, k, integer=False)
        np.testing.assert_allclose(
            cuts.subset_gamma(q_real), _subset_gamma_reference(q_real), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("k", range(11))
    def test_up_to_ten_bits_is_one_product(self, k):
        # the single bit_matrix product, bit for bit, for any weights
        q = _symmetric(np.random.default_rng(100 + k), k, integer=False)
        bits = cuts.bit_matrix(k)
        want = 0.5 * np.einsum("mk,mk->m", bits @ q, bits)
        assert cuts.subset_gamma(q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_bytes", [1, 3 << 12], ids=["one_row", "short_last"])
    def test_block_sizes_give_the_same_table(self, monkeypatch, block_bytes):
        q = _symmetric(np.random.default_rng(7), 14, integer=True)
        want = cuts.subset_gamma(q)
        monkeypatch.setattr(cuts, "_BLOCK_BYTES", block_bytes)
        assert cuts.subset_gamma(q).tobytes() == want.tobytes()

    def test_k18_memory_stays_linear_in_the_table(self):
        # a (2^18, 18) bit product alone would be ~38 MB; the table is 2 MiB.
        # At k = 20 the table is 8 MiB, and a per-bit doubling peaked at 18 MiB.
        for k, bound in ((18, 16 * 2**20), (20, 9 * 2**20)):
            q = _symmetric(np.random.default_rng(k), k, integer=True)
            tracemalloc.start()
            try:
                cuts.subset_gamma(q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, k

    def test_certificate_at_a_20_vertex_support(self):
        g = random_int_graph(2020, 20)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        dual_certificate(g, g.vertices, mu_plus, "lower_envelope")
        dual_certificate(g, g.vertices, mu_minus, "upper_envelope")
        with pytest.raises(CertificateError):
            dual_certificate(g, g.vertices, mu_plus - 1.0, "lower_envelope")
        with pytest.raises(CertificateError):
            dual_certificate(g, g.vertices, mu_minus + 1.0, "upper_envelope")

    def test_k20_certificate_keeps_one_table(self):
        # the 8 MiB slack table is shifted by the tolerance in place; a second
        # table for slack + tol peaked at 17 MiB
        g = random_pm1_complete(20, seed=20)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        dual_certificate(g, g.vertices, mu_plus, "lower_envelope")  # warm the bit tables
        for mu, side in ((mu_plus, "lower_envelope"), (mu_minus, "upper_envelope")):
            tracemalloc.start()
            try:
                dual_certificate(g, g.vertices, mu, side)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**20, side


def _certificate_reference(g: SignedWeightedGraph, x: VertexSubset, mu: float, side: str):
    """First violating mask of the certificate, or None: the earlier one-table check.

    One 2^k slack table from subset_gamma, shifted by the tolerance in place
    and compared with y = -mu/2 as a whole.
    """
    verts = sorted(x.members)
    w_sub = g.weight_matrix[np.ix_(verts, verts)]
    z = [0.5 * float(ordered_sum(row)) for row in w_sub]  # the zero diagonal adds nothing
    slack = cuts.subset_gamma(w_sub - np.diag([2.0 * zp for zp in z]))
    tol = cuts._SLACK * float(np.abs(w_sub).sum()) / 2
    lower = side == "lower_envelope"
    slack += tol if lower else -tol
    bad = np.flatnonzero(-0.5 * mu > slack if lower else -0.5 * mu < slack)
    return int(bad[0]) if bad.size else None


def _first_violation(g: SignedWeightedGraph, x: VertexSubset, mu: float, side: str):
    """The violating subset's mask over the positions of x, or None if the certificate holds."""
    try:
        dual_certificate(g, x, mu, side)
    except CertificateError as e:
        verts = sorted(x.members)
        return sum(1 << verts.index(v) for v in e.violating_subset.members)
    return None


class TestCertificateScan:
    """dual_certificate walks the cut kernel's blocks and stops at the first violating subset."""

    @pytest.mark.parametrize("family", ["pm1", "int", "real"])
    @pytest.mark.parametrize("k", range(2, 21))
    def test_matches_the_one_table_check(self, k, family):
        if family == "pm1":
            g = random_pm1_complete(k, seed=k)
        elif family == "int":
            g = random_int_graph(100 + k, k)
        else:
            g = uniform_real_complete(k, seed=k)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        for side, mu in (("lower_envelope", mu_plus), ("upper_envelope", mu_minus)):
            for d in (0.0, -1.0, 1.0):  # exact, and off by one on each side
                want = _certificate_reference(g, g.vertices, mu + d, side)
                assert _first_violation(g, g.vertices, mu + d, side) == want, (side, d)
                assert (want is None) == (d == 0.0 or (d > 0) == (side == "lower_envelope"))

    @pytest.mark.parametrize("block_bytes", [1, 3 << 12], ids=["one_row", "short_last"])
    def test_block_sizes_give_the_same_first_violation(self, monkeypatch, block_bytes):
        g = random_int_graph(7, 14)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        sides = (("lower_envelope", mu_plus), ("upper_envelope", mu_minus))
        cases = [(s, mu + d) for s, mu in sides for d in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        want = [_first_violation(g, g.vertices, mu, s) for s, mu in cases]
        monkeypatch.setattr(cuts, "_BLOCK_BYTES", block_bytes)
        assert [_first_violation(g, g.vertices, mu, s) for s, mu in cases] == want
        assert want.count(None) == 6

    def test_a_24_vertex_support(self):
        g = random_pm1_complete(24, seed=24)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        dual_certificate(g, g.vertices, mu_plus, "lower_envelope")
        dual_certificate(g, g.vertices, mu_minus, "upper_envelope")
        with pytest.raises(CertificateError):
            dual_certificate(g, g.vertices, mu_plus - 1.0, "lower_envelope")
        with pytest.raises(CertificateError):
            dual_certificate(g, g.vertices, mu_minus + 1.0, "upper_envelope")

    def test_k20_certificate_peaks_under_one_mib(self):
        # one 256 KiB block buffer and O(2^(k/2)) operands; a 2^20 slack
        # table alone would be 8 MiB
        g = random_pm1_complete(20, seed=20)
        (mu_plus, _), (mu_minus, _) = extreme_cuts(g, g.vertices)
        dual_certificate(g, g.vertices, mu_plus, "lower_envelope")  # warm the bit tables
        for mu, side in ((mu_plus, "lower_envelope"), (mu_minus, "upper_envelope")):
            tracemalloc.start()
            try:
                dual_certificate(g, g.vertices, mu, side)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, side


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

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("integer_weights", [True, False])
    def test_many_chunk_tables_bit_identical_to_reference(self, n, integer_weights):
        seed = 100 + n
        g = random_int_graph(seed, n) if integer_weights else _mixed_weight_graph(seed, n)
        assert len(cuts._build_pair_chunks(n)) >= 10
        _assert_same_bytes(all_subset_cut_extremes(g), _subset_extremes_reference(g))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_index_holds_one_side_of_each_cut(self, n):
        chunks = cuts._build_pair_chunks(n)
        x = np.concatenate([np.repeat(c.xs, c.reps) for c in chunks]).astype(np.int64)
        sub = np.concatenate([c.sub for c in chunks]).astype(np.int64)
        rest = np.concatenate([c.rest for c in chunks]).astype(np.int64)
        assert len(x) == (3**n + 1) // 2
        assert not (sub & rest).any()
        assert ((sub | rest) == x).all()
        assert (np.sort(np.concatenate([c.xs for c in chunks])) == np.arange(1 << n)).all()
        nonempty = x != 0
        top = 1 << (np.frexp(x[nonempty])[1] - 1)  # x's top set bit
        assert (rest[nonempty] & top).all()
        # every (subset, side) pair appears once, in either order
        assert len(np.unique(x << n | sub)) == len(x)

    def test_n16_sampled_masks_match_enumeration(self):
        g = random_int_graph(1616, 16)
        rnd = random.Random(16)
        masks = [0, 1, (1 << 16) - 1, (1 << 16) - 2, 0b1010101010101010]
        masks += [rnd.getrandbits(16) for _ in range(15)]
        try:
            mu_plus, mu_minus = all_subset_cut_extremes(g)
        finally:
            cuts._build_pair_chunks.cache_clear()  # the n = 16 pairs take ~87 MB
        for mask in masks:
            assert (mu_plus[mask], mu_minus[mask]) == cut_range_bruteforce(g, VertexSubset(mask))


def _find_large_cut_reference(g: SignedWeightedGraph, rng_seed: int, trial_budget: int) -> tuple:
    """The search with the vertex-subset tail, totalled by cross_weight and cut_weight.

    Returns (side mask, weight.hex(), case, trials used, meets guarantee).
    """
    n = g.n
    total = g.total_abs_weight
    slack = cuts._SLACK * total
    bound = total / (600.0 * math.sqrt(n))
    stat_threshold = total / (200.0 * math.sqrt(n))
    case_threshold = total / (1200.0 * math.sqrt(n))
    left, right = half_weight_partition(g)
    left_verts = sorted(left.members)
    right_verts = sorted(right.members)
    w_lr = g.weight_matrix[np.ix_(left_verts, right_verts)]
    size = len(left_verts)
    best_stat, best_picks, best_cols = -math.inf, np.zeros(size), np.zeros(len(right_verts))
    trials, stat_met = 0, False
    for t in range(trial_budget):
        trials += 1
        picks = bits(draws(rng_seed, t * size, size))
        cols = picks @ w_lr
        stat = float(np.abs(cols).sum())
        if stat > best_stat + slack:
            best_stat, best_picks, best_cols = stat, picks, cols
        if stat >= stat_threshold - slack:
            stat_met = True
            break
    if not stat_met and n <= ENUMERATION_CAP:
        (mx, cut_hi), (mn, cut_lo) = extreme_cuts(g, g.vertices)
        cut = cut_hi if abs(mx) >= abs(mn) - slack else cut_lo
        meets = abs(cut.weight) >= bound - slack
        return cut.side.mask, cut.weight.hex(), "brute_fallback", trials, meets
    sample = VertexSubset.from_members(v for v, pick in zip(left_verts, best_picks) if pick)
    plus = best_cols >= -slack
    plus_total = float(best_cols[plus].sum())
    minus_total = -float(best_cols[~plus].sum())
    side_sign = 1.0 if plus_total >= minus_total - slack else -1.0
    picked = plus == (side_sign > 0)
    chosen = VertexSubset.from_members(v for v, p in zip(right_verts, picked) if p)
    rest = g.vertices.difference(sample.union(chosen))
    if side_sign * cross_weight(g, sample, rest) >= -case_threshold - slack:
        u, case = sample, "case1"
    elif side_sign * cross_weight(g, chosen, rest) >= -case_threshold - slack:
        u, case = chosen, "case2"
    else:
        u, case = sample.union(chosen), "case3"
    weight = cut_weight(g, g.vertices, u)
    return u.mask, weight.hex(), case, trials, abs(weight) >= bound - slack


def _search_summary(g: SignedWeightedGraph, rng_seed: int, trial_budget: int) -> tuple:
    res = find_large_cut(g, rng_seed, trial_budget)
    return (res.cut.side.mask, res.cut.weight.hex(), res.case_taken, res.trials_used,
            res.meets_guarantee)


def _search_cases():
    for n in range(2, 51):
        yield uniform_real_complete(n, n)
        yield random_pm1_complete(n, n + 7)
        yield random_signed_graph(n, n)
    yield SignedWeightedGraph(40, ((3, 17, -2.5),))
    yield SignedWeightedGraph(40, ())


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
        # real weights, where the summation order changes the double
        for n in range(20, 51):
            g = uniform_real_complete(n, n)
            res = find_large_cut(g, rng_seed=n)
            assert res.cut.weight.hex() == cut_weight(g, g.vertices, res.cut.side).hex()

    @pytest.mark.parametrize("budget", [1, 3, 1000])
    def test_matches_the_subset_reference(self, budget):
        seen = set()
        for g in _search_cases():
            for seed in (0, g.n):
                got = _search_summary(g, seed, budget)
                assert got == _find_large_cut_reference(g, seed, budget), (g.n, seed)
                seen.add((got[2], g.n > ENUMERATION_CAP and got[3] == budget))
        # every case is resolved, and at budget 1 the tail resolves samples
        # of graphs too large for the enumeration fallback
        assert {"case1", "case2", "case3"} <= {case for case, _ in seen}
        if budget == 1:
            assert ("case1", True) in seen

    def test_search_leaves_pair_masks_unbuilt(self):
        # the tail totals edge columns; the per-edge pair masks stay unbuilt
        for g in (uniform_real_complete(30, seed=3), SignedWeightedGraph(40, ((3, 17, -2.5),))):
            res = find_large_cut(g, rng_seed=0, trial_budget=1)
            assert res.case_taken != "brute_fallback"
            assert "pair_masks" not in vars(g)

    def test_column_sum_is_a_left_to_right_total(self):
        # each 1.0 rounds away against 1e16; np.sum's pairwise blocks keep them
        w = np.array([1e16] + [1.0] * 8 + [-1e16])
        assert column_sum(w) == 0.0 and float(np.sum(w)) == 8.0
        assert column_sum(np.array([])) == 0.0

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

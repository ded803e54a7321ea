"""Exact cut oracles and a seeded randomized search for provably large cuts.

extreme_cuts enumerates every cut of an induced subgraph once (meet in the
middle, vectorized, capped at 26 vertices) and returns both extremes with
witnesses; max/min_cut_bruteforce and cut_range_bruteforce are views of it.
A cut is the 0/1 quadratic form b^T (diag(d) - W) b, d the row sums of W, and
subset_gamma gives a symmetric block's form on every mask.  One scan,
_form_scan, makes these forms in blocks of meet-in-the-middle products for the
enumeration, subset_gamma above 10 bits and envelopes.dual_certificate.  The
enumeration multiplies in float32 when the weights are integers and small
enough that every partial sum is an integer float32 holds exactly, so its
witnesses are those of the float64 product; other weights stay in float64.
find_large_cut returns a cut of the whole graph whose absolute signed weight
is at least total_abs_weight / (600 sqrt(n)), by sampling subsets of one side
of a half-weight partition until the sampled aggregate discrepancy is large
enough and then resolving one of three constructive cases.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantViolationError
from .graph import (
    _SLACK, Cut, SignedWeightedGraph, VertexSubset, _check_subset, _int_arg, column_sum, cut_weight
)
from .rng import bits, draws

ENUMERATION_CAP = 26
# Max bytes per block of a meet-in-the-middle product, 2^15 float64 or 2^16
# float32 entries, so the cut scan's one block buffer stays in one core's L2
# while it is written and scanned twice, and each product runs on one OpenBLAS
# thread (float32 blocks of 512 KiB ran on two, with stalls).
_BLOCK_BYTES = 1 << 18
# Max total |weight| T of an integer-weight subgraph whose cuts are scanned in
# float32: each partial sum of a product entry is an integer of size <= 8 T,
# and float32 holds every integer up to 2^24.
_FLOAT32_TOTAL = 1 << 21
# Max float64 entries per piece of the cross term Q_BA ba (32 KiB): products
# small enough that OpenBLAS runs each on one thread.
_CHUNK_ENTRIES = 1 << 12


def _scan_dtype(g: SignedWeightedGraph, total: float) -> type:
    """float32 for integer weights whose subgraph total is at most _FLOAT32_TOTAL, else float64."""
    return np.float32 if g.integer_weights and total <= _FLOAT32_TOTAL else np.float64


def _cut_extremes(g: SignedWeightedGraph, x: VertexSubset) -> tuple[int, int]:
    """(max witness mask, min witness mask) over the cuts of the subgraph induced by x.

    Masks are over positions of the ascending vertex list of x.  The max
    witness is the first mask, in ascending order, whose cut is within
    _SLACK * T of the maximum, with T the total |weight| of the subgraph; the
    min witness likewise.  Cuts that tie exactly at one weight scale round
    apart at another, and the slack keeps the witness the same at both.

    The cut of side b (bit p set: position p on side 1) is the 0/1 quadratic
    form 1/2 b^T Q b with Q = 2 (diag(d) - W) and d the row sums of W.  Only
    masks with the top position on side 0 are walked: all below the rest.  A
    mask and its complement are the same cut, so the first mask within the
    slack lies in the walked half, whose cuts are the form of Q without its
    top row and column.  Each block of _form_scan is scanned for its max and
    min; then only the first block that reaches a witness bound is made
    again, once per side, unless the buffer still holds it.

    With integer weights and T <= _FLOAT32_TOTAL the product runs in float32
    and is exact.  Every operand entry is an integer (bits, 1, the halves'
    forms of Q and Q_BA b_A), and a partial sum inside one product entry adds
    a subset of its terms, so it is at most sum |Q| <= 8 T <= 2^24 in size,
    whatever the summation order or FMA use of the BLAS.  The cuts are then
    the integers of the float64 product, _SLACK * T < 1 makes "within the
    slack" mean "equal to the extreme", and a bound rounded to float32 for
    the comparison stays within 1/2 of the extreme: the witnesses are the same.
    """
    verts = sorted(x.members)
    k = len(verts)
    if k > ENUMERATION_CAP:
        raise CapacityError(f"cut enumeration needs <= {ENUMERATION_CAP} vertices, got {k}")
    w_sub = g.weight_matrix.take(verts, 0).take(verts, 1)
    q = -2.0 * w_sub
    q.flat[:: k + 1] = 2.0 * w_sub.sum(1)  # Q = 2 (diag(d) - W), as w_sub's diagonal is 0
    total = float(np.abs(w_sub).sum()) / 2  # |w_sub| counts each edge twice
    product, starts = _form_scan(q[: k - 1, : k - 1], _scan_dtype(g, total))
    slack = _SLACK * total
    highs, lows = [], []
    for i in range(len(starts)):
        c = product(i)
        highs.append(float(np.maximum.reduce(c, None)))
        lows.append(float(np.minimum.reduce(c, None)))
    bounds = ((highs, operator.ge, max(highs) - slack), (lows, operator.le, min(lows) + slack))
    held = len(highs) - 1  # the block the buffer holds
    masks = []
    for ends, within, bound in bounds:
        b = next(i for i, end in enumerate(ends) if within(end, bound))
        if b != held:
            c, held = product(b), b
        masks.append(starts[b] + int(np.argmax(within(c, bound))))
    return masks[0], masks[1]


def extreme_cuts(
    g: SignedWeightedGraph, x: VertexSubset
) -> tuple[tuple[float, Cut], tuple[float, Cut]]:
    """((max weight, its cut), (min weight, its cut)) over the subgraph induced by x.

    One enumeration pass over every cut including the empty one, so the
    maximum is >= 0 and the minimum <= 0.  Each witness is the first side b
    in ascending bitmask order whose cut b^T (diag(d) - W) b is within
    _SLACK * the subgraph's total |weight| of the extreme, reported as the
    smaller side of the cut (ties to the smaller bitmask).  The enumerated
    values only pick the sides: each weight is recomputed edge by edge with
    cut_weight.
    """
    _check_subset(g, x)
    verts = sorted(x.members)
    full = (1 << len(verts)) - 1
    mx_mask, mn_mask = _cut_extremes(g, x)

    def witness(mask: int) -> tuple[float, Cut]:
        # the side with fewer vertices, ties to the smaller mask
        mask = min((m.bit_count(), m) for m in (mask, full ^ mask))[1]
        side = VertexSubset.from_members(verts[p] for p in range(len(verts)) if mask >> p & 1)
        weight = cut_weight(g, x, side)
        return weight, Cut(ground_set=x, side=side, weight=weight)

    return witness(mx_mask), witness(mn_mask)


def max_cut_bruteforce(g: SignedWeightedGraph, x: VertexSubset) -> tuple[float, Cut]:
    """Exact maximum signed cut weight over the subgraph induced by x (>= 0), with witness."""
    return extreme_cuts(g, x)[0]


def min_cut_bruteforce(g: SignedWeightedGraph, x: VertexSubset) -> tuple[float, Cut]:
    """Exact minimum signed cut weight over the subgraph induced by x (<= 0), with witness."""
    return extreme_cuts(g, x)[1]


def cut_range_bruteforce(g: SignedWeightedGraph, x: VertexSubset) -> tuple[float, float]:
    """(max, min) signed cut weight of the subgraph induced by x, one enumeration pass."""
    (mx, _), (mn, _) = extreme_cuts(g, x)
    return mx, mn


def half_weight_partition(
    g: SignedWeightedGraph,
) -> tuple[VertexSubset, VertexSubset]:
    """Deterministic partition (left, right) whose crossing |weight| is >= half the total.

    Greedy local search: start with every vertex on one side and repeatedly
    move any vertex whose incident absolute weight is majority non-crossing,
    sweeping vertices in ascending order until stable.  At a local optimum
    every vertex has at least half its incident absolute weight crossing, so
    the crossing total is at least half the graph total.  A move must gain
    more than the float slack, so a tie never moves.  Sides are labeled so
    vertex 1 is in left.
    """
    n = g.n
    tie = _SLACK * g.total_abs_weight
    abs_w = np.abs(g.weight_matrix)
    incident = np.cumsum(abs_w, axis=1)[:, -1].tolist()  # left to right, as ordered_sum adds
    limit = [d - tie for d in incident]
    cross = np.zeros(n + 1)  # |weight| from v to the opposite side
    sign = np.ones(n + 1)  # +1 on side 0, -1 on side 1
    step = np.empty(n + 1)
    # the sweep reads through memoryviews: each read is a Python float, not a numpy scalar
    to_cross = memoryview(cross)
    flip = memoryview(sign)
    move_cap = n * max(1, g.num_edges) + n + 1
    moves = 0
    changed = True
    while changed and moves <= move_cap:
        changed = False
        for v in range(1, n + 1):
            if 2.0 * to_cross[v] < limit[v]:
                to_cross[v] = incident[v] - to_cross[v]
                flip[v] = -flip[v]
                # u on v's new side loses |w_uv|, u across gains it: t + (-a) is t - a and
                # t - (-a) is t + a, exactly; a zero entry (no edge, or u = v) changes nothing
                np.multiply(abs_w[v], sign, out=step)
                if flip[v] < 0.0:
                    np.add(cross, step, out=cross)
                else:
                    np.subtract(cross, step, out=cross)
                moves += 1
                changed = True
    s1 = flip[1]
    left = VertexSubset(sum(1 << v - 1 for v in range(1, n + 1) if flip[v] == s1))
    return left, g.vertices.difference(left)


@dataclass(frozen=True)
class CutSearchResult:
    """Outcome of find_large_cut."""

    cut: Cut
    bound: float
    meets_guarantee: bool
    trials_used: int
    case_taken: str

    def to_json_dict(self) -> dict:
        return {
            "side": list(self.cut.side.members),
            "weight": self.cut.weight,
            "bound": self.bound,
            "meets_guarantee": self.meets_guarantee,
            "trials_used": self.trials_used,
            "case": self.case_taken,
        }


def find_large_cut(
    g: SignedWeightedGraph, rng_seed: int, trial_budget: int = 1000
) -> CutSearchResult:
    """Find a cut with |signed weight| >= total_abs_weight / (600 sqrt(n)).

    Randomized but fully deterministic given (graph, rng_seed, trial_budget):
    subsets of the left side of the half-weight partition are sampled (trial t
    reads splitmix64 outputs t*L .. t*L+L-1 for the L left vertices, ascending,
    low bit 1 -> in) until the sampled side's aggregate column discrepancy over
    the right side reaches total / (200 sqrt(n)); the returned cut is then one
    of three constructive cases.  If the budget is exhausted the best sample is
    still resolved, and for n <= 26 an exact enumeration fallback is used
    instead.
    """
    trial_budget = _int_arg(trial_budget, "trial budget", 1)
    n = g.n
    total = g.total_abs_weight
    slack = _SLACK * total
    bound = total / (600.0 * math.sqrt(n))
    stat_threshold = total / (200.0 * math.sqrt(n))
    case_threshold = total / (1200.0 * math.sqrt(n))
    left, right = half_weight_partition(g)
    place = np.arange(n)  # vertex v is bit v - 1 of a mask
    left_verts = np.flatnonzero(left.mask >> place & 1) + 1
    right_verts = np.flatnonzero(right.mask >> place & 1) + 1
    w_lr = g.weight_matrix.take(left_verts, 0).take(right_verts, 1)

    size = len(left_verts)
    best_stat = -math.inf
    stat_met = False
    for t in range(trial_budget):  # budget >= 1, and the first trial beats best_stat
        picks = bits(draws(rng_seed, t * size, size))
        cols = picks @ w_lr
        stat = float(np.abs(cols).sum())
        if stat > best_stat + slack:
            best_stat = stat
            best_picks = picks
            best_cols = cols
        if stat >= stat_threshold - slack:
            stat_met = True
            break

    if not stat_met and n <= ENUMERATION_CAP:
        (mx, cut_hi), (mn, cut_lo) = extreme_cuts(g, g.vertices)
        cut, case = cut_hi if abs(mx) >= abs(mn) - slack else cut_lo, "brute_fallback"
    else:
        # The three cases on the edge columns: label 1 marks the sample, 2 the
        # chosen columns, 0 the rest, so an edge's label xor is 1 for sample-rest,
        # 2 for chosen-rest and 3 for sample-chosen.
        label = np.zeros(n + 1, dtype=np.int8)
        label[left_verts[best_picks > 0]] = 1
        plus = best_cols >= -slack
        plus_total = float(best_cols[plus].sum())
        minus_total = -float(best_cols[~plus].sum())
        side_sign = 1.0 if plus_total >= minus_total - slack else -1.0
        label[right_verts[plus == (side_sign > 0)]] = 2  # the chosen sign's columns
        i, j, w = g._columns
        pair = label[i] ^ label[j]
        if side_sign * column_sum(w[pair == 1]) >= -case_threshold - slack:
            bit, case = 1, "case1"
        elif side_sign * column_sum(w[pair == 2]) >= -case_threshold - slack:
            bit, case = 2, "case2"
        else:
            bit, case = 3, "case3"
        in_u = (label & bit) > 0
        u = VertexSubset(int((1 << place[in_u[1:]]).sum()))
        weight = column_sum(w[in_u[i] != in_u[j]])  # cut_weight(g, g.vertices, u)
        cut = Cut(ground_set=g.vertices, side=u, weight=weight)
    meets = abs(cut.weight) >= bound - slack
    if stat_met and not meets:  # never on the fallback, which runs only when not stat_met
        raise InvariantViolationError(
            f"cut weight {cut.weight} misses the bound {bound} although the sampled "
            f"discrepancy threshold was met; this indicates a bug"
        )
    return CutSearchResult(cut, bound, meets, trials_used=t + 1, case_taken=case)


_TABLE_CAP = 16  # subset masks and pair indices fit in uint16
# Max (subset, side) pairs per kernel step, unless one group is larger; a step
# holds four float temporaries of its length, 32 KiB each.
_PAIR_CHUNK = 1 << 12


@dataclass(frozen=True)
class _PairChunk:
    """Whole subset groups of the all-subset table, as read-only index arrays.

    Group t is the subset xs[t] with one side of each of its cuts: pairs
    starts[t] .. starts[t] + reps[t] - 1 of sub/rest, with sub | rest = xs[t],
    sub & rest = 0 and the top set bit of xs[t] in rest.
    """

    xs: np.ndarray  # uint16 subset masks, one per group
    reps: np.ndarray  # group sizes 2^(|xs| - 1), and 1 for the empty subset
    sub: np.ndarray  # uint16 side masks without the top bit of xs, one per pair
    rest: np.ndarray  # uint16 complements xs ^ sub, one per pair
    starts: np.ndarray  # group offsets within this chunk, for reduceat


@functools.cache
def _build_pair_chunks(n: int) -> tuple[_PairChunk, ...]:
    """One (subset, side) pair per cut over n vertices, grouped by subset, in chunks.

    The side sub of subset x runs over the submasks of x without its top set
    bit, so sub and rest = x ^ sub meet each cut of x once, and the empty
    subset keeps its (0, 0) pair: (3^n + 1) / 2 pairs.  Groups run by
    popcount, then by mask, so group sizes never decrease and a chunk packs
    whole groups up to _PAIR_CHUNK pairs.  The pairs depend only on n, not on
    the graph.
    """
    masks = np.arange(1 << n, dtype=np.uint16)
    pop = sum((masks >> b) & 1 for b in range(n))
    sub = np.empty((3**n + 1) // 2, dtype=np.uint16)
    rest = np.empty_like(sub)
    by_pop = [masks[pop == k] for k in range(n + 1)]
    xs = np.concatenate(by_pop)
    reps = np.concatenate([np.full(len(xk), 1 << max(k - 1, 0)) for k, xk in enumerate(by_pop)])
    offset = 0
    for k, xk in enumerate(by_pop):
        # Submasks by doubling over the set bits of each mask, lowest first,
        # all but the top one.
        s = np.zeros((len(xk), 1), dtype=np.uint16)
        remaining = xk.copy()
        for _ in range(k - 1):
            low = remaining & -remaining
            remaining ^= low
            s = np.concatenate([s, s | low[:, None]], axis=1)
        sub[offset : offset + s.size] = s.ravel()
        rest[offset : offset + s.size] = (xk[:, None] ^ s).ravel()
        offset += s.size
    ends = np.cumsum(reps)
    starts = ends - reps
    for a in (xs, reps, sub, rest):
        a.setflags(write=False)
    chunks = []
    g0 = 0
    while g0 < len(xs):
        g1 = max(g0 + 1, int(np.searchsorted(ends, starts[g0] + _PAIR_CHUNK, side="right")))
        p0, p1 = starts[g0], ends[g1 - 1]
        local = starts[g0:g1] - p0
        local.setflags(write=False)
        chunks.append(
            _PairChunk(xs[g0:g1], reps[g0:g1], sub[p0:p1], rest[p0:p1], local)
        )
        g0 = g1
    return tuple(chunks)


def all_subset_cut_extremes(g: SignedWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(max, min) signed cut weight of every induced subgraph, indexed by subset mask.

    Entry [mask] covers the subgraph induced by {v : bit v-1 of mask}.  Each
    (subset x, side u) pair over the vertices gives the cut weight
    gamma(x) - gamma(u) - gamma(x minus u), reduced per x, so n <= 16.  The
    index holds one of u and x minus u, and each pair computes the double of
    both orders of subtraction, so the extremes run over the same doubles as
    all 3^n pairs and are exact: the tables are bit-identical to a
    pair-by-pair loop that starts from 0.0 and compares strictly.
    """
    n = g.n
    if n > _TABLE_CAP:
        raise CapacityError(f"all-subset cut table needs n <= {_TABLE_CAP}, got {n}")
    gam = all_subset_gamma(g)
    mu_plus = np.empty(1 << n)
    mu_minus = np.empty(1 << n)
    for c in _build_pair_chunks(n):
        gx = np.repeat(gam.take(c.xs), c.reps)
        b = gam.take(c.sub)
        r = gam.take(c.rest)
        one = gx - b
        one -= r  # the pair's cut, (gx - b) - r
        gx -= r
        gx -= b  # its complement's, (gx - r) - b
        mu_plus.put(c.xs, np.fmax.reduceat(np.fmax(one, gx, out=b), c.starts))
        mu_minus.put(c.xs, np.fmin.reduceat(np.fmin(one, gx, out=r), c.starts))
    # Every group holds the empty side, whose cut is exactly +0.0, so no bound
    # needs a clamp at 0.0; + 0.0 turns a -0.0 extreme into 0.0.
    return mu_plus + 0.0, mu_minus + 0.0


def all_subset_gamma(g: SignedWeightedGraph, absolute: bool = False) -> np.ndarray:
    """gamma weight (or absolute gamma weight) of every subset mask; n <= 16."""
    n = g.n
    if n > _TABLE_CAP:
        raise CapacityError(f"all-subset gamma table needs n <= {_TABLE_CAP}, got {n}")
    w = g.weight_matrix[1:, 1:]
    return subset_gamma(np.abs(w) if absolute else w)


_PRODUCT_BITS = 10  # tables up to this many bits come from one bit_matrix product


@functools.cache
def _mask_table(k: int) -> np.ndarray:
    """Read-only row-major (2^k, k + 1) float table; row m is the bits of mask m, then 1.

    bit_matrix(k) is its first k columns and the hull LP's [bits; 1] its
    transpose.  Row-major keeps the sum order of a plain (2^k, k) bit_matrix.
    """
    table = np.ones((1 << k, k + 1))
    table[:, :k] = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    table.setflags(write=False)
    return table


def bit_matrix(k: int) -> np.ndarray:
    """(2^k, k) 0/1 view, bit p of mask m in row m, column p; _mask_table(k) holds the cache."""
    return _mask_table(k)[:, :k]


def _form_operands(q: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) of dtype with (left @ right)[r, a] = 1/2 b^T q b at mask b = (r << h) + a.

    q is symmetric k x k, k >= 0; A is the low h = ceil(k / 2) bits and B the
    rest.  Row r of left is [bb | form_B | 1] and column a of right is
    [q_BA ba | 1 | form_A], with the halves' forms from subset_gamma and both
    halves' bits from bit_matrix(h), all computed in float64 and stored
    rounded to dtype.  The cross term is built in _CHUNK_ENTRIES pieces.
    """
    k = len(q)
    h = (k + 1) // 2
    kb = k - h
    ba = bit_matrix(h)
    left = np.empty((1 << kb, kb + 2), dtype)
    left[:, :kb] = ba[: 1 << kb, :kb]
    left[:, kb] = subset_gamma(q[h:, h:])
    left[:, kb + 1] = 1.0
    right = _aligned_empty((kb + 2, 1 << h), dtype)
    step = _CHUNK_ENTRIES // max(h, 1)
    for start in range(0, 1 << h, step):
        np.matmul(q[h:, :h], ba[start : start + step].T, out=right[:kb, start : start + step])
    right[kb] = 1.0
    right[kb + 1] = subset_gamma(q[:h, :h])
    return left, right


def _aligned_empty(shape: tuple[int, int], dtype: type) -> np.ndarray:
    """np.empty(shape, dtype) starting on a 64-byte boundary, one AVX-512 vector."""
    raw = np.empty(shape[0] * shape[1] * np.dtype(dtype).itemsize + 64, np.uint8)
    return raw[-raw.ctypes.data % 64 :][: raw.size - 64].view(dtype).reshape(shape)


def _form_scan(q: np.ndarray, dtype: type = np.float64) -> tuple[Callable, range]:
    """(product, starts): the forms 1/2 b^T q b of all 2^k masks b, one block at a time.

    product(i) writes block i, the masks from starts[i] on in ascending order,
    into one reused buffer (row-major, at most _BLOCK_BYTES, so each product
    runs on one OpenBLAS thread) as one product of _form_operands(q, dtype),
    and returns it; the next call overwrites it.  The buffer and the right
    operand start on 64-byte boundaries: off them, the same products ran up
    to 1.8x slower, so the speed depended on where the heap put them.
    """
    left, right = _form_operands(q, dtype)
    half, width = len(left), right.shape[1]
    rows = max(1, _BLOCK_BYTES // (width * right.itemsize))
    block = _aligned_empty((min(rows, half), width), dtype)  # a short last block uses its top

    def product(i: int) -> np.ndarray:
        start = i * rows
        return np.matmul(left[start : start + rows], right, out=block[: min(rows, half - start)])

    return product, range(0, half * width, rows * width)


def subset_gamma(q: np.ndarray) -> np.ndarray:
    """1/2 b(m)^T q b(m) for every subset mask m of a symmetric k x k block (bit p <-> row p).

    With a zero diagonal this is the gamma weight of each mask; a diagonal
    entry 2t adds t to every mask holding its row.  Up to 10 bits the table is
    one bit_matrix product; above, it is _form_scan's float64 blocks.
    """
    k = len(q)
    if k <= _PRODUCT_BITS:
        bits = bit_matrix(k)
        return 0.5 * np.einsum("mk,mk->m", bits @ q, bits)
    product, starts = _form_scan(q)
    gam = np.empty(1 << k)
    for i, start in enumerate(starts):  # a short last block fills the rest
        gam[start : start + starts.step] = product(i).ravel()
    return gam

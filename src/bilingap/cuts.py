"""Exact cut oracles and a seeded randomized search for provably large cuts.

extreme_cuts enumerates every cut of an induced subgraph once (meet in the
middle, vectorized, capped at 26 vertices) and returns both extremes with
witnesses; max/min_cut_bruteforce and cut_range_bruteforce are views of it.
find_large_cut returns a cut of the whole graph whose absolute signed weight
is at least total_abs_weight / (600 sqrt(n)), by sampling subsets of one side
of a half-weight partition until the sampled aggregate discrepancy is large
enough and then resolving one of three constructive cases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import CapacityError, InputError, InvariantViolationError
from .graph import (
    Cut, SignedWeightedGraph, VertexSubset, _check_subset, _is_int, cross_weight, cut_weight
)
from .rng import bits, draws
from .simplex import bit_matrix, sign_matrix

ENUMERATION_CAP = 26
_BLOCK_ENTRIES = 1 << 18  # max float64 entries per enumeration block (2 MiB, one L2)


def _normalize_side(mask: int, full: int) -> int:
    """Canonical witness side of a cut: fewer vertices, ties to the smaller mask."""
    comp = full & ~mask
    a, b = mask.bit_count(), comp.bit_count()
    if a != b:
        return mask if a < b else comp
    return min(mask, comp)


def _cut_extremes(g: SignedWeightedGraph, x: VertexSubset) -> tuple[int, int]:
    """(max witness mask, min witness mask) over the cuts of the subgraph induced by x.

    Masks are over positions of the ascending vertex list of x.  Each is the
    first attaining mask in ascending enumeration order.

    Only masks with the top position on side 0 are walked: half of them.  A
    mask and its complement are the same cut, and negating a +/-1 sign row
    negates every product exactly, so both get the same double.  An
    attaining mask with the top bit set has a smaller complement that
    attains too, so the first attaining mask always lies in the walked half.
    """
    verts = sorted(x.members)
    k = len(verts)
    if k > ENUMERATION_CAP:
        raise CapacityError(
            f"cut enumeration over {k} vertices exceeds the cap of {ENUMERATION_CAP}"
        )
    if k <= 1:
        return 0, 0
    w_sub = g.weight_matrix[np.ix_(verts, verts)]
    total = float(np.triu(w_sub, 1).sum())
    h = k // 2
    kb = k - h
    sa = sign_matrix(h)
    sb = sign_matrix(kb)
    w_aa = w_sub[:h, :h]
    w_bb = w_sub[h:, h:]
    w_ab = w_sub[:h, h:]
    qa = 0.5 * np.einsum("mp,pq,mq->m", sa, w_aa, sa)
    qb = 0.5 * np.einsum("mp,pq,mq->m", sb, w_bb, sb)
    va = sa @ w_ab  # row mA: contributions against each B position
    rows_per_block = max(1, _BLOCK_ENTRIES >> h)
    half = 1 << (kb - 1)  # B rows whose top vertex is on side 0
    best_max = -math.inf
    best_max_mask = 0
    best_min = math.inf
    best_min_mask = 0
    for start in range(0, half, rows_per_block):
        stop = min(start + rows_per_block, half)
        # the same doubles as (total - (qb + qa + cross)) * 0.5, computed in place
        cuts = qb[start:stop, None] + qa[None, :]
        cuts += sb[start:stop] @ va.T
        np.subtract(total, cuts, out=cuts)
        cuts *= 0.5
        flat_max = int(np.argmax(cuts))
        val = float(cuts.flat[flat_max])
        if val > best_max:
            best_max = val
            best_max_mask = ((start + flat_max // (1 << h)) << h) | (flat_max % (1 << h))
        flat_min = int(np.argmin(cuts))
        val = float(cuts.flat[flat_min])
        if val < best_min:
            best_min = val
            best_min_mask = ((start + flat_min // (1 << h)) << h) | (flat_min % (1 << h))
    return best_max_mask, best_min_mask


def extreme_cuts(
    g: SignedWeightedGraph, x: VertexSubset
) -> tuple[tuple[float, Cut], tuple[float, Cut]]:
    """((max weight, its cut), (min weight, its cut)) over the subgraph induced by x.

    One enumeration pass over every cut including the empty one, so the
    maximum is >= 0 and the minimum <= 0.  Each witness is the first
    attaining side in ascending bitmask order, reported as the smaller side
    of the cut (ties to the smaller bitmask), and each weight is recomputed
    edge by edge with cut_weight.
    """
    _check_subset(g, x)
    verts = sorted(x.members)
    full = (1 << len(verts)) - 1
    mx_mask, mn_mask = _cut_extremes(g, x)

    def witness(mask: int) -> tuple[float, Cut]:
        mask = _normalize_side(mask, full)
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
    the crossing total is at least half the graph total.  Sides are labeled so
    vertex 1 is in left.
    """
    n = g.n
    abs_w = np.abs(g.weight_matrix)
    with np.errstate(over="ignore"):  # left to right, so an overflowing total is inf as before
        incident = np.cumsum(abs_w, axis=1)[:, -1].tolist()
    rows = abs_w.tolist()  # a zero entry (no edge) leaves to_cross unchanged
    side = [0] * (n + 1)
    to_cross = [0.0] * (n + 1)  # |weight| from v to the opposite side
    move_cap = n * max(1, g.num_edges) + n + 1
    moves = 0
    changed = True
    while changed and moves <= move_cap:
        changed = False
        for v in range(1, n + 1):
            if 2.0 * to_cross[v] < incident[v]:
                sv = side[v] = side[v] ^ 1
                to_cross[v] = incident[v] - to_cross[v]
                to_cross = [t - a if s == sv else t + a for t, a, s in zip(to_cross, rows[v], side)]
                moves += 1
                changed = True
    left = VertexSubset.from_members(v for v in range(1, n + 1) if side[v] == side[1])
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


_SLACK = 1e-12  # absolute float slack applied toward accepting at each threshold


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
    if not _is_int(trial_budget) or trial_budget < 1:
        raise InputError(f"trial budget must be an integer >= 1, got {trial_budget!r}")
    n = g.n
    total = g.total_abs_weight
    bound = total / (600.0 * math.sqrt(n))
    stat_threshold = total / (200.0 * math.sqrt(n))
    case_threshold = total / (1200.0 * math.sqrt(n))
    left, right = half_weight_partition(g)
    left_verts = sorted(left.members)
    right_verts = sorted(right.members)
    w_lr = g.weight_matrix[np.ix_(left_verts, right_verts)]

    size = len(left_verts)
    best_stat = -1.0
    best_picks = np.zeros(size)
    best_cols = np.zeros(len(right_verts))
    trials = 0
    stat_met = False
    for t in range(trial_budget):
        trials += 1
        picks = bits(draws(rng_seed, t * size, size))
        cols = picks @ w_lr
        stat = float(np.abs(cols).sum())
        if stat > best_stat:
            best_stat = stat
            best_picks = picks
            best_cols = cols
        if stat >= stat_threshold - _SLACK:
            stat_met = True
            break

    if not stat_met and n <= ENUMERATION_CAP:
        (mx, cut_hi), (mn, cut_lo) = extreme_cuts(g, g.vertices)
        cut = cut_hi if abs(mx) >= abs(mn) else cut_lo
        return CutSearchResult(
            cut=cut,
            bound=bound,
            meets_guarantee=abs(cut.weight) >= bound - _SLACK,
            trials_used=trials,
            case_taken="brute_fallback",
        )

    sample = VertexSubset.from_members(v for v, pick in zip(left_verts, best_picks) if pick)
    plus_total = float(best_cols[best_cols >= 0].sum())
    minus_total = -float(best_cols[best_cols < 0].sum())
    side_sign = 1.0 if plus_total >= minus_total else -1.0
    picked = (best_cols >= 0) == (side_sign > 0)  # the columns on the chosen sign's side
    chosen = VertexSubset.from_members(compress(right_verts, picked.tolist()))
    rest = g.vertices.difference(sample.union(chosen))
    sample_rest = cross_weight(g, sample, rest)
    chosen_rest = cross_weight(g, chosen, rest)
    if side_sign * sample_rest >= -case_threshold - _SLACK:
        u = sample
        case = "case1"
    elif side_sign * chosen_rest >= -case_threshold - _SLACK:
        u = chosen
        case = "case2"
    else:
        u = sample.union(chosen)
        case = "case3"
    weight = cut_weight(g, g.vertices, u)
    meets = abs(weight) >= bound - _SLACK
    if stat_met and not meets:
        raise InvariantViolationError(
            f"cut weight {weight} misses the bound {bound} although the sampled "
            f"discrepancy threshold was met; this indicates a bug"
        )
    return CutSearchResult(
        cut=Cut(ground_set=g.vertices, side=u, weight=weight),
        bound=bound,
        meets_guarantee=meets,
        trials_used=trials,
        case_taken=case,
    )


_TABLE_CAP = 16  # subset masks and pair indices fit in uint16
_PAIR_CHUNK = 1 << 13  # max (subset, side) pairs per kernel step, unless one group is larger


@dataclass(frozen=True)
class _PairChunk:
    """Whole subset groups of the all-subset table, as read-only index arrays.

    Group t is the subset xs[t] with all of its submasks: pairs
    starts[t] .. starts[t] + reps[t] - 1 of sub/rest, with sub | rest = xs[t]
    and sub & rest = 0.
    """

    xs: np.ndarray  # uint16 subset masks, one per group
    reps: np.ndarray  # group sizes 2^|xs|
    sub: np.ndarray  # uint16 side masks, one per pair
    rest: np.ndarray  # uint16 complements xs ^ sub, one per pair
    starts: np.ndarray  # group offsets within this chunk, for reduceat


@functools.cache
def _build_pair_chunks(n: int) -> tuple[_PairChunk, ...]:
    """Every (subset, side) pair over n vertices, grouped by subset, in chunks.

    Groups run by popcount, then by mask, so group sizes never decrease and a
    chunk packs whole groups up to _PAIR_CHUNK pairs.  The 3^n pairs depend
    only on n, not on the graph.
    """
    masks = np.arange(1 << n, dtype=np.uint16)
    pop = sum((masks >> b) & 1 for b in range(n))
    sub = np.empty(3**n, dtype=np.uint16)
    rest = np.empty(3**n, dtype=np.uint16)
    by_pop = [masks[pop == k] for k in range(n + 1)]
    xs = np.concatenate(by_pop)
    reps = np.concatenate([np.full(len(xk), 1 << k) for k, xk in enumerate(by_pop)])
    offset = 0
    for k, xk in enumerate(by_pop):
        # Submasks by doubling over the set bits of each mask, lowest first.
        s = np.zeros((len(xk), 1), dtype=np.uint16)
        remaining = xk.copy()
        for _ in range(k):
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
    of the 3^n (subset x, side u) pairs gives the cut weight
    gamma(x) - gamma(u) - gamma(x minus u), reduced per x, so n <= 16.
    The extremes of the same doubles are exact: the tables are bit-identical
    to a pair-by-pair loop that starts from 0.0, compares strictly and skips
    NaN (the overflow case).
    """
    n = g.n
    if n > _TABLE_CAP:
        raise CapacityError(f"all-subset cut table needs n <= {_TABLE_CAP}, got {n}")
    gam = all_subset_gamma(g)
    mu_plus = np.empty(1 << n)
    mu_minus = np.empty(1 << n)
    for c in _build_pair_chunks(n):
        val = np.repeat(gam[c.xs], c.reps) - gam[c.sub]
        val -= gam[c.rest]
        mu_plus[c.xs] = np.fmax.reduceat(val, c.starts)
        mu_minus[c.xs] = np.fmin.reduceat(val, c.starts)
    # The empty side's 0.0 bounds both tables; + 0.0 turns -0.0 into 0.0.
    return np.fmax(mu_plus, 0.0) + 0.0, np.fmin(mu_minus, 0.0) + 0.0


def all_subset_gamma(g: SignedWeightedGraph, absolute: bool = False) -> np.ndarray:
    """gamma weight (or absolute gamma weight) of every subset mask; n <= 16."""
    n = g.n
    if n > _TABLE_CAP:
        raise CapacityError(f"all-subset gamma table needs n <= {_TABLE_CAP}, got {n}")
    w = g.weight_matrix[1:, 1:]
    return subset_gamma(np.abs(w) if absolute else w)


def subset_gamma(w: np.ndarray) -> np.ndarray:
    """gamma weight of every subset mask of a symmetric k x k weight block (bit p <-> row p)."""
    bits = bit_matrix(len(w))
    return 0.5 * np.einsum("mk,mk->m", bits @ w, bits)

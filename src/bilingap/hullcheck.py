"""Decide whether the termwise McCormick relaxation is already the convex hull.

The projected relaxation equals the convex hull of the bilinear function's
graph exactly when every cycle has an even number of positive edges and an
even number of negative edges, i.e. when the vertices take 2-bit labels that
every negative edge flips in bit 0 and every positive edge in bit 1.  One BFS
labeling decides both parities in linear time; the first edge that breaks a
bit closes an explicit simple cycle with the offending odd parity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cuts import cut_range_bruteforce
from .errors import InvariantViolationError
from .graph import _SLACK, SignedWeightedGraph, VertexSubset, gamma_abs_weight


@dataclass(frozen=True)
class ViolatingCycle:
    """Simple cycle witnessing non-exactness, with its sign composition."""

    vertices: tuple[int, ...]
    positive_edges: int
    negative_edges: int


@dataclass(frozen=True)
class HullExactness:
    """Outcome of the exactness decision.

    positive_coloring keeps every positive edge monochromatic and every
    negative edge bichromatic (certifying even negative counts on all cycles);
    negative_coloring is the mirror image.  A failed side is None, and then
    violating_cycle carries a cycle with odd count of the corresponding sign.
    """

    exact: bool
    positive_coloring: dict[int, int] | None
    negative_coloring: dict[int, int] | None
    violating_cycle: ViolatingCycle | None

    def to_json_dict(self) -> dict:
        out = {
            "exact": self.exact,
            "positive_coloring": _coloring_json(self.positive_coloring),
            "negative_coloring": _coloring_json(self.negative_coloring),
            "violating_cycle": None,
            "violating_cycle_edge_counts": None,
        }
        cycle = self.violating_cycle
        if cycle is not None:
            out["violating_cycle"] = list(cycle.vertices)
            counts = {"positive": cycle.positive_edges, "negative": cycle.negative_edges}
            out["violating_cycle_edge_counts"] = counts
        return out


def _coloring_json(coloring: dict[int, int] | None) -> dict[str, int] | None:
    """Coloring with string vertex keys in ascending vertex order, or None."""
    return None if coloring is None else {str(v): c for v, c in sorted(coloring.items())}


def _extract_cycle(
    g: SignedWeightedGraph, parent: dict[int, int], u: int, v: int
) -> ViolatingCycle:
    """Simple cycle through edge (u, v) closing over the BFS tree paths to their meet."""
    up_u = [u]
    while parent[up_u[-1]]:
        up_u.append(parent[up_u[-1]])
    ancestors = {x: idx for idx, x in enumerate(up_u)}
    path_v = [v]
    while path_v[-1] not in ancestors:
        path_v.append(parent[path_v[-1]])
    meet = path_v[-1]
    cycle = up_u[: ancestors[meet] + 1] + path_v[-2::-1]  # u .. meet, then back down to v
    pos = neg = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        w = g.weight(a, b)
        if w > 0:
            pos += 1
        elif w < 0:
            neg += 1
        else:
            raise InvariantViolationError(f"cycle step ({a}, {b}) is not an edge")
    return ViolatingCycle(vertices=tuple(cycle), positive_edges=pos, negative_edges=neg)


def check_hull_exact(g: SignedWeightedGraph) -> HullExactness:
    """Decide hull exactness by the even-positive/even-negative cycle criterion.

    One BFS in O(n + |edges|), roots and neighbors ascending, labels each
    vertex with two bits: bit 0 is the positive coloring and bit 1 the
    negative one, None where some edge breaks it.  The violating cycle closes
    the first edge in BFS order that breaks bit 0 (odd negative count), else
    bit 1 (odd positive count), over the BFS tree.
    """
    adj = g.adjacency
    label: dict[int, int] = {}
    parent: dict[int, int] = {}
    first: dict[int, tuple[int, int]] = {}  # bit -> first edge (u, v) that breaks it
    for root in range(1, g.n + 1):
        if root in label:
            continue
        label[root] = 0
        parent[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in adj[u]:
                want = label[u] ^ (1 if w < 0 else 2)
                if v not in label:
                    label[v] = want
                    parent[v] = u
                    queue.append(v)
                elif label[v] != want:
                    for bit in (0, 1):
                        if (label[v] ^ want) >> bit & 1:
                            first.setdefault(bit, (u, v))
    pos_coloring, neg_coloring = (
        None if bit in first else {v: x >> bit & 1 for v, x in label.items()} for bit in (0, 1)
    )
    edge = first.get(0) or first.get(1)
    cycle = None if edge is None else _extract_cycle(g, parent, *edge)
    return HullExactness(not first, pos_coloring, neg_coloring, cycle)


def verify_exactness_numerically(g: SignedWeightedGraph, x: VertexSubset) -> bool:
    """Check mu_plus(X) - mu_minus(X) = |gamma|(X) within _SLACK * total |weight| by enumeration.

    Exactness of the hull is equivalent to this identity holding for every
    subset; this verifies one subset (enumeration cap 26 vertices).  X = V
    alone decides exactness: if cuts u1 and u2 attain cut(u1) - cut(u2) =
    |gamma|(V), every edge term w_e (cut_e(u1) - cut_e(u2)) is at its bound
    |w_e|, so their restrictions to any X attain |gamma|(X) there too.  Within
    the slack only: if deleting edges of total |weight| at most _SLACK * total
    / 2 makes the graph exact, it reads exact here.
    """
    mu_plus, mu_minus = cut_range_bruteforce(g, x)
    return abs((mu_plus - mu_minus) - gamma_abs_weight(g, x)) <= _SLACK * g.total_abs_weight

"""Decide whether the termwise McCormick relaxation is already the convex hull.

The projected relaxation equals the convex hull of the bilinear function's
graph exactly when every cycle has an even number of positive edges and an
even number of negative edges.  Both parities are decided in linear time by
constraint-propagation two-colorings; a failed propagation yields an explicit
simple cycle with the offending odd parity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cuts import cut_range_bruteforce
from .errors import InvariantViolationError
from .graph import SignedWeightedGraph, VertexSubset, gamma_abs_weight


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


def _propagate(g: SignedWeightedGraph, cross_negative: bool):
    """Two-coloring where edges of one sign must cross and the other must not.

    cross_negative True: negative edges bichromatic, positive monochromatic.
    Returns (coloring, None) on success or (None, ViolatingCycle) on conflict.
    BFS from ascending roots with ascending neighbor order, so the outcome is
    deterministic and conflict cycles are reproducible.
    """
    n = g.n
    adj = g.adjacency
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    for root in range(1, n + 1):
        if root in color:
            continue
        color[root] = 0
        parent[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in adj[u]:
                must_differ = (w < 0) if cross_negative else (w > 0)
                want = color[u] ^ int(must_differ)
                if v not in color:
                    color[v] = want
                    parent[v] = u
                    queue.append(v)
                elif color[v] != want:
                    return None, _extract_cycle(g, parent, u, v)
    return color, None


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

    Runs both parity colorings in O(n + |edges|).  If either fails the result
    carries a simple violating cycle from the first failing side (odd negative
    count if the positive coloring failed, else odd positive count).
    """
    pos_coloring, pos_conflict = _propagate(g, cross_negative=True)
    neg_coloring, neg_conflict = _propagate(g, cross_negative=False)
    exact = pos_conflict is None and neg_conflict is None
    return HullExactness(
        exact=exact,
        positive_coloring=pos_coloring,
        negative_coloring=neg_coloring,
        violating_cycle=pos_conflict or neg_conflict,
    )


def verify_exactness_numerically(
    g: SignedWeightedGraph, x: VertexSubset, tolerance: float = 1e-9
) -> bool:
    """Check mu_plus(X) - mu_minus(X) = total |weight| inside X by exact enumeration.

    Exactness of the hull is equivalent to this identity holding for every
    subset; this verifies one subset (enumeration cap 26 vertices).
    """
    mu_plus, mu_minus = cut_range_bruteforce(g, x)
    return abs((mu_plus - mu_minus) - gamma_abs_weight(g, x)) <= tolerance

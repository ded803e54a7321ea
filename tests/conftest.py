"""Shared test oracles: pure-python cut enumeration, LP and splitmix64 references.

The oracles here deliberately avoid the library's vectorized code paths so
tests compare two independent routes to the same quantity.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilingap.graph import SignedWeightedGraph, VertexSubset

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# When a @given test fails, hypothesis imports its patch writer and with it
# libcst, whose import warns with a DeprecationWarning (mypy_extensions'
# TypedDict); the test settings make that an error, which ends the whole
# session before any later test runs.  Importing it once here, with that
# warning ignored, makes the later import a cache hit.  No filter changes.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst, or a hypothesis without the patch writer
        pass


TRIANGLE = SignedWeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))


def strip_wall_times(text: str) -> str:
    """Experiment output (CSV, or JSON lines) without its wall_time_ms fields."""
    lines = text.splitlines()
    if not lines:
        return text
    if lines[0].startswith("{"):
        out = []
        for line in lines:
            obj = json.loads(line)
            for val in obj.values():
                if isinstance(val, dict):
                    val.pop("wall_time_ms", None)
            out.append(json.dumps(obj))
        return "\n".join(out)
    header = lines[0].split(",")
    if "wall_time_ms" not in header:
        return text
    drop = header.index("wall_time_ms")
    return "\n".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines
    )


def enumerate_cut_values(g: SignedWeightedGraph, x: VertexSubset) -> dict[int, float]:
    """mask -> signed cut weight inside x, by direct edge scanning."""
    verts = sorted(x.members)
    pos = {v: p for p, v in enumerate(verts)}
    inside = [(i, j, w) for i, j, w in g.edges if i in pos and j in pos]
    out = {}
    for mask in range(1 << len(verts)):
        total = 0.0
        for i, j, w in inside:
            if (mask >> pos[i] & 1) != (mask >> pos[j] & 1):
                total += w
        out[mask] = total
    return out


def subset_weights_reference(
    g: SignedWeightedGraph, x: VertexSubset, u: VertexSubset, a: VertexSubset, b: VertexSubset
) -> tuple[float, float, float, float]:
    """(gamma(x), |gamma|(x), cut of x by u, weight across a and b) by per-edge loops.

    Each loop shifts and tests both endpoints of every edge and totals the
    selected weights left to right from 0.0; u lies inside x, a and b are
    disjoint.
    """
    xm, um, am, bm = x.mask, u.mask, a.mask, b.mask
    gamma = gamma_abs = cut = cross = 0.0
    for i, j, w in g.edges:
        bi, bj = i - 1, j - 1
        if xm >> bi & 1 and xm >> bj & 1:
            gamma += w
            gamma_abs += abs(w)
            if (um >> bi & 1) != (um >> bj & 1):
                cut += w
        if (am >> bi & 1 and bm >> bj & 1) or (am >> bj & 1 and bm >> bi & 1):
            cross += w
    return gamma, gamma_abs, cut, cross


def oracle_mu(g: SignedWeightedGraph, x: VertexSubset) -> tuple[float, float]:
    """(mu_plus, mu_minus) inside x via the pure-python enumeration."""
    vals = enumerate_cut_values(g, x)
    return max(vals.values()), min(vals.values())


def oracle_hull(g: SignedWeightedGraph, coords) -> tuple[float, float]:
    """(cav, vex) at coords via scipy's HiGHS over all 2^n cube vertices, costs built per edge."""
    from scipy.optimize import linprog

    n = g.n
    verts = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    c = np.zeros(1 << n)
    for i, j, w in g.edges:
        c += w * verts[:, i - 1] * verts[:, j - 1]
    a_eq = np.vstack([np.ones(1 << n), verts.T])
    b_eq = np.concatenate([[1.0], np.asarray(coords, dtype=np.float64)])
    lo = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    hi = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert lo.status == 0 and hi.status == 0
    return -hi.fun, lo.fun


def random_int_graph(
    seed: int, n: int, low: int = -5, high: int = 5, edge_prob: float = 0.6
) -> SignedWeightedGraph:
    """Random graph with nonzero integer weights in [low, high], seeded."""
    rnd = random.Random(seed)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rnd.random() < edge_prob:
                w = 0
                while w == 0:
                    w = rnd.randint(low, high)
                edges.append((i, j, float(w)))
    return SignedWeightedGraph(n, tuple(edges))


def assert_same_graph(got: SignedWeightedGraph, want: SignedWeightedGraph) -> None:
    """got equals want bit for bit: edges (as int, int, float), matrix, totals and caches."""
    assert (got.n, got.edges) == (want.n, want.edges)
    assert [type(v) for e in got.edges for v in e] == [int, int, float] * got.num_edges
    assert got.weight_matrix.tobytes() == want.weight_matrix.tobytes()
    assert got.total_abs_weight.hex() == want.total_abs_weight.hex()
    assert got.pair_masks == want.pair_masks
    assert got.adjacency == want.adjacency


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """The first count splitmix64 outputs of seed, stepped one at a time on Python ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


ACCEPTANCE_RESULTS: list[tuple[str, str, bool, str]] = []


def record_acceptance(criterion: str, name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {criterion} [{name}]: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def tmp_instance_file(tmp_path):
    def _write(g: SignedWeightedGraph, name: str = "inst.json"):
        from bilingap.graph import write_instance

        path = tmp_path / name
        write_instance(g, path)
        return path

    return _write


@pytest.fixture
def enumeration_calls(monkeypatch):
    """Ground sets passed to the cut-enumeration kernel during the test, in call order."""
    from bilingap import cuts

    calls = []
    kernel = cuts._cut_extremes

    def counted(g, x):
        calls.append(x)
        return kernel(g, x)

    monkeypatch.setattr(cuts, "_cut_extremes", counted)
    return calls


def load_bench_module(stem: str):
    """bench/<stem>.py as a fresh module; the bench directory is no package."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH_DIR / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module

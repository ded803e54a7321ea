"""The four bench workloads: inputs from a seed, one timed pass, and the output check.

Each workload draws its pass from a fixed reference pool whose outputs are
stored under ``refs/``.  The run seed only picks which part of the pool a pass
covers, so every output a pass produces has a stored reference, and passes of
different seeds do nearly the same amount of work.

* Experiment workloads (``sweep``, ``census``, ``cutstress``) call
  ``bilingap.experiments.run_experiment`` with a window of instance seeds.
  The window starts at ``period * j`` for a seed-chosen ``j``; ``period`` is
  the cycle of the experiment's size/family assignment, so a record's inputs
  depend on its instance seed alone and the pool records serve every window.
* ``interior`` calls ``bilingap.envelopes.gap_report`` at general points.
  Its pool holds a few items per fractional dimension f.  In the two
  cheapest strata (f = 6, 7) the seed leaves one item out; the other strata
  run whole, because swapping one of their items would move the pass time by
  up to 5% (f = 8) or 10-40% (f = 9, 10).
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

WALL_COLUMN = "wall_time_ms"
TOLERANCE = 1e-9  # bilingap.simplex.TOLERANCE: the library's own LP tolerance


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment workload: a pool of instance seeds and the window a pass covers."""

    kind: str
    n_min: int
    n_max: int
    count: int  # num_instances of one pass
    period: int  # windows start at multiples of this
    windows: int  # number of distinct windows in the pool
    threads: int

    @property
    def pool_count(self) -> int:
        return self.count + self.period * (self.windows - 1)


@dataclass(frozen=True)
class InteriorSpec:
    """Strata of (f, items per pass, seed leaves one pool item out)."""

    strata: tuple[tuple[int, int, bool], ...]


SPECS = {
    "full": {
        "sweep": ExperimentSpec("ratio_sweep", 18, 24, 3, 1, 16, 1),
        "census": ExperimentSpec("hull_census", 3, 10, 100, 8, 16, 2),
        "cutstress": ExperimentSpec("cutfinder_stress", 10, 50, 492, 82, 8, 1),
        "interior": InteriorSpec(
            ((6, 8, True), (7, 8, True), (8, 8, False), (9, 1, False), (10, 1, False))
        ),
    },
    "tiny": {
        "sweep": ExperimentSpec("ratio_sweep", 18, 19, 1, 1, 16, 1),
        "census": ExperimentSpec("hull_census", 3, 10, 8, 8, 16, 2),
        "cutstress": ExperimentSpec("cutfinder_stress", 10, 50, 82, 82, 8, 1),
        "interior": InteriorSpec(((6, 1, False), (7, 1, False), (8, 1, False))),
    },
}
WORKLOADS = tuple(SPECS["full"])


# ---------------------------------------------------------------- experiments


def _row_seed(kind: str, row: dict) -> int | None:
    """Instance seed of a record, or None for the census's seed-free sign patterns."""
    if kind == "hull_census":
        ident = row["instance_id"]
        return int(ident.rsplit(":s", 1)[1]) if ident.startswith("random:") else None
    return int(row["instance_seed"])


def strip_wall(lines: list[str]) -> list[str]:
    """CSV lines without the wall_time_ms column, the one nondeterministic field."""
    header = lines[0].split(",")
    drop = header.index(WALL_COLUMN) if WALL_COLUMN in header else None
    if drop is None:
        return lines
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[:drop] + cells[drop + 1 :]))
    return out


class ExperimentWorkload:
    """A window of an experiment kind's pool, run through run_experiment and written as CSV."""

    def __init__(self, lib, name: str, spec: ExperimentSpec, seed: int, out_dir: Path):
        self.lib = lib
        self.name = name
        self.spec = spec
        self.threads = spec.threads
        self.out_path = out_dir / f"{name}.csv"
        self.config = lib.experiments.ExperimentConfig(
            kind=spec.kind,
            n_min=spec.n_min,
            n_max=spec.n_max,
            num_instances=spec.count,
            seed_base=spec.period * random.Random(seed).randrange(spec.windows),
            output_path=str(self.out_path),
            threads=spec.threads,
        )
        self.expected: list[str] | None = None

    def warm_up(self) -> None:
        """One untimed small run of the same kind: the smallest n, one instance, no file."""
        cfg = replace(self.config, n_max=self.spec.n_min, num_instances=1, output_path=None)
        self.lib.experiments.run_experiment(cfg)

    def load_reference(self, refs_dir: Path) -> None:
        """Pool rows (header first) restricted to this pass's window, in output order."""
        lines = (refs_dir / f"{self.name}.csv").read_text().splitlines()
        header = lines[0].split(",")
        lo = self.config.seed_base
        hi = lo + self.spec.count
        keep = [lines[0]]
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            if not self.spec.n_min <= int(row["n"]) <= self.spec.n_max:
                continue
            s = _row_seed(self.spec.kind, row)
            if s is None or lo <= s < hi:
                keep.append(line)
        self.expected = keep

    def run_pass(self, threads: int) -> Path:
        cfg = replace(self.config, threads=threads)
        self.lib.experiments.run_experiment(cfg)
        return self.out_path

    def check(self, out_path: Path | None) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages): the written records against the reference rows."""
        want = self.expected[1:]
        if out_path is None:
            return len(want), len(want), ["the pass raised before writing its output"]
        got_lines = strip_wall(out_path.read_text().splitlines())
        if got_lines[0] != self.expected[0]:
            return len(want), len(want), [f"header {got_lines[0]!r} != {self.expected[0]!r}"]
        got = got_lines[1:]
        attempted = max(len(want), len(got))
        messages = []
        for i in range(attempted):
            g = got[i] if i < len(got) else None
            w = want[i] if i < len(want) else None
            if g != w:
                messages.append(f"record {i}: got {g!r}, reference {w!r}")
        return attempted, len(messages), messages


# ------------------------------------------------------------------- interior


def interior_item(lib, f: int, index: int):
    """(graph, point) of pool item `index` in stratum f.

    1-3 coordinates are pinned to 0 or 1, the other f are uniform in
    [0.05, 0.95] and never exactly 1/2, so gap_report takes its LP path.
    """
    rng = random.Random(1000 * f + index)
    pinned = 1 + index % 3
    n = f + pinned
    if index % 2 == 0:
        g = lib.instances.random_pm1_complete(n, 1000 * f + index)
    else:
        g = lib.experiments.random_signed_graph(n, 1000 * f + index)
    coords = [float(rng.getrandbits(1)) for _ in range(pinned)]
    for _ in range(f):
        c = 0.5
        while c == 0.5:
            c = rng.uniform(0.05, 0.95)
        coords.append(c)
    rng.shuffle(coords)
    return g, lib.envelopes.EvaluationPoint.from_iterable(coords)


def interior_pool(spec: InteriorSpec) -> list[tuple[int, int]]:
    """(f, index) of every pool item: one spare per stratum the seed thins."""
    return [(f, i) for f, count, varied in spec.strata for i in range(count + int(varied))]


class InteriorWorkload:
    """gap_report over seeded general points; the check compares (cav, vex) and the sandwich."""

    def __init__(self, lib, name: str, spec: InteriorSpec, seed: int, out_dir: Path):
        self.lib = lib
        self.name = name
        self.threads = 1
        rng = random.Random(seed)
        self.keys = []
        for f, count, varied in spec.strata:
            skip = rng.randrange(count + 1) if varied else None
            self.keys += [(f, i) for i in range(count + int(varied)) if i != skip]
        self.items = [interior_item(lib, f, i) for f, i in self.keys]
        self.reference: dict[tuple[int, int], tuple[float, float]] | None = None

    def warm_up(self) -> None:
        self.lib.envelopes.gap_report(*self.items[0])

    def load_reference(self, refs_dir: Path) -> None:
        lines = (refs_dir / f"{self.name}.csv").read_text().splitlines()
        table = {}
        for line in lines[1:]:
            f, index, cav, vex = line.split(",")
            table[int(f), int(index)] = (float(cav), float(vex))
        self.reference = table

    def _one(self, item):
        try:
            return self.lib.envelopes.gap_report(*item)
        except Exception as exc:  # an item that raises counts as failed, the pass goes on
            return exc

    def run_pass(self, threads: int) -> list:
        if threads <= 1:
            return [self._one(item) for item in self.items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(self._one, self.items))

    def check(self, reports: list | None) -> tuple[int, int, list[str]]:
        attempted = len(self.items)
        if reports is None:
            return attempted, attempted, ["the pass raised"]
        messages = []
        for key, item, rep in zip(self.keys, self.items, reports):
            problem = self._problem(key, item, rep)
            if problem:
                messages.append(f"item f={key[0]} #{key[1]}: {problem}")
        return attempted, len(messages), messages

    def _problem(self, key, item, rep) -> str | None:
        if isinstance(rep, Exception):
            return f"raised {rep!r}"
        ref = self.reference.get(key)
        if ref is None:
            return "no reference value"
        if abs(rep.cav - ref[0]) > TOLERANCE or abs(rep.vex - ref[1]) > TOLERANCE:
            return f"(cav, vex) = ({rep.cav!r}, {rep.vex!r}), reference {ref!r}"
        b = self.lib.envelopes.evaluate_bilinear(*item)
        chain = (rep.mcl, rep.vex, b, rep.cav, rep.mcu)
        if any(lo > hi + TOLERANCE for lo, hi in zip(chain, chain[1:])):
            return f"mcl <= vex <= b(x) <= cav <= mcu fails: {chain!r}"
        return None


def make(lib, name: str, size: str, seed: int, out_dir: Path):
    spec = SPECS[size][name]
    cls = InteriorWorkload if isinstance(spec, InteriorSpec) else ExperimentWorkload
    return cls(lib, name, spec, seed, out_dir)

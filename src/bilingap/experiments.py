"""Batch experiment drivers with deterministic, streamable CSV/JSON output.

Five kinds are supported:

* thm1_montecarlo  - gap ratio of random +/-1 complete graphs at the all-half
                     point against the sqrt(n)/4 threshold, at one n,
* ratio_sweep      - the same measurement swept over a range of n,
* hadamard_ratio   - exact gap ratio and discrepancy bound of the
                     bit-inner-product instances over a range of n,
* cutfinder_stress - find_large_cut guarantee over many seeded instances,
* hull_census      - combinatorial vs numerical hull-exactness decisions over
                     sign-pattern families and random graphs.

Every run with an identical config produces byte-identical output except for
the wall_time_ms column, which reports real elapsed time and is excluded from
determinism comparisons.  Records are streamed append-only in their final
order, so an interrupted output file is a valid prefix of the full one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .cuts import all_subset_cut_extremes, all_subset_gamma, cut_range_bruteforce, find_large_cut
from .envelopes import EvaluationPoint, gap_ratio, mcgap_halfpoint
from .errors import CapacityError, InputError
from .graph import SignedWeightedGraph, ordered_sum
from .hullcheck import check_hull_exact
from .instances import (
    hadamard_discrepancy_bound,
    hadamard_instance,
    random_pm1_complete,
    random_signed_graph,
    signed_cycle,
    signed_path,
    uniform_real_complete,
)

MAX_THREADS = 64  # ExperimentConfig.threads cap (CapacityError above it)

# annotation of an ExperimentConfig field -> the types its value may have
_FIELD_TYPES = {"int": int, "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; all randomness derives from seed_base."""

    kind: str
    n_min: int
    n_max: int
    num_instances: int = 100
    seed_base: int = 0
    trial_budget: int = 1000
    output_path: str | None = None
    output_format: str = "csv"  # "csv" or "json" (JSON lines)
    threads: int = 1  # checked and recorded in the JSON config line; runs are serial

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise InputError(f"config field {f.name} must be {f.type}, got {value!r}")
        if self.kind not in _KINDS:
            raise InputError(f"unknown experiment kind {self.kind!r}")
        if not 2 <= self.n_min <= self.n_max:
            raise InputError(f"need 2 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        cap = _KINDS[self.kind][0]
        if self.n_max > cap:
            raise CapacityError(f"kind {self.kind!r} supports n <= {cap}, got {self.n_max}")
        if self.kind == "thm1_montecarlo" and self.n_min != self.n_max:
            raise InputError(
                f"thm1_montecarlo runs at one n (n_min = n_max), got {self.n_min}..{self.n_max}"
            )
        if self.num_instances < 1:
            raise InputError(f"num_instances must be >= 1, got {self.num_instances}")
        if self.output_format not in ("csv", "json"):
            raise InputError(f"output format must be 'csv' or 'json', got {self.output_format!r}")
        if self.threads < 1:
            raise InputError(f"threads must be >= 1, got {self.threads}")
        if self.threads > MAX_THREADS:
            raise CapacityError(f"threads must be <= {MAX_THREADS}, got {self.threads}")
        if self.trial_budget < 1:
            raise InputError(f"trial_budget must be >= 1, got {self.trial_budget}")

    def to_json_dict(self) -> dict:
        """Every field but output_path, in field order: the config line of JSON output."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_path"}


def _record(cls):
    """Frozen dataclass whose field order is its schema: cls.FIELDS and the to_dict key order."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in names}

    cls.FIELDS = names
    cls.to_dict = to_dict
    return cls


@_record
class GapRecord:
    """One gap-ratio measurement; rows of the fixed gap CSV schema."""

    instance_seed: int
    n: int
    mcgap: float
    chgap: float
    ratio: float
    threshold: float
    threshold_met: bool
    wall_time_ms: float


@_record
class CutStressRecord:
    instance_seed: int
    n: int
    family: str
    weight: float
    bound: float
    bound_ratio: float
    meets_guarantee: bool
    case: str
    trials_used: int
    wall_time_ms: float


@_record
class HullCensusRecord:
    instance_id: str
    n: int
    exact: bool
    numeric_exact: bool
    agree: bool
    wall_time_ms: float


GAP_CSV_FIELDS = GapRecord.FIELDS
CUT_CSV_FIELDS = CutStressRecord.FIELDS
CENSUS_CSV_FIELDS = HullCensusRecord.FIELDS


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RecordWriter:
    """Streams records to a CSV or JSON-lines file as they are produced.

    CSV files hold the header then one row per record.  JSON files hold one
    object per line: a config line, the records, then a summary line.  Both
    stay valid prefixes of the final output if truncated mid-run.
    """

    def __init__(
        self,
        path: str | Path | None,
        fmt: str,
        fields: Sequence[str],
        config: ExperimentConfig,
    ):
        self.fmt = fmt
        self.fields = tuple(fields)
        self._fh = None
        if path is not None:
            self._fh = open(path, "w")
            if fmt == "csv":
                self._fh.write(",".join(self.fields) + "\n")
            else:
                self._fh.write(json.dumps({"config": config.to_json_dict()}) + "\n")
            self._fh.flush()

    def write(self, record_dict: dict) -> None:
        if self._fh is None:
            return
        if self.fmt == "csv":
            self._fh.write(",".join(_csv_cell(record_dict[f]) for f in self.fields) + "\n")
        else:
            self._fh.write(json.dumps({"record": record_dict}) + "\n")
        self._fh.flush()

    def finish(self, summary: dict) -> None:
        """Write the summary line (JSON only); close() ends the file."""
        if self._fh is not None and self.fmt == "json":
            self._fh.write(json.dumps({"summary": summary}) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _stream(
    cfg: ExperimentConfig,
    record_type: type,
    worker: Callable[..., dict],
    jobs: Iterable,
    summarize: Callable[[list], dict],
) -> tuple[list, dict]:
    """The one record loop: worker(job) per job, in job order, on the calling thread.

    worker returns a record's fields but wall_time_ms, which is the elapsed
    time of that worker call.  Each record streams to cfg's output as it
    arrives; the summary, cfg.kind under "kind" and then summarize(records),
    closes the output.  If a worker raises, the output is closed as the valid
    prefix written so far.  Returns (records, summary).
    """
    writer = RecordWriter(cfg.output_path, cfg.output_format, record_type.FIELDS, cfg)
    records = []
    try:
        for job in jobs:
            start = time.perf_counter()
            values = worker(job)
            wall_time_ms = round((time.perf_counter() - start) * 1000.0, 3)
            records.append(record_type(**values, wall_time_ms=wall_time_ms))
            writer.write(records[-1].to_dict())
        summary = {"kind": cfg.kind, **summarize(records)}
        writer.finish(summary)
    finally:
        writer.close()
    return records, summary


def _seeded_instances(cfg: ExperimentConfig) -> Iterator[tuple[int, int, int]]:
    """(t, seed, n) of instance t < num_instances: seed seed_base + t, n cycling n_min..n_max."""
    span = cfg.n_max - cfg.n_min + 1
    for t in range(cfg.num_instances):
        yield t, cfg.seed_base + t, cfg.n_min + t % span


def _gap_measurement(
    g: SignedWeightedGraph, seed: int, threshold: float
) -> tuple[dict, float, float]:
    """Gap record fields of g at the all-half point, plus its (max, min) cut weights."""
    mu_plus, mu_minus = cut_range_bruteforce(g, g.vertices)
    mcgap, chgap, ratio, _ = gap_ratio(
        mcgap_halfpoint(g, EvaluationPoint.all_half(g.n)), 0.5 * (mu_plus - mu_minus)
    )
    values = dict(
        instance_seed=seed, n=g.n, mcgap=mcgap, chgap=chgap, ratio=ratio,
        threshold=threshold, threshold_met=ratio >= threshold,
    )
    return values, mu_plus, mu_minus


def _run_gap_sweep(
    cfg: ExperimentConfig, summarize: Callable[[list[GapRecord]], dict]
) -> tuple[list[GapRecord], dict]:
    """Gap records of random +/-1 complete graphs for n = n_min..n_max, num_instances seeds each.

    Threshold sqrt(n)/4.
    """
    jobs = [
        (n, cfg.seed_base + t)
        for n in range(cfg.n_min, cfg.n_max + 1)
        for t in range(cfg.num_instances)
    ]

    def worker(job):
        n, seed = job
        return _gap_measurement(random_pm1_complete(n, seed), seed, math.sqrt(n) / 4.0)[0]

    return _stream(cfg, GapRecord, worker, jobs, summarize)


def run_thm1_montecarlo(cfg: ExperimentConfig) -> tuple[list[GapRecord], dict]:
    """Gap ratio of random +/-1 complete graphs on n = n_min = n_max vertices, all-half point.

    One record per seed seed_base..seed_base+num_instances-1, threshold sqrt(n)/4.
    """

    def summarize(records: list[GapRecord]) -> dict:
        ratios = [r.ratio for r in records]
        return {
            "n": cfg.n_max,
            "num_instances": len(records),
            "threshold": math.sqrt(cfg.n_max) / 4.0,
            "fraction_met": sum(r.threshold_met for r in records) / len(records),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
        }

    return _run_gap_sweep(cfg, summarize)


def run_ratio_sweep(cfg: ExperimentConfig) -> tuple[list[GapRecord], dict]:
    """thm1_montecarlo measurement swept over n = n_min..n_max, num_instances seeds each."""

    def summarize(records: list[GapRecord]) -> dict:
        per_n = []
        for n in range(cfg.n_min, cfg.n_max + 1):
            group = [r for r in records if r.n == n]
            per_n.append(
                {
                    "n": n,
                    "mean_ratio": ordered_sum(r.ratio for r in group) / len(group),
                    "min_ratio": min(r.ratio for r in group),
                    "fraction_met": sum(r.threshold_met for r in group) / len(group),
                }
            )
        return {"num_records": len(records), "per_n": per_n}

    return _run_gap_sweep(cfg, summarize)


def run_hadamard_ratio(cfg: ExperimentConfig) -> tuple[list[GapRecord], dict]:
    """Exact gap ratio and discrepancy check of bit-inner-product instances, n = n_min..n_max.

    Records use n as the instance_seed column since the family is
    deterministic.  Thresholds are sqrt(n)/3; the summary also reports
    whether the exact extreme cut weights respect the n^{3/2}/sqrt(2)
    discrepancy bound.
    """
    sizes = list(range(cfg.n_min, cfg.n_max + 1))
    rows = []  # discrepancy rows, one per worker call, in size order

    def worker(n):
        rec, mu_plus, mu_minus = _gap_measurement(hadamard_instance(n), n, math.sqrt(n) / 3.0)
        bound = hadamard_discrepancy_bound(n)
        rows.append({
            "n": n,
            "mu_plus": mu_plus,
            "mu_minus": mu_minus,
            "discrepancy_bound": bound,
            "discrepancy_ok": mu_plus <= bound + 1e-9 and -mu_minus <= bound + 1e-9,
            **{k: rec[k] for k in ("ratio", "threshold", "threshold_met")},
        })
        return rec

    def summarize(records: list[GapRecord]) -> dict:
        return {
            "sizes": sizes,
            "all_within_discrepancy_bound": all(r["discrepancy_ok"] for r in rows),
            "rows": rows,
        }

    return _stream(cfg, GapRecord, worker, sizes, summarize)


def run_cutfinder_stress(cfg: ExperimentConfig) -> tuple[list[CutStressRecord], dict]:
    """Run find_large_cut over seeded instances, alternating +/-1 and real weights.

    Instance t uses seed seed_base + t, size cycling n_min..n_max, family
    pm1/real alternating.  The bound_ratio column reports how far above the
    guaranteed total/(600 sqrt(n)) bound the found cut landed.
    """
    jobs = [
        (seed, n, "pm1" if t % 2 == 0 else "real") for t, seed, n in _seeded_instances(cfg)
    ]

    def worker(job):
        seed, n, family = job
        g = (random_pm1_complete if family == "pm1" else uniform_real_complete)(n, seed)
        res = find_large_cut(g, rng_seed=seed, trial_budget=cfg.trial_budget)
        return dict(
            instance_seed=seed,
            n=n,
            family=family,
            weight=res.cut.weight,
            bound=res.bound,
            bound_ratio=abs(res.cut.weight) / res.bound if res.bound > 0 else math.inf,
            meets_guarantee=res.meets_guarantee,
            case=res.case_taken,
            trials_used=res.trials_used,
        )

    def summarize(records: list[CutStressRecord]) -> dict:
        case_counts: dict[str, int] = {}
        for r in records:
            case_counts[r.case] = case_counts.get(r.case, 0) + 1
        return {
            "num_instances": len(records),
            "fraction_meets_guarantee": sum(r.meets_guarantee for r in records) / len(records),
            "min_bound_ratio": min(r.bound_ratio for r in records),
            "case_counts": dict(sorted(case_counts.items())),
            "max_trials_used": max(r.trials_used for r in records),
        }

    return _stream(cfg, CutStressRecord, worker, jobs, summarize)


def _numeric_exact(g: SignedWeightedGraph) -> bool:
    """mu_plus(X) - mu_minus(X) = |gamma|(X) within 1e-9 for every subset X (n <= 16)."""
    mu_plus, mu_minus = all_subset_cut_extremes(g)
    gabs = all_subset_gamma(g, absolute=True)
    return bool(abs((mu_plus - mu_minus) - gabs).max() <= 1e-9)


def _census_instances(cfg: ExperimentConfig):
    """Census instance stream: exhaustive small sign-pattern families, then random graphs."""
    # (family, smallest n, edges on n vertices minus n); the generator is looked
    # up by name here, so a replaced experiments.signed_cycle is the one called
    for family, low, shift in (("cycle", 3, 0), ("path", 2, -1)):
        generate = globals()[f"signed_{family}"]
        for n in range(max(low, cfg.n_min), min(cfg.n_max, 8) + 1):
            for pat in range(1 << (n + shift)):
                signs = [1.0 if pat >> k & 1 == 0 else -1.0 for k in range(n + shift)]
                label = "".join("+" if s > 0 else "-" for s in signs)
                yield f"{family}{n}:{label}", generate(n, signs)
    for _, seed, n in _seeded_instances(cfg):
        yield f"random:n{n}:s{seed}", random_signed_graph(n, seed)


def run_hull_census(cfg: ExperimentConfig) -> tuple[list[HullCensusRecord], dict]:
    """Compare the parity-based exactness decision against exhaustive numerics.

    Covers all sign patterns of small cycles and paths plus seeded random
    graphs; each record states whether the two decisions agree.
    """

    def worker(item):
        label, g = item
        exact = check_hull_exact(g).exact
        numeric = _numeric_exact(g)
        return dict(
            instance_id=label, n=g.n, exact=exact, numeric_exact=numeric, agree=exact == numeric
        )

    def summarize(records: list[HullCensusRecord]) -> dict:
        return {
            "total": len(records),
            "num_exact": sum(r.exact for r in records),
            "fraction_agree": sum(r.agree for r in records) / len(records),
            "disagreements": [r.instance_id for r in records if not r.agree],
        }

    return _stream(cfg, HullCensusRecord, worker, _census_instances(cfg), summarize)


# kind -> (largest n it accepts, runner); EXPERIMENT_KINDS keeps this order
_KINDS = {
    "thm1_montecarlo": (24, run_thm1_montecarlo),
    "hadamard_ratio": (24, run_hadamard_ratio),
    "cutfinder_stress": (50, run_cutfinder_stress),
    "hull_census": (10, run_hull_census),
    "ratio_sweep": (24, run_ratio_sweep),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> tuple[list, dict]:
    """Run cfg.kind's runner; returns (records, summary) and writes cfg.output_path."""
    return _KINDS[cfg.kind][1](cfg)

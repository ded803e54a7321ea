"""The bench's own tests: the output check can fire, and the printed metrics match BENCHMARK.json.

    python3 -m pytest -q bench/selftest.py

Each workload runs at its tiny size (a few items of its reference pool).
The file is not named test_*.py, so the repository's test suite leaves it out.
"""

from __future__ import annotations

import csv
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from run import REFERENCE_PROBE_S  # noqa: E402
from spans import Span, layer_totals  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int = 0, refs: Path | None = None):
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def alter(src: Path, dst: Path) -> None:
    """Copy the references with every stored output changed just past what the check allows."""
    for path in src.glob("*.csv"):
        rows = list(csv.reader(path.read_text().splitlines()))
        for row in rows[1:]:
            if path.stem == "interior":
                row[2] = repr(float(row[2]) + 1e-8)  # ten times the 1e-9 tolerance
            else:
                row[-1] += "0"
        (dst / path.name).write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_passes_then_fires_on_altered_reference(workload, tmp_path):
    clean = result_of(run_bench(ROOT, workload))
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0
    assert units(clean) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert clean["metrics"]["correct_ratio"]["value"] == 1.0
    detail = json.loads(
        (ROOT / ".bench_run" / f"result-{workload}-seed3-trace0.json").read_text()
    )["detail"]
    probes = detail["speed_probe_s"]
    assert len(probes) == len(detail["run_s"]) + 1
    scaled = [
        2 * REFERENCE_PROBE_S * t / (probes[i] + probes[i + 1])
        for i, t in enumerate(detail["run_s"])
    ]
    assert clean["metrics"]["run_s"]["value"] == pytest.approx(statistics.median(scaled))
    setup = statistics.median(detail["setup_s"]) * REFERENCE_PROBE_S / statistics.median(probes)
    assert clean["metrics"]["setup_s"]["value"] == pytest.approx(setup)

    alter(BENCH / "refs", tmp_path)
    altered = result_of(run_bench(ROOT, workload, refs=tmp_path))
    assert not altered["correct"]
    assert altered["failed"] > 0
    assert altered["metrics"]["correct_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_per_layer_metrics(workload):
    traced = result_of(run_bench(ROOT, workload, trace=1))
    assert traced["correct"]
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert (ROOT / ".bench_run" / f"spans-{workload}-seed3-trace1.json").is_file()


def test_fails_without_the_library(tmp_path):
    """A directory holding only BENCHMARK.json and the bench: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "sweep")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, None, "driver", 0, 0.0, 10.0),
        Span(2, 1, "table", 1, 1.0, 5.0),
        Span(3, 1, "table", 2, 3.0, 6.0),  # overlaps span 2, as pool threads do
        Span(4, 1, "write", 0, 8.0, 9.0, {"bytes": 7}),
    ]
    totals = layer_totals(spans)
    assert totals["driver"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["table"]["calls"] == 2
    assert totals["table"]["s"] == pytest.approx(7.0)
    assert totals["write"]["bytes"] == 7

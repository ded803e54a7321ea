"""The bench's cutstress reference pool, reproduced by the library in the tier-1 suite.

``bench/refs/cutstress.csv`` holds the records of the whole cutstress pool
without their wall times.  The bench counts every differing record as a failed
item; this check reads the same pool and refs so a change to the cut search or
the half-weight partition that moves a record fails here as well.
"""

from __future__ import annotations

from bilingap.experiments import ExperimentConfig, run_experiment

from conftest import BENCH_DIR, load_bench_module


def test_the_cutstress_pool_reproduces_its_refs(tmp_path):
    workloads = load_bench_module("workloads")
    spec = workloads.SPECS["full"]["cutstress"]
    out = tmp_path / "cutstress.csv"
    run_experiment(
        ExperimentConfig(
            kind=spec.kind,
            n_min=spec.n_min,
            n_max=spec.n_max,
            num_instances=spec.pool_count,
            seed_base=0,
            output_path=str(out),
        )
    )
    got = workloads.strip_wall(out.read_text().splitlines())
    want = (BENCH_DIR / "refs" / "cutstress.csv").read_text().splitlines()
    assert spec.pool_count == len(want) - 1 == 1066
    assert len(got) == len(want)
    for line, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {line + 1}"

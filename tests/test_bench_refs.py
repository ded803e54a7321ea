"""The bench's reference pools, reproduced by the library in the tier-1 suite.

``bench/refs/{sweep,census,cutstress}.csv`` hold the records of each
experiment workload's whole pool without their wall times, and
``bench/refs/interior.csv`` the (cav, vex) of every interior pool item.  The
bench counts every record or item that misses its reference as a failed item;
these checks read the same pools and refs, so a change that moves a record
fails here as well.
"""

from __future__ import annotations

import pytest

import bilingap
from bilingap.experiments import ExperimentConfig, run_experiment

from conftest import BENCH_DIR, load_bench_module


def _pool_records(workloads, name: str, tmp_path) -> tuple[list[str], list[str]]:
    """(records the library writes for the whole pool, the stored refs), header first."""
    spec = workloads.SPECS["full"][name]
    out = tmp_path / f"{name}.csv"
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
    want = (BENCH_DIR / "refs" / f"{name}.csv").read_text().splitlines()
    return got, want


def _assert_same_lines(got: list[str], want: list[str]) -> None:
    assert len(got) == len(want)
    for line, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {line + 1}"


def test_the_cutstress_pool_reproduces_its_refs(tmp_path):
    workloads = load_bench_module("workloads")
    got, want = _pool_records(workloads, "cutstress", tmp_path)
    assert workloads.SPECS["full"]["cutstress"].pool_count == len(want) - 1 == 1066
    _assert_same_lines(got, want)


@pytest.mark.parametrize("name, instances, records", [("sweep", 18, 126), ("census", 220, 976)])
def test_the_experiment_pool_reproduces_its_refs(tmp_path, name, instances, records):
    workloads = load_bench_module("workloads")
    got, want = _pool_records(workloads, name, tmp_path)
    assert workloads.SPECS["full"][name].pool_count == instances
    assert len(want) - 1 == records
    _assert_same_lines(got, want)


def test_the_interior_pool_meets_its_refs():
    """Within the bench's tolerance, not bit for bit: the LP's last bits may move."""
    workloads = load_bench_module("workloads")
    tol = workloads.TOLERANCE
    lines = (BENCH_DIR / "refs" / "interior.csv").read_text().splitlines()
    refs = {}
    for line in lines[1:]:
        f, index, cav, vex = line.split(",")
        refs[int(f), int(index)] = (float(cav), float(vex))
    pool = workloads.interior_pool(workloads.SPECS["full"]["interior"])
    assert sorted(pool) == sorted(refs) and len(pool) == 28
    for key in pool:
        g, x = workloads.interior_item(bilingap, *key)
        rep = bilingap.envelopes.gap_report(g, x)
        cav, vex = refs[key]
        assert abs(rep.cav - cav) <= tol and abs(rep.vex - vex) <= tol, key
        chain = (rep.mcl, rep.vex, bilingap.envelopes.evaluate_bilinear(g, x), rep.cav, rep.mcu)
        assert all(lo <= hi + tol for lo, hi in zip(chain, chain[1:])), (key, chain)

"""Write the reference outputs under refs/ from the library in this checkout.

    python3 bench/capture.py [--workload NAME ...]

Runs each workload's whole reference pool once, single-threaded, and stores
what the library produced: the experiment CSV records without the
wall_time_ms column, and (cav, vex) for each interior item.  Run it only on a
commit whose outputs are known to be right; the bench counts every later
difference as a failed item.
"""

from __future__ import annotations

import argparse
import sys

from run import BENCH_DIR, RUN_DIR, import_library
import workloads


def capture_experiment(lib, name: str, spec: workloads.ExperimentSpec) -> list[str]:
    out = RUN_DIR / f"capture-{name}.csv"
    cfg = lib.experiments.ExperimentConfig(
        kind=spec.kind,
        n_min=spec.n_min,
        n_max=spec.n_max,
        num_instances=spec.pool_count,
        seed_base=0,
        output_path=str(out),
    )
    lib.experiments.run_experiment(cfg)
    return workloads.strip_wall(out.read_text().splitlines())


def capture_interior(lib, spec: workloads.InteriorSpec) -> list[str]:
    lines = ["f,index,cav,vex"]
    for f, index in workloads.interior_pool(spec):
        rep = lib.envelopes.gap_report(*workloads.interior_item(lib, f, index))
        lines.append(f"{f},{index},{rep.cav!r},{rep.vex!r}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    lib = import_library()
    RUN_DIR.mkdir(exist_ok=True)
    (BENCH_DIR / "refs").mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        spec = workloads.SPECS["full"][name]
        if isinstance(spec, workloads.InteriorSpec):
            lines = capture_interior(lib, spec)
        else:
            lines = capture_experiment(lib, name, spec)
        (BENCH_DIR / "refs" / f"{name}.csv").write_text("\n".join(lines) + "\n")
        print(f"{name}: {len(lines) - 1} reference rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

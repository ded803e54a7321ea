"""bilingap benchmark: one workload, timed end to end, or traced layer by layer.

    python3 bench/run.py --workload {sweep,interior,census,cutstress} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--refs DIR]

Run from the repository root; the library is imported from ./src.  One
process issues the work as a closed loop with one client: passes over the
workload's inputs run back to back until S seconds have passed (at least
three), and every pass's output is checked against the stored references.

--trace 0 prints the end-to-end metrics: setup_s (median of nine fresh
processes, spaced over the run between passes, that import bilingap, build
the inputs and run one warm-up item), run_s (median pass time),
peak_rss_mb and correct_ratio.  setup_s and run_s are given at a fixed
reference speed of the machine, because the speed of a shared host drifts
by tens of percent from minute to minute: a speed probe (a fixed
pure-Python loop) is timed before every pass and after the last, each pass
time is scaled by REFERENCE_PROBE_S over the mean of the probes on either
side of it, and the setup median by REFERENCE_PROBE_S over the median
probe.  The unscaled times and the probe times go to the run record.  --trace 1 alternates an untraced pass with
traced passes at the workload's thread count and at the other one, and
prints the per-layer metrics.  Either way the last stdout line is the JSON
result; the run record and, when traced, the spans go to .bench_run/.  See
NOTES.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 9
MIN_PASSES = 3
SHOWN_FAILURES = 5
PROBE_LOOPS = 500_000
REFERENCE_PROBE_S = 0.05  # speed-probe time that setup_s and run_s are scaled to


def _fail(message: str) -> None:
    raise SystemExit(f"bench: {message}")


def import_library():
    """bilingap from this checkout's src/, never from anywhere else on the path."""
    if not (SRC / "bilingap" / "__init__.py").is_file():
        _fail(f"no bilingap sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bilingap

    if Path(bilingap.__file__).resolve().parent != (SRC / "bilingap").resolve():
        _fail(f"imported bilingap from {bilingap.__file__}, not from {SRC}")
    return bilingap


def setup(name: str, size: str, seed: int):
    """Import bilingap, build the inputs and run one warm-up item: (workload, seconds)."""
    start = time.perf_counter()
    lib = import_library()
    import workloads

    wl = workloads.make(lib, name, size, seed, RUN_DIR)
    wl.warm_up()
    return wl, time.perf_counter() - start


def probe_setup(args) -> float:
    """setup() timed in a fresh interpreter, so imports and caches start cold."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        _fail(f"setup probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_info(lib) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "bilingap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "simplex_jit": bool(lib.simplex.HAVE_NUMBA),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def _probe_loop(loops: int) -> int:
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return acc


def speed_probe(threads: int) -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs the interpreter now.

    The loop is split over as many threads as the workload's passes use, so
    the probe pays the same hand-offs of the GIL between them.
    """
    start = time.perf_counter()
    if threads <= 1:
        _probe_loop(PROBE_LOOPS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_probe_loop, [PROBE_LOOPS // threads] * threads))
    return time.perf_counter() - start


class Tally:
    """Items attempted and failed over every pass, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, wl, output) -> None:
        attempted, failed, messages = wl.check(output)
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: SHOWN_FAILURES - len(self.messages)]


def run_pass(wl, threads: int, tally: Tally, tracer=None) -> tuple[float, object]:
    """One pass over the inputs: (wall seconds, output).  The check runs after the clock stops."""
    output = None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run_pass(threads)
        else:
            with tracer.span("pass", anchor=True):
                output = wl.run_pass(threads)
    except Exception:  # the pass's items count as failed; the run goes on
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    tally.add(wl, output)
    return elapsed, output


def end_to_end(args, wl, tally: Tally) -> tuple[dict, dict]:
    """Passes back to back until the deadline, with setup probes spaced evenly between them.

    Spacing the setup probes over the run like the passes means a slow spell
    of the machine weighs on both medians alike.  Speed probes bracket every
    pass; each pass time is scaled to REFERENCE_PROBE_S by the two probes
    next to it, which catch the same spell of the machine as the pass.  The
    setup probes are not bracketed, so their median is scaled by the median
    speed probe.
    """
    setup_times = []
    times = []
    speed = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        speed.append(speed_probe(wl.threads))
        times.append(run_pass(wl, wl.threads, tally)[0])
        due = start + len(setup_times) * args.seconds / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and time.perf_counter() >= due:
            setup_times.append(probe_setup(args))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(args))
    speed.append(speed_probe(wl.threads))
    scale = REFERENCE_PROBE_S / statistics.median(speed)
    scaled = [2 * REFERENCE_PROBE_S * t / (speed[i] + speed[i + 1]) for i, t in enumerate(times)]
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "run_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return metrics, {"setup_s": setup_times, "run_s": times, "speed_probe_s": speed,
                     "scale": scale}


def traced(args, wl, tally: Tally) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics, layer_totals

    tracer = Tracer()
    alt_threads = 2 if wl.threads == 1 else 1  # for experiments.speedup_2t
    runs = {"untraced": [], "traced": [], "traced_alt": []}
    per_pass: list[dict] = []
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not runs["traced"] or time.perf_counter() < deadline:
        runs["untraced"].append(run_pass(wl, wl.threads, tally)[0])
        for label, threads in (("traced", wl.threads), ("traced_alt", alt_threads)):
            first = len(tracer.spans)
            with tracer.installed():
                elapsed, output = run_pass(wl, threads, tally, tracer)
            spans = tracer.spans[first:]
            runs[label].append(elapsed)
            passes.append({"label": label, "threads": threads, "run_s": elapsed,
                           "spans": [sp.to_list() for sp in spans]})
            if label == "traced":
                out_bytes = output.stat().st_size if isinstance(output, Path) else 0
                per_pass.append(layer_metrics(layer_totals(spans), out_bytes))
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_s = statistics.median(runs["traced"])
    alt_s = statistics.median(runs["traced_alt"])
    one, two = (traced_s, alt_s) if wl.threads == 1 else (alt_s, traced_s)
    metrics["experiments.speedup_2t"] = (one / two, "ratio")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / statistics.median(runs["untraced"]), "ratio")
    metrics["trace.spans"] = (statistics.median(len(p["spans"]) for p in passes
                                                if p["label"] == "traced"), "count")
    return metrics, {"runs": runs, "passes": passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "interior", "census", "cutstress"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few items of each pool, for the bench's own tests")
    parser.add_argument("--refs", type=Path, default=BENCH_DIR / "refs",
                        help="directory of reference outputs to check against")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, seconds = setup(args.workload, args.size, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    wl, _ = setup(args.workload, args.size, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    wl.load_reference(args.refs)
    machine = machine_info(sys.modules["bilingap"])
    tally = Tally()
    metrics, detail = (traced if args.trace else end_to_end)(args, wl, tally)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = RUN_DIR / f"spans-{stem}.json"
        spans_path.write_text(json.dumps({"machine": machine, "passes": detail.pop("passes")}))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(vars(args), refs=str(args.refs), machine=machine, detail=detail,
                  failures=tally.messages, result=result)
    (RUN_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {tally.attempted} items checked, {tally.failed} failed")
    for k, (v, u) in metrics.items():
        print(f"  {k:32s} {v:.6g} {u}")
    if "scale" in detail:
        print(f"unscaled medians: setup {statistics.median(detail['setup_s']):.6g} s, "
              f"run {statistics.median(detail['run_s']):.6g} s; "
              f"speed probe {statistics.median(detail['speed_probe_s']):.6g} s")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

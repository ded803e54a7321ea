"""Command-line interface.

Subcommands: gen, eval, cut, maxcut, hullcheck, experiment.  Results print
to stdout as JSON; diagnostics go to stderr.  Exit codes: 0 success, 1 bad
input or usage, 2 instance too large for the requested operation, 3 internal
invariant or certificate failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from .cuts import extreme_cuts, find_large_cut
from .envelopes import EvaluationPoint, gap_report
from .errors import CapacityError, InputError, InvariantViolationError
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from .graph import VertexSubset, ascii_float, ascii_int, read_instance, write_instance
from .hullcheck import check_hull_exact
from .instances import INSTANCE_FAMILIES


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_point(spec: str | None, n: int) -> EvaluationPoint:
    """Comma-separated coordinates in [0,1]; 'h' means 1/2; None means all-half."""
    if spec is None:
        return EvaluationPoint.all_half(n)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != n:
        raise InputError(f"point has {len(parts)} coordinates, instance has n={n}")
    coords = []
    for p in parts:
        if p in ("h", "H"):
            coords.append(0.5)
            continue
        try:
            coords.append(ascii_float(p))
        except ValueError:
            raise InputError(f"bad coordinate {p!r}; expected a number in [0,1] or 'h'")
    return EvaluationPoint.from_iterable(coords)


def _parse_subset(spec: str | None, n: int) -> VertexSubset:
    """Comma-separated 1-based vertex labels; None or '' means all vertices."""
    if spec is None or spec.strip() == "":
        return VertexSubset.full(n)
    members = []
    for p in spec.split(","):
        p = p.strip()
        try:
            v = ascii_int(p)
        except ValueError:
            raise InputError(f"bad vertex label {p!r}")
        if not 1 <= v <= n:
            raise InputError(f"vertex {v} outside 1..{n}")
        members.append(v)
    return VertexSubset.from_members(members)


def _parse_signs(spec: str) -> tuple[float, ...]:
    out = []
    for p in spec.split(","):
        p = p.strip()
        if p in ("+", "+1", "1"):
            out.append(1.0)
        elif p in ("-", "-1"):
            out.append(-1.0)
        else:
            raise InputError(f"bad sign {p!r}; expected '+' or '-'")
    return tuple(out)


def _emit(obj) -> None:
    """Print obj as strict JSON; a non-finite value is a bug, not an answer."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolationError(f"result is not finite: {exc}") from None
    print(text)


def _cmd_gen(args) -> int:
    """The family's own argument flag is required and any other one is rejected."""
    generate, arg = INSTANCE_FAMILIES[args.family]
    for flag, value in (("seed", args.seed), ("signs", args.signs)):
        if (value is None) == (flag == arg):
            rule = "requires" if value is None else "does not take"
            raise InputError(f"family {args.family!r} {rule} --{flag}")
    if arg is None:
        g = generate(args.n)
    else:
        g = generate(args.n, args.seed if arg == "seed" else _parse_signs(args.signs))
    write_instance(g, args.out, fmt=args.format)
    sys.stderr.write(f"wrote {args.out} (n={g.n}, {len(g.edges)} edges)\n")
    return 0


def _cmd_eval(args) -> int:
    g = read_instance(args.instance)
    x = _parse_point(args.point, g.n)
    report = gap_report(g, x)
    _emit(report.to_json_dict())
    return 0


def _cmd_cut(args) -> int:
    g = read_instance(args.instance)
    res = find_large_cut(g, rng_seed=args.seed, trial_budget=args.budget)
    _emit(res.to_json_dict())
    return 0


def _cmd_maxcut(args) -> int:
    g = read_instance(args.instance)
    x = _parse_subset(args.subset, g.n)
    (mu_plus, cut_plus), (mu_minus, cut_minus) = extreme_cuts(g, x)
    _emit(
        {
            "subset": list(x.members),
            "mu_plus": mu_plus,
            "witness_plus": list(cut_plus.side.members),
            "mu_minus": mu_minus,
            "witness_minus": list(cut_minus.side.members),
        }
    )
    return 0


def _cmd_hullcheck(args) -> int:
    g = read_instance(args.instance)
    result = check_hull_exact(g)
    _emit(result.to_json_dict())
    return 0


# experiment flag -> the config fields it sets, applied in this order (--n before --n-min/--n-max)
_EXPERIMENT_FLAGS = {
    "kind": ("kind",),
    "n": ("n_min", "n_max"),
    "n_min": ("n_min",),
    "n_max": ("n_max",),
    "num_instances": ("num_instances",),
    "seed_base": ("seed_base",),
    "budget": ("trial_budget",),
    "out": ("output_path",),
    "format": ("output_format",),
    "threads": ("threads",),
}


def _cmd_experiment(args) -> int:
    """Config fields come from the flags, then the config file, then ExperimentConfig's defaults."""
    base: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")
    for flag, keys in _EXPERIMENT_FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            base.update(dict.fromkeys(keys, value))
    unknown = set(base) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in base:
            raise InputError(f"experiment needs {f.name} (an argument or the config file)")
    _, summary = run_experiment(ExperimentConfig(**base))
    _emit(summary)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bilingap", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen", help="generate an instance file from a named family")
    p.add_argument("--family", required=True, choices=INSTANCE_FAMILIES)
    p.add_argument(
        "--n", type=ascii_int, required=True, help="vertex count (per side for bipartite)"
    )
    p.add_argument("--seed", type=ascii_int, default=None, help="seed for random families")
    p.add_argument(
        "--signs", default=None, help="comma-separated +/- list for cycle/path, as --signs=-,+,+"
    )
    p.add_argument("--out", required=True, help="output file (.json or .txt)")
    p.add_argument("--format", choices=("json", "text"), default=None, help="override extension sniffing")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="envelope values and gap ratio at a point")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", default=None, help="comma-separated coords, 'h' = 1/2 (default all-half)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cut", help="find a cut meeting the total/(600 sqrt(n)) guarantee")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=ascii_int, default=0, help="sampling seed")
    p.add_argument("--budget", type=ascii_int, default=1000, help="sampling trial budget")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("maxcut", help="exact extreme cut weights within a subset (n <= 26)")
    p.add_argument("--instance", required=True)
    p.add_argument("--subset", default=None, help="comma-separated vertices (default all)")
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("hullcheck", help="decide hull exactness by cycle sign parity")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_hullcheck)

    p = sub.add_parser("experiment", help="run a batch experiment and print its summary")
    p.add_argument("kind", nargs="?", choices=EXPERIMENT_KINDS, help="experiment kind")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--n", type=ascii_int, default=None, help="shorthand for --n-min N --n-max N")
    p.add_argument("--n-min", type=ascii_int, default=None)
    p.add_argument("--n-max", type=ascii_int, default=None)
    p.add_argument("--num-instances", type=ascii_int, default=None)
    p.add_argument("--seed-base", type=ascii_int, default=None)
    p.add_argument("--budget", type=ascii_int, default=None, help="cut-finder trial budget")
    p.add_argument("--out", default=None, help="record output file")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--threads", type=ascii_int, default=None, help="1..64, recorded only; runs are serial")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Python 3.11's argparse reads "--flag=--" as [] and skips type= and choices
        for name, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 3
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 2
    except (InputError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

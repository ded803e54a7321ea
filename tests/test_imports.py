"""Every name a bilingap module imports is used, and every private name is read.

No linter ships with the project, so these are the unused-import and the
dead-private-name checks, plus the one-tolerance, read-only-cache,
number-rule, one-kernel, one-JSON-reader and one-runner lints.
Each module under src/bilingap is parsed with ast.  An imported name counts
as used when the module reads it (a bare name, or the base of an attribute
chain) or lists it in __all__.  A module-level private function, class or
constant (one leading underscore) counts as read when some module of the
package reads it, as a bare name or as an attribute.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import bilingap
from bilingap import cuts, experiments

SRC = Path(__file__).resolve().parent.parent / "src" / "bilingap"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Imported name -> line, for every import in the module but __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Callable, Iterable\nimport numpy.linalg\n"
        "__all__ = ['Iterable']\ndef f(x: numpy.ndarray) -> None: ...\n"
    )
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"Callable"}


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level private function, class and constant names -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _dead_private(trees: dict[str, ast.Module]) -> dict[str, int]:
    """"module:name" -> line for each private definition no module reads."""
    read = set().union(*map(_read, trees.values()))
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in _private_defs(tree).items()
        if name not in read
    }


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    dead = _dead_private(trees)
    assert not dead, f"private names that no module reads: {dead}"


def test_the_check_sees_a_dead_private_name():
    trees = {
        "a.py": ast.parse(
            "_CAP = 3\n_DEAD: int = 4\n__all__ = []\n"
            "def _used(): return _CAP\ndef _terms(): ...\nclass _Gone: ...\n"
        ),
        "b.py": ast.parse("from . import a\nfrom .a import _terms\na._used()\n"),
    }
    assert set(_dead_private(trees)) == {"a.py:_DEAD", "a.py:_terms", "a.py:_Gone"}


# The one float tolerance outside the LP is graph._SLACK; simplex.py keeps the
# LP's own documented rule.  A float literal this small anywhere else is a
# second tolerance.
_SMALL_FLOAT = 1e-6


def _small_floats(tree: ast.Module, slack_home: bool) -> list[int]:
    """Lines of float literals with 0 < |v| < 1e-6, but _SLACK's own value if slack_home."""
    allowed = {
        id(node.value)
        for node in tree.body
        if slack_home and isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_SLACK"]
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < _SMALL_FLOAT and id(node) not in allowed
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "simplex.py"], ids=lambda p: p.name
)
def test_no_tolerance_but_the_slack(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _small_floats(tree, slack_home=path.name == "graph.py")
    assert not lines, f"{path.name}: float tolerances outside graph._SLACK on lines {lines}"


def test_the_check_sees_a_second_tolerance():
    tree = ast.parse(
        "_SLACK = 1e-12\n_ZERO = 1e-12\ntol = 1e-9 * max(1.0, x)\n"
        "ok = y <= b + -2.5e-7\nbig = 1e-6 + 0.5 + 0\n"
    )
    assert _small_floats(tree, slack_home=True) == [2, 3, 4]
    assert _small_floats(tree, slack_home=False) == [1, 2, 3, 4]


# A functools.cache function hands every caller the same arrays, so one caller
# that wrote into them would change every later call's result.  Each cached
# function of the package is listed here with small arguments, and every array
# it returns must be read-only.
_CACHED_CALLS = (
    ("cuts", "_build_pair_chunks", (4,)),
    ("cuts", "_mask_table", (3,)),
    ("instances", "_pairs", (4,)),
    ("instances", "_walk_pairs", (4, False)),
    ("instances", "_walk_pairs", (4, True)),
)


def _cached_defs(tree: ast.Module) -> set[str]:
    """Names of the functions decorated with functools.cache or functools.lru_cache."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(deco, "attr", getattr(deco, "id", None)) in ("cache", "lru_cache"):
                    names.add(node.name)
    return names


def _arrays(value):
    """Every numpy array inside value, through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def test_every_cache_is_listed():
    cached = {
        (p.stem, name)
        for p in sorted(SRC.glob("*.py"))
        for name in _cached_defs(ast.parse(p.read_text(), filename=str(p)))
    }
    assert cached == {(module, name) for module, name, _ in _CACHED_CALLS}


@pytest.mark.parametrize("module, name, args", _CACHED_CALLS, ids=lambda v: str(v))
def test_cached_arrays_are_read_only(module, name, args):
    arrays = list(_arrays(getattr(importlib.import_module(f"bilingap.{module}"), name)(*args)))
    assert arrays, f"{module}.{name}{args} returned no array"
    writable = [i for i, a in enumerate(arrays) if a.flags.writeable]
    assert not writable, f"{module}.{name}{args}: writable arrays at {writable}"


def test_the_check_sees_a_cached_function():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(n): ...\n@cache\ndef b(n): ...\n"
        "@functools.lru_cache(maxsize=4)\ndef c(n): ...\n@lru_cache\ndef d(n): ...\n"
        "@staticmethod\ndef e(n): ...\ndef f(n): ...\n"
    )
    assert _cached_defs(tree) == {"a", "b", "c", "d"}


def test_mask_table_views_are_read_only():
    # bit_matrix and the hull LP's [bits; 1] are not cached themselves but are
    # views of the cached 0/1 table, so they must not be writable either
    table = cuts._mask_table(3)
    for view in (cuts.bit_matrix(3), table.T):
        assert view.base is table and not view.flags.writeable


# The number rule lives in graph.py: every other module reads the numbers it
# takes with graph._int_arg and graph._real_arg, not with the type tests under
# them.  instances keeps _is_real for the exact +/-1 rule of _check_signs.
_RULE_HOMES = {"_is_int": {"graph"}, "_is_real": {"graph", "instances"}}


def _rule_imports(tree: ast.Module, module: str) -> list[str]:
    """The number-rule type tests that module imports or reads as an attribute but may not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sorted(name for name in names & _RULE_HOMES.keys() if module not in _RULE_HOMES[name])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_number_rule_stays_in_graph(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _rule_imports(tree, path.stem)
    assert not found, f"{path.name} reads numbers with {found}; use graph._int_arg/_real_arg"


def test_the_check_sees_a_planted_rule_import():
    planted = "\nfrom .graph import _is_int, _real_arg\nfrom . import graph\ngraph._is_real(1)\n"
    for module in ("cuts", "instances", "graph"):
        tree = ast.parse((SRC / f"{module}.py").read_text() + planted)
        want = {"cuts": ["_is_int", "_is_real"], "instances": ["_is_int"], "graph": []}[module]
        assert _rule_imports(tree, module) == want


# One enumeration kernel: the cut enumeration, the subset tables above 10 bits
# and the dual certificate all multiply the meet-in-the-middle operands through
# cuts._form_scan, so no other function may read the operand builder.
_OPERANDS = "_form_operands"
_SCAN = {("cuts", "_form_scan")}


def _operand_readers(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, top-level definition or "<module>") for each read of _form_operands."""
    readers = set()
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == _OPERANDS and isinstance(getattr(node, "ctx", None), ast.Load):
                readers.add((module, scope))
    return readers


def test_only_the_scan_reads_the_operand_builder():
    readers = set().union(
        *(_operand_readers(ast.parse(p.read_text(), filename=str(p)), p.stem)
          for p in sorted(SRC.glob("*.py")))
    )
    assert readers == _SCAN


def test_the_check_sees_a_planted_operand_read():
    planted = (
        "\ndef _own_loop(q):\n    left, right = _form_operands(q)\n"
        "\nclass _Table:\n    build = staticmethod(cuts._form_operands)\n"
        "\nbuilder = _form_operands\n"
    )
    for module in ("cuts", "envelopes"):
        tree = ast.parse((SRC / f"{module}.py").read_text() + planted)
        want = {(module, scope) for scope in ("_own_loop", "_Table", "<module>")}
        assert _operand_readers(tree, module) == want | (_SCAN if module == "cuts" else set())


# One JSON error rule: every JSON the program reads goes through graph._read_json,
# which turns each ValueError of the parser into an InputError, so no other
# module may call json.loads or json.load.
_JSON_READS = {"loads", "load"}


def _json_reads(tree: ast.Module) -> list[int]:
    """Line numbers where the module reads json.loads or json.load, or imports either."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "json"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(a.name in _JSON_READS for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _JSON_READS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_json_is_read_only_in_graph(path):
    found = _json_reads(ast.parse(path.read_text(), filename=str(path)))
    if path.stem == "graph":
        assert len(found) == 1, f"graph.py reads JSON outside _read_json at lines {found}"
    else:
        assert not found, f"{path.name} reads JSON at lines {found}; use graph._read_json"


def test_the_check_sees_a_planted_json_read():
    planted = (
        "\nimport json as _j\nfrom json import load\n"
        "def _own(text):\n    return json.loads(text), _j.load(text)\n"
    )
    tree = ast.parse((SRC / "cli.py").read_text() + planted)
    base = len((SRC / "cli.py").read_text().splitlines())
    assert _json_reads(tree) == [base + 3, base + 5, base + 5]


# One way to run an experiment: run_experiment dispatches on the config's kind,
# whose n cap and one-n rule ExperimentConfig has checked.  A second public
# runner would skip those checks, so the kind runners stay private.
_RUNNER = "run_experiment"


def _public_runners(tree: ast.Module) -> list[str]:
    """Public run_* names the module binds at top level or lists in __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__all__":
                        names |= {e.value for e in node.value.elts}
    return sorted(name for name in names if name.startswith("run_"))


@pytest.mark.parametrize("module", ["experiments", "__init__"])
def test_run_experiment_is_the_only_runner(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _public_runners(tree) == [_RUNNER]
    loaded = bilingap if module == "__init__" else experiments
    assert [name for name in vars(loaded) if name.startswith("run_")] == [_RUNNER]
    assert [name for name in bilingap.__all__ if name.startswith("run_")] == [_RUNNER]


def test_the_check_sees_a_planted_runner():
    planted = {
        "experiments": (
            "\ndef run_census(cfg): ...\nrun_alias = run_experiment\n"
            "from .cuts import find_large_cut as run_cuts\nclass _Kinds:\n    run_x = 1\n"
        ),
        "__init__": "\n__all__ = ['run_experiment', 'run_hull_census']\n",
    }
    want = {
        "experiments": ["run_alias", "run_census", "run_cuts", _RUNNER],
        "__init__": [_RUNNER, "run_hull_census"],
    }
    for module, source in planted.items():
        tree = ast.parse((SRC / f"{module}.py").read_text() + source)
        assert _public_runners(tree) == want[module]

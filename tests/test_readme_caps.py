"""Each row of README's "Size caps" table states the constant the code enforces.

No doc generator ships with the project, so this is the check that the table
and the code agree: the table is parsed from README.md, the leading number of
each cap cell is compared with the constant its row names, and a row without
a constant or a constant without a row fails too.
"""

from __future__ import annotations

from pathlib import Path

from bilingap import cuts, envelopes, experiments, graph

README = Path(__file__).resolve().parent.parent / "README.md"

# row label (the operation cell up to its first " (") -> the constant it states
_CONSTANTS = {
    "graph vertices": graph.MAX_VERTICES,
    "total absolute weight of any graph": graph.MAX_TOTAL_ABS_WEIGHT,
    "exact cut enumeration": cuts.ENUMERATION_CAP,
    "hull LP": envelopes.LP_SIZE_CAP,
    "all-subset tables": cuts._TABLE_CAP,
    "dual certificate enumeration": cuts.ENUMERATION_CAP,
    "experiment `threads`": experiments.MAX_THREADS,
}


def _caps_table(text: str) -> dict[str, float]:
    """Row label -> leading number of its cap cell, for the table under "## Size caps"."""
    section = text.split("\n## Size caps\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        operation, cap = (c.strip() for c in line.strip().strip("|").split("|"))
        if operation == "operation" or not operation.strip("-"):
            continue  # the header and its rule
        rows[operation.split(" (", 1)[0]] = float(cap.split()[0])
    return rows


def _mismatches(rows: dict[str, float]) -> list[str]:
    problems = []
    for label in sorted(rows.keys() | _CONSTANTS.keys()):
        if label not in rows:
            problems.append(f"{label}: no README row")
        elif label not in _CONSTANTS:
            problems.append(f"{label}: no constant")
        elif rows[label] != _CONSTANTS[label]:
            problems.append(f"{label}: README says {rows[label]:g}, code has {_CONSTANTS[label]:g}")
    return problems


def test_readme_caps_match_the_constants():
    assert _mismatches(_caps_table(README.read_text())) == []


def test_the_check_sees_a_doctored_table():
    text = README.read_text()
    cap = cuts.ENUMERATION_CAP
    row = f"| exact cut enumeration (`maxcut`, exactness numerics) | {cap} |\n"
    threads_row = next(line for line in text.splitlines(True) if line.startswith("| experiment"))
    doctored = text.replace(row, row.replace(f"| {cap} |", f"| {cap + 2} |"))
    doctored = doctored.replace(threads_row, "| extra row | 7 |\n")
    assert _mismatches(_caps_table(doctored)) == [
        f"exact cut enumeration: README says {cap + 2}, code has {cap}",
        "experiment `threads`: no README row",
        "extra row: no constant",
    ]

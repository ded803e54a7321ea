"""README's cap tables state the caps the code enforces.

No doc generator ships with the project, so these are the checks that the
tables and the code agree.  For the "Size caps" table the leading number of
each cap cell is compared with the constant its row names; for the
experiment-kind table the top of each "n range" cell is compared with the
kind's cap in experiments._KINDS.  A row without a cap or a cap without a
row fails too.
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
# experiment kind -> the largest n it accepts
_KIND_CAPS = {kind: cap for kind, (cap, _) in experiments._KINDS.items()}

_KINDS_HEADING = "\nExperiment kinds and their n ranges"


def _table_rows(section: str) -> list[list[str]]:
    """Cells of each row of the first table in section, its header and rule skipped."""
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines[2:]]


def _caps_table(text: str) -> dict[str, float]:
    """Row label -> leading number of its cap cell, for the table under "## Size caps"."""
    section = text.split("\n## Size caps\n", 1)[1].split("\n## ", 1)[0]
    return {op.split(" (", 1)[0]: float(cap.split()[0]) for op, cap in _table_rows(section)}


def _kind_caps_table(text: str) -> dict[str, float]:
    """Kind -> the top of its "n range" cell ("2..24" -> 24), for the experiment-kind table."""
    section = text.split(_KINDS_HEADING, 1)[1].split("\n#", 1)[0]
    rows = _table_rows(section)
    return {kind.strip("`"): float(n_range.split("..")[1]) for kind, _, n_range in rows}


def _mismatches(rows: dict[str, float], caps: dict[str, float]) -> list[str]:
    problems = []
    for label in sorted(rows.keys() | caps.keys()):
        if label not in rows:
            problems.append(f"{label}: no README row")
        elif label not in caps:
            problems.append(f"{label}: no cap in the code")
        elif rows[label] != caps[label]:
            problems.append(f"{label}: README says {rows[label]:g}, code has {caps[label]:g}")
    return problems


def test_readme_caps_match_the_constants():
    assert _mismatches(_caps_table(README.read_text()), _CONSTANTS) == []


def test_the_check_sees_a_doctored_table():
    text = README.read_text()
    cap = cuts.ENUMERATION_CAP
    row = f"| exact cut enumeration (`maxcut`, exactness numerics) | {cap} |\n"
    threads_row = next(line for line in text.splitlines(True) if line.startswith("| experiment"))
    doctored = text.replace(row, row.replace(f"| {cap} |", f"| {cap + 2} |"))
    doctored = doctored.replace(threads_row, "| extra row | 7 |\n")
    assert _mismatches(_caps_table(doctored), _CONSTANTS) == [
        f"exact cut enumeration: README says {cap + 2}, code has {cap}",
        "experiment `threads`: no README row",
        "extra row: no cap in the code",
    ]


def test_readme_kind_table_matches_the_kind_caps():
    assert _mismatches(_kind_caps_table(README.read_text()), _KIND_CAPS) == []


def test_the_check_sees_a_doctored_kind_table():
    text = README.read_text()
    lines = text.splitlines(True)
    census = next(line for line in lines if line.startswith("| `hull_census`"))
    sweep = next(line for line in lines if line.startswith("| `ratio_sweep`"))
    cap = _KIND_CAPS["hull_census"]
    doctored = text.replace(census, census.replace(f"2..{cap} ", f"2..{cap + 2} "))
    doctored = doctored.replace(sweep, "| `extra_kind` | a kind the code lacks | 2..5 |\n")
    assert _mismatches(_kind_caps_table(doctored), _KIND_CAPS) == [
        "extra_kind: no cap in the code",
        f"hull_census: README says {cap + 2}, code has {cap}",
        "ratio_sweep: no README row",
    ]

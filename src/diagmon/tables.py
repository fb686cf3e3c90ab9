"""The ten reference tables: rebuilding, comparing, rendering.

Tables 1-3 are per-family series (c-values, idempotent totals, twisted
totals), tables 4/7/8 idempotents by rank, table 5 idempotents per R-class,
tables 6/9/10 twisted counts per R-class or rank.  Each table is one entry
of ``_SPEC`` and one grid of cells (n, j), where j is the column position in
a series table and the rank r in a rank table.  The expected values ship
as package data; four cells of that data are internally inconsistent (each
fails a recurrence or column sum that the surrounding cells satisfy) and
are listed in known_discrepancies.json, so comparisons treat them
separately instead of failing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .core import MonoidFamily
from .counting import CountTable, a_nr, b_nr, c_values, e_rank, e_total, exi_rank, exi_total
from .errors import DomainError

SERIES_COLUMNS = ("c0", "c1", "c", "e", "exi0")

TABLE_IDS = tuple(str(i) for i in range(1, 11))

_B, _PB, _P = MonoidFamily.B, MonoidFamily.PB, MonoidFamily.P

# id -> (family, kind, title); kind is "series" or the count in each rank cell
_SPEC = {
    "1": (_B, "series", "irreducible counts and idempotent totals, family B"),
    "2": (_PB, "series", "irreducible counts and idempotent totals, family PB"),
    "3": (_P, "series", "irreducible counts and idempotent totals, family P"),
    "4": (_B, "e_rank", "idempotents by rank, family B"),
    "5": (_B, "a_nr", "idempotents per R-class, family B"),
    "6": (_B, "b_nr", "twisted idempotents per R-class, family B"),
    "7": (_PB, "e_rank", "idempotents by rank, family PB"),
    "8": (_P, "e_rank", "idempotents by rank, family P"),
    "9": (_B, "exi_rank", "twisted idempotents by rank, family B"),
    "10": (_P, "exi_rank", "twisted idempotents by rank, family P"),
}


def _check_id(which: int | str) -> str:
    wid = str(which)
    if wid not in TABLE_IDS:
        raise DomainError(f"unknown table {which!r} (valid: 1..10)")
    return wid


@cache
def _data(name: str) -> object:
    text = resources.files("diagmon").joinpath("data").joinpath(name).read_text()
    return json.loads(text)


def printed_table(which: int | str) -> dict:
    """The shipped reference data for one table."""
    return _data("printed_tables.json")[_check_id(which)]


def known_discrepancies(which: int | str | None = None) -> list[dict]:
    """Reference cells known to be internally inconsistent."""
    entries = _data("known_discrepancies.json")
    if which is None:
        return list(entries)
    wid = _check_id(which)
    return [e for e in entries if e["table"] == wid]


# --------------------------------------------------------------------------
# building

def _row(wid: str, n: int) -> dict[int, int]:
    """The defined cells of row n, keyed by j.

    A series row lacks the c-values at n = 0; a rank row of a B table holds
    the ranks of n's parity only.
    """
    fam, kind, _ = _SPEC[wid]
    if kind == "series":
        row = dict(enumerate(c_values(fam, n))) if n else {}
        row[3] = e_total(fam, n)
        row[4] = exi_total(fam, n, 0)
        return row
    ranks = range(n % 2, n + 1, 2) if fam is _B else range(n + 1)
    if kind == "a_nr":
        return {r: a_nr(n, r) for r in ranks}
    if kind == "b_nr":
        return {r: b_nr(n, r) for r in ranks}
    if kind == "exi_rank":
        return {r: exi_rank(fam, n, r, 0) for r in ranks}
    return {r: e_rank(fam, n, r) for r in ranks}


def build_table(which: int | str, max_n: int = 10) -> CountTable:
    """Recompute one table for n = 0..max_n.

    Series tables use entry keys (n, column position); rank tables use
    (n, r).  Cells outside a column's domain (c-values at n = 0, rank cells
    ruled out by parity) are simply absent.
    """
    wid = _check_id(which)
    if max_n < 0:
        raise DomainError(f"max_n must be nonnegative, got {max_n}")
    fam, kind, _ = _SPEC[wid]
    return CountTable(
        kind=kind,
        family=fam.value,
        index_names=("n", "column") if kind == "series" else ("n", "r"),
        entries={(n, j): v for n in range(max_n + 1) for j, v in _row(wid, n).items()},
    )


# --------------------------------------------------------------------------
# comparing against the shipped reference data

@dataclass(frozen=True)
class CellComparison:
    """One disagreement between a recomputed cell and the reference data."""

    table: str
    n: int
    column: str
    reference: int
    computed: int
    known: bool


def _reference_cells(wid: str, max_n: int) -> dict[tuple[int, int], int]:
    """The shipped reference cells with n <= max_n, keyed (n, j) like
    build_table's entries: a series table is stored as ``rows`` of column
    values, a rank table as ``cells`` keyed by rank."""
    ref = printed_table(wid)
    if "rows" in ref:
        cells = ((int(n), j, v) for n, row in ref["rows"].items() for j, v in enumerate(row))
    else:
        cells = ((int(n), int(r), v) for n, row in ref["cells"].items() for r, v in row.items())
    return {(n, j): v for n, j, v in cells if n <= max_n and v is not None}


def compare_table(which: int | str, max_n: int = 10) -> list[CellComparison]:
    """Recompute a table and diff it against every shipped reference cell.

    Returns the disagreements; each is flagged known=True when the cell is
    in the discrepancy list and our value matches the documented
    recomputation, so a clean build yields only known entries.  A reference
    cell with no recomputed value reads computed=-1.
    """
    wid = _check_id(which)
    table = build_table(wid, max_n)
    series = _SPEC[wid][1] == "series"
    documented = {
        (e["n"], e["r"] if "r" in e else SERIES_COLUMNS.index(e["column"])): e["computed"]
        for e in known_discrepancies(wid)
    }
    out: list[CellComparison] = []
    for (n, j), ref_value in _reference_cells(wid, max_n).items():
        computed = table.entries.get((n, j), -1)
        if computed != ref_value:
            column = SERIES_COLUMNS[j] if series else f"r={j}"
            known = computed == documented.get((n, j))
            out.append(CellComparison(wid, n, column, ref_value, computed, known))
    return out


# --------------------------------------------------------------------------
# rendering

def table_headers(which: int | str, max_n: int = 10) -> list[str]:
    wid = _check_id(which)
    fam, kind, _ = _SPEC[wid]
    if kind == "series":
        f = fam.value
        return ["n", f"c_0({f}_n)", f"c_1({f}_n)", f"c({f}_n)", f"e({f}_n)", f"e^xi({f}_n)"]
    return ["n"] + [f"r={r}" for r in range(max_n + 1)]


def _notes(wid: str, max_n: int) -> list[str]:
    notes = []
    for entry in known_discrepancies(wid):
        if entry["n"] <= max_n:
            where = f"r={entry['r']}" if "r" in entry else f"column {entry['column']}"
            notes.append(
                f"cell (n={entry['n']}, {where}): reference value {entry['reference']}"
                f" is a known discrepancy; this table shows the recomputed {entry['computed']}"
                f" ({entry['note']})"
            )
    return notes


def render_table(which: int | str, max_n: int = 10, fmt: str = "markdown") -> str:
    """Render one recomputed table deterministically.

    Blank strings mark cells outside a column's domain; genuine zero counts
    render as 0.  Known-discrepancy cells show the recomputed value, with a
    note naming the reference value.
    """
    wid = _check_id(which)
    if fmt not in ("csv", "json", "markdown"):
        raise DomainError(f"unknown format {fmt!r}")
    entries = build_table(wid, max_n).entries
    headers = table_headers(wid, max_n)
    rows = [
        [str(n)] + [str(entries[n, j]) if (n, j) in entries else "" for j in range(len(headers) - 1)]
        for n in range(max_n + 1)
    ]
    notes = _notes(wid, max_n)
    title = _SPEC[wid][2]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        for note in notes:
            buf.write(f"# {note}\n")
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "table": wid,
            "title": title,
            "columns": headers,
            "rows": [
                {"n": int(cells[0]), "cells": {h: v for h, v in zip(headers[1:], cells[1:])}}
                for cells in rows
            ],
            "notes": notes,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join(" ---:" for _ in headers) + "|")
    for cells in rows:
        lines.append("| " + " | ".join(cells) + " |")
    for note in notes:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"

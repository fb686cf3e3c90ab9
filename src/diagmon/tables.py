"""The ten reference tables: rebuilding, comparing, rendering.

Tables 1-3 are per-family series (c-values, idempotent totals, twisted
totals), tables 4/7/8 idempotents by rank, table 5 idempotents per R-class,
tables 6/9/10 twisted counts per R-class or rank.  The expected values ship
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

_FAMILY = {
    "1": MonoidFamily.B,
    "2": MonoidFamily.PB,
    "3": MonoidFamily.P,
    "4": MonoidFamily.B,
    "5": MonoidFamily.B,
    "6": MonoidFamily.B,
    "7": MonoidFamily.PB,
    "8": MonoidFamily.P,
    "9": MonoidFamily.B,
    "10": MonoidFamily.P,
}

_KIND = {
    "1": "series",
    "2": "series",
    "3": "series",
    "4": "e_rank",
    "5": "a_nr",
    "6": "b_nr",
    "7": "e_rank",
    "8": "e_rank",
    "9": "exi_rank",
    "10": "exi_rank",
}

_TITLE = {
    "1": "irreducible counts and idempotent totals, family B",
    "2": "irreducible counts and idempotent totals, family PB",
    "3": "irreducible counts and idempotent totals, family P",
    "4": "idempotents by rank, family B",
    "5": "idempotents per R-class, family B",
    "6": "twisted idempotents per R-class, family B",
    "7": "idempotents by rank, family PB",
    "8": "idempotents by rank, family P",
    "9": "twisted idempotents by rank, family B",
    "10": "twisted idempotents by rank, family P",
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

def _cell_defined(wid: str, n: int, r: int) -> bool:
    if wid in ("4", "5", "6", "9"):
        return 0 <= r <= n and (n - r) % 2 == 0
    return 0 <= r <= n


def _rank_value(wid: str, n: int, r: int) -> int:
    fam = _FAMILY[wid]
    if wid == "5":
        return a_nr(n, r)
    if wid == "6":
        return b_nr(n, r)
    if wid in ("9", "10"):
        return exi_rank(fam, n, r, 0)
    return e_rank(fam, n, r, "recurrence")


def build_table(which: int | str, max_n: int = 10) -> CountTable:
    """Recompute one table for n = 0..max_n.

    Series tables use entry keys (n, column position); rank tables use
    (n, r).  Cells outside a column's domain (c-values at n = 0, rank cells
    ruled out by parity) are simply absent.
    """
    wid = _check_id(which)
    if max_n < 0:
        raise DomainError(f"max_n must be nonnegative, got {max_n}")
    fam = _FAMILY[wid]
    entries: dict[tuple[int, ...], int] = {}
    if _KIND[wid] == "series":
        for n in range(max_n + 1):
            if n >= 1:
                c0, c1, c = c_values(fam, n)
                entries[(n, 0)], entries[(n, 1)], entries[(n, 2)] = c0, c1, c
            entries[(n, 3)] = e_total(fam, n, "recurrence")
            entries[(n, 4)] = exi_total(fam, n, 0, "recurrence")
        index_names = ("n", "column")
    else:
        for n in range(max_n + 1):
            for r in range(n + 1):
                if _cell_defined(wid, n, r):
                    entries[(n, r)] = _rank_value(wid, n, r)
        index_names = ("n", "r")
    return CountTable(
        kind=_KIND[wid],
        family=fam.value,
        method="recurrence",
        index_names=index_names,
        entries=entries,
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


def _known_key(entry: dict) -> tuple[str, int, str]:
    column = f"r={entry['r']}" if "r" in entry else entry["column"]
    return (entry["table"], entry["n"], column)


def compare_table(which: int | str, max_n: int = 10) -> list[CellComparison]:
    """Recompute a table and diff it against every shipped reference cell.

    Returns the disagreements; each is flagged known=True when the cell is
    in the discrepancy list and our value matches the documented
    recomputation, so a clean build yields only known entries.
    """
    wid = _check_id(which)
    table = build_table(wid, max_n)
    reference = printed_table(wid)
    documented = {
        _known_key(e): e["computed"] for e in known_discrepancies(wid)
    }
    out: list[CellComparison] = []

    def check(n: int, column: str, ref_value: int, key: tuple[int, ...]) -> None:
        computed = table.entries.get(key)
        if computed is None:
            out.append(CellComparison(wid, n, column, ref_value, -1, known=False))
            return
        if computed == ref_value:
            return
        expected = documented.get((wid, n, column))
        out.append(
            CellComparison(wid, n, column, ref_value, computed, known=computed == expected)
        )

    if _KIND[wid] == "series":
        for n_str, cells in reference["rows"].items():
            n = int(n_str)
            if n > max_n:
                continue
            for j, value in enumerate(cells):
                if value is not None:
                    check(n, SERIES_COLUMNS[j], value, (n, j))
    else:
        for n_str, row in reference["cells"].items():
            n = int(n_str)
            if n > max_n:
                continue
            for r_str, value in row.items():
                r = int(r_str)
                check(n, f"r={r}", value, (n, r))
    return out


# --------------------------------------------------------------------------
# rendering

def table_headers(which: int | str, max_n: int = 10) -> list[str]:
    wid = _check_id(which)
    fam = _FAMILY[wid].value
    if _KIND[wid] == "series":
        return ["n", f"c_0({fam}_n)", f"c_1({fam}_n)", f"c({fam}_n)", f"e({fam}_n)", f"e^xi({fam}_n)"]
    return ["n"] + [f"r={r}" for r in range(max_n + 1)]


def _grid(which: int | str, max_n: int) -> tuple[list[str], list[list[str]]]:
    wid = _check_id(which)
    table = build_table(wid, max_n)
    headers = table_headers(wid, max_n)
    rows: list[list[str]] = []
    width = len(headers) - 1
    for n in range(max_n + 1):
        cells = [str(n)]
        for j in range(width):
            value = table.entries.get((n, j))
            cells.append("" if value is None else str(value))
        rows.append(cells)
    return headers, rows


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
    headers, rows = _grid(wid, max_n)
    notes = _notes(wid, max_n)
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
            "title": _TITLE[wid],
            "columns": headers,
            "rows": [
                {"n": int(cells[0]), "cells": {h: v for h, v in zip(headers[1:], cells[1:])}}
                for cells in rows
            ],
            "notes": notes,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        lines = [f"### {_TITLE[wid]}", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(" ---:" for _ in headers) + "|")
        for cells in rows:
            lines.append("| " + " | ".join(cells) + " |")
        for note in notes:
            lines.append("")
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")

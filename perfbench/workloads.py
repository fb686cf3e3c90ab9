"""The four benchmark workloads: their op lists and their correctness gates.

An op is a tuple ``(key, call, args)``: ``call`` names a public function of
the ``diagmon`` package and is looked up when the op runs, so a traced run
calls the wrapped function.  ``key`` identifies the op for the gate.

Each gate runs after timing, on the answers the timed loop recorded, and
returns ``(failed_ops, messages)``.  An op fails when its answer is
wrong or disagrees with an independent route to the same number.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

FAMILIES = ("P", "B", "PB", "T", "I", "Idual")
TABLE_FORMATS = ("csv", "json", "markdown")
TABLE_IDS = tuple(str(i) for i in range(1, 11))

# Workload sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size the smoke test runs.  count-deep's wide group sits well
# below the cold RecursionError that e_total(B, n) raises from n = 499.
SIZES = {
    "full": {
        "count-deep": {"p_n": 20, "wide_n": 250, "rank_n": 80},
        "count-wide": {"max_n": 16, "table_n": 12, "check_n": 10},
        "verify-full": {"profile": "full", "checks": 30},
        "enumerate-io": {"sweeps": (("B", 6), ("PB", 5), ("P", 4))},
    },
    "smoke": {
        "count-deep": {"p_n": 8, "wide_n": 40, "rank_n": 12},
        "count-wide": {"max_n": 6, "table_n": 6, "check_n": 6},
        "verify-full": {"profile": "quick", "checks": 16},
        "enumerate-io": {"sweeps": (("B", 3), ("PB", 3), ("P", 2))},
    },
}

WORKLOADS = tuple(SIZES["full"])

# Workloads whose ops cost more or less by the order the seed shuffles them
# to, because a query fills memos that later queries reuse.  enumerate-io
# and verify-full keep no state between ops that changes their cost.
ORDER_DEPENDENT = ("count-deep", "count-wide")


def digest(value: int) -> str:
    """The stored form of an expected count: sha256 of its decimal string."""
    return hashlib.sha256(str(value).encode()).hexdigest()


def shuffled(ops: list, seed: int) -> list:
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out


# --------------------------------------------------------------------------
# count-deep

def deep_ops(size: dict) -> list[tuple]:
    """A few large counts: P at p_n, the totals of every other family at
    wide_n, and every rank of B and PB at rank_n.  The order is not yet
    shuffled.  The ten wide totals cost about the same whatever the
    order, so the op latency tail (about the 11th slowest op) falls among
    them and not among the rank ops, whose cost depends on which rank came
    first."""
    p, w, k = size["p_n"], size["wide_n"], size["rank_n"]
    ops: list[tuple] = [(("e_total", "P", p), "e_total", ("P", p))]
    ops += [(("e_rank", "P", p, r), "e_rank", ("P", p, r)) for r in range(p + 1)]
    ops.append((("exi_total", "P", p), "exi_total", ("P", p, 0)))
    ops += [(("exi_rank", "P", p, r), "exi_rank", ("P", p, r, 0)) for r in range(p + 1)]
    for fam in ("B", "PB", "T", "I", "Idual"):
        ops.append((("e_total", fam, w), "e_total", (fam, w)))
        # the partition formula is out of reach at this n; the CLI's
        # recurrence route is the one a user would pick
        ops.append((("exi_total", fam, w), "exi_total", (fam, w, 0, "recurrence")))
    for fam in ("B", "PB"):
        ops += [(("e_rank", fam, k, r), "e_rank", (fam, k, r)) for r in range(k + 1)]
    return ops


def op_id(key: tuple) -> str:
    return "|".join(map(str, key))


def deep_label(size: dict) -> str:
    """The key of one count-deep size in expected.json."""
    return op_id((size["p_n"], size["wide_n"], size["rank_n"]))


def deep_gate(answers: dict, expected: dict) -> tuple[int, list[str]]:
    failed = [op_id(key) for key, value in answers.items() if digest(value) != expected.get(op_id(key))]
    return len(failed), [f"{key}: digest mismatch" for key in failed]


# --------------------------------------------------------------------------
# count-wide

def wide_ops(size: dict) -> list[tuple]:
    """Every route at every small n over all six families, plus all ten
    tables rendered in every format."""
    ops: list[tuple] = []
    for fam in FAMILIES:
        for n in range(size["max_n"] + 1):
            for method in ("formula", "recurrence"):
                ops.append((("e_total", fam, n, method), "e_total", (fam, n, method)))
            methods = ("mu_sum", "recurrence") + (("closed",) if fam in ("B", "PB") else ())
            for r in range(n + 1):
                for method in methods:
                    ops.append((("e_rank", fam, n, r, method), "e_rank", (fam, n, r, method)))
                ops.append((("exi_rank", fam, n, r), "exi_rank", (fam, n, r, 0)))
            for m in range(4):
                ops.append((("exi_total", fam, n, m, "formula"), "exi_total", (fam, n, m, "formula")))
            ops.append((("exi_total", fam, n, 0, "recurrence"), "exi_total", (fam, n, 0, "recurrence")))
    for wid in TABLE_IDS:
        for fmt in TABLE_FORMATS:
            ops.append((("render", wid, fmt), "render_table", (wid, size["table_n"], fmt)))
    return ops


_SERIES_FAMILY = {"1": "B", "2": "PB", "3": "P"}
_RANK_TABLE = {"4": ("e_rank", "B"), "7": ("e_rank", "PB"), "8": ("e_rank", "P"),
               "9": ("exi_rank", "B"), "10": ("exi_rank", "P")}


def _table_cells(text: str, fmt: str) -> dict[tuple[int, int], str]:
    """(n, data column position) -> cell text, from one rendered table."""
    if fmt == "json":
        payload = json.loads(text)
        return {(row["n"], j): v for row in payload["rows"] for j, v in enumerate(row["cells"].values())}
    if fmt == "csv":
        rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    else:
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in text.splitlines()
            if line.startswith("| ")
        ]
        rows = [r for r in rows if r[0] != "---:"]
    return {(int(row[0]), j): v for row in rows[1:] for j, v in enumerate(row[1:])}


def _reference_cells(printed: dict, known: list[dict], check_n: int) -> dict:
    """(table, n, data column position) -> (reference value, documented
    recomputation or None), for every reference cell with n <= check_n."""
    out = {}
    for wid, table in printed.items():
        if wid in _SERIES_FAMILY:
            cells = ((int(n), j, v) for n, row in table["rows"].items() for j, v in enumerate(row))
        else:
            cells = ((int(n), int(r), v) for n, row in table["cells"].items() for r, v in row.items())
        for n, j, value in cells:
            if value is not None and n <= check_n:
                out[(wid, n, j)] = (value, None)
    for e in known:
        j = e["r"] if "r" in e else printed[e["table"]]["columns"].index(e["column"])
        key = (e["table"], e["n"], j)
        if key in out:
            out[key] = (out[key][0], e["computed"])
    return out


def _accepts(computed: int, ref: tuple) -> bool:
    value, documented = ref
    return computed == value if documented is None else computed == documented


def _query_key(wid: str, n: int, j: int) -> tuple | None:
    """The count-wide op whose answer is the reference cell (wid, n, j)."""
    if wid in _SERIES_FAMILY:
        fam = _SERIES_FAMILY[wid]
        return {3: ("e_total", fam, n, "recurrence"), 4: ("exi_total", fam, n, 0, "recurrence")}.get(j)
    if wid in _RANK_TABLE:
        kind, fam = _RANK_TABLE[wid]
        return ("e_rank", fam, n, j, "recurrence") if kind == "e_rank" else ("exi_rank", fam, n, j)
    return None


def wide_gate(answers: dict, size: dict, printed: dict, known: list[dict]) -> tuple[int, list[str]]:
    failed: set = set()
    messages: list[str] = []

    def agree(what: str, keys: list, summed: list = ()) -> None:
        """The answers to keys, and the sum of the answers to summed, must be
        equal.  Ops that raised are skipped here; the worker counts them."""
        if not all(k in answers for k in (*keys, *summed)):
            return
        values = [answers[k] for k in keys] + ([sum(answers[k] for k in summed)] if summed else [])
        if len(set(values)) > 1:
            failed.update((*keys, *summed))
            messages.append(f"{what}: routes disagree {values}")

    for fam in FAMILIES:
        for n in range(size["max_n"] + 1):
            total = ("e_total", fam, n, "recurrence")
            agree(f"e_total({fam},{n})", [("e_total", fam, n, "formula"), total])
            for r in range(n + 1):
                methods = ("mu_sum", "recurrence") + (("closed",) if fam in ("B", "PB") else ())
                agree(f"e_rank({fam},{n},{r})", [("e_rank", fam, n, r, m) for m in methods])
            agree(f"rank sum of {fam}_{n}", [total], [("e_rank", fam, n, r, "recurrence") for r in range(n + 1)])
            exi = ("exi_total", fam, n, 0, "formula")
            agree(f"exi_total({fam},{n},0)", [exi, ("exi_total", fam, n, 0, "recurrence")])
            agree(f"twisted rank sum of {fam}_{n}", [exi], [("exi_rank", fam, n, r) for r in range(n + 1)])
            agree(f"order-1 collapse of {fam}_{n}", [("exi_total", fam, n, 1, "formula"), total])

    reference = _reference_cells(printed, known, size["check_n"])
    for (wid, n, j), ref in reference.items():
        key = _query_key(wid, n, j)
        if key in answers and not _accepts(answers[key], ref):
            failed.add(key)
            messages.append(f"{op_id(key)} = {answers[key]}, table {wid} has {ref[0]}")
    for wid in TABLE_IDS:
        if not all(("render", wid, fmt) in answers for fmt in TABLE_FORMATS):
            continue
        grids = {fmt: _table_cells(answers[("render", wid, fmt)], fmt) for fmt in TABLE_FORMATS}
        for fmt in ("csv", "markdown"):
            if grids[fmt] != grids["json"]:
                failed.add(("render", wid, fmt))
                messages.append(f"table {wid}: {fmt} cells differ from json")
        for (tid, n, j), ref in reference.items():
            cell = grids["json"].get((n, j), "") if tid == wid else None
            if cell is not None and not (cell and _accepts(int(cell), ref)):
                failed.add(("render", wid, "json"))
                messages.append(f"table {wid} (n={n}, column {j}) renders {cell!r}, reference {ref[0]}")
    return len(failed), messages


# --------------------------------------------------------------------------
# verify-full and enumerate-io

def verify_gate(results: list[tuple[str, bool]], rendered: str, size: dict) -> tuple[int, list[str]]:
    """results holds (check name, ok) per check; every check is one op."""
    failed = sum(not ok for _, ok in results)
    messages = [f"check failed: {name}" for name, ok in results if not ok]
    if len(results) != size["checks"]:
        failed += abs(size["checks"] - len(results))
        messages.append(f"{len(results)} checks ran, {size['checks']} expected")
    verdict = f"{size['profile']} profile: {size['checks']} checks, all checks passed"
    if rendered.splitlines()[-1:] != [verdict]:
        messages.append(f"report does not end with {verdict!r}")
        failed = max(failed, 1)
    return failed, messages


def enumerate_gate(sweeps: list[dict]) -> tuple[int, list[str]]:
    """Each sweep dict holds the observed tallies next to the expected ones:
    count/predicted, idempotent/e_total, twisted/exi_total, and the number
    of diagrams whose text did not parse back to themselves."""
    failed, messages = 0, []
    for s in sweeps:
        where = f"{s['family']}_{s['n']}"
        if s["roundtrip_failures"]:
            failed += s["roundtrip_failures"]
            messages.append(f"{where}: {s['roundtrip_failures']} diagrams do not parse back")
        for seen, want in (("count", "predicted"), ("idempotent", "e_total"), ("twisted", "exi_total")):
            if s[seen] != s[want]:
                failed += abs(s[seen] - s[want])
                messages.append(f"{where}: {seen} {s[seen]} != {want} {s[want]}")
    return failed, messages

"""Per-call cost of diagmon's core kernels and the oracle sweeps.

    python3 benchmarks/core_kernels.py --label NAME [--out FILE]

Imports diagmon from the ``src`` directory next to this script, so running
the script from another checkout measures that checkout.  Writes one entry,
keyed by the label, into the JSON file (``BENCH_core_kernels.json`` at the
repository root by default), keeping the entries already there.  Stdlib only.

Every time is scaled to a reference host speed with perfbench's host probe
(``probe_factor`` in ``perfbench/worker.py``): each pass, one kernel on one
stream or one sweep, is multiplied by the mean of the factors probed just
before and just after that pass, so a pass run while a shared host is slow
is not taken for a slow kernel.

Rows of an entry:

- ``kernels_us``: microseconds per call of each kernel on every element of
  the B6, PB5 and P4 streams (the streams of ``diagmon verify --profile
  full``); ``multiply`` squares the element, ``is_idempotent_direct``
  squares it in label form and compares the strings (both reach
  ``core._glue``), ``is_twisted_idempotent`` is at order 0,
  ``green_signature`` is the R side.  ``graph_rank`` is
  ``lambda_graph`` plus the component classification, timed on each
  idempotent of the B6 and PB5 streams only.  ``generate`` is microseconds
  per element of running ``enumerate_elements`` through the whole stream.
  ``green_table`` is microseconds per product of building the P3 and B4
  product tables of ``diagmon verify --profile full`` the way
  ``check_green_orbits`` builds them (``verify._product_table``; since
  ``pr25-change`` one middle-row join per row and upper row of the bottom
  factors, not one ``_glue`` per product).  ``parse_diagram`` also has a
  ``mixed`` row: the three streams' texts shuffled together with seed
  ``MIXED_SEED`` (``shuffled`` in ``perfbench/workloads.py``), the order in
  which perfbench's enumerate-io parses them, so that consecutive texts
  differ in n; entries before ``pr26-parent`` lack it.
  Median of ``ROUNDS`` scaled passes; each round times every kernel once.
- ``brute_report``: seconds and microseconds per element of
  ``brute_report(family, n, M=0)`` for each (family, n) in ``FULL_SWEEPS``.
  Median of ``ROUNDS`` scaled passes.
- ``counting_ms``: milliseconds of the counting recurrences, each pass
  on fresh counting tables (``counting._TABLES``; the tables of
  ``combinat`` stay warm except in ``c_values``).  ``e_rank_triangle`` is
  ``e_rank(fam, 80, 80, "recurrence")``, which grows every rank of B or PB
  up to n = 80, and ``exi_rank_triangle`` is ``exi_rank(fam, 80, 80, 0,
  "recurrence")``, the same for the twisted ranks; ``exi_rank_default`` is
  ``exi_rank(fam, n, r, M)`` with no route, one cold cell by the library's
  default, at each (fam, n, r, M) in ``DEFAULT_TWISTED_RANKS``;
  ``e_rank_default`` asks
  ``e_rank(fam, n, r)`` with no route for r = n, ..., 0, one full rank row
  by the library's default, at each (fam, n) in ``DEFAULT_RANKS``, with
  ``combinat``'s Stirling table emptied too; ``e_rank_closed`` asks
  ``e_rank(fam, n, r, "closed")`` for every n <= ``CLOSED_RANK_N`` and
  r <= n, count-wide's closed rank queries, for B and PB;
  ``e_total`` and
  ``exi_total`` are the recurrence routes at n = 250 (``exi_total`` at
  order 0) for each family in ``WIDE_FAMILIES``; ``e_total_default`` is
  ``e_total(fam, n)`` with no route, the library's default total, at each
  (fam, n) in ``DEFAULT_TOTALS``; ``e_rank_cells`` asks
  ``e_rank(fam, n, r, "recurrence")`` cell by cell for every n <= 10 and
  r <= n in every family, lowest rank first, the order ``check_rank_methods``
  of ``diagmon verify`` used up to ``pr18-change``.
  ``exi_total_default`` is ``exi_total(fam, n)`` with no order and no
  route, the library's default twisted total, for B and PB at n = 40 and
  P at n = 20, and ``exi_total_order2`` is ``exi_total(fam, n, 2)``, the
  default route at twist order 2, at each (fam, n) in ``ORDER_2_TWISTED``.
  ``c_values`` is ``c_values("P", n)`` at each n in ``COLD_PAIRS_N`` with
  the ``e_nrs`` table (``combinat._E_PAIRS``) emptied as well, so it
  measures the ``e_nrs`` route.  ``shared_grids`` is count-deep's group
  of first-piece totals on one set of fresh tables:
  ``exi_total(fam, 250, 0, "recurrence")`` for each family in
  ``SHARED_GRID_FAMILIES``, then ``e_total("Idual", 250)``.  ``bell`` is
  ``combinat.bell(n)`` at each n in ``BELL_N``, with ``combinat``'s Bell
  and Stirling tables emptied.  Median of ``ROUNDS`` scaled passes.
  Entries before ``pr13-parent`` lack the row, entries before
  ``pr14-parent`` lack ``exi_total_default``, entries before
  ``pr15-parent`` lack ``exi_rank_triangle`` and ``c_values``, entries
  before ``pr16-parent`` lack ``e_total_default``, and entries before
  ``pr17-parent`` lack ``exi_total_order2``.  Up to
  ``pr15-change`` the ``e_total`` row took the default route, which was
  the recurrence for every family.  ``pr16-parent`` lacks
  ``e_total_default`` at B5000: there its default, the recurrence, was
  not run (B2000 alone took 103 s).  ``pr17-parent`` lacks
  ``exi_total_order2`` at B250: there its default, the partition formula,
  would sweep the 2.3·10^14 integer partitions of 250.  From
  ``pr18-change`` the ``e_total`` row reads ``exi_total``'s grid at twist
  order 1, two convolutions a cell (c0 and c1), where earlier entries made
  one with the c0 + c1 column; from ``pr21-change`` it makes one again,
  with the weights of that column.  Up to ``pr18-change`` the
  ``e_rank_triangle`` and ``e_rank_cells`` rows took the default route,
  which was the recurrence for every family; entries before
  ``pr19-parent`` lack ``e_rank_default``.  ``pr19-parent`` has every
  size of it: there the default was the rank grid, which takes a few
  seconds at PB250, well under a minute.  Entries before ``pr20-parent``
  lack ``shared_grids``, ``bell`` and ``e_rank_default`` at Idual250, and
  their ``e_rank_default`` passes left the Stirling table warm, which no
  family's default read there.  Entries before ``pr21-parent`` lack
  ``c_values`` at P40.  Entries before ``pr23-change`` lack
  ``exi_total_order2`` at B1000: there its default, a first-piece grid of
  two residue rows, took about 8 s a pass.  From ``pr23-change``, B's and
  PB's default totals at every twist order, ``e_total_default`` and
  ``exi_total_order2`` included, read the marked holonomic grid.
  Entries before ``pr24-parent`` lack ``e_rank_closed``.  Up to
  ``pr24-parent`` the closed route of B and PB swept the integer
  partitions of n; from ``pr24-change`` it is the row off the bivariate
  EGF that the default reads, so ``e_rank_closed`` and ``e_rank_default``
  time one route.  Entries before ``pr27-parent`` lack ``exi_rank_default``,
  and ``pr27-parent`` lacks it at M = 2: there ``exi_rank`` refused every
  twist order M > 0, and its one route, the recurrence, was its default for
  every family, so up to ``pr27-parent`` ``exi_rank_triangle`` took no
  route name.  Entries before ``pr28-parent`` lack ``exi_total_order2`` at
  T1000 and I1000.  From ``pr28-change`` ``e_total`` is ``exi_total`` at
  twist order 1, so the ``e_total`` and ``e_total_default`` rows run
  through ``exi_total``; and T's and I's defaults at every order read their
  closed totals, where up to ``pr28-parent`` they grew a first-piece grid
  of two rows at order 2.  Entries before ``pr29-parent`` lack
  ``e_rank_default`` at PB1000.  Up to ``pr29-parent`` PB's closed row was
  a binomial convolution with the sets of lists, O(n²) products of two big
  ints (about 5 s a pass at PB1000); from ``pr29-change`` it is a
  three-term recurrence at rank 0 and a two-term step to each rank above,
  products of a big int by a small one.  ``formula_sweep`` is
  ``counting._partition_grid(fam, n)`` for every n <= ``FORMULA_N`` on one
  set of fresh tables, count-wide's partition sweeps, for each family, and
  ``exi_total_formula`` is ``exi_total(fam, n, M, "formula")`` at each
  (fam, n, M) in ``FORMULA_TWISTED``; entries before ``pr30-parent`` lack
  both.  From ``pr31-change`` every counting table sits in the one
  ``counting._FamilyTables`` of its family, so the reset above still makes
  each pass cold; PB's ``exi_rank_triangle`` grows B's grid of rank-1
  pieces, which reads the same c1 column as PB's own did up to
  ``pr31-parent``.
- ``host_factors``: for each row, the lowest, median and highest factor
  its passes were scaled by.
- ``python`` (the interpreter's version), ``git_sha`` (the checkout's
  HEAD) and ``src_sha256``, the digest over ``src/diagmon`` that perfbench
  stamps on its runs (``src_digest`` in ``perfbench/run.py``).  ``git_sha``
  names the parent commit when the tree is not yet committed, and is
  ``null`` (with a note on stderr) when the checkout is not a git
  repository; the digest names the code measured either way.  Entries
  older than it lack it.

Entries without ``host_factors`` are unscaled and take the best round.
The ``host-scaled-a`` and ``host-scaled-b`` entries scaled whole rounds
instead; their ``host_factors`` list one factor per round, in round order.
Older entries also carry ``run_full_cold_s``, the wall times of a cold
``run_full()``, a row this script no longer writes; perfbench's verify-full
workload measures the same run.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from collections import deque
from functools import partial
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

from diagmon import combinat, counting  # noqa: E402
from diagmon.core import (  # noqa: E402
    MonoidFamily,
    format_diagram,
    lambda_graph,
    multiply,
    parse_diagram,
    profile,
)
from diagmon.idempotency import (  # noqa: E402
    classify_lambda_components,
    is_idempotent_direct,
    is_idempotent_structural,
    is_twisted_idempotent,
    rank_from_components,
)
from diagmon.oracle import brute_report, enumerate_elements, green_signature  # noqa: E402
from diagmon.verify import FULL_SWEEPS, _product_table  # noqa: E402
from run import src_digest  # noqa: E402
from worker import probe_factor  # noqa: E402
from workloads import shuffled  # noqa: E402

STREAMS = (("B", 6), ("PB", 5), ("P", 4))
MIXED_SEED = 1
ROUNDS = 7

KERNELS = {
    "multiply": lambda a: multiply(a, a),
    "is_idempotent_direct": is_idempotent_direct,
    "profile": profile,
    "is_idempotent_structural": is_idempotent_structural,
    "is_twisted_idempotent": lambda a: is_twisted_idempotent(a, 0),
    "green_signature": lambda a: green_signature(a, "R"),
    "format_diagram": format_diagram,
}
GRAPH_STREAMS = ("B6", "PB5")
GREEN_TABLES = (("P", 3), ("B", 4))
TRIANGLE_N, WIDE_N, CELLS_N = 80, 250, 10
WIDE_FAMILIES = ("B", "PB", "T", "I", "Idual")
DEFAULT_TWISTED = (("B", 40), ("PB", 40), ("P", 20))
DEFAULT_TOTALS = (("B", 250), ("B", 1200), ("B", 5000), ("T", 1200), ("I", 250))
DEFAULT_RANKS = (
    ("B", 80), ("PB", 80), ("B", 250), ("PB", 250), ("T", 250), ("Idual", 250), ("PB", 1000))
ORDER_2_TWISTED = (("B", 40), ("B", 250), ("B", 1000), ("T", 1000), ("I", 1000))
CLOSED_RANK_N = 16
DEFAULT_TWISTED_RANKS = (("T", 250, 80, 0), ("B", 250, 100, 0), ("B", 250, 100, 2))
COLD_PAIRS_N = (20, 30, 40)
FORMULA_N = 16
FORMULA_TWISTED = (("B", 40, 2),)
BELL_N = (250, 1000)
# count-deep's first-piece totals at n = WIDE_N: exi_total at order 0 by
# recurrence for these families, and Idual's default e_total
SHARED_GRID_FAMILIES = ("B", "PB", "T", "Idual")


def graph_rank(a) -> int:
    return rank_from_components(classify_lambda_components(lambda_graph(a)))


def us_per_call(fn, items: list) -> float:
    started = time.perf_counter()
    for x in items:
        fn(x)
    return 1e6 * (time.perf_counter() - started) / len(items)


def us_per_product(n: int, elements: list) -> float:
    started = time.perf_counter()
    _product_table(n, elements)
    return 1e6 * (time.perf_counter() - started) / len(elements) ** 2


def us_per_element(fam: str, n: int, elements: int) -> float:
    started = time.perf_counter()
    deque(enumerate_elements(fam, n), maxlen=0)
    return 1e6 * (time.perf_counter() - started) / elements


def median_scaled(passes: dict) -> tuple[dict, list[float]]:
    """For each key, the median over ROUNDS rounds of passes[key](), a time,
    each pass scaled by the mean host factor probed just before and just
    after it; and the lowest, median and highest of those factors.  The
    median, not the best: the best scaled pass is often one whose probes
    happened to read the host slow."""
    scaled: dict = {key: [] for key in passes}
    factors = []
    for _ in range(ROUNDS):
        for key, timed in passes.items():
            before = probe_factor()
            t = timed()
            factor = (before + probe_factor()) / 2
            factors.append(factor)
            scaled[key].append(t * factor)
    spread = [round(f, 4) for f in (min(factors), median(factors), max(factors))]
    return {key: median(ts) for key, ts in scaled.items()}, spread


def kernel_rows() -> tuple[dict, list[float]]:
    """Each round times every kernel once on every stream, so a slow stretch
    of a shared host hits all kernels alike."""
    passes = {}
    mixed = []
    for fam, n in STREAMS:
        label = f"{fam}{n}"
        elements = list(enumerate_elements(fam, n))
        texts = [format_diagram(a) for a in elements]
        mixed += texts
        for name, fn in KERNELS.items():
            passes[name, label] = partial(us_per_call, fn, elements)
        passes["parse_diagram", label] = partial(us_per_call, parse_diagram, texts)
        if label in GRAPH_STREAMS:
            idempotents = [a for a in elements if is_idempotent_direct(a)]
            passes["graph_rank", label] = partial(us_per_call, graph_rank, idempotents)
        passes["generate", label] = partial(us_per_element, fam, n, len(elements))
    passes["parse_diagram", "mixed"] = partial(us_per_call, parse_diagram, shuffled(mixed, MIXED_SEED))
    for fam, n in GREEN_TABLES:
        passes["green_table", f"{fam}{n}"] = partial(us_per_product, n, list(enumerate_elements(fam, n)))

    median_times, factors = median_scaled(passes)
    rows: dict[str, dict[str, float]] = {}
    for (name, label), us in median_times.items():
        rows.setdefault(name, {})[label] = round(us, 3)
    return rows, factors


def cold_ms(query, *args) -> float:
    """Milliseconds of query(*args) on fresh counting tables."""
    counting._TABLES = {fam: counting._FamilyTables() for fam in MonoidFamily}
    started = time.perf_counter()
    query(*args)
    return 1e3 * (time.perf_counter() - started)


def cold_pairs_ms(n: int) -> float:
    """Milliseconds of c_values("P", n) on fresh counting tables and an
    empty e_nrs table."""
    combinat._E_PAIRS.clear()
    return cold_ms(counting.c_values, "P", n)


def rank_cells(fam: str) -> None:
    for n in range(CELLS_N + 1):
        for r in range(n + 1):
            counting.e_rank(fam, n, r, "recurrence")


def closed_ranks(fam: str) -> None:
    for n in range(CLOSED_RANK_N + 1):
        for r in range(n + 1):
            counting.e_rank(fam, n, r, "closed")


def rank_row(fam: str, n: int) -> None:
    for r in range(n, -1, -1):
        counting.e_rank(fam, n, r)


def cold_rank_row_ms(fam: str, n: int) -> float:
    """Milliseconds of rank_row on fresh counting tables and an empty
    Stirling table (combinat._STIRLING2), which Idual's closed row reads."""
    combinat._STIRLING2.clear()
    return cold_ms(rank_row, fam, n)


def twisted_triangle(fam: str) -> None:
    # checkouts whose ROUTES lacks exi_rank had the recurrence alone, and no method
    route = ("recurrence",) if "exi_rank" in counting.ROUTES else ()
    counting.exi_rank(fam, TRIANGLE_N, TRIANGLE_N, 0, *route)


def formula_sweeps(fam: MonoidFamily) -> None:
    for n in range(FORMULA_N + 1):
        counting._partition_grid(fam, n)


def shared_grids() -> None:
    for fam in SHARED_GRID_FAMILIES:
        counting.exi_total(fam, WIDE_N, 0, "recurrence")
    counting.e_total("Idual", WIDE_N)


def cold_bell_ms(n: int) -> float:
    """Milliseconds of combinat.bell(n) with its tables emptied: the
    Stirling table, which a bell that sums a Stirling row grows, and the
    Bell numbers and the Bell triangle's last row, where bell keeps them;
    the script also measures older checkouts, which lack the latter."""
    combinat._STIRLING2.clear()
    if hasattr(combinat, "_BELL"):
        del combinat._BELL[1:]
        combinat._BELL_ROW[:] = [1]
    started = time.perf_counter()
    combinat.bell(n)
    return 1e3 * (time.perf_counter() - started)


def counting_rows() -> tuple[dict, list[float]]:
    passes = {}
    for fam in ("B", "PB"):
        label = f"{fam}{TRIANGLE_N}"
        passes["e_rank_triangle", label] = partial(
            cold_ms, counting.e_rank, fam, TRIANGLE_N, TRIANGLE_N, "recurrence")
        passes["exi_rank_triangle", label] = partial(cold_ms, twisted_triangle, fam)
        passes["e_rank_closed", f"{fam}{CLOSED_RANK_N}"] = partial(cold_ms, closed_ranks, fam)
    for fam, n in DEFAULT_RANKS:
        passes["e_rank_default", f"{fam}{n}"] = partial(cold_rank_row_ms, fam, n)
    for fam, n, r, order in DEFAULT_TWISTED_RANKS:
        if order and "exi_rank" not in counting.ROUTES:  # that checkout refused every order M > 0
            continue
        label = f"{fam}{n} rank {r}" + (f" M={order}" if order else "")
        passes["exi_rank_default", label] = partial(cold_ms, counting.exi_rank, fam, n, r, order)
    for fam in WIDE_FAMILIES:
        passes["e_total", f"{fam}{WIDE_N}"] = partial(cold_ms, counting.e_total, fam, WIDE_N, "recurrence")
        passes["exi_total", f"{fam}{WIDE_N}"] = partial(
            cold_ms, counting.exi_total, fam, WIDE_N, 0, "recurrence")
    for fam in MonoidFamily:
        passes["e_rank_cells", f"{fam.value}{CELLS_N}"] = partial(cold_ms, rank_cells, fam.value)
    for fam, n in DEFAULT_TWISTED:
        passes["exi_total_default", f"{fam}{n}"] = partial(cold_ms, counting.exi_total, fam, n)
    for fam, n in ORDER_2_TWISTED:
        passes["exi_total_order2", f"{fam}{n}"] = partial(cold_ms, counting.exi_total, fam, n, 2)
    for fam, n in DEFAULT_TOTALS:
        passes["e_total_default", f"{fam}{n}"] = partial(cold_ms, counting.e_total, fam, n)
    for fam in MonoidFamily:
        passes["formula_sweep", f"{fam.value}{FORMULA_N}"] = partial(cold_ms, formula_sweeps, fam)
    for fam, n, order in FORMULA_TWISTED:
        passes["exi_total_formula", f"{fam}{n} M={order}"] = partial(
            cold_ms, counting.exi_total, fam, n, order, "formula")
    for n in COLD_PAIRS_N:
        passes["c_values", f"P{n}"] = partial(cold_pairs_ms, n)
    passes["shared_grids", f"count-deep{WIDE_N}"] = partial(cold_ms, shared_grids)
    for n in BELL_N:
        passes["bell", str(n)] = partial(cold_bell_ms, n)
    median_times, factors = median_scaled(passes)
    rows: dict[str, dict[str, float]] = {}
    for (name, label), ms in median_times.items():
        rows.setdefault(name, {})[label] = round(ms, 3)
    return rows, factors


def git_sha() -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        print(f"note: {ROOT} is not a git checkout; git_sha is null", file=sys.stderr)
        return None
    return done.stdout.strip()


def sweep_seconds(fam, n: int, elements: dict) -> float:
    report = brute_report(fam, n, M=0)
    elements[f"{fam.value}{n}"] = report.total_elements
    return report.elapsed_seconds


def sweep_rows() -> tuple[dict, list[float]]:
    elements: dict[str, int] = {}
    passes = {f"{fam.value}{n}": partial(sweep_seconds, fam, n, elements) for fam, n in FULL_SWEEPS}
    median_times, factors = median_scaled(passes)
    rows = {
        label: {
            "elements": elements[label],
            "seconds": round(seconds, 4),
            "us_per_element": round(1e6 * seconds / elements[label], 2),
        }
        for label, seconds in median_times.items()
    }
    return rows, factors


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="Key of this entry in the output file.")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_core_kernels.json")
    args = parser.parse_args()
    entry = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }
    entry["kernels_us"], kernel_factors = kernel_rows()
    entry["brute_report"], sweep_factors = sweep_rows()
    entry["counting_ms"], counting_factors = counting_rows()
    entry["host_factors"] = {
        "kernels_us": kernel_factors, "brute_report": sweep_factors, "counting_ms": counting_factors,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    json.dump(entry, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

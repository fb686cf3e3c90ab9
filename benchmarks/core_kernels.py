"""Per-call cost of diagmon's core kernels and the oracle sweeps.

    python3 benchmarks/core_kernels.py --label NAME [--out FILE]

Imports diagmon from the ``src`` directory next to this script, so running
the script from another checkout measures that checkout.  Writes one entry,
keyed by the label, into the JSON file (``BENCH_core_kernels.json`` at the
repository root by default), keeping the entries already there.  Stdlib only.

Rows of an entry:

- ``kernels_us``: microseconds per call of each kernel on every element of
  the B6, PB5 and P4 streams (the streams of ``diagmon verify --profile
  full``); ``multiply`` squares the element, ``is_twisted_idempotent`` is at
  order 0, ``green_signature`` is the R side.  ``graph_rank`` is
  ``lambda_graph`` plus the component classification, timed on each
  idempotent of the B6 and PB5 streams only.  Best of ``ROUNDS`` rounds,
  each round timing every kernel once.
- ``brute_report``: seconds and microseconds per element of
  ``brute_report(family, n, M=0)`` for each (family, n) in ``FULL_SWEEPS``.
  Best of ``ROUNDS`` rounds.
- ``python`` (the interpreter's version) and ``git_sha`` (the checkout's
  HEAD).

Older entries in that file also carry ``run_full_cold_s``, the wall times
of a cold ``run_full()``, a row this script no longer writes.  Those times
had no correction for the speed of a shared host, so two commits could
rank the wrong way round; perfbench's verify-full workload, which is
host-scaled, measures the same run.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from diagmon.core import format_diagram, lambda_graph, multiply, parse_diagram, profile  # noqa: E402
from diagmon.idempotency import (  # noqa: E402
    classify_lambda_components,
    is_idempotent_direct,
    is_idempotent_structural,
    is_twisted_idempotent,
    rank_from_components,
)
from diagmon.oracle import brute_report, enumerate_elements, green_signature  # noqa: E402
from diagmon.verify import FULL_SWEEPS  # noqa: E402

STREAMS = (("B", 6), ("PB", 5), ("P", 4))
ROUNDS = 7

KERNELS = {
    "multiply": lambda a: multiply(a, a),
    "profile": profile,
    "is_idempotent_structural": is_idempotent_structural,
    "is_twisted_idempotent": lambda a: is_twisted_idempotent(a, 0),
    "green_signature": lambda a: green_signature(a, "R"),
    "format_diagram": format_diagram,
}
GRAPH_STREAMS = ("B6", "PB5")


def graph_rank(a) -> int:
    return rank_from_components(classify_lambda_components(lambda_graph(a)))


def best_us(timings: dict, key: tuple, fn, items: list) -> None:
    """Time one pass of fn over the items; keep the best µs per call seen."""
    started = time.perf_counter()
    for x in items:
        fn(x)
    us = 1e6 * (time.perf_counter() - started) / len(items)
    timings[key] = min(us, timings.get(key, us))


def kernel_rows() -> dict:
    """Each round times every kernel once on every stream, so a slow stretch
    of a shared host hits all kernels alike; the best round counts."""
    streams = {}
    for fam, n in STREAMS:
        elements = list(enumerate_elements(fam, n))
        streams[f"{fam}{n}"] = (elements, [format_diagram(a) for a in elements])
    idempotents = {
        label: [a for a in streams[label][0] if is_idempotent_direct(a)] for label in GRAPH_STREAMS
    }
    best: dict[tuple[str, str], float] = {}
    for _ in range(ROUNDS):
        for label, (elements, texts) in streams.items():
            for name, fn in KERNELS.items():
                best_us(best, (name, label), fn, elements)
            best_us(best, ("parse_diagram", label), parse_diagram, texts)
            if label in idempotents:
                best_us(best, ("graph_rank", label), graph_rank, idempotents[label])
    rows: dict[str, dict[str, float]] = {}
    for (name, label), us in best.items():
        rows.setdefault(name, {})[label] = round(us, 3)
    return rows


def sweep_rows() -> dict:
    best: dict[str, float] = {}
    elements: dict[str, int] = {}
    for _ in range(ROUNDS):
        for fam, n in FULL_SWEEPS:
            report = brute_report(fam, n, M=0)
            label = f"{fam.value}{n}"
            best[label] = min(report.elapsed_seconds, best.get(label, report.elapsed_seconds))
            elements[label] = report.total_elements
    return {
        label: {
            "elements": elements[label],
            "seconds": round(seconds, 4),
            "us_per_element": round(1e6 * seconds / elements[label], 2),
        }
        for label, seconds in best.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="Key of this entry in the output file.")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_core_kernels.json")
    args = parser.parse_args()
    entry = {
        "python": platform.python_version(),
        "git_sha": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip(),
        "kernels_us": kernel_rows(),
        "brute_report": sweep_rows(),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    json.dump(entry, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

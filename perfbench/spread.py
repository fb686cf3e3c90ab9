"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1] [--json FILE]

For every metric: the median over the seeds, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread, which is
(Q3 - Q1) / median.  Runs one benchmark command at a time, with the
run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        stamp = next(json.loads(line)["stamp"] for line in lines if line.startswith('{"stamp"'))
        runs.append({"seed": seed, "elapsed_s": elapsed, "stamp": stamp, **result})
        print(f"seed {seed}: {elapsed:.1f} s, correct {result['correct']}", file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:45s} median {med:12.6g}  spread {summary[name]['spread']:.3f}")
    print(f"run time: max {max(r['elapsed_s'] for r in runs):.1f} s, "
          f"mean {statistics.mean(r['elapsed_s'] for r in runs):.1f} s")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""diagmon benchmark: cold-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Every repetition of a workload runs in a fresh worker interpreter
(worker.py), because every memo diagmon keeps belongs to the process and
a user pays for each CLI call cold.  Workers run one at a time, each a
closed loop with one caller and no threads.

--trace 0 starts set-up probes (import plus reference data, nothing else)
and then untraced repetitions until --seconds is spent, at least one, and
reports the end-to-end metrics as medians over the repetitions (for the
op latency percentiles, see op_percentiles).
--trace 1 alternates an untraced and a traced repetition instead and
reports the per-layer metrics of tracer.py, including the tracing
overhead.  The traced spans are written to perfbench/out/.

End-to-end times are reported at a reference host speed: the shared host
this benchmark was built on ran up to twice as slow for seconds to minutes
at a time, so each worker scales its times by a fixed kernel it keeps
timing while the workload runs (worker.HostMeter).  The stamp line keeps
the measured set-up and wall times.  Per-layer times are
reported as measured.

Every answer is checked after timing (see workloads.py).  The last line
on stdout is one JSON object: correct, attempted, failed and the metrics.
The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 16
DEADLINE_S = 170  # the whole command must end within 180 s


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, size: str, started: float) -> dict:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time before the workload finished")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, size],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(args: argparse.Namespace) -> tuple[list[dict], list[dict], list[dict]]:
    """(set-up probes, untraced reps, traced reps), run one worker at a time.

    Repetition k of an untraced run shuffles its ops with the order seed
    1000 * seed + k, so the medians cover several orders of one seed's
    making.  A traced run repeats order k = 0, so its counts must repeat.
    """
    started = time.perf_counter()

    def worker(mode: str, rep: int = 0) -> dict:
        return run_worker(args.workload, 1000 * args.seed + rep, mode, args.size, started)

    probes, plain, traced = [], [], []
    if not args.trace:
        worker("setup")  # warm-up: the first import in a checkout compiles the sources
        probes = [worker("setup") for _ in range(SETUP_PROBES)]
    measure_from = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        if args.trace:
            plain.append(worker("plain"))
            traced.append(worker("traced"))
        else:
            plain.append(worker("plain", len(plain)))
        spent = time.perf_counter() - measure_from
        if spent + time.perf_counter() - rep_start > args.seconds:
            return probes, plain, traced


def check_isolation(runs: list[dict]) -> list[str]:
    """Workers must not overlap in time or leave children behind."""
    problems = [f"worker {r['pid']} left a child process" for r in runs if r["children"]]
    ordered = sorted(runs, key=lambda r: r["started"])
    for a, b in zip(ordered, ordered[1:]):
        if b["started"] < a["ended"]:
            problems.append(f"workers {a['pid']} and {b['pid']} overlapped")
    return problems


def percentile(sorted_values: list[float], pct: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples with at least ten samples beyond
    it: whole percents up to 99, then 99.9, never below the median."""
    if n >= 10_001:
        return 99.9
    return float(max(50, min(99, 100 * (n - 11) // (n - 1))))


def latency_percentiles(op_s: list[float]) -> tuple[float, float]:
    op_ms = sorted(1e3 * t for t in op_s)
    return percentile(op_ms, 50), percentile(op_ms, tail_percentile(len(op_ms)))


def op_percentiles(workload: str, plain: list[dict]) -> tuple[float, float]:
    """(median, tail) op latency in ms.

    Where an op's cost depends on the ops before it (workloads.ORDER_DEPENDENT),
    each repetition's percentiles stand alone and their medians are reported.
    Elsewhere every repetition lists the same ops in the same order, and an
    op's latency is the median of its times over the repetitions, so that a
    stall of the shared host, or a garbage collection, that hits one op in
    one repetition does not reach the tail."""
    if workload in workloads.ORDER_DEPENDENT:
        p50, tail = zip(*(latency_percentiles(r["op_s"]) for r in plain))
        return median(p50), median(tail)
    return latency_percentiles([median(times) for times in zip(*(r["op_s"] for r in plain))])


def end_to_end(workload: str, probes: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """(reported, measured): the metrics as medians over the repetitions,
    with the times at the reference host speed, and the medians of the
    set-up and wall times as measured."""
    setups = probes + plain
    p50, tail = op_percentiles(workload, plain)
    reported = {
        "setup_s": (median([r["setup_s"] for r in setups]), "s"),
        "wall_s": (median([r["wall_s"] for r in plain]), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
    }
    measured = {
        "setup_s": median([r["raw_setup_s"] for r in setups]),
        "wall_s": median([r["raw_wall_s"] for r in plain]),
    }
    return reported, measured


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    runs = [
        tracer.layer_metrics(r["spans"], r.get("checks", 0), r.get("failed_checks", 0))
        for r in traced
    ]
    problems = [
        f"traced runs of one seed disagree on {name}"
        for name in tracer.DETERMINISTIC
        if len({run[name][0] for run in runs}) > 1
    ]
    metrics = {name: (median([run[name][0] for run in runs]), unit) for name, (_, unit) in runs[0].items()}
    overhead = median([r["raw_wall_s"] for r in traced]) / median([r["raw_wall_s"] for r in plain]) - 1
    metrics["trace.overhead_frac"] = (overhead, tracer.RATIO)
    return metrics, problems


def stamp(args: argparse.Namespace, probes: list[dict], plain: list[dict], traced: list[dict],
          measured: dict) -> dict:
    timed = plain + traced
    attempted = sum(r["attempted"] for r in timed)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "samples": {
            "setup_s": len(probes) + len(plain) if not args.trace else 0,
            "wall_s": len(plain),
            "peak_rss_mb": len(plain),
            "op_latency": {"ops_per_rep": len(plain[0]["op_s"]), "reps": len(plain),
                           "per_op_median": args.workload not in workloads.ORDER_DEPENDENT},
            "traced_reps": len(traced),
        },
        "rep_wall_s": [r["wall_s"] for r in plain],
        "rep_raw_wall_s": [r["raw_wall_s"] for r in plain],
        "rep_probes": [r["probes"] for r in plain],
        "measured": measured,
        "op_tail_percentile": tail_percentile(len(plain[0]["op_s"])),
        "error_rate": sum(r["failed"] for r in timed) / attempted,
    }


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the package sources, which names the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "diagmon").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke runs the reduced sizes the smoke test uses")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "diagmon" / "__init__.py").is_file():
        print(f"error: no diagmon package under {SRC}", file=sys.stderr)
        return 2
    try:
        probes, plain, traced = collect(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = check_isolation(probes + plain + traced)
    measured = {}
    if args.trace:
        metrics, determinism = per_layer(plain, traced)
        problems += determinism
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([r["spans"] for r in traced], indent=1, sort_keys=True))
    else:
        metrics, measured = end_to_end(args.workload, probes, plain)
    timed = plain + traced
    failed = sum(r["failed"] for r in timed)
    for r in timed:
        problems += r["messages"][:10]
    for line in problems:
        print(f"problem: {line}")
    print(json.dumps({"stamp": stamp(args, probes, plain, traced, measured)}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

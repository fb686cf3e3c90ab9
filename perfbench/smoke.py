"""Smoke test of the benchmark itself, at the reduced "smoke" sizes.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the layer metrics each workload exists to move are
nonzero there, that traced counts repeat exactly, that the host meter
leaves its probes out of measured times, that the correctness
gates catch corrupted expected values (a corrupted expected.json makes the
command exit nonzero), that workers run one at a time, and that the
command refuses to run without the package sources.  Exits nonzero on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TREES = HERE / "out" / "smoke"

sys.path.insert(0, str(ROOT / "src"))
import diagmon  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def metric_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def emitted_metrics() -> None:
    e2e, layers = metric_names()
    layer_map = json.loads((HERE / "baseline.json").read_text())["layers"]
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--size", "smoke")
            check(code == 0, f"{workload} trace {trace} exited {code}: {lines[-12:]}")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{workload} trace {trace} metrics differ: {set(got) ^ set(wanted)}")
            metrics = result["metrics"]
            if trace == 0:
                check(all(m["value"] > 0 for m in metrics.values()), f"{workload}: a zero end-to-end metric")
                continue
            # verify.failed is 0 when all is well, and the quick profile the
            # smoke size runs lacks some of the full profile's checks
            for layer in layer_map.values():
                for name, where in layer["metrics"].items():
                    if workload in where and (name == "verify.checks" or not name.startswith("verify.")):
                        check(metrics[name]["value"] != 0, f"{name} reads 0 on {workload}")
    print("smoke: every metric emitted with its unit")


def traced_counts_repeat() -> None:
    started = time.perf_counter()
    for workload in workloads.WORKLOADS:
        runs = [run.run_worker(workload, 5, "traced", "smoke", started) for _ in range(2)]
        values = [tracer.layer_metrics(r["spans"], r.get("checks", 0), r.get("failed_checks", 0))
                  for r in runs]
        for name in tracer.DETERMINISTIC:
            check(values[0][name] == values[1][name], f"{workload}: {name} differs between traced runs")
    print("smoke: traced counts repeat exactly")


def gates_catch_corruption() -> None:
    size = workloads.SIZES["smoke"]["count-deep"]
    answers = {key: getattr(diagmon, call)(*args) for key, call, args in workloads.deep_ops(size)}
    expected = json.loads((HERE / "expected.json").read_text())["count-deep"][workloads.deep_label(size)]
    check(workloads.deep_gate(answers, expected)[0] == 0, "count-deep gate rejects right answers")
    bad = dict(expected)
    first = next(iter(bad))
    bad[first] = workloads.digest(1)
    check(workloads.deep_gate(answers, bad)[0] == 1, "count-deep gate misses a corrupted digest")

    size = workloads.SIZES["smoke"]["count-wide"]
    answers = {key: getattr(diagmon, call)(*args) for key, call, args in workloads.wide_ops(size)}
    printed = {wid: diagmon.printed_table(wid) for wid in workloads.TABLE_IDS}
    known = diagmon.known_discrepancies()
    check(workloads.wide_gate(answers, size, printed, known)[0] == 0, "count-wide gate rejects right answers")
    corrupt = json.loads(json.dumps(printed))
    corrupt["4"]["cells"]["4"]["2"] += 1
    check(workloads.wide_gate(answers, size, corrupt, known)[0] > 0, "count-wide gate misses a corrupted cell")
    wrong = dict(answers)
    wrong[("e_rank", "PB", 5, 3, "closed")] += 1
    check(workloads.wide_gate(wrong, size, printed, known)[0] > 0, "count-wide gate misses a route disagreement")

    size = workloads.SIZES["smoke"]["verify-full"]
    verdict = f"{size['profile']} profile: {size['checks']} checks, all checks passed"
    results = [(f"c{i}", True) for i in range(size["checks"])]
    check(workloads.verify_gate(results, verdict, size)[0] == 0, "verify gate rejects a clean report")
    results[3] = ("c3", False)
    check(workloads.verify_gate(results, verdict, size)[0] == 1, "verify gate misses a failed check")

    sweep = {"family": "B", "n": 3, "count": 15, "predicted": 15, "idempotent": 10, "e_total": 10,
             "twisted": 7, "exi_total": 7, "roundtrip_failures": 0}
    check(workloads.enumerate_gate([sweep])[0] == 0, "enumerate gate rejects a clean sweep")
    check(workloads.enumerate_gate([dict(sweep, e_total=11)])[0] == 1, "enumerate gate misses a wrong tally")

    # end to end: a copy of the tree whose expected.json has one digest corrupted
    tree = TREES / "corrupt"
    copy_tree(tree, with_src=True)
    data = json.loads((tree / "perfbench" / "expected.json").read_text())
    label = workloads.deep_label(workloads.SIZES["smoke"]["count-deep"])
    data["count-deep"][label][first] = workloads.digest(1)
    (tree / "perfbench" / "expected.json").write_text(json.dumps(data))
    code, lines = bench("--workload", "count-deep", "--seed", "1", "--seconds", "1",
                        "--size", "smoke", cwd=tree)
    result = json.loads(lines[-1])
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          f"a corrupted expected value passed: exit {code}, {result}")
    print("smoke: gates catch corrupted expected values")


def workers_run_alone() -> None:
    a = {"pid": 1, "started": 0.0, "ended": 2.0, "children": False}
    b = {"pid": 2, "started": 1.0, "ended": 3.0, "children": False}
    check(run.check_isolation([a, dict(b, started=2.5)]) == [], "sequential workers flagged")
    check(run.check_isolation([a, b]) != [], "overlapping workers not flagged")
    check(run.check_isolation([dict(a, children=True)]) != [], "a worker's child process not flagged")
    print("smoke: overlapping workers and child processes are flagged")


def host_meter_leaves_out_probes() -> None:
    meter = worker.HostMeter()
    with meter:
        wall0, c0 = time.perf_counter(), meter.clock()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, measured = time.perf_counter() - wall0, meter.clock() - c0
    check(len(meter.factors) >= 5, f"only {len(meter.factors)} probes ran in 0.5 s")
    check(abs(wall - measured - meter.spent) < 0.05, "probe time leaks into the meter's clock")
    check(meter.scaled(c0, c0 + measured) > 0, "a scaled time is not positive")
    print("smoke: the host meter leaves its probes out of measured times")


def refuses_without_sources() -> None:
    tree = TREES / "bare"
    copy_tree(tree, with_src=False)
    code, lines = bench("--workload", "count-wide", "--seed", "1", "--seconds", "1", cwd=tree)
    check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
          f"ran without sources: exit {code}")
    print("smoke: refuses to run without the package sources")


def copy_tree(tree: Path, with_src: bool) -> None:
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))


def main() -> None:
    workers_run_alone()
    host_meter_leaves_out_probes()
    gates_catch_corruption()
    traced_counts_repeat()
    refuses_without_sources()
    emitted_metrics()
    shutil.rmtree(TREES, ignore_errors=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()

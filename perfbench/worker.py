"""One cold run of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SIZE

MODE is ``setup`` (import and load the reference data, nothing else),
``plain`` (time the op list) or ``traced`` (the same with every layer
wrapped by tracer.py).  SIZE is ``full`` or ``smoke``.  The package is
imported from ``src/`` through PYTHONPATH, which run.py sets.  The last
line on stdout is one JSON object with the measurements.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
the modules diagmon needs are paid for inside ``setup_s``.

Times are reported at a reference host speed.  The shared host this
benchmark was built on ran up to twice as slow for seconds to minutes at a
time, with no steal time visible to the guest.  So the worker keeps timing
a fixed kernel that uses no diagmon code (probe_time): three times just
before and three times just after set-up, and every PROBE_PERIOD_S during
a plain run, from a SIGALRM handler that interrupts the workload
(HostMeter).  The probes are left out of every measured time, and a time
measured over a window is multiplied by the mean of PROBE_REF_S / (probe
time) over the probes that ran in that window or within PROBE_SMOOTH_S of
it.  The measured set-up and wall times are kept next to the scaled ones.
Traced runs are not probed; their times are as measured.
"""

import sys
import time

PROBE_PERIOD_S = 0.05
PROBE_SMOOTH_S = 0.25  # a window's factor also averages the probes this close to it
# a round number near probe_kernel's time on the host the benchmark was
# built on (Intel Xeon, 2 vCPUs, Python 3.11) when it ran at full speed; it
# fixes the scale of every reported time and nothing else
PROBE_REF_S = 0.0008


def _pick(a: int, b: int) -> int:
    return a + b if a < b else b


def probe_kernel() -> int:
    """Small function calls, dict traffic on tuple keys, big-int products
    and sorting of small tuples, about PROBE_REF_S long at full speed."""
    memo = {}
    x = s = 0
    for i in range(2000):
        x = (x * 3 + i) % 1_000_003
        memo[(i & 1023, x & 7)] = x
        s = _pick(i, s & 1023)
    blocks = sorted(tuple(sorted((j * 7919) % 97 for j in range(k, k + 4))) for k in range(150))
    big = 1
    for i in range(1, 200):
        big *= i
    return len(memo) + s + len(blocks) + big % 1_000_003


def probe_time() -> float:
    """Time of probe_kernel, run once untimed first: the first run after the
    workload refills the caches and reads slower than the host is."""
    probe_kernel()
    started = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - started


def probe_factor() -> float:
    return PROBE_REF_S / probe_time()


def setup() -> tuple[float, float]:
    """(measured set-up time, its scale factor)."""
    factors = [probe_factor() for _ in range(3)]
    started = time.perf_counter()
    import diagmon

    diagmon.printed_table("1")
    diagmon.known_discrepancies()
    measured = time.perf_counter() - started
    factors += [probe_factor() for _ in range(3)]
    return measured, sum(factors) / len(factors)


class HostMeter:
    """Samples the host's speed while a plain run is timed.

    Inside ``with HostMeter() as meter``, a SIGALRM timer runs probe_time
    every PROBE_PERIOD_S.  meter.clock() is perf_counter less the time the
    probes took, and meter.scaled(c0, c1) turns the clock interval [c0, c1]
    into a time at the reference speed: its length times the mean factor
    of the probes that started inside it or within PROBE_SMOOTH_S of it,
    or of the nearest probe when none did.  One probe runs on entry and one
    on exit, so there is always one.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._prefix: list[float] = []

    def clock(self) -> float:
        while True:  # a probe between the two reads would be counted wrong
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        at = self.clock()
        started = time.perf_counter()
        self.factors.append(PROBE_REF_S / probe_time())
        self.at.append(at)
        self.spent += time.perf_counter() - started
        self._busy = False

    def __enter__(self) -> "HostMeter":
        import signal

        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        import itertools
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.probe()
        self._prefix = [0.0, *itertools.accumulate(self.factors)]

    def factor(self, c0: float, c1: float) -> float:
        import bisect

        lo = bisect.bisect_left(self.at, c0 - PROBE_SMOOTH_S)
        hi = bisect.bisect_right(self.at, c1 + PROBE_SMOOTH_S)
        if hi > lo:
            return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
                      key=lambda i: abs(self.at[i] - c0))
        return self.factors[nearest]

    def scaled(self, c0: float, c1: float) -> float:
        return (c1 - c0) * self.factor(c0, c1)


class PlainClock:
    """The HostMeter interface without probes, for traced runs."""

    clock = staticmethod(time.perf_counter)

    def __enter__(self) -> "PlainClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    @staticmethod
    def scaled(c0: float, c1: float) -> float:
        return c1 - c0


def main() -> None:
    workload, seed, mode, size_name = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    wall_start = time.time()
    setup_s, setup_factor = setup()

    import json
    import os
    import resource

    import diagmon
    import tracer
    import workloads

    out = {"setup_s": setup_s * setup_factor, "raw_setup_s": setup_s,
           "pid": os.getpid(), "started": wall_start}
    if mode != "setup":
        size = workloads.SIZES[size_name][workload]
        spans = None
        meter = HostMeter() if mode == "plain" else PlainClock()
        if mode == "traced":
            spans = tracer.Tracer()
            tracer.install(spans)
            # each traced call adds one wrapper frame to the deep recurrences
            sys.setrecursionlimit(3 * sys.getrecursionlimit())
        run = {"count-deep": run_deep, "count-wide": run_wide,
               "verify-full": run_verify, "enumerate-io": run_enumerate}[workload]
        result, gate = run(diagmon, workloads, size, seed, meter)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spans is not None:
            out["spans"] = {name: rec.as_dict() for name, rec in spans.stats.items()}
        # the gate runs after timing and after the spans are read
        failed, messages = gate()
        out.update(result)
        out["probes"] = len(getattr(meter, "factors", ()))
        out["attempted"] = len(result["op_s"])
        out["failed"] = failed
        out["messages"] = messages
    try:
        os.waitpid(-1, os.WNOHANG)
        out["children"] = True
    except ChildProcessError:
        out["children"] = False
    out["ended"] = time.time()
    print(json.dumps(out))


# Each run_* function times its workload on meter's clock and returns
# (measurements, gate), where gate() checks the answers and returns
# (failed ops, messages).

def timings(meter, started: float, ended: float, windows: list[tuple[float, float]]) -> dict:
    """The scaled wall time and op times, and the measured wall time."""
    return {"wall_s": meter.scaled(started, ended), "raw_wall_s": ended - started,
            "op_s": [meter.scaled(c0, c1) for c0, c1 in windows]}


def run_ops(diagmon, ops: list[tuple], meter) -> tuple[dict, dict, dict]:
    """Closed loop over (key, call, args) ops.

    Returns the measurements, the answers and the errors by op key."""
    clock = meter.clock
    answers, errors, windows = {}, {}, []
    with meter:
        started = clock()
        for key, call, args in ops:
            fn = getattr(diagmon, call)
            t0 = clock()
            try:
                answers[key] = fn(*args)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                errors[key] = repr(exc)
            windows.append((t0, clock()))
        ended = clock()
    return timings(meter, started, ended, windows), answers, errors


def _with_errors(gate, errors: dict):
    """A gate that also counts the ops that raised."""
    def checked() -> tuple[int, list[str]]:
        failed, messages = gate()
        return failed + len(errors), [f"{k}: {v}" for k, v in errors.items()] + messages
    return checked


def run_deep(diagmon, workloads, size: dict, seed: int, meter):
    import json
    from pathlib import Path

    ops = workloads.shuffled(workloads.deep_ops(size), seed)
    result, answers, errors = run_ops(diagmon, ops, meter)

    def gate():
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        return workloads.deep_gate(answers, expected["count-deep"].get(workloads.deep_label(size), {}))

    return result, _with_errors(gate, errors)


def run_wide(diagmon, workloads, size: dict, seed: int, meter):
    ops = workloads.shuffled(workloads.wide_ops(size), seed)
    result, answers, errors = run_ops(diagmon, ops, meter)

    def gate():
        printed = {wid: diagmon.printed_table(wid) for wid in workloads.TABLE_IDS}
        return workloads.wide_gate(answers, size, printed, diagmon.known_discrepancies())

    return result, _with_errors(gate, errors)


def run_verify(diagmon, workloads, size: dict, seed: int, meter):
    """What ``diagmon verify --profile full`` does; the seed is not used.
    Each check is one op, timed by a wrapper around the check functions."""
    clock = meter.clock
    verify = diagmon.verify
    windows = []

    def timed(fn):
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                windows.append((t0, clock()))
        return call

    for name, value in list(vars(verify).items()):
        if name.startswith("check_") and callable(value):
            setattr(verify, name, timed(value))
    with meter:
        started = clock()
        report = getattr(verify, f"run_{size['profile']}")()
        rendered = report.render()
        ended = clock()
    results = [(c.name, c.ok) for c in report.checks]
    result = timings(meter, started, ended, windows)
    result.update(checks=len(results), failed_checks=sum(not ok for _, ok in results))
    return result, lambda: workloads.verify_gate(results, rendered, size)


def run_enumerate(diagmon, workloads, size: dict, seed: int, meter):
    """Stream each sweep and format every diagram, then, in seeded order,
    parse each text back and test it as ``diagmon enumerate --filter`` does.
    An op is one diagram: its format time plus its parse-and-test time,
    listed in the order the diagrams were generated."""
    clock = meter.clock
    fmt, parse = diagmon.format_diagram, diagmon.parse_diagram
    direct, twisted = diagmon.is_idempotent_direct, diagmon.is_twisted_idempotent
    elements, texts, fmt_windows, owner = [], [], [], []
    with meter:
        started = clock()
        for index, (fam, n) in enumerate(size["sweeps"]):
            it = diagmon.enumerate_elements(fam, n)
            while True:
                t0 = clock()
                a = next(it, None)
                if a is None:
                    break
                texts.append(fmt(a))
                fmt_windows.append((t0, clock()))
                elements.append(a)
                owner.append(index)
        parsed = [None] * len(texts)
        parse_windows = [None] * len(texts)
        tallies = [[0, 0] for _ in size["sweeps"]]
        for i in workloads.shuffled(range(len(texts)), seed):
            t0 = clock()
            b = parse(texts[i])
            is_direct = direct(b)
            is_twisted = twisted(b, 0)
            parse_windows[i] = (t0, clock())
            parsed[i] = b
            tallies[owner[i]][0] += is_direct
            tallies[owner[i]][1] += is_twisted
        ended = clock()
    result = timings(meter, started, ended, fmt_windows)
    result["op_s"] = [t + meter.scaled(*w) for t, w in zip(result["op_s"], parse_windows)]

    def gate():
        sweeps = []
        for index, (fam, n) in enumerate(size["sweeps"]):
            mine = [i for i, o in enumerate(owner) if o == index]
            sweeps.append({
                "family": fam, "n": n,
                "count": len(mine), "predicted": diagmon.predicted_element_count(fam, n),
                "idempotent": tallies[index][0], "e_total": diagmon.e_total(fam, n),
                "twisted": tallies[index][1], "exi_total": diagmon.exi_total(fam, n, 0),
                "roundtrip_failures": sum(parsed[i] != elements[i] for i in mine),
            })
        return workloads.enumerate_gate(sweeps)

    return result, gate


if __name__ == "__main__":
    main()

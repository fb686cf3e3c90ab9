"""Span tracing for the traced benchmark run, from outside the program.

install() replaces each traced function of diagmon with a wrapper, in every
diagmon module namespace that holds it: the defining module's own global
(so recursive calls such as e_total's are traced too) and every module
that imported it.  Nothing under src/ changes.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the traced spans inside it.  A call that returns an iterator
(integer_partitions, enumerate_elements) is one span for the call plus one
span per item pulled, so the generator's own work is charged to it and
the consumer's work is not.  Spans are aggregated in memory per name as
they close and written out by the caller when the run ends; keeping every
raw span would cost hundreds of megabytes on verify-full.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> span name; several functions may share a span name
TARGETS = {
    ("combinat", "e_nrs"): "combinat.e_nrs",
    ("combinat", "integer_partitions"): "combinat.integer_partitions",
    ("combinat", "pi_count"): "combinat.pi_count",
    ("counting", "c_values"): "counting.c_values",
    ("counting", "e_total"): "counting.e_total",
    ("counting", "e_rank"): "counting.e_rank",
    ("counting", "exi_total"): "counting.exi",
    ("counting", "exi_rank"): "counting.exi",
    ("counting", "rho"): "counting.rclass",
    ("counting", "a_nr"): "counting.rclass",
    ("counting", "a_nrt"): "counting.rclass",
    ("counting", "b_nr"): "counting.rclass",
    ("core", "multiply"): "core.multiply",
    ("core", "profile"): "core.profile",
    ("core", "lambda_graph"): "core.lambda_graph",
    ("core", "format_diagram"): "core.format_diagram",
    ("core", "parse_diagram"): "core.parse_diagram",
    ("idempotency", "is_idempotent_direct"): "idempotency.direct",
    ("idempotency", "is_idempotent_structural"): "idempotency.structural",
    ("idempotency", "is_twisted_idempotent"): "idempotency.twisted",
    ("oracle", "enumerate_elements"): "oracle.generate",
    ("oracle", "brute_report"): "oracle.brute_report",
    ("oracle", "green_signature"): "oracle.green_signature",
    ("tables", "build_table"): "tables.build_table",
    ("tables", "compare_table"): "tables.compare_table",
    ("tables", "render_table"): "tables.render_table",
}

VERIFY_CHECKS = (
    "check_total_methods",
    "check_rank_methods",
    "check_rank_sums",
    "check_parity_zeros",
    "check_rclass_reconstruction",
    "check_twisted_reconstruction",
    "check_embedded_families",
    "check_twist_collapse",
    "check_reference_tables",
    "check_enrs_oracle",
    "check_oracle_counts",
    "check_idempotency_agreement",
    "check_rclass_uniformity",
    "check_rho_against_signatures",
    "check_green_orbits",
)
TARGETS.update({("verify", name): f"verify.{name}" for name in VERIFY_CHECKS})

# span names whose distinct (normalised) arguments are recorded
DISTINCT_ARGS = ("counting.c_values", "oracle.generate")


class SpanStats:
    __slots__ = ("calls", "total", "self", "yielded", "depth", "max_depth", "args", "elements")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.yielded = 0
        self.depth = 0
        self.max_depth = 0
        self.args: set = set()
        self.elements = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self,
            "yielded": self.yielded,
            "max_depth": self.max_depth,
            "distinct_args": len(self.args),
            "elements": self.elements,
        }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._children: list[float] = []  # child time accumulated per open span

    def _enter(self, rec: SpanStats) -> float:
        self._children.append(0.0)
        rec.depth += 1
        if rec.depth > rec.max_depth:
            rec.max_depth = rec.depth
        return time.perf_counter()

    def _exit(self, rec: SpanStats, started: float) -> None:
        elapsed = time.perf_counter() - started
        rec.depth -= 1
        rec.total += elapsed
        rec.self += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, SpanStats())
        distinct = name in DISTINCT_ARGS
        is_report = name == "oracle.brute_report"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.calls += 1
            if distinct:
                rec.args.add(tuple(getattr(a, "value", a) for a in args))
            started = self._enter(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec, started)
            if is_report:
                rec.elements += result.total_elements
            if hasattr(result, "__next__"):
                return self._items(rec, result)
            return result

        return traced

    def _items(self, rec: SpanStats, it):
        while True:
            started = self._enter(rec)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(rec, started)
            rec.yielded += 1
            yield item


def install(tracer: Tracer) -> None:
    """Wrap every target at every diagmon namespace that binds it."""
    modules = [m for name, m in sys.modules.items() if name == "diagmon" or name.startswith("diagmon.")]
    originals = {}
    for (module, function), span in TARGETS.items():
        fn = getattr(sys.modules[f"diagmon.{module}"], function, None)
        if fn is not None:
            originals[id(fn)] = tracer.wrap(span, fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


# --------------------------------------------------------------------------
# per-layer metrics from the aggregated spans

COUNT, SECONDS, RATIO = "count", "s", "ratio"


def layer_metrics(stats: dict[str, dict], checks: int, failed_checks: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).

    A metric of a layer the workload never enters reads 0.
    """
    empty = SpanStats().as_dict()

    def s(name: str) -> dict:
        return stats.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    elements = s("oracle.generate")["yielded"]
    out: dict[str, tuple[float, str]] = {
        "combinat.e_nrs.calls": (s("combinat.e_nrs")["calls"], COUNT),
        "combinat.e_nrs.self_s": (s("combinat.e_nrs")["self_s"], SECONDS),
        "combinat.integer_partitions.yielded": (s("combinat.integer_partitions")["yielded"], COUNT),
        "combinat.integer_partitions.self_s": (s("combinat.integer_partitions")["self_s"], SECONDS),
        "combinat.pi_count.calls": (s("combinat.pi_count")["calls"], COUNT),
        "counting.c_values.calls": (s("counting.c_values")["calls"], COUNT),
        "counting.c_values.self_s": (s("counting.c_values")["self_s"], SECONDS),
        "counting.c_values.distinct_frac": (
            ratio(s("counting.c_values")["distinct_args"], s("counting.c_values")["calls"]), RATIO),
        "counting.e_total.calls": (s("counting.e_total")["calls"], COUNT),
        "counting.e_total.self_s": (s("counting.e_total")["self_s"], SECONDS),
        "counting.e_total.max_depth": (s("counting.e_total")["max_depth"], COUNT),
        "counting.e_rank.calls": (s("counting.e_rank")["calls"], COUNT),
        "counting.e_rank.self_s": (s("counting.e_rank")["self_s"], SECONDS),
        "counting.exi.calls": (s("counting.exi")["calls"], COUNT),
        "counting.exi.self_s": (s("counting.exi")["self_s"], SECONDS),
        "counting.rclass.self_s": (s("counting.rclass")["self_s"], SECONDS),
        "core.multiply.calls": (s("core.multiply")["calls"], COUNT),
        "core.multiply.self_s": (s("core.multiply")["self_s"], SECONDS),
        "core.profile.calls": (s("core.profile")["calls"], COUNT),
        "core.profile.self_s": (s("core.profile")["self_s"], SECONDS),
        "core.profile.per_element": (ratio(s("core.profile")["calls"], elements), RATIO),
        "core.lambda_graph.calls": (s("core.lambda_graph")["calls"], COUNT),
        "core.format_diagram.self_s": (s("core.format_diagram")["self_s"], SECONDS),
        "core.parse_diagram.self_s": (s("core.parse_diagram")["self_s"], SECONDS),
    }
    for short in ("direct", "structural", "twisted"):
        rec = s(f"idempotency.{short}")
        out[f"idempotency.{short}.calls"] = (rec["calls"], COUNT)
        out[f"idempotency.{short}.self_s"] = (rec["self_s"], SECONDS)
    generate, report = s("oracle.generate"), s("oracle.brute_report")
    out.update({
        "oracle.elements": (elements, COUNT),
        "oracle.sweeps": (generate["calls"], COUNT),
        "oracle.sweep_reuse": (ratio(generate["distinct_args"], generate["calls"]), RATIO),
        "oracle.generate.self_s": (generate["self_s"], SECONDS),
        "oracle.brute_report.self_s": (report["self_s"], SECONDS),
        "oracle.us_per_element": (ratio(1e6 * report["total_s"], report["elements"]), "us"),
        "oracle.green_signature.calls": (s("oracle.green_signature")["calls"], COUNT),
        "oracle.green_signature.self_s": (s("oracle.green_signature")["self_s"], SECONDS),
    })
    for name in ("build_table", "compare_table", "render_table"):
        out[f"tables.{name}.self_s"] = (s(f"tables.{name}")["self_s"], SECONDS)
    for name in VERIFY_CHECKS:
        out[f"verify.{name}.s"] = (s(f"verify.{name}")["total_s"], SECONDS)
    out["verify.checks"] = (checks, COUNT)
    out["verify.failed"] = (failed_checks, COUNT)
    return out


# the counts two traced runs of one seed must reproduce exactly
DETERMINISTIC = tuple(
    name for name, (_, unit) in layer_metrics({}, 0, 0).items() if unit == COUNT
)

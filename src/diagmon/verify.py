"""The verification matrix: every identity the package promises, checked.

Each check is a named function returning a CheckResult; run_quick and
run_full assemble the profiles.  Quick plays the counting routes against
each other, against the shipped reference tables, and against exhaustive
sweeps of the smallest monoids.  Full widens the sweeps and adds the
Green-relation cross-checks and the per-R-class uniformity claims.  Each
(family, n) is swept once, into one brute_report every sweep check reads.

A failure names the identity and the indices at which it broke; known
reference-data discrepancies are expected and reported as passes with a
note, since the recomputed values are what the package stands behind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .combinat import bell, binomial, e_nrs
from .core import EquivalenceRelation, MonoidFamily, multiply
from .counting import (
    a_nr,
    a_nrt,
    b_nr,
    e_rank,
    e_total,
    exi_rank,
    exi_total,
    rho,
)
from .oracle import (
    DEFAULT_CAP,
    BruteReport,
    brute_report,
    enumerate_elements,
    green_signature,
    set_partition_blocks,
)
from .tables import TABLE_IDS, compare_table

FAMILIES = tuple(MonoidFamily)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class VerificationReport:
    profile: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        verdict = "all checks passed" if self.ok else "FAILURES present"
        lines.append(f"{self.profile} profile: {len(self.checks)} checks, {verdict}")
        return "\n".join(lines)


def _result(name: str, failures: list[str], note: str = "") -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; and {len(failures) - 4} more"
        return CheckResult(name, False, shown)
    return CheckResult(name, True, note)


# --------------------------------------------------------------------------
# engine-internal identities

def check_total_methods(max_n: int = 10) -> CheckResult:
    failures = []
    for fam in FAMILIES:
        for n in range(max_n + 1):
            formula = e_total(fam, n, "formula")
            rec = e_total(fam, n, "recurrence")
            if formula != rec:
                failures.append(f"e_total({fam.value},{n}): formula {formula} != recurrence {rec}")
    return _result("e_total formula vs recurrence", failures)


def check_rank_methods(max_n: int = 10) -> CheckResult:
    failures = []
    for fam in FAMILIES:
        for n in range(max_n + 1):
            for r in range(n + 1):
                mu = e_rank(fam, n, r, "mu_sum")
                rec = e_rank(fam, n, r, "recurrence")
                if mu != rec:
                    failures.append(f"e_rank({fam.value},{n},{r}): mu_sum {mu} != recurrence {rec}")
                if fam in (MonoidFamily.B, MonoidFamily.PB):
                    closed = e_rank(fam, n, r, "closed")
                    if closed != rec:
                        failures.append(
                            f"e_rank({fam.value},{n},{r}): closed {closed} != recurrence {rec}"
                        )
    return _result("e_rank methods agree", failures)


def check_rank_sums(max_n: int = 10) -> CheckResult:
    failures = []
    for fam in FAMILIES:
        for n in range(max_n + 1):
            total = sum(e_rank(fam, n, r) for r in range(n + 1))
            expected = e_total(fam, n)
            if total != expected:
                failures.append(f"sum of e_rank({fam.value},{n},r) {total} != e_total {expected}")
    return _result("per-rank counts sum to totals", failures)


def check_parity_zeros(max_n: int = 10) -> CheckResult:
    failures = []
    for n in range(max_n + 1):
        for r in range(n + 1):
            if (n - r) % 2 and e_rank(MonoidFamily.B, n, r) != 0:
                failures.append(f"e_rank(B,{n},{r}) nonzero across parity")
    return _result("parity zeros in family B", failures)


def check_rclass_reconstruction(max_n: int = 10) -> CheckResult:
    failures = []
    for n in range(max_n + 1):
        total = sum(
            rho(MonoidFamily.B, n, r) * a_nr(n, r) for r in range(n % 2, n + 1, 2)
        )
        expected = e_total(MonoidFamily.B, n)
        if total != expected:
            failures.append(f"sum rho*a over ranks of B_{n} {total} != e_total {expected}")
        per_rank = [
            sum(
                rho(MonoidFamily.PB, n, r, t) * a_nrt(n, r, t)
                for t in range(n - r + 1)
                if (n - r - t) % 2 == 0
            )
            for r in range(n + 1)
        ]
        expected_pb = e_total(MonoidFamily.PB, n)
        if sum(per_rank) != expected_pb:
            failures.append(f"sum rho*a over (r,t) of PB_{n} {sum(per_rank)} != e_total {expected_pb}")
        for r, total_r in enumerate(per_rank):
            expected_r = e_rank(MonoidFamily.PB, n, r)
            if total_r != expected_r:
                failures.append(f"sum over t of rho*a for PB_{n} rank {r}: {total_r} != e_rank {expected_r}")
    return _result("R-class counts rebuild the totals", failures)


def check_twisted_reconstruction(max_n: int = 10) -> CheckResult:
    failures = []
    for n in range(max_n + 1):
        total = sum(
            rho(MonoidFamily.B, n, r) * b_nr(n, r) for r in range(n % 2, n + 1, 2)
        )
        twisted_b = exi_total(MonoidFamily.B, n, 0)
        twisted_pb = exi_total(MonoidFamily.PB, n, 0)
        if total != twisted_b:
            failures.append(f"sum rho*b over ranks of B_{n} {total} != exi_total {twisted_b}")
        if twisted_b != twisted_pb:
            failures.append(f"exi_total at order 0 differs: B_{n} {twisted_b} vs PB_{n} {twisted_pb}")
        for r in range(n % 2, n + 1, 2):
            product = rho(MonoidFamily.B, n, r) * b_nr(n, r)
            via_rank = exi_rank(MonoidFamily.B, n, r)
            if product != via_rank:
                failures.append(f"rho*b at B_{n} rank {r}: {product} != exi_rank {via_rank}")
    return _result("twisted R-class counts rebuild the totals", failures)


def check_embedded_families(max_n: int = 10) -> CheckResult:
    failures = []
    for n in range(max_n + 1):
        t_expected = sum(binomial(n, k) * k ** (n - k) for k in range(1, n + 1)) if n else 1
        if e_total(MonoidFamily.T, n) != t_expected:
            failures.append(f"e_total(T,{n}) {e_total(MonoidFamily.T, n)} != {t_expected}")
        if e_total(MonoidFamily.I, n) != 2**n:
            failures.append(f"e_total(I,{n}) {e_total(MonoidFamily.I, n)} != 2^{n}")
        if e_total(MonoidFamily.IDUAL, n) != bell(n):
            failures.append(f"e_total(Idual,{n}) {e_total(MonoidFamily.IDUAL, n)} != bell({n})")
        if bell(n + 1) != sum(binomial(n, k) * bell(k) for k in range(n + 1)):
            failures.append(f"bell({n + 1}) fails its binomial recurrence")
    return _result("embedded-family totals", failures)


def check_twist_collapse(max_n: int = 10) -> CheckResult:
    failures = []
    for fam in FAMILIES:
        for n in range(max_n + 1):
            collapsed = exi_total(fam, n, 1)
            plain = e_total(fam, n)
            if collapsed != plain:
                failures.append(f"exi_total({fam.value},{n},order 1) {collapsed} != e_total {plain}")
    return _result("twist order 1 collapses to plain counts", failures)


def check_reference_tables(max_n: int = 10) -> CheckResult:
    failures = []
    known = 0
    for wid in TABLE_IDS:
        for cmp in compare_table(wid, max_n):
            if cmp.known:
                known += 1
            else:
                failures.append(
                    f"table {cmp.table} (n={cmp.n}, {cmp.column}):"
                    f" reference {cmp.reference}, computed {cmp.computed}"
                )
    return _result(
        "reference tables reproduced",
        failures,
        note=f"{known} known discrepant cells recomputed as documented",
    )


def check_enrs_oracle(max_n: int = 5) -> CheckResult:
    failures = []
    for n in range(1, max_n + 1):
        relations = [
            EquivalenceRelation(n, tuple(tuple(x + 1 for x in b) for b in blocks))
            for blocks in set_partition_blocks(n)
        ]
        direct = Counter(
            (upper.class_count, lower.class_count)
            for upper in relations
            for lower in relations
            if upper.join(lower).class_count == 1
        )
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                expected = direct[(r, s)]
                got = e_nrs(n, r, s)
                if got != expected:
                    failures.append(f"e_nrs({n},{r},{s}) {got} != direct count {expected}")
    return _result("pair-of-partitions recurrence vs direct count", failures)


# --------------------------------------------------------------------------
# oracle sweeps

@cache
def _sweep(fam: MonoidFamily, n: int, cap: int) -> BruteReport:
    """The one sweep of (fam, n), at twist order 0, that every sweep check reads."""
    return brute_report(fam, n, M=0, cap=cap)


def check_oracle_counts(fam: MonoidFamily, n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    failures = []
    report = _sweep(fam, n, cap)
    engine_total = e_total(fam, n)
    if report.idempotents_total != engine_total:
        failures.append(
            f"e_total({fam.value},{n}) formula vs oracle:"
            f" {engine_total} != {report.idempotents_total}"
        )
    for r in range(n + 1):
        engine_rank = e_rank(fam, n, r)
        seen = report.idempotents_by_rank.get(r, 0)
        if engine_rank != seen:
            failures.append(f"e_rank({fam.value},{n},{r}) {engine_rank} != oracle {seen}")
    engine_twisted = exi_total(fam, n, 0)
    if report.twisted_total != engine_twisted:
        failures.append(
            f"exi_total({fam.value},{n},order 0) {engine_twisted}"
            f" != oracle {report.twisted_total}"
        )
    for r in range(n + 1):
        engine_rank = exi_rank(fam, n, r)
        seen = report.twisted_by_rank.get(r, 0)
        if engine_rank != seen:
            failures.append(f"exi_rank({fam.value},{n},{r}) {engine_rank} != oracle {seen}")
    return _result(
        f"oracle sweep {fam.value}_{n}",
        failures,
        note=f"{report.total_elements} elements in {report.elapsed_seconds:.2f}s"
        f" ({1e6 * report.elapsed_seconds / max(report.total_elements, 1):.0f} µs/element)",
    )


def check_idempotency_agreement(fam: MonoidFamily, n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    disagreements = _sweep(fam, n, cap).structural_disagreements
    failures = [f"{test} vs direct disagree on {a}" for test, a in disagreements]
    return _result(f"structural idempotency test {fam.value}_{n}", failures)


def check_rclass_uniformity(fam: MonoidFamily, n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    failures = []
    report = _sweep(fam, n, cap)
    for sig, count in report.r_class_counts.items():
        r, t = report.r_class_params[sig]
        if fam is MonoidFamily.B:
            expected = a_nr(n, r)
            expected_twisted = b_nr(n, r)
        else:
            expected = a_nrt(n, r, t)
            expected_twisted = b_nr(n, r) if t == 0 else 0
        if count != expected:
            failures.append(
                f"an R-class of {fam.value}_{n} at (rank {r}, idle {t})"
                f" holds {count} idempotents, expected {expected}"
            )
        twisted = report.r_class_twisted[sig]
        if twisted != expected_twisted:
            failures.append(
                f"an R-class of {fam.value}_{n} at (rank {r}, idle {t})"
                f" holds {twisted} twisted idempotents, expected {expected_twisted}"
            )
    return _result(f"per-R-class uniformity {fam.value}_{n}", failures)


def check_rho_against_signatures(fam: MonoidFamily, n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    failures = []
    report = _sweep(fam, n, cap)
    strata: dict[tuple[int, int], int] = {}
    for sig in report.r_class_counts:
        r, t = report.r_class_params[sig]
        strata[(r, t)] = strata.get((r, t), 0) + 1
    for (r, t), seen in sorted(strata.items()):
        expected = rho(fam, n, r) if fam is MonoidFamily.B else rho(fam, n, r, t)
        if seen != expected:
            failures.append(
                f"{fam.value}_{n} has {seen} R-classes at (rank {r}, idle {t}), expected {expected}"
            )
    return _result(f"R-class census {fam.value}_{n}", failures)


# --------------------------------------------------------------------------
# Green cross-checks (orbit computation vs signatures)

def check_green_orbits(fam: MonoidFamily, n: int, cap: int = DEFAULT_CAP) -> CheckResult:
    """Green's relations by definition, from one table of product indices:
    row i is the right ideal a_i·S and column j the left ideal S·a_j (S
    holds the identity).  A side's two partitions, by ideal and by signature,
    agree exactly when each element's class has the same first element.
    """
    name = f"Green orbits vs signatures {fam.value}_{n}"
    elements = list(enumerate_elements(fam, n, cap))
    index = {a: i for i, a in enumerate(elements)}
    table = [[index.get(multiply(a, x)[0]) for x in elements] for a in elements]
    for a, row in zip(elements, table):
        if None in row:
            x = elements[row.index(None)]
            return _result(name, [f"{a} * {x} = {multiply(a, x)[0]} is not in {fam.value}_{n}"])
    rows = [frozenset(row) for row in table]
    columns = [frozenset(column) for column in zip(*table)]
    failures = []
    for side, ideals in (("R", rows), ("L", columns), ("H", zip(rows, columns))):
        first_by_orbit: dict[object, int] = {}
        first_by_key: dict[object, int] = {}
        for j, (b, ideal) in enumerate(zip(elements, ideals)):
            by_orbit = first_by_orbit.setdefault(ideal, j)
            by_key = first_by_key.setdefault(green_signature(b, side), j)
            if by_orbit != by_key:
                i = min(by_orbit, by_key)
                failures.append(
                    f"{side} disagreement in {fam.value}_{n} between {elements[i]} and {b}:"
                    f" orbit {by_orbit == i}, signature {by_key == i}"
                )
                break
    return _result(name, failures)


# --------------------------------------------------------------------------
# profiles

QUICK_SWEEPS = ((MonoidFamily.P, 3), (MonoidFamily.B, 5), (MonoidFamily.PB, 4))
FULL_SWEEPS = ((MonoidFamily.P, 4), (MonoidFamily.B, 6), (MonoidFamily.PB, 5))
GREEN_SWEEPS = ((MonoidFamily.P, 2), (MonoidFamily.P, 3), (MonoidFamily.B, 4))


def run_quick(cap: int = DEFAULT_CAP) -> VerificationReport:
    checks = [
        check_total_methods(),
        check_rank_methods(),
        check_rank_sums(),
        check_parity_zeros(),
        check_rclass_reconstruction(),
        check_twisted_reconstruction(),
        check_embedded_families(),
        check_twist_collapse(),
        check_reference_tables(),
        check_enrs_oracle(4),
    ]
    for fam, n in QUICK_SWEEPS:
        checks.append(check_oracle_counts(fam, n, cap))
        checks.append(check_idempotency_agreement(fam, n, cap))
    return VerificationReport("quick", tuple(checks))


def run_full(cap: int = DEFAULT_CAP) -> VerificationReport:
    checks = list(run_quick(cap).checks)
    for fam, n in FULL_SWEEPS:
        checks.append(check_oracle_counts(fam, n, cap))
        checks.append(check_idempotency_agreement(fam, n, cap))
    checks.append(check_enrs_oracle(5))
    for fam, n in ((MonoidFamily.B, 6), (MonoidFamily.PB, 5)):
        checks.append(check_rclass_uniformity(fam, n, cap))
        checks.append(check_rho_against_signatures(fam, n, cap))
    for fam, n in GREEN_SWEEPS:
        checks.append(check_green_orbits(fam, n, cap))
    return VerificationReport("full", tuple(checks))

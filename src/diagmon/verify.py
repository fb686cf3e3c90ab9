"""The verification matrix: every identity the package promises, checked.

Each check is a named function returning a CheckResult; run_quick and
run_full assemble the profiles.  Quick plays the counting routes against
each other, against the shipped reference tables, and against exhaustive
sweeps of the smallest monoids.  Full widens the sweeps and adds the
Green-relation cross-checks and the per-R-class uniformity claims.  Each
(family, n) is swept once, into one brute_report every sweep check reads.

A failure names the identity and the indices at which it broke, and a
check that raises is a failure naming the check and the exception; known
reference-data discrepancies are expected and reported as passes with a
note, since the recomputed values are what the package stands behind.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

from .combinat import bell, binomial, e_nrs
from .core import MonoidFamily, _glue_group, _kernel_classes, _labels
from .counting import (
    ROUTES,
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


def _compare(name: str, cases: Iterable[tuple[tuple, int, int]], note: str = "") -> CheckResult:
    """The result over cases (what, computed, expected).  what is a format
    string and its arguments, naming the identity and its indices; it is
    formatted only for a case that fails.  A family goes in as itself and
    the format reads {.value}: an eager fam.value in every case made the
    e_rank check about 20 % slower on warm tables."""
    failures = [
        f"{what[0].format(*what[1:])}: {computed} != {expected}"
        for what, computed, expected in cases
        if computed != expected
    ]
    return _result(name, failures, note)


# --------------------------------------------------------------------------
# engine-internal identities

ENGINE_MAX_N = 10  # every engine identity but e_nrs's is checked at n = 0..10
# the holonomic and closed totals, which serve n in the thousands, are
# checked further out, where a wrong start value or index would show
FAST_ROUTE_MAX_N = 60
B, PB = MonoidFamily.B, MonoidFamily.PB
# the routes of counting.ROUTES played against the recurrence further out
# than the formula: the holonomic totals of B and PB, and the closed ones
# of T and I, at every twist order
FAST_TOTALS = tuple(
    (fam, method) for fam, routes in ROUTES["exi_total"].items()
    for method in routes if method not in ("recurrence", "formula")
)
# the n at which the closed rank rows of the families with a holonomic
# total are summed against it
EGF_ROW_SUMS_N = (20, 40, 60)


def check_total_methods() -> CheckResult:
    """Every other route of e_total and of exi_total against the
    first-piece recurrence: the formula at n <= ENGINE_MAX_N (exi_total at
    twist orders 0 to 4), the holonomic and closed routes at n <=
    FAST_ROUTE_MAX_N (exi_total at orders 0 to 2, to 4 at n <= ENGINE_MAX_N).
    And the holonomic totals against the sums of the closed rank rows,
    which serve n far past the rank grid's reach, at EGF_ROW_SUMS_N.  And
    exi_rank's recurrence at n <= ENGINE_MAX_N: rows summed against exi_total's
    (orders 0 to 4), order-1 rows against e_rank's, and against every other
    route per cell at orders 0 and 2.  The routes are read off counting.ROUTES.
    The cases are made one at a time, as _compare reads them.

    e_total is exi_total at order 1, and the recurrence at every order above
    1 convolves its order-0 row with Z_M, so these cases referee that
    convolution at orders 2 to 4.  counting grows each distinct first-piece
    grid once, so some recurrence cases read another family's or order's
    grid: PB's order-0 cases play PB's partition formula against B's grid,
    the paper's identity that B and PB have one twisted count at order 0;
    T's and Idual's cases at every order, and their e_total, play the
    formula against their order-0 row, since c0 is zero."""
    return _compare("total routes agree", _total_cases())


def _total_cases() -> Iterator[tuple[tuple, int, int]]:
    for fam in FAMILIES:
        for n in range(ENGINE_MAX_N + 1):
            yield (("e_total({.value},{}) formula vs recurrence", fam, n),
                   e_total(fam, n, "formula"), e_total(fam, n, "recurrence"))
            yield from ((("exi_total({.value},{},order {}) formula vs recurrence", fam, n, order),
                         exi_total(fam, n, order, "formula"), exi_total(fam, n, order, "recurrence"))
                        for order in range(5))
    for n in range(FAST_ROUTE_MAX_N + 1):
        for fam, method in FAST_TOTALS:
            yield (("e_total({.value},{}) {} vs recurrence", fam, n, method),
                   e_total(fam, n, method), e_total(fam, n, "recurrence"))
            yield from ((("exi_total({.value},{},order {}) {} vs recurrence", fam, n, order, method),
                         exi_total(fam, n, order, method), exi_total(fam, n, order, "recurrence"))
                        for order in range(5 if n <= ENGINE_MAX_N else 3))
    yield from ((("sum of e_rank({.value},{},r) closed vs holonomic e_total", fam, n),
                 sum(e_rank(fam, n, r, "closed") for r in range(n + 1)), e_total(fam, n, method))
                for fam, method in FAST_TOTALS if method == "holonomic" for n in EGF_ROW_SUMS_N)
    for fam, routes in ROUTES["exi_rank"].items():
        for n in range(ENGINE_MAX_N + 1):
            rows = [[exi_rank(fam, n, r, order, "recurrence") for r in range(n + 1)] for order in range(5)]
            yield from ((("sum of exi_rank({.value},{},r,order {}) vs exi_total recurrence", fam, n, order),
                         sum(row), exi_total(fam, n, order, "recurrence")) for order, row in enumerate(rows))
            yield from ((("exi_rank({.value},{},{},order 1) vs e_rank recurrence", fam, n, r),
                         count, e_rank(fam, n, r, "recurrence")) for r, count in enumerate(rows[1]))
            yield from ((("exi_rank({.value},{},{},order {}) {} vs recurrence", fam, n, r, order, method),
                         exi_rank(fam, n, r, order, method), rows[order][r])
                        for method in routes if method != "recurrence"
                        for order in (0, 2) for r in range(n + 1))


def check_rank_methods() -> CheckResult:
    """Every other route of e_rank against the recurrence, and rank 0 against
    rho(f, n)² (P, B, PB; T and Idual have none once n >= 1, I has one)."""
    cases = []
    for fam, routes in ROUTES["e_rank"].items():
        methods = [method for method in routes if method != "recurrence"]
        for n in range(ENGINE_MAX_N + 1):
            # the top rank first grows the rank grid a column at a time, where
            # the lowest rank first would grow it a row at a time
            for r in range(n, -1, -1):
                rec = e_rank(fam, n, r, "recurrence")
                for method in methods:
                    cases.append((("e_rank({.value},{},{}) {} vs recurrence", fam, n, r, method),
                                  e_rank(fam, n, r, method), rec))
            rank0 = (rho(fam, n) ** 2 if fam in (MonoidFamily.P, B, PB)
                     else int(n == 0 or fam is MonoidFamily.I))
            cases.append((("e_rank({.value},{},0) vs rank-0 idempotents", fam, n), e_rank(fam, n, 0), rank0))
    return _compare("e_rank methods agree", cases)


def check_rank_sums() -> CheckResult:
    """Each rank grid's column sums against the default total, which for
    every family but P and Idual is a route of its own (holonomic or closed),
    not the first-piece recurrence the rank grids share."""
    return _compare("per-rank counts sum to totals", (
        (("sum of e_rank({.value},{},r) recurrence vs e_total", fam, n),
         sum(e_rank(fam, n, r, "recurrence") for r in range(n + 1)), e_total(fam, n))
        for fam in FAMILIES for n in range(ENGINE_MAX_N + 1)
    ))


def check_parity_zeros() -> CheckResult:
    return _compare("parity zeros in family B", (
        (("e_rank(B,{},{}) across parity", n, r), e_rank(B, n, r), 0)
        for n in range(ENGINE_MAX_N + 1) for r in range(n + 1) if (n - r) % 2
    ))


def check_rclass_reconstruction() -> CheckResult:
    """The R-class counts rebuild the default totals of B and PB, their
    holonomic recurrences, and the per-rank counts of PB's rank grid."""
    cases = []
    for n in range(ENGINE_MAX_N + 1):
        total = sum(rho(B, n, r) * a_nr(n, r) for r in range(n % 2, n + 1, 2))
        cases.append((("sum rho*a over ranks of B_{} vs e_total", n), total, e_total(B, n)))
        per_rank = [
            sum(rho(PB, n, r, t) * a_nrt(n, r, t) for t in range(n - r + 1) if (n - r - t) % 2 == 0)
            for r in range(n + 1)
        ]
        cases.append(
            (("sum rho*a over (r,t) of PB_{} vs e_total", n), sum(per_rank), e_total(PB, n))
        )
        cases += [
            (("sum over t of rho*a for PB_{} rank {} vs e_rank", n, r), total_r, e_rank(PB, n, r))
            for r, total_r in enumerate(per_rank)
        ]
    return _compare("R-class counts rebuild the totals", cases)


def check_twisted_reconstruction() -> CheckResult:
    cases = []
    for n in range(ENGINE_MAX_N + 1):
        ranks = range(n % 2, n + 1, 2)
        total = sum(rho(B, n, r) * b_nr(n, r) for r in ranks)
        twisted_b = exi_total(B, n, 0, "formula")
        cases.append((("sum rho*b over ranks of B_{} vs exi_total", n), total, twisted_b))
        cases.append((("exi_total at order 0, B_{0} vs PB_{0}", n), twisted_b,
                      exi_total(PB, n, 0, "formula")))
        cases += [
            (("rho*b at B_{} rank {} vs exi_rank", n, r),
             rho(B, n, r) * b_nr(n, r), exi_rank(B, n, r))
            for r in ranks
        ]
    return _compare("twisted R-class counts rebuild the totals", cases)


def check_embedded_families() -> CheckResult:
    """The first-piece totals of T, I and Idual against their closed forms;
    T's and I's are their default routes too, so the check names the
    recurrence."""
    cases = []
    for n in range(ENGINE_MAX_N + 1):
        t_expected = sum(binomial(n, k) * k ** (n - k) for k in range(1, n + 1)) if n else 1
        cases += [
            (("e_total(T,{}) recurrence", n), e_total(MonoidFamily.T, n, "recurrence"), t_expected),
            (("e_total(I,{0}) recurrence vs 2^{0}", n), e_total(MonoidFamily.I, n, "recurrence"), 2**n),
            (("e_total(Idual,{0}) vs bell({0})", n), e_total(MonoidFamily.IDUAL, n), bell(n)),
            (("bell({}) vs its binomial recurrence", n + 1), bell(n + 1),
             sum(binomial(n, k) * bell(k) for k in range(n + 1))),
        ]
    return _compare("embedded-family totals", cases)


def check_twist_collapse() -> CheckResult:
    # e_total is exi_total at order 1: the formula, which keeps every cell
    # there, against each family's default route
    return _compare("twist order 1 collapses to plain counts", (
        (("exi_total({.value},{},order 1) formula vs e_total", fam, n),
         exi_total(fam, n, 1, "formula"), e_total(fam, n))
        for fam in FAMILIES for n in range(ENGINE_MAX_N + 1)
    ))


def check_reference_tables() -> CheckResult:
    failures = []
    known = 0
    for wid in TABLE_IDS:
        for cmp in compare_table(wid, ENGINE_MAX_N):
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
    """e_nrs(n, r, s) against a direct count of the pairs of set partitions
    of n points, with r and s blocks, whose join has one class: a pair is
    a rank-0 diagram, its upper and lower blocks, whose kernel is the join."""
    cases = []
    for n in range(1, max_n + 1):
        uppers = list(set_partition_blocks(n))
        lowers = [tuple([tuple([v + n for v in blk]) for blk in blocks]) for blocks in uppers]
        direct = Counter(
            (len(upper), len(lower))
            for upper in uppers
            for lower in lowers
            if len(_kernel_classes(upper + lower, n)) == 1
        )
        cases += [
            (("e_nrs({},{},{}) vs direct count", n, r, s), e_nrs(n, r, s), direct[(r, s)])
            for r in range(1, n + 1)
            for s in range(1, n + 1)
        ]
    return _compare("pair-of-partitions recurrence vs direct count", cases)


# --------------------------------------------------------------------------
# oracle sweeps

@cache
def _sweep(fam: MonoidFamily, n: int) -> BruteReport:
    """The one sweep of (fam, n), at twist order 0, that every sweep check reads."""
    return brute_report(fam, n, M=0)


def check_oracle_counts(fam: MonoidFamily, n: int) -> CheckResult:
    report = _sweep(fam, n)
    where = (fam.value, n)
    cases = [
        (("e_total({},{}) formula vs oracle", *where),
         e_total(fam, n, "formula"), report.idempotents_total),
        *((("e_rank({},{},{}) vs oracle", *where, r), e_rank(fam, n, r),
           report.idempotents_by_rank.get(r, 0)) for r in range(n + 1)),
        (("exi_total({},{},order 0) formula vs oracle", *where),
         exi_total(fam, n, 0, "formula"), report.twisted_total),
        *((("exi_rank({},{},{}) {} vs oracle", *where, r, method), exi_rank(fam, n, r, 0, method),
           report.twisted_by_rank.get(r, 0)) for method in ROUTES["exi_rank"][fam] for r in range(n + 1)),
    ]
    return _compare(
        f"oracle sweep {fam.value}_{n}",
        cases,
        note=f"{report.total_elements} elements in {report.elapsed_seconds:.2f}s"
        f" ({1e6 * report.elapsed_seconds / max(report.total_elements, 1):.0f} µs/element)",
    )


def check_idempotency_agreement(fam: MonoidFamily, n: int) -> CheckResult:
    disagreements = _sweep(fam, n).structural_disagreements
    failures = [f"{test} vs direct disagree on {a}" for test, a in disagreements]
    return _result(f"structural idempotency test {fam.value}_{n}", failures)


def check_rclass_uniformity(fam: MonoidFamily, n: int) -> CheckResult:
    report = _sweep(fam, n)
    cases = []
    for sig, count in report.r_class_counts.items():
        r, t = report.r_class_params[sig]
        if fam is B:
            expected, expected_twisted = a_nr(n, r), b_nr(n, r)
        else:
            expected, expected_twisted = a_nrt(n, r, t), (b_nr(n, r) if t == 0 else 0)
        where = (fam, n, r, t)
        cases.append((("idempotents of an R-class of {.value}_{} at (rank {}, idle {})", *where),
                      count, expected))
        cases.append((("twisted idempotents of an R-class of {.value}_{} at (rank {}, idle {})",
                       *where), report.r_class_twisted[sig], expected_twisted))
    return _compare(f"per-R-class uniformity {fam.value}_{n}", cases)


def check_rho_against_signatures(fam: MonoidFamily, n: int) -> CheckResult:
    report = _sweep(fam, n)
    strata = Counter(report.r_class_params[sig] for sig in report.r_class_counts)
    return _compare(f"R-class census {fam.value}_{n}", (
        (("R-classes of {.value}_{} at (rank {}, idle {})", fam, n, r, t), seen,
         rho(fam, n, r) if fam is B else rho(fam, n, r, t))
        for (r, t), seen in sorted(strata.items())
    ))


# --------------------------------------------------------------------------
# Green cross-checks (orbit computation vs signatures)

def _glued_groups(n: int, elements: list) -> Iterator[tuple[list[int], Iterator[list[list[int]]]]]:
    """For each group of bottom factors with one upper row (the first n
    labels, all of a bottom that the middle-row join reads), in order of
    first appearance: the group's indices in elements, and _glue_group's
    products of each element in turn, as the top factor, with the group."""
    labels = [_labels(a) for a in elements]
    tops = [(rgs, len(a.blocks)) for rgs, a in zip(labels, elements)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, rgs in enumerate(labels):
        groups.setdefault(tuple(rgs[:n]), []).append(j)
    for upper, members in groups.items():
        yield members, _glue_group(n, tops, upper, [labels[j][n:] for j in members])


def _product_table(n: int, elements: list) -> list[list[int | None]]:
    """Row i holds the index in elements of each product a_i·x, in the order
    of elements, or None for a product outside them, glued by _glued_groups
    and looked up by its label form.
    """
    index = {tuple(_labels(a)): j for j, a in enumerate(elements)}
    table: list[list[int | None]] = [[None] * len(elements) for _ in elements]
    for members, rows in _glued_groups(n, elements):
        for row, products in zip(table, rows):
            for j, rgs in zip(members, products):
                row[j] = index.get(tuple(rgs))
    return table


def check_green_orbits(fam: MonoidFamily, n: int) -> CheckResult:
    """Green's relations by definition, from one table of product indices
    (_product_table, one middle-row join per row and upper row of the
    bottom factors): row i is the right ideal a_i·S and column j the left
    ideal S·a_j (S holds the identity).  A side's two partitions, by ideal
    and by signature, agree exactly when each element's class has the same
    first element.  A product a_i·a_j outside the monoid fails at its cell
    (i, j), in the raw labels the table glued: a_j's group again, row i.
    """
    name = f"Green orbits vs signatures {fam.value}_{n}"
    elements = list(enumerate_elements(fam, n))
    table = _product_table(n, elements)
    for i, row in enumerate(table):
        if None in row:
            j = row.index(None)
            members, rows = next(group for group in _glued_groups(n, elements) if j in group[0])
            labels = next(islice(rows, i, None))[members.index(j)]
            return _result(name, [f"cell ({i}, {j}): {elements[i]} * {elements[j]} glues to labels {labels},"
                                  f" not in {fam.value}_{n}"])
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


QUICK_CHECKS = (
    "check_total_methods",
    "check_rank_methods",
    "check_rank_sums",
    "check_parity_zeros",
    "check_rclass_reconstruction",
    "check_twisted_reconstruction",
    "check_embedded_families",
    "check_twist_collapse",
    "check_reference_tables",
)


def _run(name: str, *args: object) -> CheckResult:
    """The check of that name on args.  It is looked up in the module when
    it runs, so a wrapper set on the module's attribute is what runs.  A
    check that raises is a FAIL line naming it, what it raised and the
    innermost frame, and the checks after it still run."""
    try:
        return globals()[name](*args)
    except Exception as exc:
        shown = f"({', '.join(str(getattr(a, 'value', a)) for a in args)})" if args else ""
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{code.co_name} ({Path(code.co_filename).name}:{tb.tb_lineno})"
        return CheckResult(f"{name}{shown}", False, f"raised {exc!r} in {where}")


def run_quick() -> VerificationReport:
    checks = [_run(name) for name in QUICK_CHECKS]
    checks.append(_run("check_enrs_oracle", 4))
    for fam, n in QUICK_SWEEPS:
        checks.append(_run("check_oracle_counts", fam, n))
        checks.append(_run("check_idempotency_agreement", fam, n))
    return VerificationReport("quick", tuple(checks))


def run_full() -> VerificationReport:
    checks = list(run_quick().checks)
    for fam, n in FULL_SWEEPS:
        checks.append(_run("check_oracle_counts", fam, n))
        checks.append(_run("check_idempotency_agreement", fam, n))
    checks.append(_run("check_enrs_oracle", 5))
    for fam, n in ((MonoidFamily.B, 6), (MonoidFamily.PB, 5)):
        checks.append(_run("check_rclass_uniformity", fam, n))
        checks.append(_run("check_rho_against_signatures", fam, n))
    for fam, n in GREEN_SWEEPS:
        checks.append(_run("check_green_orbits", fam, n))
    return VerificationReport("full", tuple(checks))

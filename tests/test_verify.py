from __future__ import annotations

import re

import pytest

from diagmon import counting, oracle, verify
from diagmon.core import MonoidFamily, _labels, identity, multiply, parse_diagram
from diagmon.counting import a_nr
from diagmon.verify import (
    CheckResult,
    check_embedded_families,
    check_enrs_oracle,
    check_green_orbits,
    check_idempotency_agreement,
    check_oracle_counts,
    check_rclass_uniformity,
    check_reference_tables,
    check_rho_against_signatures,
    check_total_methods,
    run_quick,
)

from .oracles import naive_e_nrs

B = MonoidFamily.B


@pytest.fixture
def cold_sweeps():
    """Sweeps made under a patch must not outlive the test."""
    verify._sweep.cache_clear()
    yield
    verify._sweep.cache_clear()


def test_check_result_lines():
    assert CheckResult("totals", True).line() == "PASS totals"
    assert CheckResult("totals", True, "note").line() == "PASS totals: note"
    assert CheckResult("totals", False, "bad").line() == "FAIL totals: bad"


def test_quick_profile_passes():
    report = run_quick()
    assert report.ok
    assert report.profile == "quick"
    assert len(report.checks) == 16
    rendered = report.render()
    assert "FAIL" not in rendered
    assert rendered.splitlines()[-1].endswith("all checks passed")


def test_reference_tables_note_known_cells():
    result = check_reference_tables()
    assert result.ok
    assert "4" in result.detail


def test_embedded_families_check():
    assert check_embedded_families().ok


def test_enrs_oracle_check():
    assert check_enrs_oracle(4).ok


def test_enrs_oracle_direct_counts_are_the_naive_ones(monkeypatch):
    # a referee that counted every pair, or joined one side only, would
    # still compare e_nrs with something; the direct counts must be right
    direct = {}

    def recording(name, cases, note=""):
        for (_, n, r, s), _, expected in cases:
            direct[n, r, s] = expected
        return CheckResult(name, True)

    monkeypatch.setattr(verify, "_compare", recording)
    check_enrs_oracle(5)
    naive = {n: naive_e_nrs(n) for n in range(1, 6)}
    assert direct == {
        (n, r, s): naive[n].get((r, s), 0)
        for n in naive
        for r in range(1, n + 1)
        for s in range(1, n + 1)
    }


def test_enrs_oracle_check_fails_on_a_wrong_count(monkeypatch):
    honest = verify.e_nrs

    def off_by_one(n, r, s):
        return honest(n, r, s) + ((n, r, s) == (5, 2, 3))

    monkeypatch.setattr(verify, "e_nrs", off_by_one)
    assert check_enrs_oracle(4).ok
    result = check_enrs_oracle(5)
    assert not result.ok
    assert result.detail == f"e_nrs(5,2,3) vs direct count: {honest(5, 2, 3) + 1} != {honest(5, 2, 3)}"


@pytest.mark.parametrize(
    "fam, n",
    [
        (MonoidFamily.P, 2),
        (B, 3),
        (MonoidFamily.PB, 3),
        (MonoidFamily.T, 2),
        (MonoidFamily.I, 3),
        (MonoidFamily.IDUAL, 3),
    ],
)
def test_green_orbit_check(fam, n):
    assert check_green_orbits(fam, n).ok


def test_green_check_fails_on_merged_r_classes(monkeypatch):
    # the rank-1 element's R-class is keyed as the identity's
    honest = oracle.green_signature
    unit, merged = identity(3), parse_diagram("1,2'|2,3|1',3'")
    assert honest(unit, "R") != honest(merged, "R")

    def merging(a, side="R"):
        return honest(unit if a == merged and side == "R" else a, side)

    monkeypatch.setattr(verify, "green_signature", merging)
    result = check_green_orbits(B, 3)
    assert not result.ok
    assert result.detail.startswith("R disagreement in B_3 between"), result.detail


def test_green_check_fails_on_split_l_class(monkeypatch):
    # the identity leaves the L-class of the other units
    honest = oracle.green_signature
    unit = identity(3)

    def splitting(a, side="R"):
        sig = honest(a, side)
        return sig + ("split",) if a == unit and side == "L" else sig

    monkeypatch.setattr(verify, "green_signature", splitting)
    result = check_green_orbits(B, 3)
    assert not result.ok
    assert result.detail.startswith("L disagreement in B_3 between"), result.detail


def test_green_check_fails_on_product_outside_the_monoid(monkeypatch):
    # a product that is no Brauer diagram must fail the check, not raise
    # the table glues each top with the bottoms of one upper row in label
    # form, so the leak goes in at that seam
    honest = verify._glue_group
    stray = parse_diagram("1,2,3,1',2',3'")
    unit = _labels(identity(3))

    def leaking(n, tops, upper, lowers):
        for (top, _), products in zip(tops, honest(n, tops, upper, lowers)):
            yield [
                _labels(stray) if top == [*upper, *lower] == unit else rgs
                for lower, rgs in zip(lowers, products)
            ]

    monkeypatch.setattr(verify, "_glue_group", leaking)
    elements = list(oracle.enumerate_elements(B, 3))
    i = elements.index(identity(3))
    result = check_green_orbits(B, 3)
    assert not result.ok
    unit = identity(3)
    assert result.detail == f"cell ({i}, {i}): {unit} * {unit} glues to labels {_labels(stray)}, not in B_3"


def test_green_check_names_the_product_a_group_dependent_fault_put_in_the_table(monkeypatch):
    # a fault that only shows when a group holds more than one bottom (here,
    # every bottom after the first gets the stray product): gluing the pair
    # alone would print an honest product, so the line must glue the group
    honest = verify._glue_group
    stray = parse_diagram("1,2,3,1',2',3'")

    def leaking(n, tops, upper, lowers):
        for products in honest(n, tops, upper, lowers):
            yield products[:1] + [_labels(stray)] * (len(products) - 1)

    monkeypatch.setattr(verify, "_glue_group", leaking)
    elements = list(oracle.enumerate_elements(B, 3))
    table = verify._product_table(3, elements)
    i = next(i for i, row in enumerate(table) if None in row)
    j = table[i].index(None)
    a, x = elements[i], elements[j]
    assert multiply(a, x)[0] != stray  # the pair alone glues to an honest product
    result = check_green_orbits(B, 3)
    assert not result.ok
    assert result.detail == f"cell ({i}, {j}): {a} * {x} glues to labels {_labels(stray)}, not in B_3"


def test_green_check_names_the_cell_of_a_product_too_short_to_format(monkeypatch):
    # a product one label short is no diagram at all: the line names its
    # cell and shows the raw labels, where formatting it would raise
    honest = verify._glue_group

    def dropping(n, tops, upper, lowers):
        rows = honest(n, tops, upper, lowers)
        first = next(rows)  # each group's first product through row 0
        yield [first[0][:-1], *first[1:]]
        yield from rows

    monkeypatch.setattr(verify, "_glue_group", dropping)
    unit = next(oracle.enumerate_elements(B, 3))
    result = check_green_orbits(B, 3)
    assert not result.ok and "raised" not in result.detail
    short = _labels(multiply(unit, unit)[0])[:-1]
    assert result.detail == f"cell (0, 0): {unit} * {unit} glues to labels {short}, not in B_3"


def test_rclass_uniformity_values():
    assert check_rclass_uniformity(B, 4).ok
    # the uniform per-class count in the middle layer of the n=6 monoid
    assert a_nr(6, 2) == 35


def test_failures_past_four_are_counted(monkeypatch):
    # an off-by-one formula route breaks every (family, n): the detail shows
    # the first four failures, from e_total(P,0) on, and counts the rest
    honest = verify.e_total

    def off_by_one(f, n, method="recurrence"):
        return honest(f, n, method) + (method == "formula")

    monkeypatch.setattr(verify, "e_total", off_by_one)
    result = check_total_methods()
    assert not result.ok
    shown = result.detail.split("; ")
    assert len(shown) == 5
    assert shown[0] == "e_total(P,0) formula vs recurrence: 2 != 1"
    cases = len(verify.FAMILIES) * (verify.ENGINE_MAX_N + 1)
    assert shown[4] == f"and {cases - 4} more"


def test_a_check_that_raises_is_a_fail_line(monkeypatch):
    # the check is named with what it raised, and every other check still runs
    def broken(*args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(verify, "check_total_methods", broken)
    report = run_quick()
    assert len(report.checks) == 16
    failed = [c for c in report.checks if not c.ok]
    assert len(failed) == 1
    assert failed[0].line().startswith(
        "FAIL check_total_methods: raised IndexError('list index out of range') in broken (test_verify.py:"
    ), failed[0].line()
    monkeypatch.setattr(verify, "check_oracle_counts", broken)
    failed = [c.name for c in run_quick().checks if not c.ok]
    sweeps = [f"check_oracle_counts({fam.value}, {n})" for fam, n in verify.QUICK_SWEEPS]
    assert failed == ["check_total_methods", *sweeps]


def test_checks_referee_the_egf_route(monkeypatch):
    # a closed (EGF) row off by one fails every (family, n, r) it serves, named,
    # and past the rank grid's n the row sums of B and PB against the
    # holonomic totals catch it
    honest = verify.e_rank

    def closed_off_by_one(fam, n, r, method=None):
        return honest(fam, n, r, method) + (method == "closed")

    monkeypatch.setattr(verify, "e_rank", closed_off_by_one)
    shown = verify.check_rank_methods().detail.split("; ")
    assert shown[0] == "e_rank(B,0,0) closed vs recurrence: 2 != 1", shown
    cells = 5 * (verify.ENGINE_MAX_N + 1) * (verify.ENGINE_MAX_N + 2) // 2  # B, PB, T, I and Idual
    assert shown[4] == f"and {cells - 4} more"
    shown = verify.check_total_methods().detail.split("; ")
    assert shown[0].startswith("sum of e_rank(B,20,r) closed vs holonomic e_total: "), shown
    assert shown[4] == "and 2 more"


def test_census_failure_names_the_stratum(monkeypatch):
    honest = verify.rho

    def one_too_many(f, n, r=None, t=None):
        return honest(f, n, r, t) + (r == 2)

    monkeypatch.setattr(verify, "rho", one_too_many)
    result = check_rho_against_signatures(B, 4)
    assert not result.ok
    assert result.detail == "R-classes of B_4 at (rank 2, idle 0): 6 != 7"


def test_tampered_c1_fails_oracle_sweep(monkeypatch):
    # seed a wrong irreducible count and the engine totals drift off the
    # brute-force census, which must name the first identity that broke
    honest = counting._irreducible

    def tampered(fam, n):
        return (0, 7) if (fam, n) == (B, 3) else honest(fam, n)

    monkeypatch.setattr(counting, "_irreducible", tampered)
    monkeypatch.setattr(
        counting, "_TABLES", {fam: counting._FamilyTables() for fam in MonoidFamily}
    )
    assert counting.c_values(B, 3) == (0, 7, 7)
    result = check_oracle_counts(B, 3)
    assert not result.ok
    assert "e_total(B,3) formula vs oracle" in result.detail


def test_oracle_total_takes_the_formula_route(monkeypatch):
    # the total case is labelled the formula route, so a formula off by one
    # must fail it while the recurrence stays right
    honest = verify.e_total

    def formula_off_by_one(fam, n, method="recurrence"):
        return honest(fam, n, method) + (method == "formula")

    monkeypatch.setattr(verify, "e_total", formula_off_by_one)
    result = check_oracle_counts(B, 3)
    assert not result.ok
    assert result.detail.startswith("e_total(B,3) formula vs oracle"), result.detail


def test_oracle_twisted_total_takes_the_formula_route(monkeypatch):
    # the twisted total case is labelled the formula route too
    honest = verify.exi_total

    def formula_off_by_one(fam, n, t=0, method=None):
        return honest(fam, n, t, method) + (method == "formula")

    monkeypatch.setattr(verify, "exi_total", formula_off_by_one)
    result = check_oracle_counts(B, 3)
    assert not result.ok
    assert result.detail.startswith("exi_total(B,3,order 0) formula vs oracle"), result.detail


def test_total_methods_check_referees_the_twisted_recurrence(monkeypatch):
    # a twisted recurrence off by one fails every (family, n, order), named
    honest = verify.exi_total

    def recurrence_off_by_one(fam, n, t=0, method=None):
        return honest(fam, n, t, method) + (method == "recurrence")

    monkeypatch.setattr(verify, "exi_total", recurrence_off_by_one)
    result = check_total_methods()
    assert not result.ok
    shown = result.detail.split("; ")
    assert shown[0] == "exi_total(P,0,order 0) formula vs recurrence: 1 != 2"
    # at twist orders 0 to 4, and each fast case, holonomic for B and PB and
    # closed for T and I: orders 0 to 4 at n <= ENGINE_MAX_N, and orders 0
    # to 2 further out; and each exi_rank row summed at orders 0 to 4
    fast = 5 * (verify.ENGINE_MAX_N + 1) + 3 * (verify.FAST_ROUTE_MAX_N - verify.ENGINE_MAX_N)
    assert len(verify.FAST_TOTALS) == 4
    cases = 2 * 5 * len(verify.FAMILIES) * (verify.ENGINE_MAX_N + 1) + 4 * fast
    assert shown[4] == f"and {cases - 4} more"


def test_total_methods_check_referees_the_fast_routes(monkeypatch):
    # a holonomic total off by one fails B's and PB's cases at every n, named
    honest = verify.e_total

    def holonomic_off_by_one(fam, n, method=None):
        return honest(fam, n, method) + (method == "holonomic")

    monkeypatch.setattr(verify, "e_total", holonomic_off_by_one)
    result = check_total_methods()
    assert not result.ok
    shown = result.detail.split("; ")
    assert shown[0] == "e_total(B,0) holonomic vs recurrence: 2 != 1"
    # and each sum of a closed rank row against it
    cases = 2 * (verify.FAST_ROUTE_MAX_N + 1) + 2 * len(verify.EGF_ROW_SUMS_N)
    assert shown[4] == f"and {cases - 4} more"


def test_oracle_sweep_note_reports_cost_per_element():
    result = check_oracle_counts(B, 4)
    assert result.ok
    assert re.fullmatch(r"105 elements in \d+\.\d\ds \(\d+ µs/element\)", result.detail), result.detail


def test_sweep_checks_share_one_enumeration(monkeypatch, cold_sweeps):
    calls = []
    honest = oracle.enumerate_elements

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return honest(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_elements", counted)
    for check in (
        check_oracle_counts,
        check_idempotency_agreement,
        check_rclass_uniformity,
        check_rho_against_signatures,
    ):
        assert check(B, 4).ok
    assert calls == [(B, 4)]


def test_structural_disagreement_is_named(monkeypatch, cold_sweeps):
    # the structural test the oracle runs beside squaring turns wrong on the
    # identity; the agreement check must fail and name that element
    target = identity(4)
    honest = oracle.is_idempotent_structural
    monkeypatch.setattr(
        oracle, "is_idempotent_structural", lambda a: a != target and honest(a)
    )
    result = check_idempotency_agreement(B, 4)
    assert not result.ok
    assert result.detail == f"structural vs direct disagree on {target}"


def test_twisted_disagreement_is_named(monkeypatch, cold_sweeps):
    # the twisted test turns wrong on the identity, whose square swallows
    # nothing; the agreement check must name that element
    target = identity(4)
    honest = oracle.is_twisted_idempotent
    monkeypatch.setattr(
        oracle, "is_twisted_idempotent", lambda a, t: a != target and honest(a, t)
    )
    result = check_idempotency_agreement(B, 4)
    assert not result.ok
    assert result.detail == f"twisted vs direct disagree on {target}"


def test_graph_disagreement_is_named(monkeypatch, cold_sweeps):
    # the identity is handed the graph of a rank-0 idempotent: two even
    # circuits and no even path, so the graph's rank 0 is not its rank 4
    target = identity(4)
    circuits = parse_diagram("1,2|3,4|1',2'|3',4'")
    honest = oracle.lambda_graph
    monkeypatch.setattr(
        oracle, "lambda_graph", lambda a: honest(circuits if a == target else a)
    )
    result = check_idempotency_agreement(B, 4)
    assert not result.ok
    assert result.detail == f"two-colored graph vs direct disagree on {target}"

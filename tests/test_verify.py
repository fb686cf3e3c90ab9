from __future__ import annotations

from diagmon import counting
from diagmon.core import MonoidFamily
from diagmon.counting import a_nr
from diagmon.verify import (
    CheckResult,
    check_embedded_families,
    check_enrs_oracle,
    check_green_orbits,
    check_oracle_counts,
    check_rclass_uniformity,
    check_reference_tables,
    run_quick,
)

B = MonoidFamily.B


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


def test_green_orbit_check():
    assert check_green_orbits(B, 3).ok


def test_rclass_uniformity_values():
    assert check_rclass_uniformity(B, 4).ok
    # the uniform per-class count in the middle layer of the n=6 monoid
    assert a_nr(6, 2) == 35


def test_tampered_c1_fails_oracle_sweep(monkeypatch):
    # seed a wrong irreducible count and the engine totals drift off the
    # brute-force census, which must name the first identity that broke
    honest = counting._irreducible

    def tampered(fam, n):
        return (0, 7, 7) if (fam, n) == (B, 3) else honest(fam, n)

    monkeypatch.setattr(counting, "_irreducible", tampered)
    monkeypatch.setattr(
        counting, "_TABLES", {fam: counting._FamilyTables() for fam in MonoidFamily}
    )
    assert counting.c_values(B, 3) == (0, 7, 7)
    result = check_oracle_counts(B, 3)
    assert not result.ok
    assert "e_total(B,3) formula vs oracle" in result.detail

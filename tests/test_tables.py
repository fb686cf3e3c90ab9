from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from diagmon.counting import b_nr, c_values, e_rank
from diagmon import tables
from diagmon.errors import DomainError
from diagmon.tables import (
    SERIES_COLUMNS,
    TABLE_IDS,
    build_table,
    compare_table,
    known_discrepancies,
    printed_table,
    render_table,
    table_headers,
)


def test_every_table_matches_apart_from_documented_cells():
    for which in TABLE_IDS:
        for diff in compare_table(which):
            assert diff.known, (
                f"table {which} cell n={diff.n} {diff.column}: "
                f"reference {diff.reference} vs computed {diff.computed}"
            )


def test_documented_discrepancy_inventory():
    entries = known_discrepancies()
    index = {(e["table"], e["n"], e.get("r", e.get("column"))): e for e in entries}
    assert len(entries) == 4
    assert index[("2", 9, "c")]["reference"] == 725860
    assert index[("2", 9, "c")]["computed"] == 725760
    assert index[("6", 10, 4)]["reference"] == 168
    assert index[("6", 10, 4)]["computed"] == 960
    assert index[("6", 10, 6)]["reference"] == 195
    assert index[("6", 10, 6)]["computed"] == 168
    assert index[("8", 10, 8)]["reference"] == 2289
    assert index[("8", 10, 8)]["computed"] == 22890


def test_discrepant_cells_disagree_as_documented():
    assert c_values("PB", 9)[2] == 725760
    assert b_nr(10, 4) == 960
    assert b_nr(10, 6) == 168
    assert e_rank("P", 10, 8) == 22890


def test_known_discrepancies_filter():
    assert known_discrepancies("1") == []
    assert {e["n"] for e in known_discrepancies("6")} == {10}
    with pytest.raises(DomainError):
        known_discrepancies("11")


def test_printed_table_shape():
    t1 = printed_table("1")
    assert t1["columns"] == ["c0", "c1", "c", "e", "exi0"]
    assert t1["rows"]["3"] == [0, 6, 6, 10, 7]
    t4 = printed_table("4")
    assert t4["cells"]["4"]["0"] == 9
    assert "1" not in t4["cells"]["4"]


def test_build_table_entries():
    table = build_table("4", max_n=4)
    assert table.family == "B"
    assert table.entries[(4, 2)] == 30
    assert (4, 1) not in table.entries
    assert table.entries[(0, 0)] == 1


def test_build_table_series():
    # series entries are keyed (n, column position) in c0, c1, c, e, exi0 order
    table = build_table("1", max_n=3)
    assert table.index_names == ("n", "column")
    assert table.entries[(3, 3)] == 10
    assert table.entries[(3, 1)] == 6
    assert (0, 0) not in table.entries
    assert table.entries[(0, 3)] == 1


def test_table_guards():
    with pytest.raises(DomainError):
        build_table("11")
    with pytest.raises(DomainError):
        build_table("4", max_n=-1)
    with pytest.raises(DomainError):
        render_table("4", fmt="xml")


def test_render_is_deterministic():
    for which in ("2", "5", "9"):
        for fmt in ("csv", "json", "markdown"):
            assert render_table(which, max_n=6, fmt=fmt) == render_table(
                which, max_n=6, fmt=fmt
            )


def test_csv_blank_parity_cells():
    text = render_table("4", max_n=4, fmt="csv")
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert rows[0] == ["n", "r=0", "r=1", "r=2", "r=3", "r=4"]
    by_n = {row[0]: row[1:] for row in rows[1:]}
    assert by_n["4"] == ["9", "", "30", "", "1"]
    assert by_n["0"] == ["1", "", "", "", ""]
    # rank-0 idempotent counts of 0 must render as 0, not blank
    text10 = render_table("5", max_n=2, fmt="csv")
    assert "\n2,1,,1" in text10


def test_csv_footnotes_name_recomputed_cells():
    assert "(n=9" in render_table("2", fmt="csv")
    six = render_table("6", fmt="csv")
    assert six.count("# cell") == 2
    assert "960" in six
    eight = render_table("8", fmt="csv")
    assert "22890" in eight and "# cell" in eight
    # clipping the table above the bad rows drops the footnotes
    assert "# cell" not in render_table("6", max_n=9, fmt="csv")


def test_json_round_trips_big_values():
    doc = json.loads(render_table("3", fmt="json"))
    cells = {row["n"]: row["cells"] for row in doc["rows"]}
    assert cells[10]["e(P_n)"] == "478623817564"
    assert int(cells[10]["e(P_n)"]) == 478623817564
    assert doc["notes"] == []
    doc8 = json.loads(render_table("8", fmt="json"))
    assert len(doc8["notes"]) == 1


def test_markdown_mentions_recomputation():
    text = render_table("6", fmt="markdown")
    assert "| 960 |" in text
    assert "recomputed" in text


def test_headers_follow_family():
    assert table_headers("1")[1] == "c_0(B_n)"
    assert table_headers("7") == ["n"] + [f"r={r}" for r in range(11)]
    assert table_headers("10", max_n=3) == ["n", "r=0", "r=1", "r=2", "r=3"]


def test_table_at_zero_rows():
    table = build_table("1", max_n=0)
    assert set(table.entries) == {(0, 3), (0, 4)}
    text = render_table("1", max_n=0, fmt="csv")
    assert text.splitlines()[1].startswith("0,")


def test_data_file_agrees_with_the_spec():
    # the reference data names each table's family, type and columns; the
    # rebuilt table must be the same kind of table
    for which in TABLE_IDS:
        ref = printed_table(which)
        table = build_table(which, max_n=0)
        assert ref["family"] == table.family, which
        assert ref["type"] == ("series" if table.kind == "series" else "rank"), which
        if ref["type"] == "series":
            assert ref["columns"] == list(SERIES_COLUMNS), which
            assert table.index_names == ("n", "column"), which
        else:
            assert "columns" not in ref, which
            assert table.index_names == ("n", "r"), which


# sha256 of render_table(which, 12, fmt) in csv, json and markdown order
RENDERED_AT_12 = {
    "1": (
        "8d86b28c5f8bfde13f7f46847f03de4832eade6d7f1d97c5d691d4a83f8a4b3f",
        "ae4535ef862b72901a89231967bd75d7a9d59ae07f66271fa6db9837069c7b5f",
        "b423ee9298c9bd775fe77f0080ad23a236291e4574a0ffc866041812d0a0201c",
    ),
    "2": (
        "d43e926ba1ecec23784750ba47eadc0c286421230ca9de8e2cdb9d610bd893cd",
        "65e736da9ea1fbf001709fbc783bab3b77009d08905991b8d1bdfc7cf8abfa56",
        "25415a2a0b11ddde348c5c0a5b0d25179a0404032e1f376f38dac09d474101f0",
    ),
    "3": (
        "4af56f6b43798307226c60dd60f2dfeae98d1a1466137fa660cd4725df76c4ed",
        "eeb8603d5b0af0072b7cacd13e9eded2fd86d0fb3b4603b509d3c577533f2fa6",
        "44a3657077e0561726961de5d51fd399ae9a5f6137e8c3779d03d4352d413571",
    ),
    "4": (
        "de9ccce2589af473e194b1c3434edd88f5746986d6ff6d42e58f31ab0161313b",
        "b418ee3802fed20c27cbe36364fceb81d273db92ad9c4b84c8ffcc032384e3a8",
        "a00e74ad9480d90873e633582af22a2fd3cc262e985ed667ec48209a24fd335d",
    ),
    "5": (
        "6f3dff35ae35900082a4174e2eeef78b237cbecb962c185814f0c91bc8a0e28d",
        "fb21a92f29b616d860c6fb6c7567551e081c751c9c9af64a2a7ab7a446369a4a",
        "206b00b5198e1585de35d1c5ba25b40ca055b9b4daf4b85bb5efc394bf335944",
    ),
    "6": (
        "f86b0c8ef2212876a9603e62d993c4b5e008bcb3bf5607b222a4b3677c496627",
        "48b5e17cb03452b6c06cf496eca1c58fce4608fb5778e84dabc761b78b9d6448",
        "af75317e0341e3cd619adea743314216d9fa407db98817e135b5a306cc1d7594",
    ),
    "7": (
        "e85283ae459e5c287a4971cac9df3d25448c0412e8ed1b23abc3b0e10af4fee2",
        "86af754a9a38a72e57efd43c996f6f4e644739371308c7cea8560bf1a7ffdc89",
        "49945b7dfbe5514224770b483e0b29826e13f0c097848ccaf43448c77c5c7538",
    ),
    "8": (
        "43a6dcb0fb23f9345726ba0baac3ee4ce7db0210333b27ab33f59fd7f869bdb0",
        "9ef1ebb01c01cbd5719f7bc59466343f9b74c2155fc05d4bc35cc92984ad97a3",
        "4aaf68005805cb734ab81717a1b0228e0db4f67bbef14769cdaca2871e324480",
    ),
    "9": (
        "68e3a7c8ba6b7b35581d722559ec365dc0e68f25a3c66f423259c5dc2779b0c5",
        "c3b0f85953eb1cd9dec589ce0ff87fe160a9c28466b90085d8700dc64e2af36b",
        "8abbf2b9e5449d1e313ac65bb3557b9f7464c4b6b30e08f960744f5fc649ac89",
    ),
    "10": (
        "d0c84799d1e718124cb2699a4f521345fd125d39947ba64ffb3723427d8e6227",
        "b8c08dedfe3c38736025ea49f27b12cbcacc72ae2e1d4ccca39db370b3d060a4",
        "5c3c26d1cb86275face36ad7a080051e433f298bd8603a423c52923c38abb62e",
    ),
}


@pytest.mark.parametrize("which", TABLE_IDS)
def test_rendered_tables_are_byte_identical(which):
    got = tuple(
        hashlib.sha256(render_table(which, 12, fmt).encode()).hexdigest()
        for fmt in ("csv", "json", "markdown")
    )
    assert got == RENDERED_AT_12[which]


def test_unknown_format_is_refused_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("build_table called")

    monkeypatch.setattr(tables, "build_table", never)
    with pytest.raises(DomainError, match="unknown format"):
        render_table("3", max_n=12, fmt="xml")

from __future__ import annotations

import decimal
import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from diagmon import cli, combinat, counting, verify
from diagmon.cli import main
from diagmon.combinat import odd_double_factorial
from diagmon.core import MonoidFamily, parse_diagram
from diagmon.counting import a_nr, exi_total, rho
from diagmon.errors import DomainError
from diagmon.oracle import enumerate_elements


def run(*args: str):
    return CliRunner().invoke(main, list(args))


# --------------------------------------------------------------------------
# count

def test_count_total():
    result = run("count", "--family", "B", "--n", "10")
    assert result.exit_code == 0
    assert result.output.strip() == "21442816"


def test_count_rank():
    result = run("count", "--family", "P", "--n", "10", "--rank", "0")
    assert result.exit_code == 0
    assert result.output.strip() == "13450200625"


def test_count_twisted():
    result = run("count", "--family", "PB", "--n", "6", "--M", "0")
    assert result.exit_code == 0
    assert result.output.strip() == "1201"


def test_count_twisted_rank():
    result = run("count", "--family", "B", "--n", "3", "--rank", "1", "--M", "0")
    assert result.exit_code == 0
    assert result.output.strip() == "6"


def test_count_twisted_rank_routes():
    # per-rank twisted counts take the routes ROUTES lists, at every order;
    # any other method is refused
    for order in ("0", "2"):
        args = ("count", "--family", "B", "--n", "3", "--rank", "1", "--M", order)
        for method in ("closed", "recurrence"):
            result = run(*args, "--method", method)
            assert (result.exit_code, result.output) == (0, "6\n"), (order, method)
        for method in ("formula", "mu_sum"):
            result = run(*args, "--method", method)
            assert result.exit_code == 2, (order, method, result.output)
    result = run("count", "--family", "P", "--n", "3", "--rank", "1", "--M", "0", "--method", "closed")
    assert result.exit_code == 2, result.output


def test_readme_count_examples():
    # each `diagmon count` line of the README carries its answer as a comment
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"^diagmon (count .*?)\s+# (\d+)$", readme, re.MULTILINE)
    assert len(examples) == 3
    for args, answer in examples:
        result = run(*args.split())
        assert (result.exit_code, result.output) == (0, f"{answer}\n"), args


def test_count_bruteforce():
    result = run("count", "--family", "B", "--n", "3", "--method", "bruteforce")
    assert result.exit_code == 0
    assert result.output.strip() == "10"


def test_count_zero_is_printed():
    result = run("count", "--family", "B", "--n", "4", "--rank", "1")
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_count_bad_family_exits_2():
    result = run("count", "--family", "Q", "--n", "3")
    assert result.exit_code == 2


def test_count_bad_rank_exits_2():
    result = run("count", "--family", "B", "--n", "3", "--rank", "7")
    assert result.exit_code == 2
    assert result.output == "" or "7" in result.output + (result.stderr or "")


def test_count_bruteforce_rank_out_of_range_exits_2():
    for rank, m_order in (("-1", ()), ("4", ()), ("-1", ("--M", "0")), ("4", ("--M", "0"))):
        args = ("count", "--family", "B", "--n", "3", "--method", "bruteforce", "--rank", rank)
        result = run(*args, *m_order)
        assert result.exit_code == 2, (rank, m_order, result.output)
    assert run("count", "--family", "B", "--n", "3", "--method", "bruteforce", "--rank", "3").output == "1\n"


def test_count_twisted_order_zero_takes_the_recurrence(monkeypatch):
    # the grids and closed forms are far cheaper than the partition formula:
    # every order takes the holonomic grid for B and PB, the closed form for
    # T and I, and the first-piece recurrence for P and Idual.  counting
    # picks the route: each grid read names its route in counting._GRIDS.
    monkeypatch.setattr(counting, "_TABLES", {fam: counting._FamilyTables() for fam in MonoidFamily})
    seen = []

    def grid_route(fam, key, *args):
        return counting._GRIDS[key if isinstance(key, str) else key[0]][0]

    spies = (("_cell", grid_route), ("_partition_grid", lambda *args: "formula"),
             ("_closed_row", lambda *args: "closed"))
    for name, route in spies:
        honest = getattr(counting, name)
        monkeypatch.setattr(
            counting, name, lambda *args, honest=honest, route=route: seen.append(route(*args)) or honest(*args)
        )
    assert run("count", "--family", "PB", "--n", "6", "--M", "0").output.strip() == "1201"
    assert run("count", "--family", "T", "--n", "6", "--M", "0").output.strip() == "1057"
    assert run("count", "--family", "T", "--n", "6", "--M", "2").output.strip() == "1057"
    # I's closed form reads no table: the subsets with an even number of idle points
    assert run("count", "--family", "I", "--n", "6", "--M", "2").output.strip() == "32"
    assert run("count", "--family", "Idual", "--n", "6", "--M", "2").output.strip() == "203"
    assert run("count", "--family", "PB", "--n", "6", "--M", "2").exit_code == 0
    formula = run("count", "--family", "PB", "--n", "6", "--M", "0", "--method", "formula")
    assert formula.output.strip() == "1201"
    assert seen == ["holonomic", "closed", "closed", "recurrence", "holonomic", "formula"]


def test_count_plain_total_refusals_name_the_count():
    # e_total is exi_total at twist order 1, so a refused plain count names
    # the twisted count that answers it
    for args, message in (
        (("--n", "3", "--method", "mu_sum"),
         "error: exi_total has no route 'mu_sum' for family B, only holonomic, recurrence, formula\n"),
        (("--n", "-1"), "error: exi_total needs n >= 0, got -1\n"),
    ):
        result = run("count", "--family", "B", *args)
        assert (result.exit_code, type(result.exception)) == (2, SystemExit), args
        assert result.output == message, result.output


def test_count_holonomic():
    # B's and PB's totals, and the twisted total at order 0 they share
    for args, answer in (
        (("--family", "B"), "21442816"),
        (("--family", "PB"), "376371799"),
        (("--family", "B", "--M", "0"), "12202561"),
        (("--family", "PB", "--M", "0"), "12202561"),
    ):
        result = run("count", *args, "--n", "10", "--method", "holonomic")
        assert (result.exit_code, result.output) == (0, f"{answer}\n"), args


def test_count_egf_ranks():
    # the closed rank route, the row off the bivariate EGF, for every family but P
    for family in ("B", "PB", "T", "I", "Idual"):
        args = ("count", "--family", family, "--n", "9", "--rank", "3")
        closed = run(*args, "--method", "closed")
        assert (closed.exit_code, closed.output) == (0, run(*args, "--method", "recurrence").output), family


def test_count_route_the_family_lacks_exits_2():
    for args in (
        ("--family", "P", "--rank", "2", "--method", "egf"),
        ("--family", "P", "--rank", "2", "--method", "closed"),
        ("--family", "B", "--method", "egf"),
        ("--family", "P", "--method", "holonomic"),
        ("--family", "Idual", "--method", "closed"),
        ("--family", "B", "--rank", "2", "--method", "holonomic"),
    ):
        result = run("count", *args, "--n", "5")
        assert result.exit_code == 2, (args, result.output)
        assert "Traceback" not in result.output
        if "egf" in args:  # no count has that route: click refuses the name
            assert "Invalid value for '--method'" in result.output, result.output
    # the marked holonomic route answers every twist order
    result = run("count", "--family", "B", "--M", "2", "--method", "holonomic", "--n", "5")
    assert (result.exit_code, result.output) == (0, "196\n")


def test_routes_are_pinned():
    # verify builds its route checks from counting.ROUTES, so a route dropped
    # from the table would drop its checks without a failure; this copy
    # pins the three tables, default first.  e_total is exi_total at twist
    # order 1 and takes its routes
    P, B, PB, T, I, IDUAL = MonoidFamily
    assert counting.ROUTES == {
        "exi_total": {
            P: ("recurrence", "formula"),
            B: ("holonomic", "recurrence", "formula"),
            PB: ("holonomic", "recurrence", "formula"),
            T: ("closed", "recurrence", "formula"),
            I: ("closed", "recurrence", "formula"),
            IDUAL: ("recurrence", "formula"),
        },
        "e_rank": {
            P: ("recurrence", "mu_sum"),
            B: ("closed", "recurrence", "mu_sum"),
            PB: ("closed", "recurrence", "mu_sum"),
            T: ("closed", "recurrence", "mu_sum"),
            I: ("closed", "recurrence", "mu_sum"),
            IDUAL: ("closed", "recurrence", "mu_sum"),
        },
        "exi_rank": {
            P: ("recurrence",),
            B: ("closed", "recurrence"),
            PB: ("closed", "recurrence"),
            T: ("closed", "recurrence"),
            I: ("closed", "recurrence"),
            IDUAL: ("closed", "recurrence"),
        },
    }
    names = {"formula", "recurrence", "holonomic", "closed", "mu_sum"}
    help_text = run("count", "--help").output
    listed = re.search(r"--method \[([^\]]*)\]", help_text).group(1).split("|")
    assert sorted(listed) == sorted([*names, "bruteforce"]), help_text
    queries = {  # each count's route table, its cells at n, and one cell asked again through the CLI
        "e_total": ("exi_total", lambda n: [(n,)], (4,), ()),
        "e_rank": ("e_rank", lambda n: [(n, r) for r in range(n + 1)], (4, 2), ("--rank", "2")),
        "exi_total": ("exi_total", lambda n: [(n, order) for order in range(5)], (4, 2), ("--M", "2")),
        "exi_rank": ("exi_rank", lambda n: [(n, r, order) for r in range(n + 1) for order in range(4)],
                     (4, 2, 2), ("--rank", "2", "--M", "2")),
    }
    for count, (table, cells, cell, options) in queries.items():
        function = getattr(counting, count)
        for fam, routes in counting.ROUTES[table].items():
            # every listed route answers, and agrees with the default
            for n in range(7 if fam is P else 9):
                for at in cells(n):
                    default = function(fam, *at)
                    for method in routes:
                        assert function(fam, *at, method) == default, (count, fam, at, method)
            # every other name is refused, by the library and by the CLI
            for method in sorted(names - set(routes)) + ["egf", "magic"]:
                with pytest.raises(DomainError):
                    function(fam, *cell, method)
                result = run("count", "--family", fam.value, "--n", "4", *options, "--method", method)
                assert (result.exit_code, type(result.exception)) == (2, SystemExit), (count, fam, method)
                assert "Traceback" not in result.output and "error" in result.output.lower(), result.output


def test_count_passes_the_method_through(monkeypatch):
    seen = []
    for name in ("e_total", "e_rank", "exi_total", "exi_rank"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: seen.append((name, args[-1])) or 0)
    for args in ((), ("--rank", "2"), ("--M", "0"), ("--M", "2"), ("--M", "0", "--method", "formula"),
                 ("--rank", "2", "--M", "2"), ("--rank", "2", "--M", "2", "--method", "closed")):
        assert run("count", "--family", "B", "--n", "4", *args).output == "0\n"
    assert seen == [
        ("e_total", None), ("e_rank", None), ("exi_total", None), ("exi_total", None),
        ("exi_total", "formula"), ("exi_rank", None), ("exi_rank", "closed"),
    ]


def test_count_large_n_has_no_recursion_limit():
    result = run("count", "--family", "B", "--n", "499")
    assert result.exit_code == 0
    assert int(result.output) == sum(rho("B", 499, r) * a_nr(499, r) for r in range(1, 500, 2))


def test_count_prints_every_digit_of_a_long_result():
    # 5,734 digits, past the interpreter's default int-to-text limit of 4300
    result = run("count", "--family", "B", "--n", "2000", "--rank", "0")
    assert result.exit_code == 0, result.output
    digits = result.output.strip()
    assert digits.isdigit() and len(digits) > 4300
    assert decimal.Decimal(digits) == odd_double_factorial(1999) ** 2


# --------------------------------------------------------------------------
# table

def test_table_csv_row9():
    result = run("table", "--which", "4", "--max-n", "10", "--format", "csv")
    assert result.exit_code == 0
    rows = {line.split(",")[0]: line for line in result.output.splitlines()}
    assert rows["9"] == "9,,893025,,873180,,54054,,540,,1,"


def test_table_markdown_footnote():
    result = run("table", "--which", "6")
    assert result.exit_code == 0
    assert "960" in result.output
    assert "recomputed" in result.output


def test_table_max_n_zero():
    result = run("table", "--which", "1", "--max-n", "0", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("n,")
    assert lines[1] == "0,,,,1,1"


def test_table_json_out_file(tmp_path):
    target = tmp_path / "t3.json"
    result = run("table", "--which", "3", "--format", "json", "--out", str(target))
    assert result.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["table"] == "3"


def test_out_into_missing_directory_exits_2(tmp_path):
    target = str(tmp_path / "missing" / "x.md")
    for args in (("table", "--which", "4"), ("enumerate", "--family", "B", "--n", "2")):
        result = run(*args, "--out", target)
        assert result.exit_code == 2, (args, result.output)
        assert result.output.startswith(f"error: cannot write {target}"), result.output


def test_table_reruns_byte_identical():
    a = run("table", "--which", "9", "--format", "csv").output
    b = run("table", "--which", "9", "--format", "csv").output
    assert a == b


def test_table_unknown_id_exits_2():
    assert run("table", "--which", "11").exit_code == 2


def test_table_over_limit_exits_2():
    assert run("table", "--which", "4", "--max-n", "13").exit_code == 2


# --------------------------------------------------------------------------
# verify

def test_verify_quick():
    result = run("verify", "--profile", "quick")
    assert result.exit_code == 0
    assert "all checks passed" in result.output
    assert "FAIL" not in result.output


def test_verify_with_a_check_that_raises_exits_1(monkeypatch):
    def broken():
        raise IndexError("list index out of range")

    monkeypatch.setattr(verify, "check_total_methods", broken)
    result = run("verify", "--profile", "quick")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "FAIL check_total_methods: raised IndexError" in result.output
    assert result.output.splitlines()[-1] == "quick profile: 16 checks, FAILURES present"


def test_verify_takes_no_cap():
    result = run("verify", "--cap", "1")
    assert result.exit_code == 2
    assert "No such option" in result.output


# --------------------------------------------------------------------------
# enumerate

def test_enumerate_idempotents_b2():
    result = run("enumerate", "--family", "B", "--n", "2", "--filter", "idempotent")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines == ["1,2|1',2'", "1,1'|2,2'", "# count: 2"]


def test_enumerate_all_p1():
    result = run("enumerate", "--family", "P", "--n", "1")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[-1] == "# count: 2"
    assert len(lines) == 3


def test_enumerate_twisted_b3():
    result = run(
        "enumerate", "--family", "B", "--n", "3", "--filter", "twisted", "--M", "0"
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[-1] == "# count: 7"
    assert len(lines) == 8


# sha256 of the enumerate listings of n = 0..4, concatenated, under
# --filter all, --filter idempotent and --filter twisted --M 2
LISTINGS_TO_4 = {
    "P": (
        "5e5f0ed727b044ae19114601923d98dc2c401d0ecff10e24b50fc94a96263e59",
        "1105e25cdb5229ddd6c0fb6cffebbf8222db6847a221dad2585eb22cf702c358",
        "b3ee25ba1b1f7d6ee207957ab85ca47621ba8cc13fa12710e68020236f8fda1e",
    ),
    "B": (
        "8a878ba811cacfd4a3fdd7692bc7c1dcca7c5f7912fa3dc17a7065aab6dc06b2",
        "83061d27e3438a16797891a2e5d4c50ffdc0b0fa35ec1d97989c43578e9c5c07",
        "fdd6b9ce77bcf455d5a427f98180c9985af18398942095735d551d32beb1829e",
    ),
    "PB": (
        "ae944cd8d4a6fe7387d637c0fa938218adcd58519a220736a28b1227e4c45620",
        "a625e2d720dda666e2dc627131606cea146cab0b6c289f89081482526e91a40d",
        "fd0d1c35a9c3cb216bb58ad25188683ea7aff4e51bb48158c699554c47380f18",
    ),
    "T": (
        "6e89318fafdcdfac75b06bc5bae706ff8ddf759a80117ec172d2d5425b2f4598",
        "3a155e7802339010901533101cc3b0311206fcb9d39d93a45770778b1070f67f",
        "3a155e7802339010901533101cc3b0311206fcb9d39d93a45770778b1070f67f",
    ),
    "I": (
        "5f88375f81944864e1c15ea99334862c721f13574320cc0196dc2ea199d785b9",
        "0922694d3a548892c0d0f4a233db45cda7cdf9b29ae94fb980d73eb5d6e4c41f",
        "2bef144389b46a3b8de4a648bad66d56b7e94937e41cad1a955ab9142c81509c",
    ),
    "Idual": (
        "b275bde1363e31d496549604fbdbe77969bb1249fb9019c013b62f590d62a506",
        "048f74c02c94334816039f7b83a0135459ff592010456709943629d249044687",
        "048f74c02c94334816039f7b83a0135459ff592010456709943629d249044687",
    ),
}


@pytest.mark.parametrize("family", LISTINGS_TO_4)
def test_enumerate_listings_are_byte_identical(family):
    got = []
    filters = (("--filter", "all"), ("--filter", "idempotent"), ("--filter", "twisted", "--M", "2"))
    for keep in filters:
        digest = hashlib.sha256()
        for n in range(5):
            result = run("enumerate", "--family", family, "--n", str(n), *keep)
            assert result.exit_code == 0, result.output
            digest.update(result.output.encode())
        got.append(digest.hexdigest())
    assert tuple(got) == LISTINGS_TO_4[family]


def test_enumerate_lines_reparse():
    result = run("enumerate", "--family", "PB", "--n", "2")
    seen = set()
    for line in result.output.strip().splitlines():
        if line.startswith("#"):
            continue
        a = parse_diagram(line)
        assert a.n == 2
        seen.add(a)
    assert len(seen) == 10


def test_enumerate_out_file(tmp_path):
    target = tmp_path / "b2.txt"
    result = run(
        "enumerate", "--family", "B", "--n", "2", "--out", str(target)
    )
    assert result.exit_code == 0
    assert target.read_text().strip().splitlines()[-1] == "# count: 3"


def test_enumerate_writes_each_line_as_it_is_made(monkeypatch, tmp_path):
    # a stream that breaks after three elements leaves their three lines
    # written, on stdout and in the --out file alike
    elements = list(enumerate_elements("B", 2))
    lines = [str(a) for a in elements]
    assert len(lines) == 3

    def breaking(fam, n, cap):
        yield from elements
        raise DomainError("the stream broke")

    monkeypatch.setattr(cli, "enumerate_elements", breaking)
    result = run("enumerate", "--family", "B", "--n", "2")
    assert result.exit_code == 2
    assert result.stdout.splitlines() == lines
    assert "error: the stream broke" in result.stderr
    target = tmp_path / "b2.txt"
    result = run("enumerate", "--family", "B", "--n", "2", "--out", str(target))
    assert result.exit_code == 2
    assert target.read_text().splitlines() == lines


def test_enumerate_refused_cap_writes_nothing(tmp_path):
    target = tmp_path / "p4.txt"
    result = run("enumerate", "--family", "P", "--n", "4", "--cap", "100", "--out", str(target))
    assert result.exit_code == 3
    assert not target.exists()


def test_enumerate_negative_order_exits_2():
    for keep in ("all", "idempotent", "twisted"):
        result = run("enumerate", "--family", "B", "--n", "2", "--filter", keep, "--M", "-1")
        assert result.exit_code == 2, (keep, result.output)
    assert run("enumerate", "--family", "B", "--n", "2", "--M", "2").exit_code == 0


def test_enumerate_cap_exits_3():
    result = run("enumerate", "--family", "P", "--n", "4", "--cap", "100")
    assert result.exit_code == 3


def test_cap_refuses_a_huge_stream_cheaply(monkeypatch):
    # the refusal stops at the first size past the cap, so it never grows
    # the Stirling grid towards Bell(3000)
    monkeypatch.setattr(combinat, "_STIRLING2", [])
    result = run("enumerate", "--family", "P", "--n", "1500")
    assert result.exit_code == 3
    assert "P_1500" in result.output and "P_7" in result.output
    assert len(combinat._STIRLING2) < 30


def test_negative_cap_is_a_usage_error():
    for command in (
        ("count", "--family", "B", "--n", "3", "--method", "bruteforce"),
        ("enumerate", "--family", "B", "--n", "3"),
    ):
        result = run(*command, "--cap", "-5")
        assert result.exit_code == 2, (command, result.output)
        assert "--cap" in result.output, command


def test_count_bruteforce_cap_exits_3():
    result = run(
        "count", "--family", "B", "--n", "8", "--method", "bruteforce", "--cap", "1000"
    )
    assert result.exit_code == 3

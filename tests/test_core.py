from __future__ import annotations

import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagmon import core
from diagmon.core import (
    DiagramPartition,
    MonoidFamily,
    decompose_irreducible,
    family_check,
    format_diagram,
    identity,
    lambda_graph,
    make_partition,
    multiply,
    parse_diagram,
    profile,
)
from diagmon.errors import (
    CoverageError,
    DimensionMismatchError,
    DomainError,
    EmptyBlockError,
    NotDecomposableError,
    NotPartialBrauerError,
    OverlapError,
)
from diagmon.oracle import enumerate_elements

from .conftest import _diagram_from_raw, diagram_pairs, diagrams
from .oracles import bfs_components, naive_join, naive_multiply, naive_parse, set_partitions

ALPHA = parse_diagram("1,4|2,3,4',5'|5,6|1',3',6'|2'")
BETA = parse_diagram("1,3|2,4,3'|5,4',5',6'|6|1'|2'")


# --------------------------------------------------------------------------
# construction and canonical form

def test_make_partition_identity_p1():
    assert make_partition(1, [{0, 1}]) == identity(1)


def test_make_partition_canonicalizes_order():
    a = make_partition(2, [[3, 1], [2, 0]])
    assert a.blocks == ((0, 2), (1, 3))


def test_make_partition_running_example():
    a = make_partition(6, [{0, 3}, {1, 2, 9, 10}, {4, 5}, {6, 8, 11}, {7}])
    assert a == ALPHA


def test_make_partition_overlap():
    with pytest.raises(OverlapError):
        make_partition(2, [{0, 1}, {1, 2, 3}])


def test_make_partition_point_repeated_in_one_block():
    with pytest.raises(OverlapError):
        make_partition(1, [[0, 0, 1]])
    with pytest.raises(OverlapError):
        parse_diagram("1,1,1'")


def test_make_partition_coverage():
    with pytest.raises(CoverageError):
        make_partition(2, [{0, 1}])


def test_make_partition_empty_block():
    with pytest.raises(EmptyBlockError):
        make_partition(1, [[0, 1], []])


def test_make_partition_bad_vertex_is_index_error():
    with pytest.raises(IndexError):
        make_partition(2, [{0, 1}, {2, 3, 4}])


def test_empty_diagram_is_legal():
    empty = make_partition(0, [])
    assert empty.n == 0 and empty.blocks == ()
    assert multiply(empty, empty) == (empty, 0)


@given(diagrams())
def test_format_parse_round_trip(a: DiagramPartition):
    assert parse_diagram(format_diagram(a)) == a


def test_parse_is_whitespace_tolerant():
    assert parse_diagram(" 1 , 4 | 2,3, 4' ,5'|5,6|1',3',6'| 2' ") == ALPHA


def test_parse_rejects_non_ascii_digits():
    for text in ("\u0661,1'", "1,\u0661'", "\uff11,1'"):  # Arabic-Indic one, fullwidth one
        with pytest.raises(DomainError):
            parse_diagram(text)


def test_parse_empty_gives_empty_diagram():
    assert parse_diagram("") == identity(0)


# digits, separators, ASCII and other whitespace, primes, and characters a
# looser grammar would take for digits or signs
FUZZ_CHARS = "0123456789'',,|  \t\n\x0b\x1c\xa0\u0661\uff11\xb2_+-"


def _fuzz_text(rng: random.Random) -> str:
    """Random characters, or the text of a random diagram with a few edits."""
    if rng.random() < 0.4:
        return "".join(rng.choice(FUZZ_CHARS) for _ in range(rng.randrange(12)))
    n = rng.randrange(5)
    raw = [rng.randrange(2 * n + 1) for _ in range(2 * n)]
    text = list(format_diagram(_diagram_from_raw(n, raw)))
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(text) + 1)
        text[at : at + rng.randrange(2)] = rng.choice(FUZZ_CHARS) * rng.randrange(2)
    return "".join(text)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def test_parse_matches_the_regex_grammar():
    rng = random.Random(9)
    for _ in range(20_000):
        text = _fuzz_text(rng)
        assert _outcome(parse_diagram, text) == _outcome(naive_parse, text), repr(text)



@settings(max_examples=60)
@given(diagrams(min_n=9, max_n=13))
def test_format_parse_round_trip_with_multi_digit_labels(a: DiagramPartition):
    assert parse_diagram(format_diagram(a)) == a


def test_format_empty_diagram():
    assert format_diagram(identity(0)) == ""


# tokens a canonical reader must not take for the label it resembles
NEAR_LABELS = ("01", "0", "010'", "10 '", "010", "0'", " 11", "1 0", "10''", "+10", "1_0", "1\u0661")


def _multi_digit_text(rng: random.Random) -> str:
    """The text of a random diagram on 9..13 strands, whose points include
    labels of two digits, with a few of its points replaced, repeated,
    dropped or pushed past n."""
    n = rng.randrange(9, 14)
    raw = [rng.randrange(2 * n + 1) for _ in range(2 * n)]
    blocks = [blk.split(",") for blk in format_diagram(_diagram_from_raw(n, raw)).split("|")]
    for _ in range(rng.randrange(3)):
        blk = rng.choice(blocks)
        at = rng.randrange(len(blk))
        edit = rng.randrange(5)
        if edit == 0:
            blk[at] = rng.choice(NEAR_LABELS)
        elif edit == 1:
            blk[at] = "0" + blk[at]
        elif edit == 2:
            rng.choice(blocks).append(blk[at])
        elif edit == 3 and len(blk) > 1:
            del blk[at]
        else:
            blk[at] = str(rng.randrange(n + 1, 100)) + rng.choice(("", "'"))
    return "|".join(",".join(blk) for blk in blocks)


def test_parse_matches_the_regex_grammar_on_multi_digit_labels():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(3_000):
        text = _multi_digit_text(rng)
        outcome = _outcome(parse_diagram, text)
        assert outcome == _outcome(naive_parse, text), repr(text)
        outcomes.add(outcome[0] if isinstance(outcome, tuple) else DiagramPartition)
    # the edits reach every outcome: a diagram, a bad point, a repeat, a gap
    assert outcomes == {DiagramPartition, DomainError, OverlapError, CoverageError}


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "1|" + "2" * 5000 + "'", "1|" + "2" * 5000 + " '"],
    ids=["upper", "lower", "lower-after-a-space"],
)
def test_parse_label_past_the_int_digit_limit_is_a_domain_error(text):
    # int() refuses more than 4300 digits; the point grammar reads the
    # label as a bad point like any other
    token = text.split("|")[-1]
    for parse in (parse_diagram, naive_parse):
        with pytest.raises(DomainError, match=f"^cannot parse point {re.escape(repr(token))}$"):
            parse(text)


def test_parse_huge_label_reports_the_gap_without_allocating_for_n():
    started = time.perf_counter()
    for text in ("1|3000000000000'", "1|300000000'"):
        with pytest.raises(CoverageError, match="^vertex 1 is in no block$"):
            parse_diagram(text)
    with pytest.raises(OverlapError, match="^vertex 0 appears more than once$"):
        parse_diagram("1,1|3000000000000'")
    with pytest.raises(CoverageError, match="^vertex 2 is in no block$"):
        make_partition(10**12, [[0, 1], [5]])
    assert time.perf_counter() - started < 0.2


# a B6 text: parsing it grows the token table to the labels 1..6
B6_TEXT = format_diagram(next(enumerate_elements(MonoidFamily.B, 6)))


@pytest.mark.parametrize("text, outcome", [
    ("2|1", CoverageError),  # labels in the table, but past n = 1
    ("2|2'", CoverageError),
    ("1|1", OverlapError),  # 2n tokens, one repeated
    ("1|1'|2", CoverageError),  # an odd token count
    ("01|1'", make_partition(1, [[0], [1]])),  # tokens outside the table
    ("1 |1'", make_partition(1, [[0], [1]])),
    ("", identity(0)),
    (" ", identity(0)),
    ("1|3000000000000'", CoverageError),
], ids=["upper-past-n", "lower-past-n", "repeat", "odd", "leading-zero", "space", "empty", "blank", "huge"])
def test_parse_after_the_table_grew_matches_the_regex_grammar(monkeypatch, text, outcome):
    monkeypatch.setattr(core, "_TOKENS", {})
    assert parse_diagram(B6_TEXT) == naive_parse(B6_TEXT)
    got = _outcome(parse_diagram, text)
    assert got == _outcome(naive_parse, text)
    assert (got if isinstance(got, DiagramPartition) else got[0]) == outcome
    # sized by the largest text parsed, B6's 12 tokens, never by a label
    assert core._TOKENS == {**{str(k): k for k in range(1, 7)}, **{f"{k}'": -k for k in range(1, 7)}}


def test_parse_of_a_malformed_text_leaves_the_token_table_as_it_was():
    # 20,000 tokens that name no diagram grow no table of 10,000 labels
    size = len(core._TOKENS)
    with pytest.raises(OverlapError, match="^vertex 0 appears more than once$"):
        parse_diagram(",".join(["1"] * 20_000))
    assert len(core._TOKENS) == size


@settings(max_examples=60)
@given(st.lists(diagrams(min_n=1, max_n=12), min_size=2, max_size=8))
def test_format_parse_round_trip_interleaving_every_n(batch: list[DiagramPartition]):
    for a in batch:
        assert parse_diagram(format_diagram(a)) == a

# --------------------------------------------------------------------------
# multiplication

def test_multiply_running_example():
    product, m = multiply(ALPHA, BETA)
    assert product == parse_diagram("1,4|2,3,3',4',5',6'|5,6|1'|2'")
    assert m == 1


def test_multiply_identity_is_neutral(all_p3):
    e = identity(3)
    for x in all_p3[::7]:
        assert multiply(e, x) == (x, 0)
        assert multiply(x, e) == (x, 0)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(identity(2), identity(3))


def test_multiply_agrees_with_search_on_b3(all_b3):
    for a, b in itertools.product(all_b3, all_b3):
        assert multiply(a, b) == naive_multiply(a, b)


@settings(max_examples=150)
@given(diagram_pairs())
def test_multiply_agrees_with_search(pair):
    a, b = pair
    assert multiply(a, b) == naive_multiply(a, b)


def test_associativity_and_m_additivity_exhaustive_b3(all_b3):
    for a, b, c in itertools.product(all_b3, repeat=3):
        ab, m_ab = multiply(a, b)
        bc, m_bc = multiply(b, c)
        left, m_left = multiply(ab, c)
        right, m_right = multiply(a, bc)
        assert left == right
        assert m_ab + m_left == m_right + m_bc


def test_m_additivity_random_p4():
    rng = random.Random(7)
    pool = [_random_diagram(rng, 4) for _ in range(60)]
    for _ in range(2000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab, m_ab = multiply(a, b)
        bc, m_bc = multiply(b, c)
        _, m_left = multiply(ab, c)
        _, m_right = multiply(a, bc)
        assert m_ab + m_left == m_right + m_bc


def _random_diagram(rng: random.Random, n: int) -> DiagramPartition:
    blocks: list[list[int]] = []
    for v in range(2 * n):
        if blocks and rng.random() < 0.7:
            rng.choice(blocks).append(v)
        else:
            blocks.append([v])
    return DiagramPartition(n, tuple(tuple(sorted(b)) for b in sorted(blocks)))


@settings(max_examples=100)
@given(diagram_pairs(max_n=5))
def test_m_is_bounded_by_n(pair):
    a, b = pair
    _, m = multiply(a, b)
    assert 0 <= m <= a.n


def test_middle_row_components_match_kernel_join(all_pb3):
    # connectivity inside the glued row is the join of a's lower and b's
    # upper kernels, here recomputed with the naive component search
    for a, b in itertools.product(all_pb3[::5], all_pb3[::5]):
        lower = profile(a).lower_kernel.classes
        upper = profile(b).upper_kernel.classes
        expected = naive_join(3, lower, upper)
        edges = []
        for blk in lower:
            edges.extend((blk[0], v) for v in blk[1:])
        for blk in upper:
            edges.extend((blk[0], v) for v in blk[1:])
        got = tuple(
            sorted(tuple(sorted(c)) for c in bfs_components(list(range(1, 4)), edges))
        )
        assert got == expected


# --------------------------------------------------------------------------
# profiles and kernels

def test_profile_running_example():
    prof = profile(ALPHA)
    assert prof.rank == 1
    assert prof.upper_domain == {2, 3}
    assert prof.lower_domain == {4, 5}
    assert prof.upper_kernel.classes == ((1, 4), (2, 3), (5, 6))
    assert prof.lower_kernel.classes == ((1, 3, 6), (2,), (4, 5))
    assert len(prof.kernel.classes) == 1


def test_profile_identity():
    prof = profile(identity(4))
    assert prof.rank == 4
    assert prof.upper_domain == prof.lower_domain == {1, 2, 3, 4}
    assert prof.upper_kernel.classes == prof.lower_kernel.classes == ((1,), (2,), (3,), (4,))


def test_profile_beta_kernel():
    # the block list of BETA forces these classes: 1~3 and 2~4 above,
    # 4~5~6 below, so 2,4,5,6 merge and 1,3 stay separate
    prof = profile(BETA)
    assert prof.kernel.classes == ((1, 3), (2, 4, 5, 6))


@given(diagrams())
def test_kernel_join_matches_naive(a: DiagramPartition):
    prof = profile(a)
    assert prof.kernel.classes == naive_join(
        a.n, prof.upper_kernel.classes, prof.lower_kernel.classes
    )


def test_profile_kernel_joins_upper_and_lower_kernels():
    # a rank-0 diagram is just its two kernels, so its kernel is their join
    prof = profile(parse_diagram("1,2|3|4|2',3'|1'|4'"))
    assert prof.upper_kernel.classes == ((1, 2), (3,), (4,))
    assert prof.lower_kernel.classes == ((1,), (2, 3), (4,))
    assert prof.kernel.classes == ((1, 2, 3), (4,))


# --------------------------------------------------------------------------
# decomposition

def test_decompose_irreducible_alpha():
    pieces = decompose_irreducible(ALPHA)
    assert pieces == [((1, 2, 3, 4, 5, 6), ALPHA)]


def test_decompose_beta_fails():
    with pytest.raises(NotDecomposableError, match=re.escape("block {2,4,3'} straddles kernel")):
        decompose_irreducible(BETA)
    with pytest.raises(NotDecomposableError, match="^block {1,2'} straddles kernel classes$"):
        decompose_irreducible(parse_diagram("1,2'|2,1'"))


def test_decompose_rank0_brauer():
    a = make_partition(2, [{0, 1}, {2, 3}])
    assert decompose_irreducible(a) == [((1, 2), a)]


@pytest.mark.parametrize("fam, n", [(MonoidFamily.P, 3), (MonoidFamily.PB, 4)])
def test_decompose_classes_are_the_profile_kernel(fam, n):
    decomposed = 0
    for a in enumerate_elements(fam, n):
        try:
            pieces = decompose_irreducible(a)
        except NotDecomposableError:
            continue
        decomposed += 1
        assert tuple(cls for cls, _ in pieces) == profile(a).kernel.classes, a
    assert decomposed


def test_decompose_reassembles(all_pb3):
    for a in all_pb3:
        try:
            pieces = decompose_irreducible(a)
        except NotDecomposableError:
            continue
        rebuilt = []
        for cls, piece in pieces:
            m = piece.n
            for blk in piece.blocks:
                rebuilt.append(
                    tuple(
                        sorted(
                            cls[v] - 1 if v < m else cls[v - m] - 1 + a.n for v in blk
                        )
                    )
                )
        assert tuple(sorted(rebuilt)) == a.blocks


# --------------------------------------------------------------------------
# families

def test_family_check_identity_everywhere():
    e = identity(2)
    for fam in MonoidFamily:
        assert family_check(e, fam)


def test_family_check_rank0_brauer_element():
    a = parse_diagram("1,2|1',2'")
    answers = {
        MonoidFamily.P: True,
        MonoidFamily.B: True,
        MonoidFamily.PB: True,
        MonoidFamily.T: False,
        MonoidFamily.I: False,
        MonoidFamily.IDUAL: False,
    }
    for fam, expected in answers.items():
        assert family_check(a, fam) == expected


def test_family_check_single_point_gap():
    a = parse_diagram("1|1'")
    answers = {
        MonoidFamily.P: True,
        MonoidFamily.B: False,
        MonoidFamily.PB: True,
        MonoidFamily.T: False,
        MonoidFamily.I: True,
        MonoidFamily.IDUAL: False,
    }
    for fam, expected in answers.items():
        assert family_check(a, fam) == expected


def test_family_sizes_at_n2():
    everything = [
        DiagramPartition(2, p) for p in set_partitions((0, 1, 2, 3))
    ]
    sizes = {
        fam: sum(1 for a in everything if family_check(a, fam))
        for fam in MonoidFamily
    }
    assert sizes[MonoidFamily.P] == 15
    assert sizes[MonoidFamily.B] == 3
    assert sizes[MonoidFamily.PB] == 10
    assert sizes[MonoidFamily.T] == 4
    assert sizes[MonoidFamily.I] == 7
    assert sizes[MonoidFamily.IDUAL] == 3


@pytest.mark.parametrize("fam", list(MonoidFamily))
def test_family_check_accepts_family_names(fam):
    for blocks in set_partitions((0, 1, 2, 3)):
        a = DiagramPartition(2, blocks)
        assert family_check(a, fam.value) == family_check(a, fam), (a, fam)


# --------------------------------------------------------------------------
# lambda graphs

def test_lambda_graph_identity_is_empty():
    g = lambda_graph(identity(3))
    assert g.red_edges == g.blue_edges == ()
    assert g.red_loops == g.blue_loops == ()


def test_lambda_graph_loops_and_edge():
    g = lambda_graph(parse_diagram("1|2|1',2'"))
    assert g.red_loops == (1, 2)
    assert g.blue_edges == ((1, 2),)
    assert g.red_edges == () and g.blue_loops == ()


def test_lambda_graph_rejects_big_blocks():
    with pytest.raises(NotPartialBrauerError):
        lambda_graph(parse_diagram("1,2,3|1'|2'|3'"))


def test_lambda_upper_half_is_r_signature(all_pb3):
    # two partial Brauer elements share (upper domain, upper kernel) exactly
    # when the red (upper-row) halves of their graphs coincide
    for a, b in itertools.combinations(all_pb3, 2):
        pa, pb = profile(a), profile(b)
        ga, gb = lambda_graph(a), lambda_graph(b)
        same_sig = (pa.upper_domain, pa.upper_kernel) == (pb.upper_domain, pb.upper_kernel)
        same_half = (ga.red_edges, ga.red_loops) == (gb.red_edges, gb.red_loops)
        assert same_sig == same_half

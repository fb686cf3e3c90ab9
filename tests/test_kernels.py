"""The per-element kernels against the naive references, exhaustively on
small monoids: the product, its label-form kernel and the Green check's
product table, glued once per upper row, the profile, the
Green keys, the direct, structural and twisted idempotency tests and the
embedded families' membership; the kernel join, the two-colored graph and
the sweep's R-class key against the earlier algorithms they replaced."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from diagmon.core import (
    DiagramPartition,
    MonoidFamily,
    _glue,
    _kernel_classes,
    _labels,
    family_check,
    lambda_graph,
    make_partition,
    multiply,
    profile,
)
from diagmon.errors import NotPartialBrauerError
from diagmon.idempotency import (
    _kernel_excess,
    is_idempotent_direct,
    is_idempotent_structural,
    is_twisted_idempotent,
)
from diagmon.oracle import _graph_rank, _r_key, brute_report, enumerate_elements, green_signature
from diagmon.verify import _product_table

from .oracles import (
    naive_family_check,
    naive_green_signature,
    naive_is_idempotent,
    naive_is_twisted_idempotent,
    naive_multiply,
    naive_profile,
    naive_rgs,
    reference_brute_report,
    reference_kernel_classes,
    reference_kernel_excess,
    reference_lambda_graph,
)

MONOIDS = [
    (MonoidFamily.P, 0),
    (MonoidFamily.P, 1),
    (MonoidFamily.P, 3),
    (MonoidFamily.PB, 3),
    (MonoidFamily.B, 4),
]


@pytest.fixture(scope="module", params=MONOIDS, ids=lambda m: f"{m[0].value}{m[1]}")
def elements(request):
    return list(enumerate_elements(*request.param))


def test_multiply_matches_search_on_every_pair_of_pb3(all_pb3):
    for a, b in itertools.product(all_pb3, repeat=2):
        assert multiply(a, b) == naive_multiply(a, b), (a, b)


def _glued(a: DiagramPartition, b: DiagramPartition) -> tuple[list[int], int]:
    return _glue(a.n, _labels(a), len(a.blocks), _labels(b), len(b.blocks))


def _searched(a: DiagramPartition, b: DiagramPartition) -> tuple[list[int], int]:
    product, swallowed = naive_multiply(a, b)
    return naive_rgs(product), swallowed


@pytest.mark.parametrize("fam, n", [(MonoidFamily.P, 2), (MonoidFamily.B, 3)], ids=["P2", "B3"])
def test_glue_matches_search_on_every_pair(fam, n):
    elements = list(enumerate_elements(fam, n))
    for a, b in itertools.product(elements, repeat=2):
        assert _glued(a, b) == _searched(a, b), (a, b)


@pytest.mark.parametrize("fam, n", [(MonoidFamily.P, 4), (MonoidFamily.PB, 4)], ids=["P4", "PB4"])
def test_glue_matches_search_on_seeded_pairs(fam, n):
    elements = list(enumerate_elements(fam, n))
    rng = random.Random(f"glue {fam.value}{n}")
    for _ in range(2000):
        a, b = rng.choice(elements), rng.choice(elements)
        assert _glued(a, b) == _searched(a, b), (a, b)


def test_glue_on_no_strands():
    empty = DiagramPartition(0, ())
    assert _labels(empty) == naive_rgs(empty) == []
    assert _glued(empty, empty) == _searched(empty, empty) == ([], 0)


def _glued_table(elements: list[DiagramPartition]) -> list[list[int | None]]:
    """The product table glued cell by cell: each a·x by _glue, looked up
    among the elements by its restricted growth string."""
    index = {tuple(_labels(x)): j for j, x in enumerate(elements)}
    return [[index.get(tuple(_glued(a, x)[0])) for x in elements] for a in elements]


TABLE_MONOIDS = [
    (MonoidFamily.P, 0),  # the one upper row is empty: its group key is ()
    (MonoidFamily.P, 1),
    (MonoidFamily.P, 2),
    (MonoidFamily.P, 3),
    (MonoidFamily.PB, 3),
    (MonoidFamily.B, 4),
]


@pytest.mark.parametrize("fam, n", TABLE_MONOIDS, ids=lambda x: getattr(x, "value", x))
def test_product_table_matches_a_table_glued_cell_by_cell(fam, n):
    elements = list(enumerate_elements(fam, n))
    table = _product_table(n, elements)
    assert table == _glued_table(elements)
    assert None not in itertools.chain.from_iterable(table)


@pytest.mark.parametrize("fam, n", [(MonoidFamily.P, 4), (MonoidFamily.PB, 4)], ids=["P4", "PB4"])
def test_product_table_matches_search_on_seeded_elements(fam, n):
    # 60 elements share few upper rows, so most groups hold several bottoms
    rng = random.Random(f"product table {fam.value}{n}")
    elements = rng.sample(list(enumerate_elements(fam, n)), 60)
    index = {tuple(naive_rgs(x)): j for j, x in enumerate(elements)}
    table = _product_table(n, elements)
    assert len({tuple(_labels(x)[:n]) for x in elements}) < 30
    for a, row in zip(elements, table):
        for x, cell in zip(elements, row):
            assert cell == index.get(tuple(naive_rgs(naive_multiply(a, x)[0]))), (a, x)


def test_product_table_on_a_subset_keeps_its_missing_products(all_b3):
    subset = all_b3[::2]
    table = _product_table(3, subset)
    assert table == _glued_table(subset)
    assert 0 < sum(row.count(None) for row in table) < len(subset) ** 2


def test_labels_are_the_restricted_growth_string(elements):
    for a in elements:
        assert _labels(a) == naive_rgs(a), a


def test_direct_test_matches_squaring_on_p3(all_p3):
    for a in all_p3:
        assert is_idempotent_direct(a) == naive_is_idempotent(a), a


def test_profile_matches_naive(elements):
    for a in elements:
        assert profile(a) == naive_profile(a), a


def test_green_signature_matches_naive(elements):
    for a in elements:
        for side in "RLHD":
            assert green_signature(a, side) == naive_green_signature(a, side), (a, side)


def test_structural_test_matches_squaring(elements):
    for a in elements:
        assert is_idempotent_structural(a) == naive_is_idempotent(a), a


def test_twisted_test_matches_squaring(elements):
    for a in elements:
        for order in range(4):
            assert is_twisted_idempotent(a, order) == naive_is_twisted_idempotent(a, order), (a, order)


def test_embedded_family_check_matches_naive(elements):
    for a in elements:
        for fam in (MonoidFamily.T, MonoidFamily.I, MonoidFamily.IDUAL):
            assert family_check(a, fam) == naive_family_check(a, fam), (a, fam)


def _assert_join_matches_reference(a: DiagramPartition) -> None:
    assert _kernel_excess(a) == reference_kernel_excess(a), a
    assert list(_kernel_classes(a.blocks, a.n).values()) == reference_kernel_classes(a), a


@pytest.mark.parametrize(
    "fam, n",
    [
        (MonoidFamily.P, 4),
        (MonoidFamily.B, 6),
        (MonoidFamily.PB, 5),
        (MonoidFamily.T, 4),
        (MonoidFamily.I, 4),
        (MonoidFamily.IDUAL, 4),
    ],
    ids=lambda x: getattr(x, "value", x),
)
def test_kernel_join_matches_the_halves_join_on_every_element(fam, n):
    for a in enumerate_elements(fam, n):
        _assert_join_matches_reference(a)


def _flip(a: DiagramPartition) -> DiagramPartition:
    """The diagram turned upside down, its upper and lower rows swapped."""
    n = a.n
    return make_partition(n, ([(v + n) % (2 * n) for v in blk] for blk in a.blocks))


def test_kernel_join_matches_the_halves_join_on_seeded_diagrams():
    """2,000 diagrams of P_n, n <= 40: every other one a random partition of
    the 2n points, and the rest the projections flip(a)·a, all idempotent,
    so that both the refusals and the excesses are compared."""
    rng = random.Random("kernel join")
    excesses = refusals = 0
    for i in range(2000):
        n = rng.randint(0, 40)
        groups: dict[int, list[int]] = {}
        k = rng.randint(1, max(1, 2 * n))
        for v in range(2 * n):
            groups.setdefault(rng.randrange(k), []).append(v)
        a = make_partition(n, groups.values())
        if i % 2:
            a = multiply(_flip(a), a)[0]
        _assert_join_matches_reference(a)
        if _kernel_excess(a) is None:
            refusals += 1
        else:
            excesses += 1
    assert excesses > 1000 and refusals > 500


@pytest.mark.parametrize("fam", [MonoidFamily.B, MonoidFamily.PB], ids=lambda f: f"{f.value}4")
def test_lambda_graph_matches_the_halves_reading_on_every_element(fam):
    for a in enumerate_elements(fam, 4):
        assert lambda_graph(a) == reference_lambda_graph(a), a


def test_lambda_graph_refuses_what_the_halves_reading_refuses(all_p3):
    refused = 0
    for a in all_p3:
        try:
            expected = reference_lambda_graph(a)
        except NotPartialBrauerError as err:
            with pytest.raises(NotPartialBrauerError, match=re.escape(str(err))):
                lambda_graph(a)
            refused += 1
        else:
            assert lambda_graph(a) == expected, a
    assert 0 < refused < len(all_p3)


@pytest.mark.parametrize(
    "fam, n", [(MonoidFamily.B, 5), (MonoidFamily.PB, 4)], ids=lambda x: getattr(x, "value", x)
)
def test_graph_rank_is_the_rank_of_every_idempotent(fam, n):
    idempotents = [a for a in enumerate_elements(fam, n) if is_idempotent_direct(a)]
    assert idempotents
    for a in idempotents:
        assert _graph_rank(a) == profile(a).rank, a


R_KEY_MONOIDS = [(MonoidFamily.P, 3), (MonoidFamily.P, 4), (MonoidFamily.B, 5), (MonoidFamily.PB, 4)]


@pytest.mark.parametrize("fam, n", R_KEY_MONOIDS, ids=lambda x: getattr(x, "value", x))
def test_r_key_groups_elements_as_green_signature_does(fam, n):
    by_key: dict[tuple, int] = {}
    by_signature: dict[tuple, int] = {}
    for i, a in enumerate(enumerate_elements(fam, n)):
        # each element labelled by the first element sharing its key
        assert by_key.setdefault(_r_key(a), i) == by_signature.setdefault(green_signature(a, "R"), i), a


def test_r_key_marks_each_transversal_with_no_point_label(all_p3):
    # a mark equal to a label, as True is to 1, could make a marked part
    # read as a longer unmarked one
    for a in all_p3:
        key = _r_key(a)
        marks = [x for x in key if not isinstance(x, tuple)]
        assert len(marks) == profile(a).rank, a
        assert not any(mark == v for mark in marks for v in range(2 * a.n)), a


@pytest.mark.parametrize("M", [None, 0, 2])
@pytest.mark.parametrize("fam, n", R_KEY_MONOIDS, ids=lambda x: getattr(x, "value", x))
def test_brute_report_matches_one_signature_per_element(fam, n, M):
    report, reference = brute_report(fam, n, M), reference_brute_report(fam, n, M)
    for f in dataclasses.fields(report):
        if f.name != "elapsed_seconds":
            assert getattr(report, f.name) == getattr(reference, f.name), f.name
    # the per-class tallies come out in the order their classes were found
    for name in ("r_class_counts", "r_class_twisted", "r_class_params"):
        assert list(getattr(report, name)) == list(getattr(reference, name)), name

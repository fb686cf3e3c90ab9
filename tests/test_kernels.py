"""The per-element kernels against the naive references, exhaustively on
small monoids: the product and its label-form kernel, the profile, the
Green keys, the direct, structural and twisted idempotency tests and the
embedded families' membership."""

from __future__ import annotations

import itertools
import random

import pytest

from diagmon.core import DiagramPartition, MonoidFamily, _glue, _labels, family_check, multiply, profile
from diagmon.idempotency import is_idempotent_direct, is_idempotent_structural, is_twisted_idempotent
from diagmon.oracle import enumerate_elements, green_signature

from .oracles import (
    naive_family_check,
    naive_green_signature,
    naive_is_idempotent,
    naive_is_twisted_idempotent,
    naive_multiply,
    naive_profile,
    naive_rgs,
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

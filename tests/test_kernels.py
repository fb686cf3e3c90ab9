"""The per-element kernels against the naive references, exhaustively on
small monoids: the product, the profile, the Green keys, the structural
and twisted idempotency tests and the embedded families' membership."""

from __future__ import annotations

import itertools

import pytest

from diagmon.core import MonoidFamily, family_check, multiply, profile
from diagmon.idempotency import is_idempotent_structural, is_twisted_idempotent
from diagmon.oracle import enumerate_elements, green_signature

from .oracles import (
    naive_family_check,
    naive_green_signature,
    naive_is_idempotent,
    naive_is_twisted_idempotent,
    naive_multiply,
    naive_profile,
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

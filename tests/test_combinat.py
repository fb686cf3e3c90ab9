from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagmon import combinat
from diagmon.combinat import (
    IntegerPartitionSpec,
    bell,
    binomial,
    e_nrs,
    integer_partitions,
    involutions,
    odd_double_factorial,
    pi_count,
    stirling2,
)
from diagmon.errors import DomainError

from .oracles import naive_e_nrs, naive_involutions, naive_stirling2, reference_e_pairs, set_partitions


def test_integer_partition_counts():
    expected = {0: 1, 1: 1, 2: 2, 5: 7, 10: 42}
    for n, count in expected.items():
        assert sum(1 for _ in integer_partitions(n)) == count


def test_integer_partitions_order_n4():
    got = [spec.parts for spec in integer_partitions(4)]
    assert got == [(0, 0, 0, 1), (1, 0, 1), (0, 2), (2, 1), (4,)]


def test_integer_partitions_negative():
    with pytest.raises(DomainError):
        list(integer_partitions(-1))


def test_partition_spec_accessors():
    spec = IntegerPartitionSpec((2, 1))
    assert spec.n == 4
    assert spec.multiplicity(1) == 2
    assert spec.multiplicity(2) == 1
    assert spec.multiplicity(9) == 0


@pytest.mark.parametrize("n", range(41))
def test_pi_count_sums_to_bell(n: int):
    assert sum(pi_count(spec) for spec in integer_partitions(n)) == bell(n)


@pytest.mark.parametrize("n", range(10))
def test_pi_count_matches_the_set_partition_tally(n: int):
    # the block-size type of every set partition, tallied as a multiplicity
    # vector, against pi_count of each integer partition
    tally: Counter[tuple[int, ...]] = Counter()
    for blocks in set_partitions(tuple(range(n))):
        sizes = Counter(map(len, blocks))
        tally[tuple(sizes[i] for i in range(1, max(sizes, default=0) + 1))] += 1
    assert tally == {spec.parts: pi_count(spec) for spec in integer_partitions(n)}


def test_pi_count_example():
    # partitions of {1..4} into two pairs: 3 of them
    assert pi_count(IntegerPartitionSpec((0, 2))) == 3


def test_stirling2_matches_search():
    for n in range(7):
        for r in range(n + 1):
            assert stirling2(n, r) == naive_stirling2(n, r)


def test_stirling2_edges():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 7) == 0
    with pytest.raises(DomainError):
        stirling2(-1, 0)


def test_bell_values():
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_bell_is_the_stirling_row_sum():
    # the Bell triangle against the sum of the Stirling triangle's row
    for n in range(101):
        assert bell(n) == sum(stirling2(n, r) for r in range(n + 1)), n


def test_cold_bell_grows_no_stirling_number(monkeypatch):
    expected = sum(stirling2(250, r) for r in range(251))
    monkeypatch.setattr(combinat, "_STIRLING2", [])
    monkeypatch.setattr(combinat, "_BELL", [1])
    monkeypatch.setattr(combinat, "_BELL_ROW", [1])
    assert bell(250) == expected and bell(17) == 82864869804
    assert combinat._STIRLING2 == [] and len(combinat._BELL) == 251 and len(combinat._BELL_ROW) == 251


def test_odd_double_factorial():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(5) == 15
    assert odd_double_factorial(9) == 945
    for bad in (0, 2, -3):
        with pytest.raises(DomainError):
            odd_double_factorial(bad)


def test_involutions_matches_search():
    for n in range(7):
        assert involutions(n) == naive_involutions(n)
    with pytest.raises(DomainError):
        involutions(-2)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(4, -2)


@given(st.integers(0, 12))
def test_stirling_row_sums(n: int):
    assert sum(stirling2(n, r) for r in range(n + 1)) == bell(n)


# --------------------------------------------------------------------------
# join-universal pair counts

def test_e_nrs_frozen_values():
    assert e_nrs(3, 2, 2) == 6
    assert e_nrs(1, 1, 1) == 1
    assert e_nrs(2, 1, 2) == 1
    assert e_nrs(4, 1, 1) == 1


def test_e_nrs_row_aggregates_n3():
    pairs = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    assert sum(e_nrs(3, r, s) for r, s in pairs) == 15
    assert sum(r * s * e_nrs(3, r, s) for r, s in pairs) == 43


def test_e_nrs_matches_search():
    for n in range(1, 5):
        table = naive_e_nrs(n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                assert e_nrs(n, r, s) == table.get((r, s), 0)


def test_e_nrs_rows_match_the_term_by_term_recurrence():
    # the packed, paired convolution against the same recurrence summed
    # one product of two cells at a time
    e_nrs(24, 1, 1)
    for n, row in enumerate(reference_e_pairs(24)):
        assert combinat._E_PAIRS[n] == row, n


def test_e_nrs_vanishes_beyond_a_tree_and_is_bounded_by_its_block_counts():
    # the two facts the packing rests on: a connected bipartite multigraph
    # on r + s blocks needs r + s - 1 of the n points as edges, and a pair
    # is one upper and one lower partition
    for n in range(1, 31):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                if r + s > n + 1:
                    assert e_nrs(n, r, s) == 0, (n, r, s)
                else:
                    assert 0 < e_nrs(n, r, s) <= stirling2(n, r) * stirling2(n, s), (n, r, s)


def test_e_nrs_domain():
    for bad in ((3, 0, 1), (3, 1, 4), (0, 1, 1), (3, 4, 1)):
        with pytest.raises(DomainError):
            e_nrs(*bad)

from __future__ import annotations

import itertools
import subprocess
import sys
import textwrap

import pytest

from diagmon import idempotency, oracle
from diagmon.combinat import bell, binomial, involutions, odd_double_factorial
from diagmon.core import DiagramPartition, MonoidFamily, make_partition, multiply
from diagmon.errors import DomainError, TooLargeError
from diagmon.oracle import (
    brute_report,
    enumerate_elements,
    green_signature,
    predicted_element_count,
)

from .oracles import set_partitions

P, B, PB = MonoidFamily.P, MonoidFamily.B, MonoidFamily.PB


def test_stream_sizes():
    for n in range(4):
        assert len(list(enumerate_elements(P, n))) == bell(2 * n)
    for n in range(5):
        assert len(list(enumerate_elements(B, n))) == odd_double_factorial(2 * n - 1)
    for n in range(4):
        assert len(list(enumerate_elements(PB, n))) == involutions(2 * n)


def test_predicted_matches_stream():
    for fam in MonoidFamily:
        for n in range(3):
            full = bell(2 * n)
            got = predicted_element_count(fam, n)
            if fam is B:
                assert got == odd_double_factorial(2 * n - 1)
            elif fam is PB:
                assert got == involutions(2 * n)
            else:
                assert got == full


def test_partial_brauer_size_by_defect():
    # partial matchings of 4 points grouped by number of matched pairs
    by_pairs = sum(binomial(4, 2 * k) * odd_double_factorial(2 * k - 1) for k in (0, 1, 2))
    assert by_pairs == 10
    assert len(list(enumerate_elements(PB, 2))) == 10


def test_elements_are_unique_and_canonical():
    seen = list(enumerate_elements(PB, 3))
    assert len(seen) == len(set(seen))
    for a in seen:
        assert make_partition(a.n, a.blocks) == a


def test_p2_matches_naive_partitions():
    got = {a.blocks for a in enumerate_elements(P, 2)}
    want = set(set_partitions((0, 1, 2, 3)))
    assert got == want


def test_filtered_families():
    assert len(list(enumerate_elements(MonoidFamily.T, 2))) == 4
    assert len(list(enumerate_elements(MonoidFamily.I, 2))) == 7
    assert len(list(enumerate_elements(MonoidFamily.IDUAL, 2))) == 3


def test_cap_refuses_before_streaming():
    with pytest.raises(TooLargeError):
        enumerate_elements(P, 5, cap=100)
    # the guard must fire at call time, not first iteration
    gen_or_error = None
    try:
        gen_or_error = enumerate_elements(B, 6, cap=10)
    except TooLargeError:
        gen_or_error = None
    assert gen_or_error is None


def test_enumerate_guards():
    with pytest.raises(DomainError):
        enumerate_elements("Q", 2)
    with pytest.raises(DomainError):
        enumerate_elements(B, -1)


_DEEP_STREAMS = textwrap.dedent(
    """
    import sys
    from itertools import islice

    from diagmon.oracle import enumerate_elements, set_partition_blocks

    sys.setrecursionlimit(120)
    b = [a.blocks for a in islice(enumerate_elements("B", 600, cap=10**4000), 3)]
    assert b[0] == tuple((i, i + 1) for i in range(0, 1200, 2))
    assert b[1] == b[0][:-2] + ((1196, 1198), (1197, 1199))
    pb = [a.blocks for a in islice(enumerate_elements("PB", 600, cap=10**4000), 3)]
    assert pb[0] == tuple((i,) for i in range(1200))
    assert pb[1] == pb[0][:-2] + ((1198, 1199),)
    partitions = list(islice(set_partition_blocks(1200), 3))
    assert partitions[0] == (tuple(range(1200)),)
    assert partitions[2] == (tuple(range(1198)) + (1199,), (1198,))
    print("ok")
    """
)


def test_deep_streams_need_no_recursion():
    # the walkers keep their state in flat lists, so streams of 1200 points
    # start under a recursion limit far below their depth
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_STREAMS], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


# --------------------------------------------------------------------------
# Green signatures

def test_r_keys_at_rank1_in_b3(all_b3):
    keys = {
        green_signature(a)
        for a in all_b3
        if sum(1 for blk in a.blocks if blk[0] < 3 <= blk[-1]) == 1
    }
    assert len(keys) == 3


def test_green_sides(all_b3):
    for a, b in itertools.product(all_b3[:10], all_b3[:10]):
        same_r = green_signature(a, "R") == green_signature(b, "R")
        same_l = green_signature(a, "L") == green_signature(b, "L")
        same_h = green_signature(a, "H") == green_signature(b, "H")
        assert same_h == (same_r and same_l)
        if same_r or same_l:
            assert green_signature(a, "D") == green_signature(b, "D")
    with pytest.raises(DomainError):
        green_signature(all_b3[0], "J")


def test_signature_invariant_under_right_multiplication(all_b3):
    # R-related elements (same a*x orbit) share the R signature
    for a, b in itertools.product(all_b3[:8], all_b3[:8]):
        ab, _ = multiply(a, b)
        sig_a = green_signature(a)
        sig_ab = green_signature(ab)
        dom_a = sig_a[0] if isinstance(sig_a, tuple) else None
        dom_ab = sig_ab[0] if isinstance(sig_ab, tuple) else None
        assert len(dom_ab) <= len(dom_a)


# --------------------------------------------------------------------------
# the full census

def test_brute_report_b4():
    report = brute_report(B, 4)
    assert report.total_elements == 105
    assert report.idempotents_total == 40
    assert report.idempotents_by_rank == {0: 9, 2: 30, 4: 1}
    assert report.twist is None
    assert report.twisted_total == 0


def test_brute_report_rank2_classes_are_uniform():
    report = brute_report(B, 4)
    rank2 = {
        sig: count
        for sig, count in report.r_class_counts.items()
        if report.r_class_params[sig][0] == 2
    }
    assert len(rank2) == 6
    assert set(rank2.values()) == {5}


def test_brute_report_params_track_idle_points():
    report = brute_report(PB, 2)
    for sig, (rank, idle) in report.r_class_params.items():
        assert 0 <= rank <= 2
        assert 0 <= idle <= 2 - rank
    strata = {}
    for sig, count in report.r_class_counts.items():
        strata.setdefault(report.r_class_params[sig], []).append(count)
    # counts within one (rank, idle) stratum never differ
    for counts in strata.values():
        assert len(set(counts)) == 1


def test_brute_report_twisted_b3():
    report = brute_report(B, 3, M=0)
    assert report.twist == 0
    assert report.idempotents_total == 10
    assert report.twisted_total == 7
    assert sum(report.twisted_by_rank.values()) == 7


def test_brute_report_twisted_count_ignores_structural_shortcut(monkeypatch):
    # the structural test is what the oracle referees, so a broken one must
    # not move the twisted census, which is decided by squaring alone
    monkeypatch.setattr(idempotency, "is_idempotent_structural", lambda a: True)
    report = brute_report(B, 3, M=0)
    assert report.idempotents_total == 10
    assert report.twisted_total == 7


def test_brute_report_twisted_count_reads_the_square(monkeypatch):
    # the twisted census follows the swallowed count of the oracle's own
    # product: one more swallowed component leaves no idempotent of B3
    # twisted at order 0, while plain idempotency is unchanged
    honest = oracle.multiply

    def one_more(a, b):
        product, swallowed = honest(a, b)
        return product, swallowed + 1

    monkeypatch.setattr(oracle, "multiply", one_more)
    report = brute_report(B, 3, M=0)
    assert report.idempotents_total == 10
    assert report.twisted_total == 0
    # the twisted test it referees now disagrees on the seven it accepts
    assert [test for test, _ in report.structural_disagreements] == ["twisted"] * 7


def test_brute_report_twist_order_one_collapses():
    report = brute_report(P, 2, M=1)
    assert report.twisted_total == report.idempotents_total
    assert report.twisted_by_rank == report.idempotents_by_rank

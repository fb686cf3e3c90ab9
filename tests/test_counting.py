from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
import threading

import pytest

from diagmon import counting
from diagmon.combinat import bell, e_nrs, involutions, odd_double_factorial, stirling2
from diagmon.counting import (
    a_nr,
    a_nrt,
    b_nr,
    c_values,
    completely_regular_count,
    e_rank,
    e_total,
    exi_rank,
    exi_total,
    ideal_idempotent_count,
    rho,
)
from diagmon.core import MonoidFamily
from diagmon.errors import DomainError, ParityError
from diagmon.oracle import brute_report

from .oracles import reference_partition_grid

P, B, PB = MonoidFamily.P, MonoidFamily.B, MonoidFamily.PB
T, I, IDUAL = MonoidFamily.T, MonoidFamily.I, MonoidFamily.IDUAL

ALL_FAMILIES = (P, B, PB, T, I, IDUAL)

# names of counting._GRIDS: the one-row total grids of the first-piece
# recurrence, the holonomic grids, and the Z_M grids of both routes
ORDERS = ("order 0", "order 1")
HOLONOMIC = ("holonomic 0", "holonomic 1", "holonomic")
Z = ("Z", "holonomic Z")


def _kept(fam, *names):
    """The family's kept grids or rows under these names, by key: the name,
    or (name, M) for a grid of M rows."""
    grids = counting._TABLES[fam].grids
    return {key: grids[key] for key in grids if (key if isinstance(key, str) else key[0]) in names}


# --------------------------------------------------------------------------
# c-values

def test_c_values_examples():
    assert c_values(B, 3) == (0, 6, 6)
    assert c_values(PB, 2) == (3, 0, 3)
    assert c_values(P, 3) == (15, 43, 58)


def test_c_values_small_families():
    assert c_values(T, 3) == (0, 3, 3)
    assert c_values(I, 1) == (1, 1, 2)
    assert c_values(I, 3) == (0, 0, 0)
    assert c_values(IDUAL, 4) == (0, 1, 1)


def test_c_values_brauer_parity():
    assert c_values(B, 4) == (6, 0, 6)
    assert c_values(B, 5) == (0, 120, 120)
    assert c_values(PB, 4) == (30, 0, 30)
    assert c_values(PB, 5) == (120, 120, 240)


def test_c_values_accepts_names():
    assert c_values("B", 3) == c_values(B, 3)
    with pytest.raises(DomainError):
        c_values("Z", 3)
    with pytest.raises(DomainError):
        c_values(P, 0)


# --------------------------------------------------------------------------
# totals

def test_e_total_examples():
    assert e_total(B, 4, "formula") == 40
    assert e_total(PB, 5, "recurrence") == 1922
    assert e_total(P, 4, "formula") == 1512


def test_e_total_methods_agree():
    for fam in ALL_FAMILIES:
        for n in range(9):
            assert e_total(fam, n, "formula") == e_total(fam, n, "recurrence")


def test_e_total_edge_cases():
    for fam in ALL_FAMILIES:
        assert e_total(fam, 0) == 1
    assert e_total(P, 1) == 2
    assert e_total(I, 1) == 2
    assert e_total(B, 1) == 1
    assert e_total(T, 1) == 1
    assert e_total(IDUAL, 1) == 1
    with pytest.raises(DomainError):
        e_total(B, -1)
    with pytest.raises(DomainError):
        e_total(B, 3, "closed")


def test_e_total_b10():
    assert e_total(B, 10) == 21442816


def test_holonomic_and_closed_totals_match_the_recurrence():
    # each fast route against the first-piece recurrence, past the n where
    # a start value or an index off by one would show
    for fam, method in ((B, "holonomic"), (PB, "holonomic"), (T, "closed"), (I, "closed")):
        for n in range(61):
            assert e_total(fam, n, method) == e_total(fam, n, "recurrence"), (fam, n)
    # and at every twist order, where row i of order M's marked grid reads
    # row i - 1 and row 0 wraps to row M - 1; the first-piece grid of M
    # residue rows and the formula referee it
    for fam in (B, PB):
        for order in range(8):
            for n in range(41):
                holonomic = exi_total(fam, n, order, "holonomic")
                assert holonomic == exi_total(fam, n, order, "recurrence"), (fam, n, order)
                assert exi_total(fam, n, order) == holonomic, (fam, n, order)
                if n <= 20:
                    assert holonomic == exi_total(fam, n, order, "formula"), (fam, n, order)


def test_a_holonomic_order_above_n_grows_no_grid_of_its_own(monkeypatch):
    # q <= n rank-0 pieces, so order M > n answers from order 0's grid
    _fresh_tables(monkeypatch)
    assert exi_total(B, 10, 10**6) == exi_total(B, 10, 10**6, "formula") == 12202561
    assert exi_total(PB, 10, 11) == exi_total(PB, 10, 0, "formula")
    for fam in (B, PB):
        grids = _kept(fam, *HOLONOMIC)
        assert list(grids) == ["holonomic 0"] and [len(row) for row in grids["holonomic 0"]] == [11], fam
    # at M = n, n single-point rank-0 pieces of PB are q = n = 0 (mod n)
    assert exi_total(PB, 10, 10) == exi_total(PB, 10, 10, "formula") != exi_total(PB, 10, 0)
    assert [len(row) for row in _kept(PB, "holonomic")["holonomic", 10]] == [11] * 10


def test_closed_totals_are_kept(monkeypatch):
    # T's closed total sums its kept closed rank row, made once and not
    # again; I's is 2^n, the partial identities, one per subset
    _fresh_tables(monkeypatch)
    value = e_total(T, 30, "closed")
    rows = _kept(T, "e_rank closed")["e_rank closed"]
    assert list(rows) == [30] and sum(rows[30]) == value == e_total(T, 30, "recurrence")
    rows[30] = [-1]
    assert e_total(T, 30, "closed") == e_total(T, 30) == -1
    assert e_total(I, 30, "closed") == e_total(I, 30) == 2**30
    assert _kept(I, "e_rank closed") == {"e_rank closed": {}}


def test_e_total_is_exi_total_at_twist_order_1():
    # order 1 annihilates every exponent, so every route of the plain count
    # is the twisted count's at order 1
    for fam, routes in counting.ROUTES["exi_total"].items():
        for method in (None, *routes):
            for n in range(13):
                assert e_total(fam, n, method) == exi_total(fam, n, 1, method), (fam, method, n)


def test_closed_twisted_totals_match_the_formula():
    # T has no rank-0 piece, so every order is its closed rank row summed;
    # I's rank-0 pieces are its idle points, so order M counts the subsets
    # with q = 0 (mod M) of them
    for fam in (T, I):
        for n in range(13):
            for order in range(7):
                assert exi_total(fam, n, order, "closed") == exi_total(fam, n, order, "formula"), (fam, n, order)
    assert exi_total(I, 9, 0, "closed") == 1 and exi_total(I, 9, 1, "closed") == 2**9
    assert exi_total(I, 9, 4, "closed") == 1 + math.comb(9, 4) + math.comb(9, 8)


def test_families_without_a_rank_0_piece_grow_no_z_grid(monkeypatch):
    # c0 is zero for T and Idual, so Z_M is [1] at every order, on both
    # routes, and the convolution is the order-0 count alone
    _fresh_tables(monkeypatch)
    for fam in (T, IDUAL):
        for method in ("closed", "recurrence"):
            for order in (2, 3, 300):
                for n, r in ((10, 3), (300, 0)):
                    if order <= n - r:
                        assert exi_rank(fam, n, r, order, method) == e_rank(fam, n, r, "closed"), (fam, order)
            assert _kept(fam, *Z) == {}, (fam, method)


def test_a_route_the_family_lacks_is_refused():
    for fam in (P, T, I, IDUAL):
        with pytest.raises(DomainError):
            e_total(fam, 4, "holonomic")
        with pytest.raises(DomainError):
            exi_total(fam, 4, 0, "holonomic")
    for fam in (P, B, PB, IDUAL):
        with pytest.raises(DomainError):
            e_total(fam, 4, "closed")
    # the marked holonomic route answers every twist order
    assert exi_total(B, 4, 2, "holonomic") == 28


# --------------------------------------------------------------------------
# per-rank counts

def test_e_rank_examples():
    assert e_rank(B, 6, 2, "mu_sum") == 1575
    assert e_rank(PB, 4, 0, "recurrence") == 100
    assert e_rank(P, 3, 1, "mu_sum") == 70


def test_e_rank_methods_agree():
    for fam, methods in (
        (P, ("mu_sum", "recurrence")),
        (B, ("mu_sum", "recurrence", "closed")),
        (PB, ("mu_sum", "recurrence", "closed")),
        (T, ("mu_sum", "recurrence")),
        (I, ("mu_sum", "recurrence")),
        (IDUAL, ("mu_sum", "recurrence")),
    ):
        for n in range(7):
            for r in range(n + 1):
                values = {e_rank(fam, n, r, m) for m in methods}
                assert len(values) == 1, (fam, n, r, values)


def test_e_rank_sums_to_total():
    for fam in ALL_FAMILIES:
        for n in range(8):
            assert sum(e_rank(fam, n, r) for r in range(n + 1)) == e_total(fam, n)


def test_e_rank_units_and_parity():
    for fam in ALL_FAMILIES:
        for n in range(7):
            assert e_rank(fam, n, n) == 1
    for n in range(1, 9):
        for r in range(n + 1):
            if (n - r) % 2:
                assert e_rank(B, n, r) == 0


def test_egf_ranks_match_the_other_routes():
    # the closed route is the row read off the bivariate EGF
    for fam, top in ((B, 60), (PB, 60), (T, 30), (I, 30), (IDUAL, 30)):
        for n in range(top + 1):
            for r in range(n + 1):
                assert e_rank(fam, n, r, "closed") == e_rank(fam, n, r, "recurrence"), (fam, n, r)
    # and a sum over the integer partitions of n checks B's and PB's rows
    for fam in (B, PB):
        for n in range(15):
            for r in range(n + 1):
                assert e_rank(fam, n, r, "closed") == e_rank(fam, n, r, "mu_sum"), (fam, n, r)


def test_egf_rank_rows_sum_to_the_holonomic_totals():
    for fam, n in ((B, 250), (PB, 250), (PB, 600)):
        assert sum(e_rank(fam, n, r, "closed") for r in range(n + 1)) == e_total(fam, n, "holonomic")


def test_egf_ranks_are_refused_for_p():
    for method in ("closed", "egf"):
        with pytest.raises(DomainError):
            e_rank(P, 4, 2, method)


def test_egf_rank_rows_are_kept(monkeypatch):
    # the default takes the closed row and grows no rank grid; a second call
    # reads the family's row and does not build it again
    _fresh_tables(monkeypatch)
    rows = {fam: [e_rank(fam, 30, r) for r in range(31)] for fam in (B, PB, T, I, IDUAL)}
    for fam in (B, PB, T, I, IDUAL):
        assert _kept(fam, "e_rank") == {} and list(_kept(fam, "e_rank closed")["e_rank closed"]) == [30], fam

    def refuse(fam, n):
        raise AssertionError(f"closed row of {fam.value} at {n} built again")

    monkeypatch.setattr(counting, "_egf_rank_row", refuse)
    for fam, row in rows.items():
        assert [e_rank(fam, 30, r) for r in range(31)] == row, fam
        assert e_rank(fam, 30, 7, "closed") == row[7], fam
    assert rows[I] == [math.comb(30, r) for r in range(31)]  # the partial identities
    assert rows[IDUAL] == [stirling2(30, r) for r in range(31)]  # a piece per block


def test_e_rank_guards():
    with pytest.raises(DomainError):
        e_rank(B, 3, 4)
    with pytest.raises(DomainError):
        e_rank(B, 3, -1)
    with pytest.raises(DomainError):
        e_rank(P, 3, 1, "closed")
    with pytest.raises(DomainError):
        e_rank(B, 3, 1, "magic")


# --------------------------------------------------------------------------
# R-class counts

def test_rho_no_rank_forms():
    assert rho(P, 3) == bell(3) == 5
    assert rho(PB, 4) == involutions(4) == 10
    assert rho(B, 4) == odd_double_factorial(3) == 3
    assert rho(B, 5) == 0
    with pytest.raises(DomainError):
        rho(T, 3)


def test_rho_brauer():
    assert rho(B, 10, 2) == 4725
    assert rho(B, 4, 4) == 1
    assert rho(B, 4, 2) == 6 * 1
    with pytest.raises(ParityError):
        rho(B, 5, 2)
    with pytest.raises(DomainError):
        rho(P, 4, 2)


def test_rho_partial_brauer():
    assert rho(PB, 4, 2, 0) == 6
    assert rho(PB, 4, 1, 1) == 4 * 3 * 1
    assert rho(PB, 4, 0, 0) == 3
    with pytest.raises(ParityError):
        rho(PB, 4, 1, 0)
    with pytest.raises(DomainError):
        rho(PB, 4, 3, 2)
    with pytest.raises(DomainError):
        rho(B, 4, 2, 0)
    with pytest.raises(DomainError):
        rho(PB, 4, None, 2)


def test_a_nr_values():
    assert a_nr(4, 2) == 5
    assert a_nr(10, 0) == 945
    for n in range(9):
        assert a_nr(n, n) == 1
    with pytest.raises(ParityError):
        a_nr(4, 1)
    with pytest.raises(ParityError):
        a_nr(3, 5)


def test_a_nrt_values():
    assert a_nrt(4, 0, 0) == 10
    for n in range(7):
        assert a_nrt(n, n, 0) == 1
    # with nothing paired across the rows the count ignores the loop split
    assert a_nrt(4, 0, 2) == a_nrt(4, 0, 0)
    assert a_nrt(5, 0, 1) == a_nrt(5, 0, 3)
    with pytest.raises(ParityError):
        a_nrt(4, 1, 0)
    with pytest.raises(ParityError):
        a_nrt(4, 2, -1)


def test_b_nr_values():
    assert b_nr(5, 1) == 8
    assert b_nr(10, 2) == 1920
    assert b_nr(10, 4) == 960
    assert b_nr(1, 1) == 1
    assert b_nr(0, 0) == 1
    assert b_nr(2, 0) == 0
    with pytest.raises(ParityError):
        b_nr(5, 2)


def test_rho_a_reconstruction():
    for n in range(11):
        total = sum(
            rho(B, n, r) * a_nr(n, r) for r in range(n % 2, n + 1, 2)
        )
        assert total == e_total(B, n)
    for n in range(9):
        total = sum(
            rho(PB, n, r, t) * a_nrt(n, r, t)
            for r in range(n + 1)
            for t in range(n - r + 1)
            if (n - r - t) % 2 == 0
        )
        assert total == e_total(PB, n)


def test_rho_b_twisted_reconstruction():
    for n in range(11):
        total = sum(rho(B, n, r) * b_nr(n, r) for r in range(n % 2, n + 1, 2))
        assert total == exi_total(B, n, 0)
        assert total == exi_total(PB, n, 0)


# --------------------------------------------------------------------------
# twisted totals

def test_exi_total_examples():
    assert exi_total(B, 5, 0) == 181
    assert exi_total(P, 4, 0) == 807
    assert exi_total(P, 4, 1) == 1512


def test_exi_total_collapse_and_methods():
    for fam in ALL_FAMILIES:
        for n in range(9):
            assert exi_total(fam, n, 1) == e_total(fam, n)
            assert exi_total(fam, n, 0, "formula") == exi_total(fam, n, 0, "recurrence")


def test_exi_total_higher_orders():
    # order 2 keeps every plain idempotent whose twist exponent is even
    for n in range(7):
        assert exi_total(B, n, 2) <= e_total(B, n)
        assert exi_total(B, n, 2) >= exi_total(B, n, 0)
    # the holonomic route marks each rank-0 piece, so it answers every order
    assert [exi_total(B, 4, order, "holonomic") for order in (0, 1, 2)] == [25, 40, 28]
    assert [exi_total(B, 5, order, "holonomic") for order in (0, 1, 2)] == [181, 296, 196]


def test_twisted_grid_matches_the_formula_at_every_order():
    # the grid's row q counts the idempotents with q rank-0 pieces, the
    # formula the cells whose kernel classes minus rank is q; the default
    # takes the grid at every positive order
    for fam in ALL_FAMILIES:
        for n in range((12 if fam is P else 20) + 1):
            for order in range(6):
                formula = exi_total(fam, n, order, "formula")
                assert exi_total(fam, n, order) == formula, (fam, n, order)
                assert exi_total(fam, n, order, "recurrence") == formula, (fam, n, order)


def test_partition_grid_matches_the_set_partition_referee():
    # every cell of the sweep over integer partitions, its factor rows
    # trimmed and its zero-factor partitions skipped, against a walk over
    # the set partitions that shares neither integer_partitions nor pi_count
    for fam in ALL_FAMILIES:
        for n in range(9):
            assert counting._partition_grid(fam, n) == reference_partition_grid(fam, n), (fam, n)


# one sha256 over repr(_partition_grid(fam, n)) for each family, in
# MonoidFamily order, and n = 0..20 in turn: 126 grids, recorded once from
# the sweep that multiplied every factor in as a polynomial
PARTITION_GRIDS_SHA256 = "6bc7647832c031ca69a364a80d85315b8bce5ad91b9b22b74919defa8b7a9158"


def test_partition_grids_match_the_recorded_digest():
    digest = hashlib.sha256()
    for fam in MonoidFamily:
        for n in range(21):
            digest.update(repr(counting._partition_grid(fam, n)).encode())
    assert digest.hexdigest() == PARTITION_GRIDS_SHA256


def test_partition_grid_of_i_is_one_row():
    # I's pieces are single points, so every partition with a part above 1
    # counts nothing: n kernel classes, and C(n, r) ways to choose the r
    # points of rank 1
    grid = counting._partition_grid(I, 30)
    assert grid[30] == [math.comb(30, r) for r in range(31)]
    assert not any(map(any, grid[:30]))


def test_twisted_grid_at_order_1_is_the_plain_total():
    # order 1's one row, which e_total's recurrence reads, against the
    # column sums of the rank grid, a grid of its own
    for fam in ALL_FAMILIES:
        for n in range((12 if fam is P else 60) + 1):
            rank_sum = sum(e_rank(fam, n, r) for r in range(n, -1, -1))
            assert exi_total(fam, n, 1, "recurrence") == rank_sum, (fam, n)
            assert e_total(fam, n, "recurrence") == rank_sum, (fam, n)


def test_twisted_grids_do_not_depend_on_query_order(monkeypatch):
    # the recurrence at each order above 1 convolves the one-row order-0
    # grid with Z_M.  Asked below M - 1 first, Z_M is [1] and grows no grid;
    # past M it grows its grid of M rows.  T and Idual, whose c0 is zero,
    # never grow one.  B's and PB's holonomic grids, their default, answer
    # an order above n from order 0's grid, and past M grow all M rows at once
    keys = [(fam, n, order) for fam in (B, PB, T, IDUAL) for order in (2, 3, 7) for n in (0, 1, 4, 5, 9, 14, 20)]
    expected = {key: exi_total(*key, "formula") for key in keys}
    small = [key for key in keys if key[1] < key[2] - 1]
    large = [key for key in keys if key[1] > key[2]]
    _fresh_tables(monkeypatch)
    rng = random.Random(7)
    for fam, n, order in rng.sample(small, len(small)):
        assert exi_total(fam, n, order, "recurrence") == expected[fam, n, order], (fam, n, order)
        assert _kept(fam, *Z) == {}, (fam, n, order)
    for fam, n, order in rng.sample(large, len(large)) + rng.sample(keys, len(keys)):
        assert exi_total(fam, n, order, "recurrence") == expected[fam, n, order], (fam, n, order)
    for fam in (B, PB, T, IDUAL):
        grids = _kept(fam, *ORDERS)
        assert list(grids) == ["order 0"] and len(grids["order 0"]) == 1, fam
        shapes = {M: len(grid) for (_, M), grid in _kept(fam, *Z).items()}
        assert shapes == ({2: 2, 3: 3, 7: 7} if fam in (B, PB) else {}), fam
        assert _kept(fam, *HOLONOMIC) == {}, fam
    # the same shuffle on the holonomic grids
    keys, small, large = ([key for key in part if key[0] in (B, PB)] for part in (keys, small, large))
    for fam, n, order in rng.sample(small, len(small)):
        assert exi_total(fam, n, order) == expected[fam, n, order], (fam, n, order)
        assert ("holonomic", order) not in _kept(fam, "holonomic"), (fam, n, order)
    for fam, n, order in rng.sample(large, len(large)) + rng.sample(keys, len(keys)):
        assert exi_total(fam, n, order) == expected[fam, n, order], (fam, n, order)
    for fam in (B, PB):
        grids = _kept(fam, "holonomic")
        assert [len(grids["holonomic", order]) for order in (2, 3, 7)] == [2, 3, 7], fam
        assert all(len(row) == 21 for grid in grids.values() for row in grid), fam


def test_an_order_above_n_is_order_0():
    # q rank-0 pieces need q points, so only row 0 has q = 0 (mod M) once M > n
    for fam in ALL_FAMILIES:
        for n in range(13):
            for order in (n + 1, n + 2, 2 * n + 5):
                assert exi_total(fam, n, order) == exi_total(fam, n, 0), (fam, n, order)


def test_positive_twist_orders_match_the_oracle():
    # the formula keeps the grid cells whose twist exponent the order
    # annihilates; the oracle squares every element under the twist
    for fam, n in ((P, 3), (B, 5), (PB, 4), (T, 3), (I, 3), (IDUAL, 3)):
        for order in (2, 3, 4):
            assert exi_total(fam, n, order) == brute_report(fam, n, M=order).twisted_total, (fam, n, order)


class FormulaReached(Exception):
    pass


def test_default_routes_are_chosen_in_counting(monkeypatch):
    # with the partition formula out of reach, every default still answers,
    # and the first-piece total grids are reached by exactly the defaults
    # that take the recurrence, P's and Idual's.  The holonomic grids that
    # grow show which totals take that route.  e_total is order 1, and every
    # order above 1 convolves order 0's grid, so a total grid is reached
    # when one holds column n afterwards: each (family, n) asks a larger n
    # than those before it.
    expected = {
        (fam, n): [e_total(fam, n, "formula")] + [exi_total(fam, n, order, "formula") for order in range(3)]
        for fam in ALL_FAMILIES for n in range(13)
    }
    _fresh_tables(monkeypatch)

    def through_total_grid(query, fam, n, *args):
        # the answer, and whether a first-piece total grid gave it
        value = query(fam, n, *args)
        return value, any(len(grid[0]) > n for grid in _kept(fam, *ORDERS).values())

    def refuse(fam, n):
        raise FormulaReached(fam, n)

    monkeypatch.setattr(counting, "_partition_grid", refuse)
    for fam in ALL_FAMILIES:
        for n in range(13):
            total, *twisted = expected[fam, n]
            # at every order: the recurrence for P and Idual, holonomic for
            # B and PB, closed for T and I
            assert through_total_grid(e_total, fam, n) == (total, fam in (P, IDUAL)), (fam, n)
            assert through_total_grid(exi_total, fam, n) == (twisted[0], fam in (P, IDUAL)), (fam, n)
            assert exi_total(fam, n, 0) == twisted[0], (fam, n)
            for order in (1, 2):
                reached = through_total_grid(exi_total, fam, n, order)
                assert reached == (twisted[order], fam in (P, IDUAL)), (fam, n)
            assert e_rank(fam, n, n // 2) == e_rank(fam, n, n // 2, "recurrence")
            with pytest.raises(FormulaReached):
                exi_total(fam, n, 0, "formula")
    # one holonomic grid per twist order, M rows at order M >= 1; order 1's
    # serves e_total, and B's order-0 grid serves PB as well
    for fam in ALL_FAMILIES:
        shapes = {key: [len(row) for row in grid] for key, grid in _kept(fam, *HOLONOMIC).items()}
        holonomic = {"holonomic 0": [13], "holonomic 1": [13], ("holonomic", 2): [13, 13]}
        assert shapes == (holonomic if fam in (B, PB) else {}), fam
    assert _kept(PB, "holonomic 0")["holonomic 0"] is _kept(B, "holonomic 0")["holonomic 0"]
    # the first-piece total grids are one row each, at orders 0 and 1 only:
    # Idual, whose c0 is zero, reads order 0's at order 1, and P alone grows
    # Z_2's grid of two rows; B, PB, T and I grow none
    for fam in ALL_FAMILIES:
        grids = _kept(fam, *ORDERS)
        assert sorted(grids) == {P: list(ORDERS), IDUAL: ["order 0"]}.get(fam, []), fam
        assert all(len(grid) == 1 and len(grid[0]) == 13 for grid in grids.values()), fam
        assert {M: len(grid) for (_, M), grid in _kept(fam, *Z).items()} == ({2: 2} if fam is P else {}), fam
    # where the formula would sweep the 204,226 integer partitions of 50
    assert exi_total("B", 50) == sum(rho(B, 50, r) * b_nr(50, r) for r in range(0, 51, 2))
    # recorded from exi_total("B", 40, 2, "formula"), which sweeps 37,338 partitions
    assert exi_total("B", 40, 2) == 121273220826505220880148392889065087173300831911936


def test_shared_grids_rest_on_equal_c_value_columns():
    # the premise of counting's grid sharing, read off the c-value columns:
    # B's and PB's rank-1 columns agree, and T and Idual have no rank-0
    # piece, so the c0 support that order 1 and Z_M read stays zero
    assert counting._C1_TWIN == {PB: B} and not hasattr(counting, "_NO_RANK_0")
    for m in range(1, 301):
        assert c_values(PB, m)[1] == c_values(B, m)[1], m
        assert c_values(T, m)[0] == c_values(IDUAL, m)[0] == 0, m
    assert counting._TABLES[T].c_support[0] == counting._TABLES[IDUAL].c_support[0] == 0
    # every other family has a rank-0 piece, so its twist orders differ
    for fam in (P, B, PB, I):
        assert any(c_values(fam, m)[0] for m in range(1, 4)), fam
        assert counting._TABLES[fam].c_support[0], fam


def test_each_distinct_first_piece_grid_grows_once(monkeypatch):
    # PB's order-0 total, on fresh tables, grows B's grid and no rank-1 grid
    # of PB's own; its twisted ranks read the closed row, and grow no grid
    expected = [rho(B, 40, r) * b_nr(40, r) if r % 2 == 0 else 0 for r in range(41)]
    total = exi_total(PB, 40, 0, "holonomic")
    _fresh_tables(monkeypatch)
    assert [exi_rank(PB, 40, r) for r in range(41)] == expected
    assert exi_total(PB, 40, 0, "recurrence") == total
    assert _kept(PB, "exi_rank") == _kept(B, "exi_rank") == {}
    grids = _kept(PB, *ORDERS)
    assert list(grids) == ["order 0"] and grids["order 0"] is _kept(B, "order 0")["order 0"]
    assert [len(row) for row in grids["order 0"]] == [41]
    assert counting._TABLES[PB].c == ([], [])  # both grids grew from B's c-value columns
    assert [exi_rank(B, 40, r) for r in range(41)] == expected and exi_total(B, 40, 0, "recurrence") == total
    # every twist order of T and Idual, and e_total's recurrence, read their
    # one order-0 row, and their Z_M is [1]; I, which has a rank-0 piece,
    # keeps one row at orders 0 and 1 and a Z_M grid of M rows above them
    for fam in (T, IDUAL, I):
        formula = [exi_total(fam, 30, order, "formula") for order in range(8)]
        assert [exi_total(fam, 30, order, "recurrence") for order in range(8)] == formula, fam
        assert e_total(fam, 30, "recurrence") == e_total(fam, 30, "formula"), fam
        grids = _kept(fam, *ORDERS)
        assert sorted(grids) == (list(ORDERS) if fam is I else ["order 0"]), fam
        assert all(len(grid) == 1 for grid in grids.values()), fam
        shapes = {M: len(grid) for (_, M), grid in _kept(fam, *Z).items()}
        assert shapes == ({M: M for M in range(2, 8)} if fam is I else {}), fam


def test_pb_reads_b_s_grid_of_rank_1_pieces(monkeypatch):
    # exi_rank's recurrence grid reads c1 alone, so PB's list is B's, grown
    # from B's c-value columns
    _fresh_tables(monkeypatch)
    row = [exi_rank(PB, 12, r, 0, "recurrence") for r in range(13)]
    assert _kept(PB, "exi_rank")["exi_rank"] is _kept(B, "exi_rank")["exi_rank"]
    assert counting._TABLES[PB].c == ([], [])
    assert row == [exi_rank(B, 12, r, 0, "recurrence") for r in range(13)] == [exi_rank(PB, 12, r) for r in range(13)]


def test_each_route_keeps_its_own_grid(monkeypatch):
    # B's holonomic and first-piece grids of every piece hold the same
    # numbers, and verify plays one against the other: a wrong holonomic
    # cell must not be read by the recurrence
    _fresh_tables(monkeypatch)
    true = e_total(B, 12, "formula")
    assert e_total(B, 12, "holonomic") == true
    _kept(B, "holonomic 1")["holonomic 1"][0][12] = -1
    assert e_total(B, 12, "holonomic") == -1
    assert e_total(B, 12, "recurrence") == true


def test_exi_rank_examples():
    assert exi_rank(B, 3, 1) == 6
    assert exi_rank(P, 3, 1) == 43
    for n in range(1, 9):
        assert exi_rank(B, n, 0) == 0
    # by brute force: 6 of the 9 rank-1 idempotents of B3 have no rank-0
    # piece, and the other 3 have one, which order 1 annihilates and order 2
    # does not
    for method in ("closed", "recurrence"):
        assert exi_rank(B, 3, 1, 2, method) == 6
        assert exi_rank(B, 3, 1, 1, method) == 9 == e_rank(B, 3, 1)
    with pytest.raises(DomainError, match="^exi_rank has no route 'closed' for family P, only recurrence$"):
        exi_rank(P, 3, 1, 0, "closed")


@pytest.mark.parametrize("fam, n", [(P, 3), (B, 6), (PB, 5), (T, 4), (I, 4), (IDUAL, 4)])
def test_exi_rank_matches_the_oracle_at_twist_orders_2_and_3(fam, n):
    for M in (2, 3):
        report = brute_report(fam, n, M=M)
        expected = [report.twisted_by_rank.get(r, 0) for r in range(n + 1)]
        for method in counting.ROUTES["exi_rank"][fam]:
            assert [exi_rank(fam, n, r, M, method) for r in range(n + 1)] == expected, (M, method)


def test_exi_rank_order_above_n_minus_r_is_order_0(monkeypatch):
    # the r rank-1 pieces take r points, so at most n - r are left for the
    # rank-0 pieces: an order above that grows no grid of its rows
    _fresh_tables(monkeypatch)
    for method in ("closed", "recurrence"):
        row = [exi_rank(B, 10, r, 10**6, method) for r in range(11)]
        assert row == [exi_rank(B, 10, r) for r in range(11)], method
        assert _kept(B, *Z) == {}, method
        # at M = n - r, the n - r single-point rank-0 pieces of PB make q = M
        assert exi_rank(PB, 10, 0, 10, method) == 1 and exi_rank(PB, 10, 0, 11, method) == 0, method
        assert exi_rank(PB, 10, 2, 8, method) == exi_rank(PB, 10, 2) + math.comb(10, 8), method
        row = [exi_rank(PB, 10, r, 10, method) for r in range(11)]
        assert sum(row) == exi_total(PB, 10, 10, "formula"), method


def test_exi_rank_sums_to_exi_total():
    for fam in ALL_FAMILIES:
        for n in range(8):
            total = sum(exi_rank(fam, n, r) for r in range(n + 1))
            assert total == exi_total(fam, n, 0)


# --------------------------------------------------------------------------
# derived counts

def test_completely_regular_count():
    # every idempotent of rank r heads a subgroup with r! elements
    assert completely_regular_count(B, 2) == 1 * 1 + 2 * 1
    assert completely_regular_count(P, 2) == 1 * 4 + 1 * 7 + 2 * 1


def test_ideal_idempotent_count():
    assert ideal_idempotent_count(B, 4, 0) == 9
    assert ideal_idempotent_count(B, 4, 2) == 39
    assert ideal_idempotent_count(B, 4, 4) == e_total(B, 4)


# --------------------------------------------------------------------------
# bottom-up tables

_DEEP_COUNTS = textwrap.dedent(
    """
    import math
    import sys

    from diagmon import a_nr, a_nrt, b_nr, bell, e_total, exi_total, involutions, rho, stirling2

    sys.setrecursionlimit(120)
    n = 150
    assert e_total("B", n) == sum(rho("B", n, r) * a_nr(n, r) for r in range(0, n + 1, 2))
    assert exi_total("B", n, 0, "recurrence") == sum(
        rho("B", n, r) * b_nr(n, r) for r in range(0, n + 1, 2)
    )
    assert e_total("PB", n) == sum(
        rho("PB", n, r, t) * a_nrt(n, r, t)
        for r in range(n + 1)
        for t in range(n - r + 1)
        if (n - r - t) % 2 == 0
    )
    assert e_total("T", n) == sum(math.comb(n, k) * k ** (n - k) for k in range(1, n + 1))
    assert e_total("I", n) == 2**n
    assert e_total("Idual", n) == bell(n)
    assert stirling2(2000, 3) == (3**2000 - 3 * 2**2000 + 3) // 6
    assert involutions(3000) == sum(
        math.comb(3000, 2 * k) * math.prod(range(1, 2 * k, 2)) for k in range(1501)
    )
    print("ok")
    """
)


def test_deep_counts_need_no_recursion():
    # every recurrence is a bottom-up table, so a low recursion limit is
    # no obstacle even at n in the hundreds or thousands
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_COUNTS], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


def test_weight_rows_after_any_earlier_column():
    # each binomial row is reused, stepped by Pascal's rule or built afresh,
    # and each weight row is made for its own c-value column, up to its
    # last nonzero c-value
    c = ([1, 0, 2, 0, 24, 0, 720] * 3, list(range(1, 22)), [3, 5] + [0] * 19)
    tables = counting._FamilyTables(c=c, c_support=[21, 21, 2])
    for j in (1, 2, 2, 7, 3, 4, 5, 1, 12, 11, 12, 13, 21):
        for which in (0, 1, 2, 1, 0):
            cs = tables.c[which]
            support = max(m for m, value in enumerate(cs, 1) if value)
            expected = [math.comb(j - 1, m - 1) * cs[m - 1] for m in range(1, min(j, support) + 1)]
            assert counting._weights(tables, which, j) == expected, (j, which)


def test_binomial_rows_stop_at_the_longest_support():
    # the carried row C(j-1, i) stops below the longest c-value support; a
    # step by Pascal's rule keeps it exact, and a support that outgrows it
    # has it built afresh.  None names the column c0 + c1.
    c = ([2, 0, 6] + [0] * 18, [1, 3, 0, 5] + [0] * 17)
    tables = counting._FamilyTables(c=c, c_support=[3, 4])
    for j in (1, 2, 3, 4, 5, 6, 9, 10, 11, 3, 12, 12, 20, 21):
        if j == 11:  # a c-value appears at m = 8
            c[1][7], tables.c_support[1] = 7, 8
        for which in (None, 0, 1, None):
            column = [x + y for x, y in zip(*c)] if which is None else c[which]
            support = max(m for m, value in enumerate(column, 1) if value)
            expected = [math.comb(j - 1, m - 1) * column[m - 1] for m in range(1, min(j, support) + 1)]
            assert counting._weights(tables, which, j) == expected, (j, which)
        _, binomials, _ = tables.column
        assert binomials == [math.comb(j - 1, i) for i in range(min(j, max(tables.c_support)))], j


def test_weight_rows_of_i_hold_one_weight(monkeypatch):
    # I's only nonzero c-values sit at m = 1, so its grids multiply one
    # weight per cell; the digest test below shows the cells unchanged
    _fresh_tables(monkeypatch)
    assert e_rank(I, 30, 12, "recurrence") == math.comb(30, 12)  # the partial identities of rank 12
    assert exi_rank(I, 30, 30, 0, "recurrence") == 1
    assert counting._TABLES[I].c_support == [1, 1]
    column, binomials, rows = counting._TABLES[I].column
    assert column == 30 and rows and all(len(row) == 1 for row in rows.values())
    assert binomials == [1]  # C(29, 0), the one binomial its weights read
    # growing the c-values drops the carried column, whose binomial row
    # may stop short of a longer support
    c_values(I, 31)
    assert counting._TABLES[I].column == (0, [], {})


def _fresh_tables(monkeypatch) -> None:
    monkeypatch.setattr(counting, "_TABLES", {fam: counting._FamilyTables() for fam in MonoidFamily})


def test_rank_grids_do_not_depend_on_query_order(monkeypatch):
    # the grids grow column by column over rows of unequal length, and the
    # totals share each family's weight rows with them; every order of
    # queries must leave the same cells behind.  Rank -1 stands for the
    # two totals, e_total and exi_total by recurrence.
    keys = [(n, r, i) for i in range(len(ALL_FAMILIES)) for n in range(25) for r in range(-1, n + 1)]
    expected = {
        (n, r, i): e_rank(ALL_FAMILIES[i], n, r, "mu_sum") if r >= 0 else e_total(ALL_FAMILIES[i], n, "formula")
        for n, r, i in keys
    }
    orders = {
        "shuffled": random.Random(13).sample(keys, len(keys)),
        "descending": sorted(keys, reverse=True),
        "row first": sorted(keys, key=lambda key: (key[1], key[0], key[2])),
        "totals last": sorted(keys, key=lambda key: (key[1] < 0, key[1], key[0], key[2])),
        # a small rank at a large n after a larger rank at a smaller n
        "unequal rows": [(12, 12, i) for i in range(6)] + [(24, 3, i) for i in range(6)]
        + [(18, -1, i) for i in range(6)] + [(18, 7, i) for i in range(6)] + keys,
    }
    twisted = {}
    for name, order in orders.items():
        _fresh_tables(monkeypatch)
        for n, r, i in order:
            fam = ALL_FAMILIES[i]
            if r < 0:
                assert e_total(fam, n) == expected[n, r, i], (name, fam, n)
                value = exi_total(fam, n, 0, "recurrence")
            else:
                assert e_rank(fam, n, r, "recurrence") == expected[n, r, i], (name, fam, n, r)
                value = exi_rank(fam, n, r, 0, "recurrence")
            twisted.setdefault((n, r, i), set()).add(value)
    assert all(len(values) == 1 for values in twisted.values())
    for i, fam in enumerate(ALL_FAMILIES):
        for n in range(25):
            assert sum(expected[n, r, i] for r in range(n + 1)) == expected[n, -1, i], (fam, n)
            rank_sum = sum(twisted[n, r, i].pop() for r in range(n + 1))
            assert rank_sum == twisted[n, -1, i].pop() == exi_total(fam, n, 0, "formula"), (fam, n)


# sha256 of the lines "family n e_total exi_total" for n <= 120 (P: n <= 20),
# both by the first-piece recurrence and exi_total at order 0, then
# "family n r e_rank exi_rank" for n <= 40 (P: n <= 20) and every r; pinned
# from a build whose totals and rank grids grew along separate code paths
_FIRST_PIECE_DIGEST = "e2378536a8a27368f61f6d86e6925c4d3fccd655a99c3fec4965494d1b788c1e"


def test_first_piece_tables_match_their_digest(monkeypatch):
    _fresh_tables(monkeypatch)
    digest = hashlib.sha256()
    for fam in ALL_FAMILIES:
        deep = fam is P  # c_values(P, n) costs O(n^5)
        for n in range((20 if deep else 120) + 1):
            totals = e_total(fam, n, "recurrence"), exi_total(fam, n, 0, "recurrence")
            digest.update(f"{fam.value} {n} {totals[0]} {totals[1]}\n".encode())
        for n in range((20 if deep else 40) + 1):
            for r in range(n + 1):
                ranks = e_rank(fam, n, r, "recurrence"), exi_rank(fam, n, r, 0, "recurrence")
                digest.update(f"{fam.value} {n} {r} {ranks[0]} {ranks[1]}\n".encode())
    assert digest.hexdigest() == _FIRST_PIECE_DIGEST


def test_first_piece_boundaries():
    # only the identity has full rank, and every twisted idempotent but the
    # empty one has a piece of rank 1
    for fam in ALL_FAMILIES:
        for n in range(31):
            assert e_rank(fam, n, n) == exi_rank(fam, n, n) == 1, (fam, n)
            assert exi_rank(fam, n, 0) == (n == 0), (fam, n)
    # the Stirling boundary of the e_nrs recurrence, which it derives
    for n in range(1, 31):
        for s in range(1, n + 1):
            assert e_nrs(n, 1, s) == e_nrs(n, s, 1) == stirling2(n, s), (n, s)


def test_tables_grow_consistently_under_threads(monkeypatch):
    # a lost or doubled append would shift every later entry of a table
    queries = {
        "e_rank": e_rank,
        "e_rank recurrence": lambda fam, n, r: e_rank(fam, n, r, "recurrence"),
        "exi_rank": exi_rank,
        "exi_rank order 2": lambda fam, n, r: exi_rank(fam, n, r, 2, "recurrence"),
        "e_total": e_total,
        "exi_total": lambda fam, n: exi_total(fam, n, 0, "recurrence"),
        "exi_total order 1": lambda fam, n: exi_total(fam, n, 1),
        "exi_total order 2": lambda fam, n: exi_total(fam, n, 2),
        "exi_total order 3": lambda fam, n: exi_total(fam, n, 3),
        "exi_total order 5": lambda fam, n: exi_total(fam, n, 5),
    }
    # B and PB grow B's order-0 twisted grid, T's orders grow its order-0
    # grid, and each family grows its twisted rank grid and its rows of
    # rank-0 pieces, from several threads at once
    keys = []
    for fam in (B, PB, T):
        for n in range(40):
            keys += [("e_total", fam, n), ("exi_total", fam, n)]
            keys += [(f"exi_total order {order}", fam, n) for order in (1, 2, 3, 5)]
            keys += [
                (name, fam, n, r)
                for name in ("e_rank", "e_rank recurrence", "exi_rank", "exi_rank order 2")
                for r in range(n + 1)
            ]
    expected = {key: queries[key[0]](*key[1:]) for key in keys}
    _fresh_tables(monkeypatch)
    results: dict = {}

    def work(seed: int) -> None:
        for key in random.Random(seed).sample(keys, len(keys)):
            results[key, seed] = queries[key[0]](*key[1:])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(2 * os.cpu_count() + 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert len(results) == len(keys) * len(threads)
    assert all(value == expected[key] for (key, _), value in results.items())
    for name in ("order 0", "exi_rank"):  # each read c1 alone, so PB's is B's
        assert _kept(PB, name)[name] is _kept(B, name)[name], name
    grids = _kept(T, *ORDERS)
    assert all(grid is grids["order 0"] for grid in grids.values())

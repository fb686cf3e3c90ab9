"""Exact integer combinatorics behind the counting engine.

Everything here returns Python ints (arbitrary precision) and raises
DomainError on arguments outside the defined range.  Recurrences are
evaluated bottom-up: each one owns a table that grow / grow_grid extend
to the largest index a query has needed so far.  Nothing recurses, so the
reachable n is bounded by time and memory only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, TypeVar

from .errors import DomainError

T = TypeVar("T")


# held while any table grows, so that threads may share the tables; an
# entry may grow other tables, hence reentrant
_GROWING = threading.RLock()


def grow(table: list[T], n: int, entry: Callable[[int], T]) -> list[T]:
    """Append entry(m) for m = len(table), ..., n, so that table[n] exists.

    entry(m) may read table[:m] and any table grown before it.
    """
    if len(table) <= n:
        with _GROWING:
            for m in range(len(table), n + 1):
                table.append(entry(m))
    return table


def grow_grid(grid: list[list[T]], i: int, j: int, entry: Callable[[int, int], T]) -> T:
    """grid[i][j], after growing rows 0..i of the grid to column j.

    The grid grows column by column, each column from row 0 down, so
    entry(row, col) may read any cell of rows 0..i before column col and
    any cell of an earlier row in column col; the entries of one column
    run one after another.  That fills O(i·j) cells, the rectangle a two-index recurrence
    at (i, j) can depend on.
    """
    if i < len(grid) and j < len(grid[i]):  # rows below i are at least as long
        return grid[i][j]
    with _GROWING:
        while len(grid) <= i:
            grid.append([])
        top = i  # rows top..i are those whose next column is col
        for col in range(len(grid[i]), j + 1):
            while top and len(grid[top - 1]) == col:
                top -= 1
            for row in range(top, i + 1):
                grid[row].append(entry(row, col))
    return grid[i][j]


@dataclass(frozen=True, slots=True)
class IntegerPartitionSpec:
    """A partition of n by multiplicities: parts[i] copies of the part i+1.

    Trailing zeros are trimmed, so the tuple length is the largest part
    (empty for n = 0).
    """

    parts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum((i + 1) * m for i, m in enumerate(self.parts))

    def multiplicity(self, part: int) -> int:
        return self.parts[part - 1] if 1 <= part <= len(self.parts) else 0


def integer_partitions(n: int) -> Iterator[IntegerPartitionSpec]:
    """All partitions of n, largest-part-first (reverse lexicographic).

    Yielded as multiplicity vectors; n = 0 yields the single empty spec.
    Each step takes the smallest part above 1 apart: one copy of it plus
    the ones are regrouped into as many parts one smaller as fit.
    """
    if n < 0:
        raise DomainError(f"cannot partition {n}")
    mult = [0] * (n + 1)
    mult[n] = 1
    top = n  # the largest part present
    while True:
        yield IntegerPartitionSpec(tuple(mult[1 : top + 1]))
        part = 2
        while part <= top and not mult[part]:
            part += 1
        if part > top:
            return
        mult[part] -= 1
        freed = part + mult[1]
        mult[1] = 0
        whole, rest = divmod(freed, part - 1)
        mult[part - 1] += whole
        if rest:
            mult[rest] += 1
        while not mult[top]:
            top -= 1


def pi_count(spec: IntegerPartitionSpec) -> int:
    """Number of set partitions of {1..n} whose block sizes realize spec.

    n! divided by the product over parts i of (multiplicity! * (i!)^multiplicity).
    One pass over the parts adds up n beside the product, and n! is one C
    call, so a sweep passes no n! in: each partition pays for its parts once.
    """
    n, den = 0, 1
    for i, mult in enumerate(spec.parts, 1):
        if mult:
            n += i * mult
            den *= math.factorial(mult) * math.factorial(i) ** mult
    q, r = divmod(math.factorial(n), den)
    assert r == 0
    return q


def bell(n: int) -> int:
    """Number of set partitions of an n-set, from the Bell triangle.

    Row k of the triangle starts with the last entry of row k - 1, and each
    next entry adds the entry above its left neighbour, so row k starts with
    Bell(k) and ends with Bell(k + 1).  Only the last row is kept, O(n)
    ints, and each new Bell number costs one row of big-int additions, so
    Bell(n) costs O(n^2) additions and no Stirling number.
    """
    if n < 0:
        raise DomainError(f"bell({n})")
    return grow(_BELL, n, _bell_entry)[n]


# the Bell numbers grown so far, and the Bell triangle's row whose last
# entry is the next one: row len(_BELL) - 1
_BELL: list[int] = [1]
_BELL_ROW: list[int] = [1]


def _bell_entry(m: int) -> int:
    row = _BELL_ROW
    value = row[-1]
    row[:] = accumulate(row, initial=value)
    return value


# _STIRLING2[r][n] = S(n, r); row r is grown only as far as queries reach
_STIRLING2: list[list[int]] = []


def _stirling2_entry(r: int, n: int) -> int:
    if n == 0:
        return 1 if r == 0 else 0
    if r == 0:
        return 0
    return r * _STIRLING2[r][n - 1] + _STIRLING2[r - 1][n - 1]


def stirling2(n: int, r: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into r blocks."""
    if n < 0 or r < 0:
        raise DomainError(f"stirling2({n},{r})")
    if r > n:
        return 0
    return grow_grid(_STIRLING2, r, n, _stirling2_entry)


def odd_double_factorial(k: int) -> int:
    """k!! for odd k >= -1, the number of perfect matchings on k+1 points."""
    if k < -1 or k % 2 == 0:
        raise DomainError(f"odd_double_factorial({k})")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


_INVOLUTIONS: list[int] = [1, 1]


def involutions(n: int) -> int:
    """Number of involutions of an n-set (equivalently partial matchings)."""
    if n < 0:
        raise DomainError(f"involutions({n})")
    t = _INVOLUTIONS
    return grow(t, n, lambda m: t[m - 1] + (m - 1) * t[m - 2])[n]


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n, error when either argument is negative."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial({n},{k})")
    return math.comb(n, k)


# --------------------------------------------------------------------------
# join-universal partition pairs

def e_nrs(n: int, r: int, s: int) -> int:
    """Number of pairs (upper, lower) of set partitions of {1..n} with r and
    s blocks respectively whose join is the one-block partition.

    Arguments must satisfy 1 <= r, s <= n.
    """
    if n < 1 or not (1 <= r <= n) or not (1 <= s <= n):
        raise DomainError(f"e_nrs({n},{r},{s})")
    return grow(_E_PAIRS, n, _e_pairs_row)[n][r][s]


# _E_PAIRS[n][r][s] = e_nrs(n, r, s), with zeros where r or s is 0
_E_PAIRS: list[list[list[int]]] = []


def _e_pairs_row(n: int) -> list[list[int]]:
    """Every e_nrs(n, r, s), from the rows below n.

    e_nrs(1, 1, 1) = 1 is the one base.  Above it each count is three
    terms from row n - 1 plus, for each m in 1..n-2, C(n-2, m) times the
    sum over (a, b) + (a', b') = (r, s) of
    (a·b' + b·a')·e_nrs(m, a, b)·e_nrs(n-1-m, a', b').  That sum is a
    two-dimensional convolution of rows m and n-1-m.  It is empty where r
    or s is 1, and there the three terms give the Stirling numbers S(n, s)
    and S(n, r).

    The bracket is symmetric under swapping (a, b) with (a', b'), so m and
    n-1-m make the same sum, and since C(n-2, m) + C(n-2, m-1) = C(n-1, m)
    the pair is one sum times C(n-1, m) (times C(n-2, m) alone when
    m = n-1-m): only m <= (n-1)/2 do any work.

    The convolution along s is one big-int product (Kronecker substitution;
    Harvey, J. Symbolic Comput. 44, 2009).  Each vector a·e_nrs(k, a, ·)
    and b·e_nrs(k, a, ·) is packed into one int, e_nrs(k, a, b) in slot
    b - 1 of width W, so xa·yb + xb·ya, for upper counts a and a', holds in
    slot s - 2 the whole sum over b + b' = s; those products are summed
    per r = a + a' and each sum is unpacked once.  No slot can carry: every
    term is nonnegative, so a slot is at most e_nrs(n, r, s) <= S(n, r)·S(n, s)
    <= Bell(n)², below 2^W for W = 2·(bits of Bell(n)) + 1.  A vector stops
    at b = k + 1 - a, since e_nrs(k, a, b) = 0 where a + b > k + 1: the
    blocks are the a + b vertices of a connected bipartite multigraph with
    one edge per point, which needs at least a + b - 1 edges.
    """
    row = [[0] * (n + 1) for _ in range(n + 1)]
    if n < 2:
        if n:
            row[1][1] = 1
        return row
    # row n - 1 padded with zeros to the shape of row n
    prev = [cells + [0] for cells in _E_PAIRS[n - 1]] + [[0] * (n + 1)]
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            row[r][s] = s * prev[r - 1][s] + r * prev[r][s - 1] + r * s * prev[r][s]
    width = 2 * bell(n).bit_length() + 1
    packed = [_packed_pairs(k, width) for k in range(n - 1)]
    sums = [0] * (n + 1)  # sums[r], packed along s
    for m in range(1, (n + 1) // 2):
        m2 = n - 1 - m
        cm = math.comb(n - 2, m) if m == m2 else math.comb(n - 1, m)
        right = packed[m2]
        for a, (xa, xb) in enumerate(packed[m], 1):
            xa, xb = cm * xa, cm * xb
            for a2, (ya, yb) in enumerate(right, a + 1):
                sums[a2] += xa * yb + xb * ya
    mask = (1 << width) - 1
    for r in range(2, n + 1):
        packed_sum, out = sums[r], row[r]
        for s in range(2, n + 1):
            out[s] += packed_sum & mask
            packed_sum >>= width
    return row


def _packed_pairs(k: int, width: int) -> list[tuple[int, int]]:
    """For a = 1..k, the vectors a·e_nrs(k, a, ·) and b·e_nrs(k, a, ·) packed
    in slots of the given width, e_nrs(k, a, b) in slot b - 1 for
    b = 1..k+1-a (see _e_pairs_row)."""
    out = []
    for a, cells in enumerate(_E_PAIRS[k][1:], 1):
        values, weighted = 0, 0
        for b in range(k + 1 - a, 0, -1):
            values = (values << width) | cells[b]
            weighted = (weighted << width) | b * cells[b]
        out.append((a * values, weighted))
    return out

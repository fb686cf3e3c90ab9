"""Idempotent counting: c-values, totals, per-rank and per-R-class counts.

Every count is an exact Python int.  Most quantities can be computed along
two or three independent routes (sum over integer partitions, recurrence,
holonomic recurrence, closed form); the routes are deliberately kept
separate so they can be played against each other by the verifier.

ROUTES alone says which routes each count has for each family, its
default (the cheapest) first; any other method is refused.  e_total is
exi_total at twist order 1, which annihilates every exponent.  By default
exi_total takes the holonomic recurrence for B and PB, the closed form for
T and I, and the first-piece recurrence for P and Idual; e_rank and
exi_rank take a closed row off the bivariate EGF for every family but P,
and P the first-piece recurrence.

An idempotent is its irreducible pieces, one per kernel class, each of
rank 0 or 1; the c-value columns c0 and c1 count them by size.  A twist
sees only the rank-0 pieces: the exponent it must annihilate is their
number q.  So by the exponential formula a count at twist order M > 0 is
its order-0 count convolved with Z_M, the idempotents of rank-0 pieces
alone with q ≡ 0 (mod M) (_twist, _rank0_only).

Every grid kept is a grid of idempotents made of some kinds of piece, named
once in _GRIDS by its route and its pieces: for each kind, the c-value
column it reads and the rows it moves a count on, so that a row is a rank
or, in a grid of M rows, q mod M.  One grower, _grow, grows any of them
column by column through grow_grid: the first-piece recurrence splits off
the piece holding the first point, a binomial convolution of a c-value
column with a row (_piece_entry); the holonomic one, for B and PB, ties a
cell to four predecessors in its row and the row before (_holonomic_entry).
A grid of pieces that read c1 alone is its _C1_TWIN's list, so PB reads
B's.  Where c0 is zero up to n no rank-0 piece fits, so order 1 is order 0
and Z_M is [1]; that is tested per query, and never stored.  Each family
keeps its c-value columns, its grids, its closed rows and its partition
grids in one _FamilyTables.  The partition routes share one sweep over the
integer partitions of n per (family, n): it fills a grid by kernel classes
and rank, and each route is a sum over part of that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import add, mul
from typing import Callable

from .combinat import (
    _GROWING,
    bell,
    e_nrs,
    grow_grid,
    integer_partitions,
    involutions,
    odd_double_factorial,
    pi_count,
    stirling2,
)
from .core import MonoidFamily, as_family
from .errors import DomainError, ParityError
from .idempotency import TwistOrder, as_twist_order


@dataclass(frozen=True)
class CountTable:
    """A finished grid of counts, ready for rendering or comparison.

    entries maps index tuples (e.g. (n,) or (n, r)) to exact values; every
    index in the declared ranges is present.
    """

    kind: str
    family: str
    index_names: tuple[str, ...]
    entries: dict[tuple[int, ...], int] = field(compare=True)


@dataclass
class _FamilyTables:
    """One family's bottom-up tables, each as long as queries have needed."""

    # the c-value columns c0 and c1; column[m - 1] is the value at m
    c: tuple[list[int], list[int]] = field(default_factory=lambda: ([], []))
    # each c-value column's length up to its last nonzero value
    c_support: list[int] = field(default_factory=lambda: [0, 0])
    # the column _weights served last: its index j, the binomial row
    # C(j-1, i) for i below min(j, the longest c_support) and the weight rows
    # made from it so far, by c-value column (None: c0 + c1)
    column: tuple[int, list[int], dict[int | None, list[int]]] = field(
        default_factory=lambda: (1, [1], {})
    )
    # each grid of _GRIDS, [row][n], by its name, or by (name, M) if it has
    # M > 0 rows; and e_rank's closed rows, exi_rank's at order 0 and the
    # partition grids, each by n under its name
    grids: dict = field(default_factory=lambda: {"e_rank closed": {}, "exi_rank closed": {}, "formula": {}})


_TABLES = {fam: _FamilyTables() for fam in MonoidFamily}

_Grid = list[list[int]]
_Pieces = tuple[tuple[int | None, int], ...]  # (c-value column, rows it moves on) of each kind of piece


# --------------------------------------------------------------------------
# polynomials with int coefficients, as plain lists (index = degree)

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --------------------------------------------------------------------------
# c-values: irreducible idempotent counts by rank (0 or 1) per family

def _irreducible(fam: MonoidFamily, n: int) -> tuple[int, int]:
    """(c0, c1) on n >= 1 points, the entries of the c-value table."""
    if fam is MonoidFamily.P:
        cells = [(r * s, e_nrs(n, r, s)) for r in range(1, n + 1) for s in range(1, n + 1)]
        c0 = sum(e for _, e in cells)
        c1 = sum(rs * e for rs, e in cells)
    elif fam is MonoidFamily.B:
        c0, c1 = ((math.factorial(n - 1), 0) if n % 2 == 0 else (0, math.factorial(n)))
    elif fam is MonoidFamily.PB:
        if n % 2 == 0:
            c0, c1 = (n + 1) * math.factorial(n - 1), 0
        else:
            c0, c1 = math.factorial(n), math.factorial(n)
    elif fam is MonoidFamily.T:
        c0, c1 = 0, n
    elif fam is MonoidFamily.I:
        c0, c1 = (1, 1) if n == 1 else (0, 0)
    elif fam is MonoidFamily.IDUAL:
        c0, c1 = 0, 1
    else:  # pragma: no cover - the enum is closed
        raise DomainError(f"unknown family {fam!r}")
    return c0, c1


# Equal c-value columns, read off the cases above: B and PB have one c1
# column (m! at odd m, 0 at even m), so a grid whose pieces read c1 alone is
# the same for both (see _grow).
_C1_TWIN = {MonoidFamily.PB: MonoidFamily.B}


def c_values(f: MonoidFamily | str, n: int) -> tuple[int, int, int]:
    """(c0, c1, c0 + c1): irreducible idempotents on n points of rank 0 and 1."""
    fam = as_family(f)
    if n < 1:
        raise DomainError(f"c-values need n >= 1, got {n}")
    tables = _TABLES[fam]
    columns = tables.c
    if len(columns[0]) < n:
        with _GROWING:
            for m in range(len(columns[0]) + 1, n + 1):
                for which, value in enumerate(_irreducible(fam, m)):
                    columns[which].append(value)
                    if value:
                        tables.c_support[which] = m
            # a longer support may need a longer binomial row (see _weights)
            tables.column = (0, [], {})
    c0, c1 = columns[0][n - 1], columns[1][n - 1]
    return c0, c1, c0 + c1


def _grown(fam: MonoidFamily, n: int) -> _FamilyTables:
    """The family's tables, with the c-value columns grown to n."""
    if n:
        c_values(fam, n)
    return _TABLES[fam]


def _weights(tables: _FamilyTables, which: int | None, j: int) -> list[int]:
    """[C(j-1, m-1)·c[m-1] for m = 1, ..., j], c the c-value column which
    (0: c0, 1: c1, None: c0 + c1): the ways to choose the other m - 1 points
    of the first point's piece and an irreducible piece on them.  The row
    stops at the last nonzero c-value, so I's rows hold one weight.

    Made once per column and c-value column, and only the last column is
    kept, O(j) ints.  The binomial row C(j-1, i) is kept only for i below
    the longest support of the family's c-value columns, so I carries one
    binomial.  The next column's row comes from the last one by Pascal's
    rule; a row the support has outgrown, or any other, is built afresh,
    and c_values drops the carried column when the columns grow.  Only
    code that holds _GROWING calls it.
    """
    col, binomials, rows = tables.column
    if col != j:
        need = min(j, max(tables.c_support))
        if col == j - 1 and len(binomials) >= min(need, j - 1):
            binomials = [1, *map(add, binomials, binomials[1:]), 1]
            # past the support; the trailing 1 is C(j-1, j-1) only when the
            # last row was whole
            del binomials[need:]
        else:
            binomials = [math.comb(j - 1, i) for i in range(need)]
        tables.column = col, binomials, rows = j, binomials, {}
    if which not in rows:
        column = map(add, *tables.c) if which is None else tables.c[which][: tables.c_support[which]]
        rows[which] = list(map(mul, binomials, column))
    return rows[which]


# Every grid kept, by name: its route and its pieces, (c-value column, rows
# it moves on) for each kind of piece, None reading c0 + c1.  A rank-1 piece
# moves a rank grid's count one row on; in a grid of M rows, kept under
# (name, M), a rank-0 piece moves it one row mod M, and row 0 answers.
_GRIDS: dict[str, tuple[str, _Pieces]] = {
    "e_rank": ("recurrence", ((0, 0), (1, 1))),
    "exi_rank": ("recurrence", ((1, 1),)),  # order 0: no rank-0 piece
    "order 0": ("recurrence", ((1, 0),)),  # exi_total
    "order 1": ("recurrence", ((None, 0),)),  # exi_total, and e_total
    "Z": ("recurrence", ((0, 1),)),  # Z_M
    "holonomic 0": ("holonomic", ((1, 0),)),
    "holonomic 1": ("holonomic", ((None, 0),)),
    "holonomic": ("holonomic", ((1, 0), (0, 1))),  # order M > 1
    "holonomic Z": ("holonomic", ((0, 1),)),
}
# the grids whose pieces read c1 alone, each its _C1_TWIN's list (see _grow)
_C1_ALONE = {name for name, (_, pieces) in _GRIDS.items() if all(which == 1 for which, _ in pieces)}


def _cell(fam: MonoidFamily, key: str | tuple[str, int], r: int, n: int) -> int:
    """Cell (r, n) of the family's grid under key, grown there if need be."""
    try:  # a grown cell needs no c-values
        return _TABLES[fam].grids[key][r][n]
    except (KeyError, IndexError):
        return _grow(fam, key, r, n)


def _grow(fam: MonoidFamily, key: str | tuple[str, int], r: int, n: int) -> int:
    """Cell (r, n) of the family's grid under key, after growing rows
    0..max(r, M - 1) of it to column n, M the key's twist order (0 for a
    bare name), by the route _GRIDS gives its name.

    A grid is fixed by its route and the c-value columns its pieces read,
    not by the family that asks: one whose pieces read c1 alone is grown
    from and kept in _C1_TWIN's tables, and the asking family keeps the same
    list.  The holonomic recurrence reads each piece's (Q0, Q1) pair of
    _HOLONOMIC_Q: Q0 for c0, Q1 for c1 and both for None.
    """
    name, M = (key, 0) if isinstance(key, str) else key
    route, pieces = _GRIDS[name]
    owner = _C1_TWIN.get(fam, fam) if name in _C1_ALONE else fam
    grid = _TABLES[fam].grids.get(key)
    if grid is None:
        with _GROWING:
            grid = _TABLES[fam].grids.setdefault(key, _TABLES[owner].grids.setdefault(key, []))
    if route == "holonomic":
        q0, q1 = _HOLONOMIC_Q[owner]
        q = {0: q0, 1: q1, None: tuple(map(add, q0, q1))}
        # summed over the pieces that stay on their row, and those that move
        own = tuple(map(sum, zip((0, 0, 0, 0), *(q[which] for which, d in pieces if not d))))
        marked = tuple(map(sum, zip(*(q[which] for which, d in pieces if d))))
        entry = partial(_holonomic_entry, grid, own, marked)
    else:
        entry = partial(_piece_entry, _grown(owner, n), grid, pieces, M)
    grow_grid(grid, max(r, M - 1), n, entry)
    return grid[r][n]


def _piece_entry(tables: _FamilyTables, grid: _Grid, pieces: _Pieces, M: int, r: int, j: int) -> int:
    """Cell (r, j) of a first-piece grid: zero below the diagonal and 1 at
    (0, 0), the empty diagram.

    Any other idempotent on j points splits into the irreducible piece on
    the m points joined to the first point, taking d of the r ranks, and an
    idempotent of rank r - d on the other j - m, in row (r - d) mod M if
    M > 0.  Each (which, d) in pieces adds that sum over m: the weights of
    c-value column which times that row backwards, stopped where the row
    is still zero (row i below column i) or the weights end.
    """
    if j < r:
        return 0
    if j == 0:
        return 1
    total = 0
    for which, d in pieces:
        src = (r - d) % M if M else r - d
        if 0 <= src < j:
            weights = _weights(tables, which, j)
            rest = grid[src][max(src, j - len(weights)) : j]
            total += sum(map(mul, weights, reversed(rest)))
    return total


# (1 - t²)²·C′ by degree, for the EGF C = Σ c(m)·t^m/m! of each c-value
# column of _irreducible, as the pair (Q0, Q1) for c0 and c1.  B: C0 =
# -½·log(1 - t²) and C1 = t/(1 - t²); PB: C0 is B's plus t/(1 - t), C1 B's
_HOLONOMIC_Q = {
    MonoidFamily.B: ((0, 1, 0, -1), (1, 0, 1, 0)),
    MonoidFamily.PB: ((1, 3, 1, -1), (1, 0, 1, 0)),
}


def _holonomic_entry(grid: _Grid, own: tuple[int, ...], marked: tuple[int, ...], i: int, m: int) -> int:
    """Cell (i, m) of a holonomic grid, B and PB only, whose row i counts
    the idempotents with q = i (mod M) rank-0 pieces, M its number of rows.

    Mark each piece that moves a row with x.  By the exponential formula
    (Flajolet and Sedgewick, Analytic Combinatorics, ch. III) the EGF is
    E = exp(Σ C), summed over the grid's pieces, so E′ = (Σ C′)·E; times
    (1 - t²)², (1 - 2t² + t⁴)·E′ = (x·marked + own)·E, own and marked the
    Q of the pieces that stay on their row and of those that move, summed
    (see _grow).  The coefficient of t^n/n! in t^k·F is n^(k)·f(n-k),
    n^(k) = n(n-1)...(n-k+1), so for own

        e(n+1) = q0·e(n) + (q1·n^(1) + 2·n^(2))·e(n-1) + q2·n^(2)·e(n-2)
                 + (q3·n^(3) - n^(4))·e(n-3)

    on the cell's own row (n^(k) = 0 at n < k), plus the same sum for marked
    without E′'s 2·n^(2) and n^(4) on row i - 1, as x moves a count one row
    on; row 0 wraps to row M - 1.  The series is D-finite (Stanley, European
    J. Combin. 1980).  A cell costs at most eight products of a big int by a
    small one.
    """
    if m == 0:
        return int(i == 0)  # the empty diagram, with no rank-0 piece
    n = m - 1
    f2 = n * (n - 1)
    f3 = f2 * (n - 2)
    start = max(n - 3, 0)
    coefficients = (own[0], own[1] * n + 2 * f2, own[2] * f2, (own[3] - n + 3) * f3)
    total = sum(map(mul, coefficients, reversed(grid[i][start:m])))
    if marked:  # grid[-1] is row M - 1
        coefficients = (marked[0], marked[1] * n, marked[2] * f2, marked[3] * f3)
        total += sum(map(mul, coefficients, reversed(grid[i - 1][start:m])))
    return total


def _partition_grid(fam: MonoidFamily, n: int) -> list[list[int]]:
    """grid[k][r]: idempotents on n points with k kernel classes and rank r,
    summed over the integer partitions of n.

    A partition with k parts is the shape of the kernel; pi_count labels
    it, and each part of size m holds an irreducible idempotent of rank 0
    (c0(m) ways) or of rank 1 (c1(m) ways).

    The factor (c0 + c1·x)^mult of mult parts of one size is made once per
    (size, mult) in a sweep, by its binomial row trimmed to its nonzero
    span lo..hi: from degree mult if c0 is zero, to degree 0 if c1 is.  A
    one-term factor (all of B's, T's and Idual's) joins one scalar; the
    product, from the first two-term factor on, starts at degree Σ lo, and
    with no two-term factor it is one cell.  A factor with c0 = c1 = 0 is
    empty, as is every part above 1 of I: the partition counts nothing and
    is left before pi_count.  Every other partition adds its own term,
    weighted by pi_count, to row k, its parts counted as read; regrouped by
    part size, the factors would be the recurrences' exponential formula.
    """
    grids = _TABLES[fam].grids["formula"]
    if n not in grids:
        c0s, c1s = _grown(fam, n).c
        grid = [[0] * (k + 1) for k in range(n + 1)]
        factors: dict[tuple[int, int], tuple[int, list[int]]] = {}  # this sweep's only
        for spec in integer_partitions(n):
            poly, scale, low, k = None, 1, 0, 0
            for i, mult in enumerate(spec.parts):
                if mult:
                    entry = factors.get((i, mult))
                    if entry is None:
                        c0, c1 = c0s[i], c1s[i]
                        lo, hi = (0 if c0 else mult), (mult if c1 else 0)
                        factors[i, mult] = entry = lo, [
                            math.comb(mult, j) * c0 ** (mult - j) * c1**j for j in range(lo, hi + 1)
                        ]
                    lo, factor = entry
                    if not factor:
                        break
                    if len(factor) == 1:
                        scale *= factor[0]
                    else:
                        poly = factor if poly is None else _poly_mul(poly, factor)
                    low += lo
                    k += mult
            else:
                weight, row = pi_count(spec) * scale, grid[k]
                if poly is None:
                    row[low] += weight
                else:
                    for r, coef in enumerate(poly, low):
                        row[r] += weight * coef
        grids[n] = grid
    return grids[n]


# --------------------------------------------------------------------------
# total idempotent counts

# The routes of each count by family, the default first; verify plays each
# against the recurrence.  e_total has exi_total's (it is order 1).
# Idual's totals keep the recurrence, whose one order-0 row answers every
# twist order, though combinat.bell costs less for one total (about 2 ms
# against 10 ms at n = 250).
ROUTES: dict[str, dict[MonoidFamily, tuple[str, ...]]] = {
    "exi_total": {
        MonoidFamily.P: ("recurrence", "formula"),
        MonoidFamily.B: ("holonomic", "recurrence", "formula"),
        MonoidFamily.PB: ("holonomic", "recurrence", "formula"),
        MonoidFamily.T: ("closed", "recurrence", "formula"),
        MonoidFamily.I: ("closed", "recurrence", "formula"),
        MonoidFamily.IDUAL: ("recurrence", "formula"),
    },
    "e_rank": {
        MonoidFamily.P: ("recurrence", "mu_sum"),
        MonoidFamily.B: ("closed", "recurrence", "mu_sum"),
        MonoidFamily.PB: ("closed", "recurrence", "mu_sum"),
        MonoidFamily.T: ("closed", "recurrence", "mu_sum"),
        MonoidFamily.I: ("closed", "recurrence", "mu_sum"),
        MonoidFamily.IDUAL: ("closed", "recurrence", "mu_sum"),
    },
    "exi_rank": {
        fam: ("recurrence",) if fam is MonoidFamily.P else ("closed", "recurrence") for fam in MonoidFamily
    },
}
# bound once, so a warm default hit finds its route in one subscript
_TOTAL_ROUTES = ROUTES["exi_total"]
_RANK_ROUTES = ROUTES["e_rank"]
_TWISTED_RANK_ROUTES = ROUTES["exi_rank"]


def _route(count: str, fam: MonoidFamily, method: str | None) -> str:
    """method, or the count's default for the family when it is None; a
    method ROUTES does not list for the family raises DomainError."""
    routes = ROUTES[count][fam]
    if method is None:
        return routes[0]
    if method not in routes:
        raise DomainError(f"{count} has no route {method!r} for family {fam.value}, only {', '.join(routes)}")
    return method


def e_total(f: MonoidFamily | str, n: int, method: str | None = None) -> int:
    """Number of idempotents in the family's monoid on n strands:
    exi_total at twist order 1, which annihilates every exponent, by any
    of its routes (ROUTES["exi_total"]), the first when method is None."""
    return exi_total(f, n, 1, method)


# --------------------------------------------------------------------------
# per-rank idempotent counts

def e_rank(f: MonoidFamily | str, n: int, r: int, method: str | None = None) -> int:
    """Number of idempotents of rank exactly r.

    method is one of the family's ROUTES["e_rank"], the first when None:
    "closed" (every family but P, one row of every rank per n; see
    _egf_rank_row), "recurrence" (the rank grid, whose cells serve every
    later query; P's default) or "mu_sum" (a sum over the integer
    partitions of n).
    """
    fam = as_family(f)
    if n < 0 or not 0 <= r <= n:
        raise DomainError(f"e_rank needs 0 <= r <= n, got n={n} r={r}")
    # a warm default hit reads its row here, with no helper call
    method = _RANK_ROUTES[fam][0] if method is None else _route("e_rank", fam, method)
    if method == "closed":
        try:
            return _TABLES[fam].grids["e_rank closed"][n][r]
        except KeyError:
            return _closed_row(fam, n)[r]
    if method == "recurrence":
        return _cell(fam, "e_rank", r, n)
    return sum(row[r] for row in _partition_grid(fam, n)[r:])


def _closed_row(fam: MonoidFamily, n: int) -> list[int]:
    """The family's closed rank row at n, made once and kept."""
    rows = _TABLES[fam].grids["e_rank closed"]
    if n not in rows:
        rows[n] = _egf_rank_row(fam, n)
    return rows[n]


def _egf_rank_row(fam: MonoidFamily, n: int) -> list[int]:
    """row[r] = e_rank(n, r) for r = 0..n, any family but P, read off the
    bivariate EGF of the rank grid: e_rank's closed route.

    The first-piece recurrence marks each rank-1 piece with x, so by the
    exponential formula (Flajolet and Sedgewick, Analytic Combinatorics,
    ch. II and III) the grid is e(n, r) = n!·[t^n x^r] exp(C0(t) + x·C1(t)),
    C0 and C1 being the EGFs Σ c(m)·t^m/m! of the c-value columns, and so
    e(n, r) = n!/r!·[t^n] exp(C0)·C1^r.

    B: c0 = (m-1)! at even m and c1 = m! at odd m, so C0 = -½·log(1 - t²)
    and C1 = t/(1 - t²).  With n - r = 2k that is n!/r!·[t^2k]
    (1 - t²)^-(r+½) = n!/(r!·k!·2^k)·Π_{l<k}(2r + 2l + 1), and n!/(r!·k!·2^k)
    = C(n, r)·(2k - 1)!!, so e(n, r) = C(n, r)·Π_{l<k}(2l + 1)(2r + 2l + 1);
    it is zero when n - r is odd.

    PB: c0 = (m+1)·(m-1)! = m! + (m-1)! at even m and m! at odd m, so
    C0 = t/(1 - t) - ½·log(1 - t²), and C1 is B's.  So e(n, r) = C(n, r)
    ·h_r(n - r), h_r(m) being m!·[t^m] H_r with H_r = exp(t/(1 - t))
    ·(1 - t²)^-(r+½), which is D-finite (Stanley, European J. Combin. 1980).
    From log H_0 = t/(1 - t) - ½·log(1 - t²), H_0′/H_0 = 1/(1 - t)²
    + t/(1 - t²), and over the common denominator (1 - t)(1 - t²)·H_0′ =
    (1 + 2t - t²)·H_0; the coefficient of t^m times m! reads h_0(m+1) =
    (m+1)·h_0(m) + m(m+1)·h_0(m-1) - m(m-1)²·h_0(m-2), from h_0(0) = 1 and
    h_0(-1) = h_0(-2) = 0.  Each rank up divides by 1 - t²: (1 - t²)·H_r+1
    = H_r reads h_r+1(m) = h_r(m) + m(m-1)·h_r+1(m-2), stepped in place in
    ascending m.

    T: c1 = m and c0 = 0, so C1 = t·e^t and e(n, r) = C(n, r)·r^(n-r), an
    image of r fixed points and a map of the rest into it (0^0 = 1).  The
    row sums to Tainiter's count (1968), T's closed total.

    I: c0 = c1 = 1 at m = 1 only, so C0 = C1 = t and e(n, r) = C(n, r).

    Idual: c0 = 0 and c1 = 1, so C0 = 0 and C1 = e^t - 1, and e(n, r) =
    n!/r!·[t^n] (e^t - 1)^r = S(n, r), the Stirling number of the second
    kind: a partition of the n points into r blocks, each block one piece.

    A row of any of them costs O(n²) products of a big int by a small one
    (Idual's from combinat's Stirling triangle), against O(n³) for the rank
    grid.
    """
    if fam is MonoidFamily.B:
        return [
            math.comb(n, r) * math.prod(map(mul, range(1, n - r, 2), range(2 * r + 1, n + r, 2)))
            if (n - r) % 2 == 0 else 0
            for r in range(n + 1)
        ]
    if fam is MonoidFamily.PB:
        free = [1]  # h_r(m) for m = 0..n - r, from r = 0
        h, h1, h2 = 1, 0, 0
        for m in range(n):
            h, h1, h2 = (m + 1) * h + m * (m + 1) * h1 - m * (m - 1) * (m - 1) * h2, h, h1
            free.append(h)
        row = []
        for r in range(n + 1):
            row.append(math.comb(n, r) * free[n - r])
            for m in range(2, n - r):  # h_r+1(m - 2) is in place before h_r+1(m)
                free[m] += m * (m - 1) * free[m - 2]
        return row
    if fam is MonoidFamily.T:
        return [math.comb(n, r) * r ** (n - r) for r in range(n + 1)]
    if fam is MonoidFamily.I:
        return [math.comb(n, r) for r in range(n + 1)]
    # Idual; the top rank first grows the Stirling triangle column by column
    return [stirling2(n, r) for r in range(n, -1, -1)][::-1]


# --------------------------------------------------------------------------
# R-class-count prefactors

def rho(
    f: MonoidFamily | str,
    n: int,
    r: int | None = None,
    t: int | None = None,
) -> int:
    """Number of R-classes: of rank 0 when r is absent; of the rank-r
    D-class of the Brauer monoid when r is given; of the (r, t) stratum of
    the partial Brauer monoid when both r and t are given.
    """
    fam = as_family(f)
    if n < 0:
        raise DomainError(f"rho needs n >= 0, got {n}")
    if r is None:
        if t is not None:
            raise DomainError("rho with t requires r")
        if fam is MonoidFamily.P:
            return bell(n)
        if fam is MonoidFamily.B:
            if n % 2:
                return 0
            return odd_double_factorial(n - 1)
        if fam is MonoidFamily.PB:
            return involutions(n)
        raise DomainError(f"rank-0 R-class count not defined for {fam.value}")
    if not 0 <= r <= n:
        raise DomainError(f"rho needs 0 <= r <= n, got n={n} r={r}")
    if t is None:
        if fam is not MonoidFamily.B:
            raise DomainError(f"rho(n, r) applies to family B, not {fam.value}")
        if (n - r) % 2:
            raise ParityError(f"n - r must be even, got n={n} r={r}")
        k = (n - r) // 2
        return math.comb(n, r) * odd_double_factorial(2 * k - 1)
    if fam is not MonoidFamily.PB:
        raise DomainError(f"rho(n, r, t) applies to family PB, not {fam.value}")
    if t < 0 or r + t > n:
        raise DomainError(f"rho needs t >= 0 and r + t <= n, got n={n} r={r} t={t}")
    if (n - r - t) % 2:
        raise ParityError(f"n - r - t must be even, got n={n} r={r} t={t}")
    k = (n - r - t) // 2
    return math.comb(n, r) * math.comb(n - r, t) * odd_double_factorial(2 * k - 1)


# --------------------------------------------------------------------------
# per-R-class idempotent counts
#
# Each table below is indexed [r][k] with n = r + 2k (n = r + t + 2k for
# a_nrt), and all satisfy G(r, k) = G(r - 1, k) + 2k·G(r, k - 1): the last
# point is a transversal or is paired off with one of the 2k free points.
# They differ only in their rank-0 row.

_A_NR: list[list[int]] = []
_B_NR: list[list[int]] = []
_A_NRT: dict[int, list[list[int]]] = {}  # one table per t


def _rclass(grid: list[list[int]], rank0: Callable[[int], int], r: int, k: int) -> int:
    def entry(row: int, col: int) -> int:
        if row == 0:
            return rank0(col)
        below = grid[row - 1][col]
        return below + 2 * col * grid[row][col - 1] if col else below

    return grow_grid(grid, r, k, entry)


def a_nr(n: int, r: int) -> int:
    """Idempotents in one R-class of the rank-r D-class of the Brauer monoid."""
    if n < 0 or r < 0 or r > n or (n - r) % 2:
        raise ParityError(f"need 0 <= r <= n with n = r (mod 2), got n={n} r={r}")
    return _rclass(_A_NR, lambda k: odd_double_factorial(2 * k - 1), r, (n - r) // 2)


def a_nrt(n: int, r: int, t: int) -> int:
    """Idempotents in one R-class of the partial Brauer monoid, indexed by
    rank r and the number t of idle points in the class's upper half."""
    if n < 0 or r < 0 or t < 0 or r + t > n or (n - r - t) % 2:
        raise ParityError(
            f"need r, t >= 0 and r + t <= n with n = r + t (mod 2), got n={n} r={r} t={t}"
        )
    grid = _A_NRT.setdefault(t, [])
    return _rclass(grid, lambda k: involutions(t + 2 * k), r, (n - r - t) // 2)


def b_nr(n: int, r: int) -> int:
    """Twisted (no finite order) idempotents in one Brauer R-class of rank r."""
    if n < 0 or r < 0 or r > n or (n - r) % 2:
        raise ParityError(f"need 0 <= r <= n with n = r (mod 2), got n={n} r={r}")
    return _rclass(_B_NR, lambda k: 0 if k else 1, r, (n - r) // 2)


# --------------------------------------------------------------------------
# twisted-algebra counts

def exi_total(f: MonoidFamily | str, n: int, t: TwistOrder | int = 0, method: str | None = None) -> int:
    """Number of twisted idempotents for the given twist order; at order 1,
    which annihilates every exponent, the number of idempotents (e_total).

    method is one of the family's ROUTES["exi_total"], the first when None:
    "formula" (a sum over the integer partitions of n, O(p(n)) terms),
    "recurrence" (O(n) convolutions), "holonomic" (B and PB, O(M·n) small
    products at order M; see _holonomic_entry) or "closed" (T and I).  The
    formula keeps the grid cells whose self-product exponent, kernel classes
    minus rank, the twist annihilates; that exponent is the number q of
    rank-0 pieces, which the holonomic grid counts mod M.  The recurrence
    reads a one-row grid of _GRIDS at orders 0 and 1 and convolves order
    0's with Z_M above them (_twist).  The closed form: T has no rank-0
    piece, so every order is its closed rank row summed, Tainiter's
    Σ C(n, k)·k^(n-k); I's rank-0 pieces are its idle points, so order M is
    Σ_{q ≡ 0 (mod M)} C(n, q): 1 at order 0, and 2^n, the partial
    identities, at order 1.
    """
    fam = as_family(f)
    M = as_twist_order(t).M
    if n < 0:
        raise DomainError(f"exi_total needs n >= 0, got {n}")
    method = _TOTAL_ROUTES[fam][0] if method is None else _route("exi_total", fam, method)
    if method == "recurrence":
        if M > 1:
            return _twist(fam, n, n, M, method, partial(_cell, fam, "order 0", 0))
        # where c0 is zero up to n no rank-0 piece fits, so order 1 is
        # order 0; once c0 has a nonzero value, the test grows no c-values
        if M and not _TABLES[fam].c_support[0] and not _grown(fam, n).c_support[0]:
            M = 0
        return _cell(fam, "order 1" if M else "order 0", 0, n)
    if method == "holonomic":
        M = M if M <= n else 0  # q <= n, so an order above n is order 0
        return _cell(fam, ("holonomic", M) if M > 1 else "holonomic 1" if M else "holonomic 0", 0, n)
    if method == "closed":
        if fam is MonoidFamily.T:
            return sum(_closed_row(fam, n))
        return 2**n if M == 1 else sum(map(math.comb, repeat(n), range(0, n + 1, M))) if M else 1
    grid = _partition_grid(fam, n)
    if M == 1:  # every cell, with no slice per row
        return sum(map(sum, grid))
    # row k's rank-r cell has exponent k - r, annihilated where r = k (mod M)
    return sum(sum(row[k % M :: M]) if M else row[k] for k, row in enumerate(grid))


def _twist(fam: MonoidFamily, n: int, m: int, M: int, method: str, order0: Callable[[int], int]) -> int:
    """Σ_j C(n, j)·Z_M(j)·order0(n - j) for j = 0..m, M > 0: by the
    exponential formula an idempotent at twist order M is its q rank-0
    pieces, M | q, on some j points (Z_M, by the method's route; see
    _rank0_only) and an idempotent on the other n - j points with no
    rank-0 piece, counted by order0.  m bounds j: n for a total, n - r at
    rank r, whose r rank-1 pieces take r points."""
    zero = _rank0_only(fam, m, M, method)
    return sum(math.comb(n, j) * z * order0(n - j) for j, z in enumerate(zero) if z)


def exi_rank(f: MonoidFamily | str, n: int, r: int, t: TwistOrder | int = 0,
             method: str | None = None) -> int:
    """Twisted idempotents of rank exactly r for the given twist order.

    method is one of the family's ROUTES["exi_rank"], the first when None:
    "closed" (see _closed_twisted) or "recurrence" (the first-piece grid of
    rank-1 pieces), at order 0, where no piece has rank 0.  At order M > 0
    the q rank-0 pieces, M | q, cover j <= n - r points, so exi_rank(n, r, M)
    = Σ_j C(n, j)·Z_M(j)·exi_rank(n - j, r, 0) (_twist; each factor by the
    method's route): an order above n - r is order 0, and order 1 e_rank.
    """
    fam = as_family(f)
    M = as_twist_order(t).M
    if n < 0 or not 0 <= r <= n:
        raise DomainError(f"exi_rank needs 0 <= r <= n, got n={n} r={r}")
    # a warm default hit at order 0 reads its row here, with no helper call
    method = _TWISTED_RANK_ROUTES[fam][0] if method is None else _route("exi_rank", fam, method)
    if 0 < M <= n - r:
        order0 = (partial(_closed_twisted, fam, r=r) if method == "closed"
                  else partial(_cell, fam, "exi_rank", r))
        return _twist(fam, n, n - r, M, method, order0)
    grids = _TABLES[fam].grids
    try:
        return grids["exi_rank closed"][n][r] if method == "closed" else grids["exi_rank"][r][n]
    except (KeyError, IndexError):
        pass
    if method == "closed":
        row = grids["exi_rank closed"][n] = [_closed_twisted(fam, n, s) for s in range(n + 1)]
        return row[r]
    return _grow(fam, "exi_rank", r, n)


def _closed_twisted(fam: MonoidFamily, n: int, r: int) -> int:
    """exi_rank's closed cell at order 0, any family but P: n!/r!·[t^n] C1^r,
    _egf_rank_row's cell with C0 = 0.  B and PB: C1 = t/(1 - t²), so it is
    n!/r!·C(r + k - 1, k) at n - r = 2k and r >= 1, and [n = 0] at r = 0; T
    and Idual, whose C0 is 0: e_rank's closed cell; I: C1 = t, so [r = n]."""
    if fam is MonoidFamily.T or fam is MonoidFamily.IDUAL:
        return _closed_row(fam, n)[r]
    k, odd = divmod(n - r, 2)
    if odd or not r or fam is MonoidFamily.I:
        return int(r == n)
    return math.perm(n, 2 * k) * math.comb(r + k - 1, k)


def _rank0_only(fam: MonoidFamily, m: int, M: int, method: str) -> list[int]:
    """Z_M(j) for j = 0..m, M > 0, zero past the list's end: the idempotents
    on j points of rank-0 pieces alone, q ≡ 0 (mod M) of them.  q <= j, so
    it is [1] when M > m, and also when c0 is zero up to m, where no rank-0
    piece fits.  Else row 0 of a grid of M rows of rank-0 pieces kept per
    order: the holonomic one for the closed route of B and PB, else the
    first-piece one."""
    holonomic = method == "closed" and fam in _HOLONOMIC_Q
    # as in exi_total, once c0 has a nonzero value no c-values are grown
    if M > m or not (holonomic or _TABLES[fam].c_support[0] or _grown(fam, m).c_support[0]):
        return [1]
    key = ("holonomic Z" if holonomic else "Z", M)
    _cell(fam, key, 0, m)
    return _TABLES[fam].grids[key][0][: m + 1]


# --------------------------------------------------------------------------
# derived helpers
#
# Each asks for its highest rank first.  For P, whose default is the rank
# grid, that one query grows every lower row column by column, where the
# lowest rank first would grow one row at a time and remake each column's
# weights for every row; the other families read one closed row.

def completely_regular_count(f: MonoidFamily | str, n: int) -> int:
    """Number of elements lying in a subgroup: r! per idempotent of rank r."""
    fam = as_family(f)
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return sum(math.factorial(r) * e_rank(fam, n, r) for r in range(n, -1, -1))


def ideal_idempotent_count(f: MonoidFamily | str, n: int, r: int) -> int:
    """Idempotents in the ideal of elements of rank at most r."""
    fam = as_family(f)
    if n < 0 or not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got n={n} r={r}")
    return sum(e_rank(fam, n, s) for s in range(r, -1, -1))

"""Exhaustive enumeration of small diagram monoids and direct tallies.

This is the referee for the counting engine: it generates every element of
a monoid, tests idempotency by actually squaring, and tallies by rank and
by R-class signature.  The structural shortcuts are only compared against
squaring, never counted with.  It deliberately knows nothing about the
counting formulas; the only shared ground is the base sequences used to
predict how many elements will stream past (to refuse hopeless requests up
front).

Generation streams deterministically and walks without recursion, keeping
its state in flat lists.  Set partitions come out in lexicographic order of
their restricted growth strings, and matchings pair the smallest free point
with partners in ascending order (for partial matchings the singleton
option comes first), so every walker yields blocks already in canonical
form.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from .combinat import bell, involutions, odd_double_factorial
from .core import (
    Block,
    DiagramPartition,
    MonoidFamily,
    _halves,
    _row,
    as_family,
    family_check,
    lambda_graph,
    multiply,
    profile,
)
from .errors import DomainError, NotBalancedError, TooLargeError
from .idempotency import TwistOrder, as_twist_order, classify_lambda_components, rank_from_components
from .idempotency import is_idempotent_direct, is_idempotent_structural, is_twisted_idempotent

DEFAULT_CAP = 10_000_000

Signature = tuple


def predicted_element_count(f: MonoidFamily | str, n: int) -> int:
    """How many candidates the generator for this family will stream.

    For B and PB this is the monoid's exact size; the embedded families
    are produced by filtering the full stream, so their prediction is the
    stream length, not the family's own cardinality.
    """
    fam = as_family(f)
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if fam is MonoidFamily.B:
        return odd_double_factorial(2 * n - 1)
    if fam is MonoidFamily.PB:
        return involutions(2 * n)
    return bell(2 * n)


def set_partition_blocks(size: int) -> Iterator[tuple[Block, ...]]:
    """All set partitions of {0..size-1}: each point joins a block, in order
    of the blocks' minima, or opens the next one."""
    blocks: list[Block] = []
    joined: list[int] = []  # the block that each placed point joined
    j = 0  # the block the next point joins; len(blocks) opens one
    while True:
        for i in range(len(joined), size):
            if j < len(blocks):
                blocks[j] += (i,)
            else:
                blocks.append((i,))
            joined.append(j)
            j = 0
        yield tuple(blocks)
        while joined:  # move the last point that has a later block to try
            j = joined.pop()
            if len(blocks[j]) > 1:
                blocks[j] = blocks[j][:-1]
                j += 1
                break
            blocks.pop()  # the point had opened the last block
        else:
            return


def _matchings(size: int, partial: bool) -> Iterator[tuple[Block, ...]]:
    """Perfect matchings of {0..size-1}, or partial ones; each block tuple
    is made once and shared by every matching that contains it."""
    free = list(range(size - 1, -1, -1))  # descending: the smallest free point is last
    blocks: list[Block] = []
    partners: list[int] = []  # each block's partner index in free; len(free) for a singleton
    while True:
        while free:
            first = free.pop()
            k = len(free) if partial else len(free) - 1
            blocks.append((first,) if k == len(free) else (first, free.pop(k)))
            partners.append(k)
        yield tuple(blocks)
        while blocks:
            blk, k = blocks.pop(), partners.pop()
            if len(blk) == 2:
                free.insert(k, blk[1])  # the partner goes back to its old index
            if k:  # the next partner up sits just below it
                blocks.append((blk[0], free.pop(k - 1)))
                partners.append(k - 1)
                break
            free.append(blk[0])
        else:
            return


def enumerate_elements(
    f: MonoidFamily | str, n: int, cap: int = DEFAULT_CAP
) -> Iterator[DiagramPartition]:
    """Every element of the monoid, exactly once, in a fixed canonical order.

    Raises TooLargeError before yielding anything when the stream would
    exceed the cap.
    """
    fam = as_family(f)
    # stream sizes never shrink as n grows, so the first size past the cap
    # settles it, without the cost of a count thousands of digits long
    m = min(n, 0)  # the count itself refuses a negative n
    while (predicted := predicted_element_count(fam, m)) <= cap and m < n:
        m += 1
    if predicted > cap:
        streams = f"{predicted} candidates" if m == n else (
            f"at least the {predicted} candidates of {fam.value}_{m}"
        )
        raise TooLargeError(
            f"enumerating {fam.value}_{n} means streaming {streams}, over the cap of {cap}"
        )
    if fam in (MonoidFamily.B, MonoidFamily.PB):
        return map(partial(DiagramPartition, n), _matchings(2 * n, fam is MonoidFamily.PB))
    return (
        a for a in map(partial(DiagramPartition, n), set_partition_blocks(2 * n))
        if fam is MonoidFamily.P or family_check(a, fam)
    )


def green_signature(a: DiagramPartition, side: str = "R") -> Signature:
    """Canonical key deciding the Green relation of the given side.

    Two elements are R-related iff they share upper domain and upper
    kernel; dually for L; H combines both; D is decided by rank alone.
    Domains and kernel classes are in 1-based point labels.
    """
    halves = _halves(a)
    if side == "D":
        return ("D", a.n, sum(1 for upper, lower in halves if upper and lower))
    if side not in ("R", "L", "H"):
        raise DomainError(f"unknown Green side {side!r} (valid: R, L, H, D)")

    upper = _row(halves, 0, a.n) if side != "L" else ()
    lower = _row(halves, 1, a.n) if side != "R" else ()
    return (side, a.n) + upper + lower


@dataclass
class BruteReport:
    """Tallies from one exhaustive sweep.

    r_class_counts has an entry for every R-class signature seen in the
    monoid, keyed (sorted upper domain, upper kernel classes), including
    those containing no idempotent at all; r_class_params maps each key to
    (rank, idle upper points), the stratum labels the per-R-class counting
    theorems are stated in.  twisted_* fields stay empty unless a twist
    order was requested; an idempotent is twisted when the order
    annihilates the number of components its square swallows.
    structural_disagreements lists (test, element) wherever a shortcut
    disagrees with squaring: "structural" on any element; on idempotents,
    "twisted" and, in B and PB, "two-colored graph" (unbalanced, or its
    even-path count is not the rank).
    """

    family: MonoidFamily
    n: int
    twist: int | None
    total_elements: int = 0
    idempotents_total: int = 0
    idempotents_by_rank: dict[int, int] = field(default_factory=dict)
    twisted_total: int = 0
    twisted_by_rank: dict[int, int] = field(default_factory=dict)
    r_class_counts: dict[Signature, int] = field(default_factory=dict)
    r_class_twisted: dict[Signature, int] = field(default_factory=dict)
    r_class_params: dict[Signature, tuple[int, int]] = field(default_factory=dict)
    structural_disagreements: list[tuple[str, DiagramPartition]] = field(default_factory=list)
    elapsed_seconds: float = 0.0


def _graph_rank(a: DiagramPartition) -> int | None:
    """Even-path components of the two-colored graph; None when unbalanced."""
    try:
        return rank_from_components(classify_lambda_components(lambda_graph(a)))
    except NotBalancedError:
        return None


def _r_key(a: DiagramPartition) -> tuple:
    """A key for the R-class of a canonical diagram, read straight off its
    blocks: the upper part of each block that has one, in block order, and
    after each transversal's a None.  The upper parts are the upper kernel
    classes, and the marked ones make up the upper domain, so two elements
    share the key exactly when they share green_signature's R key.  The
    mark is None, which equals no part, so a mark is never taken for one."""
    n = a.n
    key: list = []
    for blk in a.blocks:
        if blk[0] >= n:  # blocks are ordered by minimum: only lower blocks remain
            break
        if blk[-1] < n:
            key.append(blk)
        else:
            key += (blk[: bisect_left(blk, n)], None)
    return tuple(key)


def brute_report(
    f: MonoidFamily | str,
    n: int,
    M: TwistOrder | int | None = None,
    cap: int = DEFAULT_CAP,
) -> BruteReport:
    """Single streaming pass: count everything the acceptance checks need.

    Each element is keyed by _r_key, and squared once by
    is_idempotent_direct.  The first element of each new key gets the
    class's green_signature R key, under which the class is tallied, and
    is profiled for the class's rank and idle points.  Each key keeps one
    entry [R key, rank, idempotents, twisted], which an idempotent updates
    through the lookup its element already made; the per-class tallies are
    written out once, at the end, in order of discovery.  With a twist
    order, each idempotent is squared once more for the number of
    components its square swallows.
    """
    fam = as_family(f)
    order = None if M is None else as_twist_order(M)
    report = BruteReport(family=fam, n=n, twist=None if order is None else order.M)
    use_graph = fam in (MonoidFamily.B, MonoidFamily.PB)
    classes: dict[tuple, list] = {}  # each _r_key's [R key, rank, idempotents, twisted]
    started = time.perf_counter()
    for a in enumerate_elements(fam, n, cap):
        report.total_elements += 1
        key = _r_key(a)
        entry = classes.get(key)
        if entry is None:
            sig = green_signature(a, "R")[2:]
            prof = profile(a)
            idle = sum(
                1 for cls in prof.upper_kernel.classes
                if len(cls) == 1 and cls[0] not in prof.upper_domain
            )
            report.r_class_params[sig] = (prof.rank, idle)
            classes[key] = entry = [sig, prof.rank, 0, 0]
        idempotent = is_idempotent_direct(a)
        if idempotent != is_idempotent_structural(a):
            report.structural_disagreements.append(("structural", a))
        if not idempotent:
            continue
        rank = entry[1]
        report.idempotents_total += 1
        report.idempotents_by_rank[rank] = report.idempotents_by_rank.get(rank, 0) + 1
        entry[2] += 1
        if use_graph and _graph_rank(a) != rank:
            report.structural_disagreements.append(("two-colored graph", a))
        if order is None:
            continue
        twisted = order.annihilates(multiply(a, a)[1])
        if twisted != is_twisted_idempotent(a, order):
            report.structural_disagreements.append(("twisted", a))
        if twisted:
            report.twisted_total += 1
            report.twisted_by_rank[rank] = report.twisted_by_rank.get(rank, 0) + 1
            entry[3] += 1
    for sig, _, idempotents, twisted in classes.values():
        report.r_class_counts[sig] = idempotents
        report.r_class_twisted[sig] = twisted
    report.elapsed_seconds = time.perf_counter() - started
    return report

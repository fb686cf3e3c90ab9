"""Exhaustive enumeration of small diagram monoids and direct tallies.

This is the referee for the counting engine: it generates every element of
a monoid, tests idempotency by actually squaring, and tallies by rank and
by R-class signature.  It deliberately knows nothing about the counting
formulas; the only shared ground is the base sequences used to predict how
many elements will stream past (to refuse hopeless requests up front).

Generation is streaming and deterministic.  Set partitions come out in
lexicographic order of their restricted growth strings, and matchings pair
the smallest free point with partners in ascending order (for partial
matchings the singleton option comes first), so every generator yields
blocks already in canonical form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .combinat import bell, involutions, odd_double_factorial
from .core import (
    Block,
    DiagramPartition,
    MonoidFamily,
    as_family,
    family_check,
    lambda_graph,
    profile,
)
from .errors import DomainError, TooLargeError
from .idempotency import TwistOrder, as_twist_order, is_idempotent_direct, is_twisted_idempotent

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


def set_partition_blocks(size: int) -> Iterator[list[list[int]]]:
    """All set partitions of {0..size-1}, in restricted-growth order.

    Blocks are created in order of their minima and filled ascending, so
    each yielded list is canonical as-is.  The yielded lists are live;
    consumers must copy before mutating or storing.
    """
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[list[list[int]]]:
        if i == size:
            yield blocks
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(0)


def _perfect_matchings(points: tuple[int, ...]) -> Iterator[list[Block]]:
    if not points:
        yield []
        return
    first = points[0]
    rest = points[1:]
    for idx, partner in enumerate(rest):
        for sub in _perfect_matchings(rest[:idx] + rest[idx + 1 :]):
            sub.insert(0, (first, partner))
            yield sub


def _partial_matchings(points: tuple[int, ...]) -> Iterator[list[Block]]:
    if not points:
        yield []
        return
    first = points[0]
    rest = points[1:]
    for sub in _partial_matchings(rest):
        sub.insert(0, (first,))
        yield sub
    for idx, partner in enumerate(rest):
        for sub in _partial_matchings(rest[:idx] + rest[idx + 1 :]):
            sub.insert(0, (first, partner))
            yield sub


def enumerate_elements(
    f: MonoidFamily | str, n: int, cap: int = DEFAULT_CAP
) -> Iterator[DiagramPartition]:
    """Every element of the monoid, exactly once, in a fixed canonical order.

    Raises TooLargeError before yielding anything when the stream would
    exceed the cap.
    """
    fam = as_family(f)
    predicted = predicted_element_count(fam, n)
    if predicted > cap:
        raise TooLargeError(
            f"enumerating {fam.value}_{n} means streaming {predicted} candidates,"
            f" over the cap of {cap}"
        )

    def generate() -> Iterator[DiagramPartition]:
        if fam is MonoidFamily.B:
            for pairs in _perfect_matchings(tuple(range(2 * n))):
                yield DiagramPartition(n, tuple(pairs))
        elif fam is MonoidFamily.PB:
            for blocks in _partial_matchings(tuple(range(2 * n))):
                yield DiagramPartition(n, tuple(blocks))
        elif fam is MonoidFamily.P:
            for blocks in set_partition_blocks(2 * n):
                yield DiagramPartition(n, tuple(tuple(b) for b in blocks))
        else:
            for blocks in set_partition_blocks(2 * n):
                a = DiagramPartition(n, tuple(tuple(b) for b in blocks))
                if family_check(a, fam):
                    yield a

    return generate()


def green_signature(a: DiagramPartition, side: str = "R") -> Signature:
    """Canonical key deciding the Green relation of the given side.

    Two elements are R-related iff they share upper domain and upper
    kernel; dually for L; H combines both; D is decided by rank alone.
    """
    prof = profile(a)
    upper = (tuple(sorted(prof.upper_domain)), prof.upper_kernel.classes)
    lower = (tuple(sorted(prof.lower_domain)), prof.lower_kernel.classes)
    if side == "R":
        return ("R", a.n) + upper
    if side == "L":
        return ("L", a.n) + lower
    if side == "H":
        return ("H", a.n) + upper + lower
    if side == "D":
        return ("D", a.n, prof.rank)
    raise DomainError(f"unknown Green side {side!r} (valid: R, L, H, D)")


@dataclass
class BruteReport:
    """Tallies from one exhaustive sweep.

    r_class_counts has an entry for every R-class signature seen in the
    monoid, including those containing no idempotent at all;
    r_class_params maps each signature to (rank, idle upper points), the
    stratum labels the per-R-class counting theorems are stated in.
    twisted_* fields stay empty unless a twist order was requested.
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
    elapsed_seconds: float = 0.0


def brute_report(
    f: MonoidFamily | str,
    n: int,
    M: TwistOrder | int | None = None,
    cap: int = DEFAULT_CAP,
) -> BruteReport:
    """Single streaming pass: count everything the acceptance checks need.

    Idempotency here is always the direct squaring test; the structural
    shortcut is what this report exists to validate.
    """
    fam = as_family(f)
    order = None if M is None else as_twist_order(M)
    report = BruteReport(family=fam, n=n, twist=None if order is None else order.M)
    started = time.perf_counter()
    use_lambda = fam in (MonoidFamily.B, MonoidFamily.PB)
    for a in enumerate_elements(fam, n, cap):
        report.total_elements += 1
        prof = profile(a)
        if use_lambda:
            sig: Signature = lambda_graph(a).upper_half()
        else:
            sig = green_signature(a, "R")
        if sig not in report.r_class_counts:
            report.r_class_counts[sig] = 0
            report.r_class_twisted[sig] = 0
            idle = sum(
                1
                for cls in prof.upper_kernel.classes
                if len(cls) == 1 and cls[0] not in prof.upper_domain
            )
            report.r_class_params[sig] = (prof.rank, idle)
        if is_idempotent_direct(a):
            report.idempotents_total += 1
            report.idempotents_by_rank[prof.rank] = (
                report.idempotents_by_rank.get(prof.rank, 0) + 1
            )
            report.r_class_counts[sig] += 1
        if order is not None and is_twisted_idempotent(a, order):
            report.twisted_total += 1
            report.twisted_by_rank[prof.rank] = (
                report.twisted_by_rank.get(prof.rank, 0) + 1
            )
            report.r_class_twisted[sig] += 1
    report.elapsed_seconds = time.perf_counter() - started
    return report

"""Naive reference implementations the tests trust more than the package.

Everything here is written the slowest, most obvious way, with different
algorithms than the package uses: set partitions by recursive insertion
(the package generates restricted growth strings), products by breadth
first search over an explicit adjacency map (the package uses union-find),
profiles point by point rather than block by block, involutions by
filtering permutations, the text form by a regular expression per point
(the package reads each point by hand).  Expected values in the tests were
computed with these and then frozen.  The reference_* functions are the
package's own earlier algorithms, kept as referees for the faster ones that
replaced them.
"""

from __future__ import annotations

import math
import re
from itertools import permutations

from diagmon.core import (
    DiagramPartition,
    EquivalenceRelation,
    LambdaGraph,
    MonoidFamily,
    StructuralProfile,
    _halves,
    as_family,
    make_partition,
    multiply,
    profile,
)
from diagmon.counting import c_values
from diagmon.errors import DomainError, NotPartialBrauerError
from diagmon.idempotency import (
    TwistOrder,
    as_twist_order,
    is_idempotent_direct,
    is_idempotent_structural,
    is_twisted_idempotent,
)
from diagmon.oracle import BruteReport, _graph_rank, enumerate_elements, green_signature


def set_partitions(items: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of the given items, by inserting one at a time."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out: list[tuple[tuple[int, ...], ...]] = []
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            out.append(smaller[:i] + (tuple(sorted((first,) + block)),) + smaller[i + 1 :])
        out.append(((first,),) + smaller)
    return [tuple(sorted(p)) for p in out]


_POINT = re.compile(r"(\d+)\s*('?)", re.ASCII)


def naive_parse(text: str) -> DiagramPartition:
    """The text form read in two passes: each point matched whole by a
    regular expression into (label, primed), then turned into a vertex once
    the largest label has fixed n."""
    stripped = text.strip()
    if not stripped:
        return DiagramPartition(0, ())
    raw: list[list[tuple[int, bool]]] = []
    for chunk in stripped.split("|"):
        blk = []
        for token in chunk.split(","):
            token = token.strip()
            m = _POINT.fullmatch(token)
            try:
                label = int(m.group(1)) if m else 0
            except ValueError:  # more digits than the interpreter converts
                label = 0
            if label < 1:
                raise DomainError(f"cannot parse point {token!r}")
            blk.append((label, m.group(2) == "'"))
        raw.append(blk)
    n = max(label for blk in raw for label, _ in blk)
    return make_partition(
        n, [[label - 1 + (n if primed else 0) for label, primed in blk] for blk in raw]
    )


def bfs_components(vertices: list[int], edges: list[tuple[int, int]]) -> list[set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen: set[int] = set()
    components = []
    for start in vertices:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        component = {start}
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    component.add(y)
                    queue.append(y)
        components.append(component)
    return components


def naive_multiply(a: DiagramPartition, b: DiagramPartition) -> tuple[DiagramPartition, int]:
    """Product and middle-component count via explicit graph search.

    Same three-row construction as the package (top 0..n-1, middle n..2n-1,
    bottom 2n..3n-1) but with clique edges and breadth first search instead
    of union-find.
    """
    assert a.n == b.n
    n = a.n
    edges: list[tuple[int, int]] = []
    for blk in a.blocks:
        edges.extend((blk[0], v) for v in blk[1:])
    for blk in b.blocks:
        edges.extend((blk[0] + n, v + n) for v in blk[1:])
    middle_only = 0
    blocks = []
    for component in bfs_components(list(range(3 * n)), edges):
        trace = sorted(v if v < n else v - n for v in component if v < n or v >= 2 * n)
        if trace:
            blocks.append(tuple(trace))
        else:
            middle_only += 1
    return DiagramPartition(n, tuple(sorted(blocks))), middle_only


def naive_is_idempotent(a: DiagramPartition) -> bool:
    return naive_multiply(a, a)[0] == a


def naive_rgs(a: DiagramPartition) -> list[int]:
    """Restricted growth string, point by point: each vertex is labelled by
    the order in which its block is first met, searching the blocks for it."""
    met: list[tuple[int, ...]] = []
    out = []
    for v in range(2 * a.n):
        blk = next(b for b in a.blocks if v in b)
        if blk not in met:
            met.append(blk)
        out.append(met.index(blk))
    return out


def naive_join(
    n: int,
    left: tuple[tuple[int, ...], ...],
    right: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], ...]:
    """Join of two partitions of {1..n} via component search."""
    edges: list[tuple[int, int]] = []
    for blocks in (left, right):
        for blk in blocks:
            edges.extend((blk[0], v) for v in blk[1:])
    components = bfs_components(list(range(1, n + 1)), edges)
    return tuple(sorted(tuple(sorted(c)) for c in components))


def naive_profile(a: DiagramPartition) -> StructuralProfile:
    """Kernels, domains and rank read point by point off the block holding
    each point; the kernel is their naive_join."""
    n = a.n

    def block_of(v: int) -> tuple[int, ...]:
        return next(blk for blk in a.blocks if v in blk)

    upper = tuple(sorted({tuple(w + 1 for w in block_of(x) if w < n) for x in range(n)}))
    lower = tuple(sorted({tuple(w - n + 1 for w in block_of(n + x) if w >= n) for x in range(n)}))
    return StructuralProfile(
        rank=sum(1 for blk in a.blocks if min(blk) < n <= max(blk)),
        upper_domain=frozenset(x + 1 for x in range(n) if max(block_of(x)) >= n),
        lower_domain=frozenset(x + 1 for x in range(n) if min(block_of(n + x)) < n),
        upper_kernel=EquivalenceRelation(n, upper),
        lower_kernel=EquivalenceRelation(n, lower),
        kernel=EquivalenceRelation(n, naive_join(n, upper, lower)),
    )


def naive_family_check(a: DiagramPartition, f: MonoidFamily) -> bool:
    """Membership of T, I or Idual read off naive_profile's domains and kernels."""
    prof = naive_profile(a)
    full = frozenset(range(1, a.n + 1))
    upper_discrete = all(len(c) == 1 for c in prof.upper_kernel.classes)
    lower_discrete = all(len(c) == 1 for c in prof.lower_kernel.classes)
    if f is MonoidFamily.T:
        return prof.upper_domain == full and lower_discrete
    if f is MonoidFamily.I:
        return upper_discrete and lower_discrete
    if f is MonoidFamily.IDUAL:
        return prof.upper_domain == full and prof.lower_domain == full
    raise ValueError(f)


def naive_green_signature(a: DiagramPartition, side: str) -> tuple:
    """The Green key of the given side, assembled from naive_profile."""
    prof = naive_profile(a)
    upper = (tuple(sorted(prof.upper_domain)), prof.upper_kernel.classes)
    lower = (tuple(sorted(prof.lower_domain)), prof.lower_kernel.classes)
    keys = {"R": upper, "L": lower, "H": upper + lower, "D": (prof.rank,)}
    return (side, a.n) + keys[side]


def naive_is_twisted_idempotent(a: DiagramPartition, order: int) -> bool:
    """Idempotent, and the twist annihilates the components its square swallows."""
    product, swallowed = naive_multiply(a, a)
    return product == a and TwistOrder(order).annihilates(swallowed)


def naive_e_nrs(n: int) -> dict[tuple[int, int], int]:
    """Counts of partition pairs with a one-class join, keyed by block counts."""
    everything = set_partitions(tuple(range(1, n + 1)))
    out: dict[tuple[int, int], int] = {}
    for upper in everything:
        for lower in everything:
            if len(naive_join(n, upper, lower)) == 1:
                key = (len(upper), len(lower))
                out[key] = out.get(key, 0) + 1
    return out


def reference_e_pairs(max_n: int) -> list[list[list[int]]]:
    """rows[n][r][s] = e_nrs(n, r, s) for n <= max_n, by the package's
    recurrence taken term by term: three terms from row n - 1, then for
    every m in 1..n-2 and every four block counts one product of two
    cells, with no pairing of m and no packing."""
    rows: list[list[list[int]]] = []
    for n in range(max_n + 1):
        row = [[0] * (n + 1) for _ in range(n + 1)]
        if n < 2:
            if n:
                row[1][1] = 1
            rows.append(row)
            continue
        prev = [cells + [0] for cells in rows[n - 1]] + [[0] * (n + 1)]
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                row[r][s] = s * prev[r - 1][s] + r * prev[r][s - 1] + r * s * prev[r][s]
        for m in range(1, n - 1):
            cm = math.comb(n - 2, m)
            left, right = rows[m], rows[n - 1 - m]
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    x = left[a][b]
                    if not x:
                        continue
                    xa, xb = cm * a * x, cm * b * x
                    for a2 in range(1, n - m):
                        out, ys = row[a + a2], right[a2]
                        for b2 in range(1, n - m):
                            y = ys[b2]
                            if y:
                                out[b + b2] += (xa * b2 + xb * a2) * y
        rows.append(row)
    return rows


def reference_partition_grid(f: MonoidFamily | str, n: int) -> list[list[int]]:
    """grid[k][r] of the partition formula, by set partitions instead of
    integer partitions: every set partition of n points, each block of m
    points an irreducible idempotent of rank 0 (c0(m) ways) or rank 1
    (c1(m) ways), the product of (c0 + c1·x) over the blocks added into
    row len(blocks).  No integer partition and no pi_count."""
    grid = [[0] * (k + 1) for k in range(n + 1)]
    for blocks in set_partitions(tuple(range(n))):
        poly = [1]
        for block in blocks:
            c0, c1, _ = c_values(f, len(block))
            poly = [c0 * a + c1 * b for a, b in zip(poly + [0], [0] + poly)]
        row = grid[len(blocks)]
        for r, coef in enumerate(poly):
            row[r] += coef
    return grid


def naive_involutions(n: int) -> int:
    """Permutations equal to their own inverse, counted one by one."""
    return sum(
        1
        for p in permutations(range(n))
        if all(p[p[i]] == i for i in range(n))
    )


def naive_stirling2(n: int, r: int) -> int:
    return sum(1 for p in set_partitions(tuple(range(n))) if len(p) == r)


def _reference_join(a: DiagramPartition):
    """The kernel join as the package made it before its one-pass join: each
    block cut by _halves into (upper part, lower part), and a union-find on
    the points 0..n-1 joining each part's first point to the others, a lower
    point v as v - n.  Returns the halves, the parents and the find."""
    n = a.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    halves = _halves(a)
    for upper, lower in halves:
        for v in upper[1:]:
            parent[find(v)] = find(upper[0])
        for v in lower[1:]:
            parent[find(v - n)] = find(lower[0] - n)
    return halves, parent, find


def reference_kernel_excess(a: DiagramPartition) -> int | None:
    """Kernel classes minus rank, or None when some transversal's two halves
    lie in two classes or some class holds two transversals, on
    _reference_join."""
    n = a.n
    halves, parent, find = _reference_join(a)
    holding: set[int] = set()
    for upper, lower in halves:
        if upper and lower:
            root = find(upper[0])
            if root != find(lower[0] - n) or root in holding:
                return None
            holding.add(root)
    return sum(1 for x in range(n) if parent[x] == x) - len(holding)


def reference_kernel_classes(a: DiagramPartition) -> list[list[int]]:
    """The kernel classes on the points 0..n-1, grouped in point order by
    their root in _reference_join."""
    _, _, find = _reference_join(a)
    classes: dict[int, list[int]] = {}
    for x in range(a.n):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def reference_lambda_graph(a: DiagramPartition) -> LambdaGraph:
    """lambda_graph as the package made it before it read each block by its
    ends: every block cut by _halves into (upper part, lower part)."""
    n = a.n
    red_edges: list[tuple[int, int]] = []
    red_loops: list[int] = []
    blue_edges: list[tuple[int, int]] = []
    blue_loops: list[int] = []
    for upper, lower in _halves(a):
        if len(upper) + len(lower) > 2:
            raise NotPartialBrauerError(
                f"block of size {len(upper) + len(lower)} (partial Brauer blocks have at most 2 points)"
            )
        if len(upper) == 2:
            red_edges.append((upper[0] + 1, upper[1] + 1))
        elif len(lower) == 2:
            blue_edges.append((lower[0] - n + 1, lower[1] - n + 1))
        elif not lower:
            red_loops.append(upper[0] + 1)
        elif not upper:
            blue_loops.append(lower[0] - n + 1)
    return LambdaGraph(n, tuple(red_edges), tuple(red_loops), tuple(blue_edges), tuple(blue_loops))


def reference_brute_report(f: MonoidFamily | str, n: int, M: int | None = None) -> BruteReport:
    """brute_report as the package made it before it keyed R-classes off the
    blocks: green_signature's R key for every element."""
    fam = as_family(f)
    order = None if M is None else as_twist_order(M)
    report = BruteReport(family=fam, n=n, twist=M)
    for a in enumerate_elements(fam, n):
        report.total_elements += 1
        sig = green_signature(a, "R")[2:]
        if sig not in report.r_class_params:
            prof = profile(a)
            idle = sum(
                1 for cls in prof.upper_kernel.classes
                if len(cls) == 1 and cls[0] not in prof.upper_domain
            )
            report.r_class_params[sig] = (prof.rank, idle)
            report.r_class_counts[sig] = report.r_class_twisted[sig] = 0
        idempotent = is_idempotent_direct(a)
        if idempotent != is_idempotent_structural(a):
            report.structural_disagreements.append(("structural", a))
        if not idempotent:
            continue
        rank = report.r_class_params[sig][0]
        report.idempotents_total += 1
        report.idempotents_by_rank[rank] = report.idempotents_by_rank.get(rank, 0) + 1
        report.r_class_counts[sig] += 1
        if fam in (MonoidFamily.B, MonoidFamily.PB) and _graph_rank(a) != rank:
            report.structural_disagreements.append(("two-colored graph", a))
        if order is None:
            continue
        twisted = order.annihilates(multiply(a, a)[1])
        if twisted != is_twisted_idempotent(a, order):
            report.structural_disagreements.append(("twisted", a))
        if twisted:
            report.twisted_total += 1
            report.twisted_by_rank[rank] = report.twisted_by_rank.get(rank, 0) + 1
            report.r_class_twisted[sig] += 1
    return report

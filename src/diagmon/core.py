"""Diagram partitions, their product, and their structural invariants.

An element of the partition monoid on n strands is a set partition of 2n
points: n on an upper row and n on a lower row.  We store the points as
plain integers 0..2n-1, where i < n encodes the upper point i+1 and n+i
encodes the lower point (i+1)'.  With that encoding a diagram is nothing
but a set partition, and the canonical form (each block sorted ascending,
blocks ordered by their minimum) makes equality, hashing and text output
cheap.  n = 0 is legal and denotes the empty diagram.

Multiplication stacks two diagrams: the lower row of the first is glued to
the upper row of the second, and the product blocks are read off the
connected components of the resulting three-row graph.  Components trapped
entirely in the glued middle row leave no trace in the product; their count
is returned alongside it, because the twisted variants of the diagram
algebra raise a scalar to exactly that power.

Human-readable labels (the text format, kernels, domains) are 1-based:
upper points are written 1..n and lower points 1'..n'.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import (
    CoverageError,
    DimensionMismatchError,
    DomainError,
    EmptyBlockError,
    NotDecomposableError,
    NotPartialBrauerError,
    OverlapError,
    VertexRangeError,
)

Block = tuple[int, ...]


class MonoidFamily(str, Enum):
    """Selector for the monoid a computation is about.

    P is the full partition monoid, B the Brauer monoid (all blocks of size
    exactly 2), PB the partial Brauer monoid (blocks of size at most 2).
    T, I and IDUAL are the copies of the full transformation monoid, the
    symmetric inverse monoid and its dual that sit inside P: full upper
    domain with discrete lower kernel, both kernels discrete, and both
    domains full, respectively.
    """

    P = "P"
    B = "B"
    PB = "PB"
    T = "T"
    I = "I"  # noqa: E741 - the family really is called I
    IDUAL = "Idual"


_FAMILY_BY_NAME = {fam.value: fam for fam in MonoidFamily}


def as_family(f: MonoidFamily | str) -> MonoidFamily:
    """The family itself, or the family with this name; DomainError otherwise.

    Names are looked up in a dict: an Enum call costs about as much as a
    warm count."""
    if isinstance(f, MonoidFamily):
        return f
    try:
        return _FAMILY_BY_NAME[f]
    except (KeyError, TypeError):  # TypeError: an unhashable f
        raise DomainError(f"unknown family {f!r}") from None


@dataclass(frozen=True, slots=True)
class DiagramPartition:
    """A set partition of {0,..,2n-1} held in canonical form.

    Instances are produced by make_partition / parse_diagram / multiply and
    are assumed canonical; the constructor itself does not validate.
    """

    n: int
    blocks: tuple[Block, ...]

    def __str__(self) -> str:
        return format_diagram(self)


@dataclass(frozen=True, slots=True)
class EquivalenceRelation:
    """A partition of {1,..,n}, canonical like diagram blocks: a kernel of
    a profile.  It joins nothing; the kernel join is _kernel's."""

    n: int
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class StructuralProfile:
    """Rank, domains and kernels of a diagram, all in 1-based point labels."""

    rank: int
    upper_domain: frozenset[int]
    lower_domain: frozenset[int]
    upper_kernel: EquivalenceRelation
    lower_kernel: EquivalenceRelation
    kernel: EquivalenceRelation


@dataclass(frozen=True, slots=True)
class LambdaGraph:
    """Two-colored, loop-decorated graph on the points 1..n of a partial
    Brauer element.

    Red records the upper row: an edge for each 2-point upper block, a loop
    at each singleton upper block.  Blue does the same for the lower row.
    A vertex with no red item is an upper transversal endpoint (likewise
    blue/lower).  Every vertex carries at most one red and at most one blue
    item; edge and loop lists are kept sorted so the graph is hashable and
    canonical.
    """

    n: int
    red_edges: tuple[tuple[int, int], ...]
    red_loops: tuple[int, ...]
    blue_edges: tuple[tuple[int, int], ...]
    blue_loops: tuple[int, ...]


# --------------------------------------------------------------------------
# construction and text format

def make_partition(n: int, blocks: Iterable[Iterable[int]]) -> DiagramPartition:
    """Validate raw blocks as a partition of {0,..,2n-1} and canonicalize.

    Raises EmptyBlockError, VertexRangeError, OverlapError or CoverageError
    when the input is not a partition: the first bad point met block by
    block, each block sorted, and only then the first vertex in no block.
    The checks hold only the points given, so a huge n costs nothing until
    the blocks really cover it.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    seen: set[int] = set()
    canon: list[Block] = []
    for raw in blocks:
        blk = tuple(sorted(raw))
        if not blk:
            raise EmptyBlockError("empty block")
        for v in blk:
            if not 0 <= v < 2 * n:
                raise VertexRangeError(f"vertex {v} outside 0..{2 * n - 1}")
            if v in seen:
                raise OverlapError(f"vertex {v} appears more than once")
            seen.add(v)
        canon.append(blk)
    if len(seen) < 2 * n:  # the first gap in the sorted points, or just past them
        missing = next((v for v, w in enumerate(sorted(seen)) if v != w), len(seen))
        raise CoverageError(f"vertex {missing} is in no block")
    canon.sort()  # blocks are disjoint, so this orders them by minimum
    return DiagramPartition(n, tuple(canon))


def identity(n: int) -> DiagramPartition:
    """The identity diagram: each upper point joined to its lower twin."""
    return DiagramPartition(n, tuple((i, n + i) for i in range(n)))


# "1".."n", "1'".."n'" for the last n formatted: they depend on n alone, so
# every caller may share them
_names: list[str] = []


def format_diagram(a: DiagramPartition) -> str:
    """Canonical text form, e.g. ``1,4|2,3,4',5'|5,6|1',3',6'|2'``.

    The empty diagram (n=0) formats as the empty string.  Each vertex is
    looked up in a table of names kept for the last n formatted only, so
    the table is never larger than the largest diagram.
    """
    global _names
    names = _names
    if len(names) != 2 * a.n:
        upper = [str(k) for k in range(1, a.n + 1)]
        names = _names = upper + [k + "'" for k in upper]
    name = names.__getitem__
    return "|".join([",".join(map(name, blk)) for blk in a.blocks])


_TOKENS: dict[str, int] = {}  # "k" -> k and "k'" -> -k, grown by parse_diagram


def _point(token: str) -> int:
    """The point k as k, the point k' as -k: a label of ASCII digits, at
    least 1, then for k' a prime, after any ASCII whitespace.  The one point
    grammar: a label past int()'s digit limit is a bad point too."""
    token = token.strip()
    lower = token.endswith("'")
    digits = token[:-1].rstrip(" \t\n\r\f\v") if lower else token
    try:
        if digits.isascii() and digits.isdigit() and (label := int(digits)) >= 1:
            return -label if lower else label
    except ValueError:  # more digits than int() converts
        pass
    raise DomainError(f"cannot parse point {token!r}")


def parse_diagram(text: str) -> DiagramPartition:
    """Parse the text form back into a diagram.

    Whitespace around points and separators is ignored.  n is inferred from
    the largest point label, and every point 1..n and 1'..n' must occur
    exactly once.  A text of 2n tokens as format_diagram writes them is read
    with one lookup per token in _TOKENS, one table for every n.  It grows to
    n labels once the general reader has made a diagram on n points, so the
    largest diagram parsed bounds it, never a label or a malformed text.
    When every label is at most n and no owner slot is missing, grouping the
    vertices in vertex order gives the canonical blocks with no sort.  Any
    other text goes to the one general reader, _point on every token and
    then make_partition, so a parse error is the one make_partition or the
    point grammar reports.
    """
    n, odd = divmod(text.count(",") + text.count("|") + 1, 2)
    if not odd:
        table = _TOKENS
        owner = [-1] * (2 * n + 1)  # the block of k at owner[k], of k' at owner[-k]
        try:
            for i, chunk in enumerate(text.split("|")):
                for token in chunk.split(","):
                    point = table[token]
                    if not -n <= point <= n:
                        raise KeyError(token)  # in the table, but past n
                    owner[point] = i
        except KeyError:
            pass
        else:
            labels = owner[1 : n + 1] + owner[:n:-1]  # in vertex order
            if -1 not in labels:  # 2n points and none missing, so none repeated
                return _partition(n, labels)
    if not text.strip():
        return DiagramPartition(0, ())
    blocks = [[_point(token) for token in chunk.split(",")] for chunk in text.split("|")]
    n = max(abs(point) for blk in blocks for point in blk)
    diagram = make_partition(n, ([v - 1 if v > 0 else n - v - 1 for v in blk] for blk in blocks))
    for k in range(len(_TOKENS) // 2 + 1, n + 1):
        _TOKENS[str(k)] = k
        _TOKENS[f"{k}'"] = -k
    return diagram


# --------------------------------------------------------------------------
# the product

def _labels(a: DiagramPartition) -> list[int]:
    """The block index of each vertex.  Blocks are ordered by their minimum,
    so this is the diagram's restricted growth string."""
    labels = [0] * (2 * a.n)
    for i, blk in enumerate(a.blocks):
        for v in blk:
            labels[v] = i
    return labels


def _partition(n: int, labels: list[int]) -> DiagramPartition:
    """The diagram whose vertex v lies in the block labelled labels[v], each
    label below len(labels): read in vertex order, each block comes out
    sorted and the blocks ordered by minimum."""
    groups: list[list[int] | None] = [None] * len(labels)  # by label
    blocks = []  # the same lists, in order of first appearance
    for v, i in enumerate(labels):
        members = groups[i]
        if members is None:
            groups[i] = members = [v]
            blocks.append(members)
        else:
            members.append(v)
    # built from a list, the tuple is allocated at its final size; one built
    # from an iterator is shrunk from a guess, and the freed product tuples
    # then pile up on the interpreter's tuple free lists
    return DiagramPartition(n, tuple([tuple(members) for members in blocks]))


def _join(n: int, top: list[int], k: int, upper: Sequence[int], size: int) -> tuple[list[int], int]:
    """The middle-row join of a product: union-find parents on size nodes,
    block i of the top factor (k blocks) and block k + j of the bottom one,
    each middle point joining the top block that holds it as a lower point
    to the bottom block labelled upper[point]; and the number of
    components.  Only the first n labels of upper are read, so the bottom's
    whole restricted growth string may be passed.

    Finds halve the path and links go to the smaller root, so parent[i] <= i;
    the parents come back flattened, each node's entry its root.  This is the
    one middle-row union-find: _glue joins one pair with it, _glue_group one
    top with every bottom of an upper row.
    """
    parent = list(range(size))
    components = size
    for x, y in zip(top[n:], upper):  # the glued middle row
        y += k
        while parent[x] != x:  # path halving: parent[x] is assigned before x
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        # link the larger root to the smaller, so that parent[i] <= i
        if x < y:
            parent[y] = x
            components -= 1
        elif y < x:
            parent[x] = y
            components -= 1
    for i in range(size):  # in index order, one step reaches the root
        parent[i] = parent[parent[i]]
    return parent, components


def _glue(n: int, top: list[int], k: int, bottom: list[int], m: int) -> tuple[list[int], int]:
    """The product of two diagrams on n strands given by their restricted
    growth strings, top with k blocks and bottom with m: the product's
    restricted growth string and the number of components that the gluing
    traps entirely in the middle row.

    The components are unions of whole blocks, joined by _join on the k + m
    blocks of both factors.  The product numbers its blocks in order of
    first appearance along the top factor's upper points and then the
    bottom factor's lower points; every component that none of them
    reaches was swallowed.
    """
    parent, components = _join(n, top, k, bottom, k + m)
    name = [-1] * (k + m)  # each root's product block, once it has appeared
    rgs = []
    blocks = 0
    # one loop per row, not one loop over both: the row offset would cost an
    # addition per vertex in the hottest loop of the oracle
    for i in top[:n]:
        r = parent[i]
        if name[r] < 0:
            name[r] = blocks
            blocks += 1
        rgs.append(name[r])
    for i in bottom[n:]:
        r = parent[k + i]
        if name[r] < 0:
            name[r] = blocks
            blocks += 1
        rgs.append(name[r])
    return rgs, components - blocks


def _glue_group(
    n: int, tops: Iterable[tuple[list[int], int]], upper: Sequence[int], lowers: list[list[int]]
) -> Iterator[list[list[int]]]:
    """For each top factor (restricted growth string, block count) in tops,
    the restricted growth strings of its products with every bottom factor
    whose upper row is upper, one per lower row in lowers, as _glue gives
    them.

    The middle-row join reads only the top and upper, so it runs once per
    top, and so does the numbering of the top's upper row; each product then
    numbers only its lower row.  The bottoms' blocks labelled below
    max(upper) + 1 reach the upper row, and each lies in its joined
    component; a block labelled from there on touches only the lower row,
    is its own component and always gets a fresh name.
    """
    count = max(upper) + 1 if upper else 0  # the bottoms' blocks on the upper row
    for top, k in tops:
        parent = _join(n, top, k, upper, k + count)[0]
        # each bottom label's component: joined, then one of its own for each
        # of the at most n labels past count
        roots = parent[k:] + list(range(k + count, k + count + n))
        name = [-1] * (k + count + n)  # each root's product block, once it has appeared
        prefix = []
        blocks = 0
        for i in top[:n]:
            r = parent[i]
            if name[r] < 0:
                name[r] = blocks
                blocks += 1
            prefix.append(name[r])
        products = []
        for lower in lowers:
            named = name[:]
            rgs = prefix[:]
            b = blocks
            for i in lower:
                r = roots[i]
                if named[r] < 0:
                    named[r] = b
                    b += 1
                rgs.append(named[r])
            products.append(rgs)
        yield products


def multiply(a: DiagramPartition, b: DiagramPartition) -> tuple[DiagramPartition, int]:
    """Product diagram together with the number of components that the
    gluing traps entirely in the middle row."""
    if a.n != b.n:
        raise DimensionMismatchError(f"product of diagrams on {a.n} and {b.n} strands")
    top = _labels(a)
    rgs, swallowed = _glue(a.n, top, len(a.blocks), top if b is a else _labels(b), len(b.blocks))
    return _partition(a.n, rgs), swallowed


# --------------------------------------------------------------------------
# structural invariants

def _halves(a: DiagramPartition) -> list[tuple[Block, Block]]:
    """Each block cut at its first lower point into (upper part, lower part),
    in encoded labels.  A block with both parts is a transversal."""
    n = a.n
    return [(blk[: (k := bisect_left(blk, n))], blk[k:]) for blk in a.blocks]


def _row(
    halves: list[tuple[Block, Block]], i: int, n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(domain, kernel classes) of the upper (i = 0) or lower (i = 1) row,
    both sorted, in 1-based labels.  Upper parts already come in block
    order, which is their order by minimum, so only the lower classes need
    a sort."""
    relabel = (1 - i * n).__add__
    domain = [v for half in halves if half[0] and half[1] for v in half[i]]
    classes = [tuple(map(relabel, half[i])) for half in halves if half[i]]
    return tuple(sorted(map(relabel, domain))), tuple(sorted(classes) if i else classes)


def _kernel(blocks: Iterable[Block], n: int) -> tuple[list[int], list[tuple[int, int]], int]:
    """The kernel, the join of the upper and the lower kernel, as union-find
    parents on the points 0..n-1 (a lower point v stands for v - n); each
    transversal's (first upper, first lower) point in that form; and the
    number of kernel classes.

    Each block must be sorted, so that its upper points come first.  They
    are joined to each other, and its lower points to each other, never the
    one part to the other.  Finds halve the path and links go to the
    smaller root, so parent[x] <= x, as in _glue.  This is the one kernel
    join: _kernel_classes groups it, the idempotency tests read the roots of
    the pairs, and the two-colored graph's components are its classes."""
    parent = list(range(n))
    pairs = []
    classes = n
    for blk in blocks:
        r = -1  # the root of the part read so far; none yet
        upper = blk[0] < n  # still in the block's upper part
        for v in blk:
            if v >= n:
                v -= n
                if upper:  # the first lower point of a transversal
                    upper = False
                    pairs.append((blk[0], v))
                    r = -1
            while parent[v] != v:  # path halving: parent[v] is assigned before v
                parent[v] = v = parent[parent[v]]
            if r < 0:
                r = v
            elif v < r:
                parent[r] = r = v
                classes -= 1
            elif r < v:
                parent[v] = r
                classes -= 1
    return parent, pairs, classes


def _kernel_classes(blocks: Iterable[Block], n: int) -> dict[int, list[int]]:
    """The kernel classes on the points 0..n-1 of the sorted blocks, keyed by
    their root in _kernel.  Grouped in point order, each class comes out
    sorted and the classes in order of their minima, so they are canonical
    with no sort."""
    parent = _kernel(blocks, n)[0]
    classes: dict[int, list[int]] = {}
    for x in range(n):
        # parent[x] <= x, so in point order one step reaches the root
        parent[x] = r = parent[parent[x]]
        classes.setdefault(r, []).append(x)
    return classes


def profile(a: DiagramPartition) -> StructuralProfile:
    """Rank, upper/lower domains, upper/lower kernels, and their join."""
    n = a.n
    halves = _halves(a)
    upper_domain, upper_classes = _row(halves, 0, n)
    lower_domain, lower_classes = _row(halves, 1, n)
    kernel = _kernel_classes(a.blocks, n).values()
    return StructuralProfile(
        rank=sum(1 for upper, lower in halves if upper and lower),
        upper_domain=frozenset(upper_domain),
        lower_domain=frozenset(lower_domain),
        upper_kernel=EquivalenceRelation(n, upper_classes),
        lower_kernel=EquivalenceRelation(n, lower_classes),
        kernel=EquivalenceRelation(n, tuple([tuple([x + 1 for x in cls]) for cls in kernel])),
    )


def decompose_irreducible(
    a: DiagramPartition,
) -> list[tuple[tuple[int, ...], DiagramPartition]]:
    """Split a diagram into its restrictions along the kernel classes.

    Returns (class, restriction) pairs in canonical class order, each
    restriction re-indexed to its own ground set 1..m.  Joining the pieces
    back along the classes reconstructs the input.  Raises
    NotDecomposableError when some block has points in two kernel classes,
    which happens exactly for the non-idempotent-shaped elements.
    """
    n = a.n
    classes = _kernel_classes(a.blocks, n)
    root = [0] * n
    position = [0] * n  # each point's place in its class
    for r, members in classes.items():
        for i, x in enumerate(members):
            root[x], position[x] = r, i
    pieces: dict[int, list[Block]] = {r: [] for r in classes}
    for blk in a.blocks:
        owners = {root[v % n] for v in blk}
        if len(owners) > 1:
            raise NotDecomposableError(
                f"block {{{format_diagram(DiagramPartition(n, (blk,)))}}} straddles kernel classes"
            )
        r = owners.pop()
        m = len(classes[r])
        # relabelled in vertex order, each block and the piece stay canonical
        pieces[r].append(tuple(position[v] if v < n else m + position[v - n] for v in blk))
    return [
        (tuple(x + 1 for x in members), DiagramPartition(len(members), tuple(pieces[r])))
        for r, members in classes.items()
    ]


def family_check(a: DiagramPartition, f: MonoidFamily | str) -> bool:
    """Membership predicate for the six families."""
    fam = as_family(f)
    if fam is MonoidFamily.P:
        return True
    if fam is MonoidFamily.B:
        return all(len(blk) == 2 for blk in a.blocks)
    if fam is MonoidFamily.PB:
        return all(len(blk) <= 2 for blk in a.blocks)
    halves = _halves(a)
    if fam is MonoidFamily.T:
        # full upper domain and discrete lower kernel: one lower point per block
        return all(len(lower) == 1 for _, lower in halves)
    if fam is MonoidFamily.I:
        # both kernels discrete
        return all(len(upper) <= 1 and len(lower) <= 1 for upper, lower in halves)
    # Idual: both domains full, so every block is a transversal
    return all(upper and lower for upper, lower in halves)


def lambda_graph(a: DiagramPartition) -> LambdaGraph:
    """The two-colored graph of a partial Brauer element.

    Red edge for each 2-point upper block, red loop at each singleton upper
    block; blue likewise on the lower row.  Points sitting in transversal
    blocks get no item of that color.  Each block of at most two points is
    read by its ends.  Read in canonical block order, each of the four lists
    comes out sorted.
    """
    n = a.n
    red_edges: list[tuple[int, int]] = []
    red_loops: list[int] = []
    blue_edges: list[tuple[int, int]] = []
    blue_loops: list[int] = []
    for blk in a.blocks:
        if len(blk) == 2:
            u, v = blk
            if v < n:
                red_edges.append((u + 1, v + 1))
            elif u >= n:
                blue_edges.append((u - n + 1, v - n + 1))
        elif len(blk) == 1:
            v = blk[0]
            if v < n:
                red_loops.append(v + 1)
            else:
                blue_loops.append(v - n + 1)
        else:
            raise NotPartialBrauerError(
                f"block of size {len(blk)} (partial Brauer blocks have at most 2 points)"
            )
    return LambdaGraph(n, tuple(red_edges), tuple(red_loops), tuple(blue_edges), tuple(blue_loops))

"""Idempotency tests and the classification of two-colored graph components.

A diagram is idempotent exactly when its blocks refine the kernel (no block
straddles two kernel classes) and the restriction to each kernel class has
rank at most one.  The twisted variant also constrains the self-product
exponent m(a, a), which for such elements equals the number of kernel
classes minus the rank, so only that difference needs testing.

For partial Brauer elements the same information is carried by the
two-colored graph: idempotents correspond to graphs whose connected
components all fall into one of four balanced shapes, and the rank is the
number of components of the plain even-path shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import DiagramPartition, LambdaGraph, _glue, _kernel, _labels
from .errors import DomainError, NotBalancedError


@dataclass(frozen=True, slots=True)
class TwistOrder:
    """Order of the unity root twisting the algebra product.

    M > 0 means the twist has multiplicative order M, so exponent tests are
    congruences mod M.  M = 0 means no finite order applies and congruence
    degenerates to equality.
    """

    M: int

    def __post_init__(self) -> None:
        if not isinstance(self.M, int) or self.M < 0:
            raise DomainError(f"twist order must be a nonnegative integer, got {self.M!r}")

    def annihilates(self, exponent: int) -> bool:
        """Whether the twist raised to this exponent is 1."""
        return exponent % self.M == 0 if self.M else exponent == 0


# made once, so that a count at a small order builds no TwistOrder
_SMALL_ORDERS = tuple(TwistOrder(m) for m in range(16))


def as_twist_order(t: TwistOrder | int) -> TwistOrder:
    """The order itself, or the order M = t; DomainError unless t is an int >= 0."""
    if isinstance(t, TwistOrder):
        return t
    if isinstance(t, int) and 0 <= t < len(_SMALL_ORDERS):
        return _SMALL_ORDERS[t]
    return TwistOrder(t)


class ComponentType(Enum):
    """The four balanced component shapes of a two-colored graph.

    EVEN_PATH        path with an even number of edges and no loops
                     (an isolated bare vertex counts, as the empty path);
                     these are exactly the rank-contributing components.
    EVEN_CIRCUIT     alternating cycle (color alternation forces even length).
    EVEN_PATH_LOOPS  even path whose two end vertices carry loops in their
                     free color slots (for the empty path: both loops on the
                     single vertex).
    ODD_PATH_LOOPS   odd path with loops in the end slots; alternation makes
                     the two loops the same color.
    """

    EVEN_PATH = "EvenPath"
    EVEN_CIRCUIT = "EvenCircuit"
    EVEN_PATH_LOOPS = "EvenPathLoops"
    ODD_PATH_LOOPS = "OddPathLoops"


def is_idempotent_direct(a: DiagramPartition) -> bool:
    """Plain semigroup test: square the element and compare, in label form
    (a·a = a exactly when their restricted growth strings agree)."""
    labels = _labels(a)
    k = len(a.blocks)
    return _glue(a.n, labels, k, labels, k)[0] == labels


def _kernel_excess(a: DiagramPartition) -> int | None:
    """Kernel classes minus rank, or None when some block straddles two kernel
    classes or some class holds two transversals.

    Only a transversal can straddle: every other block lies in one part of
    the join.  So the test reads the roots of the transversals' (first
    upper, first lower) pairs that _kernel hands back, and nothing else."""
    parent, pairs, classes = _kernel(a.blocks, a.n)
    holding: set[int] = set()  # the kernel classes that hold a transversal
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y or x in holding:
            return None
        holding.add(x)
    return classes - len(holding)


def is_idempotent_structural(a: DiagramPartition) -> bool:
    """Block-containment test: every block inside one kernel class and every
    kernel-class restriction of rank at most one.

    Agrees with is_idempotent_direct on every diagram, without multiplying.
    """
    return _kernel_excess(a) is not None


def is_twisted_idempotent(a: DiagramPartition, t: TwistOrder | int) -> bool:
    """Idempotent in the twisted algebra of the given order.

    Such elements are the plain idempotents whose self-product exponent is
    annihilated by the twist; for a plain idempotent that exponent equals
    the number of kernel classes minus the rank, which is what we test.
    """
    order = as_twist_order(t)
    # the plain test screens first; only idempotents need their excess
    return is_idempotent_structural(a) and order.annihilates(_kernel_excess(a))


def classify_lambda_components(
    g: LambdaGraph,
) -> list[tuple[tuple[int, ...], ComponentType]]:
    """Label every connected component of the graph with its balanced shape.

    Returns (vertices, shape) pairs ordered by smallest vertex.  Raises
    NotBalancedError when some component matches none of the four shapes,
    which happens exactly when the graph does not come from an idempotent.
    """
    n = g.n
    for color, edges, loops in (("red", g.red_edges, g.red_loops), ("blue", g.blue_edges, g.blue_loops)):
        held = [x for edge in edges for x in edge]
        held += loops
        if held and not (1 <= min(held) and max(held) <= n):
            raise NotBalancedError(f"{color} item outside the vertices 1..{n}")
        if len(set(held)) < len(held):
            raise NotBalancedError(f"some vertex carries two {color} items")
    # the components are the kernel classes of the blocks the edges draw, on
    # the points 0..n (0 unused): a red edge the upper block (u, v), a blue
    # one the lower block (n+1+u, n+1+v); a block in one row may list either end first
    blocks = [*g.red_edges, *[(n + 1 + u, n + 1 + v) for u, v in g.blue_edges]]
    root = _kernel(blocks, n + 1)[0]
    components: dict[int, list[int]] = {}  # by root, in order of their smallest vertex
    for x in range(1, n + 1):
        # root[x] <= x, so in point order one step reaches the root
        root[x] = r = root[root[x]]
        components.setdefault(r, []).append(x)
    edge_counts = [0] * (n + 1)  # by root
    loop_counts = [0] * (n + 1)
    for edges in (g.red_edges, g.blue_edges):
        for u, _ in edges:  # an edge's two ends share a root
            edge_counts[root[u]] += 1
    for loops in (g.red_loops, g.blue_loops):
        for x in loops:
            loop_counts[root[x]] += 1
    # every vertex carries at most one item of each color, so a component is
    # an alternating circuit (as many edges as vertices) or a path with two
    # free color slots, at its ends (both on a lone vertex); loops can only
    # fill those slots
    out: list[tuple[tuple[int, ...], ComponentType]] = []
    for r, vertices in components.items():
        edge_count, loop_count = edge_counts[r], loop_counts[r]
        if edge_count == len(vertices):
            shape = ComponentType.EVEN_CIRCUIT
        elif loop_count == 2:
            shape = ComponentType.ODD_PATH_LOOPS if edge_count % 2 else ComponentType.EVEN_PATH_LOOPS
        elif loop_count == 0 and edge_count % 2 == 0:
            shape = ComponentType.EVEN_PATH
        else:
            raise NotBalancedError(
                f"component {vertices} has no balanced shape:"
                f" vertices {len(vertices)}, edges {edge_count}, loops {loop_count}"
            )
        out.append((tuple(vertices), shape))
    return out


def rank_from_components(
    labeled: list[tuple[tuple[int, ...], ComponentType]]
) -> int:
    """Rank of the originating idempotent: its plain even-path components."""
    return sum(1 for _, shape in labeled if shape is ComponentType.EVEN_PATH)


def is_balanced(g: LambdaGraph) -> bool:
    """Convenience wrapper: does every component classify successfully."""
    try:
        classify_lambda_components(g)
    except NotBalancedError:
        return False
    return True

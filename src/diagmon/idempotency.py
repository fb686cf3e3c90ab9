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

from .core import DiagramPartition, LambdaGraph, _find, _halves, _union, multiply
from .errors import DomainError, NotBalancedError, NotDecomposableError


@dataclass(frozen=True, slots=True)
class TwistOrder:
    """Order of the unity root twisting the algebra product.

    M > 0 means the twist has multiplicative order M, so exponent tests are
    congruences mod M.  M = 0 means no finite order applies and congruence
    degenerates to equality.
    """

    M: int

    def __post_init__(self) -> None:
        if self.M < 0:
            raise DomainError(f"twist order must be nonnegative, got {self.M}")

    def annihilates(self, exponent: int) -> bool:
        """Whether the twist raised to this exponent is 1."""
        return exponent % self.M == 0 if self.M else exponent == 0


def as_twist_order(t: TwistOrder | int) -> TwistOrder:
    """The order itself, or the order M = t; DomainError when t < 0."""
    return t if isinstance(t, TwistOrder) else TwistOrder(t)


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
    """Plain semigroup test: square the element and compare."""
    product, _ = multiply(a, a)
    return product == a


def _kernel_excess(a: DiagramPartition) -> int | None:
    """Kernel classes minus rank, or None when some block straddles two kernel
    classes or some class holds two transversals.

    The kernel, the join of the upper and the lower kernel, is found by
    union-find on the points 0..n-1, where a lower point v stands for v - n:
    each block's upper part is one upper class and its lower part one lower
    class.
    """
    n = a.n
    halves = _halves(a)
    parent = list(range(n))
    for upper, lower in halves:
        for v in upper[1:]:
            _union(parent, upper[0], v)
        for v in lower[1:]:
            _union(parent, lower[0] - n, v - n)
    holding: set[int] = set()  # the kernel classes that hold a transversal
    for upper, lower in halves:
        if upper and lower:
            root = _find(parent, upper[0])
            if root != _find(parent, lower[0] - n) or root in holding:
                return None
            holding.add(root)
    return sum(1 for x in range(n) if parent[x] == x) - len(holding)


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
    red_edge_at: dict[int, int] = {}
    blue_edge_at: dict[int, int] = {}
    red_loop_at = set(g.red_loops)
    blue_loop_at = set(g.blue_loops)

    if len(g.red_loops) != len(red_loop_at) or len(g.blue_loops) != len(blue_loop_at):
        raise NotBalancedError("repeated loop")
    for edges, edge_at, loops, color in (
        (g.red_edges, red_edge_at, red_loop_at, "red"),
        (g.blue_edges, blue_edge_at, blue_loop_at, "blue"),
    ):
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise NotBalancedError(f"bad {color} edge ({u},{v})")
            for x in (u, v):
                if x in edge_at or x in loops:
                    raise NotBalancedError(f"vertex {x} carries two {color} items")
            edge_at[u] = v
            edge_at[v] = u
        for x in loops:
            if not 1 <= x <= n:
                raise NotBalancedError(f"bad {color} loop at {x}")

    out: list[tuple[tuple[int, ...], ComponentType]] = []
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for edge_at in (red_edge_at, blue_edge_at):
                y = edge_at.get(x)
                if y is not None and not seen[y]:
                    seen[y] = True
                    component.append(y)
                    frontier.append(y)
        component.sort()
        out.append((tuple(component), _classify_one(component, red_edge_at, blue_edge_at, red_loop_at, blue_loop_at)))
    return out


def _classify_one(
    vertices: list[int],
    red_edge_at: dict[int, int],
    blue_edge_at: dict[int, int],
    red_loops: set[int],
    blue_loops: set[int],
) -> ComponentType:
    degree = {x: (x in red_edge_at) + (x in blue_edge_at) for x in vertices}
    ends = [x for x in vertices if degree[x] < 2]
    if not ends:
        # every vertex meets one red and one blue edge: an alternating cycle,
        # even by color alternation; loops are impossible on degree-2 vertices
        return ComponentType.EVEN_CIRCUIT

    if len(vertices) == 1:
        x = vertices[0]
        looped = (x in red_loops) + (x in blue_loops)
        if looped == 0:
            return ComponentType.EVEN_PATH
        if looped == 2:
            return ComponentType.EVEN_PATH_LOOPS
        raise NotBalancedError(f"vertex {x} carries a single loop")

    assert len(ends) == 2, "a component with max degree 2 is a path or cycle"
    edge_count = sum(degree[x] for x in vertices) // 2
    # interior vertices have both color slots taken, so any loop the validation
    # let through sits at an end, in that end's free color slot
    loops_at_ends = sum((x in red_loops) + (x in blue_loops) for x in ends)
    if loops_at_ends == 0:
        if edge_count % 2 == 0:
            return ComponentType.EVEN_PATH
        raise NotBalancedError(f"odd path without end loops at {vertices}")
    if loops_at_ends == 2:
        return (
            ComponentType.EVEN_PATH_LOOPS
            if edge_count % 2 == 0
            else ComponentType.ODD_PATH_LOOPS
        )
    raise NotBalancedError(f"path with a single end loop at {vertices}")


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

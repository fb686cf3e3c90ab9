from __future__ import annotations

import re

import pytest

from diagmon.core import (
    LambdaGraph,
    MonoidFamily,
    identity,
    lambda_graph,
    multiply,
    parse_diagram,
    profile,
)
from diagmon.counting import exi_total
from diagmon.errors import DomainError, NotBalancedError
from diagmon.idempotency import (
    ComponentType,
    TwistOrder,
    classify_lambda_components,
    is_balanced,
    is_idempotent_direct,
    is_idempotent_structural,
    is_twisted_idempotent,
    rank_from_components,
)
from diagmon.oracle import enumerate_elements

from .oracles import bfs_components, naive_is_idempotent


def test_twist_order_validation():
    assert TwistOrder(0).annihilates(0)
    assert not TwistOrder(0).annihilates(2)
    assert TwistOrder(3).annihilates(6)
    assert not TwistOrder(3).annihilates(4)
    assert TwistOrder(1).annihilates(5)
    with pytest.raises(DomainError):
        TwistOrder(-1)


def test_twist_order_must_be_an_int():
    with pytest.raises(DomainError, match="integer"):
        TwistOrder("2")
    with pytest.raises(DomainError, match="integer"):
        exi_total("B", 3, 1.5)


def test_structural_matches_direct(all_p3, all_b3, all_pb3):
    for pool in (all_p3, all_b3, all_pb3):
        for a in pool:
            assert is_idempotent_structural(a) == is_idempotent_direct(a)


def test_direct_matches_search(all_pb3):
    for a in all_pb3:
        assert is_idempotent_direct(a) == naive_is_idempotent(a)


def test_identity_is_idempotent_every_way():
    for n in range(5):
        e = identity(n)
        assert is_idempotent_direct(e)
        assert is_idempotent_structural(e)
        for m_order in (0, 1, 2, 5):
            assert is_twisted_idempotent(e, m_order)


def test_twisted_condition_uses_middle_components(all_p3):
    # for a plain idempotent the exponent the twist must kill is exactly the
    # middle-row component count of the self-product
    for a in all_p3:
        plain = is_idempotent_direct(a)
        _, m = multiply(a, a)
        for m_order in (0, 1, 2, 3):
            expected = plain and TwistOrder(m_order).annihilates(m)
            assert is_twisted_idempotent(a, TwistOrder(m_order)) == expected


def test_twist_exponent_is_class_count_minus_rank(all_pb3):
    for a in all_pb3:
        if not is_idempotent_structural(a):
            continue
        prof = profile(a)
        _, m = multiply(a, a)
        assert m == len(prof.kernel.classes) - prof.rank


def test_order_one_collapses_to_plain(all_p3):
    for a in all_p3:
        assert is_twisted_idempotent(a, 1) == is_idempotent_direct(a)


def test_twisted_counts_b3(all_b3):
    plain = sum(1 for a in all_b3 if is_idempotent_direct(a))
    twisted = sum(1 for a in all_b3 if is_twisted_idempotent(a, 0))
    assert plain == 10
    assert twisted == 7


def test_non_idempotent_is_never_twisted(all_b3):
    for a in all_b3:
        if not is_idempotent_direct(a):
            assert not is_twisted_idempotent(a, 0)


# --------------------------------------------------------------------------
# component classification

def test_classify_identity():
    comps = classify_lambda_components(lambda_graph(identity(3)))
    assert comps == [
        ((1,), ComponentType.EVEN_PATH),
        ((2,), ComponentType.EVEN_PATH),
        ((3,), ComponentType.EVEN_PATH),
    ]
    assert rank_from_components(comps) == 3


def test_classify_loop_capped_path():
    comps = classify_lambda_components(lambda_graph(parse_diagram("1|2|1',2'")))
    assert comps == [((1, 2), ComponentType.ODD_PATH_LOOPS)]
    assert rank_from_components(comps) == 0


def test_classify_circuit():
    # both rows pair the same two points: a two-colored circuit on 2 vertices
    comps = classify_lambda_components(lambda_graph(parse_diagram("1,2|1',2'")))
    assert comps == [((1, 2), ComponentType.EVEN_CIRCUIT)]


def test_classify_even_path_with_loops():
    # alternating path 1-2-3 (blue then red) capped by a red loop at 1 and a
    # blue loop at 3: two edges, so the loop-capped path is even
    a = parse_diagram("1|2,3|1',2'|3'")
    comps = classify_lambda_components(lambda_graph(a))
    assert comps == [((1, 2, 3), ComponentType.EVEN_PATH_LOOPS)]
    assert rank_from_components(comps) == 0


def test_components_are_the_connected_components():
    # the components read off the kernel join are those a search over both
    # colors' edges finds, whichever end a hand-built graph lists first
    hand = [
        LambdaGraph(4, ((2, 1), (4, 3)), (), ((3, 2), (4, 1)), ()),  # a circuit on 1..4
        LambdaGraph(4, ((3, 1),), (), ((4, 3),), ()),  # the path 1-3-4 beside the bare 2
        LambdaGraph(5, ((5, 2),), (1, 3, 4), ((3, 1), (4, 2)), (5,)),  # two loop-capped paths
    ]
    balanced = [g for g in map(lambda_graph, enumerate_elements(MonoidFamily.PB, 4)) if is_balanced(g)]
    for g in balanced + hand:
        found = bfs_components(list(range(1, g.n + 1)), [*g.red_edges, *g.blue_edges])
        expected = sorted(tuple(sorted(c)) for c in found)
        assert [vertices for vertices, _ in classify_lambda_components(g)] == expected, g


def test_single_loop_vertex_is_unbalanced():
    g = lambda_graph(parse_diagram("1|2,1'|2'"))
    assert not is_balanced(g)
    with pytest.raises(NotBalancedError):
        classify_lambda_components(g)


@pytest.mark.parametrize(
    "text, counts",
    [
        ("1,2|3,1'|4,2'|3',4'", "edges 1, loops 0"),  # red edge 1-2 alone: an odd path with no loops
        ("1|2|3,2'|1',3'", "edges 1, loops 1"),  # path 1-3 with a loop at one end only
    ],
)
def test_unbalanced_paths_are_refused(text, counts):
    g = lambda_graph(parse_diagram(text))
    assert not is_balanced(g)
    with pytest.raises(NotBalancedError, match=counts):
        classify_lambda_components(g)


@pytest.mark.parametrize(
    "g, message",
    [
        (LambdaGraph(2, ((1, 3),), (), (), ()), "red item outside the vertices 1..2"),
        (LambdaGraph(2, (), (0,), (), ()), "red item outside the vertices 1..2"),
        (LambdaGraph(2, (), (1, 2), ((1, 2),), (3,)), "blue item outside the vertices 1..2"),
        (LambdaGraph(3, (), (), ((0, 1),), ()), "blue item outside the vertices 1..3"),
    ],
)
def test_items_off_the_vertices_are_refused(g, message):
    with pytest.raises(NotBalancedError, match=re.escape(message)):
        classify_lambda_components(g)


@pytest.mark.parametrize(
    "g, color",
    [
        (LambdaGraph(3, ((1, 2),), (2,), (), ()), "red"),  # an edge and a loop at 2
        (LambdaGraph(3, ((1, 2),), (), ((1, 2), (2, 3)), ()), "blue"),  # two edges at 2
        (LambdaGraph(3, (), (), (), (3, 3)), "blue"),  # two loops at 3
    ],
)
def test_a_vertex_with_two_items_of_one_color_is_refused(g, color):
    with pytest.raises(NotBalancedError, match=f"^some vertex carries two {color} items$"):
        classify_lambda_components(g)


def test_even_path_count_equals_rank(all_pb3):
    for a in [*all_pb3, *enumerate_elements(MonoidFamily.PB, 4)]:
        if not is_idempotent_structural(a):
            continue
        comps = classify_lambda_components(lambda_graph(a))
        paths = sum(1 for _, kind in comps if kind is ComponentType.EVEN_PATH)
        assert paths == profile(a).rank
        assert rank_from_components(comps) == profile(a).rank


def test_brauer_idempotents_have_no_loops(all_b3):
    loopless = {ComponentType.EVEN_PATH, ComponentType.EVEN_CIRCUIT}
    for a in all_b3:
        if not is_idempotent_direct(a):
            continue
        comps = classify_lambda_components(lambda_graph(a))
        assert {kind for _, kind in comps} <= loopless


def test_lambda_graph_separates_idempotents(all_pb3):
    seen = {}
    for a in all_pb3:
        if not is_idempotent_direct(a):
            continue
        g = lambda_graph(a)
        assert g not in seen, f"{a} and {seen[g]} share a graph"
        seen[g] = a


def test_balanced_iff_classification_succeeds(all_pb3):
    for a in all_pb3:
        g = lambda_graph(a)
        if is_balanced(g):
            classify_lambda_components(g)
        else:
            with pytest.raises(NotBalancedError):
                classify_lambda_components(g)

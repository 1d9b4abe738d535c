"""Word/tree combinatorics: membership, shape predicates, pushforward."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_surjections, child_map, make_tree, subtree_nodesets
from survtree.trees import (
    FiniteTree,
    ShapeViolation,
    Surjection,
    is_accelerating_to_depth,
    is_k_branching_to_depth,
    is_k_tree_to_depth,
    map_path,
    pushforward_preimage,
    subtree_above,
    word_key,
)

FULL33 = FiniteTree.full(3, 3)
COMB5 = FiniteTree.from_words([(0,) * 5], 1)


def test_word_key_orders_shortest_then_lex():
    words = [(1,), (), (0, 0), (0,), (2,), (0, 1)]
    assert sorted(words, key=word_key) == [
        (),
        (0,),
        (1,),
        (2,),
        (0, 0),
        (0, 1),
    ]


# --- validation ----------------------------------------------------------


def test_tree_must_be_prefix_closed():
    with pytest.raises(ValueError, match="not prefix-closed"):
        FiniteTree(frozenset({(), (0, 1)}))


def test_out_of_bound_last_entry_is_rejected():
    with pytest.raises(ValueError, match="alphabet bound"):
        FiniteTree(frozenset({(), (0,), (0, 5)}), 3)


def test_out_of_bound_middle_entry_is_rejected():
    with pytest.raises(ValueError, match="alphabet bound"):
        FiniteTree(frozenset({(), (5,), (5, 0)}), 3)


def _valid_per_entry(nodes, bound) -> bool:
    """The check FiniteTree made before: prefix closure plus every entry."""
    for w in nodes:
        if w and w[:-1] not in nodes:
            return False
        if bound is not None and any(e >= bound for e in w):
            return False
    return True


def _accepted(nodes, bound) -> bool:
    try:
        FiniteTree(nodes, bound)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    st.frozensets(st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=12),
    st.none() | st.integers(1, 5),
    st.booleans(),
)
def test_validation_matches_the_per_entry_check(words, bound, closed):
    # closing half of the sets makes the alphabet check the deciding one
    nodes = FiniteTree.from_words(words).nodes if closed else words
    assert _accepted(nodes, bound) == _valid_per_entry(nodes, bound)


# --- shape predicates -----------------------------------------------------


def test_k_tree_full_binary_subtree_ok():
    t = make_tree(
        w for n in range(4) for w in itertools.product(range(2), repeat=n)
    )
    assert is_k_tree_to_depth(t, 2, 3) is None


def test_k_tree_full_ternary_violates_k2():
    bad = is_k_tree_to_depth(FiniteTree.full(3, 2), 2, 2)
    assert bad is not None
    assert bad.node == ()
    assert bad.observed_child_count == 3


def test_k_tree_comb_ok():
    assert is_k_tree_to_depth(FiniteTree.from_words([(0,) * 4], 1), 2, 4) is None


def test_k_branching_full_binary_subtree_ok():
    t = make_tree(
        w for n in range(4) for w in itertools.product(range(2), repeat=n)
    )
    assert is_k_branching_to_depth(t, 2, 3) is None


def test_k_branching_two_of_three_children_violates():
    t = make_tree(
        [(), (0,), (1,), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    )
    bad = is_k_branching_to_depth(t, 3, 2)
    assert bad is not None and bad.node == ()
    assert bad.observed_child_count == 2


def test_k_branching_comb_ok():
    assert is_k_branching_to_depth(COMB5, 2, 5) is None


def test_accelerating_widths_grow():
    # root splits 3 ways (0 prior splits, needs > 2); the next splitting
    # node needs more than 3 children.
    nodes = {(), (0,), (1,), (2,)}
    for i in range(4):
        nodes.add((0, i))
    nodes.update({(1, 0), (2, 0), (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)})
    t = make_tree(nodes)
    assert is_accelerating_to_depth(t, 2) is None


def test_accelerating_binary_root_violates():
    t = make_tree([(), (0,), (1,)])
    bad = is_accelerating_to_depth(t, 1)
    assert bad is not None and bad.node == ()
    assert bad.observed_child_count == 2


def test_accelerating_pure_path_ok():
    assert is_accelerating_to_depth(COMB5, 5) is None


# --- pushforward / map_path ------------------------------------------------


def test_pushforward_identity_is_identity():
    g = Surjection(3, 3, (0, 1, 2))
    assert pushforward_preimage(FULL33, g).nodes == FULL33.nodes


def test_pushforward_swap_relabels():
    g = Surjection(3, 3, (0, 2, 1))
    t = make_tree([(), (0,), (0, 1)], bound=3)
    out = pushforward_preimage(t, g)
    assert out.nodes == frozenset({(), (0,), (0, 2)})


def test_pushforward_merge_is_3_tree():
    # g folds 3 onto 2; preimages of 2-trees are 3-trees, checked by an
    # independent recount of children per node.
    g = Surjection(4, 3, (0, 1, 2, 2))
    t = make_tree(
        w for n in range(4) for w in itertools.product((0, 2), repeat=n)
    )
    out = pushforward_preimage(t, g)
    assert is_k_tree_to_depth(out, 3, 3) is None
    expected = frozenset(
        w
        for n in range(4)
        for w in itertools.product(range(4), repeat=n)
        if tuple(g(i) for i in w) in t.nodes
    )
    assert out.nodes == expected


def test_map_path_identity():
    assert map_path(Surjection(3, 3, (0, 1, 2)), (0, 2, 1)) == (0, 2, 1)


def test_map_path_collapse():
    g = Surjection(3, 2, (0, 0, 1))
    assert map_path(g, (2, 1, 0)) == (1, 0, 0)


def test_map_path_empty():
    assert map_path(Surjection(2, 2, (0, 1)), ()) == ()


def test_map_path_out_of_range():
    with pytest.raises(ValueError):
        map_path(Surjection(2, 2, (0, 1)), (5,))


# --- property tests ---------------------------------------------------------


@st.composite
def random_subtree(draw, b=3, k=2, max_depth=4):
    nodes = {()}
    frontier = [()]
    depth = draw(st.integers(1, max_depth))
    for _ in range(depth):
        nxt = []
        for w in frontier:
            count = draw(st.integers(1, k))
            entries = draw(
                st.lists(
                    st.integers(0, b - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            for e in entries:
                nodes.add(w + (e,))
                nxt.append(w + (e,))
        frontier = nxt
    return FiniteTree(frozenset(nodes), alphabet_bound=b)


def _same_as_checked(t: FiniteTree) -> None:
    """t equals the tree checked node by node from its nodes, with the same
    depth, levels and counts."""
    checked = FiniteTree(frozenset(t.nodes), t.alphabet_bound)
    assert t == checked and t.depth == checked.depth
    assert t.levels() == checked.levels() and t.counts() == checked.counts()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4))
def test_a_full_tree_built_from_its_rows_is_the_checked_one(b, d):
    _same_as_checked(FiniteTree.full(b, d))


def test_a_full_tree_of_positive_depth_needs_a_letter():
    with pytest.raises(ValueError, match="needs b >= 1"):
        FiniteTree.full(0, 1)
    assert FiniteTree.full(0, 0).nodes == {()}


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_subtree(), random_subtree(b=4, k=3)), st.data())
def test_a_subtree_built_from_its_rows_is_the_checked_one(t, data):
    stem = data.draw(st.sampled_from(t.sorted_nodes()))
    _same_as_checked(subtree_above(t, stem))


@settings(max_examples=60, deadline=None)
@given(random_subtree())
def test_pushforward_preserves_prefix_closure_and_shape(t):
    for table in all_surjections(4, 3):
        out = pushforward_preimage(t, Surjection(4, 3, tuple(table)))
        for w in out.nodes:
            assert not w or w[:-1] in out.nodes
        assert is_k_tree_to_depth(out, 3, t.depth) is None


def _reference_accelerating(t: FiniteTree, d: int):
    """The node-by-node check over a child map, counting each node's
    splitting prefixes afresh."""
    cm = child_map(t)
    for w in sorted(t.nodes, key=word_key):
        if len(w) >= d:
            continue
        c = len(cm[w])
        if c == 0:
            return ShapeViolation(w, 0, "at least 1 successor below depth")
        if c >= 2:
            n = sum(1 for i in range(len(w)) if len(cm[w[:i]]) >= 2)
            if c <= n + 2:
                return ShapeViolation(w, c, f"more than {n + 2} successors (split number {n})")
    return None


@st.composite
def mostly_accelerating_trees(draw, b=7, max_depth=4):
    """Trees whose nodes mostly have one child or more than their split
    number + 2, and now and then any number of children."""
    nodes, frontier = {()}, [((), 0)]
    while frontier:
        w, n = frontier.pop()
        if len(w) == max_depth:
            continue
        wide = st.integers(min(n + 3, b), b)
        count = draw(st.one_of(st.just(1), wide, st.integers(0, b)))
        entries = draw(st.sets(st.integers(0, b - 1), min_size=count, max_size=count))
        nodes.update(w + (e,) for e in entries)
        frontier.extend((w + (e,), n + (count >= 2)) for e in entries)
    return FiniteTree(frozenset(nodes), alphabet_bound=b)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mostly_accelerating_trees(), random_subtree(k=3)))
@example(FiniteTree.full(3, 1))
def test_accelerating_matches_the_child_map_check(t):
    for d in range(-1, t.depth + 2):
        assert is_accelerating_to_depth(t, d) == _reference_accelerating(t, d)


def test_exhaustive_path_transfer_depth_2():
    g = Surjection(3, 2, (0, 1, 1))
    for nodes in subtree_nodesets(2, 2, 2):
        t = make_tree(nodes, bound=2)
        out = pushforward_preimage(t, g)
        for n in range(3):
            for w in itertools.product(range(3), repeat=n):
                assert (w in out.nodes) == (map_path(g, w) in t.nodes)

"""The trie of output prefixes: its level-order rows and its width check."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree
from survtree.traces import BoundExceeded, TraceTable, trace_from_outputs
from survtree.trees import FiniteTree


def level_trace(u: FiniteTree, width: int) -> TraceTable:
    """The trie whose level n is the tree's level n, at most width wide."""
    return trace_from_outputs(u.nodes, u.depth, width)


BINARY3 = make_tree(
    w for n in range(4) for w in itertools.product(range(2), repeat=n)
)


def test_from_tree_binary_under_width_3():
    tr = level_trace(BINARY3, 3)
    assert [len(tr.levels[n]) for n in range(4)] == [1, 2, 4, 8]


def test_from_tree_single_path():
    tr = level_trace(FiniteTree.from_words([(0,) * 4], 1), 1)
    assert all(len(tr.levels[n]) == 1 for n in range(5))


def test_a_word_wider_than_the_width_is_named():
    with pytest.raises(BoundExceeded) as e:
        level_trace(FiniteTree.full(3, 2), 2)
    assert (e.value.word, e.value.children, e.value.width) == ((), 3, 2)


def test_the_first_wide_word_in_level_order_is_named():
    # (0,) and (1,) both have 3 children under a width of 2, and (0, 1) has
    # 4: the shallowest, least word is named
    words = [(0, i) for i in range(3)] + [(1, i) for i in range(3)]
    words += [(0, 1, i) for i in range(4)]
    with pytest.raises(BoundExceeded) as e:
        trace_from_outputs(words, 3, 2)
    assert (e.value.word, e.value.children) == ((0,), 3)


def test_a_shallow_fork_is_named_before_any_level_is_full():
    # the root forks 4 ways under a width of 3: a level of 4 words would
    # fit 3^2, but no word may have more than 3 children
    with pytest.raises(BoundExceeded) as e:
        trace_from_outputs([(i, 0) for i in range(4)], 2, 3)
    assert (e.value.word, e.value.children, e.value.width) == ((), 4, 3)


def test_level_words_have_level_length():
    tr = level_trace(BINARY3, 3)
    for n, words in enumerate(tr.levels):
        assert all(len(w) == n for w in words)


def test_outputs_past_the_depth_are_cut_to_it():
    tr = trace_from_outputs([(0, 1, 2, 3), (1,)], 2, 2)
    assert tr.levels == [[()], [(0,), (1,)], [(0, 1)]]


# --- property tests ---------------------------------------------------------


words = st.lists(st.integers(0, 3), max_size=5).map(tuple)


def _reference(outs, depth: int):
    """The trie's levels as sorted word lists, built from word sets, and
    each word's number of children."""
    levels: list[set] = [set() for _ in range(depth + 1)]
    for o in outs:
        o = o[:depth]
        levels[len(o)].add(o)
    for n in range(depth, 0, -1):
        levels[n - 1].update(p[:-1] for p in levels[n])
    levels[0].add(())
    kids = Counter(w[:-1] for lv in levels[1:] for w in lv)
    return [sorted(lv) for lv in levels], kids


@settings(max_examples=300, deadline=None)
@given(st.lists(words, max_size=10), st.integers(0, 5), st.integers(1, 4))
def test_rows_agree_with_the_word_set_reference(outs, depth, width):
    levels, kids = _reference(outs, depth)
    wide = next((w for lv in levels for w in lv if kids[w] > width), None)
    if wide is not None:
        with pytest.raises(BoundExceeded) as e:
            trace_from_outputs(outs, depth, width)
        assert (e.value.word, e.value.children) == (wide, kids[wide])
        return
    tr = trace_from_outputs(outs, depth, width)
    assert tr.depth == depth
    assert tr.levels == levels
    for n, lv in enumerate(levels):
        assert len(lv) <= width**n
        assert [tr.word(n, i) for i in range(len(lv))] == lv


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_full_tree_of_outputs_fits_its_own_width_and_no_narrower(width, depth):
    """The leaves of the full width-ary tree to the depth, as outputs, make
    a trie with width^n words on level n; one narrower, the root is named."""
    leaves = list(itertools.product(range(width), repeat=depth))
    tr = trace_from_outputs(leaves, depth, width)
    assert [len(lv) for lv in tr.levels] == [width**n for n in range(depth + 1)]
    assert tr.levels[depth] == leaves
    if width > 1:
        with pytest.raises(BoundExceeded) as e:
            trace_from_outputs(leaves, depth, width - 1)
        assert (e.value.word, e.value.children, e.value.width) == ((), width, width - 1)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_no_outputs_or_only_empty_ones_leave_the_root_alone(depth):
    for outs in ([], [()], [(), ()]):
        tr = trace_from_outputs(outs, depth, 1)
        assert tr.depth == depth
        assert tr.levels == [[()]] + [[] for _ in range(depth)]


def test_a_table_of_rows_wider_than_its_width_is_refused_as_built():
    # level 1 is (0,), (1,); (1,) has 3 children, over a width of 2
    with pytest.raises(BoundExceeded) as e:
        TraceTable((((0, 1),), ((0,), (0, 1, 2))), 2)
    assert (e.value.word, e.value.children, e.value.width) == ((1,), 3, 2)
    assert TraceTable((((0, 1),), ((0,), (0, 1, 2))), 3).levels[2] == [
        (0, 0), (1, 0), (1, 1), (1, 2)
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(words, max_size=10), st.integers(0, 5), st.randoms(use_true_random=False))
def test_the_trie_does_not_depend_on_the_order_or_repeats_of_the_outputs(outs, depth, rnd):
    """The verifier reads outputs leaf by leaf in tree order; any order, with
    any output repeated, makes the same rows."""
    shuffled = outs + outs[: len(outs) // 2]
    rnd.shuffle(shuffled)
    wide = 5  # no word of these outputs has more than 4 children
    assert trace_from_outputs(shuffled, depth, wide) == trace_from_outputs(outs, depth, wide)

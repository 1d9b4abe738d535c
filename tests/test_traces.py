"""Level-indexed trace tables: bounds, go-through, round trips."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree
from survtree.engine.common import trace_from_outputs
from survtree.io_formats import canonical_json, json_to_trace, trace_to_json
from survtree.traces import BoundExceeded, TraceTable, first_outside, goes_through
from survtree.trees import FiniteTree

POW3 = 3
POW2 = 2


def level_trace(u: FiniteTree, base: int) -> TraceTable:
    """The trace whose level n is the tree's level n, bounded by base**n."""
    return trace_from_outputs(u.nodes, u.depth, base)


BINARY3 = make_tree(
    w for n in range(4) for w in itertools.product(range(2), repeat=n)
)


def test_from_tree_binary_under_pow3():
    tr = level_trace(BINARY3, POW3)
    assert [len(tr.levels[n]) for n in range(4)] == [1, 2, 4, 8]


def test_from_tree_single_path():
    tr = level_trace(FiniteTree.from_words([(0,) * 4], 1), 1)
    assert all(len(tr.levels[n]) == 1 for n in range(5))


def test_from_tree_bound_exceeded():
    # the first offending level of a full ternary tree under 2^n is level 1
    # (3 words against an allowance of 2)
    with pytest.raises(BoundExceeded) as e:
        level_trace(FiniteTree.full(3, 2), POW2)
    assert e.value.level == 1 and e.value.size == 3


def test_bound_exceeded_at_deeper_level():
    # 2 words at level 1 fit under 2^n; 9 words at level 2 do not fit
    # under a bound allowing 4
    words = [(), (0,), (1,)]
    words += [(0, i) for i in range(3)] + [(1, i) for i in range(3)]
    with pytest.raises(BoundExceeded) as e:
        level_trace(FiniteTree.from_words(words), POW2)
    assert e.value.level == 2 and e.value.size == 6 and e.value.allowed == 4


def test_goes_through_empty_prefix():
    tr = level_trace(FiniteTree.from_words([(0,) * 2], 1), POW3)
    assert goes_through((), tr)


def test_goes_through_binary_member():
    tr = level_trace(BINARY3, POW3)
    assert goes_through((0, 1), tr)


def test_goes_through_rejects_foreign_entry():
    tr = level_trace(BINARY3, POW3)
    assert not goes_through((2,), tr)


def test_level_words_have_level_length():
    tr = level_trace(BINARY3, POW3)
    for n, words in enumerate(tr.levels):
        assert all(len(w) == n for w in words)


def test_prefix_coherence_enforced():
    # level 1 is the one word (5,), so row 1 cannot give children to two
    with pytest.raises(ValueError, match="row 1 has 2 lists for 1 words"):
        TraceTable((((5,),), ((1,), (1,))), POW3)


# --- property tests ---------------------------------------------------------


@st.composite
def small_tree(draw):
    nodes = {()}
    frontier = [()]
    for _ in range(draw(st.integers(1, 4))):
        nxt = []
        for w in frontier:
            for e in draw(
                st.sets(st.integers(0, 2), min_size=1, max_size=3)
            ):
                nodes.add(w + (e,))
                nxt.append(w + (e,))
        frontier = nxt
    return FiniteTree(frozenset(nodes))


@settings(max_examples=40, deadline=None)
@given(small_tree())
def test_goes_through_iff_member(t):
    tr = level_trace(t, POW3)
    for n in range(t.depth + 1):
        for w in itertools.product(range(3), repeat=n):
            assert goes_through(w, tr) == (w in t.nodes)


@settings(max_examples=200, deadline=None)
@given(small_tree(), st.integers(1, 3))
def test_bound_check_agrees_with_every_level_compared(t, base):
    first_over = next(
        (n for n in range(t.depth + 1) if len(t.level(n)) > base**n), None
    )
    if first_over is None:
        assert level_trace(t, base).depth == t.depth
    else:
        with pytest.raises(BoundExceeded) as e:
            level_trace(t, base)
        assert e.value.level == first_over


def _all_prefixes_in_levels(prefix, tr) -> bool:
    return all(prefix[:n] in tr.levels[n] for n in range(len(prefix) + 1))


words = st.lists(st.integers(0, 3), max_size=5).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(words, min_size=1, max_size=8), st.lists(words, max_size=12))
def test_goes_through_is_the_all_prefixes_check(members, probes):
    """On a trace whose branches end at any length, one lookup in the
    prefix's own level answers as the check of every initial segment."""
    tr = level_trace(FiniteTree.from_words(members), 4)
    for w in [*members, *probes, *(m[:-1] + (3 - m[-1],) for m in members if m)]:
        if len(w) > tr.depth:
            with pytest.raises(ValueError, match="exceeds trace depth"):
                goes_through(w, tr)
        else:
            assert goes_through(w, tr) == _all_prefixes_in_levels(w, tr)


@st.composite
def trace_and_prefixes(draw):
    """A trace over entries 0..3 and a list of prefixes to check against
    it: runs of prefixes under one head, in it or not, single words of any
    length (some past the depth) and empty prefixes."""
    members = draw(st.lists(words, min_size=1, max_size=8))
    tr = level_trace(FiniteTree.from_words(members), 4)
    inside = sorted({m[:n] for m in members for n in range(len(m) + 1)})
    heads = st.one_of(st.sampled_from(inside), words)
    run = st.tuples(heads, st.lists(st.integers(0, 3), min_size=1, max_size=4)).map(
        lambda t: [t[0] + (e,) for e in t[1]]
    )
    parts = st.lists(st.one_of(run, words.map(lambda w: [w]), st.just([()])), max_size=8)
    return tr, [p for part in draw(parts) for p in part]


@settings(max_examples=500, deadline=None)
@given(trace_and_prefixes())
def test_first_outside_agrees_with_goes_through_prefix_by_prefix(case):
    tr, prefixes = case
    for i, p in enumerate(prefixes):
        if len(p) > tr.depth:
            with pytest.raises(ValueError, match="exceeds trace depth"):
                goes_through(p, tr)
            with pytest.raises(ValueError, match="exceeds trace depth"):
                first_outside(prefixes, tr)
            return
        if not goes_through(p, tr):
            assert first_outside(prefixes, tr) == i
            return
    assert first_outside(prefixes, tr) is None


def test_first_outside_walks_a_new_head_from_the_root():
    tr = level_trace(BINARY3, POW3)
    # (0, 1) shares no head with (2,), whose head () holds no 2
    assert first_outside([(0, 1, 0), (0, 1, 1), (2,), (1, 1)], tr) == 2
    # a head that leaves the trace refuses every prefix under it
    assert first_outside([(), (0, 2, 0), (0, 2, 1)], tr) == 1
    assert first_outside([(1, 0, 1), (), (1, 0, 0)], tr) is None


class _WordSetTrace:
    """The reference semantics: a trace as a tuple of frozensets of words,
    checked word by word, and going through it as one lookup per level."""

    def __init__(self, levels: tuple[frozenset, ...], base: int):
        above: frozenset = frozenset()
        for n, lv in enumerate(levels):
            for w in lv:
                if len(w) != n:
                    raise ValueError(f"word {w} in level {n} has wrong length")
                if n > 0 and w[:-1] not in above:
                    raise ValueError(f"level {n} not prefix-coherent at {w}")
            above = lv
            if len(lv) > base**n:
                raise BoundExceeded(n, len(lv), base**n)
        self.levels = levels

    @classmethod
    def from_outputs(cls, outs, depth: int, base: int) -> "_WordSetTrace":
        levels: list[set] = [set() for _ in range(depth + 1)]
        for o in outs:
            o = o[:depth]
            levels[len(o)].add(o)
        for n in range(depth, 0, -1):
            levels[n - 1].update(p[:-1] for p in levels[n])
        levels[0].add(())
        return cls(tuple(frozenset(lv) for lv in levels), base)

    def goes_through(self, prefix) -> bool:
        return prefix in self.levels[len(prefix)]


@settings(max_examples=200, deadline=None)
@given(st.lists(words, max_size=10), st.integers(0, 5), st.integers(1, 4))
def test_rows_agree_with_the_word_set_reference(outs, depth, base):
    try:
        ref = _WordSetTrace.from_outputs(outs, depth, base)
    except BoundExceeded as e:
        with pytest.raises(BoundExceeded) as got:
            trace_from_outputs(outs, depth, base)
        assert (got.value.level, got.value.size, got.value.allowed) == (e.level, e.size, e.allowed)
        return
    tr = trace_from_outputs(outs, depth, base)
    assert tr.depth == depth
    assert tr.levels == [sorted(lv) for lv in ref.levels]
    for n in range(depth + 1):
        for w in itertools.product(range(4), repeat=n):
            assert goes_through(w, tr) == ref.goes_through(w)
    assert json_to_trace(json.loads(canonical_json(trace_to_json(tr))), depth, base) == tr

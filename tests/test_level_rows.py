"""Trees kept as sorted level rows and child counts.

A tree given as a collection of nodes is sorted into levels and checked
there, one level at a time; it matches a reference read off the node set.
The surviving engine and its record's encoding build no node set and no
trace, and the verifier checks each stage that owes an output trie a level
at a time on a full final tree, building the trie only for a functional
with no letter map."""

from __future__ import annotations

import io
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import forked_defects
from survtree import traces
from survtree.engine import diagonalize_surviving, verify, verify_record
from survtree.io_formats import dump_record
from survtree.staged import standard_library
from survtree.trees import (
    FiniteTree,
    ShapeViolation,
    is_k_branching_to_depth,
    is_k_tree_to_depth,
    word_key,
)

LIB = standard_library()


def _reference(words: list, bound):
    """(levels, counts) from the node set, or the message of the first
    defect, level by level: a node listed twice, then an entry at or over
    the bound, then a node whose parent is missing, each the least such
    node of its level."""
    nodes = set(words)
    depth = max(map(len, words), default=0)
    for n in range(depth + 1):
        lv = [w for w in words if len(w) == n]
        if len(set(lv)) < len(lv):
            return "a tree node is listed twice"
        over = sorted(w for w in lv if n and bound is not None and w[-1] >= bound)
        if over:
            return f"entry out of alphabet bound in {over[0]}"
        orphans = sorted(w for w in lv if n and w[:-1] not in nodes)
        if orphans:
            return f"not prefix-closed at {orphans[0]}"
    levels = [sorted(w for w in nodes if len(w) == n) for n in range(depth + 1)]
    counts = [
        [sum(len(v) == n + 1 and v[:-1] == w for v in nodes) for w in lv]
        for n, lv in enumerate(levels)
    ]
    return levels, counts


@st.composite
def node_lists(draw):
    """(words, bound): the nodes of a random tree of depth <= 3 over b
    letters, in any order, perhaps with a node listed twice, a node dropped
    (so a prefix may be missing), an entry moved to b or past it, and an
    entry that is a bool or a float."""
    b = draw(st.integers(1, 4))
    nodes, frontier = {()}, [()]
    while frontier:
        w = frontier.pop()
        if len(w) < 3:
            for e in draw(st.sets(st.integers(0, b - 1), max_size=b)):
                nodes.add(w + (e,))
                frontier.append(w + (e,))
    words = sorted(nodes)
    edits = draw(st.sets(st.sampled_from(["twice", "drop", "over", "bool", "float"])))
    if "twice" in edits:
        words.append(draw(st.sampled_from(words)))
    if "drop" in edits:
        words.remove(draw(st.sampled_from(words)))
    longer = [i for i, w in enumerate(words) if w]
    for edit in sorted(edits & {"over", "bool", "float"}):
        if not longer:
            break
        i = draw(st.sampled_from(longer))
        j = draw(st.integers(0, len(words[i]) - 1))
        e = words[i][j]
        new = {"over": b + draw(st.integers(0, 1)), "bool": e == 1, "float": e + 0.5 * (e % 2)}
        words[i] = words[i][:j] + (new[edit],) + words[i][j + 1:]
    words = draw(st.permutations(words))
    bound = draw(st.sampled_from([None, b, b + 1]))
    return words, bound


@settings(max_examples=400, deadline=None)
@given(node_lists())
@example(([], None))
@example(([(), (True,), (1,)], 2))
@example(([(), (0,), (0, 1), (1, 0)], 2))
def test_the_row_builder_matches_the_node_set_reference(case):
    words, bound = case
    ref = _reference(words, bound)
    for given_as in (list, frozenset):
        if isinstance(ref, str):
            if given_as is list or ref != "a tree node is listed twice":
                with pytest.raises(ValueError) as e:
                    FiniteTree(given_as(words), bound)
                assert str(e.value) == ref
            continue
        tree = FiniteTree(given_as(words), bound)
        levels, counts = ref
        assert tree.levels() == levels and tree.counts() == counts
        assert tree.depth == len(levels) - 1
        assert tree.nodes == frozenset(words)
        assert tree.leaves() == sorted(
            (w for lv, cs in zip(levels, counts) for w, c in zip(lv, cs) if not c), key=word_key
        )
        probes = {*words, *(w + (e,) for w in words for e in range(-1, 6)), (7,) * 5}
        assert all((p in tree) == (p in tree.nodes) for p in probes)
        same = FiniteTree(frozenset(reversed(words)), bound)
        assert same == tree and hash(same) == hash(tree)
        if words:
            same = FiniteTree.from_levels([list(lv) for lv in levels], bound)
            assert same == tree and hash(same) == hash(tree)
            # another bound, or one node fewer (a leaf, so still a tree)
            assert tree != FiniteTree(given_as(words), 99)
            leaf = tree.leaves()[-1]
            fewer = FiniteTree([w for w in words if w != leaf], bound)
            assert fewer != tree and fewer.nodes == tree.nodes - {leaf}


@settings(max_examples=300, deadline=None)
@given(node_lists(), st.integers(1, 4), st.integers(0, 4))
def test_a_count_row_tested_as_a_set_gives_the_first_bad_node(case, k, d):
    """Each predicate names the first node below d, shortest then lex,
    whose number of children it does not allow."""
    words, bound = case
    ref = _reference(words, bound)
    assume(not isinstance(ref, str))
    tree = FiniteTree(words, bound)
    counted = [(w, c) for lv, cs in zip(*ref) for w, c in zip(lv, cs) if len(w) < d]
    bad = next(((w, c) for w, c in counted if not 1 <= c <= k), None)
    want = bad and ShapeViolation(*bad, f"between 1 and {k} successors")
    assert is_k_tree_to_depth(tree, k, d) == want
    if k >= 2:
        bad = next(((w, c) for w, c in counted if c not in (1, k)), None)
        want = bad and ShapeViolation(*bad, f"exactly 1 or {k} successors")
        assert is_k_branching_to_depth(tree, k, d) == want


def _spy(monkeypatch):
    """Counters of the node sets read, the trees sorted from a node
    collection and the trace tables built."""
    seen = Counter()
    read_nodes = FiniteTree.nodes.fget
    post_init = FiniteTree.__post_init__
    table_init = traces.TraceTable.__post_init__

    def nodes(tree):
        seen["node sets"] += 1
        return read_nodes(tree)

    def sorted_from_nodes(tree):
        seen["trees from nodes"] += tree._counts is None
        post_init(tree)

    def table_built(table):
        seen["trace tables"] += 1
        table_init(table)

    monkeypatch.setattr(FiniteTree, "nodes", property(nodes))
    monkeypatch.setattr(FiniteTree, "__post_init__", sorted_from_nodes)
    monkeypatch.setattr(traces.TraceTable, "__post_init__", table_built)
    return seen


def test_the_surviving_engine_and_its_encoding_build_no_node_set_and_no_trace(monkeypatch):
    seen = _spy(monkeypatch)
    widths = []
    level_width = verify.level_width

    def spied(*args):
        widths.append(w := level_width(*args))
        return w

    monkeypatch.setattr(verify, "level_width", spied)
    record = diagonalize_surviving(2, LIB, 14, 8, 10_000)
    buf = io.StringIO()
    dump_record(record.to_payload(), buf)
    assert record.final_tree.depth == 8
    assert seen == Counter()

    payload = record.to_payload()
    assert verify_record(payload) == []
    # the final tree is read from the record as a node list, and its set is
    # never built; each stage logged B or C is checked a level at a time on
    # the final tree, full above the stem, and no output trie is built
    tamed = [e for e in payload["stage_log"] if e["case"] in ("B", "C")]
    assert len(tamed) == 3
    # identity and entry_mod 3 map the 3 letters apart, the constant to one
    assert widths == [3, 3, 1]
    assert seen == Counter({"trees from nodes": 1})


def test_a_forked_functional_still_builds_the_output_trie_and_names_the_word(monkeypatch):
    """A functional with no letter map, here forking k+2 ways above the
    stem of the standard depth-8 record, goes through the trie."""
    seen = _spy(monkeypatch)
    payload = diagonalize_surviving(2, LIB, 14, 8, 10_000).to_payload()
    stem = tuple(payload["final_stem"])
    leaves = [w for w in verify.tree_of_payload(payload).leaves() if w[:len(stem)] == stem]
    fid, stage = next(
        (int(e["requirement"][1:]), e["stage"]) for e in payload["stage_log"] if e["case"] == "C"
    )
    adds = {leaves[i]: (9, i) for i in range(4)}
    assert forked_defects(monkeypatch, payload, fid, adds) == [
        f"stage {stage} (C): the outputs of functional {fid} on the leaves fork 4 ways at (9,), "
        "more than 3"
    ]
    assert seen["trace tables"] == 1


def test_a_depth_9_surviving_run_stays_under_6_mib():
    """Without the node sets of its trees the run peaks near 5 MiB (8.1 MiB
    with them and the traces' offsets), on Python 3.10 and 3.11."""
    tracemalloc.start()
    try:
        record = diagonalize_surviving(2, LIB, 14, 9, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.final_tree.depth == 9
    assert peak < 6 << 20, f"peak {peak / 2**20:.2f} MiB"


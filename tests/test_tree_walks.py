"""Walks over sorted tree levels against word-keyed reference walks.

The references are the breadth-first ``nodes_above``, the dict-based case
A/B folds, the prefix-testing ``subtree_above`` and the case C that
rebuilt its tree from a node set and searched every top's children length
by length (``conftest.reference_case_c``); the level walks replaced them,
and they are kept to check the level walks on random trees.  Children come
from the node set alone (``conftest.child_map``), outputs are read
position by position (``conftest.PositionReader``), and the DOT rendering
that read a child map is kept to check ``tree_to_dot``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PositionReader,
    adding_functional,
    child_map,
    own_prefixes,
    read_nodes,
    reference_case_c,
)
from survtree.engine import diagonalize_surviving, surviving
from survtree.engine.common import OutputTable, nodes_above
from survtree.engine.surviving import (
    _Drawn,
    _assign_kids,
    _case_c,
    _first_per_prefix,
    _pick_distinct,
)
from survtree.io_formats import tree_to_dot
from survtree.staged import OracleFunctional, functional_from_config, standard_library
from survtree.trees import (
    FiniteTree,
    Word,
    children,
    is_prefix,
    rows_above,
    subtree_above,
    word_key,
)

DEPTH = 4


def _reference_nodes_above(tree: FiniteTree, node: Word) -> list[Word]:
    if node not in tree.nodes:
        return []
    cm = child_map(tree)
    out, queue = [], deque([node])
    while queue:
        w = queue.popleft()
        out.append(w)
        queue.extend(w + (i,) for i in cm[w])
    return out


def _reference_divergence_escape(table, stem, tree):
    cm = child_map(tree)
    order = _reference_nodes_above(tree, stem)
    mask: dict[Word, int] = {}
    for w in reversed(order):
        kids = cm[w]
        if kids:
            m = -1
            for i in kids:
                m &= mask[w + (i,)]
        else:
            # a leaf is read whole: its positions past its prefix
            m = 0
            for n in range(len(table.converged(w)), table.depth):
                m |= 1 << n
        mask[w] = m
    for t in order:
        if mask[t]:
            return t, (mask[t] & -mask[t]).bit_length() - 1
    return None


def _reference_widest_level(outs: set[Word]) -> int:
    level: set[Word] = set()
    widest = 0
    for n in range(max(map(len, outs)), 0, -1):
        level = {p[:n] for p in level} | {o for o in outs if len(o) == n}
        widest = max(widest, len(level))
    return widest


def _reference_case_b(table, k, stem, tree) -> Optional[Word]:
    cm = child_map(tree)
    order = _reference_nodes_above(tree, stem)
    over: set[Word] = set()
    merged: dict[Word, set[Word]] = {}
    for w in reversed(order):
        if w in over:
            continue
        kids = cm[w]
        if not kids:
            merged[w] = {table.converged(w)}
            continue
        outs = set().union(*(merged.pop(w + (i,)) for i in kids))
        if _reference_widest_level(outs) > k:
            a = w
            while len(a) >= len(stem) and a not in over:
                over.add(a)
                a = a[:-1]
        else:
            merged[w] = outs
    return next((t for t in order if len(t) < tree.depth and t not in over), None)


def _reference_cases_a_b(table, stem, tree, k=None):
    """What ``cases_a_b`` answers: case B is looked for only when case A
    finds nothing.  Case B reads no position case A has not read."""
    hit = _reference_divergence_escape(table, stem, tree)
    tau = None if k is None else _reference_case_b(table, k, stem, tree)
    return hit, tau if hit is None else None


def _walked_pool(table, tree, top, n):
    """``_first_per_prefix`` without its use-monotone shortcut: every node
    above top is walked."""
    seen: set[Word] = set()
    for v in nodes_above(tree, top):
        o = table.converged(v)
        if len(o) >= n and o[:n] not in seen:
            seen.add(o[:n])
            yield v, o[:n]


def _walking_assign_kids(table, tree, kids, sigma_len):
    """``_assign_kids`` with every pool walked, as it must read a functional
    not known to be use-monotone."""
    for n in range(sigma_len + 1, table.depth + 1):
        chosen = own_prefixes(table, kids, n)
        if chosen is not None:
            return chosen
        pools = [_Drawn(_walked_pool(table, tree, v, n)) for v in kids]
        if any(p.get(0) is None for p in pools):
            continue
        chosen = _pick_distinct(pools, [])
        if chosen is not None:
            return chosen
    return None


def _reference_dot(tree: FiniteTree, name: str = "tree") -> str:
    """The rendering that walked each node's child map in node order."""
    cm = child_map(tree)
    order = sorted(tree.nodes, key=word_key)
    ident = {w: f"n{i}" for i, w in enumerate(order)}
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for w in order:
        label = "()" if not w else ".".join(map(str, w))
        shape = "doublecircle" if len(cm[w]) > 1 else "circle"
        lines.append(f'  {ident[w]} [label="{label}" shape={shape}];')
    for w in order:
        for i in cm[w]:
            lines.append(f'  {ident[w]} -> {ident[w + (i,)]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_subtree_above(tree: FiniteTree, stem: Word) -> FiniteTree:
    return FiniteTree(
        frozenset(w for w in tree.nodes if is_prefix(w, stem) or is_prefix(stem, w)),
        tree.alphabet_bound,
    )


@st.composite
def trees(draw, b=3):
    """Random prefix-closed trees; branches end at any length up to DEPTH."""
    nodes = {()}
    frontier = [()]
    while frontier:
        w = frontier.pop()
        if len(w) == DEPTH:
            continue
        for i in draw(st.sets(st.integers(0, b - 1), max_size=b)):
            nodes.add(w + (i,))
            frontier.append(w + (i,))
    return FiniteTree(frozenset(nodes), b)


@st.composite
def trees_with_table(draw):
    """A tree, a node of it, and the outputs each node adds to its parent's
    (see ``conftest.adding_functional``): a run of values in 0..2, often
    none.  The nodes repeat a drawn list of runs, so an example stays
    small.  Full trees are drawn as well, as case C needs nodes with three
    children."""
    full = st.builds(FiniteTree.full, st.just(3), st.integers(1, DEPTH))
    tree = draw(st.one_of(trees(), full))
    run = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    runs = draw(st.lists(run, min_size=1, max_size=DEPTH))
    nodes = tree.sorted_nodes()
    adds = {w: runs[i % len(runs)] for i, w in enumerate(nodes)}
    return tree, adds, draw(st.sampled_from(nodes))


@st.composite
def splitting_tables(draw):
    """Like trees_with_table, but most nodes add their own last entry under
    a drawn permutation per position, so case C can split; the others add
    the repeated runs, so its pool search has work."""
    tree, run_adds, stem = draw(trees_with_table())
    perms = draw(st.lists(st.permutations(range(3)), min_size=DEPTH, max_size=DEPTH))
    nodes = tree.sorted_nodes()
    noisy = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes) // 4))
    adds = {
        w: run_adds[w] if w in noisy or not w else (perms[len(w) - 1][w[-1]],)
        for w in nodes
    }
    return tree, adds, stem


def _table(adds: dict[Word, Word]) -> OutputTable:
    return OutputTable(adding_functional(adds), 1, DEPTH)


def _reader(adds: dict[Word, Word]) -> PositionReader:
    return PositionReader(adding_functional(adds), 1, DEPTH)


@settings(max_examples=200, deadline=None)
@given(trees(), st.lists(st.integers(0, 3), max_size=3))
def test_levels_and_child_map_match_the_node_set(tree, probe):
    levels = tree.levels()
    assert [w for lv in levels for w in lv] == sorted(tree.nodes, key=word_key)
    assert all(len(w) == n for n, lv in enumerate(levels) for w in lv)
    cm = child_map(tree)
    assert {w: children(tree, w) for w in tree.nodes} == {
        w: [w + (i,) for i in es] for w, es in cm.items()
    }
    if tuple(probe) not in tree.nodes:
        assert children(tree, tuple(probe)) == []
    assert tree.counts() == [[len(cm[w]) for w in lv] for lv in levels]
    assert tree.leaves() == sorted((w for w in cm if not cm[w]), key=word_key)


def _assert_indexes_match_node_set(tree: FiniteTree) -> None:
    """A tree built from levels indexes like one built from its node set."""
    fresh = FiniteTree(tree.nodes, tree.alphabet_bound)
    assert tree == fresh
    assert tree.levels() == fresh.levels()
    assert [children(tree, w) for w in tree.nodes] == [children(fresh, w) for w in tree.nodes]
    assert tree.counts() == fresh.counts()


@pytest.mark.parametrize("b, d", [(1, 0), (1, 3), (2, 4), (3, 3), (4, 2)])
def test_full_tree_levels_match_its_node_set(b, d):
    tree = FiniteTree.full(b, d)
    assert len(tree.nodes) == sum(b**n for n in range(d + 1))
    _assert_indexes_match_node_set(tree)


@pytest.mark.parametrize(
    "levels, match",
    [
        ([[()], [(1,), (0,)]], "level 1"),
        ([[()], [(0,), (0,)]], "listed twice"),
        ([[()], [(0,), (1,)], [(2, 0)]], "not prefix-closed"),
        ([[()], [(0,), (0, 0)]], "level 1"),
        ([[()], [(0,)], []], "level 2"),
    ],
)
def test_from_levels_rejects_malformed_levels(levels, match):
    with pytest.raises(ValueError, match=match):
        FiniteTree.from_levels(levels, 3)


def test_from_levels_keeps_its_levels():
    levels = [[()], [(0,), (2,)], [(2, 1)]]
    tree = FiniteTree.from_levels(levels, 3)
    assert tree.levels() is levels
    assert [children(tree, w) for w in tree.sorted_nodes()] == [[(0,), (2,)], [], [(2, 1)], []]


@settings(max_examples=200, deadline=None)
@given(trees(), st.lists(st.integers(0, 3), max_size=3))
def test_nodes_above_matches_breadth_first_walk(tree, probe):
    cm = child_map(tree)
    for node in tree.sorted_nodes() + [tuple(probe)]:
        expected = _reference_nodes_above(tree, node)
        assert list(nodes_above(tree, node)) == expected
        rows = list(rows_above(tree, node))
        assert [w for lv, _ in rows for w in lv] == expected
        assert all(
            lv and all(len(w) == len(node) + i for w in lv)
            for i, (lv, _) in enumerate(rows)
        )
        assert [c for _, cs in rows for c in cs] == [len(cm[w]) for w in expected]


@settings(max_examples=200, deadline=None)
@given(trees())
def test_subtree_above_matches_prefix_filter(tree):
    # a tree whose rows are built by the restriction, then one whose rows
    # were built before
    bare = FiniteTree(tree.nodes, tree.alphabet_bound)
    tree.counts()
    for t in (bare, tree):
        for stem in tree.sorted_nodes():
            sub = subtree_above(t, stem)
            assert sub == _reference_subtree_above(tree, stem)
            _assert_indexes_match_node_set(sub)


@settings(max_examples=200, deadline=None)
@given(st.one_of(trees(), trees(b=5)), st.sampled_from(["tree", "g"]))
def test_dot_matches_the_child_map_rendering(tree, name):
    assert tree_to_dot(tree, name) == _reference_dot(tree, name)


@settings(max_examples=300, deadline=None)
@given(trees_with_table())
def test_divergence_escape_matches_dict_fold(case):
    tree, adds, stem = case
    table, ref = _table(adds), _reader(adds)
    hit, tau = table.cases_a_b(stem, tree)
    assert hit == _reference_divergence_escape(ref, stem, tree)
    assert tau is None
    assert read_nodes(table) == ref.reads


@settings(max_examples=300, deadline=None)
@given(trees_with_table(), st.integers(1, 3))
def test_case_b_matches_dict_fold(case, k):
    tree, adds, stem = case
    table, ref = _table(adds), _reader(adds)
    assert table.cases_a_b(stem, tree, k) == _reference_cases_a_b(ref, stem, tree, k)
    assert read_nodes(table) == ref.reads


@st.composite
def one_length_leaf_rows(draw):
    """A full tree with c in {k, k + 1} children a node, a stem, and leaf
    outputs of one drawn length n from a drawn number of values, so that
    parents fall on both sides of more than k distinct outputs; the table
    is n deep, or as deep as the tree."""
    k = draw(st.integers(1, 3))
    c = draw(st.sampled_from([k, k + 1]))
    d = draw(st.integers(1, 4 if c < 4 else 3))
    tree = FiniteTree.full(c, d)
    n = draw(st.integers(0, d))
    values = st.integers(0, draw(st.integers(0, c)))
    adds = {leaf: tuple(draw(st.lists(values, min_size=n, max_size=n))) for leaf in tree.leaves()}
    depth = draw(st.sampled_from([n, d]))
    stem = draw(st.sampled_from(tree.sorted_nodes()))
    return k, tree, adds, depth, stem


@settings(max_examples=300, deadline=None)
@given(one_length_leaf_rows())
# every parent over k, so every row above is too
@example((1, FiniteTree.full(2, 3), {w: w for w in FiniteTree.full(2, 3).leaves()}, 3, ()))
# a diverging functional: length-0 outputs, at depth 0 and past it
@example((2, FiniteTree.full(3, 2), {}, 0, ()))
@example((2, FiniteTree.full(3, 2), {}, 2, (1,)))
def test_one_length_leaf_rows_decide_sets_as_the_dict_fold(case):
    k, tree, adds, depth, stem = case
    table = OutputTable(adding_functional(adds), 1, depth)
    ref = PositionReader(adding_functional(adds), 1, depth)
    assert table.cases_a_b(stem, tree, k) == _reference_cases_a_b(ref, stem, tree, k)
    assert read_nodes(table) == ref.reads


def _own_entry_adds(tree: FiniteTree) -> dict[Word, Word]:
    """Each node outputs its own entries, then nothing: every split's
    children carry distinct prefixes."""
    return {w: w[-1:] for w in tree.sorted_nodes()}


@settings(max_examples=300, deadline=None)
@given(st.one_of(trees_with_table(), splitting_tables()))
# a table deeper than the tree
@example((FiniteTree.full(3, 1), _own_entry_adds(FiniteTree.full(3, 1)), ()))
def test_case_c_matches_node_set_rebuild(case):
    tree, adds, stem = case
    table, ref = _table(adds), _reader(adds)
    built = _case_c(table, 2, stem, tree)
    assert built == reference_case_c(ref, 2, stem, tree)
    assert table.evals == ref.evals
    assert read_nodes(table) == ref.reads
    if built is not None:
        _assert_indexes_match_node_set(built)


def test_case_c_hands_back_the_working_tree_on_the_standard_record(monkeypatch):
    handed: list[tuple[FiniteTree, FiniteTree]] = []

    def recording_case_c(table, k, stem, tree):
        built = _case_c(table, k, stem, tree)
        handed.append((tree, built))
        return built

    monkeypatch.setattr(surviving, "_case_c", recording_case_c)
    rec = diagonalize_surviving(2, standard_library(), 8, 6, 4000)
    assert rec.status == "complete"
    assert handed and all(new is old for old, new in handed)


def test_case_c_rebuilds_a_tree_with_a_leaf_above_the_depth():
    # three chains from the root to the depth, so the root's split pads to
    # the depth level; (2, 1) adds a leaf above the depth
    chains = [(i,) + (0,) * n for i in range(3) for n in range(DEPTH)]
    bare = FiniteTree.from_words(chains, 3)
    tree = FiniteTree.from_words(chains + [(2, 1)], 3)
    assert tree.levels()[DEPTH] == bare.levels()[DEPTH]
    assert _case_c(_table(_own_entry_adds(bare)), 2, (), bare) is bare
    adds = _own_entry_adds(tree)
    built = _case_c(_table(adds), 2, (), tree)
    assert built == reference_case_c(_reader(adds), 2, (), tree)
    assert built == bare
    _assert_indexes_match_node_set(built)


# the configured kinds, with the moduli whose outputs repeat among three
# siblings, so that own prefixes collide
closed_form_entries = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, st.integers(1, 3)),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 2)),
    st.just({"kind": "diverging"}),
)


@st.composite
def full_trees_with_stems(draw):
    """A full ternary tree of depth 3 to 6 and a stem below its depth."""
    d = draw(st.integers(3, 6))
    stem = draw(st.lists(st.integers(0, 2), max_size=d - 1))
    return FiniteTree.full(3, d), tuple(stem)


@settings(max_examples=300, deadline=None)
@given(full_trees_with_stems(), closed_form_entries, st.integers(0, 8), st.booleans())
def test_singleton_pools_build_what_the_pool_walks_build(case, entry, fuel, staged):
    """Case C, whose pools above a child long enough are the child alone,
    against the reference case C read position by position, whose pools
    walk every node above each child.

    Both build the same tree.  The singleton pools read a subset
    of what the walks read.  Where the engine runs case C, after a fold
    that found neither case A nor case B, every node the walks read is
    read by a later round anyway, so the counts are equal."""
    tree, stem = case
    fn = functional_from_config(entry, 0)
    table = OutputTable(fn, fuel, tree.depth)
    ref = PositionReader(fn, fuel, tree.depth)
    if staged:
        cases = table.cases_a_b(stem, tree, 2)
        assert cases == _reference_cases_a_b(ref, stem, tree, 2)
        if cases != (None, None):
            return
    built = _case_c(table, 2, stem, tree)
    assert built == reference_case_c(ref, 2, stem, tree, _walking_assign_kids)
    assert table.evals <= ref.evals
    if staged:
        assert table.evals == ref.evals


@st.composite
def noisy_entry_functionals(draw, tree, stem):
    """A closed-form prefix whose position i on sigma is sigma[i] under a
    drawn permutation, or at a few drawn nodes w = sigma[:i + 1] above the
    stem a drawn value or None.  It reads sigma[:i + 1] alone, so it is
    use-monotone, and a noisy node makes its group of siblings fail on its
    own, so a batched case C round can fail part of the way through a
    level."""
    perms = draw(st.lists(st.permutations(range(3)), min_size=6, max_size=6))
    above = list(nodes_above(tree, stem))[1:] or [stem]
    values = st.one_of(st.none(), st.integers(0, 2))
    noise = draw(st.dictionaries(st.sampled_from(above), values, max_size=4))

    def prefix(sigma, cap, fuel):
        out = []
        for i in range(max(0, min(len(sigma), cap, fuel))):
            v = noise.get(sigma[:i + 1], perms[i][sigma[i]])
            if v is None:
                break
            out.append(v)
        return tuple(out)

    return OracleFunctional(0, "noisy", prefix)


@settings(max_examples=300, deadline=None)
@given(full_trees_with_stems(), st.integers(0, 8), st.booleans(), st.data())
def test_every_closed_form_prefix_call_is_a_counted_read(case, fuel, staged, data):
    """The fold's leaf rows and case C's batched rounds call the closed-form
    prefix only on nodes whose reads the table counts, and read what the
    per-top search reads: the same nodes."""
    tree, stem = case
    fn = data.draw(st.one_of(
        closed_form_entries.map(lambda e: functional_from_config(e, 0)),
        noisy_entry_functionals(tree, stem),
    ))
    called: set[Word] = set()

    def recording(sigma, cap, fuel):
        called.add(sigma)
        return fn.prefix(sigma, cap, fuel)

    table = OutputTable(OracleFunctional(fn.id, fn.kind, recording), fuel, tree.depth)
    ref = OutputTable(fn, fuel, tree.depth)
    if staged:
        assert table.cases_a_b(stem, tree, 2) == ref.cases_a_b(stem, tree, 2)
    assert _case_c(table, 2, stem, tree) == reference_case_c(ref, 2, stem, tree)
    assert called == read_nodes(ref)
    assert table.evals == ref.evals


def _pool_search(table, tree, q, sigma_len):
    """The case-C pool search alone, without the own-prefix shortcut."""
    for n in range(sigma_len + 1, table.depth + 1):
        pools = [
            _Drawn(_first_per_prefix(table, tree, q + (i,), n))
            for i in child_map(tree)[q]
        ]
        if any(p.get(0) is None for p in pools):
            continue
        chosen = _pick_distinct(pools, [])
        if chosen is not None:
            return chosen
    return None


@settings(max_examples=300, deadline=None)
@given(trees_with_table(), st.integers(0, DEPTH - 1))
def test_own_prefix_shortcut_reads_what_the_pool_search_reads(case, sigma_len):
    tree, adds, q = case
    if not child_map(tree)[q]:
        return
    fast, pool = _table(adds), _table(adds)
    chosen = _assign_kids(fast, tree, children(tree, q), sigma_len)
    assert chosen == _pool_search(pool, tree, q, sigma_len)
    assert read_nodes(fast) == read_nodes(pool)

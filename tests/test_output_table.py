"""Per-stage output tables: the nodes they read and the lazy case-C search."""

from __future__ import annotations

from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PositionReader, adding_functional, child_map, read_nodes
from survtree.engine import accelerating_force
from survtree.engine.common import OutputTable
from survtree.engine.surviving import _assign_kids
from survtree.staged import AdversaryFamily, OracleFunctional, standard_library
from survtree.trees import FiniteTree, Word, children, word_key


# few words, so that reads of one row mix
words = st.sampled_from([(), (1,), (4, 2), (0, 3, 1), (2, 2, 2, 2, 2), (4, 0, 1, 3, 2, 1)])
reads = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["value", "converged"]), words, st.integers(0, 5)),
        # a row read in order, whole at n = 0
        st.tuples(st.just("converged_run"), st.lists(words, max_size=4), st.integers(0, 6)),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(0, 6), st.integers(-1, 7), reads)
# a node's positions read one by one, again, then its row and a whole row
@example(0, 6, 7, [
    ("value", (4, 0, 1, 3, 2, 1), 3), ("value", (4, 0, 1, 3, 2, 1), 0),
    ("converged", (4, 0, 1, 3, 2, 1), 0), ("converged_run", [(4, 2), (), (1,)], 0),
    ("value", (4, 2), 5),
])
def test_prefix_rows_read_like_per_position_rows(fid, depth, fuel, ops):
    """Any sequence of reads returns the same and counts the same nodes
    whether rows come from the prefix or position by position; a node read
    twice, or at two positions, counts once."""
    fn = standard_library().functionals[fid]
    fast, slow = OutputTable(fn, fuel, depth), PositionReader(fn, fuel, depth)
    for op, w, n in ops:
        if op == "value" and n >= depth:
            continue
        args = (w,) if op == "converged" else (w, n)
        for _ in range(2 if op == "value" else 1):
            assert getattr(fast, op)(*args) == getattr(slow, op)(*args)
            assert fast.evals == slow.evals


def test_value_takes_a_node_prefix_once_on_its_first_read():
    mod3 = standard_library().functionals[1]
    calls = []

    def prefix(sigma, cap, fuel):
        calls.append((sigma, cap))
        return mod3.prefix(sigma, cap, fuel)

    table = OutputTable(OracleFunctional(1, "entry_mod", prefix), 100, 5)
    assert [table.value((4, 2, 7), n) for n in (2, 0, 1, 4, 2)] == [1, 1, 2, None, 1]
    assert calls == [((4, 2, 7), 5)]
    assert table.evals == 1


def test_table_serves_values_outputs_and_converged_prefixes():
    fn = standard_library().functionals[0]  # identity
    table = OutputTable(fn, 4000, 4)
    assert table.value((2, 1), 1) == 1
    assert table.converged((2, 1)) == (2, 1)
    assert [table.value((2, 1), n) for n in range(4)] == [2, 1, None, None]
    assert table.evals == 1


# -- the lazy case-C candidate search against the full-list search -----------


def _descendants_map(tree: FiniteTree) -> dict[Word, list[Word]]:
    cm = child_map(tree)
    desc: dict[Word, list[Word]] = {}
    for w in sorted(tree.nodes, key=word_key, reverse=True):
        bucket = [w]
        for i in cm.get(w, ()):
            bucket.extend(desc[w + (i,)])
        desc[w] = bucket
    for bucket in desc.values():
        bucket.sort(key=word_key)
    return desc


def _reference_assign_distinct(conv, desc, q, child_entries, sigma_len, depth):
    per_child = [desc[q + (i,)] for i in child_entries]
    for n in range(sigma_len + 1, depth + 1):
        viable = [
            [(v, conv(v)[:n]) for v in cands if len(conv(v)) >= n]
            for cands in per_child
        ]
        if any(not v for v in viable):
            continue
        chosen = _reference_pick_distinct(viable, [])
        if chosen is not None:
            return chosen
    return None


def _reference_pick_distinct(viable, acc) -> Optional[list]:
    if len(acc) == len(viable):
        return acc
    used = {o for _, o in acc}
    for v, o in viable[len(acc)]:
        if o in used:
            continue
        res = _reference_pick_distinct(viable, acc + [(v, o)])
        if res is not None:
            return res
    return None


DEPTH = 4


@st.composite
def trees_with_outputs(draw):
    nodes = {()}
    frontier = [()]
    while frontier:
        w = frontier.pop()
        if len(w) == DEPTH:
            continue
        for i in draw(st.sets(st.integers(0, 2), max_size=3)):
            nodes.add(w + (i,))
            frontier.append(w + (i,))
    tree = FiniteTree(frozenset(nodes), 3)
    # the outputs each node adds to its parent's
    adds = {
        w: tuple(draw(st.lists(st.integers(0, 2), max_size=2)))
        for w in sorted(nodes, key=word_key)
    }
    cm = child_map(tree)
    splits = sorted((w for w in nodes if cm[w]), key=word_key)
    q = draw(st.sampled_from(splits)) if splits else ()
    sigma_len = draw(st.integers(0, DEPTH - 1))
    return tree, adds, q, sigma_len


@settings(max_examples=300, deadline=None)
@given(trees_with_outputs())
# a split node at the tree's depth, with no level below it
@example((FiniteTree(frozenset({()}), 3), {(): ()}, (), 0))
def test_lazy_candidate_search_matches_full_lists(case):
    tree, adds, q, sigma_len = case
    table = OutputTable(adding_functional(adds), 1, DEPTH)
    expected = _reference_assign_distinct(
        table.converged, _descendants_map(tree), q,
        child_map(tree)[q], sigma_len, DEPTH,
    )
    assert _assign_kids(table, tree, children(tree, q), sigma_len) == expected


# -- row reads against per-node reads ------------------------------------------


class NodeReader:
    """The reference for ``OutputTable``'s row reads: every node read one
    at a time, in order, its prefix taken on its first read."""

    def __init__(self, functional: OracleFunctional, fuel: int, depth: int):
        self.functional = functional
        self.fuel = fuel
        self.depth = depth
        self.read: dict[Word, Word] = {}

    @property
    def evals(self) -> int:
        return len(self.read)

    def converged(self, w: Word) -> Word:
        if w not in self.read:
            self.read[w] = self.functional.prefix(w, self.depth, self.fuel)
        return self.read[w]

    def value(self, w: Word, n: int) -> Optional[int]:
        p = self.converged(w)
        return p[n] if n < len(p) else None

    def converged_run(self, ws: list[Word], n: int) -> list[Word]:
        run = []
        for w in ws:
            run.append(p := self.converged(w))
            if len(p) < n:
                break
        return run

    def own_row(self, ws: list[Word]) -> bool:
        for w in ws:
            if self.converged(w) != w:
                return False
        return True

    def row(self, ws: list[Word]) -> list[Word]:
        return [self.converged(w) for w in ws]


# the stage tree a table may be handed: its level 2 is siblings, below
STAGE_TREE = FiniteTree.full(3, 2)
# siblings under identity and entry_mod, so that own rows are read whole
siblings = STAGE_TREE.levels()[2][3:]
row_words = st.sampled_from(siblings + [(), (1,), (4, 2), (0, 3, 1), (2, 2, 2, 2, 2)])
rows = st.one_of(st.lists(row_words, max_size=7), st.just(siblings), st.just(siblings[:3]))
row_reads = st.lists(
    st.one_of(
        st.tuples(st.just("value"), row_words, st.integers(0, 4)),
        st.tuples(st.just("converged"), row_words),
        st.tuples(st.just("converged_run"), rows, st.integers(0, 3)),
        st.tuples(st.just("own_row"), rows),
        st.tuples(st.just("row"), rows),
    ),
    max_size=10,
)


@settings(max_examples=400, deadline=None)
# whether the table takes STAGE_TREE as its stage's tree before its reads
@given(st.booleans(), st.integers(0, 3), st.integers(0, 5), st.integers(-1, 6), row_reads)
# a node read by value, then in a row naming it twice, then whole
@example(True, 1, 3, 6, [
    ("value", (1, 2), 1), ("converged_run", [(1, 2), (4, 2), (1, 2)], 0),
    ("converged_run", siblings, 2), ("row", [(1, 2), (2, 2)]),
])
# an own row read whole, then one that stops at (4, 2), whose residues
# (1, 2) are not its own entries, leaving (2, 2) unread
@example(False, 1, 3, 6, [("own_row", siblings[:3]), ("own_row", [(1, 0), (4, 2), (2, 2)])])
# depth 0: no position exists, and still every node read counts
@example(True, 0, 0, 6, [("converged_run", [(), (1,), ()], 0), ("converged_run", siblings, 0)])
# slots: a run half read is completed node by node, a run not read at all
# is one row call, and a word off the tree goes to the dict
@example(True, 1, 3, 6, [
    ("converged", (1, 1)), ("row", siblings[:3]), ("row", siblings),
    ("own_row", siblings), ("converged_run", siblings[3:], 3), ("row", [(1,), (4, 2)]),
])
# an own row of the tree that stops inside its run, then the whole run
@example(True, 2, 3, 6, [("own_row", siblings), ("row", siblings)])
def test_row_reads_charge_like_per_node_reads(staged, fid, depth, fuel, ops):
    """Any interleaving of reads returns and reads what reading every node
    on its own, in order, does, whether or not the table has a stage tree:
    a row read stops where the per-node reads stop, and the prefix, or its
    row form, is called once on each node they read, on no other."""
    fn = standard_library().functionals[fid]
    calls: list[Word] = []

    def prefix(sigma, cap, fuel):
        calls.append(sigma)
        return fn.prefix(sigma, cap, fuel)

    def row(ws, cap, fuel):
        calls.extend(ws)
        return fn.prefix_row(ws, cap, fuel)

    prefix.row = row
    table = OutputTable(OracleFunctional(fn.id, fn.kind, prefix), fuel, depth)
    if staged:
        table._take_tree(STAGE_TREE)
    ref = NodeReader(fn, fuel, depth)
    for op, *args in ops:
        if op == "value" and args[1] >= depth:
            continue
        assert getattr(table, op)(*args) == getattr(ref, op)(*args)
        assert table.evals == ref.evals
        assert read_nodes(table) == ref.read.keys()
    assert len(calls) == len(set(calls))
    assert set(calls) == ref.read.keys()


def test_an_accelerating_stage_takes_each_prefix_once():
    """A stage that reads probes position by position (cases 1 and 2) and
    then whole (case 3 and case 4's tree) takes each node's prefix once."""
    lib = standard_library()
    calls: dict[int, list[Word]] = {}

    def spied(fn: OracleFunctional) -> OracleFunctional:
        def prefix(sigma, cap, fuel):
            calls.setdefault(fn.id, []).append(sigma)
            return fn.prefix(sigma, cap, fuel)

        return OracleFunctional(fn.id, fn.kind, prefix)

    family = AdversaryFamily(lib.staged_trees, tuple(map(spied, lib.functionals)), lib.config)
    rec = accelerating_force(family, 12, 12, 10**4)
    assert [e["case"] for e in rec.stage_log if e["requirement"] == "P1"] == ["4"]
    assert calls[1]
    for called in calls.values():
        assert len(called) == len(set(called))


def test_a_table_that_read_before_its_fold_reads_each_node_once():
    """The fold's tree becomes the stage's tree only on a table that has
    read nothing: a node read before the fold is not read again."""
    fn = standard_library().functionals[0]
    calls: list[Word] = []

    def prefix(sigma, cap, fuel):
        calls.append(sigma)
        return fn.prefix(sigma, cap, fuel)

    tree = FiniteTree.full(3, 2)
    table = OutputTable(OracleFunctional(fn.id, fn.kind, prefix), 10, 2)
    table.converged((0, 0))
    assert table.cases_a_b((), tree, 2) == (None, None)
    assert sorted(calls) == tree.levels()[2]
    assert table.evals == 9
    assert read_nodes(table) == set(tree.levels()[2])

"""Case C's two paths against its per-group reference.

``_case_c`` takes a round whose children are their own outputs straight
from the tree (``OutputTable.own_row``, which reads the slots of the
stage's tree), and sends every other round, an
own row that fails included, to the split search: each top's first node
with k+1 children, whose children go to ``_assign_kids`` (which starts from
the group's split length and falls back to the pool search).  The
reference kept here, ``conftest.reference_case_c``, runs the per-group
search of ``conftest.reference_assign_kids`` length by length for every
group.  Both must give the same tree and the same reads, and the outputs on
the tree's leaves must lie on a (k+1)-tree: their trie, which the verifier
derives, forks at most k+1 ways.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adding_functional, read_nodes, reference_case_c
from survtree.engine import diagonalize_surviving, surviving
from survtree.engine.common import OutputTable, _more_than_k
from survtree.engine.surviving import _case_c
from survtree.staged import OracleFunctional, standard_library
from survtree.traces import TraceTable, trace_from_outputs
from survtree.trees import FiniteTree, Word


def _pruned(b: int, depth: int, cut: set[Word]) -> FiniteTree:
    """The full b-ary tree of the depth without the nodes above a cut node."""
    full = FiniteTree.full(b, depth)
    return FiniteTree(
        frozenset(w for w in full.nodes if not any(w[:i] in cut for i in range(1, len(w) + 1))),
        b,
    )


@st.composite
def case_c_inputs(draw):
    """(k, tree, stem, adds, preread): a full (k+1)-ary tree, perhaps with
    subtrees cut away, so that some rounds are no level slice; a stem,
    often below the root; the outputs each node adds to its parent's (see
    ``conftest.adding_functional``); and which outputs are read before case
    C runs.

    Most nodes add their own last entry under a permutation per position,
    so siblings split at their full length and rounds extend by one entry.
    Noisy nodes add a drawn run instead: none (a short child), a repeated
    value (duplicate prefixes, and rounds that fail) or two values (rounds
    that extend by two)."""
    k = draw(st.sampled_from([2, 3]))
    b = k + 1
    depth = draw(st.integers(1, 4 if b == 3 else 3))
    full = FiniteTree.full(b, depth)
    inner = [w for w in full.sorted_nodes() if w]
    cut = draw(st.sets(st.sampled_from(inner), max_size=2)) if draw(st.booleans()) else set()
    tree = _pruned(b, depth, cut)
    nodes = tree.sorted_nodes()
    stem = draw(st.sampled_from([w for w in nodes if len(w) < depth] or [()]))
    perms = draw(st.lists(st.permutations(range(b)), min_size=depth, max_size=depth))
    adds = {w: (perms[len(w) - 1][w[-1]],) for w in nodes if w}
    adds[()] = draw(st.sampled_from([(), (0,)]))
    runs = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    adds.update(draw(st.dictionaries(st.sampled_from(nodes), runs, max_size=len(nodes) // 3)))
    preread = draw(st.one_of(
        st.just("fold"),
        st.just(()),
        st.lists(st.sampled_from(nodes), max_size=len(nodes)).map(tuple),
    ))
    return k, tree, stem, adds, preread


def _tables(adds: dict[Word, Word], depth: int) -> tuple[OutputTable, OutputTable, set[Word]]:
    """Two tables of the same functional, the first recording the nodes its
    prefix is called on."""
    fn = adding_functional(adds)
    called: set[Word] = set()

    def recording(sigma: Word, cap: int, fuel: int) -> Word:
        called.add(sigma)
        return fn.prefix(sigma, cap, fuel)

    table = OutputTable(OracleFunctional(fn.id, fn.kind, recording), 1, depth)
    return table, OutputTable(fn, 1, depth), called


def _prepare(table: OutputTable, k: int, stem: Word, tree: FiniteTree, preread) -> None:
    """Read outputs ahead of case C: the case A/B fold, as the engine runs
    it first, or the given nodes."""
    if preread == "fold":
        table.cases_a_b(stem, tree, k)
    else:
        for w in preread:
            table.converged(w)


def _leaf_trie(table: OutputTable, tree: FiniteTree, k: int) -> TraceTable:
    """The trie of the outputs on the tree's leaves, at most k+1 wide."""
    return trace_from_outputs(map(table.converged, tree.leaves()), table.depth, k + 1)


def _own_entries(tree: FiniteTree) -> dict[Word, Word]:
    return {w: w[-1:] for w in tree.sorted_nodes()}


_D2, _D3 = FiniteTree.full(3, 2), FiniteTree.full(3, 3)


@settings(max_examples=400, deadline=None)
@given(case_c_inputs())
# the leaf row known, below a stem: every group splits past m + 1
@example((2, _D3, (1,), _own_entries(_D3), "fold"))
# a child that adds nothing, and its group's pool search
@example((2, _D2, (), {**_own_entries(_D2), (1,): ()}, ()))
# two siblings alike: round 1 fails at its first group, and the groups
# after it stay unread
@example((2, _D2, (), {**_own_entries(_D2), (0, 1): (0,)}, ()))
# own rows with one node that is not its own output: the first of a group
# (short, so the group is searched), one in the middle of a group (its
# next sibling breaks the group), one in the last group (still a sibling
# output, so every group splits at its full length), and one below a
# stem, in a leaf row the fold has read
@example((2, _D2, (), {**_own_entries(_D2), (1, 0): ()}, ()))
@example((2, _D2, (), {**_own_entries(_D2), (1, 1): (4,)}, ()))
@example((2, _D2, (), {**_own_entries(_D2), (2, 2): (5,)}, ()))
@example((2, _D3, (1,), {**_own_entries(_D3), (1, 2, 2): (3,)}, "fold"))
# two own rounds and then a searched one, whose outputs are no longer the
# tree's words
@example((2, _D3, (), {**_own_entries(_D3), (2, 1, 0): (4,)}, ()))
# a searched round (the root has one child) and then an own row, whose
# first is no row of the root's
@example((2, _pruned(3, 3, {(1,), (2,)}), (), _own_entries(_D3), ()))
# only level 1 adds an entry: round 0 is an own row and round 1 finds no
# output longer than one entry
@example((2, FiniteTree.full(3, 4), (), {(0,): (0,), (1,): (1,), (2,): (2,)}, ()))
def test_row_passes_match_the_per_group_search(case):
    k, tree, stem, adds, preread = case
    table, ref, called = _tables(adds, tree.depth)
    _prepare(table, k, stem, tree, preread)
    _prepare(ref, k, stem, tree, preread)
    built = _case_c(table, k, stem, tree)
    expected = reference_case_c(ref, k, stem, tree)
    assert built == expected
    assert table.evals == ref.evals
    # the prefix is called on exactly the nodes the per-group search reads
    assert called == read_nodes(ref)
    if built is not None:
        _leaf_trie(ref, built, k)


class _Spy:
    """Counts the calls of ``_assign_kids`` in a case C run."""

    def __init__(self, monkeypatch):
        self.assigned = 0
        assign = surviving._assign_kids

        def assign_kids(*args):
            self.assigned += 1
            return assign(*args)

        monkeypatch.setattr(surviving, "_assign_kids", assign_kids)


def _run(adds, tree, stem, preread, k=2):
    table, ref, _ = _tables(adds, tree.depth)
    _prepare(table, k, stem, tree, preread)
    _prepare(ref, k, stem, tree, preread)
    built = _case_c(table, k, stem, tree)
    assert built == reference_case_c(ref, k, stem, tree)
    assert table.evals == ref.evals
    return built


def test_a_known_leaf_row_passes_in_one_pass(monkeypatch):
    tree = FiniteTree.full(3, 4)
    spy = _Spy(monkeypatch)
    built = _run(_own_entries(tree), tree, (1,), "fold")
    # every round is an own row, read once: rounds 0 and 1 read their
    # unread children, 1 + 3 groups, and round 2 the leaf row's 9 groups,
    # which the fold has read; no group is searched
    assert spy.assigned == 0
    assert built.levels()[4] == tree.levels()[4][27:54]


@pytest.mark.parametrize("preread", [(), "fold"])
def test_sibling_rounds_are_searched_and_keep_their_rows_group_by_group(monkeypatch, preread):
    # a node's output entry is its own entry plus its parent's entry sum,
    # so each group of a round has last entries of its own
    tree = FiniteTree.full(3, 3)
    adds = {w: (w[-1] + sum(w[:-1]),) for w in tree.sorted_nodes() if w}
    spy = _Spy(monkeypatch)
    built = _run(adds, tree, (), preread)
    # round 0 is an own row; rounds 1 and 2 are not, and search their 3
    # and 9 groups, each of which splits at its full length
    assert spy.assigned == 12
    table, _, _ = _tables(adds, 3)
    assert _leaf_trie(table, built, 2).children[2][:3] == ((0, 1, 2), (1, 2, 3), (2, 3, 4))


def test_a_short_child_sends_its_group_to_the_pool_search(monkeypatch):
    tree = FiniteTree.full(3, 2)
    adds = {**_own_entries(tree), (1,): ()}
    spy = _Spy(monkeypatch)
    built = _run(adds, tree, (), "fold")
    # round 0: (1,) has no output, so the pool search takes (1, 1) for it;
    # round 1 splits (0,), finds no split above (1, 1) and fails, so the
    # tree is the zero-paddings of round 0's tops
    assert spy.assigned == 2
    assert built == FiniteTree.from_words([(0, 0), (1, 1), (2, 0)], 3)


def test_rounds_that_extend_by_two_entries_keep_a_3_tree_of_outputs():
    tree = FiniteTree.full(3, 2)
    adds = {w: w[-1:] * 2 for w in tree.sorted_nodes()}
    table, ref, _ = _tables(adds, 4)
    table.cases_a_b((), tree, 2)
    ref.cases_a_b((), tree, 2)
    built = _case_c(table, 2, (), tree)
    assert built == reference_case_c(ref, 2, (), tree)
    assert [len(lv) for lv in _leaf_trie(ref, built, 2).levels] == [1, 3, 3, 9, 9]


def test_a_round_stops_at_its_first_group_of_equal_siblings():
    tree = FiniteTree.full(3, 2)
    # (1, 1) outputs (1, 0), as its sibling (1, 0) does
    adds = {**_own_entries(tree), (1, 1): (0,)}
    table, ref, called = _tables(adds, 2)
    built = _case_c(table, 2, (), tree)
    assert built == reference_case_c(ref, 2, (), tree)
    # round 1 is no own row and fails at group 1, whose search reads it
    # whole; group 2 is never read
    assert built == FiniteTree.from_words([(0, 0), (1, 0), (2, 0)], 3)
    assert set(tree.levels()[2][3:6]) <= called
    assert not {(2, 0), (2, 1), (2, 2)} & called
    assert table.evals == ref.evals
    assert called == read_nodes(ref)


def test_standard_slices_are_read_without_a_search_or_a_group_run(monkeypatch):
    """On the standard family every slice is its nodes' own outputs, so
    case C reads each in one ``own_row`` and searches no group."""
    calls = {"assign": 0, "run": 0}
    assign, converged_run = surviving._assign_kids, OutputTable.converged_run

    def counted_assign(*args):
        calls["assign"] += 1
        return assign(*args)

    def counted_run(*args):
        calls["run"] += 1
        return converged_run(*args)

    monkeypatch.setattr(surviving, "_assign_kids", counted_assign)
    monkeypatch.setattr(OutputTable, "converged_run", counted_run)
    payload = diagonalize_surviving(2, standard_library(), 8, 6, 5000).to_payload()
    assert [e["case"] for e in payload["stage_log"] if e["stage"] % 2] == ["C", "C", "B", "A"]
    assert calls == {"assign": 0, "run": 0}


def test_standard_case_c_rounds_are_own_rows_and_run_no_search(monkeypatch):
    """The standard family's functionals, the identity and entry_mod with
    modulus k + 1, output each node's own word, so every case C round is an
    own row, read from the slots of the stage's tree with no group
    searched."""
    owns: list[bool] = []
    own_row = OutputTable.own_row

    def spied_own_row(self, ws):
        # a run of a level of the tree the fold was handed
        assert self._span(ws) is not None
        owns.append(own_row(self, ws))
        return owns[-1]

    monkeypatch.setattr(OutputTable, "own_row", spied_own_row)
    spy = _Spy(monkeypatch)
    payload = diagonalize_surviving(2, standard_library(), 14, 8, 10**4).to_payload()
    cases = [e["case"] for e in payload["stage_log"] if e["stage"] % 2]
    assert cases[:2] == ["C", "C"]
    assert owns and all(owns)
    assert spy.assigned == 0


@pytest.mark.parametrize("preread", [(), "fold"])
@pytest.mark.parametrize("depth, stem_level", [(d, n) for d in range(1, 6) for n in range(d)])
@pytest.mark.parametrize("b", [3, 4])
def test_own_rounds_keep_the_tree_above_the_stem(b, depth, stem_level, preread):
    """Over a full tree, with every node its own output, case C's rounds
    are the levels above the stem: it keeps the tree above the stem, and
    the trie of the outputs on its leaves is that tree, b-ary above the
    stem."""
    tree = FiniteTree.full(b, depth)
    levels = tree.levels()
    stem = levels[stem_level][len(levels[stem_level]) // 2]
    table = OutputTable(adding_functional(_own_entries(tree)), 1, depth)
    _prepare(table, b - 1, stem, tree, preread)
    built = _case_c(table, b - 1, stem, tree)
    above = [[w for w in lv if w[:len(stem)] == stem] for lv in levels[stem_level:]]
    assert built.levels()[stem_level:] == above
    assert _leaf_trie(table, built, b - 1).levels == built.levels()


def _old_more_than_k(outs: set[Word], k: int) -> bool:
    """``_more_than_k`` as it was: the levels from the longest down."""
    if len(outs) <= k:
        return False
    level: set[Word] = set()
    for n in range(max(map(len, outs)), 0, -1):
        level = {p[:n] for p in level} | {o for o in outs if len(o) == n}
        if len(level) > k:
            return True
    return False


words = st.lists(st.integers(0, 2), max_size=4).map(tuple)


@settings(max_examples=500, deadline=None)
@given(st.sets(words, max_size=9), st.integers(1, 3))
@example({(0,), (1,), (2,)}, 2)
@example({(), (0,), (1,)}, 2)
@example({(0, 0), (0, 1), (1,)}, 2)
def test_more_than_k_matches_its_level_loop(outs, k):
    assert _more_than_k(outs, k) == _old_more_than_k(outs, k)

"""Per-stage output tables: evaluation counts and the lazy case-C search."""

from __future__ import annotations

from collections import Counter
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_map
# the pinned family whose case C searches the pools above the children
from test_record_stability import COMB_R1
from survtree.engine import (
    accelerating_force,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
)
from survtree.engine.common import OutputTable
from survtree.engine.surviving import _assign_kids
from survtree.staged import AdversaryFamily, OracleFunctional, standard_library
from survtree.trees import FiniteTree, Word, children, word_key


def _counting_family(
    calls: dict[int, Counter], lib: Optional[AdversaryFamily] = None
) -> AdversaryFamily:
    """lib (the standard library by default) with each functional rebuilt
    from its bare rule, counting calls: no closed-form prefix."""
    lib = lib or standard_library()

    def counting(fn: OracleFunctional) -> OracleFunctional:
        seen = calls.setdefault(fn.id, Counter())

        def rule(sigma, n, fuel):
            seen[sigma, n] += 1
            return fn.rule(sigma, n, fuel)

        return OracleFunctional(fn.id, fn.kind, rule)

    return AdversaryFamily(
        lib.staged_trees, tuple(counting(f) for f in lib.functionals), lib.config
    )


def test_each_node_position_is_evaluated_once_per_stage():
    calls: dict[int, Counter] = {}
    rec = diagonalize_surviving(2, _counting_family(calls), 8, 6, 4000)
    spent = {
        int(entry["requirement"][1:]): entry["fuel_spent"]
        for entry in rec.stage_log
        if "fuel_spent" in entry
    }
    # functional e is only read in stage 2e+1, so its calls are one stage's
    assert set(spent) == set(calls) == {0, 1, 2, 3}
    for fid, seen in calls.items():
        assert max(seen.values()) == 1, f"functional {fid} re-evaluated"
        assert spent[fid] == sum(seen.values())
    assert sum(spent.values()) == sum(sum(c.values()) for c in calls.values())


RUNS = {
    "surviving-d6": lambda fam: diagonalize_surviving(2, fam, 8, 6, 4000),
    "traceable-d8": lambda fam: traceable_prune(
        initial_condition(fam, 8, 24), fam, 4, 8, 10**4
    ),
    "accelerating-d8": lambda fam: accelerating_force(fam, 8, 8, 10**4),
    "surviving-d8-comb-r1": lambda fam: diagonalize_surviving(2, fam, 14, 8, 10**4),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_closed_form_prefixes_and_bare_rules_give_equal_records(name):
    """Rows read through the closed-form prefixes and rows read position by
    position give byte-equal payloads, fuel_spent included."""
    lib = COMB_R1 if name.endswith("comb-r1") else standard_library()
    bare = _counting_family({}, lib)
    assert all(fn.prefix is not None for fn in lib.functionals)
    assert all(fn.prefix is None for fn in bare.functionals)
    run = RUNS[name]
    assert run(lib).to_payload() == run(bare).to_payload()


reads = st.lists(
    st.tuples(
        st.sampled_from(["value", "outputs", "converged"]),
        # few words, so that reads of one row mix
        st.sampled_from([(), (1,), (4, 2), (0, 3, 1), (2, 2, 2, 2, 2), (4, 0, 1, 3, 2, 1)]),
        st.integers(0, 5),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 6), st.integers(-1, 7), reads)
def test_prefix_rows_read_like_per_position_rows(fid, depth, fuel, ops):
    """Any sequence of reads returns the same and counts the same evals
    whether rows come from the closed-form prefix or position by position."""
    fn = standard_library().functionals[fid]
    bare = OracleFunctional(fn.id, fn.kind, fn.rule)
    fast, slow = OutputTable(fn, fuel, depth), OutputTable(bare, fuel, depth)
    for op, w, n in ops:
        args = (w, n) if op == "value" else (w,)
        if op == "value" and n >= depth:
            continue
        assert getattr(fast, op)(*args) == getattr(slow, op)(*args)
        assert fast.evals == slow.evals


def test_table_serves_values_outputs_and_converged_prefixes():
    fn = standard_library().functionals[0]  # identity
    table = OutputTable(fn, 4000, 4)
    assert table.value((2, 1), 1) == 1
    assert table.converged((2, 1)) == (2, 1)
    assert table.outputs((2, 1)) == [2, 1, None, None]
    assert table.evals == 4


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
    outs = {
        w: tuple(draw(st.lists(st.integers(0, 2), max_size=DEPTH)))
        for w in sorted(nodes, key=word_key)
    }
    cm = child_map(tree)
    splits = sorted((w for w in nodes if cm[w]), key=word_key)
    q = draw(st.sampled_from(splits)) if splits else ()
    sigma_len = draw(st.integers(0, DEPTH - 1))
    return tree, outs, q, sigma_len


@settings(max_examples=300, deadline=None)
@given(trees_with_outputs())
# a split node at the tree's depth, with no level below it
@example((FiniteTree(frozenset({()}), 3), {(): ()}, (), 0))
def test_lazy_candidate_search_matches_full_lists(case):
    tree, outs, q, sigma_len = case

    def rule(sigma, n, fuel):
        o = outs[sigma]
        return o[n] if n < len(o) else None

    table = OutputTable(OracleFunctional(0, "table", rule), 1, DEPTH)
    expected = _reference_assign_distinct(
        table.converged, _descendants_map(tree), q,
        child_map(tree)[q], sigma_len, DEPTH,
    )
    assert _assign_kids(table, tree, children(tree, q), sigma_len) == expected

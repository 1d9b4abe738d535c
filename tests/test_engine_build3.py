"""The staged 3-tree builder and its rightmost escape path."""

from __future__ import annotations

import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_map, forged_defects, staged_tree_entries, unbounded_trees
from survtree.engine import build3_record, build_3tree, verify_record
from survtree.engine.common import schedule
from survtree.staged import (
    EMPTY_CONFIG,
    AdversaryFamily,
    StagedTree,
    Verdict,
    family_from_config,
    index_pair,
    looks_like_branching,
    standard_library,
    staged_tree_from_config,
)
from survtree.trees import FiniteTree, TriState, is_k_tree_to_depth, word_key

LIB = standard_library()


def _reference_build_3tree(adversaries, depth, stages, level_code=index_pair):
    """The growth loop as first written: every stage re-sorts and re-probes
    every node below the depth, and keeps a set of forbidden candidates."""
    nodes = {()}
    forbidden = set()
    for s in range(1, stages + 1):
        snapshot = sorted((w for w in nodes if len(w) < depth), key=word_key)
        counts = {p: 0 for p in snapshot}
        for w in nodes:
            if w and w[:-1] in counts:
                counts[w[:-1]] += 1
        for p in snapshot:
            nodes.add(p + (0,))
            cand = p + (s,)
            if cand in forbidden:
                continue
            e, k = level_code(len(p))
            adv = (
                adversaries.staged_trees[e]
                if 0 <= e < len(adversaries.staged_trees)
                else None
            )
            nsucc = counts[p]
            if nsucc <= 1:
                if adv is None or looks_like_branching(adv, k, p, s) is not Verdict.YES:
                    forbidden.update(p + (i,) for i in range(1, s + 1))
                    continue
                if adv.decide(p + (0,), s) is not TriState.IN:
                    forbidden.add(cand)
                    continue
                if adv.decide(cand, s) is not TriState.IN:
                    nodes.add(cand)
            elif nsucc == 2:
                if adv is None:
                    continue
                shown = sum(
                    1
                    for i in range(min(s, adv.alphabet_bound or s))
                    if adv.decide(p + (i,), s) is TriState.IN
                )
                if shown == k:
                    nodes.add(cand)
    tree = FiniteTree.from_words(nodes)
    path = ()
    cm = child_map(tree)
    while cm.get(path):
        path = path + (max(cm[path]),)
    return tree, path


def _traceable_code(n):
    return index_pair(schedule(n) - 1)


@st.composite
def growth_inputs(draw):
    bounded = [
        staged_tree_from_config(e, i)
        for i, e in enumerate(draw(st.lists(staged_tree_entries(), max_size=5)))
    ]
    unbounded = draw(st.lists(unbounded_trees(), max_size=2))
    trees = draw(st.permutations(bounded + unbounded))
    depth = draw(st.integers(0, 7))
    code = draw(st.sampled_from(["pairing", "traceable", "table"]))
    if code == "pairing":
        level_code = index_pair
    elif code == "traceable":
        level_code = _traceable_code
    else:
        # any adversary index (or none) and any claimed k, level by level
        table = draw(
            st.lists(
                st.tuples(st.integers(-1, len(trees)), st.integers(1, 4)),
                min_size=depth,
                max_size=depth,
            )
        )
        level_code = table.__getitem__
    family = AdversaryFamily(tuple(trees), ())
    return family, depth, draw(st.integers(0, 32)), level_code


def _one_claimant(tree):
    """Every level claims k = 2 against the given tree alone."""
    return AdversaryFamily((tree,), ()), 3, 20, lambda n: (0, 2)


def _full(alphabet, delay=0):
    entry = {"kind": "full_subtree", "alphabet": alphabet, "delay": delay}
    return staged_tree_from_config(entry, 0)


@settings(max_examples=150, deadline=None)
@given(growth_inputs())
# the root's second split waits for the decision of (12,), (7,) or, at the
# delay, of everything: settling on an earlier stage would miss it
@example(
    _one_claimant(
        StagedTree(0, "unbounded", lambda w: all(e in (0, 12) for e in w))
    )
)
@example(_one_claimant(_full([0, 7])))
@example(_one_claimant(_full([0, 1], delay=9)))
def test_build_3tree_matches_reference_loop(inputs):
    family, depth, stages, level_code = inputs
    tree, path = build_3tree(family, depth, stages, level_code=level_code)
    ref_tree, ref_path = _reference_build_3tree(family, depth, stages, level_code)
    assert tree.nodes == ref_tree.nodes
    assert path == ref_path


def test_empty_family_zero_comb():
    family = family_from_config(EMPTY_CONFIG)
    tree, path = build_3tree(family, 8, 20)
    assert tree.nodes == frozenset((0,) * n for n in range(9))
    assert path == (0,) * 8


def test_output_is_3_tree():
    tree, _ = build_3tree(LIB, 8, 24)
    assert is_k_tree_to_depth(tree, 3, 8) is None


def test_child_growth_stops_at_three():
    # with an honest full claimant at the level code of the root, children
    # appear one at a time and never exceed three
    tree, _ = build_3tree(LIB, 6, 30)
    assert all(len(c) <= 3 for c in child_map(tree).values())


def test_rightmost_path_escapes_honest_claimants():
    tree, path = build_3tree(LIB, 10, 30)
    for adv in LIB.staged_trees:
        if adv.claimed_shape != ("branching", 3):
            continue
        escaped = any(
            adv.decide(path[:n], 1000) is TriState.OUT
            for n in range(1, len(path) + 1)
        )
        assert escaped, f"rightmost path never leaves adversary {adv.id}"


def test_rightmost_path_is_member_chain():
    tree, path = build_3tree(LIB, 8, 24)
    for n in range(len(path) + 1):
        assert path[:n] in tree.nodes


def test_determinism():
    t1, p1 = build_3tree(LIB, 7, 20)
    t2, p2 = build_3tree(LIB, 7, 20)
    assert t1.nodes == t2.nodes and p1 == p2


def test_stage_budget_bounds_growth():
    small, _ = build_3tree(LIB, 8, 4)
    large, _ = build_3tree(LIB, 8, 24)
    assert small.nodes <= large.nodes


def test_verifier_refuses_a_shape_k_other_than_the_promised_3():
    # a looser k would let the root's three children and a fourth verify
    payload = build3_record(LIB, 8, 24).to_payload()
    assert verify_record(payload) == []
    defects = forged_defects(payload, lambda p: p["final_tree"]["nodes"].append([9]))
    assert defects == ["final tree node (): between 1 and 3 successors, saw 4"]


def test_verifier_refuses_a_shape_depth_other_than_the_record_depth():
    # the branch of (0,)*7 stops one level short of the record's depth
    payload = build3_record(LIB, 8, 24).to_payload()

    def cut(p):
        p["final_tree"]["nodes"] = [w for w in p["final_tree"]["nodes"] if w != [0] * 8]

    defects = forged_defects(payload, cut)
    assert defects == ["final tree node (0, 0, 0, 0, 0, 0, 0): between 1 and 3 successors, saw 0"]


def test_verifier_refuses_a_record_without_its_shape_certificate():
    # a build3 record carries no certificate at all; the verifier checks
    # the promised shape on the final tree all the same
    payload = build3_record(LIB, 8, 24).to_payload()
    assert payload["certificates"] == []

    def cut(p):
        p["final_tree"]["nodes"] = [w for w in p["final_tree"]["nodes"] if w[:2] != [2, 0] or len(w) == 2]

    defects = forged_defects(payload, cut)
    assert defects == ["final tree node (2, 0): between 1 and 3 successors, saw 0"]


_EARLIER = "a record of an earlier format: it {}, which the verifier now derives; " \
    "re-run the engine to write it anew"


def test_verifier_refuses_a_trace_certificate_in_a_build3_record():
    payload = build3_record(LIB, 8, 24).to_payload()
    defects = forged_defects(payload, lambda p: p["certificates"].append(
        {"kind": "trace", "functional": 0, "trace_index": 0}
    ))
    assert defects == [_EARLIER.format("holds trace certificates")]


def test_verifier_refuses_a_build3_record_that_stores_traces():
    # build3 records of the earlier format stored an empty list
    payload = build3_record(LIB, 8, 24).to_payload()
    defects = forged_defects(payload, lambda p: p.update(traces=[]))
    assert defects == [_EARLIER.format("stores traces")]


def test_verifier_refuses_a_functional_certificate_in_a_build3_record():
    # build3 evaluates no functional and its record names no fuel, so a
    # certificate about a functional is refused, with or without a fuel
    payload = build3_record(LIB, 8, 24).to_payload()
    cert = {"kind": "value_witness", "functional": 2, "node": [], "position": 0, "value": 3}
    extra = "value_witness certificates of functional 2: the stage log calls for 0, the record holds 1"
    defects = forged_defects(copy.deepcopy(payload), lambda p: p["certificates"].append(cert))
    assert defects == ["certificate 0 (value_witness): malformed certificate: 'fuel'", extra]
    defects = forged_defects(payload, lambda p: p["certificates"].append({**cert, "fuel": 10}))
    assert defects == [
        "certificate 0 (value_witness): fuel 10 differs from the record's fuel None", extra
    ]

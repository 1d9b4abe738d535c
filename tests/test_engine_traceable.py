"""The labeled prune engine and its schedule bookkeeping."""

from __future__ import annotations

import copy
from typing import Callable

import pytest

from survtree.engine import (
    check_label_invariants,
    initial_condition,
    schedule,
    traceable_prune,
    verify_record,
)
from conftest import forged_defects, forked_defects, schedule_prefix
from survtree.engine.common import LabeledCondition, labels_of_payload
from survtree.engine.traceable import _members_leaves
from survtree.io_formats import json_to_tree
from survtree.staged import standard_library
from survtree.traces import trace_from_outputs
from survtree.trees import FiniteTree, children, is_k_tree_to_depth

LIB = standard_library()


def test_a_member_with_a_member_child_past_its_first_is_no_leaf():
    # the root's first child (0,) is no member, its second (1,) is
    tree = FiniteTree.from_words([(0,), (1, 0)], 2)
    assert _members_leaves({(): 1, (1,): 1}, tree) == [(1,)]


def test_schedule_first_terms():
    assert schedule_prefix(10) == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]


def test_schedule_blocks():
    assert schedule_prefix(15) == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4, 5]
    assert schedule(0) == 1


def test_initial_condition_labels_by_level():
    start = initial_condition(LIB, 6, 20)
    for w in start.tree.nodes:
        assert start.labels[w] == schedule(len(w))
    assert check_label_invariants(start) is None


def test_initial_condition_reaches_depth():
    start = initial_condition(LIB, 6, 20)
    assert start.tree.depth == 6
    # every branch reaches the working depth after pruning
    for leaf in start.tree.leaves():
        assert len(leaf) == 6


def test_labeled_condition_validates():
    start = initial_condition(LIB, 4, 16)
    with pytest.raises(ValueError):
        LabeledCondition((9, 9), start.tree, start.labels)


def run(stages=4, depth=6, fuel=5000):
    start = initial_condition(LIB, depth, 2 * depth + 8)
    return traceable_prune(start, LIB, stages, depth, fuel)


def test_final_tree_is_3_tree():
    rec = run()
    assert is_k_tree_to_depth(rec.final_tree, 3, 6) is None


def test_final_labels_satisfy_invariants():
    rec = run()
    payload = rec.to_payload()
    labels = labels_of_payload(payload)
    cond = LabeledCondition(rec.final_stem, rec.final_tree, labels)
    assert check_label_invariants(cond) is None


def test_every_branch_reads_its_labels_off_the_schedule():
    # the record carries the schedule in its labels, not in a certificate
    rec = run()
    assert not {"schedule", "labels"} & {c["kind"] for c in rec.certificates}
    for leaf in rec.final_tree.leaves():
        seq = [rec.labels[leaf[:i]] for i in range(len(leaf) + 1) if rec.labels[leaf[:i]]]
        assert seq and seq == schedule_prefix(len(seq))


def test_prune_outputs_lie_on_3_trees():
    rec = run()
    pruned = [int(e["requirement"][1:]) for e in rec.stage_log if e["case"] == "prune"]
    assert pruned, "the run must prune"
    for fid in pruned:
        outs = [LIB.functionals[fid].prefix(leaf, 6, 5000) for leaf in rec.final_tree.leaves()]
        levels = trace_from_outputs(outs, 6, 3).levels
        for n, level in enumerate(levels):
            assert len(level) <= 3**n
        assert all(o[:n] in levels[n] for o in outs for n in range(len(o) + 1))


def test_record_verifies():
    assert verify_record(run().to_payload()) == []


def _add_leaves(parent: list, entries) -> Callable[[dict], None]:
    """An edit adding the children parent^e to the final tree, each labelled
    with task 1, so that the labels still read off the schedule."""
    def edit(p):
        for e in entries:
            p["final_tree"]["nodes"].append(parent + [e])
            p["labels"].append([parent + [e], 1])
    return edit


def test_verifier_refuses_a_shape_k_other_than_the_promised_3():
    # a looser k would let a node with 4 children verify
    payload = run().to_payload()
    assert payload["final_stem"] == [3, 0, 5, 0, 0, 0]
    defects = forged_defects(payload, _add_leaves([3, 0, 5, 0, 0], [7, 8, 9]))
    assert defects == ["final tree node (3, 0, 5, 0, 0): between 1 and 3 successors, saw 4"]


def test_verifier_refuses_a_shape_depth_other_than_the_record_depth():
    # a branch that stops one level short of the record's depth
    payload = run().to_payload()
    defects = forged_defects(payload, _add_leaves([3, 0, 5, 0], [1]))
    assert defects == ["final tree node (3, 0, 5, 0, 1): between 1 and 3 successors, saw 0"]


def test_verifier_refuses_a_record_without_its_shape_certificate():
    # no record carries a shape certificate; the verifier checks the
    # promised shape on the final tree all the same
    payload = run().to_payload()
    assert "shape" not in {c["kind"] for c in payload["certificates"]}
    defects = forged_defects(payload, _add_leaves([], [4, 5, 6]))
    assert defects == ["final tree node (): between 1 and 3 successors, saw 4"]


def test_verifier_refuses_outputs_that_fork_4_ways(monkeypatch):
    """The two-stage record keeps 3 leaves above its stem, on which P0's
    outputs may fork 3 ways.  With a fourth leaf, a sibling of a leaf that
    has room, labelled as that leaf, the final tree is still a 3-tree whose
    labels read off the schedule, and outputs that fork 4 ways are refused:
    the defect names the stage, the functional and the node."""
    payload = run(stages=2).to_payload()
    assert [e["case"] for e in payload["stage_log"]] == ["exit", "prune"]
    tree, stem = json_to_tree(payload["final_tree"]), tuple(payload["final_stem"])
    leaves = [w for w in tree.leaves() if w[:len(stem)] == stem]
    assert len(leaves) == 3
    adds = {leaf: (7, i) for i, leaf in enumerate(leaves)}
    assert forked_defects(monkeypatch, copy.deepcopy(payload), 0, adds) == []
    leaf = next(w for w in leaves if len(children(tree, w[:-1])) < 3)
    extra = leaf[:-1] + (children(tree, leaf[:-1])[-1][-1] + 1,)
    label = dict((tuple(w), v) for w, v in payload["labels"])[leaf]

    def add_leaf(p):
        p["final_tree"]["nodes"].append(list(extra))
        p["labels"].append([list(extra), label])

    defects = forked_defects(monkeypatch, payload, 0, {**adds, extra: (7, 3)}, add_leaf)
    assert defects == [
        "stage 1 (prune): the outputs of functional 0 on the leaves fork 4 ways at (7,), "
        "more than 3"
    ]


def test_verifier_refuses_a_schedule_other_than_the_engine_writes():
    # the stem's task 1 relabelled 2: its branch no longer reads off the schedule
    payload = run().to_payload()

    def relabel(p):
        p["labels"] = [[w, 2 if w == p["final_stem"] else v] for w, v in p["labels"]]

    defects = forged_defects(payload, relabel)
    assert defects == [
        "labels: branch (3, 0, 5, 0, 0, 0): nonzero labels [2] not a schedule prefix"
    ]


def _d8_payload() -> dict:
    start = initial_condition(LIB, 8, 24)
    return traceable_prune(start, LIB, 4, 8, 10**4).to_payload()


def test_verifier_checks_the_labels_without_a_labels_certificate():
    """traceable-d8 with a leaf's label set to 7, or with its labels dropped:
    the promise keeps labels, so each is a defect with no certificate to
    ask for the check."""
    payload = _d8_payload()
    assert verify_record(payload) == [] and "labels" not in {
        c["kind"] for c in payload["certificates"]
    }
    leaf = payload["final_tree"]["nodes"][-1]
    assert leaf == [3, 0, 5, 0, 0, 0, 0, 0]

    def relabel(p):
        p["labels"] = [[w, 7 if w == leaf else v] for w, v in p["labels"]]

    assert forged_defects(copy.deepcopy(payload), relabel) == [
        "labels: branch (3, 0, 5, 0, 0, 0, 0, 0): nonzero labels [1, 1, 7] not a schedule prefix"
    ]
    assert forged_defects(payload, lambda p: p.pop("labels")) == ["labels: the record carries none"]


def test_determinism():
    assert run().to_payload() == run().to_payload()

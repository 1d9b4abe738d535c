"""The labeled prune engine and its schedule bookkeeping."""

from __future__ import annotations

import copy
from typing import Callable

import pytest

from survtree.engine import (
    check_label_invariants,
    initial_condition,
    schedule,
    schedule_prefix,
    traceable_prune,
    verify_record,
)
from conftest import cert_index, forged_defects, set_first_word
from survtree.engine.common import LabeledCondition, labels_of_payload
from survtree.engine.traceable import _members_leaves
from survtree.staged import standard_library
from survtree.traces import goes_through
from survtree.trees import FiniteTree, is_k_tree_to_depth

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


def test_traces_bounded_and_followed():
    rec = run()
    assert rec.traces, "prune stages must emit traces"
    for _, trace in rec.traces:
        for n, level in enumerate(trace.levels):
            assert len(level) <= 3**n


def test_trace_branch_go_through():
    rec = run()
    for cert in rec.certificates:
        if cert["kind"] != "trace" or cert.get("case") != "prune":
            continue
        fid = cert["functional"]
        trace = dict(rec.traces)[fid]
        for leaf in rec.final_tree.leaves():
            out = LIB.functionals[fid].prefix(leaf, trace.depth, 5000)
            assert goes_through(out, trace)


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


def test_verifier_refuses_a_trace_bound_other_than_3():
    """The bound is the promise's 3^n, read from no field: a trace with 4
    words on level 1 is refused, and so is one that restates a bound."""
    payload = run().to_payload()
    ti = payload["certificates"][cert_index(payload, "trace")]["trace_index"]

    def widen(p):
        p["traces"][ti]["children"] = [[[4**n, [0, 1, 2, 3]]] for n in range(6)]

    defects = forged_defects(copy.deepcopy(payload), widen)
    assert defects == ["malformed record: level 1 has 4 words, bound allows 3"]
    defects = forged_defects(payload, lambda p: p["traces"][ti].update(bound={"kind": "pow", "base": 3}))
    assert defects == [
        "malformed record: a trace is an object of only its functional and its children rows"
    ]


def test_verifier_refuses_a_trace_word_with_4_children():
    # the traces are 3-trees, like the condition they trace
    payload = run().to_payload()
    i = cert_index(payload, "trace")
    ti = payload["certificates"][i]["trace_index"]

    def widen(p):
        set_first_word(p["traces"][ti]["children"][-1], [0, 1, 2, 3])

    defects = forged_defects(payload, widen)
    assert defects == [
        f"certificate {i} (trace): trace is not a 3-tree: level 5 word 0 has 4 children"
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

"""The labeled prune engine and its schedule bookkeeping."""

from __future__ import annotations

import pytest

from survtree.engine import (
    check_label_invariants,
    initial_condition,
    schedule,
    schedule_prefix,
    traceable_prune,
    verify_record,
)
from conftest import cert_index, forged_defects
from survtree.engine.common import LabeledCondition, labels_of_payload
from survtree.engine.traceable import _members_leaves
from survtree.io_formats import payload_digest
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


def test_schedule_certificate_emitted_first():
    rec = run()
    assert rec.certificates[0]["kind"] == "schedule"
    assert rec.certificates[0]["terms"][:10] == schedule_prefix(10)


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


def test_verifier_refuses_a_shape_k_other_than_the_promised_3():
    # a looser k would let a tree with 4 or more children at a node verify
    payload = run().to_payload()
    i = next(i for i, c in enumerate(payload["certificates"]) if c["kind"] == "shape")
    payload["certificates"][i]["k"] = 100
    payload["digest"] = payload_digest(payload)
    assert verify_record(payload) == [
        f"certificate {i} (shape): predicate 'ktree' with k 100 is not "
        "the engine's 'ktree' with k 3"
    ]


def test_verifier_refuses_a_shape_depth_other_than_the_record_depth():
    payload = run().to_payload()
    i = cert_index(payload, "shape")
    defects = forged_defects(payload, lambda p: p["certificates"][i].update(depth=0))
    assert defects == [
        f"certificate {i} (shape): "
        '{"depth":0,"k":3,"kind":"shape","predicate":"ktree"} is not the engine\'s '
        '{"depth":6,"k":3,"kind":"shape","predicate":"ktree"}'
    ]


def test_verifier_refuses_a_record_without_its_shape_certificate():
    payload = run().to_payload()
    defects = forged_defects(payload, lambda p: p["certificates"].pop(cert_index(p, "shape")))
    assert defects == ["no shape certificate"]


def test_verifier_refuses_a_trace_bound_other_than_3():
    payload = run().to_payload()
    i = cert_index(payload, "trace")
    ti = payload["certificates"][i]["trace_index"]
    defects = forged_defects(payload, lambda p: p["traces"][ti]["bound"].update(base=10**6))
    assert defects == [f"certificate {i} (trace): trace bound is 1000000^n, not 3^n"]


def test_verifier_refuses_a_trace_word_with_4_children():
    # the traces are 3-trees, like the condition they trace
    payload = run().to_payload()
    i = cert_index(payload, "trace")
    ti = payload["certificates"][i]["trace_index"]

    def widen(p):
        p["traces"][ti]["children"][-1][0] = [0, 1, 2, 3]

    defects = forged_defects(payload, widen)
    assert defects == [
        f"certificate {i} (trace): trace is not a 3-tree: level 5 word 0 has 4 children"
    ]


def test_verifier_refuses_a_schedule_other_than_the_engine_writes():
    payload = run().to_payload()
    i = cert_index(payload, "schedule")
    defects = forged_defects(payload, lambda p: p["certificates"][i].update(terms=[]))
    assert defects == [
        f"certificate {i} (schedule): terms [] are not the task schedule's {schedule_prefix(10)}"
    ]


def test_determinism():
    assert run().to_payload() == run().to_payload()

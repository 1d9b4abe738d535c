"""The alternating avoid/tame engine over (k+1)-branching conditions."""

from __future__ import annotations

import itertools

import pytest

from conftest import (
    drop_children_of_last_parent,
    forged_defects,
    forked_defects,
)
from survtree.engine import diagonalize_surviving, verify_record
from survtree.io_formats import json_to_tree, payload_digest
from survtree.staged import (
    EMPTY_CONFIG,
    family_from_config,
    standard_library,
)
from survtree.traces import trace_from_outputs
from survtree.trees import TriState, is_k_branching_to_depth, subtree_above

LIB = standard_library()


def run(k=2, stages=8, depth=6, fuel=5000, family=LIB):
    return diagonalize_surviving(k, family, stages, depth, fuel)


def test_empty_family_full_tree():
    rec = run(family=family_from_config(EMPTY_CONFIG), stages=4)
    assert rec.final_stem == ()
    assert rec.final_tree.nodes == frozenset(
        w for n in range(7) for w in itertools.product(range(3), repeat=n)
    )


def test_single_honest_binary_adversary_exits_right():
    config = {
        "staged_trees": [
            {
                "id": 0,
                "kind": "full_subtree",
                "alphabet": [0, 1],
                "claim": ["branching", 2],
            }
        ],
        "functionals": [],
    }
    rec = run(family=family_from_config(config), stages=2)
    assert rec.final_stem[:1] == (2,)
    adv = family_from_config(config).staged_trees[0]
    assert adv.decide(rec.final_stem[:1], 100) is TriState.OUT


def test_identity_functional_outputs_lie_on_a_3_tree():
    config = {
        "staged_trees": [],
        "functionals": [{"id": 0, "kind": "identity"}],
    }
    rec = run(family=family_from_config(config), stages=2, depth=5)
    assert rec.stage_log[1]["case"] == "C"
    # the identity's outputs on the leaves are the leaves, and their trie
    # the final tree itself
    leaves = list(rec.final_tree.leaves())
    trace = trace_from_outputs(leaves, 5, 3)
    assert trace.levels == rec.final_tree.levels()
    for n, level in enumerate(trace.levels):
        assert len(level) <= 3**n


def test_final_tree_branching_above_stem():
    rec = run()
    above = subtree_above(rec.final_tree, rec.final_stem)
    assert is_k_branching_to_depth(above, 3, 6) is None


def test_avoidance_certificates_sound():
    rec = run()
    for cert in rec.certificates:
        if cert["kind"] != "avoidance":
            continue
        adv = LIB.staged_trees[cert["tree"]]
        witness = tuple(cert["witness"])
        assert witness == rec.final_stem[: len(witness)]
        assert adv.decide(witness, cert["stage"]) is TriState.OUT


def test_determinism():
    p1 = run().to_payload()
    p2 = run().to_payload()
    assert p1 == p2


def test_record_verifies():
    assert verify_record(run().to_payload()) == []


def test_payload_round_trip_shapes():
    payload = run(stages=4).to_payload()
    tree = json_to_tree(payload["final_tree"])
    assert tree.nodes == run(stages=4).final_tree.nodes
    assert "traces" not in payload


def test_budget_exhaustion_marks_incomplete():
    rec = run(fuel=0, stages=4)
    assert rec.status in ("complete", "incomplete")
    # with no fuel at all, any functional stage must be inconclusive or
    # fall to presumed divergence; the record still verifies
    assert verify_record(rec.to_payload()) == []


def _fork(payload: dict, width: int) -> tuple[int, str, int, dict]:
    """The first stage logged B or C, its case and functional, and what
    that functional adds to make its outputs fork width ways at (7,): the
    first width leaves above the stem each add (7, i)."""
    s, case, req = next(
        (e["stage"], e["case"], e["requirement"]) for e in payload["stage_log"] if e["case"] in "BC"
    )
    tree, stem = json_to_tree(payload["final_tree"]), tuple(payload["final_stem"])
    leaves = [w for w in tree.leaves() if w[:len(stem)] == stem]
    assert len(leaves) >= width
    return s, case, int(req[1:]), {leaf: (7, i) for i, leaf in enumerate(leaves[:width])}


@pytest.mark.parametrize("k, depth, stages", [(2, 6, 8), (3, 5, 2)])
def test_verifier_refuses_outputs_that_fork_k_plus_2_ways(monkeypatch, k, depth, stages):
    """The trie of a B or C stage's outputs on the final leaves may fork
    k+1 ways, the promise's width, and not k+2: the defect names the stage,
    the functional and the node."""
    payload = run(k=k, depth=depth, stages=stages).to_payload()
    s, case, fid, adds = _fork(payload, k + 1)
    assert forked_defects(monkeypatch, payload, fid, adds) == []
    s, case, fid, adds = _fork(payload, k + 2)
    assert forked_defects(monkeypatch, payload, fid, adds) == [
        f"stage {s} ({case}): the outputs of functional {fid} on the leaves fork {k + 2} ways "
        f"at (7,), more than {k + 1}"
    ]


def test_a_record_without_k_is_malformed():
    payload = run().to_payload()
    del payload["parameters"]["k"]
    payload["digest"] = payload_digest(payload)
    assert verify_record(payload) == ["malformed record: 'k'"]


def _resigned(edit):
    """The defects of a re-signed surviving d6 record (fuel 4000) after
    edit(payload)."""
    payload = run(fuel=4000).to_payload()
    edit(payload)
    payload["digest"] = payload_digest(payload)
    return payload, verify_record(payload)


def test_verifier_checks_a_divergence_under_the_record_fuel():
    """The identity diverges at position 0 on the branches through the
    final stem only at fuel 0, and the record's fuel is 4000."""
    def add(**fuel):
        return lambda payload: payload["certificates"].append({
            "kind": "presumed_divergence", "functional": 0,
            "node": payload["final_stem"], "position": 0, **fuel,
        })

    payload, defects = _resigned(add(fuel=0))
    i = len(payload["certificates"]) - 1
    # no stage calls for the added certificate
    extra = (
        "presumed_divergence certificates of functional 0: the stage log calls for 0, "
        "the record holds 1"
    )
    assert defects == [
        f"certificate {i} (presumed_divergence): fuel 0 differs from the record's fuel 4000",
        extra,
    ]
    _, defects = _resigned(add())
    assert len(defects) == 2 and defects[0].endswith("converges at position 0")
    assert defects[1] == extra


def test_a_record_with_functional_stages_needs_its_fuel():
    # every certificate about a functional, and the outputs' trie of a B or
    # C stage, is checked under the record's fuel, so a record without one
    # is refused once, whatever its stages log
    _, defects = _resigned(lambda payload: payload["parameters"].pop("fuel"))
    assert defects == ["malformed record: the record has no fuel parameter"]


def test_a_record_with_a_fuel_that_is_no_integer_is_malformed():
    _, defects = _resigned(lambda payload: payload["parameters"].update(fuel="x"))
    assert defects == ["malformed record: invalid literal for int() with base 10: 'x'"]


def test_verifier_refuses_a_shape_depth_other_than_the_record_depth():
    # the shape holds to the record's depth: a node one level short of it
    # that loses its three children breaks it
    payload = run().to_payload()
    defects = forged_defects(payload, drop_children_of_last_parent)
    assert defects == ["final tree node (2, 0, 2, 2, 2): exactly 1 or 3 successors, saw 0"]


def test_verifier_refuses_a_record_without_its_shape_certificate():
    # no record carries a shape certificate; the verifier checks the
    # promised shape on the final tree all the same
    payload = run().to_payload()
    assert not {"shape", "vacuous_tree_requirement"} & {c["kind"] for c in payload["certificates"]}
    defects = forged_defects(payload, lambda p: p["final_tree"]["nodes"].pop())
    assert defects == ["final tree node (2, 0, 2, 2, 2): exactly 1 or 3 successors, saw 2"]


def _relog_r2_vacuous(p):
    """Stage 4, R2, logged vacuous at the root, where tree 2 shows two
    successors (its exit's avoidance certificate still holds, and no stage
    calls for it)."""
    p["stage_log"][4] = {"stage": 4, "requirement": "R2", "case": "vacuous", "witness": []}


_R2_VACUOUS = "stage 4 (vacuous): node () of tree 2 shows only 2 successors, not more than 2"
_R2_AVOIDANCE = "avoidance certificates of tree 2: the stage log calls for 0, the record holds 1"


@pytest.mark.parametrize("k", [0, 1])
def test_verifier_takes_a_vacuous_requirement_k_from_the_parameters(k):
    """Two successors are not more than the record's k of 2, though more
    than a k of 0 or 1: lowering the parameters' k to k as well, R2 still
    relogged, breaks the promise that k fixes, k >= 2 and the alphabet
    bound k+1, with it."""
    payload = run().to_payload()
    defects = forged_defects(payload, _relog_r2_vacuous)
    assert defects == [_R2_VACUOUS, _R2_AVOIDANCE]
    defects = forged_defects(payload, lambda p: p["parameters"].update(k=k))
    assert defects == [
        "malformed record: k must be >= 2" if k == 0
        else "malformed record: final tree alphabet bound 3 is not 2"
    ]


def test_verifier_refuses_a_vacuous_requirement_for_a_stage_that_was_not_vacuous():
    payload = run().to_payload()
    assert payload["stage_log"][4]["case"] == "exit"
    defects = forged_defects(payload, _relog_r2_vacuous)
    assert defects == [_R2_VACUOUS, _R2_AVOIDANCE]


def test_verifier_checks_each_vacuous_witness_from_the_log():
    """The d8 record's vacuous stages with their witness moved to (9,),
    where trees 0, 1 and 6 show no successor: each is a defect of its own,
    with no certificate to ask for the check."""
    payload = diagonalize_surviving(2, LIB, 14, 8, 10**4).to_payload()
    vacuous = [e["stage"] for e in payload["stage_log"] if e["case"] == "vacuous"]
    assert vacuous == [0, 2, 12] and verify_record(payload) == []

    def move_witnesses(p):
        for s in vacuous:
            p["stage_log"][s]["witness"] = [9]

    assert forged_defects(payload, move_witnesses) == [
        f"stage {s} (vacuous): node (9,) of tree {s // 2} shows only 0 successors, "
        "not more than 2"
        for s in vacuous
    ]


def test_a_vacuous_entry_at_a_functional_stage_is_a_defect():
    # a functional stage logs one of its engine's own cases, never a tree case
    payload = run().to_payload()
    defects = forged_defects(payload, lambda p: p["stage_log"][1].update(case="vacuous", witness=[]))
    assert defects == ["stage 1 is P0, logged 'P0' as 'vacuous'"]


def test_a_surviving_record_that_carries_labels_is_refused():
    payload = run().to_payload()
    defects = forged_defects(payload, lambda p: p.update(labels=[[[], 0]]))
    assert defects == ["labels: the engine keeps no labels"]


def test_a_vacuous_stage_logged_out_of_place_is_malformed():
    payload = run().to_payload()
    defects = forged_defects(payload, lambda p: p["stage_log"][0].update(stage=10**18))
    assert defects == [f"malformed record: stage log entry 0 names stage {10**18}"]

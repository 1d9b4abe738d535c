"""The widening-splits engine: escape, value forcing, constancy, pruning."""

from __future__ import annotations

import copy

from conftest import drop_children_of_last_parent, forged_defects
from survtree.engine import accelerating_force, verify_record
from survtree.engine.accelerating import CASE4_CANDIDATE_LIMIT, _exits, case4_candidates
from survtree.engine.common import Run
from survtree.staged import family_from_config, standard_library
from survtree.traces import trace_from_outputs
from survtree.trees import (
    FiniteTree,
    TriState,
    is_accelerating_to_depth,
    is_k_tree_to_depth,
)

LIB = standard_library()


def run(stages=8, depth=8, fuel=10000, family=LIB):
    return accelerating_force(family, stages, depth, fuel)


def test_case4_candidates_count_the_levels_that_fit_below_the_depth():
    # level L needs L+2 rounds above its split nodes and tries 3^(L+2)
    # extensions at each of its prod_{i<L} (i+3) split nodes
    assert [case4_candidates(d) for d in (1, 2, 4, 5, 8, 11, 12, 16, 20, 26)] == [
        0, 9, 9, 90, 90, 1_062, 1_062, 15_642, 278_082, 278_082,
    ]
    assert case4_candidates(27) == 9 + 81 + 972 + 14_580 + 262_440 + 2_520 * 3**7


def test_case4_limit_admits_every_depth_up_to_26():
    assert all(case4_candidates(d) <= CASE4_CANDIDATE_LIMIT for d in range(27))
    # the sum stops once past the limit, so a huge depth costs no more
    assert all(case4_candidates(d) > CASE4_CANDIDATE_LIMIT for d in (27, 30, 60, 10**18))


def test_exits_pass_over_a_node_with_exactly_k_children():
    # the root has k = 2 children and (1,) has three: only the children of
    # (1,) can leave a 2-tree
    tree = FiniteTree.from_words([(0, 0), (1, 0), (1, 1), (1, 2)], 3)
    run = Run(LIB, 4, 2, 100, tree)
    assert list(_exits(run, 0, 2)) == [(1, 0), (1, 1), (1, 2)]


def test_final_tree_is_accelerating():
    rec = run()
    assert is_accelerating_to_depth(rec.final_tree, rec.final_tree.depth) is None


def test_even_stage_exits_honest_binary_claimant():
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
    rec = run(stages=1, family=family_from_config(config))
    assert rec.final_stem[:1] == (2,)
    adv = family_from_config(config).staged_trees[0]
    assert adv.decide((2,), 100) is TriState.OUT


def test_constant_three_forces_value_at_zero():
    certs = [
        c
        for c in run().certificates
        if c["kind"] == "value_witness" and c["functional"] == 2
    ]
    assert certs and certs[0]["position"] == 0
    assert certs[0]["value"] >= 3


def test_mod_functional_outputs_lie_on_a_2_tree():
    rec = run()
    assert [e["requirement"] for e in rec.stage_log if e["case"] == "4"] == ["P1"]
    outs = [LIB.functionals[1].prefix(leaf, 8, 10000) for leaf in rec.final_tree.leaves()]
    trie = trace_from_outputs(outs, 8, 2)
    assert is_k_tree_to_depth(FiniteTree.from_levels(trie.levels), 2, trie.depth) is None
    assert all(o[:n] in trie.levels[n] for o in outs for n in range(len(o) + 1))


def _move_branch(old: list, new: list):
    """An edit moving the final tree's branch through old to new: every node
    from old on gets new in its place."""
    def edit(p):
        n = len(old)
        p["final_tree"]["nodes"] = [
            new + w[n:] if w[:n] == old else w for w in p["final_tree"]["nodes"]
        ]
    return edit


def test_verifier_refuses_outputs_that_fork_3_ways():
    """Case 4 keeps (3, 1, 0), (3, 1, 1) and (3, 1, 3) at its first split,
    whose entries mod 3 take two values.  Moved to (3, 1, 6) the last keeps
    them two; moved to (3, 1, 2) it makes P1's outputs fork 3 ways at
    (0, 1), which the defect names with the stage and the functional."""
    payload = run().to_payload()
    assert payload["stage_log"][3]["case"] == "4"
    assert forged_defects(copy.deepcopy(payload), _move_branch([3, 1, 3], [3, 1, 6])) == []
    assert forged_defects(payload, _move_branch([3, 1, 3], [3, 1, 2])) == [
        "stage 3 (4): the outputs of functional 1 on the leaves fork 3 ways at (0, 1), "
        "more than 2"
    ]


def test_verifier_refuses_a_shape_depth_other_than_the_record_depth():
    # the shape holds to the record's depth: a branch one level short of it
    payload = run().to_payload()
    defects = forged_defects(payload, drop_children_of_last_parent)
    assert defects == [
        "final tree node (3, 1, 3, 1, 9, 0, 1): at least 1 successor below depth, saw 0"
    ]


def test_verifier_refuses_a_record_without_its_shape_certificate():
    # no record carries a shape certificate; the verifier checks the
    # promised shape on the final tree all the same: the first split,
    # (3, 1), left with two of its three children
    payload = run().to_payload()
    assert "shape" not in {c["kind"] for c in payload["certificates"]}

    def cut(p):
        p["final_tree"]["nodes"] = [w for w in p["final_tree"]["nodes"] if w[:3] != [3, 1, 3]]

    defects = forged_defects(payload, cut)
    assert defects == [
        "final tree node (3, 1): more than 2 successors (split number 0), saw 2"
    ]


def test_diverging_functional_presumed_divergent():
    kinds = {
        (c["kind"], c.get("functional"))
        for c in run().certificates
    }
    assert ("presumed_divergence", 3) in kinds


def test_record_verifies():
    assert verify_record(run().to_payload()) == []


def test_determinism():
    assert run().to_payload() == run().to_payload()


def test_verifier_takes_a_vacuous_requirement_k_from_the_stage_requirement():
    """R0 asks whether staged tree 0 is a 3-tree (index_pair(0) = (0, 3)).
    A tree that shows five successors at the root is vacuous there; one
    that shows three is not, so R0 relogged vacuous is a defect at the
    stage's k of 3, with no k on record to forge."""
    def family(alphabet):
        return family_from_config({
            "staged_trees": [{"kind": "full_subtree", "alphabet": alphabet}],
            "functionals": [],
        })

    payload = run(stages=1, depth=4, family=family([0, 1, 2, 3, 4])).to_payload()
    assert payload["stage_log"][0]["case"] == "vacuous" and verify_record(payload) == []
    payload = run(stages=1, depth=4, family=family([0, 1, 2])).to_payload()
    assert payload["stage_log"][0]["case"] == "exit" and verify_record(payload) == []

    def relog(p):
        p["stage_log"][0] = {"stage": 0, "requirement": "R0", "case": "vacuous", "witness": []}

    # the exit's avoidance certificate stays, which no vacuous stage calls for
    assert forged_defects(payload, relog) == [
        "stage 0 (vacuous): node () of tree 0 shows only 3 successors, not more than 3",
        "avoidance certificates of tree 0: the stage log calls for 0, the record holds 1",
    ]


def test_a_k_parameter_does_not_change_the_staged_requirements():
    """Accelerating stages R2 against index_pair(2) = (0, 4), and tree 0
    shows three successors at the root; a k of 0 added to the parameters
    does not make R2 relogged vacuous hold."""
    payload = run().to_payload()
    assert payload["stage_log"][4]["case"] == "already-out"

    def relog(p):
        p["stage_log"][4] = {"stage": 4, "requirement": "R2", "case": "vacuous", "witness": []}
        p["parameters"]["k"] = 0

    assert forged_defects(payload, relog) == [
        "stage 4 (vacuous): node () of tree 0 shows only 3 successors, not more than 4",
        "avoidance certificates of tree 0: the stage log calls for 1, the record holds 2",
    ]


def test_a_constancy_certificate_with_no_probes_is_a_defect():
    """P1 of the depth-8 record relogged from case 4 to case 3, with a
    constancy certificate that records no probes, re-signed: an empty
    probe list is pairwise consistent, but it shows no output at all."""
    payload = run().to_payload()

    def edit(p):
        entry = p["stage_log"][3]
        assert entry["requirement"] == "P1" and entry["case"] == "4"
        p["stage_log"][3] = {**entry, "case": "3"}
        del p["stage_log"][3]["levels"], p["stage_log"][3]["shortage"]
        p["certificates"].append({"kind": "constant_outputs", "functional": 1, "probes": []})

    assert forged_defects(payload, edit) == [
        "certificate 7 (constant_outputs): no probes recorded"
    ]

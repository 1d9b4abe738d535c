"""The stage schedule shared by the engines and the tree-requirement stage."""

from __future__ import annotations

import json

import pytest

from conftest import forged_defects
from survtree.cli import main
from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify_record,
)
from survtree.engine.common import requirement, tree_stage
from survtree.staged import (
    EMPTY_CONFIG,
    family_from_config,
    index_pair,
    standard_library,
)

LIB = standard_library()
QUERY = 40


def _tree(entry: dict):
    return family_from_config({"staged_trees": [entry]}).staged_trees[0]


class Recorded:
    """An iterator over words that records every word drawn from it."""

    def __init__(self, words):
        self._it = iter(words)
        self.drawn = []

    def __iter__(self):
        return self

    def __next__(self):
        w = next(self._it)
        self.drawn.append(w)
        return w


CANDIDATES = [(0,), (1,), (2,), (0, 0)]


def test_vacuous_stage_reads_no_exit_candidate():
    adv = _tree({"kind": "full_subtree", "alphabet": [0, 1, 2, 3]})
    exits = Recorded(CANDIDATES)
    new_stem, log, cert = tree_stage(adv, 3, (), exits, QUERY)
    assert new_stem is None
    assert log == {"case": "vacuous", "witness": []}
    # the log names the witness; the verifier reads the tree and k from the
    # stage's requirement, so no certificate restates them
    assert cert is None
    assert exits.drawn == []


def test_already_out_stage_reads_no_exit_candidate():
    adv = _tree({"kind": "comb", "entry": 0})
    exits = Recorded(CANDIDATES)
    new_stem, log, cert = tree_stage(adv, 2, (1,), exits, QUERY)
    assert new_stem is None
    assert log == {"case": "already-out"}
    assert cert == {"kind": "avoidance", "tree": 0, "witness": [1], "stage": QUERY}
    assert exits.drawn == []


def test_exit_stage_stops_at_the_first_candidate_out():
    adv = _tree({"kind": "full_subtree", "alphabet": [0, 1]})
    exits = Recorded(CANDIDATES)
    new_stem, log, cert = tree_stage(adv, 2, (), exits, QUERY)
    assert new_stem == (2,)
    assert log == {"case": "exit", "witness": [2]}
    assert cert == {"kind": "avoidance", "tree": 0, "witness": [2], "stage": QUERY}
    assert exits.drawn == [(0,), (1,), (2,)]


def test_stuck_stage_reads_every_candidate_and_certifies_nothing():
    adv = _tree({"kind": "full_subtree", "alphabet": [0, 1]})
    exits = Recorded(CANDIDATES[:2])
    assert tree_stage(adv, 2, (), exits, QUERY) == (None, {"case": "stuck"}, None)
    assert exits.drawn == [(0,), (1,)]


def test_requirement_maps_even_stages_to_trees_and_odd_to_functionals():
    assert requirement(0, LIB, 2) == ("R0", LIB.staged_trees[0], 2)
    assert requirement(12, LIB, 2) == ("R6", LIB.staged_trees[6], 2)
    assert requirement(14, LIB, 2) is None
    assert requirement(1, LIB) == ("P0", LIB.functionals[0], None)
    assert requirement(7, LIB, 2) == ("P3", LIB.functionals[3], None)
    assert requirement(9, LIB) is None


def test_requirement_without_k_stages_the_index_pair():
    for i in range(40):
        e, k = index_pair(i)
        expected = (f"R{i}", LIB.staged_trees[e], k) if e < 7 else None
        assert requirement(2 * i, LIB) == expected


def test_every_stage_of_the_empty_family_is_a_skip():
    empty = family_from_config(EMPTY_CONFIG)
    assert [requirement(s, empty, k) for s in range(6) for k in (2, None)] == [
        None
    ] * 12


RUNS = {
    "surviving": (lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4), 2),
    "traceable": (
        lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
        None,
    ),
    "accelerating": (lambda: accelerating_force(LIB, 8, 8, 10**4), None),
    "accelerating-skips": (lambda: accelerating_force(LIB, 60, 4, 1000), None),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stage_log_follows_the_declared_schedule(name):
    build, k = RUNS[name]
    log = build().stage_log
    for entry in log:
        req = requirement(entry["stage"], LIB, k)
        assert entry["requirement"] == (req and req[0])
        assert (entry["case"] == "skip") == (req is None)
    assert [e["stage"] for e in log] == list(range(len(log)))


# a tree with four children at the root is no 3-tree, so R0 is vacuous
VACUOUS = family_from_config(
    {
        "staged_trees": [{"kind": "full_subtree", "alphabet": [0, 1, 2, 3]}],
        "functionals": [],
    }
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: accelerating_force(VACUOUS, 2, 4, 1000),
        lambda: traceable_prune(initial_condition(VACUOUS, 4, 12), VACUOUS, 2, 4, 1000),
    ],
    ids=["accelerating", "traceable"],
)
def test_vacuous_stage_logs_its_witness_in_every_engine(build):
    payload = build().to_payload()
    assert payload["stage_log"][0] == {
        "stage": 0, "requirement": "R0", "case": "vacuous", "witness": [],
    }
    assert verify_record(payload) == []


# a comb whose decisions wait for stage 1000 puts no candidate out by the
# query stage, so R0 is stuck in every engine
STUCK_CONFIG = {
    "staged_trees": [{"kind": "comb", "entry": 0, "delay": 1000}],
    "functionals": [{"kind": "identity"}],
}
STUCK = family_from_config(STUCK_CONFIG)
STUCK_RUNS = {
    "surviving": lambda: diagonalize_surviving(2, STUCK, 4, 4, 1000),
    "traceable": lambda: traceable_prune(initial_condition(STUCK, 4, 4), STUCK, 4, 4, 1000),
    "accelerating": lambda: accelerating_force(STUCK, 4, 4, 1000),
}


@pytest.mark.parametrize("engine", sorted(STUCK_RUNS))
def test_stuck_stage_ends_the_run_in_every_engine(engine, tmp_path):
    rec = STUCK_RUNS[engine]()
    assert rec.status == "incomplete"
    assert rec.stage_log == [{"stage": 0, "requirement": "R0", "case": "stuck"}]
    assert verify_record(rec.to_payload()) == []
    family = tmp_path / "stuck.json"
    family.write_text(json.dumps(STUCK_CONFIG))
    argv = [
        "run", "--engine", engine, "--family", str(family), "--stages", "4",
        "--depth", "4", "--fuel", "1000", "--out", str(tmp_path / "rec.json"),
    ]
    assert main(argv) == 3


# the certificates records used to carry, each restating what the verifier
# derives from the engine, the parameters or the stage log
RESTATED = {
    "shape": (
        lambda: build3_record(LIB, 8, 24),
        {"kind": "shape", "predicate": "ktree", "k": 3, "depth": 8},
    ),
    "schedule": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        {"kind": "schedule", "terms": [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]},
    ),
    "labels": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        {"kind": "labels"},
    ),
    "vacuous_tree_requirement": (
        lambda: diagonalize_surviving(2, LIB, 8, 6, 4000),
        {"kind": "vacuous_tree_requirement", "tree": 0, "k": 2, "witness": [], "stage": 46},
    ),
}


@pytest.mark.parametrize("kind", sorted(RESTATED))
def test_a_certificate_that_restates_a_derived_fact_is_of_an_unknown_kind(kind):
    build, cert = RESTATED[kind]
    payload = build().to_payload()
    assert verify_record(payload) == []
    i = len(payload["certificates"])
    defects = forged_defects(payload, lambda p: p["certificates"].append(cert))
    assert defects == [f"certificate {i} ({kind}): unknown certificate kind {kind!r}"]

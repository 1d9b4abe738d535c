"""What the verifier reads off a record: words that are lists of ints, the
stage log and the cases it may log, and the trie of the leaves' outputs.

Each record here is re-signed after its edit (``conftest.forged_defects``),
so only the checks of its content can see the edit."""

from __future__ import annotations

import copy
import functools
import tracemalloc
from collections import Counter, defaultdict

import pytest

from conftest import cert_index, forged_defects, forked_defects
from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify,
    verify_record,
)
from survtree.staged import family_from_config, standard_library

LIB = standard_library()


def _surviving_d6() -> dict:
    return diagonalize_surviving(2, LIB, 8, 6, 5000).to_payload()


def _set_node(old: list, new: list):
    def edit(p):
        nodes = p["final_tree"]["nodes"]
        nodes[nodes.index(old)] = new

    return edit


@pytest.mark.parametrize("edit, defect", [
    (_set_node([2], ["2"]), "not a list of ints: ['2']"),
    (_set_node([2, 0, 1], [2, 0, True]), "not a list of ints: [2, 0, True]"),
    (lambda p: p.update(final_stem=[2, 0.0]), "not a list of ints: [2, 0.0]"),
    (lambda p: p.update(final_stem="20"), "not a list of ints: '20'"),
])
def test_a_tree_node_or_stem_entry_that_is_no_int_is_malformed(edit, defect):
    # int() would read each of these as the record's own word
    assert forged_defects(_surviving_d6(), edit) == [f"malformed record: {defect}"]


def test_a_label_word_entry_that_is_no_int_is_malformed():
    payload = traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 5000).to_payload()
    w, _ = payload["labels"][1]
    assert w == [3]

    def edit(p):
        p["labels"][1][0] = ["3"]

    assert forged_defects(payload, edit) == ["malformed record: not a list of ints: ['3']"]


@pytest.mark.parametrize("value", [0.0, False, "0", None])
def test_a_label_value_that_is_no_int_is_malformed(value):
    # int() would read 0.0, False and "0" as the record's own label 0
    payload = traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 5000).to_payload()
    assert payload["labels"][1] == [[3], 0]

    def edit(p):
        p["labels"][1][1] = value

    assert forged_defects(payload, edit) == [
        f"malformed record: label of (3,) is not an int: {value!r}"
    ]


def test_a_vacuous_witness_entry_that_is_no_int_is_malformed():
    payload = _surviving_d6()
    assert payload["stage_log"][0]["case"] == "vacuous"
    defects = forged_defects(payload, lambda p: p["stage_log"][0].update(witness=[False]))
    assert defects == ["malformed record: not a list of ints: [False]"]


@pytest.mark.parametrize("kind, key", [("avoidance", "witness"), ("presumed_divergence", "node")])
def test_a_certificate_word_entry_that_is_no_int_is_malformed(kind, key):
    payload = _surviving_d6()
    i = cert_index(payload, kind)
    word = payload["certificates"][i][key]
    forged = [str(e) for e in word]
    defects = forged_defects(payload, lambda p: p["certificates"][i].update({key: forged}))
    assert defects == [
        f"certificate {i} ({kind}): malformed certificate: not a list of ints: {forged!r}"
    ]


@pytest.mark.parametrize("engine, kind, key, forged", [
    ("accelerating", "value_witness", "functional", False),
    ("accelerating", "value_witness", "functional", 0.0),
    ("accelerating", "value_witness", "position", False),
    ("accelerating", "value_witness", "position", 0.0),
    ("surviving", "presumed_divergence", "fuel", 5000.0),
    ("surviving", "avoidance", "tree", 2.0),
    ("surviving", "avoidance", "stage", 46.0),
    ("surviving", "presumed_divergence", "position", False),
    ("accelerating", "value_witness", "value", 3.0),
])
def test_a_certificate_number_that_is_no_int_is_malformed(engine, kind, key, forged):
    # each forged value equals the int the record holds (for the fuel, the
    # record's fuel), so int() would read it as that int
    if engine == "surviving":
        payload = _surviving_d6()
    else:
        payload = accelerating_force(LIB, 8, 8, 10**4).to_payload()
    i = cert_index(payload, kind)
    assert payload["certificates"][i].get(key, payload["parameters"]["fuel"]) == forged
    defects = forged_defects(payload, lambda p: p["certificates"][i].update({key: forged}))
    assert defects == [
        f"certificate {i} ({kind}): malformed certificate: {key} is not an int: {forged!r}"
    ]


def _forks(fork_at: list[tuple[int, ...]]):
    """What the first leaves above surviving-d6's stem (2, 0) add, leaf by
    leaf, so that the outputs fork 4 ways at each node of fork_at: leaves
    0-3 add (5, 6, i), and with (5,) in fork_at leaves 4-6 add (5, 10 + i),
    giving (5,) the children 6, 10, 11 and 12."""
    def adds(leaves):
        out = {leaves[i]: (5, 6, i) for i in range(4)}
        if (5,) in fork_at:
            out.update({leaves[4 + i]: (5, 10 + i) for i in range(3)})
        return out
    return adds


@pytest.mark.parametrize("fork_at, named", [
    ([(5, 6)], (5, 6)),
    # two nodes fork 4 ways: the first in level order is named
    ([(5, 6), (5,)], (5,)),
])
def test_the_first_node_whose_outputs_fork_too_wide_is_named(monkeypatch, fork_at, named):
    payload = _surviving_d6()
    assert payload["final_stem"] == [2, 0] and payload["stage_log"][1]["case"] == "C"
    tree = verify.tree_of_payload(payload)
    leaves = [w for w in tree.leaves() if w[:2] == (2, 0)]
    assert forked_defects(monkeypatch, payload, 0, _forks(fork_at)(leaves)) == [
        f"stage 1 (C): the outputs of functional 0 on the leaves fork 4 ways at {named}, "
        "more than 3"
    ]


@pytest.mark.parametrize("i, kind, repoint", [
    (4, "value_witness", {}),
    # re-pointed at the constant functional, whose prefix spells out every
    # position up to the fuel
    (6, "presumed_divergence", {"functional": 2}),
])
@pytest.mark.parametrize("position", [10**7, 8, -1])
def test_a_position_outside_the_depth_is_a_defect_found_before_any_eval(
    i, kind, repoint, position
):
    payload = accelerating_force(LIB, 8, 8, 10**4).to_payload()
    assert payload["certificates"][i]["kind"] == kind

    def edit(p):
        p["parameters"]["fuel"] = 10**7
        p["certificates"][i].update(repoint, position=position)

    tracemalloc.start()
    try:
        defects = forged_defects(payload, edit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a re-pointed certificate is no longer the one its stage calls for
    moved = [
        "presumed_divergence certificates of functional 3: the stage log calls for 1, "
        "the record holds 0",
        "presumed_divergence certificates of functional 2: the stage log calls for 0, "
        "the record holds 1",
    ] if repoint else []
    assert defects == [f"certificate {i} ({kind}): position {position} is outside [0, 8)"] + moved
    # an eval at position 10**7 under fuel 10**7 would hold 10**7 outputs
    assert peak < 1 << 20


# golden records of the three engines that run staged (see
# scripts/run_golden_suite.py)
GOLDEN_STAGED = {
    "surviving-d8": lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4),
    "traceable-d8": lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
    "accelerating-d8": lambda: accelerating_force(LIB, 8, 8, 10**4),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
def test_a_query_stage_other_than_the_runs_is_malformed_before_any_successor_count(
    monkeypatch, name
):
    """A record's vacuous stages are checked at its query stage, so a forged
    huge one would have ``shown_successors`` count for that many stages; the
    run's own query stage is depth + stages + 32, and any other is refused
    before any count."""
    payload = GOLDEN_STAGED[name]().to_payload()
    params = payload["parameters"]
    right = params["depth"] + params["stages"] + 32
    assert params["query_stage"] == right
    counted = []
    shown = verify.shown_successors
    monkeypatch.setattr(verify, "shown_successors", lambda *a: counted.append(a) or shown(*a))
    assert verify_record(payload) == []
    vacuous = [e for e in payload["stage_log"] if e["case"] == "vacuous"]
    assert len(counted) == len(vacuous)
    for query in (10**12, right + 1):
        counted.clear()
        defects = forged_defects(payload, lambda p: p["parameters"].update(query_stage=query))
        assert defects == [f"malformed record: query_stage {query} is not the run's {right}"]
        assert counted == []


@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
@pytest.mark.parametrize("depth", [10**6, 7])
def test_a_depth_other_than_the_final_trees_is_malformed_before_any_trie(name, depth):
    """The record's depth sizes each derived trie, one level per unit, and
    the outputs read; a forged depth of a million, its query stage forged
    to match, would cost seconds and tens of MiB, and is refused from the
    tree the record spells out before either is built."""
    payload = GOLDEN_STAGED[name]().to_payload()

    def edit(p):
        p["parameters"]["query_stage"] += depth - p["parameters"]["depth"]
        p["parameters"]["depth"] = depth

    tracemalloc.start()
    try:
        defects = forged_defects(payload, edit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defects == [f"malformed record: final tree depth 8 is not the record's depth {depth}"]
    # re-signing and reading the d8 tree peak under 1 MiB; a million levels
    # of trie would take over 60
    assert peak < 8 << 20


# -- the stage log's skeleton ------------------------------------------------


def _empty_log(p):
    p["stage_log"].clear()
    p["certificates"].clear()


def _all_skips(p):
    for entry in p["stage_log"]:
        entry["case"] = "skip"


def _no_stages(p):
    params = p["parameters"]
    params["query_stage"] -= params["stages"]
    params["stages"] = 0


@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
@pytest.mark.parametrize("edit, defect", [
    pytest.param(_empty_log, "status 'complete' with 0 of {stages} stages logged", id="emptied"),
    pytest.param(lambda p: p.update(stage_log=p["stage_log"][:1]),
                 "status 'complete' with 1 of {stages} stages logged", id="cut"),
    pytest.param(lambda p: p.update(status="incomplete"),
                 "status 'incomplete' with {stages} of {stages} stages logged", id="incomplete"),
    pytest.param(_no_stages, "status 'complete' with {stages} of 0 stages logged", id="no-stages"),
])
def test_a_status_the_stage_log_does_not_bear_out_is_a_defect(name, edit, defect):
    payload = GOLDEN_STAGED[name]().to_payload()
    stages = payload["parameters"]["stages"]
    assert len(payload["stage_log"]) == stages and verify_record(payload) == []
    expected = defect.format(stages=stages) + ", 0 of them stuck or without a disagreement"
    assert expected in forged_defects(payload, edit)


@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
def test_every_stage_relogged_a_skip_is_a_defect_at_each_stage(name):
    payload = GOLDEN_STAGED[name]().to_payload()
    named = [(e["stage"], e["requirement"], e["case"]) for e in payload["stage_log"]]
    certs = Counter((c["kind"], c.get("tree", c.get("functional"))) for c in payload["certificates"])
    defects = forged_defects(payload, _all_skips)
    # and no stage is left to call for a certificate
    assert defects == [
        f"stage {s} is {req}, logged {req!r} as 'skip'" for s, req, case in named if case != "skip"
    ] + [
        f"{kind} certificates of {'tree' if kind == 'avoidance' else 'functional'} {i}: "
        f"the stage log calls for 0, the record holds {n}"
        for (kind, i), n in certs.items()
    ]


def test_a_stage_logged_as_another_requirement_or_a_skip_as_a_stage_is_a_defect():
    payload = GOLDEN_STAGED["surviving-d8"]().to_payload()
    case = payload["stage_log"][0]["case"]

    def edit(p):
        p["stage_log"][0]["requirement"] = "R1"
        p["stage_log"][1] = {"stage": 1, "requirement": None, "case": "skip"}

    assert forged_defects(payload, edit) == [
        f"stage 0 is R0, logged 'R1' as {case!r}", "stage 1 is P0, logged None as 'skip'",
    ]


def test_an_incomplete_log_ends_at_its_first_stuck_stage():
    payload = GOLDEN_STAGED["surviving-d8"]().to_payload()

    def stuck_at(*stages):
        def edit(p):
            p["status"] = "incomplete"
            for s in stages:
                p["stage_log"][s].update(case="stuck")
            del p["stage_log"][stages[-1] + 1:]

        return edit

    def status_defects(edit):
        return [d for d in forged_defects(copy.deepcopy(payload), edit) if d.startswith("status")]

    assert status_defects(stuck_at(3)) == []
    assert status_defects(stuck_at(1, 3)) == [
        "status 'incomplete' with 4 of 14 stages logged, 2 of them stuck or without a disagreement"
    ]


@pytest.mark.parametrize("edit, defect", [
    (lambda p: p["stage_log"].append({"stage": 0, "requirement": "R0", "case": "exit"}),
     "status 'complete' with 1 of 0 stages logged, 0 of them stuck or without a disagreement"),
    (lambda p: p.update(status="incomplete"),
     "status 'incomplete' with 0 of 0 stages logged, 0 of them stuck or without a disagreement"),
    (lambda p: p.update(status="done"),
     "status 'done' with 0 of 0 stages logged, 0 of them stuck or without a disagreement"),
])
def test_a_build3_record_is_complete_with_an_empty_stage_log(edit, defect):
    payload = build3_record(LIB, 6, 12).to_payload()
    assert payload["stage_log"] == [] and verify_record(payload) == []
    assert defect in forged_defects(payload, edit)


@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
def test_an_avoidance_certificate_at_another_stage_than_the_query_stage_is_a_defect(name):
    payload = GOLDEN_STAGED[name]().to_payload()
    query = payload["parameters"]["query_stage"]
    avoid = [i for i, c in enumerate(payload["certificates"]) if c["kind"] == "avoidance"]
    assert avoid

    def edit(p):
        for i in avoid:
            p["certificates"][i]["stage"] = 10**6

    assert forged_defects(payload, edit) == [
        f"certificate {i} (avoidance): stage 1000000 is not the run's query stage {query}"
        for i in avoid
    ]


# -- the certificates the stage log calls for --------------------------------


@pytest.mark.parametrize("name, kind, adversary", [
    *[(name, "avoidance", "tree") for name in sorted(GOLDEN_STAGED)],
    ("accelerating-d8", "presumed_divergence", "functional"),
    ("surviving-d8", "presumed_divergence", "functional"),
])
def test_a_record_with_every_certificate_of_a_kind_deleted_is_refused(name, kind, adversary):
    """Each exit or already-out stage calls for an avoidance certificate of
    its tree, and each case A, escape or case 1 stage a presumed divergence
    of its functional: with them all deleted, nothing else is left to refuse
    the record."""
    payload = GOLDEN_STAGED[name]().to_payload()
    called = Counter(c[adversary] for c in payload["certificates"] if c["kind"] == kind)
    assert called

    def edit(p):
        p["certificates"] = [c for c in p["certificates"] if c["kind"] != kind]

    assert forged_defects(payload, edit) == [
        f"{kind} certificates of {adversary} {i}: the stage log calls for {n}, the record holds 0"
        for i, n in called.items()
    ]


# -- the case table ----------------------------------------------------------


def _relogged(name: str, stage: int, case: str, tree_stage: int, drop: str = ""):
    """An edit relogging a functional stage as the case a tree stage logs,
    its certificate of kind drop deleted, and the tree stage's avoidance
    certificate duplicated: staged tree i and functional i share the id i,
    so the avoidance counts keyed by (kind, id) balance."""
    def edit(p):
        assert p["stage_log"][tree_stage]["case"] in ("exit", "already-out")
        witness = p["stage_log"][tree_stage].get("witness")
        p["stage_log"][stage]["case"] = case
        if case == "exit":
            p["stage_log"][stage]["witness"] = witness
        fid = int(p["stage_log"][stage]["requirement"][1:])
        p["certificates"] = [
            c for c in p["certificates"] if not (c["kind"] == drop and c.get("functional") == fid)
        ]
        p["certificates"].append(next(
            dict(c) for c in p["certificates"] if c["kind"] == "avoidance" and c["tree"] == fid
        ))
    return edit


@pytest.mark.parametrize("name, stage, case, tree_stage, drop, was", [
    # F3: P2's case B relogged exit, as R2 logs it
    ("surviving-d8", 5, "exit", 4, "", "B"),
    # F4: P3's case A relogged already-out, its divergence deleted
    ("surviving-d8", 7, "already-out", 6, "presumed_divergence", "A"),
    # F5: P1's prune relogged exit, as R1 logs it
    ("traceable-d8", 3, "exit", 2, "", "prune"),
], ids=["F3", "F4", "F5"])
def test_a_functional_stage_relogged_as_a_tree_case_is_refused(
    name, stage, case, tree_stage, drop, was
):
    """A functional stage logs only its engine's own cases.  Without the
    case table each of these verified clean: the duplicated avoidance
    certificate stood for the relogged stage's."""
    payload = GOLDEN_STAGED[name]().to_payload()
    req = payload["stage_log"][stage]["requirement"]
    assert payload["stage_log"][stage]["case"] == was and verify_record(payload) == []
    assert forged_defects(payload, _relogged(name, stage, case, tree_stage, drop)) == [
        f"stage {stage} is {req}, logged {req!r} as {case!r}",
        f"avoidance certificates of tree {req[1:]}: the stage log calls for 1, the record holds 2",
    ]


# one full staged 3-tree and one functional, entry mod 3, that cannot tell
# an entry 2 from an entry 5
_MOD3 = family_from_config({
    "staged_trees": [{"id": 0, "kind": "full_subtree", "alphabet": [0, 1, 2],
                      "claim": ["branching", 3]}],
    "functionals": [{"id": 0, "kind": "entry_mod", "modulus": 3}],
})


def _leaves_2_to_5(bound):
    """Set the final tree's alphabet bound and move every depth-4 leaf
    ending in 2 to end in 5: the same output under entry mod 3, the same
    number of children on every parent, and the same sort order."""
    def edit(p):
        p["final_tree"]["alphabet_bound"] = bound
        moved = [w for w in p["final_tree"]["nodes"] if len(w) == 4 and w[-1] == 2]
        assert moved
        for w in moved:
            w[-1] = 5

    return edit


@pytest.mark.parametrize("bound, defect", [
    # a bound dropped from the record no longer hides out-of-alphabet entries
    (None, "final tree alphabet bound None is not 3"),
    (3, "entry out of alphabet bound in (0, 0, 0, 5)"),
])
def test_a_surviving_tree_is_checked_against_the_promised_alphabet(bound, defect):
    payload = diagonalize_surviving(2, _MOD3, 2, 4, 10000).to_payload()
    assert verify_record(payload) == []
    assert [e["case"] for e in payload["stage_log"]] == ["vacuous", "C"]
    assert forged_defects(payload, _leaves_2_to_5(bound)) == [f"malformed record: {defect}"]


@pytest.mark.parametrize("name, bound", [
    *[(name, 10**9) for name in ["build3-d8", *GOLDEN_STAGED]],
    # equal to the promised 3, but no int
    ("surviving-d8", 3.0),
])
def test_an_alphabet_bound_other_than_the_promised_one_is_malformed(name, bound):
    """Only surviving promises a bound, k + 1; every entry of these records
    is below 10**9, so only the promise refuses that bound."""
    record = build3_record(LIB, 8, 24) if name == "build3-d8" else GOLDEN_STAGED[name]()
    payload = record.to_payload()
    want = 3 if name == "surviving-d8" else None
    assert payload["final_tree"]["alphabet_bound"] == want
    defects = forged_defects(payload, lambda p: p["final_tree"].update(alphabet_bound=bound))
    assert defects == [f"malformed record: final tree alphabet bound {bound!r} is not {want}"]


# -- the case table against the cases the engines log ------------------------

# every case some stage of a golden record logs
_LOGGED_CASES = ["vacuous", "already-out", "exit", "A", "B", "C", "prune", "1", "2", "4", "skip"]


@functools.lru_cache(maxsize=None)
def _golden_payload(name: str) -> dict:
    return GOLDEN_STAGED[name]().to_payload()


def _stage_kind(engine: str, entry: dict) -> str:
    """A skip, a tree stage of any engine (they share one set of cases), or
    a functional stage of the engine."""
    req = entry["requirement"]
    return "skip" if req is None else "tree" if req[0] == "R" else engine


def _logged_by_kind() -> dict[str, set]:
    logged = defaultdict(set)
    for name in GOLDEN_STAGED:
        payload = _golden_payload(name)
        for entry in payload["stage_log"]:
            logged[_stage_kind(payload["engine"], entry)].add(entry["case"])
    return logged


def test_the_golden_records_log_each_listed_case():
    assert set().union(*_logged_by_kind().values()) == set(_LOGGED_CASES)


@pytest.mark.parametrize("case", _LOGGED_CASES)
@pytest.mark.parametrize("name", sorted(GOLDEN_STAGED))
def test_each_kind_of_stage_refuses_the_cases_only_other_kinds_log(name, case):
    """Stage 0 of each golden record is a tree stage and stage 1 a
    functional one, and surviving-d8's stage 9 is a skip: a case relogged
    there is refused exactly when no stage of that kind in the golden
    records logs it."""
    payload = _golden_payload(name)
    logged = _logged_by_kind()
    for stage in [0, 1, 9] if name == "surviving-d8" else [0, 1]:
        entry = payload["stage_log"][stage]
        req = entry["requirement"]
        defects = forged_defects(
            copy.deepcopy(payload), lambda p: p["stage_log"][stage].update(case=case)
        )
        refused = f"stage {stage} is {req or 'a skip'}, logged {req!r} as {case!r}"
        allowed = logged[_stage_kind(payload["engine"], entry)]
        assert (refused in defects) == (case not in allowed), (stage, defects)


@pytest.mark.parametrize("name, stage, case, refused", [
    ("surviving-d8", 1, "stuck", False),
    ("surviving-d8", 1, "escape", True),
    ("surviving-d8", 1, "no-disagreement", True),
    ("traceable-d8", 1, "escape", False),
    ("traceable-d8", 1, "stuck", True),
    ("traceable-d8", 1, "3", True),
    ("accelerating-d8", 1, "3", False),
    ("accelerating-d8", 1, "no-disagreement", False),
    ("accelerating-d8", 1, "stuck", False),
    ("accelerating-d8", 0, "no-disagreement", True),
    ("accelerating-d8", 0, "escape", True),
])
def test_a_case_no_golden_record_logs_is_refused_where_the_engine_never_logs_it(
    name, stage, case, refused
):
    """The cases the grid above cannot derive: logged only by runs that
    end early or take a branch the golden records do not."""
    payload = copy.deepcopy(_golden_payload(name))
    req = payload["stage_log"][stage]["requirement"]
    defects = forged_defects(payload, lambda p: p["stage_log"][stage].update(case=case))
    assert (f"stage {stage} is {req}, logged {req!r} as {case!r}" in defects) == refused


# -- each tamed stage's trie --------------------------------------------------


@pytest.mark.parametrize("extra", [0, 1], ids=["at-the-width", "one-wider"])
@pytest.mark.parametrize("name, stage, case, width", [
    ("surviving-d8", 1, "C", 3),
    ("surviving-d8", 3, "C", 3),
    ("surviving-d8", 5, "B", 3),
    ("accelerating-d8", 3, "4", 2),
])
def test_each_tamed_stage_checks_its_functionals_outputs_against_the_width(
    monkeypatch, name, stage, case, width, extra
):
    """The functional of each stage logged B, C or 4, made to add (9, i) on
    the i-th leaf above the stem for width + extra leaves, forks width +
    extra ways at (9,): at the promised width the record verifies, one
    wider the defect names that stage and functional."""
    payload = GOLDEN_STAGED[name]().to_payload()
    entry = payload["stage_log"][stage]
    assert entry["case"] == case and entry["requirement"][0] == "P"
    fid = int(entry["requirement"][1:])
    tree, stem = verify.tree_of_payload(payload), tuple(payload["final_stem"])
    leaves = [w for w in tree.leaves() if w[:len(stem)] == stem]
    adds = {leaves[i]: (9, i) for i in range(width + extra)}
    assert forked_defects(monkeypatch, payload, fid, adds) == ([
        f"stage {stage} ({case}): the outputs of functional {fid} on the leaves fork "
        f"{width + 1} ways at (9,), more than {width}"
    ] if extra else [])

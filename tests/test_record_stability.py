"""Run records pinned byte for byte, apart from stage-log fuel_spent,
and their stage-log fuel_spent values pinned on their own.

Each hash is the sha256 of ``canonical_json`` of a payload with its
``digest`` and every stage-log ``fuel_spent`` removed.  The surviving,
traceable-d8 and accelerating-d8 hashes were first taken before the engines
moved to per-stage output tables, which changed only what ``fuel_spent``
counts; the build3-d12 and build3-d16 hashes and the traceable base
condition's were taken while the 3-tree growth loop still re-probed every
node at every stage; the traceable-d6, accelerating-d6 and build3-d8
hashes and fuel_spent lists were taken before the engines shared one
tree-requirement stage; the surviving-d8-comb-r1 fuel_spent list was taken
before the surviving engine folded cases A and B into one pass and built its
trees from sorted levels.  The surviving, traceable and accelerating hashes
were re-taken when record traces moved from word lists to the level-order
``children`` form, which changed only how traces are spelled (``DECODED``
below did not move).  The other fuel_spent lists were taken with the
output tables in place; a change to the set of nodes a stage evaluates
shows up there and nowhere else in the record.

``DECODED`` pins what each record means apart from how it is spelled: the
sha256 of ``canonical_json`` of its final tree nodes, stem, labels, stage log
and certificates.  Until records stopped storing traces (last paragraph) it
also hashed, for each trace read back at the record's depth under the
engine's promised base, the functional and the sorted words of every level.

Every hash, byte and ``DECODED`` alike, was re-taken when records stopped
restating what the verifier derives: the ``shape``, ``schedule``, ``labels``
and ``vacuous_tree_requirement`` certificates, the ``fuel`` of functional
certificates and each trace's ``bound`` and ``depth`` were dropped.  The
records before that change, with exactly those parts removed, equal the
records after it, and hash to the same ``DECODED`` values; the fuel_spent
lists did not move.  Before it, the ``DECODED`` hashes had held unedited
from the word-list trace encoding through the level-order one.

The byte hashes of the ten records with traces were re-taken when each
trace row came to be written as maximal runs ``[count, entries]``: the
records before that change, with each trace row run-coded, equal the
records after it.  ``DECODED``, the fuel_spent lists and the build3 byte
hashes did not move.

The accelerating-d12 record (three case-4 split levels, then padding) was
pinned, bytes, ``DECODED`` and fuel_spent alike, while case 4 still read
its candidates and built its tree node by node.

The fuel_spent lists, and with them the ``DECODED`` hashes of the eleven
records with functional stages (``DECODED`` hashes the stage log), were
re-taken when a stage's fuel_spent came to count the distinct nodes its
output table reads, one prefix call each, where it had counted the
distinct (node, position) pairs read.  The records before that change,
with each stage's fuel_spent replaced by the number of distinct nodes its
table took a prefix of, equal the records after it.  The byte hashes and
the build3 ``DECODED`` hashes did not move.

Every byte and ``DECODED`` hash was re-taken when records stopped storing
traces, which the verifier now derives from the final tree: the payload lost
its ``traces`` field and the ``trace`` and ``two_tree_trace`` certificates.
The records before that change, with exactly those parts dropped, equal the
records after it, apart from five fuel_spent lists.  The surviving lists did
not move: case B's trace read leaves the case A/B fold had read, and case C
read its trace off the rounds.  The traceable and accelerating trace builds
read every node of the stage's new tree, and the nodes no other step of the
stage reads are gone from the count: traceable-d6 [17, 7] -> [13, 1],
traceable-d8 [25, 9] -> [21, 1], accelerating-d6 [1, 82, 1] -> [1, 73, 1],
accelerating-d8 [1, 190, 1, 12] -> [1, 154, 1, 12] and accelerating-d12
[1, 1390, 1, 60] -> [1, 1126, 1, 60].  A spy on each functional's prefix
showed each stage's reads now to be the first ones of its reads before, the
rest distinct nodes the trace build alone read.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import sys

import pytest

from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
)
from survtree.engine.common import labels_of_payload, tree_of_payload
from survtree.io_formats import canonical_json
from survtree.staged import STANDARD_CONFIG, family_from_config, standard_library
from survtree.trees import word_key

LIB = standard_library()


def _with_functionals(functionals):
    config = copy.deepcopy(STANDARD_CONFIG)
    config["functionals"] = functionals
    return family_from_config(config)


MOD4 = _with_functionals(
    [{"kind": "entry_mod", "modulus": 4}, {"kind": "identity"}]
)
CONST3 = _with_functionals(
    [{"kind": "constant", "value": 3}, {"kind": "entry_mod", "modulus": 2}]
)


def _comb_r1():
    """The standard family with staged tree 1 a comb: R1 exits the stem,
    so P1's case C has to search the pools above the children."""
    config = copy.deepcopy(STANDARD_CONFIG)
    config["staged_trees"][1] = {
        "id": 1, "kind": "comb", "entry": 0, "claim": ["tree", 1],
    }
    return family_from_config(config)


COMB_R1 = _comb_r1()

PINNED = {
    "surviving-d6": (
        lambda: diagonalize_surviving(2, LIB, 8, 6, 4000),
        "423abbd0afe8efbe6b679d769cc7c83fa5b742fc1d9fd1843ce7620361b6b81f",
    ),
    "surviving-d8": (
        lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4),
        "440540bc6a969349c130ea8d810b2e71898c7cf6ccbf236c9bd692aba8733dfb",
    ),
    "traceable-d8": (
        lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
        "9387023009c3778e7422d65024ee7c46349af54b2db96ed838c57e8e35d024df",
    ),
    "traceable-d6": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        "85b6f6873eefdde7bc846a459c114385879aeea2d40dd69570a0cdb87ff1728d",
    ),
    "accelerating-d6": (
        lambda: accelerating_force(LIB, 6, 6, 4000),
        "912d11270db5a5cff2bafcaee222201eace595f73b522a408112a2518fe0b49d",
    ),
    "accelerating-d8": (
        lambda: accelerating_force(LIB, 8, 8, 10**4),
        "67b61fb064d795572dcbca4ef75d3d86b938930259092e76de1d21f4f38af8e4",
    ),
    "accelerating-d12": (
        lambda: accelerating_force(LIB, 12, 12, 10**4),
        "713e622b4844a2b278937e7b4f0061b7caaf245e0ddc33aaefbe084500a448d7",
    ),
    "surviving-d8-entry-mod-4": (
        lambda: diagonalize_surviving(2, MOD4, 14, 8, 10**4),
        "09a7e4193f265f9024be1cf586d29eab0854f62f18c2d52317f9d0b5684fb871",
    ),
    "surviving-d8-constant-3": (
        lambda: diagonalize_surviving(2, CONST3, 14, 8, 10**4),
        "9a10b4a3c4d2dfff2e026ad864c6074270855e113f98b2bb4e2c2a67850b4229",
    ),
    "surviving-d8-comb-r1": (
        lambda: diagonalize_surviving(2, COMB_R1, 14, 8, 10**4),
        "1fb83d85db9d6718ad6cab18a60ca19534fae11fd6eb6b3dbaaece13f825a0fe",
    ),
    "surviving-k3-d6": (
        lambda: diagonalize_surviving(3, LIB, 10, 6, 10**4),
        "72c1a5c2cae1c7857b15ae3e3ab5e09cba075581803b714ebd1ef933aeb9ef49",
    ),
    "build3-d12": (
        lambda: build3_record(LIB, 12, 36),
        "7eb1d7e6389bf070a56a08966616f8f952c4ffb283f4ddadfa8f99ede84e466e",
    ),
    "build3-d8": (
        lambda: build3_record(LIB, 8, 24),
        "37bfd4f35d2d8eb18a3e700d22d4a0563c57f33ead84b37327bfa58d872b9875",
    ),
    "build3-d16": (
        lambda: build3_record(LIB, 16, 48),
        "0bc69bbcecb790c85e66df26afb69d995b0744265e740d9a6e592603b19328c7",
    ),
}


# the fuel_spent of each functional stage, in stage order
FUEL_SPENT = {
    "surviving-d6": [1092, 1092, 243, 81],
    "surviving-d8": [9840, 9840, 2187, 729],
    "traceable-d6": [13, 1],
    "traceable-d8": [21, 1],
    "accelerating-d6": [1, 73, 1],
    "accelerating-d8": [1, 154, 1, 12],
    "accelerating-d12": [1, 1126, 1, 60],
    "surviving-d8-entry-mod-4": [9840, 9840],
    "surviving-d8-constant-3": [6561, 6561],
    "surviving-d8-comb-r1": [9840, 3279, 729, 243],
    "surviving-k3-d6": [1364, 256, 4, 4],
}


@functools.lru_cache(maxsize=None)
def _payload(name: str) -> dict:
    build, _ = PINNED[name]
    return build().to_payload()


def _hash_without_fuel(payload: dict) -> str:
    p = copy.deepcopy(payload)
    del p["digest"]
    for entry in p["stage_log"]:
        entry.pop("fuel_spent", None)
    return hashlib.sha256(canonical_json(p).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_record_bytes_pinned_apart_from_fuel_spent(name):
    _, expected = PINNED[name]
    assert _hash_without_fuel(_payload(name)) == expected


def _decoded_hash(payload: dict) -> str:
    labels = labels_of_payload(payload)
    content = {
        "final_tree": sorted(tree_of_payload(payload).nodes, key=word_key),
        "final_stem": payload["final_stem"],
        "labels": None if labels is None else sorted(labels.items()),
        "stage_log": payload["stage_log"],
        "certificates": payload["certificates"],
    }
    return hashlib.sha256(canonical_json(content).encode()).hexdigest()


DECODED = {
    "accelerating-d12": (
        "ecf126d8e04497416e55a43e160f533db082972ab658665e9f7e4450efcce204"
    ),
    "accelerating-d6": (
        "65dc76867b1eee39d0c7da4e201fb04c1cc9768574290f7f67d9b92d9c06fb98"
    ),
    "accelerating-d8": (
        "6e0803dccd442be69b9bc8d4524945b21b6ffb3733c3e7c95f4f7d3dfc361603"
    ),
    "build3-d12": (
        "ae0105ee4c81c3aef9b268f1fcd235c249947f4a05a977e54b7f1d14e4dadee6"
    ),
    "build3-d16": (
        "fe78f70ca7eed9bc3ed9bf8b19e2c38c5a2cf91695ab3a5d3f81de5d456b2fe4"
    ),
    "build3-d8": (
        "cc085eaccf1c76968a179ccbe91abf5e4c1feb85cea469e189d956486b68074b"
    ),
    "surviving-d6": (
        "b318e7393b7a6339a83bfbe7d135b03720aa30ca18dd726d0bdee11e9efcbca1"
    ),
    "surviving-d8": (
        "c40ed33c3b3875f6149dac2e5d741ae2ad61a19ac57b88e379c00150d31f6871"
    ),
    "surviving-d8-comb-r1": (
        "6e2899df0cbdfc83acea97641734f9e21a3e033d4e2d078b9d636ce924f5b8b2"
    ),
    "surviving-d8-constant-3": (
        "ffa071aec2d846adc3e617338447fb61af99988f12f1e9e2972912ae282a1b54"
    ),
    "surviving-d8-entry-mod-4": (
        "c2c18a6f0ee1a376c56f0d3f1b92c74c88a929be17653aee8090bd3cc2a928d6"
    ),
    "surviving-k3-d6": (
        "9b4d5c1f3637841ff63006d785d10dbc34cfa4735e8b47eeb7d1f25753ae82ed"
    ),
    "traceable-d6": (
        "340b5bae32836467ffe8d5fed23d00bd52c0a909f9561216f030f620022a766f"
    ),
    "traceable-d8": (
        "ce2abf92fe1d134a24d31b12c53f6fc775890cace192402b639b39c60e6b9c90"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decoded_record_content_pinned(name):
    assert _decoded_hash(_payload(name)) == DECODED[name]


# the traceable engine's base condition, as its word_key-sorted [node, label]
# pairs
INITIAL_CONDITION_D10 = (
    "e912eeea296055afabc0849dab65a66c708482a7f430fb026afff70f3e59c874"
)


def test_initial_condition_pinned():
    c = initial_condition(LIB, 10, 28)
    pairs = [[list(w), c.labels[w]] for w in sorted(c.tree.nodes, key=word_key)]
    assert hashlib.sha256(canonical_json(pairs).encode()).hexdigest() == (
        INITIAL_CONDITION_D10
    )


@pytest.mark.parametrize("name", sorted(FUEL_SPENT))
def test_stage_fuel_spent_pinned(name):
    spent = [e["fuel_spent"] for e in _payload(name)["stage_log"] if "fuel_spent" in e]
    assert spent == FUEL_SPENT[name]


def _logged(family, calls: dict[int, list], rows: list):
    """family with each functional's prefix logging the words it is called
    on, in calls under the functional's index, and carrying a row form
    that logs the words of its rows there too, and each row in rows."""
    def logged(i, fn):
        def prefix(sigma, cap, fuel):
            calls.setdefault(i, []).append(sigma)
            return fn.prefix(sigma, cap, fuel)

        def row(ws, cap, fuel):
            calls.setdefault(i, []).extend(ws)
            rows.append(ws)
            return fn.prefix_row(ws, cap, fuel)

        prefix.row = row
        return dataclasses.replace(fn, prefix=prefix)

    return dataclasses.replace(
        family, functionals=tuple(logged(i, fn) for i, fn in enumerate(family.functionals))
    )


FAMILIES = ("LIB", "MOD4", "CONST3", "COMB_R1")


@pytest.fixture
def prefix_calls(monkeypatch) -> tuple[dict[int, list], list]:
    """The words each functional's prefix or row form is called on, by the
    functional's index, and the rows its row form is called on, while the
    module's families stand logged for themselves."""
    calls: dict[int, list] = {}
    rows: list = []
    module = sys.modules[__name__]
    for name in FAMILIES:
        monkeypatch.setattr(module, name, _logged(getattr(module, name), calls, rows))
    return calls, rows


def _checked_fuel_spent(payload: dict, calls: dict[int, list]) -> list[int]:
    """Each functional stage's fuel_spent, once checked to be the number of
    distinct words its functional's prefix was called on, none twice."""
    spent = []
    for entry in payload["stage_log"]:
        if "fuel_spent" in entry:
            called = calls.pop(int(entry["requirement"][1:]), [])
            assert len(called) == len(set(called))
            assert entry["fuel_spent"] == len(called)
            spent.append(entry["fuel_spent"])
    # no functional is called outside its stage
    assert not calls
    return spent


@pytest.mark.parametrize("name", sorted(FUEL_SPENT))
def test_fuel_spent_counts_the_words_a_stage_calls_its_functional_on(prefix_calls, name):
    calls, rows = prefix_calls
    build, _ = PINNED[name]
    assert _checked_fuel_spent(build().to_payload(), calls) == FUEL_SPENT[name]
    # the surviving and traceable engines' case A/B fold reads its leaf
    # rows through the row form; the accelerating engine runs no fold
    assert bool(rows) == (not name.startswith("accelerating"))


def test_a_depth_0_stage_counts_the_node_it_reads(prefix_calls):
    """At depth 0 a node's prefix is empty, and reading it still calls the
    functional: the surviving P0 reads the root."""
    calls, _ = prefix_calls
    payload = diagonalize_surviving(2, LIB, 8, 0, 4000).to_payload()
    assert _checked_fuel_spent(payload, calls) == [1]


def _without_rows(family):
    """family with each functional's prefix a plain function of the one it
    had, which carries no row form: every row is read word by word."""
    def plain(fn):
        return dataclasses.replace(fn, prefix=lambda sigma, cap, fuel: fn.prefix(sigma, cap, fuel))

    return dataclasses.replace(family, functionals=tuple(map(plain, family.functionals)))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_records_built_without_row_forms_are_the_same_bytes(monkeypatch, name):
    module = sys.modules[__name__]
    for family in FAMILIES:
        monkeypatch.setattr(module, family, _without_rows(getattr(module, family)))
    build, _ = PINNED[name]
    assert canonical_json(build().to_payload()) == canonical_json(_payload(name))

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
sha256 of ``canonical_json`` of its final tree nodes, stem, labels, stage log,
certificates and, for each trace read back through ``json_to_trace`` at the
record's depth under the engine's promised base, the functional and the
sorted words of every level.

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
from survtree.engine.common import PROMISES, labels_of_payload, tree_of_payload
from survtree.io_formats import canonical_json, json_to_trace
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
        "68c30988dd1ea1df92c903744d89567c53de19483b1dbdd77c9e57deb5888140",
    ),
    "surviving-d8": (
        lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4),
        "635b824272af75e7bb356a029664af4905efff7a8b37d81dec71daaade8770fc",
    ),
    "traceable-d8": (
        lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
        "6659caf5da6ddf0265e42e9f62a690f176a6cbc5b6eafc35f01e7c260fe5615d",
    ),
    "traceable-d6": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        "fa2f865f10b1f719b9431aa14f30c0e9b4d4bbc311d152f3a797eadde3a573f2",
    ),
    "accelerating-d6": (
        lambda: accelerating_force(LIB, 6, 6, 4000),
        "cb9072da5d725c523782aa114df8bb1747b5517cc164df7cce1dc9ddd5e6d9a5",
    ),
    "accelerating-d8": (
        lambda: accelerating_force(LIB, 8, 8, 10**4),
        "f364a7a539bc95ef10593e2771d605fe76ffbd7331f4e1bd5275ff3e302fa5df",
    ),
    "accelerating-d12": (
        lambda: accelerating_force(LIB, 12, 12, 10**4),
        "1f7ad4a5508e2ed64b66305e1ccbf05b9829edf09a836b6e613745334dad41fa",
    ),
    "surviving-d8-entry-mod-4": (
        lambda: diagonalize_surviving(2, MOD4, 14, 8, 10**4),
        "b3aef724639c65e70072b8cb6d207d48b3ddab6ab4665dffe83945055f3da11e",
    ),
    "surviving-d8-constant-3": (
        lambda: diagonalize_surviving(2, CONST3, 14, 8, 10**4),
        "665d44fc19c4dddbb78f37b45dc57443835d7270adce27dbe4306a9a83298c57",
    ),
    "surviving-d8-comb-r1": (
        lambda: diagonalize_surviving(2, COMB_R1, 14, 8, 10**4),
        "4c2ca9a82554d51c8ca7498283a179f79d924a24ee5ebfcd457738c6d8d5ba50",
    ),
    "surviving-k3-d6": (
        lambda: diagonalize_surviving(3, LIB, 10, 6, 10**4),
        "9299084af872e812cf2e5cc5c83dcf84cdc29755eb0b57102ed9bac4c85faad5",
    ),
    "build3-d12": (
        lambda: build3_record(LIB, 12, 36),
        "acb69a49d3660637f9a5a73a4ddec966d1c4564554a04f642553b36f28bb683e",
    ),
    "build3-d8": (
        lambda: build3_record(LIB, 8, 24),
        "88ef9aafd2ea4957a0d61a3147deda150955c9bb2fdf0f34a59aa95f9b1810d1",
    ),
    "build3-d16": (
        lambda: build3_record(LIB, 16, 48),
        "821a5c99be5dcf8bfc22f4207535fa6e2730c256c615b26d2c513ceb2db24563",
    ),
}


# the fuel_spent of each functional stage, in stage order
FUEL_SPENT = {
    "surviving-d6": [1092, 1092, 243, 81],
    "surviving-d8": [9840, 9840, 2187, 729],
    "traceable-d6": [17, 7],
    "traceable-d8": [25, 9],
    "accelerating-d6": [1, 82, 1],
    "accelerating-d8": [1, 190, 1, 12],
    "accelerating-d12": [1, 1390, 1, 60],
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
    parameters = payload["parameters"]
    base = PROMISES[payload["engine"]](parameters).base
    traces = []
    for t in payload["traces"]:
        table = json_to_trace(t, parameters["depth"], base)
        traces.append({
            "functional": t["functional"],
            "levels": [sorted(lv) for lv in table.levels],
        })
    content = {
        "final_tree": sorted(tree_of_payload(payload).nodes, key=word_key),
        "final_stem": payload["final_stem"],
        "labels": None if labels is None else sorted(labels.items()),
        "stage_log": payload["stage_log"],
        "certificates": payload["certificates"],
        "traces": traces,
    }
    return hashlib.sha256(canonical_json(content).encode()).hexdigest()


DECODED = {
    "accelerating-d12": (
        "63139d56c112d31194f5f2cfc3a0cf632f8ead6c2bcac44cbad8ada172906c91"
    ),
    "accelerating-d6": (
        "0e39bd5f82b7a5d246219c66de046c9111d6e4c8dacbf82707ac96b72baf4d57"
    ),
    "accelerating-d8": (
        "f95f46c35df73b936b79c2585feab784383f0f09c9c3b95a274396d744f230bd"
    ),
    "build3-d12": (
        "1cb858dccb5a6dfb51ca745b20d69d53f155b2cca1bf6c1175d8fb48d200165e"
    ),
    "build3-d16": (
        "7eadb55a3c081ee5b305242436c389f87f0de81cedc84a0487e2169f43f069fb"
    ),
    "build3-d8": (
        "6c2a82d9436c39353ec8c39bd8a74ac32c70b9122712b2d5aeac2566573edeb0"
    ),
    "surviving-d6": (
        "ba6c0346770a8c598f36390b8b1a27cb7e476800e2d4fe02eeb9270833fb908d"
    ),
    "surviving-d8": (
        "bc5c4f65e2b67f58ca560709cde83c6bb547109e4422180fa22d00174bf2e72a"
    ),
    "surviving-d8-comb-r1": (
        "647074853f720ee7000d35d55847d64c953b6d6cc19657a511a5736327ff18df"
    ),
    "surviving-d8-constant-3": (
        "bd8d810643cdf417e582f29324318c14735ddbe1f8ede39dffb9ed96354c0903"
    ),
    "surviving-d8-entry-mod-4": (
        "0901e8834daa73c1618ca9b134cf2a36555e83821ca3ca704969e277ead4c185"
    ),
    "surviving-k3-d6": (
        "743a679e937ff43a0d94f05727ed0818036e747aea0276d5c8705f22b4e64350"
    ),
    "traceable-d6": (
        "dbcbd34d1273893463dce187f970d6bdc3ca9ecefc98dd989cb149ba5372338a"
    ),
    "traceable-d8": (
        "4d0512a1f97518491f9484b7e31fba277c851877b7b87963a51eb9977c10bb86"
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

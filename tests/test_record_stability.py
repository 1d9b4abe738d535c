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
output tables in place; a change to the set of (node, position) pairs a
stage evaluates shows up there and nowhere else in the record.

``DECODED`` pins what each record means apart from how it is spelled: the
sha256 of ``canonical_json`` of its final tree nodes, stem, labels, stage log,
certificates and, for each trace read back through ``json_to_trace``, the
functional, bound, depth and sorted words of every level.  These hashes were
taken while traces were still written as word lists, before the level-order
trace encoding, and hold across it.

The surviving-k3-d6 pins, the one record at k = 3, came later: they were
taken after the engines began writing their shape certificates from one
promise table, and the record before that change has the same pins.
"""

from __future__ import annotations

import copy
import functools
import hashlib

import pytest

from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
)
from survtree.engine.common import labels_of_payload, tree_of_payload
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
        "bb81d616a64cb4aff3bc0bb79fc6ffb0c6efaaadfb732a5f6b1107c797a95128",
    ),
    "surviving-d8": (
        lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4),
        "345af49ae9fa78652afedd2bf24f5ae06ef866ec256294eb07a56a5bc2dcd95e",
    ),
    "traceable-d8": (
        lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
        "7364a60a9400ba4695d326312dee183a3be4d25fd31037f12a4aacd19517032c",
    ),
    "traceable-d6": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        "3c47beaecff9e0f72e54cbdfa0f79abe883147d056f27211a8147f1821705881",
    ),
    "accelerating-d6": (
        lambda: accelerating_force(LIB, 6, 6, 4000),
        "93723c698ca5d5013bb0f0c30cdf954b3a53dfb09e32df63d37cb3f863c3b340",
    ),
    "accelerating-d8": (
        lambda: accelerating_force(LIB, 8, 8, 10**4),
        "367855fd85cad4718e316381d66575868df707a5d4aa35cdb45df8dfa6c851fa",
    ),
    "surviving-d8-entry-mod-4": (
        lambda: diagonalize_surviving(2, MOD4, 14, 8, 10**4),
        "6cd803f76d5046030b88b67a6c5485e14e51fd569f2ad126e994b9754d153e01",
    ),
    "surviving-d8-constant-3": (
        lambda: diagonalize_surviving(2, CONST3, 14, 8, 10**4),
        "94c8bba4582af804440c4e4f69854cce2ac41a242f86d0b291b0bf18b3c44838",
    ),
    "surviving-d8-comb-r1": (
        lambda: diagonalize_surviving(2, COMB_R1, 14, 8, 10**4),
        "a544641ed28aa802e18df28b9f4eb03c221b32c06c7e83fcc335ca1dfab2637a",
    ),
    "surviving-k3-d6": (
        lambda: diagonalize_surviving(3, LIB, 10, 6, 10**4),
        "a8eb84c29e4a6abb8bac4e068e7d3d71112c95dfbd5f6c461a4b4c837defe005",
    ),
    "build3-d12": (
        lambda: build3_record(LIB, 12, 36),
        "ff2bdc2984bd3c53221e669e9f73835aa347fe751c4ff069852606ce5f0618c1",
    ),
    "build3-d8": (
        lambda: build3_record(LIB, 8, 24),
        "de4f1af66e50ad2a4319c649b8d5e0ece969f94d1bcb95678f71a4a4d7044b5f",
    ),
    "build3-d16": (
        lambda: build3_record(LIB, 16, 48),
        "ac48cc3cdf1a4ccbd60c4d95c225f765fd80688a5f54bb469a78d000d9bd3a80",
    ),
}


# the fuel_spent of each functional stage, in stage order
FUEL_SPENT = {
    "surviving-d6": [6378, 6378, 1458, 486],
    "surviving-d8": [77091, 77091, 17496, 5832],
    "traceable-d6": [81, 27],
    "traceable-d8": [152, 44],
    "accelerating-d6": [6, 465, 6],
    "accelerating-d8": [8, 1427, 8, 12],
    "surviving-d8-entry-mod-4": [77091, 77091],
    "surviving-d8-constant-3": [52488, 52488],
    "surviving-d8-comb-r1": [77091, 25695, 5832, 1944],
    "surviving-k3-d6": [8076, 1536, 24, 24],
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
    traces = []
    for t in payload["traces"]:
        table = json_to_trace(t)
        traces.append({
            "functional": t["functional"],
            "bound": [table.bound.kind, table.bound.base],
            "depth": table.depth,
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
    "accelerating-d6": (
        "46ba979bdd944c7a59f7c8cbc36232272b9563d03fd3699085880a8595843d3f"
    ),
    "accelerating-d8": (
        "211178ffdc6908266144ec68ba5a67ac906fe34966750dd2f86d02abf65e93f5"
    ),
    "build3-d12": (
        "dace0d1dbbecf80d5527249ef725dfd666372fdcee0084ddc6c05d61489f4d57"
    ),
    "build3-d16": (
        "de7ac18f76c1f532642ec17622f2c3e3933073f949741faf4b496d8911893bdb"
    ),
    "build3-d8": (
        "925c060d94191a59b082db43e5fab71da9d1f9edbda41dbe31d802e97949eb8b"
    ),
    "surviving-d6": (
        "96295c1bbd581c85d1356809032fdada654da36c111a1dd1b1804757c52a1546"
    ),
    "surviving-d8": (
        "02cba0fb6b89187f4a4adacd19f71f9504673567a8ebd8a207642f7e7e2ef297"
    ),
    "surviving-d8-comb-r1": (
        "fb93c9bd304d9e16067ebbb6ca29d67203aeb61661f826b538cd6fad524c3f34"
    ),
    "surviving-d8-constant-3": (
        "688867f3acb63118f6fc80f142a5048352a9c6902abed27522869553dda5e5d2"
    ),
    "surviving-d8-entry-mod-4": (
        "96ecc7333d505f46da2915e73b4b9661231bfd65e943fdd446b3252f2339970f"
    ),
    "surviving-k3-d6": (
        "94a9041b69d41b3469c10ac80f12aec5e295934c04d9c5136af351dc502d0e9d"
    ),
    "traceable-d6": (
        "e539d1de0dd02999b3959c9a142362f317c1f23b69e504708bc63d34ed6c32f2"
    ),
    "traceable-d8": (
        "e3bf563d0ba8ae6813b27545a95f11b2b8214100cb88f62ee1425492b01ad936"
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

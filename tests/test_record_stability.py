"""Run records pinned byte for byte, apart from stage-log fuel_spent,
and their stage-log fuel_spent values pinned on their own.

Each hash is the sha256 of ``canonical_json`` of a payload with its
``digest`` and every stage-log ``fuel_spent`` removed.  The surviving,
traceable-d8 and accelerating-d8 hashes were taken before the engines
moved to per-stage output tables, which changed only what ``fuel_spent``
counts; the build3-d12 and build3-d16 hashes and the traceable base
condition's were taken while the 3-tree growth loop still re-probed every
node at every stage; the traceable-d6, accelerating-d6 and build3-d8
hashes and fuel_spent lists were taken before the engines shared one
tree-requirement stage; the surviving-d8-comb-r1 hash and fuel_spent list
were taken before the surviving engine folded cases A and B into one pass
and built its trees from sorted levels.  The other fuel_spent lists were taken with the
output tables in place; a change to the set of (node, position) pairs a
stage evaluates shows up there and nowhere else in the record.
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
        "4ebcfd71bffb651ce5e2bc817f6a4e6764852a01654555d52863b9a3a1b60d6d",
    ),
    "surviving-d8": (
        lambda: diagonalize_surviving(2, LIB, 14, 8, 10**4),
        "62870b405757378fa5bb590a0ec5772753e51d4624f8d443e01b78788deebdd4",
    ),
    "traceable-d8": (
        lambda: traceable_prune(initial_condition(LIB, 8, 24), LIB, 4, 8, 10**4),
        "fe575d9756076419db5385e59200d033435e17579954e6b1d97b5d9c2fcf12a0",
    ),
    "traceable-d6": (
        lambda: traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        "1dd1c8346301ec86988a55f85c77fa40640cb678a2254343259f6c2a760b92ee",
    ),
    "accelerating-d6": (
        lambda: accelerating_force(LIB, 6, 6, 4000),
        "b78f9f5aadc5ab1d106d343a72e2b2ad80a2d98e8f654b2bcfa57fbb90a9e324",
    ),
    "accelerating-d8": (
        lambda: accelerating_force(LIB, 8, 8, 10**4),
        "b0bc7d42fde2ce7ee665c1b7db1e688a87e00c1004eed7c7d09ea6878910e269",
    ),
    "surviving-d8-entry-mod-4": (
        lambda: diagonalize_surviving(2, MOD4, 14, 8, 10**4),
        "f683503ff3d0a749f5266e08caebfe5447575cc03d5763577fd45f47eea66924",
    ),
    "surviving-d8-constant-3": (
        lambda: diagonalize_surviving(2, CONST3, 14, 8, 10**4),
        "5f4580dde3516e3b8707c3c1409e7eb7d0f1aa3032a714daedc4e120d8563dd4",
    ),
    "surviving-d8-comb-r1": (
        lambda: diagonalize_surviving(2, COMB_R1, 14, 8, 10**4),
        "ffda1db531def1db75242c3cbbb22318d245af08d55030e87cc786fd6d6e93f9",
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

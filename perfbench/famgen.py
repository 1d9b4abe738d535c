"""Seeded adversary-family configs for the benchmark.

Every config uses only the documented kinds and keys of
``survtree.staged.family_from_config``: staged trees ``full_subtree``
(``alphabet``), ``full_subtree_plus`` (``alphabet``, ``extra``) and ``comb``
(``entry``), each with ``id``, ``kind``, ``claim`` and optional ``delay``;
functionals ``identity``, ``entry_mod`` (``modulus``), ``constant``
(``value``) and ``diverging``.

The seed picks every parameter, but each family follows one template so
that the cost of a run varies little from seed to seed and every family
reaches cases A, B and C of the surviving engine at k = 2:

- staged tree 0 is "wide" (three In children at the root), so the first
  avoidance stage is vacuous and the first functional stage works on the
  full tree, as with the standard family;
- staged tree 1 is "narrow" (at most two letters), so the second avoidance
  stage exits or finds the stem already out;
- staged trees 2..6 are any kind;
- functionals are, in order, identity-like (identity or ``entry_mod`` with
  modulus >= 3, both injective on {0, 1, 2}: case C), ``entry_mod`` with
  modulus >= 3 (case C), ``constant`` (case B) and ``diverging`` (case A).

Modulus 3 is not drawn but placed by family index: functional 0 has it in
families 0, 5, 10, ..., functional 1 in families 1, 6, 11, ..., both in
families 2, 22, 42, ... and no functional in the others.  An accelerating
record is about 13 nodes without it, 136 or 345 with it in one functional,
and ends incomplete with it in both, so leaving it to chance made the cost
of a set of families swing from seed to seed.
"""

from __future__ import annotations

import random

STAGED_TREES = 7
LETTERS = 6  # alphabets are drawn from 0..LETTERS-1


def _alphabet(r: random.Random, size: int) -> list[int]:
    return sorted(r.sample(range(LETTERS), size))


def _wide_tree(r: random.Random) -> dict:
    if r.random() < 0.5:
        return {"kind": "full_subtree", "alphabet": _alphabet(r, 3),
                "claim": ["branching", 3]}
    alphabet = _alphabet(r, 2)
    extra = r.choice([x for x in range(LETTERS) if x not in alphabet])
    return {"kind": "full_subtree_plus", "alphabet": alphabet,
            "extra": [[extra]], "claim": ["branching", 2]}


def _narrow_tree(r: random.Random) -> dict:
    if r.random() < 0.5:
        return {"kind": "comb", "entry": r.randrange(3), "claim": ["tree", 1]}
    return {"kind": "full_subtree", "alphabet": _alphabet(r, 2),
            "claim": ["branching", 2]}


def _any_tree(r: random.Random) -> dict:
    kind = r.choice(["full_subtree", "full_subtree_plus", "comb"])
    if kind == "comb":
        entry = {"kind": kind, "entry": r.randrange(3), "claim": ["tree", 1]}
    elif kind == "full_subtree":
        alphabet = _alphabet(r, r.choice([2, 3]))
        entry = {"kind": kind, "alphabet": alphabet,
                 "claim": ["branching", len(alphabet)]}
    else:
        entry = {"kind": kind, "alphabet": _alphabet(r, 2),
                 "extra": [[r.randrange(LETTERS)]], "claim": ["branching", 2]}
    if r.random() < 0.3:
        entry["delay"] = r.randrange(1, 8)
    return entry


def _injective_mod(r: random.Random, mod3: bool) -> dict:
    return {"kind": "entry_mod", "modulus": 3 if mod3 else r.randrange(4, 8)}


def family_config(seed: int, index: int) -> dict:
    """The index-th seeded family config for a workload seed."""
    r = random.Random(f"survtree-bench/{seed}/{index}")
    trees = [_wide_tree(r), _narrow_tree(r)]
    trees += [_any_tree(r) for _ in range(STAGED_TREES - 2)]
    first = {"kind": "identity"} if r.random() < 0.5 else _injective_mod(r, False)
    if index % 5 == 0 or index % 20 == 2:
        first = _injective_mod(r, True)
    functionals = [
        first,
        _injective_mod(r, index % 5 == 1 or index % 20 == 2),
        {"kind": "constant", "value": r.randrange(10)},
        {"kind": "diverging"},
    ]
    return {
        "staged_trees": [{"id": i, **t} for i, t in enumerate(trees)],
        "functionals": [{"id": i, **f} for i, f in enumerate(functionals)],
    }


def family_configs(seed: int, count: int) -> list[dict]:
    return [family_config(seed, i) for i in range(count)]

"""Exact minimum covers of b^d by k-branching subtrees."""

from __future__ import annotations

import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monotonicity_table
from survtree.cover import (
    SIZE_LIMIT,
    CoverWitness,
    SizeGuard,
    min_cover,
    verify_cover,
)
from survtree.trees import FiniteTree, Word


def _need(uncovered: int, b: int, k: int, d: int) -> int:
    """Lower bound on the trees covering ``uncovered``: need(root), where a
    leaf needs 1 if uncovered, else 0, and need(v) = max(max_c need(c),
    ceil(sum_c need(c) / k)), as every k-branching tree through v passes
    through at most k of v's children."""
    level = [int(bit) for bit in reversed(format(uncovered, f"0{b ** d}b"))]
    for _ in range(d):
        level = [
            max(max(group), -(-sum(group) // k))
            for group in (level[i:i + b] for i in range(0, len(level), b))
        ]
    return level[0]


def _reference_min_cover(b: int, k: int, d: int) -> int:
    """The earlier exhaustive search: leaf-set lists and a counting bound."""

    def leafsets_through(leaf: Word) -> list[frozenset[Word]]:
        results: list[frozenset[Word]] = []

        def extend(level_nodes: list[Word], depth: int) -> None:
            if depth == d:
                results.append(frozenset(level_nodes))
                return
            choices_per_node = []
            for node in level_nodes:
                if leaf[:depth] == node:
                    forced = leaf[depth]
                    rests = itertools.combinations(
                        [i for i in range(b) if i != forced], k - 1
                    )
                    choices_per_node.append([(forced,) + r for r in rests])
                else:
                    choices_per_node.append(list(itertools.combinations(range(b), k)))
            for combo in itertools.product(*choices_per_node):
                nxt = [
                    node + (i,)
                    for node, chosen in zip(level_nodes, combo)
                    for i in chosen
                ]
                extend(nxt, depth + 1)

        extend([()], 0)
        return results

    all_leaves = frozenset(itertools.product(range(b), repeat=d))
    best: list[frozenset[Word]] = []

    def search(covered: frozenset[Word], chosen: list[frozenset[Word]]) -> None:
        nonlocal best
        uncovered = all_leaves - covered
        if not uncovered:
            if not best or len(chosen) < len(best):
                best = list(chosen)
            return
        if best and len(chosen) + math.ceil(len(uncovered) / k**d) >= len(best):
            return
        seen_gain: set[frozenset[Word]] = set()
        options = []
        for ls in leafsets_through(min(uncovered)):
            gain = ls - covered
            if gain not in seen_gain:
                seen_gain.add(gain)
                options.append((len(gain), ls))
        options.sort(key=lambda p: (-p[0], sorted(p[1])))
        for _, ls in options:
            chosen.append(ls)
            search(covered | ls, chosen)
            chosen.pop()

    search(frozenset(), [])
    return len(best)


def _tree_masks(b: int, k: int, d: int) -> list[int]:
    """Leaf masks of all fully k-splitting depth-d trees, by direct recursion."""
    if d == 0:
        return [1]
    below = _tree_masks(b, k, d - 1)
    width = b ** (d - 1)
    return [
        sum(m << c * width for c, m in zip(cs, ms))
        for cs in itertools.combinations(range(b), k)
        for ms in itertools.product(below, repeat=k)
    ]


def test_min_cover_3_2_1():
    value, witness = min_cover(3, 2, 1)
    assert value == 2
    assert verify_cover(witness) is None


def test_min_cover_3_2_2():
    value, witness = min_cover(3, 2, 2)
    assert value == 3
    assert verify_cover(witness) is None


@pytest.mark.parametrize("b", [3, 4, 5])
def test_min_cover_one_short_alphabet(b):
    # k = b-1: a single tree misses exactly one leaf, so two suffice
    value, _ = min_cover(b, b - 1, 1)
    assert value == 2


def test_counting_lower_bound():
    for b, k, d in [(3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 3, 2)]:
        value, _ = min_cover(b, k, d)
        assert value >= math.ceil(b**d / k**d)


def test_size_guard_refuses_large_instances():
    with pytest.raises(SizeGuard):
        min_cover(4, 2, 6)  # 4096 > 729


def test_verify_cover_detects_uncovered_word():
    _, witness = min_cover(3, 2, 1)
    broken = CoverWitness(
        witness.trees[:1], witness.covered, witness.parameters
    )
    defect = verify_cover(broken)
    assert defect is not None and "uncovered" in defect


def test_verify_cover_detects_wide_tree():
    _, witness = min_cover(3, 2, 1)
    wide = FiniteTree.full(3, 1)
    broken = CoverWitness(
        (wide,) + witness.trees[1:], witness.covered, witness.parameters
    )
    defect = verify_cover(broken)
    assert defect is not None and "children" in defect


def test_monotonicity_4_rows():
    rows = monotonicity_table(4, 1, range(2, 4))
    assert rows == [(2, 2), (3, 2)]


def test_monotonicity_3_2():
    assert monotonicity_table(3, 2, range(2, 3)) == [(2, 3)]


@pytest.mark.parametrize(
    "b,k,d,value",
    [(4, 2, 3, 8), (5, 2, 2, 8), (3, 2, 3, 5), (5, 3, 2, 4), (5, 4, 2, 3)]
    + [(4, 3, 3, 4), (9, 4, 2, 7), (3, 2, 4, 8), (5, 2, 3, 20), (6, 2, 3, 27)]
    + [(6, 3, 3, 8), (13, 7, 2, 4), (7, 2, 3, 49)],
)
def test_min_cover_values_meet_the_need_bound(b, k, d, value):
    # the verified witness bounds the minimum from above, the need bound of
    # the full leaf set from below
    found, witness = min_cover(b, k, d)
    assert found == value == len(witness.trees)
    assert verify_cover(witness) is None
    assert _need((1 << b**d) - 1, b, k, d) == value


IN_GUARD = [
    (b, k, d)
    for b in range(3, 10)
    for d in range(1, 7)
    if b**d <= SIZE_LIMIT
    for k in range(2, b)
]


def test_min_cover_meets_the_need_bound_on_every_small_in_guard_triple():
    assert len(IN_GUARD) == 92
    for b, k, d in IN_GUARD:
        value, witness = min_cover(b, k, d)
        assert value == _need((1 << b**d) - 1, b, k, d), (b, k, d)
        assert verify_cover(witness) is None, (b, k, d)


def test_min_cover_5_3_2_deals_the_child_uses():
    # n_1 = ceil(5/3) = 2 and n_2 = ceil(5*2/3) = 4.  At the root each child
    # starts at n_1 = 2 uses, and the k*n_2 - b*n_1 = 2 spare uses go to
    # child 0 (capped at n_2 = 4); each tree takes exactly k = 3 children
    value, witness = min_cover(5, 3, 2)
    assert value == 4
    uses = [sum((c,) in t for t in witness.trees) for c in range(5)]
    assert uses == [4, 2, 2, 2, 2]
    assert all(len(t.level(1)) == 3 for t in witness.trees)
    # child 1's two uses take both trees of its height-1 cover, whose own
    # child uses [2, 1, 1, 1, 1] are dealt to its trees 0, 1, 0, 1, 0, 1
    below = {
        frozenset(L[1] for L in t.level(2) if L[0] == 1) for t in witness.trees if (1,) in t
    }
    assert below == {frozenset({0, 1, 3}), frozenset({0, 2, 4})}


@pytest.mark.parametrize(
    "b,k,d",
    [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 2)]
    + [(5, k, 1) for k in range(2, 6)],
)
def test_min_cover_agrees_with_reference_search(b, k, d):
    assert min_cover(b, k, d)[0] == _reference_min_cover(b, k, d)


TREES_3_2_2 = _tree_masks(3, 2, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**9 - 1))
def test_need_bound_never_exceeds_brute_force_cover(uncovered):
    assert len(TREES_3_2_2) == 27
    need = _need(uncovered, 3, 2, 2)
    size = next(
        m
        for m in itertools.count(1)
        if any(
            uncovered & ~functools.reduce(operator.or_, ts) == 0
            for ts in itertools.combinations(TREES_3_2_2, m)
        )
    )
    assert need <= size


def test_k_outside_2_to_b_is_rejected():
    for k in (0, 1, 4):
        with pytest.raises(ValueError):
            min_cover(3, k, 2)


def test_min_cover_matches_brute_force_3_2_1():
    # independent exhaustive check: no single 2-branching subtree of
    # 3^{<=1} covers all three leaves
    leaf_sets = [frozenset({(i,)}) for i in range(3)] + [
        frozenset({(i,), (j,)})
        for i, j in itertools.combinations(range(3), 2)
    ]
    assert not any(len(s) == 3 for s in leaf_sets)
    assert any(
        len(a | b) == 3 for a, b in itertools.combinations(leaf_sets, 2)
    )


def test_witness_parameters_and_union():
    value, witness = min_cover(4, 2, 1)
    assert witness.parameters == (4, 2, 1)
    assert witness.covered == frozenset((i,) for i in range(4))
    assert len(witness.trees) == value

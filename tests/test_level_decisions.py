"""Functional stages decided a level at a time against the per-node path.

On a tree full above the stem, a functional with a letter map has its case
A/B fold decided in closed form, and case C's own rows answered from the
map.  Over a grid of every configured kind, alphabet, k, depth, stem and
fuel, both must return, read and count what the same functional with its
letter map stripped returns, reads and counts node by node; and so must
trees that are not full, which take the per-node fold."""

from __future__ import annotations

from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_map
from survtree.engine.common import OutputTable
from survtree.engine.surviving import _case_c
from survtree.staged import OracleFunctional, functional_from_config
from survtree.trees import FiniteTree, subtree_above

KINDS = [
    {"kind": "identity"},
    *({"kind": "entry_mod", "modulus": m} for m in range(1, 8)),
    # a constant fixes one letter at most: the first, each alphabet's last,
    # or none
    *({"kind": "constant", "value": c} for c in (0, 1, 2, 3, 5)),
    {"kind": "diverging"},
]
KS = [None, 1, 2, 3]


def _stripped(fn: OracleFunctional) -> OracleFunctional:
    """fn with the same prefix and row form and no letter map."""

    def prefix(sigma, cap, fuel):
        return fn.prefix(sigma, cap, fuel)

    prefix.row = fn.prefix.row
    return OracleFunctional(fn.id, fn.kind, prefix)


def _stems(tree: FiniteTree) -> list:
    """The first, middle and last node of each level, the depth's included."""
    return [w for lv in tree.levels() for w in dict.fromkeys([lv[0], lv[len(lv) // 2], lv[-1]])]


def _state(table: OutputTable) -> tuple:
    return table.evals, table._slots, table._converged


@pytest.mark.parametrize("b, depth", list(product([2, 3, 4], range(7))))
def test_level_decisions_equal_the_per_node_path(monkeypatch, b, depth):
    by_level = []
    decide = OutputTable._cases_by_level

    def spied(self, *args):
        by_level.append(args[0])
        return decide(self, *args)

    monkeypatch.setattr(OutputTable, "_cases_by_level", spied)
    full = FiniteTree.full(b, depth)
    fns = [functional_from_config(entry, 0) for entry in KINDS]
    cases = 0
    for stem in _stems(full):
        tree = subtree_above(full, stem)
        for fn, k, fuel in product(fns, KS, [0, 1, 2, depth, 10**4]):
            fast, slow = OutputTable(fn, fuel, depth), OutputTable(_stripped(fn), fuel, depth)
            assert fast.cases_a_b(stem, tree, k) == slow.cases_a_b(stem, tree, k), (fn, k, fuel)
            assert _state(fast) == _state(slow)
            if k is not None:
                # the engine's case C, on the table of its cases A and B
                assert _case_c(fast, k, stem, tree) == _case_c(slow, k, stem, tree), (fn, k, fuel)
                assert _state(fast) == _state(slow)
            cases += 1
    # every case took the per-level path, and only the functional with a map
    assert len(by_level) == cases == len(_stems(full)) * len(fns) * len(KS) * 5


@st.composite
def stage_trees(draw):
    """A full tree with up to two subtrees cut off, which leaves the nodes
    below a cut with fewer children and may leave a leaf above the depth,
    and a node of it."""
    full = FiniteTree.full(draw(st.integers(2, 3)), draw(st.integers(0, 4)))
    nodes = full.sorted_nodes()
    cuts = draw(st.sets(st.sampled_from(nodes[1:]), max_size=2)) if len(nodes) > 1 else set()
    kept = [w for w in nodes if not any(w[:len(c)] == c for c in cuts)]
    return FiniteTree(frozenset(kept), full.alphabet_bound), draw(st.sampled_from(kept))


def _full_above(tree: FiniteTree, stem) -> bool:
    """Every node above the stem and below the depth has b children, read
    off the node set."""
    cm = child_map(tree)
    above = [w for w in tree.nodes if w[:len(stem)] == stem and len(w) < tree.depth]
    return all(len(cm[w]) == tree.alphabet_bound for w in above)


@settings(max_examples=400, deadline=None)
@given(
    stage_trees(), st.sampled_from(KINDS), st.sampled_from(KS),
    st.sampled_from([0, 1, 2, 3, 10**4]),
)
def test_trees_not_full_take_the_per_node_fold(case, entry, k, fuel):
    tree, stem = case
    fn = functional_from_config(entry, 0)
    fast, slow = OutputTable(fn, fuel, tree.depth), OutputTable(_stripped(fn), fuel, tree.depth)
    decide = OutputTable._cases_by_level
    with mock.patch.object(OutputTable, "_cases_by_level", autospec=True, side_effect=decide) as by:
        assert fast.cases_a_b(stem, tree, k) == slow.cases_a_b(stem, tree, k)
    assert by.call_count == _full_above(tree, stem)
    assert _state(fast) == _state(slow)
    if k is not None:
        assert _case_c(fast, k, stem, tree) == _case_c(slow, k, stem, tree)
        assert _state(fast) == _state(slow)

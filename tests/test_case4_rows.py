"""The accelerating engine's case 4 on rows: each split's candidates read in
one row and tested column by column, and the tree built from its own rows,
against copies of the node-by-node loop and the prefix-closure build."""

from __future__ import annotations

from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_nodes
from survtree.engine.accelerating import _case4, _prune_split, _suffixes
from survtree.engine.common import OutputTable
from survtree.staged import OracleFunctional, functional_from_config
from survtree.trees import FiniteTree, Word, prefixes, word_key

closed_form_entries = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, st.integers(1, 4)),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 2)),
    st.just({"kind": "diverging"}),
)


@st.composite
def noisy_functionals(draw, sigma: Word, rounds: int):
    """A use-monotone prefix whose position i on a word w is w[i] under a
    drawn affine map mod a drawn modulus, or, at a few drawn candidate
    prefixes w[:i + 1] past sigma, a drawn value or None, or None where a
    salted hash of w[:i + 1] hits a drawn rate: candidates then agree,
    disagree and stop short, at every split level, in ways no closed form
    does."""
    maps = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(2, 4)),
        min_size=16, max_size=16,
    ))
    keys = [sigma + x[:n] for x in _suffixes(rounds) for n in range(1, rounds + 1)]
    noise = draw(st.dictionaries(
        st.sampled_from(keys), st.one_of(st.none(), st.integers(0, 3)), max_size=6,
    ))
    salt, rate = draw(st.integers(0, 1 << 16)), draw(st.sampled_from([0, 7, 30, 100]))

    def prefix(w, cap, fuel):
        out = []
        for i in range(max(0, min(len(w), cap, fuel))):
            a, b, m = maps[i]
            v = noise.get(w[:i + 1], (a * w[i] + b) % m)
            if v is None or rate and (hash(w[:i + 1]) ^ salt) % rate == 0:
                break
            out.append(v)
        return tuple(out)

    return OracleFunctional(0, "noisy", prefix)


def _digits(j: int, count: int) -> Word:
    return tuple((j // 3 ** t) % 3 for t in range(1, count + 1))


def _reference_prune_split(
    table: OutputTable, sigma: Word, rounds: int
) -> tuple[Optional[list[Word]], list[int]]:
    """Case 4's split as first written: each candidate read through
    ``converged``, each round's position found by rescanning the live
    candidates' lengths and values one position at a time."""
    n_cand = 3 ** rounds
    cands = {j: sigma + (j,) + _digits(j, rounds - 1) for j in range(n_cand)}
    outs = {j: table.converged(w) for j, w in cands.items()}
    alive = sorted(cands)
    reps: list[int] = []
    positions: list[int] = []
    m = -1
    for _ in range(rounds):
        found = None
        probe = m + 1
        while found is None:
            if any(len(outs[j]) <= probe for j in alive):
                return None, positions
            values = {outs[j][probe] for j in alive}
            if len(values) > 1:
                found = probe
            probe += 1
        m = found
        counts: dict[int, int] = {}
        for j in alive:
            counts[outs[j][m]] = counts.get(outs[j][m], 0) + 1
        best = max(counts.values())
        majority = min(v for v, c in counts.items() if c == best)
        rep = next(j for j in alive if outs[j][m] != majority)
        reps.append(rep)
        positions.append(m)
        alive = [j for j in alive if outs[j][m] == majority]
    kept = sorted({*reps, alive[0]})
    return [cands[j] for j in kept], positions


def _reference_case4(table: OutputTable, stem: Word, depth: int):
    """Case 4 as first written: the split nodes pruned one by one, the
    tree the prefix closure of the stem, the kept words and the padded
    final split nodes."""
    split_nodes = [stem]
    all_nodes: set[Word] = set(prefixes(stem))
    log_levels = []
    shortage = None
    level = 0
    while True:
        rounds = level + 2
        if len(split_nodes[0]) + rounds > depth:
            shortage = {"level": level, "need": rounds, "room": depth - len(split_nodes[0])}
            break
        next_nodes = []
        failed = False
        for sigma in split_nodes:
            kept, positions = _reference_prune_split(table, sigma, rounds)
            if kept is None:
                failed = True
                break
            next_nodes.extend(kept)
            log_levels.append(
                {"split": list(sigma), "kept": [list(w) for w in kept], "positions": positions}
            )
        if failed:
            if level == 0:
                return None, {"case": "no-disagreement"}
            shortage = {"level": level, "reason": "no disagreement"}
            break
        for w in next_nodes:
            all_nodes.update(prefixes(w))
        split_nodes = sorted(next_nodes, key=word_key)
        level += 1
    for w in split_nodes:
        all_nodes.update(prefixes(w + (0,) * (depth - len(w))))
    tree = FiniteTree.from_words(all_nodes)
    log = {"case": "4", "levels": log_levels}
    if shortage is not None:
        log["shortage"] = shortage
    return tree, log


def _tables(fn: OracleFunctional, fuel: int, depth: int) -> tuple[OutputTable, OutputTable]:
    return OutputTable(fn, fuel, depth), OutputTable(fn, fuel, depth)


@st.composite
def split_cases(draw):
    """A split node, its rounds, a depth with room for them, a fuel and a
    closed-form or noisy functional."""
    sigma = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    rounds = draw(st.integers(1, 4))
    depth = len(sigma) + rounds + draw(st.integers(0, 2))
    fuel = draw(st.integers(0, depth + 1))
    fn = draw(st.one_of(
        closed_form_entries.map(lambda e: functional_from_config(e, 0)),
        noisy_functionals(sigma, rounds),
    ))
    return sigma, rounds, depth, fuel, fn


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_column_split_matches_the_position_loop(case):
    """The row read and the column scan keep the same words at the same
    positions, and read the same nodes, as the loop."""
    sigma, rounds, depth, fuel, fn = case
    table, ref = _tables(fn, fuel, depth)
    assert _prune_split(table, sigma, _suffixes(rounds)) == _reference_prune_split(ref, sigma, rounds)
    assert read_nodes(table) == read_nodes(ref)


@st.composite
def case4_inputs(draw):
    stem = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    depth = len(stem) + draw(st.integers(0, 9))
    fuel = draw(st.one_of(st.integers(0, depth + 1), st.just(10**4)))
    fn = draw(st.one_of(
        closed_form_entries.map(lambda e: functional_from_config(e, 0)),
        noisy_functionals(stem, 2),
    ))
    return stem, depth, fuel, fn


@settings(max_examples=150, deadline=None)
@given(case4_inputs())
# three split levels, then padding: the standard family's entry_mod 3 at d12
@example(((), 12, 10**4, functional_from_config({"kind": "entry_mod", "modulus": 3}, 1)))
# the first level splits, the second finds no disagreement on its first node
@example(((1,), 7, 3, functional_from_config({"kind": "identity"}, 0)))
def test_row_built_case4_matches_the_prefix_closure(case):
    """The tree from case 4's own rows has the nodes, sorted levels and
    child counts of the prefix closure ``from_words`` builds; the log and
    every read agree with the node-by-node case 4."""
    stem, depth, fuel, fn = case
    table, ref = _tables(fn, fuel, depth)
    tree, log = _case4(table, stem, depth)
    ref_tree, ref_log = _reference_case4(ref, stem, depth)
    assert log == ref_log
    if ref_tree is None:
        assert tree is None
    else:
        assert tree.nodes == ref_tree.nodes
        assert tree.depth == ref_tree.depth == depth
        assert tree.levels() == ref_tree.levels()
        assert tree.counts() == ref_tree.counts()
    assert read_nodes(table) == read_nodes(ref)


def test_case4_tree_levels_at_d12():
    """The standard family's entry_mod 3 at d12: three split levels of 3, 4
    and 5 successors from the root, then the 60 kept words padded."""
    fn = functional_from_config({"kind": "entry_mod", "modulus": 3}, 1)
    table = OutputTable(fn, 10**4, 12)
    tree, log = _case4(table, (), 12)
    assert log["shortage"] == {"level": 3, "need": 5, "room": 3}
    assert [len(lv) for lv in tree.levels()] == [1, 3, 3, 12, 12, 12] + [60] * 7
    assert tree.counts()[0] == [3]
    assert set(tree.counts()[2]) == {4} and set(tree.counts()[5]) == {5}
    assert tree.leaves() == sorted(
        (w for w in tree.nodes if len(w) == 12), key=word_key
    )
    assert all(w[9:] == (0, 0, 0) for w in tree.leaves())

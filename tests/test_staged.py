"""Staged membership oracles, fuel-bounded functionals, the pairing and
the standard adversary library."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LETTERS, pair_index, staged_tree_entries, unbounded_trees
from survtree.staged import (
    _BFS_DEPTH_CAP,
    _BFS_NODE_BUDGET,
    ConfigError,
    Verdict,
    family_from_config,
    functional_from_config,
    index_pair,
    looks_like_branching,
    probe_settled,
    shown_successors,
    staged_tree_from_config,
    standard_library,
    tree_bound_violation,
)
from survtree.trees import TriState

LIB = standard_library()
IDENTITY = LIB.functionals[0]
MOD3 = LIB.functionals[1]
DIVERGING = LIB.functionals[3]
FULL_TERNARY = LIB.staged_trees[0]
FULL_BINARY = LIB.staged_trees[2]
COMB_ZERO = LIB.staged_trees[4]
DELAYED = LIB.staged_trees[5]
DISHONEST = LIB.staged_trees[6]


# --- staged decisions -------------------------------------------------------


def test_freshness_large_entry_undecided():
    assert FULL_TERNARY.decide((7,), 5) is TriState.UNDECIDED


def test_freshness_long_word_undecided():
    assert FULL_BINARY.decide((0,) * 6, 6) is TriState.UNDECIDED


def test_decided_in_and_out():
    assert FULL_BINARY.decide((0, 1), 10) is TriState.IN
    assert FULL_BINARY.decide((2,), 10) is TriState.OUT


def test_delay_defers_all_decisions():
    assert DELAYED.decide((0,), 3) is TriState.UNDECIDED
    assert DELAYED.decide((0,), 10) is TriState.IN


def test_contract_probes():
    rng = random.Random(20260826)
    for t in LIB.staged_trees:
        for _ in range(400):
            w = tuple(rng.randrange(6) for _ in range(rng.randrange(5)))
            s = rng.randrange(1, 12)
            d = t.decide(w, s)
            if d is not TriState.UNDECIDED:
                # monotone
                assert t.decide(w, s + 10) is d
                # prefix-consistent
                if d is TriState.IN:
                    for i in range(len(w)):
                        assert t.decide(w[:i], s) is TriState.IN
            # freshness
            if w and (max(w) >= s or len(w) >= s):
                assert d is TriState.UNDECIDED


# --- looks_like_branching ---------------------------------------------------


def test_dishonest_claimant_detected():
    # root decided to have three In-children while claiming to branch by two
    assert looks_like_branching(DISHONEST, 2, (), 8) is Verdict.NO


def test_fresh_root_undecided():
    assert looks_like_branching(FULL_BINARY, 2, (), 0) is Verdict.UNDECIDED


def test_honest_binary_claimant_yes():
    assert looks_like_branching(FULL_BINARY, 2, (), 6) is Verdict.YES


def test_never_yes_and_no_and_no_downgrade():
    for t, k in ((FULL_TERNARY, 3), (FULL_BINARY, 2), (COMB_ZERO, 3)):
        seen_yes = False
        for stage in range(0, 12):
            v = looks_like_branching(t, k, (), stage)
            if seen_yes:
                assert v is Verdict.YES
            seen_yes = seen_yes or v is Verdict.YES


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        staged_tree_entries().map(lambda e: staged_tree_from_config(e, 0)),
        unbounded_trees(),
    ),
    st.lists(st.integers(0, LETTERS), max_size=3).map(tuple),
    st.integers(1, 4),
)
# a violation exactly _BFS_DEPTH_CAP levels below the root: the walk sees it
# only once the words of that length are decided
@example(
    staged_tree_from_config(
        {"kind": "full_subtree_plus", "alphabet": [0, 1], "extra": [[0, 0, 0, 2]]}, 0
    ),
    (),
    2,
)
def test_settled_probe_answers_stay_fixed(t, root, k):
    settled_at = next((s for s in range(40) if probe_settled(t, root, s)), None)
    if settled_at is None:
        # only an unbounded tree keeps widening its horizon
        assert t.alphabet_bound is None
        return
    verdict = looks_like_branching(t, k, root, settled_at)
    shown = shown_successors(t, root, settled_at)
    for later in range(settled_at, settled_at + 21):
        assert probe_settled(t, root, later)
        assert looks_like_branching(t, k, root, later) is verdict
        assert shown_successors(t, root, later) == shown


def test_tree_bound_violation_on_wide_tree():
    bad = tree_bound_violation(FULL_TERNARY, 2, 8)
    assert bad is not None
    assert len(FULL_TERNARY.decide(bad, 8).name) > 0  # witness is a word
    assert tree_bound_violation(FULL_BINARY, 2, 8) is None


class _CountingTree:
    """The parts of a staged tree the probes read, counting decide calls."""

    def __init__(self, t):
        self.t = t
        self.alphabet_bound = t.alphabet_bound
        self.calls = 0

    def decide(self, w, stage):
        self.calls += 1
        return self.t.decide(w, stage)


def _reference_looks_like_branching(t, k, root, stage):
    """looks_like_branching with its own copy of the breadth-first walk."""
    r = t.decide(root, stage)
    if r is TriState.OUT:
        return Verdict.NO
    if r is TriState.UNDECIDED:
        return Verdict.UNDECIDED
    horizon = stage if t.alphabet_bound is None else min(stage, t.alphabet_bound)
    horizon = min(horizon, _BFS_NODE_BUDGET)
    frontier = [root]
    seen = 0
    while frontier and seen < _BFS_NODE_BUDGET:
        w = frontier.pop(0)
        seen += 1
        if len(w) - len(root) >= _BFS_DEPTH_CAP:
            continue
        in_children = []
        all_decided = True
        for i in range(horizon):
            d = t.decide(w + (i,), stage)
            if d is TriState.IN:
                in_children.append(i)
            elif d is TriState.UNDECIDED:
                all_decided = False
        if len(in_children) > k:
            return Verdict.NO
        if all_decided and t.alphabet_bound is not None and horizon >= t.alphabet_bound:
            if len(in_children) not in (1, k):
                return Verdict.NO
        frontier.extend(w + (i,) for i in in_children)
    return Verdict.YES


def _reference_tree_bound_violation(t, k, stage):
    """tree_bound_violation with its own copy of the breadth-first walk."""
    horizon = stage if t.alphabet_bound is None else min(stage, t.alphabet_bound)
    horizon = min(horizon, _BFS_NODE_BUDGET)
    if t.decide((), stage) is not TriState.IN:
        return None
    frontier = [()]
    seen = 0
    while frontier and seen < _BFS_NODE_BUDGET:
        w = frontier.pop(0)
        seen += 1
        if len(w) >= _BFS_DEPTH_CAP:
            continue
        in_children = [
            i for i in range(horizon) if t.decide(w + (i,), stage) is TriState.IN
        ]
        if len(in_children) > k:
            return w
        frontier.extend(w + (i,) for i in in_children)
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        staged_tree_entries().map(lambda e: staged_tree_from_config(e, 0)),
        unbounded_trees(),
    ),
    st.lists(st.integers(0, LETTERS), max_size=3).map(tuple),
    st.integers(0, 40),
    st.integers(1, 4),
)
# every node has 8 children, so at k = 8 neither probe stops before the
# walk has visited _BFS_NODE_BUDGET nodes
@example(
    staged_tree_from_config({"kind": "full_subtree", "alphabet": list(range(8))}, 0),
    (),
    9,
    8,
)
def test_probes_match_their_own_walks(t, root, stage, k):
    ref, new = _CountingTree(t), _CountingTree(t)
    assert looks_like_branching(new, k, root, stage) is (
        _reference_looks_like_branching(ref, k, root, stage)
    )
    assert new.calls == ref.calls
    ref, new = _CountingTree(t), _CountingTree(t)
    assert tree_bound_violation(new, k, stage) == (
        _reference_tree_bound_violation(ref, k, stage)
    )
    assert new.calls == ref.calls


def _reference_member(entry: dict):
    """A configured staged tree's membership as first written: a generator
    over the word's entries."""
    if entry["kind"] == "comb":
        e = entry.get("entry", 0)
        return lambda w: all(x == e for x in w)
    alphabet = frozenset(entry["alphabet"])
    extra = frozenset(map(tuple, entry.get("extra", [])))
    return lambda w: all(x in alphabet for x in w) or w in extra


def _reference_decide(t, member, w, stage) -> TriState:
    """``StagedTree.decide`` as first written, freshness tested entry by entry."""
    if stage < t.delay:
        return TriState.UNDECIDED
    if len(w) >= stage or any(e >= stage for e in w):
        return TriState.UNDECIDED
    return TriState.IN if member(w) else TriState.OUT


@settings(max_examples=400, deadline=None)
@given(
    staged_tree_entries(),
    st.lists(st.integers(0, 10), max_size=6).map(tuple),
    st.integers(0, 10),
)
# an entry at the stage, and one past it, in a word shorter than the stage
@example({"kind": "full_subtree", "alphabet": [0, 4], "delay": 0}, (0, 4), 4)
@example({"kind": "comb", "entry": 2, "delay": 0}, (2, 2, 9), 5)
# a member decided only once the delay has passed
@example({"kind": "comb", "entry": 0, "delay": 3}, (0,), 2)
def test_decide_matches_the_entrywise_decide(entry, w, stage):
    t = staged_tree_from_config(entry, 0)
    assert t.decide(w, stage) is _reference_decide(t, _reference_member(entry), w, stage)


# --- functionals ------------------------------------------------------------


def test_converged_prefix_stops_at_first_gap():
    assert IDENTITY.prefix((4, 4), 5, 100) == (4, 4)
    assert DIVERGING.prefix((4, 4), 5, 100) == ()


# the configured kinds written out position by position
_REFERENCE_RULES = {
    "identity": lambda e: lambda sigma, n, fuel: (
        sigma[n] if fuel > n and n < len(sigma) else None
    ),
    "entry_mod": lambda e: lambda sigma, n, fuel: (
        sigma[n] % e["modulus"] if fuel > n and n < len(sigma) else None
    ),
    "constant": lambda e: lambda sigma, n, fuel: e["value"] if fuel > n else None,
    "diverging": lambda e: lambda sigma, n, fuel: None,
}

functional_entries = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, st.integers(1, 5)),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 5)),
    st.just({"kind": "diverging"}),
)


@settings(max_examples=400, deadline=None)
@given(
    functional_entries,
    st.lists(st.integers(0, 9), max_size=8).map(tuple),
    st.integers(0, 12),
    st.integers(-2, 15),
)
def test_closed_form_prefix_matches_per_position_loop(entry, sigma, cap, fuel):
    fn = functional_from_config(entry, 0)
    reference = _REFERENCE_RULES[entry["kind"]](entry)
    # the prefix is the reference read position by position up to its
    # first None
    p = []
    while len(p) < cap and (v := reference(sigma, len(p), fuel)) is not None:
        p.append(v)
    assert fn.prefix(sigma, cap, fuel) == tuple(p)
    for n in range(cap + 2):
        assert fn.eval(sigma, n, fuel) == reference(sigma, n, fuel)
    # the contract: nothing converges after the first None
    first = len(fn.prefix(sigma, 20, fuel))
    assert all(fn.eval(sigma, n, fuel) is None for n in range(first, 20))


@settings(max_examples=400, deadline=None)
@given(
    functional_entries,
    st.lists(st.integers(0, 9), max_size=8).map(tuple),
    st.lists(st.integers(0, 9), max_size=4).map(tuple),
    st.integers(0, 12),
    st.integers(-2, 15),
)
def test_closed_form_prefix_is_use_monotone(entry, sigma, tail, cap, fuel):
    """The part of the prefix contract that case C's singleton pools rest
    on: extending the oracle keeps every converged position."""
    prefix = functional_from_config(entry, 0).prefix
    p = prefix(sigma, cap, fuel)
    assert prefix(sigma + tail, cap, fuel)[:len(p)] == p


def test_mod3_values_below_three():
    rng = random.Random(7)
    for _ in range(200):
        sigma = tuple(rng.randrange(9) for _ in range(rng.randrange(1, 6)))
        for n in range(len(sigma)):
            v = MOD3.eval(sigma, n, 100)
            assert v is not None and 0 <= v < 3


def test_functional_monotonicity_probes():
    rng = random.Random(99)
    probes = 0
    for t in LIB.functionals:
        while probes < 2600 * (t.id + 1):
            probes += 1
            sigma = tuple(rng.randrange(5) for _ in range(rng.randrange(6)))
            n = rng.randrange(5)
            fuel = rng.randrange(1, 20)
            v = t.eval(sigma, n, fuel)
            if v is None:
                continue
            # fuel-monotone
            assert t.eval(sigma, n, fuel + 13) == v
            # use-monotone
            tau = sigma + tuple(rng.randrange(5) for _ in range(2))
            assert t.eval(tau, n, fuel) == v
    assert probes >= 10**4


# --- pairing ----------------------------------------------------------------


def test_pairing_round_trip_first_hundred():
    for i in range(100):
        e, k = index_pair(i)
        assert k > 2
        assert pair_index(e, k) == i


def test_pairing_first_terms():
    assert [index_pair(i) for i in range(6)] == [
        (0, 3),
        (1, 3),
        (0, 4),
        (2, 3),
        (1, 4),
        (0, 5),
    ]


def test_pair_index_rejects_small_k():
    with pytest.raises(ValueError):
        pair_index(0, 2)


# --- configuration ----------------------------------------------------------


def test_unknown_kind_rejected_naming_entry():
    config = {
        "staged_trees": [{"id": 0, "kind": "mystery"}],
        "functionals": [],
    }
    with pytest.raises(ConfigError) as e:
        family_from_config(config)
    assert "0" in str(e.value)


@pytest.mark.parametrize(
    "config, where",
    [
        ({"staged_trees": 5}, "family config"),
        ({"functionals": {}}, "family config"),
        ({"staged_trees": [5]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": ["comb"]}]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": "comb", "entry": "x"}]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": "comb", "entry": -1}]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": "comb", "delay": 1.5}]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": "comb", "id": True}]}, "staged tree entry 0"),
        ({"staged_trees": [{"kind": "comb", "claim": "x"}]}, "staged tree entry 0"),
        (
            {"staged_trees": [{"kind": "comb", "claim": ["tree", "1"]}]},
            "staged tree entry 0",
        ),
        (
            {"staged_trees": [{"kind": "comb"}, {"kind": "full_subtree"}]},
            "staged tree entry 1",
        ),
        (
            {"staged_trees": [{"kind": "full_subtree", "alphabet": []}]},
            "staged tree entry 0",
        ),
        (
            {"staged_trees": [{"kind": "full_subtree", "alphabet": [0, "1"]}]},
            "staged tree entry 0",
        ),
        (
            {"staged_trees": [{"kind": "full_subtree_plus", "alphabet": [0]}]},
            "staged tree entry 0",
        ),
        (
            {"staged_trees": [
                {"kind": "full_subtree_plus", "alphabet": [0], "extra": [2]}
            ]},
            "staged tree entry 0",
        ),
        ({"functionals": [{"kind": "identity"}, 3]}, "functional entry 1"),
        ({"functionals": [{"kind": "constant"}]}, "functional entry 0"),
        ({"functionals": [{"kind": "constant", "value": None}]}, "functional entry 0"),
        ({"functionals": [{"kind": "entry_mod", "modulus": 0}]}, "functional entry 0"),
    ],
)
def test_malformed_value_rejected_naming_entry(config, where):
    with pytest.raises(ConfigError) as e:
        family_from_config(config)
    assert str(e.value).startswith(f"{where}: ")


def test_config_that_is_not_an_object_rejected():
    with pytest.raises(ConfigError):
        family_from_config([{"kind": "comb"}])


def test_duplicate_ids_rejected():
    entry = {"id": 0, "kind": "comb", "entry": 0}
    config = {"staged_trees": [entry, entry], "functionals": []}
    with pytest.raises(ConfigError):
        family_from_config(config)


def test_standard_library_shape():
    assert len(LIB.staged_trees) >= 5
    assert len(LIB.functionals) >= 4
    assert standard_library().config == LIB.config


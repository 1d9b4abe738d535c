"""Fuel-bounded, deterministic stand-ins for computable trees and functionals.

A StagedTree answers membership queries relative to a stage: decisions are
monotone in the stage, prefix-consistent, and fresh data (entries or
lengths at or above the stage, or stages below the tree's delay) stays
Undecided.  An OracleFunctional evaluates positions of phi^sigma(n) under a
fuel budget with use- and fuel-monotone convergence.

Nothing here enumerates machines; adversaries are finite families loaded
from configuration, and every member of the standard library is expressible
in that configuration format.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Iterator, Optional

from .trees import TriState, Word


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class StagedTree:
    """Stage-indexed membership oracle for one adversary tree.

    ``member`` must be a pure, prefix-closed predicate; the staged wrapper
    then guarantees the monotonicity, prefix and freshness contracts.
    """

    id: int
    kind: str
    member: Callable[[Word], bool] = field(compare=False)
    claimed_shape: Optional[tuple[str, int]] = None
    alphabet_bound: Optional[int] = None
    delay: int = 0

    def decide(self, w: Word, stage: int) -> TriState:
        if stage < self.delay:
            return TriState.UNDECIDED
        if len(w) >= stage or w and max(w) >= stage:
            return TriState.UNDECIDED
        return TriState.IN if self.member(w) else TriState.OUT


@dataclass(frozen=True)
class OracleFunctional:
    """Fuel-bounded model of phi_e^sigma(n); None means not-yet.

    ``prefix(sigma, cap, fuel)`` is the converged output prefix of length
    at most cap, in one call.  No position after it converges, and it is
    use-monotone: ``prefix(sigma + tail, cap, fuel)`` starts with
    ``prefix(sigma, cap, fuel)``.  The surviving engine's case C relies on
    the latter to take a child whose prefix is long enough as its own pool
    alone.
    """

    id: int
    kind: str
    prefix: Callable[[Word, int, int], Word] = field(compare=False)

    def eval(self, oracle_prefix: Word, n: int, fuel: int) -> Optional[int]:
        p = self.prefix(oracle_prefix, n + 1, fuel)
        return p[n] if n < len(p) else None

    def prefix_row(self, ws: list[Word], cap: int, fuel: int) -> list[Word]:
        """``[prefix(w, cap, fuel) for w in ws]``, by the prefix's row form
        (its ``row`` attribute) if it has one."""
        row = getattr(self.prefix, "row", None)
        return row(ws, cap, fuel) if row is not None else [self.prefix(w, cap, fuel) for w in ws]

    def letter_map(self, cap: int, fuel: int) -> Optional[tuple[Optional[Callable[[int], int]], int]]:
        """(f, n) when the prefix has a per-letter map f (its ``letter``
        attribute): ``prefix(w, cap, fuel)`` is then ``tuple(map(f,
        w[:n]))`` for every w of at least n = min(cap, fuel) entries, and
        for every w when f fixes two letters.  A kind with no outputs has f
        None and n 0.  None when the prefix has no letter map."""
        if not hasattr(self.prefix, "letter"):
            return None
        f = self.prefix.letter
        return f, 0 if f is None else max(0, min(cap, fuel))


# ---------------------------------------------------------------------------
# Pairing of naturals with <e, k> pairs, k > 2 (Cantor pairing on (e, k-3)).


def index_pair(i: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= i:
        s += 1
    j = i - s * (s + 1) // 2
    return (s - j, j + 3)


@dataclass(frozen=True)
class AdversaryFamily:
    staged_trees: tuple[StagedTree, ...]
    functionals: tuple[OracleFunctional, ...]
    config: dict = field(compare=False, default_factory=dict)


# ---------------------------------------------------------------------------
# Honesty inspection.

_BFS_NODE_BUDGET = 512
_BFS_DEPTH_CAP = 4


def _walk(
    t: StagedTree, root: Word, stage: int
) -> Iterator[tuple[Word, list[int], bool]]:
    """Breadth-first walk of the decided In-region from root.

    Yields each node below the depth cap with its In children within the
    horizon and whether that count is final (every possible child is
    decided).  At most _BFS_NODE_BUDGET nodes are visited; the caller
    decides the root itself.
    """
    horizon = stage if t.alphabet_bound is None else min(stage, t.alphabet_bound)
    horizon = min(horizon, _BFS_NODE_BUDGET)
    whole_alphabet = t.alphabet_bound is not None and horizon >= t.alphabet_bound
    frontier = deque([root])
    seen = 0
    while frontier and seen < _BFS_NODE_BUDGET:
        w = frontier.popleft()
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
        yield w, in_children, all_decided and whole_alphabet
        frontier.extend(w + (i,) for i in in_children)


def looks_like_branching(
    t: StagedTree, k: int, root: Word, stage: int
) -> Verdict:
    """Does the decided part of t look like a k-branching tree through root?

    Explores the decided In-region below the root (the bounded walk
    ``_walk``).  A node whose within-horizon children are all decided must
    have 1 or k of them In; a decided irreparable violation answers no,
    missing information answers undecided.
    """
    r = t.decide(root, stage)
    if r is TriState.OUT:
        return Verdict.NO
    if r is TriState.UNDECIDED:
        return Verdict.UNDECIDED
    for _, kids, final in _walk(t, root, stage):
        if len(kids) > k or (final and len(kids) not in (1, k)):
            return Verdict.NO
    return Verdict.YES


def shown_successors(t: StagedTree, w: Word, stage: int) -> int:
    """How many successors of w the tree has decided In at the stage."""
    horizon = min(stage, t.alphabet_bound or stage)
    return sum(1 for i in range(horizon) if t.decide(w + (i,), stage) is TriState.IN)


def probe_settled(t: StagedTree, root: Word, stage: int) -> bool:
    """Do ``looks_like_branching(t, k, root, s)`` and
    ``shown_successors(t, root, s)`` give the same answer at every s >= stage?

    They do once every word they decide is decided by ``member`` alone: the
    delay has passed, the root's entries are below the stage, the walk's
    words (at most _BFS_DEPTH_CAP below the root) are shorter than the stage,
    and the horizon has stopped at the alphabet bound.  Without a bound the
    horizon grows with the stage, so the answers never settle.
    """
    return (
        bool(t.alphabet_bound)
        and stage >= max(t.delay, t.alphabet_bound)
        and stage > len(root) + _BFS_DEPTH_CAP
        and all(e < stage for e in root)
    )


def tree_bound_violation(
    t: StagedTree, k: int, stage: int
) -> Optional[Word]:
    """A decided node with more than k decided-In children, if one exists.

    Used to recognise that an adversary is provably not a k-tree, making a
    requirement against it vacuous.
    """
    if t.decide((), stage) is not TriState.IN:
        return None
    return next((w for w, kids, _ in _walk(t, (), stage) if len(kids) > k), None)


# ---------------------------------------------------------------------------
# Configuration: the documented standard set of adversary kinds.


class ConfigError(ValueError):
    pass


def _nat(v) -> bool:
    return type(v) is int and v >= 0


def _nats(v) -> bool:
    return isinstance(v, list) and all(map(_nat, v))


def _claim(v) -> bool:
    return v is None or (
        isinstance(v, list) and len(v) == 2 and isinstance(v[0], str) and _nat(v[1])
    )


# the keys each kind reads, with a check of each value: a kind's own keys
# are required (comb's entry defaults to 0), those every entry of its list
# may have are optional
_TREE_KEYS = {
    "full_subtree": {"alphabet": lambda v: _nats(v) and v != []},
    "full_subtree_plus": {
        "alphabet": lambda v: _nats(v) and v != [],
        "extra": lambda v: isinstance(v, list) and all(map(_nats, v)),
    },
    "comb": {"entry": _nat},
}
_TREE_COMMON = {"id": _nat, "claim": _claim, "delay": _nat}
_FUNCTIONAL_KEYS = {
    "identity": {},
    "entry_mod": {"modulus": lambda v: _nat(v) and v > 0},
    "constant": {"value": _nat},
    "diverging": {},
}
_FUNCTIONAL_COMMON = {"id": _nat}


def _check_keys(entry: dict, read: set[str], where: str) -> None:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: not a JSON object")
    unknown = sorted(set(entry) - read)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _checked_kind(entry: dict, kinds: dict, common: dict, where: str) -> str:
    """The entry's kind, once the entry is an object of a known kind whose
    keys are all read by that kind, present when required and well formed."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: not a JSON object")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    checks = {**common, **kinds[kind]}
    _check_keys(entry, {"kind", *checks}, where)
    for key, ok in checks.items():
        if key in entry and not ok(entry[key]):
            raise ConfigError(f"{where}: malformed {key} {entry[key]!r}")
        if key not in entry and key in kinds[kind] and key != "entry":
            raise ConfigError(f"{where}: missing key {key!r}")
    return kind


def _subtree_member(alphabet: frozenset[int]) -> Callable[[Word], bool]:
    return alphabet.issuperset


def _subtree_plus_member(
    alphabet: frozenset[int], extra: frozenset[Word]
) -> Callable[[Word], bool]:
    base = _subtree_member(alphabet)
    return lambda w: base(w) or w in extra


def _comb_member(entry: int) -> Callable[[Word], bool]:
    return lambda w: w.count(entry) == len(w)


def staged_tree_from_config(entry: dict, index: int) -> StagedTree:
    where = f"staged tree entry {index}"
    kind = _checked_kind(entry, _TREE_KEYS, _TREE_COMMON, where)
    claim = entry.get("claim")
    claimed = tuple(claim) if claim else None
    delay = entry.get("delay", 0)
    tid = entry.get("id", index)
    if kind == "full_subtree":
        alphabet = frozenset(entry["alphabet"])
        return StagedTree(
            tid, kind, _subtree_member(alphabet), claimed,
            alphabet_bound=max(alphabet) + 1, delay=delay,
        )
    if kind == "full_subtree_plus":
        alphabet = frozenset(entry["alphabet"])
        extra = frozenset(map(tuple, entry["extra"]))
        bound = max(max(alphabet), *(max(w) for w in extra if w)) + 1
        return StagedTree(
            tid, kind, _subtree_plus_member(alphabet, extra), claimed,
            alphabet_bound=bound, delay=delay,
        )
    e = entry.get("entry", 0)
    return StagedTree(
        tid, kind, _comb_member(e), claimed,
        alphabet_bound=e + 1, delay=delay,
    )


def _first(sigma: Word, cap: int, fuel: int) -> Word:
    """sigma's first min(cap, fuel) entries: the identity's prefix."""
    n = cap if cap < fuel else fuel
    return sigma[:n] if n > 0 else ()


def _word_row(prefix: Callable, own: Optional[Callable] = None) -> Callable:
    """The row form of a prefix that is the word itself when the word is
    no longer than min(cap, fuel) and own holds of its entries."""

    def row(ws: list[Word], cap: int, fuel: int) -> list[Word]:
        n = cap if cap < fuel else fuel
        if max(map(len, ws), default=0) <= n and (own is None or own(chain.from_iterable(ws))):
            return list(ws)
        return [prefix(w, cap, fuel) for w in ws]

    return row


_first.row = _word_row(_first)
_first.letter = lambda x: x


def _config_prefix(entry: dict) -> Callable[[Word, int, int], Word]:
    """The closed-form output prefix of a configured kind: its first
    min(cap, fuel) outputs, after which no position converges.  A prefix
    equal to a slice of sigma is that slice, so stored prefixes share
    sigma's words.  Each has a row form, its ``row`` attribute, and a
    per-letter map, its ``letter`` attribute (``letter_map``)."""
    kind = entry["kind"]
    if kind == "identity":
        return _first
    if kind == "entry_mod":
        m = entry["modulus"]
        rmod = m.__rmod__
        # the naturals below m are their own residues; the set of them is
        # capped, as m may be any natural, and min and max test the rest
        own = frozenset(range(min(m, 256))).issuperset

        def entry_mod(sigma: Word, cap: int, fuel: int) -> Word:
            n = cap if cap < fuel else fuel
            s = sigma[:n] if n > 0 else ()
            return s if own(s) or 0 <= min(s) and max(s) < m else tuple(map(rmod, s))

        entry_mod.row = _word_row(entry_mod, own)
        entry_mod.letter = rmod
        return entry_mod
    if kind == "constant":
        c = entry["value"]

        def constant(sigma: Word, cap: int, fuel: int) -> Word:
            # a count below 1 repeats c no times
            return (c,) * (cap if cap < fuel else fuel)

        constant.row = lambda ws, cap, fuel: [constant((), cap, fuel)] * len(ws)
        constant.letter = lambda x: c
        return constant

    def diverging(sigma: Word, cap: int, fuel: int) -> Word:
        return ()

    diverging.row = lambda ws, cap, fuel: [()] * len(ws)
    diverging.letter = None
    return diverging


def functional_from_config(entry: dict, index: int) -> OracleFunctional:
    where = f"functional entry {index}"
    kind = _checked_kind(entry, _FUNCTIONAL_KEYS, _FUNCTIONAL_COMMON, where)
    return OracleFunctional(entry.get("id", index), kind, _config_prefix(entry))


def family_from_config(config: dict) -> AdversaryFamily:
    _check_keys(config, {"staged_trees", "functionals"}, "family config")
    for key in ("staged_trees", "functionals"):
        if not isinstance(config.get(key, []), list):
            raise ConfigError(f"family config: {key} is not a list")
    trees = tuple(
        staged_tree_from_config(e, i)
        for i, e in enumerate(config.get("staged_trees", []))
    )
    funcs = tuple(
        functional_from_config(e, i)
        for i, e in enumerate(config.get("functionals", []))
    )
    ids = [t.id for t in trees]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate staged tree ids")
    fids = [f.id for f in funcs]
    if len(set(fids)) != len(fids):
        raise ConfigError("duplicate functional ids")
    return AdversaryFamily(trees, funcs, config)


STANDARD_CONFIG: dict = {
    "staged_trees": [
        {"id": 0, "kind": "full_subtree", "alphabet": [0, 1, 2],
         "claim": ["branching", 3]},
        {"id": 1, "kind": "full_subtree", "alphabet": [0, 3, 4],
         "claim": ["branching", 3]},
        {"id": 2, "kind": "full_subtree", "alphabet": [0, 1],
         "claim": ["branching", 2]},
        {"id": 3, "kind": "full_subtree", "alphabet": [1, 2],
         "claim": ["branching", 2]},
        {"id": 4, "kind": "comb", "entry": 0, "claim": ["tree", 1]},
        {"id": 5, "kind": "full_subtree", "alphabet": [0, 1],
         "claim": ["branching", 2], "delay": 6},
        {"id": 6, "kind": "full_subtree_plus", "alphabet": [0, 1],
         "extra": [[2]], "claim": ["branching", 2]},
    ],
    "functionals": [
        {"id": 0, "kind": "identity"},
        {"id": 1, "kind": "entry_mod", "modulus": 3},
        {"id": 2, "kind": "constant", "value": 3},
        {"id": 3, "kind": "diverging"},
    ],
}

EMPTY_CONFIG: dict = {"staged_trees": [], "functionals": []}


def standard_library() -> AdversaryFamily:
    """The fixed, documented adversary family used by the test suites."""
    return family_from_config(STANDARD_CONFIG)

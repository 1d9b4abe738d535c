"""Finite prefix-closed trees over the naturals, with shape predicates.

Words are plain tuples of non-negative ints; the empty tuple is the root.
Trees come in two flavours throughout the package: explicit finite node
sets (this module) and staged membership oracles (``survtree.staged``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice, product, repeat
from operator import itemgetter, lt, ne, sub
from typing import Callable, Container, Iterable, Iterator, Optional

Word = tuple[int, ...]

EMPTY: Word = ()

_parent = itemgetter(slice(None, -1))
_last = itemgetter(-1)


def prefixes(w: Word) -> Iterator[Word]:
    """All prefixes of w, shortest first, including w itself."""
    for i in range(len(w) + 1):
        yield w[:i]


def is_prefix(a: Word, b: Word) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def word_key(w: Word) -> tuple[int, Word]:
    """Sort key for the canonical shortest-then-lexicographic order."""
    return (len(w), w)


class TriState(Enum):
    IN = "in"
    OUT = "out"
    UNDECIDED = "undecided"


class NotInTree(ValueError):
    """Raised when children of a non-member node are requested."""


@dataclass(frozen=True)
class ShapeViolation:
    """Witness that a node breaks a shape predicate."""

    node: Word
    observed_child_count: int
    required: str


@dataclass(frozen=True)
class Surjection:
    """An onto map {0..domain_size-1} -> {0..codomain_size-1}."""

    domain_size: int
    codomain_size: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.domain_size < self.codomain_size or self.codomain_size < 2:
            raise ValueError("need domain_size >= codomain_size >= 2")
        if len(self.table) != self.domain_size:
            raise ValueError("table length must equal domain_size")
        if set(self.table) != set(range(self.codomain_size)):
            raise ValueError("table is not onto the codomain")

    def __call__(self, i: int) -> int:
        return self.table[i]


@dataclass(frozen=True, eq=False)
class FiniteTree:
    """An explicit, rooted, prefix-closed finite set of words.

    Immutable after construction.  ``alphabet_bound`` of b restricts all
    entries to values < b; None means entries range over the naturals.
    Kept as its sorted levels and child counts (LOUDS, Jacobson 1989):
    nodes given as a collection are sorted into levels and checked one
    level at a time (``_level_counts``); levels and counts handed over, as
    ``full`` and ``subtree_above`` build them, are not.  Membership bisects
    a level, and the node set is built only when ``nodes`` is read.
    """

    _nodes: Optional[Iterable[Word]] = field(default=None, repr=False)
    alphabet_bound: Optional[int] = None
    _levels: Optional[list] = None
    _counts: Optional[list] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._counts is None:
            given = self._nodes
            levels: list[list[Word]] = [[] for _ in range(max(map(len, given), default=0) + 1)]
            for w in given:
                levels[len(w)].append(w)
            for lv in levels:
                lv.sort()
            object.__setattr__(self, "_levels", levels)
            object.__setattr__(self, "_counts", _level_counts(levels, self.alphabet_bound))
            object.__setattr__(self, "_nodes", given if type(given) is frozenset else None)

    @property
    def nodes(self) -> frozenset[Word]:
        """All nodes, as a set built on the first read."""
        if self._nodes is None:
            object.__setattr__(self, "_nodes", frozenset(chain.from_iterable(self._levels)))
        return self._nodes

    def __eq__(self, other: object) -> bool:
        """The same bound and the same nodes, level by level."""
        same = isinstance(other, FiniteTree) and self.alphabet_bound == other.alphabet_bound
        return same and self._levels == other._levels

    def __hash__(self) -> int:
        return hash((self.alphabet_bound, *map(tuple, self._levels)))

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def __contains__(self, w: Word) -> bool:
        lv = self._levels[len(w)] if len(w) < len(self._levels) else ()
        i = bisect_left(lv, w)
        return i < len(lv) and lv[i] == w

    def levels(self) -> list[list[Word]]:
        """Per length n = 0..depth, the sorted nodes of length n."""
        return self._levels

    def counts(self) -> list[list[int]]:
        """Per level, each node's number of children: a node's children
        are the next that many nodes of the level below."""
        return self._counts

    def sorted_nodes(self) -> list[Word]:
        """All nodes in shortest-then-lex (``word_key``) order."""
        return [w for lv in self._levels for w in lv]

    def leaves(self) -> list[Word]:
        return [w for lv, cs in zip(self._levels, self._counts) for w, c in zip(lv, cs) if not c]

    def level(self, n: int) -> frozenset[Word]:
        return frozenset(self._levels[n] if 0 <= n <= self.depth else ())

    @classmethod
    def from_words(
        cls, words: Iterable[Word], alphabet_bound: Optional[int] = None
    ) -> "FiniteTree":
        """Prefix closure of the given words and the root, parents added until none is new."""
        nodes: set[Word] = {EMPTY, *map(tuple, words)}
        new = nodes
        while new := set(map(_parent, filter(None, new))) - nodes:
            nodes |= new
        return cls(frozenset(nodes), alphabet_bound)

    @classmethod
    def from_levels(
        cls, levels: list[list[Word]], alphabet_bound: Optional[int] = None
    ) -> "FiniteTree":
        """The tree whose nodes of length n are levels[n].

        Each level must be sorted words of length n, checked then like any
        tree's levels.  The lists become the tree's sorted levels, so the
        caller must not change them afterwards.
        """
        for n, lv in enumerate(levels):
            # a sorted copy of a sorted list is one linear run
            if lv != sorted(lv) or set(map(len, lv)) != {n}:
                raise ValueError(f"level {n} is not sorted words of length {n}")
        return cls(None, alphabet_bound, levels, _level_counts(levels, alphabet_bound))

    @classmethod
    def full(cls, b: int, d: int) -> "FiniteTree":
        """The full b-ary tree of depth d."""
        if b < 1 and d > 0:
            raise ValueError("a full tree of positive depth needs b >= 1")
        levels = [list(product(range(b), repeat=n)) for n in range(d + 1)]
        counts = [[b] * len(lv) for lv in levels[:-1]] + [[0] * b**d]
        return cls(None, b, levels, counts)


def _level_counts(levels: list[list[Word]], bound: Optional[int]) -> list[list[int]]:
    """The child counts of sorted levels, which are checked one level at a
    time: no node twice, no entry at or over the bound (one max a level),
    and each node counted under its own parent on the level above."""
    counts = []
    for n, lv in enumerate(levels):
        if not all(map(lt, lv, lv[1:])):
            raise ValueError("a tree node is listed twice")
        if n and lv and bound is not None and max(map(_last, lv)) >= bound:
            w = next(w for w in lv if w[-1] >= bound)
            raise ValueError(f"entry out of alphabet bound in {w}")
        if n:
            # each node's children start where it sorts in the level below
            above = levels[n - 1]
            starts = [*map(bisect_left, repeat(lv), above), len(lv)]
            counts.append(list(map(sub, starts[1:], starts)))
            counted_under = chain.from_iterable(map(repeat, above, counts[-1]))
            if starts[0] or any(map(ne, map(_parent, lv), counted_under)):
                have = set(above)
                w = next(w for w in lv if w[:-1] not in have)
                raise ValueError(f"not prefix-closed at {w}")
    counts.append([0] * len(levels[-1]))
    return counts


def _first_bad_count(
    t: FiniteTree, d: int, allowed: Container[int]
) -> Optional[tuple[Word, int]]:
    """The first (node, number of children) of length < d whose number is
    not allowed, or None.  Each count row is tested as a set first, and
    only a row that fails is walked node by node."""
    for lv, cs in zip(t.levels()[:max(d, 0)], t.counts()):
        if not all(map(allowed.__contains__, set(cs))):
            return next((w, c) for w, c in zip(lv, cs) if c not in allowed)
    return None


def is_k_tree_to_depth(
    t: FiniteTree, k: int, d: int
) -> Optional[ShapeViolation]:
    """ok (None) iff every node of length < d has 1..k children."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bad = _first_bad_count(t, d, range(1, k + 1))
    return bad and ShapeViolation(*bad, f"between 1 and {k} successors")


def is_k_branching_to_depth(
    t: FiniteTree, k: int, d: int
) -> Optional[ShapeViolation]:
    """ok (None) iff every node of length < d has exactly 1 or k children."""
    if k < 2:
        raise ValueError("k must be >= 2")
    bad = _first_bad_count(t, d, (1, k))
    return bad and ShapeViolation(*bad, f"exactly 1 or {k} successors")


def is_accelerating_to_depth(
    t: FiniteTree, d: int
) -> Optional[ShapeViolation]:
    """Accelerating: the n-th splitting node on a branch has > n+2 children.

    n counts the splitting proper initial segments of the node.  Nodes of
    length < d must keep at least one successor; depth-d leaves are exempt.
    The levels are read in order, each node's split number carried down to
    its children.  A row whose counts, as a set, are all 1 or over the
    row's greatest split number + 2 is not walked.
    """
    splits = [0]  # per node of the level, its splitting proper prefixes
    for lv, cs in zip(t.levels()[:max(d, 0)], t.counts()):
        top = max(splits) + 2
        if not all(c == 1 or c > top for c in set(cs)):
            for w, c, n in zip(lv, cs, splits):
                if c == 0:
                    return ShapeViolation(w, 0, "at least 1 successor below depth")
                if 2 <= c <= n + 2:
                    return ShapeViolation(w, c, f"more than {n + 2} successors (split number {n})")
        splits = [n + (c >= 2) for n, c in zip(splits, cs) for _ in range(c)]
    return None


# Each shape predicate by name, called as (tree, k, depth); accelerating takes no k.
SHAPES: dict[str, Callable[[FiniteTree, Optional[int], int], Optional[ShapeViolation]]] = {
    "ktree": is_k_tree_to_depth,
    "kbranching": is_k_branching_to_depth,
    "accelerating": lambda t, k, d: is_accelerating_to_depth(t, d),
}


def map_path(g: Surjection, a: Word) -> Word:
    """Entrywise image of a word under the surjection."""
    for e in a:
        if e >= g.domain_size:
            raise ValueError(f"entry {e} outside domain of size {g.domain_size}")
    return tuple(g(e) for e in a)


def pushforward_preimage(t: FiniteTree, g: Surjection) -> FiniteTree:
    """Inverse image {w over k+1 : g*(w) in T} of a tree over s+1."""
    if t.alphabet_bound is not None and t.alphabet_bound > g.codomain_size:
        raise ValueError("tree alphabet exceeds surjection codomain")
    for w in t.sorted_nodes():
        if any(e >= g.codomain_size for e in w):
            raise ValueError("tree entry outside surjection codomain")
    nodes: set[Word] = set()
    frontier = [EMPTY] if EMPTY in t else []
    nodes.update(frontier)
    depth = t.depth
    while frontier:
        new: list[Word] = []
        for w in frontier:
            if len(w) >= depth:
                continue
            img = map_path(g, w)
            for i in range(g.domain_size):
                if img + (g(i),) in t:
                    new.append(w + (i,))
        nodes.update(new)
        frontier = new
    return FiniteTree(frozenset(nodes), g.domain_size)


def rows_above(t: FiniteTree, node: Word) -> Iterator[tuple[list[Word], list[int]]]:
    """Per length from len(node) on, the sorted nodes of t extending node
    and their child counts, as slices of t's levels and counts.

    On each level the slice starts where node would sort, and its width is
    the sum of the counts above it; the walk ends after a slice of leaves.
    Nothing is yielded for a non-member.
    """
    if node not in t:
        return
    levels, counts = t.levels(), t.counts()
    n, width = len(node), 1
    while width:
        lo = bisect_left(levels[n], node)
        cs = counts[n][lo:lo + width]
        yield levels[n][lo:lo + width], cs
        n, width = n + 1, sum(cs)


def full_rows(t: FiniteTree, node: Word) -> Optional[list[tuple[list[Word], list[int]]]]:
    """The rows above node (``rows_above``) when t above node is the full
    b-ary tree to t's depth, b its alphabet bound: every node of them but
    the last row's has b children, and the last row is t's depth level.
    None otherwise, a non-member included."""
    rows, b = list(rows_above(t, node)), t.alphabet_bound
    full = rows and len(rows) == t.depth - len(node) + 1 and b is not None
    return rows if full and all(cs.count(b) == len(cs) for _, cs in rows[:-1]) else None


def children(t: FiniteTree, node: Word) -> list[Word]:
    """The children of node in t, in order: the row after node's own in
    ``rows_above``; [] for a leaf or a non-member."""
    return next(islice(rows_above(t, node), 1, None), ([],))[0]


def subtree_above(t: FiniteTree, stem: Word) -> FiniteTree:
    """Nodes comparable with the stem (the restriction of a condition), with
    slices of t's levels and counts."""
    if stem not in t:
        raise NotInTree(f"stem {stem} is not a member")
    above, counts = zip(*rows_above(t, stem))
    levels = [[stem[:n]] for n in range(len(stem))] + list(above)
    counts = [[1]] * len(stem) + list(counts)
    return FiniteTree(None, t.alphabet_bound, levels, counts)

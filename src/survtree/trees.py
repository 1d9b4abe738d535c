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
from operator import sub
from typing import Callable, Iterable, Iterator, Optional

Word = tuple[int, ...]

EMPTY: Word = ()


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


@dataclass(frozen=True)
class FiniteTree:
    """An explicit, rooted, prefix-closed finite set of words.

    Immutable after construction.  ``alphabet_bound`` of b restricts all
    entries to values < b; None means entries range over the naturals.
    A tree given its sorted levels and their child counts, as ``full``
    and ``subtree_above`` give rows that are prefix-closed and within the
    bound by construction, is not checked node by node.
    """

    nodes: frozenset[Word]
    alphabet_bound: Optional[int] = None
    _depth: Optional[int] = field(
        default=None, compare=False, repr=False, hash=False
    )
    _levels: Optional[list] = field(
        default=None, compare=False, repr=False, hash=False
    )
    _counts: Optional[list] = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if self._levels is not None and self._counts is not None:
            object.__setattr__(self, "_depth", len(self._levels) - 1)
            return
        # every entry is the last entry of some node, since the nodes are
        # prefix-closed; so checking last entries checks them all
        bound = self.alphabet_bound
        for w in self.nodes:
            if w and w[:-1] not in self.nodes:
                raise ValueError(f"not prefix-closed at {w}")
            if w and bound is not None and w[-1] >= bound:
                raise ValueError(f"entry out of alphabet bound in {w}")
        object.__setattr__(self, "_depth", None)
        object.__setattr__(self, "_levels", None)
        object.__setattr__(self, "_counts", None)

    @property
    def depth(self) -> int:
        if self._depth is None:
            object.__setattr__(
                self, "_depth", max(map(len, self.nodes), default=0)
            )
        return self._depth

    def __contains__(self, w: Word) -> bool:
        return w in self.nodes

    def levels(self) -> list[list[Word]]:
        """Per length n = 0..depth, the sorted nodes of length n, built once."""
        if self._levels is None:
            levels: list[list[Word]] = [[] for _ in range(self.depth + 1)]
            for w in self.nodes:
                levels[len(w)].append(w)
            for lv in levels:
                lv.sort()
            object.__setattr__(self, "_levels", levels)
        return self._levels

    def counts(self) -> list[list[int]]:
        """Per level, each node's number of children, built once: a node's
        children are the next that many nodes of the level below."""
        if self._counts is None:
            levels = self.levels()
            counts = []
            for lv, below in zip(levels, levels[1:]):
                # a node's children start where it would sort in the level below
                starts = [*map(bisect_left, repeat(below), lv), len(below)]
                counts.append(list(map(sub, starts[1:], starts)))
            counts.append([0] * len(levels[-1]))
            object.__setattr__(self, "_counts", counts)
        return self._counts

    def sorted_nodes(self) -> list[Word]:
        """All nodes in shortest-then-lex (``word_key``) order."""
        return [w for lv in self.levels() for w in lv]

    def leaves(self) -> list[Word]:
        return [w for w, c in _counted(self, self.depth + 1) if not c]

    def level(self, n: int) -> frozenset[Word]:
        return frozenset(w for w in self.nodes if len(w) == n)

    @classmethod
    def from_words(
        cls, words: Iterable[Word], alphabet_bound: Optional[int] = None
    ) -> "FiniteTree":
        """Prefix closure of the given words (plus the root)."""
        nodes: set[Word] = {EMPTY}
        for w in words:
            w = tuple(w)
            for p in prefixes(w):
                nodes.add(p)
        return cls(frozenset(nodes), alphabet_bound)

    @classmethod
    def from_levels(
        cls, levels: list[list[Word]], alphabet_bound: Optional[int] = None
    ) -> "FiniteTree":
        """The tree whose nodes of length n are levels[n].

        Checked like any tree (prefix closure, alphabet bound), and each
        level must be strictly increasing.  The lists become the tree's
        sorted levels, so the caller must not change them afterwards.
        """
        tree = cls(frozenset(chain.from_iterable(levels)), alphabet_bound)
        for n, lv in enumerate(levels):
            # a sorted copy of a sorted list is one linear run
            if lv != sorted(lv) or set(map(len, lv)) != {n}:
                raise ValueError(f"level {n} is not sorted words of length {n}")
        if len(tree.nodes) != sum(map(len, levels)):
            raise ValueError("a node is listed twice")
        object.__setattr__(tree, "_levels", levels)
        return tree

    @classmethod
    def full(cls, b: int, d: int) -> "FiniteTree":
        """The full b-ary tree of depth d."""
        if b < 1 and d > 0:
            raise ValueError("a full tree of positive depth needs b >= 1")
        levels = [list(product(range(b), repeat=n)) for n in range(d + 1)]
        counts = [[b] * len(lv) for lv in levels[:-1]] + [[0] * b**d]
        return cls(frozenset(chain.from_iterable(levels)), b, _levels=levels, _counts=counts)


def _counted(t: FiniteTree, d: int) -> Iterator[tuple[Word, int]]:
    """(node, number of children) for the nodes of length < d, in
    shortest-then-lex order."""
    d = max(d, 0)
    return zip(chain.from_iterable(t.levels()[:d]), chain.from_iterable(t.counts()[:d]))


def is_k_tree_to_depth(
    t: FiniteTree, k: int, d: int
) -> Optional[ShapeViolation]:
    """ok (None) iff every node of length < d has 1..k children."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for w, c in _counted(t, d):
        if c == 0 or c > k:
            return ShapeViolation(w, c, f"between 1 and {k} successors")
    return None


def is_k_branching_to_depth(
    t: FiniteTree, k: int, d: int
) -> Optional[ShapeViolation]:
    """ok (None) iff every node of length < d has exactly 1 or k children."""
    if k < 2:
        raise ValueError("k must be >= 2")
    for w, c in _counted(t, d):
        if c not in (1, k):
            return ShapeViolation(w, c, f"exactly 1 or {k} successors")
    return None


def is_accelerating_to_depth(
    t: FiniteTree, d: int
) -> Optional[ShapeViolation]:
    """Accelerating: the n-th splitting node on a branch has > n+2 children.

    n counts the splitting proper initial segments of the node.  Nodes of
    length < d must keep at least one successor; depth-d leaves are exempt.
    The levels are read in order, each node's split number carried down to
    its children.
    """
    splits = [0]  # per node of the level, its splitting proper prefixes
    for lv, cs in zip(t.levels()[:max(d, 0)], t.counts()):
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
    for w in t.nodes:
        if any(e >= g.codomain_size for e in w):
            raise ValueError("tree entry outside surjection codomain")
    nodes: set[Word] = set()
    frontier = [EMPTY] if EMPTY in t.nodes else []
    nodes.update(frontier)
    depth = t.depth
    while frontier:
        new: list[Word] = []
        for w in frontier:
            if len(w) >= depth:
                continue
            img = map_path(g, w)
            for i in range(g.domain_size):
                if img + (g(i),) in t.nodes:
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
    if node not in t.nodes:
        return
    levels, counts = t.levels(), t.counts()
    n, width = len(node), 1
    while width:
        lo = bisect_left(levels[n], node)
        cs = counts[n][lo:lo + width]
        yield levels[n][lo:lo + width], cs
        n, width = n + 1, sum(cs)


def children(t: FiniteTree, node: Word) -> list[Word]:
    """The children of node in t, in order: the row after node's own in
    ``rows_above``; [] for a leaf or a non-member."""
    return next(islice(rows_above(t, node), 1, None), ([],))[0]


def subtree_above(t: FiniteTree, stem: Word) -> FiniteTree:
    """Nodes comparable with the stem (the restriction of a condition), with
    slices of t's levels and counts."""
    if stem not in t.nodes:
        raise NotInTree(f"stem {stem} is not a member")
    above, counts = zip(*rows_above(t, stem))
    levels = [[stem[:n]] for n in range(len(stem))] + list(above)
    counts = [[1]] * len(stem) + list(counts)
    nodes = frozenset(chain.from_iterable(levels))
    return FiniteTree(nodes, t.alphabet_bound, _levels=levels, _counts=counts)

"""Exact minimum covers of the depth-d full b-ary leaf set by k-branching trees.

Every depth-d k-branching subtree of b^{<=d} covers at most k^d leaves, and
among trees with a given leaf coverage the fully k-splitting ones dominate:
a k-branching tree's leaves can always be completed to the leaf set of a
tree that splits k ways at every node (b >= k leaves room for the extra
children).  So the search only branches over trees that take exactly k
children at every internal node, which keeps exact search feasible for
small parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop
from itertools import combinations_with_replacement, product
from typing import Iterator, Optional

from .trees import FiniteTree, Word, is_k_branching_to_depth

SIZE_LIMIT = 729  # 3 ** 6
WORK_BUDGET = 1_000_000  # candidate trees one min_cover call may generate


class SizeGuard(ValueError):
    def __init__(self, b: int, d: int):
        super().__init__(
            f"b**d = {b ** d} exceeds the exact-search limit {SIZE_LIMIT}"
        )
        self.b = b
        self.d = d


class CoverBudgetExceeded(RuntimeError):
    """WORK_BUDGET ran out: the minimum is at least ``lower`` (the need bound
    of the full leaf set) and at most ``upper`` (the best cover found, or
    None)."""

    def __init__(self, lower: int, upper: Optional[int]):
        self.lower, self.upper = lower, upper
        self.bracket = f"{lower}..{'?' if upper is None else upper}"
        super().__init__(f"work budget exhausted: min cover in {self.bracket}")


@dataclass(frozen=True)
class CoverWitness:
    trees: tuple[FiniteTree, ...]
    covered: frozenset[Word]
    parameters: tuple[int, int, int]  # (b, k, d)

    @property
    def size(self) -> int:
        return len(self.trees)


def _need(uncovered: int, b: int, k: int, d: int) -> int:
    """Lower bound on the trees covering ``uncovered``: need(root), where a
    leaf needs 1 if uncovered, else 0, and need(v) = max(max_c need(c),
    ceil(sum_c need(c) / k)), as every fully k-splitting tree through v
    passes through exactly k of v's children."""
    level = [int(bit) for bit in reversed(format(uncovered, f"0{b ** d}b"))]
    for _ in range(d):
        level = [
            max(max(group), -(-sum(group) // k))
            for group in (level[i:i + b] for i in range(0, len(level), b))
        ]
    return level[0]


def _counts(sizes: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """The ways to take n items from groups of the given sizes, as counts."""
    if not sizes:
        if n == 0:
            yield ()
        return
    for j in range(min(n, sizes[0]) + 1):
        for rest in _counts(sizes[1:], n - j):
            yield (j, *rest)


def min_cover(b: int, k: int, d: int) -> tuple[int, CoverWitness]:
    """Least m with m k-branching subtrees of b^{<=d} covering b^d, plus witness.

    Leaf i is the i-th word of b^d in lexicographic order, and a leaf set is
    an int bitmask.  Each search node branches over the trees through its
    least uncovered leaf, one per orbit of the automorphisms of b^{<=d} that
    fix the uncovered leaves and that leaf; so the first tree is the
    canonical one, with children 0..k-1 at every node.  Raises
    CoverBudgetExceeded after more than WORK_BUDGET candidate trees.
    """
    if not 2 <= k <= b or d < 0:
        raise ValueError("need 2 <= k <= b and 0 <= d")
    if b ** d > SIZE_LIMIT:
        raise SizeGuard(b, d)
    leaves = list(product(range(b), repeat=d))
    n = len(leaves)
    lower = _need((1 << n) - 1, b, k, d)
    work = 0
    best: list[int] = []

    def spend(count: int) -> None:
        nonlocal work
        work += count
        if work > WORK_BUDGET:
            raise CoverBudgetExceeded(lower, len(best) or None)

    # canonical[h]: leaf mask of the height-h tree on leaves 0.. that takes
    # children 0..k-1 at every node
    canonical = [1]
    for h in range(d):
        canonical.append(sum(canonical[-1] << c * b ** h for c in range(k)))

    def options(h: int, base: int, target: int, uncovered: int) -> dict[int, int]:
        """gain -> leaf mask, over the fully k-splitting trees of height
        h on the leaves from ``base`` (through ``target`` if it is one of
        them), one per orbit: a wholly covered or uncovered node takes its
        canonical subtree, children with equal uncovered leaves are taken
        lowest first, and their subtrees as a multiset."""
        span = b ** h
        part = uncovered >> base & (1 << span) - 1
        if part in (0, (1 << span) - 1):
            # a wholly uncovered node holds the target, the least uncovered
            # leaf, only as its first leaf, which the canonical tree takes
            mask = canonical[h] << base
            return {mask & uncovered: mask}
        width = span // b
        path = (target - base) // width if base <= target < base + span else None
        by_pattern: dict[int, list[int]] = {}
        for c in range(b):
            if c != path:
                pattern = uncovered >> base + c * width & (1 << width) - 1
                by_pattern.setdefault(pattern, []).append(c)
        groups = list(by_pattern.values())
        kids = [options(h - 1, base + cs[0] * width, target, uncovered) for cs in groups]
        fixed = [] if path is None else [options(h - 1, base + path * width, target, uncovered)]
        shares: dict[tuple[int, int], dict[int, int]] = {}
        out: dict[int, int] = {}
        for counts in _counts([len(cs) for cs in groups], k - len(fixed)):
            for i, j in enumerate(counts):
                if j and (i, j) not in shares:
                    spend(math.comb(len(kids[i]) + j - 1, j))
                    shifts = [(c - groups[i][0]) * width for c in groups[i][:j]]
                    share = shares[i, j] = {}
                    for combo in combinations_with_replacement(kids[i].items(), j):
                        gain = sum(g << s for (g, _), s in zip(combo, shifts))
                        share[gain] = sum(m << s for (_, m), s in zip(combo, shifts))
            parts = sorted(fixed + [shares[i, j] for i, j in enumerate(counts) if j], key=len)
            spend(math.prod(map(len, parts)))
            trees = {0: 0}
            for part in parts:
                trees = {g + pg: m + pm for g, m in trees.items() for pg, pm in part.items()}
            for gain, mask in trees.items():
                if mask < out.get(gain, mask + 1):
                    out[gain] = mask
        return out

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if not best or len(chosen) < len(best):
                best = list(chosen)
            return
        bound = _need(uncovered, b, k, d)
        if best and len(chosen) + bound >= len(best):
            return
        target = (uncovered & -uncovered).bit_length() - 1
        # most gain first, then least mask; popped lazily, because the bound
        # often ends the loop after the first option
        heap = [(n - (m & uncovered).bit_count()) << n | m
                for m in options(d, 0, target, uncovered).values()]
        heapify(heap)
        while heap:
            mask = heappop(heap) & (1 << n) - 1
            chosen.append(mask)
            search(uncovered & ~mask, chosen)
            chosen.pop()
            if best and len(chosen) + bound >= len(best):
                return

    search((1 << n) - 1, [])
    trees = tuple(
        FiniteTree.from_words(
            [w for i, w in enumerate(leaves) if tree >> i & 1], alphabet_bound=b
        )
        for tree in best
    )
    return len(trees), CoverWitness(trees, frozenset(leaves), (b, k, d))


def verify_cover(w: CoverWitness) -> Optional[str]:
    """None when the witness holds; otherwise a message naming the defect."""
    b, k, d = w.parameters
    union: set[Word] = set()
    for i, t in enumerate(w.trees):
        bad = is_k_branching_to_depth(t, k, d)
        if bad is not None:
            return f"tree {i}: node {bad.node} has {bad.observed_child_count} children"
        if t.alphabet_bound is not None and t.alphabet_bound > b:
            return f"tree {i}: alphabet bound {t.alphabet_bound} exceeds {b}"
        if t.depth != d:
            return f"tree {i}: depth {t.depth} != {d}"
        union.update(t.level(d))
    if union != set(w.covered):
        extra = union - set(w.covered)
        if extra:
            return f"covered set omits reached word {min(extra)}"
        missed = min(set(w.covered) - union)
        return f"uncovered word {missed}"
    full = set(product(range(b), repeat=d))
    if set(w.covered) != full:
        return f"claimed cover misses {min(full - set(w.covered))}"
    return None


def monotonicity_table(b: int, d: int, k_range: range) -> list[tuple[int, int]]:
    """(k, min cover size) rows; sizes never increase as k grows."""
    rows = []
    for k in k_range:
        if not 2 <= k < b:
            raise ValueError(f"k={k} outside 2 <= k < b={b}")
        value, _ = min_cover(b, k, d)
        rows.append((k, value))
    for (_, a), (_, c) in zip(rows, rows[1:]):
        assert c <= a, "cover sizes must be non-increasing in k"
    return rows

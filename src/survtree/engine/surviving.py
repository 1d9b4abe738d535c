"""Diagonalization engine producing a surviving condition over (k+1)^{<=d}.

The run alternates tree requirements (exit the e-th adversary k-tree) with
functional requirements (force the e-th functional to be partial, to take
few values, or to have its outputs on the leaves lie on a (k+1)-tree, by
simultaneous splitting).  Everything is deterministic: ties break to the
least entry and the shortest-then-lexicographically-first node.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby, islice
from typing import Iterator, Optional

from ..staged import AdversaryFamily
from ..trees import FiniteTree, Word, children, rows_above
from .common import OutputTable, Run, RunRecord, nodes_above

# the most entries the final tree of a run ``survtree run`` starts may spell
# out: the full (k+1)-ary tree to the depth, which admits k = 2 up to depth 12
# and k = 3 up to depth 10
TREE_ENTRY_LIMIT = 1 << 24


def tree_fits(b: int, depth: int) -> bool:
    """Whether the full b-ary tree to the depth (b >= 2) spells out at most
    TREE_ENTRY_LIMIT entries: the sum of n * b^n over n = 1..depth."""
    n_max = min(depth, TREE_ENTRY_LIMIT.bit_length())  # 2**n_max alone is over
    return sum(n * b**n for n in range(1, n_max + 1)) <= TREE_ENTRY_LIMIT


def _case_c(table: OutputTable, k: int, stem: Word, tree: FiniteTree) -> Optional[FiniteTree]:
    """Simultaneous splitting: the condition whose sibling subtrees carry
    pairwise distinct output prefixes, so that the outputs on its leaves
    lie on a (k+1)-tree; None when not even round 0 splits.

    Level m lists the nodes t(sigma) for the length-m words sigma in lex
    order.  The b nodes assigned above t(sigma) are t(sigma 0) ...
    t(sigma k), so appending each node's assignment in turn lists the next
    level in lex order too, and no map keyed by sigma is needed.  A
    split's children are the tree's own words.

    A round is read one of two ways.  When its tops are one run of a level,
    each with b children, and those children are their own outputs
    (``OutputTable.own_row``, read in order up to the first that is not),
    the round is the children themselves: each group shares its top and
    increases in its last entry, so it splits at its full length.  Any
    other round, an own row that fails included, goes through
    ``_search_round``.  The search ends at the first top with no split, so
    nothing past it is read.

    The condition is the prefix closure of the last level's zero-paddings:
    the tree itself, handed back as it is, when those are its depth level
    and no leaf ends above the depth (the only outcome for configured
    functionals), and otherwise rebuilt from its levels.
    """
    b = k + 1
    depth = table.depth
    levels, counts = tree.levels(), tree.counts()
    tops = [stem]
    m = 0  # the rounds so far
    while True:
        n, size = len(tops[0]), len(tops)
        lo = bisect_left(levels[n], tops[0])
        if levels[n][lo:lo + size] == tops and counts[n][lo:lo + size].count(b) == size:
            # the tops' children are one slice of the level below, b to a
            # top; a top is at least as long as the round number, so its
            # own children split past it
            start = bisect_left(levels[n + 1], tops[0])
            row = levels[n + 1][start:start + b * size]
            if table.own_row(row):
                tops = row
                m += 1
                continue
        chosen = _search_round(table, tree, tops, m, b)
        if chosen is None:
            break
        tops = [v for v, _ in chosen]
        m += 1
    if not m:
        return None
    # the tops are pairwise incomparable and in lex order, so their
    # zero-paddings are too; tops of the depth's length are their own
    padded = tops if min(map(len, tops)) >= depth else [w + (0,) * (depth - len(w)) for w in tops]
    if tree.depth == depth and padded == levels[depth] and all(map(all, counts[:depth])):
        return tree
    # each shorter level is the run of the distinct parents of the level
    # above it
    levels = [padded]
    while len(levels[-1][0]):
        levels.append([p for p, _ in groupby(w[:-1] for w in levels[-1])])
    return FiniteTree.from_levels(levels[::-1], tree.alphabet_bound)


def _search_round(
    table: OutputTable, tree: FiniteTree, tops: list[Word], m: int, b: int
) -> Optional[list[tuple[Word, Word]]]:
    """Round m's (node, output) pairs, top by top: each top's split is the
    first node above it with b children (the working tree is full above the
    stem), and its children go to ``_assign_kids``.  None at the first top
    with no split or no assignment."""
    chosen: list[tuple[Word, Word]] = []
    for top in tops:
        q = next((w for row in rows_above(tree, top) for w, c in zip(*row) if c == b), None)
        assigned = None if q is None else _assign_kids(table, tree, children(tree, q), m)
        if assigned is None:
            return None
        chosen += assigned
    return chosen


class _Drawn:
    """The items of an iterator, drawn only as far as they are read."""

    def __init__(self, it: Iterator[tuple[Word, Word]]):
        self._it = it
        self.items: list[tuple[Word, Word]] = []

    def get(self, j: int) -> Optional[tuple[Word, Word]]:
        while len(self.items) <= j:
            nxt = next(self._it, None)
            if nxt is None:
                return None
            self.items.append(nxt)
        return self.items[j]


def _first_per_prefix(
    table: OutputTable, tree: FiniteTree, top: Word, n: int
) -> Iterator[tuple[Word, Word]]:
    """(v, length-n output prefix) for the nodes v above top, in
    shortest-then-lex order, keeping the first node of each prefix: a later
    node with a prefix already offered can never be picked.

    A functional's prefix is use-monotone, so when top's own prefix
    reaches n, every node above top shares its n-prefix and top is the
    only one.
    """
    o = table.converged(top)
    if len(o) >= n:
        yield top, o[:n]
        return
    seen: set[Word] = set()
    for v in nodes_above(tree, top):
        o = table.converged(v)
        if len(o) >= n and o[:n] not in seen:
            seen.add(o[:n])
            yield v, o[:n]


def _assign_kids(
    table: OutputTable, tree: FiniteTree, kids: list[Word], sigma_len: int
) -> Optional[list[tuple[Word, Word]]]:
    """For each of the sibling nodes kids, a node above it whose output
    prefix at some common length n > sigma_len differs from all the
    siblings' prefixes: the kids themselves at their split length, if they
    have one, and otherwise the first choice of the pool search."""
    # a run cut short ends with a prefix too short to split
    ps = table.converged_run(kids, sigma_len + 1)
    n = _split_length(ps, sigma_len)
    if n is not None:
        return [(v, p[:n]) for v, p in zip(kids, ps)]
    # up to the shortest prefix read, every pool is its child alone (see
    # _first_per_prefix), so the search could only repeat the split test
    for n in range(max(sigma_len, min(map(len, ps))) + 1, table.depth + 1):
        pools = [_Drawn(_first_per_prefix(table, tree, v, n)) for v in kids]
        if any(p.get(0) is None for p in pools):
            continue
        chosen = _pick_distinct(pools, [])
        if chosen is not None:
            return chosen
    return None


def _split_length(ps: list[Word], m: int) -> Optional[int]:
    """The least n > m at which every prefix in ps is at least n long and
    their length-n prefixes are pairwise distinct, or None."""
    for n in range(m + 1, min(map(len, ps), default=m + 1) + 1):
        if len({p[:n] for p in ps}) == len(ps):
            return n
    return None


def _pick_distinct(
    pools: list[_Drawn], acc: list[tuple[Word, Word]]
) -> Optional[list[tuple[Word, Word]]]:
    if len(acc) == len(pools):
        return acc
    used = {o for _, o in acc}
    pool = pools[len(acc)]
    j = 0
    while (cand := pool.get(j)) is not None:
        if cand[1] not in used:
            res = _pick_distinct(pools, acc + [cand])
            if res is not None:
                return res
        j += 1
    return None


def _exits(run: Run, s: int, k: int) -> Iterator[Word]:
    """The nodes above the stem, the stem itself aside."""
    return islice(nodes_above(run.tree, run.stem), 1, None)


def diagonalize_surviving(
    k: int,
    adversaries: AdversaryFamily,
    stages: int,
    depth: int,
    fuel: int,
) -> RunRecord:
    if k < 2:
        raise ValueError("k must be >= 2")
    run = Run(adversaries, stages, depth, fuel, FiniteTree.full(k + 1, depth), k=k)
    for table, entry in run.p_stages(_exits):
        hit, tau = table.cases_a_b(run.stem, run.tree, k)
        if hit is not None:
            run.move(hit[0])
            run.diverge(table.functional, *hit)
            entry["case"] = "A"
        elif tau is not None:
            run.move(tau)
            entry["case"] = "B"
        elif (built := _case_c(table, k, run.stem, run.tree)) is not None:
            run.tree = built
            entry["case"] = "C"
        else:
            entry["case"] = "stuck"
    return run.record("surviving")

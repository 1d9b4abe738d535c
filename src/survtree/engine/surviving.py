"""Diagonalization engine producing a surviving condition over (k+1)^{<=d}.

The run alternates tree requirements (exit the e-th adversary k-tree) with
functional requirements (force the e-th functional to be partial, to take
few values, or to go through a (k+1)^n-bounded trace built by simultaneous
splitting).  Everything is deterministic: ties break to the least entry and
the shortest-then-lexicographically-first node.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, groupby, islice
from operator import eq, itemgetter, lt
from typing import Iterator, Optional

from ..staged import AdversaryFamily
from ..traces import TraceTable
from ..trees import FiniteTree, Word, children, rows_above
from .common import OutputTable, Run, RunRecord, nodes_above, trace_from_outputs

_parent = itemgetter(slice(None, -1))
_last = itemgetter(-1)


def _case_c(
    table: OutputTable, k: int, stem: Word, tree: FiniteTree
) -> Optional[tuple[FiniteTree, TraceTable]]:
    """Simultaneous splitting: the condition whose sibling subtrees carry
    pairwise distinct output prefixes, with those prefixes collected into a
    trace bounded by (k+1)^n.

    Level m lists the nodes t(sigma) for the length-m words sigma in lex
    order.  The b nodes assigned above t(sigma) are t(sigma 0) ...
    t(sigma k), so appending each node's assignment in turn lists the next
    level in lex order too, and no map keyed by sigma is needed.  A
    split's children are the tree's own words.

    A round whose children form one level slice reads them in order up to
    the first whose output is not the child itself (``OutputTable.own_row``).
    If there is none, the round is a row of siblings taken from the tree:
    the tops are its heads, and the children's last entries its row.
    Otherwise ``OutputTable.sibling_run`` reads the slice through the memo,
    takes its leading groups of sibling outputs with their row and stops
    inside the first other group; that group, every group after it, and
    every group of a round that is no slice, goes to ``_assign_kids``.  The
    round ends at the first group with no split, so nothing past it is
    read.  The trace is read off the rounds when each extends the one
    before by one entry (``_trace``), and otherwise built by
    ``trace_from_outputs``; only the rounds not taken whole are tested.

    The condition is the prefix closure of the last level's zero-paddings:
    the tree itself, handed back as it is, when those are its depth level
    and no leaf ends above the depth (the only outcome for configured
    functionals), and otherwise rebuilt from its levels.
    """
    b = k + 1
    depth = table.depth
    levels, counts = tree.levels(), tree.counts()
    tops = [stem]
    rounds: list[list[Word]] = []  # each round's outputs, in the order of its tops
    trace_rows: list[Optional[_Row]] = []  # each round's trace row, if it is one
    while True:
        m, n, size = len(rounds), len(tops[0]), len(tops)
        lo = bisect_left(levels[n], tops[0])
        if levels[n][lo:lo + size] == tops and counts[n][lo:lo + size].count(b) == size:
            # the tops are one run of a level, each with b children: their
            # children are one slice of the level below, b to a top
            start = bisect_left(levels[n + 1], tops[0])
            row = levels[n + 1][start:start + b * size]
            # own outputs are sibling outputs once longer than m: test
            # that first, so no node sibling_run would not read is read
            if len(row[0]) > m and table.own_row(row):
                ps, found_row = row, (tops, _lasts(row, b))
            else:
                ps, found_row = table.sibling_run(row, b, m)
            if len(ps) == len(row):
                # each group splits at its own full length
                tops = row
                rounds.append(ps)
                trace_rows.append(found_row)
                continue
            # the leading sibling groups split at their full length, and
            # the groups from the first other one on are searched
            chosen: list[tuple[Word, Word]] = list(zip(row, ps))
            found = (
                _assign_kids(table, tree, row[g:g + b], m) for g in range(len(ps), len(row), b)
            )
        else:
            # the working tree is full above the stem, so the first node
            # with a complete set of b children is the split to use
            splits = (
                next((w for row in rows_above(tree, top) for w, c in zip(*row) if c == b), None)
                for top in tops
            )
            found = (
                None if q is None else _assign_kids(table, tree, children(tree, q), m)
                for q in splits
            )
            chosen = []
        for assigned in found:
            if assigned is None:
                chosen = []
                break
            chosen += assigned
        if not chosen:
            break
        tops = [v for v, _ in chosen]
        rounds.append([o for _, o in chosen])
        trace_rows.append(None)
    if not rounds:
        return None
    # the tops are pairwise incomparable and in lex order, so their
    # zero-paddings are too; tops of the depth's length are their own
    padded = tops if min(map(len, tops)) >= depth else [w + (0,) * (depth - len(w)) for w in tops]
    if tree.depth == depth and padded == levels[depth] and all(map(all, counts[:depth])):
        new_tree = tree
    else:
        # each shorter level is the run of the distinct parents of the
        # level above it
        levels = [padded]
        while len(levels[-1][0]):
            levels.append([p for p, _ in groupby(w[:-1] for w in levels[-1])])
        new_tree = FiniteTree.from_levels(levels[::-1], tree.alphabet_bound)
    trace = _trace(rounds, trace_rows, depth, b)
    if trace is None:
        trace = trace_from_outputs(chain([()], *rounds), depth, b)
    return new_tree, trace


# a row of sibling outputs: each group's shared head, and per group its last
# entries, a row of a trace
_Row = tuple[list[Word], tuple[tuple[int, ...], ...]]


def _lasts(ps: list[Word], b: int) -> tuple[tuple[int, ...], ...]:
    """The last entries of ps, in groups of b; equal groups share a tuple."""
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple([seen.setdefault(g, g) for g in zip(*[map(_last, ps)] * b)])


def _sibling_row(ps: list[Word], b: int, m: int) -> Optional[_Row]:
    """The row of ps, in groups of b siblings, if they are all one length
    n > m and each group shares all but its last entry, its last entries
    increasing.  Each group then splits at n: its prefixes differ there and
    agree one entry sooner."""
    n = len(ps[0])
    if n <= m or set(map(len, ps)) != {n}:
        return None
    heads = list(map(_parent, ps[::b]))
    for i in range(1, b):
        if not all(map(eq, map(_parent, ps[i::b]), heads)) or not all(
            map(lt, map(_last, ps[i - 1::b]), map(_last, ps[i::b]))
        ):
            return None
    return heads, _lasts(ps, b)


def _trace(
    rounds: list[list[Word]], rows: list[Optional[_Row]], depth: int, b: int
) -> Optional[TraceTable]:
    """The trace of case C's outputs, with a row per round, or None unless
    every round is a sibling row and each later round's groups extend the
    outputs of the round before, in order: round 0's head is then a path
    to its row, each later round's lasts are the next row, and the last
    round's outputs have no children."""
    rows = [row or _sibling_row(outs, b, 0) for row, outs in zip(rows, rounds)]
    if None in rows or any(heads != before for (heads, _), before in zip(rows[1:], rounds)):
        return None
    (head,), _ = rows[0]
    trace = [((e,),) for e in head] + [lasts for _, lasts in rows]
    trace.append(((),) * len(rounds[-1]))
    trace += [()] * (depth - len(trace))
    return TraceTable(tuple(trace[:depth]), b)


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
    b = k + 1
    run = Run(adversaries, stages, depth, fuel, FiniteTree.full(b, depth), k=k)
    for table, entry in run.p_stages(_exits):
        fn = table.functional
        hit, tau = table.cases_a_b(run.stem, run.tree, k)
        if hit is not None:
            run.move(hit[0])
            run.diverge(fn, *hit)
            entry["case"] = "A"
        elif tau is not None:
            run.move(tau)
            outs = map(table.converged, run.tree.leaves())
            run.trace(fn, trace_from_outputs(outs, depth, b), kind="trace", case="B")
            entry["case"] = "B"
        elif (built := _case_c(table, k, run.stem, run.tree)) is not None:
            run.tree, trace = built
            run.trace(fn, trace, kind="trace", case="C")
            entry["case"] = "C"
        else:
            entry["case"] = "stuck"
    return run.record("surviving")

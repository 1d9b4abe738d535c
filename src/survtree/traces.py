"""Traces of bounded width: the trie of a function's output prefixes.

A function is traceable when its values lie on a trace of bounded width
(Terwijn and Zambella, "Computational randomness and lowness", JSL 2001).
The trie of the outputs on a tree's leaves, their levelwise prefixes, is
the tightest such trace: any trace that contains the outputs contains it.
So the outputs lie on a w-tree exactly when no word of their trie has more
than w children, which a table checks as it is built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from operator import itemgetter
from typing import Iterable

from .trees import Word

_parent = itemgetter(slice(None, -1))
_last = itemgetter(-1)


class BoundExceeded(Exception):
    """A word of a trace has more children than its width allows."""

    def __init__(self, word: Word, children: int, width: int):
        self.word = word
        self.children = children
        self.width = width
        super().__init__(f"word {word} has {children} children, width allows {width}")


@dataclass(frozen=True)
class TraceTable:
    """A trace as its level-order rows (LOUDS-style): level 0 is the empty
    word, and ``children[n]`` holds, per word of level n in lex order, the
    increasing tuple of its children's last entries; those children, in
    that order, are level n+1.  No word has more than ``width`` children,
    the first one that has, in level order, raising ``BoundExceeded``."""

    children: tuple[tuple[tuple[int, ...], ...], ...]
    width: int

    def __post_init__(self) -> None:
        for n, row in enumerate(self.children):
            if max(map(len, row), default=0) > self.width:
                i = next(i for i, es in enumerate(row) if len(es) > self.width)
                raise BoundExceeded(self.word(n, i), len(row[i]), self.width)

    @property
    def depth(self) -> int:
        return len(self.children)

    @property
    def levels(self) -> list[list[Word]]:
        """Per n = 0..depth, the words of level n in lex order, built on each call."""
        levels = [[()]]
        for row in self.children:
            levels.append([w + (e,) for w, es in zip(levels[-1], row) for e in es])
        return levels

    def word(self, n: int, i: int) -> Word:
        """Word i of level n, read up the rows: a word's parent is the one
        whose children's run holds it."""
        entries = []
        for row in reversed(self.children[:n]):
            ends = list(accumulate(map(len, row)))
            j = bisect_right(ends, i)
            entries.append(row[j][i - ends[j] + len(row[j])])
            i = j
        return tuple(reversed(entries))


def trace_from_outputs(outs: Iterable[Word], depth: int, width: int) -> TraceTable:
    """The trie of the outputs' levelwise prefixes to the depth, as
    level-order rows of at most width children a word, read bottom-up: the
    parents of a sorted level come in sorted order, so a level is sorted
    only when some output ends on it.  Each level keeps its outputs in
    arrival order, so outputs that come sorted sort in one run."""
    levels: list[dict[Word, None]] = [{(): None}] + [{} for _ in range(depth)]
    for o in outs:
        o = o[:depth]
        levels[len(o)][o] = None
    lv, rows = sorted(levels[depth]), []
    for n in range(depth, 0, -1):
        runs = {p: tuple(map(_last, run)) for p, run in groupby(lv, _parent)}
        lv = list(runs) if levels[n - 1].keys() <= runs.keys() else sorted(levels[n - 1] | runs)
        rows.append(tuple(map(runs.get, lv, repeat(()))))
    return TraceTable(tuple(rows[::-1]), width)

"""Level-indexed word sets with a size bound base**n (computable traces).

The canonical semantics is level sets of prefixes: level n holds the
length-n words, and a function "goes through" the trace when each of its
prefixes lies in the matching level.  A table keeps the levels as
level-order rows of child entries, the form a run record stores in runs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby
from operator import lt
from typing import Iterable, Optional

from .trees import Word


class BoundExceeded(Exception):
    """A level is larger than the declared bound allows."""

    def __init__(self, level: int, size: int, allowed: int):
        self.level = level
        self.size = size
        self.allowed = allowed
        super().__init__(f"level {level} has {size} words, bound allows {allowed}")


@dataclass(frozen=True)
class TraceTable:
    """A trace as its level-order rows (LOUDS-style), the form records store:
    level 0 is the empty word, and ``children[n]`` holds, per word of level n
    in lex order, the increasing tuple of its children's last entries; those
    children, in that order, are level n+1.  No word is spelled out, and
    the words of a run may share one tuple.  Level n holds at most base**n
    words."""

    children: tuple[tuple[tuple[int, ...], ...], ...]
    base: int
    # _offsets[n][i]: the index in level n+1 of word i's first child, built
    # by the first ``_index`` lookup
    _offsets: Optional[list] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(tuple, row)) for row in self.children)
        size = 1  # words on level n
        for n, row in enumerate(rows):
            if len(row) != size:
                raise ValueError(f"children row {n} has {len(row)} lists for {size} words")
            # a run of equal words is checked once; their entries' types,
            # which equality does not tell apart (True == 1), for the whole row
            if not all(_increasing(es) for es, _ in groupby(row)) or not (
                set(map(type, chain.from_iterable(row))) <= {int}
            ):
                i, es = next((i, es) for i, es in enumerate(row) if not _increasing(es))
                raise ValueError(f"level {n} word {i}: {list(es)} not increasing naturals")
            size = sum(map(len, row))
            check_level_size(n + 1, size, self.base)
            if not size:
                # below an empty level every row is empty, in one count
                tail = rows[n + 1:]
                if tail.count(()) < len(tail):
                    m, row = next((m, r) for m, r in enumerate(tail, n + 1) if r)
                    raise ValueError(f"children row {m} has {len(row)} lists for 0 words")
                break
        object.__setattr__(self, "children", rows)

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


def _increasing(es: tuple) -> bool:
    """Whether es are naturals in increasing order."""
    return all(type(e) is int for e in es) and all(map(lt, (-1, *es), es))


def check_level_size(n: int, size: int, base: int) -> None:
    """Raise BoundExceeded if level n's size is over base**n."""
    # base**n >= 2**n exceeds size once n reaches its bit length, so huge
    # powers of deep, small levels are never computed
    if (base < 2 or n < size.bit_length()) and size > base**n:
        raise BoundExceeded(n, size, base**n)


def _index(word: Word, tr: TraceTable) -> Optional[int]:
    """The index of word in its level, or None if it leaves the trace: the
    word is followed down the rows, one child entry per position.  The
    first lookup builds the table's offsets, as compact int rows."""
    if tr._offsets is None:
        rows = [array("q", accumulate(map(len, row), initial=0)) for row in tr.children]
        object.__setattr__(tr, "_offsets", rows)
    i = 0  # index of the word so far in its level
    for row, offsets, e in zip(tr.children, tr._offsets, word):
        es = row[i]
        j = bisect_left(es, e)
        if j == len(es) or es[j] != e:
            return None
        i = offsets[i] + j
    return i


def goes_through(prefix: Word, tr: TraceTable) -> bool:
    """True iff every initial segment of the prefix is in its level."""
    return first_outside((prefix,), tr) is None


def first_outside(prefixes: Iterable[Word], tr: TraceTable) -> Optional[int]:
    """The index of the first prefix that does not go through the trace, or
    None.  A prefix's head (all but its last entry) is followed from the
    root unless it is the head just followed, so that sibling outputs in
    level order share one walk and look up only their last entries."""
    depth, rows = tr.depth, tr.children
    head: Optional[Word] = None
    at: Optional[int] = None  # the head's index in its level, if it is in it
    for i, p in enumerate(prefixes):
        if len(p) > depth:
            raise ValueError(f"prefix of length {len(p)} exceeds trace depth {depth}")
        if not p:
            continue
        if p[:-1] != head:
            head = p[:-1]
            at = _index(head, tr)
        if at is None:
            return i
        es = rows[len(head)][at]
        j = bisect_left(es, p[-1])
        if j == len(es) or es[j] != p[-1]:
            return i
    return None

"""Level-indexed word sets with explicit size bounds (computable traces).

The canonical semantics is level sets of prefixes: level n holds the
length-n words, and a function "goes through" the trace when each of its
prefixes lies in the matching level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import FiniteTree, Word


class BoundExceeded(Exception):
    """A level is larger than the declared bound allows."""

    def __init__(self, level: int, size: int, allowed: int):
        self.level = level
        self.size = size
        self.allowed = allowed
        super().__init__(
            f"level {level} has {size} words, bound allows {allowed}"
        )


@dataclass(frozen=True)
class LevelBound:
    """A machine-checkable bound descriptor: n -> base**n."""

    kind: str
    base: int

    def __post_init__(self) -> None:
        if self.kind != "pow":
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.base < 1:
            raise ValueError("bound base must be >= 1")

    def __call__(self, n: int) -> int:
        return self.base**n


@dataclass(frozen=True)
class TraceTable:
    """Prefix-coherent levels of words, level n all of length n."""

    levels: tuple[frozenset[Word], ...]
    bound: LevelBound

    def __post_init__(self) -> None:
        small = self.bound.base < 2
        above: frozenset[Word] = frozenset()
        for n, lv in enumerate(self.levels):
            for w in lv:
                if len(w) != n:
                    raise ValueError(f"word {w} in level {n} has wrong length")
                if n > 0 and w[:-1] not in above:
                    raise ValueError(f"level {n} not prefix-coherent at {w}")
            above = lv
            # base**n >= 2**n exceeds len(lv) once n reaches its bit length,
            # so huge powers of deep, small levels are never computed
            if (small or n < len(lv).bit_length()) and len(lv) > self.bound(n):
                raise BoundExceeded(n, len(lv), self.bound(n))

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def words(self) -> list[Word]:
        """All words shortest-first, then lexicographically (``word_key`` order)."""
        return [w for lv in self.levels for w in sorted(lv)]


def to_tree(tr: TraceTable) -> FiniteTree:
    """The tree of all words appearing in a trace."""
    return FiniteTree.from_words(tr.words())


def goes_through(prefix: Word, tr: TraceTable) -> bool:
    """True iff every initial segment of the prefix is in its level: since
    the levels are prefix-coherent, iff the prefix is in its own."""
    if len(prefix) > tr.depth:
        raise ValueError(
            f"prefix of length {len(prefix)} exceeds trace depth {tr.depth}"
        )
    return prefix in tr.levels[len(prefix)]

"""Staged growth of a 3-tree that escapes a family of claimed branching trees.

Every node always keeps its 0-successor.  At stage s a node p may gain the
candidate successor p^s, decided by how many successors p has at the start
of the stage and by what the level's adversary has revealed so far:

  one successor yet   - admit the fresh candidate only while the adversary
                        looks like a k-branching tree containing p and has
                        already shown p^0.
  two successors      - admit only at the moment the adversary shows exactly
                        k successors of p (it must split there, and the
                        fresh entry can never join it).
  three successors    - nothing more, ever.

A node is probed only until its outcome is fixed.  It is settled for good
once it has three successors, once its level has no adversary (after its
0-successor is added), or once it is not admitted at a stage from which the
adversary's answers about it no longer change (``probe_settled``).  Within a
stage the order of the nodes does not matter: each node's successor count is
its own, and the adversary's decisions are pure.

The pairing of levels to adversaries is injectable so other constructions
can reuse the growth loop with their own level coding.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..staged import (
    AdversaryFamily,
    Verdict,
    index_pair,
    looks_like_branching,
    probe_settled,
    shown_successors,
)
from ..trees import FiniteTree, TriState, Word
from .common import RunRecord

LevelCode = Callable[[int], tuple[int, int]]


def build_3tree(
    adversaries: AdversaryFamily,
    depth: int,
    stages: int,
    level_code: Optional[LevelCode] = None,
) -> tuple[FiniteTree, Word]:
    """Grow the tree for the given number of stages; also return the
    rightmost (largest-entry) path from the root."""
    if level_code is None:
        level_code = index_pair
    trees = adversaries.staged_trees
    claims = []  # per level below the depth: (adversary or None, k)
    for n in range(depth):
        e, k = level_code(n)
        claims.append((trees[e] if 0 <= e < len(trees) else None, k))
    succ: dict[Word, int] = {(): 0}  # node -> successor count
    open_nodes: list[Word] = [()] if depth > 0 else []
    for s in range(1, stages + 1):
        still_open: list[Word] = []
        for p in open_nodes:
            nsucc = succ[p]
            if nsucc == 0:
                succ[p] = 1
                succ[p + (0,)] = 0
                if len(p) + 1 < depth:
                    still_open.append(p + (0,))
            adv, k = claims[len(p)]
            if adv is None:
                continue
            if nsucc <= 1:
                # the candidate p^s is fresh at stage s, so never decided In
                admit = (
                    looks_like_branching(adv, k, p, s) is Verdict.YES
                    and adv.decide(p + (0,), s) is TriState.IN
                )
            else:
                admit = shown_successors(adv, p, s) == k
            if admit:
                succ[p] += 1
                succ[p + (s,)] = 0
                if len(p) + 1 < depth:
                    still_open.append(p + (s,))
                if succ[p] < 3:
                    still_open.append(p)
            elif not probe_settled(adv, p, s):
                still_open.append(p)
        open_nodes = still_open
    tree = FiniteTree(frozenset(succ))
    # the lexicographically greatest node ends the rightmost path
    return tree, max(tree.nodes)


def build3_record(adversaries: AdversaryFamily, depth: int, stages: int) -> RunRecord:
    """The run record of ``build_3tree``: its tree, with the rightmost path
    as the stem."""
    tree, path = build_3tree(adversaries, depth, stages)
    return RunRecord(
        engine="build3",
        parameters={"depth": depth, "stages": stages},
        family_config=adversaries.config,
        stage_log=[],
        final_stem=path,
        final_tree=tree,
        certificates=[],
        status="complete",
    )

"""Staged growth of a 3-tree that escapes a family of claimed branching trees.

Every node always keeps its 0-successor.  At stage s a node p may gain the
candidate successor p^s, decided by how many successors p already has and
by what the level's adversary has revealed so far:

  one successor yet   - admit the fresh candidate only while the adversary
                        looks like a k-branching tree containing p and has
                        already shown p^0; otherwise candidates up to s are
                        forbidden for good.
  two successors      - admit only at the moment the adversary shows exactly
                        k successors of p (it must split there, and the
                        fresh entry can never join it).
  three successors    - nothing more, ever.

The pairing of levels to adversaries is injectable so other constructions
can reuse the growth loop with their own level coding.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..staged import AdversaryFamily, Verdict, index_pair, looks_like_branching
from ..trees import FiniteTree, TriState, Word, word_key
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
    nodes: set[Word] = {()}
    forbidden: set[Word] = set()
    for s in range(1, stages + 1):
        snapshot = sorted((w for w in nodes if len(w) < depth), key=word_key)
        counts = {p: 0 for p in snapshot}
        for w in nodes:
            if w and w[:-1] in counts:
                counts[w[:-1]] += 1
        for p in snapshot:
            nodes.add(p + (0,))
            cand = p + (s,)
            if cand in forbidden:
                continue
            e, k = level_code(len(p))
            adv = (
                adversaries.staged_trees[e]
                if 0 <= e < len(adversaries.staged_trees)
                else None
            )
            nsucc = counts[p]
            if nsucc <= 1:
                if adv is None or looks_like_branching(adv, k, p, s) is not Verdict.YES:
                    forbidden.update(p + (i,) for i in range(1, s + 1))
                    continue
                if adv.decide(p + (0,), s) is not TriState.IN:
                    forbidden.add(cand)
                    continue
                if adv.decide(cand, s) is not TriState.IN:
                    nodes.add(cand)
            elif nsucc == 2:
                if adv is None:
                    continue
                shown = sum(
                    1
                    for i in range(min(s, adv.alphabet_bound or s))
                    if adv.decide(p + (i,), s) is TriState.IN
                )
                if shown == k:
                    nodes.add(cand)
            # three successors: the node is closed for good
    tree = FiniteTree.from_words(nodes)
    path: Word = ()
    cm = tree.child_map()
    while cm.get(path):
        path = path + (max(cm[path]),)
    return tree, path


def build3_record(adversaries: AdversaryFamily, depth: int, stages: int) -> RunRecord:
    """The run record of ``build_3tree``: its tree, with the rightmost path
    as the stem, and the 3-tree shape it promises."""
    tree, path = build_3tree(adversaries, depth, stages)
    return RunRecord(
        engine="build3",
        parameters={"depth": depth, "stages": stages},
        family_config=adversaries.config,
        stage_log=[],
        final_stem=path,
        final_tree=tree,
        traces=[],
        certificates=[
            {"kind": "shape", "predicate": "ktree", "k": 3, "depth": depth}
        ],
        status="complete",
    )

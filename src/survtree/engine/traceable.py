"""Labeled pruning engine: a 3-tree condition whose branches escape claimed
branching trees and whose functional outputs on its leaves lie on 3-trees.

Nodes carry task labels; the nonzero labels along any branch always read
off an initial segment of the task schedule 1,1,2,1,2,3,...  Even stages
descend through a node labeled r to a successor outside the r-th claimed
branching tree.  Odd stages either restrict to a divergence-forcing node or
prune: labeled nodes admit successors one at a time, each admission moving
every other leaf up to a label-matched extension whose outputs disagree
with the newcomer's at a fresh position, then repairing the newcomer's
branch so its label sequence continues the schedule.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..staged import AdversaryFamily, index_pair
from ..trees import FiniteTree, Word, children, is_prefix, prefixes, word_key
from .build3 import build_3tree
from .common import (
    LabeledCondition,
    OutputTable,
    Run,
    RunRecord,
    nodes_above,
    schedule,
)


def initial_condition(
    adversaries: AdversaryFamily, depth: int, stages: int
) -> LabeledCondition:
    """Base tree grown with the schedule's level coding; level i of the
    tree carries task schedule(i)."""
    tree, _ = build_3tree(
        adversaries,
        depth,
        stages,
        level_code=lambda n: index_pair(schedule(n) - 1),
    )
    tree = _prune_to_depth(tree, depth)
    labels = {w: schedule(len(w)) for w in tree.nodes}
    return LabeledCondition((), tree, labels)


def _prune_to_depth(tree: FiniteTree, depth: int) -> FiniteTree:
    """Keep only nodes lying on a branch that reaches the working depth."""
    keep = set()
    for leaf in tree.nodes:
        if len(leaf) == depth:
            keep.update(prefixes(leaf))
    alive = {w for w in tree.nodes if w in keep}
    return FiniteTree.from_words(alive, alphabet_bound=tree.alphabet_bound)


class _LabeledRun(Run):
    """A run whose nodes carry task labels: moving the stem renumbers every
    node from it, 0 on the stem's proper prefixes."""

    labels: dict[Word, int]

    def move(self, stem: Word) -> None:
        super().move(stem)
        self.labels = {
            w: 0 if is_prefix(w, stem) and w != stem else schedule(len(w) - len(stem))
            for w in self.tree.nodes
        }


def _exits(run: _LabeledRun, s: int, k: int) -> Iterator[Word]:
    """R_i's exit candidates, for i = s // 2: the children of the nodes
    above the stem labeled i+1, node by node."""
    for tau in nodes_above(run.tree, run.stem):
        if run.labels[tau] == s // 2 + 1:
            yield from children(run.tree, tau)


def _prune_once(
    table: OutputTable,
    stem: Word,
    tree: FiniteTree,
    labels: dict[Word, int],
    depth: int,
) -> tuple[Word, FiniteTree, dict[Word, int], dict]:
    """Steps 1-8: admit labeled-node successors one at a time."""
    p_next = next(
        (w for w in nodes_above(tree, stem) if labels[w] == 1), stem
    )
    new_labels: dict[Word, int] = {}
    for w in prefixes(p_next):
        new_labels[w] = 0
    new_labels[p_next] = 1
    rejected: set[Word] = set()
    admitted = 0
    log_admissions: list[dict] = []

    while True:
        candidate = None
        for w in sorted(new_labels, key=word_key):
            if new_labels[w] == 0:
                continue
            for q in children(tree, w):
                if q not in new_labels and q not in rejected:
                    candidate = q
                    break
            if candidate:
                break
        if candidate is None:
            break
        q = candidate
        plan = _admission_plan(
            table.converged, tree, labels, new_labels, q, depth,
            _members_leaves(new_labels, tree),
        )
        if plan is None:
            rejected.add(q)
            continue
        tau, q_prime, moves = plan
        for sigma, tau_sigma in moves:
            # splice: the path from the old leaf to its replacement enters
            # splitlessly, and the task label rides up to the far end
            for i in range(len(sigma), len(tau_sigma)):
                new_labels[tau_sigma[:i]] = 0
            new_labels[tau_sigma] = labels[tau_sigma]
        for i in range(len(q), len(q_prime)):
            new_labels[q_prime[:i]] = 0
        new_labels[q_prime] = labels[q_prime]
        admitted += 1
        log_admissions.append(
            {"candidate": list(q), "via": list(tau), "repair": list(q_prime),
             "moves": [[list(a), list(b)] for a, b in moves]}
        )

    # every branch runs to the working depth, labels continuing the schedule
    final_labels = dict(new_labels)
    for leaf in _members_leaves(final_labels, tree):
        consumed = sum(
            1 for i in range(len(leaf) + 1) if final_labels[leaf[:i]] != 0
        )
        node = leaf
        while len(node) < depth:
            nxt = children(tree, node)[0]
            final_labels[nxt] = schedule(consumed)
            consumed += 1
            node = nxt
    new_tree = FiniteTree.from_words(final_labels, alphabet_bound=tree.alphabet_bound)
    log = {"case": "prune", "admissions": admitted, "detail": log_admissions}
    return p_next, new_tree, final_labels, log


def _members_leaves(members: dict[Word, int], tree: FiniteTree) -> list[Word]:
    return sorted(
        (w for w in members if not any(c in members for c in children(tree, w))),
        key=word_key,
    )


def _admission_plan(
    conv,
    tree: FiniteTree,
    labels: dict[Word, int],
    new_labels: dict[Word, int],
    q: Word,
    depth: int,
    leaves: list[Word],
) -> Optional[tuple[Word, Word, list[tuple[Word, Word]]]]:
    """A full plan for admitting q, or None.

    Returns (tau, q_prime, moves): tau extends q and disagrees with the
    label-matched extension tau_sigma of every other leaf sigma at some
    position below a common convergence length; q_prime extends tau and
    continues the branch's schedule of nonzero labels.
    """
    others = [s for s in leaves if not is_prefix(s, q)]
    consumed = sum(1 for i in range(len(q)) if new_labels[q[:i]] != 0)
    want = schedule(consumed)

    def repair(tau: Word) -> Optional[Word]:
        for qp in nodes_above(tree, tau):
            if labels[qp] == want:
                return qp
        return None

    if not others:
        qp = repair(q)
        if qp is None:
            return None
        return q, qp, []

    for m in range(len(q) + 1, depth):
        for tau in nodes_above(tree, q):
            o_tau = conv(tau)
            if len(o_tau) < m + 1:
                continue
            moves = []
            ok = True
            for sigma in others:
                found = None
                for ts in nodes_above(tree, sigma):
                    if labels[ts] != new_labels[sigma]:
                        continue
                    o_ts = conv(ts)
                    if len(o_ts) < m + 1:
                        continue
                    if o_ts[:m] != o_tau[:m]:
                        found = ts
                        break
                if found is None:
                    ok = False
                    break
                moves.append((sigma, found))
            if not ok:
                continue
            qp = repair(tau)
            if qp is None:
                continue
            return tau, qp, moves
    return None


def traceable_prune(
    start: LabeledCondition,
    adversaries: AdversaryFamily,
    stages: int,
    depth: int,
    fuel: int,
) -> RunRecord:
    run = _LabeledRun(adversaries, stages, depth, fuel, start.tree, start.stem)
    run.labels = dict(start.labels)
    for table, entry in run.p_stages(_exits):
        hit, _ = table.cases_a_b(run.stem, run.tree)
        if hit is not None:
            run.move(hit[0])
            run.diverge(table.functional, *hit)
            entry["case"] = "escape"
            continue
        run.stem, run.tree, run.labels, log = _prune_once(
            table, run.stem, run.tree, run.labels, depth
        )
        entry.update(log)
    return run.record("traceable", labels=run.labels)

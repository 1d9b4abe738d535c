"""Forcing with accelerating trees: each successive splitting node on a
branch splits wider (the i-th split has at least i+3 successors), so there
is always room to step outside any claimed k-branching adversary, and the
majority-vote prune of Case 4 squeezes functional outputs into a 2-tree.

The working tree starts implicit (every word over the naturals up to the
working depth, above the stem) and becomes an explicit skeleton the first
time Case 4 prunes it.
"""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Iterator, Optional

from ..staged import AdversaryFamily
from ..trees import FiniteTree, Word, children, is_prefix, prefixes, word_key
from .common import (
    OutputTable,
    Run,
    RunRecord,
    nodes_above,
    pairwise_consistent,
)

_PROBE_ENTRIES = 4
_PROBE_LEN = 3
# the most candidate extensions case 4 may try in a run `survtree run` starts:
# depths 20 to 26 reach 278,082 (the standard family at d24 and 8 stages
# runs in about 1.8 s on a 2-vCPU guest), and depth 27 reaches 5.8 million
CASE4_CANDIDATE_LIMIT = 300_000


def case4_candidates(depth: int) -> int:
    """The most candidates case 4 can try below this depth, summed level by
    level until the sum passes CASE4_CANDIDATE_LIMIT.  With the stem at the
    root, the split nodes of level L have length sum_{i<L} (i+2), the level
    fits while they have room for its L+2 rounds, and each of its
    prod_{i<L} (i+3) split nodes tries 3^(L+2) extensions."""
    total, nodes, length, level = 0, 1, 0, 0
    while length + level + 2 <= depth and total <= CASE4_CANDIDATE_LIMIT:
        total += nodes * 3 ** (level + 2)
        nodes *= level + 3
        length += level + 2
        level += 1
    return total


def _probes(stem: Word, tree: Optional[FiniteTree], depth: int) -> list[Word]:
    """Depth-padded sample branches above the stem, in canonical order."""
    if tree is not None:
        return sorted(
            (L for L in tree.leaves() if is_prefix(stem, L)), key=word_key
        )
    padded = set()
    for length in range(_PROBE_LEN + 1):
        for suffix in product(range(_PROBE_ENTRIES), repeat=length):
            w = stem + suffix
            if len(w) <= depth:
                padded.add(w + (0,) * (depth - len(w)))
    return sorted(padded, key=word_key)


def _suffixes(rounds: int) -> list[Word]:
    """The 3^rounds candidate extensions of a split node, in order: j, then
    j's base-3 digits 1 to rounds - 1."""
    return [
        (j,) + tuple((j // 3 ** t) % 3 for t in range(1, rounds))
        for j in range(3 ** rounds)
    ]


def _case4(table: OutputTable, stem: Word, depth: int) -> tuple[Optional[FiniteTree], dict]:
    """Majority-vote prune: the i-th split level keeps i+3 successors whose
    outputs disagree pairwise at staged positions, so output prefixes form
    a 2-tree.

    The tree's sorted levels and child counts are its own rows: the stem's
    path; per split level the split nodes, the kept words' intermediate
    nodes and the kept words, in order since each split keeps its words in
    order; then the last split nodes padded with 0s to the depth."""
    levels = [[stem[:n]] for n in range(len(stem))]
    counts = [[1] for _ in stem]
    split_nodes = [stem]
    log_levels = []
    shortage = None
    level = 0
    while True:
        rounds = level + 2  # the level-th split keeps rounds + 1 successors
        length = len(split_nodes[0])
        if length + rounds > depth:
            shortage = {"level": level, "need": rounds, "room": depth - length}
            break
        suffixes = _suffixes(rounds)
        kept_lists = []
        for sigma in split_nodes:
            kept, positions = _prune_split(table, sigma, suffixes)
            if kept is None:
                break
            kept_lists.append(kept)
            log_levels.append(
                {"split": list(sigma), "kept": [list(w) for w in kept],
                 "positions": positions}
            )
        if len(kept_lists) < len(split_nodes):
            if level == 0:
                return None, {"case": "no-disagreement"}
            shortage = {"level": level, "reason": "no disagreement"}
            break
        levels.append(split_nodes)
        counts.append(list(map(len, kept_lists)))
        split_nodes = list(chain.from_iterable(kept_lists))
        for n in range(length + 1, length + rounds):
            levels.append([w[:n] for w in split_nodes])
            counts.append([1] * len(split_nodes))
        level += 1
    for _ in range(len(split_nodes[0]), depth):
        levels.append(split_nodes)
        counts.append([1] * len(split_nodes))
        split_nodes = [w + (0,) for w in split_nodes]
    levels.append(split_nodes)
    counts.append([0] * len(split_nodes))
    log = {"case": "4", "levels": log_levels}
    if shortage is not None:
        log["shortage"] = shortage
    return FiniteTree(None, None, levels, counts), log


def _prune_split(
    table: OutputTable, sigma: Word, suffixes: list[Word]
) -> tuple[Optional[list[Word]], list[int]]:
    """From the candidate extensions sigma + suffix, keep a survivor plus
    one dissenter per round; kept nodes take distinct first entries and
    their outputs pairwise disagree at the recorded positions.

    The candidates' outputs are read in one row.  A round's position is
    the first column past the last round's, and short of the shortest live
    output, with two values; the majority is its most common value, the
    least of those tied, and the dissenter the first live candidate off it."""
    cands = [sigma + x for x in suffixes]
    outs = table.converged_run(cands, 0)
    alive = range(len(cands))
    reps: list[int] = []
    positions: list[int] = []
    m = -1
    for _ in range(len(suffixes[0])):
        # zip stops at the shortest live output
        cols = islice(zip(*[outs[j] for j in alive]), m + 1, None)
        found = next(((n, c) for n, c in enumerate(cols, m + 1) if c.count(c[0]) < len(c)), None)
        if found is None:
            return None, positions
        m, col = found
        tally = {v: col.count(v) for v in set(col)}
        best = max(tally.values())
        majority = min(v for v, c in tally.items() if c == best)
        reps.append(next(j for j, v in zip(alive, col) if v != majority))
        positions.append(m)
        alive = [j for j, v in zip(alive, col) if v == majority]
    kept = sorted({*reps, alive[0]})
    return [cands[j] for j in kept], positions


def accelerating_force(
    adversaries: AdversaryFamily,
    stages: int,
    depth: int,
    fuel: int,
) -> RunRecord:
    run = Run(adversaries, stages, depth, fuel, None)  # None: implicit full tree above stem
    for table, entry in run.p_stages(_exits):
        fn = table.functional
        probes = _probes(run.stem, run.tree, depth)
        case1 = next(
            (
                n
                for n in range(depth)
                if all(table.value(p, n) is None for p in probes)
            ),
            None,
        )
        if case1 is not None:
            run.diverge(fn, run.stem, case1)
            entry["case"] = "1"
            continue
        case2 = None
        for n in range(depth):
            for p in probes:
                v = table.value(p, n)
                if v is not None and v >= 3:
                    case2 = (p[: n + 1], n, v)
                    break
            if case2:
                break
        if case2 is not None:
            node, n, v = case2
            if is_prefix(run.stem, node):
                run.move(node)
            run.certificates.append(
                {"kind": "value_witness", "functional": fn.id,
                 "node": list(node), "position": n, "value": v}
            )
            entry.update(case="2", position=n)
            continue
        outs = [table.converged(p) for p in probes]
        if pairwise_consistent(outs):
            run.certificates.append(
                {"kind": "constant_outputs", "functional": fn.id,
                 "probes": [list(p) for p in probes]}
            )
            entry["case"] = "3"
            continue
        if run.tree is not None:
            entry["case"] = "stuck"
            continue
        new_tree, log = _case4(table, run.stem, depth)
        entry.update(log)
        if new_tree is None:
            run.complete = False
            continue
        run.tree = new_tree

    if run.tree is None:
        run.tree = FiniteTree.from_words(prefixes(run.stem + (0,) * (depth - len(run.stem))))
    return run.record("accelerating")


def _exits(run: Run, s: int, k: int) -> Iterator[Word]:
    """The successors at nodes wide enough to leave a k-tree: below the
    depth, stem^i for i < query while the tree is implicit; otherwise the
    children of the nodes above the stem with more than k children."""
    if run.tree is None:
        if len(run.stem) < run.depth:
            yield from (run.stem + (i,) for i in range(run.query))
        return
    for w in nodes_above(run.tree, run.stem):
        kids = children(run.tree, w)
        if len(kids) > k:
            yield from kids

"""Diagonalization engine producing a surviving condition over (k+1)^{<=d}.

The run alternates tree requirements (exit the e-th adversary k-tree) with
functional requirements (force the e-th functional to be partial, to take
few values, or to go through a (k+1)^n-bounded trace built by simultaneous
splitting).  Everything is deterministic: ties break to the least entry and
the shortest-then-lexicographically-first node.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..staged import AdversaryFamily, StagedTree, tree_bound_violation
from ..traces import TraceTable
from ..trees import (
    FiniteTree,
    TriState,
    Word,
    prefixes,
    subtree_above,
    word_key,
)
from .common import (
    OutputTable,
    RunRecord,
    divergence_escape,
    nodes_above,
    trace_from_outputs,
)


def _tree_stage(
    adv: StagedTree, k: int, stem: Word, tree: FiniteTree, query: int
) -> tuple[Optional[Word], FiniteTree, dict, Optional[dict]]:
    """One avoidance stage; returns (new stem or None, tree, log, cert)."""
    witness = tree_bound_violation(adv, k, query)
    if witness is not None:
        cert = {
            "kind": "vacuous_tree_requirement",
            "tree": adv.id,
            "k": k,
            "witness": list(witness),
            "stage": query,
        }
        return None, tree, {"case": "vacuous", "witness": list(witness)}, cert
    if adv.decide(stem, query) is TriState.OUT:
        cert = {
            "kind": "avoidance",
            "tree": adv.id,
            "witness": list(stem),
            "stage": query,
        }
        return None, tree, {"case": "already-out"}, cert
    cm = tree.child_map()
    for q in nodes_above(tree, stem):
        for i in cm[q]:
            if adv.decide(q + (i,), query) is TriState.OUT:
                new_stem = q + (i,)
                cert = {
                    "kind": "avoidance",
                    "tree": adv.id,
                    "witness": list(new_stem),
                    "stage": query,
                }
                log = {"case": "exit", "witness": list(new_stem)}
                return new_stem, subtree_above(tree, new_stem), log, cert
    return None, tree, {"case": "stuck"}, None


def _case_b(
    table: OutputTable, k: int, stem: Word, tree: FiniteTree
) -> Optional[Word]:
    """First non-leaf node whose branch outputs take at most k values per level.

    The distinct outputs of a node's branches are merged bottom-up.  A
    level over k stays over k in every ancestor, so the node and all its
    ancestors are ruled out at once and their merges skipped.
    """
    cm = tree.child_map()
    order = list(nodes_above(tree, stem))
    over: set[Word] = set()
    merged: dict[Word, set[Word]] = {}
    for w in reversed(order):
        if w in over:
            continue
        kids = cm[w]
        if not kids:
            merged[w] = {table.converged(w)}
            continue
        outs = set().union(*(merged.pop(w + (i,)) for i in kids))
        if _widest_level(outs) > k:
            a = w
            while len(a) >= len(stem) and a not in over:
                over.add(a)
                a = a[:-1]
        else:
            merged[w] = outs
    return next(
        (t for t in order if len(t) < tree.depth and t not in over), None
    )


def _widest_level(outs: set[Word]) -> int:
    """The largest number of distinct length-n prefixes of outs, n >= 1."""
    level: set[Word] = set()
    widest = 0
    for n in range(max(map(len, outs)), 0, -1):
        level = {p[:n] for p in level} | {o for o in outs if len(o) == n}
        widest = max(widest, len(level))
    return widest


def _case_c(
    table: OutputTable, k: int, stem: Word, tree: FiniteTree
) -> Optional[tuple[FiniteTree, TraceTable]]:
    """Simultaneous splitting: rebuild the condition so sibling subtrees
    carry pairwise distinct output prefixes, collecting those prefixes
    into a trace bounded by (k+1)^n."""
    b = k + 1
    depth = table.depth
    cm = tree.child_map()
    t_map: dict[Word, Word] = {(): stem}
    u_map: dict[Word, Word] = {(): ()}
    level: list[Word] = [()]
    while True:
        additions: dict[Word, tuple[Word, Word]] = {}
        for sigma in level:
            # the working tree is full above the stem, so the first node
            # with a complete set of b children is the split to use
            q = next(
                (w for w in nodes_above(tree, t_map[sigma]) if len(cm[w]) == b),
                None,
            )
            assigned = (
                None if q is None else _assign_distinct(table, tree, q, len(sigma))
            )
            if assigned is None:
                additions = {}
                break
            for i, (v, out) in enumerate(assigned):
                additions[sigma + (i,)] = (v, out)
        if not additions:
            break
        for key, (v, out) in additions.items():
            t_map[key] = v
            u_map[key] = out
        level = sorted(additions, key=word_key)
    if len(t_map) == 1:
        return None
    deepest = max(len(s) for s in t_map)
    nodes = {()}
    for s, w in t_map.items():
        if len(s) == deepest:
            p = w + (0,) * (depth - len(w))
            while p not in nodes:
                nodes.add(p)
                p = p[:-1]
    new_tree = FiniteTree(frozenset(nodes), tree.alphabet_bound)
    return new_tree, trace_from_outputs(u_map.values(), depth, b)


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
    node with a prefix already offered can never be picked."""
    seen: set[Word] = set()
    for v in nodes_above(tree, top):
        o = table.converged(v)
        if len(o) >= n and o[:n] not in seen:
            seen.add(o[:n])
            yield v, o[:n]


def _assign_distinct(
    table: OutputTable, tree: FiniteTree, q: Word, sigma_len: int
) -> Optional[list[tuple[Word, Word]]]:
    """For each child of q, a node above it whose output prefix at some
    common length n > sigma_len differs from all the siblings' prefixes."""
    for n in range(sigma_len + 1, table.depth + 1):
        pools = [
            _Drawn(_first_per_prefix(table, tree, q + (i,), n))
            for i in tree.child_map()[q]
        ]
        if any(p.get(0) is None for p in pools):
            continue
        chosen = _pick_distinct(pools, [])
        if chosen is not None:
            return chosen
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
    query = depth + stages + 32
    stem: Word = ()
    tree = FiniteTree.full(b, depth)
    stage_log: list[dict] = []
    certificates: list[dict] = []
    traces: list[tuple[int, TraceTable]] = []
    status = "complete"

    for s in range(stages):
        idx = s // 2
        if s % 2 == 0:
            if idx >= len(adversaries.staged_trees):
                stage_log.append({"stage": s, "requirement": None, "case": "skip"})
                continue
            adv = adversaries.staged_trees[idx]
            new_stem, tree, log, cert = _tree_stage(adv, k, stem, tree, query)
            stage_log.append({"stage": s, "requirement": f"R{idx}", **log})
            if cert is None:
                status = "incomplete"
                break
            if new_stem is not None:
                stem = new_stem
            certificates.append(cert)
            continue
        if idx >= len(adversaries.functionals):
            stage_log.append({"stage": s, "requirement": None, "case": "skip"})
            continue
        fn = adversaries.functionals[idx]
        table = OutputTable(fn, fuel, depth)
        hit = divergence_escape(table, stem, tree)
        if hit is not None:
            node, n = hit
            stem = node
            tree = subtree_above(tree, stem)
            certificates.append(
                {
                    "kind": "presumed_divergence",
                    "functional": fn.id,
                    "node": list(node),
                    "position": n,
                    "fuel": fuel,
                }
            )
            stage_log.append(
                {"stage": s, "requirement": f"P{idx}", "case": "A",
                 "fuel_spent": table.evals}
            )
            continue
        tau = _case_b(table, k, stem, tree)
        if tau is not None:
            stem = tau
            tree = subtree_above(tree, stem)
            outs = map(table.converged, tree.leaves())
            traces.append((fn.id, trace_from_outputs(outs, depth, b)))
            certificates.append(
                {
                    "kind": "trace",
                    "functional": fn.id,
                    "case": "B",
                    "trace_index": len(traces) - 1,
                    "fuel": fuel,
                }
            )
            stage_log.append(
                {"stage": s, "requirement": f"P{idx}", "case": "B",
                 "fuel_spent": table.evals}
            )
            continue
        built = _case_c(table, k, stem, tree)
        if built is None:
            status = "incomplete"
            stage_log.append(
                {"stage": s, "requirement": f"P{idx}", "case": "stuck",
                 "fuel_spent": table.evals}
            )
            break
        tree, trace = built
        traces.append((fn.id, trace))
        certificates.append(
            {
                "kind": "trace",
                "functional": fn.id,
                "case": "C",
                "trace_index": len(traces) - 1,
                "fuel": fuel,
            }
        )
        stage_log.append(
            {"stage": s, "requirement": f"P{idx}", "case": "C",
             "fuel_spent": table.evals}
        )

    certificates.append(
        {"kind": "shape", "predicate": "kbranching", "k": b, "depth": depth}
    )
    return RunRecord(
        engine="surviving",
        parameters={
            "k": k, "depth": depth, "stages": stages, "fuel": fuel,
            "query_stage": query,
        },
        family_config=adversaries.config,
        stage_log=stage_log,
        final_stem=stem,
        final_tree=tree,
        traces=traces,
        certificates=certificates,
        status=status,
    )

"""Shared condition types, the task schedule, the stage schedule and the
tree-requirement stage, per-stage output tables, tree walks, run records
and the run driver the staged engines share."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, repeat
from operator import and_, eq, is_not
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from ..io_formats import json_to_tree, json_to_word, payload_digest, tree_to_json
from ..staged import (
    AdversaryFamily,
    OracleFunctional,
    StagedTree,
    family_from_config,
    index_pair,
    tree_bound_violation,
)
from ..trees import (
    FiniteTree,
    TriState,
    Word,
    full_rows,
    prefixes,
    rows_above,
    subtree_above,
    word_key,
)


def schedule(i: int) -> int:
    """Term i of 1,1,2,1,2,3,1,2,3,4,...: block m lists 1..m."""
    if i < 0:
        raise ValueError("schedule is indexed from 0")
    m = 1
    while i >= m:
        i -= m
        m += 1
    return i + 1


def is_schedule_prefix(seq: list[int]) -> bool:
    return all(v == schedule(i) for i, v in enumerate(seq))


@dataclass(frozen=True)
class LabeledCondition:
    """A condition whose nodes carry task labels (0 = no task)."""

    stem: Word
    tree: FiniteTree
    labels: dict[Word, int] = field(compare=False)

    def __post_init__(self) -> None:
        if self.stem not in self.tree:
            raise ValueError("stem must be a node of the tree")
        missing = next((w for w in self.tree.sorted_nodes() if w not in self.labels), None)
        if missing is not None:
            raise ValueError(f"unlabeled node {missing}")


def check_label_invariants(c: LabeledCondition) -> Optional[str]:
    """None when the labeling is well formed, else a defect message.

    Checked: proper prefixes of the stem carry 0; along every branch the
    nonzero labels read off an initial segment of the task schedule; every
    leaf carries a task (so each branch keeps acquiring tasks to the
    working depth).
    """
    for w in prefixes(c.stem):
        if w != c.stem and c.labels[w] != 0:
            return f"proper stem prefix {w} has nonzero label {c.labels[w]}"
    for leaf in c.tree.leaves():
        seq = [
            c.labels[leaf[:i]]
            for i in range(len(leaf) + 1)
            if c.labels[leaf[:i]] != 0
        ]
        if not is_schedule_prefix(seq):
            return f"branch {leaf}: nonzero labels {seq} not a schedule prefix"
        if c.labels[leaf] == 0:
            return f"leaf {leaf} carries no task"
    return None


def requirement(
    s: int, family: AdversaryFamily, k: Optional[int] = None
) -> Optional[tuple[str, StagedTree | OracleFunctional, Optional[int]]]:
    """The requirement of stage s as (name, adversary, k), or None (a skip).

    Even s is R_i and odd s is P_i, for i = s // 2.  R_i exits staged tree
    i at k, or, when k is None, staged tree e at k' for (e, k') =
    index_pair(i).  P_i tames functional i, and its k is None.  A stage
    whose adversary the family lacks is a skip.
    """
    i = s // 2
    if s % 2:
        funcs = family.functionals
        return (f"P{i}", funcs[i], None) if i < len(funcs) else None
    e, k_e = (i, k) if k is not None else index_pair(i)
    trees = family.staged_trees
    return (f"R{i}", trees[e], k_e) if e < len(trees) else None


def tree_stage(
    adv: StagedTree, k: int, stem: Word, exits: Iterable[Word], query: int
) -> tuple[Optional[Word], dict, Optional[dict]]:
    """One tree requirement: leave the staged k-tree adv.

    Returns (new stem or None, log, certificate or None) for the four
    outcomes: vacuous (adv shows a node with more than k children, so it is
    no k-tree; the log names that node, and no certificate restates the
    stage), already-out (the stem is decided out of adv), exit (the first
    of the engine's exit candidates decided out becomes the stem) and stuck
    (none is; no certificate).  The candidates are drawn only on exit or
    stuck, and none past the first one out.
    """
    witness = tree_bound_violation(adv, k, query)
    if witness is not None:
        return None, {"case": "vacuous", "witness": list(witness)}, None
    if adv.decide(stem, query) is TriState.OUT:
        return None, {"case": "already-out"}, _avoidance(adv, stem, query)
    for w in exits:
        if adv.decide(w, query) is TriState.OUT:
            return w, {"case": "exit", "witness": list(w)}, _avoidance(adv, w, query)
    return None, {"case": "stuck"}, None


def _avoidance(adv: StagedTree, witness: Word, query: int) -> dict:
    return {"kind": "avoidance", "tree": adv.id, "witness": list(witness),
            "stage": query}


class OutputTable:
    """One stage's outputs of a functional under a fixed fuel: each node's
    use-monotone prefix, taken to the depth on the node's first read.

    The stage's tree, the one ``cases_a_b`` is handed first, before any
    read, has a slot per node, aligned with its sorted levels; a run of a
    level or a node is found by bisection, and any other word is kept in a
    dict.  ``evals``, the filled slots and the dict's entries, is the
    number of nodes read, the stage's distinct prefix calls.

    A functional with a letter map (``OracleFunctional.letter_map``) is
    decided a level at a time where that is exact: ``cases_a_b`` on a tree
    full above the stem, and ``own_row`` on a run of the stage's tree whose
    letters the map fixes.  Each fills the slots a per-node read fills."""

    def __init__(self, functional: OracleFunctional, fuel: int, depth: int):
        self.functional = functional
        self.fuel = fuel
        self.depth = depth
        self._levels: list[list[Word]] = []  # the stage tree's
        self._slots: list[list[Optional[Word]]] = []
        self._converged: dict[Word, Word] = {}
        # the unconverged positions of a node whose prefix has length n
        self._masks = [(1 << depth) - (1 << n) for n in range(depth + 1)]
        self._letters = functional.letter_map(depth, fuel)
        # the longest words of the stage's tree that are their own outputs
        self._own_up_to = -1

    @property
    def evals(self) -> int:
        return sum(len(s) - s.count(None) for s in self._slots) + len(self._converged)

    def _take_tree(self, tree: FiniteTree) -> None:
        """Make tree the stage's tree, its nodes' slots all unread."""
        self._levels = tree.levels()
        self._slots = [[None] * len(lv) for lv in self._levels]
        # a map that fixes each of b >= 2 letters maps every word entrywise,
        # so a word of the tree is its own output up to the output length;
        # b is no more than the leaves when it is tried
        f, n = self._letters or (None, 0)
        b = tree.alphabet_bound
        if f is not None and b is not None and 2 <= b <= len(self._levels[-1]):
            if all(f(x) == x for x in range(b)):
                self._own_up_to = n

    def _slot(self, w: Word) -> Optional[tuple[int, int]]:
        """(n, i) when w is node i of level n of the stage's tree."""
        n = len(w)
        if n < len(self._levels):
            lv = self._levels[n]
            i = bisect_left(lv, w)
            if i < len(lv) and lv[i] == w:
                return n, i
        return None

    def _span(self, ws: list[Word]) -> Optional[tuple[int, int]]:
        """(n, lo) when ws is the run of level n of the stage's tree from
        node lo on."""
        if ws and (at := self._slot(ws[0])) is not None:
            n, lo = at
            if self._levels[n][lo:lo + len(ws)] == ws:
                return at
        return None

    def converged(self, w: Word) -> Word:
        """Longest output prefix (up to depth) converged on w itself."""
        at = self._slot(w) if self._levels else None
        if at is None:
            p = self._converged.get(w)
            if p is None:
                p = self._converged[w] = self.functional.prefix(w, self.depth, self.fuel)
            return p
        slots, i = self._slots[at[0]], at[1]
        if slots[i] is None:
            slots[i] = self.functional.prefix(w, self.depth, self.fuel)
        return slots[i]

    def value(self, w: Word, n: int) -> Optional[int]:
        """Position n < depth of w, or None past its converged prefix."""
        p = self.converged(w)
        return p[n] if n < len(p) else None

    def row(self, ws: list[Word]) -> list[Word]:
        """The converged prefixes of ws: a run of the stage's tree none of
        which was read is read in one ``prefix_row`` call."""
        at = self._span(ws)
        if at is None:
            return list(map(self.converged, ws))
        n, lo = at
        slots = self._slots[n]
        ps = slots[lo:lo + len(ws)]
        if ps.count(None) == len(ps):
            ps = slots[lo:lo + len(ws)] = self.functional.prefix_row(ws, self.depth, self.fuel)
        elif None in ps:
            ps = list(self._reads(ws, at))
        return ps

    def _reads(self, ws: list[Word], at: Optional[tuple[int, int]]) -> Iterator[Word]:
        """The converged prefixes of ws in order (ws the run at, if not
        None), each node read as it is drawn."""
        if at is None:
            yield from map(self.converged, ws)
            return
        n, lo = at
        slots, prefix, depth, fuel = self._slots[n], self.functional.prefix, self.depth, self.fuel
        for i, w in enumerate(ws, lo):
            if (p := slots[i]) is None:
                p = slots[i] = prefix(w, depth, fuel)
            yield p

    def converged_run(self, ws: list[Word], n: int) -> list[Word]:
        """The converged prefixes of ws in order, up to the first one
        shorter than n: no node past it is read, and with n = 0 every node
        is."""
        run = []
        for p in self._reads(ws, self._span(ws)):
            run.append(p)
            if len(p) < n:
                break
        return run

    def own_row(self, ws: list[Word]) -> bool:
        """Whether every node of ws is its own converged prefix, read in
        order up to the first that is not."""
        at = self._span(ws)
        if at is not None and len(ws[0]) <= self._own_up_to:
            # every node is read, and is its own prefix
            self._slots[at[0]][at[1]:at[1] + len(ws)] = ws
            return True
        return all(map(eq, self._reads(ws, at), ws))

    def cases_a_b(
        self, stem: Word, tree: FiniteTree, k: Optional[int] = None
    ) -> tuple[Optional[tuple[Word, int]], Optional[Word]]:
        """Case A and, given k, case B, in one fold up the sorted levels
        above the stem: (escape, tau).

        escape is the first (node, position) past which every branch stays
        unconverged.  Bit n of a node's mask is set when position n is
        unconverged on every leaf above it, and the answer is the first
        node with a mask on the shortest level with one.

        tau, looked for only while no mask is found, is the first node
        below the tree's depth whose branches' converged outputs take at
        most k values per level.  A node's distinct outputs are merged
        from its children's, or None once over k: a level over k stays
        over k in every ancestor, so a child over k needs no merge.

        The fold reads ``rows_above``: a node's children are the next count
        of nodes of the row below.  A row of leaves is read in one ``row``
        call, and a leaf among parents alone, each read whole for its
        converged prefix and its mask.  A row of parents with c
        children each takes child i of every parent from column i of the
        row below, c masks and sets to a parent.

        A tree full above the stem, read for a functional with a letter
        map, is decided a level at a time instead (``_cases_by_level``).
        """
        if not self._levels and not self._converged:
            self._take_tree(tree)
        rows = None if self._letters is None else full_rows(tree, stem)
        # the map gives the outputs of leaves at least the output length long
        if rows is not None and self._letters[1] <= tree.depth:
            return self._cases_by_level(stem, tree, k, rows[-1][0])
        depth = tree.depth
        masks_of = self._masks.__getitem__
        escape: Optional[tuple[Word, int]] = None
        tau: Optional[Word] = None
        masks: list[int] = []
        sets: list = []
        for lv, cs in reversed(list(rows_above(tree, stem))):
            few = k is not None and escape is None
            if not any(cs):
                outs = self.row(lv)
                row_masks = list(map(masks_of, map(len, outs)))
                row_sets = list(zip(outs)) if few else []
            elif cs.count(cs[0]) == len(cs):
                # c children each: child i of every parent is column i
                c = cs[0]
                row_masks = masks[::c]
                for i in range(1, c):
                    row_masks = list(map(and_, row_masks, masks[i::c]))
                kids = zip(*(sets[i::c] for i in range(c)))
                row_sets = list(map(_merged, kids, repeat(k))) if few else []
            else:
                row_masks, row_sets = [], []
                j = 0
                for w, c in zip(lv, cs):
                    if c:
                        m = masks[j]
                        for x in masks[j + 1:j + c]:
                            m &= x
                        if few:
                            row_sets.append(_merged(sets[j:j + c], k))
                        j += c
                    else:
                        o = self.converged(w)
                        m = masks_of(len(o))
                        if few:
                            row_sets.append((o,))
                    row_masks.append(m)
            hit = next(compress(count(), row_masks), None)
            if hit is not None:
                m = row_masks[hit]
                escape = lv[hit], (m & -m).bit_length() - 1
            elif few and len(lv[0]) < depth:
                tau = next(compress(lv, map(is_not, row_sets, repeat(None))), tau)
            masks, sets = row_masks, row_sets
        return escape, None if escape is not None else tau

    def _cases_by_level(
        self, stem: Word, tree: FiniteTree, k: Optional[int], leaves: list[Word]
    ) -> tuple[Optional[tuple[Word, int]], Optional[Word]]:
        """``cases_a_b`` on a tree full above the stem, for a functional
        whose letter map f gives each leaf's output as f's image of its
        first L entries.  The leaves are read, as the fold reads them, in
        one ``row`` call.  Every output is L long, so every node's mask is
        the same: the escape, if L is below the depth, is (stem, L).  The
        outputs above a node of level j take r^(L - j) values at length L,
        and fewer at any other, r being the number of letter images: tau
        is the first node of the shallowest level below the tree's depth
        where that is at most k."""
        self.row(leaves)
        f, n = self._letters
        if n < self.depth:
            return (stem, n), None
        levels = range(len(stem), tree.depth)
        if k is None or not levels:
            return None, None
        r = len(set(map(f, range(tree.alphabet_bound)))) if f is not None else 0
        j = next((j for j in levels if r ** max(n - j, 0) <= k), None)
        return None, None if j is None else stem + (0,) * (j - len(stem))


def _merged(kids: Sequence, k: int) -> Optional[set[Word]]:
    """The union of the children's output sets, or None once over k."""
    if None in kids:
        return None
    outs = set().union(*kids)
    return None if _more_than_k(outs, k) else outs


def _more_than_k(outs: set[Word], k: int) -> bool:
    """Whether more than k distinct length-n prefixes of outs exist for
    some n >= 1, trying the longest n first."""
    if len(outs) <= k:
        return False
    lengths = set(map(len, outs))
    if len(lengths) == 1:
        # more than k distinct outputs of one length
        return True
    level: set[Word] = set()
    for n in range(max(lengths), 0, -1):
        level = {p[:n] for p in level} | {o for o in outs if len(o) == n}
        if len(level) > k:
            return True
    return False


def pairwise_consistent(outs: list[Word]) -> bool:
    """Whether every two output prefixes agree where both are defined."""
    for a, b in combinations(outs, 2):
        n = min(len(a), len(b))
        if a[:n] != b[:n]:
            return False
    return True


def nodes_above(tree: FiniteTree, node: Word) -> Iterator[Word]:
    """The nodes of tree extending node, in shortest-then-lex order."""
    return chain.from_iterable(lv for lv, _ in rows_above(tree, node))


@dataclass
class RunRecord:
    engine: str
    parameters: dict
    family_config: dict
    stage_log: list[dict]
    final_stem: Word
    final_tree: FiniteTree
    certificates: list[dict]
    status: str  # "complete" | "incomplete"
    labels: Optional[dict[Word, int]] = None

    def body(self) -> dict:
        """The payload without its digest, as ``dump_record`` takes it."""
        payload = {
            "engine": self.engine,
            "parameters": self.parameters,
            "family": self.family_config,
            "stage_log": self.stage_log,
            "final_stem": list(self.final_stem),
            "final_tree": tree_to_json(self.final_tree),
            "certificates": self.certificates,
            "status": self.status,
        }
        if self.labels is not None:
            payload["labels"] = [
                [list(w), v]
                for w, v in sorted(self.labels.items(), key=lambda p: word_key(p[0]))
            ]
        return payload

    def to_payload(self) -> dict:
        """The payload, signed with its digest."""
        payload = self.body()
        payload["digest"] = payload_digest(payload)
        return payload


class Promise(NamedTuple):
    """What an engine's records promise: a final tree with alphabet bound
    ``alphabet`` that passes the shape predicate (``trees.SHAPES``) with k to
    the depth; for each stage that tames a functional by its outputs, their
    trie on the final leaves above the stem at most ``width`` children wide
    (``traces.trace_from_outputs``); and, with labels, task labels on every
    node that read off the task schedule."""

    predicate: str
    k: Optional[int]
    width: Optional[int] = None
    labels: bool = False
    alphabet: Optional[int] = None


# Each engine's promise, from its record's parameters.  No record restates
# it: the verifier checks every record against it.
PROMISES: dict[str, Callable[[dict], Promise]] = {
    "surviving": lambda p: Promise("kbranching", b := int(p["k"]) + 1, b, alphabet=b),
    "build3": lambda p: Promise("ktree", 3),
    "traceable": lambda p: Promise("ktree", 3, 3, labels=True),
    "accelerating": lambda p: Promise("accelerating", None, 2),
}


def query_stage(depth: int, stages: int) -> int:
    """The stage at which a run of the given depth and stages queries its
    staged trees, the one its record's ``query_stage`` must name."""
    return depth + stages + 32


class Run:
    """One staged run: the stem and working tree it moves, and the stage
    log and certificates it writes into its record.

    A tree of None stands for an implicit tree, which moving the stem
    leaves as it is.  ``k``, when given, is the k of every tree
    requirement (see ``requirement``) and a parameter of the record.
    """

    def __init__(
        self, family: AdversaryFamily, stages: int, depth: int, fuel: int,
        tree: Optional[FiniteTree], stem: Word = (), k: Optional[int] = None,
    ):
        self.family = family
        self.stages = stages
        self.depth = depth
        self.fuel = fuel
        self.k = k
        self.query = query_stage(depth, stages)
        self.stem = stem
        self.tree = tree
        self.stage_log: list[dict] = []
        self.certificates: list[dict] = []
        self.complete = True

    def p_stages(
        self, exits: Callable[[Run, int, int], Iterable[Word]]
    ) -> Iterator[tuple[OutputTable, dict]]:
        """The stage schedule.  Each stage s < stages gets a stage_log entry
        naming its requirement, and a skip is marked so.  A tree stage runs
        here, with exits(run, s, k) as its exit candidates.  A functional
        stage is yielded as (a fresh output table of the functional, its
        entry) for the engine to run and log its case in the entry; the
        table's evaluations are then logged as the stage's fuel_spent.  A
        stage logged stuck leaves the run incomplete, and the schedule ends
        at the first stage that leaves it incomplete."""
        for s in range(self.stages):
            req = requirement(s, self.family, self.k)
            entry = {"stage": s, "requirement": req and req[0]}
            self.stage_log.append(entry)
            if req is None:
                entry["case"] = "skip"
                continue
            _, adv, k = req
            if k is not None:
                new_stem, log, cert = tree_stage(adv, k, self.stem, exits(self, s, k), self.query)
                entry.update(log)
                if cert is not None:
                    self.certificates.append(cert)
                if new_stem is not None:
                    self.move(new_stem)
            else:
                table = OutputTable(adv, self.fuel, self.depth)
                yield table, entry
                entry["fuel_spent"] = table.evals
            if entry["case"] == "stuck":
                self.complete = False
            if not self.complete:
                return

    def move(self, stem: Word) -> None:
        """Make stem the stem and restrict the tree to the nodes above it."""
        self.stem = stem
        if self.tree is not None:
            self.tree = subtree_above(self.tree, stem)

    def diverge(self, fn: OracleFunctional, node: Word, n: int) -> None:
        """Certify fn presumed to diverge at position n on every branch
        through node."""
        self.certificates.append({
            "kind": "presumed_divergence", "functional": fn.id,
            "node": list(node), "position": n,
        })

    def record(self, engine: str, labels: Optional[dict[Word, int]] = None) -> RunRecord:
        """The run's record."""
        parameters = {
            "depth": self.depth, "stages": self.stages, "fuel": self.fuel,
            "query_stage": self.query,
        }
        if self.k is not None:
            parameters["k"] = self.k
        return RunRecord(
            engine=engine,
            parameters=parameters,
            family_config=self.family.config,
            stage_log=self.stage_log,
            final_stem=self.stem,
            final_tree=self.tree,
            certificates=self.certificates,
            status="complete" if self.complete else "incomplete",
            labels=labels,
        )


def family_of_payload(payload: dict) -> AdversaryFamily:
    return family_from_config(payload["family"])


def stem_of_payload(payload: dict) -> Word:
    return json_to_word(payload["final_stem"])


def tree_of_payload(payload: dict) -> FiniteTree:
    return json_to_tree(payload["final_tree"])


def labels_of_payload(payload: dict) -> Optional[dict[Word, int]]:
    """The record's labels, if any; a value that is no int (a bool or a
    float included) is refused, as ``json_to_word`` refuses such entries."""
    if "labels" not in payload:
        return None
    labels = {json_to_word(w): v for w, v in payload["labels"]}
    for w, v in labels.items():
        if type(v) is not int:
            raise ValueError(f"label of {w} is not an int: {v!r}")
    return labels

"""Shared generators and record forgeries for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterator, Optional

from hypothesis import strategies as st

from survtree.cover import min_cover
from survtree.engine import verify, verify_record
from survtree.engine.common import nodes_above, schedule
from survtree.engine.surviving import _Drawn, _first_per_prefix, _pick_distinct
from survtree.io_formats import payload_digest
from survtree.staged import OracleFunctional, StagedTree
from survtree.trees import FiniteTree, Word, children


def subtree_nodesets(
    b: int, k: int, d: int, *, branching_only: bool = False
) -> Iterator[frozenset[Word]]:
    """All node sets of subtrees of b^{<=d} with child counts in 1..k.

    With branching_only=True child counts are restricted to {1, k}.
    """
    if branching_only:
        options = [c for r in (1, k) for c in itertools.combinations(range(b), r)]
    else:
        options = [
            c
            for r in range(1, k + 1)
            for c in itertools.combinations(range(b), r)
        ]

    def grow(node: Word, remaining: int) -> Iterator[frozenset[Word]]:
        if remaining == 0:
            yield frozenset([node])
            return
        for choice in options:
            subtrees = [list(grow(node + (i,), remaining - 1)) for i in choice]
            for combo in itertools.product(*subtrees):
                yield frozenset([node]).union(*combo)

    yield from grow((), d)


def all_surjections(domain: int, codomain: int) -> list[tuple[int, ...]]:
    return [
        table
        for table in itertools.product(range(codomain), repeat=domain)
        if set(table) == set(range(codomain))
    ]


def full_tree_words(b: int, d: int) -> frozenset[Word]:
    return frozenset(
        w for n in range(d + 1) for w in itertools.product(range(b), repeat=n)
    )


def forged_defects(payload: dict, edit: Callable[[dict], object]) -> list[str]:
    """The verifier's defects for payload after edit(payload), re-signed so
    that only the checks of its content can see the edit."""
    edit(payload)
    payload["digest"] = payload_digest(payload)
    return verify_record(payload)


def drop_children_of_last_parent(payload: dict) -> None:
    """Delete the children of the parent of the final tree's last node,
    leaving that parent a leaf one level short of the deepest."""
    nodes = payload["final_tree"]["nodes"]
    parent = nodes[-1][:-1]
    nodes[:] = [w for w in nodes if w[:-1] != parent]


def forked_defects(
    monkeypatch, payload: dict, fid: int, adds: dict[Word, Word],
    edit: Callable[[dict], object] = lambda p: None,
) -> list[str]:
    """The verifier's defects for payload after edit(payload), re-signed,
    with functional fid of the family it rebuilds replaced by
    ``adding_functional(adds)``.
    Every configured kind is entrywise, and a final tree that passes the
    shape check bounds their outputs' fork to its own, so only a functional
    of another kind makes the outputs fork wider than the promise allows."""
    rebuild = verify.family_of_payload

    def family_of_payload(p):
        family = rebuild(p)
        fns = list(family.functionals)
        fns[fid] = dataclasses.replace(adding_functional(adds), id=fid)
        return dataclasses.replace(family, functionals=tuple(fns))

    monkeypatch.setattr(verify, "family_of_payload", family_of_payload)
    return forged_defects(payload, edit)


def schedule_prefix(n: int) -> list[int]:
    """The first n terms of the task schedule."""
    return [schedule(i) for i in range(n)]


def pair_index(e: int, k: int) -> int:
    """The index i with ``index_pair(i) == (e, k)``, for k > 2."""
    if k <= 2:
        raise ValueError("pairs require k > 2")
    j = k - 3
    return (e + j) * (e + j + 1) // 2 + j


def monotonicity_table(b: int, d: int, k_range: range) -> list[tuple[int, int]]:
    """(k, min cover size) rows, for 2 <= k < b."""
    rows = []
    for k in k_range:
        if not 2 <= k < b:
            raise ValueError(f"k={k} outside 2 <= k < b={b}")
        rows.append((k, min_cover(b, k, d)[0]))
    return rows


def cert_index(payload: dict, kind: str) -> int:
    """The index of the payload's first certificate of the kind."""
    return next(i for i, c in enumerate(payload["certificates"]) if c["kind"] == kind)


def make_tree(nodes, bound=None) -> FiniteTree:
    return FiniteTree(frozenset(nodes), alphabet_bound=bound)


def child_map(tree: FiniteTree) -> dict[Word, tuple[int, ...]]:
    """Node -> its children's last entries in increasing order, read from
    the node set alone."""
    kids: dict[Word, list[int]] = {w: [] for w in tree.nodes}
    for w in tree.nodes - {()}:
        kids[w[:-1]].append(w[-1])
    return {w: tuple(sorted(es)) for w, es in kids.items()}


def adding_functional(adds: dict[Word, Word]) -> OracleFunctional:
    """A fuel-blind functional whose outputs on sigma are the outputs each
    prefix of sigma adds in turn (a word missing from adds adds none):
    extending sigma only appends, so its prefix is use-monotone."""

    def prefix(sigma: Word, cap: int, fuel: int) -> Word:
        out: Word = ()
        for i in range(len(sigma) + 1):
            out += adds.get(sigma[:i], ())
        return out[:max(0, cap)]

    return OracleFunctional(0, "adding", prefix)


def reference_prefix(entry: dict) -> Callable[[Word, int, int], Word]:
    """The closed-form prefix of a configured functional kind as first
    written: every call clamps min(cap, fuel) at 0, and ``entry_mod``
    builds a new word of residues."""
    kind = entry["kind"]
    if kind == "identity":
        return lambda sigma, cap, fuel: sigma[:max(0, min(cap, fuel))]
    if kind == "entry_mod":
        m = entry["modulus"]
        return lambda sigma, cap, fuel: tuple(
            [e % m for e in sigma[:max(0, min(cap, fuel))]]
        )
    if kind == "constant":
        c = entry["value"]
        return lambda sigma, cap, fuel: (c,) * max(0, min(cap, fuel))
    return lambda sigma, cap, fuel: ()


class PositionReader:
    """The reference for ``OutputTable``: each read goes through
    ``fn.eval`` position by position, with no cache, and ``evals`` counts
    the distinct nodes read."""

    def __init__(self, functional: OracleFunctional, fuel: int, depth: int):
        self.functional = functional
        self.fuel = fuel
        self.depth = depth
        self.reads: set[Word] = set()

    @property
    def evals(self) -> int:
        return len(self.reads)

    def value(self, w: Word, n: int) -> Optional[int]:
        self.reads.add(w)
        return self.functional.eval(w, n, self.fuel)

    def converged(self, w: Word) -> Word:
        self.reads.add(w)
        fn, out = self.functional, []
        while len(out) < self.depth and (v := fn.eval(w, len(out), self.fuel)) is not None:
            out.append(v)
        return tuple(out)

    def converged_run(self, ws: list[Word], n: int) -> list[Word]:
        run = []
        for w in ws:
            run.append(p := self.converged(w))
            if len(p) < n:
                break
        return run


def read_nodes(table) -> set[Word]:
    """The nodes an ``OutputTable`` has read: those it took a prefix of,
    the filled slots of its stage's tree and the words of its dict."""
    chain = itertools.chain.from_iterable
    slotted = zip(chain(table._levels), chain(table._slots))
    return {w for w, p in slotted if p is not None} | table._converged.keys()


def own_prefixes(table, kids: list[Word], n: int) -> Optional[list[tuple[Word, Word]]]:
    """Every child with its own length-n output prefix, if each is long
    enough and no two are equal, read child by child up to the first that
    fails."""
    chosen: list[tuple[Word, Word]] = []
    seen: set[Word] = set()
    for v in kids:
        o = table.converged(v)[:n]
        if len(o) < n or o in seen:
            return None
        seen.add(o)
        chosen.append((v, o))
    return chosen


def reference_assign_kids(table, tree: FiniteTree, kids: list[Word], sigma_len: int):
    """Case C's search for one group of siblings, length by length: the own
    prefixes at n, else, once some child is shorter than n, the pool
    search at n."""
    for n in range(sigma_len + 1, table.depth + 1):
        chosen = own_prefixes(table, kids, n)
        if chosen is not None:
            return chosen
        if all(len(table.converged(v)) >= n for v in kids):
            continue
        pools = [_Drawn(_first_per_prefix(table, tree, v, n)) for v in kids]
        if any(p.get(0) is None for p in pools):
            continue
        chosen = _pick_distinct(pools, [])
        if chosen is not None:
            return chosen
    return None


def reference_case_c(
    table, k: int, stem: Word, tree: FiniteTree, assign_kids=reference_assign_kids
):
    """Case C top by top: each top's split is found from the node set, each
    group goes through assign_kids in turn until one fails, and the tree is
    rebuilt from the last tops' zero-paddings.  It reads outputs only
    through ``table.converged``, so a ``PositionReader`` can stand in for
    the table."""
    b = k + 1
    depth = table.depth
    cm = child_map(tree)
    tops = [stem]
    m = 0
    while True:
        chosen: list[tuple[Word, Word]] = []
        for top in tops:
            q = top if len(cm[top]) == b else next(
                (w for w in nodes_above(tree, top) if len(cm[w]) == b), None
            )
            assigned = None if q is None else assign_kids(table, tree, children(tree, q), m)
            if assigned is None:
                chosen = []
                break
            chosen += assigned
        if not chosen:
            break
        tops = [v for v, _ in chosen]
        m += 1
    if m == 0:
        return None
    nodes = {()}
    for w in tops:
        p = w + (0,) * (depth - len(w))
        while p not in nodes:
            nodes.add(p)
            p = p[:-1]
    return FiniteTree(frozenset(nodes), tree.alphabet_bound)


LETTERS = 6  # staged-tree alphabets are drawn from 0..LETTERS-1


@st.composite
def staged_tree_entries(draw) -> dict:
    """A config entry of any documented staged-tree kind, maybe delayed."""
    kind = draw(st.sampled_from(["full_subtree", "full_subtree_plus", "comb"]))
    if kind == "comb":
        entry = {"kind": kind, "entry": draw(st.integers(0, 3))}
    else:
        letters = st.lists(
            st.integers(0, LETTERS - 1), min_size=1, max_size=4, unique=True
        )
        entry = {"kind": kind, "alphabet": sorted(draw(letters))}
    if kind == "full_subtree_plus":
        # an extra word leaves the alphabet in its last entry at most
        extra = st.tuples(
            st.lists(st.sampled_from(entry["alphabet"]), max_size=4),
            st.integers(0, LETTERS),
        ).map(lambda t: t[0] + [t[1]])
        entry["extra"] = draw(st.lists(extra, min_size=1, max_size=3))
    entry["delay"] = draw(st.sampled_from([0, 0, 1, 3, 6, 9]))
    return entry


@st.composite
def unbounded_trees(draw) -> StagedTree:
    """A directly built staged tree with no alphabet bound: the full subtree
    over letters that may lie far above the other trees' alphabets."""
    letters = frozenset(
        draw(st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True))
    )
    return StagedTree(
        id=-1,
        kind="unbounded",
        member=lambda w: all(e in letters for e in w),
        alphabet_bound=None,
        delay=draw(st.sampled_from([0, 0, 4])),
    )

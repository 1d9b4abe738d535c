"""End-to-end acceptance checks, each with an explicit wall-clock budget.

Expected values marked below were computed by independent means: the small
cover numbers by exhaustive search over leaf sets, the counting fraction by
direct enumeration, and the schedule prefix against the published sequence
1,1,2,1,2,3,1,2,3,4.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter

from conftest import (
    all_surjections,
    make_tree,
    monotonicity_table,
    schedule_prefix,
    subtree_nodesets,
)
from survtree.cover import min_cover, verify_cover
from survtree.engine import (
    accelerating_force,
    build_3tree,
    check_label_invariants,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify_record,
)
from survtree.engine.common import LabeledCondition, labels_of_payload
from survtree.io_formats import (
    canonical_json,
    json_to_tree,
    payload_digest,
)
from survtree.staged import (
    EMPTY_CONFIG,
    family_from_config,
    standard_library,
)
from survtree.traces import trace_from_outputs
from survtree.trees import (
    FiniteTree,
    Surjection,
    TriState,
    is_accelerating_to_depth,
    is_k_branching_to_depth,
    is_k_tree_to_depth,
    map_path,
    pushforward_preimage,
    subtree_above,
)

LIB = standard_library()


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
            )


# -- 1. pushforward preserves tree shape across alphabet surjections --------


def _random_s_tree(rng, s, b, depth):
    nodes = {()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for e in rng.sample(range(b), rng.randint(1, s)):
                nodes.add(w + (e,))
                nxt.append(w + (e,))
        frontier = nxt
    return FiniteTree(frozenset(nodes), alphabet_bound=b)


def _check_combo(t, s, k, table):
    g = Surjection(k + 1, s + 1, table)
    out = pushforward_preimage(t, g)
    d = t.depth
    assert is_k_tree_to_depth(out, k, d) is None
    return out


def test_acceptance_1_pushforward_shape_and_path_transfer():
    with Budget(10):
        surjections = {
            (s, k): all_surjections(k + 1, s + 1)
            for s in (2, 3, 4)
            for k in range(s, 5)
        }
        # exhaustive over all 2-trees over {0,1,2} of depth <= 2, under
        # every surjection (k+1) -> 3 for k in {2,3,4}, with exhaustive
        # path transfer
        for d in (1, 2):
            for nodes in subtree_nodesets(3, 2, d):
                t = make_tree(nodes, bound=3)
                for k in (2, 3, 4):
                    for table in surjections[(2, k)]:
                        g = Surjection(k + 1, 3, table)
                        out = pushforward_preimage(t, g)
                        assert is_k_tree_to_depth(out, k, d) is None
                        for n in range(d + 1):
                            for w in itertools.product(
                                range(k + 1), repeat=n
                            ):
                                assert (w in out.nodes) == (
                                    map_path(g, w) in t.nodes
                                )
        # exhaustive depth-1 for s in {3, 4}
        for s in (3, 4):
            for nodes in subtree_nodesets(s + 1, s, 1):
                t = make_tree(nodes, bound=s + 1)
                for k in range(s, 5):
                    for table in surjections[(s, k)]:
                        _check_combo(t, s, k, table)
        # a deterministic slice of the depth-3 2-tree space, identity-like
        # and folding surjections
        depth3 = list(subtree_nodesets(3, 2, 3))
        for nodes in depth3[::97]:
            t = make_tree(nodes, bound=3)
            for k in (2, 3):
                for table in surjections[(2, k)][::5]:
                    _check_combo(t, 2, k, table)
        # 500 random deeper trees across all (s, k) pairs
        rng = random.Random(20260826)
        pairs = [(s, k) for s in (2, 3, 4) for k in range(s, 5)]
        for i in range(500):
            s, k = pairs[i % len(pairs)]
            t = _random_s_tree(rng, s, s + 1, rng.randint(4, 5))
            table = rng.choice(surjections[(s, k)])
            _check_combo(t, s, k, table)


# -- 2. maximum depth-3 coverage by a 2-branching subtree of 3^{<=3} ---------


def test_acceptance_2_max_coverage_is_8_of_27():
    with Budget(5):
        best = 0
        for nodes in subtree_nodesets(3, 2, 3, branching_only=True):
            leaves = sum(1 for w in nodes if len(w) == 3)
            assert leaves <= 8  # no tree exceeds (2/3)^3 of 27
            best = max(best, leaves)
        assert best == 8


# -- 3. exact minimum covers and monotonicity --------------------------------


def test_acceptance_3_min_cover_values():
    with Budget(10):
        v1, w1 = min_cover(3, 2, 1)
        v2, w2 = min_cover(3, 2, 2)
        assert (v1, v2) == (2, 3)
        assert verify_cover(w1) is None and verify_cover(w2) is None
        for b in (3, 4):
            for d in (1, 2):
                rows = monotonicity_table(b, d, range(2, b))
                values = [v for _, v in rows]
                assert values == sorted(values, reverse=True)


# -- 4. the avoid/trace engine at k = 2 ---------------------------------------


def test_acceptance_4_surviving_run_and_verify():
    with Budget(60):
        assert len(LIB.staged_trees) >= 5 and len(LIB.functionals) >= 4
        rec = diagonalize_surviving(2, LIB, 14, 8, 10**4)
        payload = rec.to_payload()
        assert verify_record(payload) == []
        # avoidance: each certified stem prefix is Out of its adversary
        for cert in rec.certificates:
            if cert["kind"] == "avoidance":
                adv = LIB.staged_trees[cert["tree"]]
                w = tuple(cert["witness"])
                assert w == rec.final_stem[: len(w)]
                assert adv.decide(w, cert["stage"]) is TriState.OUT
        # tracing: for every splitting case, the trie of the functional's
        # outputs on the final leaves is a 3-tree, bounded by 3^n
        split = [int(e["requirement"][1:]) for e in rec.stage_log if e["case"] in ("B", "C")]
        assert split
        for fid in split:
            _assert_trie_width(LIB.functionals[fid], rec, 3)
        above = subtree_above(rec.final_tree, rec.final_stem)
        assert is_k_branching_to_depth(above, 3, 8) is None


def _assert_trie_width(fn, rec, width):
    """The trie of fn's outputs on every leaf of the record's final tree
    has at most width children a word, and so at most width^n words on
    level n; every output's prefixes are words of it.  Returns its levels."""
    depth = rec.final_tree.depth
    outs = [fn.prefix(leaf, depth, 10**4) for leaf in rec.final_tree.leaves()]
    levels = trace_from_outputs(outs, depth, width).levels
    for n, level in enumerate(levels):
        assert len(level) <= width**n
    for out in outs:
        assert all(out[:n] in levels[n] for n in range(len(out) + 1))
    return levels


# -- 5. the staged 3-tree builder ---------------------------------------------


def test_acceptance_5_build3_shape_escape_and_empty_family():
    with Budget(30):
        tree, path = build_3tree(LIB, 12, 36)
        assert is_k_tree_to_depth(tree, 3, 12) is None
        for adv in LIB.staged_trees:
            if adv.claimed_shape != ("branching", 3):
                continue
            assert any(
                adv.decide(path[:n], 1000) is TriState.OUT
                for n in range(1, len(path) + 1)
            ), f"rightmost path never leaves adversary {adv.id}"
        empty = family_from_config(EMPTY_CONFIG)
        tree0, path0 = build_3tree(empty, 12, 36)
        assert tree0.nodes == frozenset((0,) * n for n in range(13))
        assert path0 == (0,) * 12


# -- 6. the labeled prune engine ----------------------------------------------


def test_acceptance_6_traceable_schedule_labels_and_traces():
    with Budget(120):
        start = initial_condition(LIB, 8, 24)
        assert check_label_invariants(start) is None
        rec = traceable_prune(start, LIB, 4, 8, 10**4)
        payload = rec.to_payload()
        assert verify_record(payload) == []
        assert schedule_prefix(10) == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]
        labels = labels_of_payload(payload)
        # the record keeps the schedule in its labels: along each branch
        # the nonzero labels read off it
        for leaf in rec.final_tree.leaves():
            seq = [labels[leaf[:i]] for i in range(len(leaf) + 1) if labels[leaf[:i]]]
            assert seq and seq == schedule_prefix(len(seq))
        final = LabeledCondition(rec.final_stem, rec.final_tree, labels)
        assert check_label_invariants(final) is None
        pruned = [int(e["requirement"][1:]) for e in rec.stage_log if e["case"] == "prune"]
        assert pruned
        for fid in pruned:
            _assert_trie_width(LIB.functionals[fid], rec, 3)


# -- 7. the widening-splits engine --------------------------------------------


def test_acceptance_7_accelerating_shape_and_cases():
    with Budget(120):
        rec = accelerating_force(LIB, 8, 8, 10**4)
        payload = rec.to_payload()
        assert verify_record(payload) == []
        tree = json_to_tree(payload["final_tree"])
        assert is_accelerating_to_depth(tree, tree.depth) is None
        # the value-bounded functional routes to the two-tree prune, and
        # its outputs on the leaves lie on a 2-tree
        assert [e["requirement"] for e in rec.stage_log if e["case"] == "4"] == ["P1"]
        levels = _assert_trie_width(LIB.functionals[1], rec, 2)
        assert is_k_tree_to_depth(FiniteTree.from_levels(levels), 2, tree.depth) is None
        # the constant-3 functional forces a large value at position 0
        values = [
            c
            for c in rec.certificates
            if c["kind"] == "value_witness" and c["functional"] == 2
        ]
        assert values and values[0]["position"] == 0
        assert values[0]["value"] >= 3


# -- 8. golden records: byte stability and mutation rejection -----------------


def _golden_payloads():
    recs = [
        diagonalize_surviving(2, LIB, 8, 6, 4000),
        traceable_prune(initial_condition(LIB, 6, 20), LIB, 4, 6, 4000),
        accelerating_force(LIB, 6, 6, 4000),
    ]
    return [r.to_payload() for r in recs]


def _resign(payload):
    """Recompute the digest so tampering is only visible semantically."""
    p = {k: v for k, v in payload.items() if k != "digest"}
    p["digest"] = payload_digest(p)
    return p


def _mutations(payload):
    """Twenty content-changing edits; each must be rejected by the verifier."""
    import copy

    out = []

    def variant(edit, resign=False):
        p = copy.deepcopy(payload)
        edit(p)
        out.append(_resign(p) if resign else p)

    # digest-detected tampering (parsed content changes, stale digest)
    variant(lambda p: p.update(status="incomplete"))
    variant(lambda p: p.update(final_stem=list(p["final_stem"]) + [0]))
    variant(lambda p: p["final_tree"]["nodes"].append([9, 9, 9]))
    variant(lambda p: p["certificates"].pop())
    variant(lambda p: p["parameters"].update(depth=99))
    variant(lambda p: p.update(engine="surviving" if p["engine"] != "surviving" else "accelerating"))
    variant(lambda p: p.update(digest="0" * 64))
    variant(lambda p: p["family"]["staged_trees"].pop())
    variant(lambda p: p["stage_log"].append({"stage": 999}))
    variant(lambda p: p["certificates"].append({"kind": "forged"}))
    # semantically detected tampering (digest recomputed after the edit)
    variant(lambda p: p.update(final_stem=[9] + list(p["final_stem"])[1:]), resign=True)
    # deleting a deepest leaf leaves its parent with too few children
    variant(lambda p: p["final_tree"]["nodes"].pop(), resign=True)
    variant(lambda p: p["certificates"].append({"kind": "forged"}), resign=True)
    variant(lambda p: p.update(engine="frobnicate"), resign=True)
    variant(
        lambda p: p["final_tree"]["nodes"].append(
            list(p["final_tree"]["nodes"][-1]) + [7]
        ),
        resign=True,
    )

    def break_avoidance(p):
        for c in p["certificates"]:
            if c["kind"] == "avoidance":
                c["witness"] = [8] * (len(c["witness"]) + 1)
                return
        raise AssertionError("no avoidance certificate to corrupt")

    variant(break_avoidance, resign=True)

    def add_trace(p):
        # a stored trace, which the verifier derives and no record carries
        p["traces"] = [{"functional": 0, "children": [[[1, [0, 1, 2]]]]}]

    variant(add_trace, resign=True)

    def break_shape(p):
        # the last child of a split loses its whole branch, so the split
        # keeps fewer children than the engine's shape allows
        nodes = [tuple(w) for w in p["final_tree"]["nodes"]]
        kids = Counter(w[:-1] for w in nodes if w)
        cut = max(w for w in nodes if w and kids[w[:-1]] > 1)
        p["final_tree"]["nodes"] = [list(w) for w in nodes if w[:len(cut)] != cut]

    variant(break_shape, resign=True)

    def break_vacuous_witness(p):
        for entry in p["stage_log"]:
            if entry.get("case") == "vacuous":
                entry["witness"] = [9]
                return
        raise AssertionError("no vacuous stage to corrupt")

    variant(break_vacuous_witness, resign=True)

    def break_family(p):
        p["family"]["staged_trees"] = []
        p["family"]["functionals"] = []

    variant(break_family, resign=True)
    return out


def test_acceptance_8_golden_reruns_and_mutations():
    with Budget(120):
        first = _golden_payloads()
        second = _golden_payloads()
        blobs1 = [canonical_json(p) for p in first]
        blobs2 = [canonical_json(p) for p in second]
        assert blobs1 == blobs2  # byte-identical reruns
        for payload in first:
            assert verify_record(payload) == []
        catalogued = _mutations(first[0])
        assert len(catalogued) == 20
        for i, mutated in enumerate(catalogued):
            assert json.loads(canonical_json(mutated)) != json.loads(
                canonical_json(first[0])
            ), f"mutation {i} did not change parsed content"
            assert verify_record(mutated) != [], f"mutation {i} accepted"

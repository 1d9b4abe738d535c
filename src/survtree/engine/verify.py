"""Re-checks a run record's certificates without re-running the engine.

Every check works from the record alone: the adversary family is rebuilt
from the embedded configuration, the final tree is reloaded, and each
certificate is tested against them.  What the engine promises
(``engine.common.PROMISES``) comes from its name and parameters, not from
the record: the final tree's shape, the task labels, the stage log against
the stage schedule and the cases each stage may log, each stage it marks
vacuous, the certificate each logged case calls for, and, for each stage
that tames its functional by its outputs, the width of their trie on the
final leaves are checked without being asked.  The digest guards the
bytes; the semantic checks guard the content.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..io_formats import json_to_word, record_digest_ok
from ..staged import AdversaryFamily, OracleFunctional, shown_successors
from ..traces import BoundExceeded, trace_from_outputs
from ..trees import SHAPES, FiniteTree, TriState, Word, full_rows, is_prefix, rows_above
from .common import (
    PROMISES,
    LabeledCondition,
    Promise,
    check_label_invariants,
    family_of_payload,
    labels_of_payload,
    pairwise_consistent,
    query_stage,
    requirement,
    stem_of_payload,
    tree_of_payload,
)

# the certificates about a functional, each checked under the record's fuel
_POSITION_CERTS = {"presumed_divergence", "value_witness"}
_FUNCTIONAL_CERTS = {*_POSITION_CERTS, "constant_outputs"}
# the cases that leave a run incomplete, at the stage that ends its log
_FAILED = {"stuck", "no-disagreement"}
_TREE_CASES = {"vacuous", "already-out", "exit", "stuck"}
# the cases each engine's stages may log: its tree stages', then its
# functional stages'; build3 logs no stage
_CASES = {
    "surviving": (_TREE_CASES, {"A", "B", "C", "stuck"}),
    "build3": (set(), set()),
    "traceable": (_TREE_CASES, {"escape", "prune"}),
    "accelerating": (_TREE_CASES, {"1", "2", "3", "4", "no-disagreement", "stuck"}),
}
# the cases whose functional's outputs on the final leaves must lie on a tree
# of the promised width, which the verifier derives
_TRIE_CASES = {"B", "C", "prune", "4"}
# the certificate each logged case calls for, of the stage's adversary
_CASE_CERTS = {
    **dict.fromkeys(["A", "escape", "1"], "presumed_divergence"),
    "2": "value_witness",
    "3": "constant_outputs",
    **dict.fromkeys(["exit", "already-out"], "avoidance"),
}
# a certificate of any other kind is refused as unknown, so it is not counted
_CALLED_KINDS = set(_CASE_CERTS.values())


def verify_record(payload: dict) -> list[str]:
    """All defects found in the record; an empty list means it checks out."""
    defects: list[str] = []
    if not record_digest_ok(payload):
        return ["digest mismatch"]
    if payload.get("engine") not in PROMISES:
        return [f"unknown engine {payload.get('engine')!r}"]
    if (old := _earlier_format(payload)) is not None:
        return [f"a record of an earlier format: it {old}, which the verifier now derives; "
                "re-run the engine to write it anew"]
    try:
        family = family_of_payload(payload)
        stem = stem_of_payload(payload)
        tree = tree_of_payload(payload)
        labels = labels_of_payload(payload)
        depth = int(payload["parameters"]["depth"])
        fuel = payload["parameters"].get("fuel")
        fuel = None if fuel is None else int(fuel)
        # what the engine promises, from the parameters, not from a certificate
        promise = PROMISES[payload["engine"]](payload["parameters"])
        certs = _objects(payload.get("certificates", []), "certificates")
        bad = SHAPES[promise.predicate](tree, promise.k, depth)
        query = query_stage(depth, int(payload["parameters"]["stages"]))
        # the depth sizes the derived tries and the outputs read, so it is
        # bounded by the tree the record spells out before either is built
        if tree.depth != depth:
            raise ValueError(f"final tree depth {tree.depth} is not the record's depth {depth}")
        logged, called, tamed = _stage_log_defects(payload, family, query)
        # every engine with functional stages evaluates them under its fuel
        if promise.width is not None and fuel is None:
            raise ValueError("the record has no fuel parameter")
        # the tree's entries were checked against its own bound: the promised one
        if (ab := tree.alphabet_bound) != promise.alphabet or type(ab) is not type(promise.alphabet):
            raise ValueError(f"final tree alphabet bound {ab!r} is not {promise.alphabet!r}")
    except (KeyError, ValueError, TypeError) as e:
        return [f"malformed record: {e}"]
    if stem not in tree:
        defects.append(f"final stem {stem} not in final tree")
    if bad is not None:
        defects.append(
            f"final tree node {bad.node}: {bad.required}, saw {bad.observed_child_count}"
        )
    msg = _label_defect(promise, stem, tree, labels)
    if msg is not None:
        defects.append(f"labels: {msg}")
    defects += logged
    # the leaves above the stem, row by row (none if the stem is no node)
    leaves = [w for lv, cs in rows_above(tree, stem) for w, c in zip(lv, cs) if not c]
    held: Counter = Counter()
    for i, cert in enumerate(certs):
        try:
            kind = cert.get("kind")
            if kind in _CALLED_KINDS:
                held[kind, cert.get("tree" if kind == "avoidance" else "functional")] += 1
            msg = _check_certificate(cert, family, stem, leaves, depth, fuel, query)
        except (KeyError, ValueError, TypeError, IndexError) as e:
            msg = f"malformed certificate: {e}"
        if msg is not None:
            defects.append(f"certificate {i} ({cert.get('kind')}): {msg}")
    # on a tree full above the stem the trie's width is read a level at a
    # time; one over the promise goes through the trie, to name its word
    full = full_rows(tree, stem) is not None
    for s, case, fn in tamed:
        w = level_width(fn, tree.alphabet_bound, stem, depth, fuel) if full else None
        if w is not None and w <= promise.width:
            continue
        # the trie of the outputs is the tightest trace they lie on
        try:
            trace_from_outputs(fn.prefix_row(leaves, depth, fuel), depth, promise.width)
        except BoundExceeded as e:
            defects.append(
                f"stage {s} ({case}): the outputs of functional {fn.id} on the leaves fork "
                f"{e.children} ways at {e.word}, more than {e.width}"
            )
    for kind, adv in dict.fromkeys([*called, *held]):
        if called[kind, adv] != held[kind, adv]:
            defects.append(
                f"{kind} certificates of {'tree' if kind == 'avoidance' else 'functional'} "
                f"{adv}: the stage log calls for {called[kind, adv]}, the record holds "
                f"{held[kind, adv]}"
            )
    return defects


def level_width(
    fn: OracleFunctional, b: int, stem: Word, depth: int, fuel: int
) -> Optional[int]:
    """The widest word of the trie of fn's outputs on the leaves of a tree
    full above the stem to the depth, b its alphabet bound, level by level,
    when fn has a letter map f (``OracleFunctional.letter_map``); None when
    it has none.  Each output is f's image of its leaf's first L entries,
    so the trie's words shorter than the stem have one child and the longer
    ones, below L, one per letter image."""
    letters = fn.letter_map(depth, fuel)
    if letters is None:
        return None
    f, n = letters
    return len(set(map(f, range(b)))) if n > len(stem) else min(n, 1)


def _earlier_format(payload: dict) -> Optional[str]:
    """What the payload stores that records stopped storing when the
    verifier came to derive each functional's trace, if anything."""
    if "traces" in payload:
        return "stores traces"
    certs = payload.get("certificates")
    if type(certs) is list and any(
        type(c) is dict and c.get("kind") in ("trace", "two_tree_trace") for c in certs
    ):
        return "holds trace certificates"
    return None


def _objects(items, what: str) -> list[dict]:
    """items, once checked to be a list of JSON objects."""
    if type(items) is not list or any(type(x) is not dict for x in items):
        raise ValueError(f"the {what} are not a list of objects")
    return items


def _stage_log_defects(
    payload: dict, family: AdversaryFamily, query: int
) -> tuple[list[str], Counter, list[tuple[int, str, OracleFunctional]]]:
    """A defect for a status the stage log does not bear out, for each
    entry off the stage schedule, and for each stage the log marks vacuous
    whose staged tree does not show more than k successors at the logged
    witness by the query stage; the certificates the log calls for, as
    (kind, adversary id) counts: one of the stage's adversary for each
    stage whose case ``_CASE_CERTS`` names; and (stage, case, functional)
    for each stage whose case is one of ``_TRIE_CASES``.  build3 runs no
    schedule, so it logs no stage and is complete.  Entry s of any other log
    is stage s, names the requirement ``requirement`` gives s (the surviving
    engine's k from the parameters; the others stage index pairs, whatever
    k their parameters name), and logs a skip exactly when that is None,
    and otherwise a case ``_CASES`` lets the engine's tree or functional
    stages log; an entry that does not calls for nothing more.  A complete
    run logs every stage, none stuck or without a disagreement; an
    incomplete log ends at its first such stage.  The query stage is the
    run's own (``common.query_stage``), which the parameters must name
    unless the record is build3's, which no ``Run`` writes."""
    params = payload["parameters"]
    named = params.get("query_stage")
    want = None if payload["engine"] == "build3" else query
    if type(named) is not type(want) or named != want:
        raise ValueError(f"query_stage {named!r} is not the run's {want}")
    log = _objects(payload["stage_log"], "stage log entries")
    status = payload["status"]
    stages = 0 if payload["engine"] == "build3" else int(params["stages"])
    failed = [s for s, entry in enumerate(log) if entry.get("case") in _FAILED]
    fits = {
        "complete": len(log) == stages and not failed,
        "incomplete": len(log) <= stages and failed == [len(log) - 1],
    }
    defects = [] if fits.get(status) else [
        f"status {status!r} with {len(log)} of {stages} stages logged, "
        f"{len(failed)} of them stuck or without a disagreement"
    ]
    k = int(params["k"]) if payload["engine"] == "surviving" else None
    tree_cases, functional_cases = _CASES[payload["engine"]]
    called: Counter = Counter()
    tamed = []
    for s, entry in enumerate(log):
        if entry.get("stage") != s:
            raise ValueError(f"stage log entry {s} names stage {entry.get('stage')}")
        req = requirement(s, family, k)
        name, case = req and req[0], entry.get("case")
        cases = {"skip"} if req is None else functional_cases if req[2] is None else tree_cases
        if entry.get("requirement") != name or case not in cases:
            defects.append(
                f"stage {s} is {name or 'a skip'}, logged {entry.get('requirement')!r} as {case!r}"
            )
            continue
        if req is None:
            continue
        _, adv, k_s = req
        if case in _CASE_CERTS:
            called[_CASE_CERTS[case], adv.id] += 1
        if case in _TRIE_CASES:
            tamed.append((s, case, adv))
        if case != "vacuous":
            continue
        w = json_to_word(entry["witness"])
        shown = shown_successors(adv, w, query)
        if shown <= k_s:
            defects.append(
                f"stage {s} (vacuous): node {w} of tree {adv.id} shows only {shown} "
                f"successors, not more than {k_s}"
            )
    return defects, called, tamed


def _label_defect(
    promise: Promise, stem: Word, tree: FiniteTree, labels: Optional[dict[Word, int]]
) -> Optional[str]:
    """Why the record's labels break the promise, if they do: an engine that
    keeps labels labels every node, reading off the task schedule, and any
    other engine carries none."""
    if not promise.labels:
        return None if labels is None else "the engine keeps no labels"
    if labels is None:
        return "the record carries none"
    try:
        return check_label_invariants(LabeledCondition(stem, tree, labels))
    except ValueError as e:
        return str(e)


def _by_id(adversaries, i: int):
    """The staged tree or functional with id i, or None."""
    return next((a for a in adversaries if a.id == i), None)


def _int(cert: dict, key: str, default: Optional[int] = None) -> int:
    """The int under key (default if given and key is absent); a bool or a
    float is refused, as ``json_to_word`` refuses them."""
    v = cert[key] if default is None else cert.get(key, default)
    if type(v) is not int:
        raise ValueError(f"{key} is not an int: {v!r}")
    return v


def _check_certificate(
    cert: dict,
    family: AdversaryFamily,
    stem: Word,
    leaves: list[Word],
    depth: int,
    fuel: Optional[int],
    query: int,
) -> Optional[str]:
    kind = cert.get("kind")
    if kind in _FUNCTIONAL_CERTS:
        # a build3 record has no fuel, so any fuel, or none, is refused here
        if _int(cert, "fuel", fuel) != fuel:
            return f"fuel {cert['fuel']} differs from the record's fuel {fuel}"
        fn = _by_id(family.functionals, _int(cert, "functional"))
        if fn is None:
            return f"no functional with id {cert['functional']}"
    if kind in _POSITION_CERTS:
        # the engines certify positions below the depth; a position past it
        # would have the functional spell out that many outputs
        n = _int(cert, "position")
        if not 0 <= n < depth:
            return f"position {n} is outside [0, {depth})"
    if kind == "avoidance":
        adv = _by_id(family.staged_trees, _int(cert, "tree"))
        if adv is None:
            return f"no staged tree with id {cert['tree']}"
        witness = json_to_word(cert["witness"])
        if not is_prefix(witness, stem):
            return f"witness {witness} is not a prefix of the final stem"
        if _int(cert, "stage") != query:
            return f"stage {cert['stage']!r} is not the run's query stage {query}"
        if adv.decide(witness, query) is not TriState.OUT:
            return f"witness {witness} is not out of tree {adv.id}"
        return None
    if kind == "presumed_divergence":
        node = json_to_word(cert["node"])
        if not (is_prefix(node, stem) or is_prefix(stem, node)):
            return f"node {node} incomparable with the stem"
        checked = [L for L in leaves if is_prefix(node, L) or is_prefix(L, node)]
        for L in checked:
            if fn.eval(L, n, fuel) is not None:
                return f"branch {L} converges at position {n}"
        return None
    if kind == "value_witness":
        node = json_to_word(cert["node"])
        v = _int(cert, "value")
        if v < 3:
            return f"claimed value {v} is below 3"
        if not is_prefix(node, stem):
            return f"witness node {node} is not a stem prefix"
        if fn.eval(node, n, fuel) != v:
            return f"functional does not output {v} at {n} on {node}"
        return None
    if kind == "constant_outputs":
        # an empty list is pairwise consistent, and the engine's probes always
        # hold the padded stem or a leaf above it
        outs = [fn.prefix(json_to_word(p), depth, fuel) for p in cert["probes"]]
        if not outs:
            return "no probes recorded"
        if not pairwise_consistent(outs):
            return "recorded probes disagree"
        return None
    return f"unknown certificate kind {kind!r}"

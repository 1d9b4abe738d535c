"""Re-checks a run record's certificates without re-running the engine.

Every check works from the record alone: the adversary family is rebuilt
from the embedded configuration, the final tree and traces are reloaded,
and each certificate is tested against them.  The digest guards the bytes;
the semantic checks guard the content.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..io_formats import canonical_json, json_to_trace, record_digest_ok
from ..staged import AdversaryFamily, shown_successors
from ..traces import BoundExceeded, LevelBound, TraceTable, goes_through
from ..trees import (
    FiniteTree,
    TriState,
    Word,
    is_accelerating_to_depth,
    is_k_branching_to_depth,
    is_k_tree_to_depth,
    is_prefix,
)
from .common import (
    PROMISES,
    LabeledCondition,
    Promise,
    check_label_invariants,
    family_of_payload,
    labels_of_payload,
    pairwise_consistent,
    requirement,
    schedule_certificate,
    stem_of_payload,
    tree_of_payload,
)

_TRACE_CERTS = {"trace", "two_tree_trace"}
# the certificates about a functional, each checked under the record's fuel
_FUNCTIONAL_CERTS = {"presumed_divergence", "value_witness", "constant_outputs", *_TRACE_CERTS}


def verify_record(payload: dict) -> list[str]:
    """All defects found in the record; an empty list means it checks out."""
    defects: list[str] = []
    if not record_digest_ok(payload):
        return ["digest mismatch"]
    if payload.get("engine") not in PROMISES:
        return [f"unknown engine {payload.get('engine')!r}"]
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
        # every engine builds its traces at the record's depth; checking it
        # first keeps a forged depth from costing anything to decode
        for t in payload["traces"]:
            if int(t["depth"]) != depth:
                raise ValueError(
                    f"trace depth {t['depth']} differs from the record depth {depth}"
                )
        traces = [
            (int(t["functional"]), json_to_trace(t)) for t in payload["traces"]
        ]
        vacuous = _vacuous_requirements(payload, family)
    except (KeyError, ValueError, TypeError, BoundExceeded) as e:
        return [f"malformed record: {e}"]
    if stem not in tree:
        defects.append(f"final stem {stem} not in final tree")
    leaves = [L for L in tree.leaves() if is_prefix(stem, L) or is_prefix(L, stem)]
    certs = payload.get("certificates", [])
    for i, cert in enumerate(certs):
        try:
            msg = _check_certificate(
                cert, family, stem, tree, leaves, traces, labels, depth, fuel, promise,
                vacuous,
            )
        except (KeyError, ValueError, TypeError, IndexError) as e:
            msg = f"malformed certificate: {e}"
        if msg is not None:
            defects.append(f"certificate {i} ({cert.get('kind')}): {msg}")
    if not any(cert.get("kind") == "shape" for cert in certs):
        defects.append("no shape certificate")
    named = Counter(cert.get("trace_index") for cert in certs if cert.get("kind") in _TRACE_CERTS)
    for ti in range(len(traces)):
        if named[ti] != 1:
            defects.append(f"trace {ti} is named by {named[ti]} trace certificates, not one")
    return defects


def _vacuous_requirements(
    payload: dict, family: AdversaryFamily
) -> set[tuple[int, int, Word]]:
    """(staged tree id, k, witness) for each stage the log marks vacuous:
    the tree and k of the stage's requirement, with the engine's k from the
    parameters, and the witness the log names.  Entry s of a log is stage
    s, which bounds the stages looked up."""
    k = payload["parameters"].get("k")
    k = None if k is None else int(k)
    out = set()
    for s, entry in enumerate(payload["stage_log"]):
        if entry.get("case") == "vacuous":
            if int(entry["stage"]) != s:
                raise ValueError(f"stage log entry {s} names stage {entry['stage']}")
            req = requirement(s, family, k)
            if req is not None and req[2] is not None:
                out.add((req[1].id, req[2], tuple(int(e) for e in entry["witness"])))
    return out


def _row_width_defect(table: TraceTable, lo: int, hi: int) -> Optional[str]:
    """The first word of the trace with fewer than lo or more than hi children."""
    for n, row in enumerate(table.children):
        for i, es in enumerate(row):
            if not lo <= len(es) <= hi:
                return f"trace is not a {hi}-tree: level {n} word {i} has {len(es)} children"
    return None


def _by_id(adversaries, i: int):
    """The staged tree or functional with id i, or None."""
    return next((a for a in adversaries if a.id == i), None)


def _check_certificate(
    cert: dict,
    family: AdversaryFamily,
    stem: Word,
    tree: FiniteTree,
    leaves: list[Word],
    traces: list[tuple[int, TraceTable]],
    labels: Optional[dict[Word, int]],
    depth: int,
    fuel: Optional[int],
    promise: Promise,
    vacuous: set[tuple[int, int, Word]],
) -> Optional[str]:
    kind = cert.get("kind")
    if kind in _TRACE_CERTS and promise.base is None:
        return "the engine keeps no traces"
    if kind in _FUNCTIONAL_CERTS:
        if fuel is None:
            raise ValueError("the record has no fuel parameter")
        if int(cert.get("fuel", fuel)) != fuel:
            return f"fuel {cert['fuel']} differs from the record's fuel {fuel}"
        fn = _by_id(family.functionals, int(cert["functional"]))
        if fn is None:
            return f"no functional with id {cert['functional']}"
    elif kind in ("avoidance", "vacuous_tree_requirement"):
        adv = _by_id(family.staged_trees, int(cert["tree"]))
        if adv is None:
            return f"no staged tree with id {cert['tree']}"
    if kind == "avoidance":
        witness = tuple(int(e) for e in cert["witness"])
        if not is_prefix(witness, stem):
            return f"witness {witness} is not a prefix of the final stem"
        if adv.decide(witness, int(cert["stage"])) is not TriState.OUT:
            return f"witness {witness} is not out of tree {adv.id}"
        return None
    if kind == "vacuous_tree_requirement":
        w = tuple(int(e) for e in cert["witness"])
        k = int(cert["k"])
        if (adv.id, k, w) not in vacuous:
            return f"no stage logged vacuous requires tree {adv.id} at k {k} with witness {w}"
        stage = int(cert["stage"])
        shown = shown_successors(adv, w, stage)
        if shown <= k:
            return f"node {w} shows only {shown} successors, not more than {k}"
        return None
    if kind == "presumed_divergence":
        node = tuple(int(e) for e in cert["node"])
        n = int(cert["position"])
        if not (is_prefix(node, stem) or is_prefix(stem, node)):
            return f"node {node} incomparable with the stem"
        checked = [L for L in leaves if is_prefix(node, L) or is_prefix(L, node)]
        for L in checked:
            if fn.eval(L, n, fuel) is not None:
                return f"branch {L} converges at position {n}"
        return None
    if kind == "value_witness":
        node = tuple(int(e) for e in cert["node"])
        n = int(cert["position"])
        v = int(cert["value"])
        if v < 3:
            return f"claimed value {v} is below 3"
        if not is_prefix(node, stem):
            return f"witness node {node} is not a stem prefix"
        if fn.eval(node, n, fuel) != v:
            return f"functional does not output {v} at {n} on {node}"
        return None
    if kind == "constant_outputs":
        outs = [
            fn.prefix(tuple(int(e) for e in p), depth, fuel)
            for p in cert["probes"]
        ]
        if not pairwise_consistent(outs):
            return "recorded probes disagree"
        return None
    if kind in _TRACE_CERTS:
        # checked against the engine's trace rule, whatever the kind says
        ti = int(cert["trace_index"])
        if not (0 <= ti < len(traces)):
            return f"trace index {ti} out of range"
        owner, table = traces[ti]
        if owner != fn.id:
            return f"trace {ti} belongs to functional {owner}"
        if table.bound != LevelBound("pow", promise.base):
            return f"trace bound is {table.bound.base}^n, not {promise.base}^n"
        msg = _row_width_defect(table, promise.lo, promise.hi)
        if msg is not None:
            return msg
        for L in leaves:
            o = fn.prefix(L, table.depth, fuel)
            if not goes_through(o, table):
                return f"branch {L} output {o} leaves the trace"
        return None
    if kind == "schedule":
        want = schedule_certificate(depth)
        if cert != want:
            return f"terms {cert.get('terms')} are not the task schedule's {want['terms']}"
        return None
    if kind == "labels":
        if labels is None:
            return "record carries no labels"
        try:
            cond = LabeledCondition(stem, tree, labels)
        except ValueError as e:
            return str(e)
        msg = check_label_invariants(cond)
        return msg
    if kind == "shape":
        pred, k, want = promise.predicate, promise.k, promise.shape(depth)
        if (cert.get("predicate"), cert.get("k")) != (pred, k):
            return (f"predicate {cert.get('predicate')!r} with k {cert.get('k')} is not "
                    f"the engine's {pred!r} with k {k}")
        if cert != want:
            return f"{canonical_json(cert)} is not the engine's {canonical_json(want)}"
        if pred == "kbranching":
            bad = is_k_branching_to_depth(tree, k, depth)
        elif pred == "ktree":
            bad = is_k_tree_to_depth(tree, k, depth)
        else:
            bad = is_accelerating_to_depth(tree, depth)
        if bad is not None:
            return f"node {bad.node}: {bad.required}, saw {bad.observed_child_count}"
        return None
    return f"unknown certificate kind {kind!r}"

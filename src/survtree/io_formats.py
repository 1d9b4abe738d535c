"""Plain-text interchange for trees, and JSON for trees and run records.

Tree files are a one-line header followed by one node per line (entries
separated by spaces, the empty line after the header being the root),
sorted shortest-first then lexicographically.  A run record is written as
one line of canonical JSON (sorted keys, no whitespace) carrying a sha256
digest of the canonical JSON of the rest, so byte-level tampering is cheap
to detect.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain
from typing import Any, TextIO

from .trees import FiniteTree, Word


class FormatError(ValueError):
    pass


def _word_line(w: Word) -> str:
    return " ".join(str(e) for e in w)


def _parse_word(line: str, lineno: int) -> Word:
    if line == "":
        return ()
    try:
        return tuple(int(tok) for tok in line.split())
    except ValueError:
        raise FormatError(f"line {lineno}: not a word of naturals: {line!r}")


def dump_tree(t: FiniteTree, fp: TextIO) -> None:
    b = "-" if t.alphabet_bound is None else str(t.alphabet_bound)
    fp.write(f"tree b={b} d={t.depth}\n")
    for w in t.sorted_nodes():
        fp.write(_word_line(w) + "\n")


def load_tree(fp: TextIO) -> FiniteTree:
    """The tree of exactly the listed nodes, at the header's depth (the
    same rule as ``json_to_tree``)."""
    header = fp.readline().rstrip("\n")
    parts = header.split()
    fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
    if (
        len(parts) != 3 or parts[0] != "tree" or set(fields) != {"b", "d"}
        or not re.fullmatch("-|[0-9]+", fields["b"]) or not re.fullmatch("[0-9]+", fields["d"])
    ):
        raise FormatError(f"line 1: bad tree header: {header!r}")
    bound = None if fields["b"] == "-" else int(fields["b"])
    words = [_parse_word(raw, i) for i, raw in enumerate(fp.read().splitlines(), start=2)]
    tree = json_to_tree({"alphabet_bound": bound, "nodes": words})
    if str(tree.depth) != fields["d"]:
        raise FormatError(f"tree has depth {tree.depth}, its header says d={fields['d']}")
    return tree


def tree_to_dot(t: FiniteTree, name: str = "tree") -> str:
    """Graphviz rendering with splitting nodes drawn doubled.  The edges
    run from each non-root node's parent in node order: a sorted level
    lists each parent's children together, the parents in order."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    nodes = t.sorted_nodes()
    ident = {w: f"n{i}" for i, w in enumerate(nodes)}
    for w, c in zip(nodes, chain.from_iterable(t.counts())):
        label = "()" if not w else ".".join(map(str, w))
        shape = "doublecircle" if c > 1 else "circle"
        lines.append(f'  {ident[w]} [label="{label}" shape={shape}];')
    for w in nodes[1:]:
        lines.append(f'  {ident[w[:-1]]} -> {ident[w]} [label="{w[-1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run records.


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _join_object(encoded: dict[str, str]) -> str:
    """canonical_json of an object, given its values' canonical JSON."""
    items = (json.dumps(k) + ":" + encoded[k] for k in sorted(encoded))
    return "{" + ",".join(items) + "}"


def _signed(payload: dict) -> tuple[str, dict[str, str]]:
    """The digest of a payload and the canonical JSON of each of its
    values, the digest left out: every value is encoded once."""
    encoded = {k: canonical_json(v) for k, v in payload.items() if k != "digest"}
    body = _join_object(encoded)
    return hashlib.sha256(body.encode("utf-8")).hexdigest(), encoded


def payload_digest(payload: dict) -> str:
    return _signed(payload)[0]


def dump_record(payload: dict, fp: TextIO) -> None:
    """Stamp the digest and write the payload as one line of canonical JSON.

    The file text is canonical_json of the stamped payload, joined from
    the same value encodings the digest was taken over."""
    digest, encoded = _signed(payload)
    encoded["digest"] = json.dumps(digest)
    fp.write(_join_object(encoded) + "\n")


def load_record(fp: TextIO) -> dict:
    try:
        payload = json.load(fp)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"record is not valid JSON: {e}")
    if not isinstance(payload, dict):
        raise FormatError("record is not a JSON object")
    return payload


def record_digest_ok(payload: dict) -> bool:
    return payload.get("digest") == payload_digest(payload)


# The JSON encoding of trees inside records.


def tree_to_json(t: FiniteTree) -> dict:
    return {"alphabet_bound": t.alphabet_bound, "nodes": [list(w) for w in t.sorted_nodes()]}


_INT = frozenset([int])


def json_to_word(data: list) -> Word:
    """The word of a list of ints, as a record or a tree file gives it.  Any
    other entry, a bool or a float with an int's value included, is
    refused, so that no two lists read as one word."""
    if type(data) not in (list, tuple) or set(map(type, data)) - _INT:
        raise FormatError(f"not a list of ints: {data!r}")
    return tuple(data)


def json_to_tree(data: dict) -> FiniteTree:
    """The tree of exactly the listed nodes, which must be prefix-closed
    and name each node once; no missing prefix is filled in.  The nodes
    are sorted into levels and checked there, with no node set built."""
    words = list(map(json_to_word, data["nodes"]))
    if not words:
        raise FormatError("tree has no nodes")
    try:
        return FiniteTree(words, alphabet_bound=data.get("alphabet_bound"))
    except ValueError as e:
        raise FormatError(str(e)) from None

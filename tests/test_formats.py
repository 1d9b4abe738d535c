"""Text and JSON serialization round trips, digests, DOT output."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree
from survtree.io_formats import (
    FormatError,
    canonical_json,
    dump_record,
    dump_tree,
    json_to_tree,
    load_record,
    load_tree,
    payload_digest,
    record_digest_ok,
    tree_to_dot,
    tree_to_json,
)
from survtree.engine import diagonalize_surviving, verify_record
from survtree.staged import standard_library
from survtree.trees import FiniteTree


def roundtrip_tree(t: FiniteTree) -> FiniteTree:
    buf = io.StringIO()
    dump_tree(t, buf)
    buf.seek(0)
    return load_tree(buf)


def test_tree_text_round_trip():
    t = make_tree([(), (0,), (2,), (0, 1)], bound=3)
    out = roundtrip_tree(t)
    assert out.nodes == t.nodes and out.alphabet_bound == 3


def test_tree_text_round_trip_unbounded():
    t = make_tree([(), (5,)])
    out = roundtrip_tree(t)
    assert out.nodes == t.nodes and out.alphabet_bound is None


def test_tree_text_is_sorted_and_stable():
    t = FiniteTree.full(2, 2)
    buf1, buf2 = io.StringIO(), io.StringIO()
    dump_tree(t, buf1)
    dump_tree(t, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0].startswith("tree ")
    assert lines[1] == ""  # the root
    assert lines[2:] == ["0", "1", "0 0", "0 1", "1 0", "1 1"]


def test_load_tree_reports_line_number():
    bad = "tree b=3 d=1\n\n0\nnonsense x\n"
    with pytest.raises(FormatError) as e:
        load_tree(io.StringIO(bad))
    assert "4" in str(e.value)


def test_load_tree_rejects_bad_header():
    for text in ["not a tree file\n", "tree b=x d=1\n\n0\n", "tree b=3 d=x\n\n0\n"]:
        with pytest.raises(FormatError) as e:
            load_tree(io.StringIO(text))
        assert str(e.value).startswith("line 1: bad tree header: ")


# tree files that do not list exactly their tree: each is refused, not repaired
NOT_THEIR_TREE = {
    "no-prefixes": ("tree b=3 d=7\n0 1\n", "not prefix-closed"),
    "internal-node-dropped": ("tree b=3 d=2\n\n0 1\n", "not prefix-closed"),
    "node-listed-twice": ("tree b=3 d=1\n\n0\n0\n", "listed twice"),
    "depth-below-header": ("tree b=3 d=7\n\n0\n0 1\n", "depth 2, its header says d=7"),
    "depth-above-header": ("tree b=3 d=1\n\n0\n0 1\n", "depth 2, its header says d=1"),
}


@pytest.mark.parametrize("text, message", NOT_THEIR_TREE.values(), ids=NOT_THEIR_TREE)
def test_load_tree_reads_exactly_the_listed_nodes(text, message):
    with pytest.raises(FormatError, match=message):
        load_tree(io.StringIO(text))


def test_json_tree_round_trip():
    t = make_tree([(), (1,), (1, 4)], bound=None)
    assert json_to_tree(tree_to_json(t)).nodes == t.nodes


def test_canonical_json_is_key_sorted():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_digest_changes_with_content():
    p1 = {"engine": "x", "status": "complete"}
    p2 = {"engine": "x", "status": "incomplete"}
    assert payload_digest(p1) != payload_digest(p2)


def test_digest_ignores_existing_digest_field():
    p = {"engine": "x"}
    with_digest = dict(p, digest=payload_digest(p))
    assert payload_digest(with_digest) == payload_digest(p)


def test_record_dump_load_digest():
    payload = {"engine": "build3", "status": "complete"}
    buf = io.StringIO()
    dump_record(payload, buf)
    buf.seek(0)
    loaded = load_record(buf)
    assert record_digest_ok(loaded)
    loaded["status"] = "incomplete"
    assert not record_digest_ok(loaded)


def test_record_dump_is_byte_stable():
    payload = {"engine": "build3", "z": [3, 2], "a": {"y": 1, "x": 2}}
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        dump_record(dict(payload), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def surviving_d6_payload() -> dict:
    return diagonalize_surviving(2, standard_library(), 8, 6, 4000).to_payload()


def test_record_file_is_the_canonical_json_the_digest_signs():
    payload = surviving_d6_payload()
    unsigned = {k: v for k, v in payload.items() if k != "digest"}
    buf = io.StringIO()
    dump_record(unsigned, buf)
    assert buf.getvalue() == canonical_json(payload) + "\n"


def test_indented_record_still_loads_and_verifies():
    payload = surviving_d6_payload()
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True, indent=2)
    buf.write("\n")
    buf.seek(0)
    loaded = load_record(buf)
    assert loaded == payload
    assert verify_record(loaded) == []


def test_dot_output_marks_splitting_nodes():
    dot = tree_to_dot(FiniteTree.full(2, 1))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    dot2 = tree_to_dot(FiniteTree.from_words([(0,) * 2], 1))
    assert "doublecircle" not in dot2


@st.composite
def tree_strategy(draw):
    nodes = {()}
    frontier = [()]
    for _ in range(draw(st.integers(0, 3))):
        nxt = []
        for w in frontier:
            for e in draw(st.sets(st.integers(0, 3), max_size=3)):
                nodes.add(w + (e,))
                nxt.append(w + (e,))
        frontier = nxt
    return FiniteTree(frozenset(nodes))


@settings(max_examples=80, deadline=None)
@given(tree_strategy())
def test_tree_round_trip_property(t):
    assert roundtrip_tree(t).nodes == t.nodes



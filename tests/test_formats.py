"""Text and JSON serialization round trips, digests, DOT output."""

from __future__ import annotations

import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree
from survtree import io_formats
from survtree.io_formats import (
    FormatError,
    TRACE_ENTRY_LIMIT,
    canonical_json,
    dump_record,
    dump_tree,
    json_to_trace,
    json_to_tree,
    load_record,
    load_tree,
    payload_digest,
    record_digest_ok,
    trace_to_json,
    trace_fits,
    tree_to_dot,
    tree_to_json,
)
from survtree.engine import diagonalize_surviving, verify_record
from survtree.engine.common import trace_from_outputs
from survtree.staged import standard_library
from survtree.traces import TraceTable
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


def test_json_trace_round_trip():
    tr = trace_from_outputs([(0, 0, 0)], 3, 2)
    out = json_to_trace(trace_to_json(tr), 3, 2)
    assert out.levels == tr.levels and out.base == tr.base


def test_trace_without_the_empty_word_has_no_json_form():
    # level 0 is the empty word, so a first row without its list is refused
    with pytest.raises(ValueError, match="row 0 has 0 lists for 1 words"):
        TraceTable(((),), 2)


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


def test_overlong_trace_word_is_a_malformed_record():
    # a seventh row would spell words one entry longer than the depth
    payload = surviving_d6_payload()
    children = payload["traces"][0]["children"]
    children.append([[0]] * sum(map(len, children[-1])))
    payload["digest"] = payload_digest(payload)
    defects = verify_record(payload)
    assert defects == ["malformed record: a trace of depth 6 needs 6 children rows"]


# row 1 of a depth-2 ternary table, and of the first trace of surviving_d6_payload,
# is three lists [0, 1, 2]; each of these replacements breaks it
MALFORMED_ROW_1 = {
    "duplicate-entry": ([[0, 0, 1], [0, 1, 2], [0, 1, 2]], "not increasing naturals"),
    "decreasing-entry": ([[0, 2, 1], [0, 1, 2], [0, 1, 2]], "not increasing naturals"),
    "negative-entry": ([[-1, 0, 1], [0, 1, 2], [0, 1, 2]], "not increasing naturals"),
    "bool-entry": ([[0, True, 2], [0, 1, 2], [0, 1, 2]], "not increasing naturals"),
    "non-int-entry": ([[0, 1.0, 2], [0, 1, 2], [0, 1, 2]], "not increasing naturals"),
    "wrong-list-count": ([[0, 1, 2], [0, 1, 2]], "row 1 has 2 lists for 3 words"),
}


@pytest.mark.parametrize("row, message", MALFORMED_ROW_1.values(), ids=MALFORMED_ROW_1)
def test_malformed_row_is_refused_by_the_table_and_the_verifier(row, message):
    with pytest.raises(ValueError, match=message):
        TraceTable(([[0, 1, 2]], row), 3)
    payload = surviving_d6_payload()
    assert payload["traces"][0]["children"][:2] == [[[0, 1, 2]], [[0, 1, 2]] * 3]
    payload["traces"][0]["children"][1] = row
    payload["digest"] = payload_digest(payload)
    defects = verify_record(payload)
    assert len(defects) == 1 and defects[0].startswith("malformed record: ")


def test_deep_forged_trace_decodes_quickly():
    # a few bytes declaring 100,000 levels: no level may cost a power of
    # the base that its size could not reach
    rows = [[[]]] + [[] for _ in range(99_999)]
    start = time.perf_counter()
    table = json_to_trace({"children": rows}, 100_000, 2)
    assert time.perf_counter() - start < 1.0
    assert table.depth == 100_000


def test_deep_forged_comb_trace_is_refused_quickly():
    # 100,000 one-entry rows stand for words of total length about 5 * 10**9
    rows = [[[0]] for _ in range(100_000)]
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"more than {TRACE_ENTRY_LIMIT} entries"):
        json_to_trace({"children": rows}, 100_000, 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("base, fits, refused", [(3, 12, 13), (4, 10, 11)])
def test_trace_fits_up_to_the_decode_limit(base, fits, refused):
    # surviving traces at k = 2 and k = 3
    assert trace_fits(base, fits)
    assert not trace_fits(base, refused)
    assert trace_fits(base, 0)
    start = time.perf_counter()
    assert not trace_fits(10**6, 10**9)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("base, depth", [(2, 4), (3, 3)])
def test_a_full_trace_decodes_exactly_when_it_fits(monkeypatch, base, depth):
    """The entries the guard counts are those json_to_trace counts: a full
    trace at the limit decodes, and one entry less refuses it."""
    full = {"children": [[list(range(base))] * base**n for n in range(depth)]}
    spelled = sum(n * base**n for n in range(1, depth + 1))
    monkeypatch.setattr(io_formats, "TRACE_ENTRY_LIMIT", spelled)
    assert trace_fits(base, depth)
    assert json_to_trace(full, depth, base).depth == depth
    monkeypatch.setattr(io_formats, "TRACE_ENTRY_LIMIT", spelled - 1)
    assert not trace_fits(base, depth)
    with pytest.raises(FormatError, match=f"more than {spelled - 1} entries"):
        json_to_trace(full, depth, base)


def test_trace_depth_other_than_the_record_depth_is_a_malformed_record():
    # 100,000 rows where the record's depth allows 6, refused before any is read
    payload = surviving_d6_payload()
    payload["traces"][0]["children"] = [[[]]] + [[] for _ in range(99_999)]
    payload["digest"] = payload_digest(payload)
    start = time.perf_counter()
    defects = verify_record(payload)
    assert time.perf_counter() - start < 1.0
    assert defects == ["malformed record: a trace of depth 6 needs 6 children rows"]


@pytest.mark.parametrize("key, value", [
    ("bound", {"kind": "pow", "base": 3}),
    ("depth", 6),
])
def test_a_trace_that_restates_its_bound_or_depth_is_a_malformed_record(key, value):
    # the record's depth and the engine's promise fix both, so a trace holds
    # only its functional and its rows
    payload = surviving_d6_payload()
    payload["traces"][0][key] = value
    payload["digest"] = payload_digest(payload)
    assert verify_record(payload) == [
        "malformed record: a trace is an object of only its functional and its children rows"
    ]


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


@settings(max_examples=80, deadline=None)
@given(tree_strategy())
def test_trace_json_is_level_order_and_round_trips(t):
    tr = trace_from_outputs(t.leaves(), t.depth, 4)
    data = trace_to_json(tr)
    assert set(data) == {"children"} and len(data["children"]) == tr.depth
    for n, row in enumerate(data["children"]):
        parents = sorted(tr.levels[n])
        assert len(row) == len(parents)
        for w, es in zip(parents, row):
            assert es == sorted(c[-1] for c in tr.levels[n + 1] if c[:-1] == w)
    out = json_to_trace(json.loads(canonical_json(data)), tr.depth, 4)
    assert out.levels == tr.levels and out == tr

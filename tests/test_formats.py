"""Text and JSON serialization round trips, digests, DOT output."""

from __future__ import annotations

import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import level_size, make_tree
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
from survtree.cli import main
from survtree.engine import diagonalize_surviving, verify_record
from survtree.engine.common import trace_from_outputs
from survtree.staged import standard_library
from survtree.traces import BoundExceeded, TraceTable
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
    children.append([[level_size(children[-1]), [0]]])
    payload["digest"] = payload_digest(payload)
    defects = verify_record(payload)
    assert defects == ["malformed record: a trace of depth 6 needs 6 children rows"]


# row 1 of a depth-2 ternary table, and of the first trace of surviving_d6_payload,
# is one run of three words with children [0, 1, 2]; each of these replacements
# breaks it, in a table of its words and in a record of its runs
MALFORMED_ROW_1 = {
    "duplicate-entry": ([[1, [0, 0, 1]], [2, [0, 1, 2]]], "word 0: .* not increasing naturals"),
    "decreasing-entry": ([[1, [0, 2, 1]], [2, [0, 1, 2]]], "word 0: .* not increasing naturals"),
    "negative-entry": ([[1, [-1, 0, 1]], [2, [0, 1, 2]]], "word 0: .* not increasing naturals"),
    "bool-entry": ([[1, [0, True, 3]], [2, [0, 1, 2]]], "word 0: .* not increasing naturals"),
    "non-int-entry": ([[1, [0, 1.0, 3]], [2, [0, 1, 2]]], "word 0: .* not increasing naturals"),
    # equal to the words around it, which a check of each run of equal
    # words alone would pass; the record's runs are not maximal
    "bool-entry-among-its-equals": (
        [[1, [0, 1, 2]], [1, [0, True, 2]], [1, [0, 1, 2]]],
        r"word 1: \[0, True, 2\] not increasing naturals",
    ),
    "wrong-list-count": ([[2, [0, 1, 2]]], "row 1 has 2 lists for 3 words"),
}


def _words(runs: list) -> list:
    """A run-coded row as one children list per word."""
    return [es for count, es in runs for _ in range(count)]


@pytest.mark.parametrize("runs, message", MALFORMED_ROW_1.values(), ids=MALFORMED_ROW_1)
def test_malformed_row_is_refused_by_the_table_and_the_verifier(runs, message):
    with pytest.raises(ValueError, match=message):
        TraceTable(([[0, 1, 2]], _words(runs)), 3)
    payload = surviving_d6_payload()
    assert payload["traces"][0]["children"][:2] == [[[1, [0, 1, 2]]], [[3, [0, 1, 2]]]]
    payload["traces"][0]["children"][1] = runs
    payload["digest"] = payload_digest(payload)
    defects = verify_record(payload)
    assert len(defects) == 1 and defects[0].startswith("malformed record: ")


def test_deep_forged_trace_decodes_quickly():
    # a few bytes declaring 100,000 levels: no level may cost a power of
    # the base that its size could not reach
    rows = [[[1, []]]] + [[] for _ in range(99_999)]
    start = time.perf_counter()
    table = json_to_trace({"children": rows}, 100_000, 2)
    assert time.perf_counter() - start < 1.0
    assert table.depth == 100_000


# below the empty level 2 every row must be empty: a row after a run of
# empty rows that is not is refused with the message the row check gives it
EMPTY_TAIL = {
    "a-run": ([[1, [0]]], "row 5 has runs of 1 words for 0 words"),
    "no-list": ({}, "row 5 is not a list of"),
    "an-empty-run": ([[1, []]], "row 5 has runs of 1 words for 0 words"),
}


@pytest.mark.parametrize("row, message", EMPTY_TAIL.values(), ids=EMPTY_TAIL)
def test_a_row_below_an_empty_level_that_is_not_empty_is_refused(row, message):
    rows = [[[1, [3]]], [[1, []]], [], [], [], row, []]
    with pytest.raises(FormatError, match=message):
        json_to_trace({"children": rows}, 7, 2)
    words = [[[3]], [[]], [], [], [], _words(row) if row else [[]], []]
    with pytest.raises(ValueError, match="row 5 has 1 lists for 0 words"):
        TraceTable(words, 2)
    rows[5] = []
    assert json_to_trace({"children": rows}, 7, 2).children == (((3,),), ((),)) + ((),) * 5


def test_deep_forged_comb_trace_is_refused_quickly():
    # 100,000 one-entry rows stand for words of total length about 5 * 10**9
    rows = [[[1, [0]]] for _ in range(100_000)]
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


def _full_rows(base: int, depth: int) -> list:
    """The run-coded rows of the full base-ary trace of the depth."""
    return [[[base**n, list(range(base))]] for n in range(depth)]


@pytest.mark.parametrize("base, depth", [(2, 4), (3, 3)])
def test_a_full_trace_decodes_exactly_when_it_fits(monkeypatch, base, depth):
    """The entries the guard counts are those json_to_trace counts: a full
    trace at the limit decodes, and one entry less refuses it."""
    full = {"children": _full_rows(base, depth)}
    spelled = sum(n * base**n for n in range(1, depth + 1))
    monkeypatch.setattr(io_formats, "TRACE_ENTRY_LIMIT", spelled)
    assert trace_fits(base, depth)
    assert json_to_trace(full, depth, base).depth == depth
    monkeypatch.setattr(io_formats, "TRACE_ENTRY_LIMIT", spelled - 1)
    assert not trace_fits(base, depth)
    with pytest.raises(FormatError, match=f"more than {spelled - 1} entries"):
        json_to_trace(full, depth, base)


NOT_RUNS = "row 0 is not a list of [count >= 1, entries] runs"

# forged run-coded rows of a base-3 trace, each refused from its run counts
# alone, and the words of the refusal
FORGED_RUNS = {
    # level 13 declared with 4 * 3**12 words, where 3**13 are allowed
    "level-over-the-bound": (
        _full_rows(3, 12) + [[[3**12, [0, 1, 2, 3]]]],
        f"level 13 has {4 * 3**12} words, bound allows {3**13}",
    ),
    # the full ternary trace of depth 13 spells out 30 million entries
    "over-the-entry-limit": (_full_rows(3, 13), f"trace spells out more than {TRACE_ENTRY_LIMIT}"),
    "count-0": ([[[0, [0]]], [[1, []]]], NOT_RUNS),
    "count-negative": ([[[-1, [0]]], [[1, []]]], NOT_RUNS),
    "count-bool": ([[[True, [0]]], [[1, []]]], NOT_RUNS),
    "count-float": ([[[1.0, [0]]], [[1, []]]], NOT_RUNS),
    "count-string": ([[["1", [0]]], [[1, []]]], NOT_RUNS),
    "adjacent-equal-runs": (
        [[[1, [0, 1]]], [[1, [0]], [1, [0]]], [[2, []]]],
        "row 1 has two adjacent runs alike, so not maximal",
    ),
    "counts-over-the-level": (
        [[[1, [0, 1]]], [[10**12, [0]]], [[2, []]]],
        f"row 1 has runs of {10**12} words for 2 words",
    ),
    "counts-under-the-level": (
        [[[1, [0, 1]]], [[1, [0]]], [[2, []]]],
        "row 1 has runs of 1 words for 2 words",
    ),
}


@pytest.fixture
def no_expansion(monkeypatch):
    """Fail any decode that expands a run into its words."""
    def expand(*args):
        raise AssertionError("a run was expanded")
    monkeypatch.setattr(io_formats, "repeat", expand)


@pytest.mark.parametrize("rows, message", FORGED_RUNS.values(), ids=FORGED_RUNS)
def test_forged_runs_are_refused_before_any_row_is_expanded(no_expansion, rows, message):
    start = time.perf_counter()
    with pytest.raises((FormatError, BoundExceeded), match=re.escape(message)):
        json_to_trace({"children": rows}, len(rows), 3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rows, message", FORGED_RUNS.values(), ids=FORGED_RUNS)
def test_verify_refuses_forged_runs_before_any_row_is_expanded(
    no_expansion, tmp_path, capsys, rows, message
):
    # a surviving record at k = 2 (base 3) whose depth and first trace are forged
    payload = surviving_d6_payload()
    payload["parameters"]["depth"] = len(rows)
    payload["traces"][0]["children"] = rows
    del payload["digest"]
    out = tmp_path / "rec.json"
    with open(out, "w") as fp:
        dump_record(payload, fp)
    start = time.perf_counter()
    assert main(["verify", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    printed = capsys.readouterr().out
    assert printed.startswith("defect: malformed record: ") and message in printed


def test_a_record_in_the_per_word_form_is_malformed():
    # each row as one children list per word, the form records carried
    # before their rows were run-coded
    payload = surviving_d6_payload()
    for trace in payload["traces"]:
        trace["children"] = [_words(runs) for runs in trace["children"]]
    payload["digest"] = payload_digest(payload)
    assert verify_record(payload) == [
        "malformed record: children row 0 is not a list of [count >= 1, entries] runs"
    ]


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
    for n, runs in enumerate(data["children"]):
        parents = sorted(tr.levels[n])
        row = _words(runs)
        assert len(row) == len(parents)
        for w, es in zip(parents, row):
            assert es == sorted(c[-1] for c in tr.levels[n + 1] if c[:-1] == w)
    out = json_to_trace(json.loads(canonical_json(data)), tr.depth, 4)
    assert out.levels == tr.levels and out == tr


@st.composite
def trace_tables(draw):
    """A trace table whose words' children are drawn from a few tuples, so
    that rows hold runs of equal words and runs of one word."""
    base = draw(st.integers(2, 4))
    choices = draw(st.lists(
        st.sets(st.integers(0, base - 1), max_size=base).map(lambda es: tuple(sorted(es))),
        min_size=1, max_size=3,
    ))
    rows, size = [], 1
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.lists(st.sampled_from(choices), min_size=size, max_size=size))
        rows.append(tuple(row))
        size = sum(map(len, row))
    return TraceTable(tuple(rows), base)


@settings(max_examples=200, deadline=None)
@given(trace_tables())
def test_every_trace_table_round_trips_through_maximal_runs(tr):
    data = json.loads(canonical_json(trace_to_json(tr)))
    for runs in data["children"]:
        assert all(count >= 1 for count, _ in runs)
        assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    out = json_to_trace(data, tr.depth, tr.base)
    assert out.children == tr.children and out.levels == tr.levels

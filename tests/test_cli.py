"""Command-line behaviors: subcommands, exit statuses, file round trips."""

from __future__ import annotations

import copy
import functools
import io
import json

import pytest

from survtree import cli, io_formats
from survtree.cli import build_parser, main
from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify_record,
)
from survtree.engine.surviving import TREE_ENTRY_LIMIT, tree_fits
from survtree.io_formats import (
    canonical_json,
    dump_record,
    dump_tree,
    load_record,
    load_tree,
)
from survtree.staged import standard_library
from survtree.trees import FiniteTree


def write_tree(path, tree):
    with open(path, "w") as fp:
        dump_tree(tree, fp)


def test_min_cover_prints_value(capsys):
    assert main(["min-cover", "--b", "3", "--k", "2", "--d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_min_cover_out_of_guard_is_usage_error(capsys):
    assert main(["min-cover", "--b", "4", "--k", "2", "--d", "6"]) == 2


def test_min_cover_k_below_two_is_usage_error(capsys):
    assert main(["min-cover", "--b", "3", "--k", "1", "--d", "2"]) == 2
    assert "2 <= k <= b" in capsys.readouterr().err


def test_run_build3_empty_family_then_verify(tmp_path, capsys):
    out = tmp_path / "rec.json"
    assert main(
        [
            "run", "--engine", "build3", "--family", "empty",
            "--depth", "6", "--out", str(out),
        ]
    ) == 0
    assert main(["verify", str(out)]) == 0
    with open(out) as fp:
        payload = load_record(fp)
    zero_comb = frozenset((0,) * n for n in range(7))
    nodes = frozenset(tuple(w) for w in payload["final_tree"]["nodes"])
    assert nodes == zero_comb


def test_run_surviving_then_verify(tmp_path):
    out = tmp_path / "sv.json"
    assert main(
        [
            "run", "--engine", "surviving", "--family", "standard",
            "--k", "2", "--stages", "6", "--depth", "5",
            "--fuel", "2000", "--out", str(out),
        ]
    ) == 0
    assert main(["verify", str(out)]) == 0


def test_run_signs_its_record_once(tmp_path, monkeypatch):
    """``survtree run`` encodes the payload once, for the digest and the file
    text alike, and writes what ``to_payload`` signs."""
    signed = []
    sign = io_formats._signed
    monkeypatch.setattr(io_formats, "_signed", lambda p: signed.append(p) or sign(p))
    out = tmp_path / "acc.json"
    argv = ["run", "--engine", "accelerating", "--depth", "8", "--out", str(out)]
    assert main(argv) == 0
    assert len(signed) == 1 and "digest" not in signed[0]
    payload = accelerating_force(standard_library(), 8, 8, 10000).to_payload()
    assert out.read_text() == canonical_json(payload) + "\n"


@pytest.mark.parametrize(
    "engine, flag, value, message",
    [
        ("surviving", "--k", "1", "--k must be >= 2"),
        ("surviving", "--k", "-3", "--k must be >= 2"),
        ("surviving", "--depth", "-1", "argument --depth: '-1' is not"),
        ("surviving", "--stages", "-2", "argument --stages: '-2' is not"),
        ("surviving", "--fuel", "-5", "argument --fuel: '-5' is not"),
        ("build3", "--depth", "-1", "argument --depth"),
        ("traceable", "--stages", "-1", "argument --stages"),
        ("accelerating", "--fuel", "x", "argument --fuel: 'x' is not"),
    ],
)
def test_bad_run_parameter_is_usage_error(tmp_path, capsys, engine, flag, value, message):
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", engine, flag, value, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


class _EngineCalled(Exception):
    pass


def _refuse_to_run(*args):
    raise _EngineCalled(args)


@pytest.mark.parametrize("k, fits, refused", [("2", "12", "13"), ("3", "10", "11")])
def test_surviving_run_past_the_tree_limit_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, k, fits, refused
):
    monkeypatch.setattr(cli, "diagonalize_surviving", _refuse_to_run)
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", "surviving", "--k", k, "--out", str(out), "--depth"]
    assert main(argv + [refused]) == 2
    err = capsys.readouterr().err
    assert f"the final tree could spell out more than {TREE_ENTRY_LIMIT} entries" in err
    assert "Traceback" not in err
    assert not out.exists()
    # one level less passes the guard and reaches the engine
    with pytest.raises(_EngineCalled):
        main(argv + [fits])


@pytest.mark.parametrize("b, fits, refused", [(3, 12, 13), (4, 10, 11)])
def test_tree_fits_up_to_the_entry_limit(b, fits, refused):
    """The guard admits k = 2 up to depth 12 and k = 3 up to depth 10,
    called at the boundary with no tree built, and a huge depth is refused
    at once."""
    assert tree_fits(b, fits) and not tree_fits(b, refused) and tree_fits(b, 0)
    assert not tree_fits(10**6, 10**9)


@pytest.mark.parametrize("b, depth", [(2, 4), (3, 3)])
def test_tree_fits_counts_the_entries_of_the_full_tree(monkeypatch, b, depth):
    """The entries the guard counts are those the full tree's words spell
    out: a limit of exactly that many admits the depth, one less refuses it."""
    from survtree.engine import surviving

    spelled = sum(map(len, FiniteTree.full(b, depth).nodes))
    monkeypatch.setattr(surviving, "TREE_ENTRY_LIMIT", spelled)
    assert tree_fits(b, depth)
    monkeypatch.setattr(surviving, "TREE_ENTRY_LIMIT", spelled - 1)
    assert not tree_fits(b, depth)


def test_accelerating_run_past_the_case4_limit_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "accelerating_force", _refuse_to_run)
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", "accelerating", "--stages", "8", "--out", str(out), "--depth"]
    assert main(argv + ["30"]) == 2
    err = capsys.readouterr().err
    assert "--depth 30: case 4 could try more than 300000 candidate extensions" in err
    assert "Traceback" not in err
    assert not out.exists()
    # the golden grid's and the benchmark's depths reach the engine
    for depth in ("6", "8", "12", "26"):
        with pytest.raises(_EngineCalled):
            main(argv + [depth])


def test_zero_run_parameters_are_accepted(tmp_path):
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", "surviving", "--stages", "0", "--depth", "3",
            "--fuel", "0", "--out", str(out)]
    assert main(argv) == 0
    assert main(["verify", str(out)]) == 0


def test_verify_accepts_legacy_indented_record(tmp_path, capsys):
    out = tmp_path / "rec.json"
    main(
        [
            "run", "--engine", "surviving", "--family", "standard",
            "--k", "2", "--stages", "6", "--depth", "5",
            "--fuel", "2000", "--out", str(out),
        ]
    )
    text = out.read_text()
    assert text.count("\n") == 1
    out.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_rejects_tampered_record(tmp_path, capsys):
    out = tmp_path / "rec.json"
    main(
        [
            "run", "--engine", "build3", "--family", "empty",
            "--depth", "4", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    payload["final_stem"] = [1, 1, 1, 1]
    out.write_text(json.dumps(payload))
    assert main(["verify", str(out)]) == 1
    assert "defect" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, key",
    [
        ({"staged_trees": [], "functionals": [], "trees": []}, "trees"),
        (
            {
                "staged_trees": [
                    {"kind": "full_subtree", "alphabet": [0, 1],
                     "claimed_shape": ["branching", 2]}
                ],
                "functionals": [],
            },
            "claimed_shape",
        ),
        # a key that another kind reads
        (
            {"staged_trees": [], "functionals": [{"kind": "identity", "modulus": 3}]},
            "modulus",
        ),
    ],
)
def test_unknown_family_config_key_is_usage_error(tmp_path, capsys, config, key):
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(config))
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", "build3", "--family", str(f), "--depth", "4"]
    assert main(argv + ["--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"staged_trees": [5]}',
        '{"staged_trees": [{"kind": "comb", "entry": "x"}]}',
        '{"staged_trees": [{"kind": "full_subtree", "alphabet": []}]}',
        '{"staged_trees": [',
    ],
)
def test_malformed_family_config_is_usage_error(tmp_path, capsys, text):
    f = tmp_path / "fam.json"
    f.write_text(text)
    out = tmp_path / "rec.json"
    argv = ["run", "--engine", "build3", "--family", str(f), "--depth", "4"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("bad family config: ")
    assert not out.exists()


def test_verify_reports_malformed_family_value_as_malformed(tmp_path, capsys):
    out = tmp_path / "rec.json"
    main(
        [
            "run", "--engine", "build3", "--family", "empty",
            "--depth", "4", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    payload["family"]["staged_trees"] = [5]
    with open(out, "w") as fp:
        dump_record(payload, fp)  # signed again, so only the value is wrong
    assert main(["verify", str(out)]) == 1
    assert "malformed record: staged tree entry 0" in capsys.readouterr().out


def test_verify_reports_unknown_family_key_as_malformed(tmp_path, capsys):
    out = tmp_path / "rec.json"
    main(
        [
            "run", "--engine", "build3", "--family", "empty",
            "--depth", "4", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    payload["family"]["trees"] = []
    with open(out, "w") as fp:
        dump_record(payload, fp)  # signed again, so only the key is wrong
    assert main(["verify", str(out)]) == 1
    assert "malformed record" in capsys.readouterr().out


@functools.lru_cache(maxsize=None)
def _surviving_d4_payload() -> dict:
    return diagonalize_surviving(2, standard_library(), 8, 4, 4000).to_payload()


def _stored_traces(p: dict) -> None:
    p["traces"] = [{"functional": 0, "children": [[[1, [0, 1, 2]]]] * 4}]


def _trace_certificate(kind: str):
    def edit(p):
        p["certificates"].append({"kind": kind, "functional": 0, "trace_index": 0})
    return edit


@pytest.mark.parametrize(
    "edit, what",
    [
        pytest.param(_stored_traces, "stores traces", id="traces"),
        pytest.param(lambda p: p.update(traces=[]), "stores traces", id="no-traces"),
        pytest.param(_trace_certificate("trace"), "holds trace certificates", id="trace"),
        pytest.param(
            _trace_certificate("two_tree_trace"), "holds trace certificates", id="two_tree_trace"
        ),
    ],
)
def test_verify_refuses_a_record_of_the_format_with_traces(tmp_path, capsys, edit, what):
    """A record written while records stored traces, signed as it was, is
    refused with one defect that says to re-run it: its traces are never
    read, so they cannot pass unchecked."""
    payload = copy.deepcopy(_surviving_d4_payload())
    assert verify_record(payload) == []
    edit(payload)
    del payload["digest"]
    out = tmp_path / "rec.json"
    with open(out, "w") as fp:
        dump_record(payload, fp)
    with open(out) as fp:
        defects = verify_record(load_record(fp))
    assert defects == [
        f"a record of an earlier format: it {what}, which the verifier now derives; "
        "re-run the engine to write it anew"
    ]
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"defect: {defects[0]}\n"
    assert "Traceback" not in captured.err


def _full_3_trace() -> dict:
    """A stored trace in the level-order form records used to carry: the
    full 3-ary trie to depth 4, each row one run ``[count, entries]``."""
    return {"functional": 0, "children": [[[3**n, [0, 1, 2]]] for n in range(4)]}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda t: None, id="well-formed"),
        pytest.param(lambda t: t.update(children=None), id="rows-not-a-list"),
    ],
)
def test_stored_trace_rows_of_any_form_are_refused_unread(tmp_path, capsys, edit):
    """Whatever a stored trace's rows hold, well formed or not, the record
    is refused as an earlier format with its one defect: no row is read."""
    payload = copy.deepcopy(_surviving_d4_payload())
    trace = _full_3_trace()
    edit(trace)
    payload["traces"] = [trace]
    del payload["digest"]
    out = tmp_path / "rec.json"
    with open(out, "w") as fp:
        dump_record(payload, fp)
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "defect: a record of an earlier format: it stores traces, which the verifier now "
        "derives; re-run the engine to write it anew\n"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"functional": 0, "trace_index": "0"}, id="index-not-an-int"),
        pytest.param({"functional": True, "trace_index": 10**9}, id="bool-functional"),
        pytest.param({}, id="no-fields"),
    ],
)
@pytest.mark.parametrize("kind", ["trace", "two_tree_trace"])
def test_a_trace_certificate_of_any_fields_is_refused_unread(kind, fields):
    """A trace certificate is refused as of the earlier format before any
    of its fields, or any other certificate, is read."""
    payload = copy.deepcopy(_surviving_d4_payload())
    payload["certificates"] += [{"kind": kind, **fields}, "not an object"]
    payload["digest"] = io_formats.payload_digest(payload)
    assert verify_record(payload) == [
        "a record of an earlier format: it holds trace certificates, which the verifier "
        "now derives; re-run the engine to write it anew"
    ]


@functools.lru_cache(maxsize=None)
def _golden_payload(name: str) -> dict:
    lib = standard_library()
    records = {
        "surviving-d6": lambda: diagonalize_surviving(2, lib, 8, 6, 4000),
        "traceable-d6": lambda: traceable_prune(
            initial_condition(lib, 6, 20), lib, 4, 6, 4000
        ),
        "accelerating-d6": lambda: accelerating_force(lib, 6, 6, 4000),
        "build3-d8": lambda: build3_record(lib, 8, 24),
    }
    return records[name]().to_payload()


def _drop_internal_node(nodes: list) -> None:
    nodes.remove(nodes[-1][:-1])  # the parent of a deepest node


@pytest.mark.parametrize(
    "name", ["surviving-d6", "traceable-d6", "accelerating-d6", "build3-d8"]
)
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_drop_internal_node, "not prefix-closed", id="internal-node-dropped"),
        pytest.param(lambda ns: ns.append(ns[-1]), "listed twice", id="node-listed-twice"),
    ],
)
def test_verify_reports_a_final_tree_that_is_not_its_node_list(
    tmp_path, capsys, name, edit, message
):
    payload = copy.deepcopy(_golden_payload(name))
    assert verify_record(payload) == []
    edit(payload["final_tree"]["nodes"])
    del payload["digest"]
    out = tmp_path / "rec.json"
    with open(out, "w") as fp:
        dump_record(payload, fp)  # signed again, so only the node list is wrong
    with open(out) as fp:
        defects = verify_record(load_record(fp))
    assert len(defects) == 1 and defects[0].startswith("malformed record: ")
    assert message in defects[0]
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().out == f"defect: {defects[0]}\n"


def _set_first_certificate(p):
    p["certificates"][0] = 5


def _set_first_stage_log_entry(p):
    p["stage_log"][0] = 5


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set_first_certificate, "the certificates are not a list of objects",
                     id="certificate-not-an-object"),
        pytest.param(lambda p: p.update(certificates={"kind": "avoidance"}),
                     "the certificates are not a list of objects", id="certificates-an-object"),
        pytest.param(_set_first_stage_log_entry, "the stage log entries are not a list of objects",
                     id="stage-log-entry-not-an-object"),
    ],
)
def test_verify_reports_a_record_part_that_is_not_an_object_as_malformed(
    tmp_path, capsys, edit, message
):
    payload = copy.deepcopy(_golden_payload("surviving-d6"))
    edit(payload)
    del payload["digest"]
    out = tmp_path / "rec.json"
    with open(out, "w") as fp:
        dump_record(payload, fp)  # signed again, so only the shape of the part is wrong
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"defect: malformed record: {message}\n"
    assert "Traceback" not in captured.err


def test_verify_missing_file_is_usage_error(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


# bytes that are no UTF-8 text, let alone JSON
NOT_TEXT = b"\xff\xfe{"


def test_verify_of_a_file_that_is_not_text_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_bytes(NOT_TEXT)
    assert main(["verify", str(f)]) == 2
    assert capsys.readouterr().err.startswith("cannot read record: ")


def test_run_with_a_family_file_that_is_not_text_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_bytes(NOT_TEXT)
    out = tmp_path / "rec.json"
    assert main(["run", "--engine", "surviving", "--family", str(f), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("bad family config: ")
    assert not out.exists()


def test_check_tree_accepts_comb(tmp_path, capsys):
    f = tmp_path / "comb.tree"
    write_tree(f, FiniteTree.from_words([(0,) * 3], 1))
    assert main(
        ["check-tree", "--pred", "ktree", "--k", "2", "--d", "3", str(f)]
    ) == 0


def test_check_tree_names_violating_node(tmp_path, capsys):
    f = tmp_path / "full.tree"
    write_tree(f, FiniteTree.full(3, 2))
    code = main(
        ["check-tree", "--pred", "kbranching", "--k", "2", "--d", "2", str(f)]
    )
    assert code == 1
    assert "[]" in capsys.readouterr().out  # the root is named


def test_check_tree_malformed_file_reports_line(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("tree b=3 d=1\n\n0\nbad words here\n")
    assert main(
        ["check-tree", "--pred", "ktree", "--k", "2", "--d", "1", str(f)]
    ) == 2
    assert "4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pred, k", [("ktree", 0), ("kbranching", 1)], ids=["ktree-k0", "kbranching-k1"]
)
def test_check_tree_out_of_range_k_is_usage_error(tmp_path, capsys, pred, k):
    f = tmp_path / "full.tree"
    write_tree(f, FiniteTree.full(2, 1))
    assert main(["check-tree", "--pred", pred, "--k", str(k), "--d", "1", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"--k {k}: k must be >=")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("tree b=3 d=7\n0 1\n", id="no-prefixes"),
        pytest.param("tree b=3 d=1\n\n0\n0\n", id="node-listed-twice"),
        pytest.param("tree b=3 d=7\n\n0\n0 1\n", id="depth-not-the-header"),
    ],
)
@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param(["check-tree", "--pred", "ktree", "--k", "2", "--d", "1"], "cannot read tree",
                     id="check-tree"),
        pytest.param(["pushforward", "--g", "G"], "cannot read inputs", id="pushforward"),
        pytest.param(["emit"], "cannot read tree", id="emit"),
    ],
)
def test_tree_commands_refuse_a_file_that_is_not_its_tree(tmp_path, capsys, text, argv, error):
    f = tmp_path / "t.tree"
    f.write_text(text)
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"domain": 3, "codomain": 3, "table": [0, 1, 2]}))
    assert main([str(g) if a == "G" else a for a in argv] + [str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(error) and captured.out == ""


def test_pushforward_maps_tree(tmp_path, capsys):
    tf = tmp_path / "t.tree"
    write_tree(tf, FiniteTree(frozenset({(), (0,), (0, 1)}), alphabet_bound=3))
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"domain": 3, "codomain": 3, "table": [0, 2, 1]}))
    assert main(["pushforward", "--g", str(gf), str(tf)]) == 0
    out = load_tree(io.StringIO(capsys.readouterr().out))
    assert out.nodes == frozenset({(), (0,), (0, 2)})


def test_emit_dot(tmp_path, capsys):
    f = tmp_path / "t.tree"
    write_tree(f, FiniteTree.full(2, 1))
    assert main(["emit", str(f)]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    dot = tmp_path / "t.dot"
    assert main(["emit", "--dot", str(dot), str(f)]) == 0
    assert dot.read_text().startswith("digraph")


def test_unknown_subcommand_rejected():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_rejected():
    assert main(["min-cover", "--b", "3", "--k", "2", "--d", "1", "--x"]) == 2


def test_one_parser_serves_consecutive_calls(capsys):
    ok = ["min-cover", "--b", "3", "--k", "2", "--d", "1"]
    assert main(ok) == 0
    assert main(ok[:-2]) == 2  # --d missing
    assert "--d" in capsys.readouterr().err
    assert main(ok) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert build_parser() is build_parser()
    # a value given in one call does not become the next call's default
    run = ["run", "--engine", "build3", "--out", "r.json"]
    assert build_parser().parse_args(run + ["--k", "3"]).k == 3
    assert build_parser().parse_args(run).k == 2


def test_bad_family_config_is_usage_error(tmp_path):
    f = tmp_path / "fam.json"
    f.write_text(json.dumps({"staged_trees": [{"id": 0, "kind": "?"}], "functionals": []}))
    out = tmp_path / "rec.json"
    assert main(
        [
            "run", "--engine", "build3", "--family", str(f),
            "--depth", "4", "--out", str(out),
        ]
    ) == 2

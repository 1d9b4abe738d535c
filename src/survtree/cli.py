"""Command-line front door.

Exit statuses: 0 all requested checks pass; 1 a verification defect;
2 usage or parse error; 3 an engine ran out of budget (the record is still
written, marked incomplete).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .cover import SizeGuard, min_cover, verify_cover
from .engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify_record,
)
from .engine.accelerating import CASE4_CANDIDATE_LIMIT, case4_candidates
from .engine.surviving import TREE_ENTRY_LIMIT, tree_fits
from .io_formats import (
    FormatError,
    dump_record,
    dump_tree,
    load_record,
    load_tree,
    tree_to_dot,
)
from .staged import (
    EMPTY_CONFIG,
    STANDARD_CONFIG,
    ConfigError,
    family_from_config,
)
from .trees import SHAPES, Surjection, pushforward_preimage

OK, DEFECT, USAGE, BUDGET = 0, 1, 2, 3


def _load_family(name: str):
    if name == "standard":
        return family_from_config(STANDARD_CONFIG)
    if name == "empty":
        return family_from_config(EMPTY_CONFIG)
    with open(name) as fp:
        try:
            config = json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"{name} is not JSON: {e}") from None
    return family_from_config(config)


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a natural number")
    return int(text)


def _cmd_run(args) -> int:
    if args.engine == "surviving" and args.k < 2:
        print("--k must be >= 2 for the surviving engine", file=sys.stderr)
        return USAGE
    if args.engine == "surviving" and not tree_fits(args.k + 1, args.depth):
        print(f"--k {args.k} --depth {args.depth}: the final tree could spell out more than "
              f"{TREE_ENTRY_LIMIT} entries, the most `survtree run` builds", file=sys.stderr)
        return USAGE
    if args.engine == "accelerating" and case4_candidates(args.depth) > CASE4_CANDIDATE_LIMIT:
        print(f"--depth {args.depth}: case 4 could try more than {CASE4_CANDIDATE_LIMIT} "
              "candidate extensions", file=sys.stderr)
        return USAGE
    family = _load_family(args.family)
    if args.engine == "surviving":
        record = diagonalize_surviving(
            args.k, family, args.stages, args.depth, args.fuel
        )
    elif args.engine == "build3":
        record = build3_record(family, args.depth, args.stages)
    elif args.engine == "traceable":
        start = initial_condition(family, args.depth, 2 * args.depth + 8)
        record = traceable_prune(start, family, args.stages, args.depth, args.fuel)
    else:
        record = accelerating_force(family, args.stages, args.depth, args.fuel)
    with open(args.out, "w") as fp:
        dump_record(record.body(), fp)
    print(f"{args.engine}: status {record.status}, stem {list(record.final_stem)}")
    return OK if record.status == "complete" else BUDGET


def _cmd_verify(args) -> int:
    try:
        with open(args.record) as fp:
            payload = load_record(fp)
    except (OSError, FormatError) as e:
        print(f"cannot read record: {e}", file=sys.stderr)
        return USAGE
    defects = verify_record(payload)
    for d in defects:
        print(f"defect: {d}")
    if not defects:
        print("ok")
    return OK if not defects else DEFECT


def _cmd_min_cover(args) -> int:
    try:
        value, witness = min_cover(args.b, args.k, args.d)
    except (SizeGuard, ValueError) as e:
        print(str(e), file=sys.stderr)
        return USAGE
    defect = verify_cover(witness)
    if defect is not None:
        print(f"defect: {defect}")
        return DEFECT
    print(value)
    if args.out:
        for i, t in enumerate(witness.trees):
            with open(f"{args.out}.{i}", "w") as fp:
                dump_tree(t, fp)
    return OK


def _read_tree(path: str):
    """The tree in the file, or None once the reason it cannot be read is
    printed."""
    try:
        with open(path) as fp:
            return load_tree(fp)
    except (OSError, FormatError, ValueError) as e:
        print(f"cannot read tree: {e}", file=sys.stderr)
        return None


def _cmd_check_tree(args) -> int:
    tree = _read_tree(args.file)
    if tree is None:
        return USAGE
    try:
        bad = SHAPES[args.pred](tree, args.k, args.d)
    except ValueError as e:
        print(f"--k {args.k}: {e}", file=sys.stderr)
        return USAGE
    if bad is None:
        print("ok")
        return OK
    print(f"defect: node {list(bad.node)} has {bad.observed_child_count} "
          f"children, needs {bad.required}")
    return DEFECT


def _cmd_pushforward(args) -> int:
    try:
        with open(args.g) as fp:
            gdata = json.load(fp)
        g = Surjection(
            int(gdata["domain"]), int(gdata["codomain"]),
            tuple(int(v) for v in gdata["table"]),
        )
        with open(args.file) as fp:
            tree = load_tree(fp)
    except (OSError, FormatError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"cannot read inputs: {e}", file=sys.stderr)
        return USAGE
    out_tree = pushforward_preimage(tree, g)
    dump_tree(out_tree, sys.stdout)
    return OK


def _cmd_emit(args) -> int:
    tree = _read_tree(args.file)
    if tree is None:
        return USAGE
    dot = tree_to_dot(tree)
    if args.dot:
        Path(args.dot).write_text(dot)
    else:
        sys.stdout.write(dot)
    return OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each add_argument sizes a help
    formatter to the terminal, which costs about a millisecond in all."""
    parser = argparse.ArgumentParser(
        prog="survtree",
        description="run, verify and inspect tree-condition constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an engine and write a run record")
    p.add_argument("--engine", required=True,
                   choices=["surviving", "build3", "traceable", "accelerating"])
    p.add_argument("--family", default="standard",
                   help="standard | empty | path to a family config")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--stages", type=_natural, default=8)
    p.add_argument("--depth", type=_natural, default=8)
    p.add_argument("--fuel", type=_natural, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="re-check a run record's certificates")
    p.add_argument("record")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("min-cover", help="exact minimum leaf cover")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_min_cover)

    p = sub.add_parser("check-tree", help="validate a tree file's shape")
    p.add_argument("--pred", required=True, choices=list(SHAPES))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_tree)

    p = sub.add_parser("pushforward", help="preimage of a tree file under a surjection")
    p.add_argument("--g", required=True, help="JSON file: domain, codomain, table")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_pushforward)

    p = sub.add_parser("emit", help="render a tree file as DOT")
    p.add_argument("--dot", help="output path (default stdout)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"bad family config: {e}", file=sys.stderr)
        return USAGE
    except OSError as e:
        print(str(e), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

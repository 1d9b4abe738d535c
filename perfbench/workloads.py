"""The benchmark's workloads: set-up, and the fixed operation list of a pass.

The benchmark drives survtree from outside, through its public functions
and ``survtree.cli.main``, in one process and one thread.  Each operation
has a timed part (``run``) and an untimed part (``check``) that turns the
result into facts: a digest that must repeat from pass to pass, record
statistics, and a problem message when the output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import famgen

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())

K = 2
DEEP_STAGES = 14
FUEL = 10_000
STANDARD_DEPTH = 9  # surviving depth of the standard family's deep record
SEEDED_DEPTH = 8  # surviving depth of a seeded family's deep record

# seeded families per workload, besides the standard one
DEEP_FAMILIES = 7
SMALL_FAMILIES = 49  # 50 families: two passes give the 100 operations op_p90_s needs

# (engine, depth, stages) of the small records, one of each per family.
SMALL_RUNS = [
    ("build3", 16, 48),
    ("traceable", 10, 4),
    ("accelerating", 12, 12),
    ("surviving", 6, 8),
]

# Reference seconds (see run.py) of one pass at the parent commit.  A run
# makes a fixed number of whole passes, as many as fill --seconds at that
# cost, so the operations it attempts do not depend on the host's speed.
PASS_S = {
    "surviving-deep": 14.0,
    "records-small": 9.0,
    "cover-exact": 2.9,
}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


Span = Callable[[str], Any]  # name -> context manager


@dataclass
class Op:
    name: str
    run: Callable[[Span], Any]
    check: Callable[[Any], dict]


@dataclass
class Setup:
    ops: list[Op]
    configs: dict[str, dict]


class CoverTimeout(Exception):
    pass


@contextlib.contextmanager
def cpu_limit(seconds: float):
    """Raise CoverTimeout once this process has used ``seconds`` of CPU."""

    def expire(signum, frame):
        raise CoverTimeout()

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def import_survtree() -> SimpleNamespace:
    """Import the package afresh, so that set-up pays for the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "survtree"]:
        del sys.modules[name]
    mod = importlib.import_module
    return SimpleNamespace(
        cli=mod("survtree.cli"),
        cover=mod("survtree.cover"),
        engine=mod("survtree.engine"),
        common=mod("survtree.engine.common"),
        io_formats=mod("survtree.io_formats"),
        staged=mod("survtree.staged"),
        traces=mod("survtree.traces"),
        trees=mod("survtree.trees"),
    )


def _write_families(sv, seed: int, count: int, work: Path) -> dict[str, tuple[Path, Any]]:
    """Generate, write and load the standard family and ``count`` seeded ones."""
    configs = {"standard": sv.staged.STANDARD_CONFIG}
    for i, cfg in enumerate(famgen.family_configs(seed, count)):
        configs[f"seed{i}"] = cfg
    families = {}
    for name, cfg in configs.items():
        path = work / f"family-{name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        with open(path) as fp:
            families[name] = (path, sv.staged.family_from_config(json.load(fp)))
    return families


def record_facts(payload: dict, nbytes: int, defects: list[str]) -> dict:
    facts = {
        "digest": payload["digest"],
        "records": 1,
        "incomplete": int(payload["status"] == "incomplete"),
        "fuel_spent": sum(s.get("fuel_spent", 0) for s in payload["stage_log"]),
        "stages": len(payload["stage_log"]),
        "certificates": len(payload["certificates"]),
        "defects": len(defects),
        "nodes_out": len(payload["final_tree"]["nodes"]),
        "record_bytes": nbytes,
    }
    if defects:
        facts["problem"] = "verification defects: " + "; ".join(defects[:3])
    return facts


def merge_facts(parts: list[dict]) -> dict:
    """Facts of several records that form one operation."""
    merged: dict = {}
    for p in parts:
        for k, v in p.items():
            if k not in ("digest", "problem"):
                merged[k] = merged.get(k, 0) + v
    merged["digest"] = hashlib.sha256("".join(str(p["digest"]) for p in parts).encode()).hexdigest()
    problems = [p["problem"] for p in parts if "problem" in p]
    if problems:
        merged["problem"] = "; ".join(problems)
    return merged


def _cli(sv, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = sv.cli.main(argv)
    return rc, out.getvalue()


def _defect_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("defect:")]


def _run_argv(engine: str, family: Path, depth: int, stages: int, out: Path) -> list[str]:
    return [
        "run", "--engine", engine, "--family", str(family), "--k", str(K),
        "--depth", str(depth), "--stages", str(stages), "--fuel", str(FUEL),
        "--out", str(out),
    ]


def _read_record(path: Path) -> tuple[dict, int]:
    data = path.read_bytes()
    return json.loads(data), len(data)


# ---------------------------------------------------------------------------
# surviving-deep


def setup_surviving_deep(sv, seed: int, work: Path) -> Setup:
    families = _write_families(sv, seed, DEEP_FAMILIES, work)
    ops = []
    for name, (_, family) in families.items():
        depth = STANDARD_DEPTH if name == "standard" else SEEDED_DEPTH
        ops.append(_surviving_op(sv, f"surviving-d{depth}-{name}", family, depth))
    # the standard record takes about half a pass; running it in the middle
    # spreads the seeded records, whose median is op_p50_s, over the whole
    # pass, so that it samples the machine's speed over a longer stretch
    middle = len(ops) // 2
    ops = ops[1:middle + 1] + ops[:1] + ops[middle + 1:]
    return Setup(ops, {n: f.config for n, (_, f) in families.items()})


def _surviving_op(sv, name: str, family, depth: int) -> Op:
    def run(span):
        with span("engine.diagonalize_surviving"):
            record = sv.engine.diagonalize_surviving(K, family, DEEP_STAGES, depth, FUEL)
        with span("io_formats.encode"):
            buf = io.StringIO()
            sv.io_formats.dump_record(record.to_payload(), buf)
            text = buf.getvalue()
        with span("io_formats.decode"):
            payload = sv.io_formats.load_record(io.StringIO(text))
        with span("engine.verify_record"):
            defects = sv.engine.verify_record(payload)
        return payload, text, defects

    def check(result):
        payload, text, defects = result
        return record_facts(payload, len(text.encode()), defects)

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# records-small


def setup_records_small(sv, seed: int, work: Path) -> Setup:
    families = _write_families(sv, seed, SMALL_FAMILIES, work)
    ops = [_family_records_op(sv, name, path, work) for name, (path, _) in families.items()]
    return Setup(ops, {n: f.config for n, (_, f) in families.items()})


def _family_records_op(sv, family: str, path: Path, work: Path) -> Op:
    """One family's small records, each written by ``survtree run`` and
    checked by ``survtree verify``.  Taking the family as the operation keeps
    the operations alike: single records differ in cost by engine."""
    runs = []
    for engine, depth, stages in SMALL_RUNS:
        out = work / f"{engine}-d{depth}-{family}.record.json"
        runs.append((engine, _run_argv(engine, path, depth, stages, out), out))

    def run(span):
        codes = []
        for engine, argv, out in runs:
            with span(f"cli.main run {engine}"):
                rc_run, _ = _cli(sv, argv)
            with span(f"cli.main verify {engine}"):
                rc_verify, text = _cli(sv, ["verify", str(out)])
            codes.append((rc_run, rc_verify, text))
        return codes

    def check(codes):
        parts = []
        for (engine, _, out), (rc_run, rc_verify, text) in zip(runs, codes):
            payload, nbytes = _read_record(out)
            facts = record_facts(payload, nbytes, _defect_lines(text))
            expected_rc = 3 if facts["incomplete"] else 0
            if rc_run != expected_rc:
                facts["problem"] = f"{engine}: run exited {rc_run} with status {payload['status']}"
            elif rc_verify != 0 and "problem" not in facts:
                facts["problem"] = f"{engine}: verify exited {rc_verify}"
            parts.append(facts)
        return merge_facts(parts)

    return Op(f"records-{family}", run, check)


# ---------------------------------------------------------------------------
# cover-exact


def setup_cover_exact(sv, seed: int, work: Path) -> Setup:
    del seed, work  # the ladder is a fixed list of parameter triples
    cover = SPEC["cover"]
    reference = {tuple(map(int, key.split(","))): v for key, v in cover["reference"].items()}
    ops = [
        _cover_op(sv, tuple(inst), cover["time_limit_cpu_s"], reference.get(tuple(inst)))
        for inst in cover["ladder"]
    ]
    return Setup(ops, {})


def _cover_op(sv, inst: tuple[int, int, int], limit: float, expected: Optional[int]) -> Op:
    b, k, d = inst

    def run(span):
        with span("cover.min_cover"), cpu_limit(limit):
            value, witness = sv.cover.min_cover(b, k, d)
        with span("cover.verify_cover"):
            return value, witness, sv.cover.verify_cover(witness)

    def check(result):
        value, witness, defect = result
        leaf_sets = sorted(sorted(t.level(d)) for t in witness.trees)
        facts = {
            "digest": hashlib.sha256(json.dumps([value, leaf_sets]).encode()).hexdigest(),
            "nodes_out": sum(len(t.nodes) for t in witness.trees),
        }
        if defect is not None:
            facts["problem"] = f"witness defect: {defect}"
        elif expected is not None and value != expected:
            facts["problem"] = f"min cover {value}, reference table says {expected}"
        return facts

    return Op(f"cover-{b}-{k}-{d}", run, check)


SETUPS = {  # the keys of PASS_S
    "surviving-deep": setup_surviving_deep,
    "records-small": setup_records_small,
    "cover-exact": setup_cover_exact,
}

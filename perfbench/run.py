#!/usr/bin/env python3
"""Benchmark for survtree, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen, workloads.py for
their parameters, and spec.json for the cover ladder, its CPU-time limit and
its reference values): surviving-deep, records-small, cover-exact.

The load is closed-loop: one client, one process, one thread; each
operation starts when the previous one ends, from a collected heap.  A run
sets up several times (import survtree from ``src/``, then generate, write
and load the family configs from the seed) and reports the median set-up
time.  With ``--trace 0`` it runs a fixed number of whole passes over the
workload's operation list between the set-ups, as many as take about
``--seconds`` at the reference speed (see below), and reports the
end-to-end metrics.  With ``--trace 1`` it runs one plain pass and one
traced pass (perf_counter spans around each call the benchmark makes, and a
cProfile profile per operation) and reports the per-layer metrics; spans
are written to ``.perfbench/`` in the checkout.

An operation fails when it raises, when a verification finds defects, when
a record digest differs from its first pass (passes after a later set-up
included), from the untraced pass (traced), or from an earlier run of the
same seed on the same sources (digests are printed and kept in
``.perfbench/``), when a cover witness is wrong or disagrees with the
reference table, or when a cover instance reaches its CPU-time limit.  An
operation that reaches the limit is not run again in the same run, and time
metrics leave it out: they would measure the limit.  The number of
operations a run attempts depends only on the workload and ``--seconds``.

The host this benchmark was written on changes speed by up to about 1.8x
in periods of ten seconds to minutes, in CPU time as in wall time.  So a
fixed reference workload (``HostSpeed``) is timed before and after every
operation and set-up, and every ``SAMPLE_EVERY_S`` during an untraced
operation, and the end-to-end times are reported in reference seconds: the
measured wall time scaled by ``REFERENCE_S`` over the mean of those
samples, that is, seconds on a host where the reference workload takes
``REFERENCE_S``.  A faster program lowers them; a slower host does not.
The raw wall times are printed as ``wall`` lines beside them.  The
per-layer times of the traced run are raw cProfile seconds.

Failures are named in the output.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
REFERENCE_S = 0.016  # nominal time of one HostSpeed.work() call
REFERENCE_SAMPLES = 5  # work() calls per speed sample; their median
CHASE_LEN = 1 << 20  # 4 MiB table of the pointer chase
SAMPLE_EVERY_S = 0.5  # speed samples during a long untraced operation


@dataclass
class Watch:
    """Speed samples taken while an operation ran, and the time they took."""
    samples: list[float] = field(default_factory=list)
    paused: float = 0.0


class HostSpeed:
    """Times a fixed reference workload, to tell how fast the host runs now.

    The workload is pure-Python work of the kind survtree does (calls,
    tuples, small sets, dict updates), then a pointer chase through a 4 MiB
    table, which also slows when other tenants contend for the caches."""

    def __init__(self):
        self.table = random.Random(0).randbytes(CHASE_LEN)

    def work(self) -> int:
        seen: dict = {}
        total = 0
        for i in range(12_000):
            key = (i & 255, i % 7)
            total += len(frozenset(key)) + _mix(i, total)
            seen[key] = total
        table, at = self.table, 0
        for _ in range(60_000):  # each address depends on the byte read before
            at = (at * 69069 + table[at] + 1) & (CHASE_LEN - 1)
        return total + at

    def sample(self) -> float:
        """Seconds that one work() call takes now."""
        times = []
        for _ in range(REFERENCE_SAMPLES):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    @contextlib.contextmanager
    def watching(self, watch: Watch):
        """Sample every SAMPLE_EVERY_S of wall time while the body runs,
        from a SIGALRM handler, so that a long operation is scaled by the
        speed over its whole length, not only at its ends."""

        active = True

        def tick(signum, frame):
            start = time.perf_counter()
            watch.samples.append(self.sample())
            watch.paused += time.perf_counter() - start
            if active:  # re-armed here, so that ticks never overlap
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 1023


def normalised(wall: float, samples: list[float]) -> float:
    """A wall time in reference seconds, from the speed samples taken
    before, during and after it."""
    return wall * REFERENCE_S / statistics.fmean(samples)


@dataclass
class OpResult:
    name: str
    wall: float
    ref: float  # wall in reference seconds
    facts: dict = field(default_factory=dict)
    problem: Optional[str] = None
    timed_out: bool = False
    stats: Optional[dict] = None


class Tracer:
    """perf_counter spans kept in memory: (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, time.perf_counter(), 0.0))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, _, start, _ = self.spans[sid]
            self.spans[sid] = (sid, parent, name, start, time.perf_counter())


_NO_SPAN = contextlib.nullcontext()


def _no_span(name: str):
    return _NO_SPAN


def run_pass(ops: list[workloads.Op], host: HostSpeed, tracer: Optional[Tracer] = None,
             skip: frozenset = frozenset()) -> list[OpResult]:
    """One pass over the operation list, leaving out the names in ``skip``.
    The host's speed is sampled between the operations, and during them
    unless they are traced: the signal handler would show in the profile."""
    results = []
    speed = host.sample()
    for op in ops:
        if op.name in skip:
            continue
        # a collected heap at the start of every operation: the collector's
        # work in one operation then does not depend on the one before
        gc.collect()
        out = problem = None
        timed_out = False
        prof = cProfile.Profile() if tracer else None
        span = tracer.span if tracer else _no_span
        watch = Watch([speed])
        with span(op.name), (_NO_SPAN if tracer else host.watching(watch)):
            start = time.perf_counter()
            if prof:
                prof.enable()
            try:
                out = op.run(span)
            except workloads.CoverTimeout:
                timed_out = True
            except Exception as e:  # an operation that raises is a failed one
                problem = f"raised {type(e).__name__}: {e}"
            finally:
                if prof:
                    prof.disable()
            wall = time.perf_counter() - start - watch.paused
        speed = host.sample()
        result = OpResult(op.name, wall, normalised(wall, [*watch.samples, speed]),
                          problem=problem, timed_out=timed_out)
        if prof:
            prof.create_stats()
            result.stats = prof.stats
        if out is not None:
            try:
                result.facts = op.check(out)
            except Exception as e:
                result.problem = f"check raised {type(e).__name__}: {e}"
            else:
                result.problem = result.facts.get("problem")
        results.append(result)
    return results


def compare_digests(results: list[OpResult], reference: dict[str, str], against: str) -> None:
    """Record first-seen digests; a later digest that differs is a failure."""
    for r in results:
        digest = r.facts.get("digest")
        if digest is None:
            continue
        first = reference.setdefault(r.name, digest)
        if digest != first and r.problem is None:
            r.problem = f"record digest differs from {against}"


def source_hash() -> str:
    """Hash of the package and benchmark sources: digests of runs on other
    sources are not comparable."""
    h = hashlib.sha256()
    paths = [*(ROOT / "src" / "survtree").rglob("*.py"), *HERE.glob("*.py"), HERE / "spec.json"]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_earlier_run(results: list[OpResult], reference: dict[str, str], path: Path) -> None:
    """Compare digests with an earlier run of the same seed on the same
    sources, in another process; the first run of a seed writes the file."""
    if path.exists():
        compare_digests(results, json.loads(path.read_text()), "an earlier run of this seed")
    else:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        tmp.replace(path)


def decided(results: list[OpResult]) -> list[OpResult]:
    """The operations that ended before the CPU-time limit.  Time metrics
    come from these only: a timed-out operation would measure the limit."""
    return [r for r in results if not r.timed_out]


def end_to_end(setup_times, passes) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; times in reference seconds.  op_p50_s is the
    median over the operations of each one's median over the passes, so
    that one slow or fast pass of an operation does not decide it."""
    per_op: dict[str, list[float]] = {}
    for r in (r for p in passes for r in decided(p)):
        per_op.setdefault(r.name, []).append(r.ref)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "batch_s": (statistics.median(sum(r.ref for r in decided(p)) for p in passes), "s"),
        "op_p50_s": (statistics.median(statistics.median(t) for t in per_op.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(probes: layers.Probes, base, traced) -> dict[str, tuple[float, str]]:
    counts: dict[str, int] = {m: 0 for m in probes.counts}
    busy: dict[str, float] = {m: 0.0 for m in probes.busy}
    selfs: dict[str, float] = {layer: 0.0 for layer in layers.SELF_LAYERS}
    for r in decided(traced):
        if r.problem is None:
            for m, n in probes.call_counts(r.stats).items():
                counts[m] += n
        for m, t in probes.busy_times(r.stats).items():
            busy[m] += t
        for layer, t in probes.self_times(r.stats).items():
            if layer in selfs:
                selfs[layer] += t

    def total(key: str) -> int:
        return sum(r.facts.get(key, 0) for r in traced)

    records, incomplete = total("records"), total("incomplete")
    traced_refs = {r.name: r.ref for r in decided(traced)}
    both = [r for r in decided(base) if r.name in traced_refs]
    out = {m: (float(n), "count") for m, n in counts.items()}
    out.update({m: (t, "s") for m, t in busy.items()})
    out.update({f"{layer}.self_s": (t, "s") for layer, t in selfs.items()})
    out.update({
        "trees.nodes_out": (float(total("nodes_out")), "count"),
        "engine.fuel_spent": (float(total("fuel_spent")), "count"),
        "engine.stages": (float(total("stages")), "count"),
        "engine.incomplete": (float(incomplete), "count"),
        "engine.incomplete_frac": (incomplete / records if records else 0.0, "ratio"),
        "verify.certificates": (float(total("certificates")), "count"),
        "verify.defects": (float(total("defects")), "count"),
        "io_formats.record_bytes": (float(total("record_bytes")), "bytes"),
        "cover.timeouts": (float(sum(r.timed_out for r in base + traced)), "count"),
        "tracing_overhead": (
            sum(traced_refs[r.name] for r in both) / sum(r.ref for r in both), "ratio"
        ),
    })
    return out


def measure(args, bench: dict, work: Path) -> dict:
    reps = SETUP_REPEATS
    setup_times: list[float] = []  # reference seconds
    setup_walls: list[float] = []
    reference: dict[str, str] = {}
    passes: list[list[OpResult]] = []
    timed_out: set[str] = set()  # not run again in this run
    total = 0 if args.trace else workloads.passes(args.workload, args.seconds)
    host = HostSpeed()
    for rep in range(reps):
        gc.collect()
        before = host.sample()
        start = time.perf_counter()
        sv = workloads.import_survtree()
        setup = workloads.SETUPS[args.workload](sv, args.seed, work)
        setup_walls.append(time.perf_counter() - start)
        setup_times.append(normalised(setup_walls[-1], [before, host.sample()]))
        # the passes are spread over the run, between the set-ups
        while len(passes) < total * (rep + 1) // reps:
            results = run_pass(setup.ops, host, skip=frozenset(timed_out))
            compare_digests(results, reference, "the first pass")
            passes.append(results)
            timed_out.update(r.name for r in results if r.timed_out)
    print(f"wall setup_s = {statistics.median(setup_walls):.6g} s")
    for name, cfg in setup.configs.items():
        print(f"config {name} {json.dumps(cfg, sort_keys=True)}")
    if args.trace:
        base = run_pass(setup.ops, host)
        compare_digests(base, reference, "the untraced pass")
        tracer = Tracer()
        traced = run_pass(setup.ops, host, tracer, skip=frozenset(r.name for r in base if r.timed_out))
        compare_digests(traced, reference, "the untraced pass")
        passes = [base, traced]
        wanted = bench["per_layer"]
        probes = layers.Probes(sv)
        metrics = per_layer(probes, base, traced)
        for r in traced:
            nodes = probes.call_counts(r.stats)["cover.search_nodes"]
            if nodes and not r.timed_out:
                print(f"cover.search_nodes {r.name} = {nodes}")
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        wanted = bench["end_to_end"]
        metrics = end_to_end(setup_times, passes)
    all_results = [r for p in passes for r in p]
    for name, digest in reference.items():
        print(f"digest {name} {digest}")
    check_earlier_run(all_results, reference, ROOT / ".perfbench" /
                      f"digests-{args.workload}-seed{args.seed}-{source_hash()}.json")
    return report(args, wanted, metrics, setup, passes, all_results)


def report(args, wanted, metrics, setup, passes, results) -> dict:
    refs = [r.ref for r in decided(results)]
    failed = [r for r in results if r.problem or r.timed_out]
    incomplete = sum(r.facts.get("incomplete", 0) for r in results)
    built = sum(r.facts.get("records", 0) for r in results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es) of {len(setup.ops)} operations")
    for op in setup.ops if not args.trace else []:
        done = [r for r in decided(results) if r.name == op.name]
        if done:
            print(f"op {op.name} p50 = {statistics.median(r.ref for r in done):.6g} s, "
                  f"wall {statistics.median(r.wall for r in done):.6g} s ({len(done)} runs)")
    if not args.trace:
        print(f"wall batch_s = {statistics.median(sum(r.wall for r in decided(p)) for p in passes):.6g} s")
        print(f"wall op_p50_s = {statistics.median(r.wall for r in decided(results)):.6g} s")
    for m in wanted:
        value, unit = metrics[m["name"]]
        print(f"metric {m['name']} = {value:.6g} {unit}")
    if not args.trace:
        if len(refs) >= 100:
            print(f"metric op_p90_s = {statistics.quantiles(refs, n=10)[-1]:.6g} s "
                  f"({len(refs)} operations)")
        else:
            print(f"metric op_p90_s not reported: {len(refs)} operations, fewer than 100")
    print(f"metric failed_frac = {len(failed)}/{len(results)}")
    print(f"metric incomplete_frac = {incomplete}/{built} records")
    for r in failed:
        reason = "timed out" if r.timed_out else r.problem
        print(f"failed {r.name}: {reason}")
    correct = all(r.problem is None for r in results)
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="survtree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "survtree" / "__init__.py").is_file():
        print(f"no survtree sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import famgen
import layers
import run
import workloads
from survtree.cover import SIZE_LIMIT, min_cover
from survtree.staged import family_from_config

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
COVER = SPEC["cover"]

TREE_KEYS = {
    "full_subtree": {"alphabet"},
    "full_subtree_plus": {"alphabet", "extra"},
    "comb": {"entry"},
}
FUNCTIONAL_KEYS = {
    "identity": set(),
    "entry_mod": {"modulus"},
    "constant": {"value"},
    "diverging": set(),
}


@pytest.mark.parametrize("seed", range(40))
def test_generated_families_are_valid_and_repeatable(seed):
    configs = famgen.family_configs(seed, 8)
    assert configs == famgen.family_configs(seed, 8)
    for cfg in configs:
        assert set(cfg) == {"staged_trees", "functionals"}
        for t in cfg["staged_trees"]:
            assert set(t) <= {"id", "kind", "claim", "delay"} | TREE_KEYS[t["kind"]]
            assert TREE_KEYS[t["kind"]] <= set(t)
        for f in cfg["functionals"]:
            assert set(f) == {"id", "kind"} | FUNCTIONAL_KEYS[f["kind"]]
        family = family_from_config(json.loads(json.dumps(cfg)))
        assert len(family.staged_trees) == famgen.STAGED_TREES
        assert len(family.functionals) == 4


@pytest.mark.parametrize("seed", range(5))
def test_modulus_3_is_placed_by_family_index(seed):
    for index, cfg in enumerate(famgen.family_configs(seed, 25)):
        mod3 = [f.get("modulus") == 3 for f in cfg["functionals"][:2]]
        both = index % 20 == 2
        assert mod3 == [index % 5 == 0 or both, index % 5 == 1 or both]


def test_seeds_give_different_families():
    seen = {json.dumps(famgen.family_config(seed, 0), sort_keys=True) for seed in range(20)}
    assert len(seen) == 20


def test_benchmark_file_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SETUPS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in BENCH["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= BENCH["end_to_end"][0].items()


def test_reported_metrics_match_the_benchmark_file():
    sv = workloads.import_survtree()
    op = run.OpResult("op", 0.5, 0.4, facts={"records": 1, "incomplete": 0}, stats={})
    e2e = run.end_to_end([0.1, 0.2, 0.3], [[op], [op]])
    per = run.per_layer(layers.Probes(sv), [op], [op])
    for wanted, got in ((BENCH["end_to_end"], e2e), (BENCH["per_layer"], per)):
        assert {m["name"] for m in wanted} == set(got)
        for m in wanted:
            assert got[m["name"]][1] == m["unit"]


def test_time_metrics_leave_out_timed_out_operations():
    decided = run.OpResult("cover-4-2-3", 3.0, 3.0, stats={})
    hung = run.OpResult("cover-5-2-2", 12.0, 12.0, timed_out=True, stats={})
    e2e = run.end_to_end([0.1], [[decided, hung], [decided]])
    assert e2e["batch_s"][0] == 3.0
    assert e2e["op_p50_s"][0] == 3.0
    sv = workloads.import_survtree()
    traced = run.OpResult("cover-4-2-3", 3.9, 3.9, stats={})
    per = run.per_layer(layers.Probes(sv), [decided, hung], [traced])
    assert per["tracing_overhead"][0] == pytest.approx(1.3)
    assert per["cover.timeouts"][0] == 1


def test_time_metrics_are_in_reference_seconds():
    # the same wall time counts half as much when the host ran at half speed
    slow = run.normalised(2.0, [2 * run.REFERENCE_S, 2 * run.REFERENCE_S])
    assert slow == pytest.approx(1.0)
    assert run.normalised(1.0, [run.REFERENCE_S]) == pytest.approx(1.0)
    # a slow stretch in the middle of an operation counts for its share
    assert run.normalised(3.0, [1.0, 2.0, 3.0]) == pytest.approx(1.5 * run.REFERENCE_S)
    ops = [run.OpResult("a", wall=5.0, ref=1.0), run.OpResult("b", wall=7.0, ref=2.0)]
    e2e = run.end_to_end([0.1], [ops])
    assert e2e["batch_s"][0] == 3.0
    assert e2e["op_p50_s"][0] == 1.5


def test_op_p50_takes_each_operation_at_its_median_over_the_passes():
    def result(name, ref):
        return run.OpResult(name, ref, ref)
    passes = [[result("a", 1.0), result("b", 9.0)],
              [result("a", 1.2), result("b", 0.5)],  # one fast pass of b
              [result("a", 1.1), result("b", 10.0)]]
    # medians a 1.1, b 9.0; the median of all six times would be 1.15
    assert run.end_to_end([0.1], passes)["op_p50_s"][0] == pytest.approx(5.05)


@pytest.mark.parametrize("workload", sorted(workloads.PASS_S))
def test_pass_count_depends_only_on_the_run_length(workload):
    assert workloads.passes(workload, 0.1) == 1
    assert workloads.passes(workload, 10 * workloads.PASS_S[workload]) == 10
    assert set(workloads.PASS_S) == set(workloads.SETUPS)


def test_a_digest_that_differs_from_an_earlier_run_fails_the_operation(tmp_path):
    path = tmp_path / "digests.json"
    first = [run.OpResult("op", 0.1, 0.1, facts={"digest": "aa"})]
    run.check_earlier_run(first, {"op": "aa"}, path)
    assert first[0].problem is None and path.exists()
    same = [run.OpResult("op", 0.1, 0.1, facts={"digest": "aa"})]
    other = [run.OpResult("op", 0.1, 0.1, facts={"digest": "bb"})]
    run.check_earlier_run(same, {"op": "aa"}, path)
    run.check_earlier_run(other, {"op": "bb"}, path)
    assert same[0].problem is None
    assert other[0].problem == "record digest differs from an earlier run of this seed"


def test_cover_reference_table_agrees_with_acceptance_values():
    # tests/test_acceptance.py::test_acceptance_3_min_cover_values
    assert COVER["reference"]["3,2,1"] == 2
    assert COVER["reference"]["3,2,2"] == 3
    for key, value in COVER["reference"].items():
        b, k, d = map(int, key.split(","))
        if b ** d <= 16:
            assert min_cover(b, k, d)[0] == value


def test_cover_ladder_keeps_the_hanging_instances_inside_the_guard():
    ladder = [tuple(i) for i in COVER["ladder"]]
    assert {(5, 2, 2), (3, 2, 3), (5, 3, 2), (5, 4, 2)} <= set(ladder)
    assert all(b ** d <= SIZE_LIMIT for b, _, d in ladder)


def test_cpu_limit_stops_a_busy_loop():
    start = time.process_time()
    with pytest.raises(workloads.CoverTimeout):
        with workloads.cpu_limit(0.05):
            while time.process_time() - start < 5:
                pass
    assert time.process_time() - start < 1


def test_a_long_operation_is_sampled_while_it_runs(monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.05)
    host = run.HostSpeed()
    watch = run.Watch()
    with host.watching(watch):
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert len(watch.samples) >= 3
    assert 0 < watch.paused < 0.4

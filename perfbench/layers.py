"""Per-layer figures from cProfile statistics of the traced pass.

A layer is a module of the package: ``engine/verify.py`` is ``verify``, the
rest of ``engine/`` is ``engine``, and every other module is named after its
file (``staged``, ``trees``, ``traces``, ``io_formats``, ``cover``, ``cli``).
Self time of code outside the package (builtins, the standard library,
dataclass-generated methods) is charged to the package module that called
it, split by the caller's share of that time.
"""

from __future__ import annotations

import os
from collections import defaultdict

SELF_LAYERS = ["staged", "trees", "traces", "engine", "verify", "io_formats"]


def _key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _nested_key(fn, name: str) -> tuple[str, int, str]:
    for const in fn.__code__.co_consts:
        if getattr(const, "co_name", None) == name:
            return (const.co_filename, const.co_firstlineno, const.co_name)
    raise LookupError(f"{fn.__name__} defines no {name!r}")


class Probes:
    """The functions whose calls are counted or timed, in one import of survtree."""

    def __init__(self, sv):
        self.package_dir = os.path.dirname(sv.trees.__file__) + os.sep
        self.counts = {
            "staged.functional_evals": [_key(sv.staged.OracleFunctional.eval)],
            "staged.decide_calls": [_key(sv.staged.StagedTree.decide)],
            "staged.probe_calls": [
                _key(sv.staged.looks_like_branching),
                _key(sv.staged.tree_bound_violation),
            ],
            "trees.trees_built": [_key(sv.trees.FiniteTree.__post_init__)],
            "traces.tables_built": [_key(sv.traces.TraceTable.__post_init__)],
            "cover.search_nodes": [_nested_key(sv.cover.min_cover, "search")],
        }
        initial_condition = _key(sv.engine.initial_condition)
        # metric -> [(function, callers whose calls are left out)]
        self.busy = {
            "engine.surviving.busy_s": [(_key(sv.engine.diagonalize_surviving), ())],
            "engine.build3.busy_s": [(_key(sv.engine.build_3tree), (initial_condition,))],
            "engine.traceable.busy_s": [
                (initial_condition, ()),
                (_key(sv.engine.traceable_prune), ()),
            ],
            "engine.accelerating.busy_s": [(_key(sv.engine.accelerating_force), ())],
            "verify.busy_s": [(_key(sv.engine.verify_record), ())],
            "io_formats.encode_s": [
                (_key(sv.common.RunRecord.to_payload), ()),
                (_key(sv.io_formats.dump_record), ()),
            ],
            "io_formats.decode_s": [(_key(sv.io_formats.load_record), ())],
            "cli.busy_s": [(_key(sv.cli.main), ())],
            "cover.busy_s": [(_key(sv.cover.min_cover), ())],
            "cover.verify_s": [(_key(sv.cover.verify_cover), ())],
        }

    def layer_of(self, filename: str):
        if not filename.startswith(self.package_dir):
            return None
        rel = filename[len(self.package_dir):]
        if rel.startswith("engine" + os.sep):
            return "verify" if rel.endswith("verify.py") else "engine"
        return rel[: -len(".py")]

    def call_counts(self, stats: dict) -> dict[str, int]:
        return {
            metric: sum(stats[k][1] for k in keys if k in stats)
            for metric, keys in self.counts.items()
        }

    def busy_times(self, stats: dict) -> dict[str, float]:
        out = {}
        for metric, entries in self.busy.items():
            total = 0.0
            for key, skip in entries:
                if key not in stats:
                    continue
                callers = stats[key][4]
                total += stats[key][3] - sum(
                    callers[c][3] for c in skip if c in callers
                )
            out[metric] = total
        return out

    def self_times(self, stats: dict) -> dict[str, float]:
        """Self time per layer, outside code charged to its package caller."""
        layers = {f: self.layer_of(f[0]) for f in stats}
        shares: dict = {}

        def share(f, stack: frozenset) -> dict[str, float]:
            if layers.get(f):
                return {layers[f]: 1.0}
            if f in shares:
                return shares[f]
            callers = stats[f][4] if f in stats else {}
            if not callers or f in stack:
                return {"other": 1.0}
            dist = _spread(callers, 3, lambda c: share(c, stack | {f}))
            shares[f] = dist
            return dist

        out: dict[str, float] = defaultdict(float)
        for f, (_, _, tt, _, callers) in stats.items():
            if layers[f]:
                out[layers[f]] += tt
            elif not callers:
                out["other"] += tt
            else:
                for layer, w in _spread(callers, 2, lambda c: share(c, frozenset())).items():
                    out[layer] += tt * w
        return out


def _spread(callers: dict, field: int, share) -> dict[str, float]:
    """Mix the callers' layer shares, weighted by one field of their
    per-caller timings (2: self time, 3: cumulative time), or by call
    counts (field 0) when those timings are all zero."""
    total = sum(v[field] for v in callers.values())
    if total <= 0:
        field, total = 0, sum(v[0] for v in callers.values()) or 1
    dist: dict[str, float] = defaultdict(float)
    for caller, v in callers.items():
        w = v[field] / total
        if w:
            for layer, x in share(caller).items():
                dist[layer] += w * x
    return dist

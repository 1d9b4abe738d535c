#!/usr/bin/env python3
"""Run every engine on the standard family over a fixed parameter grid,
write the records, read each one back from its file and re-verify it.
Exits 1 when a record has defects or is incomplete: every record of the
grid completes, so an incomplete one means an engine got stuck where it
used to finish.

Usage: run_golden_suite.py [OUTPUT_DIR]   (default: ./golden)
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

from survtree.engine import (
    accelerating_force,
    build3_record,
    diagonalize_surviving,
    initial_condition,
    traceable_prune,
    verify_record,
)
from survtree.io_formats import dump_record, load_record
from survtree.staged import STANDARD_CONFIG, family_from_config, standard_library


def _comb_r1():
    """The standard family with staged tree 1 a comb: R1 exits the stem,
    so P1's case C runs the pool search above the children."""
    config = copy.deepcopy(STANDARD_CONFIG)
    config["staged_trees"][1] = {
        "id": 1, "kind": "comb", "entry": 0, "claim": ["tree", 1],
    }
    return family_from_config(config)


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("golden")
    out_dir.mkdir(parents=True, exist_ok=True)
    lib = standard_library()
    grid = [
        ("surviving-d6", diagonalize_surviving(2, lib, 8, 6, 4000)),
        ("surviving-d8", diagonalize_surviving(2, lib, 14, 8, 10000)),
        ("surviving-d8-comb-r1", diagonalize_surviving(2, _comb_r1(), 14, 8, 10000)),
        ("surviving-k3-d6", diagonalize_surviving(3, lib, 10, 6, 10000)),
        ("build3-d8", build3_record(lib, 8, 24)),
        ("build3-d12", build3_record(lib, 12, 36)),
        (
            "traceable-d6",
            traceable_prune(initial_condition(lib, 6, 20), lib, 4, 6, 4000),
        ),
        (
            "traceable-d8",
            traceable_prune(initial_condition(lib, 8, 24), lib, 4, 8, 10000),
        ),
        ("accelerating-d6", accelerating_force(lib, 6, 6, 4000)),
        ("accelerating-d8", accelerating_force(lib, 8, 8, 10000)),
        ("accelerating-d12", accelerating_force(lib, 12, 12, 10000)),
    ]
    failed = 0
    for name, record in grid:
        path = out_dir / f"{name}.json"
        with open(path, "w") as fp:
            dump_record(record.body(), fp)
        with open(path) as fp:
            defects = verify_record(load_record(fp))
        status = "ok" if not defects else f"DEFECTS: {defects}"
        print(f"{name}: {record.status}, {status} -> {path} ({path.stat().st_size} bytes)")
        failed += bool(defects) or record.status != "complete"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the exact minimum-cover table for all in-guard (b, k, d) triples.

Exits 1 on any witness defect.

Usage: cover_table.py [--max-b B] [--max-d D] [--witness-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from survtree.cover import SIZE_LIMIT, min_cover, verify_cover
from survtree.io_formats import dump_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-b", type=int, default=4)
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--witness-dir", type=Path)
    args = parser.parse_args()

    print(f"{'b':>3} {'k':>3} {'d':>3} {'value':>6}")
    for b in range(3, args.max_b + 1):
        for d in range(1, args.max_d + 1):
            if b**d > SIZE_LIMIT:
                continue
            for k in range(2, b):
                value, witness = min_cover(b, k, d)
                defect = verify_cover(witness)
                if defect is not None:
                    print(f"witness defect at ({b},{k},{d}): {defect}",
                          file=sys.stderr)
                    return 1
                print(f"{b:>3} {k:>3} {d:>3} {value:>6}")
                if args.witness_dir:
                    args.witness_dir.mkdir(parents=True, exist_ok=True)
                    for i, t in enumerate(witness.trees):
                        path = args.witness_dir / f"b{b}k{k}d{d}-{i}.tree"
                        with open(path, "w") as fp:
                            dump_tree(t, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())

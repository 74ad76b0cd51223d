#!/usr/bin/env python3
"""Checks that a perf report has the key layout of a committed one.

    python3 crates/bench/bench_keys.py <report.json> <committed BENCH_*.json>

Both files must parse as JSON. Their sets of key paths must be equal:
an object key adds `.key`, an array adds `[]` and stands for the union
of its elements' key paths. Values are not compared. Exits 1 with the
paths each side lacks, else prints the path count and exits 0.
"""

import json
import sys


def key_paths(value, prefix=""):
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(child, path)
    elif isinstance(value, list):
        for child in value:
            paths |= key_paths(child, prefix + "[]")
    return paths


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"{path}: not valid JSON: {err}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    report, committed = (key_paths(load(p)) for p in sys.argv[1:])
    missing, extra = committed - report, report - committed
    for path in sorted(missing):
        print(f"missing from {sys.argv[1]}: {path}")
    for path in sorted(extra):
        print(f"not in {sys.argv[2]}: {path}")
    if missing or extra:
        sys.exit(1)
    print(f"{sys.argv[1]}: {len(report)} key paths, as in {sys.argv[2]}")


if __name__ == "__main__":
    main()

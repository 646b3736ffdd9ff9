#!/usr/bin/env python3
"""Compare the CSVs of two ``run_all_presets.py`` output trees.

    python scripts/compare_preset_runs.py OLD NEW

For every CSV under either tree (matched by relative path) it prints
whether the file is byte-identical and, when it is not, the largest
relative change of a numeric cell, |new - old| / |old| (0 when both are
0, inf when only the old cell is 0 or only one side is finite).  A CSV
missing from one tree, a change of shape or a change of a non-numeric
cell is reported as such.  The last line is the largest relative change
over all CSVs.  Exits 1 when some CSV could not be compared cell by cell,
0 otherwise.
"""

import argparse
import csv
import math
import os
import sys


def csv_files(root: str) -> set[str]:
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".csv"):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def compare_rows(old_rows: list, new_rows: list):
    """Largest relative cell change, or a string saying why there is none."""
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return "shape differs"
    worst = 0.0
    for old_row, new_row in zip(old_rows, new_rows):
        for old_cell, new_cell in zip(old_row, new_row):
            if old_cell == new_cell:
                continue
            old_val, new_val = _number(old_cell), _number(new_cell)
            if old_val is None or new_val is None:
                return f"text cell differs: {old_cell!r} -> {new_cell!r}"
            worst = max(worst, relative_change(old_val, new_val))
    return worst


def _read(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, list(csv.reader(raw.decode().splitlines()))


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old_files, new_files = csv_files(args.old), csv_files(args.new)
    overall = 0.0
    failed = False
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            side = "old" if rel not in old_files else "new"
            print(f"{rel}: missing from {side}")
            failed = True
            continue
        old_raw, old_rows = _read(os.path.join(args.old, rel))
        new_raw, new_rows = _read(os.path.join(args.new, rel))
        if old_raw == new_raw:
            print(f"{rel}: identical")
            continue
        change = compare_rows(old_rows, new_rows)
        if isinstance(change, str):
            print(f"{rel}: differs, {change}")
            failed = True
            continue
        overall = max(overall, change)
        print(f"{rel}: differs, max relative change {change:.3g}")
    print(f"max relative change over all CSVs: {overall:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())

#!/usr/bin/env python3
"""Record the D(F, X) columns that the exact_plateau workload checks against.

Each column comes from search.dmax_table and is cross-checked before it is
written: against exhaustive_max_table for X <= 24 and against the
independent branch and bound exact_max_avoiding for every X <= 60.

Usage: python3 perfbench/make_reference.py   (from the repository root)
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from polysieve import search  # noqa: E402
from workloads import REFERENCE, image_in_range  # noqa: E402

SIZES = {"squares": 172, "x2m1": 106}


def main() -> int:
    out = {}
    for fam, X in SIZES.items():
        F = image_in_range(fam, X)
        column = [d for _, d, _ in search.dmax_table(F, X)]
        if [0] + column[:24] != search.exhaustive_max_table(F, 24):
            raise SystemExit(f"{fam}: dmax_table disagrees with exhaustive_max_table")
        for x in range(1, 61):
            if search.exact_max_avoiding(F, x)[0] != column[x - 1]:
                raise SystemExit(f"{fam}: dmax_table disagrees with exact_max_avoiding at X = {x}")
        out[fam] = column
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

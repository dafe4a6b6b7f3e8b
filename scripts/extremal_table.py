#!/usr/bin/env python3
"""Exact D(F, X) table for square differences with a wallclock budget.

Prints CSV rows X,D,witness; stops cleanly when the budget runs out. On a
2-core Xeon the compiled search reaches X = 172 in about 0.07 s, X = 180 in
0.6 s, X = 185 in 9-10 s and X = 193-194 in 120 s; past X ~ 175 each
refutation step on the D = 39 plateau costs about 1.8 times the one before
on average, with wide swings from step to step.

Usage: python scripts/extremal_table.py [x_max] [budget_seconds]
"""

import json
import sys

from polysieve.search import TimeBudgetExceeded, dmax_table


def main() -> int:
    x_max = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 60.0
    squares = [n * n for n in range(1, x_max)]
    try:
        table = dmax_table(squares, x_max, time_budget=budget)
        note = ""
    except TimeBudgetExceeded as exc:
        table = exc.partial
        note = f"# budget of {budget}s exhausted at X = {len(table)}"
    print("X,D,witness")
    for X, D, wit in table:
        print(f'{X},{D},"{json.dumps(wit.members())}"')
    if note:
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

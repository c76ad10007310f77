"""Regenerate fibration_counts.json, the brute-force MC counts that the
fibration workload checks its outputs against.

For each cell (A, C) of acceptance criterion 8 it stores |MC Hom(C, A)| and
|MC Hom(C, A @ I^3)|, both by plain `mc_enumerate` on the convolution
algebra; the second is null where the enumeration needs more than 2^17
states.  The counts are isomorphism invariants, so they hold for the
seeded copies the workload runs on.  Takes about two minutes:

    python3 perfbench/fibration_counts.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from curvlab.algebra import mc_enumerate  # noqa: E402
from curvlab.convolution import convolution_algebra  # noqa: E402
from curvlab.gradedlin import BudgetExceeded  # noqa: E402
from curvlab.modelcheck import endpoint_projection, standard_coalgebra_battery  # noqa: E402

from workloads import BUDGET, COUNTS_FILE, F2, small_dg_battery  # noqa: E402


def brute_count(C, A):
    try:
        return len(mc_enumerate(convolution_algebra(C, A).algebra, budget=BUDGET))
    except BudgetExceeded:
        return None


def main():
    cells = []
    for aname, A in small_dg_battery(F2):
        T = endpoint_projection(A, 3).source
        for cname, C in standard_coalgebra_battery(F2):
            t0 = time.perf_counter()
            cell = {
                "algebra": aname,
                "coalgebra": cname,
                "mc_hom_A": brute_count(C, A),
                "mc_hom_AI3": brute_count(C, T),
            }
            print(f"{aname} | {cname}: {cell['mc_hom_A']}, {cell['mc_hom_AI3']}"
                  f" ({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
            cells.append(cell)
    with open(COUNTS_FILE, "w") as fh:
        json.dump({"budget": BUDGET, "cells": cells}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

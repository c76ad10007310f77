"""Enumeration budgets.

Searches refuse (never silently truncate) when the state count would exceed
the budget.  Default is 2^16 states, overridable via CURVLAB_MAX_ENUM.
Budgets are applied in `gradedlin.enumerate_affine`, the one base-p
enumerator, which resolves a budget of None to `default_budget()`; only the
gauge count, the stage-0 counts of `mc_convolution_enumerate` (the sum over
coradical blocks of p^n_b, then the product of their MC set sizes) and the
staged count (the higher stages of MC Hom(C, A) and the n-homotopies for
n != 3, in `algebra.mc_staged_enumerate`) are checked where they are made.
A refusal propagates to `cli.main`, which reports it with exit 3.  The gauge
solve (`mc.GaugeClasses`), behind the verdict, the witness quadruple and
the 3-homotopies of n_homotopy_search, counts the p^dim H^0(x, y) classes
it solves over: it refuses for distinct x, y with dim H^0(x, x) =
dim H^0(y, y) when that count exceeds the budget, and nowhere else.
Radicals (and so coradicals, css quotients and conilpotency degrees) and
the central idempotents of `css_decompose` are computed by linear algebra
and take no budget.
"""

from __future__ import annotations

import os

DEFAULT_MAX_ENUM = 2**16


def default_budget() -> int:
    env = os.environ.get("CURVLAB_MAX_ENUM")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CURVLAB_MAX_ENUM must be a decimal integer, got {env!r}")
    return DEFAULT_MAX_ENUM

"""Brute-force oracles for the tests of the gauge solve and of MC lifting.

`exhaustive_gauge_quadruple` is the exhaustive search for a homotopy gauge
equivalence x ~ y over F_p: it enumerates the chain maps f: x -> y (outer)
and g: y -> x (inner) in base-p order and returns the first (f, g, h1, h2)
with d^x h1 = gf - 1 and d^y h2 = fg - 1.  It refuses when the
p^(dim Z0(x,y) + dim Z0(y,x)) pairs exceed the budget.  The program
decides x ~ y by one affine solve per class of H^0(x, y) instead
(`mc.GaugeClasses`).

`exhaustive_lift_search` searches all l in L^1 for an MC lift x + l of x
along a square-zero extension, where the program solves one linear system
(`obstruction.try_lift`)."""

from typing import List, Optional

from curvlab.fields import PrimeFieldRequired
from curvlab.gradedlin import BudgetExceeded, LinearSystem, enumerate_affine, vec_add, vec_scale
from curvlab.mc import GaugeClasses, GaugeQuadruple
from curvlab.obstruction import SquareZeroExtension, build_total


def exhaustive_gauge_quadruple(A, x: dict, y: dict, budget: Optional[int] = None) -> Optional[GaugeQuadruple]:
    """The first quadruple in search order, or None.

    For a fixed f, g f - 1 is affine in g, and so is its residue modulo
    d^x: the residue at the n-th g is the one at the g whose lowest nonzero
    base-p digit is one less, plus the residue of that kernel basis vector
    times f.  So each g costs one vector addition, and f g - 1 is reduced
    only where g f - 1 is a coboundary.  The chain maps and the d^x systems
    are those of `GaugeClasses`.
    """
    gauge = GaugeClasses(A, budget)
    F = A.field
    budget = gauge._budget()
    ex, ey = gauge._element(x), gauge._element(y)
    kerf, kerg = gauge._chain_map_basis(ex, ey), gauge._chain_map_basis(ey, ex)
    p = F.characteristic
    total = p ** (len(kerf) + len(kerg))
    if total > budget:
        raise BudgetExceeded(total, budget)
    idx0, idxm1 = A.degree_indices(0), A.degree_indices(-1)

    def homotopy(system: LinearSystem, res: dict) -> Optional[dict]:
        h = system.solution(res)
        return None if h is None else {idxm1[a]: c for a, c in h.items()}

    gbasis = [{idx0[a]: c for a, c in k.items()} for k in kerg]
    minus_one = vec_scale(F, F.neg(F.one()), A.unit)
    gs = list(enumerate_affine(F, {}, kerg, budget))
    for fc in enumerate_affine(F, {}, kerf, budget):
        f = {idx0[a]: c for a, c in fc.items()}
        steps: List[dict] = []
        res = [ex.homotopies.residue(minus_one)]
        for n, gc in enumerate(gs):
            if n:
                i, m = 0, n
                while m % p == 0:
                    i, m = i + 1, m // p
                if i == len(steps):
                    steps.append(ex.homotopies.residue(A.product(gbasis[i], f)))
                res.append(vec_add(F, res[n - p**i], steps[i]))
            h1 = homotopy(ex.homotopies, res[n])
            if h1 is None:
                continue
            g = {idx0[a]: c for a, c in gc.items()}
            fg1 = vec_add(F, A.product(f, g), minus_one)
            h2 = homotopy(ey.homotopies, ey.homotopies.residue(fg1))
            if h2 is None:
                continue
            quad = GaugeQuadruple(A, x, y, f, g, h1, h2)
            assert quad.validate() == []
            return quad
    return None


def exhaustive_lift_search(ext: SquareZeroExtension, x: dict) -> Optional[dict]:
    """Brute-force oracle over F_p: search all l in L^1 for an MC lift,
    within the default budget."""
    F = ext.field
    if not F.is_prime_field:
        raise PrimeFieldRequired("exhaustive search needs a finite field")
    A, pi = build_total(ext)
    nB = ext.B.dim
    idx = [m for m in range(ext.L.space.dim) if ext.L.space.degree(m) == 1]
    units = [A.space.basis_vector(nB + k) for k in idx]
    for xl in enumerate_affine(F, x, units):
        if A.is_mc(xl):
            return xl
    return None

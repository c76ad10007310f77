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
(`obstruction.try_lift`).

`reference_obstruction_class`, `reference_try_lift` and
`reference_lift_along_gauge` are the Hochschild formulas of the obstruction
calculus, written with the bimodule actions and xi as bilinear loops:
nu(x) = del(x) + xi(x,x), d^x_L(l) = d_L l + x.l - (-1)^{|l|} l.x with its
sign written out, and l' = f l g - del(f) g + del(y) h2.  The program reads
all three off the total algebra of the extension instead."""

from typing import List, Optional

from curvlab.algebra import square_zero_algebra
from curvlab.fields import PrimeFieldRequired
from curvlab.gradedlin import (
    BudgetExceeded,
    GradedMap,
    GradedSpace,
    LinearSystem,
    enumerate_affine,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from curvlab.mc import GaugeClasses, GaugeQuadruple
from curvlab.obstruction import Bimodule, SquareZeroExtension


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
    A = ext.total
    nB = ext.B.dim
    idx = [m for m in range(ext.L.space.dim) if ext.L.space.degree(m) == 1]
    units = [A.space.basis_vector(nB + k) for k in idx]
    for xl in enumerate_affine(F, x, units):
        if A.is_mc(xl):
            return xl
    return None


def bilinear(F, table: dict, u: dict, v: dict) -> dict:
    """sum_{i,j} u_i v_j table[(i, j)], term by term with F.add and F.mul:
    the left action (B, L), the right action (L, B) or xi (B, B)."""
    out: dict = {}
    for i, c in u.items():
        for j, x in v.items():
            for k, y in table.get((i, j), {}).items():
                s = F.add(out.get(k, F.zero()), F.mul(F.mul(c, x), y))
                if F.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def reference_twisted_L(ext: SquareZeroExtension, x: dict) -> GradedMap:
    """d^x_L(l) = d_L l + x.l - (-1)^{|l|} l.x on the basis of L."""
    F, L = ext.field, ext.L
    entries = {}
    for m in range(L.space.dim):
        mm = L.space.basis_vector(m)
        col = vec_add(F, L.dL.apply(mm), bilinear(F, L.left, x, mm))
        F.add_scaled(col, F.one() if L.space.degree(m) % 2 else F.neg(F.one()), bilinear(F, L.right, mm, x))
        if col:
            entries[m] = col
    return GradedMap(L.space, L.space, 1, entries)


def reference_obstruction_class(ext: SquareZeroExtension, x: dict):
    """(nu(x), d^x_L nu(x) = 0) with nu(x) = del(x) + xi(x,x)."""
    F = ext.field
    nu = vec_add(F, ext.partial.apply(x), bilinear(F, ext.xi, x, x))
    return nu, vec_is_zero(F, reference_twisted_L(ext, x).apply(nu))


def reference_try_lift(ext: SquareZeroExtension, x: dict):
    """("lift", x + l, l) for the particular solution l of d^x_L l = -nu(x),
    or ("obstructed", nu, None)."""
    F = ext.field
    nu, _ = reference_obstruction_class(ext, x)
    sol = solve_linear(reference_twisted_L(ext, x), vec_scale(F, F.neg(F.one()), nu))
    if sol is None:
        return ("obstructed", nu, None)
    xl = dict(x)
    for k, c in sol[0].items():
        xl[ext.B.dim + k] = c
    return ("lift", xl, sol[0])


def reference_lift_along_gauge(ext: SquareZeroExtension, l: dict, y: dict, quad) -> dict:
    """y + l' with l' = f l g - del(f) g + del(y) h2, in the indices of the
    total algebra."""
    F, L = ext.field, ext.L
    lp = bilinear(F, L.right, bilinear(F, L.left, quad.f, l), quad.g)
    lp = vec_sub(F, lp, bilinear(F, L.right, ext.partial.apply(quad.f), quad.g))
    lp = vec_add(F, lp, bilinear(F, L.right, ext.partial.apply(y), quad.h2))
    yl = dict(y)
    for k, c in lp.items():
        yl[ext.B.dim + k] = F.add(yl.get(ext.B.dim + k, F.zero()), c)
    return {k: c for k, c in yl.items() if not F.is_zero(c)}


def obstructed_witness(F) -> SquareZeroExtension:
    """B = k + kx (|x| = 1, d = 0), L = km (|m| = 2, trivial x-action),
    del(x) = m: nu(x) = m is not a coboundary since L^1 = 0, so every
    c x with c != 0 is obstructed and 0 lifts."""
    V = GradedSpace.make([("x", 1)], F)
    B = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    Lspace = GradedSpace.make([("m", 2)], F)
    left = {(0, 0): {0: F.one()}}  # only the unit acts
    right = {(0, 0): {0: F.one()}}
    L = Bimodule(Lspace, GradedMap(Lspace, Lspace, 1, {}), left, right)
    partial = GradedMap(B.space, Lspace, 1, {B.space.index("x"): {0: F.one()}})
    return SquareZeroExtension(B, L, partial, {})

"""Brute-force oracles for the tests of the gauge solve and of MC lifting.

`exhaustive_gauge_quadruple` is the exhaustive search for a homotopy gauge
equivalence x ~ y over F_p: it enumerates the chain maps f: x -> y (outer)
and g: y -> x (inner) in base-p order and returns the first (f, g, h1, h2)
with d^x h1 = gf - 1 and d^y h2 = fg - 1.  It refuses when the
p^(dim Z0(x,y) + dim Z0(y,x)) pairs exceed the budget.  The program
decides x ~ y by one affine solve per class of H^0(x, y) instead
(`mc.GaugeClasses`); `reference_gauge_quadruple` is that solve written out
on the hom complexes, so the program's witnesses and refusals can be
compared entry for entry.  Both read the chain maps and the d^x systems
off `twisted_map` (`reference_chain_maps`, `reference_homotopies`), never
off the halves that `GaugeClasses` caches per element;
`counting_gauge_data` counts what it caches.

`exhaustive_lift_search` searches all l in L^1 for an MC lift x + l of x
along a square-zero extension, where the program solves one linear system
(`obstruction.try_lift`).  `reference_n_homotopy_search` enumerates every
degree-1 coordinate of A @ I^n away from the ends for an n-homotopy, where
the program solves stage by stage along the length of the words of I^n
(`mc.n_homotopy_search`).

`reference_obstruction_class`, `reference_try_lift` and
`reference_lift_along_gauge` are the Hochschild formulas of the obstruction
calculus, written with the bimodule actions and xi as bilinear loops:
nu(x) = del(x) + xi(x,x), d^x_L(l) = d_L l + x.l - (-1)^{|l|} l.x with its
sign written out, and l' = f l g - del(f) g + del(y) h2.  The program reads
all three off the total algebra of the extension instead."""

from typing import List, Optional

from curvlab.algebra import square_zero_algebra, tensor_element, tensor_index, twisted_map
from curvlab.budget import default_budget
from curvlab.fields import PrimeFieldRequired
from curvlab.gradedlin import (
    BudgetExceeded,
    Complex,
    EchelonBasis,
    GradedMap,
    GradedSpace,
    LinearSystem,
    cohomology,
    enumerate_affine,
    kernel_basis,
    solve,
    solve_linear,
    transpose,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from curvlab.mc import GaugeQuadruple, NHomotopy, path_object
from curvlab.obstruction import Bimodule, SquareZeroExtension


def exhaustive_gauge_quadruple(A, x: dict, y: dict, budget: Optional[int] = None) -> Optional[GaugeQuadruple]:
    """The first quadruple in search order, or None.

    For a fixed f, g f - 1 is affine in g, and so is its residue modulo
    d^x: the residue at the n-th g is the one at the g whose lowest nonzero
    base-p digit is one less, plus the residue of that kernel basis vector
    times f.  So each g costs one vector addition, and f g - 1 is reduced
    only where g f - 1 is a coboundary.  The chain maps and the d^x systems
    are read off `twisted_map`, with `kernel_basis`; none of the gauge
    solve's cached data is used.
    """
    F = A.field
    if not F.is_prime_field:
        raise PrimeFieldRequired("gauge search requires a prime field")
    budget = default_budget() if budget is None else budget
    if not A.is_mc(x) or not A.is_mc(y):
        raise ValueError("hom_complex requires Maurer-Cartan endpoints")
    kerf, kerg = reference_chain_maps(A, x, y), reference_chain_maps(A, y, x)
    homotopies_x, homotopies_y = reference_homotopies(A, x), reference_homotopies(A, y)
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
        res = [homotopies_x.residue(minus_one)]
        for n, gc in enumerate(gs):
            if n:
                i, m = 0, n
                while m % p == 0:
                    i, m = i + 1, m // p
                if i == len(steps):
                    steps.append(homotopies_x.residue(A.product(gbasis[i], f)))
                res.append(vec_add(F, res[n - p**i], steps[i]))
            h1 = homotopy(homotopies_x, res[n])
            if h1 is None:
                continue
            g = {idx0[a]: c for a, c in gc.items()}
            fg1 = vec_add(F, A.product(f, g), minus_one)
            h2 = homotopy(homotopies_y, homotopies_y.residue(fg1))
            if h2 is None:
                continue
            quad = GaugeQuadruple(A, x, y, f, g, h1, h2)
            assert quad.validate() == []
            return quad
    return None


def reference_chain_maps(A, x: dict, y: dict) -> List[dict]:
    """The chain maps x -> y: `kernel_basis` of the rows of
    twisted_map(A, x, y) on the degree-0 columns, in degree-0 coordinates."""
    D = twisted_map(A, x, y)
    rows = transpose({a: D.entries.get(j, {}) for a, j in enumerate(A.degree_indices(0))})
    return kernel_basis(A.field, list(rows.values()), len(A.degree_indices(0)))


def reference_homotopies(A, x: dict) -> LinearSystem:
    """d^x h = t for h of degree -1, from the columns of twisted_map(A, x, x)."""
    D = twisted_map(A, x, x)
    return LinearSystem(A.field, [D.entries.get(k, {}) for k in A.degree_indices(-1)], A.dim)


def reference_gauge_quadruple(A, x: dict, y: dict, budget: Optional[int] = None) -> Optional[GaugeQuadruple]:
    """The witness of the gauge solve, written out on the hom complexes.

    Ends with one key answer with f = g = 1.  Otherwise ends with unequal
    dim H^0(x, x) and dim H^0(y, y) (from `cohomology`) answer None; the
    kernel_basis vectors of Z^0(x, y) that are independent modulo the
    columns of twisted_map(A, x, y) on degree -1 span the classes f runs
    over, in base-p order, refused when their p^count exceed the budget,
    and a count unequal to dim H^0(x, x) answers None.  For each f, g is
    the particular solution (free variables zero) for the coefficients of
    the kernel_basis vectors g_i of Z^0(y, x) in one `solve` of
    gf - 1 = d^x h1, fg - 1 = d^y h2, with h1 and h2 before the g_i; and
    h1, h2 are the particular solutions of those equations.
    """
    F = A.field
    if not F.is_prime_field:
        raise PrimeFieldRequired("gauge search requires a prime field")
    budget = default_budget() if budget is None else budget
    if not A.is_mc(x) or not A.is_mc(y):
        raise ValueError("hom_complex requires Maurer-Cartan endpoints")
    idx0, idxm1, n = A.degree_indices(0), A.degree_indices(-1), A.dim

    def full(k: dict) -> dict:
        return {idx0[a]: c for a, c in k.items()}

    def h0(u: dict, v: dict) -> int:
        return cohomology(Complex(A.space, twisted_map(A, u, v)), 0, 0)[0]["dim"]

    def combine(coeffs: dict, vectors: List[dict]) -> dict:
        out: dict = {}
        for j, c in coeffs.items():
            F.add_scaled(out, c, vectors[j])
        return out

    if F.nonzero(x) == F.nonzero(y):
        fs, points = [A.unit], [{0: F.one()}]
    else:
        if h0(x, x) != h0(y, y):
            return None
        D = twisted_map(A, x, y)
        boundaries = EchelonBasis(F, n, [D.entries.get(k, {}) for k in idxm1])
        fs = [f for f in map(full, reference_chain_maps(A, x, y)) if boundaries.add(f)]
        classes = F.characteristic ** len(fs)
        if classes > budget:
            raise BudgetExceeded(classes, budget)
        if len(fs) != h0(x, x):
            return None
        points = enumerate_affine(F, {}, [{j: F.one()} for j in range(len(fs))], budget)
    gs = [full(k) for k in reference_chain_maps(A, y, x)]
    Dx, Dy = twisted_map(A, x, x), twisted_map(A, y, y)
    homotopy_columns = [Dx.entries.get(k, {}) for k in idxm1] + [
        {i + n: c for i, c in Dy.entries.get(k, {}).items()} for k in idxm1
    ]
    rhs_vector = dict(A.unit)
    rhs_vector.update({i + n: c for i, c in A.unit.items()})
    for a in points:
        f = combine(a, fs)
        columns = homotopy_columns + [
            vec_add(F, A.product(g, f), {i + n: c for i, c in A.product(f, g).items()}) for g in gs
        ]
        rows = transpose(columns)
        sol = solve(F, [rows.get(i, {}) for i in range(2 * n)], [rhs_vector.get(i, F.zero()) for i in range(2 * n)], len(columns))
        if sol is None:
            continue
        skip = 2 * len(idxm1)
        g = combine({j - skip: c for j, c in sol[0].items() if j >= skip}, gs)
        h1 = reference_particular_homotopy(A, x, vec_sub(F, A.product(g, f), A.unit))
        h2 = reference_particular_homotopy(A, y, vec_sub(F, A.product(f, g), A.unit))
        return GaugeQuadruple(A, x, y, f, g, h1, h2)
    return None


def reference_particular_homotopy(A, x: dict, target: dict) -> Optional[dict]:
    """gradedlin.solve's particular solution (free variables zero) of
    d^x h = target with h in degree -1, from the rows of
    twisted_map(A, x, x), or None."""
    F = A.field
    idxm1 = A.degree_indices(-1)
    D = twisted_map(A, x, x)
    rows = transpose({a: D.entries.get(j, {}) for a, j in enumerate(idxm1)})
    keys = sorted(set(rows) | set(target))
    sol = solve(F, [rows.get(k, {}) for k in keys], [target.get(k, F.zero()) for k in keys], len(idxm1))
    return None if sol is None else {idxm1[a]: c for a, c in sol[0].items()}


def counting_gauge_data(monkeypatch) -> dict:
    """Count the element data that `GaugeClasses` builds and the keys it
    computes, by wrapping `_ElementData` and `nonzero_key` in curvlab.mc for
    the rest of the test; the counts are read off the dict returned."""
    from curvlab import mc

    counts = {"data": 0, "keys": 0}
    data, key = mc._ElementData, mc.nonzero_key

    def counting_data(*args):
        counts["data"] += 1
        return data(*args)

    def counting_key(F, v):
        counts["keys"] += 1
        return key(F, v)

    monkeypatch.setattr(mc, "_ElementData", counting_data)
    monkeypatch.setattr(mc, "nonzero_key", counting_key)
    return counts


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


def reference_n_homotopy_search(A, x: dict, xp: dict, n: int, budget: Optional[int] = None) -> Optional[NHomotopy]:
    """Brute-force oracle over F_p: the first MC element of A @ I^n in
    enumeration order whose e- and f-components are x and x', every
    degree-1 coordinate of A @ I^n away from the ends enumerated; refused
    above the budget with p^(their number)."""
    F = A.field
    I, T = path_object(A, n)
    nI = I.algebra.dim
    ends = [I.algebra.space.index(w) for w in ("e_e", "e_f")]
    fixed = tensor_element(F, x, {ends[0]: F.one()}, nI)
    fixed.update(tensor_element(F, xp, {ends[1]: F.one()}, nI))
    at_ends = {tensor_index(i, w, nI) for i in range(A.dim) for w in ends}
    units = [T.space.basis_vector(k) for k in T.degree_indices(1) if k not in at_ends]
    for X in enumerate_affine(F, fixed, units, budget):
        if T.is_mc(X):
            return NHomotopy(A, n, X)
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

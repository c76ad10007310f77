"""Square-zero extensions of dg algebras and the obstruction calculus for
lifting Maurer-Cartan elements: the obstruction cocycle nu(x) = del(x) + xi(x,x),
the lifting decision via linear algebra, and the semisplit gauge-transport
formula l' = f l g - del(f) g + del(y) h2.

An extension is stored Hochschild-style: base B (a dg algebra), a B-bimodule
L with differential, del: B -> L of degree +1 and xi: B @ B -> L of degree 0.
The ground truth for the cocycle conditions is that the total space B + L
passes the curved-algebra validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import CurvedAlgebra, CurvedMorphism
from .gradedlin import (
    GradedMap,
    GradedSpace,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


@dataclass
class Bimodule:
    """Finite graded B-bimodule with differential.

    left[(i, m)] / right[(m, i)]: action vectors of basis elements
    (i indexes B, m indexes L).
    """

    space: GradedSpace
    dL: GradedMap
    left: Dict[Tuple[int, int], dict] = field(default_factory=dict)
    right: Dict[Tuple[int, int], dict] = field(default_factory=dict)

    def act_left(self, b: dict, m: dict) -> dict:
        F = self.space.field
        out: dict = {}
        for i, c in b.items():
            for j, x in m.items():
                for k, y in self.left.get((i, j), {}).items():
                    s = F.add(out.get(k, F.zero()), F.mul(F.mul(c, x), y))
                    if F.is_zero(s):
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

    def act_right(self, m: dict, b: dict) -> dict:
        F = self.space.field
        out: dict = {}
        for j, x in m.items():
            for i, c in b.items():
                for k, y in self.right.get((j, i), {}).items():
                    s = F.add(out.get(k, F.zero()), F.mul(F.mul(x, c), y))
                    if F.is_zero(s):
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out


@dataclass
class SquareZeroExtension:
    B: CurvedAlgebra  # dg (h = 0)
    L: Bimodule
    partial: GradedMap  # del: B -> L, degree +1
    xi: Dict[Tuple[int, int], dict] = field(default_factory=dict)  # B@B -> L, degree 0

    def __post_init__(self):
        if not vec_is_zero(self.B.field, self.B.h):
            raise ValueError("square-zero extensions require a dg base (h = 0)")

    @property
    def field(self):
        return self.B.field

    def xi_of(self, u: dict, v: dict) -> dict:
        F = self.field
        out: dict = {}
        for i, c in u.items():
            for j, x in v.items():
                for k, y in self.xi.get((i, j), {}).items():
                    s = F.add(out.get(k, F.zero()), F.mul(F.mul(c, x), y))
                    if F.is_zero(s):
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

    @property
    def semisplit(self) -> bool:
        F = self.field
        return all(vec_is_zero(F, col) for col in self.xi.values())

    # -- the three Hochschild-cocycle conditions, elementwise ---------------

    def condition_reports(self) -> List[str]:
        F = self.field
        B, L = self.B, self.L
        out = []
        # (1) del d_B + d_L del = 0
        for i in range(B.dim):
            v = B.space.basis_vector(i)
            lhs = vec_add(
                F, self.partial.apply(B.d.apply(v)), L.dL.apply(self.partial.apply(v))
            )
            if not vec_is_zero(F, lhs):
                out.append(f"condition (1) fails on {B.label(i)}")
                break
        # (2) xi(ab,c) - xi(a,bc) + a xi(b,c) - xi(a,b) c = 0
        done = False
        for i in range(B.dim):
            if done:
                break
            a = B.space.basis_vector(i)
            for j in range(B.dim):
                if done:
                    break
                b = B.space.basis_vector(j)
                ab = B.product(a, b)
                for k in range(B.dim):
                    c = B.space.basis_vector(k)
                    bc = B.product(b, c)
                    lhs = vec_sub(F, self.xi_of(ab, c), self.xi_of(a, bc))
                    lhs = vec_add(F, lhs, L.act_left(a, self.xi_of(b, c)))
                    lhs = vec_sub(F, lhs, L.act_right(self.xi_of(a, b), c))
                    if not vec_is_zero(F, lhs):
                        out.append(
                            f"condition (2) fails on ({B.label(i)},{B.label(j)},{B.label(k)})"
                        )
                        done = True
                        break
        # (3) del(ab) - del(a) b - (-1)^{|a|} a del(b)
        #     + d_L xi(a,b) + xi(da, b) + (-1)^{|a|} xi(a, db) = 0
        done = False
        for i in range(B.dim):
            if done:
                break
            a = B.space.basis_vector(i)
            sa = F.one() if B.degree(i) % 2 == 0 else F.neg(F.one())
            for j in range(B.dim):
                b = B.space.basis_vector(j)
                lhs = self.partial.apply(B.product(a, b))
                F.add_scaled(lhs, F.neg(F.one()), L.act_right(self.partial.apply(a), b))
                F.add_scaled(lhs, F.neg(sa), L.act_left(a, self.partial.apply(b)))
                F.add_scaled(lhs, 1, L.dL.apply(self.xi_of(a, b)))
                F.add_scaled(lhs, 1, self.xi_of(B.d.apply(a), b))
                F.add_scaled(lhs, sa, self.xi_of(a, B.d.apply(b)))
                if not vec_is_zero(F, lhs):
                    out.append(f"condition (3) fails on ({B.label(i)},{B.label(j)})")
                    done = True
                    break
        return out


def build_total(ext: SquareZeroExtension):
    """Total algebra A = B + L with d = d_B + del + d_L, m = m_B + xi + actions.

    Returns (A, pi: A -> B, iota indices of L inside A).  The construction is
    validated via validate_algebra (the sign-convention-independent ground
    truth); condition failures are reported by name first.
    """
    bad = ext.condition_reports()
    if bad:
        raise ValueError("not a square-zero extension: " + "; ".join(bad))
    B, L = ext.B, ext.L
    F = ext.field
    nB = B.dim
    basis = [(f"b.{l}", d) for l, d in B.space.basis] + [
        (f"l.{l}", d) for l, d in L.space.basis
    ]
    space = GradedSpace.make(basis, F)

    mult: Dict[Tuple[int, int], dict] = {}
    for i in range(nB):
        a = B.space.basis_vector(i)
        for j in range(nB):
            b = B.space.basis_vector(j)
            col: dict = {}
            for k, c in B.basis_product(i, j).items():
                col[k] = c
            for k, c in ext.xi_of(a, b).items():
                col[nB + k] = F.add(col.get(nB + k, F.zero()), c)
            col = {k: c for k, c in col.items() if not F.is_zero(c)}
            if col:
                mult[(i, j)] = col
    for i in range(nB):
        a = B.space.basis_vector(i)
        for m in range(L.space.dim):
            mm = L.space.basis_vector(m)
            col = {nB + k: c for k, c in L.act_left(a, mm).items()}
            if col:
                mult[(i, nB + m)] = col
            col = {nB + k: c for k, c in L.act_right(mm, a).items()}
            if col:
                mult[(nB + m, i)] = col
    # L * L = 0: no entries
    entries: Dict[int, dict] = {}
    for i in range(nB):
        v = B.space.basis_vector(i)
        col: dict = dict(B.d.entries.get(i, {}))
        for k, c in ext.partial.apply(v).items():
            col[nB + k] = F.add(col.get(nB + k, F.zero()), c)
        col = {k: c for k, c in col.items() if not F.is_zero(c)}
        if col:
            entries[i] = col
    for m in range(L.space.dim):
        col = {nB + k: c for k, c in L.dL.entries.get(m, {}).items()}
        if col:
            entries[nB + m] = col
    d = GradedMap(space, space, 1, entries)
    A = CurvedAlgebra(space, dict(B.unit), mult, d, {})
    bad = A.validate()
    if bad:
        raise ValueError("total space fails the curved algebra axioms: " + "; ".join(bad))
    pi_entries = {i: {i: F.one()} for i in range(nB)}
    pi = CurvedMorphism(A, B, GradedMap(A.space, B.space, 0, pi_entries), {})
    return A, pi


def twisted_L_differential(ext: SquareZeroExtension, x: dict) -> GradedMap:
    """d^x_L(l) = d_L l + x.l - (-1)^{|l|} l.x on L (x a degree-1 element
    of B), the sign of `algebra.twisted_apply`."""
    F = ext.field
    L = ext.L
    entries = {}
    for m in range(L.space.dim):
        mm = L.space.basis_vector(m)
        col = vec_add(F, L.dL.apply(mm), L.act_left(x, mm))
        F.add_scaled(col, F.one() if L.space.degree(m) % 2 else F.neg(F.one()), L.act_right(mm, x))
        if col:
            entries[m] = col
    return GradedMap(L.space, L.space, 1, entries)


def obstruction_class(ext: SquareZeroExtension, x: dict):
    """nu(x) = del(x) + xi(x,x) with its d^x_L-cocycle certificate."""
    if not ext.B.is_mc(x):
        raise ValueError("x must be a Maurer-Cartan element of the base")
    F = ext.field
    nu = vec_add(F, ext.partial.apply(x), ext.xi_of(x, x))
    dxL = twisted_L_differential(ext, x)
    cert = vec_is_zero(F, dxL.apply(nu))
    return nu, cert


def try_lift(ext: SquareZeroExtension, x: dict):
    """Lift x to MC of the total space, or report the obstruction.

    Returns ("lift", x + l as an element of the total space, l) or
    ("obstructed", nu) when nu(x) is not a -d^x_L-coboundary.
    """
    F = ext.field
    nu, cert = obstruction_class(ext, x)
    if not cert:
        raise AssertionError("nu(x) failed its cocycle certificate")
    dxL = twisted_L_differential(ext, x)
    target = vec_scale(F, F.neg(F.one()), nu)
    sol = solve_linear(dxL, target)
    if sol is None:
        return ("obstructed", nu, None)
    l = sol[0]
    A, pi = build_total(ext)
    nB = ext.B.dim
    xl = dict(x)
    for k, c in l.items():
        xl[nB + k] = c
    if not A.is_mc(xl):
        raise AssertionError("computed lift fails the MC equation in the total space")
    return ("lift", xl, l)


def lift_along_gauge(ext: SquareZeroExtension, l: dict, y: dict, quad) -> dict:
    """Given a semisplit extension, a lift x + l of x, and a homotopy gauge
    equivalence quad: x ~ y, produce the lift y + l' with
    l' = f l g - del(f) g + del(y) h2.  Verified MC in the total space.
    """
    if not ext.semisplit:
        raise ValueError("the gauge-transport formula requires a semisplit extension")
    F = ext.field
    L = ext.L
    f, g, h2 = quad.f, quad.g, quad.h2
    lp = L.act_right(L.act_left(f, l), g)
    lp = vec_sub(F, lp, L.act_right(ext.partial.apply(f), g))
    lp = vec_add(F, lp, L.act_right(ext.partial.apply(y), h2))
    A, pi = build_total(ext)
    nB = ext.B.dim
    yl = dict(y)
    for k, c in lp.items():
        yl[nB + k] = F.add(yl.get(nB + k, F.zero()), c)
    yl = {k: c for k, c in yl.items() if not F.is_zero(c)}
    if not A.is_mc(yl):
        raise AssertionError("gauge-transported lift fails the MC equation")
    return yl


# ---------------------------------------------------------------------------
# constructors


def extension_from_total(
    A: CurvedAlgebra, L_indices: List[int]
) -> SquareZeroExtension:
    """Re-extract (B, L, del, xi) from a dg algebra with a chosen square-zero
    ideal spanned by basis vectors (the splitting is the complementary span).
    """
    F = A.field
    Lset = set(L_indices)
    Bidx = [i for i in range(A.dim) if i not in Lset]
    Lidx = list(L_indices)
    posB = {i: a for a, i in enumerate(Bidx)}
    posL = {i: a for a, i in enumerate(Lidx)}

    def splitB(v: dict) -> dict:
        return {posB[i]: c for i, c in v.items() if i in posB}

    def splitL(v: dict) -> dict:
        return {posL[i]: c for i, c in v.items() if i in posL}

    Bspace = GradedSpace.make([(A.label(i), A.degree(i)) for i in Bidx], F)
    Lspace = GradedSpace.make([(A.label(i), A.degree(i)) for i in Lidx], F)
    # B structure
    multB = {}
    xi = {}
    for a, i in enumerate(Bidx):
        for b, j in enumerate(Bidx):
            p = A.basis_product(i, j)
            colB = splitB(p)
            colL = splitL(p)
            if colB:
                multB[(a, b)] = colB
            if colL:
                xi[(a, b)] = colL
    dB_entries = {}
    partial_entries = {}
    for a, i in enumerate(Bidx):
        dv = A.d.apply(A.space.basis_vector(i))
        colB = splitB(dv)
        colL = splitL(dv)
        if colB:
            dB_entries[a] = colB
        if colL:
            partial_entries[a] = colL
    B = CurvedAlgebra(
        Bspace,
        splitB(A.unit),
        multB,
        GradedMap(Bspace, Bspace, 1, dB_entries),
        splitB(A.h),
    )
    dL_entries = {}
    left = {}
    right = {}
    for m, i in enumerate(Lidx):
        dv = A.d.apply(A.space.basis_vector(i))
        col = splitL(dv)
        if col:
            dL_entries[m] = col
        if splitB(dv):
            raise ValueError("chosen ideal is not closed under d")
    for a, i in enumerate(Bidx):
        for m, j in enumerate(Lidx):
            p = A.basis_product(i, j)
            if splitB(p):
                raise ValueError("chosen span is not an ideal")
            col = splitL(p)
            if col:
                left[(a, m)] = col
            p = A.basis_product(j, i)
            if splitB(p):
                raise ValueError("chosen span is not an ideal")
            col = splitL(p)
            if col:
                right[(m, a)] = col
    for m, i in enumerate(Lidx):
        for mm, j in enumerate(Lidx):
            if A.basis_product(i, j):
                raise ValueError("chosen ideal does not square to zero")
    L = Bimodule(Lspace, GradedMap(Lspace, Lspace, 1, dL_entries), left, right)
    return SquareZeroExtension(B, L, GradedMap(Bspace, Lspace, 1, partial_entries), xi)

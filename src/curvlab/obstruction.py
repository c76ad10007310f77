"""Square-zero extensions of dg algebras and the obstruction calculus for
lifting Maurer-Cartan elements.

An extension is given Hochschild-style: base B (a dg algebra), a B-bimodule
L with differential, del: B -> L of degree +1 and xi: B @ B -> L of degree 0.
Its total algebra T = B + L (d_T = d_B + del + d_L, products m_B + xi and
the actions, L * L = 0) is built and validated once, when the extension is
made; data that does not give a curved algebra is rejected there, with the
validator's violations.  Everything else is the MC calculus of T, with x in
B at the same indices of T:
  - the obstruction nu(x) = del(x) + xi(x,x) is the L-part of the MC
    residual of x in T (its B-part is the residual of x in B, zero);
  - d^x_L is the twisted differential D_{x->x} of T on L, which it
    preserves since L is a dg ideal; x lifts to an MC element x + l of T
    iff d^x_L l = -nu(x), one linear system;
  - on a semisplit extension (xi = 0) a lift x + l is carried along a
    homotopy gauge equivalence x ~ y to y + l' with
    l' = f l g - del(f) g + del(y) h2, the products taken in T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import CurvedAlgebra, twisted_apply
from .gradedlin import GradedMap, GradedSpace, LinearSystem, vec_add, vec_is_zero


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


@dataclass
class SquareZeroExtension:
    """B + L with del and xi; `total` is the total algebra T, whose basis is
    that of B (labels b.*) followed by that of L (labels l.*).  Raises
    ValueError unless B is dg and T passes `CurvedAlgebra.validate`."""

    B: CurvedAlgebra  # dg (h = 0)
    L: Bimodule
    partial: GradedMap  # del: B -> L, degree +1
    xi: Dict[Tuple[int, int], dict] = field(default_factory=dict)  # B@B -> L, degree 0
    total: CurvedAlgebra = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not vec_is_zero(self.B.field, self.B.h):
            raise ValueError("square-zero extensions require a dg base (h = 0)")
        self.total = self._assemble()
        bad = self.total.validate()
        if bad:
            raise ValueError("total space fails the curved algebra axioms: " + "; ".join(bad))

    def _assemble(self) -> CurvedAlgebra:
        B, L, F = self.B, self.L, self.field
        nB, one = B.dim, F.one()
        space = GradedSpace.make(
            [(f"b.{l}", d) for l, d in B.space.basis] + [(f"l.{l}", d) for l, d in L.space.basis], F
        )

        def put(table: dict, key, *parts) -> None:
            col: dict = {}
            for part in parts:
                F.add_scaled(col, one, part)
            if col:
                table[key] = col

        mult: Dict[Tuple[int, int], dict] = {}
        for i in range(nB):
            for j in range(nB):
                put(mult, (i, j), B.basis_product(i, j), _into_T(nB, self.xi.get((i, j), {})))
        for i in range(nB):
            for m in range(L.space.dim):
                put(mult, (i, nB + m), _into_T(nB, L.left.get((i, m), {})))
                put(mult, (nB + m, i), _into_T(nB, L.right.get((m, i), {})))
        entries: Dict[int, dict] = {}
        for i in range(nB):
            put(entries, i, B.d.entries.get(i, {}), _into_T(nB, self.partial.entries.get(i, {})))
        for m in range(L.space.dim):
            put(entries, nB + m, _into_T(nB, L.dL.entries.get(m, {})))
        return CurvedAlgebra(space, dict(B.unit), mult, GradedMap(space, space, 1, entries), {})

    @property
    def field(self):
        return self.B.field

    @property
    def semisplit(self) -> bool:
        F = self.field
        return all(vec_is_zero(F, col) for col in self.xi.values())


def _into_T(nB: int, l: dict) -> dict:
    """An element of L at its indices in T."""
    return {nB + k: c for k, c in l.items()}


def _L_part(nB: int, v: dict) -> dict:
    """The L-part of an element of T, at its indices in L."""
    return {k - nB: c for k, c in v.items() if k >= nB}


def obstruction_class(ext: SquareZeroExtension, x: dict):
    """nu(x) = del(x) + xi(x,x), the L-part of the MC residual of x in T,
    with its certificate d^x_L nu(x) = 0."""
    if not ext.B.is_mc(x):
        raise ValueError("x must be a Maurer-Cartan element of the base")
    T, nB = ext.total, ext.B.dim
    nu = _L_part(nB, T.mc_residual(x))
    cert = vec_is_zero(ext.field, twisted_apply(T, x, x, _into_T(nB, nu)))
    return nu, cert


def try_lift(ext: SquareZeroExtension, x: dict):
    """Lift x to MC of the total space, or report the obstruction.

    Returns ("lift", x + l as an element of T, l) or ("obstructed", nu, None)
    when nu(x) is not a -d^x_L-coboundary.  The columns of d^x_L are
    D_{x->x} of T on the basis of L; l is the particular solution of
    d^x_L l = -nu(x).
    """
    F = ext.field
    nu, cert = obstruction_class(ext, x)
    if not cert:
        raise AssertionError("nu(x) failed its cocycle certificate")
    T, nB, nL = ext.total, ext.B.dim, ext.L.space.dim
    columns = [_L_part(nB, twisted_apply(T, x, x, T.space.basis_vector(nB + m))) for m in range(nL)]
    system = LinearSystem(F, columns, nL)
    l = system.solution(system.residue(F.scale(-1, nu)))
    if l is None:
        return ("obstructed", nu, None)
    xl = vec_add(F, x, _into_T(nB, l))
    if not T.is_mc(xl):
        raise AssertionError("computed lift fails the MC equation in the total space")
    return ("lift", xl, l)


def lift_along_gauge(ext: SquareZeroExtension, l: dict, y: dict, quad) -> dict:
    """Given a semisplit extension, a lift x + l of x, and a homotopy gauge
    equivalence quad: x ~ y, produce the lift y + l' of y with
    l' = f l g - del(f) g + del(y) h2, the L-part of
    f l g - L(d_T f) g + L(d_T y) h2 in T.  Verified MC in T.
    """
    if not ext.semisplit:
        raise ValueError("the gauge-transport formula requires a semisplit extension")
    F = ext.field
    T, nB = ext.total, ext.B.dim
    f, g, h2 = quad.f, quad.g, quad.h2

    def L_of_d(b: dict) -> dict:
        return _into_T(nB, _L_part(nB, T.d.apply(b)))

    lp = T.product(T.product(f, _into_T(nB, l)), g)
    F.add_scaled(lp, -F.one(), T.product(L_of_d(f), g))
    F.add_scaled(lp, 1, T.product(L_of_d(y), h2))
    yl = F.nonzero(vec_add(F, y, lp))
    if not T.is_mc(yl):
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

"""Convolution curved algebras Hom(C, A) for finite-dimensional C, the
canonical comparison with C* tensor A, hom-tensor adjunction, functoriality.

Basis of Hom(C, A): phi_{c,a} = (x -> <c', x> a) for basis pairs (c, a), of
degree |a| - |c|.  Product fg = m(f @ g)Delta with the Koszul evaluation sign
(f @ g)(x @ y) = (-1)^{|g||x|} f(x) @ g(y); differential
d(phi) = d_A phi - (-1)^{|phi|} phi d_C; curvature element
h(x) = h_C(x) 1_A + eps(x) h_A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    tensor_algebras,
    tensor_element,
    tensor_index,
    tensor_map,
    tensor_rows,
)
from .coalgebra import CurvedCoalgebra, dualize_coalgebra, tensor_coalgebras
from .gradedlin import GradedMap, GradedSpace, vec_eq, vec_is_zero


@dataclass
class ConvolutionAlgebra:
    C: CurvedCoalgebra
    A: CurvedAlgebra
    algebra: CurvedAlgebra

    def element_as_map(self, v: dict) -> Dict[int, dict]:
        """Element of Hom(C,A) as {c_index: value vector in A}."""
        F = self.A.field
        return {ci: F.nonzero(col) for ci, col in tensor_rows(v, self.A.dim).items()}


def _counit(C: CurvedCoalgebra) -> dict:
    """eps as an element of C*, in the order of the basis."""
    return dict(sorted(C.counit.items()))


def convolution_space(C: CurvedCoalgebra, A: CurvedAlgebra) -> GradedSpace:
    """The graded space of Hom(C, A): phi_{c,a}, labelled [c->a], of degree
    |a| - |c|, is basis vector tensor_index(c, a, dim A)."""
    if C.field != A.field:
        raise ValueError("coalgebra and algebra must share the field")
    return GradedSpace.make(
        [(f"[{lc}->{la}]", da - dc) for lc, dc in C.space.basis for la, da in A.space.basis], A.field
    )


def convolution_algebra(C: CurvedCoalgebra, A: CurvedAlgebra) -> ConvolutionAlgebra:
    """Hom(C, A) on the basis of C* @ A (`convolution_space`)."""
    F, nA = A.field, A.dim
    space = convolution_space(C, A)
    # product: (phi psi)(x) = sum (-1)^{|psi||x1|} phi(x1) psi(x2); the x
    # with Delta(x) having a (c1, c2) component, in ascending order, give
    # the terms x @ a of the column, each once
    m1, one = F.neg(F.one()), F.one()
    through: Dict[Tuple[int, int], dict] = {}
    for x in range(C.dim):
        for pair, coeff in F.nonzero(C.comult.get(x, {})).items():
            through.setdefault(pair, {})[x] = coeff
    signed = {pair: (F.scale(one, xs), F.scale(m1, xs)) for pair, xs in through.items()}
    mult: Dict[Tuple[int, int], dict] = {}
    for c1 in range(C.dim):
        for a1 in range(A.dim):
            for c2 in range(C.dim):
                xs = signed.get((c1, c2))
                if not xs:
                    continue
                for a2 in range(A.dim):
                    prod = A.basis_product(a1, a2)
                    if not prod:
                        continue
                    deg_psi = A.degree(a2) - C.space.degree(c2)
                    col = tensor_element(F, xs[(deg_psi * C.space.degree(c1)) % 2], prod, nA)
                    if col:
                        mult[(tensor_index(c1, a1, nA), tensor_index(c2, a2, nA))] = col
    # differential d(phi) = d_A phi - (-1)^{|phi|} phi d_C: the second term
    # has a component at x when d_C(x) has one at c
    dC_t: Dict[int, dict] = {}
    for x in range(C.dim):
        for ci, c in F.nonzero(C.d.entries.get(x, {})).items():
            dC_t.setdefault(ci, {})[x] = c
    entries: Dict[int, dict] = {}
    for ci in range(C.dim):
        for ai in range(A.dim):
            col = tensor_element(F, {ci: one}, A.d.entries.get(ai, {}), nA)
            sgn = m1 if (A.degree(ai) - C.space.degree(ci)) % 2 == 0 else one
            F.add_scaled(col, sgn, tensor_element(F, dC_t.get(ci, {}), {ai: one}, nA))
            if col:
                entries[tensor_index(ci, ai, nA)] = col
    # unit eps @ 1_A; curvature h(x) = h_C(x) 1_A + eps(x) h_A
    eps = _counit(C)
    h: dict = {}
    for ci in range(C.dim):
        hx = F.scale(C.h.get(ci, F.zero()), A.unit)
        F.add_scaled(hx, eps.get(ci, F.zero()), A.h)
        h.update(tensor_element(F, {ci: one}, hx, nA))
    unit, d = tensor_element(F, eps, A.unit, nA), GradedMap(space, space, 1, entries)
    return ConvolutionAlgebra(C, A, CurvedAlgebra(space, unit, mult, d, h))


def convolution_tensor_comparison(conv: ConvolutionAlgebra) -> bool:
    """The canonical map Hom(C,A) -> C* @ A, phi_{c,a} -> (-1)^{|a||c|} c' @ a,
    matches product, differential, unit and curvature exactly.
    """
    C, A = conv.C, conv.A
    F = A.field
    T = tensor_algebras(dualize_coalgebra(C), A)
    H = conv.algebra
    one, m1 = F.one(), F.neg(F.one())
    # both sides index c @ a by tensor_index(c, a, dim A)
    sign = {
        tensor_index(ci, ai, A.dim): m1 if (A.degree(ai) * C.space.degree(ci)) % 2 else one
        for ci in range(C.dim)
        for ai in range(A.dim)
    }

    def iso(v: dict) -> dict:
        return {k: F.mul(sign[k], c) for k, c in v.items() if not F.is_zero(c)}

    for (i, j), col in H.mult.items():
        rhs = F.scale(F.mul(sign[i], sign[j]), T.mult.get((i, j), {}))
        if not vec_eq(F, iso(col), rhs):
            return False
    for key, col in T.mult.items():
        if key not in H.mult and not vec_is_zero(F, col):
            return False
    for j in range(H.dim):
        rhs = F.scale(sign[j], T.d.entries.get(j, {}))
        if not vec_eq(F, iso(H.d.entries.get(j, {})), rhs):
            return False
    return vec_eq(F, iso(H.unit), T.unit) and vec_eq(F, iso(H.h), T.h)


# ---------------------------------------------------------------------------
# functoriality: Hom(C,A) -> Hom(C', A') along C' -> C and A -> A'


def induced_convolution_morphism(
    conv: ConvolutionAlgebra,
    conv2: ConvolutionAlgebra,
    cmap_dual: Optional[CurvedMorphism] = None,
    amap: Optional[CurvedMorphism] = None,
) -> CurvedMorphism:
    """Hom(C,A) -> Hom(C',A') from a coalgebra map C' -> C (given as the dual
    algebra morphism C* -> C'* with b-component zero) and an algebra morphism
    (f, b): A -> A'.  On C* @ A it is cmap_dual @ f; the b-component of the
    result is eps @ b.
    """
    cf = GradedMap.identity(conv.C.space) if cmap_dual is None else cmap_dual.f
    af = GradedMap.identity(conv.A.space) if amap is None else amap.f
    f = tensor_map(cf, af, conv.algebra.space, conv2.algebra.space)
    b = {} if amap is None else tensor_element(conv.A.field, _counit(conv2.C), amap.b, conv2.A.dim)
    return CurvedMorphism(conv.algebra, conv2.algebra, f, b)


# ---------------------------------------------------------------------------
# hom-tensor adjunction


def hom_tensor_iso(
    C: CurvedCoalgebra, D: CurvedCoalgebra, A: CurvedAlgebra
):
    """Explicit invertible comparison Hom(C @ D, A) -> Hom(C, Hom(D, A)).

    phi_{(c@d), a} -> (-1)^{|d|(|a|+|d|)}-free choice pinned by validation:
    the map phi -> (c -> (d -> phi(c@d))) on basis elements with the sign
    (-1)^{|d| |c|}; returns (iso morphism, source conv, target conv).
    """
    F = A.field
    CD = tensor_coalgebras(C, D)
    src = convolution_algebra(CD, A)
    inner = convolution_algebra(D, A)
    dst = convolution_algebra(C, inner.algebra)
    nA, nD, n_inner = A.dim, D.dim, inner.algebra.dim
    entries: Dict[int, dict] = {}
    for ci in range(C.dim):
        for di in range(D.dim):
            cd = tensor_index(ci, di, nD)  # index in C @ D
            sgn = F.neg(F.one()) if (D.space.degree(di) * C.space.degree(ci)) % 2 else F.one()
            for ai in range(A.dim):
                dstk = tensor_index(ci, tensor_index(di, ai, nA), n_inner)
                entries[tensor_index(cd, ai, nA)] = {dstk: sgn}
    f = GradedMap(src.algebra.space, dst.algebra.space, 0, entries)
    iso = CurvedMorphism(src.algebra, dst.algebra, f, {})
    return iso, src, dst

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

from .algebra import CurvedAlgebra, CurvedMorphism, tensor_algebras
from .coalgebra import CurvedCoalgebra, dualize_coalgebra, tensor_coalgebras
from .gradedlin import GradedMap, GradedSpace, vec_eq


@dataclass
class ConvolutionAlgebra:
    C: CurvedCoalgebra
    A: CurvedAlgebra
    algebra: CurvedAlgebra

    def pair_index(self, ci: int, ai: int) -> int:
        return ci * self.A.dim + ai

    def split_index(self, k: int) -> Tuple[int, int]:
        return divmod(k, self.A.dim)

    def element_as_map(self, v: dict) -> Dict[int, dict]:
        """Element of Hom(C,A) as {c_index: value vector in A}."""
        out: Dict[int, dict] = {}
        F = self.A.field
        for k, coeff in v.items():
            ci, ai = self.split_index(k)
            out.setdefault(ci, {})
            out[ci][ai] = F.add(out[ci].get(ai, F.zero()), coeff)
        return {
            ci: {ai: c for ai, c in col.items() if not F.is_zero(c)}
            for ci, col in out.items()
        }

    def map_as_element(self, phi: Dict[int, dict]) -> dict:
        F = self.A.field
        out = {}
        for ci, col in phi.items():
            for ai, c in col.items():
                if not F.is_zero(c):
                    out[self.pair_index(ci, ai)] = c
        return out


def convolution_algebra(C: CurvedCoalgebra, A: CurvedAlgebra) -> ConvolutionAlgebra:
    F = A.field
    if C.field != F:
        raise ValueError("coalgebra and algebra must share the field")
    nA = A.dim
    basis = []
    for ci in range(C.dim):
        for ai in range(A.dim):
            basis.append(
                (f"[{C.label(ci)}->{A.label(ai)}]", A.degree(ai) - C.space.degree(ci))
            )
    space = GradedSpace.make(basis, F)

    def pidx(ci, ai):
        return ci * nA + ai

    # product: (phi psi)(x) = sum (-1)^{|psi||x1|} phi(x1) psi(x2); the x
    # with Delta(x) having a (c1, c2) component, in ascending order, give
    # the terms pidx(x, k) of the column, each once
    m1, one = F.neg(F.one()), F.one()
    through: Dict[Tuple[int, int], list] = {}
    for x in range(C.dim):
        for pair, coeff in F.nonzero(C.comult.get(x, {})).items():
            through.setdefault(pair, []).append((x, coeff))
    mult: Dict[Tuple[int, int], dict] = {}
    for c1 in range(C.dim):
        for a1 in range(A.dim):
            for c2 in range(C.dim):
                xs = through.get((c1, c2))
                if not xs:
                    continue
                for a2 in range(A.dim):
                    prod = A.basis_product(a1, a2)
                    if not prod:
                        continue
                    deg_psi = A.degree(a2) - C.space.degree(c2)
                    sgn = m1 if (deg_psi * C.space.degree(c1)) % 2 else one
                    col: dict = {}
                    for x, coeff in xs:
                        for k, t in F.scale(F.mul(sgn, coeff), prod).items():
                            col[pidx(x, k)] = t
                    if col:
                        mult[(pidx(c1, a1), pidx(c2, a2))] = col
    # differential
    entries: Dict[int, dict] = {}
    for ci in range(C.dim):
        for ai in range(A.dim):
            deg_phi = A.degree(ai) - C.space.degree(ci)
            col: dict = {}
            for k, c in A.d.entries.get(ai, {}).items():
                kk = pidx(ci, k)
                col[kk] = F.add(col.get(kk, F.zero()), c)
            # -(-1)^{|phi|} phi d_C: term at x with d_C(x) having ci component
            sgn = F.neg(F.one()) if deg_phi % 2 == 0 else F.one()
            for x in range(C.dim):
                c = C.d.entries.get(x, {}).get(ci)
                if c is None or F.is_zero(c):
                    continue
                kk = pidx(x, ai)
                col[kk] = F.add(col.get(kk, F.zero()), F.mul(sgn, c))
            col = {k: v for k, v in col.items() if not F.is_zero(v)}
            if col:
                entries[pidx(ci, ai)] = col
    d = GradedMap(space, space, 1, entries)
    # unit: eps(-) 1_A
    unit: dict = {}
    for ci in range(C.dim):
        e = C.counit.get(ci, F.zero())
        if F.is_zero(e):
            continue
        for ai, c in A.unit.items():
            unit[pidx(ci, ai)] = F.mul(e, c)
    # curvature: h_C(x) 1_A + eps(x) h_A
    h: dict = {}
    for ci in range(C.dim):
        hc = C.h.get(ci, F.zero())
        if not F.is_zero(hc):
            for ai, c in A.unit.items():
                k = pidx(ci, ai)
                h[k] = F.add(h.get(k, F.zero()), F.mul(hc, c))
        ec = C.counit.get(ci, F.zero())
        if not F.is_zero(ec):
            for ai, c in A.h.items():
                k = pidx(ci, ai)
                h[k] = F.add(h.get(k, F.zero()), F.mul(ec, c))
    h = {k: c for k, c in h.items() if not F.is_zero(c)}
    alg = CurvedAlgebra(space, unit, mult, d, h)
    return ConvolutionAlgebra(C, A, alg)


def convolution_tensor_comparison(conv: ConvolutionAlgebra) -> bool:
    """The canonical map Hom(C,A) -> C* @ A, phi_{c,a} -> (-1)^{|a||c|} c' @ a,
    matches product, differential, unit and curvature exactly.
    """
    C, A = conv.C, conv.A
    F = A.field
    T = tensor_algebras(dualize_coalgebra(C), A)
    nA = A.dim

    def sign(ci, ai):
        return (
            F.neg(F.one())
            if (A.degree(ai) * C.space.degree(ci)) % 2
            else F.one()
        )

    def iso(v: dict) -> dict:
        out = {}
        for k, c in v.items():
            ci, ai = divmod(k, nA)
            cc = F.mul(sign(ci, ai), c)
            if not F.is_zero(cc):
                out[k] = cc  # same index layout: (ci, ai)
        return out

    H = conv.algebra
    # compare products
    for key, col in H.mult.items():
        i, j = key
        ci, ai = divmod(i, nA)
        cj, aj = divmod(j, nA)
        si = sign(ci, ai)
        sj = sign(cj, aj)
        lhs = iso(col)
        rhs_col = T.mult.get((i, j), {})
        rhs = {k: F.mul(F.mul(si, sj), c) for k, c in rhs_col.items()}
        if not vec_eq(F, lhs, rhs):
            return False
    for key in T.mult:
        if key not in H.mult and T.mult[key]:
            i, j = key
            if not vec_eq(F, T.mult[key], {}):
                return False
    # differential
    for j in range(H.dim):
        cj, aj = divmod(j, nA)
        lhs = iso(H.d.entries.get(j, {}))
        rhs = {k: F.mul(sign(cj, aj), c) for k, c in T.d.entries.get(j, {}).items()}
        if not vec_eq(F, lhs, rhs):
            return False
    if not vec_eq(F, iso(H.unit), T.unit):
        return False
    if not vec_eq(F, iso(H.h), T.h):
        return False
    return True


# ---------------------------------------------------------------------------
# functoriality: Hom(C,A) -> Hom(C', A') along C' -> C and A -> A'


def coalgebra_morphism_dual(g: CurvedMorphism) -> GradedMap:
    """A coalgebra map C' -> C is stored as its dual algebra map C* -> C'*."""
    return g.f


def induced_convolution_morphism(
    conv: ConvolutionAlgebra,
    conv2: ConvolutionAlgebra,
    cmap_dual: Optional[CurvedMorphism] = None,
    amap: Optional[CurvedMorphism] = None,
) -> CurvedMorphism:
    """Hom(C,A) -> Hom(C',A') from a coalgebra map C' -> C (given as the dual
    algebra morphism C* -> C'* with b-component zero) and an algebra morphism
    (f, b): A -> A'.  The b-component of the result is eps(-) b.
    """
    C, A = conv.C, conv.A
    C2, A2 = conv2.C, conv2.A
    F = A.field
    nA, nA2 = A.dim, A2.dim

    # dual of C' -> C as a map C -> C' on dual-basis coordinates:
    # cmap_dual: C* -> C'* has entries over dual bases, which use the same
    # index sets as C and C'.
    def cpull(ci: int) -> dict:
        if cmap_dual is None:
            return {ci: F.one()}
        return cmap_dual.f.entries.get(ci, {})

    def apush(v: dict) -> dict:
        if amap is None:
            return v
        return amap.f.apply(v)

    entries: Dict[int, dict] = {}
    for ci in range(C.dim):
        for ai in range(A.dim):
            col: dict = {}
            av = apush({ai: F.one()})
            for c2, cc in cpull(ci).items():
                for a2, ac in av.items():
                    k = c2 * nA2 + a2
                    col[k] = F.add(col.get(k, F.zero()), F.mul(cc, ac))
            col = {k: c for k, c in col.items() if not F.is_zero(c)}
            if col:
                entries[ci * nA + ai] = col
    b: dict = {}
    if amap is not None:
        for c2 in range(C2.dim):
            e = C2.counit.get(c2, F.zero())
            if F.is_zero(e):
                continue
            for a2, c in amap.b.items():
                b[c2 * nA2 + a2] = F.mul(e, c)
    f = GradedMap(conv.algebra.space, conv2.algebra.space, 0, entries)
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
    nA = A.dim
    nD = D.dim
    n_inner = inner.algebra.dim

    entries: Dict[int, dict] = {}
    for ci in range(C.dim):
        for di in range(D.dim):
            cd = ci * nD + di  # index in CD (tensor through duals keeps order)
            for ai in range(A.dim):
                srck = cd * nA + ai
                inner_idx = di * nA + ai
                dstk = ci * n_inner + inner_idx
                sgn = (
                    F.neg(F.one())
                    if (D.space.degree(di) * C.space.degree(ci)) % 2
                    else F.one()
                )
                entries[srck] = {dstk: sgn}
    f = GradedMap(src.algebra.space, dst.algebra.space, 0, entries)
    iso = CurvedMorphism(src.algebra, dst.algebra, f, {})
    return iso, src, dst

"""Finitely generated twisted modules over curved algebras.

A twisted module is (A, V, xi) with xi a Maurer-Cartan element of
A @ End(V); the differential on A# @ V is d_A @ 1 plus the action of xi.
Induction along (f, b): A -> B sends xi to (f @ 1)(xi) + b @ id_V.
Module hom complexes are matrix two-sided twists inside A @ Hom(V, W),
realized within A @ End(V + W).

Twisted comodules over a finite-dimensional curved coalgebra C are stored
as twisted modules over C*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    endomorphism_algebra,
    tensor_algebras,
    twisted_apply,
)
from .gradedlin import (
    Complex,
    GradedMap,
    GradedSpace,
    vec_eq,
    vec_is_zero,
)


@dataclass
class TwistedModule:
    A: CurvedAlgebra
    V: GradedSpace
    xi: dict  # MC element of A @ End(V)
    ambient: CurvedAlgebra  # A @ End(V)

    def mc_check(self) -> dict:
        return self.ambient.mc_residual(self.xi)


def ambient_algebra(A: CurvedAlgebra, V: GradedSpace) -> CurvedAlgebra:
    return tensor_algebras(A, endomorphism_algebra(V), sep="#")


def make_twisted(A: CurvedAlgebra, V: GradedSpace, xi: dict) -> TwistedModule:
    amb = ambient_algebra(A, V)
    res = amb.mc_residual(xi)
    if not vec_is_zero(A.field, res):
        pretty = {amb.space.basis[k][0]: A.field.format_coeff(c) for k, c in res.items()}
        raise ValueError(f"xi fails the MC equation; residual {pretty}")
    return TwistedModule(A, V, xi, amb)


def free_module(A: CurvedAlgebra, rank_labels: List[Tuple[str, int]]) -> TwistedModule:
    V = GradedSpace.make(rank_labels, A.field)
    return make_twisted(A, V, {})


def uncurving_module(A: CurvedAlgebra) -> TwistedModule:
    """A + A[1] with differential the square matrix (0 1; -h 0): the
    contractible twisted module whose matrix twist turns A into a dg algebra.
    The sign on h is fixed by the MC equation under the global conventions.
    """
    F = A.field
    V = GradedSpace.make([("m0", 0), ("m1", -1)], F)
    amb = ambient_algebra(A, V)
    nE = 4  # E[m0,m0], E[m0,m1], E[m1,m0], E[m1,m1]
    xi: dict = {}
    for i, c in A.unit.items():
        xi[i * nE + 1] = c
    for i, c in A.h.items():
        k = i * nE + 2
        xi[k] = F.add(xi.get(k, F.zero()), F.neg(c))
    xi = {k: c for k, c in xi.items() if not F.is_zero(c)}
    return make_twisted(A, V, xi)


def induce(phi: CurvedMorphism, M: TwistedModule) -> TwistedModule:
    """Induction along (f, b): xi_B = (f @ 1)(xi) + b @ id_V."""
    A, B = phi.source, phi.target
    F = B.field
    nE = M.V.dim * M.V.dim
    ambB = ambient_algebra(B, M.V)
    xiB: dict = {}
    for k, c in M.xi.items():
        i, e = divmod(k, nE)
        img = phi.f.apply({i: c})
        for ib, cb in img.items():
            kk = ib * nE + e
            xiB[kk] = F.add(xiB.get(kk, F.zero()), cb)
    for ib, cb in phi.b.items():
        for v in range(M.V.dim):
            e = v * M.V.dim + v
            kk = ib * nE + e
            xiB[kk] = F.add(xiB.get(kk, F.zero()), cb)
    xiB = {k: c for k, c in xiB.items() if not F.is_zero(c)}
    return make_twisted(B, M.V, xiB)


def module_hom_complex(M: TwistedModule, N: TwistedModule) -> Complex:
    """Hom_A(M, N) as a complex on A @ Hom(V_M, V_N) with the matrix twist
    D(phi) = (d_A @ 1)(phi) + xi_N . phi - (-1)^{|phi|} phi . xi_M, the
    two-sided twist D_{xi_M -> xi_N} of A @ End(V_M + V_N).
    """
    A = M.A
    F = A.field
    W = GradedSpace.make(
        [(f"M.{l}", d) for l, d in M.V.basis] + [(f"N.{l}", d) for l, d in N.V.basis],
        F,
    )
    amb = ambient_algebra(A, W)
    nW = W.dim
    nE = nW * nW
    nM = M.V.dim

    def emb_M(k):
        i, e = divmod(k, nM * nM)
        r, c = divmod(e, nM)
        return i * nE + (r * nW + c)

    def emb_N(k):
        i, e = divmod(k, N.V.dim * N.V.dim)
        r, c = divmod(e, N.V.dim)
        return i * nE + ((r + nM) * nW + (c + nM))

    xiM = {emb_M(k): c for k, c in M.xi.items()}
    xiN = {emb_N(k): c for k, c in N.xi.items()}

    # hom part: blocks Hom(V_M, V_N) = entries (row in N-part, col in M-part)
    hom_keys = []
    for i in range(A.dim):
        for r in range(N.V.dim):
            for c in range(nM):
                hom_keys.append(i * nE + ((r + nM) * nW + c))
    pos = {k: a for a, k in enumerate(hom_keys)}
    basis = []
    for k in hom_keys:
        i, e = divmod(k, nE)
        basis.append((amb.space.basis[k][0], amb.space.degree(k)))
    space = GradedSpace.make(basis, F)

    entries: Dict[int, dict] = {}
    for a, k in enumerate(hom_keys):
        col_big = twisted_apply(amb, xiM, xiN, amb.space.basis_vector(k))
        col = {}
        for kk, c in col_big.items():
            if kk in pos:
                col[pos[kk]] = c
            elif not F.is_zero(c):
                raise AssertionError("hom differential leaves the hom block")
        if col:
            entries[a] = col
    d = GradedMap(space, space, 1, entries)
    return Complex(space, d)


def module_hom_cocycle(M: TwistedModule, N: TwistedModule, phi: dict) -> bool:
    """Is phi (coefficients over the module_hom_complex basis) a cocycle?"""
    c = module_hom_complex(M, N)
    return vec_is_zero(M.A.field, c.d.apply(phi))


def endomorphism_complex_is_dg_algebra(M: TwistedModule) -> bool:
    """Hom(M, M) is a dg algebra: d^2 = 0 (Complex enforces this), the
    identity is a degree-0 cocycle, and Leibniz holds for composition."""
    A = M.A
    F = A.field
    c = module_hom_complex(M, M)
    n = M.V.dim
    # identity element: sum over A-unit @ E_{vv}
    ident: dict = {}
    for i, u in A.unit.items():
        for v in range(n):
            k = i * (n * n) + (v * n + v)
            # position within hom basis: rows/cols both in the M block; the
            # module_hom_complex for (M, M) uses W = M.V + M.V and takes the
            # N-row/M-col block, so the identity sits on the diagonal there.
            ident[_hom_pos(M, M, i, v, v)] = u
    if not vec_is_zero(F, c.d.apply(ident)):
        return False
    # composition Leibniz on a sample of basis elements
    comp = _hom_composition(M, M, M)
    dim = len(c.space.basis)
    for a in range(min(dim, 6)):
        for b in range(min(dim, 6)):
            x = {a: F.one()}
            y = {b: F.one()}
            dxy = c.d.apply(comp(x, y))
            degx = c.space.degree(a)
            sgn = F.one() if degx % 2 == 0 else F.neg(F.one())
            rhs = comp(c.d.apply(x), y)
            F.add_scaled(rhs, sgn, comp(x, c.d.apply(y)))
            if not vec_eq(F, dxy, rhs):
                return False
    return True


def _hom_pos(M: TwistedModule, N: TwistedModule, i: int, row: int, col: int) -> int:
    """Index of A_i @ E[N-row, M-col] inside the hom-complex basis order."""
    return (i * N.V.dim + row) * M.V.dim + col


def _hom_composition(M, K, N):
    """Composition Hom(K,N) x Hom(M,K) -> Hom(M,N) with Koszul signs.

    Elements are dicts over _hom_pos-indexed bases; returns comp(g, f).
    """
    A = M.A
    F = A.field

    def comp(g: dict, f: dict) -> dict:
        out: dict = {}
        for kg, cg in g.items():
            tmp, cgcol = divmod(kg, K.V.dim)
            ig, rg = divmod(tmp, N.V.dim)
            degE_g = N.V.degree(rg) - K.V.degree(cgcol)
            for kf, cf in f.items():
                tmpf, cfcol = divmod(kf, M.V.dim)
                iff, rf = divmod(tmpf, K.V.dim)
                if cgcol != rf:
                    continue
                degE_f = K.V.degree(rf) - M.V.degree(cfcol)
                # (a @ E)(a' @ E') = (-1)^{|E||a'|} aa' @ EE'
                sgn = (
                    F.neg(F.one())
                    if (degE_g * A.degree(iff)) % 2
                    else F.one()
                )
                prod = A.basis_product(ig, iff)
                for ip, cp in prod.items():
                    kk = (ip * N.V.dim + rg) * M.V.dim + cfcol
                    c = F.mul(F.mul(sgn, F.mul(cg, cf)), cp)
                    s = F.add(out.get(kk, F.zero()), c)
                    if F.is_zero(s):
                        out.pop(kk, None)
                    else:
                        out[kk] = s
        return out

    return comp

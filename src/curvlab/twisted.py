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
    morita_element,
    tensor_algebras,
    tensor_element,
    tensor_index,
    tensor_map,
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
    V = GradedSpace.make([("m0", 0), ("m1", -1)], A.field)
    return make_twisted(A, V, morita_element(A, endomorphism_algebra(V)))


def induce(phi: CurvedMorphism, M: TwistedModule) -> TwistedModule:
    """Induction along (f, b): xi_B = (f @ 1)(xi) + b @ id_V."""
    B, F = phi.target, phi.target.field
    E = endomorphism_algebra(M.V)
    ambB = ambient_algebra(B, M.V)
    xiB = tensor_map(phi.f, GradedMap.identity(E.space), M.ambient.space, ambB.space).apply(M.xi)
    F.add_scaled(xiB, F.one(), tensor_element(F, phi.b, E.unit, E.dim))
    return make_twisted(B, M.V, xiB)


def module_hom_complex(M: TwistedModule, N: TwistedModule) -> Complex:
    """Hom_A(M, N) as a complex on A @ Hom(V_M, V_N) with the matrix twist
    D(phi) = (d_A @ 1)(phi) + xi_N . phi - (-1)^{|phi|} phi . xi_M, the
    two-sided twist D_{xi_M -> xi_N} of A @ End(V_M + V_N).
    """
    A = M.A
    F = A.field
    nM, nN = M.V.dim, N.V.dim
    W = GradedSpace.make(
        [(f"M.{l}", d) for l, d in M.V.basis] + [(f"N.{l}", d) for l, d in N.V.basis],
        F,
    )
    amb = ambient_algebra(A, W)
    EW = endomorphism_algebra(W)
    idA = GradedMap.identity(A.space)

    def embed(K: TwistedModule, offset: int) -> dict:
        """xi_K in A @ End(W), along V_K -> W, v_r -> w_{offset + r}: on
        End(V_K) = V_K @ V_K* that is the inclusion tensored with itself."""
        EK = endomorphism_algebra(K.V)
        inc = GradedMap(K.V, W, 0, {r: {offset + r: F.one()} for r in range(K.V.dim)})
        E_inc = tensor_map(inc, inc, EK.space, EW.space)
        return tensor_map(idA, E_inc, K.ambient.space, amb.space).apply(K.xi)

    xiM, xiN = embed(M, 0), embed(N, nM)
    # hom part: the block Hom(V_M, V_N) of End(W), rows in the N part and
    # columns in the M part
    hom_keys = [
        tensor_index(i, tensor_index(nM + r, c, W.dim), EW.dim)
        for i in range(A.dim)
        for r in range(nN)
        for c in range(nM)
    ]
    pos = {k: a for a, k in enumerate(hom_keys)}
    space = GradedSpace.make([amb.space.basis[k] for k in hom_keys], F)
    entries: Dict[int, dict] = {}
    for a, k in enumerate(hom_keys):
        col = {}
        for kk, c in twisted_apply(amb, xiM, xiN, amb.space.basis_vector(k)).items():
            if kk in pos:
                col[pos[kk]] = c
            elif not F.is_zero(c):
                raise AssertionError("hom differential leaves the hom block")
        if col:
            entries[a] = col
    return Complex(space, GradedMap(space, space, 1, entries))


def endomorphism_complex_is_dg_algebra(M: TwistedModule) -> bool:
    """Hom(M, M) is a dg algebra: d^2 = 0 (Complex enforces this), the
    identity is a degree-0 cocycle, and Leibniz holds for composition.

    The hom basis of (M, M) is that of A @ End(V), in its order, so
    composition is the product of M.ambient and the identity its unit."""
    F = M.A.field
    c = module_hom_complex(M, M)
    if not vec_is_zero(F, c.d.apply(M.ambient.unit)):
        return False
    comp = M.ambient.product
    # composition Leibniz on a sample of basis elements
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

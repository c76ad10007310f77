"""Interval algebras I^n, truncations of I^infinity, their dual coalgebras,
evaluation maps, the comparison with noncommutative forms, and the diagonal.

Quiver: two vertices e, f with arrows s: e -> f and t: f -> e of degree 1;
words compose left to right (e*s = s = s*f).  The differential is
d(e) = t - s, d(f) = s - t, d(s) = d(t) = st + ts, extended by Leibniz.
I^n is the quotient by the dg monomial ideal generated by the length-n
alternating word starting with t (t, ts, tst, ...); the other choice sts...
gives an isomorphic quotient via the swap automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    ground_algebra,
    tensor_algebras,
    tensor_element,
    tensor_map,
)
from .fields import FieldSpec
from .gradedlin import GradedMap, vec_eq, vec_is_zero, vec_scale, vec_sub
from .presented import Arrow, PresentedCurvedAlgebra


def _t_leading_word(n: int) -> Tuple[str, ...]:
    return tuple(("t" if i % 2 == 0 else "s") for i in range(n))


def interval_presentation(
    F: FieldSpec, n: Optional[int], truncation: Optional[int] = None
) -> PresentedCurvedAlgebra:
    """Presentation of I^n (n finite) or of the length-truncated I^infinity."""
    if n is None:
        if truncation is None:
            raise ValueError("a truncation level is required for I^infinity")
        killed = ()
        N = truncation
    else:
        if n < 1:
            raise ValueError("n must be >= 1")
        killed = (_t_leading_word(n),)
        N = n if truncation is None else max(truncation, n)
    one = F.one()
    m1 = F.neg(one)
    return PresentedCurvedAlgebra(
        field=F,
        vertices=("e", "f"),
        arrows=(Arrow("s", "e", "f", 1), Arrow("t", "f", "e", 1)),
        killed_monomials=killed,
        truncation=N,
        d_on_vertices={"e": {("t",): one, ("s",): m1}, "f": {("s",): one, ("t",): m1}},
        d_on_arrows={
            "s": {("s", "t"): one, ("t", "s"): one},
            "t": {("s", "t"): one, ("t", "s"): one},
        },
    )


@dataclass
class IntervalAlgebra:
    n: Optional[int]  # None means a truncation of I^infinity
    truncation: int
    algebra: CurvedAlgebra
    ev0: CurvedMorphism
    ev1: CurvedMorphism
    presentation: PresentedCurvedAlgebra


def make_interval(F: FieldSpec, n: Optional[int], truncation: Optional[int] = None) -> IntervalAlgebra:
    pres = interval_presentation(F, n, truncation)
    A = pres.materialize().algebra
    k = ground_algebra(F)
    # ev0 keeps e (the vertex-0 idempotent), ev1 keeps f; arrows die.
    ev0 = _evaluation(A, k, keep="e_e")
    ev1 = _evaluation(A, k, keep="e_f")
    return IntervalAlgebra(n, pres.truncation, A, ev0, ev1, pres)


def _evaluation(A: CurvedAlgebra, k: CurvedAlgebra, keep: str) -> CurvedMorphism:
    F = A.field
    entries = {A.space.index(keep): {0: F.one()}}
    f = GradedMap(A.space, k.space, 0, entries)
    return CurvedMorphism(A, k, f, {})


def interval_dimension_check(I: IntervalAlgebra) -> bool:
    """dim I^n = 2n + 1 with dims 2 in degrees 0..n-1 and 1 in degree n."""
    if I.n is None:
        return True
    A = I.algebra
    if A.dim != 2 * I.n + 1:
        return False
    for d in range(I.n):
        if A.space.dim_in_degree(d) != 2:
            return False
    return A.space.dim_in_degree(I.n) == 1


# ---------------------------------------------------------------------------
# noncommutative forms


def noncommutative_forms(F: FieldSpec, n: int):
    """Omega(k x k) / (e (de)^n) together with the isomorphism onto I^n.

    The presentation reuses the interval quiver: Omega(k x k) is the path
    algebra on two idempotents with the two components of the universal
    1-form as arrows (a = the e-to-f component, b = the f-to-e component,
    de = b - a, df = a - b).  e(de)^n is, up to sign, the alternating
    length-n word starting with a; the isomorphism onto I^n therefore swaps
    the idempotents (e -> f, f -> e, a -> t, b -> s), under which the killed
    ideal becomes the t-leading monomial ideal of I^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    one, m1 = F.one(), F.neg(F.one())
    killed = (tuple(("a" if i % 2 == 0 else "b") for i in range(n)),)
    pres = PresentedCurvedAlgebra(
        field=F,
        vertices=("e", "f"),
        arrows=(Arrow("a", "e", "f", 1), Arrow("b", "f", "e", 1)),
        killed_monomials=killed,
        truncation=n,
        d_on_vertices={"e": {("b",): one, ("a",): m1}, "f": {("a",): one, ("b",): m1}},
        d_on_arrows={
            "a": {("a", "b"): one, ("b", "a"): one},
            "b": {("a", "b"): one, ("b", "a"): one},
        },
    )
    Omega = pres.materialize().algebra
    I = make_interval(F, n)
    A = I.algebra
    # generator map e->f, f->e, a->t, b->s extends to words letterwise
    entries: Dict[int, dict] = {}
    swap_letter = {"a": "t", "b": "s"}
    for i, (lbl, _) in enumerate(Omega.space.basis):
        if lbl == "e_e":
            tgt = "e_f"
        elif lbl == "e_f":
            tgt = "e_e"
        else:
            tgt = "".join(swap_letter[c] for c in lbl)
        entries[i] = {A.space.index(tgt): F.one()}
    iso = CurvedMorphism(Omega, A, GradedMap(Omega.space, A.space, 0, entries), {})
    return Omega, I, iso


def e_de_power(F: FieldSpec, n: int, Omega: CurvedAlgebra) -> dict:
    """The element e (de)^n of Omega(k x k) (in the quotient it is zero)."""
    e = Omega.space.basis_vector(Omega.space.index("e_e"))
    de = Omega.apply_d(e)
    out = e
    for _ in range(n):
        out = Omega.product(out, de)
    return out


# ---------------------------------------------------------------------------
# the diagonal on I^1 (and the obstruction for n >= 2)


def interval_diagonal(F: FieldSpec, n: int):
    """For n = 1: the coassociative algebra map I^1 -> I^1 @ I^1 with
    Delta(e) = e@e (and Delta(f) = 1@1 - e@e forced); verified coassociative
    and compatible with d.  For n >= 2: returns the failure witness, an
    element of the killed ideal whose image under the I^infinity diagonal
    does not lie in (ideal @ C + C @ ideal).
    """
    big = 2 * n + 2
    Iinf = make_interval(F, None, truncation=big).algebra
    T = tensor_algebras(Iinf, Iinf)

    # Delta on I^infinity: algebra map with e -> e@e, extended to the dg
    # envelope by Delta(de) := d(Delta e).
    def idx(lbl):
        return Iinf.space.index(lbl)

    e = Iinf.space.basis_vector(idx("e_e"))
    De = tensor_element(F, e, e, Iinf.dim)
    Dde = T.d.apply(De)
    # images of generators s, t: s = -e(de), t = (de)e  (in I^infinity:
    # e(de) = e(t-s) = -s and (de)e = (t-s)e = t with the cup conventions)
    images: Dict[int, dict] = {idx("e_e"): De, idx("e_f"): vec_sub(F, T.unit, De)}
    letter_img = {"s": T.product(vec_scale(F, F.neg(F.one()), De), Dde), "t": T.product(Dde, De)}
    for i, (lbl, _) in enumerate(Iinf.space.basis):
        if lbl in ("e_e", "e_f"):
            continue
        img = None
        for c in lbl:
            img = letter_img[c] if img is None else T.product(img, letter_img[c])
        images[i] = img

    if n == 1:
        I1 = make_interval(F, 1).algebra
        T1 = tensor_algebras(I1, I1)
        # the projection I^infinity -> I^1 keeps the words of I^1
        words = [lbl for lbl, _ in I1.space.basis]
        keep = {idx(lbl): I1.space.basis_vector(a) for a, lbl in enumerate(words)}
        P = GradedMap(Iinf.space, I1.space, 0, keep)
        PP = tensor_map(P, P, T.space, T1.space)
        entries = {a: PP.apply(images[idx(lbl)]) for a, lbl in enumerate(words)}
        Delta = GradedMap(I1.space, T1.space, 0, entries)
        # verify: multiplicative + unital morphism of dg algebras
        mor = CurvedMorphism(I1, T1, Delta, {})
        bad = mor.validate()
        if bad:
            raise AssertionError("I^1 diagonal failed validation: " + "; ".join(bad))
        cofail = _coassociativity_defect(I1, T1, Delta)
        if cofail:
            raise AssertionError("I^1 diagonal not coassociative")
        return {"n": 1, "diagonal": Delta, "target": T1, "coassociative": True}

    # n >= 2: the killed word generates the ideal (the words containing it);
    # test whether its image lies in ideal @ C + C @ ideal, i.e. whether the
    # projection Q @ Q onto (C / ideal) @ (C / ideal) kills it.
    killed = "".join(_t_leading_word(n))
    kept = [i for i, (lbl, _) in enumerate(Iinf.space.basis) if killed not in lbl]
    Q = GradedMap(Iinf.space, Iinf.space, 0, {i: Iinf.space.basis_vector(i) for i in kept})
    witness = tensor_map(Q, Q, T.space, T.space).apply(images[idx(killed)])
    if vec_is_zero(F, witness):
        raise AssertionError(
            f"expected descent failure for n={n} but the diagonal descends"
        )
    terms = sorted(T.space.basis[k][0] for k in witness)
    return {"n": n, "descends": False, "witness_terms": terms}


def _coassociativity_defect(I1, T1, Delta: GradedMap):
    """(Delta x 1)Delta - (1 x Delta)Delta on the basis; [] when zero.

    The flat tensor layout is associative, so (I1 @ I1) @ I1 and
    I1 @ (I1 @ I1) share the space of T2."""
    F = I1.field
    T2 = tensor_algebras(T1, I1)
    one = GradedMap.identity(I1.space)
    left = tensor_map(Delta, one, T1.space, T2.space)
    right = tensor_map(one, Delta, T1.space, T2.space)
    bad = []
    for i in range(I1.dim):
        v = Delta.entries.get(i, {})
        if not vec_eq(F, left.apply(v), right.apply(v)):
            bad.append(I1.space.basis[i][0])
    return bad

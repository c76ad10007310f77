"""Curved algebras by structure constants: validation, morphisms, twists, MC.

Conventions (fixed globally, see README):
  - graded commutator [x,a] = xa - (-1)^{|x||a|} ax
  - Leibniz d(ab) = d(a)b + (-1)^{|a|} a d(b)
  - MC equation h + dx + x^2 = 0; twisted differential d^x = d + [x,-]
  - two-sided twist D_{x->y}(a) = da + ya - (-1)^{|a|} ax, written once,
    in `twisted_apply`; D_{x->x} = d^x
  - Koszul tensor signs (a@b)(a'@b') = (-1)^{|b||a'|} aa' @ bb'
  - tensor layout: e_i @ f_j is basis vector i * dim B + j of A @ B, known
    only to `tensor_index`, `tensor_element`, `tensor_split`, `tensor_rows`
    and `tensor_map`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .fields import FieldSpec, PrimeFieldRequired
from .gradedlin import (
    GradedMap,
    GradedSpace,
    enumerate_affine,
    rref,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_key,
    vec_scale,
    vec_sub,
)


@dataclass
class CurvedAlgebra:
    """Finite-dimensional curved algebra given by structure constants.

    mult[(i,j)] = sparse vector for e_i * e_j.  unit is an element (not
    necessarily a basis vector).  h is the curvature element (degree 2).
    """

    space: GradedSpace
    unit: dict
    mult: Dict[Tuple[int, int], dict]
    d: GradedMap
    h: dict

    @property
    def field(self) -> FieldSpec:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def label(self, i: int) -> str:
        return self.space.basis[i][0]

    def degree(self, i: int) -> int:
        return self.space.degree(i)

    # -- arithmetic on elements ---------------------------------------------

    def basis_product(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def product(self, u: dict, v: dict) -> dict:
        add_scaled, mult = self.field.add_scaled, self.mult
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                col = mult.get((i, j))
                if col:
                    add_scaled(out, a * b, col)
        return out

    def scalar(self, c) -> dict:
        return vec_scale(self.field, c, self.unit)

    def apply_d(self, v: dict) -> dict:
        return self.d.apply(v)

    # -- validation ----------------------------------------------------------

    def validate(self, max_violations: int = 8) -> List[str]:
        """Exact axiom check; returns a list of violation descriptions."""
        F = self.field
        out: List[str] = []

        def report(msg):
            if len(out) < max_violations:
                out.append(msg)

        n = self.dim
        # degree homogeneity of products
        for (i, j), col in self.mult.items():
            want = self.degree(i) + self.degree(j)
            for k, c in col.items():
                if not F.is_zero(c) and self.degree(k) != want:
                    report(
                        f"product {self.label(i)}*{self.label(j)} has term "
                        f"{self.label(k)} of wrong degree"
                    )
        # unit degree 0
        try:
            du = self.space.element_degree(self.unit)
            if du not in (None, 0):
                report("unit is not of degree 0")
        except ValueError:
            report("unit is not homogeneous")
        # h degree 2
        try:
            dh = self.space.element_degree(self.h)
            if dh not in (None, 2):
                report("curvature h is not of degree 2")
        except ValueError:
            report("curvature h is not homogeneous")
        # unitality
        for i in range(n):
            e = self.space.basis_vector(i)
            if not vec_eq(F, self.product(self.unit, e), e):
                report(f"1*{self.label(i)} != {self.label(i)}")
            if not vec_eq(F, self.product(e, self.unit), e):
                report(f"{self.label(i)}*1 != {self.label(i)}")
        # associativity and Leibniz (d degree 1 is enforced by GradedMap)
        prod: Dict[int, Dict[int, dict]] = {}
        for (m, k), col in _nonzero_part(F, self.mult).items():
            prod.setdefault(m, {})[k] = col
        dcol = _nonzero_part(F, self.d.entries)
        for i, j, k in _associativity_failures(F, prod):
            report(
                f"associativity fails on "
                f"({self.label(i)},{self.label(j)},{self.label(k)})"
            )
            if len(out) >= max_violations:
                return out
        signs = [-1 if self.degree(i) % 2 else 1 for i in range(n)]
        for i, j in _leibniz_failures(F, prod, dcol, signs):
            report(f"Leibniz fails on ({self.label(i)},{self.label(j)})")
            if len(out) >= max_violations:
                return out
        # d(h) = 0
        if not vec_is_zero(F, self.d.apply(self.h)):
            report("d(h) != 0")
        # d^2 = [h, -]
        for i in range(n):
            ei = self.space.basis_vector(i)
            dd = self.d.apply(self.d.apply(ei))
            ha = self.product(self.h, ei)
            ah = self.product(ei, self.h)
            if not vec_eq(F, dd, vec_sub(F, ha, ah)):
                report(f"d^2 != [h,-] on {self.label(i)}")
                if len(out) >= max_violations:
                    return out
        return out

    # -- MC machinery ---------------------------------------------------------

    def mc_residual(self, x: dict) -> dict:
        """h + dx + x^2 (zero iff x is Maurer-Cartan)."""
        F = self.field
        return vec_add(F, vec_add(F, self.h, self.d.apply(x)), self.product(x, x))

    def is_mc(self, x: dict) -> bool:
        return vec_is_zero(self.field, self.mc_residual(x))

    def degree_indices(self, n: int) -> List[int]:
        return self.space.indices_of_degree(n)


# The axiom checks below work on the nonzero structure constants only:
# prod[m][k] is e_m e_k and dcol[m] is d e_m.  Sums are taken with plain
# + and *, exact on ints mod p and on Fractions, and tested by F.is_zero.


def _nonzero_part(F: FieldSpec, table: dict) -> dict:
    out = {}
    for key, col in table.items():
        nz = {r: c for r, c in col.items() if not F.is_zero(c)}
        if nz:
            out[key] = nz
    return out


def _associativity_failures(F: FieldSpec, prod: dict):
    """The (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in lexicographic
    order.  Both sides are empty sums unless e_m e_k != 0 for a term e_m
    of e_i e_j, or e_i e_m != 0 for a term e_m of e_j e_k, so only those
    triples are tested."""
    into: Dict[int, List[Tuple[int, int]]] = {}  # (j, k) with e_m in e_j e_k
    for j, row in prod.items():
        for k, col in row.items():
            for m in col:
                into.setdefault(m, []).append((j, k))
    for i in sorted(prod):
        row_i = prod[i]
        cands: Dict[int, set] = {}
        for j, pij in row_i.items():
            for m in pij:
                cands.setdefault(j, set()).update(prod.get(m, ()))
        for m in row_i:
            for j, k in into.get(m, ()):
                cands.setdefault(j, set()).add(k)
        for j in sorted(cands):
            pij, row_j = row_i.get(j, {}), prod.get(j, {})
            for k in sorted(cands[j]):
                acc: dict = {}
                for m, c in pij.items():
                    for r, x in prod.get(m, {}).get(k, {}).items():
                        acc[r] = acc.get(r, 0) + c * x
                for m, c in row_j.get(k, {}).items():
                    for r, x in row_i.get(m, {}).items():
                        acc[r] = acc.get(r, 0) - c * x
                if not all(map(F.is_zero, acc.values())):
                    yield i, j, k


def _leibniz_failures(F: FieldSpec, prod: dict, dcol: dict, signs: List[int]):
    """The (i, j) with d(e_i e_j) != d(e_i) e_j + (-1)^|i| e_i d(e_j), in
    lexicographic order; signs[i] is (-1)^|i|.  As above, only the pairs
    where some side has a term are tested."""
    left_of: Dict[int, List[int]] = {}  # the i with e_i e_b != 0
    for i, row in prod.items():
        for b in row:
            left_of.setdefault(b, []).append(i)
    cands: Dict[int, set] = {}
    for i, row in prod.items():
        for j, col in row.items():
            if any(m in dcol for m in col):
                cands.setdefault(i, set()).add(j)
    for i, di in dcol.items():
        for a in di:
            cands.setdefault(i, set()).update(prod.get(a, ()))
    for j, dj in dcol.items():
        for b in dj:
            for i in left_of.get(b, ()):
                cands.setdefault(i, set()).add(j)
    for i in sorted(cands):
        row_i, di = prod.get(i, {}), dcol.get(i, {})
        for j in sorted(cands[i]):
            acc: dict = {}
            for m, c in row_i.get(j, {}).items():
                for r, x in dcol.get(m, {}).items():
                    acc[r] = acc.get(r, 0) + c * x
            for a, c in di.items():
                for r, x in prod.get(a, {}).get(j, {}).items():
                    acc[r] = acc.get(r, 0) - c * x
            for b, c in dcol.get(j, {}).items():
                for r, x in row_i.get(b, {}).items():
                    acc[r] = acc.get(r, 0) - signs[i] * c * x
            if not all(map(F.is_zero, acc.values())):
                yield i, j


@dataclass
class MCElement:
    algebra: CurvedAlgebra
    x: dict

    def __post_init__(self):
        deg = self.algebra.space.element_degree(self.x)
        if deg not in (None, 1):
            raise ValueError("MC element must have degree 1")
        if not self.algebra.is_mc(self.x):
            raise ValueError("element does not satisfy h + dx + x^2 = 0")


def mc_enumerate(A: CurvedAlgebra, budget: Optional[int] = None) -> List[dict]:
    """All MC elements of A over a prime field, sorted by coefficient vector.

    Over the rationals, raises; use mc_polynomial_system instead.
    """
    F = A.field
    if not F.is_prime_field:
        raise PrimeFieldRequired("mc_enumerate requires a prime field; over Q use mc_polynomial_system")
    units = [A.space.basis_vector(i) for i in A.degree_indices(1)]
    sols = [x for x in enumerate_affine(F, {}, units, budget) if A.is_mc(x)]
    sols.sort(key=lambda v: vec_key(v, A.dim))
    return sols


def mc_polynomial_system(A: CurvedAlgebra) -> List[str]:
    """The MC equations h + dx + x^2 = 0 as polynomial strings over Q."""
    idx = A.degree_indices(1)
    names = {i: f"x_{A.label(i)}" for i in idx}
    F = A.field
    terms_by_target: Dict[int, List[str]] = {}

    def add_term(k, s):
        terms_by_target.setdefault(k, []).append(s)

    for k, c in A.h.items():
        if not F.is_zero(c):
            add_term(k, f"({F.format_coeff(c)})")
    for i in idx:
        for k, c in A.d.entries.get(i, {}).items():
            if not F.is_zero(c):
                add_term(k, f"({F.format_coeff(c)})*{names[i]}")
    for i in idx:
        for j in idx:
            for k, c in A.basis_product(i, j).items():
                if not F.is_zero(c):
                    add_term(k, f"({F.format_coeff(c)})*{names[i]}*{names[j]}")
    return [
        " + ".join(terms_by_target[k]) + " = 0  [component " + A.label(k) + "]"
        for k in sorted(terms_by_target)
    ]


# ---------------------------------------------------------------------------
# ideal powers


def ideal_powers(
    A: CurvedAlgebra, ideal: List[dict]
) -> Tuple[List[List[dict]], Optional[List[dict]]]:
    """The reduced echelon bases of I, I^2, ..., up to the last nonzero
    power, for the two-sided ideal I spanned by `ideal`, and None.

    I^(k+1) lies in I^k, so a power of the same rank as the one before is
    equal to it and to every later power.  Then I is not nilpotent, and the
    nonzero powers before it come back with its basis in place of None.
    """
    F = A.field
    I, _ = rref(F, ideal, A.dim)
    powers: List[List[dict]] = []
    cur = I
    while cur:
        powers.append(cur)
        nxt, _ = rref(F, [A.product(u, v) for u in cur for v in I], A.dim)
        if len(nxt) == len(cur):
            return powers, nxt
        cur = nxt
    return powers, None


# ---------------------------------------------------------------------------
# morphisms


@dataclass
class CurvedMorphism:
    """Morphism (f, b): pair of a graded algebra map and a degree 1 element b
    of the target, satisfying f(da) = d(fa) + [b, fa] and
    f(h_A) = h_B + db + b^2.
    """

    source: CurvedAlgebra
    target: CurvedAlgebra
    f: GradedMap
    b: dict
    unital: bool = True

    def validate(self, max_violations: int = 8) -> List[str]:
        F = self.source.field
        out: List[str] = []

        def report(msg):
            if len(out) < max_violations:
                out.append(msg)

        A, B = self.source, self.target
        if self.f.degree != 0:
            report("f must have degree 0")
        bdeg = B.space.element_degree(self.b)
        if bdeg not in (None, 1):
            report("b must have degree 1")
        if self.unital and not vec_eq(F, self.f.apply(A.unit), B.unit):
            report("f(1) != 1")
        for i in range(A.dim):
            ei = A.space.basis_vector(i)
            fi = self.f.apply(ei)
            for j in range(A.dim):
                ej = A.space.basis_vector(j)
                lhs = self.f.apply(A.product(ei, ej))
                rhs = B.product(fi, self.f.apply(ej))
                if not vec_eq(F, lhs, rhs):
                    report(f"f not multiplicative on ({A.label(i)},{A.label(j)})")
                    if len(out) >= max_violations:
                        return out
        for i in range(A.dim):
            ei = A.space.basis_vector(i)
            lhs = self.f.apply(A.d.apply(ei))
            rhs = twisted_apply(B, self.b, self.b, self.f.apply(ei))
            if not vec_eq(F, lhs, rhs):
                report(f"f(da) != d(fa) + [b, fa] on {A.label(i)}")
                if len(out) >= max_violations:
                    return out
        lhs = self.f.apply(A.h)
        rhs = vec_add(
            F,
            vec_add(F, B.h, B.d.apply(self.b)),
            B.product(self.b, self.b),
        )
        if not vec_eq(F, lhs, rhs):
            report("f(h_A) != h_B + db + b^2")
        return out

    def apply(self, v: dict) -> dict:
        return self.f.apply(v)

    def push_mc(self, x: dict) -> dict:
        """Image of an MC element: f(x) + b."""
        return vec_add(self.target.field, self.f.apply(x), self.b)


def identity_morphism(A: CurvedAlgebra) -> CurvedMorphism:
    return CurvedMorphism(A, A, GradedMap.identity(A.space), {})


def compose_morphisms(g: CurvedMorphism, f: CurvedMorphism) -> CurvedMorphism:
    """(g, b)(f, a) = (g f, b + g(a))."""
    if f.target is not g.source and f.target.space.basis != g.source.space.basis:
        raise ValueError("composition mismatch: target of f is not source of g")
    F = g.target.field
    return CurvedMorphism(
        f.source,
        g.target,
        g.f.compose(f.f),
        vec_add(F, g.b, g.f.apply(f.b)),
        unital=f.unital and g.unital,
    )


# ---------------------------------------------------------------------------
# twists


def twisted_apply(A: CurvedAlgebra, x: dict, y: dict, v: dict) -> dict:
    """D_{x->y}(v) = dv + yv - (-1)^{|v|} vx for degree-1 x and y.

    The sign is taken on each homogeneous part of v, so this is the matrix
    of `twisted_map(A, x, y)` applied to any v.  The terms are added in the
    order dv, yv, vx; on a basis vector that is the order of every column
    built from it.  With y = x it is d^x = d + [x, -].
    """
    F = A.field
    out = A.d.apply(v)
    F.add_scaled(out, 1, A.product(y, v))
    even = {i: c for i, c in v.items() if A.degree(i) % 2 == 0}
    if even:
        F.add_scaled(out, F.neg(F.one()), A.product(even, x))
    if len(even) < len(v):
        F.add_scaled(out, F.one(), A.product({i: c for i, c in v.items() if i not in even}, x))
    return out


def twisted_map(A: CurvedAlgebra, x: dict, y: dict) -> GradedMap:
    """D_{x->y} as a degree-1 map of A, column i being twisted_apply(e_i)."""
    entries = {}
    for i in range(A.dim):
        col = twisted_apply(A, x, y, A.space.basis_vector(i))
        if col:
            entries[i] = col
    return GradedMap(A.space, A.space, 1, entries)


def twist_algebra(A: CurvedAlgebra, x: dict) -> Tuple[CurvedAlgebra, CurvedMorphism]:
    """Twist by an MC element: (A, d + [x,-], h = 0) and the iso (id, x): A^x -> A."""
    if not A.is_mc(x):
        raise ValueError("twist requires a Maurer-Cartan element")
    Ax = CurvedAlgebra(A.space, dict(A.unit), A.mult, twisted_map(A, x, x), {})
    return Ax, CurvedMorphism(Ax, A, GradedMap.identity(A.space), dict(x))


# ---------------------------------------------------------------------------
# change of basis


def algebra_in_basis(
    A: CurvedAlgebra, space: GradedSpace, basis: List[dict], coords, unit: dict, h: dict
) -> CurvedAlgebra:
    """The curved algebra on `space` whose basis vector a stands for the
    element basis[a] of A: products and differentials of basis vectors, the
    unit and h are computed in A and read back by coords, the coordinates
    over `basis` of an element (or of its class, for a quotient)."""
    mult = {}
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            col = coords(A.product(u, v))
            if col:
                mult[(a, b)] = col
    entries = {}
    for a, u in enumerate(basis):
        col = coords(A.d.apply(u))
        if col:
            entries[a] = col
    return CurvedAlgebra(space, coords(unit), mult, GradedMap(space, space, 1, entries), coords(h))


# ---------------------------------------------------------------------------
# tensor products


def tensor_index(i: int, j: int, nB: int) -> int:
    """Index of e_i @ f_j in A @ B, for dim B = nB.

    This is the one tensor layout: the basis of A @ B lists e_i @ f_j at
    i * dim B + j.  Only the tensor_* functions here compute with it.  The
    layout is associative: (U @ V) @ W and U @ (V @ W) share one index.
    """
    return i * nB + j


def tensor_element(F: FieldSpec, a: dict, b: dict, nB: int) -> dict:
    """a @ b for a in A and b in B, dim B = nB: the terms a_i b_j e_i @ f_j
    in the order of a, then of b, zero products dropped."""
    out = {}
    for i, x in a.items():
        for j, c in F.scale(x, b).items():
            out[tensor_index(i, j, nB)] = c
    return out


def tensor_split(v: dict, nB: int) -> Dict[int, dict]:
    """{j: v_j} with v = sum_j v_j @ f_j, dim B = nB: the components of v
    along the basis of the right factor, each in the order of v."""
    out: Dict[int, dict] = {}
    for k, c in v.items():
        i, j = divmod(k, nB)
        out.setdefault(j, {})[i] = c
    return out


def tensor_rows(v: dict, nB: int) -> Dict[int, dict]:
    """{i: v_i} with v = sum_i e_i @ v_i, dim B = nB: the components of v
    along the basis of the left factor, each in the order of v."""
    out: Dict[int, dict] = {}
    for k, c in v.items():
        i, j = divmod(k, nB)
        out.setdefault(i, {})[j] = c
    return out


def tensor_map(f: GradedMap, g: GradedMap, source: GradedSpace, target: GradedSpace) -> GradedMap:
    """f @ g: source -> target for degree-0 maps f: A -> A' and g: B -> B',
    source and target being the spaces of A @ B and A' @ B'.

    (f @ g)(a @ b) = (-1)^{|g||a|} f(a) @ g(b), and the sign is 1 because g
    has degree 0; other degrees raise ValueError.
    """
    if f.degree or g.degree:
        raise ValueError("tensor_map takes maps of degree 0")
    nB, nB2 = g.source.dim, g.target.dim
    if source.dim != f.source.dim * nB or target.dim != f.target.dim * nB2:
        raise ValueError("tensor_map: source and target must be the tensor products of the factors")
    F = source.field
    entries = {}
    for i in range(f.source.dim):
        fi = f.entries.get(i)
        if not fi:
            continue
        for j in range(nB):
            col = tensor_element(F, fi, g.entries.get(j, {}), nB2)
            if col:
                entries[tensor_index(i, j, nB)] = col
    return GradedMap(source, target, 0, entries)


def tensor_algebras(A: CurvedAlgebra, B: CurvedAlgebra, sep: str = "@") -> CurvedAlgebra:
    """Koszul-signed tensor product of curved algebras, basis labels a{sep}b."""
    if A.field != B.field:
        raise ValueError("tensor factors must share the field")
    F = A.field
    one, m1 = F.one(), F.neg(F.one())
    nB = B.dim
    space = GradedSpace.make(
        [(f"{la}{sep}{lb}", da + db) for la, da in A.space.basis for lb, db in B.space.basis], F
    )
    mult: Dict[Tuple[int, int], dict] = {}
    for i1 in range(A.dim):
        for j1 in range(B.dim):
            for i2 in range(A.dim):
                pa = A.basis_product(i1, i2)
                if not pa:
                    continue
                sgn = m1 if (B.degree(j1) * A.degree(i2)) % 2 else one  # (-1)^{|b1||a2|}
                for j2 in range(B.dim):
                    pb = B.basis_product(j1, j2)
                    if pb:
                        col = F.scale(sgn, tensor_element(F, pa, pb, nB))
                        if col:
                            mult[(tensor_index(i1, j1, nB), tensor_index(i2, j2, nB))] = col
    entries: Dict[int, dict] = {}
    for i in range(A.dim):
        sgn = m1 if A.degree(i) % 2 else one  # d(a@b) = da@b + (-1)^{|a|} a@db
        for j in range(B.dim):
            col = tensor_element(F, A.d.entries.get(i, {}), {j: one}, nB)
            F.add_scaled(col, sgn, tensor_element(F, {i: one}, B.d.entries.get(j, {}), nB))
            if col:
                entries[tensor_index(i, j, nB)] = col
    h = tensor_element(F, A.h, B.unit, nB)  # h@1 + 1@h
    for j, c in B.h.items():
        F.add_scaled(h, one, tensor_element(F, A.unit, {j: c}, nB))
    unit = tensor_element(F, A.unit, B.unit, nB)
    return CurvedAlgebra(space, unit, mult, GradedMap(space, space, 1, entries), h)


# ---------------------------------------------------------------------------
# ground field as an algebra, square-zero extensions of k, End(V)


def ground_algebra(F: FieldSpec) -> CurvedAlgebra:
    space = GradedSpace.make([("1", 0)], F)
    return CurvedAlgebra(
        space,
        {0: F.one()},
        {(0, 0): {0: F.one()}},
        GradedMap(space, space, 1, {}),
        {},
    )


def square_zero_algebra(V: GradedSpace, dV: GradedMap) -> CurvedAlgebra:
    """k + V with V^2 = 0 and the given differential on V."""
    F = V.field
    basis = [("1", 0)] + list(V.basis)
    space = GradedSpace.make(basis, F)
    mult: Dict[Tuple[int, int], dict] = {(0, 0): {0: F.one()}}
    for i in range(V.dim):
        mult[(0, i + 1)] = {i + 1: F.one()}
        mult[(i + 1, 0)] = {i + 1: F.one()}
    entries = {}
    for j in range(V.dim):
        col = dV.entries.get(j, {})
        if col:
            entries[j + 1] = {i + 1: c for i, c in col.items()}
    d = GradedMap(space, space, 1, entries)
    return CurvedAlgebra(space, {0: F.one()}, mult, d, {})


def endomorphism_algebra(V: GradedSpace) -> CurvedAlgebra:
    """End(V) with zero differential; basis E_{i,j}: v_j -> v_i, degree |v_i|-|v_j|."""
    F = V.field
    n = V.dim
    basis = []
    for i in range(n):
        for j in range(n):
            basis.append((f"E[{V.basis[i][0]},{V.basis[j][0]}]", V.degree(i) - V.degree(j)))
    space = GradedSpace.make(basis, F)
    # End(V) = V @ V*: E_{ij} is v_i @ v_j*, at tensor_index(i, j, n)
    mult = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                # E_{ij} E_{jl} = E_{il}
                key = (tensor_index(i, j, n), tensor_index(j, l, n))
                mult[key] = {tensor_index(i, l, n): F.one()}
    unit = {tensor_index(i, i, n): F.one() for i in range(n)}
    return CurvedAlgebra(space, unit, mult, GradedMap(space, space, 1, {}), {})


def direct_product(A: CurvedAlgebra, B: CurvedAlgebra, tagA="L", tagB="R") -> CurvedAlgebra:
    """Product algebra A x B."""
    F = A.field
    basis = [(f"{tagA}.{l}", d) for l, d in A.space.basis] + [
        (f"{tagB}.{l}", d) for l, d in B.space.basis
    ]
    space = GradedSpace.make(basis, F)
    off = A.dim
    mult = {}
    for (i, j), col in A.mult.items():
        mult[(i, j)] = dict(col)
    for (i, j), col in B.mult.items():
        mult[(i + off, j + off)] = {k + off: c for k, c in col.items()}
    entries = {}
    for j, col in A.d.entries.items():
        entries[j] = dict(col)
    for j, col in B.d.entries.items():
        entries[j + off] = {k + off: c for k, c in col.items()}
    d = GradedMap(space, space, 1, entries)
    unit = dict(A.unit)
    unit.update({k + off: c for k, c in B.unit.items()})
    h = dict(A.h)
    h.update({k + off: c for k, c in B.h.items()})
    return CurvedAlgebra(space, unit, mult, d, h)


def morita_element(A: CurvedAlgebra, E: CurvedAlgebra) -> dict:
    """1 @ E[0,1] - h @ E[1,0] in A @ E, for E = End(V) of V = k + k[1]:
    the square-matrix MC element (0 1; -h 0) that uncurves A."""
    F = A.field
    x = tensor_element(F, A.unit, {tensor_index(0, 1, 2): F.one()}, E.dim)
    F.add_scaled(x, F.neg(F.one()), tensor_element(F, A.h, {tensor_index(1, 0, 2): F.one()}, E.dim))
    return x


def uncurve_morita(A: CurvedAlgebra):
    """Uncurving route: twist A @ End(k + k[1]) by the square-matrix MC element.

    Returns (B, x, route) where B is a dg algebra, x the MC element of
    A @ End(V), and route = (inclusion A -> A@End(V), iso twist).
    """
    F = A.field
    V = GradedSpace.make([("v0", 0), ("v1", -1)], F)
    E = endomorphism_algebra(V)
    T = tensor_algebras(A, E, sep="#")
    x = morita_element(A, E)
    if not T.is_mc(x):
        raise AssertionError("morita matrix element failed the MC equation")
    B, iso = twist_algebra(T, x)
    k = ground_algebra(F)
    unit_E = GradedMap(k.space, E.space, 0, {0: dict(E.unit)})
    incl = tensor_map(GradedMap.identity(A.space), unit_E, A.space, T.space)  # A = A @ k
    return B, x, (CurvedMorphism(A, T, incl, {}), iso)

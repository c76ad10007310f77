"""Seeded random generators for test batteries: complexes, curved algebras,
and square-zero extensions.  Every instance is validated at generation time,
and generation is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .algebra import (
    CurvedAlgebra,
    algebra_in_basis,
    direct_product,
    endomorphism_algebra,
    ground_algebra,
    square_zero_algebra,
    tensor_algebras,
    twisted_map,
)
from .fields import FieldSpec
from .gradedlin import Complex, GradedMap, GradedSpace, LinearSystem, kernel_basis
from .interval import make_interval
from .obstruction import Bimodule, SquareZeroExtension


def random_complex(rng: random.Random, F: FieldSpec, maxdim: int = 6, degs=(-1, 0, 1, 2)):
    """Random (V, d) with d^2 = 0, by rejection.  The nonzero entries of d
    are drawn uniformly from F_p^*, and are 1 over Q."""
    prime = F.is_prime_field
    while True:
        n = rng.randint(1, maxdim)
        basis = [(f"v{i}", rng.choice(degs)) for i in range(n)]
        V = GradedSpace.make(basis, F)
        entries = {}
        for j in range(n):
            col = {}
            for i in range(n):
                if V.degree(i) == V.degree(j) + 1 and rng.random() < 0.5:
                    c = rng.randint(1, F.characteristic - 1) if prime else 1
                    col[i] = F.coerce(c)
            if col:
                entries[j] = col
        try:
            d = GradedMap(V, V, 1, entries)
            Complex(V, d)
            return V, d
        except ValueError:
            continue


def acyclic_k_algebra(F: FieldSpec) -> CurvedAlgebra:
    """K = k[x]/x^2 with |x| = -1 and dx = 1."""
    space = GradedSpace.make([("1", 0), ("x", -1)], F)
    mult = {
        (0, 0): {0: F.one()},
        (0, 1): {1: F.one()},
        (1, 0): {1: F.one()},
    }
    d = GradedMap(space, space, 1, {1: {0: F.one()}})
    return CurvedAlgebra(space, {0: F.one()}, mult, d, {})


def curved_ku_algebra(F: FieldSpec) -> CurvedAlgebra:
    """k[u]/u^2, |u| = 2, d = 0, h = u (curved, no MC elements)."""
    space = GradedSpace.make([("1", 0), ("u", 2)], F)
    mult = {
        (0, 0): {0: F.one()},
        (0, 1): {1: F.one()},
        (1, 0): {1: F.one()},
    }
    return CurvedAlgebra(space, {0: F.one()}, mult, GradedMap(space, space, 1, {}), {1: F.one()})


def random_curved_algebra(
    rng: random.Random, F: FieldSpec, maxdim: int = 8
) -> CurvedAlgebra:
    """Random valid curved algebra from a constructor zoo: building blocks
    (ground field, k x k, square-zero extensions, interval quotients, K,
    curved k[u]/u^2, End of a small space), combined by products and tensor
    products under a dimension cap, then optionally twisted by a random
    degree-1 element z (which sets h = dz + z^2 and d = d + [z,-])."""
    blocks = []

    def new_block():
        kind = rng.randrange(7)
        if kind == 0:
            return ground_algebra(F)
        if kind == 1:
            return direct_product(ground_algebra(F), ground_algebra(F), tagA=f"p{rng.randrange(99)}", tagB=f"q{rng.randrange(99)}")
        if kind == 2:
            V, d = random_complex(rng, F, maxdim=3)
            return square_zero_algebra(V, d)
        if kind == 3:
            return make_interval(F, rng.choice([1, 1, 2])).algebra
        if kind == 4:
            return acyclic_k_algebra(F)
        if kind == 5:
            return curved_ku_algebra(F)
        return endomorphism_algebra(GradedSpace.make([("w0", 0), ("w1", rng.choice([0, 1]))], F))

    A = new_block()
    for _ in range(rng.randrange(3)):
        B = new_block()
        if A.dim * B.dim <= maxdim and rng.random() < 0.5:
            A = tensor_algebras(A, B, sep=f"%{rng.randrange(99)}%")
        elif A.dim + B.dim <= maxdim:
            A = direct_product(A, B, tagA=f"a{rng.randrange(99)}", tagB=f"b{rng.randrange(99)}")
    if A.dim > maxdim:
        A = ground_algebra(F)
    # optional twist by a random degree-1 element (need not be MC):
    # d -> d + [z,-], h -> h + dz + z^2 is always a valid curved structure
    idx1 = A.degree_indices(1)
    if idx1 and rng.random() < 0.6 and F.is_prime_field:
        z = {}
        for i in idx1:
            c = rng.randrange(F.characteristic)
            if c:
                z[i] = c
        if z:
            A = curved_twist_by_any(A, z)
    bad = A.validate()
    assert not bad, f"generator produced an invalid algebra: {bad}"
    return A


def curved_twist_by_any(A: CurvedAlgebra, z: dict) -> CurvedAlgebra:
    """(A, d + [z,-], h + dz + z^2) for an arbitrary degree-1 z."""
    return CurvedAlgebra(A.space, dict(A.unit), A.mult, twisted_map(A, z, z), A.mc_residual(z))


def rebased_algebra(rng: random.Random, A: CurvedAlgebra) -> CurvedAlgebra:
    """A in a random homogeneous basis b_j = e_j + sum_{i > j} c_ij e_i, the
    i of the degree of j, each c_ij nonzero with probability 1/2 (uniform
    in F_p^*, 1 over Q).  The change is unitriangular, so invertible, and
    an ideal spanned by basis vectors of A is spanned by non-monomial rows
    of the result."""
    F, n = A.field, A.dim
    prime = F.is_prime_field
    basis = []
    for j in range(n):
        b = {j: F.one()}
        for i in range(j + 1, n):
            if A.degree(i) == A.degree(j) and rng.random() < 0.5:
                b[i] = F.coerce(rng.randint(1, F.characteristic - 1) if prime else 1)
        basis.append(b)
    system = LinearSystem(F, basis, n)

    def coords(v: dict) -> dict:
        return system.solution(system.residue(v))

    space = GradedSpace.make(A.space.basis, F)
    B = algebra_in_basis(A, space, basis, coords, A.unit, A.h)
    bad = B.validate()
    assert not bad, f"rebasing produced an invalid algebra: {bad}"
    return B


# ---------------------------------------------------------------------------
# random square-zero extensions


def random_base_algebra(rng: random.Random, F: FieldSpec, maxdim: int = 5) -> CurvedAlgebra:
    kind = rng.randrange(4)
    if kind == 0:
        return ground_algebra(F)
    if kind == 1:
        return direct_product(ground_algebra(F), ground_algebra(F))
    if kind == 2:
        V, d = random_complex(rng, F, maxdim=maxdim - 1)
        return square_zero_algebra(V, d)
    return make_interval(F, rng.choice([1, 2])).algebra


def regular_bimodule(B: CurvedAlgebra, shift_by: int = 0) -> Bimodule:
    """B itself as a B-bimodule, shifted: L = sB with |sm| = |m| - shift_by.

    For an odd shift the Koszul signs of s are d(sm) = -s(dm) and
    b.sm = (-1)^{|b|} s(bm), with sm.b = s(mb); over F_2 they are all +1.
    """
    F = B.field
    space = GradedSpace.make(
        [(f"L{l}", d - shift_by) for l, d in B.space.basis], F
    )
    odd = shift_by % 2 == 1
    left = {}
    right = {}
    for i in range(B.dim):
        sign = -1 if odd and B.degree(i) % 2 else 1
        for m in range(B.dim):
            col = B.basis_product(i, m)
            if col:
                left[(i, m)] = F.scale(sign, col)
            col = B.basis_product(m, i)
            if col:
                right[(m, i)] = dict(col)
    dsign = -1 if odd else 1
    dL = GradedMap(space, space, 1, {j: F.scale(dsign, c) for j, c in B.d.entries.items()})
    return Bimodule(space, dL, left, right)


def hochschild_pair_space(B: CurvedAlgebra, L: Bimodule):
    """Basis of the space of valid normalised Hochschild pairs (del, xi):
    the three cocycle conditions and xi(1, -) = xi(-, 1) = 0, which the unit
    laws of the total algebra need, are linear, so solve them exactly.

    Variables: del entries (i -> m) with deg(m) = deg(i) + 1, and xi entries
    ((i,j) -> m) with deg(m) = deg(i) + deg(j).
    """
    F = B.field
    dvars: List[Tuple[int, int]] = []
    for i in range(B.dim):
        for m in range(L.space.dim):
            if L.space.degree(m) == B.degree(i) + 1:
                dvars.append((i, m))
    xvars: List[Tuple[int, int, int]] = []
    for i in range(B.dim):
        for j in range(B.dim):
            for m in range(L.space.dim):
                if L.space.degree(m) == B.degree(i) + B.degree(j):
                    xvars.append((i, j, m))
    nvars = len(dvars) + len(xvars)
    rows: Dict[Tuple, dict] = {}

    def add(eqkey, var, c):
        if F.is_zero(c):
            return
        rows.setdefault(eqkey, {})[var] = F.add(rows.get(eqkey, {}).get(var, F.zero()), c)

    dpos = {v: a for a, v in enumerate(dvars)}
    xpos = {v: len(dvars) + a for a, v in enumerate(xvars)}

    # (1) del(d_B e_i) + d_L del(e_i) = 0
    for i in range(B.dim):
        for j, c in B.d.entries.get(i, {}).items():
            for (jj, m), a in dpos.items():
                if jj == j:
                    add(("c1", i, m), a, c)
        for (ii, m), a in dpos.items():
            if ii == i:
                for k, c in L.dL.entries.get(m, {}).items():
                    add(("c1", i, k), a, c)
    # (2) a xi(b,c) - xi(ab, c) + xi(a, bc) - xi(a,b) c = 0
    for i in range(B.dim):
        for j in range(B.dim):
            pij = B.basis_product(i, j)
            for k in range(B.dim):
                pjk = B.basis_product(j, k)
                eq = ("c2", i, j, k)
                for (x, y, m), a in xpos.items():
                    coeff = F.zero()
                    if y == k:
                        coeff = F.sub(coeff, pij.get(x, F.zero()))
                    if x == i:
                        coeff = F.add(coeff, pjk.get(y, F.zero()))
                    if not F.is_zero(coeff):
                        add(eq + (m,), a, coeff)
                # a xi(b,c): left action of e_i on xi_{j,k}
                for (x, y, m), a in xpos.items():
                    if x == j and y == k:
                        for mm, c in L.left.get((i, m), {}).items():
                            add(eq + (mm,), a, c)
                    if x == i and y == j:
                        for mm, c in L.right.get((m, k), {}).items():
                            add(eq + (mm,), a, F.neg(c))
    # (3) del(ab) - del(a) b - (-1)^{|a|} a del(b)
    #     + d_L xi(a,b) - xi(da, b) - (-1)^{|a|} xi(a, db) = 0
    for i in range(B.dim):
        si = F.one() if B.degree(i) % 2 == 0 else F.neg(F.one())
        for j in range(B.dim):
            eq = ("c3", i, j)
            pij = B.basis_product(i, j)
            for (x, m), a in dpos.items():
                coeff = pij.get(x, F.zero())
                if not F.is_zero(coeff):
                    add(eq + (m,), a, coeff)
            for (x, m), a in dpos.items():
                if x == i:
                    for mm, c in L.right.get((m, j), {}).items():
                        add(eq + (mm,), a, F.neg(c))
                if x == j:
                    for mm, c in L.left.get((i, m), {}).items():
                        add(eq + (mm,), a, F.neg(F.mul(si, c)))
            for (x, y, m), a in xpos.items():
                if x == i and y == j:
                    for mm, c in L.dL.entries.get(m, {}).items():
                        add(eq + (mm,), a, c)
                cda = B.d.entries.get(i, {}).get(x, F.zero())
                if y == j and not F.is_zero(cda):
                    add(eq + (m,), a, F.neg(cda))
                cdb = B.d.entries.get(j, {}).get(y, F.zero())
                if x == i and not F.is_zero(cdb):
                    add(eq + (m,), a, F.neg(F.mul(si, cdb)))
    # (4) xi(1, b) = 0 and xi(b, 1) = 0 for 1 = sum_u c_u e_u
    for (x, y, m), a in xpos.items():
        add(("u1", y, m), a, B.unit.get(x, F.zero()))
        add(("u2", x, m), a, B.unit.get(y, F.zero()))
    ker = kernel_basis(F, list(rows.values()), nvars)
    return dvars, xvars, ker


def random_square_zero_extension(
    rng: random.Random, F: FieldSpec, max_total_dim: int = 10, semisplit: Optional[bool] = None
) -> SquareZeroExtension:
    """Random valid square-zero extension: random base and bimodule, then a
    random point of the (linear) space of normalised Hochschild pairs, whose
    total algebra the extension validates at construction."""
    while True:
        B = random_base_algebra(rng, F, maxdim=max_total_dim // 2)
        L = regular_bimodule(B, shift_by=rng.choice([0, 1, 1, 2]))
        if B.dim + L.space.dim > max_total_dim:
            continue
        dvars, xvars, ker = hochschild_pair_space(B, L)
        if semisplit:
            # keep only kernel vectors with no xi support
            ker = [k for k in ker if all(a < len(dvars) for a in k)]
        if not ker:
            coeffs = []
        else:
            coeffs = [rng.randrange(F.characteristic) for _ in ker]
        vec: dict = {}
        for c, k in zip(coeffs, ker):
            if c:
                F.add_scaled(vec, F.coerce(c), k)
        partial_entries: Dict[int, dict] = {}
        xi: Dict[Tuple[int, int], dict] = {}
        for a, val in vec.items():
            if F.is_zero(val):
                continue
            if a < len(dvars):
                i, m = dvars[a]
                partial_entries.setdefault(i, {})[m] = val
            else:
                i, j, m = xvars[a - len(dvars)]
                xi.setdefault((i, j), {})[m] = val
        if semisplit:
            xi = {}
        ext = SquareZeroExtension(B, L, GradedMap(B.space, L.space, 1, partial_entries), xi)
        if semisplit is True and not ext.semisplit:
            continue
        return ext

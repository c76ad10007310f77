"""Reference radicals for the tests of `semisimple.graded_radical`: over
F_p the elementwise enumeration (a vector lies in the radical iff the
two-sided ideal it generates is nilpotent), over Q the kernel of the
Dickson Gram matrix tr(L_x L_y).  Both return reduced echelon rows.

Reference primitive central idempotents for the tests of
`semisimple._primitive_central_idempotents`: over F_p every point of the
closed centre is enumerated and the minimal nonzero idempotents kept, over
Q blocks are split by the first splitting centre element until nothing
changes, each split by `reference_split_by_minimal_polynomial`.

Reference rational split for the tests of
`semisimple._split_by_minimal_polynomial`: the minimal polynomial factored
by sympy, the CRT idempotents by sympy's gcdex.  `sympy_factor_list` is the
same factorization as [(monic coefficients, multiplicity)].

Reference section for the tests of `semisimple.css_section`: the source is
decomposed by `css_decompose`, and the complement of the kernel is the sum
of the factors that the kernel does not contain."""

from fractions import Fraction

import sympy

from curvlab.algebra import CurvedMorphism
from curvlab.gradedlin import (
    EchelonBasis,
    GradedMap,
    LinearSystem,
    enumerate_affine,
    in_span,
    kernel_basis,
    rref,
    solve_linear,
    span_rank,
    vec_eq,
    vec_is_zero,
)
from curvlab.semisimple import _closed_center, css_decompose, internal_curved_radical


def _ideal_closure(A, gens):
    """Basis (rref rows) of the two-sided ideal generated by gens.

    Built with a work queue over one incremental echelon basis: each vector
    that enlarges the span is multiplied once on each side by every basis
    vector, and a product joins the queue only if reducing it against the
    basis leaves a nonzero residue.
    """
    ideal = EchelonBasis(A.field, A.dim)
    queue = [dict(g) for g in gens if ideal.add(g)]
    while queue:
        r = queue.pop()
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            for p in (A.product(r, ej), A.product(ej, r)):
                if p and ideal.add(p):
                    queue.append(p)
    return ideal.rows()


def _ideal_is_nilpotent(A, ideal_rows):
    F = A.field
    cur = ideal_rows
    for _ in range(A.dim + 1):
        if not cur:
            return True
        nxt = []
        for u in cur:
            for v in ideal_rows:
                p = A.product(u, v)
                if p:
                    nxt.append(p)
        nxt, _ = rref(F, nxt, A.dim)
        if nxt and span_rank(F, nxt, A.dim) >= span_rank(F, cur, A.dim):
            # power stabilized at nonzero span: not nilpotent
            if span_rank(F, nxt, A.dim) == span_rank(F, cur, A.dim) and all(
                in_span(F, cur, r, A.dim) for r in nxt
            ):
                return False
        cur = nxt
    return not cur


def reference_radical(A, budget=None):
    """Rows of the radical as the enumeration (F_p, every nonzero vector in
    base-p order, refused past the budget) or the Gram kernel (Q) found it."""
    F = A.field
    if F.is_prime_field:
        members = EchelonBasis(F, A.dim)
        units = [A.space.basis_vector(i) for i in range(A.dim)]
        for v in enumerate_affine(F, {}, units, budget):
            if not v or members.contains(v):
                continue
            ideal = _ideal_closure(A, [v])
            if _ideal_is_nilpotent(A, ideal):
                for r in ideal:
                    members.add(r)
        return members.rows()
    # Dickson (char 0): rad = {x : tr(L_x L_y) = 0 for all basis y}
    gram_rows = []
    for i in range(A.dim):
        ei = A.space.basis_vector(i)
        row = {}
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            t = F.zero()
            for k in range(A.dim):
                ek = A.space.basis_vector(k)
                v = A.product(ei, A.product(ej, ek))
                t = F.add(t, v.get(k, F.zero()))
            if not F.is_zero(t):
                row[j] = t
        gram_rows.append(row)
    rad = kernel_basis(F, gram_rows, A.dim)
    rad, _ = rref(F, rad, A.dim)
    return rad


def is_nilpotent_ideal(A, rows):
    """rows span a two-sided ideal of A that is nilpotent."""
    basis = EchelonBasis(A.field, A.dim, rows)
    for r in rows:
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            if not (basis.contains(A.product(r, ej)) and basis.contains(A.product(ej, r))):
                return False
    return _ideal_is_nilpotent(A, basis.rows())


def reference_primitive_idempotents(B, budget=None):
    """The primitive idempotents of the closed centre, sorted, as the
    enumeration and its minimality, dedupe and orthogonality filters (F_p,
    refused past the budget) or the splitting fixpoint (Q) found them."""
    F = B.field
    deg0 = B.degree_indices(0)
    kernel = _closed_center(B)
    if F.is_prime_field:
        idems = []
        for v in enumerate_affine(F, {}, kernel, budget):
            z = {deg0[a]: c for a, c in v.items()}
            if not vec_is_zero(F, z) and vec_eq(F, B.product(z, z), z):
                idems.append(z)
    else:
        center = []
        for k in kernel:
            z = {}
            for a, c in k.items():
                F.add_scaled(z, c, B.space.basis_vector(deg0[a]))
            center.append(z)
        idems = [dict(B.unit)]
        changed = True
        while changed:
            changed = False
            blocks = []
            for e in idems:
                parts = [e]
                for z in center:
                    parts = reference_split_by_minimal_polynomial(B, e, z)
                    if len(parts) > 1:
                        changed = True
                        break
                blocks.extend(parts)
            idems = blocks
        idems = [e for e in idems if not vec_is_zero(F, e)]
    # primitive = minimal nonzero among the found idempotents
    prims = []
    for z in idems:
        if not any(
            not vec_eq(F, w, z) and not vec_is_zero(F, w) and vec_eq(F, B.product(z, w), w)
            for w in idems
        ):
            prims.append(z)
    uniq = []
    for z in prims:
        if not any(vec_eq(F, z, w) for w in uniq):
            uniq.append(z)
    ortho = []
    for z in sorted(uniq, key=lambda v: sorted(v.items(), key=str)):
        if all(vec_is_zero(F, B.product(z, w)) for w in ortho):
            ortho.append(z)
    return ortho


def reference_split_by_minimal_polynomial(B, e, z):
    """Over Q: the CRT idempotents of the coprime prime-power factors of the
    minimal polynomial of ez in eBe, or [e] when it is a prime power, by
    sympy (the program's split before it factored without sympy)."""
    F = B.field
    w = B.product(e, z)
    # minimal polynomial of w in eBe: powers until dependence
    pows = [dict(e)]
    span = EchelonBasis(F, B.dim, pows)
    while True:
        nxt = B.product(pows[-1], w)
        if not span.add(nxt):
            break
        pows.append(nxt)
    if len(pows) == 1:  # degree 1: w is a multiple of e
        return [e]
    lam = sympy.symbols("lam")
    # solve nxt = sum c_a pows[a]
    system = LinearSystem(F, pows, B.dim)
    sol = system.solution(system.residue(nxt))
    assert sol is not None
    # minimal poly: lam^n - sum c_a lam^a
    n = len(pows)
    p = sympy.Poly(lam**n - sum(sympy.Rational(str(sol.get(a, Fraction(0)))) * lam**a for a in range(n)), lam)
    fac = sympy.factor_list(p)[1]
    if len(fac) < 2:
        return [e]
    pieces = []
    for q, m in fac:
        qm = sympy.Poly(q**m, lam)
        rest = sympy.Poly(sympy.quo(p, qm), lam)
        u, v, g = sympy.gcdex(qm.as_expr(), rest.as_expr(), lam)
        if sympy.simplify(g - 1) != 0:
            return [e]
        # the idempotent v(w) rest(w), evaluated by Horner in eBe
        piece: dict = {}
        for c in sympy.Poly(sympy.expand(v * rest.as_expr()), lam).all_coeffs():
            piece = B.product(piece, w)
            cc = Fraction(str(sympy.nsimplify(c)))
            if cc:
                F.add_scaled(piece, cc, e)
        pieces.append(piece)
    if all(x and vec_eq(F, B.product(x, x), x) for x in pieces):
        return pieces
    return [e]


def sympy_factor_list(f):
    """The monic irreducible factors over Q of the polynomial with
    coefficients f (constant term first, Fractions or ints), with their
    multiplicities, as sympy.factor_list finds them: a sorted list of
    (tuple of Fraction coefficients, multiplicity)."""
    lam = sympy.symbols("lam")
    p = sympy.Poly([sympy.Rational(str(c)) for c in reversed(f)], lam)
    out = []
    for q, m in sympy.factor_list(p)[1]:
        c = [Fraction(str(a)) for a in reversed(sympy.Poly(q, lam).all_coeffs())]
        out.append((tuple(a / c[-1] for a in c), m))
    return sorted(out)


def reference_css_section(pi):
    """The section of a css surjection pi as the program made it before it
    read the complement off the kernel: the source is decomposed, and the
    section inverts pi on the factors that the kernel does not contain."""
    A, Bq = pi.source, pi.target
    F = A.field
    if internal_curved_radical(A) or internal_curved_radical(Bq):
        raise ValueError("css_section requires curved semisimple source and target")
    decA = css_decompose(A)
    # factors inside the kernel of pi vs complement
    kernel = EchelonBasis(F, A.dim, solve_linear(pi.f, {})[1])
    comp_rows = []
    for fa in decA.factors:
        if not all(kernel.contains(u) for u in fa.basis_in_B):
            comp_rows.extend(fa.basis_in_B)
    comp_red, _ = rref(F, comp_rows, A.dim)
    # pi restricted to the complement must be bijective onto Bq
    img_rows = [pi.f.apply(r) for r in comp_red]
    if span_rank(F, img_rows, Bq.dim) != Bq.dim or len(comp_red) != Bq.dim:
        raise ValueError("projection does not restrict to an isomorphism on the complement")
    entries = {}
    system = LinearSystem(F, img_rows, Bq.dim)
    for j in range(Bq.dim):
        sol = system.solution(system.residue(Bq.space.basis_vector(j)))
        assert sol is not None
        v = {}
        for a, c in sol.items():
            F.add_scaled(v, c, comp_red[a])
        if v:
            entries[j] = v
    sec = CurvedMorphism(Bq, A, GradedMap(Bq.space, A.space, 0, entries), {}, unital=False)
    # exactness check: pi . sec = id
    for j in range(Bq.dim):
        b = Bq.space.basis_vector(j)
        if not vec_eq(F, pi.f.apply(sec.f.apply(b)), b):
            raise AssertionError("section does not split the projection")
    return sec

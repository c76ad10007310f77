"""Radicals, curved radicals, curved semisimple decomposition, sections,
and nilpotent towers for finite-dimensional curved algebras.

Radical computation: over Q the Dickson trace-form criterion on the regular
representation; over F_p, elementwise enumeration (an element lies in the
radical iff the two-sided ideal it generates is nilpotent), budget-bounded.
Homogeneity of the radical is verified, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .algebra import CurvedAlgebra, CurvedMorphism, _bracket
from .gradedlin import (
    EchelonBasis,
    GradedMap,
    GradedSpace,
    LinearSystem,
    enumerate_affine,
    in_span,
    kernel_basis,
    rref,
    solve_linear,
    span_rank,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


# ---------------------------------------------------------------------------
# radical


def _ideal_closure(A: CurvedAlgebra, gens: List[dict]) -> List[dict]:
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


def _ideal_is_nilpotent(A: CurvedAlgebra, ideal_rows: List[dict]) -> bool:
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


def graded_radical(A: CurvedAlgebra, budget: Optional[int] = None) -> List[dict]:
    """Basis (rref rows) of the radical of the underlying graded algebra.

    Over F_p every nonzero vector is visited in base-p order.  The radical
    found so far is kept as one incremental echelon basis, so a vector is
    tested for membership by a single reduction and skipped if it is
    already inside; otherwise its ideal closure is tested for nilpotency
    and, if nilpotent, added to the basis.
    """
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
        rad = members.rows()
    else:
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
    _assert_homogeneous(A, rad)
    return rad


def _assert_homogeneous(A: CurvedAlgebra, rows: List[dict]):
    """The radical of a Z-graded algebra is graded; a failure is a bug."""
    F = A.field
    homog = []
    for r in rows:
        bydeg: Dict[int, dict] = {}
        for i, c in r.items():
            bydeg.setdefault(A.degree(i), {})[i] = c
        homog.extend(bydeg.values())
    r1 = span_rank(F, rows, A.dim)
    r2 = span_rank(F, homog, A.dim)
    assert r1 == r2, "computed radical is not homogeneous (internal error)"


def semisimple_check(A: CurvedAlgebra, budget=None) -> bool:
    return not graded_radical(A, budget=budget)


# ---------------------------------------------------------------------------
# curved radicals and the css quotient


def internal_curved_radical(A: CurvedAlgebra, budget=None, radical=None) -> List[dict]:
    """J_- = {x in J : dx in J}; closed under d, hence a curved ideal."""
    F = A.field
    J = graded_radical(A, budget=budget) if radical is None else radical
    if not J:
        return []
    # x = sum c_a J_a is in J_- iff dx reduces to zero modulo span(J)
    span = EchelonBasis(F, A.dim, J)
    Jred = span.rows()
    ker = LinearSystem(F, [span.reduce(A.d.apply(r)) for r in Jred], A.dim).kernel
    out = []
    for k in ker:
        v = {}
        for a, c in k.items():
            F.add_scaled(v, c, Jred[a])
        if v:
            out.append(v)
    closure = EchelonBasis(F, A.dim, out)
    out = closure.rows()
    for r in out:
        if not closure.contains(A.d.apply(r)):
            raise AssertionError("internal curved radical not closed under d")
    return out


def quotient_algebra(A: CurvedAlgebra, ideal_rows: List[dict], tag: str = "q"):
    """Quotient of A by a curved ideal; returns (B, projection morphism)."""
    F = A.field
    ideal = EchelonBasis(F, A.dim, ideal_rows)
    pivset = set(ideal.pivots())
    keep = [i for i in range(A.dim) if i not in pivset]

    def project(v: dict) -> dict:
        return {keep.index(i): c for i, c in ideal.reduce(v).items()}

    space = GradedSpace.make(
        [(f"{A.label(i)}", A.degree(i)) for i in keep], F
    )
    mult = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            col = project(A.basis_product(i, j))
            if col:
                mult[(a, b)] = col
    entries = {}
    for a, i in enumerate(keep):
        col = project(A.d.apply(A.space.basis_vector(i)))
        if col:
            entries[a] = col
    d = GradedMap(space, space, 1, entries)
    B = CurvedAlgebra(space, project(A.unit), mult, d, project(A.h))
    proj_entries = {}
    for i in range(A.dim):
        col = project(A.space.basis_vector(i))
        if col:
            proj_entries[i] = col
    pi = CurvedMorphism(A, B, GradedMap(A.space, B.space, 0, proj_entries), {})
    return B, pi


def css_quotient(A: CurvedAlgebra, budget=None):
    """A / J_-: curved semisimple quotient with its projection."""
    Jm = internal_curved_radical(A, budget=budget)
    B, pi = quotient_algebra(A, Jm)
    # re-check Prop-style characterization: internal curved radical vanishes
    if internal_curved_radical(B, budget=budget):
        raise AssertionError("css quotient has nonvanishing internal curved radical")
    return B, pi, Jm


# ---------------------------------------------------------------------------
# curved semisimple decomposition


@dataclass
class CurvedFactor:
    kind: str  # "type1" | "type2"
    idempotent: dict  # central curved idempotent in B cutting the factor
    algebra: CurvedAlgebra  # the factor, as a standalone curved algebra
    basis_in_B: List[dict]  # images of the factor's basis inside B
    mc_twist: dict  # MC element of the factor used to reach the dg normal form
    normal_form: CurvedAlgebra  # dg algebra: simple (type1) or S (x) K (type2)
    semisimple_part: Optional[List[dict]] = None  # type2: basis of S inside W
    square_root_of_zero: Optional[dict] = None  # type2: the dx = 1 generator


def _is_graded_simple(R: CurvedAlgebra, budget=None) -> bool:
    """No proper nonzero two-sided ideal generated by a basis-span element.

    Checking ideal closures of all nonzero elements is exponential over F_p
    and unavailable over Q, so this checks the standard criterion instead:
    the algebra is semisimple (zero radical) with a single central
    idempotent block (connected center in degree 0)."""
    if graded_radical(R, budget):
        return False
    # R has d = 0 (the caller twists it away first), so dz = 0 holds for
    # every z and the closed center is the center.
    return len(_central_curved_idempotents(R, budget)) == 1


def _closed_center(B: CurvedAlgebra) -> List[dict]:
    """Kernel basis, over the degree-0 basis, of the z with z e_i = e_i z
    for every basis vector e_i and dz = 0.  Row i * dim + k of the system
    is coordinate k of [z, e_i]; row dim * dim + k is coordinate k of dz."""
    F, n = B.field, B.dim
    cols = []
    for j in B.degree_indices(0):
        ej = B.space.basis_vector(j)
        col = {}
        for i in range(n):
            ei = B.space.basis_vector(i)
            for k, c in vec_sub(F, B.product(ej, ei), B.product(ei, ej)).items():
                col[i * n + k] = c
        for k, c in B.d.apply(ej).items():
            col[n * n + k] = c
        cols.append(col)
    return LinearSystem(F, cols, n * n + n).kernel


def _unit_preimage(R: CurvedAlgebra, J: List[dict]) -> Optional[dict]:
    """An x in the span of J with dx = 1 (the particular solution in the
    coordinates over J), or None."""
    F = R.field
    system = LinearSystem(F, [R.d.apply(r) for r in J], R.dim)
    sol = system.solution(system.residue(R.unit))
    if sol is None:
        return None
    x: dict = {}
    for a, c in sol.items():
        F.add_scaled(x, c, J[a])
    return x


def _verify_type2_form(W: CurvedAlgebra, budget=None):
    """W is S (x) K: the radical is S.x for the dx = 1 element, d kills the
    complement S = dJ, and d: J -> S is a bimodule isomorphism.  Returns
    (S basis rows, x) or raises."""
    F = W.field
    J = graded_radical(W, budget=budget)
    if not J:
        raise AssertionError("type-2 normal form has zero radical")
    S_rows = [W.d.apply(r) for r in J]
    S_red, _ = rref(F, S_rows, W.dim)
    if len(S_red) != len(J):
        raise AssertionError("d is not injective on the radical")
    # d vanishes on S and S + Sx = W
    for s in S_red:
        if not vec_is_zero(F, W.d.apply(s)):
            raise AssertionError("semisimple part of the type-2 form is not d-closed")
    if 2 * len(J) != W.dim:
        raise AssertionError("type-2 form is not S + Sx")
    # x: the radical element with dx = 1
    x = _unit_preimage(W, J)
    if x is None:
        raise AssertionError("no dx = 1 element in the type-2 form")
    # multiplication matches the tensor structure: for s in S, s.x = x.s in J
    # and (sx)(tx) = 0, s(tx) = (st)x
    for s in S_red:
        sx = W.product(s, x)
        if not in_span(F, J, sx, W.dim):
            raise AssertionError("S.x leaves the radical")
    return S_red, x


@dataclass
class CurvedDecomposition:
    input: CurvedAlgebra
    radical: List[dict]
    internal_radical: List[dict]
    css: CurvedAlgebra
    factors: List[CurvedFactor]


def _central_curved_idempotents(B: CurvedAlgebra, budget=None) -> List[dict]:
    """All idempotents of the degree-0 center killed by d."""
    F = B.field
    if not F.is_prime_field:
        return _central_idempotents_rational(B)
    # center of B#: z with ze_i = e_iz for all i and dz = 0, solved
    # linearly to cut the search for idempotents
    varidx = B.degree_indices(0)
    ker = _closed_center(B)
    out = []
    for v in enumerate_affine(F, {}, ker, budget):
        z = {varidx[a]: c for a, c in v.items()}
        if vec_is_zero(F, z):
            continue
        if vec_eq(F, B.product(z, z), z):
            out.append(z)
    return out


def _central_idempotents_rational(B: CurvedAlgebra) -> List[dict]:
    """Over Q: split 1 inside the degree-0 d-closed center.

    Minimal polynomials of center elements are factored over Q; coprime
    factorizations give CRT idempotents.  A center that is a nontrivial
    field extension yields no further splitting (the caller reports an
    unsplit simple factor when the partition of unity fails).
    """
    from fractions import Fraction

    import sympy

    F = B.field
    deg0 = B.degree_indices(0)
    center = []
    for k in _closed_center(B):
        v: dict = {}
        for a, c in k.items():
            F.add_scaled(v, c, B.space.basis_vector(deg0[a]))
        center.append(v)

    lam = sympy.symbols("lam")

    def poly_at(coeffs, w, e):
        """Evaluate a polynomial (sympy coeff list, highest first) at w in eBe."""
        out: dict = {}
        for c in coeffs:
            out = B.product(out, w)
            cc = Fraction(str(sympy.nsimplify(c)))
            if cc:
                F.add_scaled(out, cc, e)
        return out

    def split_block(e):
        """Split a central idempotent e using the center elements; may keep it."""
        for z in center:
            w = B.product(e, z)
            # minimal polynomial of w in eBe: powers until dependence
            pows = [dict(e)]
            span = EchelonBasis(F, B.dim, pows)
            while True:
                nxt = B.product(pows[-1], w)
                if not span.add(nxt):
                    break
                pows.append(nxt)
            # solve nxt = sum c_a pows[a]
            system = LinearSystem(F, pows, B.dim)
            sol = system.solution(system.residue(nxt))
            assert sol is not None
            # minimal poly: lam^n - sum c_a lam^a
            n = len(pows)
            p = sympy.Poly(lam**n - sum(sympy.Rational(str(sol.get(a, Fraction(0)))) * lam**a for a in range(n)), lam)
            fac = sympy.factor_list(p)[1]
            if len(fac) < 2:
                continue
            pieces = []
            ok = True
            for q, m in fac:
                qm = sympy.Poly(q**m, lam)
                rest = sympy.Poly(sympy.quo(p, qm), lam)
                u, v, g = sympy.gcdex(qm.as_expr(), rest.as_expr(), lam)
                if sympy.simplify(g - 1) != 0:
                    ok = False
                    break
                idem_poly = sympy.Poly(sympy.expand(v * rest.as_expr()), lam)
                piece = poly_at(idem_poly.all_coeffs(), w, e)
                pieces.append(piece)
            if ok and pieces:
                good = [x for x in pieces if x and vec_eq(F, B.product(x, x), x)]
                if len(good) == len(pieces):
                    return good
        return [e]

    blocks = [dict(B.unit)]
    changed = True
    while changed:
        changed = False
        new_blocks: List[dict] = []
        for e in blocks:
            parts = split_block(e)
            if len(parts) > 1:
                changed = True
            new_blocks.extend(parts)
        blocks = new_blocks
    return [b for b in blocks if not vec_is_zero(F, b)]


def _corner_algebra(B: CurvedAlgebra, z: dict, tag: str):
    """The factor zBz as a standalone curved algebra (z central idempotent, dz=0)."""
    F = B.field
    rows = []
    for i in range(B.dim):
        v = B.product(z, B.space.basis_vector(i))
        if v:
            rows.append(v)
    basis_rows, _ = rref(F, rows, B.dim)
    system = LinearSystem(F, basis_rows, B.dim)

    def to_coords(v: dict) -> dict:
        sol = system.solution(system.residue(v))
        if sol is None:
            raise AssertionError("element not in factor")
        return sol

    degs = []
    for r in basis_rows:
        degs.append(B.space.element_degree(r))
    space = GradedSpace.make(
        [(f"{tag}{a}", d) for a, d in enumerate(degs)], F
    )
    mult = {}
    for a, u in enumerate(basis_rows):
        for b, v in enumerate(basis_rows):
            col = to_coords(B.product(u, v))
            if col:
                mult[(a, b)] = col
    entries = {}
    for a, u in enumerate(basis_rows):
        col = to_coords(B.d.apply(u))
        if col:
            entries[a] = col
    d = GradedMap(space, space, 1, entries)
    R = CurvedAlgebra(space, to_coords(z), mult, d, to_coords(B.product(z, B.h)))
    return R, basis_rows


def _solve_inner_derivation(R: CurvedAlgebra) -> Optional[dict]:
    """Find b in R^1 with d = [b, -]; None if no solution."""
    F, n = R.field, R.dim
    idx1 = R.degree_indices(1)
    # row i * n + k of the system is coordinate k of the image of e_i
    cols = []
    for j in idx1:
        ej = R.space.basis_vector(j)
        col = {}
        for i in range(n):
            for k, c in _bracket(R, ej, R.space.basis_vector(i), 1, R.degree(i)).items():
                col[i * n + k] = c
        cols.append(col)
    rhs = {i * n + k: c for i in range(n) for k, c in R.d.apply(R.space.basis_vector(i)).items()}
    system = LinearSystem(F, cols, n * n)
    sol = system.solution(system.residue(rhs))
    if sol is None:
        return None
    return {idx1[a]: c for a, c in sol.items()}


def css_decompose(B: CurvedAlgebra, budget=None) -> CurvedDecomposition:
    """Decompose a curved semisimple algebra into type (1)/(2) curved simples."""
    from .algebra import twist_algebra

    F = B.field
    J = graded_radical(B, budget=budget)
    Jm = internal_curved_radical(B, budget=budget, radical=J)
    if Jm:
        raise ValueError("algebra is not curved semisimple (internal curved radical nonzero)")
    idems = _central_curved_idempotents(B, budget=budget)
    # primitive = minimal nonzero among the found idempotents
    prims = []
    for z in idems:
        minimal = True
        for w in idems:
            if vec_eq(F, w, z):
                continue
            zw = B.product(z, w)
            if vec_eq(F, zw, w) and not vec_is_zero(F, w):
                minimal = False
                break
        if minimal:
            prims.append(z)
    # deduplicate and verify partition of unity
    uniq = []
    for z in prims:
        if not any(vec_eq(F, z, w) for w in uniq):
            uniq.append(z)
    total: dict = {}
    ortho = []
    for z in sorted(uniq, key=lambda v: sorted(v.items(), key=str)):
        # keep only if orthogonal to what we have
        if all(vec_is_zero(F, B.product(z, w)) for w in ortho):
            ortho.append(z)
            total = vec_add(F, total, z)
    if not vec_eq(F, total, B.unit):
        raise ValueError(
            "central curved idempotents do not split the algebra "
            "(unsplit simple factor marker)"
        )
    factors = []
    for fi, z in enumerate(ortho):
        R, basis_in_B = _corner_algebra(B, z, tag=f"c{fi}_")
        JR = graded_radical(R, budget=budget)
        if not JR:
            # type 1: R# semisimple (and curved-indecomposable => simple);
            # d is inner: d = [b,-], and -b is MC; twisting kills d and h.
            b = _solve_inner_derivation(R)
            if b is None:
                raise AssertionError("type-1 factor has non-inner differential")
            mb = vec_scale(F, F.neg(F.one()), b)
            if not R.is_mc(mb):
                raise AssertionError("type-1 twist candidate is not MC")
            N, iso = twist_algebra(R, mb)
            if not vec_is_zero(F, N.h) or not N.d.is_zero():
                raise AssertionError("type-1 normal form is not a zero-d simple algebra")
            if not _is_graded_simple(N, budget):
                raise AssertionError("type-1 factor is not graded simple")
            factors.append(CurvedFactor("type1", z, R, basis_in_B, mb, N))
        else:
            # type 2: solve dx = 1 within the radical, twist by -h x
            x = _unit_preimage(R, JR)
            if x is None:
                raise ValueError("type-2 factor: dx = 1 not solvable (unsplit marker)")
            mhx = vec_scale(F, F.neg(F.one()), R.product(R.h, x))
            if not R.is_mc(mhx):
                raise AssertionError("type-2 twist candidate -hx is not MC")
            W, iso = twist_algebra(R, mhx)
            S_rows, xw = _verify_type2_form(W, budget)
            factors.append(
                CurvedFactor("type2", z, R, basis_in_B, mhx, W, S_rows, xw)
            )
    return CurvedDecomposition(B, J, Jm, B, factors)


def reassemble_check(dec: CurvedDecomposition) -> bool:
    """Factors multiply back: sum of factor inclusions reproduces B's data."""
    B = dec.input
    F = B.field
    # orthogonality + completeness of idempotents was verified in decompose;
    # verify products between factors vanish and inside factors match.
    for fa in dec.factors:
        for fb in dec.factors:
            if fa is fb:
                continue
            for u in fa.basis_in_B:
                for v in fb.basis_in_B:
                    if not vec_is_zero(F, B.product(u, v)):
                        return False
    # the recorded route: twist of each factor by mc_twist is a dg algebra
    for fa in dec.factors:
        if not vec_is_zero(F, fa.normal_form.h):
            return False
    return True


# ---------------------------------------------------------------------------
# sections of css surjections


def css_section(pi: CurvedMorphism, budget=None) -> CurvedMorphism:
    """Section of a surjection of curved semisimple algebras.

    The kernel is a product of curved simple factors; the section is the
    inverse of pi restricted to the complementary factors.  The returned
    morphism is multiplicative and d-compatible; it is unital onto the
    complementary central idempotent (not onto 1_A unless the kernel is 0).
    """
    A, Bq = pi.source, pi.target
    F = A.field
    if internal_curved_radical(A, budget=budget) or internal_curved_radical(Bq, budget=budget):
        raise ValueError("css_section requires curved semisimple source and target")
    decA = css_decompose(A, budget=budget)
    # factors inside the kernel of pi vs complement
    kernel = EchelonBasis(F, A.dim, solve_linear(pi.f, {})[1])
    comp_rows: List[dict] = []
    for fa in decA.factors:
        if not all(kernel.contains(u) for u in fa.basis_in_B):
            comp_rows.extend(fa.basis_in_B)
    comp_red, _ = rref(F, comp_rows, A.dim)
    # pi restricted to the complement must be bijective onto Bq
    img_rows = [pi.f.apply(r) for r in comp_red]
    if span_rank(F, img_rows, Bq.dim) != Bq.dim or len(comp_red) != Bq.dim:
        raise ValueError("projection does not restrict to an isomorphism on the complement")
    entries: Dict[int, dict] = {}
    system = LinearSystem(F, img_rows, Bq.dim)
    for j in range(Bq.dim):
        sol = system.solution(system.residue(Bq.space.basis_vector(j)))
        assert sol is not None
        v: dict = {}
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


# ---------------------------------------------------------------------------
# nilpotent towers


def nilpotent_tower(pi: CurvedMorphism) -> List[CurvedMorphism]:
    """Factor a surjection with nilpotent kernel through square-zero steps.

    Returns step surjections [A -> A/I^{N-1}, ..., A/I^2 -> B] whose
    composite equals pi exactly; each step kernel squares to zero.  An
    isomorphism pi gives the empty tower; a square-zero pi gives [pi].
    """
    A, B = pi.source, pi.target
    F = A.field
    I, _ = rref(F, solve_linear(pi.f, {})[1], A.dim)
    if not I:
        return []
    powers = [I]
    cur = I
    while cur:
        nxt = []
        for u in cur:
            for v in I:
                p = A.product(u, v)
                if p:
                    nxt.append(p)
        nxt, _ = rref(F, nxt, A.dim)
        if nxt and span_rank(F, nxt, A.dim) == span_rank(F, cur, A.dim):
            w = sorted(nxt[0])[0]
            raise ValueError(
                f"kernel is not nilpotent (power stabilized; witness coordinate "
                f"{A.label(w)})"
            )
        if not nxt:
            break
        powers.append(nxt)
        cur = nxt
    # stages: A -> A/I^{N-1} -> ... -> A/I^2 -> B, where N = len(powers)+? ;
    # powers[k] = I^{k+1}, the last nonzero power is powers[-1].
    stages = [(A, identity_like_projection(A))]
    for P in reversed(powers[1:]):
        stages.append(quotient_algebra(A, P))
    steps: List[CurvedMorphism] = []
    for (Sa, _), (Sb, projb) in zip(stages, stages[1:]):
        entries = {}
        for a in range(Sa.dim):
            i = A.space.index(Sa.label(a))
            col = projb.f.apply(A.space.basis_vector(i))
            if col:
                entries[a] = col
        steps.append(CurvedMorphism(Sa, Sb, GradedMap(Sa.space, Sb.space, 0, entries), {}))
    # final step: last stage -> B via pi on representatives
    Sl = stages[-1][0]
    entries = {}
    for a in range(Sl.dim):
        i = A.space.index(Sl.label(a))
        col = pi.f.apply(A.space.basis_vector(i))
        if col:
            entries[a] = col
    steps.append(CurvedMorphism(Sl, B, GradedMap(Sl.space, B.space, 0, entries), {}))
    # verify: each step kernel squares to zero, composite = pi
    for step in steps:
        _assert_square_zero_kernel(step)
    comp = steps[0]
    for step in steps[1:]:
        from .algebra import compose_morphisms

        comp = compose_morphisms(step, comp)
    for j in range(A.dim):
        v = A.space.basis_vector(j)
        if not vec_eq(F, comp.f.apply(v), pi.f.apply(v)):
            raise AssertionError("tower composite differs from pi")
    return steps


def identity_like_projection(A: CurvedAlgebra) -> CurvedMorphism:
    from .algebra import identity_morphism

    return identity_morphism(A)


def _assert_square_zero_kernel(step: CurvedMorphism):
    A = step.source
    F = A.field
    K = solve_linear(step.f, {})[1]
    for u in K:
        for v in K:
            if not vec_is_zero(F, A.product(u, v)):
                raise AssertionError("tower step kernel does not square to zero")

"""Radicals, curved radicals, curved semisimple decomposition, sections,
and nilpotent towers for finite-dimensional curved algebras.

Radical computation: one routine for both fields, the trace-form ideal
sequence of Cohen-Ivanyos-Wales ("Finding the radical of an algebra of
linear transformations", JPAA 117-118, 1997) on the left regular
representation.  Over Q it is Dickson's criterion rad = {x : Tr(L_{xy}) = 0
for all y}; over F_p it refines that criterion by the traces of p^i-th
powers of integer lifts, for p^i <= dim.  Each step is one kernel, so no
radical is enumerated and none takes a budget.  Homogeneity of the radical
is verified, not assumed.

Curved semisimple decomposition splits 1 by the primitive idempotents of
the closed centre Z (degree 0, central, dz = 0), found by one refinement
for both fields.  Over F_p the splitters are a basis of the kernel of the
linear map z -> z^p - z on Z (Berlekamp, Bell Syst. Tech. J. 46, 1967;
Eberly-Giesbrecht, ISSAC 1996), which is the F_p-span of the primitive
idempotents; over Q they are a basis of Z, split by the CRT idempotents of
their minimal polynomials, which `polynomials.factor_over_q` factors by
Zassenhaus's algorithm.  Nothing is enumerated, so no part of the css
pipeline takes a budget.

A section of a css surjection inverts it on the annihilator of its kernel,
which is the sum of the factors the kernel misses; the source is not
decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import (
    CurvedAlgebra,
    algebra_in_basis,
    CurvedMorphism,
    compose_morphisms,
    ideal_powers,
    identity_morphism,
    twist_algebra,
    twisted_apply,
)
from .gradedlin import (
    EchelonBasis,
    GradedMap,
    GradedSpace,
    LinearSystem,
    in_span,
    rref,
    solve_linear,
    span_rank,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .polynomials import factor_over_q, poly_divmod, poly_inverse, poly_mul


# ---------------------------------------------------------------------------
# radical


def graded_radical(A: CurvedAlgebra) -> List[dict]:
    """Basis (rref rows) of the radical of the underlying graded algebra.

    The trace-form ideal sequence of Cohen-Ivanyos-Wales on the left
    regular representation L: I_{-1} = A and, for i = 0, 1, ... while
    p^i <= dim A,

        I_i = {x in I_{i-1} : g_i(xy) = 0 for every basis vector y},
        g_i(x) = (Tr(L~_x^(p^i)) mod p^(i+1)) / p^i,

    where L~_x is the integer lift (entries 0..p-1) of the matrix of L_x.
    The last I_i is the radical.  Step 0 is Dickson's trace form
    g_0(x) = Tr(L_x), which is the radical in characteristic 0, so over Q
    the sequence stops there.  Each g_i is linear on the ideal I_{i-1}, so
    it is evaluated once per echelon row of I_{i-1} and extended to the
    products xy by their coordinates; each step is one kernel.
    """
    F, n = A.field, A.dim
    rows = [A.space.basis_vector(i) for i in range(n)]
    i = 0
    while rows and (i == 0 or F.is_prime_field and F.characteristic**i <= n):
        rows = _trace_form_step(A, rows, i)
        i += 1
    _assert_homogeneous(A, rows)
    return rows


def _trace_form_step(A: CurvedAlgebra, rows: List[dict], i: int) -> List[dict]:
    """I_i from the echelon rows of I_{i-1} (see `graded_radical`).

    Column y of L_r is r e_y.  A vector v of I_{i-1} is the sum of v[c] times
    the row with pivot c, so g_i(v) is the sum of v[c] g_i(row c).  The
    unknowns of the kernel are the coefficients of x over the rows, and its
    equation y reads g_i(x e_y) = 0.
    """
    F, n = A.field, A.dim
    units = [A.space.basis_vector(y) for y in range(n)]
    regular = [[A.product(r, e) for e in units] for r in rows]
    if i == 0:
        traces = []
        for L in regular:
            t = F.zero()
            for y, col in enumerate(L):
                t = F.add(t, col.get(y, F.zero()))
            traces.append(t)
    else:
        traces = [_lifted_trace_form(F.characteristic, L, i) for L in regular]
    g = {min(r): t for r, t in zip(rows, traces) if not F.is_zero(t)}
    columns = []
    for L in regular:
        col = {}
        for y, v in enumerate(L):
            t = F.zero()
            for c, x in v.items():
                if c in g:
                    t = F.add(t, F.mul(x, g[c]))
            if not F.is_zero(t):
                col[y] = t
        columns.append(col)
    out = []
    for k in LinearSystem(F, columns, n).kernel:
        v: dict = {}
        for a, c in k.items():
            F.add_scaled(v, c, rows[a])
        out.append(v)
    return EchelonBasis(F, n, out).rows()


def _lifted_trace_form(p: int, L: List[dict], i: int) -> int:
    """g_i of the matrix with columns L over F_p, i >= 1.

    The power is taken as i repeated p-th powers of the lift, with sparse
    integer columns reduced mod p^(i+1).  Tr(M~^(p^i)) mod p^(i+1) depends
    only on M mod p; on I_{i-1} it is divisible by p^i, and a remainder is
    an internal error.
    """
    q = p ** (i + 1)
    P = {j: col for j, col in enumerate(L) if col}
    for _ in range(i):
        base = P
        for _ in range(p - 1):
            P = _matmul(P, base, q)
    t = sum(col.get(j, 0) for j, col in P.items()) % q
    if t % p**i:
        raise AssertionError("trace form is not divisible by p^i (internal error)")
    return t // p**i


def _matmul(X: Dict[int, dict], Y: Dict[int, dict], q: int) -> Dict[int, dict]:
    """X Y mod q for sparse integer matrices given by their nonzero columns."""
    out = {}
    for j, ycol in Y.items():
        acc: Dict[int, int] = {}
        for k, c in ycol.items():
            xcol = X.get(k)
            if xcol:
                for r, x in xcol.items():
                    acc[r] = acc.get(r, 0) + c * x
        col = {r: s % q for r, s in acc.items() if s % q}
        if col:
            out[j] = col
    return out


def _assert_homogeneous(A: CurvedAlgebra, rows: List[dict]):
    """The radical of a Z-graded algebra is graded; a failure is a bug."""
    F = A.field
    homog = []
    for r in rows:
        bydeg: Dict[int, dict] = {}
        for i, c in r.items():
            bydeg.setdefault(A.degree(i), {})[i] = c
        homog.extend(bydeg.values())
    r1 = len(rows)  # echelon rows: their number is the rank
    r2 = span_rank(F, homog, A.dim)
    assert r1 == r2, "computed radical is not homogeneous (internal error)"


# ---------------------------------------------------------------------------
# curved radicals and the css quotient


def internal_curved_radical(A: CurvedAlgebra, radical=None) -> List[dict]:
    """J_- = {x in J : dx in J}; closed under d, hence a curved ideal."""
    F = A.field
    J = graded_radical(A) if radical is None else radical
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
    pos = {i: a for a, i in enumerate(keep)}

    def project(v: dict) -> dict:
        return {pos[i]: c for i, c in ideal.reduce(v).items()}

    space = GradedSpace.make([(A.label(i), A.degree(i)) for i in keep], F)
    basis = [A.space.basis_vector(i) for i in keep]
    B = algebra_in_basis(A, space, basis, project, A.unit, A.h)
    proj_entries = {}
    for i in range(A.dim):
        col = project(A.space.basis_vector(i))
        if col:
            proj_entries[i] = col
    pi = CurvedMorphism(A, B, GradedMap(A.space, B.space, 0, proj_entries), {})
    return B, pi


def css_quotient(A: CurvedAlgebra):
    """A / J_-: curved semisimple quotient with its projection."""
    Jm = internal_curved_radical(A)
    B, pi = quotient_algebra(A, Jm)
    # re-check Prop-style characterization: internal curved radical vanishes
    if internal_curved_radical(B):
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


def _verify_type2_form(W: CurvedAlgebra, J: List[dict]):
    """W is S (x) K: the radical J is S.x for the dx = 1 element, d kills
    the complement S = dJ, and d: J -> S is a bimodule isomorphism.  Returns
    (S basis rows, x) or raises."""
    F = W.field
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


def _primitive_central_idempotents(B: CurvedAlgebra) -> List[dict]:
    """The primitive idempotents of the closed centre Z of B, sorted.

    One refinement for both fields: blocks = [1], and every splitter splits
    every block once.  Over F_p the splitters are a kernel basis of the
    linear map z -> z^p - z on Z, whose kernel is the F_p-span of the
    primitive idempotents; two primitives in one block would take the same
    value on every splitter, so after the last one each block is primitive.
    Over Q the splitters are the basis of Z.  A piece of a block under one
    splitter has a prime-power minimal polynomial under every earlier one,
    so a single pass reaches the fixpoint of repeated splitting.
    """
    F = B.field
    deg0 = B.degree_indices(0)
    center = []
    for k in _closed_center(B):
        z: dict = {}
        for a, c in k.items():
            F.add_scaled(z, c, B.space.basis_vector(deg0[a]))
        center.append(z)
    if F.is_prime_field:
        splitters, split = _berlekamp_splitters(B, center), _split_by_eigenvalues
    else:
        splitters, split = center, _split_by_minimal_polynomial
    blocks = [dict(B.unit)]
    for b in splitters:
        blocks = [piece for e in blocks for piece in split(B, e, b)]
    blocks = [e for e in blocks if e]
    if F.is_prime_field:
        blocks = [_from_center_coordinates(F, e, center) for e in blocks]
    return sorted(blocks, key=lambda v: sorted(v.items(), key=str))


def _berlekamp_splitters(B: CurvedAlgebra, center: List[dict]) -> List[dict]:
    """A basis of {z in Z : z^p = z}, from the basis `center` of Z."""
    F = B.field
    columns = []
    for z in center:
        w = z
        for _ in range(F.characteristic - 1):
            w = B.product(w, z)
        F.add_scaled(w, -1, z)
        columns.append(w)
    out = []
    for k in LinearSystem(F, columns, B.dim).kernel:
        b: dict = {}
        for a, c in k.items():
            F.add_scaled(b, c, center[a])
        out.append(b)
    return out


def _split_by_eigenvalues(B: CurvedAlgebra, e: dict, b: dict) -> List[dict]:
    """The nonzero e - e (b - lam)^(p-1), lam = 0 .. p-1, for b^p = b in Z.

    With b = sum_i lam_i e_i over the primitive idempotents, (b - lam)^(p-1)
    is the sum of the e_i with lam_i != lam, so the piece for lam is the sum
    of the e_i below e with lam_i = lam."""
    F = B.field
    p = F.characteristic
    pieces = []
    for lam in range(p):
        shifted = dict(b)
        F.add_scaled(shifted, -lam, B.unit)
        w = e
        for _ in range(p - 1):
            w = B.product(w, shifted)
        piece = dict(e)
        F.add_scaled(piece, -1, w)
        if piece:
            pieces.append(piece)
    return pieces


def _from_center_coordinates(F, e: dict, center: List[dict]) -> dict:
    """e in Z rebuilt as the sum of its coordinates times `center`, added in
    order.  A kernel vector of `LinearSystem` is 1 at its free variable,
    listed first, and 0 at the other free variables, so the coordinate on
    center[t] is the entry of e at the first key of center[t]."""
    out: dict = {}
    for z in center:
        F.add_scaled(out, e.get(next(iter(z)), 0), z)
    return out


def _split_by_minimal_polynomial(B: CurvedAlgebra, e: dict, z: dict) -> List[dict]:
    """Over Q: the CRT idempotents of the coprime prime-power factors of the
    minimal polynomial of ez in eBe, or [e] when it is a prime power.  A
    block whose centre is a field extension of Q is not split: its factor
    is simple over Q.

    The factors come from `factor_over_q`.  The idempotent of q^m is the
    one polynomial v rest of degree below that of the minimal polynomial
    with v rest = 1 mod q^m and rest the cofactor of q^m; it is evaluated at
    ez by Horner's rule from its leading coefficient.  A common factor of
    q^m and rest, or a piece that is not idempotent, is an internal error.
    """
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
    # solve nxt = sum c_a pows[a]; the minimal polynomial is lam^n - sum c_a lam^a
    system = LinearSystem(F, pows, B.dim)
    sol = system.solution(system.residue(nxt))
    assert sol is not None
    minpoly = [-sol.get(a, 0) for a in range(len(pows))] + [Fraction(1)]
    factors = factor_over_q(minpoly)
    if len(factors) < 2:
        return [e]
    pieces = []
    for q, m in factors:
        qm = [1]
        for _ in range(m):
            qm = poly_mul(qm, q)
        rest = poly_divmod(minpoly, qm)[0]
        piece: dict = {}
        for c in reversed(poly_mul(poly_inverse(rest, qm), rest)):
            piece = B.product(piece, w)
            if c:
                F.add_scaled(piece, Fraction(c), e)
        pieces.append(piece)
    if not all(x and vec_eq(F, B.product(x, x), x) for x in pieces):
        raise AssertionError("a CRT piece of the minimal polynomial is not idempotent (internal error)")
    return pieces


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

    space = GradedSpace.make(
        [(f"{tag}{a}", B.space.element_degree(r)) for a, r in enumerate(basis_rows)], F
    )
    R = algebra_in_basis(B, space, basis_rows, to_coords, z, B.product(z, B.h))
    return R, basis_rows


def _solve_inner_derivation(R: CurvedAlgebra) -> Optional[dict]:
    """Find b in R^1 with d = [b, -]; None if no solution."""
    F, n = R.field, R.dim
    idx1 = R.degree_indices(1)
    # row i * n + k of the system is coordinate k of the image of e_i;
    # column j holds [e_j, e_i] = D_{e_j -> e_j}(e_i) - de_i over all i
    cols = []
    for j in idx1:
        ej = R.space.basis_vector(j)
        col = {}
        for i in range(n):
            ei = R.space.basis_vector(i)
            for k, c in vec_sub(F, twisted_apply(R, ej, ej, ei), R.d.apply(ei)).items():
                col[i * n + k] = c
        cols.append(col)
    rhs = {i * n + k: c for i in range(n) for k, c in R.d.apply(R.space.basis_vector(i)).items()}
    system = LinearSystem(F, cols, n * n)
    sol = system.solution(system.residue(rhs))
    if sol is None:
        return None
    return {idx1[a]: c for a, c in sol.items()}


def css_decompose(B: CurvedAlgebra) -> CurvedDecomposition:
    """Decompose a curved semisimple algebra into type (1)/(2) curved simples.

    The factors are cut by the sorted primitive idempotents of the closed
    centre: the Berlekamp split over F_p, the minimal-polynomial split over
    Q.  A twist keeps the multiplication, so the radical of a factor is that
    of its normal form and is passed down, not recomputed.
    """
    F = B.field
    J = graded_radical(B)
    Jm = internal_curved_radical(B, radical=J)
    if Jm:
        raise ValueError("algebra is not curved semisimple (internal curved radical nonzero)")
    prims = _primitive_central_idempotents(B)
    total: dict = {}
    for z in prims:
        total = vec_add(F, total, z)
    if not vec_eq(F, total, B.unit):
        raise ValueError(
            "central curved idempotents do not split the algebra "
            "(unsplit simple factor marker)"
        )
    factors = []
    for fi, z in enumerate(prims):
        R, basis_in_B = _corner_algebra(B, z, tag=f"c{fi}_")
        JR = graded_radical(R)
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
            # N has R's (zero) radical and d = 0, so it is graded simple iff
            # its centre has a single primitive idempotent
            if len(_primitive_central_idempotents(N)) != 1:
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
            S_rows, xw = _verify_type2_form(W, JR)
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


def css_section(pi: CurvedMorphism) -> CurvedMorphism:
    """Section of a surjection of curved semisimple algebras.

    The d-closed two-sided ideals of a css algebra are the sums of its
    curved simple factors, and every factor is unital.  So the kernel K of
    pi must be such an ideal, and then the complementary factors are its
    annihilator {a : a k = 0 for every k in K}, one kernel; no decomposition
    of the source is made.  The section is the inverse of pi restricted to
    them.  The returned morphism is multiplicative and d-compatible; it is
    unital onto the complementary central idempotent (not onto 1_A unless
    the kernel is 0).
    """
    A, Bq = pi.source, pi.target
    F, n = A.field, A.dim
    if internal_curved_radical(A) or internal_curved_radical(Bq):
        raise ValueError("css_section requires curved semisimple source and target")
    not_iso = "projection does not restrict to an isomorphism on the complement"
    K = solve_linear(pi.f, {})[1]
    kernel = EchelonBasis(F, n, K)
    units = [A.space.basis_vector(i) for i in range(n)]
    left = [[A.product(e, k) for k in K] for e in units]  # left[j][t] = e_j k_t
    if not (
        all(kernel.contains(v) for row in left for v in row)
        and all(kernel.contains(A.product(k, e)) for k in K for e in units)
        and all(kernel.contains(A.d.apply(k)) for k in K)
    ):
        raise ValueError(not_iso)
    # row t * n + i of the annihilator's system is coordinate i of a k_t
    columns = [{t * n + i: c for t, v in enumerate(row) for i, c in v.items()} for row in left]
    comp_red, _ = rref(F, LinearSystem(F, columns, n * len(K)).kernel, n)
    # pi restricted to the complement must be bijective onto Bq
    img_rows = [pi.f.apply(r) for r in comp_red]
    if span_rank(F, img_rows, Bq.dim) != Bq.dim or len(comp_red) != Bq.dim:
        raise ValueError(not_iso)
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
    powers, stable = ideal_powers(A, solve_linear(pi.f, {})[1])
    if stable:
        raise ValueError(
            f"kernel is not nilpotent (power stabilized; witness coordinate "
            f"{A.label(min(stable[0]))})"
        )
    if not powers:
        return []
    # stages: A -> A/I^{N-1} -> ... -> A/I^2 -> B, where N = len(powers)+? ;
    # powers[k] = I^{k+1}, the last nonzero power is powers[-1].
    stages = [(A, identity_morphism(A))]
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
        comp = compose_morphisms(step, comp)
    for j in range(A.dim):
        v = A.space.basis_vector(j)
        if not vec_eq(F, comp.f.apply(v), pi.f.apply(v)):
            raise AssertionError("tower composite differs from pi")
    return steps


def _assert_square_zero_kernel(step: CurvedMorphism):
    A = step.source
    F = A.field
    K = solve_linear(step.f, {})[1]
    for u in K:
        for v in K:
            if not vec_is_zero(F, A.product(u, v)):
                raise AssertionError("tower step kernel does not square to zero")

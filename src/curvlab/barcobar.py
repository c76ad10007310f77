"""Truncated cobar constructions, truncated dual bar constructions, the
morphism sets Hom(Omega C, A) realized as Maurer-Cartan sets of convolution
algebras, and set-level adjunction counting.

The cobar of a coalgebra C with distinguished element w (a basis vector with
eps(w) = 1; grouplikeness is not required) is the tensor algebra on the
desuspension of ker(eps), with, on a generator c~ = sigma^{-1}(c - eps(c) w):

    d(c~) = -h_C(c) 1 - sigma^{-1}(proj d_C c) - sum (-1)^{|c1|} c1~ c2~

over the reduced comultiplication, and curvature element

    h_Omega = -h_C(w) 1 - sigma^{-1}(proj d_C w) - sum (-1)^{|w1|} w1~ w2~

over (proj @ proj) Delta(w).  With these formulas, curved algebra morphisms
from the cobar to A correspond exactly to MC elements of Hom(C, A).
Word-length truncation is a dg quotient when h_C vanishes on ker(eps)
(materialization refuses otherwise; the MC-side description always works).

The dual bar construction of A with a chosen splitting is the cobar of A*
at the splitting functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, List, Optional, Tuple

from .algebra import CurvedAlgebra, ideal_powers, mc_enumerate, tensor_index, twisted_apply
from .budget import default_budget
from .coalgebra import CurvedCoalgebra, coradical, dualize_algebra, dualize_coalgebra
from .convolution import ConvolutionAlgebra, convolution_algebra
from .fields import PrimeFieldRequired
from .gradedlin import (
    BudgetExceeded,
    LinearSystem,
    enumerate_affine,
    in_span,
    rref,
    span_rank,
    vec_is_zero,
    vec_key,
    vec_scale,
)
from .presented import Arrow, PresentedCurvedAlgebra
from .semisimple import graded_radical


# ---------------------------------------------------------------------------
# coradical filtration and staged MC enumeration in convolution algebras


def coradical_filtration_stages(C: CurvedCoalgebra) -> Optional[List[int]]:
    """Stage of each basis vector in the coradical filtration, or None when
    the basis is not filtration-aligned (callers then fall back to brute force).
    """
    F = C.field
    cor = coradical(C)
    stage: Dict[int, int] = {}  # the basis vectors placed so far
    cur_rows = [dict(r) for r in cor]
    # stage 0: basis vectors inside the coradical
    for i in range(C.dim):
        if in_span(F, cur_rows, C.space.basis_vector(i), C.dim):
            stage[i] = 0
    k = 0
    while len(stage) < C.dim:
        k += 1
        if k > C.dim + 1:
            return None
        # F_k = Delta^{-1}(F_{k-1} (x) C + C (x) F_0): test basis vectors
        newly = []
        for i in range(C.dim):
            if i in stage:
                continue
            ok = True
            for (a, b), c in C.comult.get(i, {}).items():
                if F.is_zero(c):
                    continue
                a_low = a in stage and stage[a] <= k - 1
                b_zero = stage.get(b) == 0
                if not (a_low or b_zero):
                    ok = False
                    break
            if ok:
                newly.append(i)
        if not newly:
            return None
        for i in newly:
            stage[i] = k
    # per-term stage bound (guaranteed for basis-aligned filtrations; the
    # staged solver depends on it, so verify rather than trust)
    for i in range(C.dim):
        for (a, b), c in C.comult.get(i, {}).items():
            if not F.is_zero(c) and stage[a] + stage[b] > stage[i]:
                return None
    return [stage[i] for i in range(C.dim)]


def mc_hom_enumerate(
    C: CurvedCoalgebra, A: CurvedAlgebra, budget: Optional[int] = None
) -> List[dict]:
    """All MC elements of Hom(C, A) over F_p (`mc_convolution_enumerate`)."""
    return mc_convolution_enumerate(convolution_algebra(C, A), budget)


def mc_convolution_enumerate(conv: ConvolutionAlgebra, budget: Optional[int] = None) -> List[dict]:
    """All MC elements of the convolution algebra conv = Hom(C, A) over F_p.

    Solves stage by stage along the coradical filtration of C.  Stage 0 is
    Hom(C_0, A), and C_0 splits into the blocks that Delta and d_C join:
    the residual rows of a block read only its own coordinates, so each
    block's p^(its degree-1 coordinates) points are enumerated once and
    stage 0 is the product of the points kept.  Higher stages are affine
    linear algebra over each partial solution.  Falls back to plain
    enumeration when the filtration is not basis-aligned or d_C does not
    respect it.  Deterministic output order (sorted by `vec_key`).

    Stage 0 refuses, before any point, when the points of the blocks number
    more than the budget (required = sum over blocks of p^n_b), and again,
    before the product, when the product of the kept sets does (required =
    prod over blocks of |MC_b|).
    """
    C, A, E = conv.C, conv.A, conv.algebra
    F = A.field
    if not F.is_prime_field:
        raise PrimeFieldRequired("MC enumeration requires a prime field")
    budget = default_budget() if budget is None else budget
    stages = coradical_filtration_stages(C)
    deg1 = E.degree_indices(1)
    if stages is None:
        return mc_enumerate(E, budget=budget)
    # check d_C respects stages (else brute force)
    for j in range(C.dim):
        for i, c in C.d.entries.get(j, {}).items():
            if not F.is_zero(c) and stages[i] > stages[j]:
                return mc_enumerate(E, budget=budget)
    # the stage of each coordinate c @ a is the stage of c
    coord_stage = {
        tensor_index(ci, ai, A.dim): stages[ci] for ci in range(C.dim) for ai in range(A.dim)
    }
    maxstage = max([0] + stages)
    stage_vars = {s: [k for k in deg1 if coord_stage[k] == s] for s in range(maxstage + 1)}

    def stage_rows(v, upto_stage):
        return {k: c for k, c in v.items() if coord_stage[k] <= upto_stage}

    def residual_rows(X, upto_stage):
        return stage_rows(E.mc_residual(X), upto_stage)

    # stage 0 by blocks: join c to the support of Delta(c) and of d_C(c),
    # which the stage checks above keep inside stage 0
    s0 = [ci for ci in range(C.dim) if stages[ci] == 0]
    linked: Dict[int, set] = {ci: set() for ci in s0}
    for ci in s0:
        for j in set(F.nonzero(C.d.entries.get(ci, {}))).union(*F.nonzero(C.comult.get(ci, {}))):
            linked[ci].add(j)
            linked[j].add(ci)
    block: Dict[int, int] = {}
    nblocks = 0
    for ci in s0:
        if ci in block:
            continue
        todo = [ci]
        while todo:
            j = todo.pop()
            if j not in block:
                block[j] = nblocks
                todo.extend(linked[j])
        nblocks += 1
    coord_block = {
        tensor_index(ci, ai, A.dim): b for ci, b in block.items() for ai in range(A.dim)
    }
    block_vars = [[k for k in stage_vars[0] if coord_block[k] == b] for b in range(nblocks)]
    p = F.characteristic
    required = sum(p ** len(vs) for vs in block_vars)
    if required > budget:
        raise BudgetExceeded(required, budget)
    kept = [
        [
            X
            for X in enumerate_affine(F, {}, [E.space.basis_vector(k) for k in vs], budget)
            if not any(coord_block.get(k) == b for k in E.mc_residual(X))
        ]
        for b, vs in enumerate(block_vars)
    ]
    required = prod(len(points) for points in kept)
    if required > budget:
        raise BudgetExceeded(required, budget)
    sols: List[dict] = []
    for points in product(*kept):
        # the coordinates in ascending order, as one enumeration of stage 0 gives them
        X = dict(sorted(kv for pt in points for kv in pt.items()))
        # solve higher stages
        partials = [X]
        for s in range(1, maxstage + 1):
            vs = stage_vars.get(s, [])
            new_partials = []
            for P in partials:
                base = residual_rows(P, s)
                # the residual is quadratic: R(P + e_k) - R(P) = d^P e_k + e_k e_k
                cols = []
                for k in vs:
                    col = twisted_apply(E, P, P, E.space.basis_vector(k))
                    F.add_scaled(col, 1, E.basis_product(k, k))
                    cols.append(stage_rows(col, s))
                system = LinearSystem(F, cols, E.dim)
                part = system.solution(system.residue(vec_scale(F, F.neg(F.one()), base)))
                if part is None:
                    continue
                ker = system.kernel
                required = p ** len(ker) * max(1, len(new_partials) + len(partials))
                if required > budget:
                    raise BudgetExceeded(required, budget)
                for pt in enumerate_affine(F, part, ker, budget):
                    Q = dict(P)
                    for a, c in F.nonzero(pt).items():
                        Q[vs[a]] = c
                    new_partials.append(Q)
            partials = new_partials
            if not partials:
                break
        for X2 in partials:
            if vec_is_zero(F, E.mc_residual(X2)):
                sols.append(F.nonzero(X2))
    # dedupe + deterministic order
    uniq = {}
    for x in sols:
        uniq[vec_key(x, E.dim)] = x
    return [uniq[k] for k in sorted(uniq)]


# ---------------------------------------------------------------------------
# cobar construction


@dataclass
class TruncatedCobar:
    C: CurvedCoalgebra
    w_index: int
    N: int
    presentation: PresentedCurvedAlgebra
    algebra: CurvedAlgebra
    gen_of_basis: Dict[int, str]  # C basis index (!= w) -> generator label


def cobar(C: CurvedCoalgebra, w_index: int, N: int) -> TruncatedCobar:
    """Word-length-N truncation of the cobar construction at the element w."""
    F = C.field
    if N < 1:
        raise ValueError("N must be >= 1")
    if not F.is_zero(F.sub(C.counit.get(w_index, F.zero()), F.one())):
        raise ValueError("w must satisfy eps(w) = 1")
    # materialization precondition: h_C vanishes on ker(eps)
    for i in range(C.dim):
        if i == w_index:
            continue
        hc = _h_of_proj(C, i, w_index)
        if not F.is_zero(hc):
            raise ValueError(
                "cobar truncation is only materialized when h_C vanishes on "
                "ker(eps); use the MC-side description of Hom(Omega C, A)"
            )
    gen_of_basis = {}
    for i in range(C.dim):
        if i == w_index:
            continue
        gen_of_basis[i] = f"g{C.label(i)}"
    # degree of sigma^{-1} c: |c| + 1
    arrows = tuple(
        Arrow(gen_of_basis[i], "*", "*", C.space.degree(i) + 1)
        for i in range(C.dim)
        if i != w_index
    )

    m1 = F.neg(F.one())
    d_on_arrows: Dict[str, dict] = {}
    for i in range(C.dim):
        if i == w_index:
            continue
        combo: dict = {}
        # -h_C(proj c) 1: vanishes by the precondition
        # -sigma^{-1}(proj d_C (proj c))
        dc = _d_of_proj(C, i, w_index)
        for j, c in dc.items():
            if j == w_index:
                continue
            key = (gen_of_basis[j],)
            combo[key] = F.add(combo.get(key, F.zero()), F.neg(c))
        # -sum (-1)^{|c1|} c1~ c2~
        for (a, b), c in _reduced_comult_of_proj(C, i, w_index).items():
            sgn = m1 if C.space.degree(a) % 2 else F.one()
            key = (gen_of_basis[a], gen_of_basis[b])
            combo[key] = F.add(combo.get(key, F.zero()), F.mul(F.neg(sgn), c))
        combo = {k: c for k, c in combo.items() if not F.is_zero(c)}
        if combo:
            d_on_arrows[gen_of_basis[i]] = combo
    # curvature: -h_C(w) 1 - sigma^{-1}(proj d_C w) - quadratic over omega
    h_combo: dict = {}
    hw = C.h.get(w_index, F.zero())
    if not F.is_zero(hw):
        h_combo[("v", "*")] = F.neg(hw)
    dw = C.d.entries.get(w_index, {})
    for j, c in dw.items():
        if j == w_index or F.is_zero(c):
            continue
        key = (gen_of_basis[j],)
        h_combo[key] = F.add(h_combo.get(key, F.zero()), F.neg(c))
    for (a, b), c in C.comult.get(w_index, {}).items():
        if a == w_index or b == w_index or F.is_zero(c):
            continue
        sgn = m1 if C.space.degree(a) % 2 else F.one()
        key = (gen_of_basis[a], gen_of_basis[b])
        h_combo[key] = F.add(h_combo.get(key, F.zero()), F.mul(F.neg(sgn), c))
    h_combo = {k: c for k, c in h_combo.items() if not F.is_zero(c)}
    pres = PresentedCurvedAlgebra(
        field=F,
        vertices=("*",),
        arrows=arrows,
        killed_monomials=(),
        truncation=N,
        d_on_arrows=d_on_arrows,
        h=h_combo,
    )
    alg = pres.materialize().algebra
    return TruncatedCobar(C, w_index, N, pres, alg, gen_of_basis)


def _h_of_proj(C, i, w):
    """h_C(c - eps(c) w)."""
    F = C.field
    return F.sub(
        C.h.get(i, F.zero()), F.mul(C.counit.get(i, F.zero()), C.h.get(w, F.zero()))
    )


def _d_of_proj(C, i, w):
    """proj-basis coefficients of d_C(c - eps(c) w): entries off w."""
    F = C.field
    out = dict(C.d.entries.get(i, {}))
    e = C.counit.get(i, F.zero())
    if not F.is_zero(e):
        for j, c in C.d.entries.get(w, {}).items():
            out[j] = F.sub(out.get(j, F.zero()), F.mul(e, c))
    return {j: c for j, c in out.items() if not F.is_zero(c)}


def _reduced_comult_of_proj(C, i, w):
    """(proj @ proj) Delta(c - eps(c) w) minus the w-cross terms, i.e. the
    reduced comultiplication of the class of c in C-bar, expressed in the
    proj-basis (pairs of indices != w).
    """
    F = C.field
    terms: Dict[Tuple[int, int], object] = {}

    def add(ab, c):
        if F.is_zero(c):
            return
        terms[ab] = F.add(terms.get(ab, F.zero()), c)

    e = C.counit.get(i, F.zero())
    for (a, b), c in C.comult.get(i, {}).items():
        add((a, b), c)
    if not F.is_zero(e):
        for (a, b), c in C.comult.get(w, {}).items():
            add((a, b), F.neg(F.mul(e, c)))
    # project both slots: drop any term with a w slot (proj kills w), but
    # first express the slots in the proj basis: slot value x contributes
    # proj(x) = x - eps(x) w; on basis vectors proj(c') has c'-coordinate 1
    # for c' != w and proj(w) = 0.  So simply drop w-indexed slots.
    return {
        (a, b): c
        for (a, b), c in terms.items()
        if a != w and b != w and not F.is_zero(c)
    }


# ---------------------------------------------------------------------------
# morphisms via MC, with generator-level conversion and truncation stability


@dataclass
class CobarMorphismData:
    xi: dict  # MC element of Hom(C, A)
    b: dict  # image of the w-direction: an MC-like degree-1 element of A
    gen_images: Dict[str, dict]  # generator label -> element of A
    truncation_stable: bool


def morphisms_via_mc(
    C: CurvedCoalgebra,
    A: CurvedAlgebra,
    w_index: int,
    N: int,
    budget: Optional[int] = None,
) -> List[CobarMorphismData]:
    """Curved algebra maps Omega C -> A as MC elements of Hom(C, A), each
    converted to generator-level data with a truncation-stability flag
    (length-(N+1) products of generator images vanish)."""
    F = A.field
    conv = convolution_algebra(C, A)
    elems = mc_convolution_enumerate(conv, budget)
    out = []
    for x in elems:
        phi = conv.element_as_map(x)
        b = dict(phi.get(w_index, {}))
        gen_images: Dict[str, dict] = {}
        for i in range(C.dim):
            if i == w_index:
                continue
            # F(g_c) = xi(proj c) = xi(c) - eps(c) xi(w)
            img = dict(phi.get(i, {}))
            e = C.counit.get(i, F.zero())
            if not F.is_zero(e):
                F.add_scaled(img, F.mul(F.neg(F.one()), e), b)  # img -= e b
            gen_images[f"g{C.label(i)}"] = img
        stable = _truncation_stable(A, list(gen_images.values()), N)
        out.append(CobarMorphismData(x, b, gen_images, stable))
    return out


def _truncation_stable(A: CurvedAlgebra, images: List[dict], N: int) -> bool:
    """Do all products of N+1 generator images vanish?  Computed by closing
    the span of length-k image products and multiplying once more."""
    F = A.field
    layer = [dict(v) for v in images if v]
    for _ in range(N):
        nxt = []
        for u in layer:
            for v in images:
                p = A.product(u, v)
                if p:
                    nxt.append(p)
        nxt, _ = rref(F, nxt, A.dim)
        layer = nxt
        if not layer:
            return True
    return not layer


# ---------------------------------------------------------------------------
# dual bar and adjunction counting


@dataclass
class TruncatedDualBar:
    A: CurvedAlgebra
    N: int
    w_index: int  # index of the splitting functional in A*
    cobar: TruncatedCobar  # cobar of A* at w


def default_splitting_index(A: CurvedAlgebra) -> int:
    """Dual-basis functional with <w, 1> = 1: first basis vector with a
    nonzero (invertible) unit coefficient, normalized below."""
    F = A.field
    for i in range(A.dim):
        c = A.unit.get(i, F.zero())
        if not F.is_zero(c):
            if not F.is_zero(F.sub(c, F.one())):
                raise ValueError(
                    "default splitting needs a basis vector with unit "
                    "coefficient 1; supply a splitting explicitly"
                )
            return i
    raise ValueError("unit has no basis support")


def bar_dual(A: CurvedAlgebra, N: int, w_index: Optional[int] = None) -> TruncatedDualBar:
    C = dualize_algebra(A)
    w = default_splitting_index(A) if w_index is None else w_index
    return TruncatedDualBar(A, N, w, cobar(C, w, N))


def conilpotency_degree(C: CurvedCoalgebra) -> Optional[int]:
    """Smallest k with rad(C*)^k = 0 when C* is local (coradical k); None
    when C is not conilpotent."""
    F = C.field
    Astar = dualize_coalgebra(C)
    rad = graded_radical(Astar)
    if span_rank(F, rad, Astar.dim) != Astar.dim - 1:
        return None
    powers, stable = ideal_powers(Astar, rad)
    return None if stable else len(powers) + 1


def adjunction_count_check(
    C: CurvedCoalgebra,
    A: CurvedAlgebra,
    w_index_C: int,
    N_max: int = 4,
    budget: Optional[int] = None,
    w_index_A: Optional[int] = None,
) -> dict:
    """Count comparison for Hom(Omega C, A) = MC Hom(C, A) = Hom(C, BA).

    The Omega side counts morphisms out of the truncated cobar of C; the
    bar side counts morphisms from the truncated dual bar of A into C*
    (equivalently coalgebra maps C -> dual of the truncation).  Morphism
    sets at generator level are in bijection with MC Hom-sets; the
    truncation-factoring subsets are reported per N with a stabilization
    flag (guaranteed complete when the relevant (co)algebra is conilpotent
    of degree <= N).
    """
    omega_data = morphisms_via_mc(C, A, w_index_C, N_max, budget=budget)
    # independent bar-side MC count: Hom(A*, C*)
    Cstar = dualize_coalgebra(C)
    Astar_coalg = dualize_algebra(A)
    wA = default_splitting_index(A) if w_index_A is None else w_index_A
    bar_data = morphisms_via_mc(Astar_coalg, Cstar, wA, N_max, budget=budget)
    # one morphism per MC element of the enumeration on each side
    mc_count, bar_mc_count = len(omega_data), len(bar_data)
    omega_counts = {}
    bar_counts = {}
    for N in range(1, N_max + 1):
        omega_counts[N] = sum(
            1 for d in omega_data if _truncation_stable(A, list(d.gen_images.values()), N)
        )
        bar_counts[N] = sum(
            1 for d in bar_data if _truncation_stable(Cstar, list(d.gen_images.values()), N)
        )
    conil_C = conilpotency_degree(C)
    conil_A = conilpotency_degree(Astar_coalg)

    def stabilized(counts):
        vals = list(counts.values())
        return len(vals) >= 2 and vals[-1] == vals[-2]

    report = {
        "mc_count": mc_count,
        "bar_mc_count": bar_mc_count,
        "sides_agree": mc_count == bar_mc_count,
        "omega_factoring_counts": omega_counts,
        "bar_factoring_counts": bar_counts,
        "omega_stabilized": stabilized(omega_counts),
        "bar_stabilized": stabilized(bar_counts),
        "conilpotency_degree_C": conil_C,
        "conilpotency_degree_dualA": conil_A,
    }
    if conil_C is not None and conil_C <= N_max:
        report["omega_factoring_complete"] = omega_counts[N_max] == mc_count
    if conil_A is not None and conil_A <= N_max:
        report["bar_factoring_complete"] = bar_counts[N_max] == bar_mc_count
    report["conclusive"] = (
        report["sides_agree"]
        and report["omega_stabilized"]
        and report["bar_stabilized"]
    )
    return report

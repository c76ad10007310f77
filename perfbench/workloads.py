"""The three workloads: their inputs, the operation run on each item, and
the checks its output must pass.

An item is one operation of the battery: one algebra's moduli set, one
algebra's css pipeline, one fibration cell, or one injection's
rectifications.  `WORKLOADS[name](seed)` yields the items, building every
input from the seed (this is set-up); `Item.compute` runs only calls into curvlab on the
inputs (this is the timed part); `Item.check` verifies the output with the
arithmetic in `oracle.py`, or against stored brute-force counts.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

import oracle
from oracle import CheckError, KnownFault, require

from curvlab.algebra import (
    CurvedAlgebra,
    direct_product,
    endomorphism_algebra,
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
)
from curvlab.barcobar import mc_hom_enumerate
from curvlab.coalgebra import dualize_algebra, dualize_coalgebra
from curvlab.convolution import convolution_algebra
from curvlab.fields import GF, QQ
from curvlab.gradedlin import GradedMap, GradedSpace
from curvlab.interval import make_interval
from curvlab.mc import find_gauge_quadruple, moduli_set
from curvlab.modelcheck import (
    endpoint_projection,
    inclusion_dual_for_subcoalgebra,
    is_fibration_mcdg,
    rectify_cofibration,
    restrict_element,
    standard_coalgebra_battery,
)
from curvlab.randgen import random_curved_algebra
from curvlab.semisimple import css_decompose, css_quotient, css_section, quotient_algebra

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS_FILE = os.path.join(HERE, "fibration_counts.json")
BUDGET = 2**17  # the enumeration budget of acceptance criterion 8


@dataclass
class Item:
    """One operation: compute(*inputs) -> output, then check(output)."""

    name: str
    inputs: Tuple[Any, ...]
    compute: Callable[..., Any]
    check: Callable[[Any], None]
    summary: Callable[[Any], Any]  # plain data compared between rounds


def key(v) -> tuple:
    return tuple(sorted(v.items()))


# ---------------------------------------------------------------------------
# seeded isomorphic copies


def permuted_algebra(A: CurvedAlgebra, order: List[int]) -> CurvedAlgebra:
    """A with its basis listed in the given order (new index a is old order[a])."""
    pos = {old: new for new, old in enumerate(order)}

    def vec(v):
        return {pos[i]: c for i, c in v.items()}

    space = GradedSpace.make([A.space.basis[o] for o in order], A.field)
    mult = {(pos[i], pos[j]): vec(col) for (i, j), col in A.mult.items()}
    d = {pos[j]: vec(col) for j, col in A.d.entries.items()}
    return CurvedAlgebra(space, vec(A.unit), mult, GradedMap(space, space, 1, d), vec(A.h))


def shuffled(rng: random.Random, A: CurvedAlgebra) -> CurvedAlgebra:
    order = list(range(A.dim))
    rng.shuffle(order)
    return permuted_algebra(A, order)


def shuffled_coalgebra(rng: random.Random, C):
    return dualize_algebra(shuffled(rng, dualize_coalgebra(C)))


# ---------------------------------------------------------------------------
# moduli: moduli_set after mc_enumerate over F_3

F3 = GF(3)

# Square-zero algebras k + V: the degree dimensions of V and the ranks of
# d: V^g -> V^(g+1).  |MC| = 3^dim Z^1 and #classes = 3^dim H^1 are fixed by
# the shape, and so is the work up to search order.
SQUARE_ZERO_SHAPES = [
    ({0: 1, 1: 4}, {}),
    ({-1: 1, 0: 1, 1: 5, 2: 1}, {0: 1, 1: 1}),
    ({0: 2, 1: 4}, {0: 2}),
    ({0: 1, 1: 3}, {}),
    ({-1: 1, 0: 1, 1: 4, 2: 1}, {-1: 1, 1: 1}),
    ({-1: 2, 0: 1, 1: 4, 2: 1}, {-1: 1, 1: 1}),
    ({-1: 1, 0: 1, 1: 5, 2: 2}, {-1: 1, 1: 2}),
    ({0: 2, 1: 4, 2: 1}, {0: 1, 1: 1}),
    ({0: 2, 1: 5, 2: 2}, {0: 1, 1: 2}),
    ({0: 2, 1: 5, 2: 2}, {0: 2, 1: 2}),
    ({-1: 1, 0: 2, 1: 4, 2: 2}, {-1: 1, 0: 1, 1: 1}),
    ({0: 1, 1: 5, 2: 2}, {0: 1, 1: 2}),
    ({0: 1, 1: 4, 2: 1}, {0: 1, 1: 1}),
    ({0: 1, 1: 3, 2: 1}, {1: 1}),
]

# End(V) for graded V: dimensions of V by degree.  Adjacent degrees give
# End(V) a degree -1 part, so gauge homotopies can be nonzero.
END_SHAPES = [
    {0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
    {0: 2, 1: 1, 3: 1},
    {0: 1, 1: 1, 2: 1, 4: 1, 5: 1},
    {0: 1, 1: 2},
    {0: 2, 1: 1},
    {0: 1, 1: 1, 2: 1, 3: 1},
    {-1: 1, 0: 1, 1: 1, 2: 1},
    {0: 1, 1: 1, 3: 1, 4: 1},
    {0: 1, 1: 1, 2: 1},
]


def block_ranks(p, V: GradedSpace, entries) -> Dict[int, int]:
    """Rank of each block V^g -> V^(g+1) of a degree-1 map on V."""
    out = {}
    for g in V.degrees_present():
        r = oracle.rank(p, [entries.get(j, {}) for j in V.indices_of_degree(g)])
        if r:
            out[g] = r
    return out


def complex_of_shape(rng: random.Random, dims, ranks):
    """A random complex over F_3 with the given degree dimensions
    and ranks r_g of d: V^g -> V^(g+1): the standard complex of that shape
    (r_g basis vectors of V^g sent onto r_g of V^(g+1)) in a random basis,
    reached by random elementary changes of basis and a shuffle."""
    for g, r in ranks.items():
        if ranks.get(g - 1, 0) + r > dims.get(g, 0) or r > dims.get(g + 1, 0):
            raise ValueError(f"no complex has dimensions {dims} and ranks {ranks}")
    basis = [(g, i) for g in sorted(dims) for i in range(dims[g])]
    d = {}  # (g, i) -> {(g + 1, k): c}
    for g in sorted(dims):
        below = ranks.get(g - 1, 0)
        for k in range(ranks.get(g, 0)):
            d[(g, below + k)] = {(g + 1, k): 1}
    for _ in range(4 * len(basis)):
        # v_j -> v_j + c v_i: rows i += c row j, then column j -= c column i
        g = rng.choice(basis)[0]
        if dims[g] < 2:
            continue
        i, j = rng.sample(range(dims[g]), 2)
        c = rng.choice((1, 2))
        for col in d.values():
            if (g, j) in col:
                col[(g, i)] = (col.get((g, i), 0) + c * col[(g, j)]) % 3
        ci = d.get((g, i), {})
        cj = d.setdefault((g, j), {})
        for r, x in ci.items():
            cj[r] = (cj.get(r, 0) - c * x) % 3
        for col in d.values():
            for r in [r for r, x in col.items() if not x]:
                del col[r]
    rng.shuffle(basis)
    pos = {b: n for n, b in enumerate(basis)}
    V = GradedSpace.make([(f"v{n}", g) for n, (g, _) in enumerate(basis)], F3)
    entries = {pos[b]: {pos[r]: x for r, x in col.items()} for b, col in d.items() if col}
    return V, GradedMap(V, V, 1, entries)


def graded_space(rng: random.Random, dims) -> GradedSpace:
    basis = [(f"v{g}_{i}", g) for g in sorted(dims) for i in range(dims[g])]
    rng.shuffle(basis)
    return GradedSpace.make(basis, F3)


def compute_moduli(A):
    mc = mc_enumerate(A)
    return mc, moduli_set(A, mc=mc)


def moduli_summary(out):
    mc, classes = out
    return [key(x) for x in mc], [[key(x) for x in c] for c in classes]


def check_partition(mc_own, mc, classes):
    """mc is the MC set computed here, and the classes partition it."""
    require(len(mc) == len(mc_own), f"|MC| = {len(mc)}, expected {len(mc_own)}")
    require({key(x) for x in mc} == {key(x) for x in mc_own}, "MC set differs")
    members = [key(x) for c in classes for x in c]
    require(all(classes), "empty class")
    require(len(members) == len(set(members)), "an MC element lies in two classes")
    require(set(members) == {key(x) for x in mc}, "the classes do not cover MC")


def own_mc_set(A):
    """Every degree-1 element with h + dx + x^2 = 0, by enumeration here."""
    p, idx = oracle.char(A), A.space.indices_of_degree(1)
    out = []
    for v in oracle.elements(p, len(idx)):
        x = {idx[a]: c for a, c in v.items()}
        if not oracle.mc_residual(A, x):
            out.append(x)
    return out


def check_square_zero(A, out):
    """|MC(k+V)| = p^dim Z^1, and x ~ y iff y - x is a coboundary, so the
    classes are the p^dim H^1 cosets of B^1 in Z^1."""
    mc, classes = out
    p, dim1 = oracle.char(A), len(A.space.indices_of_degree(1))
    z1 = dim1 - oracle.rank(p, [A.d.entries.get(j, {}) for j in A.space.indices_of_degree(1)])
    b1 = oracle.rank(p, [A.d.entries.get(j, {}) for j in A.space.indices_of_degree(0)])
    check_partition(own_mc_set(A), mc, classes)
    require(len(mc) == p**z1, f"|MC| = {len(mc)}, expected {p}^{z1}")
    require(len(classes) == p ** (z1 - b1), f"{len(classes)} classes, expected {p}^{z1 - b1}")
    # each class lies in one coset; with the count and the cover above, no
    # two classes share a coset
    coboundaries = oracle.Span(p, [A.d.entries.get(j, {}) for j in A.space.indices_of_degree(0)])
    for c in classes:
        for x in c[1:]:
            require(coboundaries.contains(oracle.sub(p, x, c[0])), "a class mixes cohomology classes")


def rank_sequence(V: GradedSpace, x) -> tuple:
    """Ranks of the blocks V^g -> V^(g+1) of x in End(V) (E[i,j]: v_j -> v_i)."""
    n, cols = V.dim, {}
    for k, c in x.items():
        i, j = divmod(k, n)
        cols.setdefault(j, {})[i] = c
    return tuple(sorted(block_ranks(F3.characteristic, V, cols).items()))


def admissible_rank_sequences(dims) -> int:
    """Rank sequences r_g of complexes on V: r_(g-1) + r_g <= dim V^g."""
    degs = sorted(dims)
    count = 0

    def extend(g_idx, prev):
        nonlocal count
        if g_idx == len(degs):
            count += 1
            return
        g = degs[g_idx]
        top = min(dims[g] - prev, dims.get(g + 1, 0))
        for r in range(top + 1):
            extend(g_idx + 1, r)

    extend(0, 0)
    return count


def check_end(V, A, out):
    """A complex on V is determined up to isomorphism by its ranks: the
    classes are the admissible rank sequences, one each."""
    mc, classes = out
    check_partition(own_mc_set(A), mc, classes)
    dims = {g: V.dim_in_degree(g) for g in V.degrees_present()}
    expected = admissible_rank_sequences(dims)
    require(len(classes) == expected, f"{len(classes)} classes, expected {expected}")
    seqs = []
    for c in classes:
        s = {rank_sequence(V, x) for x in c}
        require(len(s) == 1, "a class mixes rank sequences")
        seqs.append(s.pop())
    require(len(set(seqs)) == len(seqs), "two classes share a rank sequence")


def moduli_items(seed: int) -> Iterator[Item]:
    rng = random.Random(seed)
    for n, (dims, ranks) in enumerate(SQUARE_ZERO_SHAPES):
        V, d = complex_of_shape(rng, dims, ranks)
        A = square_zero_algebra(V, d)
        yield Item(f"k+V#{n}", (A,), compute_moduli,
                   lambda out, A=A: check_square_zero(A, out), moduli_summary)
    for n, dims in enumerate(END_SHAPES):
        V = graded_space(rng, dims)
        A = endomorphism_algebra(V)
        yield Item(f"End(V)#{n}", (A,), compute_moduli,
                   lambda out, V=V, A=A: check_end(V, A, out), moduli_summary)


# ---------------------------------------------------------------------------
# radical: css_quotient, css_decompose and css_section (criterion-5 pipeline)

RADICAL_POOL_SEED = 53  # the draws of acceptance criterion 5
RADICAL_F2_ITEMS = 50
RADICAL_QQ_ITEMS = 20


def compute_css(A):
    B, pi, Jm = css_quotient(A)
    dec = css_decompose(B)
    sections = []
    if len(dec.factors) >= 2:
        # the projection onto the product of all factors but the last
        R, pi2 = quotient_algebra(B, dec.factors[-1].basis_in_B, tag="p")
        sections.append((pi2, css_section(pi2)))
    return A, B, pi, Jm, dec, sections


def css_summary(out):
    A, B, pi, Jm, dec, sections = out
    return (
        [key(r) for r in Jm],
        sorted((k, key(c)) for k, c in B.mult.items()),
        [key(r) for r in dec.radical],
        [(f.kind, key(f.idempotent), [key(r) for r in f.basis_in_B]) for f in dec.factors],
        [sorted((j, key(c)) for j, c in s.f.entries.items()) for _, s in sections],
    )


def check_radical(B, J):
    """J is a nilpotent two-sided ideal of B, and maximal: over F_p every
    coset of J other than J itself has a witness a with a*x not nilpotent;
    over Q its dimension is that of the Dickson trace-form radical."""
    p = oracle.char(B)
    require(oracle.is_two_sided_ideal(B, J), "the radical is not a two-sided ideal")
    require(oracle.ideal_is_nilpotent(B, J), "the radical is not nilpotent")
    span = oracle.Span(p, J)
    if not p:
        require(len(span) == oracle.dickson_radical_dim(B), "the radical is not the trace-form radical")
        return
    free = [i for i in range(B.space.dim) if i not in span.rows]
    for v in oracle.elements(p, len(free)):
        if v:
            x = {free[a]: c for a, c in v.items()}
            require(oracle.radical_witness(B, x) is not None, "a radical element is missing from the radical")


def check_css(out):
    A, B, pi, Jm, dec, sections = out
    p, n = oracle.char(A), A.space.dim
    one = oracle.norm(p, 1)
    # pi: A -> B is onto with kernel span(Jm), a d-closed ideal
    require(oracle.image_rank(p, pi.f.entries, n) == B.space.dim, "the css projection is not onto")
    ker = oracle.kernel(p, [pi.f.entries.get(j, {}) for j in range(n)], n)
    require(oracle.rank(p, ker) == oracle.rank(p, Jm) == oracle.rank(p, ker + list(Jm)), "the css projection does not kill exactly J_-")
    require(oracle.is_two_sided_ideal(A, Jm) and oracle.ideal_is_nilpotent(A, Jm), "J_- is not a nilpotent ideal")
    require(all(oracle.Span(p, Jm).contains(oracle.d(A, r)) for r in Jm), "J_- is not closed under d")
    # the radical of B, and the internal curved radical {x in J : dx in J} = 0
    J = dec.radical
    check_radical(B, J)
    span = oracle.Span(p, J)
    cols = [span.reduce(oracle.d(B, r)) for r in J]
    require(not oracle.kernel(p, cols, len(J)), "the quotient has a nonzero internal curved radical")
    # the factors reassemble B
    zs = [oracle.clean(p, f.idempotent) for f in dec.factors]
    total = {}
    for z in zs:
        total = oracle.axpy(p, one, z, total)
    require(oracle.same(p, total, B.unit), "the factor idempotents do not sum to 1")
    for a, z in enumerate(zs):
        require(oracle.same(p, oracle.mul(B, z, z), z) and not oracle.d(B, z), "a factor idempotent is not a d-closed idempotent")
        for j in range(B.space.dim):
            e = oracle.basis_vector(j, p)
            require(oracle.same(p, oracle.mul(B, z, e), oracle.mul(B, e, z)), "a factor idempotent is not central")
        for b, w in enumerate(zs):
            require(a == b or not oracle.mul(B, z, w), "factor idempotents are not orthogonal")
    require(sum(len(f.basis_in_B) for f in dec.factors) == B.space.dim, "the factors do not span B")
    require(oracle.rank(p, [r for f in dec.factors for r in f.basis_in_B]) == B.space.dim, "the factors do not span B")
    for f, z in zip(dec.factors, zs):
        require(all(oracle.same(p, oracle.mul(B, z, r), r) for r in f.basis_in_B), "a factor leaves its corner")
        require(not oracle.clean(p, f.normal_form.h), "a normal form is curved")
        require(f.kind != "type1" or not any(f.normal_form.d.entries.values()), "a type-1 normal form has d != 0")
    # sections compose with their projections to the identity, multiplicatively
    for pi2, sec in sections:
        R = pi2.target
        for j in range(R.space.dim):
            e = oracle.basis_vector(j, p)
            require(oracle.same(p, oracle.apply_map(p, pi2.f.entries, oracle.apply_map(p, sec.f.entries, e)), e), "pi . section != id")
            for k in range(R.space.dim):
                f = oracle.basis_vector(k, p)
                lhs = oracle.apply_map(p, sec.f.entries, oracle.mul(R, e, f))
                rhs = oracle.mul(B, oracle.apply_map(p, sec.f.entries, e), oracle.apply_map(p, sec.f.entries, f))
                require(oracle.same(p, lhs, rhs), "the section is not multiplicative")
    # each factor is simple: its centre of d-closed degree-0 elements is k
    # (the generator's algebras have split centres).  Over Q the rational
    # splitting leaves products unsplit (FOUND in CHANGES.md).
    for f in dec.factors:
        if oracle.central_cycles_dim(f.algebra) != 1:
            msg = "a factor is not simple: its d-closed degree-0 centre is not k"
            raise KnownFault(msg) if not p else CheckError(msg)


def radical_items(seed: int) -> Iterator[Item]:
    """F_2: the criterion-5 draws, each as a seeded isomorphic copy (basis
    order shuffled).  Q: a fixed share of the same generator's rational
    draws, the same for every seed."""
    pool = random.Random(RADICAL_POOL_SEED)
    rng = random.Random(seed)
    for n in range(RADICAL_F2_ITEMS):
        A = shuffled(rng, random_curved_algebra(pool, GF(2), maxdim=8))
        yield Item(f"F2#{n}", (A,), compute_css, check_css, css_summary)
    pool = random.Random(RADICAL_POOL_SEED)
    for n in range(RADICAL_QQ_ITEMS):
        A = random_curved_algebra(pool, QQ, maxdim=8)
        yield Item(f"QQ#{n}", (A,), compute_css, check_css, css_summary)


# ---------------------------------------------------------------------------
# fibration: is_fibration_mcdg of A @ I^3 -> A x A, and rectification


F2 = GF(2)


def small_dg_battery(F):
    """The six dg algebras of acceptance criterion 8, by name."""
    V1 = GradedSpace.make([("v", 1)], F)
    V2 = GradedSpace.make([("h", 0), ("x", 1)], F)
    V3 = GradedSpace.make([("a", 1), ("b", 1)], F)
    return [
        ("k", ground_algebra(F)),
        ("k x k", direct_product(ground_algebra(F), ground_algebra(F))),
        ("k + k<1>", square_zero_algebra(V1, GradedMap(V1, V1, 1, {}))),
        ("k + acyclic(0,1)", square_zero_algebra(V2, GradedMap(V2, V2, 1, {0: {1: F.one()}}))),
        ("k + k<1>^2", square_zero_algebra(V3, GradedMap(V3, V3, 1, {}))),
        ("I^1", make_interval(F, 1).algebra),
    ]


def load_counts():
    with open(COUNTS_FILE) as fh:
        return {(c["algebra"], c["coalgebra"]): c for c in json.load(fh)["cells"]}


def compute_fibration(C, g):
    return is_fibration_mcdg(C, g, budget=BUDGET)


def check_fibration(counts, out):
    """Every verdict is true; |MC Hom(C, A x A)| = |MC Hom(C, A)|^2; and
    |MC Hom(C, A @ I^3)| is the stored brute-force count where there is one."""
    require(out.get("verdict") is True and out.get("hom_surjective") is True, f"verdict {out.get('verdict')!r}")
    nx, ny = out["mc_counts"]
    require(ny == counts["mc_hom_A"] ** 2, f"|MC Hom(C, AxA)| = {ny}, expected {counts['mc_hom_A']}^2")
    if counts["mc_hom_AI3"] is not None:
        require(nx == counts["mc_hom_AI3"], f"|MC Hom(C, A@I^3)| = {nx}, expected {counts['mc_hom_AI3']}")
    require(out["pairs_checked"] >= nx, "fewer pairs checked than MC elements")


def fibration_summary(out):
    return json.dumps(out, sort_keys=True, default=str)


def compute_rectification(Cs, Cb, idual, A):
    """For every X in MC Hom(C', A) and every g0 gauge equivalent to the
    restriction of X: rectify, as acceptance criterion 8 does for Xs[0]."""
    convb, convs = convolution_algebra(Cb, A), convolution_algebra(Cs, A)
    small = mc_hom_enumerate(Cs, A, budget=BUDGET)
    out = []
    for X in mc_hom_enumerate(Cb, A, budget=BUDGET):
        rX = restrict_element(convb, convs, idual, X)
        for g0 in small:
            if find_gauge_quadruple(convs.algebra, rX, g0) is not None:
                rep = rectify_cofibration(Cs, Cb, idual, A, X, g0, budget=BUDGET)
                out.append((X, g0, rep))
    return convb, out


def rectification_summary(out):
    return [(key(X), key(g0), rep["verdict"], key(rep.get("lift", {}))) for X, g0, rep in out[1]]


def own_restriction(p, idual, nA, x):
    out = {}
    for k, c in x.items():
        cb, a = divmod(k, nA)
        for cs, cc in idual.f.entries.get(cb, {}).items():
            out = oracle.axpy(p, c * cc, {cs * nA + a: 1}, out)
    return out


def check_quadruple(E, x, y, q):
    """(f, g, h1, h2) witnesses x ~ y: f, g are degree-0 chain maps between
    x and y, d^x h1 = gf - 1 and d^y h2 = fg - 1."""
    p = oracle.char(E)

    def sign(v):  # (-1)^|v| for homogeneous v
        return -1 if v and E.space.degree(min(v)) % 2 else 1

    def D(a, src, tgt):  # da + tgt.a - (-1)^|a| a.src
        out = oracle.axpy(p, 1, oracle.mul(E, tgt, a), oracle.d(E, a))
        return oracle.axpy(p, -sign(a), oracle.mul(E, a, src), out)

    require(all(E.space.degree(i) == 0 for i in list(q.f) + list(q.g)), "f or g is not of degree 0")
    require(all(E.space.degree(i) == -1 for i in list(q.h1) + list(q.h2)), "h1 or h2 is not of degree -1")
    require(not D(q.f, x, y) and not D(q.g, y, x), "f or g is not a chain map")
    minus_one = {i: -c for i, c in E.unit.items()}
    require(oracle.same(p, D(q.h1, x, x), oracle.axpy(p, 1, oracle.mul(E, q.g, q.f), minus_one)), "d^x h1 != gf - 1")
    require(oracle.same(p, D(q.h2, y, y), oracle.axpy(p, 1, oracle.mul(E, q.f, q.g), minus_one)), "d^y h2 != fg - 1")


def check_rectification(idual, A, out):
    """Each rectified lift is MC, restricts exactly to g0, and is gauge
    equivalent to X by a quadruple that validates here."""
    convb, rects = out
    E = convb.algebra
    p = oracle.char(E)
    require(rects, "no triangle was rectified")
    for X, g0, rep in rects:
        require(rep["verdict"] is True, f"rectification verdict {rep['verdict']!r}")
        lift = rep["lift"]
        require(not oracle.mc_residual(E, lift), "the lift is not MC")
        require(oracle.same(p, own_restriction(p, idual, A.dim, lift), g0), "the lift does not restrict to g0")
        q = find_gauge_quadruple(E, X, lift, budget=BUDGET)
        require(q is not None, "the lift is not gauge equivalent to X")
        check_quadruple(E, X, lift, q)


def fibration_items(seed: int) -> Iterator[Item]:
    """Criterion 8's cells and injections on seeded isomorphic copies of its
    algebras and coalgebras (basis orders shuffled)."""
    rng = random.Random(seed)
    counts = load_counts()
    coalgebras = [(name, shuffled_coalgebra(rng, C)) for name, C in standard_coalgebra_battery(F2)]
    for aname, A in small_dg_battery(F2):
        g = endpoint_projection(shuffled(rng, A), 3)
        for cname, C in coalgebras:
            yield Item(f"{aname} | {cname}", (C, g), compute_fibration,
                       lambda out, c=counts[(aname, cname)]: check_fibration(c, out),
                       fibration_summary)
    V1 = GradedSpace.make([("v", 1)], F2)
    A = shuffled(rng, square_zero_algebra(V1, GradedMap(V1, V1, 1, {})))
    I3C = shuffled_coalgebra(rng, dualize_algebra(make_interval(F2, 3).algebra))
    I1C = shuffled_coalgebra(rng, dualize_algebra(make_interval(F2, 1).algebra))
    kC = dualize_algebra(ground_algebra(F2))
    injections = [
        ("k -> I_3 (vertex)", kC, I3C, {"1'": "e_e'"}),
        ("k -> I_1 (vertex)", kC, I1C, {"1'": "e_e'"}),
        ("I_1 -> I_3", I1C, I3C, {"e_e'": "e_e'", "e_f'": "e_f'", "s'": "s'"}),
    ]
    for name, Cs, Cb, lm in injections:
        idual = inclusion_dual_for_subcoalgebra(Cb, Cs, lm)
        yield Item(name, (Cs, Cb, idual, A), compute_rectification,
                   lambda out, idual=idual: check_rectification(idual, A, out),
                   rectification_summary)


WORKLOADS = {"moduli": moduli_items, "radical": radical_items, "fibration": fibration_items}


def validate_inputs(items: List[Item]) -> None:
    """The program's own axiom check on every input (on a copy, so that no
    cache it fills rides along into the timed rounds)."""
    for it in items:
        for x in it.inputs:
            if hasattr(x, "validate"):
                bad = copy.deepcopy(x).validate()
                if bad:
                    raise CheckError(f"{it.name}: invalid input: {bad}")

import random

import pytest

from curvlab.fields import GF, QQ
from curvlab.gradedlin import GradedMap, GradedSpace, vec_eq, vec_is_zero
from curvlab.algebra import (
    CurvedAlgebra,
    algebra_blocks,
    compose_morphisms,
    direct_product,
    endomorphism_algebra,
    ground_algebra,
    identity_morphism,
    mc_enumerate,
    mc_polynomial_system,
    square_zero_algebra,
    tensor_algebras,
    twist_algebra,
    uncurve_morita,
)
from curvlab.coalgebra import dualize_algebra
from curvlab.convolution import convolution_algebra
from curvlab.interval import make_interval
from reference_algebra import by_labels, permuted_algebra, reference_validate


def curved_ku() -> CurvedAlgebra:
    """k[u]/u^2 with |u| = 2, d = 0, h = u: the basic genuinely curved algebra."""
    F = QQ
    space = GradedSpace.make([("1", 0), ("u", 2)], F)
    mult = {
        (0, 0): {0: F.one()},
        (0, 1): {1: F.one()},
        (1, 0): {1: F.one()},
    }
    return CurvedAlgebra(space, {0: F.one()}, mult, GradedMap(space, space, 1, {}), {1: F.one()})


def test_ground_algebra_valid():
    k = ground_algebra(QQ)
    assert k.validate() == []
    assert mc_enumerate(ground_algebra(GF(2))) == [{}]


def test_curved_ku_valid_and_no_mc():
    A = curved_ku()
    assert A.validate() == []
    # no degree-1 elements at all, h != 0: no MC elements, twist inapplicable
    assert A.degree_indices(1) == []
    with pytest.raises(ValueError):
        twist_algebra(A, {})


def test_forced_curvature_invalid():
    # note: h = st + ts is d-closed and central in I^3, so it actually passes
    # the axioms; h = st does not (d(st) = -sts != 0) and is rejected.
    I = make_interval(QQ, 3)
    A = I.algebra
    ok = CurvedAlgebra(
        A.space,
        A.unit,
        A.mult,
        A.d,
        {A.space.index("st"): QQ.one(), A.space.index("ts"): QQ.one()},
    )
    assert ok.validate() == []
    bad = CurvedAlgebra(A.space, A.unit, A.mult, A.d, {A.space.index("st"): QQ.one()})
    msgs = bad.validate()
    assert msgs
    assert any("d(h)" in m or "d^2" in m for m in msgs)


def test_compose_morphisms_and_decomposition():
    I = make_interval(QQ, 3)
    A = I.algebra
    ident = identity_morphism(A)
    # (id,0)(ev0, 0) = (ev0, 0)
    c = compose_morphisms(identity_morphism(ground_algebra(QQ)), I.ev0)
    assert c.validate() == []
    assert vec_is_zero(QQ, c.b)
    # decomposition (f,b) = (id,b)(f,0) over F_3: take the MC element s+t
    A3 = make_interval(GF(3), 3).algebra
    F = GF(3)
    x = {A3.space.index("s"): 1, A3.space.index("t"): 1}
    Ax, iso = twist_algebra(A3, x)
    assert iso.validate() == []
    f0 = identity_morphism(Ax)
    # (id, x) o (id, 0) must equal (id, x)
    comp = compose_morphisms(iso, f0)
    assert vec_eq(F, comp.b, x)


def test_twist_properties():
    F = GF(3)
    A = make_interval(F, 3).algebra
    x = {A.space.index("s"): 1, A.space.index("t"): 1}
    Ax, iso = twist_algebra(A, x)
    assert Ax.validate() == []
    assert vec_is_zero(F, Ax.h)
    # twist by 0 is identity on the structure
    A0, _ = twist_algebra(A, {})
    assert A0.mult == A.mult
    assert all(
        vec_eq(F, A0.d.apply(A.space.basis_vector(i)), A.d.apply(A.space.basis_vector(i)))
        for i in range(A.dim)
    )
    # twist back by -x (an MC element of Ax): returns the original differential
    mx = {k: F.neg(c) for k, c in x.items()}
    assert Ax.is_mc(mx)
    Axx, _ = twist_algebra(Ax, mx)
    assert all(
        vec_eq(F, Axx.d.apply(A.space.basis_vector(i)), A.d.apply(A.space.basis_vector(i)))
        for i in range(A.dim)
    )


def test_mc_enumeration_twist_validates():
    F = GF(2)
    rng = random.Random(3)
    for _ in range(10):
        dims = rng.randint(1, 3)
        basis = [(f"v{i}", rng.choice([0, 1, 1, 2])) for i in range(dims)]
        V = GradedSpace.make(basis, F)
        entries = {}
        for j in range(dims):
            col = {}
            for i in range(dims):
                if V.degree(i) == V.degree(j) + 1 and rng.random() < 0.5:
                    col[i] = 1
            if col:
                entries[j] = col
        try:
            dV = GradedMap(V, V, 1, entries)
            from curvlab.gradedlin import Complex

            Complex(V, dV)
        except ValueError:
            continue
        A = square_zero_algebra(V, dV)
        assert A.validate() == []
        for x in mc_enumerate(A):
            Ax, iso = twist_algebra(A, x)
            assert Ax.validate() == []
            assert vec_is_zero(F, Ax.h)
            assert iso.validate() == []


def test_tensor_unit_and_assoc():
    F = GF(5)
    A = make_interval(F, 2).algebra
    k = ground_algebra(F)
    T = tensor_algebras(A, k)
    assert T.dim == A.dim
    assert T.validate() == []
    # structure constants match A's under the reindexing
    for (i, j), col in A.mult.items():
        assert T.mult.get((i, j), {}) == col
    B = make_interval(F, 1).algebra
    T1 = tensor_algebras(tensor_algebras(A, B), k)
    T2 = tensor_algebras(A, tensor_algebras(B, k))
    assert T1.dim == T2.dim
    # compare structure constants under the canonical bijection (same order)
    assert set(T1.mult) == set(T2.mult)
    for key, col in T1.mult.items():
        assert vec_eq(F, col, T2.mult[key])


def test_tensor_curvature():
    A = curved_ku()
    T = tensor_algebras(A, A)
    assert T.validate() == []
    # curvature is h@1 + 1@h and is d-closed
    assert not vec_is_zero(QQ, T.h)
    assert vec_is_zero(QQ, T.d.apply(T.h))


def test_mc_polynomial_system_over_Q():
    A = make_interval(QQ, 3).algebra
    eqs = mc_polynomial_system(A)
    assert any("x_s" in e and "x_t" in e for e in eqs)


def test_endomorphism_algebra():
    V = GradedSpace.make([("v0", 0), ("v1", -1)], QQ)
    E = endomorphism_algebra(V)
    assert E.validate() == []
    assert E.dim == 4


def test_uncurve_morita_dg_case():
    A = make_interval(QQ, 1).algebra
    B, x, (incl, iso) = uncurve_morita(A)
    assert B.validate() == []
    assert vec_is_zero(QQ, B.h)
    assert incl.validate() == []
    assert B.dim == 4 * A.dim


def test_uncurve_morita_curved_case():
    A = curved_ku()
    B, x, (incl, iso) = uncurve_morita(A)
    assert B.dim == 8
    assert B.validate() == []
    assert vec_is_zero(QQ, B.h)
    assert iso.validate() == []


def test_uncurve_morita_functorial():
    # uncurved morphism A -> A' induces a commuting square of routes
    F = GF(2)
    A = square_zero_algebra(
        GradedSpace.make([("v", 1)], F), GradedMap(GradedSpace.make([("v", 1)], F), GradedSpace.make([("v", 1)], F), 1, {})
    )
    k = ground_algebra(F)
    # projection A -> k killing v
    from curvlab.algebra import CurvedMorphism

    f = CurvedMorphism(A, k, GradedMap(A.space, k.space, 0, {0: {0: F.one()}}), {})
    assert f.validate() == []
    BA, xA, _ = uncurve_morita(A)
    Bk, xk, _ = uncurve_morita(k)
    # the induced map on A@End(V) sends xA to xk (h = 0 on both sides)
    assert len(xA) == len(xk) == 1


def test_direct_product():
    F = GF(2)
    P = direct_product(ground_algebra(F), ground_algebra(F))
    assert P.validate() == []
    assert P.dim == 2


def test_validate_sees_products_changed_after_an_earlier_validate():
    A = make_interval(GF(2), 3).algebra
    assert A.validate() == []
    s, t = A.space.index("s"), A.space.index("t")
    A.mult[(s, t)] = {}
    bad = A.validate()
    assert bad == ["associativity fails on (s,t,s)"] + [
        f"Leibniz fails on ({a},{b})"
        for a, b in (("e_e", "t"), ("e_f", "t"), ("s", "e_e"), ("s", "e_f"), ("s", "t"))
    ]
    assert bad == reference_validate(A)


def _square_zero(F, degrees, d=None):
    V = GradedSpace.make([(f"v{i}", deg) for i, deg in enumerate(degrees)], F)
    return square_zero_algebra(V, GradedMap(V, V, 1, d or {}))


@pytest.mark.parametrize("p", [2, 3])
def test_algebra_blocks_of_a_connected_algebra(p):
    """End(V), k + V, I^n and k do not decompose: one block, the algebra
    itself at all its indices."""
    F = GF(p)
    for A in (
        endomorphism_algebra(GradedSpace.make([("a", 0), ("b", 1), ("c", 1)], F)),
        _square_zero(F, [0, 1, 1, 2], {1: {3: F.one()}}),
        make_interval(F, 1).algebra,
        make_interval(F, 3).algebra,
        ground_algebra(F),
    ):
        [(indices, B)] = algebra_blocks(A)
        assert B is A and indices == list(range(A.dim))


@pytest.mark.parametrize("seed", range(6))
def test_algebra_blocks_of_a_product_are_its_factors(seed):
    """direct_product(A, B) has the blocks A and B, their structure
    constants restricted and renumbered, also with the two bases
    interleaved by a permutation; each block is a valid curved algebra."""
    F = GF(3)
    factors = [make_interval(F, 2).algebra, _square_zero(F, [-1, 0, 1], {0: {1: F.one()}})]
    P = direct_product(*factors)
    order = list(range(P.dim))
    random.Random(seed).shuffle(order)
    Q = P if seed == 0 else permuted_algebra(P, order)
    blocks = algebra_blocks(Q)
    assert len(blocks) == 2 and blocks[0][0][0] == 0  # in the order of their least index
    assert sorted(i for indices, _ in blocks for i in indices) == list(range(Q.dim))
    for indices, B in blocks:
        assert indices == sorted(indices)
        assert [Q.label(i) for i in indices] == [B.label(a) for a in range(B.dim)]
        tag = B.label(0).split(".")[0]
        factor = dict(zip(("L", "R"), factors))[tag]
        renamed = permuted_algebra(factor, list(range(factor.dim)))
        renamed.space = GradedSpace.make([(f"{tag}.{l}", d) for l, d in factor.space.basis], F)
        assert by_labels(B) == by_labels(renamed)
        assert B.validate() == []


def test_algebra_blocks_join_along_the_differential():
    """The support of d joins too: k x (k + k<1>) with a term of d added
    from the first factor's unit to the second's v is one block (no valid
    algebra needs this, d keeping the blocks of its product)."""
    F = GF(2)
    P = direct_product(ground_algebra(F), _square_zero(F, [1]))
    assert len(algebra_blocks(P)) == 2
    P.d.entries[P.space.index("L.1")] = {P.space.index("R.v0"): F.one()}
    [(indices, B)] = algebra_blocks(P)
    assert B is P


def test_algebra_blocks_of_a_convolution_over_a_sum():
    """Hom((k^5)*, A) = A^5: five blocks, one per grouplike of (k^5)*."""
    F = GF(2)
    k5 = ground_algebra(F)
    for i in range(4):
        k5 = direct_product(k5, ground_algebra(F), f"a{i}", f"b{i}")
    A = _square_zero(F, [1, 1, 2], {1: {2: F.one()}})
    E = convolution_algebra(dualize_algebra(k5), A).algebra
    blocks = algebra_blocks(E)
    assert [indices for indices, _ in blocks] == [list(range(b * A.dim, (b + 1) * A.dim)) for b in range(5)]
    assert all(B.validate() == [] for _, B in blocks)

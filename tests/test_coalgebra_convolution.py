from curvlab.algebra import (
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
    tensor_algebras,
)
from curvlab.coalgebra import (
    coradical,
    cosquare_zero_tower,
    curved_coradical,
    dualize_algebra,
    dualize_coalgebra,
    tensor_coalgebras,
)
from curvlab.convolution import (
    convolution_algebra,
    convolution_tensor_comparison,
    hom_tensor_iso,
)
from curvlab.fields import GF, QQ
from curvlab.gradedlin import GradedMap, GradedSpace, span_rank
from curvlab.interval import make_interval


def test_dualize_involution():
    for F in (QQ, GF(2)):
        A = make_interval(F, 3).algebra
        C = dualize_algebra(A)
        assert C.validate() == []
        A2 = dualize_coalgebra(C)
        assert A2.space.basis == A.space.basis
        assert A2.mult == A.mult
        assert A2.d.entries == A.d.entries
        assert A2.unit == A.unit and A2.h == A.h


def test_dualize_curved():
    # curved algebra dualizes to a coalgebra with curvature functional
    from tests.test_algebra import curved_ku

    A = curved_ku()
    C = dualize_algebra(A)
    assert C.validate() == []
    assert C.h == {1: QQ.one()}


def test_ground_duality():
    k = ground_algebra(QQ)
    C = dualize_algebra(k)
    assert C.validate() == []
    assert dualize_coalgebra(C).mult == k.mult


def test_tensor_coalgebras_duality():
    F = GF(3)
    C = dualize_algebra(make_interval(F, 1).algebra)
    D = dualize_algebra(make_interval(F, 1).algebra)
    T = tensor_coalgebras(C, D)
    assert T.validate() == []
    # dualizes to the tensor algebra exactly
    A = dualize_coalgebra(T)
    B = tensor_algebras(dualize_coalgebra(C), dualize_coalgebra(D))
    assert A.mult == B.mult and A.unit == B.unit and A.h == B.h
    assert A.d.entries == B.d.entries


def test_I3_coalgebra_roundtrip():
    F = QQ
    A = make_interval(F, 3).algebra
    I3 = dualize_algebra(A)
    assert I3.validate() == []
    assert I3.dim == 7
    back = dualize_coalgebra(I3)
    assert back.mult == A.mult


def test_coradical_of_I3():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    cor = coradical(C)
    # span{e', f'}: dimension 2 in degree 0
    assert span_rank(F, cor, C.dim) == 2
    idx = {C.space.index("e_e'"), C.space.index("e_f'")}
    got = set()
    for v in cor:
        got |= set(v)
    assert got == idx


def test_coradical_of_dual_square_zero():
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    C = dualize_algebra(A)
    cor = coradical(C)
    assert span_rank(F, cor, C.dim) == 1
    # curved coradical same here (dg, radical d-stable)
    ccor = curved_coradical(C)
    assert span_rank(F, ccor, C.dim) == 1


def test_cosquare_zero_tower_I3():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    cor = coradical(C)
    chain = cosquare_zero_tower(C, cor)
    # coradical -> I_3 needs at least 2 steps (radical cube is zero)
    assert len(chain) >= 3
    ranks = [span_rank(F, step, C.dim) for step in chain]
    assert ranks[0] == 2 and ranks[-1] == 7
    assert ranks == sorted(ranks)


def test_cosquare_zero_tower_trivial():
    F = GF(2)
    C = dualize_algebra(ground_algebra(F))
    full = [C.space.basis_vector(i) for i in range(C.dim)]
    chain = cosquare_zero_tower(C, full)
    assert len(chain) == 1


def test_convolution_hom_k_A():
    F = GF(2)
    A = make_interval(F, 3).algebra
    k = dualize_algebra(ground_algebra(F))
    conv = convolution_algebra(k, A)
    assert conv.algebra.validate() == []
    assert conv.algebra.dim == A.dim
    assert conv.algebra.mult == A.mult


def test_convolution_hom_I3_k():
    # Hom(I_3, k) is I^3 back again (duality round trip)
    F = GF(2)
    A = make_interval(F, 3).algebra
    I3 = dualize_algebra(A)
    conv = convolution_algebra(I3, ground_algebra(F))
    assert conv.algebra.validate() == []
    assert conv.algebra.dim == 7
    assert sorted(mc_enumerate(conv.algebra), key=str) == sorted(
        mc_enumerate(A), key=str
    )


def test_convolution_validates_and_tensor_comparison():
    F = GF(2)
    A = make_interval(F, 3).algebra
    I3 = dualize_algebra(A)
    conv = convolution_algebra(I3, A)
    assert conv.algebra.validate() == []
    assert conv.algebra.dim == 49
    assert convolution_tensor_comparison(conv)
    # curved case
    from tests.test_algebra import curved_ku

    Ku = curved_ku()
    convK = convolution_algebra(dualize_algebra(Ku), Ku)
    assert convK.algebra.validate() == []
    assert convolution_tensor_comparison(convK)


def test_hom_tensor_iso_validates():
    F = GF(2)
    I1 = dualize_algebra(make_interval(F, 1).algebra)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    iso, src, dst = hom_tensor_iso(I1, I1, A)
    assert src.algebra.validate() == []
    assert dst.algebra.validate() == []
    assert iso.validate() == []
    # bijection on MC sets
    m1 = mc_enumerate(src.algebra)
    m2 = mc_enumerate(dst.algebra)
    assert len(m1) == len(m2)
    img = [iso.push_mc(x) for x in m1]
    assert all(dst.algebra.is_mc(y) for y in img)
    keys = {tuple(sorted((k, str(v)) for k, v in y.items())) for y in img}
    assert len(keys) == len(m1)


def test_tensor_I3_coalgebras_49dim():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    T = tensor_coalgebras(C, C)
    assert T.dim == 49
    assert T.validate() == []


def test_cylinder_coalgebra_validates():
    # cosquare-zero C tensored with I_3: the cylinder used in homotopy tests
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    sqz = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    C = dualize_algebra(sqz)
    I3 = dualize_algebra(make_interval(F, 3).algebra)
    T = tensor_coalgebras(C, I3)
    assert T.dim == 14
    assert T.validate() == []

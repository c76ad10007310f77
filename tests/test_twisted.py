import pytest

from curvlab.algebra import (
    ground_algebra,
    identity_morphism,
    mc_enumerate,
    square_zero_algebra,
    twist_algebra,
)
from curvlab.fields import GF, QQ
from curvlab.gradedlin import (
    Complex,
    GradedMap,
    GradedSpace,
    cohomology,
    vec_eq,
    vec_is_zero,
)
from curvlab.interval import make_interval
from curvlab.mc import interval_tensor, three_homotopy_unpack
from curvlab.twisted import (
    ambient_algebra,
    endomorphism_complex_is_dg_algebra,
    free_module,
    uncurving_module,
    induce,
    make_twisted,
    module_hom_complex,
)
from tests.test_algebra import curved_ku


def test_free_module():
    A = make_interval(QQ, 2).algebra
    M = free_module(A, [("m", 0)])
    assert vec_is_zero(QQ, M.xi)


def test_make_twisted_rejects_non_mc():
    F = GF(2)
    A = make_interval(F, 3).algebra
    V = GradedSpace.make([("m", 0)], F)
    amb = ambient_algebra(A, V)
    bad = {amb.space.index("s#E[m,m]"): 1}
    with pytest.raises(ValueError) as ei:
        make_twisted(A, V, bad)
    assert "residual" in str(ei.value)


def test_uncurving_module_curved():
    A = curved_ku()
    M = uncurving_module(A)
    assert M.ambient.is_mc(M.xi)


def test_induce_identity_and_twist():
    F = GF(2)
    V0 = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V0, V0, 1, {0: {1: 1}})
    A = square_zero_algebra(V0, d)
    M = uncurving_module(A)
    ident = identity_morphism(A)
    M2 = induce(ident, M)
    assert vec_eq(F, M.xi, M2.xi)
    # induction along (id, x): A^x -> A twists the module by x
    for x in mc_enumerate(A):
        Ax, iso = twist_algebra(A, x)
        Mx = uncurving_module(Ax)
        My = induce(iso, Mx)
        assert My.ambient.is_mc(My.xi)


def test_induce_functorial():
    F = GF(2)
    A = make_interval(F, 1).algebra
    k = ground_algebra(F)
    I = make_interval(F, 1)
    M = free_module(A, [("m", 0), ("n", 1)])
    N1 = induce(I.ev0, M)
    # composing with identity changes nothing
    from curvlab.algebra import compose_morphisms

    c = compose_morphisms(identity_morphism(k), I.ev0)
    N2 = induce(c, M)
    assert vec_eq(F, N1.xi, N2.xi)


def test_induce_along_endpoint_matches_unpack():
    # induce along ev0: (A @ I^3) -> A of a twisted module over A @ I^3
    # gives the e-component of the three-homotopy data
    F = GF(2)
    V0 = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V0, V0, 1, {0: {1: 1}})
    B = square_zero_algebra(V0, d)
    T = interval_tensor(B, 3)
    found = mc_enumerate(T)
    assert found
    H = found[-1]
    data = three_homotopy_unpack(B, H)
    # build the twisted module over T with V = k (xi = H, End(V) = k)
    V = GradedSpace.make([("m", 0)], F)
    M = make_twisted(T, V, {k * 1 + 0: c for k, c in H.items()})
    from curvlab.mc import tensor_with_interval_morphism

    ev0 = tensor_with_interval_morphism(B, 3, 0)
    Me = induce(ev0, M)
    expect = {i * 1 + 0: c for i, c in data.components["e_e"].items()}
    assert vec_eq(F, Me.xi, expect)


def test_module_hom_complex_free_rank1():
    A = make_interval(QQ, 2).algebra
    M = free_module(A, [("m", 0)])
    c = module_hom_complex(M, M)
    # complex is A itself: same dimensions per degree and same cohomology dims
    assert c.space.dim == A.dim
    HA = cohomology(Complex(A.space, A.d), 0, 2)
    HM = cohomology(c, 0, 2)
    assert all(HA[n]["dim"] == HM[n]["dim"] for n in HA)


def test_module_hom_complex_uncurving_identity_cocycle():
    A = curved_ku()
    M = uncurving_module(A)
    c = module_hom_complex(M, M)
    F = A.field
    # identity: 1_A @ (E[m0,m0] + E[m1,m1]), the unit of A @ End(V), whose
    # basis is the hom basis of (M, M)
    assert vec_is_zero(F, c.d.apply(M.ambient.unit))
    # the uncurving module is homotopy equivalent to zero, so its
    # endomorphism complex is acyclic and [id] = 0
    H0 = cohomology(c, 0, 0)[0]
    assert H0["dim"] == 0


def test_endomorphism_complex_is_dg_algebra():
    for A in (make_interval(GF(2), 1).algebra, curved_ku()):
        M = uncurving_module(A)
        assert endomorphism_complex_is_dg_algebra(M)


def test_hom_between_homotopy_endpoints():
    # H_s of a 3-homotopy gives a degree-0 cocycle in the module hom complex
    F = GF(2)
    V0 = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V0, V0, 1, {0: {1: 1}})
    B = square_zero_algebra(V0, d)
    T = interval_tensor(B, 3)
    for H in mc_enumerate(T):
        data = three_homotopy_unpack(B, H)
        V = GradedSpace.make([("m", 0)], F)
        Me = make_twisted(B, V, {i: c for i, c in data.components["e_e"].items()})
        Mf = make_twisted(B, V, {i: c for i, c in data.components["e_f"].items()})
        # phi_s = 1 + H_s: Mf -> Me is a chain map; as an element of
        # Hom(V, B @ V) module hom complex (V is 1-dim: positions = B indices)
        c = module_hom_complex(Mf, Me)
        phi = dict(B.unit)
        for i, cc in data.components["s"].items():
            phi[i] = F.add(phi.get(i, F.zero()), cc)
        assert vec_is_zero(F, c.d.apply(phi))

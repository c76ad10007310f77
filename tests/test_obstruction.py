import random
from itertools import islice

import pytest

from curvlab.algebra import CurvedAlgebra, CurvedMorphism, ground_algebra, mc_enumerate, square_zero_algebra
from curvlab.fields import GF, QQ
from curvlab.gradedlin import GradedMap, GradedSpace, vec_eq, vec_is_zero
from curvlab.mc import find_gauge_quadruple
from curvlab.obstruction import (
    Bimodule,
    SquareZeroExtension,
    extension_from_total,
    lift_along_gauge,
    obstruction_class,
    try_lift,
)
from curvlab.randgen import (
    hochschild_pair_space,
    random_base_algebra,
    random_square_zero_extension,
    rebased_algebra,
    regular_bimodule,
)
from reference_mc import exhaustive_lift_search, obstructed_witness


def test_build_total_trivial_L():
    F = QQ
    B = ground_algebra(F)
    L = Bimodule(
        GradedSpace.make([], F), GradedMap(GradedSpace.make([], F), GradedSpace.make([], F), 1, {})
    )
    ext = SquareZeroExtension(B, L, GradedMap(B.space, L.space, 1, {}), {})
    A = ext.total
    assert A.dim == 1
    pi = CurvedMorphism(A, B, GradedMap(A.space, B.space, 0, {0: {0: F.one()}}), {})
    assert pi.validate() == []


def test_build_total_k_plus_V():
    F = GF(2)
    B = ground_algebra(F)
    V = GradedSpace.make([("v0", 0), ("v1", 1)], F)
    dV = GradedMap(V, V, 1, {0: {1: 1}})
    left = {(0, m): {m: F.one()} for m in range(2)}
    right = {(m, 0): {m: F.one()} for m in range(2)}
    L = Bimodule(V, dV, left, right)
    ext = SquareZeroExtension(B, L, GradedMap(B.space, V, 1, {}), {})
    A = ext.total
    assert A.validate() == []
    assert A.dim == 3
    # matches the direct square-zero construction
    direct = square_zero_algebra(V, dV)
    assert sorted(str(v) for v in A.mult.values()) == sorted(
        str(v) for v in direct.mult.values()
    )


def test_obstruction_zero_for_zero():
    F = GF(2)
    rng = random.Random(1)
    ext = random_square_zero_extension(rng, F)
    nu, cert = obstruction_class(ext, {})
    assert cert
    # nu(0) = del(0) + xi(0,0) = 0
    assert vec_is_zero(F, nu)


def test_semisplit_nu_is_partial():
    F = GF(2)
    rng = random.Random(2)
    for _ in range(5):
        ext = random_square_zero_extension(rng, F, semisplit=True)
        assert ext.semisplit
        for x in mc_enumerate(ext.B):
            nu, cert = obstruction_class(ext, x)
            assert cert
            assert vec_eq(F, nu, ext.partial.apply(x))


def test_nu_always_cocycle_random():
    F = GF(2)
    rng = random.Random(3)
    for _ in range(25):
        ext = random_square_zero_extension(rng, F)
        for x in mc_enumerate(ext.B):
            nu, cert = obstruction_class(ext, x)
            assert cert


def test_try_lift_agrees_with_exhaustive():
    F = GF(2)
    rng = random.Random(4)
    checked = 0
    for _ in range(30):
        ext = random_square_zero_extension(rng, F)
        for x in mc_enumerate(ext.B):
            verdict = try_lift(ext, x)
            brute = exhaustive_lift_search(ext, x)
            if verdict[0] == "lift":
                assert brute is not None
                A = ext.total
                assert A.is_mc(verdict[1])
            else:
                assert brute is None
            checked += 1
    assert checked >= 30


def test_try_lift_signs_over_F3():
    # End(k + k<-1>) @ I_1 over F_3 with the ideal of the s-components: the
    # lifts l have degree 1, so d^x_L l = d_L l + x.l + l.x; with the sign
    # of an even l, x = E[v1,v0]@e_f got a "lift" that is not MC
    from curvlab.algebra import endomorphism_algebra, tensor_algebras
    from curvlab.interval import make_interval

    F = GF(3)
    E = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1)], F))
    T = tensor_algebras(E, make_interval(F, 1).algebra)
    ext = extension_from_total(T, [i for i, l in enumerate(T.space.labels()) if l.endswith("@s")])
    A = ext.total
    lifted = 0
    for x in mc_enumerate(ext.B):
        verdict = try_lift(ext, x)
        assert (verdict[0] == "lift") == (exhaustive_lift_search(ext, x) is not None)
        if verdict[0] == "lift":
            assert A.is_mc(verdict[1])
            lifted += 1
    assert lifted == 9


def test_obstructed_instance_exists():
    F = GF(2)
    ext = obstructed_witness(F)
    A = ext.total
    assert A.validate() == []
    x = {ext.B.space.index("x"): 1}
    assert ext.B.is_mc(x)
    verdict = try_lift(ext, x)
    assert verdict[0] == "obstructed"
    assert not vec_is_zero(F, verdict[1])
    assert exhaustive_lift_search(ext, x) is None
    # the zero MC element still lifts
    assert try_lift(ext, {})[0] == "lift"


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5)], ids=str)
def test_regular_bimodule_is_a_dg_bimodule_for_every_shift(F):
    # B + sB with del = 0 and xi = 0 is a valid total algebra for odd shifts
    # too: d(sm) = -s(dm) and b.sm = (-1)^{|b|} s(bm); over F_2 the tables
    # are those of B itself
    rng = random.Random(12)
    for _ in range(40):
        B = random_base_algebra(rng, F, maxdim=5)
        for shift in range(4):
            L = regular_bimodule(B, shift_by=shift)
            SquareZeroExtension(B, L, GradedMap(B.space, L.space, 1, {}), {})
            if F.characteristic == 2:
                assert L.dL.entries == B.d.entries
                assert L.left == {k: c for k, c in B.mult.items() if c}


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5)], ids=str)
def test_every_hochschild_pair_makes_a_valid_total(F):
    # each basis vector of the pair space passes the total algebra's unit,
    # associativity and Leibniz checks, so no draw is ever made again
    rng = random.Random(11)
    with_xi = 0
    for _ in range(40):
        B = random_base_algebra(rng, F, maxdim=5)
        L = regular_bimodule(B, shift_by=rng.choice([0, 1, 2]))
        dvars, xvars, ker = hochschild_pair_space(B, L)
        for k in ker:
            partial, xi = {}, {}
            for a, c in k.items():
                if a < len(dvars):
                    i, m = dvars[a]
                    partial.setdefault(i, {})[m] = c
                else:
                    i, j, m = xvars[a - len(dvars)]
                    xi.setdefault((i, j), {})[m] = c
            SquareZeroExtension(B, L, GradedMap(B.space, L.space, 1, partial), xi)
            with_xi += bool(xi)
    assert with_xi > 0


@pytest.mark.parametrize("F", [GF(3), GF(5)], ids=str)
def test_random_extensions_reach_xi_over_odd_primes(F):
    rng = random.Random(1)
    assert any(not random_square_zero_extension(rng, F).semisplit for _ in range(20))


def test_lift_along_gauge_trivial_quad():
    F = GF(2)
    rng = random.Random(6)
    for _ in range(10):
        ext = random_square_zero_extension(rng, F, semisplit=True)
        for x in mc_enumerate(ext.B):
            verdict = try_lift(ext, x)
            if verdict[0] != "lift":
                continue
            l = verdict[2]
            # trivial quadruple f = g = 1, h1 = h2 = 0
            from curvlab.mc import GaugeQuadruple

            quad = GaugeQuadruple(ext.B, x, x, dict(ext.B.unit), dict(ext.B.unit), {}, {})
            assert quad.validate() == []
            yl = lift_along_gauge(ext, l, x, quad)
            A = ext.total
            assert A.is_mc(yl)


def test_lift_along_gauge_transports():
    # base with two gauge-equivalent MC elements: k + (h -> x), dh = x
    F = GF(2)
    rng = random.Random(7)
    V = GradedSpace.make([("h", 0), ("x", 1)], F)
    B = square_zero_algebra(V, GradedMap(V, V, 1, {0: {1: 1}}))
    from curvlab.gradedlin import enumerate_affine, vec_add, vec_scale

    transported = 0
    for shift in (0, 1, 2):
        L = regular_bimodule(B, shift_by=shift)
        dvars, xvars, ker = hochschild_pair_space(B, L)
        ker = [k for k in ker if all(a < len(dvars) for a in k)]  # semisplit
        for pt in islice(enumerate_affine(F, {}, ker, 2**12), 8):
            partial_entries = {}
            for a, val in pt.items():
                if F.is_zero(val):
                    continue
                i, m = dvars[a]
                partial_entries.setdefault(i, {})[m] = val
            try:
                ext = SquareZeroExtension(
                    B, L, GradedMap(B.space, L.space, 1, partial_entries), {}
                )
            except ValueError:
                continue
            elems = mc_enumerate(B)
            assert len(elems) == 2
            x, y = elems
            quad = find_gauge_quadruple(B, x, y)
            assert quad is not None
            vx = try_lift(ext, x)
            if vx[0] != "lift":
                continue
            yl = lift_along_gauge(ext, vx[2], y, quad)
            A = ext.total
            assert A.is_mc(yl)
            transported += 1
    assert transported >= 3


def test_lift_along_gauge_requires_semisplit():
    F = GF(2)
    rng = random.Random(8)
    for _ in range(40):
        ext = random_square_zero_extension(rng, F)
        if not ext.semisplit:
            from curvlab.mc import GaugeQuadruple

            quad = GaugeQuadruple(ext.B, {}, {}, dict(ext.B.unit), dict(ext.B.unit), {}, {})
            with pytest.raises(ValueError):
                lift_along_gauge(ext, {}, {}, quad)
            return
    pytest.skip("no non-semisplit instance generated")


def test_roundtrip_extraction():
    F = GF(2)
    rng = random.Random(9)
    ext = random_square_zero_extension(rng, F)
    A = ext.total
    nB = ext.B.dim
    ext2 = extension_from_total(A, list(range(nB, A.dim)))
    # data round-trips
    assert ext2.B.mult == ext.B.mult
    assert ext2.partial.entries == ext.partial.entries
    xi1 = {k: v for k, v in ext.xi.items() if v}
    xi2 = {k: v for k, v in ext2.xi.items() if v}
    assert xi1 == xi2


def curved_in_the_ideal():
    """A = k + k.l over F_3 with |l| = 2, l^2 = 0, d = 0 and h = l."""
    F = GF(3)
    V = GradedSpace.make([("l", 2)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    return CurvedAlgebra(A.space, A.unit, A.mult, A.d, {1: F.one()})


def test_a_curvature_in_the_ideal_is_rejected():
    """0 is not MC in A, so no extension with total A lifts it: the
    curvature of a square-zero extension lies in B, and l spans L."""
    A = curved_in_the_ideal()
    assert A.validate() == [] and not A.is_mc({})
    with pytest.raises(ValueError, match="curvature has a component in the chosen ideal"):
        extension_from_total(A, [1])


@pytest.mark.parametrize("F", [GF(2), GF(3)], ids=str)
def test_rebased_totals_with_a_unit_in_the_ideal_build(F):
    """A valid total in another basis, read back as an extension: its unit
    1_B - xi(1_B, 1_B) may have a component in the ideal.  Each copy builds,
    its total is the given algebra, and every lift verdict is the
    exhaustive search's."""
    rng = random.Random(3)
    in_ideal = 0
    for _ in range(100):
        ext = random_square_zero_extension(rng, F)
        A = rebased_algebra(rng, ext.total)
        nB = ext.B.dim
        ext2 = extension_from_total(A, list(range(nB, A.dim)))
        T = ext2.total
        in_ideal += any(i >= nB for i in F.nonzero(A.unit))
        assert [T.degree(i) for i in range(T.dim)] == [A.degree(i) for i in range(A.dim)]
        for u, v in ((T.unit, A.unit), (T.h, A.h)):
            assert vec_eq(F, u, v)
        for i in range(A.dim):
            assert vec_eq(F, T.d.entries.get(i, {}), A.d.entries.get(i, {}))
            for j in range(A.dim):
                assert vec_eq(F, T.basis_product(i, j), A.basis_product(i, j))
        for x in mc_enumerate(ext2.B):
            assert (try_lift(ext2, x)[0] == "lift") == (exhaustive_lift_search(ext2, x) is not None)
    assert in_ideal > 0

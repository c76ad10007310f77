import random

import pytest

from curvlab.algebra import (
    endomorphism_algebra,
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
    twist_algebra,
)
from curvlab.coalgebra import dualize_algebra
from curvlab.convolution import convolution_algebra
from curvlab.fields import GF, QQ, PrimeFieldRequired
from curvlab.gradedlin import (
    BudgetExceeded,
    Complex,
    GradedMap,
    GradedSpace,
    enumerate_affine,
    vec_eq,
    vec_is_zero,
    vec_sub,
)
from curvlab.interval import make_interval
from curvlab.mc import (
    GaugeClasses,
    GaugeQuadruple,
    constant_homotopy,
    constant_map_homotopy,
    find_gauge_quadruple,
    gauge_to_three_homotopy,
    h0_hom,
    hom_complex,
    interval_tensor,
    map_homotopy_check,
    moduli_set,
    n_homotopy_search,
    one_homotopy_middle_component,
    square_zero_three_homotopy,
    three_homotopy_unpack,
    verify_n_homotopy,
)
from reference_algebra import reference_chain_map_dim
from reference_mc import (
    counting_gauge_data,
    exhaustive_gauge_quadruple,
    reference_chain_maps,
    reference_gauge_quadruple,
    reference_particular_homotopy,
)


def random_complex(rng, F, maxdim=4, degs=(0, 1, 2)):
    """A random valid (V, d) with d^2 = 0, built by rejection."""
    while True:
        n = rng.randint(1, maxdim)
        basis = [(f"v{i}", rng.choice(degs)) for i in range(n)]
        V = GradedSpace.make(basis, F)
        entries = {}
        for j in range(n):
            col = {
                i: rng.randint(1, F.characteristic - 1)
                for i in range(n)
                if V.degree(i) == V.degree(j) + 1 and rng.random() < 0.6
            }
            if col:
                entries[j] = col
        d = GradedMap(V, V, 1, entries)
        try:
            Complex(V, d)
            return V, d
        except ValueError:
            continue


def test_hom_complex_ground():
    k = ground_algebra(QQ)
    H = h0_hom(k, {}, {})
    assert H["dim"] == 1


def test_hom_complex_I3():
    A = make_interval(QQ, 3).algebra
    H = h0_hom(A, {}, {})
    # degree-0 cocycles = span{e+f} = span{1}: H^0 is 1-dimensional
    assert H["dim"] == 1


def test_hom_complex_squares_to_zero_between_distinct_mc():
    F = GF(2)
    rng = random.Random(5)
    for _ in range(20):
        V, d = random_complex(rng, F)
        A = square_zero_algebra(V, d)
        elems = mc_enumerate(A)
        for x in elems[: min(3, len(elems))]:
            for y in elems[: min(3, len(elems))]:
                c = hom_complex(A, x, y)  # Complex() raises if D^2 != 0
                assert c is not None


def test_h0_between_non_cohomologous_is_zero():
    # k + V with V 2-dim in degree 1, d = 0: distinct MC elements give H^0 = 0
    F = GF(2)
    V = GradedSpace.make([("a", 1), ("b", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    x = {A.space.index("a"): 1}
    y = {A.space.index("b"): 1}
    assert h0_hom(A, x, y)["dim"] == 0
    assert h0_hom(A, x, x)["dim"] == 1


def test_moduli_ground():
    k = ground_algebra(GF(2))
    assert len(moduli_set(k)) == 1


def test_moduli_counts_H1():
    F = GF(2)
    rng = random.Random(17)
    for _ in range(12):
        V, d = random_complex(rng, F)
        A = square_zero_algebra(V, d)
        classes = moduli_set(A)
        H = Complex(V, d)
        from curvlab.gradedlin import cohomology

        h1 = cohomology(H, 1, 1)[1]["dim"]
        assert len(classes) == 2**h1


def test_moduli_invariant_under_twist():
    F = GF(2)
    rng = random.Random(23)
    for _ in range(6):
        V, d = random_complex(rng, F, maxdim=3)
        A = square_zero_algebra(V, d)
        elems = mc_enumerate(A)
        if len(elems) < 2:
            continue
        x = elems[1]
        Ax, _ = twist_algebra(A, x)
        # y -> y - x maps MC(A) to MC(Ax) bijectively, class-compatibly
        from curvlab.gradedlin import vec_sub

        mapped = [vec_sub(F, y, x) for y in elems]
        assert all(Ax.is_mc(m) for m in mapped)
        c1 = moduli_set(A, mc=elems)
        c2 = moduli_set(Ax, mc=sorted(mapped, key=str))
        assert len(c1) == len(c2)


def test_gauge_symmetric_and_transitive_on_samples():
    F = GF(2)
    V = GradedSpace.make([("a", 1), ("b", 0)], F)
    d = GradedMap(V, V, 1, {1: {0: 1}})
    A = square_zero_algebra(V, d)
    elems = mc_enumerate(A)
    assert len(elems) == 2
    q = find_gauge_quadruple(A, elems[0], elems[1])
    assert q is not None
    q2 = find_gauge_quadruple(A, elems[1], elems[0])
    assert q2 is not None


def test_constant_homotopy_and_endpoints():
    F = GF(3)
    A = make_interval(F, 3).algebra
    x = {A.space.index("s"): 1, A.space.index("t"): 1}
    H = constant_homotopy(A, x, 3)
    e0, e1 = H.endpoints()
    assert vec_eq(F, e0, x) and vec_eq(F, e1, x)


def test_square_zero_constructive_homotopy():
    # k + V, dh = x - x' gives the explicit 3-homotopy; works over Q too
    F = QQ
    V = GradedSpace.make([("h0", 0), ("x1", 1), ("x2", 1)], F)
    d = GradedMap(V, V, 1, {0: {1: F.one(), 2: F.neg(F.one())}})
    A = square_zero_algebra(V, d)
    x = {A.space.index("x1"): F.one()}
    xp = {A.space.index("x2"): F.one()}
    assert A.is_mc(x) and A.is_mc(xp)
    H = square_zero_three_homotopy(A, x, xp)
    assert H is not None
    assert verify_n_homotopy(A, x, xp, 3, H.X)


def test_n_homotopy_search_f2():
    F = GF(2)
    V = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V, V, 1, {0: {1: 1}})
    A = square_zero_algebra(V, d)
    x = {A.space.index("x1"): 1}
    H = n_homotopy_search(A, {}, x, 3)
    assert H is not None
    assert verify_n_homotopy(A, {}, x, 3, H.X)


def test_ev_maps_identity_homotopy():
    # the identity of I^3 is an elementary 3-homotopy between ev0 and ev1
    F = QQ
    I = make_interval(F, 3)
    A = I.algebra
    k = ground_algebra(F)
    # h: I^3 -> k @ I^3 = I^3: identity under the canonical reindexing
    T = interval_tensor(k, 3)
    assert T.dim == A.dim
    entries = {}
    for i in range(A.dim):
        entries[i] = {i: F.one()}
    from curvlab.algebra import CurvedMorphism

    h = CurvedMorphism(A, T, GradedMap(A.space, T.space, 0, entries), {})
    assert h.validate() == []
    res = map_homotopy_check(I.ev0, I.ev1, 3, h)
    assert res["verdict"] is True
    # swapped endpoints fail with a witness
    res2 = map_homotopy_check(I.ev1, I.ev0, 3, h)
    assert res2["verdict"] is False and res2["witness"]


def test_constant_map_homotopy():
    F = GF(2)
    I = make_interval(F, 2)
    h = constant_map_homotopy(I.ev0, 2)
    assert h.validate() == []
    res = map_homotopy_check(I.ev0, I.ev0, 2, h)
    assert res["verdict"] is True


def test_one_homotopy_middle_is_chain_homotopy():
    # middle component of a 1-homotopy satisfies d h~ + h~ d = f - g
    F = GF(2)
    I1 = make_interval(F, 1)
    A = I1.algebra
    k = ground_algebra(F)
    T = interval_tensor(k, 1)
    entries = {}
    for i in range(A.dim):
        entries[i] = {i: F.one()}
    from curvlab.algebra import CurvedMorphism

    h = CurvedMorphism(A, T, GradedMap(A.space, T.space, 0, entries), {})
    assert h.validate() == []
    res = map_homotopy_check(I1.ev0, I1.ev1, 1, h)
    assert res["verdict"] is True
    mid = one_homotopy_middle_component(h)
    # d_k(mid(a)) + mid(d_A a) = ev0(a) - ev1(a)
    for j in range(A.dim):
        v = A.space.basis_vector(j)
        lhs = {}
        # d_k = 0, so lhs = mid(d a)
        da = A.d.apply(v)
        acc = {}
        for i, c in da.items():
            col = mid.get(i, {})
            for kk, cc in col.items():
                acc[kk] = F.add(acc.get(kk, F.zero()), F.mul(c, cc))
        rhs = F_sub_maps(F, I1.ev0.f.apply(v), I1.ev1.f.apply(v))
        assert vec_eq(F, acc, rhs)


def F_sub_maps(F, u, v):
    from curvlab.gradedlin import vec_sub

    return vec_sub(F, u, v)


def test_three_homotopy_unpack_constant():
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    x = {A.space.index("v"): 1}
    H = constant_homotopy(A, x, 3)
    data = three_homotopy_unpack(A, H.X)
    ids = data.identities()
    assert all(ids.values())
    # constant homotopy: phi_s = phi_t = 1, homotopies 0
    assert vec_is_zero(F, data.components["s"])
    assert vec_is_zero(F, data.components["st"])


def test_three_homotopy_unpack_search_f2():
    F = GF(2)
    V = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V, V, 1, {0: {1: 1}})
    B = square_zero_algebra(V, d)
    T = interval_tensor(B, 3)
    found = mc_enumerate(T, budget=2**16)
    assert found
    for H in found:
        data = three_homotopy_unpack(B, H)
        ids = data.identities()
        assert all(ids.values()), ids


def test_gauge_to_three_homotopy_agreement():
    F = GF(2)
    V = GradedSpace.make([("h0", 0), ("x1", 1)], F)
    d = GradedMap(V, V, 1, {0: {1: 1}})
    A = square_zero_algebra(V, d)
    x = {}
    y = {A.space.index("x1"): 1}
    quad = find_gauge_quadruple(A, x, y)
    assert quad is not None
    H = gauge_to_three_homotopy(quad)
    assert H is not None
    assert verify_n_homotopy(A, x, y, 3, H.X)


def _interval_convolution(p):
    """Hom(I_1, k + k<1>) over F_p: over F_2, six MC elements, each its own
    gauge class."""
    F = GF(p)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    C = dualize_algebra(make_interval(F, 1).algebra)
    return convolution_algebra(C, A).algebra


def _end_algebra(p, degrees):
    """End(V) over F_p for V with one basis vector per degree given."""
    F = GF(p)
    return endomorphism_algebra(
        GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F)
    )


# End(k + k<-1>^2 + k<-2>) over F_2 has degree -1 homotopies that are not
# unique; End(k + k<-1>^2) over F_3 has signs
END_CASES = [(2, (0, 1, 1, 2)), (3, (0, 1, 1))]


@pytest.mark.parametrize("p, degrees", END_CASES)
def test_gauge_homotopies_are_particular_solutions(p, degrees):
    # the search reduces each twisted differential once; its h1, h2 must be
    # the particular solutions (free variables zero) of gradedlin.solve
    E = _end_algebra(p, degrees)
    F = E.field
    assert E.degree_indices(-1)
    elems = mc_enumerate(E)
    found = nonzero = 0
    for x in elems[:8]:
        for y in elems[:8]:
            q = find_gauge_quadruple(E, x, y)
            if q is None:
                continue
            gf1 = vec_sub(F, E.product(q.g, q.f), E.unit)
            fg1 = vec_sub(F, E.product(q.f, q.g), E.unit)
            assert q.h1 == reference_particular_homotopy(E, x, gf1)
            assert q.h2 == reference_particular_homotopy(E, y, fg1)
            found += 1
            nonzero += bool(q.h1 or q.h2)
    assert found >= 10 and nonzero >= 9


def _reference_gauge_quadruple(E, x, y):
    """The search written out plainly: chain maps from kernel_basis on the
    hom complexes, every (f, g) in base-p order, each homotopy by solve."""
    F = E.field
    idx0 = E.degree_indices(0)
    for fc in enumerate_affine(F, {}, reference_chain_maps(E, x, y), 2**16):
        f = {idx0[a]: c for a, c in fc.items()}
        for gc in enumerate_affine(F, {}, reference_chain_maps(E, y, x), 2**16):
            g = {idx0[a]: c for a, c in gc.items()}
            h1 = reference_particular_homotopy(E, x, vec_sub(F, E.product(g, f), E.unit))
            if h1 is None:
                continue
            h2 = reference_particular_homotopy(E, y, vec_sub(F, E.product(f, g), E.unit))
            if h2 is not None:
                return f, g, h1, h2
    return None


@pytest.mark.parametrize("p, degrees", END_CASES)
def test_gauge_search_returns_the_reference_quadruple(p, degrees):
    """The exhaustive oracle returns the plain search's first quadruple,
    entry for entry and in the same key order.  The program's witness
    validates, is None exactly where the oracle finds none, and refuses
    exactly where the verdict refuses."""
    E = _end_algebra(p, degrees)
    elems = mc_enumerate(E)
    found = 0
    for x in elems[:4]:
        for y in elems:
            oracle = exhaustive_gauge_quadruple(E, x, y)
            got = None if oracle is None else tuple(list(v.items()) for v in (oracle.f, oracle.g, oracle.h1, oracle.h2))
            ref = _reference_gauge_quadruple(E, x, y)
            assert got == (None if ref is None else tuple(list(v.items()) for v in ref))
            q = find_gauge_quadruple(E, x, y)
            assert (q is None) == (oracle is None)
            assert q is None or q.validate() == []
            found += q is not None
            for budget in (1, p):
                witness = _verdict_or_refusal(lambda: find_gauge_quadruple(E, x, y, budget) is not None)
                assert witness == _verdict_or_refusal(lambda: GaugeClasses(E, budget).equivalent(x, y))
    assert found >= 4


def _verdict_or_refusal(fn):
    try:
        return fn()
    except BudgetExceeded as exc:
        return ("refused", exc.required, exc.budget)


def test_gauge_classes_match_pairwise_search():
    for E in (
        _interval_convolution(2),
        _end_algebra(3, (0, 1, 1)),
    ):
        elems = mc_enumerate(E)
        classes = GaugeClasses(E)
        verdicts = [classes.equivalent(x, y) for x in elems for y in elems]
        expected = [
            exhaustive_gauge_quadruple(E, x, y) is not None for x in elems for y in elems
        ]
        assert verdicts == expected
        assert 0 < sum(expected) < len(expected)


def test_gauge_classes_refuse_with_the_h0_count():
    # Hom(I_1, k + k<1>) over F_2: dim H^0(x, x) is 1 for x0 and x4 and 2 for
    # x1 and x2, with dim H^0(x1, x2) = 1 and dim H^0(x0, x4) = 0
    E = _interval_convolution(2)
    x0, x1, x2, _, x4, _ = mc_enumerate(E)

    def h0(u, v):
        return h0_hom(E, u, v)["dim"]

    assert (h0(x0, x0), h0(x1, x1), h0(x2, x2), h0(x4, x4)) == (1, 2, 2, 1)
    assert (h0(x1, x2), h0(x0, x4)) == (1, 0)
    # the oracle keeps its count p^(dim Z0(x,y) + dim Z0(y,x))
    for u, v in ((x0, x0), (x0, x1), (x1, x2)):
        with pytest.raises(BudgetExceeded) as search:
            exhaustive_gauge_quadruple(E, u, v, budget=1)
        assert search.value.required == 2 ** (reference_chain_map_dim(E, u, v) + reference_chain_map_dim(E, v, u))
    assert reference_chain_map_dim(E, x0, x4) == reference_chain_map_dim(E, x4, x0) == 0
    # the verdict and the witness refuse only on distinct ends with equal
    # dim H^0(x, x) and dim H^0(y, y), with the count p^dim H^0(x, y),
    # whatever the memo holds
    for memo in (GaugeClasses(E, budget=1), None):

        def gauge():
            return memo or GaugeClasses(E, budget=1)

        assert gauge().equivalent(x0, x0) is True
        assert gauge().quadruple(x0, x0).validate() == []
        assert gauge().equivalent(x0, x1) is False and gauge().quadruple(x0, x1) is None
        assert gauge().equivalent(x0, x4) is False and gauge().quadruple(x0, x4) is None
        for ask in (gauge().equivalent, gauge().quadruple):
            with pytest.raises(BudgetExceeded) as refused:
                ask(x1, x2)
            assert (refused.value.required, refused.value.budget) == (2 ** h0(x1, x2), 1)
    assert GaugeClasses(E, budget=2).equivalent(x1, x2) is (exhaustive_gauge_quadruple(E, x1, x2) is not None)


@pytest.mark.parametrize(
    "E, counts", [(_interval_convolution(2), (0, 7)), (_end_algebra(3, (0, 1, 1)), (14, 0))], ids=["conv", "end"]
)
def test_gauge_query_builds_at_most_two_pair_kernels(monkeypatch, E, counts):
    """Each verdict builds Z0(x, y) and Z0(y, x) at most once, and none when
    the memo, unequal dim H^0(x, x) and dim H^0(y, y), or dim H^0(x, y) !=
    dim H^0(x, x) decide it: those dimensions come from ranks, so no
    Z0(x, x) is built at all.  A chain-map kernel is the one LinearSystem
    of the gauge solve with a column per degree-0 basis vector and a row
    per basis vector (d^x on degree -1 has fewer columns, the g-systems
    twice the rows).  On Hom(I_1, k + k<1>) the ranks decide all 7 pairs
    that the memo does not; on End(k + k<-1>^2) over F_3 they decide none,
    and 7 pairs build two kernels each."""
    import curvlab.mc as mc_module

    n0 = len(E.degree_indices(0))
    assert len(E.degree_indices(-1)) != n0
    built = []

    class Counting(mc_module.LinearSystem):
        def __init__(self, F, columns, nrows):
            columns = list(columns)
            if nrows == E.dim and len(columns) == n0:
                built.append(1)
            super().__init__(F, columns, nrows)

    monkeypatch.setattr(mc_module, "LinearSystem", Counting)
    elems = mc_enumerate(E)
    gauge = GaugeClasses(E)

    def key(v):
        return tuple(sorted(v.items()))

    h0 = {(key(x), key(y)): h0_hom(E, x, y)["dim"] for x in elems for y in elems}
    pair_builds = by_rank = 0
    for x in elems:
        for y in elems:
            kx, ky = key(x), key(y)
            rx, ry = gauge._root(kx), gauge._root(ky)
            decided = rx == ry or ry in gauge._apart.get(rx, ()) or h0[kx, kx] != h0[ky, ky]
            before = len(built)
            gauge.equivalent(x, y)
            built_now = len(built) - before
            if decided or h0[kx, ky] != h0[kx, kx]:
                by_rank += not decided
                assert built_now == 0
            else:
                assert built_now == 2
            pair_builds += built_now
    assert (pair_builds, by_rank) == counts


@pytest.mark.parametrize(
    "E",
    [_interval_convolution(2), _interval_convolution(5), _end_algebra(2, (0, 1, 1, 2)), _end_algebra(3, (0, 1, 1, 2))],
    ids=["conv2", "conv5", "end2", "end3"],
)
def test_rank_first_refusal_and_answer(E):
    """On the pairs with dim H^0(x, x) = dim H^0(y, y) != dim H^0(x, y) = d
    > 0, which the ranks decide: at budget p^d - 1 the verdict and the witness
    refuse with BudgetExceeded(p^d, p^d - 1), as the reference solve does,
    whatever the memo holds; at budget p^d they answer False and None."""
    p = E.field.characteristic
    elems = mc_enumerate(E)
    dims = {(i, j): h0_hom(E, x, y)["dim"] for i, x in enumerate(elems) for j, y in enumerate(elems)}
    pairs = [(i, j) for (i, j), d in dims.items() if dims[i, i] == dims[j, j] != d > 0]
    assert pairs
    memo = GaugeClasses(E, budget=2**12)
    for i, j in pairs:
        x, y, d = elems[i], elems[j], dims[i, j]
        for ask in (GaugeClasses(E, p**d - 1).equivalent, GaugeClasses(E, p**d - 1).quadruple,
                    lambda u, v: reference_gauge_quadruple(E, u, v, p**d - 1)):
            with pytest.raises(BudgetExceeded) as refused:
                ask(x, y)
            assert (refused.value.required, refused.value.budget) == (p**d, p**d - 1)
        assert GaugeClasses(E, p**d).equivalent(x, y) is False
        assert GaugeClasses(E, p**d).quadruple(x, y) is None
        assert reference_gauge_quadruple(E, x, y, p**d) is None
        assert memo.equivalent(x, y) is False


@pytest.mark.parametrize(
    "E", [_interval_convolution(3), _end_algebra(3, (0, 1, 1)), _end_algebra(2, (0, 1, 1, 2))], ids=["conv", "end3", "end2"]
)
def test_moduli_set_keys_each_element_once(monkeypatch, E):
    """moduli_set builds the data of each MC element, and computes its key,
    exactly once, however many gauge queries it makes."""
    elems = mc_enumerate(E)
    counts = counting_gauge_data(monkeypatch)
    classes = moduli_set(E, mc=elems)
    assert len(classes) < len(elems)
    assert counts == {"data": len(elems), "keys": len(elems)}


# over F_3 and F_5 the signs of the seven components show; most of the
# quadruples found have both homotopies h1 and h2 nonzero
@pytest.mark.parametrize("p, degrees", [(3, (0, 1, 1)), (3, (0, 1, 2)), (5, (0, 1)), (5, (0, 1, 2))])
def test_gauge_to_three_homotopy_over_odd_primes(p, degrees):
    E = _end_algebra(p, degrees)
    elems = mc_enumerate(E)
    gauge = GaugeClasses(E)
    with_homotopies = 0
    for x in elems[:6]:
        for y in elems:
            q = gauge.quadruple(x, y)
            if q is None:
                continue
            H = gauge_to_three_homotopy(q)
            assert H is not None and verify_n_homotopy(E, x, y, 3, H.X)
            assert all(three_homotopy_unpack(E, H.X).identities().values())
            with_homotopies += bool(q.h1 and q.h2)
    assert with_homotopies >= 8


def test_gauge_to_three_homotopy_moves_h1_by_a_cocycle():
    """End(k^2 + k<-1>^2) over F_2: for some witnesses the sts-component
    alone cannot be solved, since the class of the residual in H^-1 does
    not vanish for the given h1.  Moving H_st by a d^x-cocycle kills it,
    so every equivalent pair gets a 3-homotopy, and n_homotopy_search
    builds one where the search over the 2^24 coordinates of A @ I^3
    refused."""
    E = _end_algebra(2, (0, 0, 1, 1))
    elems = mc_enumerate(E)
    gauge = GaugeClasses(E)
    moved = 0
    for x in elems:
        for y in elems:
            q = gauge.quadruple(x, y)
            if q is None:
                continue
            H = gauge_to_three_homotopy(q)
            assert H is not None and verify_n_homotopy(E, x, y, 3, H.X)
            assert all(three_homotopy_unpack(E, H.X).identities().values())
            if three_homotopy_unpack(E, H.X).components["st"] != q.h1:  # -h1 = h1 over F_2
                moved += 1
                assert verify_n_homotopy(E, x, y, 3, n_homotopy_search(E, x, y, 3).X)
    assert moved == 16


def test_gauge_to_three_homotopy_over_Q():
    # End(k + k<-1>): x = E[v1,v0] and y = 2 E[v1,v0] are acyclic, and
    # f = diag(1, 2) with g = diag(3, 3/2) inverts it up to h1 = 2 E[v0,v1]
    # and h2 = E[v0,v1]
    E = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1)], QQ))
    ix = E.space.index

    def el(**terms):
        return {ix(f"E[{k[0:2]},{k[2:4]}]"): QQ.coerce(c) for k, c in terms.items()}

    x, y = el(v1v0=1), el(v1v0=2)
    quad = GaugeQuadruple(
        E, x, y, el(v0v0=1, v1v1=2), el(v0v0=3, v1v1="3/2"), el(v0v1=2), el(v0v1=1)
    )
    assert quad.validate() == []
    H = gauge_to_three_homotopy(quad)
    assert H is not None and verify_n_homotopy(E, x, y, 3, H.X)
    assert all(three_homotopy_unpack(E, H.X).identities().values())


def _reference_moduli(E):
    """The partition of MC(E) by first fit against each class's first
    member, every verdict from the exhaustive quadruple search."""
    classes = []
    for x in mc_enumerate(E):
        for cls in classes:
            if exhaustive_gauge_quadruple(E, cls[0], x) is not None:
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


@pytest.mark.parametrize(
    "degrees", [(0, 1), (1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1), (0, 1, 2), (2, 0, 1), (-1, 0, 1, 2)]
)
def test_moduli_set_matches_the_quadruple_partition(degrees):
    # the same classes in the same order, each member in the same key order
    E = _end_algebra(3, degrees)
    assert E.degree_indices(-1)
    got = [[list(x.items()) for x in cls] for cls in moduli_set(E)]
    want = [[list(x.items()) for x in cls] for cls in _reference_moduli(E)]
    assert got == want
    assert 1 < len(got) < sum(map(len, got))


def test_gauge_budget_is_read_once_per_instance(monkeypatch):
    # a budget of None is resolved by default_budget() on the first query
    # and kept; the prime-field check still runs on every query
    import curvlab.mc as mc_module

    reads = []

    def counting():
        reads.append(1)
        return 2**16

    monkeypatch.setattr(mc_module, "default_budget", counting)
    E = _end_algebra(3, (0, 1, 1))
    elems = mc_enumerate(E)
    gauge = GaugeClasses(E)
    for x in elems[:4]:
        for y in elems[:4]:
            assert gauge.equivalent(x, y) is (gauge.quadruple(x, y) is not None)
    assert len(reads) == 1
    EQ = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1)], QQ))
    overQ = GaugeClasses(EQ, budget=5)
    for _ in range(2):
        with pytest.raises(PrimeFieldRequired):
            overQ.equivalent({}, {})

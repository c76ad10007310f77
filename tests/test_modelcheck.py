import pytest

from curvlab.algebra import (
    CurvedMorphism,
    direct_product,
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
)
from curvlab.barcobar import cobar, mc_hom_enumerate
from curvlab.coalgebra import dualize_algebra
from curvlab.convolution import convolution_algebra, induced_convolution_morphism
from curvlab.fields import GF, QQ
from curvlab.gradedlin import BudgetExceeded, GradedMap, GradedSpace, vec_eq, vec_is_zero
from curvlab.interval import make_interval
from curvlab.mc import find_gauge_quadruple, h0_hom
from curvlab.modelcheck import (
    alg_mc,
    alg_mc_basepoint_substitution,
    endpoint_projection,
    hom_window_cohomology,
    inclusion_dual_for_subcoalgebra,
    is_fibration_mcdg,
    lifting_solver,
    omega_cat,
    rectify_cofibration,
    standard_coalgebra_battery,
)
from reference_mc import counting_gauge_data, exhaustive_gauge_quadruple


def I3_category(F=QQ):
    C = dualize_algebra(make_interval(F, 3).algebra)
    return omega_cat(C)


def test_omega_cat_of_ground():
    F = QQ
    C = dualize_algebra(ground_algebra(F))
    D = omega_cat(C)
    assert D.objects == ("1'",)
    assert D.arrows == ()


def test_omega_cat_I3_presentation():
    D = I3_category()
    F = QQ
    pres = D.presentation
    assert set(pres.vertices) == {"e_e'", "e_f'"}
    # five generators: s', t' degree 0; ts', st' degree -1; sts' degree -2
    degs = {a.label: a.degree for a in pres.arrows}
    assert degs == {"s'": 0, "t'": 0, "st'": -1, "ts'": -1, "sts'": -2}
    # bigrades: s': e->f, t': f->e, st' loop at e, ts' loop at f, sts': e->f
    bg = {a.label: (a.source, a.target) for a in pres.arrows}
    assert bg["s'"] == ("e_e'", "e_f'")
    assert bg["t'"] == ("e_f'", "e_e'")
    assert bg["st'"] == ("e_e'", "e_e'")
    assert bg["ts'"] == ("e_f'", "e_f'")
    assert bg["sts'"] == ("e_e'", "e_f'")


def test_omega_cat_I3_differentials_match_paper_equations():
    """The three equations d(r) = t's' - 1, d(l) = s't' - 1, d(w) = s'r - ls'
    hold verbatim under the label mapping r = ts'-dual (the f-loop here),
    l = st'-dual (the e-loop), w = sts'-dual."""
    D = I3_category()
    F = QQ
    one = F.one()
    m1 = F.neg(one)
    r, l, w = "ts'", "st'", "sts'"
    dr = D.d_of(r)
    assert dr == {("t'", "s'"): one, ("v", "e_f'"): m1}
    dl = D.d_of(l)
    assert dl == {("s'", "t'"): one, ("v", "e_e'"): m1}
    dw = D.d_of(w)
    assert dw == {("s'", r): one, (l, "s'"): m1}
    # s', t' are cycles
    assert D.d_of("s'") == {}
    assert D.d_of("t'") == {}


def test_omega_cat_I3_window_cohomology():
    D = I3_category(GF(2))
    for (x, y) in (
        ("e_e'", "e_e'"),
        ("e_e'", "e_f'"),
        ("e_f'", "e_e'"),
        ("e_f'", "e_f'"),
    ):
        H = hom_window_cohomology(D, x, y, -3, 0, word_bound=8)
        assert H[0] == 1, (x, y, H)
        assert H[-1] == 0 and H[-2] == 0 and H[-3] == 0, (x, y, H)


def test_alg_mc_one_object_dg_algebra():
    # a one-object free dg category = free algebra: Alg_MC is itself
    F = GF(2)
    from curvlab.modelcheck import FreeDgCategory
    from curvlab.presented import Arrow, PresentedCurvedAlgebra

    pres = PresentedCurvedAlgebra(
        field=F,
        vertices=("*",),
        arrows=(Arrow("a", "*", "*", 1),),
        truncation=3,
        d_on_arrows={},
    )
    D = FreeDgCategory(pres)
    P = alg_mc(D, "*", truncation=3)
    A = P.materialize().algebra
    # generators: just 'a' (no basepoint generator); d(a) = 0
    assert A.validate() == []
    assert {l for l, _ in A.space.basis} == {"e_*", "a", "aa", "aaa"}


def test_alg_mc_of_omega_cat_I3_dimensions():
    # generator degrees of Alg_MC(Omega_cat(I_3)) match the cobar Omega(I_3)
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    D = omega_cat(C)
    P = alg_mc(D, "e_e'", truncation=4)
    om = cobar(C, C.space.index("e_e'"), 4)
    c1 = P.word_counts_by_degree()
    c2 = om.presentation.word_counts_by_degree()
    assert c1 == c2


def test_alg_mc_basepoint_substitution():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    D = omega_cat(C)
    assert alg_mc_basepoint_substitution(D, "e_e'", "e_f'", truncation=3)


def test_endpoint_projection_is_fibration():
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    g = endpoint_projection(A, 3)
    assert g.validate() == []
    for name, C in standard_coalgebra_battery(F)[:2]:
        rep = is_fibration_mcdg(C, g)
        assert rep["verdict"] is True, (name, rep)


def test_non_surjective_is_not_fibration():
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    k = ground_algebra(F)
    # inclusion k -> A is not surjective
    f = CurvedMorphism(k, A, GradedMap(k.space, A.space, 0, {0: {0: F.one()}}), {})
    assert f.validate() == []
    C = dualize_algebra(ground_algebra(F))
    rep = is_fibration_mcdg(C, f)
    assert rep["verdict"] is False
    assert rep["hom_surjective"] is False


def test_square_zero_projection_is_fibration():
    # k + V ->> k (square-zero kernel) induces a fibration of MC dg
    # categories: the element x also maps to 0, so the iso lifts
    F = GF(2)
    V = GradedSpace.make([("x", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    k = ground_algebra(F)
    g = CurvedMorphism(A, k, GradedMap(A.space, k.space, 0, {0: {0: F.one()}}), {})
    assert g.validate() == []
    C = dualize_algebra(ground_algebra(F))
    rep = is_fibration_mcdg(C, g)
    assert rep["hom_surjective"] is True
    assert rep["verdict"] is True


def test_rectify_cofibration_identity():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 1).algebra)
    A = make_interval(F, 1).algebra
    idual = inclusion_dual_for_subcoalgebra(C, C, {l: l for l, _ in C.space.basis})
    xs = mc_hom_enumerate(C, A)
    assert xs
    X = xs[-1]
    rep = rectify_cofibration(C, C, idual, A, X, X)
    assert rep["verdict"] is True
    assert vec_eq(F, rep["lift"], X)


def test_rectify_cofibration_vertex_into_I3():
    F = GF(2)
    Cp = dualize_algebra(make_interval(F, 3).algebra)
    Ck = dualize_algebra(ground_algebra(F))
    # inclusion k -> I_3 at the vertex e: 1' -> e_e'
    idual = inclusion_dual_for_subcoalgebra(Cp, Ck, {"1'": "e_e'"})
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    Xs = mc_hom_enumerate(Cp, A)
    assert Xs
    X = Xs[0]
    from curvlab.convolution import convolution_algebra
    from curvlab.modelcheck import restrict_element

    convb = convolution_algebra(Cp, A)
    convs = convolution_algebra(Ck, A)
    g0 = restrict_element(convb, convs, idual, X)
    rep = rectify_cofibration(Ck, Cp, idual, A, X, g0)
    assert rep["verdict"] is True


def test_non_injective_rejected():
    F = GF(2)
    Cp = dualize_algebra(make_interval(F, 1).algebra)
    Ck = dualize_algebra(ground_algebra(F))
    # zero dual map: the corresponding i is not injective
    bad = inclusion_dual_for_subcoalgebra(Cp, Ck, {})
    A = ground_algebra(F)
    rep = rectify_cofibration(Ck, Cp, bad, A, {}, {})
    assert rep["verdict"] is False
    assert "injective" in rep["witness"]


def test_lifting_solver_iso():
    F = GF(2)
    C = dualize_algebra(ground_algebra(F))
    idual = inclusion_dual_for_subcoalgebra(C, C, {"1'": "1'"})
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    from curvlab.algebra import identity_morphism

    g = identity_morphism(A)
    xs = mc_hom_enumerate(C, A)
    for u in xs:
        rep = lifting_solver(C, C, idual, g, u, u)
        assert rep["verdict"] is True
        assert vec_eq(F, rep["lift"], u)


def test_lifting_solver_vertex_into_I3():
    F = GF(2)
    Cp = dualize_algebra(make_interval(F, 3).algebra)
    Ck = dualize_algebra(ground_algebra(F))
    idual = inclusion_dual_for_subcoalgebra(Cp, Ck, {"1'": "e_e'"})
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    g = endpoint_projection(A, 3)
    T = g.source  # A @ I^3
    # take a lift-square: u' in Hom(I_3, A x A), u in Hom(k, A@I^3)
    us = mc_hom_enumerate(Ck, T)
    from curvlab.convolution import convolution_algebra
    from curvlab.modelcheck import restrict_element
    from curvlab.convolution import induced_convolution_morphism

    convCT = convolution_algebra(Ck, T)
    convCP = convolution_algebra(Ck, g.target)
    convCpT = convolution_algebra(Cp, T)
    convCpP = convolution_algebra(Cp, g.target)
    gsmall = induced_convolution_morphism(convCT, convCP, amap=g)
    found = False
    ups = mc_hom_enumerate(Cp, g.target)
    for u in us:
        target = gsmall.push_mc(u)
        for up in ups:
            if vec_eq(F, restrict_element(convCpP, convCP, idual, up), target):
                rep = lifting_solver(Ck, Cp, idual, g, u, up)
                if rep["verdict"]:
                    found = True
                    break
        if found:
            break
    assert found


def test_fibration_check_k_implies_surjective_component():
    # whenever is_fibration_mcdg(k, g) holds for dg algebras, g is surjective
    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    g = endpoint_projection(A, 3)
    C = dualize_algebra(ground_algebra(F))
    rep = is_fibration_mcdg(C, g)
    if rep["verdict"]:
        rows = [dict(g.f.entries.get(j, {})) for j in range(g.source.dim)]
        from curvlab.gradedlin import span_rank

        assert span_rank(F, rows, g.target.dim) == g.target.dim


def _pairwise_fibration_report(C, g, budget):
    """The strong-fibration test written out with one exhaustive gauge search
    per pair (the reference for the memoized is_fibration_mcdg)."""
    F = g.source.field
    convA = convolution_algebra(C, g.source)
    convAp = convolution_algebra(C, g.target)
    gstar = induced_convolution_morphism(convA, convAp, amap=g)
    X = mc_hom_enumerate(C, g.source, budget=budget)
    Y = mc_hom_enumerate(C, g.target, budget=budget)
    EA, EAp = convA.algebra, convAp.algebra
    checked = 0
    for x in X:
        for yp in Y:
            if exhaustive_gauge_quadruple(EAp, gstar.push_mc(x), yp, budget=budget) is None:
                continue
            found = False
            for xt in X:
                if not vec_eq(F, gstar.push_mc(xt), yp):
                    continue
                if exhaustive_gauge_quadruple(EA, x, xt, budget=budget) is not None:
                    found = True
                    break
            checked += 1
            if not found:
                return {
                    "hom_surjective": True,
                    "verdict": False,
                    "witness": {
                        "x": {EA.space.basis[k][0]: F.format_coeff(c) for k, c in x.items()},
                        "y_prime": {
                            EAp.space.basis[k][0]: F.format_coeff(c) for k, c in yp.items()
                        },
                    },
                }
    return {
        "hom_surjective": True,
        "verdict": True,
        "pairs_checked": checked,
        "mc_counts": [len(X), len(Y)],
    }


def _small_square_zero(F, degrees):
    V = GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F)
    return square_zero_algebra(V, GradedMap(V, V, 1, {}))


@pytest.mark.parametrize(
    "degrees, cname", [((1,), "k"), ((1,), "I_1"), ((1, 1), "dual(k+V)")]
)
def test_memoized_fibration_matches_pairwise_search(degrees, cname):
    F = GF(2)
    g = endpoint_projection(_small_square_zero(F, degrees), 3)
    C = dict(standard_coalgebra_battery(F))[cname]
    rep = is_fibration_mcdg(C, g, budget=2**17)
    assert rep == _pairwise_fibration_report(C, g, 2**17)
    assert rep["pairs_checked"] > 0


def test_memoized_fibration_refuses_with_the_h0_count():
    # the identity of (k + k<1>) x k x k against k: MC = {0, v} fits in 2
    # states, and the second query, 0 against v, has dim H^0(0, 0) =
    # dim H^0(v, v) = 3 and dim H^0(0, v) = 2
    F = GF(2)
    A = direct_product(_small_square_zero(F, (1,)), direct_product(ground_algebra(F), ground_algebra(F)))
    g = CurvedMorphism(A, A, GradedMap.identity(A.space), {})
    C = dict(standard_coalgebra_battery(F))["k"]
    E = convolution_algebra(C, A).algebra
    zero, v = mc_hom_enumerate(C, A, budget=2)
    assert (h0_hom(E, zero, zero)["dim"], h0_hom(E, v, v)["dim"]) == (3, 3)
    required = 2 ** h0_hom(E, zero, v)["dim"]
    assert required == 4
    for budget in (2, required - 1):
        with pytest.raises(BudgetExceeded) as memo:
            is_fibration_mcdg(C, g, budget=budget)
        assert (memo.value.required, memo.value.budget) == (required, budget)
    # the pairwise search refuses its first pair, 0 with 0, below
    # 2^(2 dim Z0(0, 0)) = 64 (E has no degree -1, so Z0 = H0)
    with pytest.raises(BudgetExceeded) as search:
        _pairwise_fibration_report(C, g, 63)
    assert search.value.required == 64
    rep = is_fibration_mcdg(C, g, budget=required)
    assert rep == _pairwise_fibration_report(C, g, 64) and rep["verdict"] is True


def test_memoized_fibration_answers_where_the_search_refuses():
    # k x k -> (k x k) x (k x k) against dual(k+V): the MC enumerations fit
    # in 2^4 states; the first gauge pair's search needs more, its H^0 count
    # does not
    F = GF(2)
    A = direct_product(ground_algebra(F), ground_algebra(F))
    g = endpoint_projection(A, 3)
    C = dict(standard_coalgebra_battery(F))["dual(k+V)"]
    convA = convolution_algebra(C, g.source)
    convAp = convolution_algebra(C, g.target)
    gstar = induced_convolution_morphism(convA, convAp, amap=g)
    x0 = mc_hom_enumerate(C, g.source, budget=2**4)[0]
    y0 = mc_hom_enumerate(C, g.target, budget=2**4)[0]
    with pytest.raises(BudgetExceeded) as search:
        exhaustive_gauge_quadruple(convAp.algebra, gstar.push_mc(x0), y0, budget=2**4)
    required = search.value.required
    assert required > 2**4
    with pytest.raises(BudgetExceeded):
        _pairwise_fibration_report(C, g, 2**4)
    rep = is_fibration_mcdg(C, g, budget=2**4)
    assert rep == _pairwise_fibration_report(C, g, required) and rep["verdict"] is True


@pytest.mark.parametrize("degrees, cname", [((1,), "I_1"), ((1, 1), "dual(k+V)"), ((1,), "I_3")])
def test_fibration_keys_each_mc_element_once(monkeypatch, degrees, cname):
    """is_fibration_mcdg builds the gauge data of each element of
    MC Hom(C, A) and MC Hom(C, A'), and computes its key, exactly once:
    |X| + |Y| of each, however many pairs it checks."""
    F = GF(2)
    g = endpoint_projection(_small_square_zero(F, degrees), 3)
    C = dict(standard_coalgebra_battery(F))[cname]
    counts = counting_gauge_data(monkeypatch)
    rep = is_fibration_mcdg(C, g, budget=2**17)
    nx, ny = rep["mc_counts"]
    assert rep["verdict"] is True and nx * ny > nx + ny  # one query per pair (x, y')
    assert counts == {"data": nx + ny, "keys": nx + ny}


def test_fibration_meets_an_image_outside_the_mc_set():
    """(id, b) with b = E[v2,v1] is no morphism of End(k + k<-1> + k<-2>):
    it sends the MC element E[v1,v0] outside MC Hom(k, A').  Such an image
    is looked up among the targets like any other, and its first gauge
    query rejects it as an endpoint that is not MC."""
    from curvlab.algebra import endomorphism_algebra

    F = GF(2)
    E = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1), ("v2", 2)], F))
    g = CurvedMorphism(E, E, GradedMap.identity(E.space), {E.space.index("E[v2,v1]"): F.one()})
    C = dict(standard_coalgebra_battery(F))["k"]
    with pytest.raises(ValueError, match="Maurer-Cartan endpoints"):
        is_fibration_mcdg(C, g)


def test_rectify_cofibration_builds_one_gauge_memo(monkeypatch):
    """Every candidate lift is compared with X through one `GaugeClasses` of
    the big convolution algebra, so X's data is built once per call.  Here
    the third candidate is the first one gauge-equivalent to X."""
    from curvlab import mc, modelcheck

    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    Cs = dualize_algebra(ground_algebra(F))
    Cb = dualize_algebra(make_interval(F, 1).algebra)
    idual = inclusion_dual_for_subcoalgebra(Cb, Cs, {"1'": "e_e'"})
    X = mc_hom_enumerate(Cb, A)[2]
    g0 = mc_hom_enumerate(Cs, A)[0]
    built = []

    class Counting(mc.GaugeClasses):
        def __init__(self, B, budget=None):
            built.append(B.dim)
            super().__init__(B, budget)

    monkeypatch.setattr(mc, "GaugeClasses", Counting)
    monkeypatch.setattr(modelcheck, "GaugeClasses", Counting)
    rep = rectify_cofibration(Cs, Cb, idual, A, X, g0)
    big = convolution_algebra(Cb, A).algebra
    assert rep["verdict"] is True
    assert built.count(big.dim) == 1
    assert find_gauge_quadruple(big, X, rep["lift"]) is not None


def test_each_convolution_algebra_is_built_once(monkeypatch):
    """The model-structure checks build each Hom(C, A) they use once and
    enumerate its MC set from that build: two per fibration cell, two per
    rectification, four per lifting square and one for morphisms_via_mc."""
    from curvlab import barcobar, modelcheck
    from curvlab.algebra import identity_morphism
    from curvlab.barcobar import morphisms_via_mc
    from curvlab.modelcheck import restrict_element

    F = GF(2)
    A = _small_square_zero(F, (1,))
    Cs = dualize_algebra(ground_algebra(F))
    Cb = dualize_algebra(make_interval(F, 1).algebra)
    idual = inclusion_dual_for_subcoalgebra(Cb, Cs, {"1'": "e_e'"})
    X = mc_hom_enumerate(Cb, A)[2]
    g0 = mc_hom_enumerate(Cs, A)[0]
    u = restrict_element(convolution_algebra(Cb, A), convolution_algebra(Cs, A), idual, X)
    built = []

    def counting(C, B):
        built.append((C.dim, B.dim))
        return convolution_algebra(C, B)

    monkeypatch.setattr(barcobar, "convolution_algebra", counting)
    monkeypatch.setattr(modelcheck, "convolution_algebra", counting)

    def builds(fn, *args):
        del built[:]
        assert fn(*args)["verdict"] is True
        return sorted(built)

    big, small = (Cb.dim, A.dim), (Cs.dim, A.dim)
    g = endpoint_projection(A, 3)
    assert builds(is_fibration_mcdg, Cs, g) == sorted([(Cs.dim, g.source.dim), (Cs.dim, g.target.dim)])
    assert builds(rectify_cofibration, Cs, Cb, idual, A, X, g0) == sorted([big, small])
    assert builds(lifting_solver, Cs, Cb, idual, identity_morphism(A), u, X) == sorted([big, big, small, small])
    del built[:]
    assert morphisms_via_mc(Cb, A, Cb.space.index("e_e'"), 3)
    assert built == [big]

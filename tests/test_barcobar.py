import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.algebra import (
    CurvedAlgebra,
    direct_product,
    endomorphism_algebra,
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
)
from curvlab.barcobar import (
    adjunction_count_check,
    bar_dual,
    cobar,
    conilpotency_degree,
    mc_convolution_enumerate,
    mc_hom_enumerate,
    morphisms_via_mc,
)
from curvlab.coalgebra import dualize_algebra
from curvlab.convolution import convolution_algebra
from curvlab.fields import GF, QQ
from curvlab.gradedlin import BudgetExceeded, GradedMap, GradedSpace, vec_is_zero
from curvlab.interval import make_interval
from curvlab.randgen import acyclic_k_algebra, random_curved_algebra


def dual_sqz(F, degree=1):
    V = GradedSpace.make([("v", degree)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    return dualize_algebra(A)


def test_cobar_of_ground():
    F = QQ
    C = dualize_algebra(ground_algebra(F))
    om = cobar(C, 0, 3)
    assert om.algebra.dim == 1  # Omega(k) = k
    assert om.algebra.validate() == []


def test_cobar_of_dual_square_zero_is_polynomial():
    # C = dual of k[eps]/eps^2 with |eps| = n-1: one generator of degree 2-n,
    # zero differential (truncated polynomial algebra X_n)
    for n in (0, 1, 3):
        F = QQ
        C = dual_sqz(F, degree=n - 1)
        w = C.space.index("1'")
        om = cobar(C, w, 4)
        A = om.algebra
        assert A.validate() == []
        # generators: one, of degree (1-n) + 1 = 2-n
        degs = sorted(d for _, d in A.space.basis)
        assert A.dim == 5  # 1, g, g^2, g^3, g^4
        assert A.d.is_zero()
        assert vec_is_zero(F, A.h)
        assert (2 - n) in degs or n == 2


def test_cobar_I3_dimensions_and_validity():
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    w = C.space.index("e_e'")
    om = cobar(C, w, 3)
    A = om.algebra
    assert A.validate() == []
    # generators have degrees |c|+1 for c in {f', s', t', l, r, w}:
    # f' deg 0 -> 1; s', t' deg -1 -> 0; st', ts' deg -2 -> -1; sts' deg -3 -> -2
    counts = om.presentation.word_counts_by_degree()
    for d, c in counts.items():
        assert A.space.dim_in_degree(d) == c
    # quotient maps between truncation levels commute with differentials:
    om2 = cobar(C, w, 2)
    A2 = om2.algebra
    proj = {}
    for i, (lbl, deg) in enumerate(A.space.basis):
        if lbl in {l for l, _ in A2.space.basis}:
            proj[i] = A2.space.index(lbl)
    for i in range(A.dim):
        di = A.d.entries.get(i, {})
        if i not in proj:
            continue
        d2 = A2.d.entries.get(proj[i], {})
        img = {}
        for k, c in di.items():
            if k in proj:
                img[proj[k]] = c
        assert img == d2


def test_cobar_curvature_vanishes_iff_compatible():
    # honest coaugmentation (grouplike, d w = 0, h = 0): dg cobar
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    om = cobar(C, C.space.index("e_e'"), 2)
    assert vec_is_zero(F, om.algebra.h)
    # incompatible distinguished element: dual of K = k[x]/x^2 with dx = 1
    # has d(1') = x' != 0, so the cobar picks up a curvature element
    CK = dualize_algebra(acyclic_k_algebra(F))
    omK = cobar(CK, CK.space.index("1'"), 3)
    assert omK.algebra.validate() == []  # curved but valid: d^2 = [h,-]
    assert not vec_is_zero(F, omK.algebra.h)


def test_morphisms_via_mc_counts():
    F = GF(2)
    # A = 0-dim? use A = k: morphisms = MC(A) = 1
    C = dualize_algebra(ground_algebra(F))
    A = make_interval(F, 3).algebra
    data = morphisms_via_mc(C, A, 0, 3)
    assert len(data) == len(mc_enumerate(A)) == 1
    # C = I_1, A = I^3: count matches plain enumeration of the convolution MC set
    C1 = dualize_algebra(make_interval(F, 1).algebra)
    n_staged = len(mc_hom_enumerate(C1, A))
    from curvlab.convolution import convolution_algebra

    conv = convolution_algebra(C1, A)
    n_brute = len(mc_enumerate(conv.algebra))
    assert n_staged == n_brute
    data = morphisms_via_mc(C1, A, C1.space.index("e_e'"), 3)
    assert len(data) == n_staged


def test_staged_enumeration_matches_brute_on_samples():
    F = GF(2)
    A = make_interval(F, 2).algebra
    for C in (
        dualize_algebra(make_interval(F, 1).algebra),
        dual_sqz(F, 1),
        dualize_algebra(ground_algebra(F)),
    ):
        from curvlab.convolution import convolution_algebra

        staged = mc_hom_enumerate(C, A)
        brute = mc_enumerate(convolution_algebra(C, A).algebra)
        assert sorted(staged, key=str) == sorted(brute, key=str)


def test_staged_refusal_reports_the_count_it_compared():
    # End(k^2) against the dual of I^2: stage 0 (e', f') has no degree-1
    # coordinate, stage 1 (s', t') one partial solution with an 8-dimensional
    # kernel, 2^8 = 256 points, and stage 2 keeps 6 of them.  Each refusal
    # names the points of all partial solutions of its stage, so a budget
    # equal to a refusal's count passes that stage: it answers, or a later
    # stage refuses with a larger count
    F = GF(2)
    A = end_k2(F)
    C = dualize_algebra(make_interval(F, 2).algebra)
    answers = {}
    for start in range(250, 262):
        budget, counts = start, []
        while True:
            try:
                mc = mc_hom_enumerate(C, A, budget=budget)
                break
            except BudgetExceeded as e:
                assert e.required > budget == e.budget
                counts.append(e.required)
                budget = e.required
        answers[start] = (counts, budget)
        assert mc == mc_enumerate(convolution_algebra(C, A).algebra) and len(mc) == 6
    assert answers == {b: (([256], 256) if b < 256 else ([], b)) for b in range(250, 262)}


def test_a_higher_stage_refuses_with_the_points_of_all_its_partials():
    # I_2 against k + k<1> over F_2: stage 0 (e', f') has 2 + 2 points and
    # keeps 2 x 2 partial solutions; stage 1 (s', t') extends them to 10
    # points in all, more than any one of them has, and stage 2 keeps 2
    F = GF(2)
    conv = convolution_algebra(COALGEBRAS["I_2"](F), sqz(F, [1]))
    counts = {}
    for budget in range(1, 13):
        try:
            mc = mc_convolution_enumerate(conv, budget)
            counts[budget] = len(mc)
            assert mc == mc_enumerate(conv.algebra)
        except BudgetExceeded as e:
            counts[budget] = e.required
    assert counts == {**dict.fromkeys(range(1, 4), 4), **dict.fromkeys(range(4, 10), 10), 10: 2, 11: 2, 12: 2}


def end_k2(F):
    return endomorphism_algebra(GradedSpace.make([("u", 0), ("w", 0)], F))


def sqz(F, degrees):
    V = GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F)
    return square_zero_algebra(V, GradedMap(V, V, 1, {}))


# stage 0 of each coalgebra, by the blocks that Delta and d_C join: End(k^2)*
# is one simple block of dimension 4 (not grouplike); (End(k^2) x k)* adds a
# grouplike block; I_1 and I_2 have two grouplike blocks and higher stages
COALGEBRAS = {
    "End(k2)*": lambda F: dualize_algebra(end_k2(F)),
    "(End(k2) x k)*": lambda F: dualize_algebra(direct_product(end_k2(F), ground_algebra(F))),
    "I_1": lambda F: dualize_algebra(make_interval(F, 1).algebra),
    "I_2": lambda F: dualize_algebra(make_interval(F, 2).algebra),
}


def cubic(F):
    """k[v]/v^3 with |v| = 1 and d = 0: its MC elements in Hom(C, -) are the
    X with X^2 = 0, which couples the coordinates of a block."""
    space = GradedSpace.make([("1", 0), ("v", 1), ("v2", 2)], F)
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}, (1, 1): {2: 1}}
    return CurvedAlgebra(space, {0: 1}, mult, GradedMap(space, space, 1, {}), {})


ALGEBRAS = {
    "k[v]/v^3": cubic,
    "k + k<1>": lambda F: sqz(F, [1]),
    "k + k<0> + k<1>": lambda F: sqz(F, [0, 1]),
    "K": acyclic_k_algebra,
    "I^1": lambda F: make_interval(F, 1).algebra,
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("aname", sorted(ALGEBRAS))
@pytest.mark.parametrize("cname", sorted(COALGEBRAS))
def test_stage_zero_by_blocks_matches_brute_force(p, aname, cname):
    # the product over the blocks of stage 0 gives the MC set of plain
    # enumeration, element for element and in the same order
    F = GF(p)
    conv = convolution_algebra(COALGEBRAS[cname](F), ALGEBRAS[aname](F))
    assert mc_convolution_enumerate(conv) == mc_enumerate(conv.algebra)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.sampled_from(sorted(ALGEBRAS)))
def test_stage_zero_by_blocks_matches_brute_force_on_random_duals(p, seed, aname):
    F = GF(p)
    C = dualize_algebra(random_curved_algebra(random.Random(seed), F, 4))
    conv = convolution_algebra(C, ALGEBRAS[aname](F))
    try:
        brute = mc_enumerate(conv.algebra, budget=3**8)
    except BudgetExceeded:
        return
    assert mc_convolution_enumerate(conv) == brute


def test_stage_zero_refuses_with_the_sum_and_then_the_product():
    # (k^5)* has five grouplike blocks.  Against k + (v, u -> w) over F_2,
    # with |v| = |u| = 1 and du = w, each block has the four points
    # av + bu, of which the two with b = 0 are MC: 5 * 4 = 20 points to
    # enumerate, 2^5 = 32 in the product of the kept sets
    F = GF(2)
    k = ground_algebra(F)
    k5 = k
    for i in range(4):
        k5 = direct_product(k5, k, f"a{i}", f"b{i}")
    V = GradedSpace.make([("v", 1), ("u", 1), ("w", 2)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {1: {2: 1}}))
    conv = convolution_algebra(dualize_algebra(k5), A)
    for budget, required in ((19, 20), (20, 32), (31, 32)):
        with pytest.raises(BudgetExceeded) as e:
            mc_convolution_enumerate(conv, budget)
        assert (e.value.required, e.value.budget) == (required, budget)
    mc = mc_convolution_enumerate(conv, 32)
    assert len(mc) == 32 and mc == mc_enumerate(conv.algebra)


def test_conilpotency_degree():
    F = GF(2)
    assert conilpotency_degree(dualize_algebra(ground_algebra(F))) == 1
    assert conilpotency_degree(dual_sqz(F)) == 2
    assert conilpotency_degree(dualize_algebra(make_interval(F, 3).algebra)) is None


def test_bar_dual_of_k():
    F = GF(2)
    bd = bar_dual(ground_algebra(F), 3)
    assert bd.cobar.algebra.dim == 1


def test_adjunction_counts_simple_cells():
    F = GF(2)
    k = ground_algebra(F)
    Ck = dualize_algebra(k)
    # (k, A): count = |MC(A)|
    A = square_zero_algebra(
        GradedSpace.make([("v", 1)], F),
        GradedMap(GradedSpace.make([("v", 1)], F), GradedSpace.make([("v", 1)], F), 1, {}),
    )
    rep = adjunction_count_check(Ck, A, 0, N_max=3)
    assert rep["mc_count"] == len(mc_enumerate(A)) == 2
    assert rep["sides_agree"]
    assert rep["conclusive"]
    # (C conilpotent of degree 2): generator-level counts agree and the
    # factoring sequence stabilizes.  Note factoring-completeness can fail
    # even for conilpotent C (the cobar here is k[g] with |g| = 0, and the
    # morphism g -> 1 never factors through a length truncation).
    C2 = dual_sqz(F)
    rep2 = adjunction_count_check(C2, k, C2.space.index("1'"), N_max=3)
    assert rep2["sides_agree"]
    assert rep2["conilpotency_degree_C"] == 2
    assert rep2["omega_stabilized"] and rep2["bar_stabilized"]


def test_adjunction_counts_interval_cells():
    F = GF(2)
    I1 = make_interval(F, 1).algebra
    C = dualize_algebra(ground_algebra(F))
    rep = adjunction_count_check(C, I1, 0, N_max=3)
    assert rep["mc_count"] == 2  # MC(I^1) = {0, s}
    assert rep["sides_agree"]
    assert rep["conclusive"]

from curvlab.algebra import mc_enumerate, tensor_algebras
from curvlab.fields import GF, QQ
from curvlab.gradedlin import vec_is_zero
from curvlab.interval import (
    e_de_power,
    interval_diagonal,
    interval_dimension_check,
    make_interval,
    noncommutative_forms,
)


def test_interval_3_basis_and_validation():
    I = make_interval(QQ, 3)
    A = I.algebra
    labels = set(A.space.labels())
    assert labels == {"e_e", "e_f", "s", "t", "st", "ts", "sts"}
    assert A.dim == 7
    assert A.validate() == []
    assert vec_is_zero(A.field, A.h)
    assert interval_dimension_check(I)


def test_interval_1():
    I = make_interval(QQ, 1)
    assert set(I.algebra.space.labels()) == {"e_e", "e_f", "s"}
    assert I.algebra.validate() == []


def test_interval_differential_formulas():
    # d(s) = st + ts and d(st) = tst - sts in a truncation of I^infinity
    I = make_interval(QQ, None, truncation=4)
    A = I.algebra

    def v(lbl):
        return A.space.basis_vector(A.space.index(lbl))

    F = A.field
    ds = A.apply_d(v("s"))
    assert ds == {A.space.index("st"): F.one(), A.space.index("ts"): F.one()}
    dst = A.apply_d(v("st"))
    assert dst == {
        A.space.index("tst"): F.one(),
        A.space.index("sts"): F.neg(F.one()),
    }
    de = A.apply_d(v("e_e"))
    assert de == {A.space.index("t"): F.one(), A.space.index("s"): F.neg(F.one())}


def test_interval_valid_up_to_8():
    for n in range(1, 9):
        A = make_interval(GF(2), n).algebra
        assert A.validate() == []
        assert interval_dimension_check(make_interval(GF(2), n))


def test_ev_maps_are_morphisms():
    I = make_interval(QQ, 3)
    assert I.ev0.validate() == []
    assert I.ev1.validate() == []
    # quotient maps commute with ev: check ev on I^5 -> I^3 path implicitly
    F = I.algebra.field
    assert I.ev0.f.apply(I.algebra.unit) == {0: F.one()}


def test_interval_word_count_oracle():
    for n in (2, 4):
        I = make_interval(QQ, n)
        counts = I.presentation.word_counts_by_degree()
        for d, c in counts.items():
            assert I.algebra.space.dim_in_degree(d) == c


def test_mc_in_I3():
    # over F_2 only x = 0; over F_3 the solutions of a+b+ab=0 include (1,1)
    A2 = make_interval(GF(2), 3).algebra
    assert mc_enumerate(A2) == [{}]
    A3 = make_interval(GF(3), 3).algebra
    sols = mc_enumerate(A3)
    i_s, i_t = A3.space.index("s"), A3.space.index("t")
    assert {i_s: 1, i_t: 1} in sols
    # alpha + beta + alpha*beta = 0, i.e. (1+a)(1+b) = 1, has 2 solutions mod 3
    assert len(sols) == 2


def test_noncommutative_forms_iso():
    for n in (1, 2, 3, 4):
        Omega, I, iso = noncommutative_forms(GF(5), n)
        assert Omega.validate() == []
        assert iso.validate() == []
        assert Omega.dim == I.algebra.dim
        # elementwise bijectivity: images of basis vectors are distinct basis vectors
        seen = set()
        for j in range(Omega.dim):
            img = iso.f.apply(Omega.space.basis_vector(j))
            assert len(img) == 1
            seen.add(next(iter(img)))
        assert len(seen) == Omega.dim


def test_e_de_power_is_killed_monomial():
    # in Omega(k x k), e(de)^n maps to +/- the length-n t-leading monomial
    Omega, I, iso = noncommutative_forms(QQ, 3)
    w = e_de_power(QQ, 3, Omega)
    img = iso.f.apply(w)
    # the monomial tst is killed in I^3, so the image must be 0
    assert vec_is_zero(QQ, img)
    # in a long truncation of the forms algebra the word survives and is tst
    Omega6, I6, iso6 = noncommutative_forms(QQ, 6)
    w3 = e_de_power(QQ, 3, Omega6)
    img3 = iso6.f.apply(w3)
    A6 = I6.algebra
    assert set(img3) == {A6.space.index("tst")}


def test_diagonal_I1():
    res = interval_diagonal(QQ, 1)
    assert res["coassociative"] is True
    Delta = res["diagonal"]
    I1 = make_interval(QQ, 1).algebra
    T1 = res["target"]
    F = QQ
    De = Delta.apply(I1.space.basis_vector(I1.space.index("e_e")))
    assert De == {T1.space.index("e_e@e_e"): F.one()}
    Df = Delta.apply(I1.space.basis_vector(I1.space.index("e_f")))
    # Delta(f) = 1@1 - e@e
    expect = {}
    for k, c in T1.unit.items():
        expect[k] = c
    i_ee = T1.space.index("e_e@e_e")
    expect[i_ee] = F.sub(expect.get(i_ee, F.zero()), F.one())
    expect = {k: c for k, c in expect.items() if not F.is_zero(c)}
    assert Df == expect


def test_diagonal_descent_fails_for_n2_and_n3():
    for n in (2, 3):
        res = interval_diagonal(QQ, n)
        assert res["descends"] is False
        assert res["witness_terms"]


def test_tensor_of_intervals_validates():
    A = make_interval(QQ, 1).algebra
    T = tensor_algebras(A, A)
    assert T.dim == 9
    assert T.validate() == []

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from reference_linalg import dense, reference_rref, span_set
from reference_semisimple import (
    _ideal_closure,
    is_nilpotent_ideal,
    reference_css_section,
    reference_primitive_idempotents,
    reference_radical,
    reference_split_by_minimal_polynomial,
)

import curvlab.semisimple as semisimple
from curvlab.algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    compose_morphisms,
    direct_product,
    endomorphism_algebra,
    ground_algebra,
    identity_morphism,
    square_zero_algebra,
    tensor_algebras,
)
from curvlab.fields import GF, QQ
from curvlab.gradedlin import (
    EchelonBasis,
    GradedMap,
    GradedSpace,
    in_span,
    rref,
    span_rank,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
)
from curvlab.interval import make_interval
from curvlab.randgen import (
    acyclic_k_algebra,
    random_curved_algebra,
    rebased_algebra,
)
from curvlab.semisimple import (
    _primitive_central_idempotents,
    css_decompose,
    css_quotient,
    css_section,
    graded_radical,
    internal_curved_radical,
    nilpotent_tower,
    quotient_algebra,
    reassemble_check,
)


def test_radical_semisimple_is_zero():
    F = GF(2)
    kk = direct_product(ground_algebra(F), ground_algebra(F))
    assert graded_radical(kk) == []
    assert graded_radical(ground_algebra(QQ)) == []
    E = endomorphism_algebra(GradedSpace.make([("a", 0), ("b", 0)], QQ))
    assert graded_radical(E) == []


def test_radical_I3():
    for F in (GF(2), QQ):
        A = make_interval(F, 3).algebra
        J = graded_radical(A)
        assert span_rank(F, J, A.dim) == 5
        idx = set()
        for r in J:
            idx |= set(r)
        assert idx == {A.space.index(l) for l in ("s", "t", "st", "ts", "sts")}


@pytest.mark.parametrize("p, n, m", [(2, 2, 2), (3, 1, 2)])
def test_radical_past_the_enumeration_budget(p, n, m):
    # I_2 (x) I_2 over F_2 (2^25 elements) and I_1 (x) I_2 over F_3 (3^15):
    # the enumeration refused both at the default budget of 2^16.  The
    # quotient is (k x k) (x) (k x k) = k^4.
    F = GF(p)
    A = tensor_algebras(make_interval(F, n).algebra, make_interval(F, m).algebra)
    assert F.characteristic**A.dim > 2**16
    J = graded_radical(A)
    assert len(J) == A.dim - 4
    assert is_nilpotent_ideal(A, J)


def _non_monomial_case(name):
    F = GF(2)
    E = endomorphism_algebra(GradedSpace.make([("w0", 0), ("w1", 0)], F))
    V = GradedSpace.make([("v", 0)], F)
    kv = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    I1 = make_interval(F, 1).algebra
    return {
        "M2(kv)": lambda: tensor_algebras(E, kv),
        "End2xI1": lambda: direct_product(E, I1),
        "End2xk": lambda: direct_product(E, ground_algebra(F)),
        "kvxI1": lambda: direct_product(kv, I1),
    }[name]()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["M2(kv)", "End2xI1", "End2xk", "kvxI1"])
def test_radical_in_a_non_monomial_basis(name, seed):
    # over F_2: M_2(k[v]/v^2), End(k^2) x I_1, End(k^2) x k, k[v]/v^2 x I_1.
    # In a random unitriangular basis the rows of every I_i are sums of
    # basis vectors, so the steps i >= 1 must read coordinates at pivots
    # and raise to exactly the p^i-th power; these are cases where either
    # slip changes the radical
    B = rebased_algebra(random.Random(seed), _non_monomial_case(name))
    assert graded_radical(B) == reference_radical(B)


def test_radical_square_zero():
    F = GF(2)
    V = GradedSpace.make([("v0", 0), ("v1", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {0: {1: 1}}))
    J = graded_radical(A)
    assert span_rank(F, J, A.dim) == 2


def test_internal_curved_radical_I3():
    F = GF(2)
    A = make_interval(F, 3).algebra
    Jm = internal_curved_radical(A)
    # d(s), d(t) land in J, so J_- = J
    assert span_rank(F, Jm, A.dim) == 5
    B, pi, _ = css_quotient(A)
    assert B.dim == 2
    assert B.validate() == []


def test_internal_curved_radical_acyclic():
    # k + V with V = (k -> k) acyclic in degrees 0, 1: J = V, dJ inside J
    F = GF(2)
    V = GradedSpace.make([("v0", 0), ("v1", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {0: {1: 1}}))
    Jm = internal_curved_radical(A)
    assert span_rank(F, Jm, A.dim) == 2
    B, pi, _ = css_quotient(A)
    assert B.dim == 1


def test_internal_curved_radical_strict():
    # k + V, V = k in degree 0 with dv = 0 is NOT the case; make d leave J:
    # B = K (acyclic k[x]/x^2, dx = 1): J = kx but dx = 1 not in J, so J_- = 0
    F = GF(2)
    K = acyclic_k_algebra(F)
    J = graded_radical(K)
    assert span_rank(F, J, K.dim) == 1
    assert internal_curved_radical(K) == []


def test_css_decompose_k_times_k():
    F = GF(2)
    B = direct_product(ground_algebra(F), ground_algebra(F))
    dec = css_decompose(B)
    assert len(dec.factors) == 2
    assert all(f.kind == "type1" for f in dec.factors)
    assert reassemble_check(dec)


def test_css_decompose_K():
    for F in (GF(2), GF(3), QQ):
        K = acyclic_k_algebra(F)
        dec = css_decompose(K)
        assert len(dec.factors) == 1
        assert dec.factors[0].kind == "type2"
        assert reassemble_check(dec)


def test_css_decompose_splits_over_q():
    # the central idempotents over Q split products, as they do over F_p
    dec = css_decompose(direct_product(ground_algebra(QQ), ground_algebra(QQ)))
    assert [f.kind for f in dec.factors] == ["type1", "type1"]
    assert reassemble_check(dec)
    dec = css_decompose(direct_product(ground_algebra(QQ), acyclic_k_algebra(QQ)))
    assert sorted(f.kind for f in dec.factors) == ["type1", "type2"]
    assert reassemble_check(dec)


def test_css_decompose_product_mixed():
    F = GF(3)
    B = direct_product(
        direct_product(ground_algebra(F), ground_algebra(F)),
        acyclic_k_algebra(F),
        tagA="ss",
        tagB="k2",
    )
    dec = css_decompose(B)
    kinds = sorted(f.kind for f in dec.factors)
    assert kinds == ["type1", "type1", "type2"]
    assert reassemble_check(dec)


def test_css_decompose_type1_with_twist():
    # a dg structure on k x k with inner differential: twisting kills d
    F = GF(2)
    from curvlab.randgen import curved_twist_by_any

    B0 = direct_product(ground_algebra(F), ground_algebra(F))
    # no degree-1 elements: inner twist trivial; instead use End(V) with mixed degrees
    E = endomorphism_algebra(GradedSpace.make([("w0", 0), ("w1", 1)], F))
    z = {E.space.index("E[w1,w0]"): 1}
    B = curved_twist_by_any(E, z)
    assert B.validate() == []
    dec = css_decompose(B)
    assert len(dec.factors) == 1
    f = dec.factors[0]
    assert f.kind == "type1"
    assert vec_is_zero(F, f.normal_form.h)
    assert f.normal_form.d.is_zero()


def test_css_quotient_has_zero_internal_radical_random():
    F = GF(2)
    rng = random.Random(11)
    for _ in range(15):
        A = random_curved_algebra(rng, F, maxdim=6)
        B, pi, _ = css_quotient(A)
        assert internal_curved_radical(B) == []


def test_css_section_projection():
    F = GF(2)
    kk = direct_product(ground_algebra(F), ground_algebra(F))
    k = ground_algebra(F)
    from curvlab.algebra import CurvedMorphism

    pi = CurvedMorphism(
        kk, k, GradedMap(kk.space, k.space, 0, {0: {0: F.one()}}), {}
    )
    assert pi.validate() == []
    sec = css_section(pi)
    for j in range(k.dim):
        v = k.space.basis_vector(j)
        assert vec_eq(F, pi.f.apply(sec.f.apply(v)), v)


def test_css_section_mixed():
    F = GF(2)
    kk = direct_product(ground_algebra(F), ground_algebra(F))
    B = direct_product(kk, acyclic_k_algebra(F), tagA="ss", tagB="ac")
    from curvlab.algebra import CurvedMorphism

    # projection onto the k x k factor
    entries = {}
    for i in range(kk.dim):
        entries[B.space.index(f"ss.{kk.space.basis[i][0]}")] = {i: F.one()}
    pi = CurvedMorphism(B, kk, GradedMap(B.space, kk.space, 0, entries), {})
    sec = css_section(pi)
    for j in range(kk.dim):
        v = kk.space.basis_vector(j)
        assert vec_eq(F, pi.f.apply(sec.f.apply(v)), v)
    # section is multiplicative and d-compatible
    for i in range(kk.dim):
        for j in range(kk.dim):
            u, v = kk.space.basis_vector(i), kk.space.basis_vector(j)
            assert vec_eq(
                F,
                sec.f.apply(kk.product(u, v)),
                B.product(sec.f.apply(u), sec.f.apply(v)),
            )
            assert vec_eq(F, sec.f.apply(kk.d.apply(u)), B.d.apply(sec.f.apply(u)))


def test_nilpotent_tower_I3():
    F = GF(2)
    A = make_interval(F, 3).algebra
    B, pi, _ = css_quotient(A)  # A ->> k x k with kernel rad
    steps = nilpotent_tower(pi)
    assert len(steps) == 3  # rad, rad^2, rad^3
    comp = steps[0]
    for s in steps[1:]:
        comp = compose_morphisms(s, comp)
    for j in range(A.dim):
        v = A.space.basis_vector(j)
        assert vec_eq(F, comp.f.apply(v), pi.f.apply(v))


def test_nilpotent_tower_trivial_cases():
    F = GF(2)
    A = make_interval(F, 1).algebra
    assert nilpotent_tower(identity_morphism(A)) == []
    # square-zero pi: single step
    V = GradedSpace.make([("v", 1)], F)
    Asz = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    B, pi, _ = css_quotient(Asz)
    steps = nilpotent_tower(pi)
    assert len(steps) == 1


def test_d_injective_on_J_when_Jminus_zero():
    # "d: J -> dJ is an isomorphism" when J_- = 0: rank check on K
    F = GF(2)
    K = acyclic_k_algebra(F)
    J = graded_radical(K)
    assert internal_curved_radical(K) == []
    imgs = [K.d.apply(r) for r in J]
    assert span_rank(F, imgs, K.dim) == span_rank(F, J, K.dim)


@pytest.mark.parametrize("p", [2, 3])
def test_echelon_basis_matches_rref(p):
    # the incremental basis behind rref, graded_radical and the reference
    # radical's ideal closures:
    # its rows are those of a plain elimination of what was added, and
    # contains() is membership in the span enumerated by brute force
    F = GF(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        ncols = rng.randint(1, 9)

        def sparse_row():
            return {
                i: rng.randint(1, p - 1) for i in range(ncols) if rng.random() < 0.3
            }

        basis = EchelonBasis(F, ncols)
        added = []
        for _ in range(rng.randint(0, 8)):
            v = sparse_row()
            rank_before = len(reference_rref(F, added, ncols)[0])
            added.append(v)
            grew = len(reference_rref(F, added, ncols)[0]) > rank_before
            assert basis.add(v) == grew
            assert basis.rows() == reference_rref(F, added, ncols)[0]
            assert rref(F, added, ncols) == reference_rref(F, added, ncols)
        assert len(basis) == len(reference_rref(F, added, ncols)[0])
        span = span_set(p, added, ncols)
        assert len(span) == p ** len(basis)
        for _ in range(6):
            v = sparse_row()
            expected = len(reference_rref(F, added + [v], ncols)[0]) == len(basis)
            assert basis.contains(v) == expected == in_span(F, added, v, ncols)
            assert expected == (dense(v, ncols) in span)
        for r, q in zip(added, added[1:]):
            assert basis.contains(vec_add(F, r, vec_scale(F, p - 1, q)))


def test_ideal_closure_matches_fixpoint():
    # the work-queue closure against the plain fixpoint: multiply the whole
    # span by every basis vector on both sides until the rank stops growing
    F = GF(2)
    rng = random.Random(7)
    for _ in range(6):
        A = random_curved_algebra(rng, F, maxdim=6)
        for _ in range(4):
            v = {i: 1 for i in range(A.dim) if rng.random() < 0.4}
            rows, _ = rref(F, [v], A.dim)
            while True:
                prods = [
                    q
                    for r in rows
                    for j in range(A.dim)
                    for q in (
                        A.product(r, A.space.basis_vector(j)),
                        A.product(A.space.basis_vector(j), r),
                    )
                ]
                grown, _ = rref(F, rows + prods, A.dim)
                if len(grown) == len(rows):
                    break
                rows = grown
            assert _ideal_closure(A, [v]) == rows


def test_css_decompose_ignores_the_enumeration_budget(monkeypatch):
    # criterion 5's second algebra: two type-1 factors and one type-2 factor.
    # Nothing in the decomposition enumerates, so a default budget of 1
    # leaves every factor as it is
    rng = random.Random(53)
    for _ in range(2):
        A = random_curved_algebra(rng, GF(2), maxdim=8)
    B, _, _ = css_quotient(A)

    def factors():
        return [(f.kind, f.idempotent, f.basis_in_B) for f in css_decompose(B).factors]

    expected = factors()
    assert [kind for kind, _, _ in expected] == ["type1", "type1", "type2"]
    monkeypatch.setenv("CURVLAB_MAX_ENUM", "1")
    assert factors() == expected


def test_css_decompose_past_the_enumeration_budget():
    # the closed centre of k^17 over F_2 has 2^17 points, more than the
    # default budget of 2^16; its idempotents are found by the Berlekamp
    # split, not enumerated, so the decomposition takes no budget
    B = ground_algebra(GF(2))
    for _ in range(16):
        B = direct_product(B, ground_algebra(GF(2)))
    dec = css_decompose(B)
    assert [f.kind for f in dec.factors] == ["type1"] * 17
    assert sorted(list(f.idempotent.items()) for f in dec.factors) == [
        [(i, 1)] for i in range(17)
    ]
    assert reassemble_check(dec)


# ---------------------------------------------------------------------------
# the rational split on products of number fields


def number_field(f, tag):
    """Q[x]/(f) for the monic int polynomial f (constant term first), from
    its structure constants in the basis 1, x, ..., x^(d-1), all of degree 0."""
    deg = len(f) - 1
    space = GradedSpace.make([(f"{tag}{i}", 0) for i in range(deg)], QQ)

    def power(k):  # x^k mod f
        c = [Fraction(0)] * k + [Fraction(1)]
        for top in range(k, deg - 1, -1):
            t = c[top]
            for i, a in enumerate(f):
                c[top - deg + i] -= t * a
        return {i: v for i, v in enumerate(c[:deg]) if v}

    mult = {(i, j): power(i + j) for i in range(deg) for j in range(deg)}
    return CurvedAlgebra(space, {0: QQ.one()}, mult, GradedMap(space, space, 1, {}), {})


def _Q():
    return ground_algebra(QQ)


NUMBER_FIELDS = {  # name: (builder, number of factors)
    "Q(i)": (lambda: number_field([1, 0, 1], "i"), 1),
    "Q(i)xQ": (lambda: direct_product(number_field([1, 0, 1], "i"), _Q()), 2),
    "Q(cbrt2)xQ(i)": (lambda: direct_product(number_field([-2, 0, 0, 1], "c"), number_field([1, 0, 1], "i")), 2),
    "Q(sqrt2)xQ(sqrt2)": (lambda: direct_product(number_field([-2, 0, 1], "r"), number_field([-2, 0, 1], "s")), 2),
    "Q(zeta5)xQ": (lambda: direct_product(number_field([1, 1, 1, 1, 1], "z"), _Q()), 2),
    "QxQxQ(i)": (lambda: direct_product(direct_product(_Q(), _Q()), number_field([1, 0, 1], "i"), "kk", "i"), 3),
}


def exact(vectors):
    """Vectors as lists of (key, type, value), in key order."""
    return [[(k, type(c), c) for k, c in v.items()] for v in vectors]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(NUMBER_FIELDS))
def test_number_field_products_split_as_the_sympy_oracle(name, seed, monkeypatch):
    # in its own basis and in random unitriangular ones, where the splitters
    # are mixed and the minimal polynomials have degree up to dim B
    build, count = NUMBER_FIELDS[name]
    B = build() if seed is None else rebased_algebra(random.Random(seed), build())
    assert B.validate() == []
    dec = css_decompose(B)
    assert [f.kind for f in dec.factors] == ["type1"] * count
    assert reassemble_check(dec)
    got = _primitive_central_idempotents(B)
    assert exact(got) == exact([f.idempotent for f in dec.factors])
    assert sorted(sorted(z.items()) for z in got) == sorted(
        sorted(z.items()) for z in reference_primitive_idempotents(B)
    )
    monkeypatch.setattr(semisimple, "_split_by_minimal_polynomial", reference_split_by_minimal_polynomial)
    assert exact(_primitive_central_idempotents(B)) == exact(got)
    want = css_decompose(B)
    assert [exact(f.basis_in_B) for f in dec.factors] == [exact(f.basis_in_B) for f in want.factors]


def test_rational_split_matches_the_sympy_oracle_on_the_q_share(monkeypatch):
    # the criterion-5 generator over Q (the radical benchmark's Q share):
    # every factor identical to the one the sympy split gives
    def factors():
        pool = random.Random(53)
        out = []
        for _ in range(20):
            B, _, _ = css_quotient(random_curved_algebra(pool, QQ, maxdim=8))
            out.append([(f.kind, exact([f.idempotent]), exact(f.basis_in_B)) for f in css_decompose(B).factors])
        return out

    got = factors()
    assert sum(len(fs) >= 2 for fs in got) >= 5
    monkeypatch.setattr(semisimple, "_split_by_minimal_polynomial", reference_split_by_minimal_polynomial)
    assert factors() == got


def test_rational_split_faults_raise(monkeypatch):
    # a common factor of the CRT parts, or a piece that is not idempotent,
    # is a program fault: it raises instead of leaving the block unsplit
    split = semisimple._split_by_minimal_polynomial
    B = direct_product(_Q(), _Q())
    z = {0: QQ.one()}  # minimal polynomial x^2 - x
    assert len(split(B, dict(B.unit), z)) == 2
    x, x_minus = [Fraction(0), Fraction(1)], (lambda a: [Fraction(-a), Fraction(1)])
    monkeypatch.setattr(semisimple, "factor_over_q", lambda f: [(x, 1), (x_minus(2), 1)])
    with pytest.raises(AssertionError, match="not idempotent"):
        split(B, dict(B.unit), z)
    # k[v]/v^2 and z = 1 + v: minimal polynomial (x - 1)^2, given as two factors
    V = GradedSpace.make([("v", 0)], QQ)
    D = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    monkeypatch.setattr(semisimple, "factor_over_q", lambda f: [(x_minus(1), 1)] * 2)
    with pytest.raises(AssertionError, match="not coprime"):
        split(D, dict(D.unit), {0: QQ.one(), 1: QQ.one()})


def test_css_pipeline_over_q_runs_without_sympy():
    # sympy is a test oracle only: with its import blocked, the quotient,
    # the decomposition and a section over Q still run
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import random\n"
        "from curvlab.algebra import direct_product, ground_algebra\n"
        "from curvlab.fields import QQ\n"
        "from curvlab.randgen import random_curved_algebra\n"
        "from curvlab.semisimple import css_decompose, css_quotient, css_section, quotient_algebra\n"
        "k = ground_algebra(QQ)\n"
        "pool = random.Random(53)\n"
        "algebras = [direct_product(direct_product(k, k), k)] + [random_curved_algebra(pool, QQ, maxdim=8) for _ in range(6)]\n"
        "for A in algebras:\n"
        "    B, pi, _ = css_quotient(A)\n"
        "    dec = css_decompose(B)\n"
        "    if len(dec.factors) >= 2:\n"
        "        R, pi2 = quotient_algebra(B, dec.factors[-1].basis_in_B, tag='p')\n"
        "        css_section(pi2)\n"
        "    print(len(dec.factors))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "3"


# ---------------------------------------------------------------------------
# sections against the decomposing oracle


def _outcome(section, pi):
    """section(pi) as (key, type, value) lists per column, or the error it
    raised."""
    try:
        sec = section(pi)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return [(j, exact([v])) for j, v in sec.f.entries.items()]


@pytest.mark.parametrize("field, draws", [(GF(2), 50), (GF(3), 20), (QQ, 20)], ids=["F2", "F3", "Q"])
def test_css_section_matches_the_decomposing_oracle(field, draws):
    # the criterion-5 draws: for every projection onto a sub-product of
    # factors (killing any set of them), the same section, key order and
    # coefficient types included
    pool = random.Random(53)
    sections = 0
    for _ in range(draws):
        B, _, _ = css_quotient(random_curved_algebra(pool, field, maxdim=8))
        factors = css_decompose(B).factors
        for r in range(len(factors) + 1):
            for killed in itertools.combinations(factors, r):
                _, pi = quotient_algebra(B, [v for f in killed for v in f.basis_in_B], tag="p")
                got = _outcome(css_section, pi)
                assert got == _outcome(reference_css_section, pi)
                sections += isinstance(got, list)
    assert sections >= 2 * draws


def _linear_map(A, B, images):
    """The degree-0 linear map A -> B with the given images of basis labels
    (label -> {label: coefficient}); unlisted basis vectors go to 0."""
    F = A.field
    entries = {
        A.space.index(a): {B.space.index(b): F.coerce(c) for b, c in img.items()} for a, img in images.items()
    }
    return CurvedMorphism(A, B, GradedMap(A.space, B.space, 0, entries), {})


@pytest.mark.parametrize("F", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_css_section_refuses_kernels_that_are_not_sums_of_factors(F):
    # the same ValueError as the oracle where the kernel is not a d-closed
    # two-sided ideal: k - k in k x k is not an ideal; three of the four
    # matrix units of End(k^2) x k are part of a factor and no ideal; x in
    # the type-2 factor k[x]/x^2 (dx = 1) of k x k[x]/x^2 spans an ideal
    # that d leaves
    k, kk = ground_algebra(F), direct_product(ground_algebra(F), ground_algebra(F))
    E = endomorphism_algebra(GradedSpace.make([("a", 0), ("b", 0)], F))
    cases = [
        _linear_map(kk, k, {"L.1": {"1": 1}, "R.1": {"1": 1}}),
        _linear_map(direct_product(E, k, "E", "k"), kk, {"E.E[a,a]": {"L.1": 1}, "k.1": {"R.1": 1}}),
        _linear_map(direct_product(k, acyclic_k_algebra(F), "k", "K"), kk, {"k.1": {"L.1": 1}, "K.1": {"R.1": 1}}),
    ]
    for pi in cases:
        with pytest.raises(ValueError, match="does not restrict to an isomorphism"):
            css_section(pi)
        assert _outcome(css_section, pi) == _outcome(reference_css_section, pi)

"""Property tests: the field kernels and the sparse arithmetic on them
against the generic per-coefficient loops of reference_algebra.py, the
affine enumerator against itertools.product, the axiom check against the
reference loops, the two-sided twist against its per-basis reference, the
MC linearisation and the cached chain maps, the tensor layout (Koszul
conventions, the label-based index, split and map), the radical and the
primitive central idempotents against the enumerating references of
reference_semisimple.py, the factorizer of the rational split against
sympy.factor_list, the obstruction calculus read off the total algebra
against the Hochschild formulas of reference_mc.py, and the CLI exit codes
on mutated documents."""

import contextlib
import copy
import io
import itertools
import json
import os
import random
import tempfile
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.algebra import (
    algebra_in_basis,
    endomorphism_algebra,
    mc_enumerate,
    tensor_algebras,
    tensor_element,
    tensor_index,
    tensor_map,
    tensor_rows,
    tensor_split,
    twisted_apply,
    twisted_map,
)
from curvlab.cli import main
from curvlab.documents import dump_algebra
from curvlab.fields import GF, QQ, PrimeFieldRequired
from curvlab.gradedlin import (
    BudgetExceeded,
    EchelonBasis,
    GradedMap,
    GradedSpace,
    LinearSystem,
    enumerate_affine,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
)
from curvlab.interval import make_interval
from curvlab.mc import GaugeClasses, find_gauge_quadruple, h0_hom, n_homotopy_search, verify_n_homotopy
from curvlab.obstruction import extension_from_total, lift_along_gauge, obstruction_class, try_lift
from curvlab.randgen import random_curved_algebra, random_square_zero_extension, rebased_algebra
from curvlab.polynomials import factor_over_q
from curvlab.semisimple import _primitive_central_idempotents, css_quotient, graded_radical
from reference_algebra import (
    reference_add_scaled,
    reference_apply,
    reference_chain_map_dim,
    reference_echelon,
    reference_product,
    reference_reduce,
    reference_tensor_index,
    reference_twisted_apply,
    reference_validate,
    reference_vec_add,
    reference_vec_scale,
    reference_vec_sub,
)
from reference_mc import (
    exhaustive_gauge_quadruple,
    exhaustive_lift_search,
    obstructed_witness,
    reference_gauge_quadruple,
    reference_lift_along_gauge,
    reference_obstruction_class,
    reference_try_lift,
)
from reference_semisimple import reference_primitive_idempotents, reference_radical, sympy_factor_list

FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}
KERNEL_FIELDS = {"F2": GF(2), "F3": GF(3), "F5": GF(5), "Q": QQ}
SETTINGS = dict(deadline=None, database=None, derandomize=True)


# ---------------------------------------------------------------------------
# field kernels and sparse arithmetic against the generic reference


def coefficients(F, nonzero=False):
    """Zero, negative and (mod p) unreduced coefficients; over Q both ints
    and Fractions, so that a change of coefficient type shows."""
    if F.is_prime_field:
        p = F.characteristic
        cs = st.integers(-2 * p, 2 * p)
        return cs.filter(lambda c: c % p) if nonzero else cs
    cs = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    return cs.filter(bool) if nonzero else cs


def vectors(F, dim=6, nonzero=False):
    return st.dictionaries(st.integers(0, dim - 1), coefficients(F, nonzero), max_size=dim)


def typed(v: dict) -> list:
    """Keys in order with the value and the type of each coefficient."""
    return [(i, type(c).__name__, c) for i, c in v.items()]


field_names = st.sampled_from(sorted(KERNEL_FIELDS))


@settings(max_examples=300, **SETTINGS)
@given(st.data())
def test_add_scaled_and_vec_sub_match_reference(data):
    F = KERNEL_FIELDS[data.draw(field_names)]
    out, v = data.draw(vectors(F)), data.draw(vectors(F))
    c = data.draw(coefficients(F))
    acc = dict(out)
    F.add_scaled(acc, c, v)
    assert typed(acc) == typed(reference_add_scaled(F, out, c, v))
    assert typed(vec_sub(F, out, v)) == typed(reference_vec_sub(F, out, v))


@settings(max_examples=200, **SETTINGS)
@given(st.data())
def test_scale_and_vec_scale_match_reference(data):
    F = KERNEL_FIELDS[data.draw(field_names)]
    v, c = data.draw(vectors(F)), data.draw(coefficients(F))
    ref = typed(reference_vec_scale(F, c, v))
    assert typed(F.scale(c, v)) == ref
    assert typed(vec_scale(F, c, v)) == ref


@settings(max_examples=200, **SETTINGS)
@given(st.data())
def test_vec_add_matches_reference(data):
    """u may hold zero and unreduced coefficients; a zero coefficient of v
    is skipped (see test_vec_add_skips_a_zero_coefficient_of_v)."""
    F = KERNEL_FIELDS[data.draw(field_names)]
    u, v = data.draw(vectors(F)), data.draw(vectors(F, nonzero=True))
    assert typed(vec_add(F, u, v)) == typed(reference_vec_add(F, u, v))


def test_vec_add_skips_a_zero_coefficient_of_v():
    F = GF(3)
    assert vec_add(F, {0: 3, 1: 4}, {0: 0, 1: 3}) == {0: 3, 1: 4}
    assert vec_add(F, {0: 3}, {0: 1}) == {0: 1}


@lru_cache(maxsize=None)
def kernel_algebra(field: str, index: int):
    F = KERNEL_FIELDS[field]
    if index < 2:
        return make_interval(F, index + 1).algebra
    return random_curved_algebra(random.Random(2000 + index), F, maxdim=6)


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_product_and_apply_match_reference(data):
    field = data.draw(field_names)
    F = KERNEL_FIELDS[field]
    A = copy.deepcopy(kernel_algebra(field, data.draw(st.integers(0, 4))))
    n = A.dim
    for _ in range(data.draw(st.integers(0, 2))):  # zero, negative, unreduced constants
        key = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        A.mult[key] = data.draw(vectors(F, n))
    if A.d.entries and data.draw(st.booleans()):
        A.d.entries[data.draw(st.sampled_from(sorted(A.d.entries)))] = data.draw(vectors(F, n))
    u, v = data.draw(vectors(F, n)), data.draw(vectors(F, n))
    assert typed(A.product(u, v)) == typed(reference_product(A, u, v))
    assert typed(A.d.apply(u)) == typed(reference_apply(A.d, u))


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_echelon_basis_matches_reference(data):
    F = KERNEL_FIELDS[data.draw(field_names)]
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(vectors(F, ncols + 2), max_size=6))
    E = EchelonBasis(F, ncols, rows)
    ref = reference_echelon(F, ncols, rows)
    assert list(E._pivot_rows) == list(ref)
    assert [typed(r) for r in E._pivot_rows.values()] == [typed(r) for r in ref.values()]
    v = data.draw(vectors(F, ncols + 2))
    assert typed(E.reduce(v)) == typed(reference_reduce(F, ref, v))


# ---------------------------------------------------------------------------
# enumerate_affine


@st.composite
def affine_data(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(0, {2: 5, 3: 3, 5: 2}[p]))
    vec = st.dictionaries(st.integers(0, dim - 1), st.integers(0, p - 1), max_size=dim)
    return GF(p), draw(vec), draw(st.lists(vec, min_size=k, max_size=k))


def reference_points(F, particular, kernel):
    """itertools.product varies its last factor fastest; kernel[0] is the
    lowest digit, so the coefficient tuple is read reversed."""
    pts = []
    for digits in itertools.product(range(F.characteristic), repeat=len(kernel)):
        v = dict(particular)
        for c, k in zip(reversed(digits), kernel):
            if c:
                v = vec_add(F, v, vec_scale(F, c, k))
        pts.append(v)
    return pts


@settings(max_examples=150, **SETTINGS)
@given(affine_data())
def test_enumerate_affine_matches_product_reference(data):
    F, particular, kernel = data
    pts = list(enumerate_affine(F, particular, kernel, F.characteristic ** len(kernel)))
    ref = reference_points(F, particular, kernel)
    assert len(pts) == F.characteristic ** len(kernel)
    assert pts == ref
    assert [list(v) for v in pts] == [list(v) for v in ref]  # key order


@settings(max_examples=40, **SETTINGS)
@given(affine_data())
def test_enumerate_affine_refuses_at_the_call(data):
    F, particular, kernel = data
    required = F.characteristic ** len(kernel)
    with pytest.raises(BudgetExceeded) as e:
        enumerate_affine(F, particular, kernel, required - 1)  # no point is drawn
    assert (e.value.required, e.value.budget) == (required, required - 1)


# ---------------------------------------------------------------------------
# validate


@lru_cache(maxsize=None)
def base_algebra(field: str, kind: str, index: int):
    F = FIELDS[field]
    if kind == "interval":
        return make_interval(F, index + 1).algebra
    if kind == "random":
        rng = random.Random(1000 + index)
        return random_curved_algebra(rng, F, maxdim=8)
    # interval tensor products of dimension 25, 27 and 33
    n, m = [(2, 2), (1, 4), (1, 5)][index]
    return tensor_algebras(make_interval(F, n).algebra, make_interval(F, m).algebra)


@st.composite
def perturbed(draw, kinds, indices):
    field = draw(st.sampled_from(sorted(FIELDS)))
    A = copy.deepcopy(base_algebra(field, draw(st.sampled_from(kinds)), draw(indices)))
    F, n = A.field, A.dim
    coeff = st.integers(1, 4) if F.is_prime_field else st.integers(-2, 2)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        want = A.degree(i) + A.degree(j)
        targets = [k for k in range(n) if A.degree(k) == want] or [0]
        terms = draw(st.lists(st.tuples(st.sampled_from(targets), coeff), max_size=3))
        A.mult[(i, j)] = {k: F.coerce(c) for k, c in terms}
    if A.d.entries and draw(st.booleans()):
        A.d.entries[draw(st.sampled_from(sorted(A.d.entries)))] = {}
    return A, draw(st.sampled_from([1, 3, 8, 50]))


@settings(max_examples=80, **SETTINGS)
@given(perturbed(["interval", "random"], st.integers(0, 5)))
def test_validate_matches_reference_below_dim_24(case):
    A, max_violations = case
    assert A.validate(max_violations) == reference_validate(A, max_violations)


@settings(max_examples=12, **SETTINGS)
@given(perturbed(["tensor"], st.integers(0, 2)))
def test_validate_matches_reference_from_dim_24(case):
    A, max_violations = case
    assert A.dim >= 24
    assert A.validate(max_violations) == reference_validate(A, max_violations)


# ---------------------------------------------------------------------------
# the two-sided twist


@st.composite
def twist_algebras(draw):
    """A random curved algebra over F_2, F_3 or Q, in a random non-monomial
    basis half of the time."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    A = random_curved_algebra(rng, F, maxdim=6)
    return rebased_algebra(rng, A) if draw(st.booleans()) else A


def degree_one(A):
    idx1 = A.degree_indices(1)
    if not idx1:
        return st.just({})
    return st.dictionaries(st.sampled_from(idx1), coefficients(A.field), max_size=len(idx1))


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_twisted_apply_matches_reference(data):
    """On any vector, in values and coefficient types; on a basis vector
    also in key order, which is the order of the columns of twisted_map."""
    A = data.draw(twist_algebras())
    x, y = data.draw(degree_one(A)), data.draw(degree_one(A))
    v = data.draw(vectors(A.field, A.dim))
    got = twisted_apply(A, x, y, v)
    assert sorted(typed(got)) == sorted(typed(reference_twisted_apply(A, x, y, v)))
    D = twisted_map(A, x, y)
    for i in range(A.dim):
        want = reference_twisted_apply(A, x, y, A.space.basis_vector(i))
        assert typed(D.entries.get(i, {})) == typed(want)


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_mc_residual_difference_is_the_twist_plus_the_square(data):
    """R(P + e_k) - R(P) = D_{P->P}(e_k) + e_k e_k for R(X) = h + dX + X^2,
    any degree-1 P and degree-1 e_k: the columns of the MC linearisations."""
    A = data.draw(twist_algebras())
    F, P = A.field, data.draw(degree_one(A))
    base = A.mc_residual(P)
    for k in A.degree_indices(1):
        e = A.space.basis_vector(k)
        col = vec_add(F, twisted_apply(A, P, P, e), A.basis_product(k, k))
        want = vec_sub(F, A.mc_residual(vec_add(F, P, e)), base)
        assert sorted(typed(col)) == sorted(typed(want))


def small_mc_elements(A):
    """The MC elements over F_p; over Q those with coefficients -1, 0, 1."""
    if A.field.is_prime_field:
        return mc_enumerate(A)
    idx1 = A.degree_indices(1)
    points = (
        {i: QQ.coerce(c) for i, c in zip(idx1, cs) if c}
        for cs in itertools.product((-1, 0, 1), repeat=len(idx1))
    )
    return [x for x in points if A.is_mc(x)]


@settings(max_examples=100, **SETTINGS)
@given(st.data())
def test_chain_map_basis_is_the_degree_0_kernel_of_the_twist(data):
    """The gauge solve's columns of D_{x->y}, each the sum of x's cached
    source half and y's cached target half, are the degree-0 and degree -1
    columns of twisted_map(A, x, y); so its chain maps x -> y are the
    kernel of the degree-0 columns, as LinearSystem gives it."""
    A = data.draw(twist_algebras())
    mc = small_mc_elements(A)
    if not mc:
        return
    x, y = data.draw(st.sampled_from(mc)), data.draw(st.sampled_from(mc))
    gauge = GaugeClasses(A)
    ex, ey = gauge._element(x), gauge._element(y)
    D = twisted_map(A, x, y)
    for got, degree in (
        (gauge._columns(ex.source0, ey.target0), 0),
        (gauge._columns(ex.sourcem1, ey.targetm1), -1),
    ):
        want = [D.entries.get(j, {}) for j in A.degree_indices(degree)]
        assert [sorted(typed(c)) for c in got] == [sorted(typed(c)) for c in want]
    kernel = LinearSystem(A.field, gauge._columns(ex.source0, ey.target0), A.dim).kernel
    want = LinearSystem(A.field, [D.entries.get(j, {}) for j in A.degree_indices(0)], A.dim).kernel
    assert [typed(k) for k in kernel] == [typed(k) for k in want]


# ---------------------------------------------------------------------------
# gauge verdicts and witnesses: the affine solve per H^0 class against the
# exhaustive quadruple search

GAUGE_FIELDS = {"F2": GF(2), "F3": GF(3), "F5": GF(5)}
# End(V) for V with one basis vector per degree listed: adjacent degrees give
# a degree -1 part, so the homotopies h1, h2 can be nonzero
END_DEGREES = [(0, 1), (1, 0), (0, 1, 1), (1, 0, 0), (0, 1, 2), (-1, 0, 1)]


@st.composite
def gauge_algebras(draw):
    """A random curved algebra over F_2, F_3 or F_5, in a random basis half
    of the time, or End(V) for a V of adjacent degrees."""
    F = GAUGE_FIELDS[draw(st.sampled_from(sorted(GAUGE_FIELDS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        degrees = draw(st.sampled_from(END_DEGREES))
        return endomorphism_algebra(GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F))
    A = random_curved_algebra(rng, F, maxdim=6)
    return rebased_algebra(rng, A) if draw(st.booleans()) else A


def verdict_or_refusal(fn):
    try:
        return fn()
    except BudgetExceeded as exc:
        return ("refused", exc.required, exc.budget)


def h0_refusal(A, x, y, budget):
    """The verdict's refusal, if any: ("refused", p^dim H^0(x, y), budget)
    exactly when x != y, dim H^0(x, x) = dim H^0(y, y) and that count is
    over the budget."""
    dims = [h0_hom(A, u, v)["dim"] for u, v in ((x, y), (x, x), (y, y))]
    count = A.field.characteristic ** dims[0]
    if x != y and dims[1] == dims[2] and count > budget:
        return ("refused", count, budget)
    return None


def reference_verdict(A, x, y):
    """The exhaustive oracle's quadruple(x, y) is not None where it answers
    at 2^12, and a memo-free verdict where it refuses."""
    search = verdict_or_refusal(lambda: exhaustive_gauge_quadruple(A, x, y, 2**12) is not None)
    return GaugeClasses(A, budget=2**12).equivalent(x, y) if isinstance(search, tuple) else search


def witness_or_refusal(gauge, x, y):
    """gauge.quadruple(x, y) is not None, or its refusal; a witness must
    validate."""

    def witness():
        q = gauge.quadruple(x, y)
        assert q is None or q.validate() == []
        return q is not None

    return verdict_or_refusal(witness)


@settings(max_examples=200, **SETTINGS)
@given(st.data())
def test_gauge_verdict_is_the_quadruple_search(data):
    """Through one memo, equivalent(x, y) and quadruple(x, y) refuse exactly
    as `h0_refusal` says, and otherwise equal (the oracle's quadruple(x, y)
    is not None) wherever the oracle answers, or else a memo-free verdict;
    every witness validates.  At budgets 1 and p the same holds of fresh
    instances, while the oracle still refuses with
    p^(dim Z0(x,y) + dim Z0(y,x)) over the budget."""
    A = data.draw(gauge_algebras())
    mc = mc_enumerate(A)
    if not mc:
        return
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(mc), st.sampled_from(mc)), min_size=1, max_size=6))
    memo = GaugeClasses(A, budget=2**12)
    for x, y in pairs:
        want = h0_refusal(A, x, y, 2**12) or reference_verdict(A, x, y)
        assert verdict_or_refusal(lambda: memo.equivalent(x, y)) == want
        assert witness_or_refusal(memo, x, y) == want
    x, y = pairs[0]
    p = A.field.characteristic
    for budget in (1, p):
        search = verdict_or_refusal(lambda: exhaustive_gauge_quadruple(A, x, y, budget) is not None)
        count = p ** (reference_chain_map_dim(A, x, y) + reference_chain_map_dim(A, y, x))
        assert search == (("refused", count, budget) if count > budget else reference_verdict(A, x, y))
        want = h0_refusal(A, x, y, budget) or reference_verdict(A, x, y)
        assert verdict_or_refusal(lambda: GaugeClasses(A, budget).equivalent(x, y)) == want
        assert witness_or_refusal(GaugeClasses(A, budget), x, y) == want
    # unequal dim H^0(x, x), dim H^0(y, y) and equal ends answer at budget 1
    for x, y in pairs:
        assert GaugeClasses(A, 1).equivalent(x, x) is True
        assert GaugeClasses(A, 1).quadruple(x, x).validate() == []
        if h0_hom(A, x, x)["dim"] != h0_hom(A, y, y)["dim"]:
            assert GaugeClasses(A, 1).equivalent(x, y) is False
            assert GaugeClasses(A, 1).quadruple(x, y) is None


@st.composite
def homotopy_algebras(draw):
    """End(V) for a V of adjacent degrees, or a random curved algebra with a
    degree -1 part (the first of the seeded draws that has one), over F_2,
    F_3 or F_5: algebras where B^0(x, y) and the homotopies can be nonzero."""
    F = GAUGE_FIELDS[draw(st.sampled_from(sorted(GAUGE_FIELDS)))]
    if draw(st.booleans()):
        degrees = draw(st.sampled_from(END_DEGREES))
        return endomorphism_algebra(GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    A = random_curved_algebra(rng, F, maxdim=6)
    while not A.degree_indices(-1):
        A = random_curved_algebra(rng, F, maxdim=6)
    return A


def witness_items(fn):
    """fn()'s quadruple as the items of (f, g, h1, h2) in key order, None,
    or the refusal."""
    q = verdict_or_refusal(fn)
    return q if q is None or isinstance(q, tuple) else [list(v.items()) for v in (q.f, q.g, q.h1, q.h2)]


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_gauge_witness_is_the_reference_solve(data):
    """On algebras with a degree -1 part, the witness of the gauge solve is
    the reference solve's (f, g, h1, h2), values and key order, and both
    refuse alike, at budgets 1, p, p^2 and 2^12; the verdict, fresh or
    through one memo, is True exactly where there is a witness and refuses
    exactly where the witness does.  Every witness validates."""
    A = data.draw(homotopy_algebras())
    assert A.degree_indices(-1)
    mc = mc_enumerate(A)
    if not mc:
        return
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(mc), st.sampled_from(mc)), min_size=1, max_size=6))
    p = A.field.characteristic
    memo = GaugeClasses(A, budget=2**12)
    for x, y in pairs:
        for budget in (1, p, p * p, 2**12):
            want = witness_items(lambda: reference_gauge_quadruple(A, x, y, budget))
            assert witness_items(lambda: GaugeClasses(A, budget).quadruple(x, y)) == want
            verdict = want if want is None or isinstance(want, tuple) else True
            assert verdict_or_refusal(lambda: GaugeClasses(A, budget).equivalent(x, y)) == (verdict or False)
        assert verdict_or_refusal(lambda: memo.equivalent(x, y)) == (verdict or False)
        q = verdict_or_refusal(lambda: find_gauge_quadruple(A, x, y, 2**12))
        assert q is None or isinstance(q, tuple) or q.validate() == []


@settings(max_examples=100, **SETTINGS)
@given(st.data())
def test_three_homotopy_is_built_on_the_equivalent_pairs(data):
    """n_homotopy_search(x, y, 3) refuses only as the verdict does, and
    otherwise returns a verified 3-homotopy exactly on the gauge-equivalent
    pairs."""
    A = data.draw(gauge_algebras())
    mc = mc_enumerate(A)
    if not mc:
        return
    x, y = data.draw(st.sampled_from(mc)), data.draw(st.sampled_from(mc))
    got = verdict_or_refusal(lambda: n_homotopy_search(A, x, y, 3, 2**12))
    want = h0_refusal(A, x, y, 2**12) or reference_verdict(A, x, y)
    if isinstance(got, tuple):
        assert got == want
        return
    assert (got is not None) == (want is True or isinstance(want, tuple))
    assert got is None or verify_n_homotopy(A, x, y, 3, got.X)


@settings(max_examples=20, **SETTINGS)
@given(st.data())
def test_gauge_verdict_over_Q_requires_a_prime_field(data):
    A = random_curved_algebra(random.Random(data.draw(st.integers(0, 2**32 - 1))), QQ, maxdim=6)
    mc = small_mc_elements(A)
    if not mc:
        return
    x, y = data.draw(st.sampled_from(mc)), data.draw(st.sampled_from(mc))
    for search in (GaugeClasses(A).equivalent, GaugeClasses(A).quadruple):
        with pytest.raises(PrimeFieldRequired):
            search(x, y)


# ---------------------------------------------------------------------------
# the tensor layout


@st.composite
def tensor_pairs(draw):
    """Two random curved algebras over one of F_2, F_3 and Q, each in a
    random non-monomial basis half of the time."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        A = random_curved_algebra(rng, F, maxdim=4)
        pair.append(rebased_algebra(rng, A) if draw(st.booleans()) else A)
    return tuple(pair)


def homogeneous(A):
    """A homogeneous element of A, as (degree, vector)."""
    F = A.field

    @st.composite
    def draw_it(draw):
        deg = draw(st.sampled_from(A.space.degrees_present()))
        idx = A.space.indices_of_degree(deg)
        v = draw(st.dictionaries(st.sampled_from(idx), coefficients(F), max_size=len(idx)))
        return deg, v

    return draw_it()


def sign(F, n):
    return F.neg(F.one()) if n % 2 else F.one()


@settings(max_examples=60, **SETTINGS)
@given(st.data())
def test_tensor_algebras_follow_the_koszul_conventions(data):
    """For homogeneous a, a' in A and b, b' in B, with x @ y built by
    tensor_element: (a@b)(a'@b') = (-1)^{|b||a'|} aa'@bb',
    d(a@b) = da@b + (-1)^{|a|} a@db, 1 = 1@1 and h = h@1 + 1@h."""
    A, B = data.draw(tensor_pairs())
    F, nB = A.field, B.dim
    T = tensor_algebras(A, B)
    (da, a), (da2, a2) = data.draw(homogeneous(A)), data.draw(homogeneous(A))
    (db, b), (_, b2) = data.draw(homogeneous(B)), data.draw(homogeneous(B))

    def t(x, y):
        return tensor_element(F, x, y, nB)

    lhs = T.product(t(a, b), t(a2, b2))
    rhs = vec_scale(F, sign(F, db * da2), t(A.product(a, a2), B.product(b, b2)))
    assert vec_eq(F, lhs, rhs)
    rhs = vec_add(F, t(A.d.apply(a), b), vec_scale(F, sign(F, da), t(a, B.d.apply(b))))
    assert vec_eq(F, T.d.apply(t(a, b)), rhs)
    assert vec_eq(F, T.unit, t(A.unit, B.unit))
    assert vec_eq(F, T.h, vec_add(F, t(A.h, B.unit), t(A.unit, B.h)))


@settings(max_examples=60, **SETTINGS)
@given(tensor_pairs())
def test_tensor_index_matches_the_labels(pair):
    A, B = pair
    T = tensor_algebras(A, B)
    for i in range(A.dim):
        for j in range(B.dim):
            assert tensor_index(i, j, B.dim) == reference_tensor_index(T, A, B, i, j)


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_tensor_split_inverts_tensor_element(data):
    """v = a @ b splits into v_j = b_j a along the right factor and into
    v_i = a_i b along the left one, in values, types and key order."""
    F = KERNEL_FIELDS[data.draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    nA, nB = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a, b = data.draw(vectors(F, nA)), data.draw(vectors(F, nB))
    v = tensor_element(F, a, b, nB)
    cols = {j: F.scale(c, a) for j, c in b.items()}
    rows = {i: F.scale(c, b) for i, c in a.items()}
    assert [(j, typed(u)) for j, u in tensor_split(v, nB).items()] == [
        (j, typed(u)) for j, u in cols.items() if u
    ]
    assert [(i, typed(u)) for i, u in tensor_rows(v, nB).items()] == [
        (i, typed(u)) for i, u in rows.items() if u
    ]


def degree_zero_map(A):
    """A random degree-0 map of A's space into itself."""
    F = A.field

    @st.composite
    def draw_it(draw):
        entries = {}
        for j in range(A.dim):
            same = A.space.indices_of_degree(A.degree(j))
            entries[j] = draw(st.dictionaries(st.sampled_from(same), coefficients(F), max_size=2))
        return GradedMap(A.space, A.space, 0, entries)

    return draw_it()


@settings(max_examples=60, **SETTINGS)
@given(st.data())
def test_tensor_map_composes_factorwise(data):
    """(f @ g)(f' @ g') = ff' @ gg' for degree-0 maps; other degrees raise."""
    A, B = data.draw(tensor_pairs())
    F, S = A.field, tensor_algebras(A, B).space
    f, f2 = data.draw(degree_zero_map(A)), data.draw(degree_zero_map(A))
    g, g2 = data.draw(degree_zero_map(B)), data.draw(degree_zero_map(B))
    lhs = tensor_map(f, g, S, S).compose(tensor_map(f2, g2, S, S))
    rhs = tensor_map(f.compose(f2), g.compose(g2), S, S)
    for k in range(S.dim):
        assert vec_eq(F, lhs.entries.get(k, {}), rhs.entries.get(k, {}))
    with pytest.raises(ValueError):
        tensor_map(f, B.d, S, S)


# ---------------------------------------------------------------------------
# graded_radical


RADICAL_FIELDS = {"F2": (GF(2), 8), "F3": (GF(3), 5), "F5": (GF(5), 5), "Q": (QQ, 8)}


@settings(max_examples=80, **SETTINGS)
@given(st.sampled_from(sorted(RADICAL_FIELDS)), st.integers(0, 2**32 - 1), st.booleans())
def test_graded_radical_matches_reference(field, seed, rebase):
    """The trace-form sequence gives the rows of the enumeration (F_p, within
    the default budget) and of the Dickson Gram kernel (Q), in values,
    coefficient types and key order; also in a random non-monomial basis."""
    F, maxdim = RADICAL_FIELDS[field]
    rng = random.Random(seed)
    A = random_curved_algebra(rng, F, maxdim=maxdim)
    if rebase:
        A = rebased_algebra(rng, A)
    rows = graded_radical(A)
    assert [typed(r) for r in rows] == [typed(r) for r in reference_radical(A)]


# ---------------------------------------------------------------------------
# primitive central idempotents


@settings(max_examples=80, **SETTINGS)
@given(st.sampled_from(sorted(RADICAL_FIELDS)), st.integers(0, 2**32 - 1), st.booleans())
def test_primitive_central_idempotents_match_reference(field, seed, rebase):
    """On css quotients, the Berlekamp split (F_p) gives the minimal
    idempotents of the enumerated closed centre, and the single splitting
    pass (Q) gives the splitting fixpoint: values, coefficient types, list
    order and key order; also in a random non-monomial basis."""
    F, maxdim = RADICAL_FIELDS[field]
    rng = random.Random(seed)
    A = random_curved_algebra(rng, F, maxdim=maxdim)
    if rebase:
        A = rebased_algebra(rng, A)
    B, _, _ = css_quotient(A)
    found = _primitive_central_idempotents(B)
    assert [typed(z) for z in found] == [typed(z) for z in reference_primitive_idempotents(B)]


@st.composite
def integer_polynomials(draw):
    """Integer polynomials of degree 1 .. 8 (constant term first): products
    of factors of degree 1 .. 3, some repeated, or arbitrary ones."""
    coeff = st.integers(-9, 9)
    if draw(st.booleans()):
        g = [1]
        for _ in range(draw(st.integers(1, 4))):
            q = draw(st.lists(coeff, min_size=1, max_size=3)) + [draw(st.sampled_from([1, 2, 3, -1, -4]))]
            for _ in range(draw(st.integers(1, 3))):
                if len(g) + len(q) - 2 > 8:
                    break
                g = [sum(g[i] * q[k - i] for i in range(len(g)) if 0 <= k - i < len(q)) for k in range(len(g) + len(q) - 1)]
        if len(g) > 1:
            return g
    return draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8)) + [draw(st.integers(1, 6))]


@settings(max_examples=150, **SETTINGS)
@given(integer_polynomials())
def test_factor_over_q_matches_sympy(g):
    """The Zassenhaus factorizer of the rational split gives the monic
    irreducible factors and multiplicities of sympy.factor_list, as a
    multiset, with Fraction coefficients."""
    f = [Fraction(c, g[-1]) for c in g]
    found = factor_over_q(f)
    assert sorted((tuple(q), m) for q, m in found) == sympy_factor_list(f)
    assert all(type(c) is Fraction for q, _ in found for c in q)


# ---------------------------------------------------------------------------
# obstruction calculus


def lift_verdicts(ext, xs):
    """Checks nu(x), its certificate, the lift verdict with l and, on a
    semisplit extension, every gauge transport of a lift against the
    Hochschild formulas (values, coefficient types and key order), and the
    verdict against the exhaustive search over F_p; returns the verdicts."""
    F = ext.field
    verdicts = []
    for x in xs:
        nu, cert = obstruction_class(ext, x)
        ref_nu, ref_cert = reference_obstruction_class(ext, x)
        assert (typed(nu), cert) == (typed(ref_nu), ref_cert)
        verdict = try_lift(ext, x)
        ref = reference_try_lift(ext, x)
        assert verdict[0] == ref[0] and typed(verdict[1]) == typed(ref[1])
        assert verdict[2] == ref[2] and (ref[2] is None or typed(verdict[2]) == typed(ref[2]))
        if F.is_prime_field:
            assert (verdict[0] == "lift") == (exhaustive_lift_search(ext, x) is not None)
        verdicts.append(verdict[0])
        if verdict[0] != "lift" or not ext.semisplit or not F.is_prime_field:
            continue
        for y in xs:
            quad = find_gauge_quadruple(ext.B, x, y)
            if quad is not None:
                yl = lift_along_gauge(ext, verdict[2], y, quad)
                assert typed(yl) == typed(reference_lift_along_gauge(ext, verdict[2], y, quad))
    return verdicts


def resplit(rng, ext):
    """The total algebra of ext split along another complement of L: in the
    basis e_j + phi(e_j) (j in B; phi: B -> L of degree 0, random, zero on
    the support of the unit), read back as an extension.  Its del and xi
    change by the Hochschild coboundary of phi, so xi is nonzero."""
    T, nB, F = ext.total, ext.B.dim, ext.field
    rows = []
    for j in range(T.dim):
        row = {j: F.one()}
        if j < nB and j not in T.unit:
            for m in range(nB, T.dim):
                if T.degree(m) == T.degree(j) and rng.random() < 0.5:
                    row[m] = F.coerce(rng.randint(1, F.characteristic - 1))
        rows.append(row)
    system = LinearSystem(F, rows, T.dim)

    def coords(v):
        return system.solution(system.residue(v))

    A = algebra_in_basis(T, GradedSpace.make(T.space.basis, F), rows, coords, T.unit, T.h)
    return extension_from_total(A, list(range(nB, T.dim)))


OBSTRUCTION_FIELDS = {"F2": GF(2), "F3": GF(3), "F5": GF(5)}


@settings(max_examples=60, **SETTINGS)
@given(st.sampled_from(sorted(OBSTRUCTION_FIELDS)), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_obstruction_calculus_matches_the_hochschild_formulas(field, seed, semisplit, split_again):
    """nu(x), d^x_L, the lift l and the gauge transport l', read off the
    total algebra, equal the Hochschild formulas on every MC element of
    random square-zero extensions (these lift), also split along another
    complement."""
    rng = random.Random(seed)
    ext = random_square_zero_extension(rng, OBSTRUCTION_FIELDS[field], semisplit=semisplit or None)
    if split_again:
        ext = resplit(rng, ext)
    assert set(lift_verdicts(ext, mc_enumerate(ext.B))) <= {"lift"}


@settings(max_examples=30, **SETTINGS)
@given(st.sampled_from(sorted(OBSTRUCTION_FIELDS)), st.integers(0, 2**32 - 1))
def test_obstruction_calculus_with_xi_matches_the_hochschild_formulas(field, seed):
    """End(k + k<-1>) @ I_1 along the s-components, split along a random
    complement: xi(x, x) != 0 for many MC elements x of the base."""
    F = OBSTRUCTION_FIELDS[field]
    E = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1)], F))
    T = tensor_algebras(E, make_interval(F, 1).algebra)
    ext = extension_from_total(T, [i for i, l in enumerate(T.space.labels()) if l.endswith("@s")])
    ext = resplit(random.Random(seed), ext)
    assert set(lift_verdicts(ext, mc_enumerate(ext.B))) <= {"lift"}


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_obstructed_lifts_match_the_hochschild_formulas(F):
    """On the obstructed witness every c x with c != 0 is obstructed and 0
    lifts, as the formulas (and over F_p the exhaustive search) say."""
    ext = obstructed_witness(F)
    cs = F.elements() if F.is_prime_field else [0, 1, 2, Fraction(-1, 2)]
    xs = [{ext.B.space.index("x"): F.coerce(c)} if c else {} for c in cs]
    assert lift_verdicts(ext, xs) == ["lift"] + ["obstructed"] * (len(xs) - 1)


# ---------------------------------------------------------------------------
# CLI exit codes on mutated documents


def exported(field: str) -> dict:
    n = {"F2": 2, "F3": 1, "Q": 1}[field]
    return dump_algebra(make_interval(FIELDS[field], n).algebra)


BAD_VALUES = [None, 5, "abc", [1], {"a": 1}, 1.5, True]
BAD_COEFFICIENTS = ["abc", [1], None, 1.5, {"a": 1}, True, "1/0"]


@st.composite
def mutated_document(draw):
    """(document, malformed): one mutation of an exported interval document.
    A malformed one has a shape no document may have; the others change a
    coefficient or drop an optional table and stay well formed."""
    doc = exported(draw(st.sampled_from(sorted(FIELDS))))
    prime = doc["field"]["kind"] == "prime-field"
    kind = draw(st.sampled_from(
        ["top", "table", "rows", "row-length", "coefficient", "label", "value", "drop"]))
    rows = [k for k in ("mult", "differential") if doc[k]]
    if kind == "top":
        return draw(st.sampled_from([[doc], 5, "doc", None])), True
    if kind == "table":
        doc[draw(st.sampled_from(["unit", "curvature"]))] = draw(
            st.sampled_from([v for v in BAD_VALUES if not isinstance(v, dict)]))
        return doc, True
    if kind == "rows":
        doc[draw(st.sampled_from(["mult", "differential"]))] = draw(
            st.sampled_from([v for v in BAD_VALUES if not isinstance(v, list)]))
        return doc, True
    if kind == "drop":
        key = draw(st.sampled_from(["field", "basis", "mult", "differential", "unit", "curvature"]))
        del doc[key]
        return doc, key in ("field", "basis")
    key = draw(st.sampled_from(rows))
    row = doc[key][draw(st.integers(0, len(doc[key]) - 1))]
    if kind == "row-length":
        if draw(st.booleans()):
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.append("x")
        return doc, True
    if kind == "label":
        row[draw(st.integers(0, len(row) - 2))] = draw(st.sampled_from(["nowhere", 3, ["a"], None]))
        return doc, True
    if kind == "coefficient":
        row[-1] = draw(st.sampled_from(BAD_COEFFICIENTS))
        return doc, True
    row[-1] = draw(st.integers(-3, 3)) if prime else draw(st.sampled_from([-2, 0, 3, "1/2", "-5/3"]))
    return doc, False


@settings(max_examples=120, **SETTINGS)
@given(mutated_document(), st.sampled_from(["validate", "mc-enum", "radical"]))
def test_cli_exit_codes_on_mutated_documents(case, command):
    """0, 1, 2 or 3 on every document, 2 on every malformed one, and never
    an uncaught exception (which the command line would print as a
    traceback)."""
    doc, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([command, path])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3)
    if malformed:
        assert code == 2 and "error" in report

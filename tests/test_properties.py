"""Property tests: the affine enumerator against itertools.product, and the
axiom check against the reference loops of reference_algebra.py."""

import copy
import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.algebra import tensor_algebras
from curvlab.fields import GF, QQ
from curvlab.gradedlin import BudgetExceeded, enumerate_affine, vec_add, vec_scale
from curvlab.interval import make_interval
from curvlab.randgen import random_curved_algebra
from reference_algebra import reference_validate

FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}
SETTINGS = dict(deadline=None, database=None, derandomize=True)


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

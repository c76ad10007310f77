"""Presentations: the materialization read off word splits against the
all-pairs oracle of reference_presented.py (keys, basis, products, unit,
differential and curvature, in values, coefficient types and key order, or
the same error), on random quivers and on fixed presentations; and the rule
that arrow labels and vertex names are disjoint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.barcobar import cobar
from curvlab.coalgebra import dualize_algebra
from curvlab.fields import GF, QQ
from curvlab.interval import interval_presentation, make_interval
from curvlab.modelcheck import alg_mc, omega_cat
from curvlab.presented import Arrow, PresentedCurvedAlgebra, free_algebra_presentation
from reference_presented import reference_materialize

FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}


def typed(v: dict) -> list:
    """Keys in order with the value and the type of each coefficient."""
    return [(i, type(c).__name__, c) for i, c in v.items()]


def layout(build, pres):
    """The keys, basis and ordered, typed structure constants that
    build(pres) returns, or the error it raises."""
    try:
        keys, A = build(pres)
    except (KeyError, ValueError) as e:
        return repr(e)
    return (
        keys,
        A.space.basis,
        [(k, typed(v)) for k, v in A.mult.items()],
        typed(A.unit),
        [(i, typed(col)) for i, col in A.d.entries.items()],
        typed(A.h),
    )


def materialize(pres):
    m = pres.materialize()
    return m.keys, m.algebra


def coefficients(F):
    """Zero, negative and (mod p) unreduced coefficients; over Q both ints
    and Fractions."""
    if F.is_prime_field:
        return st.integers(-2 * F.characteristic, 2 * F.characteristic)
    return st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def presentations(draw):
    """A quiver of 1-3 vertices and 1-4 arrows of degrees -1..2, killed
    monomials, a truncation of 1-5, differentials on generators of degree 1
    (the terms of another degree dropped from random combinations) and a
    random curvature, over F_2, F_3 or Q."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    vertices = ("p", "q", "r")[: draw(st.integers(1, 3))]
    ends = st.sampled_from(vertices)
    arrows = tuple(
        Arrow(f"x{i}", draw(ends), draw(ends), draw(st.integers(-1, 2)))
        for i in range(draw(st.integers(1, 4)))
    )
    labels = [a.label for a in arrows]
    words = st.lists(st.sampled_from(labels), min_size=1, max_size=3).map(tuple)
    keys = st.one_of(words, ends.map(lambda v: ("v", v)))
    combos = st.dictionaries(keys, coefficients(F), max_size=6)
    degree = {a.label: a.degree for a in arrows}

    def of_degree(n):  # a vertex key has degree 0: "v" and vertices are not labels
        return {k: c for k, c in draw(combos).items() if sum(degree.get(l, 0) for l in k) == n}

    return PresentedCurvedAlgebra(
        field=F,
        vertices=vertices,
        arrows=arrows,
        killed_monomials=tuple(draw(st.lists(words, max_size=2))),
        truncation=draw(st.integers(1, 5)),
        d_on_vertices={v: of_degree(1) for v in vertices},
        d_on_arrows={a: of_degree(degree[a] + 1) for a in labels},
        h=draw(combos),
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(presentations())
def test_materialization_matches_the_all_pairs_oracle(pres):
    assert layout(materialize, pres) == layout(reference_materialize, pres)


def _free_with_killed(F):
    return free_algebra_presentation(
        F,
        [("a", 1), ("b", 0), ("c", 2)],
        {"a": {("a", "a"): 1}, "b": {("a",): -1, ("b", "a"): 2}},
        truncation=4,
        killed=[("b", "b"), ("a", "c", "a")],
        h={("c",): 1, ("a", "a"): -1, ("b", "c", "b"): 1},
    )


FIXED = {f"I{n}": (lambda F, n=n: interval_presentation(F, n)) for n in range(1, 6)}
FIXED.update({f"I{n}-trunc{n + 2}": (lambda F, n=n: interval_presentation(F, n, n + 2)) for n in range(1, 6)})
FIXED["Iinf-trunc6"] = lambda F: interval_presentation(F, None, 6)
FIXED["free-killed"] = _free_with_killed


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_presentations_match_the_oracle(name, field):
    pres = FIXED[name](FIELDS[field])
    assert layout(materialize, pres) == layout(reference_materialize, pres)


def test_criterion_7_presentations_match_the_oracle():
    """Alg_MC of the categorical cobar of dual(I_3) over F_2 and its cobar
    (dimension 1,555, with 7,465 nonzero products)."""
    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    om = cobar(C, C.space.index("e_e'"), 4)
    assert (om.algebra.dim, len(om.algebra.mult)) == (1555, 7465)
    for pres in (alg_mc(omega_cat(C), "e_e'", truncation=4), om.presentation):
        assert layout(materialize, pres) == layout(reference_materialize, pres)


def test_an_arrow_label_that_is_a_vertex_name_is_rejected():
    """With a loop x at the vertex x, the word ("v", "x") would read as the
    idempotent of x."""
    with pytest.raises(ValueError, match="arrow label 'x' is also a vertex name"):
        PresentedCurvedAlgebra(
            field=GF(2),
            vertices=("x",),
            arrows=(Arrow("v", "x", "x", 0), Arrow("x", "x", "x", 0)),
            truncation=2,
        )


def test_vertex_of_reads_idempotent_keys_only():
    pres = PresentedCurvedAlgebra(
        field=GF(2),
        vertices=("x", "y"),
        arrows=(Arrow("v", "x", "y", 0), Arrow("y2", "y", "x", 1)),
        truncation=2,
    )
    keys = [("v", "x"), ("v", "y"), ("v",), ("v", "y2"), ("y2", "v")]
    assert [pres.vertex_of(k) for k in keys] == ["x", "y", None, None, None]
    keys = pres.materialize().keys
    assert keys[:2] == [("v", "x"), ("v", "y")] and ("v", "y2") in keys

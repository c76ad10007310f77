"""Acceptance suite: one test per criterion, exact (tolerance zero), each
printing a PASS/FAIL line with its runtime and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time
from itertools import islice

import pytest

from curvlab.algebra import (
    CurvedMorphism,
    direct_product,
    ground_algebra,
    mc_enumerate,
    square_zero_algebra,
    tensor_algebras,
    twist_algebra,
)
from curvlab.barcobar import adjunction_count_check, cobar, mc_hom_enumerate
from curvlab.coalgebra import dualize_algebra
from curvlab.convolution import convolution_algebra
from curvlab.fields import GF, QQ
from curvlab.gradedlin import (
    Complex,
    GradedMap,
    GradedSpace,
    cohomology,
    vec_eq,
    vec_is_zero,
)
from curvlab.interval import (
    interval_diagonal,
    interval_dimension_check,
    make_interval,
    noncommutative_forms,
)
from curvlab.mc import (
    find_gauge_quadruple,
    h0_hom,
    interval_tensor,
    moduli_set,
    three_homotopy_unpack,
)
from curvlab.modelcheck import (
    alg_mc,
    endpoint_projection,
    hom_window_cohomology,
    inclusion_dual_for_subcoalgebra,
    is_fibration_mcdg,
    omega_cat,
    rectify_cofibration,
    restrict_element,
    standard_coalgebra_battery,
)
from curvlab.obstruction import (
    SquareZeroExtension,
    lift_along_gauge,
    obstruction_class,
    try_lift,
)
from curvlab.randgen import (
    acyclic_k_algebra,
    hochschild_pair_space,
    random_complex,
    random_curved_algebra,
    random_square_zero_extension,
    regular_bimodule,
)
from curvlab.semisimple import (
    css_decompose,
    css_quotient,
    css_section,
    internal_curved_radical,
    reassemble_check,
)
from reference_mc import exhaustive_lift_search


class Stopwatch:
    """Times a criterion and prints its PASS/FAIL line (straight to the real
    stdout, so the line shows up even under pytest capture)."""

    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        import sys

        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(
            f"\n[{status}] {self.name}: {dt:.1f}s (limit {self.limit}s)",
            file=sys.__stdout__,
            flush=True,
        )
        if exc_type is None:
            assert dt < self.limit, f"{self.name} exceeded its time limit: {dt:.1f}s"
        return False


def small_dg_battery(F):
    """Named dg algebras of dimension <= 4 over F."""
    V1 = GradedSpace.make([("v", 1)], F)
    sq1 = square_zero_algebra(V1, GradedMap(V1, V1, 1, {}))
    V2 = GradedSpace.make([("h", 0), ("x", 1)], F)
    sq2 = square_zero_algebra(V2, GradedMap(V2, V2, 1, {0: {1: F.one()}}))
    V3 = GradedSpace.make([("a", 1), ("b", 1)], F)
    sq3 = square_zero_algebra(V3, GradedMap(V3, V3, 1, {}))
    return [
        ("k", ground_algebra(F)),
        ("k x k", direct_product(ground_algebra(F), ground_algebra(F))),
        ("k + k<1>", sq1),
        ("k + acyclic(0,1)", sq2),
        ("k + k<1>^2", sq3),
        ("I^1", make_interval(F, 1).algebra),
    ]


def test_criterion_1_axiom_suite():
    with Stopwatch("criterion 1: axiom suite", 10):
        FQ, F2 = QQ, GF(2)
        # intervals and truncations
        for n in range(1, 9):
            A = make_interval(FQ, n).algebra
            assert A.validate() == []
            T = make_interval(FQ, None, truncation=n).algebra
            assert T.validate() == []
        # tensor products: all pairs over F2
        algs = {n: make_interval(F2, n).algebra for n in range(1, 9)}
        for n in range(1, 9):
            for m in range(n, 9):
                T = tensor_algebras(algs[n], algs[m])
                assert T.validate() == [], (n, m)
        # convolution algebras from the standard battery
        targets = [a for _, a in small_dg_battery(F2)[:4]] + [
            make_interval(F2, 3).algebra
        ]
        for _, C in standard_coalgebra_battery(F2):
            for A in targets:
                conv = convolution_algebra(C, A)
                assert conv.algebra.validate() == []
        # twists: every enumerated MC element on the small battery
        for _, A in small_dg_battery(F2):
            for x in mc_enumerate(A):
                Ax, iso = twist_algebra(A, x)
                assert Ax.validate() == []
                assert vec_is_zero(F2, Ax.h)
                assert iso.validate() == []


def test_criterion_2_interval_facts():
    with Stopwatch("criterion 2: interval facts", 5):
        F = QQ
        for n in range(1, 9):
            I = make_interval(F, n)
            assert I.algebra.dim == 2 * n + 1
            assert interval_dimension_check(I)
        labels = set(make_interval(F, 3).algebra.space.labels())
        assert labels == {"e_e", "e_f", "s", "t", "st", "ts", "sts"}
        # noncommutative-forms isomorphism, elementwise, n <= 6
        for n in range(1, 7):
            Omega, I, iso = noncommutative_forms(F, n)
            assert Omega.validate() == []
            assert iso.validate() == []
            images = set()
            for j in range(Omega.dim):
                img = iso.f.apply(Omega.space.basis_vector(j))
                assert len(img) == 1
                images.add(next(iter(img)))
            assert len(images) == I.algebra.dim
        # diagonal: coassociative for n = 1, descent failure witnessed for n = 2
        res1 = interval_diagonal(F, 1)
        assert res1["coassociative"] is True
        res2 = interval_diagonal(F, 2)
        assert res2["descends"] is False and res2["witness_terms"]


def test_criterion_3_mc_bijection():
    with Stopwatch("criterion 3: MC moduli = H^1 on square-zero extensions", 60):
        F = GF(2)
        rng = random.Random(20260810)
        count = 0
        while count < 50:
            V, d = random_complex(rng, F, maxdim=6, degs=(0, 1, 1, 1, 2))
            A = square_zero_algebra(V, d)
            classes = moduli_set(A)
            H = cohomology(Complex(V, d), min(V.degrees_present() + [0]), max(V.degrees_present() + [1]))
            h1 = H[1]["dim"] if 1 in H else 0
            assert len(classes) == 2**h1, (V.basis, len(classes), h1)
            # endomorphism H^0 of each object matches H^0(k + V)
            h0V = H[0]["dim"] if 0 in H else 0
            for cls in classes:
                x = cls[0]
                assert h0_hom(A, x, x)["dim"] == 1 + h0V
            count += 1


def test_criterion_4_obstruction_suite():
    with Stopwatch("criterion 4: obstruction calculus", 120):
        F = GF(2)
        rng = random.Random(47)
        instances = 0
        lifts_checked = 0
        while instances < 100:
            ext = random_square_zero_extension(rng, F, max_total_dim=10)
            mcs = mc_enumerate(ext.B)
            for x in mcs:
                nu, cert = obstruction_class(ext, x)
                assert cert  # nu(x) is always a d^x_L-cocycle
                verdict = try_lift(ext, x)
                brute = exhaustive_lift_search(ext, x)
                assert (verdict[0] == "lift") == (brute is not None)
                lifts_checked += 1
            instances += 1
        assert lifts_checked >= 100
        # semisplit gauge transport over a base with a nontrivial gauge pair
        V = GradedSpace.make([("h", 0), ("x", 1)], F)
        B = square_zero_algebra(V, GradedMap(V, V, 1, {0: {1: 1}}))
        from curvlab.gradedlin import enumerate_affine

        transported = 0
        for shift in (0, 1, 2):
            L = regular_bimodule(B, shift_by=shift)
            dvars, xvars, ker = hochschild_pair_space(B, L)
            ker = [k for k in ker if all(a < len(dvars) for a in k)]
            for pt in islice(enumerate_affine(F, {}, ker, 2**12), 6):
                entries = {}
                for a, val in pt.items():
                    if not F.is_zero(val):
                        i, m = dvars[a]
                        entries.setdefault(i, {})[m] = val
                try:
                    ext = SquareZeroExtension(
                        B, L, GradedMap(B.space, L.space, 1, entries), {}
                    )
                except ValueError:
                    continue
                elems = mc_enumerate(B)
                for x in elems:
                    vx = try_lift(ext, x)
                    if vx[0] != "lift":
                        continue
                    for y in elems:
                        quad = find_gauge_quadruple(B, x, y)
                        if quad is None:
                            continue
                        yl = lift_along_gauge(ext, vx[2], y, quad)
                        A = ext.total
                        assert A.is_mc(yl)
                        transported += 1
        assert transported >= 10


def test_criterion_5_structure_theory():
    with Stopwatch("criterion 5: curved semisimple structure theory", 120):
        F = GF(2)
        rng = random.Random(53)
        sections_checked = 0
        for _ in range(50):
            A = random_curved_algebra(rng, F, maxdim=8)
            B, pi, _ = css_quotient(A)
            assert internal_curved_radical(B) == []
            dec = css_decompose(B)
            assert reassemble_check(dec)
            # sections of every projection onto a sub-product of factors
            if len(dec.factors) >= 2:
                keep = dec.factors[: len(dec.factors) - 1]
                z = {}
                from curvlab.gradedlin import vec_add

                for f in keep:
                    z = vec_add(F, z, f.idempotent)
                # quotient by the complementary factor = corner algebra at z
                from curvlab.semisimple import _corner_algebra

                R, basis_rows = _corner_algebra(B, z, tag="p")
                entries = {}
                from curvlab.gradedlin import solve, vec_scale

                coords_rows = {}
                for a, r in enumerate(basis_rows):
                    for i, c in r.items():
                        coords_rows.setdefault(i, {})[a] = c
                for j in range(B.dim):
                    v = B.product(z, B.space.basis_vector(j))
                    v = B.product(v, z)
                    sol = solve(
                        F,
                        [coords_rows.get(i, {}) for i in range(B.dim)],
                        [v.get(i, F.zero()) for i in range(B.dim)],
                        len(basis_rows),
                    )
                    if sol is None:
                        continue
                    if sol[0]:
                        entries[j] = sol[0]
                pi2 = CurvedMorphism(
                    B, R, GradedMap(B.space, R.space, 0, entries), {}
                )
                if pi2.validate() == []:
                    sec = css_section(pi2)
                    for j in range(R.dim):
                        v = R.space.basis_vector(j)
                        assert vec_eq(F, pi2.f.apply(sec.f.apply(v)), v)
                    sections_checked += 1
        assert sections_checked >= 5


def test_criterion_6_bar_cobar_counting():
    with Stopwatch("criterion 6: bar-cobar morphism counting", 60):
        F = GF(2)
        V1 = GradedSpace.make([("v", 1)], F)
        sqz = square_zero_algebra(V1, GradedMap(V1, V1, 1, {}))
        coalgebras = [
            ("k", dualize_algebra(ground_algebra(F)), "1'"),
            ("I_1", dualize_algebra(make_interval(F, 1).algebra), "e_e'"),
            ("I_3", dualize_algebra(make_interval(F, 3).algebra), "e_e'"),
            ("dual(k+V)", dualize_algebra(sqz), "1'"),
        ]
        algebras = [
            ("k", ground_algebra(F)),
            ("I^1", make_interval(F, 1).algebra),
            ("I^3", make_interval(F, 3).algebra),
            ("k+V", sqz),
        ]
        for cname, C, w in coalgebras:
            for aname, A in algebras:
                rep = adjunction_count_check(
                    C, A, C.space.index(w), N_max=3, budget=2**17
                )
                assert rep["sides_agree"], (cname, aname, rep)
                assert rep["omega_stabilized"], (cname, aname, rep)
                assert rep["bar_stabilized"], (cname, aname, rep)
                assert rep["conclusive"], (cname, aname, rep)


def test_criterion_7_omega_cat_alg_mc():
    with Stopwatch("criterion 7: categorical cobar and reduced MC algebra", 60):
        F = GF(2)
        C = dualize_algebra(make_interval(F, 3).algebra)
        D = omega_cat(C)
        one = F.one()
        m1 = F.neg(one)
        # the three differential equations, exactly
        assert D.d_of("ts'") == {("t'", "s'"): one, ("v", "e_f'"): m1}
        assert D.d_of("st'") == {("s'", "t'"): one, ("v", "e_e'"): m1}
        assert D.d_of("sts'") == {("s'", "ts'"): one, ("st'", "s'"): m1}
        assert D.d_of("s'") == {} and D.d_of("t'") == {}
        # windowed cohomology of every hom space
        for x in D.objects:
            for y in D.objects:
                H = hom_window_cohomology(D, x, y, -3, 0, word_bound=8)
                assert H[0] == 1, (x, y, H)
                assert H[-1] == 0 and H[-2] == 0 and H[-3] == 0, (x, y, H)
        # Alg_MC of the categorical cobar matches the cobar truncation dims
        P = alg_mc(D, "e_e'", truncation=4)
        om = cobar(C, C.space.index("e_e'"), 4)
        assert P.word_counts_by_degree() == om.presentation.word_counts_by_degree()


def test_criterion_8_fibration_witnesses():
    with Stopwatch("criterion 8: endpoint-projection fibrations + rectification", 300):
        F = GF(2)
        battery = standard_coalgebra_battery(F)
        for aname, A in small_dg_battery(F):
            g = endpoint_projection(A, 3)
            for cname, C in battery:
                rep = is_fibration_mcdg(C, g, budget=2**17)
                assert rep["verdict"] is True, (aname, cname, rep)
        # rectification for battery injections
        V1 = GradedSpace.make([("v", 1)], F)
        A = square_zero_algebra(V1, GradedMap(V1, V1, 1, {}))
        I3C = dualize_algebra(make_interval(F, 3).algebra)
        I1C = dualize_algebra(make_interval(F, 1).algebra)
        kC = dualize_algebra(ground_algebra(F))
        injections = [
            ("k -> I_3 (vertex)", kC, I3C, {"1'": "e_e'"}),
            ("k -> I_1 (vertex)", kC, I1C, {"1'": "e_e'"}),
            ("I_1 -> I_3", I1C, I3C, {"e_e'": "e_e'", "e_f'": "e_f'", "s'": "s'"}),
        ]
        for name, Cs, Cb, lm in injections:
            idual = inclusion_dual_for_subcoalgebra(Cb, Cs, lm)
            convb = convolution_algebra(Cb, A)
            convs = convolution_algebra(Cs, A)
            Xs = mc_hom_enumerate(Cb, A, budget=2**17)
            assert Xs
            X = Xs[0]
            rX = restrict_element(convb, convs, idual, X)
            # every g0 in the gauge class of the restriction rectifies
            rect_count = 0
            for g0 in mc_hom_enumerate(Cs, A, budget=2**17):
                if find_gauge_quadruple(convs.algebra, rX, g0) is None:
                    continue
                rep = rectify_cofibration(Cs, Cb, idual, A, X, g0, budget=2**17)
                assert rep["verdict"] is True, (name, rep)
                rect_count += 1
            assert rect_count >= 1, name


def test_criterion_9_three_homotopy_data():
    with Stopwatch("criterion 9: three-homotopy functor data", 60):
        F = GF(2)
        V2 = GradedSpace.make([("h", 0), ("x", 1)], F)
        bases = [
            ("k", ground_algebra(F)),
            ("k+k<1>", square_zero_algebra(
                GradedSpace.make([("v", 1)], F),
                GradedMap(GradedSpace.make([("v", 1)], F), GradedSpace.make([("v", 1)], F), 1, {}),
            )),
            ("k+acyclic", square_zero_algebra(V2, GradedMap(V2, V2, 1, {0: {1: 1}}))),
            ("I^1", make_interval(F, 1).algebra),
        ]
        total = 0
        for name, B in bases:
            assert B.dim <= 3
            # dim V = 1: B @ End(V) = B; search all MC elements of B @ I^3
            T = interval_tensor(B, 3)
            found = mc_enumerate(T, budget=2**16)
            for H in found:
                data = three_homotopy_unpack(B, H)
                ids = data.identities()
                assert all(ids.values()), (name, ids)
                total += 1
        assert total >= 8

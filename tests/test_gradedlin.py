import itertools
import random

from fractions import Fraction

import pytest
from reference_linalg import apply_rows, dense, kernel_set, reference_solve, span_set

from curvlab.fields import GF, QQ
from curvlab.gradedlin import (
    Complex,
    GradedMap,
    GradedSpace,
    LinearSystem,
    cohomology,
    kernel_basis,
    rref,
    shift,
    solve,
    solve_linear,
    vec_add,
    vec_scale,
)


def test_shift_conventions():
    # 1-dim space in degree 0, k=1 -> degree -1 (A[1]^i = A^{1+i})
    S = GradedSpace.make([("x", 0)], QQ)
    assert shift(S, 1).basis[0][1] == -1
    # k=0 identity
    assert shift(S, 0) == S
    # degrees {1,3}, k=-1 -> {2,4}, and round trip
    T = GradedSpace.make([("a", 1), ("b", 3)], QQ)
    T2 = shift(T, -1)
    assert [d for _, d in T2.basis] == [2, 4]
    assert shift(shift(T, 5), -5) == T


def test_cohomology_zero_differential():
    S = GradedSpace.make([("a", 0), ("b", 1)], QQ)
    c = Complex(S, GradedMap(S, S, 1, {}))
    H = cohomology(c, 0, 1)
    assert H[0]["dim"] == 1 and H[1]["dim"] == 1


def test_cohomology_acyclic():
    S = GradedSpace.make([("a", 0), ("b", 1)], QQ)
    d = GradedMap(S, S, 1, {0: {1: Fraction(1)}})
    c = Complex(S, d)
    H = cohomology(c, -1, 2)
    assert all(H[n]["dim"] == 0 for n in H)


def test_complex_rejects_nonsquarezero():
    S = GradedSpace.make([("a", 0), ("b", 1), ("c", 2)], QQ)
    d = GradedMap(S, S, 1, {0: {1: Fraction(1)}, 1: {2: Fraction(1)}})
    with pytest.raises(ValueError):
        Complex(S, d)


def test_solve_linear_identity_and_zero():
    S = GradedSpace.make([("a", 0), ("b", 0)], QQ)
    ident = GradedMap(S, S, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)}})
    sol = solve_linear(ident, {0: Fraction(3), 1: Fraction(-2)})
    assert sol is not None
    part, ker = sol
    assert part == {0: Fraction(3), 1: Fraction(-2)} and ker == []
    zero = GradedMap(S, S, 0, {})
    assert solve_linear(zero, {0: Fraction(1)}) is None


def test_solve_linear_matches_brute_force_over_f2():
    F = GF(2)
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        S = GradedSpace.make([(f"s{i}", 0) for i in range(n)], F)
        T = GradedSpace.make([(f"t{i}", 0) for i in range(m)], F)
        entries = {}
        for j in range(n):
            col = {i: 1 for i in range(m) if rng.random() < 0.5}
            if col:
                entries[j] = col
        A = GradedMap(S, T, 0, entries)
        b = {i: 1 for i in range(m) if rng.random() < 0.5}
        got = solve_linear(A, b)
        brute = None
        for mask in range(2**n):
            x = {j: 1 for j in range(n) if (mask >> j) & 1}
            if A.apply(x) == b:
                brute = x
                break
        assert (got is None) == (brute is None)
        if got is not None:
            part, _ = got
            assert A.apply(part) == b


def test_cohomology_basis_order_invariance():
    F = GF(3)
    rng = random.Random(11)
    for _ in range(10):
        # random 2-step complex in degrees 0,1 with d^2 = 0 trivially
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        basis = [(f"a{i}", 0) for i in range(n0)] + [(f"b{i}", 1) for i in range(n1)]
        S = GradedSpace.make(basis, F)
        entries = {}
        for j in range(n0):
            col = {n0 + i: rng.randint(0, 2) for i in range(n1)}
            col = {k: c for k, c in col.items() if c}
            if col:
                entries[j] = col
        c = Complex(S, GradedMap(S, S, 1, entries))
        H = cohomology(c, 0, 1)
        # permuted basis
        perm = list(range(n0))
        rng.shuffle(perm)
        basis2 = [(f"a{perm[i]}", 0) for i in range(n0)] + basis[n0:]
        S2 = GradedSpace.make(basis2, F)
        entries2 = {j: dict(entries.get(j, {})) for j in entries}
        c2 = Complex(S2, GradedMap(S2, S2, 1, entries2))
        H2 = cohomology(c2, 0, 1)
        assert H[0]["dim"] == H2[0]["dim"] and H[1]["dim"] == H2[1]["dim"]


def test_rref_deterministic():
    F = GF(5)
    rows = [{0: 2, 1: 1}, {0: 4, 1: 2, 2: 1}]
    red1, piv1 = rref(F, rows, 3)
    red2, piv2 = rref(F, list(reversed(rows)), 3)
    assert piv1 == piv2


@pytest.mark.parametrize("p", [2, 3])
def test_linear_system_matches_solve_and_kernel_basis(p):
    # one reduction of the columns answers every right-hand side: the same
    # particular solution and kernel as a plain elimination of the rows
    # (entry for entry, in the same key order), for LinearSystem and for
    # the row-form solve and kernel_basis; the kernel spans the null space
    # and b is solvable iff brute force hits it; residues are linear in b
    F = GF(p)
    rng = random.Random(200 + p)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        cols = []
        for _ in range(ncols):
            if cols and rng.random() < 0.3:  # a multiple of an earlier column
                cols.append(vec_scale(F, rng.randint(0, p - 1), rng.choice(cols)))
            else:
                cols.append(
                    {i: rng.randint(1, p - 1) for i in range(nrows) if rng.random() < 0.5}
                )
        rows = [{a: c[i] for a, c in enumerate(cols) if i in c} for i in range(nrows)]
        system = LinearSystem(F, cols, nrows)
        as_items = lambda vs: [list(v.items()) for v in vs]
        reference = reference_solve(F, rows, [F.zero()] * nrows, ncols)[1]
        assert as_items(system.kernel) == as_items(reference)
        assert as_items(kernel_basis(F, rows, ncols)) == as_items(reference)
        assert span_set(p, system.kernel, ncols) == kernel_set(p, rows, ncols)
        images = {apply_rows(p, rows, x) for x in itertools.product(range(p), repeat=ncols)}
        targets = []
        for _ in range(6):
            h = {a: rng.randint(0, p - 1) for a in range(ncols)}
            image = {}
            for a, c in h.items():
                image = vec_add(F, image, vec_scale(F, c, cols[a]))
            noise = {i: rng.randint(1, p - 1) for i in range(nrows) if rng.random() < 0.2}
            targets += [image, vec_add(F, image, noise)]
        for b in targets:
            rhs = [b.get(i, F.zero()) for i in range(nrows)]
            expected = reference_solve(F, rows, rhs, ncols)
            got = system.solution(system.residue(b))
            assert (got is None) == (dense(b, nrows) not in images)
            if expected is None:
                assert got is None and solve(F, rows, rhs, ncols) is None
            else:
                assert list(got.items()) == list(expected[0].items())
                sol, kernel = solve(F, rows, rhs, ncols)
                assert as_items([sol] + kernel) == as_items([expected[0]] + reference)
        for b1, b2 in zip(targets, targets[1:]):
            assert system.residue(vec_add(F, b1, b2)) == vec_add(
                F, system.residue(b1), system.residue(b2)
            )


def test_indices_of_degree_is_built_once_and_copied():
    V = GradedSpace.make([("a", 0), ("b", 1), ("c", 0), ("d", -1)], GF(2))
    tables = V._by_degree
    idx = V.indices_of_degree(0)
    assert idx == [0, 2] and V.indices_of_degree(1) == [1] and V.indices_of_degree(5) == []
    idx.append(99)
    assert V.indices_of_degree(0) == [0, 2] and V.dim_in_degree(0) == 2
    assert V._by_degree is tables
    assert shift(V, 1).indices_of_degree(-1) == [0, 2]
    # the tables take no part in equality and hashing
    fresh = GradedSpace.make([("a", 0), ("b", 1), ("c", 0), ("d", -1)], GF(2))
    assert fresh == V and hash(fresh) == hash(V)

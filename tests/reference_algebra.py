"""Reference axiom check for the tests of `CurvedAlgebra.validate`: every
check on basis vectors through `product` and `d.apply`, associativity as a
plain triple loop over (i, j, k) and Leibniz as a double loop over (i, j)."""

from curvlab.gradedlin import vec_add, vec_eq, vec_is_zero, vec_scale, vec_sub


def reference_validate(A, max_violations=8):
    F, n = A.field, A.dim
    out = []

    def report(msg):
        if len(out) < max_violations:
            out.append(msg)

    for (i, j), col in A.mult.items():
        want = A.degree(i) + A.degree(j)
        for k, c in col.items():
            if not F.is_zero(c) and A.degree(k) != want:
                report(f"product {A.label(i)}*{A.label(j)} has term {A.label(k)} of wrong degree")
    try:
        if A.space.element_degree(A.unit) not in (None, 0):
            report("unit is not of degree 0")
    except ValueError:
        report("unit is not homogeneous")
    try:
        if A.space.element_degree(A.h) not in (None, 2):
            report("curvature h is not of degree 2")
    except ValueError:
        report("curvature h is not homogeneous")
    e = [A.space.basis_vector(i) for i in range(n)]
    for i in range(n):
        if not vec_eq(F, A.product(A.unit, e[i]), e[i]):
            report(f"1*{A.label(i)} != {A.label(i)}")
        if not vec_eq(F, A.product(e[i], A.unit), e[i]):
            report(f"{A.label(i)}*1 != {A.label(i)}")
    for i in range(n):
        for j in range(n):
            pij = A.product(e[i], e[j])
            for k in range(n):
                if not vec_eq(F, A.product(pij, e[k]), A.product(e[i], A.product(e[j], e[k]))):
                    report(f"associativity fails on ({A.label(i)},{A.label(j)},{A.label(k)})")
                    if len(out) >= max_violations:
                        return out
    for i in range(n):
        di = A.d.apply(e[i])
        si = F.one() if A.degree(i) % 2 == 0 else F.neg(F.one())
        for j in range(n):
            lhs = A.d.apply(A.product(e[i], e[j]))
            rhs = vec_add(
                F, A.product(di, e[j]), vec_scale(F, si, A.product(e[i], A.d.apply(e[j])))
            )
            if not vec_eq(F, lhs, rhs):
                report(f"Leibniz fails on ({A.label(i)},{A.label(j)})")
                if len(out) >= max_violations:
                    return out
    if not vec_is_zero(F, A.d.apply(A.h)):
        report("d(h) != 0")
    for i in range(n):
        dd = A.d.apply(A.d.apply(e[i]))
        if not vec_eq(F, dd, vec_sub(F, A.product(A.h, e[i]), A.product(e[i], A.h))):
            report(f"d^2 != [h,-] on {A.label(i)}")
            if len(out) >= max_violations:
                return out
    return out

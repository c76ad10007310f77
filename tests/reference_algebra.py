"""Reference arithmetic and axiom check for the tests of the field kernels
and of `CurvedAlgebra.validate`.

The sparse helpers below are the generic per-coefficient arithmetic that
`vec_add`, `vec_scale`, `CurvedAlgebra.product`, `GradedMap.apply` and
`EchelonBasis.reduce` had before the field classes carried their own
kernels: one scalar field call per coefficient, and every accumulation
rebuilding the whole dict as `out = vec_add(F, out, vec_scale(F, c, v))`.

The axiom check works on basis vectors through `product` and `d.apply`,
associativity as a plain triple loop over (i, j, k) and Leibniz as a
double loop over (i, j).

The two-sided twist D_{x->y} is summed one basis vector at a time, each
term built as the hom-complex columns were: de_i, then y e_i, then the sign
of e_i times e_i x.

The tensor index of e_i @ f_j is looked up by its label.

`permuted_algebra` lists a basis in another order, and `by_labels` writes
an algebra's structure constants with labels in place of indices, so two
numberings of one algebra compare equal."""

from curvlab.algebra import CurvedAlgebra
from curvlab.gradedlin import GradedMap, GradedSpace, vec_add, vec_eq, vec_is_zero, vec_scale, vec_sub


def reference_vec_add(F, u, v):
    out = dict(u)
    for i, c in v.items():
        s = F.add(out.get(i, F.zero()), c)
        if F.is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def reference_vec_scale(F, c, v):
    if F.is_zero(c):
        return {}
    return {i: F.mul(c, x) for i, x in v.items() if not F.is_zero(F.mul(c, x))}


def reference_vec_sub(F, u, v):
    return reference_vec_add(F, u, reference_vec_scale(F, F.neg(F.one()), v))


def reference_add_scaled(F, out, c, v):
    """out + c v as the accumulation step of the old loops (a new dict)."""
    return reference_vec_add(F, out, reference_vec_scale(F, c, v))


def reference_product(A, u, v):
    F = A.field
    out = {}
    for i, a in u.items():
        if F.is_zero(a):
            continue
        for j, b in v.items():
            c = F.mul(a, b)
            if F.is_zero(c):
                continue
            out = reference_add_scaled(F, out, c, A.mult.get((i, j), {}))
    return out


def reference_apply(M, v):
    F = M.field
    out = {}
    for j, c in v.items():
        col = M.entries.get(j)
        if not col or F.is_zero(c):
            continue
        out = reference_add_scaled(F, out, c, col)
    return out


def reference_twisted_apply(A, x, y, v):
    """sum_i v_i (de_i + y e_i - (-1)^{|e_i|} e_i x)."""
    F = A.field
    out = {}
    for i, c in v.items():
        e = A.space.basis_vector(i)
        sign = F.neg(F.one()) if A.degree(i) % 2 == 0 else F.one()
        col = reference_vec_add(F, reference_apply(A.d, e), reference_product(A, y, e))
        col = reference_add_scaled(F, col, sign, reference_product(A, e, x))
        out = reference_add_scaled(F, out, c, col)
    return out


def _reference_sub_multiple(F, res, c, row):
    """res -= c * row, in place, dropping the entries that become zero."""
    for i, x in row.items():
        s = F.sub(res.get(i, F.zero()), F.mul(c, x))
        if F.is_zero(s):
            res.pop(i, None)
        else:
            res[i] = s


def reference_reduce(F, pivot_rows, v):
    """v minus its components along the rows {pivot column: row} of a
    reduced echelon basis, one row operation per pivot column of v."""
    res = {i: c for i, c in v.items() if not F.is_zero(c)}
    for col in [i for i in res if i in pivot_rows]:
        _reference_sub_multiple(F, res, res[col], pivot_rows[col])
    return res


def reference_echelon(F, ncols, rows):
    """The {pivot column: row} table of `EchelonBasis(F, ncols, rows)`."""
    pivot_rows = {}
    for v in rows:
        res = reference_reduce(F, pivot_rows, v)
        cols = [i for i in res if i < ncols]
        if not cols:
            continue
        col = min(cols)
        inv = F.inv(res[col])
        res = {i: F.mul(inv, c) for i, c in res.items()}
        for row in pivot_rows.values():
            c = row.get(col)
            if c is not None:
                _reference_sub_multiple(F, row, c, res)
        pivot_rows[col] = res
    return pivot_rows


def reference_chain_map_dim(A, x, y):
    """dim Z^0(x, y): the degree-0 basis count minus the rank of its images
    under D_{x->y}."""
    images = [reference_twisted_apply(A, x, y, A.space.basis_vector(j)) for j in A.degree_indices(0)]
    return len(images) - len(reference_echelon(A.field, A.dim, images))


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


def reference_tensor_index(T, A, B, i, j):
    """The index of e_i @ f_j in T = tensor_algebras(A, B), found by its
    label "a@b" in the basis of T."""
    return T.space.index(f"{A.label(i)}@{B.label(j)}")


def permuted_algebra(A, order):
    """A with its basis listed in the given order: index a of the copy is
    index order[a] of A."""
    pos = {old: new for new, old in enumerate(order)}

    def vec(v):
        return {pos[i]: c for i, c in v.items()}

    space = GradedSpace.make([A.space.basis[o] for o in order], A.field)
    mult = {(pos[i], pos[j]): vec(col) for (i, j), col in A.mult.items()}
    d = {pos[j]: vec(col) for j, col in A.d.entries.items()}
    return CurvedAlgebra(space, vec(A.unit), mult, GradedMap(space, space, 1, d), vec(A.h))


def by_labels(A):
    """The basis (label -> degree), nonzero products, differential, unit and
    h of A, every index written as its label."""
    F = A.field

    def vec(v):
        return {A.label(i): c for i, c in F.nonzero(v).items()}

    mult = {(A.label(i), A.label(j)): vec(col) for (i, j), col in A.mult.items() if vec(col)}
    d = {A.label(j): vec(col) for j, col in A.d.entries.items() if vec(col)}
    return dict(A.space.basis), mult, d, vec(A.unit), vec(A.h)

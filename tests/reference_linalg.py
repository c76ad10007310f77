"""Reference linear algebra for the tests of curvlab's one elimination
(`EchelonBasis` and `LinearSystem`): a plain column-by-column Gauss-Jordan
elimination, and brute-force span and kernel enumeration over F_p."""

import itertools

from curvlab.gradedlin import vec_is_zero, vec_scale, vec_sub


def reference_rref(F, rows, ncols):
    """Reduced row echelon form; pivots chosen left to right, each from the
    first remaining row that is nonzero there.  Returns (rows, pivots)."""
    rows = [dict(r) for r in rows if not vec_is_zero(F, r)]
    out, pivots = [], []
    for col in range(ncols):
        pr = next((r for r in rows if not F.is_zero(r.get(col, F.zero()))), None)
        if pr is None:
            continue
        rows.remove(pr)
        pr = vec_scale(F, F.inv(pr[col]), pr)
        for r in rows + out:
            c = r.get(col, F.zero())
            if not F.is_zero(c):
                upd = vec_sub(F, r, vec_scale(F, c, pr))
                r.clear()
                r.update(upd)
        rows = [r for r in rows if not vec_is_zero(F, r)]
        out.append(pr)
        pivots.append(col)
    return out, pivots


def reference_solve(F, rows, rhs, ncols):
    """rows * x = rhs by elimination of the augmented matrix: (particular
    solution with free variables zero, kernel basis), or None."""
    aug = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        if not F.is_zero(b):
            row[ncols] = b
        aug.append(row)
    red, pivots = reference_rref(F, aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = {p: r[ncols] for r, p in zip(red, pivots) if not F.is_zero(r.get(ncols, F.zero()))}
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        k = {free: F.one()}
        for r, p in zip(red, pivots):
            c = r.get(free, F.zero())
            if not F.is_zero(c):
                k[p] = F.neg(c)
        kernel.append(k)
    return sol, kernel


def dense(v, n):
    return tuple(v.get(i, 0) for i in range(n))


def span_set(p, vectors, n):
    """Every F_p-linear combination of the vectors, as dense tuples."""
    out = {(0,) * n}
    for v in vectors:
        dv = dense(v, n)
        out = {tuple((s + c * x) % p for s, x in zip(u, dv)) for u in out for c in range(p)}
    return out


def apply_rows(p, rows, x):
    return tuple(sum(r.get(a, 0) * c for a, c in enumerate(x)) % p for r in rows)


def kernel_set(p, rows, n):
    """Every x in F_p^n with rows * x = 0, by enumeration."""
    zero = (0,) * len(rows)
    return {x for x in itertools.product(range(p), repeat=n) if apply_rows(p, rows, x) == zero}

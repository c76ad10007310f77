"""Reference radicals for the tests of `semisimple.graded_radical`: over
F_p the elementwise enumeration (a vector lies in the radical iff the
two-sided ideal it generates is nilpotent), over Q the kernel of the
Dickson Gram matrix tr(L_x L_y).  Both return reduced echelon rows.

Reference primitive central idempotents for the tests of
`semisimple._primitive_central_idempotents`: over F_p every point of the
closed centre is enumerated and the minimal nonzero idempotents kept, over
Q blocks are split by the first splitting centre element until nothing
changes."""

from curvlab.gradedlin import (
    EchelonBasis,
    enumerate_affine,
    in_span,
    kernel_basis,
    rref,
    span_rank,
    vec_eq,
    vec_is_zero,
)
from curvlab.semisimple import _closed_center, _split_by_minimal_polynomial


def _ideal_closure(A, gens):
    """Basis (rref rows) of the two-sided ideal generated by gens.

    Built with a work queue over one incremental echelon basis: each vector
    that enlarges the span is multiplied once on each side by every basis
    vector, and a product joins the queue only if reducing it against the
    basis leaves a nonzero residue.
    """
    ideal = EchelonBasis(A.field, A.dim)
    queue = [dict(g) for g in gens if ideal.add(g)]
    while queue:
        r = queue.pop()
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            for p in (A.product(r, ej), A.product(ej, r)):
                if p and ideal.add(p):
                    queue.append(p)
    return ideal.rows()


def _ideal_is_nilpotent(A, ideal_rows):
    F = A.field
    cur = ideal_rows
    for _ in range(A.dim + 1):
        if not cur:
            return True
        nxt = []
        for u in cur:
            for v in ideal_rows:
                p = A.product(u, v)
                if p:
                    nxt.append(p)
        nxt, _ = rref(F, nxt, A.dim)
        if nxt and span_rank(F, nxt, A.dim) >= span_rank(F, cur, A.dim):
            # power stabilized at nonzero span: not nilpotent
            if span_rank(F, nxt, A.dim) == span_rank(F, cur, A.dim) and all(
                in_span(F, cur, r, A.dim) for r in nxt
            ):
                return False
        cur = nxt
    return not cur


def reference_radical(A, budget=None):
    """Rows of the radical as the enumeration (F_p, every nonzero vector in
    base-p order, refused past the budget) or the Gram kernel (Q) found it."""
    F = A.field
    if F.is_prime_field:
        members = EchelonBasis(F, A.dim)
        units = [A.space.basis_vector(i) for i in range(A.dim)]
        for v in enumerate_affine(F, {}, units, budget):
            if not v or members.contains(v):
                continue
            ideal = _ideal_closure(A, [v])
            if _ideal_is_nilpotent(A, ideal):
                for r in ideal:
                    members.add(r)
        return members.rows()
    # Dickson (char 0): rad = {x : tr(L_x L_y) = 0 for all basis y}
    gram_rows = []
    for i in range(A.dim):
        ei = A.space.basis_vector(i)
        row = {}
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            t = F.zero()
            for k in range(A.dim):
                ek = A.space.basis_vector(k)
                v = A.product(ei, A.product(ej, ek))
                t = F.add(t, v.get(k, F.zero()))
            if not F.is_zero(t):
                row[j] = t
        gram_rows.append(row)
    rad = kernel_basis(F, gram_rows, A.dim)
    rad, _ = rref(F, rad, A.dim)
    return rad


def is_nilpotent_ideal(A, rows):
    """rows span a two-sided ideal of A that is nilpotent."""
    basis = EchelonBasis(A.field, A.dim, rows)
    for r in rows:
        for j in range(A.dim):
            ej = A.space.basis_vector(j)
            if not (basis.contains(A.product(r, ej)) and basis.contains(A.product(ej, r))):
                return False
    return _ideal_is_nilpotent(A, basis.rows())


def reference_primitive_idempotents(B, budget=None):
    """The primitive idempotents of the closed centre, sorted, as the
    enumeration and its minimality, dedupe and orthogonality filters (F_p,
    refused past the budget) or the splitting fixpoint (Q) found them."""
    F = B.field
    deg0 = B.degree_indices(0)
    kernel = _closed_center(B)
    if F.is_prime_field:
        idems = []
        for v in enumerate_affine(F, {}, kernel, budget):
            z = {deg0[a]: c for a, c in v.items()}
            if not vec_is_zero(F, z) and vec_eq(F, B.product(z, z), z):
                idems.append(z)
    else:
        center = []
        for k in kernel:
            z = {}
            for a, c in k.items():
                F.add_scaled(z, c, B.space.basis_vector(deg0[a]))
            center.append(z)
        idems = [dict(B.unit)]
        changed = True
        while changed:
            changed = False
            blocks = []
            for e in idems:
                parts = [e]
                for z in center:
                    parts = _split_by_minimal_polynomial(B, e, z)
                    if len(parts) > 1:
                        changed = True
                        break
                blocks.extend(parts)
            idems = blocks
        idems = [e for e in idems if not vec_is_zero(F, e)]
    # primitive = minimal nonzero among the found idempotents
    prims = []
    for z in idems:
        if not any(
            not vec_eq(F, w, z) and not vec_is_zero(F, w) and vec_eq(F, B.product(z, w), w)
            for w in idems
        ):
            prims.append(z)
    uniq = []
    for z in prims:
        if not any(vec_eq(F, z, w) for w in uniq):
            uniq.append(z)
    ortho = []
    for z in sorted(uniq, key=lambda v: sorted(v.items(), key=str)):
        if all(vec_is_zero(F, B.product(z, w)) for w in ortho):
            ortho.append(z)
    return ortho

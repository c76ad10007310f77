"""Independent arithmetic for the benchmark's correctness checks.

Nothing here calls into curvlab: vectors are sparse dicts {index: coeff},
an algebra is read only through its structure constants (``mult``, ``unit``,
``d.entries``, ``h``), and ranks come from this module's own elimination.
The characteristic ``p`` is 0 for the rationals (coefficients are
``Fraction``s) and a prime otherwise (coefficients are ints mod p).
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(AssertionError):
    """An output of the program failed a benchmark check."""


class KnownFault(CheckError):
    """A wrong output that a fault recorded in CHANGES.md explains on inputs
    that do not depend on the seed; the run counts the operation as failed."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def norm(p, c):
    return c % p if p else Fraction(c)


def inv(p, c):
    return pow(c, p - 2, p) if p else 1 / Fraction(c)


def clean(p, v):
    """v with coefficients normalised and zeros dropped."""
    out = {}
    for i, c in v.items():
        c = norm(p, c)
        if c:
            out[i] = c
    return out


def axpy(p, a, x, y):
    """y + a*x as a new vector."""
    out = clean(p, y)
    for i, c in x.items():
        s = norm(p, out.get(i, 0) + a * c)
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def sub(p, u, v):
    return axpy(p, -1, v, u)


def same(p, u, v):
    return not sub(p, u, v)


class Span:
    """Echelon basis of a subspace, grown one vector at a time."""

    def __init__(self, p, vectors=()):
        self.p = p
        self.rows = {}  # pivot column -> row with coefficient 1 there
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        p, res = self.p, clean(self.p, v)
        for piv in sorted(self.rows):
            c = res.get(piv)
            if c:
                res = axpy(p, -c, self.rows[piv], res)
        return res

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        res = self.reduce(v)
        if not res:
            return False
        piv = min(res)
        r = {i: norm(self.p, c * inv(self.p, res[piv])) for i, c in res.items()}
        for q, row in self.rows.items():
            c = row.get(piv)
            if c:
                self.rows[q] = axpy(self.p, -c, r, row)
        self.rows[piv] = r
        return True

    def basis(self):
        return [self.rows[k] for k in sorted(self.rows)]


def rank(p, vectors):
    return len(Span(p, vectors))


def basis_vector(i, p):
    return {i: norm(p, 1)}


def apply_map(p, entries, v):
    """Image of v under a map given by columns entries[j] = image of e_j."""
    out = {}
    for j, c in v.items():
        col = entries.get(j)
        if col:
            out = axpy(p, c, col, out)
    return out


def image_rank(p, entries, dim):
    return rank(p, [entries.get(j, {}) for j in range(dim)])


def kernel(p, columns, nvars):
    """Basis of {c : sum_a c_a columns[a] = 0}, by elimination on the
    columns augmented with an identity block."""
    tag = max((i for col in columns for i in col), default=-1) + 1
    span, out = Span(p), []
    for a, col in enumerate(columns):
        aug = dict(clean(p, col))
        aug[tag + a] = norm(p, 1)
        res = span.reduce(aug)
        if res and min(res) >= tag:
            out.append({i - tag: c for i, c in res.items()})
        else:
            span.add(aug)
    return out


# ---------------------------------------------------------------------------
# algebras through their structure constants


def char(A):
    return A.space.field.characteristic


def mul(A, u, v):
    p, out = char(A), {}
    for i, a in u.items():
        for j, b in v.items():
            col = A.mult.get((i, j))
            if col:
                out = axpy(p, a * b, col, out)
    return out


def d(A, v):
    return apply_map(char(A), A.d.entries, v)


def mc_residual(A, x):
    p = char(A)
    return axpy(p, 1, mul(A, x, x), axpy(p, 1, d(A, x), clean(p, A.h)))


def is_nilpotent(A, x):
    """x^n = 0 for n = 2^k >= dim + 1 (an n-dimensional unital algebra has
    nilpotency index at most n)."""
    y, n = clean(char(A), x), 1
    while y and n <= A.space.dim:
        y, n = mul(A, y, y), 2 * n
    return not y


def is_two_sided_ideal(A, rows):
    span = Span(char(A), rows)
    for r in rows:
        for j in range(A.space.dim):
            e = basis_vector(j, char(A))
            if not (span.contains(mul(A, r, e)) and span.contains(mul(A, e, r))):
                return False
    return True


def ideal_is_nilpotent(A, rows):
    """Some power J^m of the span J of rows is zero."""
    p, cur = char(A), [clean(char(A), r) for r in rows]
    for _ in range(A.space.dim + 1):
        cur = Span(p, [mul(A, u, v) for u in cur for v in rows]).basis()
        if not cur:
            return True
    return False


def elements(p, dim):
    """Every vector of F_p^dim, in base-p order."""
    for n in range(p**dim):
        v, m = {}, n
        for i in range(dim):
            m, c = divmod(m, p)
            if c:
                v[i] = c
        yield v


def radical_witness(A, x):
    """Some a with a*x not nilpotent, or None; basis vectors are tried
    before the whole prime-field algebra."""
    p, n = char(A), A.space.dim
    candidates = [basis_vector(i, p) for i in range(n)]
    for a in [clean(p, A.unit)] + candidates:
        if not is_nilpotent(A, mul(A, a, x)):
            return a
    for a in elements(p, n):
        if not is_nilpotent(A, mul(A, a, x)):
            return a
    return None


def central_cycles_dim(A):
    """dim {z of degree 0 : z central, dz = 0}; 1 for a curved simple
    algebra with split centre."""
    p, n = char(A), A.space.dim
    cols = []
    for j in A.space.indices_of_degree(0):
        e, col = basis_vector(j, p), {}
        for i in range(n):
            f = basis_vector(i, p)
            for k, c in sub(p, mul(A, e, f), mul(A, f, e)).items():
                col[i * n + k] = c
        for k, c in d(A, e).items():
            col[n * n + k] = c
        cols.append(col)
    return len(kernel(p, cols, len(cols)))


def dickson_radical_dim(A):
    """dim {x : tr(L_x L_y) = 0 for all y}, the radical in characteristic 0."""
    n, p = A.space.dim, char(A)
    L = [[mul(A, basis_vector(i, p), basis_vector(k, p)) for k in range(n)] for i in range(n)]
    cols = []
    for i in range(n):
        col = {}
        for j in range(n):
            t = sum(
                (mul(A, basis_vector(i, p), L[j][k]).get(k, 0) for k in range(n)),
                Fraction(0),
            )
            if t:
                col[j] = t
        cols.append(col)
    return len(kernel(p, cols, n))

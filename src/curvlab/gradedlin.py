"""Exact graded linear algebra: spaces, maps, complexes, cohomology, solving.

Vectors are sparse dicts {basis_index: coefficient}; matrices are lists of
sparse rows.  Row reduction uses deterministic lexicographic pivoting (basis
order = label order as given), so every output is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .budget import default_budget
from .fields import FieldSpec, PrimeFieldRequired


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class GradedSpace:
    """Finite graded vector space with an ordered labelled basis."""

    basis: Tuple[Tuple[str, int], ...]  # (label, cohomological degree)
    field: FieldSpec

    def __post_init__(self):
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        by_degree: Dict[int, list] = {}
        for i, (_, d) in enumerate(self.basis):
            by_degree.setdefault(d, []).append(i)
        # the indices of each degree, for `indices_of_degree`
        object.__setattr__(self, "_by_degree", {d: tuple(idx) for d, idx in by_degree.items()})

    @staticmethod
    def make(basis, field: FieldSpec) -> "GradedSpace":
        return GradedSpace(tuple((str(l), int(d)) for l, d in basis), field)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def labels(self) -> List[str]:
        return [l for l, _ in self.basis]

    def degree(self, i: int) -> int:
        return self.basis[i][1]

    def index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.basis):
            if l == label:
                return i
        raise KeyError(label)

    def degrees_present(self) -> List[int]:
        return sorted({d for _, d in self.basis})

    def indices_of_degree(self, n: int) -> List[int]:
        """The basis indices of degree n, ascending, as a new list copied
        from the tables that the (frozen) space builds once."""
        return list(self._by_degree.get(n, ()))

    def dim_in_degree(self, n: int) -> int:
        return len(self.indices_of_degree(n))

    def basis_vector(self, i: int) -> Dict[int, object]:
        return {i: self.field.one()}

    def element_degree(self, v: Dict[int, object]) -> Optional[int]:
        """Degree of a homogeneous element, None for 0; raises if mixed."""
        degs = {self.degree(i) for i in self.field.nonzero(v)}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()


def shift(space: GradedSpace, k: int) -> GradedSpace:
    """Shift [k]: degrees drop by k, per the convention A[1]^i = A^{1+i}."""
    return GradedSpace(tuple((l, d - k) for l, d in space.basis), space.field)


# ---------------------------------------------------------------------------
# sparse vector helpers (module-level: used throughout curvlab)


def vec_add(F: FieldSpec, u: dict, v: dict) -> dict:
    out = dict(u)
    F.add_scaled(out, 1, v)
    return out


def vec_sub(F: FieldSpec, u: dict, v: dict) -> dict:
    out = dict(u)
    F.add_scaled(out, -F.one(), v)
    return out


def vec_scale(F: FieldSpec, c, v: dict) -> dict:
    return F.scale(c, v)


def vec_is_zero(F: FieldSpec, v: dict) -> bool:
    return not v or not F.nonzero(v)


def vec_eq(F: FieldSpec, u: dict, v: dict) -> bool:
    return vec_is_zero(F, vec_sub(F, u, v))


def nonzero_key(F: FieldSpec, v: dict) -> tuple:
    """The nonzero coordinates of v in ascending order: a hashable key, the
    same for two vectors with reduced coefficients iff `vec_eq` holds."""
    return tuple(sorted(F.nonzero(v).items()))


def vec_key(v: dict, dim: int) -> tuple:
    """Deterministic sort key for a coefficient vector."""
    return tuple(str(v.get(i, 0)) for i in range(dim))


# ---------------------------------------------------------------------------
# row reduction


class EchelonBasis:
    """Reduced row echelon basis of a growing span, updated one vector at a time.

    `rref`, `solve`, `kernel_basis`, `LinearSystem` and `cohomology` run on
    it; a rank needs no reduced basis and runs on the field's `rank`.  Only
    the columns below `ncols` take pivots, the lowest nonzero one of each
    new row; entries in later columns ride along with the row operations
    (the augmented-column idiom of `solve`).  The rows are the reduced row
    echelon form of the span, which is unique, so they do not depend on the
    order of the added vectors; `contains(v)` answers `in_span` with one
    reduction of v.
    """

    def __init__(self, F: FieldSpec, ncols: int, rows=()):
        self.F = F
        self.ncols = ncols
        self._pivot_rows: Dict[int, dict] = {}  # pivot column -> row
        for r in rows:
            self.add(r)

    def __len__(self) -> int:
        return len(self._pivot_rows)

    def reduce(self, v: dict) -> dict:
        """v minus its components along the basis rows.

        Every row is zero in the other rows' pivot columns, so one pass
        over the pivot columns of v clears them all.
        """
        res = self.F.nonzero(v)
        for col in [i for i in res if i in self._pivot_rows]:
            self.F.add_scaled(res, -res[col], self._pivot_rows[col])
        return res

    def contains(self, v: dict) -> bool:
        return all(i >= self.ncols for i in self.reduce(v))

    def add(self, v: dict) -> bool:
        """Add v to the span; True iff the rank grew."""
        F = self.F
        res = self.reduce(v)
        cols = [i for i in res if i < self.ncols]
        if not cols:
            return False
        col = min(cols)
        res = F.scale(F.inv(res[col]), res)
        for row in self._pivot_rows.values():
            c = row.get(col)
            if c is not None:
                F.add_scaled(row, -c, res)
        self._pivot_rows[col] = res
        return True

    def rows(self) -> List[dict]:
        return [dict(self._pivot_rows[c]) for c in self.pivots()]

    def pivots(self) -> List[int]:
        return sorted(self._pivot_rows)


class LinearSystem:
    """The system M h = b for one matrix M, given by its columns, and many b.

    The rows of M are indexed by 0 .. nrows - 1.  Each column a is reduced
    once into an `EchelonBasis` over the rows, tagged with its own
    coordinate nrows + a.  A column that reduces to zero on the rows
    depends on the earlier ones: it is free, and the tag part of its
    residue is its kernel vector (1 at a, 0 at the other free columns).
    The residue of b is linear in b.  It vanishes on the rows iff M h = b
    is solvable, and then minus its tag part is the particular solution:
    the one with every free variable zero.  A kernel vector lists its free
    variable first, then the others in ascending order; a particular
    solution lists its keys in ascending order.
    """

    def __init__(self, F: FieldSpec, columns: Sequence[dict], nrows: int):
        self.F = F
        self.nrows = nrows
        self._basis = EchelonBasis(F, nrows)
        self.kernel: List[dict] = []
        one = F.one()
        for a, col in enumerate(columns):
            tagged = dict(col)
            tagged[nrows + a] = one
            res = self._basis.reduce(tagged)
            if any(i < nrows for i in res):
                self._basis.add(res)
                continue
            k = {a: one}
            for i in sorted(res):
                if i != nrows + a:
                    k[i - nrows] = res[i]
            self.kernel.append(k)

    def residue(self, b: dict) -> dict:
        return self._basis.reduce(b)

    def solution(self, res: dict) -> Optional[dict]:
        """The particular solution for the b with residue res, or None."""
        if any(i < self.nrows for i in res):
            return None
        return self.F.scale(-1, {i - self.nrows: c for i, c in sorted(res.items())})


def span_rank(F: FieldSpec, rows: List[dict], ncols: int) -> int:
    """The rank of the rows below ncols, on copies (`F.rank` consumes its rows)."""
    return F.rank([dict(r) for r in rows], ncols)


def in_span(F: FieldSpec, rows: List[dict], v: dict, ncols: int) -> bool:
    return EchelonBasis(F, ncols, rows).contains(v)


def transpose(vectors) -> Dict[object, dict]:
    """Rows <-> columns of a sparse matrix: {j: {i: c}} becomes {i: {j: c}}.

    A list of vectors is read as {position: vector}; the vectors are read in
    ascending j, so each inner dict lists its keys in ascending order.
    """
    items = sorted(vectors.items()) if isinstance(vectors, dict) else enumerate(vectors)
    out: Dict[object, dict] = {}
    for j, v in items:
        for i, c in v.items():
            out.setdefault(i, {})[j] = c
    return out


def rref(F: FieldSpec, rows: List[dict], ncols: int) -> Tuple[List[dict], List[int]]:
    """Reduced row echelon form; pivots in the first ncols columns.

    Returns (reduced nonzero rows, pivot column list).
    """
    basis = EchelonBasis(F, ncols, rows)
    return basis.rows(), basis.pivots()


def solve(F: FieldSpec, rows: List[dict], rhs: List, ncols: int):
    """Solve the linear system rows*x = rhs exactly.

    Returns (particular solution dict, kernel basis list) or None when
    inconsistent.  Particular solution: free variables set to zero.  As in
    the augmented matrix [rows | rhs], a row's own entry in column ncols is
    its right-hand side where rhs is zero, and later columns are ignored.
    """
    aug = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        if not F.is_zero(b):
            row[ncols] = b
        aug.append(row)
    cols = transpose(aug)
    system = LinearSystem(F, [cols.get(a, {}) for a in range(ncols)], len(aug))
    sol = system.solution(system.residue(cols.get(ncols, {})))
    return None if sol is None else (sol, system.kernel)


def kernel_basis(F: FieldSpec, rows: List[dict], ncols: int) -> List[dict]:
    res = solve(F, rows, [F.zero()] * len(rows), ncols)
    assert res is not None
    return res[1]


def enumerate_affine(
    F: FieldSpec, particular: dict, kernel: List[dict], budget: Optional[int] = None
):
    """The points particular + sum_a c_a kernel[a] (c_a in 0..p-1) of an
    affine subspace over F_p, as a lazy iterator.

    The n-th point takes the base-p digits of n as its coefficients, with
    kernel[0] the lowest digit; the gauge witness and the exhaustive test
    oracle rely on this order.  Each point is a copy of `particular` to
    which c_a kernel[a] is added in place in kernel order, a coordinate that
    becomes zero being dropped, so keys come in the order that `vec_add`
    chains give.  This is where searches apply their budget (`None` means
    `default_budget()`): the call itself raises
    BudgetExceeded(p ** len(kernel), budget), before any point is produced.
    """
    if not F.is_prime_field:
        raise PrimeFieldRequired("affine enumeration needs a finite field")
    budget = default_budget() if budget is None else budget
    total = F.characteristic ** len(kernel)
    if total > budget:
        raise BudgetExceeded(total, budget)
    return _affine_points(F, particular, kernel, total)


def _affine_points(F: FieldSpec, particular: dict, kernel: List[dict], total: int):
    p = F.characteristic
    for n in range(total):
        v = dict(particular)
        for k in kernel:
            n, c = divmod(n, p)  # next base-p digit
            if c:
                F.add_scaled(v, c, k)
        yield v


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration requires {required} states, budget is {budget}; "
            f"raise the budget (CURVLAB_MAX_ENUM or --max-enum) to proceed"
        )
        self.required = required
        self.budget = budget


# ---------------------------------------------------------------------------
# graded maps and complexes


@dataclass
class GradedMap:
    """Homogeneous linear map between graded spaces, sparse entry table.

    entries[j] = column j as {target_index: coeff}: the image of source
    basis vector j.
    """

    source: GradedSpace
    target: GradedSpace
    degree: int
    entries: Dict[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        F = self.source.field
        for j, col in self.entries.items():
            sd = self.source.degree(j)
            for i in F.nonzero(col):
                if self.target.degree(i) != sd + self.degree:
                    raise ValueError(
                        f"entry {self.source.basis[j][0]} -> {self.target.basis[i][0]} "
                        f"violates degree {self.degree}"
                    )

    @staticmethod
    def identity(space: GradedSpace) -> "GradedMap":
        return GradedMap(space, space, 0, {i: space.basis_vector(i) for i in range(space.dim)})

    @property
    def field(self) -> FieldSpec:
        return self.source.field

    def apply(self, v: dict) -> dict:
        add_scaled, entries = self.field.add_scaled, self.entries
        out: dict = {}
        for j, c in v.items():
            col = entries.get(j)
            if col:
                add_scaled(out, c, col)
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        F = self.field
        entries = {}
        for j in range(other.source.dim):
            col = self.apply(other.entries.get(j, {}))
            if col:
                entries[j] = col
        return GradedMap(other.source, self.target, self.degree + other.degree, entries)

    def is_zero(self) -> bool:
        F = self.field
        return all(vec_is_zero(F, col) for col in self.entries.values())


@dataclass
class Complex:
    """Graded space with a degree +1 differential squaring to zero."""

    space: GradedSpace
    d: GradedMap

    def __post_init__(self):
        if self.d.degree != 1:
            raise ValueError("differential must have degree +1")
        dd = self.d.compose(self.d)
        if not dd.is_zero():
            bad = next(j for j, col in dd.entries.items() if col)
            raise ValueError(
                f"d^2 != 0 (witness basis element {self.space.basis[bad][0]!r})"
            )


def cohomology(c: Complex, lo: int, hi: int) -> Dict[int, dict]:
    """Per-degree cohomology over a window [lo, hi].

    Returns {degree: {"dim": k, "representatives": [vector, ...]}} with
    representative cocycles (coefficients over the full basis).
    Degrees without basis support report dimension 0.
    """
    F = c.space.field
    out = {}
    for n in range(lo, hi + 1):
        idx = c.space.indices_of_degree(n)
        pos = {g: k for k, g in enumerate(idx)}
        cocycles = LinearSystem(F, [c.d.entries.get(j, {}) for j in idx], c.space.dim).kernel
        boundaries = EchelonBasis(F, len(idx), [
            {pos[i]: coeff for i, coeff in c.d.entries.get(j, {}).items() if i in pos}
            for j in c.space.indices_of_degree(n - 1)
        ])
        dim = len(cocycles) - len(boundaries)
        reps = [k for k in cocycles if boundaries.add(k)]
        assert len(reps) == dim
        out[n] = {
            "dim": dim,
            "representatives": [
                {idx[k]: coeff for k, coeff in rep.items()} for rep in reps
            ],
        }
    return out


def solve_linear(A: GradedMap, b: dict):
    """Solve A x = b exactly.

    Returns (particular, kernel_basis) with deterministic particular solution,
    or None if no solution exists.
    """
    system = LinearSystem(A.field, [A.entries.get(j, {}) for j in range(A.source.dim)], A.target.dim)
    sol = system.solution(system.residue(b))
    return None if sol is None else (sol, system.kernel)

"""MC dg categories at desk scale: hom complexes as two-sided twists, gauge
and homotopy-gauge equivalence, moduli sets, n-homotopies of MC elements and
of (co)algebra maps, and the three-homotopy functor data.

Hom-complex convention: the morphism complex from x to y is A with
differential D_{x->y}(a) = da + ya - (-1)^{|a|} a x; degree-0 cocycles are
the chain maps, and x ~ y (one class in the moduli set) iff some quadruple
(f, g, h1, h2) witnesses mutual inversion in H^0.  The algebra, its MC
elements, hom complexes and H^0 are products over its blocks
(`algebra_blocks`), so `GaugeClasses` decides x ~ y block by block, behind
a memo of whole elements.  dim H^0 of the pair, from two ranks per block
(the field's `rank`), answers most pairs and sets the one budget rule,
refusing above p^dim H^0(x, y); the pairs left build a chain-map kernel
and solve once per class of H^0.  The witness (`quadruple`) assembles the
blocks' pairs (f, g) with their homotopies, and `gauge_to_three_homotopy`
builds from it the 3-homotopy that `n_homotopy_search` returns for n = 3.
Other n solve A @ I^n stage by stage along the length of the words of I^n
(`algebra.mc_staged_enumerate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    CurvedAlgebra,
    algebra_blocks,
    CurvedMorphism,
    compose_morphisms,
    mc_enumerate,
    mc_staged_enumerate,
    tensor_algebras,
    tensor_element,
    tensor_index,
    tensor_map,
    tensor_split,
    twisted_apply,
    twisted_map,
)
from .budget import default_budget
from .fields import PrimeFieldRequired
from .gradedlin import (
    BudgetExceeded,
    Complex,
    EchelonBasis,
    GradedMap,
    LinearSystem,
    cohomology,
    enumerate_affine,
    nonzero_key,
    solve_linear,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .interval import IntervalAlgebra, make_interval


# ---------------------------------------------------------------------------
# hom complexes


def hom_complex(A: CurvedAlgebra, x: dict, y: dict) -> Complex:
    """Morphism complex x -> y: underlying space of A, differential D_{x->y}."""
    if not A.is_mc(x) or not A.is_mc(y):
        raise ValueError("hom_complex requires Maurer-Cartan endpoints")
    return Complex(A.space, twisted_map(A, x, y))


def h0_hom(A: CurvedAlgebra, x: dict, y: dict):
    return cohomology(hom_complex(A, x, y), 0, 0)[0]


# ---------------------------------------------------------------------------
# gauge quadruples and the moduli set


@dataclass
class GaugeQuadruple:
    """Witness that x and y are isomorphic in H^0 of the MC dg category.

    f: degree 0 chain map x -> y (f x = df + y f),
    g: degree 0 chain map y -> x (g y = dg + x g),
    h1, h2: degree -1 with d^x h1 = g f - 1 and d^y h2 = f g - 1.
    """

    A: CurvedAlgebra
    x: dict
    y: dict
    f: dict
    g: dict
    h1: dict
    h2: dict

    def validate(self) -> List[str]:
        A, F, x, y = self.A, self.A.field, self.x, self.y
        if not A.is_mc(x) or not A.is_mc(y):
            raise ValueError("hom_complex requires Maurer-Cartan endpoints")
        out = []
        if not vec_is_zero(F, twisted_apply(A, x, y, self.f)):
            out.append("f is not a chain map x -> y")
        if not vec_is_zero(F, twisted_apply(A, y, x, self.g)):
            out.append("g is not a chain map y -> x")
        gf1 = vec_sub(F, A.product(self.g, self.f), A.unit)
        if not vec_eq(F, twisted_apply(A, x, x, self.h1), gf1):
            out.append("d^x h1 != gf - 1")
        fg1 = vec_sub(F, A.product(self.f, self.g), A.unit)
        if not vec_eq(F, twisted_apply(A, y, y, self.h2), fg1):
            out.append("d^y h2 != fg - 1")
        return out


def find_gauge_quadruple(
    A: CurvedAlgebra, x: dict, y: dict, budget: Optional[int] = None
) -> Optional[GaugeQuadruple]:
    """A homotopy gauge equivalence x ~ y over F_p, or None: the witness of
    a fresh `GaugeClasses`, refusing exactly where its verdict refuses."""
    return GaugeClasses(A, budget).quadruple(x, y)


@dataclass
class _ElementData:
    """What the gauge solve needs of one MC element x of a block.

    D_{x->y}(e) = de + ye - (-1)^{|e|} ex is the sum of a source half
    D_{x->0}(e), which depends on x only, and a target half ye, which
    depends on y only.  x keeps both of its halves on the bases of degree 0
    and -1, so every column of a hom complex between two elements is one
    sum.  The system of d^x is built by the first solve that needs it.
    """

    key: tuple
    h0: int  # dim H^0(x, x)
    source0: List[dict]  # de - ex for e of degree 0
    target0: List[dict]  # xe for e of degree 0
    sourcem1: List[dict]  # de + ex for e of degree -1
    targetm1: List[dict]  # xe for e of degree -1
    homotopies: Optional[LinearSystem] = None  # d^x h = t for h of degree -1


class _Entry(NamedTuple):
    """An element x of the whole algebra: its key, the data of its
    component in each block, and dim H^0(x, x), their sum."""

    key: tuple
    parts: List[_ElementData]
    h0: int


class _Classes:
    """The gauge classes known among some keys, kept closed under ~:
    union-find over the keys recorded, plus the pairs of classes known
    apart."""

    def __init__(self) -> None:
        self._parent: Dict[tuple, tuple] = {}
        self._apart: Dict[tuple, set] = {}  # root -> roots of distinct classes

    def known(self, kx: tuple, ky: tuple) -> Tuple[tuple, tuple, Optional[bool]]:
        """The roots of the classes of x and y, and x ~ y where they are
        one class, False where they are known apart, else None."""
        parent = self._parent
        while parent.get(kx, kx) != kx:
            kx = parent[kx]
        while parent.get(ky, ky) != ky:
            ky = parent[ky]
        if kx == ky:
            return kx, ky, True
        return kx, ky, False if ky in self._apart.get(kx, ()) else None

    def record(self, rx: tuple, ry: tuple, same: bool) -> None:
        """Keep the verdict on two classes, given by their roots (`known`)."""
        if not same:
            self._apart.setdefault(rx, set()).add(ry)
            self._apart.setdefault(ry, set()).add(rx)
            return
        self._parent[ry] = rx
        for r in self._apart.pop(ry, ()):
            self._apart[r].discard(ry)
            self._apart[r].add(rx)
            self._apart.setdefault(rx, set()).add(r)


@dataclass
class _Block:
    """One block B of the algebra (`algebra_blocks`), at `indices` of the
    whole, with the data of the components met in it, keyed by their keys
    in B, and its own memo of the pairs it solved.  Where there are several
    blocks, a pair of components recurs in many pairs of elements, and
    `dims` keeps its dim H^0(x, y)."""

    indices: List[int]
    B: CurvedAlgebra
    classes: _Classes
    dims: Optional[Dict[Tuple[tuple, tuple], int]]
    elements: Dict[tuple, _ElementData]

    def to_whole(self, v: dict) -> dict:
        return {self.indices[a]: c for a, c in v.items()}


def _combine(F, terms: List[Tuple[object, dict]]) -> dict:
    """sum c v over the terms (c, v), added in their order."""
    out: dict = {}
    for c, v in terms:
        F.add_scaled(out, c, v)
    return out


class GaugeClasses:
    """Gauge equivalence on the MC elements of one algebra over F_p, with
    what the verdicts and witnesses need cached per element.

    x ~ y is isomorphism in H^0 of the MC dg category, and holds exactly
    when every block component x_b ~ y_b.  Each component is keyed and its
    halves of the hom complexes built once per block (`_ElementData`);
    `indexed(xs)` queries a fixed list by position, so a caller with many
    queries keys each element once.

    Both answers come from one solve per block, `_inverse_pair`, under one
    budget rule for the whole pair (`_pair_dims`): it refuses when the
    p^dim H^0(x, y) classes exceed the budget.  dim H^0(x, y) is invariant
    under gauge equivalence of either end, so whether a query refuses does
    not depend on what the memo holds.

    `equivalent(x, y)` is the verdict, memo first: a memo of whole keys
    closed under ~, and behind it one memo per block, so a pair of
    components is solved once however many pairs of elements it meets in.
    A pair that a memo or the dimensions of H^0 decide builds no chain-map
    kernel.  `quadruple(x, y)` is the witness (f, g, h1, h2) from the same
    solves: None exactly where the verdict is False, refused exactly where
    a fresh verdict refuses.
    """

    def __init__(self, A: CurvedAlgebra, budget: Optional[int] = None):
        self.A = A
        self.budget = budget
        blocks = algebra_blocks(A)
        several = len(blocks) > 1
        self._blocks = [
            _Block(indices, B, _Classes(), {} if several else None, {}) for indices, B in blocks
        ]
        self._classes = _Classes()  # the memo of whole keys
        # the block of each index of the whole, and its index there
        self._place = {i: (b, a) for b, blk in enumerate(self._blocks) for a, i in enumerate(blk.indices)}
        self._p = A.field.characteristic

    def _budget(self) -> int:
        """The budget of a query, after the prime-field check.  A budget of
        None is resolved by `default_budget()` on the first query and kept."""
        if not self.A.field.is_prime_field:
            raise PrimeFieldRequired("gauge search requires a prime field")
        if self.budget is None:
            self.budget = default_budget()
        return self.budget

    def _entry(self, x: dict) -> _Entry:
        """x keyed, with the data of its component in each block."""
        key = nonzero_key(self.A.field, x)
        keys: List[list] = [[] for _ in self._blocks]
        for i, c in key:
            b, a = self._place[i]
            keys[b].append((a, c))
        parts = [self._element(blk, tuple(k), dict(k)) for blk, k in zip(self._blocks, keys)]
        return _Entry(key, parts, sum(e.h0 for e in parts))

    def _element(self, blk: _Block, key: tuple, x: dict) -> _ElementData:
        """The data of the component x (with that key) in the block, built
        once: its source and target halves on degrees 0 and -1, and
        dim H^0(x, x) from them."""
        B = blk.B
        if key not in blk.elements:
            if not B.is_mc(x):
                raise ValueError("hom_complex requires Maurer-Cartan endpoints")
            e0, em1 = ([B.space.basis_vector(j) for j in B.degree_indices(deg)] for deg in (0, -1))
            source0 = [twisted_apply(B, x, {}, e) for e in e0]  # D_{x->0}(e)
            target0 = [B.product(x, e) for e in e0]
            sourcem1 = [twisted_apply(B, x, {}, e) for e in em1]
            targetm1 = [B.product(x, e) for e in em1]
            h0 = self._h0_dim(B, source0, target0, sourcem1, targetm1)
            blk.elements[key] = _ElementData(key, h0, source0, target0, sourcem1, targetm1)
        return blk.elements[key]

    @staticmethod
    def _columns(sources: List[dict], targets: List[dict]) -> List[dict]:
        """The columns of D_{x->y} on the basis of one degree, from x's
        source half and y's target half on it: fresh sums, left unreduced,
        since every consumer eliminates and reads its entries mod p."""
        cols = [dict(s) for s in sources]
        for col, t in zip(cols, targets):
            for i, c in t.items():
                col[i] = col.get(i, 0) + c
        return cols

    def _h0_dim(self, B: CurvedAlgebra, source0, target0, sourcem1, targetm1) -> int:
        """dim H^0(x, y) = dim B^0 - rank D^0 - rank D(B^-1) in the block B,
        from x's source halves and y's target halves: two ranks (`rank`) of
        their columns, and no kernel."""
        F, n = B.field, B.dim
        return len(source0) - F.rank(self._columns(source0, target0), n) - F.rank(self._columns(sourcem1, targetm1), n)

    def _homotopies(self, blk: _Block, e: _ElementData) -> LinearSystem:
        """d^x h = t for h of degree -1, for the component with data e."""
        if e.homotopies is None:
            e.homotopies = LinearSystem(self.A.field, self._columns(e.sourcem1, e.targetm1), blk.B.dim)
        return e.homotopies

    def _pair_dims(self, x: _Entry, y: _Entry, budget: int) -> Optional[List[int]]:
        """dim H^0(x_b, y_b) of each block for a pair of distinct elements,
        or None where the dimensions answer that x and y are apart.

        An inverse makes H^0(x, x), H^0(x, y) and H^0(y, y) isomorphic, so
        unequal dim H^0(x, x) and dim H^0(y, y) answer first, with no
        refusal.  In a block dim H^0(x, y) comes from two ranks (`_h0_dim`).
        The classes of H^0(x, y), p^(sum over the blocks), over the budget
        refuse with BudgetExceeded, and a dim H^0(x, y) unequal to
        dim H^0(x, x) answers.
        """
        if x.h0 != y.h0:
            return None
        dims = []
        for blk, ex, ey in zip(self._blocks, x.parts, y.parts):
            if ex.key == ey.key:
                dim = ex.h0
            elif blk.dims and (ex.key, ey.key) in blk.dims:
                dim = blk.dims[ex.key, ey.key]
            else:
                dim = self._h0_dim(blk.B, ex.source0, ey.target0, ex.sourcem1, ey.targetm1)
                if blk.dims is not None:
                    blk.dims[ex.key, ey.key] = dim
            dims.append(dim)
        classes = self._p ** sum(dims)
        if classes > budget:
            raise BudgetExceeded(classes, budget)
        return dims if sum(dims) == x.h0 else None

    def _inverse_pair(
        self, blk: _Block, ex: _ElementData, ey: _ElementData, dim: Optional[int], budget: int
    ) -> Optional[Tuple[list, list]]:
        """Some f: x -> y in the block with an inverse g: y -> x in H^0, as
        the terms (c, v) of f and of g over their chain-map bases, or None.

        dim is the block's dim H^0(x, y) from `_pair_dims`, or None where
        x = y as elements of the whole algebra: then f = 1 is the one point,
        and it has an inverse.  Otherwise unequal dimensions answer None.
        Whether f has an inverse depends only on [f] in H^0(x, y), so f runs
        in base-p order over the span of the kernel basis vectors of
        Z^0(x, y) that are independent modulo B^0(x, y) = D_{x->y}(B^-1):
        p^dim points.  Their columns and the echelon basis of B^0(x, y) are
        built here; the ranks of `_pair_dims` keep no basis.

        For a fixed f the conditions on g = sum_i c_i g_i are linear in c:
        the row parts of the residues of g f modulo d^x and of f g modulo
        d^y equal those of 1.  They are bilinear in (g_i, f_j), so the
        residues of g_i f_j and f_j g_i are reduced once, and each f is one
        `LinearSystem` on their sums; the first solvable one gives the pair.
        """
        B, F, n = blk.B, blk.B.field, blk.B.dim
        idx0 = B.degree_indices(0)

        def rows(system: LinearSystem, v: dict, shift: int) -> dict:
            return {i + shift: c for i, c in system.residue(v).items() if i < n}

        def chain_maps(cols: List[dict]) -> List[dict]:
            return [{idx0[a]: c for a, c in k.items()} for k in LinearSystem(F, cols, n).kernel]

        if dim is None:
            fs, points = [B.unit], [{0: F.one()}]
        else:
            if not ex.h0 == ey.h0 == dim:
                return None
            boundaries = EchelonBasis(F, n, self._columns(ex.sourcem1, ey.targetm1))
            fs = [f for f in chain_maps(self._columns(ex.source0, ey.target0)) if boundaries.add(f)]
            assert len(fs) == dim
            points = enumerate_affine(F, {}, [{j: F.one()} for j in range(dim)], budget)
        gs = chain_maps(self._columns(ey.source0, ex.target0))
        hx, hy = self._homotopies(blk, ex), self._homotopies(blk, ey)
        terms = []  # terms[i][j]: the residues of g_i f_j and f_j g_i
        for g in gs:
            row = []
            for f in fs:
                r = rows(hx, B.product(g, f), 0)
                r.update(rows(hy, B.product(f, g), n))
                row.append(r)
            terms.append(row)
        target = rows(hx, B.unit, 0)
        target.update(rows(hy, B.unit, n))
        for a in points:
            cols = []
            for row in terms:
                col: dict = {}
                for j, c in a.items():
                    F.add_scaled(col, c, row[j])
                cols.append(col)
            system = LinearSystem(F, cols, 2 * n)
            sol = system.solution(system.residue(target))
            if sol is not None:
                return [(c, fs[j]) for j, c in a.items()], [(c, gs[i]) for i, c in sol.items()]
        return None

    def _verdict(self, x: _Entry, y: _Entry, budget: int) -> bool:
        """x ~ y behind `equivalent` and `indexed`: the memo of whole keys,
        else the dimensions and then each block, the memo keeping the verdict."""
        rx, ry, same = self._classes.known(x.key, y.key)
        if same is None:
            dims = self._pair_dims(x, y, budget)
            same = dims is not None and all(
                self._block_verdict(blk, ex, ey, dim, budget)
                for blk, ex, ey, dim in zip(self._blocks, x.parts, y.parts, dims)
            )
            self._classes.record(rx, ry, same)
        return same

    def _block_verdict(self, blk: _Block, ex: _ElementData, ey: _ElementData, dim: int, budget: int) -> bool:
        """x_b ~ y_b from the block's memo, else from its solve, whose
        answer the memo then keeps."""
        rx, ry, same = blk.classes.known(ex.key, ey.key)
        if same is None:
            same = self._inverse_pair(blk, ex, ey, dim, budget) is not None
            blk.classes.record(rx, ry, same)
        return same

    def equivalent(self, x: dict, y: dict) -> bool:
        """Whether x ~ y, memo first.

        After the prime-field and MC checks, a pair whose classes the memo
        has joined or separated is answered from it and builds no chain-map
        kernel.  Any other pair is answered by its blocks, and refuses
        with BudgetExceeded(p^dim H^0(x, y), budget) over the budget.  So
        equivalent(x, x) is True at any budget.
        """
        budget = self._budget()
        return self._verdict(self._entry(x), self._entry(y), budget)

    def indexed(self, xs: Sequence[dict]) -> Callable[[int, int], bool]:
        """The verdict on (xs[i], xs[j]) by position: `equivalent` without
        re-keying its ends.  Each element's data is looked up once, on its
        first query, so every error surfaces where `equivalent` raises it."""
        data: List[Optional[_Entry]] = [None] * len(xs)

        def at(i: int) -> _Entry:
            if data[i] is None:
                data[i] = self._entry(xs[i])
            return data[i]

        def same(i: int, j: int) -> bool:
            budget = self._budget()
            return self._verdict(at(i), at(j), budget)

        return same

    def quadruple(self, x: dict, y: dict) -> Optional[GaugeQuadruple]:
        """The witness (f, g, h1, h2) of x ~ y, or None where x and y are
        not equivalent: the pairs `_inverse_pair` finds in the blocks, with
        the refusal of `_pair_dims` (none for x = y, where f = 1), completed
        by the particular solutions of d^x h1 = gf - 1 and d^y h2 = fg - 1.
        f and g add the blocks' terms in the order of their chain maps'
        first keys, as one solve over the whole algebra lists them.  The
        memo is neither read nor written, so a witness is that of a fresh
        instance."""
        A, F = self.A, self.A.field
        budget = self._budget()
        xe, ye = self._entry(x), self._entry(y)
        same = xe.key == ye.key
        dims = [None] * len(self._blocks) if same else self._pair_dims(xe, ye, budget)
        if dims is None:
            return None
        solved = []
        for blk, ex, ey, dim in zip(self._blocks, xe.parts, ye.parts, dims):
            pair = self._inverse_pair(blk, ex, ey, dim, budget)
            if pair is None:
                return None
            solved.append(pair)

        def whole(k: int) -> dict:  # the f (k = 0) or g (k = 1) of the whole algebra
            terms = [(c, blk.to_whole(v)) for blk, pair in zip(self._blocks, solved) for c, v in pair[k]]
            return _combine(F, sorted(terms, key=lambda t: next(iter(t[1]))))

        f = _combine(F, [(F.one(), A.unit)]) if same else whole(0)
        g = whole(1)
        h1, h2 = {}, {}
        for blk, ex, ey, (fterms, gterms) in zip(self._blocks, xe.parts, ye.parts, solved):
            fb, gb = _combine(F, fterms), _combine(F, gterms)
            idxm1 = blk.B.degree_indices(-1)
            for h, e, product in ((h1, ex, blk.B.product(gb, fb)), (h2, ey, blk.B.product(fb, gb))):
                system = self._homotopies(blk, e)
                sol = system.solution(system.residue(vec_sub(F, product, blk.B.unit)))
                h.update(blk.to_whole({idxm1[a]: c for a, c in sol.items()}))
        quad = GaugeQuadruple(A, x, y, f, g, dict(sorted(h1.items())), dict(sorted(h2.items())))
        assert quad.validate() == []
        return quad


def moduli_set(
    A: CurvedAlgebra, budget: Optional[int] = None, mc: Optional[List[dict]] = None
) -> List[List[dict]]:
    """Partition of MC(A) into isomorphism classes of H^0(MC_dg(A)).

    Each element joins the first class whose first member it is gauge
    equivalent to, or opens a new class.  The verdicts come from one
    `GaugeClasses` memo, queried by index, so each element is keyed once
    and a comparison is solved only where neither the memo nor the
    dimensions of H^0 decide it (refused above p^dim H^0 of the pair).
    Classes and their members are deterministically ordered.
    """
    elems = mc_enumerate(A, budget=budget) if mc is None else mc
    same = GaugeClasses(A, budget).indexed(elems)
    classes: List[List[int]] = []
    for i in range(len(elems)):
        for cls in classes:
            if same(cls[0], i):
                cls.append(i)
                break
        else:
            classes.append([i])
    return [[elems[i] for i in cls] for cls in classes]


# ---------------------------------------------------------------------------
# n-homotopies of MC elements


def path_object(A: CurvedAlgebra, n: int) -> Tuple[IntervalAlgebra, CurvedAlgebra]:
    """I^n and the path object A @ I^n (basis labels a%w), each built once."""
    I = make_interval(A.field, n)
    return I, tensor_algebras(A, I.algebra, sep="%")


def interval_tensor(A: CurvedAlgebra, n: int) -> CurvedAlgebra:
    return path_object(A, n)[1]


def _at(F, x: dict, I: IntervalAlgebra, word: str, c=None) -> dict:
    """x @ c w in A @ I^n for the basis word w of I^n (c = 1 by default)."""
    w = I.algebra.space.index(word)
    return tensor_element(F, x, {w: F.one() if c is None else c}, I.algebra.dim)


def _endpoints(I: IntervalAlgebra, X: dict) -> Tuple[dict, dict]:
    """(1 @ ev_0)(X), (1 @ ev_1)(X): the e_e and e_f components of X."""
    parts = tensor_split(X, I.algebra.dim)
    return tuple(parts.get(I.algebra.space.index(w), {}) for w in ("e_e", "e_f"))


@dataclass
class NHomotopy:
    A: CurvedAlgebra
    n: int
    X: dict  # MC element of A @ I^n

    def endpoints(self) -> Tuple[dict, dict]:
        return _endpoints(make_interval(self.A.field, self.n), self.X)


def constant_homotopy(A: CurvedAlgebra, x: dict, n: int) -> NHomotopy:
    """x @ 1 (components x at e and f, zero higher terms)."""
    I, T = path_object(A, n)
    X = _at(A.field, x, I, "e_e")
    X.update(_at(A.field, x, I, "e_f"))
    if not T.is_mc(X):
        raise AssertionError("constant homotopy failed the MC equation")
    return NHomotopy(A, n, X)


def square_zero_three_homotopy(A: CurvedAlgebra, x: dict, xp: dict) -> Optional[NHomotopy]:
    """Constructive 3-homotopy for cohomologous MC elements: components
    y = -h at s and +h at t where dh = x - x', zero higher terms.
    Works over any field; returns None when x - x' is not a coboundary.
    """
    F = A.field
    sol = solve_linear(A.d, vec_sub(F, x, xp))
    if sol is None:
        return None
    h = sol[0]
    I, T = path_object(A, 3)
    nI, s, t = I.algebra.dim, I.algebra.space.index("s"), I.algebra.space.index("t")
    for sign_s in (F.neg(F.one()), F.one()):
        X = _at(F, x, I, "e_e")
        X.update(_at(F, xp, I, "e_f"))
        X.update(tensor_element(F, h, {s: sign_s, t: F.neg(sign_s)}, nI))
        if T.is_mc(X):
            return NHomotopy(A, 3, X)
    return None


def n_homotopy_search(
    A: CurvedAlgebra, x: dict, xp: dict, n: int, budget: Optional[int] = None
) -> Optional[NHomotopy]:
    """An n-homotopy between MC elements x, x', or None where there is none.

    Equal ends give the constant homotopy.  For n = 3 it is built: the
    square-zero shortcut (any field), else `gauge_to_three_homotopy` on the
    gauge witness, which refuses as the verdict does and needs F_p.  Other
    n give the first MC element of A @ I^n over x @ e + x' @ f, in `vec_key`
    order, by `mc_staged_enumerate` (over F_p, refused as it says): the
    stage of a @ w is the length of w, since d keeps or lengthens words,
    products add lengths, and the words of length 0 give A x A.
    """
    F = A.field
    if not A.is_mc(x) or not A.is_mc(xp):
        raise ValueError("endpoints must be MC elements")
    if vec_eq(F, x, xp):
        return constant_homotopy(A, x, n)
    if n == 3:
        H = square_zero_three_homotopy(A, x, xp)
        if H is not None:
            return H
        quad = GaugeClasses(A, budget).quadruple(x, xp)
        return None if quad is None else gauge_to_three_homotopy(quad)
    I, T = path_object(A, n)
    X = _at(F, x, I, "e_e")
    X.update(_at(F, xp, I, "e_f"))
    stage = [0] * T.dim  # the length of w, its degree in I^n, at a @ w
    for i in range(A.dim):
        for w in range(I.algebra.dim):
            stage[tensor_index(i, w, I.algebra.dim)] = I.algebra.degree(w)
    points = mc_staged_enumerate(T, stage, [X], budget)
    return NHomotopy(A, n, points[0]) if points else None


def verify_n_homotopy(A: CurvedAlgebra, x: dict, xp: dict, n: int, X: dict) -> bool:
    I, T = path_object(A, n)
    if not T.is_mc(X):
        return False
    e0, e1 = _endpoints(I, X)
    return vec_eq(A.field, e0, x) and vec_eq(A.field, e1, xp)


def gauge_to_three_homotopy(quad: GaugeQuadruple) -> Optional[NHomotopy]:
    """Build a 3-homotopy from a gauge quadruple: components
    H_e = x, H_f = y, H_s = g - 1, H_t = f - 1, H_st = -h1, H_ts = -h2
    (so phi_s = g: y -> x and phi_t = f: x -> y, as in
    `ThreeHomotopyData.identities`), then solve the sts-component linearly.

    What is left of the MC equation is its sts-component, a degree -1
    cocycle y -> x, affine in H_sts and H_st.  Its class need not vanish for
    the given h1, so H_st may also move by a d^x-cocycle z, which keeps
    identity (5) and moves the class by [z g]; g is invertible in H^0, so
    some z kills it.  Where H_sts alone suffices, the particular solution
    leaves H_st = -h1.
    """
    A, F = quad.A, quad.A.field
    I, T = path_object(A, 3)
    m1 = F.neg(F.one())
    X = _at(F, quad.x, I, "e_e")
    for part, word, c in (
        (quad.y, "e_f", None),
        (vec_sub(F, quad.g, A.unit), "s", None),
        (vec_sub(F, quad.f, A.unit), "t", None),
        (quad.h1, "st", m1),
        (quad.h2, "ts", m1),
    ):
        X.update(_at(F, part, I, word, c))
    idxm1 = A.degree_indices(-1)
    cocycles = LinearSystem(
        F, [twisted_apply(A, quad.x, quad.x, A.space.basis_vector(j)) for j in idxm1], A.dim
    ).kernel
    moves = [_at(F, A.space.basis_vector(i), I, "sts") for i in A.degree_indices(-2)] + [
        _at(F, {idxm1[a]: c for a, c in z.items()}, I, "st") for z in cocycles
    ]
    # R(X + v) - R(X) = d^X v + v v, and v v = 0 on the span of the moves
    # (every product of two words among st and sts is 0 in I^3)
    cols = [twisted_apply(T, X, X, v) for v in moves]
    system = LinearSystem(F, cols, T.dim)
    sol = system.solution(system.residue(vec_scale(F, m1, T.mc_residual(X))))
    if sol is None:
        return None
    for a, c in sol.items():
        F.add_scaled(X, c, moves[a])
    if not T.is_mc(X):
        return None
    return NHomotopy(A, 3, X)


# ---------------------------------------------------------------------------
# three-homotopy functor data (the seven components of an MC element of
# B @ End(V) @ I^3)


@dataclass
class ThreeHomotopyData:
    B: CurvedAlgebra  # B @ End(V) (or any curved algebra)
    H: dict  # MC element of B @ I^3
    components: Dict[str, dict]

    def identities(self) -> Dict[str, bool]:
        """The six functor-data identities, exact over any field:
        (1) H_e MC, (2) H_f MC,
        (3) phi_s := 1 + H_s is a chain map H_f -> H_e,
        (4) phi_t := 1 + H_t is a chain map H_e -> H_f,
        (5) d^{H_e}(-H_st) = phi_s phi_t - 1,
        (6) d^{H_f}(-H_ts) = phi_t phi_s - 1.
        """
        A, F = self.B, self.B.field
        c = self.components
        x, y = c["e_e"], c["e_f"]
        out = {"endpoint_e_mc": A.is_mc(x), "endpoint_f_mc": A.is_mc(y)}
        phi_s, phi_t = (vec_add(F, A.unit, c[w]) for w in ("s", "t"))
        if not (out["endpoint_e_mc"] and out["endpoint_f_mc"]):
            out["s_chain_map"] = out["t_chain_map"] = out["st_homotopy"] = out["ts_homotopy"] = False
            return out
        out["s_chain_map"] = vec_is_zero(F, twisted_apply(A, y, x, phi_s))
        out["t_chain_map"] = vec_is_zero(F, twisted_apply(A, x, y, phi_t))
        m1 = F.neg(F.one())
        lhs5 = twisted_apply(A, x, x, vec_scale(F, m1, c["st"]))
        rhs5 = vec_sub(F, A.product(phi_s, phi_t), A.unit)
        out["st_homotopy"] = vec_eq(F, lhs5, rhs5)
        lhs6 = twisted_apply(A, y, y, vec_scale(F, m1, c["ts"]))
        rhs6 = vec_sub(F, A.product(phi_t, phi_s), A.unit)
        out["ts_homotopy"] = vec_eq(F, lhs6, rhs6)
        return out


def three_homotopy_unpack(B: CurvedAlgebra, H: dict) -> ThreeHomotopyData:
    """Split an MC element of B @ I^3 into its seven word components."""
    I, T = path_object(B, 3)
    if not T.is_mc(H):
        raise ValueError("H is not a Maurer-Cartan element of B @ I^3")
    parts = tensor_split(H, I.algebra.dim)
    words = I.algebra.space.basis
    return ThreeHomotopyData(B, H, {lbl: parts.get(w, {}) for w, (lbl, _) in enumerate(words)})


# ---------------------------------------------------------------------------
# homotopies of algebra maps


def _evaluations(B: CurvedAlgebra, n: int) -> Tuple[CurvedMorphism, CurvedMorphism]:
    """B @ ev_0 and B @ ev_1: B @ I^n -> B @ k = B, from one B @ I^n."""
    I, T = path_object(B, n)
    idB = GradedMap.identity(B.space)
    return tuple(
        CurvedMorphism(T, B, tensor_map(idB, ev.f, T.space, B.space), {}) for ev in (I.ev0, I.ev1)
    )


def tensor_with_interval_morphism(
    B: CurvedAlgebra, n: int, which: int
) -> CurvedMorphism:
    """(B @ ev_i): B @ I^n -> B."""
    return _evaluations(B, n)[which]


def _first_miss(F, A: CurvedAlgebra, end: CurvedMorphism, k: CurvedMorphism) -> Optional[int]:
    """The first basis index of A, their source, where the maps of end and
    k differ, or None."""
    for i in range(A.dim):
        v = A.space.basis_vector(i)
        if not vec_eq(F, end.f.apply(v), k.f.apply(v)):
            return i
    return None


def map_homotopy_check(
    f: CurvedMorphism, g: CurvedMorphism, n: int, h: CurvedMorphism
) -> dict:
    """Verdict for an elementary n-homotopy h: A -> B @ I^n between f and g;
    the witness is where an end misses its map, the end at 1 where both do."""
    A, F = f.source, f.target.field
    witness = None
    for ev, k in zip(_evaluations(f.target, n), (f, g)):
        end = compose_morphisms(ev, h)
        i = _first_miss(F, A, end, k)
        if i is not None:
            witness = A.label(i)
        elif not vec_eq(F, end.b, k.b):
            witness = "(b-component)"
    return {"verdict": witness is None, "witness": witness}


def constant_map_homotopy(f: CurvedMorphism, n: int) -> CurvedMorphism:
    """(1 @ unit) f: the constant homotopy from f to itself."""
    B = f.target
    F = B.field
    I, T = path_object(B, n)
    unit, nI = I.algebra.unit, I.algebra.dim
    entries = {}
    for j in range(f.source.dim):
        col = tensor_element(F, f.f.entries.get(j, {}), unit, nI)
        if col:
            entries[j] = col
    bb = tensor_element(F, f.b, unit, nI)
    return CurvedMorphism(f.source, T, GradedMap(f.source.space, T.space, 0, entries), bb)


def map_homotopy_check_coalgebra(
    fdual: CurvedMorphism, gdual: CurvedMorphism, n: int, hdual: CurvedMorphism
) -> dict:
    """Homotopy verdict for coalgebra maps f, g: C -> C', given through their
    dual algebra morphisms.  An elementary homotopy C @ I_n -> C' dualizes to
    an algebra morphism C'* -> C* @ I^n, which is checked against the
    endpoint evaluations exactly as in the algebra case.
    """
    A, F = fdual.source, fdual.target.field
    ends = [compose_morphisms(ev, hdual) for ev in _evaluations(fdual.target, n)]
    misses = [_first_miss(F, A, end, k) for end, k in zip(ends, (fdual, gdual))]
    first = min((i for i in misses if i is not None), default=None)
    return {"verdict": first is None, "witness": None if first is None else A.label(first)}


def one_homotopy_middle_component(h: CurvedMorphism) -> Dict[int, dict]:
    """The s-component h~ of a 1-homotopy h: A -> B @ I^1."""
    I = make_interval(h.target.field, 1).algebra
    s = I.space.index("s")
    out = {}
    for j in range(h.source.dim):
        col = tensor_split(h.f.entries.get(j, {}), I.dim).get(s)
        if col:
            out[j] = col
    return out

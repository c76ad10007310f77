"""MC dg categories at desk scale: hom complexes as two-sided twists, gauge
and homotopy-gauge equivalence, moduli sets, n-homotopies of MC elements and
of (co)algebra maps, and the three-homotopy functor data.

Hom-complex convention: the morphism complex from x to y is A with
differential D_{x->y}(a) = da + ya - (-1)^{|a|} a x; degree-0 cocycles are
the chain maps, and x ~ y (one class in the moduli set) iff some quadruple
(f, g, h1, h2) witnesses mutual inversion in H^0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    compose_morphisms,
    mc_enumerate,
    tensor_algebras,
    twisted_apply,
    twisted_map,
)
from .budget import default_budget
from .fields import PrimeFieldRequired
from .gradedlin import (
    BudgetExceeded,
    Complex,
    GradedMap,
    LinearSystem,
    cohomology,
    enumerate_affine,
    solve_linear,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .interval import make_interval


# ---------------------------------------------------------------------------
# hom complexes


def hom_complex(A: CurvedAlgebra, x: dict, y: dict) -> Complex:
    """Morphism complex x -> y: underlying space of A, differential D_{x->y}."""
    if not A.is_mc(x) or not A.is_mc(y):
        raise ValueError("hom_complex requires Maurer-Cartan endpoints")
    return Complex(A.space, twisted_map(A, x, y))


def h0_hom(A: CurvedAlgebra, x: dict, y: dict):
    c = hom_complex(A, x, y)
    return cohomology(c, 0, 0)[0]


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
    """Exhaustive search (over F_p) for a homotopy gauge equivalence x ~ y."""
    return GaugeClasses(A, budget).quadruple(x, y)


class _ElementData(NamedTuple):
    """What the gauge search needs of one MC element x."""

    key: tuple
    left: List[dict]  # x.e_j over the degree-0 basis
    right: List[dict]  # e_j.x over the degree-0 basis
    homotopies: LinearSystem  # d^x h = t for h of degree -1


class GaugeClasses:
    """Exhaustive gauge-equivalence search on the MC elements of one algebra
    over F_p, with what the search needs cached per element and per pair.

    `quadruple(x, y)` enumerates the chain maps f: x -> y (outer) and
    g: y -> x (inner) in base-p order and returns the first (f, g, h1, h2)
    with d^x h1 = gf - 1 and d^y h2 = fg - 1.  It refuses when the
    p^(dim Z0(x,y) + dim Z0(y,x)) pairs exceed the budget.

    `equivalent(x, y)` memoizes the verdicts.  x ~ y is isomorphism in H^0
    of the MC dg category, an equivalence relation, so the verdicts are
    kept closed under it: union-find over the elements seen, plus the pairs
    of classes known to be distinct.  Every query first makes the search's
    budget count and refuses exactly as the search would, so memoizing
    changes no refusal.
    """

    def __init__(self, A: CurvedAlgebra, budget: Optional[int] = None):
        self.A = A
        self.budget = budget
        self._elements: Dict[tuple, _ElementData] = {}
        self._chain_maps: Dict[Tuple[tuple, tuple], List[dict]] = {}
        self._parent: Dict[tuple, tuple] = {}
        self._apart: Dict[tuple, set] = {}  # root -> roots of distinct classes

    def _element(self, x: dict) -> _ElementData:
        """The data of x, built once per element: d^x on degree -1 as a
        linear system, and the products with the degree-0 basis that
        `_chain_map_basis` reuses over every pair."""
        A, F = self.A, self.A.field
        key = tuple(sorted(F.nonzero(x).items()))
        if key not in self._elements:
            if not A.is_mc(x):
                raise ValueError("hom_complex requires Maurer-Cartan endpoints")
            es = [A.space.basis_vector(j) for j in A.degree_indices(0)]
            cols = [twisted_apply(A, x, x, A.space.basis_vector(j)) for j in A.degree_indices(-1)]
            self._elements[key] = _ElementData(
                key,
                [A.product(x, e) for e in es],
                [A.product(e, x) for e in es],
                LinearSystem(F, cols, A.dim),
            )
        return self._elements[key]

    def _chain_map_basis(self, ex: _ElementData, ey: _ElementData) -> List[dict]:
        """Kernel basis of D(a) = da + ya - ax on degree 0 (the chain maps
        x -> y), as `kernel_basis` gives it."""
        if (ex.key, ey.key) not in self._chain_maps:
            A, F = self.A, self.A.field
            cols = [
                vec_sub(F, vec_add(F, A.d.entries.get(j, {}), ly), rx)
                for j, ly, rx in zip(A.degree_indices(0), ey.left, ex.right)
            ]
            self._chain_maps[(ex.key, ey.key)] = LinearSystem(F, cols, A.dim).kernel
        return self._chain_maps[(ex.key, ey.key)]

    def _budgeted_search_data(self, x: dict, y: dict):
        """The search's checks in its order: prime field, MC endpoints, then
        the budget count; returns the element data and chain map bases."""
        F = self.A.field
        if not F.is_prime_field:
            raise PrimeFieldRequired("gauge search requires a prime field")
        budget = default_budget() if self.budget is None else self.budget
        ex, ey = self._element(x), self._element(y)
        kerf, kerg = self._chain_map_basis(ex, ey), self._chain_map_basis(ey, ex)
        total = F.characteristic ** (len(kerf) + len(kerg))
        if total > budget:
            raise BudgetExceeded(total, budget)
        return ex, ey, kerf, kerg, budget

    def quadruple(self, x: dict, y: dict) -> Optional[GaugeQuadruple]:
        """The first quadruple in search order, or None.

        For a fixed f, g f - 1 is affine in g, and so is its residue modulo
        d^x: the residue at the n-th g is the one at the g whose lowest
        nonzero base-p digit is one less, plus the residue of that kernel
        basis vector times f.  So each g costs one vector addition, and
        f g - 1 is reduced only where g f - 1 is a coboundary.
        """
        A, F = self.A, self.A.field
        ex, ey, kerf, kerg, budget = self._budgeted_search_data(x, y)
        idx0, idxm1 = A.degree_indices(0), A.degree_indices(-1)
        p = F.characteristic

        def homotopy(system: LinearSystem, res: dict) -> Optional[dict]:
            h = system.solution(res)
            return None if h is None else {idxm1[a]: c for a, c in h.items()}

        gbasis = [{idx0[a]: c for a, c in k.items()} for k in kerg]
        minus_one = vec_scale(F, F.neg(F.one()), A.unit)
        gs = list(enumerate_affine(F, {}, kerg, budget))
        for fc in enumerate_affine(F, {}, kerf, budget):
            f = {idx0[a]: c for a, c in fc.items()}
            steps: List[dict] = []
            res = [ex.homotopies.residue(minus_one)]
            for n, gc in enumerate(gs):
                if n:
                    i, m = 0, n
                    while m % p == 0:
                        i, m = i + 1, m // p
                    if i == len(steps):
                        steps.append(ex.homotopies.residue(A.product(gbasis[i], f)))
                    res.append(vec_add(F, res[n - p**i], steps[i]))
                h1 = homotopy(ex.homotopies, res[n])
                if h1 is None:
                    continue
                g = {idx0[a]: c for a, c in gc.items()}
                fg1 = vec_add(F, A.product(f, g), minus_one)
                h2 = homotopy(ey.homotopies, ey.homotopies.residue(fg1))
                if h2 is None:
                    continue
                quad = GaugeQuadruple(A, x, y, f, g, h1, h2)
                assert quad.validate() == []
                return quad
        return None

    def _root(self, k: tuple) -> tuple:
        while self._parent.get(k, k) != k:
            k = self._parent[k]
        return k

    def equivalent(self, x: dict, y: dict) -> bool:
        """quadruple(x, y) is not None, memoized."""
        ex, ey, _, _, _ = self._budgeted_search_data(x, y)
        rx, ry = self._root(ex.key), self._root(ey.key)
        if rx == ry:
            return True
        if ry in self._apart.get(rx, ()):
            return False
        if self.quadruple(x, y) is None:
            self._apart.setdefault(rx, set()).add(ry)
            self._apart.setdefault(ry, set()).add(rx)
            return False
        self._parent[ry] = rx
        for r in self._apart.pop(ry, ()):
            self._apart[r].discard(ry)
            self._apart[r].add(rx)
            self._apart.setdefault(rx, set()).add(r)
        return True


def moduli_set(
    A: CurvedAlgebra, budget: Optional[int] = None, mc: Optional[List[dict]] = None
) -> List[List[dict]]:
    """Partition of MC(A) into isomorphism classes of H^0(MC_dg(A)).

    Classes and their members are deterministically ordered.
    """
    elems = mc_enumerate(A, budget=budget) if mc is None else mc
    gauge = GaugeClasses(A, budget)
    classes: List[List[dict]] = []
    for x in elems:
        placed = False
        for cls in classes:
            if gauge.quadruple(cls[0], x) is not None:
                cls.append(x)
                placed = True
                break
        if not placed:
            classes.append([x])
    return classes


# ---------------------------------------------------------------------------
# n-homotopies of MC elements


def interval_tensor(A: CurvedAlgebra, n: int) -> CurvedAlgebra:
    return tensor_algebras(A, make_interval(A.field, n).algebra, sep="%")


def interval_component_indices(A: CurvedAlgebra, n: int):
    """Index maps for A @ I^n: component(word) -> {A index -> tensor index}."""
    I = make_interval(A.field, n).algebra
    nI = I.dim
    comp = {}
    for w in range(nI):
        lbl = I.space.basis[w][0]
        comp[lbl] = {i: i * nI + w for i in range(A.dim)}
    return comp, I


def endpoint_evaluation(A: CurvedAlgebra, n: int, X: dict, which: int) -> dict:
    """(1 @ ev_i)(X): the e_e (i=0) or e_f (i=1) component."""
    comp, I = interval_component_indices(A, n)
    lbl = "e_e" if which == 0 else "e_f"
    nI = I.dim
    w = I.space.index(lbl)
    out = {}
    for k, c in X.items():
        i, ww = divmod(k, nI)
        if ww == w:
            out[i] = c
    return out


@dataclass
class NHomotopy:
    A: CurvedAlgebra
    n: int
    X: dict  # MC element of A @ I^n

    def endpoints(self) -> Tuple[dict, dict]:
        return (
            endpoint_evaluation(self.A, self.n, self.X, 0),
            endpoint_evaluation(self.A, self.n, self.X, 1),
        )


def constant_homotopy(A: CurvedAlgebra, x: dict, n: int) -> NHomotopy:
    """x @ 1 (components x at e and f, zero higher terms)."""
    comp, I = interval_component_indices(A, n)
    F = A.field
    X: dict = {}
    for lbl in ("e_e", "e_f"):
        for i, c in x.items():
            X[comp[lbl][i]] = c
    T = interval_tensor(A, n)
    if not T.is_mc(X):
        raise AssertionError("constant homotopy failed the MC equation")
    return NHomotopy(A, n, X)


def square_zero_three_homotopy(A: CurvedAlgebra, x: dict, xp: dict) -> Optional[NHomotopy]:
    """Constructive 3-homotopy for cohomologous MC elements: components
    y = -h at s and +h at t where dh = x - x', zero higher terms.
    Works over any field; returns None when x - x' is not a coboundary.
    """
    F = A.field
    target = vec_sub(F, x, xp)
    sol = solve_linear(A.d, target)
    if sol is None:
        return None
    h = sol[0]
    comp, I = interval_component_indices(A, 3)
    T = interval_tensor(A, 3)
    for sign_s in (F.neg(F.one()), F.one()):
        X: dict = {}
        for i, c in x.items():
            X[comp["e_e"][i]] = c
        for i, c in xp.items():
            X[comp["e_f"][i]] = c
        for i, c in h.items():
            cs = F.mul(sign_s, c)
            if not F.is_zero(cs):
                X[comp["s"][i]] = cs
            cn = F.neg(cs)
            if not F.is_zero(cn):
                X[comp["t"][i]] = cn
        if T.is_mc(X):
            return NHomotopy(A, 3, X)
    return None


def n_homotopy_search(
    A: CurvedAlgebra, x: dict, xp: dict, n: int, budget: Optional[int] = None
) -> Optional[NHomotopy]:
    """Find an n-homotopy between MC elements x, x' (exhaustive over F_p,
    with the constructive square-zero shortcut tried first for n = 3)."""
    F = A.field
    if not A.is_mc(x) or not A.is_mc(xp):
        raise ValueError("endpoints must be MC elements")
    if vec_eq(F, x, xp):
        return constant_homotopy(A, x, n)
    if n == 3:
        cand = square_zero_three_homotopy(A, x, xp)
        if cand is not None:
            return cand
    if not F.is_prime_field:
        return None
    comp, I = interval_component_indices(A, n)
    T = interval_tensor(A, n)
    # free coordinates: degree-1 entries of T away from the e/f components
    nI = I.dim
    fixed: dict = {}
    for i, c in x.items():
        fixed[comp["e_e"][i]] = c
    for i, c in xp.items():
        fixed[comp["e_f"][i]] = c
    free = [
        k
        for k in T.degree_indices(1)
        if divmod(k, nI)[1] not in (I.space.index("e_e"), I.space.index("e_f"))
    ]
    units = [T.space.basis_vector(k) for k in free]
    for X in enumerate_affine(F, fixed, units, budget):
        if T.is_mc(X):
            return NHomotopy(A, n, X)
    return None


def verify_n_homotopy(A: CurvedAlgebra, x: dict, xp: dict, n: int, X: dict) -> bool:
    T = interval_tensor(A, n)
    if not T.is_mc(X):
        return False
    F = A.field
    e0 = endpoint_evaluation(A, n, X, 0)
    e1 = endpoint_evaluation(A, n, X, 1)
    return vec_eq(F, e0, x) and vec_eq(F, e1, xp)


def gauge_to_three_homotopy(
    quad: GaugeQuadruple, budget: Optional[int] = None
) -> Optional[NHomotopy]:
    """Build a 3-homotopy from a gauge quadruple: components
    H_e = x, H_f = y, H_s = f - 1, H_t = g - 1, H_st = -h2, H_ts = -h1,
    then solve the remaining sts-component linearly.
    """
    A, F = quad.A, quad.A.field
    comp, I = interval_component_indices(A, 3)
    T = interval_tensor(A, 3)
    X: dict = {}
    for i, c in quad.x.items():
        X[comp["e_e"][i]] = c
    for i, c in quad.y.items():
        X[comp["e_f"][i]] = c
    fm1 = vec_sub(F, quad.f, A.unit)
    gm1 = vec_sub(F, quad.g, A.unit)
    for i, c in fm1.items():
        X[comp["s"][i]] = c
    for i, c in gm1.items():
        X[comp["t"][i]] = c
    for i, c in quad.h2.items():
        cc = F.neg(c)
        if not F.is_zero(cc):
            X[comp["st"][i]] = cc
    for i, c in quad.h1.items():
        cc = F.neg(c)
        if not F.is_zero(cc):
            X[comp["ts"][i]] = cc
    # solve the sts-component: affine-linear in the sts coordinates
    sts_targets = [comp["sts"][i] for i in A.degree_indices(-2)]
    res = T.mc_residual(X)
    if not sts_targets:
        if vec_is_zero(F, res):
            return NHomotopy(A, 3, X)
        return None
    # the residual is quadratic: R(X + e_k) - R(X) = d^X e_k + e_k e_k
    cols = [
        vec_add(F, twisted_apply(T, X, X, T.space.basis_vector(k)), T.basis_product(k, k))
        for k in sts_targets
    ]
    system = LinearSystem(F, cols, T.dim)
    sol = system.solution(system.residue(vec_scale(F, F.neg(F.one()), res)))
    if sol is None:
        return None
    for a, c in sol.items():
        k = sts_targets[a]
        X[k] = F.add(X.get(k, F.zero()), c)
    X = {k: c for k, c in X.items() if not F.is_zero(c)}
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
        out = {}
        out["endpoint_e_mc"] = A.is_mc(x)
        out["endpoint_f_mc"] = A.is_mc(y)
        phi_s = vec_add(F, A.unit, c["s"])
        phi_t = vec_add(F, A.unit, c["t"])
        if not (out["endpoint_e_mc"] and out["endpoint_f_mc"]):
            out["s_chain_map"] = out["t_chain_map"] = False
            out["st_homotopy"] = out["ts_homotopy"] = False
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
    T = interval_tensor(B, 3)
    if not T.is_mc(H):
        raise ValueError("H is not a Maurer-Cartan element of B @ I^3")
    comp, I = interval_component_indices(B, 3)
    nI = I.dim
    parts: Dict[str, dict] = {lbl: {} for lbl, _ in I.space.basis}
    for k, c in H.items():
        i, w = divmod(k, nI)
        parts[I.space.basis[w][0]][i] = c
    return ThreeHomotopyData(B, H, parts)


# ---------------------------------------------------------------------------
# homotopies of algebra maps


def tensor_with_interval_morphism(
    B: CurvedAlgebra, n: int, which: int
) -> CurvedMorphism:
    """(B @ ev_i): B @ I^n -> B."""
    T = interval_tensor(B, n)
    I = make_interval(B.field, n).algebra
    nI = I.dim
    keep = I.space.index("e_e" if which == 0 else "e_f")
    F = B.field
    entries = {}
    for i in range(B.dim):
        entries[i * nI + keep] = {i: F.one()}
    return CurvedMorphism(T, B, GradedMap(T.space, B.space, 0, entries), {})


def map_homotopy_check(
    f: CurvedMorphism, g: CurvedMorphism, n: int, h: CurvedMorphism
) -> dict:
    """Verdict for an elementary n-homotopy h: A -> B @ I^n between f and g."""
    A, B = f.source, f.target
    F = B.field
    ev0 = tensor_with_interval_morphism(B, n, 0)
    ev1 = tensor_with_interval_morphism(B, n, 1)
    h0 = compose_morphisms(ev0, h)
    h1 = compose_morphisms(ev1, h)
    witness = None
    ok0 = ok1 = True
    for i in range(A.dim):
        v = A.space.basis_vector(i)
        if not vec_eq(F, h0.f.apply(v), f.f.apply(v)):
            ok0, witness = False, A.label(i)
            break
    if ok0 and not vec_eq(F, h0.b, f.b):
        ok0, witness = False, "(b-component)"
    for i in range(A.dim):
        v = A.space.basis_vector(i)
        if not vec_eq(F, h1.f.apply(v), g.f.apply(v)):
            ok1, witness = False, A.label(i)
            break
    if ok1 and not vec_eq(F, h1.b, g.b):
        ok1, witness = False, "(b-component)"
    return {"verdict": ok0 and ok1, "witness": witness}


def constant_map_homotopy(f: CurvedMorphism, n: int) -> CurvedMorphism:
    """(1 @ unit) f: the constant homotopy from f to itself."""
    B = f.target
    T = interval_tensor(B, n)
    I = make_interval(B.field, n).algebra
    nI = I.dim
    F = B.field
    unit_idx = [(w, c) for w, c in I.unit.items()]
    entries = {}
    for j in range(f.source.dim):
        col = {}
        for i, c in f.f.entries.get(j, {}).items():
            for w, u in unit_idx:
                col[i * nI + w] = F.mul(c, u)
        if col:
            entries[j] = col
    bb = {}
    for i, c in f.b.items():
        for w, u in unit_idx:
            bb[i * nI + w] = F.mul(c, u)
    return CurvedMorphism(f.source, T, GradedMap(f.source.space, T.space, 0, entries), bb)


def map_homotopy_check_coalgebra(
    fdual: CurvedMorphism, gdual: CurvedMorphism, n: int, hdual: CurvedMorphism
) -> dict:
    """Homotopy verdict for coalgebra maps f, g: C -> C', given through their
    dual algebra morphisms.  An elementary homotopy C @ I_n -> C' dualizes to
    an algebra morphism C'* -> C* @ I^n, which is checked against the
    endpoint evaluations exactly as in the algebra case.
    """
    B = fdual.target  # C*
    F = B.field
    ev0 = tensor_with_interval_morphism(B, n, 0)
    ev1 = tensor_with_interval_morphism(B, n, 1)
    h0 = compose_morphisms(ev0, hdual)
    h1 = compose_morphisms(ev1, hdual)
    witness = None
    ok = True
    for i in range(fdual.source.dim):
        v = fdual.source.space.basis_vector(i)
        if not vec_eq(F, h0.f.apply(v), fdual.f.apply(v)):
            ok, witness = False, fdual.source.label(i)
            break
        if not vec_eq(F, h1.f.apply(v), gdual.f.apply(v)):
            ok, witness = False, fdual.source.label(i)
            break
    return {"verdict": ok, "witness": witness}


def one_homotopy_middle_component(h: CurvedMorphism) -> Dict[int, dict]:
    """The s-component h~ of a 1-homotopy h: A -> B @ I^1."""
    B_T = h.target
    # target is B @ I^1 with I^1 basis e_e, e_f, s (nI = 3)
    nI = 3
    out = {}
    for j in range(h.source.dim):
        col = {}
        for k, c in h.f.entries.get(j, {}).items():
            i, w = divmod(k, nI)
            if w == 2:  # index of "s"
                col[i] = c
        if col:
            out[j] = col
    return out

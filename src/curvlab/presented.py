"""Presented curved algebras: path algebras of graded quivers, monomial-ideal
quotients, and word-length truncations, with differential given on generators
and extended by the Leibniz rule.

These three relation families (vertex idempotents, monomial ideals, length
truncation) cover every presentation used here: the interval algebras I^n and
truncations of I^infinity, noncommutative forms, cobar constructions, the
universal algebras kappa and W, and Alg_MC presentations.

Word convention: a path word is a tuple of arrow labels read left to right,
composable when target(w[k]) = source(w[k+1]) (cup-product order; for an
arrow a: i -> j we have e_i * a = a = a * e_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import CurvedAlgebra
from .fields import FieldSpec
from .gradedlin import GradedMap, GradedSpace


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str
    degree: int


Word = Tuple[str, ...]  # arrow labels; () is not used (vertices are separate)


@dataclass
class PresentedCurvedAlgebra:
    """Quiver presentation with monomial relations and a length truncation.

    d_on_vertices / d_on_arrows map generator labels to word combinations
    {word_or_vertex_key: coeff}; a key is either ("v", vertex) or a tuple of
    arrow labels.  h is a word combination of degree 2.
    """

    field: FieldSpec
    vertices: Tuple[str, ...]
    arrows: Tuple[Arrow, ...]
    killed_monomials: Tuple[Word, ...] = ()
    truncation: int = 6
    d_on_vertices: Dict[str, dict] = field(default_factory=dict)
    d_on_arrows: Dict[str, dict] = field(default_factory=dict)
    h: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate arrow labels")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError(f"arrow {a.label} uses unknown vertex")

    # -- word machinery -------------------------------------------------------

    def arrow(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise KeyError(label)

    def word_degree(self, w: Word) -> int:
        return sum(self.arrow(l).degree for l in w)

    def word_source(self, w: Word) -> str:
        return self.arrow(w[0]).source

    def word_target(self, w: Word) -> str:
        return self.arrow(w[-1]).target

    def composable(self, w: Word) -> bool:
        for a, b in zip(w, w[1:]):
            if self.arrow(a).target != self.arrow(b).source:
                return False
        return True

    def dead(self, w: Word) -> bool:
        """True when w lies in the monomial ideal (contains a killed word)."""
        for k in self.killed_monomials:
            n = len(k)
            for i in range(len(w) - n + 1):
                if w[i : i + n] == k:
                    return True
        return False

    def alive_words(self) -> List[Word]:
        """All composable, non-killed words of length 1..truncation."""
        out: List[Word] = []
        frontier: List[Word] = []
        for a in self.arrows:
            w = (a.label,)
            if not self.dead(w):
                frontier.append(w)
        out.extend(frontier)
        for _ in range(self.truncation - 1):
            nxt: List[Word] = []
            for w in frontier:
                tgt = self.word_target(w)
                for a in self.arrows:
                    if a.source != tgt:
                        continue
                    w2 = w + (a.label,)
                    if not self.dead(w2):
                        nxt.append(w2)
            out.extend(nxt)
            frontier = nxt
        return out

    def word_counts_by_degree(self) -> Dict[int, int]:
        """Independent word-count oracle for dimensions per degree."""
        counts: Dict[int, int] = {}
        for v in self.vertices:
            counts[0] = counts.get(0, 0) + 1
        for w in self.alive_words():
            d = self.word_degree(w)
            counts[d] = counts.get(d, 0) + 1
        return counts

    def d_of_generator(self, label_or_vertex) -> dict:
        if label_or_vertex in self.vertices:
            return self.d_on_vertices.get(label_or_vertex, {})
        return self.d_on_arrows.get(label_or_vertex, {})

    def d_of_key(self, key, max_len: Optional[int] = None) -> dict:
        """Leibniz differential of a basis key, as a key combination.

        Keys are ("v", vertex) or words; dead and non-composable splices are
        dropped; words longer than max_len (when given) are dropped.
        """
        F = self.field
        if key[0] == "v" and len(key) == 2 and key[1] in self.vertices:
            out: dict = {}
            for k, c in self.d_of_generator(key[1]).items():
                kk = _word_key(self, k)
                c = F.coerce(c)
                if not F.is_zero(c):
                    out[kk] = F.add(out.get(kk, F.zero()), c)
            return {k: c for k, c in out.items() if not F.is_zero(c)}
        w: Word = tuple(key)
        out: dict = {}
        sign = F.one()
        for pos, letter in enumerate(w):
            for k, c in self.d_of_generator(letter).items():
                kk = _word_key(self, k)
                c = F.mul(sign, F.coerce(c))
                if F.is_zero(c):
                    continue
                if kk[0] == "v" and len(kk) == 2 and kk[1] in self.vertices and not isinstance(kk[1], tuple):
                    mid: Word = ()
                    src = tgt = kk[1]
                else:
                    mid = kk
                    src, tgt = self.word_source(kk), self.word_target(kk)
                pre_w, post_w = w[:pos], w[pos + 1 :]
                if pre_w and self.word_target(pre_w) != src:
                    continue
                if post_w and self.word_source(post_w) != tgt:
                    continue
                if not pre_w and not post_w and not mid:
                    vk = ("v", src)
                    out[vk] = F.add(out.get(vk, F.zero()), c)
                    continue
                new = pre_w + mid + post_w
                if not new:
                    continue
                if max_len is not None and len(new) > max_len:
                    continue
                if self.dead(new) or not self.composable(new):
                    continue
                out[new] = F.add(out.get(new, F.zero()), c)
            if self.arrow(letter).degree % 2:
                sign = F.neg(sign)
        return {k: c for k, c in out.items() if not F.is_zero(c)}

    # -- materialization ------------------------------------------------------

    def materialize(self) -> "MaterializedPresentation":
        return MaterializedPresentation(self)


def _word_key(pres: PresentedCurvedAlgebra, key):
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "v":
        return key
    return tuple(key)


class MaterializedPresentation:
    """Finite-dimensional curved algebra realizing the presentation."""

    def __init__(self, pres: PresentedCurvedAlgebra):
        self.pres = pres
        F = pres.field
        keys: List = [("v", v) for v in pres.vertices]
        keys += pres.alive_words()
        self.keys = keys
        self.key_index = {k: i for i, k in enumerate(keys)}
        basis = []
        for k in keys:
            if k[0] == "v" and len(k) == 2 and k[1] in pres.vertices and not isinstance(k[1], tuple):
                basis.append((f"e_{k[1]}", 0))
            else:
                basis.append(("".join(k), pres.word_degree(k)))
        space = GradedSpace.make(basis, F)

        mult: Dict[Tuple[int, int], dict] = {}
        for i, ki in enumerate(keys):
            for j, kj in enumerate(keys):
                col = self._key_product(ki, kj)
                if col:
                    mult[(i, j)] = col
        unit = {self.key_index[("v", v)]: F.one() for v in pres.vertices}

        entries: Dict[int, dict] = {}
        for i, k in enumerate(keys):
            col = self._d_of_key(k)
            if col:
                entries[i] = col
        d = GradedMap(space, space, 1, entries)
        h = self._combo_to_vec(pres.h)
        self.algebra = CurvedAlgebra(space, unit, mult, d, h)

    # product of two basis keys inside the quotient
    def _key_product(self, ki, kj) -> dict:
        pres, F = self.pres, self.pres.field
        if ki[0] == "v" and kj[0] == "v":
            if ki == kj:
                return {self.key_index[ki]: F.one()}
            return {}
        if ki[0] == "v":
            if pres.word_source(kj) == ki[1]:
                return {self.key_index[kj]: F.one()}
            return {}
        if kj[0] == "v":
            if pres.word_target(ki) == kj[1]:
                return {self.key_index[ki]: F.one()}
            return {}
        if pres.word_target(ki) != pres.word_source(kj):
            return {}
        w = ki + kj
        if len(w) > pres.truncation or pres.dead(w):
            return {}
        return {self.key_index[w]: F.one()}

    def _combo_to_vec(self, combo: dict) -> dict:
        """Word combination -> coefficient vector in the quotient basis."""
        F = self.pres.field
        out: dict = {}
        for key, c in combo.items():
            k = _word_key(self.pres, key)
            c = F.coerce(c)
            if F.is_zero(c):
                continue
            if k[0] == "v" and len(k) == 2 and not isinstance(k[1], tuple):
                i = self.key_index[("v", k[1])]
            else:
                if len(k) > self.pres.truncation or self.pres.dead(k):
                    continue
                if not self.pres.composable(k):
                    raise ValueError(f"non-composable word {k}")
                i = self.key_index[k]
            out[i] = F.add(out.get(i, F.zero()), c)
        return {i: c for i, c in out.items() if not F.is_zero(c)}

    def _d_of_key(self, k) -> dict:
        """Leibniz extension of d to a basis key, valued in the quotient."""
        F = self.pres.field
        combo = self.pres.d_of_key(k, max_len=self.pres.truncation)
        out: dict = {}
        for key, c in combo.items():
            i = self.key_index.get(key)
            if i is None:
                continue
            out[i] = F.add(out.get(i, F.zero()), c)
        return {i: c for i, c in out.items() if not F.is_zero(c)}


def free_algebra_presentation(
    F: FieldSpec,
    generators: Sequence[Tuple[str, int]],
    d_on_generators: Optional[Dict[str, dict]] = None,
    truncation: int = 4,
    killed: Sequence[Word] = (),
    h: Optional[dict] = None,
) -> PresentedCurvedAlgebra:
    """One-vertex quiver: the free algebra on loop generators, truncated."""
    v = "*"
    arrows = tuple(Arrow(g, v, v, d) for g, d in generators)
    return PresentedCurvedAlgebra(
        field=F,
        vertices=(v,),
        arrows=arrows,
        killed_monomials=tuple(tuple(w) for w in killed),
        truncation=truncation,
        d_on_arrows={g: dict(c) for g, c in (d_on_generators or {}).items()},
        h=dict(h or {}),
    )

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

Basis keys: ("v", vertex) for the idempotent e_vertex, and a word for a
path.  Arrow labels and vertex names are disjoint, so `vertex_of` tells the
two apart; this module is the one place that reads the key format.

Products: two basis words multiply to their concatenation or to zero, and
every prefix and suffix of an alive word (composable, not killed, within
the truncation) is alive.  So the nonzero products are read off the alive
words: e_v e_v = e_v, e_source(w) w = w = w e_target(w), and u v = w for
each split of w into nonempty words u and v; no pair of keys is tested.
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
        self._vertex_set = frozenset(self.vertices)
        if len(self._vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self._arrow = {a.label: a for a in self.arrows}
        if len(self._arrow) != len(self.arrows):
            raise ValueError("duplicate arrow labels")
        self._out: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source not in self._vertex_set or a.target not in self._vertex_set:
                raise ValueError(f"arrow {a.label} uses unknown vertex")
            if a.label in self._vertex_set:
                raise ValueError(f"arrow label {a.label!r} is also a vertex name")
            self._out[a.source].append(a)

    # -- word machinery -------------------------------------------------------

    def vertex_of(self, key) -> Optional[str]:
        """The vertex of an idempotent key ("v", vertex); None for a word."""
        if len(key) == 2 and key[0] == "v" and key[1] in self._vertex_set:
            return key[1]
        return None

    def arrows_from(self, vertex: str) -> List[Arrow]:
        """The arrows out of a vertex, in the order of `arrows`."""
        return self._out[vertex]

    def word_degree(self, w: Word) -> int:
        return sum(self._arrow[l].degree for l in w)

    def word_source(self, w: Word) -> str:
        return self._arrow[w[0]].source

    def word_target(self, w: Word) -> str:
        return self._arrow[w[-1]].target

    def composable(self, w: Word) -> bool:
        return all(self._arrow[a].target == self._arrow[b].source for a, b in zip(w, w[1:]))

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
        frontier = [(a.label,) for a in self.arrows if not self.dead((a.label,))]
        out = list(frontier)
        for _ in range(self.truncation - 1):
            frontier = [
                w + (a.label,)
                for w in frontier
                for a in self._out[self.word_target(w)]
                if not self.dead(w + (a.label,))
            ]
            out.extend(frontier)
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

    def d_of_key(self, key, max_len: Optional[int] = None) -> dict:
        """Leibniz differential of a basis key, as a key combination.

        Keys are ("v", vertex) or words; dead and non-composable splices are
        dropped; words longer than max_len (when given) are dropped.
        """
        F = self.field
        out: dict = {}
        v = self.vertex_of(key)
        if v is not None:
            for k, c in self.d_on_vertices.get(v, {}).items():
                kk, c = tuple(k), F.coerce(c)
                if not F.is_zero(c):
                    out[kk] = F.add(out.get(kk, F.zero()), c)
            return {k: c for k, c in out.items() if not F.is_zero(c)}
        w: Word = tuple(key)
        sign = F.one()
        for pos, letter in enumerate(w):
            for k, c in self.d_on_arrows.get(letter, {}).items():
                kk = tuple(k)
                c = F.mul(sign, F.coerce(c))
                if F.is_zero(c):
                    continue
                src = tgt = self.vertex_of(kk)
                mid: Word = ()
                if src is None:
                    mid, src, tgt = kk, self.word_source(kk), self.word_target(kk)
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
                if max_len is not None and len(new) > max_len:
                    continue
                if self.dead(new) or not self.composable(new):
                    continue
                out[new] = F.add(out.get(new, F.zero()), c)
            if self._arrow[letter].degree % 2:
                sign = F.neg(sign)
        return {k: c for k, c in out.items() if not F.is_zero(c)}

    # -- materialization ------------------------------------------------------

    def materialize(self) -> "MaterializedPresentation":
        return MaterializedPresentation(self)


class MaterializedPresentation:
    """Finite-dimensional curved algebra realizing the presentation."""

    def __init__(self, pres: PresentedCurvedAlgebra):
        self.pres = pres
        F = pres.field
        one = F.one()
        words = pres.alive_words()
        self.keys: List = [("v", v) for v in pres.vertices] + words
        ix = self.key_index = {k: i for i, k in enumerate(self.keys)}
        basis = [(f"e_{v}", 0) for v in pres.vertices]
        basis += [("".join(w), pres.word_degree(w)) for w in words]
        space = GradedSpace.make(basis, F)

        # the vertex keys come first: e_v has index i
        mult: Dict[Tuple[int, int], dict] = {(i, i): {i: one} for i in range(len(pres.vertices))}
        for w in words:
            n = ix[w]
            pairs = [(("v", pres.word_source(w)), w), (w, ("v", pres.word_target(w)))]
            pairs += [(w[:s], w[s:]) for s in range(1, len(w))]
            for u, x in pairs:
                mult[(ix[u], ix[x])] = {n: one}
        unit = {i: one for i in range(len(pres.vertices))}

        entries: Dict[int, dict] = {}
        for i, k in enumerate(self.keys):
            combo = pres.d_of_key(k, max_len=pres.truncation)
            col = {ix[kk]: c for kk, c in combo.items() if kk in ix}
            if col:
                entries[i] = col
        d = GradedMap(space, space, 1, entries)
        h = self._combo_to_vec(pres.h)
        self.algebra = CurvedAlgebra(space, unit, dict(sorted(mult.items())), d, h)

    def _combo_to_vec(self, combo: dict) -> dict:
        """Word combination -> coefficient vector in the quotient basis."""
        pres, F = self.pres, self.pres.field
        out: dict = {}
        for key, c in combo.items():
            k = tuple(key)
            c = F.coerce(c)
            if F.is_zero(c):
                continue
            if pres.vertex_of(k) is None:
                if not pres.composable(k):
                    raise ValueError(f"non-composable word {k}")
                if len(k) > pres.truncation or pres.dead(k):
                    continue
            i = self.key_index[k]
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

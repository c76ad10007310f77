"""Reference materialization for the tests of `MaterializedPresentation`.

`reference_materialize` is the materialization that tested every pair of
basis keys: a product of two keys is computed by checking the vertices at
the junction, the truncation and the monomial ideal.  Its words are every
string of arrow labels of length 1..truncation that is composable and not
killed, enumerated by brute force in the order of the arrows.  The
differential and the curvature are read into that basis through
`PresentedCurvedAlgebra.d_of_key` and the word checks, as the program does.
"""

from itertools import product

from curvlab.algebra import CurvedAlgebra
from curvlab.gradedlin import GradedMap, GradedSpace


def reference_materialize(pres):
    """(keys, algebra) of the presentation; keys are ("v", vertex) for the
    idempotents, then the alive words by length."""
    F = pres.field
    arrow = {a.label: a for a in pres.arrows}

    def composable(w):
        return all(arrow[a].target == arrow[b].source for a, b in zip(w, w[1:]))

    words = [
        w
        for n in range(1, max(pres.truncation, 1) + 1)
        for w in product([a.label for a in pres.arrows], repeat=n)
        if composable(w) and not pres.dead(w)
    ]
    keys = [("v", v) for v in pres.vertices] + words
    index = {k: i for i, k in enumerate(keys)}
    vertex_keys = set(keys[: len(pres.vertices)])
    basis = [(f"e_{v}", 0) for v in pres.vertices]
    basis += [("".join(w), sum(arrow[l].degree for l in w)) for w in words]
    space = GradedSpace.make(basis, F)

    def key_product(ki, kj):
        if ki in vertex_keys and kj in vertex_keys:
            return ki if ki == kj else None
        if ki in vertex_keys:
            return kj if arrow[kj[0]].source == ki[1] else None
        if kj in vertex_keys:
            return ki if arrow[ki[-1]].target == kj[1] else None
        if arrow[ki[-1]].target != arrow[kj[0]].source:
            return None
        w = ki + kj
        return None if len(w) > pres.truncation or pres.dead(w) else w

    mult = {}
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            k = key_product(ki, kj)
            if k is not None:
                mult[(i, j)] = {index[k]: F.one()}
    unit = {index[("v", v)]: F.one() for v in pres.vertices}

    entries = {}
    for i, k in enumerate(keys):
        col = {}
        for kk, c in pres.d_of_key(k, max_len=pres.truncation).items():
            if kk in index:
                col[index[kk]] = F.add(col.get(index[kk], F.zero()), c)
        col = {j: c for j, c in col.items() if not F.is_zero(c)}
        if col:
            entries[i] = col
    d = GradedMap(space, space, 1, entries)

    h = {}
    for key, c in pres.h.items():
        k = tuple(key)
        c = F.coerce(c)
        if F.is_zero(c):
            continue
        if k not in vertex_keys:
            if not composable(k):
                raise ValueError(f"non-composable word {k}")
            if len(k) > pres.truncation or pres.dead(k):
                continue
        h[index[k]] = F.add(h.get(index[k], F.zero()), c)
    h = {i: c for i, c in h.items() if not F.is_zero(c)}
    return keys, CurvedAlgebra(space, unit, mult, d, h)

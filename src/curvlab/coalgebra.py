"""Finite-dimensional curved coalgebras via duality with curved algebras.

All coalgebra data is stored directly (comultiplication triples, counit,
coderivation, curvature functional), but every algorithm routes through the
dual algebra: dualize is an involution with unsigned transposes, under which
the two axiom sets exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .algebra import CurvedAlgebra, ideal_powers, tensor_algebras
from .fields import FieldSpec
from .gradedlin import GradedMap, GradedSpace, kernel_basis, span_rank, transpose


@dataclass
class CurvedCoalgebra:
    """Curved coalgebra: comult as triples, counit/curvature as functionals.

    comult[i] = {(j, k): c}: Delta(e_i) = sum c * e_j @ e_k.
    counit[i], h[i]: values of the functionals on basis vectors.
    d: coderivation of degree +1.
    """

    space: GradedSpace
    comult: Dict[int, Dict[Tuple[int, int], object]]
    counit: Dict[int, object]
    d: GradedMap
    h: Dict[int, object]

    @property
    def field(self) -> FieldSpec:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def label(self, i: int) -> str:
        return self.space.basis[i][0]

    def validate(self, max_violations: int = 8) -> List[str]:
        """Axioms are checked on the dual algebra (the definitions agree)."""
        A = dualize_coalgebra(self)
        out = A.validate(max_violations)
        return [f"(dual) {m}" for m in out]

    def grouplike_basis_indices(self) -> List[int]:
        """Indices of basis vectors g with Delta(g) = g@g, eps(g) = 1."""
        F = self.field
        out = []
        for i in range(self.dim):
            if F.is_zero(F.sub(self.counit.get(i, F.zero()), F.one())):
                cm = self.comult.get(i, {})
                if set(cm) == {(i, i)} and F.is_zero(F.sub(cm[(i, i)], F.one())):
                    out.append(i)
        return out


# ---------------------------------------------------------------------------
# duality (unsigned transposes; an involution)


def _dual_label(lbl: str) -> str:
    return lbl[:-1] if lbl.endswith("'") else lbl + "'"


def dualize_algebra(A: CurvedAlgebra) -> CurvedCoalgebra:
    """A* with basis a' of degree -|a|; Delta(c') pairs products, eps = unit."""
    F = A.field
    space = GradedSpace.make(
        [(_dual_label(l), -d) for l, d in A.space.basis], F
    )
    comult: Dict[int, Dict[Tuple[int, int], object]] = {}
    for (i, j), col in A.mult.items():
        for k, c in col.items():
            if F.is_zero(c):
                continue
            comult.setdefault(k, {})
            comult[k][(i, j)] = F.add(comult[k].get((i, j), F.zero()), c)
    counit = {i: c for i, c in A.unit.items()}
    d = GradedMap(space, space, 1, transpose(A.d.entries))
    h = {i: c for i, c in A.h.items()}
    return CurvedCoalgebra(space, comult, counit, d, h)


def dualize_coalgebra(C: CurvedCoalgebra) -> CurvedAlgebra:
    F = C.field
    space = GradedSpace.make(
        [(_dual_label(l), -d) for l, d in C.space.basis], F
    )
    mult: Dict[Tuple[int, int], dict] = {}
    for k, terms in C.comult.items():
        for (i, j), c in terms.items():
            if F.is_zero(c):
                continue
            mult.setdefault((i, j), {})
            mult[(i, j)][k] = F.add(mult[(i, j)].get(k, F.zero()), c)
    unit = {i: c for i, c in C.counit.items() if not F.is_zero(c)}
    d = GradedMap(space, space, 1, transpose(C.d.entries))
    h = {i: c for i, c in C.h.items() if not F.is_zero(c)}
    return CurvedAlgebra(space, unit, mult, d, h)


def tensor_coalgebras(C: CurvedCoalgebra, D: CurvedCoalgebra) -> CurvedCoalgebra:
    """Tensor product, computed through the dual algebras."""
    return dualize_algebra(tensor_algebras(dualize_coalgebra(C), dualize_coalgebra(D)))


# ---------------------------------------------------------------------------
# coradical / curved coradical and towers (through the dual algebra)


def subspace_to_annihilator_basis(F, rows: List[dict], dim: int) -> List[dict]:
    """Basis of {x : <x, r> = 0 for all r in rows} (coordinates in the dual)."""
    return kernel_basis(F, rows, dim)


def coradical(C: CurvedCoalgebra):
    """Maximal cosemisimple subcoalgebra = annihilator of rad(C*).

    Returns (indices-description) as a list of coefficient vectors spanning
    the coradical inside C.
    """
    from .semisimple import graded_radical

    A = dualize_coalgebra(C)
    J = graded_radical(A)
    return subspace_to_annihilator_basis(C.field, [dict(r) for r in J], C.dim)


def curved_coradical(C: CurvedCoalgebra):
    """Annihilator of the internal curved radical of C*."""
    from .semisimple import internal_curved_radical

    A = dualize_coalgebra(C)
    Jm = internal_curved_radical(A)
    return subspace_to_annihilator_basis(C.field, [dict(r) for r in Jm], C.dim)


def cosquare_zero_tower(C: CurvedCoalgebra, sub_basis: List[dict]):
    """Factor a conilpotent extension span(sub_basis) -> C through cosquare-zero steps.

    Dualizes to the kernel-power tower of C* ->> (sub)*; returns the list of
    intermediate subspace bases, smallest first, ending with all of C.
    Raises with a witness when the dual kernel is not nilpotent.
    """
    F = C.field
    A = dualize_coalgebra(C)
    # dual kernel: annihilator of the subcoalgebra
    ann = subspace_to_annihilator_basis(F, sub_basis, C.dim)
    powers, stable = ideal_powers(A, ann)
    if stable:
        raise ValueError(
            "quotient is not conilpotent: dual kernel power stabilized at a "
            f"nonzero ideal (witness {A.label(min(stable[0]))})"
        )
    return _tower_chain(F, sub_basis, powers, C)


def _tower_chain(F, sub_basis, powers, C):
    chain = [sub_basis]
    for P in powers[1:]:
        chain.append(subspace_to_annihilator_basis(F, [dict(r) for r in P], C.dim))
    chain.append([C.space.basis_vector(i) for i in range(C.dim)])
    # deduplicate consecutive equal-rank steps
    ranks = [span_rank(F, step, C.dim) for step in chain]
    out = [chain[0]]
    for step, rank, prev in zip(chain[1:], ranks[1:], ranks):
        if rank != prev:
            out.append(step)
    return out

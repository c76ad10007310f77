"""JSON document format for (co)algebra descriptions.

Structure-constant documents:

    {"field": {"kind": "prime-field", "characteristic": 2} | {"kind": "rationals"},
     "mode": "structure-constants",
     "basis": [["label", degree], ...],
     "unit": {"label": coeff, ...},
     "mult": [["a", "b", "c", coeff], ...],          # a*b = sum coeff c
     "differential": [["a", "b", coeff], ...],       # d(a) = sum coeff b
     "curvature": {"label": coeff, ...},
     "kind": "algebra" | "coalgebra",                 # coalgebra: mult rows
                                                      # are comult triples
     "splitting": "label",                            # optional annotations
     "coaugmentation": "label",
     "basepoint": "label"}

Presented documents:

    {"field": ..., "mode": "presented",
     "vertices": ["e", "f"],
     "arrows": [["s", "e", "f", 1], ...],
     "killed": [["t", "s", "t"], ...],
     "truncation": 4,
     "d": {"e": [[["t"], coeff], [["s"], coeff], ...],
           "s": [[["s","t"], coeff], ...]},           # keys "v:name" allowed
     "curvature": [[["s","t"], coeff], ...]}

Coefficients are integers or strings: decimal integers mod p, or "p/q" over
the rationals.  A document of any other shape (not an object, a row of the
wrong length, a table that is not an object, a coefficient that is not in
the field, ...) raises DocumentError.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from .algebra import CurvedAlgebra
from .coalgebra import CurvedCoalgebra
from .fields import CoefficientError, FieldSpec
from .gradedlin import GradedMap, GradedSpace
from .presented import Arrow, PresentedCurvedAlgebra


class DocumentError(ValueError):
    pass


def _rows(doc: dict, key: str, labels: int) -> list:
    """doc[key] as a list of rows: `labels` label strings, then a coefficient."""
    rows = doc.get(key, [])
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == labels + 1 and all(isinstance(l, str) for l in r[:labels])
        for r in rows
    ):
        raise DocumentError(f"{key!r} must be a list of rows of {labels} labels and a coefficient")
    return rows


def _coeff(F: FieldSpec, c):
    try:
        return F.parse_coeff(c)
    except CoefficientError as e:
        raise DocumentError(str(e))


def parse_basis(F: FieldSpec, rows, key: str) -> GradedSpace:
    """A list of [label, degree] rows, labels strings and unique, degrees
    integers, as a GradedSpace; `key` names it in the DocumentError raised
    for anything else."""
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
        and isinstance(r[1], int) and not isinstance(r[1], bool)
        for r in rows
    ):
        raise DocumentError(f"{key!r} must be a list of [label, integer degree] rows")
    if len({r[0] for r in rows}) != len(rows):
        raise DocumentError(f"{key!r} repeats a label")
    return GradedSpace.make(rows, F)


def parse_element(space: GradedSpace, d, key: str) -> dict:
    """An object {label: coefficient} as a sparse vector over `space`, zero
    coefficients dropped; `key` names it in the DocumentError raised for
    anything else, an unknown label or a coefficient not in the field."""
    if not isinstance(d, dict):
        raise DocumentError(f"{key!r} must be an object {{label: coefficient}}")
    F = space.field
    idx = {l: i for i, (l, _) in enumerate(space.basis)}
    out = {}
    for l, c in d.items():
        if l not in idx:
            raise DocumentError(f"unknown basis label {l!r}")
        cc = _coeff(F, c)
        if not F.is_zero(cc):
            out[idx[l]] = cc
    return out


def load_document(doc: dict):
    """Parse a document into (object, annotations); object is a
    CurvedAlgebra, CurvedCoalgebra or PresentedCurvedAlgebra."""
    if not isinstance(doc, dict):
        raise DocumentError("a document must be a JSON object")
    try:
        F = FieldSpec.from_doc(doc["field"])
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad field: {e}")
    mode = doc.get("mode", "structure-constants")
    ann = {
        k: doc[k]
        for k in ("splitting", "coaugmentation", "basepoint")
        if k in doc
    }
    if mode == "presented":
        return _load_presented(doc, F), ann
    if mode != "structure-constants":
        raise DocumentError(f"unknown mode {mode!r}")
    kind = doc.get("kind", "algebra")
    if "basis" not in doc:
        raise DocumentError("a structure-constant document needs a 'basis'")
    space = parse_basis(F, doc["basis"], "basis")
    idx = {l: i for i, (l, _) in enumerate(space.basis)}
    entries: Dict[int, dict] = {}
    for row in _rows(doc, "differential", 2):
        a, b, c = row
        if a not in idx or b not in idx:
            raise DocumentError(f"unknown label in differential row {row}")
        cc = _coeff(F, c)
        if F.is_zero(cc):
            continue
        entries.setdefault(idx[a], {})[idx[b]] = F.add(
            entries.get(idx[a], {}).get(idx[b], F.zero()), cc
        )
    try:
        dmap = GradedMap(space, space, 1, entries)
    except ValueError as e:
        raise DocumentError(f"bad differential: {e}")
    if kind == "algebra":
        mult: Dict[Tuple[int, int], dict] = {}
        for row in _rows(doc, "mult", 3):
            a, b, c, v = row
            for l in (a, b, c):
                if l not in idx:
                    raise DocumentError(f"unknown label in mult row {row}")
            vv = _coeff(F, v)
            if F.is_zero(vv):
                continue
            key = (idx[a], idx[b])
            mult.setdefault(key, {})
            mult[key][idx[c]] = F.add(mult[key].get(idx[c], F.zero()), vv)
        A = CurvedAlgebra(
            space,
            parse_element(space, doc.get("unit", {}), "unit"),
            mult,
            dmap,
            parse_element(space, doc.get("curvature", {}), "curvature"),
        )
        return A, ann
    if kind == "coalgebra":
        comult: Dict[int, Dict[Tuple[int, int], object]] = {}
        for row in _rows(doc, "mult", 3):
            a, b, c, v = row  # Delta(a) has term (b, c) with coefficient v
            for l in (a, b, c):
                if l not in idx:
                    raise DocumentError(f"unknown label in comult row {row}")
            vv = _coeff(F, v)
            if F.is_zero(vv):
                continue
            comult.setdefault(idx[a], {})
            key = (idx[b], idx[c])
            comult[idx[a]][key] = F.add(comult[idx[a]].get(key, F.zero()), vv)
        C = CurvedCoalgebra(
            space,
            comult,
            parse_element(space, doc.get("counit", doc.get("unit", {})), "counit"),
            dmap,
            parse_element(space, doc.get("curvature", {}), "curvature"),
        )
        return C, ann
    raise DocumentError(f"unknown kind {kind!r}")


def _load_presented(doc: dict, F: FieldSpec) -> PresentedCurvedAlgebra:
    def combo(rows) -> dict:
        out = {}
        for word, c in rows:
            if isinstance(word, str) and word.startswith("v:"):
                key = ("v", word[2:])
            else:
                key = tuple(word)
            cc = F.parse_coeff(c)
            if not F.is_zero(cc):
                out[key] = cc
        return out

    try:
        vertices = tuple(doc.get("vertices", ["*"]))
        arrows = tuple(
            Arrow(str(l), str(s), str(t), int(d)) for l, s, t, d in doc["arrows"]
        )
        killed = tuple(tuple(w) for w in doc.get("killed", []))
        d_on = doc.get("d", {})
        dv = {g: combo(rows) for g, rows in d_on.items() if g in vertices}
        da = {g: combo(rows) for g, rows in d_on.items() if g not in vertices}
        return PresentedCurvedAlgebra(
            field=F,
            vertices=vertices,
            arrows=arrows,
            killed_monomials=killed,
            truncation=int(doc.get("truncation", 4)),
            d_on_vertices=dv,
            d_on_arrows=da,
            h=combo(doc.get("curvature", [])),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DocumentError(f"bad presented document: {e}")


def dump_algebra(A: CurvedAlgebra) -> dict:
    F = A.field
    doc = {
        "field": F.describe(),
        "mode": "structure-constants",
        "kind": "algebra",
        "basis": [[l, d] for l, d in A.space.basis],
        "unit": {A.label(i): F.format_coeff(c) for i, c in sorted(A.unit.items())},
        "mult": [],
        "differential": [],
        "curvature": {A.label(i): F.format_coeff(c) for i, c in sorted(A.h.items())},
    }
    for (i, j) in sorted(A.mult):
        for k, c in sorted(A.mult[(i, j)].items()):
            if not F.is_zero(c):
                doc["mult"].append([A.label(i), A.label(j), A.label(k), F.format_coeff(c)])
    for j in sorted(A.d.entries):
        for i, c in sorted(A.d.entries[j].items()):
            if not F.is_zero(c):
                doc["differential"].append([A.label(j), A.label(i), F.format_coeff(c)])
    return doc


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise DocumentError(f"invalid JSON in {path}: {e}")
    return load_document(doc)

"""curvlab command line: load (co)algebra documents, dispatch operations,
emit deterministic JSON reports.

Exit codes: 0 success / true verdict; 1 false verdict (with witnesses);
2 input error (a malformed document, or one over Q given to a command that
enumerates a prime field); 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Tuple

from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    mc_enumerate,
    mc_polynomial_system,
    tensor_algebras,
    twist_algebra,
    uncurve_morita,
)
from .barcobar import adjunction_count_check, bar_dual, cobar
from .budget import default_budget
from .coalgebra import CurvedCoalgebra, dualize_algebra
from .convolution import convolution_algebra, convolution_space, convolution_tensor_comparison
from .documents import (
    DocumentError,
    dump_algebra,
    load_document,
    load_path,
    parse_basis,
    parse_element,
)
from .fields import GF, QQ, FieldSpec, PrimeFieldRequired
from .gradedlin import BudgetExceeded, GradedMap, GradedSpace, cohomology, vec_is_zero
from .interval import make_interval
from .mc import (
    find_gauge_quadruple,
    interval_tensor,
    moduli_set,
    n_homotopy_search,
)
from .modelcheck import (
    alg_mc,
    hom_window_cohomology,
    inclusion_dual_for_subcoalgebra,
    is_fibration_mcdg,
    lifting_solver,
    omega_cat,
    rectify_cofibration,
)
from .obstruction import (
    extension_from_total,
    lift_along_gauge,
    obstruction_class,
    try_lift,
)
from .presented import PresentedCurvedAlgebra
from .semisimple import (
    css_decompose,
    css_quotient,
    css_section,
    graded_radical,
    internal_curved_radical,
    nilpotent_tower,
    reassemble_check,
)
from .twisted import ambient_algebra, induce, make_twisted, module_hom_complex


def emit(report: dict, code: int = 0) -> int:
    print(json.dumps(report, indent=2))
    return code


def fail_input(msg: str) -> int:
    print(json.dumps({"error": msg}, indent=2))
    return 2


def fail_budget(e: BudgetExceeded) -> int:
    print(json.dumps({"refusal": str(e), "budget": e.budget, "required": e.required}, indent=2))
    return 3


def base_report(args, check: str) -> dict:
    return {"check": check, "budget": args.max_enum or default_budget()}


def _field(args) -> FieldSpec:
    if args.field in ("Q", "rationals", "0"):
        return QQ
    return GF(int(args.field))


def _materialized(obj):
    """obj, with a presentation materialized: a word the presentation cannot
    realize (an unknown arrow or vertex) is a DocumentError (exit 2)."""
    if not isinstance(obj, PresentedCurvedAlgebra):
        return obj
    try:
        return obj.materialize().algebra
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad presented document: {e}") from None


def _algebra(obj, name: str) -> CurvedAlgebra:
    """A loaded document read as an algebra, a presentation materialized: a
    coalgebra is a DocumentError (exit 2) naming `name`."""
    obj = _materialized(obj)
    if isinstance(obj, CurvedCoalgebra):
        raise DocumentError(f"{name} holds a coalgebra where an algebra is required")
    return obj


def _load_algebra(path: str) -> CurvedAlgebra:
    return _algebra(load_path(path)[0], path)


def _nested_algebra(doc, key: str, path: str) -> CurvedAlgebra:
    """The algebra document at entry `key` of the document object `doc`."""
    return _algebra(load_document(_read(doc, key, path))[0], f"{path}: {key!r}")


def _load_coalgebra(path: str) -> CurvedCoalgebra:
    obj = _materialized(load_path(path)[0])
    return obj if isinstance(obj, CurvedCoalgebra) else dualize_algebra(obj)


def _read(source, key: str, name: str):
    """The entry `key` of a document object, or the index of the label `key`
    in a graded space: user input, so a missing key or label, or a document
    that is not an object, is a DocumentError (exit 2) naming `name`."""
    if isinstance(source, GradedSpace):
        if key in source.labels():
            return source.index(key)
    elif isinstance(source, dict) and key in source:
        return source[key]
    raise DocumentError(f"{name}: no key or label {key!r}")


def _element(space: GradedSpace, text: Optional[str], flag: str) -> dict:
    """The element argument `flag`: JSON {label: coefficient} over `space`;
    DocumentError (exit 2) when it is missing or anything else."""
    if text is None:
        raise DocumentError(f"{flag} is required")
    return parse_element(space, json.loads(text), flag)


def _positive(value, name: str) -> int:
    """An integer argument that must be at least 1 (given as an int or as
    its decimal text); DocumentError (exit 2) for anything else."""
    try:
        n = int(value)
    except ValueError:
        raise DocumentError(f"{name} must be a positive integer, got {value!r}") from None
    if n < 1:
        raise DocumentError(f"{name} must be a positive integer, got {n}")
    return n


def _budget(value) -> Optional[int]:
    """--max-enum: "0", the default, for the default budget, or a positive
    integer; DocumentError (exit 2) for anything else."""
    return None if value == "0" else _positive(value, "--max-enum")


def _bounds(lo: int, hi: int, name: str) -> Tuple[int, int]:
    """A window of degrees lo..hi; DocumentError (exit 2) unless lo <= hi."""
    if lo > hi:
        raise DocumentError(f"{name} must be lo <= hi, got {lo} > {hi}")
    return lo, hi


def _window(text: str) -> Tuple[int, int]:
    """--window "lo,hi": two integers with lo <= hi; DocumentError (exit 2)
    for anything else."""
    try:
        lo, hi = (int(t) for t in text.split(","))
    except ValueError:
        raise DocumentError(f"--window must be two integers lo,hi, got {text!r}") from None
    return _bounds(lo, hi, "--window")


def _label_map(small: CurvedCoalgebra, big: CurvedCoalgebra, data) -> Dict[str, str]:
    """The decoded JSON `data` of --labels: an object sending labels of
    `small` to labels of `big`; DocumentError (exit 2) for anything else."""
    if not isinstance(data, dict):
        raise DocumentError("'--labels' must be an object {small label: big label}")
    for s, b in data.items():
        if s not in small.space.labels():
            raise DocumentError(f"'--labels': {s!r} is not a label of the small coalgebra")
        if not isinstance(b, str) or b not in big.space.labels():
            raise DocumentError(f"'--labels': {b!r} is not a label of the big coalgebra")
    return data


def _pretty(space: GradedSpace, v: dict) -> dict:
    F = space.field
    return {space.basis[i][0]: F.format_coeff(c) for i, c in sorted(v.items())}


def _load_morphism(path: str) -> CurvedMorphism:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    Asrc = _nested_algebra(doc, "source", path)
    Atgt = _nested_algebra(doc, "target", path)
    images = _read(doc, "map", path)
    if not isinstance(images, dict):
        raise DocumentError("'map' must be an object {label: element}")
    entries: Dict[int, dict] = {}
    for src_l, img in images.items():
        entries[_read(Asrc.space, src_l, "'map'")] = parse_element(Atgt.space, img, f"map[{src_l!r}]")
    b = parse_element(Atgt.space, doc.get("b", {}), "b")
    try:
        f = GradedMap(Asrc.space, Atgt.space, 0, entries)
    except ValueError as e:
        raise DocumentError(f"bad map: {e}")
    return CurvedMorphism(Asrc, Atgt, f, b, unital=doc.get("unital", True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    obj = _materialized(load_path(args.file)[0])
    rep = base_report(args, "curved (co)algebra axioms: d(h)=0 and d^2=[h,-] exact")
    bad = obj.validate()
    rep["valid"] = not bad
    rep["violations"] = bad
    return emit(rep, 0 if not bad else 1)


def cmd_interval(args) -> int:
    try:
        F = _field(args)
    except ValueError as e:
        return fail_input(f"bad --field {args.field!r}: {e}")
    n = None if args.n == "inf" else _positive(args.n, "n")
    I = make_interval(F, n, truncation=None if args.truncate is None else _positive(args.truncate, "--truncate"))
    rep = base_report(args, "interval algebra: dim 2n+1, dims (2,...,2,1) per degree")
    rep["n"] = args.n
    rep["dimension"] = I.algebra.dim
    rep["basis"] = [[l, d] for l, d in I.algebra.space.basis]
    rep["valid"] = I.algebra.validate() == []
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            json.dump(dump_algebra(I.algebra), fh, indent=2)
        rep["exported"] = args.export
    return emit(rep, 0 if rep["valid"] else 1)


def cmd_mc_enum(args) -> int:
    A = _load_algebra(args.file)
    rep = base_report(args, "Maurer-Cartan solutions of h + dx + x^2 = 0")
    if not A.field.is_prime_field:
        rep["polynomial_system"] = mc_polynomial_system(A)
        return emit(rep, 0)
    sols = mc_enumerate(A, budget=args.max_enum)
    rep["count"] = len(sols)
    rep["elements"] = [_pretty(A.space, x) for x in sols]
    return emit(rep, 0)


def cmd_moduli(args) -> int:
    A = _load_algebra(args.file)
    rep = base_report(args, "MC moduli: isomorphism classes in H^0 of the MC dg category")
    classes = moduli_set(A, budget=args.max_enum)
    rep["classes"] = len(classes)
    rep["members"] = [[_pretty(A.space, x) for x in cls] for cls in classes]
    return emit(rep, 0)


def cmd_homotopy(args) -> int:
    A = _load_algebra(args.file)
    x = _element(A.space, args.x, "--x")
    y = _element(A.space, args.y, "--y")
    n = _positive(args.n, "--n")
    rep = base_report(args, f"{n}-homotopy of MC elements through the interval algebra")
    H = n_homotopy_search(A, x, y, n, budget=args.max_enum)
    if H is None:
        rep["found"] = False
        return emit(rep, 1)
    T = interval_tensor(A, n)
    rep["found"] = True
    rep["homotopy"] = _pretty(T.space, H.X)
    return emit(rep, 0)


def cmd_twist(args) -> int:
    A = _load_algebra(args.file)
    x = _element(A.space, args.x, "--x")
    rep = base_report(args, "twist by an MC element: d^x = d + [x,-], curvature 0")
    try:
        Ax, iso = twist_algebra(A, x)
    except ValueError as e:
        rep["valid"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    rep["valid"] = Ax.validate() == [] and iso.validate() == []
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            json.dump(dump_algebra(Ax), fh, indent=2)
        rep["exported"] = args.export
    return emit(rep, 0 if rep["valid"] else 1)


def cmd_tensor(args) -> int:
    A = _load_algebra(args.file)
    B = _load_algebra(args.file2)
    T = tensor_algebras(A, B)
    rep = base_report(args, "tensor product with Koszul signs and curvature h@1 + 1@h")
    rep["dimension"] = T.dim
    rep["valid"] = T.validate() == []
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            json.dump(dump_algebra(T), fh, indent=2)
        rep["exported"] = args.export
    return emit(rep, 0 if rep["valid"] else 1)


def cmd_convolve(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    A = _load_algebra(args.algebra)
    conv = convolution_algebra(C, A)
    rep = base_report(args, "convolution algebra Hom(C,A): fg = m(f@g)Delta")
    rep["dimension"] = conv.algebra.dim
    rep["valid"] = conv.algebra.validate() == []
    rep["matches_dual_tensor"] = convolution_tensor_comparison(conv)
    return emit(rep, 0 if rep["valid"] and rep["matches_dual_tensor"] else 1)


def cmd_cobar(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    w = _read(C.space, args.coaugmentation, "--coaugmentation") if args.coaugmentation else 0
    rep = base_report(args, "truncated cobar construction on the coaugmentation coideal")
    om = cobar(C, w, _positive(args.truncate, "--truncate"))
    rep["dimensions_per_degree"] = {
        str(d): c for d, c in sorted(om.presentation.word_counts_by_degree().items())
    }
    rep["valid"] = om.algebra.validate() == []
    rep["curvature_zero"] = vec_is_zero(C.field, om.algebra.h)
    return emit(rep, 0 if rep["valid"] else 1)


def cmd_bar_dual(args) -> int:
    A = _load_algebra(args.algebra)
    rep = base_report(args, "truncated dual bar construction (tensor algebra on the shifted dual)")
    w = _read(A.space, args.splitting, "--splitting") if args.splitting else None
    bd = bar_dual(A, _positive(args.truncate, "--truncate"), w_index=w)
    rep["dimensions_per_degree"] = {
        str(d): c
        for d, c in sorted(bd.cobar.presentation.word_counts_by_degree().items())
    }
    rep["valid"] = bd.cobar.algebra.validate() == []
    return emit(rep, 0 if rep["valid"] else 1)


def cmd_adjunction_check(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    A = _load_algebra(args.algebra)
    w = _read(C.space, args.coaugmentation, "--coaugmentation") if args.coaugmentation else 0
    rep = base_report(args, "bar-cobar morphism counts through MC sets of Hom(C,A)")
    rep.update(
        adjunction_count_check(
            C, A, w, N_max=_positive(args.truncate, "--truncate"), budget=args.max_enum
        )
    )
    return emit(rep, 0 if rep.get("conclusive") else 1)


def cmd_twisted(args) -> int:
    A = _load_algebra(args.algebra)
    lo, hi = _bounds(args.lo, args.hi, "--lo/--hi")
    rep = base_report(args, "twisted modules: differentials are MC elements of A@End(V)")
    V = parse_basis(A.field, json.loads(args.module), "--module")
    amb = ambient_algebra(A, V)
    xi = _element(amb.space, args.xi, "--xi")
    if args.action == "make":
        try:
            M = make_twisted(A, V, xi)
        except ValueError as e:
            rep["valid"] = False
            rep["witness"] = str(e)
            return emit(rep, 1)
        rep["valid"] = True
        return emit(rep, 0)
    if args.action == "hom":
        M = make_twisted(A, V, xi)
        c = module_hom_complex(M, M)
        H = cohomology(c, lo, hi)
        rep["cohomology"] = {str(n): H[n]["dim"] for n in sorted(H)}
        return emit(rep, 0)
    if args.action == "induce":
        if not args.morphism:
            return fail_input("twisted induce requires --morphism")
        phi = _load_morphism(args.morphism)
        M = make_twisted(A, V, xi)
        N = induce(phi, M)
        rep["induced_xi"] = _pretty(N.ambient.space, N.xi)
        rep["valid"] = True
        return emit(rep, 0)
    return fail_input(f"unknown twisted action {args.action!r}")


def cmd_obstruction(args) -> int:
    with open(args.extension, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    A = _nested_algebra(doc, "total", args.extension)
    labels = _read(doc, "ideal", args.extension)
    if not isinstance(labels, list):
        raise DocumentError("'ideal' must be a list of labels")
    ideal = [_read(A.space, l, "'ideal'") for l in labels]
    try:
        ext = extension_from_total(A, ideal)
    except ValueError as e:
        raise DocumentError(f"'total' along 'ideal': {e}") from None
    x = _element(ext.B.space, args.x, "--x")
    if args.action == "class":
        rep = base_report(args, "obstruction cocycle nu(x) = del(x) + xi(x,x)")
        nu, cert = obstruction_class(ext, x)
        rep["nu"] = {ext.L.space.basis[i][0]: ext.field.format_coeff(c) for i, c in sorted(nu.items())}
        rep["cocycle_certificate"] = cert
        return emit(rep, 0 if cert else 1)
    if args.action == "lift":
        rep = base_report(args, "MC lifting along a square-zero extension")
        verdict = try_lift(ext, x)
        rep["verdict"] = verdict[0]
        if verdict[0] == "lift":
            rep["lift"] = _pretty(ext.total.space, verdict[1])
            return emit(rep, 0)
        rep["obstruction_class"] = {
            ext.L.space.basis[i][0]: ext.field.format_coeff(c)
            for i, c in sorted(verdict[1].items())
        }
        return emit(rep, 1)
    if args.action == "gauge-lift":
        rep = base_report(args, "semisplit gauge transport l' = f l g - del(f) g + del(y) h2")
        y = _element(ext.B.space, args.y, "--y")
        quad = find_gauge_quadruple(ext.B, x, y, budget=args.max_enum)
        if quad is None:
            rep["verdict"] = False
            rep["witness"] = "no homotopy gauge equivalence found"
            return emit(rep, 1)
        verdict = try_lift(ext, x)
        if verdict[0] != "lift":
            rep["verdict"] = False
            rep["witness"] = "x does not lift"
            return emit(rep, 1)
        yl = lift_along_gauge(ext, verdict[2], y, quad)
        rep["verdict"] = True
        rep["lift_of_y"] = _pretty(ext.total.space, yl)
        return emit(rep, 0)
    return fail_input(f"unknown obstruction action {args.action!r}")


def cmd_radical(args) -> int:
    A = _load_algebra(args.file)
    rep = base_report(args, "graded radical and internal curved radical J_- = {x in J : dx in J}")
    J = graded_radical(A)
    Jm = internal_curved_radical(A, radical=J)
    rep["radical"] = [_pretty(A.space, r) for r in J]
    rep["internal_curved_radical"] = [_pretty(A.space, r) for r in Jm]
    return emit(rep, 0)


def cmd_css_decompose(args) -> int:
    A = _load_algebra(args.file)
    rep = base_report(args, "curved semisimple decomposition into type-1/type-2 factors")
    try:
        B, pi, Jm = css_quotient(A)
        dec = css_decompose(B)
    except ValueError as e:
        rep["verdict"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    rep["css_dimension"] = B.dim
    rep["factors"] = [
        {"kind": f.kind, "dimension": f.algebra.dim} for f in dec.factors
    ]
    rep["reassembles"] = reassemble_check(dec)
    return emit(rep, 0 if rep["reassembles"] else 1)


def cmd_css_section(args) -> int:
    pi = _load_morphism(args.morphism)
    rep = base_report(args, "section of a surjection of curved semisimple algebras")
    try:
        sec = css_section(pi)
    except (ValueError, AssertionError) as e:
        rep["verdict"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    rep["verdict"] = True
    rep["section"] = {
        pi.target.label(j): _pretty(pi.source.space, sec.f.entries.get(j, {}))
        for j in range(pi.target.dim)
    }
    return emit(rep, 0)


def cmd_tower(args) -> int:
    pi = _load_morphism(args.morphism)
    rep = base_report(args, "nilpotent kernel factored through square-zero steps")
    try:
        steps = nilpotent_tower(pi)
    except ValueError as e:
        rep["verdict"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    rep["steps"] = len(steps)
    rep["stage_dimensions"] = [s.source.dim for s in steps] + (
        [steps[-1].target.dim] if steps else [pi.target.dim]
    )
    return emit(rep, 0)


def cmd_omega_cat(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    window = _window(args.window) if args.window else None
    words = _positive(args.words, "--words")
    rep = base_report(args, "categorical cobar of a pointed coalgebra with split coradical")
    try:
        D = omega_cat(C)
    except ValueError as e:
        rep["verdict"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    rep["objects"] = list(D.objects)
    rep["arrows"] = [
        {"label": a.label, "source": a.source, "target": a.target, "degree": a.degree}
        for a in D.arrows
    ]
    def word(key) -> str:
        v = D.presentation.vertex_of(key)
        return "*".join(key) if v is None else f"id[{v}]"

    rep["differentials"] = {
        a.label: {
            word(k): C.field.format_coeff(c)
            for k, c in sorted(D.d_of(a.label).items(), key=str)
        }
        for a in D.arrows
        if D.d_of(a.label)
    }
    if window:
        lo, hi = window
        rep["hom_cohomology"] = {}
        for x in D.objects:
            for y in D.objects:
                H = hom_window_cohomology(D, x, y, lo, hi, word_bound=words)
                rep["hom_cohomology"][f"{x}->{y}"] = {str(n): H[n] for n in sorted(H)}
    return emit(rep, 0)


def cmd_alg_mc(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    rep = base_report(args, "reduced MC algebra of the categorical cobar")
    try:
        D = omega_cat(C)
    except ValueError as e:
        rep["verdict"] = False
        rep["witness"] = str(e)
        return emit(rep, 1)
    if args.basepoint not in D.objects:
        return fail_input(f"basepoint {args.basepoint!r} is not an object of the categorical cobar")
    truncation = _positive(args.truncate, "--truncate")
    try:
        P = alg_mc(D, args.basepoint, truncation=truncation)
    except ValueError as e:  # a coalgebra label that is a generator or vertex name
        return fail_input(f"reduced MC algebra: {e}")
    rep["generators"] = [[a.label, a.degree] for a in P.arrows]
    rep["dimensions_per_degree"] = {
        str(d): c for d, c in sorted(P.word_counts_by_degree().items())
    }
    return emit(rep, 0)


def cmd_fib_check(args) -> int:
    C = _load_coalgebra(args.coalgebra)
    g = _load_morphism(args.morphism)
    rep = base_report(args, "strong-fibration witness: hom surjectivity + H^0 iso lifting")
    rep.update(is_fibration_mcdg(C, g, budget=args.max_enum))
    return emit(rep, 0 if rep.get("verdict") else 1)


def cmd_rectify(args) -> int:
    Cp = _load_coalgebra(args.big)
    Csub = _load_coalgebra(args.small)
    A = _load_algebra(args.algebra)
    label_map = _label_map(Csub, Cp, json.loads(args.labels))
    idual = inclusion_dual_for_subcoalgebra(Cp, Csub, label_map)
    big = convolution_space(Cp, A)
    X = _element(big, args.x, "--x")
    g0 = _element(convolution_space(Csub, A), args.g0, "--g0")
    rep = base_report(args, "rectification of a homotopy-commutative triangle")
    res = rectify_cofibration(Csub, Cp, idual, A, X, g0, budget=args.max_enum)
    rep.update(
        {k: (_pretty(big, v) if k == "lift" else v) for k, v in res.items()}
    )
    return emit(rep, 0 if res.get("verdict") else 1)


def cmd_lift(args) -> int:
    Cp = _load_coalgebra(args.big)
    Csub = _load_coalgebra(args.small)
    g = _load_morphism(args.morphism)
    label_map = _label_map(Csub, Cp, json.loads(args.labels))
    idual = inclusion_dual_for_subcoalgebra(Cp, Csub, label_map)
    u = _element(convolution_space(Csub, g.source), args.u, "--u")
    up = _element(convolution_space(Cp, g.target), args.uprime, "--uprime")
    rep = base_report(args, "lifting solver for an injection against a fibration")
    res = lifting_solver(Csub, Cp, idual, g, u, up, budget=args.max_enum)
    big = convolution_space(Cp, g.source)
    rep.update({k: (_pretty(big, v) if k == "lift" else v) for k, v in res.items()})
    return emit(rep, 0 if res.get("verdict") else 1)


def cmd_uncurve(args) -> int:
    A = _load_algebra(args.file)
    rep = base_report(args, "uncurving route through A @ End(k + k[1]) and the matrix twist")
    B, x, (incl, iso) = uncurve_morita(A)
    rep["dimension"] = B.dim
    rep["valid"] = B.validate() == [] and vec_is_zero(B.field, B.h)
    return emit(rep, 0 if rep["valid"] else 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curvlab",
        description="exact computations with curved algebras and coalgebras",
    )
    p.add_argument("--max-enum", default="0", help="enumeration budget override (0: the default)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate)
    sp.add_argument("file")
    sp = add("interval", cmd_interval)
    sp.add_argument("n")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--truncate", type=int, default=None)
    sp.add_argument("--export")
    sp = add("mc-enum", cmd_mc_enum)
    sp.add_argument("file")
    sp = add("moduli", cmd_moduli)
    sp.add_argument("file")
    sp = add("homotopy", cmd_homotopy)
    sp.add_argument("file")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--n", type=int, default=3)
    sp = add("twist", cmd_twist)
    sp.add_argument("file")
    sp.add_argument("--x", required=True)
    sp.add_argument("--export")
    sp = add("tensor", cmd_tensor)
    sp.add_argument("file")
    sp.add_argument("file2")
    sp.add_argument("--export")
    sp = add("convolve", cmd_convolve)
    sp.add_argument("coalgebra")
    sp.add_argument("algebra")
    sp = add("cobar", cmd_cobar)
    sp.add_argument("coalgebra")
    sp.add_argument("--coaugmentation")
    sp.add_argument("--truncate", type=int, default=3)
    sp = add("bar-dual", cmd_bar_dual)
    sp.add_argument("algebra")
    sp.add_argument("--splitting")
    sp.add_argument("--truncate", type=int, default=3)
    sp = add("adjunction-check", cmd_adjunction_check)
    sp.add_argument("coalgebra")
    sp.add_argument("algebra")
    sp.add_argument("--coaugmentation")
    sp.add_argument("--truncate", type=int, default=3)
    sp = add("twisted", cmd_twisted)
    sp.add_argument("action", choices=["make", "hom", "induce"])
    sp.add_argument("algebra")
    sp.add_argument("--module", required=True, help='JSON basis [["m",0],...]')
    sp.add_argument("--xi", default="{}")
    sp.add_argument("--morphism", help="morphism document for induce")
    sp.add_argument("--lo", type=int, default=-2)
    sp.add_argument("--hi", type=int, default=2)
    sp = add("obstruction", cmd_obstruction)
    sp.add_argument("action", choices=["class", "lift", "gauge-lift"])
    sp.add_argument("extension")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y")
    sp = add("radical", cmd_radical)
    sp.add_argument("file")
    sp = add("css-decompose", cmd_css_decompose)
    sp.add_argument("file")
    sp = add("css-section", cmd_css_section)
    sp.add_argument("morphism")
    sp = add("tower", cmd_tower)
    sp.add_argument("morphism")
    sp = add("omega-cat", cmd_omega_cat)
    sp.add_argument("coalgebra")
    sp.add_argument("--window")
    sp.add_argument("--words", type=int, default=8)
    sp = add("alg-mc", cmd_alg_mc)
    sp.add_argument("coalgebra")
    sp.add_argument("--basepoint", required=True)
    sp.add_argument("--truncate", type=int, default=4)
    sp = add("fib-check", cmd_fib_check)
    sp.add_argument("coalgebra")
    sp.add_argument("morphism")
    sp = add("rectify", cmd_rectify)
    sp.add_argument("small")
    sp.add_argument("big")
    sp.add_argument("algebra")
    sp.add_argument("--labels", required=True, help="JSON {small label: big label}")
    sp.add_argument("--x", required=True)
    sp.add_argument("--g0", required=True)
    sp = add("lift", cmd_lift)
    sp.add_argument("small")
    sp.add_argument("big")
    sp.add_argument("morphism")
    sp.add_argument("--labels", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--uprime", required=True)
    sp = add("uncurve", cmd_uncurve)
    sp.add_argument("file")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a window such as "-1,0" for an option: join it to its flag
    if "--window" in argv[:-1]:
        i = argv.index("--window")
        argv[i : i + 2] = [f"--window={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        args.max_enum = _budget(args.max_enum)
        return args.fn(args)
    except DocumentError as e:
        return fail_input(str(e))
    except FileNotFoundError as e:
        return fail_input(str(e))
    except json.JSONDecodeError as e:
        return fail_input(f"invalid JSON: {e}")
    except BudgetExceeded as e:
        return fail_budget(e)
    except PrimeFieldRequired as e:
        return fail_input(str(e))


if __name__ == "__main__":
    sys.exit(main())

import json
import os

import pytest

from curvlab.cli import main
from curvlab.documents import parse_element
from curvlab.gradedlin import BudgetExceeded, GradedMap, GradedSpace


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_interval_export_and_validate(tmp_path, capsys):
    f = tmp_path / "I3.json"
    code, rep = run_cli(capsys, ["interval", "3", "--export", str(f)])
    assert code == 0
    assert rep["dimension"] == 7
    assert len(rep["basis"]) == 7
    code, rep = run_cli(capsys, ["validate", str(f)])
    assert code == 0 and rep["valid"]


def test_validate_bad_curvature(tmp_path, capsys):
    f = tmp_path / "I3.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    doc = json.loads(f.read_text())
    doc["curvature"] = {"st": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["validate", str(bad)])
    assert code == 1
    assert rep["violations"]


def test_mc_enum_and_moduli(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["mc-enum", str(f)])
    assert code == 0 and rep["count"] == 1
    code, rep = run_cli(capsys, ["moduli", str(f)])
    assert code == 0 and rep["classes"] == 1


def test_moduli_square_zero(tmp_path, capsys):
    doc = {
        "field": {"kind": "prime-field", "characteristic": 2},
        "mode": "structure-constants",
        "kind": "algebra",
        "basis": [["1", 0], ["v", 1]],
        "unit": {"1": 1},
        "mult": [["1", "1", "1", 1], ["1", "v", "v", 1], ["v", "1", "v", 1]],
        "differential": [],
        "curvature": {},
    }
    f = tmp_path / "sqz.json"
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["moduli", str(f)])
    assert code == 0
    assert rep["classes"] == 2  # |H^1(V)| = 2


def test_mc_enum_over_Q_gives_system(tmp_path, capsys):
    f = tmp_path / "I3.json"
    run_cli(capsys, ["interval", "3", "--export", str(f)])
    code, rep = run_cli(capsys, ["mc-enum", str(f)])
    assert code == 0
    assert "polynomial_system" in rep


def test_tensor_and_twist(tmp_path, capsys):
    f = tmp_path / "I1.json"
    run_cli(capsys, ["interval", "1", "--field", "3", "--export", str(f)])
    code, rep = run_cli(capsys, ["tensor", str(f), str(f)])
    assert code == 0 and rep["dimension"] == 9
    code, rep = run_cli(capsys, ["twist", str(f), "--x", '{"s": 1}'])
    assert code == 0 and rep["valid"]
    code, rep = run_cli(capsys, ["twist", str(f), "--x", '{"s": 1}'])
    assert code == 0


def test_cobar_and_bar_dual(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    # cobar of the dual coalgebra at the vertex coaugmentation
    code, rep = run_cli(
        capsys, ["cobar", str(f), "--coaugmentation", "e_e'", "--truncate", "3"]
    )
    assert code == 0 and rep["valid"] and rep["curvature_zero"]
    code, rep = run_cli(capsys, ["bar-dual", str(f), "--splitting", "e_e", "--truncate", "2"])
    assert code == 0 and rep["valid"]


def test_convolve(tmp_path, capsys):
    f = tmp_path / "I1p2.json"
    run_cli(capsys, ["interval", "1", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["convolve", str(f), str(f)])
    assert code == 0
    assert rep["dimension"] == 9
    assert rep["matches_dual_tensor"]


def test_omega_cat_report(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["omega-cat", str(f)])
    assert code == 0
    assert len(rep["arrows"]) == 5
    assert rep["differentials"]["ts'"]


def test_alg_mc_report(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["alg-mc", str(f), "--basepoint", "e_e'", "--truncate", "3"])
    assert code == 0
    assert ["x[e_f']", 1] in rep["generators"]


def _renamed_dual_interval(tmp_path, label):
    """The coalgebra dual(I_3) over F_2 as a document, with s' renamed."""
    from curvlab.coalgebra import dualize_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    F = GF(2)
    C = dualize_algebra(make_interval(F, 3).algebra)
    name = [label if l == "s'" else l for l in C.space.labels()]
    doc = {
        "field": F.describe(),
        "kind": "coalgebra",
        "basis": [[name[i], C.space.degree(i)] for i in range(C.dim)],
        "counit": {name[i]: c for i, c in C.counit.items()},
        "mult": [[name[a], name[b], name[c], v] for a, t in C.comult.items() for (b, c), v in t.items()],
        "differential": [[name[j], name[i], c] for j, col in C.d.entries.items() for i, c in col.items()],
    }
    return _write(tmp_path, "co.json", doc)


@pytest.mark.parametrize("label", ["*", "x[e_f']"])
def test_alg_mc_generator_name_clash_is_an_input_error(tmp_path, capsys, label):
    """s' renamed to the vertex of the reduced MC algebra (*) or to the
    generator of the object e_f'."""
    code, rep = run_cli(capsys, ["alg-mc", _renamed_dual_interval(tmp_path, label), "--basepoint", "e_e'"])
    assert code == 2 and "reduced MC algebra" in rep["error"]


def test_omega_cat_spells_a_word_that_starts_with_v(tmp_path, capsys):
    """With s' renamed to v, the word (v, t') is printed as a word, not as
    the identity of t'."""
    code, rep = run_cli(capsys, ["omega-cat", _renamed_dual_interval(tmp_path, "v")])
    assert code == 0 and rep["differentials"]["st'"] == {"id[e_e']": 1, "v*t'": 1}


def test_alg_mc_basepoint_must_be_an_object(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["alg-mc", str(f), "--basepoint", "s'"])
    assert code == 2
    assert "s'" in rep["error"]


def test_radical_and_css(tmp_path, capsys):
    f = tmp_path / "I3p2.json"
    run_cli(capsys, ["interval", "3", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["radical", str(f)])
    assert code == 0
    assert len(rep["radical"]) == 5
    code, rep = run_cli(capsys, ["css-decompose", str(f)])
    assert code == 0
    assert rep["reassembles"]
    assert [fa["kind"] for fa in rep["factors"]] == ["type1", "type1"]


def test_radical_past_the_enumeration_budget(tmp_path, capsys):
    # I_2 (x) I_2 over F_2 has 2^25 elements, more than the default budget
    # of 2^16; the radical is computed, not enumerated, so it takes none
    from curvlab.algebra import tensor_algebras
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    I2 = make_interval(GF(2), 2).algebra
    f = tmp_path / "I2I2.json"
    f.write_text(json.dumps(dump_algebra(tensor_algebras(I2, I2))))
    code, rep = run_cli(capsys, ["radical", str(f)])
    assert code == 0
    assert len(rep["radical"]) == 25 - 4


def test_css_decompose_past_the_enumeration_budget(tmp_path, capsys):
    # k^17 over F_2: its closed centre has 2^17 points, more than the default
    # budget of 2^16; the idempotents are not enumerated, so no refusal
    from curvlab.algebra import direct_product, ground_algebra
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF

    B = ground_algebra(GF(2))
    for _ in range(16):
        B = direct_product(B, ground_algebra(GF(2)))
    f = tmp_path / "k17.json"
    f.write_text(json.dumps(dump_algebra(B)))
    code, rep = run_cli(capsys, ["css-decompose", str(f)])
    assert code == 0
    assert [fa["kind"] for fa in rep["factors"]] == ["type1"] * 17
    assert rep["reassembles"]


def test_prime_field_command_over_Q_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "I3.json"
    run_cli(capsys, ["interval", "3", "--export", str(f)])
    code, rep = run_cli(capsys, ["moduli", str(f)])
    assert code == 2
    assert "prime field" in rep["error"]


def test_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run_cli(capsys, ["validate", str(bad)])
    assert code == 2
    assert "error" in rep


def test_budget_refusal_exit_3(tmp_path, capsys):
    doc = {
        "field": {"kind": "prime-field", "characteristic": 2},
        "mode": "structure-constants",
        "kind": "algebra",
        "basis": [["1", 0]] + [[f"v{i}", 1] for i in range(20)],
        "unit": {"1": 1},
        "mult": [["1", "1", "1", 1]]
        + [["1", f"v{i}", f"v{i}", 1] for i in range(20)]
        + [[f"v{i}", "1", f"v{i}", 1] for i in range(20)],
        "differential": [],
        "curvature": {},
    }
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["mc-enum", str(f)])
    assert code == 3
    assert "refusal" in rep


def test_deterministic_output(tmp_path, capsys):
    f = tmp_path / "I2.json"
    run_cli(capsys, ["interval", "2", "--field", "2", "--export", str(f)])
    code1, rep1 = run_cli(capsys, ["mc-enum", str(f)])
    code2, rep2 = run_cli(capsys, ["mc-enum", str(f)])
    assert rep1 == rep2


def test_tower_cli(tmp_path, capsys):
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval
    from curvlab.semisimple import css_quotient

    F = GF(2)
    A = make_interval(F, 3).algebra
    B, pi, _ = css_quotient(A)
    doc = {
        "source": dump_algebra(A),
        "target": dump_algebra(B),
        "map": {
            A.label(j): {
                B.label(i): F.format_coeff(c)
                for i, c in pi.f.entries.get(j, {}).items()
            }
            for j in range(A.dim)
        },
    }
    f = tmp_path / "pi.json"
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["tower", str(f)])
    assert code == 0
    assert rep["steps"] == 3


@pytest.mark.parametrize("field", ["4", "abc"])
def test_interval_bad_field_is_an_input_error(capsys, field):
    code, rep = run_cli(capsys, ["interval", "2", "--field", field])
    assert code == 2
    assert field in rep["error"]


def test_max_enum_leaves_the_environment_alone(monkeypatch, capsys):
    # set before deleting, so that undoing the monkeypatch also removes a
    # value that main() might leave behind
    monkeypatch.setenv("CURVLAB_MAX_ENUM", "1")
    monkeypatch.delenv("CURVLAB_MAX_ENUM")
    code, rep = run_cli(capsys, ["--max-enum", "7", "interval", "2"])
    assert code == 0 and rep["budget"] == 7
    assert "CURVLAB_MAX_ENUM" not in os.environ
    code, rep = run_cli(capsys, ["interval", "2"])
    assert code == 0 and rep["budget"] == 65536


@pytest.mark.parametrize("x", ["[1]", "5", '"s"', '{"s": "zz"}', '{"s": 2.9}', '{"s": true}', '{"q": 1}'])
def test_element_argument_must_be_a_label_coefficient_object(tmp_path, capsys, x):
    f = tmp_path / "I1p2.json"
    run_cli(capsys, ["interval", "1", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["twist", str(f), "--x", x])
    assert code == 2
    assert "error" in rep


def test_every_element_argument_is_checked(tmp_path, capsys):
    f = tmp_path / "I1p2.json"
    run_cli(capsys, ["interval", "1", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["homotopy", str(f), "--x", "{}", "--y", '{"s": 0.5}'])
    assert code == 2 and "0.5" in rep["error"]
    code, rep = run_cli(
        capsys, ["twisted", "make", str(f), "--module", '[["m", 0]]', "--xi", "[]"]
    )
    assert code == 2 and "--xi" in rep["error"]


def test_morphism_images_are_checked(tmp_path, capsys):
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    A = make_interval(GF(2), 1).algebra
    doc = {"source": dump_algebra(A), "target": dump_algebra(A), "map": {"s": {"s": 1.5}}}
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["tower", str(f)])
    assert code == 2 and "1.5" in rep["error"]
    doc["map"] = [["s", "s", 1]]
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["tower", str(f)])
    assert code == 2 and "'map'" in rep["error"]
    doc["map"] = {"e_e": {"s": 1}}  # degree 0 to degree 1
    f.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["tower", str(f)])
    assert code == 2 and "violates degree" in rep["error"]


@pytest.mark.parametrize("module", ["[1]", "5", '[["m", "x"]]', '{"a": 1}', '[["m", 0], ["m", 0]]'])
def test_twisted_module_is_a_checked_basis(tmp_path, capsys, module):
    f = tmp_path / "I1p2.json"
    run_cli(capsys, ["interval", "1", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["twisted", "make", str(f), "--xi", "{}", "--module", module])
    assert code == 2 and "--module" in rep["error"]
    code, rep = run_cli(capsys, ["twisted", "make", str(f), "--xi", "{}", "--module", '[["m", 0]]'])
    assert code == 0 and rep["valid"]


def _rectify_files(tmp_path):
    from curvlab.algebra import ground_algebra, square_zero_algebra
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    F = GF(2)
    V = GradedSpace.make([("v", 1)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    paths = {}
    for name, alg in (("k", ground_algebra(F)), ("I1", make_interval(F, 1).algebra), ("A", A)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dump_algebra(alg)))
    paths["id"] = tmp_path / "id.json"
    identity = {"1": {"1": 1}, "v": {"v": 1}}
    doc = {"source": dump_algebra(A), "target": dump_algebra(A), "map": identity}
    paths["id"].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize(
    "labels", ["[1]", '"e_e\'"', '{"zz": "e_e\'"}', '{"zz": "e_e"}', '{"1\'": "zz"}', '{"1\'": 1}']
)
def test_labels_map_small_labels_to_big_labels(tmp_path, capsys, labels):
    p = _rectify_files(tmp_path)
    small_big = [str(p["k"]), str(p["I1"])]
    rectify = ["rectify", *small_big, str(p["A"]), "--x", "{}", "--g0", "{}", "--labels"]
    lift = ["lift", *small_big, str(p["id"]), "--u", "{}", "--uprime", "{}", "--labels"]
    for argv in (rectify, lift):
        code, rep = run_cli(capsys, argv + [labels])
        assert code == 2 and "--labels" in rep["error"]
    code, rep = run_cli(capsys, rectify + ['{"1\'": "e_e\'"}'])
    assert code in (0, 1) and "verdict" in rep


@pytest.mark.parametrize(
    "argv, name",
    [
        (["interval", "0"], "n"),
        (["interval", "-1"], "n"),
        (["interval", "junk"], "n"),
        (["homotopy", "{doc}", "--x", "{{}}", "--y", "{{}}", "--n", "0"], "--n"),
        (["cobar", "{doc}", "--truncate", "-1"], "--truncate"),
        (["bar-dual", "{doc}", "--truncate", "-1"], "--truncate"),
        (["omega-cat", "{doc}", "--window", "junk"], "--window"),
        (["alg-mc", "{doc}", "--basepoint", "e_e'", "--truncate", "0"], "--truncate"),
        (["alg-mc", "{doc}", "--basepoint", "e_e'", "--truncate", "-1"], "--truncate"),
        (["adjunction-check", "{doc}", "{doc}", "--truncate", "-1"], "--truncate"),
        (["--max-enum", "-1", "mc-enum", "{doc}"], "--max-enum"),
        (["--max-enum", "junk", "mc-enum", "{doc}"], "--max-enum"),
        (["interval", "2", "--truncate", "-1"], "--truncate"),
        (["interval", "inf", "--truncate", "0"], "--truncate"),
        (["omega-cat", "{doc}", "--words", "-1"], "--words"),
        (["omega-cat", "{doc}", "--window", "1,0"], "--window"),
        (["twisted", "hom", "{doc}", "--module", '[["m", 0]]', "--xi", "{{}}", "--lo", "3", "--hi", "1"], "--lo/--hi"),
        (["twisted", "make", "{doc}", "--module", '[["m", 0]]', "--xi", "{{}}", "--lo", "3", "--hi", "1"], "--lo/--hi"),
    ],
)
def test_integer_and_window_arguments_are_input_errors(tmp_path, capsys, argv, name):
    f = tmp_path / "I2p2.json"
    run_cli(capsys, ["interval", "2", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, [a.format(doc=f) for a in argv])
    assert code == 2 and rep["error"].startswith(f"{name} must be")


def test_windows_of_one_degree_and_positive_bounds_answer(tmp_path, capsys):
    # the edges of the checks above: lo = hi, --words 1 and --truncate 1
    f = tmp_path / "I2p2.json"
    run_cli(capsys, ["interval", "2", "--field", "2", "--export", str(f)])
    code, rep = run_cli(capsys, ["omega-cat", str(f), "--window", "0,0", "--words", "1"])
    assert code == 0 and all(set(H) == {"0"} for H in rep["hom_cohomology"].values())
    code, rep = run_cli(capsys, ["twisted", "hom", str(f), "--module", '[["m", 0]]', "--xi", "{}", "--lo", "1", "--hi", "1"])
    assert code == 0 and set(rep["cohomology"]) == {"1"}
    code, rep = run_cli(capsys, ["interval", "2", "--truncate", "1"])
    assert code == 0 and rep["dimension"] == 5


def test_window_may_start_below_zero(tmp_path, capsys):
    # "--window -1,0" reads as an option to argparse unless joined to its flag
    f = tmp_path / "I2p2.json"
    run_cli(capsys, ["interval", "2", "--field", "2", "--export", str(f)])
    joined = run_cli(capsys, ["omega-cat", str(f), "--window=-1,0"])
    split = run_cli(capsys, ["omega-cat", str(f), "--window", "-1,0"])
    assert joined == split
    code, rep = joined
    assert code == 0 and rep["hom_cohomology"]
    assert all(set(H) == {"-1", "0"} for H in rep["hom_cohomology"].values())


def test_rectify_and_lift_build_each_convolution_algebra_once(tmp_path, capsys, monkeypatch):
    # the element arguments are read on the convolution spaces; the library
    # builds each Hom(C, A) once: Hom(I_1, A) and Hom(k, A) for rectify, and
    # those of A and A' for lift
    from curvlab import barcobar, cli, modelcheck
    from curvlab.convolution import convolution_algebra

    built = []

    def counting(C, A):
        built.append((C.dim, A.dim))
        return convolution_algebra(C, A)

    for module in (barcobar, cli, modelcheck):
        monkeypatch.setattr(module, "convolution_algebra", counting)
    p = _rectify_files(tmp_path)
    small_big = [str(p["k"]), str(p["I1"])]
    labels = ["--labels", '{"1\'": "e_e\'"}']
    code, rep = run_cli(capsys, ["rectify", *small_big, str(p["A"]), "--x", "{}", "--g0", "{}", *labels])
    assert code == 0 and rep["verdict"] is True
    assert sorted(built) == [(1, 2), (3, 2)]
    del built[:]
    code, rep = run_cli(capsys, ["lift", *small_big, str(p["id"]), "--u", "{}", "--uprime", "{}", *labels])
    assert code == 0 and rep["verdict"] is True
    assert sorted(built) == [(1, 2), (1, 2), (3, 2), (3, 2)]


def _write(tmp_path, name, doc):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def _end_document(tmp_path, F, degrees):
    from curvlab.algebra import endomorphism_algebra
    from curvlab.documents import dump_algebra

    E = endomorphism_algebra(GradedSpace.make([(f"v{i}", d) for i, d in enumerate(degrees)], F))
    return E, _write(tmp_path, "end.json", dump_algebra(E))


def test_homotopy_n3_is_built_past_the_search_budget(tmp_path, capsys):
    # End(k + k<-1> + k<-2>) over F_3: A @ I^3 has 11 free degree-1
    # coordinates, 3^11 states over the default budget of 2^16, so a search
    # refuses; the 3-homotopy is built from the gauge witness instead
    from curvlab.fields import GF
    from curvlab.mc import interval_tensor, moduli_set, verify_n_homotopy

    E, f = _end_document(tmp_path, GF(3), (0, 1, 2))
    x, y = next(cls for cls in moduli_set(E) if len(cls) > 1)[:2]
    pretty = [json.dumps({E.label(i): c for i, c in v.items()}) for v in (x, y)]
    code, rep = run_cli(capsys, ["homotopy", f, "--x", pretty[0], "--y", pretty[1], "--n", "3"])
    assert code == 0 and rep["found"] is True
    X = parse_element(interval_tensor(E, 3).space, rep["homotopy"], "homotopy")
    assert verify_n_homotopy(E, x, y, 3, X)


def test_homotopy_n3_over_Q_requires_a_prime_field(tmp_path, capsys):
    # End(k + k<-1>) over Q: x = E[v1,v0] and y = 2 E[v1,v0] are gauge
    # equivalent, but x - y is no coboundary (d = 0), so the square-zero
    # shortcut fails and the gauge witness needs a prime field
    from curvlab.fields import QQ, PrimeFieldRequired
    from curvlab.mc import n_homotopy_search

    E, f = _end_document(tmp_path, QQ, (0, 1))
    x, y = ({E.space.index("E[v1,v0]"): QQ.coerce(c)} for c in (1, 2))
    with pytest.raises(PrimeFieldRequired):
        n_homotopy_search(E, x, y, 3)
    code, rep = run_cli(capsys, ["homotopy", f, "--x", '{"E[v1,v0]": 1}', "--y", '{"E[v1,v0]": 2}'])
    assert code == 2 and "prime field" in rep["error"]


def test_homotopy_n2_is_solved_past_the_search_budget(tmp_path, capsys):
    # End(k + k<-1>^2) over F_3: A @ I^2 has 12 free degree-1 coordinates,
    # 3^12 states over the default budget of 2^16, so the exhaustive search
    # refuses; the staged solve answers with a verified 2-homotopy
    from curvlab.fields import GF
    from curvlab.mc import interval_tensor, moduli_set, verify_n_homotopy
    from reference_mc import reference_n_homotopy_search

    E, f = _end_document(tmp_path, GF(3), (0, 1, 1))
    x, y = next(cls for cls in moduli_set(E) if len(cls) > 1)[:2]
    with pytest.raises(BudgetExceeded):
        reference_n_homotopy_search(E, x, y, 2)
    pretty = [json.dumps({E.label(i): c for i, c in v.items()}) for v in (x, y)]
    code, rep = run_cli(capsys, ["homotopy", f, "--x", pretty[0], "--y", pretty[1], "--n", "2"])
    assert code == 0 and rep["found"] is True
    X = parse_element(interval_tensor(E, 2).space, rep["homotopy"], "homotopy")
    assert verify_n_homotopy(E, x, y, 2, X)


def test_homotopy_n2_without_a_homotopy_exits_1(tmp_path, capsys):
    # End(k + k<-1>) over F_3: 0 and E[v1,v0] are in distinct gauge classes,
    # and the exhaustive search of A @ I^2 finds no 2-homotopy between them
    from curvlab.fields import GF
    from reference_mc import reference_n_homotopy_search

    E, f = _end_document(tmp_path, GF(3), (0, 1))
    assert reference_n_homotopy_search(E, {}, {E.space.index("E[v1,v0]"): 1}, 2) is None
    code, rep = run_cli(capsys, ["homotopy", f, "--x", "{}", "--y", '{"E[v1,v0]": 1}', "--n", "2"])
    assert code == 1 and rep["found"] is False


def test_homotopy_n1_over_Q_requires_a_prime_field(tmp_path, capsys):
    from curvlab.fields import QQ

    _, f = _end_document(tmp_path, QQ, (0, 1))
    code, rep = run_cli(capsys, ["homotopy", f, "--x", "{}", "--y", '{"E[v1,v0]": 1}', "--n", "1"])
    assert code == 2 and "prime field" in rep["error"]


def _gauge_lift_extension(tmp_path):
    """End(k + k<-1>) @ I_1 over F_3 with the square-zero ideal spanned by
    the s-components: a semisplit extension of End(V) x End(V) whose del
    is nonzero."""
    from curvlab.algebra import endomorphism_algebra, tensor_algebras
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    F = GF(3)
    E = endomorphism_algebra(GradedSpace.make([("v0", 0), ("v1", 1)], F))
    T = tensor_algebras(E, make_interval(F, 1).algebra)
    ideal = [l for l in T.space.labels() if l.endswith("@s")]
    return T, ideal, _write(tmp_path, "ext.json", {"total": dump_algebra(T), "ideal": ideal})


def test_gauge_lift_transports_along_a_witness_with_h2(tmp_path, capsys):
    from curvlab.mc import find_gauge_quadruple
    from curvlab.obstruction import extension_from_total

    T, ideal, f = _gauge_lift_extension(tmp_path)
    ext = extension_from_total(T, [T.space.index(l) for l in ideal])
    x, y = ({ext.B.space.index("E[v1,v0]@e_e"): c} for c in (1, 2))
    quad = find_gauge_quadruple(ext.B, x, y)
    assert quad.validate() == [] and quad.h2
    argv = ["obstruction", "gauge-lift", f, "--x", '{"E[v1,v0]@e_e": 1}', "--y", '{"E[v1,v0]@e_e": 2}']
    code, rep = run_cli(capsys, argv)
    assert code == 0 and rep["verdict"] is True
    A = ext.total
    assert A.is_mc(parse_element(A.space, rep["lift_of_y"], "lift_of_y"))
    assert {l: c for l, c in rep["lift_of_y"].items() if l.startswith("b.")} == {"b.E[v1,v0]@e_e": 2}


@pytest.mark.parametrize("action", ["class", "lift"])
def test_a_total_curved_in_the_ideal_is_an_input_error(tmp_path, capsys, action):
    """k + k.l over F_3 with |l| = 2, l^2 = 0, d = 0 and h = l: a
    square-zero extension has no curvature in L = k.l."""
    from curvlab.algebra import CurvedAlgebra, square_zero_algebra
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF

    F = GF(3)
    V = GradedSpace.make([("l", 2)], F)
    A = square_zero_algebra(V, GradedMap(V, V, 1, {}))
    A = CurvedAlgebra(A.space, A.unit, A.mult, A.d, {1: F.one()})
    f = _write(tmp_path, "ext.json", {"total": dump_algebra(A), "ideal": ["l"]})
    code, rep = run_cli(capsys, ["obstruction", action, f, "--x", "{}"])
    assert code == 2 and "curvature has a component in the chosen ideal" in rep["error"]


def test_gauge_lift_without_y_is_an_input_error(tmp_path, capsys):
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    doc = {"total": dump_algebra(make_interval(GF(2), 1).algebra), "ideal": ["s"]}
    f = _write(tmp_path, "ext.json", doc)
    code, rep = run_cli(capsys, ["obstruction", "gauge-lift", f, "--x", "{}"])
    assert code == 2 and "--y" in rep["error"]


def _key_documents(tmp_path):
    """I_1 over F_2 as an algebra, extension and morphism documents built
    on it, each with one key or label missing or unknown, or with an ideal
    that is not one, and presentations with a word they cannot realize or
    with an arrow label that is a vertex name."""
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    I1 = dump_algebra(make_interval(GF(2), 1).algebra)
    identity = {l: {l: 1} for l, _ in I1["basis"]}
    morphism = {"source": I1, "target": I1, "map": identity}
    docs = {
        "alg": I1,
        "no_total": {"ideal": ["s"]},
        "no_ideal": {"total": I1},
        "ideal_label": {"total": I1, "ideal": ["zz"]},
        "not_an_ideal": {"total": I1, "ideal": ["e_e"]},
        "not_an_object": [I1],
        "map_label": dict(morphism, map={"zz": {"s": 1}}),
    }
    for key in ("source", "target", "map"):
        docs[f"no_{key}"] = {k: v for k, v in morphism.items() if k != key}
    quiver = {
        "field": {"kind": "prime-field", "characteristic": 2},
        "mode": "presented",
        "vertices": ["e", "f"],
        "arrows": [["s", "e", "f", 1], ["t", "f", "e", 1]],
    }
    docs["unknown_arrow"] = dict(quiver, d={"s": [[["zz"], 1]]})
    docs["non_composable"] = dict(quiver, curvature=[[["s", "s"], 1]])
    docs["vertex_label"] = dict(quiver, arrows=quiver["arrows"] + [["e", "e", "e", 0]])
    docs["unknown_vertex"] = dict(quiver, truncation=1, curvature=[["v:g", 1]])
    return {name: _write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["cobar", "{alg}", "--coaugmentation", "zz"], "--coaugmentation"),
        (["bar-dual", "{alg}", "--splitting", "zz"], "--splitting"),
        (["adjunction-check", "{alg}", "{alg}", "--coaugmentation", "zz"], "--coaugmentation"),
        (["obstruction", "class", "{no_total}", "--x", "{{}}"], "'total'"),
        (["obstruction", "class", "{no_ideal}", "--x", "{{}}"], "'ideal'"),
        (["obstruction", "class", "{ideal_label}", "--x", "{{}}"], "'zz'"),
        (["obstruction", "class", "{not_an_ideal}", "--x", "{{}}"], "'ideal'"),
        (["obstruction", "class", "{not_an_object}", "--x", "{{}}"], "'total'"),
        (["tower", "{no_source}"], "'source'"),
        (["tower", "{no_target}"], "'target'"),
        (["tower", "{no_map}"], "'map'"),
        (["tower", "{map_label}"], "'zz'"),
        (["tower", "{not_an_object}"], "'source'"),
        (["validate", "{unknown_arrow}"], "'zz'"),
        (["validate", "{non_composable}"], "non-composable"),
        (["validate", "{vertex_label}"], "arrow label 'e' is also a vertex name"),
        (["validate", "{unknown_vertex}"], "'v'"),
    ],
)
def test_user_keys_and_labels_are_input_errors(tmp_path, capsys, argv, name):
    paths = _key_documents(tmp_path)
    code, rep = run_cli(capsys, [a.format(**paths) for a in argv])
    assert code == 2 and name in rep["error"]


def _nested_coalgebra_documents(tmp_path):
    """An extension and morphism documents over I_1 (F_2) in which the
    total, the source or the target is a coalgebra document."""
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    I1 = dump_algebra(make_interval(GF(2), 1).algebra)
    co = dict(I1, kind="coalgebra")
    identity = {l: {l: 1} for l, _ in I1["basis"]}
    docs = {
        "total": {"total": co, "ideal": ["s"]},
        "source": {"source": co, "target": I1, "map": identity},
        "target": {"source": I1, "target": co, "map": identity},
    }
    return {name: _write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}


@pytest.mark.parametrize(
    "argv, key",
    [
        (["obstruction", "class", "{total}", "--x", "{{}}"], "'total'"),
        (["obstruction", "lift", "{total}", "--x", "{{}}"], "'total'"),
        (["obstruction", "gauge-lift", "{total}", "--x", "{{}}", "--y", "{{}}"], "'total'"),
        (["tower", "{source}"], "'source'"),
        (["css-section", "{target}"], "'target'"),
    ],
)
def test_a_nested_coalgebra_is_an_input_error(tmp_path, capsys, argv, key):
    paths = _nested_coalgebra_documents(tmp_path)
    code, rep = run_cli(capsys, [a.format(**paths) for a in argv])
    assert code == 2 and key in rep["error"] and "coalgebra" in rep["error"]


@pytest.mark.parametrize("action", ["class", "lift", "gauge-lift"])
def test_an_invalid_total_is_an_input_error(tmp_path, capsys, action):
    # I_1 over F_2 with s.e_e = s added: s.1 = 2s = 0 breaks the unit law,
    # while s still spans a square-zero dg ideal
    from curvlab.documents import dump_algebra
    from curvlab.fields import GF
    from curvlab.interval import make_interval

    I1 = dump_algebra(make_interval(GF(2), 1).algebra)
    I1["mult"].append(["s", "e_e", "s", 1])
    f = _write(tmp_path, "ext.json", {"total": I1, "ideal": ["s"]})
    code, rep = run_cli(capsys, ["obstruction", action, f, "--x", "{}", "--y", "{}"])
    assert code == 2 and "'total'" in rep["error"] and "l.s*1 != l.s" in rep["error"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["adjunction-check", "{I1}", "{A}"], 3),
        (["fib-check", "{I1}", "{id}"], 3),
        (["rectify", "{k}", "{I1}", "{A}", "--x", "{{}}", "--g0", "{{}}", "--labels", '{{"1\'": "e_e\'"}}'], 3),
        (["lift", "{k}", "{I1}", "{id}", "--u", "{{}}", "--uprime", "{{}}", "--labels", '{{"1\'": "e_e\'"}}'], 3),
    ],
)
def test_budget_refusals_of_the_search_commands(tmp_path, capsys, argv, code):
    # every search, lift included, refuses through the one handler of main
    paths = {name: str(p) for name, p in _rectify_files(tmp_path).items()}
    got, rep = run_cli(capsys, ["--max-enum", "1"] + [a.format(**paths) for a in argv])
    assert got == code
    assert rep == {
        "refusal": "enumeration requires 4 states, budget is 1; "
        "raise the budget (CURVLAB_MAX_ENUM or --max-enum) to proceed",
        "budget": 1,
        "required": 4,
    }


def test_a_key_error_of_the_library_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    from curvlab import cli

    def fault(*args, **kwargs):
        raise KeyError("fault")

    monkeypatch.setattr(cli, "moduli_set", fault)
    f = tmp_path / "I1p2.json"
    run_cli(capsys, ["interval", "1", "--field", "2", "--export", str(f)])
    with pytest.raises(KeyError):
        main(["moduli", str(f)])

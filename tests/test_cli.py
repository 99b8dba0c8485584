"""CLI verbs: exit codes, determinism, schema round-trips."""

import json
import time

import pytest

import corpus
from grpd import cli
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd import leavitt as lv
from grpd.exactlin import Field

Q = Field(0)


@pytest.fixture
def files(tmp_path):
    """A directory with groupoid, algebra, action and graph files."""
    gfile = tmp_path / "z2.json"
    gfile.write_text(json.dumps(gpd.to_dict(gpd.cyclic_group(2))))

    afile = tmp_path / "qq.json"
    afile.write_text(json.dumps(corpus.componentwise(Q, 2).to_dict()))

    pa = corpus.swap_action()
    act = tmp_path / "swap.json"
    act.write_text(json.dumps(pact.action_to_dict(pa, "z2.json", "qq.json")))

    bad = tmp_path / "bad_action.json"
    bad.write_text(json.dumps(pact.action_to_dict(corpus.mutant_p3(), "pair2.json", "q4.json")))
    (tmp_path / "pair2.json").write_text(json.dumps(gpd.to_dict(gpd.pair_groupoid(2))))
    (tmp_path / "q4.json").write_text(json.dumps(corpus.componentwise(Q, 4).to_dict()))

    graph = tmp_path / "a3.json"
    graph.write_text(json.dumps(lv.graph_to_dict(corpus.corpus_graphs()["A3"])))
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(lv.graph_to_dict(corpus.cyclic_graphs()["loop"])))

    qz2 = tmp_path / "qz2.json"
    qz2.write_text(json.dumps(corpus.group_algebra(Q, 2).to_dict()))
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_groupoid_ok(files, capsys):
    code, out = run(capsys, "check-groupoid", str(files / "z2.json"))
    assert code == 0
    assert "no violations" in out


def test_check_action_ok_and_bad(files, capsys):
    code, _ = run(capsys, "check-action", str(files / "swap.json"))
    assert code == 0
    code, out = run(capsys, "check-action", str(files / "bad_action.json"))
    assert code == 1
    assert "P3" in out


def test_analyze_group_algebra(files, capsys):
    code, out = run(capsys, "--json", "analyze", str(files / "qz2.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 2 and rep["semisimple"] is True and rep["blocks"] == [1, 1]


def test_build_skew(files, capsys):
    code, out = run(capsys, "--json", "build-skew", str(files / "swap.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 4 and rep["blocks"] == [4] and rep["grading_ok"] is True


def test_groupoid_ring_verb(files, capsys):
    code, out = run(capsys, "--json", "groupoid-ring", str(files / "pair2.json"),
                    str(files / "qz2.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 8


def test_matrix_ring_verb(files, capsys):
    code, out = run(capsys, "--json", "matrix-ring", "-n", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 9 and rep["matrix_units_ok"] and rep["matrix_unit_checks"] == 81


def test_partial_group_algebra_verb(files, capsys):
    code, out = run(capsys, "--json", "partial-group-algebra", str(files / "z2.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 3 and rep["blocks"] == [1, 1, 1] and rep["semigroup_size"] == 3


def test_leavitt_verb(files, capsys):
    code, out = run(capsys, "--json", "leavitt", str(files / "a3.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 9 and rep["block_sizes"] == [3]
    assert rep["two_model_dims"] == [9, 9] and rep["phi_relations_ok"] is True


def test_leavitt_loop_reports_not_artinian(files, capsys):
    code, out = run(capsys, "leavitt", str(files / "loop.json"))
    assert code == 0
    assert "not artinian" in out


def test_globalize_verb(files, capsys):
    code, out = run(capsys, "--json", "globalize", str(files / "swap.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == [] and rep["finite_type"] is True


def test_maschke_verb(files, capsys):
    code, out = run(capsys, "--json", "maschke", str(files / "swap.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["implication_isotropy"] == "holds"
    assert rep["implication_trace"] == "holds"
    assert rep["skew_semisimple"] is True


def test_malformed_input_exit_2(files, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["analyze", str(broken)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing_fields.json"
    missing.write_text(json.dumps({"dim": 2}))
    assert cli.main(["analyze", str(missing)]) == 2
    capsys.readouterr()
    assert cli.main(["check-groupoid", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_deterministic_output(files, capsys):
    _, out1 = run(capsys, "--json", "leavitt", str(files / "a3.json"))
    _, out2 = run(capsys, "--json", "leavitt", str(files / "a3.json"))
    assert out1 == out2
    _, out3 = run(capsys, "--json", "maschke", str(files / "swap.json"))
    _, out4 = run(capsys, "--json", "maschke", str(files / "swap.json"))
    assert out3 == out4


def test_schema_roundtrips_are_fixpoints(files):
    for name, loader, emitter in [
        ("z2.json", gpd.from_dict, gpd.to_dict),
        ("a3.json", lv.graph_from_dict, lv.graph_to_dict),
    ]:
        d1 = json.loads((files / name).read_text())
        d2 = emitter(loader(d1))
        assert emitter(loader(d2)) == d2
    from grpd.algebra import StructureAlgebra

    d1 = json.loads((files / "qq.json").read_text())
    d2 = StructureAlgebra.from_dict(d1).to_dict()
    assert StructureAlgebra.from_dict(d2).to_dict() == d2
    # action schema
    d1 = json.loads((files / "swap.json").read_text())
    g0 = gpd.from_dict(json.loads((files / "z2.json").read_text()))
    amb = StructureAlgebra.from_dict(json.loads((files / "qq.json").read_text()))
    pa = pact.action_from_dict(d1, g0, amb)
    d2 = pact.action_to_dict(pa, d1["groupoid"], d1["algebra"])
    pa2 = pact.action_from_dict(d2, g0, amb)
    assert pact.action_to_dict(pa2, d1["groupoid"], d1["algebra"]) == d2


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(unit=["1", "1"]), id="unit-not-identity"),
    pytest.param(lambda d: d.update(unit=["1"]), id="unit-wrong-length"),
    pytest.param(lambda d: d["table"][0][2].__setitem__(0, "abc"), id="coefficient-abc"),
    pytest.param(lambda d: d["table"][0].__setitem__(0, "0"), id="index-as-string"),
    pytest.param(lambda d: d.update(table=5), id="table-as-number"),
    pytest.param(lambda d: d["table"][0].__setitem__(2, 5), id="coefficients-as-number"),
    pytest.param(lambda d: d.update(basis=3), id="basis-as-number"),
    pytest.param(lambda d: d.update(dim=-1, table=[]) or d.pop("basis"), id="negative-dim"),
    pytest.param(lambda d: d.update(dim="2"), id="dim-as-string"),
    pytest.param(lambda d: d.update(dim=2.9), id="dim-as-float"),
    pytest.param(lambda d: d["field"].update(char="0"), id="char-as-string"),
    pytest.param(lambda d: d["table"][2].__setitem__(0, True), id="index-as-bool"),
])
def test_malformed_algebra_json_exit_2(tmp_path, capsys, edit):
    d = corpus.dual_numbers(Q).to_dict()
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["components"]["*"][0].__setitem__(0, "1/0"), id="component-1/0"),
    pytest.param(lambda d: d["maps"]["g0"][0].__setitem__(0, "1/0"), id="map-1/0"),
    pytest.param(lambda d: d["domains"]["g0"].__setitem__(0, 5), id="domain-row-as-number"),
    pytest.param(lambda d: d["maps"].update(g0=[["1", "0", "0"], ["0", "1", "0"]]),
                 id="map-wrong-shape"),
    pytest.param(lambda d: d.update(components=[]), id="components-as-list"),
    pytest.param(lambda d: d.update(groupoid=5), id="groupoid-ref-as-number"),
])
def test_malformed_action_json_exit_2(files, capsys, edit):
    d = pact.action_to_dict(corpus.swap_action(), "z2.json", "qq.json")
    edit(d)
    path = files / "bad_coeff.json"
    path.write_text(json.dumps(d))
    assert cli.main(["check-action", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(objects=[{}]), id="object-as-dict"),
    pytest.param(lambda d: d["compose"].append([[], "e", "e"]), id="compose-id-as-list"),
    pytest.param(lambda d: d["morphisms"][0].update(dom=["0"]), id="morphism-dom-as-list"),
])
def test_malformed_groupoid_json_exit_2(tmp_path, capsys, edit):
    d = gpd.to_dict(gpd.cyclic_group(2))
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["check-groupoid", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def _rename_vertex(d, new):
    """Rename the first vertex of a graph description, edges included."""
    old = d["vertices"][0]
    d["vertices"][0] = new
    for e in d["edges"]:
        e.update({k: new for k in ("s", "r") if e[k] == old})


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["vertices"].__setitem__(0, []), id="vertex-as-list"),
    pytest.param(lambda d: _rename_vertex(d, True), id="vertex-as-bool"),
    pytest.param(lambda d: _rename_vertex(d, 0), id="vertex-as-number"),
    pytest.param(lambda d: d["edges"][0].update(id=5), id="edge-id-as-number"),
    pytest.param(lambda d: d["edges"][0].update(id=[]), id="edge-id-as-list"),
    pytest.param(lambda d: d["edges"][0].update(r=[]), id="edge-target-as-list"),
    pytest.param(lambda d: d["edges"][0].pop("s"), id="edge-without-source"),
])
def test_malformed_graph_json_exit_2(tmp_path, capsys, edit):
    d = lv.graph_to_dict(corpus.corpus_graphs()["A3"])
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["--json", "leavitt", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("verb, doc, want", [
    pytest.param("analyze", {"field": {"char": 0}, "dim": 0, "table": [], "unit": []},
                 {"blocks": [], "semisimple": True}, id="zero-algebra"),
    pytest.param("leavitt", {"vertices": [], "edges": []},
                 {"block_sizes": [], "blocks_match_sinks": True}, id="empty-graph"),
])
def test_zero_ring_has_no_blocks(tmp_path, capsys, verb, doc, want):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--json", verb, str(path))
    assert code == 0
    rep = json.loads(out)
    assert {k: rep[k] for k in want} == want


def _timed_run(capsys, tmp_path, verb, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out = run(capsys, "--json", verb, str(path))
    return code, json.loads(out), time.perf_counter() - started


def test_large_zero_product_algebra_is_quick(tmp_path, capsys):
    doc = {"field": {"char": 0}, "dim": 320, "table": []}
    code, rep, elapsed = _timed_run(capsys, tmp_path, "analyze", doc)
    assert code == 0 and elapsed < 5.0
    assert rep["unital"] is False and rep["associative"] is True and rep["center_dim"] == 320


@pytest.mark.parametrize("vertices, edges", [
    pytest.param([f"c{i}" for i in range(30)], [(i, (i + 1) % 30) for i in range(30)],
                 id="30-cycle"),
    pytest.param([f"k{i}" for i in range(12)], [(i, j) for i in range(12) for j in range(12)],
                 id="K12"),
])
def test_leavitt_census_of_cyclic_graphs_is_quick(tmp_path, capsys, vertices, edges):
    doc = {"vertices": vertices,
           "edges": [{"id": f"e{i}_{j}", "s": vertices[i], "r": vertices[j]} for i, j in edges]}
    code, rep, elapsed = _timed_run(capsys, tmp_path, "leavitt", doc)
    assert code == 0 and elapsed < 1.0
    assert rep["acyclic"] is False
    assert rep["hereditary_saturated"] == [[], vertices]


@pytest.mark.parametrize("argv", [
    pytest.param(["leavitt", "--char", "4", "a3.json"], id="leavitt-char-4"),
    pytest.param(["matrix-ring", "-n", "2", "--char", "6"], id="matrix-ring-char-6"),
    pytest.param(["partial-group-algebra", "--char", "1", "z2.json"], id="pga-char-1"),
    pytest.param(["matrix-ring", "-n", "0"], id="matrix-ring-n-0"),
])
def test_bad_numeric_option_exit_2(files, capsys, argv):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_parser_built_once_per_process(files, capsys, monkeypatch):
    cli._parser.cache_clear()
    calls = _count_calls(monkeypatch, cli, "build_parser")
    for _ in range(2):
        code, out = run(capsys, "check-groupoid", str(files / "z2.json"))
        assert code == 0 and "no violations" in out
    assert len(calls) == 1


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("graph, argv, models, oracles", [
    ("a3.json", ["leavitt"], 1, 1),
    ("a3.json", ["leavitt", "--dump"], 1, 0),
    ("loop.json", ["leavitt"], 0, 0),
    ("loop.json", ["leavitt", "--dump"], 0, 0),
])
def test_leavitt_builds_each_model_once(files, capsys, monkeypatch, graph, argv, models, oracles):
    model_calls = _count_calls(monkeypatch, lv.GrSkewModel, "__init__")
    oracle_calls = _count_calls(monkeypatch, lv.PathPairModel, "__init__")
    census_calls = _count_calls(monkeypatch, lv, "graph_analysis")
    path_calls = _count_calls(monkeypatch, lv, "all_paths")
    assert cli.main([*argv, str(files / graph)]) == 0
    capsys.readouterr()
    assert len(model_calls) == models
    assert len(oracle_calls) == oracles
    assert len(census_calls) == 1
    assert len(path_calls) == (1 if graph == "a3.json" else 0)


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "qz2.json"], id="analyze"),
    pytest.param(["leavitt", "a3.json"], id="leavitt"),
])
def test_radical_computed_once(files, capsys, monkeypatch, argv):
    from grpd.algebra import StructureAlgebra

    calls = _count_calls(monkeypatch, StructureAlgebra, "jacobson_radical")
    assert cli.main([argv[0], str(files / argv[1])]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_maschke_validates_the_action_once(files, capsys, monkeypatch):
    # the CLI checks the action before reporting and the skew-ring builder
    # checks it again; the axioms are evaluated only the first time
    calls = _count_calls(monkeypatch, pact, "_axiom_violations")
    code, out = run(capsys, "--json", "maschke", str(files / "swap.json"))
    assert code == 0
    assert json.loads(out)["skew_semisimple"] is True
    assert len(calls) == 1


def test_build_skew_dump_skips_analysis(files, capsys, monkeypatch):
    from grpd import skewring as sk

    def refuse(alg):
        raise AssertionError("--dump must not analyze the algebra")

    monkeypatch.setattr(sk, "analyze_algebra", refuse)
    assert cli.main(["build-skew", "--dump", str(files / "swap.json")]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4


def _refuse(*args, **kwargs):
    raise AssertionError("must not be called")


def test_analyze_skips_alternativity_of_associative_algebra(files, capsys, monkeypatch):
    from grpd.algebra import StructureAlgebra

    monkeypatch.setattr(StructureAlgebra, "is_alternative", _refuse)
    code, out = run(capsys, "--json", "analyze", str(files / "qz2.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["associative"] and rep["alternative"]


def test_analyze_splits_blocks_inside_one_center(files, capsys, monkeypatch):
    from grpd.algebra import StructureAlgebra
    from grpd.exactlin import Matrix

    (files / "qz6.json").write_text(json.dumps(corpus.group_algebra(Q, 6).to_dict()))
    algebras = _count_calls(monkeypatch, StructureAlgebra, "__init__")
    centers = _count_calls(monkeypatch, StructureAlgebra, "_solve_center")
    monkeypatch.setattr(StructureAlgebra, "subalgebra", _refuse)
    monkeypatch.setattr(Matrix, "mul", _refuse)
    code, out = run(capsys, "--json", "analyze", str(files / "qz6.json"))
    assert code == 0
    assert json.loads(out)["blocks"] == [1, 1, 2, 2]
    # the loaded algebra is the only one: no block is rebuilt as an algebra
    assert len(algebras) == 1
    assert len(centers) == 1

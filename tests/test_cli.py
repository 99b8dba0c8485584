"""CLI verbs: exit codes, determinism, schema round-trips."""

import json
import time

import pytest

import corpus
from grpd import cli
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd import leavitt as lv
from grpd.algebra import MAX_DIM
from grpd.exactlin import Field
from grpd.skewring import build_partial_group_algebra, build_skew_groupoid_ring

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


def test_groupoid_ring_of_the_empty_groupoid_is_the_zero_ring(files, capsys):
    # the field comes from the coefficient algebra, as there is no component to read it off
    empty = files / "empty.json"
    empty.write_text(json.dumps({"objects": [], "morphisms": []}))
    assert run(capsys, "check-groupoid", str(empty))[0] == 0
    code, out = run(capsys, "--json", "groupoid-ring", str(empty), str(files / "qz2.json"))
    assert code == 0
    rep = json.loads(out)
    assert (rep["dim"], rep["blocks"], rep["unital"], rep["grading_ok"]) == (0, [], True, True)


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


@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 200_000, id="nested-200000-deep"),
    pytest.param(b"\xff{}", id="first-byte-0xff"),
    pytest.param(b'{"field": {"char": 0}, "dim": ' + b"9" * 5000 + b', "table": []}',
                 id="dim-of-5000-digits"),
])
@pytest.mark.parametrize("via_action", [False, True], ids=["algebra", "action-algebra"])
def test_undecodable_json_exit_2(files, capsys, content, via_action):
    # the decoder raises RecursionError, UnicodeDecodeError and the integer
    # digit limit's ValueError on these, not JSONDecodeError
    path = files / "undecodable.json"
    path.write_bytes(content)
    if via_action:
        path = files / "action_of_undecodable.json"
        d = pact.action_to_dict(corpus.swap_action(), "z2.json", "undecodable.json")
        path.write_text(json.dumps(d))
    assert cli.main(["check-action" if via_action else "analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "undecodable.json is not valid JSON: " in err


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
    pytest.param(lambda d: d["table"][0][2].__setitem__(0, True), id="coefficient-as-bool"),
    pytest.param(lambda d: d["table"][0][2].__setitem__(0, False), id="coefficient-false"),
    pytest.param(lambda d: d["table"][0][2].__setitem__(0, 0.0), id="coefficient-float-zero"),
    pytest.param(lambda d: d["table"].append(list(d["table"][-1])), id="repeated-table-cell"),
])
def test_malformed_algebra_json_exit_2(tmp_path, capsys, edit):
    d = corpus.dual_numbers(Q).to_dict()
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["1e10000000", "1e-5000", "-2.5E+1_000_000", "1e\u0665\u0660\u0660\u0660"])
def test_coefficient_exponent_past_the_digit_limit_exit_2(tmp_path, capsys, coeff):
    # Fraction would build 10^10000000 in full before anything could refuse it
    d = corpus.dual_numbers(Q).to_dict()
    d["table"][0][2][0] = coeff
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    start = time.perf_counter()
    assert cli.main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "bad coefficient" in capsys.readouterr().err


def test_dim_over_limit_exit_2_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": {"char": 0}, "dim": MAX_DIM + 1, "table": []}))
    assert cli.main(["analyze", str(path)]) == 2
    assert f"between 0 and {MAX_DIM}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [12, 13])  # n isolated vertices have 2^n sets; the cap is 2^12
def test_hereditary_saturated_sets_capped_exit_1(tmp_path, capsys, n):
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(lv.graph_to_dict(corpus.isolated_vertices(n))))
    code = cli.main(["--json", "leavitt", str(path)])
    out, err = capsys.readouterr()
    if n == 12:
        assert code == 0 and len(json.loads(out)["hereditary_saturated"]) == lv.HS_CAP
    else:
        assert code == 1 and out == ""
        assert f"more than {lv.HS_CAP} hereditary saturated" in err


def diamond_chain(k):
    """k + 1 vertices, two parallel edges per step: 2^(k+1) - 1 paths into the sink."""
    vs = [f"v{i}" for i in range(k + 1)]
    return lv.DirectedGraph(vs, [(f"e{i}{s}", vs[i], vs[i + 1]) for i in range(k) for s in "ab"])


@pytest.mark.parametrize("k", [5, 40])
def test_leavitt_over_the_dimension_limit_exit_1_before_listing_paths(tmp_path, capsys,
                                                                      monkeypatch, k):
    path = tmp_path / "diamonds.json"
    path.write_text(json.dumps(lv.graph_to_dict(diamond_chain(k))))
    path_calls = _count_calls(monkeypatch, lv, "all_paths")
    start = time.perf_counter()
    code = cli.main(["--json", "leavitt", str(path)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and not path_calls
    assert f"dimension {(2 ** (k + 1) - 1) ** 2}, above the limit {MAX_DIM}" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["-n", "33"], id="n-33"),
    pytest.param(["-n", "23", "--algebra", "qq.json"], id="n-23-dim-2"),
    pytest.param(["-n", "10000000"], id="n-1e7"),
])
def test_matrix_ring_over_the_dimension_limit_exit_2_before_building(files, capsys,
                                                                     monkeypatch, argv):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    groupoid_calls = _count_calls(monkeypatch, gpd, "pair_groupoid")
    assert cli.main(["matrix-ring", *argv]) == 2
    assert f"above the limit {MAX_DIM}" in capsys.readouterr().err
    assert not groupoid_calls


def test_partial_group_algebra_over_the_dimension_limit_exit_1(tmp_path, capsys):
    # Exel's semigroup of Z_20 has 2^18 * 21 elements; 2^20 subsets are never scanned
    path = tmp_path / "z20.json"
    path.write_text(json.dumps(gpd.to_dict(gpd.cyclic_group(20))))
    start = time.perf_counter()
    assert cli.main(["partial-group-algebra", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert f"{2 ** 18 * 21} elements, above the limit {MAX_DIM}" in capsys.readouterr().err


def test_groupoid_ring_over_the_dimension_limit_exit_1_before_building(tmp_path, capsys,
                                                                       monkeypatch):
    # 3000 objects with only their identities, over the scalars: the ring has dimension
    # 3000, and no algebra past the coefficient algebra is built before it is refused
    from grpd.algebra import StructureAlgebra

    (tmp_path / "discrete.json").write_text(
        json.dumps({"objects": [f"o{i}" for i in range(3000)], "morphisms": []}))
    (tmp_path / "q.json").write_text(json.dumps(corpus.scalar_algebra(Q).to_dict()))
    load = cli._load_algebra

    def load_then_refuse(path):
        alg = load(path)
        monkeypatch.setattr(StructureAlgebra, "__init__", _refuse)
        return alg

    monkeypatch.setattr(cli, "_load_algebra", load_then_refuse)
    code = cli.main(["groupoid-ring", str(tmp_path / "discrete.json"), str(tmp_path / "q.json")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert f"the skew ring has dimension 3000, above the limit {MAX_DIM}" in err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["components"]["*"][0].__setitem__(0, "1/0"), id="component-1/0"),
    pytest.param(lambda d: d["maps"]["g0"][0].__setitem__(0, "1/0"), id="map-1/0"),
    pytest.param(lambda d: d["maps"]["g0"][0].__setitem__(0, False), id="map-entry-as-bool"),
    pytest.param(lambda d: d["domains"]["g0"].__setitem__(0, 5), id="domain-row-as-number"),
    pytest.param(lambda d: d["maps"].update(g0=[["1", "0", "0"], ["0", "1", "0"]]),
                 id="map-wrong-shape"),
    pytest.param(lambda d: d.update(components=[]), id="components-as-list"),
    pytest.param(lambda d: d.update(groupoid=5), id="groupoid-ref-as-number"),
    pytest.param(lambda d: d["components"].update(nobody=[["1", "0"]]), id="unknown-object"),
    pytest.param(lambda d: d["domains"].update(h9=[["1", "0"]]), id="unknown-domain-morphism"),
    pytest.param(lambda d: d["maps"].update(h9=[["1"]]), id="unknown-map-morphism"),
])
def test_malformed_action_json_exit_2(files, capsys, edit):
    d = pact.action_to_dict(corpus.swap_action(), "z2.json", "qq.json")
    edit(d)
    path = files / "bad_coeff.json"
    path.write_text(json.dumps(d))
    assert cli.main(["check-action", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("verb, name, old, new, key", [
    ("check-action", "swap.json", '"maps": {"g0":',
     '"maps": {"g1": [["1", "0"], ["0", "1"]], "g0":', "g1"),
    ("check-action", "swap.json", '"components": {"*":',
     '"components": {"*": [["1", "0"], ["0", "0"]], "*":', "*"),
    ("analyze", "qq.json", '{"field":', '{"dim": 3, "field":', "dim"),
], ids=["action-map", "action-component", "algebra-top-level"])
def test_repeated_json_key_exit_2(files, capsys, verb, name, old, new, key):
    # json.load keeps the last of two equal keys; the first must not vanish silently
    doc = (files / name).read_text()
    assert old in doc
    (files / name).write_text(doc.replace(old, new, 1))
    assert cli.main([verb, str(files / name)]) == 2
    assert f"repeated key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(objects=[{}]), id="object-as-dict"),
    pytest.param(lambda d: d["compose"].append([[], "e", "e"]), id="compose-id-as-list"),
    pytest.param(lambda d: d["morphisms"][0].update(dom=["0"]), id="morphism-dom-as-list"),
    pytest.param(lambda d: d["objects"].append("*"), id="repeated-object"),
    pytest.param(lambda d: d["morphisms"].append(dict(d["morphisms"][0])), id="repeated-morphism"),
    pytest.param(lambda d: d["compose"].append(d["compose"][0][:2] + [d["compose"][1][2]]),
                 id="repeated-compose-pair"),
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


@pytest.mark.parametrize("char", [0, 5])
def test_zero_algebra_reads_alike_with_and_without_its_unit(tmp_path, capsys, char):
    # the zero ring is unital with 1 = 0, so supplying "unit": [] changes nothing
    reports = []
    for extra in ({}, {"unit": []}):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"field": {"char": char}, "dim": 0, "table": [], **extra}))
        code, out = run(capsys, "--json", "analyze", str(path))
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    want = {"unital": True, "radical_dim": 0, "semisimple": True, "blocks": []}
    assert {k: reports[0][k] for k in want} == want


@pytest.mark.parametrize("argv", [
    ["groupoid-ring", "z2.json", "zero.json"],
    ["matrix-ring", "-n", "2", "--algebra", "zero.json"],
], ids=["groupoid-ring", "matrix-ring"])
def test_rings_over_the_zero_algebra(files, capsys, argv):
    (files / "zero.json").write_text(json.dumps({"field": {"char": 0}, "dim": 0, "table": []}))
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 0 and rep["unital"] is True and rep["blocks"] == []


def test_maschke_over_the_zero_ring_over_f2(files, capsys):
    # in the zero ring |G_e| 1 = 0 = 1 is invertible even where p divides |G_e|,
    # so the isotropy route holds, as the trace route does
    (files / "zero.json").write_text(json.dumps({"field": {"char": 2}, "dim": 0, "table": []}))
    (files / "zero_action.json").write_text(json.dumps({
        "groupoid": "z2.json", "algebra": "zero.json", "components": {"*": []},
        "domains": {"g0": [], "g1": []}, "maps": {"g0": [], "g1": []}}))
    code, out = run(capsys, "--json", "maschke", str(files / "zero_action.json"))
    assert code == 0
    assert json.loads(out) == {
        "r_semisimple": True, "isotropy_orders": {"*": 2}, "isotropy_invertible": {"*": True},
        "trace_invertible": True, "skew_dim": 0, "skew_semisimple": True,
        "premises_isotropy": True, "premises_trace": True,
        "implication_isotropy": "holds", "implication_trace": "holds",
        "park_criterion": {"support_size": 0, "morphism_count": 2, "component_dims": {"*": 0}},
        "trace_unit": []}


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
    ("a3.json", ["leavitt"], 1, 0),  # the oracle's dimension comes from the census
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


def test_partial_group_algebra_solves_no_unit(files, capsys, monkeypatch):
    # the unit of K_par(G) is Exel's identity ({e}, e), basis vector 0
    from grpd.algebra import StructureAlgebra

    calls = _count_calls(monkeypatch, StructureAlgebra, "_solve_unit")
    assert cli.main(["partial-group-algebra", str(files / "z2.json")]) == 0
    capsys.readouterr()
    assert not calls


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


def test_matrix_ring_reports_the_broken_matrix_unit_law(capsys, monkeypatch):
    from grpd import skewring as sk

    build = sk.build_groupoid_ring

    def doubled_e11(g, coeff):
        """The pair-groupoid ring with E_11 E_11 = 2 E_11."""
        alg = build(g, coeff)
        alg._cells[0][0] = {k: 2 * c for k, c in alg._cells[0][0].items()}
        return alg

    monkeypatch.setattr(sk, "build_groupoid_ring", doubled_e11)
    code, out = run(capsys, "--json", "matrix-ring", "-n", "2")
    assert code == 1
    rep = json.loads(out)
    assert rep["matrix_units_ok"] is False and rep["matrix_unit_checks"] == 1
    assert rep["matrix_units_counterexample"] == "E(1,1)[0] * E(1,1)[0] broke the matrix-unit law"


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


@pytest.mark.parametrize("algebra, built", [
    pytest.param(lambda: corpus.group_algebra(Q, 6), 1, id="qz6"),
    pytest.param(lambda: corpus.matrix_algebra(Q, 3), 1, id="m3"),
    pytest.param(lambda: build_partial_group_algebra(gpd.cyclic_group(4), Q), 1,
                 id="partial-group-algebra-z4"),
    pytest.param(lambda: build_skew_groupoid_ring(corpus.shift_restriction_action()), 1,
                 id="build-skew-shift-restriction"),
    pytest.param(lambda: corpus.exel_partial_group_algebra(gpd.cyclic_group(3), Q), 2,
                 id="kpar-z3-exel"),
])
def test_analyze_builds_the_groupoid_basis_only_for_an_inverse_semigroup(
        algebra, built, tmp_path, capsys, monkeypatch):
    from grpd.algebra import StructureAlgebra

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra().to_dict()))
    algebras = _count_calls(monkeypatch, StructureAlgebra, "__init__")
    code, _ = run(capsys, "--json", "analyze", str(path))
    assert code == 0
    # the loaded algebra, and for Exel's semigroup table its groupoid basis too: every
    # other table has no two comparable idempotents and leaves at the pre-check
    assert len(algebras) == built


def _z2_es():
    """Z_2 with morphisms named e (the identity) and s."""
    return {"objects": ["*"],
            "morphisms": [{"id": "e", "dom": "*", "cod": "*", "inv": "e"},
                          {"id": "s", "dom": "*", "cod": "*", "inv": "s"}],
            "compose": [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"], ["s", "s", "e"]]}


I2 = [["1", "0"], ["0", "1"]]
I3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
E11_E12_E21 = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]  # in M_2


@pytest.mark.parametrize("groupoid, algebra, action, code, message", [
    pytest.param(gpd.to_dict(gpd.pair_groupoid(2)), corpus.componentwise(Q, 2),
                 {"components": {"1": I2, "2": [["1", "0"]]},
                  "domains": {"(1,1)": I2, "(2,2)": [["1", "0"]]},
                  "maps": {"(1,1)": I2, "(2,2)": [["1"]]}},
                 1, "[P4] at (): components overlap: dimensions add beyond ambient",
                 id="components-overlap"),
    pytest.param(gpd.to_dict(gpd.cyclic_group(1)), corpus.matrix_algebra(Q, 2),
                 {"components": {"*": E11_E12_E21}, "domains": {"g0": E11_E12_E21},
                  "maps": {"g0": I3}},
                 1, "[ideal] at (*): component is not an ideal of the ambient algebra",
                 id="component-not-an-ideal"),
    pytest.param(_z2_es(), corpus.componentwise(Q, 2),
                 {"components": {"*": I2}, "domains": {"e": I2, "s": I2}, "maps": {"e": I2}},
                 2, "input error: missing map for s", id="missing-map"),
    pytest.param(_z2_es(), corpus.componentwise(Q, 2),
                 {"components": {"*": I2}, "domains": {"e": I2, "s": I2},
                  "maps": {"e": I2, "s": [["0", "1"]]}},
                 2, "input error: bad action description: map at 's' has shape (1, 2), "
                    "expected (2, 2)", id="map-a-row-short"),
])
def test_check_action_reports_each_broken_part(tmp_path, capsys, groupoid, algebra, action,
                                               code, message):
    (tmp_path / "g.json").write_text(json.dumps(groupoid))
    (tmp_path / "a.json").write_text(json.dumps(algebra.to_dict()))
    path = tmp_path / "act.json"
    path.write_text(json.dumps({"groupoid": "g.json", "algebra": "a.json", **action}))
    assert cli.main(["check-action", str(path)]) == code
    out, err = capsys.readouterr()
    assert message in (out if code == 1 else err)


@pytest.mark.parametrize("argv, code, want", [
    pytest.param(["--algebra", "qq.json", "--char", "7"], 2,
                 "--char 7 differs from the characteristic 0 of ", id="char-7-over-q"),
    pytest.param(["--algebra", "f5.json"], 0, None, id="algebra-alone"),
    pytest.param(["--algebra", "f5.json", "--char", "5"], 0, None, id="char-matches"),
    pytest.param(["--algebra", "f5.json", "--char", "0"], 2,
                 "--char 0 differs from the characteristic 5 of ", id="char-0-over-f5"),
    pytest.param(["--char", "7"], 0, None, id="char-alone"),
])
def test_matrix_ring_char_must_match_the_algebra(files, capsys, argv, code, want):
    (files / "f5.json").write_text(json.dumps(corpus.componentwise(Field(5), 2).to_dict()))
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(["--json", "matrix-ring", "-n", "2", *argv]) == code
    out, err = capsys.readouterr()
    if want:
        assert err.startswith("input error: " + want) and argv[1] in err and not out
    else:
        assert json.loads(out)["dim"] == 4 * (2 if "--algebra" in argv else 1)

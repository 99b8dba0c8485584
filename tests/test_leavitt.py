"""Leavitt path algebras: graphs, X space, theta maps, the two models."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from grpd.errors import PreconditionError, UnsupportedError
from grpd.algebra import MAX_DIM
from grpd.exactlin import Field, Subspace
from grpd import leavitt as lv
from grpd.skewring import skew_product_ring

Q = Field(0)


def test_graph_analysis_single_vertex():
    g = corpus.corpus_graphs()["single"]
    rep = lv.graph_analysis(g)
    assert rep.sinks == ["v"]
    assert rep.acyclic
    assert len(rep.paths) == 1


def test_graph_analysis_a3():
    g = corpus.corpus_graphs()["A3"]
    rep = lv.graph_analysis(g)
    assert rep.sinks == ["v3"]
    assert rep.acyclic
    # three trivial paths, two edges, one length-two path
    assert len(rep.paths) == 6


def test_graph_analysis_cycles():
    loop = corpus.cyclic_graphs()["loop"]
    rep = lv.graph_analysis(loop)
    assert not rep.acyclic and rep.paths is None
    two = corpus.cyclic_graphs()["two_cycle"]
    assert not lv.graph_analysis(two).acyclic
    # parallel edges alone create no cycle
    par = corpus.corpus_graphs()["parallel"]
    assert lv.graph_analysis(par).acyclic


@pytest.mark.parametrize("vertices, edges, message", [
    (["v", "w", "v"], [], "duplicate vertex ids"),
    (["v", "w"], [("e", "v", "w"), ("e", "w", "v")], "duplicate edge ids"),
    (["v"], [("e", "v", "w")], "edge e has unknown endpoints"),
], ids=["vertex", "edge", "endpoint"])
def test_directed_graph_refusals(vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        lv.DirectedGraph(vertices, edges)


def test_hereditary_saturated_examples():
    single = corpus.corpus_graphs()["single"]
    assert lv.hereditary_saturated_subsets(single) == [(), ("v",)]
    a2 = corpus.corpus_graphs()["A2"]
    # {w} is hereditary but not saturated: v's only range lies inside
    assert lv.hereditary_saturated_subsets(a2) == [(), ("v", "w")]
    par = corpus.corpus_graphs()["parallel"]
    assert lv.hereditary_saturated_subsets(par) == [(), ("v", "w")]
    tree = corpus.corpus_graphs()["tree"]
    hs = lv.hereditary_saturated_subsets(tree)
    assert ("l1",) in hs  # single leaves are hereditary and saturated here
    assert len(hs) > 2


def _brute_force_hs(vertices, edges):
    """Every vertex mask that is hereditary and saturated, tested directly."""
    out = []
    for mask in range(1 << len(vertices)):
        h = {v for i, v in enumerate(vertices) if mask >> i & 1}
        outs = {v: [r for s, r in edges if s == v] for v in vertices}
        hereditary = all(r in h for s, r in edges if s in h)
        saturated = all(v in h for v in vertices if outs[v] and set(outs[v]) <= h)
        if hereditary and saturated:
            out.append(tuple(v for v in vertices if v in h))
    return sorted(out, key=lambda t: (len(t), t))


def _dfs_acyclic(vertices, edges):
    """No back edge in a three-colour depth-first search."""
    colour = dict.fromkeys(vertices, 0)

    def visit(v):
        colour[v] = 1
        for s, r in edges:
            if s == v and (colour[r] == 1 or colour[r] == 0 and not visit(r)):
                return False
        colour[v] = 2
        return True

    return all(colour[v] or visit(v) for v in vertices)


@st.composite
def small_graphs(draw):
    """At most 8 vertices; loops, parallel edges and isolated vertices all occur."""
    n = draw(st.integers(0, 8))
    vertices = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=14)) if n else []
    return vertices, [(vertices[a], vertices[b]) for a, b in pairs]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_graphs())
def test_closure_census_matches_brute_force(g):
    vertices, edges = g
    graph = lv.DirectedGraph(vertices, [(f"e{k}", s, r) for k, (s, r) in enumerate(edges)])
    hs = _brute_force_hs(vertices, edges)
    assert lv.hereditary_saturated_subsets(graph) == hs
    if not _dfs_acyclic(vertices, edges):
        assert not lv.graph_analysis(graph).acyclic
        return
    # the counting of sink paths against the listed census; past MAX_DIM the
    # census itself is refused
    listed = Counter(lv.path_range(graph, p) for p in lv.all_paths(graph))
    counts = lv.sink_path_counts(graph)
    assert list(counts.items()) == [(v, listed[v]) for v in graph.sinks()]
    if sum(c * c for c in counts.values()) > MAX_DIM:
        with pytest.raises(UnsupportedError, match="above the limit"):
            lv.graph_analysis(graph)
    else:
        rep = lv.graph_analysis(graph)
        assert rep.acyclic and rep.sink_path_counts == counts


def test_x_space_single_vertex():
    g = corpus.corpus_graphs()["single"]
    xs = lv.XSpace(lv.graph_analysis(g))
    assert [p.source for p in xs.points] == ["v"]
    assert xs.words == [lv.IDENTITY]
    assert xs.x_set(lv.IDENTITY) == [0]


def test_x_space_a2():
    g = corpus.corpus_graphs()["A2"]
    xs = lv.XSpace(lv.graph_analysis(g))
    labels = [lv.path_label(p) for p in xs.points]
    assert labels == ["@w", "f"]
    word_labels = [lv.word_label(w) for w in xs.words]
    assert word_labels == ["1", "(f)^-1", "f"]
    wf = next(w for w in xs.words if lv.word_label(w) == "f")
    assert [xs.points[i] for i in xs.x_set(wf)] == [lv.Path("v", ("f",))]
    winv = lv.word_inverse(wf)
    assert [xs.points[i] for i in xs.x_set(winv)] == [lv.trivial_path("w")]


def test_x_space_a3():
    g = corpus.corpus_graphs()["A3"]
    xs = lv.XSpace(lv.graph_analysis(g))
    assert [lv.path_label(p) for p in xs.points] == ["@v3", "e2", "e1.e2"]
    labels = {lv.word_label(w) for w in xs.words}
    assert {"e1", "e1.e2", "(e2)^-1", "(e1.e2)^-1"} <= labels
    # every incoming edge is unique here, so no mixed reduced word survives:
    # e2 (e1.e2)^-1 cancels down to (e1)^-1
    mixed = lv.make_word(g, lv.Path("v2", ("e2",)), lv.Path("v1", ("e1", "e2")))
    assert lv.word_label(mixed) == "(e1)^-1"
    we1 = next(w for w in xs.words if lv.word_label(w) == "e1")
    assert [lv.path_label(xs.points[i]) for i in xs.x_set(we1)] == ["e1.e2"]
    # the unreduced spelling (e1 e2)(e2)^-1 normalizes to e1 with the same subset
    unreduced = lv.make_word(g, lv.Path("v1", ("e1", "e2")), lv.Path("v2", ("e2",)))
    assert unreduced == we1
    assert xs.x_set(unreduced) == xs.x_set(we1)


def test_generating_sets_span_k_x():
    # each point of X is some X_w or X_v, so D(X) is all of K^X
    for name, g in corpus.corpus_graphs().items():
        rep = lv.graph_analysis(g)
        assert rep.acyclic, name
        xs = lv.XSpace(rep)
        gens = [corpus.indicator(xs, Q, xs.x_set(w)) for w in xs.words]
        gens += [corpus.indicator(xs, Q, xs.x_vertex(v)) for v in g.vertices]
        npts = len(xs.points)
        assert Subspace.from_vectors(Q, npts, gens) == Subspace.full(Q, npts), name


def test_x_space_rejects_cycles():
    with pytest.raises(UnsupportedError):
        lv.XSpace(lv.graph_analysis(corpus.cyclic_graphs()["loop"]))
    with pytest.raises(UnsupportedError):
        lv.build_gr_skew_ring(corpus.cyclic_graphs()["loop"], Q)
    with pytest.raises(UnsupportedError):
        lv.lpa_path_pair_oracle(corpus.cyclic_graphs()["two_cycle"], Q)


@pytest.mark.parametrize("name", sorted(corpus.cyclic_graphs()))
def test_all_paths_refuses_cycles(name):
    # the frontier never empties on a cycle; it is refused at |V| edges
    with pytest.raises(PreconditionError, match="acyclic"):
        lv.all_paths(corpus.cyclic_graphs()[name])


def test_all_paths_lists_the_longest_acyclic_paths():
    # A_n has a path of n - 1 edges, the most an acyclic graph on n vertices has
    for n in range(1, 6):
        paths = lv.all_paths(corpus.line_graph(n))
        assert len(paths) == n * (n + 1) // 2 and len(paths[-1].edges) == n - 1


def test_theta_a2():
    g = corpus.corpus_graphs()["A2"]
    xs = lv.XSpace(lv.graph_analysis(g))
    wf = next(w for w in xs.words if lv.word_label(w) == "f")
    theta_f = lv.theta_map(xs, wf)
    assert theta_f[lv.trivial_path("w")] == lv.Path("v", ("f",))
    theta_finv = lv.theta_map(xs, lv.word_inverse(wf))
    assert theta_finv[lv.Path("v", ("f",))] == lv.trivial_path("w")


def test_theta_a3_tail_clause():
    g = corpus.corpus_graphs()["A3"]
    xs = lv.XSpace(lv.graph_analysis(g))
    we1 = next(w for w in xs.words if lv.word_label(w) == "e1")
    theta_inv = lv.theta_map(xs, lv.word_inverse(we1))
    assert theta_inv[lv.Path("v1", ("e1", "e2"))] == lv.Path("v2", ("e2",))


def test_theta_inverse_composition():
    for name, g in corpus.corpus_graphs().items():
        xs = lv.XSpace(lv.graph_analysis(g))
        for w in xs.words:
            fwd = lv.theta_map(xs, w)
            back = lv.theta_map(xs, lv.word_inverse(w))
            for src, dst in back.items():
                assert fwd[dst] == src, name


def test_alpha_indicator_identity():
    # alpha_g(1_{g^-1} 1_h) = 1_g 1_{gh} pointwise, for all support pairs
    for name in ("A2", "A3", "parallel"):
        g = corpus.corpus_graphs()[name]
        model = lv.GrSkewModel(lv.graph_analysis(g), Q)
        xs = model.xs
        for w in xs.words:
            one_winv = corpus.indicator(xs, Q, xs.x_set(lv.word_inverse(w)))
            for h in xs.words:
                one_h = corpus.indicator(xs, Q, xs.x_set(h))
                lhs = model.alpha_apply(w, [a * b for a, b in zip(one_winv, one_h)])
                wh = lv.word_mul(g, w, h)
                one_w = corpus.indicator(xs, Q, xs.x_set(w))
                one_wh = (
                    corpus.indicator(xs, Q, xs.x_set(wh))
                    if wh is not None and wh in set(xs.words)
                    else Q.zero_vec(len(xs.points))
                )
                rhs = [a * b for a, b in zip(one_w, one_wh)]
                assert lhs == rhs, (name, lv.word_label(w), lv.word_label(h))


def test_word_group_laws():
    for name in ("A3", "tree"):
        g = corpus.corpus_graphs()[name]
        xs = lv.XSpace(lv.graph_analysis(g))
        for w in xs.words:
            assert lv.word_mul(g, w, lv.word_inverse(w)) in (lv.IDENTITY,)
            assert lv.word_mul(g, lv.IDENTITY, w) == w
            assert lv.word_mul(g, w, lv.IDENTITY) == w


def test_word_mixed_products_leave_support():
    g = corpus.corpus_graphs()["parallel"]
    xs = lv.XSpace(lv.graph_analysis(g))
    wf1 = next(w for w in xs.words if lv.word_label(w) == "f1")
    wf2 = next(w for w in xs.words if lv.word_label(w) == "f2")
    # f1^-1 is (trivial, f1); f1 * f2 would need r(f1) = s(f2): it is not a path
    assert lv.word_mul(g, wf1, wf2) is None
    # f1 f2^-1 is in the support
    assert lv.word_mul(g, wf1, lv.word_inverse(wf2)) is not None


def test_two_models_agree_on_corpus():
    expected_dims = {
        "single": 1,
        "A2": 4,
        "A3": 9,
        "parallel": 9,
        "tree": 36,
        "disjoint": 5,
    }
    for name, g in corpus.corpus_graphs().items():
        rep = lv.phi_isomorphism_check(lv.GrSkewModel(lv.graph_analysis(g), Q))
        dims = rep["two_model_dims"]
        assert dims[0] == dims[1] == lv.lpa_path_pair_oracle(g, Q).dim, name
        assert rep["phi_relations_ok"], (name, rep.get("phi_first_failure"))
        assert dims[0] == expected_dims[name], name


def test_block_sizes_match_sink_path_counts():
    for name, g in corpus.corpus_graphs().items():
        rep = lv.lpa_characterization(*corpus.leavitt_model(g, Q))
        assert rep["unital"] is True, name
        assert rep["semisimple"] is True, name
        assert rep["blocks_match_sinks"] is True, name
        counts = sorted(rep["sink_path_counts"].values())
        assert rep["block_sizes"] == counts, name
        assert rep["dim"] == sum(c * c for c in counts), name


def test_semiprimitive_on_corpus():
    for name, g in corpus.corpus_graphs().items():
        alg = lv.build_gr_skew_ring(g, Q)
        assert alg.jacobson_radical().dim == 0, name


def test_trivial_hs_lattice_forces_one_block():
    for name, g in corpus.corpus_graphs().items():
        rep = lv.lpa_characterization(*corpus.leavitt_model(g, Q))
        if rep["trivial_hs_lattice"]:
            assert rep["one_block"] is True, name


def test_cyclic_graph_report():
    rep = lv.lpa_characterization(*corpus.leavitt_model(corpus.cyclic_graphs()["loop"], Q))
    assert not rep["acyclic"]
    assert rep["dim"] is None
    assert "not artinian" in rep["artinian"]


def test_leavitt_over_prime_field():
    g = corpus.corpus_graphs()["A2"]
    F7 = Field(7)
    census, model = corpus.leavitt_model(g, F7)
    rep = lv.phi_isomorphism_check(model)
    assert rep["two_model_dims"] == (4, 4) and rep["phi_relations_ok"]
    ch = lv.lpa_characterization(census, model)
    assert ch["semisimple"] is True and ch["block_sizes"] == [2]


def test_oracle_unit_and_matrix_law():
    g = corpus.corpus_graphs()["A3"]
    alg = lv.lpa_path_pair_oracle(g, Q)
    assert alg.dim == 9
    assert alg.unit is not None
    assert alg.is_associative()
    assert alg.jacobson_radical().dim == 0


@st.composite
def acyclic_graphs(draw):
    """Up to 6 vertices in a drawn order, edges running forward in it, parallel
    edges and several sinks included; the path algebra has dimension <= 150."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda t: t[0] < t[1]), max_size=7)) if n > 1 else []
    graph = lv.DirectedGraph(names, [(f"e{k}", names[a], names[b]) for k, (a, b) in enumerate(pairs)])
    assume(sum(c * c for c in lv.sink_path_counts(graph).values()) <= 150)
    return graph


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(acyclic_graphs(), st.sampled_from([0, 2, 7, 10007]))
def test_meeting_pairs_build_the_all_pairs_skew_ring(graph, char):
    # the model gives the kernel only the words whose supports meet; the
    # reference gives it every pair of words, as the kernel allows
    field = Field(char)
    model = lv.GrSkewModel(lv.graph_analysis(graph), field)
    xs = model.xs
    triples = ((g, h, lv.word_mul(graph, g, h)) for g in xs.words for h in xs.words)
    ones = {i: 1 for i in xs.x_set(lv.IDENTITY)}
    ref, offsets = skew_product_ring(field, xs.words, model.domains, triples, lv.word_inverse,
                                     lambda w, f: model._alpha_at(model._number[w], f),
                                     model._pointwise, lv.word_label,
                                     {lv.IDENTITY: ones}, None)
    alg = model.algebra
    assert corpus.table_of(alg) == corpus.table_of(ref) and alg.labels == ref.labels
    assert alg.unit == ref.unit is not None
    assert model.offsets == offsets
    # the pairs left out are exactly those whose supports are disjoint
    meeting = {(xs.words[s], xs.words[t]) for s, t in model._meeting_numbers()}
    assert meeting == {(g, h) for g in xs.words for h in xs.words
                       if set(xs.x_set(lv.word_inverse(g))) & set(xs.x_set(h))}


def test_graph_json_roundtrip():
    g = corpus.corpus_graphs()["tree"]
    d1 = lv.graph_to_dict(g)
    d2 = lv.graph_to_dict(lv.graph_from_dict(d1))
    assert d1 == d2


def _listed_paths(vertices, edges):
    """Every path of an acyclic graph, by depth-first extension over the edge list."""
    out, todo = [], [lv.Path(v, ()) for v in vertices]
    while todo:
        p = todo.pop()
        out.append(p)
        end = edges[p.edges[-1]][1] if p.edges else p.source
        todo.extend(lv.Path(p.source, p.edges + (e,)) for e, (s, _) in edges.items() if s == end)
    return out


def _glue(p, q):
    """The path p followed by q, which starts where p ends."""
    return lv.Path(p.source, p.edges + q.edges)


@st.composite
def graphs_up_to_six(draw):
    """At most 6 vertices; loops, parallel edges, isolated vertices and cycles all
    occur, and half the draws keep only edges running forward, so are acyclic."""
    n = draw(st.integers(1, 6))
    vertices = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9))
    if draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a < b]
    return vertices, {f"e{k}": (vertices[a], vertices[b]) for k, (a, b) in enumerate(pairs)}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs_up_to_six())
def test_census_x_sets_and_theta_match_brute_force(g):
    vertices, edges = g
    graph = lv.DirectedGraph(vertices, [(e, s, r) for e, (s, r) in edges.items()])
    if not _dfs_acyclic(vertices, list(edges.values())):
        assert not lv.graph_analysis(graph).acyclic
        return
    paths = _listed_paths(vertices, edges)
    ending = Counter(lv.path_range(graph, p) for p in paths)
    assert lv.sink_path_counts(graph) == {v: ending[v] for v in graph.sinks()}
    if sum(ending[v] ** 2 for v in graph.sinks()) > 400:
        return  # the X space below lists words in pairs of paths
    rep = lv.graph_analysis(graph)
    assert rep.acyclic and sorted(rep.paths, key=repr) == sorted(paths, key=repr)
    xs = lv.XSpace(rep)
    sinks = set(vertices) - {s for s, _ in edges.values()}
    assert set(xs.points) == {p for p in paths if lv.path_range(graph, p) in sinks}
    words = set(xs.words)
    assert lv.word_inverse(lv.IDENTITY) == lv.IDENTITY
    assert xs.x_set(lv.IDENTITY) == list(range(len(xs.points)))
    assert lv.theta_map(xs, lv.IDENTITY) == {p: p for p in xs.points}
    for w in xs.words[1:]:
        inv = lv.word_inverse(w)
        assert inv in words and lv.word_inverse(inv) == w
        # X_w: the points that are w.a followed by some path out of its range
        after = {c for c in paths if c.source == lv.path_range(graph, w.a)}
        assert [xs.points[i] for i in xs.x_set(w)] == [
            p for p in xs.points if p in {_glue(w.a, c) for c in after}]
        # theta_w: strip w.b, glue w.a, and land on a point again
        want = {_glue(w.b, c): _glue(w.a, c) for c in after if _glue(w.b, c) in xs.index}
        assert lv.theta_map(xs, w) == want and set(want.values()) <= set(xs.points)


def test_graph_analysis_runs_no_closure(monkeypatch):
    # acyclicity is read off the forward count of paths, not a closure of the sinks
    calls = []
    closure = lv._hs_closure
    monkeypatch.setattr(lv, "_hs_closure", lambda *a: calls.append(a) or closure(*a))
    for g in [*corpus.corpus_graphs().values(), *corpus.cyclic_graphs().values()]:
        lv.graph_analysis(g)
    assert calls == []
    # the count stops short of every vertex on a cycle
    for g in corpus.cyclic_graphs().values():
        assert lv.sink_path_counts(g) is None


def test_phi_check_reports_the_first_broken_relation():
    # doubling f* f and f f* for f = e2 on A3 breaks relation (3) at (e2,e2)
    # and relation (4) at v2, nothing else; (3) comes first in the fixed order
    g = corpus.corpus_graphs()["A3"]
    model = lv.GrSkewModel(lv.graph_analysis(g), Q)
    w = model.edge_word("e2")
    i, j = model.offsets[lv.word_inverse(w)], model.offsets[w]
    cells = model.algebra._cells
    assert len(model.xs.x_set(w)) == 1 and cells[i][j] and cells[j][i]
    for a, b in ((i, j), (j, i)):
        cells[a][b] = {k: 2 * c for k, c in cells[a][b].items()}
    rep = lv.phi_isomorphism_check(model)
    assert rep["phi_relations_ok"] is False
    assert rep["phi_first_failure"] == "(3) f* f' at (e2,e2)"
    dims = rep["two_model_dims"]
    assert dims == (9, 9) and dims[0] == dims[1]

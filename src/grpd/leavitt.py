"""Leavitt path algebras of finite acyclic graphs, built two independent ways.

The first model realizes the algebra as a partial skew group ring over the
free group on the edges, restricted to its finite support: the commutative
function algebra on the set X of paths into sinks, the ideals D_g, and the
shift maps alpha_g induced by prepending/removing path prefixes.  The
second model is a path-pair basis with products driven by the defining
relations, used as an oracle for the first.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError, SchemaError, UnsupportedError
from . import schema
from .exactlin import Subspace, _dense, _sparse, _subtract
from .algebra import MAX_DIM, StructureAlgebra
from .skewring import _guarded, skew_product_ring


# -- graphs and paths ----------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    id: str
    s: str
    r: str


class DirectedGraph:
    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        self._vidx = {v: i for i, v in enumerate(self.vertices)}
        self._eidx = {e.id: i for i, e in enumerate(self.edges)}
        self.edge_by_id = {e.id: e for e in self.edges}
        if len(self._vidx) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if len(self._eidx) != len(self.edges):
            raise ValueError("duplicate edge ids")
        self._out = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.s not in self._vidx or e.r not in self._vidx:
                raise ValueError(f"edge {e.id} has unknown endpoints")
            self._out[e.s].append(e)

    def out_edges(self, v):
        return self._out[v]

    def sinks(self):
        return [v for v in self.vertices if not self._out[v]]

    def __repr__(self):
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Path:
    """Edge path, or a trivial path anchored at a vertex when edges is empty."""

    source: str
    edges: tuple


def trivial_path(v):
    return Path(v, ())


def path_range(graph, p):
    return graph.edge_by_id[p.edges[-1]].r if p.edges else p.source


def path_label(p):
    return ".".join(p.edges) if p.edges else f"@{p.source}"


def _path_key(graph, p):
    return (len(p.edges), graph._vidx[p.source], tuple(graph._eidx[e] for e in p.edges))


def all_paths(graph):
    """Every finite path, trivial ones included, ordered by (length, source, edges).

    The set is finite only for an acyclic graph.  A path of |V| edges visits
    some vertex twice, so once the frontier reaches that length the graph has
    a cycle, and PreconditionError is raised.
    """
    paths = [trivial_path(v) for v in graph.vertices]
    frontier, length = list(paths), 0  # every frontier path has `length` edges
    while frontier:
        if length == len(graph.vertices):
            raise PreconditionError("all_paths needs an acyclic graph: this one has a cycle")
        nxt = []
        for p in frontier:
            for e in graph.out_edges(path_range(graph, p)):
                nxt.append(Path(p.source, p.edges + (e.id,)))
        paths.extend(nxt)
        frontier, length = nxt, length + 1
    paths.sort(key=lambda p: _path_key(graph, p))
    return paths


@dataclass
class GraphReport:
    """The census of one graph, shared by everything built from it."""

    graph: DirectedGraph
    sinks: list
    acyclic: bool
    paths: list | None
    sink_path_counts: dict | None

    def sink_paths(self):
        """Sink -> the paths ending there, trivial one included, in census order."""
        into = {v: [] for v in self.sinks}
        for p in self.paths:
            r = path_range(self.graph, p)
            if r in into:
                into[r].append(p)
        return into


def graph_analysis(graph):
    """Sinks, acyclicity, and the path census when acyclic.

    The graph is acyclic exactly when the forward count of sink_path_counts
    reaches every vertex.  The path algebra of an acyclic graph has
    dimension sum c_v^2 over the path counts c_v into the sinks; past
    MAX_DIM the census stops with an UnsupportedError before listing paths.
    A path ending at a vertex extends to one ending at a sink, so each
    vertex ends at most sum c_v of the listed paths.
    """
    sinks = graph.sinks()
    counts = sink_path_counts(graph)
    acyclic = counts is not None
    if acyclic:
        dim = sum(c * c for c in counts.values())
        if dim > MAX_DIM:
            raise UnsupportedError(
                f"the path algebra has dimension {dim}, above the limit {MAX_DIM}")
    return GraphReport(
        graph=graph,
        sinks=sinks,
        acyclic=acyclic,
        paths=all_paths(graph) if acyclic else None,
        sink_path_counts=counts,
    )


def sink_path_counts(graph):
    """Sink -> the number of paths ending there; None when the graph has a cycle.

    Counted forward from the sources in Kahn order, listing no path: the
    paths ending at v are the trivial one and, for each edge e into v, a
    path ending at s(e) followed by e.  A vertex is counted once every edge
    into it starts at a counted vertex.  No vertex of a cycle is ever
    counted, since each waits for the one before it; in an acyclic graph
    every vertex is, by induction on the longest path into it.
    """
    into = {v: [] for v in graph.vertices}
    for e in graph.edges:
        into[e.r].append(e.s)
    waiting = {v: len(sources) for v, sources in into.items()}
    ending = {}  # vertex -> the number of paths ending there
    ready = [v for v, k in waiting.items() if not k]
    while ready:
        v = ready.pop()
        ending[v] = 1 + sum(ending[u] for u in into[v])
        for e in graph._out[v]:
            waiting[e.r] -= 1
            if not waiting[e.r]:
                ready.append(e.r)
    if len(ending) < len(graph.vertices):
        return None
    return {v: ending[v] for v in graph.sinks()}


def _hs_closure(graph, closed, seed):
    """The least hereditary saturated vertex set containing `closed` and `seed`.

    `closed` must itself be hereditary and saturated.  Forward reachability
    from the seed, then each regular vertex whose edges all end inside is
    added (its successors are inside already), until nothing changes.
    """
    inside = set(closed)
    todo = list(seed)
    while todo:
        v = todo.pop()
        if v not in inside:
            inside.add(v)
            todo.extend(e.r for e in graph._out[v])
        if not todo:
            todo = [u for u, outs in graph._out.items() if u not in inside and outs
                    and all(e.r in inside for e in outs)]
    return frozenset(inside)


HS_CAP = 4096  # hereditary saturated sets listed at most; 12 isolated vertices have this many


def hereditary_saturated_subsets(graph):
    """All hereditary saturated vertex sets, each in vertex order, sorted by (size, names).

    They are the closed sets of `_hs_closure`, and closed sets are closed
    under intersection, so each one other than the empty set is the closure
    of a smaller closed set and one more vertex.  Past HS_CAP sets the
    search stops with an UnsupportedError.
    """
    found = {frozenset()}
    todo = [frozenset()]
    while todo:
        h = todo.pop()
        for v in graph.vertices:
            if v not in h:
                c = _hs_closure(graph, h, (v,))
                if c not in found:
                    if len(found) == HS_CAP:
                        raise UnsupportedError(
                            f"more than {HS_CAP} hereditary saturated vertex sets")
                    found.add(c)
                    todo.append(c)
    out = [tuple(sorted(h, key=graph._vidx.__getitem__)) for h in found]
    out.sort(key=lambda t: (len(t), t))
    return out


# -- reduced words of the free group on the edges -----------------------------------


@dataclass(frozen=True)
class Word:
    """Reduced word a b^{-1} over path parts; (None, None) is the group identity."""

    a: Path | None
    b: Path | None

    def is_identity(self):
        return self.a is None


IDENTITY = Word(None, None)


def make_word(graph, a, b):
    """Normalize a pair of paths with common range into a reduced word.

    Common trailing edges cancel; a fully cancelled pair is the identity.
    Returns None when the ranges disagree (the word then has empty domain).
    """
    if path_range(graph, a) != path_range(graph, b):
        return None
    ea, eb = list(a.edges), list(b.edges)
    while ea and eb and ea[-1] == eb[-1]:
        ea.pop()
        eb.pop()
    if not ea and not eb:
        return IDENTITY
    return Word(Path(a.source, tuple(ea)), Path(b.source, tuple(eb)))


def word_inverse(w):
    return Word(w.b, w.a)


def word_label(w):
    if w.is_identity():
        return "1"
    pos = path_label(w.a) if w.a.edges else ""
    neg = f"({path_label(w.b)})^-1" if w.b.edges else ""
    return pos + neg


def word_mul(graph, g, h):
    """Free-group product of two support words.

    Returns the reduced product when it is again of the form (path)(path)^{-1}
    with matching ranges, and None otherwise; in the latter case the
    corresponding ideal is zero and skew-ring products vanish.
    """
    if g.is_identity():
        return h
    if h.is_identity():
        return g
    a, b, c, d = g.a, g.b.edges, h.a.edges, h.b  # g h = a b^-1 c d^-1
    k, m = 0, min(len(b), len(c))
    while k < m and b[k] == c[k]:
        k += 1
    if k < m:
        return None  # reduced mixed form, outside the support class
    # b^-1 c is c[k:] when b is a prefix of c, and the inverse of b[k:] otherwise
    a, d = _extend(graph, a, c[k:]), _extend(graph, d, b[k:])
    return None if a is None or d is None else make_word(graph, a, d)


def _extend(graph, p, tail):
    """The path p followed by the edges tail, or None when they do not meet."""
    meet = not tail or graph.edge_by_id[tail[0]].s == path_range(graph, p)
    return Path(p.source, p.edges + tail) if meet else None


# -- the X space ----------------------------------------------------------------------


class XSpace:
    """The finite set X of paths into sinks, with its word-indexed subsets."""

    def __init__(self, report):
        if not report.acyclic:
            raise UnsupportedError("X space needs a finite acyclic graph (no infinite paths)")
        self.graph = graph = report.graph
        sinks = set(report.sinks)
        self.points = [p for p in report.paths if path_range(graph, p) in sinks]
        self.index = {p: i for i, p in enumerate(self.points)}
        self.words = self._enumerate_words(report.paths)
        # path a -> X_w for the words w = a b^-1; the identity's a is None and X_1 is X
        self._x_sets = {None: list(range(len(self.points)))}

    def _enumerate_words(self, paths):
        """The identity, then the reduced words a b^-1 sorted by (a, b).

        Paths a != b with a common range and different last edges already
        form a reduced word, and its X_w is not empty: in an acyclic graph
        every path extends to one ending at a sink.
        """
        graph = self.graph
        by_range = {}
        for p in paths:
            by_range.setdefault(path_range(graph, p), []).append(p)
        out = sorted(
            (Word(a, b) for group in by_range.values() for a in group for b in group
             if a != b and not (a.edges and b.edges and a.edges[-1] == b.edges[-1])),
            key=lambda w: (_path_key(graph, w.a), _path_key(graph, w.b)),
        )
        return [IDENTITY] + out

    def x_set(self, w):
        """Indices of the subset X_w of X, the points that start with w.a.

        It depends on w.a alone and is computed once for each.
        """
        a = w.a
        if a not in self._x_sets:
            self._x_sets[a] = [i for i, xi in enumerate(self.points)
                               if xi.source == a.source and xi.edges[:len(a.edges)] == a.edges]
        return self._x_sets[a]

    def x_vertex(self, v):
        """Indices of X_v = {xi : s(xi) = v}, the vertex indicator support."""
        return [i for i, xi in enumerate(self.points) if xi.source == v]


def theta_map(xs, w):
    """The bijection X_{w^-1} -> X_w: strip the b part, glue the a part.

    A trivial part is the path (v, ()) at the common range v of a and b,
    so the one rule covers it.
    """
    if w.is_identity():
        return {p: p for p in xs.points}
    points = map(xs.points.__getitem__, xs.x_set(word_inverse(w)))
    return {xi: Path(w.a.source, w.a.edges + xi.edges[len(w.b.edges):]) for xi in points}


# -- model 1: the skew ring over the free group, restricted to its support ---------------


class GrSkewModel:
    """D(X) together with the ideals D_g, the maps alpha_g, and the skew ring."""

    def __init__(self, report, field):
        self.report = report
        self.graph = graph = report.graph
        self.field = field
        self.xs = XSpace(report)
        xs = self.xs
        # every point of X is one of the generating sets X_w or X_v, so D(X)
        # is all of K^X and D_w = 1_w K^X is spanned by the unit vectors at X_w
        words = xs.words
        self.domains = {w: Subspace.coordinate(field, len(xs.points), xs.x_set(w)) for w in words}
        # the kernel's degrees are the word numbers, so no product hashes a word
        self._number = {w: s for s, w in enumerate(words)}
        # theta_w on point indices, X_{w^-1} -> X_w, by word number
        self._theta = [{xs.index[a]: xs.index[b] for a, b in theta_map(xs, w).items()}
                       for w in words]
        triples = ((s, t, self._number.get(word_mul(graph, words[s], words[t])))
                   for s, t in self._meeting_numbers())
        inverse = [self._number[word_inverse(w)] for w in words]
        ones = {i: 1 for i in xs.x_set(IDENTITY)}  # the identity is word 0
        self.algebra, offsets = skew_product_ring(
            field, range(len(words)), list(self.domains.values()), triples, inverse.__getitem__,
            self._alpha_at, self._pointwise, lambda s: word_label(words[s]), {0: ones}, None)
        self.offsets = dict(zip(words, offsets.values()))

    def _meeting_numbers(self):
        """The pairs (s, t) of word numbers with X_{g^-1} meeting X_h, g and h
        the words s and t, in word order.

        The kernel multiplies alpha_{g^-1} of the rows of D_g, which lie in
        X_{g^-1}, by the rows of D_h, which lie in X_h; functions on X
        multiply pointwise, so every other pair has product zero.
        """
        xs = self.xs
        holding = [[] for _ in xs.points]  # point -> the words h whose X_h holds it
        for t, h in enumerate(xs.words):
            for i in xs.x_set(h):
                holding[i].append(t)
        for s, g in enumerate(xs.words):
            for t in sorted(set().union(*(holding[i] for i in xs.x_set(word_inverse(g))))):
                yield s, t

    def alpha_apply(self, w, f):
        """alpha_w(f) = f o theta_{w^-1}, on functions supported in X_{w^-1}."""
        field, s = self.field, self._number[w]
        return _dense(field, self._alpha_at(s, _sparse(field, f)), len(self.xs.points))

    def _alpha_at(self, s, f):
        """alpha_w on a raw row, for w the word numbered s: the value at each
        point of X_{w^-1} moves along theta_w."""
        theta = self._theta[s]
        return {theta[j]: v for j, v in f.items() if j in theta}

    def _pointwise(self, x, y):
        """The product of D(X) on raw rows: functions on X multiply pointwise."""
        p = self.field.char
        return {i: a * y[i] % p if p else a * y[i] for i, a in x.items() if i in y}

    def edge_word(self, edge_id):
        e = self.graph.edge_by_id[edge_id]
        return make_word(self.graph, Path(e.s, (edge_id,)), trivial_path(e.r))


def build_gr_skew_ring(graph, field):
    """The Leavitt path algebra as a partial skew group ring over the support."""
    return GrSkewModel(graph_analysis(graph), field).algebra


# -- model 2: the path-pair oracle ------------------------------------------------------


class PathPairModel:
    """Basis mu nu* over pairs of paths into a common sink.

    A path into a sink extends no further, so nu* sigma is the vertex r(nu)
    when nu = sigma and zero otherwise: the pairs multiply as matrix units,
    (mu, nu)(sigma, tau) = delta_{nu, sigma} (mu, tau).
    """

    def __init__(self, report, field):
        if not report.acyclic:
            raise UnsupportedError("path-pair model needs a finite acyclic graph")
        self.graph = report.graph
        self.field = field
        self.pairs = [(mu, nu) for into in report.sink_paths().values()
                      for mu in into for nu in into]
        self.index = {p: i for i, p in enumerate(self.pairs)}

    @cached_property
    def algebra(self):
        """The matrix-unit table on the pairs, built when first read."""
        field = self.field
        n = len(self.pairs)
        table = [
            [[(self.index[(mu, tau)], field.one)] if nu == sigma else ()
             for sigma, tau in self.pairs]
            for mu, nu in self.pairs
        ]
        labels = [f"{path_label(mu)}({path_label(nu)})*" for mu, nu in self.pairs]
        unit = [field.one if mu == nu else field.zero for mu, nu in self.pairs]
        return StructureAlgebra(field, n, table, unit, labels)


def lpa_path_pair_oracle(graph, field):
    """Independent brute-force model of the Leavitt path algebra."""
    return PathPairModel(graph_analysis(graph), field).algebra


# -- the generator isomorphism check ------------------------------------------------------


def phi_isomorphism_check(model):
    """Check relations (1)-(4) on the generator images inside a GrSkewModel.

    Also gives the dimensions of the model and the path-pair oracle, and
    the first failing relation when one breaks, under the keys the
    `leavitt` verb prints.
    """
    graph = model.graph
    field = model.field
    alg = model.algebra
    # phi on generators, vertices to 1_v delta_1 and edges to 1_f delta_f, as raw
    # rows: D_w is the coordinate subspace on X_w, so 1_w delta_w is 1 at each of
    # its basis vectors, and D_1 holds every point, so 1_v is 1 at the points of X_v;
    # the relations are checked through the algebra's raw product
    xs, offsets = model.xs, model.offsets
    gens = {("v", v): {offsets[IDENTITY] + i: 1 for i in xs.x_vertex(v)} for v in graph.vertices}
    for e in graph.edges:
        w = model.edge_word(e.id)
        for key, u in (("e", w), ("e*", word_inverse(w))):
            gens[key, e.id] = {offsets[u] + t: 1 for t in range(len(xs.x_set(u)))}
    mul = alg._mul

    def relations():
        """(holds, description) for each relation, in a fixed order."""
        for v in graph.vertices:
            for w in graph.vertices:
                prod = mul(gens[("v", v)], gens[("v", w)])
                expect = gens[("v", v)] if v == w else {}
                yield prod == expect, f"vertex idempotent relation at ({v},{w})"
        for e in graph.edges:
            f = gens[("e", e.id)]
            fs = gens[("e*", e.id)]
            yield mul(gens[("v", e.s)], f) == f, f"(1) s(f) f = f at {e.id}"
            yield mul(f, gens[("v", e.r)]) == f, f"(1) f r(f) = f at {e.id}"
            yield mul(gens[("v", e.r)], fs) == fs, f"(2) r(f) f* = f* at {e.id}"
            yield mul(fs, gens[("v", e.s)]) == fs, f"(2) f* s(f) = f* at {e.id}"
        for e in graph.edges:
            for ep in graph.edges:
                prod = mul(gens[("e*", e.id)], gens[("e", ep.id)])
                expect = gens[("v", e.r)] if e.id == ep.id else {}
                yield prod == expect, f"(3) f* f' at ({e.id},{ep.id})"
        for v in graph.vertices:
            if outs := graph.out_edges(v):
                acc = {}
                for e in outs:
                    _subtract(acc, -1, mul(gens[("e", e.id)], gens[("e*", e.id)]), field.char)
                yield acc == gens[("v", v)], f"(4) v = sum f f* at {v}"

    failure = next((desc for holds, desc in relations() if not holds), None)
    # the oracle's pairs: c_v^2 at each sink v, which c_v paths end at
    oracle_dim = sum(c * c for c in model.report.sink_path_counts.values())
    out = {"two_model_dims": (alg.dim, oracle_dim), "phi_relations_ok": failure is None}
    if failure is not None:
        out["phi_first_failure"] = failure
    return out


# -- the characterization report -----------------------------------------------------------


def lpa_characterization(report, model):
    """Finite-dimensionality classification plus the block/sink comparison.

    `report` is the graph's census and `model` its GrSkewModel, or None
    when the graph has a cycle.  Cyclic graphs are classified as not
    artinian and no algebra is built, so the algebra's entries stay None.
    For acyclic graphs the block sizes of the semisimple decomposition of
    the model are compared against the census's path counts into each sink.
    Returns the report as the `leavitt` verb prints it.
    """
    hs = hereditary_saturated_subsets(report.graph)
    out = {
        "acyclic": report.acyclic,
        "artinian": "artinian: finite-dimensional over the base field" if report.acyclic else
                    "not artinian: the graph has a cycle, so the algebra is infinite-dimensional",
        "dim": None,
        "unital": None,
        "semisimple": None,
        "block_sizes": None,
        "sink_path_counts": None,
        "blocks_match_sinks": None,
        "hereditary_saturated": hs,
        "trivial_hs_lattice": len(hs) <= 2,  # the empty set and V are always listed
        "one_block": None,
    }
    if not report.acyclic:
        return out
    alg = model.algebra
    counts = report.sink_path_counts
    out.update(dim=alg.dim, unital=alg.find_unit() is not None,
               semisimple=_guarded(alg.is_semisimple), sink_path_counts=counts)
    if out["semisimple"] is True:
        blocks = alg.wedderburn_blocks()
        sizes = sorted(math.isqrt(d) for d in blocks.dims())
        out.update(block_sizes=sizes, one_block=len(blocks) == 1,
                   blocks_match_sinks=sizes == sorted(counts.values())
                   and alg.dim == sum(c * c for c in counts.values()))
    return out


# -- JSON schema ------------------------------------------------------------------------------


def graph_to_dict(graph):
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "s": e.s, "r": e.r} for e in graph.edges],
    }


def graph_from_dict(d):
    vertices = schema.items(schema.get(d, "vertices", list, "graph"), str, "vertices")
    edges = [Edge(*(schema.get(e, k, str, f"edge {t}") for k in ("id", "s", "r")))
             for t, e in enumerate(schema.get(d, "edges", list, "graph"))]
    try:
        return DirectedGraph(vertices, edges)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

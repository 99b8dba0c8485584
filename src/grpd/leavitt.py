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

from .errors import SchemaError, UnsupportedError
from . import schema
from .exactlin import Subspace
from .algebra import StructureAlgebra
from .skewring import skew_product_ring


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

    @property
    def length(self):
        return len(self.edges)

    def is_trivial(self):
        return not self.edges


def trivial_path(v):
    return Path(v, ())


def path_range(graph, p):
    return graph.edge_by_id[p.edges[-1]].r if p.edges else p.source


def path_label(p):
    return ".".join(p.edges) if p.edges else f"@{p.source}"


def _path_key(graph, p):
    return (p.length, graph._vidx[p.source], tuple(graph._eidx[e] for e in p.edges))


def all_paths(graph):
    """Every finite path, trivial ones included, ordered by (length, source, edges).

    Only meaningful for acyclic graphs, where the set is finite.
    """
    paths = [trivial_path(v) for v in graph.vertices]
    frontier = list(paths)
    while frontier:
        nxt = []
        for p in frontier:
            for e in graph.out_edges(path_range(graph, p)):
                nxt.append(Path(p.source if p.edges else e.s, p.edges + (e.id,)))
        paths.extend(nxt)
        frontier = nxt
    paths.sort(key=lambda p: _path_key(graph, p))
    return paths


@dataclass
class GraphReport:
    """The census of one graph, shared by everything built from it."""

    graph: DirectedGraph
    sinks: list
    acyclic: bool
    paths: list | None

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

    A vertex on a cycle never enters the closure of the sinks, since it
    would need its successor on the cycle inside first; in an acyclic graph
    every vertex enters, by induction on the longest path out of it.
    """
    sinks = graph.sinks()
    acyclic = len(_hs_closure(graph, frozenset(), sinks)) == len(graph.vertices)
    return GraphReport(
        graph=graph,
        sinks=sinks,
        acyclic=acyclic,
        paths=all_paths(graph) if acyclic else None,
    )


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


def hereditary_saturated_subsets(graph):
    """All hereditary saturated vertex sets, each in vertex order, sorted by (size, names).

    They are the closed sets of `_hs_closure`, and closed sets are closed
    under intersection, so each one other than the empty set is the closure
    of a smaller closed set and one more vertex.
    """
    found = {frozenset()}
    todo = [frozenset()]
    while todo:
        h = todo.pop()
        for v in graph.vertices:
            if v not in h:
                c = _hs_closure(graph, h, (v,))
                if c not in found:
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
    if w.is_identity():
        return w
    return Word(w.b, w.a)


def word_label(w):
    if w.is_identity():
        return "1"
    pos = path_label(w.a) if not w.a.is_trivial() else ""
    neg = f"({path_label(w.b)})^-1" if not w.b.is_trivial() else ""
    return (pos + neg) if (pos or neg) else "1"


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
    b1, a2 = g.b, h.a
    k = 0
    while k < b1.length and k < a2.length and b1.edges[k] == a2.edges[k]:
        k += 1
    if k < b1.length and k < a2.length:
        return None  # reduced mixed form, outside the support class
    if k == b1.length and k < a2.length:
        tail = a2.edges[k:]
        if graph.edge_by_id[tail[0]].s != path_range(graph, g.a):
            return None
        if g.a.is_trivial():
            new_a = Path(graph.edge_by_id[tail[0]].s, tail)
        else:
            new_a = Path(g.a.source, g.a.edges + tail)
        return make_word(graph, new_a, h.b)
    if k == a2.length and k < b1.length:
        # mirror of the case above: (gh)^-1 = h^-1 g^-1
        inv = word_mul(graph, word_inverse(h), word_inverse(g))
        return None if inv is None else word_inverse(inv)
    return make_word(graph, g.a, h.b)


# -- the X space ----------------------------------------------------------------------


def _extends(graph, xi, a):
    """Whether xi starts with the path a (source condition for trivial a)."""
    if a.is_trivial():
        return xi.source == a.source
    if xi.length < a.length:
        return False
    return xi.source == a.source and xi.edges[: a.length] == a.edges


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

    def _enumerate_words(self, paths):
        graph = self.graph
        by_range = {}
        for p in paths:
            by_range.setdefault(path_range(graph, p), []).append(p)
        words = {IDENTITY}
        for _, group in sorted(by_range.items(), key=lambda kv: graph._vidx[kv[0]]):
            for a in group:
                for b in group:
                    if not a.is_trivial() or not b.is_trivial():
                        if a.edges and b.edges and a.edges[-1] == b.edges[-1]:
                            continue  # not reduced; equals a shorter word
                        w = make_word(graph, a, b)
                        if w is not None and not w.is_identity():
                            if self.x_set(w):
                                words.add(w)
        out = sorted(
            (w for w in words if not w.is_identity()),
            key=lambda w: (_path_key(graph, w.a), _path_key(graph, w.b)),
        )
        return [IDENTITY] + out

    def x_set(self, w):
        """Indices of the subset X_w of X."""
        if w.is_identity():
            return list(range(len(self.points)))
        return [i for i, xi in enumerate(self.points) if _extends(self.graph, xi, w.a)]

    def x_vertex(self, v):
        """Indices of X_v = {xi : s(xi) = v}, the vertex indicator support."""
        return [i for i, xi in enumerate(self.points) if xi.source == v]

    def indicator(self, field, indices):
        vec = field.zero_vec(len(self.points))
        for i in indices:
            vec[i] = field.one
        return vec


def theta_map(xs, w):
    """The bijection X_{w^-1} -> X_w: strip the b part, glue the a part."""
    graph = xs.graph
    if w.is_identity():
        return {p: p for p in xs.points}
    out = {}
    for i in xs.x_set(word_inverse(w)):
        xi = xs.points[i]
        tail = xi.edges[w.b.length:]
        if tail:
            if w.a.is_trivial():
                img = Path(graph.edge_by_id[tail[0]].s, tail)
            else:
                img = Path(w.a.source, w.a.edges + tail)
        else:
            img = w.a if not w.a.is_trivial() else trivial_path(path_range(graph, w.a))
        out[xi] = img
    return out


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
        self.domains = {
            w: Subspace.coordinate(field, len(xs.points), xs.x_set(w)) for w in xs.words
        }
        self._theta_inv = {w: theta_map(xs, word_inverse(w)) for w in xs.words}
        triples = ((g, h, word_mul(graph, g, h)) for g in xs.words for h in xs.words)
        ones = xs.indicator(field, xs.x_set(IDENTITY))
        self.algebra, self.offsets = skew_product_ring(
            field, xs.words, self.domains, triples, word_inverse, self.alpha_apply,
            _pointwise, word_label, {IDENTITY: ones},
        )

    def alpha_apply(self, w, f):
        """alpha_w(f) = f o theta_{w^-1}, on functions supported in X_{w^-1}."""
        xs = self.xs
        out = self.field.zero_vec(len(xs.points))
        theta_inv = self._theta_inv[w]
        for i in self.domains[w].pivots:
            xi = xs.points[i]
            out[i] = f[xs.index[theta_inv[xi]]]
        return out

    def element(self, w, f):
        """The skew-ring element (f delta_w) for f in D_w."""
        vec = self.field.zero_vec(self.algebra.dim)
        for k, c in enumerate(self.domains[w].coords(f)):
            vec[self.offsets[w] + k] = c
        return vec

    def edge_word(self, edge_id):
        e = self.graph.edge_by_id[edge_id]
        return make_word(self.graph, Path(e.s, (edge_id,)), trivial_path(e.r))

    def generator_images(self):
        """phi on generators: vertices to 1_v delta_1, edges to 1_f delta_f."""
        xs = self.xs
        field = self.field
        out = {}
        for v in self.graph.vertices:
            out[("v", v)] = self.element(IDENTITY, xs.indicator(field, xs.x_vertex(v)))
        for e in self.graph.edges:
            w = self.edge_word(e.id)
            winv = word_inverse(w)
            out[("e", e.id)] = self.element(w, xs.indicator(field, xs.x_set(w)))
            out[("e*", e.id)] = self.element(winv, xs.indicator(field, xs.x_set(winv)))
        return out


def _pointwise(x, y):
    """The product of D(X): functions on X multiply pointwise."""
    return [a * b for a, b in zip(x, y)]


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
        self.algebra = self._build_algebra()

    def _build_algebra(self):
        field = self.field
        n = len(self.pairs)
        table = [
            [[(self.index[(mu, tau)], field.one)] if nu == sigma else []
             for sigma, tau in self.pairs]
            for mu, nu in self.pairs
        ]
        labels = [f"{path_label(mu)}({path_label(nu)})*" for mu, nu in self.pairs]
        alg = StructureAlgebra(field, n, table, labels=labels)
        unit = field.zero_vec(n)
        for mu, nu in self.pairs:
            if mu == nu:
                unit[self.index[(mu, nu)]] = field.one
        alg.unit = unit
        return alg


def lpa_path_pair_oracle(graph, field):
    """Independent brute-force model of the Leavitt path algebra."""
    return PathPairModel(graph_analysis(graph), field).algebra


# -- the generator isomorphism check ------------------------------------------------------


@dataclass
class PhiReport:
    dims: tuple
    dims_match: bool
    relations_ok: bool
    first_failure: str | None

    def __bool__(self):
        return self.dims_match and self.relations_ok


def phi_isomorphism_check(model):
    """Check relations (1)-(4) on the generator images inside a GrSkewModel.

    Also compares the dimensions of the model and the path-pair oracle;
    reports the first failing relation when one breaks.
    """
    graph = model.graph
    field = model.field
    oracle = PathPairModel(model.report, field)
    alg = model.algebra
    gens = model.generator_images()
    mul = alg.multiply

    def eq(x, y):
        return x == y

    failure = None

    def check(cond, desc):
        nonlocal failure
        if failure is None and not cond:
            failure = desc

    zero = field.zero_vec(alg.dim)
    for v in graph.vertices:
        for w in graph.vertices:
            prod = mul(gens[("v", v)], gens[("v", w)])
            expect = gens[("v", v)] if v == w else zero
            check(eq(prod, expect), f"vertex idempotent relation at ({v},{w})")
    for e in graph.edges:
        f = gens[("e", e.id)]
        fs = gens[("e*", e.id)]
        check(eq(mul(gens[("v", e.s)], f), f), f"(1) s(f) f = f at {e.id}")
        check(eq(mul(f, gens[("v", e.r)]), f), f"(1) f r(f) = f at {e.id}")
        check(eq(mul(gens[("v", e.r)], fs), fs), f"(2) r(f) f* = f* at {e.id}")
        check(eq(mul(fs, gens[("v", e.s)]), fs), f"(2) f* s(f) = f* at {e.id}")
    for e in graph.edges:
        for ep in graph.edges:
            prod = mul(gens[("e*", e.id)], gens[("e", ep.id)])
            expect = gens[("v", e.r)] if e.id == ep.id else zero
            check(eq(prod, expect), f"(3) f* f' at ({e.id},{ep.id})")
    for v in graph.vertices:
        outs = graph.out_edges(v)
        if not outs:
            continue
        acc = field.zero_vec(alg.dim)
        for e in outs:
            term = mul(gens[("e", e.id)], gens[("e*", e.id)])
            acc = [a + b for a, b in zip(acc, term)]
        check(eq(acc, gens[("v", v)]), f"(4) v = sum f f* at {v}")

    dims = (alg.dim, oracle.algebra.dim)
    return PhiReport(
        dims=dims,
        dims_match=dims[0] == dims[1],
        relations_ok=failure is None,
        first_failure=failure,
    )


# -- the characterization report -----------------------------------------------------------


@dataclass
class LpaReport:
    acyclic: bool
    artinian_verdict: str
    dim: int | None
    unital: object
    semisimple: object
    block_sizes: list | None
    sink_path_counts: dict | None
    blocks_match_sinks: object
    hereditary_saturated: list
    trivial_hs_lattice: bool
    one_block: object

    def to_dict(self):
        return {
            "acyclic": self.acyclic,
            "artinian": self.artinian_verdict,
            "dim": self.dim,
            "unital": self.unital,
            "semisimple": self.semisimple,
            "block_sizes": self.block_sizes,
            "sink_path_counts": self.sink_path_counts,
            "blocks_match_sinks": self.blocks_match_sinks,
            "hereditary_saturated": [list(h) for h in self.hereditary_saturated],
            "trivial_hs_lattice": self.trivial_hs_lattice,
            "one_block": self.one_block,
        }


def lpa_characterization(report, model):
    """Finite-dimensionality classification plus the block/sink comparison.

    `report` is the graph's census and `model` its GrSkewModel, or None
    when the graph has a cycle.  Cyclic graphs are classified as not
    artinian and no algebra is built.  For acyclic graphs the block sizes of
    the semisimple decomposition of the model are compared against the
    census's path counts into each sink.
    """
    graph = report.graph
    hs = hereditary_saturated_subsets(graph)
    trivial_hs = [h for h in hs if h and len(h) != len(graph.vertices)] == []
    if not report.acyclic:
        return LpaReport(
            acyclic=False,
            artinian_verdict="not artinian: the graph has a cycle, so the algebra is infinite-dimensional",
            dim=None,
            unital=None,
            semisimple=None,
            block_sizes=None,
            sink_path_counts=None,
            blocks_match_sinks=None,
            hereditary_saturated=hs,
            trivial_hs_lattice=trivial_hs,
            one_block=None,
        )
    alg = model.algebra
    counts = {v: len(into) for v, into in report.sink_paths().items()}
    unital = alg.find_unit() is not None
    try:
        semisimple = alg.is_semisimple()
        blocks = alg.wedderburn_blocks() if semisimple else None
    except UnsupportedError as exc:
        semisimple = f"unsupported: {exc}"
        blocks = None
    sizes = None
    match = None
    one_block = None
    if blocks is not None:
        sizes = sorted(math.isqrt(d) for d in blocks.dims())
        match = sizes == sorted(counts.values()) and alg.dim == sum(
            c * c for c in counts.values()
        )
        one_block = len(blocks) == 1
    return LpaReport(
        acyclic=True,
        artinian_verdict="artinian: finite-dimensional over the base field",
        dim=alg.dim,
        unital=unital,
        semisimple=semisimple,
        block_sizes=sizes,
        sink_path_counts=counts,
        blocks_match_sinks=match,
        hereditary_saturated=hs,
        trivial_hs_lattice=trivial_hs,
        one_block=one_block,
    )


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

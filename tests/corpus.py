"""Shared corpus of groupoids, algebras, actions, mutants and graphs for the tests."""

import itertools
import random
from fractions import Fraction

from grpd.errors import PreconditionError
from grpd.exactlin import Field, Matrix, Subspace, _combine, _dense, _sparse, rref, solve
from grpd.algebra import StructureAlgebra, _min_poly
from grpd import groupoid as gpd
from grpd.paction import PartialAction
from grpd.skewring import exel_semigroup, groupoid_ring_action
from grpd import leavitt as lv

Q = Field(0)


def vec(field, xs):
    """The dense vector of the field elements coerced from xs."""
    return [field(x) for x in xs]


def componentwise(field, n):
    """The split algebra field^n with coordinatewise multiplication."""
    table = [[[(i, field.one)] if i == j else [] for j in range(n)] for i in range(n)]
    return StructureAlgebra(
        field, n, table, unit=[field.one] * n, labels=[f"u{i}" for i in range(n)]
    )


def scalar_algebra(field):
    return StructureAlgebra(field, 1, [[[(0, field.one)]]], unit=[field.one], labels=["1"])


def group_algebra(field, n):
    """The group algebra of Z/n over the field, basis indexed by exponents."""
    table = [[[((i + j) % n, field.one)] for j in range(n)] for i in range(n)]
    unit = field.unit_vec(n, 0)
    return StructureAlgebra(field, n, table, unit=unit, labels=[f"d{i}" for i in range(n)])


def matrix_algebra(field, n):
    """M_n(field) in the matrix-unit basis E_ij, with no unit supplied."""
    units = [(i, j) for i in range(n) for j in range(n)]
    idx = {u: a for a, u in enumerate(units)}
    table = [[[(idx[i, l], field.one)] if j == k else [] for k, l in units] for i, j in units]
    return StructureAlgebra(field, n * n, table, labels=[f"E{i}{j}" for i, j in units])


def dual_numbers(field):
    """field[x]/(x^2), radical spanned by x."""
    z, o = field.zero, field.one
    return StructureAlgebra(
        field, 2, [[[(0, o)], [(1, o)]], [[(1, o)], []]], unit=[o, z], labels=["1", "x"]
    )


def truncated_poly(field, k):
    """field[x]/(x^k), radical spanned by x, ..., x^(k-1)."""
    table = [[[(i + j, field.one)] if i + j < k else [] for j in range(k)] for i in range(k)]
    labels = ["1", "x"][:k] + [f"x{i}" for i in range(2, k)]
    return StructureAlgebra(field, k, table, unit=field.unit_vec(k, 0), labels=labels)


def truncated_poly3(field):
    """field[x]/(x^3), radical spanned by x and x^2."""
    return truncated_poly(field, 3)


def upper_triangular(field, n):
    """Upper triangular n x n matrices, basis E_ij for i <= j; radical n(n-1)/2."""
    names = [(i, j) for i in range(n) for j in range(i, n)]
    idx = {p: a for a, p in enumerate(names)}
    table = [[[(idx[(i, l)], field.one)] if j == k else [] for k, l in names] for i, j in names]
    unit = field.zero_vec(len(names))
    for i in range(n):
        unit[idx[(i, i)]] = field.one
    return StructureAlgebra(field, len(names), table, unit=unit,
                            labels=[f"E{i + 1}{j + 1}" for i, j in names])


def upper_triangular2(field):
    """Upper triangular 2x2 matrices, basis E11, E12, E22."""
    return upper_triangular(field, 2)


def table_of(alg):
    """The dense dim x dim table of an algebra: its (k, c) pairs per cell, k increasing."""
    return [[sorted(alg._cells[i].get(j, {}).items()) for j in range(alg.dim)]
            for i in range(alg.dim)]


def rescaled(alg, scales):
    """The algebra alg over Q in the basis b'_i = s_i b_i, for nonzero rationals s_i.

    Its constants are s_i s_j c_ij^k / s_k and its unit has u_k / s_k at k,
    so a table with integer constants turns into one with fractions.
    """
    s = [Fraction(x) for x in scales]
    cells = table_of(alg)
    table = [[[(k, Q(s[i] * s[j] * c / s[k])) for k, c in cells[i][j]]
              for j in range(alg.dim)] for i in range(alg.dim)]
    unit = None if alg.unit is None else [Q(u / s[k]) for k, u in enumerate(alg.unit)]
    return StructureAlgebra(alg.field, alg.dim, table, unit=unit, labels=alg.labels)


def scaled_group_algebra4():
    """Q[Z_4] in the basis (1/2) d0, (-3/4) d1, (5/3) d2, (2/7) d3."""
    return rescaled(group_algebra(Q, 4), ["1/2", "-3/4", "5/3", "2/7"])


def half_unit_algebra():
    """Q x Q in the basis 2 u0, (3/2) u1: its unit is (1/2, 2/3)."""
    return rescaled(componentwise(Q, 2), [2, "3/2"])


def exel_partial_group_algebra(group, field):
    """K_par(G) as the algebra of Exel's semigroup S(G), in its basis (A, g).

    The reference for the groupoid-basis builder, and a dense input for the
    general path: every one of its dim^2 products is a nonzero basis vector.
    Its unit is b_0, since element 0 of S(G) is ({e}, e), the only one with
    |A| = 1, and ({e}, e)(B, h) = (B, h), (A, g)({e}, e) = (A u {g}, g) = (A, g).
    """
    table = exel_semigroup(group)
    n = len(table.elements)
    # one cell per product target, shared by every (i, j) whose product it is
    cells = [[(k, field.one)] for k in range(n)]
    return StructureAlgebra(field, n, [[cells[k] for k in row] for row in table.table],
                            unit=field.unit_vec(n, 0), labels=table.labels)


# -- semigroup algebras ---------------------------------------------------------------


def semigroup_algebra(field, elements, mul):
    """The algebra of a finite semigroup in the basis `elements`, in list order:
    b_s b_t = b_st, and 0 when st is not listed, so a semigroup's zero left out of
    the list is the zero of the algebra.  No unit is supplied."""
    at = {x: k for k, x in enumerate(elements)}
    cells = [[(k, field.one)] for k in range(len(elements))]
    table = [[cells[at[z]] if (z := mul(x, y)) in at else () for y in elements]
             for x in elements]
    return StructureAlgebra(field, len(elements), table, labels=[str(x) for x in elements])


def shuffled(xs, seed):
    """The list xs in a seeded random order."""
    return random.Random(seed).sample(list(xs), len(xs))


def partial_bijections(n):
    """The symmetric inverse monoid I_n: every partial bijection of {0, ..., n-1}, as
    the tuple of its images with None where it is undefined; the empty map comes first."""
    maps = itertools.product([None, *range(n)], repeat=n)
    return sorted((m for m in maps if len({x for x in m if x is not None})
                   == sum(x is not None for x in m)),
                  key=lambda m: (sum(x is not None for x in m), [-1 if x is None else x for x in m]))


def then(p, q):
    """The partial bijection p followed by q."""
    return tuple(None if x is None else q[x] for x in p)


def brandt(m, n):
    """The Brandt semigroup B(Z_m, n): the triples (i, g, j), i, j < n, g in Z_m, then
    its zero "0"; (i, g, j)(k, h, l) = (i, g + h, l) if j = k, and 0 otherwise."""
    def mul(x, y):
        if x == "0" or y == "0" or x[2] != y[0]:
            return "0"
        return (x[0], (x[1] + y[1]) % m, y[2])
    return [(i, g, j) for i in range(n) for g in range(m) for j in range(n)] + ["0"], mul


# -- partial actions --------------------------------------------------------------


def swap_action(field=Q):
    """Global Z/2 action swapping the coordinates of field^2."""
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 2)
    full = Subspace.full(field, 2)
    swap = Matrix(field, [[field.zero, field.one], [field.one, field.zero]])
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": full},
        {"g0": Matrix.identity(field, 2), "g1": swap},
    )


def restricted_swap_action(field=Q):
    """Partial Z/2 action on the field itself: the non-identity domain is zero."""
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 1)
    full = Subspace.full(field, 1)
    zero = Subspace.zero(field, 1)
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": zero},
        {"g0": Matrix.identity(field, 1), "g1": Matrix.zeros(field, 1, 1)},
    )


def corner_action(field=Q):
    """Partial Z/2 action on field^2 fixing the first coordinate ideal."""
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 2)
    full = Subspace.full(field, 2)
    corner = Subspace.from_vectors(field, 2, [[field.one, field.zero]])
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": corner},
        {"g0": Matrix.identity(field, 2), "g1": Matrix.identity(field, 2)},
    )


def shift_restriction_action(field=Q):
    """Z/4 cyclic shift of field^4 restricted to the first three coordinates."""
    g = gpd.cyclic_group(4)
    amb = componentwise(field, 3)
    full = Subspace.full(field, 3)
    e = [field.unit_vec(3, i) for i in range(3)]

    def span(*vs):
        return Subspace.from_vectors(field, 3, list(vs))

    domains = {"g0": full, "g1": span(e[1], e[2]), "g2": span(e[0], e[2]), "g3": span(e[0], e[1])}

    def shift(k):
        def f(v):
            out = field.zero_vec(3)
            for i, c in enumerate(v):
                j = (i + k) % 4
                if j < 3:
                    out[j] = c
                elif c:
                    raise ValueError("shift image left the restricted window")
            return out

        return f

    maps = {"g0": Matrix.identity(field, 3), "g1": shift(1), "g2": shift(2), "g3": shift(3)}
    return PartialAction.from_ambient_maps(g, amb, {"*": full}, domains, maps)


def pair_ring_action(n, field=Q):
    return groupoid_ring_action(gpd.pair_groupoid(n), scalar_algebra(field))


def octonion_trivial_action():
    """Trivial Z/2 action on the rational octonions (non-associative ambient)."""
    from grpd.algebra import cayley_dickson_chain

    g = gpd.cyclic_group(2)
    amb = cayley_dickson_chain(Q, 3)
    full = Subspace.full(Q, 8)
    ident = Matrix.identity(Q, 8)
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": full}, {"g0": ident, "g1": ident}
    )


def guard_action_f2():
    """Trivial Z/2 action on F_2: both Maschke premises fail."""
    F2 = Field(2)
    g = gpd.cyclic_group(2)
    amb = componentwise(F2, 1)
    full = Subspace.full(F2, 1)
    ident = Matrix.identity(F2, 1)
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": full}, {"g0": ident, "g1": ident}
    )


def unital_corpus():
    """Valid unital actions used across the property tests."""
    return [
        ("swap", swap_action()),
        ("restricted_swap", restricted_swap_action()),
        ("corner", corner_action()),
        ("shift_restriction", shift_restriction_action()),
        ("pair2_ring", pair_ring_action(2)),
        ("swap_f5", swap_action(Field(5))),
    ]


# -- single-axiom mutants ------------------------------------------------------------


def mutant_p1():
    """Identity domain shrunk below the component: exactly a (P1) failure.

    Also the finite-type negative: every domain is the first-coordinate
    ideal while the component is the whole plane.
    """
    field = Q
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 2)
    full = Subspace.full(field, 2)
    corner = Subspace.from_vectors(field, 2, [[field.one, field.zero]])
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": corner, "g1": corner},
        {"g0": Matrix.identity(field, 2), "g1": Matrix.identity(field, 2)},
    )


def mutant_p2():
    """A zeroed composite domain in the pair groupoid on three objects: (P2) only."""
    field = Q
    g = gpd.pair_groupoid(3)
    base = groupoid_ring_action(g, scalar_algebra(field))
    domains = dict(base.domains)
    maps = dict(base.maps)
    zero = Subspace.zero(field, base.ambient.dim)
    for m in ("(1,3)", "(3,1)"):
        domains[m] = zero
        maps[m] = Matrix.zeros(field, 0, 0)
    return PartialAction(g, base.ambient, base.object_components, domains, maps)


def mutant_p3():
    """The cross maps of the pair groupoid twisted by a coordinate swap: (P3) only."""
    field = Q
    g = gpd.pair_groupoid(2)
    amb = componentwise(field, 4)  # two objects, each carrying field^2
    e = [field.unit_vec(4, i) for i in range(4)]

    def span(*vs):
        return Subspace.from_vectors(field, 4, list(vs))

    comp = {"1": span(e[0], e[1]), "2": span(e[2], e[3])}
    domains = {"(1,1)": comp["1"], "(2,2)": comp["2"], "(1,2)": comp["1"], "(2,1)": comp["2"]}
    ident2 = Matrix.identity(field, 2)
    swap2 = Matrix(field, [[field.zero, field.one], [field.one, field.zero]])
    maps = {"(1,1)": ident2, "(2,2)": ident2, "(2,1)": ident2, "(1,2)": swap2}
    return PartialAction(g, amb, comp, domains, maps)


def mutant_p4():
    """Both object components equal: the decomposition overlaps, (P4) only."""
    field = Q
    g = gpd.pair_groupoid(2)
    amb = componentwise(field, 2)
    corner = Subspace.from_vectors(field, 2, [[field.one, field.zero]])
    comp = {"1": corner, "2": corner}
    domains = {m: corner for m in g.morphisms}
    maps = {m: Matrix.identity(field, 1) for m in g.morphisms}
    return PartialAction(g, amb, comp, domains, maps)


def mutant_ideal():
    """Non-identity domain replaced by the diagonal subalgebra: ideal-ness only."""
    field = Q
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 2)
    full = Subspace.full(field, 2)
    diag = Subspace.from_vectors(field, 2, [[field.one, field.one]])
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": diag},
        {"g0": Matrix.identity(field, 2), "g1": Matrix.identity(field, 2)},
    )


def mutant_mult():
    """A linear involution that is not a ring map: multiplicativity only."""
    field = Q
    g = gpd.cyclic_group(2)
    amb = componentwise(field, 2)
    full = Subspace.full(field, 2)
    o, z = field.one, field.zero
    crooked = Matrix(field, [[o, o], [z, -o]])  # squares to the identity
    return PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full, "g1": full},
        {"g0": Matrix.identity(field, 2), "g1": crooked},
    )


def mutants():
    return {
        "P1": mutant_p1(),
        "P2": mutant_p2(),
        "P3": mutant_p3(),
        "P4": mutant_p4(),
        "ideal": mutant_ideal(),
        "multiplicative": mutant_mult(),
    }


def violation_rules(violations):
    """Set of distinct rule names occurring in a violation list."""
    return {v.rule for v in violations}


# -- graphs ---------------------------------------------------------------------------


def corpus_graphs():
    return {
        "single": lv.DirectedGraph(["v"], []),
        "A2": lv.DirectedGraph(["v", "w"], [("f", "v", "w")]),
        "A3": lv.DirectedGraph(
            ["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")]
        ),
        "parallel": lv.DirectedGraph(["v", "w"], [("f1", "v", "w"), ("f2", "v", "w")]),
        "tree": lv.DirectedGraph(
            ["u", "c1", "c2", "l1", "l2", "l3", "l4"],
            [
                ("e1", "u", "c1"),
                ("e2", "u", "c2"),
                ("a1", "c1", "l1"),
                ("a2", "c1", "l2"),
                ("a3", "c2", "l3"),
                ("a4", "c2", "l4"),
            ],
        ),
        "disjoint": lv.DirectedGraph(["v", "w", "x"], [("f", "v", "w")]),
    }


def line_graph(n):
    """The line A_n: v1 -> v2 -> ... -> vn."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    return lv.DirectedGraph(vs, [(f"e{i}", vs[i - 1], vs[i]) for i in range(1, n)])


def cycle_graph(n):
    """The n-cycle c0 -> c1 -> ... -> c(n-1) -> c0."""
    vs = [f"c{i}" for i in range(n)]
    return lv.DirectedGraph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def isolated_vertices(n):
    return lv.DirectedGraph([f"i{k}" for k in range(n)], [])


def leavitt_model(graph, field):
    """The census of a graph and its GrSkewModel, None when the graph has a cycle."""
    census = lv.graph_analysis(graph)
    return census, (lv.GrSkewModel(census, field) if census.acyclic else None)


def cyclic_graphs():
    return {
        "loop": lv.DirectedGraph(["v"], [("f", "v", "v")]),
        "two_cycle": lv.DirectedGraph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")]),
    }


# -- dense forms of raw operations, for the tests that call them -----------------------


def from_columns(field, cols, nrows=0):
    """The Matrix with the given dense columns; nrows x 0 when there are none."""
    return Matrix(field, [list(r) for r in zip(*cols)] if cols else [[]] * nrows, len(cols))


def inverse(m):
    """The inverse of a square Matrix, solved column by column; None if m is singular."""
    n = m.nrows
    if rref(m)[1] < n:
        return None
    return from_columns(m.field, [solve(m, m.field.unit_vec(n, j)) for j in range(n)], n)


def expand(space, coords):
    """The ambient vector with the given RREF-basis coordinates in a Subspace."""
    row = _combine(_sparse(space.field, coords), list(space._rows.values()), space.field.char)
    return _dense(space.field, row, space.ambient_dim)


def minimal_polynomial(alg, x, one):
    """Monic minimal polynomial [a_0, ..., 1] of the dense x by `_min_poly`, `one` as x^0."""
    x, one = alg._row(x), alg._row(one)
    if alg._mul(one, x) != x:
        raise PreconditionError("minimal polynomial needs an identity for the element")
    return [alg.field(c) for c in _min_poly(alg, x, one)[0]]


def domain_unit(pa, g):
    """The unit 1_g of R_g as a dense ambient vector, zero when R_g = 0; None if R_g has none."""
    u = pa._unit_row(g)
    return None if u is None else _dense(pa.ambient.field, u, pa.ambient.dim)


def indicator(xs, field, indices):
    """The dense vector on the points of an XSpace that is 1 at the indices, 0 elsewhere."""
    return _dense(field, dict.fromkeys(indices, field.one), len(xs.points))

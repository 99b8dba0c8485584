"""Skew ring builders, partial group algebras, quotients, Maschke machinery."""

import pytest

import corpus
from grpd.errors import PreconditionError
from grpd.exactlin import Field, Matrix, Subspace, solve
from grpd.algebra import grading_respected
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.skewring import (
    GradedModule,
    analyze_algebra,
    build_groupoid_ring,
    build_partial_group_algebra,
    build_skew_groupoid_ring,
    delta_element,
    exel_semigroup,
    invert_in,
    maschke_check,
    maschke_split,
    matrix_units_isomorphism,
    quotient_by_ideal,
    skew_layout,
)

Q = Field(0)


def test_trivial_group_on_field_gives_field():
    pa = corpus.pair_ring_action(1)
    alg = build_skew_groupoid_ring(pa)
    assert alg.dim == 1
    assert alg.unit == [Q.one]


def test_swap_skew_ring_is_m2():
    alg = build_skew_groupoid_ring(corpus.swap_action())
    rep = analyze_algebra(alg)
    assert rep["dim"] == 4
    assert rep["semisimple"] is True
    assert rep["blocks"] == [4]
    assert rep["center_dim"] == 1
    assert rep["grading_ok"] is True


def test_skew_ring_grading_law():
    for name, pa in corpus.unital_corpus():
        alg = build_skew_groupoid_ring(pa)
        g0 = pa.groupoid

        def compose(a, b):
            return g0.compose(a, b) if g0.is_composable(a, b) else None

        assert grading_respected(alg, compose) is True, name


def test_skew_ring_associative_when_ambient_is():
    for name, pa in corpus.unital_corpus():
        alg = build_skew_groupoid_ring(pa)
        assert alg.is_associative(), name


def test_skew_ring_alternative_over_octonions():
    alg = build_skew_groupoid_ring(corpus.octonion_trivial_action())
    assert alg.dim == 16
    assert not alg.is_associative()
    assert alg.is_alternative()


def test_unit_formula():
    for name, pa in corpus.unital_corpus():
        alg = build_skew_groupoid_ring(pa)
        assert alg.unit is not None, name
        offsets, total = skew_layout(pa)
        manual = pa.ambient.field.zero_vec(total)
        for e in pa.groupoid.objects:
            i = pa.groupoid.identity[e]
            u = pa.domain_unit(i)
            if u is None:
                continue
            part = delta_element(pa, i, u, offsets, total)
            manual = [a + b for a, b in zip(manual, part)]
        assert alg.unit == manual, name


def test_invalid_action_rejected():
    with pytest.raises(PreconditionError):
        build_skew_groupoid_ring(corpus.mutant_p3())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_ring(n):
    alg = build_groupoid_ring(gpd.pair_groupoid(n), corpus.scalar_algebra(Q))
    assert alg.dim == n * n
    assert alg.jacobson_radical().dim == 0
    assert alg.wedderburn_blocks().dims() == [n * n]
    result = matrix_units_isomorphism(alg, n, corpus.scalar_algebra(Q))
    assert result
    assert result.checks == n ** 4


def test_matrix_units_counterexample():
    # the group algebra of Z/2 is not the trivial matrix ring over dual numbers
    alg = corpus.group_algebra(Q, 2)
    alg.grading = {0: "(1,1)", 1: "(1,1)"}
    res = matrix_units_isomorphism(alg, 1, corpus.dual_numbers(Q))
    assert not res and res.counterexample


def test_groupoid_ring_of_group_is_group_algebra():
    alg = build_groupoid_ring(gpd.cyclic_group(2), corpus.scalar_algebra(Q))
    assert alg.dim == 2
    assert sorted(alg.wedderburn_blocks().dims()) == [1, 1]


def test_groupoid_ring_two_components():
    two = gpd.disjoint_union(gpd.cyclic_group(1), gpd.pair_groupoid(2))
    coeffs = {"A:*": corpus.scalar_algebra(Q), "B:1": corpus.scalar_algebra(Q)}
    alg = build_groupoid_ring(two, coeffs)
    assert alg.dim == 5
    assert sorted(alg.wedderburn_blocks().dims()) == [1, 4]


def test_groupoid_ring_matrix_coefficients():
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    alg = build_groupoid_ring(gpd.cyclic_group(2), m2)
    assert alg.dim == 8
    assert sorted(alg.wedderburn_blocks().dims()) == [4, 4]


def test_groupoid_ring_needs_unital_coefficients():
    from grpd.algebra import StructureAlgebra

    zero_alg = StructureAlgebra(Q, 1, [[[]]])
    with pytest.raises(PreconditionError):
        build_groupoid_ring(gpd.cyclic_group(2), zero_alg)


# -- Exel semigroup and partial group algebras --------------------------------------


def test_exel_semigroup_z2():
    table = exel_semigroup(gpd.cyclic_group(2))
    assert len(table.elements) == 3
    assert table.validate() == []


def test_exel_semigroup_z3_size_formula():
    g = gpd.cyclic_group(3)
    table = exel_semigroup(g)
    # independent enumeration: sum of |A| over subsets containing the identity
    elems = g.morphisms
    e = g.identity["*"]
    total = 0
    for mask in range(1 << len(elems)):
        a = {elems[i] for i in range(len(elems)) if mask & (1 << i)}
        if e in a:
            total += len(a)
    assert len(table.elements) == total == 8
    assert table.validate() == []


def test_partial_group_algebra_z2():
    alg = build_partial_group_algebra(gpd.cyclic_group(2), Q)
    assert alg.dim == 3
    assert alg.is_semisimple()
    assert alg.wedderburn_blocks().dims() == [1, 1, 1]


def test_partial_group_algebra_trivial():
    alg = build_partial_group_algebra(gpd.cyclic_group(1), Q)
    assert alg.dim == 1 and alg.unit == [Q.one]


def test_partial_group_algebra_z3():
    alg = build_partial_group_algebra(gpd.cyclic_group(3), Q)
    assert alg.dim == 8
    assert alg.is_semisimple()


# -- quotients ------------------------------------------------------------------------


def test_quotient_examples():
    alg = corpus.dual_numbers(Q)
    zero = Subspace.zero(Q, 2)
    q0 = quotient_by_ideal(alg, zero)
    assert q0.dim == 2 and q0.table == alg.table
    qfull = quotient_by_ideal(alg, Subspace.full(Q, 2))
    assert qfull.dim == 0
    rad = alg.jacobson_radical()
    q = quotient_by_ideal(alg, rad)
    assert q.dim == 1 and q.unit == [Q.one]


def test_quotient_projection_multiplicative():
    alg = corpus.upper_triangular2(Q)
    rad = alg.jacobson_radical()
    q = quotient_by_ideal(alg, rad)
    keep = [k for k in range(alg.dim) if k not in set(rad.pivots)]

    def project(v):
        red = rad.reduce(v)
        return [red[c] for c in keep]

    for i in range(alg.dim):
        for j in range(alg.dim):
            x = alg.basis_vector(i)
            y = alg.basis_vector(j)
            assert project(alg.multiply(x, y)) == q.multiply(project(x), project(y))


def test_quotient_requires_ideal():
    alg = corpus.upper_triangular2(Q)
    not_ideal = Subspace.from_vectors(Q, 3, [[Q.one, Q.zero, Q.zero]])  # E11 alone
    with pytest.raises(PreconditionError):
        quotient_by_ideal(alg, not_ideal)


# -- Maschke machinery ------------------------------------------------------------------


def test_maschke_check_premise_true_cases():
    for name, pa in [
        ("swap", corpus.swap_action()),
        ("pair2", corpus.pair_ring_action(2)),
        ("swap_f5", corpus.swap_action(Field(5))),
        ("corner", corpus.corner_action()),
        ("shift", corpus.shift_restriction_action()),
    ]:
        rep = maschke_check(pa)
        assert rep.r_semisimple is True, name
        assert rep.premises_isotropy is True, name
        assert rep.premises_trace is True, name
        assert rep.skew_semisimple is True, name
        assert rep.implication_isotropy == "holds", name
        assert rep.implication_trace == "holds", name
        assert rep.park["support_size"] == len(pact.support(pa)), name
        assert rep.park["morphism_count"] == len(pa.groupoid.morphisms), name
        assert sum(rep.park["component_dims"].values()) == pa.ambient.dim, name


def test_maschke_guard_case():
    rep = maschke_check(corpus.guard_action_f2())
    assert rep.r_semisimple is True
    assert rep.isotropy_invertible == {"*": False}
    assert rep.trace_invertible is False
    assert rep.premises_isotropy is False
    assert rep.premises_trace is False
    assert rep.implication_isotropy == "premises unmet"
    assert rep.implication_trace == "premises unmet"
    assert isinstance(rep.skew_semisimple, str)  # radical window: no claim either way


def test_trace_of_unit_invertible_swap():
    pa = corpus.swap_action()
    tr = pact.trace_map(pa, pa.ambient.find_unit())
    assert tr == [Q(2), Q(2)]
    assert invert_in(pa.ambient, tr) == [Q("1/2"), Q("1/2")]


# -- the averaged projection --------------------------------------------------------------


def _module_closure(module, seed_vecs):
    space = Subspace.from_vectors(module.algebra.field, module.dim, seed_vecs)
    while True:
        new = []
        for i in range(module.algebra.dim):
            for v in space.basis:
                w = module.action[i].apply(v)
                if not space.contains(w):
                    new.append(w)
        if not new:
            return space
        space = Subspace.from_vectors(
            module.algebra.field, module.dim, space.basis + new
        )


def _solve_r_linear_projection(pa, module, w):
    """An R-linear projection onto w: solve for C in P = wb C.

    Constraints, all linear in the d x n unknown C: P v = v on the basis of
    w, and A_i P = P A_i for the action matrices of the identity degrees.
    """
    field = module.algebra.field
    offsets, _ = skew_layout(pa)
    wb = Matrix.from_columns(field, w.basis, module.dim)
    d = w.dim
    n = module.dim
    id_idx = []
    for e in pa.groupoid.objects:
        i = pa.groupoid.identity[e]
        id_idx.extend(range(offsets[i], offsets[i] + pa.domains[i].dim))

    def c_index(r, c):
        return r * n + c

    rows = []
    rhs = []
    for v in w.basis:  # P v = wb (C v) = v, i.e. C v = coords of v in w
        coords = w.coords(v)
        for r in range(d):
            row = [field.zero] * (d * n)
            for c in range(n):
                row[c_index(r, c)] = v[c]
            rows.append(row)
            rhs.append(coords[r])
    for i in id_idx:  # (A_i wb) C = wb C A_i entrywise
        a = module.action[i]
        awb = a.mul(wb)  # n x d
        for r in range(n):
            for c in range(n):
                row = [field.zero] * (d * n)
                for k in range(d):
                    row[c_index(k, c)] = row[c_index(k, c)] + awb.rows[r][k]
                for k in range(d):
                    for c2 in range(n):
                        row[c_index(k, c2)] = row[c_index(k, c2)] - wb.rows[r][k] * a.rows[c2][c]
                rows.append(row)
                rhs.append(field.zero)
    sol = solve(Matrix(field, rows), rhs)
    assert sol is not None, "no R-linear projection exists"
    cmat = Matrix(field, [sol[r * n:(r + 1) * n] for r in range(d)])
    return wb.mul(cmat)


def test_maschke_split_trivial_cases():
    pa = corpus.swap_action()
    alg = build_skew_groupoid_ring(pa)
    module = GradedModule.regular(alg)
    assert module.validate() == []
    full = Subspace.full(Q, module.dim)
    psi = maschke_split(pa, module, full, Matrix.identity(Q, module.dim))
    assert psi == Matrix.identity(Q, module.dim)
    zero = Subspace.zero(Q, module.dim)
    psi0 = maschke_split(pa, module, zero, Matrix.zeros(Q, module.dim, module.dim))
    assert psi0 == Matrix.zeros(Q, module.dim, module.dim)


def test_maschke_split_regular_module_column():
    pa = corpus.swap_action()
    alg = build_skew_groupoid_ring(pa)
    module = GradedModule.regular(alg)
    w = _module_closure(module, [alg.basis_vector(0)])
    assert 0 < w.dim < module.dim
    pi = _solve_r_linear_projection(pa, module, w)
    psi = maschke_split(pa, module, w, pi)
    # psi is a projection onto w
    assert psi.mul(psi) == psi
    for j in range(module.dim):
        assert w.contains(psi.column(j))
    for v in w.basis:
        assert psi.apply(v) == v
    # psi commutes with the whole skew ring action
    for i in range(alg.dim):
        assert psi.mul(module.action[i]) == module.action[i].mul(psi)


def test_maschke_split_rejects_bad_projection():
    pa = corpus.swap_action()
    alg = build_skew_groupoid_ring(pa)
    module = GradedModule.regular(alg)
    w = _module_closure(module, [alg.basis_vector(0)])
    with pytest.raises(PreconditionError):
        maschke_split(pa, module, w, Matrix.identity(Q, module.dim))


def test_analyze_report_octonions():
    from grpd.algebra import cayley_dickson_chain

    rep = analyze_algebra(cayley_dickson_chain(Q, 3))
    assert rep["associative"] is False
    assert rep["alternative"] is True
    assert rep["center_dim"] == 1
    assert rep["semisimple"] == "undecided"
    assert rep["radical_dim"] is None

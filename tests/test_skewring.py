"""Skew ring builders, partial group algebras, quotients, Maschke machinery."""

import re
import time
import tracemalloc

import pytest

import corpus
from grpd.errors import DimensionError, PreconditionError, UnsupportedError
from grpd.exactlin import Field, Matrix, Subspace, solve
from grpd.algebra import StructureAlgebra, grading_respected
from grpd import groupoid as gpd
from grpd import leavitt as lv
from grpd import paction as pact
from grpd.skewring import (
    GradedModule,
    analyze_algebra,
    build_groupoid_ring,
    build_partial_group_algebra,
    build_skew_groupoid_ring,
    delta_element,
    exel_semigroup,
    groupoid_ring_action,
    invert_in,
    maschke_check,
    maschke_split,
    matrix_units_isomorphism,
    quotient_by_ideal,
    skew_layout,
    skew_product_ring,
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
        assert alg.grading[0] is pa.groupoid, name
        assert grading_respected(alg) is True, name


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
            u = corpus.domain_unit(pa, i)
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
    qz2 = corpus.group_algebra(Q, 2)
    alg = StructureAlgebra(Q, 2, corpus.table_of(qz2), qz2.unit,
                           grading=(gpd.pair_groupoid(1), ["(1,1)", "(1,1)"]))
    res = matrix_units_isomorphism(alg, 1, corpus.dual_numbers(Q))
    assert not res and res.counterexample
    assert (res.counterexample, res.checks) == ("E(1,1)[1] * E(1,1)[1] broke the matrix-unit law", 4)


def test_matrix_units_counterexample_mid_loop():
    # with the degrees of E_12 and E_21 swapped, E_11 "E_12" = E_11 E_21 = 0 is the second check
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    swap = {"(1,2)": "(2,1)", "(2,1)": "(1,2)"}
    g0, degrees = m2.grading
    m2 = StructureAlgebra(Q, 4, corpus.table_of(m2), m2.unit,
                          grading=(g0, [swap.get(d, d) for d in degrees]))
    res = matrix_units_isomorphism(m2, 2, corpus.scalar_algebra(Q))
    assert (res.mapping, res.counterexample, res.checks) == (
        None, "E(1,1)[0] * E(1,2)[0] broke the matrix-unit law", 2)
    whole = matrix_units_isomorphism(build_groupoid_ring(gpd.pair_groupoid(2), corpus.dual_numbers(Q)),
                                          2, corpus.dual_numbers(Q))
    assert whole.checks == 2 ** 4 * 2 ** 2
    assert list(whole.mapping.items())[:3] == [((1, 1, 0), 0), ((1, 1, 1), 1), ((1, 2, 0), 2)]


def test_matrix_units_counterexamples_before_any_product():
    res = matrix_units_isomorphism(corpus.group_algebra(Q, 2), 1, corpus.scalar_algebra(Q))
    assert (res.mapping, res.counterexample, res.checks) == (None, "algebra carries no grading", 0)
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    res = matrix_units_isomorphism(m2, 2, corpus.dual_numbers(Q))
    assert not res and res.checks == 0
    assert res.counterexample == "degree (1,1) has 1 basis vectors, wanted 2"


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


def test_groupoid_ring_of_the_empty_groupoid_takes_the_field_of_its_coefficients():
    # no component names an algebra, so the field comes from the supplied ones
    empty = gpd.from_dict({"objects": [], "morphisms": []})
    for coeffs in ({"unused": corpus.scalar_algebra(Field(5))}, corpus.scalar_algebra(Field(5))):
        alg = build_groupoid_ring(empty, coeffs)
        assert (alg.dim, alg.field, alg.find_unit()) == (0, Field(5), [])


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
    assert corpus.exel_partial_group_algebra(gpd.cyclic_group(2), Q).is_associative()


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
    assert corpus.exel_partial_group_algebra(g, Q).is_associative()


def test_skew_ring_over_the_dimension_limit_is_refused():
    # two degrees with 600-dimensional domains, refused before any product is taken
    domains = {g: Subspace.coordinate(Q, 600, range(600)) for g in "ab"}
    with pytest.raises(UnsupportedError, match="dimension 1200, above the limit"):
        skew_product_ring(Q, "ab", domains, [("a", "b", "a")], None, None, None, str, None, None)


def test_groupoid_ring_over_the_dimension_limit_is_refused_before_any_table(monkeypatch):
    # degree g has the dimension of R at c(g): 1100 objects with their identities over
    # Q x Q give 2200, refused before the ambient algebra of the same size is built
    coeff = corpus.componentwise(Q, 2)
    g = gpd.from_dict({"objects": [f"o{i}" for i in range(1100)], "morphisms": []})

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(StructureAlgebra, "__init__", refuse)
    with pytest.raises(UnsupportedError, match="dimension 2200, above the limit"):
        build_groupoid_ring(g, coeff)
    # one coefficient algebra per component, each a copy of Q x Q at the object
    with pytest.raises(UnsupportedError, match="dimension 2200, above the limit"):
        build_groupoid_ring(g, {e: coeff for e in g.objects})


def toy_skew_product(triples):
    """The kernel on Q x Q with D_a = Q e0, D_b = Q e1, every alpha the identity."""
    domains = {"a": Subspace.coordinate(Q, 2, [0]), "b": Subspace.coordinate(Q, 2, [1])}

    def mul(x, y):
        return {k: x[k] * y[k] for k in x if k in y}

    return skew_product_ring(Q, "ab", domains, triples, lambda g: g, lambda g, x: x, mul, str, None,
                             None)


def test_skew_product_of_degrees_with_no_product_degree_must_vanish():
    toy_skew_product([("a", "b", "c")])  # e0 e1 = 0 may go nowhere
    with pytest.raises(RuntimeError, match="escaped the support"):
        toy_skew_product([("a", "a", "c")])  # e0 e0 = e0, but "c" is not a degree


def test_skew_product_outside_the_product_domain_is_refused():
    alg, offsets = toy_skew_product([("a", "a", "a"), ("b", "b", "b")])
    assert offsets == {"a": 0, "b": 1} and alg.multiply([1, 1], [1, 1]) == [1, 1]
    with pytest.raises(PreconditionError, match=r"product of degrees a, a left R_\(b\)"):
        toy_skew_product([("a", "a", "b")])  # e0 e0 = e0 does not lie in D_b = Q e1


@pytest.mark.parametrize("build, held_mb, peak_mb", [
    pytest.param(lambda: build_groupoid_ring(gpd.pair_groupoid(16), corpus.scalar_algebra(Q)),
                 3, 4.5, id="pair-groupoid-16"),
    pytest.param(lambda: lv.build_gr_skew_ring(corpus.line_graph(20), Q), 6, 9, id="A20"),
])
def test_builders_hold_memory_for_the_nonzero_products_only(build, held_mb, peak_mb):
    # allocation sizes do not depend on timing, so these bounds are deterministic
    tracemalloc.start()
    try:
        alg = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim in (256, 400)
    assert held < held_mb * 1e6 and peak < peak_mb * 1e6, (held, peak)


def test_groupoid_ring_over_the_dimension_limit_is_refused_before_validating(monkeypatch):
    # R[G] for the pair groupoid on 33 objects has dimension 33^2 = 1089
    def refuse(pa):
        raise AssertionError("the bound must come before validation")

    monkeypatch.setattr(pact, "validate_action", refuse)
    g = gpd.pair_groupoid(33)
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedError, match="dimension 1089, above the limit"):
        build_groupoid_ring(g, corpus.scalar_algebra(Q))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("order", range(1, 7))
def test_exel_semigroup_size_is_the_bounded_one(order):
    # the size exel_semigroup checks against MAX_DIM before its subset scan
    assert len(exel_semigroup(gpd.cyclic_group(order)).elements) == 2 ** order * (order + 1) // 4


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
    assert q0.dim == 2 and corpus.table_of(q0) == corpus.table_of(alg)
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


@pytest.mark.parametrize("call, message", [
    (lambda: groupoid_ring_action(gpd.pair_groupoid(2), {"2": corpus.scalar_algebra(Q)}),
     "no coefficient algebra for component of '1'"),
    (lambda: groupoid_ring_action(
        gpd.disjoint_union(gpd.cyclic_group(1), gpd.cyclic_group(1)),
        {"A:*": corpus.scalar_algebra(Q), "B:*": corpus.scalar_algebra(Field(5))}),
     "coefficient algebras live over different fields"),
    (lambda: build_groupoid_ring(gpd.from_dict({"objects": [], "morphisms": []}), {}),
     "no coefficient algebra is supplied, so the ring has no field"),
    (lambda: exel_semigroup(gpd.pair_groupoid(2)),
     "partial group algebras need a one-object groupoid"),
    (lambda: quotient_by_ideal(corpus.upper_triangular2(Q), Subspace.full(Q, 2)),
     "ideal lives in a different ambient space"),
], ids=["missing_coefficients", "mixed_fields", "no_field", "two_objects", "other_ambient"])
def test_builder_refusals(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()


def test_invert_in_a_non_unital_algebra_finds_nothing():
    line = StructureAlgebra(Q, 1, [[[]]])  # b_0 b_0 = 0: no unit
    assert line.find_unit() is None
    assert invert_in(line, [Q.one]) is None


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
        assert rep["r_semisimple"] is True, name
        assert rep["premises_isotropy"] is True, name
        assert rep["premises_trace"] is True, name
        assert rep["skew_semisimple"] is True, name
        assert rep["implication_isotropy"] == "holds", name
        assert rep["implication_trace"] == "holds", name
        park = rep["park_criterion"]
        assert park["support_size"] == len(pact.support(pa)), name
        assert park["morphism_count"] == len(pa.groupoid.morphisms), name
        assert sum(park["component_dims"].values()) == pa.ambient.dim, name


def test_maschke_guard_case():
    rep = maschke_check(corpus.guard_action_f2())
    assert rep["r_semisimple"] is True
    assert rep["isotropy_invertible"] == {"*": False}
    assert rep["trace_invertible"] is False
    assert rep["premises_isotropy"] is False
    assert rep["premises_trace"] is False
    assert rep["implication_isotropy"] == "premises unmet"
    assert rep["implication_trace"] == "premises unmet"
    assert isinstance(rep["skew_semisimple"], str)  # radical window: no claim either way


def test_trace_of_unit_invertible_swap():
    pa = corpus.swap_action()
    tr = pact.trace_map(pa, pa.ambient.find_unit())
    assert tr == [Q(2), Q(2)]
    assert invert_in(pa.ambient, tr) == [Q("1/2"), Q("1/2")]


def test_invert_in_refuses_a_one_sided_inverse():
    # basis 1, a, b with a b = 1 and b a = a^2 = b^2 = 0: a y = 1 is solved by
    # y = b, yet b a = 0, so a has no two-sided inverse
    one, a, b = ([(k, Q.one)] for k in range(3))
    alg = StructureAlgebra(Q, 3, [[one, a, b], [a, (), one], [b, (), ()]],
                           unit=[Q.one, Q.zero, Q.zero])
    assert alg.multiply(alg.basis_vector(1), alg.basis_vector(2)) == alg.find_unit()
    assert invert_in(alg, alg.basis_vector(1)) is None


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
    wb = corpus.from_columns(field, w.basis, module.dim)
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


def test_maschke_split_refuses_an_action_that_does_not_validate():
    pa = corpus.mutant_p3()
    module = GradedModule.regular(build_skew_groupoid_ring(corpus.pair_ring_action(2)))
    w = Subspace.full(Q, module.dim)
    with pytest.raises(PreconditionError, match=r"action does not validate: \[P3\]"):
        maschke_split(pa, module, w, Matrix.identity(Q, module.dim))


def test_maschke_split_refuses_a_module_that_does_not_validate():
    # b_3 acting twice over: not a module, and with w everything and pi the
    # identity the average would be 3/2 I, which is no projection
    pa = corpus.swap_action()
    module = GradedModule.regular(build_skew_groupoid_ring(pa))
    action = list(module.action)
    action[3] = action[3].scale(Q(2))
    broken = GradedModule(module.algebra, module.dim, action)
    assert broken.validate() == [(2, 3), (3, 2)]
    w = Subspace.full(Q, module.dim)
    with pytest.raises(PreconditionError, match="module breaks the module axioms"):
        maschke_split(pa, broken, w, Matrix.identity(Q, module.dim))
    assert maschke_split(pa, module, w, Matrix.identity(Q, module.dim)) == Matrix.identity(Q, module.dim)


def test_graded_module_validate_names_the_broken_pairs():
    alg = build_skew_groupoid_ring(corpus.swap_action())
    regular = GradedModule.regular(alg)
    # doubling the matrix of b_3 (g1:1) breaks the law at b_2 b_3 and b_3 b_2, products in degree g0
    k = alg.dim - 1
    perturbed = GradedModule(alg, regular.dim, regular.action[:k] + [regular.action[k].scale(2)])
    assert perturbed.validate() == [(k - 1, k), (k, k - 1)]
    # the zero action respects every product, but the unit does not act as the identity
    zero = GradedModule(alg, regular.dim, [Matrix.zeros(Q, regular.dim, regular.dim)] * alg.dim)
    assert zero.validate() == [("unit",)]


def test_graded_module_refuses_action_matrices_of_the_wrong_number_or_shape():
    alg = build_skew_groupoid_ring(corpus.swap_action())
    regular = GradedModule.regular(alg)
    with pytest.raises(DimensionError):
        GradedModule(alg, regular.dim, regular.action[:-1])
    two = corpus.componentwise(Q, 2)
    with pytest.raises(DimensionError):
        GradedModule(two, 2, [Matrix.identity(Q, 3)] * 2)
    with pytest.raises(DimensionError):
        GradedModule(two, 2, [Matrix.identity(Q, 2), Matrix.zeros(Q, 2, 3)])


def test_analyze_report_octonions():
    from grpd.algebra import cayley_dickson_chain

    rep = analyze_algebra(cayley_dickson_chain(Q, 3))
    assert rep["associative"] is False
    assert rep["alternative"] is True
    assert rep["center_dim"] == 1
    assert rep["semisimple"] == "undecided"
    assert rep["radical_dim"] is None

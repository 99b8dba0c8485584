"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; the only tolerances are the stated
wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

import corpus
from grpd.exactlin import Field, Subspace
from grpd.algebra import cayley_dickson_chain
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd import skewring as sk
from grpd import leavitt as lv

Q = Field(0)


def _announce(num, name, started=None):
    extra = f" ({time.perf_counter() - started:.2f}s)" if started is not None else ""
    print(f"ACCEPTANCE {num} ({name}): PASS{extra}")


def test_acceptance_1_matrix_ring_realization():
    started = time.perf_counter()
    scalar = corpus.scalar_algebra(Q)
    for n in (1, 2, 3):
        alg = sk.build_groupoid_ring(gpd.pair_groupoid(n), scalar)
        assert alg.dim == n * n
        assert alg.jacobson_radical().dim == 0
        assert alg.wedderburn_blocks().dims() == [n * n]
        result = sk.matrix_units_isomorphism(alg, n, scalar)
        assert result and result.checks == n ** 4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"matrix-ring suite took {elapsed:.2f}s"
    _announce(1, "matrix-ring realization", started)


def test_acceptance_2_leavitt_two_model_agreement():
    started = time.perf_counter()
    graphs = corpus.corpus_graphs()
    assert len(graphs) >= 6
    for name, g in graphs.items():
        rep = lv.phi_isomorphism_check(lv.GrSkewModel(lv.graph_analysis(g), Q))
        dims = rep["two_model_dims"]
        assert dims[0] == dims[1], name
        assert rep["phi_relations_ok"], (name, rep.get("phi_first_failure"))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"two-model suite took {elapsed:.2f}s"
    _announce(2, "Leavitt two-model agreement", started)


def test_acceptance_3_block_structure():
    started = time.perf_counter()
    for name, g in corpus.corpus_graphs().items():
        rep = lv.lpa_characterization(*corpus.leavitt_model(g, Q))
        counts = sorted(rep["sink_path_counts"].values())
        assert rep["block_sizes"] == counts, name
        assert rep["dim"] == sum(c * c for c in counts), name
        assert rep["blocks_match_sinks"] is True, name
    # the named examples, exactly
    a3 = lv.lpa_characterization(*corpus.leavitt_model(corpus.corpus_graphs()["A3"], Q))
    assert a3["block_sizes"] == [3] and a3["dim"] == 9
    par = lv.lpa_characterization(*corpus.leavitt_model(corpus.corpus_graphs()["parallel"], Q))
    assert par["block_sizes"] == [3] and par["dim"] == 9
    _announce(3, "block sizes equal sink path counts", started)


def test_acceptance_4_trivial_hs_lattice_simplicity():
    started = time.perf_counter()
    seen_applicable = 0
    for name, g in corpus.corpus_graphs().items():
        hs = lv.hereditary_saturated_subsets(g)
        trivial = all(len(h) in (0, len(g.vertices)) for h in hs)
        rep = lv.lpa_characterization(*corpus.leavitt_model(g, Q))
        assert rep["trivial_hs_lattice"] == trivial, name
        if trivial:
            seen_applicable += 1
            assert rep["one_block"] is True, name
    assert seen_applicable >= 3
    _announce(4, "trivial hereditary-saturated lattice forces one block", started)


def test_acceptance_5_partial_group_algebras():
    started = time.perf_counter()
    z2 = gpd.cyclic_group(2)
    alg2 = sk.build_partial_group_algebra(z2, Q)
    assert alg2.dim == 3
    assert alg2.is_semisimple()
    assert alg2.wedderburn_blocks().dims() == [1, 1, 1]

    z3 = gpd.cyclic_group(3)
    alg3 = sk.build_partial_group_algebra(z3, Q)
    elems = z3.morphisms
    ident = z3.identity["*"]
    expected = 0
    for mask in range(1 << len(elems)):
        subset = {elems[i] for i in range(len(elems)) if mask & (1 << i)}
        if ident in subset:
            expected += len(subset)
    assert alg3.dim == expected
    assert alg3.is_semisimple()
    _announce(5, "partial group algebras", started)


def test_acceptance_6_maschke_suite():
    started = time.perf_counter()
    premise_true = [
        ("swap", corpus.swap_action()),
        ("pair2_ring", corpus.pair_ring_action(2)),
        ("corner", corpus.corner_action()),
        ("shift_restriction", corpus.shift_restriction_action()),
        ("swap_f5", corpus.swap_action(Field(5))),  # p = 5 does not divide |G_e| = 2
    ]
    assert len(premise_true) >= 4
    for name, pa in premise_true:
        rep = sk.maschke_check(pa)
        assert rep["premises_isotropy"] is True, name
        assert rep["premises_trace"] is True, name
        assert rep["skew_semisimple"] is True, name
        assert rep["implication_isotropy"] == "holds", name
        assert rep["implication_trace"] == "holds", name

    guard = sk.maschke_check(corpus.guard_action_f2())
    assert guard["premises_isotropy"] is False
    assert guard["premises_trace"] is False
    assert guard["implication_isotropy"] == "premises unmet"
    assert guard["implication_trace"] == "premises unmet"

    # the averaged projection on the regular module of the swap skew ring
    pa = corpus.swap_action()
    alg = sk.build_skew_groupoid_ring(pa)
    module = sk.GradedModule.regular(alg)
    assert module.validate() == []
    from test_skewring import _module_closure, _solve_r_linear_projection

    w = _module_closure(module, [alg.basis_vector(0)])
    pi = _solve_r_linear_projection(pa, module, w)
    psi = sk.maschke_split(pa, module, w, pi)
    assert psi.mul(psi) == psi
    for i in range(alg.dim):
        assert psi.mul(module.action[i]) == module.action[i].mul(psi)
    image = Subspace.from_vectors(Q, module.dim, [psi.column(j) for j in range(module.dim)])
    assert image == w
    for v in w.basis:
        assert psi.apply(v) == v
    _announce(6, "Maschke suite", started)


def test_acceptance_7_globalization_suite():
    started = time.perf_counter()
    cases = [
        ("restricted_swap", corpus.restricted_swap_action()),
        ("corner", corpus.corner_action()),
        ("shift_restriction", corpus.shift_restriction_action()),
        ("swap", corpus.swap_action()),
        ("pair2_ring", corpus.pair_ring_action(2)),
    ]
    assert len(cases) >= 3
    for name, pa in cases:
        glob = pact.globalize(pa)
        assert pact.globalization_verify(pa, glob) == [], name

    # three-way finite-type equivalence, with one genuinely negative instance
    for name, pa in cases + [("negative", corpus.mutant_p1())]:
        finite_type = pact.is_finite_type(pa)
        glob = pact.globalize(pa)
        verified = pact.globalization_verify(pa, glob) == []
        envelope_unital = verified and all(
            pact.envelope_component_unital(glob).values()
        )
        witnessed = verified and all(
            gens is not None for gens in pact.finite_type_witnesses(pa).values()
        )
        assert finite_type == envelope_unital == witnessed, name
        if name == "negative":
            assert finite_type is False
    _announce(7, "globalization suite", started)


def test_acceptance_8_axiom_engine():
    started = time.perf_counter()
    for rule, pa in corpus.mutants().items():
        violations = pact.validate_action(pa)
        assert violations, rule
        assert corpus.violation_rules(violations) == {rule}, rule
    _announce(8, "axiom engine detects single mutations", started)


def test_acceptance_9_cayley_dickson_chain():
    started = time.perf_counter()
    quat = cayley_dickson_chain(Q, 2)
    assert quat.is_associative()
    octo = cayley_dickson_chain(Q, 3)
    assert not octo.is_associative() and octo.is_alternative()
    sede = cayley_dickson_chain(Q, 4)
    assert not sede.is_alternative()

    center = octo.center()
    assert center.dim == 1
    sub, _ = octo.subalgebra(center)
    for scale in (Q(1), Q(2), Q("-3/2")):
        x = [scale * c for c in sub.basis_vector(0)]
        assert sk.invert_in(sub, x) is not None
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"doubling chain took {elapsed:.2f}s"
    _announce(9, "non-associative doubling chain", started)


def test_acceptance_10_radical_engine():
    started = time.perf_counter()
    semisimple = [
        sk.build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q)),
        sk.build_groupoid_ring(gpd.pair_groupoid(3), corpus.scalar_algebra(Q)),
        corpus.group_algebra(Q, 2),
        sk.build_partial_group_algebra(gpd.cyclic_group(2), Q),
        lv.build_gr_skew_ring(corpus.corpus_graphs()["A3"], Q),
        sk.build_skew_groupoid_ring(corpus.swap_action()),
    ]
    for alg in semisimple:
        assert alg.jacobson_radical().dim == 0

    known_radicals = [
        (corpus.dual_numbers(Q), Subspace.from_vectors(Q, 2, [[Q.zero, Q.one]])),
        (
            corpus.upper_triangular2(Q),
            Subspace.from_vectors(Q, 3, [[Q.zero, Q.one, Q.zero]]),
        ),
        (
            corpus.truncated_poly3(Q),
            Subspace.from_vectors(Q, 3, [[Q.zero, Q.one, Q.zero], [Q.zero, Q.zero, Q.one]]),
        ),
    ]
    assert len(known_radicals) >= 3
    for alg, expected in known_radicals:
        rad = alg.jacobson_radical()
        assert rad == expected
        q = sk.quotient_by_ideal(alg, rad)
        assert q.jacobson_radical().dim == 0
    _announce(10, "radical engine", started)

"""Partial actions: axioms, predicates, trace, restriction, globalization."""

import hashlib
import json
import random
import re
from functools import partial

import pytest

import corpus
from grpd import exactlin
from grpd.algebra import StructureAlgebra
from grpd.errors import DimensionError, PreconditionError, UnsupportedError
from grpd.exactlin import Field, Matrix, Subspace
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.skewring import build_skew_groupoid_ring

Q = Field(0)


def test_corpus_actions_validate():
    for name, pa in corpus.unital_corpus():
        assert pact.validate_action(pa) == [], name


def test_octonion_ambient_validates():
    pa = corpus.octonion_trivial_action()
    assert pact.validate_action(pa) == []
    assert pact.is_unital(pa) and pact.is_global(pa)


@pytest.mark.parametrize("rule", ["P1", "P2", "P3", "P4", "ideal", "multiplicative"])
def test_single_axiom_mutants(rule):
    pa = corpus.mutants()[rule]
    violations = pact.validate_action(pa)
    assert violations, rule
    assert corpus.violation_rules(violations) == {rule}


def _swap_at_the_identity(field, pair):
    """alpha at an identity is the swap of K x K: a bijective ring map, not the identity.

    On Z/2 both alphas are the swap; on the pair groupoid of {1, 2}, whose
    objects each carry K x K, only the identity at 2 swaps.
    """
    swap, one = Matrix(field, [[0, 1], [1, 0]]), Matrix.identity(field, 2)
    if not pair:
        full = Subspace.full(field, 2)
        return pact.PartialAction(gpd.cyclic_group(2), corpus.componentwise(field, 2), {"*": full},
                                  {"g0": full, "g1": full}, {"g0": swap, "g1": swap})
    g = gpd.pair_groupoid(2)
    comp = {"1": Subspace.coordinate(field, 4, [0, 1]), "2": Subspace.coordinate(field, 4, [2, 3])}
    return pact.PartialAction(g, corpus.componentwise(field, 4), comp,
                              {m: comp[g.cod[m]] for m in g.morphisms},
                              {"(1,1)": one, "(2,2)": swap, "(1,2)": one, "(2,1)": one})


@pytest.mark.parametrize("p", [0, 2, 5])
@pytest.mark.parametrize("pair", [False, True])
def test_identity_acting_by_a_ring_automorphism_breaks_p1(p, pair):
    from test_paction_reference import Reference

    pa = _swap_at_the_identity(Field(p), pair)
    violations = pact.validate_action(pa)
    p3 = ([("(1,2)", "(2,2)"), ("(2,1)", "(1,2)"), ("(2,2)", "(2,1)"), ("(2,2)", "(2,2)")] if pair
          else [("g0", "g0"), ("g0", "g1"), ("g1", "g0"), ("g1", "g1")])
    expected = [("P1", ("2",) if pair else ("*",))] + [("P3", w) for w in p3]
    assert [(v.rule, v.witness) for v in violations] == expected == Reference(pa).violations()
    assert str(violations[0]).endswith("alpha at the identity is not the identity map")


def test_unital_global_support():
    pa = corpus.swap_action()
    assert pact.is_unital(pa) and pact.is_global(pa)
    assert pact.support(pa) == ["g0", "g1"]
    pr = corpus.restricted_swap_action()
    assert pact.is_unital(pr) and not pact.is_global(pr)
    assert pact.support(pr) == ["g0"]
    pc = corpus.corner_action()
    assert pact.is_unital(pc) and not pact.is_global(pc)


def test_global_iff_full_domains_composition():
    # for global actions the composition law holds on full domains
    pa = corpus.swap_action()
    g0 = pa.groupoid
    for g in g0.morphisms:
        for h in g0.morphisms:
            if not g0.is_composable(g, h):
                continue
            gh = g0.compose(g, h)
            for v in pa.domains[pa.inv(h)].basis:
                assert pa.apply_alpha(g, pa.apply_alpha(h, v)) == pa.apply_alpha(gh, v)


def test_trace_swap_values():
    pa = corpus.swap_action()
    assert pact.trace_map(pa, [Q(1), Q(0)]) == [Q(1), Q(1)]
    assert pact.trace_map(pa, [Q(1), Q(1)]) == [Q(2), Q(2)]
    fr = pact.fixed_ring(pa)
    assert fr.dim == 1 and fr.contains([Q(1), Q(1)])


def test_trace_trivial_group():
    g = gpd.cyclic_group(1)
    amb = corpus.componentwise(Q, 2)
    full = Subspace.full(Q, 2)
    pa = pact.PartialAction.from_ambient_maps(
        g, amb, {"*": full}, {"g0": full}, {"g0": Matrix.identity(Q, 2)}
    )
    assert pact.trace_map(pa, [Q(3), Q(5)]) == [Q(3), Q(5)]
    assert pact.fixed_ring(pa).dim == 2


def test_an_ambient_map_of_the_wrong_shape_is_refused():
    # a matrix map is applied to the raw rows of R_{g^-1}, so its shape must be the ambient's
    g = gpd.cyclic_group(1)
    amb = corpus.componentwise(Q, 2)
    full = Subspace.full(Q, 2)
    for m in (Matrix.identity(Q, 3), Matrix.zeros(Q, 2, 1), Matrix.zeros(Q, 1, 2)):
        with pytest.raises(DimensionError):
            pact.PartialAction.from_ambient_maps(g, amb, {"*": full}, {"g0": full}, {"g0": m})


def test_trace_lands_in_fixed_ring():
    rng = random.Random(31)
    for name, pa in corpus.unital_corpus():
        fr = pact.fixed_ring(pa)
        n = pa.ambient.dim
        field = pa.ambient.field
        span = 5 if field.char == 0 else field.char
        for _ in range(100):
            x = [field(rng.randint(0, span - 1) - (span // 2 if field.char == 0 else 0))
                 for _ in range(n)]
            assert fr.contains(pact.trace_map(pa, x)), name


# SHA-256 of the fixed ring's RREF basis, entries written as strings; recorded
# while fixed_ring still composed ambient matrices for alpha_g and right
# multiplication, before it read alpha_g through apply_alpha
FIXED_RING_SHA256 = {
    "swap": "b1700d94e98c949f148ac280df76f99414218ea5ada573b3ee4461a3376952ad",
    "restricted_swap": "e28610836ab702cd35495751839961e9fae54fec4ee18dc4b314862c18c3d104",
    "corner": "d961a3cc60cff8329a3a4e94c0903709c3f0c9b380b136f512dc8f36f34d286b",
    "shift_restriction": "2697a6a0fa542cf4262059598e74b3a033a2c829f0cc6b948bac88d2588eeb19",
    "pair2_ring": "b1700d94e98c949f148ac280df76f99414218ea5ada573b3ee4461a3376952ad",
    "swap_f5": "b1700d94e98c949f148ac280df76f99414218ea5ada573b3ee4461a3376952ad",
}


def test_fixed_ring_pinned_and_fixed():
    assert sorted(FIXED_RING_SHA256) == sorted(name for name, _ in corpus.unital_corpus())
    for name, pa in corpus.unital_corpus():
        fr = pact.fixed_ring(pa)
        doc = json.dumps([[str(c) for c in row] for row in fr.basis])
        assert hashlib.sha256(doc.encode()).hexdigest() == FIXED_RING_SHA256[name], name
        amb = pa.ambient
        zero = amb.field.zero_vec(amb.dim)
        for g in pa.groupoid.morphisms:
            u_src = corpus.domain_unit(pa, pa.inv(g))
            u_dst = corpus.domain_unit(pa, g)
            for x in fr.basis:
                lhs = zero if u_src is None else pa.apply_alpha(g, amb.multiply(x, u_src))
                rhs = zero if u_dst is None else amb.multiply(x, u_dst)
                assert lhs == rhs, (name, g)


def test_invariant_subrings():
    pa = corpus.swap_action()
    full = Subspace.full(Q, 2)
    assert pact.is_invariant_subring(pa, full)
    assert pact.is_invariant_subring(pa, pact.fixed_ring(pa))
    corner = Subspace.from_vectors(Q, 2, [[Q.one, Q.zero]])
    assert not pact.is_invariant_subring(pa, corner)
    with pytest.raises(PreconditionError):
        # not closed under multiplication: u0 + u1 squares outside the line
        pact.is_invariant_subring(
            pa, Subspace.from_vectors(Q, 2, [[Q.one, Q(2)]])
        )


def test_zero_domain_has_the_zero_unit():
    # R_g1 = 0 is unital with 1_g1 = 0, the empty raw row
    pa = corpus.restricted_swap_action()
    assert pa._unit_row("g1") == {}
    assert pact.is_unital(pa)


def _z2_parts(**edits):
    """The arguments of PartialAction for the trivial Z/2 action on Q, with edits."""
    full = Subspace.full(Q, 1)
    parts = {"groupoid": gpd.cyclic_group(2), "ambient": corpus.componentwise(Q, 1),
             "object_components": {"*": full}, "domains": {"g0": full, "g1": full},
             "maps": {"g0": Matrix.identity(Q, 1), "g1": Matrix.identity(Q, 1)}}
    return {**parts, **edits}


def _zero_line_action():
    """The trivial Z/2 action on a line with zero product: R_g = R is nonzero and has no unit."""
    return pact.PartialAction(**_z2_parts(ambient=StructureAlgebra(Q, 1, [[[]]])))


@pytest.mark.parametrize("call, error, message", [
    (lambda: pact.PartialAction(**_z2_parts(object_components={})),
     KeyError, "no component subspace for object '*'"),
    (lambda: pact.PartialAction(**_z2_parts(object_components={"*": Subspace.full(Q, 2)})),
     DimensionError, "component at '*' has wrong ambient dimension"),
    (lambda: pact.PartialAction(**_z2_parts(domains={"g1": Subspace.full(Q, 1)})),
     KeyError, "no domain subspace for morphism 'g0'"),
    (lambda: pact.PartialAction(**_z2_parts(domains={"g0": Subspace.full(Q, 2),
                                                 "g1": Subspace.full(Q, 1)})),
     DimensionError, "domain at 'g0' has wrong ambient dimension"),
    (lambda: pact.PartialAction(**_z2_parts(maps={"g1": Matrix.identity(Q, 1)})),
     KeyError, "no map for morphism 'g0'"),
    (lambda: pact.trace_map(_zero_line_action(), [Q.one]),
     UnsupportedError, "trace map needs a unital action"),
    (lambda: pact.fixed_ring(_zero_line_action()),
     UnsupportedError, "fixed ring needs a unital action"),
    (lambda: pact.globalize(_zero_line_action()),
     UnsupportedError, "globalization needs a unital action"),
], ids=["component", "component_ambient", "domain", "domain_ambient", "map", "trace_map",
        "fixed_ring", "globalize"])
def test_action_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_non_square_map_is_not_bijective():
    # on Q^3 = R_1 + R_2, dim R_1 = 1 and dim R_2 = 2: alpha_(1,2) maps R_(2,1) = R_2
    # onto R_(1,2) = R_1 by a 1 x 2 matrix, and alpha_(2,1) back by a 2 x 1 one
    one, two = Subspace.coordinate(Q, 3, [0]), Subspace.coordinate(Q, 3, [1, 2])
    pa = pact.PartialAction(
        gpd.pair_groupoid(2), corpus.componentwise(Q, 3), {"1": one, "2": two},
        {"(1,1)": one, "(1,2)": one, "(2,1)": two, "(2,2)": two},
        {"(1,1)": Matrix.identity(Q, 1), "(1,2)": Matrix(Q, [[1, 0]]),
         "(2,1)": Matrix(Q, [[1], [0]]), "(2,2)": Matrix.identity(Q, 2)})
    bijective = [v for v in pact.validate_action(pa) if v.rule == "bijective"]
    assert [(v.witness, v.detail) for v in bijective] == [
        (("(1,2)",), "alpha is not a linear bijection"),
        (("(2,1)",), "alpha is not a linear bijection")]


# -- restriction to the supported objects --------------------------------------------


def _intro_counterexample_action():
    """Two-object groupoid, one object carrying zero: skew ring collapses to K."""
    g = gpd.disjoint_union(gpd.cyclic_group(2), gpd.cyclic_group(1))
    # object A:* carries Q, object B:* carries 0
    amb = corpus.componentwise(Q, 1)
    full = Subspace.full(Q, 1)
    zero = Subspace.zero(Q, 1)
    comps = {"A:*": full, "B:*": zero}
    domains = {"A:g0": full, "A:g1": zero, "B:g0": zero}
    maps = {
        "A:g0": Matrix.identity(Q, 1),
        "A:g1": Matrix.zeros(Q, 0, 0),
        "B:g0": Matrix.zeros(Q, 0, 0),
    }
    return pact.PartialAction(g, amb, comps, domains, maps)


def test_g_sharp_unchanged_when_all_nonzero():
    pa = corpus.swap_action()
    sharp = pact.restrict_to_g_sharp(pa)
    assert sharp.groupoid.objects == pa.groupoid.objects
    assert sharp.groupoid.morphisms == pa.groupoid.morphisms
    assert (corpus.table_of(build_skew_groupoid_ring(sharp))
            == corpus.table_of(build_skew_groupoid_ring(pa)))


def test_g_sharp_drops_zero_object():
    pa = _intro_counterexample_action()
    assert pact.validate_action(pa) == []
    sharp = pact.restrict_to_g_sharp(pa)
    assert sharp.groupoid.objects == ["A:*"]
    assert set(sharp.groupoid.morphisms) == {"A:g0", "A:g1"}
    s_orig = build_skew_groupoid_ring(pa)
    s_sharp = build_skew_groupoid_ring(sharp)
    # skew ring is K either way: the canonical basis bijection is the identity here
    assert s_orig.dim == s_sharp.dim == 1
    assert corpus.table_of(s_orig) == corpus.table_of(s_sharp)


def test_g_sharp_preserves_structure_constants():
    pa = corpus.restricted_swap_action()
    sharp = pact.restrict_to_g_sharp(pa)
    s1 = build_skew_groupoid_ring(pa)
    s2 = build_skew_groupoid_ring(sharp)
    assert s1.dim == s2.dim
    assert corpus.table_of(s1) == corpus.table_of(s2)


# -- finite type -----------------------------------------------------------------------


def test_finite_type_on_valid_corpus():
    for name, pa in corpus.unital_corpus():
        assert pact.is_finite_type(pa), name
        wits = pact.finite_type_witnesses(pa)
        for e, gens in wits.items():
            assert gens is not None
            assert pact._finite_type_at(pa, e, gens)


def test_finite_type_negative():
    pa = corpus.mutant_p1()
    assert not pact.is_finite_type(pa)
    assert pact.finite_type_witnesses(pa)["*"] is None


def test_finite_type_witnesses_minimal_for_global():
    pa = corpus.swap_action()
    wits = pact.finite_type_witnesses(pa)
    assert wits["*"] == ["g0"]  # the identity alone generates


def test_finite_type_witnesses_drop_a_generator_the_greedy_prefix_took():
    # the Z/4 shift of Q^4 restricted to the window W = {0, 1}: S generates
    # exactly when W + S = Z/4, so the prefix g0, g1, g2 is the first that
    # does, and g1 is redundant in it
    e = [Q.unit_vec(2, i) for i in range(2)]
    full, zero = Subspace.full(Q, 2), Subspace.zero(Q, 2)
    domains = {"g0": full, "g1": Subspace.from_vectors(Q, 2, [e[1]]), "g2": zero,
               "g3": Subspace.from_vectors(Q, 2, [e[0]])}
    maps = {"g0": Matrix.identity(Q, 2), "g1": Matrix.identity(Q, 1),
            "g2": Matrix.zeros(Q, 0, 0), "g3": Matrix.identity(Q, 1)}
    pa = pact.PartialAction(gpd.cyclic_group(4), corpus.componentwise(Q, 2), {"*": full},
                            domains, maps)
    assert pact.validate_action(pa) == []
    assert not pact._finite_type_at(pa, "*", ["g0", "g1"])
    assert pact.finite_type_witnesses(pa) == {"*": ["g0", "g2"]}


# -- globalization ----------------------------------------------------------------------


def test_globalize_already_global():
    pa = corpus.swap_action()
    glob = pact.globalize(pa)
    assert pact.globalization_verify(pa, glob) == []
    t = glob.action.ambient
    assert t.dim == pa.ambient.dim
    # psi is bijective onto the envelope
    for e in pa.groupoid.objects:
        m = glob.embeddings[e]
        assert len(m.rref_pivots()[1]) == pa.object_components[e].dim == t.dim


def test_globalize_restricted_swap():
    pa = corpus.restricted_swap_action()
    glob = pact.globalize(pa)
    assert pact.globalization_verify(pa, glob) == []
    t = glob.action.ambient
    assert t.dim == 2
    assert pact.is_global(glob.action)
    # the induced global action swaps the two coordinates of T
    beta = glob.action
    v = beta.object_components["*"].basis[0]
    w = beta.apply_alpha("g1", v)
    assert w != v and beta.apply_alpha("g1", w) == v


def test_globalize_corner_action():
    pa = corpus.corner_action()
    glob = pact.globalize(pa)
    assert pact.globalization_verify(pa, glob) == []
    assert glob.action.ambient.dim == 3


def test_globalize_shift_restriction():
    pa = corpus.shift_restriction_action()
    glob = pact.globalize(pa)
    assert pact.globalization_verify(pa, glob) == []
    assert glob.action.ambient.dim == 4


def test_globalize_multi_object():
    pa = corpus.pair_ring_action(2)
    glob = pact.globalize(pa)
    assert pact.globalization_verify(pa, glob) == []
    assert glob.action.ambient.dim == pa.ambient.dim


def trivial_support_action(n, m):
    """Z/n on Q^m with R_g = 0 for g != e: a unital partial action whose
    envelope is all of the functions Z/n -> Q^m, of dimension n m."""
    g = gpd.cyclic_group(n)
    e = g.identity["*"]
    full = Subspace.full(Q, m)
    domains = {h: full if h == e else Subspace.zero(Q, m) for h in g.morphisms}
    maps = {h: Matrix.identity(Q, m) if h == e else Matrix.zeros(Q, 0, 0) for h in g.morphisms}
    return pact.PartialAction(g, corpus.componentwise(Q, m), {"*": full}, domains, maps)


def test_globalize_trivial_support_fills_the_function_space():
    pa = trivial_support_action(4, 3)
    assert pact.validate_action(pa) == []
    glob = pact.globalize(pa)
    assert glob.action.ambient.dim == 12
    assert pact.globalization_verify(pa, glob) == []


def test_globalize_over_the_dimension_limit_is_refused_before_the_table(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("the bound must come before the envelope's table")

    monkeypatch.setattr(pact._Envelope, "mul", refuse)
    with pytest.raises(UnsupportedError, match="dimension 1056, above the limit 1024"):
        pact.globalize(trivial_support_action(33, 32))


def test_identity_pretender_globalization_rejected():
    # claiming the full swap globalizes the corner action with psi = id fails (ii)
    pa = corpus.corner_action()
    pretender = corpus.swap_action()
    glob = pact.Globalization(
        partial=pa,
        action=pretender,
        embeddings={"*": Matrix.identity(Q, 2)},
    )
    violations = pact.globalization_verify(pa, glob)
    rules = corpus.violation_rules(violations)
    assert rules & {"(ii)", "(iv)"}
    assert [(v.rule, v.witness, v.detail) for v in violations] == [
        ("(ii)", ("g1",), "psi(R_g) differs from psi(R_c) meet beta_g(psi(R_d))"),
        ("(iii)", ("g1",), "beta_g psi differs from psi alpha_g"),
    ]


def test_zero_embedding_globalization_fails_iv_at_every_morphism():
    # psi = 0 leaves every T_g unreached by the shifted components
    pa = corpus.shift_restriction_action()
    glob = pact.globalize(pa)
    zero = {e: Matrix.zeros(Q, m.nrows, m.ncols) for e, m in glob.embeddings.items()}
    violations = pact.globalization_verify(pa, pact.Globalization(pa, glob.action, zero))
    assert [(v.rule, v.witness) for v in violations] == [("psi-mono", ("*",))] + [
        ("(iv)", (g,)) for g in ["g0", "g1", "g2", "g3"]]
    assert violations[-1].detail == "T_g is not the sum of shifted component images"


@pytest.mark.parametrize("partial, beta, psi, rule", [
    (corpus.swap_action, corpus.mutant_mult, [[1, 0], [0, 1]], "beta-invalid"),
    (corpus.restricted_swap_action, corpus.corner_action, [[1], [0]], "beta-not-global"),
    (corpus.swap_action, corpus.swap_action, [[2, 0], [0, 2]], "psi-ring"),
], ids=["invalid", "not-global", "not-multiplicative"])
def test_tampered_globalization_is_caught(partial, beta, psi, rule):
    # a crooked beta; a valid beta that is not global, with psi(R) inside each
    # of its domains; psi = 2 id, injective but not multiplicative
    pa = partial()
    glob = pact.Globalization(pa, beta(), {"*": Matrix(Q, psi)})
    assert rule in corpus.violation_rules(pact.globalization_verify(pa, glob))


def test_a_beta_that_is_not_global_skips_the_axioms_that_read_it():
    # psi(R) is not inside the corner domain, so check (ii) would apply beta_g1 outside it
    pa = corpus.swap_action()
    glob = pact.Globalization(pa, corpus.corner_action(), {"*": Matrix.identity(Q, 2)})
    violations = pact.globalization_verify(pa, glob)
    assert [(v.rule, v.witness) for v in violations] == [("beta-not-global", ())]


def test_envelope_unitality_tracks_finite_type():
    for name, pa in corpus.unital_corpus():
        glob = pact.globalize(pa)
        unital = pact.envelope_component_unital(glob)
        assert all(unital.values()), name


def test_prop_finite_type_equivalence_with_negative():
    # three-way equivalence: finite type / verified with unital envelope
    # components / verified with finite witness sums
    for name, pa in list(corpus.unital_corpus()) + [("negative", corpus.mutant_p1())]:
        a = pact.is_finite_type(pa)
        glob = pact.globalize(pa)
        verified = pact.globalization_verify(pa, glob) == []
        b = verified and all(pact.envelope_component_unital(glob).values())
        c = verified and all(
            gens is not None for gens in pact.finite_type_witnesses(pa).values()
        )
        assert a == b == c, name


def test_action_json_roundtrip():
    pa = corpus.corner_action()
    d1 = pact.action_to_dict(pa, "groupoid.json", "algebra.json")
    pa2 = pact.action_from_dict(d1, pa.groupoid, pa.ambient)
    d2 = pact.action_to_dict(pa2, "groupoid.json", "algebra.json")
    assert d1 == d2
    assert pact.validate_action(pa2) == []


# -- validation solves no system per vector --------------------------------------------

# Reports of the six single-axiom mutants: validate_action, then globalize and
# globalization_verify (a list, or the error globalize raises).
P2_GLOBAL = (
    [f"[(i)] at ({e}): psi(R_e) is not an ideal of T_e" for e in (1, 2, 3)]
    + [f"[(ii)] at (({g})): psi(R_g) differs from psi(R_c) meet beta_g(psi(R_d))"
       for g in ("1,2", "2,1", "2,3", "3,2")]
    + [f"[(iii)] at (({g})): beta_g psi differs from psi alpha_g"
       for g in ("1,2", "2,1", "2,3", "3,2")]
)
MUTANT_REPORTS = {
    "P1": (["[P1] at (*): identity domain differs from the object component"],
           ["[psi-mono] at (*): psi is not injective"]),
    "P2": ([f"[P2] at ({w}): alpha_h^-1(R_h meet R_{{g^-1}}) leaves R_{{(gh)^-1}}"
            for w in ("(1,2), (2,3)", "(3,2), (2,1)")], P2_GLOBAL),
    "P3": ([f"[P3] at ({w}): alpha_g alpha_h differs from alpha_{{gh}}"
            for w in ("(1,2), (2,1)", "(2,1), (1,2)")], UnsupportedError),
    "P4": (["[P4] at (): components span dimension 1 of 2"], []),
    "ideal": (["[ideal] at (g1): domain is not an ideal of its codomain component"],
              PreconditionError),
    "multiplicative": (["[multiplicative] at (g1): alpha(xy) differs from alpha(x)alpha(y)"],
                       UnsupportedError),
}


@pytest.fixture
def no_solve(monkeypatch):
    """Refuse `solve` wherever paction could reach it, by module or by imported name."""
    def refuse(*args):
        raise AssertionError("validation must invert each map once, not solve per vector")

    monkeypatch.setattr(exactlin, "solve", refuse)
    monkeypatch.setattr(pact, "solve", refuse, raising=False)


def _global_report(pa):
    try:
        glob = pact.globalize(pa)
    except (UnsupportedError, PreconditionError) as exc:
        return type(exc)
    return [str(v) for v in pact.globalization_verify(pa, glob)]


@pytest.mark.parametrize("rule", sorted(MUTANT_REPORTS))
def test_mutant_reports_without_solving_per_vector(no_solve, rule):
    pa = corpus.mutants()[rule]
    violations = pact.validate_action(pa)
    assert corpus.violation_rules(violations) == {rule}
    assert ([str(v) for v in violations], _global_report(pa)) == MUTANT_REPORTS[rule]


def test_envelope_action_validates_without_zassenhaus(monkeypatch):
    # every domain of a global action is a whole component, so each
    # intersection in the (P2) loop is a containment test
    beta = pact.globalize(corpus.shift_restriction_action()).action
    n = beta.ambient.dim
    stacks = []
    gauss_jordan = exactlin._gauss_jordan

    def counted(rows, p):
        # a Zassenhaus stack has rows doubled into columns n..2n-1 and rows that
        # stay below n; each alpha of beta is n x n, so every row of the
        # [column of m | unit vector] stack that inverts it reaches column n or past it
        rows = list(rows)
        doubled = sum(1 for r in rows if r and max(r) >= n)
        if 0 < doubled < len(rows):
            stacks.append((len(rows), doubled))
        return gauss_jordan(rows, p)

    monkeypatch.setattr(exactlin, "_gauss_jordan", counted)
    assert pact.validate_action(beta) == []
    assert stacks == []
    # the hook sees a Zassenhaus elimination when there is one; spans of unit
    # vectors meet at their common pivots without one
    Subspace.coordinate(Q, n, [0, 1]).intersect(Subspace.coordinate(Q, n, [1, 2]))
    assert stacks == []
    ones = [[1, 1] + [0] * (n - 2), [0, 1, 1] + [0] * (n - 3)]
    Subspace.from_vectors(Q, n, ones[:1]).intersect(Subspace.from_vectors(Q, n, ones[1:]))
    assert stacks == [(2, 1)]


@pytest.mark.parametrize("make", [
    lambda: pact.globalize(corpus.shift_restriction_action()).action,
    partial(corpus.pair_ring_action, 3),
], ids=["envelope", "pair3_ring"])
def test_global_action_tests_each_ideal_once(monkeypatch, make):
    # every domain of a global action is its codomain component, and an
    # ideal of R is an ideal of itself: only the components need a test
    pa = make()
    calls = []
    residues = StructureAlgebra._residues

    def counted(*args):
        calls.append(1)
        return residues(*args)

    monkeypatch.setattr(StructureAlgebra, "_residues", counted)
    assert pact.validate_action(pa) == []
    assert len(calls) == len(pa.groupoid.objects)


@pytest.mark.parametrize("field", [Q, Field(10007)], ids=str)
@pytest.mark.parametrize("make", [
    corpus.swap_action, corpus.restricted_swap_action, corpus.corner_action,
    corpus.shift_restriction_action, partial(corpus.pair_ring_action, 3),
], ids=["swap", "restricted_swap", "corner", "shift_restriction", "pair3_ring"])
def test_corpus_validates_without_solving_per_vector(no_solve, field, make):
    pa = make(field=field)
    assert pact.validate_action(pa) == []
    assert _global_report(pa) == []

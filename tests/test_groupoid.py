"""Groupoid axioms, constructors, counting identities, JSON schema."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd.errors import Violation


def test_trivial_group_valid():
    g = gpd.cyclic_group(1)
    assert gpd.validate(g) == []
    assert len(g.objects) == 1 and len(g.morphisms) == 1


def test_z2_z3_from_group():
    z2 = gpd.cyclic_group(2)
    assert gpd.validate(z2) == []
    assert len(z2.morphisms) == 2
    z3 = gpd.cyclic_group(3)
    assert gpd.validate(z3) == []
    assert len(z3.morphisms) == 3


def test_from_group_rejects_non_group():
    elems = ["a", "b"]
    table = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    with pytest.raises(ValueError):
        gpd.from_group(elems, table)


def is_group(elements, table):
    """The group axioms, checked directly on the multiplication table."""
    if any(table.get((a, b)) not in elements for a in elements for b in elements):
        return False
    ids = [e for e in elements if all(table[e, x] == x == table[x, e] for x in elements)]
    if not ids:
        return False
    if not all(any(table[a, b] == ids[0] == table[b, a] for b in elements) for a in elements):
        return False
    return all(table[table[a, b], c] == table[a, table[b, c]]
               for a in elements for b in elements for c in elements)


def cyclic_table(n):
    names = [f"g{i}" for i in range(n)]
    return names, {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}


def s3_table():
    perms = list(itertools.permutations(range(3)))
    names = ["".join(map(str, p)) for p in perms]
    name = dict(zip(perms, names))
    return names, {(name[p], name[q]): name[tuple(p[q[i]] for i in range(3))]
                   for p in perms for q in perms}


def table_variants(elements, table):
    """The table, every one-entry change (to an element or to a stranger) and
    removal, and every swap of two rows or two columns."""
    yield table
    for key in table:
        for c in [*elements, "stranger"]:
            if c != table[key]:
                yield {**table, key: c}
        yield {k: v for k, v in table.items() if k != key}
    for a, b in itertools.combinations(elements, 2):
        swap = {a: b, b: a}
        yield {(swap.get(x, x), y): v for (x, y), v in table.items()}
        yield {(x, swap.get(y, y)): v for (x, y), v in table.items()}


@pytest.mark.parametrize("elements, table", [
    *(cyclic_table(n) for n in (1, 2, 3, 4)), s3_table(),
], ids=["Z_1", "Z_2", "Z_3", "Z_4", "S_3"])
def test_from_group_raises_exactly_on_non_groups(elements, table):
    groups = 0
    for variant in table_variants(elements, table):
        if is_group(elements, variant):
            groups += 1
            g = gpd.from_group(elements, variant)
            assert gpd.validate(g) == []
            e = g.identity["*"]
            assert all(variant[a, g.inverse[a]] == e == variant[g.inverse[a], a] for a in elements)
        else:
            with pytest.raises(ValueError):
                gpd.from_group(elements, variant)
    assert groups >= 1


def test_pair_groupoid_shapes():
    with pytest.raises(ValueError):
        gpd.pair_groupoid(0)
    g1 = gpd.pair_groupoid(1)
    assert gpd.validate(g1) == [] and len(g1.morphisms) == 1
    g2 = gpd.pair_groupoid(2)
    assert gpd.validate(g2) == [] and len(g2.morphisms) == 4
    g3 = gpd.pair_groupoid(3)
    assert gpd.validate(g3) == [] and len(g3.morphisms) == 9
    assert g2.dom["(1,2)"] == "2" and g2.cod["(1,2)"] == "1"
    assert g2.inverse["(1,2)"] == "(2,1)"
    assert g2.compose("(1,2)", "(2,1)") == "(1,1)"


@st.composite
def groupoid_unions(draw):
    """A disjoint union of pair groupoids and cyclic groups, morphisms in a drawn order."""
    parts = draw(st.lists(st.one_of(st.integers(1, 4).map(gpd.pair_groupoid),
                                    st.integers(1, 4).map(gpd.cyclic_group)),
                          min_size=1, max_size=3))
    g = parts[0]
    for t, h in enumerate(parts[1:]):
        g = gpd.disjoint_union(g, h, tags=("", f"{t}:"))
    order = draw(st.permutations(g.morphisms))
    return gpd.FiniteGroupoid(g.objects, order, g.dom, g.cod, g.inverse, g._compose, g.identity)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(groupoid_unions())
def test_indexed_queries_match_the_scans(g):
    mors = g.morphisms
    assert list(g.composable_pairs()) == [(a, b) for a in mors for b in mors if g.dom[a] == g.cod[b]]
    for e in g.objects:
        assert g.morphisms_into(e) == [m for m in mors if g.cod[m] == e]
        assert g.morphisms_out_of(e) == [m for m in mors if g.dom[m] == e]
        for f in g.objects:
            assert gpd.hom_set(g, e, f).morphisms == [m for m in mors
                                                      if g.dom[m] == e and g.cod[m] == f]
    assert gpd.validate(g) == []


def test_broken_inverse_detected():
    g = gpd.cyclic_group(3)
    broken = gpd.FiniteGroupoid(
        g.objects, g.morphisms, g.dom, g.cod,
        {m: m for m in g.morphisms},  # claims every element is its own inverse
        g._compose, g.identity,
    )
    rules = corpus.violation_rules(gpd.validate(broken))
    assert rules == {"inverse"}


def test_missing_compose_detected():
    g = gpd.pair_groupoid(2)
    partial = {k: v for k, v in g._compose.items() if k != ("(1,2)", "(2,1)")}
    broken = gpd.FiniteGroupoid(
        g.objects, g.morphisms, g.dom, g.cod, g.inverse, partial, g.identity
    )
    assert "compose" in corpus.violation_rules(gpd.validate(broken))


def _broken_pair2(identity=None, compose=None, inverse=None):
    """The pair groupoid on two objects with some entries of its tables overwritten."""
    g = gpd.pair_groupoid(2)
    return gpd.FiniteGroupoid(
        g.objects, g.morphisms, g.dom, g.cod, {**g.inverse, **(inverse or {})},
        {**g._compose, **(compose or {})}, {**g.identity, **(identity or {})},
    )


@pytest.mark.parametrize("broken, expected", [
    # (i,j) runs from j to i
    (_broken_pair2(identity={"1": "(1,2)"}),
     Violation("identity", ("1", "(1,2)"), "identity morphism has wrong endpoints")),
    (_broken_pair2(compose={("(1,2)", "(2,1)"): "(2,2)"}),
     Violation("compose", ("(1,2)", "(2,1)"), "composite has wrong endpoints")),
    (_broken_pair2(compose={("(1,2)", "(1,2)"): "(1,2)"}),
     Violation("compose", ("(1,2)", "(1,2)"), "table entry for a non-composable pair")),
    (_broken_pair2(inverse={"(1,2)": "(1,2)"}),
     Violation("inverse", ("(1,2)", "(1,2)"), "inverse has wrong endpoints")),
])
def test_wrong_endpoints_are_detected(broken, expected):
    assert expected in gpd.validate(broken)


def test_components():
    g = gpd.pair_groupoid(3)
    assert gpd.connected_components(g) == [["1", "2", "3"]]
    two = gpd.disjoint_union(gpd.cyclic_group(2), gpd.cyclic_group(1))
    assert gpd.validate(two) == []
    comps = gpd.connected_components(two)
    assert len(comps) == 2
    # morphisms never cross components
    for m in two.morphisms:
        comp_of = {e: i for i, c in enumerate(comps) for e in c}
        assert comp_of[two.dom[m]] == comp_of[two.cod[m]]


def test_isotropy_and_hom_sets():
    g3 = gpd.pair_groupoid(3)
    for e in g3.objects:
        assert len(gpd.isotropy(g3, e).morphisms) == 1
    for e in g3.objects:
        for f in g3.objects:
            assert len(gpd.hom_set(g3, e, f).morphisms) == 1
    z2 = gpd.cyclic_group(2)
    iso = gpd.isotropy(z2, "*")
    assert len(iso.morphisms) == 2
    assert gpd.validate(iso) == []
    with pytest.raises(KeyError):
        gpd.hom_set(g3, "nope", "1")


def test_isotropy_of_an_unknown_object_is_refused():
    with pytest.raises(KeyError, match="unknown object 'nope'"):
        gpd.isotropy(gpd.pair_groupoid(3), "nope")


@pytest.mark.parametrize("g, h, error, message", [
    ("(1,2)", "(1,2)", ValueError, "morphisms not composable: (1,2), (1,2)"),
    ("(1,2)", "(2,2)", KeyError, "compose table has no entry for ((1,2), (2,2))"),
], ids=["not_composable", "missing_entry"])
def test_compose_refusals(g, h, error, message):
    pair = gpd.pair_groupoid(2)
    # the same groupoid with the entry ((1,2), (2,2)) dropped from its compose table
    table = {k: v for k, v in pair._compose.items() if k != ("(1,2)", "(2,2)")}
    broken = gpd.FiniteGroupoid(pair.objects, pair.morphisms, pair.dom, pair.cod,
                                pair.inverse, table, pair.identity)
    with pytest.raises(error, match=re.escape(message)):
        broken.compose(g, h)


def test_counting_identity():
    for g in (gpd.pair_groupoid(2), gpd.cyclic_group(3),
              gpd.disjoint_union(gpd.cyclic_group(2), gpd.cyclic_group(1))):
        report = gpd.is_finite_mor_criterion(g)
        assert bool(report)
        for (e, f), size in report.hom_sizes.items():
            if size:
                assert size == report.isotropy_sizes[e]


def test_inverse_involution():
    for g in (gpd.pair_groupoid(3), gpd.cyclic_group(4)):
        for m in g.morphisms:
            assert g.inverse[g.inverse[m]] == m


def test_validate_passes_on_constructors_exhaustively():
    for g in (gpd.cyclic_group(1), gpd.cyclic_group(2), gpd.cyclic_group(3),
              gpd.pair_groupoid(1), gpd.pair_groupoid(2), gpd.pair_groupoid(3),
              gpd.disjoint_union(gpd.pair_groupoid(2), gpd.cyclic_group(2))):
        assert gpd.validate(g) == []


def test_json_roundtrip_fixpoint():
    g = gpd.pair_groupoid(2)
    d1 = gpd.to_dict(g)
    d2 = gpd.to_dict(gpd.from_dict(d1))
    assert d1 == d2


def test_json_identity_inference():
    d = {
        "objects": ["e"],
        "morphisms": [{"id": "g", "dom": "e", "cod": "e", "inv": "g"}],
        "compose": [["g", "g", "id:e"], ["g", "id:e", "g"], ["id:e", "g", "g"],
                    ["id:e", "id:e", "id:e"]],
    }
    g = gpd.from_dict(d)
    assert "id:e" in g.morphisms
    assert g.identity["e"] == "id:e"
    assert gpd.validate(g) == []


def test_json_objects_only_gets_one_identity_per_object():
    # no morphisms and no "compose" key: every identity is created as id:<object>
    g = gpd.from_dict({"objects": ["a", "b"], "morphisms": []})
    assert g.morphisms == ["id:a", "id:b"]
    assert g.identity == {"a": "id:a", "b": "id:b"}
    assert g.compose("id:a", "id:a") == "id:a"
    assert gpd.validate(g) == []


def test_json_identities_are_the_first_neutral_loops():
    # the trivial group's identity left out, the pair groupoid's kept
    d = gpd.to_dict(gpd.disjoint_union(gpd.cyclic_group(1), gpd.pair_groupoid(2)))
    d["morphisms"] = [m for m in d["morphisms"] if m["id"] != "A:g0"]
    d["compose"] = [c for c in d["compose"] if "A:g0" not in c]
    g = gpd.from_dict(d)
    assert g.identity == {"A:*": "id:A:*", "B:1": "B:(1,1)", "B:2": "B:(2,2)"}
    for e in g.objects:
        assert g.identity[e] == gpd._neutral_loop(e, g.morphisms, g.dom, g.cod, g._compose)
    assert gpd.validate(g) == []

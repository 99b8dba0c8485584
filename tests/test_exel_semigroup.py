"""Exel's semigroup against its definition, and K_par(G) in the groupoid basis
against the algebra of Exel's semigroup: isomorphism, reports, size and memory."""

import hashlib
import itertools
import json
import tracemalloc

import pytest

import corpus
from grpd import cli
from grpd import skewring
from grpd import groupoid as gpd
from grpd.algebra import StructureAlgebra
from grpd.exactlin import Field, _subtract
from grpd.skewring import analyze_algebra, build_partial_group_algebra, exel_semigroup

Q = Field(0)


def reference(group):
    """S(G) from the definition, with subsets as frozensets of names.

    The elements are the pairs (A, g) with the identity and g in A, sorted by
    |A|, then the input positions of A, then the position of g; the product
    is (A, g)(B, h) = (A u gB, gh), and a label lists A in input order.
    """
    names = list(group.morphisms)
    pos = {x: i for i, x in enumerate(names)}
    e = group.identity[group.objects[0]]
    items = [(frozenset(a), g)
             for r in range(1, len(names) + 1)
             for a in itertools.combinations(names, r) if e in a
             for g in a]
    items.sort(key=lambda t: (len(t[0]), sorted(pos[x] for x in t[0]), pos[t[1]]))
    index = {x: i for i, x in enumerate(items)}
    table = [[index[(a | frozenset(group.compose(g, t) for t in b), group.compose(g, h))]
              for b, h in items] for a, g in items]
    labels = ["({" + ",".join(sorted(a, key=pos.get)) + "}," + g + ")" for a, g in items]
    return items, labels, table


def group_of(names, mul):
    return gpd.from_group(names, {(a, b): mul(a, b) for a in names for b in names})


def klein_identity_last():
    bits = {"a": 1, "b": 2, "c": 3, "e": 0}
    name = {v: k for k, v in bits.items()}
    return group_of(["a", "b", "c", "e"], lambda x, y: name[bits[x] ^ bits[y]])


def s3_identity_last():
    perms = {"r": (1, 2, 0), "rr": (2, 0, 1), "s": (1, 0, 2),
             "sr": (0, 2, 1), "srr": (2, 1, 0), "id": (0, 1, 2)}
    name = {p: k for k, p in perms.items()}
    return group_of(list(perms), lambda x, y: name[tuple(perms[x][i] for i in perms[y])])


def q8_identity_third():
    # a unit quaternion as (sign, axis), axis 0 = 1, 1 = i, 2 = j, 3 = k
    units = {"i": (1, 1), "-1": (-1, 0), "1": (1, 0), "-i": (-1, 1),
             "j": (1, 2), "-j": (-1, 2), "k": (1, 3), "-k": (-1, 3)}
    name = {v: k for k, v in units.items()}
    # axis products: ij = k, jk = i, ki = j, and each square is -1
    axes = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
            (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}

    def mul(x, y):
        (s, a), (t, b) = units[x], units[y]
        if a == 0 or b == 0:
            return name[(s * t, a or b)]
        u, c = axes[(a, b)] if a != b else (-1, 0)
        return name[(s * t * u, c)]

    return group_of(list(units), mul)


GROUPS = [
    *(pytest.param(lambda n=n: gpd.cyclic_group(n), id=f"Z{n}") for n in range(1, 7)),
    pytest.param(klein_identity_last, id="klein-identity-last"),
    pytest.param(s3_identity_last, id="S3-identity-last"),
    pytest.param(q8_identity_third, id="Q8-identity-third"),
]
FIELDS = [pytest.param(Field(p), id=f"F{p}" if p else "Q") for p in (0, 2, 7)]


@pytest.mark.parametrize("group", GROUPS)
def test_exel_semigroup_is_the_definition(group):
    g = group()
    s = exel_semigroup(g)
    elements, labels, table = reference(g)
    assert s.elements == elements
    assert s.labels == labels
    assert s.table == table


def test_validate_names_the_triples_a_tampered_table_breaks():
    s = exel_semigroup(gpd.cyclic_group(2))
    assert s.validate() == []
    s.table[1][2] = 1  # ({g0,g1},g0)({g0,g1},g1) read as ({g0,g1},g0)
    assert s.validate() == [(2, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize("field", [Q, Field(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("group", GROUPS[:-1])
def test_partial_group_algebra_unit_is_exels_identity(group, field):
    # Exel's identity ({e}, e) is sum_A eps_A[e] in the groupoid basis eps_A[g]
    g = group()
    e = g.identity[g.objects[0]]
    alg = build_partial_group_algebra(g, field)
    assert alg.unit == [field.one if h == e else field.zero for _, h in exel_semigroup(g).elements]
    assert alg.is_two_sided_unit(alg.unit)
    d = alg.to_dict()
    del d["unit"]
    assert StructureAlgebra.from_dict(d).find_unit() == alg.unit


def exel_to_groupoid_basis(group, field):
    """The coordinates of each Exel element (A, g) in the basis eps_B[g]: (A, g) is the
    sum of the eps_B[g] over B containing A, and the two bases share their order."""
    elements = exel_semigroup(group).elements
    at = {x: k for k, x in enumerate(elements)}
    return [{at[b, h]: field.one for b, h in elements if h == g and b >= a} for a, g in elements]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("group", GROUPS)
def test_moebius_map_is_an_isomorphism_from_exels_semigroup_algebra(group, field):
    g = group()
    ref = corpus.exel_partial_group_algebra(g, field)
    alg = build_partial_group_algebra(g, field)
    psi = exel_to_groupoid_basis(g, field)
    # unitriangular in the shared order, hence bijective; its inverse is the Moebius map
    assert all(min(x) == k and x[k] == 1 for k, x in enumerate(psi))
    p = field.char
    for i, x in enumerate(psi):
        left = {}  # column j -> psi(b_i) eps_j, the left multiplication by psi(b_i)
        for k, a in x.items():
            for j, cell in alg._cells[k].items():
                _subtract(left.setdefault(j, {}), -a, cell, p)
        for j, y in enumerate(psi):
            out = {}
            for m, b in y.items():
                _subtract(out, -b, left.get(m, {}), p)
            (t, _), = ref._cells[i][j].items()  # (A, g)(B, h) = (A u gB, gh)
            assert out == psi[t], (ref.label(i), ref.label(j))


# the reference's radical and blocks of Q8 over Q take about 11 s at dim 576 on the
# general path, so the reports of Q8 are compared there over F_2 and F_7 only
@pytest.mark.parametrize("group, field", [
    pytest.param(g.values[0], f.values[0], id=f"{g.id}-{f.id}")
    for g in GROUPS for f in FIELDS if not (g.id == "Q8-identity-third" and f.id == "Q")
])
def test_partial_group_algebra_reports_as_exels_semigroup_algebra(group, field, monkeypatch):
    # the reference is analyzed on the general path, not moved to the groupoid basis
    monkeypatch.setattr(skewring, "_groupoid_basis", lambda alg: None)
    g = group()
    assert analyze_algebra(build_partial_group_algebra(g, field)) == analyze_algebra(
        corpus.exel_partial_group_algebra(g, field))


# Q8 is compared over Q alone here: about 2 s a field, nearly all of it the associativity
# check on Exel's dense table, which the general path makes too
@pytest.mark.parametrize("group, field", [
    pytest.param(g.values[0], f.values[0], id=f"{g.id}-{f.id}")
    for g in GROUPS for f in FIELDS if not (g.id == "Q8-identity-third" and f.id != "Q")
])
def test_exels_semigroup_algebra_reports_as_the_builder_in_the_groupoid_basis(group, field):
    # analyze finds Exel's table to be an inverse semigroup's and moves it to the
    # groupoid basis, unless the group is trivial and S(G) has one element
    g = group()
    ref = corpus.exel_partial_group_algebra(g, field)
    assert (skewring._groupoid_basis(ref) is None) == (len(g.morphisms) == 1)
    assert analyze_algebra(ref) == analyze_algebra(build_partial_group_algebra(g, field))


@pytest.mark.parametrize("group", GROUPS)
def test_partial_group_algebra_table_has_one_cell_per_composable_pair(group):
    # eps_A[g] eps_B[h] is nonzero iff B = g^-1 A: |A| rows per A, each with |A| cells,
    # so Z_4 has 56 nonzero products where Exel's basis has 20^2 = 400
    g = group()
    alg = build_partial_group_algebra(g, Q)
    subsets = {a for a, _ in exel_semigroup(g).elements}
    assert sum(len(row) for row in alg._cells) == sum(len(a) ** 2 for a in subsets)


@pytest.mark.parametrize("char, digest", [("10007", "76662d8e4716c041"), ("0", "5c4c2d55ff30a941")])
def test_partial_group_algebra_of_z8_report(char, digest, tmp_path, capsys):
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(gpd.to_dict(gpd.cyclic_group(8))))
    assert cli.main(["--json", "partial-group-algebra", str(path), "--char", char]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def test_partial_group_algebra_builds_in_bounded_memory():
    # allocation sizes do not depend on timing, so this bound is deterministic
    tracemalloc.start()
    try:
        alg = build_partial_group_algebra(gpd.cyclic_group(6), Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 112 and alg.unit is not None
    assert peak < 6.4e6, peak

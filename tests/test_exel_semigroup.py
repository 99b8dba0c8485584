"""Exel's semigroup against its definition, and the memory of K_par(G)."""

import itertools
import tracemalloc

import pytest

from grpd import groupoid as gpd
from grpd.algebra import StructureAlgebra
from grpd.exactlin import Field
from grpd.skewring import build_partial_group_algebra, exel_semigroup

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


@pytest.mark.parametrize("group", [
    *(pytest.param(lambda n=n: gpd.cyclic_group(n), id=f"Z{n}") for n in range(1, 7)),
    pytest.param(klein_identity_last, id="klein-identity-last"),
    pytest.param(s3_identity_last, id="S3-identity-last"),
    pytest.param(q8_identity_third, id="Q8-identity-third"),
])
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
@pytest.mark.parametrize("group", [
    *(pytest.param(lambda n=n: gpd.cyclic_group(n), id=f"Z{n}") for n in range(1, 7)),
    pytest.param(klein_identity_last, id="klein-identity-last"),
    pytest.param(s3_identity_last, id="S3-identity-last"),
])
def test_partial_group_algebra_unit_is_exels_identity(group, field):
    alg = build_partial_group_algebra(group(), field)
    assert alg.unit == alg.basis_vector(0)
    assert alg.is_two_sided_unit(alg.unit)
    d = alg.to_dict()
    del d["unit"]
    assert StructureAlgebra.from_dict(d).find_unit() == alg.unit


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

"""Inverse-semigroup tables analyzed in Steinberg's groupoid basis against the
general path (hypothesis, derandomized), and the tables that must keep it."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import skewring
from grpd.algebra import StructureAlgebra, cayley_dickson_chain
from grpd.exactlin import Field
from grpd.skewring import analyze_algebra, exel_semigroup

FIELDS = [Field(0), Field(3), Field(7)]
SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)


def closure(gens, mul, inv):
    """The inverse subsemigroup generated by gens."""
    elems = set(gens) | {inv(x) for x in gens}
    fresh = list(elems)
    while fresh:
        x = fresh.pop()
        for y in list(elems):
            for z in (mul(x, y), mul(y, x)):
                if z not in elems:
                    elems.add(z)
                    fresh.append(z)
    return elems


def invert(p):
    """The inverse of a partial bijection given by its tuple of images."""
    q = [None] * len(p)
    for x, y in enumerate(p):
        if y is not None:
            q[y] = x
    return tuple(q)


@st.composite
def partial_bijection_semigroups(draw):
    """An inverse subsemigroup of I_n, n = 2 or 3, generated by one to three random
    partial bijections, with or without the empty map as a basis vector."""
    n = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        dom = draw(st.sets(st.integers(0, n - 1), min_size=1))
        gens.append(tuple(y if x in dom else None for x, y in enumerate(perm)))
    elems = closure(gens, corpus.then, invert)
    if draw(st.booleans()):
        elems.discard((None,) * n)
    return sorted(elems, key=lambda p: [-1 if x is None else x for x in p]), corpus.then


@st.composite
def brandt_semigroups(draw):
    """B(Z_m, k), m <= 3, k <= 3, with or without its zero as a basis vector."""
    elems, mul = corpus.brandt(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return elems[:-1] if draw(st.booleans()) else elems, mul


@st.composite
def semilattices(draw):
    """Subsets of {0, 1, 2, 3} closed under intersection, generated by two to five
    random nonempty ones; the least is sometimes left out, as the zero."""
    gens = draw(st.lists(st.frozensets(st.integers(0, 3), min_size=1), min_size=2, max_size=5))
    elems = closure(gens, frozenset.intersection, lambda a: a)
    least = frozenset.intersection(*elems)
    if len(elems) > 1 and draw(st.booleans()):
        elems.discard(least)
    return sorted(elems, key=sorted), frozenset.intersection


@st.composite
def exel_semigroups(draw):
    """Exel's S(G) for G = Z_1 ... Z_4 or the Klein group, as indices into its table."""
    n = draw(st.integers(1, 5))
    g = gpd.from_group(["e", "a", "b", "c"], {
        (x, y): "eabc"["eabc".index(x) ^ "eabc".index(y)] for x in "eabc" for y in "eabc"
    }) if n == 5 else gpd.cyclic_group(n)
    table = exel_semigroup(g).table
    return list(range(len(table))), lambda x, y: table[x][y]


INVERSE_SEMIGROUPS = st.one_of(partial_bijection_semigroups(), brandt_semigroups(),
                               semilattices(), exel_semigroups())


def general_path(alg):
    with mock.patch.object(skewring, "_groupoid_basis", lambda alg: None):
        return analyze_algebra(alg)


def comparable_idempotents(elems, mul):
    idem = [e for e in elems if mul(e, e) == e]
    return any(e != f and mul(e, f) == e == mul(f, e) for e in idem for f in idem)


def with_identity(elems, mul):
    """S with an identity "1" adjoined, above every idempotent of S: Moebius values
    of 0, which a wrong sign or a dropped cancellation would turn nonzero, come in."""
    return [*elems, "1"], lambda x, y: y if x == "1" else x if y == "1" else mul(x, y)


@SETTINGS
@given(INVERSE_SEMIGROUPS, st.booleans(), st.integers(0, 2**32))
def test_inverse_semigroup_reports_as_on_the_general_path(semigroup, adjoin, seed):
    elems, mul = with_identity(*semigroup) if adjoin else semigroup
    elems = corpus.shuffled(elems, seed)
    for field in FIELDS:
        alg = corpus.semigroup_algebra(field, elems, mul)
        # the route is taken exactly when the pre-check lets the table through
        assert (skewring._groupoid_basis(alg) is not None) == comparable_idempotents(elems, mul)
        assert analyze_algebra(alg) == general_path(corpus.semigroup_algebra(field, elems, mul))


def left_zero_monoid():
    # xy = x on {a, b, c}, with an identity 1 adjoined: a has the inverses a, b and c
    return ["1", "a", "b", "c"], lambda x, y: y if x == "1" else x


def truncated_polynomial_with_zero():
    # 1, x, x^2 and 0 with x^3 = 0: 0 <= 1, but x has no inverse
    return [0, 1, 2, "0"], lambda x, y: "0" if "0" in (x, y) or x + y > 2 else x + y


def upper_triangular_monoid():
    # 1, E11, E12, E22 and 0 under the matrix product: E11 <= 1, but E12 has no inverse
    units = {"E11": (1, 1), "E12": (1, 2), "E22": (2, 2)}
    name = {v: k for k, v in units.items()}

    def mul(x, y):
        if x == "1" or y == "1":
            return y if x == "1" else x
        if "0" in (x, y) or units[x][1] != units[y][0]:
            return "0"
        return name[units[x][0], units[y][1]]

    return ["1", "E11", "E12", "E22", "0"], mul


def non_associative_magma():
    # 1 an identity, e idempotent, aa = e, ae = a, ea = 1: (aa)a = 1 but a(aa) = a
    prods = {("e", "e"): "e", ("a", "a"): "e", ("a", "e"): "a", ("e", "a"): "1"}
    return ["1", "e", "a"], lambda x, y: y if x == "1" else x if y == "1" else prods[x, y]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F3", "F7"])
@pytest.mark.parametrize("semigroup", [left_zero_monoid, truncated_polynomial_with_zero,
                                       upper_triangular_monoid, non_associative_magma])
def test_a_table_that_is_no_inverse_semigroups_keeps_the_general_path(semigroup, field):
    elems, mul = semigroup()
    alg = corpus.semigroup_algebra(field, elems, mul)
    assert comparable_idempotents(elems, mul)  # past the pre-check
    assert skewring._groupoid_basis(alg) is None
    assert analyze_algebra(alg) == general_path(corpus.semigroup_algebra(field, elems, mul))


@pytest.mark.parametrize("algebra", [
    pytest.param(lambda: corpus.truncated_poly(Field(0), 3), id="truncated-polynomial"),
    pytest.param(lambda: corpus.upper_triangular(Field(0), 3), id="upper-triangular"),
    pytest.param(lambda: corpus.semigroup_algebra(Field(0), ["a", "b", "c"], lambda x, y: x),
                 id="left-zero-semigroup"),
    pytest.param(lambda: cayley_dickson_chain(Field(0), 3), id="octonions"),
])
def test_a_table_without_comparable_idempotents_leaves_at_the_pre_check(algebra, monkeypatch):
    alg = algebra()
    called = []
    monkeypatch.setattr(type(alg), "is_associative", lambda self: called.append(1))
    assert skewring._groupoid_basis(alg) is None
    assert not called


def test_a_cell_with_another_coefficient_keeps_the_general_path():
    # 1, e <= 1 and x with xx = 2x: every cell one term, but not all with coefficient 1
    q = Field(0)
    table = [[[(0, 1)], [(1, 1)], [(2, 1)]], [[(1, 1)], [(1, 1)], ()], [[(2, 1)], (), [(2, 2)]]]
    alg = StructureAlgebra(q, 3, table)
    assert skewring._groupoid_basis(alg) is None
    assert analyze_algebra(alg) == general_path(StructureAlgebra(q, 3, table))


def test_symmetric_inverse_monoid_in_every_seeded_order():
    # I_3, dim 34, in five basis orders: its blocks are read in the file's basis each time
    assert len(corpus.partial_bijections(3)) == 34
    for seed in range(5):
        elems = corpus.shuffled(corpus.partial_bijections(3), seed)
        alg = corpus.semigroup_algebra(Field(0), elems, corpus.then)
        assert skewring._groupoid_basis(alg) is not None
        assert analyze_algebra(alg) == general_path(
            corpus.semigroup_algebra(Field(0), elems, corpus.then))


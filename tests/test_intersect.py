"""`Subspace.intersect` against a dense Zassenhaus reference (hypothesis, derandomized).

Over Q, F_2 and F_10007 the two spaces are drawn as spans of unit vectors
(`Subspace.coordinate`, met at their common pivots without elimination),
spans of random vectors, spans of scaled unit vectors (unit-vector RREF rows
that were not built as coordinates), a space and a subspace of it, or zero.
Both orders must give the reference's RREF rows, and spaces of different
ambient dimensions are refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import exactlin
from grpd.errors import DimensionError
from grpd.exactlin import Field, Subspace
from test_paction_reference import CHARS, meet, plain, ref_rref

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)
KINDS = ["coordinate", "general", "scaled_units", "zero"]


def values(field):
    if field.char:
        return st.integers(0, field.char - 1).map(field)
    return st.sampled_from([0, 0, 1, -1, 2, 3]).map(field)


@st.composite
def spaces(draw, field, n, kind):
    if kind == "zero":
        return Subspace.zero(field, n)
    if kind == "coordinate":
        return Subspace.coordinate(field, n, sorted(draw(st.sets(st.integers(0, n - 1)))))
    if kind == "scaled_units":
        units = draw(st.sets(st.integers(0, n - 1)))
        scale = draw(values(field).filter(bool))
        return Subspace.from_vectors(field, n, [[scale if j == i else 0 for j in range(n)]
                                                for i in sorted(units)])
    k = draw(st.integers(0, n))
    return Subspace.from_vectors(field, n, draw(st.lists(
        st.lists(values(field), min_size=n, max_size=n), min_size=k, max_size=k)))


@st.composite
def subspace_of(draw, space):
    """A span of combinations of the RREF basis of space."""
    field = space.field
    basis = space.basis
    combos = draw(st.lists(st.lists(values(field), min_size=len(basis), max_size=len(basis)),
                           max_size=len(basis)))
    vectors = [[sum((c * b[j] for c, b in zip(cs, basis)), field.zero) for j in range(space.ambient_dim)]
               for cs in combos]
    return Subspace.from_vectors(field, space.ambient_dim, [[field(x) for x in v] for v in vectors])


@st.composite
def pairs(draw):
    field = Field(draw(st.sampled_from(CHARS)))
    n = draw(st.integers(1, 7))
    a = draw(spaces(field, n, draw(st.sampled_from(KINDS))))
    b = draw(subspace_of(a) if draw(st.booleans()) and a.dim else
             spaces(field, n, draw(st.sampled_from(KINDS))))
    return a, b


def reference(a, b):
    p, n = a.field.char, a.ambient_dim

    def dense(s):
        return ref_rref([[plain(x, p) for x in r] for r in s.basis], n, p)

    return meet(dense(a), dense(b), n, p)[0]


@SETTINGS
@given(pairs())
def test_intersect_matches_zassenhaus(pair):
    a, b = pair
    p = a.field.char
    want = reference(a, b)
    for x, y in ((a, b), (b, a)):
        got = x.intersect(y)
        assert [[plain(v, p) for v in r] for r in got.basis] == want
        assert got.ambient_dim == a.ambient_dim


@pytest.mark.parametrize("field", [Field(c) for c in CHARS], ids=str)
def test_unit_vector_spaces_meet_without_elimination(monkeypatch, field):
    def refuse(rows, p):
        raise AssertionError("unit-vector spaces meet at their common pivots")

    a = Subspace.coordinate(field, 6, [0, 2, 3, 5])
    b = Subspace.from_vectors(field, 6, [[0, 0, 0, 3, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 5, 0, 0, 0]])
    monkeypatch.setattr(exactlin, "_gauss_jordan", refuse)
    assert a.intersect(b) == b.intersect(a) == Subspace.coordinate(field, 6, [2, 3])
    assert a.intersect(Subspace.zero(field, 6)) == Subspace.zero(field, 6)


@pytest.mark.parametrize("field", [Field(c) for c in CHARS], ids=str)
@pytest.mark.parametrize("kinds", [("coordinate", "coordinate"), ("coordinate", "general"),
                                   ("general", "general"), ("zero", "zero")])
def test_intersect_refuses_another_ambient(field, kinds):
    def make(kind, n):
        if kind == "coordinate":
            return Subspace.coordinate(field, n, [0, 1])
        if kind == "zero":
            return Subspace.zero(field, n)
        return Subspace.from_vectors(field, n, [[1, 1] + [0] * (n - 2)])

    a, b = make(kinds[0], 3), make(kinds[1], 4)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DimensionError, match="ambient dimensions differ"):
            x.intersect(y)

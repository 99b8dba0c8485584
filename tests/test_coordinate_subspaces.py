"""Coordinate subspaces against elimination (hypothesis, derandomized).

A coordinate subspace, one whose RREF rows are all unit vectors, answers
membership, coordinates and containment from its pivot set, and sums and
meets of such spaces are read off the pivots; `_reduce` deletes the pivot of
a one-entry RREF row.  Over Q, F_2 and F_10007 every one of these must give
what elimination gives: the functions below keep the reduction and the
Gauss-Jordan steps as exactlin had them before those shortcuts, and the
meet is always the Zassenhaus elimination.  The spaces are coordinate
subspaces built directly, from scaled unit vectors or as sums, the zero
space, and spans of random vectors, so that a coordinate space also meets
spaces that are not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import exactlin
from grpd.exactlin import Field, Subspace, _sparse
from test_paction_reference import CHARS

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)
COORDINATE_KINDS = ["coordinate", "scaled_units", "sum", "zero"]


# -- elimination, as it was before the coordinate shortcuts ------------------------------


def old_subtract(row, f, other, p):
    get = row.get
    for j, b in other.items():
        v = get(j, 0) - f * b
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def old_reduce(row, piv, p):
    for c in [c for c in row if c in piv]:
        old_subtract(row, row[c], piv[c], p)
    return row


def old_pivot(row, piv, p):
    q = min(row)
    a = row[q]
    if a != 1:
        inv = pow(a, -1, p) if p else exactlin._q_inv(a)
        for j, v in row.items():
            row[j] = v * inv % p if p else v * inv
    for other in piv.values():
        f = other.get(q)
        if f:
            old_subtract(other, f, row, p)
    piv[q] = row


def old_gauss_jordan(rows, p):
    piv = {}
    for row in rows:
        if old_reduce(row, piv, p):
            old_pivot(row, piv, p)
    return {c: piv[c] for c in sorted(piv)}


def old_raw_coords(space, row):
    if old_reduce(dict(row), space._rows, space.field.char):
        raise ValueError("vector is not in the subspace")
    return {space._at[c]: x for c, x in row.items() if c in space._at}


def old_le(a, b):
    return all(not old_reduce(dict(r), b._rows, a.field.char) for r in a._rows.values())


def old_span(spaces, p):
    return old_gauss_jordan([dict(r) for s in spaces for r in s._rows.values()], p)


def zassenhaus(a, b):
    n = a.ambient_dim
    stacked = [{**r, **{n + c: x for c, x in r.items()}} for r in a._rows.values()]
    stacked += [dict(r) for r in b._rows.values()]
    piv = old_gauss_jordan(stacked, a.field.char)
    return {c - n: {j - n: x for j, x in r.items()} for c, r in piv.items() if c >= n}


# -- inputs ------------------------------------------------------------------------------


def values(field):
    if field.char:
        return st.integers(0, field.char - 1).map(field)
    return st.sampled_from([0, 0, 1, -1, 2, 3]).map(field)


def vectors(field, n):
    return st.lists(values(field), min_size=n, max_size=n)


def indices(n):
    return st.sets(st.integers(0, n - 1)).map(sorted)


@st.composite
def spaces(draw, field, n, kind):
    if kind == "zero":
        return Subspace.zero(field, n)
    if kind == "coordinate":
        return Subspace.coordinate(field, n, draw(indices(n)))
    if kind == "scaled_units":
        scale = draw(values(field).filter(bool))
        return Subspace.from_vectors(field, n, [[scale if j == i else 0 for j in range(n)]
                                                for i in draw(indices(n))])
    if kind == "sum":
        parts = draw(st.lists(indices(n), max_size=3))
        return Subspace.span(field, n, [Subspace.coordinate(field, n, c) for c in parts])
    return Subspace.from_vectors(field, n, draw(st.lists(vectors(field, n), max_size=n)))


@st.composite
def cases(draw):
    """A coordinate subspace, another space of any kind, and vectors of the ambient."""
    field = Field(draw(st.sampled_from(CHARS)))
    n = draw(st.integers(1, 7))
    a = draw(spaces(field, n, draw(st.sampled_from(COORDINATE_KINDS))))
    b = draw(spaces(field, n, draw(st.sampled_from(COORDINATE_KINDS + ["general"]))))
    # vectors supported on a's pivots lie in a; the rest mostly do not
    inside = [[x if j in a._at else field.zero for j, x in enumerate(v)]
              for v in draw(st.lists(vectors(field, n), max_size=3))]
    return a, b, inside + draw(st.lists(vectors(field, n), max_size=3))


# -- tests -------------------------------------------------------------------------------


@SETTINGS
@given(cases())
def test_coordinate_membership_matches_elimination(case):
    a, _, vs = case
    assert a._coordinate
    for v in vs:
        row = _sparse(a.field, v)
        try:
            want = old_raw_coords(a, row)
        except ValueError:
            want = None
        assert a.contains(v) == (want is not None)
        if want is None:
            with pytest.raises(ValueError):
                a._raw_coords(row)
        else:
            assert a._raw_coords(row) == want


@SETTINGS
@given(cases())
def test_coordinate_containment_sums_and_meets_match_elimination(case):
    a, b, _ = case
    p = a.field.char
    assert (a <= b) == old_le(a, b)
    assert (b <= a) == old_le(b, a)
    for parts in ([a, b], [b, a], [a, a], [a]):
        assert Subspace.span(a.field, a.ambient_dim, parts)._rows == old_span(parts, p)
    assert a.intersect(b)._rows == zassenhaus(a, b)
    assert b.intersect(a)._rows == zassenhaus(b, a)


@SETTINGS
@given(cases())
def test_reduce_matches_elimination(case):
    a, b, vs = case
    p = a.field.char
    for space in (a, b):
        for v in vs:
            row = _sparse(a.field, v)
            assert exactlin._reduce(dict(row), space._rows, p) == old_reduce(dict(row), space._rows, p)

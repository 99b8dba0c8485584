"""The row forms `kernel_rows` and `solve_rows` against `kernel` and `solve` on the
same systems written densely (hypothesis, derandomized), over Q, F_2 and F_10007.

The sparse rows carry explicit zero entries and entries that cancel to zero,
as the commutant's +v / -v terms produce them; a zero that reached the
elimination would be taken for a pivot.  Over F_p sums are left unreduced,
so a multiple of p must count as zero too.  Shapes include 0 rows and 0 columns,
and right-hand sides include inconsistent ones.  Each answer is also checked
on its own: kernel vectors annihilate every row, the kernel has dimension
cols - rank, a solution solves, and an inconsistent system has an augmented
rank above its rank.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.errors import DimensionError
from grpd.exactlin import Field, Matrix, kernel, kernel_rows, rref, solve, solve_rows

FIELDS = [Field(0), Field(2), Field(10007)]
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def values(field):
    if field.char:
        return st.integers(0, field.char - 1).map(field)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3).map(field)


@st.composite
def entries(draw, field):
    """One entry of a sparse row: a value, an explicit zero, or a sum that may cancel."""
    kind = draw(st.sampled_from(["value", "zero", "cancel", "sum"]))
    if kind == "zero":
        return field.zero
    v = draw(values(field))
    if kind == "cancel":
        return field.zero + v - v
    if kind == "sum":
        return v + draw(values(field))
    return v


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=ncols, unique=True))
        rows.append({c: draw(entries(field)) for c in cols})
    rhs = [draw(entries(field)) for _ in rows]
    return field, rows, rhs, ncols


def dense(field, rows, ncols):
    return Matrix(field, [[row.get(c, field.zero) for c in range(ncols)] for row in rows], ncols)


def times(field, row, x):
    return field(sum((a * x[c] for c, a in row.items()), field.zero))


@SETTINGS
@given(systems())
def test_kernel_rows_matches_kernel(system):
    field, rows, _, ncols = system
    m = dense(field, rows, ncols)
    space = kernel_rows(field, rows, ncols)
    assert space == kernel(m)
    assert space.dim == ncols - rref(m)[1]
    assert all(not times(field, row, v) for row in rows for v in space.basis)


@SETTINGS
@given(systems())
def test_solve_rows_matches_solve(system):
    field, rows, rhs, ncols = system
    m = dense(field, rows, ncols)
    x = solve_rows(field, rows, rhs, ncols)
    assert x == solve(m, rhs)
    if x is None:
        aug = Matrix(field, [r + [b] for r, b in zip(m.rows, rhs)], ncols + 1)
        assert rref(aug)[1] > rref(m)[1]
    else:
        assert [times(field, row, x) for row in rows] == [field(b) for b in rhs]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_entries_never_pivot(field):
    one, five = field.one, field(5)
    rows = [{0: field.zero, 1: one}, {0: five - five, 2: one + one}]
    space = kernel_rows(field, rows, 3)
    # over F_2 the second row is 0 = 0, so column 2 is free as well
    assert space.pivots == ([0, 2] if field.char == 2 else [0])
    assert solve_rows(field, [{0: five - five}], [one], 1) is None
    assert solve_rows(field, [{0: field.zero, 1: one}], [five], 2) == [field.zero, five]


def test_row_forms_refuse_columns_outside_the_system():
    q = Field(0)
    with pytest.raises(DimensionError):
        kernel_rows(q, [{3: q.one}], 3)
    with pytest.raises(DimensionError):
        solve_rows(q, [{-1: q.one}], [q.one], 3)
    with pytest.raises(DimensionError):
        solve_rows(q, [{0: q.one}], [], 3)
    assert kernel_rows(q, [], 0).dim == 0
    assert kernel_rows(q, [], 2).dim == 2
    assert solve_rows(q, [], [], 2) == [q.zero, q.zero]
    assert solve_rows(q, [{}], [Fraction(1, 2)], 0) is None

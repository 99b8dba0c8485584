"""Exact linear algebra: worked examples plus randomized structural laws."""

import random
import re
from fractions import Fraction

import pytest

import corpus
from grpd.errors import DimensionError
from grpd.exactlin import (
    Field,
    Matrix,
    Subspace,
    kernel,
    rref,
    solve,
)

Q = Field(0)
F2 = Field(2)


def qm(rows):
    return Matrix(Q, [[Q(x) for x in r] for r in rows])


def test_field_guards():
    Field(7)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2**31 + 11)


@pytest.mark.parametrize("field", [Q, F2])
def test_booleans_are_not_coefficients(field):
    for b in (True, False):
        with pytest.raises(TypeError):
            field(b)


def test_matrix_entries_are_coerced_by_the_field():
    f7 = Field(7)
    for field, entry, want in [(Q, "1", 1), (Q, "3/6", Fraction(1, 2)), (Q, Fraction(4, 2), 2),
                               (f7, "3", 3), (f7, "-1", 6), (f7, 9, 2)]:
        (got,), = Matrix(field, [[entry]]).rows
        assert got == want and type(got) is type(want), (field, entry)
    for field, entry in [(Q, 0.5), (Q, True), (f7, False), (f7, Fraction(1, 2)), (f7, 0.5)]:
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            Matrix(field, [[field.one, entry]])


def test_scalar_normal_forms():
    assert Q("3/6") == Fraction(1, 2)
    assert Q("-2") == Fraction(-2)
    f7 = Field(7)
    x = f7(9)
    assert type(x) is int and x == 2
    assert f7(3 * f7.inv(5) * 5) == 3
    assert not f7(7)


def test_q_elements_are_ints_or_proper_fractions():
    assert type(Q.zero) is int and type(Q.one) is int
    for x, want in [(Fraction(4, 2), 2), (-3, -3), ("6/3", 2), (Fraction(3, 6), Fraction(1, 2))]:
        got = Q(x)
        assert got == want and type(got) is type(want)
    for x, want in [(2, Fraction(1, 2)), (-1, -1), (Fraction(1, 3), 3), (Fraction(-2, 3), Fraction(-3, 2))]:
        got = Q.inv(x)
        assert got == want and type(got) is type(want)
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)
    F7 = Field(7)
    assert F7(F7.inv(F7(3)) * F7(3)) == F7.one


# strings that int() and Fraction() treat differently, or that only one accepts
EDGE_STRINGS = [" 3", "+3", "-0", "1_0", "\u0663", "\u00b2", "2/4", "1/1", "0x1", "", "1.5",
                "007", "-", "3\n", "9" * 5000]


@pytest.mark.parametrize("s", EDGE_STRINGS, ids=lambda s: repr(s[:8]))
def test_q_parses_strings_as_fraction_does(s):
    """The int() path for plain ASCII integers accepts and rejects what Fraction() does."""
    try:
        want = Fraction(s)
    except ValueError:
        with pytest.raises(ValueError):
            Q(s)
        return
    got = Q(s)
    assert got == want and type(got) is (int if want.denominator == 1 else Fraction)


def test_rref_identity():
    m = Matrix.identity(Q, 2)
    red, rank = rref(m)
    assert red == m and rank == 2


def test_rref_proportional_rows():
    red, rank = rref(qm([[1, 2], [2, 4]]))
    assert rank == 1
    assert red == qm([[1, 2], [0, 0]])


def test_rref_mod2():
    m = Matrix(F2, [[F2(1), F2(1)], [F2(1), F2(1)]])
    red, rank = rref(m)
    assert rank == 1
    assert red.rows[0] == [F2(1), F2(1)]
    assert not any(red.rows[1])


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = qm([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
        red, rank = rref(m)
        again, rank2 = rref(red)
        assert again == red and rank2 == rank


def test_solve_identity():
    v = [Q(3), Q(-1)]
    assert solve(Matrix.identity(Q, 2), v) == v


def test_solve_underdetermined():
    x = solve(qm([[1, 1]]), [Q(3)])
    assert x is not None and x[0] + x[1] == Q(3)


def test_solve_inconsistent():
    assert solve(qm([[0]]), [Q(1)]) is None


def test_kernel_examples():
    assert kernel(Matrix.identity(Q, 3)).dim == 0
    assert kernel(qm([[0, 0, 0]])).dim == 3
    k = kernel(qm([[1, 1, 0]]))
    assert k.dim == 2
    assert k.contains([Q(1), Q(-1), Q(0)])


def test_subspace_lattice_examples():
    a = Subspace.from_vectors(Q, 2, [[Q(1), Q(0)]])
    b = Subspace.from_vectors(Q, 2, [[Q(0), Q(1)]])
    zero = Subspace.zero(Q, 2)
    assert a.sum(zero) == a
    assert a.intersect(b).dim == 0
    full = Subspace.full(Q, 2)
    diag = Subspace.from_vectors(Q, 2, [[Q(1), Q(1)]])
    assert full.intersect(diag) == diag
    assert diag.contains([Q(2), Q(2)])
    assert not diag.contains([Q(1), Q(0)])


def test_ambient_mismatch():
    a = Subspace.full(Q, 2)
    b = Subspace.full(Q, 3)
    with pytest.raises(DimensionError):
        a.sum(b)
    with pytest.raises(DimensionError):
        a.intersect(b)


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix(Q, [[1, 2], [3]]), "ragged matrix rows"),
    (lambda: Matrix.identity(Q, 2).apply([1]), "apply: 2 columns vs vector of length 1"),
    (lambda: Matrix.identity(Q, 2).mul(Matrix.identity(Q, 3)), "matrix product shape mismatch"),
    (lambda: Matrix.identity(Q, 2).add(Matrix.zeros(Q, 2, 3)), "matrix sum shape mismatch"),
    (lambda: Subspace.from_vectors(Q, 2, [[1]]), "vector length differs from ambient dimension"),
    (lambda: Subspace.coordinate(Q, 3, [1, 0]),
     "coordinate indices must increase strictly within the ambient"),
    (lambda: Subspace.coordinate(Q, 3, [1, 3]),
     "coordinate indices must increase strictly within the ambient"),
    (lambda: Subspace.full(Q, 2).reduce([1, 2, 3]), "vector length differs from ambient dimension"),
], ids=["ragged", "apply", "mul", "add", "from_vectors", "coordinate_order", "coordinate_range",
        "vector_length"])
def test_shape_refusals_name_the_mismatch(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("field", [Q, F2])
def test_zero_size_shapes(field):
    assert corpus.from_columns(field, [[], []]).shape == (0, 2)
    assert corpus.from_columns(field, Matrix.zeros(field, 3, 0).rows, 0).shape == (0, 3)
    assert Matrix.zeros(field, 0, 2).mul(Matrix.zeros(field, 2, 3)).shape == (0, 3)
    assert Matrix.zeros(field, 2, 0).mul(Matrix.zeros(field, 0, 3)) == Matrix.zeros(field, 2, 3)
    assert Matrix.zeros(field, 2, 3).mul(Matrix.zeros(field, 3, 0)).shape == (2, 0)
    empty = Matrix.zeros(field, 0, 3)
    assert empty.add(empty).shape == empty.scale(field.one).shape == (0, 3)


def _random_matrix(rng, rows, cols):
    return qm([[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
               for _ in range(rows)])


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rref(m)[1] == rref(corpus.from_columns(m.field, m.rows, m.ncols))[1]


def test_rank_nullity():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(rng, 5, 5)
        _, rank = rref(m)
        assert kernel(m).dim + rank == 5


def test_dimension_formula_q6():
    rng = random.Random(17)
    for _ in range(25):
        a = Subspace.from_vectors(
            Q, 6, [[Q(rng.randint(-3, 3)) for _ in range(6)] for _ in range(rng.randint(0, 4))]
        )
        b = Subspace.from_vectors(
            Q, 6, [[Q(rng.randint(-3, 3)) for _ in range(6)] for _ in range(rng.randint(0, 4))]
        )
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_intersection_is_lower_bound():
    rng = random.Random(19)
    for _ in range(20):
        a = Subspace.from_vectors(Q, 4, [[Q(rng.randint(-2, 2)) for _ in range(4)] for _ in range(2)])
        b = Subspace.from_vectors(Q, 4, [[Q(rng.randint(-2, 2)) for _ in range(4)] for _ in range(2)])
        inter = a.intersect(b)
        assert inter <= a and inter <= b
        assert a <= a.sum(b) and b <= a.sum(b)


def test_exactness_of_solutions():
    rng = random.Random(23)
    for _ in range(20):
        m = _random_matrix(rng, 4, 4)
        rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        x = solve(m, rhs)
        if x is None:
            continue
        assert m.apply(x) == rhs  # no rounding anywhere


def test_coords_expand_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        s = Subspace.from_vectors(
            Q, 5, [[Q(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        )
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(s.dim)]
        v = corpus.expand(s, coeffs)
        assert s.contains(v)
        assert s.coords(v) == coeffs

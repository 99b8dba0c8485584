"""F_p linear algebra against a boxed reference written here (hypothesis, derandomized).

exactlin eliminates over F_p on plain ints; this file keeps a slow boxed
residue class and a textbook elimination on it, and requires every result
to agree residue for residue on seeded random matrices, including empty
and rank-deficient ones.  Matrix-vector and matrix-matrix products, zero
vectors and zero-size shapes included, are held to plain sums of residues.
Every output entry must be a plain int in [0, p), and unreduced inputs
(-1, p + 3, entries shifted by multiples of p) must give the answers of
reduced ones.  Each matrix is built both from dense rows and from raw
columns, the form grpd makes its own maps in, and the two must agree.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd.exactlin import Field, Matrix, Subspace, kernel, kernel_rows, solve, solve_rows

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
PRIMES = [2, 3, 10007, 2**31 - 1]
# a Matrix from the public constructor's dense rows, or from raw columns
forms = st.sampled_from(["rows", "columns"])


class Res:
    """Boxed residue mod p, the reference arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return Res(self.v + other.v, self.p)

    def __sub__(self, other):
        return Res(self.v - other.v, self.p)

    def __mul__(self, other):
        return Res(self.v * other.v, self.p)

    def inverse(self):
        return Res(pow(self.v, self.p - 2, self.p), self.p)  # Fermat

    def __bool__(self):
        return self.v != 0


def ref_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_span(vectors, n):
    """RREF basis and pivots of the span."""
    rows, pivots = ref_rref(vectors, n)
    return rows[:len(pivots)], pivots


def ref_reduce(basis, pivots, v):
    v = list(v)
    for row, c in zip(basis, pivots):
        f = v[c]
        v = [a - f * b for a, b in zip(v, row)]
    return v


def ref_mul(a, b, ncols, p):
    """Residues of the product of Res row lists a and b, where b has ncols columns."""
    return [[sum((x * b[i][j] for i, x in enumerate(r)), Res(0, p)).v for j in range(ncols)]
            for r in a]


def ints(rows):
    return [[x.v for x in r] for r in rows]


def unboxed(vec, p):
    """Residues of exactlin output, checking that every entry is a plain int in [0, p)."""
    assert all(type(x) is int and 0 <= x < p for x in vec)
    return list(vec)


def unreduced(rng, x, p):
    """x plus a random multiple of p, often negative."""
    return x + p * rng.randint(-2, 2)


@st.composite
def fp_cases(draw):
    """(p, rng): a prime and a seeded generator for entries."""
    return draw(st.sampled_from(PRIMES)), random.Random(draw(st.integers(0, 2**32)))


def random_entry(rng, p):
    return rng.choice([0, 0, 1, p - 1, rng.randrange(p)])


def random_rows(rng, p, nrows, ncols):
    """Rows of a random matrix whose rank is at most a random bound."""
    rank = rng.randint(0, min(nrows, ncols))
    base = [[random_entry(rng, p) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [random_entry(rng, p) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) % p for j in range(ncols)])
    return rows


def raw_columns(rows, ncols):
    """The raw columns {row index: nonzero entry} of dense rows."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]


def both(rows, p, ncols, form="rows"):
    """The same rows as an exactlin Matrix, built in the given form, and as reference residues."""
    field = Field(p)
    m = (Matrix(field, [[field(x) for x in r] for r in rows], ncols) if form == "rows"
         else Matrix._of_columns(field, len(rows), raw_columns(rows, ncols)))
    return m, [[Res(x, p) for x in r] for r in rows]


def shapes(rng):
    return rng.randint(0, 6), rng.randint(0, 6)


@SETTINGS
@given(fp_cases(), forms)
def test_rref_pivots_matches_reference(case, form):
    p, rng = case
    nrows, ncols = shapes(rng)
    m, ref = both(random_rows(rng, p, nrows, ncols), p, ncols, form)
    red, pivots = m.rref_pivots()
    ref_red, ref_pivots = ref_rref(ref, ncols)
    assert pivots == ref_pivots
    assert red.shape == (nrows, ncols)
    assert [unboxed(r, p) for r in red.rows] == ints(ref_red)


@SETTINGS
@given(fp_cases(), forms)
def test_kernel_matches_reference(case, form):
    p, rng = case
    nrows, ncols = shapes(rng)
    m, ref = both(random_rows(rng, p, nrows, ncols), p, ncols, form)
    red, pivots = ref_rref(ref, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for c in free:
        v = [Res(0, p)] * ncols
        v[c] = Res(1, p)
        for i, pc in enumerate(pivots):
            v[pc] = Res(0, p) - red[i][c]
        vecs.append(v)
    basis, ref_pivots = ref_span(vecs, ncols)
    ker = kernel(m)
    assert ker.pivots == ref_pivots
    assert [unboxed(v, p) for v in ker.basis] == ints(basis)


@SETTINGS
@given(fp_cases(), forms, st.booleans())
def test_solve_matches_reference(case, form, consistent):
    p, rng = case
    nrows, ncols = shapes(rng)
    rows = random_rows(rng, p, nrows, ncols)
    if consistent:
        x = [random_entry(rng, p) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(r, x)) % p for r in rows]
    else:
        rhs = [random_entry(rng, p) for _ in range(nrows)]
    m, ref = both(rows, p, ncols, form)
    red, pivots = ref_rref([r + [Res(b, p)] for r, b in zip(ref, rhs)], ncols + 1)
    got = solve(m, [Field(p)(b) for b in rhs])
    if ncols in pivots:
        assert got is None and not consistent
        return
    want = [0] * ncols
    for i, c in enumerate(pivots):
        want[c] = red[i][ncols].v
    assert got is not None and unboxed(got, p) == want


@SETTINGS
@given(fp_cases(), forms)
def test_inverse_matches_reference(case, form):
    p, rng = case
    k = rng.randint(0, 6)
    m, ref = both(random_rows(rng, p, k, k), p, k, form)
    ident = [[Res(int(i == j), p) for j in range(k)] for i in range(k)]
    red, pivots = ref_rref([r + e for r, e in zip(ref, ident)], 2 * k)
    got = corpus.inverse(m)
    if pivots[:k] != list(range(k)):
        assert got is None
    else:
        assert [unboxed(r, p) for r in got.rows] == ints([r[k:] for r in red])


@SETTINGS
@given(fp_cases(), forms)
def test_apply_and_mul_match_reference(case, form):
    p, rng = case
    nrows, ncols = shapes(rng)
    k = rng.randint(0, 6)
    m, ref = both(random_rows(rng, p, nrows, ncols), p, ncols, form)
    o, ref_o = both([[random_entry(rng, p) for _ in range(k)] for _ in range(ncols)], p, k, form)
    for x in ([0] * ncols, [random_entry(rng, p) for _ in range(ncols)]):
        want = [r[0] for r in ref_mul(ref, [[Res(a, p)] for a in x], 1, p)]
        assert unboxed(m.apply(corpus.vec(Field(p), x)), p) == want
    prod = m.mul(o)
    assert prod.shape == (nrows, k)
    assert [unboxed(r, p) for r in prod.rows] == ref_mul(ref, ref_o, k, p)


@SETTINGS
@given(fp_cases())
def test_subspace_operations_match_reference(case):
    p, rng = case
    field = Field(p)
    n = rng.randint(0, 6)
    gens_u = random_rows(rng, p, rng.randint(0, 5), n)
    gens_w = random_rows(rng, p, rng.randint(0, 5), n)
    u = Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in gens_u])
    w = Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in gens_w])
    ref_u, piv_u = ref_span([[Res(x, p) for x in r] for r in gens_u], n)
    ref_w, piv_w = ref_span([[Res(x, p) for x in r] for r in gens_w], n)
    assert (u.pivots, [unboxed(r, p) for r in u.basis]) == (piv_u, ints(ref_u))

    coeffs = [random_entry(rng, p) for _ in ref_u]
    inside = [sum(c * r[j].v for c, r in zip(coeffs, ref_u)) % p for j in range(n)]
    for v in (inside, [random_entry(rng, p) for _ in range(n)]):
        rest = [x.v for x in ref_reduce(ref_u, piv_u, [Res(x, p) for x in v])]
        boxed = corpus.vec(field, v)
        assert unboxed(u.reduce(boxed), p) == rest
        assert u.contains(boxed) == (not any(rest))
        if any(rest):
            with pytest.raises(ValueError):
                u.coords(boxed)
        else:
            assert unboxed(u.coords(boxed), p) == [v[c] for c in piv_u]
    assert unboxed(corpus.expand(u, corpus.vec(field, coeffs)), p) == inside
    assert unboxed(corpus.expand(u, field.zero_vec(u.dim)), p) == [0] * n

    # Zassenhaus on the reference: rows [a | a] and [b | 0]; the nested and
    # equal pairs A <= B, B <= A and A = B follow the drawn one
    s = u.sum(w)
    ref_s, _ = ref_span([[Res(x, p) for x in r] for r in gens_u + gens_w], n)
    u_again = Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in gens_u[::-1]])
    zero = [Res(0, p)] * n
    for a, b, ref_a, ref_b in [(u, w, ref_u, ref_w), (u, s, ref_u, ref_s),
                               (s, u, ref_s, ref_u), (u, u_again, ref_u, ref_u)]:
        red, pivots = ref_rref([r + r for r in ref_a] + [r + zero for r in ref_b], 2 * n)
        meet = [red[i][n:] for i in range(len(pivots)) if not any(red[i][:n])]
        ref_meet, piv_meet = ref_span(meet, n)
        got = a.intersect(b)
        assert (got.pivots, [unboxed(r, p) for r in got.basis]) == (piv_meet, ints(ref_meet))
        # raw <= and == against the reference: a <= b iff a + b spans b
        ref_ab, ref_bb = ref_span(ref_a + ref_b, n), ref_span(ref_b, n)
        assert (a <= b) == (ints(ref_ab[0]) == ints(ref_bb[0]))
        assert (a == b) == (ints(ref_span(ref_a, n)[0]) == ints(ref_bb[0]))


@SETTINGS
@given(fp_cases())
def test_subspace_equality_does_not_depend_on_the_construction(case):
    # the span of the unit vectors at idx, as coordinate, from_vectors and kernel_rows
    p, rng = case
    field = Field(p)
    n = rng.randint(1, 6)
    idx = sorted(rng.sample(range(n), rng.randint(0, n)))
    gens = [[rng.randrange(1, p) * int(j == i) for j in range(n)] for i in idx]
    gens += [[random_entry(rng, p) if j in idx else 0 for j in range(n)]
             for _ in range(rng.randint(0, 3))]
    routes = [Subspace.coordinate(field, n, idx),
              Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in gens[::-1]]),
              kernel_rows(field, [{j: field(rng.randrange(1, p))} for j in range(n)
                                  if j not in idx], n)]
    for a in routes:
        for b in routes:
            assert a == b and a <= b
    if idx:
        smaller = Subspace.coordinate(field, n, idx[1:])
        assert smaller <= routes[1] and not routes[1] <= smaller and smaller != routes[1]


def test_the_field_reduces_and_refuses_to_invert_zero():
    f7 = Field(7)
    assert [f7(x) for x in (-1, 7 + 3, "-8", 7)] == [6, 3, 6, 0]
    assert all(type(f7(x)) is int for x in (-1, 10, "-8"))
    assert [f7.inv(x) for x in (3, -4, 10)] == [5, 5, 5]
    for zero in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            f7.inv(zero)
    assert (f7.fmt(-1), f7.fmt(3)) == (6, 3)


def test_a_matrix_stores_its_entries_reduced():
    f7 = Field(7)
    assert Matrix(f7, [[-1]]) == Matrix(f7, [[6]])
    assert Matrix(f7, [[-1]]).rows == [[6]]
    assert Matrix(f7, [[14, 10]]).rows == [[0, 3]]
    assert Matrix(Field(0), [[-1]]).rows == [[-1]]  # over Q an int is already canonical


def test_matrix_sums_and_multiples_come_out_normalized():
    # add and scale combine raw columns; the rows read back are normalized
    half = Matrix(Field(0), [[Fraction(1, 2), Fraction(-1, 2)]])
    for out in (half.add(half), half.scale(2)):
        assert out.rows == [[1, -1]]
        assert [type(x) for x in out.rows[0]] == [int, int]
    f7 = Field(7)
    m = Matrix(f7, [[3, 6]])
    assert m.add(m).rows == [[6, 5]]
    assert m.scale(5).rows == [[1, 2]]
    assert m.scale(-1).rows == [[4, 1]]


@pytest.mark.parametrize("p", PRIMES)
def test_dense_rows_and_raw_columns_give_the_same_matrix(p):
    # -1 and p + 3 are read as p - 1 and 3; 0 x k and k x 0 keep their shapes
    field = Field(p)
    pairs = [(Matrix(field, [[-1, p + 3], [0, 2 * p]]), [{0: p - 1}, {0: 3 % p} if 3 % p else {}]),
             (Matrix(field, [], 3), [{}, {}, {}]),
             (Matrix(field, [[], [], []]), [])]
    for m, cols in pairs:
        c = Matrix._of_columns(field, m.nrows, cols)
        assert m == c and m.rows == c.rows and m.shape == c.shape
        assert [[type(x) for x in r] for r in c.rows] == [[int] * c.ncols] * c.nrows
    assert pairs[0][0].rows == [[p - 1, 3 % p], [0, 0]]
    assert [m.shape for m, _ in pairs] == [(2, 2), (0, 3), (3, 0)]


def test_a_multiple_of_p_is_no_pivot():
    # reduced before its zero test, a 2 over F_2 is zero and no pivot
    f2 = Field(2)
    assert kernel_rows(f2, [{0: 2, 1: 1}], 2) == kernel_rows(f2, [{1: 1}], 2)
    assert kernel_rows(f2, [{0: 2, 1: 1}], 2).pivots == [0]
    assert solve_rows(f2, [{0: 2}], [1], 1) is None
    assert solve_rows(f2, [{0: 3}], [-1], 1) == [1]


@SETTINGS
@given(fp_cases())
def test_unreduced_inputs_give_the_answers_of_reduced_ones(case):
    # -1 and p + 3 for p - 1 and 3, and any entry shifted by a multiple of p
    p, rng = case
    field = Field(p)
    nrows, ncols = shapes(rng)
    rows = random_rows(rng, p, nrows, ncols)
    shifted = [[unreduced(rng, x, p) for x in r] for r in rows]
    other = Matrix(field, random_rows(rng, p, nrows, ncols), ncols)
    m, ms = Matrix(field, rows, ncols), Matrix(field, shifted, ncols)
    mc = Matrix._of_columns(field, nrows, raw_columns(rows, ncols))
    assert mc == ms == m and mc.rows == ms.rows == m.rows and mc.shape == ms.shape == m.shape
    assert ms.add(other) == m.add(other) == other.add(ms)
    for c, reduced in ((-1, p - 1), (p + 3, 3 % p), (unreduced(rng, 5, p), 5 % p)):
        assert ms.scale(c) == m.scale(reduced)
    for out in (ms.add(other), ms.scale(-1), ms.scale(p + 3)):
        for r in out.rows:
            unboxed(r, p)

    sparse = [dict(enumerate(r)) for r in rows]
    sparse_shifted = [dict(enumerate(r)) for r in shifted]
    rhs = [random_entry(rng, p) for _ in rows]
    rhs_shifted = [unreduced(rng, b, p) for b in rhs]
    if ncols:  # one more equation written with -1 and p + 3
        sparse.append({0: p - 1, ncols - 1: 3 % p})
        sparse_shifted.append({0: -1, ncols - 1: p + 3})
        rhs.append(3 % p)
        rhs_shifted.append(p + 3)
    assert kernel_rows(field, sparse_shifted, ncols) == kernel_rows(field, sparse, ncols)
    got = solve_rows(field, sparse_shifted, rhs_shifted, ncols)
    assert got == solve_rows(field, sparse, rhs, ncols)
    if got is not None:
        unboxed(got, p)

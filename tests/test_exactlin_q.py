"""Q linear algebra against a textbook dense Fraction elimination written here.

exactlin eliminates on sparse rows; this file keeps the plain dense
Gauss-Jordan loop over Fractions and requires every result to agree entry
for entry on seeded random matrices (hypothesis, derandomized).  The
matrices are sparse with about two nonzeros a row, tall and sparse like a
center system, dense, rank-deficient, all zero, empty, without columns, or
built so that entries cancel to zero during elimination.  Matrix-vector and
matrix-matrix products are held to the plain dense sums the same way.  Each
matrix is built from dense rows or from raw columns, the form grpd makes
its own maps in, whose integral entries may be Fractions.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd.exactlin import Field, Matrix, Subspace, kernel, kernel_rows, solve

SETTINGS = settings(derandomize=True, max_examples=12, deadline=None, database=None)
Q = Field(0)
ZERO = Fraction(0)
KINDS = ["sparse", "tall", "dense", "low_rank", "zero", "empty", "no_columns", "cancelling"]


def ref_rref(rows, ncols):
    """Dense Gauss-Jordan over Fractions: the RREF rows (zero rows last) and the pivots."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][c]
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


def ref_kernel(rows, ncols):
    """RREF basis and pivots of the null space, read off the reference RREF."""
    red, pivots = ref_rref(rows, ncols)
    vecs = []
    for c in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][c]
        vecs.append(v)
    return ref_span(vecs, ncols)


def ref_reduce(basis, pivots, v):
    v = list(v)
    for row, c in zip(basis, pivots):
        f = v[c]
        v = [a - f * b for a, b in zip(v, row)]
    return v


def ref_mul(a, b, ncols):
    """Dense product of row lists a and b, where b has ncols columns."""
    return [[sum((x * b[i][j] for i, x in enumerate(r)), ZERO) for j in range(ncols)] for r in a]


def ref_intersection(u, w, n):
    """u ∩ w from the null space of [u; -w]^T: each (a, b) with a u = b w gives a u."""
    cols = u + [[-x for x in r] for r in w]
    if not cols:
        return [], []
    null, _ = ref_kernel([[c[j] for c in cols] for j in range(n)], len(cols))
    meet = [[sum((a * r[j] for a, r in zip(k, u)), ZERO) for j in range(n)] for k in null]
    return ref_span(meet, n)


def canonical(vec):
    """The entries of exactlin output, checking that each one is a rational in
    canonical form: an int, or a Fraction with denominator > 1 (never a float)."""
    assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in vec)
    return list(vec)


# -- matrices -------------------------------------------------------------------


def entry(rng):
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice([1, -1, rng.randint(1, 9), -rng.randint(1, 9)]),
                    rng.choice([1, 1, rng.randint(1, 9)]))


def sparse_rows(rng, nrows, ncols, per_row=2):
    rows = []
    for _ in range(nrows):
        r = [ZERO] * ncols
        for j in rng.sample(range(ncols), min(per_row, ncols)):
            r[j] = entry(rng)
        rows.append(r)
    return rows


def center_rows(rng, nrows, ncols):
    """Rows c (e_i - e_j) inside the classes of a random partition, a few c e_i in class 0.

    Like a center system: tall, two nonzeros a row, many repeated or zero
    rows, and a kernel spanned by the sums over the classes it leaves free.
    """
    cls = [rng.randrange(4) for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        i = rng.randrange(ncols)
        r = [ZERO] * ncols
        same = [j for j in range(ncols) if cls[j] == cls[i] and j != i]
        if cls[i] == 0 and rng.random() < 0.1:
            r[i] = entry(rng)
        elif same:
            j = rng.choice(same)
            r[i] = entry(rng)
            r[j] = -r[i]
        rows.append(r)
    return rows


def combinations(rng, base, nrows, ncols):
    """nrows random combinations of the base rows, with many zero coefficients."""
    rows = []
    for _ in range(nrows):
        coeffs = [rng.choice([ZERO, ZERO, entry(rng)]) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), ZERO) for j in range(ncols)])
    return rows


def cancelling_rows(rng, ncols):
    """Rows that agree with a base row on a prefix, then differ, plus exact multiples.

    Subtracting the base row clears the whole prefix, so entries that were
    nonzero cancel to zero during elimination, and multiples vanish whole.
    """
    base = [entry(rng) for _ in range(ncols)]
    rows = [base]
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(0, ncols)
        rows.append(base[:k] + [entry(rng) if rng.random() < 0.5 else ZERO for _ in base[k:]])
        if rng.random() < 0.5:
            c = entry(rng)
            rows.append([c * x for x in rows[rng.randrange(len(rows))]])
    rng.shuffle(rows)
    return rows


def case_rows(kind, rng):
    """(rows, ncols) of a random matrix of the given kind."""
    ncols = rng.randint(1, 7)
    if kind == "sparse":
        return sparse_rows(rng, rng.randint(1, 12), ncols), ncols
    if kind == "tall":
        return center_rows(rng, 200, 20), 20
    if kind == "dense":
        return [[entry(rng) for _ in range(ncols)] for _ in range(rng.randint(1, 7))], ncols
    if kind == "low_rank":
        base = sparse_rows(rng, rng.randint(0, ncols - 1), ncols, per_row=rng.randint(1, ncols))
        return combinations(rng, base, rng.randint(1, 8), ncols), ncols
    if kind == "zero":
        return [[ZERO] * ncols for _ in range(rng.randint(1, 5))], ncols
    if kind == "empty":
        return [], ncols - 1
    if kind == "no_columns":
        return [[] for _ in range(rng.randint(1, 4))], 0
    return cancelling_rows(rng, ncols), ncols


def matrix(kind, seed):
    """(rows, ncols, rng): a seeded matrix of the kind and its generator, to draw more with."""
    rng = random.Random(seed)
    return (*case_rows(kind, rng), rng)


def build(form, rows, ncols):
    """A Matrix of the rows, from the public constructor or from their raw columns."""
    if form == "rows":
        return Matrix(Q, rows, ncols)
    return Matrix._of_columns(Q, len(rows), [{i: r[j] for i, r in enumerate(rows) if r[j]}
                                             for j in range(ncols)])


# every test runs each kind; hypothesis draws the seed and the form, so a failing case prints short
each_kind = pytest.mark.parametrize("kind", KINDS)
seeds = st.integers(0, 2**32)
forms = st.sampled_from(["rows", "columns"])


# -- tests ----------------------------------------------------------------------


@each_kind
@SETTINGS
@given(seeds, forms)
def test_rref_pivots_matches_reference(kind, seed, form):
    rows, ncols, _ = matrix(kind, seed)
    m = build(form, rows, ncols)
    red, pivots = m.rref_pivots()
    ref_red, ref_pivots = ref_rref(rows, ncols)
    assert pivots == ref_pivots
    assert red.shape == (len(rows), ncols)
    assert [canonical(r) for r in red.rows] == ref_red
    assert m.rows == rows  # the input is left as it was


@each_kind
@SETTINGS
@given(seeds, forms)
def test_kernel_matches_reference(kind, seed, form):
    rows, ncols, _ = matrix(kind, seed)
    ker = kernel(build(form, rows, ncols))
    basis, pivots = ref_kernel(rows, ncols)
    assert ker.pivots == pivots
    assert [canonical(v) for v in ker.basis] == basis


@each_kind
@SETTINGS
@given(seeds, forms, st.booleans())
def test_solve_matches_reference(kind, seed, form, consistent):
    rows, ncols, rng = matrix(kind, seed)
    if consistent:
        x = [rng.choice([ZERO, entry(rng)]) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]
    else:
        rhs = [rng.choice([ZERO, entry(rng)]) for _ in rows]
    red, pivots = ref_rref([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
    got = solve(build(form, rows, ncols), rhs)
    if ncols in pivots:
        assert got is None and not consistent
        return
    want = [ZERO] * ncols
    for i, c in enumerate(pivots):
        want[c] = red[i][ncols]
    assert got is not None and canonical(got) == want


@each_kind
@SETTINGS
@given(seeds)
def test_subspace_operations_match_reference(kind, seed):
    gens_u, n, rng = matrix(kind, seed)
    picked = [r for r in gens_u if rng.random() < 0.3]
    gens_w = combinations(rng, picked + sparse_rows(rng, rng.randint(0, 2), n), rng.randint(0, 4), n)
    u = Subspace.from_vectors(Q, n, gens_u)
    w = Subspace.from_vectors(Q, n, gens_w)
    ref_u, piv_u = ref_span(gens_u, n)
    ref_w, piv_w = ref_span(gens_w, n)
    assert (u.pivots, [canonical(r) for r in u.basis]) == (piv_u, ref_u)
    assert (w.pivots, [canonical(r) for r in w.basis]) == (piv_w, ref_w)

    # the nested and equal pairs A <= B, B <= A and A = B follow the drawn one;
    # each generator list is eliminated once, and its reference span reused
    s = u.sum(w)
    ref = {"u": (ref_u, piv_u), "w": (ref_w, piv_w), "s": ref_span(gens_u + gens_w, n)}
    ref_s = ref["s"][0]
    u_again = Subspace.from_vectors(Q, n, gens_u[::-1])
    for got, (basis, pivots) in [(s, ref["s"]),
                                 (u.intersect(w), ref_intersection(ref_u, ref_w, n)),
                                 (u.intersect(s), ref_intersection(ref_u, ref_s, n)),
                                 (s.intersect(u), ref_intersection(ref_s, ref_u, n)),
                                 (u.intersect(u_again), ref_intersection(ref_u, ref_u, n))]:
        assert (got.pivots, [canonical(r) for r in got.basis]) == (pivots, basis)
    # raw <= and == against the reference: a <= b iff a + b spans b, and the
    # span of a + b is the span of their two reference bases
    for a, b, ka, kb in [(u, w, "u", "w"), (u, s, "u", "s"), (s, u, "s", "u"), (u, u_again, "u", "u")]:
        assert (a <= b) == (ref_span(ref[ka][0] + ref[kb][0], n) == ref[kb])
        assert (a == b) == (ref[ka] == ref[kb])

    coeffs = [rng.choice([ZERO, entry(rng)]) for _ in ref_u]
    inside = [sum((c * r[j] for c, r in zip(coeffs, ref_u)), ZERO) for j in range(n)]
    for v in (inside, [rng.choice([ZERO, entry(rng)]) for _ in range(n)]):
        rest = ref_reduce(ref_u, piv_u, v)
        assert canonical(u.reduce(v)) == rest
        assert u.contains(v) == (not any(rest))
        if any(rest):
            with pytest.raises(ValueError):
                u.coords(v)
        else:
            assert canonical(u.coords(v)) == [v[c] for c in piv_u]
    assert canonical(corpus.expand(u, coeffs)) == inside
    assert canonical(corpus.expand(u, [ZERO] * u.dim)) == [ZERO] * n


@SETTINGS
@given(seeds)
def test_subspace_equality_does_not_depend_on_the_construction(seed):
    # the span of the unit vectors at idx, as coordinate, from_vectors and kernel_rows
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    idx = sorted(rng.sample(range(n), rng.randint(0, n)))
    units = [[Fraction(int(j == i)) for j in range(n)] for i in idx]
    gens = combinations(rng, units, rng.randint(0, 3), n) + [[entry(rng) * x for x in u] for u in units]
    routes = [Subspace.coordinate(Q, n, idx),
              Subspace.from_vectors(Q, n, gens),
              kernel_rows(Q, [{j: entry(rng)} for j in range(n) if j not in idx], n)]
    for a in routes:
        for b in routes:
            assert a == b and a <= b
    if idx:
        smaller = Subspace.coordinate(Q, n, idx[1:])
        assert smaller <= routes[1] and not routes[1] <= smaller and smaller != routes[1]


def test_subspace_rows_holding_integral_fractions_compare_as_their_ints():
    # scaling [2, 4] by 1/2 leaves Fraction(2, 1) in the raw row; the span of [1, 2]
    # holds the int 2, and the two spaces are the same
    halved = Subspace.from_vectors(Q, 3, [[2, 4, 0]])
    assert type(halved._rows[0][1]) is Fraction
    plain = Subspace.from_vectors(Q, 3, [[1, 2, 0]])
    assert halved == plain and halved <= plain <= halved
    assert canonical(halved.basis[0]) == [1, 2, 0]
    wider = Subspace.span(Q, 3, [plain, Subspace.coordinate(Q, 3, [2])])
    assert halved <= wider and not wider <= halved and halved != wider


@each_kind
@SETTINGS
@given(seeds, forms)
def test_inverse_matches_reference(kind, seed, form):
    rows, ncols, _ = matrix(kind, seed)
    square = [r[:len(rows)] for r in rows] if len(rows) <= ncols else rows[:ncols]
    k = len(square)
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    red, pivots = ref_rref([r + e for r, e in zip(square, ident)], 2 * k)
    got = corpus.inverse(build(form, square, k))
    if pivots[:k] != list(range(k)):
        assert got is None
    else:
        assert [canonical(r) for r in got.rows] == [r[k:] for r in red]


@each_kind
@SETTINGS
@given(seeds, forms)
def test_apply_and_mul_match_reference(kind, seed, form):
    rows, ncols, rng = matrix(kind, seed)
    m = build(form, rows, ncols)
    for x in ([ZERO] * ncols, [rng.choice([ZERO, entry(rng)]) for _ in range(ncols)]):
        assert canonical(m.apply(x)) == [r[0] for r in ref_mul(rows, [[a] for a in x], 1)]
    k = rng.randint(0, 4)
    other = sparse_rows(rng, ncols, k, per_row=rng.randint(0, k))
    prod = m.mul(build(form, other, k))
    assert prod.shape == (len(rows), k)
    assert [canonical(r) for r in prod.rows] == ref_mul(rows, other, k)


def test_dense_rows_and_raw_columns_give_the_same_matrix():
    # Fraction(4, 2) is read back as the int 2; 0 x k and k x 0 keep their shapes
    pairs = [(Matrix(Q, [[Fraction(4, 2), -1], [Fraction(1, 3), 0]]),
              [{0: Fraction(2), 1: Fraction(1, 3)}, {0: -1}]),
             (Matrix(Q, [], 3), [{}, {}, {}]),
             (Matrix(Q, [[], [], []]), [])]
    for m, cols in pairs:
        c = Matrix._of_columns(Q, m.nrows, cols)
        assert m == c and m.rows == c.rows and m.shape == c.shape
        for r in m.rows + c.rows:
            canonical(r)
    assert pairs[0][0].rows == [[2, -1], [Fraction(1, 3), 0]]
    assert [m.shape for m, _ in pairs] == [(2, 2), (0, 3), (3, 0)]

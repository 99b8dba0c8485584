"""The raw-row product against dense references (hypothesis, derandomized).

`multiply`, `is_two_sided_unit` and `ideal_closure` multiply raw rows
through one product over the raw table.  Each is held here to a dense
reference with its own loops and its own elimination over plain values:
ints and Fractions over Q, ints mod p over F_p.  Table coefficients and
element entries come from {-1, 1, 2} (and 1/2 over Q), so contributions
often cancel on a coordinate, and operands are often zero.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd.algebra import StructureAlgebra
from grpd.exactlin import Field, Subspace

CHARS = [0, 2, 10007]
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def plain(field, c):
    """A field element as a plain value; over F_p it must already be an int in [0, p)."""
    assert not field.char or type(c) is int and 0 <= c < field.char, c
    return c


def norm(p, x):
    return x % p if p else x


def ref_mul(table, p, x, y):
    """The bilinear product of plain dense vectors over a plain table {(i, j): {k: c}}."""
    out = [0] * len(x)
    for (i, j), cell in table.items():
        for k, c in cell.items():
            out[k] += x[i] * y[j] * c
    return [norm(p, v) for v in out]


def ref_rref(rows, p):
    """Reduced row-echelon form of plain rows, zero rows dropped."""
    rows = [[norm(p, v) for v in r] for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], -1, p) if p else Fraction(1, pivot[col])
        pivot = [norm(p, v * inv) for v in pivot]
        rows = [[norm(p, a - r[col] * b) for a, b in zip(r, pivot)] for r in rows]
        out = [[norm(p, a - r[col] * b) for a, b in zip(r, pivot)] for r in out] + [pivot]
    return out


def ref_closure(table, p, n, seed, side):
    """The smallest left/right/two-sided ideal holding the seed rows, as RREF rows."""
    basis = ref_rref(seed, p)
    units = [[int(m == j) for m in range(n)] for j in range(n)]
    while True:
        prods = [ref_mul(table, p, e, v) for v in basis for e in units if side != "right"]
        prods += [ref_mul(table, p, v, e) for v in basis for e in units if side != "left"]
        grown = ref_rref(basis + prods, p)
        if grown == basis:
            return basis
        basis = grown


@st.composite
def cases(draw):
    """An algebra on a random sparse table, with its plain table; b_0 is sometimes a
    two-sided, a left or a right unit."""
    field = Field(draw(st.sampled_from(CHARS)))
    p = field.char
    n = draw(st.integers(0, 4))
    coeffs = [-1, 1, 2] + ([Fraction(1, 2)] if p == 0 else [])
    idx = st.integers(0, max(n - 1, 0))
    cells = draw(st.dictionaries(st.tuples(idx, idx), st.dictionaries(
        idx, st.sampled_from(coeffs), max_size=n), max_size=n * n)) if n else {}
    unit_side = draw(st.sampled_from(["none", "two", "left", "right"]))
    for j in range(n):
        if unit_side in ("two", "left"):
            cells[0, j] = {j: 1}  # b_0 b_j = b_j
        if unit_side in ("two", "right"):
            cells[j, 0] = {j: 1}  # b_j b_0 = b_j
    table = {ij: {k: norm(p, c) for k, c in cell.items() if norm(p, c)}
             for ij, cell in cells.items()}
    rows = [[[(k, field(c)) for k, c in sorted(table.get((i, j), {}).items())]
             for j in range(n)] for i in range(n)]
    entries = st.lists(st.sampled_from([0, 0] + coeffs), min_size=n, max_size=n)
    return StructureAlgebra(field, n, rows), table, entries


@SETTINGS
@given(st.data())
def test_multiply_matches_the_dense_reference(data):
    alg, table, entries = data.draw(cases())
    field, p, n = alg.field, alg.field.char, alg.dim
    for _ in range(4):
        x, y = data.draw(entries), data.draw(entries)
        got = alg.multiply([field(v) for v in x], [field(v) for v in y])
        assert [plain(field, c) for c in got] == ref_mul(table, p, [norm(p, v) for v in x],
                                                         [norm(p, v) for v in y])
    assert [plain(field, c) for c in alg.multiply(field.zero_vec(n), field.zero_vec(n))] == [0] * n


@SETTINGS
@given(st.data())
def test_unit_test_matches_the_dense_reference(data):
    alg, table, entries = data.draw(cases())
    field, p, n = alg.field, alg.field.char, alg.dim
    units = [[int(m == j) for m in range(n)] for j in range(n)]
    for u in [data.draw(entries)] + units[:1]:
        u = [norm(p, v) for v in u]
        ref = all(ref_mul(table, p, u, e) == e == ref_mul(table, p, e, u) for e in units)
        assert alg.is_two_sided_unit([field(v) for v in u]) == ref


@SETTINGS
@given(st.data())
def test_ideal_closure_matches_the_dense_reference(data):
    alg, table, entries = data.draw(cases())
    field, p, n = alg.field, alg.field.char, alg.dim
    seed = [data.draw(entries) for _ in range(data.draw(st.integers(0, 2)))]
    space = Subspace.from_vectors(field, n, [[field(v) for v in r] for r in seed])
    for side in ("left", "right", "two"):
        got = alg.ideal_closure(space, side)
        assert [[plain(field, c) for c in r] for r in got.basis] == ref_closure(
            table, p, n, seed, side)


def test_cancelling_contributions_leave_no_entry():
    # b0 b0 = b1 and b1 b0 = -b1: (b0 + b1) b0 = 0, with no zero entry left in the raw row
    for field in (Field(0), Field(2), Field(10007)):
        one = field.one
        alg = StructureAlgebra(field, 2, [[[(1, one)], []], [[(1, field(-1))], []]])
        assert alg._mul({0: 1, 1: 1}, {0: 1}) == {}
        assert alg._mul({}, {0: 1}) == alg._mul({0: 1}, {}) == {}
        assert alg.multiply([one, one], [one, field.zero]) == [field.zero] * 2


@SETTINGS
@given(st.sampled_from([0, 10007]), st.data())
def test_leavitt_pointwise_product_reduces_mod_p(char, data):
    # raw values in [0, p) whose products exceed p must come back reduced
    p = char
    model = corpus.leavitt_model(corpus.line_graph(3), Field(p))[1]
    npts = len(model.xs.points)
    values = st.integers(1, p - 1) if p else st.sampled_from([-2, -1, 1, Fraction(1, 3), 7])
    rows = st.dictionaries(st.integers(0, npts - 1), values)
    x, y = data.draw(rows), data.draw(rows)
    expect = {i: norm(p, a * y[i]) for i, a in x.items() if i in y}
    assert model._pointwise(x, y) == expect
    big = {i: p - 1 - i for i in range(npts)} if p else {}
    assert all(0 <= v < p for v in model._pointwise(big, big).values())

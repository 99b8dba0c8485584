"""Property-based checks of the block decomposition, minimal polynomials and
ideal tests (hypothesis, derandomized).

The expected blocks come from closed forms, not from grpd: a direct product
of matrix algebras M_k(Q) has one block of dimension k^2 per factor, in any
basis; Q[Z_n] is the product of the cyclotomic fields Q(zeta_d), d | n, of
degree phi(d); F_p[Z_n] with p not dividing n has, for each d | n,
phi(d)/ord_d(p) blocks of dimension ord_d(p), in any basis.

Rescaling the basis by non-integer rationals turns an integer structure
table into one with fractions; the analysis must not change, and every
vector exactlin hands back must stay in canonical form.
"""

import functools
import math
import time
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd.algebra import StructureAlgebra, cayley_dickson_chain
from grpd.exactlin import Field, Subspace, solve
from grpd.skewring import analyze_algebra, build_partial_group_algebra
from grpd import groupoid as gpd

Q = Field(0)
SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def nonzero_terms(v):
    """The (k, c) pairs of the nonzero coordinates of a vector: one table cell."""
    return [(k, c) for k, c in enumerate(v) if c]


def phi(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def order_mod(p, d):
    k, x = 1, p % d
    while x != 1 % d:
        k, x = k + 1, x * p % d
    return k


def cyclic_blocks(p, n):
    """Block dimensions of F_p[Z_n], p not dividing n: phi(d)/ord_d(p) blocks of ord_d(p)."""
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            k = order_mod(p, d)
            out += [k] * (phi(d) // k)
    return sorted(out)


def sheared_matrix_product(sizes, shears):
    """M_{k_1}(Q) x ... x M_{k_r}(Q) in the basis changed by b_a += s b_b per shear.

    Matrix units E_ij of each factor make the standard basis; each shear
    (a, b, s) replaces basis vector a by itself plus s times basis vector b.
    """
    units = [(f, i, j) for f, k in enumerate(sizes) for i in range(k) for j in range(k)]
    n = len(units)
    index = {u: t for t, u in enumerate(units)}

    def std_mul(x, y):
        out = [Q.zero] * n
        for (f, i, j), xv in zip(units, x):
            if xv:
                for l in range(sizes[f]):
                    yv = y[index[(f, j, l)]]
                    if yv:
                        out[index[(f, i, l)]] += xv * yv
        return out

    basis = [Q.unit_vec(n, t) for t in range(n)]
    for a, b, s in shears:
        basis[a] = [x + s * y for x, y in zip(basis[a], basis[b])]

    def new_coords(v):
        c = list(v)
        for a, b, s in shears:
            c[b] -= s * c[a]
        return c

    table = [[nonzero_terms(new_coords(std_mul(u, v))) for v in basis] for u in basis]
    return StructureAlgebra(Q, n, table)


@st.composite
def matrix_products(draw):
    sizes = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3))
    n = sum(k * k for k in sizes)
    shears = []
    if n > 1:
        for _ in range(3):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            b += b >= a
            shears.append((a, b, Q(draw(st.integers(-3, 3).filter(bool)))))
    return sizes, shears


@SETTINGS
@given(matrix_products())
def test_matrix_product_blocks_are_orthogonal_ideals(case):
    sizes, shears = case
    alg = sheared_matrix_product(sizes, shears)
    blocks = alg.wedderburn_blocks()
    assert sorted(blocks.dims()) == sorted(k * k for k in sizes)
    assert not blocks.non_split
    total = Subspace.zero(Q, alg.dim)
    for a, block in enumerate(blocks):
        assert alg.is_ideal(block)
        total = total.sum(block)
        for other in blocks.blocks[a + 1:]:
            for x, y in product(block.basis, other.basis):
                assert not any(alg.multiply(x, y)) and not any(alg.multiply(y, x))
    assert total.dim == alg.dim


@SETTINGS
@given(st.integers(1, 10))
def test_rational_cyclic_group_algebra_blocks(n):
    blocks = corpus.group_algebra(Q, n).wedderburn_blocks()
    assert sorted(blocks.dims()) == sorted(phi(d) for d in range(1, n + 1) if n % d == 0)
    assert blocks.non_split == [i for i, d in enumerate(blocks.dims()) if d > 1]


# the trace-form radical needs p > dim, which also keeps p from dividing n
PRIME_CASES = st.sampled_from([5, 7, 11, 13]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, min(6, p - 1))))


@SETTINGS
@given(PRIME_CASES)
def test_prime_field_cyclic_group_algebra_blocks(case):
    p, n = case
    blocks = corpus.group_algebra(Field(p), n).wedderburn_blocks()
    assert sorted(blocks.dims()) == cyclic_blocks(p, n)
    assert blocks.non_split == [i for i, d in enumerate(blocks.dims()) if d > 1]


def rebased(alg, basis):
    """The algebra in the basis whose i-th vector has old coordinates basis[i]."""
    change = corpus.from_columns(alg.field, basis)
    table = [[nonzero_terms(solve(change, alg.multiply(u, v))) for v in basis] for u in basis]
    return StructureAlgebra(alg.field, alg.dim, table)


@st.composite
def rebased_cyclic_cases(draw):
    """F_p[Z_n] with p > n and a seeded invertible change of basis over F_p."""
    p = draw(st.sampled_from([5, 7, 11, 13, 10007]))
    n = draw(st.integers(1, min(9, p - 1)))
    field = Field(p)
    basis = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                          min_size=n, max_size=n)
                 .filter(lambda rows: Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in rows])
                         .dim == n))
    return p, n, [corpus.vec(field, r) for r in basis]


@SETTINGS
@given(rebased_cyclic_cases())
def test_prime_field_blocks_do_not_depend_on_the_basis(case):
    p, n, basis = case
    alg = rebased(corpus.group_algebra(Field(p), n), basis)
    blocks = alg.wedderburn_blocks()
    assert sorted(blocks.dims()) == cyclic_blocks(p, n)
    assert blocks.non_split == [i for i, d in enumerate(blocks.dims()) if d > 1]
    assert alg.berlekamp_subalgebra().dim == len(blocks)
    total = Subspace.span(Field(p), n, blocks.blocks)
    assert total.dim == n


PRIME_FIELD_FACTORS = {  # name -> (a function of the field making the algebra, its block dimensions)
    "F_p": (corpus.scalar_algebra, [1]),
    "M_2(F_p)": (lambda f: corpus.matrix_algebra(f, 2), [4]),
    "F_p[Z_3]": (lambda f: corpus.group_algebra(f, 3), [1, 2]),
    "K_par(Z_3)": (lambda f: build_partial_group_algebra(gpd.cyclic_group(3), f), [1, 1, 2, 4]),
}


@st.composite
def rebased_prime_field_products(draw):
    """A product of one to three PRIME_FIELD_FACTORS over F_p, p = 2 mod 3 and
    p > dim, in a seeded basis; with its sorted block dimensions."""
    field = Field(draw(st.sampled_from([29, 41, 10007])))
    names = draw(st.lists(st.sampled_from(sorted(PRIME_FIELD_FACTORS)), min_size=1, max_size=3))
    alg = functools.reduce(direct_product, [PRIME_FIELD_FACTORS[k][0](field) for k in names])
    n = alg.dim
    basis = draw(st.lists(st.lists(st.integers(0, field.char - 1), min_size=n, max_size=n),
                          min_size=n, max_size=n)
                 .filter(lambda rows: Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in rows])
                         .dim == n))
    dims = sorted(d for k in names for d in PRIME_FIELD_FACTORS[k][1])
    return rebased(alg, [corpus.vec(field, r) for r in basis]), dims


@SETTINGS
@given(rebased_prime_field_products())
def test_prime_field_non_split_reads_each_block_center(case):
    # the block F_(p^2) of F_p[Z_3] and of K_par(Z_3), p = 2 mod 3, beside the
    # non-commutative M_2: non_split lists exactly the blocks whose center is larger than F_p
    alg, dims = case
    blocks = alg.wedderburn_blocks()
    assert sorted(blocks.dims()) == dims
    assert blocks.non_split == [i for i, b in enumerate(blocks)
                                if alg.subalgebra(b)[0].center().dim > 1]
    assert Subspace.span(alg.field, alg.dim, blocks.blocks).dim == alg.dim


def test_blocks_at_the_largest_prime_take_logarithmic_time():
    # p = 2^31 - 1 is 1 mod 6 and 7 and 2 mod 5: Z_6 and Z_7 split into
    # points, Z_5 keeps one block F_(p^4); a search over the residues of
    # F_p would not finish
    p = 2**31 - 1
    for n in (5, 6, 7):
        start = time.perf_counter()
        blocks = corpus.group_algebra(Field(p), n).wedderburn_blocks()
        elapsed = time.perf_counter() - start
        assert sorted(blocks.dims()) == cyclic_blocks(p, n)
        assert elapsed < 5.0, f"F_p[Z_{n}] took {elapsed:.2f} s"


def integral_table(kind, size):
    """Q[Z_n], a product of matrix algebras M_k(Q) or the octonions: integer constants."""
    if kind == "group":
        return corpus.group_algebra(Q, size)
    if kind == "matrices":
        return sheared_matrix_product(size, [])
    return cayley_dickson_chain(Q, 3)


@st.composite
def rescaled_cases(draw):
    kind = draw(st.sampled_from(["group", "matrices", "octonions"]))
    size = {"group": st.integers(1, 8),
            "matrices": st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
            "octonions": st.none()}[kind]
    alg = integral_table(kind, draw(size))
    scale = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9))
    scales = draw(st.lists(scale.filter(lambda f: f.denominator > 1),
                           min_size=alg.dim, max_size=alg.dim))
    return alg, scales, draw(st.booleans())


def exactlin_vectors(alg):
    """The vectors exactlin computed for an analysis: unit, center, radical and blocks."""
    out = [alg.find_unit() or []] + alg.center().basis
    if alg.is_associative() and alg.find_unit() is not None:
        out += alg.jacobson_radical().basis
        if alg.is_semisimple():
            out += [v for block in alg.wedderburn_blocks() for v in block.basis]
    return out


def is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@SETTINGS
@given(rescaled_cases())
def test_rescaled_tables_analyze_like_integral_ones(case):
    integral, scales, keep_unit = case
    if not keep_unit:
        integral.unit = None
    scaled = corpus.rescaled(integral, scales)
    assert any(type(c) is Fraction for row in corpus.table_of(scaled) for cell in row for _, c in cell)
    assert analyze_algebra(scaled) == analyze_algebra(integral)
    for alg in (integral, scaled):
        assert all(is_canonical(x) for v in exactlin_vectors(alg) for x in v)


def direct_product(a, b):
    """a x b, with the basis of a followed by that of b."""
    n = a.dim
    table = [row + [[] for _ in range(b.dim)] for row in corpus.table_of(a)]
    table += [[[] for _ in range(n)] + [[(n + k, c) for k, c in cell] for cell in row]
              for row in corpus.table_of(b)]
    return StructureAlgebra(a.field, n + b.dim, table, unit=a.find_unit() + b.find_unit())


RADICAL_CASES = {  # name -> (builder over a field, radical dimension)
    "T_3": (lambda f: corpus.upper_triangular(f, 3), 3),
    "T_2 x K[Z_3]": (lambda f: direct_product(corpus.upper_triangular(f, 2),
                                              corpus.group_algebra(f, 3)), 1),
    "dual numbers": (corpus.dual_numbers, 1),
    **{f"K[x]/(x^{k})": (lambda f, k=k: corpus.truncated_poly(f, k), k - 1) for k in (1, 3, 4, 6)},
}


@st.composite
def rebased_radical_cases(draw):
    """A RADICAL_CASES algebra over Q or over F_p with p > dim, in a seeded basis."""
    name = draw(st.sampled_from(sorted(RADICAL_CASES)))
    field = Field(draw(st.sampled_from([0, 7, 11, 10007])))
    make, rad = RADICAL_CASES[name]
    alg = make(field)
    n = alg.dim
    entry = st.integers(-2, 2) if field.char == 0 else st.integers(0, field.char - 1)
    basis = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
                 .filter(lambda rows: Subspace.from_vectors(field, n, [corpus.vec(field, r) for r in rows])
                         .dim == n))
    return rebased(alg, [corpus.vec(field, r) for r in basis]), rad


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rebased_radical_cases())
def test_trace_form_radical_is_a_two_sided_ideal(case):
    # the kernel of T(x, y) = tr(L_x L_y) is an ideal of every associative
    # algebra: T(ax, y) = T(x, ya) and T(xa, y) = T(x, ay)
    alg, rad_dim = case
    rad = alg.jacobson_radical()
    assert rad.dim == rad_dim
    assert alg.ideal_closure(rad, "two") == rad


def quadratic_field(d):
    """Q(sqrt d) in the basis 1, sqrt d."""
    return StructureAlgebra(Q, 2, [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, d)]]], unit=[1, 0])


RATIONAL_FACTORS = {  # name -> (a function making the algebra, dimension of its one block)
    "Q": (lambda: corpus.scalar_algebra(Q), 1),
    "Q(sqrt2)": (lambda: quadratic_field(2), 2),
    "Q(sqrt3)": (lambda: quadratic_field(3), 2),
    "Q(i)": (lambda: quadratic_field(-1), 2),
    "M_2(Q)": (lambda: corpus.matrix_algebra(Q, 2), 4),
}


@st.composite
def rebased_rational_cases(draw):
    """Q[Z_n] for n <= 12, or a product of up to three RATIONAL_FACTORS, in a
    seeded basis with entries in [-2, 2]; with its sorted block dimensions."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        alg, dims = corpus.group_algebra(Q, n), [phi(d) for d in range(1, n + 1) if n % d == 0]
    else:
        names = draw(st.lists(st.sampled_from(sorted(RATIONAL_FACTORS)), min_size=1, max_size=3))
        alg = functools.reduce(direct_product, [RATIONAL_FACTORS[k][0]() for k in names])
        dims = [RATIONAL_FACTORS[k][1] for k in names]
    n = alg.dim
    basis = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n)
                 .filter(lambda rows: Subspace.from_vectors(Q, n, [corpus.vec(Q, r) for r in rows]).dim == n))
    return rebased(alg, [corpus.vec(Q, r) for r in basis]), sorted(dims)


@SETTINGS
@given(rebased_rational_cases())
def test_rational_blocks_do_not_depend_on_the_basis(case):
    alg, dims = case
    blocks = alg.wedderburn_blocks()
    assert sorted(blocks.dims()) == dims
    # non_split lists exactly the blocks whose center is larger than Q
    assert blocks.non_split == [i for i, b in enumerate(blocks)
                                if alg.subalgebra(b)[0].center().dim > 1]
    assert Subspace.span(Q, alg.dim, blocks.blocks).dim == alg.dim


def test_rational_blocks_past_the_old_root_search():
    # splitting on rational roots of the minimal polynomials of center basis
    # vectors and their pairwise sums kept these whole or took minutes
    odd = [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 2]]  # (sqrt2, sqrt3), (1 + sqrt2, sqrt3), ...
    pair = rebased(direct_product(quadratic_field(2), quadratic_field(3)), [corpus.vec(Q, r) for r in odd])
    assert pair.wedderburn_blocks().dims() == [2, 2]
    assert sorted(corpus.group_algebra(Q, 30).wedderburn_blocks().dims()) == [1, 1, 2, 2, 4, 4, 8, 8]
    start = time.perf_counter()
    assert sorted(corpus.group_algebra(Q, 31).wedderburn_blocks().dims()) == [1, 30]
    assert time.perf_counter() - start < 2.0
    # Q^64: the basis vectors split it one point at a time; the primitive element
    # sum_i lam^i u_i would have had a minimal polynomial with entries near lam^(64 * 63)
    start = time.perf_counter()
    assert corpus.componentwise(Q, 64).wedderburn_blocks().dims() == [1] * 64
    assert time.perf_counter() - start < 0.5


ASSOCIATIVE_CASES = {**{name: make for name, (make, _) in RADICAL_CASES.items()},
                     **{name: make for name, (make, _) in PRIME_FIELD_FACTORS.items()}}


@st.composite
def rebased_associative_cases(draw):
    """An ASSOCIATIVE_CASES algebra over Q, F_2 or F_5, in a seeded basis, with
    a seeded element, half the time times an old basis vector, which is often a
    zero divisor.  The new basis vectors are e_s(i) + sum_{j > i} a_ij e_s(j) for
    a permutation s: a basis whatever the a_ij."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    alg = ASSOCIATIVE_CASES[draw(st.sampled_from(sorted(ASSOCIATIVE_CASES)))](field)
    n = alg.dim
    entry = st.integers(-2, 2) if field.char == 0 else st.integers(0, field.char - 1)
    s = draw(st.permutations(range(n)))
    basis = []
    for i in range(n):
        v = field.unit_vec(n, s[i])
        for j in range(i + 1, n):
            v[s[j]] = field(draw(entry))
        basis.append(v)
    alg, x = rebased(alg, basis), corpus.vec(field, draw(st.lists(entry, min_size=n, max_size=n)))
    if draw(st.booleans()):
        old = solve(corpus.from_columns(field, basis), field.unit_vec(n, draw(st.integers(0, n - 1))))
        x = alg.multiply(x, old)
    return alg, x


def rank(rows, p):
    """The rank of dense rows over Q (p = 0) or F_p, by Gaussian elimination."""
    rows, r = [[Fraction(x) if not p else x % p for x in row] for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        for k in range(r + 1, len(rows)):  # clear column c below the pivot
            f = rows[k][c] * inv
            rows[k] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rebased_associative_cases())
def test_minimal_polynomial_is_monic_kills_x_and_no_lower_degree_does(case):
    # mp is monic with mp(x) = 0 and 1, x, ..., x^(d-1) independent: the minimal polynomial
    alg, x = case
    field, one = alg.field, alg.find_unit()
    mp = corpus.minimal_polynomial(alg, x, one)
    assert mp[-1] == field.one
    powers = [one]
    while len(powers) < len(mp):
        powers.append(alg.multiply(powers[-1], x))
    assert all(field(sum(c * v[k] for c, v in zip(mp, powers))) == field.zero
               for k in range(alg.dim))
    assert rank(powers[:-1], field.char) == len(mp) - 1


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rebased_associative_cases(), st.data())
def test_is_ideal_agrees_with_the_ideal_closure(case, data):
    # the span of the element, closed on one side or not at all, so that each
    # test comes out both ways
    alg, x = case
    space = Subspace.from_vectors(alg.field, alg.dim, [x])
    closed = data.draw(st.sampled_from([None, "left", "right", "two"]))
    if closed:
        space = alg.ideal_closure(space, closed)
    for side in ("left", "right", "two"):
        assert alg.is_ideal(space, side) == (alg.ideal_closure(space, side) == space)

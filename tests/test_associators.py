"""The associator table against brute force over all basis triples (hypothesis, derandomized).

Every reference here walks the n^3 basis triples with its own product and
its own elimination, over plain values: ints and Fractions over Q, ints
mod p over F_p.  The table, `is_associative`, `is_alternative` and
`center()` must agree with them on random sparse tables, Cayley-Dickson
algebras (also perturbed), both padded with zero basis vectors in a
shuffled basis, and a few small tables on the edge of each law.
`is_associative` decides on generators; its verdict must also agree on
associative algebras over Q, F_2 and F_5 (rebased, so that products have
many terms, and perturbed), and a slice count holds it to few slices.
No verdict builds the table: the laws stream slices of A and of its
opposite algebra.  On an associative algebra the unit and the center are
solved on the generators, and must agree with a solve over the whole basis
and with brute force.
The slice kernel settles a product of one-term cells pair by pair and sums
every other; tables of one-term cells, alone or mixed with cells of 2-3
terms, over Q (with fractions), F_2 and F_5, are held to the same brute force.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import algebra
from grpd.algebra import StructureAlgebra, cayley_dickson_chain
from grpd.exactlin import Field, Subspace, solve
from grpd.groupoid import cyclic_group, pair_groupoid
from grpd.skewring import analyze_algebra, build_groupoid_ring, build_partial_group_algebra

Q = Field(0)
CHARS = [0, 2, 3, 5]


def plain(field, c):
    """A field element as a plain value; over F_p it must already be an int in [0, p)."""
    assert not field.char or type(c) is int and 0 <= c < field.char, c
    return c


class Ref:
    """An algebra's structure constants as dense plain rows, and its laws by brute force."""

    def __init__(self, alg):
        self.p = alg.field.char
        self.n = n = alg.dim
        cells = corpus.table_of(alg)
        self.prod = [[self.dense({k: plain(alg.field, c) for k, c in cells[i][j]})
                      for j in range(n)] for i in range(n)]
        r = range(n)
        self.assoc = {(i, j, k): self.associator(i, j, k) for i in r for j in r for k in r}

    def norm(self, x):
        return x % self.p if self.p else x

    def dense(self, terms):
        return [self.norm(terms.get(m, 0)) for m in range(self.n)]

    def mul(self, x, y):
        out = [0] * self.n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for m, c in enumerate(self.prod[i][j]):
                        if c:
                            out[m] += xi * yj * c
        return [self.norm(c) for c in out]

    def basis(self, i):
        return [int(m == i) for m in range(self.n)]

    def associator(self, i, j, k):
        b = self.basis
        left = self.mul(self.mul(b(i), b(j)), b(k))
        right = self.mul(b(i), self.mul(b(j), b(k)))
        return [self.norm(x - y) for x, y in zip(left, right)]

    def table(self):
        return {t: {m: c for m, c in enumerate(a) if c} for t, a in self.assoc.items() if any(a)}

    def is_alternative(self):
        r, a = range(self.n), self.assoc
        for i in r:
            for k in r:
                if any(a[i, i, k]) or any(a[i, k, k]):
                    return False
        for (i, j, k), v in a.items():
            for w in (a[j, i, k], a[i, k, j]):
                if any(self.norm(x + y) for x, y in zip(v, w)):
                    return False
        return True

    def center(self):
        """RREF basis of {x : x b = b x and (x,b,b') = (b,x,b') = (b,b',x) = 0}."""
        r = range(self.n)
        rows = []
        for s in r:
            # coordinate m of x b_s - b_s x, as a row in the coordinates of x
            rows += [[self.norm(self.prod[c][s][m] - self.prod[s][c][m]) for c in r] for m in r]
        a = self.assoc
        for s in r:
            for t in r:
                for m in r:
                    rows.append([a[c, s, t][m] for c in r])
                    rows.append([a[s, c, t][m] for c in r])
                    rows.append([a[s, t, c][m] for c in r])
        return self.rref(self.kernel(rows))

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / Fraction(x)

    def rref(self, rows):
        rows = [list(v) for v in rows if any(v)]
        out, col = [], 0
        while rows and col < self.n:
            piv = next((v for v in rows if v[col]), None)
            if piv is not None:
                rows.remove(piv)
                piv = [self.norm(x * self.inv(piv[col])) for x in piv]
                rows = [w for v in rows
                        if any(w := [self.norm(x - v[col] * y) for x, y in zip(v, piv)])]
                out = [[self.norm(x - v[col] * y) for x, y in zip(v, piv)] for v in out]
                out.append(piv)
            col += 1
        return out

    def kernel(self, rows):
        echelon = self.rref(rows)
        pivots = [next(c for c, x in enumerate(v) if x) for v in echelon]
        basis = []
        for f in (c for c in range(self.n) if c not in pivots):
            v = [0] * self.n
            v[f] = 1
            for c, row in zip(pivots, echelon):
                v[c] = self.norm(-row[f])
            basis.append(v)
        return basis


def shuffled_padding(alg, extra, rng):
    """alg plus `extra` zero basis vectors, in a shuffled basis."""
    n = alg.dim + extra
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[[] for _ in range(n)] for _ in range(n)]
    cells = corpus.table_of(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            table[perm[i]][perm[j]] = sorted((perm[k], c) for k, c in cells[i][j])
    return StructureAlgebra(alg.field, n, table)


# small tables each law check must read in full, each also taken as its
# opposite algebra:
# - right alternative and not left alternative, over Q and every F_p, with
#   every A(i,i,k) and A(i,k,k) zero (the opposite is left and not right);
# - A(1,1,1) = b_0 alone, which over F_2 only the diagonal condition catches;
# - over Q, a commutant whose elements x all have (x, r, r') = 0 but not
#   (r, x, r') = 0;
# - b_0 in the right nucleus, b_0 b_0 = b_1 + b_2 and (b_2, b_2, b_1) = -b_1:
#   a product of two terms must not count b_1 or b_2 as generated by b_0
EDGE_CASES = [
    {(0, 1): {3: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
    {(1, 0): {0: 1}, (1, 1): {0: 1, 1: 1}},
    {(1, 0): {0: 2}, (1, 1): {0: 1}, (2, 1): {0: 2}},
    {(0, 0): {1: 1, 2: 1}, (2, 1): {1: 1}, (2, 2): {1: -1}},
]


def edge_case(field, case, opposite):
    n = 1 + max(max(i, j, *cell) for (i, j), cell in case.items())
    table = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), cell in case.items():
        if opposite:
            i, j = j, i
        table[i][j] = [(k, field(c)) for k, c in sorted(cell.items()) if field(c)]
    return StructureAlgebra(field, n, table)


def perturbed(alg, rng):
    """alg with one random structure constant c_ij^k raised by 1."""
    field, table = alg.field, corpus.table_of(alg)
    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
    cell = dict(table[i][j])
    cell[k] = field(cell.get(k, field.zero) + field.one)
    table[i][j] = sorted((m, c) for m, c in cell.items() if c)
    return StructureAlgebra(field, alg.dim, table)


@st.composite
def algebras(draw):
    field = Field(draw(st.sampled_from(CHARS)))
    kind = draw(st.sampled_from(["random", "cayley-dickson", "perturbed"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        n = draw(st.integers(1, 5))
        values = [v for a in range(-2, 3) for b in (1, 2)
                  if (v := field(a) if field.char else field(Fraction(a, b)))]

        def cell():  # zero, or one or two random terms
            if rng.random() >= 0.35:
                return []
            support = rng.sample(range(n), min(n, rng.randint(1, 2)))
            return sorted((k, rng.choice(values)) for k in support)

        alg = StructureAlgebra(field, n, [[cell() for _ in range(n)] for _ in range(n)])
    else:
        alg = cayley_dickson_chain(field, draw(st.integers(0, 3)))
        if kind == "perturbed":  # one product moved off the alternative law
            alg = perturbed(alg, rng)
    extra = draw(st.integers(0, 3))
    return shuffled_padding(alg, extra, rng) if extra else alg


def check_against_brute_force(alg):
    ref = Ref(alg)
    # the laws first, on a fresh copy, so that associativity is decided on generators
    fresh = StructureAlgebra(alg.field, alg.dim, corpus.table_of(alg))
    assert fresh.is_associative() == (not ref.table())
    assert fresh.is_alternative() == ref.is_alternative()
    assert [[plain(alg.field, c) for c in v] for v in fresh.center().basis] == ref.center()
    assert fresh._associators() == ref.table()
    # the private table holds raw rows: ints in [0, p) over F_p, rationals over Q
    table = alg._associators()
    assert table == ref.table()
    assert alg.is_associative() == (not table)
    assert alg.is_alternative() == ref.is_alternative()
    assert [[plain(alg.field, c) for c in v] for v in alg.center().basis] == ref.center()
    assert all([plain(alg.field, c) for c in alg.associator(*t)] == a
               for t, a in ref.assoc.items())


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(algebras())
def test_associator_table_and_laws_match_brute_force(alg):
    check_against_brute_force(alg)


@pytest.mark.parametrize("char", CHARS)
@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
@pytest.mark.parametrize("opposite", [False, True])
def test_edge_cases_match_brute_force(char, case, opposite):
    check_against_brute_force(edge_case(Field(char), EDGE_CASES[case], opposite))


def padded_octonions(n):
    octo = cayley_dickson_chain(Q, 3)
    table = [row + [[] for _ in range(n - 8)] for row in corpus.table_of(octo)]
    table += [[[] for _ in range(n)] for _ in range(n - 8)]
    return octo, StructureAlgebra(Q, n, table)


def test_padded_octonions():
    for n in (24, 48, 96):
        octo, alg = padded_octonions(n)
        start = time.perf_counter()
        report = analyze_algebra(alg)
        assert time.perf_counter() - start < 1.0
        assert report["alternative"] and not report["associative"]
        # x = a + z with a in O and z in the zero part: z b = b z = 0 and every
        # associator with z in it is 0, so x is central iff a is central in O,
        # whose center is the scalars; the center is Q 1 + the n - 8 zero vectors
        assert report["center_dim"] == n - 7
        # padding adds no associator
        assert alg._associators() == octo._associators()


# -- associativity decided on generators ------------------------------------------------


def group_algebra(field, orders):
    """The group algebra of Z_a x Z_b x ... over the field, in mixed-radix order."""
    elems = list(itertools.product(*(range(a) for a in orders)))
    idx = {g: i for i, g in enumerate(elems)}
    return StructureAlgebra(field, len(elems), [
        [[(idx[tuple((x + y) % a for x, y, a in zip(g, h, orders))], field.one)] for h in elems]
        for g in elems])


def direct_sum(a, b):
    """a + b, with the basis of a followed by that of b."""
    n = a.dim
    table = [row + [[] for _ in range(b.dim)] for row in corpus.table_of(a)]
    table += [[[] for _ in range(n)] + [[(n + k, c) for k, c in cell] for cell in row]
              for row in corpus.table_of(b)]
    return StructureAlgebra(a.field, n + b.dim, table)


def rebased(alg, rng):
    """alg in a random basis: each new basis vector mixes several old ones."""
    field, n = alg.field, alg.dim
    while True:
        basis = [corpus.vec(field, [rng.randint(-2, 2) for _ in range(n)]) for _ in range(n)]
        if Subspace.from_vectors(field, n, basis).dim == n:
            break
    change = corpus.from_columns(field, basis)
    table = [[[(k, c) for k, c in enumerate(solve(change, alg.multiply(u, v))) if c]
              for v in basis] for u in basis]
    return StructureAlgebra(field, n, table)


ASSOCIATIVE = {  # name -> builder over a field, for sizes 1, 2, 3
    "K[Z_n]": lambda f, s: group_algebra(f, [2 * s + 2]),
    "K[Z_a x Z_b]": lambda f, s: group_algebra(f, [2, s + 1]),
    "M_k": corpus.matrix_algebra,
    "T_k": corpus.upper_triangular,
    "K[x]/(x^k)": lambda f, s: corpus.truncated_poly(f, 2 * s),
}


@st.composite
def associative_algebras(draw):
    """An associative algebra over Q, F_2 or F_5, maybe summed, rebased and perturbed."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    summands = draw(st.integers(1, 2))  # dim at most 9 alone, 8 summed
    parts = [ASSOCIATIVE[draw(st.sampled_from(sorted(ASSOCIATIVE)))](
        field, draw(st.integers(1, 3 if summands == 1 else 1))) for _ in range(summands)]
    alg = parts[0] if summands == 1 else direct_sum(*parts)
    if draw(st.integers(0, 2)):  # two in three are rebased
        alg = rebased(alg, rng)
    moved = draw(st.booleans())
    return (perturbed(alg, rng) if moved else alg), moved


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(associative_algebras())
def test_generator_verdict_matches_brute_force(case):
    alg, moved = case
    table = Ref(alg).table()
    assert moved or not table
    assert alg.is_associative() == (not table)
    if not table:  # the verdict built no associator
        assert alg._assoc == {}
    assert alg._associators() == table


def count_slices(monkeypatch):
    calls = []

    def counted(index, k):
        calls.append(k)
        return kernel(index, k)

    kernel = algebra._slice
    monkeypatch.setattr(algebra, "_slice", counted)
    return calls


@pytest.mark.parametrize("alg, most, center_dim", [(corpus.group_algebra(Q, 64), 2, 64),
                                                   (corpus.matrix_algebra(Q, 8), 15, 1)])
def test_associative_verdict_computes_few_slices(monkeypatch, alg, most, center_dim):
    alg = StructureAlgebra(Q, alg.dim, corpus.table_of(alg))
    calls = count_slices(monkeypatch)
    assert alg.is_associative()
    assert 0 < len(calls) <= most
    # the laws and the center read the empty table
    del calls[:]
    assert alg.is_alternative() and alg.center().dim == center_dim and not calls


def test_octonion_table_is_the_union_of_its_slices(monkeypatch):
    octo = cayley_dickson_chain(Q, 3)
    calls = count_slices(monkeypatch)
    # the verdict stops at its first nonzero slice; the laws stream the 8 slices
    # of A and the 8 of A^op, and build no table
    assert not octo.is_associative()
    assert len(calls) == 1
    del calls[:]
    assert octo.is_alternative()
    assert sorted(calls) == sorted(2 * list(range(8)))
    assert octo._assoc is None
    assert octo._associators() == Ref(octo).table()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: cayley_dickson_chain(Q, 3), id="octonions"),
    pytest.param(lambda: cayley_dickson_chain(Q, 4), id="sedenions"),
    pytest.param(lambda: build_groupoid_ring(cyclic_group(4), cayley_dickson_chain(Q, 3)),
                 id="O[Z_4]"),
    pytest.param(lambda: build_groupoid_ring(pair_groupoid(2), cayley_dickson_chain(Q, 3)),
                 id="M_2(O)"),
])
def test_no_verdict_builds_the_table(build):
    alg = build()
    analyze_algebra(alg)
    assert alg._assoc is None


def test_sedenions_break_alternativity_early(monkeypatch):
    sede = cayley_dickson_chain(Q, 4)
    calls = count_slices(monkeypatch)
    assert not sede.is_alternative()
    assert len(calls) < 32


ONE_TERM_ASSOCIATIVE = {  # name -> builder over a field: fewer generators than basis vectors
    "K_par(Z_3)": lambda f: build_partial_group_algebra(cyclic_group(3), f),
    "M_3": lambda f: corpus.matrix_algebra(f, 3),
    "K[Z_6]": lambda f: corpus.group_algebra(f, 6),
    "T_3": lambda f: corpus.upper_triangular(f, 3),
}


@st.composite
def generated_algebras(draw):
    """(alg, one_term): an algebra of `associative_algebras`, or a one-term
    associative algebra over Q or F_5."""
    if draw(st.booleans()):
        return draw(associative_algebras())[0], False
    field = Field(draw(st.sampled_from([0, 5])))
    return ONE_TERM_ASSOCIATIVE[draw(st.sampled_from(sorted(ONE_TERM_ASSOCIATIVE)))](field), True


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(generated_algebras())
def test_unit_and_center_from_generators(case):
    alg, one_term = case
    fresh = StructureAlgebra(alg.field, alg.dim, corpus.table_of(alg))
    unit = fresh.find_unit()  # solved on the whole basis: no verdict yet
    assert fresh._gens is None
    if alg.is_associative() and one_term:
        assert len(alg._gens) < alg.dim
    assert alg.find_unit() == unit
    assert [[plain(alg.field, c) for c in v] for v in alg.center().basis] == Ref(alg).center()


# -- one-term cells, settled pair by pair ------------------------------------------------


def nonzero_values(field):
    """Small nonzero constants; over Q with denominators 2 and 3, so that the kernel
    scales by the lcm D of the denominators and divides the associators by D^2."""
    if field.char:
        return list(range(1, field.char))
    return [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3) if a]


def scaled(alg, rng):
    """alg in the basis s_i b_i for random nonzero s_i: a one-term cell stays one
    term, associativity is kept, and over Q the constants become fractions."""
    field = alg.field
    s = [rng.choice(nonzero_values(field)) for _ in range(alg.dim)]
    cells = corpus.table_of(alg)
    return StructureAlgebra(field, alg.dim, [
        [[(k, field(s[i] * s[j] * c * field.inv(s[k]))) for k, c in cells[i][j]]
         for j in range(alg.dim)] for i in range(alg.dim)])


ONE_TERM = {  # name -> builder over a field: every nonzero product has one term
    "K_par(Z_3)": lambda f: build_partial_group_algebra(cyclic_group(3), f),
    "K[Z_4]": lambda f: corpus.group_algebra(f, 4),
    "M_2": lambda f: corpus.matrix_algebra(f, 2),
    "T_3": lambda f: corpus.upper_triangular(f, 3),
    "K[x]/(x^4)": lambda f: corpus.truncated_poly(f, 4),
    "octonions": lambda f: cayley_dickson_chain(f, 3),
}


@st.composite
def one_term_algebras(draw):
    """Random tables of one-term cells, or with about half the cells of 2-3 terms;
    one-term algebras in a scaled basis, alone or summed with a rebased associative
    algebra of many-term cells, maybe perturbed; some padded in a shuffled basis."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["one-term", "mixed", "scaled", "scaled + rebased"]))
    if kind in ("one-term", "mixed"):
        n, values = draw(st.integers(1, 6)), nonzero_values(field)

        def cell():  # zero, one term, or in a mixed table often 2-3 terms
            if rng.random() >= 0.6:
                return []
            terms = 1 if kind == "one-term" or rng.random() < 0.5 else rng.randint(2, 3)
            return sorted((k, rng.choice(values)) for k in rng.sample(range(n), min(n, terms)))

        alg = StructureAlgebra(field, n, [[cell() for _ in range(n)] for _ in range(n)])
    else:
        alg = scaled(ONE_TERM[draw(st.sampled_from(sorted(ONE_TERM)))](field), rng)
        if kind == "scaled + rebased":
            alg = direct_sum(alg, rebased(corpus.truncated_poly(field, 2), rng))
        if draw(st.booleans()):
            alg = perturbed(alg, rng)
    extra = draw(st.integers(0, 2))
    return shuffled_padding(alg, extra, rng) if extra else alg


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(one_term_algebras())
def test_one_term_cells_match_brute_force(alg):
    check_against_brute_force(alg)


def closure(alg, gens):
    """The b_m reached from the generators: each generator, and b_m when
    b_r b_t = c b_m, c != 0, for b_r reached and b_t a generator."""
    cells, reached = corpus.table_of(alg), set(gens)
    while new := {cells[r][t][0][0] for r in reached for t in gens
                  if len(cells[r][t]) == 1} - reached:
        reached |= new
    return reached


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(one_term_algebras())
def test_generators_reach_their_closure(alg):
    # the slices `is_associative` skips are those of the b_m the generators reach
    gens, col = [], algebra._slice_index(alg._cells, alg.field.char)[1]
    for s, reached in algebra._generators(alg._cells, col):
        assert s not in reached and reached == closure(alg, gens)
        gens.append(s)
    assert closure(alg, gens) == set(range(alg.dim))


@pytest.mark.parametrize("char", [0, 5])
def test_partial_group_algebra_z4_matches_brute_force(char):
    alg = build_partial_group_algebra(cyclic_group(4), Field(char))
    assert alg.is_associative()
    check_against_brute_force(alg)

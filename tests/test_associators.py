"""The associator table against brute force over all basis triples (hypothesis, derandomized).

Every reference here walks the n^3 basis triples with its own product and
its own elimination, over plain values: ints and Fractions over Q, ints
mod p over F_p.  The table, `is_associative`, `is_alternative` and
`center()` must agree with them on random sparse tables, Cayley-Dickson
algebras (also perturbed), both padded with zero basis vectors in a
shuffled basis, and a few small tables on the edge of each law.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.algebra import StructureAlgebra, cayley_dickson_chain
from grpd.exactlin import Field
from grpd.skewring import analyze_algebra

Q = Field(0)
CHARS = [0, 2, 3, 5]


def plain(field, c):
    return c.val if field.char else c


class Ref:
    """An algebra's structure constants as dense plain rows, and its laws by brute force."""

    def __init__(self, alg):
        self.p = alg.field.char
        self.n = n = alg.dim
        self.prod = [[self.dense({k: plain(alg.field, c) for k, c in alg.table[i][j]})
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
    for i in range(alg.dim):
        for j in range(alg.dim):
            table[perm[i]][perm[j]] = sorted((perm[k], c) for k, c in alg.table[i][j])
    return StructureAlgebra(alg.field, n, table)


# small tables each law check must read in full, each also taken as its
# opposite algebra:
# - right alternative and not left alternative, over Q and every F_p, with
#   every A(i,i,k) and A(i,k,k) zero (the opposite is left and not right);
# - A(1,1,1) = b_0 alone, which over F_2 only the diagonal condition catches;
# - over Q, a commutant whose elements x all have (x, r, r') = 0 but not
#   (r, x, r') = 0
EDGE_CASES = [
    {(0, 1): {3: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
    {(1, 0): {0: 1}, (1, 1): {0: 1, 1: 1}},
    {(1, 0): {0: 2}, (1, 1): {0: 1}, (2, 1): {0: 2}},
]


def edge_case(field, case, opposite):
    n = 1 + max(max(i, j, *cell) for (i, j), cell in case.items())
    table = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), cell in case.items():
        if opposite:
            i, j = j, i
        table[i][j] = [(k, field(c)) for k, c in sorted(cell.items()) if field(c)]
    return StructureAlgebra(field, n, table)


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
        if kind == "perturbed":
            # one product moved off the alternative law
            table = [list(row) for row in alg.table]
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            cell = dict(table[i][j])
            cell[k] = cell.get(k, field.zero) + field.one
            table[i][j] = sorted((m, c) for m, c in cell.items() if c)
            alg = StructureAlgebra(field, alg.dim, table)
    extra = draw(st.integers(0, 3))
    return shuffled_padding(alg, extra, rng) if extra else alg


def check_against_brute_force(alg):
    ref = Ref(alg)
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
    table = [row + [[] for _ in range(n - 8)] for row in octo.table]
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

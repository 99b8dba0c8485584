"""Answers computed apart from grpd, with the benchmark's own exact arithmetic.

Nothing here imports grpd.  An algebra is a pair (n, table) where `table`
maps a basis pair (i, j) to a sparse product {k: coefficient}; coefficients
are Fractions over Q and ints reduced mod p over F_p.  Ranks use plain
Gaussian elimination, one row at a time, so memory stays O(n^2) however
many conditions are stacked.
"""

from fractions import Fraction
from math import gcd


class Arith:
    """Field operations on plain numbers: Fractions (p = 0) or ints mod p."""

    def __init__(self, p=0):
        self.p = p

    def norm(self, x):
        return Fraction(x) if self.p == 0 else int(x) % self.p

    def inv(self, x):
        return 1 / x if self.p == 0 else pow(x, self.p - 2, self.p)

    def mul(self, a, b):
        return a * b if self.p == 0 else a * b % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p


class RowSpace:
    """Incremental row echelon form: add rows, read off the rank."""

    def __init__(self, arith):
        self.ar = arith
        self.rows = {}  # pivot column -> row normalised to 1 at the pivot

    def add(self, row):
        ar = self.ar
        row = list(row)
        for c in range(len(row)):
            if not row[c]:
                continue
            piv = self.rows.get(c)
            if piv is None:
                inv = ar.inv(row[c])
                self.rows[c] = [ar.mul(inv, x) for x in row]
                return
            f = row[c]
            row = [ar.sub(a, ar.mul(f, b)) for a, b in zip(row, piv)]

    @property
    def rank(self):
        return len(self.rows)


def rank(rows, p=0):
    space = RowSpace(Arith(p))
    for r in rows:
        space.add(r)
    return space.rank


# -- algebras given by sparse structure constants --------------------------------


class Alg:
    """A finite-dimensional algebra: basis products b_i b_j = sum_k table[i, j][k] b_k."""

    def __init__(self, p, n, table):
        self.ar = Arith(p)
        self.p = p
        self.n = n
        self.table = {}
        for ij, v in table.items():
            prod = {k: self.ar.norm(c) for k, c in v.items()}
            prod = {k: c for k, c in prod.items() if c}
            if prod:
                self.table[ij] = prod

    def mul(self, x, y):
        """Product of sparse vectors {index: coefficient}."""
        ar = self.ar
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = self.table.get((i, j))
                if not prod:
                    continue
                ab = ar.mul(a, b)
                for k, c in prod.items():
                    out[k] = out.get(k, 0) + ar.mul(ab, c)
        if self.p:
            out = {k: v % self.p for k, v in out.items()}
        return {k: v for k, v in out.items() if v}

    def basis(self, i):
        return {i: self.ar.norm(1)}

    def associator(self, i, j, k):
        bi, bj, bk = self.basis(i), self.basis(j), self.basis(k)
        left = self.mul(self.mul(bi, bj), bk)
        right = self.mul(bi, self.mul(bj, bk))
        return _sparse_sub(self.ar, left, right)


def _sparse_sub(ar, x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = ar.sub(out.get(k, 0), v)
    return {k: v for k, v in out.items() if v}


def _sparse_add(ar, x, y):
    return _sparse_sub(ar, x, {k: ar.sub(0, v) for k, v in y.items()})


def is_associative(alg):
    r = range(alg.n)
    return all(not alg.associator(i, j, k) for i in r for j in r for k in r)


def is_alternative(alg):
    """The associator is alternating: (i,j,k) + (j,i,k) = 0 = (i,j,k) + (i,k,j) on the basis."""
    r = range(alg.n)
    assoc = {(i, j, k): alg.associator(i, j, k) for i in r for j in r for k in r}
    ar = alg.ar
    for (i, j, k), a in assoc.items():
        if _sparse_add(ar, a, assoc[j, i, k]) or _sparse_add(ar, a, assoc[i, k, j]):
            return False
    return True


def center_dim(alg, associative):
    """Dimension of the commutative nucleus: x b = b x, plus the three nucleus laws."""
    n = alg.n
    ar = alg.ar
    space = RowSpace(ar)
    # each condition is linear in x; column c holds its value at x = b_c
    def stack(f):
        cols = [f(alg.basis(c)) for c in range(n)]
        for k in range(n):
            space.add([col.get(k, 0) for col in cols])

    for i in range(n):
        bi = alg.basis(i)
        stack(lambda x: _sparse_sub(ar, alg.mul(x, bi), alg.mul(bi, x)))
    if not associative:
        for i in range(n):
            bi = alg.basis(i)
            for j in range(n):
                bj = alg.basis(j)
                bij = alg.mul(bi, bj)
                stack(lambda x: _sparse_sub(ar, alg.mul(alg.mul(x, bi), bj), alg.mul(x, bij)))
                stack(lambda x: _sparse_sub(ar, alg.mul(alg.mul(bi, x), bj), alg.mul(bi, alg.mul(x, bj))))
                stack(lambda x: _sparse_sub(ar, alg.mul(bij, x), alg.mul(bi, alg.mul(bj, x))))
    return n - space.rank


def trace_form_radical_dim(alg):
    """Nullity of T(x, y) = trace(L_x L_y); the Jacobson radical in char 0 or p > dim."""
    n = alg.n
    ar = alg.ar
    left = []
    for i in range(n):
        cols = [alg.mul(alg.basis(i), alg.basis(j)) for j in range(n)]
        left.append([[cols[j].get(k, 0) for j in range(n)] for k in range(n)])
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                for l in range(n):
                    a = left[i][k][l]
                    if a:
                        acc = acc + ar.mul(a, left[j][l][k])
            row.append(ar.norm(acc))
        gram.append(row)
    return n - rank(gram, alg.p)


# -- number theory for group algebras ---------------------------------------------


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def multiplicative_order(p, d):
    if d == 1:
        return 1
    k, x = 1, p % d
    while x != 1:
        x = x * p % d
        k += 1
    return k


def cyclic_group_algebra_blocks(s, p=0):
    """Simple components of K[Z_s]: one per irreducible factor of x^s - 1 over K."""
    out = []
    for d in divisors(s):
        if p == 0:
            out.append(euler_phi(d))
        else:
            o = multiplicative_order(p, d)
            out.extend([o] * (euler_phi(d) // o))
    return sorted(out)


def partial_group_algebra_dim(n):
    return 2 ** (n - 1) + (n - 1) * 2 ** (n - 2) if n > 1 else 1


def partial_group_algebra_blocks(n, p=0):
    """Blocks of K_par(Z_n), p not dividing n.

    K_par(G) is the groupoid algebra of the subsets A containing the identity
    under translation (Dokuchaev-Exel-Piccione).  An orbit with k such sets
    and stabiliser Z_s gives M_k(K[Z_s]), whose blocks are k^2 times those of
    K[Z_s].
    """
    subsets = [frozenset(a for a in range(n) if mask >> a & 1)
               for mask in range(1 << n) if mask & 1]
    seen = set()
    out = []
    for a in subsets:
        if a in seen:
            continue
        orbit = {frozenset((x - g) % n for x in a) for g in a}
        seen |= orbit
        s = sum(1 for h in range(n) if frozenset((x + h) % n for x in a) == a)
        out.extend(len(orbit) ** 2 * b for b in cyclic_group_algebra_blocks(s, p))
    return sorted(out)


# -- graphs ------------------------------------------------------------------------------


def has_cycle(vertices, edges):
    """Iterative depth-first search for a back edge."""
    succ = {v: [] for v in vertices}
    for _, s, r in edges:
        succ[s].append(r)
    state = {v: 0 for v in vertices}  # 0 new, 1 on the stack, 2 done
    for root in vertices:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[v] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


def path_counts(vertices, edges):
    """For each vertex v, the number of paths ending at v (the trivial one included).

    Dynamic programming over a topological order: a path into v is either
    trivial or a path into the source of an edge into v, followed by it.
    """
    pred = {v: [] for v in vertices}
    succ = {v: [] for v in vertices}
    left = {v: 0 for v in vertices}
    for _, s, r in edges:
        pred[r].append(s)
        succ[s].append(r)
        left[r] += 1
    ready = [v for v in vertices if left[v] == 0]
    into = {}
    while ready:
        v = ready.pop()
        into[v] = 1 + sum(into[u] for u in pred[v])
        for w in succ[v]:
            left[w] -= 1
            if left[w] == 0:
                ready.append(w)
    return into


def sink_path_counts(vertices, edges):
    """n_v for each sink v: the LPA of an acyclic graph is the product of the M_{n_v}."""
    into = path_counts(vertices, edges)
    has_out = {s for _, s, _ in edges}
    return {v: into[v] for v in vertices if v not in has_out}


def hereditary_saturated_sets(vertices, edges):
    """Every hereditary saturated vertex set, by brute force over subsets."""
    succ = {v: set() for v in vertices}
    for _, s, r in edges:
        succ[s].add(r)
    out = []
    for mask in range(1 << len(vertices)):
        h = {v for i, v in enumerate(vertices) if mask >> i & 1}
        if any(not succ[v] <= h for v in h):
            continue
        if any(succ[v] and succ[v] <= h for v in vertices if v not in h):
            continue
        out.append(frozenset(h))
    return out

"""The partial-action validator against a dense reference written here (hypothesis, derandomized).

The inputs are restrictions of global actions to ideals, which are always
partial actions (Dokuchaev-Exel): the cyclic shift of K^n by Z/n restricted
to the ideal K^W of a window W, over Q, F_2 and F_10007.  The split algebra
K^W is presented in a basis changed by a few shears, so the domains have
RREF bases that are not unit vectors.  Copies with one map entry changed
break bijectivity, multiplicativity, (P1) or (P3).  Two more kinds of copy
keep (P1), the ideals, bijectivity, multiplicativity and alpha_{g^-1} =
alpha_g^-1, and can fail only the composable pairs: alpha_g sigma paired with
sigma^-1 alpha_{g^-1}, for sigma a permutation of the primitive idempotents of
R_{g^-1}; and R_g, R_{g^-1} shrunk to a matching pair of ideals, which can
fail only (P2).

The reference keeps every vector dense and applies alpha_g the textbook
way, RREF coordinates in R_{g^-1}, then the matrix, then expansion in R_g,
and re-derives the violation list in the validator's order.
`validate_action` and `apply_alpha` must agree with it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.algebra import StructureAlgebra
from grpd.exactlin import Field, Matrix, Subspace

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)
CHARS = [0, 2, 10007]


# -- reference arithmetic: Fractions over Q, ints in [0, p) over F_p ------------------


def plain(x, p):
    """A field element as a reference value; over F_p it must already be an int in [0, p)."""
    assert not p or type(x) is int and 0 <= x < p, x
    return x if p else Fraction(x)


def norm(x, p):
    return x % p if p else x


def inv(x, p):
    return pow(x, -1, p) if p else 1 / x


def ref_rref(rows, ncols, p):
    """Dense Gauss-Jordan: the nonzero RREF rows and their pivots."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        f = inv(rows[r][c], p)
        rows[r] = [norm(f * x, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(a - f * b, p) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def residue(space, v, p):
    basis, pivots = space
    for row, c in zip(basis, pivots):
        f = v[c]
        v = [norm(a - f * b, p) for a, b in zip(v, row)]
    return v


def contains(space, v, p):
    return not any(residue(space, v, p))


def coords(space, v, p):
    """RREF coordinates of v, or None when v is outside the space."""
    return [v[c] for c in space[1]] if contains(space, v, p) else None


def expand(space, c, n, p):
    out = [0] * n
    for a, row in zip(c, space[0]):
        out = [norm(x + a * y, p) for x, y in zip(out, row)]
    return out


def mat_vec(m, c, p):
    return [norm(sum(a * b for a, b in zip(row, c)), p) for row in m]


def within(a, b, p):
    return all(contains(b, v, p) for v in a[0])


def meet(a, b, n, p):
    """Zassenhaus: RREF of the rows [a | a] and [b | 0], read off the right half."""
    red, pivots = ref_rref([r + r for r in a[0]] + [r + [0] * n for r in b[0]], 2 * n, p)
    return ref_rref([red[i][n:] for i, c in enumerate(pivots) if c >= n], n, p)


def ref_multiply(table, x, y, n, p):
    out = [0] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in table[i][j]:
                    out[k] = norm(out[k] + a * b * plain(c, p), p)
    return out


# -- the reference validator ------------------------------------------------------------


class Reference:
    """The action's data, read out of the PartialAction into plain dense lists."""

    def __init__(self, pa):
        self.pa = pa
        self.p = p = pa.ambient.field.char
        self.n = n = pa.ambient.dim
        self.table = corpus.table_of(pa.ambient)

        def space(s):
            return ref_rref([[plain(x, p) for x in r] for r in s.basis], n, p)

        self.comps = {e: space(s) for e, s in pa.object_components.items()}
        self.domains = {g: space(s) for g, s in pa.domains.items()}
        self.maps = {g: [[plain(x, p) for x in r] for r in m.rows] for g, m in pa.maps.items()}

    def mul(self, x, y):
        return ref_multiply(self.table, x, y, self.n, self.p)

    def alpha(self, g, v):
        """alpha_g(v) by coordinates, the matrix and expansion; None outside R_{g^-1}."""
        c = coords(self.domains[self.pa.inv(g)], v, self.p)
        if c is None:
            return None
        return expand(self.domains[g], mat_vec(self.maps[g], c, self.p), self.n, self.p)

    def alpha_inverse(self, g, v):
        """The u in R_{g^-1} with alpha_g(u) = v, for a bijective alpha_g and v in R_g."""
        src, dst = self.domains[self.pa.inv(g)], self.domains[g]
        m, k, p = self.maps[g], len(src[0]), self.p
        red, _ = ref_rref([row + [b] for row, b in zip(m, coords(dst, v, p))], k + 1, p)
        return expand(src, [row[k] for row in red], self.n, p)

    def is_ideal(self, inner, outer):
        return all(contains(inner, self.mul(v, w), self.p) and contains(inner, self.mul(w, v), self.p)
                   for v in inner[0] for w in outer[0])

    def violations(self):
        """(rule, witness) of every violation, in the validator's order."""
        pa, p, n = self.pa, self.p, self.n
        g0 = pa.groupoid
        out = []
        comps = [self.comps[e] for e in g0.objects]
        total = ref_rref([v for c in comps for v in c[0]], n, p)
        if len(total[0]) != n or sum(len(c[0]) for c in comps) != n:
            out.append(("P4", ()))
        full = ref_rref([[int(i == j) for j in range(n)] for i in range(n)], n, p)
        for e in g0.objects:
            if not self.is_ideal(self.comps[e], full):
                out.append(("ideal", (e,)))
        for g in g0.morphisms:
            dom, comp = self.domains[g], self.comps[g0.cod[g]]
            if not within(dom, comp, p) or not self.is_ideal(dom, comp):
                out.append(("ideal", (g,)))

        bad = set()
        for g in g0.morphisms:
            src, dst = self.domains[pa.inv(g)], self.domains[g]
            k = len(src[0])
            if k != len(dst[0]) or len(ref_rref(self.maps[g], k, p)[1]) != k:
                out.append(("bijective", (g,)))
                bad.add(g)
        for g in g0.morphisms:
            src = self.domains[pa.inv(g)][0]
            if g not in bad and any(
                    contains(self.domains[pa.inv(g)], w := self.mul(u, v), p)
                    and self.alpha(g, w) != self.mul(self.alpha(g, u), self.alpha(g, v))
                    for u in src for v in src):
                out.append(("multiplicative", (g,)))
        for e in g0.objects:
            i = g0.identity[e]
            k = len(self.domains[i][0])
            if self.domains[i] != self.comps[e] or self.maps[i] != [
                    [int(a == b) for b in range(k)] for a in range(k)]:
                out.append(("P1", (e,)))

        for g, h in g0.composable_pairs():
            gh = g0.compose(g, h)
            if bad & {g, h, gh}:
                continue
            inter = meet(self.domains[h], self.domains[pa.inv(g)], n, p)
            pre = ref_rref([self.alpha_inverse(h, x) for x in inter[0]], n, p)
            target = self.domains[pa.inv(gh)]
            if not within(pre, target, p):
                out.append(("P2", (g, h)))
            if any(self.alpha(g, self.alpha(h, x)) != self.alpha(gh, x)
                   for x in meet(pre, target, n, p)[0]):
                out.append(("P3", (g, h)))
        return out


# -- inputs -----------------------------------------------------------------------------


def sheared_split_algebra(field, m, shears):
    """K^m in the basis b_a = e_a P for P = the product of the shears (I + s E_ab).

    Returns the algebra, P and its inverse as dense lists of plain entries.
    """
    p = field.char
    one = [[int(i == j) for j in range(m)] for i in range(m)]
    fwd, back = [r[:] for r in one], [r[:] for r in one]
    for a, b, s in shears:
        # fwd <- (I + s E_ab) fwd; back <- back (I - s E_ab)
        fwd[a] = [norm(x + s * y, p) for x, y in zip(fwd[a], fwd[b])]
        for r in back:
            r[b] = norm(r[b] - s * r[a], p)
    table = []
    for a in range(m):
        row = []
        for b in range(m):
            w = [norm(x * y, p) for x, y in zip(fwd[a], fwd[b])]
            c = [norm(sum(w[k] * back[k][j] for k in range(m)), p) for j in range(m)]
            row.append([(j, field(x)) for j, x in enumerate(c) if x])
        table.append(row)
    return StructureAlgebra(field, m, table), fwd, back


def restricted_shift(field, n, window, shears, k=0, sigma=None, kept=None):
    """The shift of K^n by Z/n restricted to K^W, in sheared coordinates on K^W.

    With k (2k not 0 mod n) the pair alpha_{g_k}, alpha_{g_-k} changes, each
    staying a ring isomorphism and the inverse of the other.  sigma, a
    permutation {j: sigma(j)} of the j in W with j + k in W (the primitive
    idempotents of R_{g_-k}), makes alpha_{g_k} = alpha_{g_k} sigma; kept, a
    set of such j, shrinks R_{g_-k} to the span of their e_j and R_{g_k} to
    its image.
    """
    p = field.char
    w = sorted(window)
    m = len(w)
    pos = {j: a for a, j in enumerate(w)}
    amb, fwd, back = sheared_split_algebra(field, m, shears)

    def to_plain(v):
        """Coordinates on the unit vectors of K^W of a vector in the sheared basis."""
        return [norm(sum(plain(v[a], p) * fwd[a][c] for a in range(m)), p) for c in range(m)]

    def from_plain(x):
        return [field(sum(x[c] * back[c][j] for c in range(m))) for j in range(m)]

    def unit(j):
        return from_plain([int(c == pos[j]) for c in range(m)])

    # alpha_{g_i} sends e_s to e_t for s -> t in moves[i]; its target is R_{g_i}
    moves = {i: {(j - i) % n: j for j in w if (j - i) % n in pos} for i in range(n)}
    if sigma is not None:
        moves[k] = {s: moves[k][sigma[s]] for s in moves[k]}
    if kept is not None:
        moves[k] = {s: t for s, t in moves[k].items() if s in kept}
    if k:
        moves[(-k) % n] = {t: s for s, t in moves[k].items()}

    g = gpd.cyclic_group(n)
    domains = {f"g{i}": Subspace.from_vectors(field, m, [unit(j) for j in moves[i].values()])
               for i in range(n)}

    def shift(i):
        def f(v):
            x, y = to_plain(v), [0] * m
            for s, t in moves[i].items():
                y[pos[t]] = x[pos[s]]
            return from_plain(y)
        return f

    return pact.PartialAction.from_ambient_maps(
        g, amb, {"*": Subspace.full(field, m)}, domains, {f"g{i}": shift(i) for i in range(n)})


def perturbed(pa, rng):
    """A copy with one entry of one nonempty map changed to another value."""
    field = pa.ambient.field
    p = field.char
    g = rng.choice([g for g in pa.groupoid.morphisms if pa.maps[g].nrows])
    m = pa.maps[g]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows = [list(r) for r in m.rows]
    step = rng.randrange(1, p) if p else rng.choice([1, -1, 2, Fraction(1, 2)])
    rows[i][j] = field(norm(plain(rows[i][j], p) + step, p))
    maps = dict(pa.maps, **{g: Matrix(field, rows, m.ncols)})
    return pact.PartialAction(pa.groupoid, pa.ambient, pa.object_components, pa.domains, maps)


def pair_mutant(field, n, window, shears, rng, kind):
    """A restriction whose pair alpha_{g_k}, alpha_{g_-k} is permuted or shrunk
    (see `restricted_shift`), or the plain restriction when no k has room."""
    def source(k):
        return sorted(j for j in window if (j + k) % n in window)

    ks = [k for k in range(1, n) if 2 * k % n and len(source(k)) > (kind == "permuted")]
    if not ks:
        return restricted_shift(field, n, window, shears)
    k = rng.choice(ks)
    src = source(k)
    if kind == "permuted":
        r = rng.randrange(1, len(src))
        return restricted_shift(field, n, window, shears, k, sigma=dict(zip(src, src[r:] + src[:r])))
    return restricted_shift(field, n, window, shears, k, kept=set(rng.sample(src, rng.randrange(len(src)))))


@st.composite
def actions(draw):
    kind = draw(st.sampled_from(["restriction", "entry", "permuted", "shrunk"]))
    mutant = kind in ("permuted", "shrunk")
    field = Field(draw(st.sampled_from(CHARS)))
    n = draw(st.integers(3 if mutant else 1, 6))
    window = draw(st.sets(st.integers(0, n - 1), min_size=2 if mutant else 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = len(window)
    shears = [(a, b, rng.choice([1, 2, -1, 3]))
              for a, b in (rng.sample(range(m), 2) for _ in range(rng.randint(0, 3) if m > 1 else 0))]
    if mutant:
        return pair_mutant(field, n, window, shears, rng, kind), rng
    pa = restricted_shift(field, n, window, shears)
    if kind == "entry" and any(pa.maps[g].nrows for g in pa.groupoid.morphisms):
        pa = perturbed(pa, rng)
    return pa, rng


# -- tests ------------------------------------------------------------------------------


def test_reference_sees_the_restrictions_as_actions():
    for p in CHARS:
        pa = restricted_shift(Field(p), 5, {0, 1, 3}, [(0, 2, 1), (1, 0, 2)])
        assert Reference(pa).violations() == []


@SETTINGS
@given(actions())
def test_validate_action_matches_reference(case):
    pa, _ = case
    got = [(v.rule, v.witness) for v in pact.validate_action(pa)]
    assert got == Reference(pa).violations()


@SETTINGS
@given(actions())
def test_apply_alpha_matches_reference(case):
    pa, rng = case
    ref = Reference(pa)
    field, p, n = pa.ambient.field, ref.p, ref.n
    for g in pa.groupoid.morphisms:
        src = ref.domains[pa.inv(g)]
        coeffs = [rng.choice([0, 1, rng.randrange(1, 7)]) for _ in src[0]]
        for v in src[0] + [expand(src, coeffs, n, p)]:
            got = pa.apply_alpha(g, [field(x) for x in v])
            assert [plain(x, p) for x in got] == ref.alpha(g, v)
        outside = [[int(i == j) for j in range(n)] for i in range(n)]
        for v in (v for v in outside if not contains(src, v, p)):
            with pytest.raises(ValueError):
                pa.apply_alpha(g, [field(x) for x in v])

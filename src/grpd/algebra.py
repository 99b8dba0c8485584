"""Finite-dimensional algebras over an exact field, given by structure constants.

Covers possibly non-associative algebras: identity detection, associativity
and alternativity tests, center, ideal closures, the Jacobson radical of
associative unital algebras via the trace bilinear form, block decomposition
of semisimple algebras, and Cayley-Dickson doubling.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, PreconditionError, SchemaError, UnsupportedError
from .exactlin import Matrix, Subspace, kernel, solve
from . import schema


class StructureAlgebra:
    """Algebra with basis b_0..b_{n-1} and products b_i b_j = sum_k c_ij^k b_k.

    The structure constants are sparse: `table[i][j]` lists the (k, c_ij^k)
    pairs with c_ij^k nonzero, k strictly increasing, so that equal products
    have equal cells.  Elements are dense coordinate vectors.

    Optional extras: a designated unit vector, basis labels, a grading map
    (basis index to a degree label) and a conjugation involution used by the
    Cayley-Dickson doubling.
    """

    def __init__(self, field, dim, table, unit=None, labels=None,
                 grading=None, grading_groupoid=None, involution=None):
        self.field = field
        self.dim = dim
        if len(table) != dim or any(len(row) != dim for row in table):
            raise DimensionError("structure constant table must be dim x dim")
        for row in table:
            for cell in row:
                last = -1
                try:
                    for k, c in cell:
                        if not (isinstance(k, int) and last < k < dim and c):
                            raise ValueError
                        last = k
                except (TypeError, ValueError):
                    raise DimensionError(
                        f"table cell {cell!r} is not a list of (k, c) pairs with "
                        f"c nonzero and k increasing below {dim}"
                    ) from None
        self.table = table
        self.unit = unit
        self.labels = labels
        self.grading = grading
        self.grading_groupoid = grading_groupoid
        self.involution = involution
        self._assoc = None
        self._center = None
        self._berlekamp = None
        self._radical = None
        self._unit_cache = False  # False = not yet computed

    # -- plumbing ----------------------------------------------------------

    def basis_vector(self, i):
        return self.field.unit_vec(self.dim, i)

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("element length differs from algebra dimension")
        acc = self.field.zero_vec(self.dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, ck in row[j]:
                    acc[k] = acc[k] + c * ck
        return acc

    def left_mult_matrix(self, x):
        """Matrix of y -> x y in the basis."""
        cols = [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols, self.dim)

    def label(self, i):
        return self.labels[i] if self.labels else f"b{i}"

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"StructureAlgebra(dim {self.dim} over {self.field})"

    # -- identity ------------------------------------------------------------

    def is_two_sided_unit(self, u):
        """Whether u b_j = b_j = b_j u for every basis vector b_j."""
        for j in range(self.dim):
            b = self.basis_vector(j)
            if self.multiply(u, b) != b or self.multiply(b, u) != b:
                return False
        return True

    def find_unit(self):
        """The two-sided identity, or None; solves u b_j = b_j = b_j u linearly."""
        if self.unit is not None:
            return list(self.unit)
        if self._unit_cache is not False:
            return list(self._unit_cache) if self._unit_cache is not None else None
        if self.dim == 0:
            self._unit_cache = None
            return None
        n = self.dim
        zero, one = self.field.zero, self.field.one
        rows = []
        rhs = []
        table = self.table
        for j in range(n):
            # sum_i u_i (b_i b_j) = b_j   and   sum_i u_i (b_j b_i) = b_j, one row
            # per coordinate k that some product reaches; the others read 0 = 0
            for cells in ([table[i][j] for i in range(n)], table[j]):
                forms = {}
                for i, cell in enumerate(cells):
                    for k, c in cell:
                        forms.setdefault(k, [zero] * n)[i] = c
                if j not in forms:  # coordinate j reads 0 = 1
                    self._unit_cache = None
                    return None
                rows += forms.values()
                rhs += [one if k == j else zero for k in forms]
        u = solve(Matrix(self.field, rows), rhs)
        self._unit_cache = u
        return list(u) if u is not None else None

    # -- associativity and alternativity ------------------------------------

    def _associator_nz(self, i, j, k):
        """Nonzero coordinates of (b_i b_j) b_k - b_i (b_j b_k), as a dict."""
        table = self.table
        zero = self.field.zero
        acc = {}
        for l, c in table[i][j]:
            for m, cm in table[l][k]:
                acc[m] = acc.get(m, zero) + c * cm
        for l, c in table[j][k]:
            for m, cm in table[i][l]:
                acc[m] = acc.get(m, zero) - c * cm
        return {m: c for m, c in acc.items() if c}

    def associator(self, i, j, k):
        """(b_i b_j) b_k - b_i (b_j b_k)."""
        v = self.field.zero_vec(self.dim)
        for m, c in self._associator_nz(i, j, k).items():
            v[m] = c
        return v

    def is_associative(self):
        """Whether every basis associator vanishes; only linked triples can fail."""
        if self._assoc is None:
            self._assoc = not any(self._associator_nz(*t) for t in self._linked_triples())
        return self._assoc

    def _linked_triples(self):
        """The basis triples (i, j, k) with b_i b_j or b_j b_k nonzero: at every
        other triple both terms of the associator are zero."""
        n, table = self.dim, self.table
        for j in range(n):
            left = {i for i in range(n) if table[i][j]}
            right = [k for k in range(n) if table[j][k]]
            for i in range(n):
                for k in (range(n) if i in left else right):
                    yield i, j, k

    def is_alternative(self):
        """Left and right alternative laws, via the alternating associator.

        Checks A(i,j,k) = -A(j,i,k), A(i,j,k) = -A(i,k,j) on basis triples
        plus the diagonal conditions A(i,i,k) = A(i,k,k) = 0; together these
        are equivalent to x^2 y = x(xy) and x y^2 = (xy)y for all x, y, in
        every characteristic.
        """
        n = self.dim
        zero = self.field.zero
        for i in range(n):
            for k in range(n):
                if self._associator_nz(i, i, k) or self._associator_nz(i, k, k):
                    return False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = self._associator_nz(i, j, k)
                    b = self._associator_nz(j, i, k)
                    for m in set(a) | set(b):
                        if a.get(m, zero) + b.get(m, zero):
                            return False
                    c = self._associator_nz(i, k, j)
                    for m in set(a) | set(c):
                        if a.get(m, zero) + c.get(m, zero):
                            return False
        return True

    # -- center --------------------------------------------------------------

    def center(self):
        """Elements commuting and associating with everything, computed once."""
        if self._center is None:
            self._center = self._solve_center()
        return self._center

    def _solve_center(self):
        """Solve xr = rx over basis r, then cut the commutant by the nucleus
        conditions (x, r, r') = (r, x, r') = (r, r', x) = 0 over basis r, r',
        all stacked into one kernel over the commutant basis.  For
        associative algebras the nucleus conditions hold automatically and
        only the commutant is solved.
        """
        n = self.dim
        if n == 0:
            return Subspace.zero(self.field, 0)
        zero = self.field.zero
        rows = []
        for i in range(n):
            # coordinate r of x b_i - b_i x, as a linear form in the coordinates of x
            forms = defaultdict(lambda: [zero] * n)
            for c in range(n):
                for r, v in self.table[c][i]:
                    forms[r][c] += v
                for r, v in self.table[i][c]:
                    forms[r][c] -= v
            rows.extend(forms.values())
        space = kernel(Matrix(self.field, rows, n))
        if self.is_associative() or space.dim == 0:
            return space
        # the nucleus conditions are linear in x: for x = sum_t y_t v_t over the
        # commutant basis v_t, coordinate m of associator `kind` at (i, j) is a
        # linear form in the y_t
        rows = defaultdict(lambda: [zero] * space.dim)
        for t, v in enumerate(space.basis):
            for c, vc in enumerate(v):
                if not vc:
                    continue
                for i in range(n):
                    for j in range(n):
                        for kind, assoc in enumerate((self._associator_nz(c, i, j),
                                                      self._associator_nz(i, c, j),
                                                      self._associator_nz(i, j, c))):
                            for m, a in assoc.items():
                                rows[(kind, i, j, m)][t] += vc * a
        ker = kernel(Matrix(self.field, list(rows.values()), space.dim))
        return Subspace.from_vectors(self.field, n, [space.expand(y) for y in ker.basis])

    # -- ideals ----------------------------------------------------------------

    def ideal_closure(self, seed, side="two"):
        """Smallest left/right/two-sided ideal containing the seed subspace."""
        if seed.ambient_dim != self.dim:
            raise DimensionError("seed lives in a different ambient space")
        if side not in ("left", "right", "two"):
            raise ValueError(f"side must be left/right/two, got {side!r}")
        current = seed
        while True:
            new_vecs = []
            for v in current.basis:
                for i in range(self.dim):
                    b = self.basis_vector(i)
                    if side in ("left", "two"):
                        w = self.multiply(b, v)
                        if not current.contains(w):
                            new_vecs.append(w)
                    if side in ("right", "two"):
                        w = self.multiply(v, b)
                        if not current.contains(w):
                            new_vecs.append(w)
            if not new_vecs:
                return current
            current = Subspace.from_vectors(
                self.field, self.dim, current.basis + new_vecs
            )

    def is_ideal(self, space, side="two"):
        return self.ideal_closure(space, side) == space

    # -- radical and semisimplicity ---------------------------------------------

    def _radical_guards(self):
        if not self.is_associative():
            raise UnsupportedError("radical computation needs an associative algebra")
        if self.find_unit() is None:
            raise UnsupportedError("radical computation needs a unital algebra")
        if self.field.char != 0 and self.field.char <= self.dim:
            raise UnsupportedError(
                f"trace-form radical is only valid for characteristic 0 or p > dim; "
                f"got p = {self.field.char}, dim = {self.dim}"
            )

    def jacobson_radical(self):
        """Radical of the trace form T(x, y) = trace(L_x L_y), computed once.

        Valid for associative unital algebras in characteristic 0 or p > dim;
        anything else is rejected.  The kernel is closed into a two-sided
        ideal as a safety net (a no-op inside the validity window).
        """
        if self._radical is None:
            self._radical_guards()
            n = self.dim
            zero = self.field.zero
            # associativity gives L_i L_j = L_{b_i b_j}, so
            # trace(L_i L_j) = sum_k c_ij^k trace(L_k), with trace(L_k) = sum_l c_kl^l
            tr = [sum((c for l in range(n) for m, c in self.table[k][l] if m == l), zero)
                  for k in range(n)]
            gram = [[sum((c * tr[k] for k, c in self.table[i][j]), zero) for j in range(n)]
                    for i in range(n)]
            self._radical = self.ideal_closure(kernel(Matrix(self.field, gram)), "two")
        return self._radical

    def is_semisimple(self):
        """Whether the radical is zero; reads the radical when already computed."""
        if self._radical is None:
            self.jacobson_radical()
        return self._radical.dim == 0

    # -- subalgebras --------------------------------------------------------------

    def subalgebra(self, space):
        """Restriction of the product to a multiplicatively closed subspace.

        Returns (algebra, basis) where basis lists the ambient vectors that
        become the standard basis of the restriction.
        """
        basis = space.basis
        d = len(basis)
        table = []
        for u in basis:
            row = []
            for v in basis:
                p = self.multiply(u, v)
                try:
                    row.append(nonzero_terms(space.coords(p)))
                except ValueError:
                    raise PreconditionError("subspace is not closed under multiplication") from None
            table.append(row)
        return StructureAlgebra(self.field, d, table), [list(b) for b in basis]

    # -- Wedderburn-style block decomposition ---------------------------------------

    def wedderburn_blocks(self):
        """Decompose a semisimple algebra into simple two-sided ideals.

        Splits inside the algebra by central idempotents.  Each block B = e A
        carries its idempotent e, starting from A and its unit; the center
        of B is e Z for the center Z of A.  A central z of B whose minimal
        polynomial mp has a base-field root r splits B into e_1 B and e_2 B,
        with e_1 = q(z)/q(r) for q = mp/(t - r) and e_2 = e - e_1.  The center
        of a semisimple algebra over Q or F_p is a product of fields, so mp
        is square-free, q(r) != 0 and the first root splits.

        Over F_p the candidates z are the basis of e W for the Berlekamp
        subalgebra W of Z.  Every element of W has a split minimal
        polynomial, so any non-scalar candidate splits, and a block with
        dim e W = 1 is simple.  Over Q they are the basis of e Z, then its
        pairwise sums.  A block that no candidate splits is kept whole, and
        flagged when its center e Z is larger than the base field.
        """
        if not self.is_semisimple():
            raise PreconditionError("block decomposition needs a semisimple algebra")
        field = self.field
        center = self.center()
        berlekamp = self.berlekamp_subalgebra() if field.char else None

        def times(e, sub):
            """The subspace e sub, as an RREF basis in the ambient coordinates."""
            return Subspace.from_vectors(field, self.dim, [self.multiply(e, v) for v in sub.basis])

        final = []
        work = [(Subspace.full(field, self.dim), self.find_unit())] if self.dim else []
        while work:
            space, e = work.pop(0)
            if berlekamp is None:
                z = times(e, center)
                candidates = _candidates(z.basis)
            else:
                z = None
                local = times(e, berlekamp)
                candidates = local.basis if local.dim > 1 else ()
            e1 = self._splitting_idempotent(e, candidates)
            if e1 is None:
                if z is None:
                    z = times(e, center)
                final.append((space, z.dim > 1))
                continue
            for ei in (e1, [a - b for a, b in zip(e, e1)]):
                work.append((times(ei, space), ei))
        # blocks are unique ideals: order them by first pivot, then dimension,
        # then RREF basis, so the order does not depend on the order of splits
        final.sort(key=lambda t: (t[0].pivots[0], t[0].dim,
                                  [field.fmt(c) for row in t[0].basis for c in row]))
        blocks = [s for s, _ in final]
        non_split = [i for i, (_, flag) in enumerate(final) if flag]
        return BlockDecomposition(blocks, non_split)

    def berlekamp_subalgebra(self):
        """Kernel of z -> z^p - z on the center over F_p, computed once.

        Frobenius is F_p-linear on the commutative center, so the kernel is
        the subalgebra of elements whose components in the field factors of
        a semisimple center all lie in F_p (Berlekamp; Ronyai).  Each z^p is
        taken by square-and-multiply.
        """
        if self.field.char == 0:
            raise UnsupportedError("the Berlekamp subalgebra needs a prime field")
        if self._berlekamp is None:
            field = self.field
            center = self.center()
            cols = []
            for t, z in enumerate(center.basis):
                c = center.coords(self._power(z, field.char))
                c[t] -= field.one
                cols.append(c)
            ker = kernel(Matrix.from_columns(field, cols, center.dim))
            self._berlekamp = Subspace.from_vectors(
                field, self.dim, [center.expand(c) for c in ker.basis])
        return self._berlekamp

    def _power(self, x, k):
        """x^k for k >= 1 by left-to-right square-and-multiply."""
        acc = x
        for bit in bin(k)[3:]:
            acc = self.multiply(acc, acc)
            if bit == "1":
                acc = self.multiply(acc, x)
        return acc

    def _splitting_idempotent(self, e, candidates):
        """e_1 = q(z)/q(r) for the first candidate z with a base-field root r; or None."""
        field = self.field
        for z in candidates:
            mp = minimal_polynomial(self, z, e)
            roots = polynomial_roots(field, mp) if len(mp) > 2 else []
            if roots:
                q = _poly_divide_linear(field, mp, roots[0])
                acc = [q[-1] * a for a in e]
                for c in reversed(q[:-1]):
                    acc = [a + c * b for a, b in zip(self.multiply(acc, z), e)]
                scale = field.one / _poly_eval(field, q, roots[0])
                return [scale * a for a in acc]
        return None

    # -- Cayley-Dickson doubling -------------------------------------------------------

    def cayley_dickson_double(self):
        """Double the algebra: (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)).

        Needs a unit and a stored conjugation involution; both are carried
        to the doubled algebra, with conj(a, b) = (conj(a), -b).
        """
        if self.unit is None and self.find_unit() is None:
            raise UnsupportedError("doubling needs a unital algebra")
        if self.involution is None:
            raise UnsupportedError("doubling needs a designated conjugation involution")
        n = self.dim
        n2 = 2 * n
        conj = self.involution

        def pad(first, second):
            return list(first) + list(second)

        def shifted(terms):
            return [(k + n, c) for k, c in terms]

        zvec = self.field.zero_vec(n)
        table = []
        for i in range(n):
            # (x,0)(c,0) = (xc, 0) and (x,0)(0,d) = (0, d x)
            table.append(self.table[i] + [shifted(self.table[j][i]) for j in range(n)])
        for i in range(n):
            bi = self.basis_vector(i)
            # (0,y)(c,0) = (0, y conj(c)) and (0,y)(0,d) = (-conj(d) y, 0)
            table.append(
                [shifted(nonzero_terms(self.multiply(bi, conj[j]))) for j in range(n)]
                + [[(k, -c) for k, c in nonzero_terms(self.multiply(conj[j], bi))]
                   for j in range(n)]
            )
        unit = pad(self.find_unit(), zvec)
        new_conj = [pad(conj[i], zvec) for i in range(n)]
        new_conj += [pad(zvec, [-a for a in self.basis_vector(i)]) for i in range(n)]
        labels = [f"e{i}" for i in range(n2)]
        return StructureAlgebra(
            self.field, n2, table, unit=unit, labels=labels, involution=new_conj
        )

    # -- JSON schema ----------------------------------------------------------------------

    def to_dict(self):
        fmt = self.field.fmt
        entries = []
        for i, row in enumerate(self.table):
            for j, cell in enumerate(row):
                if cell:
                    v = [fmt(self.field.zero)] * self.dim
                    for k, c in cell:
                        v[k] = fmt(c)
                    entries.append([i, j, v])
        out = {
            "field": {"char": self.field.char},
            "dim": self.dim,
            "basis": [self.label(i) for i in range(self.dim)],
            "table": entries,
        }
        if self.unit is not None:
            out["unit"] = [fmt(c) for c in self.unit]
        return out

    @classmethod
    def from_dict(cls, d):
        char = schema.get(schema.get(d, "field", dict, "algebra"), "char", int, "algebra field")
        field = schema.field(char, "algebra field char")
        dim = schema.get(d, "dim", int, "algebra")
        if dim < 0:
            raise SchemaError(f"dim must not be negative, got {dim}")
        labels = d.get("basis")
        if labels is not None:
            schema.items(labels, object, "basis", dim)
        table = [[[] for _ in range(dim)] for _ in range(dim)]
        for t, ent in enumerate(schema.get(d, "table", list, "algebra")):
            what = f"table entry {t}"
            i, j, coeffs = schema.items(ent, object, what, 3)
            if not all(0 <= schema.check(x, int, f"index in {what}") < dim for x in (i, j)):
                raise SchemaError(f"{what} has an index out of range: {ent!r}")
            table[i][j] = nonzero_terms(schema.vec(field, coeffs, dim, what))
        alg = cls(field, dim, table, labels=labels)
        if "unit" in d:
            unit = schema.vec(field, d["unit"], dim, "unit")
            if not alg.is_two_sided_unit(unit):
                raise SchemaError("supplied unit is not a two-sided identity")
            alg.unit = unit
        return alg


def nonzero_terms(v):
    """The (k, c) pairs of the nonzero coordinates of a vector: one table cell."""
    return [(k, c) for k, c in enumerate(v) if c]


@dataclass
class BlockDecomposition:
    """Pairwise-orthogonal two-sided ideals summing to the whole algebra.

    `non_split` lists indices of blocks whose center stayed reducible over
    the base field (flagged "irreducible-over-field", kept whole).
    """

    blocks: list
    non_split: list

    @property
    def fully_split(self):
        return not self.non_split

    def dims(self):
        return [b.dim for b in self.blocks]

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]


def minimal_polynomial(alg, x, one):
    """Monic minimal polynomial of x, with `one` (an identity for x) as x^0.

    `one` may be the unit of the algebra or of a block containing x.
    Returned as a coefficient list [a_0, ..., a_{d-1}, 1].  Each power is
    reduced against echelon rows of the earlier ones, each row carrying
    the combination of powers it stands for; the first power that reduces
    to zero gives the polynomial.  The search ends within dim steps: every
    power it keeps is independent of the earlier ones.
    """
    if alg.multiply(one, x) != list(x):
        raise PreconditionError("minimal polynomial needs an identity for the element")
    field = alg.field
    rows = []  # (pivot, echelon row with 1 at the pivot, its combination of powers)
    power = list(one)
    while True:
        v = power
        comb = [field.zero] * len(rows) + [field.one]  # v = sum_i comb[i] x^i
        for pivot, row, rc in rows:
            c = v[pivot]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
                for i, b in enumerate(rc):
                    comb[i] -= c * b
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            return comb
        inv = field.one / v[pivot]
        rows.append((pivot, [inv * a for a in v], [inv * a for a in comb]))
        power = alg.multiply(power, x)


def _poly_eval(field, coeffs, x):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def polynomial_roots(field, coeffs):
    """All roots of the polynomial in the base field, sorted deterministically.

    Over Q this is a rational root search on the cleared-denominator form;
    over F_p it is `_prime_field_roots`, which takes O(log p) steps per
    root rather than one per residue.
    """
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    if field.char:
        return [field(r) for r in _prime_field_roots(field.char, [c.val for c in coeffs])]
    roots = []
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    if ints[0] == 0:
        roots.append(field.zero)
    # nonzero rational roots p/q have p dividing the lowest nonzero
    # coefficient and q dividing the leading one
    low = next(c for c in ints if c != 0)
    lead = ints[-1]
    for p in _divisors(low):
        if p == 0:
            continue
        for q in _divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if _poly_eval(field, coeffs, cand) == field.zero:
                    roots.append(cand)
    return sorted(set(roots))


# -- polynomials over F_p as lists of ints [a_0, ..., a_d], a_d != 0 ([] is zero) --


def _prime_field_roots(p, f):
    """Sorted roots in F_p of a polynomial of degree >= 1.

    g = gcd(f, t^p - t) is the product of the distinct linear factors of f;
    Cantor-Zassenhaus splits it by gcd(g, (t + a)^((p-1)/2) - 1) for
    a = 0, 1, 2, ... in turn.  For two distinct roots r, s of g, the values
    (r + a)/(s + a), a != -s, run over every element but 1, so some a makes
    it a non-square: then exactly one of r + a, s + a is a nonzero square,
    the gcd keeps one of r, s and not the other, and the search ends.
    """
    f = _fp_monic(p, f)
    if p == 2:
        return [r for r, val in ((0, f[0]), (1, sum(f))) if val % 2 == 0]
    g = _fp_gcd(p, f, _fp_sub(p, _fp_powmod(p, [0, 1], p, f), [0, 1]))
    roots = []
    pending = [g] if len(g) > 1 else []
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
            continue
        for a in itertools.count():
            w = _fp_gcd(p, h, _fp_sub(p, _fp_powmod(p, [a, 1], (p - 1) // 2, h), [1]))
            if 1 < len(w) < len(h):
                pending += [w, _fp_divmod(p, h, w)[0]]
                break
    return sorted(roots)


def _fp_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _fp_monic(p, f):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _fp_sub(p, f, g):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _fp_trim([(a - b) % p for a, b in zip(f, g)])


def _fp_divmod(p, f, g):
    """Quotient and remainder of f by a monic g."""
    r = list(f)
    d = len(g) - 1
    q = [0] * max(len(f) - d, 0)
    for i in range(len(f) - 1, d - 1, -1):
        c = r[i]
        if c:
            q[i - d] = c
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * g[j]) % p
    return q, _fp_trim(r[:d])


def _fp_gcd(p, f, g):
    """Monic greatest common divisor; f is nonzero."""
    while g:
        g = _fp_monic(p, g)
        f, g = g, _fp_divmod(p, f, g)[1]
    return _fp_monic(p, f)


def _fp_powmod(p, base, k, m):
    """base^k mod a monic m of degree >= 1, by square-and-multiply."""
    acc = [1]
    for bit in bin(k)[2:]:
        acc = _fp_mulmod(p, acc, acc, m)
        if bit == "1":
            acc = _fp_mulmod(p, acc, base, m)
    return acc


def _fp_mulmod(p, f, g, m):
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return _fp_divmod(p, [c % p for c in prod], m)[1]


def _poly_divide_linear(field, coeffs, root):
    """Synthetic division of a polynomial by (t - root); division must be exact."""
    n = len(coeffs) - 1
    out = [field.zero] * n
    acc = coeffs[n]
    out[n - 1] = acc
    for i in range(n - 1, 0, -1):
        acc = coeffs[i] + acc * root
        out[i - 1] = acc
    if coeffs[0] + acc * root:
        raise PreconditionError("polynomial division by (t - root) left a remainder")
    return out


def _candidates(basis):
    """Central elements tried for a split: the basis, then its pairwise sums."""
    yield from basis
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            yield [a + b for a, b in zip(u, v)]


def quaternion_seed(field):
    """The base field as a one-dimensional algebra with identity conjugation."""
    one = field.one
    return StructureAlgebra(
        field, 1, [[[(0, one)]]], unit=[one], labels=["e0"], involution=[[one]]
    )


def cayley_dickson_chain(field, doublings):
    """Iterated doubling of the base field; doublings=3 gives the octonions."""
    alg = quaternion_seed(field)
    for _ in range(doublings):
        alg = alg.cayley_dickson_double()
    return alg


def grading_respected(alg, compose):
    """Check the graded product law under a degree composition rule.

    `compose(g, h)` returns the product degree, or None when products of
    those degrees must vanish.  Returns None when the algebra carries no
    grading.
    """
    if alg.grading is None:
        return None
    for i in range(alg.dim):
        gi = alg.grading[i]
        for j in range(alg.dim):
            gj = alg.grading[j]
            target = compose(gi, gj)
            prod = alg.table[i][j]
            if target is None:
                if prod:
                    return False
                continue
            for k, _ in prod:
                if alg.grading[k] != target:
                    return False
    return True

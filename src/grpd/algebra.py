"""Finite-dimensional algebras over an exact field, given by structure constants.

Covers possibly non-associative algebras: identity detection, associativity
and alternativity tests, center, ideal closures, the Jacobson radical of
associative unital algebras via the trace bilinear form, block decomposition
of semisimple algebras, and the Cayley-Dickson chain.
"""

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, PreconditionError, SchemaError, UnsupportedError
from .exactlin import (Matrix, Subspace, _canonical, _combine, _dense, _gauss_jordan,
                       _kernel, _pivot, _product, _reduce, _solve, _sparse, _subtract)
from .polynomial import (_poly_deriv, _poly_divmod, _poly_gcd, _poly_mul, _poly_trim, _poly_xgcd,
                         _prime_field_roots, _q_factors)
from . import schema

MAX_DIM = 1024  # largest dim a file may declare; its dense input table alone is ~8 MB


class StructureAlgebra:
    """Algebra with basis b_0..b_{n-1} and products b_i b_j = sum_k c_ij^k b_k.

    The constructor takes the structure constants as a dense dim x dim
    `table` whose cell `table[i][j]` lists the (k, c_ij^k) pairs with c_ij^k
    nonzero, k strictly increasing; a zero product is an empty cell.  A
    coefficient is an int in [1, p) over F_p, and a nonzero int or Fraction
    over Q.  It checks every cell and stores only the nonzero products, in
    canonical form, as raw rows `_cells[i]` = {j: raw row {k: c_ij^k} of
    b_i b_j}; the table itself is not kept.  Everything the algebra
    computes, compares or reports reads `_cells`.  Inside, elements are raw rows {index: value} and multiply
    through `_product`; `multiply` is the dense boundary.

    Optional extras: a designated unit vector, basis labels and a grading map
    (basis index to a degree label).  The constructor is the only writer of
    `unit`: a supplied unit must be a two-sided identity, or it raises a
    PreconditionError (a DimensionError for a vector of another length).
    """

    def __init__(self, field, dim, table, unit=None, labels=None, grading=None):
        self.field = field
        self.dim = dim
        if len(table) != dim or any(len(row) != dim for row in table):
            raise DimensionError("structure constant table must be dim x dim")
        p = field.char
        kinds = (int,) if p else (int, Fraction)
        self._cells = []
        for row in table:
            cells = {}
            for j, cell in enumerate(row):
                last, raw = -1, {}
                try:
                    for k, c in cell:
                        # __eq__ compares _cells, so each coefficient is stored in
                        # one form: a residue in [1, p), or a canonical rational
                        if not (isinstance(k, int) and last < k < dim
                                and type(c) in kinds and (0 < c < p if p else c)):
                            raise ValueError
                        last = k
                        raw[k] = c if type(c) is int else _canonical(c)
                except (TypeError, ValueError):
                    raise DimensionError(
                        f"table cell {cell!r} is not a list of (k, c) pairs with "
                        f"c nonzero and k increasing below {dim}"
                    ) from None
                if raw:
                    cells[j] = raw
            self._cells.append(cells)
        if unit is not None and not self.is_two_sided_unit(unit):
            raise PreconditionError("supplied unit is not a two-sided identity")
        self.unit = unit
        self.labels = labels
        self.grading = grading
        self.grading_groupoid = None  # set by the skew groupoid ring builder
        self._assoc = None  # the associator table, built only when asked for
        self._index = [None, None]  # the slice indexes of A and of A^op
        self._gens = None  # A's generators once A is found associative; False if it is not
        self._center = None
        self._berlekamp = None
        self._radical = None
        self._unit_cache = False  # False = not yet computed

    # -- plumbing ----------------------------------------------------------

    def basis_vector(self, i):
        return self.field.unit_vec(self.dim, i)

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        return _dense(self.field, self._mul(self._row(x), self._row(y)), self.dim)

    def _row(self, x):
        """The raw row of a dense element; refuses a vector of another length."""
        if len(x) != self.dim:
            raise DimensionError("element length differs from algebra dimension")
        return _sparse(self.field, x)

    def _mul(self, x, y):
        """The product of raw rows."""
        return _product(x, y, self._cells, self.field.char)

    def left_mult_matrix(self, x):
        """Matrix of y -> x y in the basis."""
        row = self._row(x)
        return Matrix._of_columns(self.field, self.dim, [self._mul(row, {j: 1}) for j in range(self.dim)])

    def label(self, i):
        return self.labels[i] if self.labels else f"b{i}"

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._cells == other._cells
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"StructureAlgebra(dim {self.dim} over {self.field})"

    # -- identity ------------------------------------------------------------

    def is_two_sided_unit(self, u):
        """Whether u b_j = b_j = b_j u for every basis vector b_j."""
        x = self._row(u)
        return all(self._mul(x, {j: 1}) == {j: 1} == self._mul({j: 1}, x) for j in range(self.dim))

    def find_unit(self):
        """The two-sided identity, or None; the supplied unit, else solved once.
        The zero algebra is unital, with unit [] (1 = 0)."""
        if self.unit is not None:
            return list(self.unit)
        if self._unit_cache is False:
            self._unit_cache = self._solve_unit()
        return list(self._unit_cache) if self._unit_cache is not None else None

    def _solve_unit(self):
        """Solve u b_j = b_j = b_j u linearly; None when no u does.  Once A is found
        associative, b_j runs over its generators: each b_m is a multiple of their products."""
        n, rows = self.dim, []
        for j, col in _columns(self._cells, self._gens or range(n)).items():
            # sum_i u_i (b_i b_j) = b_j   and   sum_i u_i (b_j b_i) = b_j, one row (right-hand
            # side at column n) per coordinate k that some product reaches; the others read 0 = 0
            for prods in (col, self._cells[j]):
                forms = _forms(prods)
                if j not in forms:  # coordinate j reads 0 = 1
                    return None
                forms[j][n] = 1
                rows += forms.values()
        return _solve(self.field, rows, n)

    # -- associators and the laws they decide ---------------------------------

    def _slices(self, op=False):
        """The slice index of A, or of its opposite A^op (the table transposed), built once."""
        if self._index[op] is None:
            cells = list(_columns(self._cells, range(self.dim)).values()) if op else self._cells
            self._index[op] = _slice_index(cells, self.field.char)
        return self._index[op]

    def _associators(self):
        """The nonzero basis associators {(i, j, k): {m: c}}, all slices' union; no law reads it."""
        if self._assoc is None:
            self._assoc = {t: a for k in range(self.dim) for t, a in _slice(self._slices(), k).items()}
        return self._assoc

    def associator(self, i, j, k):
        """(b_i b_j) b_k - b_i (b_j b_k)."""
        return _dense(self.field, self._associators().get((i, j, k), {}), self.dim)

    def is_associative(self):
        """Whether every basis associator vanishes, decided on generators.

        `_generators` picks the generators s.  Slice s is zero iff b_s lies in
        the right nucleus N_r = {x : (a, b, x) = 0}, a subalgebra (Teichmueller
        identity); the generators generate A, so A is associative iff their
        slices are all zero.  It stops at the first nonzero one.
        """
        if self._gens is None:
            index, gens = self._slices(), []
            for s, _ in _generators(self._cells, index[1]):
                if _slice(index, s):
                    self._gens = False
                    return False
                gens.append(s)
            self._gens, self._assoc = gens, {}
        return self._gens is not False

    def is_alternative(self):
        """Left and right alternative laws, streamed over the slices of A and A^op.

        x^2 y = x(xy) holds, in every characteristic, iff A(i,i,k) = 0 and
        A(j,i,k) = -A(i,j,k) on basis triples, both in slice k.  The right law
        x y^2 = (xy)y is the left law of A^op, whose associators A^op(i,j,k) =
        -A(k,j,i) equal A's when A is alternative (the associator alternates);
        when they do, A^op's left law is A's.  So slice k of A must equal its
        swap, negated, and slice k of A^op must equal it.  Stops at the first violation.
        """
        if self.is_associative():
            return True
        p = self.field.char
        for k in range(self.dim):
            table = _slice(self._slices(), k)
            swap = {(j, i, k): {m: -c % p if p else -c for m, c in a.items()}
                    for (i, j, _), a in table.items() if i != j}
            if table != swap or _slice(self._slices(op=True), k) != table:
                return False
        return True

    # -- center --------------------------------------------------------------

    def center(self):
        """Elements commuting and associating with everything, computed once."""
        if self._center is None:
            self._center = self._solve_center()
        return self._center

    def _solve_center(self):
        """Solve x b_s = b_s x, over an associative algebra for its generators s
        alone: x then commutes with their products.  Otherwise s runs over the
        basis, and one kernel over the commutant basis cuts it by (x, r, r') =
        (r, r', x) = 0 over basis r, r'; in the commutant (r, x, r') is their sum.
        """
        n, p, rows = self.dim, self.field.char, []
        for s, col in _columns(self._cells, self._gens if self.is_associative() else range(n)).items():
            # coordinate r of x b_s - b_s x, as a linear form in the coordinates of x
            forms = _forms(col)
            for r, row in _forms(self._cells[s]).items():
                _subtract(forms[r], 1, row, p)
            rows += forms.values()
        space = _kernel(self.field, rows, n)
        if self._gens is not False or space.dim == 0:
            return space
        # coordinate m of (r, r', x) or (x, r, r'), x = sum_t y_t v_t over the commutant
        # basis, is a form in the y_t read off slice c of A or of A^op (A^op(r', r, c) =
        # -A(c, r, r')) for the coordinates c of the v_t alone
        slots = _forms(dict(enumerate(space._rows.values())))  # c -> {t: v_tc}
        rows = defaultdict(dict)
        for op in (False, True):
            for c, v in slots.items():
                for (i, j, _), a in _slice(self._slices(op), c).items():
                    for m, am in a.items():
                        _subtract(rows[op, i, j, m], -am, v, p)
        return space._expand_space(_kernel(self.field, rows.values(), space.dim))

    # -- ideals ----------------------------------------------------------------

    def _residues(self, space, others, side="two", rows=None):
        """Yield the nonzero residues modulo the subspace of w v (side "left" or
        "two") and v w (side "right" or "two"), for v an RREF row of space (or
        a raw row of rows, when given) and w a raw row of others: space
        absorbs those products iff none comes."""
        if space.ambient_dim != self.dim:
            raise DimensionError("subspace lives in a different ambient space")
        if side not in ("left", "right", "two"):
            raise ValueError(f"side must be left/right/two, got {side!r}")
        piv, p = space._rows, self.field.char
        for v in piv.values() if rows is None else rows:
            for w in others:
                if side != "right" and (r := _reduce(self._mul(w, v), piv, p)):
                    yield r
                if side != "left" and (r := _reduce(self._mul(v, w), piv, p)):
                    yield r

    def ideal_closure(self, seed, side="two"):
        """Smallest left/right/two-sided ideal containing the seed subspace.

        The products of the span of one round lie in the next, so each round
        multiplies only the rows that took a new pivot, a complement of the
        span before it."""
        basis = [{i: 1} for i in range(self.dim)]
        fresh = seed._rows
        while new := list(self._residues(seed, basis, side, fresh.values())):
            old = seed._rows
            seed = Subspace(self.field, self.dim,
                            _gauss_jordan([dict(r) for r in old.values()] + new, self.field.char))
            fresh = {c: r for c, r in seed._rows.items() if c not in old}
        return seed

    def is_ideal(self, space, side="two"):
        """Whether space is a left/right/two-sided ideal: ideal_closure(space, side) == space."""
        return not any(self._residues(space, [{i: 1} for i in range(self.dim)], side))

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
        anything else is rejected.  The kernel is a two-sided ideal as it
        stands, in every characteristic: L_ab = L_a L_b and
        trace(AB) = trace(BA) give T(ax, y) = T(x, ya) and T(xa, y) = T(x, ay),
        which vanish for x in the kernel.
        """
        if self._radical is None:
            self._radical_guards()
            p = self.field.char
            # associativity gives L_i L_j = L_{b_i b_j}, so
            # trace(L_i L_j) = sum_k c_ij^k trace(L_k), with trace(L_k) = sum_l c_kl^l
            tr = [sum(cell.get(l, 0) for l, cell in row.items()) for row in self._cells]
            gram = [{} for _ in self._cells]
            for g, row in zip(gram, self._cells):
                for j, cell in row.items():
                    x = sum(c * tr[k] for k, c in cell.items())
                    if p:
                        x %= p
                    if x:
                        g[j] = x
            self._radical = _kernel(self.field, gram, self.dim)
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
        if space.ambient_dim != self.dim:
            raise DimensionError("subspace lives in a different ambient space")
        try:
            alg = _induced(self.field, list(space._rows.values()), self._mul, space._raw_coords)
        except ValueError:
            raise PreconditionError("subspace is not closed under multiplication") from None
        return alg, space.basis

    # -- Wedderburn-style block decomposition ---------------------------------------

    def wedderburn_blocks(self):
        """Decompose a semisimple algebra into simple two-sided ideals.

        Splits the unit by central idempotents, then forms each block once, as
        e A.  The work list holds pairs (e, C) of a central idempotent e,
        starting from the unit, and its candidate space C: e Z for the center
        Z over Q, e W for the Berlekamp subalgebra W of Z over F_p.  C is a
        product of fields, one per simple block of e A, so e is final when
        dim C = 1; otherwise `_split` cuts e into pieces, final or split
        again.  Each final e gives its block e A, flagged in `non_split` when
        dim e Z > 1 over F_p, or when its factor has degree > 1 over Q.
        """
        if not self.is_semisimple():
            raise PreconditionError("block decomposition needs a semisimple algebra")
        field, p = self.field, self.field.char
        center = self.center()
        cands = self.berlekamp_subalgebra() if p else center

        def times(e, sub):
            """The subspace e sub in RREF; over Q e is scaled to integers first."""
            if not p:
                den = math.lcm(*(c.denominator for c in e.values()))
                e = {j: c.numerator * (den // c.denominator) for j, c in e.items()}
            rows = [self._mul(e, v) for v in sub._rows.values()]
            return Subspace(field, self.dim, _gauss_jordan(rows, p))

        final, known = [], {}  # final: (e, degree); known: the factors of each mp seen
        work = [(self._row(self.find_unit()), cands)] if self.dim else []
        while work:
            e, local = work.pop()
            pieces, simple = self._split(e, local, known) if local.dim > 1 else ([(e, 1)], True)
            if simple:
                final += pieces
            else:
                work += [(ei, times(ei, local)) for ei, _ in pieces]
        whole = Subspace.full(field, self.dim)
        form = times if len(final) > 1 else lambda e, sub: sub  # the unit alone: e A = A, e Z = Z
        final = [(form(e, whole), form(e, center).dim > 1 if p else degree > 1) for e, degree in final]
        # blocks are unique ideals: order them by first pivot, then dimension, then RREF
        # basis (formatted only on a tie), so the order does not depend on the order of splits
        ties = Counter((s.pivots[0], s.dim) for s, _ in final)
        final.sort(key=lambda t: (lead := (t[0].pivots[0], t[0].dim), ties[lead] > 1
                                  and [field.fmt(c) for row in t[0].basis for c in row]))
        blocks = [s for s, _ in final]
        non_split = [i for i, (_, flag) in enumerate(final) if flag]
        return BlockDecomposition(blocks, non_split)

    def _split(self, e, local, known):
        """The pieces [(e_i, deg g_i)] of the central idempotent e, and whether
        they are final.  The candidates z are the RREF basis of `local` = e C,
        of dim m >= 2, then z_lam = sum_i lam^i z_i, lam = 1, 2, ...  The first
        non-scalar z whose square-free minimal polynomial mp factors, or has
        degree m, is used: each monic irreducible factor g gives q(z),
        q = mp/g, which generates the block of g.  When deg mp = m, z
        generates local and the pieces are final; otherwise each is made the
        idempotent (s q)(z), s q = 1 mod g.  Some lam <= C(m, 2)(m - 1) + 1 has
        deg mp = m: two distinct embeddings of C into an algebraic closure
        differ on z_lam by a nonzero polynomial in lam of degree below m.
        Over F_p the factors of mp are its linear ones: every element of W has
        a split mp, so the first non-scalar basis vector splits e.  `known`
        maps each mp already factored in this decomposition to its factors."""
        p, basis = self.field.char, list(local._rows.values())
        m = len(basis)
        lams = ({i: lam**i for i in range(m)} for lam in itertools.count(1))
        for z in itertools.chain(basis, (_combine(c, basis, p) for c in lams)):
            mp, powers = _min_poly(self, z, e)
            factors = () if len(mp) == 2 else known.get(key := tuple(mp))
            if factors is None:
                factors = known[key] = (
                    [[-r % p, 1] for r in _prime_field_roots(p, mp)] if p else _q_factors(mp))
            if len(factors) > 1 or len(mp) == m + 1:
                simple = len(mp) == m + 1
                return [(_piece(p, mp, g, powers, simple), len(g) - 1) for g in factors], simple

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
            p = self.field.char
            center = self.center()
            # row s reads coordinate s of z_t^p - z_t over the center basis z_t
            rows = [{} for _ in range(center.dim)]
            for t, z in enumerate(center._rows.values()):
                zp = center._raw_coords(self._power(z, p))
                _subtract(zp, 1, {t: 1}, p)
                for s, x in zp.items():
                    rows[s][t] = x
            self._berlekamp = center._expand_space(_kernel(self.field, rows, center.dim))
        return self._berlekamp

    def _power(self, x, k):
        """x^k for a raw row x and k >= 1, by left-to-right square-and-multiply."""
        acc = x
        for bit in bin(k)[3:]:
            acc = self._mul(acc, acc)
            if bit == "1":
                acc = self._mul(acc, x)
        return acc

    # -- JSON schema ----------------------------------------------------------------------

    def to_dict(self):
        fmt = self.field.fmt
        entries = []
        for i, cells in enumerate(self._cells):
            for j in sorted(cells):
                v = [fmt(self.field.zero)] * self.dim
                for k, c in cells[j].items():
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
        if not 0 <= dim <= MAX_DIM:
            raise SchemaError(f"dim must be between 0 and {MAX_DIM}, got {dim}")
        labels = d.get("basis")
        if labels is not None:
            schema.items(labels, object, "basis", dim)
        table = [[()] * dim for _ in range(dim)]
        cells = set()
        for t, ent in enumerate(schema.get(d, "table", list, "algebra")):
            what = f"table entry {t}"
            i, j, coeffs = schema.items(ent, object, what, 3)
            if not all(0 <= schema.check(x, int, f"index in {what}") < dim for x in (i, j)):
                raise SchemaError(f"{what} has an index out of range: {ent!r}")
            if (i, j) in cells:
                raise SchemaError(f"{what} repeats the table cell ({i}, {j})")
            cells.add((i, j))
            table[i][j] = schema.terms(field, coeffs, dim, what)
        unit = schema.vec(field, d["unit"], dim, "unit") if "unit" in d else None
        try:
            return cls(field, dim, table, unit=unit, labels=labels)
        except PreconditionError:
            raise SchemaError("supplied unit is not a two-sided identity") from None


def _forms(prods):
    """{k: {i: c}} from raw rows {i: {k: c}}: coordinate k of sum_i x_i prods[i] as a linear form."""
    forms = defaultdict(dict)
    for i, row in prods.items():
        for k, c in row.items():
            forms[k][i] = c
    return forms


def _columns(cells, js):
    """{j: {i: raw row of b_i b_j}} for each j in js, in one pass over the table."""
    cols = {j: {} for j in js}
    for i, row in enumerate(cells):
        for j in row.keys() & cols.keys():
            cols[j][i] = row[j]
    return cols


def _generators(cells, col):
    """Yield the generators s that `is_associative` takes, each with the set of the b_m
    reached before it, until every b_m is reached.

    b_s is reached, and so is b_m when b_r b_t = c b_m, c != 0, for b_r reached and
    b_t a generator.  Each step takes the unreached b_s that reaches the most new
    b_m in one product, b_r b_s with b_r reached or b_s b_t with b_t a generator
    (r = t = s included), the first in basis order on a tie, and then closes
    `reached`.  Every candidate keeps the set of b_m it would reach, updated as
    rows and generators come in, so the whole choice reads each cell about once.
    `col` is the column index of `_slice_index`, whose pairs are the one-term cells."""
    reached, gens, first = set(), set(), 0
    reach = defaultdict(set)  # reach[s]: the unreached b_m, m != s, b_s reaches; s unreached
    holders = defaultdict(set)  # holders[m]: the s with m in reach[s]

    def offer(s, m):
        if m != s and m not in reached:
            reach[s].add(m)
            holders[m].add(s)

    for s, cs in enumerate(col):
        if type(ss := cs.get(s)) is tuple:
            offer(s, ss[0])
    while len(reached) < len(cells):
        while first in reached:
            first += 1
        most, s = max(((len(ms), -t) for t, ms in reach.items()), default=(0, 0))
        s = -s if most else first
        yield s, reached
        gens.add(s)
        fresh = [s]
        for r, rs in col[s].items():  # b_r b_s
            if type(rs) is tuple:
                if r in reached:
                    fresh.append(rs[0])
                else:
                    offer(r, rs[0])
        while fresh:
            x = fresh.pop()
            if x in reached:
                continue
            reached.add(x)
            reach.pop(x, None)
            for h in holders.pop(x, ()):
                if ms := reach.get(h):
                    ms.discard(x)
            for t, xt in cells[x].items():
                if len(xt) == 1:
                    m = next(iter(xt))
                    if t in gens:
                        fresh.append(m)
                    elif t not in reached:
                        offer(t, m)


def _slice_index(cells, p):
    """(via, col, d, p) for `_slice`.  col[k] = {l: b_l b_k} holds each product with
    one term as its (m, c) pair and every other as its raw row {m: c}; via[l] lists
    the (i, j, c_ij^l, b_i b_j has one term) with c_ij^l != 0.  Over Q the constants
    are scaled by the lcm d of their denominators, so the sums run on ints; an
    associator scales by d^2.  full: every product is a nonzero one-term cell."""
    d = 1 if p else math.lcm(*(c.denominator for row in cells for cell in row.values()
                               for c in cell.values()))
    via, col = [[] for _ in cells], [{} for _ in cells]
    for i, row in enumerate(cells):
        for j, cell in row.items():
            if d > 1:
                cell = {l: c.numerator * (d // c.denominator) for l, c in cell.items()}
            if len(cell) == 1:
                col[j][i] = pair = next(iter(cell.items()))
                via[pair[0]].append((i, j, pair[1], True))
            else:
                col[j][i] = cell
                for l, c in cell.items():
                    via[l].append((i, j, c, False))
    full = all(len(cs) == len(cells) and all(type(x) is tuple for x in cs.values()) for cs in col)
    return via, col, d, p, full


def _slice(index, k):
    """Slice k, the nonzero (b_i b_j) b_k - b_i (b_j b_k) over all i, j as raw rows
    {(i, j, k): {m: c}}: c_ij^l (b_l b_k) summed over col[k] x via[l], minus
    (b_j b_k)_m (b_i b_m) over col[k] x col[m]; scaled entries are divided by d^2.

    Where both sides have at most one term, the first traversal settles (i, j) at
    once: the left side's pair against the right side's, looked up through b_j b_k
    and b_i b_m, and the second skips it.  Every other (i, j) sums its terms."""
    via, col, d, p, full = index
    colk = col[k]
    out, acc = {}, defaultdict(dict)  # settled associators; the sums of the others
    for l, lk in colk.items():
        one = type(lk) is tuple
        for i, j, c, single in via[l]:
            if one and single:
                jk = colk.get(j)
                im = col[jk[0]].get(i) if type(jk) is tuple else jk  # None, a pair or a row
                if type(im) is not dict:  # at most one term on each side: settle (i, j)
                    m, x = lk[0], c * lk[1]  # (b_i b_j) b_k = x b_m
                    n, y = (im[0], jk[1] * im[1]) if im else (m, 0)  # b_i (b_j b_k) = y b_n
                    if n != m:
                        out[i, j] = {m: x % p, n: -y % p} if p else {m: x, n: -y}
                    elif v := (x - y) % p if p else x - y:
                        out[i, j] = {m: v}
                    continue
            _add(acc[i, j], c, lk, p)
    for j, jk in () if full else colk.items():  # a full table settles every (i, j) above
        one = type(jk) is tuple
        for m, c in ((jk,) if one else jk.items()):
            for i, im in col[m].items():
                if one and type(im) is tuple:
                    ij = col[j].get(i)
                    if type(ij) is tuple and type(colk.get(ij[0])) is tuple:
                        continue  # settled by the first traversal
                _add(acc[i, j], -c, im, p)
    out.update((ij, a) for ij, a in acc.items() if a)
    return {(i, j, k): a if d == 1 else {m: _canonical(Fraction(v, d * d)) for m, v in a.items()}
            for (i, j), a in out.items()}


def _add(row, f, cell, p):
    """row += f * cell in place, cell an (m, c) pair or a raw row; entries that vanish
    are dropped."""
    for m, c in ((cell,) if type(cell) is tuple else cell.items()):
        v = row.get(m, 0) + f * c
        if p:
            v %= p
        if v:
            row[m] = v
        else:
            del row[m]


def _terms(coords, off=0):
    """The table cell of raw coordinates {k: value}: (off + k, value), k increasing;
    every zero product gets the one shared empty cell ()."""
    return sorted((off + k, x) for k, x in coords.items()) or ()


def _induced(field, rows, mul, coords, labels=None, unit=None):
    """The algebra on the raw rows whose product b_i b_j has the coordinates
    coords(mul(rows[i], rows[j])): a subalgebra when coords reads coordinates
    in the span of the rows, a quotient when it reads residues modulo an
    ideal.  A ValueError from coords, a product outside the span, passes on."""
    table = [[_terms(coords(mul(u, v))) for v in rows] for u in rows]
    return StructureAlgebra(field, len(rows), table, unit, labels)


@dataclass
class BlockDecomposition:
    """Pairwise-orthogonal two-sided ideals summing to the whole algebra.

    `non_split` lists indices of the blocks whose center is larger than the
    base field: simple blocks over a proper extension field.
    """

    blocks: list
    non_split: list

    def dims(self):
        return [b.dim for b in self.blocks]

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]


def _min_poly(alg, x, one):
    """The monic minimal polynomial [a_0, ..., a_d] of the raw row x, raw
    coefficients, and the raw powers one, x, ..., x^(d-1) it was read from.
    Each power x^i meets the pivot step tagged with a 1 at column dim + i,
    so the tags of a row are the combination of powers it stands for.  The
    first power whose untagged part reduces to zero leaves the polynomial in
    its tags, monic since no earlier row reaches column dim + i.  The search
    ends within dim steps: every power it keeps takes a pivot below dim.
    """
    n, p = alg.dim, alg.field.char
    piv, powers, power = {}, [], one
    while True:
        d = len(powers)
        row = _reduce({**power, n + d: 1}, piv, p)
        if min(row) >= n:
            return [row.get(n + i, 0) for i in range(d + 1)], powers
        _pivot(row, piv, p)
        powers.append(power)
        power = alg._mul(power, x)


def _piece(p, mp, g, powers, simple):
    """q(z), q = mp/g, from the powers z^i, i < deg mp: it generates the ideal of
    the factor g of the square-free minimal polynomial mp of z.  Unless simple,
    that ideal's idempotent (s q)(z), s q = 1 mod g (Chinese remainder theorem)."""
    q = _poly_divmod(p, mp, g)[0]
    if not simple:
        q = _poly_mul(p, _poly_xgcd(p, q, g)[0], q)
    return _combine({i: c for i, c in enumerate(q) if c}, powers, p)


def polynomial_roots(field, coeffs):
    """All roots of the polynomial in the base field, sorted: the linear factors
    of `_q_factors` over Q, `_prime_field_roots` (O(log p) steps a root) over F_p."""
    p = field.char
    f = _poly_trim([field(c) for c in coeffs])
    if len(f) <= 1:
        return []
    if p:
        return [field(r) for r in _prime_field_roots(p, f)]
    square_free = _poly_divmod(0, f, _poly_gcd(0, f, _poly_deriv(0, f)))[0]
    return sorted(field(-g[0]) for g in _q_factors(square_free) if len(g) == 2)


def cayley_dickson_chain(field, doublings):
    """Iterated Cayley-Dickson doubling of the base field; doublings=3 gives the octonions.

    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), where conj fixes e_0 and
    negates every other e_j.  With s_0 = 1 and s_j = -1, each product of the
    doubled basis is a signed copy of a product of the half:
    (e_i,0)(e_j,0) = (e_i e_j, 0), (e_i,0)(0,e_j) = (0, e_j e_i),
    (0,e_i)(e_j,0) = s_j (0, e_i e_j) and (0,e_i)(0,e_j) = -s_j (e_j e_i, 0).
    """
    p, table = field.char, [[[(0, field.one)]]]

    def shifted(cell, off, negate):
        return [(off + k, -c % p if p else -c) if negate else (off + k, c) for k, c in cell] or ()

    for _ in range(doublings):
        n = len(table)
        table = ([row + [shifted(table[j][i], n, False) for j in range(n)]
                  for i, row in enumerate(table)]
                 + [[shifted(table[i][j], n, j > 0) for j in range(n)]
                    + [shifted(table[j][i], 0, j == 0) for j in range(n)] for i in range(n)])
    n = len(table)
    return StructureAlgebra(field, n, table, unit=field.unit_vec(n, 0),
                            labels=[f"e{i}" for i in range(n)])


def grading_respected(alg, compose):
    """Check the graded product law under a degree composition rule: `compose(g, h)`
    is the product degree, or None when products of those degrees must vanish.
    None when the algebra carries no grading."""
    if alg.grading is None:
        return None
    for i, cells in enumerate(alg._cells):
        for j, prod in cells.items():
            target = compose(alg.grading[i], alg.grading[j])
            # a nonzero product must lie in degree `target`, which must exist
            if target is None or any(alg.grading[k] != target for k in prod):
                return False
    return True

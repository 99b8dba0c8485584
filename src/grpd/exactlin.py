"""Exact linear algebra over Q and over prime fields F_p.

Everything here is exact: rationals are arbitrary-precision, residues are
reduced mod p.  Over Q an element is a Python int when it is an integer and
a `Fraction` in lowest terms with denominator > 1 otherwise, so integer
tables are multiplied with int arithmetic until a real division happens;
the numeric tower mixes the two exactly, and `Field.inv` is the one
division.  Over F_p an element is a plain int in [0, p); the public
methods reduce incoming entries mod p before they test them for zero, so
-1 and p - 1 are the same input.  Vectors of the public methods, and the
rows a `Matrix` is made from or read as, are dense lists of field elements.

Inside, both fields share one form, the raw row: a dict {column: nonzero
value} holding rationals over Q and ints in [0, p) over F_p.  `_sparse`,
`_raw_rows` and `_dense` convert at the boundary; over Q `_dense` writes
integral entries back as ints.  All elimination in grpd is one pivot step
on raw rows, `_pivot`: `_gauss_jordan` runs it over a list of rows, and
`algebra._min_poly` feeds it the powers of an element one at a time.
Reduction against a subspace, products and expansion share its steps.
Algebra elements are raw rows too: `_product` multiplies two of them over
a raw structure table, and dense vectors meet it only at the public
boundary (`StructureAlgebra.multiply`).
Linear systems enter it as sparse rows {column: field element} through
`kernel_rows` and `solve_rows`, or as raw rows through `_kernel` and
`_solve`; only `rref` pads its echelon form with zero rows.  Matrices and
subspaces are immutable: a matrix is its raw columns alone, and grpd makes
its own from raw columns (`Matrix._of_columns`); a subspace is its raw
RREF rows alone, so equal subspaces have equal rows.
A `SubspaceMap`, a linear map from a subspace into the ambient space,
keeps the raw ambient images of the subspace's RREF basis, so applying a
map and taking images stay on raw rows.
"""

import re
import sys
from fractions import Fraction
from functools import cached_property

from .errors import DimensionError

_MAX_PRIME = 2**31
_ASCII_INT = re.compile(r"-?[0-9]+")
# the exponent of a string as Fraction reads it: E or e, a sign, digits with underscores
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _canonical(q):
    """A rational as an int when it is integral, else the Fraction itself."""
    return q.numerator if q.denominator == 1 else q


def _q_inv(a):
    """1/a for a nonzero rational, in canonical form."""
    return _canonical(Fraction(1, a))


class Field:
    """Coefficient field: characteristic 0 means Q, otherwise a prime field F_p.

    Elements of Q are ints, or Fractions with denominator > 1 (`__call__`
    returns this canonical form); elements of F_p are ints in [0, p).  The
    field is the only code that knows p: `__call__` reduces mod p, `inv`
    is `pow(x, -1, p)` and `fmt` gives the reduced int.
    """

    def __init__(self, characteristic=0):
        if characteristic != 0:
            if characteristic >= _MAX_PRIME or not _is_prime(characteristic):
                raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {characteristic}")
        self.char = characteristic
        self.zero = self(0)
        self.one = self(1)

    def __call__(self, x):
        """Coerce an int, string or Fraction (over Q) into a field element."""
        if isinstance(x, bool):
            raise TypeError(f"cannot coerce the boolean {x!r} into {self}")
        if self.char == 0:
            if isinstance(x, str):
                # plain ASCII integers skip the Fraction parser; the rest go through it
                if _ASCII_INT.fullmatch(x):
                    x = int(x)
                elif (m := _EXPONENT.search(x)) and 0 < sys.get_int_max_str_digits() < abs(int(m[1])):
                    raise ValueError(f"the exponent of {x[:20]!r} is past int()'s limit on digits")
                else:
                    x = Fraction(x)
            elif not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot coerce {x!r} into Q")
            return _canonical(x)
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, int):
            return x % self.char
        raise TypeError(f"cannot coerce {x!r} into F_{self.char}")

    def inv(self, x):
        """Multiplicative inverse of a nonzero element."""
        p = self.char
        if not p:
            return _q_inv(x)
        if not x % p:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, -1, p)

    def fmt(self, x):
        """JSON form of a field element: string over Q, int over F_p."""
        if self.char == 0:
            return str(x)
        return x % self.char

    def zero_vec(self, n):
        return [self.zero] * n

    def unit_vec(self, n, i):
        v = [self.zero] * n
        v[i] = self.one
        return v

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F_{self.char}"


def _sparse(field, vec):
    """Raw row of a dense vector: {column: nonzero value}, entries reduced mod p over F_p."""
    if p := field.char:
        return {j: r for j, x in enumerate(vec) if (r := x % p)}
    return {j: x for j, x in enumerate(vec) if x}


def _dense(field, row, n):
    """Dense vector of length n from a raw row, rationals in canonical form
    (an int is its own canonical form)."""
    v = [field.zero] * n
    for j, x in row.items():
        v[j] = _canonical(x)
    return v


def _subtract(row, f, other, p):
    """row -= f * other in place, mod p when p is nonzero; entries that vanish are dropped."""
    get = row.get
    for j, b in other.items():
        v = get(j, 0) - f * b
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def _reduce(row, piv, p):
    """row, reduced in place against the RREF rows {pivot column: row} of piv."""
    # a pivot row vanishes at the other pivots, so each step clears one; an
    # RREF row is 1 at its pivot, so a one-entry row is {c: 1} and its step
    # deletes column c
    for c in [c for c in row if c in piv]:
        other = piv[c]
        if len(other) == 1:
            del row[c]
        else:
            _subtract(row, row[c], other, p)
    return row


def _combine(coeffs, rows, p):
    """Raw row of the sum of c * rows[i] over the raw row {i: c} of coefficients."""
    out = {}
    for i, c in coeffs.items():
        _subtract(out, -c, rows[i], p)
    return out


def _product(x, y, cells, p):
    """Raw row of the product of raw rows x and y, where cells[i] is the raw
    table row {j: raw row of b_i b_j} over the nonzero products b_i b_j."""
    out = {}
    for i, a in x.items():
        row = cells[i]
        for j, b in y.items():
            cell = row.get(j)
            if cell:
                _subtract(out, -a * b, cell, p)
    return out


def _pivot(row, piv, p):
    """The Gauss-Jordan step: a nonzero raw row, already reduced against the
    RREF rows {pivot column: row} of piv, is scaled to 1 at its first
    column, a new pivot, which is cleared from the other rows; then it joins
    piv.  The row is kept, not copied."""
    q = min(row)
    a = row[q]
    if a != 1:
        inv = pow(a, -1, p) if p else _q_inv(a)
        for j, v in row.items():
            row[j] = v * inv % p if p else v * inv
    for other in piv.values():
        f = other.get(q)
        if f:
            _subtract(other, f, row, p)
    piv[q] = row


def _gauss_jordan(rows, p):
    """Reduced row-echelon form of raw rows, which it consumes, as
    {pivot column: RREF row} with the pivots increasing: each row that does
    not reduce to zero takes the pivot step."""
    piv = {}
    for row in rows:
        if _reduce(row, piv, p):
            _pivot(row, piv, p)
    return {c: piv[c] for c in sorted(piv)}


def _transpose(rows, ncols):
    """The raw columns of the matrix with the given raw rows (or raw rows from raw columns)."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


class Matrix:
    """Matrix over an exact field, held as its raw columns; immutable.  The constructor is
    the one place dense entries are normalized: each is coerced by the field, so it is
    reduced mod p over F_p, canonical over Q, and read from a string as `Field` reads it."""

    def __init__(self, field, rows, ncols=None):
        ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged matrix rows")
        raw = [_sparse(field, [field(x) for x in r]) for r in rows]
        self.field, self.nrows, self.ncols, self._cols = field, len(rows), ncols, _transpose(raw, ncols)

    @classmethod
    def _of_columns(cls, field, nrows, cols):
        """The nrows x len(cols) matrix whose j-th column is the raw row cols[j]; kept, not copied."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m._cols = field, nrows, len(cols), cols
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._of_columns(field, nrows, [{} for _ in range(ncols)])

    @classmethod
    def identity(cls, field, n):
        return cls._of_columns(field, n, [{j: 1} for j in range(n)])

    @cached_property
    def rows(self):
        """The dense rows, made on first read."""
        return [_dense(self.field, r, self.ncols) for r in _transpose(self._cols, self.nrows)]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        return _dense(self.field, self._cols[j], self.nrows)

    def apply(self, vec):
        """Matrix times column vector: the columns combined by the entries of vec."""
        if len(vec) != self.ncols:
            raise DimensionError(f"apply: {self.ncols} columns vs vector of length {len(vec)}")
        out = _combine(_sparse(self.field, vec), self._cols, self.field.char)
        return _dense(self.field, out, self.nrows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise DimensionError("matrix product shape mismatch")
        p = self.field.char
        cols = [_combine(y, self._cols, p) for y in other._cols]
        return Matrix._of_columns(self.field, self.nrows, cols)

    def add(self, other):
        if self.shape != other.shape:
            raise DimensionError("matrix sum shape mismatch")
        p = self.field.char
        cols = [_combine({0: 1, 1: 1}, ab, p) for ab in zip(self._cols, other._cols)]
        return Matrix._of_columns(self.field, self.nrows, cols)

    def scale(self, c):
        by, p = _sparse(self.field, [c]), self.field.char  # {0: c}, or {} when c is zero
        return Matrix._of_columns(self.field, self.nrows, [_combine(by, [y], p) for y in self._cols])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.shape == other.shape and self._cols == other._cols

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"

    def rref_pivots(self):
        """Reduced row-echelon form (nonzero rows first) and the pivot column list."""
        piv = _gauss_jordan(_transpose(self._cols, self.nrows), self.field.char)
        red = Matrix._of_columns(self.field, self.nrows, _transpose(piv.values(), self.ncols))
        return red, list(piv)


def rref(m):
    """Reduced row-echelon form and rank of a matrix."""
    red, pivots = m.rref_pivots()
    return red, len(pivots)


def _raw_rows(field, rows, ncols):
    """Raw rows of sparse rows {column: field element}; entries that are zero
    (mod p over F_p) are dropped."""
    p = field.char
    raw = [{j: r for j, x in row.items() if (r := x % p if p else x)} for row in rows]
    if any(row and not (0 <= min(row) and max(row) < ncols) for row in raw):
        raise DimensionError(f"a row has a column outside 0..{ncols - 1}")
    return raw


def solve(m, rhs):
    """One exact solution of m x = rhs, or None if the system is inconsistent."""
    return solve_rows(m.field, _transpose(m._cols, m.nrows), rhs, m.ncols)


def solve_rows(field, rows, rhs, ncols):
    """One exact solution x of sum_j row[j] x_j = rhs[i] for the i-th sparse row
    {column: field element}, with every free unknown 0; None if inconsistent."""
    rows = _raw_rows(field, rows, ncols)
    if len(rhs) != len(rows):
        raise DimensionError(f"solve: {len(rows)} rows vs rhs of length {len(rhs)}")
    p = field.char
    for row, b in zip(rows, rhs):
        if p:
            b %= p
        if b:
            row[ncols] = b
    return _solve(field, rows, ncols)


def _solve(field, rows, ncols):
    """solve_rows on raw rows, which it consumes, each with its right-hand side at column ncols."""
    piv = _gauss_jordan(rows, field.char)
    if ncols in piv:
        return None
    return _dense(field, {c: row[ncols] for c, row in piv.items() if ncols in row}, ncols)


def kernel(m):
    """Null space of a matrix, as a canonical Subspace of dimension cols - rank."""
    return kernel_rows(m.field, _transpose(m._cols, m.nrows), m.ncols)


def kernel_rows(field, rows, ncols):
    """Null space of the sparse rows {column: field element} over ncols unknowns,
    as a canonical Subspace."""
    return _kernel(field, _raw_rows(field, rows, ncols), ncols)


def _kernel(field, rows, ncols):
    """kernel_rows on raw rows, which it consumes: one vector {f: 1, c: -R[c][f]}
    per free column f of the RREF rows R, brought to RREF by one more elimination."""
    p = field.char
    piv = _gauss_jordan(rows, p)
    null = {f: {f: 1} for f in range(ncols) if f not in piv}
    for c, row in piv.items():
        for f, x in row.items():
            if f != c:
                null[f][c] = -x % p if p else -x
    return Subspace(field, ncols, _gauss_jordan(null.values(), p))


class Subspace:
    """Subspace of a coordinate space, held as its RREF rows: raw rows keyed by
    their pivot columns.  The RREF of a span is canonical, so two subspaces
    are equal exactly when their rows are; `basis` is their dense form.

    A coordinate subspace is one whose RREF rows are all unit vectors {c: 1},
    the span of the unit vectors at its pivots; the constructor records
    whether a subspace is one.  Such a space holds exactly the raw rows whose
    columns are all pivots, and a row's RREF coordinates are its own entries
    at them, so membership, coordinates and containment in it (`_holds`,
    `_raw_coords`, `contains`, `<=`) are read off the pivot set, and so are
    sums (`span`) and meets (`intersect`) of coordinate subspaces, with no
    elimination.
    """

    def __init__(self, field, ambient_dim, rows):
        """The span of the RREF rows {pivot column: raw row}, pivots increasing; kept, not copied."""
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows
        self.pivots = list(rows)
        self._at = {c: i for i, c in enumerate(self.pivots)}
        self._coordinate = all(len(r) == 1 for r in rows.values())

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionError("vector length differs from ambient dimension")
        return cls(field, ambient_dim, _gauss_jordan([_sparse(field, v) for v in vectors], field.char))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim):
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field, ambient_dim, indices):
        """Span of the unit vectors at strictly increasing indices; already RREF."""
        pivots = list(indices)
        increasing = all(a < b for a, b in zip(pivots, pivots[1:]))
        if not increasing or any(not 0 <= i < ambient_dim for i in pivots[:1] + pivots[-1:]):
            raise DimensionError("coordinate indices must increase strictly within the ambient")
        return cls(field, ambient_dim, {i: {i: 1} for i in pivots})

    @classmethod
    def span(cls, field, ambient_dim, spaces):
        """Sum of several subspaces: the coordinate subspace at the union of their
        pivots when all are coordinate subspaces, else one elimination over all their rows."""
        if any(s.ambient_dim != ambient_dim for s in spaces):
            raise DimensionError(f"a subspace lives outside the ambient of dimension {ambient_dim}")
        if all(s._coordinate for s in spaces):
            return cls.coordinate(field, ambient_dim, sorted({c for s in spaces for c in s._rows}))
        rows = [dict(r) for s in spaces for r in s._rows.values()]
        return cls(field, ambient_dim, _gauss_jordan(rows, field.char))

    @property
    def basis(self):
        """The RREF basis as dense vectors, made on each read."""
        return [_dense(self.field, r, self.ambient_dim) for r in self._rows.values()]

    @property
    def dim(self):
        return len(self._rows)

    def _row(self, v):
        """The raw row of an ambient vector; refuses a vector of another length."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        return _sparse(self.field, v)

    def reduce(self, v):
        """Remainder of v after subtracting its component in this subspace."""
        return _dense(self.field, _reduce(self._row(v), self._rows, self.field.char), self.ambient_dim)

    def contains(self, v):
        return self._holds(self._row(v))

    def _holds(self, row):
        """Whether a raw row lies in the span: for a coordinate subspace, whether
        its columns are all pivots; otherwise whether a copy reduces to zero."""
        if self._coordinate:
            return row.keys() <= self._at.keys()
        return not _reduce(dict(row), self._rows, self.field.char)

    def _raw_coords(self, row):
        """RREF coordinates {basis index: value} of a raw row, its entries at the
        pivots; raises if it is outside."""
        if not self._holds(row):
            raise ValueError("vector is not in the subspace")
        at = self._at
        return {at[c]: x for c, x in row.items() if c in at}

    def coords(self, v):
        """Coordinates of v in the RREF basis; raises if v is outside the span."""
        return _dense(self.field, self._raw_coords(self._row(v)), self.dim)

    def _expand_space(self, sub):
        """The subspace of the vectors whose RREF coordinates lie in sub, a
        subspace of the coordinate space of dimension self.dim."""
        rows, p = list(self._rows.values()), self.field.char
        return Subspace(self.field, self.ambient_dim,
                        _gauss_jordan([_combine(y, rows, p) for y in sub._rows.values()], p))

    def sum(self, other):
        return Subspace.span(self.field, self.ambient_dim, [self, other])

    def intersect(self, other):
        """Intersection of two spans.  When both are coordinate subspaces, it is
        spanned by the unit vectors at their common pivots; otherwise it is the
        smaller one when they are nested, else found by one Zassenhaus
        elimination.  RREF bases are canonical, so every way gives the same
        basis."""
        self._same_ambient(other)
        mine, theirs = self._rows, other._rows
        if self._coordinate and other._coordinate:
            return Subspace(self.field, self.ambient_dim, {c: r for c, r in mine.items() if c in theirs})
        if self <= other:
            return self
        if other <= self:
            return other
        n = self.ambient_dim
        stacked = [{**r, **{n + c: x for c, x in r.items()}} for r in self._rows.values()]
        stacked += [dict(r) for r in other._rows.values()]
        piv = _gauss_jordan(stacked, self.field.char)
        # rows with their pivot in the right half are zero on the left, and
        # their right halves are already the RREF basis of the intersection
        meet = {c - n: {j - n: x for j, x in r.items()} for c, r in piv.items() if c >= n}
        return Subspace(self.field, n, meet)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def _same_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}")

    def __le__(self, other):
        self._same_ambient(other)
        return all(map(other._holds, self._rows.values()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"


class SubspaceMap:
    """Linear map from a subspace into a coordinate space of dimension ambient_dim.

    It is held as the raw images of the domain's RREF basis, so a vector of
    the domain maps to the images weighted by its entries at the domain's
    pivot columns.  Immutable, like matrices and subspaces.
    """

    def __init__(self, domain, images, ambient_dim):
        self.domain = domain
        self._images = images
        self.ambient_dim = ambient_dim

    @classmethod
    def from_matrix(cls, domain, codomain, m):
        """The map sending the vector with RREF coordinates c in domain to the
        vector with RREF coordinates m c in codomain; m is codomain.dim x domain.dim."""
        rows = list(codomain._rows.values())
        images = [_combine(col, rows, domain.field.char) for col in m._cols]
        return cls(domain, images, codomain.ambient_dim)

    def _image_of(self, row):
        """Raw image of a raw row; raises if the row is outside the domain."""
        return _combine(self.domain._raw_coords(row), self._images, self.domain.field.char)

    def __call__(self, v):
        """Image of an ambient vector lying in the domain."""
        dom = self.domain
        return _dense(dom.field, self._image_of(dom._row(v)), self.ambient_dim)

    def image(self, space=None):
        """The image of a subspace of the domain, the whole domain by default,
        by one elimination of the images of its rows."""
        field = self.domain.field
        rows = self._images if space is None else map(self._image_of, space._rows.values())
        return Subspace(field, self.ambient_dim, _gauss_jordan([dict(y) for y in rows], field.char))

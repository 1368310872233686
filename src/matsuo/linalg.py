"""Dense exact linear algebra: matrices, reduced echelon forms, kernels,
and subspaces stored canonically as reduced row-echelon bases.

Everything is deterministic and exact; there is no pivoting heuristic beyond
"first nonzero entry", which is all an exact field needs.  The elimination runs
on integer rows, over Q primitive ones made Fractions once at the end.  Matrix
products (``Matrix.__mul__`` and the fused ``_lifted_jordan``) run on sparse
integer rows: each operand is lifted once by ``_int_lift`` (over Q times the
lcm of its denominators, over F_p its residues), only nonzero entry products
are summed in plain ints, and each output entry is converted once.
"""

from fractions import Fraction
from math import gcd, lcm


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        """A matrix of the given rows; ncols, read off the first row by
        default, gives the width of a matrix with no rows."""
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        return self._entrywise(self.field.add, other)

    def __sub__(self, other):
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other):
        return Matrix(self.field, [[op(a, b) for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in r] for r in self.rows])

    def __mul__(self, other):
        """The product on sparse integer rows: each operand lifted once, the
        nonzero entry products summed in ints, each entry converted once."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        a, da = _int_lift(self.rows)
        b, db = _int_lift(other.rows)
        return _from_int_rows(self.field, [_int_apply(b, r) for r in a],
                              other.ncols, da * db)

    def transpose(self):
        rows = self.rows
        return Matrix(self.field, [[r[j] for r in rows] for j in range(self.ncols)],
                      self.nrows)

    def is_zero(self):
        return not any(a for r in self.rows for a in r)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        f = self.field
        aug = [list(r) + col for r, col in zip(self.rows, Matrix.identity(f, n).rows)]
        red, pivots = _rref_rows(f, aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(f, [r[n:] for r in red])

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field.name, self.nrows, self.ncols)


def jordan_product(m1, m2, divisor=2):
    """(m1 m2 + m2 m1) / divisor for two square matrices of one size: each
    operand lifted once by ``_int_lift``, then ``_lifted_jordan``.  The
    default divisor gives the Jordan product, divisor 1 twice it."""
    n = m1.nrows
    if not (m1.ncols == m2.nrows == m2.ncols == n):
        raise ValueError("dimension mismatch in Jordan product")
    return _lifted_jordan(m1.field, _int_lift(m1.rows), _int_lift(m2.rows), divisor)


def _lifted_jordan(field, lifted1, lifted2, divisor=2):
    """(m1 m2 + m2 m1) / divisor for two square matrices of one size given
    as their ``_int_lift`` pairs (sparse int rows a, scale D1) and (b, D2),
    in one fused pass: row i summed as a_i B + b_i A in ints and divided by
    divisor * D1 * D2 once.  A caller that multiplies one matrix many times
    lifts it once."""
    (a, da), (b, db) = lifted1, lifted2
    return _from_int_rows(field, [_int_apply(a, rb, out=_int_apply(b, ra))
                                  for ra, rb in zip(a, b)],
                          len(a), divisor * da * db)


def _int_lift(vectors):
    """Nonzero multiples of the coordinate lists in vectors as sparse int
    vectors, all by one scale L: over Q the lcm of their denominators, over
    F_p 1, the residues themselves.  Returns the list of vectors and L."""
    sparse = [{k: c for k, c in enumerate(v) if c} for v in vectors]
    scale = lcm(*(c.denominator for w in sparse for c in w.values()))
    if scale == 1:
        return [{k: c.numerator for k, c in w.items()} for w in sparse], 1
    return [{k: c.numerator * (scale // c.denominator) for k, c in w.items()}
            for w in sparse], scale


def _int_apply(cols, v, factor=1, out=None):
    """out (a new dict by default) plus factor times the matrix with sparse
    int columns cols applied to the sparse int vector v, not reduced.  With
    the rows of B as cols it is the row v times B."""
    if out is None:
        out = {}
    get = out.get
    for t, x in v.items():
        x *= factor
        for k, y in cols[t].items():
            out[k] = get(k, 0) + x * y
    return out


def _from_int_rows(field, rows, ncols, d):
    """The matrix of sparse int rows divided by the positive int d, its rows
    from ``_from_int_vectors``, taken without a copy or a width check."""
    out = Matrix.__new__(Matrix)
    out.field, out.nrows, out.ncols = field, len(rows), ncols
    out.rows = _from_int_vectors(field, rows, ncols, d)
    return out


def _from_int_vectors(field, vectors, n, d):
    """The coordinate lists of length n of sparse int vectors divided by the
    positive int d, one conversion per entry: Fraction(s, d) over Q, s / d
    mod p over F_p."""
    p = field.characteristic
    inv = field.inv(d) if p else None
    out = []
    for acc in vectors:
        row = [field.zero] * n
        for k, s in acc.items():
            s = s * inv % p if p else Fraction(s, d)
            if s:
                row[k] = s
        out.append(row)
    return out


def _rref_rows(field, rows):
    """In-place reduced row echelon form on a list of row lists; returns
    (rows, pivots), where pivots[r] is the column of row r's leading one and
    the rows from len(pivots) on are zero.

    One loop on plain ints serves both fields: over Q on primitive integer
    rows (lifted by the lcm of their denominators, divided by the gcd of their
    entries), over F_p on rows reduced mod p.  A row is cleared at the pivot
    row as a*row - b*pivot_row, a, b = lead/g, factor/g, g = gcd(lead, factor).
    At the end each pivot row is divided by its lead once, over Q in the one
    conversion to Fraction per entry."""
    p = field.characteristic

    def tidy(row):
        if p:
            return [x % p for x in row]
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    if not p:
        for r, row in enumerate(rows):
            scale = lcm(*(x.denominator for x in row))
            rows[r] = tidy([x.numerator * (scale // x.denominator) for x in row])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        piv_r = len(pivots)
        src = next((r for r in range(piv_r, nrows) if rows[r][col]), None)
        if src is None:
            continue
        rows[piv_r], rows[src] = rows[src], rows[piv_r]
        pr = rows[piv_r]
        lead = pr[col]
        for r, row in enumerate(rows):
            factor = row[col]
            if factor and r != piv_r:
                g = gcd(lead, factor)
                a, b = lead // g, factor // g
                rows[r] = tidy([a * x - b * y for x, y in zip(row, pr)])
        pivots.append(col)
        if len(pivots) == nrows:
            break
    for r, col in enumerate(pivots):
        lead = rows[r][col]
        if p:
            inv = pow(lead, p - 2, p)
            rows[r] = [x * inv % p for x in rows[r]]
        else:
            rows[r] = [Fraction(x, lead) if x else field.zero for x in rows[r]]
    rows[len(pivots):] = [[field.zero] * ncols for _ in range(nrows - len(pivots))]
    return rows, pivots


def rref(m):
    """Reduced row echelon form of a matrix; returns (rref_matrix, rank)."""
    rows, pivots = _rref_rows(m.field, [list(r) for r in m.rows])
    return Matrix(m.field, rows), len(pivots)


def kernel(m):
    """Right kernel {v : m v = 0} as a Subspace of dimension ncols - rank."""
    f = m.field
    red, pivots = _rref_rows(f, [list(r) for r in m.rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [f.zero] * m.ncols
        v[free] = f.one
        for row, pc in zip(red, pivots):
            v[pc] = f.neg(row[free])
        basis.append(v)
    return Subspace.from_vectors(f, m.ncols, basis)


def span_coordinates(field, vectors):
    """One elimination over a list of equal-length vectors.  Returns (basis,
    coords): basis lists the indices of the first maximal independent subset
    (each vector kept when it is outside the span of those before it), and
    coords[k] holds the coefficients of vectors[k] on the vectors at basis.

    The vectors are the columns of the eliminated matrix: its pivot columns
    are the basis, and column k of the reduced form writes vector k in it."""
    red, pivots = _rref_rows(field, [list(c) for c in zip(*vectors)])
    return pivots, [[row[k] for row in red[:len(pivots)]]
                    for k in range(len(vectors))]


class Subspace:
    """A subspace of F^n held as a reduced row-echelon basis.

    The representation is unique per subspace, so equality is structural.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rref_rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rref_rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector of wrong length for ambient dimension")
        if not vectors:
            return cls.zero(field, ambient)
        rows, pivots = _rref_rows(field, vectors)
        return cls(field, ambient, rows[:len(pivots)], pivots)

    @classmethod
    def span_of_int_vectors(cls, field, ambient, vectors):
        """The span of sparse int vectors {k: int}, read over F_p mod p and
        over Q as they are: ``_rref_rows`` lifts rational rows to ints, so
        int entries need no conversion to Fraction."""
        p = field.characteristic
        return cls.from_vectors(field, ambient, [
            [w.get(k, 0) % p if p else w.get(k, 0) for k in range(ambient)]
            for w in vectors])

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [], [])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient).rows,
                   list(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Reduce a vector modulo the subspace (eliminate its pivot coordinates)."""
        sub, mul = self.field.sub, self.field.mul
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            factor = v[pc]
            if factor:
                for i in range(pc, self.ambient):
                    v[i] = sub(v[i], mul(factor, row[i]))
        return v

    def contains(self, v):
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v against the echelon basis, or None if v is outside.
        Each row has a one at its pivot and the others zero there, so the
        coefficients are v's entries at the pivots."""
        if not self.contains(v):
            return None
        return [v[pc] for pc in self.pivots]

    def add(self, other):
        self._check_compatible(other)
        return Subspace.from_vectors(
            self.field, self.ambient, self.rows + other.rows
        )

    def intersect(self, other):
        """Exact intersection: the kernel of [self; -other] stacked gives the
        combinations of self's rows in other (none if either basis is empty)."""
        self._check_compatible(other)
        f = self.field
        stacked = Matrix(f, self.rows + [[f.neg(a) for a in row] for row in other.rows])
        null = kernel(stacked.transpose())
        if null.is_zero():
            return Subspace.zero(f, self.ambient)
        coeffs = Matrix(f, [c[:self.dim] for c in null.rows])
        return Subspace.from_vectors(f, self.ambient, (coeffs * Matrix(f, self.rows)).rows)

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.rows)))

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v

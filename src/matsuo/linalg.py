"""Exact linear algebra: matrices, reduced echelon forms, kernels, and
subspaces stored canonically as reduced row-echelon bases.

Everything is deterministic and exact; there is no pivoting heuristic beyond
"first nonzero entry", which is all an exact field needs.  There is one
elimination, ``_int_rref``, on sparse integer rows {col: int}: over F_p on
residues with each lead made 1, over Q fraction-free (as in Bareiss, Math.
Comp. 22, 1968), a row cleared at a pivot row as a*row - b*pivot_row for
a, b = lead/g, x/g, g = gcd(lead, x), and kept primitive by dividing out the
gcd of its entries rather than by Bareiss's exact division.  ``_rref_rows``
(and so ``rref``, ``inverse`` and ``Subspace``), ``kernel`` and
``span_coordinates`` lift their input rows to ints once and convert each
entry to a field scalar once, at the Subspace or Matrix they return.

Matrix products (``Matrix.__mul__`` and the fused ``_lifted_jordan``) run on
sparse integer rows as well: each operand is lifted once by ``_int_lift``
(over Q times the lcm of its denominators, over F_p its residues), only
nonzero entry products are summed in plain ints, and each output entry is
converted once.
"""

from bisect import insort
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


def _lifted_jordan(field, lifted1, lifted2, divisor=2):
    """(m1 m2 + m2 m1) / divisor for two square matrices of one size given
    as their ``_int_lift`` pairs (sparse int rows a, scale D1) and (b, D2),
    in one fused pass: row i summed as a_i B + b_i A in ints and divided by
    divisor * D1 * D2 once.  A caller that multiplies one matrix many times
    lifts it once."""
    (a, da), (b, db) = lifted1, lifted2
    return _from_int_rows(field, _int_jordan(a, b), len(a), divisor * da * db)


def _int_jordan(a, b):
    """The sparse int rows of AB + BA for the sparse int rows a of A and b
    of B, row i summed as a_i B + b_i A, not reduced."""
    return [_int_apply(a, rb, out=_int_apply(b, ra)) for ra, rb in zip(a, b)]


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
    """The matrix of sparse int rows divided by the nonzero int d, its rows
    from ``_from_int_vectors``, taken without a copy or a width check."""
    out = Matrix.__new__(Matrix)
    out.field, out.nrows, out.ncols = field, len(rows), ncols
    out.rows = _from_int_vectors(field, rows, ncols, d)
    return out


def _from_int_vectors(field, vectors, n, d):
    """The coordinate lists of length n of sparse int vectors divided by the
    nonzero int d, one conversion per entry: Fraction(s, d) over Q, s / d
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

    The rows are lifted to sparse int rows once (``_int_lift``: over Q by
    the lcm of their denominators, over F_p their residues), ``_int_rref``
    eliminates, and each entry of a reduced row is converted once, divided by
    the row's lead (``_from_int_vectors``)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    red, pivots = _int_rref(_int_lift(rows)[0], field.characteristic)
    rows[:] = [_from_int_vectors(field, [row], ncols, row[c])[0]
               for row, c in zip(red, pivots)]
    rows += [[field.zero] * ncols for _ in range(nrows - len(red))]
    return rows, pivots


def _int_rref(rows, p):
    """The reduced echelon form of sparse int rows {col: int}, over F_p
    (residues) when p > 0 and over Q when p is 0; returns (reduced, pivots)
    with pivots ascending and reduced[r] the row whose lead is at pivots[r],
    zero at every other pivot column.  Over F_p each lead is 1; over Q each
    row is primitive, the RREF row being it divided by its lead.

    Each row is reduced against the pivot rows found so far, at their columns
    in ascending order (a pivot row holds only columns from its own on, so a
    cleared column stays clear), and a row left nonzero becomes a pivot row
    at its first column.  Back-substitution then clears each pivot column in
    the rows above it, from the last pivot column back.  The dicts of rows
    are reused."""
    found = {}
    cols = []
    for row in rows:
        if not p:
            _divide_content(row)
        for c in cols:
            if c in row:
                _clear(row, found[c], c, p)
                if not row:
                    break
        if row:
            c = min(row)
            if p and row[c] != 1:
                inv = pow(row[c], p - 2, p)
                for k in row:
                    row[k] = row[k] * inv % p
            found[c] = row
            insort(cols, c)
    for i in range(len(cols) - 1, 0, -1):
        c = cols[i]
        piv = found[c]
        for above in cols[:i]:
            row = found[above]
            if c in row:
                _clear(row, piv, c, p)
    return [found[c] for c in cols], cols


def _clear(row, piv, col, p):
    """Clear column col of the sparse int row in place by the pivot row piv,
    whose lead is at col: a row - b piv with a, b = lead / g, x / g for
    x = row[col] and g = gcd(lead, x), over F_p reduced mod p (the lead is 1,
    so a is 1), over Q made primitive again."""
    x, lead = row[col], piv[col]
    g = gcd(lead, x)
    a, b = lead // g, x // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, y in piv.items():
        v = row.get(k, 0) - b * y
        if p:
            v %= p
        if v:
            row[k] = v
        else:
            del row[k]
    if not p:
        _divide_content(row)


def _divide_content(row):
    """Divide the sparse int row in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def rref(m):
    """Reduced row echelon form of a matrix; returns (rref_matrix, rank)."""
    rows, pivots = _rref_rows(m.field, [list(r) for r in m.rows])
    return Matrix(m.field, rows), len(pivots)


def kernel(m):
    """Right kernel {v : m v = 0} as a Subspace of dimension ncols - rank.

    The rows are lifted to ints once (``_int_lift``) and eliminated by
    ``_int_rref``; each free column j gives a basis vector in ints, d at j
    and -x d / lead at the pivot column of each reduced row with x at j
    (over Q d is the lcm of those leads, over F_p the leads are 1).  The
    basis is then reduced once more, by ``Subspace.from_vectors``, and
    converted there."""
    f = m.field
    p = f.characteristic
    n = m.ncols
    red, pivots = _int_rref(_int_lift(m.rows)[0], p)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        hits = [(row[free], row[pc], pc) for row, pc in zip(red, pivots) if free in row]
        d = 1 if p else lcm(*(lead for _, lead, _ in hits))
        v = [0] * n
        v[free] = d
        for x, lead, pc in hits:
            v[pc] = -x % p if p else -x * d // lead
        basis.append(v)
    return Subspace.from_vectors(f, n, basis)


def span_coordinates(field, vectors):
    """One elimination over a list of equal-length vectors.  Returns (basis,
    coords): basis lists the indices of the first maximal independent subset
    (each vector kept when it is outside the span of those before it), and
    coords[k] holds the coefficients of vectors[k] on the vectors at basis.
    It is ``_int_span_coordinates`` on the vectors lifted to ints."""
    lifted, scale = _int_lift(vectors)
    return _int_span_coordinates(field, [(w, scale) for w in lifted])


def _int_span_coordinates(field, vectors):
    """``span_coordinates`` of vectors given as pairs (w, s), the sparse int
    vector w standing for w / s (s a positive int, over F_p one prime to p;
    w is reduced mod p here).

    The vectors are the columns of the eliminated matrix: its pivot columns
    are the basis, and column k of the reduced form writes w_k in the w at
    the basis; on the vectors themselves the coefficient x / lead of row r
    becomes x s_b / (lead s_k), s_b the scale of the basis vector of row r,
    converted once."""
    p = field.characteristic
    by_coord = {}
    for k, (w, _) in enumerate(vectors):
        for i, x in w.items():
            if p:
                x %= p
            if x:
                by_coord.setdefault(i, {})[k] = x
    red, pivots = _int_rref(list(by_coord.values()), p)
    zero = field.zero
    coords = []
    for k, (_, s_k) in enumerate(vectors):
        c = [zero] * len(pivots)
        for r, (row, b) in enumerate(zip(red, pivots)):
            x = row.get(k)
            if x:
                num, den = x * vectors[b][1], row[b] * s_k
                c[r] = num * pow(den, p - 2, p) % p if p else Fraction(num, den)
        coords.append(c)
    return pivots, coords


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

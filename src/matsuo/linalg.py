"""Dense exact linear algebra: matrices, reduced echelon forms, kernels,
and subspaces stored canonically as reduced row-echelon bases.

Everything is deterministic and exact; there is no pivoting heuristic beyond
"first nonzero entry", which is all an exact field needs.
"""


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_int_rows(cls, field, rows):
        f = field.from_int
        return cls(field, [[f(x) for x in r] for r in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        add = self.field.add
        return Matrix(
            self.field,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        sub = self.field.sub
        return Matrix(
            self.field,
            [
                [sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, [[neg(a) for a in r] for r in self.rows])

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in r] for r in self.rows])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            for c in bt:
                acc = zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                row.append(acc)
            out.append(row)
        return Matrix(f, out)

    def matvec(self, v):
        """Apply the matrix to a column-coordinate vector (a list)."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matvec")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = []
        for r in self.rows:
            acc = zero
            for a, x in zip(r, v):
                if a != zero and x != zero:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix(self.field, [list(c) for c in zip(*self.rows)])

    def is_zero(self):
        z = self.field.zero
        return all(a == z for r in self.rows for a in r)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        f = self.field
        aug = [list(r) + col for r, col in zip(self.rows, Matrix.identity(f, n).rows)]
        red, _ = _rref_rows(f, aug)
        if [r[:n] for r in red] != Matrix.identity(f, n).rows:
            raise ValueError("matrix is singular")
        return Matrix(f, [r[n:] for r in red])

    def to_strings(self):
        fmt = self.field.fmt
        return [[fmt(a) for a in r] for r in self.rows]

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field.name, self.nrows, self.ncols)


def _rref_rows(field, rows):
    """In-place reduced row echelon form on a list of row lists; returns (rows, rank)."""
    zero = field.zero
    sub, mul, div = field.sub, field.mul, field.div
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv_r = 0
    for col in range(ncols):
        src = -1
        for r in range(piv_r, nrows):
            if rows[r][col] != zero:
                src = r
                break
        if src < 0:
            continue
        rows[piv_r], rows[src] = rows[src], rows[piv_r]
        pr = rows[piv_r]
        lead = pr[col]
        if lead != field.one:
            for c in range(col, ncols):
                pr[c] = div(pr[c], lead)
        for r in range(nrows):
            if r == piv_r:
                continue
            factor = rows[r][col]
            if factor != zero:
                rr = rows[r]
                for c in range(col, ncols):
                    rr[c] = sub(rr[c], mul(factor, pr[c]))
        piv_r += 1
        if piv_r == nrows:
            break
    return rows, piv_r


def rref(m):
    """Reduced row echelon form of a matrix; returns (rref_matrix, rank)."""
    rows, rank = _rref_rows(m.field, [list(r) for r in m.rows])
    return Matrix(m.field, rows), rank


def kernel(m):
    """Right kernel {v : m v = 0} as a Subspace of dimension ncols - rank."""
    f = m.field
    red, rank = rref(m)
    zero, one, neg = f.zero, f.one, f.neg
    pivots = []
    c = 0
    for r in range(rank):
        while red.rows[r][c] == zero:
            c += 1
        pivots.append(c)
        c += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [zero] * m.ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = neg(red.rows[r][free])
        basis.append(v)
    return Subspace.from_vectors(f, m.ncols, basis)


class Subspace:
    """A subspace of F^n held as a reduced row-echelon basis.

    The representation is unique per subspace, so equality is structural.
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient, rref_rows):
        self.field = field
        self.ambient = ambient
        self.rows = rref_rows

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector of wrong length for ambient dimension")
        if not vectors:
            return cls(field, ambient, [])
        rows, rank = _rref_rows(field, vectors)
        return cls(field, ambient, rows[:rank])

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self):
        return len(self.rows)

    def _eliminate(self, v):
        """Subtract multiples of the echelon rows from a copy of v to clear
        its pivot coordinates; returns (remainder, multiples)."""
        f = self.field
        zero, sub, mul = f.zero, f.sub, f.mul
        v = list(v)
        coeffs = []
        for row in self.rows:
            pc = next(i for i, a in enumerate(row) if a != zero)
            factor = v[pc]
            coeffs.append(factor)
            if factor != zero:
                for i in range(pc, self.ambient):
                    v[i] = sub(v[i], mul(factor, row[i]))
        return v, coeffs

    def reduce(self, v):
        """Reduce a vector modulo the subspace (eliminate its pivot coordinates)."""
        return self._eliminate(v)[0]

    def contains(self, v):
        return vec_is_zero(self.field, self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v against the echelon basis, or None if v is outside."""
        rest, coeffs = self._eliminate(v)
        if not vec_is_zero(self.field, rest):
            return None
        return coeffs

    def add(self, other):
        self._check_compatible(other)
        return Subspace.from_vectors(
            self.field, self.ambient, self.rows + other.rows
        )

    def intersect(self, other):
        """Exact intersection, computed from the kernel of the stacked bases."""
        self._check_compatible(other)
        k1, k2 = self.dim, other.dim
        if k1 == 0 or k2 == 0:
            return Subspace.zero(self.field, self.ambient)
        f = self.field
        cols = []
        for row in self.rows:
            cols.append(list(row))
        for row in other.rows:
            cols.append([f.neg(a) for a in row])
        stacked = Matrix(f, cols).transpose()  # ambient x (k1+k2)
        null = kernel(stacked)
        vecs = []
        for coeffs in null.rows:
            v = [f.zero] * self.ambient
            for c, row in zip(coeffs[:k1], self.rows):
                if c != f.zero:
                    for i, a in enumerate(row):
                        if a != f.zero:
                            v[i] = f.add(v[i], f.mul(c, a))
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient, vecs)

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


def vec_is_zero(field, v):
    z = field.zero
    return all(a == z for a in v)

def unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v

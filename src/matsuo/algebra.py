"""Commutative algebras given by structure constants on a finite basis:
products, adjoints, eigen decompositions, fusion-rule and Jordan-identity
verification, Miyamoto maps, U-operators, ideals and quotients.

Vectors are coordinate lists over the algebra's field.  The multiplication
table is stored sparsely, each product b_i b_j once for both orders, as the
dict of its nonzero coordinates; every product of algebra elements runs on
one integer view of it (``AlgebraTable.int_view``) through linalg's kernels
``_int_lift``, ``_int_apply`` and ``_from_int_rows``: over Q every structure
constant is scaled by the lcm of the table's denominators, over F_p the
constants are their residues and reduction waits until the end.  One helper,
``_columns``, forms the columns u b_t of an element u over a given support,
and ``mul``, ``subspace_product``, ``is_ideal``, ``is_multiplicative`` and the
fusion test sum them.  An element's ad is formed once on that view, as
integer columns (``_IntAdjoint``), which ``ad`` and ``u_operator`` convert;
an idempotent's eigenspaces, fusion test and Miyamoto map all read it.

The Jordan verdict is exact: the linearized identity on basis quadruples
and, over F_3 only, the identity itself on the diagonal pairs (b_i, b_y),
which test the x_i^3 terms that the linearization holds only times 3.  One
kernel, ``_linearized_sum``, evaluates both, the diagonal gap as the sum at
(i, i, y, i) divided by 3, and ``jordan_check`` reads it along one orbit walk
of the quadruples.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .linalg import (Matrix, Subspace, _from_int_rows, _from_int_vectors, _int_apply,
                     _int_lift, kernel, rref, unit_vector)
from .fields import field_from_name
from .groups import _perm_inv, _perm_mul


class AlgebraError(ValueError):
    pass


class AlgebraTable:
    """A commutative algebra over an exact field, given by its structure
    constants: ``table[i][j]``, one dict shared with ``table[j][i]``, maps k
    to the coordinate k of b_i b_j and holds only the nonzero ones.

    ``products`` gives b_i b_j for i <= j, as a coordinate list or as a dict
    {k: c}; a pair left out is zero."""

    def __init__(self, field, labels, products):
        self.field = field
        self.labels = list(labels)
        dim = self.dim = len(self.labels)
        self.table = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                self.table[i][j] = self.table[j][i] = {}
        for (i, j), vec in products.items():
            if not 0 <= i <= j < dim:
                raise AlgebraError("product (%r, %r) is not a basis pair i <= j"
                                   % (i, j))
            items = vec.items() if isinstance(vec, dict) else enumerate(vec)
            self.table[i][j].update((k, c) for k, c in items if c)
        self._int_view = None

    def sparse_row(self, i, j):
        return self.table[i][j]

    def int_view(self):
        """The table as integer sparse rows, built once and cached."""
        if self._int_view is None:
            self._int_view = IntTable.of(self)
        return self._int_view

    def mul_basis(self, i, j):
        out = [self.field.zero] * self.dim
        for k, c in self.sparse_row(i, j).items():
            out[k] = c
        return out

    def mul(self, x, y):
        """Bilinear extension of the table to coordinate vectors, on the
        integer view: the columns x b_t over the support of y (``_columns``)
        summed by y."""
        view = self.int_view()
        lifted_x, scale_x = self._lift(x)
        lifted_y, scale_y = self._lift(y)
        xy = _int_apply(_columns(view, lifted_x, lifted_y), lifted_y)
        return _from_int_vectors(self.field, [xy], self.dim,
                                 scale_x * scale_y * view.scale)[0]

    def ad(self, x):
        """Matrix of left multiplication by x (columns are x * b_j): the
        integer columns of ``_IntAdjoint``, converted once and transposed."""
        ad = _IntAdjoint(self, x)
        return _from_int_rows(self.field, list(ad.cols.values()), self.dim,
                              ad.unit).transpose()

    def _lift(self, v):
        if len(v) != self.dim:
            raise AlgebraError("vector length does not match algebra dimension")
        (lifted,), scale = _int_lift([v])
        return lifted, scale

    def is_idempotent(self, e):
        return self.mul(e, e) == list(e)

    def __repr__(self):
        return "AlgebraTable(%s, dim=%d)" % (self.field.name, self.dim)


def _columns(view, u, support):
    """{t: u b_t} for t in support, the sparse int vector u times the basis
    elements on the integer view, scaled as u and the view are and not
    reduced.  Every product of algebra elements reads these columns: u v is
    ``_int_apply(_columns(view, u, v), v)``."""
    rows = view.rows
    return {t: _int_apply(rows[t], u) for t in support}


@dataclass(frozen=True)
class IntTable:
    """A structure-constant table over the integers: ``rows[a][b]``, one dict
    shared with ``rows[b][a]``, maps k to an int, so ``_int_apply(rows[t], u)``
    is the product u b_t.  Over Q the entries are the constants times
    ``scale``, the lcm D of all their denominators, and ``modulus`` is 0; over
    F_p they are the residues themselves, ``scale`` is 1 and ``modulus`` is p.
    A product of m table entries is thereby the exact value times D**m,
    reduced mod p only when it is tested."""

    rows: list
    scale: int
    modulus: int

    @classmethod
    def of(cls, A):
        p = A.field.characteristic
        pairs = [(a, b, A.sparse_row(a, b))
                 for a in range(A.dim) for b in range(a, A.dim)]
        scale = 1 if p else math.lcm(*(c.denominator for _, _, row in pairs
                                       for c in row.values()))
        rows = [[None] * A.dim for _ in range(A.dim)]
        for a, b, row in pairs:
            rows[a][b] = rows[b][a] = row if p else {
                k: c.numerator * (scale // c.denominator) for k, c in row.items()}
        return cls(rows, scale, p)


# ---------------------------------------------------------------------------
# Fusion rules


@dataclass(frozen=True)
class FusionRules:
    eigenvalues: tuple
    table: dict
    alpha: object = None

    def allowed(self, phi, psi):
        return self.table[(phi, psi)]


def phi_alpha(field, alpha):
    """The three-eigenvalue fusion rules on {1, 0, alpha}: products of 1- and
    0-eigenvectors stay put, alpha-eigenvectors are swapped back to {1, 0} by
    squaring, and mixing with alpha stays in the alpha part."""
    one, zero = field.one, field.zero
    if alpha in (one, zero):
        raise AlgebraError("alpha must differ from 0 and 1")
    tbl = {
        (one, one): (one,),
        (one, zero): (),
        (one, alpha): (alpha,),
        (zero, zero): (zero,),
        (zero, alpha): (alpha,),
        (alpha, alpha): (one, zero),
    }
    full = {}
    for (p, q), v in tbl.items():
        full[(p, q)] = v
        full[(q, p)] = v
    return FusionRules((one, zero, alpha), full, alpha)


# ---------------------------------------------------------------------------
# Jordan verification


@dataclass
class JordanCheck:
    is_jordan: bool
    witness: tuple = ()

    def __bool__(self):
        return self.is_jordan


def jordan_check(A):
    """Decide whether (xy)(xx) = x(y(xx)) for all x, y in the table's algebra;
    a failure comes with the basis quadruple (i, j, y, k) that shows it.

    The gap is linear in y and a cubic form in x, so the identity holds
    exactly when every coefficient of that form vanishes at every b_y.  The
    coefficient of x_i x_j x_k (i, j, k distinct) is twice
    ``linearized_gap(i, j, y, k)`` and that of x_i^2 x_k is
    ``linearized_gap(i, i, y, k)``: it is evaluated, as ``_linearized_sum``
    on the integer view read once, at each quadruple of one
    ``_orbit_quadruples`` walk, and the first failure is the witness.  The
    coefficient of x_i^3 is the gap at the diagonal pair (b_i, b_y), which
    ``linearized_gap(i, i, y, i)`` holds times 3.  Outside characteristic 3
    a walk with no failure has therefore tested it, and the verdict is
    Jordan.  Over F_3 the same walk also evaluates ``_diagonal_gap``, that
    sum divided by 3 before it is reduced, at its quadruples (r, r, y, r)
    until one fails; that failure is reported only when no linearized gap
    fails.  There "for all x" agrees with "as an
    identity": reducing x_i^3 to x_i leaves distinct monomials, so a cubic
    form that vanishes on F_3^n is zero.

    The walk runs up to verified automorphisms, one quadruple per orbit of
    the group G that the basis permutations ``_table_automorphisms`` proves
    generate (for a Matsuo algebra a generating set of Miyamoto involutions
    y -> y^x): such a permutation carries the gap at a quadruple or a
    diagonal pair to the gap at its image.  The walk's quadruples with
    r = s = c are the pairs (r, y) with r least in its G-orbit and y least in
    its orbit under the stabiliser G_r, in increasing y: s = r is each r's
    first s, as every candidate point is at least r; G_r fixes r, so its
    Schreier generators for G_{r,r} are its own and G_{r,r} = G_r; c = r is
    the first c, as a c below r has rep(c) < r; and every one of those
    generators fixes r, so H_r = G_r.  An element of G_r taking y below
    itself carries a failure at (b_r, b_y) to an earlier one at
    (b_r, b_g(y)), so the first failing diagonal y is one of these.  Only the
    group matters, so proving a generating set instead of every candidate
    changes no witness.
    """
    view = A.int_view()
    rows, p = view.rows, view.modulus
    diagonal = None
    for r, s, y, c in _orbit_quadruples(A.dim, _table_automorphisms(A)):
        if _reduced(_linearized_sum(rows, r, s, y, c), p):
            return JordanCheck(False, (r, s, y, c))
        if (p == 3 and diagonal is None and r == s == c
                and _diagonal_gap(A, r, y)):
            diagonal = (r, r, y, r)
    return JordanCheck(False, diagonal) if diagonal else JordanCheck(True)


def _orbit_quadruples(dim, gens):
    """The basis quadruples (i, j, y, k), in i <= j <= k, all-y order, at which
    a scan up to G = <gens>, a tuple of basis permutations that are
    automorphisms of the table, evaluates the linearized Jordan identity.

    R is the set of least points of the G-orbits, rep(p) the least point of
    p's G-orbit, rep_r(p) that of its orbit under the stabiliser G_r, and
    rep_rs(p) that of its orbit under the two-point stabiliser G_{r,s}, each
    stabiliser given by Schreier generators of the one before it.  The walk
    yields (i, j, k) = (r, s, c) with r in R, s = rep_r(s), rep(s) >= r,
    c = rep_rs(c), rep(c) >= r and rep_r(c) >= s, and then y in increasing
    order, only where y is least in its orbit under H_c, the group generated
    by those generators of G_{r,s} that fix c; with gens = () every H_c is
    trivial and that is every quadruple.  Its first failure is the full
    scan's first failure: the identity is symmetric in its three slots and an
    automorphism maps the gap at a quadruple to the gap at its image, so
    were that failure not visited, an element of G taking one of its slots
    below i, or of G_i taking j or k below j, would give an earlier one.
    Nor does c = rep_rs(c) drop it: were it at (r, s, y, c) with g in
    G_{r,s} and g(c) < c, then g, fixing r and s, would give a failure at
    (r, s, g(y), g(c)), and g(c) has c's rep and rep_r, so the walk visits
    it earlier.  Nor does the y filter: H_c fixes r, s and c (any subgroup
    of G_{r,s,c} would do), so were the failure at (r, s, y, c) with h in
    H_c and h(y) < y, h would give one at (r, s, h(y), c), earlier in the
    same triple.  H_c is a filter of the generators already built, not a
    further stabiliser."""
    points = range(dim)
    rep = _orbit_minima(dim, gens)
    for r in sorted(set(rep)):
        gens_r = _stabiliser_generators(dim, r, gens)
        rep_r = _orbit_minima(dim, gens_r)
        for s in sorted({rep_r[p] for p in points if rep[p] >= r}):
            gens_rs = _stabiliser_generators(dim, s, gens_r)
            rep_rs = _orbit_minima(dim, gens_rs)
            for c in points:
                if rep_rs[c] == c and rep[c] >= r and rep_r[c] >= s:
                    rep_c = _orbit_minima(dim, [g for g in gens_rs if g[c] == c])
                    for y in points:
                        if rep_c[y] == y:
                            yield r, s, y, c


def _table_automorphisms(A):
    """Basis permutations proved to be automorphisms of A's table, which
    generate the group that every candidate below that passes the proof
    generates.

    For each basis index x the candidate sigma_x sends y to the one index of
    supp(b_x b_y) outside {x, y}, and y to itself when there is no such single
    index; in a Matsuo algebra that is the Miyamoto involution y -> y^x.  A
    candidate is kept only when it is a permutation other than the identity
    and maps the integer view onto itself, rows[sigma i][sigma j] being
    rows[i][j] with indices moved by sigma for every pair.

    The proof reads only the table's support, the pairs i <= j with a nonzero
    rows[i][j], listed once: each must go to a row of the same length whose
    entry at sigma k is rows[i][j][k] for every k, so that, sigma being
    injective, the row is exactly the moved one.  The zero pairs need no
    test.  A permutation sigma permutes the unordered pairs, so once it maps
    the finite support into itself it maps it onto itself, and the zero pairs
    onto the zero pairs.

    Only a generating set is proved: x is skipped when a map kept so far
    takes a smaller index to it.  The candidate is read off the table alone,
    so an automorphism g with g(x') = x has sigma_x = g sigma_x' g^-1, and
    conjugation by g preserves being a permutation, the identity and an
    automorphism: a skipped sigma_x fails as sigma_x' did, or lies in the
    group the kept maps generate.  For A_n and E_n that is rank many proofs
    instead of one per point."""
    rows = A.int_view().rows
    dim = A.dim
    identity = tuple(range(dim))
    support = [(i, j, rows[i][j]) for i in range(dim) for j in range(i, dim)
               if rows[i][j]]
    kept = {}
    rep = identity
    for x in range(dim):
        if rep[x] < x:
            continue
        sigma = []
        for y in range(dim):
            outside = [k for k in rows[x][y] if k != x and k != y]
            sigma.append(outside[0] if len(outside) == 1 else y)
        sigma = tuple(sigma)
        if (sigma != identity and len(set(sigma)) == dim
                and _maps_support(rows, support, sigma)):
            kept[sigma] = None
            rep = _orbit_minima(dim, kept)
    return tuple(kept)


def _maps_support(rows, support, sigma):
    """Whether the permutation sigma takes each (i, j, row) of support to a
    row of the same length holding row's entry c at sigma k for each k."""
    for i, j, row in support:
        img = rows[sigma[i]][sigma[j]]
        if len(img) != len(row):
            return False
        get = img.get
        for k, c in row.items():
            if get(sigma[k]) != c:
                return False
    return True


def _orbit_minima(n, gens):
    """For each point of range(n), the least point of its orbit under the
    group the permutations gens generate."""
    rep = [None] * n
    for r in range(n):
        if rep[r] is None:
            rep[r] = r
            orbit = [r]
            for p in orbit:
                for g in gens:
                    if rep[g[p]] is None:
                        rep[g[p]] = r
                        orbit.append(g[p])
    return rep


def _moved(g, x):
    """The image under the basis permutation g of x, a point, or a set of
    points or of such sets given as a sorted tuple, in the same form."""
    if isinstance(x, int):
        return g[x]
    return tuple(sorted(_moved(g, y) for y in x))


def _per_orbit(items, gens, decide):
    """[decide(x) for x in items], with decide called only at the first
    member of each orbit of the group the basis permutations gens generate
    and its result shared by the rest of the orbit.  items are points or
    sorted tuples (as ``_moved`` takes them), and gens must map them among
    themselves; with no gens every item is its own orbit."""
    index = {x: n for n, x in enumerate(items)}
    rep = _orbit_minima(len(items), [[index[_moved(g, x)] for x in items]
                                     for g in gens])
    out = []
    for x, r in zip(items, rep):
        out.append(decide(x) if r == len(out) else out[r])
    return out


def _transversal(n, r, gens):
    """{p: u_p} over the orbit of the point r in <gens>, u_p a word in gens
    that sends r to p, found breadth first (u_r is the identity)."""
    transversal = {r: tuple(range(n))}
    orbit = [r]
    for p in orbit:
        for g in gens:
            if g[p] not in transversal:
                transversal[g[p]] = _perm_mul(transversal[p], g)
                orbit.append(g[p])
    return transversal


def _stabiliser_generators(n, r, gens):
    """Schreier generators of the stabiliser of the point r in <gens>: u_p g
    u_{p^g}^-1 for every generator g and every point p of r's orbit, where
    u_p, from ``_transversal``, sends r to p."""
    transversal = _transversal(n, r, gens)
    inverse = {p: _perm_inv(u) for p, u in transversal.items()}
    return {_perm_mul(_perm_mul(u, g), inverse[g[p]])
            for p, u in transversal.items() for g in gens}


def _diagonal_gap(A, i, y):
    """x(y(xx)) - (xy)(xx) at x = b_i and the basis element b_y, as a sparse
    vector that is empty exactly when the identity holds there, scaled as
    ``linearized_gap`` is.  The three cyclic shifts of (b_i, b_i, b_i) are
    one term, ((xx)y)x - (xx)(yx), which by commutativity is this gap, so
    ``_linearized_sum`` at (i, i, y, i) is the gap times 3 in exact ints and
    is divided by 3 before it is reduced."""
    view = A.int_view()
    thrice = _linearized_sum(view.rows, i, i, y, i)
    return _reduced({r: w // 3 for r, w in thrice.items()}, view.modulus)


def linearized_gap(A, i, j, y, k):
    """The linearized Jordan identity on the basis quadruple (b_i, b_j, b_y,
    b_k): the sum of ((ab)y)c - (ab)(yc) over the cyclic shifts (a, b, c) of
    (b_i, b_j, b_k), as a sparse vector that is empty exactly when the
    identity holds there.

    The sum, ``_linearized_sum``, runs in plain ints on ``A.int_view()``.
    Every term is a product of three structure constants, so over Q the
    result is the gap times D**3 for the view's scale D; over F_p it is the
    gap's residues, reduced once per coordinate at the end."""
    view = A.int_view()
    return _reduced(_linearized_sum(view.rows, i, j, y, k), view.modulus)


def _linearized_sum(rows, i, j, y, k):
    """``linearized_gap`` on the integer rows of a view, neither reduced nor
    stripped of zeros."""
    row_y = rows[y]
    gap = {}
    get = gap.get
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        yc = row_y[c]
        for s, u in rows[a][b].items():
            row_s = rows[s]
            for t, v in row_s[y].items():  # ((ab)y)c
                uv = u * v
                for r, w in rows[t][c].items():
                    gap[r] = get(r, 0) + uv * w
            for t, v in yc.items():  # (ab)(yc)
                uv = u * v
                for r, w in row_s[t].items():
                    gap[r] = get(r, 0) - uv * w
    return gap


# ---------------------------------------------------------------------------
# Eigen decomposition and fusion-rule (axis) checking


@dataclass
class EigenDecomposition:
    eigenvalues: list
    spaces: list
    diagonalizable: bool
    adjoint: object = dataclasses.field(default=None, compare=False, repr=False)

    def dims(self):
        return tuple(s.dim for s in self.spaces)


class _IntAdjoint:
    """unit * ad(e) on the integer view: ``cols[t]`` is unit * (e b_t) as a
    sparse int vector (``_columns`` over every t), unit = L D for e lifted by
    L (``_int_lift``, the lift kept as ``lifted``) and the view's scale D;
    over F_p the columns are read mod p and unit is 1."""

    __slots__ = ("cols", "unit", "modulus", "lifted")

    def __init__(self, A, e):
        view = A.int_view()
        self.lifted, scale = A._lift(e)
        self.modulus = view.modulus
        self.cols = _columns(view, self.lifted, range(A.dim))
        self.unit = scale * view.scale

    def idempotent(self):
        """Whether e e = e: (unit ad(e) - unit) L e is L unit (e e - e),
        which is zero exactly when ad(e) - 1 kills e."""
        return not self.shifted(self.lifted, 1)

    def shifted(self, w, nu):
        """b (unit ad(e)) w - a unit w for nu = a/b (over F_p a residue, b = 1),
        which is b unit (ad(e) - nu) w, without zeros and over F_p reduced."""
        out = _int_apply(self.cols, w, nu.denominator)
        c = nu.numerator * self.unit
        get = out.get
        for j, x in w.items():
            out[j] = get(j, 0) - c * x
        return _reduced(out, self.modulus)

    def shifted_product(self, w, values):
        """The product of b (unit ad(e)) - a unit over nu = a/b in values
        applied to w (``shifted`` once per factor), stopping when it reaches
        zero."""
        for nu in values:
            if not w:
                break
            w = self.shifted(w, nu)
        return w

    def shifted_rows(self, nu):
        """The dense int rows of b (unit ad(e)) - a unit I for nu = a/b, a
        nonzero multiple of ad(e) - nu, over F_p reduced mod p."""
        p, n = self.modulus, len(self.cols)
        b, a = nu.denominator, nu.numerator * self.unit
        rows = [[0] * n for _ in range(n)]
        for t, col in self.cols.items():
            for k, x in col.items():
                rows[k][t] = b * x
        for k in range(n):
            rows[k][k] -= a
        return [[x % p for x in row] for row in rows] if p else rows


def eigen_decomposition(A, e, candidates):
    """Eigenspaces of ad(e) over a candidate eigenvalue set; diagonalizable iff
    the dimensions add up to dim A.

    ad(e) is formed once, as the integer columns of unit * ad(e)
    (``_IntAdjoint``), which the decomposition keeps for ``check_axis`` and
    ``miyamoto``.  Idempotency is decided on those columns
    (``_IntAdjoint.idempotent``), with no separate product e e.  For a
    candidate lam = a/b the eigenspace is the kernel of the integer matrix
    b (unit ad(e)) - a unit I (``_IntAdjoint.shifted_rows``), a nonzero
    multiple of ad(e) - lam; ``kernel`` converts to field scalars once, at
    the Subspace it returns."""
    ad = _IntAdjoint(A, e)
    if not ad.idempotent():
        raise AlgebraError("eigen decomposition requires an idempotent")
    n = A.dim
    values, spaces = [], []
    for lam in candidates:
        spc = kernel(Matrix(A.field, ad.shifted_rows(lam), n))
        if spc.dim > 0:
            values.append(lam)
            spaces.append(spc)
    total = sum(s.dim for s in spaces)
    return EigenDecomposition(values, spaces, total == n, ad)


@dataclass
class AxisCheck:
    ok: bool
    dims: tuple = ()
    eigenvalues: tuple = ()
    reason: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


def check_axis(A, e, rules):
    """Whether the idempotent e diagonalizes over the fusion eigenvalues and
    every eigenvector product lands in the prescribed eigenspace sum.

    The eigenspaces come from ``eigen_decomposition``; the fusion test runs in
    plain ints on ``A.int_view()``, on the integer ad(e) that the
    decomposition formed (``_IntAdjoint``, unit * ad(e) with unit = D_e * D
    for e's denominator lcm D_e and the view's scale D), with each
    eigenvector lifted to ints.  A product w = u v lies in
    the sum of the eigenspaces A_nu, nu in S = ``rules.allowed(phi, psi)``
    among the present eigenvalues, exactly when the product of
    (ad(e) - nu), nu in S, kills w; each factor is applied for nu = a/b as
    b * (unit * ad(e)) - a * unit, and over F_p reduced mod p.

    This is exact once e is known to be diagonalizable, which is checked
    first: writing w = sum of w_mu over the present eigenvalues mu, the
    product is the sum of prod_S (mu - nu) w_mu, and as the eigenvalues are
    distinct it vanishes exactly when w_mu = 0 for every mu outside S.  Every
    step is homogeneous in w and only multiplies by nonzero scales, so no
    scaling turns a nonzero vector into zero.  As the table is commutative,
    a pair within one eigenspace is tested once, which keeps the first
    failing pair, and with it the witness, that the full scan would find.

    On basis elements it runs once per orbit of verified automorphisms
    (``basis_axis_checks``): an automorphism sigma conjugates ad(b_i) to
    ad(b_sigma(i)) and so carries eigenspaces and their products to those of
    b_sigma(i), which keeps the verdict, the dims and the eigenvalues."""
    return _axis_and_decomposition(A, e, rules)[0]


def _axis_and_decomposition(A, e, rules):
    """``check_axis(A, e, rules)`` and the decomposition it read, None when
    e is not idempotent."""
    try:
        dec = eigen_decomposition(A, e, candidates=list(rules.eigenvalues))
    except AlgebraError as err:
        return AxisCheck(False, reason=str(err)), None
    present = tuple(dec.eigenvalues)
    if not dec.diagonalizable:
        return AxisCheck(False, dec.dims(), present,
                         "eigenspaces do not span the algebra"), dec
    witness = _fusion_violation(A, rules, dec)
    if witness:
        return AxisCheck(False, dec.dims(), present, "fusion rule violated",
                         witness), dec
    return AxisCheck(True, dec.dims(), present), dec


def basis_axis_checks(A, rules):
    """For every basis index i, ``check_axis(A, b_i, rules)``, or None when
    b_i is not idempotent, decided at the least point r of i's orbit under
    the group that ``_table_automorphisms(A)`` generates and shared by the
    orbit (a witness, if any, is b_r's).  The orbits are those of every
    candidate that passes the proof, though only a generating set of them is
    proved.  A table with no kept automorphism has one orbit a point."""
    def decide(r):
        e = unit_vector(A.field, A.dim, r)
        return check_axis(A, e, rules) if A.is_idempotent(e) else None
    return _per_orbit(range(A.dim), _table_automorphisms(A), decide)


def basis_miyamoto_permutations(A, rules):
    """For every basis index p, ``miyamoto(A, b_p, rules)`` as a basis
    permutation (``_column_permutation``) or None, run only at the least
    point r of each orbit of ``_table_automorphisms(A)``: p gets g tau_r g^-1
    for g from ``_transversal``, g(r) = p, which maps ad(b_r) to ad(b_p)."""
    gens = _table_automorphisms(A)
    perms = [None] * A.dim
    for r in sorted(set(_orbit_minima(A.dim, gens))):
        e = unit_vector(A.field, A.dim, r)
        tau = _column_permutation(miyamoto(A, e, rules))
        if tau is not None:
            for p, g in _transversal(A.dim, r, gens).items():
                perms[p] = _perm_mul(_perm_mul(_perm_inv(g), tau), g)
    return perms


def _column_permutation(m):
    """The tuple p with column j of m the unit vector at p[j], or None when m
    is not a permutation matrix."""
    one = m.field.one
    perm = []
    for col in zip(*m.rows):
        support = [k for k, c in enumerate(col) if c]
        if len(support) != 1 or col[support[0]] != one:
            return None
        perm.append(support[0])
    return tuple(perm) if len(set(perm)) == len(perm) else None


def _fusion_violation(A, rules, dec):
    """The first (phi, psi, u, v) whose product u v leaves the eigenspace sum
    that ``rules.allowed(phi, psi)`` prescribes, or () when there is none.
    The test is the annihilating product that ``check_axis`` describes, on
    the decomposition's integer ad(e)."""
    ad, view = dec.adjoint, A.int_view()
    present = dec.eigenvalues
    lifted = [_int_lift(spc.rows)[0] for spc in dec.spaces]
    for pi, phi in enumerate(present):
        mults = [_columns(view, su, range(A.dim)) for su in lifted[pi]]
        for qi in range(pi, len(present)):
            psi = present[qi]
            values = [nu for nu in rules.allowed(phi, psi) if nu in present]
            for a, mult in enumerate(mults):
                for b in range(a if qi == pi else 0, len(lifted[qi])):
                    w = _reduced(_int_apply(mult, lifted[qi][b]), ad.modulus)
                    if ad.shifted_product(w, values):
                        return (phi, psi, dec.spaces[pi].rows[a],
                                dec.spaces[qi].rows[b])
    return ()


def _reduced(w, p):
    """The sparse int vector w without its zeros, reduced mod p when p > 0."""
    if p:
        return {k: x % p for k, x in w.items() if x % p}
    return {k: x for k, x in w.items() if x}


def miyamoto(A, e, rules):
    """The involution fixing the 1- and 0-eigenspaces of an axis and negating
    the alpha-eigenspace; verified to be an algebra automorphism of order <= 2.

    It is 1 - 2P for the projection P onto the alpha-eigenspace along the
    others.  As ad(e) is diagonalizable over ``rules.eigenvalues``, P is the
    Lagrange polynomial in ad(e): the product of (ad(e) - mu) / (alpha - mu)
    over the eigenvalues mu other than alpha, so no eigenbasis is inverted.
    The product runs in ints on the integer ad(e) of the axis check
    (``_IntAdjoint.shifted``): column t of N = prod (b_mu unit ad(e) -
    a_mu unit) is formed from the unit vector at t, so P = N / d with
    d = prod b_mu unit (alpha - mu), and tau = 1 - 2N / d is converted
    once."""
    axis, dec = _axis_and_decomposition(A, e, rules)
    if not axis.ok:
        raise AlgebraError("miyamoto map needs an axis: %s" % axis.reason)
    f = A.field
    ad, p, n = dec.adjoint, dec.adjoint.modulus, A.dim
    others = [mu for mu in rules.eigenvalues if mu != rules.alpha]
    d = f.one
    for mu in others:
        d = f.mul(d, f.mul(f.from_int(mu.denominator * ad.unit), f.sub(rules.alpha, mu)))
    # tau = 1 - 2N / d as (s - c N) / s in ints: over Q d = dn / dd gives
    # s = dn, c = 2 dd, over F_p s = 1, c = 2 / d
    s, c = (1, 2 * f.inv(d) % p) if p else (d.numerator, 2 * d.denominator)
    cols = []
    for t in range(n):
        col = {k: -c * x for k, x in ad.shifted_product({t: 1}, others).items()}
        col[t] = col.get(t, 0) + s
        cols.append(_reduced(col, p))
    tau = _from_int_rows(f, cols, n, s).transpose()
    ident = Matrix.identity(f, n)
    if not (tau * tau == ident):
        raise AlgebraError("miyamoto map does not square to the identity")
    if not is_multiplicative(A, A, tau):
        raise AlgebraError("miyamoto map is not an algebra automorphism")
    return tau


# ---------------------------------------------------------------------------
# U-operators, ideals, quotients


def u_operator(A, a):
    """U_a(b) = 2a(ab) - (aa)b as a matrix, 2 ad(a)^2 - ad(a^2), on the
    integer view: the columns a b_t of ``_IntAdjoint`` (times unit = L D), a^2
    summed from them (times L unit), and column t, 2 a(a b_t) - a^2 b_t,
    formed at the scale unit^2 and converted once."""
    ad = _IntAdjoint(A, a)
    minus_square = _columns(A.int_view(), _int_apply(ad.cols, ad.lifted, -1),
                            range(A.dim))  # -(a a) b_t, times unit^2
    return _from_int_rows(
        A.field, [_int_apply(ad.cols, col, 2, out=minus_square[t])
                  for t, col in ad.cols.items()],
        A.dim, ad.unit ** 2).transpose()


def is_absolute_zero_divisor(A, a):
    return u_operator(A, a).is_zero()


def is_trivial_element(A, a):
    return is_absolute_zero_divisor(A, a) and not any(A.mul(a, a))


def subspace_product(A, s, t):
    """Span of all products of a basis of s with a basis of t, each basis
    lifted once.  For each u of s the columns u b_t (``_columns``) are formed
    once, over the union of the supports of t's basis, and each v of t sums
    them.  The products come out times one nonzero scale, which leaves their
    span as it is."""
    view = A.int_view()
    vs = _int_lift(t.rows)[0]
    support = set().union(*vs)
    products = []
    for u in _int_lift(s.rows)[0]:
        cols = _columns(view, u, support)
        products += [_int_apply(cols, v) for v in vs]
    return Subspace.span_of_int_vectors(A.field, A.dim, products)


def is_ideal(A, s):
    """Whether every basis vector times every row of s lies in s, on the
    integer view: the rows of s lifted once, to R_r = L row_r, and each
    product w = v b_i, for v such a lifted row, read off ``_columns``.
    As the rows are in reduced echelon form, w lies in s exactly when it is
    the combination of them that its pivot entries name:
    L w = sum_r w[pivot_r] R_r, tested in ints (over F_p mod p)."""
    view = A.int_view()
    rows, scale = _int_lift(s.rows)
    for v in rows:
        for w in _columns(view, v, range(A.dim)).values():
            pick = {r: w[pc] for r, pc in enumerate(s.pivots) if pc in w}
            gap = {k: scale * x for k, x in w.items()}
            if _reduced(_int_apply(rows, pick, -1, out=gap), view.modulus):
                return False
    return True


def solvable_chain(A, s):
    """The derived chain s, s^2, (s^2)^2, ... until it stabilizes or vanishes."""
    chain = [s]
    for _ in range(A.dim + 1):
        cur = chain[-1]
        if cur.dim == 0:
            break
        nxt = subspace_product(A, cur, cur)
        chain.append(nxt)
        if nxt.dim >= cur.dim:
            break
    return chain

def is_solvable(A, s):
    return solvable_chain(A, s)[-1].dim == 0


def quotient(A, s):
    """The quotient table by an ideal, on the complement of the ideal's pivot
    columns."""
    if not is_ideal(A, s):
        raise AlgebraError("quotient requires an ideal")
    return _quotient_table(A, s)


def _quotient_table(A, s):
    """``quotient`` for a subspace the caller has already found an ideal."""
    f = A.field
    comp = [i for i in range(A.dim) if i not in s.pivots]
    labels = [A.labels[i] for i in comp]
    products = {}
    for a, i in enumerate(comp):
        for b in range(a, len(comp)):
            j = comp[b]
            w = s.reduce(A.mul_basis(i, j))
            products[(a, b)] = [w[t] for t in comp]
    return AlgebraTable(f, labels, products)


# ---------------------------------------------------------------------------
# Morphisms


def is_multiplicative(A, B, m):
    """f(b_i b_j) = f(b_i) f(b_j) for all basis pairs, with f given by the
    columns of m (coordinates of A mapped into B).  Runs on the integer
    views: m's columns are lifted once by L, the left side combines them over
    the sparse row of b_i b_j (at most three terms in a Matsuo table), the
    right side multiplies two of them on B's view, and both are brought to
    the common scale L^2 D_A D_B before they are compared."""
    if m.ncols != A.dim or m.nrows != B.dim:
        raise AlgebraError("matrix shape does not match the two algebras")
    view_a, view_b = A.int_view(), B.int_view()
    p = view_b.modulus
    cols, scale = _int_lift(zip(*m.rows))
    left, right = scale * view_b.scale, view_a.scale
    for i in range(A.dim):
        for j in range(i, A.dim):
            lhs = _int_apply(cols, view_a.rows[i][j], left)
            rhs = _int_apply(_columns(view_b, cols[i], cols[j]), cols[j], right)
            if _reduced(lhs, p) != _reduced(rhs, p):
                return False
    return True


def iso_check(A, B, m):
    """Whether m is an algebra isomorphism from A to B."""
    if A.dim != B.dim:
        raise AlgebraError("algebras have different dimensions")
    if A.field != B.field:
        raise AlgebraError("algebras live over different fields")
    _, rank = rref(m)
    if rank != A.dim:
        return False
    return is_multiplicative(A, B, m)


# ---------------------------------------------------------------------------
# JSON interchange


def algebra_from_json_dict(data):
    if not isinstance(data, dict):
        raise AlgebraError("algebra JSON must be an object")
    missing = [key for key in ("field", "dim", "labels", "products")
               if key not in data]
    if missing:
        raise AlgebraError("algebra JSON lacks %s" % ", ".join(missing))
    if not isinstance(data["field"], str):
        raise AlgebraError("field must be a string such as Q or F5")
    labels = data["labels"]
    dim = data["dim"]
    if type(dim) is not int:
        raise AlgebraError("dim must be an integer")
    if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)):
        raise AlgebraError("labels must be a list of strings")
    if len(labels) != dim:
        raise AlgebraError("label count does not match dim")
    # one pass checks the triangle's shape and collects its distinct entries
    # in the order of the file
    rows, scalars = data["products"], {}
    shaped = isinstance(rows, list) and len(rows) == dim
    try:
        for i, row in enumerate(rows if shaped else ()):
            shaped = isinstance(row, list) and len(row) == dim - i and all(
                isinstance(vec, list) and len(vec) == dim for vec in row)
            if not shaped:
                break
            for vec in row:
                scalars.update(dict.fromkeys(vec))
    except TypeError:  # an unhashable entry: a list or an object
        shaped = False
    if not (shaped and all(isinstance(s, str) for s in scalars)):
        raise AlgebraError("products must have dim rows, row i holding dim - i "
                           "vectors of length dim, each entry a scalar string")
    field = field_from_name(data["field"])
    # a table repeats a few scalars many times: parse each distinct string
    # once, in the order of the file, so the first bad one is still reported;
    # a product keeps only the strings whose value is nonzero, however spelt
    for s in scalars:
        scalars[s] = field.parse(s)
    nonzero = {s: c for s, c in scalars.items() if c}
    products = {}
    for i, row in enumerate(rows):
        for off, vec in enumerate(row):
            products[(i, i + off)] = {k: nonzero[s] for k, s in enumerate(vec)
                                      if s in nonzero}
    return AlgebraTable(field, labels, products)


def algebra_to_json(A):
    """Byte for byte what ``json.dumps(indent=2, sort_keys=True)`` writes for
    {dim, field, labels, products}; the products, which ``indent`` would send
    through the pure-Python encoder, are joined here with Python-level work
    proportional to the vectors and their nonzero entries, each scalar
    encoded once."""
    head = json.dumps({"dim": A.dim, "field": A.field.name,
                       "labels": list(A.labels)}, indent=2, sort_keys=True)
    dim = A.dim
    if not dim:
        return head[:-2] + ',\n  "products": []\n}\n'
    # json.dumps puts each scalar on its own line at depth 4 (8 spaces), and
    # closes and opens vectors at depth 3 and rows at depth 2.  A vector is
    # its nonzero entries, in key order, and the runs of zeros between them,
    # joined by the scalar separator; zeros[n] is a run of n, joined once.
    fmt, sep = A.field.fmt, ",\n        "
    zero = encode_basestring_ascii(fmt(A.field.zero))
    zeros = [sep.join([zero] * n) for n in range(dim + 1)]
    # encoded scalars are memoised by id(): the table holds each scalar for
    # the whole call, and Fraction's __hash__ is pure Python
    encoded = {}
    parts = [head[:-2], ',\n  "products": [\n    [\n      [\n        ']
    for i in range(dim):
        for j in range(i, dim):
            row, chunks, last = A.sparse_row(i, j), [], 0
            for k in sorted(row):
                if k > last:
                    chunks.append(zeros[k - last])
                c = row[k]
                text = encoded.get(id(c))
                if text is None:
                    text = encoded[id(c)] = encode_basestring_ascii(fmt(c))
                chunks.append(text)
                last = k + 1
            if last < dim:
                chunks.append(zeros[dim - last])
            parts += (sep.join(chunks), "\n      ],\n      [\n        ")
        parts[-1] = "\n      ]\n    ],\n    [\n      [\n        "
    parts[-1] = "\n      ]\n    ]\n  ]\n}\n"
    return "".join(parts)


def algebra_from_json(text):
    try:
        data = json.loads(text)
    except RecursionError:
        raise AlgebraError("input too large: JSON nested too deep") from None
    return algebra_from_json_dict(data)

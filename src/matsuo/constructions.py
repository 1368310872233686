"""The named algebras and maps of the workbench: Matsuo algebras of triple
systems, projection algebras of root systems, zero-sum symmetric matrices,
hermitian 3x3 matrices over a quadratic etale extension, the explicit
isomorphisms between them, the characteristic-3 ideal chain, and the rank-4
counterexample coefficients.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .fields import check_digits
from .linalg import (Matrix, Subspace, _int_jordan, _int_lift, _int_rref,
                     _int_span_coordinates, _lifted_jordan, kernel, span_coordinates,
                     unit_vector)
from .fischer import (
    MAX_NAMED_POINTS,
    build_p2_dual,
    build_p3,
    gamma_of_group,
    gamma_of_rootsystem,
    pts_isomorphic,
    root_system_from_name,
    P3_PARALLEL_CLASSES,
)
from .groups import (
    build_3sq2,
    build_sym,
    build_wk_affine_a,
    wk_embedding_subgroup,
    generator_homomorphism,
)
from .algebra import (
    AlgebraError,
    AlgebraTable,
    is_ideal,
    is_solvable,
    is_trivial_element,
    is_absolute_zero_divisor,
    quotient,
    subspace_product,
    _IntAdjoint,
    _quotient_table,
    _reduced,
)


# ---------------------------------------------------------------------------
# Matsuo algebras


def matsuo_algebra(space, alpha, field):
    """The commutative algebra on the points of a partial triple system:
    points are idempotent, non-collinear points multiply to zero, and
    collinear points multiply to (alpha/2)(x + y - x^y)."""
    if alpha == field.zero or alpha == field.one:
        raise AlgebraError("alpha must differ from 0 and 1")
    f = field
    half_alpha = f.div(alpha, f.from_int(2))
    n = space.n_points
    minus_half_alpha = f.neg(half_alpha)
    products = {}
    for i in range(n):
        products[(i, i)] = {i: f.one}
        for j in range(i + 1, n):
            if space.collinear(i, j):
                products[(i, j)] = {i: half_alpha, j: half_alpha,
                                    space.wedge(i, j): minus_half_alpha}
    return AlgebraTable(f, list(space.labels), products)


# ---------------------------------------------------------------------------
# Root projections


def proj_matrix(field, root):
    """Projection onto the span of a root vector: (1 / (v,v)) v^t v."""
    f = field
    nrm = f.from_int(sum(a * a for a in root))
    if nrm == f.zero:
        raise AlgebraError("root has singular length in this field")
    inv = f.inv(nrm)
    return Matrix(f, [[f.mul(inv, f.from_int(a * b)) for b in root] for a in root])


def _flatten(m):
    return [a for row in m.rows for a in row]


@dataclass
class RootProjectionAlgebra:
    algebra: AlgebraTable
    basis_roots: list
    root_coords: dict    # every positive root -> coordinates in the basis


def jordan_from_roots(field, rs):
    """The span of the root projections, as a structure-constant algebra under
    the symmetrized matrix product, on a maximal independent subset of the
    projections; reports coordinates for every positive root."""
    f = field
    mats = {r: proj_matrix(f, r) for r in rs.positive}
    basis, coords = span_coordinates(f, [_flatten(mats[r]) for r in rs.positive])
    basis_roots = [rs.positive[k] for k in basis]
    products, _ = _product_table(f, [mats[r] for r in basis_roots])
    labels = ["m(%s)" % ",".join(str(a) for a in r) for r in basis_roots]
    return RootProjectionAlgebra(AlgebraTable(f, labels, products), basis_roots,
                                 dict(zip(rs.positive, coords)))


def _product_table(field, basis, extra=()):
    """Coordinates on the independent matrices of basis of the symmetrized
    product of each pair of them, and of each matrix in extra, from one
    elimination; returns ({(i, j): coords}, [coords of each extra matrix]).
    Each matrix is lifted to ints once, the products (m_i m_j + m_j m_i) / 2
    stay in ints, at the scale 2 D_i D_j, and ``_int_span_coordinates``
    eliminates them all with their scales."""
    k = len(basis)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    lifted = [_int_lift(m.rows) for m in basis]
    products = [(_int_jordan(lifted[i][0], lifted[j][0]), 2 * lifted[i][1] * lifted[j][1])
                for i, j in pairs]
    found, coords = _int_span_coordinates(field, [
        (_int_flatten(rows), scale)
        for rows, scale in lifted + products + [_int_lift(m.rows) for m in extra]])
    if found != list(range(k)):
        raise AlgebraError("a product leaves the span of the basis matrices")
    return dict(zip(pairs, coords[k:])), coords[k + len(pairs):]


def _int_flatten(rows):
    """The sparse int rows of an n x n matrix as one sparse int vector of
    length n * n, row after row."""
    n = len(rows)
    return {i * n + j: x for i, row in enumerate(rows) for j, x in row.items()}


def jr_dimension(field, rs):
    """Rank of the span of the outer products a^t a over the positive roots.

    The outer products are symmetric, so their entries on and above the
    diagonal determine them and span a space of the same rank; those entries
    a_i a_j are ranked as ints by ``_int_rref``, over F_p reduced mod p."""
    p, n = field.characteristic, rs.ambient
    rows = [_reduced({i * n + j: a * r[j] for i, a in enumerate(r)
                      for j in range(i, n)}, p) for r in rs.positive]
    return len(_int_rref(rows, p)[1])


@dataclass
class ProjectionCase:
    roots: tuple
    kind: str     # "same", "orthogonal", "span"
    k: int = 0
    ok: bool = True


def verify_projection_products(field, rs):
    """Check the closed product formula for projections of two roots against
    the direct symmetrized matrix product, for every pair of positive roots:
    m_a for equal roots, 0 for orthogonal ones, and otherwise
    (1/4)(m_a + k m_b - m_c) with b the longer root, k the squared length
    ratio, and c the root among a+-b lying in the subsystem spanned by a, b.
    Each projection is lifted to ints once for all its products."""
    f = field
    quarter = f.inv(f.from_int(4))
    mats = {r: proj_matrix(f, r) for r in rs.positive}
    lifted = {r: _int_lift(m.rows) for r, m in mats.items()}
    all_roots = rs.root_set()
    cases = []
    for i, a in enumerate(rs.positive):
        for j in range(i, len(rs.positive)):
            b = rs.positive[j]
            direct = _lifted_jordan(f, lifted[a], lifted[b])
            if a == b:
                cases.append(ProjectionCase((a, b), "same", ok=direct == mats[a]))
                continue
            if rs.form(a, b) == 0:
                cases.append(ProjectionCase((a, b), "orthogonal",
                                            ok=direct.is_zero()))
                continue
            lo, hi = (a, b) if rs.norm(a) <= rs.norm(b) else (b, a)
            ratio = Fraction(rs.norm(hi), rs.norm(lo))
            if ratio.denominator != 1 or ratio.numerator not in (1, 2, 3):
                cases.append(ProjectionCase((a, b), "span", ok=False))
                continue
            k = ratio.numerator
            cands = []
            for cand in (
                tuple(x + y for x, y in zip(a, b)),
                tuple(x - y for x, y in zip(a, b)),
            ):
                if cand in all_roots:
                    cands.append(cand)
            if len(cands) > 1:
                # two short roots of the hexagonal system: the subsystem they
                # span is the equilateral one, whose third root matches their
                # common length
                cands = [c for c in cands
                         if sum(x * x for x in c) == rs.norm(lo)]
            if len(cands) != 1:
                cases.append(ProjectionCase((a, b), "span", k=k, ok=False))
                continue
            c = cands[0]
            mc = proj_matrix(f, c)
            formula = (mats[lo] + mats[hi].scale(f.from_int(k)) - mc).scale(quarter)
            cases.append(ProjectionCase((a, b), "span", k=k, ok=formula == direct))
    return cases


def matsuo_to_projection_map(field, rs):
    """The linear map sending each point of the root triple system to its
    projection matrix, in coordinates: columns indexed by the points of
    gamma(rs) (the positive roots in order), rows by the projection basis."""
    proj = jordan_from_roots(field, rs)
    cols = [proj.root_coords[r] for r in rs.positive]
    return proj, Matrix(field, [list(r) for r in zip(*cols)])


# ---------------------------------------------------------------------------
# Zero-sum symmetric matrices


@dataclass
class ZeroSumSymAlgebra:
    algebra: AlgebraTable
    n: int
    basis_pairs: list    # (i, j) with i < j, 0-based
    basis_matrices: list
    unit: list = None          # coordinates, when n != 0 in the field
    unit_matrix: Matrix = None


def zero_sum_sym_algebra(field, n):
    """The Jordan algebra of symmetric n x n matrices with zero row sums,
    on the basis of two-index projections (1/2)(e_ii - e_ij - e_ji + e_jj)."""
    if n < 2:
        raise AlgebraError("needs n >= 2")
    f = field
    half = f.div(f.one, f.from_int(2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for i, j in pairs:
        m = Matrix.zeros(f, n, n)
        m.rows[i][i] = half
        m.rows[j][j] = half
        m.rows[i][j] = f.neg(half)
        m.rows[j][i] = f.neg(half)
        mats.append(m)
    unit = []
    if f.from_int(n) != f.zero:
        ninv = f.inv(f.from_int(n))
        diag = f.mul(f.from_int(n - 1), ninv)
        off = f.neg(ninv)
        unit = [Matrix(f, [[diag if i == j else off for j in range(n)]
                           for i in range(n)])]
    products, unit_coords = _product_table(f, mats, unit)
    labels = ["m%d%d" % (i + 1, j + 1) for i, j in pairs]
    alg = AlgebraTable(f, labels, products)
    out = ZeroSumSymAlgebra(alg, n, pairs, mats)
    if unit:
        out.unit, out.unit_matrix = unit_coords[0], unit[0]
    return out


def an_isomorphism(field, n):
    """The map from the Matsuo algebra of the A_(n-1) triple system to the
    zero-sum symmetric matrices, sending the point for root v_j - v_i to the
    corresponding projection.  Returns (gamma, matsuo-less matrix)."""
    rs = root_system_from_name("A%d" % (n - 1))
    zs = zero_sum_sym_algebra(field, n)
    pair_index = {p: t for t, p in enumerate(zs.basis_pairs)}
    f = field
    cols = []
    for r in rs.positive:
        i = r.index(1)
        j = r.index(-1)
        t = pair_index[(min(i, j), max(i, j))]
        cols.append(unit_vector(f, len(zs.basis_pairs), t))
    return rs, zs, Matrix(f, [list(row) for row in zip(*cols)])


# ---------------------------------------------------------------------------
# The plane of order three: unit, line idempotents, Peirce pieces


def p3_unit(field):
    """The unit (1/3) sum of the nine points; characteristic 3 has none."""
    if field.characteristic == 3:
        raise AlgebraError("no unit in characteristic 3: the point sum annihilates")
    third = field.inv(field.from_int(3))
    return [third] * 9


def line_idempotents(field, line):
    """The idempotent pair of a line of the order-3 plane: e_L weighting the
    line by -1/3 and its complement by 1/3, and f_L = unit - e_L."""
    if field.characteristic == 3:
        raise AlgebraError("line idempotents need characteristic != 3")
    f = field
    third = f.inv(f.from_int(3))
    e = [third] * 9
    fl = [f.zero] * 9
    two_thirds = f.mul(f.from_int(2), third)
    for p in line:
        e[p] = f.neg(third)
        fl[p] = two_thirds
    return e, fl


@dataclass
class PeirceDecomposition:
    off_diagonal: dict   # (i, j) -> subspace, i < j
    direct_sum_ok: bool


def p3_peirce(field, parallel_class):
    """The six-piece decomposition of the order-3 plane algebra attached to a
    parallel class of lines: spans of the three line idempotents, plus the
    pairwise intersections of their half-eigenspaces.

    Each line idempotent's ad(e) is formed once on the integer view
    (``_IntAdjoint``), and the piece E_1/2(e_i) ^ E_1/2(e_j) is one
    ``kernel`` of the stacked integer matrices b (unit ad e) - a unit I of
    e_i and of e_j, for 1/2 = a/b.  The sum is direct exactly when the nine
    spanning rows (the three idempotents and the pieces' bases) are
    independent, decided by one elimination."""
    lines = tuple(tuple(sorted(l)) for l in parallel_class)
    if sorted(p for l in lines for p in l) != list(range(9)):
        raise AlgebraError("lines do not form a parallel class")
    f = field
    half = f.div(f.one, f.from_int(2))
    A = matsuo_algebra(build_p3(), half, f)
    es = [line_idempotents(f, l)[0] for l in lines]
    blocks = [_IntAdjoint(A, e).shifted_rows(half) for e in es]
    off = {(i, j): kernel(Matrix(f, blocks[i] + blocks[j], 9))
           for i in range(3) for j in range(i + 1, 3)}
    spanning = es + [row for s in off.values() for row in s.rows]
    direct = (len(spanning) == 9
              and len(_int_rref(_int_lift(spanning)[0], f.characteristic)[1]) == 9)
    return PeirceDecomposition(off, direct)


# ---------------------------------------------------------------------------
# Hermitian 3x3 matrices over the quadratic etale extension


class EtaleModel:
    """F[x]/(x^2 + bx + c) presented on the basis {1, g}: elements are pairs
    u + v g, with the nontrivial automorphism swapping the two roots."""

    def __init__(self, field, name, b, c):
        self.field = field
        self.name = name
        self.b = field.from_int(b)   # g^2 = -b g - c
        self.c = field.from_int(c)

    def mul(self, x, y):
        f = self.field
        u1, v1 = x
        u2, v2 = y
        vv = f.mul(v1, v2)
        return (
            f.sub(f.mul(u1, u2), f.mul(self.c, vv)),
            f.sub(f.add(f.mul(u1, v2), f.mul(v1, u2)), f.mul(self.b, vv)),
        )

    def sigma(self, x):
        # the other root of x^2 + bx + c is -b - g
        f = self.field
        u, v = x
        return (f.sub(u, f.mul(self.b, v)), f.neg(v))

    def add(self, x, y):
        f = self.field
        return (f.add(x[0], y[0]), f.add(x[1], y[1]))

    def zero(self):
        f = self.field
        return (f.zero, f.zero)

    def one(self):
        f = self.field
        return (f.one, f.zero)

    def gen(self):
        f = self.field
        return (f.zero, f.one)

    def regular(self, x):
        """Multiplication by x on the basis {1, g}: the columns are x and x g."""
        f = self.field
        u, v = x
        return [[u, f.neg(f.mul(self.c, v))], [v, f.sub(u, f.mul(self.b, v))]]


def zeta_model(field):
    """x^2 + 3: the generator squares to -3."""
    if field.characteristic == 3:
        raise AlgebraError("the quadratic extension degenerates in characteristic 3")
    return EtaleModel(field, "zeta", 0, 3)

def beta_model(field):
    """x^2 + x + 1: the generator is a primitive cube root of unity."""
    if field.characteristic == 3:
        raise AlgebraError("the quadratic extension degenerates in characteristic 3")
    return EtaleModel(field, "beta", 1, 1)


def _blocks(model, entries):
    """The 3x3 matrix over E with the given {(i, j): x} entries, as a 6x6
    matrix over F: entry (i, j) becomes the 2x2 block of its regular
    representation, so matrix products over E are products over F."""
    f = model.field
    rows = [[f.zero] * 6 for _ in range(6)]
    for (i, j), x in entries.items():
        for r, row in enumerate(model.regular(x)):
            rows[2 * i + r][2 * j:2 * j + 2] = row
    return Matrix(f, rows)

def _brace(model, x, i, j):
    """x[ij] = x e_ij + sigma(x) e_ji."""
    if i == j:
        return _blocks(model, {(i, i): model.add(x, model.sigma(x))})
    return _blocks(model, {(i, j): x, (j, i): model.sigma(x)})

_H3_OFF = [(0, 1), (0, 2), (1, 2)]


def h3_basis_matrices(model):
    basis = [_blocks(model, {(i, i): model.one()}) for i in range(3)]
    for i, j in _H3_OFF:
        basis.append(_brace(model, model.one(), i, j))
        basis.append(_brace(model, model.gen(), i, j))
    return basis


def h3_labels(model):
    g = "z" if model.name == "zeta" else "b"
    out = ["e11", "e22", "e33"]
    for i, j in _H3_OFF:
        out.append("1[%d%d]" % (i + 1, j + 1))
        out.append("%s[%d%d]" % (g, i + 1, j + 1))
    return out


def h3_algebra(field, model=None):
    """Hermitian 3x3 matrices over the quadratic extension, as a 9-dimensional
    structure-constant algebra under the symmetrized product."""
    model = model or zeta_model(field)
    products, _ = _product_table(field, h3_basis_matrices(model))
    return AlgebraTable(field, h3_labels(model), products)


def _h3_coordinates(model, x, i, j):
    """x[ij] for x in the extension, in the coordinates of ``h3_labels``:
    u 1[ij] + v g[ij] for x = u + v g and i < j, sigma(x)[ij] for x[ji],
    and (x + sigma x) e_ii on the diagonal, which a model whose x + sigma x
    leaves the field does not have."""
    f = model.field
    out = [f.zero] * 9
    if i == j:
        trace, outside = model.add(x, model.sigma(x))
        if outside:
            raise AlgebraError("x + sigma(x) lies outside the field")
        out[i] = trace
        return out
    if i > j:
        i, j, x = j, i, model.sigma(x)
    slot = 3 + 2 * _H3_OFF.index((i, j))
    out[slot], out[slot + 1] = x
    return out


def h3_rule_check(H, model=None):
    """The five defining multiplication rules of the hermitian algebra, read
    off the table H that ``h3_algebra(H.field, model)`` built, for x and y
    in the basis {1, g} of the extension (enough by bilinearity).

    Each brace has exact coordinates on H's basis (``_h3_coordinates``).
    ``_product_table`` raises when a product of two basis matrices leaves
    their span, so H's structure constants are the exact coordinates of
    those products, and by bilinearity H.mul of two braces is the coordinate
    vector of their symmetrized matrix product.  Both sides of a rule lie in
    the span of the basis matrices, which are independent, so a rule holds
    in H exactly when it holds for the matrices."""
    f = H.field
    model = model or zeta_model(f)
    els = [model.one(), model.gen()]
    idx = range(3)

    def brace(x, i, j):
        return _h3_coordinates(model, x, i, j)

    def twice(x, i, j, y, k, l):
        """2 x[ij] . y[kl], the 2 carried by x."""
        return H.mul(brace(model.add(x, x), i, j), brace(y, k, l))

    for x in els:
        for y in els:
            xy = model.mul(x, y)
            # 2 x[ij] . y[jk] = (xy)[ik] for distinct i, j, k
            for i, j, k in permutations(idx):
                if twice(x, i, j, y, j, k) != brace(xy, i, k):
                    return False
            # 2 x[ii] . y[ij] = ((x + sigma x) y)[ij] for i != j
            tr_y = model.mul(model.add(x, model.sigma(x)), y)
            for i, j in permutations(idx, 2):
                if twice(x, i, i, y, i, j) != brace(tr_y, i, j):
                    return False
            # 2 x[ij] . y[ij] = (x sigma(y))[ii] + (x sigma(y))[jj] for i != j
            w = model.mul(x, model.sigma(y))
            for i, j in _H3_OFF:
                rhs = [f.add(a, b) for a, b in zip(brace(w, i, i), brace(w, j, j))]
                if twice(x, i, j, y, i, j) != rhs:
                    return False
            # 2 x[ii] . y[ii] = ((x + sigma x)(y + sigma y))[ii]
            w = model.mul(model.add(x, model.sigma(x)), model.add(y, model.sigma(y)))
            for i in idx:
                if twice(x, i, i, y, i, i) != brace(w, i, i):
                    return False
            # x[ii] . y[kl] = 0 when i is outside {k, l}
            for i in idx:
                for k, l in _H3_OFF + [(t, t) for t in idx]:
                    if i not in (k, l) and any(H.mul(brace(x, i, i), brace(y, k, l))):
                        return False
    return True


# eta: the explicit isomorphism from the plane algebra to the hermitian model.
#
# The rows parallel class pairs line t with the off-diagonal slot _ETA_SLOTS[t];
# on the zero-sum part of line t the images are quarter-weighted combinations
# of 1[ij] and g[ij], with the middle line carrying the opposite sign on g.
_ETA_LINES = P3_PARALLEL_CLASSES[0]
_ETA_SLOTS = [(1, 2), (0, 2), (0, 1)]   # [23], [13], [12]
_ETA_SIGNS = [1, -1, 1]


def _h3_label_index(model):
    labels = h3_labels(model)
    return {l: t for t, l in enumerate(labels)}


def eta_matrix(field):
    """The 9x9 matrix of the isomorphism from the order-3 plane algebra onto
    the hermitian matrices of the zeta model: line idempotents go to diagonal
    units, and the zero-sum piece of each line of the rows class goes into the
    matching off-diagonal slot."""
    f = field
    idx = _h3_label_index(zeta_model(field))
    three_q = f.div(f.from_int(3), f.from_int(4))
    quarter = f.div(f.one, f.from_int(4))

    mixed_cols = []
    image_cols = []
    for t, line in enumerate(_ETA_LINES):
        e, _ = line_idempotents(f, line)
        mixed_cols.append(e)
        img = [f.zero] * 9
        img[t] = f.one  # e_{t+1,t+1}
        image_cols.append(img)
    for t, line in enumerate(_ETA_LINES):
        i, j = _ETA_SLOTS[t]
        sgn = _ETA_SIGNS[t]
        u_idx = idx["1[%d%d]" % (i + 1, j + 1)]
        g_idx = idx["z[%d%d]" % (i + 1, j + 1)]
        a, b, c = line
        for lam, mu in ((1, 0), (0, 1)):
            v = [f.zero] * 9
            v[a] = f.from_int(lam)
            v[b] = f.from_int(mu)
            v[c] = f.from_int(-(lam + mu))
            mixed_cols.append(v)
            img = [f.zero] * 9
            img[u_idx] = f.mul(three_q, f.from_int(lam + mu))
            img[g_idx] = f.mul(quarter, f.from_int(sgn * (lam - mu)))
            image_cols.append(img)

    mixed = Matrix(f, [list(r) for r in zip(*mixed_cols)])
    images = Matrix(f, [list(r) for r in zip(*image_cols)])
    return images * mixed.inverse()


def model_translation(field):
    """The coordinate change between the two presentations of the quadratic
    extension: the square root of -3 equals twice a primitive cube root of
    unity plus one.  Maps zeta-model coordinates to beta-model coordinates."""
    f = field
    zm = zeta_model(field)
    bm = beta_model(field)
    src = _h3_label_index(zm)
    dst = _h3_label_index(bm)
    m = Matrix.zeros(f, 9, 9)
    for i in range(3):
        m.rows[dst["e%d%d" % (i + 1, i + 1)]][src["e%d%d" % (i + 1, i + 1)]] = f.one
    for i, j in _H3_OFF:
        one_s = src["1[%d%d]" % (i + 1, j + 1)]
        z_s = src["z[%d%d]" % (i + 1, j + 1)]
        one_d = dst["1[%d%d]" % (i + 1, j + 1)]
        b_d = dst["b[%d%d]" % (i + 1, j + 1)]
        m.rows[one_d][one_s] = f.one
        m.rows[one_d][z_s] = f.one          # zeta = 1 + 2 beta
        m.rows[b_d][z_s] = f.from_int(2)
    return m


def eta_beta_printed_coefficient(field, lam, mu):
    """The sixth-root-of-unity form of the line map, transcribed literally:
    lam p1 + mu p2 + nu p3 (zero sum) goes to (lam xi + mu xi^5 + nu xi^3)
    with xi = beta + 1, as a beta-model coefficient pair."""
    f = field
    bm = beta_model(field)
    xi = (f.one, f.one)
    xi5 = bm.sigma(xi)                       # xi^5 = sigma(xi)
    xi3 = (f.neg(f.one), f.zero)             # xi^3 = -1
    nu = f.neg(f.add(lam, mu))
    acc = bm.zero()
    for coeff, root in ((lam, xi), (mu, xi5), (nu, xi3)):
        acc = bm.add(acc, (f.mul(coeff, root[0]), f.mul(coeff, root[1])))
    return acc


# ---------------------------------------------------------------------------
# Characteristic three: the ideal chain


@dataclass
class CharThreeChain:
    algebra: AlgebraTable
    z_space: Subspace
    t_space: Subspace
    dims: tuple
    ideals_ok: bool
    squares_ok: bool        # R^2 = T, T^2 = Z, Z^2 = 0
    z_trivial: bool
    t_zero_divisors: bool
    quotient_dim: int
    quotient_unital: bool
    algebra_not_solvable: bool
    r_solvable: bool


def _all_absolute_zero_divisors(A, s):
    """Whether every element of the subspace s is an absolute zero divisor.

    U_a is quadratic in a: U_(a+b) = U_a + U_b + V(a, b) with V bilinear.
    So U_(sum c_i t_i) = sum c_i^2 U_(t_i) + sum_(i<j) c_i c_j V(t_i, t_j)
    over a basis t of s, and U vanishes on s exactly when it vanishes on the
    basis rows and on each sum of two of them."""
    rows = s.rows
    sums = [[A.field.add(a, b) for a, b in zip(u, v)]
            for i, u in enumerate(rows) for v in rows[i + 1:]]
    return all(is_absolute_zero_divisor(A, v) for v in rows + sums)


def p3_char3_chain(field):
    """Over characteristic 3, the chain 0 < Z < T < R < J inside the plane
    algebra: the point sum, the line sums, and the zero-sum hyperplane."""
    if field.characteristic != 3:
        raise AlgebraError("the chain lives in characteristic 3")
    f = field
    plane = build_p3()
    A = matsuo_algebra(plane, f.div(f.one, f.from_int(2)), f)
    z_vec = [f.one] * 9
    z_space = Subspace.from_vectors(f, 9, [z_vec])
    t_vecs = []
    for line in plane.lines:
        v = [f.zero] * 9
        for p in line:
            v[p] = f.one
        t_vecs.append(v)
    t_space = Subspace.from_vectors(f, 9, t_vecs)
    r_vecs = []
    for i in range(8):
        v = [f.zero] * 9
        v[i] = f.one
        v[8] = f.neg(f.one)
        r_vecs.append(v)
    r_space = Subspace.from_vectors(f, 9, r_vecs)

    ideals_ok = all(is_ideal(A, s) for s in (z_space, t_space, r_space))
    squares_ok = (
        subspace_product(A, r_space, r_space) == t_space
        and subspace_product(A, t_space, t_space) == z_space
        and subspace_product(A, z_space, z_space).is_zero()
    )
    # with R^2 = T, T^2 = Z and Z^2 = 0 formed above, R > T > Z > 0 is R's
    # derived chain, so only a failed check needs it formed again
    r_solvable = squares_ok or is_solvable(A, r_space)
    z_trivial = is_trivial_element(A, z_vec)

    t_zero_divisors = _all_absolute_zero_divisors(A, t_space)

    # ideals_ok has already tested R
    qa = (_quotient_table if ideals_ok else quotient)(A, r_space)
    quotient_unital = (
        qa.dim == 1 and qa.mul_basis(0, 0) == [f.one]
    )
    return CharThreeChain(
        A, z_space, t_space,
        (z_space.dim, t_space.dim, r_space.dim),
        ideals_ok, squares_ok, z_trivial, t_zero_divisors,
        qa.dim, quotient_unital,
        not is_solvable(A, Subspace.full(f, 9)),
        r_solvable,
    )


# ---------------------------------------------------------------------------
# Rank-4 counterexample coefficients (sparse over the points actually touched)


@dataclass
class Rank4Report:
    coeff_a_left: Fraction
    coeff_a_right: Fraction
    coeff_acdb_left: Fraction
    coeff_acdb_right: Fraction

    def jordan_violated(self):
        return (self.coeff_a_left != self.coeff_a_right
                or self.coeff_acdb_left != self.coeff_acdb_right)


def rank4_check(group):
    """For generators a, b, c, d and x = a + b + c in the half-parameter
    Matsuo algebra of the group, the coefficients of the basis points a and
    a^(cdb) on the two sides of ((xx)d)x = (xx)(dx).  The computation is
    sparse: only points reached through repeated wedges are materialized.

    Products run in ints at scale 4: b_u b_v is 4 b_u for u = v, 0 when uv
    has order 2, b_u + b_v - b_(u^v) when it has order 3, and any other
    order raises AlgebraError.  Every point reached is a conjugate of an
    involutory generator, so u^v is read as vuv.  One memo per call forms
    each point product once for (u, v) and (v, u); both sides come out at
    scale 4^3 = 64."""
    if len(group.generators) != 4:
        raise AlgebraError("rank-4 check needs exactly four generators")
    a, b, c, d = group.generators
    if len({a, b, c, d}) != 4:
        raise AlgebraError("degenerate generator set")
    mul = group.mul
    for g in (a, b, c, d):
        if mul(g, g) != group.identity:
            raise AlgebraError("generators must be involutions")
    memo = {}

    def point_product(u, v):
        if u == v:
            return {u: 4}
        k = group.order_of_product(u, v)
        if k == 2:
            return {}
        if k != 3:
            raise AlgebraError("pair of involutions with product order %d" % k)
        return {u: 1, v: 1, mul(mul(v, u), v): -1}

    def product(x, y):
        out = {}
        for u, cu in x.items():
            for v, cv in y.items():
                uv = memo.get((u, v))
                if uv is None:
                    uv = memo[u, v] = memo[v, u] = point_product(u, v)
                cuv = cu * cv
                for p, w in uv.items():
                    out[p] = out.get(p, 0) + cuv * w
        return {p: w for p, w in out.items() if w}

    x, dd = {a: 1, b: 1, c: 1}, {d: 1}
    xx = product(x, x)
    left = product(product(xx, dd), x)
    right = product(xx, product(dd, x))
    w = mul(mul(c, d), b)
    acdb = mul(mul(group.inv(w), a), w)
    return Rank4Report(*(Fraction(side.get(p, 0), 64)
                         for p in (a, acdb) for side in (left, right)))


@dataclass
class EmbeddingReport:
    k: int
    r: int
    small_order: int
    embedded_order: int
    central_quotient: bool     # embedded maps onto small with central kernel
    kernel_size: int           # 0 when the generators define no homomorphism
    spaces_isomorphic: bool
    small_rank4: Rank4Report
    embedded_rank4: Rank4Report


def embedding_check(k, r):
    """The four block matrices inside the larger affine group replay the small
    affine group: the generated subgroup maps onto it generator-by-generator
    with central kernel (trivial for odd k, order 2 for k = 2, where the
    short all-ones translation survives in the larger quotient), the two
    triple systems on the involution classes are isomorphic, and the
    counterexample coefficients transfer unchanged."""
    small = build_wk_affine_a(k, 3)
    sub = wk_embedding_subgroup(k, r)
    # the graph of hom, |sub| pairs, is the largest structure: built last
    spaces_iso = pts_isomorphic(gamma_of_group(small), gamma_of_group(sub)) is not None
    rank4 = rank4_check(small), rank4_check(sub)
    hom = generator_homomorphism(sub, small)
    central = False
    kernel_size = 0
    if hom is None:
        small_order, sub_order = small.order(), sub.order()
    else:
        # the paired generators generate small, so hom's values are all of it
        small_order, sub_order = len(set(hom.values())), len(hom)
        kernel = [x for x, y in hom.items() if y == small.identity]
        kernel_size = len(kernel)
        central = all(
            sub.mul(z, g) == sub.mul(g, z)
            for z in kernel
            for g in sub.generators
        )
    return EmbeddingReport(
        k, r, small_order, sub_order,
        hom is not None and central,
        kernel_size,
        spaces_iso,
        *rank4,
    )


# ---------------------------------------------------------------------------
# Name-based builders shared by the command line and the tests


def space_from_name(name):
    name = name.strip()
    lowered = name.lower()
    if lowered == "p3":
        return build_p3()
    if lowered in ("p2dual", "p2v", "p2"):
        return build_p2_dual()
    raise AlgebraError("unknown space %r (expected P3 or P2dual)" % (name,))


_SYM_NAME = re.compile(r"sym:([1-9][0-9]*)")


def group_from_name(name):
    """Parse a group flag: ``sym:N`` with N in ASCII digits without sign or
    leading zero, ``3sq2``, ``W2A3`` or ``W3A3``, in either case."""
    name = name.strip()
    lowered = name.lower()
    sym = _SYM_NAME.fullmatch(lowered)
    if sym:
        check_digits(name, "group")
        n = int(sym[1])
        points = n * (n - 1) // 2  # transpositions; checked before building any
        if n >= 2 and points > MAX_NAMED_POINTS:
            raise AlgebraError("input too large: sym:%d has %d points, more than "
                               "the budget of %d" % (n, points, MAX_NAMED_POINTS))
        return build_sym(n)
    if lowered == "3sq2":
        return build_3sq2()
    if lowered in ("w2a3", "w3a3"):
        return build_wk_affine_a(int(lowered[1]), 3)
    raise AlgebraError("unknown group %r" % (name,))


def triple_system_from_cli(space=None, group=None, roots=None):
    picked = [x for x in (space, group, roots) if x]
    if len(picked) != 1:
        raise AlgebraError("specify exactly one of space, group or roots")
    if space:
        return space_from_name(space)
    if group:
        return gamma_of_group(group_from_name(group))
    return gamma_of_rootsystem(root_system_from_name(roots))

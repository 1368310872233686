import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from matsuo import linalg
from matsuo.constructions import (
    _flatten,
    jordan_from_roots,
    proj_matrix,
    zero_sum_sym_algebra,
)
from matsuo.fields import PrimeField, Rationals
from matsuo.fischer import root_system_from_name
from matsuo.linalg import (
    Matrix,
    Subspace,
    _int_lift,
    _lifted_jordan,
    _rref_rows,
    kernel,
    rref,
    span_coordinates,
    unit_vector,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _m(field, rows):
    return Matrix(field, [[field.from_int(x) for x in r] for r in rows])


def _rref_rows_reference(field, rows):
    """Oracle: Gauss-Jordan with the field's own operations, dividing the
    pivot row by its lead and clearing the column in every other row."""
    sub, mul, div = field.sub, field.mul, field.div
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    piv_r = 0
    for col in range(ncols):
        src = -1
        for r in range(piv_r, nrows):
            if rows[r][col]:
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
            if factor:
                rr = rows[r]
                for c in range(col, ncols):
                    rr[c] = sub(rr[c], mul(factor, pr[c]))
        pivots.append(col)
        piv_r += 1
        if piv_r == nrows:
            break
    return rows, pivots


def _matmul_reference(a, b):
    """Oracle: the product with the field's own operations, summing the
    products of nonzero entry pairs along each row and column."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in matrix product")
    f = a.field
    add, mul = f.add, f.mul
    cols = [[r[j] for r in b.rows] for j in range(b.ncols)]
    out = []
    for r in a.rows:
        row = []
        for c in cols:
            acc = f.zero
            for x, y in zip(r, c):
                if x and y:
                    acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(row)
    return Matrix(f, out, b.ncols)


def jordan_product(m1, m2, divisor=2):
    """(m1 m2 + m2 m1) / divisor for two square matrices of one size: each
    operand lifted once by ``_int_lift``, then the fused kernel
    ``_lifted_jordan``.  The default divisor gives the Jordan product,
    divisor 1 twice it.  The tests' product of two matrices, here and in
    test_constructions.py."""
    n = m1.nrows
    if not (m1.ncols == m2.nrows == m2.ncols == n):
        raise ValueError("dimension mismatch in Jordan product")
    return _lifted_jordan(m1.field, _int_lift(m1.rows), _int_lift(m2.rows), divisor)


def _jordan_product_reference(m1, m2, divisor=2):
    """Oracle: (m1 m2 + m2 m1) / divisor as two field-method products, an
    entrywise sum and a scaling by the inverse of divisor."""
    f = m1.field
    total = _matmul_reference(m1, m2) + _matmul_reference(m2, m1)
    return total.scale(f.inv(f.from_int(divisor)))


def _outcome(fn, *args):
    """fn(*args), or ValueError when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _int_rref_reference(rows, p):
    """``_int_rref`` by ``_rref_rows_reference``: the sparse int rows made
    field rows, eliminated, and each reduced row lifted back to ints (over Q
    by the lcm of its denominators, over F_p its residues with lead 1)."""
    field = PrimeField(p) if p else Q
    ncols = 1 + max((k for w in rows for k in w), default=-1)
    dense = [[field.from_int(w.get(k, 0)) for k in range(ncols)] for w in rows]
    red, pivots = _rref_rows_reference(field, dense)
    out = []
    for row in red[:len(pivots)]:
        scale = 1 if p else lcm(*(x.denominator for x in row))
        out.append({k: int(x * scale) for k, x in enumerate(row) if x})
    return out, pivots


def _on_reference(fn, *args):
    """``_outcome(fn, *args)`` with the reference elimination in place of
    ``_rref_rows`` and of the sparse ``_int_rref`` under it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rref_rows", _rref_rows_reference)
        mp.setattr(linalg, "_int_rref", _int_rref_reference)
        return _outcome(fn, *args)


def test_rref_identity_fixed_point():
    m = Matrix.identity(Q, 2)
    red, rank = rref(m)
    assert red == m and rank == 2


def test_rref_dependent_rows_over_q():
    red, rank = rref(_m(Q, [[1, 2], [2, 4]]))
    assert rank == 1
    assert red == _m(Q, [[1, 2], [0, 0]])


def test_rref_dependent_rows_mod_3():
    # by hand: over F3 the second row is 2x the first, so it eliminates
    red, rank = rref(_m(F3, [[1, 2], [2, 4]]))
    assert rank == 1
    assert red == _m(F3, [[1, 2], [0, 0]])


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        m = _m(Q, rows)
        red, _ = rref(m)
        red2, _ = rref(red)
        assert red == red2


def test_kernel_zero_and_identity():
    z = Matrix.zeros(Q, 3, 3)
    assert kernel(z).dim == 3
    assert kernel(Matrix.identity(Q, 3)).dim == 0


def test_kernel_basis_is_reduced_after_it_is_built():
    # the free column gets 1 and the pivot -row[free], so (1, 1) yields
    # (-1, 1); the Subspace holds its reduced form, which a second
    # elimination gives
    for f in (Q, F5):
        k = kernel(_m(f, [[1, 1]]))
        assert (k.rows, k.pivots) == ([[f.one, f.neg(f.one)]], [0])
        assert k == Subspace.from_vectors(f, 2, [[f.neg(f.one), f.one]])


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(50):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = _m(Q, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        _, rank = rref(m)
        assert rank + kernel(m).dim == nc


def test_matrix_inverse():
    m = _m(Q, [[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(Q, 2)
    with pytest.raises(ValueError):
        _m(Q, [[1, 2], [2, 4]]).inverse()


def test_subspace_self_intersection():
    s = Subspace.from_vectors(Q, 3, [[Q.from_int(1), Q.from_int(2), Q.from_int(0)]])
    assert s.intersect(s) == s
    assert s.add(s) == s


def test_subspace_contains_and_coordinates():
    v1 = [Q.from_int(1), Q.from_int(0), Q.from_int(1)]
    v2 = [Q.from_int(0), Q.from_int(1), Q.from_int(1)]
    s = Subspace.from_vectors(Q, 3, [v1, v2])
    w = [Q.from_int(2), Q.from_int(3), Q.from_int(5)]
    assert s.contains(w)
    assert not s.contains(unit_vector(Q, 3, 0))
    coords = s.coordinates(w)
    assert coords is not None
    rebuilt = [Q.zero] * 3
    for c, row in zip(coords, s.rows):
        for i, a in enumerate(row):
            rebuilt[i] = Q.add(rebuilt[i], Q.mul(c, a))
    assert rebuilt == w


def test_subspace_modular_dimension_law():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        def rand_space():
            k = rng.randint(0, n)
            return Subspace.from_vectors(
                Q, n,
                [[Q.from_int(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(k)],
            )
        s, t = rand_space(), rand_space()
        assert s.dim + t.dim == s.add(t).dim + s.intersect(t).dim


def test_subspace_field_mismatch():
    s = Subspace.from_vectors(Q, 2, [[Q.one, Q.zero]])
    t = Subspace.from_vectors(F3, 2, [[F3.one, F3.zero]])
    with pytest.raises(ValueError):
        s.add(t)


# ---------------------------------------------------------------------------
# span_coordinates against one elimination per vector


def _coords_in_rows(field, rows, v):
    """Oracle: coordinates of v on the independent rows, from an elimination
    of the rows as columns augmented by v; None if v is outside their span."""
    aug = [list(r) + [x] for r, x in zip([list(c) for c in zip(*rows)], v)]
    red, _ = _rref_rows_reference(field, aug)
    ncols = len(rows)
    coords = [field.zero] * ncols
    for row in red:
        pc = next((i for i, a in enumerate(row) if a != field.zero), None)
        if pc is None:
            continue
        if pc == ncols:
            return None  # inconsistent: v outside the span
        coords[pc] = row[ncols]
    return coords


def _greedy_basis(field, ambient, vectors):
    """Oracle: indices of the vectors that grow the span of those before them."""
    span, basis = Subspace.zero(field, ambient), []
    for k, v in enumerate(vectors):
        grown = span.add(Subspace.from_vectors(field, ambient, [v]))
        if grown.dim > span.dim:
            basis.append(k)
            span = grown
    return basis


def _random_vectors(field, rng, ambient, count):
    """Vectors drawn as combinations of a few random generators (so the set is
    often rank-deficient), with some zero and some repeated ones."""
    def rand():
        return [field.from_int(rng.randint(-3, 3)) for _ in range(ambient)]

    gens = [rand() for _ in range(rng.randint(0, ambient + 1))]
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1 or not gens:
            v = [field.zero] * ambient
        elif kind < 0.2 and out:
            v = list(rng.choice(out))
        else:
            v = [field.zero] * ambient
            for g in gens:
                c = field.from_int(rng.randint(-2, 2))
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, g)]
        out.append(v)
    return out


@pytest.mark.parametrize("field", [Q, F3, F7], ids=["Q", "F3", "F7"])
def test_span_coordinates_matches_per_vector_oracle(field):
    rng = random.Random(field.characteristic + 17)
    outside_seen = 0
    for _ in range(120):
        ambient = rng.randint(0, 6)
        vectors = _random_vectors(field, rng, ambient, rng.randint(0, 9))
        basis, coords = span_coordinates(field, vectors)
        assert basis == _greedy_basis(field, ambient, vectors)
        rows = [vectors[k] for k in basis]
        assert len(coords) == len(vectors)
        for v, c in zip(vectors, coords):
            assert c == _coords_in_rows(field, rows, v)
            rebuilt = [field.zero] * ambient
            for a, row in zip(c, rows):
                rebuilt = [field.add(x, field.mul(a, y)) for x, y in zip(rebuilt, row)]
            assert rebuilt == v
        if not rows:
            continue
        w = [field.from_int(rng.randint(-3, 3)) for _ in range(ambient)]
        outside = _coords_in_rows(field, rows, w) is None
        outside_seen += outside
        found, wc = span_coordinates(field, rows + [w])
        assert found == list(range(len(rows) + outside))
        if not outside:
            assert wc[-1] == _coords_in_rows(field, rows, w)
    assert outside_seen > 10


def test_span_coordinates_on_no_vectors():
    assert span_coordinates(Q, []) == ([], [])
    assert span_coordinates(Q, [[], []]) == ([], [[], []])


def _first_nonzero_columns(space):
    return [next(i for i, a in enumerate(row) if a) for row in space.rows]


@pytest.mark.parametrize("field", [Q, F3, F7], ids=["Q", "F3", "F7"])
def test_subspace_pivots_are_the_leading_columns(field):
    rng = random.Random(field.characteristic + 29)
    for _ in range(60):
        n = rng.randint(1, 6)
        s = Subspace.from_vectors(field, n, _random_vectors(field, rng, n, rng.randint(0, 6)))
        t = Subspace.from_vectors(field, n, _random_vectors(field, rng, n, rng.randint(0, 6)))
        m = Matrix(field, _random_vectors(field, rng, n, rng.randint(1, 6)))
        spaces = [s, t, s.add(t), s.intersect(t), kernel(m),
                  Subspace.zero(field, n), Subspace.full(field, n)]
        for space in spaces:
            assert space.pivots == _first_nonzero_columns(space)
            assert all(row[pc] == field.one for row, pc in zip(space.rows, space.pivots))


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("n", range(2, 8))
def test_zero_sum_table_matches_per_vector_oracle(field, n):
    zs = zero_sum_sym_algebra(field, n)
    mats = zs.basis_matrices
    rows = [_flatten(m) for m in mats]
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            prod = _jordan_product_reference(mats[a], mats[b])
            assert zs.algebra.mul_basis(a, b) == _coords_in_rows(field, rows, _flatten(prod))
    if field.from_int(n) == field.zero:
        assert zs.unit is None
    else:
        assert zs.unit == _coords_in_rows(field, rows, _flatten(zs.unit_matrix))


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "D4"])
def test_root_projection_table_matches_per_vector_oracle(field, name):
    rs = root_system_from_name(name)
    proj = jordan_from_roots(field, rs)
    mats = {r: proj_matrix(field, r) for r in rs.positive}
    flat = [_flatten(mats[r]) for r in rs.positive]
    basis = _greedy_basis(field, rs.ambient * rs.ambient, flat)
    assert proj.basis_roots == [rs.positive[k] for k in basis]
    rows = [flat[k] for k in basis]
    assert proj.root_coords == {r: _coords_in_rows(field, rows, v)
                                for r, v in zip(rs.positive, flat)}
    for i, r in enumerate(proj.basis_roots):
        for j in range(i, len(proj.basis_roots)):
            prod = _jordan_product_reference(mats[r], mats[proj.basis_roots[j]])
            assert proj.algebra.mul_basis(i, j) == _coords_in_rows(field, rows, _flatten(prod))


@pytest.mark.parametrize("field", [Q, F3, F7], ids=["Q", "F3", "F7"])
def test_subspace_coordinates_match_per_vector_oracle(field):
    rng = random.Random(field.characteristic + 41)
    outside_seen = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        s = Subspace.from_vectors(field, n, _random_vectors(field, rng, n, rng.randint(1, 5)))
        if not s.rows:
            continue
        for w in _random_vectors(field, rng, n, 3) + [[field.from_int(rng.randint(-3, 3))
                                                       for _ in range(n)]]:
            expected = _coords_in_rows(field, s.rows, w)
            outside_seen += expected is None
            assert s.coordinates(w) == expected
            assert s.contains(w) == (expected is not None)
    assert outside_seen > 10


# ---------------------------------------------------------------------------
# the integer elimination against the field-method reference


def _q_entries():
    """Rationals as matrices hold them: Fractions with small, mixed and large
    denominators, numerators near 10**30, and plain ints."""
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6)),
    )


@st.composite
def _matrices(draw, field, nrows=st.integers(0, 7), ncols=st.integers(0, 7)):
    """Row lists of the drawn shape, with zero rows and rows that combine two
    earlier ones, so that rank deficiency is common."""
    p = field.characteristic
    entries = _q_entries() if not p else st.integers(0, p - 1)
    ncols = draw(ncols)
    rows = []
    for _ in range(draw(nrows)):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            row = [draw(st.sampled_from([0, field.zero]))] * ncols
        elif kind == "combination" and rows:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [a * x + b * y for x, y in zip(u, v)]
            if p:
                row = [x % p for x in row]
        else:
            row = [draw(entries) for _ in range(ncols)]
        rows.append(row)
    return rows


def _assert_field_entries(field, rows):
    p = field.characteristic
    for row in rows:
        for x in row:
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is Fraction


FIELDS = pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=["Q", "F3", "F5", "F7"])


def _edge_matrices(field):
    big = 10**30
    p = field.characteristic
    shapes = [
        [],
        [[], []],
        [[0, 0, 0], [0, 0, 0]],
        [[1, 1]],
        [[1, -1], [-2, 2], [0, 0]],
        [[big + 1, -big, 7], [3, big - 1, -big], [big, 1, 0]],
        [[2, 4, -6, 8, 10, 1, 0], [1, 2, -3, 4, 5, 0, 1]],
        [[1, 2], [3, 4], [5, 6], [7, 8], [0, 0], [9, -1]],
    ]
    out = [[[x % p for x in r] for r in rows] if p else rows for rows in shapes]
    if not p:
        out.append([[Fraction(big + 1, 3), Fraction(-7, big - 1)],
                    [Fraction(5, 12), Fraction(big, 999983)]])
    return out


@FIELDS
def test_rref_rows_matches_the_reference_on_edge_cases(field):
    for rows in _edge_matrices(field):
        expected = _rref_rows_reference(field, [list(r) for r in rows])
        given_rows = [list(r) for r in rows]
        got = _rref_rows(field, given_rows)
        assert got == expected, rows
        assert got[0] is given_rows
        _assert_field_entries(field, got[0])


def _sparse_edge_matrices(field):
    """Shapes that the sparse elimination treats apart: an arrowhead matrix,
    whose first pivot fills every row; an 8 x 8 matrix augmented by the
    identity, as ``inverse`` eliminates it; and rows that are zero, repeated,
    or zero only after reduction."""
    p = field.characteristic
    arrow = [[1] * 7] + [[1] + [(i + 2) * (j == i) for j in range(6)] for i in range(6)]
    # L U for unit triangular L and U: determinant 1 in every field
    lower = [[i + j + 1 if j < i else int(i == j) for j in range(8)] for i in range(8)]
    upper = [[i * j + 1 if j > i else int(i == j) for j in range(8)] for i in range(8)]
    square = [[sum(lower[i][t] * upper[t][j] for t in range(8)) for j in range(8)]
              for i in range(8)]
    augmented = [row + [int(i == j) for j in range(8)] for i, row in enumerate(square)]
    repeated = [[0, 0, 0, 0], [2, 4, 0, 6], [0, 0, 0, 0], [2, 4, 0, 6],
                [1, 2, 0, 3], [0, 1, 1, 0], [2, 5, 1, 6], [0, 0, 0, 0]]
    shapes = [arrow, augmented, repeated]
    return [[[x % p for x in r] for r in rows] if p else rows for rows in shapes]


@FIELDS
def test_sparse_elimination_matches_the_reference_on_fill_in_and_repeats(field):
    for rows in _sparse_edge_matrices(field):
        expected = _rref_rows_reference(field, [list(r) for r in rows])
        got = _rref_rows(field, [list(r) for r in rows])
        assert got == expected, rows
        _assert_field_entries(field, got[0])
        m = Matrix(field, rows)
        assert kernel(m) == _on_reference(kernel, m)
        assert span_coordinates(field, rows) == _on_reference(span_coordinates,
                                                              field, rows)
    square = Matrix(field, [r[:8] for r in _sparse_edge_matrices(field)[1]])
    inverse = square.inverse()
    assert inverse == _on_reference(square.inverse)
    assert square * inverse == Matrix.identity(field, 8)
    # the repeated rows span two dimensions in every odd characteristic
    assert kernel(Matrix(field, _sparse_edge_matrices(field)[2])).dim == 2


@FIELDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rref_rows_matches_the_reference(field, data):
    rows = data.draw(_matrices(field))
    expected = _rref_rows_reference(field, [list(r) for r in rows])
    got = _rref_rows(field, [list(r) for r in rows])
    assert got == expected
    _assert_field_entries(field, got[0])


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linalg_on_the_integer_elimination_matches_the_reference(field, data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(_matrices(field, st.integers(1, 5), st.just(n)))
    m = Matrix(field, rows)
    assert kernel(m) == _on_reference(kernel, m)
    assert span_coordinates(field, rows) == _on_reference(span_coordinates, field, rows)
    square = Matrix(field, data.draw(_matrices(field, st.just(n), st.just(n))))
    assert _outcome(square.inverse) == _on_reference(square.inverse)
    other = data.draw(_matrices(field, st.integers(0, 5), st.just(n)))
    s = Subspace.from_vectors(field, n, rows)
    t = Subspace.from_vectors(field, n, other)
    assert s.intersect(t) == _on_reference(s.intersect, t)
    assert _on_reference(Subspace.from_vectors, field, n, rows) == s


def test_inverse_of_a_singular_matrix_raises_on_both_eliminations():
    for field in (Q, F3, F5, F7):
        singular = _m(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        with pytest.raises(ValueError):
            singular.inverse()
        assert _on_reference(singular.inverse) is ValueError
        regular = _m(field, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert regular.inverse() == _on_reference(regular.inverse)


# ---------------------------------------------------------------------------
# the integer-row products against the field-method reference


@FIELDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matmul_matches_the_reference(field, data):
    n, k, m = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = Matrix(field, data.draw(_matrices(field, st.just(n), st.just(k))), k)
    b = Matrix(field, data.draw(_matrices(field, st.just(k), st.just(m))), m)
    got = a * b
    assert got == _matmul_reference(a, b)
    assert (got.nrows, got.ncols) == (n, m)
    _assert_field_entries(field, got.rows)


@FIELDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_jordan_product_matches_the_reference(field, data):
    n = data.draw(st.integers(0, 6))
    m1 = Matrix(field, data.draw(_matrices(field, st.just(n), st.just(n))), n)
    m2 = Matrix(field, data.draw(_matrices(field, st.just(n), st.just(n))), n)
    divisor = data.draw(st.sampled_from([1, 2, 4]))
    got = jordan_product(m1, m2, divisor)
    assert got == _jordan_product_reference(m1, m2, divisor)
    assert got == jordan_product(m2, m1, divisor)
    assert (got.nrows, got.ncols) == (n, n)
    _assert_field_entries(field, got.rows)


@FIELDS
def test_products_match_the_reference_on_edge_shapes(field):
    big = 10**30
    p = field.characteristic
    cases = [
        ([[3]], [[5]]),                                   # 1x1
        ([[1, 2], [3, 4], [5, 6], [7, 8]], [[1, -1, 2], [0, 4, -3]]),  # tall
        ([[2, 0, -1, 4, 1]], [[1], [2], [0], [-1], [3]]),  # wide
        ([[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]]),        # all zero
        ([[big + 1, -big], [big, 1]], [[big - 1, 7], [-3, big]]),
    ]
    for left, right in cases:
        if p:
            left = [[x % p for x in r] for r in left]
            right = [[x % p for x in r] for r in right]
        a, b = Matrix(field, left), Matrix(field, right)
        got = a * b
        assert got == _matmul_reference(a, b)
        _assert_field_entries(field, got.rows)
    if not p:
        a = Matrix(Q, [[Fraction(big + 1, 3), 2], [Fraction(-7, big - 1), Fraction(5, 12)]])
        b = Matrix(Q, [[1, Fraction(big, 999983)], [Fraction(1, 6), -4]])
        assert a * b == _matmul_reference(a, b)
        assert jordan_product(a, b) == _jordan_product_reference(a, b)
        _assert_field_entries(Q, (a * b).rows)
        _assert_field_entries(Q, jordan_product(a, b).rows)


@FIELDS
def test_products_keep_the_width_of_matrices_with_no_rows(field):
    empty = Matrix.zeros(field, 0, 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    prod = empty * Matrix.zeros(field, 3, 2)
    assert (prod.nrows, prod.ncols) == (0, 2)
    assert prod == _matmul_reference(empty, Matrix.zeros(field, 3, 2))
    inner = Matrix.zeros(field, 2, 0) * empty
    assert inner == Matrix.zeros(field, 2, 3)
    assert Matrix.zeros(field, 0, 0) * Matrix.zeros(field, 0, 0) == Matrix.zeros(field, 0, 0)
    assert jordan_product(Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 0)).rows == []
    t = Matrix(field, [[], []]).transpose()
    assert (t.nrows, t.ncols) == (0, 2)
    t = empty.transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    assert t.transpose() == empty
    assert Matrix.zeros(field, 0, 3) != Matrix.zeros(field, 0, 2)


@FIELDS
def test_products_refuse_a_dimension_mismatch(field):
    a = Matrix.zeros(field, 2, 3)
    for left, right in [(a, a), (Matrix.zeros(field, 0, 3), Matrix.zeros(field, 2, 2))]:
        with pytest.raises(ValueError):
            left * right
    square = Matrix.identity(field, 2)
    for m1, m2 in [(a, a), (square, Matrix.identity(field, 3)), (square, a)]:
        with pytest.raises(ValueError):
            jordan_product(m1, m2)

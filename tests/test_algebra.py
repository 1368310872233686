import json
import math
import random
import time
from itertools import combinations, product

import pytest

from matsuo.fields import PrimeField, Rationals, field_from_name, scalar_from_string
from matsuo.linalg import Matrix, Subspace, kernel, unit_vector
from matsuo.fischer import (PartialTripleSystem, build_p3, gamma_of_group,
                            gamma_of_rootsystem, root_system_from_name)
from matsuo import algebra
from matsuo.groups import _perm_mul, build_wk_affine_a, mulclose
from matsuo.algebra import (
    AlgebraError,
    AlgebraTable,
    AxisCheck,
    FusionRules,
    algebra_from_json,
    algebra_to_json,
    basis_axis_checks,
    basis_miyamoto_permutations,
    check_axis,
    eigen_decomposition,
    is_absolute_zero_divisor,
    is_ideal,
    is_multiplicative,
    is_solvable,
    is_trivial_element,
    iso_check,
    jordan_check,
    linearized_gap,
    miyamoto,
    phi_alpha,
    quotient,
    subspace_product,
    u_operator,
    _orbit_quadruples,
    _table_automorphisms,
)
from matsuo import claims
from matsuo.claims import count_linearized_quadruples
from matsuo.constructions import (beta_model, h3_algebra, line_idempotents,
                                  matsuo_algebra, p3_unit, triple_system_from_cli,
                                  zeta_model, zero_sum_sym_algebra)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
HALF = Q.parse("1/2")


def ref_mul(A, x, y):
    """Reference product: the bilinear extension of the stored constants
    ``A.table`` with the field's own add and mul.  Independent of the integer
    view that ``A.mul`` runs on."""
    f = A.field
    acc = [f.zero] * A.dim
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            if cx and cy:
                c = f.mul(cx, cy)
                for k, v in A.table[i][j].items():
                    acc[k] = f.add(acc[k], f.mul(c, v))
    return acc


def ref_ad(A, x):
    """Reference matrix of multiplication by x, column j being x b_j."""
    cols = [ref_mul(A, x, unit_vector(A.field, A.dim, j)) for j in range(A.dim)]
    return Matrix(A.field, [list(r) for r in zip(*cols)])


def linearized_identity_holds(A, i, j, y, k):
    """Direct dense evaluation of the linearized identity on one basis
    quadruple (x, z, y, w) = (b_i, b_j, b_y, b_k) through ``ref_mul``;
    independent of the integer scan ``linearized_gap``."""
    f = A.field
    m = lambda a, b: ref_mul(A, a, b)
    e = lambda t: unit_vector(f, A.dim, t)
    x, z, yv, w = e(i), e(j), e(y), e(k)
    lhs = [f.zero] * A.dim
    for t in (
        m(m(m(x, z), yv), w),
        m(m(m(z, w), yv), x),
        m(m(m(w, x), yv), z),
    ):
        lhs = [f.add(a, b) for a, b in zip(lhs, t)]
    rhs = [f.zero] * A.dim
    for t in (
        m(m(x, z), m(yv, w)),
        m(m(z, w), m(yv, x)),
        m(m(w, x), m(yv, z)),
    ):
        rhs = [f.add(a, b) for a, b in zip(rhs, t)]
    return lhs == rhs


def p3_algebra(field=Q):
    alpha = field.div(field.one, field.from_int(2))
    return matsuo_algebra(build_p3(), alpha, field)


def direct_sum(A, B):
    """Orthogonal direct sum over A's field: concatenated bases, zero cross
    products."""
    labels = list(A.labels) + list(B.labels)
    products = {(i, j): A.sparse_row(i, j)
                for i in range(A.dim) for j in range(i, A.dim)}
    shift = A.dim
    for i in range(B.dim):
        for j in range(i, B.dim):
            products[(shift + i, shift + j)] = {
                shift + k: c for k, c in B.sparse_row(i, j).items()}
    return AlgebraTable(A.field, labels, products)


def test_phi_alpha_table_contents():
    rules = phi_alpha(Q, HALF)
    one, zero = Q.one, Q.zero
    assert rules.eigenvalues == (one, zero, HALF)
    assert rules.allowed(one, one) == (one,)
    assert rules.allowed(one, zero) == ()
    assert rules.allowed(one, HALF) == (HALF,)
    assert rules.allowed(zero, zero) == (zero,)
    assert rules.allowed(zero, HALF) == (HALF,)
    assert rules.allowed(HALF, HALF) == (one, zero)
    assert rules.allowed(HALF, one) == rules.allowed(one, HALF)
    with pytest.raises(AlgebraError):
        phi_alpha(Q, Q.one)


def test_points_are_idempotent():
    A = p3_algebra()
    for i in range(9):
        e = unit_vector(Q, 9, i)
        assert A.mul(e, e) == e


def test_point_product_formula():
    A = p3_algebra()
    prod = A.mul_basis(0, 1)
    expected = [Q.zero] * 9
    expected[0] = Q.parse("1/4")
    expected[1] = Q.parse("1/4")
    expected[2] = Q.parse("-1/4")
    assert prod == expected


def _random_pairs(rng, field, entries, dim):
    """Seeded products b_i b_j for i <= j as coordinate lists drawn from
    entries, with about a quarter of the pairs left out."""
    return {(i, j): [rng.choice(entries) for _ in range(dim)]
            for i in range(dim) for j in range(i, dim) if rng.random() < 0.75}


def _store_fixtures():
    """(field, pair products) over Q with denominators 2, 4, 9 and 5, over F3
    and over F7, each entry list weighted towards zero."""
    rng = random.Random(12)
    over_q = [Q.parse(s) for s in ("1/2", "-3/4", "5/9", "-2/5", "7", "0", "0", "0")]
    return [(field, _random_pairs(rng, field, entries, dim))
            for field, entries, dim in ((Q, over_q, 6), (F3, [0, 0, 1, 2], 7),
                                        (F7, [0, 0, 0, 1, 3, 6], 5))]


def _dense_int_view(field, dim, products):
    """The integer view as the dense table gives it: every product b_a b_b,
    over Q scaled by the lcm of all denominators, over F_p as residues."""
    dense = [[products.get((min(a, b), max(a, b)), [field.zero] * dim)
              for b in range(dim)] for a in range(dim)]
    p = field.characteristic
    scale = 1 if p else math.lcm(*(c.denominator for rows in dense
                                   for vec in rows for c in vec))
    rows = [[{k: c if p else c.numerator * (scale // c.denominator)
              for k, c in enumerate(vec) if c} for vec in rows] for rows in dense]
    return rows, scale, p


def test_the_table_stores_each_product_once_and_only_its_nonzero_constants():
    for field, products in _store_fixtures():
        dim = len(next(iter(products.values())))
        assert len(products) < dim * (dim + 1) // 2  # some pairs left out
        A = AlgebraTable(field, ["b%d" % i for i in range(dim)], products)
        for i in range(dim):
            for j in range(dim):
                given = products.get((min(i, j), max(i, j)), [field.zero] * dim)
                assert A.mul_basis(i, j) == A.mul_basis(j, i) == given
                assert A.table[i][j] is A.table[j][i]
                assert all(A.table[i][j].values())
        view = A.int_view()
        assert (view.rows, view.scale, view.modulus) == _dense_int_view(field, dim, products)
        assert all(view.rows[a][b] is view.rows[b][a]
                   for a in range(dim) for b in range(dim))
        as_dicts = {pair: dict(enumerate(vec)) for pair, vec in products.items()}
        assert AlgebraTable(field, A.labels, as_dicts).table == A.table


def test_the_table_takes_products_only_for_basis_pairs_i_le_j():
    for pair in ((1, 0), (0, 2), (-1, 0)):
        with pytest.raises(AlgebraError):
            AlgebraTable(Q, ["a", "b"], {pair: [Q.one, Q.zero]})


def test_mul_with_zero_vector():
    A = p3_algebra()
    z = [Q.zero] * 9
    assert A.mul(z, unit_vector(Q, 9, 3)) == z


def test_ad_matrix_columns():
    A = p3_algebra()
    x = unit_vector(Q, 9, 0)
    m = A.ad(x)
    for j in range(9):
        assert [r[j] for r in m.rows] == A.mul(x, unit_vector(Q, 9, j))


def _seeded_vectors(f, dim, seed=5, count=4):
    """Seeded vectors with fractional entries n/d (over F_p their residues),
    about a third of them zero, plus the zero vector and a basis vector."""
    rng = random.Random(seed)
    dens = [d for d in (1, 2, 3, 5, 7) if f.from_int(d)]
    vecs = [[f.div(f.from_int(rng.choice((0, 0, 0, 1, -1, 2, -3, 4))),
                   f.from_int(rng.choice(dens))) for _ in range(dim)]
            for _ in range(count)]
    return vecs + [[f.zero] * dim, unit_vector(f, dim, dim - 1)]


_PRODUCT_FIXTURES = {
    "A2-third-Q": lambda: _root_matsuo("A2", Q.parse("1/3"), Q),
    "random-630-Q": lambda: _random_630(),
    "zero-sum-4-Q": lambda: zero_sum_sym_algebra(Q, 4).algebra,
    "A3-half-F3": lambda: _root_matsuo("A3", F3.div(F3.one, F3.from_int(2)), F3),
    "A3-third-F7": lambda: _root_matsuo("A3", PrimeField(7).div(1, 3), PrimeField(7)),
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_FIXTURES))
def test_mul_and_ad_match_reference_product(name):
    A = _PRODUCT_FIXTURES[name]()
    vecs = _seeded_vectors(A.field, A.dim)
    if not A.field.characteristic:
        assert any(c.denominator > 1 for v in vecs for c in v)
    for x in vecs:
        got, want = A.ad(x), ref_ad(A, x)
        assert got == want
        assert ([[type(c) for c in r] for r in got.rows]
                == [[type(c) for c in r] for r in want.rows])
        for y in vecs:
            got, want = A.mul(x, y), ref_mul(A, x, y)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]


def test_mul_and_ad_reject_vectors_of_wrong_length():
    A = p3_algebra()
    e = unit_vector(Q, 9, 0)
    for v in ([Q.one] * 8, [Q.one] * 10, []):
        with pytest.raises(AlgebraError):
            A.ad(v)
        with pytest.raises(AlgebraError):
            A.mul(v, e)
        with pytest.raises(AlgebraError):
            A.mul(e, v)


def test_jordan_check_on_small_matsuo():
    gam = gamma_of_rootsystem(root_system_from_name("A2"))
    A = matsuo_algebra(gam, HALF, Q)
    assert jordan_check(A)


def test_jordan_check_p3_mod_3():
    f = F3
    A = matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    assert jordan_check(A)


def test_jordan_counterexample_witness_is_generator_sum():
    grp = build_wk_affine_a(2, 3)
    A = matsuo_algebra(gamma_of_group(grp), HALF, Q)
    x = [Q.one] * 3 + [Q.zero] * (A.dim - 3)
    y = unit_vector(Q, A.dim, 3)
    xx = ref_mul(A, x, x)
    assert ref_mul(A, ref_mul(A, x, y), xx) != ref_mul(A, x, ref_mul(A, y, xx))
    res = jordan_check(A)
    assert not res
    assert res.witness == _jordan_scan_reference(A) == (0, 1, 3, 2)


def brute_force_jordan(A, coefficients=(-1, 0, 1, 2)):
    """Oracle: for every grid vector a, (ab)(aa) - a(b(aa)) vanishes for all b
    exactly when the adjoints of a and aa commute.  Independent of the
    linearized quadruple scan."""
    f = A.field
    grid = [f.from_int(c) for c in coefficients]
    for a in product(grid, repeat=A.dim):
        a = list(a)
        ad_a = ref_ad(A, a)
        ad_aa = ref_ad(A, ref_mul(A, a, a))
        if ad_a * ad_aa != ad_aa * ad_a:
            return False
    return True


def test_jordan_check_agrees_with_brute_force_on_small_fixtures():
    gam2 = gamma_of_rootsystem(root_system_from_name("A2"))
    one_dim = AlgebraTable(Q, ["e"], {(0, 0): [Q.one]})
    fixtures = [
        matsuo_algebra(gam2, HALF, Q),                     # jordan, dim 3
        matsuo_algebra(gam2, Q.parse("1/3"), Q),           # not jordan, dim 3
        direct_sum(matsuo_algebra(gam2, HALF, Q), one_dim),        # dim 4
        direct_sum(matsuo_algebra(gam2, Q.parse("1/3"), Q), one_dim),
    ]
    for A in fixtures:
        assert bool(jordan_check(A)) == brute_force_jordan(A)


def test_linearized_identity_direct_evaluation_matches():
    gam = gamma_of_rootsystem(root_system_from_name("A3"))
    A = matsuo_algebra(gam, HALF, Q)
    assert jordan_check(A)
    for quad in ((0, 1, 2, 3), (1, 1, 4, 5), (0, 2, 2, 2)):
        assert linearized_identity_holds(A, *quad)


def test_linearized_gap_matches_dense_oracle_on_failing_algebras():
    A = matsuo_algebra(gamma_of_rootsystem(root_system_from_name("A2")),
                       Q.parse("1/3"), Q)
    one_dim = AlgebraTable(Q, ["e"], {(0, 0): [Q.one]})
    for B in (A, direct_sum(A, one_dim)):
        for quad in product(range(B.dim), repeat=4):
            assert bool(linearized_gap(B, *quad)) == (
                not linearized_identity_holds(B, *quad)), quad
    assert count_linearized_quadruples(A) == (81, 54)


def _count_linearized_quadruples_reference(A):
    """Oracle: the plain ordered count, ``linearized_gap`` at every one of the
    dim**4 quadruples (i, j, y, k)."""
    quads = product(range(A.dim), repeat=4)
    return A.dim ** 4, sum(1 for q in quads if linearized_gap(A, *q))


def _failing_multiplicities(A):
    """The numbers of distinct indices among i, j, k over the failing
    quadruples (i, j, y, k)."""
    return {len({i, j, k}) for i, j, y, k in product(range(A.dim), repeat=4)
            if linearized_gap(A, i, j, y, k)}


def test_linearized_count_matches_the_ordered_count():
    third = {f: f.div(f.one, f.from_int(3)) for f in (Q, F5)}
    for A, expected in ((p3_algebra(F3), (6561, 0)),
                        (_root_matsuo("D4", HALF, Q), (20736, 5184)),
                        (_root_matsuo("A2", Q.parse("1/3"), Q), (81, 54)),
                        *((_root_matsuo("A4", third[f], f), (10000, 3780))
                          for f in (Q, F5)),
                        *((_root_matsuo("D4", third[f], f), (20736, 13824))
                          for f in (Q, F5))):
        assert count_linearized_quadruples(A) == expected
        assert _count_linearized_quadruples_reference(A) == expected
    # seeded tables on which every class of triples (i, j, k) has a failure
    rng = random.Random(14)
    for field, entries in ((F3, [0, 0, 1, 2]), (F5, [0, 0, 1, 2, 3, 4]),
                           (Q, [Q.parse(s) for s in ("0", "0", "1", "-1/2", "2/3")])):
        for dim in (2, 3, 4):
            A = _random_table(rng, field, entries, dim)
            assert (count_linearized_quadruples(A)
                    == _count_linearized_quadruples_reference(A))
            # a gap at i = j = k is three times the defining identity's, so
            # over F_3 that class never fails
            classes = {2, 3} if field == F3 else {1, 2, 3}
            assert _failing_multiplicities(A) == {m for m in classes if m <= dim}


def _root_matsuo(name, alpha, field):
    return matsuo_algebra(gamma_of_rootsystem(root_system_from_name(name)), alpha, field)


def _dense_gap(A, i, j, y, k):
    """The linearized identity's gap at one basis quadruple, by dense
    products over the algebra's field (``ref_mul``)."""
    f = A.field
    m = lambda a, b: ref_mul(A, a, b)
    e = lambda t: unit_vector(f, A.dim, t)
    gap = [f.zero] * A.dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        ab = m(e(a), e(b))
        lhs = m(m(ab, e(y)), e(c))
        rhs = m(ab, m(e(y), e(c)))
        gap = [f.add(g, f.sub(u, v)) for g, u, v in zip(gap, lhs, rhs)]
    return gap


def _assert_gap_matches_oracle(A):
    """linearized_gap agrees with the dense oracle on every quadruple; over Q
    its entries are the dense gap times D**3.  Returns the failure count."""
    view = A.int_view()
    cube = view.scale ** 3
    failures = 0
    for quad in product(range(A.dim), repeat=4):
        gap = linearized_gap(A, *quad)
        assert bool(gap) == (not linearized_identity_holds(A, *quad)), quad
        dense = _dense_gap(A, *quad)
        if view.modulus:
            assert gap == {r: w for r, w in enumerate(dense) if w}, quad
        else:
            assert gap == {r: w * cube for r, w in enumerate(dense) if w}, quad
        failures += bool(gap)
    return failures


def _random_table(rng, field, entries, dim):
    products = {(i, j): [rng.choice(entries) for _ in range(dim)]
                for i in range(dim) for j in range(i, dim)}
    return AlgebraTable(field, ["b%d" % i for i in range(dim)], products)


def _random_630():
    """A seeded random 3-dim table over Q whose denominators have lcm 630."""
    entries = [Q.parse(s) for s in ("3/10", "-5/9", "1/7", "0", "0", "1", "-2")]
    return _random_table(random.Random(7), Q, entries, 3)


def test_integer_gap_matches_dense_oracle_over_q_with_scaled_denominators():
    fixtures = [
        (_root_matsuo("A2", Q.parse("1/3"), Q), 6),
        (_root_matsuo("A3", Q.parse("2/7"), Q), 7),
        (_root_matsuo("A2", HALF, Q), 4),
        (_random_630(), 630),
    ]
    failures = []
    for A, scale in fixtures:
        view = A.int_view()
        assert (view.scale, view.modulus) == (scale, 0)
        assert A.int_view() is view
        failures.append(_assert_gap_matches_oracle(A))
    assert failures[2] == 0
    assert failures[0] and failures[1] and failures[3]


def test_integer_gap_matches_dense_oracle_over_prime_fields():
    F7 = PrimeField(7)
    fixtures = [
        _root_matsuo("A3", F3.div(F3.one, F3.from_int(2)), F3),
        _root_matsuo("A3", F7.div(F7.one, F7.from_int(3)), F7),
        _root_matsuo("A2", F7.div(F7.one, F7.from_int(2)), F7),
    ]
    failures = []
    for A in fixtures:
        view = A.int_view()
        assert (view.scale, view.modulus) == (1, A.field.p)
        failures.append(_assert_gap_matches_oracle(A))
    assert failures[0] == 0 and failures[1] and failures[2] == 0


def test_jordan_check_frozen_verdicts():
    F3_half = F3.div(F3.one, F3.from_int(2))
    w2a3 = matsuo_algebra(gamma_of_group(build_wk_affine_a(2, 3)), HALF, Q)
    # the pair of _f3_diagonal_failure first: its diagonal gap at (0, 0) fails
    # before the walk meets the first linearized failure, which must win
    pair = AlgebraTable(F3, ["a", "b"], {(0, 0): [0, 1], (1, 1): [1, 0]})
    pair_w2a3 = direct_sum(pair, matsuo_algebra(
        gamma_of_group(build_wk_affine_a(2, 3)), F3_half, F3))
    assert algebra._diagonal_gap(pair_w2a3, 0, 0)
    assert _jordan_scan_reference(pair_w2a3) == (2, 3, 5, 4)
    for A, expected in (
        (_root_matsuo("A3", HALF, Q), (True, ())),
        (matsuo_algebra(build_p3(), F3_half, F3), (True, ())),
        (w2a3, (False, (0, 1, 3, 2))),
        (_f3_diagonal_failure(), (False, (9, 9, 9, 9))),
        (pair_w2a3, (False, (2, 3, 5, 4))),
    ):
        res = jordan_check(A)
        assert (res.is_jordan, res.witness) == expected


def _jordan_scan_reference(A):
    """The plain quadruple scan: the first (i, j, y, k) in i <= j <= k,
    all-y order with a nonzero ``linearized_gap``, or None.  Independent of
    any automorphism of the table."""
    dim = A.dim
    for i in range(dim):
        for j in range(i, dim):
            for k in range(j, dim):
                for y in range(dim):
                    if linearized_gap(A, i, j, y, k):
                        return (i, j, y, k)
    return None


def _first_failure(A, gens):
    """The first quadruple of ``_orbit_quadruples(A.dim, gens)`` with a
    nonzero ``linearized_gap``, or None."""
    return next((q for q in _orbit_quadruples(A.dim, gens) if linearized_gap(A, *q)),
                None)


def _table_automorphisms_reference(A):
    """Every candidate sigma_x, proved on every pair: sigma_x sends y to the
    one index of supp(b_x b_y) outside {x, y}, and y to itself when there is
    no such single index; it is kept when it is a permutation other than the
    identity that maps the integer view onto itself."""
    rows = A.int_view().rows
    dim = A.dim
    identity = tuple(range(dim))
    kept = {}
    for x in range(dim):
        sigma = _candidate(rows, x)
        if (sigma != identity and len(set(sigma)) == dim
                and all(rows[sigma[i]][sigma[j]]
                        == {sigma[k]: c for k, c in rows[i][j].items()}
                        for i in range(dim) for j in range(i, dim))):
            kept[sigma] = None
    return tuple(kept)


def _candidate(rows, x):
    """sigma_x: y goes to the one index of supp(b_x b_y) outside {x, y}, or
    to itself when there is no such single index."""
    sigma = []
    for y in range(len(rows)):
        outside = [k for k in rows[x][y] if k != x and k != y]
        sigma.append(outside[0] if len(outside) == 1 else y)
    return tuple(sigma)


def _tampered(A, i, j, k, value):
    """A copy of A's table with the coordinate k of b_i b_j = b_j b_i, i <= j,
    set to value."""
    products = {(a, b): dict(A.table[a][b])
                for a in range(A.dim) for b in range(a, A.dim)}
    products[(i, j)][k] = value
    return AlgebraTable(A.field, A.labels, products)


def _one_dim(f):
    return AlgebraTable(f, ["e"], {(0, 0): [f.one]})


def _scan_fixtures():
    """(id, builder) pairs: Matsuo algebras of A2-A5 at 1/2 and 1/3 over Q,
    F5 and F7, P3 over F3, the hermitian algebra (no automorphism kept), a
    direct sum with two orbits, D4 and W2A3, whose first failures have j = 1,
    and Matsuo tables with one entry changed."""
    F5, F7 = PrimeField(5), PrimeField(7)
    out = []
    for f in (Q, F5, F7):
        for name in ("A2", "A3", "A4", "A5"):
            for d in (2, 3):
                out.append(("%s-1/%d-%s" % (name, d, f.name),
                            lambda name=name, d=d, f=f:
                            _root_matsuo(name, f.div(f.one, f.from_int(d)), f)))
    third = Q.parse("1/3")
    out += [
        ("P3-F3", lambda: p3_algebra(F3)),
        ("h3-Q", lambda: h3_algebra(Q)),
        ("h3-F7", lambda: h3_algebra(F7)),
        ("A3+1-half", lambda: direct_sum(_root_matsuo("A3", HALF, Q), _one_dim(Q))),
        ("A3+1-third", lambda: direct_sum(_root_matsuo("A3", third, Q), _one_dim(Q))),
        ("D4-half-Q", lambda: _root_matsuo("D4", HALF, Q)),
        ("W2A3-half-Q", lambda: matsuo_algebra(gamma_of_group(build_wk_affine_a(2, 3)),
                                               HALF, Q)),
        ("A3-half-b0b0", lambda: _tampered(_root_matsuo("A3", HALF, Q), 0, 0, 0, Q.from_int(2))),
        ("A3-half-b0b1", lambda: _tampered(_root_matsuo("A3", HALF, Q), 0, 1, 0, Q.one)),
        ("A4-half-b0b0", lambda: _tampered(_root_matsuo("A4", HALF, Q), 0, 0, 0, Q.from_int(3))),
        ("A4-half-b2b5", lambda: _tampered(_root_matsuo("A4", HALF, Q), 2, 5, 9, Q.one)),
        ("P3-F3-b3b3", lambda: _tampered(p3_algebra(F3), 3, 3, 7, F3.one)),
    ]
    return out


@pytest.mark.parametrize("build", [b for _, b in _scan_fixtures()],
                         ids=[name for name, _ in _scan_fixtures()])
def test_quadruple_scan_agrees_with_the_plain_scan(build):
    A = build()
    expected = _jordan_scan_reference(A)
    assert _first_failure(A, _table_automorphisms(A)) == expected
    assert _first_failure(A, ()) == expected
    if expected is not None:
        assert not linearized_identity_holds(A, *expected)
    res = jordan_check(A)
    assert (res.is_jordan, res.witness) == (
        (True, ()) if expected is None else (False, expected))


def _two_dim_tables(field, values):
    """Every commutative 2-dim table over field whose structure constants
    are drawn from values, through the pair constructor."""
    vectors = list(product(values, repeat=2))
    return [AlgebraTable(field, ["a", "b"],
                         {(0, 0): list(u), (0, 1): list(v), (1, 1): list(w)})
            for u, v, w in product(vectors, repeat=3)]


def test_jordan_check_is_exact_over_f3():
    # over F3 the scan cannot see the x_i^3 terms: the 64 tables it passes
    # that still fail the identity must fail on a diagonal pair
    diagonal = 0
    for A in _two_dim_tables(F3, range(3)):
        res = jordan_check(A)
        assert res.is_jordan == brute_force_jordan(A, (0, 1, 2))
        if _first_failure(A, ()) is None and not res.is_jordan:
            r, r2, _, r3 = res.witness
            assert r == r2 == r3
            diagonal += 1
    assert diagonal == 64


@pytest.mark.parametrize("field, dim", [(F5, 2), (F7, 2), (F3, 3)],
                         ids=["F5-dim2", "F7-dim2", "F3-dim3"])
def test_jordan_check_matches_brute_force_on_seeded_tables(field, dim):
    # a cubic form over F_p that vanishes on all of F_p^dim is zero, so the
    # brute force over the whole space decides the identity; outside
    # characteristic 3 the diagonal never fails alone
    rng = random.Random(field.p * 10 + dim)
    values = [0] * (2 * field.p) + list(range(1, field.p))
    seen = set()
    for _ in range(100):
        A = AlgebraTable(field, ["b%d" % i for i in range(dim)],
                         _random_pairs(rng, field, values, dim))
        res = jordan_check(A)
        assert res.is_jordan == brute_force_jordan(A, range(field.p))
        seen.add((res.is_jordan, _first_failure(A, ()) is None))
    if field.p == 3:
        assert seen == {(True, True), (False, True), (False, False)}
    else:
        assert seen == {(True, True), (False, False)}


def test_scan_fixtures_reach_both_verdicts_and_orbit_counts():
    fixtures = dict(_scan_fixtures())
    kept = {name: len(_table_automorphisms_reference(fixtures[name]()))
            for name in ("A4-1/2-Q", "P3-F3", "h3-Q", "A3+1-half", "A3-half-b0b0")}
    assert kept == {"A4-1/2-Q": 10, "P3-F3": 9, "h3-Q": 0, "A3+1-half": 6,
                    "A3-half-b0b0": 2}
    A = fixtures["A3+1-half"]()
    assert len(set(algebra._orbit_minima(A.dim, _table_automorphisms(A)))) == 2
    verdicts = {name: _jordan_scan_reference(build()) is None
                for name, build in _scan_fixtures()
                if name.startswith(("A3-", "A3+", "P3", "h3", "D4", "W2"))}
    assert verdicts == {
        "A3-1/2-Q": True, "A3-1/3-Q": False, "A3-1/2-F5": True,
        "A3-1/3-F5": False, "A3-1/2-F7": True, "A3-1/3-F7": False,
        "P3-F3": True, "h3-Q": True, "h3-F7": True, "A3+1-half": True,
        "A3+1-third": False, "D4-half-Q": False, "W2A3-half-Q": False,
        "A3-half-b0b0": False,
        "A3-half-b0b1": False, "P3-F3-b3b3": False,
    }


def _visited_quadruples(A, gens, monkeypatch):
    """Every quadruple (i, j, y, k) the reduced walk yields on A; the walk
    itself evaluates no gap."""
    def no_gap(*args):
        raise AssertionError("the walk evaluated a gap")

    with monkeypatch.context() as m:
        m.setattr(algebra, "linearized_gap", no_gap)
        m.setattr(algebra, "_diagonal_gap", no_gap)
        return list(_orbit_quadruples(A.dim, gens))


def test_quadruple_scan_meets_every_orbit(monkeypatch):
    # the images of the visited quadruples under the whole group, with the
    # three symmetric slots sorted, are all quadruples i <= j <= k, any y
    for A in (_root_matsuo("A4", HALF, Q), p3_algebra(F3),
              direct_sum(_root_matsuo("A3", HALF, Q), _one_dim(Q)),
              _tampered(_root_matsuo("A3", HALF, Q), 0, 0, 0, Q.from_int(2)),
              _relabelled_table(_root_matsuo("D4", HALF, Q), 4),
              matsuo_algebra(triple_system_from_cli(group="sym:6"), HALF, Q)):
        gens = _table_automorphisms(A)
        group = mulclose(gens, _perm_mul, tuple(range(A.dim)))
        visited = _visited_quadruples(A, gens, monkeypatch)
        covered = {(tuple(sorted((g[i], g[j], g[k]))), g[y])
                   for g in group for i, j, y, k in visited}
        everything = {((i, j, k), y) for i in range(A.dim) for j in range(i, A.dim)
                      for k in range(j, A.dim) for y in range(A.dim)}
        assert covered == everything
        assert len(visited) < len(everything)


def test_quadruple_scan_counts_on_sym7(monkeypatch):
    # Sym(7) has one orbit on its 21 transpositions, so r is the one
    # transposition (12).  Its stabiliser Sym(2) x Sym(5) has three orbits:
    # r, the 10 transpositions meeting it and the 10 disjoint from it; s is
    # the least point of each.  The third slot c runs over the G_{r,s}-orbit
    # minima with rep_r(c) >= s:
    #   s = r:    G_{r,s} = G_r, its 3 orbits;
    #   s = (13): G_{r,s} = Sym({4..7}), orbits {(13)}, {(23)}, {(1x)},
    #             {(2x)}, {(3x)}, {(xy)} for x, y in 4..7: 6;
    #   s = (34): G_{r,s} = Sym(2) x Sym(2) x Sym(3), orbits of the
    #             transpositions disjoint from r: {(34)}, {(3x), (4x)},
    #             {(xy)} for x, y in 5..7: 3.
    # That is 12 triples (r, s, c).  Each takes y once per orbit of the
    # generators of G_{r,s} that fix c, which here generate all of
    # G_{r,s,c}; its orbits on the 21 transpositions number
    #   s = r:    c = (12): Sym(2) x Sym(5), 3; c = (13): Sym({4..7}), 7;
    #             c = (34): Sym(2) x Sym(2) x Sym(3), 6;
    #   s = (13): c = (13), (23): Sym({4..7}), 7 each; c = (14), (24), (34):
    #             Sym({5,6,7}), 11 each; c = (45): Sym(2) x Sym(2), 12;
    #   s = (34): c = (34): 6; c = (35): Sym(2) x Sym(2), 12;
    #             c = (56): Sym(2)^3, 9;
    # 3 + 7 + 6 + 7 + 7 + 11 + 11 + 11 + 12 + 6 + 12 + 9 = 102 quadruples.
    A = _root_matsuo("A6", PrimeField(5).div(1, 2), PrimeField(5))
    reference = _table_automorphisms_reference(A)
    assert len(reference) == 21
    gens = _table_automorphisms(A)
    visited = _visited_quadruples(A, gens, monkeypatch)
    per_triple = {}
    for i, j, _, k in visited:
        per_triple[(i, j, k)] = per_triple.get((i, j, k), 0) + 1
    assert list(per_triple.values()) == [3, 7, 6, 7, 7, 11, 11, 11, 12, 6, 12, 9]
    assert len(visited) == 102
    group = mulclose(reference, _perm_mul, tuple(range(A.dim)))
    assert len(group) == 5040
    for (r, s, c), count in per_triple.items():
        fixing = [g for g in group if g[r] == r and g[s] == s and g[c] == c]
        assert count == len(set(algebra._orbit_minima(A.dim, fixing)))
    assert visited == _visited_quadruples(A, reference, monkeypatch)
    assert len(_visited_quadruples(A, (), monkeypatch)) == 21 * 23 * 22 * 21 // 6


def test_stabiliser_generators_generate_the_point_stabiliser():
    generator_sets = [
        _table_automorphisms(A)
        for A in (_root_matsuo("A4", HALF, Q), p3_algebra(F3),
                  direct_sum(_root_matsuo("A3", HALF, Q), _one_dim(Q)))
    ] + [((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)),     # Sym(4), adjacent swaps
         ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),               # Sym(5)
         ((1, 2, 0, 4, 5, 3, 6), (0, 1, 2, 4, 3, 5, 6))]  # two orbits, one fixed
    for gens in generator_sets:
        n = len(gens[0])
        identity = tuple(range(n))
        group = mulclose(gens, _perm_mul, identity)
        for r in range(n):
            schreier = algebra._stabiliser_generators(n, r, gens)
            assert set(mulclose(schreier, _perm_mul, identity)) == {
                g for g in group if g[r] == r}


def test_stabiliser_generators_generate_the_two_point_stabiliser():
    # the two-point stabilisers G_{r,s} of the Jordan scan: Schreier
    # generators of the point stabiliser of s in G_r, itself given by its
    # own Schreier generators
    generator_sets = [
        _table_automorphisms(A)
        for A in (_root_matsuo("A4", HALF, Q), p3_algebra(F3))
    ] + [((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),               # Sym(5)
         ((1, 2, 0, 4, 5, 3, 6), (0, 1, 2, 4, 3, 5, 6))]  # two orbits, one fixed
    for gens in generator_sets:
        n = len(gens[0])
        identity = tuple(range(n))
        group = mulclose(gens, _perm_mul, identity)
        for r in range(n):
            gens_r = algebra._stabiliser_generators(n, r, gens)
            for s in range(n):
                schreier = algebra._stabiliser_generators(n, s, gens_r)
                assert set(mulclose(schreier, _perm_mul, identity)) == {
                    g for g in group if g[r] == r and g[s] == s}


_WITNESS_SOURCES = ([{"roots": n} for n in ("D4", "D5", "D6", "D7", "E6", "E7", "E8")]
                    + [{"group": "W2A3"}, {"group": "W3A3"}])


def test_jordan_check_witnesses_match_the_reference_automorphisms(monkeypatch):
    # the paper's list at 1/2 over Q: the failures keep the verdict and the
    # witness that every candidate automorphism gives, and Sym(n) and 3^2:2
    # stay Jordan
    for source in _WITNESS_SOURCES:
        A = matsuo_algebra(triple_system_from_cli(**source), HALF, Q)
        res = jordan_check(A)
        with monkeypatch.context() as m:
            m.setattr(algebra, "_table_automorphisms", _table_automorphisms_reference)
            expected = jordan_check(A)
        assert not expected.is_jordan
        assert (res.is_jordan, res.witness) == (expected.is_jordan, expected.witness)
    for source in [{"roots": "A%d" % n} for n in range(2, 12)] + [{"group": "3sq2"}]:
        A = matsuo_algebra(triple_system_from_cli(**source), HALF, Q)
        assert jordan_check(A).is_jordan


def _reflection(space, x):
    n = space.n_points
    return tuple(space.wedge(x, y) if y != x and space.collinear(x, y) else y
                 for y in range(n))


def test_table_automorphisms_are_the_geometric_reflections():
    for space in (gamma_of_rootsystem(root_system_from_name("A3")),
                  gamma_of_rootsystem(root_system_from_name("A4")), build_p3()):
        A = matsuo_algebra(space, HALF, Q)
        kept = _table_automorphisms_reference(A)
        assert len(kept) == A.dim
        assert set(kept) == {_reflection(space, x) for x in range(A.dim)}


def _relabelled_table(A, seed):
    """A's table with its basis renumbered by a seeded permutation, labels
    travelling with their basis elements."""
    dim = A.dim
    perm = random.Random(seed).sample(range(dim), dim)
    labels = [None] * dim
    for old, new in enumerate(perm):
        labels[new] = A.labels[old]
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            pair = tuple(sorted((perm[i], perm[j])))
            products[pair] = {perm[k]: c for k, c in A.table[i][j].items()}
    return AlgebraTable(A.field, labels, products)


def _automorphism_fixtures():
    """(id, table) pairs: Matsuo algebras of A3, A4, P3 over F3, D4, W2A3,
    sym:6 and E6, A3 plus a non-idempotent <z>, the four tampered tables of
    ``_tampered_tables`` and the hermitian algebra (no map kept)."""
    w2a3 = gamma_of_group(build_wk_affine_a(2, 3))
    return [
        ("A3", _root_matsuo("A3", HALF, Q)),
        ("A4", _root_matsuo("A4", HALF, Q)),
        ("P3-F3", p3_algebra(F3)),
        ("D4", _root_matsuo("D4", HALF, Q)),
        ("W2A3", matsuo_algebra(w2a3, HALF, Q)),
        ("sym6", matsuo_algebra(triple_system_from_cli(group="sym:6"), HALF, Q)),
        ("E6", _root_matsuo("E6", HALF, Q)),
        ("A3+z", direct_sum(_root_matsuo("A3", HALF, Q), _z_algebra(Q))),
    ] + _tampered_tables() + [("h3", h3_algebra(Q))]


@pytest.mark.parametrize("seed", [None, 5, 6])
def test_table_automorphisms_generate_the_reference_group(seed):
    for name, A in _automorphism_fixtures():
        if seed is not None:
            A = _relabelled_table(A, seed)
        kept = _table_automorphisms(A)
        reference = _table_automorphisms_reference(A)
        assert set(kept) <= set(reference), name
        assert (algebra._orbit_minima(A.dim, kept)
                == algebra._orbit_minima(A.dim, reference)), name
        for r in range(A.dim):
            assert (set(algebra._transversal(A.dim, r, kept))
                    == set(algebra._transversal(A.dim, r, reference))), name
        if name != "E6":  # W(E6) has 51840 elements
            identity = tuple(range(A.dim))
            group = set(mulclose(kept, _perm_mul, identity))
            assert len(group) <= 5040
            assert group == set(mulclose(reference, _perm_mul, identity)), name


def _orbit_minima_from_transversals(n, gens):
    """Oracle: the least point of each orbit, read off ``_transversal``."""
    rep = [None] * n
    for r in range(n):
        if rep[r] is None:
            for p in algebra._transversal(n, r, gens):
                rep[p] = r
    return rep


def test_orbit_minima_match_the_transversal_orbits():
    for name, A in _automorphism_fixtures():
        kept = _table_automorphisms(A)
        for gens in ([], kept[:1], kept, _table_automorphisms_reference(A)):
            assert (algebra._orbit_minima(A.dim, gens)
                    == _orbit_minima_from_transversals(A.dim, gens)), name


def test_table_automorphisms_keep_one_map_per_rank():
    # the walk keeps rank many reflections of a Weyl group (sym:6 is A5),
    # and three points off a line for P3's 3^2:2
    tables = [("A4", _root_matsuo("A4", HALF, Q)), ("A6", _root_matsuo("A6", HALF, Q)),
              ("E6", _root_matsuo("E6", HALF, Q)), ("E7", _root_matsuo("E7", HALF, Q)),
              ("sym6", matsuo_algebra(triple_system_from_cli(group="sym:6"), HALF, Q)),
              ("P3", p3_algebra())]
    kept = {name: len(_table_automorphisms(A)) for name, A in tables}
    assert kept == {"A4": 4, "A6": 6, "E6": 6, "E7": 7, "sym6": 5, "P3": 3}


def _tampered_tables():
    """(id, table) pairs: Matsuo tables with one entry changed that keep
    some automorphisms but not all."""
    return [
        ("A3-b0b0", _tampered(_root_matsuo("A3", HALF, Q), 0, 0, 0, Q.from_int(2))),
        ("A4-b0b0", _tampered(_root_matsuo("A4", HALF, Q), 0, 0, 0, Q.from_int(3))),
        ("A4-b2b5", _tampered(_root_matsuo("A4", HALF, Q), 2, 5, 9, Q.one)),
        ("P3-F3-b3b3", _tampered(p3_algebra(F3), 3, 3, 3, F3.from_int(2))),
        # b_0 b_3 was zero: a candidate moving {0, 3} sends it to a zero pair
        ("A3-b0b3", _tampered(_root_matsuo("A3", HALF, Q), 0, 3, 0, Q.one)),
        # the supports are kept, one coefficient of b_0 b_1 is not
        ("A4-b0b1", _tampered(_root_matsuo("A4", HALF, Q), 0, 1, 0, Q.parse("1/3"))),
    ]


def test_tampered_tables_fail_on_and_off_the_support():
    # a candidate permutation of A3-b0b3 sends the nonzero pair {0, 3} to a
    # zero pair; one of A4-b0b1 keeps the support of every pair but not the
    # coefficients of b_0 b_1
    tables = dict(_tampered_tables())
    rows = tables["A3-b0b3"].int_view().rows
    candidates = [_candidate(rows, x) for x in range(6)]
    assert any(len(set(s)) == 6 and not rows[s[0]][s[3]] for s in candidates)
    rows = tables["A4-b0b1"].int_view().rows
    pairs = [(i, j) for i in range(10) for j in range(i, 10)]

    def moved(s, i, j):
        return {s[k]: c for k, c in rows[i][j].items()}
    assert any(all(rows[s[i]][s[j]].keys() == moved(s, i, j).keys() for i, j in pairs)
               and rows[s[0]][s[1]] != moved(s, 0, 1)
               for s in (_candidate(rows, x) for x in range(10)))


def test_kept_automorphisms_of_a_tampered_table_pass_the_dense_oracle():
    for _, A in _tampered_tables():
        f = A.field
        kept = _table_automorphisms(A)
        assert 0 < len(kept) < A.dim
        e = lambda t: unit_vector(f, A.dim, t)
        for sigma in kept:
            def image(v):
                out = [f.zero] * A.dim
                for k, c in enumerate(v):
                    out[sigma[k]] = c
                return out
            for i in range(A.dim):
                for j in range(A.dim):
                    assert ref_mul(A, e(sigma[i]), e(sigma[j])) == image(ref_mul(A, e(i), e(j)))


def _diagonal_reference(A):
    """The first (r, r, y, r) in r, y order at which the dense gap
    (xy)(xx) - x(y(xx)), x = b_r and y = b_y, from ``ref_mul`` is nonzero, or
    None.  Independent of the integer view and of any automorphism."""
    f = A.field
    for r in range(A.dim):
        x = unit_vector(f, A.dim, r)
        xx = ref_mul(A, x, x)
        for y in range(A.dim):
            b = unit_vector(f, A.dim, y)
            if ref_mul(A, ref_mul(A, x, b), xx) != ref_mul(A, x, ref_mul(A, b, xx)):
                return (r, r, y, r)
    return None


def _f3_diagonal_failure():
    """M_{1/2}(P3) over F3 plus <a, b : a^2 = b, b^2 = a, ab = 0>.  The scan
    passes, as it holds the x_i^3 terms only times 3, while the gap at the
    diagonal pair (a, a) is a; P3's points keep their automorphisms."""
    pair = AlgebraTable(F3, ["a", "b"], {(0, 0): [0, 1], (1, 1): [1, 0]})
    return direct_sum(p3_algebra(F3), pair)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jordan_check_witness_matches_the_plain_scan_on_relabelled_tables(seed):
    # the reduced scan orders its slots by orbit minima, so a relabelling
    # moves which quadruples it visits; the witness must stay the plain scan's
    fixtures = dict(_scan_fixtures())
    tables = [("D5-half-Q", _root_matsuo("D5", HALF, Q))] + [
        (name, fixtures[name]()) for name in ("D4-half-Q", "W2A3-half-Q", "A3+1-third",
                                              "A3-half-b0b0", "A3-half-b0b1")]
    for name, A in tables:
        A = _relabelled_table(A, seed)
        expected = _jordan_scan_reference(A)
        assert expected is not None, name
        res = jordan_check(A)
        assert (res.is_jordan, res.witness) == (False, expected), name
    A = _relabelled_table(_f3_diagonal_failure(), seed)
    assert _table_automorphisms(A)
    assert _jordan_scan_reference(A) is None
    assert _first_failure(A, _table_automorphisms(A)) is None
    expected = _diagonal_reference(A)
    assert expected is not None
    res = jordan_check(A)
    assert (res.is_jordan, res.witness) == (False, expected)


def test_diagonal_step_runs_only_over_f3(monkeypatch):
    # outside characteristic 3 a passing scan has tested the diagonal pairs
    # times 3, so jordan_check decides without ``_diagonal_gap``
    calls = []
    diagonal_gap = algebra._diagonal_gap
    monkeypatch.setattr(algebra, "_diagonal_gap",
                        lambda A, i, y: calls.append((i, y)) or diagonal_gap(A, i, y))
    F5 = PrimeField(5)
    for name in ("A4", "A5", "A6"):
        for f in (Q, F5):
            assert jordan_check(_root_matsuo(name, f.div(f.one, f.from_int(2)), f))
    assert calls == []
    res = jordan_check(_f3_diagonal_failure())
    assert (res.is_jordan, res.witness) == (False, (9, 9, 9, 9))
    assert calls


def test_jordan_check_on_sym9_is_fast():
    # the Matsuo algebra of Sym(9) on its 36 transpositions; the plain scan
    # evaluates 303,696 quadruples, the reduced one 103
    A = _root_matsuo("A8", HALF, Q)
    start = time.perf_counter()
    res = jordan_check(A)
    elapsed = time.perf_counter() - start
    assert (A.dim, res.is_jordan) == (36, True)
    assert elapsed < 1.0


def test_eigen_decomposition_point_dims():
    A = p3_algebra()
    dec = eigen_decomposition(A, unit_vector(Q, 9, 0), candidates=[Q.one, Q.zero, HALF])
    assert dec.diagonalizable
    assert dec.dims() == (1, 4, 4)


def test_half_eigenspace_as_explicit_kernel():
    # kernel of ad(p1) - (1/2) id: one dimension per line through the point
    from matsuo.linalg import Matrix, kernel
    A = p3_algebra()
    m = A.ad(unit_vector(Q, 9, 0)) - Matrix.identity(Q, 9).scale(HALF)
    assert kernel(m).dim == 4


def test_half_eigenspace_dimension_in_type_a():
    for n in (4, 5, 6):
        gam = gamma_of_rootsystem(root_system_from_name("A%d" % (n - 1)))
        A = matsuo_algebra(gam, HALF, Q)
        dec = eigen_decomposition(A, unit_vector(Q, A.dim, 0),
                                  candidates=[Q.one, Q.zero, HALF])
        assert dec.spaces[dec.eigenvalues.index(HALF)].dim == n - 2


def test_eigen_decomposition_requires_idempotent():
    A = p3_algebra()
    v = [Q.from_int(2)] + [Q.zero] * 8
    with pytest.raises(AlgebraError):
        eigen_decomposition(A, v, candidates=[Q.one, Q.zero, HALF])


def test_check_axis_on_points_and_unit():
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    for i in range(9):
        res = check_axis(A, unit_vector(Q, 9, i), rules)
        assert res.ok and res.dims == (1, 4, 4)
    # the unit is trivially an axis: everything is its 1-eigenspace
    res = check_axis(A, p3_unit(Q), rules)
    assert res.ok and res.dims == (9,)


def test_check_axis_one_dimensional_algebra():
    A = AlgebraTable(Q, ["e"], {(0, 0): [Q.one]})
    res = check_axis(A, [Q.one], phi_alpha(Q, HALF))
    assert res.ok and res.dims == (1,)


def test_check_axis_reports_violation():
    # u is a 0-eigenvector of e but u*u = e lands in the 1-eigenspace,
    # violating the 0*0 = {0} rule
    A = AlgebraTable(
        Q, ["e", "u"],
        {(0, 0): [Q.one, Q.zero], (0, 1): [Q.zero, Q.zero], (1, 1): [Q.one, Q.zero]},
    )
    res = check_axis(A, [Q.one, Q.zero], phi_alpha(Q, HALF))
    assert not res.ok
    assert res.reason == "fusion rule violated"


def test_check_axis_rejects_eigenvalue_outside_rules():
    # e*u = 2u: the adjoint has an eigenvalue outside {1, 0, 1/2}
    A = AlgebraTable(
        Q, ["e", "u"],
        {(0, 0): [Q.one, Q.zero], (0, 1): [Q.zero, Q.from_int(2)],
         (1, 1): [Q.zero, Q.zero]},
    )
    res = check_axis(A, [Q.one, Q.zero], phi_alpha(Q, HALF))
    assert not res.ok
    assert "span" in res.reason


def _check_axis_dense(A, e, rules):
    """check_axis by dense elimination over the algebra's field: every product
    of eigenvectors (``ref_mul``), in full (u, v) order, must lie in the span
    of the allowed eigenspaces (``Subspace.contains``)."""
    try:
        dec = eigen_decomposition(A, e, candidates=list(rules.eigenvalues))
    except AlgebraError as err:
        return AxisCheck(False, reason=str(err))
    present = list(dec.eigenvalues)
    if not dec.diagonalizable:
        return AxisCheck(False, dec.dims(), tuple(present),
                         "eigenspaces do not span the algebra")
    for pi in range(len(present)):
        for qi in range(pi, len(present)):
            phi, psi = present[pi], present[qi]
            target = Subspace.from_vectors(
                A.field, A.dim,
                [row for v in rules.allowed(phi, psi) if v in present
                 for row in dec.spaces[dec.eigenvalues.index(v)].rows],
            )
            for u in dec.spaces[pi].rows:
                for v in dec.spaces[qi].rows:
                    if not target.contains(ref_mul(A, u, v)):
                        return AxisCheck(False, dec.dims(), tuple(present),
                                         "fusion rule violated", (phi, psi, u, v))
    return AxisCheck(True, dec.dims(), tuple(present))


def _assert_matches_dense(A, e, rules):
    res = check_axis(A, e, rules)
    assert res == _check_axis_dense(A, e, rules)
    return res


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "F5"])
def test_check_axis_matches_dense_oracle_on_points(field):
    for source in (build_p3(), gamma_of_rootsystem(root_system_from_name("A4")),
                   gamma_of_rootsystem(root_system_from_name("D4"))):
        for den in (2, 3):
            alpha = field.div(field.one, field.from_int(den))
            A = matsuo_algebra(source, alpha, field)
            rules = phi_alpha(field, alpha)
            for i in range(A.dim):
                assert _assert_matches_dense(A, unit_vector(field, A.dim, i), rules).ok


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "F5"])
def test_check_axis_matches_dense_oracle_on_p3_unit(field):
    rules = phi_alpha(field, field.div(field.one, field.from_int(2)))
    assert _assert_matches_dense(p3_algebra(field), p3_unit(field), rules).dims == (9,)


def test_check_axis_matches_dense_oracle_on_violation():
    A = AlgebraTable(
        Q, ["e", "u"],
        {(0, 0): [Q.one, Q.zero], (0, 1): [Q.zero, Q.zero], (1, 1): [Q.one, Q.zero]},
    )
    res = _assert_matches_dense(A, [Q.one, Q.zero], phi_alpha(Q, HALF))
    assert res.reason == "fusion rule violated"
    assert res.witness == (Q.zero, Q.zero, [Q.zero, Q.one], [Q.zero, Q.one])


def _narrowed_rules(rules, phi, psi, allowed):
    """rules with the products of phi- and psi-eigenvectors sent into the
    eigenspaces of allowed only."""
    table = dict(rules.table)
    table[(phi, psi)] = table[(psi, phi)] = allowed
    return FusionRules(rules.eigenvalues, table, rules.alpha)


@pytest.mark.parametrize("p", [5, 7])
def test_check_axis_matches_dense_oracle_on_idempotents(p):
    # Every idempotent of A2 at 1/3 found on the grid, against Phi(beta) for
    # every beta and against two narrowed variants of it: the non-axes fail
    # on the span, and on the products both within one eigenspace and
    # across two.
    f = PrimeField(p)
    A = _root_matsuo("A2", f.div(f.one, f.from_int(3)), f)
    found = find_idempotents(A, max_support=3)
    assert len(found) == 7
    reasons, cross = set(), 0
    for e in found:
        for beta in range(2, p):
            rules = phi_alpha(f, beta)
            for variant in (rules, _narrowed_rules(rules, beta, beta, (f.one,)),
                            _narrowed_rules(rules, f.zero, beta, (f.zero,))):
                res = _assert_matches_dense(A, e, variant)
                reasons.add(res.reason)
                cross += bool(res.witness) and res.witness[0] != res.witness[1]
    assert reasons == {"", "eigenspaces do not span the algebra",
                       "fusion rule violated"}
    assert cross


def _axes_report_reference(A, alpha):
    """``claims.axes_report`` by the plain loop: ``check_axis`` at every
    idempotent basis element, no automorphism used."""
    rules = phi_alpha(A.field, alpha)
    rows = []
    n_axes = 0
    for i in range(A.dim):
        e = unit_vector(A.field, A.dim, i)
        if not A.is_idempotent(e):
            rows.append({"label": A.labels[i], "idempotent": False,
                         "axis": False, "dims": []})
            continue
        res = check_axis(A, e, rules)
        n_axes += res.ok
        rows.append({"label": A.labels[i], "idempotent": True,
                     "axis": res.ok, "dims": list(res.dims)})
    return {"dim": A.dim, "alpha": A.field.fmt(alpha), "basis": rows,
            "axes": n_axes, "all_axes": n_axes == A.dim}


def _relabelled(space, seed):
    """The triple system with its points renumbered by a seeded permutation,
    labels travelling with their points."""
    n = space.n_points
    perm = random.Random(seed).sample(range(n), n)
    labels = [None] * n
    for old, new in enumerate(perm):
        labels[new] = space.labels[old]
    return PartialTripleSystem(n, [tuple(perm[p] for p in line) for line in space.lines],
                               labels=labels)


def _z_algebra(f):
    """<z : z^2 = 2z>, whose basis element is not idempotent."""
    return AlgebraTable(f, ["z"], {(0, 0): [f.from_int(2)]})


def _three_orbit_sum():
    """M_{1/3}(D4) + M_{1/2}(A3) + <z : z^2 = 2z> over Q."""
    return direct_sum(direct_sum(_root_matsuo("D4", Q.parse("1/3"), Q),
                                 _root_matsuo("A3", HALF, Q)), _z_algebra(Q))


_AXES_INPUTS = [({"roots": "D4"}, "Q", "1/3"), ({"group": "sym:6"}, "Q", "1/3"),
                ({"group": "W2A3"}, "Q", "1/3"), ({"roots": "D5"}, "F5", "1/2")]


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("source, field_name, alpha", _AXES_INPUTS,
                         ids=["D4-Q", "sym6-Q", "W2A3-Q", "D5-F5"])
def test_axes_report_matches_the_all_points_loop(source, field_name, alpha, seed):
    f = field_from_name(field_name)
    a = scalar_from_string(f, alpha)
    A = matsuo_algebra(_relabelled(triple_system_from_cli(**source), seed), a, f)
    report = claims.axes_report(A, a)
    assert report == _axes_report_reference(A, a)
    assert report["all_axes"]


def test_axes_report_matches_the_all_points_loop_off_matsuo_tables():
    third = Q.parse("1/3")
    S = _three_orbit_sum()
    assert len(set(algebra._orbit_minima(S.dim, _table_automorphisms(S)))) == 3
    report = claims.axes_report(S, third)
    assert report == _axes_report_reference(S, third)
    assert [row["axis"] for row in report["basis"]] == [True] * 12 + [False] * 7
    assert report["axes"] == 12 and not report["all_axes"]
    assert not report["basis"][-1]["idempotent"]
    H = h3_algebra(Q)
    assert _table_automorphisms(H) == ()
    T = _tampered(_root_matsuo("A4", HALF, Q), 2, 5, 9, Q.one)
    assert 0 < len(_table_automorphisms(T)) < T.dim
    for A, alpha in ((H, HALF), (H, third), (T, HALF),
                     (_tampered(_root_matsuo("A3", HALF, Q), 0, 0, 0, Q.from_int(2)), HALF)):
        assert claims.axes_report(A, alpha) == _axes_report_reference(A, alpha)


def test_basis_axis_checks_run_check_axis_once_per_idempotent_orbit(monkeypatch):
    calls = []
    real = algebra.check_axis
    monkeypatch.setattr(algebra, "check_axis",
                        lambda A, e, rules: calls.append(e) or real(A, e, rules))
    third = Q.parse("1/3")
    checks = basis_axis_checks(_three_orbit_sum(), phi_alpha(Q, third))
    assert [e.index(Q.one) for e in calls] == [0, 12]
    assert checks[:12] == [checks[0]] * 12 and checks[12:18] == [checks[12]] * 6
    assert checks[18] is None
    calls.clear()
    basis_axis_checks(h3_algebra(Q), phi_alpha(Q, HALF))
    assert len(calls) == 3  # the three idempotents e_ii, each its own orbit


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_fusion_axes_counts_match_the_all_points_loop(field):
    expected = [str(sum(check_axis(A, unit_vector(field, A.dim, i), rules).ok
                        for i in range(A.dim)))
                for _, _, A, rules in claims._axis_fixtures(field)]
    report = claims.run_claim("fusion-axes", field_name=field.name)
    assert [c.computed for c in report.checks] == expected
    assert report.passed


def test_miyamoto_squares_to_identity_and_is_automorphism():
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    t0 = miyamoto(A, unit_vector(Q, 9, 0), rules)
    assert t0 * t0 == Matrix.identity(Q, 9)
    assert is_multiplicative(A, A, t0)


def _matvec(m, v):
    """The matrix m applied to the coordinate list v, with the field's own
    operations."""
    f = m.field
    out = []
    for r in m.rows:
        acc = f.zero
        for a, x in zip(r, v):
            if a and x:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


def _is_multiplicative_dense(A, B, m):
    """Oracle: the dense check, m applied to each basis product by _matvec
    and compared with the product of two dense columns of m in B."""
    cols = [list(c) for c in zip(*m.rows)]
    return all(_matvec(m, A.mul_basis(i, j)) == B.mul(cols[i], cols[j])
               for i in range(A.dim) for j in range(i, A.dim))


@pytest.mark.parametrize("field", [Q, F5, F7], ids=["Q", "F5", "F7"])
def test_is_multiplicative_matches_the_dense_check(field):
    from matsuo.constructions import matsuo_to_projection_map
    rng = random.Random(field.characteristic + 7)
    half = field.inv(field.from_int(2))
    cases = []
    for name in ("A3", "D4"):
        rs = root_system_from_name(name)
        proj, m = matsuo_to_projection_map(field, rs)
        A = matsuo_algebra(gamma_of_rootsystem(rs), half, field)
        cases.append((A, proj.algebra, m))
        bent = Matrix(field, m.rows)
        bent.rows[0][1] = field.add(bent.rows[0][1], field.one)
        cases.append((A, proj.algebra, bent))
    A = matsuo_algebra(build_p3(), half, field)
    for e in range(3):
        cases.append((A, A, miyamoto(A, unit_vector(field, 9, e), phi_alpha(field, half))))
    two = Matrix.identity(field, 9).scale(field.from_int(2))
    cases += [(A, A, Matrix.identity(field, 9)), (A, A, Matrix.zeros(field, 9, 9)),
              (A, A, two)]
    rand = Matrix(field, [[field.from_int(rng.randint(-2, 2)) for _ in range(9)]
                          for _ in range(9)])
    cases += [(A, A, rand), (A, A, Matrix.identity(field, 9).scale(half))]
    from matsuo.constructions import eta_matrix
    eta = eta_matrix(field)
    cases.append((A, h3_algebra(field), eta))
    cases.append((A, h3_algebra(field), Matrix(field, eta.rows[1:] + eta.rows[:1])))
    verdicts = [is_multiplicative(*c) for c in cases]
    assert verdicts == [_is_multiplicative_dense(*c) for c in cases]
    assert True in verdicts and False in verdicts


def test_miyamoto_product_order_three():
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    t0 = miyamoto(A, unit_vector(Q, 9, 0), rules)
    t1 = miyamoto(A, unit_vector(Q, 9, 1), rules)
    m = t0 * t1
    ident = Matrix.identity(Q, 9)
    assert m != ident and m * m != ident and m * m * m == ident


def test_miyamoto_acts_geometrically_on_points():
    # on basis points the eigenspace-built involution is the point map that
    # fixes x and the non-neighbours and swaps the two other points of each
    # line through x
    sp = build_p3()
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    for x in range(9):
        tau = miyamoto(A, unit_vector(Q, 9, x), rules)
        for y in range(9):
            img = _matvec(tau, unit_vector(Q, 9, y))
            if y == x or not sp.collinear(x, y):
                assert img == unit_vector(Q, 9, y)
            else:
                assert img == unit_vector(Q, 9, sp.wedge(x, y))


def test_miyamoto_injective_on_points():
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    taus = [miyamoto(A, unit_vector(Q, 9, i), rules) for i in range(9)]
    assert len({hash(t) for t in taus}) == 9


def test_miyamoto_needs_an_axis():
    A = p3_algebra()
    rules = phi_alpha(Q, HALF)
    with pytest.raises(AlgebraError, match="needs an axis"):
        miyamoto(A, [Q.from_int(2)] + [Q.zero] * 8, rules)


def _miyamoto_reference(A, e, rules):
    """Oracle: the Miyamoto map written in an eigenbasis of ad(e), -1 on the
    alpha-eigenspace and 1 on the others, and changed back to the basis."""
    f = A.field
    dec = eigen_decomposition(A, e, candidates=list(rules.eigenvalues))
    cols = []
    signs = []
    for lam, spc in zip(dec.eigenvalues, dec.spaces):
        for row in spc.rows:
            cols.append(list(row))
            signs.append(f.neg(f.one) if lam == rules.alpha else f.one)
    basis = Matrix(f, [list(r) for r in zip(*cols)])
    diag = Matrix.zeros(f, A.dim, A.dim)
    for i, s in enumerate(signs):
        diag.rows[i][i] = s
    return basis * diag * basis.inverse()


def _miyamoto_fixtures(f, seed=None):
    """``claims._axis_fixtures`` without the names of alpha, each triple
    system relabelled by ``_relabelled`` when a seed is given."""
    for name, sp in claims._axis_fixture_spaces():
        if seed is not None:
            sp = _relabelled(sp, seed)
        for d in (2, 3):
            alpha = f.div(f.one, f.from_int(d))
            yield name, matsuo_algebra(sp, alpha, f), phi_alpha(f, alpha)


@pytest.mark.parametrize("f", [Q, F5, F7], ids=["Q", "F5", "F7"])
def test_miyamoto_matches_the_eigenbasis_reference(f):
    seen = set()
    for name, A, rules in _miyamoto_fixtures(f):
        seen.add(name)
        # an eigenvalue that no point has adds one more factor to the
        # projection, which must not change it
        absent = next(v for v in map(f.from_int, range(2, 6))
                      if v not in rules.eigenvalues)
        extra = FusionRules(rules.eigenvalues + (absent,), rules.table, rules.alpha)
        for i in range(A.dim):
            e = unit_vector(f, A.dim, i)
            tau = _miyamoto_reference(A, e, rules)
            assert miyamoto(A, e, rules) == tau
            assert miyamoto(A, e, extra) == tau
    assert seen == {"P2dual", "P3", "A4", "D4"}


def _eigen_decomposition_reference(A, e, candidates):
    """Oracle: the eigenspaces from a Fraction (or residue) copy of ad(e)
    for each candidate, its diagonal shifted by the field's own ``sub``."""
    if not A.is_idempotent(e):
        raise AlgebraError("eigen decomposition requires an idempotent")
    f = A.field
    ad_e = A.ad(e)
    values, spaces = [], []
    for lam in candidates:
        m = Matrix(f, ad_e.rows)
        for i, row in enumerate(m.rows):
            row[i] = f.sub(row[i], lam)
        spc = kernel(m)
        if spc.dim > 0:
            values.append(lam)
            spaces.append(spc)
    return algebra.EigenDecomposition(values, spaces,
                                      sum(s.dim for s in spaces) == A.dim)


def _miyamoto_lagrange_reference(A, e, rules):
    """Oracle: 1 - 2P with P the Lagrange product of dense field matrices
    (ad(e) - mu) / (alpha - mu), checked as ``miyamoto`` checks it."""
    axis = check_axis(A, e, rules)
    if not axis.ok:
        raise AlgebraError("miyamoto map needs an axis: %s" % axis.reason)
    f = A.field
    ident = Matrix.identity(f, A.dim)
    ad_e = A.ad(e)
    proj = ident
    for mu in rules.eigenvalues:
        if mu != rules.alpha:
            factor = f.inv(f.sub(rules.alpha, mu))
            proj = proj * (ad_e - ident.scale(mu)).scale(factor)
    tau = ident - proj.scale(f.from_int(2))
    if not (tau * tau == ident):
        raise AlgebraError("miyamoto map does not square to the identity")
    if not is_multiplicative(A, A, tau):
        raise AlgebraError("miyamoto map is not an algebra automorphism")
    return tau


def _outcome(fn, *args):
    """fn(*args), or the message of the AlgebraError it raises."""
    try:
        return fn(*args)
    except AlgebraError as err:
        return "AlgebraError: %s" % err


def _integer_adjoint_cases(f, alpha):
    """(A, e) pairs: two points and two lines' idempotent pairs of P3, and
    the first and last point of D4, A4, sym:6 and W2A3, at alpha over f."""
    plane = build_p3()
    A = matsuo_algebra(plane, alpha, f)
    for i in (0, 4):
        yield A, unit_vector(f, 9, i)
    for line in sorted(plane.lines)[:2]:
        for e in line_idempotents(f, line):
            yield A, e
    for flag, name in (("roots", "D4"), ("roots", "A4"), ("group", "sym:6"),
                       ("group", "W2A3")):
        A = matsuo_algebra(triple_system_from_cli(**{flag: name}), alpha, f)
        for i in (0, A.dim - 1):
            yield A, unit_vector(f, A.dim, i)


@pytest.mark.parametrize("f", [Q, F5, PrimeField(11), PrimeField(13)],
                         ids=["Q", "F5", "F11", "F13"])
def test_integer_adjoint_matches_the_dense_references(f):
    seen = {"values": 0, "errors": 0}
    for d in (2, 3, 4):
        alpha = f.inv(f.from_int(d))
        rules = phi_alpha(f, alpha)
        # a candidate that is no eigenvalue of a point leaves an empty kernel
        candidates = list(rules.eigenvalues) + [f.from_int(-1)]
        for A, e in _integer_adjoint_cases(f, alpha):
            for fn, ref, arg in ((eigen_decomposition, _eigen_decomposition_reference,
                                  candidates),
                                 (miyamoto, _miyamoto_lagrange_reference, rules)):
                got = _outcome(fn, A, e, arg)
                assert got == _outcome(ref, A, e, arg)
                seen["errors" if isinstance(got, str) else "values"] += 1
    assert seen["values"] > 0 and seen["errors"] > 0


def test_integer_adjoint_matches_the_references_on_tampered_tables():
    # Phi(1/2) and rules that allow every product: between them the points
    # reach each refusal, the last one on a diagonalizable point whose
    # involution moves a product out of place
    messages = set()
    for _, T in _tampered_tables():
        f = T.field
        rules = phi_alpha(f, f.inv(f.from_int(2)))
        values = rules.eigenvalues
        free = FusionRules(values, {(a, b): values for a in values for b in values},
                           rules.alpha)
        # neither a dense vector of 1s and 1/2s nor 2 b_0 is idempotent in
        # any of them
        dense = [f.inv(f.from_int(1 + k % 2)) for k in range(T.dim)]
        twice = [f.add(x, x) for x in unit_vector(f, T.dim, 0)]
        for e in (dense, twice):
            assert (_outcome(eigen_decomposition, T, e, list(values))
                    == _outcome(_eigen_decomposition_reference, T, e, list(values))
                    == "AlgebraError: eigen decomposition requires an idempotent")
        for i in range(T.dim):
            e = unit_vector(f, T.dim, i)
            assert (_outcome(eigen_decomposition, T, e, list(values))
                    == _outcome(_eigen_decomposition_reference, T, e, list(values)))
            for r in (rules, free):
                got = _outcome(miyamoto, T, e, r)
                assert got == _outcome(_miyamoto_lagrange_reference, T, e, r)
                if isinstance(got, str):
                    messages.add(got.split(": ", 2)[-1])
    assert messages == {"eigen decomposition requires an idempotent",
                        "eigenspaces do not span the algebra",
                        "fusion rule violated",
                        "miyamoto map is not an algebra automorphism"}


def _dense_miyamoto_verdicts(taus):
    """Oracle: the claim's three verdicts from dense matrix products."""
    ident = Matrix.identity(taus[0].field, taus[0].nrows)
    involutions = all(t * t == ident for t in taus)
    orders = True
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            m = taus[i] * taus[j]
            if not (m == ident or m * m == ident or m * m * m == ident):
                orders = False
    return involutions, orders, len(set(taus)) == len(taus)


def _permutation_matrix(f, perm):
    return Matrix(f, [[f.one if perm[j] == i else f.zero for j in range(len(perm))]
                      for i in range(len(perm))])


def _miyamoto_permutations_reference(A, rules):
    """Oracle: the all-points loop, ``miyamoto`` at every basis element read
    as a basis permutation."""
    return [algebra._column_permutation(
                miyamoto(A, unit_vector(A.field, A.dim, i), rules))
            for i in range(A.dim)]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("f", [Q, F5, F7], ids=["Q", "F5", "F7"])
def test_miyamoto_permutations_match_the_all_points_loop(f, seed):
    for _, A, rules in _miyamoto_fixtures(f, seed):
        perms = basis_miyamoto_permutations(A, rules)
        assert None not in perms
        assert perms == _miyamoto_permutations_reference(A, rules)


def test_miyamoto_permutations_hold_for_other_automorphism_generators(monkeypatch):
    # the side of the conjugation g tau_r g^-1 shows on a transversal word g
    # with g(r) != g^-1(r), which the kept reflections give as products of
    # several; here the generators are the products of two kept reflections,
    # verified as the tables are
    real = algebra._table_automorphisms

    def rotations(A):
        gens = real(A)
        return tuple(sorted({_perm_mul(s, t) for s in gens for t in gens}
                            - {tuple(range(A.dim))}))

    monkeypatch.setattr(algebra, "_table_automorphisms", rotations)
    for _, A, rules in _miyamoto_fixtures(F5, 3):
        assert (basis_miyamoto_permutations(A, rules)
                == _miyamoto_permutations_reference(A, rules))


def test_miyamoto_permutations_run_miyamoto_once_per_orbit(monkeypatch):
    calls = []
    real = algebra.miyamoto
    monkeypatch.setattr(algebra, "miyamoto",
                        lambda A, e, rules: calls.append(e.index(1)) or real(A, e, rules))
    # two orbits at the same alpha: the nine points of P3, then the six of A3
    S = direct_sum(p3_algebra(), _root_matsuo("A3", HALF, Q))
    rules = phi_alpha(Q, HALF)
    perms = basis_miyamoto_permutations(S, rules)
    assert calls == [0, 9]
    assert perms == _miyamoto_permutations_reference(S, rules)
    assert len(set(perms)) == S.dim
    calls.clear()
    assert claims.run_claim("miyamoto", field_name="F5").passed
    assert len(calls) == 8  # every fixture table is one orbit


def test_miyamoto_verdicts_match_the_dense_products():
    for f in (Q, F5):
        for _, A, rules in _miyamoto_fixtures(f):
            taus = [miyamoto(A, unit_vector(f, A.dim, i), rules)
                    for i in range(A.dim)]
            perms = [algebra._column_permutation(t) for t in taus]
            assert claims._miyamoto_verdicts(perms) == (True, True, True)
            assert claims._miyamoto_verdicts(perms) == _dense_miyamoto_verdicts(taus)
            assert claims._miyamoto_verdicts(perms + perms[:1]) == (True, True, False)
            assert _dense_miyamoto_verdicts(taus + taus[:1]) == (True, True, False)
    # (0 1)(2 3) times (0 2) is a 4-cycle; (0 1 2) is not an involution
    for perms, expected in (
            ([(1, 0, 3, 2), (2, 1, 0, 3)], (True, False, True)),
            ([(1, 2, 0, 3), (1, 0, 2, 3)], (False, True, True)),
            ([(1, 0, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)], (True, True, True))):
        taus = [_permutation_matrix(F5, p) for p in perms]
        assert [algebra._column_permutation(t) for t in taus] == perms
        assert claims._miyamoto_verdicts(perms) == expected
        assert _dense_miyamoto_verdicts(taus) == expected


def test_miyamoto_verdicts_fail_on_a_matrix_that_permutes_no_basis():
    ident = Matrix.identity(Q, 4)
    swap = _permutation_matrix(Q, (1, 0, 2, 3))
    merge = _permutation_matrix(Q, (0, 0, 2, 3))  # two equal unit columns
    for odd in (ident.scale(Q.from_int(-1)), ident.scale(Q.zero), ident + swap, merge):
        perms = [algebra._column_permutation(m) for m in (swap, odd)]
        assert perms == [(1, 0, 2, 3), None]
        assert claims._miyamoto_verdicts(perms) == (False, False, False)


def test_u_operator_on_idempotent():
    A = p3_algebra()
    e = unit_vector(Q, 9, 0)
    assert _matvec(u_operator(A, e), e) == e


def _u_operator_reference(A, a):
    """U_a(b) = 2a(ab) - (aa)b column by column, each column from three
    products of ``ref_mul``."""
    f = A.field
    two = f.from_int(2)
    aa = ref_mul(A, a, a)
    cols = []
    for j in range(A.dim):
        b = unit_vector(f, A.dim, j)
        t = ref_mul(A, a, ref_mul(A, a, b))
        s = ref_mul(A, aa, b)
        cols.append([f.sub(f.mul(two, u), v) for u, v in zip(t, s)])
    return Matrix(f, [list(r) for r in zip(*cols)])


def _u_operator_cases():
    """(table, vectors) pairs: P3 over F3 with its line sums and point sum,
    and P3 and h3 over Q and F5 with seeded vectors."""
    A = p3_algebra(F3)
    sums = []
    for line in build_p3().lines:
        v = [F3.zero] * 9
        for p in line:
            v[p] = F3.one
        sums.append(v)
    cases = [(A, sums + [[F3.one] * 9])]
    for f in (Q, F5):
        for B in (p3_algebra(f), h3_algebra(f)):
            cases.append((B, _seeded_vectors(f, B.dim)))
    return cases


def test_u_operator_matches_the_column_loop():
    zero = nonzero = 0
    for A, vecs in _u_operator_cases():
        for a in vecs:
            got = u_operator(A, a)
            assert got == _u_operator_reference(A, a)
            assert (got.nrows, got.ncols) == (A.dim, A.dim)
            zero += got.is_zero()
            nonzero += not got.is_zero()
    assert zero and nonzero


def _subspace_product_reference(A, s, t):
    return Subspace.from_vectors(A.field, A.dim,
                                 [A.mul(u, v) for u in s.rows for v in t.rows])


def _is_ideal_reference(A, s):
    return all(s.contains(A.mul(unit_vector(A.field, A.dim, i), v))
               for i in range(A.dim) for v in s.rows)


def _u_operator_by_mul(A, a):
    """2 a(a b_j) - (aa) b_j column by column, each product one ``A.mul``."""
    f = A.field
    two = f.from_int(2)
    aa = A.mul(a, a)
    cols = []
    for j in range(A.dim):
        b = unit_vector(f, A.dim, j)
        t, u = A.mul(a, A.mul(a, b)), A.mul(aa, b)
        cols.append([f.sub(f.mul(two, x), y) for x, y in zip(t, u)])
    return Matrix(f, [list(r) for r in zip(*cols)])


def _radical(A, alpha):
    """The radical of the Frobenius form: the kernel of I + (alpha/2) Adj,
    Adj the collinearity graph's adjacency matrix, read off the table."""
    f = A.field
    weight = f.div(alpha, f.from_int(2))
    gram = [[f.one if i == j else (weight if len(A.table[i][j]) == 3 else f.zero)
             for j in range(A.dim)] for i in range(A.dim)]
    return kernel(Matrix(f, gram))


def _product_kernel_cases():
    """(table, subspaces) over Q, F3 and F5: the half-parameter Matsuo
    algebras of P3 and D4 with the zero subspace, the whole space, spans of
    seeded vectors, and the radical of the Frobenius form."""
    cases = []
    for f in (Q, F3, F5):
        half = f.div(f.one, f.from_int(2))
        for A in (p3_algebra(f), _root_matsuo("D4", half, f)):
            vecs = _seeded_vectors(f, A.dim, seed=11, count=6)
            spaces = [Subspace.zero(f, A.dim), Subspace.full(f, A.dim),
                      Subspace.from_vectors(f, A.dim, vecs[:2]),
                      Subspace.from_vectors(f, A.dim, vecs[2:6]),
                      _radical(A, half)]
            cases.append((A, spaces))
    return cases


def test_product_kernel_matches_per_pair_mul():
    ideals = {True: 0, False: 0}
    proper_ideals = 0
    for A, spaces in _product_kernel_cases():
        for s in spaces:
            for t in spaces:
                assert subspace_product(A, s, t) == _subspace_product_reference(A, s, t)
            verdict = is_ideal(A, s)
            assert verdict == _is_ideal_reference(A, s)
            ideals[verdict] += 1
            proper_ideals += verdict and 0 < s.dim < A.dim
            for a in s.rows[:3]:
                assert u_operator(A, a) == _u_operator_by_mul(A, a)
    # the fixtures reach both verdicts, and ideals other than 0 and A
    assert ideals[True] and ideals[False] and proper_ideals


def test_count_then_diagonal_step_matches_jordan_check():
    # once count_linearized_quadruples finds no failure, the diagonal gaps at
    # all dim**2 pairs (b_i, b_y), as the char-3 chain claim reads them, give
    # jordan_check's verdict, and the first failing pair is its witness
    for A in (p3_algebra(F3), _f3_diagonal_failure()):
        total, failed = count_linearized_quadruples(A)
        assert (total, failed) == (A.dim ** 4, 0)
        failing = [(i, i, y, i) for i in range(A.dim) for y in range(A.dim)
                   if algebra._diagonal_gap(A, i, y)]
        witness = failing[0] if failing else None
        assert witness == _diagonal_reference(A)
        res = jordan_check(A)
        assert (res.is_jordan, res.witness) == (witness is None, witness or ())
    assert witness == (9, 9, 9, 9)


def _dense_diagonal_gap(A, i, y):
    """x(y(xx)) - (xy)(xx) at x = b_i and b_y, by dense products over the
    algebra's field (``ref_mul``)."""
    f = A.field
    m = lambda a, b: ref_mul(A, a, b)
    x, b = unit_vector(f, A.dim, i), unit_vector(f, A.dim, y)
    xx = m(x, x)
    return [f.sub(u, v) for u, v in zip(m(x, m(b, xx)), m(m(x, b), xx))]


def _diagonal_gap_fixtures():
    """(id, table) pairs: P3 and D4 at 1/2 over Q, F3 and F5, the F3 table
    whose diagonal fails alone, and seeded random dense commutative 5-dim
    tables over Q, F3 and F5."""
    out = [("diagonal-failure-F3", _f3_diagonal_failure())]
    for f in (Q, F3, F5):
        half = f.div(f.one, f.from_int(2))
        out += [("P3-" + f.name, p3_algebra(f)),
                ("D4-" + f.name, _root_matsuo("D4", half, f))]
    rng = random.Random(39)
    entries = {Q: [Q.parse(s) for s in ("1/2", "-2/3", "3", "-1", "0")],
               F3: list(range(3)), F5: list(range(5))}
    for f, values in entries.items():
        for n in range(4):
            out.append(("random-%s-%d" % (f.name, n), _random_table(rng, f, values, 5)))
    return out


@pytest.mark.parametrize("name, A", _diagonal_gap_fixtures(),
                         ids=[name for name, _ in _diagonal_gap_fixtures()])
def test_diagonal_gap_matches_the_dense_gap_at_every_pair(name, A):
    # the linearized sum at (i, i, y, i) is divisible by 3 in every
    # coordinate, and its third is the diagonal gap times the view's scale
    # cubed, at every pair; a Matsuo table's basis elements are idempotents,
    # so there every diagonal gap is zero
    view = A.int_view()
    cube, failing = view.scale ** 3, 0
    for i in range(A.dim):
        for y in range(A.dim):
            thrice = algebra._linearized_sum(view.rows, i, i, y, i)
            assert all(w % 3 == 0 for w in thrice.values()), (name, i, y)
            dense = _dense_diagonal_gap(A, i, y)
            expected = {r: w if view.modulus else w * cube
                        for r, w in enumerate(dense) if w}
            assert algebra._diagonal_gap(A, i, y) == expected, (name, i, y)
            failing += bool(expected)
    assert (failing == 0) == name.startswith(("P3-", "D4-"))


def test_char3_trivial_and_zero_divisors():
    f = F3
    A = matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    z = [f.one] * 9
    assert is_trivial_element(A, z)
    # a single line sum squares to (3/2) itself = 0, so it is trivial too
    t = [f.zero] * 9
    for i in (0, 1, 2):
        t[i] = f.one
    assert is_absolute_zero_divisor(A, t)
    assert A.mul(t, t) == [f.zero] * 9
    assert is_trivial_element(A, t)
    # the sum of two intersecting line sums squares to the point sum:
    # an absolute zero divisor that is not trivial
    s = list(t)
    for i in (0, 3, 6):
        s[i] = f.add(s[i], f.one)
    assert A.mul(s, s) == z
    assert is_absolute_zero_divisor(A, s)
    assert not is_trivial_element(A, s)


def test_char3_ideal_squares():
    f = F3
    A = matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    z = Subspace.from_vectors(f, 9, [[f.one] * 9])
    line_sums = []
    for line in build_p3().lines:
        v = [f.zero] * 9
        for p in line:
            v[p] = f.one
        line_sums.append(v)
    t = Subspace.from_vectors(f, 9, line_sums)
    r_vecs = []
    for i in range(8):
        v = [f.zero] * 9
        v[i], v[8] = f.one, f.neg(f.one)
        r_vecs.append(v)
    r = Subspace.from_vectors(f, 9, r_vecs)
    assert (z.dim, t.dim, r.dim) == (1, 6, 8)
    assert subspace_product(A, z, z).is_zero()
    assert subspace_product(A, t, t) == z
    assert subspace_product(A, r, r) == t
    assert is_ideal(A, z) and is_ideal(A, t) and is_ideal(A, r)
    assert is_solvable(A, r)
    assert not is_solvable(A, Subspace.full(f, 9))
    q = quotient(A, r)
    assert q.dim == 1
    assert q.mul_basis(0, 0) == [f.one]


def test_solvable_chain_length_bounded_by_dimension():
    from matsuo.algebra import solvable_chain
    f = F3
    A = matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    r_vecs = []
    for i in range(8):
        v = [f.zero] * 9
        v[i], v[8] = f.one, f.neg(f.one)
        r_vecs.append(v)
    chain = solvable_chain(A, Subspace.from_vectors(f, 9, r_vecs))
    assert chain[-1].dim == 0
    assert len(chain) <= A.dim + 1


def test_quotient_requires_ideal():
    A = p3_algebra()
    s = Subspace.from_vectors(Q, 9, [unit_vector(Q, 9, 0)])
    with pytest.raises(AlgebraError):
        quotient(A, s)


def test_iso_check_identity_and_zero():
    A = p3_algebra()
    ident = Matrix.identity(Q, 9)
    assert iso_check(A, A, ident)
    assert not iso_check(A, A, Matrix.zeros(Q, 9, 9))


def test_direct_sum_blocks():
    gam = gamma_of_rootsystem(root_system_from_name("A2"))
    A = matsuo_algebra(gam, HALF, Q)
    B = AlgebraTable(Q, ["e"], {(0, 0): [Q.one]})
    S = direct_sum(A, B)
    assert S.dim == 4
    # cross products vanish
    assert S.mul(unit_vector(Q, 4, 0), unit_vector(Q, 4, 3)) == [Q.zero] * 4
    assert jordan_check(S)


def test_json_round_trip():
    A = p3_algebra()
    text = algebra_to_json(A)
    back = algebra_from_json(text)
    assert back.dim == A.dim
    assert back.labels == A.labels
    assert back.table == A.table
    assert algebra_to_json(back) == text


def test_json_read_reports_the_first_bad_scalar():
    data = json.loads(algebra_to_json(p3_algebra()))
    vec = data["products"][0][1]
    vec[0], vec[2] = "0.5", "1e1"
    data["products"][2][0][0] = "1e1"
    with pytest.raises(ValueError, match="'0.5'"):
        algebra_from_json(json.dumps(data))


@pytest.mark.parametrize("field, zeros",
                         [(Q, ("0/3", "-0", "+0", "00")),
                          (F5, ("5", "-5", "10", "5 mod 5"))], ids=["Q", "F5"])
def test_json_read_keeps_no_key_for_a_zero_however_spelt(field, zeros):
    A = p3_algebra(field)
    data = json.loads(algebra_to_json(A))
    spelt = []
    for i, row in enumerate(data["products"]):
        for off, vec in enumerate(row):
            for k, s in enumerate(vec):
                if s == field.fmt(field.zero):
                    vec[k] = zeros[len(spelt) % len(zeros)]
                    spelt.append((i, i + off, k))
    back = algebra_from_json(json.dumps(data))
    assert len(spelt) > len(zeros)
    assert all(k not in back.table[i][j] for i, j, k in spelt)
    assert back.table == A.table


def _algebra_to_json_dict(A):
    """The dict form of a table that ``algebra_to_json`` once passed to
    ``json.dumps(indent=2, sort_keys=True)``: the writer's oracle."""
    fmt = A.field.fmt
    zero = fmt(A.field.zero)
    products = []
    for i in range(A.dim):
        row = []
        for j in range(i, A.dim):
            vec = [zero] * A.dim
            for k, c in A.sparse_row(i, j).items():
                vec[k] = fmt(c)
            row.append(vec)
        products.append(row)
    return {"field": A.field.name, "dim": A.dim, "labels": list(A.labels),
            "products": products}


def _half_matsuo(f, **source):
    return matsuo_algebra(triple_system_from_cli(**source),
                          f.div(f.one, f.from_int(2)), f)


_WRITER_CASES = {
    "P3/Q": lambda: _half_matsuo(Q, space="P3"),
    "E7/Q": lambda: _half_matsuo(Q, roots="E7"),
    "D5/F5": lambda: _half_matsuo(F5, roots="D5"),
    # relabelled, the sparse rows arrive in unsorted key order
    "E7/Q-relabelled": lambda: _relabelled_table(_half_matsuo(Q, roots="E7"), 5),
    "D5/F5-relabelled": lambda: _relabelled_table(_half_matsuo(F5, roots="D5"), 6),
    "E8/Q": lambda: _half_matsuo(Q, roots="E8"),
    "nonzero-at-both-ends": lambda: AlgebraTable(
        Q, ["a", "b", "c", "d"], {(1, 2): {3: Q.parse("-1/3"), 0: Q.parse("2")}}),
    "no-zero-entry": lambda: AlgebraTable(
        F7, ["x", "y", "z"], {(0, 2): [1, 2, 3], (1, 1): {2: 6, 1: 5, 0: 4}}),
    "sym6/Q": lambda: _half_matsuo(Q, group="sym:6"),
    "h3-q-zeta": lambda: h3_algebra(Q, zeta_model(Q)),
    "h3-q-beta": lambda: h3_algebra(Q, beta_model(Q)),
    "h3-f5-zeta": lambda: h3_algebra(F5, zeta_model(F5)),
    "h3-f7-beta": lambda: h3_algebra(F7, beta_model(F7)),
    "dim0-from-json": lambda: algebra_from_json(
        '{"dim": 0, "field": "F7", "labels": [], "products": []}'),
    "dim1": lambda: AlgebraTable(Q, ["e"], {(0, 0): [HALF]}),
    "escaped-labels": lambda: AlgebraTable(
        F5, ["\u00e9t\u00e9", 'say "x"', "back\\slash", "\u03b1\u2032\n"],
        {(0, 1): {2: 3}, (3, 3): [1, 0, 4, 0]}),
}


@pytest.mark.parametrize("name", list(_WRITER_CASES))
def test_json_writer_matches_json_dumps_of_the_dict_form(name):
    A = _WRITER_CASES[name]()
    expected = json.dumps(_algebra_to_json_dict(A), indent=2, sort_keys=True) + "\n"
    assert algebra_to_json(A) == expected


def find_idempotents(A, max_support=2, numerators=range(-3, 4), denominators=(1, 2, 3)):
    """Nonzero idempotents supported on at most max_support basis vectors with
    coordinates from a small rational grid.  Exhaustive only in that range."""
    f = A.field
    grid = []
    for num in numerators:
        for den in denominators:
            if num != 0:
                try:
                    grid.append(f.div(f.from_int(num), f.from_int(den)))
                except ZeroDivisionError:
                    continue
    grid = sorted(set(grid), key=str)
    found = []
    seen = set()
    for size in range(1, max_support + 1):
        for support in combinations(range(A.dim), size):
            for coeffs in product(grid, repeat=size):
                v = [f.zero] * A.dim
                for pos, c in zip(support, coeffs):
                    v[pos] = c
                if A.is_idempotent(v):
                    key = tuple(v)
                    if key not in seen:
                        seen.add(key)
                        found.append(v)
    return found


def test_find_idempotents_and_peirce_axes():
    # every small-support idempotent of a Jordan algebra passes the
    # half-parameter fusion rules
    gam = gamma_of_rootsystem(root_system_from_name("A2"))
    A = matsuo_algebra(gam, HALF, Q)
    assert jordan_check(A)
    rules = phi_alpha(Q, HALF)
    found = find_idempotents(A, max_support=2)
    assert found
    for e in found:
        assert check_axis(A, e, rules).ok

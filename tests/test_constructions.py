from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from matsuo.fields import PrimeField, Rationals
from matsuo.linalg import Matrix, Subspace, unit_vector
from matsuo.fischer import (
    build_p3,
    gamma_of_group,
    gamma_of_rootsystem,
    root_system_from_name,
    P3_PARALLEL_CLASSES,
)
from matsuo.groups import (
    _perm_mul,
    build_sym,
    build_wk_affine_a,
    su32_quotient_presentation,
    wk_embedding_subgroup,
)
from matsuo.algebra import (
    AlgebraError,
    AlgebraTable,
    algebra_to_json,
    eigen_decomposition,
    is_absolute_zero_divisor,
    is_multiplicative,
    iso_check,
    jordan_check,
    _orbit_minima,
    _table_automorphisms,
)
from matsuo import algebra, claims
from matsuo import constructions as cons
from test_linalg import jordan_product

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)
HALF = Q.parse("1/2")
GOLDEN = Path(__file__).parent / "golden"


# --- Matsuo builder -----------------------------------------------------------

def matsuo_eigenbasis(space, alpha, field, x):
    """The labelled eigenvectors of a point x: the point itself (eigenvalue 1);
    y + x^y - alpha x per line through x together with the non-neighbours
    (eigenvalue 0); y - x^y per line through x (eigenvalue alpha)."""
    f = field
    n = space.n_points
    one_vecs = [unit_vector(f, n, x)]
    zero_vecs = []
    alpha_vecs = []
    for line in space.lines_through(x):
        y, z = sorted(p for p in line if p != x)
        v0 = [f.zero] * n
        v0[y] = f.one
        v0[z] = f.one
        v0[x] = f.neg(alpha)
        zero_vecs.append(v0)
        va = [f.zero] * n
        va[y] = f.one
        va[z] = f.neg(f.one)
        alpha_vecs.append(va)
    nbrs = set(space.neighbours(x))
    for y in range(n):
        if y != x and y not in nbrs:
            zero_vecs.append(unit_vector(f, n, y))
    return {f.one: one_vecs, f.zero: zero_vecs, alpha: alpha_vecs}


def test_matsuo_rejects_degenerate_alpha():
    for alpha in (Q.zero, Q.one):
        with pytest.raises(AlgebraError):
            cons.matsuo_algebra(build_p3(), alpha, Q)


def test_matsuo_dims():
    assert cons.matsuo_algebra(build_p3(), HALF, Q).dim == 9
    for n in (3, 4, 5):
        gam = gamma_of_rootsystem(root_system_from_name("A%d" % (n - 1)))
        assert cons.matsuo_algebra(gam, HALF, Q).dim == n * (n - 1) // 2


def test_isolated_point_gives_one_dim_factor():
    from matsuo.fischer import PartialTripleSystem
    sp = PartialTripleSystem(4, [(0, 1, 2)])
    A = cons.matsuo_algebra(sp, HALF, Q)
    e3 = unit_vector(Q, 4, 3)
    assert A.mul(e3, e3) == e3
    for i in range(3):
        assert A.mul(e3, unit_vector(Q, 4, i)) == [Q.zero] * 4


def test_matsuo_eigenbasis_formulas():
    sp = build_p3()
    A = cons.matsuo_algebra(sp, HALF, Q)
    basis = matsuo_eigenbasis(sp, HALF, Q, 0)
    count = 0
    for lam, vecs in basis.items():
        for v in vecs:
            count += 1
            scaled = [Q.mul(lam, c) for c in v]
            assert A.mul(unit_vector(Q, 9, 0), v) == scaled
    assert count == 9
    # cross-validates the kernel computation
    dec = eigen_decomposition(A, unit_vector(Q, 9, 0), candidates=[Q.one, Q.zero, HALF])
    assert dec.dims() == (
        len(basis[Q.one]), len(basis[Q.zero]), len(basis[HALF])
    )


def test_matsuo_eigenbasis_isolated_point():
    from matsuo.fischer import PartialTripleSystem
    sp = PartialTripleSystem(4, [(1, 2, 3)])
    basis = matsuo_eigenbasis(sp, HALF, Q, 0)
    assert len(basis[Q.one]) == 1
    assert len(basis[Q.zero]) == 3
    assert basis[HALF] == []


# --- root projections -----------------------------------------------------------

def test_proj_matrices_for_the_triangle_system():
    half = Q.parse("1/2")
    neg = Q.neg(half)
    zero = Q.zero
    m_a = cons.proj_matrix(Q, (1, -1, 0))
    assert m_a.rows == [[half, neg, zero], [neg, half, zero], [zero, zero, zero]]
    m_b = cons.proj_matrix(Q, (0, 1, -1))
    assert m_b.rows == [[zero, zero, zero], [zero, half, neg], [zero, neg, half]]
    m_ab = cons.proj_matrix(Q, (1, 0, -1))
    assert m_ab.rows == [[half, zero, neg], [zero, zero, zero], [neg, zero, half]]
    quarter = Q.parse("1/4")
    assert jordan_product(m_a, m_b) == (m_a + m_b - m_ab).scale(quarter)


def test_proj_matrices_match_printed_rank_two_cases():
    b2 = root_system_from_name("B2")
    m_a = cons.proj_matrix(Q, (1, 0))
    assert m_a == Matrix(Q, [[Q.one, Q.zero], [Q.zero, Q.zero]])
    m_ab = cons.proj_matrix(Q, (0, 1))
    assert m_ab == Matrix(Q, [[Q.zero, Q.zero], [Q.zero, Q.one]])
    half = Q.parse("1/2")
    m_b = cons.proj_matrix(Q, (-1, 1))
    assert m_b.rows == [[half, Q.neg(half)], [Q.neg(half), half]]
    # the half-weighted formula for the mixed pair
    quarter = Q.parse("1/4")
    direct = jordan_product(m_a, m_b)
    formula = (m_a + m_b.scale(Q.from_int(2)) - m_ab).scale(quarter)
    assert direct == formula


def test_projection_case_formula_all_rank_two_systems():
    expected_ks = {"A2": [1], "B2": [2], "G2": [1, 3]}
    for name, ks in expected_ks.items():
        cases = cons.verify_projection_products(Q, root_system_from_name(name))
        assert all(c.ok for c in cases)
        assert sorted({c.k for c in cases if c.kind == "span"}) == ks


def test_projection_formula_over_f5():
    cases = cons.verify_projection_products(F5, root_system_from_name("A2"))
    assert all(c.ok for c in cases)


def test_g2_projections_rejected_in_characteristic_three():
    with pytest.raises(AlgebraError):
        cons.jordan_from_roots(F3, root_system_from_name("G2"))


def test_jr_dimensions():
    for name, n in (("A1", 1), ("A2", 2), ("A3", 3), ("A4", 4), ("A5", 5),
                    ("D4", 4), ("D5", 5), ("E6", 6)):
        rs = root_system_from_name(name)
        assert cons.jr_dimension(Q, rs) == n * (n + 1) // 2


def test_jr_dimensions_remaining_irreducible_systems():
    for name, n in (("B2", 2), ("G2", 2), ("E7", 7), ("E8", 8)):
        rs = root_system_from_name(name)
        assert cons.jr_dimension(Q, rs) == n * (n + 1) // 2


@pytest.mark.parametrize("f", [Q, F5, F3], ids=["Q", "F5", "F3"])
def test_jr_dimension_matches_the_span_of_the_flattened_outer_products(f):
    # the systems of the root-projections claim, then E7 and E8
    for name in ("A2", "B2", "G2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8"):
        rs = root_system_from_name(name)
        vecs = [[f.from_int(a * b) for a in r for b in r] for r in rs.positive]
        assert (cons.jr_dimension(f, rs)
                == Subspace.from_vectors(f, rs.ambient ** 2, vecs).dim), name


def test_large_matsuo_tables_build():
    # the big exceptional systems are supported as in-memory tables
    for name, points in (("E6", 36), ("E7", 63)):
        gam = gamma_of_rootsystem(root_system_from_name(name))
        A = cons.matsuo_algebra(gam, HALF, Q)
        assert A.dim == points


def test_jordan_from_roots_is_jordan():
    for name in ("A2", "B2", "G2", "D4"):
        proj = cons.jordan_from_roots(Q, root_system_from_name(name))
        assert jordan_check(proj.algebra)


def test_matsuo_to_projection_quotient_for_d4():
    rs = root_system_from_name("D4")
    proj, m = cons.matsuo_to_projection_map(Q, rs)
    gam = gamma_of_rootsystem(rs)
    A = cons.matsuo_algebra(gam, HALF, Q)
    assert (A.dim, proj.algebra.dim) == (12, 10)
    assert is_multiplicative(A, proj.algebra, m)
    from matsuo.linalg import rref
    assert rref(m)[1] == 10


def test_matsuo_to_projection_bijective_for_a_types():
    for name in ("A2", "A3"):
        rs = root_system_from_name(name)
        proj, m = cons.matsuo_to_projection_map(Q, rs)
        gam = gamma_of_rootsystem(rs)
        A = cons.matsuo_algebra(gam, HALF, Q)
        assert iso_check(A, proj.algebra, m)


# --- zero-sum symmetric matrices -------------------------------------------------

def test_zero_sum_basis_matrices_are_symmetric_zero_sum():
    zs = cons.zero_sum_sym_algebra(Q, 4)
    for m in zs.basis_matrices:
        assert m == m.transpose()
        for row in m.rows:
            acc = Q.zero
            for a in row:
                acc = Q.add(acc, a)
            assert acc == Q.zero


def test_zero_sum_unit_for_n3():
    zs = cons.zero_sum_sym_algebra(Q, 3)
    two_thirds, neg_third = Q.parse("2/3"), Q.parse("-1/3")
    assert zs.unit_matrix.rows[0] == [two_thirds, neg_third, neg_third]
    # the unit acts as identity on the basis
    for i in range(zs.algebra.dim):
        e = unit_vector(Q, zs.algebra.dim, i)
        assert zs.algebra.mul(zs.unit, e) == e


def test_zero_sum_non_unital_when_n_vanishes():
    assert cons.zero_sum_sym_algebra(F3, 3).unit is None
    assert cons.zero_sum_sym_algebra(F5, 5).unit is None


def test_an_isomorphism_small():
    rs, zs, iso = cons.an_isomorphism(Q, 3)
    gam = gamma_of_rootsystem(rs)
    A = cons.matsuo_algebra(gam, HALF, Q)
    assert A.dim == zs.algebra.dim == 3
    assert iso_check(A, zs.algebra, iso)


# --- plane of order three ---------------------------------------------------------

def test_p3_unit_rejected_in_char_three():
    with pytest.raises(AlgebraError):
        cons.p3_unit(F3)
    with pytest.raises(AlgebraError):
        cons.line_idempotents(F3, (0, 1, 2))


def test_line_idempotent_pair_sums_to_unit():
    e, fl = cons.line_idempotents(Q, (0, 1, 2))
    u = cons.p3_unit(Q)
    assert [Q.add(a, b) for a, b in zip(e, fl)] == u


def _p3_over(f):
    return cons.matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)


def _p3_line_idempotents_reference(f):
    """Oracle for p3-line-idempotents: every line and every pair of parallel
    lines, with no automorphism."""
    A = _p3_over(f)
    checks = []
    idem = 0
    for line in build_p3().lines:
        e, fl = cons.line_idempotents(f, line)
        if A.is_idempotent(e) and A.is_idempotent(fl):
            idem += 1
    claims._chk(checks, "idempotent pairs over the 12 lines (%s)" % f.name, 12, idem)
    orth = 0
    pairs = 0
    for cls in P3_PARALLEL_CLASSES:
        for i in range(3):
            for j in range(i + 1, 3):
                pairs += 1
                e1, _ = cons.line_idempotents(f, cls[i])
                e2, _ = cons.line_idempotents(f, cls[j])
                if all(c == f.zero for c in A.mul(e1, e2)):
                    orth += 1
    claims._chk(checks, "orthogonal parallel pairs (%s)" % f.name, pairs, orth)
    return checks


def _p3_eigendims_reference(f):
    """Oracle for p3-eigendims: every line idempotent and every point."""
    A = _p3_over(f)
    half = f.div(f.one, f.from_int(2))

    def dims_144(e):
        dec = eigen_decomposition(A, e, candidates=[f.one, f.zero, half])
        return dec.diagonalizable and dec.dims() == (1, 4, 4)

    checks = []
    good = sum(dims_144(cons.line_idempotents(f, line)[0])
               for line in build_p3().lines)
    claims._chk(checks, "line idempotents with dims (1,4,4) (%s)" % f.name, 12, good)
    pts = sum(dims_144(unit_vector(f, 9, i)) for i in range(9))
    claims._chk(checks, "points with dims (1,4,4) (%s)" % f.name, 9, pts)
    return checks


@pytest.mark.parametrize("field", [Q, F5, F7, F11], ids=lambda f: f.name)
def test_p3_claims_once_per_orbit_match_the_per_line_loops(field):
    assert (claims._claim_p3_line_idempotents([field], None)[1]
            == _p3_line_idempotents_reference(field))
    assert (claims._claim_p3_eigendims([field], None)[1]
            == _p3_eigendims_reference(field))


@pytest.mark.parametrize("field", [Q, F5], ids=lambda f: f.name)
def test_p3_orbits_are_the_parallel_classes_and_one_point_orbit(field):
    lines = build_p3().lines
    gens = _table_automorphisms(_p3_over(field))
    orbits = claims._set_orbits(lines, gens)
    assert ({frozenset(orbit) for orbit in orbits}
            == {frozenset(cls) for cls in P3_PARALLEL_CLASSES})
    assert len(set(_orbit_minima(9, gens))) == 1
    # the 12 pairs of parallel lines: one orbit of 3 per class
    pairs = [tuple(sorted((cls[i], cls[j])))
             for cls in P3_PARALLEL_CLASSES for i, j in ((0, 1), (0, 2), (1, 2))]
    pair_orbits = claims._set_orbits(pairs, gens)
    assert sorted(map(len, pair_orbits)) == [3] * 4
    assert sorted(p for orbit in pair_orbits for p in orbit) == sorted(pairs)
    # with no automorphism every line is its own orbit
    assert claims._set_orbits(lines, ()) == [[line] for line in lines]


def test_p3_peirce_rejects_non_parallel_lines():
    with pytest.raises(AlgebraError):
        cons.p3_peirce(Q, ((0, 1, 2), (0, 3, 6), (6, 7, 8)))


def _p3_peirce_reference(field, parallel_class):
    """Oracle: each line idempotent's full eigen decomposition, one
    ``Subspace.intersect`` per pair of half-eigenspaces, and the direct sum
    decided by adding the six pieces one at a time."""
    lines = tuple(tuple(sorted(l)) for l in parallel_class)
    if sorted(p for l in lines for p in l) != list(range(9)):
        raise AlgebraError("lines do not form a parallel class")
    f = field
    A = cons.matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    es = [cons.line_idempotents(f, l)[0] for l in lines]
    half = f.div(f.one, f.from_int(2))
    half_spaces = [eigen_decomposition(A, e, candidates=[f.one, f.zero, half])
                   .space_of(half) for e in es]
    off = {(i, j): half_spaces[i].intersect(half_spaces[j])
           for i in range(3) for j in range(i + 1, 3)}
    total = Subspace.zero(f, 9)
    dims = 0
    for s in [Subspace.from_vectors(f, 9, [e]) for e in es] + list(off.values()):
        total = total.add(s)
        dims += s.dim
    return cons.PeirceDecomposition(off, total.dim == 9 and dims == 9)


def _peirce_outcome(fn, field, parallel_class):
    try:
        pd = fn(field, parallel_class)
    except AlgebraError as err:
        return "AlgebraError: %s" % err
    return ({k: (s.rows, s.pivots, [type(x) for r in s.rows for x in r])
             for k, s in pd.off_diagonal.items()}, pd.direct_sum_ok)


@pytest.mark.parametrize("f", [Q, F5, F7, F11], ids=["Q", "F5", "F7", "F11"])
def test_p3_peirce_matches_the_intersection_reference(f):
    for cls in P3_PARALLEL_CLASSES:
        got = _peirce_outcome(cons.p3_peirce, f, cls)
        assert got == _peirce_outcome(_p3_peirce_reference, f, cls)
        assert got[1] is True
        assert list(got[0]) == [(0, 1), (0, 2), (1, 2)]


def test_p3_peirce_refusals_match_the_reference():
    not_a_class = ((0, 1, 2), (0, 3, 6), (6, 7, 8))
    for f, cls, message in (
            (Q, not_a_class, "lines do not form a parallel class"),
            (F3, P3_PARALLEL_CLASSES[0], "line idempotents need characteristic != 3")):
        assert (_peirce_outcome(cons.p3_peirce, f, cls)
                == _peirce_outcome(_p3_peirce_reference, f, cls)
                == "AlgebraError: " + message)


def test_p3_peirce_explicit_piece():
    pd = cons.p3_peirce(Q, P3_PARALLEL_CLASSES[0])
    # the (1,2) piece is supported on the third line {7,8,9} with zero sum
    spc = pd.off_diagonal[(0, 1)]
    vecs = []
    for lam, mu in ((1, 0), (0, 1)):
        v = [Q.zero] * 9
        v[6], v[7], v[8] = Q.from_int(lam), Q.from_int(mu), Q.from_int(-(lam + mu))
        vecs.append(v)
    assert spc == Subspace.from_vectors(Q, 9, vecs)
    assert pd.direct_sum_ok


# --- hermitian 3x3 model ----------------------------------------------------------

def _h3_rule_check_reference(field, model):
    """The five hermitian rules checked on the 6x6 block matrices of the
    braces, each product formed from its two matrices."""
    brace = cons._brace
    els = [model.one(), model.gen()]
    idx = range(3)

    # 2 x[ij] . y[jk] = (xy)[ik] for distinct i, j, k
    for i in idx:
        for j in idx:
            for k in idx:
                if len({i, j, k}) != 3:
                    continue
                for x in els:
                    for y in els:
                        lhs = jordan_product(brace(model, x, i, j),
                                             brace(model, y, j, k), 1)
                        if lhs != brace(model, model.mul(x, y), i, k):
                            return False
    # 2 x[ii] . y[ij] = ((x + sigma x) y)[ij] for i != j
    for i in idx:
        for j in idx:
            if i == j:
                continue
            for x in els:
                for y in els:
                    lhs = jordan_product(brace(model, x, i, i),
                                         brace(model, y, i, j), 1)
                    tr = model.add(x, model.sigma(x))
                    if lhs != brace(model, model.mul(tr, y), i, j):
                        return False
    # 2 x[ij] . y[ij] = (x sigma(y))[ii] + (x sigma(y))[jj] for i != j
    for i, j in cons._H3_OFF:
        for x in els:
            for y in els:
                lhs = jordan_product(brace(model, x, i, j),
                                     brace(model, y, i, j), 1)
                w = model.mul(x, model.sigma(y))
                if lhs != brace(model, w, i, i) + brace(model, w, j, j):
                    return False
    # 2 x[ii] . y[ii] = ((x + sigma x)(y + sigma y))[ii]
    for i in idx:
        for x in els:
            for y in els:
                lhs = jordan_product(brace(model, x, i, i),
                                     brace(model, y, i, i), 1)
                w = model.mul(model.add(x, model.sigma(x)),
                              model.add(y, model.sigma(y)))
                if lhs != brace(model, w, i, i):
                    return False
    # x[ii] . y[kl] = 0 when i is outside {k, l}
    for i in idx:
        for k, l in cons._H3_OFF + [(t, t) for t in idx]:
            if i in (k, l):
                continue
            for x in els:
                for y in els:
                    prod = jordan_product(brace(model, x, i, i),
                                          brace(model, y, k, l))
                    if not prod.is_zero():
                        return False
    return True


def test_h3_rules_hold_in_both_models():
    assert cons.h3_rule_check(cons.h3_algebra(Q))
    assert cons.h3_rule_check(cons.h3_algebra(Q, cons.beta_model(Q)), cons.beta_model(Q))
    assert cons.h3_rule_check(cons.h3_algebra(F5))
    assert cons.h3_rule_check(cons.h3_algebra(F7, cons.beta_model(F7)),
                              cons.beta_model(F7))


@pytest.mark.parametrize("field", [Q, F5, F7], ids=["Q", "F5", "F7"])
@pytest.mark.parametrize("make_model", [cons.zeta_model, cons.beta_model],
                         ids=["zeta", "beta"])
def test_h3_rules_on_the_table_agree_with_the_block_matrices(field, make_model):
    model = make_model(field)
    H = cons.h3_algebra(field, model)
    assert cons.h3_rule_check(H, model) == _h3_rule_check_reference(field, model)
    assert _h3_rule_check_reference(field, model)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_h3_rules_on_the_table_refuse_any_changed_structure_constant(field):
    # the five rules fix every product of two basis braces, so changing any
    # one coordinate of any one product breaks a rule
    H = cons.h3_algebra(field)
    for i in range(9):
        for j in range(i, 9):
            for k in (0, 4, 8):
                products = {(a, b): dict(H.table[a][b])
                            for a in range(9) for b in range(a, 9)}
                old = products[(i, j)].get(k, field.zero)
                products[(i, j)][k] = field.add(old, field.one)
                bent = AlgebraTable(field, H.labels, products)
                assert not cons.h3_rule_check(bent), (i, j, k)


@pytest.mark.parametrize("field, model, name", [
    (Q, cons.zeta_model, "q-zeta"),
    (Q, cons.beta_model, "q-beta"),
    (F5, cons.zeta_model, "f5-zeta"),
    (F7, cons.beta_model, "f7-beta"),
])
def test_h3_tables_match_golden(field, model, name):
    text = algebra_to_json(cons.h3_algebra(field, model(field)))
    assert text == (GOLDEN / ("h3-%s.json" % name)).read_text()


class _NegatingConjugation(cons.EtaleModel):
    # g -> -g is not a ring map of F[g]/(g^2 + g + 1)
    def sigma(self, x):
        return (x[0], self.field.neg(x[1]))


def test_h3_refuses_a_conjugation_that_is_not_an_automorphism():
    model = _NegatingConjugation(Q, "beta", 1, 1)
    assert not _h3_rule_check_reference(Q, model)
    # g[12] . g[12] puts -g^2 = 1 + g on the diagonal, outside F, so there is
    # no table to read the rules off
    with pytest.raises(AlgebraError, match="leaves the span"):
        cons.h3_algebra(Q, model)


class _FixedConjugation(cons.EtaleModel):
    # the identity fixes g, so g + sigma(g) = 2g is no scalar
    def sigma(self, x):
        return x


def test_h3_coordinates_refuse_a_diagonal_entry_outside_the_field():
    model = _FixedConjugation(Q, "zeta", 0, 3)
    assert cons._h3_coordinates(model, model.one(), 1, 1)[1] == 2
    with pytest.raises(AlgebraError, match="outside the field"):
        cons._h3_coordinates(model, model.gen(), 1, 1)


def test_h3_rejects_characteristic_three():
    with pytest.raises(AlgebraError):
        cons.h3_algebra(F3)


def test_h3_one_twelve_times_one_twentythree():
    H = cons.h3_algebra(Q)
    idx = {l: i for i, l in enumerate(H.labels)}
    u12 = unit_vector(Q, 9, idx["1[12]"])
    u23 = unit_vector(Q, 9, idx["1[23]"])
    prod = H.mul(u12, u23)
    doubled = [Q.mul(Q.from_int(2), c) for c in prod]
    assert doubled == unit_vector(Q, 9, idx["1[13]"])


def _apply(m, v):
    """The matrix m applied to the coordinate list v, as a matrix product."""
    return [r[0] for r in (m * Matrix(m.field, [[x] for x in v])).rows]


def test_eta_sends_line_idempotents_to_diagonal_units():
    eta = cons.eta_matrix(Q)
    H = cons.h3_algebra(Q)
    idx = {l: i for i, l in enumerate(H.labels)}
    for t, line in enumerate(P3_PARALLEL_CLASSES[0]):
        e, _ = cons.line_idempotents(Q, line)
        img = _apply(eta, e)
        assert img == unit_vector(Q, 9, idx["e%d%d" % (t + 1, t + 1)])


def test_eta_difference_of_points_hits_half_zeta():
    # p1 - p2 has (lam, mu) = (1, -1): the image is (1/2) of the generator slot
    eta = cons.eta_matrix(Q)
    H = cons.h3_algebra(Q)
    idx = {l: i for i, l in enumerate(H.labels)}
    v = [Q.zero] * 9
    v[0], v[1] = Q.one, Q.neg(Q.one)
    img = _apply(eta, v)
    expected = [Q.zero] * 9
    expected[idx["z[23]"]] = HALF
    assert img == expected


def test_eta_is_isomorphism_and_involutive_composition():
    A = cons.matsuo_algebra(build_p3(), HALF, Q)
    H = cons.h3_algebra(Q)
    eta = cons.eta_matrix(Q)
    assert iso_check(A, H, eta)
    assert eta * eta.inverse() == Matrix.identity(Q, 9)


def test_eta_over_f5():
    f = F5
    A = cons.matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    H = cons.h3_algebra(f)
    assert iso_check(A, H, cons.eta_matrix(f))
    assert jordan_check(H)


def test_beta_model_translation_and_printed_factor_two():
    H = cons.h3_algebra(Q)
    Hb = cons.h3_algebra(Q, cons.beta_model(Q))
    theta = cons.model_translation(Q)
    assert iso_check(H, Hb, theta)
    A = cons.matsuo_algebra(build_p3(), HALF, Q)
    eta_b = theta * cons.eta_matrix(Q)
    assert iso_check(A, Hb, eta_b)
    # the literal sixth-root transcription doubles the translated coefficient
    for lam, mu in ((1, 0), (0, 1), (2, -1)):
        printed = cons.eta_beta_printed_coefficient(
            Q, Q.from_int(lam), Q.from_int(mu))
        u = Q.mul(Q.parse("3/4"), Q.from_int(lam + mu))
        v = Q.mul(Q.parse("1/4"), Q.from_int(lam - mu))
        translated = (Q.add(u, v), Q.mul(Q.from_int(2), v))
        assert printed == (Q.mul(Q.from_int(2), translated[0]),
                           Q.mul(Q.from_int(2), translated[1]))


# --- characteristic three chain ----------------------------------------------------

def test_char3_chain_full_report():
    ch = cons.p3_char3_chain(F3)
    assert ch.dims == (1, 6, 8)
    assert ch.ideals_ok and ch.squares_ok
    assert ch.z_trivial and ch.t_zero_divisors
    assert (ch.quotient_dim, ch.quotient_unital) == (1, True)
    assert ch.algebra_not_solvable and ch.r_solvable


def test_char3_chain_dim_t_is_six_despite_twelve_lines():
    ch = cons.p3_char3_chain(F3)
    assert len(build_p3().lines) == 12
    assert ch.t_space.dim == 6


def test_char3_line_sum_annihilates_parallel_differences():
    f = F3
    A = cons.matsuo_algebra(build_p3(), f.div(f.one, f.from_int(2)), f)
    plane = build_p3()
    def line_sum(line):
        v = [f.zero] * 9
        for p in line:
            v[p] = f.one
        return v
    for cls in P3_PARALLEL_CLASSES:
        l, lp, lpp = cls
        diff = [f.sub(a, b) for a, b in zip(line_sum(lp), line_sum(lpp))]
        for m in plane.lines:
            assert A.mul(line_sum(m), diff) == [f.zero] * 9


def _every_element_an_absolute_zero_divisor(A, s):
    """Oracle: U_v = 0 for every v in the subspace s, over F_3."""
    f = A.field
    for coeffs in product(range(3), repeat=s.dim):
        v = [f.zero] * A.dim
        for c, row in zip(coeffs, s.rows):
            v = [f.add(a, f.mul(f.from_int(c), b)) for a, b in zip(v, row)]
        if not is_absolute_zero_divisor(A, v):
            return False
    return True


def _nilpotent_pair_algebra(f):
    """x^2 = y^2 = 0, xy = z, z^2 = z: U_x = U_y = 0, but U_(x+y) z = -2z."""
    zero, one = f.zero, f.one
    return AlgebraTable(f, ["x", "y", "z"], {
        (0, 1): [zero, zero, one], (2, 2): [zero, zero, one]})


def test_zero_divisor_span_check_is_the_exhaustive_one():
    ch = cons.p3_char3_chain(F3)
    A = ch.algebra
    B = _nilpotent_pair_algebra(F3)
    cases = [
        (A, ch.t_space, True),
        (A, ch.z_space, True),
        (A, Subspace.from_vectors(F3, 9, [unit_vector(F3, 9, 0)]), False),
        (A, Subspace.from_vectors(F3, 9, ch.t_space.rows[:2] + [unit_vector(F3, 9, 0)]),
         False),
        (B, Subspace.from_vectors(F3, 3, [unit_vector(F3, 3, 0)]), True),
        # both basis rows pass, their sum does not
        (B, Subspace.from_vectors(F3, 3, [unit_vector(F3, 3, 0),
                                          unit_vector(F3, 3, 1)]), False),
    ]
    for algebra, space, expected in cases:
        assert _every_element_an_absolute_zero_divisor(algebra, space) == expected
        assert cons._all_absolute_zero_divisors(algebra, space) == expected
    assert ch.t_space.dim == 6 and ch.t_zero_divisors


def _counting_is_ideal(monkeypatch, refuse_dim=None):
    """Count the ideal tests of constructions and of ``quotient``, refusing
    the subspace of dimension ``refuse_dim`` in constructions only."""
    calls = []
    real = algebra.is_ideal

    def is_ideal(A, s):
        calls.append(s.dim)
        return real(A, s)
    monkeypatch.setattr(algebra, "is_ideal", is_ideal)
    monkeypatch.setattr(cons, "is_ideal",
                        lambda A, s: is_ideal(A, s) and s.dim != refuse_dim)
    return calls


def test_char3_chain_tests_each_ideal_once(monkeypatch):
    calls = _counting_is_ideal(monkeypatch)
    ch = cons.p3_char3_chain(F3)
    assert calls == [1, 6, 8]
    assert ch.ideals_ok and (ch.quotient_dim, ch.quotient_unital) == (1, True)


def test_char3_chain_quotient_tests_r_when_the_ideal_check_failed(monkeypatch):
    # Z refused: the short-circuit leaves R untested, so quotient tests it
    calls = _counting_is_ideal(monkeypatch, refuse_dim=1)
    ch = cons.p3_char3_chain(F3)
    assert calls == [1, 8]
    assert not ch.ideals_ok and (ch.quotient_dim, ch.quotient_unital) == (1, True)


def test_char3_chain_wrong_characteristic():
    with pytest.raises(AlgebraError):
        cons.p3_char3_chain(Q)


# --- rank-4 coefficients --------------------------------------------------------------

def dense_rank4_coefficients(group):
    """Oracle: the same two coefficients through the full structure-constant
    table instead of the sparse point walk."""
    gam = gamma_of_group(group)
    A = cons.matsuo_algebra(gam, HALF, Q)
    f = A.field
    x = [f.zero] * A.dim
    for i in range(3):
        x[i] = f.one
    d = unit_vector(f, A.dim, 3)
    xx = A.mul(x, x)
    left = A.mul(A.mul(xx, d), x)
    right = A.mul(xx, A.mul(d, x))
    return left[0], right[0]


def test_rank4_w2a3():
    grp = build_wk_affine_a(2, 3)
    rep = cons.rank4_check(grp)
    assert rep.coeff_a_left == Fraction(3, 8)
    assert rep.coeff_a_right == Fraction(7, 16)
    assert rep.jordan_violated()
    assert dense_rank4_coefficients(grp) == (Fraction(3, 8), Fraction(7, 16))


def test_rank4_w3a3():
    grp = build_wk_affine_a(3, 3)
    rep = cons.rank4_check(grp)
    assert rep.coeff_a_left == Fraction(13, 32)
    assert rep.coeff_a_right == Fraction(7, 16)
    assert dense_rank4_coefficients(grp) == (Fraction(13, 32), Fraction(7, 16))


def test_rank4_su32(su32_group):
    rep = cons.rank4_check(su32_group)
    assert rep.coeff_acdb_left == Fraction(-1, 32)
    assert rep.coeff_acdb_right == 0
    assert rep.jordan_violated()


def test_rank4_su32_dense_cross_check(su32_group):
    # independent route: build the full 36-point table and read the same
    # coefficients densely
    g = su32_group
    gam = gamma_of_group(g)
    assert gam.n_points == 36
    A = cons.matsuo_algebra(gam, HALF, Q)
    a, b, c, d = g.generators
    index = {p: i for i, p in enumerate(g.D)}
    x = [Q.zero] * 36
    for gen in (a, b, c):
        x[index[gen]] = Q.one
    dvec = unit_vector(Q, 36, index[d])
    xx = A.mul(x, x)
    left = A.mul(A.mul(xx, dvec), x)
    right = A.mul(xx, A.mul(dvec, x))
    w = g.mul(g.mul(c, d), b)
    acdb = index[g.mul(g.mul(g.inv(w), a), w)]
    assert left[acdb] == Q.parse("-1/32")
    assert right[acdb] == Q.zero
    assert left[index[a]] == right[index[a]] == Q.parse("15/16")


def test_rank4_hall(hall_group):
    rep = cons.rank4_check(hall_group)
    assert rep.coeff_acdb_left == Fraction(-1, 32)
    assert rep.coeff_acdb_right == 0
    assert rep.jordan_violated()


def test_rank4_rejects_degenerate_generators():
    grp = build_wk_affine_a(2, 3)
    broken = type(grp)(
        grp.name, grp.identity, grp.mul, grp.inv,
        [grp.generators[0]] * 4, d_seeds=grp.generators[:1],
    )
    with pytest.raises(AlgebraError):
        cons.rank4_check(broken)


def _rank4_reference(group):
    """The Fraction walk that ``rank4_check`` replaced: each point product
    formed anew wherever it is needed, u^v read as conjugation by v."""
    def point_product(u, v):
        if u == v:
            return {u: Fraction(1)}
        k = group.order_of_product(u, v)
        if k == 2:
            return {}
        assert k == 3
        q = Fraction(1, 4)
        return {u: q, v: q, group.conjugate(u, v): -q}

    def mul(x, y):
        out = {}
        for u, cu in x.items():
            for v, cv in y.items():
                for p, w in point_product(u, v).items():
                    out[p] = out.get(p, 0) + cu * cv * w
        return out

    a, b, c, d = group.generators
    x = {a: 1, b: 1, c: 1}
    xx = mul(x, x)
    left = mul(mul(xx, {d: 1}), x)
    right = mul(xx, mul({d: 1}, x))
    w = group.mul(group.mul(c, d), b)
    acdb = group.conjugate(a, w)
    return [Fraction(side.get(p, 0)) for p in (a, acdb) for side in (left, right)]


@pytest.mark.parametrize("build", [
    lambda: build_wk_affine_a(2, 3),
    lambda: build_wk_affine_a(3, 3),
    lambda: wk_embedding_subgroup(2, 5),
    lambda: wk_embedding_subgroup(3, 5),
    lambda: build_sym(5),
    lambda: claims._presented_action(su32_quotient_presentation())[0],
], ids=["W2A3", "W3A3", "W2-block", "W3-block", "Sym5", "su32-cosets"])
def test_rank4_check_matches_the_fraction_walk(build):
    grp = build()
    rep = cons.rank4_check(grp)
    assert [rep.coeff_a_left, rep.coeff_a_right, rep.coeff_acdb_left,
            rep.coeff_acdb_right] == _rank4_reference(grp)


def test_rank4_refuses_a_reached_pair_of_product_order_4():
    # in Sym(4), (1 2)(0 1)(2 3) is a 4-cycle, and d meets b in xx d
    sym4 = build_sym(4)
    a, b, c = sym4.generators
    d = _perm_mul(a, c)
    grp = type(sym4)("bad", sym4.identity, sym4.mul, sym4.inv,
                     [a, b, c, d], d_seeds=[a])
    assert grp.order_of_product(b, d) == 4
    with pytest.raises(AlgebraError, match="order 4"):
        cons.rank4_check(grp)


# --- embeddings ------------------------------------------------------------------------

def test_embedding_reports():
    rep2 = cons.embedding_check(2, 5)
    rep3 = cons.embedding_check(3, 5)
    for rep in (rep2, rep3):
        assert rep.central_quotient and rep.spaces_isomorphic
        assert rep.kernel_size * rep.small_order == rep.embedded_order
        assert rep.embedded_rank4.coeff_a_left == rep.small_rank4.coeff_a_left
        assert rep.embedded_rank4.coeff_a_right == rep.small_rank4.coeff_a_right
    assert rep2.kernel_size == 2         # central kernel of order 2
    assert rep3.kernel_size == 1         # an exact generator bijection
    assert rep3.embedded_rank4.coeff_a_left == Fraction(13, 32)
    assert rep2.embedded_rank4.coeff_a_left == Fraction(3, 8)
    assert rep2.embedded_rank4.coeff_a_right == Fraction(7, 16)


# --- name-based builders -----------------------------------------------------------------

def test_space_and_group_names():
    assert cons.space_from_name("P3").n_points == 9
    assert cons.space_from_name("P2dual").n_points == 6
    assert cons.group_from_name("sym:4").order() == 24
    assert cons.group_from_name("3sq2").order() == 18
    assert cons.group_from_name("W2A3").order() == 96
    with pytest.raises(AlgebraError):
        cons.space_from_name("P4")
    with pytest.raises(AlgebraError):
        cons.triple_system_from_cli("P3", "sym:4", None)
    gam = cons.triple_system_from_cli(None, None, "A3")
    assert gam.n_points == 6

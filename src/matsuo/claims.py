"""Reproducible verification runs: each claim id maps one statement about the
constructed algebras to a deterministic pass/fail report."""

import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement

from .fields import field_from_name
from .linalg import Matrix, Subspace, rref, unit_vector
from .fischer import (
    build_p3,
    gamma_of_group,
    gamma_of_rootsystem,
    root_system_from_name,
    P3_PARALLEL_CLASSES,
)
from .groups import (
    ClosureBudgetError,
    GroupRealization,
    Presentation,
    _perm_inv,
    _perm_mul,
    build_wk_affine_a,
    hall_quotient_presentation,
    mulclose,
    su32_quotient_presentation,
    todd_coxeter,
)
from .algebra import (
    basis_axis_checks,
    basis_miyamoto_permutations,
    eigen_decomposition,
    iso_check,
    is_multiplicative,
    jordan_check,
    linearized_gap,
    phi_alpha,
)
from . import constructions as cons


@dataclass
class Check:
    description: str
    expected: str
    computed: str
    ok: bool


@dataclass
class VerificationReport:
    claim_id: str
    anchors: list
    checks: list
    runtime_ms: int = 0

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def to_json_dict(self, mask_runtime=False):
        return {
            "claim_id": self.claim_id,
            "anchors": list(self.anchors),
            "checks": [
                {
                    "description": c.description,
                    "expected": c.expected,
                    "computed": c.computed,
                    "pass": c.ok,
                }
                for c in self.checks
            ],
            "pass": self.passed,
            "runtime_ms": "masked" if mask_runtime else self.runtime_ms,
        }

    def to_json(self, mask_runtime=False):
        return json.dumps(self.to_json_dict(mask_runtime), indent=2,
                          sort_keys=True) + "\n"


def _chk(checks, description, expected, computed):
    e, c = str(expected), str(computed)
    checks.append(Check(description, e, c, e == c))


def _half(f):
    return f.div(f.one, f.from_int(2))


# ---------------------------------------------------------------------------
# Claim runners, called as run(fields, n) with the Field objects and size
# that ``run_claim`` resolved from CLAIMS; each returns (anchors, checks).


def _claim_sym_zero_sum(fields, n):
    anchors = [
        "the half-parameter Matsuo algebra of the symmetric-group triple "
        "system is the Jordan algebra of zero-sum symmetric matrices",
    ]
    checks = []
    ns = [n] if n is not None else [2, 3, 4, 5, 6]
    for f in fields:
        for m in ns:
            rs, zs, iso = cons.an_isomorphism(f, m)
            gam = gamma_of_rootsystem(rs)
            A = cons.matsuo_algebra(gam, _half(f), f)
            _chk(checks, "dim of the point algebra (n=%d, %s)" % (m, f.name),
                 m * (m - 1) // 2, A.dim)
            _chk(checks, "Jordan identity holds (n=%d, %s)" % (m, f.name),
                 True, bool(jordan_check(A)))
            _chk(checks, "point-to-projection map is an isomorphism "
                 "(n=%d, %s)" % (m, f.name),
                 True, iso_check(A, zs.algebra, iso))
            if f.from_int(m) != f.zero:
                _chk(checks, "unit exists with diagonal (n-1)/n "
                     "(n=%d, %s)" % (m, f.name),
                     True, zs.unit is not None)
    return anchors, checks


def _claim_p3_unit(fields, n):
    anchors = ["one third of the point sum is the unit of the plane algebra"]
    checks = []
    for f in fields:
        A = cons.matsuo_algebra(build_p3(), _half(f), f)
        u = cons.p3_unit(f)
        ok = all(
            A.mul(u, unit_vector(f, 9, i)) == unit_vector(f, 9, i)
            for i in range(9)
        )
        _chk(checks, "unit fixes all nine points (%s)" % f.name, True, ok)
    return anchors, checks


def _claim_p3_line_idempotents(fields, n):
    anchors = [
        "each line yields an idempotent pair",
        "idempotents of parallel lines are orthogonal",
    ]
    checks = []
    for f in fields:
        A = cons.matsuo_algebra(build_p3(), _half(f), f)
        plane = build_p3()
        idem = 0
        for line in plane.lines:
            e, fl = cons.line_idempotents(f, line)
            if A.is_idempotent(e) and A.is_idempotent(fl):
                idem += 1
        _chk(checks, "idempotent pairs over the 12 lines (%s)" % f.name, 12, idem)
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
        _chk(checks, "orthogonal parallel pairs (%s)" % f.name, pairs, orth)
    return anchors, checks


def _claim_p3_eigendims(fields, n):
    anchors = [
        "line idempotents diagonalize with eigenspace dimensions 1, 4, 4",
        "points diagonalize with the same dimensions",
    ]
    checks = []
    for f in fields:
        A = cons.matsuo_algebra(build_p3(), _half(f), f)

        def dims_144(e):
            dec = eigen_decomposition(A, e, candidates=[f.one, f.zero, _half(f)])
            return dec.diagonalizable and dec.dims() == (1, 4, 4)

        good = sum(dims_144(cons.line_idempotents(f, line)[0])
                   for line in build_p3().lines)
        _chk(checks, "line idempotents with dims (1,4,4) (%s)" % f.name, 12, good)
        pts = sum(dims_144(unit_vector(f, 9, i)) for i in range(9))
        _chk(checks, "points with dims (1,4,4) (%s)" % f.name, 9, pts)
    return anchors, checks


def _claim_p3_peirce(fields, n):
    anchors = [
        "six-piece decomposition from each parallel class: three idempotent "
        "lines and three two-dimensional intersections, summing directly to "
        "the whole algebra",
        "each off-diagonal piece is the zero-sum space of the complementary line",
    ]
    checks = []
    for f in fields:
        ok_classes = 0
        desc_ok = 0
        for cls in P3_PARALLEL_CLASSES:
            pd = cons.p3_peirce(f, cls)
            if pd.direct_sum_ok and all(s.dim == 2 for s in pd.off_diagonal.values()):
                ok_classes += 1
            hit = 0
            for (i, j), spc in pd.off_diagonal.items():
                a, b, c = cls[3 - i - j]
                # b_a - b_c and b_b - b_c span the line's zero-sum space
                vecs = [unit_vector(f, 9, a), unit_vector(f, 9, b)]
                for v in vecs:
                    v[c] = f.neg(f.one)
                if spc == Subspace.from_vectors(f, 9, vecs):
                    hit += 1
            if hit == 3:
                desc_ok += 1
        _chk(checks, "direct sums with dims (1,1,1,2,2,2) (%s)" % f.name,
             4, ok_classes)
        _chk(checks, "off-diagonal pieces match the zero-sum description "
             "(%s)" % f.name, 4, desc_ok)
    return anchors, checks


def _claim_p3_h3_iso(fields, n):
    anchors = [
        "the plane algebra is isomorphic to the hermitian 3x3 matrices over "
        "the quadratic extension by the square root of -3",
        "the five hermitian multiplication rules reproduce the table",
        "the cube-root-of-unity model of the extension gives the same "
        "algebra up to the coordinate translation",
    ]
    checks = []
    for f in fields:
        A = cons.matsuo_algebra(build_p3(), _half(f), f)
        H = cons.h3_algebra(f)
        eta = cons.eta_matrix(f)
        _chk(checks, "hermitian rules hold (%s)" % f.name, True,
             cons.h3_rule_check(f))
        _chk(checks, "eta is an isomorphism on all 45 basis pairs (%s)" % f.name,
             True, iso_check(A, H, eta))
        _chk(checks, "eta composed with its inverse is the identity (%s)" % f.name,
             True, eta * eta.inverse() == Matrix.identity(f, 9))
        Hb = cons.h3_algebra(f, cons.beta_model(f))
        theta = cons.model_translation(f)
        _chk(checks, "model translation is an isomorphism (%s)" % f.name,
             True, iso_check(H, Hb, theta))
        _chk(checks, "translated eta is an isomorphism (%s)" % f.name,
             True, iso_check(A, Hb, theta * eta))
        # the literal sixth-root coefficient doubles the translated one
        lam, mu = f.one, f.from_int(-2)
        printed = cons.eta_beta_printed_coefficient(f, lam, mu)
        three_q = f.div(f.from_int(3), f.from_int(4))
        quarter = f.div(f.one, f.from_int(4))
        u = f.mul(three_q, f.add(lam, mu))          # coefficient of 1
        v = f.mul(quarter, f.sub(lam, mu))          # coefficient of the root
        translated = (f.add(u, v), f.mul(f.from_int(2), v))
        doubled = (f.mul(f.from_int(2), translated[0]),
                   f.mul(f.from_int(2), translated[1]))
        _chk(checks, "printed sixth-root coefficient is twice the translated "
             "one (%s)" % f.name, str(doubled), str(printed))
    return anchors, checks


def _claim_h3_jordan(fields, n):
    anchors = ["the hermitian 3x3 algebra satisfies the Jordan identity"]
    checks = []
    for f in fields:
        H = cons.h3_algebra(f)
        _chk(checks, "Jordan identity (%s)" % f.name, True, bool(jordan_check(H)))
    return anchors, checks


def _claim_p3_char3_chain(fields, n):
    anchors = [
        "over characteristic 3 the plane algebra is a non-unital Jordan "
        "algebra with ideal chain 0 < Z < T < R of dimensions 1, 6, 8",
        "R squared is T, T squared is Z, Z squares to zero; the point sum is "
        "trivial, line sums are absolute zero divisors, and the quotient by "
        "R is the one-dimensional unital algebra",
    ]
    (f,) = fields
    ch = cons.p3_char3_chain(f)  # refuses a field of another characteristic
    checks = []
    A = ch.algebra
    total, failed = count_linearized_quadruples(A)
    _chk(checks, "linearized Jordan identity on all basis quadruples",
         "%d/0" % (9 ** 4), "%d/%d" % (total, failed))
    _chk(checks, "jordan verdict", True, bool(jordan_check(A)))
    _chk(checks, "chain dimensions", (1, 6, 8), ch.dims)
    _chk(checks, "all three are ideals", True, ch.ideals_ok)
    _chk(checks, "R^2 = T, T^2 = Z, Z^2 = 0", True, ch.squares_ok)
    _chk(checks, "point sum is a trivial element", True, ch.z_trivial)
    _chk(checks, "line sums are absolute zero divisors", True, ch.t_zero_divisors)
    _chk(checks, "quotient by R is one-dimensional and unital", True,
         ch.quotient_dim == 1 and ch.quotient_unital)
    _chk(checks, "R is solvable, the algebra is not", True,
         ch.r_solvable and ch.algebra_not_solvable)
    return anchors, checks


def count_linearized_quadruples(A):
    """(count, failures) of the linearized Jordan identity on all dim**4
    basis quadruples (i, j, y, k).  The gap is a cyclic sum over the
    commutative table, so symmetric in i, j, k: each i <= j <= k is evaluated
    once per y and weighted by its 1, 3 or 6 orderings.  No automorphism is
    used, unlike in ``jordan_check``."""
    failed = 0
    for i, j, k in combinations_with_replacement(range(A.dim), 3):
        arrangements = (1, 3, 6)[len({i, j, k}) - 1]
        failed += arrangements * sum(
            1 for y in range(A.dim) if linearized_gap(A, i, j, y, k))
    return A.dim ** 4, failed


def _claim_rank4_wk(fields, n, k, expected):
    anchors = [
        "for x = a+b+c and the fourth generator d, the two associations of "
        "the cubic expression differ already in the coefficient of a",
    ]
    checks = []
    grp = build_wk_affine_a(k, 3)
    rep = cons.rank4_check(grp)
    exp_left, exp_right = expected
    _chk(checks, "coefficient of a in ((xx)d)x", exp_left, rep.coeff_a_left)
    _chk(checks, "coefficient of a in (xx)(dx)", exp_right, rep.coeff_a_right)
    _chk(checks, "the two sides differ", True, rep.jordan_violated())
    (f,) = fields
    A = cons.matsuo_algebra(gamma_of_group(grp), _half(f), f)
    jc = jordan_check(A)
    _chk(checks, "full table refuses the Jordan identity", False, bool(jc))
    return anchors, checks


def _presented_action(pres):
    """The group G that ``pres`` presents, as it permutes the cosets of
    H = <a, b, c>, its first three generators, with the numbers that prove
    its order: (group, [G : H], |K|, |pi(H)|), or None when an enumeration
    runs out of budget.

    K, presented by the relators of ``pres`` in a, b, c alone, maps onto H,
    so |G| = [G : H]|H| <= [G : H]|K|.  G permutes the cosets transitively
    and pi(H) fixes the coset H, so |G| >= |pi(G)| >= [G : H]|pi(H)|.  When
    |pi(H)| = |K| the bounds meet: |G| = [G : H]|K|, and pi is faithful.
    The group's elements are never closed: for Hall's group that would be
    118098 permutations of 2187 points."""
    over_h = todd_coxeter(pres, subgroup=[(0,), (2,), (4,)])
    if not over_h.complete:
        return None
    # letters below 6 spell a, b, c and their inverses
    k_relators = [w for w in pres.relators if all(l < 6 for l in w)]
    k = todd_coxeter(Presentation(pres.generator_names[:3], k_relators))
    if not k.complete:
        return None
    columns = [tuple(col) for col in zip(*over_h.table)]
    identity = tuple(range(over_h.n_cosets))
    pi_h = mulclose(columns[:3], _perm_mul, identity)
    group = GroupRealization(
        "presented<%s>" % ",".join(pres.generator_names), identity,
        _perm_mul, _perm_inv, columns, d_seeds=columns)
    return group, over_h.n_cosets, k.n_cosets, len(pi_h)


def _claim_rank4_presented(fields, n, presentation, order):
    anchors = [
        "the coset enumeration of the presented rank-4 group completes",
        "the conjugate point a^(cdb) receives coefficient -1/32 in ((xx)d)x "
        "and does not occur in (xx)(dx)",
    ]
    checks = []
    action = _presented_action(presentation())
    if action is None:
        _chk(checks, "enumeration completes within budget", "complete",
             "incomplete")
        return anchors, checks
    group, index, k_order, h_order = action
    if h_order != k_order:
        _chk(checks, "group order proved by the coset action", "proved",
             "unproved: |pi(H)| = %d, |K| = %d" % (h_order, k_order))
        return anchors, checks
    _chk(checks, "group order from the enumeration", order, index * k_order)
    rep = cons.rank4_check(group)
    _chk(checks, "coefficient of a^(cdb) in ((xx)d)x", "-1/32",
         rep.coeff_acdb_left)
    _chk(checks, "coefficient of a^(cdb) in (xx)(dx)", "0", rep.coeff_acdb_right)
    _chk(checks, "the two sides differ", True, rep.jordan_violated())
    return anchors, checks


# The fixture triple systems, named as on the command line.
_AXIS_FIXTURES = (("space", "P2dual"), ("space", "P3"), ("roots", "A4"),
                  ("roots", "D4"))


def _axis_fixture_spaces():
    return [(name, cons.triple_system_from_cli(**{flag: name}))
            for flag, name in _AXIS_FIXTURES]


def _axis_fixtures(f):
    """(name, alpha_str, A, rules) for the Matsuo algebra over f of each
    fixture triple system at alpha = 1/2 and 1/3, with its fusion rules."""
    for name, sp in _axis_fixture_spaces():
        for d in (2, 3):
            alpha = f.div(f.one, f.from_int(d))
            yield (name, "1/%d" % d, cons.matsuo_algebra(sp, alpha, f),
                   phi_alpha(f, alpha))


def _claim_fusion_axes(fields, n):
    anchors = [
        "every point of a Matsuo algebra is an axis for the three-eigenvalue "
        "fusion rules at its parameter",
    ]
    (f,) = fields
    checks = []
    for name, alpha_str, A, rules in _axis_fixtures(f):
        good = sum(map(bool, basis_axis_checks(A, rules)))
        _chk(checks, "axes among points of %s at alpha=%s" % (name, alpha_str),
             A.dim, good)
    return anchors, checks


def _claim_miyamoto(fields, n):
    anchors = [
        "each point induces an automorphism of order at most 2 fixing the 1- "
        "and 0-eigenspaces and negating the third",
        "products of two such maps have order at most 3, and the assignment "
        "is injective on points",
    ]
    (f,) = fields
    checks = []
    for name, alpha_str, A, rules in _axis_fixtures(f):
        involutions, orders, distinct = _miyamoto_verdicts(
            basis_miyamoto_permutations(A, rules))
        _chk(checks, "%s at alpha=%s: involutive automorphisms" %
             (name, alpha_str), True, involutions)
        _chk(checks, "%s at alpha=%s: pairwise orders at most 3" %
             (name, alpha_str), True, orders)
        _chk(checks, "%s at alpha=%s: point map injective" %
             (name, alpha_str), True, distinct)
    return anchors, checks


def _miyamoto_verdicts(perms):
    """(involutive, pairwise orders at most 3, distinct) for a list of basis
    permutations; all three are False when an entry is None, a map that
    permutes no basis."""
    if None in perms:
        return False, False, False
    ident = tuple(range(len(perms[0])))

    def order_at_most_3(m):
        m2 = _perm_mul(m, m)
        return ident in (m, m2, _perm_mul(m2, m))

    return (all(_perm_mul(p, p) == ident for p in perms),
            all(order_at_most_3(_perm_mul(p, q))
                for i, p in enumerate(perms) for q in perms[i + 1:]),
            len(set(perms)) == len(perms))


def _claim_root_projections(fields, n):
    anchors = [
        "the projections of two roots multiply by the closed three-case "
        "formula, with weight the squared length ratio",
        "the projection span of a rank-n system has dimension n(n+1)/2",
        "the triangle-system algebra of the rank-4 doubled system maps onto "
        "its projection algebra with a two-dimensional kernel",
    ]
    (f,) = fields
    checks = []
    for name in ("A2", "B2", "G2"):
        rs = root_system_from_name(name)
        cases = cons.verify_projection_products(f, rs)
        ks = sorted({c.k for c in cases if c.kind == "span"})
        _chk(checks, "all product cases match for %s" % name, True,
             all(c.ok for c in cases))
        _chk(checks, "length-ratio weights seen in %s" % name,
             {"A2": [1], "B2": [2], "G2": [1, 3]}[name], ks)
    for name in ("A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        rs = root_system_from_name(name)
        n = rs.rank
        _chk(checks, "projection span dimension for %s" % name,
             n * (n + 1) // 2, cons.jr_dimension(f, rs))
    rs = root_system_from_name("D4")
    proj, m = cons.matsuo_to_projection_map(f, rs)
    gam = gamma_of_rootsystem(rs)
    A = cons.matsuo_algebra(gam, _half(f), f)
    _chk(checks, "point algebra dimension for D4", 12, A.dim)
    _chk(checks, "projection algebra dimension for D4", 10, proj.algebra.dim)
    _chk(checks, "point-to-projection map is multiplicative", True,
         is_multiplicative(A, proj.algebra, m))
    _chk(checks, "map is surjective but not injective", True,
         rref(m)[1] == 10 and A.dim > proj.algebra.dim)
    return anchors, checks


def _claim_embed(fields, n, k, expected):
    anchors = [
        "the four block matrices inside the larger affine group replay the "
        "small one up to a central kernel, with the same triple system and "
        "the same counterexample coefficients",
    ]
    checks = []
    rep = cons.embedding_check(k, 5)
    _chk(checks, "generator-respecting central quotient", True,
         rep.central_quotient and
         rep.kernel_size * rep.small_order == rep.embedded_order)
    _chk(checks, "triple systems isomorphic", True, rep.spaces_isomorphic)
    _chk(checks, "coefficient of a in ((xx)d)x transfers",
         rep.small_rank4.coeff_a_left, rep.embedded_rank4.coeff_a_left)
    _chk(checks, "coefficient of a in (xx)(dx) transfers",
         rep.small_rank4.coeff_a_right, rep.embedded_rank4.coeff_a_right)
    exp_left, exp_right = expected
    _chk(checks, "left coefficient equals the small-group value", exp_left,
         rep.embedded_rank4.coeff_a_left)
    _chk(checks, "right coefficient equals the small-group value", exp_right,
         rep.embedded_rank4.coeff_a_right)
    _chk(checks, "embedded subalgebra is not Jordan", True,
         rep.embedded_rank4.jordan_violated())
    return anchors, checks


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Claim:
    """A claim's runner, with its own parameters bound, and the policy that
    ``run_claim`` applies before calling it.  ``fields`` names the fields it
    runs over by default.  ``admits`` tests the characteristic (0 for Q) of a
    field asked for; None means the claim takes no field.  ``min_n`` is the
    least size parameter; None means the claim takes none.  A refused field
    gets ``refusal``, or else one message naming the claim and the field."""
    run: object
    fields: tuple = ("Q", "F5")
    # every claim but sym-zero-sum and the chain divides by 3 or meets a root
    # of length 0 in characteristic 3
    admits: object = lambda p: p != 3
    min_n: int = None
    refusal: str = None


# coefficients of a in ((xx)d)x and in (xx)(dx)
_W2A3 = ("3/8", "7/16")
_W3A3 = ("13/32", "7/16")

CLAIMS = {
    "sym-zero-sum": Claim(_claim_sym_zero_sum, admits=lambda p: True, min_n=2),
    "p3-unit": Claim(_claim_p3_unit, refusal="no unit in characteristic 3: "
                     "the point sum annihilates"),
    "p3-line-idempotents": Claim(_claim_p3_line_idempotents),
    "p3-eigendims": Claim(_claim_p3_eigendims),
    "p3-peirce": Claim(_claim_p3_peirce),
    "p3-h3-iso": Claim(_claim_p3_h3_iso),
    "h3-jordan": Claim(_claim_h3_jordan),
    "p3-char3-chain": Claim(_claim_p3_char3_chain, ("F3",), lambda p: p == 3,
                            refusal="the chain lives in characteristic 3"),
    "rank4-W2A3": Claim(partial(_claim_rank4_wk, k=2, expected=_W2A3), ("Q",),
                        None),
    "rank4-W3A3": Claim(partial(_claim_rank4_wk, k=3, expected=_W3A3), ("Q",),
                        None),
    "rank4-su32": Claim(partial(_claim_rank4_presented, order=6912,
                                presentation=su32_quotient_presentation), (), None),
    "rank4-hall": Claim(partial(_claim_rank4_presented, order=118098,
                                presentation=hall_quotient_presentation), (), None),
    "fusion-axes": Claim(_claim_fusion_axes, ("Q",)),
    "miyamoto": Claim(_claim_miyamoto, ("Q",)),
    "root-projections": Claim(_claim_root_projections, ("Q",)),
    "embed-W2A3-r5": Claim(partial(_claim_embed, k=2, expected=_W2A3), (), None),
    "embed-W3A3-r5": Claim(partial(_claim_embed, k=3, expected=_W3A3), (), None),
}


def claim_ids():
    return sorted(CLAIMS)


def _refuse_small_n(claim_id, n):
    min_n = CLAIMS[claim_id].min_n
    if n is not None and min_n is not None and n < min_n:
        raise ValueError("%s needs n >= %d, got %d" % (claim_id, min_n, n))


def run_claim(claim_id, n=None, field_name=None):
    """The report of one claim.  A size parameter or a field that the claim
    does not take or admit is refused with ValueError before any work; a
    closure that outgrows its budget gives one failing check, "incomplete",
    and no verdict."""
    claim = CLAIMS[claim_id]
    if n is not None and claim.min_n is None:
        raise ValueError("claim %s takes no size parameter n" % claim_id)
    if field_name is not None and claim.admits is None:
        raise ValueError("claim %s takes no field parameter" % claim_id)
    fields = [field_from_name(name) for name in
              ([field_name] if field_name else claim.fields)]
    if field_name and not claim.admits(fields[0].characteristic):
        raise ValueError(claim.refusal or "claim %s does not admit the field %s"
                         % (claim_id, field_name))
    _refuse_small_n(claim_id, n)
    start = time.monotonic()
    try:
        anchors, checks = claim.run(fields, n)
    except ClosureBudgetError:
        anchors, checks = [], [Check("closure completes within budget",
                                     "complete", "incomplete", False)]
    ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(claim_id, anchors, checks, ms)


def run_all(n=None, field_name=None):
    """Every claim's report, for ``verify --all``: n goes only to the claims
    that take a size, and the field only to those that admit it; the others
    run with their defaults.  An n that some claim refuses is refused before
    the first claim runs."""
    p = field_from_name(field_name).characteristic if field_name else None
    for cid in claim_ids():
        _refuse_small_n(cid, n)
    reports = []
    for cid in claim_ids():
        claim = CLAIMS[cid]
        admitted = p is not None and claim.admits is not None and claim.admits(p)
        reports.append(run_claim(cid, n=None if claim.min_n is None else n,
                                 field_name=field_name if admitted else None))
    return reports


# ---------------------------------------------------------------------------
# Axis scan used by the command line


def axes_report(A, alpha):
    """Per-basis-element axis verdicts with eigenspace dimensions, decided
    once per orbit of the table's verified automorphisms by
    ``basis_axis_checks``: an automorphism moves b_i, its eigenspaces and
    their products to those of its image, so the row is the same on an orbit."""
    checks = basis_axis_checks(A, phi_alpha(A.field, alpha))
    rows = [{"label": label, "idempotent": res is not None, "axis": bool(res),
             "dims": [] if res is None else list(res.dims)}
            for label, res in zip(A.labels, checks)]
    n_axes = sum(row["axis"] for row in rows)
    return {
        "dim": A.dim,
        "alpha": A.field.fmt(alpha),
        "basis": rows,
        "axes": n_axes,
        "all_axes": n_axes == A.dim,
    }

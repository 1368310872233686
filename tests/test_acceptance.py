"""Acceptance criteria, one test per criterion.  All arithmetic is exact, so
every comparison is exact equality; each test prints one pass/fail line."""

import time
from fractions import Fraction

from matsuo import claims
from matsuo import constructions as cons

import test_properties as props


def _announce(number, title, ok, elapsed):
    print("%s criterion %d: %s (%.1fs)" % ("PASS" if ok else "FAIL",
                                           number, title, elapsed))
    assert ok, "criterion %d failed: %s" % (number, title)


def _run_claims(ids, **kwargs):
    reports = [claims.run_claim(cid, **kwargs) for cid in ids]
    bad = [
        (r.claim_id, c.description, c.expected, c.computed)
        for r in reports
        for c in r.checks
        if not c.ok
    ]
    return not bad, bad


def test_criterion_01_symmetric_group_matsuo_jordan():
    t0 = time.monotonic()
    ok, bad = _run_claims(["sym-zero-sum"])  # n = 2..6 over Q and F5
    _announce(1, "zero-sum symmetric matrix model for n = 2..6 over Q and F5",
              ok, time.monotonic() - t0)
    assert not bad


def test_criterion_02_plane_of_order_three_away_from_char_three():
    t0 = time.monotonic()
    ok, bad = _run_claims([
        "p3-unit",
        "p3-line-idempotents",
        "p3-eigendims",
        "p3-peirce",
        "p3-h3-iso",
        "h3-jordan",
    ])  # defaults run both Q and F5
    _announce(2, "plane algebra: unit, line idempotents, eigenspaces, "
              "six-piece decomposition, hermitian isomorphism", ok,
              time.monotonic() - t0)
    assert not bad


def test_criterion_03_plane_of_order_three_char_three():
    t0 = time.monotonic()
    ok, bad = _run_claims(["p3-char3-chain"])
    _announce(3, "characteristic 3: all 6561 quadruples and the ideal chain",
              ok, time.monotonic() - t0)
    assert not bad


def test_criterion_04_rank4_affine_coefficients():
    t0 = time.monotonic()
    ok, bad = _run_claims(["rank4-W2A3", "rank4-W3A3"])
    rep2 = cons.rank4_check(cons.group_from_name("W2A3"))
    rep3 = cons.rank4_check(cons.group_from_name("W3A3"))
    exact = (
        rep2.coeff_a_left == Fraction(3, 8)
        and rep2.coeff_a_right == Fraction(7, 16)
        and rep3.coeff_a_left == Fraction(13, 32)
        and rep3.coeff_a_right == Fraction(7, 16)
    )
    _announce(4, "rank-4 counterexample coefficients 3/8, 13/32 versus 7/16",
              ok and exact, time.monotonic() - t0)
    assert not bad


def test_criterion_05_presented_rank4_quotients():
    t0 = time.monotonic()
    ok, bad = _run_claims(["rank4-su32", "rank4-hall"])
    _announce(5, "presented quotients of orders 6912 and 118098, proved through "
              "their action on the cosets of <a, b, c>, carry the -1/32 "
              "coefficient", ok, time.monotonic() - t0)
    assert not bad


def test_criterion_06_fusion_rules():
    t0 = time.monotonic()
    ok, bad = _run_claims(["fusion-axes"])
    _announce(6, "every point of the four fixture planes is an axis at "
              "alpha = 1/2 and 1/3", ok, time.monotonic() - t0)
    assert not bad


def test_criterion_07_miyamoto_involutions():
    t0 = time.monotonic()
    ok, bad = _run_claims(["miyamoto"])
    _announce(7, "point reflections: involutive automorphisms, pair orders "
              "at most 3, injectivity", ok, time.monotonic() - t0)
    assert not bad


def test_criterion_08_root_projections():
    t0 = time.monotonic()
    ok, bad = _run_claims(["root-projections"])
    _announce(8, "projection product formula (k = 1, 2, 3), span dimensions "
              "n(n+1)/2, and the 12-to-10 quotient", ok, time.monotonic() - t0)
    assert not bad


def test_criterion_09_embeddings():
    t0 = time.monotonic()
    ok, bad = _run_claims(["embed-W2A3-r5", "embed-W3A3-r5"])
    _announce(9, "block-matrix embeddings at r = 5 reproduce the coefficients",
              ok, time.monotonic() - t0)
    assert not bad


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    props.test_field_axioms_randomized()
    props.test_rref_idempotent_randomized()
    props.test_rank_nullity_randomized()
    props.test_subspace_modular_dimension_law_randomized()
    props.test_wedge_involutivity_randomized()
    props.test_fischer_axiom_closure_on_constructed_spaces()
    _announce(10, "randomized property suites (fixed seed, >= 1000 cases each)",
              True, time.monotonic() - t0)

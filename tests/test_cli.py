import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matsuo import claims, groups
from matsuo import constructions as cons
from matsuo.algebra import AlgebraError
from matsuo.cli import main
from matsuo.fischer import root_system_from_name

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_p3_matches_golden(capsys):
    rc, out, err = run_cli(capsys, "build", "--space", "P3",
                           "--alpha", "1/2", "--field", "Q")
    assert rc == 0 and not err
    assert out == (GOLDEN / "build-p3-q.json").read_text()


@pytest.mark.parametrize("group, golden", [
    ("W2A3", "build-w2a3-q.json"),
    ("W3A3", "build-w3a3-q.json"),
])
def test_build_affine_group_matches_golden(capsys, group, golden):
    # pins the order of D and the products of W_k(affine A_3)'s algebra
    rc, out, err = run_cli(capsys, "build", "--group", group,
                           "--alpha", "1/2", "--field", "Q")
    assert rc == 0 and not err
    assert out == (GOLDEN / golden).read_text()


def test_build_is_byte_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "build", "--roots", "A3",
                           "--alpha", "1/2", "--field", "Q")
    rc2, out2, _ = run_cli(capsys, "build", "--roots", "A3",
                           "--alpha", "1/2", "--field", "Q")
    assert rc1 == rc2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["dim"] == 6


@pytest.mark.parametrize("argv, size, digest", [
    (("--roots", "E7"), 1940913,
     "15f61b4eb4001adca665fdd3439537e968eed177aef0272c9f19d0fad18e4376"),
    (("--roots", "E8", "--field", "F5"), 16673724,
     "3426f7e3ff09746af8da3afdb099765ecada8054d8391353ed1d2af1327fe5b9"),
])
def test_build_of_large_root_systems_is_pinned_by_digest(capsys, argv, size, digest):
    # no golden file holds tables this large; the SHA-256 of the stdout pins
    # the lines of the root system and every byte the writer puts out
    rc, out, err = run_cli(capsys, "build", *argv)
    assert rc == 0 and not err
    data = out.encode("utf-8")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_build_group_and_field_flags(capsys):
    rc, out, _ = run_cli(capsys, "build", "--group", "sym:5",
                         "--alpha", "1/2", "--field", "F5")
    assert rc == 0
    data = json.loads(out)
    assert data["dim"] == 10
    assert data["field"] == "F5"


def test_build_rejects_degenerate_alpha(capsys):
    rc, out, err = run_cli(capsys, "build", "--space", "P3",
                           "--alpha", "1", "--field", "Q")
    assert rc == 2
    assert not out
    assert "alpha" in err


def test_build_rejects_characteristic_two(capsys):
    rc, _, err = run_cli(capsys, "build", "--space", "P3",
                         "--alpha", "1/2", "--field", "F2")
    assert rc == 2
    assert "characteristic 2" in err


@pytest.mark.parametrize("argv", [
    ("--space", "P3", "--alpha", "1/0"),
    ("--space", "P3", "--alpha", "1/5", "--field", "F5"),
])
def test_build_rejects_division_by_zero_in_alpha(capsys, argv):
    rc, out, err = run_cli(capsys, "build", *argv)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "scalar %r has a zero denominator" % argv[3] in err


@pytest.mark.parametrize("field, scalar", [("Q", "1/0"), ("Q", "-3/00"), ("F5", "1/5"),
                                           ("F5", "2/10")])
def test_axes_rejects_a_json_scalar_with_a_zero_denominator(capsys, tmp_path, field,
                                                            scalar):
    payload = {"field": field, "dim": 1, "labels": ["e"], "products": [[[scalar]]]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert rc == 2
    assert not out
    assert err.startswith("error: scalar %r has a zero denominator" % scalar)
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_rejects_too_small_n(capsys, n):
    rc, out, err = run_cli(capsys, "verify", "sym-zero-sum", "--n", n)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("claim", ["p3-unit", "miyamoto"])
def test_verify_rejects_n_on_claims_without_size(capsys, claim):
    rc, out, err = run_cli(capsys, "verify", claim, "--n", "4")
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


_NO_FIELD = ["rank4-W2A3", "rank4-W3A3", "rank4-su32", "rank4-hall", "embed-W2A3-r5",
             "embed-W3A3-r5"]


@pytest.mark.parametrize("claim", _NO_FIELD)
def test_verify_rejects_field_on_claims_without_field(capsys, claim):
    rc, out, err = run_cli(capsys, "verify", claim, "--field", "F5")
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_names_a_coset_budget_that_is_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MATSUO_MAX_COSETS", "many")
    rc, out, err = run_cli(capsys, "verify", "rank4-su32")
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MATSUO_MAX_COSETS" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_verify_reports_incomplete_under_a_budget_too_small(capsys, monkeypatch,
                                                            budget):
    monkeypatch.setenv("MATSUO_MAX_COSETS", budget)
    rc, out, err = run_cli(capsys, "verify", "rank4-su32", "--mask-runtime")
    assert rc == 1
    assert not err
    assert json.loads(out)["checks"][0]["computed"] == "incomplete"


def _collapsing_presentation():
    """Involutions a, b, c, d with (ab)^3, (bc)^3, (ac)^2, ad and bd.  The
    relators in a, b, c alone present K = Sym(4), of order 24, but ad and bd
    give a = b = d, and then c = a: the group has order 2, H = <a, b, c> is
    all of it, and pi(H) acts on one coset."""
    pres = groups.Presentation(list("abcd"), [(2 * i, 2 * i) for i in range(4)])
    pres.relators += [(0, 2) * 3, (2, 4) * 3, (0, 4) * 2, (0, 6), (2, 6)]
    return pres


def _point_rank4_su32_at(monkeypatch, presentation):
    claim = claims.CLAIMS["rank4-su32"]
    monkeypatch.setitem(claims.CLAIMS, "rank4-su32", dataclasses.replace(
        claim, run=functools.partial(claim.run, presentation=presentation)))


def test_verify_refuses_an_order_the_coset_action_does_not_prove(capsys,
                                                                  monkeypatch):
    _, index, k_order, h_order = claims._presented_action(_collapsing_presentation())
    assert (index, k_order, h_order) == (1, 24, 1)
    _point_rank4_su32_at(monkeypatch, _collapsing_presentation)
    rc, out, err = run_cli(capsys, "verify", "rank4-su32", "--mask-runtime")
    assert (rc, err) == (1, "")
    assert json.loads(out)["checks"] == [{
        "description": "group order proved by the coset action",
        "expected": "proved", "computed": "unproved: |pi(H)| = 1, |K| = 24",
        "pass": False}]


def test_verify_refuses_an_order_from_a_coset_table_that_fails_its_check(
        capsys, monkeypatch):
    monkeypatch.setattr(groups.CosetTable, "verify", lambda table: False)
    rc, out, err = run_cli(capsys, "verify", "rank4-su32", "--mask-runtime")
    assert (rc, err) == (1, "")
    assert json.loads(out)["checks"] == [{
        "description": "group order proved by the coset action",
        "expected": "proved",
        "computed": "unproved: the coset table over H fails its verification",
        "pass": False}]


@pytest.mark.parametrize("presentation, budget, over_h_fits", [
    (groups.su32_quotient_presentation, 100, False),  # G over H needs 377 cosets
    (_collapsing_presentation, 10, True),  # K needs 24
], ids=["G_over_H", "K"])
def test_verify_reports_incomplete_when_one_enumeration_runs_out(
        capsys, monkeypatch, presentation, budget, over_h_fits):
    over_h = groups.todd_coxeter(presentation(), subgroup=[(0,), (2,), (4,)],
                                 max_cosets=budget)
    assert over_h.complete == over_h_fits
    _point_rank4_su32_at(monkeypatch, presentation)
    monkeypatch.setenv("MATSUO_MAX_COSETS", str(budget))
    rc, out, err = run_cli(capsys, "verify", "rank4-su32", "--mask-runtime")
    assert (rc, err) == (1, "")
    assert json.loads(out)["checks"] == [{
        "description": "enumeration completes within budget",
        "expected": "complete", "computed": "incomplete", "pass": False}]


def test_verify_reports_an_incomplete_coset_action_under_a_small_cap(capsys,
                                                                     monkeypatch):
    monkeypatch.setattr(groups, "ELEMENT_CAP", 10)  # pi(H) has 24 elements
    rc, out, err = run_cli(capsys, "verify", "rank4-su32", "--mask-runtime")
    assert (rc, err) == (1, "")
    assert json.loads(out)["checks"] == [{
        "description": "closure completes within budget",
        "expected": "complete", "computed": "incomplete", "pass": False}]


@pytest.mark.parametrize("name", ["su32", "hall"])
def test_presented_action_agrees_with_the_regular_enumeration(request, name):
    # the oracle: every coset of the trivial subgroup, multiplied through
    # CosetTable.group()
    table = request.getfixturevalue(name + "_table")
    regular = request.getfixturevalue(name + "_group")
    group, index, k_order, h_order = claims._presented_action(table.presentation)
    assert h_order == k_order
    assert index * k_order == table.n_cosets
    assert cons.rank4_check(group) == cons.rank4_check(regular)


def test_verify_reports_an_incomplete_closure_under_a_small_cap(capsys, monkeypatch):
    monkeypatch.setattr(groups, "ELEMENT_CAP", 5)
    rc, out, err = run_cli(capsys, "verify", "rank4-W2A3", "--mask-runtime")
    assert (rc, err) == (1, "")
    report = json.loads(out)
    assert report["checks"] == [{"description": "closure completes within budget",
                                 "expected": "complete", "computed": "incomplete",
                                 "pass": False}]
    assert report["anchors"] == [] and report["pass"] is False


def test_build_refuses_a_group_past_the_closure_cap(capsys, monkeypatch):
    monkeypatch.setattr(groups, "ELEMENT_CAP", 5)
    rc, out, err = run_cli(capsys, "build", "--group", "W2A3")
    assert (rc, out, err) == (2, "", "error: conjugacy closure exceeded cap 5\n")


def test_verify_all_passes_field_to_field_claims_only(capsys, monkeypatch):
    monkeypatch.setattr(claims, "claim_ids", lambda: ["p3-unit", "rank4-W2A3"])
    rc, out, err = run_cli(capsys, "verify", "--all", "--field", "F5",
                           "--mask-runtime")
    assert rc == 0 and not err
    unit, rank4 = json.loads(out)
    assert unit["pass"] and [c["description"] for c in unit["checks"]] == [
        "unit fixes all nine points (F5)"]
    assert rank4["claim_id"] == "rank4-W2A3" and rank4["pass"]


_REFUSE_F3 = {"fusion-axes", "h3-jordan", "miyamoto", "p3-eigendims", "p3-h3-iso",
              "p3-line-idempotents", "p3-peirce", "p3-unit", "root-projections"}


@pytest.mark.parametrize("field, without_field", [
    ("Q", {"p3-char3-chain"}),
    ("F3", _REFUSE_F3),
    ("F5", {"p3-char3-chain"}),
    ("F7", {"p3-char3-chain"}),
])
def test_verify_all_runs_claims_that_refuse_the_field_without_it(
        capsys, monkeypatch, field, without_field):
    fields = {}
    run_claim = claims.run_claim

    def recording(cid, **kwargs):
        fields[cid] = kwargs["field_name"]
        return run_claim(cid, **kwargs)

    monkeypatch.setattr(claims, "run_claim", recording)
    monkeypatch.setattr(claims, "claim_ids", lambda: sorted(
        _REFUSE_F3 | {"p3-char3-chain", "sym-zero-sum", "rank4-W2A3"}))
    rc, out, err = run_cli(capsys, "verify", "--all", "--field", field,
                           "--mask-runtime")
    assert rc == 0 and not err
    assert all(report["pass"] for report in json.loads(out))
    assert {cid for cid, f in fields.items() if f is None} == without_field | {
        "rank4-W2A3"}
    assert set(fields.values()) == {None, field}


@pytest.mark.parametrize("claim, field, message", [
    ("p3-char3-chain", "Q", "the chain lives in characteristic 3"),
    ("p3-char3-chain", "F5", "the chain lives in characteristic 3"),
    ("p3-unit", "F3", "no unit in characteristic 3: the point sum annihilates"),
])
def test_verify_one_claim_refuses_a_field_it_does_not_admit(
        capsys, monkeypatch, claim, field, message):
    scans = []
    monkeypatch.setattr(claims, "count_linearized_quadruples", scans.append)
    rc, out, err = run_cli(capsys, "verify", claim, "--field", field)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)
    assert not scans  # the chain refuses the field before its 9-dim scan


@pytest.mark.parametrize("claim", sorted(_REFUSE_F3))
def test_verify_claim_refuses_characteristic_3_before_it_runs(
        capsys, monkeypatch, claim):
    monkeypatch.setitem(claims.CLAIMS, claim,
                        dataclasses.replace(claims.CLAIMS[claim], run=pytest.fail))
    rc, out, err = run_cli(capsys, "verify", claim, "--field", "F3")
    message = ("no unit in characteristic 3: the point sum annihilates"
               if claim == "p3-unit"
               else "claim %s does not admit the field F3" % claim)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_claim_table_matches_the_field_and_size_policy():
    # every claim, one added later too, must sit in exactly one of these sets
    table = claims.CLAIMS
    no_field = {cid for cid, claim in table.items() if claim.admits is None}
    assert no_field == set(_NO_FIELD)
    refuse_f3 = {cid for cid, claim in table.items()
                 if claim.admits is not None and not claim.admits(3)}
    assert refuse_f3 == _REFUSE_F3
    assert set(table) - no_field - refuse_f3 == {"p3-char3-chain", "sym-zero-sum"}
    assert not table["p3-char3-chain"].admits(0) and table["sym-zero-sum"].admits(3)
    assert {cid for cid, claim in table.items() if claim.min_n is not None} == {
        "sym-zero-sum"}


def test_verify_all_refuses_a_small_n_before_any_claim_runs(capsys, monkeypatch):
    ran = []
    for cid, claim in list(claims.CLAIMS.items()):
        monkeypatch.setitem(claims.CLAIMS, cid, dataclasses.replace(
            claim, run=lambda fields, n, cid=cid: ran.append(cid)))
    rc, out, err = run_cli(capsys, "verify", "--all", "--n", "1")
    assert (rc, out, err) == (2, "", "error: sym-zero-sum needs n >= 2, got 1\n")
    assert ran == []


def test_verify_all_passes_n_to_sym_zero_sum_only(capsys, monkeypatch):
    monkeypatch.setattr(claims, "claim_ids", lambda: ["p3-unit", "sym-zero-sum"])
    rc, out, err = run_cli(capsys, "verify", "--all", "--n", "3", "--mask-runtime")
    assert rc == 0 and not err
    unit, sym = json.loads(out)
    assert unit["claim_id"] == "p3-unit" and unit["pass"]
    assert sym["claim_id"] == "sym-zero-sum" and sym["pass"]
    assert all("n=3," in c["description"] for c in sym["checks"])


def test_build_refuses_group_over_point_budget(capsys):
    rc, out, err = run_cli(capsys, "build", "--group", "sym:100000")
    assert rc == 2
    assert not out
    assert err.startswith("error: input too large") and err.count("\n") == 1


@pytest.mark.parametrize("roots", ["A100000", "D100000"])
def test_build_refuses_roots_over_point_budget(capsys, roots):
    rc, out, err = run_cli(capsys, "build", "--roots", roots)
    assert rc == 2
    assert not out
    assert err.startswith("error: input too large") and err.count("\n") == 1


@pytest.mark.parametrize("roots", [" ", "A", "D-100000",
                                   "A+3", "A03", "A 3", "A\u0663", "D_4"])
def test_build_rejects_malformed_roots(capsys, roots):
    rc, out, err = run_cli(capsys, "build", "--roots", roots)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too large" not in err


@pytest.mark.parametrize("roots", ["E9", "F4", "B3", "g3", "C2", "E10"])
def test_build_names_an_unsupported_root_system(capsys, roots):
    rc, out, err = run_cli(capsys, "build", "--roots", roots)
    assert rc == 2
    assert not out
    assert err == ("error: unsupported root system %r (supported: A<n>, D<n>, "
                   "E6, E7, E8, B2, G2)\n" % roots.upper())


_MALFORMED_SYM = ["sym:+4", "sym:05", "sym:1_0", "sym:\u0665", "sym:abc", "sym:",
                  "sym: 4", "sym:-4"]


@pytest.mark.parametrize("group", _MALFORMED_SYM)
def test_group_from_name_rejects_malformed_sym(group):
    with pytest.raises(AlgebraError, match="unknown group"):
        cons.group_from_name(group)


@pytest.mark.parametrize("group", _MALFORMED_SYM)
def test_build_rejects_malformed_sym(capsys, group):
    rc, out, err = run_cli(capsys, "build", "--group", group)
    assert rc == 2
    assert not out
    assert err.startswith("error: unknown group") and err.count("\n") == 1


def test_group_names_ignore_case():
    assert cons.group_from_name(" SYM:4 ").order() == 24
    assert cons.group_from_name("Sym:10").name == "Sym(10)"


@pytest.mark.parametrize("alpha", ["1e1", "0.5", "1e999999999"])
def test_build_rejects_alpha_not_written_as_fraction(capsys, alpha):
    rc, out, err = run_cli(capsys, "build", "--space", "P3", "--alpha", alpha)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["1_1/2", "\u0663", "3mod5"])
def test_build_over_prime_field_rejects_alpha_not_written_as_fmt_does(capsys, alpha):
    rc, out, err = run_cli(capsys, "build", "--space", "P3", "--field", "F5",
                           "--alpha", alpha)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=12)
       | st.from_regex(r"[+-]?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
       st.sampled_from(["Q", "F5"]))
def test_build_on_any_alpha_text_exits_cleanly(alpha, field):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["build", "--space", "P3", "--field", field, "--alpha=" + alpha])
    assert rc in (0, 2)
    if rc == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_build_rejects_field_not_written_as_name_does(capsys):
    rc, out, err = run_cli(capsys, "build", "--space", "P3", "--field", "F1_1")
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_axes_rejects_json_field_not_written_as_name_does(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "build", "--roots", "A2", "--field", "F11")
    assert rc == 0
    data = json.loads(out)
    data["field"] = "F1_1"
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_build_over_large_prime_field(capsys):
    rc, out, err = run_cli(capsys, "build", "--space", "P3",
                           "--field", "F2305843009213693951")
    assert rc == 0 and not err
    assert json.loads(out)["field"] == "F2305843009213693951"
    rc, out, err = run_cli(capsys, "build", "--space", "P3",
                           "--field", "F3317044064679887385961981")
    assert rc == 2 and not out
    assert err.startswith("error: input too large") and err.count("\n") == 1


_HUGE = "9" * 5000  # past the 4300 digits Python converts to an int


@pytest.mark.parametrize("argv", [
    ["--group", "sym:" + _HUGE],
    ["--roots", "A" + _HUGE],
    ["--space", "P3", "--field", "F" + _HUGE],
    ["--space", "P3", "--alpha", _HUGE],
    ["--space", "P3", "--alpha", "1/" + _HUGE],
    ["--space", "P3", "--field", "F5", "--alpha", _HUGE],
    ["--space", "P3", "--field", "F5", "--alpha", _HUGE + " mod 5"],
], ids=["sym", "roots", "field", "alpha-Q", "alpha-Q-denominator", "alpha-F5",
        "alpha-F5-residue"])
def test_build_refuses_numbers_over_the_digit_limit(capsys, argv):
    rc, out, err = run_cli(capsys, "build", *argv)
    assert rc == 2
    assert not out
    assert err.startswith("error: input too large") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_axes_refuses_json_scalars_over_the_digit_limit(capsys, tmp_path, field):
    payload = {"field": field, "dim": 1, "labels": ["e"], "products": [[[_HUGE]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert rc == 2
    assert not out
    assert err.startswith("error: input too large") and err.count("\n") == 1


def test_point_budget_admits_the_largest_fixtures():
    assert cons.MAX_NAMED_POINTS >= 120  # sym:16 and E8
    assert cons.group_from_name("sym:16").name == "Sym(16)"
    with pytest.raises(ValueError, match="too large"):
        cons.group_from_name("sym:21")


def test_root_system_names_ignore_case():
    assert root_system_from_name("a4").positive == root_system_from_name("A4").positive


def test_point_budget_bounds_named_root_systems():
    assert len(root_system_from_name("A19").positive) == 190
    assert len(root_system_from_name("D14").positive) == 182
    for name in ("A20", "D15"):
        with pytest.raises(ValueError, match="too large"):
            root_system_from_name(name)


def test_verify_list(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--list")
    assert rc == 0
    ids = out.split()
    assert "sym-zero-sum" in ids and "p3-char3-chain" in ids


def test_verify_unknown_claim(capsys):
    rc, out, err = run_cli(capsys, "verify", "no-such-claim")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "unknown claim" in err


def test_internal_key_error_is_not_reported_as_an_unknown_claim(capsys, monkeypatch):
    # a KeyError inside a known claim's runner is a fault of the run, not a
    # claim id that does not exist
    def broken(fields, n):
        raise KeyError("x")
    monkeypatch.setitem(claims.CLAIMS, "p3-unit",
                        dataclasses.replace(claims.CLAIMS["p3-unit"], run=broken))
    with pytest.raises(KeyError):
        main(["verify", "p3-unit"])
    assert "unknown claim" not in capsys.readouterr().err


def test_verify_requires_claim_or_all(capsys):
    rc, out, err = run_cli(capsys, "verify")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "claim id" in err


def test_verify_p3_unit_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "p3-unit", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "p3-unit.json").read_text()


def test_verify_p3_char3_chain_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "p3-char3-chain", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "p3-char3-chain.json").read_text()


def test_verify_rank4_w2a3_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "rank4-W2A3", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "rank4-W2A3.json").read_text()


@pytest.mark.parametrize("claim_id", ["embed-W2A3-r5", "embed-W3A3-r5", "rank4-W3A3"])
def test_verify_affine_group_claims_golden(capsys, claim_id):
    rc, out, _ = run_cli(capsys, "verify", claim_id, "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / ("verify-%s.json" % claim_id)).read_text()


def test_verify_sym_zero_sum_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "sym-zero-sum", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "verify-sym-zero-sum.json").read_text()


def test_verify_root_projections_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "root-projections", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "verify-root-projections.json").read_text()


def test_verify_miyamoto_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "miyamoto", "--mask-runtime")
    assert rc == 0
    assert out == (GOLDEN / "verify-miyamoto.json").read_text()


@pytest.mark.parametrize("claim_id", ["fusion-axes", "h3-jordan", "p3-eigendims",
                                      "p3-h3-iso", "p3-line-idempotents", "p3-peirce",
                                      "rank4-su32"])
def test_verify_claim_golden(capsys, claim_id):
    rc, out, err = run_cli(capsys, "verify", claim_id, "--mask-runtime")
    assert rc == 0 and not err
    assert out == (GOLDEN / ("verify-%s.json" % claim_id)).read_text()


def test_verify_rank4_hall_golden(capsys, monkeypatch):
    # the claim proves the order without closing the group: its elements
    # would be 118098 permutations of 2187 points
    def refuse(self):
        raise AssertionError("the presented group was closed")
    monkeypatch.setattr(groups.GroupRealization, "elements", refuse)
    monkeypatch.setattr(groups.GroupRealization, "D", property(refuse))
    rc, out, err = run_cli(capsys, "verify", "rank4-hall", "--mask-runtime")
    assert rc == 0 and not err
    assert out == (GOLDEN / "verify-rank4-hall.json").read_text()


def test_verify_with_field_restriction(capsys):
    rc, out, _ = run_cli(capsys, "verify", "sym-zero-sum", "--n", "4",
                         "--field", "Q")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_axes_report_on_plane(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "build", "--space", "P3",
                         "--alpha", "1/2", "--field", "Q")
    assert rc == 0
    path = tmp_path / "p3.json"
    path.write_text(out)
    rc, out2, _ = run_cli(capsys, "axes", str(path), "--alpha", "1/2")
    assert rc == 0
    assert out2 == (GOLDEN / "axes-p3-q.json").read_text()
    report = json.loads(out2)
    assert report["axes"] == 9 and report["all_axes"]
    assert all(row["dims"] == [1, 4, 4] for row in report["basis"])


@pytest.mark.parametrize("flag, name, alpha, field, golden", [
    ("--roots", "D4", "1/3", "Q", "axes-d4-q.json"),
    ("--group", "sym:6", "1/3", "Q", "axes-sym6-q.json"),
    ("--group", "W2A3", "1/3", "Q", "axes-w2a3-q.json"),
    ("--roots", "D5", "1/2", "F5", "axes-d5-f5.json"),
])
def test_axes_matches_golden(capsys, tmp_path, flag, name, alpha, field, golden):
    rc, out, _ = run_cli(capsys, "build", flag, name, "--alpha", alpha,
                         "--field", field)
    assert rc == 0
    path = tmp_path / "algebra.json"
    path.write_text(out)
    rc, out2, err = run_cli(capsys, "axes", str(path), "--alpha", alpha)
    assert rc == 0 and not err
    assert out2 == (GOLDEN / golden).read_text()


def test_axes_on_small_matsuo(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "build", "--roots", "A3",
                         "--alpha", "1/2", "--field", "Q")
    path = tmp_path / "a3.json"
    path.write_text(out)
    rc, out2, _ = run_cli(capsys, "axes", str(path))
    assert rc == 0
    report = json.loads(out2)
    assert report["axes"] == 6 and report["all_axes"]


def test_verify_h3_iso_with_field_flag(capsys):
    rc, out, _ = run_cli(capsys, "verify", "p3-h3-iso", "--field", "Q")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True


def test_axes_on_one_dimensional_algebra(capsys, tmp_path):
    payload = {
        "field": "Q",
        "dim": 1,
        "labels": ["e"],
        "products": [[["1/1"]]],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(payload))
    rc, out, _ = run_cli(capsys, "axes", str(path), "--alpha", "1/2")
    assert rc == 0
    report = json.loads(out)
    assert report["all_axes"] and report["basis"][0]["dims"] == [1]


@pytest.mark.parametrize("payload", [
    {"field": "Q", "dim": 1, "products": [[["1"]]]},
    {"field": "Q", "dim": 2, "labels": ["a", "b"], "products": [[["1", "0"]]]},
    {"field": "Q", "dim": 2, "labels": ["a", "b"],
     "products": [[["1", "0"], ["0", "0"]], [["1"]]]},
])
def test_axes_rejects_malformed_algebra_json(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"field": "Q", "dim": 1, "labels": ["e"], "products": [[[1]]]},
    {"field": "Q", "dim": 1, "labels": 5, "products": [[["1"]]]},
    {"field": 7, "dim": 1, "labels": ["e"], "products": [[["1"]]]},
    {"field": "Q", "dim": True, "labels": ["e"], "products": [[["1"]]]},
])
def test_axes_rejects_wrongly_typed_algebra_json(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


_SHAPE_ERROR = ("error: products must have dim rows, row i holding dim - i "
                "vectors of length dim, each entry a scalar string\n")


@pytest.mark.parametrize("products", [
    [[["1", "0"], ["0", "1"]]],                          # a row missing
    [[["1", "0"], ["0", "1"]], []],                      # a short row
    [[["1", "0"], ["0"]], [["1", "1/2"]]],               # a short vector
    [[["1", "0"], "01"], [["1", "1/2"]]],                # a string as a vector
    [[["1", 0], ["0", "1"]], [["1", "1/2"]]],            # a number as an entry
    [[["1", "0"], ["0", "1"]], [["1", None]]],           # null as an entry
    [[["1", ["0"]], ["0", "1"]], [["1", "1/2"]]],        # a nested list
    [[["1", "0"], ["0", {"0": "1"}]], [["1", "1/2"]]],   # an object
    [[["1", "0"], ["0", "1"]], "a"],                     # a row not a list
    {"0": [["1", "0"], ["0", "1"]]},                     # products not a list
], ids=["row-missing", "short-row", "short-vector", "string-vector", "number",
        "null", "nested-list", "object", "string-row", "object-products"])
def test_axes_reports_a_misshapen_product_triangle_in_one_line(
        capsys, tmp_path, products):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "Q", "dim": 2, "labels": ["a", "b"],
                                "products": products}))
    rc, out, err = run_cli(capsys, "axes", str(path))
    assert (rc, out, err) == (2, "", _SHAPE_ERROR)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(alphabet="0123456789/-. emodQF", max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                               kids, max_size=3),
    max_leaves=10,
)


@st.composite
def _algebra_like(draw):
    """Algebra JSON whose every field is either well typed or any JSON value,
    with a key sometimes left out."""
    dim = draw(st.integers(0, 3))
    entry = st.sampled_from(["0", "1", "-1/2", "1/3", "2 mod 5"]) | _JSON_VALUES
    data = {
        "field": draw(st.sampled_from(["Q", "F3", "F5"]) | _JSON_VALUES),
        "dim": draw(st.just(dim) | _JSON_VALUES),
        "labels": draw(st.just(["b%d" % i for i in range(dim)]) | _JSON_VALUES),
        "products": draw(st.just(None) | _JSON_VALUES),
    }
    if data["products"] is None:
        data["products"] = [[[draw(entry) for _ in range(dim)] for _ in range(dim - i)]
                            for i in range(dim)]
    if draw(st.integers(0, 9)) == 0:
        del data[draw(st.sampled_from(sorted(data)))]
    return data


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES | _algebra_like())
def test_axes_on_any_json_value_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["axes", path])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "sym-zero-sum", "--n", "abc"], "invalid int value: 'abc'"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
])
def test_argument_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


def test_one_parser_serves_a_usage_error_and_the_next_command(capsys):
    from matsuo import cli
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == "error: unrecognized arguments: --bogus\n"
    rc, out, err = run_cli(capsys, "verify", "p3-unit", "--mask-runtime")
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / "p3-unit.json").read_text()
    assert cli._build_parser() is parser


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: matsuo verify")


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_axes_refuses_deeply_nested_json(capsys, monkeypatch, tmp_path, opener):
    text = opener * 200000
    path = tmp_path / "deep.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    for source in (str(path), "-"):
        rc, out, err = run_cli(capsys, "axes", source)
        assert (rc, out, err) == (2, "", "error: input too large: JSON nested too "
                                         "deep\n")


def test_axes_missing_file(capsys):
    rc, _, err = run_cli(capsys, "axes", "/nonexistent/path.json")
    assert rc == 2
    assert "error" in err


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "matsuo.cli", "verify", "--list"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "p3-unit" in proc.stdout

import json
import subprocess
import sys
from pathlib import Path

import pytest

from matsuo.cli import main

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


def test_build_is_byte_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "build", "--roots", "A3",
                           "--alpha", "1/2", "--field", "Q")
    rc2, out2, _ = run_cli(capsys, "build", "--roots", "A3",
                           "--alpha", "1/2", "--field", "Q")
    assert rc1 == rc2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["dim"] == 6


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


@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_rejects_too_small_n(capsys, n):
    rc, out, err = run_cli(capsys, "verify", "sym-zero-sum", "--n", n)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_list(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--list")
    assert rc == 0
    ids = out.split()
    assert "sym-zero-sum" in ids and "p3-char3-chain" in ids


def test_verify_unknown_claim(capsys):
    rc, out, err = run_cli(capsys, "verify", "no-such-claim")
    assert rc == 2
    assert "unknown claim" in err


def test_verify_requires_claim_or_all(capsys):
    rc, _, err = run_cli(capsys, "verify")
    assert rc == 2
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

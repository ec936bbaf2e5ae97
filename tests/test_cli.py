"""Black-box CLI tests via quadtower.cli.main."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadtower
from quadtower.cli import CSV_COLUMNS, main
from quadtower.pgroup import PGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "-2244")
    assert code == 0
    assert out.strip() == "-2244: Type4p (17 3 11)"


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify", "-2244")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "classify"
    assert doc["results"][0]["kind"] == "Type4p"
    assert doc["results"][0]["primes"] == [17, 3, 11]


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "json", "predict", "-2244")
    _, out2, _ = run(capsys, "--format", "json", "predict", "-2244")
    assert out1 == out2


def test_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "-2244")
    assert code == 0
    assert out.strip() == "-2244: n=2 m=2 mu=2"


def test_predict_text(capsys):
    code, out, _ = run(capsys, "predict", "-2244")
    assert code == 0
    assert "Gamma n=2 m=2" in out
    assert "FAIL" not in out
    code, out, _ = run(capsys, "predict", "-2580")
    assert code == 0
    assert "Gamma^(4r)" in out


def test_crosscheck_text(capsys):
    code, out, _ = run(capsys, "crosscheck", "-2244")
    assert code == 0
    assert "[ok] square-2torsion" in out
    assert "FAIL" not in out


def test_crosscheck_json_checks(capsys):
    code, out, _ = run(capsys, "--format", "json", "crosscheck", "-2244")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert "genus-field-h2" in names and "capitulation-order-4" in names


def test_group_report(capsys):
    code, out, _ = run(capsys, "group", "2", "2", "1")
    assert code == 0
    assert "order 128" in out
    code, out, _ = run(
        capsys, "--format", "json", "group", "2", "2", "0", "--report", "transfers"
    )
    assert code == 0
    doc = json.loads(out)
    transfers = doc["results"][0]["transfers"]
    assert transfers["ker_t2_order"] == 2
    assert transfers["ker_H2_to_H1capH2_order"] == 8


def test_scan_text_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "scan", "-6000", "-1", "--type", "4p")
    assert code == 0
    assert out.splitlines()[0].strip().startswith("-2244")
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "scan", "-6000", "-1", "--csv", str(path))
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == CSV_COLUMNS
    assert any(r["d"] == "-2244" and r["kind"] == "Type4p" for r in rows)


def test_scan_csv_stdout(capsys):
    code, out, _ = run(capsys, "--format", "csv", "scan", "-3000", "-1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["d"] for r in rows] == ["-2244", "-2580"]


def test_scan_empty(capsys):
    code, out, _ = run(capsys, "scan", "-10", "-1")
    assert code == 0
    assert out.strip() == ""


def test_input_error_exit1(capsys):
    code, _, err = run(capsys, "classify", "-16")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "scan", "-1", "-10")
    assert code == 1


def test_group_order_limit_exit1(capsys, monkeypatch):
    def build(self):
        raise AssertionError("group elements built despite the order limit")

    monkeypatch.setattr(PGroup, "elements", build)
    code, out, err = run(capsys, "group", "14", "2", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_usage_error_exit1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def _fresh_run(*argv):
    """The stdout of `python -m quadtower.cli argv` in a new process."""
    src = str(Path(quadtower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quadtower.cli", *argv],
        capture_output=True, env=env, check=True,
    )
    return proc.stdout.decode()


def test_parser_reuse_matches_fresh_runs(capsys):
    # main shares one parser across calls; a usage error must leave it
    # unchanged, and no option of one call may leak into the next.
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "scan", "-1"])
    assert exc.value.code == 1
    capsys.readouterr()
    first = ["--format", "csv", "scan", "-3000", "-1", "--type", "4p"]
    second = ["group", "1", "1", "0", "--report", "lcs"]
    for argv in (first, second):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _fresh_run(*argv)

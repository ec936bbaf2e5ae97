"""Black-box CLI tests via quadtower.cli.main."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadtower
from quadtower import cli, pgroup, verify
from quadtower.cli import CSV_COLUMNS, build_parser, main
from quadtower.errors import StructureMismatch
from quadtower.pgroup import PGroup
from quadtower.tower import Check


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


def test_group_fingerprint_derives_the_whole_group_once(capsys, monkeypatch):
    # The abelianization and derived type printed beside the fingerprint are
    # read over the fingerprint's own G'.
    orders = []
    real = pgroup.derived_subgroup

    def counting(h):
        orders.append(h.order)
        return real(h)

    monkeypatch.setattr(pgroup, "derived_subgroup", counting)
    code, _, _ = run(capsys, "--format", "json", "group", "2", "3", "1", "--report", "fingerprint")
    assert code == 0
    assert orders.count(256) == 1


def test_group_transfers_derives_the_whole_group_once(capsys, monkeypatch):
    # The header invariants and the transfer kernels share one whole-group
    # Subgroup and its one G'; H_2' is shared by both kernel passes.
    orders = []
    real = pgroup.derived_subgroup

    def counting(h):
        orders.append(h.order)
        return real(h)

    monkeypatch.setattr(pgroup, "derived_subgroup", counting)
    code, _, _ = run(capsys, "--format", "json", "group", "2", "3", "1", "--report", "transfers")
    assert code == 0
    assert orders.count(256) == 1
    assert len(orders) == 9


@pytest.mark.parametrize("report", ["fingerprint", "subgroups", "transfers", "lcs"])
def test_group_report_builds_the_whole_group_once(capsys, monkeypatch, report):
    # cmd_group used to build a whole-group Subgroup that the fingerprint
    # never read, and the lower central series, the index-4 subgroups and
    # the standard maximal subgroups each built their own.
    built = []
    real = pgroup.whole_group

    def counting(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(pgroup, "whole_group", counting)
    code, _, _ = run(capsys, "--format", "json", "group", "2", "3", "1", "--report", report)
    assert code == 0
    assert len(built) == 1


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
    assert "error:" in err


def test_scan_above_factor_bound_exit1(capsys):
    code, out, err = run(capsys, "scan", "--", "-4398046511168", "-4398046511108")
    assert code == 1
    assert out == ""
    assert err == "error: |-4398046511168| / 4 exceeds factoring bound 1099511627776\n"


def test_scan_unwritable_csv_exit1(capsys, monkeypatch, tmp_path):
    # A scan that fails after its --csv file is opened leaves the file as it was.
    kept = tmp_path / "kept.csv"
    kept.write_text("d\n")
    code, _, _ = run(capsys, "scan", "-20000000", "-1", "--csv", str(kept))
    assert code == 1
    assert kept.read_text() == "d\n"

    # The --csv file is opened before the scan runs, so the scan never runs.
    def refuse(*args, **kwargs):
        raise AssertionError("scan ran before the --csv file was opened")

    monkeypatch.setattr(cli, "scan", refuse)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "scan", "-6000", "-1", "--csv", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["quadtower"]]
    assert len(commands) == 11
    unparsed = []
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            unparsed.append(" ".join(argv))
    assert unparsed == []


def test_group_order_limit_exit1(capsys, monkeypatch):
    def build(self):
        raise AssertionError("group elements built despite the order limit")

    monkeypatch.setattr(PGroup, "elements", build)
    code, out, err = run(capsys, "group", "14", "2", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_verify_grid_below_2_exit1(capsys):
    # A grid below 2 holds no (n, m) point; it used to pass with no checks.
    # One above 6 reaches Gamma(7, 7, eps), of order 2^17 > 2^16, and is
    # refused before its (grid - 1)^2 points are listed.
    for grid in ("1", "0", "-3", "7", "1000000000"):
        code, out, err = run(capsys, "verify", "--grid", grid)
        assert code == 1
        assert out == ""
        assert f"error: verify needs 2 <= grid <= 6, got {grid}" in err


# The criteria in run_all's order, with the anchor each reports.
CRITERIA = [
    ("criterion_realization", "group-realization"),
    ("criterion_lower_central", "lower-central-series"),
    ("criterion_tables", "subgroup-tables"),
    ("criterion_capitulation", "capitulation-kernel"),
    ("criterion_intermediate_fields", "intermediate-fields"),
    ("criterion_separation", "separation"),
    ("criterion_real_family", "real-family-kernel"),
    ("criterion_field_tables", "field-tables"),
    ("criterion_crosschecks", "number-theory-crosschecks"),
    ("criterion_oracles", "oracle-suite"),
]


def _stub_criteria(monkeypatch, raising):
    """Replace every criterion with a one-check pass; those named in
    `raising` raise StructureMismatch instead."""
    for number, (name, anchor) in enumerate(CRITERIA, start=1):
        def stub(*args, number=number, anchor=anchor, name=name):
            if name in raising:
                raise StructureMismatch(f"{name} stub")
            return verify.CriterionResult(number, anchor, [Check("stub", 1, 1)])

        monkeypatch.setattr(verify, name, stub)


def test_verify_reports_a_raising_criterion_as_a_failure(capsys, monkeypatch):
    _stub_criteria(monkeypatch, {"criterion_field_tables"})
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert err == ""
    expected = [
        f"{number:2d} {anchor}: {'FAIL' if number == 8 else 'PASS'} (1 checks)"
        for number, (_, anchor) in enumerate(CRITERIA, start=1)
    ]
    expected.insert(8, "     FAIL raised: expected None, computed "
                       "StructureMismatch: criterion_field_tables stub")
    assert out.splitlines() == expected

    code, out, _ = run(capsys, "--format", "json", "verify")
    assert code == 2
    payload = json.loads(out)["results"]
    assert [(r["number"], r["anchor"], r["passed"]) for r in payload] == [
        (number, anchor, number != 8)
        for number, (_, anchor) in enumerate(CRITERIA, start=1)
    ]
    assert payload[7]["failures"] == [{
        "name": "raised",
        "expected": None,
        "computed": "StructureMismatch: criterion_field_tables stub",
        "passed": False,
    }]


def test_run_all_keeps_the_number_and_anchor_of_a_raising_criterion(monkeypatch):
    # run_all holds its own copy of each anchor for a criterion that raises;
    # it must agree with what each criterion reports (criterion 10 at tiny
    # limits, the rest at their defaults: well under a second).
    real = [getattr(verify, name) for name, _ in CRITERIA[:9]]
    reported = [(r.number, r.anchor) for r in (f() for f in real)]
    oracles = verify.criterion_oracles(2, 0, disc_limit=50, character_limit=50)
    reported.append((oracles.number, oracles.anchor))
    assert reported == [
        (number, anchor) for number, (_, anchor) in enumerate(CRITERIA, start=1)
    ]
    _stub_criteria(monkeypatch, {name for name, _ in CRITERIA})
    results = verify.run_all(grid=2)
    assert [(r.number, r.anchor) for r in results] == reported
    assert all(
        [(c.name, c.passed) for c in r.checks] == [("raised", False)] for r in results
    )


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The crosscheck and scan digests are rows of PINS in tests/test_pins.py;
# these two tests check the rows of their commands with its checker.
def test_crosscheck_json_pinned():
    from quadtower.verify import FIELD_TABLE
    from test_pins import PINS, check

    rows = [pin for pin in PINS if pin[0].startswith("--format json crosscheck ")]
    assert sorted(int(argv.split()[-1]) for argv, _, _ in rows) == sorted(
        [row[0] for row in FIELD_TABLE] + [-2580]
    )
    assert check(rows) == []


def test_scan_csv_pinned():
    from test_pins import PINS, check

    rows = [pin for pin in PINS if pin[0] == "--format csv scan -60000 -1"]
    assert len(rows) == 1
    assert check(rows) == []


# sha256 of json.dumps([exit code, stdout, stderr]) of `quadtower --format
# FORMAT ARGS`, keyed "FORMAT ARGS", for every command in each format that
# the stdout pins of tests/test_pins.py leave out, error paths included,
# and of the file that `scan -20000 -1 --csv FILE` writes: recorded before
# the JSON encoder read report shapes off their dataclasses.
CLI_GOLDEN_SHA256 = {
    "text classify -2244":
        "26ea01bfda7ad337374db8155f67526589e91509e3de8faf2f1d082538d68ac9",
    "json classify -2244":
        "6e7ea6f63b68853d58ae69b95ed678b921b97fe49d03a42db6ecfea9b1a0ac51",
    "csv classify -2244":
        "26ea01bfda7ad337374db8155f67526589e91509e3de8faf2f1d082538d68ac9",
    "text classify -2580":
        "81e6bcd4c7b41431c81c1ff4a5de5b6c5e6bfaee1938d7fe04891bf35f7e0b7d",
    "json classify -2580":
        "3a382e1ef3c4503b0468a9061b8a17a39142d0504a57742822536443181fa3fd",
    "csv classify -2580":
        "81e6bcd4c7b41431c81c1ff4a5de5b6c5e6bfaee1938d7fe04891bf35f7e0b7d",
    "text classify -840":
        "3e6d610d69c04041593c59a5dc2c948fd08741933d415b8afc7ba5bbcf094a00",
    "json classify -840":
        "328edb7bb979406754bee99a82edf346a3805d5585e912ef75579023be2af6f6",
    "csv classify -840":
        "3e6d610d69c04041593c59a5dc2c948fd08741933d415b8afc7ba5bbcf094a00",
    "text classify 5":
        "bc0487d036fb31f96a718bd52afd352ae5f72dcaaa7ed6f4aa97103f37d855f5",
    "json classify 5":
        "bc0487d036fb31f96a718bd52afd352ae5f72dcaaa7ed6f4aa97103f37d855f5",
    "csv classify 5":
        "bc0487d036fb31f96a718bd52afd352ae5f72dcaaa7ed6f4aa97103f37d855f5",
    "text invariants -2244":
        "b38e31ab22baa22be02f8dd45de915b0352df4b0cb60ea0e9dff3871ed835367",
    "json invariants -2244":
        "76ecc462dd9e00d79fad565c331c315e026ecb0949f0b7fe8bed4bb842de3ef3",
    "csv invariants -2244":
        "b38e31ab22baa22be02f8dd45de915b0352df4b0cb60ea0e9dff3871ed835367",
    "text predict -2244":
        "bf5a931b5d136f19d1fdf2205474fabf7e174cf7fddff9887a3efa6187905824",
    "json predict -2244":
        "f0ebf7fa587659bfcc8a69f23cfc175f928cde39a33b501cb5a88f96e398b347",
    "csv predict -2244":
        "bf5a931b5d136f19d1fdf2205474fabf7e174cf7fddff9887a3efa6187905824",
    "text predict -2580":
        "15abbd33cde7f484c0f1ee390c81630cb3d0b6f9ff1a27b3b276e94f12464d74",
    "json predict -2580":
        "439e9d8277031d73be25b80f053ecd4e662ecb6b582a17d06a01b281475ff6c3",
    "csv predict -2580":
        "15abbd33cde7f484c0f1ee390c81630cb3d0b6f9ff1a27b3b276e94f12464d74",
    "text crosscheck -2244":
        "41a283558f48bf83e63c0ce2f32edf08e6d7cfe83ad501a562ef95300f18905d",
    "csv crosscheck -2244":
        "41a283558f48bf83e63c0ce2f32edf08e6d7cfe83ad501a562ef95300f18905d",
    "text crosscheck -840":
        "a4647e3d531ce06f1446b537f24b43f02910377e9e00f9d94488964ccc1b4e6a",
    "json crosscheck -840":
        "a4647e3d531ce06f1446b537f24b43f02910377e9e00f9d94488964ccc1b4e6a",
    "csv crosscheck -840":
        "a4647e3d531ce06f1446b537f24b43f02910377e9e00f9d94488964ccc1b4e6a",
    "text group 2 2 1":
        "a5956fd9a2df7a3f2645a5faa8ba7d2e3583b054ab1e217da1c60f5b8e413f37",
    "json group 2 2 1":
        "35b176215ae52db15983d90add9810b144b0ef160a23cd8b3987fc2addccb57f",
    "csv group 2 2 1":
        "a5956fd9a2df7a3f2645a5faa8ba7d2e3583b054ab1e217da1c60f5b8e413f37",
    "text group 2 2 1 --report fingerprint":
        "98b67b939694dcf1d708d2a8cc53b3ef195579ec0cda3b3cdcc35529aada4970",
    "json group 2 2 1 --report fingerprint":
        "25eb07a075454a740269c0e4cce705d80bdd6eaad89b5c044f7347ed7cda89c4",
    "csv group 2 2 1 --report fingerprint":
        "98b67b939694dcf1d708d2a8cc53b3ef195579ec0cda3b3cdcc35529aada4970",
    "text group 2 2 1 --report subgroups":
        "1727f2b835e93dd99b49affa3620251966f07e72b1c36b8d96e4b1a6e4031f2a",
    "json group 2 2 1 --report subgroups":
        "25c7553cb96eab0e3b70134a679a09dc2ce1d85b7bfddf2d28a2fa10a6e84ad2",
    "csv group 2 2 1 --report subgroups":
        "1727f2b835e93dd99b49affa3620251966f07e72b1c36b8d96e4b1a6e4031f2a",
    "text group 2 2 1 --report transfers":
        "59d9f56d578a2292e930f011fed57a61e0d31481e313660cb3a67186cb2f8f0e",
    "json group 2 2 1 --report transfers":
        "88b3cbb1ae7b7fa3c85995e046aab0de2dcca4c4ecaf74fbff3651bdee7742a3",
    "csv group 2 2 1 --report transfers":
        "59d9f56d578a2292e930f011fed57a61e0d31481e313660cb3a67186cb2f8f0e",
    "text group 2 2 1 --report lcs":
        "204f885b6e5bfbd8d0ff3ee5b5eacc70ee2bd0b32a57d581b277fbe3a5b169ee",
    "json group 2 2 1 --report lcs":
        "9e258ca4c88456b17656ab796f1bf16d14f46120b0e3181c917fd1b2ba3a52e8",
    "csv group 2 2 1 --report lcs":
        "204f885b6e5bfbd8d0ff3ee5b5eacc70ee2bd0b32a57d581b277fbe3a5b169ee",
    "text scan -20000 -1":
        "f52f9dca93fe3167d87fac51b1abeaa4db2a92becf3a59310e8290b76c7c5a92",
    "json scan -20000 -1":
        "84dea027f3dd14d07bcf7ba89c795d444df9b7624d1db65ba3481fc15a845c13",
    "csv scan -20000 -1":
        "169db26c7efd465e42cfeaaadea460dcf7f3ac8915a7a8ef3e1a2f382dd587a0",
    "text scan -20000 -1 --type 4r":
        "ce37e72902839c484c0c0c1c5c618c710cc13ba2255464e266bdb3ed6dc6b1dc",
    "json scan -20000 -1 --type 4r":
        "f46d19d0a9c26d853fc93b5c9ca18b0ae3e57e7866d03ac61df0140b77e686e4",
    "csv scan -20000 -1 --type 4r":
        "0a8b8abfb97faa2449abc2181082fe3f18e7472db6e6b717992f3002b7b76fc5",
}
SCAN_CSV_FILE_SHA256 = "6ef36c60068d6a91d7a361fb6855704bf4dccff02bb05d88676ce28c79da2aae"


def test_cli_golden_matrix(capsys, tmp_path):
    for key, digest in CLI_GOLDEN_SHA256.items():
        fmt, *argv = key.split()
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert _sha256(json.dumps([code, out, err])) == digest, key
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "scan", "-20000", "-1", "--csv", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCAN_CSV_FILE_SHA256

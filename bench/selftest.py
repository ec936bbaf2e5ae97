"""Self-test of the benchmark at a tiny size (under a minute).

Checks that a seed fixes the inputs, that two runs with one seed hash to the
same outputs, that injected bad outputs are counted as failed calls, that a
traced run reports every per-layer metric and well-formed spans, and that
BENCHMARK.json names the metrics run.py reports. Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
import workloads
from tracing import LAYER_METRICS

ROOT = run.ROOT


def first_inputs(name: str, seed: int, count: int = 40) -> list:
    return list(itertools.islice(workloads.make(name, seed).inputs(), count))


def check_seeds() -> None:
    for name in workloads.WORKLOADS:
        assert first_inputs(name, 1) == first_inputs(name, 1), f"{name}: not reproducible"
        assert first_inputs(name, 1) != first_inputs(name, 2), f"{name}: seed ignored"


def tiny_run(name: str, seed: int) -> tuple[str, dict]:
    """One timed call (--seconds 0); its output digest and result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def check_tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        first, result = tiny_run(name, 1)
        second, _ = tiny_run(name, 1)
        assert first == second, f"{name}: digests differ for one seed"
        assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
        assert set(result["metrics"]) == set(run.END_TO_END), name


def check_traced_run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        spans_file = Path(tmp) / "spans.jsonl"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
             "scan-window", "--seed", "1", "--seconds", "0", "--trace", "1",
             "--trace-out", str(spans_file)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["tower.classify.calls"]["value"] > 0
    assert result["metrics"]["pgroup.PGroup.mul.calls"]["value"] == 0
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"], roots
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert {s["call"] for s in spans} == {0}


def failed_count(wl, x, outcomes) -> int:
    return len(run.check_all(wl, [run.Call(x, outcome) for outcome in outcomes]))


def check_injected_failures() -> None:
    qt = run.import_program()
    raised = workloads.Outcome(None, "RuntimeError: injected")

    wl = workloads.make("scan-window", 1)
    x = (-23999, -20000)  # two Type4p and two Type4r fields
    good = wl.call(qt, x)
    lines = good.text.splitlines()
    assert len(lines) == 5, good.text
    dropped = replace(good, text="\n".join(lines[:-1]) + "\n")
    relabelled = replace(good, text=good.text.replace(",Type4p,", ",Type4r,", 1))

    def with_row(row: str) -> workloads.Outcome:
        return replace(good, text="\n".join(lines[:1] + [row] + lines[2:]) + "\n")

    assert lines[1] == "-20292,Type4p,89,19,3,2,2,16,4", lines[1]
    bad_h2 = with_row("-20292,Type4p,89,19,3,2,2,8,4")
    # Wrong (n, m) whose 2-class numbers agree with them.
    wrong_n = with_row("-20292,Type4p,89,19,3,3,2,32,4")
    wrong_m = with_row("-20292,Type4p,89,19,3,2,3,16,8")
    outcomes = [good, dropped, relabelled, bad_h2, wrong_n, wrong_m, raised]
    assert failed_count(wl, x, outcomes) == 6, "scan-window failures not counted"

    wl = workloads.make("crosscheck-fields", 1)
    x = wl.warmup_input()
    good = wl.call(qt, x)
    flipped = replace(good, text=good.text.replace('"passed":true', '"passed":false', 1))
    doc = json.loads(good.text)
    doc["results"][0]["n"] += 1
    wrong_n = replace(good, text=json.dumps(doc))
    outcomes = [good, flipped, wrong_n, replace(good, rc=2), raised]
    assert failed_count(wl, x, outcomes) == 4, "crosscheck-fields failures not counted"

    wl = workloads.make("fingerprint-groups", 1)
    x = wl.warmup_input()
    good = wl.call(qt, x)
    doc = json.loads(good.text)
    doc["results"][0]["fingerprint"]["derived_type"] = [2, 2]
    outcomes = [good, replace(good, text=json.dumps(doc)), raised]
    assert failed_count(wl, x, outcomes) == 2, "fingerprint-groups failures not counted"

    wl = workloads.make("oracle", 1)
    x = wl.warmup_input()
    good = wl.call(qt, x)
    broken = wl.call(qt, x)
    broken.value.checks.append(qt.tower.Check("injected", [], ["failure"]))
    outcomes = [good, broken, raised]
    assert failed_count(wl, x, outcomes) == 2, "oracle failures not counted"


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for step in (check_benchmark_json, check_seeds, check_injected_failures,
                 check_tiny_runs, check_traced_run):
        step()
        print(f"ok {step.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for quadtower: one workload per run, in one process, as a closed
loop with one client. Every call goes into `quadtower.cli.main(argv)` with
stdout captured, or into one public library function; the inputs are drawn
from --seed by workloads.py and every output is checked there.

Run from the repository root:

    python3 bench/run.py --workload scan-window --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Every timing it reports is normalised to a fixed machine speed by speed.py;
the raw figures are printed above the result line. --trace 0 measures the
end-to-end metrics with nothing wrapped. --trace 1
spends half of --seconds untraced and half traced on the same input
sequence (their ratio is the tracing overhead), then runs the untraced
per-operation loops of perop.py and reports the per-layer metrics.
--workload all runs every workload in turn, each in its own process, and
prints every metric by name with its unit.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import perop
import workloads
from speed import Speed
from tracing import LAYER_METRICS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 25
# Set-up is repeated before the timed loop and again after it, each time at
# least SETUP_MIN_REPEATS times and until SETUP_BUDGET_S seconds have gone
# into it. setup_s is the median of both sets.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 12
SETUP_BUDGET_S = 1.0
# The tail latency is read at the highest percentile with this many calls
# beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "call_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    """The quadtower sources are not in this checkout."""


def import_program():
    """Import quadtower from this checkout's src/, discarding earlier imports."""
    for name in [k for k in sys.modules if k == "quadtower" or k.startswith("quadtower.")]:
        del sys.modules[name]
    qt = importlib.import_module("quadtower")
    for layer in LAYERS:
        importlib.import_module(f"quadtower.{layer}")
    if not Path(qt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"quadtower was imported from {qt.__file__}, not {SRC}")
    return qt


def guarded_call(wl, qt, x) -> workloads.Outcome:
    """One call; an exception counts as a failed call, not a benchmark error."""
    try:
        return wl.call(qt, x)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed call
        return workloads.Outcome(None, f"{type(exc).__name__}: {exc}")


class Call(NamedTuple):
    """One timed call: raw wall and CPU seconds, and the index of the speed
    sample taken just before it."""

    x: object
    outcome: workloads.Outcome
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref: int = 0


def setup(name: str, seed: int, speed: Speed):
    """Import, generate inputs and make one warm-up call, several times.

    Returns the last program and workload, the set-up times normalised by
    `speed`, and the warm-up call.
    """
    raw = []
    while len(raw) < SETUP_MIN_REPEATS or (
        sum(t for t, _ in raw) < SETUP_BUDGET_S and len(raw) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        k = speed.mark(0)
        start = time.perf_counter()
        qt = import_program()
        wl = workloads.make(name, seed)
        x = wl.warmup_input()
        outcome = guarded_call(wl, qt, x)
        raw.append((time.perf_counter() - start, k))
    speed.mark(0)
    return qt, wl, [speed.normalise(t, k) for t, k in raw], Call(x, outcome)


def timed_loop(wl, qt, inputs, seconds: float, speed: Speed, tracer=None) -> list[Call]:
    """Closed loop: the next call starts when the previous one returns.

    Stops after the call that ends past `seconds`, so --seconds 0 makes one
    call. The reference loop of `speed` runs between calls.
    """
    records = []
    deadline = time.perf_counter() + seconds
    for i, x in enumerate(inputs):
        if tracer is not None:
            tracer.call = i
        k = speed.mark()
        cpu = time.process_time()
        start = time.perf_counter()
        outcome = guarded_call(wl, qt, x)
        end = time.perf_counter()
        records.append(Call(x, outcome, end - start, time.process_time() - cpu, k))
        if end >= deadline:
            break
    speed.mark(0)
    return records


def calls_per_s(records: list[Call], speed: Speed) -> float:
    """Completed calls per normalised second of calls."""
    return len(records) / sum(speed.normalise(r.wall_s, r.ref) for r in records)


def check_all(wl, records: list[Call]) -> list[str]:
    """Problems of every failed call, one line each."""
    failures = []
    for x, outcome, *_ in records:
        try:
            problems = wl.check(x, outcome)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the call
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{x}: " + "; ".join(problems[:3]))
    return failures


def digests(records) -> str:
    """Running hash of every call's input and output, as "calls:digest" after
    1, 2, 4, ... calls and after the last, so that two runs of one seed can be
    compared over the calls they share."""
    h = hashlib.sha256()
    marks = []
    for i, (x, outcome, *_) in enumerate(records, 1):
        h.update(repr(x).encode())
        h.update(hashlib.sha256(outcome.text.encode()).digest())
        if i & (i - 1) == 0 or i == len(records):
            marks.append(f"{i}:{h.hexdigest()[:16]}")
    return " ".join(marks)


def latency_metrics(latencies: list[float]) -> tuple[float, float, str]:
    """(p50 ms, tail ms, description of the tail percentile)."""
    lat = sorted(latencies)
    n = len(lat)
    p50 = statistics.median(lat) * 1e3
    if n > TAIL_BEYOND:
        pct = 100 * (n - TAIL_BEYOND) / n
        return p50, lat[n - TAIL_BEYOND - 1] * 1e3, f"p{pct:.1f} of {n} calls"
    return p50, lat[-1] * 1e3, f"max of {n} calls (fewer than {TAIL_BEYOND + 1})"


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{sys.implementation.name} {sys.version.split()[0]}",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def emit(failures, attempted: int, metrics: dict, units: dict) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_ratio {len(failures) / attempted:.6g} 1 "
          f"({len(failures)} of {attempted} calls)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_untraced(args) -> None:
    speed = Speed()
    qt, wl, setup_times, warm = setup(args.workload, args.seed, speed)
    records = timed_loop(wl, qt, wl.inputs(), args.seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += setup(args.workload, args.seed, speed)[2]
    latencies = [speed.normalise(r.wall_s, r.ref) for r in records]
    p50, tail, tail_note = latency_metrics(latencies)
    cpu = sum(speed.normalise(r.cpu_s, r.ref) for r in records)
    failures = check_all(wl, [warm] + records)
    raw_wall = sum(r.wall_s for r in records)
    raw_cpu = sum(r.cpu_s for r in records)
    refs = sorted(speed.samples)
    print(f"digest {digests(records)}")
    print(f"call_tail_ms is the {tail_note}")
    print(f"setup_s is the median of {len(setup_times)} set-ups, "
          f"before and after the timed loop")
    print(f"raw: {len(records) / raw_wall:.4g} calls/s, call p50 "
          f"{statistics.median(r.wall_s for r in records) * 1e3:.4g} ms; "
          f"reference loop {refs[len(refs) // 2] * 1e3:.3f} ms median of "
          f"{len(refs)}, {refs[0] * 1e3:.3f} to {refs[-1] * 1e3:.3f} ms")
    # CPU below wall time means the run waited on the machine, not on quadtower.
    print(f"raw: cpu {raw_cpu:.3f} s of {raw_wall:.3f} s in calls "
          f"(ratio {raw_cpu / raw_wall:.3f})")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": calls_per_s(records, speed),
        "call_p50_ms": p50,
        "call_tail_ms": tail,
        "call_cpu_ms": cpu / len(records) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    emit(failures, len(records) + 1, metrics, END_TO_END)


def run_traced(args) -> None:
    speed = Speed()
    qt, wl, _, warm = setup(args.workload, args.seed, speed)
    half = args.seconds / 2
    plain = timed_loop(wl, qt, wl.inputs(), half, speed)
    # The traced half replays the same input sequence from its start.
    replay = workloads.make(args.workload, args.seed)
    tracer = Tracer(qt)
    tracer.install()
    try:
        traced = timed_loop(replay, qt, replay.inputs(), half, speed, tracer)
    finally:
        tracer.uninstall()
    if args.trace_out:
        tracer.write_spans(args.trace_out)
    metrics = tracer.metrics(len(traced))
    metrics.update(perop.measure(qt, args.seed))
    untraced_cps = calls_per_s(plain, speed)
    traced_cps = calls_per_s(traced, speed)
    metrics["trace.calls_per_s"] = traced_cps
    metrics["trace.overhead"] = untraced_cps / traced_cps
    if set(metrics) != set(LAYER_METRICS):
        raise RuntimeError(f"per-layer metrics differ: {set(metrics) ^ set(LAYER_METRICS)}")
    failures = check_all(wl, [warm] + plain + traced)
    print(f"tracing overhead: {untraced_cps:.4g} calls/s untraced ({len(plain)} calls), "
          f"{traced_cps:.4g} calls/s traced ({len(traced)} calls), "
          f"ratio {untraced_cps / traced_cps:.3f}; {len(tracer.spans)} spans")
    print("largest self time per call (traced):")
    for name, calls, self_s in tracer.top(len(traced)):
        print(f"  {name:40s} {calls:14.1f} calls {self_s * 1e3:12.3f} ms")
    ordered = {k: metrics[k] for k in LAYER_METRICS}
    emit(failures, len(plain) + len(traced) + 1, ordered, LAYER_METRICS)


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", help="with --trace 1, write the spans "
                                            "to this file as JSON lines")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "quadtower" / "__init__.py").is_file():
        print(f"error: no quadtower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    try:
        if args.trace:
            run_traced(args)
        else:
            run_untraced(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

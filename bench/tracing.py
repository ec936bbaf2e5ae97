"""Traced runs: wrap quadtower's public functions from outside the program.

Every public function of the layer modules is replaced, at every module that
binds it, by a wrapper that counts calls and sums total and self time.
`PGroup.mul` is wrapped on the class. Self time is a call's duration minus
the time spent in the wrapped calls it made. Calls at the coarse boundaries
(SPAN_NAMES and every `tower` function) also leave a span: id, parent span,
name, start, end and the index of the workload call that caused it. Hot leaf
functions leave counts only, so memory stays bounded. Everything is kept in
memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time

LAYERS = ("arith", "quadforms", "genus", "kuroda", "pgroup", "tower", "verify", "cli")

SPAN_NAMES = frozenset({
    "cli.main",
    "quadforms.class_group",
    "pgroup.fingerprint",
    "pgroup.transfer_kernel",
    "pgroup.derived_subgroup",
    "verify.criterion_oracles",
})

# Per-layer metrics of a traced run, with units. Counts and times are per
# workload call; ratios are over the whole traced run.
LAYER_METRICS = {
    "arith.factor.calls": "count",
    "arith.factor.self_s": "s",
    "arith.factor.us_per_op": "us",
    "arith.is_fundamental.calls": "count",
    "arith.kronecker.calls": "count",
    "arith.kronecker.ns_per_op": "ns",
    "quadforms.class_group.calls": "count",
    "quadforms.class_group.self_s": "s",
    "quadforms.class_group.classes": "count",
    "quadforms.class_group.distinct_ratio": "1",
    "quadforms.class_group.ms.d1e4": "ms",
    "quadforms.class_group.ms.d1e5": "ms",
    "quadforms.class_group.ms.d1e6": "ms",
    "quadforms.form_pow.calls": "count",
    "quadforms.form_pow.self_s": "s",
    "quadforms.compose.calls": "count",
    "quadforms.compose.self_s": "s",
    "quadforms.compose.us_per_op": "us",
    "quadforms.reduce_form.calls": "count",
    "quadforms.reduce_form.us_per_op": "us",
    "quadforms.wide_h2.self_s": "s",
    "quadforms.fundamental_unit.self_s": "s",
    "genus.square_2torsion.self_s": "s",
    "genus.lemma1_check.self_s": "s",
    "genus.chi_eval.calls": "count",
    "genus.chi_eval.us_per_op": "us",
    "kuroda.kuroda_h2.calls": "count",
    "kuroda.kuroda_h2.self_s": "s",
    "pgroup.PGroup.mul.calls": "count",
    "pgroup.PGroup.mul.ns_per_op": "ns",
    "pgroup.derived_subgroup.calls": "count",
    "pgroup.derived_subgroup.self_s": "s",
    "pgroup.maximal_subgroups.self_s": "s",
    "pgroup.subgroups_of_index4.self_s": "s",
    "pgroup.abelian_type_of.self_s": "s",
    "pgroup.closure.calls": "count",
    "pgroup.closure.elements": "count",
    "pgroup.transfer_kernel.self_s": "s",
    "pgroup.gamma.calls": "count",
    "pgroup.gamma.distinct_ratio": "1",
    "pgroup.verify_presentation.self_s": "s",
    "tower.classify.calls": "count",
    "tower.classify.self_s": "s",
    "tower.scan.hit_ratio": "1",
    "tower.crosscheck.self_s": "s",
    "verify.criterion_oracles.self_s": "s",
    "cli.main.self_s": "s",
    "trace.calls_per_s": "1/s",
    "trace.overhead": "1",
}


class Tracer:
    """Counts, times and spans of the wrapped functions of one package."""

    def __init__(self, qt):
        self.qt = qt
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.call = 0  # index of the current workload call
        self.classes = 0
        self.closure_elements = 0
        self.scan_examined = 0
        self.scan_rows = 0
        self.distinct: dict[str, set] = {"quadforms.class_group": set(),
                                         "pgroup.gamma": set()}
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- observers of arguments and results ---------------------------------

    def _observers(self):
        def class_group(args, result):
            self.distinct["quadforms.class_group"].add(args[0])
            self.classes += result.h

        def gamma(args, result):
            self.distinct["pgroup.gamma"].add(tuple(args))

        def closure(args, result):
            self.closure_elements += len(result)

        def scan(args, result):
            self.scan_examined += args[1] - args[0] + 1
            self.scan_rows += len(result)

        return {"quadforms.class_group": class_group, "pgroup.gamma": gamma,
                "pgroup.closure": closure, "tower.scan": scan}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        if name not in SPAN_NAMES and not name.startswith("tower."):
            def leaf(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    frames.pop()
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[0]
                    if frames:
                        frames[-1][0] += dur
                if observe is not None:
                    observe(args, result)
                return result
            return leaf

        spans, open_spans, ids = self.spans, self._open_spans, self._ids

        def span(*args, **kwargs):
            sid = next(ids)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                frames.pop()
                open_spans.pop()
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                spans.append((sid, parent, name, start, end, self.call))
            if observe is not None:
                observe(args, result)
            return result
        return span

    def install(self) -> None:
        """Wrap the public functions of every layer and `PGroup.mul`."""
        owners = [m for k, m in sys.modules.items()
                  if k == "quadtower" or k.startswith("quadtower.")]
        observers = self._observers()
        for layer in LAYERS:
            mod = getattr(self.qt, layer)
            targets = [
                (attr, fn) for attr, fn in vars(mod).items()
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and not attr.startswith("_")
            ]
            for attr, fn in targets:
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, observers.get(name))
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        pg = self.qt.pgroup.PGroup
        self._patches.append((pg, "mul", pg.mul))
        pg.mul = self._wrap("pgroup.PGroup.mul", pg.mul, None)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, calls: int) -> dict[str, float]:
        """The traced part of LAYER_METRICS, per workload call."""
        out = {}
        for metric in LAYER_METRICS:
            name, _, kind = metric.rpartition(".")
            st = self.stats.get(name, [0, 0.0, 0.0])
            if kind == "calls":
                out[metric] = st[0] / calls
            elif kind == "self_s":
                out[metric] = st[2] / calls
        out["quadforms.class_group.classes"] = self.classes / calls
        out["pgroup.closure.elements"] = self.closure_elements / calls
        for name, seen in self.distinct.items():
            total = self.stats.get(name, [0])[0]
            out[f"{name}.distinct_ratio"] = len(seen) / total if total else 0.0
        out["tower.scan.hit_ratio"] = (
            self.scan_rows / self.scan_examined if self.scan_examined else 0.0
        )
        return out

    def top(self, calls: int, limit: int = 12) -> list[tuple[str, float, float]]:
        """(name, calls, self_s) per workload call, largest self time first."""
        rows = [(name, st[0] / calls, st[2] / calls) for name, st in self.stats.items()
                if st[0]]
        rows.sort(key=lambda r: -r[2])
        return rows[:limit]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, call in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "call": call}) + "\n")

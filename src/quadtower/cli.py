"""Command-line interface: classification, prediction, cross-checks, group
reports, scans, and the one-shot verification matrix.

Exit codes: 0 on success with all checks passing, 2 if any check failed,
1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys

from . import pgroup
from .errors import InvalidArgument, QuadTowerError
from .quadforms import DEFAULT_ENUM_BOUND, AbelianType
from .tower import Check, TowerReport, classify, crosscheck, invariants, predict, scan
from .verify import run_all

SCHEMA_VERSION = 1

CSV_COLUMNS = ["d", "kind", "p", "q", "qprime", "n", "m", "h2_k", "h2_minus4p"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    """Convert report values to JSON-serializable structures: a dataclass
    encodes as the dict of its fields.  A Check keeps its own branch, for
    its `passed` is a property and checks fill most documents."""
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Check):
        return {
            "name": value.name,
            "expected": _jsonable(value.expected),
            "computed": _jsonable(value.computed),
            "passed": value.passed,
        }
    if isinstance(value, AbelianType):
        return list(value.parts)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return str(value)


def _emit_json(command: str, config: dict, results, checks) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "checks": [_jsonable(c) for c in checks],
    }
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _report_result(r: TowerReport) -> dict:
    """The report without its checks, which the document carries apart."""
    out = _jsonable(dataclasses.replace(r, checks=()))
    del out["checks"]
    return out


def _print_checks_text(checks) -> None:
    for c in checks:
        mark = "ok" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: expected {c.expected}, computed {c.computed}")


def cmd_classify(args, config) -> int:
    cls = classify(args.d)
    if args.format == "json":
        _emit_json("classify", config, [cls], [])
    else:
        primes = " ".join(str(p) for p in cls.primes)
        print(f"{cls.d}: {cls.kind}" + (f" ({primes})" if primes else ""))
    return 0


def cmd_invariants(args, config) -> int:
    n, m, mu = invariants(args.d, args.bound)
    if args.format == "json":
        _emit_json("invariants", config, [{"d": args.d, "n": n, "m": m, "mu": mu}], [])
    else:
        print(f"{args.d}: n={n} m={m} mu={mu}")
    return 0


def cmd_predict(args, config) -> int:
    report = predict(args.d, args.bound)
    if args.format == "json":
        _emit_json("predict", config, [_report_result(report)], report.checks)
    else:
        g = report.predicted_group
        family = "Gamma" if g.family == "Gamma" else "Gamma^(4r)"
        print(
            f"{args.d}: {family} n={g.n} m={g.m} eps={g.eps} "
            f"(h2(k)={report.h2_k}, h2(-4p)={report.h2_minus4p})"
        )
        _print_checks_text(report.checks)
    return 0 if report.all_passed else 2


def cmd_crosscheck(args, config) -> int:
    report = crosscheck(args.d, args.bound)
    if args.format == "json":
        _emit_json("crosscheck", config, [_report_result(report)], report.checks)
    else:
        print(f"{args.d}: n={report.n} m={report.m}")
        _print_checks_text(report.checks)
    return 0 if report.all_passed else 2


def _group_report(top, kind: str):
    """The named report, other than the fingerprint, on the whole group
    `top`, whose G' it shares."""
    g = top.group
    if kind == "subgroups":
        return [
            {"abelianization": pgroup.abelianization(sub), "normal": normal}
            for sub, normal in pgroup.subgroups_of_index4(g, pgroup.maximal_subgroups(top))
        ]
    if kind == "transfers":
        subs, phi = pgroup.standard_maximal_subgroups(top)
        kernels = pgroup.transfer_kernel(top, subs)
        out = {f"ker_t{j}_order": order for j, (order, _) in enumerate(kernels, start=1)}
        h2, inter = pgroup.capitulation_subgroups(subs, phi)
        ((order, _),) = pgroup.transfer_kernel(h2, [inter])
        out["ker_H2_to_H1capH2_order"] = order
        return out
    return [term.order for term in pgroup.lower_central_series(top)]


def cmd_group(args, config) -> int:
    g = pgroup.gamma(args.n, args.m, args.eps)
    result = {"params": g.params, "order": g.order}
    if args.report == "fingerprint":
        # The fingerprint builds the whole group and its G' once, and has
        # read both invariants over them.
        fp = result["fingerprint"] = pgroup.fingerprint(g)
        result["abelianization"], result["derived_type"] = fp.abelianization, fp.derived_type
    else:
        top = pgroup.whole_group(g)
        if args.report:
            result[args.report] = _group_report(top, args.report)
        result["abelianization"] = pgroup.abelianization(top)
        result["derived_type"] = pgroup.abelian_type_of(top.derived)
    if args.format == "json":
        _emit_json("group", config, [result], [])
    else:
        print(
            f"Gamma_({args.n},{args.m},{args.eps}): order {g.order}, "
            f"abelianization {result['abelianization']}, "
            f"derived {result['derived_type']}"
        )
        if args.report:
            print(json.dumps(_jsonable(result[args.report]), sort_keys=True, indent=2))
    return 0


def cmd_verify(args, config) -> int:
    results = run_all(grid=args.grid, seed=args.seed, bound=args.bound)
    if args.format == "json":
        payload = [
            {
                "number": r.number,
                "anchor": r.anchor,
                "passed": r.passed,
                "checks": len(r.checks),
                "failures": [_jsonable(c) for c in r.failures],
                "deviations": [
                    {"name": name, "note": note} for name, note in r.deviations
                ],
            }
            for r in results
        ]
        _emit_json("verify", config, payload, [])
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.number:2d} {r.anchor}: {status} ({len(r.checks)} checks)")
            for c in r.failures:
                print(f"     FAIL {c.name}: expected {c.expected}, computed {c.computed}")
            for name, note in r.deviations:
                print(f"     KNOWN DEVIATION {name}: {note}")
    return 0 if all(r.passed for r in results) else 2


def _write_csv(fh, rows) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def cmd_scan(args, config) -> int:
    # The --csv file is opened before the scan, so an unwritable path fails
    # at once instead of after the whole window.  It is opened to append and
    # emptied only once the rows are in, so a failed scan leaves an existing
    # file as it was and removes one that it created.
    created = bool(args.csv) and not os.path.lexists(args.csv)
    try:
        fh = open(args.csv, "a", newline="") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise InvalidArgument(f"cannot write {args.csv}: {exc.strerror}") from None
    try:
        with fh:
            reports = scan(args.lo, args.hi, bound=args.bound, workers=args.workers)
            if args.type:
                want = "Type4p" if args.type == "4p" else "Type4r"
                reports = [r for r in reports if r.classification.kind == want]
            rows = [
                dict(zip(CSV_COLUMNS, (r.d, r.classification.kind, *r.classification.primes,
                                       r.n, r.m, r.h2_k, r.h2_minus4p)))
                for r in reports
            ]
            if args.csv:
                fh.truncate(0)
                _write_csv(fh, rows)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.csv)
        raise
    if args.format == "json":
        _emit_json("scan", config, rows, [])
    elif args.format == "csv":
        _write_csv(sys.stdout, rows)
    else:
        for row in rows:
            print(
                f"{row['d']:>8} {row['kind']} p={row['p']} q={row['q']} "
                f"q'={row['qprime']} n={row['n']} m={row['m']}"
            )
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, so every main call can share it."""
    parser = _Parser(prog="quadtower", description=__doc__)
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--bound", type=int, default=DEFAULT_ENUM_BOUND)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("classify", "invariants", "predict", "crosscheck"):
        p = sub.add_parser(name)
        p.add_argument("d", type=int)

    p = sub.add_parser("group")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("eps", type=int, choices=[0, 1])
    p.add_argument(
        "--report", choices=["fingerprint", "subgroups", "transfers", "lcs"]
    )

    p = sub.add_parser("verify")
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("scan")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--type", choices=["4p", "4r"])
    p.add_argument("--csv")
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "invariants": cmd_invariants,
    "predict": cmd_predict,
    "crosscheck": cmd_crosscheck,
    "group": cmd_group,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command",) and v is not None
    }
    try:
        code = _COMMANDS[args.command](args, config)
        # A reader that closed stdout early is seen here at the latest.
        sys.stdout.flush()
        return code
    except QuadTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush silent (the "Note on SIGPIPE" in Python's signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded inputs, one call into quadtower, and output checks.

Every check here is computed with this file's own stdlib arithmetic (a
smallest-prime-factor sieve, Euler's criterion, class numbers by counting
reduced forms), never with quadtower itself, so a wrong answer from the
program cannot also make its check pass.

Inputs come in rounds. Each round is a stratified sample whose strata are
cost classes, and the picks of every stratum are spread evenly over the
round, so any prefix of the call sequence holds about the same mix. That
keeps a time-limited run's figures steady from one seed to the next.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("scan-window", "crosscheck-fields", "fingerprint-groups", "oracle")

# scan-window: fixed-width windows, log-uniform over |d| in [SCAN_MIN, SCAN_MAX].
SCAN_WIDTH = 2000
SCAN_MIN = 10**4
SCAN_MAX = 10**6
SCAN_BANDS = 8

# crosscheck-fields: the Type4p/Type4r fields with |d| <= CROSSCHECK_LIMIT.
CROSSCHECK_LIMIT = 4 * 10**5
# Share of each cost stratum drawn per round.
CROSSCHECK_FRACTION = 0.2
# Fields whose tower group has order >= 2^HEAVY_ORDER_LOG2 are left out: 4 of
# the 450, costing 1-5 s each. Drawn at random they would fall in some runs
# and not in others; put in every run they took a third of it and made its
# figures vary far more from run to run. Orders 2^7 to 2^11 remain.
HEAVY_ORDER_LOG2 = 12
FIELDS_FILE = Path(__file__).with_name("fields.json")

# fingerprint-groups: (n, m, eps) with n + m in FINGERPRINT_SUMS.
FINGERPRINT_SUMS = (4, 5)

# oracle: limits well below the verification matrix defaults
# (disc_limit=20000, character_limit=2000, n + m <= 8), so that a run holds
# a few dozen calls. grid=1 leaves out the Gamma(n,m,eps) presentations,
# which would otherwise outweigh the composition tables at these limits.
ORACLE_LIMITS = {"grid": 1, "disc_limit": 800, "character_limit": 300}
# Presentations of Gamma4r(n) for n = 2, 3, 4, the composition axioms and
# the genus-character product.
ORACLE_CHECKS = 5

# Published fields of the paper with |d| <= CROSSCHECK_LIMIT: d -> (n, m).
PAPER_FIELDS = {
    -2244: (2, 2),
    -5412: (2, 3),
    -9348: (3, 3),
    -21828: (3, 2),
    -25764: (4, 3),
    -37092: (4, 2),
    -75108: (2, 5),
    -78276: (5, 3),
    -101796: (5, 2),
    -106788: (3, 5),
    -132612: (3, 4),
    -169796: (6, 2),
    -255972: (2, 4),
    -329988: (4, 4),
}


# ---------------------------------------------------------------------------
# Independent arithmetic
# ---------------------------------------------------------------------------

def spf_table(limit: int) -> list[int]:
    """Smallest prime factor of every k <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class Field:
    """d = -4 p q q' with p = 1 mod 4, q = q' = 3 mod 8, (p/q) = (p/q') =
    (-q/q') = -1; Type4p when p = 1 mod 8, Type4r when p = 5 mod 8."""

    d: int
    kind: str
    p: int
    q: int
    qprime: int


def type4_fields(lo: int, hi: int, spf: list[int]) -> list[Field]:
    """All Type4p/Type4r fields with lo <= |d| <= hi, by descending d."""
    out = []
    start = lo + (-lo) % 4
    for ad in range(start, hi + 1, 4):
        core = ad // 4
        if core % 2 == 0:
            continue
        primes = []
        while core > 1:
            primes.append(spf[core])
            core //= spf[core]
        if len(primes) != 3 or len(set(primes)) != 3:
            continue
        ones = [x for x in primes if x % 4 == 1]
        threes = sorted(x for x in primes if x % 8 == 3)
        if len(ones) != 1 or len(threes) != 2:
            continue
        p = ones[0]
        q, qp = threes
        if legendre(p, q) != -1 or legendre(p, qp) != -1:
            continue
        # For q, q' = 3 mod 8 exactly one order has (-q/q') = -1.
        if legendre(-q, qp) != -1:
            q, qp = qp, q
        kind = "Type4p" if p % 8 == 1 else "Type4r"
        out.append(Field(-ad, kind, p, q, qp))
    return out


def class_number(d: int, spf: list[int]) -> int:
    """h(d) for a fundamental discriminant d < -4, by counting reduced forms.

    A reduced form (a, b, c) has |b| <= a <= c, and b >= 0 when |b| = a or
    a = c. For each b >= 0 of the parity of d, the a are the divisors of
    (b^2 - d) / 4 with b <= a <= c; spf must reach |d| / 3. Every form of a
    fundamental discriminant is primitive. No composition and no group
    structure is used, so h is independent of the program.
    """
    h = 0
    for b in range(d % 2, math.isqrt(-d // 3) + 1, 2):
        ac = (b * b - d) // 4
        for a in _divisors(ac, spf):
            c = ac // a
            if a < b or a > c:
                continue
            h += 1 if b == 0 or a == b or a == c else 2
    return h


def _divisors(k: int, spf: list[int]) -> list[int]:
    divs = [1]
    while k > 1:
        p, e = spf[k], 0
        while k % p == 0:
            k //= p
            e += 1
        divs = [x * p**i for x in divs for i in range(e + 1)]
    return divs


def two_adic(x: int) -> int:
    return (x & -x).bit_length() - 1


def field_invariants(f: Field, spf: list[int]) -> tuple[int, int]:
    """(n, m) from class numbers: h2(d) = 2^(n+2) and h2(-4p) = 2^m."""
    return (two_adic(class_number(f.d, spf)) - 2,
            two_adic(class_number(-4 * f.p, spf)))


def load_field_invariants() -> dict[int, tuple[int, int]]:
    """d -> (n, m) from independent class numbers, see make_fields.py."""
    doc = json.loads(FIELDS_FILE.read_text())
    return {d: (n, m) for d, n, m in doc["fields"]}


# ---------------------------------------------------------------------------
# Calls into the program
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one call returned: an exit code and the canonical output text."""

    rc: object
    text: str
    value: object = None


def run_cli(qt, argv: list[str]) -> Outcome:
    """quadtower.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qt.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return Outcome(rc, out.getvalue() + err.getvalue())


_GOLDEN = (math.sqrt(5) - 1) / 2


def _interleave(rng: random.Random, strata: list[list]) -> list:
    """Merge the strata so that each is spread evenly over the result.

    Within a stratum the members are taken in a golden-ratio order of their
    given order, so that every prefix covers the stratum evenly too.
    """
    keyed = []
    for members in strata:
        start = rng.random()
        order = sorted(range(len(members)), key=lambda i: (start + i * _GOLDEN) % 1)
        shift = rng.random()
        keyed.extend(((j + shift) / len(members), rng.random(), members[i])
                     for j, i in enumerate(order))
    keyed.sort(key=lambda t: t[:2])
    return [x for _, _, x in keyed]


class Workload:
    """Base: a seeded input stream, one call per input, one check per output."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def inputs(self):
        """Endless stream of inputs; the same seed gives the same stream."""
        while True:
            yield from self.round()

    def round(self) -> list:
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def call(self, qt, x) -> Outcome:
        raise NotImplementedError

    def check(self, x, outcome: Outcome) -> list[str]:
        """Problems with one output; empty when it is correct."""
        raise NotImplementedError


class ScanWindow(Workload):
    """`quadtower --format csv scan lo hi` over a SCAN_WIDTH-wide window."""

    name = "scan-window"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._spf = None
        self._invariants: dict[int, tuple[int, int]] = {}

    def round(self) -> list[tuple[int, int]]:
        top = SCAN_MAX - SCAN_WIDTH + 1
        span = math.log(top / SCAN_MIN)
        out = []
        for band in range(SCAN_BANDS):
            u = (band + self.rng.random()) / SCAN_BANDS
            a = int(SCAN_MIN * math.exp(u * span))
            out.append((-(a + SCAN_WIDTH - 1), -a))
        self.rng.shuffle(out)
        return out

    def warmup_input(self):
        return (-(SCAN_MIN + SCAN_WIDTH - 1), -SCAN_MIN)

    def call(self, qt, x) -> Outcome:
        lo, hi = x
        return run_cli(qt, ["--format", "csv", "scan", str(lo), str(hi)])

    def expected(self, lo: int, hi: int) -> list[Field]:
        if self._spf is None:
            # class_number needs primes to |d| / 3, type4_fields to |d| / 4.
            self._spf = spf_table(SCAN_MAX // 3 + 1)
        return type4_fields(-hi, -lo, self._spf)

    def invariants(self, f: Field) -> tuple[int, int]:
        if f.d not in self._invariants:
            self._invariants[f.d] = field_invariants(f, self._spf)
        return self._invariants[f.d]

    def check(self, x, outcome: Outcome) -> list[str]:
        lo, hi = x
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}: {outcome.text[-200:]}"]
        problems = []
        rows = list(csv.DictReader(io.StringIO(outcome.text)))
        want = self.expected(lo, hi)
        by_d = {f.d: f for f in want}
        seen = []
        for row in rows:
            try:
                vals = {k: (v if k == "kind" else int(v)) for k, v in row.items()}
            except (TypeError, ValueError):
                problems.append(f"unparsable row {row}")
                continue
            problems.extend(_row_problems(vals))
            if vals["d"] in by_d:
                nm = self.invariants(by_d[vals["d"]])
                if (vals["n"], vals["m"]) != nm:
                    problems.append(f"{vals['d']}: (n, m) = ({vals['n']}, "
                                    f"{vals['m']}), class numbers give {nm}")
            seen.append(Field(vals["d"], vals["kind"], vals["p"], vals["q"],
                              vals["qprime"]))
        if sorted(seen, key=lambda f: f.d) != sorted(want, key=lambda f: f.d):
            missing = {f.d for f in want} - {f.d for f in seen}
            extra = {f.d for f in seen} - {f.d for f in want}
            problems.append(f"row set differs: missing {sorted(missing)[:5]}, "
                            f"extra {sorted(extra)[:5]}, or fields differ")
        return problems


def _row_problems(r: dict) -> list[str]:
    d, p, q, qp, n, m = r["d"], r["p"], r["q"], r["qprime"], r["n"], r["m"]
    problems = []
    if d != -4 * p * q * qp:
        problems.append(f"{d} != -4*{p}*{q}*{qp}")
    for x in (p, q, qp):
        if not is_prime(x):
            problems.append(f"{d}: {x} is not prime")
    kind = {1: "Type4p", 5: "Type4r"}.get(p % 8)
    if r["kind"] != kind:
        problems.append(f"{d}: kind {r['kind']} but p = {p % 8} mod 8")
    if q % 8 != 3 or qp % 8 != 3:
        problems.append(f"{d}: q, q' not 3 mod 8")
    if is_prime(q) and is_prime(qp) and not (
        legendre(p, q) == legendre(p, qp) == legendre(-q, qp) == -1
    ):
        problems.append(f"{d}: Legendre conditions fail")
    if n < 2 or m < 1:
        problems.append(f"{d}: (n, m) = ({n}, {m}) out of range")
    if r["h2_k"] != 1 << (n + 2):
        problems.append(f"{d}: h2_k = {r['h2_k']} != 2^(n+2)")
    if r["h2_minus4p"] != 1 << m:
        problems.append(f"{d}: h2_minus4p = {r['h2_minus4p']} != 2^m")
    # Redei: 4 | h(-4p) exactly when p = 1 mod 8.
    if (kind == "Type4r") != (m == 1):
        problems.append(f"{d}: m = {m} contradicts p = {p % 8} mod 8")
    return problems


class CrosscheckFields(Workload):
    """`quadtower --format json crosscheck d` for one field d."""

    name = "crosscheck-fields"

    def __init__(self, seed: int):
        super().__init__(seed)
        pool = type4_fields(1, CROSSCHECK_LIMIT, spf_table(CROSSCHECK_LIMIT // 4 + 1))
        self.invariants = load_field_invariants()
        if {f.d for f in pool} != set(self.invariants):
            raise RuntimeError(f"{FIELDS_FILE.name} does not match the enumerated fields")
        self.by_d = {f.d: f for f in pool}
        strata = {}
        for f in pool:
            n, m = self.invariants[f.d]
            if n + m + 3 < HEAVY_ORDER_LOG2:
                strata.setdefault((f.kind, n + m), []).append(f.d)
        self.strata = [sorted(v) for _, v in sorted(strata.items())]

    def round(self) -> list[int]:
        picks = []
        step = 1 / CROSSCHECK_FRACTION
        for members in self.strata:
            # Systematic sample over the |d|-sorted stratum.
            at = self.rng.random() * step
            chosen = []
            while at < len(members):
                chosen.append(members[int(at)])
                at += step
            if chosen:
                picks.append(chosen)
        return _interleave(self.rng, picks)

    def warmup_input(self):
        return -2244

    def call(self, qt, d) -> Outcome:
        return run_cli(qt, ["--format", "json", "crosscheck", str(d)])

    def check(self, d, outcome: Outcome) -> list[str]:
        if outcome.rc != 0:
            return [f"{d}: exit code {outcome.rc}: {outcome.text[-200:]}"]
        try:
            doc = json.loads(outcome.text)
            res = doc["results"][0]
            checks = doc["checks"]
            cls = res["classification"]
            n, m = res["n"], res["m"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{d}: malformed output ({exc!r})"]
        problems = []
        failed = [c.get("name") for c in checks if c.get("passed") is not True]
        if not checks or failed:
            problems.append(f"{d}: checks failed {failed[:5]} of {len(checks)}")
        f = self.by_d[d]
        if (cls.get("d"), cls.get("kind"), cls.get("primes")) != (
            f.d, f.kind, [f.p, f.q, f.qprime]
        ):
            problems.append(f"{d}: classification {cls.get('kind')} {cls.get('primes')}")
        if (n, m) != self.invariants[d]:
            problems.append(f"{d}: (n, m) = ({n}, {m}), class numbers give "
                            f"{self.invariants[d]}")
        if d in PAPER_FIELDS and (n, m) != PAPER_FIELDS[d]:
            problems.append(f"{d}: (n, m) = ({n}, {m}), paper has {PAPER_FIELDS[d]}")
        if res.get("h2_k") != 1 << (n + 2) or res.get("h2_minus4p") != 1 << m:
            problems.append(f"{d}: 2-class numbers disagree with (n, m)")
        return problems


class FingerprintGroups(Workload):
    """`quadtower --format json group n m eps --report fingerprint`."""

    name = "fingerprint-groups"

    def round(self) -> list[tuple[int, int, int]]:
        strata = [
            [(n, s - n, eps) for n in range(1, s) for eps in (0, 1)]
            for s in FINGERPRINT_SUMS
        ]
        return _interleave(self.rng, strata)

    def warmup_input(self):
        return (2, 2, 1)

    def call(self, qt, x) -> Outcome:
        n, m, eps = x
        return run_cli(qt, ["--format", "json", "group", str(n), str(m), str(eps),
                            "--report", "fingerprint"])

    def check(self, x, outcome: Outcome) -> list[str]:
        n, m, eps = x
        if outcome.rc != 0:
            return [f"{x}: exit code {outcome.rc}: {outcome.text[-200:]}"]
        try:
            res = json.loads(outcome.text)["results"][0]
            fp = res["fingerprint"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{x}: malformed output ({exc!r})"]
        want = {
            "order": 1 << (n + m + 3),
            "abelianization": sorted([1 << n, 2, 2], reverse=True),
            "derived_type": sorted([1 << m, 2], reverse=True),
        }
        problems = []
        for key, value in want.items():
            for where in (res, fp):
                if where.get(key) != value:
                    problems.append(f"{x}: {key} = {where.get(key)}, want {value}")
        return problems


class Oracle(Workload):
    """verify.criterion_oracles(**ORACLE_LIMITS, seed=s) for a drawn seed s."""

    name = "oracle"

    def round(self) -> list[int]:
        return [self.rng.randrange(2**31)]

    def warmup_input(self):
        return 0

    def call(self, qt, s) -> Outcome:
        res = qt.verify.criterion_oracles(seed=s, **ORACLE_LIMITS)
        text = json.dumps(
            [[c.name, repr(c.expected), repr(c.computed), c.passed] for c in res.checks]
        )
        return Outcome(0, text, res)

    def check(self, s, outcome: Outcome) -> list[str]:
        res = outcome.value
        if res is None:
            return [f"seed {s}: {outcome.text[-200:]}"]
        problems = []
        if not res.passed or res.failures:
            problems.append(f"seed {s}: failures {[c.name for c in res.failures]}")
        if len(res.checks) != ORACLE_CHECKS:
            problems.append(f"seed {s}: {len(res.checks)} checks, want {ORACLE_CHECKS}")
        return problems


def make(name: str, seed: int) -> Workload:
    cls = {w.name: w for w in (ScanWindow, CrosscheckFields, FingerprintGroups, Oracle)}
    return cls[name](seed)

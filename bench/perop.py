"""Untraced per-operation loops for the layer numbers the ROADMAP tracks.

Each loop times one library function over seeded inputs with no wrappers
installed, repeats REPEATS times and reports the median time per operation.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 3


def _per_op(fn, items) -> float:
    """Median over REPEATS of the seconds per call of fn(*item)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for item in items:
            fn(*item)
        times.append((time.perf_counter() - start) / len(items))
    return statistics.median(times)


def _fundamental_near(qt, rng: random.Random, size: int) -> int:
    """A negative fundamental discriminant with |d| within 5% of size."""
    while True:
        d = -rng.randrange(size * 95 // 100, size * 105 // 100)
        if qt.arith.is_fundamental(d):
            return d


def measure(qt, seed: int) -> dict[str, float]:
    rng = random.Random(f"perop:{seed}")
    qf, arith, pgroup = qt.quadforms, qt.arith, qt.pgroup
    out = {}

    ints = [(rng.randrange(10**4, 10**6),) for _ in range(2000)]
    out["arith.factor.us_per_op"] = _per_op(arith.factor, ints) * 1e6
    pairs = [(rng.randrange(-10**6, 10**6), 2 * rng.randrange(1, 5 * 10**5) + 1)
             for _ in range(20000)]
    out["arith.kronecker.ns_per_op"] = _per_op(arith.kronecker, pairs) * 1e9

    d = _fundamental_near(qt, rng, 10**5)
    classes = qf.class_group(d).classes
    pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(3000)]
    out["quadforms.compose.us_per_op"] = _per_op(qf.compose, pairs) * 1e6
    # Unreduced forms: each class moved by a unimodular matrix with small
    # entries, [[x, y], [z, w]] with x w - y z = 1.
    forms = []
    while len(forms) < 3000:
        x, z = rng.randrange(1, 40), rng.randrange(-40, 41)
        g, u, v = _ext_gcd(x, z)
        if g != 1:
            continue
        # x u + z v = 1, so [[x, -v], [z, u]] has determinant 1.
        forms.append((rng.choice(classes).transform(x, -v, z, u),))
    out["quadforms.reduce_form.us_per_op"] = _per_op(qf.reduce_form, forms) * 1e6

    for size, label, reps in ((10**4, "d1e4", 10), (10**5, "d1e5", 3), (10**6, "d1e6", 1)):
        d = _fundamental_near(qt, rng, size)
        items = [(d,)] * reps
        out[f"quadforms.class_group.ms.{label}"] = _per_op(qf.class_group, items) * 1e3

    g = pgroup.gamma(2, 2, 1)
    els = g.elements()
    pairs = [(g, rng.choice(els), rng.choice(els)) for _ in range(20000)]
    out["pgroup.PGroup.mul.ns_per_op"] = _per_op(pgroup.PGroup.mul, pairs) * 1e9

    d = _fundamental_near(qt, rng, 10**4)
    characters = sorted(arith.prime_discriminants(d))
    items = [(d, c, f) for f in qf.class_group(d).classes for c in characters]
    out["genus.chi_eval.us_per_op"] = _per_op(qt.genus.chi_eval, items) * 1e6
    return out


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with a u + b v = g = gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        u0, u1 = u1, u0 - k * u1
        v0, v1 = v1, v0 - k * v1
    return a, u0, v0

"""Write fields.json: (n, m) for every crosscheck-fields input, computed
independently of quadtower.

n and m come from class numbers alone: h2(k) = 2^(n+2) for k = Q(sqrt(d)) and
h2(-4p) = 2^m, where h2 is the 2-part of the class number h.
workloads.class_number counts h(D) as the number of reduced forms of
discriminant D, which needs no composition and no group structure. The
crosscheck workload uses the table to stratify its draws by group order
2^(n+m+3) and to check every reported (n, m).

Run from the repository root (a few seconds):

    python3 bench/make_fields.py
"""

from __future__ import annotations

import json

from workloads import (
    CROSSCHECK_LIMIT, FIELDS_FILE, field_invariants, spf_table, type4_fields,
)


def main() -> None:
    spf = spf_table(CROSSCHECK_LIMIT // 3 + 1)
    rows = [[f.d, *field_invariants(f, spf)]
            for f in type4_fields(1, CROSSCHECK_LIMIT, spf)]
    doc = {"limit": CROSSCHECK_LIMIT, "columns": ["d", "n", "m"], "fields": rows}
    FIELDS_FILE.write_text(
        json.dumps(doc, separators=(",", ":")).replace("],[", "],\n[") + "\n"
    )
    print(f"wrote {len(rows)} fields to {FIELDS_FILE}")


if __name__ == "__main__":
    main()

"""Compare two records written by ``run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

Prints each metric of NEW as a ratio to BASE. Records of different
workloads or numeric backends are not compared: gmpy2 and the
``fractions.Fraction`` fallback differ by about 10x, so such a ratio
would measure the backend, not the change. A different Python version
or core count is printed as a warning.
"""

from __future__ import annotations

import json
import sys


class NotComparable(Exception):
    pass


def compare(base: dict, new: dict) -> list:
    """(metric, base value, new value, new / base) for the shared metrics."""
    for key in ("workload", "backend"):
        if base["stamp"].get(key) != new["stamp"].get(key):
            raise NotComparable(
                f"{key} differs: {base['stamp'].get(key)} vs {new['stamp'].get(key)}"
            )
    old_m, new_m = base["result"]["metrics"], new["result"]["metrics"]
    rows = []
    for name in sorted(set(old_m) & set(new_m)):
        a, b = old_m[name]["value"], new_m[name]["value"]
        rows.append((name, a, b, b / a if a else None))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    try:
        rows = compare(base, new)
    except NotComparable as exc:
        print(f"not compared: {exc}")
        return 2
    for key in ("python", "nproc"):
        if base["stamp"].get(key) != new["stamp"].get(key):
            print(f"warning: {key} differs: {base['stamp'].get(key)} vs {new['stamp'].get(key)}")
    for name, a, b, ratio in rows:
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"{name:45s} {a:14.6g} {b:14.6g}  x{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

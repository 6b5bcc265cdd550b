#!/usr/bin/env python3
"""Compare two BENCH JSON documents (ipl_cli bench --json) outside wall_clock.

Everything in a bench document except its wall_clock section (host
timings, job count, cache counters) is a pure function of the workload
spec, so two runs of the same spec must agree on it exactly. Stdlib only.

Prints one line per differing key path, e.g.
    backends[0].flash.elapsed: 1.1097 != 1.1098
    concurrency.per_session: missing in B

Usage: bench_diff.py A.json B.json
Exits 0 when the documents agree outside wall_clock, 1 otherwise.
"""

import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc.pop("wall_clock", None)
    return doc


def same_leaf(a, b):
    # JSON true and 1 are different values; Python's == says otherwise.
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            where = f"{path}.{k}" if path else k
            if k not in b:
                out.append(f"{where}: missing in B")
            elif k not in a:
                out.append(f"{where}: missing in A")
            else:
                diff(a[k], b[k], where, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif not same_leaf(a, b):
        out.append(f"{path or '<root>'}: {json.dumps(a)} != {json.dumps(b)}")


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} A.json B.json")
    out = []
    diff(load(argv[1]), load(argv[2]), "", out)
    for line in out:
        print(line)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare two source checkouts on the repository benchmark in alternating pairs.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        [--seeds 1 424242] [--pairs 6] [--seconds 20]

For each seed the script runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0` in both checkouts, PAIRS times, swapping
which side goes first from one pair to the next so that drift in the
host's speed falls on both sides alike. It then prints, for each host
metric, the median and quartiles of each side, the ratio of the medians
(change / parent) and the number of pairs the change won.

Simulated metrics and the logical digest depend only on the seed and the
code, so each side must repeat its own first run of a seed exactly. The
script exits with status 1 if a run differs from its side's first run of
the seed, or if any run fails or does not report `correct: true` with no
failed operations; otherwise 0. A change may move simulated metrics on
purpose: the keys that differ between the two sides are printed once per
seed, as information, and do not fail the comparison.

Host metrics are divided (for setup_s, multiplied) by perfbench's speed
gauge, whose loop runs faster or slower with the alignment of its code.
After the table the script prints, for each side, the address of the
gauge's loop (`Pace.sum` in `nm _build/default/perfbench/main.exe`) mod
64, and a warning when the two sides differ: their host metrics are then
not comparable.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# Host metrics, with the direction that is better. Every other metric
# the benchmark prints is simulated.
HOST = {"setup_s": "lower", "host_tps": "higher", "alloc_kw_per_txn": "lower", "heap_peak_mb": "lower"}

DIGEST = re.compile(r"perfbench: logical digest ([0-9a-f]+)")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: (metrics {name: value}, digest)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed in {checkout} (status {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"perf_pairs: incorrect run in {checkout}: {lines[-1]}")
    digests = DIGEST.findall(proc.stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, (digests[-1] if digests else None)


GAUGE = re.compile(r"^([0-9a-f]+) [Tt] \S*Pace\.sum_\d+$")


def gauge_address(checkout):
    """Address of perfbench's gauge loop in the checkout's built executable, or None."""
    exe = os.path.join(checkout, "_build", "default", "perfbench", "main.exe")
    try:
        out = subprocess.run(["nm", exe], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    for line in out.splitlines():
        m = GAUGE.match(line)
        if m:
            return int(m.group(1), 16)
    return None


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=["oltp-sessions", "read-mostly", "tpcc"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--pairs", type=int, default=6, help="pairs per seed")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    host = {side: {k: [] for k in HOST} for side in sides}
    won = {k: 0 for k in HOST}
    mismatches = []
    pairs = 0
    reference = {}  # (seed, side) -> (simulated metrics, digest) of its first run
    for seed in args.seeds:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                metrics, digest = run_once(sides[side], args.workload, seed, args.seconds)
                simulated = ({k: v for k, v in metrics.items() if k not in HOST}, digest)
                first = reference.setdefault((seed, side), simulated)
                if simulated != first:
                    mismatches.append((seed, i, side, simulated, first))
                got[side] = metrics
                for k in HOST:
                    host[side][k].append(metrics[k])
            pairs += 1
            for k, better in HOST.items():
                p, c = got["parent"][k], got["change"][k]
                if (c > p) if better == "higher" else (c < p):
                    won[k] += 1
            print(
                f"seed {seed} pair {i + 1} ({order[0]} first): host_tps "
                f"{got['parent']['host_tps']:.1f} -> {got['change']['host_tps']:.1f}",
                file=sys.stderr,
            )

    print(f"workload {args.workload}, seeds {args.seeds}, {pairs} pairs of {args.seconds} s runs")
    print(f"{'metric':<18} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} {'ratio':>7} {'won':>7}")
    for k in HOST:
        cells = []
        for side in sides:
            m, q1, q3 = spread(host[side][k])
            cells.append(f"{m:.4g} [{q1:.4g}, {q3:.4g}]")
        pm, cm = statistics.median(host["parent"][k]), statistics.median(host["change"][k])
        ratio = f"{cm / pm:.3f}x" if pm else "n/a"
        print(f"{k:<18} {cells[0]:<34} {cells[1]:<34} {ratio:>7} {won[k]:>3}/{pairs}")
    align = {}
    for side in sides:
        addr = gauge_address(sides[side])
        align[side] = None if addr is None else addr % 64
        where = "not found" if addr is None else f"{addr:#x}, {addr % 64} mod 64"
        print(f"gauge Pace.sum, {side}: {where}")
    if align["parent"] != align["change"]:
        print(
            "WARNING: the gauge's alignment differs between the sides, so their "
            "host_tps and setup_s are not comparable"
        )
    for seed in args.seeds:
        (p_sim, p_digest), (c_sim, c_digest) = reference[(seed, "parent")], reference[(seed, "change")]
        moved = sorted(k for k in set(p_sim) | set(c_sim) if p_sim.get(k) != c_sim.get(k))
        for k in moved:
            print(f"seed {seed}: {k} {p_sim.get(k)!r} -> {c_sim.get(k)!r} (change moves it)")
        if p_digest != c_digest:
            print(f"seed {seed}: logical digest {p_digest} -> {c_digest} (change moves it)")
    if mismatches:
        for seed, i, side, (sim, digest), (ref_sim, ref_digest) in mismatches:
            diff = sorted(k for k in set(sim) | set(ref_sim) if sim.get(k) != ref_sim.get(k))
            if digest != ref_digest:
                diff.append(f"digest {digest} != {ref_digest}")
            print(f"MISMATCH seed {seed} pair {i + 1} {side}: {', '.join(diff)}")
        return 1
    print("simulated metrics and logical digests: each side identical in every run")
    for seed in args.seeds:
        print(f"seed {seed}: logical digest {reference[(seed, 'change')][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate the shape of BENCH_ipl.json (ipl_cli bench --json).

Structural check, stdlib only: the top-level sections CI depends on must
be present with the right types, every backend must carry flash stats,
the IPL backend's storage stats must include the full counter set, the
concurrency section must be mode-tagged
("serial" carries only the fields that are meaningful without sessions;
"sessions" carries the batch accounting plus commit_latency percentiles
and a per_session breakdown), wall_clock must record the jobs the run
used, and — when the document was produced with --restart — the restart
section must carry per-spec points, each with first_txn_s (restart, then
the first transaction), log_reads_before_first_txn (which must be 0: a
restart reads no in-page log sector) and digest_match (which must hold:
the recovered content equals what the run committed).

Usage: check_bench_schema.py BENCH_ipl.json
Exits non-zero on the first violation.
"""

import json
import sys


def fail(msg):
    sys.exit(f"bench schema violation: {msg}")


def need(obj, key, ty, where):
    if not isinstance(obj, dict) or key not in obj:
        fail(f"{where}: missing key {key!r}")
    v = obj[key]
    ok = isinstance(v, ty)
    if ty is int:
        ok = ok and not isinstance(v, bool)
    if not ok:
        fail(f"{where}.{key}: expected {ty.__name__}, got {type(v).__name__}")
    return v


NUMBER = (int, float)

STORAGE_COUNTERS = [
    "pages_allocated",
    "page_reads",
    "log_sector_writes",
    "overflow_sector_writes",
    "log_sector_reads",
    "merges",
    "overflow_diversions",
    "records_applied_at_merge",
    "records_dropped_aborted",
    "records_carried_over",
    "erase_units_reclaimed",
    "log_cache_hits",
    "log_cache_misses",
    "log_cache_evictions",
]

RESTART_POINT_KEYS = {
    "name": str,
    "pages": int,
    "transactions": int,
    "first_txn_s": NUMBER,
    "log_reads_before_first_txn": int,
    "digest_match": bool,
}


LATENCY_KEYS = ["count", "mean_s", "p50_s", "p90_s", "p99_s"]


def check_latency(obj, where):
    need(obj, "count", int, where)
    for key in LATENCY_KEYS[1:]:
        need(obj, key, NUMBER, where)


def check_concurrency(conc):
    mode = need(conc, "mode", str, "concurrency")
    need(conc, "sessions", int, "concurrency")
    need(conc, "committed", int, "concurrency")
    need(conc, "aborted", int, "concurrency")
    if mode == "serial":
        if conc["sessions"] != 0:
            fail("concurrency: mode 'serial' with sessions != 0")
        # Batch/throughput fields would be bookkeeping artifacts on the
        # serial path; their presence means the mode tag is lying.
        for key in ("commit_batches", "throughput_tps", "commit_latency", "per_session"):
            if key in conc:
                fail(f"concurrency.{key}: present in serial mode")
    elif mode == "sessions":
        if conc["sessions"] <= 0:
            fail("concurrency: mode 'sessions' with sessions <= 0")
        for key in ("conflict_aborts", "conflicts", "commit_batches",
                    "batched_commits", "max_commit_batch"):
            need(conc, key, int, "concurrency")
        need(conc, "throughput_tps", NUMBER, "concurrency")
        check_latency(need(conc, "commit_latency", dict, "concurrency"),
                      "concurrency.commit_latency")
        per_session = need(conc, "per_session", list, "concurrency")
        if len(per_session) != conc["sessions"]:
            fail(f"concurrency.per_session: {len(per_session)} entries "
                 f"for {conc['sessions']} sessions")
        for i, s in enumerate(per_session):
            where = f"concurrency.per_session[{i}]"
            need(s, "session", int, where)
            need(s, "commits", int, where)
            check_latency(s, where)
    else:
        fail(f"concurrency.mode: unknown mode {mode!r}")


def check_restart(restart):
    specs = need(restart, "specs", list, "restart")
    if not specs:
        fail("restart.specs: empty")
    for i, p in enumerate(specs):
        where = f"restart.specs[{i}]"
        for key, ty in RESTART_POINT_KEYS.items():
            need(p, key, ty, where)
        if p["log_reads_before_first_txn"] != 0:
            fail(f"{where}: the restart read in-page log sectors")
        if not p["digest_match"]:
            fail(f"{where}: digest_match is false — recovery diverged")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    need(doc, "schema", str, "$")
    need(doc, "workload", dict, "$")
    need(doc, "logical_digest", str, "$")
    need(doc, "device", dict, "$")
    wall_clock = need(doc, "wall_clock", dict, "$")
    jobs = need(wall_clock, "jobs", int, "wall_clock")
    if jobs < 1:
        fail(f"wall_clock.jobs: {jobs} < 1")
    check_concurrency(need(doc, "concurrency", dict, "$"))
    backends = need(doc, "backends", list, "$")

    ipl = None
    for i, b in enumerate(backends):
        name = need(b, "name", str, f"backends[{i}]")
        need(b, "flash", dict, f"backends[{i}]")
        if name == "ipl":
            ipl = b
    if ipl is None:
        fail("backends: no entry named 'ipl'")
    storage = need(ipl, "storage", dict, "backends[ipl]")
    for key in STORAGE_COUNTERS:
        need(storage, key, int, "backends[ipl].storage")

    if "restart" in doc:
        check_restart(need(doc, "restart", dict, "$"))

    print(f"{sys.argv[1]}: bench schema OK"
          + (" (with restart section)" if "restart" in doc else ""))


if __name__ == "__main__":
    main()

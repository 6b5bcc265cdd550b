(** Instrumented end-to-end benchmark behind [ipl_cli bench --json],
    [ipl_cli observe] and the BENCH_ipl.json artifact.

    Runs one deterministic OLTP-style workload on the real IPL engine
    with a tracer and latency metrics installed, then replays the
    physical page traffic the run generated (buffer-pool write-backs as
    page writes, storage-level fetches as page reads) on the two conventional
    designs — {!Baseline.Lfs_store} and {!Baseline.Inplace_store} — under
    identical chip geometry. Latency histograms use the chip's simulated
    clock, so they are machine-independent and reproducible from the
    seed; the [wall_clock] section additionally reports real host time
    per phase (monotonic {!Ipl_util.Clock} nanoseconds) together with
    the log-record cache hit/miss/eviction counters that explain it.

    The workload's logical outcome — every point-read result plus the
    commit/abort tally — is folded into a CRC-32 [logical_digest]: runs
    of the same spec on different device geometries (channels/ways) must
    produce the same digest, and only the simulated timing may differ. *)

type spec = {
  seed : int;
  transactions : int;  (** transactions after the setup phase *)
  pages : int;  (** data pages allocated up front *)
  slots_per_page : int;  (** records seeded per page *)
  payload : int;  (** record payload, bytes *)
  abort_fraction : float;
  reads_per_txn : int;
      (** random point reads issued after each transaction — the
          read-heavy traffic the log-record cache serves *)
  buffer_pages : int;  (** pool capacity; small values force evictions *)
  compact_every : int;  (** background-merge period in transactions; 0 = never *)
  num_blocks : int;  (** chip size, erase blocks (same for every backend) *)
  spare_blocks : int;
      (** the IPL engine's spare pool, in blocks (0, the default: an
          empty pool). The [resilience] section of its backend stats
          reports retries/remaps/scrubs (all zero on a fault-free run);
          a fault-free run's simulated time, digest and stats are the
          same for every pool size but for [spares_left] *)
  log_cache_bytes : int;
      (** DRAM log-record cache budget for the IPL engine (0 disables);
          defaults to {!Ipl_core.Ipl_config.default}'s budget *)
  channels : int;
      (** flash channels of the IPL engine's device; 1 (default) is the
          serial chip. The baseline replays always run on a serial chip —
          the comparison isolates what parallelism buys the IPL design *)
  ways : int;  (** chips per channel *)
  sessions : int;
      (** 0 (default): the single-threaded serial engine loop. n > 0: the
          same pre-drawn transaction plans are multiplexed over n MVCC
          client sessions ({!Ipl_txn.Session}) with group commit — one
          session reproduces the serial order (and logical digest)
          exactly; more sessions coalesce commits into batches and make
          write-write conflicts possible *)
}

val default : spec
val quick : spec
(** [default] with fewer transactions, for CI smoke runs. *)

type concurrency = {
  sessions : int;  (** as configured; 0 on a serial run *)
  committed : int;
  aborted : int;  (** voluntary aborts (the plan said so) *)
  conflict_aborts : int;  (** transactions doomed by write-write conflicts *)
  conflicts : int;  (** conflicts detected (dooming events) *)
  commit_batches : int;  (** durability barriers issued for commits *)
  batched_commits : int;  (** commits those barriers settled *)
  max_commit_batch : int;
  throughput_tps : float;  (** committed txns per simulated second *)
  per_session : Ipl_txn.Session.session_stats list;
      (** per-client commit counts and begin->durable commit latencies
          (simulated seconds); empty on a serial run *)
}
(** Group-commit and conflict accounting of the workload phase. A serial
    run reports one barrier per commit and no conflicts; a session run
    reports the {!Ipl_txn.Mvcc} batch counters — mean batch size
    [batched_commits / commit_batches] is the group-commit win.

    The JSON [concurrency] section is mode-tagged: a serial run emits
    [{mode = "serial"; sessions = 0; committed; aborted}] only (batch and
    throughput fields would be bookkeeping artifacts there), while a
    session run emits [mode = "sessions"] with the full accounting plus
    [commit_latency] (count/mean/p50/p90/p99, simulated seconds) and a
    [per_session] list of the same shape per client. *)

type t = {
  spec : spec;
  engine : Ipl_core.Ipl_engine.t;  (** the engine after the run, for inspection *)
  tracer : Obs.Tracer.t;  (** full event trace of the IPL run *)
  metrics : Obs.Metrics.t;  (** per-operation latency histograms and counters *)
  concurrency : concurrency;
  json : Ipl_util.Json.t;  (** the BENCH_ipl.json document *)
}

val schema_version : string
(** ["ipl-bench/1"] — the [schema] field of the JSON document. *)

val run : ?spec:spec -> ?jobs:int -> unit -> t
(** Run the workload and both conventional replays; never raises on a
    well-formed spec. The resulting [json] is
    [{schema; workload; trace; wall_clock; concurrency;
    backends = [ipl; lfs; inplace]}] where each backend carries [ops]
    latency histograms plus its layer stats (IPL: storage/pool/flash with
    merge, overflow and wear counters), [wall_clock] holds host-time
    phase timings plus the log-record cache and commit-batch /
    conflict-abort counters, and [concurrency] mirrors {!concurrency}.

    [jobs] (default 1: fully serial, no domains) runs the two baseline
    replays on a {!Par.Domain_pool} while the IPL run holds the main
    domain. Every section of the
    document except [wall_clock] — which records [jobs] and host times
    by design — is byte-identical for every job count. *)

val write_json : ?extra:(string * Ipl_util.Json.t) list -> string -> t -> unit
(** [write_json path t] writes [t.json] (compact, newline-terminated).
    [extra] fields, if any, are appended to the top-level object — used
    by [ipl_cli bench --restart] to attach the {!Restart_bench} section
    without disturbing the schema-stable core document. *)

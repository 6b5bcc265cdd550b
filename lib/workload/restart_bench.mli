(** Availability benchmark: time-to-first-transaction after a crash,
    with the restart's repairs deferred to first touch or settled first.

    For each database size, a deterministic update stream is stopped
    mid-flight (no checkpoint call, no quiesce) — twice, producing two
    bit-identical crashed flash states. Both are reopened the same way:
    the restart reads the system log and no in-page log sector. The
    {e eager} engine then settles every repair with
    {!Ipl_core.Ipl_engine.drain_repairs}, reading every unit's whole
    log, before one ordinary transaction; the {e lazy} engine runs that
    transaction straight away, reading the logs it touches. The span
    from restart to the transaction's commit barrier, on the simulated
    device clock, is the availability metric. The lazy engine is then
    fully drained and its logical content digest-compared against the
    eager one. *)

type spec = {
  name : string;
  pages : int;
  transactions : int;
  seed : int;
  num_blocks : int;
}

type point = {
  name : string;
  pages : int;
  transactions : int;
  eager_s : float;
      (** simulated seconds, restart → full repair drain → first commit *)
  lazy_s : float;  (** simulated seconds, restart → first commit *)
  eager_restart_log_reads : int;
      (** log sectors read by the restart plus the full drain *)
  lazy_restart_log_reads : int;
      (** log sectors read by the restart itself: 0, since it reads only
          the system log *)
  repair_pending : int;  (** units left to first-touch repair *)
  warm_entries : int;  (** cache entries installed by repair, after drain *)
  digest_match : bool;
      (** recovered logical content identical eager vs lazy (must hold) *)
}

val run : ?jobs:int -> unit -> point list
(** One {!point} per {!specs} entry, in order. [jobs] (default 1: serial,
    no domains) sweeps the size points on a {!Par.Domain_pool}; every
    measurement is simulated-clock, so the points are identical for any
    job count. *)

val to_json : point list -> Ipl_util.Json.t
(** The [restart] section of BENCH_ipl.json: per-spec points under
    ["specs"], plus ["time_to_first_txn"] with the largest spec's
    [eager_s]/[lazy_s] headline numbers. *)

val pp : Format.formatter -> point list -> unit

(** Availability benchmark: time to the first committed transaction
    after a crash.

    For each database size, a deterministic update stream is stopped
    mid-flight (no checkpoint call, no quiesce), the engine is restarted
    from the crashed flash state and runs one ordinary transaction. The
    span from restart to that transaction's commit barrier, on the
    simulated device clock, is the availability metric. The restart
    reads the system log and no in-page log sector, and owes nothing
    afterwards; the recovered content is then compared with what the
    stream committed. *)

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
  first_txn_s : float;  (** simulated seconds, restart → first commit *)
  log_reads_before_first_txn : int;
      (** in-page log sectors read by the restart: 0, since it reads only
          the system log *)
  digest_match : bool;
      (** after the first transaction, every page's content equals what
          the stream committed, with that transaction's update (must
          hold) *)
}

val run : ?jobs:int -> unit -> point list
(** One {!point} per {!specs} entry, in order. [jobs] (default 1: serial,
    no domains) sweeps the size points on a {!Par.Domain_pool}; every
    measurement is simulated-clock, so the points are identical for any
    job count. *)

val to_json : point list -> Ipl_util.Json.t
(** The [restart] section of BENCH_ipl.json: per-spec points under
    ["specs"]. *)

val pp : Format.formatter -> point list -> unit

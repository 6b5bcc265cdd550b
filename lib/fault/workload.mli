(** Deterministic transactional workload for the crash campaign.

    The same [spec] always produces the same stream of engine calls —
    and therefore the same stream of flash operations — which is what
    lets {!Campaign} count operations once and then crash at each index. *)

type spec = {
  seed : int;
  transactions : int;
  pages : int;
  slots_per_page : int;  (** records pre-loaded per page during setup *)
  payload : int;  (** record size in bytes *)
  abort_fraction : float;
}

val default : spec

val max_slots : spec -> int
(** Upper bound on slot numbers the run can create; the oracle's sweep
    range. *)

val setup : Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> int array
(** Allocate the pages, load the initial records (mirrored into the
    oracle as already-committed), commit and checkpoint. Returns the page
    ids the run will use. *)

val run : Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> pages:int array -> unit
(** Execute the transaction mix, mirroring every successful engine call
    into the oracle. Raises whatever the engine raises — under a fault
    plan, typically {!Flash_sim.Flash_chip.Power_loss}. *)

type resilient_outcome = {
  committed : int;
  aborted : int;  (** includes transactions aborted by device errors *)
  degraded_at : int option;  (** 1-based transaction index, if degraded *)
  read_failures : int;  (** transactions lost to [Read_failed] *)
}

type concurrent_outcome = {
  committed_txns : int;
  aborted_txns : int;  (** voluntary aborts plus conflict-doomed rollbacks *)
  conflicts : int;  (** write-write conflicts detected by the MVCC layer *)
}

val setup_concurrent : Ipl_core.Ipl_engine.t -> Concurrent_oracle.t -> spec -> int array
(** {!setup}, mirroring into the concurrent-history oracle instead. *)

val run_concurrent :
  Ipl_core.Ipl_engine.t ->
  Concurrent_oracle.t ->
  spec ->
  sessions:int ->
  pages:int array ->
  concurrent_outcome
(** The same transaction mix interleaved round-robin over [sessions]
    concurrent {!Ipl_txn.Mvcc} transactions with a group-commit window of
    [sessions]. Deterministic for a fixed [(spec, sessions)], so the
    crash campaign can count flash operations once and crash each re-run
    at a chosen index. Every successful MVCC write is mirrored into the
    oracle; the durable watermark follows the group barriers. Raises
    whatever the engine raises — under a fault plan, typically
    {!Flash_sim.Flash_chip.Power_loss}. *)

val run_resilient :
  Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> pages:int array -> resilient_outcome
(** The same mix through the exception-free entry points
    ([Ipl_engine.commit] etc.), for campaigns that inject device
    failures rather than crashes: a transaction hitting
    [Device_degraded]/[Read_failed] is aborted (mirrored into the
    oracle), and degradation ends the run. {!Flash_sim.Flash_chip.Power_loss}
    still escapes, for plans that also crash the chip. *)

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

val setup :
  Ipl_core.Ipl_engine.t -> (page:int -> slot:int -> bytes -> unit) -> spec -> int array
(** [setup engine record spec] allocates the pages, loads the initial
    records (each passed to [record] — {!Oracle.seed} — as already
    committed), commits and checkpoints. Returns the page ids the run
    will use. *)

val plans : spec -> pages:int array -> Ipl_txn.Session.plan array
(** The transaction mix pre-drawn for {!Ipl_txn.Session.run}: the serial
    mix's draws, except that an update's usual length is the payload
    rather than the live record's, and no plan reads. Deterministic for
    a fixed [spec], so the crash campaign can count flash operations
    once and crash each re-run at a chosen index. *)

type resilient_outcome = {
  committed : int;
  aborted : int;  (** includes transactions aborted by device errors *)
  degraded_at : int option;  (** 1-based transaction index, if degraded *)
  read_failures : int;  (** transactions lost to [Read_failed] or a failed commit *)
}

val run_resilient :
  Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> pages:int array -> resilient_outcome
(** Execute the transaction mix through the exception-free entry points
    ([Ipl_engine.commit] etc.), reporting its history to the oracle with
    the durable watermark raised at every returned commit. A transaction
    hitting [Device_degraded]/[Read_failed] (or a failed commit) is
    aborted, and degradation ends the run; a fault-free run that reports
    either is a harness bug. {!Flash_sim.Flash_chip.Power_loss} escapes —
    under a crash plan, that is how the run ends. *)

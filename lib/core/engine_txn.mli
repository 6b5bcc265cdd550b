(** Transactions and the commit protocol of {!Ipl_engine}: the raising
    implementations its result-returning entry points wrap. *)

open Engine_state

val begin_txn : t -> int

val flush_commits : t -> unit
(** Make every batched commit durable (see {!Ipl_engine.flush_commits}). *)

val commit : t -> int -> unit
(** See {!Ipl_engine.commit}. *)

val abort : t -> int -> unit
(** Log the abort, then rebuild every buffered page the transaction
    touched from flash (its records now filtered out) with the other
    transactions' buffered records replayed on top. Raises
    [Log_record.Replay_failed] if one of those no longer applies. *)

val checkpoint : t -> unit
(** See {!Ipl_engine.checkpoint}. *)

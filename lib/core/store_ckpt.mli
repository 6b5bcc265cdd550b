(** Fuzzy checkpoints and lazy restart for {!Ipl_storage}: coverage
    events, their fold at restart, the per-unit restart rescan, and the
    repair table. *)

open Store_state

val emit_checkpoint : t -> active:int list -> unit
(** See {!Ipl_storage.emit_checkpoint}. *)

val snapshot : t -> Meta_log.event list
(** The newest checkpoint, re-emitted from the current coverage under
    its footer, for a compaction snapshot; nothing during a merge, with
    fuzzy checkpoints off, or before the first checkpoint. *)

val reassert : t -> unit
(** Log the newest checkpoint's coverage again from the current state,
    after a merge voided the merged unit's. *)

type coverage

val coverage : Meta_log.event list -> coverage * int list option
(** The checkpoint of the system log's events: per-unit coverage,
    voided by later merges and overflow releases, and the last footer's
    active transactions. Every decoded footer is promoted. *)

val rescan : t -> coverage -> eu_info -> unit
(** Restart: rebuild a unit's log usage and record counts, reading only
    the log its coverage does not vouch for, and file what first touch
    still owes in the repair table. *)

val repair_eu_if_pending : t -> eu_info -> unit
(** Pay off a unit's restart debt before its log is touched. *)

val repair_pending : t -> int
val repair_step : t -> max_eus:int -> int

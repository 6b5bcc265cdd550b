(** First-touch repair for {!Ipl_storage}: the restart's repair set,
    paid off unit by unit at first touch or by the background drainer. *)

open Store_state

val repair_eu_if_pending : t -> eu_info -> unit
(** If a restart has not read the unit's log yet, read it now (through
    the log-record cache's miss path) and rebuild the unit's record
    counts from it. *)

val repair_pending : t -> int
val repair_step : t -> max_eus:int -> int

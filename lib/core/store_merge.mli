(** Merges (Algorithms 1 and 3), for {!Ipl_storage}. *)

open Store_state

val active_fraction : t -> eu_info -> pending:Log_record.t list -> float
(** The share of a unit's stored and [pending] records whose
    transactions are still active: Algorithm 3's carry fraction. The
    stored records are read through the log-record cache
    ({!Store_state.read_eu_log_records}). *)

val merge : t -> (eu_info * Log_record.t list) list -> unit
(** The one merge, over one unit or a pair, each given with its pending
    records: rewrite each unit into a fresh one with its committed
    records (and pending ones) applied, carrying active records over and
    dropping aborted ones. A pair's pages are re-split by heat (records
    in the unit's log plus pending): the first unit's new block takes as
    many of the hottest as it held, ties staying put. Atomic at the
    system-log force that publishes the one [Merge] event. *)

val pair_trades : int array -> (int * int) list
(** See {!Ipl_storage.pair_trades}. *)

val merge_due : t -> eu_info -> pending:Log_record.t list -> bool
(** The one merge rule: the unit's in-region log has no free sector and
    {!active_fraction} (with [pending]) is at most tau. The write path
    merges a due unit and diverts to overflow otherwise; background
    merging takes only due units. *)

val merge_due_units : t -> max_merges:int -> int
(** See {!Ipl_storage.merge_due_units}. *)

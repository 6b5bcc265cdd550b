(** Merges (Algorithms 1 and 3), for {!Ipl_storage}. *)

open Store_state

val merge : t -> (eu_info * Log_record.t list) list -> unit
(** The one merge, over one unit or a pair, each given with all its
    records: its stored ones ({!merge_due} returns them), then its
    pending ones. Rewrites each unit into a fresh one with its committed
    records applied, carrying active records over and dropping aborted
    ones. The fresh unit's images lie end to end from its first sector,
    in slot order, and its log starts where the layout rule puts it
    ({!Store_state.log_base}); the carried records fill the log from
    there and spill to overflow past its end. A pair's pages are re-split
    by heat (records in the unit's log plus pending): the first unit's
    new block takes as many of the hottest as it held, ties staying put.
    Atomic at the system-log force that publishes the one [Merge]
    event. *)

val pair_trades : int array -> (int * int) list
(** See {!Ipl_storage.pair_trades}. *)

val merge_due : t -> eu_info -> pending:Log_record.t list -> Log_record.t list Lazy.t option
(** The one merge rule: the unit's log has no free sector (its own
    capacity, {!Store_state.log_capacity}) and at most a tau share of
    its stored and [pending] records belong to active transactions.
    When it holds, the unit's stored records, in application order, for
    its {!merge}: the rule reads the log once, through the log-record
    cache, and a cache hit counts in place and takes the records only
    when they are forced. The write path ({!Ipl_storage.flush}) asks it
    for a sector that meets a full log and for each later unit of the
    batch it weighs as a pair partner, merges a due unit (with the first
    due partner, if any) and diverts to overflow otherwise; background
    merging takes only due units. *)

val merge_due_units : t -> max_merges:int -> int
(** See {!Ipl_storage.merge_due_units}. *)

(** Merges (Algorithms 1 and 3) and the overflow log area, for
    {!Ipl_storage}. *)

open Store_state

val overflow_write : ?cls:Dev.op_class -> t -> eu_info -> bytes -> unit
(** Program one log sector image of a unit into the current overflow
    area (allocating a fresh one when it is full) and assign it to the
    unit. *)

val active_fraction : t -> eu_info -> pending:Log_record.t list -> float
(** The share of a unit's stored and [pending] records whose
    transactions are still active: Algorithm 3's carry fraction. *)

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
    merging takes only due units. A unit whose log a restart has not
    read yet is repaired before its fraction is taken. *)

val merge_due_units : t -> max_merges:int -> int
(** See {!Ipl_storage.merge_due_units}. *)

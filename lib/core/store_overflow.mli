(** The overflow log area (Algorithm 3), for {!Ipl_storage} and
    {!Store_merge}. *)

open Store_state

val write : ?cls:Dev.op_class -> t -> eu_info -> bytes -> unit
(** Program one log sector image of a unit into the current overflow
    area (allocating a fresh one when it is full) and assign it to the
    unit. [cls] defaults to [Log_flush]. *)

val release : t -> eu_info -> unit
(** Invalidate a merged unit's overflow sectors, then log and apply the
    release. *)

val reattach : t -> eu_info -> int list -> unit
(** Undo an in-merge {!release}: give the unit back its sectors (as
    [overflow_rev] held them before) and their live counts. *)

val gc : t -> unit
(** Reclaim every overflow area with no live sector left. *)

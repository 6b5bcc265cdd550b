(** Record operations of {!Ipl_engine} and its update-logging policy:
    each changes the page in its buffer-pool frame and logs the change in
    the frame's in-memory log. These raise device exceptions;
    {!Ipl_engine} wraps them. *)

open Engine_state

val max_record_payload : t -> int
(** See {!Ipl_engine.max_record_payload}. *)

val insert : t -> tx:int -> page:int -> bytes -> (int, error) result
(** The caller has checked the payload against {!max_record_payload}. *)

val delete : t -> tx:int -> page:int -> slot:int -> (unit, error) result

val update : t -> tx:int -> page:int -> slot:int -> bytes -> (unit, error) result
(** See {!Ipl_engine.update} for how each kind of replacement is
    logged. *)

val update_range :
  t -> tx:int -> page:int -> slot:int -> offset:int -> bytes -> (unit, error) result

(** Physiological log records.

    A record names a page and a slot (the physical half) and describes a
    logical change to that slot. Records carry enough before-image to be
    de-applied, which the Section 5 recovery design needs for rolling back
    an aborting transaction's in-memory changes. *)

type op =
  | Insert of { slot : int; record : bytes }
  | Delete of { slot : int; before : bytes }
  | Update_range of { slot : int; offset : int; before : bytes; after : bytes }
      (** in-place overwrite of a byte range of the record payload;
          [before] and [after] have equal length *)
  | Update_full of { slot : int; before : bytes; after : bytes }
      (** full-record replacement (sizes may differ) *)

type t = { txid : int; page : int; op : op }
(** [txid] 0 means "not transactional" (always treated as committed). *)

val encoded_size : t -> int

val encode : Buffer.t -> t -> unit
val decode : bytes -> pos:int -> t * int
(** [decode b ~pos] returns the record and the position just past it.
    Raises [Invalid_argument] on malformed input. *)

val apply : Storage.Page.t -> t -> (unit, string) result
(** Replay the change against (an older version of) the page. *)

val unapply : Storage.Page.t -> t -> (unit, string) result
(** Reverse the change (the page must reflect the record's after-state). *)

val pp : Format.formatter -> t -> unit

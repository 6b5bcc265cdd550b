(** Physiological log records.

    A record names a page and a slot (the physical half) and describes a
    logical change to that slot. Delete and update records also carry the
    before-image, part of the on-flash format, but nothing rolls a page
    back with it: an aborting transaction's buffered pages are rebuilt by
    replay — the stored image, the live flash records (the aborted
    transaction's are skipped) and the other transactions' in-memory
    records — and {!unapply} is exercised only by tests. *)

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
(** Reverse the change from its before-image (the page must reflect the
    record's after-state). No engine path calls it; see the header. *)

val pp : Format.formatter -> t -> unit

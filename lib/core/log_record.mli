(** Physiological log records.

    A record names a page and a slot (the physical half) and describes a
    logical change to that slot. Delete and update records also carry the
    before-image, part of the on-flash format, but nothing rolls a page
    back with it: a page is only ever computed forwards, as its stored
    image with its live records replayed in order ({!replay}). That one
    rule serves the read path, a merge's rewrite, an abort's rebuild of
    the pages it touched and a restart. *)

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

val apply : Storage.Page.t -> t -> (unit, Storage.Page.error) result
(** Replay the change against (an older version of) the page. *)

type replay_failure = { record : t; error : Storage.Page.error }
(** A record that did not apply during {!replay}: the record names the
    page, the transaction and the slot ({!slot}); [error] is why the
    page refused it. *)

exception Replay_failed of replay_failure

val replay : Storage.Page.t -> t list -> unit
(** Apply the records to the page in list order: the one place a page is
    computed from an image and records. Raises {!Replay_failed} at the
    first record that does not apply, with the records before it already
    applied. *)

val slot : t -> int
(** The slot the record changes. *)

val pp : Format.formatter -> t -> unit

val pp_replay_failure : Format.formatter -> replay_failure -> unit
(** ["log replay failed (page full) on {tx=3 page=0 slot=78 insert 93B}"]. *)

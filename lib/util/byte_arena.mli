(** Append-mostly arena for millions of small byte strings.

    Storing each row of a gigabyte-scale table as its own [bytes] value
    makes the GC trace millions of objects; the arena instead packs them
    into a few large chunks and hands out integer handles, keeping the
    major heap small and stable. Same-size replacement is done in place;
    size-changing replacement appends a fresh copy (the old space is
    abandoned — fine for the workloads here, where rows rarely change
    size). *)

type t

val create : ?chunk_size:int -> unit -> t
(** [chunk_size] defaults to 64 MB. *)

val add : t -> bytes -> int
(** Store a copy; returns a handle. The value must be shorter than the
    chunk size and at most 1023 bytes. *)

val get : t -> int -> bytes
(** A fresh copy of the stored value. *)

val length : t -> int -> int
(** Stored length, without copying. *)

val set : t -> int -> bytes -> int
(** Replace the value behind a handle; returns the (possibly new) handle.
    Equal sizes are overwritten in place. *)

val stored_bytes : t -> int
(** Total bytes appended so far (including abandoned space). *)

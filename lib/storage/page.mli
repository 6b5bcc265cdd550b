(** Slotted data pages.

    A page holds variable-length records addressed by a stable slot number.
    Record payloads grow upward from the header; the slot directory grows
    downward from the end of the page. Deleting or shrinking records leaves
    holes that {!compact} reclaims (and {!insert}/{!update} compact
    automatically when needed).

    Slot numbers are stable across compaction — they are the physical half
    of the "physiological" log records of the paper (page id + slot id +
    payload), so replaying a page's log against an older version of the
    page must land on the same slots. *)

type t

val header_size : int

val create : int -> t
(** [create size] is an empty page of [size] bytes. [size] must be at
    least 64 and at most 65528. *)

val of_bytes : bytes -> t
(** Adopt (not copy) an existing page image. *)

val to_bytes : t -> bytes
(** The underlying image (not a copy). *)

val copy : t -> t
val size : t -> int
val slot_count : t -> int
(** Number of slot directory entries, including deleted ones. *)

val live_records : t -> int
val free_space : t -> int
(** Bytes available for a new record's payload, assuming one new slot
    entry and full compaction. *)

val is_live : t -> int -> bool
(** [is_live p slot] is false for deleted or out-of-range slots. *)

val read : t -> int -> bytes option
(** Payload of a live slot; [None] for deleted or out-of-range slots. *)

val insert : t -> bytes -> int option
(** Add a record, reusing the lowest deleted slot if any. Returns the slot
    number, or [None] when the page cannot fit the payload; a failed
    insert leaves the page unchanged. *)

type error =
  [ `Bad_record_length  (** empty, or longer than 65,535 bytes *)
  | `Negative_slot
  | `Slot_already_live
  | `Slot_not_live
  | `Range_outside_record
  | `Page_full ]
(** Why a slot operation refused. Each operation's result names only the
    cases it can return. *)

val error_to_string : [< error ] -> string
(** ["bad record length"], ["negative slot"], ["slot already live"],
    ["slot not live"], ["range outside record"] or ["page full"]. *)

val insert_at :
  t -> int -> bytes -> (unit, [> `Bad_record_length | `Negative_slot | `Slot_already_live | `Page_full ]) result
(** Place a record at a specific slot (used when replaying log records).
    The slot must not currently be live; the directory is extended with
    empty slots as needed. *)

val update : t -> int -> bytes -> (unit, [> `Bad_record_length | `Slot_not_live | `Page_full ]) result
(** Replace the payload of a live slot, relocating within the page if the
    new payload is larger. Fails if the slot is not live or the page is
    full; a failed update leaves the page unchanged. *)

val update_bytes :
  t -> slot:int -> offset:int -> bytes -> (unit, [> `Slot_not_live | `Range_outside_record ]) result
(** Overwrite part of a live record in place: [offset] is relative to the
    record payload and the written range must fall inside it. This is the
    byte-range delta form of update that keeps physiological log records
    small. *)

val delete : t -> int -> (unit, [> `Slot_not_live ]) result
(** Remove a live record; its slot number may be reused by later inserts. *)

val compact : t -> unit
(** Squeeze out holes; slot numbers and payloads are unchanged. The
    payload tail it vacates is zeroed, so a page whose gap between
    payload and directory was all zeros keeps it so. *)

(** {2 Packed images}

    A page keeps its bytes at its two ends: header and payload from the
    front, the slot directory from the back. Its packed image joins the
    two: bytes [\[0, free_start)] followed at once by the directory, so
    storing a page moves only {!image_length} bytes. Dead payload bytes
    stay in the image: packing does not compact. *)

val image_length : t -> int
(** [free_start + 4 * slot_count]: the bytes of the page's packed
    image. *)

val pack : t -> bytes -> int
(** [pack p dst] writes [p]'s packed image to the front of [dst] and
    zeroes the rest of [dst]'s first [size p] bytes; returns
    {!image_length}. [dst] must hold at least [size p] bytes and must
    not be [p]'s own bytes. Allocates nothing. *)

val unpack : bytes -> t
(** [unpack b] adopts [b] as a page whose packed image fills its front,
    in place: the directory moves back to the page's end and the gap
    between payload and directory becomes zeros. Only the image's bytes
    are read, so whatever follows them (erased flash reads 0xff) is
    overwritten. [unpack (pack p)] has [p]'s bytes outside the gap and
    zeros inside it. Raises [Invalid_argument] on a bad magic or a
    header whose image does not fit the buffer. Allocates nothing. *)

val iter : (int -> bytes -> unit) -> t -> unit
(** Apply to every live (slot, payload). *)

val iter_in_place : (int -> int -> int -> unit) -> t -> unit
(** [iter_in_place f p] applies [f slot off len] to every live slot in
    ascending slot order, where the record's payload is the [len] bytes
    at [off] in [to_bytes p]. Nothing is copied and the scan itself
    allocates nothing. The offsets are valid only until the page is next
    modified, so [f] must not keep them, or the image, past the scan. *)

val record_offset : t -> int -> int
(** [record_offset p slot] is the offset in [to_bytes p] of a live slot's
    payload, or -1 for a deleted or out-of-range slot. *)

val has_room : t -> int -> bool
(** [has_room p len] is whether {!insert} of a [len]-byte record would
    succeed now. It costs O(1) when the contiguous free space is enough,
    and a pass over the slot directory otherwise. *)

(** {2 Searches by int64 key}

    These treat each live record of at least 8 bytes as keyed by its
    leading little-endian int64 (read as an OCaml [int]); other slots are
    skipped. They consider slots [from] and up, copy nothing and allocate
    nothing. *)

val nearest_int64 : t -> from:int -> int -> below:bool -> int
(** [nearest_int64 p ~from key ~below] is the slot with the greatest key
    [<= key] ([~below:true]) or the least key [>= key] ([~below:false]),
    or -1 if there is none. The scan stops at the first slot whose key
    equals [key]; among equal keys otherwise, the lowest slot wins. *)

val find_int64 : t -> from:int -> int -> int
(** [find_int64 p ~from key] is the first slot whose key equals [key],
    or -1 if there is none. It scans in slot order, so it finds [key]
    wherever it is; on a page whose keys are unique it is the slot
    [nearest_int64 ~below:true] returns exactly when that slot's key is
    [key]. *)

val find_sorted_int64 : t -> from:int -> int -> int
(** [find_sorted_int64 p ~from key] binary-searches the keyed slots as if
    slot order were key order. It returns a slot only if that slot's key
    equals [key], and -1 otherwise: on a page whose slots are not in key
    order it may miss a present key, but it never returns a wrong slot. *)

val equal_content : t -> t -> bool
(** Same live slots with the same payloads (layout may differ). *)

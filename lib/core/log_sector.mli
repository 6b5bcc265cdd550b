(** In-memory log sectors.

    The IPL buffer manager associates one of these with every dirty page
    in the buffer pool (Figure 2 of the paper). It accumulates that page's
    physiological log records until it fills up — at which point the
    storage manager writes its serialised image to a flash log sector in
    the page's erase unit — or until the page is evicted or a transaction
    commits, which force an early flush. *)

type t

exception Record_too_large of int
(** Raised when a single record cannot fit even an empty sector; carries
    the record's encoded size. *)

exception Corrupt
(** Raised by {!deserialize} when a flash log sector's checksum does not
    match — a torn write or bit rot. *)

val create : capacity:int -> t
(** [capacity] is the flash sector size; usable payload is
    [capacity - header_size]. *)

val header_size : int

val add : t -> Log_record.t -> [ `Added | `Full ]
(** [`Full] means the record was {e not} added: flush and retry. *)

val records : t -> Log_record.t list
(** In arrival order. *)

val pack : capacity:int -> Log_record.t list -> t list
(** [pack ~capacity records] puts [records], in order, into as few
    sectors of [capacity] bytes as they fit: each sector is filled before
    the next is started. Raises {!Record_too_large} for a record no
    sector can hold. *)

val count : t -> int
val bytes_used : t -> int
(** Including the sector header. *)

val is_empty : t -> bool
val clear : t -> unit

val remove_txn : t -> int -> Log_record.t list
(** Remove and return (in arrival order) all records of a transaction —
    the in-memory half of rolling back an abort. *)

val has_user_txn : t -> bool
(** Whether any record belongs to a transaction other than txid 0 (the
    non-transactional writer). Allocates nothing. *)

val serialize : t -> bytes
(** Exactly [capacity] bytes:
    [count:u16, used:u16, crc32:u32, records..., 0xff pad]. *)

val deserialize : bytes -> Log_record.t list
(** Parse a flash log sector image. Raises [Invalid_argument] if
    malformed and {!Corrupt} if the checksum fails. *)

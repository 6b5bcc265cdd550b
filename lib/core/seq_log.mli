(** Append-only sequential log over a reserved range of erase units.

    Used for the one system log the IPL design keeps {e outside} the
    in-page log regions ({!Meta_log}): the system-wide transaction log of
    Section 5.1 and the logical-to-physical mapping metadata that the
    paper delegates to the FTL (Section 3.3), in one stream.

    Records are opaque byte strings buffered into one flash sector at a
    time; {!force} makes everything appended so far durable by waiting
    out this log's own in-flight sector programs — the precise
    durability wait, which does not stall on unrelated device traffic.
    {!publish} is the asynchronous half: it submits the partial sector
    (the writer moves to the next sector, since flash sectors cannot be
    rewritten) and lets the caller fold the wait into a later {!force}
    or device barrier. *)

type t

exception Record_too_large of int

val create : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t
(** Start a fresh log; erases the region. *)

val recover : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t
(** Attach to an existing region after a crash: scans forward to find the
    append position. Buffered-but-unforced records from before the crash
    are gone, exactly as they would be on real hardware. *)

val append : t -> bytes -> [ `Ok | `Full ]
(** [`Full] means the region is out of space {e for this record}: the
    record was not appended; the caller should compact (read survivors,
    {!reset}, re-append). *)

val publish : t -> unit
(** Submit the buffered partial sector, if any, without waiting for the
    program to complete. Durability comes from a later {!force} or a
    device-wide barrier. *)

val settle : t -> unit
(** Wait out every published-but-unsettled sector program of this log,
    leaving the buffered partial sector buffered. *)

val force : t -> unit
(** {!publish}, then {!settle}. *)

val reset : t -> unit
(** Erase the whole region, unless no sector of it is written, and start
    over. *)

val records : ?first:bytes list -> t -> bytes list
(** All durable records in append order, read back from flash (does not
    include buffered, unforced ones). [first], when given, stands for the
    first sector's records as {!first_records} returned them, and that
    sector is not read again. Each sector carries a CRC-32 of its
    payload; a torn or bit-flipped sector fails the check and its records
    are silently discarded rather than decoded as garbage — the
    implicit-UNDO contract for a commit record whose sector rotted is that
    the transaction reverts to its pre-crash status. *)

val first_records : t -> bytes list
(** The durable records of the region's first sector alone, at the cost
    of one sector read ([[]] when that sector is unwritten or fails its
    check). *)

(** {1 Rollback of buffered appends}

    Callers that interleave appends with fallible work (the merge path)
    can take a {!mark} first and roll the buffered-but-unforced appends
    back if the work fails, keeping the in-memory log consistent with
    what actually happened. *)

type mark

val mark : t -> mark

val rollback : t -> mark -> bool
(** Discard appends made since [mark]. Returns [false] — and changes
    nothing — when a sector was forced to flash in between (flash cannot
    be un-written); the caller must then rebuild by other means. *)

val sectors_written : t -> int
val sector_capacity : t -> int
(** Total sectors in the region. *)

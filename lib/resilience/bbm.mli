(** Bad-block manager: the device-resilience layer between the IPL
    storage manager and the flash device.

    The manager presents the same flat-sector interface as
    {!Device.Flash_device} over a {e virtual} block space (a virtual
    block's id is its initial physical block), backed by a remap table
    and a pool of spare erase units:

    - a failed program relocates the whole erase unit onto the least-worn
      spare (the failed program is completed there), retires the broken
      physical block, and persists the remap; on a multi-channel device
      spares on the victim's own channel are preferred so relocation
      traffic stays channel-local;
    - a failed erase retires the block and points the unit at a fresh
      spare (no copy: an erased unit carries no data);
    - a failed read is retried a bounded number of times; a read the chip
      had to ECC-correct triggers a preventive {e scrub} (relocation) of
      the weakening unit, returning the old block to the spare pool;
    - when a mandatory relocation finds no usable spare (at once, with
      an empty pool) the device {e degrades} to read-only: the state is persisted, and every
      subsequent mutation raises {!Degraded} while reads keep serving
      committed data.

    Durability is delegated via callbacks so this library needs no
    dependency on the metadata log: the owner persists
    {!persist_event}s (the engine encodes them as [Meta_log] events) and
    replays them into {!recover} at restart. The crash contract: a remap
    is logged {e after} the copy completes and forced {e before} the
    in-memory switch, so a crash anywhere leaves either the old intact
    mapping or the new complete one. *)

type persist_event =
  | P_remap of { virt : int; phys : int }
  | P_retire of { block : int }
  | P_degraded

exception Degraded
(** The spare pool is exhausted and a relocation was required: the device
    is read-only from here on (persisted across restarts). *)

exception Uncorrectable of int
(** A read failed all its retries; carries the flat sector address. *)

type t

val create :
  Device.Flash_device.t ->
  spares:int list ->
  persist:(persist_event -> unit) ->
  force:(unit -> unit) ->
  unit ->
  t
(** [spares] are the physical blocks of the initial pool (need not be
    erased: spares are erased lazily on allocation). A failed read is
    retried up to 3 times beyond its first attempt, and a read the
    device had to ECC-correct scrubs its unit.
    [persist] must buffer an event durably-on-[force]; [force] makes all
    buffered events durable. *)

val recover :
  Device.Flash_device.t ->
  spares:int list ->
  persist:(persist_event -> unit) ->
  force:(unit -> unit) ->
  events:persist_event list ->
  unit ->
  t
(** Rebuild the remap table, retired set, pool and degradation flag by
    replaying [events] (log order) over the same initial [spares] list
    given to {!create}. *)

(** {1 Chip-mirroring operations}

    All addresses are virtual flat sectors / virtual blocks. Each
    operation must stay within one erase unit (the remap granularity);
    crossing a boundary raises [Invalid_argument]. *)

val read_sectors :
  ?cls:Device.Flash_device.op_class -> t -> sector:int -> count:int -> bytes
(** Bounded-retry read; raises {!Uncorrectable} when retries are
    exhausted. A correctable (ECC) read triggers a scrub (the scrub's
    own I/O runs at [Scrub] priority). [cls] defaults to
    [Foreground]. A [Merge_io] read is a background relocation read: it
    is published ({!Device.Flash_device.publish_read_into}), so the data
    is there on return but the host clock never waits for it. *)

val read_sectors_into :
  ?cls:Device.Flash_device.op_class -> t -> sector:int -> count:int -> bytes -> unit
(** {!read_sectors} into a caller-owned buffer of exactly
    [count * sector_size] bytes, with the same retries and scrub;
    [read_sectors] allocates one and calls this. *)

val submit_read_sectors :
  t -> cls:Device.Flash_device.op_class -> sector:int -> count:int ->
  bytes * Device.Flash_device.tag
(** Asynchronous {!read_sectors} ({!Device.Flash_device.submit_read}):
    the device executes eagerly, so the retries and the scrub run here,
    at submission; the tag settles at the owner's await. *)

val write_sectors :
  ?cls:Device.Flash_device.op_class -> t -> sector:int -> bytes -> unit
(** Raises {!Degraded} when the device is read-only or when a required
    relocation finds no spare. *)

val erase_block : ?cls:Device.Flash_device.op_class -> t -> int -> unit
(** Raises {!Degraded} like {!write_sectors}. *)

val submit_write_sectors :
  t -> cls:Device.Flash_device.op_class -> sector:int -> bytes -> unit
(** Asynchronous {!write_sectors}: the program (and any relocation a
    program failure forces) executes now, but its completion time settles
    only at the owner's next {!Device.Flash_device.barrier}. *)

val submit_erase_block : t -> cls:Device.Flash_device.op_class -> int -> unit
(** Asynchronous {!erase_block}. *)

val invalidate_sectors : t -> sector:int -> count:int -> unit
val sector_state : t -> int -> Flash_sim.Flash_chip.sector_state
val free_sectors_in_block : t -> int -> int

val erase_count : t -> int -> int
(** Wear of the physical block currently backing the virtual one. *)

(** {1 Introspection} *)

val device : t -> Device.Flash_device.t
(** The device the manager sits on. *)

val degraded : t -> bool
val spares_left : t -> int

val remap_table : t -> (int * int) list
(** Non-identity (virtual, physical) pairs, sorted. *)

val retired_list : t -> int list

val snapshot_events : t -> persist_event list
(** Current state as a replayable event list — the manager's contribution
    to a metadata-log snapshot compaction (without it, compaction would
    silently drop the remap table). *)

val set_tracer : t -> Obs.Tracer.t option -> unit

(** {1 Stats} *)

type stats = {
  read_retries : int;
  uncorrectable_reads : int;
  remaps : int;
  retired_blocks : int;
  scrubs : int;
  degradations : int;
  spares_left : int;  (** gauge, not a counter *)
}

val stats : t -> stats

module Stats : sig
  type t = stats

  val pp : Format.formatter -> t -> unit
  (** One [resilience: key=value ...] line, as the campaign report
      prints it. *)

  val to_json : t -> Ipl_util.Json.t
end

(** The storage manager's shared record, its mapping state (data units
    with their page slots, each slot's image length and first sector and
    each unit's log base, overflow areas with their live-sector counts)
    and erase-unit I/O: where a unit's
    pages and log sectors sit, their reads and programs through the
    bad-block manager, the log-record cache's consumption point, and the
    free pool's allocation and reclamation. Private to {!Ipl_storage}, whose other parts read and
    write the record directly. *)

module Dev = Device.Flash_device
module Bbm = Resilience.Bbm
module Page = Storage.Page

type eu_info = {
  mutable phys : int;
  pages : int array;  (* data slot -> logical page id, -1 = free slot *)
  sectors : int array;  (* data slot -> sectors its page's image fills, 0 = free slot *)
  starts : int array;  (* data slot -> its image's first sector within the block *)
  mutable log_base : int;  (* the log region's first sector within the block *)
  mutable frontier : int;
      (* where the next allocation programs: the end of the last image,
         or past a torn program found at restart *)
  mutable used_log : int;
  mutable overflow_rev : int list;  (* flat sector addresses, newest first *)
  mutable next_slot : int;
      (* free-slot scan cursor: slots below it are occupied or unusable
         until the next merge re-erases the unit (slots are never freed
         within a residency, so the cursor only moves forward) *)
}

type overflow_info = { mutable next_idx : int; mutable live : int }

type t = {
  dev : Dev.t;  (* the manager's device: addressing, clock, geometry *)
  bbm : Bbm.t;
      (* every data-area flash operation goes through the bad-block
         manager (virtual block addressing); without spares its pool is
         empty *)
  config : Ipl_config.t;
  first_block : int;
  num_blocks : int;
  txn_status : int -> Trx_log.status;
  meta : Meta_log.t;
  mapping : (int, eu_info * int) Hashtbl.t;  (* logical page -> (unit, slot) *)
  data_eus : (int, eu_info) Hashtbl.t;  (* physical block -> unit *)
  overflow_eus : (int, overflow_info) Hashtbl.t;
  free : Free_pool.t;
  cache : Log_record.t Cache.Log_cache.t;
      (* decoded log records per erase unit, keyed by [eu.phys] (a
         virtual address of the bad-block manager, so relocations do not
         disturb entries) *)
  mutable merging : int;
      (* how many units the merge under way rewrites (0: none, 2: a
         pair) *)
  mutable current_overflow : int option;
  fills : eu_info option array;
      (* unit receiving new page allocations, one per device channel so
         consecutive page allocations stripe across chips; a single-chip
         device has exactly one fill unit, the serial behaviour *)
  mutable next_page : int;
  merge_scratch : bytes;
      (* the one page image every merge copy read from flash passes
         through (see [Store_merge.merge]) *)
  pack_scratch : bytes;
      (* the one buffer every data-page program packs its image into *)
  mutable buffered : int -> Page.t option;
      (* the engine's view of a page held in memory with nothing owed to
         flash (see [Ipl_storage.set_buffered]) *)
  (* geometry *)
  sectors_per_page : int;
  sectors_per_flash_page : int;
  data_pages : int;
  log_floor : int;  (* the lowest sector a unit's log region starts at *)
  sectors_per_block : int;
  (* counters *)
  mutable c_pages_allocated : int;
  mutable c_page_reads : int;
  mutable c_log_sector_writes : int;
  mutable c_overflow_sector_writes : int;
  mutable c_log_sector_reads : int;
  mutable c_merges : int;
  mutable c_pair_merges : int;
  mutable c_overflow_diversions : int;
  mutable c_records_applied : int;
  mutable c_records_dropped : int;
  mutable c_records_carried : int;
  mutable c_reclaimed : int;
  mutable c_cache_hits : int;
  mutable c_cache_misses : int;
  mutable c_cache_evictions : int;
  mutable tracer : Obs.Tracer.t option;
}

val mk :
  ?config:Ipl_config.t ->
  Bbm.t ->
  first_block:int ->
  num_blocks:int ->
  txn_status:(int -> Trx_log.status) ->
  meta:Meta_log.t ->
  t
(** An empty manager over the block range: no units, an empty free pool
    and log-record cache, zero counters. *)

val data_eu : t -> int -> eu_info
(** The data unit at a block, registered empty if it is new. *)

val count_live : t -> int -> int -> unit
(** [count_live t sector d] moves the live-sector count of the overflow
    area holding [sector] by [d]. *)

val apply : t -> Meta_log.event -> unit
(** The one transition of the mapping state. Run time applies each
    [Page_alloc], [Merge] and [Overflow_*] event where it logs it, and
    restart replays the durable events through it, so the state is the
    fold of its events; a pair [Merge] moves both units and trades
    their pages in one step, and each event sets its slots' image
    sectors and first sectors and the unit's log base: a [Page_alloc]
    carries them, a [Merge] derives them from its image sectors by the
    layout rule ({!log_base}). Other events leave it unchanged. A [Merge] or
    [Overflow_assign] naming an unknown data unit raises [Failure]. *)

val snapshot : t -> Meta_log.event list
(** The mapping state, with the bad-block manager's remap state first,
    as the shortest event list whose fold through {!apply} rebuilds it:
    the storage manager's part of the compaction snapshot. *)

(** {1 Erase-unit I/O} *)

val alloc_eu : ?channel:int -> t -> int
(** {!Free_pool.take}; raises [Failure] when no unit is free. *)

val reclaim_eu : t -> int -> unit
(** Erase a unit at merge priority and return it to the free pool; a
    unit whose erase degrades the device is dropped. *)

val max_log_regions : int
(** The longest log a unit keeps, in [log_region_bytes]: 3. *)

val log_base : t -> int array -> int
(** The layout rule: where the log region of a unit whose slots hold
    images of these sectors (0 for a free slot) starts. Images lie end to end from sector 0 in slot
    order; the log starts at the first flash-page boundary after them
    and a whole slot per free slot, but never past a fresh unit's log
    start and never lower than [max_log_regions] log regions from the
    block's end. A fresh unit, all slots free, keeps the classic
    layout. *)

val log_capacity : t -> eu_info -> int
(** The unit's log sectors: from its base to the block's end. *)

val data_sector : t -> eu_info -> int -> int
(** The first sector of a slot's image. *)

val log_sector_addr : t -> int -> base:int -> int -> int
(** [log_sector_addr t phys ~base i]: the [i]-th log sector of the block
    whose log starts at [base]. *)

val sector_size : t -> int

val used_sectors : t -> base:int -> int -> int
(** Programmed sectors among the [n] from [base] on, up to the first
    free one. *)

(** {1 Packed page images}

    A page is stored as its packed image ({!Storage.Page.pack}) in
    [ceil (image_length / sector_size)] sectors, from its slot's first
    sector ({!log_base} places them). Where and how many are mapping
    state, [eu.starts] and [eu.sectors], which {!apply} folds from the
    [Page_alloc] and [Merge] events, so a read reads exactly the image,
    the first after a restart included. *)

val image_sectors : t -> int -> int
(** The sectors an image of that many bytes fills. *)

val read_raw_page_into : ?cls:Dev.op_class -> t -> eu_info -> int -> bytes -> Page.t
(** The stored image in a slot, read into a page-long buffer with one
    read of its mapped sectors and unpacked there ({!take_image}). *)

val take_image : t -> sector:int -> count:int -> bytes -> Page.t
(** [take_image t ~sector ~count buf]: the [count] mapped sectors of the
    image at [sector] were read into the front of [buf]; unpack them in
    place. A header that is not a page's, or whose image fills other
    than [count] sectors, raises [Bbm.Uncorrectable sector]. *)

val submit_data_page : t -> cls:Dev.op_class -> int -> start:int -> Page.t -> int
(** [submit_data_page t ~cls phys ~start page]: program a page's packed
    image from sector [start] of block [phys]: only the sectors it
    fills, from the one pack scratch, allocating nothing. Returns those
    sectors, which the caller's mapping event records. *)

val eu_log_empty : eu_info -> bool

val cache_note : t -> eu_info -> hit:bool -> unit
(** Count and trace a log-record cache hit or miss. *)

val read_eu_log_records : ?cls:Dev.op_class -> t -> eu_info -> Log_record.t list
(** All log records stored for a unit, in application order, from the
    cache or, on a miss, from flash (installing them). *)

val fold_eu_log_records : t -> eu_info -> ('a -> Log_record.t -> 'a) -> 'a -> 'a
(** [f] folded over a unit's stored records in no set order: over the
    cache entry in place on a hit, else over {!read_eu_log_records}. *)

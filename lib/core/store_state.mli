(** The storage manager's shared record, its mapping state (data units
    with their page slots, overflow areas with their live-sector counts)
    and erase-unit I/O: where a unit's pages and log sectors sit, their
    reads and programs through the bad-block manager, the log-record
    cache's consumption point, and the free pool's allocation and
    reclamation. Private to {!Ipl_storage}, whose other parts read and
    write the record directly. *)

module Dev = Device.Flash_device
module Bbm = Resilience.Bbm
module Page = Storage.Page

type eu_info = {
  mutable phys : int;
  pages : int array;  (* data slot -> logical page id, -1 = free slot *)
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
  mutable buffered : int -> Page.t option;
      (* the engine's view of a page held in memory with nothing owed to
         flash (see [Ipl_storage.set_buffered]) *)
  (* geometry *)
  sectors_per_page : int;
  data_pages : int;
  log_sectors : int;
  log_start : int;  (* sector offset of the log region within a block *)
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
    their pages in one step. Other events leave it unchanged. A [Merge] or
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

val data_sector : t -> int -> int -> int
val log_sector_addr : t -> int -> int -> int
val sector_size : t -> int

val used_sectors : t -> base:int -> int -> int
(** Programmed sectors among the [n] from [base] on, up to the first
    free one. *)

val read_raw_page_into : ?cls:Dev.op_class -> t -> eu_info -> int -> bytes -> Page.t
(** The stored image of a slot, read into a page-long buffer. *)

val submit_data_page : t -> cls:Dev.op_class -> int -> int -> Page.t -> unit

val eu_log_empty : eu_info -> bool

val cache_note : t -> eu_info -> hit:bool -> unit
(** Count and trace a log-record cache hit or miss. *)

val read_eu_log_records : ?cls:Dev.op_class -> t -> eu_info -> Log_record.t list
(** All log records stored for a unit, in application order, from the
    cache or, on a miss, from flash (installing them). *)

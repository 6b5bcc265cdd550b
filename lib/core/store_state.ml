(* The storage manager's shared record; its mapping state (data units
   with their page slots, overflow areas with their live-sector counts)
   and the one transition that changes it; and erase-unit I/O: where a
   unit's pages and log sectors sit, their reads and programs, the
   log-record cache's consumption point, and taking units from and
   returning them to the free pool. *)
module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module Bbm = Resilience.Bbm
module FConfig = Flash_sim.Flash_config
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

(* DRAM accounting for one cached record: its encoded size plus a flat
   allowance for the list/index cells that carry it. *)
let cached_record_overhead = 48

let mk ?(config = Ipl_config.default) bbm ~first_block ~num_blocks ~txn_status ~meta =
  let dev = Bbm.device bbm in
  let fc = Dev.config dev in
  Ipl_config.validate config ~sector_size:fc.FConfig.sector_size
    ~block_size:fc.FConfig.block_size;
  if num_blocks <= 0 || first_block < 0 || first_block + num_blocks > fc.FConfig.num_blocks
  then invalid_arg "Ipl_storage: block range out of device bounds";
  let sectors_per_page = config.Ipl_config.page_size / fc.FConfig.sector_size in
  let data_pages = Ipl_config.data_pages_per_eu config ~block_size:fc.FConfig.block_size in
  (* The eviction hook needs the finished [t] for its counter and tracer;
     tie the knot through a ref. *)
  let self = ref None in
  let cache =
    Cache.Log_cache.create ~budget_bytes:config.Ipl_config.log_cache_bytes
      ~record_bytes:(fun r -> Log_record.encoded_size r + cached_record_overhead)
      ~page_of:(fun r -> r.Log_record.page)
      ~on_evict:(fun ~key ~bytes ->
        match !self with
        | None -> ()
        | Some t -> (
            t.c_cache_evictions <- t.c_cache_evictions + 1;
            match t.tracer with
            | None -> ()
            | Some tr ->
                Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
                  (Obs.Event.Cache_evict { eu = key; bytes })))
      ()
  in
  let wear b = if config.Ipl_config.wear_aware_allocation then Bbm.erase_count bbm b else 0 in
  let t =
  {
    dev;
    bbm;
    config;
    first_block;
    num_blocks;
    txn_status;
    meta;
    mapping = Hashtbl.create 4096;
    data_eus = Hashtbl.create 512 [@lint.allow "no-magic-geometry"] (* table capacity *);
    overflow_eus = Hashtbl.create 16;
    free = Free_pool.create ~wear ~channel_of:(Dev.channel_of_block dev);
    cache;
    merging = 0;
    current_overflow = None;
    fills = Array.make (Dev.num_chips dev) None;
    next_page = 0;
    merge_scratch = Bytes.create config.Ipl_config.page_size;
    buffered = (fun _ -> None);
    sectors_per_page;
    data_pages;
    log_sectors =
      Ipl_config.log_sectors_per_eu config ~sector_size:fc.FConfig.sector_size;
    log_start = data_pages * sectors_per_page;
    sectors_per_block = FConfig.sectors_per_block fc;
    c_pages_allocated = 0;
    c_page_reads = 0;
    c_log_sector_writes = 0;
    c_overflow_sector_writes = 0;
    c_log_sector_reads = 0;
    c_merges = 0;
    c_pair_merges = 0;
    c_overflow_diversions = 0;
    c_records_applied = 0;
    c_records_dropped = 0;
    c_records_carried = 0;
    c_reclaimed = 0;
    c_cache_hits = 0;
    c_cache_misses = 0;
    c_cache_evictions = 0;
    tracer = None;
  }
  in
  self := Some t;
  t

(* The data unit at block [phys], registered empty if it is new. *)
let data_eu t phys =
  match Hashtbl.find_opt t.data_eus phys with
  | Some eu -> eu
  | None ->
      let eu =
        {
          phys;
          pages = Array.make t.data_pages (-1);
          used_log = 0;
          overflow_rev = [];
          next_slot = 0;
        }
      in
      Hashtbl.replace t.data_eus phys eu;
      eu

let count_live t sector d =
  match Hashtbl.find_opt t.overflow_eus (Dev.block_of_sector t.dev sector) with
  | Some info -> info.live <- info.live + d
  | None -> ()

(* The mapping state is the fold of the system log's mapping events,
   and this is its one transition: run time applies each event where it
   logs it, restart replays the durable events through it, and the
   compaction snapshot below is its inverse. A compaction can fire inside
   any [Meta_log.log] and snapshots the state as it stands, so an event
   whose second replay is not a no-op ([Overflow_assign], [Merge]) is
   logged before it is applied. Device effects, log usage and record
   counts are not mapping state and stay with the callers. *)
let apply t = function
  | Meta_log.Page_alloc { page; eu; idx } ->
      let eu = data_eu t eu in
      eu.pages.(idx) <- page;
      Hashtbl.replace t.mapping page (eu, idx);
      if page >= t.next_page then t.next_page <- page + 1
  | Meta_log.Merge { units; trades } -> (
      let unit (old_eu, _) =
        match Hashtbl.find_opt t.data_eus old_eu with
        | Some eu -> eu
        | None -> failwith "Ipl_storage: merge of unknown erase unit"
      in
      let eus = List.map unit units in
      List.iter2
        (fun eu (old_eu, new_eu) ->
          Hashtbl.remove t.data_eus old_eu;
          eu.phys <- new_eu;
          Hashtbl.replace t.data_eus new_eu eu)
        eus units;
      match eus with
      | [ u; v ] ->
          List.iter
            (fun (i, j) ->
              let p = u.pages.(i) and q = v.pages.(j) in
              u.pages.(i) <- q;
              v.pages.(j) <- p;
              Hashtbl.replace t.mapping q (u, i);
              Hashtbl.replace t.mapping p (v, j))
            trades
      | _ -> ())
  | Meta_log.Overflow_alloc { eu } -> Hashtbl.replace t.overflow_eus eu { next_idx = 0; live = 0 }
  | Meta_log.Overflow_assign { data_eu; sector } -> (
      match Hashtbl.find_opt t.data_eus data_eu with
      | Some eu ->
          eu.overflow_rev <- sector :: eu.overflow_rev;
          count_live t sector 1
      | None -> failwith "Ipl_storage: overflow assign to unknown unit")
  | Meta_log.Overflow_release { data_eu } -> (
      match Hashtbl.find_opt t.data_eus data_eu with
      | Some eu ->
          List.iter (fun sector -> count_live t sector (-1)) eu.overflow_rev;
          eu.overflow_rev <- []
      | None -> ())
  | Meta_log.Overflow_free { eu } -> Hashtbl.remove t.overflow_eus eu
  (* Resilience events address the bad-block manager, which the owner
     replays into it before constructing the storage manager; all
     storage-level addresses are virtual and unaffected. Status records
     describe transactions, not the mapping. *)
  | Meta_log.Remap _ | Meta_log.Retire _ | Meta_log.Degraded | Meta_log.Trx_begin _
  | Meta_log.Trx_commit _ | Meta_log.Trx_abort _ | Meta_log.Trx_high _ ->
      ()

let snapshot t =
  let allocs =
    Hashtbl.fold (fun eu _ acc -> Meta_log.Overflow_alloc { eu } :: acc) t.overflow_eus []
  in
  (* Each unit's pages, then its overflow sectors oldest-first (an
     assign must follow its area's alloc), built newest-first. *)
  let units = ref [] in
  Hashtbl.iter
    (fun phys eu ->
      Array.iteri
        (fun idx page ->
          if page >= 0 then units := Meta_log.Page_alloc { page; eu = phys; idx } :: !units)
        eu.pages;
      List.iter
        (fun sector -> units := Meta_log.Overflow_assign { data_eu = phys; sector } :: !units)
        (List.rev eu.overflow_rev))
    t.data_eus;
  (* The bad-block manager's state must survive compaction too: without
     these events a compacted log would silently forget the remap table. *)
  List.map Meta_log.of_bbm_event (Bbm.snapshot_events t.bbm) @ allocs @ List.rev !units

(* ------------------------------------------------------------------ *)
(* Erase-unit I/O                                                      *)

let alloc_eu ?channel t =
  match Free_pool.take ?channel t.free with
  | Some b -> b
  | None -> failwith "Ipl_storage: out of erase units"

(* Reclaim a unit onto the free list. The erase is submitted
   asynchronously at merge priority — reclamation is never on the query
   path — and executes eagerly, so a failure still surfaces here. A unit
   whose erase fails and that the bad-block manager could not remap
   stays off the list, lost with its backing block. The [Degraded]
   raised then is swallowed: reclamation runs after durability points,
   and the flag it sets fails the *next* mutation with a typed error
   instead. *)
let reclaim_eu t b =
  match Bbm.submit_erase_block t.bbm ~cls:Dev.Merge_io b with
  | () -> Free_pool.add t.free b
  | exception Bbm.Degraded -> ()

let data_sector t eu_phys idx = Dev.sector_of_block t.dev eu_phys + (idx * t.sectors_per_page)
let log_sector_addr t eu_phys i = Dev.sector_of_block t.dev eu_phys + t.log_start + i

(* The stored image of slot [idx], read into [buf] (one page long). *)
let read_raw_page_into ?cls t eu idx buf =
  t.c_page_reads <- t.c_page_reads + 1;
  let sector = data_sector t eu.phys idx in
  Bbm.read_sectors_into ?cls t.bbm ~sector ~count:t.sectors_per_page buf;
  Page.of_bytes buf

(* Data-page programs are asynchronous: a bulk load streams pages to the
   fill units of every channel and the channels program in parallel; the
   next durability barrier (or any await) settles the completion times. *)
let submit_data_page t ~cls eu_phys idx (page : Page.t) =
  Bbm.submit_write_sectors t.bbm ~cls ~sector:(data_sector t eu_phys idx) (Page.to_bytes page)

let sector_size t = (Dev.config t.dev).FConfig.sector_size

(* How many of the [n] sectors from [base] on are programmed: logs fill
   front to back, so the first free one ends them. *)
let used_sectors t ~base n =
  let rec go i = if i < n && Bbm.sector_state t.bbm (base + i) <> Chip.Free then go (i + 1) else i in
  go 0

(* The records of a unit's in-region log sectors, in slot order,
   fetched with one read. *)
let read_log_region ?cls t eu =
  let count = eu.used_log in
  if count = 0 then []
  else begin
    let ss = sector_size t in
    let blob = Bbm.read_sectors ?cls t.bbm ~sector:(log_sector_addr t eu.phys 0) ~count in
    t.c_log_sector_reads <- t.c_log_sector_reads + count;
    List.concat (List.init count (fun i -> Log_sector.deserialize (Bytes.sub blob (i * ss) ss)))
  end

(* The records of a unit's overflow sectors, oldest first, one read
   each. *)
let read_overflow_sectors ?cls t eu =
  List.concat_map
    (fun addr ->
      let sector = Bbm.read_sectors ?cls t.bbm ~sector:addr ~count:1 in
      t.c_log_sector_reads <- t.c_log_sector_reads + 1;
      Log_sector.deserialize sector)
    (List.rev eu.overflow_rev)

let eu_log_empty eu = eu.used_log = 0 && eu.overflow_rev = []

let cache_note t eu ~hit =
  if hit then t.c_cache_hits <- t.c_cache_hits + 1
  else t.c_cache_misses <- t.c_cache_misses + 1;
  match t.tracer with
  | None -> ()
  | Some tr ->
      let e = eu.phys in
      Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
        (if hit then Obs.Event.Cache_hit { eu = e } else Obs.Event.Cache_miss { eu = e })

(* All log records stored for an erase unit, in application order:
   in-page log sectors by slot, then overflow sectors oldest-first. *)
let read_eu_log_records_uncached ?cls t eu =
  let in_region = read_log_region ?cls t eu in
  in_region @ read_overflow_sectors ?cls t eu

(* Cache consumption point: a hit returns the decoded records without
   touching flash (no simulated reads, no [log_sector_reads]); a miss
   scans the log region once and installs the result. Units with an
   empty log region short-circuit without cache traffic. *)
let read_eu_log_records ?cls t eu =
  if eu_log_empty eu then []
  else if not (Cache.Log_cache.enabled t.cache) then read_eu_log_records_uncached ?cls t eu
  else
    match Cache.Log_cache.records t.cache eu.phys with
    | Some records ->
        cache_note t eu ~hit:true;
        records
    | None ->
        let records = read_eu_log_records_uncached ?cls t eu in
        Cache.Log_cache.install t.cache eu.phys records;
        cache_note t eu ~hit:false;
        records

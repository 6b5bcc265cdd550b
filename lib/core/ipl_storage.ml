module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module FConfig = Flash_sim.Flash_config
module Page = Storage.Page

type eu_info = {
  mutable phys : int;
  pages : int array;  (* data slot -> logical page id, -1 = free slot *)
  mutable used_log : int;
  mutable overflow_rev : int list;  (* flat sector addresses, newest first *)
  txn_counts : (int, int) Hashtbl.t;  (* txid -> live records in this unit's logs *)
  mutable total_records : int;
  mutable next_slot : int;
      (* free-slot scan cursor: slots below it are occupied or unusable
         until the next merge re-erases the unit (slots are never freed
         within a residency, so the cursor only moves forward) *)
}

type overflow_info = { mutable next_idx : int; mutable live : int }

type stats = {
  pages_allocated : int;
  page_reads : int;
  log_sector_writes : int;
  overflow_sector_writes : int;
  log_sector_reads : int;
  merges : int;
  overflow_diversions : int;
  records_applied_at_merge : int;
  records_dropped_aborted : int;
  records_carried_over : int;
  erase_units_reclaimed : int;
  log_cache_hits : int;
  log_cache_misses : int;
  log_cache_evictions : int;
  log_cache_warm_entries : int;
  eus_repaired_lazily : int;
}

(* Free erase units bucketed by wear so allocation is a min-binding
   lookup, not a fold over the whole set with a wear query per member.
   The wear recorded at insertion stays exact while a block is free:
   wear only changes on erase, and a free block is not erased until it
   leaves the pool (reclaim erases {e before} inserting). Without
   wear-aware allocation every block lands in bucket 0 and allocation
   degenerates to lowest-block-number-first. *)
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type free_pool = {
  mutable by_wear : IntSet.t IntMap.t;  (* wear at insertion -> blocks *)
  bucket_of : (int, int) Hashtbl.t;  (* member block -> its bucket key *)
}

type t = {
  dev : Dev.t;
  bbm : Resilience.Bbm.t option;
      (* when present, every data-area flash operation is routed through
         the bad-block manager (virtual block addressing) *)
  config : Ipl_config.t;
  first_block : int;
  num_blocks : int;
  txn_status : int -> Trx_log.status;
  meta : Meta_log.t;
  mapping : (int, eu_info * int) Hashtbl.t;  (* logical page -> (unit, slot) *)
  data_eus : (int, eu_info) Hashtbl.t;  (* physical block -> unit *)
  overflow_eus : (int, overflow_info) Hashtbl.t;
  free : free_pool;
  cache : Log_record.t Cache.Log_cache.t;
      (* decoded log records per erase unit, keyed by [eu.phys] (a
         virtual address under a bad-block manager, so relocations do
         not disturb entries) *)
  repairs : Log_record.t Recovery.Repair_table.t;
      (* erase units a restart still owes a replay, keyed by [eu.phys];
         empty except between a restart over a checkpoint and the moment
         every unit has been touched or drained *)
  mutable last_ckpt_footer : (int list * int) option;
      (* (active, trx_watermark) of the newest emitted checkpoint, so a
         metadata-log compaction can re-emit checkpoint coverage instead
         of silently discarding it *)
  mutable in_merge : bool;
      (* a merge is rewriting a unit right now: between the overflow
         release and the durability point its counts and overflow list
         disagree, so a compaction snapshot must not re-emit checkpoint
         coverage (dropping the checkpoint is safe — restart just reads
         every unit's whole log) *)
  mutable current_overflow : int option;
  fills : eu_info option array;
      (* unit receiving new page allocations, one per device channel so
         consecutive page allocations stripe across chips; a single-chip
         device has exactly one fill unit, the serial behaviour *)
  mutable next_page : int;
  merge_scratch : bytes;
      (* the one page image every merge copy passes through (see
         [merge_rewrite]) *)
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
  mutable c_overflow_diversions : int;
  mutable c_records_applied : int;
  mutable c_records_dropped : int;
  mutable c_records_carried : int;
  mutable c_reclaimed : int;
  mutable c_cache_hits : int;
  mutable c_cache_misses : int;
  mutable c_cache_evictions : int;
  mutable c_cache_warm_entries : int;
  mutable c_lazy_repairs : int;
  mutable tracer : Obs.Tracer.t option;
}

let config t = t.config

(* DRAM accounting for one cached record: its encoded size plus a flat
   allowance for the list/index cells that carry it. *)
let cached_record_overhead = 48

let mk ?(config = Ipl_config.default) ?bbm dev ~first_block ~num_blocks ~txn_status
    ~meta =
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
    free = { by_wear = IntMap.empty; bucket_of = Hashtbl.create 256 };
    cache;
    repairs = Recovery.Repair_table.create ();
    last_ckpt_footer = None;
    in_merge = false;
    current_overflow = None;
    fills = Array.make (Dev.num_chips dev) None;
    next_page = 0;
    merge_scratch = Bytes.create config.Ipl_config.page_size;
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
    c_overflow_diversions = 0;
    c_records_applied = 0;
    c_records_dropped = 0;
    c_records_carried = 0;
    c_reclaimed = 0;
    c_cache_hits = 0;
    c_cache_misses = 0;
    c_cache_evictions = 0;
    c_cache_warm_entries = 0;
    c_lazy_repairs = 0;
    tracer = None;
  }
  in
  self := Some t;
  t

let set_tracer t tracer = t.tracer <- tracer

let fresh_eu_info phys data_pages =
  {
    phys;
    pages = Array.make data_pages (-1);
    used_log = 0;
    overflow_rev = [];
    txn_counts = Hashtbl.create 8;
    total_records = 0;
    next_slot = 0;
  }

(* ------------------------------------------------------------------ *)
(* Device indirection: with a bad-block manager installed, data-area
   operations use virtual block addresses and survive program/erase
   failures; without one they hit the device directly. [cls] attributes
   each operation to a scheduler class; the [submit_] variants are
   asynchronous — the operation executes now, its completion time settles
   at the next barrier (every durability force point is one). *)

let dev_read_into ?cls t ~sector ~count dst =
  match t.bbm with
  | Some d -> Resilience.Bbm.read_sectors_into ?cls d ~sector ~count dst
  | None -> (
      match cls with
      | Some Dev.Merge_io ->
          (* Background relocation read: execution is eager, so the data
             is in [dst] at submission and the merge never blocks the
             host clock on it — the read's service time lands on the
             chip's timeline like any other cleaning-engine operation. *)
          Dev.publish_read_into t.dev ~cls:Dev.Merge_io ~sector ~count dst
      | _ -> Dev.read_sectors_into ?cls t.dev ~sector ~count dst)

let dev_read ?cls t ~sector ~count =
  let dst = Bytes.create (count * (Dev.config t.dev).FConfig.sector_size) in
  dev_read_into ?cls t ~sector ~count dst;
  dst

let dev_submit_write t ~cls ~sector data =
  match t.bbm with
  | Some d -> Resilience.Bbm.submit_write_sectors d ~cls ~sector data
  | None -> Dev.publish_write t.dev ~cls ~sector data

let dev_erase ?cls t b =
  match t.bbm with
  | Some d -> Resilience.Bbm.erase_block ?cls d b
  | None -> Dev.erase_block ?cls t.dev b

let dev_submit_erase t ~cls b =
  match t.bbm with
  | Some d -> Resilience.Bbm.submit_erase_block d ~cls b
  | None -> Dev.publish_erase t.dev ~cls b

let dev_invalidate t ~sector ~count =
  match t.bbm with
  | Some d -> Resilience.Bbm.invalidate_sectors d ~sector ~count
  | None -> Dev.invalidate_sectors t.dev ~sector ~count

let dev_state t s =
  match t.bbm with
  | Some d -> Resilience.Bbm.sector_state d s
  | None -> Dev.sector_state t.dev s

let dev_free_in_block t b =
  match t.bbm with
  | Some d -> Resilience.Bbm.free_sectors_in_block d b
  | None -> Dev.free_sectors_in_block t.dev b

let dev_wear t b =
  match t.bbm with
  | Some d -> Resilience.Bbm.erase_count d b
  | None -> Dev.erase_count t.dev b

let width t = Array.length t.fills
let channel_of t b = Dev.channel_of_block t.dev b

(* ------------------------------------------------------------------ *)
(* Wear-bucketed free pool                                             *)

let free_pool_size t = Hashtbl.length t.free.bucket_of

let free_pool_add t b =
  let p = t.free in
  if not (Hashtbl.mem p.bucket_of b) then begin
    let wear = if t.config.Ipl_config.wear_aware_allocation then dev_wear t b else 0 in
    Hashtbl.replace p.bucket_of b wear;
    p.by_wear <-
      IntMap.update wear
        (fun s -> Some (IntSet.add b (Option.value ~default:IntSet.empty s)))
        p.by_wear
  end

(* Least-worn block, lowest block number among ties. *)
let free_pool_take_min t =
  let p = t.free in
  match IntMap.min_binding_opt p.by_wear with
  | None -> None
  | Some (wear, set) ->
      let b = IntSet.min_elt set in
      let rest = IntSet.remove b set in
      p.by_wear <-
        (if IntSet.is_empty rest then IntMap.remove wear p.by_wear
         else IntMap.add wear rest p.by_wear);
      Hashtbl.remove p.bucket_of b;
      Some b

(* Least-worn block on the given device channel (lowest block number
   among ties), falling back to the global minimum when the channel has
   no free unit. On a single-channel device this {e is}
   [free_pool_take_min], keeping allocation order bit-identical to the
   serial path. *)
let free_pool_take_min_on t ~channel =
  if width t = 1 then free_pool_take_min t
  else begin
    let p = t.free in
    let found =
      Seq.find_map
        (fun (_, set) -> Seq.find (fun b -> channel_of t b = channel) (IntSet.to_seq set))
        (IntMap.to_seq p.by_wear)
    in
    match found with
    | None -> free_pool_take_min t
    | Some b ->
        let wear = Hashtbl.find p.bucket_of b in
        let set = IntMap.find wear p.by_wear in
        let rest = IntSet.remove b set in
        p.by_wear <-
          (if IntSet.is_empty rest then IntMap.remove wear p.by_wear
           else IntMap.add wear rest p.by_wear);
        Hashtbl.remove p.bucket_of b;
        Some b
  end

(* Reclaim a unit onto the free list. The erase is submitted
   asynchronously at merge priority — reclamation is never on the query
   path — and executes eagerly, so a failure still surfaces here. A unit
   whose erase fails stays off the list: leaked until a later recovery
   retries (raw device), or — under a bad-block manager that could not
   remap it — lost with its backing block. A [Degraded] raised here is
   swallowed: reclamation runs after durability points, and the flag it
   sets fails the *next* mutation with a typed error instead. *)
let reclaim_eu t b =
  match dev_submit_erase t ~cls:Dev.Merge_io b with
  | () -> free_pool_add t b
  | exception (Chip.Erase_error _ | Resilience.Bbm.Degraded) -> ()

(* ------------------------------------------------------------------ *)
(* Free-unit allocation                                                *)

let alloc_eu ?channel t =
  let taken =
    match channel with
    | Some c -> free_pool_take_min_on t ~channel:c
    | None -> free_pool_take_min t
  in
  match taken with Some b -> b | None -> failwith "Ipl_storage: out of erase units"

(* ------------------------------------------------------------------ *)
(* Low-level sector helpers                                            *)

let data_sector t eu_phys idx = Dev.sector_of_block t.dev eu_phys + (idx * t.sectors_per_page)
let log_sector_addr t eu_phys i = Dev.sector_of_block t.dev eu_phys + t.log_start + i

(* The stored image of slot [idx], read into [buf] (one page long). *)
let read_raw_page_into ?cls t eu idx buf =
  t.c_page_reads <- t.c_page_reads + 1;
  dev_read_into ?cls t ~sector:(data_sector t eu.phys idx) ~count:t.sectors_per_page buf;
  Page.of_bytes buf

(* Data-page programs are asynchronous: a bulk load streams pages to the
   fill units of every channel and the channels program in parallel; the
   next durability barrier (or any await) settles the completion times. *)
let submit_data_page t ~cls eu_phys idx (page : Page.t) =
  dev_submit_write t ~cls ~sector:(data_sector t eu_phys idx) (Page.to_bytes page)

let sector_size t = (Dev.config t.dev).FConfig.sector_size

(* The records of a unit's in-region log sectors [first, first + count),
   in slot order, fetched with one read. *)
let read_log_region ?cls t eu ~first ~count =
  if count <= 0 then []
  else begin
    let ss = sector_size t in
    let blob = dev_read ?cls t ~sector:(log_sector_addr t eu.phys first) ~count in
    t.c_log_sector_reads <- t.c_log_sector_reads + count;
    List.concat (List.init count (fun i -> Log_sector.deserialize (Bytes.sub blob (i * ss) ss)))
  end

(* The records of the given overflow sectors, one read each, in list
   order. *)
let read_overflow_sectors ?cls t addrs =
  List.concat_map
    (fun addr ->
      let sector = dev_read ?cls t ~sector:addr ~count:1 in
      t.c_log_sector_reads <- t.c_log_sector_reads + 1;
      Log_sector.deserialize sector)
    addrs

(* All log records stored for an erase unit, in application order:
   in-page log sectors by slot, then overflow sectors oldest-first. *)
let read_eu_log_records_uncached ?cls t eu =
  let in_region = read_log_region ?cls t eu ~first:0 ~count:eu.used_log in
  in_region @ read_overflow_sectors ?cls t (List.rev eu.overflow_rev)

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

let serialize_records t records =
  let ls = Log_sector.create ~capacity:(sector_size t) in
  List.iter
    (fun r ->
      match Log_sector.add ls r with
      | `Added -> ()
      | `Full -> invalid_arg "Ipl_storage: records exceed one log sector")
    records;
  Log_sector.serialize ls

let note_records eu records =
  List.iter
    (fun r ->
      let txid = r.Log_record.txid in
      Hashtbl.replace eu.txn_counts txid (1 + Option.value ~default:0 (Hashtbl.find_opt eu.txn_counts txid)))
    records;
  eu.total_records <- eu.total_records + List.length records

(* ------------------------------------------------------------------ *)
(* On-demand page repair (lazy restart)                                 *)

(* Settle a lazy restart's debt on one erase unit: the recovery scan
   already decoded the post-checkpoint delta and seeded the unit's record
   counts, so the only work left is warming the log-record cache — read
   the checkpointed prefix sectors, splice the delta behind them in flash
   order (in-region prefix, in-region delta, overflow prefix, overflow
   delta — exactly the order an uncached full scan produces) and install
   the result. With the cache disabled there is nothing to warm: every
   read re-scans the full log region anyway, so the entry is simply
   dropped. Either way the unit's pages count as repaired. *)
let repair_eu t eu (e : Log_record.t Recovery.Repair_table.entry) =
  Recovery.Repair_table.remove t.repairs ~eu:eu.phys;
  if Cache.Log_cache.enabled t.cache then begin
    let pre_in = read_log_region t eu ~first:0 ~count:e.pre_in in
    let pre_over =
      read_overflow_sectors t
        (List.filteri (fun i _ -> i < e.pre_over) (List.rev eu.overflow_rev))
    in
    Cache.Log_cache.install t.cache eu.phys (pre_in @ e.delta_in @ pre_over @ e.delta_over);
    t.c_cache_warm_entries <- t.c_cache_warm_entries + 1
  end;
  t.c_lazy_repairs <- t.c_lazy_repairs + 1;
  match t.tracer with
  | None -> ()
  | Some tr ->
      List.iter
        (fun page ->
          Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
            (Obs.Event.Page_repaired { page; eu = eu.phys }))
        e.pages

(* First-touch hook: any access to an erase unit's log state — a page
   read, a log flush, a merge — repairs the unit first, so the cache can
   never be installed from a scan that misses post-restart appends and
   the repair table shrinks monotonically towards the fully-warm state. *)
let repair_eu_if_pending t eu =
  if Recovery.Repair_table.pending t.repairs > 0 then
    match Recovery.Repair_table.find t.repairs ~eu:eu.phys with
    | None -> ()
    | Some e -> repair_eu t eu e

let repair_pending t = Recovery.Repair_table.pending t.repairs

(* Background drainer: repair up to [max_eus] pending units
   (lowest-numbered first, a deterministic schedule), returning how many
   were repaired. *)
let repair_step t ~max_eus =
  let rec go n =
    if n >= max_eus then n
    else
      match Recovery.Repair_table.choose t.repairs with
      | None -> n
      | Some (phys, e) ->
          (match Hashtbl.find_opt t.data_eus phys with
          | Some eu -> repair_eu t eu e
          | None ->
              (* unreachable: merging a unit repairs it first, so a live
                 entry always has a live unit — but never loop on one *)
              Recovery.Repair_table.remove t.repairs ~eu:phys);
          go (n + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Page allocation                                                     *)

let find_free_slot t eu =
  let rec go idx =
    if idx >= t.data_pages then begin
      eu.next_slot <- t.data_pages;
      None
    end
    else if
      eu.pages.(idx) = -1
      && dev_state t (data_sector t eu.phys idx) = Chip.Free
    then begin
      eu.next_slot <- idx;
      Some idx
    end
    else go (idx + 1)
  in
  go eu.next_slot

let allocate_page t page =
  if Bytes.length (Page.to_bytes page) <> t.config.Ipl_config.page_size then
    invalid_arg "Ipl_storage.allocate_page: wrong page size";
  (* Consecutive allocations round-robin over the per-channel fill
     units, so a sequential load keeps every chip programming. With one
     channel this is exactly the single-fill-unit serial behaviour. *)
  let ch = t.next_page mod width t in
  let eu, idx =
    let try_fill =
      match t.fills.(ch) with
      | Some eu -> ( match find_free_slot t eu with Some idx -> Some (eu, idx) | None -> None)
      | None -> None
    in
    match try_fill with
    | Some x -> x
    | None ->
        let phys = alloc_eu ?channel:(if width t = 1 then None else Some ch) t in
        let eu = fresh_eu_info phys t.data_pages in
        Hashtbl.replace t.data_eus phys eu;
        t.fills.(ch) <- Some eu;
        (eu, 0)
  in
  let pid = t.next_page in
  t.next_page <- pid + 1;
  submit_data_page t ~cls:Dev.Foreground eu.phys idx page;
  eu.pages.(idx) <- pid;
  Hashtbl.replace t.mapping pid (eu, idx);
  Meta_log.log t.meta (Meta_log.Page_alloc { page = pid; eu = eu.phys; idx });
  t.c_pages_allocated <- t.c_pages_allocated + 1;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
        (Obs.Event.Page_alloc { page = pid; eu = eu.phys }));
  pid

let page_exists t pid = Hashtbl.mem t.mapping pid
let num_pages t = Hashtbl.length t.mapping

let lookup t pid =
  match Hashtbl.find_opt t.mapping pid with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Ipl_storage: unknown page %d" pid)

(* ------------------------------------------------------------------ *)
(* Read path                                                           *)

let live_records_of_page t eu pid =
  repair_eu_if_pending t eu;
  if eu_log_empty eu then []
  else begin
    let not_aborted r = t.txn_status r.Log_record.txid <> Trx_log.Aborted in
    (* The per-page index makes a cache hit proportional to the page's own
       records; only a miss pays for the whole unit. *)
    let mine =
      if not (Cache.Log_cache.enabled t.cache) then None
      else Cache.Log_cache.records_of_page t.cache eu.phys ~page:pid
    in
    match mine with
    | Some records ->
        cache_note t eu ~hit:true;
        List.filter not_aborted records
    | None ->
        List.filter
          (fun r -> r.Log_record.page = pid && not_aborted r)
          (read_eu_log_records t eu)
  end

let apply_records page records =
  List.iter
    (fun r ->
      match Log_record.apply page r with
      | Ok () -> ()
      | Error msg ->
          failwith
            (Format.asprintf "Ipl_storage: log replay failed (%s) on %a" msg Log_record.pp r))
    records

let note_page_read t pid eu =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
        (Obs.Event.Page_read { page = pid; eu = eu.phys })

(* The paper's read-with-apply, into [dst]: the stored image lands in
   the caller's page and the live log records are applied to it there. *)
let read_page_into t pid dst =
  if Page.size dst <> t.config.Ipl_config.page_size then
    invalid_arg "Ipl_storage.read_page_into: wrong page size";
  let eu, idx = lookup t pid in
  let page = read_raw_page_into t eu idx (Page.to_bytes dst) in
  apply_records page (live_records_of_page t eu pid);
  note_page_read t pid eu

let read_page t pid =
  let page = Page.create t.config.Ipl_config.page_size in
  read_page_into t pid page;
  page

(* Batched read: the raw page reads of the whole batch are submitted
   asynchronously before any is awaited, so reads of pages on different
   channels overlap on the simulated clock. The per-page log replay
   (cache hits, or synchronous log-region reads) happens as each page is
   settled. Under a bad-block manager the batch degrades to sequential
   reads — the retry/scrub logic is inherently synchronous. Counters,
   applied records and returned pages are identical to a [read_page]
   loop either way. *)
type read_batch =
  | Rb_sync of int list  (* bad-block manager: the batch is a plain loop *)
  | Rb_submitted of (int * eu_info * bytes * Log_record.t list * Dev.tag) list

let read_pages_start t pids =
  match t.bbm with
  | Some _ -> Rb_sync pids
  | None ->
      Rb_submitted
        (List.map
           (fun pid ->
             let eu, idx = lookup t pid in
             t.c_page_reads <- t.c_page_reads + 1;
             let data, tag =
               Dev.submit_read t.dev ~cls:Dev.Foreground
                 ~sector:(data_sector t eu.phys idx)
                 ~count:t.sectors_per_page
             in
             (* The live records are captured here too: image and log
                must snapshot the same instant, or a merge between start
                and finish (which folds the records into a new image)
                would leave the old image paired with an emptied log. *)
             (pid, eu, data, live_records_of_page t eu pid, tag))
           pids)

let read_pages_finish t = function
  | Rb_sync pids -> List.map (fun pid -> (pid, read_page t pid)) pids
  | Rb_submitted submitted ->
      List.map
        (fun (pid, eu, data, records, tag) ->
          Dev.await t.dev tag;
          let page = Page.of_bytes data in
          apply_records page records;
          note_page_read t pid eu;
          (pid, page))
        submitted

let read_pages t pids = read_pages_finish t (read_pages_start t pids)

let live_log_records t ~page = let eu, _ = lookup t page in live_records_of_page t eu page

(* ------------------------------------------------------------------ *)
(* Overflow area                                                       *)

let release_overflow t eu =
  if eu.overflow_rev <> [] then begin
    List.iter
      (fun addr ->
        dev_invalidate t ~sector:addr ~count:1;
        let block = Dev.block_of_sector t.dev addr in
        match Hashtbl.find_opt t.overflow_eus block with
        | Some info -> info.live <- info.live - 1
        | None -> ())
      eu.overflow_rev;
    Meta_log.log t.meta (Meta_log.Overflow_release { data_eu = eu.phys });
    eu.overflow_rev <- []
  end

let gc_overflow t =
  let dead =
    Hashtbl.fold
      (fun phys info acc -> if info.live = 0 && info.next_idx > 0 then phys :: acc else acc)
      t.overflow_eus []
  in
  List.iter
    (fun phys ->
      Hashtbl.remove t.overflow_eus phys;
      if t.current_overflow = Some phys then t.current_overflow <- None;
      reclaim_eu t phys;
      Meta_log.log t.meta (Meta_log.Overflow_free { eu = phys });
      t.c_reclaimed <- t.c_reclaimed + 1)
    dead

let overflow_write ?(cls = Dev.Log_flush) t eu sector_bytes =
  let phys =
    match t.current_overflow with
    | Some phys when (Hashtbl.find t.overflow_eus phys).next_idx < t.sectors_per_block ->
        phys
    | _ ->
        let phys = alloc_eu t in
        Hashtbl.replace t.overflow_eus phys { next_idx = 0; live = 0 };
        t.current_overflow <- Some phys;
        Meta_log.log t.meta (Meta_log.Overflow_alloc { eu = phys });
        phys
  in
  let info = Hashtbl.find t.overflow_eus phys in
  let addr = Dev.sector_of_block t.dev phys + info.next_idx in
  dev_submit_write t ~cls ~sector:addr sector_bytes;
  info.next_idx <- info.next_idx + 1;
  info.live <- info.live + 1;
  eu.overflow_rev <- addr :: eu.overflow_rev;
  Meta_log.log t.meta (Meta_log.Overflow_assign { data_eu = eu.phys; sector = addr });
  t.c_overflow_sector_writes <- t.c_overflow_sector_writes + 1

(* ------------------------------------------------------------------ *)
(* Merge (Algorithms 1 and 3)                                          *)

(* Split a unit's records by the status of their transactions. Preserves
   order within each class. *)
let classify t records =
  let committed = ref [] and active = ref [] and dropped = ref 0 in
  List.iter
    (fun r ->
      match t.txn_status r.Log_record.txid with
      | Trx_log.Committed -> committed := r :: !committed
      | Trx_log.Active -> active := r :: !active
      | Trx_log.Aborted -> incr dropped)
    records;
  (List.rev !committed, List.rev !active, !dropped)

(* Pack records into as few log sectors as possible (order preserved).
   Each sector image is paired with the records it holds, so the merge
   can mirror exactly the persisted records into the cache. *)
let pack_sectors t records =
  let sectors = ref [] in
  let cur = ref (Log_sector.create ~capacity:(sector_size t)) in
  let cur_records = ref [] in
  let seal () =
    if not (Log_sector.is_empty !cur) then begin
      sectors := (Log_sector.serialize !cur, List.rev !cur_records) :: !sectors;
      cur := Log_sector.create ~capacity:(sector_size t);
      cur_records := []
    end
  in
  List.iter
    (fun r ->
      match Log_sector.add !cur r with
      | `Added -> cur_records := r :: !cur_records
      | `Full -> (
          seal ();
          match Log_sector.add !cur r with
          | `Added -> cur_records := r :: !cur_records
          | `Full ->
              (* Unreachable today — [Log_sector.add] raises before
                 answering [`Full] on an empty sector — but kept typed so
                 a future Log_sector change surfaces as a clean error
                 instead of a crash mid-merge. *)
              raise (Log_sector.Record_too_large (Log_record.encoded_size r))))
    records;
  seal ();
  List.rev !sectors

(* Undo an in-merge [release_overflow]: re-attach the sectors and their
   live counts. The sectors were already invalidated on the chip, but
   reads of [Invalid] sectors return the stale programmed data (documented
   Flash_chip behaviour), so the records stay reachable. *)
let reattach_overflow t eu saved =
  eu.overflow_rev <- saved;
  List.iter
    (fun addr ->
      let block = Dev.block_of_sector t.dev addr in
      match Hashtbl.find_opt t.overflow_eus block with
      | Some info -> info.live <- info.live + 1
      | None -> ())
    saved

(* ------------------------------------------------------------------ *)
(* Fuzzy checkpoints                                                    *)

(* Limits keeping every checkpoint record inside one log sector's
   payload: per-unit transaction counts are chunked (they accumulate at
   recovery), and a checkpoint whose active-transaction table cannot fit
   a single footer record is skipped outright — the previous checkpoint
   simply stays in force. *)
let ckpt_counts_chunk = 56
let ckpt_max_active = 120

(* The checkpoint as an event list: per-unit coverage of every data unit
   with a non-empty log (sorted by unit for a deterministic flash
   layout), then the footer that promotes it. Also re-emitted verbatim by
   the compaction snapshot, so a compacted metadata log keeps its
   checkpoint. *)
let ckpt_events t ~active ~trx_watermark =
  let eus =
    Hashtbl.fold (fun _ eu acc -> if eu_log_empty eu then acc else eu :: acc) t.data_eus []
    |> List.sort (fun a b -> compare a.phys b.phys)
  in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc rest =
          if n = 0 then (List.rev acc, rest)
          else match rest with [] -> (List.rev acc, []) | x :: r -> take (n - 1) (x :: acc) r
        in
        let c, rest = take ckpt_counts_chunk [] l in
        c :: chunks rest
  in
  let per_eu eu =
    let counts =
      Hashtbl.fold (fun txid n acc -> (txid, n) :: acc) eu.txn_counts [] |> List.sort compare
    in
    let used_log = eu.used_log and overflow = List.length eu.overflow_rev in
    List.map
      (fun c -> Meta_log.Ckpt_eu { eu = eu.phys; used_log; overflow; counts = c })
      (chunks counts)
  in
  List.concat_map per_eu eus
  @ [ Meta_log.Ckpt { active = List.sort compare active; trx_watermark } ]

let emit_checkpoint t ~active ~trx_watermark =
  if List.length active <= ckpt_max_active then begin
    List.iter (Meta_log.log t.meta) (ckpt_events t ~active ~trx_watermark);
    t.last_ckpt_footer <- Some (active, trx_watermark)
  end

(* A merge is atomic at the durability point — the metadata-log force that
   publishes the Merge event. An exception before that point (an injected
   power loss, a worn-out block, a corrupt log sector) must leave the
   in-memory mapping, overflow assignment and free list exactly as they
   were, so a caller that survives the exception keeps a consistent
   engine; after the point, the in-memory switch-over is completed before
   any further fallible flash work. *)
let merge_rewrite t eu ~pending =
  repair_eu_if_pending t eu;
  (* Merge onto the {e next} channel: the copy's reads (old unit) and
     programs (new unit) then sit on different chips and overlap. With
     one channel the target allocation is the plain least-worn choice. *)
  let new_phys =
    alloc_eu
      ?channel:
        (if width t = 1 then None else Some ((channel_of t eu.phys + 1) mod width t))
      t
  in
  let meta_mark = Meta_log.mark t.meta in
  let saved_overflow = eu.overflow_rev in
  let released = ref false in
  let durable = ref false in
  t.in_merge <- true;
  Fun.protect ~finally:(fun () -> t.in_merge <- false) @@ fun () ->
  try
    let all = read_eu_log_records ~cls:Dev.Merge_io t eu @ pending in
    let committed, carried, dropped = classify t all in
    (* Bucket the committed records by page in one pass, each bucket in
       application order. *)
    let by_page = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let pid = r.Log_record.page in
        Hashtbl.replace by_page pid
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_page pid)))
      committed;
    (* Rewrite every hosted page with its committed records applied. Every
       copy goes through the one scratch page: a program executes at
       submission, so the buffer is free again once the submit returns. *)
    let applied = ref 0 in
    Array.iteri
      (fun idx pid ->
        if pid >= 0 then begin
          let page = read_raw_page_into ~cls:Dev.Merge_io t eu idx t.merge_scratch in
          let mine =
            match Hashtbl.find_opt by_page pid with Some rev -> List.rev rev | None -> []
          in
          apply_records page mine;
          applied := !applied + List.length mine;
          submit_data_page t ~cls:Dev.Merge_io new_phys idx page
        end)
      eu.pages;
    (* Carry the still-active records into the new unit's log region,
       compacted; spill to overflow if they exceed it (possible only with a
       high tau). *)
    let sectors = pack_sectors t carried in
    let in_region, spill =
      let rec split i acc = function
        | [] -> (List.rev acc, [])
        | s :: rest when i < t.log_sectors -> split (i + 1) (s :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      split 0 [] sectors
    in
    List.iteri
      (fun i (s, _) ->
        dev_submit_write t ~cls:Dev.Merge_io ~sector:(log_sector_addr t new_phys i) s)
      in_region;
    release_overflow t eu;
    released := true;
    (* Publish the move: the durability point. *)
    Meta_log.log t.meta (Meta_log.Merge { old_eu = eu.phys; new_eu = new_phys });
    Meta_log.force t.meta;
    durable := true;
    (* Complete the in-memory switch-over (pure RAM, cannot fail), then
       reclaim the old unit. *)
    let old_phys = eu.phys in
    Hashtbl.remove t.data_eus old_phys;
    eu.phys <- new_phys;
    Hashtbl.replace t.data_eus new_phys eu;
    eu.used_log <- List.length in_region;
    eu.next_slot <- 0;
    (* a torn data slot in the old unit is usable again in the fresh one *)
    Hashtbl.reset eu.txn_counts;
    eu.total_records <- 0;
    note_records eu carried;
    (* The old unit's cached records were consumed above; the carried
       in-region records were just rewritten, so seed the new unit's
       entry with them (spilled records are appended as their overflow
       writes succeed below, keeping the entry equal to flash even if a
       spill write fails mid-way). *)
    Cache.Log_cache.invalidate t.cache old_phys;
    (match List.concat_map snd in_region with
    | [] -> ()
    | records -> Cache.Log_cache.install t.cache new_phys records);
    t.c_records_dropped <- t.c_records_dropped + dropped;
    t.c_records_carried <- t.c_records_carried + List.length carried;
    t.c_records_applied <- t.c_records_applied + !applied;
    t.c_merges <- t.c_merges + 1;
    (match t.tracer with
    | None -> ()
    | Some tr ->
        Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
          (Obs.Event.Merge
             {
               eu = old_phys;
               new_eu = new_phys;
               applied = !applied;
               carried = List.length carried;
               dropped;
             }));
    (* A failed reclaim merely leaks the old block until the next restart's
       garbage collection erases it. *)
    reclaim_eu t old_phys;
    (* Spilled carried sectors go to a fresh overflow area, oldest first. *)
    List.iter
      (fun (s, records) ->
        overflow_write ~cls:Dev.Merge_io t eu s;
        Cache.Log_cache.append t.cache eu.phys records)
      spill;
    gc_overflow t
  with e when not !durable ->
    if !released then reattach_overflow t eu saved_overflow;
    if not (Meta_log.rollback t.meta meta_mark) then
      (* The region compacted mid-merge; rewrite it from the restored
         in-memory state (best-effort: on a dead chip restart recovery
         rebuilds from the durable crash state anyway). *)
      (try Meta_log.recompact t.meta with
      | Chip.Power_loss _ -> ()
      | exn ->
          Logs.warn (fun m ->
              m "merge rollback: meta-log recompaction failed: %s" (Printexc.to_string exn)));
    (try
       dev_erase t new_phys;
       free_pool_add t new_phys
     with
    | Chip.Power_loss _ | Chip.Erase_error _ | Resilience.Bbm.Degraded -> ()
    | exn ->
        Logs.warn (fun m ->
            m "merge rollback: could not reclaim unit %d: %s" new_phys (Printexc.to_string exn)));
    raise e

(* A completed merge rewrote the unit, and at recovery the Merge event
   voids the unit's checkpoint coverage — the log prefix it vouched for
   is gone. Until the next periodic checkpoint that unit would fall back
   to a full log scan, so re-emit the coverage immediately from the
   fresh post-merge state, under the standing footer (the same
   footer-reuse the compaction snapshot performs; the footer itself is
   not advanced). The merged unit's coverage is trivially small — its
   log was just compacted — and every other unit's claim is re-asserted
   unchanged. Skipped when fuzzy checkpoints are off or none was taken
   yet. *)
let merge t eu ~pending =
  merge_rewrite t eu ~pending;
  match t.last_ckpt_footer with
  | Some (active, trx_watermark) when t.config.Ipl_config.checkpoint_every > 0 ->
      List.iter (Meta_log.log t.meta) (ckpt_events t ~active ~trx_watermark)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Log flushing                                                        *)

let active_fraction t eu ~pending =
  let active_of records =
    List.fold_left
      (fun acc r -> if t.txn_status r.Log_record.txid = Trx_log.Active then acc + 1 else acc)
      0 records
  in
  let active_stored =
    Hashtbl.fold
      (fun txid n acc -> if t.txn_status txid = Trx_log.Active then acc + n else acc)
      eu.txn_counts 0
  in
  let total = eu.total_records + List.length pending in
  if total = 0 then 0.0
  else float_of_int (active_stored + active_of pending) /. float_of_int total

let flush_log t ~page records =
  if records = [] then invalid_arg "Ipl_storage.flush_log: no records";
  List.iter
    (fun r ->
      if r.Log_record.page <> page then
        invalid_arg "Ipl_storage.flush_log: record for a different page")
    records;
  let eu, _ = lookup t page in
  (* An unrepaired unit must be settled before the write-through append
     below: the cache entry a later repair installs has to include this
     flush's records too. *)
  repair_eu_if_pending t eu;
  if eu.used_log < t.log_sectors then begin
    let sector = serialize_records t records in
    dev_submit_write t ~cls:Dev.Log_flush ~sector:(log_sector_addr t eu.phys eu.used_log) sector;
    eu.used_log <- eu.used_log + 1;
    note_records eu records;
    (* Write-through only after the program succeeded: the cache must
       never hold records flash does not. *)
    Cache.Log_cache.append t.cache eu.phys records;
    t.c_log_sector_writes <- t.c_log_sector_writes + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
          (Obs.Event.Log_flush { page; eu = eu.phys; records = List.length records })
  end
  else if active_fraction t eu ~pending:records > t.config.Ipl_config.selective_merge_threshold
  then begin
    let sector = serialize_records t records in
    overflow_write t eu sector;
    note_records eu records;
    Cache.Log_cache.append t.cache eu.phys records;
    t.c_overflow_diversions <- t.c_overflow_diversions + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
          (Obs.Event.Overflow_diversion
             { page; eu = eu.phys; records = List.length records })
  end
  else merge t eu ~pending:records

let merge_eu_of_page t pid =
  let eu, _ = lookup t pid in
  merge t eu ~pending:[]

let merge_fullest t ~max_merges =
  if max_merges <= 0 then 0
  else begin
    let candidates =
      Hashtbl.fold
        (fun _ eu acc ->
          let load = eu.used_log + List.length eu.overflow_rev in
          if load > 0 then (load, eu) :: acc else acc)
        t.data_eus []
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) candidates in
    let rec go n = function
      | (_, eu) :: rest when n < max_merges ->
          merge t eu ~pending:[];
          go (n + 1) rest
      | _ -> n
    in
    go 0 sorted
  end

let force_meta t = Meta_log.force t.meta
let publish_meta t = Meta_log.publish t.meta

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let eu_of_page t pid = (fst (lookup t pid)).phys

let used_log_sectors t ~eu =
  match Hashtbl.find_opt t.data_eus eu with
  | Some info -> info.used_log
  | None -> invalid_arg "Ipl_storage.used_log_sectors: not a data erase unit"

let overflow_sectors t ~eu =
  match Hashtbl.find_opt t.data_eus eu with
  | Some info -> List.length info.overflow_rev
  | None -> invalid_arg "Ipl_storage.overflow_sectors: not a data erase unit"

let free_eus t = free_pool_size t

let stats t =
  {
    pages_allocated = t.c_pages_allocated;
    page_reads = t.c_page_reads;
    log_sector_writes = t.c_log_sector_writes;
    overflow_sector_writes = t.c_overflow_sector_writes;
    log_sector_reads = t.c_log_sector_reads;
    merges = t.c_merges;
    overflow_diversions = t.c_overflow_diversions;
    records_applied_at_merge = t.c_records_applied;
    records_dropped_aborted = t.c_records_dropped;
    records_carried_over = t.c_records_carried;
    erase_units_reclaimed = t.c_reclaimed;
    log_cache_hits = t.c_cache_hits;
    log_cache_misses = t.c_cache_misses;
    log_cache_evictions = t.c_cache_evictions;
    log_cache_warm_entries = t.c_cache_warm_entries;
    eus_repaired_lazily = t.c_lazy_repairs;
  }

module Stats = struct
  type t = stats

  let zero =
    {
      pages_allocated = 0;
      page_reads = 0;
      log_sector_writes = 0;
      overflow_sector_writes = 0;
      log_sector_reads = 0;
      merges = 0;
      overflow_diversions = 0;
      records_applied_at_merge = 0;
      records_dropped_aborted = 0;
      records_carried_over = 0;
      erase_units_reclaimed = 0;
      log_cache_hits = 0;
      log_cache_misses = 0;
      log_cache_evictions = 0;
      log_cache_warm_entries = 0;
      eus_repaired_lazily = 0;
    }

  let map2 f (a : t) (b : t) : t =
    {
      pages_allocated = f a.pages_allocated b.pages_allocated;
      page_reads = f a.page_reads b.page_reads;
      log_sector_writes = f a.log_sector_writes b.log_sector_writes;
      overflow_sector_writes = f a.overflow_sector_writes b.overflow_sector_writes;
      log_sector_reads = f a.log_sector_reads b.log_sector_reads;
      merges = f a.merges b.merges;
      overflow_diversions = f a.overflow_diversions b.overflow_diversions;
      records_applied_at_merge = f a.records_applied_at_merge b.records_applied_at_merge;
      records_dropped_aborted = f a.records_dropped_aborted b.records_dropped_aborted;
      records_carried_over = f a.records_carried_over b.records_carried_over;
      erase_units_reclaimed = f a.erase_units_reclaimed b.erase_units_reclaimed;
      log_cache_hits = f a.log_cache_hits b.log_cache_hits;
      log_cache_misses = f a.log_cache_misses b.log_cache_misses;
      log_cache_evictions = f a.log_cache_evictions b.log_cache_evictions;
      log_cache_warm_entries = f a.log_cache_warm_entries b.log_cache_warm_entries;
      eus_repaired_lazily = f a.eus_repaired_lazily b.eus_repaired_lazily;
    }

  let add = map2 ( + )
  let diff = map2 ( - )

  let fields (t : t) =
    [
      ("pages_allocated", t.pages_allocated);
      ("page_reads", t.page_reads);
      ("log_sector_writes", t.log_sector_writes);
      ("overflow_sector_writes", t.overflow_sector_writes);
      ("log_sector_reads", t.log_sector_reads);
      ("merges", t.merges);
      ("overflow_diversions", t.overflow_diversions);
      ("records_applied_at_merge", t.records_applied_at_merge);
      ("records_dropped_aborted", t.records_dropped_aborted);
      ("records_carried_over", t.records_carried_over);
      ("erase_units_reclaimed", t.erase_units_reclaimed);
      ("log_cache_hits", t.log_cache_hits);
      ("log_cache_misses", t.log_cache_misses);
      ("log_cache_evictions", t.log_cache_evictions);
      ("log_cache_warm_entries", t.log_cache_warm_entries);
      ("eus_repaired_lazily", t.eus_repaired_lazily);
    ]

  let pp ppf t =
    Format.pp_print_string ppf "storage:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (fields t)

  let to_json t =
    Ipl_util.Json.Obj (List.map (fun (k, v) -> (k, Ipl_util.Json.Int v)) (fields t))
end

(* ------------------------------------------------------------------ *)
(* Construction and crash recovery                                     *)

let snapshot_fun t () =
  let events = ref [] in
  Hashtbl.iter
    (fun phys _ -> events := Meta_log.Overflow_alloc { eu = phys } :: !events)
    t.overflow_eus;
  Hashtbl.iter
    (fun phys eu ->
      Array.iteri
        (fun idx pid ->
          if pid >= 0 then
            events := Meta_log.Page_alloc { page = pid; eu = phys; idx } :: !events)
        eu.pages;
      List.iter
        (fun addr ->
          events := Meta_log.Overflow_assign { data_eu = phys; sector = addr } :: !events)
        (List.rev eu.overflow_rev))
    t.data_eus;
  (* Overflow_alloc events were prepended last-first; order among allocs
     does not matter, but assigns must follow allocs. *)
  let allocs, rest =
    List.partition (function Meta_log.Overflow_alloc _ -> true | _ -> false) !events
  in
  (* The bad-block manager's state must survive compaction too: without
     these events a compacted log would silently forget the remap table. *)
  let resilience =
    match t.bbm with
    | None -> []
    | Some d ->
        List.map
          (function
            | Resilience.Bbm.P_remap { virt; phys } -> Meta_log.Remap { virt; phys }
            | Resilience.Bbm.P_retire { block } -> Meta_log.Retire { block }
            | Resilience.Bbm.P_degraded -> Meta_log.Degraded)
          (Resilience.Bbm.snapshot_events d)
  in
  (* The newest checkpoint must survive compaction — re-emit it from the
     current (equivalent or fresher) coverage, under the footer it was
     taken with. *)
  let ckpt =
    match t.last_ckpt_footer with
    | Some (active, trx_watermark)
      when t.config.Ipl_config.checkpoint_every > 0 && not t.in_merge ->
        ckpt_events t ~active ~trx_watermark
    | _ -> []
  in
  resilience @ allocs @ List.rev rest @ ckpt

let create ?config ?bbm dev ~first_block ~num_blocks ~txn_status ~meta () =
  let t = mk ?config ?bbm dev ~first_block ~num_blocks ~txn_status ~meta in
  for b = first_block to first_block + num_blocks - 1 do
    free_pool_add t b
  done;
  Meta_log.set_snapshot meta (snapshot_fun t);
  t

let recover ?config ?bbm ?(trx_durable = 0) dev ~first_block ~num_blocks ~txn_status
    ~meta ~meta_events () =
  let t = mk ?config ?bbm dev ~first_block ~num_blocks ~txn_status ~meta in
  (* Replay mapping events. *)
  let get_eu phys =
    match Hashtbl.find_opt t.data_eus phys with
    | Some eu -> eu
    | None ->
        let eu = fresh_eu_info phys t.data_pages in
        Hashtbl.replace t.data_eus phys eu;
        eu
  in
  (* Checkpoint coverage accumulates alongside the replay: [Ckpt_eu]
     records gather per-unit until a [Ckpt] footer promotes the batch
     (a torn checkpoint — coverage without its footer — is discarded).
     A footer whose transaction-log watermark exceeds what that log
     actually recovered is unusable: the statuses its counts refer to
     were not durable. Any later merge or overflow release of a unit
     voids its coverage — the prefix it vouches for is gone. *)
  let cov_effective : (int, int * int * (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  let cov_pending : (int, int * int * (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  let cov_footer = ref None in
  let cov_void phys =
    Hashtbl.remove cov_effective phys;
    Hashtbl.remove cov_pending phys
  in
  List.iter
    (function
      | Meta_log.Page_alloc { page; eu = phys; idx } ->
          let eu = get_eu phys in
          eu.pages.(idx) <- page;
          Hashtbl.replace t.mapping page (eu, idx);
          if page >= t.next_page then t.next_page <- page + 1
      | Meta_log.Merge { old_eu; new_eu } -> (
          cov_void old_eu;
          match Hashtbl.find_opt t.data_eus old_eu with
          | Some eu ->
              Hashtbl.remove t.data_eus old_eu;
              eu.phys <- new_eu;
              Hashtbl.replace t.data_eus new_eu eu
          | None -> failwith "Ipl_storage.recover: merge of unknown erase unit")
      | Meta_log.Overflow_alloc { eu } ->
          Hashtbl.replace t.overflow_eus eu { next_idx = 0; live = 0 }
      | Meta_log.Overflow_assign { data_eu; sector } -> (
          match Hashtbl.find_opt t.data_eus data_eu with
          | Some eu ->
              eu.overflow_rev <- sector :: eu.overflow_rev;
              let block = Dev.block_of_sector dev sector in
              (match Hashtbl.find_opt t.overflow_eus block with
              | Some info -> info.live <- info.live + 1
              | None -> ())
          | None -> failwith "Ipl_storage.recover: overflow assign to unknown unit")
      | Meta_log.Overflow_release { data_eu } -> (
          cov_void data_eu;
          match Hashtbl.find_opt t.data_eus data_eu with
          | Some eu ->
              List.iter
                (fun addr ->
                  let block = Dev.block_of_sector dev addr in
                  match Hashtbl.find_opt t.overflow_eus block with
                  | Some info -> info.live <- info.live - 1
                  | None -> ())
                eu.overflow_rev;
              eu.overflow_rev <- []
          | None -> ())
      | Meta_log.Overflow_free { eu } -> Hashtbl.remove t.overflow_eus eu
      | Meta_log.Ckpt_eu { eu; used_log; overflow; counts } -> (
          match Hashtbl.find_opt cov_pending eu with
          | Some (u, o, acc) -> Hashtbl.replace cov_pending eu (u, o, acc @ counts)
          | None -> Hashtbl.replace cov_pending eu (used_log, overflow, counts))
      | Meta_log.Ckpt { active; trx_watermark } ->
          if trx_watermark <= trx_durable then begin
            Hashtbl.iter (fun eu c -> Hashtbl.replace cov_effective eu c) cov_pending;
            cov_footer := Some (active, trx_watermark)
          end;
          Hashtbl.reset cov_pending
      (* Resilience events address the bad-block manager, which the owner
         replays into it before constructing the storage manager; all
         storage-level addresses are virtual and unaffected. *)
      | Meta_log.Remap _ | Meta_log.Retire _ | Meta_log.Degraded -> ())
    meta_events;
  t.last_ckpt_footer <- !cov_footer;
  (* Rebuild log-sector usage and record counts. Free-state scans cost no
     simulated time; the flash reads do. A unit the checkpoint vouches
     for has its counts seeded from the checkpoint and only its
     post-checkpoint delta read and decoded; any other unit is covered up
     to nothing, so its delta is its whole log. A unit whose covered
     prefix is non-empty is filed in the repair table, which records what
     first touch still owes; any other unit has been read in full, and its
     records go straight into the log-record cache as a restart miss. *)
  Hashtbl.iter
    (fun _ eu ->
      let rec used i =
        if i >= t.log_sectors then i
        else if dev_state t (log_sector_addr t eu.phys i) <> Chip.Free then used (i + 1)
        else i
      in
      eu.used_log <- used 0;
      let ck_used, ck_over, ck_counts =
        match Hashtbl.find_opt cov_effective eu.phys with
        | Some ((u, o, _) as cov) when u <= eu.used_log && o <= List.length eu.overflow_rev
          ->
            cov
        | _ -> (0, 0, [])
      in
      Hashtbl.reset eu.txn_counts;
      List.iter
        (fun (txid, n) ->
          Hashtbl.replace eu.txn_counts txid
            (n + Option.value ~default:0 (Hashtbl.find_opt eu.txn_counts txid)))
        ck_counts;
      eu.total_records <- List.fold_left (fun a (_, n) -> a + n) 0 ck_counts;
      let delta_in = read_log_region t eu ~first:ck_used ~count:(eu.used_log - ck_used) in
      let delta_over =
        (* [overflow_rev] is newest-first: the first [length - ck_over]
           entries postdate the checkpoint; read them oldest-first. *)
        let beyond = List.length eu.overflow_rev - ck_over in
        read_overflow_sectors t
          (List.rev (List.filteri (fun i _ -> i < beyond) eu.overflow_rev))
      in
      let delta = delta_in @ delta_over in
      note_records eu delta;
      if ck_used > 0 || ck_over > 0 then
        Recovery.Repair_table.add t.repairs ~eu:eu.phys
          {
            Recovery.Repair_table.pre_in = ck_used;
            pre_over = ck_over;
            delta_in;
            delta_over;
            pages = List.sort_uniq compare (List.map (fun r -> r.Log_record.page) delta);
          }
      else if Cache.Log_cache.enabled t.cache && not (eu_log_empty eu) then begin
        Cache.Log_cache.install t.cache eu.phys delta;
        cache_note t eu ~hit:false
      end)
    t.data_eus;
  Hashtbl.iter
    (fun phys info ->
      let base = Dev.sector_of_block dev phys in
      let rec next i =
        if i >= t.sectors_per_block then i
        else if dev_state t (base + i) <> Chip.Free then next (i + 1)
        else i
      in
      info.next_idx <- next 0;
      if info.next_idx < t.sectors_per_block && t.current_overflow = None then
        t.current_overflow <- Some phys)
    t.overflow_eus;
  (* Free list + garbage collection of unreferenced half-written units
     (a crash mid-merge leaves one). *)
  for b = first_block to first_block + num_blocks - 1 do
    if (not (Hashtbl.mem t.data_eus b)) && not (Hashtbl.mem t.overflow_eus b) then
      if dev_free_in_block t b >= t.sectors_per_block then free_pool_add t b
      else reclaim_eu t b
  done;
  (* Resume filling: one unit with a usable free slot per channel, if
     any (on a single-channel device, the first found — the serial
     behaviour). *)
  (try
     Hashtbl.iter
       (fun _ eu ->
         let ch = channel_of t eu.phys in
         if t.fills.(ch) = None && find_free_slot t eu <> None then begin
           t.fills.(ch) <- Some eu;
           if Array.for_all Option.is_some t.fills then raise Exit
         end)
       t.data_eus
   with Exit -> ());
  Meta_log.set_snapshot meta (snapshot_fun t);
  t

(* The storage manager's surface: construction and crash recovery, page
   allocation, the read path and log flushing. Its parts, each private to
   this library: the shared record, mapping state and erase-unit I/O
   ([Store_state]), the free pool ([Free_pool]), the overflow log area
   ([Store_overflow]) and merges ([Store_merge]). *)
open Store_state
module Chip = Flash_sim.Flash_chip

type stats = {
  pages_allocated : int;
  page_reads : int;
  log_sector_writes : int;
  overflow_sector_writes : int;
  log_sector_reads : int;
  merges : int;
  pair_merges : int;
  overflow_diversions : int;
  records_applied_at_merge : int;
  records_dropped_aborted : int;
  records_carried_over : int;
  erase_units_reclaimed : int;
  log_cache_hits : int;
  log_cache_misses : int;
  log_cache_evictions : int;
}

type nonrec t = t

let config t = t.config
let max_log_regions = max_log_regions
let set_tracer t tracer = t.tracer <- tracer
let set_buffered t f = t.buffered <- f

(* ------------------------------------------------------------------ *)
(* Construction and crash recovery                                     *)

let snapshot = Store_state.snapshot

let create ?config bbm ~first_block ~num_blocks ~txn_status ~meta () =
  let t = mk ?config bbm ~first_block ~num_blocks ~txn_status ~meta in
  for b = first_block to first_block + num_blocks - 1 do
    Free_pool.add t.free b
  done;
  t

(* The first unmapped slot of a unit from its scan cursor on, moving
   the cursor there (to the end if none is usable). The slot's image
   goes at the unit's frontier, which a whole slot's reservation keeps
   below the log. A program a crash tore at the frontier (restart finds
   it) costs its slot, and the frontier moves past its sectors. *)
let find_free_slot t eu =
  let block = Dev.sector_of_block t.dev eu.phys in
  let rec go idx =
    if idx >= t.data_pages || eu.frontier + t.sectors_per_page > eu.log_base then t.data_pages
    else if eu.pages.(idx) <> -1 then go (idx + 1)
    else if Bbm.sector_state t.bbm (block + eu.frontier) <> Chip.Free then begin
      eu.frontier <-
        eu.frontier + used_sectors t ~base:(block + eu.frontier) (eu.log_base - eu.frontier);
      go (idx + 1)
    end
    else idx
  in
  eu.next_slot <- go eu.next_slot;
  if eu.next_slot < t.data_pages then Some eu.next_slot else None

let recover ?config bbm ~first_block ~num_blocks ~txn_status ~meta ~meta_events () =
  let t = mk ?config bbm ~first_block ~num_blocks ~txn_status ~meta in
  (* The mapping is the fold of its events, through the transition run
     time used. *)
  List.iter (apply t) meta_events;
  (* A unit's log ends at its first free sector, a free-state scan that
     reads nothing; its records are read when an access needs them. *)
  Hashtbl.iter
    (fun phys eu ->
      eu.used_log <-
        used_sectors t ~base:(log_sector_addr t phys ~base:eu.log_base 0) (log_capacity t eu))
    t.data_eus;
  Hashtbl.iter
    (fun phys info ->
      info.next_idx <-
        used_sectors t ~base:(Dev.sector_of_block t.dev phys) t.sectors_per_block;
      if info.next_idx < t.sectors_per_block && t.current_overflow = None then
        t.current_overflow <- Some phys)
    t.overflow_eus;
  (* Free list + garbage collection of unreferenced half-written units
     (a crash mid-merge leaves one). *)
  for b = first_block to first_block + num_blocks - 1 do
    if (not (Hashtbl.mem t.data_eus b)) && not (Hashtbl.mem t.overflow_eus b) then
      if Bbm.free_sectors_in_block t.bbm b >= t.sectors_per_block then Free_pool.add t.free b
      else reclaim_eu t b
  done;
  (* Resume filling: one unit with a usable free slot per channel, if
     any (on a single-channel device, the first found — the serial
     behaviour). *)
  (try
     Hashtbl.iter
       (fun _ eu ->
         let ch = Dev.channel_of_block t.dev eu.phys in
         if t.fills.(ch) = None && find_free_slot t eu <> None then begin
           t.fills.(ch) <- Some eu;
           if Array.for_all Option.is_some t.fills then raise Exit
         end)
       t.data_eus
   with Exit -> ());
  t

(* ------------------------------------------------------------------ *)
(* Page allocation                                                     *)

let allocate_page t page =
  if Bytes.length (Page.to_bytes page) <> t.config.Ipl_config.page_size then
    invalid_arg "Ipl_storage.allocate_page: wrong page size";
  (* Consecutive allocations round-robin over the per-channel fill
     units, so a sequential load keeps every chip programming. With one
     channel this is exactly the single-fill-unit serial behaviour. *)
  let ch = t.next_page mod Array.length t.fills in
  let eu, idx =
    let try_fill =
      match t.fills.(ch) with
      | Some eu -> ( match find_free_slot t eu with Some idx -> Some (eu, idx) | None -> None)
      | None -> None
    in
    match try_fill with
    | Some x -> x
    | None ->
        let eu = data_eu t (alloc_eu ~channel:ch t) in
        t.fills.(ch) <- Some eu;
        (eu, 0)
  in
  let pid = t.next_page in
  t.next_page <- pid + 1;
  let start = eu.frontier in
  let sectors = submit_data_page t ~cls:Dev.Foreground eu.phys ~start page in
  let ev =
    Meta_log.Page_alloc { page = pid; eu = eu.phys; idx; sectors; start; base = eu.log_base }
  in
  apply t ev;
  Meta_log.log t.meta ev;
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
  if eu_log_empty eu then []
  else begin
    let not_aborted r = t.txn_status r.Log_record.txid <> Trx_log.Aborted in
    (* The per-page index makes a cache hit proportional to the page's own
       records; only a miss pays for the whole unit. *)
    let mine =
      if not (Cache.Log_cache.enabled t.cache) then None
      else Cache.Log_cache.records_of_page t.cache eu.phys ~page:pid ~keep:not_aborted
    in
    match mine with
    | Some records ->
        cache_note t eu ~hit:true;
        records
    | None ->
        List.filter
          (fun r -> r.Log_record.page = pid && not_aborted r)
          (read_eu_log_records t eu)
  end

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
  Log_record.replay page (live_records_of_page t eu pid);
  note_page_read t pid eu

let read_page t pid =
  let page = Page.create t.config.Ipl_config.page_size in
  read_page_into t pid page;
  page

(* Batched read: the raw page reads of the whole batch are submitted
   asynchronously before any is awaited, so reads of pages on different
   channels overlap on the simulated clock. Each reads its image's
   mapped sectors into a fresh page, whose bytes are there at submission
   (execution is eager), so it is unpacked at once. The per-page log replay (cache
   hits, or synchronous log-region reads) happens as each page is
   settled. Counters, applied records and returned pages are identical
   to a [read_page] loop. *)
type read_batch = (int * eu_info * Page.t * Log_record.t list * Dev.tag) list

let read_pages_start t pids =
  List.map
    (fun pid ->
      let eu, idx = lookup t pid in
      t.c_page_reads <- t.c_page_reads + 1;
      let data = Bytes.create t.config.Ipl_config.page_size in
      let sector = data_sector t eu idx and count = eu.sectors.(idx) in
      let tag = Bbm.submit_read_sectors_into t.bbm ~cls:Dev.Foreground ~sector ~count data in
      let page = take_image t ~sector ~count data in
      (* The live records are captured here too: image and log must
         snapshot the same instant, or a merge between start and finish
         (which folds the records into a new image) would leave the old
         image paired with an emptied log. *)
      (pid, eu, page, live_records_of_page t eu pid, tag))
    pids

let read_pages_finish t batch =
  List.map
    (fun (pid, eu, page, records, tag) ->
      Dev.await t.dev tag;
      Log_record.replay page records;
      note_page_read t pid eu;
      (pid, page))
    batch

let read_pages t pids = read_pages_finish t (read_pages_start t pids)

let live_log_records t ~page = let eu, _ = lookup t page in live_records_of_page t eu page

let mapped_image_sectors t ~page = let eu, idx = lookup t page in eu.sectors.(idx)
let mapped_image_start t ~page = let eu, idx = lookup t page in eu.starts.(idx)

(* The header is in the image's first sector, so one sector sizes it. *)
let stored_image_sectors t ~page =
  let eu, idx = lookup t page in
  let header = Bbm.read_sectors t.bbm ~sector:(data_sector t eu idx) ~count:1 in
  image_sectors t (Page.image_length (Page.of_bytes header))

(* ------------------------------------------------------------------ *)
(* Log flushing                                                        *)

(* The first record of [records] whose page is not in unit [eu], if
   any. A top-level walk: the flush path allocates no closure for it. *)
let rec stranger t eu ~page = function
  | [] -> None
  | r :: rest ->
      let p = r.Log_record.page in
      if p <> page && (fst (lookup t p)).phys <> eu.phys then Some p
      else stranger t eu ~page rest

let sector_bytes t sector =
  let bytes = Log_sector.serialize sector in
  if Bytes.length bytes <> sector_size t then
    invalid_arg "Ipl_storage.flush_log: not a sector of this device";
  bytes

(* The page of [records]' first record. *)
let first_page fn = function
  | [] -> invalid_arg (fn ^ ": no records")
  | r :: _ -> r.Log_record.page

(* The unit of [records]' pages, all of which it must host. *)
let unit_of t fn records =
  let page = first_page fn records in
  let eu, _ = lookup t page in
  (match stranger t eu ~page records with
  | None -> ()
  | Some p -> invalid_arg (Printf.sprintf "%s: page %d is not in unit %d" fn p eu.phys));
  eu

let flush_log t sector =
  let records = Log_sector.records sector in
  let eu = unit_of t "Ipl_storage.flush_log" records in
  let page = first_page "Ipl_storage.flush_log" records in
  if eu.used_log < log_capacity t eu then begin
    let addr = log_sector_addr t eu.phys ~base:eu.log_base eu.used_log in
    Bbm.submit_write_sectors t.bbm ~cls:Dev.Log_flush ~sector:addr (sector_bytes t sector);
    eu.used_log <- eu.used_log + 1;
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
  else
    match Store_merge.merge_due t eu ~pending:records with
    | Some stored -> Store_merge.merge t [ (eu, Lazy.force stored @ records) ]
    | None -> (
        Store_overflow.write t eu (sector_bytes t sector);
        Cache.Log_cache.append t.cache eu.phys records;
        t.c_overflow_diversions <- t.c_overflow_diversions + 1;
        match t.tracer with
        | None -> ()
        | Some tr ->
            Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
              (Obs.Event.Overflow_diversion
                 { page; eu = eu.phys; records = List.length records }))

let full t eu = eu.used_log >= log_capacity t eu
let log_full t ~page = full t (fst (lookup t page))

let merge_due t records =
  match records with
  | [] -> false
  | r :: _ -> Store_merge.merge_due t (fst (lookup t r.Log_record.page)) ~pending:records <> None

let merge_pair t mine theirs =
  let u = unit_of t "Ipl_storage.merge_pair" mine in
  let v = unit_of t "Ipl_storage.merge_pair" theirs in
  if u == v || (not (full t u)) || not (full t v) then
    invalid_arg "Ipl_storage.merge_pair: two distinct units with full logs";
  let all eu pending = read_eu_log_records ~cls:Dev.Merge_io t eu @ pending in
  Store_merge.merge t [ (u, all u mine); (v, all v theirs) ]

let merge_due_units = Store_merge.merge_due_units
let pair_trades = Store_merge.pair_trades

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let merging t = t.merging
let eu_of_page t pid = (fst (lookup t pid)).phys

let data_unit t fn eu =
  match Hashtbl.find_opt t.data_eus eu with
  | Some info -> info
  | None -> invalid_arg (fn ^ ": not a data erase unit")

let used_log_sectors t ~eu = (data_unit t "Ipl_storage.used_log_sectors" eu).used_log
let log_base t ~eu = (data_unit t "Ipl_storage.log_base" eu).log_base

let overflow_sectors t ~eu =
  List.length (data_unit t "Ipl_storage.overflow_sectors" eu).overflow_rev

let free_eus t = Free_pool.size t.free

let stats t =
  {
    pages_allocated = t.c_pages_allocated;
    page_reads = t.c_page_reads;
    log_sector_writes = t.c_log_sector_writes;
    overflow_sector_writes = t.c_overflow_sector_writes;
    log_sector_reads = t.c_log_sector_reads;
    merges = t.c_merges;
    pair_merges = t.c_pair_merges;
    overflow_diversions = t.c_overflow_diversions;
    records_applied_at_merge = t.c_records_applied;
    records_dropped_aborted = t.c_records_dropped;
    records_carried_over = t.c_records_carried;
    erase_units_reclaimed = t.c_reclaimed;
    log_cache_hits = t.c_cache_hits;
    log_cache_misses = t.c_cache_misses;
    log_cache_evictions = t.c_cache_evictions;
  }

module Stats = struct
  type t = stats

  let map2 f (a : t) (b : t) : t =
    {
      pages_allocated = f a.pages_allocated b.pages_allocated;
      page_reads = f a.page_reads b.page_reads;
      log_sector_writes = f a.log_sector_writes b.log_sector_writes;
      overflow_sector_writes = f a.overflow_sector_writes b.overflow_sector_writes;
      log_sector_reads = f a.log_sector_reads b.log_sector_reads;
      merges = f a.merges b.merges;
      pair_merges = f a.pair_merges b.pair_merges;
      overflow_diversions = f a.overflow_diversions b.overflow_diversions;
      records_applied_at_merge = f a.records_applied_at_merge b.records_applied_at_merge;
      records_dropped_aborted = f a.records_dropped_aborted b.records_dropped_aborted;
      records_carried_over = f a.records_carried_over b.records_carried_over;
      erase_units_reclaimed = f a.erase_units_reclaimed b.erase_units_reclaimed;
      log_cache_hits = f a.log_cache_hits b.log_cache_hits;
      log_cache_misses = f a.log_cache_misses b.log_cache_misses;
      log_cache_evictions = f a.log_cache_evictions b.log_cache_evictions;
    }

  let diff = map2 ( - )

  let fields (t : t) =
    [
      ("pages_allocated", t.pages_allocated);
      ("page_reads", t.page_reads);
      ("log_sector_writes", t.log_sector_writes);
      ("overflow_sector_writes", t.overflow_sector_writes);
      ("log_sector_reads", t.log_sector_reads);
      ("merges", t.merges);
      ("pair_merges", t.pair_merges);
      ("overflow_diversions", t.overflow_diversions);
      ("records_applied_at_merge", t.records_applied_at_merge);
      ("records_dropped_aborted", t.records_dropped_aborted);
      ("records_carried_over", t.records_carried_over);
      ("erase_units_reclaimed", t.erase_units_reclaimed);
      ("log_cache_hits", t.log_cache_hits);
      ("log_cache_misses", t.log_cache_misses);
      ("log_cache_evictions", t.log_cache_evictions);
    ]

  let to_json t =
    Ipl_util.Json.Obj (List.map (fun (k, v) -> (k, Ipl_util.Json.Int v)) (fields t))
end

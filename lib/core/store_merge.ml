(* Merges (Algorithms 1 and 3) and the overflow log area they divert
   to. *)
open Store_state
module Chip = Flash_sim.Flash_chip

(* ------------------------------------------------------------------ *)
(* Overflow area                                                       *)

(* A merged unit's overflow sectors are dead: invalidate them all, then
   publish and apply the release. *)
let release_overflow t eu =
  if eu.overflow_rev <> [] then begin
    List.iter (fun addr -> Bbm.invalidate_sectors t.bbm ~sector:addr ~count:1) eu.overflow_rev;
    let ev = Meta_log.Overflow_release { data_eu = eu.phys } in
    Meta_log.log t.meta ev;
    apply t ev
  end

let gc_overflow t =
  let dead =
    Hashtbl.fold
      (fun phys info acc -> if info.live = 0 && info.next_idx > 0 then phys :: acc else acc)
      t.overflow_eus []
  in
  List.iter
    (fun phys ->
      let ev = Meta_log.Overflow_free { eu = phys } in
      apply t ev;
      if t.current_overflow = Some phys then t.current_overflow <- None;
      reclaim_eu t phys;
      Meta_log.log t.meta ev;
      t.c_reclaimed <- t.c_reclaimed + 1)
    dead

let overflow_write ?(cls = Dev.Log_flush) t eu sector_bytes =
  let phys =
    match t.current_overflow with
    | Some phys when (Hashtbl.find t.overflow_eus phys).next_idx < t.sectors_per_block ->
        phys
    | _ ->
        let phys = alloc_eu t in
        let ev = Meta_log.Overflow_alloc { eu = phys } in
        apply t ev;
        t.current_overflow <- Some phys;
        Meta_log.log t.meta ev;
        phys
  in
  let info = Hashtbl.find t.overflow_eus phys in
  let addr = Dev.sector_of_block t.dev phys + info.next_idx in
  Bbm.submit_write_sectors t.bbm ~cls ~sector:addr sector_bytes;
  info.next_idx <- info.next_idx + 1;
  let ev = Meta_log.Overflow_assign { data_eu = eu.phys; sector = addr } in
  Meta_log.log t.meta ev;
  apply t ev;
  t.c_overflow_sector_writes <- t.c_overflow_sector_writes + 1

(* Undo an in-merge [release_overflow]: re-attach the sectors and their
   live counts. The sectors were already invalidated on the chip, but
   reads of [Invalid] sectors return the stale programmed data (documented
   Flash_chip behaviour), so the records stay reachable. *)
let reattach_overflow t eu saved =
  eu.overflow_rev <- saved;
  List.iter (fun addr -> count_live t addr 1) saved

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* The share of a unit's stored and pending records whose transactions
   are still active: the carry fraction Algorithm 3 compares with tau. *)
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

(* Whether any of [records] is for page [pid]: a plain walk, so the
   merge's per-page check allocates nothing. *)
let rec names_page pid = function
  | [] -> false
  | r :: rest -> r.Log_record.page = pid || names_page pid rest

(* Pack records into as few log sectors as possible (order preserved).
   Each sector image is paired with the records it holds, so the merge
   can mirror exactly the persisted records into the cache. *)
let pack_sectors t records =
  List.map
    (fun s -> (Log_sector.serialize s, Log_sector.records s))
    (Log_sector.pack ~capacity:(sector_size t) records)

(* A merge is atomic at the durability point — the system-log force that
   publishes the Merge event. An exception before that point (an injected
   power loss, a worn-out block, a corrupt log sector) must leave the
   in-memory mapping, overflow assignment and free list exactly as they
   were, so a caller that survives the exception keeps a consistent
   engine; after the point, the in-memory switch-over is completed before
   any further fallible flash work. *)
let merge_rewrite t eu ~pending =
  Store_ckpt.repair_eu_if_pending t eu;
  (* Merge onto the {e next} channel: the copy's reads (old unit) and
     programs (new unit) then sit on different chips and overlap. *)
  let new_phys =
    alloc_eu
      ~channel:((Dev.channel_of_block t.dev eu.phys + 1) mod Array.length t.fills)
      t
  in
  (* A rollback would also drop status records appended after the mark
     to the one system log's buffer. None is: nothing between here and
     the durability point begins, commits or aborts a transaction. *)
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
    (* Rewrite every hosted page with its committed records applied. A
       page that no carried record names and whose buffered image owes
       flash nothing is already that image — its stored image plus its
       live records, which are all committed here — so it is programmed
       from memory without a read. Every other copy is read through the
       one scratch page: a program executes at submission, so the buffer
       is free again once the submit returns. *)
    let applied = ref 0 in
    Array.iteri
      (fun idx pid ->
        if pid >= 0 then begin
          let rev = match Hashtbl.find_opt by_page pid with Some rev -> rev | None -> [] in
          let buffered = if names_page pid carried then None else t.buffered pid in
          let page =
            match buffered with
            | Some page -> page
            | None ->
                let page =
                  read_raw_page_into ~cls:Dev.Merge_io t eu idx t.merge_scratch
                in
                Log_record.replay page (List.rev rev);
                page
          in
          applied := !applied + List.length rev;
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
        Bbm.submit_write_sectors t.bbm ~cls:Dev.Merge_io
          ~sector:(log_sector_addr t new_phys i) s)
      in_region;
    release_overflow t eu;
    released := true;
    (* Publish the move: the durability point. *)
    let old_phys = eu.phys in
    let ev = Meta_log.Merge { old_eu = old_phys; new_eu = new_phys } in
    Meta_log.log t.meta ev;
    Meta_log.force t.meta;
    durable := true;
    (* Complete the in-memory switch-over (pure RAM, cannot fail), then
       reclaim the old unit. *)
    apply t ev;
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
      (try Meta_log.compact t.meta with
      | Chip.Power_loss _ -> ()
      | exn ->
          Logs.warn (fun m ->
              m "merge rollback: meta-log recompaction failed: %s" (Printexc.to_string exn)));
    (try
       Bbm.erase_block t.bbm new_phys;
       Free_pool.add t.free new_phys
     with
    | Chip.Power_loss _ | Bbm.Degraded -> ()
    | exn ->
        Logs.warn (fun m ->
            m "merge rollback: could not reclaim unit %d: %s" new_phys (Printexc.to_string exn)));
    raise e

(* A merge, then the checkpoint coverage it voided re-asserted (see
   [Store_ckpt.reassert]). *)
let merge t eu ~pending =
  merge_rewrite t eu ~pending;
  Store_ckpt.reassert t

(* The one merge rule (Algorithms 1 and 3): a unit is merged when its
   in-region log has no free sector left and its active records would not
   dominate the merge. Above tau the write path diverts to overflow
   instead, so background merging leaves such a unit alone too. *)
let merge_due t eu ~pending =
  eu.used_log >= t.log_sectors
  && active_fraction t eu ~pending <= t.config.Ipl_config.selective_merge_threshold

let merge_due_units t ~max_merges =
  if max_merges <= 0 then 0
  else begin
    let candidates =
      Hashtbl.fold
        (fun _ eu acc ->
          if merge_due t eu ~pending:[] then
            (eu.used_log + List.length eu.overflow_rev, eu) :: acc
          else acc)
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

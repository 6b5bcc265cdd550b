(* The overflow log area (Algorithm 3): the sectors a unit's log takes
   when its region is full and a merge is not due, and those a merge's
   carried records spill to. *)
open Store_state

(* A merged unit's overflow sectors are dead: invalidate them all, then
   publish and apply the release. *)
let release t eu =
  if eu.overflow_rev <> [] then begin
    List.iter (fun addr -> Bbm.invalidate_sectors t.bbm ~sector:addr ~count:1) eu.overflow_rev;
    let ev = Meta_log.Overflow_release { data_eu = eu.phys } in
    Meta_log.log t.meta ev;
    apply t ev
  end

let gc t =
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

let write ?(cls = Dev.Log_flush) t eu sector_bytes =
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

(* Undo an in-merge [release]: re-attach the sectors and their
   live counts. The sectors were already invalidated on the chip, but
   reads of [Invalid] sectors return the stale programmed data (documented
   Flash_chip behaviour), so the records stay reachable. *)
let reattach t eu saved =
  eu.overflow_rev <- saved;
  List.iter (fun addr -> count_live t addr 1) saved

(* First-touch repair after a restart. A restart reads no in-page log:
   it files every unit with a non-empty log in the repair set, and the
   unit's log is read the first time an access needs it — a page read, a
   log flush, a merge decision or a merge — or when the background
   drainer reaches it. *)
open Store_state

(* Read a unit's whole log through the cache's miss path, which installs
   it, and rebuild the unit's record counts from it. Its pages count as
   repaired. *)
let repair_eu t eu =
  Hashtbl.remove t.repairs eu.phys;
  let records = read_eu_log_records t eu in
  note_records eu records;
  if Cache.Log_cache.enabled t.cache then t.c_cache_warm_entries <- t.c_cache_warm_entries + 1;
  t.c_lazy_repairs <- t.c_lazy_repairs + 1;
  match t.tracer with
  | None -> ()
  | Some tr ->
      List.iter
        (fun page ->
          Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
            (Obs.Event.Page_repaired { page; eu = eu.phys }))
        (List.sort_uniq compare (List.map (fun r -> r.Log_record.page) records))

let repair_eu_if_pending t eu =
  if Hashtbl.length t.repairs > 0 && Hashtbl.mem t.repairs eu.phys then repair_eu t eu

let repair_pending t = Hashtbl.length t.repairs

(* Background drainer: repair up to [max_eus] pending units
   (lowest-numbered first, a schedule independent of the set's layout),
   returning how many were repaired. *)
let repair_step t ~max_eus =
  let lowest phys () best = match best with Some p when p <= phys -> best | _ -> Some phys in
  let rec go n =
    if n >= max_eus then n
    else
      match Hashtbl.fold lowest t.repairs None with
      | None -> n
      | Some phys ->
          (match Hashtbl.find_opt t.data_eus phys with
          | Some eu -> repair_eu t eu
          | None ->
              (* unreachable: merging a unit repairs it first, so a live
                 entry always has a live unit — but never loop on one *)
              Hashtbl.remove t.repairs phys);
          go (n + 1)
  in
  go 0

(* Merges (Algorithms 1 and 3). *)
open Store_state
module Chip = Flash_sim.Flash_chip

(* How many of [records] belong to active transactions, added to [acc]:
   a plain walk, so the merge rule allocates nothing for it. *)
let rec count_active t acc = function
  | [] -> acc
  | r :: rest ->
      count_active t
        (if t.txn_status r.Log_record.txid = Trx_log.Active then acc + 1 else acc)
        rest

(* The share of a unit's stored and pending records whose transactions
   are still active: the carry fraction Algorithm 3 compares with tau.
   [fold] folds over the stored records. *)
let carry_fraction t ~pending fold =
  let total = ref (List.length pending) in
  let active =
    fold
      (fun n r ->
        incr total;
        if t.txn_status r.Log_record.txid = Trx_log.Active then n + 1 else n)
      (count_active t 0 pending)
  in
  if !total = 0 then 0.0 else float_of_int active /. float_of_int !total

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

(* One unit of a merge: the unit and its block before the merge, the
   fresh block it moves to, its records by status, its pages by slot
   after the merge with the sectors of each one's new image, and what
   the rewrite carried into the new block's log: the records, the
   sector images (with their records) that fit the region, and those
   that spill to overflow. *)
type side = {
  eu : eu_info;
  old_phys : int;
  new_phys : int;
  all : Log_record.t list;
  committed : Log_record.t list;
  carried : Log_record.t list;
  dropped : int;
  mutable after : int array;
  images : int array;
  mutable applied : int;
  mutable into : Log_record.t list;
  mutable in_region : (bytes * Log_record.t list) list;
  mutable spill : (bytes * Log_record.t list) list;
}

(* Where a pair merge puts the two units' pages. [heat] holds one entry
   per slot, the first unit's slots then the second's: the number of
   records for the slot's page in its unit's log plus pending, or -1 for
   a free slot. The pages are ranked in one array by heat, ties going to
   the first unit's pages, then by slot; the first unit's new block takes
   as many of the hottest as the unit held, the second's the rest, so
   each keeps its page count and its free slots. A page leaving the
   first unit trades slots with one arriving from the second, both taken
   in slot order: the trades, as (first unit's slot, second's), increase
   in both. *)
let pair_trades heat =
  let d = Array.length heat / 2 in
  let order = Array.init (2 * d) Fun.id in
  Array.sort
    (fun a b -> if heat.(a) <> heat.(b) then compare heat.(b) heat.(a) else compare a b)
    order;
  let held = ref 0 in
  for k = 0 to d - 1 do
    if heat.(k) >= 0 then incr held
  done;
  let hot = Array.make (2 * d) false in
  for r = 0 to !held - 1 do
    hot.(order.(r)) <- true
  done;
  let rec leaving i = if i < d && (heat.(i) < 0 || hot.(i)) then leaving (i + 1) else i in
  let rec arriving j = if j < d && not hot.(d + j) then arriving (j + 1) else j in
  let rec go i j =
    let i = leaving i and j = arriving j in
    if i < d && j < d then (i, j) :: go (i + 1) (j + 1) else []
  in
  go 0 0

(* The carried records of the side that merges [eu]: a plain walk, so
   the per-page check allocates nothing. *)
let rec carried_from eu = function
  | [] -> []
  | side :: rest -> if side.eu == eu then side.carried else carried_from eu rest

(* The one merge, over one unit or a pair. Each unit is rewritten into a
   fresh block with its committed records (and its pending ones)
   applied, carrying active records over and dropping aborted ones; a
   pair's pages are re-split by [pair_trades] on the way. The mapping change
   is one [Merge] event.

   A merge is atomic at the durability point — the system-log force
   that publishes that event. An exception before that point (an
   injected power loss, a worn-out block, a corrupt log sector) must
   leave the in-memory mapping, overflow assignment and free list
   exactly as they were, so a caller that survives the exception keeps
   a consistent engine; after the point, the in-memory switch-over is
   completed before any further fallible flash work. *)
let merge t units =
  (* Merge onto the {e next} channel: the copy's reads (old unit) and
     programs (new unit) then sit on different chips and overlap. *)
  let news =
    List.fold_left
      (fun acc (eu, _) ->
        let channel = (Dev.channel_of_block t.dev eu.phys + 1) mod Array.length t.fills in
        match alloc_eu ~channel t with
        | b -> b :: acc
        | exception e ->
            List.iter (Free_pool.add t.free) acc;
            raise e)
      [] units
    |> List.rev
  in
  (* A rollback would also drop status records appended after the mark
     to the one system log's buffer. None is: nothing between here and
     the durability point begins, commits or aborts a transaction. *)
  let meta_mark = Meta_log.mark t.meta in
  let released = ref [] in
  let durable = ref false in
  t.merging <- List.length units;
  Fun.protect ~finally:(fun () -> t.merging <- 0) @@ fun () ->
  try
    let sides =
      List.map2
        (fun (eu, all) new_phys ->
          let committed, carried, dropped = classify t all in
          {
            eu;
            old_phys = eu.phys;
            new_phys;
            all;
            committed;
            carried;
            dropped;
            after = eu.pages;
            images = Array.make t.data_pages 0;
            applied = 0;
            into = carried;
            in_region = [];
            spill = [];
          })
        units news
    in
    (* A pair re-splits its pages, and each carried record follows its
       page. *)
    let trades =
      match sides with
      | [ u; v ] ->
          let d = t.data_pages in
          let slot pid =
            match Hashtbl.find t.mapping pid with
            | eu, idx when eu == u.eu -> idx
            | eu, idx when eu == v.eu -> d + idx
            | _ | (exception Not_found) -> -1
          in
          let heat = Array.make (2 * d) (-1) in
          Array.iteri (fun idx pid -> if pid >= 0 then heat.(idx) <- 0) u.eu.pages;
          Array.iteri (fun idx pid -> if pid >= 0 then heat.(d + idx) <- 0) v.eu.pages;
          let note r =
            let k = slot r.Log_record.page in
            if k >= 0 then heat.(k) <- heat.(k) + 1
          in
          List.iter note u.all;
          List.iter note v.all;
          let trades = pair_trades heat in
          u.after <- Array.copy u.eu.pages;
          v.after <- Array.copy v.eu.pages;
          List.iter
            (fun (i, j) ->
              u.after.(i) <- v.eu.pages.(j);
              v.after.(j) <- u.eu.pages.(i))
            trades;
          (* A page stays in the first unit unless traded away, and comes
             from the second only if traded. *)
          let into_u r =
            let pid = r.Log_record.page in
            let k = slot pid in
            if k < 0 then false else if k < d then u.after.(k) = pid else v.after.(k - d) <> pid
          in
          let mine, theirs = List.partition into_u u.carried in
          let came, stay = List.partition into_u v.carried in
          u.into <- mine @ came;
          v.into <- theirs @ stay;
          trades
      | _ -> []
    in
    (* Bucket the committed records by page in one pass, each bucket in
       application order. *)
    let by_page = Hashtbl.create 16 in
    List.iter
      (fun side ->
        List.iter
          (fun r ->
            let pid = r.Log_record.page in
            Hashtbl.replace by_page pid
              (r :: Option.value ~default:[] (Hashtbl.find_opt by_page pid)))
          side.committed)
      sides;
    List.iter
      (fun side ->
        (* Rewrite every page the new block hosts with its committed
           records applied, from the slot it held before the merge, its
           image right after the last one (the layout rule). A
           page that no carried record names and whose buffered image
           owes flash nothing is already that image — its stored image
           plus its live records, which are all committed here — so it
           is programmed from memory without a read. Every other copy is
           read through the one scratch page: a program executes at
           submission, so the buffer is free again once the submit
           returns. *)
        let start = ref 0 in
        Array.iteri
          (fun idx pid ->
            if pid >= 0 then begin
              let src, src_idx = Hashtbl.find t.mapping pid in
              let rev = match Hashtbl.find_opt by_page pid with Some rev -> rev | None -> [] in
              let buffered =
                if names_page pid (carried_from src sides) then None else t.buffered pid
              in
              let page =
                match buffered with
                | Some page -> page
                | None ->
                    let page = read_raw_page_into ~cls:Dev.Merge_io t src src_idx t.merge_scratch in
                    Log_record.replay page (List.rev rev);
                    page
              in
              side.applied <- side.applied + List.length rev;
              let n = submit_data_page t ~cls:Dev.Merge_io side.new_phys ~start:!start page in
              side.images.(idx) <- n;
              start := !start + n
            end)
          side.after;
        let base = log_base t side.images in
        (* Carry the still-active records into the new block's log
           region, compacted; spill to overflow if they exceed it
           (possible only with a high tau). *)
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | s :: rest when base + i < t.sectors_per_block -> split (i + 1) (s :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let in_region, spill = split 0 [] (pack_sectors t side.into) in
        List.iteri
          (fun i (s, _) ->
            Bbm.submit_write_sectors t.bbm ~cls:Dev.Merge_io
              ~sector:(log_sector_addr t side.new_phys ~base i) s)
          in_region;
        side.in_region <- in_region;
        side.spill <- spill)
      sides;
    List.iter
      (fun side ->
        let saved = side.eu.overflow_rev in
        Store_overflow.release t side.eu;
        released := (side.eu, saved) :: !released)
      sides;
    (* Publish the move: the durability point. *)
    let ev =
      Meta_log.Merge
        {
          units = List.map (fun side -> (side.old_phys, side.new_phys)) sides;
          trades;
          sectors = List.map (fun side -> side.images) sides;
        }
    in
    Meta_log.log t.meta ev;
    Meta_log.force t.meta;
    durable := true;
    (* Complete the in-memory switch-over (pure RAM, cannot fail), then
       reclaim the old blocks. *)
    apply t ev;
    let partner side =
      match sides with
      | [ u; v ] -> if side == u then v.old_phys else u.old_phys
      | _ -> -1
    in
    List.iter
      (fun side ->
        let eu = side.eu in
        eu.used_log <- List.length side.in_region;
        eu.next_slot <- 0;
        (* a torn data slot in the old unit is usable again in the fresh one *)
        (* The old block's cached records were consumed above; the
           carried in-region records were just rewritten, so seed the
           new block's entry with them (spilled records are appended as
           their overflow writes succeed below, keeping the entry equal
           to flash even if a spill write fails mid-way). *)
        Cache.Log_cache.invalidate t.cache side.old_phys;
        (match List.concat_map snd side.in_region with
        | [] -> ()
        | records -> Cache.Log_cache.install t.cache eu.phys records);
        t.c_records_dropped <- t.c_records_dropped + side.dropped;
        t.c_records_carried <- t.c_records_carried + List.length side.into;
        t.c_records_applied <- t.c_records_applied + side.applied;
        t.c_merges <- t.c_merges + 1;
        match t.tracer with
        | None -> ()
        | Some tr ->
            Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev)
              (Obs.Event.Merge
                 {
                   eu = side.old_phys;
                   new_eu = side.new_phys;
                   partner = partner side;
                   moved = List.length trades;
                   applied = side.applied;
                   carried = List.length side.into;
                   dropped = side.dropped;
                 }))
      sides;
    if List.length sides = 2 then t.c_pair_merges <- t.c_pair_merges + 1;
    (* A failed reclaim merely leaks the old block until the next restart's
       garbage collection erases it. *)
    List.iter (fun side -> reclaim_eu t side.old_phys) sides;
    (* Spilled carried sectors go to a fresh overflow area, oldest first. *)
    List.iter
      (fun side ->
        List.iter
          (fun (s, records) ->
            Store_overflow.write ~cls:Dev.Merge_io t side.eu s;
            Cache.Log_cache.append t.cache side.eu.phys records)
          side.spill)
      sides;
    Store_overflow.gc t
  with e when not !durable ->
    List.iter (fun (eu, saved) -> Store_overflow.reattach t eu saved) !released;
    if not (Meta_log.rollback t.meta meta_mark) then
      (* The region compacted mid-merge; rewrite it from the restored
         in-memory state (best-effort: on a dead chip restart recovery
         rebuilds from the durable crash state anyway). *)
      (try Meta_log.compact t.meta with
      | Chip.Power_loss _ -> ()
      | exn ->
          Logs.warn (fun m ->
              m "merge rollback: meta-log recompaction failed: %s" (Printexc.to_string exn)));
    List.iter
      (fun new_phys ->
        try
          Bbm.erase_block t.bbm new_phys;
          Free_pool.add t.free new_phys
        with
        | Chip.Power_loss _ | Bbm.Degraded -> ()
        | exn ->
            Logs.warn (fun m ->
                m "merge rollback: could not reclaim unit %d: %s" new_phys
                  (Printexc.to_string exn)))
      news;
    raise e

(* The one merge rule (Algorithms 1 and 3): a unit is merged when its
   in-region log has no free sector left and its active records would not
   dominate the merge. Above tau the write path diverts to overflow
   instead, so background merging leaves such a unit alone too. A due
   unit's stored records are returned for its merge to consume, so the
   log is read once: a cached unit is counted over its entry in place,
   and its records are taken from the entry when the merge forces them;
   any other is read (a miss fills the cache) and counted over what was
   read. *)
let merge_due t eu ~pending =
  let within fraction = fraction <= t.config.Ipl_config.selective_merge_threshold in
  if eu.used_log < log_capacity t eu then None
  else if Cache.Log_cache.mem t.cache eu.phys then
    if within (carry_fraction t ~pending (fold_eu_log_records t eu)) then
      Some (lazy (read_eu_log_records ~cls:Dev.Merge_io t eu))
    else None
  else
    let stored = read_eu_log_records t eu in
    if within (carry_fraction t ~pending (fun f init -> List.fold_left f init stored)) then
      Some (Lazy.from_val stored)
    else None

let merge_due_units t ~max_merges =
  if max_merges <= 0 then 0
  else begin
    let candidates =
      Hashtbl.fold
        (fun _ eu acc ->
          match merge_due t eu ~pending:[] with
          | Some stored -> (eu.used_log + List.length eu.overflow_rev, eu, stored) :: acc
          | None -> acc)
        t.data_eus []
    in
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare b a) candidates in
    let rec go n = function
      | (_, eu, stored) :: rest when n < max_merges ->
          merge t [ (eu, Lazy.force stored) ];
          go (n + 1) rest
      | _ -> n
    in
    go 0 sorted
  end

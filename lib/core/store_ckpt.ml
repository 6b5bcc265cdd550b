(* Fuzzy checkpoints and the lazy restart they allow: the checkpoint's
   coverage events, their fold at restart, the restart's per-unit log
   rescan, and the repair table that first touch and a background
   drainer pay off. *)
open Store_state

(* Limits keeping every checkpoint record inside one log sector's
   payload: per-unit transaction counts are chunked (they accumulate at
   recovery), and a checkpoint whose active-transaction table cannot fit
   a single footer record is skipped outright — the previous checkpoint
   simply stays in force. *)
let ckpt_counts_chunk = 56
let ckpt_max_active = 120

(* The checkpoint as an event list: per-unit coverage of every data unit
   with a non-empty log (sorted by unit for a deterministic flash
   layout), then the footer that promotes it. *)
let ckpt_events t ~active =
  let eus =
    Hashtbl.fold (fun _ eu acc -> if eu_log_empty eu then acc else eu :: acc) t.data_eus []
    |> List.sort (fun a b -> compare a.phys b.phys)
  in
  let rec chunks = function
    | [] -> []
    | l ->
        let head = List.filteri (fun i _ -> i < ckpt_counts_chunk) l in
        head :: chunks (List.filteri (fun i _ -> i >= ckpt_counts_chunk) l)
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
  @ [ Meta_log.Ckpt { active = List.sort compare active } ]

let emit_checkpoint t ~active =
  if List.length active <= ckpt_max_active then begin
    List.iter (Meta_log.log t.meta) (ckpt_events t ~active);
    t.last_ckpt_footer <- Some active
  end

(* The newest checkpoint re-emitted from the current (equivalent or
   fresher) coverage, under the footer it was taken with; nothing when
   fuzzy checkpoints are off or none was taken yet. *)
let standing t =
  match t.last_ckpt_footer with
  | Some active when t.config.Ipl_config.checkpoint_every > 0 -> ckpt_events t ~active
  | _ -> []

(* A compacted system log keeps its checkpoint — except in the middle
   of a merge (see [merging]). *)
let snapshot t = if t.merging > 0 then [] else standing t

(* A completed merge rewrote its units, and at recovery the Merge event
   voids their checkpoint coverage — the log prefixes it vouched for
   are gone. Until the next periodic checkpoint they would fall back
   to a full log scan, so re-emit the coverage immediately from the
   fresh post-merge state, under the standing footer (the same
   footer-reuse the compaction snapshot performs; the footer itself is
   not advanced). A merged unit's coverage is trivially small — its
   log was just compacted — and every other unit's claim is re-asserted
   unchanged. *)
let reassert t = List.iter (Meta_log.log t.meta) (standing t)

type coverage = (int, int * int * (int * int) list) Hashtbl.t

(* The effective checkpoint of the system log, per unit (used_log,
   overflow, counts), and its footer. [Ckpt_eu] records gather per unit
   until a [Ckpt] footer promotes the batch (a torn checkpoint —
   coverage without its footer — is discarded). A decoded footer is
   always usable: every status record its counts refer to was appended
   to the same log, and settled, before it.
   Any later merge or overflow release of a unit voids its coverage —
   the prefix it vouches for is gone. *)
let coverage events =
  let effective = Hashtbl.create 32 and pending = Hashtbl.create 32 and footer = ref None in
  List.iter
    (function
      | Meta_log.Merge { units; _ } ->
          List.iter
            (fun (phys, _) ->
              Hashtbl.remove effective phys;
              Hashtbl.remove pending phys)
            units
      | Meta_log.Overflow_release { data_eu = phys } ->
          Hashtbl.remove effective phys;
          Hashtbl.remove pending phys
      | Meta_log.Ckpt_eu { eu; used_log; overflow; counts } -> (
          match Hashtbl.find_opt pending eu with
          | Some (u, o, acc) -> Hashtbl.replace pending eu (u, o, acc @ counts)
          | None -> Hashtbl.replace pending eu (used_log, overflow, counts))
      | Meta_log.Ckpt { active } ->
          Hashtbl.iter (fun eu c -> Hashtbl.replace effective eu c) pending;
          footer := Some active;
          Hashtbl.reset pending
      | _ -> ())
    events;
  (effective, !footer)

(* Rebuild one unit's log usage and record counts at restart.
   Free-state scans cost no simulated time; the flash reads do. A unit
   the checkpoint vouches for has its counts seeded from the checkpoint
   and only its post-checkpoint delta read and decoded; any other unit
   is covered up to nothing, so its delta is its whole log. A unit whose
   covered prefix is non-empty is filed in the repair table, which
   records what first touch still owes; any other unit has been read in
   full, and its records go straight into the log-record cache as a
   restart miss. *)
let rescan t (cov : coverage) eu =
  eu.used_log <- used_sectors t ~base:(log_sector_addr t eu.phys 0) t.log_sectors;
  let ck_used, ck_over, ck_counts =
    match Hashtbl.find_opt cov eu.phys with
    | Some ((u, o, _) as c) when u <= eu.used_log && o <= List.length eu.overflow_rev -> c
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
    Hashtbl.replace t.repairs eu.phys
      {
        pre_in = ck_used;
        pre_over = ck_over;
        delta_in;
        delta_over;
        delta_pages = List.sort_uniq compare (List.map (fun r -> r.Log_record.page) delta);
      }
  else if Cache.Log_cache.enabled t.cache && not (eu_log_empty eu) then begin
    Cache.Log_cache.install t.cache eu.phys delta;
    cache_note t eu ~hit:false
  end

(* Settle a lazy restart's debt on one erase unit: the recovery scan
   already decoded the post-checkpoint delta and seeded the unit's record
   counts, so the only work left is warming the log-record cache — read
   the checkpointed prefix sectors, splice the delta behind them in flash
   order (in-region prefix, in-region delta, overflow prefix, overflow
   delta — exactly the order an uncached full scan produces) and install
   the result. With the cache disabled there is nothing to warm: every
   read re-scans the full log region anyway, so the entry is simply
   dropped. Either way the unit's pages count as repaired. *)
let repair_eu t eu e =
  Hashtbl.remove t.repairs eu.phys;
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
        e.delta_pages

(* First-touch hook: any access to an erase unit's log state — a page
   read, a log flush, a merge — repairs the unit first, so the cache can
   never be installed from a scan that misses post-restart appends and
   the repair table shrinks monotonically towards the fully-warm state. *)
let repair_eu_if_pending t eu =
  if Hashtbl.length t.repairs > 0 then
    match Hashtbl.find_opt t.repairs eu.phys with
    | None -> ()
    | Some e -> repair_eu t eu e

let repair_pending t = Hashtbl.length t.repairs

(* Background drainer: repair up to [max_eus] pending units
   (lowest-numbered first, a schedule independent of the table's
   layout), returning how many were repaired. *)
let repair_step t ~max_eus =
  let lowest phys e best =
    match best with Some (p, _) when p <= phys -> best | _ -> Some (phys, e)
  in
  let rec go n =
    if n >= max_eus then n
    else
      match Hashtbl.fold lowest t.repairs None with
      | None -> n
      | Some (phys, e) ->
          (match Hashtbl.find_opt t.data_eus phys with
          | Some eu -> repair_eu t eu e
          | None ->
              (* unreachable: merging a unit repairs it first, so a live
                 entry always has a live unit — but never loop on one *)
              Hashtbl.remove t.repairs phys);
          go (n + 1)
  in
  go 0

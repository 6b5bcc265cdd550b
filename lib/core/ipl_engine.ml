module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module FConfig = Flash_sim.Flash_config
module Page = Storage.Page
module Pool = Bufmgr.Buffer_pool

type frame = { page : Page.t; log : Log_sector.t }

type txn_info = { dirty_pages : (int, unit) Hashtbl.t }

type combined_stats = {
  storage : Ipl_storage.stats;
  pool : Pool.stats;
  flash : Flash_sim.Flash_stats.t;
  resilience : Resilience.Bbm.stats;
}

type error =
  | Page_full
  | Record_too_large
  | Range_too_large
  | No_such_slot
  | Range_out_of_bounds
  | Bad_record_length
  | Device_degraded
  | Read_failed
  | Device_fault

(* The strings reproduce the pre-typed-error API exactly, so callers that
   formatted engine errors keep their output. *)
let error_to_string = function
  | Page_full -> "page full"
  | Record_too_large -> "record too large to log"
  | Range_too_large -> "range too large to log"
  | No_such_slot -> "slot not live"
  | Range_out_of_bounds -> "range outside record"
  | Bad_record_length -> "bad record length"
  | Device_degraded -> "device degraded: read-only"
  | Read_failed -> "uncorrectable read error"
  | Device_fault -> "unrecoverable device fault"

(* The abstract handle is the raw id: the engine's own state is keyed by
   integer ids everywhere (log records, the transaction log), so the
   handle adds type safety at the boundary without a second table. *)
type txn = int

let no_txn = 0
let txn_id (tx : txn) = tx

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* Map the page layer's string errors onto the typed surface. Only the
   errors its update/delete entry points can produce appear here; anything
   else is a bug in this mapping. *)
let of_page_error = function
  | "page full" -> Page_full
  | "slot not live" -> No_such_slot
  | "range outside record" -> Range_out_of_bounds
  | "bad record length" -> Bad_record_length
  | s -> failwith ("Ipl_engine: unexpected page error: " ^ s)

type t = {
  config : Ipl_config.t;
  dev : Dev.t;
  store : Ipl_storage.t;
  bbm : Resilience.Bbm.t option;
  trx : Trx_log.t;
  pool : frame Pool.t;
  txns : (int, txn_info) Hashtbl.t;
  mutable next_txid : int;
  mutable pending_commits : int;
  mutable group_commit : int;  (* commit window; 0 = force at every commit *)
  mutable commits_since_ckpt : int;  (* fuzzy-checkpoint cadence counter *)
  mutable tracer : Obs.Tracer.t option;
}

let config t = t.config
let device t = t.dev

let storage t = t.store

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let flush_frame store trx page frame =
  if not (Log_sector.is_empty frame.log) then begin
    (* Write-ahead rule for transaction-status records: before any of a
       transaction's physiological records reach flash, its begin record
       must be durable, or a crash would leave records whose status lookup
       defaults to "committed". *)
    if Log_sector.has_user_txn frame.log then Trx_log.force trx;
    Ipl_storage.flush_log store ~page (Log_sector.records frame.log);
    Log_sector.clear frame.log
  end

(* A miss in a full pool re-reads the new page straight into the frame
   it just evicted, reusing both its page bytes and its log sector. An
   evicted frame is clean, and a clean frame's log is empty: a write-back
   or commit clears the log it flushes. The one exception is a flush that
   failed mid-update, which can leave records in a frame never marked
   dirty. Such a frame is dropped and the new page gets a fresh one, so
   the stale records cannot reach another page. *)
let fetch_frame store ~log_bytes pid evicted =
  match evicted with
  | Some frame when Log_sector.is_empty frame.log ->
      Ipl_storage.read_page_into store pid frame.page;
      frame
  | Some _ | None ->
      {
        page = Ipl_storage.read_page store pid;
        log = Log_sector.create ~capacity:log_bytes;
      }

let build config dev store bbm trx =
  let pool =
    Pool.create ~capacity:config.Ipl_config.buffer_pages
      ~fetch:(fetch_frame store ~log_bytes:(Dev.config dev).FConfig.sector_size)
      ~write_back:(fun pid frame -> flush_frame store trx pid frame)
      ()
  in
  {
    config;
    dev;
    store;
    bbm;
    trx;
    pool;
    txns = Hashtbl.create 64;
    next_txid = 1;
    pending_commits = 0;
    group_commit = 0;
    commits_since_ckpt = 0;
    tracer = None;
  }

(* Installing a tracer wires every layer to the same ring: the chips and
   storage manager stamp events themselves; the clock-agnostic buffer pool
   gets a closure that stamps with the device's simulated time. *)
let set_tracer t tracer =
  t.tracer <- tracer;
  Dev.set_tracer t.dev tracer;
  Ipl_storage.set_tracer t.store tracer;
  (match t.bbm with
  | Some d -> Resilience.Bbm.set_tracer d tracer
  | None -> ());
  Pool.set_trace t.pool
    (match tracer with
    | None -> None
    | Some tr -> Some (fun ev -> Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev) ev))

let tracer t = t.tracer

let emit_txn_event t ev =
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev) ev

(* Resilience layout: the spare pool lives in the last [spare_blocks]
   physical blocks of the chip, carved out of (never handed to) the
   storage manager's data area. The metadata and transaction log regions
   stay on the raw chip — the manager's own state is persisted through
   the metadata log, so routing that region through it would be
   circular. *)
let bbm_parts config dev ~meta =
  let spare_blocks = config.Ipl_config.spare_blocks in
  if spare_blocks = 0 then None
  else begin
    let fc = Dev.config dev in
    let spares =
      List.init spare_blocks (fun i -> fc.FConfig.num_blocks - spare_blocks + i)
    in
    let persist ev =
      Meta_log.log meta
        (match ev with
        | Resilience.Bbm.P_remap { virt; phys } -> Meta_log.Remap { virt; phys }
        | Resilience.Bbm.P_retire { block } -> Meta_log.Retire { block }
        | Resilience.Bbm.P_degraded -> Meta_log.Degraded)
    in
    Some (spares, persist, fun () -> Meta_log.force meta)
  end

let create_device ?(config = Ipl_config.default) ?(meta_blocks = 4) ?(trx_blocks = 4)
    dev =
  let fc = Dev.config dev in
  let reserved = meta_blocks + trx_blocks in
  if fc.FConfig.num_blocks <= reserved + config.Ipl_config.spare_blocks then
    invalid_arg "Ipl_engine: device too small";
  let meta = Meta_log.create dev ~first_block:0 ~num_blocks:meta_blocks in
  let trx = Trx_log.create dev ~first_block:meta_blocks ~num_blocks:trx_blocks in
  let bbm =
    match bbm_parts config dev ~meta with
    | None -> None
    | Some (spares, persist, force) ->
        Some (Resilience.Bbm.create dev ~spares ~persist ~force ())
  in
  let store =
    Ipl_storage.create ~config ?bbm dev ~first_block:reserved
      ~num_blocks:(fc.FConfig.num_blocks - reserved - config.Ipl_config.spare_blocks)
      ~txn_status:(Trx_log.status trx) ~meta ()
  in
  build config dev store bbm trx

let create ?config ?meta_blocks ?trx_blocks chip =
  create_device ?config ?meta_blocks ?trx_blocks (Dev.of_chip chip)

let restart_device ?(config = Ipl_config.default) ?(meta_blocks = 4) ?(trx_blocks = 4)
    dev =
  let fc = Dev.config dev in
  let reserved = meta_blocks + trx_blocks in
  let meta, events = Meta_log.recover dev ~first_block:0 ~num_blocks:meta_blocks in
  let trx, aborted = Trx_log.recover dev ~first_block:meta_blocks ~num_blocks:trx_blocks in
  let bbm =
    match bbm_parts config dev ~meta with
    | None -> None
    | Some (spares, persist, force) ->
        let bbm_events =
          List.filter_map
            (function
              | Meta_log.Remap { virt; phys } ->
                  Some (Resilience.Bbm.P_remap { virt; phys })
              | Meta_log.Retire { block } -> Some (Resilience.Bbm.P_retire { block })
              | Meta_log.Degraded -> Some Resilience.Bbm.P_degraded
              | _ -> None)
            events
        in
        Some (Resilience.Bbm.recover dev ~spares ~persist ~force ~events:bbm_events ())
  in
  let store =
    Ipl_storage.recover ~config ?bbm
      ~trx_durable:(Trx_log.durable_sectors trx) dev ~first_block:reserved
      ~num_blocks:(fc.FConfig.num_blocks - reserved - config.Ipl_config.spare_blocks)
      ~txn_status:(Trx_log.status trx) ~meta ~meta_events:events ()
  in
  let t = build config dev store bbm trx in
  t.next_txid <- max t.next_txid (Trx_log.max_txid trx + 1);
  (t, aborted)

let restart ?config ?meta_blocks ?trx_blocks chip =
  restart_device ?config ?meta_blocks ?trx_blocks (Dev.of_chip chip)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let begin_txn t =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  Hashtbl.replace t.txns txid { dirty_pages = Hashtbl.create 8 };
  Trx_log.log_begin t.trx txid;
  (* Publish the begin record now so its program overlaps the
     transaction's reads: the write-ahead settle at the first dirty flush
     then finds it long since completed instead of paying the program
     (and queueing) time inside the commit. *)
  Trx_log.publish t.trx;
  txid

let txn_status t txid = Trx_log.status t.trx txid

let txn_info t txid =
  match Hashtbl.find_opt t.txns txid with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Ipl_engine: unknown transaction %d" txid)

(* Fuzzy checkpoint cadence: once [checkpoint_every] transactions have
   committed since the last checkpoint, append one to the metadata log
   buffer. No force and no extra barrier — the records ride the next
   durability barrier like any other metadata, and a checkpoint torn by
   a crash is simply ignored at recovery. Called right after a commit
   barrier, so the recorded transaction-log watermark and the per-unit
   log coverage are consistent: everything the checkpoint claims is
   already durable. *)
let maybe_checkpoint t ~committed =
  let every = t.config.Ipl_config.checkpoint_every in
  if every > 0 then begin
    t.commits_since_ckpt <- t.commits_since_ckpt + committed;
    if t.commits_since_ckpt >= every then begin
      t.commits_since_ckpt <- 0;
      Ipl_storage.emit_checkpoint t.store ~active:(Trx_log.active t.trx)
        ~trx_watermark:(Trx_log.durable_sectors t.trx);
      Ipl_storage.publish_meta t.store
    end
  end

(* Make every batched commit durable: flush all dirty frames (their
   in-memory log sectors may mix records of several committed
   transactions), then force metadata and the commit records. *)
let flush_commits t =
  if t.pending_commits > 0 then begin
    Pool.flush_all t.pool;
    Ipl_storage.publish_meta t.store;
    (* Write-ahead settle: the data and metadata programs just published
       run on different channels than the transaction log, and the
       asynchronous scheduler completes them in any order — a commit
       record must not reach flash while one of its batch's log sectors
       is still in flight. *)
    Dev.barrier t.dev;
    Trx_log.flush_deferred t.trx;
    Trx_log.publish t.trx;
    (* The commit-record settle. Two waits per batch instead of the
       serial path's force-per-sector: still one commit-record program
       and two quiesces amortised over the whole batch. *)
    Dev.barrier t.dev;
    let committed = t.pending_commits in
    t.pending_commits <- 0;
    maybe_checkpoint t ~committed
  end

let commit t txid =
  let info = txn_info t txid in
  let group = t.group_commit in
  if group > 0 then begin
    (* Group commit: the transaction is committed for every live reader,
       but its commit record stays out of the log buffer until the batch
       flush — data records must reach flash first (see
       {!Trx_log.defer_commit}). *)
    Trx_log.defer_commit t.trx txid;
    Hashtbl.remove t.txns txid;
    t.pending_commits <- t.pending_commits + 1;
    emit_txn_event t (Obs.Event.Commit { tx = txid });
    if t.pending_commits >= group then flush_commits t
  end
  else begin
    (* Force every in-memory log sector holding one of our records. *)
    Hashtbl.iter
      (fun pid () ->
        match Pool.find t.pool pid with
        | Some frame when Log_sector.has_txid frame.log txid ->
            flush_frame t.store t.trx pid frame;
            Pool.clean t.pool pid
        | _ -> ())
      info.dirty_pages;
    Ipl_storage.publish_meta t.store;
    Trx_log.log_commit ~force:false t.trx txid;
    Trx_log.publish t.trx;
    (* The commit's one durability wait: every asynchronous program this
       transaction issued — log flushes, the metadata and commit-record
       sectors just published — completes before commit returns. *)
    Dev.barrier t.dev;
    Hashtbl.remove t.txns txid;
    maybe_checkpoint t ~committed:1;
    emit_txn_event t (Obs.Event.Commit { tx = txid })
  end

let abort t txid =
  let info = txn_info t txid in
  Trx_log.log_abort t.trx txid;
  (* Rebuild every touched, still-buffered page: the flash read path now
     filters out this transaction's records; surviving in-memory records
     of other transactions are re-applied on top. The fresh images are
     fetched as one batch so the rebuild reads overlap across
     channels. *)
  let resident =
    Hashtbl.fold
      (fun pid () acc -> if Pool.find t.pool pid <> None then pid :: acc else acc)
      info.dirty_pages []
    |> List.sort compare
  in
  List.iter
    (fun (pid, fresh) ->
      match Pool.find t.pool pid with
      | Some frame ->
          ignore (Log_sector.remove_txn frame.log txid);
          Bytes.blit (Page.to_bytes fresh) 0 (Page.to_bytes frame.page) 0
            (Bytes.length (Page.to_bytes fresh));
          List.iter
            (fun r ->
              match Log_record.apply frame.page r with
              | Ok () -> ()
              | Error msg -> failwith ("Ipl_engine.abort: replay failed: " ^ msg))
            (Log_sector.records frame.log);
          if Log_sector.is_empty frame.log then Pool.clean t.pool pid
      | None -> ())
    (Ipl_storage.read_pages t.store resident);
  Hashtbl.remove t.txns txid;
  emit_txn_event t (Obs.Event.Abort { tx = txid })

(* ------------------------------------------------------------------ *)
(* Page operations                                                     *)

let allocate_page_with t page = Ipl_storage.allocate_page t.store page

let allocate_page t = allocate_page_with t (Page.create t.config.Ipl_config.page_size)

let page_count t = Ipl_storage.num_pages t.store

let note_dirty t ~tx ~page =
  if tx <> 0 then Hashtbl.replace (txn_info t tx).dirty_pages page ()

(* Rebuild a frame's page image from flash plus its surviving buffered
   records, re-reading straight into the frame's own bytes. Used when a
   mutation already applied to the in-memory page cannot be logged (the
   flush of a full log sector failed): dropping the unlogged mutation
   keeps the invariant that the image always equals the flash state plus
   the in-memory log sector. A failed re-read may leave the stored image
   in the frame without its log applied. On a dead chip, where the
   re-read itself fails, that is fine: every subsequent operation fails
   too and restart recovery reads only flash. *)
let restore_frame t ~page frame =
  try
    Ipl_storage.read_page_into t.store page frame.page;
    List.iter
      (fun r ->
        match Log_record.apply frame.page r with
        | Ok () -> ()
        | Error msg ->
            Logs.warn (fun m ->
                m "restore_frame: replay of buffered record on page %d failed: %s" page msg))
      (Log_sector.records frame.log)
  with
  | Chip.Power_loss _ | Chip.Read_error _ -> ()
  | exn ->
      Logs.warn (fun m ->
          m "restore_frame: page %d re-read failed: %s" page (Printexc.to_string exn))

let add_record t frame ~page record =
  match Log_sector.add frame.log record with
  | `Added -> ()
  | `Full -> (
      (try flush_frame t.store t.trx page frame
       with e ->
         restore_frame t ~page frame;
         raise e);
      match Log_sector.add frame.log record with
      | `Added -> ()
      | `Full -> assert false (* empty sector accepts any record Log_sector admits *))

(* Fault trap around the result-returning read entry points: every
   device-contract exception — the bad-block manager's (spare pool
   exhausted mid-operation, a read that failed all its retries) and the
   raw chip's (no manager installed) — becomes a typed error instead of
   escaping to the caller. Power_loss is deliberately NOT caught: crash
   simulation must unwind the whole stack. *)
let trap f =
  try f () with
  | Resilience.Bbm.Degraded -> Error Device_degraded
  | Resilience.Bbm.Uncorrectable _ | Chip.Read_error _ -> Error Read_failed
  | Chip.Program_error _ | Chip.Erase_error _ -> Error Device_fault

(* Resilience guard around the result-returning mutation entry points:
   once the device is read-only every mutation is refused up front; any
   fault mid-operation surfaces as the same typed errors as [trap]. The
   try/with is spelled out (not delegated to [trap]) so the analyzer's
   per-function catch sets see it directly. *)
let guard t f =
  let refused =
    match t.bbm with Some d -> Resilience.Bbm.degraded d | None -> false
  in
  if refused then Error Device_degraded
  else
    try f () with
    | Resilience.Bbm.Degraded -> Error Device_degraded
    | Resilience.Bbm.Uncorrectable _ | Chip.Read_error _ -> Error Read_failed
    | Chip.Program_error _ | Chip.Erase_error _ -> Error Device_fault

let mutate t ~tx ~page f =
  guard t (fun () ->
      Pool.with_page t.pool page ~dirty:true (fun frame ->
          match f frame.page with
          | Ok record ->
              add_record t frame ~page record;
              note_dirty t ~tx ~page;
              Ok ()
          | Error _ as e -> e))

(* Largest record payload the logging path accepts: one record must fit an
   empty in-memory log sector. *)
let max_record_payload t =
  (Dev.config t.dev).FConfig.sector_size - Log_sector.header_size - 13

let insert t ~tx ~page data =
  if Bytes.length data > max_record_payload t then Error Record_too_large
  else
    guard t (fun () ->
        Pool.with_page t.pool page ~dirty:true (fun frame ->
            match Page.insert frame.page data with
            | None -> Error Page_full
            | Some slot ->
                add_record t frame ~page
                  { Log_record.txid = tx; page; op = Log_record.Insert { slot; record = data } };
                note_dirty t ~tx ~page;
                Ok slot))

let delete t ~tx ~page ~slot =
  mutate t ~tx ~page (fun p ->
      match Page.read p slot with
      | None -> Error No_such_slot
      | Some before -> (
          match Page.delete p slot with
          | Error e -> Error (of_page_error e)
          | Ok () ->
              Ok { Log_record.txid = tx; page; op = Log_record.Delete { slot; before } }))

(* Equal-length updates are logged as byte-range deltas: one record per
   differing range (nearby ranges coalesced), each chunked so it fits a
   log sector. *)
let update_range_records t ~tx ~page ~slot ~before ~data =
  let chunk = (max_record_payload t - 15) / 2 in
  List.concat_map
    (fun (off, len) ->
      let rec split off len acc =
        if len <= 0 then List.rev acc
        else
          let n = min len chunk in
          let r =
            {
              Log_record.txid = tx;
              page;
              op =
                Log_record.Update_range
                  {
                    slot;
                    offset = off;
                    before = Bytes.sub before off n;
                    after = Bytes.sub data off n;
                  };
            }
          in
          split (off + n) (len - n) (r :: acc)
      in
      split off len [])
    (Ipl_util.Diff.ranges before data)

let update t ~tx ~page ~slot data =
  guard t @@ fun () ->
  Pool.with_page t.pool page (fun frame ->
      match Page.read frame.page slot with
      | None -> Error No_such_slot
      | Some before ->
          if Bytes.length before = Bytes.length data then begin
            match update_range_records t ~tx ~page ~slot ~before ~data with
            | [] -> Ok () (* no change: nothing to apply or log *)
            | records ->
                (* Log before applying: [add_record] never touches the page,
                   so if the log sector's flush fails mid-way the page image
                   covers exactly the records logged so far and nothing
                   half-applied. *)
                List.iter
                  (fun r ->
                    add_record t frame ~page r;
                    match Log_record.apply frame.page r with
                    | Ok () -> ()
                    | Error msg -> failwith ("Ipl_engine.update: " ^ msg))
                  records;
                Pool.mark_dirty t.pool page;
                note_dirty t ~tx ~page;
                Ok ()
          end
          else if Bytes.length data > max_record_payload t then Error Record_too_large
          else begin
            (* Size-changing replacement. When the combined before/after
               image fits one record, log Update_full; otherwise log it as
               a delete + insert pair (same replay semantics). *)
            match Page.update frame.page slot data with
            | Error e -> Error (of_page_error e)
            | Ok () ->
                let combined = 15 + Bytes.length before + Bytes.length data in
                if combined <= max_record_payload t + 13 then
                  add_record t frame ~page
                    {
                      Log_record.txid = tx;
                      page;
                      op = Log_record.Update_full { slot; before; after = data };
                    }
                else begin
                  add_record t frame ~page
                    { Log_record.txid = tx; page; op = Log_record.Delete { slot; before } };
                  add_record t frame ~page
                    { Log_record.txid = tx; page; op = Log_record.Insert { slot; record = data } }
                end;
                Pool.mark_dirty t.pool page;
                note_dirty t ~tx ~page;
                Ok ()
          end)

let update_range t ~tx ~page ~slot ~offset data =
  mutate t ~tx ~page (fun p ->
      match Page.read p slot with
      | None -> Error No_such_slot
      | Some record ->
          let len = Bytes.length data in
          if offset < 0 || offset + len > Bytes.length record then Error Range_out_of_bounds
          else if (2 * len) + 15 > max_record_payload t + 13 then Error Range_too_large
          else begin
            let before = Bytes.sub record offset len in
            match Page.update_bytes p ~slot ~offset data with
            | Error e -> Error (of_page_error e)
            | Ok () ->
                Ok
                  {
                    Log_record.txid = tx;
                    page;
                    op = Log_record.Update_range { slot; offset; before; after = data };
                  }
          end)

let read t ~page ~slot = Pool.with_page t.pool page (fun frame -> Page.read frame.page slot)

(* Batched read-ahead: fetch the missing pages of the batch through the
   storage manager's parallel read path and install them as clean
   frames. Pages already resident, unknown ids and duplicates are
   skipped — resident members are bumped to most-recently-used first, so
   the batch's own preloads cannot evict them before they are used. The
   engine's read path is unchanged — a later [read] of a prefetched page
   is simply a pool hit. *)
type prefetch_token = Ipl_storage.read_batch

let prefetch_start t pids =
  let seen = Hashtbl.create 16 in
  let wanted =
    List.filter
      (fun pid ->
        (not (Hashtbl.mem seen pid))
        && begin
             Hashtbl.add seen pid ();
             Ipl_storage.page_exists t.store pid
             &&
             if Pool.contains t.pool pid then begin
               Pool.promote t.pool pid;
               false
             end
             else true
           end)
      pids
  in
  Ipl_storage.read_pages_start t.store wanted

let prefetch_finish t token =
  List.iter
    (fun (pid, page) ->
      Pool.preload t.pool pid
        { page; log = Log_sector.create ~capacity:(Dev.config t.dev).FConfig.sector_size })
    (Ipl_storage.read_pages_finish t.store token)

let prefetch t pids = prefetch_finish t (prefetch_start t pids)

let with_page t page f = Pool.with_page t.pool page (fun frame -> f frame.page)

let page_free_space t page = with_page t page Page.free_space

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

let drain_repairs t ~max_eus = Ipl_storage.repair_step t.store ~max_eus

let checkpoint t =
  t.pending_commits <- 0;
  (* Settle any outstanding lazy-restart repairs first: the fresh fuzzy
     checkpoint emitted below claims exact coverage of every unit's log,
     which an unrepaired unit can honour but the repair-table bookkeeping
     is simplest when a full checkpoint leaves nothing owed. *)
  let (_ : int) = Ipl_storage.repair_step t.store ~max_eus:max_int in
  Pool.flush_all t.pool;
  Ipl_storage.force_meta t.store;
  Trx_log.flush_deferred t.trx;
  Trx_log.force t.trx;
  (* The explicit checkpoint doubles as a fuzzy-checkpoint emission
     point (forced, unlike the cadence-driven ones), so a restart
     after a clean checkpoint has nothing to rescan. *)
  if t.config.Ipl_config.checkpoint_every > 0 then begin
    t.commits_since_ckpt <- 0;
    Ipl_storage.emit_checkpoint t.store ~active:(Trx_log.active t.trx)
      ~trx_watermark:(Trx_log.durable_sectors t.trx);
    Ipl_storage.force_meta t.store
  end;
  (* A checkpoint is a full quiesce: background relocation traffic
     settles too, not just the durability classes. *)
  Dev.drain t.dev;
  emit_txn_event t Obs.Event.Checkpoint

let compact t ~max_merges =
  (* Proactive background merging: take the merge cost off the next
     unlucky writer's critical path. Post-crash repairs drain at the
     same bounded rate — both are idle-time catch-up work. Flush first
     so pending records are included. *)
  let (_ : int) = Ipl_storage.repair_step t.store ~max_eus:max_merges in
  Pool.flush_all t.pool;
  Ipl_storage.merge_fullest t.store ~max_merges

(* ------------------------------------------------------------------ *)
(* Public surface                                                      *)

(* The raising implementations above become the [Unsafe] test shim; the
   exported API shadows them with guard/trap-wrapped result variants.
   Mutations go through [guard] (refused up front on a degraded device);
   read-side entry points go through [trap] only — a read-only device
   still serves committed data. *)
module Unsafe = struct
  let begin_txn = begin_txn
  let commit = commit
  let abort = abort
  let flush_commits = flush_commits
  let txn (tx : int) : txn = tx
  let insert = insert
  let delete = delete
  let update = update
  let update_range = update_range
  let read = read
  let allocate_page = allocate_page
  let allocate_page_with = allocate_page_with
  let prefetch = prefetch
  let with_page = with_page
  let page_free_space = page_free_space
  let checkpoint = checkpoint
  let compact = compact
  let drain_repairs = drain_repairs
end

let begin_txn t = guard t (fun () -> Ok (Unsafe.begin_txn t))
let commit t tx = guard t (fun () -> Ok (Unsafe.commit t tx))

(* [trap], not [guard]: rollback is primarily an in-memory de-application
   and must still run on a degraded (read-only) device — only the abort
   record's flash append may fail, and that failure surfaces as the
   device error after the in-memory state has been unwound. *)
let abort t tx = trap (fun () -> Ok (Unsafe.abort t tx))

let flush_commits t = guard t (fun () -> Ok (Unsafe.flush_commits t))
let set_group_commit t n = t.group_commit <- n
let pending_commits t = t.pending_commits
let elapsed t = Dev.elapsed t.dev
let allocate_page t = guard t (fun () -> Ok (Unsafe.allocate_page t))
let allocate_page_with t page = guard t (fun () -> Ok (Unsafe.allocate_page_with t page))
let read t ~page ~slot = trap (fun () -> Ok (Unsafe.read t ~page ~slot))
let prefetch t pids = trap (fun () -> Ok (Unsafe.prefetch t pids))
let prefetch_start t pids = trap (fun () -> Ok (prefetch_start t pids))
let prefetch_finish t token = trap (fun () -> Ok (prefetch_finish t token))
let with_page t page f = trap (fun () -> Ok (Unsafe.with_page t page f))
let page_free_space t page = trap (fun () -> Ok (Unsafe.page_free_space t page))
let checkpoint t = guard t (fun () -> Ok (Unsafe.checkpoint t))
let compact t ~max_merges = guard t (fun () -> Ok (Unsafe.compact t ~max_merges))
let repair_pending t = Ipl_storage.repair_pending t.store

(* [trap], not [guard]: repair only reads flash and installs cache
   entries, so it must keep draining on a degraded (read-only) device. *)
let drain_repairs t ~max_eus = trap (fun () -> Ok (Unsafe.drain_repairs t ~max_eus))

let degraded t =
  match t.bbm with Some d -> Resilience.Bbm.degraded d | None -> false

let spares_left t =
  match t.bbm with Some d -> Resilience.Bbm.spares_left d | None -> 0

let bbm t = t.bbm

let stats t =
  {
    storage = Ipl_storage.stats t.store;
    pool = Pool.stats t.pool;
    flash = Dev.stats t.dev;
    resilience =
      (match t.bbm with
      | Some d -> Resilience.Bbm.stats d
      | None -> Resilience.Bbm.Stats.zero);
  }

module Stats = struct
  type t = combined_stats

  let zero =
    {
      storage = Ipl_storage.Stats.zero;
      pool = Pool.Stats.zero;
      flash = Flash_sim.Flash_stats.zero;
      resilience = Resilience.Bbm.Stats.zero;
    }

  let add a b =
    {
      storage = Ipl_storage.Stats.add a.storage b.storage;
      pool = Pool.Stats.add a.pool b.pool;
      flash = Flash_sim.Flash_stats.add a.flash b.flash;
      resilience = Resilience.Bbm.Stats.add a.resilience b.resilience;
    }

  let diff a b =
    {
      storage = Ipl_storage.Stats.diff a.storage b.storage;
      pool = Pool.Stats.diff a.pool b.pool;
      flash = Flash_sim.Flash_stats.diff a.flash b.flash;
      resilience = Resilience.Bbm.Stats.diff a.resilience b.resilience;
    }

  let pp ppf t =
    Format.fprintf ppf "@[<v>flash: %a@,%a@,pool: %a@,%a@]" Flash_sim.Flash_stats.pp
      t.flash Ipl_storage.Stats.pp t.storage Pool.Stats.pp t.pool
      Resilience.Bbm.Stats.pp t.resilience

  let to_json t =
    Ipl_util.Json.Obj
      [
        ("storage", Ipl_storage.Stats.to_json t.storage);
        ("pool", Pool.Stats.to_json t.pool);
        ("flash", Flash_sim.Flash_stats.to_json t.flash);
        ("resilience", Resilience.Bbm.Stats.to_json t.resilience);
      ]
end

(* The engine's surface: construction and restart, the typed-error
   traps, and the result-returning entry points. Its parts, each private
   to this library: the shared record and the error type
   ([Engine_state]), the frame layer ([Engine_frames]), transactions and
   the commit protocol ([Engine_txn]), and record operations with the
   update-logging policy ([Engine_ops]). *)
open Engine_state
module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module Bbm = Resilience.Bbm
module FConfig = Flash_sim.Flash_config
module Page = Storage.Page
module Pool = Bufmgr.Buffer_pool

type error = Engine_state.error =
  | Page_full
  | Record_too_large
  | Range_too_large
  | No_such_slot
  | Range_out_of_bounds
  | Bad_record_length
  | Device_degraded
  | Read_failed
  | Device_fault
  | Replay_failed of Log_record.replay_failure

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
  | Replay_failed f -> Format.asprintf "%a" Log_record.pp_replay_failure f

(* The abstract handle is the raw id: the engine's own state is keyed by
   integer ids everywhere (log records, the transaction log), so the
   handle adds type safety at the boundary without a second table. *)
type txn = int

let no_txn = 0
let txn_id (tx : txn) = tx

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type nonrec t = t

let config t = t.config
let device t = t.dev

let storage t = t.store
let system_log t = t.meta

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* The one system log's compaction snapshot: the storage manager's
   mapping, then the transaction statuses. *)
let build config dev meta store bbm trx =
  Meta_log.set_snapshot meta (fun () -> Ipl_storage.snapshot store @ Trx_log.snapshot trx);
  {
    config;
    dev;
    store;
    meta;
    bbm;
    trx;
    pool =
      Engine_frames.create_pool config meta store
        ~sector_size:(Dev.config dev).FConfig.sector_size;
    txns = Hashtbl.create 64;
    next_txid = 1;
    pending_commits = 0;
    group_commit = 1;
    tracer = None;
  }

(* Installing a tracer wires every layer to the same ring: the chips and
   storage manager stamp events themselves; the clock-agnostic buffer pool
   gets a closure that stamps with the device's simulated time. *)
let set_tracer t tracer =
  t.tracer <- tracer;
  Dev.set_tracer t.dev tracer;
  Ipl_storage.set_tracer t.store tracer;
  Bbm.set_tracer t.bbm tracer;
  Pool.set_trace t.pool
    (match tracer with
    | None -> None
    | Some tr -> Some (fun ev -> Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev) ev))

let tracer t = t.tracer

(* Resilience layout: the system log takes the first [log_blocks]
   blocks of the device, and the spare pool the last [spare_blocks]
   physical blocks, carved out of (never handed to) the storage
   manager's data area; with [spare_blocks = 0] the pool is empty. The
   system log stays on the raw device — the manager's own state is
   persisted through it, so routing that region through the manager
   would be circular. A fresh database has no [events] to replay. *)
let log_blocks = 8

let data_area config dev ~meta ~events =
  let n = config.Ipl_config.spare_blocks and fc = Dev.config dev in
  Bbm.recover dev
    ~spares:(List.init n (fun i -> fc.FConfig.num_blocks - n + i))
    ~persist:(fun ev -> Meta_log.log meta (Meta_log.of_bbm_event ev))
    ~force:(fun () -> Meta_log.force meta)
    ~events ()

let data_blocks config dev =
  (Dev.config dev).FConfig.num_blocks - log_blocks - config.Ipl_config.spare_blocks

let create_device ?(config = Ipl_config.default) dev =
  if data_blocks config dev <= 0 then invalid_arg "Ipl_engine: device too small";
  let meta = Meta_log.create dev ~first_block:0 ~num_blocks:log_blocks in
  let bbm = data_area config dev ~meta ~events:[] in
  let trx = Trx_log.create meta in
  let store =
    Ipl_storage.create ~config bbm ~first_block:log_blocks
      ~num_blocks:(data_blocks config dev) ~txn_status:(Trx_log.status trx) ~meta ()
  in
  build config dev meta store bbm trx

let create ?config chip = create_device ?config (Dev.of_chip chip)

(* One scan of the system log yields the mapping and the transaction
   statuses; no in-page log is read until an access needs it. The
   transactions the crash interrupted are aborted once the compaction
   snapshot is registered, since their abort records may fill the
   region. *)
let restart_device ?(config = Ipl_config.default) dev =
  let meta, events = Meta_log.recover dev ~first_block:0 ~num_blocks:log_blocks in
  let trx = Trx_log.recover meta events in
  let bbm = data_area config dev ~meta ~events:(List.filter_map Meta_log.to_bbm_event events) in
  let store =
    Ipl_storage.recover ~config bbm ~first_block:log_blocks
      ~num_blocks:(data_blocks config dev) ~txn_status:(Trx_log.status trx) ~meta
      ~meta_events:events ()
  in
  let t = build config dev meta store bbm trx in
  let aborted = Trx_log.abort_active trx in
  t.next_txid <- Trx_log.max_txid trx + 1;
  (t, aborted)

let restart ?config chip = restart_device ?config (Dev.of_chip chip)

(* ------------------------------------------------------------------ *)
(* Transactions and pages                                              *)

let txn_status t txid = Trx_log.status t.trx txid

let page_count t = Ipl_storage.num_pages t.store
let max_record_payload = Engine_ops.max_record_payload

(* Fault trap around the result-returning read entry points: every
   device-contract exception — the bad-block manager's (spare pool
   exhausted mid-operation, a read that failed all its retries) and the
   raw chip's (the system log sits on the chip) —
   becomes a typed error instead of escaping to the caller, and so does
   a page rebuild whose log records no longer apply. Power_loss is
   deliberately NOT caught: crash simulation must unwind the whole
   stack. *)
let trap f =
  try f () with
  | Bbm.Degraded -> Error Device_degraded
  | Bbm.Uncorrectable _ | Chip.Read_error _ -> Error Read_failed
  | Chip.Program_error _ | Chip.Erase_error _ -> Error Device_fault
  | Log_record.Replay_failed f -> Error (Replay_failed f)

(* Resilience guard around the result-returning mutation entry points:
   once the device is read-only every mutation is refused up front; any
   fault mid-operation surfaces as the same typed errors as [trap]. The
   try/with is spelled out (not delegated to [trap]) so the analyzer's
   per-function catch sets see it directly. *)
let guard t f =
  if Bbm.degraded t.bbm then Error Device_degraded
  else
    try f () with
    | Bbm.Degraded -> Error Device_degraded
    | Bbm.Uncorrectable _ | Chip.Read_error _ -> Error Read_failed
    | Chip.Program_error _ | Chip.Erase_error _ -> Error Device_fault
    | Log_record.Replay_failed f -> Error (Replay_failed f)

(* The record operations return results already, so their guarded forms
   are both the public API and [Unsafe]'s. An oversized insert is refused
   as such before the guard, even on a degraded device. *)
let insert t ~tx ~page data =
  if Bytes.length data > max_record_payload t then Error Record_too_large
  else guard t (fun () -> Engine_ops.insert t ~tx ~page data)

let delete t ~tx ~page ~slot = guard t (fun () -> Engine_ops.delete t ~tx ~page ~slot)
let update t ~tx ~page ~slot data = guard t (fun () -> Engine_ops.update t ~tx ~page ~slot data)

let update_range t ~tx ~page ~slot ~offset data =
  guard t (fun () -> Engine_ops.update_range t ~tx ~page ~slot ~offset data)

let allocate_page_with t page = Ipl_storage.allocate_page t.store page
let allocate_page t = allocate_page_with t (Page.create t.config.Ipl_config.page_size)
let read t ~page ~slot = Pool.with_page t.pool page (fun frame -> Page.read frame.page slot)
let with_page t page f = Pool.with_page t.pool page (fun frame -> f frame.page)

type prefetch_token = Ipl_storage.read_batch

let compact t ~max_merges =
  (* Proactive background merging: take a merge the write path already
     owes off the next unlucky writer's critical path. Flush first so
     pending records are included. *)
  Pool.flush_all t.pool;
  Ipl_storage.merge_due_units t.store ~max_merges

(* ------------------------------------------------------------------ *)
(* Public surface                                                      *)

(* The raising implementations become the [Unsafe] test shim; the
   exported API shadows them with guard/trap-wrapped result variants.
   Mutations go through [guard] (refused up front on a degraded device);
   read-side entry points go through [trap] only — a read-only device
   still serves committed data. *)
module Unsafe = struct
  let begin_txn = Engine_txn.begin_txn
  let commit = Engine_txn.commit
  let abort = Engine_txn.abort
  let flush_commits = Engine_txn.flush_commits
  let txn (tx : int) : txn = tx
  let insert = insert
  let delete = delete
  let update = update
  let update_range = update_range
  let read = read
  let allocate_page = allocate_page
  let allocate_page_with = allocate_page_with
  let with_page = with_page
  let checkpoint = Engine_txn.checkpoint
  let compact = compact

  let buffered_log t page =
    Option.map (fun frame -> Log_sector.records frame.log) (Pool.find t.pool page)
end

let begin_txn t = guard t (fun () -> Ok (Unsafe.begin_txn t))
let commit t tx = guard t (fun () -> Ok (Unsafe.commit t tx))

(* [trap], not [guard]: rollback is primarily an in-memory rebuild and
   must still run on a degraded (read-only) device — only the abort
   record's flash append may fail, and that failure surfaces as the
   device error after the in-memory state has been unwound. *)
let abort t tx = trap (fun () -> Ok (Unsafe.abort t tx))

let flush_commits t = guard t (fun () -> Ok (Unsafe.flush_commits t))
let set_group_commit t n =
  if n < 1 then invalid_arg "Ipl_engine.set_group_commit: window must be at least 1";
  t.group_commit <- n

let pending_commits t = t.pending_commits
let elapsed t = Dev.elapsed t.dev
let allocate_page t = guard t (fun () -> Ok (Unsafe.allocate_page t))
let allocate_page_with t page = guard t (fun () -> Ok (Unsafe.allocate_page_with t page))
let read t ~page ~slot = trap (fun () -> Ok (Unsafe.read t ~page ~slot))
let prefetch_start t pids = trap (fun () -> Ok (Engine_frames.prefetch_start t pids))
let prefetch_finish t token = trap (fun () -> Ok (Engine_frames.prefetch_finish t token))
let with_page t page f = trap (fun () -> Ok (Unsafe.with_page t page f))
let checkpoint t = guard t (fun () -> Ok (Unsafe.checkpoint t))
let compact t ~max_merges = guard t (fun () -> Ok (Unsafe.compact t ~max_merges))
let repair_pending (_ : t) = 0

let degraded t = Bbm.degraded t.bbm
let spares_left t = Bbm.spares_left t.bbm

type combined_stats = {
  storage : Ipl_storage.stats;
  pool : Pool.stats;
  flash : Flash_sim.Flash_stats.t;
  resilience : Bbm.stats;
}

let stats t =
  {
    storage = Ipl_storage.stats t.store;
    pool = Pool.stats t.pool;
    flash = Dev.stats t.dev;
    resilience = Bbm.stats t.bbm;
  }

module Stats = struct
  type t = combined_stats

  let to_json t =
    Ipl_util.Json.Obj
      [
        ("storage", Ipl_storage.Stats.to_json t.storage);
        ("pool", Pool.Stats.to_json t.pool);
        ("flash", Flash_sim.Flash_stats.to_json t.flash);
        ("resilience", Bbm.Stats.to_json t.resilience);
      ]
end

(* Transactions and the commit protocol: begin, the batched commit and
   its flush, abort by rebuild, and the quiescing checkpoint. *)
open Engine_state
module Dev = Device.Flash_device
module Pool = Bufmgr.Buffer_pool

let begin_txn t =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  Hashtbl.replace t.txns txid { dirty_pages = Hashtbl.create 8 };
  Trx_log.log_begin t.trx txid;
  txid

(* Make every batched commit durable: flush all dirty frames (their
   in-memory log sectors may mix records of several committed
   transactions, and records written with [no_txn]), then force metadata
   and the commit records. *)
let flush_commits t =
  if t.pending_commits > 0 then begin
    Pool.flush_all t.pool;
    Meta_log.publish t.meta;
    (* Write-ahead settle: the in-page log and system-log programs just
       published run on different channels, and the asynchronous
       scheduler completes them in any order — a commit record must not
       reach flash while one of its batch's log sectors is still in
       flight. *)
    Dev.barrier t.dev;
    Trx_log.flush_deferred t.trx;
    Meta_log.publish t.meta;
    (* The commit-record settle, the batch's second and last wait. *)
    Dev.barrier t.dev;
    t.pending_commits <- 0
  end

(* Section 5.2's no-force-of-data / force-log-at-commit policy, batched:
   the transaction is committed for every live reader, but its commit
   record stays out of the log buffer until the batch flush — data
   records must reach flash first (see {!Trx_log.defer_commit}). The
   commit that fills the window runs the flush; if that raises, this
   transaction leaves the batch and is open again — active, if its
   commit record was not yet appended — so the caller can abort it. The
   batch's other members stay pending: their handles are dead, so none
   can be aborted after its commit record was deferred. *)
let commit t txid =
  let info = txn_info t txid in
  Trx_log.defer_commit t.trx txid;
  Hashtbl.remove t.txns txid;
  t.pending_commits <- t.pending_commits + 1;
  emit_txn_event t (Obs.Event.Commit { tx = txid });
  if t.pending_commits >= t.group_commit then
    try flush_commits t
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Trx_log.reopen t.trx txid;
      Hashtbl.replace t.txns txid info;
      t.pending_commits <- t.pending_commits - 1;
      Printexc.raise_with_backtrace e bt

(* Rebuild every touched, still-buffered page: the flash read path now
   filters out this transaction's records, and the surviving in-memory
   records of other transactions are replayed on top. The fresh images
   are fetched as one batch so the rebuild reads overlap across
   channels. *)
let abort t txid =
  let info = txn_info t txid in
  Trx_log.log_abort t.trx txid;
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
          let src = Storage.Page.to_bytes fresh in
          Engine_frames.rebuild_frame frame ~load:(fun page ->
              Bytes.blit src 0 (Storage.Page.to_bytes page) 0 (Bytes.length src));
          if Log_sector.is_empty frame.log then Pool.clean t.pool pid
      | None -> ())
    (Ipl_storage.read_pages t.store resident);
  Hashtbl.remove t.txns txid;
  emit_txn_event t (Obs.Event.Abort { tx = txid })

(* A full quiesce: every commit of the window durable, every dirty frame
   flushed, the system log forced, and background relocation traffic
   settled too, not just the durability classes. *)
let checkpoint t =
  flush_commits t;
  Pool.flush_all t.pool;
  Meta_log.force t.meta;
  Dev.drain t.dev;
  emit_txn_event t Obs.Event.Checkpoint

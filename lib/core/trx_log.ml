type status = Active | Committed | Aborted

type t = {
  log : Meta_log.t;
  statuses : (int, status) Hashtbl.t;
  mutable deferred : int list;  (* group-commit records not yet in the log; newest first *)
  mutable high : int;  (* highest id begun, or carried by a [Trx_high] *)
}

let create log = { log; statuses = Hashtbl.create 256; deferred = []; high = 0 }

(* The write-ahead rule for begin records: none of a transaction's
   in-page records may reach flash before its begin record, or a crash
   would leave records whose status defaults to "committed". The record
   is published here, so its program overlaps the transaction's work and
   the settle at the first dirty-frame flush finds it long since done. *)
let log_begin t txid =
  Hashtbl.replace t.statuses txid Active;
  t.high <- max t.high txid;
  Meta_log.log t.log (Meta_log.Trx_begin { txid });
  Meta_log.publish t.log

(* Group commit's write-ahead discipline, the mirror image of the begin
   record's: a commit record may only reach flash AFTER the batch's data
   records, but a force (a merge, an abort, a bad-block remap), a
   compaction or the publish at every begin can push the shared
   sector buffer out at any moment. So a deferred commit lives outside
   the buffer entirely — visible to live status queries, invisible to
   flash — until {!flush_deferred} appends the batch at the barrier. *)
let defer_commit t txid =
  Hashtbl.replace t.statuses txid Committed;
  t.deferred <- txid :: t.deferred

let is_deferred t txid = List.mem txid t.deferred

let reopen t txid =
  if is_deferred t txid then begin
    t.deferred <- List.filter (fun d -> d <> txid) t.deferred;
    Hashtbl.replace t.statuses txid Active
  end

let flush_deferred t =
  let batch = List.rev t.deferred in
  t.deferred <- [];
  List.iter (fun txid -> Meta_log.log t.log (Meta_log.Trx_commit { txid })) batch

let log_abort t txid =
  Hashtbl.replace t.statuses txid Aborted;
  Meta_log.log t.log (Meta_log.Trx_abort { txid });
  Meta_log.force t.log

(* A deferred commit reports [Active]: its commit record is not on flash
   yet, so nothing irreversible may happen to its in-page records — in
   particular a merge must carry them forward into the new erase unit
   rather than bake them into the home page, where a crash before the
   group barrier could no longer roll them back. Reads are unaffected
   (they skip only [Aborted] records). *)
let status t txid =
  if txid = 0 then Committed
  else if is_deferred t txid then Active
  else match Hashtbl.find_opt t.statuses txid with Some s -> s | None -> Committed

let active t =
  Hashtbl.fold (fun txid s acc -> if s = Active then txid :: acc else acc) t.statuses []

let max_txid t = t.high

(* Compaction: committed history can be forgotten (unknown = committed),
   but aborted ids must survive for as long as their in-page log records
   might — we keep them all; active ones keep their begin records. A
   deferred commit is still Active {e on flash}: until the group barrier
   appends its record, a crash must roll it back, so its begin record is
   rewritten and its id stays out of the forgotten-equals-committed
   default. The high-water record is always written: with every status
   committed the snapshot would otherwise carry no id at all. *)
let snapshot t =
  let on_flash txid status = if is_deferred t txid then Active else status in
  let records =
    Hashtbl.fold
      (fun txid status acc ->
        match on_flash txid status with
        | Committed -> acc
        | Active -> Meta_log.Trx_begin { txid } :: acc
        | Aborted -> Meta_log.Trx_abort { txid } :: acc)
      t.statuses [ Meta_log.Trx_high { txid = t.high } ]
  in
  Hashtbl.filter_map_inplace
    (fun txid status -> if on_flash txid status = Committed then None else Some status)
    t.statuses;
  records

let recover log events =
  let t = create log in
  let set txid status =
    Hashtbl.replace t.statuses txid status;
    t.high <- max t.high txid
  in
  List.iter
    (function
      | Meta_log.Trx_begin { txid } -> set txid Active
      | Meta_log.Trx_commit { txid } -> set txid Committed
      | Meta_log.Trx_abort { txid } -> set txid Aborted
      | Meta_log.Trx_high { txid } -> t.high <- max t.high txid
      | _ -> ())
    events;
  t

let abort_active t =
  let incomplete = List.sort compare (active t) in
  List.iter (log_abort t) incomplete;
  incomplete

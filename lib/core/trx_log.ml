type status = Active | Committed | Aborted

type t = {
  log : Seq_log.t;
  statuses : (int, status) Hashtbl.t;
  mutable deferred : int list;  (* group-commit records not yet in the log; newest first *)
}

(* Record format: tag:u8 (0 begin, 1 commit, 2 abort), txid:u32. *)
let encode tag txid =
  let b = Bytes.create 5 in
  Bytes.set_uint8 b 0 tag;
  Bytes.set_int32_le b 1 (Int32.of_int txid);
  b

let decode b =
  if Bytes.length b <> 5 then invalid_arg "Trx_log: bad record";
  (Bytes.get_uint8 b 0, Int32.to_int (Bytes.get_int32_le b 1) land 0xFFFFFFFF)

let create chip ~first_block ~num_blocks =
  {
    log = Seq_log.create chip ~first_block ~num_blocks;
    statuses = Hashtbl.create 256;
    deferred = [];
  }

(* Compaction: committed history can be forgotten (unknown = committed),
   but aborted ids must survive for as long as their in-page log records
   might — we keep them all; active ones keep their begin records. A
   deferred commit is still Active {e on flash}: until the group barrier
   appends its record, a crash must roll it back, so its begin record is
   rewritten and its id stays out of the forgotten-equals-committed
   default. *)
let compact t =
  Seq_log.reset t.log;
  Hashtbl.iter
    (fun txid status ->
      let on_flash = if List.mem txid t.deferred then Active else status in
      let tag = match on_flash with Active -> 0 | Aborted -> 2 | Committed -> 1 in
      if on_flash <> Committed then
        match Seq_log.append t.log (encode tag txid) with
        | `Ok -> ()
        | `Full -> failwith "Trx_log: log region too small even after compaction")
    t.statuses;
  Hashtbl.filter_map_inplace
    (fun txid status ->
      if status = Committed && not (List.mem txid t.deferred) then None
      else Some status)
    t.statuses

let append t record =
  match Seq_log.append t.log record with
  | `Ok -> ()
  | `Full -> (
      compact t;
      match Seq_log.append t.log record with
      | `Ok -> ()
      | `Full -> failwith "Trx_log: log region too small")

let log_begin t txid =
  Hashtbl.replace t.statuses txid Active;
  append t (encode 0 txid)

(* Group commit's write-ahead discipline, the mirror image of the begin
   record's: a commit record may only reach flash AFTER the batch's data
   records, but [force] (begin-record write-ahead at a dirty-frame flush)
   and [compact] can push the shared sector buffer out at any moment. So
   a deferred commit lives outside the buffer entirely — visible to live
   status queries, invisible to flash — until {!flush_deferred} appends
   the batch at the barrier. *)
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
  List.iter (fun txid -> append t (encode 1 txid)) batch

let log_abort t txid =
  Hashtbl.replace t.statuses txid Aborted;
  append t (encode 2 txid);
  Seq_log.force t.log

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

let max_txid t = Hashtbl.fold (fun txid _ acc -> max txid acc) t.statuses 0
let durable_sectors t = Seq_log.sectors_written t.log

let publish t = Seq_log.publish t.log
let force t = Seq_log.force t.log

let recover chip ~first_block ~num_blocks =
  let log = Seq_log.recover chip ~first_block ~num_blocks in
  let t = { log; statuses = Hashtbl.create 256; deferred = [] } in
  List.iter
    (fun r ->
      let tag, txid = decode r in
      let status = match tag with 0 -> Active | 1 -> Committed | _ -> Aborted in
      Hashtbl.replace t.statuses txid status)
    (Seq_log.records log);
  let incomplete = active t in
  List.iter (fun txid -> log_abort t txid) incomplete;
  (t, incomplete)

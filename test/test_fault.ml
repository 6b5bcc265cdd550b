(* Tests for the fault-injection & crash-recovery validation subsystem:
   fault plans, torn-tail log handling, exception safety of the merge
   path, the model-based oracle, and the crash-point campaign itself. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Seq_log = Ipl_core.Seq_log
module Trx_log = Ipl_core.Trx_log
module Meta_log = Ipl_core.Meta_log
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Store = Ipl_core.Ipl_storage

(* The system logs and the bad-block manager now sit on the device
   layer; a raw chip is wrapped as a single-channel device (bit-for-bit
   the old serial behaviour). *)
let dev_of = Device.Flash_device.of_chip
module Plan = Fault.Fault_plan
module Oracle = Fault.Oracle
module Workload = Fault.Workload
module Campaign = Fault.Campaign

let mk_chip () = Chip.create (FConfig.default ~num_blocks:32 ())

let corrupt ?offset chip s =
  match Chip.corrupt_sector ?offset chip s with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Chip.corrupt_error_to_string e)

(* ---------------- fault plans ---------------- *)

let test_plan_crash_at () =
  let p = Plan.crash_at ~tear:true 5 in
  Alcotest.(check bool) "before: proceed" true
    (p 4 (Chip.Op_read { sector = 0; count = 1 }) = Chip.Proceed);
  Alcotest.(check bool) "at point: fail-stop" true
    (p 5 (Chip.Op_read { sector = 0; count = 1 }) = Chip.Fail_stop);
  Alcotest.(check bool) "multi-sector program torn" true
    (p 5 (Chip.Op_program { sector = 0; count = 16 }) = Chip.Tear 8);
  Alcotest.(check bool) "single-sector program fail-stops" true
    (p 5 (Chip.Op_program { sector = 0; count = 1 }) = Chip.Fail_stop)

let test_plan_seq () =
  let p = Plan.seq [ Plan.transient_read ~point:3; Plan.crash_at 7 ] in
  Alcotest.(check bool) "first plan wins" true
    (p 3 (Chip.Op_read { sector = 0; count = 1 }) = Chip.Read_fault);
  Alcotest.(check bool) "falls through" true
    (p 8 (Chip.Op_read { sector = 0; count = 1 }) = Chip.Fail_stop);
  Alcotest.(check bool) "neither fires" true
    (p 5 (Chip.Op_read { sector = 0; count = 1 }) = Chip.Proceed)

(* ---------------- torn-tail handling in the system logs ---------------- *)

let test_seq_log_bitflip_tail () =
  let chip = mk_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  ignore (Seq_log.append log (Bytes.of_string "alpha"));
  ignore (Seq_log.append log (Bytes.of_string "beta"));
  Seq_log.force log;
  ignore (Seq_log.append log (Bytes.of_string "gamma"));
  Seq_log.force log;
  (* Rot a bit in the final sector: its records must be discarded, not
     decoded as garbage and not crash recovery. *)
  corrupt chip 1 ~offset:9;
  let log' = Seq_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check (list string)) "tail discarded"
    [ "alpha"; "beta" ]
    (List.map Bytes.to_string (Seq_log.records log'));
  (* The log stays usable: recovery appends after the corrupt sector. *)
  ignore (Seq_log.append log' (Bytes.of_string "delta"));
  Seq_log.force log';
  Alcotest.(check (list string)) "appends continue past the rot"
    [ "alpha"; "beta"; "delta" ]
    (List.map Bytes.to_string (Seq_log.records log'))

let test_seq_log_mid_corruption_skipped () =
  let chip = mk_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  List.iter
    (fun s ->
      ignore (Seq_log.append log (Bytes.of_string s));
      Seq_log.force log)
    [ "one"; "two"; "three" ];
  corrupt chip 0 ~offset:7;
  Alcotest.(check (list string)) "corrupt sector skipped, later ones kept"
    [ "two"; "three" ]
    (List.map Bytes.to_string (Seq_log.records log))

let test_seq_log_torn_garbage_sector () =
  let chip = mk_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  ignore (Seq_log.append log (Bytes.of_string "good"));
  Seq_log.force log;
  (* Fabricate a torn append: a sector whose header claims 20 payload
     bytes but whose checksum never matched (the program was cut short). *)
  let garbage = Bytes.make 512 '\xff' in
  Bytes.set_uint16_le garbage 0 20;
  Bytes.set_int32_le garbage 2 0l;
  Chip.write_sectors chip ~sector:1 garbage;
  let log' = Seq_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check (list string)) "torn sector contributes nothing" [ "good" ]
    (List.map Bytes.to_string (Seq_log.records log'))

let test_trx_log_lost_commit_record () =
  let chip = mk_chip () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let trx = Trx_log.create meta in
  Trx_log.log_begin trx 1;
  Meta_log.force meta;
  Trx_log.defer_commit trx 1;
  Trx_log.flush_deferred trx;
  Meta_log.force meta;
  (* The commit record's sector rots: the implicit-UNDO contract is that
     the transaction reverts to its pre-crash (un-committed) status. *)
  corrupt chip 1 ~offset:3;
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let trx' = Trx_log.recover meta' events in
  let aborted = Trx_log.abort_active trx' in
  Alcotest.(check (list int)) "closed by abort" [ 1 ] aborted;
  Alcotest.(check bool) "status reverts to aborted" true (Trx_log.status trx' 1 = Trx_log.Aborted)

let test_meta_log_torn_tail () =
  let chip = mk_chip () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Meta_log.log meta (Meta_log.Page_alloc { page = 1; eu = 2; idx = 3 });
  Meta_log.force meta;
  Meta_log.log meta (Meta_log.Merge { units = [ (2, 4) ]; trades = [] });
  Meta_log.force meta;
  corrupt chip 1 ~offset:2;
  let _, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Alcotest.(check bool) "only the intact sector's events survive" true
    (events = [ Meta_log.Page_alloc { page = 1; eu = 2; idx = 3 } ])

(* Two compactions, one into each half, crashed at every flash
   operation from the first one on: restart finds every event forced
   before the crash, from the old half or from the new snapshot. *)
let test_meta_log_compaction_crash () =
  let alloc lo hi = List.init (hi - lo) (fun i -> Meta_log.Page_alloc { page = lo + i; eu = 2; idx = 0 }) in
  let run crash =
    let chip = mk_chip () in
    let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
    let state = ref [] and durable = ref 0 in
    Meta_log.set_snapshot meta (fun () -> !state);
    let step events =
      List.iter (Meta_log.log meta) events;
      state := !state @ events;
      Meta_log.force meta;
      durable := List.length !state
    in
    step (alloc 0 100);
    let start = Chip.op_count chip in
    Option.iter (fun n -> Plan.install chip (Plan.crash_at (start + n))) crash;
    (try
       Meta_log.compact meta;
       step (alloc 100 110);
       Meta_log.compact meta
     with Chip.Power_loss _ -> ());
    let ops = Chip.op_count chip - start in
    Plan.clear chip;
    let _, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
    (ops, events = alloc 0 !durable)
  in
  let ops, ok = run None in
  Alcotest.(check bool) "no crash: the last snapshot" true ok;
  for n = 0 to ops - 1 do
    Alcotest.(check bool) (Printf.sprintf "crash at op %d of %d" n ops) true (snd (run (Some n)))
  done

(* The merge path's mark spans the one sector buffer: a status record
   buffered before the mark survives the rollback. *)
let test_meta_log_rollback () =
  let chip = mk_chip () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let trx = Trx_log.create meta in
  Meta_log.log meta (Meta_log.Page_alloc { page = 1; eu = 2; idx = 0 });
  Meta_log.force meta;
  Trx_log.log_begin trx 5;
  let mark = Meta_log.mark meta in
  Meta_log.log meta (Meta_log.Merge { units = [ (2, 9) ]; trades = [] });
  Alcotest.(check bool) "buffered events discarded" true (Meta_log.rollback meta mark);
  Meta_log.force meta;
  let _, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Alcotest.(check bool) "rolled-back merge never published" true
    (events
    = [ Meta_log.Page_alloc { page = 1; eu = 2; idx = 0 }; Meta_log.Trx_begin { txid = 5 } ])

(* The last system-log sector holds a commit record and a mapping event,
   and tears. Restart loses both and keeps the sector before it: the
   transaction is active again and is aborted, and the page the torn
   event allocated is unknown. The in-page log sector the transaction
   wrote is intact either way; the read path filters the aborted record
   out. *)
let test_system_log_torn_mixed_tail () =
  let chip = mk_chip () in
  let area () = Resilience.Bbm.create (dev_of chip) ~spares:[] ~persist:ignore ~force:ignore () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let trx = Trx_log.create meta in
  let store =
    Store.create (area ()) ~first_block:2 ~num_blocks:30 ~txn_status:(Trx_log.status trx) ~meta ()
  in
  let pid = Store.allocate_page store (Storage.Page.create 8192) in
  Trx_log.log_begin trx 1;
  Meta_log.force meta;
  let intact =
    [ Meta_log.Page_alloc { page = pid; eu = 2; idx = 0 }; Meta_log.Trx_begin { txid = 1 } ]
  in
  let record =
    { Ipl_core.Log_record.txid = 1; page = pid; op = Insert { slot = 0; record = Bytes.of_string "x" } }
  in
  (match Ipl_core.Log_sector.pack ~capacity:512 [ record ] with
  | [ sector ] -> Store.flush_log store sector
  | _ -> Alcotest.fail "one record, one sector");
  Trx_log.defer_commit trx 1;
  Trx_log.flush_deferred trx;
  ignore (Store.allocate_page store (Storage.Page.create 8192));
  Meta_log.force meta;
  let restart () =
    let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
    let trx' = Trx_log.recover meta' events in
    let store' =
      Store.recover (area ()) ~first_block:2 ~num_blocks:30 ~txn_status:(Trx_log.status trx')
        ~meta:meta' ~meta_events:events ()
    in
    (events, trx', store')
  in
  let slot0 store' = Storage.Page.read (Store.read_page store' pid) 0 in
  let logged store' = Store.used_log_sectors store' ~eu:(Store.eu_of_page store' pid) in
  let events, _, store' = restart () in
  Alcotest.(check int) "intact tail: both pages" 2 (Store.num_pages store');
  Alcotest.(check int) "intact tail: every event" 4 (List.length events);
  Alcotest.(check int) "intact tail: one log sector" 1 (logged store');
  Alcotest.(check (option bytes)) "intact tail: committed insert" (Some (Bytes.of_string "x"))
    (slot0 store');
  corrupt chip 1 ~offset:9;
  let events, trx', store' = restart () in
  Alcotest.(check bool) "torn sector's events discarded, earlier kept" true (events = intact);
  Alcotest.(check int) "torn allocation lost" 1 (Store.num_pages store');
  Alcotest.(check int) "torn tail: one log sector" 1 (logged store');
  Alcotest.(check (list int)) "torn commit: aborted" [ 1 ] (Trx_log.abort_active trx');
  Alcotest.(check (option bytes)) "torn commit: insert filtered out" None (slot0 store')

(* ---------------- exception safety of the merge path ---------------- *)

let base_config = { Config.default with Config.buffer_pages = 4 }

let payload c = Bytes.make 48 c

exception Injected

(* Run committed single-slot updates until the erase unit's log region
   forces a merge and [fail] fires inside it. Returns the last durably
   committed character and the still-open transaction, if any. *)
let update_until_boom e ~page ~slot =
  let committed = ref 'a' in
  let active = ref None in
  (try
     for i = 1 to 64 do
       let c = Char.chr (Char.code 'A' + (i mod 26)) in
       let tx = Engine.Unsafe.begin_txn e in
       active := Some tx;
       (match Engine.Unsafe.update e ~tx ~page ~slot (payload c) with
       | Ok () -> ()
       | Error m -> failwith (Engine.error_to_string m));
       Engine.Unsafe.commit e tx;
       active := None;
       committed := c
     done
   with Injected | Chip.Power_loss _ -> ());
  (!committed, !active)

let merge_bomb = function
  | Chip.Op_program { count; _ } when count > 1 -> true
  | _ -> false (* data-page rewrites are the only multi-sector programs *)

let test_merge_transient_exception_rolls_back () =
  let chip = mk_chip () in
  let e = Engine.create ~config:base_config chip in
  let page = Engine.Unsafe.allocate_page e in
  let tx = Engine.Unsafe.begin_txn e in
  let slot =
    match Engine.Unsafe.insert e ~tx ~page (payload 'a') with Ok s -> s | Error m -> failwith (Engine.error_to_string m)
  in
  Engine.Unsafe.commit e tx;
  (* A transient failure (not a power loss: the chip stays alive) in the
     middle of the merge must leave the engine fully usable. *)
  Plan.install chip (fun _ op -> if merge_bomb op then raise Injected else Chip.Proceed);
  let committed, active = update_until_boom e ~page ~slot in
  Plan.clear chip;
  (match active with
  | Some tx -> Engine.Unsafe.abort e tx
  | None -> Alcotest.fail "expected an injected merge failure");
  Alcotest.(check (option bytes)) "committed value readable after rollback"
    (Some (payload committed))
    (Engine.Unsafe.read e ~page ~slot);
  (* The retried merge succeeds against the restored state. *)
  let tx = Engine.Unsafe.begin_txn e in
  (match Engine.Unsafe.update e ~tx ~page ~slot (payload 'z') with
  | Ok () -> ()
  | Error m -> failwith (Engine.error_to_string m));
  Engine.Unsafe.commit e tx;
  Alcotest.(check (option bytes)) "engine keeps working" (Some (payload 'z'))
    (Engine.Unsafe.read e ~page ~slot);
  let e2, _ = Engine.restart ~config:base_config chip in
  Alcotest.(check (option bytes)) "state survives restart" (Some (payload 'z'))
    (Engine.Unsafe.read e2 ~page ~slot)

let test_merge_power_loss_recovers () =
  let chip = mk_chip () in
  let e = Engine.create ~config:base_config chip in
  let page = Engine.Unsafe.allocate_page e in
  let tx = Engine.Unsafe.begin_txn e in
  let slot =
    match Engine.Unsafe.insert e ~tx ~page (payload 'a') with Ok s -> s | Error m -> failwith (Engine.error_to_string m)
  in
  Engine.Unsafe.commit e tx;
  Plan.install chip (fun _ op -> if merge_bomb op then Chip.Fail_stop else Chip.Proceed);
  let committed, active = update_until_boom e ~page ~slot in
  Alcotest.(check bool) "power loss hit mid-merge" true (active <> None && Chip.is_dead chip);
  Plan.clear chip;
  let e2, _ = Engine.restart ~config:base_config chip in
  (* The merge never reached its durability point, and the in-flight
     commit never wrote its commit record: the last fully committed value
     must be the one recovered. *)
  Alcotest.(check (option bytes)) "committed value survives mid-merge crash"
    (Some (payload committed))
    (Engine.Unsafe.read e2 ~page ~slot)

(* ---------------- exception safety of the commit batch ---------------- *)

(* Window 3: the third commit runs the batch flush, and its first
   data-area program raises. That transaction must be active again and
   abortable; the first two stay pending, cannot be aborted, and become
   durable at the next flush. *)
let test_commit_batch_failure () =
  let chip = mk_chip () in
  let e = Engine.create ~config:{ base_config with Config.buffer_pages = 16 } chip in
  Engine.set_group_commit e 3;
  let page = Engine.Unsafe.allocate_page e in
  Engine.Unsafe.checkpoint e;
  let insert tx c =
    match Engine.Unsafe.insert e ~tx ~page (payload c) with
    | Ok slot -> slot
    | Error m -> failwith (Engine.error_to_string m)
  in
  let committed =
    List.map
      (fun c ->
        let tx = Engine.Unsafe.begin_txn e in
        let slot = insert tx c in
        Engine.Unsafe.commit e tx;
        (tx, slot, c))
      [ 'a'; 'b' ]
  in
  Alcotest.(check int) "two pending" 2 (Engine.pending_commits e);
  let tx = Engine.Unsafe.begin_txn e in
  let doomed = insert tx 'c' in
  let data_area = 8 * 256 in
  Plan.install chip (fun _ op ->
      match op with
      | Chip.Op_program { sector; _ } when sector >= data_area -> raise Injected
      | _ -> Chip.Proceed);
  (match Engine.Unsafe.commit e tx with
  | () -> Alcotest.fail "expected the batch flush to fail"
  | exception Injected -> ());
  Plan.clear chip;
  Alcotest.(check bool) "failed commit is active again" true
    (Engine.txn_status e tx = Ipl_core.Trx_log.Active);
  Engine.Unsafe.abort e tx;
  Alcotest.(check int) "first two still pending" 2 (Engine.pending_commits e);
  List.iter
    (fun (tx, _, _) ->
      match Engine.Unsafe.abort e tx with
      | () -> Alcotest.fail "a pending commit was aborted"
      | exception Invalid_argument _ -> ())
    committed;
  Engine.Unsafe.flush_commits e;
  Alcotest.(check int) "batch settled" 0 (Engine.pending_commits e);
  let e2, _ = Engine.restart ~config:base_config chip in
  List.iter
    (fun (_, slot, c) ->
      Alcotest.(check (option bytes)) (Printf.sprintf "commit %c survives" c)
        (Some (payload c)) (Engine.Unsafe.read e2 ~page ~slot))
    committed;
  Alcotest.(check (option bytes)) "aborted insert gone" None
    (Engine.Unsafe.read e2 ~page ~slot:doomed)

(* ---------------- the oracle ---------------- *)

let read_of tbl ~page ~slot = Hashtbl.find_opt tbl (page, slot)

let db vals =
  let h = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace h k (Bytes.of_string v)) vals;
  h

module Ev = Ipl_txn.Session

let put v = Some (Bytes.of_string v)
let write o ~txn ~slot data = Oracle.observe o (Ev.Write { txn; page = 0; slot; data })

(* A serial commit as the serial loop reports it: the durable watermark
   follows every returned commit. *)
let serial_commit o ~txn writes =
  Oracle.observe o (Ev.Begin txn);
  List.iter (fun (slot, data) -> write o ~txn ~slot data) writes;
  List.iter (Oracle.observe o) [ Ev.Commit_start txn; Ev.Committed txn; Ev.Durable txn ]

let test_oracle_catches_lost_commit () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "keep");
  serial_commit o ~txn:1 [ (1, put "new") ];
  Alcotest.(check bool) "intact state passes" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "keep"); ((0, 1), "new") ])) ~pages:[ 0 ]
       ~slots:4
    = []);
  Alcotest.(check bool) "lost committed insert flagged" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "keep") ])) ~pages:[ 0 ] ~slots:4 <> [])

let test_oracle_catches_surviving_uncommitted () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "base");
  Oracle.observe o (Ev.Begin 1);
  write o ~txn:1 ~slot:0 (put "dirty");
  Alcotest.(check bool) "not in doubt" true (Oracle.crash o = Oracle.Settled);
  Alcotest.(check bool) "rolled-back state passes" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "base") ])) ~pages:[ 0 ] ~slots:2 = []);
  Alcotest.(check bool) "surviving uncommitted write flagged" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "dirty") ])) ~pages:[ 0 ] ~slots:2 <> [])

let test_oracle_in_doubt_atomicity () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "old0");
  Oracle.seed o ~page:0 ~slot:1 (Bytes.of_string "old1");
  Oracle.observe o (Ev.Begin 1);
  write o ~txn:1 ~slot:0 (put "new0");
  write o ~txn:1 ~slot:1 (put "new1");
  Oracle.observe o (Ev.Commit_start 1);
  Alcotest.(check bool) "in doubt" true (Oracle.crash o = Oracle.In_doubt);
  let check vals = Oracle.check o ~read:(read_of (db vals)) ~pages:[ 0 ] ~slots:2 in
  Alcotest.(check bool) "pre-commit state legal" true
    (check [ ((0, 0), "old0"); ((0, 1), "old1") ] = []);
  Alcotest.(check bool) "post-commit state legal" true
    (check [ ((0, 0), "new0"); ((0, 1), "new1") ] = []);
  Alcotest.(check bool) "half-applied commit flagged" true
    (check [ ((0, 0), "new0"); ((0, 1), "old1") ] <> [])

let test_oracle_empty_commit_settled () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "base");
  serial_commit o ~txn:1 [ (1, put "a") ];
  Oracle.observe o (Ev.Begin 2);
  Oracle.observe o (Ev.Commit_start 2);
  Alcotest.(check bool) "nothing written: not in doubt" true (Oracle.crash o = Oracle.Settled);
  Alcotest.(check bool) "committed state passes" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "base"); ((0, 1), "a") ])) ~pages:[ 0 ]
       ~slots:2
    = [])

let test_oracle_current () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "base0");
  Oracle.seed o ~page:0 ~slot:1 (Bytes.of_string "base1");
  serial_commit o ~txn:1 [ (1, put "committed"); (2, put "gone") ];
  serial_commit o ~txn:2 [ (2, None) ];
  Oracle.observe o (Ev.Begin 3);
  write o ~txn:3 ~slot:0 (put "mine");
  write o ~txn:3 ~slot:3 (put "new");
  write o ~txn:3 ~slot:3 None;
  let current slot = Option.map Bytes.to_string (Oracle.current o ~txn:3 ~page:0 ~slot) in
  Alcotest.(check (option string)) "own write over setup" (Some "mine") (current 0);
  Alcotest.(check (option string)) "latest commit" (Some "committed") (current 1);
  Alcotest.(check (option string)) "committed delete" None (current 2);
  Alcotest.(check (option string)) "own delete, newest write wins" None (current 3);
  Oracle.observe o (Ev.Aborted 3);
  Oracle.observe o (Ev.Begin 4);
  Alcotest.(check (option string)) "aborted write gone" (Some "base0")
    (Option.map Bytes.to_string (Oracle.current o ~txn:4 ~page:0 ~slot:0))

(* ---------------- the oracle on MVCC histories ---------------- *)

(* Seed slot 0 with "base", then commit one transaction per value in
   order, transaction i writing slot i; no barrier settles them. *)
let committed_history values =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "base");
  List.iteri
    (fun i v ->
      let txn = i + 1 in
      Oracle.observe o (Ev.Begin txn);
      write o ~txn ~slot:txn (put v);
      Oracle.observe o (Ev.Commit_start txn);
      Oracle.observe o (Ev.Committed txn))
    values;
  o

let ccheck o vals = Oracle.check o ~read:(read_of (db vals)) ~pages:[ 0 ] ~slots:4

let test_coracle_watermark () =
  let o = committed_history [ "a"; "b" ] in
  Oracle.observe o (Ev.Durable 1);
  Alcotest.(check bool) "settled" true (Oracle.crash o = Oracle.Settled);
  Alcotest.(check bool) "prefix at the watermark passes" true
    (ccheck o [ ((0, 0), "base"); ((0, 1), "a") ] = []);
  Alcotest.(check bool) "full commit order passes" true
    (ccheck o [ ((0, 0), "base"); ((0, 1), "a"); ((0, 2), "b") ] = []);
  Alcotest.(check bool) "durable commit missing flagged" true
    (ccheck o [ ((0, 0), "base") ] <> [])

let test_coracle_skipped_commit () =
  let o = committed_history [ "a"; "b"; "c" ] in
  ignore (Oracle.crash o : Oracle.outcome);
  Alcotest.(check bool) "empty prefix passes" true (ccheck o [ ((0, 0), "base") ] = []);
  Alcotest.(check bool) "two-commit prefix passes" true
    (ccheck o [ ((0, 0), "base"); ((0, 1), "a"); ((0, 2), "b") ] = []);
  Alcotest.(check bool) "skipped middle commit flagged" true
    (ccheck o [ ((0, 0), "base"); ((0, 1), "a"); ((0, 3), "c") ] <> [])

let test_coracle_in_doubt () =
  let o = committed_history [ "a" ] in
  Oracle.observe o (Ev.Durable 1);
  Oracle.observe o (Ev.Begin 2);
  write o ~txn:2 ~slot:2 (put "b");
  write o ~txn:2 ~slot:3 (put "c");
  Oracle.observe o (Ev.Commit_start 2);
  Alcotest.(check bool) "in doubt" true (Oracle.crash o = Oracle.In_doubt);
  let before = [ ((0, 0), "base"); ((0, 1), "a") ] in
  Alcotest.(check bool) "in-doubt commit absent passes" true (ccheck o before = []);
  Alcotest.(check bool) "in-doubt commit present passes" true
    (ccheck o (before @ [ ((0, 2), "b"); ((0, 3), "c") ]) = []);
  Alcotest.(check bool) "half-applied in-doubt commit flagged" true
    (ccheck o (before @ [ ((0, 2), "b") ]) <> [])

let test_coracle_aborted_write () =
  let o = committed_history [ "a" ] in
  (* A voluntary abort, and a conflict loser that the MVCC layer doomed
     after one successful write: both leave the commit order. *)
  Oracle.observe o (Ev.Begin 2);
  write o ~txn:2 ~slot:2 (put "aborted");
  Oracle.observe o (Ev.Aborted 2);
  Oracle.observe o (Ev.Begin 3);
  write o ~txn:3 ~slot:0 (put "loser");
  Oracle.observe o (Ev.Aborted 3);
  ignore (Oracle.crash o : Oracle.outcome);
  let clean = [ ((0, 0), "base"); ((0, 1), "a") ] in
  Alcotest.(check bool) "clean state passes" true (ccheck o clean = []);
  Alcotest.(check bool) "surviving aborted write flagged" true
    (ccheck o (clean @ [ ((0, 2), "aborted") ]) <> []);
  Alcotest.(check bool) "surviving conflict-loser write flagged" true
    (ccheck o [ ((0, 0), "loser"); ((0, 1), "a") ] <> [])

(* ---------------- the campaign ---------------- *)

let small_spec = { Workload.default with Workload.transactions = 25 }

let test_campaign_zero_violations () =
  let r = Campaign.run ~sample:40 (Campaign.Serial { broken = false }) small_spec in
  Alcotest.(check bool) "crash points tested" true (r.Campaign.crash_points > 0);
  Alcotest.(check int) "every restart recovered" r.Campaign.crash_points r.Campaign.recovered;
  Alcotest.(check int) "zero violations" 0 (List.length r.Campaign.violations)

let test_campaign_zero_violations_no_tear () =
  let r =
    Campaign.run ~tear:false ~sample:15 (Campaign.Serial { broken = false }) small_spec
  in
  Alcotest.(check int) "zero violations" 0 (List.length r.Campaign.violations)

let test_campaign_catches_broken_commit () =
  (* With commit-time log forcing effectively disabled, committed
     transactions are not durable — every sampled crash point must show
     lost-commit violations. This validates the checker itself. *)
  let r = Campaign.run ~sample:8 (Campaign.Serial { broken = true }) small_spec in
  Alcotest.(check bool) "unsound configuration caught" true (r.Campaign.violations <> [])

let () =
  Alcotest.run "fault"
    [
      ( "plans",
        [
          Alcotest.test_case "crash_at" `Quick test_plan_crash_at;
          Alcotest.test_case "seq composition" `Quick test_plan_seq;
        ] );
      ( "torn tails",
        [
          Alcotest.test_case "seq log: bit-flipped tail" `Quick test_seq_log_bitflip_tail;
          Alcotest.test_case "seq log: mid-log rot skipped" `Quick
            test_seq_log_mid_corruption_skipped;
          Alcotest.test_case "seq log: torn garbage sector" `Quick
            test_seq_log_torn_garbage_sector;
          Alcotest.test_case "trx log: lost commit record" `Quick
            test_trx_log_lost_commit_record;
          Alcotest.test_case "meta log: torn tail" `Quick test_meta_log_torn_tail;
          Alcotest.test_case "meta log: mark/rollback" `Quick test_meta_log_rollback;
          Alcotest.test_case "meta log: crash inside compaction" `Quick
            test_meta_log_compaction_crash;
          Alcotest.test_case "system log: torn mixed tail" `Quick
            test_system_log_torn_mixed_tail;
        ] );
      ( "merge exception safety",
        [
          Alcotest.test_case "transient failure rolls back" `Quick
            test_merge_transient_exception_rolls_back;
          Alcotest.test_case "power loss mid-merge recovers" `Quick
            test_merge_power_loss_recovers;
        ] );
      ( "commit batch safety",
        [
          Alcotest.test_case "failed flush reopens the committing transaction" `Quick
            test_commit_batch_failure;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "catches lost commit" `Quick test_oracle_catches_lost_commit;
          Alcotest.test_case "catches surviving uncommitted" `Quick
            test_oracle_catches_surviving_uncommitted;
          Alcotest.test_case "in-doubt atomicity" `Quick test_oracle_in_doubt_atomicity;
          Alcotest.test_case "empty mid-commit is not in doubt" `Quick
            test_oracle_empty_commit_settled;
          Alcotest.test_case "current overlays own writes" `Quick test_oracle_current;
        ] );
      ( "concurrent oracle",
        [
          Alcotest.test_case "durable watermark" `Quick test_coracle_watermark;
          Alcotest.test_case "skipped commit is not a prefix" `Quick
            test_coracle_skipped_commit;
          Alcotest.test_case "in-doubt last commit" `Quick test_coracle_in_doubt;
          Alcotest.test_case "aborted and conflict-losing writes" `Quick
            test_coracle_aborted_write;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "zero violations (torn)" `Quick test_campaign_zero_violations;
          Alcotest.test_case "zero violations (clean fail-stop)" `Quick
            test_campaign_zero_violations_no_tear;
          Alcotest.test_case "broken commit caught" `Quick test_campaign_catches_broken_commit;
        ] );
    ]

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
  let trx = Trx_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Trx_log.log_begin trx 1;
  Trx_log.force trx;
  Trx_log.log_commit trx 1;
  (* The commit record's sector rots: the implicit-UNDO contract is that
     the transaction reverts to its pre-crash (un-committed) status. *)
  corrupt chip 1 ~offset:3;
  let trx', aborted = Trx_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check (list int)) "closed by abort" [ 1 ] aborted;
  Alcotest.(check bool) "status reverts to aborted" true (Trx_log.status trx' 1 = Trx_log.Aborted)

let test_meta_log_torn_tail () =
  let chip = mk_chip () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Meta_log.log meta (Meta_log.Page_alloc { page = 1; eu = 2; idx = 3 });
  Meta_log.force meta;
  Meta_log.log meta (Meta_log.Merge { old_eu = 2; new_eu = 4 });
  Meta_log.force meta;
  corrupt chip 1 ~offset:2;
  let _, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check bool) "only the intact sector's events survive" true
    (events = [ Meta_log.Page_alloc { page = 1; eu = 2; idx = 3 } ])

let test_meta_log_rollback () =
  let chip = mk_chip () in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Meta_log.log meta (Meta_log.Page_alloc { page = 1; eu = 2; idx = 0 });
  Meta_log.force meta;
  let mark = Meta_log.mark meta in
  Meta_log.log meta (Meta_log.Merge { old_eu = 2; new_eu = 9 });
  Alcotest.(check bool) "buffered events discarded" true (Meta_log.rollback meta mark);
  Meta_log.force meta;
  let _, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check bool) "rolled-back merge never published" true
    (events = [ Meta_log.Page_alloc { page = 1; eu = 2; idx = 0 } ])

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

(* ---------------- the oracle ---------------- *)

let read_of tbl ~page ~slot = Hashtbl.find_opt tbl (page, slot)

let db vals =
  let h = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace h k (Bytes.of_string v)) vals;
  h

let test_oracle_catches_lost_commit () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "keep");
  Oracle.begin_txn o;
  Oracle.note o ~page:0 ~slot:1 (Some (Bytes.of_string "new"));
  Oracle.start_commit o;
  Oracle.end_commit o;
  Alcotest.(check bool) "intact state passes" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "keep"); ((0, 1), "new") ])) ~pages:[ 0 ]
       ~slots:4
    = []);
  Alcotest.(check bool) "lost committed insert flagged" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "keep") ])) ~pages:[ 0 ] ~slots:4 <> [])

let test_oracle_catches_surviving_uncommitted () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "base");
  Oracle.begin_txn o;
  Oracle.note o ~page:0 ~slot:0 (Some (Bytes.of_string "dirty"));
  Alcotest.(check bool) "not in doubt" true (Oracle.crash o = Oracle.Rolled_back);
  Alcotest.(check bool) "rolled-back state passes" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "base") ])) ~pages:[ 0 ] ~slots:2 = []);
  Alcotest.(check bool) "surviving uncommitted write flagged" true
    (Oracle.check o ~read:(read_of (db [ ((0, 0), "dirty") ])) ~pages:[ 0 ] ~slots:2 <> [])

let test_oracle_in_doubt_atomicity () =
  let o = Oracle.create () in
  Oracle.seed o ~page:0 ~slot:0 (Bytes.of_string "old0");
  Oracle.seed o ~page:0 ~slot:1 (Bytes.of_string "old1");
  Oracle.begin_txn o;
  Oracle.note o ~page:0 ~slot:0 (Some (Bytes.of_string "new0"));
  Oracle.note o ~page:0 ~slot:1 (Some (Bytes.of_string "new1"));
  Oracle.start_commit o;
  Alcotest.(check bool) "in doubt" true (Oracle.crash o = Oracle.In_doubt);
  let check vals = Oracle.check o ~read:(read_of (db vals)) ~pages:[ 0 ] ~slots:2 in
  Alcotest.(check bool) "pre-commit state legal" true
    (check [ ((0, 0), "old0"); ((0, 1), "old1") ] = []);
  Alcotest.(check bool) "post-commit state legal" true
    (check [ ((0, 0), "new0"); ((0, 1), "new1") ] = []);
  Alcotest.(check bool) "half-applied commit flagged" true
    (check [ ((0, 0), "new0"); ((0, 1), "old1") ] <> [])

(* ---------------- the campaign ---------------- *)

let small_spec = { Workload.default with Workload.transactions = 25 }

let test_campaign_zero_violations () =
  let r = Campaign.run ~sample:40 small_spec in
  Alcotest.(check bool) "crash points tested" true (r.Campaign.crash_points > 0);
  Alcotest.(check int) "every restart recovered" r.Campaign.crash_points r.Campaign.recovered;
  Alcotest.(check int) "zero violations" 0 (List.length r.Campaign.violations)

let test_campaign_zero_violations_no_tear () =
  let r = Campaign.run ~tear:false ~sample:15 small_spec in
  Alcotest.(check int) "zero violations" 0 (List.length r.Campaign.violations)

let test_campaign_catches_broken_commit () =
  (* With commit-time log forcing effectively disabled, committed
     transactions are not durable — every sampled crash point must show
     lost-commit violations. This validates the checker itself. *)
  let r = Campaign.run ~broken:true ~sample:8 small_spec in
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
        ] );
      ( "merge exception safety",
        [
          Alcotest.test_case "transient failure rolls back" `Quick
            test_merge_transient_exception_rolls_back;
          Alcotest.test_case "power loss mid-merge recovers" `Quick
            test_merge_power_loss_recovers;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "catches lost commit" `Quick test_oracle_catches_lost_commit;
          Alcotest.test_case "catches surviving uncommitted" `Quick
            test_oracle_catches_surviving_uncommitted;
          Alcotest.test_case "in-doubt atomicity" `Quick test_oracle_in_doubt_atomicity;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "zero violations (torn)" `Quick test_campaign_zero_violations;
          Alcotest.test_case "zero violations (clean fail-stop)" `Quick
            test_campaign_zero_violations_no_tear;
          Alcotest.test_case "broken commit caught" `Quick test_campaign_catches_broken_commit;
        ] );
    ]

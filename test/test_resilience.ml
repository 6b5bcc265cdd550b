(* Tests for the device-resilience layer: grown bad blocks at the chip
   level, the bad-block manager (remap on program/erase failure, bounded
   read retry, scrub-on-correctable, wear-aware spare allocation,
   recovery replay, read-only degradation), its wiring into the engine,
   and the device-failure campaign profiles. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Bbm = Resilience.Bbm
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config

(* The system logs and the bad-block manager now sit on the device
   layer; a raw chip is wrapped as a single-channel device (bit-for-bit
   the old serial behaviour). *)
let dev_of = Device.Flash_device.of_chip
module Plan = Fault.Fault_plan
module Campaign = Fault.Campaign

let spb = 256 (* 128 KB erase unit / 512 B sectors *)
let mk_chip () = Chip.create (FConfig.default ~num_blocks:32 ())
let sec b i = (b * spb) + i
let payload c = Bytes.make 512 c
let bytes_t = Alcotest.testable (fun ppf b -> Fmt.pf ppf "%S" (Bytes.to_string b)) Bytes.equal

(* A bad-block manager over a list-backed "metadata log": [forced] holds
   the durably persisted events, in log order. *)
let mk_bbm ?(spares = [ 28; 29; 30; 31 ]) ?read_retries ?scrub_on_correctable chip =
  let forced = ref [] and buf = ref [] in
  let persist e = buf := e :: !buf in
  let force () =
    forced := !forced @ List.rev !buf;
    buf := []
  in
  let bbm = Bbm.create (dev_of chip) ~spares ?read_retries ?scrub_on_correctable ~persist ~force () in
  (bbm, forced)

let hook chip f = Chip.set_fault_hook chip (Some (fun _ op -> f op))
let unhook chip = Chip.set_fault_hook chip None

(* Fail the next program (optionally only in the data area, sparing the
   raw-chip metadata / transaction log regions below block 8). *)
let fail_next_program ?(min_sector = 0) chip =
  let armed = ref true in
  hook chip (function
    | Chip.Op_program { sector; _ } when !armed && sector >= min_sector ->
        armed := false;
        Chip.Program_fail
    | _ -> Chip.Proceed)

let fail_next_erase chip =
  let armed = ref true in
  hook chip (function
    | Chip.Op_erase _ when !armed ->
        armed := false;
        Chip.Erase_fail
    | _ -> Chip.Proceed)

(* ---------------- chip: grown bad blocks ---------------- *)

let test_grown_bad_block () =
  let cfg =
    { (FConfig.default ~num_blocks:8 ~grow_bad_on_wear_out:true ()) with
      FConfig.max_erase_cycles = 2 }
  in
  let chip = Chip.create cfg in
  Chip.write_sectors chip ~sector:0 (payload 'w');
  Chip.erase_block chip 0;
  Chip.erase_block chip 0;
  Chip.write_sectors chip ~sector:0 (payload 'y');
  (* The third erase would exceed the endurance: it must fail BEFORE
     erasing — the block grows bad with its data still readable. *)
  Alcotest.check_raises "erase past endurance" (Chip.Erase_error 0) (fun () ->
      Chip.erase_block chip 0);
  Alcotest.(check bool) "block is bad" true (Chip.is_bad chip 0);
  Alcotest.(check (list int)) "bad list" [ 0 ] (Chip.bad_blocks chip);
  Alcotest.check bytes_t "data survives the failed erase" (payload 'y')
    (Chip.read_sectors chip ~sector:0 ~count:1);
  Alcotest.check_raises "programs to a bad block fail" (Chip.Program_error 1) (fun () ->
      Chip.write_sectors chip ~sector:1 (payload 'z'));
  let s = Chip.stats chip in
  Alcotest.(check int) "grown bad counted" 1 s.Flash_sim.Flash_stats.grown_bad_blocks;
  Alcotest.(check bool) "failures counted" true
    (s.Flash_sim.Flash_stats.erase_failures >= 1
    && s.Flash_sim.Flash_stats.program_failures >= 1)

let test_corrupt_sector_non_materializing () =
  let chip = Chip.create (FConfig.default ~num_blocks:8 ~materialize:false ()) in
  Chip.write_sectors chip ~sector:0 (payload 'a');
  match Chip.corrupt_sector chip 0 with
  | Error Chip.Not_materialized -> ()
  | Ok () -> Alcotest.fail "corrupt_sector succeeded on a non-materializing chip"
  | Error e -> Alcotest.fail (Chip.corrupt_error_to_string e)

(* ---------------- bbm: relocation ---------------- *)

let test_remap_on_program_failure () =
  let chip = mk_chip () in
  let bbm, forced = mk_bbm chip in
  Bbm.write_sectors bbm ~sector:(sec 0 0) (payload 'a');
  Bbm.write_sectors bbm ~sector:(sec 0 1) (payload 'b');
  fail_next_program chip;
  Bbm.write_sectors bbm ~sector:(sec 0 2) (payload 'c');
  unhook chip;
  (* The whole unit moved; all three sectors read back at their virtual
     addresses, including the program the chip refused. *)
  List.iteri
    (fun i c ->
      Alcotest.check bytes_t
        (Printf.sprintf "sector %d" i)
        (payload c)
        (Bbm.read_sectors bbm ~sector:(sec 0 i) ~count:1))
    [ 'a'; 'b'; 'c' ];
  (match Bbm.remap_table bbm with
  | [ (0, p) ] ->
      Alcotest.(check bool) "remapped to a spare" true (List.mem p [ 28; 29; 30; 31 ])
  | l -> Alcotest.failf "unexpected remap table (%d entries)" (List.length l));
  Alcotest.(check (list int)) "old block retired" [ 0 ] (Bbm.retired_list bbm);
  Alcotest.(check bool) "old block marked bad" true (Chip.is_bad chip 0);
  Alcotest.(check int) "spare consumed" 3 (Bbm.spares_left bbm);
  let s = Bbm.stats bbm in
  Alcotest.(check int) "one remap" 1 s.Bbm.remaps;
  Alcotest.(check int) "one retirement" 1 s.Bbm.retired_blocks;
  Alcotest.(check bool) "remap persisted" true
    (List.exists (function Bbm.P_remap { virt = 0; _ } -> true | _ -> false) !forced);
  Alcotest.(check bool) "retirement persisted" true
    (List.mem (Bbm.P_retire { block = 0 }) !forced)

let test_wear_aware_spare_allocation () =
  let chip = mk_chip () in
  let bbm, _ = mk_bbm chip in
  (* Wear the spares unevenly behind the manager's back; 29 stays
     pristine and must be the one chosen. *)
  Chip.erase_block chip 28;
  Chip.erase_block chip 28;
  Chip.erase_block chip 30;
  Chip.erase_block chip 31;
  Chip.erase_block chip 31;
  Chip.erase_block chip 31;
  fail_next_program chip;
  Bbm.write_sectors bbm ~sector:(sec 5 0) (payload 'z');
  unhook chip;
  Alcotest.(check (list (pair int int))) "least-worn spare chosen" [ (5, 29) ]
    (Bbm.remap_table bbm)

let test_remap_on_erase_failure () =
  let chip = mk_chip () in
  let bbm, _ = mk_bbm chip in
  Bbm.write_sectors bbm ~sector:(sec 3 0) (payload 'd');
  fail_next_erase chip;
  Bbm.erase_block bbm 3;
  unhook chip;
  (* No copy on an erase: the unit points at a fresh (erased) spare. *)
  Alcotest.(check bool) "unit reads as erased" true
    (Bbm.sector_state bbm (sec 3 0) = Chip.Free);
  Alcotest.(check (list int)) "failed block retired" [ 3 ] (Bbm.retired_list bbm);
  Alcotest.(check int) "spare consumed" 3 (Bbm.spares_left bbm);
  Bbm.write_sectors bbm ~sector:(sec 3 0) (payload 'e');
  Alcotest.check bytes_t "unit writable again" (payload 'e')
    (Bbm.read_sectors bbm ~sector:(sec 3 0) ~count:1)

(* ---------------- bbm: reads ---------------- *)

let test_read_retry () =
  let chip = mk_chip () in
  let bbm, _ = mk_bbm ~read_retries:3 ~scrub_on_correctable:false chip in
  Bbm.write_sectors bbm ~sector:(sec 1 0) (payload 'r');
  let left = ref 2 in
  hook chip (function
    | Chip.Op_read _ when !left > 0 ->
        decr left;
        Chip.Read_fault
    | _ -> Chip.Proceed);
  Alcotest.check bytes_t "retries mask transient faults" (payload 'r')
    (Bbm.read_sectors bbm ~sector:(sec 1 0) ~count:1);
  Alcotest.(check int) "two retries counted" 2 (Bbm.stats bbm).Bbm.read_retries;
  (* A persistent failure exhausts the retry budget. *)
  hook chip (function Chip.Op_read _ -> Chip.Read_fault | _ -> Chip.Proceed);
  Alcotest.check_raises "uncorrectable"
    (Bbm.Uncorrectable (sec 1 0))
    (fun () -> ignore (Bbm.read_sectors bbm ~sector:(sec 1 0) ~count:1));
  unhook chip;
  Alcotest.(check int) "uncorrectable counted" 1
    (Bbm.stats bbm).Bbm.uncorrectable_reads

let test_scrub_on_correctable () =
  let chip = mk_chip () in
  let bbm, _ = mk_bbm chip in
  Bbm.write_sectors bbm ~sector:(sec 2 0) (payload 's');
  Bbm.write_sectors bbm ~sector:(sec 2 5) (payload 't');
  let armed = ref true in
  hook chip (function
    | Chip.Op_read _ when !armed ->
        armed := false;
        Chip.Read_correctable
    | _ -> Chip.Proceed);
  Alcotest.check bytes_t "corrected read returns data" (payload 's')
    (Bbm.read_sectors bbm ~sector:(sec 2 0) ~count:1);
  unhook chip;
  Alcotest.(check int) "scrub happened" 1 (Bbm.stats bbm).Bbm.scrubs;
  (* The suspect block returned to the pool: scrubs cost no spares. *)
  Alcotest.(check int) "no spare consumed" 4 (Bbm.spares_left bbm);
  Alcotest.(check (list int)) "nothing retired" [] (Bbm.retired_list bbm);
  Alcotest.(check int) "unit relocated" 1 (List.length (Bbm.remap_table bbm));
  Alcotest.check bytes_t "data follows the unit" (payload 't')
    (Bbm.read_sectors bbm ~sector:(sec 2 5) ~count:1)

(* ---------------- bbm: degradation and recovery ---------------- *)

let test_degradation () =
  let chip = mk_chip () in
  let bbm, forced = mk_bbm ~spares:[ 30; 31 ] chip in
  Bbm.write_sectors bbm ~sector:(sec 0 0) (payload 'k');
  hook chip (function Chip.Op_program _ -> Chip.Program_fail | _ -> Chip.Proceed);
  Alcotest.check_raises "spares exhausted" Bbm.Degraded (fun () ->
      Bbm.write_sectors bbm ~sector:(sec 0 1) (payload 'l'));
  unhook chip;
  Alcotest.(check bool) "degraded" true (Bbm.degraded bbm);
  Alcotest.(check int) "pool empty" 0 (Bbm.spares_left bbm);
  Alcotest.check_raises "writes refused from now on" Bbm.Degraded (fun () ->
      Bbm.write_sectors bbm ~sector:(sec 5 0) (payload 'm'));
  Alcotest.check_raises "erases refused too" Bbm.Degraded (fun () ->
      Bbm.erase_block bbm 5);
  (* Reads keep serving the committed data. *)
  Alcotest.check bytes_t "reads survive degradation" (payload 'k')
    (Bbm.read_sectors bbm ~sector:(sec 0 0) ~count:1);
  Alcotest.(check int) "one degradation" 1 (Bbm.stats bbm).Bbm.degradations;
  Alcotest.(check bool) "degradation persisted and forced" true
    (List.mem Bbm.P_degraded !forced)

let test_recover_replay () =
  let chip = mk_chip () in
  let bbm, forced = mk_bbm chip in
  Bbm.write_sectors bbm ~sector:(sec 0 0) (payload 'a');
  fail_next_program chip;
  Bbm.write_sectors bbm ~sector:(sec 0 1) (payload 'b');
  unhook chip;
  (* "Restart": replay the persisted events into a fresh manager over the
     same chip. *)
  let bbm', _ =
    let forced' = ref [] in
    let persist e = forced' := e :: !forced' in
    ( Bbm.recover (dev_of chip) ~spares:[ 28; 29; 30; 31 ] ~persist ~force:(fun () -> ())
        ~events:!forced (),
      forced' )
  in
  Alcotest.(check (list (pair int int))) "remap table survives"
    (Bbm.remap_table bbm) (Bbm.remap_table bbm');
  Alcotest.(check (list int)) "retired set survives" (Bbm.retired_list bbm)
    (Bbm.retired_list bbm');
  Alcotest.(check int) "pool size survives" (Bbm.spares_left bbm)
    (Bbm.spares_left bbm');
  Alcotest.(check bool) "not degraded" false (Bbm.degraded bbm');
  List.iteri
    (fun i c ->
      Alcotest.check bytes_t
        (Printf.sprintf "sector %d readable" i)
        (payload c)
        (Bbm.read_sectors bbm' ~sector:(sec 0 i) ~count:1))
    [ 'a'; 'b' ];
  (* The same tables must come out of a snapshot replay (metadata-log
     compaction path). *)
  let bbm'' =
    Bbm.recover (dev_of chip) ~spares:[ 28; 29; 30; 31 ]
      ~persist:(fun _ -> ())
      ~force:(fun () -> ())
      ~events:(Bbm.snapshot_events bbm) ()
  in
  Alcotest.(check (list (pair int int))) "snapshot replay: remap table"
    (Bbm.remap_table bbm) (Bbm.remap_table bbm'');
  Alcotest.(check (list int)) "snapshot replay: retired" (Bbm.retired_list bbm)
    (Bbm.retired_list bbm'')

(* ---------------- engine integration ---------------- *)

let resilient_config ?(spares = 4) () =
  {
    Config.default with
    Config.buffer_pages = 4;
    spare_blocks = spares;
  }

let test_engine_relocation_and_restart () =
  let config = resilient_config () in
  let chip = mk_chip () in
  let eng = Engine.create ~config chip in
  let page = Engine.Unsafe.allocate_page eng in
  let tx = Engine.Unsafe.begin_txn eng in
  let slot0 =
    match Engine.Unsafe.insert eng ~tx ~page (Bytes.of_string "hello") with
    | Ok s -> s
    | Error e -> Alcotest.fail (Engine.error_to_string e)
  in
  Engine.Unsafe.commit eng tx;
  (* Fail the next data-area program: the log-sector flush of the second
     commit relocates its erase unit. *)
  fail_next_program ~min_sector:(8 * spb) chip;
  let tx = Engine.Unsafe.begin_txn eng in
  let slot1 =
    match Engine.Unsafe.insert eng ~tx ~page (Bytes.of_string "world") with
    | Ok s -> s
    | Error e -> Alcotest.fail (Engine.error_to_string e)
  in
  (match Engine.commit eng (Engine.Unsafe.txn tx) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  unhook chip;
  Alcotest.(check (option string)) "first record" (Some "hello")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng ~page ~slot:slot0));
  Alcotest.(check (option string)) "second record" (Some "world")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng ~page ~slot:slot1));
  let rs = (Engine.stats eng).Engine.resilience in
  Alcotest.(check int) "one remap" 1 rs.Bbm.remaps;
  Alcotest.(check int) "spare consumed" 3 (Engine.spares_left eng);
  Alcotest.(check bool) "not degraded" false (Engine.degraded eng);
  (* The remap table must survive a restart. *)
  let eng', aborted = Engine.restart ~config chip in
  Alcotest.(check (list int)) "no aborted transactions" [] aborted;
  Alcotest.(check int) "spare still consumed after restart" 3
    (Engine.spares_left eng');
  Alcotest.(check (option string)) "first record after restart" (Some "hello")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng' ~page ~slot:slot0));
  Alcotest.(check (option string)) "second record after restart" (Some "world")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng' ~page ~slot:slot1))

let test_engine_degradation () =
  let config = resilient_config ~spares:2 () in
  let chip = mk_chip () in
  let eng = Engine.create ~config chip in
  let page = Engine.Unsafe.allocate_page eng in
  let tx = Engine.Unsafe.begin_txn eng in
  (match Engine.Unsafe.insert eng ~tx ~page (Bytes.of_string "durable") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  Engine.Unsafe.commit eng tx;
  (* Every data-area program fails from here on: the first flush must
     burn through both spares and degrade the device. *)
  hook chip (function
    | Chip.Op_program { sector; _ } when sector >= 8 * spb -> Chip.Program_fail
    | _ -> Chip.Proceed);
  let tx = Engine.Unsafe.begin_txn eng in
  (match Engine.Unsafe.insert eng ~tx ~page (Bytes.of_string "doomed") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  (match Engine.commit eng (Engine.Unsafe.txn tx) with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "commit succeeded on a dying device"
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  Alcotest.(check bool) "engine degraded" true (Engine.degraded eng);
  Engine.Unsafe.abort eng tx;
  Alcotest.(check bool) "mutations refused" true
    (Engine.Unsafe.insert eng ~tx:0 ~page (Bytes.of_string "no") = Error Engine.Device_degraded);
  Alcotest.(check bool) "allocation refused" true
    (Engine.allocate_page eng = Error Engine.Device_degraded);
  Alcotest.(check (option string)) "committed data still readable" (Some "durable")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng ~page ~slot:0));
  Alcotest.(check int) "degradation counted" 1
    (Engine.stats eng).Engine.resilience.Bbm.degradations;
  unhook chip;
  (* Read-only state must survive a restart. *)
  let eng', _ = Engine.restart ~config chip in
  Alcotest.(check bool) "degraded after restart" true (Engine.degraded eng');
  Alcotest.(check (option string)) "data readable after restart" (Some "durable")
    (Option.map Bytes.to_string (Engine.Unsafe.read eng' ~page ~slot:0));
  Alcotest.(check bool) "mutations refused after restart" true
    (Engine.Unsafe.insert eng' ~tx:0 ~page (Bytes.of_string "no")
    = Error Engine.Device_degraded)

(* ---------------- campaign profiles ---------------- *)

let check_campaign r =
  if not (Campaign.resilience_ok r) then
    Alcotest.failf "campaign failed:@\n%a" Campaign.pp_resilience_report r

let test_campaign_flaky () =
  check_campaign (Campaign.run_resilience ~transactions:40 Campaign.Flaky)

let test_campaign_program_faults () =
  check_campaign (Campaign.run_resilience ~transactions:60 Campaign.Program_faults)

let test_campaign_erase_faults () =
  check_campaign (Campaign.run_resilience ~transactions:60 Campaign.Erase_faults)

let test_campaign_wear_out () =
  let r = Campaign.run_resilience Campaign.Wear_out in
  check_campaign r;
  (* The whole point of the profile: the pool must actually run dry. *)
  Alcotest.(check bool) "reached degradation" true
    (r.Campaign.outcome.Fault.Workload.degraded_at <> None)

let test_campaign_remap_crash () =
  match Campaign.run_remap_crash () with
  | [] -> ()
  | (delta, vs) :: _ ->
      Alcotest.failf "crash %d ops after remap trigger: %s" delta
        (String.concat "; " vs)

let () =
  Alcotest.run "resilience"
    [
      ( "chip",
        [
          Alcotest.test_case "grown bad block" `Quick test_grown_bad_block;
          Alcotest.test_case "corrupt_sector typed error" `Quick
            test_corrupt_sector_non_materializing;
        ] );
      ( "bbm",
        [
          Alcotest.test_case "remap on program failure" `Quick
            test_remap_on_program_failure;
          Alcotest.test_case "wear-aware spare allocation" `Quick
            test_wear_aware_spare_allocation;
          Alcotest.test_case "remap on erase failure" `Quick
            test_remap_on_erase_failure;
          Alcotest.test_case "read retry" `Quick test_read_retry;
          Alcotest.test_case "scrub on correctable" `Quick test_scrub_on_correctable;
          Alcotest.test_case "degradation" `Quick test_degradation;
          Alcotest.test_case "recovery replay" `Quick test_recover_replay;
        ] );
      ( "engine",
        [
          Alcotest.test_case "relocation and restart" `Quick
            test_engine_relocation_and_restart;
          Alcotest.test_case "degradation" `Quick test_engine_degradation;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "flaky reads" `Quick test_campaign_flaky;
          Alcotest.test_case "program failures" `Quick test_campaign_program_faults;
          Alcotest.test_case "erase failures" `Quick test_campaign_erase_faults;
          Alcotest.test_case "wear out to exhaustion" `Slow test_campaign_wear_out;
          Alcotest.test_case "crash during remap" `Quick test_campaign_remap_crash;
        ] );
    ]

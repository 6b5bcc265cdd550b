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
let mk_bbm ?(spares = [ 28; 29; 30; 31 ]) chip =
  let forced = ref [] and buf = ref [] in
  let persist e = buf := e :: !buf in
  let force () =
    forced := !forced @ List.rev !buf;
    buf := []
  in
  let bbm = Bbm.create (dev_of chip) ~spares ~persist ~force () in
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
  let bbm, _ = mk_bbm chip in
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

(* The asynchronous reads retry and scrub at submission, as the
   synchronous one does: the device executes eagerly, so the chip's
   answer is there when the read is submitted. *)
let test_async_read_retry () =
  let module Dev = Device.Flash_device in
  let chip = mk_chip () in
  let bbm, _ = mk_bbm chip in
  let dev = Bbm.device bbm in
  Bbm.write_sectors bbm ~sector:(sec 1 0) (payload 'a');
  Bbm.write_sectors bbm ~sector:(sec 2 0) (payload 'b');
  let faults = ref 0 in
  hook chip (function
    | Chip.Op_read _ when !faults > 0 ->
        decr faults;
        Chip.Read_fault
    | _ -> Chip.Proceed);
  faults := 2;
  let data = Bytes.create 512 in
  let tag = Bbm.submit_read_sectors_into bbm ~cls:Dev.Foreground ~sector:(sec 1 0) ~count:1 data in
  Dev.await dev tag;
  Alcotest.check bytes_t "submitted read retried" (payload 'a') data;
  faults := 1;
  let dst = Bytes.create 512 in
  Bbm.read_sectors_into ~cls:Dev.Merge_io bbm ~sector:(sec 2 0) ~count:1 dst;
  Alcotest.check bytes_t "merge-class read retried" (payload 'b') dst;
  Alcotest.(check int) "three retries counted" 3 (Bbm.stats bbm).Bbm.read_retries;
  hook chip (function Chip.Op_read _ -> Chip.Read_correctable | _ -> Chip.Proceed);
  let tag = Bbm.submit_read_sectors_into bbm ~cls:Dev.Foreground ~sector:(sec 1 0) ~count:1 data in
  Dev.await dev tag;
  unhook chip;
  Alcotest.(check int) "corrected submitted read scrubbed" 1 (Bbm.stats bbm).Bbm.scrubs;
  Alcotest.check bytes_t "data survives the scrub" (payload 'a')
    (Bbm.read_sectors bbm ~sector:(sec 1 0) ~count:1)

(* A fault-free read through a manager allocates no more than the same
   read on the bare device: the retry loop is a top-level function, not
   a closure built per read. *)
let test_read_allocation () =
  let chip = mk_chip () in
  let bbm, _ = mk_bbm ~spares:[] chip in
  let dev = Bbm.device bbm in
  Bbm.write_sectors bbm ~sector:(sec 8 0) (payload 'r');
  let dst = Bytes.create 512 and runs = 1000 in
  let per_read f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int runs
  in
  let sector = sec 8 0 and merge = Device.Flash_device.Merge_io in
  List.iter
    (fun (what, direct, managed) ->
      let direct = per_read direct and managed = per_read managed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per read <= %.1f on the device" what managed direct)
        true (managed <= direct))
    [
      ( "foreground",
        (fun () -> Device.Flash_device.read_sectors_into dev ~sector ~count:1 dst),
        fun () -> Bbm.read_sectors_into bbm ~sector ~count:1 dst );
      ( "merge",
        (fun () -> Device.Flash_device.publish_read_into dev ~cls:merge ~sector ~count:1 dst),
        fun () -> Bbm.read_sectors_into ~cls:merge bbm ~sector ~count:1 dst );
    ]

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

(* With [spares = 0] the pool is empty from the start: the first failed
   program degrades the device. *)
let test_engine_degradation ~spares () =
  let config = resilient_config ~spares () in
  let chip = mk_chip () in
  let eng = Engine.create ~config chip in
  let page = Engine.Unsafe.allocate_page eng in
  let tx = Engine.Unsafe.begin_txn eng in
  (match Engine.Unsafe.insert eng ~tx ~page (Bytes.of_string "durable") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  Engine.Unsafe.commit eng tx;
  (* Every data-area program fails from here on: the first flush must
     burn through the spares and degrade the device. *)
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

(* A fault-free run does the same work whatever the pool size: every
   engine reaches its data area through the bad-block manager, so on the
   4x2 device the simulated time, the logical digest and the storage and
   pool stats of a run with four spares match one with none. *)
let test_engine_spares_neutral () =
  let run spare_blocks =
    let spec =
      { Workload.Obs_bench.quick with Workload.Obs_bench.spare_blocks; channels = 4; ways = 2 }
    in
    let r = Workload.Obs_bench.run ~spec () in
    let eng = r.Workload.Obs_bench.engine in
    let stats = Engine.stats eng in
    ( Ipl_util.Json.member "logical_digest" r.Workload.Obs_bench.json,
      Device.Flash_device.elapsed (Engine.device eng),
      stats.Engine.storage,
      stats.Engine.pool )
  in
  let digest0, elapsed0, storage0, pool0 = run 0 in
  let digest4, elapsed4, storage4, pool4 = run 4 in
  Alcotest.(check bool) "logical digest" true (digest0 = digest4);
  Alcotest.(check (float 0.0)) "device elapsed" elapsed0 elapsed4;
  Alcotest.(check bool) "storage stats" true (storage0 = storage4);
  Alcotest.(check bool) "pool stats" true (pool0 = pool4)

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

(* With no spares the forced program failure degrades the device instead
   of relocating, and each crash point must still recover. *)
let test_campaign_remap_crash ~spares () =
  let r = Campaign.run (Campaign.Remap_crash { spares }) Fault.Workload.default in
  Alcotest.(check int) "every delta tested" 8 r.Campaign.crash_points;
  match r.Campaign.violations with
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
          Alcotest.test_case "asynchronous read retry" `Quick test_async_read_retry;
          Alcotest.test_case "read allocation" `Quick test_read_allocation;
          Alcotest.test_case "scrub on correctable" `Quick test_scrub_on_correctable;
          Alcotest.test_case "degradation" `Quick test_degradation;
          Alcotest.test_case "recovery replay" `Quick test_recover_replay;
        ] );
      ( "engine",
        [
          Alcotest.test_case "relocation and restart" `Quick
            test_engine_relocation_and_restart;
          Alcotest.test_case "degradation" `Quick (test_engine_degradation ~spares:2);
          Alcotest.test_case "degradation with no spares" `Quick
            (test_engine_degradation ~spares:0);
          Alcotest.test_case "fault-free run: 0 = 4 spares" `Quick
            test_engine_spares_neutral;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "flaky reads" `Quick test_campaign_flaky;
          Alcotest.test_case "program failures" `Quick test_campaign_program_faults;
          Alcotest.test_case "erase failures" `Quick test_campaign_erase_faults;
          Alcotest.test_case "wear out to exhaustion" `Slow test_campaign_wear_out;
          Alcotest.test_case "crash during remap" `Quick (test_campaign_remap_crash ~spares:4);
          Alcotest.test_case "crash after degrading, no spares" `Quick
            (test_campaign_remap_crash ~spares:0);
        ] );
    ]

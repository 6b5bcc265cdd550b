(* Tests of restart. A restart reads only the system log and owes
   nothing afterwards: each erase unit's in-page log is read when an
   access needs it, through the same path as at run time. The recurring
   shape is a deterministic populate run stopped abruptly; the restarted
   engine must read exactly the values the run committed. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Store = Ipl_core.Ipl_storage
module Plan = Fault.Fault_plan

let b = Bytes.of_string

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (Engine.error_to_string e)

let base_config = { Config.default with Config.buffer_pages = 8 }

let mk_chip ?(blocks = 32) () = Chip.create (FConfig.default ~num_blocks:blocks ())

(* Deterministic populate: [pages] pages seeded with one record each,
   then [txns] single-update transactions round-robining over them, each
   update writing a value derived from its index, under commit window
   [window] (1: every commit durable on return). Stops abruptly — no checkpoint
   call, no quiesce. Returns the page handles. *)
let populate ?(pages = 8) ?(txns = 40) ?(window = 1) config chip =
  let e = Engine.create ~config chip in
  Engine.set_group_commit e window;
  let ps = Array.init pages (fun _ -> Engine.Unsafe.allocate_page e) in
  let tx = Engine.Unsafe.begin_txn e in
  Array.iteri
    (fun i p -> ignore (ok (Engine.Unsafe.insert e ~tx ~page:p (b (Printf.sprintf "seed-%d" i))) : int))
    ps;
  Engine.Unsafe.commit e tx;
  for i = 0 to txns - 1 do
    let tx = Engine.Unsafe.begin_txn e in
    let p = ps.(i mod pages) in
    ok (Engine.Unsafe.update e ~tx ~page:p ~slot:0 (b (Printf.sprintf "txn-%d" i)));
    Engine.Unsafe.commit e tx
  done;
  ps

let slot0 e page = Engine.Unsafe.read e ~page ~slot:0

(* Every page's slot-0 value, in page order. *)
let contents e pages = Array.to_list (Array.map (fun p -> slot0 e p) pages)

(* What [populate] committed durably. Its commits, the seeding one
   first, become durable a window at a time, so a crash loses the last
   partly filled window; each page then holds the last durable update of
   it, or its seed. *)
let committed ?(pages = 8) ?(txns = 40) ?(window = 1) () =
  let durable = ((1 + txns) / window * window) - 1 in
  List.init pages (fun i ->
      let rec last k = if k < 0 then None else if k mod pages = i then Some k else last (k - 1) in
      Some
        (b
           (match last (durable - 1) with
           | Some k -> Printf.sprintf "txn-%d" k
           | None -> Printf.sprintf "seed-%d" i)))

let log_reads e = (Engine.stats e).Engine.storage.Store.log_sector_reads

(* Restart from [populate]'s crashed chip: the restart reads no in-page
   log sector, and every page reads what the run committed. *)
let check_restart ?pages:(np = 8) ?txns ?window config =
  let chip = mk_chip () in
  let pages = populate ~pages:np ?txns ?window config chip in
  let e, _ = Engine.restart ~config chip in
  Alcotest.(check int) "restart reads no in-page log" 0 (log_reads e);
  Alcotest.(check (list (option bytes))) "restart == committed"
    (committed ~pages:np ?txns ?window ())
    (contents e pages);
  (e, pages)

let test_restart_committed () = ignore (check_restart base_config : Engine.t * int array)

(* Group-commit windows defer commit records, and the crash lands with
   the last window's commits still volatile: 43 transactions and the
   seeding one under a window of 6 leave two commits unforced. Their
   records may sit in the in-page logs, but restart aborts them, and the
   read path must filter them out. *)
let test_partly_filled_window () =
  ignore (check_restart ~txns:43 ~window:6 base_config : Engine.t * int array)

(* A restart on a degraded device (spare pool exhausted) must still
   come up read-only: restart and reads only read flash, so every page
   reads while mutations keep answering [Device_degraded]. *)
let test_restart_while_degraded () =
  let config = { base_config with Config.spare_blocks = 1 } in
  let chip = mk_chip () in
  let pages = populate config chip in
  (* Exhaust the 1-block spare pool: force every data-area program to
     fail, each failure costing a remap — the second remap finds the
     pool empty and degrades the device. The system logs (blocks 0-7)
     sit outside the bad-block manager, so the plan must spare them. *)
  let data_start = 8 * FConfig.sectors_per_block (FConfig.default ()) in
  Plan.install chip (Plan.program_failures ~seed:7 ~rate:1.0 ~min_sector:data_start ());
  let e', _ = Engine.restart ~config chip in
  (* Committed updates force log-sector programs; each forced program
     fails under the plan and costs a remap until the pool is gone. *)
  let rec hammer i =
    if i < 64 && not (Engine.degraded e') then begin
      (match Engine.begin_txn e' with
      | Error _ -> ()
      | Ok tx -> (
          (match
             Engine.Unsafe.update e'
               ~tx:(Engine.txn_id tx)
               ~page:pages.(i mod Array.length pages)
               ~slot:0 (b "x")
           with
          | Ok () | Error _ -> ());
          match Engine.commit e' tx with Ok () | Error _ -> ()));
      hammer (i + 1)
    end
  in
  hammer 0;
  Plan.clear chip;
  Alcotest.(check bool) "device degraded" true (Engine.degraded e');
  (* Crash and reopen on the degraded device. *)
  let e'', _ = Engine.restart ~config chip in
  Alcotest.(check bool) "still degraded after restart" true (Engine.degraded e'');
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) (Printf.sprintf "page %d readable" i) true (slot0 e'' p <> None))
    pages;
  let tx = Engine.Unsafe.begin_txn e'' in
  match Engine.Unsafe.update e'' ~tx ~page:pages.(0) ~slot:0 (b "y") with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "mutation accepted on a degraded device"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_to_string e)

(* Crash again after the first restart has read some units' logs and
   not others: the second restart starts from flash alone and must
   reach the same committed content. *)
let test_double_crash_after_partial_reads () =
  let config = base_config in
  let chip = mk_chip () in
  let pages = populate ~pages:8 ~txns:40 config chip in
  let e1, _ = Engine.restart ~config chip in
  Alcotest.(check bool) "one page read" true (slot0 e1 pages.(0) <> None);
  let e2, _ = Engine.restart ~config chip in
  Alcotest.(check (list (option bytes))) "content exact after double crash"
    (committed ~pages:8 ~txns:40 ())
    (contents e2 pages)

(* A restart leaves the log-record cache cold, and reads warm it: the
   first pass over every page misses once per unit with a log, and a
   second pass reads no log sector. *)
let test_warm_entries_counted () =
  let e, pages = check_restart base_config in
  let store = Engine.storage e in
  let logged =
    List.sort_uniq compare (Array.to_list (Array.map (fun page -> Store.eu_of_page store page) pages))
    |> List.filter (fun eu -> Store.used_log_sectors store ~eu + Store.overflow_sectors store ~eu > 0)
  in
  let s = (Engine.stats e).Engine.storage in
  Alcotest.(check bool) "units with a log" true (logged <> []);
  Alcotest.(check int) "one miss per unit with a log" (List.length logged) s.Store.log_cache_misses;
  (* Past the buffer pool, straight to the storage manager. *)
  Array.iter (fun page -> ignore (Store.read_page store page : Storage.Page.t)) pages;
  let s' = (Engine.stats e).Engine.storage in
  Alcotest.(check int) "no miss on the second pass" s.Store.log_cache_misses
    s'.Store.log_cache_misses;
  Alcotest.(check int) "no log read on the second pass" s.Store.log_sector_reads
    s'.Store.log_sector_reads

(* With the cache disabled, the first read after a restart reads its
   unit's log once: as many sectors as the unit has used, not twice
   that. *)
let test_cache_disabled_first_read () =
  let config = { base_config with Config.log_cache_bytes = 0 } in
  let chip = mk_chip () in
  let pages = populate config chip in
  let e, _ = Engine.restart ~config chip in
  let store = Engine.storage e in
  let eu = Store.eu_of_page store pages.(0) in
  let used = Store.used_log_sectors store ~eu + Store.overflow_sectors store ~eu in
  Alcotest.(check bool) "the unit has a log" true (used > 0);
  Alcotest.(check int) "restart reads no in-page log" 0 (log_reads e);
  Alcotest.(check bool) "first read" true (slot0 e pages.(0) <> None);
  Alcotest.(check int) "one read of the unit's log" used (log_reads e);
  Alcotest.(check (list (option bytes))) "cache-off restart == committed" (committed ())
    (contents e pages)

let () =
  Alcotest.run "recovery"
    [
      ( "lazy-restart",
        [
          Alcotest.test_case "restart == committed" `Quick test_restart_committed;
          Alcotest.test_case "partly filled commit window" `Quick test_partly_filled_window;
          Alcotest.test_case "restart while degraded" `Quick test_restart_while_degraded;
          Alcotest.test_case "double crash after partial reads" `Quick
            test_double_crash_after_partial_reads;
          Alcotest.test_case "warm entries counted" `Quick test_warm_entries_counted;
          Alcotest.test_case "cache-disabled first read" `Quick test_cache_disabled_first_read;
        ] );
    ]

(* Tests of the lazy-restart path: fuzzy checkpoints on the metadata
   log, the page-indexed repair plan a restart builds from them, and
   on-demand page repair. The recurring shape is a deterministic
   populate run executed twice: once with checkpoints, and once with
   [checkpoint_every = 0] as the reference, whose restart has no
   coverage and so reads every unit's whole log. The recovered logical
   content must match slot for slot; the physical layouts may differ. *)

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

let base_config =
  {
    Config.default with
    Config.buffer_pages = 8;
    checkpoint_every = 4;
  }

let mk_chip ?(blocks = 32) () = Chip.create (FConfig.default ~num_blocks:blocks ())

(* Deterministic populate: [pages] pages seeded with one record each,
   then [txns] single-update transactions round-robining over them, each
   update writing a value derived from its index, under commit window
   [window] (0: every commit forced). Stops abruptly — no checkpoint
   call, no quiesce. Returns the page handles. *)
let populate ?(pages = 8) ?(txns = 40) ?(window = 0) config chip =
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

(* Every page's slot-0 value, in page order — the logical content the
   full-read reference and the lazy restart must agree on. *)
let contents e pages = Array.to_list (Array.map (fun p -> slot0 e p) pages)

(* The full-read reference for [config]: the same engine without
   checkpoints. *)
let reference config = { config with Config.checkpoint_every = 0 }

let check_twins ?pages:(np = 8) ?txns ?window config =
  let chip_e = mk_chip () and chip_l = mk_chip () in
  let pages = populate ~pages:np ?txns ?window (reference config) chip_e in
  let (_ : int array) = populate ~pages:np ?txns ?window config chip_l in
  let eager, _ = Engine.restart ~config:(reference config) chip_e in
  let lzy, _ = Engine.restart ~config chip_l in
  (* Compare once right after restart (first-touch repair on the read
     path) and once after the background drainer has settled the rest. *)
  Alcotest.(check (list (option bytes)))
    "lazy == eager at first touch" (contents eager pages) (contents lzy pages);
  let (_ : int) = Engine.Unsafe.drain_repairs lzy ~max_eus:max_int in
  Alcotest.(check int) "repair table drained" 0 (Engine.repair_pending lzy);
  Alcotest.(check (list (option bytes)))
    "lazy == eager after drain" (contents eager pages) (contents lzy pages);
  (eager, lzy, pages)

let test_lazy_matches_eager () =
  let _, lzy, _ = check_twins base_config in
  let s = (Engine.stats lzy).Engine.storage in
  Alcotest.(check bool) "some units repaired lazily" true (s.Store.eus_repaired_lazily > 0)

(* Group-commit windows defer transaction-log forcing, so a fuzzy
   checkpoint can be emitted while commit records it covers are still
   volatile. Its footer then carries a trx_watermark ahead of the
   durable watermark and a crash must make recovery discard it (promote
   only checkpoints whose watermark is durable) — silently falling back
   to reading every unit's whole log, never replaying unforced records
   as committed. *)
let test_ckpt_spanning_deferred_commits () =
  let config = { base_config with Config.checkpoint_every = 2 } in
  (* 43 txns: the last group-commit window is only partially filled, so
     the tail commits are non-durable when the crash hits. *)
  let eager, lzy, pages = check_twins ~txns:43 ~window:6 config in
  (* The populate stream is fully deterministic, so whatever prefix
     survived must be the same prefix on both engines — already checked —
     and the seeded values must never be lost (they precede the last
     durable point by several windows). *)
  Array.iteri
    (fun i p ->
      match (slot0 eager p, slot0 lzy p) with
      | Some _, Some _ -> ()
      | a, bb ->
          Alcotest.failf "page %d lost after restart (eager %b, lazy %b)" i (a <> None)
            (bb <> None))
    pages

(* A restart on a degraded device (spare pool exhausted) must still
   come up read-only: lazy recovery and repair are pure reads, so the
   repair plan drains fine while mutations keep answering
   [Device_degraded]. *)
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
  (* Crash and reopen lazily on the degraded device. *)
  let e'', _ = Engine.restart ~config chip in
  Alcotest.(check bool) "still degraded after restart" true (Engine.degraded e'');
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) (Printf.sprintf "page %d readable" i) true (slot0 e'' p <> None))
    pages;
  let (_ : int) = Engine.Unsafe.drain_repairs e'' ~max_eus:max_int in
  Alcotest.(check int) "repairs drain on a degraded device" 0 (Engine.repair_pending e'');
  let tx = Engine.Unsafe.begin_txn e'' in
  match Engine.Unsafe.update e'' ~tx ~page:pages.(0) ~slot:0 (b "y") with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "mutation accepted on a degraded device"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_to_string e)

(* Crash again while the first lazy restart still owes repairs: the
   repair table is volatile, so the second restart rebuilds its plan
   from flash alone and must reach the same committed content. *)
let test_double_crash_during_repair () =
  let config = base_config in
  let chip = mk_chip () in
  let pages = populate ~pages:8 ~txns:40 config chip in
  (* Every populate transaction committed with commit window 0, so the
     expected content is exact: page i's slot 0 holds the last txn that
     touched it. *)
  let expected =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           let last = 40 - 8 + i in
           Some (b (Printf.sprintf "txn-%d" last)))
         pages)
  in
  let e1, _ = Engine.restart ~config chip in
  let pending1 = Engine.repair_pending e1 in
  (* Repair strictly less than everything, then crash mid-debt. *)
  let (_ : int) = Engine.Unsafe.drain_repairs e1 ~max_eus:1 in
  if pending1 > 1 then
    Alcotest.(check bool) "still owes repairs" true (Engine.repair_pending e1 > 0);
  let e2, _ = Engine.restart ~config chip in
  let (_ : int) = Engine.Unsafe.drain_repairs e2 ~max_eus:max_int in
  Alcotest.(check int) "second restart drains clean" 0 (Engine.repair_pending e2);
  Alcotest.(check (list (option bytes))) "content exact after double crash" expected
    (contents e2 pages)

(* The repair path's cache warming is observable: entries installed by
   repair (not by demand misses) are counted, and with the cache
   disabled repair still settles the debt without warming anything. *)
let test_warm_entries_counted () =
  let config = base_config in
  let chip = mk_chip () in
  let pages = populate config chip in
  let e, _ = Engine.restart ~config chip in
  let pending = Engine.repair_pending e in
  Alcotest.(check bool) "restart left repairs pending" true (pending > 0);
  let (_ : int) = Engine.Unsafe.drain_repairs e ~max_eus:max_int in
  let s = (Engine.stats e).Engine.storage in
  Alcotest.(check int) "every repair warmed one cache entry" s.Store.eus_repaired_lazily
    s.Store.log_cache_warm_entries;
  Alcotest.(check bool) "warm entries counted" true (s.Store.log_cache_warm_entries > 0);
  Array.iter (fun p -> Alcotest.(check bool) "readable" true (slot0 e p <> None)) pages

let test_cache_disabled_repair () =
  let config = { base_config with Config.log_cache_bytes = 0 } in
  let chip_l = mk_chip () and chip_e = mk_chip () in
  let pages = populate config chip_l in
  let (_ : int array) = populate (reference config) chip_e in
  let lzy, _ = Engine.restart ~config chip_l in
  let eager, _ = Engine.restart ~config:(reference config) chip_e in
  let (_ : int) = Engine.Unsafe.drain_repairs lzy ~max_eus:max_int in
  let s = (Engine.stats lzy).Engine.storage in
  Alcotest.(check bool) "units still counted as repaired" true (s.Store.eus_repaired_lazily > 0);
  Alcotest.(check int) "nothing warmed without a cache" 0 s.Store.log_cache_warm_entries;
  Alcotest.(check (list (option bytes)))
    "cache-off lazy == eager" (contents eager pages) (contents lzy pages)

let () =
  Alcotest.run "recovery"
    [
      ( "lazy-restart",
        [
          Alcotest.test_case "lazy matches eager" `Quick test_lazy_matches_eager;
          Alcotest.test_case "checkpoint spanning deferred commits" `Quick
            test_ckpt_spanning_deferred_commits;
          Alcotest.test_case "restart while degraded" `Quick test_restart_while_degraded;
          Alcotest.test_case "double crash during repair" `Quick
            test_double_crash_during_repair;
          Alcotest.test_case "warm entries counted" `Quick test_warm_entries_counted;
          Alcotest.test_case "cache-disabled repair" `Quick test_cache_disabled_repair;
        ] );
    ]

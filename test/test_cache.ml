(* Tests for the DRAM log-record cache: unit tests of Cache.Log_cache
   (indexing, LRU eviction, invalidation, the disabled mode) plus the
   load-bearing equivalence property — an engine with the cache on
   answers every read exactly as one with the cache off, before and
   after restart, without changing a single flash write. *)

module LC = Cache.Log_cache
module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Store = Ipl_core.Ipl_storage
module Rng = Ipl_util.Rng

(* Unit tests use (page, payload) pairs as records; a record costs its
   payload length, so byte budgets are easy to reason about. *)
let mk ?(budget = 1000) ?on_evict () =
  LC.create ~budget_bytes:budget
    ~record_bytes:(fun (_, s) -> String.length s)
    ~page_of:fst ?on_evict ()

let rec_list = Alcotest.(list (pair int string))
let all _ = true

let test_indexing () =
  let c = mk () in
  let records = [ (1, "a"); (2, "bb"); (1, "ccc"); (3, "d"); (1, "ee") ] in
  LC.install c 7 records;
  Alcotest.(check bool) "mem" true (LC.mem c 7);
  Alcotest.(check (option rec_list)) "application order" (Some records) (LC.records c 7);
  Alcotest.(check (option rec_list))
    "per-page order"
    (Some [ (1, "a"); (1, "ccc"); (1, "ee") ])
    (LC.records_of_page c 7 ~page:1 ~keep:all);
  Alcotest.(check (option rec_list))
    "kept, in order"
    (Some [ (1, "a"); (1, "ee") ])
    (LC.records_of_page c 7 ~page:1 ~keep:(fun (_, s) -> String.length s <> 3));
  (* Cached unit, no records for the page: Some [], not None. *)
  Alcotest.(check (option rec_list)) "cached, empty page" (Some [])
    (LC.records_of_page c 7 ~page:9 ~keep:all);
  Alcotest.(check (option rec_list)) "uncached unit" None (LC.records_of_page c 8 ~page:1 ~keep:all);
  let s = LC.stats c in
  Alcotest.(check int) "entries" 1 s.LC.entries;
  Alcotest.(check int) "bytes" 9 s.LC.bytes

let test_append () =
  let c = mk () in
  (* Append to an uncached unit is a no-op, not an install: the cache
     cannot know the unit's earlier records. *)
  LC.append c 5 [ (1, "x") ];
  Alcotest.(check bool) "append absent: still absent" false (LC.mem c 5);
  LC.install c 5 [ (1, "a") ];
  LC.append c 5 [ (2, "b"); (1, "c") ];
  Alcotest.(check (option rec_list))
    "extended in order"
    (Some [ (1, "a"); (2, "b"); (1, "c") ])
    (LC.records c 5);
  Alcotest.(check (option rec_list)) "page index extended" (Some [ (1, "a"); (1, "c") ])
    (LC.records_of_page c 5 ~page:1 ~keep:all)

let test_lru_eviction () =
  let evicted = ref [] in
  let c = mk ~budget:8 ~on_evict:(fun ~key ~bytes -> evicted := (key, bytes) :: !evicted) () in
  LC.install c 1 [ (0, "aaa") ];
  LC.install c 2 [ (0, "bbb") ];
  (* Touch 1 so 2 becomes LRU, then overflow the budget. *)
  ignore (LC.records c 1);
  LC.install c 3 [ (0, "ccc") ];
  Alcotest.(check (list (pair int int))) "LRU evicted" [ (2, 3) ] !evicted;
  Alcotest.(check bool) "1 survives" true (LC.mem c 1);
  Alcotest.(check bool) "3 cached" true (LC.mem c 3);
  Alcotest.(check int) "bytes within budget" 6 (LC.stats c).LC.bytes;
  (* An entry alone bigger than the whole budget evicts everything,
     itself included. *)
  LC.install c 9 [ (0, String.make 50 'x') ];
  Alcotest.(check int) "nothing cached" 0 (LC.stats c).LC.entries;
  Alcotest.(check int) "no bytes leak" 0 (LC.stats c).LC.bytes;
  Alcotest.(check bool) "oversized entry itself evicted" true
    (List.mem_assoc 9 !evicted)

let test_invalidate_and_clear () =
  let evicted = ref 0 in
  let c = mk ~on_evict:(fun ~key:_ ~bytes:_ -> incr evicted) () in
  LC.install c 1 [ (0, "aa") ];
  LC.install c 2 [ (0, "bb") ];
  (* Replacing an entry accounts bytes exactly once. *)
  LC.install c 1 [ (0, "cccc") ];
  Alcotest.(check int) "replace re-accounts" 6 (LC.stats c).LC.bytes;
  LC.invalidate c 1;
  Alcotest.(check bool) "invalidated" false (LC.mem c 1);
  Alcotest.(check int) "bytes released" 2 (LC.stats c).LC.bytes;
  LC.invalidate c 42;
  (* absent: no-op *)
  LC.clear c;
  Alcotest.(check int) "cleared" 0 (LC.stats c).LC.entries;
  Alcotest.(check int) "invalidate/clear are not evictions" 0 !evicted

let test_disabled () =
  let c = mk ~budget:0 () in
  Alcotest.(check bool) "disabled" false (LC.enabled c);
  LC.install c 1 [ (0, "a") ];
  LC.append c 1 [ (0, "b") ];
  Alcotest.(check bool) "install is a no-op" false (LC.mem c 1);
  Alcotest.(check (option rec_list)) "every lookup misses" None (LC.records c 1)

(* ---------------- engine-level equivalence ---------------- *)

let engine_with ~cache_bytes ~blocks =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config =
    { Config.default with Config.log_cache_bytes = cache_bytes }
  in
  (chip, config, Engine.create ~config chip)

(* One deterministic OLTP-ish workload (same mix as Obs_bench), applied
   identically to both engines; every mutation's result and every read
   along the way must agree. *)
let run_twin_workload ~seed ~txns (ea, eb) =
  let rng = Rng.of_int seed in
  let pages = Array.init 6 (fun _ ->
      let p = Engine.Unsafe.allocate_page ea in
      let p' = Engine.Unsafe.allocate_page eb in
      Alcotest.(check int) "same page ids" p p';
      p)
  in
  let payload () = Bytes.of_string (Rng.alpha_string rng ~min:8 ~max:40) in
  let both f =
    let ra = f ea and rb = f eb in
    if ra <> rb then Alcotest.fail "cache-on and cache-off engines diverged";
    ra
  in
  for i = 1 to txns do
    let tx = both Engine.Unsafe.begin_txn in
    let ops = 1 + Rng.int rng 4 in
    for _ = 1 to ops do
      let page = pages.(Rng.int rng (Array.length pages)) in
      let slot = Rng.int rng 16 in
      match Rng.int rng 10 with
      | 0 | 1 | 2 ->
          let p = payload () in
          ignore (both (fun e -> Engine.Unsafe.insert e ~tx ~page p))
      | 3 -> ignore (both (fun e -> Engine.Unsafe.delete e ~tx ~page ~slot))
      | _ ->
          let p = payload () in
          ignore (both (fun e -> Engine.Unsafe.update e ~tx ~page ~slot p))
    done;
    if Rng.int rng 100 < 15 then both (fun e -> Engine.Unsafe.abort e tx)
    else both (fun e -> Engine.Unsafe.commit e tx);
    (* Interleave reads so the cache is exercised while logs grow. *)
    for _ = 1 to 4 do
      let page = pages.(Rng.int rng (Array.length pages)) in
      let slot = Rng.int rng 16 in
      ignore (both (fun e -> Engine.Unsafe.read e ~page ~slot))
    done;
    if i mod 25 = 0 then both (fun e -> Engine.Unsafe.checkpoint e);
    if i mod 40 = 0 then ignore (both (fun e -> Engine.Unsafe.compact e ~max_merges:2))
  done;
  pages

let check_all_reads label (ea, eb) pages =
  Array.iter
    (fun page ->
      for slot = 0 to 31 do
        Alcotest.(check (option bytes))
          (Printf.sprintf "%s: page %d slot %d" label page slot)
          (Engine.Unsafe.read eb ~page ~slot)
          (Engine.Unsafe.read ea ~page ~slot)
      done)
    pages

let equivalence ?(expect_hits = true) ~seed ~cache_bytes () =
  let chip_a, config_a, ea = engine_with ~cache_bytes ~blocks:64 in
  let chip_b, config_b, eb = engine_with ~cache_bytes:0 ~blocks:64 in
  let pages = run_twin_workload ~seed ~txns:60 (ea, eb) in
  check_all_reads "live" (ea, eb) pages;
  (* The cache must never change what reaches flash. *)
  let sa = (Engine.stats ea).Engine.storage and sb = (Engine.stats eb).Engine.storage in
  Alcotest.(check int) "log writes equal" sb.Store.log_sector_writes sa.Store.log_sector_writes;
  Alcotest.(check int) "overflow writes equal" sb.Store.overflow_sector_writes
    sa.Store.overflow_sector_writes;
  Alcotest.(check int) "merges equal" sb.Store.merges sa.Store.merges;
  if expect_hits then
    Alcotest.(check bool) "cache-on run actually hit the cache" true
      (sa.Store.log_cache_hits > 0);
  Alcotest.(check int) "cache-off run never touches the cache" 0 sb.Store.log_cache_hits;
  (* Crash at a durability point: both come back identical (the cache is
     DRAM-only, so the cache-on engine restarts cold). *)
  Engine.Unsafe.checkpoint ea;
  Engine.Unsafe.checkpoint eb;
  let ea', _ = Engine.restart ~config:config_a chip_a in
  let eb', _ = Engine.restart ~config:config_b chip_b in
  check_all_reads "after restart" (ea', eb') pages

let test_equivalence_default () = equivalence ~seed:7 ~cache_bytes:(256 * 1024) ()

let test_equivalence_tiny_budget () =
  (* A budget small enough that eviction churns constantly; hits are not
     guaranteed (entries can self-evict), equivalence still is. *)
  equivalence ~expect_hits:false ~seed:11 ~cache_bytes:600 ()

let prop_equivalence =
  QCheck.Test.make ~name:"cache on/off engines are read-equivalent" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      equivalence ~expect_hits:false ~seed ~cache_bytes:(1 lsl (6 + (seed mod 10))) ();
      true)

let () =
  Alcotest.run "cache"
    [
      ( "log cache",
        [
          Alcotest.test_case "per-page indexing" `Quick test_indexing;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "invalidate and clear" `Quick test_invalidate_and_clear;
          Alcotest.test_case "disabled at budget 0" `Quick test_disabled;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "default budget" `Quick test_equivalence_default;
          Alcotest.test_case "tiny budget (eviction churn)" `Quick test_equivalence_tiny_budget;
          QCheck_alcotest.to_alcotest prop_equivalence;
        ] );
    ]

(* Tests of the observability layer (lib/obs): JSON round-trips, the
   trace ring buffer, latency histograms, the Stats_intf retrofit, the
   typed engine errors, and a deterministic traced workload whose event
   counts must agree with the storage-manager counters. *)

module Json = Ipl_util.Json
module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Store = Ipl_core.Ipl_storage
module Bench = Workload.Obs_bench

(* Compile-time satellite check: all four stats records implement the
   common signature. *)
module _ : Ipl_util.Stats_intf.S with type t = Flash_sim.Flash_stats.t = Flash_sim.Flash_stats
module _ : Ipl_util.Stats_intf.S with type t = Store.stats = Store.Stats
module _ : Ipl_util.Stats_intf.S with type t = Bufmgr.Buffer_pool.stats = Bufmgr.Buffer_pool.Stats
module _ : Ipl_util.Stats_intf.S with type t = Engine.combined_stats = Engine.Stats

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s (input %s)" e (Json.to_string v)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.25;
      Json.Float 1e-9;
      Json.Float 6.4e-4;
      Json.Float (-3.5);
      Json.Float 1.0;
      Json.String "";
      Json.String "plain";
      Json.String "quote \" backslash \\ newline \n tab \t";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      let v' = roundtrip v in
      if v <> v' then
        Alcotest.failf "round-trip changed %s into %s" (Json.to_string v) (Json.to_string v'))
    samples;
  (* Nested structure through the pretty-printer too. *)
  let v = Json.Obj [ ("xs", Json.List [ Json.Float 0.5; Json.Int 3 ]) ] in
  (match Json.of_string (Format.asprintf "%a" Json.pp v) with
  | Ok v' -> Alcotest.(check bool) "pp round-trip" true (v = v')
  | Error e -> Alcotest.failf "pp reparse failed: %s" e);
  (* Parser rejects garbage. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.Int 3); ("f", Json.Float 0.5); ("l", Json.List [ Json.Int 1 ]) ] in
  Alcotest.(check (option int)) "member int" (Some 3) (Option.bind (Json.member "n" v) Json.to_int);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" v = None);
  Alcotest.(check (option (float 1e-9)))
    "float" (Some 0.5)
    (Option.bind (Json.member "f" v) Json.to_float)

(* ------------------------------------------------------------------ *)
(* Tracer ring buffer                                                  *)

let test_tracer_ring () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Obs.Tracer.length tr);
  for i = 0 to 9 do
    Obs.Tracer.emit tr ~time:(float_of_int i) (Obs.Event.Evict { page = i })
  done;
  Alcotest.(check int) "emitted" 10 (Obs.Tracer.emitted tr);
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length tr);
  Alcotest.(check int) "dropped" 6 (Obs.Tracer.dropped tr);
  (* Oldest-first iteration over the survivors (6,7,8,9). *)
  let seqs = List.map (fun (e : Obs.Tracer.entry) -> e.Obs.Tracer.seq) (Obs.Tracer.to_list tr) in
  Alcotest.(check (list int)) "survivors in order" [ 6; 7; 8; 9 ] seqs;
  Alcotest.(check int) "count_kind" 4 (Obs.Tracer.count_kind tr "evict");
  Obs.Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (Obs.Tracer.length tr);
  Alcotest.(check int) "clear resets emitted" 0 (Obs.Tracer.emitted tr)

let test_event_json () =
  let ev = Obs.Event.Merge { eu = 3; new_eu = 7; applied = 10; carried = 2; dropped = 1 } in
  let j = Obs.Event.to_json ev in
  Alcotest.(check (option string))
    "kind field" (Some "merge")
    (Option.bind (Json.member "kind" j) (function Json.String s -> Some s | _ -> None));
  Alcotest.(check (option int)) "payload" (Some 7) (Option.bind (Json.member "new_eu" j) Json.to_int);
  (* Every declared kind tag is distinct and covered by [kinds]. *)
  Alcotest.(check int) "kinds distinct" (List.length Obs.Event.kinds)
    (List.length (List.sort_uniq compare Obs.Event.kinds));
  Alcotest.(check bool) "kind listed" true (List.mem (Obs.Event.kind ev) Obs.Event.kinds)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* The JSON of a histogram is pinned byte for byte, clamped inputs and
   the extreme buckets included. *)
let test_latency_json_pinned () =
  let h = Obs.Metrics.Latency.create () in
  List.iter (Obs.Metrics.Latency.observe h)
    [ 0.0; -1.0; Float.nan; 3e-10; 1e-9; 1.5e-6; 2e-6; 2e-6; 7.3e-4; 0.25; 12.0; 4e6 ];
  Alcotest.(check string)
    "observed"
    "{\"count\":12,\"sum_s\":4000012.2507355013,\"min_s\":0.0,\"max_s\":4000000.0,\"mean_s\":333334.35422795842,\"p50_s\":2.0480000000000001e-06,\"p90_s\":17.179869184000001,\"p99_s\":4000000.0,\"buckets\":[[1,5],[1024,3],[524288,1],[134217728,1],[8589934592,1],[2251799813685248,1]]}"
    (Json.to_string (Obs.Metrics.Latency.to_json h));
  Alcotest.(check string)
    "empty"
    "{\"count\":0,\"sum_s\":0.0,\"min_s\":0.0,\"max_s\":0.0,\"mean_s\":0.0,\"p50_s\":0.0,\"p90_s\":0.0,\"p99_s\":0.0,\"buckets\":[]}"
    (Json.to_string (Obs.Metrics.Latency.to_json (Obs.Metrics.Latency.create ())))

let test_latency_observe_allocates_nothing () =
  let h = Obs.Metrics.Latency.create () in
  (* Boxed already, so that passing them allocates nothing either. *)
  let samples = List.init 64 (fun i -> Float.of_int (i * i) *. 1e-7) in
  let rec observe_all = function
    | [] -> ()
    | v :: rest ->
        Obs.Metrics.Latency.observe h v;
        observe_all rest
  in
  let minor_words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let empty = minor_words (fun () -> ()) in
  let observed = minor_words (fun () -> observe_all samples) in
  Alcotest.(check (float 0.)) "no minor words" empty observed;
  Alcotest.(check int) "count" 64 (Obs.Metrics.Latency.count h)

let test_metrics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "ops" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.Counter.value c);
  let h = Obs.Metrics.latency m "lat" in
  List.iter (Obs.Metrics.Latency.observe h) [ 1e-6; 2e-6; 4e-6; 1e-3 ];
  Alcotest.(check int) "histogram count" 4 (Obs.Metrics.Latency.count h);
  Alcotest.(check (float 1e-12)) "sum" 1.007e-3 (Obs.Metrics.Latency.sum h);
  Alcotest.(check (float 1e-12)) "min" 1e-6 (Obs.Metrics.Latency.min_seconds h);
  Alcotest.(check (float 1e-12)) "max" 1e-3 (Obs.Metrics.Latency.max_seconds h);
  let p50 = Obs.Metrics.Latency.percentile h 0.50 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %g within the low microseconds" p50)
    true
    (p50 >= 1e-6 && p50 <= 8e-6);
  let p99 = Obs.Metrics.Latency.percentile h 0.99 in
  Alcotest.(check bool) "p99 reaches the top observation" true (p99 >= 1e-3);
  (* Same name returns the same instrument; kind clash rejected. *)
  Alcotest.(check bool) "get-or-create" true (Obs.Metrics.latency m "lat" == h);
  (match Obs.Metrics.counter m "lat" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not rejected");
  (* Registry JSON reparses and holds both instruments. *)
  let j = roundtrip (Obs.Metrics.to_json m) in
  Alcotest.(check (option int))
    "counter in json" (Some 5)
    (Option.bind (Json.member "counters" j) (fun o -> Option.bind (Json.member "ops" o) Json.to_int));
  Alcotest.(check bool)
    "histogram in json" true
    (Option.bind (Json.member "histograms" j) (Json.member "lat") <> None)

(* ------------------------------------------------------------------ *)
(* Traced engine workload                                              *)

let test_traced_workload () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = { Config.default with Config.buffer_pages = 8 } in
  let engine = Engine.create ~config chip in
  let tracer = Obs.Tracer.create ~capacity:65536 () in
  Engine.set_tracer engine (Some tracer);
  (* Engine.create already erased blocks while laying out the log regions,
     before the tracer existed — compare deltas from here on. *)
  let erases0 = (Chip.stats chip).Flash_sim.Flash_stats.block_erases in
  let pages = Array.init 4 (fun _ -> Engine.Unsafe.allocate_page engine) in
  let payload = Bytes.make 100 'x' in
  for round = 1 to 40 do
    let tx = Engine.Unsafe.begin_txn engine in
    Array.iter
      (fun p ->
        match Engine.Unsafe.insert engine ~tx ~page:p payload with Ok _ | Error _ -> ())
      pages;
    if round mod 5 = 0 then Engine.Unsafe.abort engine tx else Engine.Unsafe.commit engine tx
  done;
  Engine.Unsafe.checkpoint engine;
  let s = (Engine.stats engine).Engine.storage in
  let count = Obs.Tracer.count_kind tracer in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Tracer.dropped tracer);
  Alcotest.(check int) "page_alloc events" s.Store.pages_allocated (count "page_alloc");
  (* The stats counter also covers the raw data-page reads a merge does
     internally, so the logical Page_read events are a lower bound. *)
  Alcotest.(check bool)
    "page_read events bounded by the stats counter" true
    (count "page_read" > 0 && count "page_read" <= s.Store.page_reads);
  Alcotest.(check int) "log_flush events" s.Store.log_sector_writes (count "log_flush");
  Alcotest.(check int) "merge events" s.Store.merges (count "merge");
  Alcotest.(check int) "overflow events" s.Store.overflow_diversions (count "overflow_diversion");
  Alcotest.(check int) "commit events" 32 (count "commit");
  Alcotest.(check int) "abort events" 8 (count "abort");
  let fl = Chip.stats chip in
  Alcotest.(check int)
    "erase events" (fl.Flash_sim.Flash_stats.block_erases - erases0) (count "erase_block");
  (* Timestamps never decrease (simulated clock). *)
  let last = ref neg_infinity in
  Obs.Tracer.iter
    (fun (e : Obs.Tracer.entry) ->
      if e.Obs.Tracer.time < !last then Alcotest.fail "timestamps went backwards";
      last := e.Obs.Tracer.time)
    tracer;
  (* Detaching stops emission. *)
  let before = Obs.Tracer.emitted tracer in
  Engine.set_tracer engine None;
  ignore (Engine.Unsafe.allocate_page engine);
  Engine.Unsafe.checkpoint engine;
  Alcotest.(check int) "detached" before (Obs.Tracer.emitted tracer)

(* Same spec twice → identical trace (simulated time, seeded Rng). *)
let test_workload_deterministic () =
  let spec = { Bench.quick with Bench.transactions = 30 } in
  let fingerprint () =
    let r = Bench.run ~spec () in
    Obs.Tracer.fold
      (fun acc (e : Obs.Tracer.entry) ->
        Format.asprintf "%s;%d@%f:%a" acc e.Obs.Tracer.seq e.Obs.Tracer.time Obs.Event.pp
          e.Obs.Tracer.event)
      r.Bench.tracer ""
  in
  Alcotest.(check string) "identical traces" (fingerprint ()) (fingerprint ())

(* ------------------------------------------------------------------ *)
(* BENCH_ipl.json schema                                               *)

let test_bench_json_schema () =
  let r = Bench.run ~spec:{ Bench.quick with Bench.transactions = 25 } () in
  let j = roundtrip r.Bench.json in
  Alcotest.(check (option string))
    "schema tag" (Some Bench.schema_version)
    (Option.bind (Json.member "schema" j) (function Json.String s -> Some s | _ -> None));
  let backends =
    match Json.member "backends" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "backends missing"
  in
  let name b =
    match Json.member "name" b with Some (Json.String s) -> s | _ -> Alcotest.fail "unnamed"
  in
  Alcotest.(check (list string)) "backend order" [ "ipl"; "lfs"; "inplace" ]
    (List.map name backends);
  let ipl = List.hd backends in
  List.iter
    (fun op ->
      let h = Option.bind (Json.member "ops" ipl) (Json.member op) in
      match Option.bind h (fun h -> Option.bind (Json.member "count" h) Json.to_int) with
      | Some n when n >= 0 -> ()
      | _ -> Alcotest.failf "ipl ops.%s.count missing" op)
    [ "insert"; "update"; "delete"; "commit" ];
  List.iter
    (fun key ->
      if Json.member key ipl = None then Alcotest.failf "ipl %s summary missing" key)
    [ "storage"; "pool"; "flash" ];
  List.iter
    (fun b ->
      match Option.bind (Json.member "ops" b) (Json.member "write_page") with
      | Some _ -> ()
      | None -> Alcotest.failf "%s write_page histogram missing" (name b))
    (List.tl backends);
  (* Merge/overflow/wear summaries present with sane values. *)
  let int_at path obj =
    match Option.bind path (fun o -> Option.bind (Json.member obj o) Json.to_int) with
    | Some n -> n
    | None -> Alcotest.failf "missing %s" obj
  in
  let storage = Json.member "storage" ipl in
  Alcotest.(check bool) "merges >= 0" true (int_at storage "merges" >= 0);
  Alcotest.(check bool) "overflow >= 0" true (int_at storage "overflow_diversions" >= 0);
  (match Option.bind (Json.member "flash" ipl) (Json.member "max_wear") with
  | Some _ -> ()
  | None -> Alcotest.fail "flash max_wear missing");
  match Option.bind (Json.member "trace" j) (Json.member "dropped") with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "trace dropped events (capacity too small)"

(* ------------------------------------------------------------------ *)
(* Stats_intf retrofit                                                 *)

let test_stats_interval () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = { Config.default with Config.buffer_pages = 8 } in
  let engine = Engine.create ~config chip in
  let page = Engine.Unsafe.allocate_page engine in
  let before = Engine.stats engine in
  for _ = 1 to 200 do
    match Engine.Unsafe.insert engine ~tx:0 ~page (Bytes.make 40 'y') with Ok _ | Error _ -> ()
  done;
  Engine.Unsafe.checkpoint engine;
  let interval = Engine.Stats.diff (Engine.stats engine) before in
  Alcotest.(check bool)
    "interval counts only new work" true
    (interval.Engine.storage.Store.log_sector_writes > 0
    && interval.Engine.storage.Store.pages_allocated = 0);
  (* add(diff(b,a), a) = b on a few load-bearing fields. *)
  let back = Engine.Stats.add before interval in
  let now = Engine.stats engine in
  Alcotest.(check int) "add inverts diff (flash writes)"
    now.Engine.flash.Flash_sim.Flash_stats.page_writes
    back.Engine.flash.Flash_sim.Flash_stats.page_writes;
  Alcotest.(check int) "add inverts diff (pool misses)"
    now.Engine.pool.Bufmgr.Buffer_pool.misses back.Engine.pool.Bufmgr.Buffer_pool.misses;
  (* zero is the identity; JSON renders all three layers and reparses. *)
  let z = Engine.Stats.add Engine.Stats.zero Engine.Stats.zero in
  Alcotest.(check int) "zero" 0 z.Engine.storage.Store.merges;
  let j = roundtrip (Engine.Stats.to_json now) in
  List.iter
    (fun k -> if Json.member k j = None then Alcotest.failf "combined json misses %s" k)
    [ "storage"; "pool"; "flash" ];
  ignore (Format.asprintf "%a" Engine.Stats.pp now)

(* ------------------------------------------------------------------ *)
(* Typed errors                                                        *)

let test_typed_errors () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let engine = Engine.create chip in
  let page = Engine.Unsafe.allocate_page engine in
  (match Engine.Unsafe.delete engine ~tx:0 ~page ~slot:5 with
  | Error Engine.No_such_slot -> ()
  | _ -> Alcotest.fail "expected No_such_slot");
  (match Engine.Unsafe.insert engine ~tx:0 ~page (Bytes.make (Engine.max_record_payload engine + 1) 'z') with
  | Error Engine.Record_too_large -> ()
  | _ -> Alcotest.fail "expected Record_too_large");
  (match Engine.Unsafe.insert engine ~tx:0 ~page (Bytes.make 10 'a') with
  | Ok slot -> (
      match Engine.Unsafe.update_range engine ~tx:0 ~page ~slot ~offset:8 (Bytes.make 10 'b') with
      | Error Engine.Range_out_of_bounds -> ()
      | _ -> Alcotest.fail "expected Range_out_of_bounds")
  | Error e -> Alcotest.failf "setup insert failed: %s" (Engine.error_to_string e));
  (* The legacy strings are preserved verbatim. *)
  Alcotest.(check string) "page full" "page full" (Engine.error_to_string Engine.Page_full);
  Alcotest.(check string) "slot not live" "slot not live"
    (Engine.error_to_string Engine.No_such_slot);
  Alcotest.(check string) "pp agrees" (Engine.error_to_string Engine.Range_too_large)
    (Format.asprintf "%a" Engine.pp_error Engine.Range_too_large)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring buffer" `Quick test_tracer_ring;
          Alcotest.test_case "event json" `Quick test_event_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and histograms" `Quick test_metrics;
          Alcotest.test_case "latency json pinned" `Quick test_latency_json_pinned;
          Alcotest.test_case "latency observe allocates nothing" `Quick
            test_latency_observe_allocates_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "traced workload" `Quick test_traced_workload;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "stats interval" `Quick test_stats_interval;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
        ] );
      ("bench", [ Alcotest.test_case "json schema" `Quick test_bench_json_schema ]);
    ]

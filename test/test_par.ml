(* lib/par: the domain pool's ordering/failure semantics, the jobs
   knob, and — the contract everything else leans on — that every
   parallel consumer (crash campaign, bench, restart sweep) produces
   output identical to its serial run for any job count. *)

module Pool = Par.Domain_pool
module Json = Ipl_util.Json

let sq i = (i * i) + 1

(* ---------------- Domain_pool ---------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let src = Array.init 100 Fun.id in
  Alcotest.(check (array int))
    "results in submission order" (Array.map sq src)
    (Pool.parallel_map pool sq src)

let test_jobs1_identity () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs accessor" 1 (Pool.jobs pool);
  let src = Array.init 17 Fun.id in
  Alcotest.(check (array int))
    "jobs=1 equals Array.map" (Array.map sq src)
    (Pool.parallel_map pool sq src)

let test_edge_sizes () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map pool sq [||]);
  Alcotest.(check (array int)) "singleton" [| sq 9 |] (Pool.parallel_map pool sq [| 9 |])

let test_parallel_for () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let cells = Array.make 64 0 in
  (* Each index is written by exactly one task and read only after the
     batch completes — the same publication argument as the result
     cells inside the pool. *)
  Pool.parallel_for pool ~lo:0 ~hi:64 (fun i -> cells.(i) <- sq i);
  Alcotest.(check (array int)) "every index ran once" (Array.init 64 sq) cells

let test_exception_lowest_index () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let f i = if i mod 5 = 3 then failwith (string_of_int i) else i in
  (match Pool.parallel_map pool f (Array.init 32 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check string) "lowest failing index wins, as in Array.map" "3" msg);
  (* A failed batch must leave the pool serviceable. *)
  Alcotest.(check (array int))
    "pool reusable after failure" [| 2; 3; 4 |]
    (Pool.parallel_map pool succ [| 1; 2; 3 |])

let test_nested_refused () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let refused =
    Pool.parallel_map pool
      (fun _ ->
        match Pool.parallel_map pool Fun.id [| 0; 1 |] with
        | _ -> false
        | exception Pool.Nested_parallelism -> true)
      (Array.init 6 Fun.id)
  in
  Alcotest.(check bool)
    "a task may not drive a pool, whichever domain runs it" true
    (Array.for_all Fun.id refused)

let test_create_invalid () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 : Pool.t))

let test_with_pool_result () =
  Alcotest.(check int) "with_pool returns f's value" 42 (Pool.with_pool ~jobs:2 (fun _ -> 42));
  (* shutdown is idempotent: with_pool already shut it down. *)
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p

(* ---------------- Par_config ---------------- *)

let test_config () =
  Alcotest.(check int) "clamp floor" 1 (Par.Par_config.clamp 0);
  Alcotest.(check int) "clamp identity at 1" 1 (Par.Par_config.clamp 1);
  Alcotest.(check int) "clamp ceiling"
    (Par.Par_config.recommended ())
    (Par.Par_config.clamp max_int);
  Alcotest.(check int) "cli wins over env/default"
    (Par.Par_config.clamp 3)
    (Par.Par_config.resolve ~cli:3 ());
  Alcotest.(check bool) "resolve is always >= 1" true (Par.Par_config.resolve () >= 1)

(* ---------------- determinism: crash campaigns ---------------- *)

let campaign_spec = { Fault.Workload.default with transactions = 30; pages = 4 }

(* Each campaign's report must not depend on the job count: the serial
   mix, MVCC sessions, and the crash-during-remap deltas. *)
let campaign_jobs_equal campaign () =
  let run jobs = Fault.Campaign.run ~sample:10 ~jobs campaign campaign_spec in
  let serial = run 1 in
  Alcotest.(check bool) "sweep found crash points" true (serial.Fault.Campaign.crash_points > 0);
  Alcotest.(check bool) "report identical at jobs=4" true (serial = run 4)

(* ---------------- determinism: bench JSON ---------------- *)

(* Everything machine-dependent lives under wall_clock; the rest of the
   document — including the logical digest and the concurrency section
   with its latency percentiles — must be byte-stable across job
   counts. *)
let strip_wall_clock = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "wall_clock") fields)
  | j -> j

let bench_spec = { Workload.Obs_bench.quick with transactions = 60; sessions = 4 }

let bench_doc ~jobs spec =
  Json.to_string (strip_wall_clock (Workload.Obs_bench.run ~spec ~jobs ()).Workload.Obs_bench.json)

let test_bench_jobs_equal () =
  Alcotest.(check string)
    "bench JSON (minus wall_clock) identical at jobs=4" (bench_doc ~jobs:1 bench_spec)
    (bench_doc ~jobs:4 bench_spec)

let test_bench_concurrency_modes () =
  let conc ~sessions =
    let spec = { Workload.Obs_bench.quick with transactions = 40; sessions } in
    let t = Workload.Obs_bench.run ~spec ~jobs:2 () in
    match Json.member "concurrency" t.Workload.Obs_bench.json with
    | Some (Json.Obj fields) -> fields
    | _ -> Alcotest.fail "concurrency section missing"
  in
  let serial = conc ~sessions:0 in
  Alcotest.(check (list string))
    "serial mode reports only what is meaningful"
    [ "mode"; "sessions"; "committed"; "aborted" ]
    (List.map fst serial);
  Alcotest.(check bool) "serial mode tag" true
    (List.assoc "mode" serial = Json.String "serial");
  let sessions = conc ~sessions:4 in
  Alcotest.(check bool) "sessions mode tag" true
    (List.assoc "mode" sessions = Json.String "sessions");
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present in sessions mode") true (List.mem_assoc k sessions))
    [ "commit_batches"; "commit_latency"; "per_session" ];
  match List.assoc "commit_latency" sessions with
  | Json.Obj lat ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("latency field " ^ k) true (List.mem_assoc k lat))
        [ "count"; "mean_s"; "p50_s"; "p90_s"; "p99_s" ]
  | _ -> Alcotest.fail "commit_latency is not an object"

let test_restart_bench_jobs_equal () =
  Alcotest.(check bool) "restart sweep identical at jobs=3" true
    (Workload.Restart_bench.run ~jobs:1 () = Workload.Restart_bench.run ~jobs:3 ())

(* ---------------- QCheck: job-count independence ---------------- *)

let prop_campaign_job_independent =
  QCheck.Test.make ~name:"campaign report does not depend on job count or seed" ~count:4
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (jobs, seed) ->
      let spec = { Fault.Workload.default with seed; transactions = 16; pages = 3 } in
      let run jobs =
        Fault.Campaign.run ~sample:6 ~jobs (Fault.Campaign.Serial { broken = false }) spec
      in
      run jobs = run 1)

let prop_pool_matches_array_map =
  QCheck.Test.make ~name:"parallel_map equals Array.map for any jobs and input" ~count:30
    QCheck.(pair (int_range 1 5) (small_list small_int))
    (fun (jobs, xs) ->
      let src = Array.of_list xs in
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_map pool sq src = Array.map sq src))

let () =
  Alcotest.run "par"
    [
      ( "domain pool",
        [
          Alcotest.test_case "submission-order results" `Quick test_map_order;
          Alcotest.test_case "jobs=1 identity" `Quick test_jobs1_identity;
          Alcotest.test_case "empty and singleton" `Quick test_edge_sizes;
          Alcotest.test_case "parallel_for covers the range" `Quick test_parallel_for;
          Alcotest.test_case "lowest-index exception, pool reusable" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "nested use refused" `Quick test_nested_refused;
          Alcotest.test_case "jobs=0 rejected" `Quick test_create_invalid;
          Alcotest.test_case "with_pool result and idempotent shutdown" `Quick
            test_with_pool_result;
          QCheck_alcotest.to_alcotest prop_pool_matches_array_map;
        ] );
      ("config", [ Alcotest.test_case "clamp and resolve" `Quick test_config ]);
      ( "determinism",
        [
          Alcotest.test_case "campaign report jobs=4 == jobs=1" `Quick
            (campaign_jobs_equal (Fault.Campaign.Serial { broken = false }));
          Alcotest.test_case "concurrent campaign jobs=4 == jobs=1" `Quick
            (campaign_jobs_equal (Fault.Campaign.Concurrent { sessions = 4 }));
          Alcotest.test_case "remap-crash campaign jobs=4 == jobs=1" `Quick
            (campaign_jobs_equal (Fault.Campaign.Remap_crash { spares = 4 }));
          Alcotest.test_case "bench JSON jobs=4 == jobs=1" `Quick test_bench_jobs_equal;
          Alcotest.test_case "concurrency JSON modes" `Quick test_bench_concurrency_modes;
          Alcotest.test_case "restart sweep jobs=3 == jobs=1" `Quick
            test_restart_bench_jobs_equal;
          QCheck_alcotest.to_alcotest prop_campaign_job_independent;
        ] );
    ]

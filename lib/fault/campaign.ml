module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config

type report = {
  total_ops : int;
  setup_ops : int;
  crash_points : int;
  recovered : int;
  in_doubt : int;
  violations : (int * string list) list;
  max_wear : int;
  mean_wear : float;
  log_compactions : int;
  compaction_points : int;
  pair_merges : int;
  pair_points : int;
}

(* Small pool so evictions (and their log-sector flushes) happen mid-run. *)
let engine_config = { Config.default with Config.buffer_pages = 8 }

(* The same pool with a bad-block manager over [spares] spare blocks. *)
let resilience_config ~spares = { engine_config with Config.spare_blocks = spares }

let chip_config () = FConfig.default ~num_blocks:32 ()

(* The engine reserves blocks 0..7 for the system log; device-fault
   plans must spare those — they sit outside the bad-block manager. *)
let data_first_block = 8
let data_first_sector () = data_first_block * FConfig.sectors_per_block (chip_config ())

let read engine ~page ~slot =
  match Engine.read engine ~page ~slot with
  | Ok v -> v
  | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e)

(* The flash operations of the golden run's system-log compactions: each
   is a run of consecutive operations on the log region that holds an
   erase (after setup, only a compaction erases there). [log_ops] holds
   the log region's operations, oldest first, as (index, is an erase). *)
let compaction_ops log_ops =
  let rec runs acc run = function
    | [] -> run :: acc
    | ((idx, _) as op) :: rest -> (
        match run with
        | (prev, _) :: _ when idx = prev + 1 -> runs acc (op :: run) rest
        | _ -> runs (run :: acc) [ op ] rest)
  in
  runs [] [] log_ops
  |> List.filter (List.exists snd)
  |> List.concat_map (List.map fst)
  |> List.sort compare

(* Run [f] with a hook that records the log region's operations and,
   oldest first, the operations of [store]'s pair merges. *)
let recording_ops chip store f =
  let ops = ref [] and pair_ops = ref [] in
  let note idx erase = ops := (idx, erase) :: !ops in
  Chip.set_fault_hook chip
    (Some
       (fun idx op ->
         (match op with
         | Chip.Op_erase { block } -> if block < data_first_block then note idx true
         | Chip.Op_program { sector; _ } | Chip.Op_read { sector; _ } ->
             if sector < data_first_sector () then note idx false);
         if Ipl_core.Ipl_storage.merging store = 2 then pair_ops := idx :: !pair_ops;
         Chip.Proceed));
  let result = f () in
  Chip.set_fault_hook chip None;
  (result, List.rev !ops, List.rev !pair_ops)

(* [n] indices spread evenly across [lo, hi). *)
let spread ~lo ~hi n =
  let total = hi - lo in
  if n <= 0 || n >= total then List.init total (fun i -> lo + i)
  else List.init n (fun i -> lo + (i * total / n))

(* Keep every [stride]-th point: a cheap thinning knob on top of
   [sample] for CI runs that sweep long workloads. *)
let thin ~stride points =
  if stride <= 1 then points else List.filteri (fun i _ -> i mod stride = 0) points

(* The per-point verdict: did the restart complete, did the crash land
   mid-commit, and what (if anything) did the checker flag. Verdicts are
   a pure function of (campaign, spec, point) — each one rebuilds its
   own chip, engine and oracle — which is what lets the campaign fan
   points across domains and still merge a report identical to the
   serial sweep. *)
type verdict = { point : int; ok : bool; doubt : bool; vs : string list }

let merge_verdicts ~total_ops ~setup_ops ~gstats ~log_compactions ~compaction_points ~pair_merges
    ~pair_points verdicts =
  let recovered = ref 0 in
  let in_doubt = ref 0 in
  let violations = ref [] in
  Array.iter
    (fun v ->
      if v.ok then incr recovered;
      if v.doubt then incr in_doubt;
      if v.vs <> [] then violations := (v.point, v.vs) :: !violations)
    verdicts;
  {
    total_ops;
    setup_ops;
    crash_points = Array.length verdicts;
    recovered = !recovered;
    in_doubt = !in_doubt;
    violations = List.rev !violations;
    max_wear = gstats.FStats.max_wear;
    mean_wear = gstats.FStats.mean_wear;
    log_compactions;
    compaction_points;
    pair_merges;
    pair_points;
  }

type campaign =
  | Serial of { broken : bool }
  | Concurrent of { sessions : int }
  | Remap_crash of { spares : int }

(* Crash-during-remap: force a program failure (and so a relocation) at
   the first program after setup, then power-fail this many operations
   later — inside the copy, between the copy and the remap force, or
   just after. *)
let remap_deltas = [ 1; 2; 3; 5; 8; 13; 21; 40 ]

(* The crash-point loop. A golden run counts the flash operations and
   picks the points; each point then rebuilds the chip, engine and
   oracle, installs its fault plan, runs the history to the power loss,
   restarts and checks the oracle. *)
let run ?(tear = true) ?(max_ops = 0) ?(sample = 0) ?(stride = 1) ?(jobs = 1) campaign spec =
  let config =
    match campaign with
    | Serial _ | Concurrent _ -> engine_config
    | Remap_crash { spares } -> resilience_config ~spares
  in
  (* The history under test, reported to the oracle as it runs: [false]
     when a serial transaction met a typed engine error. A huge commit
     window in broken mode means serial commits return but are never
     forced — the deliberately unsound configuration the checker must
     catch. *)
  let history engine oracle ~pages =
    match campaign with
    | Serial _ | Remap_crash _ ->
        let o = Workload.run_resilient engine oracle spec ~pages in
        o.Workload.read_failures = 0 && o.Workload.degraded_at = None
    | Concurrent { sessions } ->
        let plans = Workload.plans spec ~pages in
        ignore
          (Ipl_txn.Session.run ~observe:(Oracle.observe oracle) ~sessions ~plans engine
            : Ipl_txn.Session.outcome);
        true
  in
  let fresh () =
    let chip = Chip.create (chip_config ()) in
    let engine = Engine.create ~config chip in
    if campaign = Serial { broken = true } then Engine.set_group_commit engine 1_000_000;
    let oracle = Oracle.create () in
    let pages = Workload.setup engine (Oracle.seed oracle) spec in
    (chip, engine, oracle, pages)
  in
  (* Golden run: same spec, no faults — count the flash operations. *)
  let chip, engine, oracle, pages = fresh () in
  let setup_ops = Chip.op_count chip in
  let store = Engine.storage engine in
  let ok, log_ops, in_pairs =
    recording_ops chip store (fun () -> history engine oracle ~pages)
  in
  if not ok then failwith "Campaign: the golden run met a typed engine error";
  let total_ops = Chip.op_count chip in
  let gstats = Chip.stats chip in
  let log_compactions = Ipl_core.Meta_log.compactions (Engine.system_log engine) in
  let pair_merges = (Ipl_core.Ipl_storage.stats store).Ipl_core.Ipl_storage.pair_merges in
  let in_compaction = compaction_ops log_ops in
  (* A sampled sweep also crashes at every operation of every system-log
     compaction, where a crash must leave one complete log behind, and
     of every pair merge, whose two units move in one atomic event. *)
  let points, plan =
    match campaign with
    | Serial _ | Concurrent _ ->
        let hi = if max_ops > 0 then min total_ops (setup_ops + max_ops) else total_ops in
        let inside = List.filter (fun p -> p >= setup_ops && p < hi) (in_compaction @ in_pairs) in
        ( List.sort_uniq compare (thin ~stride (spread ~lo:setup_ops ~hi sample) @ inside),
          Fault_plan.crash_at ~tear )
    | Remap_crash _ ->
        ( remap_deltas,
          fun delta ->
            Fault_plan.program_fail_then_crash ~point:setup_ops ~crash_after:delta
              ~min_sector:(data_first_sector ()) () )
  in
  let slots = Workload.max_slots spec in
  let check_point point =
    let chip, engine, oracle, pages = fresh () in
    Fault_plan.install chip (plan point);
    (try ignore (history engine oracle ~pages : bool) with Chip.Power_loss _ -> ());
    Fault_plan.clear chip;
    let doubt = Oracle.crash oracle = Oracle.In_doubt in
    match Engine.restart ~config chip with
    | exception e ->
        { point; ok = false; doubt; vs = [ "restart raised: " ^ Printexc.to_string e ] }
    | engine', _aborted ->
        let vs = Oracle.check oracle ~read:(read engine') ~pages:(Array.to_list pages) ~slots in
        { point; ok = true; doubt; vs }
  in
  let verdicts =
    Par.Domain_pool.with_pool ~jobs (fun pool ->
        Par.Domain_pool.parallel_map pool check_point (Array.of_list points))
  in
  let count_in ops = List.length (List.filter (fun p -> List.mem p ops) points) in
  merge_verdicts ~total_ops ~setup_ops ~gstats ~log_compactions
    ~compaction_points:(count_in in_compaction) ~pair_merges ~pair_points:(count_in in_pairs)
    verdicts

(* ------------------------------------------------------------------ *)
(* Resilience campaign: device failures instead of crashes              *)

type profile = Flaky | Program_faults | Erase_faults | Wear_out

let profile_to_string = function
  | Flaky -> "flaky"
  | Program_faults -> "program"
  | Erase_faults -> "erase"
  | Wear_out -> "wearout"

let profile_of_string = function
  | "flaky" -> Some Flaky
  | "program" -> Some Program_faults
  | "erase" -> Some Erase_faults
  | "wearout" -> Some Wear_out
  | _ -> None

type resilience_report = {
  profile : profile;
  outcome : Workload.resilient_outcome;
  writes_refused_after_degrade : bool;
  degradation_persisted : bool;
  resilience : Resilience.Bbm.stats;
  violations : string list;
  restart_violations : string list;
}

let resilience_ok r =
  r.violations = [] && r.restart_violations = [] && r.writes_refused_after_degrade
  && r.degradation_persisted

let plan_of_profile ~seed profile =
  let min_sector = data_first_sector () in
  match profile with
  | Flaky -> Fault_plan.flaky_reads ~seed ~min_sector ()
  | Program_faults -> Fault_plan.program_failures ~seed ~rate:0.02 ~min_sector ()
  | Erase_faults ->
      Fault_plan.erase_failures ~seed ~rate:0.1 ~first_block:data_first_block ()
  | Wear_out ->
      Fault_plan.wear_out ~seed ~first_block:data_first_block ~min_cycles:2
        ~max_cycles:5 ()

(* Run one resilience profile end to end: a fresh resilient engine, the
   fault plan installed for the whole run, the oracle checked against the
   surviving state — once on the live (possibly degraded) engine, once
   after a restart. Zero data loss up to the moment of degradation is the
   invariant; after it, writes must be refused and the read-only state
   must survive the restart. *)
let run_resilience ?(spares = 4) ?(transactions = 0) ?(seed = 7) profile =
  let spec =
    {
      Workload.default with
      Workload.seed;
      transactions =
        (if transactions > 0 then transactions
         else match profile with Wear_out -> 4000 | _ -> 120);
    }
  in
  let config = resilience_config ~spares in
  let chip = Chip.create (chip_config ()) in
  let engine = Engine.create ~config chip in
  let oracle = Oracle.create () in
  let pages = Workload.setup engine (Oracle.seed oracle) spec in
  Fault_plan.install chip (plan_of_profile ~seed profile);
  let outcome = Workload.run_resilient engine oracle spec ~pages in
  let check engine =
    Oracle.check oracle ~read:(read engine) ~pages:(Array.to_list pages)
      ~slots:(Workload.max_slots spec)
  in
  let violations = check engine in
  let writes_refused_after_degrade =
    match outcome.Workload.degraded_at with
    | None -> true
    | Some _ -> (
        match Engine.insert engine ~tx:Engine.no_txn ~page:pages.(0) (Bytes.make 8 'x') with
        | Error Engine.Device_degraded -> true
        | Ok _ | Error _ -> false)
  in
  let resilience = (Engine.stats engine).Engine.resilience in
  Fault_plan.clear chip;
  let restart_violations, degradation_persisted =
    match Engine.restart ~config chip with
    | exception e -> ([ "restart raised: " ^ Printexc.to_string e ], false)
    | engine', _ ->
        let vs = check engine' in
        (vs, Engine.degraded engine' = (outcome.Workload.degraded_at <> None))
  in
  {
    profile;
    outcome;
    writes_refused_after_degrade;
    degradation_persisted;
    resilience;
    violations;
    restart_violations;
  }

let pp_resilience_report ppf r =
  let o = r.outcome in
  Fmt.pf ppf
    "@[<v>profile: %s@,\
     transactions: %d committed, %d aborted (%d by read failure)@,\
     degraded: %s@,\
     writes refused after degrade: %b; degradation persisted: %b@,\
     %a@,\
     violations: %d live, %d after restart@]"
    (profile_to_string r.profile)
    o.Workload.committed o.Workload.aborted o.Workload.read_failures
    (match o.Workload.degraded_at with
    | None -> "no"
    | Some i -> Printf.sprintf "at transaction %d" i)
    r.writes_refused_after_degrade r.degradation_persisted Resilience.Bbm.Stats.pp
    r.resilience
    (List.length r.violations)
    (List.length r.restart_violations);
  List.iter (fun v -> Fmt.pf ppf "@,- %s" v) r.violations;
  List.iter (fun v -> Fmt.pf ppf "@,- (restart) %s" v) r.restart_violations

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>flash ops: %d (%d setup + %d workload)@,\
     crash points tested: %d (recovered: %d, in-doubt commits: %d)@,\
     violations: %d@,\
     golden-run wear: max=%d mean=%.2f@,\
     golden-run system-log compactions: %d (crash points inside them: %d)@,\
     golden-run pair merges: %d (crash points inside them: %d)@]"
    r.total_ops r.setup_ops (r.total_ops - r.setup_ops) r.crash_points r.recovered r.in_doubt
    (List.length r.violations) r.max_wear r.mean_wear r.log_compactions r.compaction_points
    r.pair_merges r.pair_points;
  List.iter
    (fun (point, vs) ->
      Fmt.pf ppf "@,@[<v 2>crash at op %d:%a@]" point
        (fun ppf -> List.iter (fun v -> Fmt.pf ppf "@,- %s" v))
        vs)
    r.violations

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
}

(* Small pool so evictions (and their log-sector flushes) happen mid-run. *)
let engine_config = { Config.default with Config.buffer_pages = 8 }

(* Checkpointed variant: same deliberately small pool, plus a fuzzy
   checkpoint every 16 commits so the restart under test actually has
   coverage to lean on. *)
let recovery_config = { engine_config with Config.checkpoint_every = 16 }

let chip_config () = FConfig.default ~num_blocks:32 ()

(* A huge commit window in broken mode means commits are recorded but
   never forced — the deliberately unsound configuration the checker must
   catch. *)
let fresh ~broken ~config spec =
  let chip = Chip.create (chip_config ()) in
  let engine = Engine.create ~config chip in
  if broken then Engine.set_group_commit engine 1_000_000;
  let oracle = Oracle.create () in
  let pages = Workload.setup engine oracle spec in
  (chip, engine, oracle, pages)

(* [n] indices spread evenly across [lo, hi). *)
let spread ~lo ~hi n =
  let total = hi - lo in
  if n <= 0 || n >= total then List.init total (fun i -> lo + i)
  else List.init n (fun i -> lo + (i * total / n))

(* Keep every [stride]-th point: a cheap thinning knob on top of
   [sample] for CI runs that sweep long workloads. *)
let thin ~stride points =
  if stride <= 1 then points else List.filteri (fun i _ -> i mod stride = 0) points

(* Logical digest of an engine's committed state: every page/slot value
   in a fixed order, hashed. Two engines with identical logical content
   produce equal digests regardless of physical flash layout — the
   first-touch-vs-drain-first equivalence check. Reading every slot also
   drives the engine's first-touch repairs. *)
let digest engine ~pages ~slots =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun page ->
      for slot = 0 to slots - 1 do
        match Engine.read engine ~page ~slot with
        | Ok (Some v) ->
            Buffer.add_string buf (Printf.sprintf "|%d.%d.%d:" page slot (Bytes.length v));
            Buffer.add_bytes buf v
        | Ok None -> Buffer.add_string buf (Printf.sprintf "|%d.%d.x" page slot)
        | Error e -> failwith ("Campaign: digest read: " ^ Engine.error_to_string e)
      done)
    pages;
  Digest.string (Buffer.contents buf)

(* Restart a drain-first twin from an identically crashed chip: it
   settles every repair with [drain_repairs] before its first read. Its
   logical digest must match the first-touch engine's — once right after
   that engine's restart (its first-touch repairs fire during the digest
   reads) and again after its own drain has settled every remaining
   unit. *)
let drain_first_twin ~config ~crashed engine ~pages ~slots =
  let drained engine what =
    match Engine.drain_repairs engine ~max_eus:max_int with
    | Error e -> [ what ^ " drain_repairs: " ^ Engine.error_to_string e ]
    | Ok _ when Engine.repair_pending engine <> 0 ->
        [ what ^ " repairs still pending after full drain" ]
    | Ok _ -> []
  in
  let chip_d, _oracle_d, _pages_d = crashed () in
  match Engine.restart ~config chip_d with
  | exception e -> [ "drain-first twin restart raised: " ^ Printexc.to_string e ]
  | twin, _aborted ->
      let vs = drained twin "twin" in
      let dd = digest twin ~pages ~slots in
      let vs =
        if digest engine ~pages ~slots <> dd then
          vs @ [ "first-touch/drain-first digest mismatch after restart" ]
        else vs
      in
      let vs = vs @ drained engine "first-touch" in
      if digest engine ~pages ~slots <> dd then
        vs @ [ "first-touch/drain-first digest mismatch after repair drain" ]
      else vs

(* The per-point verdict: did the restart complete, did the crash land
   mid-commit, and what (if anything) did the checker flag. Verdicts are
   a pure function of (spec, point) — each one rebuilds its own chip,
   engine and oracle — which is what lets the campaign fan points across
   domains and still merge a report identical to the serial sweep. *)
type verdict = { point : int; ok : bool; doubt : bool; vs : string list }

let merge_verdicts ~total_ops ~setup_ops ~gstats verdicts =
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
  }

let run ?(tear = true) ?(broken = false) ?(max_ops = 0) ?(sample = 0) ?(stride = 1)
    ?(lazy_mode = false) ?(jobs = 1) spec =
  let config = if lazy_mode then recovery_config else engine_config in
  (* Golden run: same spec, no faults — just count the flash operations. *)
  let chip, engine, oracle, pages = fresh ~broken ~config spec in
  let setup_ops = Chip.op_count chip in
  Workload.run engine oracle spec ~pages;
  let total_ops = Chip.op_count chip in
  let gstats = Chip.stats chip in
  let hi = if max_ops > 0 then min total_ops (setup_ops + max_ops) else total_ops in
  let points = thin ~stride (spread ~lo:setup_ops ~hi sample) in
  let check_point point =
    (* The crashed state is a deterministic function of (spec, point):
       [crashed] can rebuild a bit-identical chip for the drain-first twin. *)
    let crashed () =
      let chip, engine, oracle, pages = fresh ~broken ~config spec in
      Fault_plan.install chip (Fault_plan.crash_at ~tear point);
      (try Workload.run engine oracle spec ~pages with Chip.Power_loss _ -> ());
      Fault_plan.clear chip;
      (chip, oracle, pages)
    in
    let chip, oracle, pages = crashed () in
    let doubt =
      match Oracle.crash oracle with
      | Oracle.In_doubt -> true
      | Oracle.Rolled_back -> false
    in
    match Engine.restart ~config chip with
    | exception e ->
        { point; ok = false; doubt; vs = [ "restart raised: " ^ Printexc.to_string e ] }
    | engine', _aborted ->
        let vs =
          Oracle.check oracle
            ~read:(fun ~page ~slot ->
              match Engine.read engine' ~page ~slot with
              | Ok v -> v
              | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e))
            ~pages:(Array.to_list pages) ~slots:(Workload.max_slots spec)
        in
        let vs =
          if not lazy_mode then vs
          else
            vs
            @ drain_first_twin ~config ~crashed engine' ~pages
                ~slots:(Workload.max_slots spec)
        in
        { point; ok = true; doubt; vs }
  in
  let verdicts =
    Par.Domain_pool.with_pool ~jobs (fun pool ->
        Par.Domain_pool.parallel_map pool check_point (Array.of_list points))
  in
  merge_verdicts ~total_ops ~setup_ops ~gstats verdicts

(* ------------------------------------------------------------------ *)
(* Concurrent crash campaign: MVCC sessions + group commit              *)

let fresh_concurrent ~config spec =
  let chip = Chip.create (chip_config ()) in
  let engine = Engine.create ~config chip in
  let oracle = Concurrent_oracle.create () in
  let pages = Workload.setup_concurrent engine oracle spec in
  (chip, engine, oracle, pages)

(* The crash-point sweep of [run], over concurrent histories: the same
   mix interleaved across [sessions] MVCC transactions with group
   commit. The oracle's prefix check replaces the single-transaction
   model — after every crash the recovered state must equal the setup
   state plus a commit-order prefix reaching at least the durable
   watermark, with conflict-losers and rolled-back transactions absent. *)
let run_concurrent ?(tear = true) ?(max_ops = 0) ?(sample = 0) ?(stride = 1)
    ?(lazy_mode = false) ?(sessions = 8) ?(jobs = 1) spec =
  let config = if lazy_mode then recovery_config else engine_config in
  let chip, engine, oracle, pages = fresh_concurrent ~config spec in
  let setup_ops = Chip.op_count chip in
  ignore
    (Workload.run_concurrent engine oracle spec ~sessions ~pages
      : Workload.concurrent_outcome);
  let total_ops = Chip.op_count chip in
  let gstats = Chip.stats chip in
  let hi = if max_ops > 0 then min total_ops (setup_ops + max_ops) else total_ops in
  let points = thin ~stride (spread ~lo:setup_ops ~hi sample) in
  let check_point point =
    let crashed () =
      let chip, engine, oracle, pages = fresh_concurrent ~config spec in
      Fault_plan.install chip (Fault_plan.crash_at ~tear point);
      (try
         ignore
           (Workload.run_concurrent engine oracle spec ~sessions ~pages
             : Workload.concurrent_outcome)
       with Chip.Power_loss _ -> ());
      Fault_plan.clear chip;
      (chip, oracle, pages)
    in
    let chip, oracle, pages = crashed () in
    let doubt =
      match Concurrent_oracle.crash oracle with
      | Concurrent_oracle.In_doubt -> true
      | Concurrent_oracle.Settled -> false
    in
    match Engine.restart ~config chip with
    | exception e ->
        { point; ok = false; doubt; vs = [ "restart raised: " ^ Printexc.to_string e ] }
    | engine', _aborted ->
        let vs =
          Concurrent_oracle.check oracle
            ~read:(fun ~page ~slot ->
              match Engine.read engine' ~page ~slot with
              | Ok v -> v
              | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e))
            ~pages:(Array.to_list pages) ~slots:(Workload.max_slots spec)
        in
        let vs =
          if not lazy_mode then vs
          else
            vs
            @ drain_first_twin ~config ~crashed engine' ~pages
                ~slots:(Workload.max_slots spec)
        in
        { point; ok = true; doubt; vs }
  in
  let verdicts =
    Par.Domain_pool.with_pool ~jobs (fun pool ->
        Par.Domain_pool.parallel_map pool check_point (Array.of_list points))
  in
  merge_verdicts ~total_ops ~setup_ops ~gstats verdicts

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

let resilience_config ~spares =
  {
    Config.default with
    Config.buffer_pages = 8;
    spare_blocks = spares;
  }

(* The engine reserves blocks 0..7 for the metadata and transaction logs
   (4 + 4 with its defaults); the wear-out plan must spare those — they
   sit outside the bad-block manager. *)
let data_first_block = 8

let plan_of_profile ~seed profile =
  let min_sector = data_first_block * FConfig.sectors_per_block (chip_config ()) in
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
         else match profile with Wear_out -> 2000 | _ -> 120);
    }
  in
  let config = resilience_config ~spares in
  let chip = Chip.create (chip_config ()) in
  let engine = Engine.create ~config chip in
  let oracle = Oracle.create () in
  let pages = Workload.setup engine oracle spec in
  Fault_plan.install chip (plan_of_profile ~seed profile);
  let outcome = Workload.run_resilient engine oracle spec ~pages in
  let read ~page ~slot =
    match Engine.read engine ~page ~slot with
    | Ok v -> v
    | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e)
  in
  let violations =
    Oracle.check oracle ~read ~pages:(Array.to_list pages)
      ~slots:(Workload.max_slots spec)
  in
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
        let vs =
          Oracle.check oracle
            ~read:(fun ~page ~slot ->
                match Engine.read engine' ~page ~slot with
                | Ok v -> v
                | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e))
            ~pages:(Array.to_list pages) ~slots:(Workload.max_slots spec)
        in
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

(* Crash-during-remap: force a program failure (and so a relocation) at
   the first program after setup, then power-fail a few operations later
   — inside the copy, between the copy and the remap force, or just
   after. Whatever the crash point, restart must land on the old complete
   mapping or the new complete one. Returns per-delta violations. *)
let run_remap_crash ?(spares = 4) ?(seed = 7) ?(deltas = [ 1; 2; 3; 5; 8; 13; 21; 40 ])
    () =
  let config = resilience_config ~spares in
  let spec = { Workload.default with Workload.seed } in
  let violations = ref [] in
  List.iter
    (fun delta ->
      let chip = Chip.create (chip_config ()) in
      let engine = Engine.create ~config chip in
      let oracle = Oracle.create () in
      let pages = Workload.setup engine oracle spec in
      let point = Chip.op_count chip in
      let min_sector = data_first_block * FConfig.sectors_per_block (chip_config ()) in
      Fault_plan.install chip
        (Fault_plan.program_fail_then_crash ~point ~crash_after:delta ~min_sector ());
      (try ignore (Workload.run_resilient engine oracle spec ~pages)
       with Chip.Power_loss _ -> ());
      (match Oracle.crash oracle with Oracle.In_doubt | Oracle.Rolled_back -> ());
      Fault_plan.clear chip;
      match Engine.restart ~config chip with
      | exception e ->
          violations :=
            (delta, [ "restart raised: " ^ Printexc.to_string e ]) :: !violations
      | engine', _ ->
          let vs =
            Oracle.check oracle
              ~read:(fun ~page ~slot ->
                match Engine.read engine' ~page ~slot with
                | Ok v -> v
                | Error e -> failwith ("Campaign: read: " ^ Engine.error_to_string e))
              ~pages:(Array.to_list pages) ~slots:(Workload.max_slots spec)
          in
          if vs <> [] then violations := (delta, vs) :: !violations)
    deltas;
  List.rev !violations

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
     golden-run wear: max=%d mean=%.2f@]"
    r.total_ops r.setup_ops (r.total_ops - r.setup_ops) r.crash_points r.recovered r.in_doubt
    (List.length r.violations) r.max_wear r.mean_wear;
  List.iter
    (fun (point, vs) ->
      Fmt.pf ppf "@,@[<v 2>crash at op %d:%a@]" point
        (fun ppf -> List.iter (fun v -> Fmt.pf ppf "@,- %s" v))
        vs)
    r.violations

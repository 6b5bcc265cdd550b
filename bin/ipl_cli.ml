(* Command-line front end for the reproduction: generate TPC-C traces,
   analyse them, run the Algorithm 2 simulator and sweeps, and reproduce
   the Q1-Q6 device comparison.

     ipl_cli gen --warehouses 1 --buffer-mb 4 --transactions 5000 -o t.trace
     ipl_cli stats t.trace
     ipl_cli simulate t.trace --log-region-kb 16
     ipl_cli sweep t.trace
     ipl_cli queries *)

open Cmdliner

module Trace = Reftrace.Trace
module Trace_io = Reftrace.Trace_io
module Locality = Reftrace.Locality
module Sim = Iplsim.Ipl_simulator
module Sweep = Iplsim.Sweep
module Cost = Iplsim.Cost_model
module Driver = Tpcc.Tpcc_driver
module Q = Workload.Queries

(* ---------------- gen ---------------- *)

let gen warehouses buffer_mb users transactions seed out =
  let r = Driver.generate_trace ~seed ~warehouses ~buffer_mb ~users ~transactions () in
  Trace_io.save r.Driver.trace out;
  Printf.printf "wrote %s: %d events (%d log records, %d page writes), %d-page database\n" out
    (Trace.length r.Driver.trace)
    (Trace.stats r.Driver.trace).Trace.total_logs
    (Trace.stats r.Driver.trace).Trace.page_writes
    r.Driver.db_pages

let warehouses_t =
  Arg.(value & opt int 1 & info [ "w"; "warehouses" ] ~doc:"TPC-C warehouses (10 = ~1GB).")

let buffer_mb_t = Arg.(value & opt int 20 & info [ "buffer-mb" ] ~doc:"Buffer pool size, MB.")
let users_t = Arg.(value & opt int 10 & info [ "users" ] ~doc:"Simulated users (names the trace).")

let transactions_t =
  Arg.(value & opt int 5000 & info [ "n"; "transactions" ] ~doc:"Transactions to run.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let out_t =
  Arg.(value & opt string "tpcc.trace" & info [ "o"; "output" ] ~doc:"Output trace file.")

let gen_cmd =
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a TPC-C update-reference trace (Section 4.2.1).")
    Term.(const gen $ warehouses_t $ buffer_mb_t $ users_t $ transactions_t $ seed_t $ out_t)

(* ---------------- stats ---------------- *)

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

let stats file =
  let trace = Trace_io.load file in
  Printf.printf "%s: %d events over a %d-page database\n" (Trace.name trace)
    (Trace.length trace) (Trace.db_pages trace);
  Format.printf "%a@." Trace.pp_stats (Trace.stats trace);
  let show label s = Format.printf "  %-26s %a@." label Locality.pp_skew s in
  show "log references" (Locality.log_reference_skew trace ~top:2000);
  show "physical page writes" (Locality.page_write_skew trace ~top:2000);
  show "erases (15 pages/unit)" (Locality.erase_skew trace ~top:100 ~pages_per_eu:15);
  Printf.printf "  window-16 distinct pages: %.2f, erase units: %.2f\n"
    (Locality.sliding_window_distinct trace ~window:16 `Pages)
    (Locality.sliding_window_distinct trace ~window:16 (`Erase_units 15))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Table 4 / Figure 4 style analysis of a trace.")
    Term.(const stats $ trace_arg)

(* ---------------- simulate ---------------- *)

let simulate file log_region_kb tau_s flush_empty =
  let trace = Trace_io.load file in
  let params =
    {
      Sim.default_params with
      Sim.log_region = log_region_kb * 1024;
      fill_policy = (match tau_s with None -> `Bytes | Some n -> `Count n);
      flush_empty_on_evict = flush_empty;
    }
  in
  let r = Sim.run ~params trace in
  Format.printf "%a@." Sim.pp_result r;
  let t_ipl = Cost.t_ipl ~sector_writes:r.Sim.sector_writes ~merges:r.Sim.merges () in
  Printf.printf "t_IPL = %.1f s;  t_Conv(0.9) = %.1f s;  t_Conv(0.5) = %.1f s\n" t_ipl
    (Cost.t_conv ~page_writes:r.Sim.page_write_events ~alpha:0.9 ())
    (Cost.t_conv ~page_writes:r.Sim.page_write_events ~alpha:0.5 ())

let log_region_t =
  Arg.(value & opt int 8 & info [ "log-region-kb" ] ~doc:"Log region per 128KB erase unit, KB.")

let tau_s_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau-s" ] ~doc:"Flush after a fixed record count (paper's pseudo-code) instead of byte-accurate fill.")

let flush_empty_t =
  Arg.(value & flag & info [ "flush-empty" ] ~doc:"Emit a sector write on every eviction, even with no pending records.")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the Algorithm 2 IPL simulator over a trace.")
    Term.(const simulate $ trace_arg $ log_region_t $ tau_s_t $ flush_empty_t)

(* ---------------- sweep ---------------- *)

let sweep file csv =
  let trace = Trace_io.load file in
  let points = Sweep.log_region_sweep trace in
  if csv then begin
    Printf.printf "log_region_kb,merges,sector_writes,t_ipl_s,db_size_mb\n";
    List.iter
      (fun (p : Sweep.point) ->
        Printf.printf "%d,%d,%d,%.2f,%d\n" (p.Sweep.log_region / 1024)
          p.Sweep.result.Sim.merges p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl
          (p.Sweep.db_size / 1024 / 1024))
      points
  end
  else begin
    Printf.printf "%-10s %10s %12s %12s %10s\n" "log region" "merges" "sector wr" "t_IPL (s)"
      "DB size";
    List.iter
      (fun (p : Sweep.point) ->
        Printf.printf "%6d KB %12d %12d %12.1f %7d MB\n" (p.Sweep.log_region / 1024)
          p.Sweep.result.Sim.merges p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl
          (p.Sweep.db_size / 1024 / 1024))
      points
  end

let csv_t = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV (plot-ready) output.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Figures 5/6: sweep the log-region size over a trace.")
    Term.(const sweep $ trace_arg $ csv_t)

(* ---------------- replay ---------------- *)

let replay file design =
  let trace = Trace_io.load file in
  let db_pages = Trace.db_pages trace in
  let db_page_size = Ipl_core.Ipl_config.default.Ipl_core.Ipl_config.page_size in
  let blocks = (db_pages / 16 * 115 / 100) + 32 in
  let chip =
    Flash_sim.Flash_chip.create
      (Flash_sim.Flash_config.default ~num_blocks:blocks ~materialize:false ())
  in
  let time, erases =
    match design with
    | "ftl" ->
        let ftl = Ftl.Block_ftl.create chip ~page_size:db_page_size in
        Ftl.Block_ftl.format ftl;
        ( Baseline.Replay.run trace (Ftl.Block_ftl.device ftl),
          (Flash_sim.Flash_chip.stats chip).Flash_sim.Flash_stats.block_erases )
    | "lfs" ->
        let lfs = Baseline.Lfs_store.create chip ~page_size:db_page_size in
        Baseline.Lfs_store.format lfs;
        ( Baseline.Replay.run trace (Baseline.Lfs_store.device lfs),
          (Flash_sim.Flash_chip.stats chip).Flash_sim.Flash_stats.block_erases )
    | "inplace" ->
        let ip = Baseline.Inplace_store.create chip ~page_size:db_page_size in
        Baseline.Inplace_store.format ip;
        ( Baseline.Replay.run trace (Baseline.Inplace_store.device ip),
          (Flash_sim.Flash_chip.stats chip).Flash_sim.Flash_stats.block_erases )
    | "ipl" ->
        let r = Sim.run trace in
        (Cost.t_ipl ~sector_writes:r.Sim.sector_writes ~merges:r.Sim.merges (), r.Sim.merges)
    | other -> failwith (Printf.sprintf "unknown design %S (ftl|lfs|inplace|ipl)" other)
  in
  Printf.printf "%s on %s: %.1f s, %d erases/merges
" design (Trace.name trace) time erases

let design_t =
  Arg.(
    value
    & opt string "ipl"
    & info [ "design" ] ~doc:"Storage design: ipl, ftl (DRAM-buffered SSD), lfs, or inplace.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace's write stream on a storage design.")
    Term.(const replay $ trace_arg $ design_t)

(* ---------------- faultcheck ---------------- *)

(* [--jobs 0] (the default) defers to IPL_JOBS, then to 1; any request is
   clamped to the machine's recommended domain count. Reports, digests
   and JSON (outside wall_clock) are byte-identical for every value. *)
let resolve_jobs cli = Par.Par_config.resolve ~cli ()

let jobs_t =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the parallel paths (crash-point campaigns, baseline \
           replays, restart sweep). 0 (default): use the \
           $(b,IPL_JOBS) environment variable if set, else 1 — fully serial, no \
           domains. Clamped to the machine's recommended domain count. The results \
           are byte-identical for every value; only wall-clock time changes.")

let crash_sweep campaign ops sample stride lazy_mode seed transactions pages no_tear jobs =
  let open Fault.Campaign in
  let transactions =
    Option.value transactions ~default:(match campaign with Serial _ -> 200 | _ -> 60)
  in
  let spec = { Fault.Workload.default with Fault.Workload.seed; transactions; pages } in
  let report =
    run ~tear:(not no_tear) ~max_ops:ops ~sample ~stride ~lazy_mode ~jobs campaign spec
  in
  let failed = report.violations <> [] in
  let broken = match campaign with Serial { broken } -> broken | _ -> false in
  (match campaign with
  | Remap_crash _ ->
      if not failed then Printf.printf "remap-crash: every crash point recovered cleanly\n";
      List.iter
        (fun (delta, vs) ->
          Printf.printf "crash %d ops after remap trigger:\n" delta;
          List.iter (fun v -> Printf.printf "- %s\n" v) vs)
        report.violations
  | Concurrent { sessions } ->
      Printf.printf "concurrent campaign: %d sessions%s\n" sessions
        (if lazy_mode then " (first touch == drain first checked)" else "");
      Format.printf "%a@." pp_report report
  | Serial _ ->
      if lazy_mode then
        Printf.printf "drain-first twin: every crash point checked first touch == drain first\n";
      Format.printf "%a@." pp_report report;
      if broken then
        Printf.printf "broken-commit mode: checker %s\n"
          (if failed then "caught the unsound configuration, as expected"
           else "FAILED to catch the unsound configuration"));
  (* The --broken self-test passes only when the checker flags the run. *)
  if failed <> broken then exit 1

let resilience_campaign profile spares seed transactions =
  let transactions = Option.value ~default:0 transactions in
  let r = Fault.Campaign.run_resilience ~spares ~transactions ~seed profile in
  Format.printf "%a@." Fault.Campaign.pp_resilience_report r;
  if not (Fault.Campaign.resilience_ok r) then exit 1

let crash_point_scope = "the crash-point sweeps (no --profile, or --profile concurrent)"
let sweep_scope = "the crash sweeps (no --profile, concurrent or remap-crash)"
let spares_scope = "the device profiles (flaky, program, erase, wearout, remap-crash)"

(* Each campaign reads only some of the options; one it would ignore is
   refused (exit 2) instead, so a run never passes on a setting it did
   not use. *)
let faultcheck ops sample stride lazy_mode seed transactions pages no_tear broken profile
    spares sessions jobs =
  let device =
    match profile with
    | None | Some ("concurrent" | "remap-crash") -> None
    | Some p -> (
        match Fault.Campaign.profile_of_string p with
        | Some _ as d -> d
        | None ->
            Printf.eprintf
              "unknown profile %S (expected flaky, program, erase, wearout, remap-crash \
               or concurrent)\n"
              p;
            exit 2)
  in
  let plain = profile = None and concurrent = profile = Some "concurrent" in
  let crash_points = plain || concurrent and sweep = device = None in
  let refused =
    List.filter
      (fun (given, _, applies, _) -> given && not applies)
      [
        (* The concurrent oracle cannot catch an unforced commit window:
           no barrier ever settles, so its durable watermark stays 0. *)
        (broken, "--broken", plain, "the plain crash sweep (no --profile)");
        (ops <> None, "--ops", crash_points, crash_point_scope);
        (sample <> None, "--sample", crash_points, crash_point_scope);
        (stride <> None, "--stride", crash_points, crash_point_scope);
        (no_tear, "--no-tear", crash_points, crash_point_scope);
        (lazy_mode, "--lazy", sweep, sweep_scope);
        (pages <> None, "--pages", sweep, sweep_scope);
        (jobs <> 0, "--jobs", sweep, sweep_scope);
        (sessions <> None, "--sessions", concurrent, "--profile concurrent");
        (spares <> None, "--spares", not crash_points, spares_scope);
      ]
  in
  if refused <> [] then begin
    List.iter
      (fun (_, name, _, scope) -> Printf.eprintf "%s only applies to %s\n" name scope)
      refused;
    exit 2
  end;
  let spares = Option.value spares ~default:4 in
  let sweep campaign =
    crash_sweep campaign (Option.value ops ~default:0) (Option.value sample ~default:0)
      (Option.value stride ~default:1) lazy_mode seed transactions
      (Option.value pages ~default:6) no_tear (resolve_jobs jobs)
  in
  match device with
  | Some d -> resilience_campaign d spares seed transactions
  | None when plain -> sweep (Fault.Campaign.Serial { broken })
  | None when concurrent ->
      sweep (Fault.Campaign.Concurrent { sessions = Option.value sessions ~default:8 })
  | None -> sweep (Fault.Campaign.Remap_crash { spares })

let ops_t =
  Arg.(
    value
    & opt (some' ~none:0 int) None
    & info [ "ops" ]
        ~doc:"Consider only the first $(docv) flash operations after setup as crash points (0 = all).")

let sample_t =
  Arg.(
    value
    & opt (some' ~none:0 int) None
    & info [ "sample" ] ~doc:"Test only $(docv) crash points, spread evenly (0 = every point).")

let stride_t =
  Arg.(
    value
    & opt (some' ~none:1 int) None
    & info [ "stride" ]
        ~doc:"Keep only every $(docv)-th crash point after sampling (cheap CI thinning).")

let lazy_t =
  Arg.(
    value & flag
    & info [ "lazy" ]
        ~doc:
          "Drain-first twin: every restart repairs each erase unit's log at its first \
           touch; also require each crashed chip's logical digest to match a twin \
           restarted from the same crashed state that drains every repair before its \
           first read, both before and after the first engine's own drain. The engine \
           runs as without the flag.")

let fc_transactions_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "transactions" ]
        ~doc:"Transactions in the workload (default: 200, or the profile's own length).")

let fc_pages_t =
  Arg.(value & opt (some' ~none:6 int) None & info [ "pages" ] ~doc:"Data pages in the workload.")

let no_tear_t =
  Arg.(
    value & flag
    & info [ "no-tear" ] ~doc:"Fail cleanly before the fatal program instead of tearing it.")

let broken_t =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:
          "Self-test: disable commit-time log forcing and verify the checker flags the \
           lost transactions (exits 0 only if it does). Plain crash sweep only: with \
           $(b,--profile) it exits 2.")

let profile_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ]
        ~doc:
          "Run a device-resilience campaign instead of the crash-point one: $(b,flaky) \
           (correctable/transient reads), $(b,program), $(b,erase) (random failures), \
           $(b,wearout) (to spare-pool exhaustion), $(b,remap-crash) (power loss \
           mid-remap) or $(b,concurrent) (crash points over MVCC sessions with group \
           commit, checked against the commit-order-prefix oracle).")

let fc_sessions_t =
  Arg.(
    value
    & opt (some' ~none:8 int) None
    & info [ "sessions" ]
        ~doc:"Concurrent MVCC sessions for $(b,--profile concurrent).")

let spares_t =
  Arg.(
    value
    & opt (some' ~none:4 int) None
    & info [ "spares" ]
        ~doc:
          "Spare-pool size for the device-resilience and $(b,remap-crash) profiles. With \
           0 the pool is empty: failed reads are still retried, and the first failed \
           program or erase degrades the device to read-only.")

let faultcheck_cmd =
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:
         "Fault campaigns: crash at every flash operation and verify recovery against a \
          model oracle, or ($(b,--profile)) inject device failures against the bad-block \
          manager and verify zero data loss up to read-only degradation.")
    Term.(
      const faultcheck $ ops_t $ sample_t $ stride_t $ lazy_t $ seed_t $ fc_transactions_t
      $ fc_pages_t $ no_tear_t $ broken_t $ profile_t $ spares_t $ fc_sessions_t $ jobs_t)

(* ---------------- observe ---------------- *)

let obs_spec transactions seed quick =
  let base = if quick then Workload.Obs_bench.quick else Workload.Obs_bench.default in
  let base = match transactions with None -> base | Some n -> { base with Workload.Obs_bench.transactions = n } in
  { base with Workload.Obs_bench.seed }

let observe transactions seed quick tail json_out csv_out =
  let spec = obs_spec transactions seed quick in
  let r = Workload.Obs_bench.run ~spec () in
  let tracer = r.Workload.Obs_bench.tracer and metrics = r.Workload.Obs_bench.metrics in
  Printf.printf "workload: %d transactions, seed %d\n" spec.Workload.Obs_bench.transactions
    spec.Workload.Obs_bench.seed;
  Printf.printf "trace: %d events emitted, %d retained, %d dropped\n"
    (Obs.Tracer.emitted tracer) (Obs.Tracer.length tracer) (Obs.Tracer.dropped tracer);
  List.iter
    (fun kind ->
      let n = Obs.Tracer.count_kind tracer kind in
      if n > 0 then Printf.printf "  %-20s %8d\n" kind n)
    Obs.Event.kinds;
  if tail > 0 then begin
    let keep = ref [] and len = ref 0 in
    Obs.Tracer.iter
      (fun e ->
        keep := e :: !keep;
        incr len;
        if !len > tail then keep := List.filteri (fun i _ -> i < tail) !keep)
      tracer;
    Printf.printf "last %d events:\n" (min tail !len);
    List.iter
      (fun (e : Obs.Tracer.entry) ->
        Format.printf "  %6d %.6f %a@." e.Obs.Tracer.seq e.Obs.Tracer.time Obs.Event.pp
          e.Obs.Tracer.event)
      (List.rev !keep)
  end;
  print_string (Obs.Export.metrics_csv metrics);
  (match json_out with
  | None -> ()
  | Some path ->
      let doc =
        Ipl_util.Json.Obj
          [
            ("metrics", Obs.Metrics.to_json metrics);
            ("trace", Obs.Export.trace_json tracer);
          ]
      in
      Obs.Export.to_file path (Ipl_util.Json.to_string doc ^ "\n");
      Printf.printf "wrote %s\n" path);
  match csv_out with
  | None -> ()
  | Some path ->
      Obs.Export.to_file path (Obs.Export.trace_csv tracer);
      Printf.printf "wrote %s\n" path

let obs_transactions_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "transactions" ] ~doc:"Transactions in the instrumented workload.")

let obs_quick_t = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workload for smoke runs.")

let tail_t =
  Arg.(value & opt int 0 & info [ "tail" ] ~doc:"Print the last $(docv) trace events.")

let obs_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~doc:"Write the full trace and metrics as JSON to $(docv).")

let obs_csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~doc:"Write the trace as CSV to $(docv).")

let observe_cmd =
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Run the instrumented engine workload and dump its event trace and latency metrics \
          (lib/obs).")
    Term.(
      const observe $ obs_transactions_t $ seed_t $ obs_quick_t $ tail_t $ obs_json_t $ obs_csv_t)

(* ---------------- bench ---------------- *)

let bench transactions seed quick spares cache_bytes channels ways sessions restart json
    out jobs =
  let jobs = resolve_jobs jobs in
  let spec = obs_spec transactions seed quick in
  let spec = { spec with Workload.Obs_bench.spare_blocks = spares; channels; ways; sessions } in
  let spec =
    match cache_bytes with
    | None -> spec
    | Some b -> { spec with Workload.Obs_bench.log_cache_bytes = b }
  in
  let r = Workload.Obs_bench.run ~spec ~jobs () in
  let member = Ipl_util.Json.member in
  let backends =
    match member "backends" r.Workload.Obs_bench.json with
    | Some (Ipl_util.Json.List l) -> l
    | _ -> []
  in
  Printf.printf "%-10s %14s %14s %12s\n" "backend" "flash time (s)" "erases" "writes";
  List.iter
    (fun b ->
      let str k = match member k b with Some (Ipl_util.Json.String s) -> s | _ -> "?" in
      let flash = Option.value ~default:Ipl_util.Json.Null (member "flash" b) in
      let num k =
        match member k flash with
        | Some (Ipl_util.Json.Int n) -> float_of_int n
        | Some (Ipl_util.Json.Float f) -> f
        | _ -> Float.nan
      in
      Printf.printf "%-10s %14.4f %14.0f %12.0f\n" (str "name") (num "elapsed_s")
        (num "block_erases") (num "page_writes"))
    backends;
  (let c = r.Workload.Obs_bench.concurrency in
   if c.Workload.Obs_bench.sessions > 0 then
     Printf.printf
       "sessions %d: %d committed, %d aborted (%d conflicts), %d commit batches \
        (mean %.2f, max %d), %.0f txn/s simulated\n"
       c.Workload.Obs_bench.sessions c.Workload.Obs_bench.committed
       (c.Workload.Obs_bench.aborted + c.Workload.Obs_bench.conflict_aborts)
       c.Workload.Obs_bench.conflict_aborts c.Workload.Obs_bench.commit_batches
       (if c.Workload.Obs_bench.commit_batches > 0 then
          float_of_int c.Workload.Obs_bench.batched_commits
          /. float_of_int c.Workload.Obs_bench.commit_batches
        else 0.0)
       c.Workload.Obs_bench.max_commit_batch c.Workload.Obs_bench.throughput_tps);
  let restart_points =
    if restart then begin
      let pts = Workload.Restart_bench.run ~jobs () in
      Format.printf "%a@." Workload.Restart_bench.pp pts;
      Some pts
    end
    else None
  in
  if json then begin
    let extra =
      match restart_points with
      | None -> []
      | Some pts -> [ ("restart", Workload.Restart_bench.to_json pts) ]
    in
    Workload.Obs_bench.write_json ~extra out r;
    Printf.printf "wrote %s\n" out
  end

let bench_json_t =
  Arg.(value & flag & info [ "json" ] ~doc:"Also write the full benchmark document as JSON.")

let bench_restart_t =
  Arg.(
    value & flag
    & info [ "restart" ]
        ~doc:
          "Also run the restart-availability benchmark: simulated time to the first \
           committed transaction after a crash, with the restart's repairs drained \
           first (eager) versus left to first touch (lazy), \
           over three database sizes. With $(b,--json) the \
           results are appended to the document under $(i,restart).")

let bench_spares_t =
  Arg.(
    value & opt int 0
    & info [ "spares" ]
        ~doc:
          "Size of the IPL engine's spare pool, in blocks (0: an empty pool). Every \
           engine runs its data area through the bad-block manager; its resilience \
           counters appear in the JSON backend stats.")

let bench_cache_bytes_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-bytes" ]
        ~doc:
          "DRAM log-record cache budget in bytes for the IPL engine (0 disables the \
           cache); defaults to the engine's configured budget.")

let bench_channels_t =
  Arg.(
    value & opt int 1
    & info [ "channels" ]
        ~doc:
          "Flash channels of the IPL engine's device; the logical results \
           (and the JSON document's logical_digest) are identical for every \
           value, only the simulated flash time changes.")

let bench_ways_t =
  Arg.(value & opt int 1 & info [ "ways" ] ~doc:"Chips per channel (total chips = channels x ways).")

let bench_sessions_t =
  Arg.(
    value & opt int 0
    & info [ "sessions" ]
        ~doc:
          "Run the workload through $(docv) concurrent MVCC client sessions with group \
           commit (0: the serial engine loop). One session reproduces the serial \
           logical_digest bit-for-bit; more sessions batch commits into fewer device \
           barriers and report conflict/abort rates in the JSON concurrency section.")

let bench_out_t =
  Arg.(
    value
    & opt string "BENCH_ipl.json"
    & info [ "o"; "output" ] ~doc:"Where $(b,--json) writes the document.")

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Instrumented three-backend benchmark (IPL vs sequential-logging vs in-place); \
          $(b,--json) writes the schema-stable BENCH_ipl.json.")
    Term.(
      const bench $ obs_transactions_t $ seed_t $ obs_quick_t $ bench_spares_t
      $ bench_cache_bytes_t $ bench_channels_t $ bench_ways_t $ bench_sessions_t
      $ bench_restart_t $ bench_json_t $ bench_out_t $ jobs_t)

(* ---------------- chansweep ---------------- *)

let chansweep transactions seed quick counts csv jobs =
  let jobs = resolve_jobs jobs in
  let spec = obs_spec transactions seed quick in
  (* Each sweep point runs sequentially with the parallelism {e inside}
     the point (replays, session reads): nesting a pool of points over
     the bench's own pool would deadlock-by-design (Nested_parallelism). *)
  let run ~channels =
    (Workload.Obs_bench.run ~spec:{ spec with Workload.Obs_bench.channels } ~jobs ())
      .Workload.Obs_bench.json
  in
  let points = Sweep.channel_sweep ~channel_counts:counts ~run () in
  let digests =
    List.sort_uniq compare (List.map (fun p -> p.Sweep.logical_digest) points)
  in
  if List.length digests > 1 then
    failwith "chansweep: logical digest differs across channel counts";
  let q cls f p =
    match List.assoc_opt cls p.Sweep.class_latency with
    | Some (p50, p99) -> f (p50, p99)
    | None -> Float.nan
  in
  if csv then begin
    Printf.printf
      "channels,elapsed_s,speedup,fg_p50_ms,fg_p99_ms,log_p50_ms,log_p99_ms,merge_p50_ms,merge_p99_ms
";
    List.iter
      (fun (p : Sweep.channel_point) ->
        Printf.printf "%d,%.4f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f
" p.Sweep.channels
          p.Sweep.elapsed_s p.Sweep.speedup
          (1e3 *. q "foreground" fst p)
          (1e3 *. q "foreground" snd p)
          (1e3 *. q "log_flush" fst p)
          (1e3 *. q "log_flush" snd p)
          (1e3 *. q "merge" fst p)
          (1e3 *. q "merge" snd p))
      points
  end
  else begin
    Printf.printf "%-9s %11s %8s %18s %18s %18s
" "channels" "elapsed (s)" "speedup"
      "fg p50/p99 (ms)" "log p50/p99 (ms)" "merge p50/p99 (ms)";
    List.iter
      (fun (p : Sweep.channel_point) ->
        Printf.printf "%-9d %11.4f %7.2fx %9.2f /%6.2f %9.2f /%6.2f %9.2f /%6.2f
"
          p.Sweep.channels p.Sweep.elapsed_s p.Sweep.speedup
          (1e3 *. q "foreground" fst p)
          (1e3 *. q "foreground" snd p)
          (1e3 *. q "log_flush" fst p)
          (1e3 *. q "log_flush" snd p)
          (1e3 *. q "merge" fst p)
          (1e3 *. q "merge" snd p))
      points;
    Printf.printf "logical digest: %s (identical at every channel count)
"
      (match digests with d :: _ -> d | [] -> "?")
  end

let chansweep_counts_t =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8 ]
    & info [ "counts" ] ~doc:"Comma-separated channel counts to sweep.")

let chansweep_cmd =
  Cmd.v
    (Cmd.info "chansweep"
       ~doc:
         "Channel-scaling sweep: run the bench workload at several channel counts,           report makespan, speedup and per-op-class latency quantiles, and verify the           logical digest is geometry-independent.")
    Term.(
      const chansweep $ obs_transactions_t $ seed_t $ obs_quick_t $ chansweep_counts_t
      $ csv_t $ jobs_t)

(* ---------------- queries ---------------- *)

let queries () =
  Printf.printf "%-28s %10s %10s\n" "" "disk (s)" "flash (s)";
  List.iter
    (fun (q, (d : Q.measurement), (f : Q.measurement)) ->
      Printf.printf "%-28s %10.2f %10.2f\n" (Q.name q) d.Q.elapsed f.Q.elapsed)
    (Q.table3 ())

let queries_cmd =
  Cmd.v
    (Cmd.info "queries" ~doc:"Tables 2/3: run Q1-Q6 on the disk and flash-SSD models.")
    Term.(const queries $ const ())

(* ---------------- main ---------------- *)

let main_cmd =
  Cmd.group
    (Cmd.info "ipl_cli" ~version:"1.0"
       ~doc:"In-page logging (SIGMOD 2007) reproduction toolkit.")
    [
      gen_cmd;
      stats_cmd;
      simulate_cmd;
      sweep_cmd;
      replay_cmd;
      faultcheck_cmd;
      observe_cmd;
      bench_cmd;
      chansweep_cmd;
      queries_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

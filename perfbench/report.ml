(* Metrics from measured rounds.

   Every round of a run replays the same seeded inputs from a fresh
   set-up, so the simulated quantities (device clock, flash counters,
   latencies) are identical across rounds and are read from the first;
   host quantities vary, are scaled by each round's host speed, and are
   reported as the median over rounds. *)

module Engine = Ipl_core.Ipl_engine
module S = Ipl_core.Ipl_storage
module P = Bufmgr.Buffer_pool
module FS = Flash_sim.Flash_stats
module FConfig = Flash_sim.Flash_config

let flash_config = FConfig.default ()
let sector = float_of_int flash_config.FConfig.sector_size
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let window_sim (r : Round.t) = r.after.Round.sim -. r.before.Round.sim

(* Window wall time without the host-speed gauges. *)
let window_wall (r : Round.t) = r.after.Round.wall -. r.before.Round.wall -. r.probe.Probe.pace_s

(* Host speed during the round's window relative to the reference host
   ([Pace]). Host times are multiplied by it, and host rates divided, so
   that they read as on the reference host. *)
let speed (r : Round.t) = median r.probe.Probe.speeds

let flash (r : Round.t) = FS.diff r.after.Round.st.Engine.flash r.before.Round.st.Engine.flash
let storage (r : Round.t) = S.Stats.diff r.after.Round.st.Engine.storage r.before.Round.st.Engine.storage
let pool (r : Round.t) = P.Stats.diff r.after.Round.st.Engine.pool r.before.Round.st.Engine.pool
let committed (r : Round.t) = fi r.committed

(* What must repeat exactly when the same inputs are replayed. *)
let fingerprint (r : Round.t) =
  let f = flash r in
  Printf.sprintf "%d %d %d %h %d %d %d %h %h %d %d %d %d %x" r.attempted r.committed r.conflict_aborts
    (window_sim r) f.FS.sectors_written f.FS.sectors_read f.FS.block_erases
    (Array.fold_left ( +. ) 0.0 r.latencies)
    r.recovery.Round.ttft_s r.live_user_bytes r.bytes_written r.bytes_read r.pages_differing r.digest

type metric = string * float * string

let end_to_end (rs : Round.t list) : metric list =
  let r = List.hd rs in
  let f = flash r in
  [
    ("setup_s", median (List.map (fun (r : Round.t) -> r.setup_s *. speed r) rs), "s");
    ( "host_tps",
      median (List.map (fun (r : Round.t) -> ratio (committed r) (Probe.host_s r.probe) /. speed r) rs),
      "1/s" );
    ("sim_tps", ratio (committed r) (window_sim r), "1/s");
    ("commit_p50_ms", 1e3 *. Lat.mid_quantile r.latencies 0.50, "ms");
    ("commit_p99_ms", 1e3 *. Lat.mid_quantile r.latencies 0.99, "ms");
    ("alloc_kw_per_txn", ratio (Probe.words r.probe) (committed r) /. 1e3, "kw/txn");
    ("heap_peak_mb", fi (r.heap_top_words * (Sys.word_size / 8)) /. 1e6, "MB");
    ("write_amp", ratio (fi f.FS.sectors_written *. sector) (fi r.bytes_written), "ratio");
    ("read_amp", ratio (fi f.FS.sectors_read *. sector) (fi r.bytes_read), "ratio");
    ( "space_amp",
      ratio (fi r.recovery.Round.live_sectors *. sector) (fi r.live_user_bytes),
      "ratio" );
    ("erases_per_ktxn", 1e3 *. ratio (fi f.FS.block_erases) (committed r), "count/ktxn");
    ("conflict_free_frac", 1.0 -. ratio (fi r.conflict_aborts) (fi r.attempted), "ratio");
  ]

let span_named (r : Round.t) name =
  List.find_opt (fun (s : Probe.span) -> s.Probe.name = name) r.probe.Probe.spans

let host_us rs name =
  median
    (List.map
       (fun r -> match span_named r name with Some s -> Probe.mean_host_us s *. speed r | None -> 0.0)
       rs)

let sim_us (r : Round.t) name = match span_named r name with Some s -> Probe.mean_sim_us s | None -> 0.0

let span_host_s (r : Round.t) name =
  match span_named r name with Some s -> fi s.Probe.host_ns *. 1e-9 | None -> 0.0

(* Windowed quantile of a device class histogram: bucket counts are
   diffed over the window, the rank is located by linear interpolation
   inside its power-of-two bucket and clamped to the observed range. *)
let hist_quantile (before : Round.hist) (after : Round.hist) q =
  let counts =
    List.filter_map
      (fun (lo, n) ->
        let n0 = Option.value ~default:0 (List.assoc_opt lo before.Round.buckets) in
        if n > n0 then Some (lo, n - n0) else None)
      after.Round.buckets
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank = q *. fi total in
    let rec walk cum = function
      | [] -> after.Round.hi
      | (lo, n) :: rest ->
          if cum +. fi n >= rank then lo +. (lo *. (rank -. cum) /. fi n) else walk (cum +. fi n) rest
    in
    Float.max after.Round.lo (Float.min after.Round.hi (walk 0.0 counts))
  end

(* [untraced] and [traced] rounds of one run with tracing on: counters
   come from the first traced round (they equal the untraced ones), span
   times are medians over the traced rounds, and the harness share and
   tracing overhead compare the two kinds of round. *)
let per_layer ~(untraced : Round.t list) ~(traced : Round.t list) : metric list =
  let r = List.hd traced in
  let n = committed r in
  let per_k x = 1e3 *. ratio (fi x) n and per_txn x = ratio (fi x) n in
  let st = storage r and pl = pool r and f = flash r in
  let mv =
    match (r.before.Round.mvcc, r.after.Round.mvcc) with
    | Some b, Some a -> Some (b, a)
    | _ -> None
  in
  let mvd g = match mv with Some (b, a) -> g a - g b | None -> 0 in
  let barriers = mvd (fun s -> s.Ipl_txn.Mvcc.barriers) in
  let sim_window = window_sim r in
  let nchips = Array.length r.after.Round.busy in
  let busy = Array.mapi (fun i b -> b -. r.before.Round.busy.(i)) r.after.Round.busy in
  let busy_total = Array.fold_left ( +. ) 0.0 busy in
  let t_ipl =
    Iplsim.Cost_model.t_ipl
      ~sector_writes:(st.S.log_sector_writes + st.S.overflow_sector_writes)
      ~merges:st.S.merges ()
  in
  let program_erase =
    (fi f.FS.page_writes *. flash_config.FConfig.t_write_page)
    +. (fi f.FS.block_erases *. flash_config.FConfig.t_erase_block)
  in
  let device_classes =
    List.concat
      (List.map2
         (fun (name, _) (b, a) ->
           [
             (Printf.sprintf "device.%s.p50_ms" name, 1e3 *. hist_quantile b a 0.50, "ms");
             (Printf.sprintf "device.%s.p99_ms" name, 1e3 *. hist_quantile b a 0.99, "ms");
           ])
         Round.classes
         (List.combine r.before.Round.hists r.after.Round.hists))
  in
  let tpcc_ops =
    List.map (fun op -> (Printf.sprintf "tpcc.%s.host_us" op, host_us traced ("tpcc." ^ op), "us")) Tpcc_wl.op_names
  in
  let tpcc_txns =
    List.map
      (fun t -> (Printf.sprintf "tpcc.%s.host_ms" t, host_us traced ("tpcc." ^ t) /. 1e3, "ms"))
      Tpcc_wl.txn_names
  in
  let store_frac (r : Round.t) =
    let sum names = List.fold_left (fun a nm -> a +. span_host_s r ("tpcc." ^ nm)) 0.0 names in
    ratio (sum Tpcc_wl.op_names) (sum Tpcc_wl.txn_names)
  in
  let per_txn_wall (r : Round.t) = ratio (window_wall r) (committed r) in
  let rec_ = r.recovery in
  [
    ("txn.barriers_per_ktxn", per_k barriers, "count/ktxn");
    ("txn.mean_batch", ratio (fi (mvd (fun s -> s.Ipl_txn.Mvcc.batched_commits))) (fi barriers), "count");
    ("txn.conflicts_per_ktxn", per_k (mvd (fun s -> s.Ipl_txn.Mvcc.conflicts)), "count/ktxn");
    ("txn.write.host_us", host_us traced "txn.write", "us");
    ("txn.read.host_us", host_us traced "txn.read", "us");
    ("txn.commit.host_us", host_us traced "txn.commit", "us");
    ("txn.flush.host_us", host_us traced "txn.flush", "us");
    ("txn.flush.sim_ms", sim_us r "txn.flush" /. 1e3, "ms");
    ("engine.read.host_us", host_us traced "engine.read", "us");
    ("engine.read.sim_us", sim_us r "engine.read", "us");
    ("engine.update.host_us", host_us traced "engine.update", "us");
    ("engine.commit.sim_us", sim_us r "engine.commit", "us");
    ("engine.compact.sim_ms", sim_us r "engine.compact" /. 1e3, "ms");
    ("engine.compact.host_ms", host_us traced "engine.compact" /. 1e3, "ms");
    ("buffer.hit_ratio", ratio (fi pl.P.hits) (fi (pl.P.hits + pl.P.misses)), "ratio");
    ("buffer.evictions_per_txn", per_txn pl.P.evictions, "count/txn");
    ("buffer.write_backs_per_txn", per_txn pl.P.dirty_write_backs, "count/txn");
    ("storage.page_reads_per_txn", per_txn st.S.page_reads, "count/txn");
    ( "storage.log_sector_reads_per_page_read",
      ratio (fi st.S.log_sector_reads) (fi st.S.page_reads),
      "ratio" );
    ( "storage.log_sector_writes_per_txn",
      per_txn (st.S.log_sector_writes + st.S.overflow_sector_writes),
      "count/txn" );
    ("storage.merges_per_ktxn", per_k st.S.merges, "count/ktxn");
    ("storage.overflow_diversions_per_ktxn", per_k st.S.overflow_diversions, "count/ktxn");
    ("storage.carried_per_merge", ratio (fi st.S.records_carried_over) (fi st.S.merges), "count");
    ("storage.reclaimed_eus_per_ktxn", per_k st.S.erase_units_reclaimed, "count/ktxn");
    ("storage.t_ipl_ratio", ratio program_erase t_ipl, "ratio");
    ( "cache.hit_ratio",
      ratio (fi st.S.log_cache_hits) (fi (st.S.log_cache_hits + st.S.log_cache_misses)),
      "ratio" );
    ("cache.evictions_per_ktxn", per_k st.S.log_cache_evictions, "count/ktxn");
    ("device.util_mean", ratio busy_total (fi nchips *. sim_window), "ratio");
    ("device.queue_depth_max", fi r.after.Round.qmax, "count");
  ]
  @ device_classes
  @ [
      ("flash.sectors_written_per_txn", per_txn f.FS.sectors_written, "count/txn");
      ("flash.sectors_read_per_txn", per_txn f.FS.sectors_read, "count/txn");
      ("flash.busy_s", busy_total, "s");
      ("flash.max_wear", fi r.after.Round.st.Engine.flash.FS.max_wear, "count");
      ("recovery.ttft_ms", 1e3 *. rec_.Round.ttft_s, "ms");
      ("recovery.restart_sim_ms", 1e3 *. rec_.Round.restart_sim_s, "ms");
      ("recovery.first_txn_sim_ms", 1e3 *. rec_.Round.first_txn_sim_s, "ms");
      ("recovery.log_sectors_read", fi rec_.Round.log_sectors_read, "count");
      ( "recovery.restart_host_ms",
        1e3
        *. median
             (List.map (fun (r : Round.t) -> r.recovery.Round.restart_host_s *. speed r) (untraced @ traced)),
        "ms" );
      ("recovery.repair_pending", fi rec_.Round.repair_pending, "count");
      ("recovery.pages_differing", fi r.pages_differing, "count");
    ]
  @ tpcc_ops @ tpcc_txns
  @ [
      ("tpcc.store_host_frac", median (List.map store_frac traced), "ratio");
      ("gc.minor_words_per_txn", ratio r.probe.Probe.minor n, "words/txn");
      ("gc.promoted_words_per_txn", ratio r.probe.Probe.promoted n, "words/txn");
      ( "gc.major_collections_per_ktxn",
        per_k (r.after.Round.gc.Gc.major_collections - r.before.Round.gc.Gc.major_collections),
        "count/ktxn" );
      ("bench.commits", fi (Array.length r.latencies), "count");
      ( "bench.harness_host_frac",
        median
          (List.map
             (fun (r : Round.t) -> 1.0 -. ratio (Probe.host_s r.probe) (window_wall r))
             untraced),
        "ratio" );
      ("bench.host_speed", median (List.map speed untraced), "ratio");
      ("bench.sim_coverage", ratio r.probe.Probe.sim_s sim_window, "ratio");
      ( "bench.trace_overhead",
        ratio (median (List.map per_txn_wall traced)) (median (List.map per_txn_wall untraced)) -. 1.0,
        "ratio" );
    ]

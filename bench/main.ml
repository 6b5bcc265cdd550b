(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections 2.2.1, 4.1 and 4.2), prints paper-reported values
   next to the measured ones, runs the ablation studies called out in
   DESIGN.md, and finishes with Bechamel micro-benchmarks of the core
   operations.

   Usage: dune exec bench/main.exe -- [--quick] [--skip-micro]
            [--csv-dir DIR] [--channels N] [--ways N]

   --quick scales the TPC-C study down (1 warehouse, small pools) for a
   fast smoke run; the default reproduces the paper's 1 GB configuration
   and takes a few minutes. --help lists every option. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats
module Q = Workload.Queries
module Trace = Reftrace.Trace
module Locality = Reftrace.Locality
module Driver = Tpcc.Tpcc_driver
module Txn = Tpcc.Tpcc_txn
module Sim = Iplsim.Ipl_simulator
module Cost = Iplsim.Cost_model
module Sweep = Iplsim.Sweep
module Engine = Ipl_core.Ipl_engine
module Store = Ipl_core.Ipl_storage

(* The harness runs on healthy simulated devices: any typed engine error
   here is a bench bug, so unwrap loudly. *)
let eok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Engine.error_to_string e)

(* Database page size shared by every storage design under test. *)
let db_page_size = Ipl_core.Ipl_config.default.Ipl_core.Ipl_config.page_size

(* Also dump a figure's plot-ready data to [csv_dir]/[name], when given. *)
let with_csv csv_dir name f =
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir name) in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let elapsed_timer () =
  let t0 = Ipl_util.Clock.now_s () in
  fun () -> Ipl_util.Clock.now_s () -. t0

(* ------------------------------------------------------------------ *)
(* Table 1: device access speeds                                       *)

let table1 () =
  section "Table 1: Access speed, magnetic disk vs NAND flash";
  let f = FConfig.default () in
  Printf.printf "  %-22s %12s %12s %12s\n" "Media" "Read" "Write" "Erase";
  Printf.printf "  %-22s %9.1f ms %9.1f ms %12s   (2 KB)\n" "Magnetic disk (model)" 12.7 13.7
    "N/A";
  Printf.printf "  %-22s %9.0f us %9.0f us %9.1f ms   (2 KB / 128 KB)\n" "NAND flash (model)"
    (f.FConfig.t_read_page *. 1e6)
    (f.FConfig.t_write_page *. 1e6)
    (f.FConfig.t_erase_block *. 1e3);
  note "paper: disk 12.7/13.7 ms; flash 80 us / 200 us / 1.5 ms (by construction)"

(* ------------------------------------------------------------------ *)
(* Tables 3 and 2: Q1-Q6 on both devices                               *)

let paper_table3 = function
  | Q.Q1 -> (14.04, 11.02)
  | Q.Q2 -> (61.07, 12.05)
  | Q.Q3 -> (172.01, 13.05)
  | Q.Q4 -> (34.03, 26.01)
  | Q.Q5 -> (151.92, 61.76)
  | Q.Q6 -> (340.72, 369.88)

let tables_3_and_2 ~csv_dir =
  section "Table 3: read and write query performance (seconds)";
  let results = Q.table3 () in
  let flash_of q =
    let _, _, f = List.find (fun (q', _, _) -> q' = q) results in
    f
  in
  Printf.printf "  %-28s %10s %10s   %10s %10s\n" "" "disk" "(paper)" "flash" "(paper)";
  List.iter
    (fun (q, (d : Q.measurement), (f : Q.measurement)) ->
      let pd, pf = paper_table3 q in
      Printf.printf "  %-28s %10.2f %10.2f   %10.2f %10.2f\n" (Q.name q) d.Q.elapsed pd
        f.Q.elapsed pf)
    results;
  note "flash Q4/Q5/Q6 erase-unit RMW cycles: %d / %d / %d (paper's per-unit analysis: 4000 for Q4, 64000 for Q6)"
    (flash_of Q.Q4).Q.erases (flash_of Q.Q5).Q.erases (flash_of Q.Q6).Q.erases;
  note "flash Q4/Q5/Q6 DRAM-segment evictions: %d / %d / %d (paper counts Q5 as 8000 'erases')"
    (flash_of Q.Q4).Q.segment_evictions (flash_of Q.Q5).Q.segment_evictions
    (flash_of Q.Q6).Q.segment_evictions;
  section "Table 2: random-to-sequential performance ratios";
  let pp kind medium label paper =
    let lo, hi = Q.random_to_sequential_ratios results kind medium in
    Printf.printf "  %-24s %6.1f ~ %6.1f   (paper: %s)\n" label lo hi paper
  in
  pp `Read `Disk "disk, read workload" "4.3 ~ 12.3";
  pp `Write `Disk "disk, write workload" "4.5 ~ 10.0";
  pp `Read `Flash "flash, read workload" "1.1 ~ 1.2";
  pp `Write `Flash "flash, write workload" "2.4 ~ 14.2";
  with_csv csv_dir "table3.csv" (fun oc ->
      output_string oc "query,disk_s,disk_paper_s,flash_s,flash_paper_s\n";
      List.iter
        (fun (q, (d : Q.measurement), (f : Q.measurement)) ->
          let pd, pf = paper_table3 q in
          Printf.fprintf oc "%s,%.2f,%.2f,%.2f,%.2f\n" (Q.name q) d.Q.elapsed pd f.Q.elapsed pf)
        results)

(* ------------------------------------------------------------------ *)
(* TPC-C trace generation                                              *)

type study = {
  trace_100m : Trace.t;
  series_1g : (int * Trace.t) list;  (* buffer MB -> trace *)
  buf_small : int;  (* the "20MB" point of this run *)
  buf_medium : int;  (* the "40MB" point *)
}

let generate_study ~quick =
  section "TPC-C trace generation (stand-in for Hammerora, Section 4.2.1)";
  let warehouses, buffer_100m, buffer_mbs, tx_1g, tx_100m, users =
    if quick then (1, 2, [ 2; 4; 6; 8; 10 ], 3_000, 1_500, 10)
    else (10, 20, [ 20; 40; 60; 80; 100 ], 33_000, 3_400, 100)
  in
  let t = elapsed_timer () in
  let r100 =
    Driver.generate_trace ~warehouses:1 ~buffer_mb:buffer_100m ~users:10
      ~transactions:tx_100m ()
  in
  let s100 = Trace.stats r100.Driver.trace in
  note "%-14s %8d txns -> %7d log records, %6d page writes (%.0fs)"
    (Trace.name r100.Driver.trace) tx_100m s100.Trace.total_logs s100.Trace.page_writes
    (t ());
  let t = elapsed_timer () in
  let series =
    Driver.generate_trace_series ~warehouses ~users ~transactions:tx_1g ~buffer_mbs ()
  in
  List.iter
    (fun (_, trace) ->
      let s = Trace.stats trace in
      note "%-14s %8d txns -> %7d log records, %6d page writes" (Trace.name trace) tx_1g
        s.Trace.total_logs s.Trace.page_writes)
    series;
  note "1G series generated in %.0fs (database loaded once, %d pages)" (t ())
    (Trace.db_pages (snd (List.hd series)));
  {
    trace_100m = r100.Driver.trace;
    series_1g = series;
    buf_small = List.nth buffer_mbs 0;
    buf_medium = List.nth buffer_mbs 1;
  }

let trace_1g_20m study = List.assoc study.buf_small study.series_1g
let trace_1g_40m study = List.assoc study.buf_medium study.series_1g

(* ------------------------------------------------------------------ *)
(* Table 4: update log statistics                                      *)

let table4 study =
  section "Table 4: update log statistics of the 1G.20M.100u trace";
  let s = Trace.stats (trace_1g_20m study) in
  let row name (os : Trace.op_stats) total paper =
    Printf.printf "  %-8s %9d (%5.2f%%)  avg %6.1f   (paper: %s)\n" name os.Trace.occurrences
      (100.0 *. float_of_int os.Trace.occurrences /. float_of_int (max 1 total))
      os.Trace.avg_length paper
  in
  row "Insert" s.Trace.insert s.Trace.total_logs "86902 (11.08%) avg 43.5";
  row "Delete" s.Trace.delete s.Trace.total_logs "284 (0.06%) avg 20.0";
  row "Update" s.Trace.update s.Trace.total_logs "697092 (88.88%) avg 49.4";
  Printf.printf "  %-8s %9d (100.0%%)  avg %6.1f   (paper: 784278, avg 48.7)\n" "Total"
    s.Trace.total_logs s.Trace.avg_log_length;
  Printf.printf "  physical page writes: %d   (paper: 625527)\n" s.Trace.page_writes

(* ------------------------------------------------------------------ *)
(* Figure 4: update locality                                           *)

let pp_skew_series label (s : Locality.skew) paper_note =
  Printf.printf "  %-34s top-%d share %5.1f%%, gini %.3f, %d distinct keys\n" label
    (Array.length s.Locality.top_counts)
    (100.0 *. s.Locality.top_share)
    s.Locality.gini s.Locality.distinct;
  let pick i = if i < Array.length s.Locality.top_counts then s.Locality.top_counts.(i) else 0 in
  Printf.printf "    hottest keys: #1=%d #10=%d #100=%d #500=%d #2000=%d  %s\n" (pick 0)
    (pick 9) (pick 99) (pick 499) (pick 1999) paper_note

let figure4 ~csv_dir study =
  section "Figure 4: TPC-C update locality (1G.20M.100u trace)";
  let trace = trace_1g_20m study in
  pp_skew_series "(a) log references by page"
    (Locality.log_reference_skew trace ~top:2000)
    "(paper: heavily skewed)";
  pp_skew_series "(b) physical page writes"
    (Locality.page_write_skew trace ~top:2000)
    "(paper: top 2000 pages take 29% of 625527 writes)";
  pp_skew_series "(c) erases by erase unit"
    (Locality.erase_skew trace ~top:100 ~pages_per_eu:15)
    "(paper: clearly skewed across units)";
  with_csv csv_dir "fig4.csv" (fun oc ->
      output_string oc "rank,log_refs,page_writes\n";
      let a = (Locality.log_reference_skew trace ~top:2000).Locality.top_counts in
      let b = (Locality.page_write_skew trace ~top:2000).Locality.top_counts in
      for i = 0 to 1999 do
        Printf.fprintf oc "%d,%d,%d\n" (i + 1)
          (if i < Array.length a then a.(i) else 0)
          (if i < Array.length b then b.(i) else 0)
      done);
  let pages = Locality.sliding_window_distinct trace ~window:16 `Pages in
  let eus = Locality.sliding_window_distinct trace ~window:16 (`Erase_units 15) in
  Printf.printf
    "  sliding window of 16 physical writes: %.2f/16 distinct pages (%.1f%%), %.2f/16 \
     distinct erase units (%.1f%%)\n"
    pages
    (100.0 *. pages /. 16.0)
    eus
    (100.0 *. eus /. 16.0);
  note "paper: 99.9%% distinct pages, 93.1%% (14.89/16) distinct erase units"

(* ------------------------------------------------------------------ *)
(* Table 5: log records vs sector writes                               *)

let table5 study =
  section "Table 5: update log records vs flash sector writes (8 KB log region)";
  let row trace paper =
    let r = Sim.run trace in
    Printf.printf "  %-14s %9d logs -> %8d sector writes   (paper: %s)\n" (Trace.name trace)
      r.Sim.log_records r.Sim.sector_writes paper
  in
  row study.trace_100m "79136 -> 46893";
  row (trace_1g_40m study) "784278 -> 594694";
  row (trace_1g_20m study) "785535 -> 559391"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: log-region sweep                                   *)

let figures_5_and_6 ~csv_dir study =
  section "Figure 5: merges vs log-region size / Figure 6: estimated write time and space";
  let traces = [ trace_1g_20m study; trace_1g_40m study; study.trace_100m ] in
  List.iter
    (fun trace ->
      Printf.printf "  %s\n" (Trace.name trace);
      Printf.printf "    %-10s %10s %12s %12s %10s\n" "log region" "merges" "sector wr"
        "t_IPL (s)" "DB size";
      List.iter
        (fun (p : Sweep.point) ->
          Printf.printf "    %6d KB %10d %12d %12.1f %7d MB\n" (p.Sweep.log_region / 1024)
            p.Sweep.result.Sim.merges p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl
            (p.Sweep.db_size / 1024 / 1024))
        (Sweep.log_region_sweep trace))
    traces;
  with_csv csv_dir "fig5_6.csv" (fun oc ->
      output_string oc "trace,log_region_kb,merges,sector_writes,t_ipl_s,db_size_mb\n";
      List.iter
        (fun trace ->
          List.iter
            (fun (p : Sweep.point) ->
              Printf.fprintf oc "%s,%d,%d,%d,%.2f,%d\n" (Trace.name trace)
                (p.Sweep.log_region / 1024) p.Sweep.result.Sim.merges
                p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl (p.Sweep.db_size / 1024 / 1024))
            (Sweep.log_region_sweep trace))
        traces);
  note "paper: merges drop steeply as the log region grows; t_IPL follows (Fig 6a)";
  note "while the database's flash footprint grows towards 2x (Fig 6b)"

(* ------------------------------------------------------------------ *)
(* Figure 7: varying buffer sizes                                      *)

let figure7 ~csv_dir study =
  section "Figure 7: IPL vs conventional server across buffer-pool sizes (1GB DB)";
  let series =
    List.map (fun (mb, trace) -> (Printf.sprintf "%dMB" mb, trace)) study.series_1g
  in
  let points = Sweep.buffer_series series in
  Printf.printf "  %-8s %12s %10s %12s %14s %14s\n" "buffer" "sector wr" "merges" "t_IPL (s)"
    "t_Conv a=0.9" "t_Conv a=0.5";
  List.iter
    (fun (p : Sweep.buffer_point) ->
      let conv a = List.assoc a p.Sweep.t_conv_by_alpha in
      Printf.printf "  %-8s %12d %10d %12.1f %14.1f %14.1f\n" p.Sweep.label
        p.Sweep.result.Sim.sector_writes p.Sweep.result.Sim.merges p.Sweep.t_ipl (conv 0.9)
        (conv 0.5))
    points;
  with_csv csv_dir "fig7.csv" (fun oc ->
      output_string oc "buffer,sector_writes,merges,t_ipl_s,t_conv_09_s,t_conv_05_s\n";
      List.iter
        (fun (p : Sweep.buffer_point) ->
          Printf.fprintf oc "%s,%d,%d,%.2f,%.2f,%.2f\n" p.Sweep.label
            p.Sweep.result.Sim.sector_writes p.Sweep.result.Sim.merges p.Sweep.t_ipl
            (List.assoc 0.9 p.Sweep.t_conv_by_alpha)
            (List.assoc 0.5 p.Sweep.t_conv_by_alpha))
        points);
  (match points with
  | p :: _ ->
      let conv = List.assoc 0.5 p.Sweep.t_conv_by_alpha in
      note "IPL advantage at the smallest pool: %.0fx vs alpha=0.5 conventional"
        (conv /. p.Sweep.t_ipl)
  | [] -> ());
  note "paper: IPL an order of magnitude faster than conventional even at alpha=0.5"

(* ------------------------------------------------------------------ *)
(* Table 6: taxonomy                                                   *)

let table6 () =
  section "Table 6: classification of database storage techniques";
  Printf.printf "  %-24s | %-30s | %-30s\n" "" "in-place update" "no in-place update";
  Printf.printf "  %s-+-%s-+-%s\n" (String.make 24 '-') (String.make 30 '-')
    (String.make 30 '-');
  Printf.printf "  %-24s | %-30s | %-30s\n" "mechanical latency" "traditional DBMS"
    "Postgres no-overwrite (disk)";
  Printf.printf "  %-24s | %-30s | %-30s\n" "" "  (disk_sim + baseline replay)" "";
  Printf.printf "  %-24s | %-30s | %-30s\n" "no mechanical latency" "PicoDBMS (EEPROM)"
    "in-page logging (ipl_core)";
  note "this repository implements the bottom-right cell plus the baselines around it"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_baseline_replay study =
  section "Ablation: one TPC-C write stream on four flash designs";
  let trace = trace_1g_20m study in
  let db_pages = Trace.db_pages trace in
  let stats = Trace.stats trace in
  let blocks = (db_pages / 16 * 115 / 100) + 32 in
  let chip_ftl = Chip.create (FConfig.default ~num_blocks:blocks ~materialize:false ()) in
  let ftl = Ftl.Block_ftl.create chip_ftl ~page_size:db_page_size in
  Ftl.Block_ftl.format ftl;
  let t_ftl = Baseline.Replay.run trace (Ftl.Block_ftl.device ftl) in
  let chip_lfs = Chip.create (FConfig.default ~num_blocks:blocks ~materialize:false ()) in
  let lfs = Baseline.Lfs_store.create chip_lfs ~page_size:db_page_size in
  Baseline.Lfs_store.format lfs;
  let t_lfs = Baseline.Replay.run trace (Baseline.Lfs_store.device lfs) in
  let chip_ip = Chip.create (FConfig.default ~num_blocks:blocks ~materialize:false ()) in
  let ip = Baseline.Inplace_store.create chip_ip ~page_size:db_page_size in
  Baseline.Inplace_store.format ip;
  let t_ip = Baseline.Replay.run trace (Baseline.Inplace_store.device ip) in
  let r = Sim.run trace in
  let t_ipl = Cost.t_ipl ~sector_writes:r.Sim.sector_writes ~merges:r.Sim.merges () in
  Printf.printf "  %-34s %10s %10s\n" "design" "time (s)" "erases";
  Printf.printf "  %-34s %10.1f %10d\n" "in-place update on raw flash" t_ip
    (Baseline.Inplace_store.stats ip).Baseline.Inplace_store.erases;
  Printf.printf "  %-34s %10.1f %10d\n" "conventional behind DRAM-FTL SSD" t_ftl
    (Chip.stats chip_ftl).FStats.block_erases;
  Printf.printf "  %-34s %10.1f %10d   (+%d GC page moves)\n" "log-structured page store"
    t_lfs
    (Baseline.Lfs_store.stats lfs).Baseline.Lfs_store.erases
    (Baseline.Lfs_store.stats lfs).Baseline.Lfs_store.gc_page_moves;
  Printf.printf "  %-34s %10.1f %10d\n" "in-page logging (t_IPL)" t_ipl r.Sim.merges;
  note "%d physical page writes replayed onto a %d-page database" stats.Trace.page_writes
    db_pages

let ablation_fill_policy study =
  section "Ablation: in-memory log sector fill policy (byte-accurate vs tau_s record count)";
  let trace = trace_1g_20m study in
  let run policy label =
    let params = { Sim.default_params with Sim.fill_policy = policy } in
    let r = Sim.run ~params trace in
    let t = Cost.t_ipl ~sector_writes:r.Sim.sector_writes ~merges:r.Sim.merges () in
    Printf.printf "  %-26s %10d sector writes %8d merges  t_IPL %8.1f s\n" label
      r.Sim.sector_writes r.Sim.merges t
  in
  run `Bytes "byte-accurate (engine)";
  run (`Count 10) "tau_s = 10 (paper's average)";
  run (`Count 5) "tau_s = 5";
  run (`Count 20) "tau_s = 20"

let ablation_wear () =
  section "Ablation: wear-aware vs naive free-unit allocation (IPL engine)";
  let run wear_aware =
    let chip = Chip.create (FConfig.default ~num_blocks:96 ()) in
    let config =
      {
        Ipl_core.Ipl_config.default with
        Ipl_core.Ipl_config.wear_aware_allocation = wear_aware;
        buffer_pages = 8;
      }
    in
    let engine = Engine.create ~config chip in
    let page = eok (Engine.allocate_page engine) in
    (match Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.make 64 'x') with
    | Ok _ -> ()
    | Error e -> failwith (Engine.error_to_string e));
    for i = 1 to 30_000 do
      match
        Engine.update engine ~tx:Engine.no_txn ~page ~slot:0 (Bytes.of_string (Printf.sprintf "%064d" i))
      with
      | Ok () -> ()
      | Error e -> failwith (Engine.error_to_string e)
    done;
    eok (Engine.checkpoint engine);
    let wear = Chip.erase_counts chip in
    (* Skip the reserved system-log blocks at the front. *)
    let data_wear = Array.to_list (Array.sub wear 8 88) in
    let maxw = List.fold_left max 0 data_wear in
    let minw = List.fold_left min max_int data_wear in
    let total = List.fold_left ( + ) 0 data_wear in
    (* Endurance projection: the device dies when its hottest unit hits
       the 100k-cycle endurance (Section 2.2 of the paper). *)
    let endurance = (FConfig.default ()).FConfig.max_erase_cycles in
    let lifetime_workloads = if maxw = 0 then infinity else float_of_int endurance /. float_of_int maxw in
    Printf.printf
      "  %-12s erases total %6d, per-unit min %4d max %4d (spread %.2fx) -> endurance lasts %.0fx this workload\n"
      (if wear_aware then "wear-aware" else "naive")
      total minw maxw
      (float_of_int maxw /. float_of_int (max 1 minw))
      lifetime_workloads
  in
  run true;
  run false

let ablation_read_amplification () =
  section "Ablation: IPL read amplification vs log fill (the Section 3.1 trade-off)";
  (* Reading a page costs its stored image plus every log sector in its
     erase unit. The page holds one 64-byte record, so its packed image
     fills one sector and its read is one flash page: the log's flash
     pages make the rest. Measure the read cost as the log region fills,
     with the log-record cache off: its write-through entries would serve
     the log sectors from DRAM and hide the trade-off. *)
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config =
    { Ipl_core.Ipl_config.default with Ipl_core.Ipl_config.buffer_pages = 4; log_cache_bytes = 0 }
  in
  let engine = Engine.create ~config chip in
  let page = eok (Engine.allocate_page engine) in
  (match Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.make 64 'r') with
  | Ok _ -> ()
  | Error e -> failwith (Engine.error_to_string e));
  eok (Engine.checkpoint engine);
  let store = Engine.storage engine in
  Printf.printf "  %-18s %14s %16s\n" "log sectors used" "read cost" "vs 1 sector";
  let first_cost = ref 0.0 and image = ref 0 in
  List.iter
    (fun target ->
      (* Fill the unit's log region up to [target] sectors. *)
      let eu = Store.eu_of_page store page in
      let have = Store.used_log_sectors store ~eu in
      for _ = have + 1 to target do
        List.iter
          (fun sector -> Store.flush store [ (page, sector) ])
          (Ipl_core.Log_sector.pack ~capacity:(Chip.config chip).FConfig.sector_size
             [
               {
                 Ipl_core.Log_record.txid = 0;
                 page;
                 op =
                   Ipl_core.Log_record.Update_range
                     { slot = 0; offset = 0; before = Bytes.make 8 'r'; after = Bytes.make 8 'r' };
               };
             ])
      done;
      let eu = Store.eu_of_page store page in
      let used = Store.used_log_sectors store ~eu in
      let before = Chip.elapsed chip in
      image := Storage.Page.image_length (Store.read_page store page);
      let cost = Chip.elapsed chip -. before in
      if !first_cost = 0.0 then first_cost := cost;
      Printf.printf "  %18d %11.2f us %15.1fx\n" used (cost *. 1e6) (cost /. !first_cost))
    [ 0; 4; 8; 16 ];
  note "the page holds one 64-byte record: its stored image is %d of %d bytes," !image
    config.Ipl_core.Ipl_config.page_size;
  note "one sector, so its read is one flash page and the log's pages add the rest";
  note "the paper accepts this read overhead because flash reads are ~2.5x";
  note "cheaper than writes and far cheaper than the avoided erases"

let ablation_group_commit () =
  section "Ablation: group commit (batched durability, beyond the paper)";
  let module Run = Txn.Make (Tpcc.Tpcc_engine_store) in
  let run group =
    (* [Driver.Engine_run.run] by hand: the commit window is set on the
       engine before the load phase commits anything. *)
    let config =
      {
        Ipl_core.Ipl_config.default with
        Ipl_core.Ipl_config.buffer_pages = 256;
      }
    in
    let engine = Engine.create ~config (Chip.create (FConfig.default ~num_blocks:768 ())) in
    Engine.set_group_commit engine group;
    let ctx =
      Run.make_ctx ~rollback_rate:0.01 (Tpcc.Tpcc_engine_store.create engine) ~seed:42
        { Txn.mini_sizing with Txn.customers = 120; items = 500; orders = 60 }
    in
    Run.load ctx;
    eok (Engine.checkpoint engine);
    Run.run ctx ~n:2_000;
    eok (Engine.checkpoint engine);
    let s = Engine.stats engine in
    Printf.printf
      "  group=%-3d %6d log-sector writes, %5d merges, flash time %6.2fs\n" group
      s.Engine.storage.Store.log_sector_writes s.Engine.storage.Store.merges
      s.Engine.flash.FStats.elapsed
  in
  List.iter run [ 1; 10; 50 ];
  note "batching lets several transactions' records share flash log sectors"

let ablation_background_merge () =
  section "Ablation: background merging (compaction off the write path)";
  let run ~compact_every =
    let chip = Chip.create (FConfig.default ~num_blocks:128 ()) in
    let config = { Ipl_core.Ipl_config.default with Ipl_core.Ipl_config.buffer_pages = 8 } in
    let engine = Engine.create ~config chip in
    let pages = Array.init 8 (fun _ -> eok (Engine.allocate_page engine)) in
    Array.iter
      (fun page ->
        match Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.make 32 'x') with
        | Ok _ -> ()
        | Error e -> failwith (Engine.error_to_string e))
      pages;
    eok (Engine.checkpoint engine);
    let worst = ref 0.0 and total0 = ref (Chip.elapsed chip) in
    let rng = Ipl_util.Rng.of_int 31 in
    for i = 1 to 10_000 do
      let page = pages.(Ipl_util.Rng.int rng 8) in
      let before = Chip.elapsed chip in
      (match
         Engine.update engine ~tx:Engine.no_txn ~page ~slot:0 (Bytes.of_string (Printf.sprintf "%032d" i))
       with
      | Ok () -> ()
      | Error e -> failwith (Engine.error_to_string e));
      worst := Float.max !worst (Chip.elapsed chip -. before);
      (* An idle moment every [compact_every] operations. *)
      if compact_every > 0 && i mod compact_every = 0 then
        ignore (eok (Engine.compact engine ~max_merges:2) : int)
    done;
    eok (Engine.checkpoint engine);
    let total = Chip.elapsed chip -. !total0 in
    (!worst, total, (Engine.stats engine).Engine.storage.Store.merges)
  in
  let w0, t0, m0 = run ~compact_every:0 in
  let w1, t1, m1 = run ~compact_every:100 in
  Printf.printf "  %-22s worst op %6.2f ms, total flash %6.2f s, merges %4d\n" "no compaction"
    (w0 *. 1e3) t0 m0;
  Printf.printf "  %-22s worst op %6.2f ms, total flash %6.2f s, merges %4d\n"
    "compact every 100 ops" (w1 *. 1e3) t1 m1;
  note "the merges (a few ms: eight near-empty pages, one sector each) leave the";
  note "update path entirely for a little more flash time: compaction merges only units";
  note "whose log region is exhausted, and its flush of partly filled log sectors";
  note "fills regions a little sooner (a few more merges)"

let ablation_selective_merge_threshold () =
  section "Ablation: selective-merge threshold tau under a long-running transaction";
  List.iter
    (fun tau ->
      let chip = Chip.create (FConfig.default ~num_blocks:96 ()) in
      let config =
        {
          Ipl_core.Ipl_config.default with
          Ipl_core.Ipl_config.selective_merge_threshold = tau;
          buffer_pages = 4;
        }
      in
      let engine = Engine.create ~config chip in
      let page = eok (Engine.allocate_page engine) in
      (match Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.make 16 'v') with
      | Ok _ -> ()
      | Error e -> failwith (Engine.error_to_string e));
      eok (Engine.checkpoint engine);
      let tx = eok (Engine.begin_txn engine) in
      for i = 1 to 2_000 do
        match
          Engine.update engine ~tx ~page ~slot:0 (Bytes.of_string (Printf.sprintf "%016d" i))
        with
        | Ok () -> ()
        | Error e -> failwith (Engine.error_to_string e)
      done;
      eok (Engine.commit engine tx);
      let s = (Engine.stats engine).Engine.storage in
      Printf.printf
        "  tau %4.2f: %5d merges, %5d diversions to overflow, %6d records carried over\n" tau
        s.Store.merges s.Store.overflow_diversions s.Store.records_carried_over)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro () =
  section "Micro-benchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let mk_engine () =
    let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
    Engine.create
      ~config:{ Ipl_core.Ipl_config.default with Ipl_core.Ipl_config.buffer_pages = 16 }
      chip
  in
  let page_bench =
    let p = Storage.Page.create db_page_size in
    let payload = Bytes.make 64 'r' in
    Test.make ~name:"page/insert+delete"
      (Staged.stage (fun () ->
           match Storage.Page.insert p payload with
           | Some slot -> (
               match Storage.Page.delete p slot with
               | Ok () -> ()
               | Error e -> failwith (Storage.Page.error_to_string e))
           | None -> Storage.Page.compact p))
  in
  let record_bench =
    let buf = Buffer.create 256 in
    let r =
      {
        Ipl_core.Log_record.txid = 1;
        page = 42;
        op =
          Ipl_core.Log_record.Update_range
            { slot = 3; offset = 8; before = Bytes.make 8 'a'; after = Bytes.make 8 'b' };
      }
    in
    Test.make ~name:"log_record/encode"
      (Staged.stage (fun () ->
           Buffer.clear buf;
           Ipl_core.Log_record.encode buf r))
  in
  (* Raw-chip microbench: measures the device itself, so it bypasses the
     storage managers and drives the chip directly. *)
  let chip_bench =
    let config = FConfig.default ~num_blocks:8 ~materialize:false () in
    let chip = Chip.create config in
    let sector = Bytes.make config.FConfig.sector_size 's' in
    let sectors_per_block = config.FConfig.block_size / config.FConfig.sector_size in
    let i = ref 0 in
    Test.make ~name:"flash/sector-write (table 1)"
      (Staged.stage (fun () ->
           let s = !i mod sectors_per_block in
           if s = 0 && !i > 0 then Chip.erase_block chip 0;
           Chip.write_sectors chip ~sector:s sector;
           incr i))
    [@lint.allow "flash-call"]
  in
  let engine_bench =
    let engine = mk_engine () in
    let page = eok (Engine.allocate_page engine) in
    (match Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.make 64 'x') with
    | Ok _ -> ()
    | Error e -> failwith (Engine.error_to_string e));
    let i = ref 0 in
    Test.make ~name:"engine/update (tables 4-5)"
      (Staged.stage (fun () ->
           incr i;
           match
             Engine.update engine ~tx:Engine.no_txn ~page ~slot:0
               (Bytes.of_string (Printf.sprintf "%064d" !i))
           with
           | Ok () -> ()
           | Error e -> failwith (Engine.error_to_string e)))
  in
  let btree_bench =
    let engine = mk_engine () in
    let tree = Btree.Bptree.create engine in
    let i = ref 0 in
    Test.make ~name:"btree/set+find"
      (Staged.stage (fun () ->
           incr i;
           let key = !i mod 2000 in
           (match Btree.Bptree.set tree ~tx:Engine.no_txn ~key ~value:!i with
           | Ok () -> ()
           | Error e -> failwith e);
           ignore (Btree.Bptree.find tree key)))
  in
  let sim_bench =
    let b = Trace.builder ~name:"micro" ~db_pages:64 in
    let rng = Ipl_util.Rng.of_int 5 in
    for _ = 1 to 5_000 do
      let page = Ipl_util.Rng.int rng 64 in
      Trace.add_log b ~op:Trace.Update ~page ~length:50;
      if Ipl_util.Rng.chance rng 0.3 then Trace.add_page_write b ~page
    done;
    let trace = Trace.build b in
    Test.make ~name:"simulator/5k-event trace (figs 5-7)"
      (Staged.stage (fun () -> ignore (Sim.run trace)))
  in
  let locality_bench =
    let b = Trace.builder ~name:"micro" ~db_pages:64 in
    let rng = Ipl_util.Rng.of_int 6 in
    for _ = 1 to 5_000 do
      Trace.add_page_write b ~page:(Ipl_util.Rng.int rng 64)
    done;
    let trace = Trace.build b in
    Test.make ~name:"locality/window-scan (fig 4)"
      (Staged.stage (fun () ->
           ignore (Locality.sliding_window_distinct trace ~window:16 `Pages)))
  in
  let tests =
    [ page_bench; record_bench; chip_bench; engine_bench; btree_bench; sim_bench; locality_bench ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> Printf.printf "  %-42s %12.0f ns/op\n" name ns
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)

let run quick skip_micro csv_dir =
  (* Large retained heaps (the 1 GB logical database) behave much better
     with a roomier GC on this machine. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  Printf.printf "In-Page Logging reproduction benchmark%s\n" (if quick then " (--quick)" else "");
  table1 ();
  tables_3_and_2 ~csv_dir;
  let study = generate_study ~quick in
  table4 study;
  figure4 ~csv_dir study;
  table5 study;
  figures_5_and_6 ~csv_dir study;
  figure7 ~csv_dir study;
  table6 ();
  ablation_baseline_replay study;
  ablation_fill_policy study;
  ablation_wear ();
  ablation_read_amplification ();
  ablation_group_commit ();
  ablation_background_merge ();
  ablation_selective_merge_threshold ();
  if not skip_micro then micro ();
  Printf.printf "\nDone.\n"

open Cmdliner

let quick_t =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Scale the TPC-C study down (1 warehouse, small pools) for a fast smoke run \
           instead of the paper's 1 GB configuration.")

let skip_micro_t =
  Arg.(value & flag & info [ "skip-micro" ] ~doc:"Skip the Bechamel micro-benchmarks.")

let csv_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR"
        ~doc:"Also write plot-ready data files for each figure into $(docv).")

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main" ~doc:"Reproduce the paper's tables and figures, with ablations.")
          Term.(
            const run $ quick_t $ skip_micro_t $ csv_dir_t)))

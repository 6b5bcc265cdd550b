(* One measured round: set-up, a timed window of closed-loop
   transactions, then a crash and restart. Layer counters are read from
   the layers' public stats records at both ends of the window and
   diffed; nothing here is timed. *)

module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Dev = Device.Flash_device
module FConfig = Flash_sim.Flash_config
module Json = Ipl_util.Json

(* Sizing overrides set from the command line (the sensitivity
   self-check); [None] keeps the workload's own choice. *)
type overrides = {
  log_cache_bytes : int option;
  group_window : int option;
  geometry : (int * int) option;
}

let config o ~buffer_pages ~channels ~ways =
  let channels, ways = Option.value ~default:(channels, ways) o.geometry in
  let c = { Config.default with Config.recovery_enabled = true; buffer_pages; channels; ways } in
  match o.log_cache_bytes with Some b -> { c with Config.log_cache_bytes = b } | None -> c

let device (c : Config.t) ~num_blocks =
  Dev.create ~queue_depth:c.Config.queue_depth ~channels:c.Config.channels ~ways:c.Config.ways
    (FConfig.default ~num_blocks ())

let classes = [ ("foreground", Dev.Foreground); ("log_flush", Dev.Log_flush); ("merge_io", Dev.Merge_io) ]

(* A class latency histogram as [(bucket lower edge in seconds, count)]
   plus its observed range. *)
type hist = { buckets : (float * int) list; lo : float; hi : float }

let hist dev cls =
  let j = Obs.Metrics.Latency.to_json (Dev.class_latency dev cls) in
  let num k = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float) in
  let buckets =
    match Option.bind (Json.member "buckets" j) Json.to_list with
    | None -> []
    | Some l ->
        List.filter_map
          (fun b ->
            match Json.to_list b with
            | Some [ lo; n ] -> (
                match (Json.to_int lo, Json.to_int n) with
                | Some lo, Some n -> Some (float_of_int lo *. 1e-9, n)
                | _ -> None)
            | _ -> None)
          l
  in
  { buckets; lo = num "min_s"; hi = num "max_s" }

type snap = {
  wall : float;
  sim : float;
  st : Engine.combined_stats;
  mvcc : Ipl_txn.Mvcc.stats option;
  busy : float array;
  qmax : int;
  hists : hist list;
  gc : Gc.stat;
}

let snap ?mvcc engine =
  let dev = Engine.device engine in
  let chans = Dev.channel_report dev in
  {
    wall = Probe.now_s ();
    sim = Engine.elapsed engine;
    st = Engine.stats engine;
    mvcc;
    busy = Array.of_list (List.map (fun (r : Dev.channel_report) -> r.Dev.busy_s) chans);
    qmax = List.fold_left (fun m (r : Dev.channel_report) -> max m r.Dev.max_queue_depth) 0 chans;
    hists = List.map (fun (_, c) -> hist dev c) classes;
    gc = Gc.quick_stat ();
  }

type recovery = {
  restart_sim_s : float;
  first_txn_sim_s : float;
  ttft_s : float;
  log_sectors_read : int;
  restart_host_s : float;
  repair_pending : int;
  live_sectors : int;
      (* after restart, which erases the blocks merges left for reclamation *)
}

type t = {
  setup_s : float;
  probe : Probe.t;
  attempted : int;
  committed : int;
  conflict_aborts : int;
  latencies : float array;  (* begin -> durable commit, device seconds *)
  bytes_written : int;  (* user payload bytes of committed writes *)
  bytes_read : int;  (* record bytes returned to clients *)
  live_user_bytes : int;
  before : snap;
  after : snap;
  recovery : recovery;
  pages_differing : int;  (* pages whose content changed across the crash *)
  digest : int;  (* logical content after restart: equal whatever the geometry *)
  heap_top_words : int;
  failures : string list;
}

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Engine.error_to_string e))

(* Crash after the last acknowledged commit: the engine is dropped
   without a checkpoint and the database is re-opened from the device.
   [first_txn] runs the first post-restart transaction on the new
   engine; the time to its durable commit is the time to first
   transaction. *)
let crash_and_restart ~config dev ~first_txn =
  let d0 = Dev.elapsed dev in
  let h0 = Probe.now_s () in
  let engine, _aborted = Engine.restart_device ~config dev in
  let restart_host_s = Probe.now_s () -. h0 in
  let d1 = Dev.elapsed dev in
  let log_sectors_read = (Engine.stats engine).Engine.storage.Ipl_core.Ipl_storage.log_sector_reads in
  let repair_pending = Engine.repair_pending engine in
  first_txn engine;
  let d2 = Dev.elapsed dev in
  ( engine,
    {
      restart_sim_s = d1 -. d0;
      first_txn_sim_s = d2 -. d1;
      ttft_s = d2 -. d0;
      log_sectors_read;
      restart_host_s;
      repair_pending;
      live_sectors = Dev.live_sectors dev;
    } )

(* The first post-restart transaction of the record workloads: read one
   record, rewrite its tail, commit; the model follows. *)
let first_record_txn model rng ~payload ~tail ~locs engine =
  let rec pick () =
    let l = locs.(Ipl_util.Rng.int rng (Array.length locs)) in
    if Model.latest model l = Model.absent then pick () else l
  in
  let l = pick () in
  let page = Model.page_of l and slot = Model.slot_of l in
  let tx = ok "begin" (Engine.begin_txn engine) in
  (match ok "read" (Engine.read engine ~page ~slot) with
  | Some b when Model.crc b = Model.latest model l -> ()
  | _ -> failwith "post-restart read does not match the model");
  let data = Model.payload ~size:payload ~tail rng ~page in
  ok "update" (Engine.update engine ~tx ~page ~slot data);
  ok "commit" (Engine.commit engine tx);
  Model.commit model ~watermark:max_int ~payload [ (l, Model.crc data) ]

let model_digest model = Model.fold_live (fun l v d -> d lxor Hashtbl.hash (l, v)) model 0

(* Full scan after restart: every live record of every page must be in
   the model with the same checksum, and every modelled record found. *)
let scan_check model engine ~pages =
  let errors = ref [] and seen = ref 0 in
  Array.iter
    (fun page ->
      ok "scan"
        (Engine.with_page engine page (fun p ->
             Storage.Page.iter
               (fun slot b ->
                 incr seen;
                 if Model.latest model (Model.loc ~page ~slot) <> Model.crc b then
                   errors := Printf.sprintf "page %d slot %d differs from the model" page slot :: !errors)
               p)))
    pages;
  let expected = Model.fold_live (fun _ _ n -> n + 1) model 0 in
  if !seen <> expected then
    errors := Printf.sprintf "scan found %d records, the model has %d" !seen expected :: !errors;
  !errors

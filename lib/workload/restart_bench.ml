(* Availability benchmark: how long after a crash until the engine
   commits its first transaction? A restart reads only the system log and
   leaves each erase unit's in-page log to its first touch (the lazy
   column); the eager column settles every repair with [drain_repairs]
   before the first transaction, so it reads every erase unit's whole log
   first. Both are measured on the simulated
   device clock over bit-identical crashed flash states (the populate run
   is deterministic), and the recovered logical content is
   digest-compared to prove that deferring the repairs changed the read
   schedule, not the data. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Dev = Device.Flash_device
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Json = Ipl_util.Json
module Rng = Ipl_util.Rng

type spec = {
  name : string;
  pages : int;
  transactions : int;
  seed : int;
  num_blocks : int;
}

(* Three database sizes. The update stream round-robins over the pages,
   so every erase unit carries a partially filled log region when the
   run stops — the state a drain-first restart pays to read back. *)
let specs =
  [
    { name = "small"; pages = 30; transactions = 240; seed = 11; num_blocks = 24 };
    { name = "medium"; pages = 90; transactions = 900; seed = 11; num_blocks = 40 };
    { name = "large"; pages = 180; transactions = 2400; seed = 11; num_blocks = 64 };
  ]

type point = {
  name : string;
  pages : int;
  transactions : int;
  eager_s : float;
  lazy_s : float;
  eager_restart_log_reads : int;
  lazy_restart_log_reads : int;
  repair_pending : int;
  warm_entries : int;
  digest_match : bool;
}

let payload = 64

let config = { Config.default with Config.buffer_pages = 32 }

let ok = function
  | Ok v -> v
  | Error e -> failwith ("Restart_bench: engine error: " ^ Engine.error_to_string e)

(* The sweep runs on fault-free chips; a device fault here (typed by the
   result API, or raised by engine construction and restart) means the
   fixture is broken, so abort as a plain failure instead of leaking a
   device exception to the caller. *)
let fatal f =
  try f () with
  | ( Chip.Read_error _ | Chip.Program_error _ | Chip.Erase_error _
    | Resilience.Bbm.Degraded | Resilience.Bbm.Uncorrectable _ ) as e ->
      failwith ("Restart_bench: device fault: " ^ Printexc.to_string e)

(* Deterministic pre-crash history: seed one record per page, then a
   stream of small update transactions round-robining over the pages.
   The run simply stops after the last commit — no checkpoint call, no
   quiesce — leaving the flash state a crash would leave. *)
let populate spec chip =
  let engine = Engine.create ~config chip in
  let rng = Rng.of_int spec.seed in
  let fresh () = Bytes.of_string (Rng.alpha_string rng ~min:payload ~max:payload) in
  let pages = Array.init spec.pages (fun _ -> ok (Engine.allocate_page engine)) in
  let tx = ok (Engine.begin_txn engine) in
  Array.iter (fun p -> ignore (ok (Engine.insert engine ~tx ~page:p (fresh ())) : int)) pages;
  ok (Engine.commit engine tx);
  for i = 0 to spec.transactions - 1 do
    let tx = ok (Engine.begin_txn engine) in
    let p = pages.(i mod spec.pages) in
    ok (Engine.update engine ~tx ~page:p ~slot:0 (fresh ()));
    ok (Engine.commit engine tx)
  done;
  pages

(* The availability probe: one ordinary transaction — read a record,
   update it, commit. Time-to-first-transaction is the simulated-clock
   span from just before [Engine.restart] to this commit's barrier. *)
let first_txn engine page =
  let tx = ok (Engine.begin_txn engine) in
  (match ok (Engine.read engine ~page ~slot:0) with
  | Some _ -> ()
  | None -> failwith "Restart_bench: seeded record missing");
  ok (Engine.update engine ~tx ~page ~slot:0 (Bytes.make payload 'z'));
  ok (Engine.commit engine tx)

(* Logical digest over every page's slot-0 record — CRC-32 folded in page
   order. Equal digests across the eager and lazy engines mean identical
   recovered content. *)
let digest engine pages =
  Array.fold_left
    (fun acc page ->
      match ok (Engine.read engine ~page ~slot:0) with
      | Some b -> Ipl_util.Checksum.crc32 ~init:acc b ~pos:0 ~len:(Bytes.length b)
      | None -> Ipl_util.Checksum.crc32 ~init:acc (Bytes.of_string "\xff") ~pos:0 ~len:1)
    0 pages

let log_reads engine =
  (Engine.stats engine).Engine.storage.Ipl_core.Ipl_storage.log_sector_reads

(* [drain_first] settles every repair the restart filed before the first
   transaction; its log reads then count the drain's as well. *)
let restart_measured spec ~drain_first =
  let chip = Chip.create (FConfig.default ~num_blocks:spec.num_blocks ()) in
  let pages = populate spec chip in
  let t0 = Chip.elapsed chip in
  let engine, _aborted = Engine.restart ~config chip in
  let pending = Engine.repair_pending engine in
  if drain_first then ignore (ok (Engine.drain_repairs engine ~max_eus:max_int) : int);
  let restart_reads = log_reads engine in
  first_txn engine pages.(0);
  let ttft = Dev.elapsed (Engine.device engine) -. t0 in
  (engine, pages, ttft, restart_reads, pending)

let run_point spec =
  let eng_e, pages_e, eager_s, eager_reads, _ = restart_measured spec ~drain_first:true in
  let eng_l, pages_l, lazy_s, lazy_reads, pending =
    restart_measured spec ~drain_first:false
  in
  let n = ok (Engine.drain_repairs eng_l ~max_eus:max_int) in
  ignore (n : int);
  let digest_match = digest eng_e pages_e = digest eng_l pages_l in
  let warm =
    (Engine.stats eng_l).Engine.storage.Ipl_core.Ipl_storage.log_cache_warm_entries
  in
  {
    name = spec.name;
    pages = spec.pages;
    transactions = spec.transactions;
    eager_s;
    lazy_s;
    eager_restart_log_reads = eager_reads;
    lazy_restart_log_reads = lazy_reads;
    repair_pending = pending;
    warm_entries = warm;
    digest_match;
  }

(* Each size point builds its own chips and engines from scratch, so the
   sweep fans across the pool; results come back in spec order either
   way, and every measurement is simulated-clock, so the points are
   identical for any job count. *)
let run ?(jobs = 1) () =
  fatal (fun () ->
      Par.Domain_pool.with_pool ~jobs (fun pool ->
          Array.to_list
            (Par.Domain_pool.parallel_map pool run_point (Array.of_list specs))))

let point_json p =
  Json.Obj
    [
      ("name", Json.String p.name);
      ("pages", Json.Int p.pages);
      ("transactions", Json.Int p.transactions);
      ("eager_s", Json.Float p.eager_s);
      ("lazy_s", Json.Float p.lazy_s);
      ("eager_restart_log_reads", Json.Int p.eager_restart_log_reads);
      ("lazy_restart_log_reads", Json.Int p.lazy_restart_log_reads);
      ("repair_pending_after_restart", Json.Int p.repair_pending);
      ("warm_entries_after_drain", Json.Int p.warm_entries);
      ("digest_match", Json.Bool p.digest_match);
    ]

let to_json points =
  let last = List.nth points (List.length points - 1) in
  Json.Obj
    [
      ("specs", Json.List (List.map point_json points));
      ( "time_to_first_txn",
        Json.Obj
          [ ("eager_s", Json.Float last.eager_s); ("lazy_s", Json.Float last.lazy_s) ] );
    ]

let pp ppf points =
  Format.fprintf ppf "@[<v>restart availability (simulated time to first transaction):@,";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "%-6s %4d pages %5d txns: eager %.6fs (%d log reads) | lazy %.6fs (%d log \
         reads, %d units deferred, %d re-warmed) %s@,"
        p.name p.pages p.transactions p.eager_s p.eager_restart_log_reads p.lazy_s
        p.lazy_restart_log_reads p.repair_pending p.warm_entries
        (if p.digest_match then "[digests equal]" else "[DIGEST MISMATCH]"))
    points;
  Format.fprintf ppf "@]"

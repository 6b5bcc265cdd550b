(* Availability benchmark: how long after a crash until the engine
   commits its first transaction? A restart reads only the system log
   and owes nothing afterwards: each erase unit's in-page log is read
   when an access needs it. Each size point crashes one deterministic
   update stream, restarts once and runs one transaction, on the
   simulated device clock. It reports the span, the in-page log sectors
   read before that transaction (the restart reads none), and whether
   the recovered content equals what the stream committed. *)

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
   run stops. *)
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
  first_txn_s : float;
  log_reads_before_first_txn : int;
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
   quiesce — leaving the flash state a crash would leave. Every commit
   is durable on return, so the returned values, one per page, are the
   committed content. *)
let populate spec chip =
  let engine = Engine.create ~config chip in
  let rng = Rng.of_int spec.seed in
  let fresh () = Bytes.of_string (Rng.alpha_string rng ~min:payload ~max:payload) in
  let pages = Array.init spec.pages (fun _ -> ok (Engine.allocate_page engine)) in
  let values = Array.map (fun _ -> fresh ()) pages in
  let tx = ok (Engine.begin_txn engine) in
  Array.iteri (fun i p -> ignore (ok (Engine.insert engine ~tx ~page:p values.(i)) : int)) pages;
  ok (Engine.commit engine tx);
  for i = 0 to spec.transactions - 1 do
    let tx = ok (Engine.begin_txn engine) in
    let k = i mod spec.pages in
    values.(k) <- fresh ();
    ok (Engine.update engine ~tx ~page:pages.(k) ~slot:0 values.(k));
    ok (Engine.commit engine tx)
  done;
  (pages, values)

let first_value = Bytes.make payload 'z'

(* The availability probe: one ordinary transaction — read a record,
   update it, commit. Time-to-first-transaction is the simulated-clock
   span from just before [Engine.restart] to this commit's barrier. *)
let first_txn engine page =
  let tx = ok (Engine.begin_txn engine) in
  (match ok (Engine.read engine ~page ~slot:0) with
  | Some _ -> ()
  | None -> failwith "Restart_bench: seeded record missing");
  ok (Engine.update engine ~tx ~page ~slot:0 first_value);
  ok (Engine.commit engine tx)

let run_point spec =
  let chip = Chip.create (FConfig.default ~num_blocks:spec.num_blocks ()) in
  let pages, values = populate spec chip in
  let t0 = Chip.elapsed chip in
  let engine, _aborted = Engine.restart ~config chip in
  let log_reads = (Engine.stats engine).Engine.storage.Ipl_core.Ipl_storage.log_sector_reads in
  first_txn engine pages.(0);
  let first_txn_s = Dev.elapsed (Engine.device engine) -. t0 in
  values.(0) <- first_value;
  let recovered = Array.map (fun page -> ok (Engine.read engine ~page ~slot:0)) pages in
  {
    name = spec.name;
    pages = spec.pages;
    transactions = spec.transactions;
    first_txn_s;
    log_reads_before_first_txn = log_reads;
    digest_match = recovered = Array.map Option.some values;
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
      ("first_txn_s", Json.Float p.first_txn_s);
      ("log_reads_before_first_txn", Json.Int p.log_reads_before_first_txn);
      ("digest_match", Json.Bool p.digest_match);
    ]

let to_json points = Json.Obj [ ("specs", Json.List (List.map point_json points)) ]

let pp ppf points =
  Format.fprintf ppf "@[<v>restart availability (simulated time to first transaction):@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-6s %4d pages %5d txns: %.6fs, %d log reads before it %s@," p.name
        p.pages p.transactions p.first_txn_s p.log_reads_before_first_txn
        (if p.digest_match then "[content equals committed]" else "[CONTENT MISMATCH]"))
    points;
  Format.fprintf ppf "@]"

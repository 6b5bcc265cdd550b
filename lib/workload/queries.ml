module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config

type query = Q1 | Q2 | Q3 | Q4 | Q5 | Q6

let all = [ Q1; Q2; Q3; Q4; Q5; Q6 ]

let name = function
  | Q1 -> "Q1 (sequential read)"
  | Q2 -> "Q2 (random 16-page chunks)"
  | Q3 -> "Q3 (stride-16 read)"
  | Q4 -> "Q4 (sequential update)"
  | Q5 -> "Q5 (stride-16 update)"
  | Q6 -> "Q6 (stride-128 update)"

let is_write = function Q1 | Q2 | Q3 -> false | Q4 | Q5 | Q6 -> true

let table_pages = 64_000
let page_size = Ipl_core.Ipl_config.default.Ipl_core.Ipl_config.page_size

(* Stride pattern: 0, s, 2s, ..., then 1, s+1, ... — every page once. *)
let stride_pattern s =
  Seq.concat
    (Seq.map
       (fun start ->
         Seq.map (fun i -> ((i * s) + start, 1)) (Seq.init (table_pages / s) Fun.id))
       (Seq.init s Fun.id))

let pattern ?(seed = 7) q =
  match q with
  | Q1 | Q4 -> Seq.init table_pages (fun p -> (p, 1))
  | Q2 ->
      let chunks = Array.init (table_pages / 16) (fun i -> i * 16) in
      Ipl_util.Rng.shuffle (Ipl_util.Rng.of_int seed) chunks;
      Seq.map (fun first -> (first, 16)) (Array.to_seq chunks)
  | Q3 | Q5 -> stride_pattern 16
  | Q6 -> stride_pattern 128

type measurement = {
  query : query;
  elapsed : float;
  erases : int;
  segment_evictions : int;
}

let run ?seed q (device : Ftl.Device.t) ~erases ~segment_evictions =
  Seq.iter
    (fun (first, count) ->
      for p = first to first + count - 1 do
        if is_write q then device.Ftl.Device.write_page p else device.Ftl.Device.read_page p
      done)
    (pattern ?seed q);
  device.Ftl.Device.flush ();
  { query = q; elapsed = device.Ftl.Device.elapsed (); erases = erases (); segment_evictions = segment_evictions () }

let run_on_disk ?config q =
  let disk = Disk_sim.Disk.create ?config () in
  let device = Ftl.Device.of_disk disk ~page_size ~num_pages:table_pages in
  run q device ~erases:(fun () -> 0) ~segment_evictions:(fun () -> 0)

(* A chip fault during a whole-table sweep is fatal to the measurement,
   not recoverable: surface it as a plain failure rather than leaking a
   device exception to the caller. *)
let fatal_faults f =
  try f () with
  | (Chip.Read_error _ | Chip.Program_error _ | Chip.Erase_error _) as e ->
      failwith ("Queries: device fault during sweep: " ^ Printexc.to_string e)

let run_on_flash ?config q =
  fatal_faults (fun () ->
      (* 4 000 blocks hold the table; leave spares for the FTL. *)
      let base = FConfig.default ~materialize:false () in
      let blocks = (table_pages * page_size / base.FConfig.block_size) + 16 in
      let chip = Chip.create { base with FConfig.num_blocks = blocks } in
      let ftl = Ftl.Block_ftl.create ?config chip ~page_size in
      Ftl.Block_ftl.format ftl;
      run q (Ftl.Block_ftl.device ftl)
        ~erases:(fun () -> (Chip.stats chip).Flash_sim.Flash_stats.block_erases)
        ~segment_evictions:(fun () ->
          (Ftl.Block_ftl.stats ftl).Ftl.Block_ftl.segment_evictions))

let table3 ?disk ?flash () =
  List.map (fun q -> (q, run_on_disk ?config:disk q, run_on_flash ?config:flash q)) all

let random_to_sequential_ratios results kind medium =
  let pick q =
    let _, d, f = List.find (fun (q', _, _) -> q' = q) results in
    match medium with `Disk -> d.elapsed | `Flash -> f.elapsed
  in
  let base, randoms =
    match kind with
    | `Read -> (pick Q1, [ pick Q2; pick Q3 ])
    | `Write -> (pick Q4, [ pick Q5; pick Q6 ])
  in
  let ratios = List.map (fun t -> t /. base) randoms in
  (List.fold_left Float.min (List.hd ratios) ratios,
   List.fold_left Float.max (List.hd ratios) ratios)

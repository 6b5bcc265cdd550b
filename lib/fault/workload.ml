module Engine = Ipl_core.Ipl_engine
module Session = Ipl_txn.Session
module Rng = Ipl_util.Rng

type spec = {
  seed : int;
  transactions : int;
  pages : int;
  slots_per_page : int;
  payload : int;
  abort_fraction : float;
}

let default =
  { seed = 7; transactions = 60; pages = 6; slots_per_page = 8; payload = 48; abort_fraction = 0.15 }

(* Upper bound on the slot numbers a run can produce: every insert either
   reuses a freed slot or appends one. The oracle sweeps this range. *)
let max_slots spec = spec.slots_per_page + (spec.transactions * 4)

let bytes_of rng len = Bytes.of_string (Rng.alpha_string rng ~min:len ~max:len)

(* The crash campaigns drive the typed engine API; only
   [Flash_chip.Power_loss] is supposed to unwind through here, so any
   typed error outside the paths that expect one is a harness bug. *)
let ok ctx = function
  | Ok v -> v
  | Error e -> failwith ("Workload." ^ ctx ^ ": " ^ Engine.error_to_string e)

(* [record] mirrors each loaded record into the campaign's oracle as
   already durable ([Oracle.seed]). *)
let setup engine record spec =
  let pages = Array.init spec.pages (fun _ -> ok "setup" (Engine.allocate_page engine)) in
  let rng = Rng.of_int (spec.seed lxor 0x5eed) in
  let tx = ok "setup" (Engine.begin_txn engine) in
  Array.iter
    (fun p ->
      for _ = 1 to spec.slots_per_page do
        let data = bytes_of rng spec.payload in
        record ~page:p ~slot:(ok "setup" (Engine.insert engine ~tx ~page:p data)) data
      done)
    pages;
  ok "setup" (Engine.commit engine tx);
  ok "setup" (Engine.checkpoint engine);
  pages

(* One OLTP-ish mix, driven purely by the seed: short transactions of 1-4
   record operations (55% update / 30% insert / 15% delete), 15% of them
   aborted. Determinism matters: the golden run and every crash re-run
   draw the same stream, so operation index N is the same flash
   operation in each.

   One record operation of the mix. [size] gives an update's usual
   length, or [None] when there is no record to update: then nothing
   more is drawn and the operation is skipped. *)
let draw_op rng spec ~pages ~size =
  let page = pages.(Rng.int rng (Array.length pages)) in
  let slot = Rng.int rng (spec.slots_per_page * 2) in
  let r = Rng.float rng 1.0 in
  if r < 0.55 then
    Option.map
      (fun len ->
        (* Mostly equal-length (logged as byte-range deltas); a quarter
           change size to exercise the full-image / delete+insert logging
           paths. *)
        let len = if Rng.chance rng 0.25 then 1 + Rng.int rng (2 * spec.payload) else len in
        Session.Update { page; slot; data = bytes_of rng len })
      (size ~page ~slot)
  else if r < 0.85 then Some (Session.Insert { page; data = bytes_of rng spec.payload })
  else Some (Session.Delete { page; slot })

(* The mix pre-drawn for MVCC sessions: with no single current view to
   consult, update lengths come from the payload instead of the live
   record. *)
let plans spec ~pages =
  let rng = Rng.of_int spec.seed in
  Array.init spec.transactions (fun _ ->
      let nops = 1 + Rng.int rng 4 in
      let ops =
        List.init nops (fun _ ->
            draw_op rng spec ~pages ~size:(fun ~page:_ ~slot:_ -> Some spec.payload))
      in
      let aborting = Rng.chance rng spec.abort_fraction in
      { Session.ops = List.filter_map Fun.id ops; aborting; reads = [] })

(* The serial run goes through the exception-free engine entry points,
   sizing each update from the record it replaces, and reports its
   history to the oracle with the durable watermark at every returned
   commit. A transaction that hits a device error ([Device_degraded],
   [Read_failed]) is aborted — its effects must vanish, and the oracle
   sees that — and a degraded device ends the run: the remaining
   transactions could only be refused. *)
type resilient_outcome = {
  committed : int;
  aborted : int;
  degraded_at : int option;
  read_failures : int;
}

exception Tx_failed of Engine.error

let run_resilient engine oracle spec ~pages =
  let rng = Rng.of_int spec.seed in
  let observe = Oracle.observe oracle in
  let committed = ref 0 and aborted = ref 0 in
  let degraded_at = ref None and read_failures = ref 0 in
  let write ~txn ~tx op =
    let r =
      match op with
      | Session.Update { page; slot; data } ->
          Result.map (fun () -> (page, slot, Some data)) (Engine.update engine ~tx ~page ~slot data)
      | Session.Insert { page; data } ->
          Result.map (fun slot -> (page, slot, Some data)) (Engine.insert engine ~tx ~page data)
      | Session.Delete { page; slot } ->
          Result.map (fun () -> (page, slot, None)) (Engine.delete engine ~tx ~page ~slot)
    in
    match r with
    | Ok (page, slot, data) -> observe (Session.Write { txn; page; slot; data })
    | Error ((Engine.Device_degraded | Engine.Read_failed) as e) -> raise (Tx_failed e)
    | Error _ -> ()
  in
  (try
     for txn = 1 to spec.transactions do
       let tx =
         match Engine.begin_txn engine with
         | Ok tx -> tx
         | Error Engine.Device_degraded ->
             degraded_at := Some txn;
             raise Exit
         | Error e -> failwith ("Workload.run_resilient: " ^ Engine.error_to_string e)
       in
       observe (Session.Begin txn);
       let size ~page ~slot = Option.map Bytes.length (Oracle.current oracle ~txn ~page ~slot) in
       try
         for _ = 1 to 1 + Rng.int rng 4 do
           Option.iter (write ~txn ~tx) (draw_op rng spec ~pages ~size)
         done;
         if Rng.chance rng spec.abort_fraction then begin
           (match Engine.abort engine tx with Ok () | Error _ -> ());
           observe (Session.Aborted txn);
           incr aborted
         end
         else begin
           observe (Session.Commit_start txn);
           match Engine.commit engine tx with
           | Ok () ->
               incr committed;
               observe (Session.Committed txn);
               observe (Session.Durable !committed)
           | Error e -> raise (Tx_failed e)
         end
       with Tx_failed e ->
         (* The abort itself may trip over the same dying device; its
            record-level effect (dropping the transaction) is what the
            oracle models either way. *)
         (match Engine.abort engine tx with Ok () | Error _ -> ());
         observe (Session.Aborted txn);
         incr aborted;
         (match e with
         | Engine.Device_degraded ->
             degraded_at := Some txn;
             raise Exit
         | _ -> incr read_failures)
     done
   with Exit -> ());
  {
    committed = !committed;
    aborted = !aborted;
    degraded_at = !degraded_at;
    read_failures = !read_failures;
  }

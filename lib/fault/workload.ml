module Engine = Ipl_core.Ipl_engine
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
   already durable: [Oracle.seed] or [Concurrent_oracle.seed]. *)
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
   aborted. Every successful engine call is mirrored into the oracle, so
   the model tracks the engine exactly up to the crash, wherever it
   falls. Determinism matters: the golden run and every crash re-run draw
   the same stream, so operation index N is the same flash operation in
   each.

   The mix goes through the exception-free engine entry points. A
   transaction that hits a device error ([Device_degraded],
   [Read_failed]) is aborted — its effects must vanish, and the oracle
   mirrors that — and a degraded device ends the run: the remaining
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
  let committed = ref 0 and aborted = ref 0 in
  let degraded_at = ref None and read_failures = ref 0 in
  (try
     for i = 1 to spec.transactions do
       let tx =
         match Engine.begin_txn engine with
         | Ok tx -> tx
         | Error Engine.Device_degraded ->
             degraded_at := Some i;
             raise Exit
         | Error e -> failwith ("Workload.run_resilient: " ^ Engine.error_to_string e)
       in
       Oracle.begin_txn oracle;
       try
         let nops = 1 + Rng.int rng 4 in
         for _ = 1 to nops do
           let page = pages.(Rng.int rng (Array.length pages)) in
           let slot = Rng.int rng (spec.slots_per_page * 2) in
           let r = Rng.float rng 1.0 in
           if r < 0.55 then (
             match Oracle.current oracle ~page ~slot with
             | None -> () (* nothing there to update *)
             | Some old ->
                 (* Mostly equal-length (logged as byte-range deltas); a
                    quarter change size to exercise the full-image /
                    delete+insert logging paths. *)
                 let len =
                   if Rng.chance rng 0.25 then 1 + Rng.int rng (2 * spec.payload)
                   else Bytes.length old
                 in
                 let data = bytes_of rng len in
                 (match Engine.update engine ~tx ~page ~slot data with
                 | Ok () -> Oracle.note oracle ~page ~slot (Some data)
                 | Error ((Engine.Device_degraded | Engine.Read_failed) as e) ->
                     raise (Tx_failed e)
                 | Error _ -> ()))
           else if r < 0.85 then begin
             let data = bytes_of rng spec.payload in
             match Engine.insert engine ~tx ~page data with
             | Ok slot -> Oracle.note oracle ~page ~slot (Some data)
             | Error ((Engine.Device_degraded | Engine.Read_failed) as e) ->
                 raise (Tx_failed e)
             | Error _ -> ()
           end
           else
             match Engine.delete engine ~tx ~page ~slot with
             | Ok () -> Oracle.note oracle ~page ~slot None
             | Error ((Engine.Device_degraded | Engine.Read_failed) as e) ->
                 raise (Tx_failed e)
             | Error _ -> ()
         done;
         if Rng.chance rng spec.abort_fraction then begin
           (match Engine.abort engine tx with Ok () | Error _ -> ());
           Oracle.abort oracle;
           incr aborted
         end
         else begin
           Oracle.start_commit oracle;
           match Engine.commit engine tx with
           | Ok () ->
               Oracle.end_commit oracle;
               incr committed
           | Error e -> raise (Tx_failed e)
         end
       with Tx_failed e ->
         (* The abort itself may trip over the same dying device; its
            record-level effect (dropping the transaction) is what the
            oracle models either way. *)
         (match Engine.abort engine tx with Ok () | Error _ -> ());
         Oracle.abort oracle;
         incr aborted;
         (match e with
         | Engine.Device_degraded ->
             degraded_at := Some i;
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

(* ------------------------------------------------------------------ *)
(* Concurrent histories: the same mix through MVCC sessions            *)

module Mvcc = Ipl_txn.Mvcc

type concurrent_outcome = { committed_txns : int; aborted_txns : int; conflicts : int }

type cop =
  | CUpdate of int * int * bytes  (* page, slot, data *)
  | CInsert of int * bytes
  | CDelete of int * int

(* The serial mix, pre-drawn into per-transaction plans (the concurrent
   oracle has no single "current" view to consult, so update lengths come
   from the payload instead of the live record) and interleaved
   round-robin over [sessions] MVCC transactions: every rotation advances
   each session by one operation, so the interleaving — conflicts, group
   batches, crash points — is a pure function of the spec. Every
   successful MVCC write is mirrored into the oracle, commits take their
   global order there, and the durable watermark follows
   [Mvcc.flushed_commits] after every barrier. Only
   {!Flash_sim.Flash_chip.Power_loss} is supposed to unwind through
   here. *)
let run_concurrent engine oracle spec ~sessions ~pages =
  let sessions = max 1 sessions in
  let m = Mvcc.create ~group_window:sessions engine in
  let rng = Rng.of_int spec.seed in
  let plans =
    Array.init spec.transactions (fun _ ->
        let nops = 1 + Rng.int rng 4 in
        let ops =
          List.init nops (fun _ ->
              let page = pages.(Rng.int rng (Array.length pages)) in
              let slot = Rng.int rng (spec.slots_per_page * 2) in
              let r = Rng.float rng 1.0 in
              if r < 0.55 then
                let len =
                  if Rng.chance rng 0.25 then 1 + Rng.int rng (2 * spec.payload)
                  else spec.payload
                in
                CUpdate (page, slot, bytes_of rng len)
              else if r < 0.85 then CInsert (page, bytes_of rng spec.payload)
              else CDelete (page, slot))
        in
        (ops, Rng.chance rng spec.abort_fraction))
  in
  let mok ctx = function
    | Ok v -> v
    | Error e -> failwith ("Workload." ^ ctx ^ ": " ^ Mvcc.error_to_string e)
  in
  let committed = ref 0 and aborted = ref 0 in
  let next = Array.init sessions (fun i -> i) in
  let st = Array.make sessions `Idle in
  let settle () = Concurrent_oracle.durable oracle (Mvcc.flushed_commits m) in
  let step i =
    match st.(i) with
    | `Done -> ()
    | `Idle ->
        if next.(i) >= spec.transactions then st.(i) <- `Done
        else begin
          let ops, aborting = plans.(next.(i)) in
          next.(i) <- next.(i) + sessions;
          let tx = mok "run_concurrent" (Mvcc.begin_txn m) in
          Concurrent_oracle.begin_txn oracle ~txn:(Mvcc.txn_id tx);
          st.(i) <- `Run (tx, ops, aborting, false)
        end
    | `Run (tx, op :: rest, aborting, doomed) ->
        let txn = Mvcc.txn_id tx in
        let r =
          match op with
          | CUpdate (page, slot, data) -> (
              match Mvcc.update m tx ~page ~slot data with
              | Ok () ->
                  Concurrent_oracle.note oracle ~txn ~page ~slot (Some data);
                  Ok ()
              | Error _ as e -> e)
          | CInsert (page, data) -> (
              match Mvcc.insert m tx ~page data with
              | Ok slot ->
                  Concurrent_oracle.note oracle ~txn ~page ~slot (Some data);
                  Ok ()
              | Error _ as e -> e)
          | CDelete (page, slot) -> (
              match Mvcc.delete m tx ~page ~slot with
              | Ok () ->
                  Concurrent_oracle.note oracle ~txn ~page ~slot None;
                  Ok ()
              | Error _ as e -> e)
        in
        let doomed =
          match r with
          | Ok () -> doomed
          | Error (Mvcc.Conflict _ | Mvcc.Doomed) -> true
          | Error
              (Mvcc.Engine_error
                 (Engine.Page_full | Engine.No_such_slot | Engine.Record_too_large)) ->
              doomed
          | Error e -> failwith ("Workload.run_concurrent: " ^ Mvcc.error_to_string e)
        in
        (* A doomed transaction cannot commit; skip the rest of its ops. *)
        st.(i) <- `Run (tx, (if doomed then [] else rest), aborting, doomed)
    | `Run (tx, [], aborting, doomed) ->
        let txn = Mvcc.txn_id tx in
        if doomed || aborting then begin
          (match Mvcc.abort m tx with Ok () | Error _ -> ());
          Concurrent_oracle.abort oracle ~txn;
          incr aborted
        end
        else begin
          Concurrent_oracle.start_commit oracle ~txn;
          mok "run_concurrent" (Mvcc.commit m tx);
          Concurrent_oracle.end_commit oracle ~txn;
          settle ();
          incr committed
        end;
        st.(i) <- `Idle
  in
  while Array.exists (fun s -> s <> `Done) st do
    for i = 0 to sessions - 1 do
      step i
    done
  done;
  mok "run_concurrent" (Mvcc.flush m);
  settle ();
  {
    committed_txns = !committed;
    aborted_txns = !aborted;
    conflicts = (Mvcc.stats m).Mvcc.conflicts;
  }

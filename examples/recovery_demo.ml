(* Transactional recovery the IPL way (Section 5 of the paper).

   Run with: dune exec examples/recovery_demo.exe

   The demo walks through the three recovery scenarios:
   1. commit, then crash  -> the change survives (no REDO pass needed:
      the read path applies committed log records on the fly);
   2. abort               -> in-memory rollback, flash records later
      dropped by selective merges;
   3. crash mid-transaction -> the restart writes an abort record and the
      zombie change is never seen again (no UNDO pass either). *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Trx_log = Ipl_core.Trx_log

let ok = function Ok v -> v | Error e -> failwith (Engine.error_to_string e)
let read engine ~page ~slot =
  match ok (Engine.read engine ~page ~slot) with
  | Some b -> Bytes.to_string b
  | None -> "<absent>"

let () =
  let config = { Config.default with Config.buffer_pages = 4 } in
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let engine = Engine.create ~config chip in
  let page = ok (Engine.allocate_page engine) in
  let slot = ok (Engine.insert engine ~tx:Engine.no_txn ~page (Bytes.of_string "balance=100")) in
  ok (Engine.checkpoint engine);
  Printf.printf "Initial state: %s\n\n" (read engine ~page ~slot);

  (* 1. Commit, then crash. *)
  let t1 = ok (Engine.begin_txn engine) in
  ok (Engine.update engine ~tx:t1 ~page ~slot (Bytes.of_string "balance=250"));
  ok (Engine.commit engine t1);
  Printf.printf "T%d committed an update to balance=250.\n" (Engine.txn_id t1);
  Printf.printf "CRASH (no checkpoint since the commit)...\n";
  let engine, _ = Engine.restart ~config chip in
  Printf.printf "after restart: %s   <- commit-time log forcing was enough\n\n"
    (read engine ~page ~slot);

  (* 2. Voluntary abort. *)
  let t2 = ok (Engine.begin_txn engine) in
  ok (Engine.update engine ~tx:t2 ~page ~slot (Bytes.of_string "balance=999"));
  Printf.printf "T%d updated balance to 999 (uncommitted): %s\n" (Engine.txn_id t2) (read engine ~page ~slot);
  ok (Engine.abort engine t2);
  Printf.printf "T%d aborted: %s   <- de-applied in memory, no I/O\n\n" (Engine.txn_id t2)
    (read engine ~page ~slot);

  (* 3. Crash mid-transaction, with the zombie's log records already
     forced to flash by buffer pressure. *)
  let t3 = ok (Engine.begin_txn engine) in
  ok (Engine.update engine ~tx:t3 ~page ~slot (Bytes.of_string "balance=666"));
  (* Evict the page so the uncommitted record reaches a flash log sector. *)
  let filler = List.init 6 (fun _ -> ok (Engine.allocate_page engine)) in
  List.iter (fun p -> ignore (ok (Engine.insert engine ~tx:Engine.no_txn ~page:p (Bytes.of_string "x")))) filler;
  Printf.printf "T%d updated balance to 666 and its log record reached flash.\n" (Engine.txn_id t3);
  Printf.printf "CRASH (T%d has no outcome record)...\n" (Engine.txn_id t3);
  let engine, aborted = Engine.restart ~config chip in
  Printf.printf "restart rolled back transactions %s\n"
    (String.concat ", " (List.map string_of_int aborted));
  Printf.printf "T%d status: %s\n" (Engine.txn_id t3)
    (match Engine.txn_status engine (Engine.txn_id t3) with
    | Trx_log.Aborted -> "aborted"
    | Trx_log.Committed -> "committed"
    | Trx_log.Active -> "active");
  Printf.printf "after restart: %s   <- the zombie record is filtered on read\n"
    (read engine ~page ~slot);
  Printf.printf "               and will be physically dropped at the next selective merge.\n";

  (* Show the drop happening. *)
  let slot2 = slot in
  for i = 1 to 400 do
    ok (Engine.update engine ~tx:Engine.no_txn ~page ~slot:slot2
          (Bytes.of_string (Printf.sprintf "balance=%03d" (i mod 1000))))
  done;
  ok (Engine.checkpoint engine);
  let st = (Engine.stats engine).Engine.storage in
  Printf.printf "\nAfter more work: %d merges ran, %d aborted record(s) physically dropped.\n"
    st.Ipl_core.Ipl_storage.merges st.Ipl_core.Ipl_storage.records_dropped_aborted;
  Printf.printf "Final state: %s\n" (read engine ~page ~slot)

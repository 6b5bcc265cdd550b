(* TPC-C on the real IPL engine.

   Run with: dune exec examples/tpcc_demo.exe

   Loads a small TPC-C database (rows in slotted pages, one B+-tree per
   table) on a simulated flash chip, runs the standard transaction mix
   (1% of New-Order transactions roll back), prints what the storage
   layer did, and finally crash-restarts and checks the data is still
   there. *)

module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Store = Ipl_core.Ipl_storage
module Schema = Tpcc.Tpcc_schema
module Txn = Tpcc.Tpcc_txn
module Estore = Tpcc.Tpcc_engine_store
module Record = Storage.Record
module E = Tpcc.Tpcc_driver.Engine_run

let () =
  let sizing = { Txn.mini_sizing with Txn.customers = 150; items = 600; orders = 80 } in
  Printf.printf
    "Loading TPC-C: %d warehouse, %d districts, %d customers/district, %d items...\n%!"
    sizing.Txn.warehouses sizing.Txn.districts sizing.Txn.customers sizing.Txn.items;
  let transactions = 2_000 in
  let run = E.run ~sizing ~chip_blocks:768 ~transactions () in
  let c = run.E.counts in
  Printf.printf "Ran %d transactions: %d new-order, %d payment, %d order-status, %d delivery, %d stock-level (%d rolled back)\n"
    transactions c.Txn.new_order c.Txn.payment c.Txn.order_status c.Txn.delivery
    c.Txn.stock_level c.Txn.rollbacks;

  let engine = run.E.engine in
  let s = Engine.stats engine in
  let st = s.Engine.storage in
  Printf.printf "\nStorage manager activity:\n";
  Printf.printf "  pages allocated        %8d\n" st.Store.pages_allocated;
  Printf.printf "  log sectors written    %8d\n" st.Store.log_sector_writes;
  Printf.printf "  erase-unit merges      %8d\n" st.Store.merges;
  Printf.printf "  overflow diversions    %8d\n" st.Store.overflow_diversions;
  Printf.printf "  aborted records purged %8d\n" st.Store.records_dropped_aborted;
  Printf.printf "  buffer pool: %d hits / %d misses\n" s.Engine.pool.Bufmgr.Buffer_pool.hits
    s.Engine.pool.Bufmgr.Buffer_pool.misses;
  Printf.printf "  flash: %s\n" (Format.asprintf "%a" Flash_sim.Flash_stats.pp s.Engine.flash);

  (* Inspect one row through the index. *)
  let store = run.E.store in
  let key = Schema.customer_key ~w:1 ~d:1 ~c:1 in
  (match Estore.lookup store Schema.Customer ~key with
  | Some row ->
      Printf.printf "\nCustomer (1,1,1): balance %.2f after %d payments\n"
        (Record.get_float row Schema.F.c_balance)
        (Record.get_int row Schema.F.c_payment_cnt)
  | None -> failwith "customer missing");

  (* Crash and restart: the whole database comes back from flash. *)
  Printf.printf "\nCrash-restarting from the device...\n%!";
  let config = Engine.config engine in
  let engine', aborted = Engine.restart_device ~config (Engine.device engine) in
  Printf.printf "  %d in-flight transactions rolled back implicitly\n" (List.length aborted);
  (* Reattach the customer index by replaying the catalog: in this demo we
     simply re-open the raw row through the storage manager instead. *)
  let store' = Engine.storage engine' in
  Printf.printf "  recovered %d pages; customer row still readable: %b\n"
    (Ipl_core.Ipl_storage.num_pages store')
    (match Engine.read engine' ~page:0 ~slot:0 with Ok (Some _) -> true | _ -> false);
  Printf.printf "\nDone.\n"

type result = {
  trace : Reftrace.Trace.t;
  counts : Tpcc_txn.counts;
  db_pages : int;
  transactions : int;
}

let trace_name ~warehouses ~buffer_mb ~users =
  let db = if warehouses >= 10 then Printf.sprintf "%dG" (warehouses / 10) else "100M" in
  Printf.sprintf "%s.%dM.%du" db buffer_mb users

module Layout_txn = Tpcc_txn.Make (Tpcc_layout_store)

let generate_trace ?sizing ?(seed = 42) ~warehouses ~buffer_mb ~users ~transactions () =
  let sizing =
    match sizing with Some s -> s | None -> Tpcc_txn.spec_sizing ~warehouses
  in
  let name = trace_name ~warehouses ~buffer_mb ~users in
  let store =
    Tpcc_layout_store.create ~buffer_bytes:(buffer_mb * 1024 * 1024) ~name ()
  in
  let ctx = Layout_txn.make_ctx store ~seed sizing in
  Layout_txn.load ctx;
  Tpcc_layout_store.begin_tracing store;
  Layout_txn.run ctx ~n:transactions;
  let trace = Tpcc_layout_store.finish store in
  {
    trace;
    counts = Layout_txn.counts ctx;
    db_pages = Tpcc_layout_store.db_pages store;
    transactions;
  }

(* Load once, then generate one trace per buffer-pool size. Each phase
   runs [transactions] more transactions against the same (aging) database
   with a fresh pool — equivalent to the paper re-running Hammerora per
   configuration. *)
let generate_trace_series ?sizing ?(seed = 42) ~warehouses ~users ~transactions ~buffer_mbs ()
    =
  let sizing =
    match sizing with Some s -> s | None -> Tpcc_txn.spec_sizing ~warehouses
  in
  let store =
    Tpcc_layout_store.create
      ~buffer_bytes:(16 * 1024 * 1024)
      ~name:(trace_name ~warehouses ~buffer_mb:0 ~users)
      ()
  in
  let ctx = Layout_txn.make_ctx store ~seed sizing in
  Layout_txn.load ctx;
  List.map
    (fun buffer_mb ->
      Tpcc_layout_store.set_buffer_bytes store (buffer_mb * 1024 * 1024);
      Tpcc_layout_store.begin_tracing store;
      Layout_txn.run ctx ~n:transactions;
      let trace = Tpcc_layout_store.finish store in
      let trace = Reftrace.Trace.rename trace (trace_name ~warehouses ~buffer_mb ~users) in
      (buffer_mb, trace))
    buffer_mbs

module Engine_run = struct
  module Engine_txn = Tpcc_txn.Make (Tpcc_engine_store)

  type t = {
    engine : Ipl_core.Ipl_engine.t;
    store : Tpcc_engine_store.t;
    counts : Tpcc_txn.counts;
  }

  let checkpoint engine =
    match Ipl_core.Ipl_engine.checkpoint engine with
    | Ok () -> ()
    | Error e -> failwith ("Tpcc_driver: " ^ Ipl_core.Ipl_engine.error_to_string e)

  let run ?(sizing = Tpcc_txn.mini_sizing) ?(seed = 42) ?(config = Ipl_core.Ipl_config.default)
      ~chip_blocks ~transactions () =
    let chip =
      Flash_sim.Flash_chip.create (Flash_sim.Flash_config.default ~num_blocks:chip_blocks ())
    in
    let engine = Ipl_core.Ipl_engine.create ~config chip in
    let store = Tpcc_engine_store.create engine in
    let ctx = Engine_txn.make_ctx ~rollback_rate:0.01 store ~seed sizing in
    Engine_txn.load ctx;
    checkpoint engine;
    Engine_txn.run ctx ~n:transactions;
    checkpoint engine;
    { engine; store; counts = Engine_txn.counts ctx }
end

(* Tests for the TPC-C substrate: schema, both store implementations, the
   five transactions, and trace generation. *)

module Schema = Tpcc.Tpcc_schema
module Txn = Tpcc.Tpcc_txn
module Layout = Tpcc.Tpcc_layout_store
module Estore = Tpcc.Tpcc_engine_store
module Driver = Tpcc.Tpcc_driver
module Trace = Reftrace.Trace
module Record = Storage.Record
module Rng = Ipl_util.Rng

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let test_key_packing_unique () =
  (* Keys must be injective across the ranges transactions use. *)
  let seen = Hashtbl.create 1024 in
  let add k =
    if Hashtbl.mem seen k then Alcotest.failf "key collision at %d" k;
    Hashtbl.replace seen k ()
  in
  for w = 1 to 3 do
    for d = 1 to 10 do
      add (Schema.district_key ~w ~d);
      for c = 1 to 30 do
        add (Schema.customer_key ~w ~d ~c)
      done;
      for o = 1 to 20 do
        add (Schema.orders_key ~w ~d ~o);
        for ol = 1 to 15 do
          add (Schema.order_line_key ~w ~d ~o ~ol)
        done
      done
    done
  done

let test_orders_key_roundtrip () =
  let k = Schema.orders_key ~w:7 ~d:3 ~o:123456 in
  Alcotest.(check int) "o extracted" 123456 (Schema.orders_key_o k)

let test_rows_encode_within_log_sector () =
  (* Every row a runtime transaction can insert must produce an insert log
     record that fits a 512-byte flash log sector (payload 508, header 13). *)
  let rng = Rng.of_int 1 in
  let check name row =
    let size = Bytes.length (Record.encode row) in
    Alcotest.(check bool) (Printf.sprintf "%s insertable (%dB)" name size) true (size <= 490)
  in
  for _ = 1 to 50 do
    check "history" (Schema.history_row rng ~w:1 ~d:1 ~c:1 ~amount:42.0);
    check "new_order" (Schema.new_order_row ~w:1 ~d:1 ~o:1);
    check "orders" (Schema.orders_row rng ~w:1 ~d:1 ~o:1 ~c:1 ~ol_cnt:10);
    check "order_line" (Schema.order_line_row rng ~w:1 ~d:1 ~o:1 ~ol:1 ~i:1 ~qty:5);
    (* Bulk-loaded rows are logged too when loading on the real engine. *)
    check "customer" (Schema.customer_row rng ~w:1 ~d:1 ~c:1);
    check "stock" (Schema.stock_row rng ~w:1 ~i:1);
    check "item" (Schema.item_row rng ~i:1);
    check "warehouse" (Schema.warehouse_row rng ~w:1);
    check "district" (Schema.district_row rng ~w:1 ~d:1)
  done

let test_row_field_indexes () =
  let rng = Rng.of_int 2 in
  let d = Schema.district_row rng ~w:1 ~d:3 in
  Alcotest.(check int) "d_next_o_id" (Schema.initial_orders_per_district + 1)
    (Record.get_int d Schema.F.d_next_o_id);
  let c = Schema.customer_row rng ~w:1 ~d:1 ~c:5 in
  let credit = Record.get_string c Schema.F.c_credit in
  Alcotest.(check bool) "credit GC/BC" true (credit = "GC" || credit = "BC");
  Alcotest.(check (float 1e-9)) "balance" (-10.0) (Record.get_float c Schema.F.c_balance);
  let s = Schema.stock_row rng ~w:1 ~i:9 in
  let q = Record.get_int s Schema.F.s_quantity in
  Alcotest.(check bool) "quantity in [10,100]" true (q >= 10 && q <= 100)

(* ------------------------------------------------------------------ *)
(* Layout store                                                        *)

let mk_layout () = Layout.create ~buffer_bytes:(64 * 1024) ~name:"test" ()

let test_layout_crud () =
  let st = mk_layout () in
  let row = Record.[ I 1; S "hello" ] in
  Layout.insert st ~tx:Layout.no_txn Schema.Warehouse ~key:1 row;
  Alcotest.(check bool) "lookup" true (Layout.lookup st Schema.Warehouse ~key:1 = Some row);
  Alcotest.(check bool) "missing" true (Layout.lookup st Schema.Warehouse ~key:2 = None);
  let updated =
    Layout.update st ~tx:Layout.no_txn Schema.Warehouse ~key:1 (fun r -> Record.set r 1 (Record.S "bye"))
  in
  Alcotest.(check bool) "update" true updated;
  Alcotest.(check bool) "updated value" true
    (Layout.lookup st Schema.Warehouse ~key:1 = Some Record.[ I 1; S "bye" ]);
  Alcotest.(check bool) "delete" true (Layout.delete st ~tx:Layout.no_txn Schema.Warehouse ~key:1);
  Alcotest.(check bool) "gone" true (Layout.lookup st Schema.Warehouse ~key:1 = None);
  Alcotest.(check bool) "delete missing" false (Layout.delete st ~tx:Layout.no_txn Schema.Warehouse ~key:1)

let test_layout_tables_disjoint () =
  let st = mk_layout () in
  Layout.insert st ~tx:Layout.no_txn Schema.Warehouse ~key:7 Record.[ I 1 ];
  Layout.insert st ~tx:Layout.no_txn Schema.District ~key:7 Record.[ I 2 ];
  Alcotest.(check bool) "warehouse 7" true
    (Layout.lookup st Schema.Warehouse ~key:7 = Some Record.[ I 1 ]);
  Alcotest.(check bool) "district 7" true
    (Layout.lookup st Schema.District ~key:7 = Some Record.[ I 2 ])

let test_layout_new_order_ordering () =
  let st = mk_layout () in
  List.iter
    (fun o ->
      Layout.insert st ~tx:Layout.no_txn Schema.New_order
        ~key:(Schema.new_order_key ~w:1 ~d:1 ~o)
        (Schema.new_order_row ~w:1 ~d:1 ~o))
    [ 5; 3; 9 ];
  let lo = Schema.new_order_key ~w:1 ~d:1 ~o:0 in
  Alcotest.(check (option int)) "oldest first" (Some (Schema.new_order_key ~w:1 ~d:1 ~o:3))
    (Layout.next_key_ge st Schema.New_order ~key:lo);
  ignore (Layout.delete st ~tx:Layout.no_txn Schema.New_order ~key:(Schema.new_order_key ~w:1 ~d:1 ~o:3));
  Alcotest.(check (option int)) "then next" (Some (Schema.new_order_key ~w:1 ~d:1 ~o:5))
    (Layout.next_key_ge st Schema.New_order ~key:lo)

let test_layout_emits_trace () =
  let st = mk_layout () in
  for k = 1 to 50 do
    Layout.insert st ~tx:Layout.no_txn Schema.Stock ~key:k Record.[ I k; S (String.make 100 's') ]
  done;
  for k = 1 to 50 do
    ignore (Layout.update st ~tx:Layout.no_txn Schema.Stock ~key:k (fun r -> Record.set r 0 (Record.I (-k))))
  done;
  let trace = Layout.finish st in
  let s = Trace.stats trace in
  (* Row inserts log as inserts; index-entry maintenance and row updates
     log as updates. *)
  Alcotest.(check int) "inserts" 50 s.Trace.insert.Trace.occurrences;
  Alcotest.(check int) "updates" 100 s.Trace.update.Trace.occurrences;
  Alcotest.(check bool) "page writes happened (tiny pool)" true (s.Trace.page_writes > 0);
  Alcotest.(check bool) "db pages allocated" true (Trace.db_pages trace > 0);
  (* Row updates: 8-byte delta -> 31 bytes; index entries -> 29 bytes. *)
  Alcotest.(check (float 0.6)) "update length" 30.0 s.Trace.update.Trace.avg_length

let test_layout_abort_undoes () =
  let st = mk_layout () in
  Layout.insert st ~tx:Layout.no_txn Schema.District ~key:7 Record.[ I 7; I 100 ];
  let tx = Layout.begin_txn st in
  ignore (Layout.update st ~tx Schema.District ~key:7 (fun r -> Record.set r 1 (Record.I 101)));
  Layout.insert st ~tx Schema.Orders ~key:55 Record.[ I 55 ];
  ignore (Layout.delete st ~tx Schema.District ~key:7);
  Layout.abort st tx;
  Alcotest.(check bool) "update + delete rolled back" true
    (Layout.lookup st Schema.District ~key:7 = Some Record.[ I 7; I 100 ]);
  Alcotest.(check bool) "insert rolled back" true (Layout.lookup st Schema.Orders ~key:55 = None);
  (* Committed work is untouched by other aborts. *)
  let tx2 = Layout.begin_txn st in
  ignore (Layout.update st ~tx:tx2 Schema.District ~key:7 (fun r -> Record.set r 1 (Record.I 200)));
  Layout.commit st tx2;
  Layout.abort st tx;
  Alcotest.(check bool) "commit stands" true
    (Layout.lookup st Schema.District ~key:7 = Some Record.[ I 7; I 200 ])

let test_layout_by_last_name () =
  let st = mk_layout () in
  let rng = Rng.of_int 3 in
  (* Customers 1..5 of district (1,1): names are last_name (c-1). *)
  for c = 1 to 5 do
    Layout.insert st ~tx:Layout.no_txn Schema.Customer
      ~key:(Schema.customer_key ~w:1 ~d:1 ~c)
      (Schema.customer_row rng ~w:1 ~d:1 ~c)
  done;
  (* All five share no name (numbers 0..4 distinct): each lookup returns
     that single customer. *)
  (match Layout.customer_by_last_name st ~w:1 ~d:1 ~last:(Rng.last_name 2) with
  | Some (c, _) -> Alcotest.(check int) "single match" 3 c
  | None -> Alcotest.fail "expected match");
  Alcotest.(check bool) "no match" true
    (Layout.customer_by_last_name st ~w:1 ~d:1 ~last:(Rng.last_name 900) = None);
  Alcotest.(check bool) "garbage name" true
    (Layout.customer_by_last_name st ~w:1 ~d:1 ~last:"NOTANAME" = None)

(* ------------------------------------------------------------------ *)
(* Transactions on the layout store                                    *)

module L = Txn.Make (Layout)

let loaded_ctx ?(sizing = Txn.mini_sizing) ?(buffer_kb = 256) () =
  let st = Layout.create ~buffer_bytes:(buffer_kb * 1024) ~name:"txn-test" () in
  let ctx = L.make_ctx st ~seed:11 sizing in
  L.load ctx;
  (st, ctx)

let test_load_populates () =
  let st, _ = loaded_ctx () in
  let s = Txn.mini_sizing in
  Alcotest.(check bool) "warehouse" true (Layout.lookup st Schema.Warehouse ~key:1 <> None);
  Alcotest.(check bool) "last customer" true
    (Layout.lookup st Schema.Customer
       ~key:(Schema.customer_key ~w:1 ~d:s.Txn.districts ~c:s.Txn.customers)
    <> None);
  Alcotest.(check bool) "item" true
    (Layout.lookup st Schema.Item ~key:(Schema.item_key ~i:s.Txn.items) <> None);
  Alcotest.(check bool) "stock" true
    (Layout.lookup st Schema.Stock ~key:(Schema.stock_key ~w:1 ~i:1) <> None);
  (* District next order id reflects the initial orders. *)
  match Layout.lookup st Schema.District ~key:(Schema.district_key ~w:1 ~d:1) with
  | Some row ->
      Alcotest.(check int) "d_next_o_id" (s.Txn.orders + 1)
        (Record.get_int row Schema.F.d_next_o_id)
  | None -> Alcotest.fail "district missing"

let test_new_order_advances_district () =
  let st, ctx = loaded_ctx () in
  let before =
    Record.get_int
      (Option.get (Layout.lookup st Schema.District ~key:(Schema.district_key ~w:1 ~d:1)))
      Schema.F.d_next_o_id
  in
  (* Run enough New-Orders that district (1,1) certainly receives one. *)
  for _ = 1 to 40 do
    L.new_order ctx
  done;
  let after =
    Record.get_int
      (Option.get (Layout.lookup st Schema.District ~key:(Schema.district_key ~w:1 ~d:1)))
      Schema.F.d_next_o_id
  in
  Alcotest.(check bool) "district order counter advanced" true (after > before);
  Alcotest.(check bool) "transactions counted" true ((L.counts ctx).Txn.new_order > 0)

let test_payment_moves_money () =
  let st, ctx = loaded_ctx () in
  let ytd () =
    Record.get_float
      (Option.get (Layout.lookup st Schema.Warehouse ~key:1))
      Schema.F.w_ytd
  in
  let before = ytd () in
  for _ = 1 to 10 do
    L.payment ctx
  done;
  Alcotest.(check bool) "warehouse ytd grew" true (ytd () > before);
  Alcotest.(check int) "payments counted" 10 (L.counts ctx).Txn.payment

let test_delivery_consumes_new_orders () =
  let st, ctx = loaded_ctx () in
  let pending () =
    let rec count d acc =
      if d > Txn.mini_sizing.Txn.districts then acc
      else
        let rec go key acc =
          match Layout.next_key_ge st Schema.New_order ~key with
          | Some k when k < Schema.new_order_key ~w:1 ~d ~o:0 + 100_000_000 ->
              go (k + 1) (acc + 1)
          | _ -> acc
        in
        count (d + 1) (go (Schema.new_order_key ~w:1 ~d ~o:0) acc)
    in
    count 1 0
  in
  let before = pending () in
  Alcotest.(check bool) "initial undelivered orders" true (before > 0);
  L.delivery ctx;
  let after = pending () in
  Alcotest.(check bool)
    (Printf.sprintf "delivery consumed (%d -> %d)" before after)
    true (after < before)

let test_read_only_transactions_run () =
  let _, ctx = loaded_ctx () in
  L.order_status ctx;
  L.stock_level ctx;
  Alcotest.(check int) "order status" 1 (L.counts ctx).Txn.order_status;
  Alcotest.(check int) "stock level" 1 (L.counts ctx).Txn.stock_level

let test_mix_distribution () =
  let _, ctx = loaded_ctx ~buffer_kb:1024 () in
  L.run ctx ~n:2000;
  let c = L.counts ctx in
  let total =
    c.Txn.new_order + c.Txn.payment + c.Txn.order_status + c.Txn.delivery + c.Txn.stock_level
    + c.Txn.rollbacks
  in
  Alcotest.(check int) "all transactions accounted" 2000 total;
  let frac n = float_of_int n /. 2000.0 in
  Alcotest.(check bool) "new-order ~45%" true (frac (c.Txn.new_order + c.Txn.rollbacks) > 0.38);
  Alcotest.(check bool) "payment ~43%" true (frac c.Txn.payment > 0.36);
  Alcotest.(check bool) "rollbacks ~1% of new orders" true
    (c.Txn.rollbacks > 0 && frac c.Txn.rollbacks < 0.03)

(* ------------------------------------------------------------------ *)
(* Transactions on the real engine                                     *)

let test_engine_store_end_to_end () =
  let run = Driver.Engine_run.run ~chip_blocks:512 ~transactions:300 () in
  let c = run.Driver.Engine_run.counts in
  Alcotest.(check bool) "new orders committed" true (c.Txn.new_order > 50);
  (* The data survives: warehouse and customers still readable, and the
     indexes are intact. *)
  let store = run.Driver.Engine_run.store in
  Alcotest.(check bool) "warehouse readable" true
    (Estore.lookup store Schema.Warehouse ~key:1 <> None);
  Alcotest.(check int) "customers intact"
    (Txn.mini_sizing.Txn.districts * Txn.mini_sizing.Txn.customers)
    (Estore.row_count store Schema.Customer);
  (* Orders grew beyond the initial load. *)
  let initial_orders = Txn.mini_sizing.Txn.districts * Txn.mini_sizing.Txn.orders in
  Alcotest.(check bool) "orders grew" true
    (Estore.row_count store Schema.Orders > initial_orders);
  (* The engine actually exercised the IPL machinery. *)
  let stats = Ipl_core.Ipl_engine.stats run.Driver.Engine_run.engine in
  Alcotest.(check bool) "log sectors written" true
    (stats.Ipl_core.Ipl_engine.storage.Ipl_core.Ipl_storage.log_sector_writes > 0)

let test_engine_store_by_last_name_middle_match () =
  (* Several customers share a last name: the ceil(n/2) one (by customer
     number) must be returned — exercised against the real B+-tree. *)
  let chip = Flash_sim.Flash_chip.create (Flash_sim.Flash_config.default ~num_blocks:256 ()) in
  let engine = Ipl_core.Ipl_engine.create chip in
  let store = Estore.create engine in
  let rng = Rng.of_int 9 in
  (* Give customers 10, 20, 30 the same last name by crafting rows. *)
  let with_name c name =
    let row = Schema.customer_row rng ~w:1 ~d:1 ~c in
    Record.set row 5 (Record.S name)
  in
  let shared = Rng.last_name 77 in
  List.iter
    (fun c ->
      Estore.insert store ~tx:Estore.no_txn Schema.Customer
        ~key:(Schema.customer_key ~w:1 ~d:1 ~c)
        (with_name c shared))
    [ 10; 20; 30 ];
  (match Estore.customer_by_last_name store ~w:1 ~d:1 ~last:shared with
  | Some (c, row) ->
      Alcotest.(check int) "middle of three" 20 c;
      Alcotest.(check string) "row has the name" shared (Record.get_string row 5)
  | None -> Alcotest.fail "expected match");
  (* Different district: no match. *)
  Alcotest.(check bool) "district isolation" true
    (Estore.customer_by_last_name store ~w:1 ~d:2 ~last:shared = None)

let test_engine_vs_layout_agree () =
  (* The same seed and sizing must leave both stores with the same logical
     district state (they share the transaction logic and RNG stream). *)
  let sizing = Txn.mini_sizing in
  let module E = Txn.Make (Estore) in
  let chip = Flash_sim.Flash_chip.create (Flash_sim.Flash_config.default ~num_blocks:512 ()) in
  let engine = Ipl_core.Ipl_engine.create chip in
  let estore = Estore.create engine in
  let ectx = E.make_ctx estore ~seed:21 sizing in
  E.load ectx;
  E.run ectx ~n:100;
  let lstore = Layout.create ~buffer_bytes:(1024 * 1024) ~name:"agree" () in
  let lctx = L.make_ctx lstore ~seed:21 sizing in
  L.load lctx;
  L.run lctx ~n:100;
  for d = 1 to sizing.Txn.districts do
    let key = Schema.district_key ~w:1 ~d in
    let e = Option.get (Estore.lookup estore Schema.District ~key) in
    let l = Option.get (Layout.lookup lstore Schema.District ~key) in
    Alcotest.(check int)
      (Printf.sprintf "district %d next_o_id agrees" d)
      (Record.get_int e Schema.F.d_next_o_id)
      (Record.get_int l Schema.F.d_next_o_id)
  done

(* ------------------------------------------------------------------ *)
(* Trace generation                                                    *)

let test_generate_trace_shape () =
  let sizing = { Txn.mini_sizing with Txn.customers = 120; items = 400; orders = 60 } in
  let r =
    Driver.generate_trace ~sizing ~warehouses:1 ~buffer_mb:1 ~users:10 ~transactions:1500 ()
  in
  let s = Trace.stats r.Driver.trace in
  Alcotest.(check string) "name" "100M.1M.10u" (Trace.name r.Driver.trace);
  Alcotest.(check bool) "updates dominate" true
    (s.Trace.update.Trace.occurrences > s.Trace.insert.Trace.occurrences);
  Alcotest.(check bool) "few deletes" true
    (s.Trace.delete.Trace.occurrences < s.Trace.update.Trace.occurrences / 10);
  Alcotest.(check bool) "avg length < 80B" true
    (s.Trace.avg_log_length > 20.0 && s.Trace.avg_log_length < 80.0);
  Alcotest.(check bool) "page writes present" true (s.Trace.page_writes > 0);
  Alcotest.(check bool) "db pages recorded" true (Trace.db_pages r.Driver.trace > 0);
  (* Determinism: same seed, same trace. *)
  let r2 =
    Driver.generate_trace ~sizing ~warehouses:1 ~buffer_mb:1 ~users:10 ~transactions:1500 ()
  in
  Alcotest.(check int) "deterministic length" (Trace.length r.Driver.trace)
    (Trace.length r2.Driver.trace)

let test_trace_name () =
  Alcotest.(check string) "1G" "1G.20M.100u" (Driver.trace_name ~warehouses:10 ~buffer_mb:20 ~users:100);
  Alcotest.(check string) "100M" "100M.20M.10u" (Driver.trace_name ~warehouses:1 ~buffer_mb:20 ~users:10)

let () =
  Alcotest.run "tpcc"
    [
      ( "schema",
        [
          Alcotest.test_case "key packing unique" `Quick test_key_packing_unique;
          Alcotest.test_case "orders key roundtrip" `Quick test_orders_key_roundtrip;
          Alcotest.test_case "runtime rows fit log sector" `Quick test_rows_encode_within_log_sector;
          Alcotest.test_case "field indexes" `Quick test_row_field_indexes;
        ] );
      ( "layout store",
        [
          Alcotest.test_case "crud" `Quick test_layout_crud;
          Alcotest.test_case "tables disjoint" `Quick test_layout_tables_disjoint;
          Alcotest.test_case "new-order ordering" `Quick test_layout_new_order_ordering;
          Alcotest.test_case "emits trace" `Quick test_layout_emits_trace;
          Alcotest.test_case "abort undoes" `Quick test_layout_abort_undoes;
          Alcotest.test_case "by last name" `Quick test_layout_by_last_name;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "load populates" `Quick test_load_populates;
          Alcotest.test_case "new-order advances district" `Quick test_new_order_advances_district;
          Alcotest.test_case "payment moves money" `Quick test_payment_moves_money;
          Alcotest.test_case "delivery consumes queue" `Quick test_delivery_consumes_new_orders;
          Alcotest.test_case "read-only txns" `Quick test_read_only_transactions_run;
          Alcotest.test_case "mix distribution" `Quick test_mix_distribution;
        ] );
      ( "engine",
        [
          Alcotest.test_case "end-to-end on IPL engine" `Slow test_engine_store_end_to_end;
          Alcotest.test_case "by-name middle match" `Quick test_engine_store_by_last_name_middle_match;
          Alcotest.test_case "engine vs layout agree" `Slow test_engine_vs_layout_agree;
        ] );
      ( "driver",
        [
          Alcotest.test_case "trace generation" `Slow test_generate_trace_shape;
          Alcotest.test_case "trace naming" `Quick test_trace_name;
        ] );
    ]

(* Tests for the relational layer: heap files and tables over the IPL
   engine, including re-attachment after crash-restart. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Heap = Relation.Heap
module Table = Relation.Table
module Record = Storage.Record

let b = Bytes.of_string
let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let mk ?(blocks = 128) ?(buffer_pages = 32) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config = { Config.default with Config.buffer_pages } in
  (chip, config, Engine.create ~config chip)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_crud () =
  let _, _, e = mk () in
  let h = Heap.create e in
  let r1 = ok (Heap.insert h ~tx:Engine.no_txn (b "one")) in
  let r2 = ok (Heap.insert h ~tx:Engine.no_txn (b "two")) in
  Alcotest.(check (option bytes)) "read 1" (Some (b "one")) (Heap.read h r1);
  Alcotest.(check (option bytes)) "read 2" (Some (b "two")) (Heap.read h r2);
  ok (Heap.update h ~tx:Engine.no_txn r1 (b "ONE"));
  Alcotest.(check (option bytes)) "updated" (Some (b "ONE")) (Heap.read h r1);
  ok (Heap.delete h ~tx:Engine.no_txn r2);
  Alcotest.(check (option bytes)) "deleted" None (Heap.read h r2);
  Alcotest.(check int) "count" 1 (Heap.record_count h)

let test_heap_spills_to_new_pages () =
  let _, _, e = mk () in
  let h = Heap.create e in
  (* ~400-byte records: an 8 KB page takes ~20; 100 records need >= 5 pages. *)
  for i = 1 to 100 do
    ignore (ok (Heap.insert h ~tx:Engine.no_txn (Bytes.make 400 (Char.chr (65 + (i mod 26))))))
  done;
  Alcotest.(check bool) "several member pages" true (Heap.page_count h >= 5);
  Alcotest.(check int) "all live" 100 (Heap.record_count h)

let test_heap_iter_order_and_fold () =
  let _, _, e = mk () in
  let h = Heap.create e in
  let rids = List.init 50 (fun i -> ok (Heap.insert h ~tx:Engine.no_txn (b (Printf.sprintf "%03d" i)))) in
  ignore rids;
  let seen = ref [] in
  Heap.iter h (fun _ data -> seen := Bytes.to_string data :: !seen);
  Alcotest.(check int) "all seen" 50 (List.length !seen);
  let total = Heap.fold h ~init:0 ~f:(fun acc _ data -> acc + int_of_string (Bytes.to_string data)) in
  Alcotest.(check int) "fold" (49 * 50 / 2) total

let test_heap_attach_after_restart () =
  let chip, config, e = mk () in
  let h = Heap.create e in
  let rids =
    List.init 120 (fun i -> (i, ok (Heap.insert h ~tx:Engine.no_txn (b (Printf.sprintf "row-%04d" i)))))
  in
  Engine.Unsafe.checkpoint e;
  let header = Heap.header h in
  let e', _ = Engine.restart ~config chip in
  let h' = Heap.attach e' ~header in
  Alcotest.(check int) "pages recovered" (Heap.page_count h) (Heap.page_count h');
  List.iter
    (fun (i, rid) ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "row %d" i)
        (Some (b (Printf.sprintf "row-%04d" i)))
        (Heap.read h' rid))
    rids;
  (* And it keeps working: the fill page is recovered. *)
  let rid = ok (Heap.insert h' ~tx:Engine.no_txn (b "post-restart")) in
  Alcotest.(check (option bytes)) "new insert" (Some (b "post-restart")) (Heap.read h' rid)

(* A transaction that grows the heap registers the new member page in a
   directory page under [no_txn]. Its commit must make that directory
   entry durable too: after a crash-restart with no checkpoint, every
   committed row is reachable from the directory head. *)
let test_heap_commit_durable_directory () =
  let chip, config, e = mk () in
  let h = Heap.create e in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.txn (Engine.Unsafe.begin_txn e) in
  let rows = ref [] in
  while Heap.page_count h < 2 do
    let row = Printf.sprintf "row-%04d-%s" (List.length !rows) (String.make 300 'x') in
    ignore (ok (Heap.insert h ~tx (b row)) : Heap.rowid);
    rows := row :: !rows
  done;
  ok (Result.map_error Engine.error_to_string (Engine.commit e tx));
  let e', _ = Engine.restart ~config chip in
  let h' = Heap.attach e' ~header:(Heap.header h) in
  let seen = ref [] in
  Heap.iter h' (fun _ data -> seen := Bytes.to_string data :: !seen);
  Alcotest.(check (list string)) "every committed row" (List.sort compare !rows)
    (List.sort compare !seen)

let test_heap_directory_chain_growth () =
  (* Small (2 KB) pages make directory pages overflow quickly: one holds
     ~169 member-page entries; 700 records at 4 per page need ~175 member
     pages, forcing a second directory page. *)
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config =
    { Config.default with Config.page_size = 2048; log_region_bytes = 8192; buffer_pages = 64 }
  in
  let e = Engine.create ~config chip in
  let h = Heap.create e in
  for i = 1 to 700 do
    ignore (ok (Heap.insert h ~tx:Engine.no_txn (Bytes.make 490 (Char.chr (33 + (i mod 90))))))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "many member pages (%d)" (Heap.page_count h))
    true
    (Heap.page_count h > 169);
  Engine.Unsafe.checkpoint e;
  (* The chained directory survives re-attachment. *)
  let e', _ = Engine.restart ~config chip in
  let h' = Heap.attach e' ~header:(Heap.header h) in
  Alcotest.(check int) "pages after restart" (Heap.page_count h) (Heap.page_count h');
  Alcotest.(check int) "records after restart" 700 (Heap.record_count h')

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_crud () =
  let _, _, e = mk () in
  let t = Table.create e in
  ok (Table.insert t ~tx:Engine.no_txn ~key:5 Record.[ I 5; S "five" ]);
  ok (Table.insert t ~tx:Engine.no_txn ~key:2 Record.[ I 2; S "two" ]);
  Alcotest.(check bool) "find" true (Table.find t 5 = Some Record.[ I 5; S "five" ]);
  Alcotest.(check bool) "absent" true (Table.find t 9 = None);
  (match Table.insert t ~tx:Engine.no_txn ~key:5 Record.[ I 5 ] with
  | Error "duplicate key" -> ()
  | _ -> Alcotest.fail "duplicate must fail");
  Alcotest.(check bool) "update" true
    (ok (Table.update t ~tx:Engine.no_txn ~key:2 (fun r -> Record.set r 1 (Record.S "TWO"))));
  Alcotest.(check bool) "updated" true (Table.find t 2 = Some Record.[ I 2; S "TWO" ]);
  Alcotest.(check bool) "update absent" false
    (ok (Table.update t ~tx:Engine.no_txn ~key:9 (fun r -> r)));
  Alcotest.(check bool) "delete" true (ok (Table.delete t ~tx:Engine.no_txn ~key:2));
  Alcotest.(check bool) "delete absent" false (ok (Table.delete t ~tx:Engine.no_txn ~key:2));
  Alcotest.(check int) "count" 1 (Table.count t)

let test_table_range_and_scan () =
  let _, _, e = mk () in
  let t = Table.create e in
  for k = 1 to 200 do
    ok (Table.insert t ~tx:Engine.no_txn ~key:(k * 3) Record.[ I k ])
  done;
  let r = Table.range t ~lo:10 ~hi:21 in
  Alcotest.(check (list int)) "range keys" [ 12; 15; 18; 21 ] (List.map fst r);
  Alcotest.(check (option int)) "next_ge" (Some 12) (Table.next_key_ge t 10);
  let n = ref 0 in
  Table.scan t (fun _ -> incr n);
  Alcotest.(check int) "scan sees all" 200 !n

let test_table_attach_after_restart () =
  let chip, config, e = mk () in
  let t = Table.create e in
  for k = 1 to 300 do
    ok (Table.insert t ~tx:Engine.no_txn ~key:k Record.[ I k; S (Printf.sprintf "val-%d" k) ])
  done;
  Engine.Unsafe.checkpoint e;
  let hh = Table.heap_header t and ih = Table.index_header t in
  let e', _ = Engine.restart ~config chip in
  let t' = Table.attach e' ~heap_header:hh ~index_header:ih in
  Alcotest.(check int) "count" 300 (Table.count t');
  Alcotest.(check bool) "spot check" true
    (Table.find t' 123 = Some Record.[ I 123; S "val-123" ])

let test_table_transactional () =
  let chip = Chip.create (FConfig.default ~num_blocks:128 ()) in
  let config = { Config.default with Config.buffer_pages = 16 } in
  let e = Engine.create ~config chip in
  let t = Table.create e in
  ok (Table.insert t ~tx:Engine.no_txn ~key:1 Record.[ I 1; F 10.0 ]);
  Engine.Unsafe.checkpoint e;
  let txi = Engine.Unsafe.begin_txn e in
  let tx = Engine.Unsafe.txn txi in
  Alcotest.(check bool) "tx update" true
    (ok (Table.update t ~tx ~key:1 (fun r -> Record.set r 1 (Record.F 99.0))));
  ok (Table.insert t ~tx ~key:2 Record.[ I 2; F 0.0 ]);
  Engine.Unsafe.abort e txi;
  Alcotest.(check bool) "update rolled back" true (Table.find t 1 = Some Record.[ I 1; F 10.0 ]);
  Alcotest.(check bool) "insert rolled back" true (Table.find t 2 = None)

(* A rejected insert leaves no trace: a duplicate key adds no heap row,
   and a row the heap refuses adds no index entry. *)
let test_table_rejected_insert () =
  let _, _, e = mk () in
  let t = Table.create e in
  for k = 1 to 50 do
    ok (Table.insert t ~tx:Engine.no_txn ~key:k Record.[ I k; S "row" ])
  done;
  let heap = Heap.attach e ~header:(Table.heap_header t) in
  let heap_rows () =
    let rows = ref [] in
    Heap.iter heap (fun rid data -> rows := (rid, Bytes.to_string data) :: !rows);
    List.rev !rows
  in
  let rows = heap_rows () and pages = Table.heap_pages t in
  (match Table.insert t ~tx:Engine.no_txn ~key:17 Record.[ I 0; S "other" ] with
  | Error "duplicate key" -> ()
  | _ -> Alcotest.fail "duplicate must fail");
  Alcotest.(check (list (pair int string))) "heap rows unchanged" rows (heap_rows ());
  Alcotest.(check int) "heap pages unchanged" pages (Table.heap_pages t);
  Alcotest.(check bool) "original row kept" true (Table.find t 17 = Some Record.[ I 17; S "row" ]);
  (match Table.insert t ~tx:Engine.no_txn ~key:99 Record.[ S (String.make 20_000 'x') ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an oversized row must fail");
  Alcotest.(check bool) "no index entry" false (Table.mem t 99);
  Alcotest.(check int) "count" 50 (Table.count t)

(* Property: table matches a model map under random mutations, and
   re-attaching after checkpoint+restart preserves the state. *)
let prop_table_vs_model_with_restart =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> `Insert (k, v)) (int_bound 100) (int_bound 100_000));
          (2, map2 (fun k v -> `Update (k, v)) (int_bound 100) (int_bound 100_000));
          (1, map (fun k -> `Delete k) (int_bound 100));
        ])
  in
  QCheck.Test.make ~name:"table matches model, survives restart" ~count:20
    (QCheck.make QCheck.Gen.(list_size (int_range 0 150) gen_op))
    (fun ops ->
      let chip, config, e = mk ~blocks:128 ~buffer_pages:16 () in
      let t = Table.create e in
      let model = Hashtbl.create 32 in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) -> (
              match Table.insert t ~tx:Engine.no_txn ~key:k Record.[ I v ] with
              | Ok () -> Hashtbl.replace model k v
              | Error _ -> assert (Hashtbl.mem model k))
          | `Update (k, v) ->
              if ok (Table.update t ~tx:Engine.no_txn ~key:k (fun _ -> Record.[ I v ])) then
                Hashtbl.replace model k v
          | `Delete k -> if ok (Table.delete t ~tx:Engine.no_txn ~key:k) then Hashtbl.remove model k)
        ops;
      Engine.Unsafe.checkpoint e;
      let e', _ = Engine.restart ~config chip in
      let t' =
        Table.attach e' ~heap_header:(Table.heap_header t) ~index_header:(Table.index_header t)
      in
      Table.count t' = Hashtbl.length model
      && Hashtbl.fold (fun k v acc -> acc && Table.find t' k = Some Record.[ I v ]) model true)

let () =
  Alcotest.run "relation"
    [
      ( "heap",
        [
          Alcotest.test_case "crud" `Quick test_heap_crud;
          Alcotest.test_case "spills to new pages" `Quick test_heap_spills_to_new_pages;
          Alcotest.test_case "iter & fold" `Quick test_heap_iter_order_and_fold;
          Alcotest.test_case "attach after restart" `Quick test_heap_attach_after_restart;
          Alcotest.test_case "directory chain growth" `Slow test_heap_directory_chain_growth;
          Alcotest.test_case "commit makes new member pages durable" `Quick
            test_heap_commit_durable_directory;
        ] );
      ( "table",
        [
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "range & scan" `Quick test_table_range_and_scan;
          Alcotest.test_case "attach after restart" `Quick test_table_attach_after_restart;
          Alcotest.test_case "transactional" `Quick test_table_transactional;
          Alcotest.test_case "rejected insert leaves no trace" `Quick test_table_rejected_insert;
          QCheck_alcotest.to_alcotest prop_table_vs_model_with_restart;
        ] );
    ]

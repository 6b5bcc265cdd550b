module Engine = Ipl_core.Ipl_engine
module Table = Relation.Table
module B = Btree.Bptree
module Record = Storage.Record

type t = {
  engine : Engine.t;
  tables : (Tpcc_schema.table, Table.t) Hashtbl.t;
  name_index : B.t;  (* (w, d, last name, c) -> customer number *)
}

let create engine =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun table -> Hashtbl.replace tables table (Table.create engine))
    Tpcc_schema.all_tables;
  { engine; tables; name_index = B.create engine }

let engine t = t.engine
let table t name = Hashtbl.find t.tables name

let ok = function
  | Ok v -> v
  | Error e -> failwith ("Tpcc_engine_store: " ^ Engine.error_to_string e)

type tx = Engine.txn

let no_txn = Engine.no_txn
let begin_txn t = ok (Engine.begin_txn t.engine)
let commit t tx = ok (Engine.commit t.engine tx)
let abort t tx = ok (Engine.abort t.engine tx)

let customer_name_entry row =
  match Tpcc_schema.last_name_number (Record.get_string row 5) with
  | None -> None
  | Some name ->
      let c = Record.get_int row 0 in
      let d = Record.get_int row 1 in
      let w = Record.get_int row 2 in
      Some (Tpcc_schema.customer_name_key ~w ~d ~name ~c, c)

let insert t ~tx tbl ~key row =
  (match Table.insert (table t tbl) ~tx ~key row with
  | Ok () -> ()
  | Error msg ->
      failwith
        (Printf.sprintf "Tpcc_engine_store.insert: %s in %s (key %d)" msg
           (Tpcc_schema.table_name tbl) key));
  if tbl = Tpcc_schema.Customer then
    match customer_name_entry row with
    | Some (nk, c) -> (
        match B.insert t.name_index ~tx ~key:nk ~value:c with
        | Ok () -> ()
        | Error msg -> failwith ("Tpcc_engine_store: name index: " ^ msg))
    | None -> ()

let lookup t tbl ~key = Table.find (table t tbl) key

let update t ~tx tbl ~key f =
  match Table.update (table t tbl) ~tx ~key f with
  | Ok changed -> changed
  | Error msg -> failwith ("Tpcc_engine_store.update: " ^ msg)

let delete t ~tx tbl ~key =
  (* Keep the name index consistent (TPC-C never deletes customers, but
     the store stays general). *)
  (if tbl = Tpcc_schema.Customer then
     match lookup t tbl ~key with
     | Some row -> (
         match customer_name_entry row with
         | Some (nk, _) -> (
             match B.delete t.name_index ~tx ~key:nk with
             | Ok () -> ()
             | Error _ -> () (* no index entry: nothing to unlink *))
         | None -> ())
     | None -> ());
  match Table.delete (table t tbl) ~tx ~key with
  | Ok changed -> changed
  | Error msg -> failwith ("Tpcc_engine_store.delete: " ^ msg)

let next_key_ge t tbl ~key = Table.next_key_ge (table t tbl) key

let customer_by_last_name t ~w ~d ~last =
  match Tpcc_schema.last_name_number last with
  | None -> None
  | Some name -> (
      let lo, hi = Tpcc_schema.customer_name_range ~w ~d ~name in
      match B.range t.name_index ~lo ~hi with
      | [] -> None
      | matches -> (
          (* Position ceil(n/2), 1-based (clause 2.5.2.2). *)
          let _, c = List.nth matches ((List.length matches - 1) / 2) in
          match lookup t Tpcc_schema.Customer ~key:(Tpcc_schema.customer_key ~w ~d ~c) with
          | Some row -> Some (c, row)
          | None -> None))

let row_count t tbl = Table.count (table t tbl)

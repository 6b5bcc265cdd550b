module Record = Storage.Record
module Pool = Bufmgr.Buffer_pool
module Trace = Reftrace.Trace
module IntSet = Set.Make (Int)

type fill = { mutable page : int; mutable free : int }

(* Undo entries for transactional rollback (newest first). *)
type undo =
  | U_insert of { table : Tpcc_schema.table; key : int }
  | U_update of { gk : int; before : bytes }
  | U_delete of { table : Tpcc_schema.table; key : int; before : bytes; page : int }

type t = {
  name : string;
  page_size : int;
  arena : Ipl_util.Byte_arena.t;  (* encoded rows, addressed by handle *)
  rows : (int, int) Hashtbl.t;  (* packed (table, key) -> arena handle *)
  placement : (int, int) Hashtbl.t;  (* packed (table, key) -> heap page *)
  fills : fill array;  (* per table *)
  index_pages : (int, int) Hashtbl.t;  (* packed (table, leaf bucket) -> page *)
  mutable new_order_keys : IntSet.t;  (* ordered access for Delivery *)
  names : (int, IntSet.t) Hashtbl.t;  (* (w,d,last-name) -> customer numbers *)
  undo_log : (int, undo list ref) Hashtbl.t;  (* active txn -> undo entries *)
  mutable next_page : int;
  mutable next_txn : int;
  mutable committed : int;
  mutable pool : unit Pool.t;
  mutable builder : Trace.builder;
}

let table_idx = function
  | Tpcc_schema.Warehouse -> 0
  | Tpcc_schema.District -> 1
  | Tpcc_schema.Customer -> 2
  | Tpcc_schema.History -> 3
  | Tpcc_schema.New_order -> 4
  | Tpcc_schema.Orders -> 5
  | Tpcc_schema.Order_line -> 6
  | Tpcc_schema.Item -> 7
  | Tpcc_schema.Stock -> 8

let pack table key = (table_idx table lsl 48) lor key

(* Encoded sizes of the physiological log records the IPL engine would
   produce (header 11 bytes; see Log_record). *)
let insert_log_size len = 11 + 2 + len
let delete_log_size len = 11 + 2 + len
let update_range_log_size dlen = 11 + 4 + (2 * dlen)
let update_full_log_size before after = 11 + 4 + before + after
let index_entry_log_size = 11 + 2 + 16 (* 16-byte (key, rowid) entries *)

let create ?(page_size = Ipl_core.Ipl_config.default.Ipl_core.Ipl_config.page_size) ~buffer_bytes
    ~name () =
  let capacity = max 1 (buffer_bytes / page_size) in
  let builder = Trace.builder ~name ~db_pages:0 in
  let rec t =
    lazy
      (let pool =
         Pool.create ~capacity
           ~adaptive:false ~fetch:(fun _ _ -> ())
           ~write_back:
             (List.iter (fun (page, ()) -> Trace.add_page_write (Lazy.force t).builder ~page))
           ()
       in
       mk_store pool)
  and mk_store pool = {
    name;
    page_size;
    arena = Ipl_util.Byte_arena.create ();
    rows = Hashtbl.create (1 lsl 20);
    placement = Hashtbl.create (1 lsl 20);
    fills = Array.init 9 (fun _ -> { page = -1; free = 0 });
    index_pages = Hashtbl.create 4096;
    new_order_keys = IntSet.empty;
    names = Hashtbl.create 4096;
    undo_log = Hashtbl.create 8;
    next_page = 0;
    next_txn = 1;
    committed = 0;
    pool;
    builder;
  }
  in
  Lazy.force t

let alloc_page t =
  let p = t.next_page in
  t.next_page <- p + 1;
  p

let touch t page ~dirty = Pool.with_page t.pool page ~dirty (fun () -> ())

(* Index leaves hold ~ (page_size - header) / (16B entry + 4B slot). *)
let entries_per_leaf t = (t.page_size - 8) / 20

let index_leaf t table key =
  let bucket = pack table (key / entries_per_leaf t) in
  match Hashtbl.find_opt t.index_pages bucket with
  | Some page -> page
  | None ->
      let page = alloc_page t in
      Hashtbl.replace t.index_pages bucket page;
      page

let heap_place t table len =
  let fill = t.fills.(table_idx table) in
  let needed = len + 4 in
  if fill.page < 0 || fill.free < needed then begin
    fill.page <- alloc_page t;
    fill.free <- t.page_size - 8
  end;
  fill.free <- fill.free - needed;
  fill.page

(* Customer-name registry maintenance (by encoded row). *)
let name_registry_key row =
  match Tpcc_schema.last_name_number (Record.get_string row 5) with
  | None -> None
  | Some name ->
      let d = Record.get_int row 1 and w = Record.get_int row 2 in
      Some ((Tpcc_schema.district_key ~w ~d * 1000) + name, Record.get_int row 0)

let register_customer_name t data =
  match name_registry_key (Record.decode data) with
  | Some (nk, c) ->
      let cur = Option.value ~default:IntSet.empty (Hashtbl.find_opt t.names nk) in
      Hashtbl.replace t.names nk (IntSet.add c cur)
  | None -> ()

let unregister_customer_name t data =
  match name_registry_key (Record.decode data) with
  | Some (nk, c) -> (
      match Hashtbl.find_opt t.names nk with
      | Some set -> Hashtbl.replace t.names nk (IntSet.remove c set)
      | None -> ())
  | None -> ()

type tx = int

let no_txn = 0

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  Hashtbl.replace t.undo_log id (ref []);
  id

let push_undo t tx entry =
  if tx <> 0 then
    match Hashtbl.find_opt t.undo_log tx with
    | Some entries -> entries := entry :: !entries
    | None -> ()

let commit t tx =
  Hashtbl.remove t.undo_log tx;
  t.committed <- t.committed + 1

let insert t ~tx table ~key row =
  let gk = pack table key in
  if Hashtbl.mem t.rows gk then
    failwith
      (Printf.sprintf "Tpcc_layout_store.insert: duplicate key %d in %s" key
         (Tpcc_schema.table_name table));
  let data = Record.encode row in
  let page = heap_place t table (Bytes.length data) in
  Hashtbl.replace t.rows gk (Ipl_util.Byte_arena.add t.arena data);
  Hashtbl.replace t.placement gk page;
  touch t page ~dirty:true;
  Trace.add_log t.builder ~op:Trace.Insert ~page ~length:(insert_log_size (Bytes.length data));
  (* Index maintenance is physiologically a node-page modification; the
     commercial server the paper traced logs it as an update (its Table 4
     is 89 % updates). *)
  let leaf = index_leaf t table key in
  touch t leaf ~dirty:true;
  Trace.add_log t.builder ~op:Trace.Update ~page:leaf ~length:index_entry_log_size;
  push_undo t tx (U_insert { table; key });
  if table = Tpcc_schema.New_order then t.new_order_keys <- IntSet.add key t.new_order_keys;
  if table = Tpcc_schema.Customer then register_customer_name t data

let lookup t table ~key =
  let gk = pack table key in
  match Hashtbl.find_opt t.rows gk with
  | None -> None
  | Some handle ->
      touch t (index_leaf t table key) ~dirty:false;
      touch t (Hashtbl.find t.placement gk) ~dirty:false;
      Some (Record.decode (Ipl_util.Byte_arena.get t.arena handle))

let update t ~tx table ~key f =
  let gk = pack table key in
  match Hashtbl.find_opt t.rows gk with
  | None -> false
  | Some handle ->
      touch t (index_leaf t table key) ~dirty:false;
      let before = Ipl_util.Byte_arena.get t.arena handle in
      let after = Record.encode (f (Record.decode before)) in
      let page = Hashtbl.find t.placement gk in
      touch t page ~dirty:true;
      let length =
        if Bytes.length before = Bytes.length after then
          match Ipl_util.Diff.minimal_range before after with
          | None -> update_range_log_size 1
          | Some (_, dlen) -> update_range_log_size dlen
        else update_full_log_size (Bytes.length before) (Bytes.length after)
      in
      Trace.add_log t.builder ~op:Trace.Update ~page ~length;
      push_undo t tx (U_update { gk; before });
      let handle' = Ipl_util.Byte_arena.set t.arena handle after in
      if handle' <> handle then Hashtbl.replace t.rows gk handle';
      true

let delete t ~tx table ~key =
  let gk = pack table key in
  match Hashtbl.find_opt t.rows gk with
  | None -> false
  | Some handle ->
      let page = Hashtbl.find t.placement gk in
      touch t page ~dirty:true;
      Trace.add_log t.builder ~op:Trace.Delete ~page
        ~length:(delete_log_size (Ipl_util.Byte_arena.length t.arena handle));
      let leaf = index_leaf t table key in
      touch t leaf ~dirty:true;
      Trace.add_log t.builder ~op:Trace.Update ~page:leaf ~length:index_entry_log_size;
      push_undo t tx
        (U_delete { table; key; before = Ipl_util.Byte_arena.get t.arena handle; page });
      Hashtbl.remove t.rows gk;
      Hashtbl.remove t.placement gk;
      if table = Tpcc_schema.New_order then
        t.new_order_keys <- IntSet.remove key t.new_order_keys;
      if table = Tpcc_schema.Customer then
        unregister_customer_name t (Ipl_util.Byte_arena.get t.arena handle);
      true

(* Rollback: revert the store's logical state (newest change first). The
   trace keeps the records already emitted — the traced commercial server
   likewise leaves its log intact and compensates. *)
let abort t tx =
  match Hashtbl.find_opt t.undo_log tx with
  | None -> ()
  | Some entries ->
      List.iter
        (fun entry ->
          match entry with
          | U_insert { table; key } ->
              let gk = pack table key in
              (if table = Tpcc_schema.Customer then
                 match Hashtbl.find_opt t.rows gk with
                 | Some handle -> unregister_customer_name t (Ipl_util.Byte_arena.get t.arena handle)
                 | None -> ());
              Hashtbl.remove t.rows gk;
              Hashtbl.remove t.placement gk;
              if table = Tpcc_schema.New_order then
                t.new_order_keys <- IntSet.remove key t.new_order_keys
          | U_update { gk; before } -> (
              match Hashtbl.find_opt t.rows gk with
              | Some handle ->
                  Hashtbl.replace t.rows gk (Ipl_util.Byte_arena.set t.arena handle before)
              | None -> ())
          | U_delete { table; key; before; page } ->
              let gk = pack table key in
              Hashtbl.replace t.rows gk (Ipl_util.Byte_arena.add t.arena before);
              Hashtbl.replace t.placement gk page;
              if table = Tpcc_schema.Customer then register_customer_name t before;
              if table = Tpcc_schema.New_order then
                t.new_order_keys <- IntSet.add key t.new_order_keys)
        !entries;
      Hashtbl.remove t.undo_log tx

(* The name index's leaf pages live in the same modelled id space as the
   primary indexes; a lookup touches its leaf (clean). *)
let name_index_tag = 9

let customer_by_last_name t ~w ~d ~last =
  match Tpcc_schema.last_name_number last with
  | None -> None
  | Some name -> (
      let nk = (Tpcc_schema.district_key ~w ~d * 1000) + name in
      let bucket = (name_index_tag lsl 48) lor (nk / entries_per_leaf t) in
      let leaf =
        match Hashtbl.find_opt t.index_pages bucket with
        | Some page -> page
        | None ->
            let page = alloc_page t in
            Hashtbl.replace t.index_pages bucket page;
            page
      in
      touch t leaf ~dirty:false;
      match Hashtbl.find_opt t.names nk with
      | None -> None
      | Some set when IntSet.is_empty set -> None
      | Some set ->
          let n = IntSet.cardinal set in
          let target = (n - 1) / 2 in
          let i = ref 0 and picked = ref None in
          IntSet.iter
            (fun c ->
              if !i = target && !picked = None then picked := Some c;
              incr i)
            set;
          let c = Option.get !picked in
          Option.map (fun row -> (c, row)) (lookup t Tpcc_schema.Customer ~key:(Tpcc_schema.customer_key ~w ~d ~c)))

let next_key_ge t table ~key =
  match table with
  | Tpcc_schema.New_order -> IntSet.find_first_opt (fun k -> k >= key) t.new_order_keys
  | _ -> failwith "Tpcc_layout_store.next_key_ge: only supported for New_order"

let set_buffer_bytes t bytes =
  (* Replace the buffer pool (fresh, cold) without emitting any events for
     the pages cached in the old one. *)
  let capacity = max 1 (bytes / t.page_size) in
  t.pool <-
    Pool.create ~capacity
      ~adaptive:false ~fetch:(fun _ _ -> ())
      ~write_back:(List.iter (fun (page, ()) -> Trace.add_page_write t.builder ~page))
      ()

let begin_tracing t =
  (* Discard everything recorded so far (the bulk load): the paper's
     traces cover only the benchmark run against a pre-loaded database.
     The buffer pool keeps its (warm) state. *)
  t.builder <- Trace.builder ~name:t.name ~db_pages:0

let finish t =
  Pool.flush_all t.pool;
  Trace.build ~db_pages:t.next_page t.builder

let db_pages t = t.next_page
let transactions t = t.committed

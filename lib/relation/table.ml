module Engine = Ipl_core.Ipl_engine
module B = Btree.Bptree
module Record = Storage.Record

type t = { heap : Heap.t; index : B.t }

let create engine = { heap = Heap.create engine; index = B.create engine }

let attach engine ~heap_header ~index_header =
  { heap = Heap.attach engine ~header:heap_header; index = B.attach engine ~header:index_header }

let heap_header t = Heap.header t.heap
let index_header t = B.header_page t.index

let insert t ~tx ~key row =
  B.insert_with t.index ~tx ~key (fun () -> Heap.insert t.heap ~tx (Record.encode row))

let find_rowid t key = B.find t.index key

let find t key =
  match find_rowid t key with
  | None -> None
  | Some rid -> Option.map Record.decode (Heap.read t.heap rid)

let mem t key = B.mem t.index key

let update t ~tx ~key f =
  match find_rowid t key with
  | None -> Ok false
  | Some rid -> (
      match Heap.read t.heap rid with
      | None -> Ok false
      | Some data -> (
          match Heap.update t.heap ~tx rid (Record.encode (f (Record.decode data))) with
          | Ok () -> Ok true
          | Error _ as e -> Result.map (fun () -> true) e))

let delete t ~tx ~key =
  match find_rowid t key with
  | None -> Ok false
  | Some rid -> (
      match Heap.delete t.heap ~tx rid with
      | Error _ as e -> Result.map (fun () -> true) e
      | Ok () -> Result.map (fun () -> true) (B.delete t.index ~tx ~key))

let next_key_ge t key = Option.map fst (B.next_ge t.index key)

let range t ~lo ~hi =
  List.filter_map
    (fun (key, rid) -> Option.map (fun d -> (key, Record.decode d)) (Heap.read t.heap rid))
    (B.range t.index ~lo ~hi)

let scan t f = Heap.iter t.heap (fun _ data -> f (Record.decode data))

let count t = B.cardinal t.index
let heap_pages t = Heap.page_count t.heap

(* Per-erase-unit record cache: a hash table of entries threaded on an
   intrusive LRU list (same discipline as Bufmgr.Buffer_pool), plus a
   per-entry page index so a single page's records are reachable without
   walking the unit's full list. Record lists are kept newest-first
   internally; the public accessors reverse into application order. *)

type 'r entry = {
  key : int;
  mutable all_rev : 'r list;
  by_page : (int, 'r list) Hashtbl.t;  (* page -> its records, newest first *)
  mutable bytes : int;
  mutable prev : 'r entry option;  (* towards MRU *)
  mutable next : 'r entry option;  (* towards LRU *)
}

type 'r t = {
  budget : int;
  record_bytes : 'r -> int;
  page_of : 'r -> int;
  on_evict : key:int -> bytes:int -> unit;
  table : (int, 'r entry) Hashtbl.t;
  mutable mru : 'r entry option;
  mutable lru : 'r entry option;
  mutable total_bytes : int;
}

let create ~budget_bytes ~record_bytes ~page_of ?(on_evict = fun ~key:_ ~bytes:_ -> ())
    () =
  if budget_bytes < 0 then invalid_arg "Log_cache.create: negative budget";
  {
    budget = budget_bytes;
    record_bytes;
    page_of;
    on_evict;
    table = Hashtbl.create 64;
    mru = None;
    lru = None;
    total_bytes = 0;
  }

let enabled t = t.budget > 0
let mem t key = Hashtbl.mem t.table key

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

let touch t e =
  match t.mru with
  | Some m when m == e -> ()
  | _ ->
      unlink t e;
      push_front t e

let drop t e =
  unlink t e;
  Hashtbl.remove t.table e.key;
  t.total_bytes <- t.total_bytes - e.bytes

let invalidate t key =
  match Hashtbl.find_opt t.table key with Some e -> drop t e | None -> ()

(* Evict LRU entries until the budget holds. The most recent entry is
   evicted last, so an entry bigger than the whole budget is dropped only
   once everything else is gone. *)
let rec enforce_budget t =
  if t.total_bytes > t.budget then
    match t.lru with
    | None -> ()
    | Some victim ->
        let key = victim.key and bytes = victim.bytes in
        drop t victim;
        t.on_evict ~key ~bytes;
        enforce_budget t

let add_record t e r =
  let page = t.page_of r in
  e.all_rev <- r :: e.all_rev;
  Hashtbl.replace e.by_page page
    (r :: Option.value ~default:[] (Hashtbl.find_opt e.by_page page));
  let b = t.record_bytes r in
  e.bytes <- e.bytes + b;
  t.total_bytes <- t.total_bytes + b

let install t key records =
  if enabled t then begin
    invalidate t key;
    let e =
      { key; all_rev = []; by_page = Hashtbl.create 8; bytes = 0; prev = None; next = None }
    in
    List.iter (fun r -> add_record t e r) records;
    Hashtbl.replace t.table key e;
    push_front t e;
    enforce_budget t
  end

let append t key records =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
      List.iter (fun r -> add_record t e r) records;
      touch t e;
      enforce_budget t

let records t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      touch t e;
      Some (List.rev e.all_rev)

(* One walk of a newest-first list gives the records [keep] accepts in
   application order. *)
let rec kept_in_order keep acc = function
  | [] -> acc
  | r :: rest -> kept_in_order keep (if keep r then r :: acc else acc) rest

let records_of_page t key ~page ~keep =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      touch t e;
      Some (kept_in_order keep [] (Option.value ~default:[] (Hashtbl.find_opt e.by_page page)))

let clear t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None;
  t.total_bytes <- 0

type stats = { entries : int; bytes : int }

let stats t = { entries = Hashtbl.length t.table; bytes = t.total_bytes }

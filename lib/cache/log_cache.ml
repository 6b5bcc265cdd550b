(* Per-erase-unit record cache: a hash table of entries whose unit ids
   are threaded on an LRU list (an [Ipl_util.Id_list], as the buffer
   pool's frames are), plus a per-entry page index so a single page's
   records are reachable without walking the unit's full list. Record
   lists are kept newest-first internally; the public accessors reverse
   into application order. *)

module Id_list = Ipl_util.Id_list

type 'r entry = {
  key : int;
  mutable all_rev : 'r list;
  by_page : (int, 'r list) Hashtbl.t;  (* page -> its records, newest first *)
  mutable bytes : int;
}

type 'r t = {
  budget : int;
  record_bytes : 'r -> int;
  page_of : 'r -> int;
  on_evict : key:int -> bytes:int -> unit;
  table : (int, 'r entry) Hashtbl.t;
  mutable links : int array;  (* an id's LRU links: 2 ints per unit id *)
  lru : Id_list.t;  (* the cached units, most recent first *)
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
    links = Array.make 128 0;
    lru = Id_list.create ~stride:2 ~off:0 ~buckets:1;
    total_bytes = 0;
  }

let enabled t = t.budget > 0
let mem t key = Hashtbl.mem t.table key
let touch t e = Id_list.move t.links t.lru e.key ~from:0 0

let drop t e =
  Id_list.remove t.links t.lru e.key 0;
  Hashtbl.remove t.table e.key;
  t.total_bytes <- t.total_bytes - e.bytes

let invalidate t key =
  match Hashtbl.find_opt t.table key with Some e -> drop t e | None -> ()

(* Evict LRU entries until the budget holds. The most recent entry is
   evicted last, so an entry bigger than the whole budget is dropped only
   once everything else is gone. *)
let rec enforce_budget t =
  let lru = Id_list.tail t.lru 0 in
  if t.total_bytes > t.budget && lru <> Id_list.nil then begin
    let victim = Hashtbl.find t.table lru in
    drop t victim;
    t.on_evict ~key:lru ~bytes:victim.bytes;
    enforce_budget t
  end

let add_record t e r =
  let page = t.page_of r in
  e.all_rev <- r :: e.all_rev;
  Hashtbl.replace e.by_page page
    (r :: Option.value ~default:[] (Hashtbl.find_opt e.by_page page));
  let b = t.record_bytes r in
  e.bytes <- e.bytes + b;
  t.total_bytes <- t.total_bytes + b

(* The link array doubles until it covers the unit id. *)
let rec cover t key =
  let len = Array.length t.links in
  if 2 * key >= len then begin
    let links = Array.make (2 * len) 0 in
    Array.blit t.links 0 links 0 len;
    t.links <- links;
    cover t key
  end

let install t key records =
  if key < 0 then invalid_arg "Log_cache.install: negative unit id";
  if enabled t then begin
    invalidate t key;
    let e = { key; all_rev = []; by_page = Hashtbl.create 8; bytes = 0 } in
    List.iter (fun r -> add_record t e r) records;
    Hashtbl.replace t.table key e;
    cover t key;
    Id_list.add t.links t.lru key 0;
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

let fold t key f init =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      touch t e;
      Some (List.fold_left f init e.all_rev)

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
  Hashtbl.iter (fun key _ -> Id_list.remove t.links t.lru key 0) t.table;
  Hashtbl.reset t.table;
  t.total_bytes <- 0

type stats = { entries : int; bytes : int }

let stats t = { entries = Hashtbl.length t.table; bytes = t.total_bytes }

type 'a frame = {
  key : int;
  value : 'a;
  mutable dirty : bool;
  mutable pins : int;
  mutable prev : 'a frame option;  (* towards MRU *)
  mutable next : 'a frame option;  (* towards LRU *)
}

type stats = { hits : int; misses : int; evictions : int; dirty_write_backs : int }

type 'a t = {
  capacity : int;
  fetch : int -> 'a option -> 'a;
  write_back : int -> 'a -> unit;
  table : (int, 'a frame) Hashtbl.t;
  mutable mru : 'a frame option;
  mutable lru : 'a frame option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty_write_backs : int;
  mutable dirty_frames : int;  (* maintained at every dirty-flag transition *)
  mutable trace : (Obs.Event.t -> unit) option;
}

let create ~capacity ~fetch ~write_back () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    capacity;
    fetch;
    write_back;
    table = Hashtbl.create (2 * capacity);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    dirty_write_backs = 0;
    dirty_frames = 0;
    trace = None;
  }

let set_trace t trace = t.trace <- trace

let set_dirty t f v =
  if f.dirty <> v then begin
    f.dirty <- v;
    t.dirty_frames <- t.dirty_frames + (if v then 1 else -1)
  end

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.mru <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.lru <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.next <- t.mru;
  f.prev <- None;
  (match t.mru with Some m -> m.prev <- Some f | None -> t.lru <- Some f);
  t.mru <- Some f

let touch t f =
  if t.mru != Some f then begin
    unlink t f;
    push_front t f
  end

let write_back_frame t f =
  if f.dirty then begin
    t.write_back f.key f.value;
    t.dirty_write_backs <- t.dirty_write_backs + 1;
    set_dirty t f false;
    match t.trace with
    | None -> ()
    | Some emit -> emit (Obs.Event.Write_back { page = f.key })
  end

(* Evict the least-recently-used unpinned frame; returns its value. *)
let evict_one t =
  let rec find = function
    | None -> failwith "Buffer_pool: all frames are pinned"
    | Some f -> if f.pins = 0 then f else find f.prev
  in
  let victim = find t.lru in
  write_back_frame t victim;
  unlink t victim;
  Hashtbl.remove t.table victim.key;
  t.evictions <- t.evictions + 1;
  (match t.trace with
  | None -> ()
  | Some emit -> emit (Obs.Event.Evict { page = victim.key }));
  victim.value

let get_frame t key =
  match Hashtbl.find_opt t.table key with
  | Some f ->
      t.hits <- t.hits + 1;
      touch t f;
      f
  | None ->
      t.misses <- t.misses + 1;
      (* A full pool hands the evicted value to [fetch] for reuse. *)
      let evicted = if Hashtbl.length t.table >= t.capacity then Some (evict_one t) else None in
      let f =
        { key; value = t.fetch key evicted; dirty = false; pins = 0; prev = None; next = None }
      in
      Hashtbl.add t.table key f;
      push_front t f;
      f

let with_page t key ?(dirty = false) f =
  let frame = get_frame t key in
  frame.pins <- frame.pins + 1;
  if dirty then set_dirty t frame true;
  Fun.protect ~finally:(fun () -> frame.pins <- frame.pins - 1) (fun () -> f frame.value)

let mark_dirty t key =
  match Hashtbl.find_opt t.table key with
  | Some f -> set_dirty t f true
  | None ->
      invalid_arg (Printf.sprintf "Buffer_pool.mark_dirty: page %d is not cached" key)

let clean t key =
  match Hashtbl.find_opt t.table key with Some f -> set_dirty t f false | None -> ()

(* Insert an externally fetched value as a clean resident frame — the
   batched-prefetch entry point. A later [with_page] of the key is a hit
   and, crucially, does not call [fetch]. Counts as a miss (the value did
   come from below), keeping hit/miss totals comparable with a
   fetch-on-demand run. No-op when the key is already resident. *)
let preload t key value =
  if not (Hashtbl.mem t.table key) then begin
    t.misses <- t.misses + 1;
    if Hashtbl.length t.table >= t.capacity then ignore (evict_one t : 'a);
    let f = { key; value; dirty = false; pins = 0; prev = None; next = None } in
    Hashtbl.add t.table key f;
    push_front t f
  end

let contains t key = Hashtbl.mem t.table key

(* Bump a resident page to MRU without fetching — the prefetch path uses
   this so preloading a batch's missing pages cannot evict the batch's
   already-resident ones. *)
let promote t key =
  match Hashtbl.find_opt t.table key with Some f -> touch t f | None -> ()
let find t key = Option.map (fun f -> f.value) (Hashtbl.find_opt t.table key)

let is_dirty t key =
  match Hashtbl.find_opt t.table key with Some f -> f.dirty | None -> false

let capacity t = t.capacity
let cached t = Hashtbl.length t.table
let dirty_count t = t.dirty_frames

let flush_all t = Hashtbl.iter (fun _ f -> write_back_frame t f) t.table

let drop_all t =
  Hashtbl.iter
    (fun _ f -> if f.pins > 0 then failwith "Buffer_pool.drop_all: frame pinned")
    t.table;
  flush_all t;
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None

let iter f t = Hashtbl.iter (fun key fr -> f key fr.value ~dirty:fr.dirty) t.table

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; dirty_write_backs = t.dirty_write_backs }

module Stats = struct
  type t = stats

  let zero = { hits = 0; misses = 0; evictions = 0; dirty_write_backs = 0 }

  let add (a : t) (b : t) : t =
    {
      hits = a.hits + b.hits;
      misses = a.misses + b.misses;
      evictions = a.evictions + b.evictions;
      dirty_write_backs = a.dirty_write_backs + b.dirty_write_backs;
    }

  let diff (a : t) (b : t) : t =
    {
      hits = a.hits - b.hits;
      misses = a.misses - b.misses;
      evictions = a.evictions - b.evictions;
      dirty_write_backs = a.dirty_write_backs - b.dirty_write_backs;
    }

  let pp ppf (t : t) =
    Format.fprintf ppf "hits=%d misses=%d evictions=%d dirty_write_backs=%d" t.hits
      t.misses t.evictions t.dirty_write_backs

  let to_json (t : t) =
    Ipl_util.Json.Obj
      [
        ("hits", Ipl_util.Json.Int t.hits);
        ("misses", Ipl_util.Json.Int t.misses);
        ("evictions", Ipl_util.Json.Int t.evictions);
        ("dirty_write_backs", Ipl_util.Json.Int t.dirty_write_backs);
      ]
end

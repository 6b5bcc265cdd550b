type 'a frame = {
  key : int;
  value : 'a;
  mutable dirty : bool;
  mutable pins : int;
  mutable prev : 'a frame option;  (* towards MRU *)
  mutable next : 'a frame option;  (* towards LRU *)
  mutable dirty_prev : 'a frame option;  (* dirty list: towards older *)
  mutable dirty_next : 'a frame option;  (* dirty list: towards newer *)
  mutable self : 'a frame option;  (* [Some] of this frame, allocated once *)
}

type stats = { hits : int; misses : int; evictions : int; dirty_write_backs : int }

(* The resident frames are found through [index], a dense array indexed
   by page id, and threaded on the LRU list from [mru] to [lru]. The
   dirty frames are also threaded, in the order they became dirty, on an
   intrusive list from [dirty_old] to [dirty_new], so [flush_all] visits
   only them. *)
type 'a t = {
  capacity : int;
  fetch : int -> 'a option -> 'a;
  write_back : (int * 'a) list -> unit;
  mutable index : 'a frame option array;
  mutable resident : int;
  mutable mru : 'a frame option;
  mutable lru : 'a frame option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty_write_backs : int;
  mutable dirty_frames : int;  (* maintained at every dirty-flag transition *)
  mutable dirty_old : 'a frame option;
  mutable dirty_new : 'a frame option;
  mutable trace : (Obs.Event.t -> unit) option;
}

let create ~capacity ~fetch ~write_back () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    capacity;
    fetch;
    write_back;
    index = Array.make (max 16 (2 * capacity)) None;
    resident = 0;
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    dirty_write_backs = 0;
    dirty_frames = 0;
    dirty_old = None;
    dirty_new = None;
    trace = None;
  }

let set_trace t trace = t.trace <- trace

let lookup t key = if key >= 0 && key < Array.length t.index then t.index.(key) else None

let check_key fn key =
  if key < 0 then invalid_arg (Printf.sprintf "Buffer_pool.%s: negative page id %d" fn key)

(* Page ids are handed out from 0 in sequence, so the index doubles
   until it covers the key and stays proportional to the ids in use. *)
let index_frame t f =
  let len = Array.length t.index in
  if f.key >= len then begin
    let rec covering n = if f.key < n then n else covering (2 * n) in
    let index = Array.make (covering (2 * len)) None in
    Array.blit t.index 0 index 0 len;
    t.index <- index
  end;
  t.index.(f.key) <- f.self

(* [self] is tied after the record exists: a [let rec] record would be
   allocated twice, a dummy block and the real one. *)
let add_frame t key value =
  let f =
    {
      key;
      value;
      dirty = false;
      pins = 0;
      prev = None;
      next = None;
      dirty_prev = None;
      dirty_next = None;
      self = None;
    }
  in
  f.self <- Some f;
  index_frame t f;
  t.resident <- t.resident + 1;
  f

let remove_frame t f =
  t.index.(f.key) <- None;
  t.resident <- t.resident - 1

(* Every dirty-flag transition goes through here, which keeps the dirty
   list and its count exact. Linking through [self] allocates nothing. *)
let set_dirty t f v =
  if f.dirty <> v then begin
    f.dirty <- v;
    if v then begin
      t.dirty_frames <- t.dirty_frames + 1;
      f.dirty_prev <- t.dirty_new;
      f.dirty_next <- None;
      (match t.dirty_new with
      | Some n -> n.dirty_next <- f.self
      | None -> t.dirty_old <- f.self);
      t.dirty_new <- f.self
    end
    else begin
      t.dirty_frames <- t.dirty_frames - 1;
      (match f.dirty_prev with
      | Some p -> p.dirty_next <- f.dirty_next
      | None -> t.dirty_old <- f.dirty_next);
      (match f.dirty_next with
      | Some n -> n.dirty_prev <- f.dirty_prev
      | None -> t.dirty_new <- f.dirty_prev);
      f.dirty_prev <- None;
      f.dirty_next <- None
    end
  end

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.mru <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.lru <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.next <- t.mru;
  f.prev <- None;
  (match t.mru with Some m -> m.prev <- f.self | None -> t.lru <- f.self);
  t.mru <- f.self

let touch t f =
  match t.mru with
  | Some m when m == f -> ()
  | _ ->
      unlink t f;
      push_front t f

(* A frame the write-back callback has just persisted: one write-back
   and one trace event per frame, whatever the size of its batch. *)
let cleaned t f =
  t.dirty_write_backs <- t.dirty_write_backs + 1;
  set_dirty t f false;
  match t.trace with
  | None -> ()
  | Some emit -> emit (Obs.Event.Write_back { page = f.key })

let write_back_frame t f =
  if f.dirty then begin
    t.write_back [ (f.key, f.value) ];
    cleaned t f
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
  remove_frame t victim;
  t.evictions <- t.evictions + 1;
  (match t.trace with
  | None -> ()
  | Some emit -> emit (Obs.Event.Evict { page = victim.key }));
  victim.value

let get_frame t key =
  match lookup t key with
  | Some f ->
      t.hits <- t.hits + 1;
      touch t f;
      f
  | None ->
      check_key "with_page" key;
      t.misses <- t.misses + 1;
      (* A full pool hands the evicted value to [fetch] for reuse. *)
      let evicted = if t.resident >= t.capacity then Some (evict_one t) else None in
      let f = add_frame t key (t.fetch key evicted) in
      push_front t f;
      f

(* The unpin is spelled out rather than left to [Fun.protect], whose
   closures a resident hit would otherwise allocate. *)
let with_page t key ?(dirty = false) f =
  let frame = get_frame t key in
  frame.pins <- frame.pins + 1;
  if dirty then set_dirty t frame true;
  match f frame.value with
  | v ->
      frame.pins <- frame.pins - 1;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      frame.pins <- frame.pins - 1;
      Printexc.raise_with_backtrace e bt

let contains t key = match lookup t key with Some _ -> true | None -> false

let mark_dirty t key =
  match lookup t key with
  | Some f -> set_dirty t f true
  | None ->
      invalid_arg (Printf.sprintf "Buffer_pool.mark_dirty: page %d is not cached" key)

let clean t key =
  match lookup t key with Some f -> set_dirty t f false | None -> ()

(* Insert an externally fetched value as a clean resident frame — the
   batched-prefetch entry point. A later [with_page] of the key is a hit
   and, crucially, does not call [fetch]. Counts as a miss (the value did
   come from below), keeping hit/miss totals comparable with a
   fetch-on-demand run. No-op when the key is already resident. *)
let preload t key value =
  check_key "preload" key;
  if not (contains t key) then begin
    t.misses <- t.misses + 1;
    if t.resident >= t.capacity then ignore (evict_one t : 'a);
    push_front t (add_frame t key value)
  end

(* Bump a resident page to MRU without fetching — the prefetch path uses
   this so preloading a batch's missing pages cannot evict the batch's
   already-resident ones. *)
let promote t key =
  match lookup t key with Some f -> touch t f | None -> ()

let find t key = match lookup t key with Some f -> Some f.value | None -> None

let is_dirty t key =
  match lookup t key with Some f -> f.dirty | None -> false

let capacity t = t.capacity
let cached t = t.resident
let dirty_count t = t.dirty_frames

(* One batch, oldest-dirtied first: the dirty list is walked from its
   newest end, so consing builds the batch in order. If the callback
   raises, every frame stays dirty. *)
let flush_all t =
  let rec batch acc = function
    | None -> acc
    | Some f -> batch ((f.key, f.value) :: acc) f.dirty_prev
  in
  match batch [] t.dirty_new with
  | [] -> ()
  | frames ->
      t.write_back frames;
      List.iter
        (fun (key, _) -> match lookup t key with Some f -> cleaned t f | None -> ())
        frames

(* Most-recently-used first. *)
let iter f t =
  let rec walk = function
    | None -> ()
    | Some fr ->
        f fr.key fr.value ~dirty:fr.dirty;
        walk fr.next
  in
  walk t.mru

let drop_all t =
  let rec check = function
    | None -> ()
    | Some f ->
        if f.pins > 0 then failwith "Buffer_pool.drop_all: frame pinned";
        check f.next
  in
  check t.mru;
  flush_all t;
  Array.fill t.index 0 (Array.length t.index) None;
  t.resident <- 0;
  t.mru <- None;
  t.lru <- None

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; dirty_write_backs = t.dirty_write_backs }

module Stats = struct
  type t = stats

  let diff (a : t) (b : t) : t =
    {
      hits = a.hits - b.hits;
      misses = a.misses - b.misses;
      evictions = a.evictions - b.evictions;
      dirty_write_backs = a.dirty_write_backs - b.dirty_write_backs;
    }

  let to_json (t : t) =
    Ipl_util.Json.Obj
      [
        ("hits", Ipl_util.Json.Int t.hits);
        ("misses", Ipl_util.Json.Int t.misses);
        ("evictions", Ipl_util.Json.Int t.evictions);
        ("dirty_write_backs", Ipl_util.Json.Int t.dirty_write_backs);
      ]
end

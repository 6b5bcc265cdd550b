module Id_list = Ipl_util.Id_list

type 'a frame = {
  key : int;
  value : 'a;
  mutable dirty : bool;
  mutable pins : int;
  mutable used : bool;  (* by a [with_page] since it came in *)
}

type stats = { hits : int; misses : int; evictions : int; dirty_write_backs : int }

(* Per page id, [node] holds [stride] ints: the page's access count, the
   [clock] of its latest access, and its links on the two shadows and the
   frequency order, at offsets 2, 4 and 6. One page's state is one or two
   cache lines, where an array per field would cost eight. [links] holds
   [link_stride] ints per page id: its links on the recency list and on
   the dirty list. *)
let stride = 8
let link_stride = 4

(* The resident frames are found through [index], a dense array indexed
   by page id. Their ids are threaded on [recency], most recently used
   first, and the dirty ones also on [dirtied], most recently dirtied
   first, so [flush_all] visits only them.

   An adaptive pool also keeps two key-only shadow directories of its
   own capacity, fed by every access: [lru_shadow], a strict LRU, and
   [lfu_shadow], which evicts its lowest-count key, the least recent of
   those. Counts are kept for every page id, resident or not. The
   resident frames used since they came in are threaded on [by_count] by
   the same counts. [window] holds, for each of the last [duel_window]
   accesses, the LRU shadow's miss minus the LFU shadow's, and
   [lfu_lead] is their sum: the pool evicts by frequency while it is
   positive. The one-bucket lists are bucket 0; the frequency lists have
   one bucket per access count. *)
type 'a t = {
  capacity : int;
  fetch : int -> 'a option -> 'a;
  write_back : (int * 'a) list -> unit;
  mutable index : 'a frame option array;
  mutable links : int array;  (* [link_stride] ints per page id *)
  recency : Id_list.t;
  dirtied : Id_list.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty_write_backs : int;
  mutable trace : (Obs.Event.t -> unit) option;
  adaptive : bool;
  mutable dueling : bool;
  mutable node : int array;  (* [stride] ints per page id *)
  mutable clock : int;
  mutable until_halving : int;
  lru_shadow : Id_list.t;
  lfu_shadow : Id_list.t;
  by_count : Id_list.t;
  window : int array;
  mutable window_pos : int;
  mutable lfu_lead : int;
}

(* The duel compares the shadows' misses over the last ten pool-fulls of
   accesses: long enough that a burst of once-touched pages does not
   flip the rule, short enough to follow a change of phase. *)
let duel_window capacity = 10 * capacity

(* Every fifty pool-fulls of accesses all counts halve, so a page that
   was hot long ago does not hold a frame against today's hot pages. The
   halving keeps every count below 2 × [halving_period], so the
   frequency lists stop growing buckets at that length, however long
   the run. *)
let halving_period capacity = 50 * capacity

(* Count and stamp 0, and a member of no list. *)
let fresh_nodes pages =
  let node = Array.make (stride * pages) 0 in
  for p = 0 to pages - 1 do
    for list = 1 to 3 do
      node.((stride * p) + (2 * list)) <- Id_list.absent
    done
  done;
  node

let count_of t p = t.node.(stride * p)
let stamp_of t p = t.node.((stride * p) + 1)

let create ?(adaptive = true) ~capacity ~fetch ~write_back () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let pages = max 16 (2 * capacity) in
  {
    capacity;
    fetch;
    write_back;
    index = Array.make pages None;
    links = Array.make (link_stride * pages) 0;
    recency = Id_list.create ~stride:link_stride ~off:0 ~buckets:1;
    dirtied = Id_list.create ~stride:link_stride ~off:2 ~buckets:1;
    hits = 0;
    misses = 0;
    evictions = 0;
    dirty_write_backs = 0;
    trace = None;
    adaptive;
    dueling = false;
    (* A strict LRU pool keeps no shadows. *)
    node = fresh_nodes (if adaptive then pages else 0);
    clock = 0;
    until_halving = halving_period capacity;
    lru_shadow = Id_list.create ~stride ~off:2 ~buckets:1;
    lfu_shadow = Id_list.create ~stride ~off:4 ~buckets:pages;
    by_count = Id_list.create ~stride ~off:6 ~buckets:pages;
    window = Array.make (if adaptive then duel_window capacity else 0) 0;
    window_pos = 0;
    lfu_lead = 0;
  }

let set_trace t trace = t.trace <- trace

let lookup t key = if key >= 0 && key < Array.length t.index then t.index.(key) else None
let contains t key = match lookup t key with Some _ -> true | None -> false
let resident t p = Option.get t.index.(p)
let resident_count t = Id_list.size t.recency

let check_key fn key =
  if key < 0 then invalid_arg (Printf.sprintf "Buffer_pool.%s: negative page id %d" fn key)

(* Page ids are handed out from 0 in sequence, so an array indexed by
   page id doubles until it covers the key and stays proportional to the
   ids in use. *)
let rec covering key n = if key < n then n else covering key (2 * n)

let add_frame t key value =
  let len = Array.length t.index in
  if key >= len then begin
    let pages = covering key (2 * len) in
    let index = Array.make pages None and links = Array.make (link_stride * pages) 0 in
    Array.blit t.index 0 index 0 len;
    Array.blit t.links 0 links 0 (link_stride * len);
    t.index <- index;
    t.links <- links
  end;
  let f = { key; value; dirty = false; pins = 0; used = false } in
  t.index.(key) <- Some f;
  Id_list.add t.links t.recency key 0;
  f

(* A frame leaves clean: [evict_one] writes it back first, and
   [drop_all] flushes first. *)
let remove_frame t f =
  t.index.(f.key) <- None;
  Id_list.remove t.links t.recency f.key 0;
  if t.dueling && f.used then Id_list.remove t.node t.by_count f.key (count_of t f.key)

(* Every dirty-flag transition goes through here, which keeps the dirty
   list exact. *)
let set_dirty t f v =
  if f.dirty <> v then begin
    f.dirty <- v;
    if v then Id_list.add t.links t.dirtied f.key 0
    else Id_list.remove t.links t.dirtied f.key 0
  end

let touch t f = Id_list.move t.links t.recency f.key ~from:0 0

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

(* [node] grows like the index. *)
let cover t key =
  let old = t.node in
  t.node <- fresh_nodes (covering key (2 * (Array.length old / stride)));
  Array.blit old 0 t.node 0 (Array.length old)

(* One access of [key] in each shadow; each returns whether it missed. *)
let lru_shadow_misses t key =
  let l = t.lru_shadow and node = t.node in
  if Id_list.mem node l key then begin
    Id_list.move node l key ~from:0 0;
    false
  end
  else begin
    if Id_list.size l >= t.capacity then Id_list.remove node l (Id_list.tail l 0) 0;
    Id_list.add node l key 0;
    true
  end

let lfu_shadow_misses t key count =
  let l = t.lfu_shadow and node = t.node in
  if Id_list.mem node l key then begin
    Id_list.move node l key ~from:(count - 1) count;
    false
  end
  else begin
    if Id_list.size l >= t.capacity then begin
      let b = Id_list.lowest l in
      Id_list.remove node l (Id_list.tail l b) b
    end;
    Id_list.add node l key count;
    true
  end

let halve t =
  let node = t.node in
  for p = 0 to (Array.length node / stride) - 1 do
    node.(stride * p) <- node.(stride * p) / 2
  done;
  Id_list.halve node t.lfu_shadow ~stamp:(stamp_of t);
  Id_list.halve node t.by_count ~stamp:(stamp_of t);
  t.until_halving <- halving_period t.capacity

(* The duel starts at the first miss in a full pool. Until then both
   shadows would hold exactly the keys seen, unless a [drop_all] emptied
   the pool, so they would hit and miss together and never lead. They
   are built then from the resident frames: the LRU shadow in the pool's
   recency order, which is its own since it sees [promote] as the pool
   does, and the frequency lists in stamp order, theirs. Before, only
   counts and stamps are kept: a pool that never fills pays almost
   nothing for the duel. *)
let start_duel t =
  t.dueling <- true;
  let ids = Array.make (resident_count t) 0 in
  let rec seed i p =
    if p <> Id_list.nil then begin
      ids.(i) <- p;
      Id_list.add t.node t.lru_shadow p 0;
      seed (i + 1) (Id_list.prev t.links t.recency p)
    end
  in
  seed 0 (Id_list.tail t.recency 0);
  Array.sort (fun a b -> Int.compare (stamp_of t a) (stamp_of t b)) ids;
  Array.iter
    (fun p ->
      let c = count_of t p in
      Id_list.add t.node t.lfu_shadow p c;
      if (resident t p).used then Id_list.add t.node t.by_count p c)
    ids

(* Every [with_page] and every [preload] that inserts feeds both shadows
   and the duel. Constant time but for a halving, which is linear in the
   page ids and the highest count, once per [halving_period]. *)
let access t key =
  if stride * key >= Array.length t.node then cover t key;
  let i = stride * key and node = t.node in
  let count = node.(i) + 1 in
  node.(i) <- count;
  t.clock <- t.clock + 1;
  node.(i + 1) <- t.clock;
  if (not t.dueling) && resident_count t >= t.capacity && not (contains t key) then
    start_duel t;
  if t.dueling then begin
    let lead =
      Bool.to_int (lru_shadow_misses t key) - Bool.to_int (lfu_shadow_misses t key count)
    in
    if Id_list.mem node t.by_count key then
      Id_list.move node t.by_count key ~from:(count - 1) count;
    let pos = t.window_pos in
    t.lfu_lead <- t.lfu_lead + lead - t.window.(pos);
    t.window.(pos) <- lead;
    t.window_pos <- (if pos + 1 = Array.length t.window then 0 else pos + 1)
  end;
  t.until_halving <- t.until_halving - 1;
  if t.until_halving = 0 then halve t

(* A frame enters the frequency order at its first use: a miss's fetch,
   or the first hit after its [preload]. *)
let note_use t f =
  if not f.used then begin
    f.used <- true;
    if t.dueling then Id_list.add t.node t.by_count f.key (count_of t f.key)
  end

(* The lowest-count frame that is unpinned, clean and used since it came
   in, the least recent of those; [Id_list.nil] if there is none. *)
let rec lfu_bucket t b =
  if b >= Id_list.buckets t.by_count then Id_list.nil
  else lfu_scan t b (Id_list.tail t.by_count b)

and lfu_scan t b p =
  if p = Id_list.nil then lfu_bucket t (b + 1)
  else
    let f = resident t p in
    if f.pins = 0 && not f.dirty then p else lfu_scan t b (Id_list.prev t.node t.by_count p)

let rec lru_scan t p =
  if p = Id_list.nil then failwith "Buffer_pool: all frames are pinned"
  else
    let f = resident t p in
    if f.pins = 0 then f else lru_scan t (Id_list.prev t.links t.recency p)

let victim t =
  let lfu = if t.lfu_lead > 0 then lfu_bucket t (Id_list.lowest t.by_count) else Id_list.nil in
  if lfu = Id_list.nil then lru_scan t (Id_list.tail t.recency 0) else resident t lfu

(* Evict the frame [victim] picks; returns its value. *)
let evict_one t =
  let victim = victim t in
  write_back_frame t victim;
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
      if t.adaptive then begin
        access t key;
        note_use t f
      end;
      touch t f;
      f
  | None ->
      check_key "with_page" key;
      t.misses <- t.misses + 1;
      if t.adaptive then access t key;
      (* A full pool hands the evicted value to [fetch] for reuse. *)
      let evicted = if resident_count t >= t.capacity then Some (evict_one t) else None in
      let f = add_frame t key (t.fetch key evicted) in
      if t.adaptive then note_use t f;
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
    if t.adaptive then access t key;
    if resident_count t >= t.capacity then ignore (evict_one t : 'a);
    ignore (add_frame t key value : 'a frame)
  end

(* Bump a resident page to MRU without fetching — the prefetch path uses
   this so preloading a batch's missing pages cannot evict the batch's
   already-resident ones. The LRU shadow takes the bump as the pool does;
   the counts and the LFU shadow do not see it. *)
let promote t key =
  match lookup t key with
  | Some f ->
      touch t f;
      if t.dueling && Id_list.mem t.node t.lru_shadow key then
        Id_list.move t.node t.lru_shadow key ~from:0 0
  | None -> ()

let find t key = match lookup t key with Some f -> Some f.value | None -> None

let is_dirty t key =
  match lookup t key with Some f -> f.dirty | None -> false

let capacity t = t.capacity
let evicts_by_frequency t = t.lfu_lead > 0
let cached = resident_count
let dirty_count t = Id_list.size t.dirtied

(* One batch, oldest-dirtied first: the dirty list is walked from its
   newest end, so consing builds the batch in order. If the callback
   raises, every frame stays dirty. *)
let flush_all t =
  let rec batch acc p =
    if p = Id_list.nil then acc
    else batch ((p, (resident t p).value) :: acc) (Id_list.next t.links t.dirtied p)
  in
  match batch [] (Id_list.head t.dirtied 0) with
  | [] -> ()
  | frames ->
      t.write_back frames;
      List.iter (fun (key, _) -> cleaned t (resident t key)) frames

(* Most-recently-used first; [g] may remove the frame it is given. *)
let iter_frames g t =
  let rec walk p =
    if p <> Id_list.nil then begin
      let next = Id_list.next t.links t.recency p in
      g (resident t p);
      walk next
    end
  in
  walk (Id_list.head t.recency 0)

let iter f = iter_frames (fun fr -> f fr.key fr.value ~dirty:fr.dirty)

let drop_all t =
  iter_frames (fun f -> if f.pins > 0 then failwith "Buffer_pool.drop_all: frame pinned") t;
  flush_all t;
  iter_frames (remove_frame t) t

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

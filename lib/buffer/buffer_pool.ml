type 'a frame = {
  key : int;
  value : 'a;
  mutable dirty : bool;
  mutable pins : int;
  mutable used : bool;  (* by a [with_page] since it came in *)
  mutable prev : 'a frame option;  (* towards MRU *)
  mutable next : 'a frame option;  (* towards LRU *)
  mutable dirty_prev : 'a frame option;  (* dirty list: towards older *)
  mutable dirty_next : 'a frame option;  (* dirty list: towards newer *)
  mutable self : 'a frame option;  (* [Some] of this frame, allocated once *)
}

type stats = { hits : int; misses : int; evictions : int; dirty_write_backs : int }

(* Per page id, [node] holds [stride] ints: the page's access count, the
   [clock] of its latest access, and its (prev, next) links on each of
   the three key lists below, at the list's offset. One page's state is
   one or two cache lines, where an array per field would cost eight. *)
let stride = 8

(* Page ids threaded on doubly linked lists, one list per bucket, most
   recent first. The LRU shadow is one bucket; the LFU shadow and the
   frequency order of the resident frames have one bucket per access
   count. Only a [link] into a bucket past the end allocates: it doubles
   the bucket arrays. The halving keeps every count below
   2 × [halving_period], so they stop growing at that length, however
   long the run. *)
module Keys = struct
  let nil = -1
  let absent = -2 (* the prev link of a page that is not a member *)

  type t = {
    off : int;  (* of the prev link in a page's [node] slots; next follows *)
    mutable head : int array;  (* by bucket *)
    mutable tail : int array;
    mutable size : int;
    mutable low : int;  (* every bucket below it is empty *)
  }

  let create ~off ~buckets =
    { off; head = Array.make buckets nil; tail = Array.make buckets nil; size = 0; low = 0 }

  let grow a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let prev node l p = node.((stride * p) + l.off)
  let mem node l p = prev node l p <> absent

  let link node l p b =
    if b >= Array.length l.head then begin
      let n = max (b + 1) (2 * Array.length l.head) in
      l.head <- grow l.head n nil;
      l.tail <- grow l.tail n nil
    end;
    let h = l.head.(b) and i = (stride * p) + l.off in
    node.(i) <- nil;
    node.(i + 1) <- h;
    if h = nil then l.tail.(b) <- p else node.((stride * h) + l.off) <- p;
    l.head.(b) <- p;
    if b < l.low then l.low <- b

  let unlink node l p b =
    let i = (stride * p) + l.off in
    let pr = node.(i) and nx = node.(i + 1) in
    if pr = nil then l.head.(b) <- nx else node.((stride * pr) + l.off + 1) <- nx;
    if nx = nil then l.tail.(b) <- pr else node.((stride * nx) + l.off) <- pr

  let add node l p b =
    link node l p b;
    l.size <- l.size + 1

  let remove node l p b =
    unlink node l p b;
    node.((stride * p) + l.off) <- absent;
    l.size <- l.size - 1

  let move node l p ~from b =
    unlink node l p from;
    link node l p b

  (* The lowest non-empty bucket, or the bucket count when all are empty.
     [low] falls only on a [link]; the climb over buckets emptied since
     is bounded by the highest count, and averages 0.8 to 1.3 buckets a
     call on perfbench's workloads (EXPERIMENTS.md E38). *)
  let lowest l =
    let n = Array.length l.head in
    while l.low < n && l.head.(l.low) = nil do
      l.low <- l.low + 1
    done;
    l.low

  let stamp node p = node.((stride * p) + 1)

  let rec merge node l k a b =
    if a <> nil || b <> nil then
      if b = nil || (a <> nil && stamp node a < stamp node b) then begin
        let rest = prev node l a in
        link node l a k;
        merge node l k rest b
      end
      else begin
        let rest = prev node l b in
        link node l b k;
        merge node l k a rest
      end

  (* Every member's bucket [b] becomes [b / 2]: buckets [2k] and [2k+1]
     merge into [k] by stamp, so each stays most recent first. Bucket
     [k] is rebuilt only after its old members went to [k / 2]. *)
  let halve node l =
    let n = Array.length l.head in
    for k = 0 to n - 1 do
      let a = if 2 * k < n then l.tail.(2 * k) else nil in
      let b = if (2 * k) + 1 < n then l.tail.((2 * k) + 1) else nil in
      l.head.(k) <- nil;
      l.tail.(k) <- nil;
      merge node l k a b
    done;
    l.low <- 0
end

(* The resident frames are found through [index], a dense array indexed
   by page id, and threaded on the LRU list from [mru] to [lru]. The
   dirty frames are also threaded, in the order they became dirty, on an
   intrusive list from [dirty_old] to [dirty_new], so [flush_all] visits
   only them.

   An adaptive pool also keeps two key-only shadow directories of its
   own capacity, fed by every access: [lru_shadow], a strict LRU, and
   [lfu_shadow], which evicts its lowest-count key, the least recent of
   those. Counts are kept for every page id, resident or not. The
   resident frames used since they came in are threaded on [by_count] by
   the same counts. [window] holds, for each of the last [duel_window]
   accesses, the LRU shadow's miss minus the LFU shadow's, and
   [lfu_lead] is their sum: the pool evicts by frequency while it is
   positive. *)
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
  adaptive : bool;
  mutable dueling : bool;
  mutable node : int array;  (* [stride] ints per page id *)
  mutable clock : int;
  mutable until_halving : int;
  lru_shadow : Keys.t;
  lfu_shadow : Keys.t;
  by_count : Keys.t;
  window : int array;
  mutable window_pos : int;
  mutable lfu_lead : int;
}

(* The duel compares the shadows' misses over the last ten pool-fulls of
   accesses: long enough that a burst of once-touched pages does not
   flip the rule, short enough to follow a change of phase. *)
let duel_window capacity = 10 * capacity

(* Every fifty pool-fulls of accesses all counts halve, so a page that
   was hot long ago does not hold a frame against today's hot pages. *)
let halving_period capacity = 50 * capacity

(* Count and stamp 0, and a member of no list. *)
let fresh_nodes pages =
  let node = Array.make (stride * pages) 0 in
  for p = 0 to pages - 1 do
    for list = 1 to 3 do
      node.((stride * p) + (2 * list)) <- Keys.absent
    done
  done;
  node

let count_of t p = t.node.(stride * p)

let create ?(adaptive = true) ~capacity ~fetch ~write_back () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let pages = max 16 (2 * capacity) in
  {
    capacity;
    fetch;
    write_back;
    index = Array.make pages None;
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
    adaptive;
    dueling = false;
    (* A strict LRU pool keeps no shadows. *)
    node = fresh_nodes (if adaptive then pages else 0);
    clock = 0;
    until_halving = halving_period capacity;
    lru_shadow = Keys.create ~off:2 ~buckets:1;
    lfu_shadow = Keys.create ~off:4 ~buckets:pages;
    by_count = Keys.create ~off:6 ~buckets:pages;
    window = Array.make (if adaptive then duel_window capacity else 0) 0;
    window_pos = 0;
    lfu_lead = 0;
  }

let set_trace t trace = t.trace <- trace

let lookup t key = if key >= 0 && key < Array.length t.index then t.index.(key) else None
let contains t key = match lookup t key with Some _ -> true | None -> false

let check_key fn key =
  if key < 0 then invalid_arg (Printf.sprintf "Buffer_pool.%s: negative page id %d" fn key)

(* Page ids are handed out from 0 in sequence, so an array indexed by
   page id doubles until it covers the key and stays proportional to the
   ids in use. *)
let rec covering key n = if key < n then n else covering key (2 * n)

let index_frame t f =
  let len = Array.length t.index in
  if f.key >= len then begin
    let index = Array.make (covering f.key (2 * len)) None in
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
      used = false;
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
  t.resident <- t.resident - 1;
  if t.dueling && f.used then Keys.remove t.node t.by_count f.key (count_of t f.key)

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

(* [node] grows like the index. *)
let cover t key =
  let old = t.node in
  t.node <- fresh_nodes (covering key (2 * (Array.length old / stride)));
  Array.blit old 0 t.node 0 (Array.length old)

(* One access of [key] in each shadow; each returns whether it missed. *)
let lru_shadow_misses t key =
  let l = t.lru_shadow and node = t.node in
  if Keys.mem node l key then begin
    if l.Keys.head.(0) <> key then Keys.move node l key ~from:0 0;
    false
  end
  else begin
    if l.Keys.size >= t.capacity then Keys.remove node l l.Keys.tail.(0) 0;
    Keys.add node l key 0;
    true
  end

let lfu_shadow_misses t key count =
  let l = t.lfu_shadow and node = t.node in
  if Keys.mem node l key then begin
    Keys.move node l key ~from:(count - 1) count;
    false
  end
  else begin
    if l.Keys.size >= t.capacity then begin
      let b = Keys.lowest l in
      Keys.remove node l l.Keys.tail.(b) b
    end;
    Keys.add node l key count;
    true
  end

let halve t =
  let node = t.node in
  for p = 0 to (Array.length node / stride) - 1 do
    node.(stride * p) <- node.(stride * p) / 2
  done;
  Keys.halve node t.lfu_shadow;
  Keys.halve node t.by_count;
  t.until_halving <- halving_period t.capacity

(* The duel starts at the first miss in a full pool. Until then both
   shadows would hold exactly the keys seen, unless a [drop_all] emptied
   the pool, so they would hit and miss together and never lead. They
   are built then from the resident frames, least recent first, which is
   their own order too unless [promote] reordered frames. Before, only
   counts and stamps are kept: a pool that never fills pays almost
   nothing for the duel. *)
let start_duel t =
  t.dueling <- true;
  let rec seed = function
    | None -> ()
    | Some f ->
        let c = count_of t f.key in
        Keys.add t.node t.lru_shadow f.key 0;
        Keys.add t.node t.lfu_shadow f.key c;
        if f.used then Keys.add t.node t.by_count f.key c;
        seed f.prev
  in
  seed t.lru

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
  if (not t.dueling) && t.resident >= t.capacity && not (contains t key) then start_duel t;
  if t.dueling then begin
    let lead =
      Bool.to_int (lru_shadow_misses t key) - Bool.to_int (lfu_shadow_misses t key count)
    in
    if Keys.mem node t.by_count key then Keys.move node t.by_count key ~from:(count - 1) count;
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
    if t.dueling then Keys.add t.node t.by_count f.key (count_of t f.key)
  end

(* The lowest-count frame that is unpinned, clean and used since it came
   in, the least recent of those; [Keys.nil] if there is none. *)
let rec lfu_bucket t b =
  let l = t.by_count in
  if b >= Array.length l.Keys.head then Keys.nil else lfu_scan t b l.Keys.tail.(b)

and lfu_scan t b p =
  if p = Keys.nil then lfu_bucket t (b + 1)
  else
    match t.index.(p) with
    | Some f when f.pins = 0 && not f.dirty -> p
    | _ -> lfu_scan t b (Keys.prev t.node t.by_count p)

let lfu_victim t = lfu_bucket t (Keys.lowest t.by_count)

let rec lru_victim = function
  | None -> failwith "Buffer_pool: all frames are pinned"
  | Some f -> if f.pins = 0 then f else lru_victim f.prev

let victim t =
  if t.lfu_lead > 0 then
    match lfu_victim t with
    | p when p = Keys.nil -> lru_victim t.lru
    | p -> Option.get t.index.(p)
  else lru_victim t.lru

(* Evict the frame [victim] picks; returns its value. *)
let evict_one t =
  let victim = victim t in
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
      let evicted = if t.resident >= t.capacity then Some (evict_one t) else None in
      let f = add_frame t key (t.fetch key evicted) in
      push_front t f;
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
let evicts_by_frequency t = t.lfu_lead > 0
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
  let rec remove = function
    | None -> ()
    | Some f ->
        remove_frame t f;
        remove f.next
  in
  check t.mru;
  flush_all t;
  remove t.mru;
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

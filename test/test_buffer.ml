(* Tests for the buffer pool: its frames, dirty tracking and write-back,
   and the duel between its LRU and LFU shadows that picks the victim. *)

module Pool = Bufmgr.Buffer_pool

let mk ?(capacity = 3) () =
  let fetched = ref [] and written = ref [] in
  let pool =
    Pool.create ~capacity
      ~fetch:(fun k _ ->
        fetched := k :: !fetched;
        ref (k * 10))
      ~write_back:(List.iter (fun (k, v) -> written := (k, !v) :: !written))
      ()
  in
  (pool, fetched, written)

let test_fetch_on_miss_then_hit () =
  let pool, fetched, _ = mk () in
  let v = Pool.with_page pool 1 (fun v -> !v) in
  Alcotest.(check int) "value" 10 v;
  ignore (Pool.with_page pool 1 (fun v -> !v));
  Alcotest.(check (list int)) "fetched once" [ 1 ] !fetched;
  let s = Pool.stats pool in
  Alcotest.(check int) "hits" 1 s.Pool.hits;
  Alcotest.(check int) "misses" 1 s.Pool.misses

(* With no frequency skew the shadows miss alike, and the victim is the
   least recently used frame. *)
let test_lru_order_while_shadows_tie () =
  let pool, fetched, _ = mk ~capacity:2 () in
  ignore (Pool.with_page pool 1 (fun _ -> ()));
  ignore (Pool.with_page pool 2 (fun _ -> ()));
  ignore (Pool.with_page pool 1 (fun _ -> ()));
  (* touch 1: now 2 is LRU *)
  ignore (Pool.with_page pool 3 (fun _ -> ()));
  (* evicts 2 *)
  Alcotest.(check bool) "1 cached" true (Pool.contains pool 1);
  Alcotest.(check bool) "2 evicted" false (Pool.contains pool 2);
  Alcotest.(check bool) "3 cached" true (Pool.contains pool 3);
  ignore (Pool.with_page pool 2 (fun _ -> ()));
  Alcotest.(check (list int)) "refetch order" [ 2; 3; 2; 1 ] !fetched

let test_dirty_write_back_on_eviction () =
  let pool, _, written = mk ~capacity:1 () in
  ignore (Pool.with_page pool 5 ~dirty:true (fun v -> v := 99));
  ignore (Pool.with_page pool 6 (fun _ -> ()));
  Alcotest.(check (list (pair int int))) "written on evict" [ (5, 99) ] !written

let test_clean_eviction_no_write_back () =
  let pool, _, written = mk ~capacity:1 () in
  ignore (Pool.with_page pool 5 (fun _ -> ()));
  ignore (Pool.with_page pool 6 (fun _ -> ()));
  Alcotest.(check (list (pair int int))) "no write back" [] !written

let test_flush_all () =
  let pool, _, written = mk () in
  ignore (Pool.with_page pool 1 ~dirty:true (fun _ -> ()));
  ignore (Pool.with_page pool 2 ~dirty:true (fun _ -> ()));
  ignore (Pool.with_page pool 3 (fun _ -> ()));
  Pool.flush_all pool;
  Alcotest.(check int) "two write backs" 2 (List.length !written);
  Alcotest.(check int) "none dirty" 0 (Pool.dirty_count pool);
  Alcotest.(check int) "still cached" 3 (Pool.cached pool);
  (* Flushing again writes nothing. *)
  Pool.flush_all pool;
  Alcotest.(check int) "idempotent" 2 (List.length !written)

let test_drop_all () =
  let pool, _, written = mk () in
  ignore (Pool.with_page pool 1 ~dirty:true (fun _ -> ()));
  Pool.drop_all pool;
  Alcotest.(check int) "flushed" 1 (List.length !written);
  Alcotest.(check int) "empty" 0 (Pool.cached pool)

let test_pinned_not_evicted () =
  let pool, _, _ = mk ~capacity:2 () in
  Pool.with_page pool 1 (fun _ ->
      (* 1 is pinned during this nested work; filling the pool must evict 2,
         not 1. *)
      ignore (Pool.with_page pool 2 (fun _ -> ()));
      ignore (Pool.with_page pool 3 (fun _ -> ()));
      Alcotest.(check bool) "pinned stays" true (Pool.contains pool 1);
      Alcotest.(check bool) "unpinned evicted" false (Pool.contains pool 2))

let test_all_pinned_fails () =
  let pool, _, _ = mk ~capacity:1 () in
  Pool.with_page pool 1 (fun _ ->
      match Pool.with_page pool 2 (fun _ -> ()) with
      | () -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

let test_mark_dirty_and_clean () =
  let pool, _, written = mk () in
  ignore (Pool.with_page pool 1 (fun _ -> ()));
  Pool.mark_dirty pool 1;
  Alcotest.(check bool) "dirty" true (Pool.is_dirty pool 1);
  Alcotest.(check int) "dirty counted" 1 (Pool.dirty_count pool);
  (* Re-marking an already-dirty frame must not double-count. *)
  Pool.mark_dirty pool 1;
  Alcotest.(check int) "idempotent mark" 1 (Pool.dirty_count pool);
  Pool.clean pool 1;
  Alcotest.(check bool) "cleaned" false (Pool.is_dirty pool 1);
  Alcotest.(check int) "dirty uncounted" 0 (Pool.dirty_count pool);
  Pool.flush_all pool;
  Alcotest.(check int) "clean suppressed write back" 0 (List.length !written);
  Alcotest.check_raises "mark absent"
    (Invalid_argument "Buffer_pool.mark_dirty: page 99 is not cached") (fun () ->
      Pool.mark_dirty pool 99)

(* The incremental dirty counter must agree with a scan at every
   transition: mark, clean, write-back on eviction, flush_all. *)
let test_dirty_count_incremental () =
  let pool, _, _ = mk ~capacity:4 () in
  let scan_dirty () =
    let n = ref 0 in
    Pool.iter (fun _ _ ~dirty -> if dirty then incr n) pool;
    !n
  in
  let check_agree label =
    Alcotest.(check int) label (scan_dirty ()) (Pool.dirty_count pool)
  in
  ignore (Pool.with_page pool 1 ~dirty:true (fun _ -> ()));
  ignore (Pool.with_page pool 2 ~dirty:true (fun _ -> ()));
  ignore (Pool.with_page pool 3 (fun _ -> ()));
  check_agree "after writes";
  Alcotest.(check int) "two dirty" 2 (Pool.dirty_count pool);
  (* Fill past capacity: the LRU dirty frame is written back on eviction. *)
  ignore (Pool.with_page pool 4 (fun _ -> ()));
  ignore (Pool.with_page pool 5 (fun _ -> ()));
  check_agree "after eviction";
  Pool.flush_all pool;
  check_agree "after flush_all";
  Alcotest.(check int) "all clean" 0 (Pool.dirty_count pool)

let test_find_does_not_touch () =
  let pool, _, _ = mk ~capacity:2 () in
  ignore (Pool.with_page pool 1 (fun _ -> ()));
  ignore (Pool.with_page pool 2 (fun _ -> ()));
  (* Peek at 1: must NOT make it MRU. *)
  Alcotest.(check bool) "peek" true (Pool.find pool 1 <> None);
  ignore (Pool.with_page pool 3 (fun _ -> ()));
  Alcotest.(check bool) "1 still evicted first" false (Pool.contains pool 1)

let test_write_back_once_per_cleaning () =
  let pool, _, written = mk ~capacity:2 () in
  ignore (Pool.with_page pool 1 ~dirty:true (fun _ -> ()));
  Pool.flush_all pool;
  (* Evicting the now-clean frame must not write again. *)
  ignore (Pool.with_page pool 2 (fun _ -> ()));
  ignore (Pool.with_page pool 3 (fun _ -> ()));
  Alcotest.(check int) "single write back" 1 (List.length !written)

(* [fetch] is offered the value a miss just evicted, and only then: a miss
   with room, a hit and [preload] offer nothing. A recycled value becomes
   the new key's value, and a dirty victim is written back before [fetch]
   sees it. *)
let test_fetch_sees_evicted () =
  let events = ref [] in
  let pool =
    Pool.create ~capacity:2
      ~fetch:(fun k evicted ->
        events := `Fetch (k, Option.map (fun v -> !v) evicted) :: !events;
        match evicted with
        | Some v ->
            v := k * 10;
            v
        | None -> ref (k * 10))
      ~write_back:(List.iter (fun (k, _) -> events := `Write_back k :: !events))
      ()
  in
  let get k = Pool.with_page pool k (fun v -> !v) in
  Alcotest.(check int) "miss with room" 10 (get 1);
  Alcotest.(check int) "second miss with room" 20 (get 2);
  Alcotest.(check int) "hit" 10 (get 1);
  let two = Option.get (Pool.find pool 2) in
  Pool.with_page pool 3 ~dirty:true (fun v -> v := 33);
  Alcotest.(check bool) "victim recycled as the new value" true
    (Option.get (Pool.find pool 3) == two);
  Pool.preload pool 4 (ref 40);
  Alcotest.(check int) "dirty victim" 50 (get 5);
  Pool.drop_all pool;
  Alcotest.(check int) "miss after drop_all" 60 (get 6);
  let expected =
    [
      `Fetch (1, None);
      `Fetch (2, None);
      `Fetch (3, Some 20);
      `Write_back 3;
      `Fetch (5, Some 33);
      `Fetch (6, None);
    ]
  in
  let show = function
    | `Fetch (k, None) -> Printf.sprintf "fetch %d None" k
    | `Fetch (k, Some v) -> Printf.sprintf "fetch %d Some %d" k v
    | `Write_back k -> Printf.sprintf "write_back %d" k
  in
  Alcotest.(check (list string)) "fetch calls" (List.map show expected)
    (List.rev_map show !events)

let read v = !v

let minor_words g =
  let before = Gc.minor_words () in
  g ();
  Gc.minor_words () -. before

(* A hit on a resident page costs no allocation: no closure for the
   unpin, no hashing, no [Some] for the LRU links. *)
let test_resident_hit_allocates_nothing () =
  let pool, _, _ = mk ~capacity:4 () in
  List.iter (fun k -> ignore (Pool.with_page pool k read)) [ 1; 2; 3 ];
  let empty = minor_words (fun () -> ()) in
  let hits =
    minor_words (fun () ->
        for k = 1 to 3 do
          ignore (Pool.with_page pool k read : int);
          ignore (Pool.with_page pool k ~dirty:true read : int)
        done)
  in
  Alcotest.(check (float 0.)) "no minor words" empty hits;
  Alcotest.(check int) "all hits" 6 (Pool.stats pool).Pool.hits

let test_raising_callback_unpins () =
  let pool, _, _ = mk ~capacity:1 () in
  (match Pool.with_page pool 1 (fun _ -> failwith "boom") with
  | () -> Alcotest.fail "expected the callback's exception"
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  (* Page 1 is the only frame: a new page can come in only if it was
     unpinned. *)
  Alcotest.(check int) "evictable" 20 (Pool.with_page pool 2 read);
  Alcotest.(check bool) "evicted" false (Pool.contains pool 1)

(* The index covers page ids from 0: a negative id is refused before
   anything is fetched or counted, and a lookup of one finds nothing. A
   key far past the index grows it, and is a hit from then on. *)
let test_keys_outside_index () =
  let pool, fetched, written = mk ~capacity:3 () in
  let refused name g =
    match g () with
    | () -> Alcotest.failf "%s of a negative id accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "with_page" (fun () -> ignore (Pool.with_page pool (-5) read : int));
  refused "preload" (fun () -> Pool.preload pool (-5) (ref 0));
  Alcotest.(check int) "nothing fetched or counted" 0
    ((Pool.stats pool).Pool.misses + List.length !fetched);
  Alcotest.(check bool) "negative lookups miss" false
    (Pool.contains pool (-5) || Pool.is_dirty pool (-5) || Pool.find pool (-5) <> None);
  let far = 1_000_000 in
  List.iter (fun k -> ignore (Pool.with_page pool k ~dirty:true read)) [ 5; far; 2 ];
  Alcotest.(check int) "low hit" 50 (Pool.with_page pool 5 read);
  Alcotest.(check int) "far hit" (far * 10) (Pool.with_page pool far read);
  Alcotest.(check int) "two hits" 2 (Pool.stats pool).Pool.hits;
  Alcotest.(check int) "cached" 3 (Pool.cached pool);
  Alcotest.(check bool) "dirty" true (Pool.is_dirty pool far);
  Pool.clean pool far;
  Alcotest.(check bool) "cleaned" false (Pool.is_dirty pool far);
  Pool.mark_dirty pool far;
  Alcotest.(check (option int)) "find" (Some 50) (Option.map ( ! ) (Pool.find pool 5));
  (* With page 2 promoted, page 5 is the least recently used. *)
  Pool.promote pool 2;
  ignore (Pool.with_page pool 7 read);
  Alcotest.(check bool) "LRU evicted" false (Pool.contains pool 5);
  Alcotest.(check (list (pair int int))) "written back" [ (5, 50) ] !written;
  Alcotest.(check (list int)) "fetches" [ 7; 2; far; 5 ] !fetched

(* The index starts at 2 * capacity entries and doubles until it covers
   each new key; keys that came in before a growth must still be hits
   after it. *)
let test_index_growth_preserves_hits () =
  let pool, fetched, _ = mk ~capacity:8 () in
  let keys = [ 40; 3; 20; 100; 33; 64; 127 ] in
  List.iter (fun k -> ignore (Pool.with_page pool k read)) keys;
  List.iter (fun k -> Alcotest.(check int) "value" (k * 10) (Pool.with_page pool k read)) keys;
  Alcotest.(check int) "each fetched once" (List.length keys) (List.length !fetched);
  Alcotest.(check int) "hits" (List.length keys) (Pool.stats pool).Pool.hits

(* [flush_all] writes back exactly the dirty frames, in the order they
   became dirty: a model list appends a key when it turns dirty and drops
   it when an eviction or [clean] cleans it. *)
let test_flush_all_order () =
  let capacity = 8 in
  let model = ref [] in
  let written = ref [] in
  let pool =
    Pool.create ~capacity ~fetch:(fun k _ -> ref k)
      ~write_back:(List.iter (fun (k, _) -> written := k :: !written))
      ()
  in
  Pool.set_trace pool
    (Some
       (function
       | Obs.Event.Write_back { page } -> model := List.filter (( <> ) page) !model
       | _ -> ()));
  let rng = Ipl_util.Rng.of_int 11 in
  for _ = 1 to 500 do
    let k = Ipl_util.Rng.int rng 300 in
    match Ipl_util.Rng.int rng 8 with
    | 0 ->
        Pool.clean pool k;
        model := List.filter (( <> ) k) !model
    | r ->
        let dirty = r <= 3 in
        if dirty && not (Pool.is_dirty pool k) then model := !model @ [ k ];
        ignore (Pool.with_page pool k ~dirty read)
  done;
  let expected = !model in
  written := [];
  Pool.flush_all pool;
  Alcotest.(check (list int)) "dirtied order" expected (List.rev !written);
  Alcotest.(check int) "none dirty" 0 (Pool.dirty_count pool);
  Alcotest.(check bool) "some written" true (List.length expected > 1)

(* [flush_all] hands every dirty frame to one [write_back] call,
   oldest-dirtied first, and counts one write-back and one [Write_back]
   event per frame; with nothing dirty it calls nothing. An eviction
   hands over its one frame. A raising callback cleans nothing. *)
let test_flush_all_one_batch () =
  let batches = ref [] and events = ref [] and failing = ref false in
  let pool =
    Pool.create ~capacity:4 ~fetch:(fun k _ -> ref k)
      ~write_back:(fun batch ->
        if !failing then failwith "write-back failed";
        batches := List.map fst batch :: !batches)
      ()
  in
  Pool.set_trace pool
    (Some (function Obs.Event.Write_back { page } -> events := page :: !events | _ -> ()));
  let touch ?dirty k = Pool.with_page pool k ?dirty ignore in
  List.iter (touch ~dirty:true) [ 3; 1; 2; 1 ];
  touch 4;
  Pool.flush_all pool;
  Alcotest.(check (list (list int))) "one batch, oldest-dirtied first" [ [ 3; 1; 2 ] ] !batches;
  Alcotest.(check (list int)) "one event per frame" [ 3; 1; 2 ] (List.rev !events);
  Alcotest.(check int) "one write-back per frame" 3 (Pool.stats pool).Pool.dirty_write_backs;
  Alcotest.(check int) "all clean" 0 (Pool.dirty_count pool);
  Pool.flush_all pool;
  Alcotest.(check int) "nothing dirty, no call" 1 (List.length !batches);
  (* LRU order is now 2, 1, 3, 4 (least recent first): 2 and 1 leave
     clean, then 3 is evicted dirty. *)
  List.iter (touch ~dirty:true) [ 3; 4 ];
  List.iter touch [ 5; 6; 7 ];
  Alcotest.(check (list (list int))) "eviction: its frame alone" [ [ 3 ]; [ 3; 1; 2 ] ] !batches;
  Alcotest.(check int) "write-backs" 4 (Pool.stats pool).Pool.dirty_write_backs;
  failing := true;
  (match Pool.flush_all pool with
  | () -> Alcotest.fail "the callback's failure must surface"
  | exception Failure _ -> ());
  Alcotest.(check bool) "frame still dirty" true (Pool.is_dirty pool 4);
  Alcotest.(check int) "no write-back counted" 4 (Pool.stats pool).Pool.dirty_write_backs;
  Alcotest.(check int) "no event" 4 (List.length !events)

(* The duel. [skewed pool ~rounds] touches a hot page and then a burst
   of [capacity + 1] pages never seen before, [rounds] times. The burst
   pushes the hot page out of an LRU directory every round; the LFU
   shadow keeps it once its count passes theirs, so the pool turns to
   frequency after a few rounds. Cold page ids start at 1000 and are
   handed out in order. *)
let hot = 0

let skewed pool ~rounds =
  let next = ref 1000 in
  let fresh () =
    incr next;
    !next
  in
  for _ = 1 to rounds do
    Pool.with_page pool hot ignore;
    for _ = 0 to Pool.capacity pool do
      Pool.with_page pool (fresh ()) ignore
    done
  done;
  fresh

let counting_pool ?adaptive ~capacity () =
  let fetched = Hashtbl.create 16 and written = ref [] in
  let pool =
    Pool.create ?adaptive ~capacity
      ~fetch:(fun k _ ->
        Hashtbl.replace fetched k (1 + Option.value ~default:0 (Hashtbl.find_opt fetched k));
        ref k)
      ~write_back:(List.iter (fun (k, _) -> written := k :: !written))
      ()
  in
  let fetches k = Option.value ~default:0 (Hashtbl.find_opt fetched k) in
  (pool, fetches, written)

(* A hot page survives the bursts of once-touched pages once the LFU
   shadow leads; a strict LRU pool refetches it every round. *)
let test_hot_page_survives_burst () =
  let run adaptive =
    let pool, fetches, _ = counting_pool ~adaptive ~capacity:4 () in
    ignore (skewed pool ~rounds:4 : unit -> int);
    let warm = fetches hot in
    ignore (skewed pool ~rounds:6 : unit -> int);
    (pool, fetches hot - warm)
  in
  let pool, refetched = run true in
  Alcotest.(check bool) "frequency leads" true (Pool.evicts_by_frequency pool);
  Alcotest.(check int) "hot page never refetched" 0 refetched;
  Alcotest.(check bool) "hot page resident after a burst" true (Pool.contains pool hot);
  let lru, lru_refetched = run false in
  Alcotest.(check bool) "strict LRU never leads by frequency" false (Pool.evicts_by_frequency lru);
  Alcotest.(check int) "strict LRU refetches every round" 6 lru_refetched

(* A recency stream with next-transaction prefetch, as the engine's
   batched read-ahead drives it: transaction [n] touches pages [n] to
   [n + 3], and before it runs, its pages are promoted if resident and
   preloaded if not. Pages age out after four transactions, so the LFU
   shadow, holding on to the old pages' counts, misses more, and the
   eviction order equals a strict LRU pool's. *)
let test_recency_stream_evicts_as_lru () =
  let evictions adaptive =
    let evicted = ref [] in
    let pool = Pool.create ~adaptive ~capacity:6 ~fetch:(fun k _ -> k) ~write_back:ignore () in
    Pool.set_trace pool
      (Some (function Obs.Event.Evict { page } -> evicted := page :: !evicted | _ -> ()));
    for n = 0 to 300 do
      for p = n to n + 3 do
        if Pool.contains pool p then Pool.promote pool p else Pool.preload pool p p
      done;
      for p = n to n + 3 do
        Pool.with_page pool p ~dirty:(p mod 3 = 0) ignore
      done;
      Alcotest.(check bool) "recency leads" false (Pool.evicts_by_frequency pool)
    done;
    List.rev !evicted
  in
  let adaptive = evictions true in
  Alcotest.(check bool) "the stream evicts" true (List.length adaptive > 250);
  Alcotest.(check (list int)) "LRU eviction order" (evictions false) adaptive

(* While frequency leads, a preloaded frame is not a victim before its
   first use, though it is the least recent frame with the lowest count;
   a strict LRU pool evicts it. *)
let test_preload_kept_until_used () =
  let run adaptive =
    let pool, fetches, _ = counting_pool ~adaptive ~capacity:4 () in
    let fresh = skewed pool ~rounds:10 in
    let early = fresh () in
    Pool.preload pool early (ref early);
    for _ = 1 to Pool.capacity pool do
      Pool.with_page pool (fresh ()) ignore
    done;
    let leads = Pool.evicts_by_frequency pool in
    Pool.with_page pool early ignore;
    (leads, fetches early)
  in
  Alcotest.(check (pair bool int)) "adaptive: kept, a hit on first use" (true, 0) (run true);
  Alcotest.(check (pair bool int)) "strict LRU: evicted and refetched" (false, 1) (run false)

(* While frequency leads, the clean frame goes before an older dirty one
   of the same count, so the eviction writes nothing back; a strict LRU
   pool writes the dirty frame back. *)
let test_clean_before_dirty_under_lfu () =
  let run adaptive =
    let pool, _, written = counting_pool ~adaptive ~capacity:4 () in
    let fresh = skewed pool ~rounds:10 in
    let dirty = fresh () and clean = fresh () in
    Pool.with_page pool dirty ~dirty:true ignore;
    Pool.with_page pool clean ignore;
    let leads = Pool.evicts_by_frequency pool in
    for _ = 1 to 3 do
      Pool.with_page pool (fresh ()) ignore
    done;
    (leads, Pool.contains pool dirty, Pool.contains pool clean, !written)
  in
  let result = Alcotest.(pair bool (triple bool bool (list int))) in
  let leads, dirty_kept, clean_kept, written = run true in
  Alcotest.check result "adaptive: the clean frame goes" (true, (true, false, []))
    (leads, (dirty_kept, clean_kept, written));
  let leads, dirty_kept, _, written = run false in
  Alcotest.(check (pair bool bool)) "strict LRU: the dirty frame goes" (false, false)
    (leads, dirty_kept);
  Alcotest.(check int) "strict LRU writes it back" 1 (List.length written)

(* A miss allocates the new frame (six words), its [Some] in the index
   (two) and the [Some] that offers [fetch] the evicted value (two),
   whichever rule picks the victim: no more, with [fetch] recycling that
   value. The frame's list links live in the pool's int arrays, and keys
   stay inside the initial index, so no array grows. *)
let test_miss_allocation_bounded () =
  let pool =
    Pool.create ~capacity:4
      ~fetch:(fun k -> function Some v -> v | None -> ref k)
      ~write_back:ignore ()
  in
  (* Page 0, then a burst of five of pages 1..10 in turn: as in
     [skewed], only the LFU shadow keeps page 0. *)
  let pass () =
    for burst = 0 to 1 do
      Pool.with_page pool 0 ignore;
      for p = 1 to 5 do
        Pool.with_page pool ((5 * burst) + p) ignore
      done
    done
  in
  for _ = 1 to 20 do pass () done;
  Alcotest.(check bool) "frequency leads" true (Pool.evicts_by_frequency pool);
  let before = (Pool.stats pool).Pool.misses in
  let words = minor_words (fun () -> for _ = 1 to 20 do pass () done) in
  let misses = (Pool.stats pool).Pool.misses - before in
  Alcotest.(check bool) "the passes miss" true (misses > 50);
  let per_miss = words /. float_of_int misses in
  if per_miss > 11. then Alcotest.failf "%.2f words per miss" per_miss

(* A naive pool written from the documented rules: plain lists, a
   linear victim search, the same duel window and halving. [Pool] must
   match it call for call. *)
module Reference = struct
  type frame = { key : int; mutable dirty : bool; mutable pins : int; mutable used : bool }

  type t = {
    capacity : int;
    adaptive : bool;
    log : string list ref;  (* newest first *)
    mutable frames : frame list;  (* most recently used first *)
    mutable dirtied : int list;  (* oldest-dirtied first *)
    count : (int, int) Hashtbl.t;
    stamp : (int, int) Hashtbl.t;
    mutable accesses : int;
    mutable dueling : bool;
    mutable lru_shadow : int list;  (* most recent first *)
    mutable lfu_shadow : int list;
    mutable leads : int list;  (* newest first, at most a window *)
  }

  let create ~adaptive ~capacity log =
    {
      capacity;
      adaptive;
      log;
      frames = [];
      dirtied = [];
      count = Hashtbl.create 16;
      stamp = Hashtbl.create 16;
      accesses = 0;
      dueling = false;
      lru_shadow = [];
      lfu_shadow = [];
      leads = [];
    }

  let note t fmt = Printf.ksprintf (fun e -> t.log := e :: !(t.log)) fmt
  let get h k = Option.value ~default:0 (Hashtbl.find_opt h k)
  let find t k = List.find_opt (fun f -> f.key = k) t.frames
  let full t = List.length t.frames >= t.capacity
  let without x = List.filter (( <> ) x)
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

  (* The lowest count, the least recent of those. *)
  let least t keys =
    let rank k = (get t.count k, get t.stamp k) in
    List.fold_left (fun a k -> if compare (rank k) (rank a) < 0 then k else a) (List.hd keys) keys

  let lfu_lead t = List.fold_left ( + ) 0 t.leads

  let access t k =
    t.accesses <- t.accesses + 1;
    Hashtbl.replace t.count k (get t.count k + 1);
    Hashtbl.replace t.stamp k t.accesses;
    if (not t.dueling) && full t && find t k = None then begin
      t.dueling <- true;
      t.lru_shadow <- List.map (fun f -> f.key) t.frames;
      t.lfu_shadow <- t.lru_shadow
    end;
    if t.dueling then begin
      let lru_miss = not (List.mem k t.lru_shadow) in
      let kept = if lru_miss then take (t.capacity - 1) t.lru_shadow else without k t.lru_shadow in
      t.lru_shadow <- k :: kept;
      let lfu_miss = not (List.mem k t.lfu_shadow) in
      if lfu_miss then begin
        if List.length t.lfu_shadow >= t.capacity then
          t.lfu_shadow <- without (least t t.lfu_shadow) t.lfu_shadow;
        t.lfu_shadow <- k :: t.lfu_shadow
      end;
      t.leads <- take (10 * t.capacity) ((Bool.to_int lru_miss - Bool.to_int lfu_miss) :: t.leads)
    end;
    if t.accesses mod (50 * t.capacity) = 0 then
      Hashtbl.filter_map_inplace (fun _ c -> Some (c / 2)) t.count

  let set_dirty t f =
    if not f.dirty then begin
      f.dirty <- true;
      t.dirtied <- t.dirtied @ [ f.key ]
    end

  let cleaned t f =
    f.dirty <- false;
    t.dirtied <- without f.key t.dirtied;
    note t "write_back %d" f.key

  let evict t =
    let unpinned = List.filter (fun f -> f.pins = 0) t.frames in
    let keys =
      List.filter_map (fun f -> if f.used && not f.dirty then Some f.key else None) unpinned
    in
    let victim =
      if lfu_lead t > 0 && keys <> [] then Option.get (find t (least t keys))
      else
        match List.rev unpinned with
        | f :: _ -> f
        | [] -> failwith "all frames are pinned"
    in
    if victim.dirty then begin
      note t "batch [%d]" victim.key;
      cleaned t victim
    end;
    t.frames <- List.filter (( != ) victim) t.frames;
    note t "evict %d" victim.key;
    victim.key

  let with_page t k ~dirty g =
    let f =
      match find t k with
      | Some f ->
          if t.adaptive then access t k;
          f.used <- true;
          t.frames <- f :: List.filter (( != ) f) t.frames;
          f
      | None ->
          if t.adaptive then access t k;
          let evicted = if full t then Some (evict t) else None in
          note t "fetch %d %s" k (match evicted with Some v -> string_of_int v | None -> "-");
          let f = { key = k; dirty = false; pins = 0; used = true } in
          t.frames <- f :: t.frames;
          f
    in
    f.pins <- f.pins + 1;
    if dirty then set_dirty t f;
    g ();
    f.pins <- f.pins - 1

  let preload t k =
    if find t k = None then begin
      if t.adaptive then access t k;
      if full t then ignore (evict t : int);
      t.frames <- { key = k; dirty = false; pins = 0; used = false } :: t.frames
    end

  let promote t k =
    match find t k with
    | Some f ->
        t.frames <- f :: List.filter (( != ) f) t.frames;
        if List.mem k t.lru_shadow then t.lru_shadow <- k :: without k t.lru_shadow
    | None -> ()

  let clean t k =
    match find t k with
    | Some f ->
        f.dirty <- false;
        t.dirtied <- without k t.dirtied
    | None -> ()

  let mark_dirty t k =
    match find t k with Some f -> set_dirty t f | None -> invalid_arg "mark_dirty"

  let flush_all t =
    if t.dirtied <> [] then begin
      note t "batch [%s]" (String.concat ";" (List.map string_of_int t.dirtied));
      List.iter (fun k -> cleaned t (Option.get (find t k))) t.dirtied
    end

  let drop_all t =
    if List.exists (fun f -> f.pins > 0) t.frames then failwith "pinned";
    flush_all t;
    t.frames <- []
end

type pool_op =
  | With of int * bool * pool_op list  (* the inner calls run while it is pinned *)
  | Preload of int
  | Promote of int
  | Clean of int
  | Mark_dirty of int
  | Flush_all
  | Drop_all

let rec print_pool_op = function
  | With (k, d, inner) ->
      Printf.sprintf "with %d%s [%s]" k (if d then " dirty" else "")
        (String.concat "; " (List.map print_pool_op inner))
  | Preload k -> Printf.sprintf "preload %d" k
  | Promote k -> Printf.sprintf "promote %d" k
  | Clean k -> Printf.sprintf "clean %d" k
  | Mark_dirty k -> Printf.sprintf "mark_dirty %d" k
  | Flush_all -> "flush_all"
  | Drop_all -> "drop_all"

(* Keys are skewed towards a hot pair, so frequency can lead, with a few
   far ids that grow the index. *)
let gen_pool_ops =
  let open QCheck.Gen in
  let key = frequency [ (4, int_bound 1); (8, int_bound 14); (1, int_range 30 70) ] in
  let rec op depth =
    let nested =
      if depth = 0 then []
      else
        [
          ( 2,
            map3 (fun k d inner -> With (k, d, inner)) key bool
              (list_size (int_range 1 3) (op (depth - 1))) );
        ]
    in
    frequency
      (nested
      @ [
          (20, map2 (fun k d -> With (k, d, [])) key (frequency [ (3, return false); (1, return true) ]));
          (3, map (fun k -> Preload k) key);
          (2, map (fun k -> Promote k) key);
          (1, map (fun k -> Clean k) key);
          (1, map (fun k -> Mark_dirty k) key);
          (1, return Flush_all);
          (1, return Drop_all);
        ])
  in
  triple (int_range 1 5) bool (list_size (int_range 50 400) (op 2))

(* Runs [ops] on a pool and on the reference. After every call the log
   of fetches, write-back batches, write-backs and evictions, the [iter]
   order and [evicts_by_frequency] must agree, and a call that raises on
   one side must raise on the other. The calls nested in a [With] run
   while both sides hold its pin. Returns the evictions made while
   frequency led. *)
let run_against_reference (capacity, adaptive, ops) =
  let log = ref [] and ref_log = ref [] and by_frequency = ref 0 in
  let note fmt = Printf.ksprintf (fun e -> log := e :: !log) fmt in
  let keys batch = String.concat ";" (List.map (fun (k, _) -> string_of_int k) batch) in
  let pool =
    Pool.create ~adaptive ~capacity
      ~fetch:(fun k evicted ->
        note "fetch %d %s" k (match evicted with Some v -> string_of_int v | None -> "-");
        k)
      ~write_back:(fun batch -> note "batch [%s]" (keys batch))
      ()
  in
  Pool.set_trace pool
    (Some
       (function
       | Obs.Event.Write_back { page } -> note "write_back %d" page
       | Obs.Event.Evict { page } ->
           if Pool.evicts_by_frequency pool then incr by_frequency;
           note "evict %d" page
       | _ -> ()));
  let r = Reference.create ~adaptive ~capacity ref_log in
  let outcome g =
    match g () with () -> "ok" | exception (Failure _ | Invalid_argument _) -> "raised"
  in
  let both p q = (outcome p, outcome q) in
  let rec call op =
    let got, want =
      match op with
      | With (k, dirty, inner) ->
          (* The reference pins inside the pool's callback. If the pool
             raised before it, the reference runs on its own. *)
          let want = ref None in
          let nested () = List.iter call inner in
          let got =
            outcome (fun () ->
                Pool.with_page pool k ~dirty (fun v ->
                    assert (v = k);
                    want := Some (outcome (fun () -> Reference.with_page r k ~dirty nested))))
          in
          ( got,
            match !want with
            | Some w -> w
            | None -> outcome (fun () -> Reference.with_page r k ~dirty ignore) )
      | Preload k -> both (fun () -> Pool.preload pool k k) (fun () -> Reference.preload r k)
      | Promote k -> both (fun () -> Pool.promote pool k) (fun () -> Reference.promote r k)
      | Clean k -> both (fun () -> Pool.clean pool k) (fun () -> Reference.clean r k)
      | Mark_dirty k -> both (fun () -> Pool.mark_dirty pool k) (fun () -> Reference.mark_dirty r k)
      | Flush_all -> both (fun () -> Pool.flush_all pool) (fun () -> Reference.flush_all r)
      | Drop_all -> both (fun () -> Pool.drop_all pool) (fun () -> Reference.drop_all r)
    in
    let frames = ref [] in
    Pool.iter (fun k _ ~dirty -> frames := (k, dirty) :: !frames) pool;
    let ref_frames = List.map (fun f -> Reference.(f.key, f.dirty)) r.Reference.frames in
    if
      got <> want || !log <> !ref_log || List.rev !frames <> ref_frames
      || Pool.evicts_by_frequency pool <> (Reference.lfu_lead r > 0)
    then
      QCheck.Test.fail_reportf "after %s: %s vs %s\n  pool: %s\n  reference: %s"
        (print_pool_op op) got want
        (String.concat ", " (List.rev !log))
        (String.concat ", " (List.rev !ref_log))
  in
  List.iter call ops;
  !by_frequency

let prop_pool_matches_reference =
  QCheck.Test.make ~name:"pool = naive reference, call for call" ~count:300
    (QCheck.make
       ~print:(fun (c, a, ops) ->
         Printf.sprintf "capacity %d, adaptive %b: %s" c a
           (String.concat "; " (List.map print_pool_op ops)))
       gen_pool_ops)
    (fun case -> run_against_reference case >= 0)

(* The property is only as strong as the streams it is fed: over a fixed
   sample of them, frequency must lead at some evictions. *)
let test_reference_covers_frequency () =
  let rand = Random.State.make [| 38 |] in
  let by_frequency = ref 0 in
  for _ = 1 to 50 do
    let capacity, _, ops = QCheck.Gen.generate1 ~rand gen_pool_ops in
    by_frequency := !by_frequency + run_against_reference (capacity, true, ops)
  done;
  Alcotest.(check bool) "evictions by frequency" true (!by_frequency > 0)

(* Property: hit+miss accounting and capacity invariant under random access. *)
let prop_capacity_invariant =
  QCheck.Test.make ~name:"never exceeds capacity; stats consistent" ~count:100
    QCheck.(pair (int_range 1 8) (small_list (pair (int_bound 20) bool)))
    (fun (cap, accesses) ->
      let pool =
        Pool.create ~capacity:cap ~fetch:(fun k _ -> k) ~write_back:ignore ()
      in
      List.iter
        (fun (k, dirty) -> ignore (Pool.with_page pool k ~dirty (fun v -> v)))
        accesses;
      let s = Pool.stats pool in
      Pool.cached pool <= cap
      && s.Pool.hits + s.Pool.misses = List.length accesses
      && s.Pool.misses >= Pool.cached pool)

let () =
  Alcotest.run "bufmgr"
    [
      ( "buffer pool",
        [
          Alcotest.test_case "fetch then hit" `Quick test_fetch_on_miss_then_hit;
          Alcotest.test_case "LRU order while the shadows tie" `Quick
            test_lru_order_while_shadows_tie;
          Alcotest.test_case "dirty write back" `Quick test_dirty_write_back_on_eviction;
          Alcotest.test_case "clean no write back" `Quick test_clean_eviction_no_write_back;
          Alcotest.test_case "flush_all" `Quick test_flush_all;
          Alcotest.test_case "drop_all" `Quick test_drop_all;
          Alcotest.test_case "pinned not evicted" `Quick test_pinned_not_evicted;
          Alcotest.test_case "all pinned fails" `Quick test_all_pinned_fails;
          Alcotest.test_case "mark dirty / clean" `Quick test_mark_dirty_and_clean;
          Alcotest.test_case "dirty count incremental" `Quick test_dirty_count_incremental;
          Alcotest.test_case "find does not touch" `Quick test_find_does_not_touch;
          Alcotest.test_case "write back once" `Quick test_write_back_once_per_cleaning;
          Alcotest.test_case "fetch sees evicted" `Quick test_fetch_sees_evicted;
          Alcotest.test_case "resident hit allocates nothing" `Quick
            test_resident_hit_allocates_nothing;
          Alcotest.test_case "raising callback unpins" `Quick test_raising_callback_unpins;
          Alcotest.test_case "keys outside the index" `Quick test_keys_outside_index;
          Alcotest.test_case "index growth preserves hits" `Quick test_index_growth_preserves_hits;
          Alcotest.test_case "flush_all order" `Quick test_flush_all_order;
          Alcotest.test_case "flush_all is one batch" `Quick test_flush_all_one_batch;
          Alcotest.test_case "hot page survives a burst" `Quick test_hot_page_survives_burst;
          Alcotest.test_case "recency stream evicts as LRU" `Quick
            test_recency_stream_evicts_as_lru;
          Alcotest.test_case "preload kept until used" `Quick test_preload_kept_until_used;
          Alcotest.test_case "clean before dirty under LFU" `Quick
            test_clean_before_dirty_under_lfu;
          Alcotest.test_case "miss allocation bounded" `Quick test_miss_allocation_bounded;
          QCheck_alcotest.to_alcotest prop_capacity_invariant;
          QCheck_alcotest.to_alcotest prop_pool_matches_reference;
          Alcotest.test_case "reference covers the frequency rule" `Quick
            test_reference_covers_frequency;
        ] );
    ]

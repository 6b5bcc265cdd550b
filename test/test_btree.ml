(* Tests for the B+-tree built on IPL-managed pages. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module B = Btree.Bptree

let mk ?(blocks = 256) ?(buffer_pages = 64) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config = { Config.default with Config.buffer_pages } in
  let e = Engine.create ~config chip in
  (chip, config, e, B.create e)

let ok = function Ok () -> () | Error e -> Alcotest.failf "unexpected error: %s" e

let test_empty () =
  let _, _, _, t = mk () in
  Alcotest.(check (option int)) "find" None (B.find t 42);
  Alcotest.(check int) "cardinal" 0 (B.cardinal t);
  Alcotest.(check int) "height" 1 (B.height t);
  Alcotest.(check (option int)) "min" None (B.min_key t);
  Alcotest.(check (option int)) "max" None (B.max_key t);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

let test_insert_find () =
  let _, _, _, t = mk () in
  ok (B.insert t ~tx:Engine.no_txn ~key:5 ~value:50);
  ok (B.insert t ~tx:Engine.no_txn ~key:1 ~value:10);
  ok (B.insert t ~tx:Engine.no_txn ~key:9 ~value:90);
  Alcotest.(check (option int)) "find 5" (Some 50) (B.find t 5);
  Alcotest.(check (option int)) "find 1" (Some 10) (B.find t 1);
  Alcotest.(check (option int)) "find 9" (Some 90) (B.find t 9);
  Alcotest.(check (option int)) "absent" None (B.find t 7);
  Alcotest.(check bool) "mem" true (B.mem t 5);
  Alcotest.(check int) "cardinal" 3 (B.cardinal t)

let test_duplicate_and_set () =
  let _, _, _, t = mk () in
  ok (B.insert t ~tx:Engine.no_txn ~key:3 ~value:30);
  (match B.insert t ~tx:Engine.no_txn ~key:3 ~value:31 with
  | Error "duplicate key" -> ()
  | _ -> Alcotest.fail "expected duplicate error");
  ok (B.set t ~tx:Engine.no_txn ~key:3 ~value:33);
  Alcotest.(check (option int)) "overwritten" (Some 33) (B.find t 3);
  ok (B.set t ~tx:Engine.no_txn ~key:4 ~value:44);
  Alcotest.(check (option int)) "upserted" (Some 44) (B.find t 4)

let test_delete () =
  let _, _, _, t = mk () in
  for k = 1 to 20 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 10))
  done;
  ok (B.delete t ~tx:Engine.no_txn ~key:10);
  Alcotest.(check (option int)) "deleted" None (B.find t 10);
  Alcotest.(check int) "cardinal" 19 (B.cardinal t);
  (match B.delete t ~tx:Engine.no_txn ~key:10 with
  | Error "not found" -> ()
  | _ -> Alcotest.fail "expected not found");
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

let test_splits_and_growth () =
  let _, _, _, t = mk () in
  let n = 5_000 in
  for k = 1 to n do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 2))
  done;
  Alcotest.(check int) "cardinal" n (B.cardinal t);
  Alcotest.(check bool) "tree grew" true (B.height t >= 2);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t);
  for k = 1 to n do
    if B.find t k <> Some (k * 2) then Alcotest.failf "lost key %d" k
  done

let test_reverse_and_random_orders () =
  let _, _, _, t = mk () in
  let keys = Array.init 2000 (fun i -> i * 7) in
  Ipl_util.Rng.shuffle (Ipl_util.Rng.of_int 5) keys;
  Array.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k + 1))) keys;
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t);
  Alcotest.(check (option int)) "min" (Some 0) (B.min_key t);
  Alcotest.(check (option int)) "max" (Some (1999 * 7)) (B.max_key t);
  Array.iter
    (fun k -> if B.find t k <> Some (k + 1) then Alcotest.failf "lost key %d" k)
    keys

let test_range () =
  let _, _, _, t = mk () in
  for k = 0 to 999 do
    ok (B.insert t ~tx:Engine.no_txn ~key:(k * 2) ~value:k)
  done;
  let r = B.range t ~lo:10 ~hi:20 in
  Alcotest.(check (list (pair int int))) "range" [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ] r;
  Alcotest.(check int) "full range" 1000 (List.length (B.range t ~lo:min_int ~hi:max_int));
  Alcotest.(check (list (pair int int))) "empty range" [] (B.range t ~lo:11 ~hi:11)

let test_iter_sorted () =
  let _, _, _, t = mk () in
  let keys = Array.init 3000 (fun i -> i) in
  Ipl_util.Rng.shuffle (Ipl_util.Rng.of_int 17) keys;
  Array.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:k)) keys;
  let prev = ref (-1) and count = ref 0 in
  B.iter t (fun ~key ~value ->
      Alcotest.(check int) "value" key value;
      if key <= !prev then Alcotest.failf "out of order at %d" key;
      prev := key;
      incr count);
  Alcotest.(check int) "count" 3000 !count

let test_negative_keys () =
  let _, _, _, t = mk () in
  List.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 3))) [ -5; -1; 0; 3; -100 ];
  Alcotest.(check (option int)) "find -5" (Some (-15)) (B.find t (-5));
  Alcotest.(check (option int)) "find -100" (Some (-300)) (B.find t (-100));
  Alcotest.(check (option int)) "min" (Some (-100)) (B.min_key t)

let test_survives_restart () =
  let chip = Chip.create (FConfig.default ~num_blocks:256 ()) in
  let config = { Config.default with Config.buffer_pages = 32 } in
  let e = Engine.create ~config chip in
  let t = B.create e in
  for k = 1 to 1500 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 5))
  done;
  Engine.Unsafe.checkpoint e;
  let header = B.header_page t in
  let e', _ = Engine.restart ~config chip in
  let t' = B.attach e' ~header in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t');
  Alcotest.(check int) "cardinal" 1500 (B.cardinal t');
  for k = 1 to 1500 do
    if B.find t' k <> Some (k * 5) then Alcotest.failf "lost key %d after restart" k
  done

let test_transactional_abort_rolls_back_index () =
  let chip = Chip.create (FConfig.default ~num_blocks:256 ()) in
  let config = { Config.default with Config.buffer_pages = 32 } in
  let e = Engine.create ~config chip in
  let t = B.create e in
  for k = 1 to 100 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:k)
  done;
  let txi = Engine.Unsafe.begin_txn e in
  let tx = Engine.Unsafe.txn txi in
  ok (B.insert t ~tx ~key:1000 ~value:1);
  ok (B.delete t ~tx ~key:50);
  Engine.Unsafe.abort e txi;
  Alcotest.(check (option int)) "insert rolled back" None (B.find t 1000);
  Alcotest.(check (option int)) "delete rolled back" (Some 50) (B.find t 50);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

(* A hit on a resident two-level tree pins three pages (header, root,
   leaf) and searches both nodes in place. The buffer pool's pins
   allocate nothing; the bound leaves the engine's result wrappers and
   callbacks and no more. *)
let test_find_allocation () =
  let _, _, _, t = mk () in
  for k = 0 to 1_999 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 3))
  done;
  Alcotest.(check int) "two levels" 2 (B.height t);
  let probes = Array.init 100 (fun i -> i * 19) in
  Array.iter (fun k -> ignore (B.find t k)) probes;
  let before = Gc.minor_words () in
  let hits = Array.fold_left (fun n k -> if B.find t k = Some (k * 3) then n + 1 else n) 0 probes in
  let words = (Gc.minor_words () -. before) /. float_of_int (Array.length probes) in
  Alcotest.(check int) "every probe hits" (Array.length probes) hits;
  if words > 100. then Alcotest.failf "a find hit allocates %.1f words" words

(* Property: tree matches a model map under random insert/set/delete. *)
let prop_tree_vs_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun k v -> `Insert (k, v)) (int_bound 500) (int_bound 10_000));
          (2, map2 (fun k v -> `Set (k, v)) (int_bound 500) (int_bound 10_000));
          (2, map (fun k -> `Delete k) (int_bound 500));
        ])
  in
  QCheck.Test.make ~name:"btree matches model map" ~count:30
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) gen_op))
    (fun ops ->
      let _, _, _, t = mk ~blocks:128 ~buffer_pages:32 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) -> (
              match B.insert t ~tx:Engine.no_txn ~key:k ~value:v with
              | Ok () ->
                  assert (not (Hashtbl.mem model k));
                  Hashtbl.replace model k v
              | Error _ -> assert (Hashtbl.mem model k))
          | `Set (k, v) -> (
              match B.set t ~tx:Engine.no_txn ~key:k ~value:v with
              | Ok () -> Hashtbl.replace model k v
              | Error _ -> assert false)
          | `Delete k -> (
              match B.delete t ~tx:Engine.no_txn ~key:k with
              | Ok () ->
                  assert (Hashtbl.mem model k);
                  Hashtbl.remove model k
              | Error _ -> assert (not (Hashtbl.mem model k))))
        ops;
      B.check_invariants t = Ok ()
      && Hashtbl.fold (fun k v acc -> acc && B.find t k = Some v) model true
      && B.cardinal t = Hashtbl.length model)

(* The decode-and-sort search the tree used before it searched nodes in
   place: copy every entry of a node out of its page, sort the copies,
   then read the answer off the sorted array. Kept as the reference that
   the in-place search must agree with exactly. *)
module Reference = struct
  module Page = Storage.Page

  let pinned e pid f =
    match Engine.with_page e pid f with
    | Ok x -> x
    | Error err -> Alcotest.failf "with_page %d: %s" pid (Engine.error_to_string err)

  let read_node e pid =
    pinned e pid (fun p ->
        let meta = Option.get (Page.read p 0) in
        let is_leaf = Bytes.get_uint8 meta 1 = 1 in
        let next_leaf = Int32.to_int (Bytes.get_int32_le meta 2) land 0xFFFFFFFF in
        let entries = ref [] in
        Page.iter
          (fun slot data ->
            if slot <> 0 then
              entries :=
                ( Int64.to_int (Bytes.get_int64_le data 0),
                  Int64.to_int (Bytes.get_int64_le data 8),
                  slot )
                :: !entries)
          p;
        let entries = Array.of_list !entries in
        Array.sort compare entries;
        (is_leaf, next_leaf, entries))

  let root e t =
    pinned e (B.header_page t) (fun p -> Int64.to_int (Bytes.get_int64_le (Option.get (Page.read p 0)) 0))

  let child_for entries key =
    let n = Array.length entries in
    let rec go i best =
      if i >= n then best
      else
        let k, v, _ = entries.(i) in
        if k <= key then go (i + 1) v else best
    in
    let k0, v0, _ = entries.(0) in
    if k0 > key then v0 else go 1 v0

  let rec descend e pid key =
    let is_leaf, _, entries = read_node e pid in
    if is_leaf then (pid, entries) else descend e (child_for entries key) key

  let find e t key =
    let _, entries = descend e (root e t) key in
    Array.find_map (fun (k, v, _) -> if k = key then Some v else None) entries

  let next_ge e t key =
    let rec scan pid =
      let _, next_leaf, entries = read_node e pid in
      match Array.find_opt (fun (k, _, _) -> k >= key) entries with
      | Some (k, v, _) -> Some (k, v)
      | None -> if next_leaf = 0xFFFFFFFF then None else scan next_leaf
    in
    scan (fst (descend e (root e t) key))

  let range e t ~lo ~hi =
    let acc = ref [] in
    let rec walk pid =
      let _, next_leaf, entries = read_node e pid in
      let stop = ref false in
      Array.iter
        (fun (k, v, _) -> if k > hi then stop := true else if k >= lo then acc := (k, v) :: !acc)
        entries;
      if (not !stop) && next_leaf <> 0xFFFFFFFF then walk next_leaf
    in
    walk (fst (descend e (root e t) lo));
    List.rev !acc
end

(* Small pages make a few thousand keys span three levels. *)
let small_page_config = { Config.default with Config.page_size = 2048; buffer_pages = 48 }

let check_against_reference rng e t ~keys =
  let probes = -1 :: keys :: List.init 2_000 (fun _ -> Ipl_util.Rng.int rng keys) in
  Alcotest.(check (list (option int)))
    "find" (List.map (Reference.find e t) probes) (List.map (B.find t) probes);
  let starts = List.init 500 (fun _ -> Ipl_util.Rng.int rng (keys + 50) - 25) in
  Alcotest.(check (list (option (pair int int))))
    "next_ge" (List.map (Reference.next_ge e t) starts) (List.map (B.next_ge t) starts);
  let bounds =
    (min_int, max_int)
    :: List.map (fun lo -> (lo, lo + Ipl_util.Rng.int rng 600 - 50)) starts
  in
  Alcotest.(check (list (list (pair int int))))
    "range"
    (List.map (fun (lo, hi) -> Reference.range e t ~lo ~hi) bounds)
    (List.map (fun (lo, hi) -> B.range t ~lo ~hi) bounds);
  let all = Reference.range e t ~lo:min_int ~hi:max_int in
  Alcotest.(check int) "cardinal" (List.length all) (B.cardinal t);
  Alcotest.(check (option int)) "min_key" (Option.map fst (List.nth_opt all 0)) (B.min_key t)

let random_ops rng t ~keys ~ops =
  for _ = 1 to ops do
    let key = Ipl_util.Rng.int rng keys and value = Ipl_util.Rng.int rng 1_000_000 in
    match Ipl_util.Rng.int rng 10 with
    | 0 | 1 -> ok (B.set t ~tx:Engine.no_txn ~key ~value)
    | 2 | 3 -> ignore (B.delete t ~tx:Engine.no_txn ~key)
    | _ -> ignore (B.insert t ~tx:Engine.no_txn ~key ~value)
  done

let test_in_place_search_matches_reference () =
  List.iter
    (fun seed ->
      let rng = Ipl_util.Rng.of_int seed in
      let keys = 10_000 in
      let chip = Chip.create (FConfig.default ~num_blocks:512 ()) in
      let e = Engine.create ~config:small_page_config chip in
      let t = B.create e in
      let order = Array.init keys Fun.id in
      Ipl_util.Rng.shuffle rng order;
      Array.iter (fun key -> ok (B.insert t ~tx:Engine.no_txn ~key ~value:(-key))) order;
      random_ops rng t ~keys ~ops:6_000;
      Alcotest.(check bool) "three levels" true (B.height t >= 3);
      Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t);
      check_against_reference rng e t ~keys;
      Engine.Unsafe.checkpoint e;
      let e', _ = Engine.restart ~config:small_page_config chip in
      let t' = B.attach e' ~header:(B.header_page t) in
      check_against_reference rng e' t' ~keys;
      random_ops rng t' ~keys ~ops:3_000;
      Alcotest.(check (result unit string)) "invariants after restart" (Ok ()) (B.check_invariants t');
      check_against_reference rng e' t' ~keys)
    [ 1; 2; 3 ]

(* Trees built by ascending, descending and shuffled inserts, then
   thinned by deletes whose slots later inserts reuse (so leaves stop
   being in slot order), then touched by a transaction that is aborted.
   Every stage must agree with the decode-and-sort reference. *)
let test_build_orders_match_reference () =
  let keys = 10_000 in
  let orders =
    [
      ("ascending", fun _ -> Array.init keys Fun.id);
      ("descending", fun _ -> Array.init keys (fun i -> keys - 1 - i));
      ( "shuffled",
        fun rng ->
          let a = Array.init keys Fun.id in
          Ipl_util.Rng.shuffle rng a;
          a );
    ]
  in
  List.iter
    (fun (name, order) ->
      let rng = Ipl_util.Rng.of_int 11 in
      let chip = Chip.create (FConfig.default ~num_blocks:512 ()) in
      let e = Engine.create ~config:small_page_config chip in
      let t = B.create e in
      let stage label =
        Alcotest.(check (result unit string))
          (Printf.sprintf "%s: invariants %s" name label)
          (Ok ()) (B.check_invariants t);
        check_against_reference rng e t ~keys
      in
      Array.iter (fun key -> ok (B.insert t ~tx:Engine.no_txn ~key ~value:(key * 3))) (order rng);
      Alcotest.(check bool) (name ^ ": three levels") true (B.height t >= 3);
      stage "after build";
      for _ = 1 to keys / 3 do
        ignore (B.delete t ~tx:Engine.no_txn ~key:(Ipl_util.Rng.int rng keys))
      done;
      stage "after deletes";
      for _ = 1 to keys / 6 do
        let key = Ipl_util.Rng.int rng keys in
        ignore (B.insert t ~tx:Engine.no_txn ~key ~value:(-key))
      done;
      stage "after reinserts";
      let before = Reference.range e t ~lo:min_int ~hi:max_int in
      let txi = Engine.Unsafe.begin_txn e in
      let tx = Engine.Unsafe.txn txi in
      for _ = 1 to 400 do
        let key = Ipl_util.Rng.int rng (2 * keys) in
        if Ipl_util.Rng.bool rng then ignore (B.insert t ~tx ~key ~value:(key + 7))
        else ignore (B.delete t ~tx ~key)
      done;
      Engine.Unsafe.abort e txi;
      stage "after abort";
      Alcotest.(check (list (pair int int)))
        (name ^ ": abort restores the entries")
        before (B.range t ~lo:min_int ~hi:max_int))
    orders

let () =
  Alcotest.run "btree"
    [
      ( "bptree",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "insert & find" `Quick test_insert_find;
          Alcotest.test_case "duplicates & set" `Quick test_duplicate_and_set;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "splits & growth" `Slow test_splits_and_growth;
          Alcotest.test_case "random insert order" `Quick test_reverse_and_random_orders;
          Alcotest.test_case "range scan" `Quick test_range;
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "negative keys" `Quick test_negative_keys;
          Alcotest.test_case "survives restart" `Slow test_survives_restart;
          Alcotest.test_case "abort rolls back" `Quick test_transactional_abort_rolls_back_index;
          Alcotest.test_case "find allocation" `Quick test_find_allocation;
          QCheck_alcotest.to_alcotest prop_tree_vs_model;
          Alcotest.test_case "in-place search = decode and sort" `Slow
            test_in_place_search_matches_reference;
          Alcotest.test_case "build orders, deletes and abort = reference" `Slow
            test_build_orders_match_reference;
        ] );
    ]

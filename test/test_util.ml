(* Unit and property tests for the utility library. *)

module Rng = Ipl_util.Rng
module Stats = Ipl_util.Stats
module Histogram = Ipl_util.Histogram
module Size = Ipl_util.Size
module Checksum = Ipl_util.Checksum

let test_rng_determinism () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.of_int 1 and b = Rng.of_int 2 in
  Alcotest.(check bool) "different streams" false (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Rng.of_int 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_int_bounds () =
  let r = Rng.of_int 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_int_in_bounds () =
  let r = Rng.of_int 4 in
  for _ = 1 to 10_000 do
    let x = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_rng_int_covers () =
  let r = Rng.of_int 5 in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 4) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_nurand_range () =
  let r = Rng.of_int 6 in
  for _ = 1 to 10_000 do
    let x = Rng.nurand r ~a:255 ~x:0 ~y:999 ~c:123 in
    Alcotest.(check bool) "in [0,999]" true (x >= 0 && x <= 999)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.of_int 8 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_last_name () =
  Alcotest.(check string) "0" "BARBARBAR" (Rng.last_name 0);
  Alcotest.(check string) "371" "PRICALLYOUGHT" (Rng.last_name 371);
  Alcotest.(check string) "999" "EINGEINGEING" (Rng.last_name 999)

let test_rng_strings () =
  let r = Rng.of_int 9 in
  let s = Rng.alpha_string r ~min:5 ~max:10 in
  Alcotest.(check bool) "length" true (String.length s >= 5 && String.length s <= 10);
  let n = Rng.numeric_string r ~len:8 in
  Alcotest.(check int) "numeric length" 8 (String.length n);
  String.iter (fun c -> Alcotest.(check bool) "digit" true (c >= '0' && c <= '9')) n

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "total" 10.0 s.Stats.total

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_gini () =
  Alcotest.(check (float 1e-9)) "uniform" 0.0 (Stats.gini [| 5.0; 5.0; 5.0; 5.0 |]);
  let skewed = Stats.gini [| 0.0; 0.0; 0.0; 100.0 |] in
  Alcotest.(check bool) "skewed high" true (skewed > 0.7)

let test_stats_empty () =
  Alcotest.check_raises "empty summarize" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]))

let test_histogram_basic () =
  let h = Histogram.create () in
  Histogram.incr h 1;
  Histogram.incr h 1;
  Histogram.add h 2 5;
  Alcotest.(check int) "count 1" 2 (Histogram.count h 1);
  Alcotest.(check int) "count 2" 5 (Histogram.count h 2);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 3);
  Alcotest.(check int) "distinct" 2 (Histogram.distinct h);
  Alcotest.(check int) "total" 7 (Histogram.total h)

let test_histogram_top () =
  let h = Histogram.create () in
  List.iter (fun (k, n) -> Histogram.add h k n) [ (10, 3); (20, 9); (30, 1); (40, 9) ];
  let top = Histogram.top h 2 in
  Alcotest.(check (list (pair int int)))
    "top 2 (ties by key)"
    [ (20, 9); (40, 9) ]
    (Array.to_list top)

let test_histogram_counts_desc () =
  let h = Histogram.create () in
  List.iter (Histogram.incr h) [ 1; 1; 1; 2; 2; 3 ];
  Alcotest.(check (array int)) "desc" [| 3; 2; 1 |] (Histogram.counts_desc h)

let test_diff_minimal_range () =
  let module D = Ipl_util.Diff in
  let b = Bytes.of_string in
  Alcotest.(check (option (pair int int))) "equal" None (D.minimal_range (b "abc") (b "abc"));
  Alcotest.(check (option (pair int int))) "one byte" (Some (2, 1))
    (D.minimal_range (b "abcd") (b "abXd"));
  Alcotest.(check (option (pair int int))) "covering" (Some (1, 5))
    (D.minimal_range (b "abcdefg") (b "aXcdeYg"));
  Alcotest.check_raises "length mismatch" (Invalid_argument "Diff.minimal_range: length mismatch")
    (fun () -> ignore (D.minimal_range (b "a") (b "ab")))

let test_diff_ranges () =
  let module D = Ipl_util.Diff in
  let b = Bytes.of_string in
  Alcotest.(check (list (pair int int))) "equal" [] (D.ranges (b "same") (b "same"));
  (* Two far-apart changes split with a small gap. *)
  let before = Bytes.make 100 'a' and after = Bytes.make 100 'a' in
  Bytes.set after 5 'X';
  Bytes.set after 80 'Y';
  Alcotest.(check (list (pair int int))) "split" [ (5, 1); (80, 1) ] (D.ranges before after);
  (* Changes within the gap get coalesced. *)
  let after2 = Bytes.copy before in
  Bytes.set after2 5 'X';
  Bytes.set after2 15 'Y';
  Alcotest.(check (list (pair int int))) "coalesced" [ (5, 11) ] (D.ranges ~gap:16 before after2);
  Alcotest.(check (list (pair int int))) "not coalesced at gap 5" [ (5, 1); (15, 1) ]
    (D.ranges ~gap:5 before after2)

let prop_diff_ranges_reconstruct =
  QCheck.Test.make ~name:"applying ranges to before yields after" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) small_int)
    (fun (s, seed) ->
      let before = Bytes.of_string s in
      let after = Bytes.copy before in
      (* Flip a few random bytes. *)
      let rng = Ipl_util.Rng.of_int seed in
      let n = Bytes.length after in
      if n > 0 then
        for _ = 1 to Ipl_util.Rng.int_in rng 0 8 do
          let i = Ipl_util.Rng.int rng n in
          Bytes.set after i (Char.chr (Ipl_util.Rng.int rng 256))
        done;
      let patched = Bytes.copy before in
      List.iter
        (fun (off, len) -> Bytes.blit after off patched off len)
        (Ipl_util.Diff.ranges ~gap:3 before after);
      patched = after)

let test_arena_roundtrip () =
  let module A = Ipl_util.Byte_arena in
  let a = A.create ~chunk_size:4096 () in
  let h1 = A.add a (Bytes.of_string "hello") in
  let h2 = A.add a (Bytes.of_string "world!") in
  Alcotest.(check bytes) "get 1" (Bytes.of_string "hello") (A.get a h1);
  Alcotest.(check bytes) "get 2" (Bytes.of_string "world!") (A.get a h2);
  Alcotest.(check int) "length" 6 (A.length a h2)

let test_arena_set_in_place_and_grow () =
  let module A = Ipl_util.Byte_arena in
  let a = A.create ~chunk_size:4096 () in
  let h = A.add a (Bytes.of_string "aaaa") in
  let stored = A.stored_bytes a in
  let h' = A.set a h (Bytes.of_string "bbbb") in
  Alcotest.(check int) "in place" h h';
  Alcotest.(check int) "no growth" stored (A.stored_bytes a);
  Alcotest.(check bytes) "overwritten" (Bytes.of_string "bbbb") (A.get a h');
  let h'' = A.set a h' (Bytes.of_string "longer-now") in
  Alcotest.(check bool) "relocated" true (h'' <> h');
  Alcotest.(check bytes) "new value" (Bytes.of_string "longer-now") (A.get a h'')

let test_arena_chunk_boundaries () =
  let module A = Ipl_util.Byte_arena in
  let a = A.create ~chunk_size:1000 () in
  (* Values never straddle chunks: fill with 300-byte values. *)
  let values = List.init 50 (fun i -> Bytes.make 300 (Char.chr (33 + i))) in
  let handles = List.map (A.add a) values in
  List.iter2
    (fun h v -> Alcotest.(check bytes) "intact across chunks" v (A.get a h))
    handles values

let test_arena_limits () =
  let module A = Ipl_util.Byte_arena in
  let a = A.create ~chunk_size:512 () in
  Alcotest.check_raises "too long" (Invalid_argument "Byte_arena.add: value too long")
    (fun () -> ignore (A.add a (Bytes.make 2000 'x')))

let prop_arena_model =
  QCheck.Test.make ~name:"arena matches model under add/set" ~count:100
    QCheck.(small_list (pair (string_of_size (Gen.int_range 1 50)) bool))
    (fun ops ->
      let module A = Ipl_util.Byte_arena in
      let a = A.create ~chunk_size:256 () in
      let model = ref [] in
      List.iter
        (fun (s, replace) ->
          let data = Bytes.of_string s in
          match (replace, !model) with
          | true, (h, _) :: rest ->
              let h' = A.set a h data in
              model := (h', data) :: rest
          | _ -> model := (A.add a data, data) :: !model)
        ops;
      List.for_all (fun (h, v) -> A.get a h = v) !model)

let test_size () =
  Alcotest.(check int) "kib" 8192 (Size.kib 8);
  Alcotest.(check int) "mib" (1024 * 1024) (Size.mib 1);
  Alcotest.(check string) "pp KB" "128.0 KB" (Format.asprintf "%a" Size.pp_bytes (Size.kib 128))

(* Property tests *)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      QCheck.assume (Array.length xs > 0);
      let v = Stats.percentile xs p in
      let s = Stats.summarize xs in
      v >= s.Stats.min -. 1e-9 && v <= s.Stats.max +. 1e-9)

let prop_gini_range =
  QCheck.Test.make ~name:"gini in [0,1)" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let g = Stats.gini xs in
      g >= -1e-9 && g < 1.0)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let b = Array.copy a in
      Rng.shuffle (Rng.of_int seed) b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

(* The byte-at-a-time CRC-32 the sliced one must agree with. *)
let reference_crc32 ?(init = 0) b ~pos ~len =
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_standard_vector () =
  Alcotest.(check int) "123456789" 0xCBF43926 (Checksum.crc32_bytes (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Checksum.crc32_bytes Bytes.empty);
  let b = Bytes.of_string "123456789" in
  let head = Checksum.crc32 b ~pos:0 ~len:4 in
  Alcotest.(check int) "chained" 0xCBF43926 (Checksum.crc32 ~init:head b ~pos:4 ~len:5)

let test_crc32_every_offset_and_length () =
  let b = Bytes.init 160 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
  for pos = 0 to 64 do
    for len = 0 to 64 do
      let expected = reference_crc32 b ~pos ~len in
      if Checksum.crc32 b ~pos ~len <> expected then
        Alcotest.failf "pos %d len %d: got %08x, want %08x" pos len (Checksum.crc32 b ~pos ~len)
          expected
    done
  done

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 = byte-at-a-time reference" ~count:200
    QCheck.(triple string (int_bound 0xFFFF_FFFF) (int_bound 7))
    (fun (s, init, skip) ->
      let b = Bytes.of_string s in
      let pos = min skip (Bytes.length b) in
      let len = Bytes.length b - pos in
      Checksum.crc32 ~init b ~pos ~len = reference_crc32 ~init b ~pos ~len)

(* Id_list against a model: per list, an array of buckets, each a plain
   list most recent first, and a stamp per id and list from a clock that
   ticks at every add or move. Two lists share one link array at stride 5 (offsets
   1 and 3); slot 0 of each id stands for the caller's own field and
   must never change. After every operation each list's buckets, walked
   both ways, its size, membership and lowest bucket match the model. *)
module Id_list = Ipl_util.Id_list

type id_op = Put of int * int * int | Remove of int * int | Halve of int

let print_id_op = function
  | Put (l, p, b) -> Printf.sprintf "put %d %d %d" l p b
  | Remove (l, p) -> Printf.sprintf "remove %d %d" l p
  | Halve l -> Printf.sprintf "halve %d" l

let prop_id_list_model =
  let ids = 12 and max_bucket = 20 and stride = 5 and field = 777 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map3 (fun l p b -> Put (l, p, b)) (int_bound 1) (int_bound (ids - 1))
               (frequency [ (3, int_bound 3); (1, int_bound max_bucket) ]));
          (3, map2 (fun l p -> Remove (l, p)) (int_bound 1) (int_bound (ids - 1)));
          (1, map (fun l -> Halve l) (int_bound 1));
        ])
  in
  QCheck.Test.make ~name:"id lists = list-of-lists model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_id_op) QCheck.Gen.(list_size (int_range 1 150) gen_op))
    (fun ops ->
      let node = Array.make (stride * ids) field in
      let lists =
        Array.init 2 (fun l ->
            for p = 0 to ids - 1 do
              node.((stride * p) + 1 + (2 * l)) <- Id_list.absent
            done;
            Id_list.create ~stride ~off:(1 + (2 * l)) ~buckets:1)
      in
      let model = Array.init 2 (fun _ -> Array.make (max_bucket + 1) []) in
      let stamps = Array.make_matrix 2 ids 0 and clock = ref 0 in
      let bucket_of l p =
        let found = ref None in
        Array.iteri (fun b ps -> if List.mem p ps then found := Some b) model.(l);
        !found
      in
      let rec walk step p = if p = Id_list.nil then [] else p :: walk step (step p) in
      let check l =
        let lst = lists.(l) and m = model.(l) in
        Array.iteri
          (fun b ps ->
            let forward, backward =
              if b < Id_list.buckets lst then
                ( walk (Id_list.next node lst) (Id_list.head lst b),
                  walk (Id_list.prev node lst) (Id_list.tail lst b) )
              else ([], [])
            in
            if forward <> ps || backward <> List.rev ps then
              QCheck.Test.fail_reportf "list %d bucket %d: [%s], model [%s]" l b
                (String.concat " " (List.map string_of_int forward))
                (String.concat " " (List.map string_of_int ps)))
          m;
        let members = Array.fold_left (fun n ps -> n + List.length ps) 0 m in
        let lowest =
          match List.find_opt (fun b -> m.(b) <> []) (List.init (max_bucket + 1) Fun.id) with
          | Some b -> b
          | None -> Id_list.buckets lst
        in
        Id_list.size lst = members
        && Id_list.lowest lst = lowest
        && List.for_all (fun p -> Id_list.mem node lst p = (bucket_of l p <> None)) (List.init ids Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Put (l, p, b) ->
              incr clock;
              stamps.(l).(p) <- !clock;
              (match bucket_of l p with
              | Some from ->
                  Id_list.move node lists.(l) p ~from b;
                  model.(l).(from) <- List.filter (( <> ) p) model.(l).(from)
              | None -> Id_list.add node lists.(l) p b);
              model.(l).(b) <- p :: model.(l).(b)
          | Remove (l, p) -> (
              match bucket_of l p with
              | Some b ->
                  Id_list.remove node lists.(l) p b;
                  model.(l).(b) <- List.filter (( <> ) p) model.(l).(b)
              | None -> ())
          | Halve l ->
              Id_list.halve node lists.(l) ~stamp:(fun p -> stamps.(l).(p));
              let m = model.(l) in
              let newest_first a b = Int.compare stamps.(l).(b) stamps.(l).(a) in
              for k = 0 to max_bucket do
                let merged = if 2 * k <= max_bucket then m.(2 * k) else [] in
                let merged = if (2 * k) + 1 <= max_bucket then merged @ m.((2 * k) + 1) else merged in
                m.(k) <- List.sort newest_first merged
              done);
          check 0 && check 1
          && List.for_all (fun p -> node.(stride * p) = field) (List.init ids Fun.id))
        ops)

let () =
  Alcotest.run "ipl_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
          Alcotest.test_case "nurand range" `Quick test_rng_nurand_range;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "tpcc last name" `Quick test_rng_last_name;
          Alcotest.test_case "random strings" `Quick test_rng_strings;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "gini" `Quick test_stats_gini;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
          QCheck_alcotest.to_alcotest prop_gini_range;
          QCheck_alcotest.to_alcotest prop_shuffle_preserves_multiset;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic counts" `Quick test_histogram_basic;
          Alcotest.test_case "top-k" `Quick test_histogram_top;
          Alcotest.test_case "counts desc" `Quick test_histogram_counts_desc;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 standard vector" `Quick test_crc32_standard_vector;
          Alcotest.test_case "crc32 every offset and length" `Quick
            test_crc32_every_offset_and_length;
          QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
        ] );
      ( "diff",
        [
          Alcotest.test_case "minimal range" `Quick test_diff_minimal_range;
          Alcotest.test_case "multi ranges" `Quick test_diff_ranges;
          QCheck_alcotest.to_alcotest prop_diff_ranges_reconstruct;
        ] );
      ( "byte arena",
        [
          Alcotest.test_case "roundtrip" `Quick test_arena_roundtrip;
          Alcotest.test_case "set in place / grow" `Quick test_arena_set_in_place_and_grow;
          Alcotest.test_case "chunk boundaries" `Quick test_arena_chunk_boundaries;
          Alcotest.test_case "limits" `Quick test_arena_limits;
          QCheck_alcotest.to_alcotest prop_arena_model;
        ] );
      ("size", [ Alcotest.test_case "constants and pp" `Quick test_size ]);
      ("id list", [ QCheck_alcotest.to_alcotest prop_id_list_model ]);
    ]

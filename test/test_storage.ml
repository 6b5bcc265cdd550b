(* Tests for slotted pages and the record codec. *)

module Page = Storage.Page
module Record = Storage.Record

let mk () = Page.create 8192

let bytes_of_string = Bytes.of_string

let page_error : Page.error Alcotest.testable =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Page.error_to_string e)) ( = )

let test_empty_page () =
  let p = mk () in
  Alcotest.(check int) "size" 8192 (Page.size p);
  Alcotest.(check int) "slots" 0 (Page.slot_count p);
  Alcotest.(check int) "live" 0 (Page.live_records p);
  Alcotest.(check bool) "slot 0 not live" false (Page.is_live p 0)

let test_insert_read () =
  let p = mk () in
  let s1 = Option.get (Page.insert p (bytes_of_string "hello")) in
  let s2 = Option.get (Page.insert p (bytes_of_string "world!")) in
  Alcotest.(check int) "first slot" 0 s1;
  Alcotest.(check int) "second slot" 1 s2;
  Alcotest.(check (option bytes)) "read 0" (Some (bytes_of_string "hello")) (Page.read p 0);
  Alcotest.(check (option bytes)) "read 1" (Some (bytes_of_string "world!")) (Page.read p 1);
  Alcotest.(check int) "live" 2 (Page.live_records p)

let test_delete_and_slot_reuse () =
  let p = mk () in
  ignore (Page.insert p (bytes_of_string "a"));
  ignore (Page.insert p (bytes_of_string "b"));
  Alcotest.(check (result unit page_error)) "delete ok" (Ok ()) (Page.delete p 0);
  Alcotest.(check (option bytes)) "deleted" None (Page.read p 0);
  Alcotest.(check int) "live" 1 (Page.live_records p);
  (* The freed slot is reused. *)
  let s = Option.get (Page.insert p (bytes_of_string "c")) in
  Alcotest.(check int) "slot reused" 0 s;
  Alcotest.(check (result unit page_error)) "double delete fails" (Error `Slot_not_live)
    (Page.delete p 5)

let test_update_in_place_and_relocating () =
  let p = mk () in
  ignore (Page.insert p (bytes_of_string "abcdef"));
  (* Shrinking update stays in place. *)
  Alcotest.(check (result unit page_error)) "shrink" (Ok ()) (Page.update p 0 (bytes_of_string "xy"));
  Alcotest.(check (option bytes)) "shrunk" (Some (bytes_of_string "xy")) (Page.read p 0);
  (* Growing update relocates. *)
  Alcotest.(check (result unit page_error)) "grow" (Ok ())
    (Page.update p 0 (bytes_of_string "0123456789"));
  Alcotest.(check (option bytes)) "grown" (Some (bytes_of_string "0123456789")) (Page.read p 0);
  Alcotest.(check (result unit page_error)) "update dead slot" (Error `Slot_not_live)
    (Page.update p 3 (bytes_of_string "z"))

(* A growing update that does not fit, even after compaction, must leave
   the page as it was. Four records on a 256-byte page: with the second
   deleted, growing the first compacts the page only if the room check
   comes after the slot is cleared, and that compaction moves the third
   record over the first one's bytes; the next insert then lands on
   whatever the failed update left behind. *)
let test_failed_grow_leaves_page () =
  let p = Page.create 256 in
  let record c n = Bytes.make n c in
  let a = Option.get (Page.insert p (record 'a' 60)) in
  let bb = Option.get (Page.insert p (record 'b' 60)) in
  let c = Option.get (Page.insert p (record 'c' 60)) in
  let d = Option.get (Page.insert p (record 'd' 40)) in
  Alcotest.(check (result unit page_error)) "delete b" (Ok ()) (Page.delete p bb);
  let before = Page.copy p in
  (* Room for [a]: 256 - 8 header - (160 - 60) other payload - 16
     directory = 132 bytes. *)
  Alcotest.(check (result unit page_error)) "133 bytes do not fit" (Error `Page_full)
    (Page.update p a (record 'A' 133));
  Alcotest.(check bool) "page bytes unchanged" true (Bytes.equal (Page.to_bytes before) (Page.to_bytes p));
  Alcotest.(check (option bytes)) "a kept" (Some (record 'a' 60)) (Page.read p a);
  let e = Option.get (Page.insert p (record 'e' 12)) in
  List.iter
    (fun (slot, want) ->
      Alcotest.(check (option bytes)) (Printf.sprintf "slot %d" slot) (Some want) (Page.read p slot))
    [ (a, record 'a' 60); (c, record 'c' 60); (d, record 'd' 40); (e, record 'e' 12) ];
  (* With [e] in: 256 - 8 - (172 - 60) - 16 = 120 bytes, exactly. *)
  Alcotest.(check (result unit page_error)) "120 bytes fit" (Ok ()) (Page.update p a (record 'A' 120));
  Alcotest.(check (option bytes)) "a grown" (Some (record 'A' 120)) (Page.read p a);
  Alcotest.(check (option bytes)) "c intact" (Some (record 'c' 60)) (Page.read p c)

(* A failed insert leaves the page's bytes as they were: it does not
   compact first and then find the room short. *)
let test_failed_insert_leaves_page () =
  let p = Page.create 256 in
  let record c n = Bytes.make n c in
  let a = Option.get (Page.insert p (record 'a' 60)) in
  let bb = Option.get (Page.insert p (record 'b' 60)) in
  let c = Option.get (Page.insert p (record 'c' 60)) in
  ignore (Option.get (Page.insert p (record 'd' 40)));
  Alcotest.(check (result unit page_error)) "delete b" (Ok ()) (Page.delete p bb);
  let before = Page.copy p in
  (* Room for a record in [b]'s slot: 256 - 8 header - 160 payload - 16
     directory = 72 bytes, 12 of them contiguous. *)
  Alcotest.(check (option int)) "73 bytes do not fit" None (Page.insert p (record 'e' 73));
  Alcotest.(check bool) "page bytes unchanged" true (Bytes.equal (Page.to_bytes before) (Page.to_bytes p));
  Alcotest.(check (option int)) "72 bytes fit, in b's slot" (Some bb) (Page.insert p (record 'e' 72));
  List.iter
    (fun (slot, want) ->
      Alcotest.(check (option bytes)) (Printf.sprintf "slot %d" slot) (Some want) (Page.read p slot))
    [ (a, record 'a' 60); (bb, record 'e' 72); (c, record 'c' 60) ]

let test_update_bytes () =
  let p = mk () in
  ignore (Page.insert p (bytes_of_string "abcdefgh"));
  Alcotest.(check (result unit page_error)) "patch" (Ok ())
    (Page.update_bytes p ~slot:0 ~offset:2 (bytes_of_string "XY"));
  Alcotest.(check (option bytes)) "patched" (Some (bytes_of_string "abXYefgh")) (Page.read p 0);
  Alcotest.(check (result unit page_error)) "out of range" (Error `Range_outside_record)
    (Page.update_bytes p ~slot:0 ~offset:7 (bytes_of_string "XY"))

let test_insert_at () =
  let p = mk () in
  Alcotest.(check (result unit page_error)) "insert at 3" (Ok ())
    (Page.insert_at p 3 (bytes_of_string "three"));
  Alcotest.(check int) "slot count extended" 4 (Page.slot_count p);
  Alcotest.(check (option bytes)) "read back" (Some (bytes_of_string "three")) (Page.read p 3);
  Alcotest.(check bool) "intermediate empty" false (Page.is_live p 1);
  Alcotest.(check (result unit page_error)) "occupied" (Error `Slot_already_live)
    (Page.insert_at p 3 (bytes_of_string "x"));
  (* Replay-style: fill an intermediate slot later. *)
  Alcotest.(check (result unit page_error)) "fill hole" (Ok ())
    (Page.insert_at p 1 (bytes_of_string "one"))

let test_fill_until_full () =
  let p = Page.create 512 in
  let payload = Bytes.make 60 'r' in
  let rec fill n = match Page.insert p payload with Some _ -> fill (n + 1) | None -> n in
  let n = fill 0 in
  (* 512 bytes: 8 header + n*(60+4) <= 512 -> n = 7 *)
  Alcotest.(check int) "records fitted" 7 n;
  Alcotest.(check bool) "free space too small" true (Page.free_space p < 60)

let test_compaction_reclaims () =
  let p = Page.create 512 in
  let payload = Bytes.make 60 'r' in
  for _ = 1 to 7 do
    ignore (Page.insert p payload)
  done;
  (* Delete every other record, then a 100-byte record must fit via
     compaction. *)
  List.iter (fun i -> ignore (Page.delete p i)) [ 0; 2; 4 ];
  let big = Bytes.make 100 'B' in
  (match Page.insert p big with
  | Some _ -> ()
  | None -> Alcotest.fail "insert after compaction should fit");
  Alcotest.(check (option bytes)) "old record intact" (Some payload) (Page.read p 1)

let test_compact_preserves_content () =
  let p = mk () in
  for i = 0 to 19 do
    ignore (Page.insert p (Bytes.make (10 + i) (Char.chr (65 + i))))
  done;
  List.iter (fun i -> ignore (Page.delete p i)) [ 1; 5; 9; 13 ];
  let before = Page.copy p in
  Page.compact p;
  Alcotest.(check bool) "content equal" true (Page.equal_content before p)

let test_serialization_roundtrip () =
  let p = mk () in
  ignore (Page.insert p (bytes_of_string "persist me"));
  let q = Page.of_bytes (Bytes.copy (Page.to_bytes p)) in
  Alcotest.(check bool) "roundtrip equal" true (Page.equal_content p q)

let test_bad_magic () =
  Alcotest.check_raises "bad magic" (Invalid_argument "Page.of_bytes: bad magic") (fun () ->
      ignore (Page.of_bytes (Bytes.make 512 '\000')))

let test_iter () =
  let p = mk () in
  ignore (Page.insert p (bytes_of_string "a"));
  ignore (Page.insert p (bytes_of_string "b"));
  ignore (Page.delete p 0);
  let seen = ref [] in
  Page.iter (fun slot data -> seen := (slot, Bytes.to_string data) :: !seen) p;
  Alcotest.(check (list (pair int string))) "live only" [ (1, "b") ] !seen

(* [(slot, payload)] as the in-place scan sees it, and as [Page.read] does. *)
let in_place_records p =
  let image = Page.to_bytes p in
  let acc = ref [] in
  Page.iter_in_place (fun slot off len -> acc := (slot, Bytes.sub_string image off len) :: !acc) p;
  List.rev !acc

let read_records p =
  List.filter_map
    (fun i -> Option.map (fun data -> (i, Bytes.to_string data)) (Page.read p i))
    (List.init (Page.slot_count p) Fun.id)

let test_iter_in_place () =
  let p = mk () in
  let check what live =
    Alcotest.(check (list int)) (what ^ ": live slots") live (List.map fst (in_place_records p));
    Alcotest.(check (list (pair int string))) (what ^ ": payloads") (read_records p) (in_place_records p)
  in
  for i = 0 to 9 do
    ignore (Page.insert p (Bytes.make (10 + i) (Char.chr (65 + i))))
  done;
  check "fresh" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  List.iter (fun i -> ignore (Page.delete p i)) [ 0; 4; 9 ];
  check "deletes" [ 1; 2; 3; 5; 6; 7; 8 ];
  Alcotest.(check (option int)) "reused slot" (Some 0) (Page.insert p (bytes_of_string "reused"));
  check "slot reuse" [ 0; 1; 2; 3; 5; 6; 7; 8 ];
  Page.compact p;
  check "compact" [ 0; 1; 2; 3; 5; 6; 7; 8 ];
  Alcotest.(check (result unit page_error)) "relocating update" (Ok ()) (Page.update p 2 (Bytes.make 200 'z'));
  check "relocating update" [ 0; 1; 2; 3; 5; 6; 7; 8 ]

let test_iter_in_place_allocates_nothing () =
  let p = mk () in
  while Page.insert p (Bytes.make 16 'k') <> None do
    ()
  done;
  let image = Page.to_bytes p in
  let visited = ref 0 and sum = ref 0 in
  let f _ off len =
    incr visited;
    sum := !sum + len + Bytes.get_uint8 image off
  in
  let minor_words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let empty = minor_words (fun () -> ()) in
  let scan = minor_words (fun () -> Page.iter_in_place f p) in
  Alcotest.(check int) "every record visited" (Page.live_records p) !visited;
  Alcotest.(check (float 0.)) "no minor words" empty scan

(* ------------------------------------------------------------------ *)
(* Searches by int64 key, against a brute-force model                  *)

let keyed key ~extra =
  let b = Bytes.make (8 + extra) 'x' in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  b

(* The keyed slots of [p] at or after [from], in slot order. *)
let keyed_slots p ~from =
  let acc = ref [] in
  Page.iter
    (fun slot data ->
      if slot >= from && Bytes.length data >= 8 then
        acc := (slot, Int64.to_int (Bytes.get_int64_le data 0)) :: !acc)
    p;
  List.rev !acc

(* The model: of the slots whose key is best, the lowest. *)
let model_nearest p ~from key ~below =
  let better k b = if below then k > b else k < b in
  List.fold_left
    (fun best (slot, k) ->
      let eligible = if below then k <= key else k >= key in
      match best with
      | _ when not eligible -> best
      | Some (_, b) when not (better k b) -> best
      | _ -> Some (slot, k))
    None (keyed_slots p ~from)
  |> Option.fold ~none:(-1) ~some:fst

let model_exact p ~from key =
  match List.find_opt (fun (_, k) -> k = key) (keyed_slots p ~from) with
  | Some (slot, _) -> slot
  | None -> -1

let interesting_keys = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

let draw_key rng =
  if Ipl_util.Rng.int rng 10 = 0 then List.nth interesting_keys (Ipl_util.Rng.int rng 7)
  else Ipl_util.Rng.int rng 81 - 40

(* A random page of one of three kinds. [`Sorted] pages get ascending
   unique keys with short records between them and deletes after them,
   so their keyed slots stay in key order. [`Reused] pages mix inserts,
   short records and deletes, so inserts reuse low slots; a key is never
   inserted twice, even after a delete. In [`Duplicates] pages keys may
   repeat. *)
let random_keyed_page rng kind =
  let p = Page.create 1024 in
  let used_keys = Hashtbl.create 16 in
  let insert_key key = ignore (Page.insert p (keyed key ~extra:(Ipl_util.Rng.int rng 9))) in
  let insert_short () =
    ignore (Page.insert p (Bytes.make (1 + Ipl_util.Rng.int rng 7) 's'))
  in
  let delete_some n =
    for _ = 1 to n do
      ignore (Page.delete p (Ipl_util.Rng.int rng (max 1 (Page.slot_count p))))
    done
  in
  let n = Ipl_util.Rng.int rng 30 in
  (match kind with
  | `Sorted ->
      let keys = List.sort_uniq compare (List.init n (fun _ -> draw_key rng)) in
      List.iter
        (fun k ->
          if Ipl_util.Rng.int rng 4 = 0 then insert_short ();
          insert_key k)
        keys;
      delete_some (Ipl_util.Rng.int rng 5)
  | `Reused | `Duplicates ->
      for _ = 1 to n do
        match Ipl_util.Rng.int rng 6 with
        | 0 -> insert_short ()
        | 1 | 2 -> delete_some 1
        | _ ->
            let k = draw_key rng in
            if kind = `Duplicates || not (Hashtbl.mem used_keys k) then begin
              Hashtbl.replace used_keys k ();
              insert_key k
            end
      done);
  p

let test_key_searches_match_model () =
  let rng = Ipl_util.Rng.of_int 42 in
  let check_page p kind =
    let froms = [ 0; 1; Ipl_util.Rng.int rng (Page.slot_count p + 2) ] in
    let probes =
      interesting_keys
      @ List.concat_map (fun (_, k) -> [ k - 1; k; k + 1 ]) (keyed_slots p ~from:0)
      @ List.init 10 (fun _ -> draw_key rng)
    in
    List.iter
      (fun from ->
        List.iter
          (fun key ->
            List.iter
              (fun below ->
                let want = model_nearest p ~from key ~below in
                let got = Page.nearest_int64 p ~from key ~below in
                if got <> want then
                  Alcotest.failf "nearest_int64 ~from:%d %d ~below:%b = %d, model %d" from key below
                    got want)
              [ true; false ];
            let exact = model_exact p ~from key in
            let got = Page.find_sorted_int64 p ~from key in
            let ok =
              match kind with
              | `Sorted -> got = exact
              | `Reused -> got = exact || got = -1
              | `Duplicates ->
                  got = -1 || List.mem (got, key) (keyed_slots p ~from)
            in
            if not ok then Alcotest.failf "find_sorted_int64 ~from:%d %d = %d, model %d" from key got exact)
          probes)
      froms
  in
  check_page (Page.create 1024) `Sorted;
  for _ = 1 to 400 do
    List.iter (fun kind -> check_page (random_keyed_page rng kind) kind) [ `Sorted; `Reused; `Duplicates ]
  done

let test_key_searches_allocate_nothing () =
  let p = mk () in
  let n = ref 0 in
  while Page.insert p (keyed (!n * 2) ~extra:8) <> None do
    incr n
  done;
  let minor_words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let empty = minor_words (fun () -> ()) in
  let hit = 2 * (!n / 2) in
  let miss = hit + 1 in
  let searches =
    minor_words (fun () ->
        ignore (Page.nearest_int64 p ~from:0 hit ~below:true);
        ignore (Page.nearest_int64 p ~from:0 miss ~below:true);
        ignore (Page.nearest_int64 p ~from:0 miss ~below:false);
        ignore (Page.find_sorted_int64 p ~from:0 hit);
        ignore (Page.find_sorted_int64 p ~from:0 miss))
  in
  Alcotest.(check int) "binary search hits" (!n / 2) (Page.find_sorted_int64 p ~from:0 hit);
  Alcotest.(check (float 0.)) "no minor words" empty searches

(* [find_int64] is the first slot holding [key], which is what the
   B+-tree's leaf search used to derive from [nearest_int64 ~below:true]
   plus a re-check of the floor's key. *)
let test_find_int64_matches_nearest () =
  let rng = Ipl_util.Rng.of_int 7 in
  let check_page p =
    let keys = List.map snd (keyed_slots p ~from:0) in
    let probes = interesting_keys @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) keys in
    List.iter
      (fun from ->
        List.iter
          (fun key ->
            let floor = Page.nearest_int64 p ~from key ~below:true in
            let via_floor =
              if floor >= 0 && List.assoc floor (keyed_slots p ~from) = key then floor else -1
            in
            let got = Page.find_int64 p ~from key in
            if got <> via_floor || got <> model_exact p ~from key then
              Alcotest.failf "find_int64 ~from:%d %d = %d, via nearest_int64 %d" from key got via_floor)
          probes)
      [ 0; 1; Ipl_util.Rng.int rng (Page.slot_count p + 2) ]
  in
  check_page (Page.create 1024);
  for _ = 1 to 400 do
    List.iter (fun kind -> check_page (random_keyed_page rng kind)) [ `Sorted; `Reused; `Duplicates ]
  done

(* Beyond its [Some] result, an insert into a page whose every slot is
   live allocates nothing: the header's counts rule out a dead slot
   without a scan. *)
let test_find_int64_and_insert_allocate_nothing () =
  let p = mk () in
  let rec fill n = if Page.insert p (keyed (n * 2) ~extra:8) <> None then fill (n + 1) else n in
  let n = fill 0 in
  let minor_words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let empty = minor_words (fun () -> ()) in
  let hit = 2 * (n / 2) in
  let searches =
    minor_words (fun () ->
        ignore (Page.find_int64 p ~from:0 hit);
        ignore (Page.find_int64 p ~from:0 (hit + 1)))
  in
  Alcotest.(check int) "finds the key" (n / 2) (Page.find_int64 p ~from:0 hit);
  Alcotest.(check (float 0.)) "search: no minor words" empty searches;
  let q = Page.create 4096 in
  let record = keyed 1 ~extra:8 in
  for _ = 1 to 10 do
    ignore (Page.insert q record)
  done;
  let slot = ref None in
  let insert = minor_words (fun () -> slot := Page.insert q record) in
  Alcotest.(check (option int)) "new slot" (Some 10) !slot;
  Alcotest.(check (float 0.)) "insert: only the result" (empty +. 2.) insert

let test_record_offset_and_has_room () =
  let p = Page.create 256 in
  Alcotest.(check int) "empty directory" (-1) (Page.record_offset p 0);
  let s = Option.get (Page.insert p (bytes_of_string "abc")) in
  let off = Page.record_offset p s in
  Alcotest.(check string) "offset of payload" "abc" (Bytes.sub_string (Page.to_bytes p) off 3);
  ignore (Page.delete p s);
  Alcotest.(check int) "dead slot" (-1) (Page.record_offset p s);
  (* [has_room] must agree with [insert] at every fill level, including
     after deletes leave holes that only compaction reclaims. *)
  let rng = Ipl_util.Rng.of_int 3 in
  for _ = 1 to 2_000 do
    let len = 1 + Ipl_util.Rng.int rng 40 in
    if Ipl_util.Rng.int rng 3 = 0 then ignore (Page.delete p (Ipl_util.Rng.int rng (max 1 (Page.slot_count p))))
    else begin
      let room = Page.has_room p len in
      let fits = Page.insert p (Bytes.make len 'r') <> None in
      if room <> fits then Alcotest.failf "has_room %d = %b, insert fits = %b" len room fits
    end
  done

(* Property: a random sequence of inserts/updates/deletes tracked against a
   model Hashtbl always matches the page contents. *)
let prop_page_vs_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun s -> `Insert s) (string_size (int_range 1 40)));
          (2, map2 (fun i s -> `Update (i, s)) (int_bound 30) (string_size (int_range 1 40)));
          (2, map (fun i -> `Delete i) (int_bound 30));
        ])
  in
  QCheck.Test.make ~name:"page matches model under random ops" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) gen_op))
    (fun ops ->
      let p = Page.create 4096 in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Insert s -> (
              match Page.insert p (bytes_of_string s) with
              | Some slot -> Hashtbl.replace model slot s
              | None -> ())
          | `Update (slot, s) -> (
              match Page.update p slot (bytes_of_string s) with
              | Ok () ->
                  assert (Hashtbl.mem model slot);
                  Hashtbl.replace model slot s
              | Error _ -> assert (not (Hashtbl.mem model slot)))
          | `Delete slot -> (
              match Page.delete p slot with
              | Ok () ->
                  assert (Hashtbl.mem model slot);
                  Hashtbl.remove model slot
              | Error _ -> assert (not (Hashtbl.mem model slot))))
        ops;
      (* Compare. *)
      Hashtbl.iter
        (fun slot s ->
          match Page.read p slot with
          | Some data -> assert (Bytes.to_string data = s)
          | None -> assert false)
        model;
      Page.live_records p = Hashtbl.length model)

(* Property: a packed image unpacks to the page it came from. Random
   op sequences (a [`Fill] inserts until the directory meets
   [free_start] exactly) leave a page whose gap between payload and
   directory is all zeros, compaction included; packing it, letting
   the bytes past the image read as erased flash (0xff) and unpacking
   gives the same bytes outside the gap, zeros inside it and the same
   content. *)
let prop_pack_roundtrip =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun n -> `Insert n) (int_range 1 300));
          (2, map2 (fun i n -> `Update (i, n)) (int_bound 30) (int_range 1 300));
          (2, map (fun i -> `Delete i) (int_bound 30));
          (1, return `Compact);
          (1, return `Fill);
        ])
  in
  let size = 2048 in
  let gap p = size - Page.image_length p in
  let gap_start p = Page.image_length p - (4 * Page.slot_count p) in
  let gap_is_zero p =
    let b = Page.to_bytes p in
    let rec go i = i >= gap_start p + gap p || (Bytes.get b i = '\000' && go (i + 1)) in
    go (gap_start p)
  in
  (* Insert records that fit contiguously until no gap is left: a
     record needs a directory entry unless a dead slot is reused, and
     never leaves a gap smaller than the next entry would need. *)
  let rec fill p =
    let g = gap p in
    let reuse = Page.live_records p < Page.slot_count p in
    let want = if reuse then g else g - 4 in
    if want >= 1 then begin
      let len = if want <= 40 then want else min 40 (want - 5) in
      if Page.insert p (Bytes.make len 'f') <> None then fill p
    end
  in
  QCheck.Test.make ~name:"pack then unpack = page, gap zeroed" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_op))
    (fun ops ->
      let p = Page.create size in
      let stamp = ref 0 in
      let data n =
        incr stamp;
        Bytes.init n (fun i -> Char.chr (33 + ((!stamp + i) mod 90)))
      in
      List.iter
        (fun op ->
          (match op with
          | `Insert n -> ignore (Page.insert p (data n))
          | `Update (i, n) -> ignore (Page.update p i (data n))
          | `Delete i -> ignore (Page.delete p i)
          | `Compact -> Page.compact p
          | `Fill ->
              fill p;
              (* Only a gap too small for a new entry, with no dead slot to
                 reuse, can stay open. *)
              if gap p > (if Page.live_records p < Page.slot_count p then 0 else 4) then
                QCheck.Test.fail_reportf "fill left a gap of %d" (gap p));
          if not (gap_is_zero p) then QCheck.Test.fail_report "the gap is not zero")
        ops;
      let dst = Bytes.make size 'Z' in
      let len = Page.pack p dst in
      if len <> Page.image_length p then QCheck.Test.fail_report "pack's length";
      Bytes.fill dst len (size - len) '\xff';
      let q = Page.unpack dst in
      let a = Page.to_bytes p and b = Page.to_bytes q in
      let outside i = i < gap_start p || i >= gap_start p + gap p in
      for i = 0 to size - 1 do
        let want = if outside i then Bytes.get a i else '\000' in
        if Bytes.get b i <> want then QCheck.Test.fail_reportf "byte %d differs" i
      done;
      Page.equal_content p q)

(* Packing into a caller's buffer and unpacking in place allocate
   nothing: a stored page moves through the store's own buffers. *)
let test_pack_unpack_allocate_nothing () =
  let p = mk () in
  for i = 1 to 30 do
    ignore (Page.insert p (Bytes.make 100 (Char.chr (64 + i))))
  done;
  let dst = Bytes.create (Page.size p) in
  let minor_words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let empty = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        ignore (Page.pack p dst : int);
        ignore (Page.unpack dst : Page.t))
  in
  Alcotest.(check (float 0.)) "no minor words" empty words;
  Alcotest.(check bool) "same content" true (Page.equal_content p (Page.of_bytes dst))

(* [compact] zeroes the payload tail it vacates. *)
let test_compact_zeroes_tail () =
  let p = mk () in
  let slots = List.init 4 (fun i -> Option.get (Page.insert p (Bytes.make 100 (Char.chr (65 + i))))) in
  let fs = Page.image_length p - (4 * Page.slot_count p) in
  List.iter (fun i -> ignore (Page.delete p i)) [ List.nth slots 0; List.nth slots 2 ];
  Page.compact p;
  let fs' = Page.image_length p - (4 * Page.slot_count p) in
  Alcotest.(check int) "two records reclaimed" (fs - 200) fs';
  Alcotest.(check string) "vacated tail zeroed" (String.make 200 '\000')
    (Bytes.sub_string (Page.to_bytes p) fs' 200)

let test_record_roundtrip () =
  let row = Record.[ I 42; S "hello"; F 3.25; I (-7); S "" ] in
  let b = Record.encode row in
  Alcotest.(check int) "size" (Record.encoded_size row) (Bytes.length b);
  let row' = Record.decode b in
  Alcotest.(check bool) "roundtrip" true (row = row')

let test_record_accessors () =
  let row = Record.[ I 1; S "two"; F 3.0 ] in
  Alcotest.(check int) "int" 1 (Record.get_int row 0);
  Alcotest.(check string) "string" "two" (Record.get_string row 1);
  Alcotest.(check (float 0.0)) "float" 3.0 (Record.get_float row 2);
  let row' = Record.set row 0 (Record.I 9) in
  Alcotest.(check int) "set" 9 (Record.get_int row' 0);
  Alcotest.check_raises "type error" (Invalid_argument "Record.get_int: not an int")
    (fun () -> ignore (Record.get_int row 1))

let test_record_malformed () =
  Alcotest.check_raises "unknown tag" (Invalid_argument "Record.decode: unknown tag")
    (fun () -> ignore (Record.decode (Bytes.make 3 '\009')));
  Alcotest.check_raises "truncated" (Invalid_argument "Record.decode: truncated int")
    (fun () -> ignore (Record.decode (Bytes.make 4 '\000')))

let prop_record_roundtrip =
  let gen_field =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun n -> Record.I n) int);
          (1, map (fun f -> Record.F f) (float_bound_exclusive 1e12));
          (3, map (fun s -> Record.S s) (string_size (int_range 0 100)));
        ])
  in
  QCheck.Test.make ~name:"record codec roundtrips" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_field))
    (fun row -> Record.decode (Record.encode row) = row)

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "empty page" `Quick test_empty_page;
          Alcotest.test_case "insert/read" `Quick test_insert_read;
          Alcotest.test_case "delete & slot reuse" `Quick test_delete_and_slot_reuse;
          Alcotest.test_case "update in place & relocate" `Quick test_update_in_place_and_relocating;
          Alcotest.test_case "failed grow leaves the page" `Quick test_failed_grow_leaves_page;
          Alcotest.test_case "failed insert leaves the page" `Quick test_failed_insert_leaves_page;
          Alcotest.test_case "byte-range update" `Quick test_update_bytes;
          Alcotest.test_case "insert_at (replay)" `Quick test_insert_at;
          Alcotest.test_case "fill until full" `Quick test_fill_until_full;
          Alcotest.test_case "compaction reclaims" `Quick test_compaction_reclaims;
          Alcotest.test_case "compact preserves content" `Quick test_compact_preserves_content;
          Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic;
          Alcotest.test_case "iter over live" `Quick test_iter;
          Alcotest.test_case "in-place scan = read" `Quick test_iter_in_place;
          Alcotest.test_case "in-place scan allocates nothing" `Quick
            test_iter_in_place_allocates_nothing;
          Alcotest.test_case "key searches = brute force" `Quick test_key_searches_match_model;
          Alcotest.test_case "key searches allocate nothing" `Quick
            test_key_searches_allocate_nothing;
          Alcotest.test_case "find_int64 = nearest_int64 answer" `Quick test_find_int64_matches_nearest;
          Alcotest.test_case "find_int64 and full-directory insert allocate nothing" `Quick
            test_find_int64_and_insert_allocate_nothing;
          Alcotest.test_case "record_offset & has_room" `Quick test_record_offset_and_has_room;
          QCheck_alcotest.to_alcotest prop_page_vs_model;
          Alcotest.test_case "compact zeroes the vacated tail" `Quick test_compact_zeroes_tail;
          Alcotest.test_case "pack and unpack allocate nothing" `Quick
            test_pack_unpack_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "accessors" `Quick test_record_accessors;
          Alcotest.test_case "malformed input" `Quick test_record_malformed;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
        ] );
    ]

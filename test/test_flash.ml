(* Tests for the NAND flash chip simulator: erase-before-write discipline,
   timing accounting, wear tracking, data round-trips, and contents
   against a byte-array model across erases and buffer reuse. *)

module Config = Flash_sim.Flash_config
module Chip = Flash_sim.Flash_chip
module Stats = Flash_sim.Flash_stats

let small_config ?(materialize = true) () = Config.default ~num_blocks:8 ~materialize ()

let mk ?materialize () = Chip.create (small_config ?materialize ())

let sector_bytes chip n =
  Bytes.make ((Chip.config chip).Config.sector_size * n) 'x'

let test_geometry () =
  let c = small_config () in
  Alcotest.(check int) "sectors/page" 4 (Config.sectors_per_page c);
  Alcotest.(check int) "sectors/block" 256 (Config.sectors_per_block c);
  Alcotest.(check int) "pages/block" 64 (Config.pages_per_block c);
  Alcotest.(check int) "capacity" (8 * 128 * 1024) (Config.capacity_bytes c)

let test_fresh_state () =
  let chip = mk () in
  Alcotest.(check int) "num sectors" (8 * 256) (Chip.num_sectors chip);
  for s = 0 to Chip.num_sectors chip - 1 do
    assert (Chip.sector_state chip s = Chip.Free)
  done;
  Alcotest.(check int) "no live sectors" 0 (Chip.live_sectors chip)

let test_write_read_roundtrip () =
  let chip = mk () in
  let data = Bytes.init 512 (fun i -> Char.chr (i mod 256)) in
  Chip.write_sectors chip ~sector:10 data;
  let got = Chip.read_sectors chip ~sector:10 ~count:1 in
  Alcotest.(check bytes) "roundtrip" data got;
  Alcotest.(check bool) "state valid" true (Chip.sector_state chip 10 = Chip.Valid)

let test_read_erased_is_ff () =
  let chip = mk () in
  let got = Chip.read_sectors chip ~sector:0 ~count:2 in
  Bytes.iter (fun c -> assert (c = '\xff')) got;
  Alcotest.(check int) "length" 1024 (Bytes.length got)

let test_erase_before_write_enforced () =
  let chip = mk () in
  Chip.write_sectors chip ~sector:5 (sector_bytes chip 1);
  (try
     Chip.write_sectors chip ~sector:5 (sector_bytes chip 1);
     Alcotest.fail "expected Write_to_unerased"
   with Chip.Write_to_unerased s -> Alcotest.(check int) "offending sector" 5 s);
  (* After erasing the block the sector is programmable again. *)
  Chip.erase_block chip 0;
  Chip.write_sectors chip ~sector:5 (sector_bytes chip 1)

let test_overwrite_detected_mid_range () =
  let chip = mk () in
  Chip.write_sectors chip ~sector:7 (sector_bytes chip 1);
  try
    Chip.write_sectors chip ~sector:6 (sector_bytes chip 3);
    Alcotest.fail "expected Write_to_unerased"
  with Chip.Write_to_unerased s -> Alcotest.(check int) "offending sector" 7 s

let test_erase_resets_block () =
  let chip = mk () in
  Chip.write_sectors chip ~sector:0 (sector_bytes chip 8);
  Chip.erase_block chip 0;
  for s = 0 to 255 do
    assert (Chip.sector_state chip s = Chip.Free)
  done;
  let got = Chip.read_sectors chip ~sector:0 ~count:1 in
  Bytes.iter (fun c -> assert (c = '\xff')) got

let test_invalidate () =
  let chip = mk () in
  Chip.write_sectors chip ~sector:3 (sector_bytes chip 2);
  Chip.invalidate_sectors chip ~sector:3 ~count:1;
  Alcotest.(check bool) "invalid" true (Chip.sector_state chip 3 = Chip.Invalid);
  Alcotest.(check bool) "other still valid" true (Chip.sector_state chip 4 = Chip.Valid);
  (* Invalidating a free sector is a no-op. *)
  Chip.invalidate_sectors chip ~sector:100 ~count:1;
  Alcotest.(check bool) "free unchanged" true (Chip.sector_state chip 100 = Chip.Free)

let test_timing_read_write_erase () =
  let chip = mk () in
  let c = Chip.config chip in
  (* One sector write costs a full physical-page program (footnote 5). *)
  Chip.write_sectors chip ~sector:0 (sector_bytes chip 1);
  Alcotest.(check (float 1e-12)) "sector write = page program" c.Config.t_write_page
    (Chip.elapsed chip);
  Chip.reset_stats chip;
  (* Reading 4 sectors within one physical page costs one page read. *)
  ignore (Chip.read_sectors chip ~sector:0 ~count:4);
  Alcotest.(check (float 1e-12)) "aligned 2K read" c.Config.t_read_page (Chip.elapsed chip);
  Chip.reset_stats chip;
  (* A misaligned 4-sector read spans two physical pages. *)
  ignore (Chip.read_sectors chip ~sector:2 ~count:4);
  Alcotest.(check (float 1e-12)) "straddling read" (2.0 *. c.Config.t_read_page)
    (Chip.elapsed chip);
  Chip.reset_stats chip;
  Chip.erase_block chip 1;
  Alcotest.(check (float 1e-12)) "erase" c.Config.t_erase_block (Chip.elapsed chip)

let test_merge_cost_is_about_20ms () =
  (* The paper (Section 4.2.3) estimates a full erase-unit merge at ~20 ms:
     read 128 KB + write 128 KB + erase. Verify our chip reproduces it. *)
  let chip = mk () in
  Chip.reset_stats chip;
  ignore (Chip.read_sectors chip ~sector:0 ~count:256);
  Chip.write_sectors chip ~sector:256 (Bytes.make (128 * 1024) 'm');
  Chip.erase_block chip 0;
  let t = Chip.elapsed chip in
  Alcotest.(check bool)
    (Printf.sprintf "merge cost %.1f ms in [18,21]" (t *. 1e3))
    true
    (t > 0.018 && t < 0.021)

let test_stats_counters () =
  let chip = mk () in
  ignore (Chip.read_sectors chip ~sector:0 ~count:8);
  Chip.write_sectors chip ~sector:16 (sector_bytes chip 4);
  Chip.erase_block chip 2;
  let s = Chip.stats chip in
  Alcotest.(check int) "page reads" 2 s.Stats.page_reads;
  Alcotest.(check int) "page writes" 1 s.Stats.page_writes;
  Alcotest.(check int) "erases" 1 s.Stats.block_erases;
  Alcotest.(check int) "sectors read" 8 s.Stats.sectors_read;
  Alcotest.(check int) "sectors written" 4 s.Stats.sectors_written

let test_wear_tracking () =
  let chip = mk () in
  for _ = 1 to 5 do
    Chip.erase_block chip 3
  done;
  Chip.erase_block chip 4;
  Alcotest.(check int) "block 3 wear" 5 (Chip.erase_count chip 3);
  Alcotest.(check int) "block 4 wear" 1 (Chip.erase_count chip 4);
  Alcotest.(check int) "block 0 wear" 0 (Chip.erase_count chip 0)

let test_out_of_range () =
  let chip = mk () in
  Alcotest.check_raises "read oob" (Chip.Out_of_range 4096) (fun () ->
      ignore (Chip.read_sectors chip ~sector:4096 ~count:1));
  Alcotest.check_raises "erase oob" (Chip.Out_of_range 8) (fun () -> Chip.erase_block chip 8)

let test_counter_mode_no_data () =
  let chip = mk ~materialize:false () in
  Chip.write_sectors chip ~sector:0 (sector_bytes chip 1);
  (* Counter-only chips still enforce the state machine... *)
  (try
     Chip.write_sectors chip ~sector:0 (sector_bytes chip 1);
     Alcotest.fail "expected Write_to_unerased"
   with Chip.Write_to_unerased _ -> ());
  (* ...but return erased-looking data. *)
  let got = Chip.read_sectors chip ~sector:0 ~count:1 in
  Bytes.iter (fun c -> assert (c = '\xff')) got

let test_free_sectors_in_block () =
  let chip = mk () in
  Alcotest.(check int) "all free" 256 (Chip.free_sectors_in_block chip 0);
  Chip.write_sectors chip ~sector:0 (sector_bytes chip 10);
  Alcotest.(check int) "ten used" 246 (Chip.free_sectors_in_block chip 0)

(* Property: any interleaving of valid writes and erases keeps the
   state machine consistent (writes only into Free, erases reset). *)
let prop_state_machine =
  QCheck.Test.make ~name:"random ops keep state machine consistent" ~count:50
    QCheck.(small_list (pair (int_bound 7) bool))
    (fun ops ->
      let chip = mk () in
      List.iter
        (fun (block, do_erase) ->
          if do_erase then Chip.erase_block chip block
          else begin
            (* Write the first free sector of the block, if any. *)
            let base = Chip.sector_of_block chip block in
            let rec find s =
              if s >= base + 256 then None
              else if Chip.sector_state chip s = Chip.Free then Some s
              else find (s + 1)
            in
            match find base with
            | Some s -> Chip.write_sectors chip ~sector:s (sector_bytes chip 1)
            | None -> ()
          end)
        ops;
      (* Invariant: live + free + invalid = total, and data in valid
         sectors is readable. *)
      let live = Chip.live_sectors chip in
      live >= 0 && live <= Chip.num_sectors chip)

(* ---------------- fault injection ---------------- *)

let test_invalid_read_stale () =
  let chip = mk () in
  let data = Bytes.init 512 (fun i -> Char.chr (i mod 256)) in
  Chip.write_sectors chip ~sector:3 data;
  Chip.invalidate_sectors chip ~sector:3 ~count:1;
  Alcotest.(check bool) "state invalid" true (Chip.sector_state chip 3 = Chip.Invalid);
  (* Documented contract: Invalid sectors return their stale programmed
     data (merge rollback and the overflow read path depend on it). *)
  Alcotest.(check bytes) "stale data readable" data (Chip.read_sectors chip ~sector:3 ~count:1)

let test_fault_fail_stop () =
  let chip = mk () in
  let data = Bytes.init 512 (fun i -> Char.chr (i mod 7)) in
  Chip.write_sectors chip ~sector:0 data;
  Chip.set_fault_hook chip
    (Some (fun idx _ -> if idx = 2 then Chip.Fail_stop else Chip.Proceed));
  ignore (Chip.read_sectors chip ~sector:0 ~count:1);
  (* op 1 *)
  (try
     ignore (Chip.read_sectors chip ~sector:0 ~count:1);
     Alcotest.fail "expected Power_loss"
   with Chip.Power_loss n -> Alcotest.(check int) "op index" 2 n);
  Alcotest.(check bool) "dead" true (Chip.is_dead chip);
  (try
     ignore (Chip.read_sectors chip ~sector:0 ~count:1);
     Alcotest.fail "dead chip must refuse all operations"
   with Chip.Power_loss _ -> ());
  (* Clearing the hook models power coming back on. *)
  Chip.set_fault_hook chip None;
  Alcotest.(check bool) "revived" false (Chip.is_dead chip);
  Alcotest.(check bytes) "data intact" data (Chip.read_sectors chip ~sector:0 ~count:1)

let test_fault_torn_program () =
  let chip = mk () in
  Chip.set_fault_hook chip
    (Some
       (fun _ op ->
         match op with
         | Chip.Op_program { count; _ } when count = 4 -> Chip.Tear 2
         | _ -> Chip.Proceed));
  (try
     Chip.write_sectors chip ~sector:8 (sector_bytes chip 4);
     Alcotest.fail "expected Power_loss"
   with Chip.Power_loss _ -> ());
  Chip.set_fault_hook chip None;
  Alcotest.(check bool) "first half programmed" true
    (Chip.sector_state chip 8 = Chip.Valid && Chip.sector_state chip 9 = Chip.Valid);
  Alcotest.(check bool) "second half still erased" true
    (Chip.sector_state chip 10 = Chip.Free && Chip.sector_state chip 11 = Chip.Free)

let test_fault_flip_bit () =
  let chip = mk () in
  let data = Bytes.make 512 'a' in
  Chip.set_fault_hook chip
    (Some
       (fun _ op ->
         match op with Chip.Op_program _ -> Chip.Flip_bit 100 | _ -> Chip.Proceed));
  (* Silent: the program itself succeeds. *)
  Chip.write_sectors chip ~sector:0 data;
  Chip.set_fault_hook chip None;
  let got = Chip.read_sectors chip ~sector:0 ~count:1 in
  let differing = ref 0 in
  Bytes.iteri (fun i c -> if c <> Bytes.get data i then incr differing) got;
  Alcotest.(check int) "exactly one byte corrupted" 1 !differing

let test_fault_transient_read () =
  let chip = mk () in
  let data = Bytes.init 512 (fun i -> Char.chr (i mod 11)) in
  Chip.write_sectors chip ~sector:5 data;
  Chip.set_fault_hook chip
    (Some
       (fun idx op ->
         match op with Chip.Op_read _ when idx = 1 -> Chip.Read_fault | _ -> Chip.Proceed));
  (try
     ignore (Chip.read_sectors chip ~sector:5 ~count:1);
     Alcotest.fail "expected Read_error"
   with Chip.Read_error s -> Alcotest.(check int) "failing sector" 5 s);
  Alcotest.(check bool) "transient: chip still alive" false (Chip.is_dead chip);
  Alcotest.(check bytes) "retry succeeds" data (Chip.read_sectors chip ~sector:5 ~count:1);
  Chip.set_fault_hook chip None

(* [read_sectors_into] is [read_sectors] into a caller's buffer: over a
   dirty destination it must yield the same bytes on programmed, erased
   and invalidated sectors, charge the same counters and time, and fail
   on an injected fault exactly as the allocating read does, leaving the
   destination untouched. Two chips run the same operations, one reading
   each way. *)
let test_read_into_matches_read () =
  List.iter
    (fun materialize ->
      let setup () =
        let chip = mk ~materialize () in
        Chip.write_sectors chip ~sector:0
          (Bytes.init (6 * 512) (fun i -> Char.chr ((i * 7) mod 251)));
        Chip.invalidate_sectors chip ~sector:2 ~count:2;
        chip
      in
      let a = setup () and b = setup () in
      let ss = (Chip.config a).Config.sector_size in
      let label s = Printf.sprintf "%s (materialize=%b)" s materialize in
      List.iter
        (fun (sector, count) ->
          let want = Chip.read_sectors a ~sector ~count in
          let dst = Bytes.make (count * ss) 'Z' in
          Chip.read_sectors_into b ~sector ~count dst;
          Alcotest.(check bytes) (label "same bytes") want dst)
        [ (0, 10); (2, 2); (6, 4); (1, 1) ];
      Alcotest.(check bool) (label "same stats") true (Chip.stats a = Chip.stats b);
      Alcotest.(check (float 0.)) (label "same elapsed") (Chip.elapsed a) (Chip.elapsed b);
      Alcotest.check_raises (label "short destination") (Invalid_argument
        "Flash_chip.read_sectors_into: destination must hold at least count sectors")
        (fun () -> Chip.read_sectors_into b ~sector:0 ~count:2 (Bytes.create ss));
      Alcotest.(check int) (label "rejected read is not an operation") (Chip.op_count a)
        (Chip.op_count b);
      let fault chip =
        Chip.set_fault_hook chip
          (Some (fun _ op -> match op with Chip.Op_read _ -> Chip.Read_fault | _ -> Chip.Proceed))
      in
      fault a;
      fault b;
      Alcotest.check_raises (label "read fault") (Chip.Read_error 4) (fun () ->
          ignore (Chip.read_sectors a ~sector:4 ~count:2));
      let dst = Bytes.make (2 * ss) 'Z' in
      Alcotest.check_raises (label "read fault into") (Chip.Read_error 4) (fun () ->
          Chip.read_sectors_into b ~sector:4 ~count:2 dst);
      Alcotest.(check bytes) (label "failed read leaves destination") (Bytes.make (2 * ss) 'Z') dst;
      Alcotest.(check bool) (label "same stats after fault") true (Chip.stats a = Chip.stats b);
      Alcotest.(check int) (label "same op count") (Chip.op_count a) (Chip.op_count b))
    [ true; false ]

(* A program of the first [count] sectors of a longer buffer programs
   only those, charged by the flash pages they touch, and leaves the
   rest erased; a read of them lands at the front of a longer buffer
   and leaves its tail alone. *)
let test_front_of_buffer () =
  let chip = mk () in
  let ss = (Chip.config chip).Config.sector_size in
  let data = Bytes.init (8 * ss) (fun i -> Char.chr (i mod 251)) in
  Chip.write_sectors_from chip ~sector:16 ~count:5 data;
  let st = Chip.stats chip in
  Alcotest.(check int) "sectors programmed" 5 st.Flash_sim.Flash_stats.sectors_written;
  Alcotest.(check int) "flash pages programmed" 2 st.Flash_sim.Flash_stats.page_writes;
  Alcotest.(check bool) "last sector programmed" true (Chip.sector_state chip 20 = Chip.Valid);
  Alcotest.(check bool) "rest erased" true (Chip.sector_state chip 21 = Chip.Free);
  let dst = Bytes.make (8 * ss) 'Z' in
  Chip.read_sectors_into chip ~sector:16 ~count:5 dst;
  Alcotest.(check bytes) "front read" (Bytes.sub data 0 (5 * ss)) (Bytes.sub dst 0 (5 * ss));
  Alcotest.(check bytes) "tail untouched" (Bytes.make (3 * ss) 'Z') (Bytes.sub dst (5 * ss) (3 * ss));
  Alcotest.check_raises "count past the data"
    (Invalid_argument "Flash_chip.write_sectors_from: count must be positive and within the data")
    (fun () -> Chip.write_sectors_from chip ~sector:32 ~count:9 data)

let test_wear_histogram () =
  let chip = mk () in
  Chip.erase_block chip 0;
  Chip.erase_block chip 0;
  Chip.erase_block chip 3;
  let h = Chip.wear_histogram chip in
  Alcotest.(check int) "block 0 wear" 2 (Ipl_util.Histogram.count h 0);
  Alcotest.(check int) "block 3 wear" 1 (Ipl_util.Histogram.count h 3);
  Alcotest.(check int) "total erases" 3 (Ipl_util.Histogram.total h);
  let s = Chip.stats chip in
  Alcotest.(check int) "max wear in stats" 2 s.Stats.max_wear;
  Alcotest.(check (float 0.001)) "mean wear in stats" (3.0 /. 8.0) s.Stats.mean_wear

(* Seeded random programs, reads, erases and invalidations, with torn
   and bit-flipped programs and ranges across block boundaries, checked
   against the byte-array model in flash_model.ml. *)
let test_reference_model () =
  List.iter
    (fun seed ->
      let chip = mk () in
      Flash_model.run ~seed ~steps:1500 ~set_hook:(Chip.set_fault_hook chip)
        [| Flash_model.of_chip chip |])
    [ 1; 2; 3; 4; 5 ]

(* An erased block's old bytes never show: fill a block, erase it,
   program one sector and read the whole block back; then fill and erase
   it again and do the same on another block, which may take over the
   erased block's storage. *)
let test_erased_bytes_never_visible () =
  let chip = mk () in
  let c = Chip.config chip in
  let spb = Config.sectors_per_block c and ss = c.Config.sector_size in
  let one = Bytes.make ss 'o' in
  let read b = Chip.read_sectors chip ~sector:(b * spb) ~count:spb in
  Chip.write_sectors chip ~sector:0 (Bytes.make (spb * ss) 'q');
  Chip.erase_block chip 0;
  Chip.write_sectors chip ~sector:5 one;
  Flash_model.check_one_sector ~what:"same block" ~ss ~s:5 one (read 0);
  Chip.write_sectors chip ~sector:6 (Bytes.make ((spb - 6) * ss) 'r');
  Chip.erase_block chip 0;
  Chip.write_sectors chip ~sector:((3 * spb) + 9) one;
  Flash_model.check_one_sector ~what:"another block" ~ss ~s:9 one (read 3);
  Alcotest.(check bool) "erased block reads 0xff" true
    (Bytes.for_all (fun ch -> ch = '\xff') (read 0))

let () =
  Alcotest.run "flash_sim"
    [
      ( "geometry",
        [
          Alcotest.test_case "derived sizes" `Quick test_geometry;
          Alcotest.test_case "fresh state" `Quick test_fresh_state;
        ] );
      ( "data",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "erased reads 0xff" `Quick test_read_erased_is_ff;
          Alcotest.test_case "counter mode" `Quick test_counter_mode_no_data;
          Alcotest.test_case "front of a buffer" `Quick test_front_of_buffer;
        ] );
      ( "state machine",
        [
          Alcotest.test_case "erase-before-write" `Quick test_erase_before_write_enforced;
          Alcotest.test_case "overwrite mid-range" `Quick test_overwrite_detected_mid_range;
          Alcotest.test_case "erase resets block" `Quick test_erase_resets_block;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "free sector count" `Quick test_free_sectors_in_block;
          QCheck_alcotest.to_alcotest prop_state_machine;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "invalid sector reads stale data" `Quick test_invalid_read_stale;
          Alcotest.test_case "fail-stop kills and revives" `Quick test_fault_fail_stop;
          Alcotest.test_case "torn multi-sector program" `Quick test_fault_torn_program;
          Alcotest.test_case "silent bit flip" `Quick test_fault_flip_bit;
          Alcotest.test_case "transient read error" `Quick test_fault_transient_read;
          Alcotest.test_case "read into matches read" `Quick test_read_into_matches_read;
          Alcotest.test_case "wear histogram" `Quick test_wear_histogram;
        ] );
      ( "reference model",
        [
          Alcotest.test_case "random sequences" `Quick test_reference_model;
          Alcotest.test_case "erased bytes never visible" `Quick test_erased_bytes_never_visible;
        ] );
      ( "timing & wear",
        [
          Alcotest.test_case "operation timing" `Quick test_timing_read_write_erase;
          Alcotest.test_case "merge ~20ms (paper)" `Quick test_merge_cost_is_about_20ms;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "wear tracking" `Quick test_wear_tracking;
        ] );
    ]

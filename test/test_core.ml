(* Tests for the IPL core building blocks: physiological log records,
   log sectors, the sequential system logs, and the storage manager. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Page = Storage.Page
module LR = Ipl_core.Log_record
module LS = Ipl_core.Log_sector
module Seq_log = Ipl_core.Seq_log
module Trx_log = Ipl_core.Trx_log
module Meta_log = Ipl_core.Meta_log
module Store = Ipl_core.Ipl_storage
module Config = Ipl_core.Ipl_config
module Engine = Ipl_core.Ipl_engine

(* The system logs and the bad-block manager now sit on the device
   layer; a raw chip is wrapped as a single-channel device (bit-for-bit
   the old serial behaviour). *)
let dev_of = Device.Flash_device.of_chip

(* The storage manager reaches its data area through a bad-block
   manager; these tests give it one with an empty spare pool. *)
let data_area chip =
  Resilience.Bbm.create (dev_of chip) ~spares:[] ~persist:ignore ~force:ignore ()

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Log records                                                         *)

let roundtrip r =
  let buf = Buffer.create 64 in
  LR.encode buf r;
  let r', pos = LR.decode (Buffer.to_bytes buf) ~pos:0 in
  Alcotest.(check int) "consumed all" (Buffer.length buf) pos;
  Alcotest.(check int) "encoded_size" (LR.encoded_size r) pos;
  Alcotest.(check bool) "roundtrip" true (r = r')

let test_record_roundtrips () =
  roundtrip { LR.txid = 7; page = 3; op = LR.Insert { slot = 2; record = b "data" } };
  roundtrip { LR.txid = 0; page = 1000; op = LR.Delete { slot = 0; before = b "gone" } };
  roundtrip
    {
      LR.txid = 9;
      page = 5;
      op = LR.Update_range { slot = 1; offset = 4; before = b "ab"; after = b "cd" };
    };
  roundtrip
    { LR.txid = 1; page = 2; op = LR.Update_full { slot = 3; before = b "x"; after = b "yz" } }

let page_error =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Page.error_to_string e)) ( = )

let test_record_apply () =
  let p = Page.create 512 in
  let r1 = { LR.txid = 1; page = 0; op = LR.Insert { slot = 0; record = b "hello" } } in
  Alcotest.(check (result unit page_error)) "apply insert" (Ok ()) (LR.apply p r1);
  Alcotest.(check (option bytes)) "inserted" (Some (b "hello")) (Page.read p 0);
  let r2 =
    { LR.txid = 1; page = 0; op = LR.Update_range { slot = 0; offset = 0; before = b "he"; after = b "HE" } }
  in
  Alcotest.(check (result unit page_error)) "apply update" (Ok ()) (LR.apply p r2);
  Alcotest.(check (option bytes)) "updated" (Some (b "HEllo")) (Page.read p 0);
  Alcotest.(check (result unit page_error)) "insert into a live slot" (Error `Slot_already_live)
    (LR.apply p r1)

let test_record_delete_cycle () =
  let p = Page.create 512 in
  ignore (Page.insert p (b "victim"));
  let r = { LR.txid = 2; page = 0; op = LR.Delete { slot = 0; before = b "victim" } } in
  Alcotest.(check (result unit page_error)) "apply delete" (Ok ()) (LR.apply p r);
  Alcotest.(check (option bytes)) "deleted" None (Page.read p 0)

(* The one rebuild function: records apply in order up to the first that
   does not, and the failure names that record's page, transaction and
   slot with the page's own error. *)
let test_replay_failure () =
  let p = Page.create 512 in
  let fits = { LR.txid = 4; page = 7; op = LR.Insert { slot = 0; record = Bytes.make 300 'a' } } in
  let too_big = { LR.txid = 5; page = 7; op = LR.Insert { slot = 1; record = Bytes.make 300 'b' } } in
  match LR.replay p [ fits; too_big ] with
  | () -> Alcotest.fail "a record that does not fit must fail the replay"
  | exception LR.Replay_failed f ->
      Alcotest.(check (triple int int int)) "page, transaction, slot" (7, 5, 1)
        (f.record.LR.page, f.record.LR.txid, LR.slot f.record);
      Alcotest.(check page_error) "page error" `Page_full f.error;
      Alcotest.(check (option bytes)) "records before it applied" (Some (Bytes.make 300 'a'))
        (Page.read p 0);
      Alcotest.(check string) "printed"
        "log replay failed (page full) on {tx=5 page=7 slot=1 insert 313B}"
        (Format.asprintf "%a" LR.pp_replay_failure f)

let prop_record_roundtrip =
  let gen =
    QCheck.Gen.(
      let bytes_gen = map Bytes.of_string (string_size (int_range 0 60)) in
      let op =
        frequency
          [
            (2, map2 (fun slot r -> LR.Insert { slot; record = r }) (int_bound 100) bytes_gen);
            (1, map2 (fun slot r -> LR.Delete { slot; before = r }) (int_bound 100) bytes_gen);
            ( 3,
              map3
                (fun slot offset img ->
                  LR.Update_range { slot; offset; before = img; after = Bytes.map (fun c -> Char.chr (Char.code c lxor 1)) img })
                (int_bound 100) (int_bound 500) bytes_gen );
            ( 1,
              map3
                (fun slot before after -> LR.Update_full { slot; before; after })
                (int_bound 100) bytes_gen bytes_gen );
          ]
      in
      map3 (fun txid page op -> { LR.txid; page; op }) (int_bound 10000) (int_bound 100000) op)
  in
  QCheck.Test.make ~name:"log record codec roundtrips" ~count:500 (QCheck.make gen)
    (fun r ->
      let buf = Buffer.create 64 in
      LR.encode buf r;
      let r', pos = LR.decode (Buffer.to_bytes buf) ~pos:0 in
      r = r' && pos = Buffer.length buf)

(* ------------------------------------------------------------------ *)
(* Log sectors                                                         *)

let mk_update txid page n =
  {
    LR.txid;
    page;
    op = LR.Update_range { slot = n; offset = 0; before = b "aaaa"; after = b "bbbb" };
  }

let test_sector_fill_and_serialize () =
  let ls = LS.create ~capacity:512 in
  Alcotest.(check bool) "empty" true (LS.is_empty ls);
  let rec fill n =
    match LS.add ls (mk_update 1 0 n) with `Added -> fill (n + 1) | `Full -> n
  in
  let n = fill 0 in
  (* Each record: 11 header + 2 off + 2 len + 8 = 23 bytes; (512-8)/23 = 21. *)
  Alcotest.(check int) "records until full" 21 n;
  let img = LS.serialize ls in
  Alcotest.(check int) "sector-sized" 512 (Bytes.length img);
  let records = LS.deserialize img in
  Alcotest.(check int) "deserialized count" n (List.length records);
  Alcotest.(check bool) "same records" true (records = LS.records ls)

let test_sector_order_preserved () =
  let ls = LS.create ~capacity:512 in
  for i = 0 to 9 do
    match LS.add ls (mk_update 1 0 i) with `Added -> () | `Full -> Alcotest.fail "full"
  done;
  let slots =
    List.map
      (fun r -> match r.LR.op with LR.Update_range { slot; _ } -> slot | _ -> -1)
      (LS.records ls)
  in
  Alcotest.(check (list int)) "arrival order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] slots

let test_sector_remove_txn () =
  let ls = LS.create ~capacity:512 in
  List.iter
    (fun (tx, n) -> ignore (LS.add ls (mk_update tx 0 n)))
    [ (1, 0); (2, 1); (1, 2); (3, 3) ];
  let txids () = List.sort_uniq compare (List.map (fun r -> r.LR.txid) (LS.records ls)) in
  Alcotest.(check (list int)) "txids" [ 1; 2; 3 ] (txids ());
  Alcotest.(check bool) "user txn" true (LS.has_user_txn ls);
  let before = Gc.minor_words () in
  let found = LS.has_user_txn ls in
  let words = Gc.minor_words () -. before in
  let empty = (let b = Gc.minor_words () in Gc.minor_words () -. b) in
  Alcotest.(check bool) "found" true found;
  Alcotest.(check (float 0.)) "predicate allocates nothing" empty words;
  let removed = LS.remove_txn ls 1 in
  Alcotest.(check int) "removed" 2 (List.length removed);
  Alcotest.(check int) "remaining" 2 (LS.count ls);
  Alcotest.(check (list int)) "txids after" [ 2; 3 ] (txids ());
  let used = LS.bytes_used ls in
  LS.clear ls;
  Alcotest.(check bool) "cleared" true (LS.is_empty ls && LS.bytes_used ls < used);
  ignore (LS.add ls (mk_update 0 0 4));
  Alcotest.(check bool) "txid 0 is no user txn" false (LS.has_user_txn ls)

(* [pack] against a reference built with [add]: each run fills an empty
   sector and the next run's first record did not fit it. *)
(* [pack] against a reference built with [add]: each sector takes its
   records in order, and the next sector's first record did not fit it. *)
let test_sector_pack () =
  let sized n = { LR.txid = 1; page = n; op = LR.Insert { slot = 0; record = Bytes.make n 'p' } } in
  let rng = Ipl_util.Rng.of_int 5 in
  for _ = 1 to 200 do
    let records = List.init (Ipl_util.Rng.int rng 12) (fun _ -> sized (1 + Ipl_util.Rng.int rng 300)) in
    let sectors = LS.pack ~capacity:512 records in
    Alcotest.(check bool) "order kept" true (List.concat_map LS.records sectors = records);
    List.iteri
      (fun i s ->
        Alcotest.(check bool) "no empty sector" false (LS.is_empty s);
        match List.nth_opt sectors (i + 1) with
        | Some next ->
            let full = LS.create ~capacity:512 in
            List.iter (fun r -> ignore (LS.add full r)) (LS.records s);
            Alcotest.(check bool) "greedy" true (LS.add full (List.hd (LS.records next)) = `Full)
        | None -> ())
      sectors
  done;
  Alcotest.(check int) "a list that fits is one sector" 1
    (List.length (LS.pack ~capacity:512 [ sized 10; sized 20 ]));
  Alcotest.(check int) "nothing to pack" 0 (List.length (LS.pack ~capacity:512 []));
  Alcotest.check_raises "oversized" (LS.Record_too_large (sized 500 |> LR.encoded_size)) (fun () ->
      ignore (LS.pack ~capacity:512 [ sized 1; sized 500 ]))

let test_sector_checksum_detects_corruption () =
  let ls = LS.create ~capacity:512 in
  for i = 0 to 4 do
    ignore (LS.add ls (mk_update 1 0 i))
  done;
  let img = LS.serialize ls in
  Alcotest.(check int) "clean roundtrip" 5 (List.length (LS.deserialize img));
  (* Flip one payload byte: the CRC must catch it. *)
  let broken = Bytes.copy img in
  Bytes.set broken 20 (Char.chr (Char.code (Bytes.get broken 20) lxor 1));
  (try
     ignore (LS.deserialize broken);
     Alcotest.fail "expected Corrupt"
   with LS.Corrupt -> ());
  (* A header with an insane used field is rejected too. *)
  let bad_used = Bytes.copy img in
  Bytes.set_uint16_le bad_used 2 3;
  try
    ignore (LS.deserialize bad_used);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ | LS.Corrupt -> ()

let test_sector_oversized_record () =
  let ls = LS.create ~capacity:128 in
  let big = { LR.txid = 1; page = 0; op = LR.Insert { slot = 0; record = Bytes.make 200 'x' } } in
  try
    ignore (LS.add ls big);
    Alcotest.fail "expected Record_too_large"
  with LS.Record_too_large _ -> ()

(* ------------------------------------------------------------------ *)
(* Sequential log                                                      *)

let small_chip () = Chip.create (FConfig.default ~num_blocks:16 ())

let test_seq_log_roundtrip () =
  let chip = small_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  List.iter
    (fun s -> match Seq_log.append log (b s) with `Ok -> () | `Full -> Alcotest.fail "full")
    [ "one"; "two"; "three" ];
  (* Unforced records are not durable. *)
  Alcotest.(check int) "nothing durable yet" 0 (List.length (Seq_log.records log));
  Seq_log.force log;
  Alcotest.(check (list string)) "durable after force" [ "one"; "two"; "three" ]
    (List.map Bytes.to_string (Seq_log.records log))

let test_seq_log_recover_position () =
  let chip = small_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  ignore (Seq_log.append log (b "alpha"));
  Seq_log.force log;
  ignore (Seq_log.append log (b "buffered-lost"));
  (* Crash: recover from the chip alone. *)
  let log' = Seq_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Alcotest.(check (list string)) "only forced survives" [ "alpha" ]
    (List.map Bytes.to_string (Seq_log.records log'));
  (* Appending continues in fresh sectors. *)
  ignore (Seq_log.append log' (b "beta"));
  Seq_log.force log';
  Alcotest.(check (list string)) "continued" [ "alpha"; "beta" ]
    (List.map Bytes.to_string (Seq_log.records log'))

let test_seq_log_fills_up () =
  let chip = small_chip () in
  let log = Seq_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  (* Each record takes a whole sector when forced individually: 256 sectors. *)
  let rec spam n =
    match Seq_log.append log (Bytes.make 400 'r') with
    | `Ok ->
        Seq_log.force log;
        spam (n + 1)
    | `Full -> n
  in
  let n = spam 0 in
  Alcotest.(check int) "capacity reached" (Seq_log.sector_capacity log) n;
  Seq_log.reset log;
  Alcotest.(check int) "reset" 0 (Seq_log.sectors_written log);
  (match Seq_log.append log (b "again") with `Ok -> () | `Full -> Alcotest.fail "reset full");
  Seq_log.force log;
  Alcotest.(check int) "usable after reset" 1 (List.length (Seq_log.records log))

(* ------------------------------------------------------------------ *)
(* Transaction log                                                     *)

(* A transaction log over a system log of its own, [num_blocks] long,
   whose compaction snapshot is the status table's. *)
let trx_log chip ~num_blocks =
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks in
  let trx = Trx_log.create meta in
  Meta_log.set_snapshot meta (fun () -> Trx_log.snapshot trx);
  (meta, trx)

(* A restart of it: one scan of the system log rebuilds the table, then
   the transactions still active are aborted. *)
let recover_trx_log chip ~num_blocks =
  let meta, events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks in
  let trx = Trx_log.recover meta events in
  Meta_log.set_snapshot meta (fun () -> Trx_log.snapshot trx);
  (trx, Trx_log.abort_active trx)

(* A commit as the engine makes one: defer the record, append it at
   the batch barrier, force the system log. *)
let commit (meta, log) txid =
  Trx_log.defer_commit log txid;
  Trx_log.flush_deferred log;
  Meta_log.force meta

let test_trx_log_statuses () =
  let chip = small_chip () in
  let ((_, log) as sys) = trx_log chip ~num_blocks:2 in
  Trx_log.log_begin log 1;
  Trx_log.log_begin log 2;
  commit sys 1;
  Alcotest.(check bool) "committed" true (Trx_log.status log 1 = Trx_log.Committed);
  Alcotest.(check bool) "active" true (Trx_log.status log 2 = Trx_log.Active);
  Alcotest.(check bool) "txid 0" true (Trx_log.status log 0 = Trx_log.Committed);
  Alcotest.(check bool) "unknown = committed" true (Trx_log.status log 99 = Trx_log.Committed);
  Alcotest.(check (list int)) "active list" [ 2 ] (Trx_log.active log);
  Alcotest.(check int) "max txid" 2 (Trx_log.max_txid log)

let test_trx_log_recovery_aborts_incomplete () =
  let chip = small_chip () in
  let ((_, log) as sys) = trx_log chip ~num_blocks:2 in
  Trx_log.log_begin log 1;
  commit sys 1;
  Trx_log.log_begin log 2;
  Trx_log.log_begin log 3;
  Trx_log.log_abort log 3;
  (* txid 2's begin rode along with txid 3's forced records. Crash now. *)
  let log', aborted = recover_trx_log chip ~num_blocks:2 in
  Alcotest.(check (list int)) "incomplete aborted" [ 2 ] aborted;
  Alcotest.(check bool) "1 committed" true (Trx_log.status log' 1 = Trx_log.Committed);
  Alcotest.(check bool) "2 aborted" true (Trx_log.status log' 2 = Trx_log.Aborted);
  Alcotest.(check bool) "3 aborted" true (Trx_log.status log' 3 = Trx_log.Aborted)

let test_trx_log_compaction () =
  let chip = small_chip () in
  let ((meta, log) as sys) = trx_log chip ~num_blocks:2 in
  (* Burn through far more commit cycles than raw sectors (256): compaction
     must kick in transparently. *)
  for txid = 1 to 2000 do
    Trx_log.log_begin log txid;
    commit sys txid
  done;
  Alcotest.(check bool) "compacted" true (Meta_log.compactions meta > 0);
  Trx_log.log_begin log 2001;
  Trx_log.log_abort log 2001;
  Alcotest.(check bool) "late abort" true (Trx_log.status log 2001 = Trx_log.Aborted);
  Alcotest.(check bool) "old commit" true (Trx_log.status log 1500 = Trx_log.Committed);
  (* Aborted ids survive crash + compaction. *)
  let log', _ = recover_trx_log chip ~num_blocks:2 in
  Alcotest.(check bool) "abort durable" true (Trx_log.status log' 2001 = Trx_log.Aborted)

(* A compaction fired by a mapping event while every status is committed
   keeps the transaction-id high-water mark: the snapshot holds no
   status record, so without [Trx_high] restart would reuse id 1. *)
let test_trx_log_high_water_survives_compaction () =
  let chip = small_chip () in
  let ((meta, log) as sys) = trx_log chip ~num_blocks:2 in
  Trx_log.log_begin log 1;
  commit sys 1;
  let before = Meta_log.compactions meta in
  while Meta_log.compactions meta = before do
    Meta_log.log meta (Meta_log.Merge { units = [ (2, 3) ]; trades = []; sectors = [ [| 1 |] ] });
    Meta_log.force meta
  done;
  let log', aborted = recover_trx_log chip ~num_blocks:2 in
  Alcotest.(check (list int)) "nothing to abort" [] aborted;
  Alcotest.(check bool) "1 still committed" true (Trx_log.status log' 1 = Trx_log.Committed);
  Alcotest.(check int) "high water kept" 1 (Trx_log.max_txid log')

(* ------------------------------------------------------------------ *)
(* Meta log                                                            *)

let test_meta_log_roundtrip () =
  let events =
    [
      Meta_log.Page_alloc { page = 1; eu = 2; idx = 3; sectors = 7; start = 0; base = 240 };
      Meta_log.Page_alloc { page = 2; eu = 2; idx = 4; sectors = 16; start = 7; base = 240 };
      (* an allocation into a merged unit's reservation, and the bytes'
         extremes *)
      Meta_log.Page_alloc { page = 3; eu = 7; idx = 2; sectors = 16; start = 171; base = 208 };
      Meta_log.Page_alloc { page = 4; eu = 7; idx = 14; sectors = 1; start = 255; base = 255 };
      Meta_log.Merge { units = [ (2, 7) ]; trades = []; sectors = [ [| 1; 16; 0; 4 |] ] };
      Meta_log.Merge
        { units = [ (2, 7); (4, 9) ]; trades = []; sectors = [ [| 3; 0 |]; [| 0; 16 |] ] };
      Meta_log.Merge
        {
          units = [ (2, 7); (4, 9) ];
          trades = [ (0, 3); (5, 14); (200, 15) ];
          sectors =
            [ Array.init 201 (fun i -> i mod 17); Array.init 201 (fun i -> 16 - (i mod 17)) ];
        };
      Meta_log.Overflow_alloc { eu = 9 };
      Meta_log.Overflow_assign { data_eu = 7; sector = 12345 };
      Meta_log.Overflow_release { data_eu = 7 };
      Meta_log.Overflow_free { eu = 9 };
    ]
  in
  List.iter
    (fun e -> Alcotest.(check bool) "codec" true (Meta_log.decode (Meta_log.encode e) = e))
    events;
  let chip = small_chip () in
  let log = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  List.iter (Meta_log.log log) events;
  Meta_log.force log;
  let _, recovered = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Alcotest.(check bool) "recovered in order" true (recovered = events)

(* Restart reads each written sector of the live half once: the first
   sector's records, read to learn the half's epoch, are kept. *)
let test_meta_log_recover_reads_once () =
  let module FStats = Flash_sim.Flash_stats in
  let chip = small_chip () in
  let stat f = f (Chip.stats chip) in
  let log = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Meta_log.set_snapshot log (fun () ->
      [ Meta_log.Page_alloc { page = 0; eu = 1; idx = 0; sectors = 1; start = 0; base = 240 } ]);
  let fill () =
    let written = stat (fun s -> s.FStats.sectors_written) in
    for page = 0 to 99 do
      Meta_log.log log
        (Meta_log.Page_alloc { page; eu = 1; idx = 0; sectors = 1; start = 0; base = 240 })
    done;
    Meta_log.force log;
    stat (fun s -> s.FStats.sectors_written) - written
  in
  let recover_reads () =
    let read = stat (fun s -> s.FStats.sectors_read) in
    ignore (Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 : Meta_log.t * _);
    stat (fun s -> s.FStats.sectors_read) - read
  in
  let first = fill () in
  Alcotest.(check bool) "several sectors" true (first > 1);
  Alcotest.(check int) "one read per sector of half 0" first (recover_reads ());
  let written = stat (fun s -> s.FStats.sectors_written) in
  Meta_log.compact log;
  let snapshot = stat (fun s -> s.FStats.sectors_written) - written in
  let more = fill () in
  Alcotest.(check int) "one read per sector of half 1" (snapshot + more) (recover_reads ())

let test_meta_log_compaction_via_snapshot () =
  let chip = small_chip () in
  let log = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Meta_log.set_snapshot log (fun () ->
      [ Meta_log.Page_alloc { page = 0; eu = 1; idx = 0; sectors = 1; start = 0; base = 240 } ]);
  for i = 0 to 20_000 do
    Meta_log.log log (Meta_log.Merge { units = [ (i, i + 1) ]; trades = []; sectors = [ [| 1 |] ] })
  done;
  Meta_log.force log;
  let _, recovered = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  (* Whatever survives must start with the snapshot. *)
  (match recovered with
  | Meta_log.Page_alloc { page = 0; eu = 1; idx = 0; sectors = 1; start = 0; base = 240 } :: _ -> ()
  | _ -> Alcotest.fail "snapshot not at head");
  Alcotest.(check bool) "bounded" true (List.length recovered < 25_000)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let test_config_rejects_recovery_off () =
  let validate c = Config.validate c ~sector_size:512 ~block_size:(128 * 1024) in
  validate Config.default;
  match validate { Config.default with Config.recovery_enabled = false } with
  | () -> Alcotest.fail "recovery_enabled = false must be rejected"
  | exception Invalid_argument _ -> ()

(* The system log records an image's sectors in one byte. A page fills
   less than its erase unit, so the bound on units (256 sectors) bounds
   pages to 255. *)
let test_config_rejects_pages_over_255_sectors () =
  let validate sector_size kb =
    Config.validate Config.default ~sector_size ~block_size:(kb * 1024)
  in
  let rejected what f =
    match f () with
    | () -> Alcotest.fail (what ^ " must be rejected")
    | exception Invalid_argument _ -> ()
  in
  validate 64 16;
  rejected "an erase unit of 512 sectors" (fun () -> validate 64 32);
  rejected "a page of 256 sectors" (fun () -> validate 32 128)

(* ------------------------------------------------------------------ *)
(* Storage manager                                                     *)

(* A small chip: 128 KB erase units, 8 KB pages, 8 KB log region ->
   15 data pages and 16 log sectors per erase unit. *)
let mk_store ?(config = Config.default) ?(blocks = 32) ?(txn_status = fun _ -> Trx_log.Committed) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store =
    Store.create ~config (data_area chip) ~first_block:2 ~num_blocks:(blocks - 2) ~txn_status ~meta ()
  in
  Meta_log.set_snapshot meta (fun () -> Store.snapshot store);
  (chip, meta, store)

let fresh_page () = Page.create 8192

(* One log sector holding [records]. *)
let sector records =
  match LS.pack ~capacity:512 records with
  | [ s ] -> s
  | _ -> Alcotest.fail "records do not fit one sector"

(* Flush [records], for pages of one unit, as one sector: a batch of
   one entry, for the first record's page. *)
let flush store records =
  match records with
  | [] -> Alcotest.fail "no records"
  | r :: _ -> Store.flush store [ (r.LR.page, sector records) ]

let page_with strs =
  let p = fresh_page () in
  List.iter (fun s -> ignore (Page.insert p (b s))) strs;
  p

let test_store_allocate_and_read () =
  let _, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "r0"; "r1" ]) in
  Alcotest.(check int) "first page id" 0 pid;
  Alcotest.(check bool) "exists" true (Store.page_exists store pid);
  Alcotest.(check int) "count" 1 (Store.num_pages store);
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "content" (Some (b "r1")) (Page.read p 1)

let test_store_pages_share_eu () =
  let _, _, store = mk_store () in
  let pids = List.init 20 (fun _ -> Store.allocate_page store (fresh_page ())) in
  (* 15 data pages per erase unit: pages 0-14 in one, 15-19 in the next. *)
  let eu0 = Store.eu_of_page store (List.nth pids 0) in
  Alcotest.(check int) "page 14 same eu" eu0 (Store.eu_of_page store (List.nth pids 14));
  Alcotest.(check bool) "page 15 next eu" true
    (Store.eu_of_page store (List.nth pids 15) <> eu0)

let test_store_log_flush_and_read_applies () =
  let _, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "hello" ]) in
  flush store
    [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "he"; after = b "HE" } } ];
  let eu = Store.eu_of_page store pid in
  Alcotest.(check int) "one log sector used" 1 (Store.used_log_sectors store ~eu);
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "log applied on read" (Some (b "HEllo")) (Page.read p 0);
  Alcotest.(check int) "live records" 1 (List.length (Store.live_log_records store ~page:pid))

let test_store_merge_when_log_full () =
  let _, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "hello" ]) in
  let eu_before = Store.eu_of_page store pid in
  (* 16 log sectors per erase unit: the 17th flush triggers a merge. *)
  for i = 1 to 17 do
    flush store
      [
        {
          LR.txid = 0;
          page = pid;
          op =
            LR.Update_range
              { slot = 0; offset = 0; before = b (Printf.sprintf "%02d" (i - 1)); after = b (Printf.sprintf "%02d" i) };
        };
      ]
  done;
  let s = Store.stats store in
  Alcotest.(check int) "one merge" 1 s.Store.merges;
  let eu_after = Store.eu_of_page store pid in
  Alcotest.(check bool) "relocated" true (eu_after <> eu_before);
  Alcotest.(check int) "log region reset + 1 pending-after-merge" 0
    (Store.used_log_sectors store ~eu:eu_after);
  (* Updates numbered 01..17 applied in order: record now reads "17llo"...
     the before-images were sized 2, so the visible prefix is "17". *)
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "all updates survived the merge" (Some (b "17llo"))
    (Page.read p 0);
  Alcotest.(check int) "no live log records left" 0
    (List.length (Store.live_log_records store ~page:pid))

let test_store_merge_reclaims_eu () =
  let _, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "x" ]) in
  let free_before = Store.free_eus store in
  for i = 0 to 16 do
    ignore i;
    flush store
      [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "x"; after = b "y" } } ]
  done;
  Alcotest.(check int) "free count unchanged (swap)" free_before (Store.free_eus store)

let test_store_aborted_records_skipped () =
  let statuses = Hashtbl.create 4 in
  let txn_status txid =
    if txid = 0 then Trx_log.Committed
    else Option.value ~default:Trx_log.Committed (Hashtbl.find_opt statuses txid)
  in
  let _, _, store = mk_store ~txn_status () in
  let pid = Store.allocate_page store (page_with [ "base" ]) in
  Hashtbl.replace statuses 1 Trx_log.Aborted;
  Hashtbl.replace statuses 2 Trx_log.Committed;
  flush store
    [
      { LR.txid = 1; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "b"; after = b "X" } };
      { LR.txid = 2; page = pid; op = LR.Update_range { slot = 0; offset = 1; before = b "a"; after = b "A" } };
    ];
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "only committed applied" (Some (b "bAse")) (Page.read p 0)

let test_store_selective_merge_diverts_to_overflow () =
  let statuses = Hashtbl.create 4 in
  let txn_status txid =
    if txid = 0 then Trx_log.Committed
    else Option.value ~default:Trx_log.Active (Hashtbl.find_opt statuses txid)
  in
  let config =
    { Config.default with Config.selective_merge_threshold = 0.5 }
  in
  let _, _, store = mk_store ~config ~txn_status () in
  let pid = Store.allocate_page store (page_with [ "base" ]) in
  let eu0 = Store.eu_of_page store pid in
  (* Fill all 16 log sectors with records of an active transaction, then
     flush one more: carry fraction 1.0 > 0.5, so no merge — overflow. *)
  for _ = 1 to 17 do
    flush store
      [ { LR.txid = 5; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "b"; after = b "b" } } ]
  done;
  let s = Store.stats store in
  Alcotest.(check int) "no merge" 0 s.Store.merges;
  Alcotest.(check int) "one diversion" 1 s.Store.overflow_diversions;
  Alcotest.(check int) "eu unchanged" eu0 (Store.eu_of_page store pid);
  Alcotest.(check int) "overflow sector assigned" 1 (Store.overflow_sectors store ~eu:eu0);
  (* Reads still see all 17 active records. *)
  Alcotest.(check int) "records visible" 17
    (List.length (Store.live_log_records store ~page:pid));
  (* Now commit the transaction; the next flush merges everything and the
     overflow area is reclaimed. *)
  Hashtbl.replace statuses 5 Trx_log.Committed;
  flush store
    [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "b"; after = b "B" } } ];
  let s = Store.stats store in
  Alcotest.(check int) "merged after commit" 1 s.Store.merges;
  Alcotest.(check int) "overflow reclaimed" 1 s.Store.erase_units_reclaimed;
  let eu1 = Store.eu_of_page store pid in
  Alcotest.(check int) "no overflow left" 0 (Store.overflow_sectors store ~eu:eu1);
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "final content" (Some (b "Base")) (Page.read p 0)

let test_store_carry_over_active_records () =
  let statuses = Hashtbl.create 4 in
  let txn_status txid =
    if txid = 0 then Trx_log.Committed
    else Option.value ~default:Trx_log.Committed (Hashtbl.find_opt statuses txid)
  in
  let config =
    (* tau = 1.0: a merge always proceeds, carrying active records over. *)
    { Config.default with Config.selective_merge_threshold = 1.0 }
  in
  let _, _, store = mk_store ~config ~txn_status () in
  let pid = Store.allocate_page store (page_with [ "base" ]) in
  Hashtbl.replace statuses 9 Trx_log.Active;
  (* One active record among committed filler. *)
  flush store
    [ { LR.txid = 9; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "b"; after = b "Z" } } ];
  for _ = 1 to 16 do
    flush store
      [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 1; before = b "a"; after = b "a" } } ]
  done;
  let s = Store.stats store in
  Alcotest.(check int) "merged" 1 s.Store.merges;
  Alcotest.(check int) "carried" 1 s.Store.records_carried_over;
  let eu = Store.eu_of_page store pid in
  Alcotest.(check int) "carried record compacted into new log region" 1
    (Store.used_log_sectors store ~eu);
  (* The active record is still applied on read (it is not aborted). *)
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "active change visible" (Some (b "Zase")) (Page.read p 0);
  (* Abort it: it disappears without any further I/O. *)
  Hashtbl.replace statuses 9 Trx_log.Aborted;
  let p = Store.read_page store pid in
  Alcotest.(check (option bytes)) "aborted change gone" (Some (b "base")) (Page.read p 0)

let test_store_wear_aware_allocation () =
  let _, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "w" ]) in
  (* Drive many merge cycles; wear-aware allocation must keep the spread of
     erase counts tight across the free pool. *)
  for _ = 0 to 400 do
    flush store
      [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "w"; after = b "w" } } ]
  done;
  let s = Store.stats store in
  Alcotest.(check bool) "many merges happened" true (s.Store.merges > 10)

let test_store_recover_after_clean_shutdown () =
  let chip, meta, store = mk_store () in
  let pid0 = Store.allocate_page store (page_with [ "persisted" ]) in
  let pid1 = Store.allocate_page store (page_with [ "other" ]) in
  flush store
    [ { LR.txid = 0; page = pid0; op = LR.Update_range { slot = 0; offset = 0; before = b "p"; after = b "P" } } ];
  Meta_log.force meta;
  ignore meta;
  (* Crash: rebuild everything from the chip. *)
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (data_area chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  Alcotest.(check int) "pages recovered" 2 (Store.num_pages store');
  let p = Store.read_page store' pid0 in
  Alcotest.(check (option bytes)) "log records recovered" (Some (b "Persisted")) (Page.read p 0);
  let q = Store.read_page store' pid1 in
  Alcotest.(check (option bytes)) "other page" (Some (b "other")) (Page.read q 0);
  (* Allocation continues with fresh ids. *)
  let pid2 = Store.allocate_page store' (fresh_page ()) in
  Alcotest.(check int) "next id" 2 pid2

let test_store_recover_after_merges () =
  let chip, meta, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "00" ]) in
  (* 16 log sectors fill the fresh unit; its one-page successor keeps 28 *)
  for i = 1 to 60 do
    flush store
      [
        {
          LR.txid = 0;
          page = pid;
          op =
            LR.Update_range
              {
                slot = 0;
                offset = 0;
                before = b (Printf.sprintf "%02d" (i - 1));
                after = b (Printf.sprintf "%02d" i);
              };
        };
      ]
  done;
  Meta_log.force meta;
  let merges = (Store.stats store).Store.merges in
  Alcotest.(check bool) "merged at least twice" true (merges >= 2);
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (data_area chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  let p = Store.read_page store' pid in
  Alcotest.(check (option bytes)) "content after recovery" (Some (b "60")) (Page.read p 0)

(* A crash in the middle of a merge leaves a half-written erase unit that
   no metadata references. Recovery must erase it and return it to the
   free pool before it returns — also when the live unit has log
   records ([logged]), and the page must then read its logged value. *)
let gc_unreferenced_unit ~logged () =
  let chip, meta, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "live" ]) in
  if logged then
    flush store
      [
        {
          LR.txid = 0;
          page = pid;
          op = LR.Update_range { slot = 0; offset = 0; before = b "l"; after = b "L" };
        };
      ];
  Meta_log.force meta;
  (* Fake the torn merge: scribble into a free unit behind the manager's
     back. *)
  let victim = 20 in
  Chip.write_sectors chip ~sector:(Chip.sector_of_block chip victim) (Bytes.make 512 'g');
  Alcotest.(check bool) "scribbled" true
    (Chip.free_sectors_in_block chip victim < 256);
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (data_area chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  Alcotest.(check int) "unit erased by GC" 256 (Chip.free_sectors_in_block chip victim);
  (* And it is allocatable again: fill pages until it gets used. *)
  Alcotest.(check bool) "free pool intact" true (Store.free_eus store' >= 28);
  Alcotest.(check int) "log sectors kept" (if logged then 1 else 0)
    (Store.used_log_sectors store' ~eu:(Store.eu_of_page store' pid));
  Alcotest.(check (option bytes)) "page content"
    (Some (b (if logged then "Live" else "live")))
    (Page.read (Store.read_page store' pid) 0)

let test_store_recovery_gc_unreferenced_unit = gc_unreferenced_unit ~logged:false
let test_store_recovery_gc_with_log = gc_unreferenced_unit ~logged:true

let test_store_detects_corrupt_log_sector () =
  (* Corrupt a written in-page log sector on the chip: the read path must
     refuse to replay it rather than apply garbage. *)
  let chip, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "safe" ]) in
  flush store
    [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "s"; after = b "S" } } ];
  let eu = Store.eu_of_page store pid in
  (* The unit's first log sector sits right after 15 data pages. *)
  let log_sector = Chip.sector_of_block chip eu + (15 * 16) in
  (* Flip a byte inside the sector's record payload. *)
  (match Chip.corrupt_sector ~offset:12 chip log_sector with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Chip.corrupt_error_to_string e));
  (try
     ignore (Store.read_page store pid);
     Alcotest.fail "expected Corrupt"
   with Ipl_core.Log_sector.Corrupt -> ())

let test_store_out_of_space () =
  (* Tiny store: reserve leaves very few units. *)
  let chip = Chip.create (FConfig.default ~num_blocks:5 ()) in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store =
    Store.create (data_area chip) ~first_block:2 ~num_blocks:3
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta ()
  in
  Meta_log.set_snapshot meta (fun () -> Store.snapshot store);
  (* 3 units x 15 pages: the 46th allocation must fail. *)
  for _ = 1 to 45 do
    ignore (Store.allocate_page store (fresh_page ()))
  done;
  (try
     ignore (Store.allocate_page store (fresh_page ()));
     Alcotest.fail "expected out of space"
   with Failure _ -> ());
  (* And merges now have no free unit either. *)
  try
    for _ = 0 to 16 do
      flush store
        [ { LR.txid = 0; page = 0; op = LR.Update_range { slot = 0; offset = 0; before = b "x"; after = b "x" } } ]
    done;
    Alcotest.fail "expected out of space on merge"
  with Failure _ | Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Packed page images                                                  *)

(* The sectors a page's packed image fills, with 512-byte sectors. *)
let image_sectors p = (Page.image_length p + 511) / 512

(* Record the data-slot programs and reads, as sector counts in
   operation order: those on a data block (past the two system-log
   blocks) before its log region (15 pages of 16 sectors). *)
let watch_data_slots chip =
  let spb = FConfig.sectors_per_block (Chip.config chip) in
  let programs = ref [] and reads = ref [] in
  let data_slot sector = sector >= 2 * spb && sector mod spb < 15 * 16 in
  Chip.set_fault_hook chip
    (Some
       (fun _ op ->
         (match op with
         | Chip.Op_program { sector; count } when data_slot sector -> programs := count :: !programs
         | Chip.Op_read { sector; count } when data_slot sector -> reads := count :: !reads
         | _ -> ());
         Chip.Proceed));
  let take r =
    let l = List.rev !r in
    r := [];
    l
  in
  ((fun () -> take programs), fun () -> take reads)

let sectors_read chip = (Chip.stats chip).Flash_sim.Flash_stats.sectors_read

(* An allocation and a merge program, and a read reads, exactly the
   sectors each page's image fills, one operation per page. *)
let test_packed_sector_counts () =
  let chip, _, store = mk_store () in
  let big = page_with (List.init 20 (fun i -> String.make 150 (Char.chr (65 + i)))) in
  let small = page_with [ "tiny" ] in
  let l_big = image_sectors big and l_small = image_sectors small in
  Alcotest.(check (pair int int)) "image sizes" (7, 1) (l_big, l_small);
  let programs, reads = watch_data_slots chip in
  let p0 = Store.allocate_page store big and p1 = Store.allocate_page store small in
  Alcotest.(check (list int)) "allocations program the images" [ l_big; l_small ] (programs ());
  let read_counts pid =
    let before = sectors_read chip in
    ignore (Store.read_page store pid);
    (sectors_read chip - before, reads ())
  in
  Alcotest.(check (pair int (list int))) "a read reads the image" (l_big, [ l_big ]) (read_counts p0);
  Alcotest.(check (pair int (list int))) "a small page's read" (l_small, [ l_small ])
    (read_counts p1);
  for i = 1 to 17 do
    flush store
      [
        {
          LR.txid = 0;
          page = p1;
          op =
            LR.Update_range
              { slot = 0; offset = 0; before = b (Printf.sprintf "%c" (Char.chr (96 + i)));
                after = b (Printf.sprintf "%c" (Char.chr (97 + i))) };
        };
      ]
  done;
  Alcotest.(check int) "one merge" 1 (Store.stats store).Store.merges;
  Alcotest.(check (list int)) "the merge reads each image" [ l_big; l_small ] (reads ());
  Alcotest.(check (list int)) "the merge programs each image" [ l_big; l_small ] (programs ());
  Alcotest.(check (pair int (list int))) "a read after the merge" (l_big, [ l_big ])
    (read_counts p0);
  Alcotest.(check (pair int (list int))) "the merged page's read" (l_small, [ l_small ])
    (read_counts p1);
  Chip.set_fault_hook chip None

(* A page's image length is mapping state: the system log records it,
   so after a restart the first read reads only the image. *)
let test_packed_first_read_after_restart () =
  let chip, meta, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "hello"; "world" ]) in
  Alcotest.(check int) "allocation maps the image" 1 (Store.mapped_image_sectors store ~page:pid);
  Meta_log.force meta;
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (data_area chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  Alcotest.(check int) "restart: the image" 1 (Store.mapped_image_sectors store' ~page:pid);
  let read () =
    let before = sectors_read chip in
    let p = Store.read_page store' pid in
    Alcotest.(check (option bytes)) "content" (Some (b "world")) (Page.read p 1);
    sectors_read chip - before
  in
  Alcotest.(check int) "first read: the image" 1 (read ());
  Alcotest.(check int) "second read: the image" 1 (read ())

(* One layout rule for every unit: a fresh unit keeps the classic
   layout; a merged one lays its images end to end from sector 0 and
   starts its log at the first flash page after them and a whole slot
   per free slot, at most three log regions from the block's end; a
   page allocated into its free slot lands in that reservation, and the
   layout survives a restart and a system-log compaction. *)
let test_packed_unit_layout () =
  let active = ref [ 1 ] in
  let txn_status txid = if List.mem txid !active then Trx_log.Active else Trx_log.Committed in
  let chip, meta, store = mk_store ~txn_status () in
  let spb = FConfig.sectors_per_block (Chip.config chip) in
  let most = Store.max_log_regions * 16 in
  let pids = List.init 14 (fun i -> Store.allocate_page store (page_with [ string_of_int i ])) in
  let p0 = List.hd pids in
  let eu = Store.eu_of_page store p0 in
  Alcotest.(check int) "fresh unit: the classic log base" 240 (Store.log_base store ~eu);
  let contiguous what store pids =
    ignore
      (List.fold_left
         (fun at page ->
           Alcotest.(check int) (Printf.sprintf "%s: page %d" what page) at
             (Store.mapped_image_start store ~page);
           at + Store.mapped_image_sectors store ~page)
         0 pids)
  in
  contiguous "fresh unit" store pids;
  let record ?(txid = 0) i =
    let after = b (string_of_int (i mod 10)) in
    { LR.txid; page = p0; op = LR.Update_range { slot = 0; offset = 0; before = b "0"; after } }
  in
  flush store [ record ~txid:1 0 ];
  for i = 1 to 16 do
    flush store [ record i ]
  done;
  Alcotest.(check int) "merged" 1 (Store.stats store).Store.merges;
  let eu = Store.eu_of_page store p0 in
  let base = Store.log_base store ~eu in
  (* 14 one-sector images and one free slot's 16: 30 sectors, a flash
     page boundary at 32, below the floor of three log regions. *)
  Alcotest.(check int) "merged unit: base at the floor" (spb - most) base;
  contiguous "merged unit" store pids;
  let state i = Chip.sector_state chip (Chip.sector_of_block chip eu + i) in
  Alcotest.(check int) "carried record at the base" 1 (Store.used_log_sectors store ~eu);
  flush store [ record 17 ];
  Alcotest.(check int) "flushed after it" 2 (Store.used_log_sectors store ~eu);
  Alcotest.(check (list bool)) "log sectors from the base" [ false; true; true; false ]
    (List.map (fun i -> state i <> Chip.Free) [ base - 1; base; base + 1; base + 2 ]);
  let big = page_with [ String.make 3000 'n' ] in
  let pn = Store.allocate_page store big in
  Alcotest.(check int) "into the merged unit" eu (Store.eu_of_page store pn);
  let start = Store.mapped_image_start store ~page:pn in
  let sectors = Store.mapped_image_sectors store ~page:pn in
  Alcotest.(check int) "at the frontier" 14 start;
  Alcotest.(check bool) "inside the reservation" true (start + sectors <= base);
  let layout store =
    List.map
      (fun page -> (Store.mapped_image_start store ~page, Store.mapped_image_sectors store ~page))
      (pn :: pids)
  in
  let before = layout store in
  let check_restart what =
    Meta_log.force meta;
    let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
    let store' =
      Store.recover (data_area chip) ~first_block:2 ~num_blocks:30 ~txn_status ~meta:meta'
        ~meta_events:events ()
    in
    Alcotest.(check (list (pair int int))) (what ^ ": layout") before (layout store');
    Alcotest.(check int) (what ^ ": base") base (Store.log_base store' ~eu);
    Alcotest.(check int) (what ^ ": log") 2 (Store.used_log_sectors store' ~eu);
    Alcotest.(check (option bytes)) (what ^ ": the new page") (Some (Bytes.make 3000 'n'))
      (Page.read (Store.read_page store' pn) 0);
    Alcotest.(check (option bytes)) (what ^ ": the merged page") (Some (b "7"))
      (Page.read (Store.read_page store' p0) 0)
  in
  active := [];
  check_restart "restart";
  Meta_log.compact meta;
  Alcotest.(check int) "compacted" 1 (Meta_log.compactions meta);
  check_restart "compaction";
  (* Slot 14's reservation is spent: the next page opens a fresh unit. *)
  let pf = Store.allocate_page store (fresh_page ()) in
  Alcotest.(check bool) "next page: a fresh unit" true (Store.eu_of_page store pf <> eu);
  Alcotest.(check int) "fresh unit's base" 240
    (Store.log_base store ~eu:(Store.eu_of_page store pf))

exception Injected

(* A merge that shrinks a page's image and then fails before its
   [Merge] event is durable leaves every page's mapped length at its
   stored image, so the old image still reads whole. The page is 26
   records of 300 bytes (16 sectors); the log deletes 16 of them, and
   the record the merging flush inserts needs a compaction, which
   leaves 7 sectors. The system-log force that would publish the merge
   fails. *)
let test_rolled_back_merge_keeps_hints () =
  let chip, _, store = mk_store () in
  let rows = List.init 26 (fun i -> String.make 300 (Char.chr (65 + i))) in
  let page = page_with rows in
  let pid = Store.allocate_page store page and other = Store.allocate_page store (page_with [ "x" ]) in
  Alcotest.(check int) "old image" 16 (image_sectors page);
  for slot = 0 to 15 do
    flush store
      [ { LR.txid = 0; page = pid; op = LR.Delete { slot; before = b (List.nth rows slot) } } ]
  done;
  let spb = FConfig.sectors_per_block (Chip.config chip) in
  Chip.set_fault_hook chip
    (Some
       (fun _ op ->
         match op with
         | Chip.Op_program { sector; _ } when sector < 2 * spb -> raise Injected
         | _ -> Chip.Proceed));
  let insert = { LR.txid = 0; page = pid; op = LR.Insert { slot = 0; record = Bytes.make 400 'n' } } in
  (match flush store [ insert ] with
  | () -> Alcotest.fail "expected the merge to fail"
  | exception Injected -> ());
  Chip.set_fault_hook chip None;
  Alcotest.(check int) "rolled back" 0 (Store.stats store).Store.merges;
  let mapped_is_stored what =
    List.iter
      (fun page ->
        Alcotest.(check int)
          (Printf.sprintf "%s: page %d" what page)
          (Store.stored_image_sectors store ~page)
          (Store.mapped_image_sectors store ~page))
      [ pid; other ]
  in
  mapped_is_stored "rolled back";
  Alcotest.(check int) "old image mapped" 16 (Store.mapped_image_sectors store ~page:pid);
  let p = Store.read_page store pid in
  Alcotest.(check int) "ten records left" 10 (Page.live_records p);
  (* The retried merge publishes the smaller image with the mapping. *)
  flush store [ insert ];
  Alcotest.(check int) "merged" 1 (Store.stats store).Store.merges;
  Alcotest.(check int) "new image" 7 (Store.stored_image_sectors store ~page:pid);
  mapped_is_stored "merged";
  Alcotest.(check (option bytes)) "inserted" (Some (Bytes.make 400 'n'))
    (Page.read (Store.read_page store pid) 0)

(* The merge rule counts a cached unit's records in place: a flush that
   meets a full log of a live transaction's records, which the rule
   diverts to overflow, allocates nothing in proportion to the unit's log
   on a cache hit. *)
let test_merge_rule_hit_allocates_no_log () =
  let _, _, store = mk_store ~txn_status:(fun _ -> Trx_log.Active) () in
  let pid = Store.allocate_page store (page_with [ "0" ]) in
  let record =
    { LR.txid = 1; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "0"; after = b "0" } }
  in
  (* Sixteen sectors as full as the record allows. *)
  let full_sector () =
    let s = LS.create ~capacity:512 in
    let rec fill n = match LS.add s record with `Added -> fill (n + 1) | `Full -> n in
    (s, fill 0)
  in
  let records = ref 0 in
  for _ = 1 to 16 do
    let s, n = full_sector () in
    Store.flush store [ (pid, s) ];
    records := !records + n
  done;
  let diverted () = (Store.stats store).Store.overflow_diversions in
  flush store [ record ];
  Alcotest.(check int) "diverted (a miss fills the cache)" 1 (diverted ());
  let batch = [ (pid, sector [ record ]) ] in
  let hits = (Store.stats store).Store.log_cache_hits in
  let before = Gc.minor_words () in
  Store.flush store batch;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "diverted" 2 (diverted ());
  Alcotest.(check int) "a cache hit" (hits + 1) (Store.stats store).Store.log_cache_hits;
  if words >= float_of_int !records then
    Alcotest.failf "a hit allocated %.0f words for a log of %d records" words !records

(* Property: interleaved updates to several pages, with random merge
   pressure, never lose a committed update. *)
let prop_store_durability =
  QCheck.Test.make ~name:"storage never loses applied updates" ~count:30
    QCheck.(small_list (pair (int_bound 4) (int_bound 200)))
    (fun ops ->
      let _, _, store = mk_store () in
      let n_pages = 5 in
      let pids =
        Array.init n_pages (fun i ->
            Store.allocate_page store (page_with [ Printf.sprintf "%06d" i ]))
      in
      let model = Array.init n_pages (fun i -> Printf.sprintf "%06d" i) in
      List.iter
        (fun (pi, v) ->
          let pid = pids.(pi) in
          let after = Printf.sprintf "%06d" v in
          flush store
            [
              {
                LR.txid = 0;
                page = pid;
                op =
                  LR.Update_range
                    { slot = 0; offset = 0; before = b model.(pi); after = b after };
              };
            ];
          model.(pi) <- after)
        ops;
      Array.for_all2
        (fun pid expected ->
          match Page.read (Store.read_page store pid) 0 with
          | Some got -> Bytes.to_string got = expected
          | None -> false)
        pids model)


(* The pair merge's re-split, against the list rule it replaced as the
   reference: heat by page in a table, each unit's mapped slots as
   (heat, first unit?, slot) in slot order, one stable sort of the first
   unit's then the second's by falling heat, the first unit's count of
   them hot, and the leaving and arriving slots paired in slot order. *)
let reference_trades u_pages v_pages record_pages =
  let heat = Hashtbl.create 64 in
  List.iter
    (fun pid -> Hashtbl.replace heat pid (1 + Option.value ~default:0 (Hashtbl.find_opt heat pid)))
    record_pages;
  let mapped pages ~first =
    List.filter_map
      (fun idx ->
        let pid = pages.(idx) in
        if pid < 0 then None
        else Some (Option.value ~default:0 (Hashtbl.find_opt heat pid), first, idx))
      (List.init (Array.length pages) Fun.id)
  in
  let in_u = mapped u_pages ~first:true in
  let ranked =
    List.stable_sort (fun (a, _, _) (b, _, _) -> compare b a) (in_u @ mapped v_pages ~first:false)
  in
  let n = List.length in_u in
  let slots ~hot ~first =
    List.filteri (fun i _ -> (i < n) = hot) ranked
    |> List.filter_map (fun (_, f, idx) -> if f = first then Some idx else None)
    |> List.sort compare
  in
  List.combine (slots ~hot:false ~first:true) (slots ~hot:true ~first:false)

let prop_pair_trades =
  let gen =
    QCheck.Gen.(
      int_range 1 16 >>= fun d ->
      array_repeat (2 * d) (frequency [ (1, return false); (4, return true) ]) >>= fun mapped ->
      let live = List.filter (fun k -> mapped.(k)) (List.init (2 * d) Fun.id) in
      (match live with
      | [] -> return []
      | _ -> list_size (int_bound 60) (oneofl live))
      >|= fun records -> (d, mapped, records))
  in
  let print (d, mapped, records) =
    Printf.sprintf "d=%d mapped=[%s] records=[%s]" d
      (String.concat ";" (Array.to_list (Array.map string_of_bool mapped)))
      (String.concat ";" (List.map string_of_int records))
  in
  QCheck.Test.make ~name:"pair trades = the list rule" ~count:1000 (QCheck.make ~print gen)
    (fun (d, mapped, records) ->
      (* Slot k's page is page k: the first unit's slots, then the
         second's. *)
      let pages base = Array.init d (fun i -> if mapped.(base + i) then base + i else -1) in
      let heat = Array.map (fun m -> if m then 0 else -1) mapped in
      List.iter (fun k -> heat.(k) <- heat.(k) + 1) records;
      Store.pair_trades heat = reference_trades (pages 0) (pages d) records)

(* ------------------------------------------------------------------ *)
(* Restart rebuilds the run-time mapping                               *)

(* One step of a run against the storage manager: allocate a page, flush
   a one-record sector for page [p] (taken modulo the page count) on
   behalf of transaction slot [s], end the slot's transaction (it
   commits or aborts, and the slot starts a fresh one), force the system
   log as a commit barrier does, or flush one record for each of two
   pages: for pages of two units as one write-back batch, which merges
   the units as one pair when the storage manager's rule finds both due,
   and as two flushes for pages of one unit. *)
type rop = R_alloc | R_flush of int * int | R_end of int * bool | R_force | R_pair of int * int * int

let show_rop = function
  | R_alloc -> "alloc"
  | R_flush (p, s) -> Printf.sprintf "flush(%d,%d)" p s
  | R_end (s, c) -> Printf.sprintf "end(%d,%b)" s c
  | R_force -> "force"
  | R_pair (p, q, s) -> Printf.sprintf "pair(%d,%d,%d)" p q s

let gen_rop =
  QCheck.Gen.(
    frequency
      [
        (1, return R_alloc);
        (40, map2 (fun p s -> R_flush (p, s)) nat (int_bound 3));
        (8, map2 (fun s c -> R_end (s, c)) (int_bound 3) bool);
        (1, return R_force);
        (10, map3 (fun p q s -> R_pair (p, q, s)) nat nat (int_bound 3));
      ])

(* A device to run on and recover from: a 1x1 chip or a 4x2 device of
   128 KB units (15 pages, 16 log sectors), or, for [`Compact], a 1x1
   chip of 8 KB units (2 pages of 2 KB, 8 log sectors) under a one-unit
   system-log region of 16 sectors. Every merge forces at least one
   system-log sector, so a run of more than 16 merges compacts the region
   and restart replays a snapshot. The 4x2 device stripes pages over 8
   fill units, whose logs fill 8 times slower; its lower tau lets the
   transactions still open then divert flushes to overflow. *)
type rig = { dev : Device.Flash_device.t; config : Config.t; log_blocks : int; blocks : int }

let rig = function
  | `One ->
      {
        dev = dev_of (Chip.create (FConfig.default ~num_blocks:32 ()));
        config = { Config.default with Config.selective_merge_threshold = 0.6 };
        log_blocks = 2;
        blocks = 32;
      }
  | `Four_by_two ->
      {
        dev = Device.Flash_device.create ~channels:4 ~ways:2 (FConfig.default ~num_blocks:64 ());
        config = { Config.default with Config.selective_merge_threshold = 0.3 };
        log_blocks = 2;
        blocks = 64;
      }
  | `Compact ->
      let fc = { (FConfig.default ~num_blocks:128 ()) with FConfig.block_size = 8 * 1024 } in
      {
        dev = dev_of (Chip.create fc);
        config =
          {
            Config.default with
            Config.page_size = 2048;
            log_region_bytes = 4096;
            selective_merge_threshold = 0.6;
          };
        log_blocks = 2;
        blocks = 128;
      }

let rig_area r = Resilience.Bbm.create r.dev ~spares:[] ~persist:ignore ~force:ignore ()

(* Run [ops], settle every transaction, force the metadata log and
   recover a second manager from the device; both managers must agree
   on the mapping and on every unit's log. Returns the run's stats. *)
let restart_matches r ops =
  let config = r.config in
  let statuses = Hashtbl.create 16 in
  let txn_status txid = Option.value ~default:Trx_log.Active (Hashtbl.find_opt statuses txid) in
  let meta = Meta_log.create r.dev ~first_block:0 ~num_blocks:r.log_blocks in
  let num_blocks = r.blocks - r.log_blocks in
  let store =
    Store.create ~config (rig_area r) ~first_block:r.log_blocks ~num_blocks ~txn_status ~meta ()
  in
  Meta_log.set_snapshot meta (fun () -> Store.snapshot store);
  (* Images of every length from one sector to most of the slot, so the
     mapped lengths differ from page to page and trade with the pages. *)
  let made = ref 0 in
  let blank () =
    let p = Page.create config.Config.page_size in
    incr made;
    ignore (Page.insert p (Bytes.make (1 + (!made * 701 mod (config.Config.page_size - 64))) '0'));
    p
  in
  let pages = ref [ Store.allocate_page store (blank ()) ] in
  let slots = Array.init 4 (fun i -> i + 1) and next_txid = ref 5 in
  let record p s =
    let page = List.nth !pages (p mod List.length !pages) in
    { LR.txid = slots.(s); page; op = LR.Update_range { slot = 0; offset = 0; before = b "0"; after = b "1" } }
  in
  let step = function
    | R_alloc -> pages := Store.allocate_page store (blank ()) :: !pages
    | R_flush (p, s) -> flush store [ record p s ]
    | R_pair (p, q, s) ->
        let rp = record p s and rq = record q s in
        if Store.eu_of_page store rp.LR.page <> Store.eu_of_page store rq.LR.page then
          Store.flush store [ (rp.LR.page, sector [ rp ]); (rq.LR.page, sector [ rq ]) ]
        else begin
          flush store [ rp ];
          flush store [ rq ]
        end
    | R_end (s, commit) ->
        Hashtbl.replace statuses slots.(s) (if commit then Trx_log.Committed else Trx_log.Aborted);
        slots.(s) <- !next_txid;
        incr next_txid
    | R_force -> Meta_log.force meta
  in
  List.iter step ops;
  (* Settle the open transactions: even slots commit, odd ones abort. *)
  Array.iteri
    (fun i txid ->
      Hashtbl.replace statuses txid (if i mod 2 = 0 then Trx_log.Committed else Trx_log.Aborted))
    slots;
  Meta_log.force meta;
  let meta', events = Meta_log.recover r.dev ~first_block:0 ~num_blocks:r.log_blocks in
  let store' =
    Store.recover ~config (rig_area r) ~first_block:r.log_blocks ~num_blocks ~txn_status
      ~meta:meta' ~meta_events:events ()
  in
  if (Store.stats store').Store.log_sector_reads <> 0 then
    QCheck.Test.fail_report "restart read an in-page log sector";
  let same what f =
    if f store <> f store' then QCheck.Test.fail_reportf "restart differs: %s" what
  in
  same "num_pages" Store.num_pages;
  same "free_eus" Store.free_eus;
  let fc = Device.Flash_device.config r.dev in
  let log_end = FConfig.sectors_per_block fc in
  let longest_log =
    Store.max_log_regions * Config.log_sectors_per_eu config ~sector_size:fc.FConfig.sector_size
  in
  List.iter
    (fun page ->
      same (Printf.sprintf "unit of page %d" page) (fun s -> Store.eu_of_page s page);
      same (Printf.sprintf "records of page %d" page) (fun s -> Store.live_log_records s ~page);
      same (Printf.sprintf "image of page %d" page) (fun s -> Store.mapped_image_sectors s ~page);
      same (Printf.sprintf "image start of page %d" page) (fun s ->
          Store.mapped_image_start s ~page);
      if Store.mapped_image_sectors store' ~page <> Store.stored_image_sectors store' ~page then
        QCheck.Test.fail_reportf "page %d: mapped image differs from stored" page;
      let eu = Store.eu_of_page store page in
      same (Printf.sprintf "log base of unit %d" eu) (fun s -> Store.log_base s ~eu);
      let log = log_end - Store.log_base store ~eu in
      if log > longest_log then QCheck.Test.fail_reportf "unit %d: a log of %d sectors" eu log;
      same (Printf.sprintf "log of unit %d" eu) (fun s -> Store.used_log_sectors s ~eu);
      same (Printf.sprintf "overflow of unit %d" eu) (fun s -> Store.overflow_sectors s ~eu))
    !pages;
  Store.stats store

let prop_restart_matches geometry name =
  QCheck.Test.make ~name ~count:100
    QCheck.(make ~print:(Print.list show_rop) Gen.(list_size (int_range 100 400) gen_rop))
    (fun ops ->
      ignore (restart_matches (rig geometry) ops);
      true)

(* The property's reach: one fixed run of each rig merges, diverts to
   overflow and garbage-collects overflow areas, and the compacting one
   fills its metadata region. *)
let test_restart_reach geometry () =
  let ops =
    QCheck.Gen.(generate1 ~rand:(Random.State.make [| 7 |]) (list_repeat 600 gen_rop))
  in
  let s = restart_matches (rig geometry) ops in
  Alcotest.(check bool) "merged" true (s.Store.merges > 0);
  Alcotest.(check bool) "diverted" true (s.Store.overflow_diversions > 0);
  Alcotest.(check bool) "collected overflow" true (s.Store.erase_units_reclaimed > 0);
  if geometry = `Four_by_two then
    Alcotest.(check bool) "pair merged" true (s.Store.pair_merges > 0);
  if geometry = `Compact then
    Alcotest.(check bool) "metadata region compacted" true (s.Store.merges > 16)

(* ------------------------------------------------------------------ *)
(* Packed log flushes                                                  *)

let insert_rec ?(txid = 0) page slot s = { LR.txid; page; op = LR.Insert { slot; record = b s } }

(* Records of two pages of one unit go to one sector; a record of
   another unit's page is refused before anything is written, in a
   later group of the batch too. *)
let test_flush_one_unit_per_group () =
  let _, _, store = mk_store () in
  let pids = List.init 16 (fun _ -> Store.allocate_page store (fresh_page ())) in
  let p0 = List.nth pids 0 and p1 = List.nth pids 1 and p15 = List.nth pids 15 in
  let eu = Store.eu_of_page store p0 in
  flush store [ insert_rec p0 0 "zero"; insert_rec p1 0 "one" ];
  Alcotest.(check int) "one sector for two pages" 1 (Store.used_log_sectors store ~eu);
  let refused what batch =
    match Store.flush store batch with
    | () -> Alcotest.failf "%s: a record of another unit must be refused" what
    | exception Invalid_argument _ -> ()
  in
  refused "one group" [ (p0, sector [ insert_rec p0 1 "again"; insert_rec p15 0 "elsewhere" ]) ];
  refused "second group"
    [ (p0, sector [ insert_rec p0 1 "again" ]); (p15, sector [ insert_rec p1 1 "stray" ]) ];
  Alcotest.(check int) "nothing written" 1 (Store.used_log_sectors store ~eu);
  Alcotest.(check int) "other unit untouched" 0
    (Store.used_log_sectors store ~eu:(Store.eu_of_page store p15));
  let read pid slot = Page.read (Store.read_page store pid) slot in
  Alcotest.(check (option bytes)) "page 0" (Some (b "zero")) (read p0 0);
  Alcotest.(check (option bytes)) "page 1" (Some (b "one")) (read p1 0)

(* A multi-page sector arriving at a full log region is merged with the
   unit's records when few are active, and diverted to overflow when the
   active share is above tau; either way both pages read it back. *)
let test_flush_full_region_multi_page () =
  let statuses = Hashtbl.create 4 in
  let txn_status txid = Option.value ~default:Trx_log.Committed (Hashtbl.find_opt statuses txid) in
  let config = { Config.default with Config.selective_merge_threshold = 0.5 } in
  let _, _, store = mk_store ~config ~txn_status () in
  let p0 = Store.allocate_page store (fresh_page ()) in
  let p1 = Store.allocate_page store (fresh_page ()) in
  let fill txid =
    for i = 0 to 15 do
      let page = if i mod 2 = 0 then p0 else p1 in
      flush store [ insert_rec ~txid page (i / 2) (Printf.sprintf "r%02d" i) ]
    done
  in
  let eu = Store.eu_of_page store p0 in
  Hashtbl.replace statuses 7 Trx_log.Active;
  fill 7;
  Alcotest.(check int) "region full" 16 (Store.used_log_sectors store ~eu);
  flush store [ insert_rec ~txid:7 p0 8 "a0"; insert_rec ~txid:7 p1 8 "a1" ];
  let s = Store.stats store in
  Alcotest.(check int) "diverted above tau" 1 s.Store.overflow_diversions;
  Alcotest.(check int) "no merge" 0 s.Store.merges;
  Alcotest.(check int) "overflow sector" 1 (Store.overflow_sectors store ~eu);
  Alcotest.(check int) "page 0 records" 9 (List.length (Store.live_log_records store ~page:p0));
  Alcotest.(check int) "page 1 records" 9 (List.length (Store.live_log_records store ~page:p1));
  Hashtbl.replace statuses 7 Trx_log.Committed;
  flush store [ insert_rec p0 9 "m0"; insert_rec p1 9 "m1" ];
  let s = Store.stats store in
  Alcotest.(check int) "merged below tau" 1 s.Store.merges;
  Alcotest.(check int) "pending records applied with the unit's" 20
    s.Store.records_applied_at_merge;
  List.iter
    (fun (pid, first) ->
      let p = Store.read_page store pid in
      Alcotest.(check int) "ten records" 10 (Page.live_records p);
      Alcotest.(check (option bytes)) "first" (Some (b first)) (Page.read p 0);
      Alcotest.(check (option bytes)) "diverted" (Some (b (if pid = p0 then "a0" else "a1")))
        (Page.read p 8);
      Alcotest.(check (option bytes)) "pending" (Some (b (if pid = p0 then "m0" else "m1")))
        (Page.read p 9))
    [ (p0, "r00"); (p1, "r01") ]

(* With the log-record cache off, a batch flush reads each unit's log
   once: the merge rule's read feeds the merge. Units U and V hold full
   logs; a batch with one record for a page of each merges them as one
   pair, reading the sixteen sectors of each log once. On a fresh pair,
   where V's log has a free sector, the partner search weighs V without
   reading it and U merges alone, its log read once. *)
let test_batch_reads_each_log_once () =
  let config = { Config.default with Config.log_cache_bytes = 0 } in
  let run ~v_full =
    let _, _, store = mk_store ~config () in
    let pids = List.init 16 (fun _ -> Store.allocate_page store (fresh_page ())) in
    let u = List.nth pids 0 and v = List.nth pids 15 in
    Alcotest.(check bool) "two units" true (Store.eu_of_page store u <> Store.eu_of_page store v);
    let fill page sectors =
      for i = 0 to sectors - 1 do
        flush store [ insert_rec page i (Printf.sprintf "r%02d" i) ]
      done
    in
    fill u 16;
    fill v (if v_full then 16 else 1);
    let before = Store.stats store in
    Store.flush store
      [ (u, sector [ insert_rec u 16 "last u" ]); (v, sector [ insert_rec v 16 "last v" ]) ];
    let d = Store.Stats.diff (Store.stats store) before in
    List.iter
      (fun (page, last) ->
        Alcotest.(check (option bytes)) "flushed" (Some (b last))
          (Page.read (Store.read_page store page) 16))
      [ (u, "last u"); (v, "last v") ];
    d
  in
  let d = run ~v_full:true in
  Alcotest.(check int) "pair" 1 d.Store.pair_merges;
  Alcotest.(check int) "each log read once" 32 d.Store.log_sector_reads;
  let d = run ~v_full:false in
  Alcotest.(check (pair int int)) "U alone" (1, 0) (d.Store.merges, d.Store.pair_merges);
  Alcotest.(check int) "U's log read once" 16 d.Store.log_sector_reads

let ok_e = function
  | Ok x -> x
  | Error e -> Alcotest.failf "engine error: %s" (Engine.error_to_string e)

let mk_engine ?(page_size = 8192) ?(buffer_pages = 8) () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = { Config.default with Config.page_size; buffer_pages } in
  (chip, config, Engine.create ~config chip)

let log_sector_writes e = (Engine.stats e).Engine.storage.Store.log_sector_writes
let write_backs e = (Engine.stats e).Engine.pool.Bufmgr.Buffer_pool.dirty_write_backs

(* A commit's dirty frames share their unit's log sectors: three small
   inserts on pages of one unit take one sector, and the same on pages
   of two units one sector each, the unit of the oldest-dirtied frame
   first. The pool still counts one write-back per frame. *)
let test_commit_packs_by_unit () =
  let _, _, e = mk_engine () in
  let pids = Array.init 17 (fun _ -> Engine.Unsafe.allocate_page e) in
  Engine.Unsafe.checkpoint e;
  let store = Engine.storage e in
  let commit pages =
    let tx = Engine.Unsafe.begin_txn e in
    List.iter (fun page -> ignore (ok_e (Engine.Unsafe.insert e ~tx ~page (b "small")))) pages;
    let w0 = log_sector_writes e and b0 = write_backs e in
    Engine.Unsafe.commit e tx;
    (log_sector_writes e - w0, write_backs e - b0)
  in
  Alcotest.(check (pair int int)) "one unit: one sector, three write-backs" (1, 3)
    (commit [ pids.(0); pids.(1); pids.(2) ]);
  let tracer = Obs.Tracer.create ~capacity:256 () in
  Engine.set_tracer e (Some tracer);
  Alcotest.(check (pair int int)) "two units: a sector each" (2, 4)
    (commit [ pids.(15); pids.(0); pids.(16); pids.(1) ]);
  let flushed =
    List.filter_map
      (fun (en : Obs.Tracer.entry) ->
        match en.event with Obs.Event.Log_flush { eu; records; _ } -> Some (eu, records) | _ -> None)
      (Obs.Tracer.to_list tracer)
  in
  Alcotest.(check (list (pair int int))) "oldest-dirtied unit first"
    [ (Store.eu_of_page store pids.(15), 2); (Store.eu_of_page store pids.(0), 2) ]
    flushed;
  Alcotest.(check int) "write-back events" 4 (Obs.Tracer.count_kind tracer "write_back")

(* An eviction writes back its own frame only, even when another dirty
   frame of the same unit could share the sector. *)
let test_eviction_flushes_own_frame () =
  let _, _, e = mk_engine ~buffer_pages:2 () in
  let a = Engine.Unsafe.allocate_page e in
  let bpage = Engine.Unsafe.allocate_page e in
  let c = Engine.Unsafe.allocate_page e in
  Engine.Unsafe.checkpoint e;
  ignore (ok_e (Engine.Unsafe.insert e ~tx:0 ~page:a (b "on a")));
  ignore (ok_e (Engine.Unsafe.insert e ~tx:0 ~page:bpage (b "on b")));
  let w0 = log_sector_writes e in
  ignore (Engine.Unsafe.read e ~page:c ~slot:0);
  Alcotest.(check int) "one sector" 1 (log_sector_writes e - w0);
  Alcotest.(check bool) "a evicted" true (Engine.Unsafe.buffered_log e a = None);
  Alcotest.(check int) "a's record on flash" 1
    (List.length (Store.live_log_records (Engine.storage e) ~page:a));
  Alcotest.(check int) "b's record still buffered" 1
    (List.length (Option.get (Engine.Unsafe.buffered_log e bpage)));
  Alcotest.(check int) "b's record not on flash" 0
    (List.length (Store.live_log_records (Engine.storage e) ~page:bpage))

(* Every resident page equals its stored image and flash log plus its
   in-memory log records. *)
let frames_consistent e pids =
  List.for_all
    (fun pid ->
      match Engine.Unsafe.buffered_log e pid with
      | None -> true
      | Some records ->
          let expect = Store.read_page (Engine.storage e) pid in
          List.for_all (fun r -> LR.apply expect r = Ok ()) records
          && Engine.Unsafe.with_page e pid (fun p -> Page.equal_content p expect))
    pids

let contents e page =
  Engine.Unsafe.with_page e page (fun p ->
      let acc = ref [] in
      Page.iter (fun slot data -> acc := (slot, Bytes.to_string data) :: !acc) p;
      List.sort compare !acc)

let model_contents m = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

(* A flush that fails after some of a unit's sectors are on flash empties
   the frames it wrote and leaves the frame it cut holding only the
   records still owed. Page 1's two 200-byte records straddle the
   sector boundary; the second log-region program fails with no spare
   left. *)
let test_failed_packed_flush_keeps_owed () =
  let chip, _, e = mk_engine () in
  let p0 = Engine.Unsafe.allocate_page e and p1 = Engine.Unsafe.allocate_page e in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.begin_txn e in
  let rec_of c = Bytes.make 200 c in
  ignore (ok_e (Engine.Unsafe.insert e ~tx ~page:p0 (rec_of 'a')));
  ignore (ok_e (Engine.Unsafe.insert e ~tx ~page:p1 (rec_of 'b')));
  ignore (ok_e (Engine.Unsafe.insert e ~tx ~page:p1 (rec_of 'c')));
  let data_area = 8 * Chip.sector_of_block chip 1 and programs = ref 0 in
  Chip.set_fault_hook chip
    (Some
       (fun _ -> function
         | Chip.Op_program { sector; _ } when sector >= data_area ->
             incr programs;
             if !programs = 2 then Chip.Program_fail else Chip.Proceed
         | _ -> Chip.Proceed));
  (match Engine.commit e (Engine.Unsafe.txn tx) with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "the commit must fail"
  | Error err -> Alcotest.failf "unexpected error: %s" (Engine.error_to_string err));
  Chip.set_fault_hook chip None;
  Alcotest.(check int) "one sector on flash" 1 (log_sector_writes e);
  Alcotest.(check (option int)) "page 0 emptied" (Some 0)
    (Option.map List.length (Engine.Unsafe.buffered_log e p0));
  Alcotest.(check (option int)) "page 1 owes one record" (Some 1)
    (Option.map List.length (Engine.Unsafe.buffered_log e p1));
  Alcotest.(check bool) "pages = flash + log" true (frames_consistent e [ p0; p1 ]);
  Alcotest.(check (list (pair int string))) "page 1 content"
    [ (0, String.make 200 'b'); (1, String.make 200 'c') ]
    (contents e p1);
  Alcotest.(check (result unit string)) "abort still works" (Ok ())
    (Result.map_error Engine.error_to_string (Engine.abort e (Engine.Unsafe.txn tx)));
  Alcotest.(check bool) "after abort" true (frames_consistent e [ p0; p1 ]);
  Alcotest.(check (list (pair int string))) "page 0 rolled back" [] (contents e p0);
  Alcotest.(check (list (pair int string))) "page 1 rolled back" [] (contents e p1)

(* A program failure inside a pair merge leaves both groups owed. On
   8 KB erase units (two 2 KB pages, eight log sectors), X and X' share
   unit A, Y and Y' unit B. Committed updates of X and Y fill both logs;
   the last transaction updates X and Y, so its commit's one flush batch
   merges A and B as one pair, whose first program fails with no spare
   left. The device degrades, both frames keep their records, every page
   of both units is still its flash image plus its in-memory log, and
   after a restart every page reads its last committed value. *)
let test_failed_pair_merge_keeps_owed () =
  let config = { Config.default with Config.page_size = 2048; log_region_bytes = 4096; buffer_pages = 8 } in
  let chip =
    Chip.create { (FConfig.default ~num_blocks:64 ()) with FConfig.block_size = 8 * 1024 }
  in
  let e = Engine.create ~config chip in
  let store = Engine.storage e in
  let pages = Array.init 4 (fun _ -> Engine.Unsafe.allocate_page e) in
  let slots = Array.map (fun page -> ok_e (Engine.Unsafe.insert e ~tx:0 ~page (b "v00"))) pages in
  Engine.Unsafe.checkpoint e;
  let x = pages.(0) and y = pages.(2) in
  let unit page = Store.eu_of_page store page in
  Alcotest.(check bool) "X, X' in A; Y, Y' in B" true
    (unit x = unit pages.(1) && unit y = unit pages.(3) && unit x <> unit y);
  let full page = Store.used_log_sectors store ~eu:(unit page) >= 8 in
  let value = Array.make 4 "v00" in
  let update tx i v = ok_e (Engine.Unsafe.update e ~tx ~page:pages.(i) ~slot:slots.(i) (b v)) in
  let i = ref 0 in
  while not (full x && full y) do
    incr i;
    let tx = Engine.Unsafe.begin_txn e in
    List.iter
      (fun k ->
        if not (full pages.(k)) then begin
          let v = Printf.sprintf "%c%02d" (if k = 0 then 'x' else 'y') !i in
          update tx k v;
          value.(k) <- v
        end)
      [ 0; 2 ];
    Engine.Unsafe.commit e tx
  done;
  let tx = Engine.Unsafe.begin_txn e in
  update tx 0 "x-new";
  update tx 2 "y-new";
  let data_area = 8 * Chip.sector_of_block chip 1 and in_pair = ref false in
  Chip.set_fault_hook chip
    (Some
       (fun _ -> function
         | Chip.Op_program { sector; _ } when sector >= data_area ->
             in_pair := Store.merging store = 2;
             Chip.Program_fail
         | _ -> Chip.Proceed));
  (match Engine.commit e (Engine.Unsafe.txn tx) with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "the commit must fail"
  | Error err -> Alcotest.failf "unexpected error: %s" (Engine.error_to_string err));
  Chip.set_fault_hook chip None;
  Alcotest.(check bool) "the failed program was the pair merge's" true !in_pair;
  let s = (Engine.stats e).Engine.storage in
  Alcotest.(check (pair int int)) "no merge" (0, 0) (s.Store.merges, s.Store.pair_merges);
  Alcotest.(check (pair bool bool)) "A and B still full" (true, true) (full x, full y);
  Alcotest.(check (list (option int))) "both frames keep their record"
    [ Some 1; Some 0; Some 1; Some 0 ]
    (Array.to_list (Array.map (fun p -> Option.map List.length (Engine.Unsafe.buffered_log e p)) pages));
  Alcotest.(check bool) "pages = flash + log" true (frames_consistent e (Array.to_list pages));
  let e', _ = Engine.restart ~config chip in
  Array.iteri
    (fun k page ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "page %d after restart" k)
        (Some (b value.(k)))
        (Engine.Unsafe.read e' ~page ~slot:slots.(k)))
    pages

(* Multi-page transactions over two units, with merges: every page reads
   back equal to the model, before and after a restart. *)
let test_packed_flush_model_roundtrip () =
  let chip, config, e = mk_engine ~buffer_pages:6 () in
  let n = 24 in
  let pids = Array.init n (fun _ -> Engine.Unsafe.allocate_page e) in
  let model = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun i page ->
      for slot = 0 to 3 do
        let v = Printf.sprintf "p%02d-s%d-%s" i slot (String.make 40 '.') in
        Alcotest.(check int) "slot" slot (ok_e (Engine.Unsafe.insert e ~tx:0 ~page (b v)));
        Hashtbl.replace model.(i) slot v
      done)
    pids;
  Engine.Unsafe.checkpoint e;
  let rng = Ipl_util.Rng.of_int 31 in
  for t = 1 to 300 do
    let tx = Engine.Unsafe.begin_txn e in
    let abort = Ipl_util.Rng.int rng 5 = 0 in
    let writes =
      List.init
        (1 + Ipl_util.Rng.int rng 6)
        (fun _ -> (Ipl_util.Rng.int rng n, Ipl_util.Rng.int rng 4))
    in
    let changed =
      List.map
        (fun (i, slot) ->
          let old = Hashtbl.find model.(i) slot in
          let v = Printf.sprintf "%s%05d" (String.sub old 0 (String.length old - 5)) t in
          ok_e (Engine.Unsafe.update e ~tx ~page:pids.(i) ~slot (b v));
          (i, slot, v))
        writes
    in
    if abort then Engine.Unsafe.abort e tx
    else begin
      Engine.Unsafe.commit e tx;
      List.iter (fun (i, slot, v) -> Hashtbl.replace model.(i) slot v) changed
    end
  done;
  Alcotest.(check bool) "merges ran" true ((Engine.stats e).Engine.storage.Store.merges > 0);
  let check e what =
    Array.iteri
      (fun i page ->
        Alcotest.(check (list (pair int string))) (Printf.sprintf "%s: page %d" what i)
          (model_contents model.(i)) (contents e page))
      pids
  in
  check e "live";
  let e', _ = Engine.restart ~config chip in
  check e' "restarted"

(* One transaction at a time over nearly full 1 KB pages: random inserts,
   growing and shrinking updates, deletes, and aborts. After every
   operation each buffered page equals its flash image plus its
   in-memory log records; neither abort nor restart fails, and the
   restarted engine holds exactly the committed state. *)
type op = Ins of int * int | Upd of int * int * int | Del of int * int

let show_op = function
  | Ins (p, n) -> Printf.sprintf "ins p%d %dB" p n
  | Upd (p, i, n) -> Printf.sprintf "upd p%d #%d %dB" p i n
  | Del (p, i) -> Printf.sprintf "del p%d #%d" p i

(* Inserts and updates of 8 to 260 bytes and deletes, on three pages. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun p n -> Ins (p, n)) (int_bound 2) (int_range 8 200));
        (4, map3 (fun p i n -> Upd (p, i, n)) (int_bound 2) nat (int_range 8 260));
        (1, map2 (fun p i -> Del (p, i)) (int_bound 2) nat);
      ])

(* Run [op] in transaction [tx] on page [page p], mirroring it in the
   model [work.(p)] (slot -> payload); payloads come from [data]. An
   update or delete names the [i]-th live slot, modulo their number; a
   full page leaves both unchanged. *)
let apply_op e ~tx ~page ~data work op =
  let nth_live m i =
    match List.map fst (model_contents m) with
    | [] -> None
    | slots -> Some (List.nth slots (i mod List.length slots))
  in
  match op with
  | Ins (p, n) -> (
      let d = data n in
      match Engine.Unsafe.insert e ~tx ~page:(page p) d with
      | Ok slot -> Hashtbl.replace work.(p) slot (Bytes.to_string d)
      | Error Engine.Page_full -> ()
      | Error err -> QCheck.Test.fail_reportf "insert: %s" (Engine.error_to_string err))
  | Upd (p, i, n) -> (
      match nth_live work.(p) i with
      | None -> ()
      | Some slot -> (
          let d = data n in
          match Engine.Unsafe.update e ~tx ~page:(page p) ~slot d with
          | Ok () -> Hashtbl.replace work.(p) slot (Bytes.to_string d)
          | Error Engine.Page_full -> ()
          | Error err -> QCheck.Test.fail_reportf "update: %s" (Engine.error_to_string err)))
  | Del (p, i) -> (
      match nth_live work.(p) i with
      | None -> ()
      | Some slot ->
          ok_e (Engine.Unsafe.delete e ~tx ~page:(page p) ~slot);
          Hashtbl.remove work.(p) slot)

let prop_one_txn_at_a_time =
  let open QCheck in
  let txn = Gen.(pair (frequencyl [ (3, false); (1, true) ]) (list_size (int_range 1 5) gen_op)) in
  let print =
    Print.list (fun (abort, ops) ->
        (if abort then "abort " else "commit ") ^ String.concat "; " (List.map show_op ops))
  in
  Test.make ~name:"pages = flash + log, full pages" ~count:60
    (make ~print Gen.(list_size (int_range 10 50) txn))
    (fun txns ->
      let chip, config, e = mk_engine ~page_size:1024 ~buffer_pages:2 () in
      let pids = List.init 3 (fun _ -> Engine.Unsafe.allocate_page e) in
      Engine.Unsafe.checkpoint e;
      let committed = ref (Array.init 3 (fun _ -> Hashtbl.create 8)) in
      let stamp = ref 0 in
      let data n =
        incr stamp;
        Bytes.init n (fun i -> Char.chr (65 + ((!stamp + i) mod 26)))
      in
      let same_as model e =
        List.for_all2 (fun page m -> contents e page = model_contents m) pids (Array.to_list model)
      in
      List.iter
        (fun (abort, ops) ->
          let tx = Engine.Unsafe.begin_txn e in
          let work = Array.map Hashtbl.copy !committed in
          List.iter
            (fun op ->
              apply_op e ~tx ~page:(List.nth pids) ~data work op;
              if not (frames_consistent e pids) then
                Test.fail_reportf "after %s: a buffered page differs from flash + log"
                  (show_op op);
              if not (same_as work e) then Test.fail_reportf "after %s: page differs from model" (show_op op))
            ops;
          if abort then Engine.Unsafe.abort e tx
          else begin
            Engine.Unsafe.commit e tx;
            committed := work
          end;
          if not (frames_consistent e pids && same_as !committed e) then
            Test.fail_reportf "after %s" (if abort then "abort" else "commit"))
        txns;
      let e', _ = Engine.restart ~config chip in
      same_as !committed e')

let page_reads e = (Engine.stats e).Engine.storage.Store.page_reads

(* One merge over a unit hosting four pages, one of each kind: [a]
   resident with an empty in-memory log, [bp] resident with an empty log
   but a carried record of an active transaction, [c] resident with a
   record still in memory (its flush is what fills the region), and [d]
   not resident. Only [a] is programmed from its frame: the merge reads
   three pages, and the flash contents equal those of a twin engine that
   reads and replays every page. *)
let test_merge_copies_clean_frames () =
  let run ~copy =
    let chip, _, e = mk_engine ~buffer_pages:3 () in
    let store = Engine.storage e in
    if not copy then Store.set_buffered store (fun _ -> None);
    let a, bp, c, d =
      match List.init 4 (fun _ -> Engine.Unsafe.allocate_page e) with
      | [ a; bp; c; d ] -> (a, bp, c, d)
      | _ -> assert false
    in
    Engine.Unsafe.checkpoint e;
    let sector page v =
      ignore (ok_e (Engine.Unsafe.insert e ~tx:0 ~page (b v)));
      Engine.Unsafe.checkpoint e
    in
    List.iteri (fun i page -> sector page (Printf.sprintf "fill %d" i))
      [ a; d; c; a; d; c; a; d; c; a; d; c; d ];
    List.iter (fun page -> ignore (Engine.Unsafe.read e ~page ~slot:0)) [ a; c ];
    (* [d] is now least recently used: [bp]'s fetch evicts it. *)
    let tx = Engine.Unsafe.begin_txn e in
    ignore (ok_e (Engine.Unsafe.insert e ~tx ~page:bp (b "active")));
    Engine.Unsafe.checkpoint e;
    sector a "a 15";
    sector a "a 16";
    let eu = Store.eu_of_page store a in
    Alcotest.(check int) "region full" 16 (Store.used_log_sectors store ~eu);
    Alcotest.(check (list bool)) "residency" [ true; true; true; false ]
      (List.map (fun p -> Engine.Unsafe.buffered_log e p <> None) [ a; bp; c; d ]);
    ignore (ok_e (Engine.Unsafe.insert e ~tx:0 ~page:c (b "pending")));
    let r0 = page_reads e in
    Engine.Unsafe.checkpoint e;
    let reads = page_reads e - r0 in
    let s = (Engine.stats e).Engine.storage in
    Alcotest.(check int) "merged" 1 s.Store.merges;
    Alcotest.(check int) "carried" 1 s.Store.records_carried_over;
    Engine.Unsafe.commit e tx;
    let image = Chip.read_sectors chip ~sector:0 ~count:(Chip.num_sectors chip) in
    (reads, s.Store.records_applied_at_merge, image, List.map (contents e) [ a; bp; c; d ])
  in
  let reads, applied, image, pages = run ~copy:true in
  let reads', applied', image', pages' = run ~copy:false in
  Alcotest.(check int) "merge reads three pages" 3 reads;
  Alcotest.(check int) "twin reads all four" 4 reads';
  Alcotest.(check int) "records applied" applied' applied;
  Alcotest.(check bool) "flash equals the read-and-replay twin" true (Bytes.equal image image');
  Alcotest.(check (list (list (pair int string)))) "contents" pages' pages

(* A merge applies a page's committed records before its carried ones,
   so when a committed record follows an active one on the same page the
   rebuilt image holds them in another layout than the resident frame,
   which applied them in arrival order. Once the active transaction
   commits, the next merge programs the frame's layout: the same records,
   so every read, before and after a restart, sees the same content. *)
let test_merge_copy_after_reordering_merge () =
  let chip, config, e = mk_engine ~buffer_pages:4 () in
  let p = Engine.Unsafe.allocate_page e and q = Engine.Unsafe.allocate_page e in
  Engine.Unsafe.checkpoint e;
  let t1 = Engine.Unsafe.begin_txn e in
  ignore (ok_e (Engine.Unsafe.insert e ~tx:t1 ~page:p (b "first, committed last")));
  Engine.Unsafe.checkpoint e;
  let t2 = Engine.Unsafe.begin_txn e in
  ignore (ok_e (Engine.Unsafe.insert e ~tx:t2 ~page:p (b "second, committed first")));
  Engine.Unsafe.commit e t2;
  let fill n =
    for i = 1 to n do
      ignore (ok_e (Engine.Unsafe.insert e ~tx:0 ~page:q (b (Printf.sprintf "q%d" i))));
      Engine.Unsafe.checkpoint e
    done
  in
  let merges () = (Engine.stats e).Engine.storage.Store.merges in
  let want = [ (0, "first, committed last"); (1, "second, committed first") ] in
  let on_flash () = Store.read_page (Engine.storage e) p in
  fill 15;
  Alcotest.(check int) "carrying merge" 1 (merges ());
  Alcotest.(check bool) "re-laid on flash" false
    (Engine.Unsafe.with_page e p (fun f -> Bytes.equal (Page.to_bytes f) (Page.to_bytes (on_flash ()))));
  Engine.Unsafe.commit e t1;
  (* The merged unit's log runs from its base, after the two packed
     images, to the block's end; it holds the carried record already. *)
  let store = Engine.storage e in
  let eu = Store.eu_of_page store p in
  let free =
    FConfig.sectors_per_block (Chip.config chip) - Store.log_base store ~eu
    - Store.used_log_sectors store ~eu
  in
  fill (free + 1);
  Alcotest.(check int) "copying merge" 2 (merges ());
  Alcotest.(check bool) "frame programmed" true
    (Engine.Unsafe.with_page e p (fun f -> Bytes.equal (Page.to_bytes f) (Page.to_bytes (on_flash ()))));
  Alcotest.(check (list (pair int string))) "content" want (contents e p);
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (list (pair int string))) "content after restart" want (contents e' p)

(* Every resident frame whose in-memory log is empty is byte for byte its
   stored image plus its live flash records: what a merge programs from
   it. Reading the frame makes it most recently used, as a hit does. *)
let clean_frames_exact e pids =
  List.for_all
    (fun pid ->
      match Engine.Unsafe.buffered_log e pid with
      | Some [] ->
          let flash = Page.to_bytes (Store.read_page (Engine.storage e) pid) in
          Engine.Unsafe.with_page e pid (fun p -> Bytes.equal (Page.to_bytes p) flash)
      | Some _ | None -> true)
    pids

(* Two transactions open at once, each on its own three pages of one
   unit with a two-sector log region, and a three-page pool: commits
   flush the other transaction's records, so merges carry active records
   and meet clean, dirty and evicted frames. After every operation each
   clean resident frame is exactly flash plus its live records; at the end
   every page, before and after a restart, holds the committed state. *)
type step = Op of int * op | End of int * bool

let prop_clean_frames_exact =
  let open QCheck in
  let step =
    Gen.(
      frequency
        [
          (6, map2 (fun side o -> Op (side, o)) (int_bound 1) gen_op);
          ( 1,
            map2
              (fun side abort -> End (side, abort))
              (int_bound 1)
              (frequencyl [ (3, false); (1, true) ]) );
        ])
  in
  let print =
    Print.list (function
      | Op (side, o) -> Printf.sprintf "%d: %s" side (show_op o)
      | End (side, abort) -> Printf.sprintf "%d: %s" side (if abort then "abort" else "commit"))
  in
  Test.make ~name:"clean frames = flash + live records, bytes" ~count:100
    (make ~print ~shrink:Shrink.list Gen.(list_size (int_range 40 200) step))
    (fun steps ->
      let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
      let config =
        {
          Config.default with
          Config.page_size = 1024;
          log_region_bytes = 1024;
          buffer_pages = 3;
          selective_merge_threshold = 0.9 (* merge rather than divert, mostly *);
        }
      in
      let e = Engine.create ~config chip in
      let pids = List.init 6 (fun _ -> Engine.Unsafe.allocate_page e) in
      Engine.Unsafe.checkpoint e;
      let page side p = List.nth pids ((3 * side) + p) in
      let committed = Array.init 2 (fun _ -> Array.init 3 (fun _ -> Hashtbl.create 8)) in
      let work = Array.map (Array.map Hashtbl.copy) committed in
      let txs = Array.make 2 None in
      let stamp = ref 0 in
      let data n =
        incr stamp;
        Bytes.init n (fun i -> Char.chr (65 + ((!stamp + i) mod 26)))
      in
      let tx_of side =
        match txs.(side) with
        | Some tx -> tx
        | None ->
            let tx = Engine.Unsafe.begin_txn e in
            txs.(side) <- Some tx;
            tx
      in
      let finish side abort =
        match txs.(side) with
        | None -> ()
        | Some tx ->
            txs.(side) <- None;
            if abort then begin
              Engine.Unsafe.abort e tx;
              work.(side) <- Array.map Hashtbl.copy committed.(side)
            end
            else begin
              Engine.Unsafe.commit e tx;
              committed.(side) <- Array.map Hashtbl.copy work.(side)
            end
      in
      List.iter
        (fun st ->
          (match st with
          | Op (side, o) -> apply_op e ~tx:(tx_of side) ~page:(page side) ~data work.(side) o
          | End (side, abort) -> finish side abort);
          if not (clean_frames_exact e pids) then
            Test.fail_reportf "after %s: a clean frame differs from flash + live records"
              (print [ st ]))
        steps;
      finish 0 true;
      finish 1 true;
      let same_as e =
        List.for_all
          (fun side ->
            List.for_all
              (fun p -> contents e (page side p) = model_contents committed.(side).(p))
              [ 0; 1; 2 ])
          [ 0; 1 ]
      in
      same_as e
      &&
      let e', _ = Engine.restart ~config chip in
      same_as e')

let () =
  Alcotest.run "ipl_core"
    [
      ( "log_record",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_record_roundtrips;
          Alcotest.test_case "apply" `Quick test_record_apply;
          Alcotest.test_case "replay failure" `Quick test_replay_failure;
          Alcotest.test_case "delete cycle" `Quick test_record_delete_cycle;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
        ] );
      ( "log_sector",
        [
          Alcotest.test_case "fill & serialize" `Quick test_sector_fill_and_serialize;
          Alcotest.test_case "order preserved" `Quick test_sector_order_preserved;
          Alcotest.test_case "remove txn" `Quick test_sector_remove_txn;
          Alcotest.test_case "oversized record" `Quick test_sector_oversized_record;
          Alcotest.test_case "checksum detects corruption" `Quick test_sector_checksum_detects_corruption;
          Alcotest.test_case "pack fills greedily" `Quick test_sector_pack;
        ] );
      ( "seq_log",
        [
          Alcotest.test_case "roundtrip" `Quick test_seq_log_roundtrip;
          Alcotest.test_case "recover position" `Quick test_seq_log_recover_position;
          Alcotest.test_case "fills up & reset" `Quick test_seq_log_fills_up;
        ] );
      ( "trx_log",
        [
          Alcotest.test_case "statuses" `Quick test_trx_log_statuses;
          Alcotest.test_case "recovery aborts incomplete" `Quick test_trx_log_recovery_aborts_incomplete;
          Alcotest.test_case "compaction" `Quick test_trx_log_compaction;
          Alcotest.test_case "high water survives compaction" `Quick
            test_trx_log_high_water_survives_compaction;
        ] );
      ( "meta_log",
        [
          Alcotest.test_case "roundtrip" `Quick test_meta_log_roundtrip;
          Alcotest.test_case "snapshot compaction" `Quick test_meta_log_compaction_via_snapshot;
          Alcotest.test_case "recover reads each sector once" `Quick
            test_meta_log_recover_reads_once;
        ] );
      ( "ipl_config",
        [
          Alcotest.test_case "validate rejects recovery_enabled = false" `Quick
            test_config_rejects_recovery_off;
          Alcotest.test_case "validate rejects pages over 255 sectors" `Quick
            test_config_rejects_pages_over_255_sectors;
        ] );
      ( "ipl_storage",
        [
          Alcotest.test_case "allocate & read" `Quick test_store_allocate_and_read;
          Alcotest.test_case "pages share erase units" `Quick test_store_pages_share_eu;
          Alcotest.test_case "flush & read applies" `Quick test_store_log_flush_and_read_applies;
          Alcotest.test_case "merge when log full" `Quick test_store_merge_when_log_full;
          Alcotest.test_case "merge swaps free unit" `Quick test_store_merge_reclaims_eu;
          Alcotest.test_case "aborted records skipped" `Quick test_store_aborted_records_skipped;
          Alcotest.test_case "selective merge diverts" `Quick test_store_selective_merge_diverts_to_overflow;
          Alcotest.test_case "active records carried" `Quick test_store_carry_over_active_records;
          Alcotest.test_case "wear-aware allocation" `Quick test_store_wear_aware_allocation;
          Alcotest.test_case "recovery (clean)" `Quick test_store_recover_after_clean_shutdown;
          Alcotest.test_case "recovery (after merges)" `Quick test_store_recover_after_merges;
          Alcotest.test_case "recovery GCs torn merges" `Quick test_store_recovery_gc_unreferenced_unit;
          Alcotest.test_case "recovery GCs torn merges with a unit's log" `Quick
            test_store_recovery_gc_with_log;
          Alcotest.test_case "detects corrupt log sector" `Quick test_store_detects_corrupt_log_sector;
          Alcotest.test_case "out of space" `Quick test_store_out_of_space;
          Alcotest.test_case "packed images: sectors programmed and read" `Quick
            test_packed_sector_counts;
          Alcotest.test_case "packed images: first read after restart" `Quick
            test_packed_first_read_after_restart;
          Alcotest.test_case "packed images: rolled-back merge keeps hints" `Quick
            test_rolled_back_merge_keeps_hints;
          Alcotest.test_case "packed units: layout" `Quick test_packed_unit_layout;
          Alcotest.test_case "merge rule: a cache hit allocates no log" `Quick
            test_merge_rule_hit_allocates_no_log;
          QCheck_alcotest.to_alcotest prop_store_durability;
          QCheck_alcotest.to_alcotest prop_pair_trades;
          Alcotest.test_case "flush checks each group's unit" `Quick
            test_flush_one_unit_per_group;
          Alcotest.test_case "multi-page sector on a full region" `Quick
            test_flush_full_region_multi_page;
          Alcotest.test_case "cache off: a batch reads each log once" `Quick
            test_batch_reads_each_log_once;
          Alcotest.test_case "restart reach (1x1)" `Quick (test_restart_reach `One);
          Alcotest.test_case "restart reach (4x2)" `Quick (test_restart_reach `Four_by_two);
          Alcotest.test_case "restart reach (compacting)" `Quick (test_restart_reach `Compact);
          QCheck_alcotest.to_alcotest (prop_restart_matches `One "restart = run time (1x1)");
          QCheck_alcotest.to_alcotest (prop_restart_matches `Four_by_two "restart = run time (4x2)");
          QCheck_alcotest.to_alcotest (prop_restart_matches `Compact "restart = run time (compacting)");
        ] );
      ( "ipl_engine",
        [
          Alcotest.test_case "commit packs by unit" `Quick test_commit_packs_by_unit;
          Alcotest.test_case "eviction flushes its frame" `Quick test_eviction_flushes_own_frame;
          Alcotest.test_case "failed packed flush keeps owed" `Quick
            test_failed_packed_flush_keeps_owed;
          Alcotest.test_case "failed pair merge keeps both owed" `Quick
            test_failed_pair_merge_keeps_owed;
          Alcotest.test_case "packed flush = model, restart" `Quick
            test_packed_flush_model_roundtrip;
          QCheck_alcotest.to_alcotest prop_one_txn_at_a_time;
          Alcotest.test_case "merge copies clean frames" `Quick test_merge_copies_clean_frames;
          Alcotest.test_case "copy after a reordering merge" `Quick
            test_merge_copy_after_reordering_merge;
          QCheck_alcotest.to_alcotest prop_clean_frames_exact;
        ] );
    ]

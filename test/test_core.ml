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

(* The system logs and the bad-block manager now sit on the device
   layer; a raw chip is wrapped as a single-channel device (bit-for-bit
   the old serial behaviour). *)
let dev_of = Device.Flash_device.of_chip

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

let test_record_apply_unapply () =
  let p = Page.create 512 in
  let r1 = { LR.txid = 1; page = 0; op = LR.Insert { slot = 0; record = b "hello" } } in
  Alcotest.(check (result unit string)) "apply insert" (Ok ()) (LR.apply p r1);
  Alcotest.(check (option bytes)) "inserted" (Some (b "hello")) (Page.read p 0);
  let r2 =
    { LR.txid = 1; page = 0; op = LR.Update_range { slot = 0; offset = 0; before = b "he"; after = b "HE" } }
  in
  Alcotest.(check (result unit string)) "apply update" (Ok ()) (LR.apply p r2);
  Alcotest.(check (option bytes)) "updated" (Some (b "HEllo")) (Page.read p 0);
  Alcotest.(check (result unit string)) "unapply update" (Ok ()) (LR.unapply p r2);
  Alcotest.(check (option bytes)) "reverted" (Some (b "hello")) (Page.read p 0);
  Alcotest.(check (result unit string)) "unapply insert" (Ok ()) (LR.unapply p r1);
  Alcotest.(check (option bytes)) "gone" None (Page.read p 0)

let test_record_delete_cycle () =
  let p = Page.create 512 in
  ignore (Page.insert p (b "victim"));
  let r = { LR.txid = 2; page = 0; op = LR.Delete { slot = 0; before = b "victim" } } in
  Alcotest.(check (result unit string)) "apply delete" (Ok ()) (LR.apply p r);
  Alcotest.(check (option bytes)) "deleted" None (Page.read p 0);
  Alcotest.(check (result unit string)) "unapply delete" (Ok ()) (LR.unapply p r);
  Alcotest.(check (option bytes)) "restored" (Some (b "victim")) (Page.read p 0)

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
  let txids () = List.filter (LS.has_txid ls) [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "txids" [ 1; 2; 3 ] (txids ());
  Alcotest.(check bool) "user txn" true (LS.has_user_txn ls);
  let before = Gc.minor_words () in
  let found = LS.has_txid ls 3 && LS.has_user_txn ls && not (LS.has_txid ls 4) in
  let words = Gc.minor_words () -. before in
  let empty = (let b = Gc.minor_words () in Gc.minor_words () -. b) in
  Alcotest.(check bool) "found" true found;
  Alcotest.(check (float 0.)) "predicates allocate nothing" empty words;
  let removed = LS.remove_txn ls 1 in
  Alcotest.(check int) "removed" 2 (List.length removed);
  Alcotest.(check int) "remaining" 2 (LS.count ls);
  Alcotest.(check (list int)) "txids after" [ 2; 3 ] (txids ());
  let used = LS.bytes_used ls in
  LS.clear ls;
  Alcotest.(check bool) "cleared" true (LS.is_empty ls && LS.bytes_used ls < used);
  ignore (LS.add ls (mk_update 0 0 4));
  Alcotest.(check bool) "txid 0 is no user txn" false (LS.has_user_txn ls)

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

let test_trx_log_statuses () =
  let chip = small_chip () in
  let log = Trx_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Trx_log.log_begin log 1;
  Trx_log.log_begin log 2;
  Trx_log.log_commit log 1;
  Alcotest.(check bool) "committed" true (Trx_log.status log 1 = Trx_log.Committed);
  Alcotest.(check bool) "active" true (Trx_log.status log 2 = Trx_log.Active);
  Alcotest.(check bool) "txid 0" true (Trx_log.status log 0 = Trx_log.Committed);
  Alcotest.(check bool) "unknown = committed" true (Trx_log.status log 99 = Trx_log.Committed);
  Alcotest.(check (list int)) "active list" [ 2 ] (Trx_log.active log);
  Alcotest.(check int) "max txid" 2 (Trx_log.max_txid log)

let test_trx_log_recovery_aborts_incomplete () =
  let chip = small_chip () in
  let log = Trx_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Trx_log.log_begin log 1;
  Trx_log.log_commit log 1;
  Trx_log.log_begin log 2;
  Trx_log.log_begin log 3;
  Trx_log.log_abort log 3;
  (* txid 2's begin rode along with txid 3's forced records. Crash now. *)
  let log', aborted = Trx_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  Alcotest.(check (list int)) "incomplete aborted" [ 2 ] aborted;
  Alcotest.(check bool) "1 committed" true (Trx_log.status log' 1 = Trx_log.Committed);
  Alcotest.(check bool) "2 aborted" true (Trx_log.status log' 2 = Trx_log.Aborted);
  Alcotest.(check bool) "3 aborted" true (Trx_log.status log' 3 = Trx_log.Aborted)

let test_trx_log_compaction () =
  let chip = small_chip () in
  let log = Trx_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  (* Burn through far more commit cycles than raw sectors (256): compaction
     must kick in transparently. *)
  for txid = 1 to 2000 do
    Trx_log.log_begin log txid;
    Trx_log.log_commit log txid
  done;
  Trx_log.log_begin log 2001;
  Trx_log.log_abort log 2001;
  Alcotest.(check bool) "late abort" true (Trx_log.status log 2001 = Trx_log.Aborted);
  Alcotest.(check bool) "old commit" true (Trx_log.status log 1500 = Trx_log.Committed);
  (* Aborted ids survive crash + compaction. *)
  let log', _ = Trx_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Alcotest.(check bool) "abort durable" true (Trx_log.status log' 2001 = Trx_log.Aborted)

(* ------------------------------------------------------------------ *)
(* Meta log                                                            *)

let test_meta_log_roundtrip () =
  let events =
    [
      Meta_log.Page_alloc { page = 1; eu = 2; idx = 3 };
      Meta_log.Merge { old_eu = 2; new_eu = 7 };
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

let test_meta_log_compaction_via_snapshot () =
  let chip = small_chip () in
  let log = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  Meta_log.set_snapshot log (fun () -> [ Meta_log.Page_alloc { page = 0; eu = 1; idx = 0 } ]);
  for i = 0 to 20_000 do
    Meta_log.log log (Meta_log.Merge { old_eu = i; new_eu = i + 1 })
  done;
  Meta_log.force log;
  let _, recovered = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:1 in
  (* Whatever survives must start with the snapshot. *)
  (match recovered with
  | Meta_log.Page_alloc { page = 0; eu = 1; idx = 0 } :: _ -> ()
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

(* ------------------------------------------------------------------ *)
(* Storage manager                                                     *)

(* A small chip: 128 KB erase units, 8 KB pages, 8 KB log region ->
   15 data pages and 16 log sectors per erase unit. *)
let mk_store ?(config = Config.default) ?(blocks = 32) ?(txn_status = fun _ -> Trx_log.Committed) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store =
    Store.create ~config (dev_of chip) ~first_block:2 ~num_blocks:(blocks - 2) ~txn_status ~meta ()
  in
  (chip, meta, store)

let fresh_page () = Page.create 8192

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
  Store.flush_log store ~page:pid
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
    Store.flush_log store ~page:pid
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
    Store.flush_log store ~page:pid
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
  Store.flush_log store ~page:pid
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
    Store.flush_log store ~page:pid
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
  Store.flush_log store ~page:pid
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
  Store.flush_log store ~page:pid
    [ { LR.txid = 9; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "b"; after = b "Z" } } ];
  for _ = 1 to 16 do
    Store.flush_log store ~page:pid
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
    Store.flush_log store ~page:pid
      [ { LR.txid = 0; page = pid; op = LR.Update_range { slot = 0; offset = 0; before = b "w"; after = b "w" } } ]
  done;
  let s = Store.stats store in
  Alcotest.(check bool) "many merges happened" true (s.Store.merges > 10)

let test_store_recover_after_clean_shutdown () =
  let chip, meta, store = mk_store () in
  let pid0 = Store.allocate_page store (page_with [ "persisted" ]) in
  let pid1 = Store.allocate_page store (page_with [ "other" ]) in
  Store.flush_log store ~page:pid0
    [ { LR.txid = 0; page = pid0; op = LR.Update_range { slot = 0; offset = 0; before = b "p"; after = b "P" } } ];
  Store.force_meta store;
  ignore meta;
  (* Crash: rebuild everything from the chip. *)
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (dev_of chip) ~first_block:2 ~num_blocks:30
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
  let chip, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "00" ]) in
  for i = 1 to 40 do
    Store.flush_log store ~page:pid
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
  Store.force_meta store;
  let merges = (Store.stats store).Store.merges in
  Alcotest.(check bool) "merged at least twice" true (merges >= 2);
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  let store' =
    Store.recover (dev_of chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  let p = Store.read_page store' pid in
  Alcotest.(check (option bytes)) "content after recovery" (Some (b "40")) (Page.read p 0)

(* A crash in the middle of a merge leaves a half-written erase unit that
   no metadata references. Recovery must erase it and return it to the
   free pool before it returns — also when a fuzzy checkpoint footer on
   the metadata log lets the restart lean on checkpoint coverage
   ([ckpt]). *)
let gc_unreferenced_unit ~ckpt () =
  let config = if ckpt then { Config.default with Config.checkpoint_every = 1 } else Config.default in
  let chip, _, store = mk_store ~config () in
  ignore (Store.allocate_page store (page_with [ "live" ]));
  if ckpt then Store.emit_checkpoint store ~active:[] ~trx_watermark:0;
  Store.force_meta store;
  (* Fake the torn merge: scribble into a free unit behind the manager's
     back. *)
  let victim = 20 in
  Chip.write_sectors chip ~sector:(Chip.sector_of_block chip victim) (Bytes.make 512 'g');
  Alcotest.(check bool) "scribbled" true
    (Chip.free_sectors_in_block chip victim < 256);
  let meta', events = Meta_log.recover (dev_of chip) ~first_block:0 ~num_blocks:2 in
  if ckpt then
    Alcotest.(check bool) "checkpoint footer on the meta log" true
      (List.exists (function Meta_log.Ckpt _ -> true | _ -> false) events);
  let store' =
    Store.recover ~config (dev_of chip) ~first_block:2 ~num_blocks:30
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta:meta' ~meta_events:events ()
  in
  Alcotest.(check int) "unit erased by GC" 256 (Chip.free_sectors_in_block chip victim);
  (* And it is allocatable again: fill pages until it gets used. *)
  Alcotest.(check bool) "free pool intact" true (Store.free_eus store' >= 28)

let test_store_recovery_gc_unreferenced_unit = gc_unreferenced_unit ~ckpt:false
let test_store_recovery_gc_under_checkpoint = gc_unreferenced_unit ~ckpt:true

let test_store_detects_corrupt_log_sector () =
  (* Corrupt a written in-page log sector on the chip: the read path must
     refuse to replay it rather than apply garbage. *)
  let chip, _, store = mk_store () in
  let pid = Store.allocate_page store (page_with [ "safe" ]) in
  Store.flush_log store ~page:pid
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
  let chip = Chip.create (FConfig.default ~num_blocks:4 ()) in
  let meta = Meta_log.create (dev_of chip) ~first_block:0 ~num_blocks:1 in
  let store =
    Store.create (dev_of chip) ~first_block:1 ~num_blocks:3
      ~txn_status:(fun _ -> Trx_log.Committed)
      ~meta ()
  in
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
      Store.flush_log store ~page:0
        [ { LR.txid = 0; page = 0; op = LR.Update_range { slot = 0; offset = 0; before = b "x"; after = b "x" } } ]
    done;
    Alcotest.fail "expected out of space on merge"
  with Failure _ | Invalid_argument _ -> ()

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
          Store.flush_log store ~page:pid
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

let () =
  Alcotest.run "ipl_core"
    [
      ( "log_record",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_record_roundtrips;
          Alcotest.test_case "apply/unapply" `Quick test_record_apply_unapply;
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
        ] );
      ( "meta_log",
        [
          Alcotest.test_case "roundtrip" `Quick test_meta_log_roundtrip;
          Alcotest.test_case "snapshot compaction" `Quick test_meta_log_compaction_via_snapshot;
        ] );
      ( "ipl_config",
        [ Alcotest.test_case "validate rejects recovery_enabled = false" `Quick
            test_config_rejects_recovery_off ] );
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
          Alcotest.test_case "recovery GCs torn merges under a checkpoint" `Quick
            test_store_recovery_gc_under_checkpoint;
          Alcotest.test_case "detects corrupt log sector" `Quick test_store_detects_corrupt_log_sector;
          Alcotest.test_case "out of space" `Quick test_store_out_of_space;
          QCheck_alcotest.to_alcotest prop_store_durability;
        ] );
    ]

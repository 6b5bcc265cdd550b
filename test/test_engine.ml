(* End-to-end tests of the IPL engine: buffered reads and updates,
   transactional commit/abort, and crash recovery (Section 5). *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Page = Storage.Page
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Store = Ipl_core.Ipl_storage
module Trx_log = Ipl_core.Trx_log

let b = Bytes.of_string

let base_config ?(buffer_pages = 8) () = { Config.default with Config.buffer_pages }

let mk ?buffer_pages ?(blocks = 64) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config = base_config ?buffer_pages () in
  (chip, config, Engine.create ~config chip)

let ok = function Ok x -> x | Error e -> Alcotest.failf "unexpected error: %s" (Engine.error_to_string e)

let test_insert_read () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let s0 = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "alpha")) in
  let s1 = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "beta")) in
  Alcotest.(check int) "slot 0" 0 s0;
  Alcotest.(check int) "slot 1" 1 s1;
  Alcotest.(check (option bytes)) "read 0" (Some (b "alpha")) (Engine.Unsafe.read e ~page ~slot:0);
  Alcotest.(check (option bytes)) "read 1" (Some (b "beta")) (Engine.Unsafe.read e ~page ~slot:1)

let test_update_delete () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "original")) in
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b "Original"));
  Alcotest.(check (option bytes)) "updated" (Some (b "Original")) (Engine.Unsafe.read e ~page ~slot);
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b "longer than before"));
  Alcotest.(check (option bytes)) "resized" (Some (b "longer than before"))
    (Engine.Unsafe.read e ~page ~slot);
  ok (Engine.Unsafe.delete e ~tx:0 ~page ~slot);
  Alcotest.(check (option bytes)) "deleted" None (Engine.Unsafe.read e ~page ~slot);
  (match Engine.Unsafe.delete e ~tx:0 ~page ~slot with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double delete must fail")

let test_update_range () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "0123456789")) in
  ok (Engine.Unsafe.update_range e ~tx:0 ~page ~slot ~offset:3 (b "XYZ"));
  Alcotest.(check (option bytes)) "patched" (Some (b "012XYZ6789")) (Engine.Unsafe.read e ~page ~slot);
  match Engine.Unsafe.update_range e ~tx:0 ~page ~slot ~offset:9 (b "AB") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range patch must fail"

let test_survives_eviction () =
  (* A tiny pool forces constant eviction; updates must persist through the
     in-page logs without any page write-back. *)
  let _, _, e = mk ~buffer_pages:2 () in
  let pages = List.init 10 (fun _ -> Engine.Unsafe.allocate_page e) in
  List.iteri (fun i page -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b (string_of_int i))))) pages;
  List.iteri
    (fun i page ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "page %d" i)
        (Some (b (string_of_int i)))
        (Engine.Unsafe.read e ~page ~slot:0))
    pages

let test_dirty_page_never_written_back () =
  (* Core IPL claim: evicting a dirty page writes its log sector, never the
     8 KB page image. We verify no data-page sectors are written after
     allocation. *)
  let chip, _, e = mk ~buffer_pages:2 () in
  let pages = List.init 6 (fun _ -> Engine.Unsafe.allocate_page e) in
  let written_before = (Chip.stats chip).Flash_sim.Flash_stats.sectors_written in
  List.iter (fun page -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b "payload")))) pages;
  List.iter (fun page -> ignore (Engine.Unsafe.read e ~page ~slot:0)) pages;
  let written = (Chip.stats chip).Flash_sim.Flash_stats.sectors_written - written_before in
  (* 6 log-sector flushes = 6 sectors; a page write-back would be 16. *)
  Alcotest.(check bool)
    (Printf.sprintf "only log sectors written (%d)" written)
    true (written <= 6)

let test_many_updates_trigger_merges () =
  let _, _, e = mk ~buffer_pages:2 () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "counter=000000")) in
  for i = 1 to 2000 do
    ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b (Printf.sprintf "counter=%06d" i)))
  done;
  Engine.Unsafe.checkpoint e;
  Alcotest.(check (option bytes)) "final value" (Some (b "counter=002000"))
    (Engine.Unsafe.read e ~page ~slot);
  let s = Engine.stats e in
  Alcotest.(check bool) "merges happened" true (s.Engine.storage.Store.merges > 0)

let test_checkpoint_then_restart () =
  let chip, config, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "durable")) in
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b "DURABLE"));
  Engine.Unsafe.checkpoint e;
  (* Crash: throw the engine away, restart from the chip. *)
  let e', aborted = Engine.restart ~config chip in
  Alcotest.(check (list int)) "no transactions aborted" [] aborted;
  Alcotest.(check (option bytes)) "survives restart" (Some (b "DURABLE"))
    (Engine.Unsafe.read e' ~page ~slot)

(* A stored image whose header sizes it otherwise than the mapping
   does, or is no page's header, is a corrupt page: its read is a typed
   error, not an escape. The flipped bytes are the high byte of the
   header's [free_start] (offset 3) and of its magic (offset 7), in the
   first sector of each of the two pages' images. *)
let test_corrupt_image_header_is_read_failed () =
  let chip, config, e = mk () in
  let pages = List.init 2 (fun _ -> Engine.Unsafe.allocate_page e) in
  List.iter (fun page -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b "payload")))) pages;
  Engine.Unsafe.checkpoint e;
  let e', _ = Engine.restart ~config chip in
  List.iter
    (fun (page, offset) ->
      let store = Engine.storage e' in
      let eu = Store.eu_of_page store page in
      let sector = Chip.sector_of_block chip eu + Store.mapped_image_start store ~page in
      (match Chip.corrupt_sector ~offset chip sector with
      | Ok () -> ()
      | Error err -> Alcotest.fail (Chip.corrupt_error_to_string err));
      match Engine.read e' ~page ~slot:0 with
      | Error Engine.Read_failed -> ()
      | Error err -> Alcotest.failf "offset %d: wrong error: %s" offset (Engine.error_to_string err)
      | Ok _ -> Alcotest.failf "offset %d: a corrupt image read back" offset)
    (List.combine pages [ 3; 7 ])

let test_unflushed_work_lost_without_checkpoint () =
  let chip, config, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b "volatile")));
  Engine.Unsafe.checkpoint e;
  ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b "after-checkpoint")));
  (* No checkpoint for the second insert: it lives only in the in-memory
     log sector, so a crash loses it. *)
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "first survives" (Some (b "volatile"))
    (Engine.Unsafe.read e' ~page ~slot:0);
  Alcotest.(check (option bytes)) "second lost" None (Engine.Unsafe.read e' ~page ~slot:1)

(* Restart reads the system log and no in-page log sector. The merge
   rule then weighs B, whose log is full and which nothing has touched
   yet, for a record of a live transaction: it reads B's records, so
   B's active fraction is that one record's share and B is due. The
   first commit after the restart updates X and Y, whose units A and B
   have full logs, so its one flush batch brings both due: they merge as
   one pair. *)
let test_restart_reads_only_system_log () =
  let config = { (base_config ()) with Config.page_size = 2048; log_region_bytes = 4096 } in
  let chip =
    Chip.create { (FConfig.default ~num_blocks:64 ()) with FConfig.block_size = 8 * 1024 }
  in
  let e = Engine.create ~config chip in
  let pages = Array.init 6 (fun _ -> Engine.Unsafe.allocate_page e) in
  let slots = Array.map (fun page -> ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00"))) pages in
  Engine.Unsafe.checkpoint e;
  let store = Engine.storage e in
  let unit page = Store.eu_of_page store page in
  let x = pages.(0) and y = pages.(2) in
  Alcotest.(check bool) "X and Y in two units" true (unit x <> unit y);
  let full page = Store.used_log_sectors store ~eu:(unit page) >= 8 in
  let i = ref 0 in
  while not (full x && full y) do
    incr i;
    let tx = Engine.Unsafe.begin_txn e in
    if not (full x) then ok (Engine.Unsafe.update e ~tx ~page:x ~slot:slots.(0) (b (Printf.sprintf "x%02d" !i)));
    if not (full y) then ok (Engine.Unsafe.update e ~tx ~page:y ~slot:slots.(2) (b (Printf.sprintf "y%02d" !i)));
    Engine.Unsafe.commit e tx
  done;
  let logged =
    List.sort_uniq compare (Array.to_list (Array.map unit pages))
    |> List.filter (fun eu -> Store.used_log_sectors store ~eu + Store.overflow_sectors store ~eu > 0)
  in
  Alcotest.(check bool) "records in several units" true (List.length logged >= 3);
  let e', _ = Engine.restart ~config chip in
  let store' = Engine.storage e' in
  let stats () = Store.stats store' in
  Alcotest.(check int) "restart reads no in-page log sector" 0 (stats ()).Store.log_sector_reads;
  let tx = Engine.Unsafe.begin_txn e' in
  let record =
    {
      Ipl_core.Log_record.txid = tx;
      page = y;
      op = Update_range { slot = slots.(2); offset = 0; before = b "y"; after = b "Y" };
    }
  in
  Alcotest.(check bool) "B is due for a live record" true (Store.merge_due store' [ record ]);
  ok (Engine.Unsafe.update e' ~tx ~page:x ~slot:slots.(0) (b "x-new"));
  ok (Engine.Unsafe.update e' ~tx ~page:y ~slot:slots.(2) (b "y-new"));
  Engine.Unsafe.commit e' tx;
  Alcotest.(check int) "the first commit merges A and B as one pair" 1 (stats ()).Store.pair_merges;
  Alcotest.(check (option bytes)) "X" (Some (b "x-new")) (Engine.Unsafe.read e' ~page:x ~slot:slots.(0));
  Alcotest.(check (option bytes)) "Y" (Some (b "y-new")) (Engine.Unsafe.read e' ~page:y ~slot:slots.(2))

let test_noop_update_logs_nothing () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "same value")) in
  Engine.Unsafe.checkpoint e;
  let writes_before =
    (Engine.stats e).Engine.storage.Store.log_sector_writes
  in
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b "same value"));
  Engine.Unsafe.checkpoint e;
  Alcotest.(check int) "no log sector written" writes_before
    (Engine.stats e).Engine.storage.Store.log_sector_writes;
  Alcotest.(check (option bytes)) "value unchanged" (Some (b "same value"))
    (Engine.Unsafe.read e ~page ~slot)

let test_multi_range_update () =
  (* Two far-apart changes in one record become two small delta records,
     both replayed correctly from flash. *)
  let chip, config, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let payload = Bytes.make 400 'a' in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page payload) in
  let changed = Bytes.copy payload in
  Bytes.set changed 3 'X';
  Bytes.set changed 390 'Y';
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot changed);
  Engine.Unsafe.checkpoint e;
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "both deltas replayed" (Some changed)
    (Engine.Unsafe.read e' ~page ~slot)

let test_large_equal_length_update_chunks () =
  (* A record whose entire 450-byte payload changes: the delta no longer
     fits one log sector and must be chunked into several records. *)
  let chip, config, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let before = Bytes.make 450 'o' in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page before) in
  let after = Bytes.make 450 'n' in
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot after);
  Engine.Unsafe.checkpoint e;
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "chunked update replayed" (Some after)
    (Engine.Unsafe.read e' ~page ~slot)

let test_large_resize_update_as_delete_insert () =
  (* Growing a 300-byte record to 400 bytes: before+after exceeds a log
     sector, so the engine logs delete + insert instead. *)
  let chip, config, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (Bytes.make 300 'b')) in
  let after = Bytes.make 400 'A' in
  ok (Engine.Unsafe.update e ~tx:0 ~page ~slot after);
  Alcotest.(check (option bytes)) "in memory" (Some after) (Engine.Unsafe.read e ~page ~slot);
  Engine.Unsafe.checkpoint e;
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "replayed" (Some after) (Engine.Unsafe.read e' ~page ~slot)

let test_oversized_records_rejected_cleanly () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let max = Engine.max_record_payload e in
  (match Engine.Unsafe.insert e ~tx:0 ~page (Bytes.make (max + 1) 'x') with
  | Error Engine.Record_too_large -> ()
  | _ -> Alcotest.fail "oversized insert must be rejected");
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (Bytes.make 10 'x')) in
  (match Engine.Unsafe.update e ~tx:0 ~page ~slot (Bytes.make (max + 1) 'y') with
  | Error Engine.Record_too_large -> ()
  | _ -> Alcotest.fail "oversized update must be rejected");
  (* A maximal-size record still works end to end. *)
  let slot2 = ok (Engine.Unsafe.insert e ~tx:0 ~page (Bytes.make max 'm')) in
  Engine.Unsafe.checkpoint e;
  Alcotest.(check (option bytes)) "max record" (Some (Bytes.make max 'm'))
    (Engine.Unsafe.read e ~page ~slot:slot2)

(* Emptying a record is refused before the page is touched, also when
   the record is long enough that a shrink is logged as delete + insert. *)
let test_empty_update_rejected () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let long = Bytes.make (Engine.max_record_payload e) 'b' in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page long) in
  (match Engine.Unsafe.update e ~tx:0 ~page ~slot Bytes.empty with
  | Error Engine.Bad_record_length -> ()
  | _ -> Alcotest.fail "empty update must be rejected");
  Alcotest.(check (option bytes)) "record kept" (Some long) (Engine.Unsafe.read e ~page ~slot)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let test_commit_durable_without_checkpoint () =
  let chip, _, e = mk () in
  let config = base_config () in
  let page = Engine.Unsafe.allocate_page e in
  let tx = Engine.Unsafe.begin_txn e in
  let slot = ok (Engine.Unsafe.insert e ~tx ~page (b "committed-data")) in
  Engine.Unsafe.commit e tx;
  (* Crash immediately after commit: the forced log sectors + commit record
     must be enough (no-force of data pages, Section 5.2). *)
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "committed data survives" (Some (b "committed-data"))
    (Engine.Unsafe.read e' ~page ~slot)

let test_abort_rolls_back_in_memory () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "stable")) in
  Engine.Unsafe.commit e (let tx = Engine.Unsafe.begin_txn e in ignore tx; tx);
  let tx = Engine.Unsafe.begin_txn e in
  ok (Engine.Unsafe.update e ~tx ~page ~slot (b "doomed"));
  let s2 = ok (Engine.Unsafe.insert e ~tx ~page (b "also doomed")) in
  Alcotest.(check (option bytes)) "visible before abort" (Some (b "doomed"))
    (Engine.Unsafe.read e ~page ~slot);
  Engine.Unsafe.abort e tx;
  Alcotest.(check (option bytes)) "update rolled back" (Some (b "stable"))
    (Engine.Unsafe.read e ~page ~slot);
  Alcotest.(check (option bytes)) "insert rolled back" None (Engine.Unsafe.read e ~page ~slot:s2)

let test_abort_after_flush_filtered_by_status () =
  (* Force the aborting transaction's records all the way to flash (tiny
     buffer pool -> eviction flushes), then abort: the read path must
     filter them out. *)
  let _, _, e = mk ~buffer_pages:2 () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "stable")) in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.begin_txn e in
  ok (Engine.Unsafe.update e ~tx ~page ~slot (b "doomed"));
  (* Evict the page by touching others. *)
  let others = List.init 4 (fun _ -> Engine.Unsafe.allocate_page e) in
  List.iter (fun p -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page:p (b "filler")))) others;
  Engine.Unsafe.abort e tx;
  Alcotest.(check (option bytes)) "flashed records filtered" (Some (b "stable"))
    (Engine.Unsafe.read e ~page ~slot)

let test_active_txn_aborted_on_restart () =
  let chip, _, e = mk ~buffer_pages:2 () in
  let config = base_config () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "stable")) in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.begin_txn e in
  ok (Engine.Unsafe.update e ~tx ~page ~slot (b "zombie"));
  (* Push the records to flash via eviction, then crash without outcome. *)
  let others = List.init 4 (fun _ -> Engine.Unsafe.allocate_page e) in
  List.iter (fun p -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page:p (b "filler")))) others;
  Ipl_core.Meta_log.force (Engine.system_log e);
  let e', aborted = Engine.restart ~config chip in
  Alcotest.(check (list int)) "incomplete tx aborted" [ tx ] aborted;
  Alcotest.(check bool) "status aborted" true (Engine.txn_status e' tx = Trx_log.Aborted);
  Alcotest.(check (option bytes)) "zombie change invisible" (Some (b "stable"))
    (Engine.Unsafe.read e' ~page ~slot)

let test_committed_and_aborted_interleaved () =
  let _, _, e = mk () in
  let page = Engine.Unsafe.allocate_page e in
  let keep = Engine.Unsafe.begin_txn e in
  let drop = Engine.Unsafe.begin_txn e in
  let s_keep = ok (Engine.Unsafe.insert e ~tx:keep ~page (b "keep")) in
  let s_drop = ok (Engine.Unsafe.insert e ~tx:drop ~page (b "drop")) in
  Engine.Unsafe.commit e keep;
  Engine.Unsafe.abort e drop;
  Alcotest.(check (option bytes)) "kept" (Some (b "keep")) (Engine.Unsafe.read e ~page ~slot:s_keep);
  Alcotest.(check (option bytes)) "dropped" None (Engine.Unsafe.read e ~page ~slot:s_drop)

(* Every engine keeps a transaction log, the default configuration
   included: records of a transaction with no outcome record must not
   survive a crash even after a checkpoint has stolen them to flash. *)
let test_default_config_restart_aborts_uncommitted () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let e = Engine.create chip in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "stable")) in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.begin_txn e in
  ok (Engine.Unsafe.update e ~tx ~page ~slot (b "zombie"));
  Engine.Unsafe.checkpoint e;
  let e', aborted = Engine.restart chip in
  Alcotest.(check (list int)) "uncommitted tx aborted" [ tx ] aborted;
  Alcotest.(check bool) "status aborted" true (Engine.txn_status e' tx = Trx_log.Aborted);
  Alcotest.(check (option bytes)) "old value reads back" (Some (b "stable"))
    (Engine.Unsafe.read e' ~page ~slot)

let test_txn_ids_resume_after_restart () =
  let chip, _, e = mk () in
  let config = base_config () in
  let tx1 = Engine.Unsafe.begin_txn e in
  Engine.Unsafe.commit e tx1;
  let tx2 = Engine.Unsafe.begin_txn e in
  Engine.Unsafe.commit e tx2;
  let e', _ = Engine.restart ~config chip in
  let tx3 = Engine.Unsafe.begin_txn e' in
  Alcotest.(check bool) (Printf.sprintf "fresh id %d > %d" tx3 tx2) true (tx3 > tx2)

(* A system-log compaction fired by a mapping event while every status
   is committed must keep the transaction-id high-water mark. On 8 KB
   erase units each 4-block half of the system log holds 64 sectors,
   and every merge forces one. Page X's unit is never merged, so the records of
   transaction 1 stay in its in-page log; were id 1 reissued after the
   restart and aborted, they would be hidden. *)
let test_txn_ids_survive_log_compaction () =
  let chip =
    Chip.create { (FConfig.default ~num_blocks:64 ()) with FConfig.block_size = 8 * 1024 }
  in
  let config =
    { (base_config ()) with Config.page_size = 2048; log_region_bytes = 4096 }
  in
  let e = Engine.create ~config chip in
  let x = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page:x (b "old")) in
  ignore (Engine.Unsafe.allocate_page e);
  let y = Engine.Unsafe.allocate_page e in
  Alcotest.(check bool) "X and Y in different units" true
    (Store.eu_of_page (Engine.storage e) x <> Store.eu_of_page (Engine.storage e) y);
  let y_slot = ok (Engine.Unsafe.insert e ~tx:0 ~page:y (b "0")) in
  let tx1 = Engine.Unsafe.begin_txn e in
  ok (Engine.Unsafe.update e ~tx:tx1 ~page:x ~slot (b "new"));
  Engine.Unsafe.commit e tx1;
  let compactions () = Ipl_core.Meta_log.compactions (Engine.system_log e) in
  let i = ref 0 in
  while compactions () = 0 do
    incr i;
    ok (Engine.Unsafe.update e ~tx:0 ~page:y ~slot:y_slot (b (string_of_int (!i mod 10))));
    ignore (Engine.Unsafe.compact e ~max_merges:1 : int)
  done;
  let e', aborted = Engine.restart ~config chip in
  Alcotest.(check (list int)) "nothing to abort" [] aborted;
  let tx = Engine.Unsafe.begin_txn e' in
  Alcotest.(check bool) (Printf.sprintf "fresh id %d > %d" tx tx1) true (tx > tx1);
  ok (Engine.Unsafe.update e' ~tx ~page:x ~slot (b "bad"));
  Engine.Unsafe.abort e' tx;
  Alcotest.(check (option bytes)) "X keeps its committed value" (Some (b "new"))
    (Engine.Unsafe.read e' ~page:x ~slot)

(* A crash at any flash operation of a system-log compaction. On the
   8 KB erase units above, transaction A's update of page X reaches X's
   in-page log with B's commit, then A aborts; merges of Y's unit fill
   the system log until it compacts. After the crash, restart must know
   both pages, and X must read its committed value: a lost abort record
   would revive A's. *)
let test_compaction_crash_keeps_system_log () =
  let config = { (base_config ()) with Config.page_size = 2048; log_region_bytes = 4096 } in
  let run crash =
    let chip =
      Chip.create { (FConfig.default ~num_blocks:64 ()) with FConfig.block_size = 8 * 1024 }
    in
    let e = Engine.create ~config chip in
    let x = Engine.Unsafe.allocate_page e in
    let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page:x (b "good")) in
    ignore (Engine.Unsafe.allocate_page e);
    let y = Engine.Unsafe.allocate_page e in
    let y_slot = ok (Engine.Unsafe.insert e ~tx:0 ~page:y (b "0")) in
    let a = Engine.Unsafe.begin_txn e in
    ok (Engine.Unsafe.update e ~tx:a ~page:x ~slot (b "BAD!"));
    let tx = Engine.Unsafe.begin_txn e in
    ok (Engine.Unsafe.update e ~tx ~page:y ~slot:y_slot (b "1"));
    Engine.Unsafe.commit e tx;
    Engine.Unsafe.abort e a;
    Chip.set_fault_hook chip
      (Some
         (fun idx _ ->
           match crash with Some n when idx >= n -> Chip.Fail_stop | _ -> Chip.Proceed));
    (* The last round of the loop holds the compaction. *)
    let round = ref 0 and i = ref 0 in
    (try
       while Ipl_core.Meta_log.compactions (Engine.system_log e) = 0 do
         round := Chip.op_count chip;
         incr i;
         ok (Engine.Unsafe.update e ~tx:0 ~page:y ~slot:y_slot (b (string_of_int (!i mod 10))));
         ignore (Engine.Unsafe.compact e ~max_merges:1 : int)
       done
     with Chip.Power_loss _ -> ());
    let ops = Chip.op_count chip in
    Chip.set_fault_hook chip None;
    let e', _ = Engine.restart ~config chip in
    let x_value = Engine.Unsafe.read e' ~page:x ~slot in
    let y_known = Engine.Unsafe.read e' ~page:y ~slot:y_slot <> None in
    (!round, ops, x_value, y_known)
  in
  let first, last, _, _ = run None in
  for n = first to last - 1 do
    let _, _, x_value, y_known = run (Some n) in
    let at = Printf.sprintf "crash at op %d (round %d-%d)" n first last in
    Alcotest.(check (option bytes)) (at ^ ": X committed") (Some (b "good")) x_value;
    Alcotest.(check bool) (at ^ ": Y known") true y_known
  done

(* A crash at any flash operation of a pair merge. On the 8 KB erase
   units above, pages X and X' share unit A, Y and Y' unit B. Committed
   updates of X and Y fill both units' logs; transaction Z's update of
   X' reaches A's log with one of those commits, then Z aborts. The
   last commit updates X and Y: its one flush batch brings A and B due
   together, so they merge as one pair before its commit record is
   written. After a crash at any operation of that commit, restart must
   map all four pages, X and Y must read their last committed values,
   and X' must not read Z's. *)
let test_pair_merge_crash () =
  let config = { (base_config ()) with Config.page_size = 2048; log_region_bytes = 4096 } in
  let run crash =
    let chip =
      Chip.create { (FConfig.default ~num_blocks:64 ()) with FConfig.block_size = 8 * 1024 }
    in
    let e = Engine.create ~config chip in
    let store = Engine.storage e in
    let pages = Array.init 4 (fun _ -> Engine.Unsafe.allocate_page e) in
    let slots = Array.map (fun page -> ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00"))) pages in
    Engine.Unsafe.checkpoint e;
    let x = pages.(0) and x' = pages.(1) and y = pages.(2) in
    let unit page = Store.eu_of_page store page in
    Alcotest.(check bool) "X, X' in A; Y, Y' in B" true
      (unit x = unit x' && unit y = unit pages.(3) && unit x <> unit y);
    let full page = Store.used_log_sectors store ~eu:(unit page) >= 8 in
    let value = Array.make 4 "v00" in
    let update tx i v =
      ok (Engine.Unsafe.update e ~tx ~page:pages.(i) ~slot:slots.(i) (b v));
      value.(i) <- v
    in
    let z = Engine.Unsafe.begin_txn e in
    ok (Engine.Unsafe.update e ~tx:z ~page:x' ~slot:slots.(1) (b "BAD"));
    let i = ref 0 in
    while not (full x && full y) do
      incr i;
      let tx = Engine.Unsafe.begin_txn e in
      if not (full x) then update tx 0 (Printf.sprintf "x%02d" !i);
      if not (full y) then update tx 2 (Printf.sprintf "y%02d" !i);
      Engine.Unsafe.commit e tx;
      if !i = 1 then Engine.Unsafe.abort e z
    done;
    let committed = Array.copy value in
    let pairs () = (Store.stats store).Store.pair_merges in
    let before = pairs () in
    let first = Chip.op_count chip in
    Chip.set_fault_hook chip
      (Some
         (fun idx _ ->
           match crash with Some n when idx >= n -> Chip.Fail_stop | _ -> Chip.Proceed));
    (try
       let tx = Engine.Unsafe.begin_txn e in
       update tx 0 "x-new";
       update tx 2 "y-new";
       Engine.Unsafe.commit e tx
     with Chip.Power_loss _ -> ());
    let last = Chip.op_count chip and paired = pairs () - before in
    Chip.set_fault_hook chip None;
    let e', _ = Engine.restart ~config chip in
    let reads = Array.mapi (fun k page -> Engine.Unsafe.read e' ~page ~slot:slots.(k)) pages in
    (first, last, paired, committed, reads)
  in
  let first, last, paired, _, _ = run None in
  Alcotest.(check int) "the last commit merges A and B as one pair" 1 paired;
  for n = first to last - 1 do
    let _, _, _, committed, reads = run (Some n) in
    Array.iteri
      (fun k got ->
        Alcotest.(check (option bytes))
          (Printf.sprintf "crash at op %d (ops %d-%d): page %d" n first last k)
          (Some (b committed.(k)))
          got)
      reads
  done

let test_selective_merge_under_long_txn () =
  (* A long-running transaction hammers one page while its unit runs out of
     log sectors: the engine must divert to overflow, keep the data
     readable, and merge once the transaction commits. *)
  let _, _, e = mk ~buffer_pages:2 () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v0000")) in
  Engine.Unsafe.checkpoint e;
  let tx = Engine.Unsafe.begin_txn e in
  for i = 1 to 1000 do
    ok (Engine.Unsafe.update e ~tx ~page ~slot (b (Printf.sprintf "v%04d" i)))
  done;
  Engine.Unsafe.commit e tx;
  let s = Engine.stats e in
  Alcotest.(check bool) "diversions happened" true
    (s.Engine.storage.Store.overflow_diversions > 0);
  Alcotest.(check (option bytes)) "final state" (Some (b "v1000")) (Engine.Unsafe.read e ~page ~slot);
  (* Follow-up work merges the backlog away. *)
  for i = 1001 to 1800 do
    ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b (Printf.sprintf "v%04d" i)))
  done;
  Engine.Unsafe.checkpoint e;
  Alcotest.(check (option bytes)) "after merge" (Some (b "v1800")) (Engine.Unsafe.read e ~page ~slot)

let test_restart_mid_merge_consistency () =
  (* Run a workload with plenty of merges, checkpoint, crash, restart, and
     verify every record. *)
  let chip, config, e = mk ~buffer_pages:4 () in
  let pages = Array.init 20 (fun _ -> Engine.Unsafe.allocate_page e) in
  let model = Array.make 20 "" in
  let rng = Ipl_util.Rng.of_int 99 in
  Array.iteri
    (fun i page ->
      let v = Printf.sprintf "init-%04d" i in
      ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b v)));
      model.(i) <- v)
    pages;
  for round = 1 to 500 do
    let i = Ipl_util.Rng.int rng 20 in
    let v = Printf.sprintf "r%03d-%04d" (round mod 1000) i in
    ok (Engine.Unsafe.update e ~tx:0 ~page:pages.(i) ~slot:0 (b v));
    model.(i) <- v
  done;
  Engine.Unsafe.checkpoint e;
  let e', _ = Engine.restart ~config chip in
  Array.iteri
    (fun i page ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "page %d" i)
        (Some (b model.(i)))
        (Engine.Unsafe.read e' ~page ~slot:0))
    pages

(* Property: a random batch of committed transactions is always fully
   visible after crash-restart; aborted ones never are. *)
let prop_transactional_crash_consistency =
  QCheck.Test.make ~name:"crash keeps committed, drops aborted" ~count:20
    QCheck.(small_list (pair bool (int_bound 999)))
    (fun txs ->
      let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
      let config = base_config ~buffer_pages:4 () in
      let e = Engine.create ~config chip in
      let page = Engine.Unsafe.allocate_page e in
      Engine.Unsafe.checkpoint e;
      let expected = ref [] in
      List.iter
        (fun (commit, v) ->
          let tx = Engine.Unsafe.begin_txn e in
          let data = b (Printf.sprintf "tx-%03d" v) in
          match Engine.Unsafe.insert e ~tx ~page data with
          | Error _ -> Engine.Unsafe.abort e tx
          | Ok slot ->
              if commit then begin
                Engine.Unsafe.commit e tx;
                expected := (slot, Printf.sprintf "tx-%03d" v) :: !expected
              end
              else Engine.Unsafe.abort e tx)
        txs;
      let e', _ = Engine.restart ~config chip in
      List.for_all
        (fun (slot, v) ->
          match Engine.Unsafe.read e' ~page ~slot with
          | Some got -> Bytes.to_string got = v
          | None -> false)
        !expected)

let test_group_commit_batches () =
  (* Many tiny transactions: per-commit forcing writes one (mostly empty)
     log sector each; group commit packs several transactions' records
     into shared sectors. *)
  let run group =
    let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
    let e = Engine.create ~config:(base_config ()) chip in
    Engine.set_group_commit e group;
    let page = Engine.Unsafe.allocate_page e in
    Engine.Unsafe.checkpoint e;
    for i = 0 to 99 do
      let tx = Engine.Unsafe.begin_txn e in
      ignore (ok (Engine.Unsafe.insert e ~tx ~page:(if i < 50 then page else page) (b (Printf.sprintf "r%03d" i))));
      Engine.Unsafe.commit e tx
    done;
    Engine.Unsafe.flush_commits e;
    (Engine.stats e).Engine.storage.Store.log_sector_writes
  in
  let per_commit = run 1 and grouped = run 10 in
  Alcotest.(check bool)
    (Printf.sprintf "grouped writes fewer sectors (%d < %d)" grouped per_commit)
    true
    (grouped * 3 < per_commit)

let test_group_commit_window_positive () =
  let e = Engine.create ~config:(base_config ()) (Chip.create (FConfig.default ~num_blocks:64 ())) in
  Alcotest.check_raises "window 0 rejected"
    (Invalid_argument "Ipl_engine.set_group_commit: window must be at least 1") (fun () ->
      Engine.set_group_commit e 0)

let test_group_commit_durability_boundary () =
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = base_config () in
  let e = Engine.create ~config chip in
  Engine.set_group_commit e 100;
  let page = Engine.Unsafe.allocate_page e in
  Engine.Unsafe.checkpoint e;
  let t1 = Engine.Unsafe.begin_txn e in
  let s1 = ok (Engine.Unsafe.insert e ~tx:t1 ~page (b "batched-1")) in
  Engine.Unsafe.commit e t1;
  (* Crash before the batch is flushed: the commit is lost (documented
     group-commit trade-off). *)
  let e', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "unflushed commit lost" None (Engine.Unsafe.read e' ~page ~slot:s1);
  (* Same scenario, but flush_commits makes it durable. *)
  Engine.set_group_commit e' 100;
  let t2 = Engine.Unsafe.begin_txn e' in
  let s2 = ok (Engine.Unsafe.insert e' ~tx:t2 ~page (b "batched-2")) in
  Engine.Unsafe.commit e' t2;
  Engine.Unsafe.flush_commits e';
  let e'', _ = Engine.restart ~config chip in
  Alcotest.(check (option bytes)) "flushed commit survives" (Some (b "batched-2"))
    (Engine.Unsafe.read e'' ~page ~slot:s2)

(* Update [slot] of [page] under [tx] with fresh 6-byte values, numbered
   on from [!n], until [stop ()] holds. *)
let update_until e ~tx ~page ~slot n stop =
  while not (stop ()) do
    incr n;
    ok (Engine.Unsafe.update e ~tx ~page ~slot (b (Printf.sprintf "v%05d" !n)))
  done

let merges e = (Engine.stats e).Engine.storage.Store.merges

let test_compact_moves_merges_off_path () =
  let _, _, e = mk ~buffer_pages:4 () in
  let store = Engine.storage e in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00000")) in
  let eu = Store.eu_of_page store page in
  let used () = Store.used_log_sectors store ~eu in
  (* Fill the unit's log region to its last sector: 15 sector writes, and
     the checkpoint's flush writes the 16th. *)
  let n = ref 0 in
  update_until e ~tx:0 ~page ~slot n (fun () -> used () = 15);
  Engine.Unsafe.checkpoint e;
  Alcotest.(check int) "log region exhausted" 16 (used ());
  let merged = Engine.Unsafe.compact e ~max_merges:4 in
  Alcotest.(check bool) "compacted something" true (merged >= 1);
  let merges_before = merges e in
  (* The next burst of updates now has a fresh log region: no merge on the
     write path until it fills again. *)
  let last = !n + 100 in
  update_until e ~tx:0 ~page ~slot n (fun () -> !n = last);
  Engine.Unsafe.checkpoint e;
  Alcotest.(check int) "no merge on the write path" merges_before (merges e);
  Alcotest.(check (option bytes)) "data intact"
    (Some (b (Printf.sprintf "v%05d" !n)))
    (Engine.Unsafe.read e ~page ~slot);
  (* Compacting an already-clean store is a no-op. *)
  Alcotest.(check int) "idempotent when clean"
    0
    (let _ = Engine.Unsafe.compact e ~max_merges:4 in
     Engine.Unsafe.compact e ~max_merges:4)

(* A unit whose next flush still fits in its log region owes no merge:
   background merging must not erase its block early. *)
let test_compact_skips_free_log () =
  let _, _, e = mk ~buffer_pages:4 () in
  let store = Engine.storage e in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00000")) in
  let eu = Store.eu_of_page store page in
  let n = ref 0 in
  update_until e ~tx:0 ~page ~slot n (fun () -> Store.used_log_sectors store ~eu = 14);
  Engine.Unsafe.checkpoint e;
  let used = Store.used_log_sectors store ~eu and before = merges e in
  Alcotest.(check int) "one sector free" 15 used;
  Alcotest.(check int) "nothing due" 0 (Engine.Unsafe.compact e ~max_merges:4);
  Alcotest.(check int) "no merge" before (merges e);
  Alcotest.(check int) "same unit" eu (Store.eu_of_page store page);
  Alcotest.(check int) "log untouched" used (Store.used_log_sectors store ~eu)

(* An exhausted unit whose records belong mostly to a live transaction is
   not due: the write path diverts its next sector to overflow rather
   than carry them all forward, and background merging leaves it too. *)
let test_compact_skips_live_unit () =
  let _, _, e = mk ~buffer_pages:4 () in
  let store = Engine.storage e in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00000")) in
  Engine.Unsafe.checkpoint e;
  let eu = Store.eu_of_page store page in
  let tx = Engine.Unsafe.begin_txn e in
  let n = ref 0 in
  update_until e ~tx ~page ~slot n (fun () -> Store.used_log_sectors store ~eu = 15);
  let before = merges e in
  Alcotest.(check int) "nothing due" 0 (Engine.Unsafe.compact e ~max_merges:4);
  Alcotest.(check int) "log region exhausted" 16 (Store.used_log_sectors store ~eu);
  Alcotest.(check int) "no merge" before (merges e);
  let diversions () = (Engine.stats e).Engine.storage.Store.overflow_diversions in
  let diverted = diversions () in
  update_until e ~tx ~page ~slot n (fun () -> diversions () > diverted);
  Alcotest.(check int) "the write path diverts, too" before (merges e);
  Alcotest.(check int) "same unit" eu (Store.eu_of_page store page);
  Engine.Unsafe.commit e tx;
  Alcotest.(check (option bytes)) "data intact"
    (Some (b (Printf.sprintf "v%05d" !n)))
    (Engine.Unsafe.read e ~page ~slot)

(* Of two due units, the one spilled to overflow holds more log sectors
   and is merged first. *)
let test_compact_overflow_first () =
  let _, _, e = mk ~buffer_pages:4 () in
  let store = Engine.storage e in
  let pages = List.init 16 (fun _ -> Engine.Unsafe.allocate_page e) in
  let pa = List.hd pages and pb = List.nth pages 15 in
  let eua = Store.eu_of_page store pa and eub = Store.eu_of_page store pb in
  Alcotest.(check bool) "two units" true (eua <> eub);
  let sa = ok (Engine.Unsafe.insert e ~tx:0 ~page:pa (b "v00000")) in
  let sb = ok (Engine.Unsafe.insert e ~tx:0 ~page:pb (b "v00000")) in
  Engine.Unsafe.checkpoint e;
  (* Unit B: exhausted by committed work. *)
  let nb = ref 0 in
  update_until e ~tx:0 ~page:pb ~slot:sb nb (fun () -> Store.used_log_sectors store ~eu:eub = 15);
  Engine.Unsafe.checkpoint e;
  Alcotest.(check int) "B exhausted" 16 (Store.used_log_sectors store ~eu:eub);
  (* Unit A: exhausted by a live transaction, spilled to overflow, then
     committed. *)
  let tx = Engine.Unsafe.begin_txn e in
  let na = ref 0 in
  update_until e ~tx ~page:pa ~slot:sa na (fun () -> Store.overflow_sectors store ~eu:eua > 0);
  Engine.Unsafe.commit e tx;
  Engine.Unsafe.checkpoint e;
  let before = merges e in
  Alcotest.(check int) "one merge" 1 (Engine.Unsafe.compact e ~max_merges:1);
  Alcotest.(check int) "one merge counted" (before + 1) (merges e);
  Alcotest.(check bool) "A merged" true (Store.eu_of_page store pa <> eua);
  Alcotest.(check int) "B still exhausted" 16 (Store.used_log_sectors store ~eu:eub);
  Alcotest.(check int) "then B" 1 (Engine.Unsafe.compact e ~max_merges:1);
  Alcotest.(check bool) "B merged" true (Store.eu_of_page store pb <> eub);
  Alcotest.(check (option bytes)) "A intact"
    (Some (b (Printf.sprintf "v%05d" !na)))
    (Engine.Unsafe.read e ~page:pa ~slot:sa);
  Alcotest.(check (option bytes)) "B intact"
    (Some (b (Printf.sprintf "v%05d" !nb)))
    (Engine.Unsafe.read e ~page:pb ~slot:sb)

(* Property: crash at an arbitrary point in a transactional workload.
   Whatever was committed before the crash point is visible afterwards;
   whatever was not committed is invisible. *)
let prop_crash_anywhere =
  QCheck.Test.make ~name:"crash at any point preserves exactly the committed prefix" ~count:25
    QCheck.(pair small_int (int_bound 30))
    (fun (seed, crash_after) ->
      let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
      let config = base_config ~buffer_pages:3 () in
      let e = Engine.create ~config chip in
      let page = Engine.Unsafe.allocate_page e in
      Engine.Unsafe.checkpoint e;
      let rng = Ipl_util.Rng.of_int seed in
      let committed = Hashtbl.create 8 in
      (* Run transactions until the crash point; each inserts one record
         and updates it once. *)
      (try
         for i = 0 to 60 do
           if i >= crash_after then raise Exit;
           let tx = Engine.Unsafe.begin_txn e in
           let v = Printf.sprintf "txn-%03d-%03d" i (Ipl_util.Rng.int rng 1000) in
           match Engine.Unsafe.insert e ~tx ~page (b v) with
           | Error _ -> Engine.Unsafe.abort e tx
           | Ok slot -> (
               let v' = v ^ "!" in
               match Engine.Unsafe.update e ~tx ~page ~slot (b (String.sub v' 0 (String.length v))) with
               | Error _ -> Engine.Unsafe.abort e tx
               | Ok () ->
                   if Ipl_util.Rng.chance rng 0.8 then begin
                     Engine.Unsafe.commit e tx;
                     Hashtbl.replace committed slot (String.sub v' 0 (String.length v))
                   end
                   else Engine.Unsafe.abort e tx)
         done
       with Exit -> ());
      (* Crash: no checkpoint, just restart from the chip. *)
      let e', _ = Engine.restart ~config chip in
      Hashtbl.fold
        (fun slot v acc ->
          acc
          && match Engine.Unsafe.read e' ~page ~slot with Some got -> Bytes.to_string got = v | None -> false)
        committed true)

(* A seeded insert/update/delete/read mix over a few pages, one
   transaction at a time, three in four committed and the rest aborted.
   Returns every operation's outcome, the full contents after the mix,
   the full contents after a crash and restart, and the engine. *)
let recycling_mix ~buffer_pages =
  let module Rng = Ipl_util.Rng in
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = base_config ~buffer_pages () in
  let e = Engine.create ~config chip in
  let rng = Rng.of_int 20240917 in
  let npages = 9 and nslots = 12 in
  let pages = Array.init npages (fun _ -> Engine.Unsafe.allocate_page e) in
  let out = Buffer.create 4096 in
  let note fmt = Printf.bprintf out (fmt ^^ "\n") in
  let show = function Ok () -> "ok" | Error err -> Engine.error_to_string err in
  let payload () = Bytes.init (Rng.int_in rng 4 40) (fun _ -> Char.chr (Rng.int_in rng 97 122)) in
  for _ = 1 to 240 do
    let tx = Engine.Unsafe.begin_txn e in
    for _ = 1 to Rng.int_in rng 1 5 do
      let page = pages.(Rng.int rng npages) and slot = Rng.int rng nslots in
      match Rng.int rng 5 with
      | 0 -> (
          match Engine.Unsafe.insert e ~tx ~page (payload ()) with
          | Ok s -> note "insert %d -> %d" page s
          | Error err -> note "insert %d -> %s" page (Engine.error_to_string err))
      | 1 -> note "update %d.%d %s" page slot (show (Engine.Unsafe.update e ~tx ~page ~slot (payload ())))
      | 2 -> note "delete %d.%d %s" page slot (show (Engine.Unsafe.delete e ~tx ~page ~slot))
      | 3 ->
          note "patch %d.%d %s" page slot
            (show (Engine.Unsafe.update_range e ~tx ~page ~slot ~offset:1 (b "PQ")))
      | _ ->
          note "read %d.%d %s" page slot
            (Option.fold ~none:"-" ~some:Bytes.to_string (Engine.Unsafe.read e ~page ~slot))
    done;
    if Rng.int rng 4 = 0 then Engine.Unsafe.abort e tx else Engine.Unsafe.commit e tx
  done;
  let contents e =
    let c = Buffer.create 4096 in
    Array.iter
      (fun page ->
        for slot = 0 to nslots - 1 do
          Printf.bprintf c "%d.%d %s\n" page slot
            (Option.fold ~none:"-" ~some:Bytes.to_string (Engine.Unsafe.read e ~page ~slot))
        done)
      pages;
    Buffer.contents c
  in
  let before = contents e in
  let e', _ = Engine.restart ~config chip in
  (Buffer.contents out, before, contents e', e)

(* A 2-frame pool recycles an evicted frame on almost every access; a
   pool holding every page never evicts. Recycling must be invisible: the
   same mix returns the same outcomes and leaves the same contents, both
   live and after a crash and restart. *)
let test_recycled_frames_invisible () =
  let ops2, live2, restarted2, e2 = recycling_mix ~buffer_pages:2 in
  let opsall, liveall, restartedall, eall = recycling_mix ~buffer_pages:64 in
  let pool e = (Engine.stats e).Engine.pool in
  Alcotest.(check bool) "the small pool evicts" true ((pool e2).Bufmgr.Buffer_pool.evictions > 100);
  Alcotest.(check int) "the large pool never evicts" 0 (pool eall).Bufmgr.Buffer_pool.evictions;
  Alcotest.(check bool) "the mix merges" true
    ((Engine.stats e2).Engine.storage.Store.merges > 0);
  Alcotest.(check string) "same outcomes" opsall ops2;
  Alcotest.(check string) "same contents" liveall live2;
  Alcotest.(check string) "same contents after restart" restartedall restarted2;
  Alcotest.(check string) "restart keeps the contents" live2 restarted2

(* A miss on a full pool re-reads into the evicted frame's bytes: on a
   warm engine it must not allocate a fresh page image (1 024 words for
   an 8 KB page) in the major heap. *)
let test_read_miss_allocates_no_page () =
  let _, config, e = mk ~buffer_pages:64 ~blocks:128 () in
  let pages = Array.init 96 (fun _ -> Engine.Unsafe.allocate_page e) in
  Array.iter (fun page -> ignore (ok (Engine.Unsafe.insert e ~tx:0 ~page (b "row")))) pages;
  Engine.Unsafe.checkpoint e;
  Array.iter (fun page -> ignore (Engine.Unsafe.read e ~page ~slot:0)) pages;
  let misses () = (Engine.stats e).Engine.pool.Bufmgr.Buffer_pool.misses in
  let page_words = config.Config.page_size / (Sys.word_size / 8) in
  (* Pages 0..31 were evicted by the warm-up scan: each read below misses. *)
  for i = 0 to 7 do
    let misses0 = misses () in
    Gc.minor ();
    let words0 = (Gc.quick_stat ()).Gc.major_words in
    ignore (Engine.Unsafe.read e ~page:pages.(i) ~slot:0);
    (* A minor collection settles the counter; it also promotes whatever
       the read left live in the minor heap, which counts against it. *)
    Gc.minor ();
    let words = (Gc.quick_stat ()).Gc.major_words -. words0 in
    Alcotest.(check int) "a miss" (misses0 + 1) (misses ());
    Alcotest.(check bool)
      (Printf.sprintf "major words of a miss (%.0f) below one page image (%d)" words page_words)
      true
      (words < float_of_int page_words)
  done

(* Cause 2 of ROADMAP's space-reservation item: a loser frees bytes or a
   slot of a full page, and a committed insert spends them. Rebuilding
   the page without the loser's change then fails: on the live engine
   when the loser aborts, and after a restart when a read replays the
   page. Both must come back as [Replay_failed] from the typed surface
   instead of escaping as an exception. Slotted-page space reservation
   (ROADMAP step 3) will turn each expected result into the committed
   insert's value. *)
let test_replay_failure_is_typed () =
  let scenario ~variant =
    let chip, config, e = mk () in
    let page = ok (Engine.allocate_page e) in
    let filler = ok (Engine.begin_txn e) in
    let rec fill () =
      match Engine.insert e ~tx:filler ~page (Bytes.make 100 'f') with
      | Ok _ -> fill ()
      | Error Engine.Page_full -> ()
      | Error err -> Alcotest.failf "fill: %s" (Engine.error_to_string err)
    in
    fill ();
    ok (Engine.commit e filler);
    let loser = ok (Engine.begin_txn e) in
    (match variant with
    | `Bytes -> ok (Engine.update e ~tx:loser ~page ~slot:0 (b "x"))
    | `Slot -> ok (Engine.delete e ~tx:loser ~page ~slot:0));
    let winner = ok (Engine.begin_txn e) in
    let slot = ok (Engine.insert e ~tx:winner ~page (Bytes.make 80 'w')) in
    (* Window 1: the commit flushes the page's log, the loser's record
       included. *)
    ok (Engine.commit e winner);
    (chip, config, e, loser, winner, page, slot)
  in
  let expect what ~winner ~slot ~error = function
    | Error (Engine.Replay_failed f) ->
        Alcotest.(check int) (what ^ ": transaction") (Engine.txn_id winner) f.record.txid;
        Alcotest.(check int) (what ^ ": slot") slot (Ipl_core.Log_record.slot f.record);
        Alcotest.(check bool) (what ^ ": page error") true (f.error = error)
    | Error err -> Alcotest.failf "%s: wrong error: %s" what (Engine.error_to_string err)
    | Ok _ -> Alcotest.failf "%s: succeeded" what
  in
  List.iter
    (fun (variant, name, error) ->
      let _, _, e, loser, winner, _, slot = scenario ~variant in
      Alcotest.(check int) (name ^ ": insert slot") (if variant = `Slot then 0 else 78) slot;
      expect (name ^ " abort") ~winner ~slot ~error (Engine.abort e loser);
      let chip, config, _, _, winner, page, slot = scenario ~variant in
      let e', _ = Engine.restart ~config chip in
      expect (name ^ " read after restart") ~winner ~slot ~error (Engine.read e' ~page ~slot))
    [ (`Bytes, "freed bytes", `Page_full); (`Slot, "freed slot", `Slot_already_live) ]

let () =
  Alcotest.run "ipl_engine"
    [
      ( "basic",
        [
          Alcotest.test_case "insert & read" `Quick test_insert_read;
          Alcotest.test_case "update & delete" `Quick test_update_delete;
          Alcotest.test_case "update_range" `Quick test_update_range;
          Alcotest.test_case "survives eviction" `Quick test_survives_eviction;
          Alcotest.test_case "no page write-back" `Quick test_dirty_page_never_written_back;
          Alcotest.test_case "merges under pressure" `Quick test_many_updates_trigger_merges;
          Alcotest.test_case "no-op update logs nothing" `Quick test_noop_update_logs_nothing;
          Alcotest.test_case "multi-range update" `Quick test_multi_range_update;
          Alcotest.test_case "chunked large update" `Quick test_large_equal_length_update_chunks;
          Alcotest.test_case "resize as delete+insert" `Quick test_large_resize_update_as_delete_insert;
          Alcotest.test_case "empty update rejected" `Quick test_empty_update_rejected;
          Alcotest.test_case "oversized records rejected" `Quick test_oversized_records_rejected_cleanly;
          Alcotest.test_case "recycled frames invisible" `Quick test_recycled_frames_invisible;
          Alcotest.test_case "read miss allocates no page" `Quick test_read_miss_allocates_no_page;
        ] );
      ( "restart",
        [
          Alcotest.test_case "checkpoint + restart" `Quick test_checkpoint_then_restart;
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_work_lost_without_checkpoint;
          Alcotest.test_case "corrupt image header is Read_failed" `Quick
            test_corrupt_image_header_is_read_failed;
          Alcotest.test_case "restart after merges" `Quick test_restart_mid_merge_consistency;
          Alcotest.test_case "restart reads only the system log" `Quick
            test_restart_reads_only_system_log;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit durable" `Quick test_commit_durable_without_checkpoint;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back_in_memory;
          Alcotest.test_case "abort after flush" `Quick test_abort_after_flush_filtered_by_status;
          Alcotest.test_case "active aborted on restart" `Quick test_active_txn_aborted_on_restart;
          Alcotest.test_case "commit + abort interleaved" `Quick test_committed_and_aborted_interleaved;
          Alcotest.test_case "replay failure is a typed error" `Quick test_replay_failure_is_typed;
          Alcotest.test_case "default config: an uncommitted transaction is aborted by restart"
            `Quick test_default_config_restart_aborts_uncommitted;
          Alcotest.test_case "txn ids resume" `Quick test_txn_ids_resume_after_restart;
          Alcotest.test_case "txn ids survive log compaction" `Quick
            test_txn_ids_survive_log_compaction;
          Alcotest.test_case "crash inside a system-log compaction" `Quick
            test_compaction_crash_keeps_system_log;
          Alcotest.test_case "crash inside a pair merge" `Quick test_pair_merge_crash;
          Alcotest.test_case "selective merge under long txn" `Quick test_selective_merge_under_long_txn;
          Alcotest.test_case "group commit batches" `Quick test_group_commit_batches;
          Alcotest.test_case "group commit durability boundary" `Quick test_group_commit_durability_boundary;
          Alcotest.test_case "group commit window is at least 1" `Quick
            test_group_commit_window_positive;
          Alcotest.test_case "background compact" `Quick test_compact_moves_merges_off_path;
          Alcotest.test_case "compact leaves a free log alone" `Quick test_compact_skips_free_log;
          Alcotest.test_case "compact leaves a live unit alone" `Quick test_compact_skips_live_unit;
          Alcotest.test_case "compact merges overflow first" `Quick test_compact_overflow_first;
          QCheck_alcotest.to_alcotest prop_transactional_crash_consistency;
          QCheck_alcotest.to_alcotest prop_crash_anywhere;
        ] );
    ]

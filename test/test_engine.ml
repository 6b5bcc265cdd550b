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
  Ipl_core.Ipl_storage.force_meta (Engine.storage e);
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
  let per_commit = run 0 and grouped = run 10 in
  Alcotest.(check bool)
    (Printf.sprintf "grouped writes fewer sectors (%d < %d)" grouped per_commit)
    true
    (grouped * 3 < per_commit)

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

let test_compact_moves_merges_off_path () =
  let _, _, e = mk ~buffer_pages:4 () in
  let page = Engine.Unsafe.allocate_page e in
  let slot = ok (Engine.Unsafe.insert e ~tx:0 ~page (b "v00000")) in
  (* Fill most of the unit's log region. *)
  for i = 1 to 300 do
    ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b (Printf.sprintf "v%05d" i)))
  done;
  Engine.Unsafe.checkpoint e;
  let merged = Engine.Unsafe.compact e ~max_merges:4 in
  Alcotest.(check bool) "compacted something" true (merged >= 1);
  let merges_before = (Engine.stats e).Engine.storage.Store.merges in
  (* The next burst of updates now has a fresh log region: no merge on the
     write path until it fills again. *)
  for i = 301 to 400 do
    ok (Engine.Unsafe.update e ~tx:0 ~page ~slot (b (Printf.sprintf "v%05d" i)))
  done;
  Engine.Unsafe.checkpoint e;
  Alcotest.(check int) "no merge on the write path" merges_before
    (Engine.stats e).Engine.storage.Store.merges;
  Alcotest.(check (option bytes)) "data intact" (Some (b "v00400")) (Engine.Unsafe.read e ~page ~slot);
  (* Compacting an already-clean store is a no-op. *)
  Alcotest.(check int) "idempotent when clean"
    0
    (let _ = Engine.Unsafe.compact e ~max_merges:4 in
     Engine.Unsafe.compact e ~max_merges:4)

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
          Alcotest.test_case "oversized records rejected" `Quick test_oversized_records_rejected_cleanly;
          Alcotest.test_case "recycled frames invisible" `Quick test_recycled_frames_invisible;
          Alcotest.test_case "read miss allocates no page" `Quick test_read_miss_allocates_no_page;
        ] );
      ( "restart",
        [
          Alcotest.test_case "checkpoint + restart" `Quick test_checkpoint_then_restart;
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_work_lost_without_checkpoint;
          Alcotest.test_case "restart after merges" `Quick test_restart_mid_merge_consistency;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit durable" `Quick test_commit_durable_without_checkpoint;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back_in_memory;
          Alcotest.test_case "abort after flush" `Quick test_abort_after_flush_filtered_by_status;
          Alcotest.test_case "active aborted on restart" `Quick test_active_txn_aborted_on_restart;
          Alcotest.test_case "commit + abort interleaved" `Quick test_committed_and_aborted_interleaved;
          Alcotest.test_case "default config: an uncommitted transaction is aborted by restart"
            `Quick test_default_config_restart_aborts_uncommitted;
          Alcotest.test_case "txn ids resume" `Quick test_txn_ids_resume_after_restart;
          Alcotest.test_case "selective merge under long txn" `Quick test_selective_merge_under_long_txn;
          Alcotest.test_case "group commit batches" `Quick test_group_commit_batches;
          Alcotest.test_case "group commit durability boundary" `Quick test_group_commit_durability_boundary;
          Alcotest.test_case "background compact" `Quick test_compact_moves_merges_off_path;
          QCheck_alcotest.to_alcotest prop_transactional_crash_consistency;
          QCheck_alcotest.to_alcotest prop_crash_anywhere;
        ] );
    ]

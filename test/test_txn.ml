(* Tests of the concurrent-serving layer (lib/txn): snapshot-isolation
   MVCC over the engine, group commit, and the deterministic session
   scheduler. The anomaly tests pin the SI contract — lost updates are
   rejected, write skew is allowed — and the QCheck property checks that
   any interleaving of random plans is a pure function of
   (plans, sessions). *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Mvcc = Ipl_txn.Mvcc
module Session = Ipl_txn.Session

let b = Bytes.of_string

let ok_e = function
  | Ok x -> x
  | Error e -> Alcotest.failf "engine error: %s" (Engine.error_to_string e)

let ok_m = function
  | Ok x -> x
  | Error e -> Alcotest.failf "mvcc error: %s" (Mvcc.error_to_string e)

let mk ?(window = 1) ?(blocks = 64) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config = { Config.default with Config.buffer_pages = 8 } in
  let engine = Engine.create ~config chip in
  (engine, Mvcc.create ~group_window:window engine)

(* Allocate [pages] pages and commit [slots] records in each, so the
   tests start from a durable, conflict-free base. *)
let seed m ~pages ~slots =
  let pids = Array.init pages (fun _ -> ok_e (Engine.allocate_page (Mvcc.engine m))) in
  let tx = ok_m (Mvcc.begin_txn m) in
  Array.iter
    (fun page ->
      for s = 0 to slots - 1 do
        let slot = ok_m (Mvcc.insert m tx ~page (b (Printf.sprintf "seed-%d-%d" page s))) in
        Alcotest.(check int) "seed slot" s slot
      done)
    pids;
  ok_m (Mvcc.commit m tx);
  ok_m (Mvcc.flush m);
  pids

let read_c m ~page ~slot = ok_m (Mvcc.read_committed m ~page ~slot)

(* ---------------- snapshot isolation ---------------- *)

let test_snapshot_read () =
  let _, m = mk () in
  let pids = seed m ~pages:1 ~slots:2 in
  let page = pids.(0) in
  let reader = ok_m (Mvcc.begin_txn m) in
  Alcotest.(check (option bytes)) "before" (Some (b "seed-0-0"))
    (ok_m (Mvcc.read m reader ~page ~slot:0));
  let writer = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m writer ~page ~slot:0 (b "overwritten"));
  (* In-flight writes are invisible to both the snapshot and fresh reads. *)
  Alcotest.(check (option bytes)) "in-flight hidden from snapshot" (Some (b "seed-0-0"))
    (ok_m (Mvcc.read m reader ~page ~slot:0));
  Alcotest.(check (option bytes)) "in-flight hidden from read_committed"
    (Some (b "seed-0-0")) (read_c m ~page ~slot:0);
  ok_m (Mvcc.commit m writer);
  ok_m (Mvcc.flush m);
  (* The old snapshot still reads its version; a fresh view sees the new. *)
  Alcotest.(check (option bytes)) "snapshot stable" (Some (b "seed-0-0"))
    (ok_m (Mvcc.read m reader ~page ~slot:0));
  Alcotest.(check (option bytes)) "committed visible" (Some (b "overwritten"))
    (read_c m ~page ~slot:0);
  ok_m (Mvcc.commit m reader)

let test_own_writes_visible () =
  let _, m = mk () in
  let pids = seed m ~pages:1 ~slots:1 in
  let page = pids.(0) in
  let tx = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m tx ~page ~slot:0 (b "mine"));
  Alcotest.(check (option bytes)) "own write" (Some (b "mine"))
    (ok_m (Mvcc.read m tx ~page ~slot:0));
  ok_m (Mvcc.delete m tx ~page ~slot:0);
  Alcotest.(check (option bytes)) "own delete" None (ok_m (Mvcc.read m tx ~page ~slot:0));
  ok_m (Mvcc.abort m tx);
  Alcotest.(check (option bytes)) "rolled back" (Some (b "seed-0-0")) (read_c m ~page ~slot:0)

let test_lost_update_rejected () =
  let _, m = mk () in
  let pids = seed m ~pages:1 ~slots:1 in
  let page = pids.(0) in
  (* First-updater-wins: B writes a slot A has written while still live. *)
  let a = ok_m (Mvcc.begin_txn m) in
  let b_ = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m a ~page ~slot:0 (b "from A"));
  (match Mvcc.update m b_ ~page ~slot:0 (b "from B") with
  | Error (Mvcc.Conflict { page = p; slot = 0 }) when p = page -> ()
  | Ok () -> Alcotest.fail "lost update must be rejected"
  | Error e -> Alcotest.failf "expected conflict, got %s" (Mvcc.error_to_string e));
  (* The loser is doomed: every further operation refuses, commit refuses,
     only abort works. *)
  (match Mvcc.read m b_ ~page ~slot:0 with
  | Error Mvcc.Doomed -> ()
  | _ -> Alcotest.fail "doomed transaction must refuse reads");
  (match Mvcc.commit m b_ with
  | Error Mvcc.Doomed -> ()
  | _ -> Alcotest.fail "doomed transaction must refuse commit");
  ok_m (Mvcc.abort m b_);
  ok_m (Mvcc.commit m a);
  ok_m (Mvcc.flush m);
  Alcotest.(check (option bytes)) "winner's value" (Some (b "from A")) (read_c m ~page ~slot:0);
  (* First-committer-wins: C's snapshot predates D's commit of the slot. *)
  let c = ok_m (Mvcc.begin_txn m) in
  let d = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m d ~page ~slot:0 (b "from D"));
  ok_m (Mvcc.commit m d);
  ok_m (Mvcc.flush m);
  (match Mvcc.update m c ~page ~slot:0 (b "from C") with
  | Error (Mvcc.Conflict _) -> ()
  | Ok () -> Alcotest.fail "write after a newer commit must conflict"
  | Error e -> Alcotest.failf "expected conflict, got %s" (Mvcc.error_to_string e));
  ok_m (Mvcc.abort m c);
  let s = Mvcc.stats m in
  Alcotest.(check int) "two conflicts detected" 2 s.Mvcc.conflicts;
  Alcotest.(check int) "two aborts" 2 s.Mvcc.aborts

let test_write_skew_allowed () =
  (* Under SI, disjoint write sets never conflict even when each
     transaction's write depends on a read of the other's slot. *)
  let _, m = mk () in
  let pids = seed m ~pages:1 ~slots:2 in
  let page = pids.(0) in
  let a = ok_m (Mvcc.begin_txn m) in
  let b_ = ok_m (Mvcc.begin_txn m) in
  ignore (ok_m (Mvcc.read m a ~page ~slot:1) : bytes option);
  ignore (ok_m (Mvcc.read m b_ ~page ~slot:0) : bytes option);
  ok_m (Mvcc.update m a ~page ~slot:0 (b "A saw slot 1"));
  ok_m (Mvcc.update m b_ ~page ~slot:1 (b "B saw slot 0"));
  ok_m (Mvcc.commit m a);
  ok_m (Mvcc.commit m b_);
  ok_m (Mvcc.flush m);
  Alcotest.(check (option bytes)) "A's write" (Some (b "A saw slot 1")) (read_c m ~page ~slot:0);
  Alcotest.(check (option bytes)) "B's write" (Some (b "B saw slot 0")) (read_c m ~page ~slot:1);
  Alcotest.(check int) "no conflicts" 0 (Mvcc.stats m).Mvcc.conflicts

(* ---------------- group commit ---------------- *)

let test_group_commit_batching () =
  let _, m = mk ~window:4 () in
  let pids = seed m ~pages:1 ~slots:8 in
  let page = pids.(0) in
  (* Mvcc keeps no counter of its own: its pending count is the engine's. *)
  let same_pending () =
    Alcotest.(check int) "pending is the engine's" (Engine.pending_commits (Mvcc.engine m))
      (Mvcc.pending m)
  in
  (* Three commits stay pending; the fourth fills the window and one
     barrier settles all four. *)
  for i = 0 to 2 do
    let tx = ok_m (Mvcc.begin_txn m) in
    ok_m (Mvcc.update m tx ~page ~slot:i (b "batched"));
    ok_m (Mvcc.commit m tx);
    same_pending ()
  done;
  let before = Mvcc.stats m in
  Alcotest.(check int) "pending below window" 3 (Mvcc.pending m);
  (* seed's own flush contributed the first barrier *)
  Alcotest.(check int) "no new barrier yet" 1 before.Mvcc.barriers;
  let tx = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m tx ~page ~slot:3 (b "batched"));
  ok_m (Mvcc.commit m tx);
  same_pending ();
  let s = Mvcc.stats m in
  Alcotest.(check int) "window flushes" 0 (Mvcc.pending m);
  Alcotest.(check int) "one more barrier" 2 s.Mvcc.barriers;
  Alcotest.(check int) "batch of four" 4 s.Mvcc.max_batch;
  Alcotest.(check int) "flushed counter" 5 (Mvcc.flushed_commits m);
  (* An explicit flush settles a partial batch. *)
  let tx = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m tx ~page ~slot:4 (b "partial"));
  ok_m (Mvcc.commit m tx);
  same_pending ();
  Alcotest.(check int) "partial pending" 1 (Mvcc.pending m);
  ok_m (Mvcc.flush m);
  Alcotest.(check int) "partial settled" 0 (Mvcc.pending m);
  Alcotest.(check int) "all commits flushed" 6 (Mvcc.flushed_commits m)

(* The engine's commit window is the only batching mechanism, so setting
   it through Mvcc or directly on the engine must cost the device exactly
   the same: same flash and storage counters, same simulated clock. *)
let test_one_window_two_entry_points () =
  let n = 20 in
  let run ~window ~via_mvcc =
    let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
    let config = { Config.default with Config.buffer_pages = 8 } in
    let engine = Engine.create ~config chip in
    let page = ok_e (Engine.allocate_page engine) in
    let tx = ok_e (Engine.begin_txn engine) in
    for _ = 0 to 3 do
      ignore (ok_e (Engine.insert engine ~tx ~page (b "seed")) : int)
    done;
    ok_e (Engine.commit engine tx);
    let value i = b (Printf.sprintf "v%03d" i) in
    let barriers =
      if via_mvcc then begin
        let m = Mvcc.create ~group_window:window engine in
        for i = 0 to n - 1 do
          let tx = ok_m (Mvcc.begin_txn m) in
          ok_m (Mvcc.update m tx ~page ~slot:(i mod 4) (value i));
          ok_m (Mvcc.commit m tx);
          Alcotest.(check int) "pending is the engine's" (Engine.pending_commits engine)
            (Mvcc.pending m)
        done;
        ok_m (Mvcc.flush m);
        (Mvcc.stats m).Mvcc.barriers
      end
      else begin
        Engine.set_group_commit engine window;
        for i = 0 to n - 1 do
          let tx = ok_e (Engine.begin_txn engine) in
          ok_e (Engine.update engine ~tx ~page ~slot:(i mod 4) (value i));
          ok_e (Engine.commit engine tx)
        done;
        ok_e (Engine.flush_commits engine);
        0
      end
    in
    let s = Engine.stats engine in
    ( Ipl_util.Json.to_string (Flash_sim.Flash_stats.to_json s.Engine.flash),
      Ipl_util.Json.to_string (Ipl_core.Ipl_storage.Stats.to_json s.Engine.storage),
      Engine.elapsed engine,
      barriers )
  in
  List.iter
    (fun window ->
      let flash_m, storage_m, elapsed_m, barriers = run ~window ~via_mvcc:true in
      let flash_e, storage_e, elapsed_e, _ = run ~window ~via_mvcc:false in
      let name what = Printf.sprintf "window %d: %s" window what in
      Alcotest.(check string) (name "flash stats") flash_e flash_m;
      Alcotest.(check string) (name "storage stats") storage_e storage_m;
      Alcotest.(check (float 0.)) (name "elapsed") elapsed_e elapsed_m;
      Alcotest.(check int) (name "barriers") ((n + window - 1) / window) barriers)
    [ 1; 4; 16 ]

let test_version_gc () =
  let _, m = mk () in
  let pids = seed m ~pages:1 ~slots:1 in
  let page = pids.(0) in
  (* With no live snapshot, each flush GCs the versions it settled. *)
  for i = 0 to 4 do
    let tx = ok_m (Mvcc.begin_txn m) in
    ok_m (Mvcc.update m tx ~page ~slot:0 (b (Printf.sprintf "v%d" i)));
    ok_m (Mvcc.commit m tx)
  done;
  Alcotest.(check int) "chains empty after flushes" 0 (Mvcc.stats m).Mvcc.versions_live;
  (* A live reader pins its snapshot: versions committed past it survive. *)
  let reader = ok_m (Mvcc.begin_txn m) in
  let tx = ok_m (Mvcc.begin_txn m) in
  ok_m (Mvcc.update m tx ~page ~slot:0 (b "pinned"));
  ok_m (Mvcc.commit m tx);
  Alcotest.(check bool) "pinned version survives" true ((Mvcc.stats m).Mvcc.versions_live > 0);
  Alcotest.(check (option bytes)) "reader unaffected" (Some (b "v4"))
    (ok_m (Mvcc.read m reader ~page ~slot:0));
  ok_m (Mvcc.commit m reader);
  ignore (Mvcc.gc m : int);
  Alcotest.(check int) "released after reader ends" 0 (Mvcc.stats m).Mvcc.versions_live

(* ---------------- session scheduler ---------------- *)

(* A tiny deterministic LCG so plan generation never depends on global
   state; the QCheck property below explores the space more broadly. *)
let lcg seed =
  let s = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

let make_plans rand ~plans ~pages ~slots =
  Array.init plans (fun i ->
      let n_ops = 1 + rand 3 in
      let ops =
        List.init n_ops (fun j ->
            let page = pages.(rand (Array.length pages)) in
            match rand 4 with
            | 0 -> Session.Insert { page; data = b (Printf.sprintf "ins-%d-%d" i j) }
            | 1 -> Session.Delete { page; slot = rand slots }
            | _ -> Session.Update { page; slot = rand slots; data = b (Printf.sprintf "upd-%d-%d" i j) })
      in
      let reads = List.init 2 (fun _ -> (pages.(rand (Array.length pages)), rand slots)) in
      { Session.ops; aborting = rand 10 = 0; reads })

(* Run one configuration from scratch: fresh chip, engine, seeded pages.
   Returns the outcome plus the full read trace and final committed state
   — everything an identical run must reproduce bit-for-bit. *)
let run_config ~sessions ~seed:s ~plans:n_plans =
  let _, m = mk () in
  let pids = seed m ~pages:2 ~slots:4 in
  let plans = make_plans (lcg s) ~plans:n_plans ~pages:pids ~slots:6 in
  let trace = Buffer.create 256 in
  let note_read v =
    Buffer.add_string trace (match v with None -> "-;" | Some bs -> Bytes.to_string bs ^ ";")
  in
  let outcome = Session.run ~note_read ~sessions ~plans (Mvcc.engine m) in
  let state =
    Array.to_list pids
    |> List.concat_map (fun page ->
           List.init 8 (fun slot ->
               match ok_m (Mvcc.read_committed m ~page ~slot) with
               | None -> "-"
               | Some bs -> Bytes.to_string bs))
  in
  (outcome, Buffer.contents trace, String.concat "|" state)

let test_session_determinism () =
  let (o1, t1, s1) = run_config ~sessions:4 ~seed:42 ~plans:24 in
  let (o2, t2, s2) = run_config ~sessions:4 ~seed:42 ~plans:24 in
  Alcotest.(check int) "committed" o1.Session.committed o2.Session.committed;
  Alcotest.(check int) "aborted" o1.Session.aborted o2.Session.aborted;
  Alcotest.(check int) "conflict aborts" o1.Session.conflict_aborts o2.Session.conflict_aborts;
  Alcotest.(check string) "read trace" t1 t2;
  Alcotest.(check string) "final state" s1 s2;
  Alcotest.(check int) "all plans accounted" 24
    (o1.Session.committed + o1.Session.aborted + o1.Session.conflict_aborts)

let test_single_session_is_serial () =
  (* One session replays the serial order: no conflicts, and the outcome
     matches executing the same plans back-to-back through bare Mvcc. *)
  let (o1, t1, s1) = run_config ~sessions:1 ~seed:7 ~plans:16 in
  Alcotest.(check int) "serial order cannot conflict" 0 o1.Session.conflict_aborts;
  let _, m = mk () in
  let pids = seed m ~pages:2 ~slots:4 in
  let plans = make_plans (lcg 7) ~plans:16 ~pages:pids ~slots:6 in
  let trace = Buffer.create 256 in
  let committed = ref 0 and aborted = ref 0 in
  Array.iter
    (fun { Session.ops; aborting; reads } ->
      let tx = ok_m (Mvcc.begin_txn m) in
      List.iter
        (fun op ->
          let r =
            match op with
            | Session.Update { page; slot; data } ->
                Result.map ignore (Mvcc.update m tx ~page ~slot data)
            | Session.Insert { page; data } -> Result.map ignore (Mvcc.insert m tx ~page data)
            | Session.Delete { page; slot } -> Result.map ignore (Mvcc.delete m tx ~page ~slot)
          in
          match r with
          | Ok () -> ()
          | Error (Mvcc.Engine_error (Engine.No_such_slot | Engine.Page_full)) -> ()
          | Error e -> Alcotest.failf "serial replay: %s" (Mvcc.error_to_string e))
        ops;
      if aborting then begin ok_m (Mvcc.abort m tx); incr aborted end
      else begin ok_m (Mvcc.commit m tx); ok_m (Mvcc.flush m); incr committed end;
      List.iter
        (fun (page, slot) ->
          Buffer.add_string trace
            (match ok_m (Mvcc.read_committed m ~page ~slot) with
            | None -> "-;"
            | Some bs -> Bytes.to_string bs ^ ";"))
        reads)
    plans;
  let state =
    Array.to_list pids
    |> List.concat_map (fun page ->
           List.init 8 (fun slot ->
               match ok_m (Mvcc.read_committed m ~page ~slot) with
               | None -> "-"
               | Some bs -> Bytes.to_string bs))
  in
  Alcotest.(check int) "committed" !committed o1.Session.committed;
  Alcotest.(check int) "aborted" !aborted o1.Session.aborted;
  Alcotest.(check string) "read trace" (Buffer.contents trace) t1;
  Alcotest.(check string) "final state" (String.concat "|" state) s1

let test_session_batching () =
  (* Many sessions, group window = sessions: commits batch, and the
     all-parked rotation settles partial batches, so every commit is
     flushed by the end. *)
  let _, m = mk () in
  let pids = seed m ~pages:2 ~slots:4 in
  let plans = make_plans (lcg 3) ~plans:32 ~pages:pids ~slots:6 in
  let outcome = Session.run ~sessions:8 ~plans (Mvcc.engine m) in
  let s = outcome.Session.mvcc in
  Alcotest.(check bool) "commits batched" true (s.Mvcc.max_batch > 1);
  Alcotest.(check bool) "fewer barriers than commits" true
    (s.Mvcc.barriers < s.Mvcc.commits);
  Alcotest.(check int) "every commit settled" s.Mvcc.commits s.Mvcc.batched_commits

(* ---------------- QCheck: interleavings ---------------- *)

(* Encoded plan: (kind, page-index, slot, payload) per op, plus the abort
   flag. Integers keep QCheck's shrinker effective: a failing interleaving
   shrinks towards fewer plans, fewer ops, smaller slots. *)
let decode_plan pages (ops, aborting) =
  let ops =
    List.map
      (fun (kind, pi, slot, payload) ->
        let page = pages.(pi mod Array.length pages) in
        match kind mod 4 with
        | 0 -> Session.Insert { page; data = Bytes.make 8 (Char.chr (65 + (payload mod 26))) }
        | 1 -> Session.Delete { page; slot = slot mod 6 }
        | _ ->
            Session.Update
              { page; slot = slot mod 6; data = Bytes.make 8 (Char.chr (97 + (payload mod 26))) })
      ops
  in
  { Session.ops; aborting; reads = [ (pages.(0), 0); (pages.(0), 1) ] }

let run_encoded ~sessions encoded =
  let _, m = mk () in
  let pids = seed m ~pages:2 ~slots:4 in
  let plans = Array.of_list (List.map (decode_plan pids) encoded) in
  let trace = Buffer.create 256 in
  let note_read v =
    Buffer.add_string trace (match v with None -> "-;" | Some bs -> Bytes.to_string bs ^ ";")
  in
  let outcome = Session.run ~note_read ~sessions ~plans (Mvcc.engine m) in
  (outcome, Buffer.contents trace)

let prop_interleaving_deterministic =
  QCheck.Test.make ~name:"any interleaving is deterministic and accounts for every plan"
    ~count:15
    QCheck.(
      pair (int_range 1 5)
        (small_list
           (pair
              (small_list (quad (int_bound 3) (int_bound 1) (int_bound 7) (int_bound 25)))
              bool)))
    (fun (sessions, encoded) ->
      QCheck.assume (List.length encoded <= 16);
      let o1, t1 = run_encoded ~sessions encoded in
      let o2, t2 = run_encoded ~sessions encoded in
      o1.Session.committed = o2.Session.committed
      && o1.Session.aborted = o2.Session.aborted
      && o1.Session.conflict_aborts = o2.Session.conflict_aborts
      && t1 = t2
      && o1.Session.committed + o1.Session.aborted + o1.Session.conflict_aborts
         = List.length encoded
      && o1.Session.mvcc.Mvcc.batched_commits = o1.Session.committed)

let () =
  Alcotest.run "txn"
    [
      ( "snapshot isolation",
        [
          Alcotest.test_case "snapshot reads" `Quick test_snapshot_read;
          Alcotest.test_case "own writes visible" `Quick test_own_writes_visible;
          Alcotest.test_case "lost update rejected" `Quick test_lost_update_rejected;
          Alcotest.test_case "write skew allowed" `Quick test_write_skew_allowed;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "batching counters" `Quick test_group_commit_batching;
          Alcotest.test_case "one window, two entry points" `Quick
            test_one_window_two_entry_points;
          Alcotest.test_case "version GC" `Quick test_version_gc;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "determinism" `Quick test_session_determinism;
          Alcotest.test_case "one session = serial" `Quick test_single_session_is_serial;
          Alcotest.test_case "batching" `Quick test_session_batching;
          QCheck_alcotest.to_alcotest prop_interleaving_deterministic;
        ] );
    ]

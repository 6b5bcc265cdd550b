(* Instrumented end-to-end benchmark: run one deterministic OLTP-style
   workload on the real IPL engine with the observability layer installed,
   then replay the physical page traffic it generated on the two
   conventional flash designs (sequential-logging and in-place). The
   result is one schema-stable JSON document (BENCH_ipl.json) holding
   per-operation latency histograms and merge/overflow/wear summaries for
   all three backends — the data behind the paper's Figure 8 style
   "where does the time go" discussion. *)

module Chip = Flash_sim.Flash_chip
module Dev = Device.Flash_device
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Json = Ipl_util.Json
module Rng = Ipl_util.Rng
module Session = Ipl_txn.Session

type spec = {
  seed : int;
  transactions : int;
  pages : int;
  slots_per_page : int;
  payload : int;
  abort_fraction : float;
  reads_per_txn : int;
  buffer_pages : int;
  compact_every : int;
  num_blocks : int;
  spare_blocks : int;
  log_cache_bytes : int;
  channels : int;
  ways : int;
  sessions : int;  (* 0: serial engine loop; N > 0: N MVCC client sessions *)
}

let default =
  {
    seed = 42;
    transactions = 400;
    pages = 96;
    slots_per_page = 8;
    payload = 48;
    abort_fraction = 0.15;
    reads_per_txn = 24;
    buffer_pages = 32;
    compact_every = 50;
    num_blocks = 64;
    spare_blocks = 0;
    log_cache_bytes = Config.default.Config.log_cache_bytes;
    channels = 1;
    ways = 1;
    sessions = 0;
  }

let quick = { default with transactions = 120 }

type concurrency = {
  sessions : int;
  committed : int;
  aborted : int;
  conflict_aborts : int;
  conflicts : int;
  commit_batches : int;
  batched_commits : int;
  max_commit_batch : int;
  throughput_tps : float;
  per_session : Session.session_stats list;
}

type t = {
  spec : spec;
  engine : Engine.t;
  tracer : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
  concurrency : concurrency;
  json : Json.t;
}

let schema_version = "ipl-bench/1"

(* Ring sized so a default-spec run keeps every event, including the
   per-sector chip events and the cache hit/miss stream of the read
   phase (the test asserts [dropped = 0]). *)
let tracer_capacity spec = (spec.transactions * 192) + (16 * 1024)

let engine_config spec =
  {
    Config.default with
    Config.buffer_pages = spec.buffer_pages;
    spare_blocks = spec.spare_blocks;
    log_cache_bytes = spec.log_cache_bytes;
    channels = spec.channels;
    ways = spec.ways;
  }

(* [elapsed] is the simulated clock to charge the operation against —
   the device makespan for the IPL engine, the chip clock for the serial
   baselines. *)
let timed elapsed latency f =
  let t0 = elapsed () in
  let r = f () in
  Obs.Metrics.Latency.observe latency (elapsed () -. t0);
  r

(* The benchmark drives the engine through its typed-error surface; any
   engine error here means the fixture is broken (the spec never wears
   the device out), so escalate as a plain failure. *)
let ok = function
  | Ok v -> v
  | Error e -> failwith ("Obs_bench: engine error: " ^ Engine.error_to_string e)

(* The replay backends (and engine construction) drive chips directly; a
   device fault there, or a page rebuild whose records do not apply,
   aborts the benchmark as a plain failure instead of leaking a contract
   exception to the caller. *)
let fatal f =
  try f () with
  | ( Chip.Read_error _ | Chip.Program_error _ | Chip.Erase_error _
    | Resilience.Bbm.Degraded | Resilience.Bbm.Uncorrectable _ ) as e ->
      failwith ("Obs_bench: device fault: " ^ Printexc.to_string e)
  | Ipl_core.Log_record.Replay_failed _ as e -> failwith ("Obs_bench: " ^ Printexc.to_string e)

(* The same OLTP-ish mix as the fault campaign (55% update / 30% insert /
   15% delete in 1-4-op transactions, a slice of them aborted), plus a
   read phase after every transaction — the read-heavy traffic the
   log-record cache exists for. Seeded so every run of the same spec
   produces the same event stream. Live slots are tracked so
   updates/deletes mostly hit real records.

   Read results (and the commit/abort tally) are folded into a CRC-32
   digest: the workload's logical outcome, which must be identical for
   every device geometry running the same spec.

   Returns wall-clock seconds per phase and the digest. Wall time comes
   from {!Ipl_util.Clock} (monotonic host time — the one measurement
   here that is {e not} simulated and so not machine-independent). *)
let run_workload spec engine tracer metrics =
  let dev = Engine.device engine in
  let elapsed () = Dev.elapsed dev in
  Engine.set_tracer engine (Some tracer);
  let wall = Ipl_util.Clock.now_s in
  let digest = ref 0 in
  let fold_digest b = digest := Ipl_util.Checksum.crc32 ~init:!digest b ~pos:0 ~len:(Bytes.length b) in
  let note_read = function
    | Some b -> fold_digest b
    | None -> fold_digest (Bytes.of_string "\xff")
  in
  let wall0 = wall () in
  let reads_s = ref 0.0 in
  let lat name = Obs.Metrics.latency metrics ("op." ^ name) in
  let l_insert = lat "insert"
  and l_update = lat "update"
  and l_delete = lat "delete"
  and l_read = lat "read"
  and l_commit = lat "commit" in
  let c_abort = Obs.Metrics.counter metrics "txn.aborts"
  and c_commit = Obs.Metrics.counter metrics "txn.commits" in
  let rng = Rng.of_int spec.seed in
  let bytes_of len = Bytes.of_string (Rng.alpha_string rng ~min:len ~max:len) in
  let pages = Array.init spec.pages (fun _ -> ok (Engine.allocate_page engine)) in
  let live = Hashtbl.create (spec.pages * spec.slots_per_page) in
  (* Seed every page with an initial set of records. *)
  let tx = ok (Engine.begin_txn engine) in
  Array.iter
    (fun p ->
      for _ = 1 to spec.slots_per_page do
        match Engine.insert engine ~tx ~page:p (bytes_of spec.payload) with
        | Ok slot -> Hashtbl.replace live (p, slot) ()
        | Error e -> failwith ("Obs_bench: setup insert: " ^ Engine.error_to_string e)
      done)
    pages;
  ok (Engine.commit engine tx);
  ok (Engine.checkpoint engine);
  let setup_s = wall () -. wall0 in
  (* Draw every transaction's parameters up front — in exactly the order
     the serial loop drew them, so the RNG stream (and hence the logical
     workload and its digest) is unchanged. Having the whole schedule in
     hand lets the loop software-pipeline across transactions: txn
     [n+1]'s write-set prefetch is submitted before txn [n]'s commit, so
     the commit's durability wait and the next transaction's cold misses
     overlap on the channels. *)
  let plans =
    Array.init spec.transactions (fun _ ->
        let nops = 1 + Rng.int rng 4 in
        let ops =
          List.init nops (fun _ ->
              let page = pages.(Rng.int rng (Array.length pages)) in
              let slot = Rng.int rng (spec.slots_per_page * 2) in
              let r = Rng.float rng 1.0 in
              if r < 0.55 then
                let len =
                  if Rng.chance rng 0.25 then 1 + Rng.int rng (2 * spec.payload)
                  else spec.payload
                in
                Session.Update { page; slot; data = bytes_of len }
              else if r < 0.85 then Session.Insert { page; data = bytes_of spec.payload }
              else Session.Delete { page; slot })
        in
        let aborting = Rng.chance rng spec.abort_fraction in
        let reads =
          List.init spec.reads_per_txn (fun _ ->
              let page = pages.(Rng.int rng (Array.length pages)) in
              let slot = Rng.int rng (spec.slots_per_page * 2) in
              (page, slot))
        in
        { Session.ops; aborting; reads })
  in
  let run_serial () =
    let write_set ops =
      List.map
        (function
          | Session.Update { page; _ } | Session.Insert { page; _ } | Session.Delete { page; _ }
            ->
              page)
        ops
    in
    let start_ws n =
      if n < spec.transactions then
        Some (ok (Engine.prefetch_start engine (write_set plans.(n).Session.ops)))
      else None
    in
    (* In-flight prefetch of the NEXT transaction's write set. *)
    let next_ws = ref (start_ws 0) in
    for n = 1 to spec.transactions do
      let { Session.ops; aborting; reads } = plans.(n - 1) in
      let tx = ok (Engine.begin_txn engine) in
      (match !next_ws with
      | Some tok -> ok (Engine.prefetch_finish engine tok)
      | None -> ());
      next_ws := None;
      (* Submit the read phase's fetches now, before the mutations: their
         flash latency overlaps the whole transaction body and the commit
         barrier. Pages in this transaction's write set are excluded — a
         snapshot of a page the transaction is about to modify could go
         stale if the frame were evicted mid-transaction; those pages are
         resident by read time anyway. Untouched pages cannot change
         logical content while the transaction runs (merges preserve it),
         so the early snapshot equals the serial read. *)
      let ws = write_set ops in
      let rd_token =
        ok
          (Engine.prefetch_start engine
             (List.filter (fun p -> not (List.mem p ws)) (List.map fst reads)))
      in
      List.iter
        (function
          | Session.Update { page; slot; data } -> (
              match
                timed elapsed l_update (fun () -> Engine.update engine ~tx ~page ~slot data)
              with
              | Ok () -> ()
              | Error _ -> ())
          | Session.Insert { page; data } -> (
              match timed elapsed l_insert (fun () -> Engine.insert engine ~tx ~page data) with
              | Ok slot -> Hashtbl.replace live (page, slot) ()
              | Error _ -> ())
          | Session.Delete { page; slot } -> (
              match timed elapsed l_delete (fun () -> Engine.delete engine ~tx ~page ~slot) with
              | Ok () -> Hashtbl.remove live (page, slot)
              | Error _ -> ()))
        ops;
      (* On the commit path this transaction's reads and the next
         transaction's write set are submitted {e before} the commit: its
         durability barrier promotes the log programs past the queued
         reads (deadline promotion) and the read latency is absorbed while
         the host sits at the barrier anyway. A non-resident page has no
         unflushed records and prefetch snapshots image + log records
         together, so the captured contents — and the digest — are
         identical to the serial path. An aborting transaction prefetches
         after the abort (its rolled-back records must not be baked into
         frames). *)
      (if aborting then begin
         ok (Engine.abort engine tx);
         Obs.Metrics.Counter.incr c_abort;
         (* The early token only holds untouched pages, whose captured
            snapshots are unaffected by the rollback; the rolled-back
            write-set pages were rebuilt in place by the abort. *)
         ok (Engine.prefetch_finish engine rd_token);
         next_ws := start_ws n
       end
       else begin
         next_ws := start_ws n;
         timed elapsed l_commit (fun () -> ok (Engine.commit engine tx));
         Obs.Metrics.Counter.incr c_commit;
         ok (Engine.prefetch_finish engine rd_token)
       end);
      let r0 = wall () in
      List.iter
        (fun (page, slot) ->
          note_read (timed elapsed l_read (fun () -> ok (Engine.read engine ~page ~slot))))
        reads;
      reads_s := !reads_s +. (wall () -. r0);
      if spec.compact_every > 0 && n mod spec.compact_every = 0 then
        ignore (ok (Engine.compact engine ~max_merges:1) : int)
    done;
    ok (Engine.checkpoint engine)
  in
  let sim0 = Dev.elapsed dev in
  let conc0 =
    if spec.sessions > 0 then begin
      (* Concurrent serving: the identical pre-drawn plans (same RNG
         stream, same logical workload) run through the MVCC session
         front-end instead of the serial loop. One session reproduces the
         serial operation order — and hence the digest — exactly; more
         sessions interleave round-robin, so commits coalesce into group
         batches and write-write conflicts become possible. *)
      let o =
        Session.run ~compact_every:spec.compact_every
          ~observe:(function Session.Read v -> note_read v | _ -> ())
          ~sessions:spec.sessions ~plans engine
      in
      ok (Engine.checkpoint engine);
      Obs.Metrics.Counter.add c_commit o.Session.committed;
      Obs.Metrics.Counter.add c_abort
        (o.Session.aborted + o.Session.conflict_aborts);
      let st = o.Session.mvcc in
      {
        sessions = spec.sessions;
        committed = o.Session.committed;
        aborted = o.Session.aborted;
        conflict_aborts = o.Session.conflict_aborts;
        conflicts = st.Ipl_txn.Mvcc.conflicts;
        commit_batches = st.Ipl_txn.Mvcc.barriers;
        batched_commits = st.Ipl_txn.Mvcc.batched_commits;
        max_commit_batch = st.Ipl_txn.Mvcc.max_batch;
        throughput_tps = 0.0;
        per_session = o.Session.per_session;
      }
    end
    else begin
      run_serial ();
      let commits = Obs.Metrics.Counter.value c_commit in
      {
        sessions = 0;
        committed = commits;
        aborted = Obs.Metrics.Counter.value c_abort;
        conflict_aborts = 0;
        conflicts = 0;
        (* Every serial commit forces its own barrier: batch size 1. *)
        commit_batches = commits;
        batched_commits = commits;
        max_commit_batch = (if commits > 0 then 1 else 0);
        throughput_tps = 0.0;
        per_session = [];
      }
    end
  in
  (* Fold the commit/abort tally into the digest so a geometry that
     changed transaction outcomes (it must not) cannot go unnoticed. *)
  fold_digest
    (Bytes.of_string
       (Printf.sprintf "commits=%d aborts=%d"
          (Obs.Metrics.Counter.value c_commit)
          (Obs.Metrics.Counter.value c_abort)));
  let sim_s = Dev.elapsed dev -. sim0 in
  let conc =
    {
      conc0 with
      throughput_tps =
        (if sim_s > 0.0 then float_of_int conc0.committed /. sim_s else 0.0);
    }
  in
  let total_s = wall () -. wall0 in
  ( [
      ("setup", setup_s);
      ("mutations", total_s -. setup_s -. !reads_s);
      ("reads", !reads_s);
      ("workload_total", total_s);
    ],
    !digest,
    conc )

(* The physical page traffic of the IPL run, as a conventional design
   would see it: every dirty frame the buffer pool cleans is a page the
   conventional design must rewrite (IPL packs several such frames' log
   records into one sector, a conventional design cannot); every
   storage-level page fetch is a page it must read. Replayed in trace
   order. *)
let page_stream tracer =
  List.rev
    (Obs.Tracer.fold
       (fun acc (e : Obs.Tracer.entry) ->
         match e.event with
         | Obs.Event.Write_back { page } -> `Write page :: acc
         | Obs.Event.Page_read { page; _ } -> `Read page :: acc
         | _ -> acc)
       tracer [])

let replay_conventional spec stream ~create ~format ~write ~read ~num_pages ~store_json =
  let chip = Chip.create (FConfig.default ~num_blocks:spec.num_blocks ()) in
  let page_size = Config.default.Config.page_size in
  let store = create chip ~page_size in
  format store;
  let metrics = Obs.Metrics.create () in
  let l_write = Obs.Metrics.latency metrics "op.write_page"
  and l_read = Obs.Metrics.latency metrics "op.read_page" in
  let n = num_pages store in
  List.iter
    (fun op ->
      match op with
      | `Write page -> timed (fun () -> Chip.elapsed chip) l_write (fun () -> write store (page mod n))
      | `Read page -> timed (fun () -> Chip.elapsed chip) l_read (fun () -> read store (page mod n)))
    stream;
  let ops =
    Json.Obj
      [
        ("write_page", Obs.Metrics.Latency.to_json l_write);
        ("read_page", Obs.Metrics.Latency.to_json l_read);
      ]
  in
  (ops, store_json store, FStats.to_json (Chip.stats chip))

let lfs_backend spec stream =
  let ops, store, flash =
    replay_conventional spec stream
      ~create:(fun chip ~page_size -> Baseline.Lfs_store.create chip ~page_size)
      ~format:Baseline.Lfs_store.format
      ~write:Baseline.Lfs_store.write_page ~read:Baseline.Lfs_store.read_page
      ~num_pages:Baseline.Lfs_store.num_pages
      ~store_json:(fun s ->
        let st = Baseline.Lfs_store.stats s in
        Json.Obj
          [
            ("page_writes", Json.Int st.Baseline.Lfs_store.page_writes);
            ("page_reads", Json.Int st.Baseline.Lfs_store.page_reads);
            ("gc_runs", Json.Int st.Baseline.Lfs_store.gc_runs);
            ("gc_page_moves", Json.Int st.Baseline.Lfs_store.gc_page_moves);
            ("erases", Json.Int st.Baseline.Lfs_store.erases);
          ])
  in
  Json.Obj [ ("name", Json.String "lfs"); ("ops", ops); ("store", store); ("flash", flash) ]

let inplace_backend spec stream =
  let ops, store, flash =
    replay_conventional spec stream ~create:Baseline.Inplace_store.create
      ~format:Baseline.Inplace_store.format
      ~write:Baseline.Inplace_store.write_page ~read:Baseline.Inplace_store.read_page
      ~num_pages:Baseline.Inplace_store.num_pages
      ~store_json:(fun s ->
        let st = Baseline.Inplace_store.stats s in
        Json.Obj
          [
            ("page_writes", Json.Int st.Baseline.Inplace_store.page_writes);
            ("page_reads", Json.Int st.Baseline.Inplace_store.page_reads);
            ("erases", Json.Int st.Baseline.Inplace_store.erases);
          ])
  in
  Json.Obj [ ("name", Json.String "inplace"); ("ops", ops); ("store", store); ("flash", flash) ]

let event_counts tracer =
  let tbl = Hashtbl.create 16 in
  Obs.Tracer.iter
    (fun (e : Obs.Tracer.entry) ->
      let k = Obs.Event.kind e.event in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    tracer;
  List.filter_map
    (fun k -> Option.map (fun n -> (k, Json.Int n)) (Hashtbl.find_opt tbl k))
    Obs.Event.kinds

let workload_json spec =
  Json.Obj
    [
      ("seed", Json.Int spec.seed);
      ("transactions", Json.Int spec.transactions);
      ("pages", Json.Int spec.pages);
      ("slots_per_page", Json.Int spec.slots_per_page);
      ("payload", Json.Int spec.payload);
      ("abort_fraction", Json.Float spec.abort_fraction);
      ("reads_per_txn", Json.Int spec.reads_per_txn);
      ("buffer_pages", Json.Int spec.buffer_pages);
      ("compact_every", Json.Int spec.compact_every);
      ("num_blocks", Json.Int spec.num_blocks);
      ("spare_blocks", Json.Int spec.spare_blocks);
      ("log_cache_bytes", Json.Int spec.log_cache_bytes);
      ("channels", Json.Int spec.channels);
      ("ways", Json.Int spec.ways);
      ("sessions", Json.Int spec.sessions);
    ]

(* Nearest-rank quantile over an ascending array: the smallest element
   with at least [q] of the mass at or below it. Exact (no
   interpolation), so the reported percentiles are values that actually
   occurred. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let latency_summary_json latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let n = Array.length a in
  let mean = if n > 0 then Array.fold_left ( +. ) 0.0 a /. float_of_int n else 0.0 in
  [
    ("count", Json.Int n);
    ("mean_s", Json.Float mean);
    ("p50_s", Json.Float (quantile a 0.50));
    ("p90_s", Json.Float (quantile a 0.90));
    ("p99_s", Json.Float (quantile a 0.99));
  ]

(* A serial run has no group commit, no conflicts and no per-session
   clients: reporting batch counters or a throughput for it misleads
   (they are artifacts of the one-barrier-per-commit bookkeeping), so
   the serial document says so explicitly and carries only the tallies
   that mean what they say. Session runs keep the full accounting plus
   begin->durable commit-latency percentiles in simulated seconds —
   deterministic, so byte-identical across job counts. *)
let concurrency_json c =
  if c.sessions = 0 then
    Json.Obj
      [
        ("mode", Json.String "serial");
        ("sessions", Json.Int 0);
        ("committed", Json.Int c.committed);
        ("aborted", Json.Int c.aborted);
      ]
  else
    let mean =
      if c.commit_batches > 0 then
        float_of_int c.batched_commits /. float_of_int c.commit_batches
      else 0.0
    in
    let all =
      List.concat_map
        (fun (s : Session.session_stats) -> s.Session.sim_latencies)
        c.per_session
    in
    Json.Obj
      [
        ("mode", Json.String "sessions");
        ("sessions", Json.Int c.sessions);
        ("committed", Json.Int c.committed);
        ("aborted", Json.Int c.aborted);
        ("conflict_aborts", Json.Int c.conflict_aborts);
        ("conflicts", Json.Int c.conflicts);
        ("commit_batches", Json.Int c.commit_batches);
        ("batched_commits", Json.Int c.batched_commits);
        ("mean_commit_batch", Json.Float mean);
        ("max_commit_batch", Json.Int c.max_commit_batch);
        ("throughput_tps", Json.Float c.throughput_tps);
        ("commit_latency", Json.Obj (latency_summary_json all));
        ( "per_session",
          Json.List
            (List.map
               (fun (s : Session.session_stats) ->
                 Json.Obj
                   (("session", Json.Int s.Session.session)
                   :: ("commits", Json.Int s.Session.commits)
                   :: latency_summary_json s.Session.sim_latencies))
               c.per_session) );
      ]

let ipl_backend engine metrics =
  let ops =
    Json.Obj
      (List.filter_map
         (fun name ->
           match Obs.Metrics.find metrics ("op." ^ name) with
           | Some (`Histogram h) -> Some (name, Obs.Metrics.Latency.to_json h)
           | _ -> None)
         [ "insert"; "update"; "delete"; "read"; "commit" ])
  in
  (* The combined Stats module already renders the storage/pool/flash
     summaries; splice them in next to the latency histograms. *)
  let layers =
    match Engine.Stats.to_json (Engine.stats engine) with
    | Json.Obj fields -> fields
    | other -> [ ("stats", other) ]
  in
  Json.Obj (("name", Json.String "ipl") :: ("ops", ops) :: layers)

let run ?(spec = default) ?(jobs = 1) () =
  Par.Domain_pool.with_pool ~jobs @@ fun pool ->
  let dev =
    Dev.create ~queue_depth:(engine_config spec).Config.queue_depth
      ~channels:spec.channels ~ways:spec.ways
      (FConfig.default ~num_blocks:spec.num_blocks ())
  in
  let engine = fatal (fun () -> Engine.create_device ~config:(engine_config spec) dev) in
  let tracer = Obs.Tracer.create ~capacity:(tracer_capacity spec) () in
  let metrics = Obs.Metrics.create () in
  let phases, logical_digest, conc = run_workload spec engine tracer metrics in
  let replay0 = Ipl_util.Clock.now_s () in
  let stream = page_stream tracer in
  let trace_summary =
    Json.Obj
      [
        ("emitted", Json.Int (Obs.Tracer.emitted tracer));
        ("dropped", Json.Int (Obs.Tracer.dropped tracer));
        ("events", Json.Obj (event_counts tracer));
      ]
  in
  (* The two conventional replays run on the pool — each drives its own
     private chip over the same trace, so they are independent; the IPL
     backend reads the live engine and stays on this domain. *)
  let backends =
    fatal (fun () ->
        let ipl = ipl_backend engine metrics in
        let replays =
          Par.Domain_pool.parallel_map pool
            (fun backend -> backend spec stream)
            [| lfs_backend; inplace_backend |]
        in
        ipl :: Array.to_list replays)
  in
  let replay_s = Ipl_util.Clock.now_s () -. replay0 in
  (* Wall-clock phase timings (host ns — the only machine-dependent
     numbers in the document) next to the cache counters that explain
     them. Everything else in the document is simulated time. *)
  let wall_clock =
    let ns s = Json.Int (int_of_float (s *. 1e9)) in
    let st = (Engine.stats engine).Engine.storage in
    Json.Obj
      (List.map (fun (k, s) -> (k, ns s)) phases
      @ [
          ("replay", ns replay_s);
          ( "cache",
            Json.Obj
              [
                ("hits", Json.Int st.Ipl_core.Ipl_storage.log_cache_hits);
                ("misses", Json.Int st.Ipl_core.Ipl_storage.log_cache_misses);
                ("evictions", Json.Int st.Ipl_core.Ipl_storage.log_cache_evictions);
              ] );
          (* Commit-batch and conflict counters: what the host time above
             was (or was not) spent waiting on — each batch is one
             durability barrier, so fewer batches than commits is the
             group-commit win. *)
          ("commit_batches", Json.Int conc.commit_batches);
          ( "mean_commit_batch",
            Json.Float
              (if conc.commit_batches > 0 then
                 float_of_int conc.batched_commits /. float_of_int conc.commit_batches
               else 0.0) );
          ("max_commit_batch", Json.Int conc.max_commit_batch);
          ("conflict_aborts", Json.Int conc.conflict_aborts);
          (* Host-side parallelism of this run — machine-dependent by
             definition, so it lives here and nowhere else: every other
             section must be byte-identical across job counts. *)
          ("jobs", Json.Int jobs);
          ( "session_commit_wait",
            ns
              (List.fold_left
                 (fun acc (s : Session.session_stats) ->
                   acc +. s.Session.host_latency_s)
                 0.0 conc.per_session) );
        ])
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String schema_version);
        ("workload", workload_json spec);
        ("logical_digest", Json.String (Printf.sprintf "%08x" logical_digest));
        ("device", Dev.to_json dev);
        ("trace", trace_summary);
        ("wall_clock", wall_clock);
        ("concurrency", concurrency_json conc);
        ("backends", Json.List backends);
      ]
  in
  { spec; engine; tracer; metrics; concurrency = conc; json }

let write_json ?(extra = []) path t =
  let doc =
    match (extra, t.json) with
    | [], j -> j
    | fields, Json.Obj base -> Json.Obj (base @ fields)
    | fields, j -> Json.Obj (("document", j) :: fields)
  in
  Obs.Export.to_file path (Json.to_string doc ^ "\n")

(* read-mostly: one closed-loop client calling Ipl_engine directly on a
   1 x 1 chip. Each transaction makes 16 uniform point reads; one in
   eight also rewrites the tail of one record and commits, durably, at
   once. The database is ten times the buffer pool, so most reads fetch
   a stored image and replay its log records, which the log-record cache
   should serve without touching the flash log region. *)

module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Rng = Ipl_util.Rng

let pages = 640
let buffer_pages = 64
let slots = 40
let payload = 120
let tail = 24
let reads_per_txn = 16
let update_one_in = 8
let compact_every = 32
let num_blocks = 128
let warmup_txns = 3000
let window_txns = 30000
let chunk = 1000

let run (o : Round.overrides) ~seed ~(probe : Probe.t) : Round.t =
  let rng = Rng.of_int seed in
  let sp_read = Probe.span probe "engine.read"
  and sp_begin = Probe.span probe "engine.begin"
  and sp_update = Probe.span probe "engine.update"
  and sp_commit = Probe.span probe "engine.commit"
  and sp_compact = Probe.span probe "engine.compact" in
  let h0 = Probe.now_s () in
  let config = Round.config o ~buffer_pages ~channels:1 ~ways:1 in
  let dev = Round.device config ~num_blocks in
  let engine = Engine.create_device ~config dev in
  probe.sim <- (fun () -> Engine.elapsed engine);
  let model = Model.create () in
  let page_ids =
    Array.init pages (fun p ->
        let pg = Storage.Page.create config.Config.page_size in
        let crcs =
          List.init slots (fun _ ->
              let b = Model.payload ~size:payload ~tail rng ~page:p in
              ignore (Option.get (Storage.Page.insert pg b) : int);
              Model.crc b)
        in
        let pid = Round.ok "load" (Engine.allocate_page_with engine pg) in
        assert (pid = p);
        List.iteri (fun slot c -> Model.load model (Model.loc ~page:pid ~slot) c ~payload) crcs;
        pid)
  in
  Round.ok "checkpoint" (Engine.checkpoint engine);
  let locs = Array.init (pages * slots) (fun i -> Model.loc ~page:(i / slots) ~slot:(i mod slots)) in
  let nlocs = Array.length locs in
  let latencies = Lat.create () in
  let bytes_read = ref 0 and bytes_written = ref 0 and failures = ref [] in
  let txn i =
    let reads = Array.init reads_per_txn (fun _ -> locs.(Rng.int rng nlocs)) in
    let upd =
      if Rng.int rng update_one_in = 0 then
        let l = locs.(Rng.int rng nlocs) in
        Some (l, Model.payload ~size:payload ~tail rng ~page:(Model.page_of l))
      else None
    in
    (* The client's transaction begins with its first read. *)
    let began = Engine.elapsed engine in
    Array.iter
      (fun l ->
        let page = Model.page_of l and slot = Model.slot_of l in
        match Probe.call probe sp_read (fun () -> Engine.read engine ~page ~slot) with
        | Ok (Some b) ->
            bytes_read := !bytes_read + Bytes.length b;
            if Model.crc b <> Model.latest model l then
              failures := Printf.sprintf "read of page %d slot %d differs from the model" page slot :: !failures
        | Ok None -> failures := Printf.sprintf "page %d slot %d missing" page slot :: !failures
        | Error e -> Round.ok "read" (Error e))
      reads;
    (match upd with
    | None -> ()
    | Some (l, data) ->
        let page = Model.page_of l and slot = Model.slot_of l in
        let tx = Round.ok "begin" (Probe.call probe sp_begin (fun () -> Engine.begin_txn engine)) in
        Round.ok "update" (Probe.call probe sp_update (fun () -> Engine.update engine ~tx ~page ~slot data));
        Round.ok "commit" (Probe.call probe sp_commit (fun () -> Engine.commit engine tx));
        Lat.add latencies (Engine.elapsed engine -. began);
        bytes_written := !bytes_written + payload;
        Model.commit model ~watermark:max_int ~payload [ (l, Model.crc data) ]);
    if (i + 1) mod compact_every = 0 then
      ignore (Round.ok "compact" (Probe.call probe sp_compact (fun () -> Engine.compact engine ~max_merges:1)) : int)
  in
  for i = 0 to warmup_txns - 1 do
    txn i
  done;
  let setup_s = Probe.now_s () -. h0 in
  Lat.clear latencies;
  bytes_read := 0;
  bytes_written := 0;
  Probe.reset probe;
  let n = window_txns in
  let before = Round.snap engine in
  for i = 0 to n - 1 do
    txn i;
    if (i + 1) mod chunk = 0 then Probe.gauge probe
  done;
  let after = Round.snap engine in
  let live_user_bytes = model.Model.live_bytes in
  let restarted, recovery =
    Round.crash_and_restart ~config dev
      ~first_txn:(Round.first_record_txn model rng ~payload ~tail ~locs)
  in
  let failures = List.rev !failures @ Round.scan_check model restarted ~pages:page_ids in
  {
    Round.setup_s;
    probe;
    attempted = n;
    committed = n;
    conflict_aborts = 0;
    latencies = Lat.to_array latencies;
    bytes_written = !bytes_written;
    bytes_read = !bytes_read;
    live_user_bytes;
    before;
    after;
    recovery;
    pages_differing = 0;
    digest = Round.model_digest model;
    heap_top_words = after.Round.gc.Gc.top_heap_words;
    failures;
  }

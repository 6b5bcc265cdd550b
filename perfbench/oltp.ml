(* oltp-sessions: write-heavy serving through the snapshot-isolation
   layer. Sixteen closed-loop clients share one Mvcc on a 4 x 2 device;
   a deterministic round-robin scheduler advances each client by one
   call per turn. A transaction is a snapshot read, 1-4 record writes
   (update, delete, or insert where the chosen record is absent), a
   second snapshot read and a commit; the client then waits until the
   group barrier has made its commit durable before starting the next
   one. Keys are zipfian over a database five times the buffer pool and
   many times the log-record cache. *)

module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Mvcc = Ipl_txn.Mvcc
module Rng = Ipl_util.Rng

let pages = 480
let buffer_pages = 96
(* Every page starts with [slots] records and the zipf universe is
   exactly those locations. An insert (made when the drawn location is
   absent) lands in the lowest free slot, which a concurrent insert may
   already hold; so inserts are made only while the page has fewer than
   [slots] committed records, which bounds its size by [slots] plus the
   other clients' in-flight inserts. *)
let slots = 40
let payload = 120
let tail = 24
let clients = 16
let group_window = 16
let compact_every = 64
let delete_share = 0.15
let theta = 0.8
let num_blocks = 128
let channels = 4
let ways = 2
let min_warmup_txns = 1000
let window_txns = 20000
let chunk = 1000

type step = Read of int | Write of int

type active = {
  tx : Mvcc.txn;
  snapshot : int;
  began : float;
  mutable steps : step list;
  mutable writes : (int * int) list;  (* own writes: loc -> crc or absent *)
  mutable wbytes : int;
}

type client = Idle | Active of active | Parked of { seq : int; began : float }

let run (o : Round.overrides) ~seed ~(probe : Probe.t) : Round.t =
  let rng = Rng.of_int seed in
  let sp_begin = Probe.span probe "txn.begin"
  and sp_read = Probe.span probe "txn.read"
  and sp_write = Probe.span probe "txn.write"
  and sp_commit = Probe.span probe "txn.commit"
  and sp_abort = Probe.span probe "txn.abort"
  and sp_flush = Probe.span probe "txn.flush"
  and sp_compact = Probe.span probe "engine.compact" in
  let h0 = Probe.now_s () in
  let config = Round.config o ~buffer_pages ~channels ~ways in
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
  let window = Option.value ~default:group_window o.Round.group_window in
  let mvcc = Mvcc.create ~group_window:window engine in
  let mvcc_ok what = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "%s: %s" what (Mvcc.error_to_string e))
  in
  let zipf = Model.zipf rng ~n:(pages * slots) ~theta in
  let draw () =
    let i = Model.draw zipf rng in
    Model.loc ~page:(i / slots) ~slot:(i mod slots)
  in
  let cl = Array.make clients Idle in
  let page_live = Array.make pages slots in
  let latencies = Lat.create () in
  let budget = ref 0 and attempted = ref 0 and committed = ref 0 and conflicts = ref 0 in
  let finished = ref 0 and flushed = ref 0 in
  let bytes_read = ref 0 and bytes_written = ref 0 and failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (* Commits made durable by the call just returned: stamp their
     begin -> durable latency on the device clock. *)
  let settle () =
    let f = Mvcc.flushed_commits mvcc in
    if f > !flushed then begin
      flushed := f;
      let now = Engine.elapsed engine in
      Array.iteri
        (fun i c ->
          match c with
          | Parked { seq; began } when seq <= f ->
              Lat.add latencies (now -. began);
              cl.(i) <- Idle
          | _ -> ())
        cl
    end
  in
  let compact_if_due () =
    incr finished;
    if !finished mod compact_every = 0 then
      ignore (mvcc_ok "compact" (Probe.call probe sp_compact (fun () -> Mvcc.compact mvcc ~max_merges:1)) : int)
  in
  let watermark () =
    Array.fold_left (fun m c -> match c with Active a -> min m a.snapshot | _ -> m) max_int cl
  in
  let abort i a =
    mvcc_ok "abort" (Probe.call probe sp_abort (fun () -> Mvcc.abort mvcc a.tx));
    incr conflicts;
    cl.(i) <- Idle;
    compact_if_due ()
  in
  let present a l =
    match List.assoc_opt l a.writes with Some v -> v <> Model.absent | None -> Model.latest model l <> Model.absent
  in
  let expected a l =
    match List.assoc_opt l a.writes with Some v -> v | None -> Model.at model l ~snapshot:a.snapshot
  in
  let write i a l =
    let page = Model.page_of l and slot = Model.slot_of l in
    let roll = Rng.float rng 1.0 in
    let r =
      if present a l then
        if roll < delete_share then
          Result.map
            (fun () -> (slot, Model.absent))
            (Probe.call probe sp_write (fun () -> Mvcc.delete mvcc a.tx ~page ~slot))
        else begin
          let data = Model.payload ~size:payload ~tail rng ~page in
          Result.map
            (fun () -> (slot, Model.crc data))
            (Probe.call probe sp_write (fun () -> Mvcc.update mvcc a.tx ~page ~slot data))
        end
      else if page_live.(page) >= slots then Ok (-1, Model.absent) (* page full: no write *)
      else begin
        let data = Model.payload ~size:payload ~tail rng ~page in
        Result.map
          (fun s -> (s, Model.crc data))
          (Probe.call probe sp_write (fun () -> Mvcc.insert mvcc a.tx ~page data))
      end
    in
    match r with
    | Ok (-1, _) -> ()
    | Ok (s, v) ->
        let l = Model.loc ~page ~slot:s in
        a.writes <- (l, v) :: List.remove_assoc l a.writes;
        if v <> Model.absent then a.wbytes <- a.wbytes + payload
    | Error (Mvcc.Conflict _) -> abort i a
    | Error e -> mvcc_ok "write" (Error e)
  in
  let read a l =
    let page = Model.page_of l and slot = Model.slot_of l in
    match mvcc_ok "read" (Probe.call probe sp_read (fun () -> Mvcc.read mvcc a.tx ~page ~slot)) with
    | Some b ->
        bytes_read := !bytes_read + Bytes.length b;
        if Model.crc b <> expected a l then
          fail (Printf.sprintf "snapshot read of page %d slot %d differs from the model" page slot)
    | None ->
        if expected a l <> Model.absent then
          fail (Printf.sprintf "snapshot read of page %d slot %d found nothing" page slot)
  in
  let commit i a =
    mvcc_ok "commit" (Probe.call probe sp_commit (fun () -> Mvcc.commit mvcc a.tx));
    cl.(i) <- Idle;
    List.iter
      (fun (l, v) ->
        let p = Model.page_of l in
        match (Model.latest model l = Model.absent, v = Model.absent) with
        | true, false -> page_live.(p) <- page_live.(p) + 1
        | false, true -> page_live.(p) <- page_live.(p) - 1
        | _ -> ())
      a.writes;
    Model.commit model ~watermark:(watermark ()) ~payload (List.rev a.writes);
    cl.(i) <- Parked { seq = model.Model.ts; began = a.began };
    incr committed;
    bytes_written := !bytes_written + a.wbytes;
    settle ();
    compact_if_due ()
  in
  (* One call of client [i]; false when it had nothing to do. *)
  let step i =
    match cl.(i) with
    | Parked _ -> false
    | Idle ->
        if !budget = 0 then false
        else begin
          decr budget;
          incr attempted;
          if !attempted mod chunk = 0 then Probe.gauge probe;
          let writes = List.init (1 + Rng.int rng 4) (fun _ -> Write (draw ())) in
          let steps = (Read (draw ()) :: writes) @ [ Read (draw ()) ] in
          let began = Engine.elapsed engine in
          let tx = mvcc_ok "begin" (Probe.call probe sp_begin (fun () -> Mvcc.begin_txn mvcc)) in
          cl.(i) <- Active { tx; snapshot = model.Model.ts; began; steps; writes = []; wbytes = 0 };
          true
        end
    | Active a ->
        (match a.steps with
        | [] -> commit i a
        | Read l :: rest ->
            a.steps <- rest;
            read a l
        | Write l :: rest ->
            a.steps <- rest;
            write i a l);
        true
  in
  let flush () =
    mvcc_ok "flush" (Probe.call probe sp_flush (fun () -> Mvcc.flush mvcc));
    settle ()
  in
  (* Run until [n] transactions have been started and all have finished
     durably; [stop] may end the phase early between rotations. *)
  let run_phase ?(stop = fun () -> false) n =
    budget := n;
    let continue = ref true in
    while !continue do
      let progress = ref false in
      for i = 0 to clients - 1 do
        if step i then progress := true
      done;
      if stop () then budget := 0;
      if not !progress then
        if Mvcc.pending mvcc > 0 then flush () else continue := false
    done
  in
  let data_eus = (pages + 14) / 15 in
  let merges () = (Engine.stats engine).Engine.storage.Ipl_core.Ipl_storage.merges in
  run_phase max_int ~stop:(fun () -> !attempted >= min_warmup_txns && merges () >= data_eus);
  let setup_s = Probe.now_s () -. h0 in
  Lat.clear latencies;
  attempted := 0;
  committed := 0;
  conflicts := 0;
  bytes_read := 0;
  bytes_written := 0;
  Probe.reset probe;
  let n = window_txns in
  let before = Round.snap ~mvcc:(Mvcc.stats mvcc) engine in
  run_phase n;
  let after = Round.snap ~mvcc:(Mvcc.stats mvcc) engine in
  if !attempted <> !committed + !conflicts then fail "transactions left unfinished";
  let live_user_bytes = model.Model.live_bytes in
  let locs = Array.of_list (Model.fold_live (fun l _ acc -> l :: acc) model []) in
  Array.sort compare locs;
  let restarted, recovery =
    Round.crash_and_restart ~config dev
      ~first_txn:(Round.first_record_txn model rng ~payload ~tail ~locs)
  in
  let failures = List.rev !failures @ Round.scan_check model restarted ~pages:page_ids in
  {
    Round.setup_s;
    probe;
    attempted = !attempted;
    committed = !committed;
    conflict_aborts = !conflicts;
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

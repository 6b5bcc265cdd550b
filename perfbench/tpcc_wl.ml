(* tpcc: the paper's workload, run serially on a 1 x 1 chip with
   per-commit durability. The benchmark's own seeded schedule picks each
   transaction from the 45/43/4/4/4 mix and calls it from Tpcc_txn over
   [Store], a timing wrapper of Tpcc_engine_store that also logs what
   every store call returned; the log is checked against the harness's
   model (table key -> CRC of the row) after the transaction returns,
   outside the timed span. One warehouse, sized so the whole database
   stays in the buffer pool. *)

module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Es = Tpcc.Tpcc_engine_store
module Schema = Tpcc.Tpcc_schema
module Record = Storage.Record
module Rng = Ipl_util.Rng

let sizing = { Tpcc.Tpcc_txn.warehouses = 1; districts = 10; customers = 30; items = 500; orders = 30 }
let num_blocks = 256
let warmup_txns = 100
let window_txns = 2400
let chunk = 100

let table_index = function
  | Schema.Warehouse -> 0
  | District -> 1
  | Customer -> 2
  | History -> 3
  | New_order -> 4
  | Orders -> 5
  | Order_line -> 6
  | Item -> 7
  | Stock -> 8

let mkey tbl key = (key lsl 4) lor table_index tbl

type event =
  | Look of int * Record.t option
  | Upd of int * Record.t * Record.t
  | Ins of int * Record.t
  | Del of int * bool
  | Found of int option  (* next_key_ge: the key it returned, as a model key *)
  | Commit
  | Abort

let op_names = [ "lookup"; "update"; "insert"; "delete"; "next_key_ge"; "by_last_name" ]
let txn_names = [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]

type ctx = {
  inner : Es.t;
  probe : Probe.t;
  ops : Probe.span array;  (* indexed as [op_names] *)
  sp_begin : Probe.span;
  sp_commit : Probe.span;
  sp_abort : Probe.span;
  mutable events : event list;  (* newest first *)
}

module Store = struct
  type t = ctx
  type tx = Es.tx

  let no_txn = Es.no_txn
  let log t e = t.events <- e :: t.events
  let op t i f = Probe.sub t.probe t.ops.(i) f
  let begin_txn t = Probe.sub t.probe t.sp_begin (fun () -> Es.begin_txn t.inner)

  let commit t tx =
    Probe.sub t.probe t.sp_commit (fun () -> Es.commit t.inner tx);
    log t Commit

  let abort t tx =
    Probe.sub t.probe t.sp_abort (fun () -> Es.abort t.inner tx);
    log t Abort

  let insert t ~tx tbl ~key row =
    op t 2 (fun () -> Es.insert t.inner ~tx tbl ~key row);
    log t (Ins (mkey tbl key, row))

  let lookup t tbl ~key =
    let r = op t 0 (fun () -> Es.lookup t.inner tbl ~key) in
    log t (Look (mkey tbl key, r));
    r

  let update t ~tx tbl ~key f =
    let seen = ref None in
    let changed =
      op t 1 (fun () ->
          Es.update t.inner ~tx tbl ~key (fun row ->
              let row' = f row in
              seen := Some (row, row');
              row'))
    in
    (match !seen with Some (o, n) when changed -> log t (Upd (mkey tbl key, o, n)) | _ -> ());
    changed

  let delete t ~tx tbl ~key =
    let r = op t 3 (fun () -> Es.delete t.inner ~tx tbl ~key) in
    log t (Del (mkey tbl key, r));
    r

  let next_key_ge t tbl ~key =
    let r = op t 4 (fun () -> Es.next_key_ge t.inner tbl ~key) in
    log t (Found (Option.map (mkey tbl) r));
    r

  let customer_by_last_name t ~w ~d ~last =
    let r = op t 5 (fun () -> Es.customer_by_last_name t.inner ~w ~d ~last) in
    (match r with
    | Some (c, row) -> log t (Look (mkey Schema.Customer (Schema.customer_key ~w ~d ~c), Some row))
    | None -> ());
    r
end

module Txn = Tpcc.Tpcc_txn.Make (Store)

(* The model: model key -> (CRC, encoded size) of the committed row. *)
type model = { rows : (int, int * int) Hashtbl.t; mutable live_bytes : int }

type tally = {
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable committed_writes : bool;  (* the last transaction committed *)
  mutable failures : string list;
}

let sig_of row =
  let b = Record.encode row in
  (Model.crc b, Bytes.length b)

(* Check one transaction's event log against the model and apply its
   committed writes. Events arrive newest first. *)
let check model tally ~direct events =
  let pending = Hashtbl.create 16 in
  let current k =
    match Hashtbl.find_opt pending k with Some v -> v | None -> Hashtbl.find_opt model.rows k
  in
  let fail fmt = Printf.ksprintf (fun s -> tally.failures <- s :: tally.failures) fmt in
  let apply k v =
    (match Hashtbl.find_opt model.rows k with
    | Some (_, n) -> model.live_bytes <- model.live_bytes - n
    | None -> ());
    match v with
    | Some ((_, n) as s) ->
        Hashtbl.replace model.rows k s;
        model.live_bytes <- model.live_bytes + n
    | None -> Hashtbl.remove model.rows k
  in
  let write k v =
    if direct then apply k v else Hashtbl.replace pending k v;
    match v with Some (_, n) -> tally.bytes_written <- tally.bytes_written + n | None -> ()
  in
  let written = ref 0 in
  tally.committed_writes <- false;
  List.iter
    (function
      | Look (k, r) -> (
          match (r, current k) with
          | Some row, Some (c, n) ->
              tally.bytes_read <- tally.bytes_read + n;
              if fst (sig_of row) <> c then fail "lookup of key %d differs from the model" k
          | None, None -> ()
          | Some _, None -> fail "lookup of key %d found a row the model does not have" k
          | None, Some _ -> fail "lookup of key %d missed a modelled row" k)
      | Upd (k, o, n) ->
          (match current k with
          | Some (c, _) when c = fst (sig_of o) -> ()
          | _ -> fail "update of key %d saw a row differing from the model" k);
          let s = sig_of n in
          written := !written + snd s;
          write k (Some s)
      | Ins (k, row) ->
          if current k <> None then fail "insert of existing key %d" k;
          let s = sig_of row in
          written := !written + snd s;
          write k (Some s)
      | Del (k, ok) ->
          if ok <> (current k <> None) then fail "delete of key %d disagrees with the model" k;
          if ok then write k None
      | Found (Some k) -> if current k = None then fail "next_key_ge returned unknown key %d" k
      | Found None -> ()
      | Commit ->
          Hashtbl.iter apply pending;
          Hashtbl.reset pending;
          tally.committed_writes <- true
      | Abort ->
          tally.bytes_written <- tally.bytes_written - !written;
          written := 0;
          Hashtbl.reset pending)
    (List.rev events);
  if (not direct) && not tally.committed_writes then tally.bytes_written <- tally.bytes_written - !written

(* Order-independent digest of every live record of every page, read
   through the engine's buffer pool. *)
let record_hash ~page ~slot crc = Hashtbl.hash (page, slot, crc)

let digest engine =
  Array.init (Engine.page_count engine) (fun page ->
      let d = ref 0 in
      Round.ok "digest"
        (Engine.with_page engine page (fun p ->
             Storage.Page.iter (fun slot b -> d := !d lxor record_hash ~page ~slot (Model.crc b)) p));
      !d)

let probe_payload rng = Bytes.init 64 (fun _ -> Char.chr (Rng.int rng 256))

let run (o : Round.overrides) ~seed ~(probe : Probe.t) : Round.t =
  let rng = Rng.of_int seed in
  let ops = Array.of_list (List.map (fun n -> Probe.span probe ("tpcc." ^ n)) op_names) in
  let txns = Array.of_list (List.map (fun n -> Probe.span probe ("tpcc." ^ n)) txn_names) in
  let sp_begin = Probe.span probe "engine.begin"
  and sp_commit = Probe.span probe "engine.commit"
  and sp_abort = Probe.span probe "engine.abort" in
  let h0 = Probe.now_s () in
  let config =
    Round.config o ~buffer_pages:Config.default.Config.buffer_pages ~channels:1 ~ways:1
  in
  let dev = Round.device config ~num_blocks in
  let engine = Engine.create_device ~config dev in
  probe.sim <- (fun () -> Engine.elapsed engine);
  (* A harness-owned record for the first post-restart transaction. *)
  let probe_page =
    let pg = Storage.Page.create config.Config.page_size in
    ignore (Option.get (Storage.Page.insert pg (probe_payload rng)) : int);
    Round.ok "probe page" (Engine.allocate_page_with engine pg)
  in
  let ctx =
    { inner = Es.create engine; probe; ops; sp_begin; sp_commit; sp_abort; events = [] }
  in
  let tctx = Txn.make_ctx ctx ~seed:(Rng.int rng 1_000_000_000) sizing in
  let model = { rows = Hashtbl.create 65536; live_bytes = 0 } in
  let tally = { bytes_read = 0; bytes_written = 0; committed_writes = false; failures = [] } in
  Txn.load tctx;
  check model tally ~direct:true ctx.events;
  ctx.events <- [];
  Round.ok "checkpoint" (Engine.checkpoint engine);
  let latencies = Lat.create () in
  let committed = ref 0 in
  let fns = [| Txn.new_order; Txn.payment; Txn.order_status; Txn.delivery; Txn.stock_level |] in
  (* The mix is dealt from a shuffled deck of 100 cards (45/43/4/4/4),
     the card-deck method of TPC-C clause 5.2.4.2: every 100
     transactions hold the exact mix, so windows of different seeds do
     the same work in a different order. *)
  let deck = Array.concat (List.mapi (fun k n -> Array.make n k) [ 45; 43; 4; 4; 4 ]) in
  let dealt = ref (Array.length deck) in
  let one () =
    if !dealt = Array.length deck then begin
      Rng.shuffle rng deck;
      dealt := 0
    end;
    let k = deck.(!dealt) in
    incr dealt;
    let began = Engine.elapsed engine in
    Probe.call probe txns.(k) (fun () -> fns.(k) tctx);
    let events = ctx.events in
    ctx.events <- [];
    check model tally ~direct:false events;
    let rolled_back = List.mem Abort events in
    if not rolled_back then incr committed;
    (* Commit latency is New-Order's, the transaction TPC-C reports
       throughput by: over all commits the median falls on the boundary
       between the Payment and New-Order modes and jumps between them. *)
    if k = 0 && tally.committed_writes then Lat.add latencies (Engine.elapsed engine -. began)
  in
  for _ = 1 to warmup_txns do
    one ()
  done;
  let setup_s = Probe.now_s () -. h0 in
  Lat.clear latencies;
  committed := 0;
  tally.bytes_read <- 0;
  tally.bytes_written <- 0;
  Probe.reset probe;
  let ytd () =
    let w = Es.lookup ctx.inner Schema.Warehouse ~key:(Schema.warehouse_key ~w:1) in
    let d =
      List.init sizing.districts (fun i ->
          Es.lookup ctx.inner Schema.District ~key:(Schema.district_key ~w:1 ~d:(i + 1)))
    in
    let get f r = match r with Some row -> Record.get_float row f | None -> nan in
    (get Schema.F.w_ytd w, List.fold_left (fun acc r -> acc +. get Schema.F.d_ytd r) 0.0 d)
  in
  let w0, d0 = ytd () in
  let n = window_txns in
  let before = Round.snap engine in
  for i = 1 to n do
    one ();
    if i mod chunk = 0 then Probe.gauge probe
  done;
  let after = Round.snap engine in
  let fail s = tally.failures <- s :: tally.failures in
  (* TPC-C consistency conditions, through store lookups. *)
  let w1, d1 = ytd () in
  let dw = w1 -. w0 and dd = d1 -. d0 in
  if not (Float.abs (dw -. dd) <= 1e-6 *. Float.max 1.0 (Float.abs dw)) then
    fail (Printf.sprintf "W_YTD grew by %f but the districts' D_YTD by %f" dw dd);
  for d = 1 to sizing.districts do
    match Es.lookup ctx.inner Schema.District ~key:(Schema.district_key ~w:1 ~d) with
    | None -> fail (Printf.sprintf "district %d missing" d)
    | Some row ->
        let next = Record.get_int row Schema.F.d_next_o_id in
        let last = Es.lookup ctx.inner Schema.Orders ~key:(Schema.orders_key ~w:1 ~d ~o:(next - 1)) in
        let beyond = Es.next_key_ge ctx.inner Schema.Orders ~key:(Schema.orders_key ~w:1 ~d ~o:next) in
        let limit = Schema.orders_key ~w:1 ~d:(d + 1) ~o:0 in
        let more = match beyond with Some k -> k < limit | None -> false in
        if last = None || more then
          fail (Printf.sprintf "district %d: D_NEXT_O_ID - 1 is not max(O_ID)" d)
  done;
  (* Every modelled row, through the store. *)
  let tables = Array.make 9 Schema.Warehouse in
  List.iter (fun t -> tables.(table_index t) <- t) Schema.all_tables;
  Hashtbl.iter
    (fun k (c, _) ->
      let tbl = tables.(k land 15) in
      match Es.lookup ctx.inner tbl ~key:(k lsr 4) with
      | Some row when fst (sig_of row) = c -> ()
      | _ -> fail (Printf.sprintf "row %d of %s differs from the model" (k lsr 4) (Schema.table_name tbl)))
    model.rows;
  let pre_crash = digest engine in
  let first_txn e =
    let tx = Round.ok "begin" (Engine.begin_txn e) in
    if Round.ok "read" (Engine.read e ~page:probe_page ~slot:0) = None then
      fail "probe record missing after restart";
    let data = probe_payload rng in
    pre_crash.(probe_page) <- record_hash ~page:probe_page ~slot:0 (Model.crc data);
    Round.ok "update" (Engine.update e ~tx ~page:probe_page ~slot:0 data);
    Round.ok "commit" (Engine.commit e tx)
  in
  let restarted, recovery = Round.crash_and_restart ~config dev ~first_txn in
  (* Every committed row must survive: each modelled row's encoding is a
     heap record somewhere in the restarted database. *)
  let found = Hashtbl.create 65536 in
  for page = 0 to Engine.page_count restarted - 1 do
    Round.ok "scan"
      (Engine.with_page restarted page (fun p ->
           Storage.Page.iter
             (fun _ b ->
               let c = Model.crc b in
               Hashtbl.replace found c (1 + Option.value ~default:0 (Hashtbl.find_opt found c)))
             p))
  done;
  let lost = ref 0 in
  Hashtbl.iter
    (fun _ (c, _) ->
      match Hashtbl.find_opt found c with
      | Some n when n > 0 -> Hashtbl.replace found c (n - 1)
      | _ -> incr lost)
    model.rows;
  if !lost > 0 then fail (Printf.sprintf "%d committed rows missing after restart" !lost);
  (* Pages whose content differs from before the crash (see the notes:
     heap-directory entries are appended outside any transaction and are
     not forced by commit, so they can be lost). *)
  let post = digest restarted in
  let pages_differing = ref (abs (Array.length post - Array.length pre_crash)) in
  Array.iteri
    (fun i d -> if i < Array.length pre_crash && d <> pre_crash.(i) then incr pages_differing)
    post;
  {
    Round.setup_s;
    probe;
    attempted = n;
    committed = !committed;
    conflict_aborts = 0;
    latencies = Lat.to_array latencies;
    bytes_written = tally.bytes_written;
    bytes_read = tally.bytes_read;
    live_user_bytes = model.live_bytes;
    before;
    after;
    recovery;
    pages_differing = !pages_differing;
    digest = Array.fold_left ( lxor ) 0 post;
    heap_top_words = after.Round.gc.Gc.top_heap_words;
    failures = List.rev tally.failures;
  }

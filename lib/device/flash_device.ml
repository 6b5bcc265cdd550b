module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats

(* A multi-channel flash device: channels x ways independent chips behind
   one flat sector address space, striped by erase block (device block [b]
   lives on chip [b mod n]). Execution is *eager*: a submitted operation
   runs on its chip immediately, in submission order — state transitions,
   stored data, fault-hook consultation and wear are exactly those of the
   serial path, so logical behaviour and crash campaigns are independent
   of the channel count. Only the *completion time* of an asynchronous
   submission is deferred: each chip keeps a virtual timeline of scheduled
   operations, and the host clock advances to a completion only when the
   caller awaits its tag (or a barrier). Overlap across chips is therefore
   pure clock arithmetic on the simulated timebase — deterministic, with
   no threads and no event-queue nondeterminism. *)

type op_class = Foreground | Log_flush | Merge_io | Scrub

let class_index = function Foreground -> 0 | Log_flush -> 1 | Merge_io -> 2 | Scrub -> 3
let num_classes = 4

let class_name = function
  | Foreground -> "foreground"
  | Log_flush -> "log_flush"
  | Merge_io -> "merge"
  | Scrub -> "scrub"

let all_classes = [ Foreground; Log_flush; Merge_io; Scrub ]

type tag = int

let no_tag : tag = -1

(* One scheduled-but-not-settled operation on a chip's virtual timeline.
   [p_start] is mutable because a higher-priority arrival may push a
   queued (not yet started) operation back. *)
type pending = {
  p_tag : tag;
  p_class : op_class;
  p_chip : int;
  mutable p_start : float;
  p_dur : float;
  p_submitted : float;
  p_write : bool;  (* programs/erases; reads never gate a barrier *)
}

let completion p = p.p_start +. p.p_dur

(* Fills the vacant slots of a timeline, so settled records are not kept
   alive. *)
let vacant =
  { p_tag = no_tag; p_class = Foreground; p_chip = -1; p_start = 0.0; p_dur = 0.0;
    p_submitted = 0.0; p_write = false }

type chan = {
  chip : Chip.t;
  sched : pending array;
      (* the chip's virtual timeline: unsettled ops in [0, n), ascending
         (p_start, p_tag); capacity is the queue depth, and [make_room]
         keeps [n] below it before every push *)
  mutable n : int;
  mutable max_depth : int;
  mutable depth_sum : int;
  mutable depth_obs : int;
  submitted : int array;  (* per op class *)
}

type t = {
  chans : chan array;
  channels : int;
  ways : int;
  queue_depth : int;
  config : FConfig.t;  (* device-level geometry (num_blocks = total) *)
  spb : int;
  single : bool;
      (* one chip: every operation is forwarded verbatim and the chip's
         own clock is the device clock, making the single-channel device
         bit-for-bit (state, stats, time) equal to the bare-chip path *)
  mutable now : float;  (* host virtual clock, multi-chip mode *)
  mutable next_tag : int;
  tags : (tag, pending) Hashtbl.t;  (* outstanding submissions *)
  lat : Obs.Metrics.Latency.t array;  (* per-class submit-to-completion *)
  mutable dead : int option;  (* op index of a device-wide fail-stop *)
  mutable hook : (int -> Chip.op -> Chip.fault_action) option;
  mutable ops : int;  (* device-global operation numbering *)
  mutable last_read_chan : int;
  waits : float array;  (* host stall time by cause, see [wait_cause] *)
}

(* Why the host virtual clock advanced: awaiting a tag, a durability
   barrier / full drain, a synchronous operation, or queue-depth
   backpressure. *)
let wait_await = 0
let wait_barrier = 1
let wait_sync = 2
let wait_backpressure = 3
let num_wait_causes = 4

let advance_now t cause target =
  if target > t.now then begin
    t.waits.(cause) <- t.waits.(cause) +. (target -. t.now);
    t.now <- target
  end

let mk_chan ~queue_depth chip =
  {
    chip;
    sched = Array.make queue_depth vacant;
    n = 0;
    max_depth = 0;
    depth_sum = 0;
    depth_obs = 0;
    submitted = Array.make num_classes 0;
  }

let nchips t = Array.length t.chans

(* In multi-chip mode every chip consults this permanent hook, which keeps
   one device-global operation numbering (deterministic: eager execution
   means submission order is numbering order) and forwards to the
   user-installed device hook, if any. *)
let install_counter t c =
  Chip.set_fault_hook c.chip
    (Some
       (fun _local op ->
         let i = t.ops in
         t.ops <- i + 1;
         match t.hook with None -> Chip.Proceed | Some f -> f i op))

let default_queue_depth = 32

let of_chip chip =
  {
    chans = [| mk_chan ~queue_depth:1 chip |];
    channels = 1;
    ways = 1;
    queue_depth = 1;
    config = Chip.config chip;
    spb = FConfig.sectors_per_block (Chip.config chip);
    single = true;
    now = 0.0;
    next_tag = 0;
    tags = Hashtbl.create 64;
    lat = Array.init num_classes (fun _ -> Obs.Metrics.Latency.create ());
    dead = None;
    hook = None;
    ops = 0;
    last_read_chan = 0;
    waits = Array.make num_wait_causes 0.0;
  }

let create ?(queue_depth = default_queue_depth) ~channels ~ways config =
  if channels <= 0 then invalid_arg "Flash_device.create: channels must be positive";
  if ways <= 0 then invalid_arg "Flash_device.create: ways must be positive";
  if queue_depth <= 0 then invalid_arg "Flash_device.create: queue_depth must be positive";
  FConfig.validate config;
  let n = channels * ways in
  if config.FConfig.num_blocks mod n <> 0 then
    invalid_arg "Flash_device.create: num_blocks must divide evenly across channels x ways";
  if n = 1 then of_chip (Chip.create config)
  else begin
    let per_chip = { config with FConfig.num_blocks = config.FConfig.num_blocks / n } in
    let t =
      {
        chans = Array.map (mk_chan ~queue_depth) (Chip.create_shared n per_chip);
        channels;
        ways;
        queue_depth;
        config;
        spb = FConfig.sectors_per_block config;
        single = false;
        now = 0.0;
        next_tag = 0;
        tags = Hashtbl.create 64;
        lat = Array.init num_classes (fun _ -> Obs.Metrics.Latency.create ());
        dead = None;
        hook = None;
        ops = 0;
        last_read_chan = 0;
        waits = Array.make num_wait_causes 0.0;
      }
    in
    Array.iter (install_counter t) t.chans;
    t
  end

let config t = t.config
let channels t = t.channels
let ways t = t.ways
let num_chips = nchips
let queue_depth t = t.queue_depth
let chip t i = t.chans.(i).chip
let num_sectors t = t.spb * t.config.FConfig.num_blocks

(* ------------------------------------------------------------------ *)
(* Addressing: device block [b] -> chip [b mod n], local block [b / n]. *)

let check_block t b =
  if b < 0 || b >= t.config.FConfig.num_blocks then raise (Chip.Out_of_range b)

let check_sector t s = if s < 0 || s >= num_sectors t then raise (Chip.Out_of_range s)

let block_of_sector t s =
  check_sector t s;
  s / t.spb

let sector_of_block t b =
  check_block t b;
  b * t.spb

let channel_of_block t b =
  check_block t b;
  if t.single then 0 else b mod nchips t

(* Chip index and chip-local flat sector address of a device-address
   range. Multi-sector operations must stay within one erase block — the
   striping granularity — exactly the discipline the erase-unit-based
   storage layers above already obey. *)
let locate t ~sector ~count =
  check_sector t sector;
  if count > 0 then check_sector t (sector + count - 1);
  if t.single then (0, sector)
  else begin
    let b = sector / t.spb in
    if count > 1 && (sector + count - 1) / t.spb <> b then
      invalid_arg "Flash_device: operation crosses an erase-block boundary";
    (b mod nchips t, ((b / nchips t) * t.spb) + (sector mod t.spb))
  end

let locate_block t b =
  check_block t b;
  if t.single then (0, b) else (b mod nchips t, b / nchips t)

(* ------------------------------------------------------------------ *)
(* Virtual-time scheduler (multi-chip mode only)                       *)

let prio = class_index

let settle t p =
  Obs.Metrics.Latency.observe t.lat.(class_index p.p_class) (completion p -. p.p_submitted);
  Hashtbl.remove t.tags p.p_tag

(* Drop (and account) every operation whose completion the host clock has
   passed: one compaction pass, settling in timeline order (the latency
   sums depend on it). *)
let prune t c =
  let live = ref 0 in
  for i = 0 to c.n - 1 do
    let p = c.sched.(i) in
    if completion p <= t.now then settle t p
    else begin
      c.sched.(!live) <- p;
      incr live
    end
  done;
  Array.fill c.sched !live (c.n - !live) vacant;
  c.n <- !live

(* Per-chip queue-depth cap: a submission against a full queue blocks the
   host (clock advances to the earliest completion) — the model of a
   bounded hardware queue. *)
let rec make_room t c =
  prune t c;
  if c.n >= t.queue_depth then begin
    let earliest = ref infinity in
    for i = 0 to c.n - 1 do
      earliest := Float.min !earliest (completion c.sched.(i))
    done;
    advance_now t wait_backpressure !earliest;
    make_room t c
  end

(* Restore (p_start, p_tag) order after start times moved or an op was
   appended. Tags are unique, so the order is total. The timeline holds at
   most [queue_depth] ops and is nearly sorted, so insertion sort. *)
let sort_timeline c =
  let a = c.sched in
  for i = 1 to c.n - 1 do
    let p = a.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let q = a.(!j) in
      let o = Float.compare p.p_start q.p_start in
      o < 0 || (o = 0 && p.p_tag < q.p_tag)
    do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- p
  done

let queued t q = q.p_start > t.now

(* Start [p], already on chip [c]'s timeline, after every other op that
   [behind] does not select ([behind] never selects [p]); push the
   selected ones back behind it in timeline order, each starting no
   earlier than the previous one ends; then restore the timeline's
   order. *)
let place t c p ~behind =
  let base = ref t.now in
  for i = 0 to c.n - 1 do
    let q = c.sched.(i) in
    if q != p && not (behind q) then base := Float.max !base (completion q)
  done;
  p.p_start <- !base;
  let prev_end = ref (completion p) in
  for i = 0 to c.n - 1 do
    let q = c.sched.(i) in
    if behind q then begin
      q.p_start <- Float.max q.p_start !prev_end;
      prev_end := completion q
    end
  done;
  sort_timeline c

(* Place a new operation of [cls] on chip [c]'s timeline. It starts after
   the in-progress operation and every queued operation of equal or higher
   priority (FIFO within a class), and preempts queued lower-priority
   operations, which are pushed back. Pure time arithmetic: the data
   effects already happened at submission. *)
let schedule t c ~chip_idx ~cls ~write ~dur =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let p =
    { p_tag = tag; p_class = cls; p_chip = chip_idx; p_start = t.now; p_dur = dur;
      p_submitted = t.now; p_write = write }
  in
  c.sched.(c.n) <- p;
  c.n <- c.n + 1;
  place t c p ~behind:(fun q -> queued t q && prio q.p_class > prio cls);
  Hashtbl.replace t.tags tag p;
  p

(* Deadline promotion: the host is blocked on [p]. If [p] has not started
   yet, nothing on its chip is more urgent — move it ahead of every other
   queued (not yet started) operation, pushing them back. A real
   controller reorders its internal queue the same way when a flush the
   host is waiting on sits behind readahead traffic. Pure time
   arithmetic; execution was eager. *)
let expedite t p =
  if queued t p then
    place t t.chans.(p.p_chip) p ~behind:(fun q -> q != p && queued t q)

let check_dead t =
  match t.dead with Some i -> raise (Chip.Power_loss i) | None -> ()

let note_submission t c ~cls =
  c.submitted.(class_index cls) <- c.submitted.(class_index cls) + 1;
  if not t.single then begin
    let d = c.n in
    if d > c.max_depth then c.max_depth <- d;
    c.depth_sum <- c.depth_sum + d;
    c.depth_obs <- c.depth_obs + 1
  end

(* Run one physical operation eagerly on its chip, measuring its service
   time from the chip's own clock (so the device never re-implements the
   chip's timing model), and schedule its completion. Failed operations
   normally charge no time; the exception is a torn program, which charges
   the partial program before the power dies — that time is folded in
   synchronously so the clock stays consistent. *)
let dispatch t ~cls ~write ~chip_idx ~(execute : Chip.t -> 'a) : 'a * pending =
  check_dead t;
  let c = t.chans.(chip_idx) in
  make_room t c;
  note_submission t c ~cls;
  let t0 = Chip.elapsed c.chip in
  match execute c.chip with
  | result ->
      let dur = Chip.elapsed c.chip -. t0 in
      (result, schedule t c ~chip_idx ~cls ~write ~dur)
  | exception e ->
      (match e with
      | Chip.Power_loss _ -> t.dead <- Some (max 0 (t.ops - 1))
      | _ -> ());
      let dur = Chip.elapsed c.chip -. t0 in
      if dur > 0.0 then begin
        let p = schedule t c ~chip_idx ~cls ~write ~dur in
        expedite t p;
        advance_now t wait_sync (completion p);
        prune t c
      end;
      raise e

let run_sync t ~cls ~write ~chip_idx execute =
  if t.single then begin
    let c = t.chans.(0) in
    note_submission t c ~cls;
    let t0 = Chip.elapsed c.chip in
    let r = execute c.chip in
    Obs.Metrics.Latency.observe t.lat.(class_index cls) (Chip.elapsed c.chip -. t0);
    r
  end
  else begin
    let r, p = dispatch t ~cls ~write ~chip_idx ~execute in
    expedite t p;
    advance_now t wait_sync (completion p);
    prune t t.chans.(chip_idx);
    r
  end

let run_async t ~cls ~write ~chip_idx execute =
  if t.single then (run_sync t ~cls ~write ~chip_idx execute, no_tag)
  else begin
    let r, p = dispatch t ~cls ~write ~chip_idx ~execute in
    (r, p.p_tag)
  end

(* ------------------------------------------------------------------ *)
(* Synchronous chip-compatible surface                                 *)

let read_sectors_into ?(cls = Foreground) t ~sector ~count dst =
  let chip_idx, ls = locate t ~sector ~count in
  t.last_read_chan <- chip_idx;
  run_sync t ~cls ~write:false ~chip_idx (fun chip ->
      Chip.read_sectors_into chip ~sector:ls ~count dst)

let sector_buffer t count = Bytes.create (max 0 count * t.config.FConfig.sector_size)

let read_sectors ?cls t ~sector ~count =
  let out = sector_buffer t count in
  read_sectors_into ?cls t ~sector ~count out;
  out

let write_sectors ?(cls = Foreground) t ~sector data =
  let ss = t.config.FConfig.sector_size in
  let count = max 1 (Bytes.length data / ss) in
  let chip_idx, ls = locate t ~sector ~count in
  run_sync t ~cls ~write:true ~chip_idx (fun chip -> Chip.write_sectors chip ~sector:ls data)

let erase_block ?(cls = Foreground) t b =
  let chip_idx, lb = locate_block t b in
  run_sync t ~cls ~write:true ~chip_idx (fun chip -> Chip.erase_block chip lb)

(* Invalidation is host-side bookkeeping (free of charge on the chip), so
   it bypasses the scheduler entirely — but still dies with the device. *)
let invalidate_sectors t ~sector ~count =
  if t.single then begin
    let chip = t.chans.(0).chip in
    if Chip.is_dead chip then raise (Chip.Power_loss (Chip.op_count chip))
  end
  else check_dead t;
  let chip_idx, ls = locate t ~sector ~count in
  Chip.invalidate_sectors t.chans.(chip_idx).chip ~sector:ls ~count

let sector_state t s =
  let chip_idx, ls = locate t ~sector:s ~count:1 in
  Chip.sector_state t.chans.(chip_idx).chip ls

let free_sectors_in_block t b =
  let chip_idx, lb = locate_block t b in
  Chip.free_sectors_in_block t.chans.(chip_idx).chip lb

let mark_bad t b =
  let chip_idx, lb = locate_block t b in
  Chip.mark_bad t.chans.(chip_idx).chip lb

let is_bad t b =
  let chip_idx, lb = locate_block t b in
  Chip.is_bad t.chans.(chip_idx).chip lb

let bad_blocks t =
  if t.single then Chip.bad_blocks t.chans.(0).chip
  else
    List.sort compare
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i c ->
                 List.map (fun lb -> (lb * nchips t) + i) (Chip.bad_blocks c.chip))
               t.chans)))

let erase_count t b =
  let chip_idx, lb = locate_block t b in
  Chip.erase_count t.chans.(chip_idx).chip lb

let live_sectors t =
  Array.fold_left (fun acc c -> acc + Chip.live_sectors c.chip) 0 t.chans

let last_read_corrected t = Chip.last_read_corrected t.chans.(t.last_read_chan).chip

(* ------------------------------------------------------------------ *)
(* Asynchronous submission / completion                                *)

let submit_read_into t ~cls ~sector ~count dst =
  let chip_idx, ls = locate t ~sector ~count in
  t.last_read_chan <- chip_idx;
  let (), tag =
    run_async t ~cls ~write:false ~chip_idx (fun chip ->
        Chip.read_sectors_into chip ~sector:ls ~count dst)
  in
  tag

let submit_read t ~cls ~sector ~count =
  let out = sector_buffer t count in
  (out, submit_read_into t ~cls ~sector ~count out)

let submit_write t ~cls ~sector data =
  let ss = t.config.FConfig.sector_size in
  let count = max 1 (Bytes.length data / ss) in
  let chip_idx, ls = locate t ~sector ~count in
  let (), tag =
    run_async t ~cls ~write:true ~chip_idx (fun chip -> Chip.write_sectors chip ~sector:ls data)
  in
  tag

let submit_erase t ~cls b =
  let chip_idx, lb = locate_block t b in
  let (), tag = run_async t ~cls ~write:true ~chip_idx (fun chip -> Chip.erase_block chip lb) in
  tag

(* Fire-and-forget submissions for callers that settle by class barrier
   (or not at all — scrub relocation), not by individual await. The tag
   never escapes, so the settling protocol is explicit at the call site. *)
let publish_write t ~cls ~sector data = ignore (submit_write t ~cls ~sector data : tag)
let publish_erase t ~cls b = ignore (submit_erase t ~cls b : tag)

let publish_read_into t ~cls ~sector ~count dst =
  ignore (submit_read_into t ~cls ~sector ~count dst : tag)

let await t tag =
  if not t.single then
    match Hashtbl.find_opt t.tags tag with
    | None -> () (* already completed (or a single-mode no_tag) *)
    | Some p ->
        expedite t p;
        advance_now t wait_await (completion p);
        prune t t.chans.(p.p_chip)

let in_flight t = Hashtbl.length t.tags

(* The durability barrier: the host clock advances past every outstanding
   foreground and log-flush completion. State-wise a no-op (execution is
   eager); time-wise it is the cost of waiting for the durability-relevant
   queues to drain at a force point. Background relocation traffic
   ([Merge_io], [Scrub]) is excluded: it models the FTL's cleaning
   engine, which orders its programs against the mapping journal
   per-chip and never stalls a commit. {!drain} waits for everything. *)
let durability_class = function
  | Foreground | Log_flush -> true
  | Merge_io | Scrub -> false

let barrier t =
  if not t.single then begin
    (* Promoted in tag (submission) order: promotion order decides the
       resulting timeline. *)
    let ps = ref [] in
    Array.iter
      (fun c ->
        for i = 0 to c.n - 1 do
          let p = c.sched.(i) in
          if p.p_write && durability_class p.p_class then ps := p :: !ps
        done)
      t.chans;
    let ps = List.sort (fun a b -> Int.compare a.p_tag b.p_tag) !ps in
    List.iter
      (fun p ->
        expedite t p;
        advance_now t wait_barrier (completion p))
      ps;
    Array.iter (fun c -> prune t c) t.chans
  end

let drain t =
  if not t.single then begin
    Hashtbl.iter (fun _ p -> advance_now t wait_barrier (completion p)) t.tags;
    Array.iter (fun c -> prune t c) t.chans
  end

(* ------------------------------------------------------------------ *)
(* Clock and stats                                                     *)

let makespan t =
  let m = ref t.now in
  Array.iter
    (fun c ->
      for i = 0 to c.n - 1 do
        m := Float.max !m (completion c.sched.(i))
      done)
    t.chans;
  !m

let elapsed t = if t.single then Chip.elapsed t.chans.(0).chip else makespan t

let advance_time t dt =
  if t.single then Chip.advance_time t.chans.(0).chip dt else t.now <- t.now +. dt

let stats t =
  let agg = Array.fold_left (fun acc c -> FStats.add acc (Chip.stats c.chip)) FStats.zero t.chans in
  {
    agg with
    FStats.elapsed = elapsed t;
    FStats.mean_wear = agg.FStats.mean_wear /. float_of_int (nchips t);
  }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let set_fault_hook t hook =
  if t.single then Chip.set_fault_hook t.chans.(0).chip hook
  else begin
    t.hook <- hook;
    match hook with
    | Some _ -> ()
    | None ->
        (* Clearing revives the device, like clearing a chip hook revives
           the chip: reset per-chip deadness, then re-arm the counters. *)
        t.dead <- None;
        Array.iter
          (fun c ->
            Chip.set_fault_hook c.chip None;
            install_counter t c)
          t.chans
  end

let is_dead t = if t.single then Chip.is_dead t.chans.(0).chip else t.dead <> None

let set_tracer t tracer = Array.iter (fun c -> Chip.set_tracer c.chip tracer) t.chans
let tracer t = Chip.tracer t.chans.(0).chip

(* ------------------------------------------------------------------ *)
(* Per-channel observability                                           *)

type channel_report = {
  chan_index : int;
  busy_s : float;
  utilization : float;
  max_queue_depth : int;
  mean_queue_depth : float;
  submitted_by_class : (string * int) list;
  chip_stats : FStats.t;
}

let channel_report t =
  let total = elapsed t in
  Array.to_list
    (Array.mapi
       (fun i c ->
         let busy = Chip.elapsed c.chip in
         {
           chan_index = i;
           busy_s = busy;
           utilization = (if total > 0.0 then busy /. total else 0.0);
           max_queue_depth = c.max_depth;
           mean_queue_depth =
             (if c.depth_obs > 0 then
                float_of_int c.depth_sum /. float_of_int c.depth_obs
              else 0.0);
           submitted_by_class =
             List.map (fun cls -> (class_name cls, c.submitted.(class_index cls))) all_classes;
           chip_stats = Chip.stats c.chip;
         })
       t.chans)

let class_latency t cls = t.lat.(class_index cls)

let to_json t =
  let module J = Ipl_util.Json in
  J.Obj
    [
      ("channels", J.Int t.channels);
      ("ways", J.Int t.ways);
      ("queue_depth", J.Int t.queue_depth);
      ("elapsed_s", J.Float (elapsed t));
      ( "per_channel",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("channel", J.Int r.chan_index);
                   ("busy_s", J.Float r.busy_s);
                   ("utilization", J.Float r.utilization);
                   ("max_queue_depth", J.Int r.max_queue_depth);
                   ("mean_queue_depth", J.Float r.mean_queue_depth);
                   ( "submitted",
                     J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.submitted_by_class) );
                 ])
             (channel_report t)) );
      ( "op_class_latency",
        J.Obj
          (List.map
             (fun cls ->
               (class_name cls, Obs.Metrics.Latency.to_json t.lat.(class_index cls)))
             all_classes) );
      ( "host_wait_s",
        J.Obj
          [
            ("await", J.Float t.waits.(wait_await));
            ("barrier", J.Float t.waits.(wait_barrier));
            ("sync", J.Float t.waits.(wait_sync));
            ("backpressure", J.Float t.waits.(wait_backpressure));
          ] );
    ]

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

(* A tag names one asynchronous submission: [seq * num_chips + chip], where
   [seq] numbers the device's submissions. An await therefore searches
   only the tag's own chip, and tag order is submission order. *)
type tag = int

let no_tag : tag = -1

(* The host virtual clock. A record whose one field is a float is stored
   flat, so advancing the clock allocates nothing. *)
type clock = { mutable now : float }

(* A chip's virtual timeline: its scheduled but unsettled operations, at
   positions [0, n) in ascending (start, tag) order. The slots form a
   ring: position [p] is entry [(head + p) land mask] of each flat array
   below, whose power-of-two capacity is at least the queue depth. So
   settling a prefix only moves [head], scheduling allocates nothing, and
   [make_room] keeps [n] below the queue depth before every push. *)
type chan = {
  chip : Chip.t;
  mask : int;
  tags : int array;
  info : int array;  (* class index lsl 1, lor 1 for a program or erase *)
  start : Float.Array.t;  (* a promotion or an arrival may push a queued op back *)
  dur : Float.Array.t;
  since : Float.Array.t;  (* submission time *)
  mutable head : int;
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
  clock : clock;
  mutable next_seq : int;
  lat : Obs.Metrics.Latency.t array;  (* per-class submit-to-completion *)
  settled : Float.Array.t array;
      (* per class: the latencies one [prune] settles, observed as a batch *)
  settled_n : int array;
  durable : int array;  (* a barrier's tags, sorted in place *)
  mutable dead : int option;  (* op index of a device-wide fail-stop *)
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

(* [Float.max] for the scheduler's times, which are never NaN; inlined, so
   it boxes nothing. *)
let[@inline] fmax (a : float) b = if b > a then b else a

let[@inline] advance_now t cause target =
  let now = t.clock.now in
  if target > now then begin
    t.waits.(cause) <- t.waits.(cause) +. (target -. now);
    t.clock.now <- target
  end

let mk_chan ~queue_depth chip =
  let rec capacity k = if k >= queue_depth then k else capacity (2 * k) in
  let cap = capacity 1 in
  {
    chip;
    mask = cap - 1;
    tags = Array.make cap no_tag;
    info = Array.make cap 0;
    start = Float.Array.make cap 0.0;
    dur = Float.Array.make cap 0.0;
    since = Float.Array.make cap 0.0;
    head = 0;
    n = 0;
    max_depth = 0;
    depth_sum = 0;
    depth_obs = 0;
    submitted = Array.make num_classes 0;
  }

let nchips t = Array.length t.chans

(* The device-wide operation number: the sum of what each chip has
   numbered (eager execution means submission order is numbering order).
   On one chip it is the chip's own numbering. *)
let op_count t = Array.fold_left (fun acc c -> acc + Chip.op_count c.chip) 0 t.chans

let default_queue_depth = 32

let make ~channels ~ways ~queue_depth config chips =
  {
    chans = Array.map (mk_chan ~queue_depth) chips;
    channels;
    ways;
    queue_depth;
    config;
    spb = FConfig.sectors_per_block config;
    clock = { now = Chip.elapsed chips.(0) };
    next_seq = 0;
    lat = Array.init num_classes (fun _ -> Obs.Metrics.Latency.create ());
    settled = Array.init num_classes (fun _ -> Float.Array.make queue_depth 0.0);
    settled_n = Array.make num_classes 0;
    durable = Array.make (Array.length chips * queue_depth) no_tag;
    dead = None;
    last_read_chan = 0;
    waits = Array.make num_wait_causes 0.0;
  }

(* The clock starts at the chip's own, so a device wrapped around a used
   chip reports the time the chip has already spent. *)
let of_chip chip = make ~channels:1 ~ways:1 ~queue_depth:1 (Chip.config chip) [| chip |]

let create ?(queue_depth = default_queue_depth) ~channels ~ways config =
  if channels <= 0 then invalid_arg "Flash_device.create: channels must be positive";
  if ways <= 0 then invalid_arg "Flash_device.create: ways must be positive";
  if queue_depth <= 0 then invalid_arg "Flash_device.create: queue_depth must be positive";
  FConfig.validate config;
  let n = channels * ways in
  if config.FConfig.num_blocks mod n <> 0 then
    invalid_arg "Flash_device.create: num_blocks must divide evenly across channels x ways";
  if
    not
      (config.FConfig.t_read_page > 0.0
      && config.FConfig.t_write_page > 0.0
      && config.FConfig.t_erase_block > 0.0)
  then invalid_arg "Flash_device.create: the device needs positive op timings";
  let per_chip = { config with FConfig.num_blocks = config.FConfig.num_blocks / n } in
  make ~channels ~ways ~queue_depth config (Chip.create_shared n per_chip)

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
  b mod nchips t

let local_block t b = b / nchips t

(* Chip index of a device-address range. Multi-sector operations must
   stay within one erase block — the striping granularity — exactly the
   discipline the erase-unit-based storage layers above already obey. One
   chip stripes nothing, so there a range may cross blocks, as on the
   chip itself. *)
let channel_of_range t ~sector ~count =
  check_sector t sector;
  if count > 0 then check_sector t (sector + count - 1);
  let b = sector / t.spb and n = nchips t in
  if n > 1 && count > 1 && (sector + count - 1) / t.spb <> b then
    invalid_arg "Flash_device: operation crosses an erase-block boundary";
  b mod n

(* Chip-local flat address of a device sector. *)
let local_sector t s = (s / t.spb / nchips t * t.spb) + (s mod t.spb)

(* ------------------------------------------------------------------ *)
(* Virtual-time scheduler                                              *)

(* A chip serves one operation at a time: [place] starts every operation
   no earlier than the completion of the one ahead of it on the
   timeline, and every scheduled operation takes positive time. So
   completion times ascend along a timeline just as start times do: the
   operations the host clock has passed are the timeline's prefix, its
   first operation completes earliest and its last one latest. *)

let[@inline] slot c p = (c.head + p) land c.mask
let[@inline] start_of c p = Float.Array.get c.start (slot c p)

let[@inline] completion c p =
  let s = slot c p in
  Float.Array.get c.start s +. Float.Array.get c.dur s

let[@inline] class_of c p = c.info.(slot c p) lsr 1
let[@inline] queued t c p = start_of c p > t.clock.now

let move c ~src ~dst =
  let src = slot c src and dst = slot c dst in
  c.tags.(dst) <- c.tags.(src);
  c.info.(dst) <- c.info.(src);
  Float.Array.set c.start dst (Float.Array.get c.start src);
  Float.Array.set c.dur dst (Float.Array.get c.dur src);
  Float.Array.set c.since dst (Float.Array.get c.since src)

(* The position of [tag] on chip [c], searching from position [p]; -1 once
   it has settled. *)
let rec find c tag p =
  if p >= c.n then -1 else if c.tags.(slot c p) = tag then p else find c tag (p + 1)

(* Settled latencies collect per class and reach the histograms one batch
   per class, taken from a flat array unboxed. *)
let[@inline] settle t cls latency =
  let m = t.settled_n.(cls) in
  Float.Array.set t.settled.(cls) m latency;
  t.settled_n.(cls) <- m + 1

let observe_settled t =
  for cls = 0 to num_classes - 1 do
    let m = t.settled_n.(cls) in
    if m > 0 then begin
      Obs.Metrics.Latency.observe_batch t.lat.(cls) t.settled.(cls) m;
      t.settled_n.(cls) <- 0
    end
  done

(* Drop (and account) every operation whose completion the host clock has
   passed — the timeline's prefix, so this returns at once when the first
   has not completed, and the ring drops it by moving its head. Settles in
   timeline order (the latency sums depend on it). *)
let prune t c =
  let now = t.clock.now and k = ref 0 in
  while !k < c.n && completion c !k <= now do
    let s = slot c !k in
    settle t (c.info.(s) lsr 1) (completion c !k -. Float.Array.get c.since s);
    incr k
  done;
  if !k > 0 then begin
    observe_settled t;
    c.head <- slot c !k;
    c.n <- c.n - !k
  end

(* Per-chip queue-depth cap: a submission against a full queue blocks the
   host (the clock advances to the earliest completion, the first
   operation's) — the model of a bounded hardware queue. *)
let make_room t c =
  prune t c;
  if c.n >= t.queue_depth then begin
    advance_now t wait_backpressure (completion c 0);
    prune t c
  end

(* Move the op at position [i] to position [q <= i], shifting the
   displaced run [q, i) up by one; start it when the op now ahead of it
   completes (or now); then push every later op back in timeline order,
   each starting no earlier than the one ahead of it completes. The
   callers choose [q] so that every later op is queued, and the moved op
   starts before all of them: the timeline stays in (start, tag) order. *)
let place t c ~q i =
  if q < i then begin
    let s = slot c i in
    let tag = c.tags.(s) and info = c.info.(s) in
    let d = Float.Array.get c.dur s and since = Float.Array.get c.since s in
    for j = i - 1 downto q do
      move c ~src:j ~dst:(j + 1)
    done;
    let s = slot c q in
    c.tags.(s) <- tag;
    c.info.(s) <- info;
    Float.Array.set c.dur s d;
    Float.Array.set c.since s since
  end;
  let now = t.clock.now in
  Float.Array.set c.start (slot c q) (if q = 0 then now else fmax now (completion c (q - 1)));
  let prev_end = ref (completion c q) in
  for j = q + 1 to c.n - 1 do
    let s = slot c j in
    let start = fmax (Float.Array.get c.start s) !prev_end in
    Float.Array.set c.start s start;
    prev_end := start +. Float.Array.get c.dur s
  done

(* Whether an arrival of class index [cutoff] goes ahead of the op at
   position [p]: it is queued and of lower priority. *)
let[@inline] behind t c ~cutoff p = queued t c p && class_of c p > cutoff

(* Schedule a new operation of [cls] on chip [c] and return its position.
   It starts after the in-progress operation and every queued operation
   of equal or higher priority (FIFO within a class), and preempts queued
   lower-priority operations, which are pushed back. Pure time
   arithmetic: the data effects already happened at submission.

   Between calls the queued operations (a suffix of the timeline) are in
   priority order: an arrival goes ahead of the lower-priority ones only,
   and every promotion is followed by advancing the host clock past the
   promoted operation, which is then no longer queued. So the ops the
   arrival preempts are the timeline's suffix, and the common case, with
   none of them, is O(1): the new operation starts when the last one
   completes, and is last in (start, tag) order. *)
let schedule t c ~chip_idx ~cls ~write ~dur =
  let i = c.n and k = class_index cls in
  let s = slot c i in
  c.tags.(s) <- (t.next_seq * nchips t) + chip_idx;
  t.next_seq <- t.next_seq + 1;
  c.info.(s) <- (k lsl 1) lor Bool.to_int write;
  Float.Array.set c.dur s dur;
  Float.Array.set c.since s t.clock.now;
  c.n <- i + 1;
  let q = ref i in
  while !q > 0 && behind t c ~cutoff:k (!q - 1) do
    decr q
  done;
  place t c ~q:!q i;
  !q

(* Deadline promotion: the host is blocked on the op at position [i]. If
   it has not started yet, nothing on its chip is more urgent — move it
   ahead of every other queued (not yet started) operation, pushing them
   back. A real controller reorders its internal queue the same way when a
   flush the host is waiting on sits behind readahead traffic. Pure time
   arithmetic; execution was eager. Returns the op's position.

   A queued op starts exactly when the op ahead of it completes (it was
   placed or pushed back there), so one already first in the queue keeps
   its start, and so does every op behind it: there is nothing to do. *)
let expedite t c i =
  if not (queued t c i) then i
  else begin
    let q = ref i in
    while !q > 0 && queued t c (!q - 1) do
      decr q
    done;
    if !q < i then place t c ~q:!q i;
    !q
  end

(* The host waits for the op at position [i]: promote it, advance the
   clock past its completion, settle. *)
let finish t c ~cause i =
  let i = expedite t c i in
  advance_now t cause (completion c i);
  prune t c

let check_dead t =
  match t.dead with Some i -> raise (Chip.Power_loss i) | None -> ()

let note_submission c ~cls =
  c.submitted.(class_index cls) <- c.submitted.(class_index cls) + 1;
  let d = c.n in
  if d > c.max_depth then c.max_depth <- d;
  c.depth_sum <- c.depth_sum + d;
  c.depth_obs <- c.depth_obs + 1

(* The three physical operations, on a chip-local address: a sector, or
   an erase's block. *)
type kind = Read | Program | Erase

let execute chip kind ~addr ~count data =
  match kind with
  | Read -> Chip.read_sectors_into chip ~sector:addr ~count data
  | Program -> Chip.write_sectors chip ~sector:addr data
  | Erase -> Chip.erase_block chip addr

(* Run one physical operation eagerly on its chip, measuring its service
   time from the chip's own clock (so the device never re-implements the
   chip's timing model), and schedule its completion. A synchronous
   operation ([sync]) then waits for it and returns [no_tag]; an
   asynchronous one returns its tag. A synchronous operation that finds
   its chip idle starts now and completes at [now +. dur], so it skips
   the timeline: the clock, its wait and its latency take exactly the
   values the timeline would give them. Failed operations normally charge
   no time; the exception is a torn program, which charges the partial
   program before the power dies — that time is folded in synchronously
   so the clock stays consistent. *)
let dispatch t ~sync ~cls kind ~chip_idx ~addr ~count data =
  check_dead t;
  let c = t.chans.(chip_idx) in
  make_room t c;
  note_submission c ~cls;
  let write = match kind with Read -> false | Program | Erase -> true in
  let t0 = Chip.elapsed c.chip in
  match execute c.chip kind ~addr ~count data with
  | () ->
      let dur = Chip.elapsed c.chip -. t0 in
      if sync && c.n = 0 then begin
        let now = t.clock.now in
        let fin = now +. dur in
        settle t (class_index cls) (fin -. now);
        observe_settled t;
        advance_now t wait_sync fin;
        no_tag
      end
      else begin
        let i = schedule t c ~chip_idx ~cls ~write ~dur in
        if sync then begin
          finish t c ~cause:wait_sync i;
          no_tag
        end
        else c.tags.(slot c i)
      end
  | exception e ->
      (match e with
      | Chip.Power_loss _ -> t.dead <- Some (max 0 (op_count t - 1))
      | _ -> ());
      let dur = Chip.elapsed c.chip -. t0 in
      if dur > 0.0 then finish t c ~cause:wait_sync (schedule t c ~chip_idx ~cls ~write ~dur);
      raise e

let run_sync t ~cls kind ~chip_idx ~addr ~count data =
  ignore (dispatch t ~sync:true ~cls kind ~chip_idx ~addr ~count data : tag)

(* ------------------------------------------------------------------ *)
(* Synchronous chip-compatible surface                                 *)

let read_sectors_into ?(cls = Foreground) t ~sector ~count dst =
  let chip_idx = channel_of_range t ~sector ~count in
  t.last_read_chan <- chip_idx;
  run_sync t ~cls Read ~chip_idx ~addr:(local_sector t sector) ~count dst

let sector_buffer t count = Bytes.create (max 0 count * t.config.FConfig.sector_size)

let read_sectors ?cls t ~sector ~count =
  let out = sector_buffer t count in
  read_sectors_into ?cls t ~sector ~count out;
  out

let sector_count t data = max 1 (Bytes.length data / t.config.FConfig.sector_size)

let write_sectors ?(cls = Foreground) t ~sector data =
  let count = sector_count t data in
  let chip_idx = channel_of_range t ~sector ~count in
  run_sync t ~cls Program ~chip_idx ~addr:(local_sector t sector) ~count data

let erase_block ?(cls = Foreground) t b =
  let chip_idx = channel_of_block t b in
  run_sync t ~cls Erase ~chip_idx ~addr:(local_block t b) ~count:1 Bytes.empty

(* Invalidation is host-side bookkeeping (free of charge on the chip), so
   it bypasses the scheduler entirely — but still dies with the device. *)
let invalidate_sectors t ~sector ~count =
  check_dead t;
  let chip_idx = channel_of_range t ~sector ~count in
  Chip.invalidate_sectors t.chans.(chip_idx).chip ~sector:(local_sector t sector) ~count

let sector_state t s =
  let chip_idx = channel_of_range t ~sector:s ~count:1 in
  Chip.sector_state t.chans.(chip_idx).chip (local_sector t s)

let free_sectors_in_block t b =
  Chip.free_sectors_in_block t.chans.(channel_of_block t b).chip (local_block t b)

let mark_bad t b = Chip.mark_bad t.chans.(channel_of_block t b).chip (local_block t b)
let is_bad t b = Chip.is_bad t.chans.(channel_of_block t b).chip (local_block t b)

let bad_blocks t =
  List.sort compare
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun i c -> List.map (fun lb -> (lb * nchips t) + i) (Chip.bad_blocks c.chip))
             t.chans)))

let erase_count t b = Chip.erase_count t.chans.(channel_of_block t b).chip (local_block t b)

let live_sectors t =
  Array.fold_left (fun acc c -> acc + Chip.live_sectors c.chip) 0 t.chans

let last_read_corrected t = Chip.last_read_corrected t.chans.(t.last_read_chan).chip

(* ------------------------------------------------------------------ *)
(* Asynchronous submission / completion                                *)

let submit_read_into t ~cls ~sector ~count dst =
  let chip_idx = channel_of_range t ~sector ~count in
  t.last_read_chan <- chip_idx;
  dispatch t ~sync:false ~cls Read ~chip_idx ~addr:(local_sector t sector) ~count dst

let submit_read t ~cls ~sector ~count =
  let out = sector_buffer t count in
  (out, submit_read_into t ~cls ~sector ~count out)

let submit_write t ~cls ~sector data =
  let count = sector_count t data in
  let chip_idx = channel_of_range t ~sector ~count in
  dispatch t ~sync:false ~cls Program ~chip_idx ~addr:(local_sector t sector) ~count data

let submit_erase t ~cls b =
  let chip_idx = channel_of_block t b in
  dispatch t ~sync:false ~cls Erase ~chip_idx ~addr:(local_block t b) ~count:1 Bytes.empty

(* Fire-and-forget submissions for callers that settle by class barrier
   (or not at all — scrub relocation), not by individual await. The tag
   never escapes, so the settling protocol is explicit at the call site. *)
let publish_write t ~cls ~sector data = ignore (submit_write t ~cls ~sector data : tag)
let publish_erase t ~cls b = ignore (submit_erase t ~cls b : tag)

let publish_read_into t ~cls ~sector ~count dst =
  ignore (submit_read_into t ~cls ~sector ~count dst : tag)

let await t tag =
  if tag >= 0 then begin
    let c = t.chans.(tag mod nchips t) in
    let i = find c tag 0 in
    (* -1: already settled *)
    if i >= 0 then finish t c ~cause:wait_await i
  end

let in_flight t = Array.fold_left (fun acc c -> acc + c.n) 0 t.chans

(* The durability barrier: the host clock advances past every outstanding
   foreground and log-flush completion. State-wise a no-op (execution is
   eager); time-wise it is the cost of waiting for the durability-relevant
   queues to drain at a force point. Background relocation traffic
   ([Merge_io], [Scrub]) is excluded: it models the FTL's cleaning
   engine, which orders its programs against the mapping journal
   per-chip and never stalls a commit. {!drain} waits for everything. *)
let durable_write c p = c.info.(slot c p) land 1 = 1 && class_of c p <= class_index Log_flush

let sort_ints a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let barrier t =
  let k = ref 0 in
  for ci = 0 to nchips t - 1 do
    let c = t.chans.(ci) in
    for i = 0 to c.n - 1 do
      if durable_write c i then begin
        t.durable.(!k) <- c.tags.(slot c i);
        incr k
      end
    done
  done;
  (* Promoted in tag (submission) order: promotion order decides the
     resulting timeline. Nothing settles before the last promotion, so
     every tag is still on its chip. *)
  sort_ints t.durable !k;
  for x = 0 to !k - 1 do
    let tag = t.durable.(x) in
    let c = t.chans.(tag mod nchips t) in
    let i = expedite t c (find c tag 0) in
    advance_now t wait_barrier (completion c i)
  done;
  for ci = 0 to nchips t - 1 do
    prune t t.chans.(ci)
  done

let drain t =
  Array.iter
    (fun c -> if c.n > 0 then advance_now t wait_barrier (completion c (c.n - 1)))
    t.chans;
  Array.iter (fun c -> prune t c) t.chans

(* ------------------------------------------------------------------ *)
(* Clock and stats                                                     *)

(* The host clock, or the last completion on any chip if later. *)
let makespan t =
  let m = ref t.clock.now in
  for ci = 0 to nchips t - 1 do
    let c = t.chans.(ci) in
    if c.n > 0 then m := fmax !m (completion c (c.n - 1))
  done;
  !m

let elapsed = makespan
let advance_time t dt = t.clock.now <- t.clock.now +. dt

let stats t =
  let agg = Array.fold_left (fun acc c -> FStats.add acc (Chip.stats c.chip)) FStats.zero t.chans in
  {
    agg with
    FStats.elapsed = elapsed t;
    FStats.mean_wear = agg.FStats.mean_wear /. float_of_int (nchips t);
  }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

(* A device hook is wrapped once and installed on every chip, replacing
   any hook installed on a chip directly; a hook installed directly on a
   chip after the device was built is never overwritten. *)
let set_fault_hook t hook =
  match hook with
  | Some f ->
      let numbered = Some (fun _local op -> f (op_count t - 1) op) in
      Array.iter (fun c -> Chip.set_fault_hook c.chip numbered) t.chans
  | None ->
      (* Clearing revives the device, like clearing a chip hook revives
         the chip. *)
      t.dead <- None;
      Array.iter (fun c -> Chip.set_fault_hook c.chip None) t.chans

let is_dead t = t.dead <> None

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

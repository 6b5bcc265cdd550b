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

(* A tag names one asynchronous submission:
   [(seq * num_chips + chip) * num_classes + class index], where [seq]
   numbers the device's submissions. An await therefore searches only the
   tag's own chip and class, and tag order is submission order. *)
type tag = int

let no_tag : tag = -1

(* The host virtual clock. A record whose one field is a float is stored
   flat, so advancing the clock allocates nothing. *)
type clock = { mutable now : float }

(* A chip's virtual timeline, its scheduled but unsettled operations, is
   the concatenation of its queues, in (start, tag) order: queue 0, the
   run queue, holds the started ones, queue [1 + k] the queued ones of
   class index [k] in FIFO order. An operation takes one of
   [queue_depth] preallocated slots, entry [s] of each flat array, and
   the queues and the free slots are lists linked through [next].
   [make_room] keeps [depth] below the queue depth before every push. A
   background op that yielded to a higher class at a flash-page boundary
   is back at the head of its class queue with the rest of its service
   time; the page it finished holds the chip until [held]. *)
type chan = {
  chip : Chip.t;
  clock : Float.Array.t;  (* the chip's clock cell, see [Chip.clock] *)
  tags : int array;  (* tag lsl 1, lor 1 for a program or erase *)
  next : int array;  (* the slot after [s] in its list; -1 last *)
  start : Float.Array.t;  (* moved by arrivals, promotions and yields *)
  dur : Float.Array.t;
  since : Float.Array.t;  (* submission time *)
  page : Float.Array.t;  (* the page time of an op that may yield, else 0 *)
  held : Float.Array.t;  (* one cell: the end of the last yield's page *)
  first : int array;  (* per queue, its first slot; -1 when empty *)
  last : int array;  (* per queue, its last slot *)
  mutable free : int;  (* the first free slot *)
  mutable depth : int;  (* slots in use *)
  mutable max_depth : int;
  mutable depth_sum : int;
  mutable depth_obs : int;
  submitted : int array;  (* per op class *)
  mutable yields : int;
}

type t = {
  chans : chan array;
  channels : int;
  ways : int;
  queue_depth : int;
  config : FConfig.t;  (* device-level geometry (num_blocks = total) *)
  spb : int;
  nsectors : int;
  mutable local : int;  (* the chip-local sector of the last [route] *)
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
  let floats () = Float.Array.make queue_depth 0.0 in
  {
    chip;
    clock = Chip.clock chip;
    tags = Array.make queue_depth 0;
    next = Array.init queue_depth (fun s -> if s + 1 < queue_depth then s + 1 else -1);
    start = floats ();
    dur = floats ();
    since = floats ();
    page = floats ();
    held = Float.Array.make 1 0.0;
    first = Array.make (1 + num_classes) (-1);
    last = Array.make (1 + num_classes) (-1);
    free = 0;
    depth = 0;
    max_depth = 0;
    depth_sum = 0;
    depth_obs = 0;
    submitted = Array.make num_classes 0;
    yields = 0;
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
    nsectors = FConfig.sectors_per_block config * config.FConfig.num_blocks;
    local = 0;
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
let num_sectors t = t.nsectors

(* ------------------------------------------------------------------ *)
(* Addressing: device block [b] -> chip [b mod n], local block [b / n]. *)

let check_block t b =
  if b < 0 || b >= t.config.FConfig.num_blocks then raise (Chip.Out_of_range b)

let check_sector t s = if s < 0 || s >= t.nsectors then raise (Chip.Out_of_range s)

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

(* Chip index of a device-address range; the chip-local address of its
   first sector goes to [t.local], so no pair is allocated. Multi-sector
   operations must stay within one erase block — the striping granularity
   — exactly the discipline the erase-unit-based storage layers above
   already obey. One chip stripes nothing, so there a range may cross
   blocks, as on the chip itself, and its addresses are the chip's: no
   division. Striped, device block [b] is local block [b / n] of chip
   [b mod n], two divisions. *)
let route t ~sector ~count =
  check_sector t sector;
  if count > 0 then check_sector t (sector + count - 1);
  let n = nchips t in
  if n = 1 then begin
    t.local <- sector;
    0
  end
  else begin
    let b = sector / t.spb in
    let off = sector - (b * t.spb) in
    if count > 1 && off + count > t.spb then
      invalid_arg "Flash_device: operation crosses an erase-block boundary";
    let lb = b / n in
    t.local <- (lb * t.spb) + off;
    b - (lb * n)
  end

(* ------------------------------------------------------------------ *)
(* Virtual-time scheduler                                              *)

(* A chip serves one operation at a time: each starts no earlier than the
   one ahead of it completes, and takes positive time. So completions
   ascend along a timeline as starts do: what the host clock has passed
   is a prefix, and at most one started op is still in progress. *)

let[@inline] end_at c s = Float.Array.get c.start s +. Float.Array.get c.dur s
let[@inline] class_of c s = (c.tags.(s) lsr 1) mod num_classes

(* The first nonempty queue from [q] on (past the last if none); the last up to [q] (or -1). *)
let rec next_queue c q = if q > num_classes || c.first.(q) >= 0 then q else next_queue c (q + 1)
let rec prev_queue c q = if q < 0 || c.first.(q) >= 0 then q else prev_queue c (q - 1)

(* When an op behind queue [q]'s last starts: [now], or that op's end;
   behind no op, not before the page of the last yield ends. *)
let[@inline] start_after c q now =
  if q < 0 then fmax now (Float.Array.get c.held 0) else fmax now (end_at c c.last.(q))

let[@inline] append c q s =
  c.next.(s) <- -1;
  if c.first.(q) < 0 then c.first.(q) <- s else c.next.(c.last.(q)) <- s;
  c.last.(q) <- s

let[@inline] prepend c q s =
  if c.first.(q) < 0 then begin
    c.next.(s) <- -1;
    c.last.(q) <- s
  end
  else c.next.(s) <- c.first.(q);
  c.first.(q) <- s

let[@inline] pop c q =
  let s = c.first.(q) in
  c.first.(q) <- c.next.(s);
  s

(* Unlink slot [s] from queue [q], walking to the slot ahead of it. *)
let remove c q s =
  if c.first.(q) = s then c.first.(q) <- c.next.(s)
  else begin
    let p = ref c.first.(q) in
    while c.next.(!p) <> s do
      p := c.next.(!p)
    done;
    c.next.(!p) <- c.next.(s);
    if c.last.(q) = s then c.last.(q) <- !p
  end

(* The slot of [tag] from slot [s] on along its list, or -1. *)
let rec slot_of c tag s = if s < 0 || c.tags.(s) lsr 1 = tag then s else slot_of c tag c.next.(s)

(* Move the class queues' started heads, a prefix of their concatenation,
   to the run queue; there are none while the run queue's last op runs. *)
let move_started t c =
  let now = t.clock.now and q = ref 1 in
  while !q <= num_classes do
    let s = c.first.(!q) in
    if s < 0 then incr q
    else if Float.Array.get c.start s <= now then append c 0 (pop c !q)
    else q := num_classes + 1
  done

let[@inline] start_due t c =
  if c.depth > 0 && (c.first.(0) < 0 || end_at c c.last.(0) <= t.clock.now) then move_started t c

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

(* Settle every op the clock has completed, in timeline order (the latency
   sums depend on it), freeing its slot: the run queue's, then the class
   queues' heads. An op in progress at a class queue's head moves to the
   run queue. *)
let prune t c =
  let now = t.clock.now and d = c.depth and q = ref (if c.depth > 0 then 0 else num_classes + 1) in
  while !q <= num_classes do
    let s = c.first.(!q) in
    if s < 0 then incr q
    else if end_at c s <= now then begin
      settle t (class_of c s) (end_at c s -. Float.Array.get c.since s);
      c.first.(!q) <- c.next.(s);
      c.next.(s) <- c.free;
      c.free <- s;
      c.depth <- c.depth - 1
    end
    else begin
      if !q > 0 && Float.Array.get c.start s <= now then append c 0 (pop c !q);
      q := num_classes + 1
    end
  done;
  if c.depth < d then observe_settled t

(* A submission against a full queue blocks the host until the first op
   completes: the model of a bounded hardware queue. *)
let make_room t c =
  prune t c;
  if c.depth >= t.queue_depth then begin
    advance_now t wait_backpressure (end_at c c.first.(next_queue c 0));
    prune t c
  end

(* Push back the class queues from queue [q] on, each op to start no
   earlier than the one ahead completes (the first, than slot [s]). The
   pass stops at the first op it does not move: every op behind it
   already starts no earlier than the one ahead of it ends. *)
let[@inline] push_back c s q =
  let prev_end = ref (end_at c s) and q = ref q and s = ref (-1) in
  if !q <= num_classes then s := c.first.(!q);
  while !q <= num_classes do
    if !s < 0 then begin
      incr q;
      if !q <= num_classes then s := c.first.(!q)
    end
    else if Float.Array.get c.start !s >= !prev_end then q := num_classes + 1
    else begin
      Float.Array.set c.start !s !prev_end;
      prev_end := !prev_end +. Float.Array.get c.dur !s;
      s := c.next.(!s)
    end
  done

(* Re-plan the class queues from queue [q] on behind slot [s], each op to
   start as soon as it was submitted and the op ahead completes: after a
   yield, an op queued behind the yielding op's end may start earlier. *)
let replan c s q =
  let prev_end = ref (end_at c s) in
  for q = q to num_classes do
    let s = ref c.first.(q) in
    while !s >= 0 do
      let start = fmax (Float.Array.get c.since !s) !prev_end in
      Float.Array.set c.start !s start;
      prev_end := start +. Float.Array.get c.dur !s;
      s := c.next.(!s)
    done
  done

(* An arrival of a higher class (Foreground or Log_flush) finds the run
   queue's one op, in progress, a multi-page background read or program
   ([page] > 0): it finishes the flash page it is on, then goes back to
   the head of its class queue with the rest of its service time, and the
   chip is held until that page ends. The page in progress always
   finishes, so an op on its last page runs to its end. True if it
   yielded. *)
let yield_page t c =
  let s = c.first.(0) in
  s >= 0
  && Float.Array.get c.page s > 0.0
  &&
  let pt = Float.Array.get c.page s and start = Float.Array.get c.start s in
  let fin = end_at c s in
  let boundary = start +. ((Float.floor ((t.clock.now -. start) /. pt) +. 1.0) *. pt) in
  fin -. boundary > 0.5 *. pt
  && begin
       ignore (pop c 0 : int);
       Float.Array.set c.held 0 boundary;
       Float.Array.set c.start s boundary;
       Float.Array.set c.dur s (fin -. boundary);
       prepend c (1 + class_of c s) s;
       c.yields <- c.yields + 1;
       true
     end

(* Schedule a new op of [cls] on chip [c], settled by the caller, and
   return its tag: it joins its class queue's tail, after every op of
   equal or higher priority, and pushes back the lower-priority queues
   (re-plans them, if a background op yielded to it). Pure time
   arithmetic: the data effects happened at submission. *)
let schedule t c ~chip_idx ~cls ~write ~page ~dur =
  let k = class_index cls and s = c.free in
  let yielded = k <= class_index Log_flush && yield_page t c in
  c.free <- c.next.(s);
  let tag = (((t.next_seq * nchips t) + chip_idx) * num_classes) + k in
  t.next_seq <- t.next_seq + 1;
  c.tags.(s) <- (tag lsl 1) lor Bool.to_int write;
  Float.Array.set c.dur s dur;
  Float.Array.set c.since s t.clock.now;
  Float.Array.set c.page s page;
  Float.Array.set c.start s (start_after c (prev_queue c (k + 1)) t.clock.now);
  append c (k + 1) s;
  c.depth <- c.depth + 1;
  if yielded then replan c s (k + 2) else push_back c s (k + 2);
  tag

(* The host waits for the op in slot [s] of queue [q], after [start_due].
   Deadline promotion, as a controller reorders its queue for a flush the
   host waits on: an op queued behind another queued op moves to the run
   queue's tail, pushing every queued op back. The clock then passes it,
   so the class queues stay in class order between calls. *)
let wait_for t c ~cause q s =
  if q > 0 && (c.first.(q) <> s || next_queue c 1 < q) then begin
    remove c q s;
    Float.Array.set c.start s (start_after c (prev_queue c 0) t.clock.now);
    append c 0 s;
    push_back c s 1
  end;
  advance_now t cause (end_at c s)

(* Schedule a synchronous op and wait for it, its class queue's tail. *)
let run_scheduled t c ~chip_idx ~cls ~write ~page ~dur =
  ignore (schedule t c ~chip_idx ~cls ~write ~page ~dur : tag);
  let q = 1 + class_index cls in
  wait_for t c ~cause:wait_sync q c.last.(q);
  prune t c

(* The host waits for [tag] on its chip [c]; false if it has settled. *)
let wait_tag t c ~cause tag =
  start_due t c;
  let s = slot_of c tag c.first.(0) in
  let q = if s >= 0 then 0 else 1 + (tag mod num_classes) in
  let s = if s >= 0 then s else slot_of c tag c.first.(q) in
  if s >= 0 then wait_for t c ~cause q s;
  s >= 0

let check_dead t =
  match t.dead with Some i -> raise (Chip.Power_loss i) | None -> ()

let note_submission c ~cls =
  c.submitted.(class_index cls) <- c.submitted.(class_index cls) + 1;
  let d = c.depth in
  if d > c.max_depth then c.max_depth <- d;
  c.depth_sum <- c.depth_sum + d;
  c.depth_obs <- c.depth_obs + 1

(* The three physical operations, on a chip-local address: a sector, or
   an erase's block. *)
type kind = Read | Program | Erase

(* The page time of an op that may yield: a background read or program.
   An erase never suspends. *)
let[@inline] yield_page_time t ~cls kind =
  match (cls, kind) with
  | (Foreground | Log_flush), _ | _, Erase -> 0.0
  | (Merge_io | Scrub), Read -> t.config.FConfig.t_read_page
  | (Merge_io | Scrub), Program -> t.config.FConfig.t_write_page

let execute chip kind ~addr ~count data =
  match kind with
  | Read -> Chip.read_sectors_into chip ~sector:addr ~count data
  | Program -> Chip.write_sectors_from chip ~sector:addr ~count data
  | Erase -> Chip.erase_block chip addr

(* Run one physical operation eagerly on its chip, measuring its service
   time from the chip's own clock (so the device never re-implements the
   chip's timing model), and schedule its completion. A synchronous
   operation ([sync]) then waits for it and returns [no_tag]; an
   asynchronous one returns its tag. A synchronous operation that finds
   its chip idle skips the timeline: it starts now and completes at [now
   +. dur], the values the timeline would give it. Failed operations
   charge no time, except a torn program: its partial program is folded
   in synchronously before the power dies. *)
let dispatch t ~sync ~cls kind ~chip_idx ~addr ~count data =
  check_dead t;
  let c = t.chans.(chip_idx) in
  make_room t c;
  note_submission c ~cls;
  let write = match kind with Read -> false | Program | Erase -> true in
  let page = yield_page_time t ~cls kind in
  let t0 = Float.Array.get c.clock 0 in
  match execute c.chip kind ~addr ~count data with
  | () ->
      let dur = Float.Array.get c.clock 0 -. t0 in
      if sync && c.depth = 0 then begin
        let now = t.clock.now in
        let fin = now +. dur in
        settle t (class_index cls) (fin -. now);
        observe_settled t;
        advance_now t wait_sync fin;
        no_tag
      end
      else if sync then begin
        run_scheduled t c ~chip_idx ~cls ~write ~page ~dur;
        no_tag
      end
      else schedule t c ~chip_idx ~cls ~write ~page ~dur
  | exception e ->
      (match e with
      | Chip.Power_loss _ -> t.dead <- Some (max 0 (op_count t - 1))
      | _ -> ());
      let dur = Float.Array.get c.clock 0 -. t0 in
      if dur > 0.0 then run_scheduled t c ~chip_idx ~cls ~write ~page ~dur;
      raise e

let run_sync t ~cls kind ~chip_idx ~addr ~count data =
  ignore (dispatch t ~sync:true ~cls kind ~chip_idx ~addr ~count data : tag)

(* ------------------------------------------------------------------ *)
(* Synchronous chip-compatible surface                                 *)

let read_sectors_into ?(cls = Foreground) t ~sector ~count dst =
  let chip_idx = route t ~sector ~count in
  t.last_read_chan <- chip_idx;
  run_sync t ~cls Read ~chip_idx ~addr:t.local ~count dst

let sector_buffer t count = Bytes.create (max 0 count * t.config.FConfig.sector_size)

let read_sectors ?cls t ~sector ~count =
  let out = sector_buffer t count in
  read_sectors_into ?cls t ~sector ~count out;
  out

(* Sectors a program of [data] covers, at least one: a one-sector
   program, the log's, divides nothing. *)
let sector_count t data =
  let len = Bytes.length data and ss = t.config.FConfig.sector_size in
  if len < 2 * ss then 1 else len / ss

let write_sectors_from ?(cls = Foreground) t ~sector ~count data =
  let chip_idx = route t ~sector ~count in
  run_sync t ~cls Program ~chip_idx ~addr:t.local ~count data

let write_sectors ?cls t ~sector data =
  write_sectors_from ?cls t ~sector ~count:(sector_count t data) data

let erase_block ?(cls = Foreground) t b =
  let chip_idx = channel_of_block t b in
  run_sync t ~cls Erase ~chip_idx ~addr:(local_block t b) ~count:1 Bytes.empty

(* Invalidation is host-side bookkeeping (free of charge on the chip), so
   it bypasses the scheduler entirely — but still dies with the device. *)
let invalidate_sectors t ~sector ~count =
  check_dead t;
  let chip_idx = route t ~sector ~count in
  Chip.invalidate_sectors t.chans.(chip_idx).chip ~sector:t.local ~count

let sector_state t s =
  let chip_idx = route t ~sector:s ~count:1 in
  Chip.sector_state t.chans.(chip_idx).chip t.local

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
  let chip_idx = route t ~sector ~count in
  t.last_read_chan <- chip_idx;
  dispatch t ~sync:false ~cls Read ~chip_idx ~addr:t.local ~count dst

let submit_read t ~cls ~sector ~count =
  let out = sector_buffer t count in
  (out, submit_read_into t ~cls ~sector ~count out)

let submit_write_from t ~cls ~sector ~count data =
  let chip_idx = route t ~sector ~count in
  dispatch t ~sync:false ~cls Program ~chip_idx ~addr:t.local ~count data

let submit_write t ~cls ~sector data =
  submit_write_from t ~cls ~sector ~count:(sector_count t data) data

let submit_erase t ~cls b =
  let chip_idx = channel_of_block t b in
  dispatch t ~sync:false ~cls Erase ~chip_idx ~addr:(local_block t b) ~count:1 Bytes.empty

(* Fire-and-forget submissions for callers that settle by class barrier
   (or not at all — scrub relocation), not by individual await. The tag
   never escapes, so the settling protocol is explicit at the call site. *)
let publish_write t ~cls ~sector data = ignore (submit_write t ~cls ~sector data : tag)

let publish_write_from t ~cls ~sector ~count data =
  ignore (submit_write_from t ~cls ~sector ~count data : tag)

let publish_erase t ~cls b = ignore (submit_erase t ~cls b : tag)

let publish_read_into t ~cls ~sector ~count dst =
  ignore (submit_read_into t ~cls ~sector ~count dst : tag)

let chan_of_tag t tag = t.chans.(tag / num_classes mod nchips t)

let await t tag =
  if tag >= 0 then begin
    let c = chan_of_tag t tag in
    if wait_tag t c ~cause:wait_await tag then prune t c
  end

let in_flight t = Array.fold_left (fun acc c -> acc + c.depth) 0 t.chans

let completion t tag =
  if tag < 0 then None
  else begin
    let c = chan_of_tag t tag in
    let s = slot_of c tag c.first.(0) in
    let s = if s >= 0 then s else slot_of c tag c.first.(1 + (tag mod num_classes)) in
    if s >= 0 then Some (end_at c s) else None
  end

(* The durability barrier: the host clock advances past every outstanding
   foreground and log-flush completion. State-wise a no-op (execution is
   eager); time-wise it is the cost of waiting for the durability-relevant
   queues to drain at a force point. Background relocation traffic
   ([Merge_io], [Scrub]) is excluded: it models the FTL's cleaning
   engine, which orders its programs against the mapping journal
   per-chip and never stalls a commit. {!drain} waits for everything. *)
let durable_write c s = c.tags.(s) land 1 = 1 && class_of c s <= class_index Log_flush

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
    (* The run queue and the queues of the two durable classes. *)
    for q = 0 to 1 + class_index Log_flush do
      let s = ref c.first.(q) in
      while !s >= 0 do
        if durable_write c !s then begin
          t.durable.(!k) <- c.tags.(!s) lsr 1;
          incr k
        end;
        s := c.next.(!s)
      done
    done
  done;
  (* Promoted in tag (submission) order: promotion order decides the
     resulting timeline. Nothing settles before the last promotion, so
     every tag is still on its chip. *)
  sort_ints t.durable !k;
  for x = 0 to !k - 1 do
    let tag = t.durable.(x) in
    ignore (wait_tag t (chan_of_tag t tag) ~cause:wait_barrier tag : bool)
  done;
  for ci = 0 to nchips t - 1 do
    prune t t.chans.(ci)
  done

let drain t =
  Array.iter
    (fun c -> advance_now t wait_barrier (start_after c (prev_queue c num_classes) t.clock.now))
    t.chans;
  Array.iter (fun c -> prune t c) t.chans

(* ------------------------------------------------------------------ *)
(* Clock and stats                                                     *)

(* The host clock, or the last completion on any chip if later. *)
let makespan t =
  let m = ref t.clock.now in
  for ci = 0 to nchips t - 1 do
    m := start_after t.chans.(ci) (prev_queue t.chans.(ci) num_classes) !m
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
  yields : int;
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
           yields = c.yields;
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
                   ("yields", J.Int r.yields);
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

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

(* The host virtual clock (multi-chip mode). A record whose one field is a
   float is stored flat, so advancing the clock allocates nothing. *)
type clock = { mutable now : float }

(* A chip's virtual timeline: its scheduled but unsettled operations, in
   slots [0, n) ascending (start, tag). Slot [i] is entry [i] of each of
   the flat arrays below, allocated once with [queue_depth] entries, so
   scheduling allocates nothing; [make_room] keeps [n] below the queue
   depth before every push. *)
type chan = {
  chip : Chip.t;
  tags : int array;
  info : int array;  (* class index lsl 1, lor 1 for a program or erase *)
  start : Float.Array.t;  (* a promotion or an arrival may push a queued op back *)
  dur : Float.Array.t;
  since : Float.Array.t;  (* submission time *)
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
  clock : clock;
  mutable next_seq : int;
  lat : Obs.Metrics.Latency.t array;  (* per-class submit-to-completion *)
  settled : Float.Array.t array;
      (* per class: the latencies one [prune] settles, observed as a batch *)
  settled_n : int array;
  durable : int array;  (* a barrier's tags, sorted in place *)
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
  {
    chip;
    tags = Array.make queue_depth no_tag;
    info = Array.make queue_depth 0;
    start = Float.Array.make queue_depth 0.0;
    dur = Float.Array.make queue_depth 0.0;
    since = Float.Array.make queue_depth 0.0;
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

let make ~channels ~ways ~queue_depth ~single config chips =
  {
    chans = Array.map (mk_chan ~queue_depth) chips;
    channels;
    ways;
    queue_depth;
    config;
    spb = FConfig.sectors_per_block config;
    single;
    clock = { now = 0.0 };
    next_seq = 0;
    lat = Array.init num_classes (fun _ -> Obs.Metrics.Latency.create ());
    settled = Array.init num_classes (fun _ -> Float.Array.make queue_depth 0.0);
    settled_n = Array.make num_classes 0;
    durable = Array.make (Array.length chips * queue_depth) no_tag;
    dead = None;
    hook = None;
    ops = 0;
    last_read_chan = 0;
    waits = Array.make num_wait_causes 0.0;
  }

let of_chip chip =
  make ~channels:1 ~ways:1 ~queue_depth:1 ~single:true (Chip.config chip) [| chip |]

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
    if
      not
        (config.FConfig.t_read_page > 0.0
        && config.FConfig.t_write_page > 0.0
        && config.FConfig.t_erase_block > 0.0)
    then invalid_arg "Flash_device.create: a multi-chip device needs positive op timings";
    let per_chip = { config with FConfig.num_blocks = config.FConfig.num_blocks / n } in
    let t = make ~channels ~ways ~queue_depth ~single:false config (Chip.create_shared n per_chip) in
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

let local_block t b = if t.single then b else b / nchips t

(* Chip index of a device-address range. Multi-sector operations must
   stay within one erase block — the striping granularity — exactly the
   discipline the erase-unit-based storage layers above already obey. *)
let channel_of_range t ~sector ~count =
  check_sector t sector;
  if count > 0 then check_sector t (sector + count - 1);
  if t.single then 0
  else begin
    let b = sector / t.spb in
    if count > 1 && (sector + count - 1) / t.spb <> b then
      invalid_arg "Flash_device: operation crosses an erase-block boundary";
    b mod nchips t
  end

(* Chip-local flat address of a device sector. *)
let local_sector t s =
  if t.single then s else (s / t.spb / nchips t * t.spb) + (s mod t.spb)

(* ------------------------------------------------------------------ *)
(* Virtual-time scheduler (multi-chip mode only)                       *)

(* A chip serves one operation at a time: [place] starts every operation
   no earlier than the completion of each one ahead of it on the
   timeline, and every scheduled operation takes positive time. So
   completion times ascend along a timeline just as start times do: the
   operations the host clock has passed are the timeline's prefix, its
   first operation completes earliest and its last one latest. *)

let[@inline] start_of c i = Float.Array.get c.start i
let[@inline] completion c i = Float.Array.get c.start i +. Float.Array.get c.dur i
let[@inline] class_of c i = c.info.(i) lsr 1
let[@inline] queued t c i = start_of c i > t.clock.now

let move c ~src ~dst =
  c.tags.(dst) <- c.tags.(src);
  c.info.(dst) <- c.info.(src);
  Float.Array.set c.start dst (Float.Array.get c.start src);
  Float.Array.set c.dur dst (Float.Array.get c.dur src);
  Float.Array.set c.since dst (Float.Array.get c.since src)

(* The slot of [tag] on chip [c], searching from slot [i]; -1 once it has
   settled. *)
let rec find c tag i = if i >= c.n then -1 else if c.tags.(i) = tag then i else find c tag (i + 1)

(* Drop (and account) every operation whose completion the host clock has
   passed — the timeline's prefix, so this returns at once when the first
   has not completed. Settles in timeline order (the latency sums depend
   on it). *)
let prune t c =
  let now = t.clock.now in
  if c.n > 0 && completion c 0 <= now then begin
    let k = ref 0 in
    while !k < c.n && completion c !k <= now do
      let cls = class_of c !k in
      let m = t.settled_n.(cls) in
      Float.Array.set t.settled.(cls) m (completion c !k -. Float.Array.get c.since !k);
      t.settled_n.(cls) <- m + 1;
      incr k
    done;
    for cls = 0 to num_classes - 1 do
      let m = t.settled_n.(cls) in
      if m > 0 then begin
        Obs.Metrics.Latency.observe_batch t.lat.(cls) t.settled.(cls) m;
        t.settled_n.(cls) <- 0
      end
    done;
    for i = !k to c.n - 1 do
      move c ~src:i ~dst:(i - !k)
    done;
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

(* Restore (start, tag) order after start times moved. Tags are unique, so
   the order is total. The timeline holds at most [queue_depth] ops and is
   nearly sorted, so insertion sort. *)
let sort_timeline c =
  for i = 1 to c.n - 1 do
    let tag = c.tags.(i) and info = c.info.(i) in
    let s = start_of c i and d = Float.Array.get c.dur i and since = Float.Array.get c.since i in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let sj = start_of c !j in
      s < sj || (s = sj && tag < c.tags.(!j))
    do
      move c ~src:!j ~dst:(!j + 1);
      decr j
    done;
    let j = !j + 1 in
    if j < i then begin
      c.tags.(j) <- tag;
      c.info.(j) <- info;
      Float.Array.set c.start j s;
      Float.Array.set c.dur j d;
      Float.Array.set c.since j since
    end
  done

(* Whether [place] pushes the op in slot [j] back behind the one in slot
   [i]: it is queued and of a class index above [cutoff]. *)
let[@inline] behind t c ~i ~cutoff j = j <> i && queued t c j && class_of c j > cutoff

(* Start the op in slot [i] after every other op that [behind] does not
   select; push the selected ones back behind it in timeline order, each
   starting no earlier than the previous one ends; then restore the
   timeline's order. Returns the op's new slot. *)
let place t c i ~cutoff =
  let base = ref t.clock.now in
  for j = 0 to c.n - 1 do
    if j <> i && not (behind t c ~i ~cutoff j) then base := fmax !base (completion c j)
  done;
  Float.Array.set c.start i !base;
  let prev_end = ref (completion c i) in
  for j = 0 to c.n - 1 do
    if behind t c ~i ~cutoff j then begin
      Float.Array.set c.start j (fmax (start_of c j) !prev_end);
      prev_end := completion c j
    end
  done;
  let tag = c.tags.(i) in
  sort_timeline c;
  find c tag 0

(* Schedule a new operation of [cls] on chip [c] and return its slot. It
   starts after the in-progress operation and every queued operation of
   equal or higher priority (FIFO within a class), and preempts queued
   lower-priority operations, which are pushed back. Pure time
   arithmetic: the data effects already happened at submission.

   Between calls the queued operations (a suffix of the timeline) are in
   priority order: an arrival goes ahead of the lower-priority ones only,
   and every promotion is followed by advancing the host clock past the
   promoted operation, which is then no longer queued. So unless the
   last operation is a queued one of lower priority, none is, and the
   common case is O(1): the new operation starts when the last one
   completes, and is last in (start, tag) order. *)
let[@inline] schedule t c ~chip_idx ~cls ~write ~dur =
  let i = c.n and k = class_index cls and now = t.clock.now in
  c.tags.(i) <- (t.next_seq * nchips t) + chip_idx;
  t.next_seq <- t.next_seq + 1;
  c.info.(i) <- (k lsl 1) lor Bool.to_int write;
  Float.Array.set c.start i now;
  Float.Array.set c.dur i dur;
  Float.Array.set c.since i now;
  c.n <- i + 1;
  if i = 0 then i
  else if not (behind t c ~i ~cutoff:k (i - 1)) then begin
    Float.Array.set c.start i (fmax now (completion c (i - 1)));
    i
  end
  else place t c i ~cutoff:k

(* Deadline promotion: the host is blocked on the op in slot [i]. If it
   has not started yet, nothing on its chip is more urgent — move it ahead
   of every other queued (not yet started) operation, pushing them back. A
   real controller reorders its internal queue the same way when a flush
   the host is waiting on sits behind readahead traffic. Pure time
   arithmetic; execution was eager. Returns the op's slot. *)
let expedite t c i = if queued t c i then place t c i ~cutoff:(-1) else i

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
   chip's timing model), and schedule its completion; returns its slot.
   Failed operations normally charge no time; the exception is a torn
   program, which charges the partial program before the power dies —
   that time is folded in synchronously so the clock stays consistent. *)
let dispatch t ~cls kind ~chip_idx ~addr ~count data =
  check_dead t;
  let c = t.chans.(chip_idx) in
  make_room t c;
  note_submission t c ~cls;
  let write = match kind with Read -> false | Program | Erase -> true in
  let t0 = Chip.elapsed c.chip in
  match execute c.chip kind ~addr ~count data with
  | () -> schedule t c ~chip_idx ~cls ~write ~dur:(Chip.elapsed c.chip -. t0)
  | exception e ->
      (match e with
      | Chip.Power_loss _ -> t.dead <- Some (max 0 (t.ops - 1))
      | _ -> ());
      let dur = Chip.elapsed c.chip -. t0 in
      if dur > 0.0 then begin
        let i = expedite t c (schedule t c ~chip_idx ~cls ~write ~dur) in
        advance_now t wait_sync (completion c i);
        prune t c
      end;
      raise e

let run_sync t ~cls kind ~chip_idx ~addr ~count data =
  if t.single then begin
    let c = t.chans.(0) in
    note_submission t c ~cls;
    let t0 = Chip.elapsed c.chip in
    execute c.chip kind ~addr ~count data;
    Obs.Metrics.Latency.observe t.lat.(class_index cls) (Chip.elapsed c.chip -. t0)
  end
  else begin
    let c = t.chans.(chip_idx) in
    let i = expedite t c (dispatch t ~cls kind ~chip_idx ~addr ~count data) in
    advance_now t wait_sync (completion c i);
    prune t c
  end

let run_async t ~cls kind ~chip_idx ~addr ~count data =
  if t.single then begin
    run_sync t ~cls kind ~chip_idx ~addr ~count data;
    no_tag
  end
  else t.chans.(chip_idx).tags.(dispatch t ~cls kind ~chip_idx ~addr ~count data)

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
  if t.single then begin
    let chip = t.chans.(0).chip in
    if Chip.is_dead chip then raise (Chip.Power_loss (Chip.op_count chip))
  end
  else check_dead t;
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
  if t.single then Chip.bad_blocks t.chans.(0).chip
  else
    List.sort compare
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i c ->
                 List.map (fun lb -> (lb * nchips t) + i) (Chip.bad_blocks c.chip))
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
  run_async t ~cls Read ~chip_idx ~addr:(local_sector t sector) ~count dst

let submit_read t ~cls ~sector ~count =
  let out = sector_buffer t count in
  (out, submit_read_into t ~cls ~sector ~count out)

let submit_write t ~cls ~sector data =
  let count = sector_count t data in
  let chip_idx = channel_of_range t ~sector ~count in
  run_async t ~cls Program ~chip_idx ~addr:(local_sector t sector) ~count data

let submit_erase t ~cls b =
  let chip_idx = channel_of_block t b in
  run_async t ~cls Erase ~chip_idx ~addr:(local_block t b) ~count:1 Bytes.empty

(* Fire-and-forget submissions for callers that settle by class barrier
   (or not at all — scrub relocation), not by individual await. The tag
   never escapes, so the settling protocol is explicit at the call site. *)
let publish_write t ~cls ~sector data = ignore (submit_write t ~cls ~sector data : tag)
let publish_erase t ~cls b = ignore (submit_erase t ~cls b : tag)

let publish_read_into t ~cls ~sector ~count dst =
  ignore (submit_read_into t ~cls ~sector ~count dst : tag)

let await t tag =
  if (not t.single) && tag >= 0 then begin
    let c = t.chans.(tag mod nchips t) in
    let i = find c tag 0 in
    (* -1: already settled *)
    if i >= 0 then begin
      let i = expedite t c i in
      advance_now t wait_await (completion c i);
      prune t c
    end
  end

let in_flight t = Array.fold_left (fun acc c -> acc + c.n) 0 t.chans

(* The durability barrier: the host clock advances past every outstanding
   foreground and log-flush completion. State-wise a no-op (execution is
   eager); time-wise it is the cost of waiting for the durability-relevant
   queues to drain at a force point. Background relocation traffic
   ([Merge_io], [Scrub]) is excluded: it models the FTL's cleaning
   engine, which orders its programs against the mapping journal
   per-chip and never stalls a commit. {!drain} waits for everything. *)
let durable_write c i = c.info.(i) land 1 = 1 && class_of c i <= class_index Log_flush

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
  if not t.single then begin
    let k = ref 0 in
    for ci = 0 to nchips t - 1 do
      let c = t.chans.(ci) in
      for i = 0 to c.n - 1 do
        if durable_write c i then begin
          t.durable.(!k) <- c.tags.(i);
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
  end

let drain t =
  if not t.single then begin
    Array.iter
      (fun c -> if c.n > 0 then advance_now t wait_barrier (completion c (c.n - 1)))
      t.chans;
    Array.iter (fun c -> prune t c) t.chans
  end

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

let elapsed t = if t.single then Chip.elapsed t.chans.(0).chip else makespan t

let advance_time t dt =
  if t.single then Chip.advance_time t.chans.(0).chip dt else t.clock.now <- t.clock.now +. dt

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

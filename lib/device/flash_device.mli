(** Multi-channel parallel flash device.

    Composes [channels x ways] independent {!Flash_sim.Flash_chip}
    instances behind one flat sector address space, striped by erase
    block: device block [b] lives on chip [b mod (channels * ways)]. On
    top of the chip-compatible synchronous surface it offers a tag-based
    asynchronous submission/completion interface and a per-chip I/O
    scheduler with op-class priorities (foreground read > log flush >
    merge/relocation > scrub) on the simulated clock.

    {b Execution model.} Operations execute {e eagerly} on their chip at
    submission, in submission order: sector states, stored bytes, wear,
    fault-hook consultation and statistics are identical to the serial
    path regardless of channel count. Only the {e completion time} of an
    asynchronous submission is deferred — each chip keeps a virtual
    timeline, and the host clock advances past a completion only at
    {!await} / {!barrier} (or when a sync operation lands behind it).
    Overlap across chips is deterministic clock arithmetic; there is no
    wall-clock concurrency. Consequently a data "hazard" between an
    in-flight write and a subsequent read cannot exist — the scheduler
    models queueing time only.

    Every device runs through this scheduler, a one-chip device
    included: on one chip asynchronous submissions queue behind each
    other and class priorities reorder them, just as on each chip of a
    wider device.

    {b Per-chip timeline.} Each chip's unsettled operations take
    [queue_depth] preallocated slots (flat arrays of start, duration,
    submission time and tag) and sit in five queues, lists linked
    through the slots: a run queue of started operations and one FIFO
    queue per op class. Their concatenation is the chip's timeline, in
    (start time, tag) order, and a chip serves one operation at a time,
    so completions ascend along it too. Per operation:
    - an arrival joins the tail of its class queue in O(1), with no scan
      and no slot moves; a float-only pass pushes back the start times
      of the queued lower-priority operations, up to the first it does
      not move;
    - a settle frees completed operations in timeline order and moves a
      class queue's head that is in progress to the run queue, O(1) per
      operation, and O(1) outright while the run queue's first
      operation is in progress; a full queue waits for its first
      operation;
    - a synchronous operation that finds its chip idle skips the
      timeline altogether;
    - a promotion (an await or a barrier of an operation queued behind
      another queued one) relinks the operation to the run queue's tail
      and pushes back every queued operation;
    - a multi-page [Merge_io] or [Scrub] read or program in progress
      when a [Foreground] or [Log_flush] operation arrives yields at a
      flash-page boundary: it finishes the page it is on (a chip reads or
      programs one page per command, [t_read_page] / [t_write_page]),
      the arrival starts when that page ends, and the rest of the
      operation goes back to the head of its class queue in the same
      slot, resuming behind every higher-class operation (the queues
      behind the arrival are re-planned, since an operation queued
      behind a yielding [Scrub] one may now start earlier). The page in
      progress always finishes, so an operation on its last page, a
      one-page operation and an erase (no erase suspend) never yield.
      Only completion times move: execution order, data and each chip's
      busy time are those of submission;
    - a tag encodes its chip and class, so an await searches only that
      chip's run queue and class queue, and a barrier collects durable
      writes from the run queue and the [Foreground] and [Log_flush]
      queues and sorts their tags in a preallocated array.

    A submission, an await, a barrier and a yield allocate nothing in
    the scheduler. *)

module Chip = Flash_sim.Flash_chip

type op_class =
  | Foreground  (** latency-critical reads on the query path *)
  | Log_flush  (** in-page / overflow log-sector programs *)
  | Merge_io  (** merge rewrites, reclamation erases, relocations *)
  | Scrub  (** preventive background relocation *)

val class_name : op_class -> string
val all_classes : op_class list

type tag
(** Completion handle of an asynchronous submission. *)

type t

val create :
  ?queue_depth:int -> channels:int -> ways:int -> Flash_sim.Flash_config.t -> t
(** Build a device of [channels * ways] chips from a device-level
    geometry; [num_blocks] must divide evenly across the chips.
    [queue_depth] (default 32) bounds outstanding operations per chip,
    and sizes each chip's timeline: a submission against a full queue
    stalls the host clock to the earliest completion. Every device, one
    chip included, needs positive op timings in [config], since its
    timelines rely on every operation taking time. *)

val of_chip : Chip.t -> t
(** Wrap an existing chip as a one-chip device at queue depth 1, whose
    clock starts at the chip's own ({!Chip.elapsed}): a device wrapped
    around a used chip reports the time the chip has spent. The device
    installs no fault hook of its own, so a hook installed directly on
    the chip, before or after wrapping, keeps firing with the chip's own
    operation numbering. A synchronous operation advances the device
    clock by its service time, as on the bare chip. *)

val config : t -> Flash_sim.Flash_config.t
(** Device-level geometry: [num_blocks] is the total across all chips. *)

val channels : t -> int
val ways : t -> int
val num_chips : t -> int
val queue_depth : t -> int

val chip : t -> int -> Chip.t
(** The underlying chip of channel [i] (tests and compatibility). *)

(** {1 Addressing} *)

val num_sectors : t -> int
val block_of_sector : t -> int -> int
val sector_of_block : t -> int -> int

val channel_of_block : t -> int -> int
(** Which chip a device block lives on — the bad-block manager uses this
    to keep relocation channel-local, the storage manager to stripe
    allocation. *)

(** {1 Synchronous operations}

    Drop-in equivalents of the chip operations, over device addresses.
    Multi-sector operations must stay within one erase block when the
    device has more than one chip (striping granularity); violations
    raise [Invalid_argument]. [cls] (default [Foreground]) attributes the
    operation to a scheduler class. *)

val read_sectors : ?cls:op_class -> t -> sector:int -> count:int -> bytes

val read_sectors_into : ?cls:op_class -> t -> sector:int -> count:int -> bytes -> unit
(** {!read_sectors} into the front of a caller-owned buffer of at least
    [count * sector_size] bytes (see {!Chip.read_sectors_into});
    [read_sectors] allocates one and calls this. *)

val write_sectors : ?cls:op_class -> t -> sector:int -> bytes -> unit

val write_sectors_from : ?cls:op_class -> t -> sector:int -> count:int -> bytes -> unit
(** Program the first [count] sectors of [data] (see
    {!Chip.write_sectors_from}); {!write_sectors} programs all of it. *)

val erase_block : ?cls:op_class -> t -> int -> unit
val invalidate_sectors : t -> sector:int -> count:int -> unit
val sector_state : t -> int -> Chip.sector_state
val free_sectors_in_block : t -> int -> int
val mark_bad : t -> int -> unit
val is_bad : t -> int -> bool
val bad_blocks : t -> int list
val erase_count : t -> int -> int
val live_sectors : t -> int
val last_read_corrected : t -> bool

(** {1 Asynchronous submission}

    The operation executes now (data, faults, wear); the returned tag
    settles when awaited. Exceptions therefore surface at submission,
    exactly where the serial path raised them. *)

val submit_read : t -> cls:op_class -> sector:int -> count:int -> bytes * tag

val submit_read_into : t -> cls:op_class -> sector:int -> count:int -> bytes -> tag
(** {!submit_read} into the front of a caller-owned buffer of at least
    [count * sector_size] bytes; [submit_read] allocates one and calls
    this. *)

val submit_write : t -> cls:op_class -> sector:int -> bytes -> tag

val submit_erase : t -> cls:op_class -> int -> tag

val publish_write : t -> cls:op_class -> sector:int -> bytes -> unit
(** Fire-and-forget {!submit_write}: the operation is published to its
    class queue and settled by a later {!barrier}/{!drain} (or, for
    background relocation, implicitly by the cleaning engine), never by an
    individual await. Use this instead of dropping a {!submit_write} tag. *)

val publish_write_from : t -> cls:op_class -> sector:int -> count:int -> bytes -> unit
(** {!publish_write} of the first [count] sectors of [data] only. *)

val publish_erase : t -> cls:op_class -> int -> unit
(** Fire-and-forget {!submit_erase}; see {!publish_write}. *)

val publish_read_into : t -> cls:op_class -> sector:int -> count:int -> bytes -> unit
(** Fire-and-forget {!submit_read} into a caller-owned buffer: the data
    is in the buffer on return, and the read's completion settles as the host clock passes it
    (or at {!drain}), never by an individual await. Background relocation
    reads use it, so they never block the host clock. *)

val await : t -> tag -> unit
(** Advance the host clock past the tag's completion. Idempotent; unknown
    (already-settled) tags are a no-op. *)

val barrier : t -> unit
(** Advance the host clock past every outstanding {!Foreground} and
    {!Log_flush} {e write} completion — the durability wait at a
    Meta_log / Trx_log force point. Reads are excluded (they have no
    durability semantics), as is background relocation traffic
    ([Merge_io], [Scrub]): it models the device's cleaning engine, which
    orders its programs per-chip and never stalls a commit. Waited-on
    operations that have not yet started are promoted to the head of
    their chip's queue, like a deadline-aware controller. *)

val drain : t -> unit
(** Advance the host clock past {e every} outstanding completion,
    background classes included — a full quiesce (checkpoint,
    shutdown). *)

val in_flight : t -> int
(** Outstanding (submitted, not yet settled) operations. *)

val completion : t -> tag -> float option
(** The scheduled completion time of an outstanding operation, if no
    other operation arrives or is promoted ahead of it; [None] once it
    has settled. *)

(** {1 Clock and stats} *)

val elapsed : t -> float
(** Simulated makespan so far: the host clock, or the last scheduled
    completion on any chip if that is later. *)

val advance_time : t -> float -> unit

val stats : t -> Flash_sim.Flash_stats.t
(** Aggregated over chips; [elapsed] is the device makespan (not the sum
    of per-chip busy times), [mean_wear] the cross-chip mean. *)

(** {1 Fault injection}

    A device-level hook is wrapped once and installed on every chip. It
    sees one global, deterministic operation numbering across all chips
    (submission order): the sum of the chips' own numbers, so on a
    one-chip device the chip's numbering. A [Fail_stop] (or a torn
    program) kills the whole device — power is shared — and every
    further operation raises {!Chip.Power_loss} until the hook is cleared
    with [set_fault_hook t None], which also revives the chips. A hook
    installed directly on a chip fires with that chip's numbering and is
    replaced only by a later [set_fault_hook]. *)

val set_fault_hook : t -> (int -> Chip.op -> Chip.fault_action) option -> unit
val is_dead : t -> bool

(** {1 Tracing and per-channel observability} *)

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Install on every chip. Chip-level events are stamped with the chip's
    own busy clock; layers above stamp their events with {!elapsed}. *)

val tracer : t -> Obs.Tracer.t option

type channel_report = {
  chan_index : int;
  busy_s : float;  (** chip busy time (sum of service times) *)
  utilization : float;  (** busy / device makespan *)
  max_queue_depth : int;
  mean_queue_depth : float;  (** queue depth observed at each submission *)
  submitted_by_class : (string * int) list;
  yields : int;
      (** times a background operation gave way to a higher class at a
          flash-page boundary *)
  chip_stats : Flash_sim.Flash_stats.t;
}

val channel_report : t -> channel_report list

val class_latency : t -> op_class -> Obs.Metrics.Latency.t
(** Submit-to-completion latency histogram of an op class: queueing
    behind the chip's other operations plus service time. *)

val to_json : t -> Ipl_util.Json.t
(** [{channels, ways, queue_depth, elapsed_s, per_channel: [...],
    op_class_latency: {...}}] — the device section of BENCH_ipl.json. *)

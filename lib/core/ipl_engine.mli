(** The IPL database engine: buffer manager + storage manager (Figure 2).

    Every page mutation updates the in-memory copy {e and} appends a
    physiological log record to the page's in-memory log sector. Log
    sectors are flushed to flash when they fill, when their page is
    evicted, and when one of their transactions commits. Dirty page images themselves are never written back: the
    stored image plus its log records {e is} the page.

    Transactions: {!begin_txn}/{!commit}/{!abort} implement the Section 5
    design over an abstract {!txn} handle. The engine serializes record
    applications (it is single-threaded); several transactions may be
    open at once as long as no two {e active} transactions modify the
    same record — the snapshot-isolation layer ([lib/txn]) enforces
    exactly that and is the intended multi-client front door. There is
    one engine mode: every engine keeps the system-wide transaction log,
    so work done under a transaction that never commits is rolled back
    by {!abort} or, after a crash, by {!restart}.

    The whole surface returns [(_, error) result]: device exceptions —
    the bad-block manager's ({!Resilience.Bbm.Degraded} /
    [Uncorrectable]) and the raw chip's (no manager installed) — become
    typed errors instead of escaping. [Flash_chip.Power_loss] still
    propagates: crash simulation must unwind the whole stack. Read-side
    entry points never refuse on a degraded device — read-only means
    reads still serve all committed data. The pre-redesign raising API
    survives only as the {!Unsafe} shim, for tests. *)

type t

type combined_stats = {
  storage : Ipl_storage.stats;
  pool : Bufmgr.Buffer_pool.stats;
  flash : Flash_sim.Flash_stats.t;
  resilience : Resilience.Bbm.stats;
}

type error =
  | Page_full  (** the target page has no room for the record *)
  | Record_too_large  (** payload exceeds {!max_record_payload} *)
  | Range_too_large  (** byte range exceeds one log record *)
  | No_such_slot  (** slot is not live on the page *)
  | Range_out_of_bounds  (** byte range falls outside the record *)
  | Bad_record_length  (** zero-length or oversized record payload *)
  | Device_degraded
      (** the spare pool is exhausted: the device is permanently read-only
          (reads still serve all committed data) *)
  | Read_failed  (** a flash read failed all its bounded retries *)
  | Device_fault
      (** an unrecoverable program/erase/wear fault escaped the device
          layers (no bad-block manager installed, or a fault outside its
          remit) *)

val error_to_string : error -> string
(** The exact strings of the pre-typed-error API ("page full",
    "slot not live", …), for callers that surface engine errors as text. *)

val pp_error : Format.formatter -> error -> unit

val create_device :
  ?config:Ipl_config.t ->
  ?meta_blocks:int ->
  ?trx_blocks:int ->
  Device.Flash_device.t ->
  t
(** Lay out a fresh database on the device: metadata-log region,
    transaction-log region, then the IPL
    data area. With [config.spare_blocks > 0] the last [spare_blocks]
    blocks of the device become a bad-block manager's spare pool and all
    data-area flash traffic is routed through it (see [lib/resilience]);
    mutations on a device whose pool has run out return
    [Error Device_degraded]. On a multi-channel device, page allocation
    stripes over the channels, merges copy across channels, and log
    flushes / merge writes are issued asynchronously; every commit /
    checkpoint / metadata force is a completion barrier. *)

val create :
  ?config:Ipl_config.t ->
  ?meta_blocks:int ->
  ?trx_blocks:int ->
  Flash_sim.Flash_chip.t ->
  t
(** {!create_device} over a single chip
    ({!Device.Flash_device.of_chip}) — bit-for-bit the pre-device serial
    engine. *)

val restart_device :
  ?config:Ipl_config.t ->
  ?meta_blocks:int ->
  ?trx_blocks:int ->
  Device.Flash_device.t ->
  t * int list
(** Re-open after a crash (same parameters as {!create_device}). Implicit
    REDO/UNDO per Section 5.4: transactions with no outcome record are
    aborted (their ids are returned); everything else is reconstructed
    on demand by the normal read path.

    With a usable fuzzy checkpoint on the metadata log, the restart scan
    reads only each covered erase unit's post-checkpoint log delta and
    returns as soon as the mapping and record counts are rebuilt; the
    covered log prefixes are re-read on first touch or via
    {!drain_repairs} (see {!Ipl_storage.recover}). Without one it reads
    every unit's whole log. Logical content is the same either way, and
    the same whether the repairs run at first touch or are drained
    first — only the flash-read schedule differs. *)

val restart :
  ?config:Ipl_config.t ->
  ?meta_blocks:int ->
  ?trx_blocks:int ->
  Flash_sim.Flash_chip.t ->
  t * int list
(** {!restart_device} over a single chip. *)

val config : t -> Ipl_config.t

val device : t -> Device.Flash_device.t

val storage : t -> Ipl_storage.t

val elapsed : t -> float
(** Simulated time on the engine's device clock (seconds) — the makespan
    clock the upper layers report throughput against. *)

(** {1 Transactions}

    Transactions are identified by an abstract {!txn} handle; the raw
    integer id behind it (the id stored in log records and the
    transaction log) is exposed read-only through {!txn_id}. *)

type txn
(** An open transaction. Handles are engine-specific and single-use:
    after {!commit} or {!abort} the handle is dead. *)

val no_txn : txn
(** The non-transaction (id 0): mutations carrying it are implicitly
    committed, exactly the pre-redesign [~tx:0] convention. *)

val txn_id : txn -> int

val begin_txn : t -> (txn, error) result

val commit : t -> txn -> (unit, error) result
(** With a commit window of 0 (the default): forces the in-memory log
    sectors of every page the transaction touched, then the commit
    record — the no-force-of-data / force-log-at-commit policy of
    Section 5.2. With a window of [n > 0] ({!set_group_commit}): the
    commit is recorded and its [Commit] event emitted, and the commit
    that fills the window runs {!flush_commits} before returning, so a
    device fault in that flush surfaces here. Otherwise the batch waits
    for {!flush_commits} or {!checkpoint}; {!pending_commits} falling
    back to 0 is the sign that a batch has settled. *)

val abort : t -> txn -> (unit, error) result
(** Rolls back in-memory changes and leaves flash records to be dropped
    by selective merges. Never refused on a degraded device: the in-memory
    rollback always runs, even when appending the abort record fails. *)

val flush_commits : t -> (unit, error) result
(** Make all batched (group) commits durable now: flush the dirty
    in-memory log sectors, publish the metadata and transaction logs,
    and settle everything with one device barrier. *)

val set_group_commit : t -> int -> unit
(** Set the commit-batching window, the engine's only group-commit
    mechanism: 0 (the default) forces every commit, [n > 0] settles
    commits [n] at a time with one batch flush. [Mvcc.create] ([lib/txn])
    sets it from its [group_window]. *)

val pending_commits : t -> int
(** Commits recorded but not yet made durable by a batch flush. *)

val txn_status : t -> int -> Trx_log.status

(** {1 Pages and records} *)

val allocate_page : t -> (int, error) result

val allocate_page_with : t -> Storage.Page.t -> (int, error) result
(** Bulk-load path: place a pre-filled page image (not logged). *)

val page_count : t -> int

val insert : t -> tx:txn -> page:int -> bytes -> (int, error) result
val delete : t -> tx:txn -> page:int -> slot:int -> (unit, error) result

val update : t -> tx:txn -> page:int -> slot:int -> bytes -> (unit, error) result
(** Replace a record's payload. Equal-length replacements are logged as
    byte-range deltas — one record per differing range, chunked to fit log
    sectors; identical payloads log nothing. Size-changing replacements
    log a full before/after image, or a delete/insert pair when that image
    would not fit one log sector. *)

val update_range :
  t -> tx:txn -> page:int -> slot:int -> offset:int -> bytes -> (unit, error) result
(** Overwrite a byte range of the record in place (smallest log records). *)

val max_record_payload : t -> int
(** Largest record (or insert payload) the logging path accepts; larger
    inserts return [Error Record_too_large]. *)

val read : t -> page:int -> slot:int -> (bytes option, error) result
(** Current committed-plus-active image of the record ([None] = slot not
    live). Never refuses on a degraded device. *)

val prefetch : t -> int list -> (unit, error) result
(** Batched read-ahead: fetch the batch's missing pages through the
    storage manager's parallel read path ({!Ipl_storage.read_pages} —
    pages on different channels are read in parallel on the simulated
    clock) and install them as clean buffer-pool frames. Resident pages,
    unknown ids and duplicates are skipped; a later {!read} of a
    prefetched page is a pool hit. *)

type prefetch_token

val prefetch_start : t -> int list -> (prefetch_token, error) result
(** First half of {!prefetch}: submit the batch's missing-page reads
    without waiting for their simulated completion. Issue before a
    {!commit} and the commit's durability barrier absorbs the read
    latency — {!prefetch_finish} then settles for free. Only sound for
    pages the pending transaction has not touched (a non-resident page
    has no unflushed records, so the captured image is current). *)

val prefetch_finish : t -> prefetch_token -> (unit, error) result
(** Second half of {!prefetch}: await the batch and install the pages as
    clean frames. *)

val with_page : t -> int -> (Storage.Page.t -> 'a) -> ('a, error) result
(** Read-only access to the current version of a page through the buffer
    pool. The callback must not mutate the page, and must not keep it —
    nor return it, nor anything sharing its bytes — after it returns: a
    later miss may evict the frame and re-read another page straight into
    the same bytes. Copy out what must outlive the callback
    ({!Storage.Page.read} and {!Storage.Page.iter} already copy). *)

val page_free_space : t -> int -> (int, error) result

(** {1 Maintenance} *)

val checkpoint : t -> (unit, error) result
(** Flush all in-memory log sectors and force the metadata (and
    transaction) logs; a full device quiesce. Drains all pending restart
    repairs first, and — when [config.checkpoint_every > 0] — forces a
    fresh fuzzy checkpoint, so a restart after a clean checkpoint has
    nothing to rescan. *)

val compact : t -> max_merges:int -> (int, error) result
(** Background merging: merge up to [max_merges] of the erase units whose
    log regions are fullest, returning how many were merged. Doing this
    at idle moments moves merge latency off the update path. Also drains
    up to [max_merges] pending lazy repairs — the same idle-time
    catch-up budget. *)

val repair_pending : t -> int
(** Erase units still awaiting on-demand repair after a restart (0 when
    no usable checkpoint covered any unit, and once repair has
    drained). *)

val drain_repairs : t -> max_eus:int -> (int, error) result
(** Background repair drainer: repair up to [max_eus] pending units now
    (re-read their covered log prefixes, re-warm the record cache),
    returning the number repaired. Never refused on a degraded device —
    repair is read-only. First-touch repair happens implicitly; this
    merely moves it off the foreground read path. *)

val stats : t -> combined_stats

module Stats : Ipl_util.Stats_intf.S with type t = combined_stats
(** Interval measurement, aggregation and JSON export over the combined
    record, composed field-wise from the layer [Stats] modules. *)

(** {1 Resilience} *)

val degraded : t -> bool
(** [true] once the spare pool is exhausted: the device is read-only.
    Always [false] when [spare_blocks = 0]. *)

val spares_left : t -> int
val bbm : t -> Resilience.Bbm.t option

(** {1 Observability} *)

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Install (or clear) one {!Obs.Tracer.t} across the whole stack: the
    flash chip (physical ops), the storage manager (log flushes, merges,
    diversions, page events), the buffer pool (evictions, write-backs —
    timestamped here with the chip's simulated clock) and the engine
    itself ({!Obs.Event.Commit}, [Abort], [Checkpoint]). *)

val tracer : t -> Obs.Tracer.t option

(** {1 Unsafe compatibility shim}

    The pre-redesign surface: integer transaction ids and raising entry
    points (device faults escape as their exceptions). Kept {e only} for tests, which predate
    the typed surface and drive fault injection through exceptions on
    purpose. Production callers use the result API above. *)

module Unsafe : sig
  val begin_txn : t -> int
  val commit : t -> int -> unit
  val abort : t -> int -> unit
  val flush_commits : t -> unit
  val txn : int -> txn
  (** Wrap a raw transaction id (as returned by {!begin_txn} or
      [restart]'s aborted list) for use with the record operations. *)

  val insert : t -> tx:int -> page:int -> bytes -> (int, error) result
  val delete : t -> tx:int -> page:int -> slot:int -> (unit, error) result
  val update : t -> tx:int -> page:int -> slot:int -> bytes -> (unit, error) result

  val update_range :
    t -> tx:int -> page:int -> slot:int -> offset:int -> bytes -> (unit, error) result

  val read : t -> page:int -> slot:int -> bytes option
  val allocate_page : t -> int
  val allocate_page_with : t -> Storage.Page.t -> int
  val prefetch : t -> int list -> unit
  val with_page : t -> int -> (Storage.Page.t -> 'a) -> 'a
  val page_free_space : t -> int -> int
  val checkpoint : t -> unit
  val compact : t -> max_merges:int -> int
  val drain_repairs : t -> max_eus:int -> int
end

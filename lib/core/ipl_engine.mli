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
    [Uncorrectable]) and the chip's under the metadata and transaction
    logs — become typed errors instead of escaping, and so does a page
    whose log records no longer apply ([Replay_failed]). [Flash_chip.Power_loss] still
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
      (** a failed program or erase found the spare pool empty: the
          device is permanently read-only (reads still serve all committed
          data) *)
  | Read_failed  (** a flash read failed all its bounded retries *)
  | Device_fault
      (** an unrecoverable program/erase/wear fault escaped the device
          layers (a fault outside the bad-block manager's remit: the
          system log) *)
  | Replay_failed of Log_record.replay_failure
      (** a page could not be computed from its stored image and its live
          log records: the named record no longer applies to the page
          (see {!Log_record.replay}). Every rebuild of a page — a read
          that misses the buffer pool, a merge's rewrite, an {!abort},
          the rebuild after a failed log flush — reports it this way.
          Today it arises when one transaction spends the bytes or the
          slot another live transaction freed, and the freeing
          transaction then aborts or loses at {!restart} *)

val error_to_string : error -> string
(** The exact strings of the pre-typed-error API ("page full",
    "slot not live", …), for callers that surface engine errors as text. *)

val pp_error : Format.formatter -> error -> unit

val create_device : ?config:Ipl_config.t -> Device.Flash_device.t -> t
(** Lay out a fresh database on the device: the system-log region (its
    first 8 blocks), then the IPL data area. All data-area flash
    traffic goes through a bad-block manager (see [lib/resilience])
    whose spare pool is the last [config.spare_blocks] blocks of the
    device, empty when that is 0; once a failed program or erase finds
    the pool empty the device is read-only, and mutations return
    [Error Device_degraded]. On a multi-channel device, page allocation
    stripes over the channels, merges copy across channels, and log
    flushes / merge writes are issued asynchronously; every commit /
    checkpoint / system-log force is a completion barrier. *)

val create : ?config:Ipl_config.t -> Flash_sim.Flash_chip.t -> t
(** {!create_device} over [chip] wrapped as a one-chip device at queue
    depth 1 ({!Device.Flash_device.of_chip}): the device clock starts at
    the chip's, and a fault plan installed on the chip fires with the
    chip's own operation numbering. *)

val restart_device : ?config:Ipl_config.t -> Device.Flash_device.t -> t * int list
(** Re-open after a crash (same parameters as {!create_device}). One
    scan of the system log yields the mapping and the transaction
    statuses. Implicit REDO/UNDO per Section 5.4: transactions with no
    outcome record are aborted (their ids are returned, in ascending
    order); everything else is reconstructed on demand by the normal
    read path. New transaction ids start above every id the log has
    seen, compacted-away ones included.

    The restart reads no in-page log sector: each erase unit's log is
    read at the unit's first touch or by {!drain_repairs} (see
    {!Ipl_storage.recover}). Logical content is the same whether the
    repairs run at first touch or are drained first; only the
    flash-read schedule differs. *)

val restart : ?config:Ipl_config.t -> Flash_sim.Flash_chip.t -> t * int list
(** {!restart_device} over a single chip. *)

val config : t -> Ipl_config.t

val device : t -> Device.Flash_device.t

val storage : t -> Ipl_storage.t

val system_log : t -> Meta_log.t
(** The one system log: mapping events and transaction statuses ({!Meta_log.compactions} counts its compactions). *)

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
(** Section 5.2's no-force-of-data / force-log-at-commit policy, with one
    protocol for every window ({!set_group_commit}). The commit is
    recorded, its [Commit] event emitted and its commit record deferred;
    the commit that fills the window runs {!flush_commits} before
    returning, so with the default window of 1 every commit is durable
    when it returns. A device fault in that flush surfaces here: this
    transaction then leaves the batch and is active again, so it can be
    {!abort}ed, while the batch's other members stay pending for the next
    {!flush_commits} or {!checkpoint}. {!pending_commits} falling back to
    0 is the sign that a batch has settled. *)

val abort : t -> txn -> (unit, error) result
(** Rolls back in-memory changes and leaves flash records to be dropped
    by selective merges. Never refused on a degraded device: the in-memory
    rollback always runs, even when appending the abort record fails.

    The rollback logs the abort record, reads the stored images of the
    buffered pages the transaction touched as one batch (with their live
    flash records applied, this transaction's now filtered out), then
    rebuilds those frames in page order, replaying the other
    transactions' buffered records on top. [Error (Replay_failed _)]
    means a record no longer applies to one of those pages, and the
    state is the one the failure left. The abort record is logged, so
    the transaction is aborted for every reader and for restart, but its
    handle stays open. If a flash record failed, no frame was rebuilt and
    every one still shows this transaction's changes. If a buffered
    record failed, the frames before its page are rebuilt, its page
    holds the fresh image with the records before the failing one, and
    the frames after it are untouched. Slotted-page space reservation
    (ROADMAP) is to make the failure impossible. *)

val flush_commits : t -> (unit, error) result
(** Make all batched commits durable now, with two device waits: flush
    every dirty in-memory log sector and publish the system log, wait
    for those programs (the write-ahead settle), then append and publish
    the batch's commit records and wait again. *)

val set_group_commit : t -> int -> unit
(** Set the commit window, the engine's only batching mechanism: commits
    settle [n] at a time with one batch flush. The default, 1, makes
    every commit durable before it returns. Raises [Invalid_argument] if
    [n < 1]. [Mvcc.create] ([lib/txn]) sets it from its
    [group_window]. *)

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

type prefetch_token

val prefetch_start : t -> int list -> (prefetch_token, error) result
(** Batched read-ahead, first half: submit the reads of the batch's
    missing pages through the storage manager's parallel read path
    ({!Ipl_storage.read_pages_start} — pages on different channels are
    read in parallel on the simulated clock) without waiting for their
    simulated completion. Resident pages, unknown ids and duplicates are
    skipped. Issue before a
    {!commit} and the commit's durability barrier absorbs the read
    latency — {!prefetch_finish} then settles for free. Only sound for
    pages the pending transaction has not touched (a non-resident page
    has no unflushed records, so the captured image is current). *)

val prefetch_finish : t -> prefetch_token -> (unit, error) result
(** Second half of {!prefetch_start}: await the batch and install the
    pages as clean buffer-pool frames; a later {!read} of a prefetched
    page is a pool hit. *)

val with_page : t -> int -> (Storage.Page.t -> 'a) -> ('a, error) result
(** Read-only access to the current version of a page through the buffer
    pool. The callback must not mutate the page, and must not keep it —
    nor return it, nor anything sharing its bytes — after it returns: a
    later miss may evict the frame and re-read another page straight into
    the same bytes. Copy out what must outlive the callback
    ({!Storage.Page.read} and {!Storage.Page.iter} already copy). *)

(** {1 Maintenance} *)

val checkpoint : t -> (unit, error) result
(** Settle the pending commit batch with {!flush_commits}, flush all
    in-memory log sectors and force the system log;
    a full device quiesce. Pending restart repairs are left to first
    touch and {!drain_repairs}. *)

val compact : t -> max_merges:int -> (int, error) result
(** Background merging: flush every dirty frame's log records, then
    merge up to [max_merges] of the erase units the write path would
    merge at its next flush — in-region log exhausted, carry fraction at
    most tau ({!Ipl_storage.merge_due_units}) — most log sectors first,
    returning how many were merged (0 when none is due). Doing this at
    idle moments moves a merge that is already owed off the update
    path; a unit with a free log sector is left alone, so compaction
    never erases a block early. Also drains up to [max_merges] pending
    restart repairs — the same idle-time catch-up budget. *)

val repair_pending : t -> int
(** Erase units whose log a restart has not read yet: every unit with a
    non-empty log right after a restart, falling to 0 as units are
    touched or drained. *)

val drain_repairs : t -> max_eus:int -> (int, error) result
(** Background repair drainer: repair up to [max_eus] pending units now
    (read their logs into the record cache, rebuild their counts),
    returning the number repaired. Never refused on a degraded device —
    repair is read-only. First-touch repair happens implicitly; this
    merely moves it off the foreground read path. *)

val stats : t -> combined_stats

module Stats : sig
  type t = combined_stats

  val to_json : t -> Ipl_util.Json.t
  (** One object with a [storage], [pool], [flash] and [resilience]
      member, each the layer's own [Stats.to_json]. Interval
      measurement diffs the layer records directly. *)
end

(** {1 Resilience} *)

val degraded : t -> bool
(** [true] once a relocation found the spare pool empty: the device is
    read-only. With [spare_blocks = 0] the first failed data-area program
    or erase degrades it. *)

val spares_left : t -> int

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
    points (device faults and [Log_record.Replay_failed] escape as
    exceptions). Kept {e only} for tests, which predate
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
  val with_page : t -> int -> (Storage.Page.t -> 'a) -> 'a
  val checkpoint : t -> unit
  val compact : t -> max_merges:int -> int
  val drain_repairs : t -> max_eus:int -> int

  val buffered_log : t -> int -> Log_record.t list option
  (** The in-memory log records of a resident page, in arrival order
      ([None] if the page is not in the buffer pool): with the stored
      image and flash log ({!Ipl_storage.read_page}) they make up the
      buffered page. *)
end

(** The in-page logging storage manager (Sections 3.2, 3.3 and 5.3).

    Every erase unit in the managed flash region is split into data pages
    and log sectors. Data pages are written exactly once per residence in
    an erase unit; all subsequent changes arrive as physiological log
    records flushed — one flash sector at a time — into the {e same} erase
    unit. Reading a page re-creates its current version on the fly by
    applying its log records to the stored image. When an erase unit runs
    out of log sectors, a merge (Algorithm 1, made selective by
    Algorithm 3) rewrites it into a freshly erased unit.

    The logical-to-physical page mapping changes only on merges and is
    persisted through a {!Meta_log.t}; crash recovery replays that log and
    rescans the in-page log sectors.

    Transaction-status filtering: log records of aborted transactions are
    never applied (neither on read nor at merge); records of transactions
    still active at merge time are carried over to the new erase unit, or
    — when they would dominate the merge ([carry fraction > tau]) — the
    incoming log sector is diverted to an overflow erase unit and the
    merge is postponed.

    A DRAM log-record cache ({!Cache.Log_cache}, budget
    [Ipl_config.log_cache_bytes]) keeps each hot erase unit's decoded
    records with a per-page index: cache hits serve reads and merges
    without re-scanning the flash log region. The cache is write-through
    (appends mirror successful log programs) and invalidated when a merge
    rewrites a unit; it holds no state flash does not, so crash recovery
    is unaffected. A restart re-warms it: a unit it reads in full has
    its decoded records installed right away, counted as
    [log_cache_misses]; a checkpoint-covered unit is re-warmed at first
    touch instead, counted as [log_cache_warm_entries].
    [log_cache_bytes = 0] disables it, reproducing the uncached engine
    bit-for-bit.

    {2 Fuzzy checkpoints and lazy restart}

    When [Ipl_config.checkpoint_every > 0] the engine periodically emits
    a {e fuzzy checkpoint} into the metadata log ({!emit_checkpoint}):
    one [Ckpt_eu] record per data erase unit with a non-empty log region
    — claiming that the first [used_log] in-region sectors and the
    oldest [overflow] overflow sectors of that unit decode to exactly
    [counts] records per transaction — sealed by a [Ckpt] footer naming
    the transactions active at the checkpoint and the durable
    transaction-log watermark. Nothing is quiesced and no data moves:
    the claim is a prefix of an append-only log, so it stays true as the
    log grows and is invalidated only when a merge or an overflow
    release recycles the unit (recovery voids coverage on those events).

    {!recover} seeds each covered unit's record counts from the last
    usable checkpoint, reads only the post-checkpoint {e delta} of its
    log, and files the unit in a repair table; a unit no checkpoint
    covers is read in full. The covered prefix is then re-read and replayed on-demand —
    at the unit's first read, merge or log flush ({!Obs.Event.Page_repaired})
    — or drained in the background via {!repair_step}. Until a unit is
    repaired its full record list has not been materialised, but its
    counts and mapping are exact, so every storage invariant (merge
    decisions, tau, durability) holds from the first transaction. *)

type t

type stats = {
  pages_allocated : int;
  page_reads : int;  (** data-page fetches from flash *)
  log_sector_writes : int;  (** in-page log sectors programmed *)
  overflow_sector_writes : int;
  log_sector_reads : int;
  merges : int;
  overflow_diversions : int;  (** flushes diverted because carry > tau *)
  records_applied_at_merge : int;
  records_dropped_aborted : int;
  records_carried_over : int;
  erase_units_reclaimed : int;  (** overflow areas garbage-collected *)
  log_cache_hits : int;
      (** log-region reads served from the DRAM record cache (no flash) *)
  log_cache_misses : int;  (** log-region reads that scanned flash *)
  log_cache_evictions : int;  (** cache entries dropped for the byte budget *)
  log_cache_warm_entries : int;
      (** cache entries installed by lazy post-crash repair (first-touch
          or background), as opposed to ordinary demand misses *)
  eus_repaired_lazily : int;
      (** erase units whose covered log prefix was replayed on demand
          after a lazy restart *)
}

val create :
  ?config:Ipl_config.t ->
  ?bbm:Resilience.Bbm.t ->
  Device.Flash_device.t ->
  first_block:int ->
  num_blocks:int ->
  txn_status:(int -> Trx_log.status) ->
  meta:Meta_log.t ->
  unit ->
  t
(** Manage blocks [first_block, first_block + num_blocks). All blocks are
    erased. The [meta] log must be empty (fresh database). With [bbm],
    every data-area flash operation is routed through the bad-block
    manager: block addresses become virtual, failed programs/erases are
    relocated transparently, and mutations raise
    {!Resilience.Bbm.Degraded} once the spare pool is exhausted (the
    engine turns that into its typed [Device_degraded] error). The
    manager's remap/retire state is included in metadata-log snapshot
    compactions. *)

val recover :
  ?config:Ipl_config.t ->
  ?bbm:Resilience.Bbm.t ->
  ?trx_durable:int ->
  Device.Flash_device.t ->
  first_block:int ->
  num_blocks:int ->
  txn_status:(int -> Trx_log.status) ->
  meta:Meta_log.t ->
  meta_events:Meta_log.event list ->
  unit ->
  t
(** Rebuild state after a crash from the replayed metadata events plus a
    scan of the flash region. Unreferenced half-written erase units (from
    a crash mid-merge) are erased. [bbm] must already have had the
    [Remap]/[Retire]/[Degraded] events replayed into it (they are ignored
    here).

    [trx_durable] is the recovered transaction log's durable sector count
    ({!Trx_log.durable_sectors} after {!Trx_log.recover}); a checkpoint
    footer whose watermark exceeds it is discarded, since the statuses
    its counts were filtered against never reached flash. The scan
    reads only each covered unit's post-checkpoint log delta and defers
    the covered prefix to on-demand repair (see the header); units no
    usable checkpoint covers are read in full, and without one the
    repair table stays empty. *)

val config : t -> Ipl_config.t

val allocate_page : t -> Storage.Page.t -> int
(** Place a new logical page, writing its initial image; returns its id.
    Durable once the metadata log is next forced. *)

val page_exists : t -> int -> bool
val num_pages : t -> int

val read_page : t -> int -> Storage.Page.t
(** Current version: stored image + all live log records (aborted
    transactions' records are skipped). Allocates the page;
    {!read_page_into} is the primitive. *)

val read_page_into : t -> int -> Storage.Page.t -> unit
(** {!read_page} into an existing page of the configured page size (a
    recycled buffer-pool frame, say): the stored image is read over
    [dst]'s bytes and the live log records are applied there. Counters,
    flash operations and the result are those of {!read_page}. Raises
    [Invalid_argument] on a page of another size. If the read fails,
    [dst] may hold the stored image without its log applied. *)

val read_pages : t -> int list -> (int * Storage.Page.t) list
(** Batched {!read_page}: the raw page reads of the whole batch are
    submitted to the device before any is awaited, so pages on different
    channels are fetched in parallel on the simulated clock. Returns
    [(pid, page)] in argument order; counters and replay are identical
    to a sequential loop (and under a bad-block manager the batch {e is}
    a sequential loop — retries are synchronous). *)

type read_batch

val read_pages_start : t -> int list -> read_batch
(** Submit the batch's raw page reads without awaiting any of them —
    execution is eager, so the data is captured here and only the
    completion times are outstanding. Intervening merges may relocate
    the pages; the captured images plus their live log records still
    reproduce the current logical content. *)

val read_pages_finish : t -> read_batch -> (int * Storage.Page.t) list
(** Await the batch and replay each page's log records.
    [read_pages t pids = read_pages_finish t (read_pages_start t pids)];
    splitting the two lets the await overlap a durability barrier the
    caller issues in between (the barrier settles the reads too). *)

val flush_log : t -> page:int -> Log_record.t list -> unit
(** Persist one in-memory log sector's records for [page]. Writes a log
    sector in the page's erase unit, or — if none is free — merges the
    unit (consuming the records) or diverts the sector to an overflow
    area. [records] must be non-empty and fit one sector. *)

val force_meta : t -> unit
(** Make allocations/merges performed so far durable. *)

val publish_meta : t -> unit
(** Submit the buffered metadata sector without waiting for the program;
    the commit path pays one device barrier for it together with the
    transaction-log and in-page log flushes it publishes. *)

val emit_checkpoint : t -> active:int list -> trx_watermark:int -> unit
(** Append a fuzzy checkpoint (per-unit [Ckpt_eu] coverage records plus
    the [Ckpt] footer) to the metadata log buffer — no force, no barrier:
    the caller's next durability barrier carries it, and a checkpoint
    torn by a crash is simply ignored at recovery. [active] is the
    transaction ids active right now ({!Trx_log.active});
    [trx_watermark] the durable transaction-log sector count
    ({!Trx_log.durable_sectors}). Skipped entirely (no-op) if [active]
    is implausibly large for one footer record (> 120 ids). The emitted
    coverage is also folded into later metadata-log snapshot
    compactions, so a checkpoint survives compaction. *)

val repair_pending : t -> int
(** Erase units still awaiting on-demand repair after a restart (0 when
    no usable checkpoint covered any unit, and once repair has
    drained). *)

val repair_step : t -> max_eus:int -> int
(** Repair up to [max_eus] pending units (lowest-numbered first): re-read
    each unit's covered log prefix, re-install its full decoded record
    list into the cache, and emit {!Obs.Event.Page_repaired} per touched
    page. Returns the number of units repaired; a [max_int] drain leaves
    no background debt. Used by the engine's background drainer;
    first-touch repair happens implicitly on reads, merges and log
    flushes. *)

val merge_fullest : t -> max_merges:int -> int
(** Merge up to [max_merges] data erase units, fullest log region first,
    skipping units with empty log regions. Returns the number merged. Used
    for proactive (background) merging. *)

val merge_eu_of_page : t -> int -> unit
(** Force a merge of the erase unit containing a page (used by tests and
    by checkpointing to purge old log records). *)

val eu_of_page : t -> int -> int
(** Physical erase unit currently hosting a page. *)

val used_log_sectors : t -> eu:int -> int
val overflow_sectors : t -> eu:int -> int
(** Overflow log sectors currently assigned to data erase unit [eu]. *)

val free_eus : t -> int
val stats : t -> stats

module Stats : Ipl_util.Stats_intf.S with type t = stats

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Install or clear a trace sink for storage-level events:
    {!Obs.Event.Page_alloc}, [Page_read], [Log_flush],
    [Overflow_diversion] and [Merge], timestamped with the chip's
    simulated clock. Each hook site is a single option check when no
    tracer is installed. *)


val live_log_records : t -> page:int -> Log_record.t list
(** All live (non-aborted) flash log records of a page, in application
    order — for tests and the recovery demo. *)

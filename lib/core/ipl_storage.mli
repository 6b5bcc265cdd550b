(** The in-page logging storage manager (Sections 3.2, 3.3 and 5.3).

    Every erase unit in the managed flash region is split into data pages
    and log sectors. Data pages are written exactly once per residence in
    an erase unit; all subsequent changes arrive as physiological log
    records flushed — one flash sector at a time — into the {e same} erase
    unit. Reading a page re-creates its current version on the fly by
    applying its log records to the stored image. When an erase unit runs
    out of log sectors, a merge (Algorithm 1, made selective by
    Algorithm 3) rewrites it into a freshly erased unit: each hosted
    page's stored image with its committed records applied. A page that
    no carried record names and that the engine holds in memory with
    nothing owed to flash ({!set_buffered}) is programmed from that
    image without a flash read. When one flush batch would merge two
    units back to back, they merge as one pair ({!merge_pair}) whose
    hotter pages go into one new unit and the rest into the other, so
    later commits touching hot pages share that unit's log sectors.

    The logical-to-physical page mapping changes only on merges and is
    persisted through a {!Meta_log.t} (a merge, of one unit or a pair,
    is one event): the mapping is the fold of that
    log's events, and crash recovery replays them through the same
    transition run time applies as it logs each one.

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
    is unaffected. A restart leaves it empty; a unit's first read after
    it (a page read, or the merge rule or a merge reading the unit's
    records) is a miss that fills the unit's entry.
    [log_cache_bytes = 0] disables it, reproducing the uncached engine
    bit-for-bit.

    {2 Restart}

    {!recover} reads no in-page log sector and leaves nothing owed. It
    rebuilds the mapping from the system log and takes each unit's log
    length from the flash's free state (the first erased sector of the
    log region ends it). A unit's records are read when an access needs
    them, through the same path as at run time: a page read applies its
    page's records, and the merge rule ({!merge_due}) counts the unit's
    records by transaction status. No per-unit state is derived from
    the records, so nothing is stale after a restart. *)

type t

type stats = {
  pages_allocated : int;
  page_reads : int;  (** data-page fetches from flash *)
  log_sector_writes : int;  (** in-page log sectors programmed *)
  overflow_sector_writes : int;
  log_sector_reads : int;
  merges : int;  (** units rewritten; a pair merge counts two *)
  pair_merges : int;  (** merges that rewrote two units as one pair *)
  overflow_diversions : int;  (** flushes diverted because carry > tau *)
  records_applied_at_merge : int;
  records_dropped_aborted : int;
  records_carried_over : int;
  erase_units_reclaimed : int;  (** overflow areas garbage-collected *)
  log_cache_hits : int;
      (** log-region reads served from the DRAM record cache (no flash) *)
  log_cache_misses : int;  (** log-region reads that scanned flash *)
  log_cache_evictions : int;  (** cache entries dropped for the byte budget *)
}

val create :
  ?config:Ipl_config.t ->
  Resilience.Bbm.t ->
  first_block:int ->
  num_blocks:int ->
  txn_status:(int -> Trx_log.status) ->
  meta:Meta_log.t ->
  unit ->
  t
(** Manage blocks [first_block, first_block + num_blocks) of the
    manager's device. All blocks are erased. The [meta] log must be empty
    (fresh database). Every data-area flash operation goes through the
    bad-block manager: block addresses are virtual, failed reads are
    retried, failed programs/erases are relocated onto a spare, and
    mutations raise {!Resilience.Bbm.Degraded} once a relocation finds
    the spare pool empty (the engine turns that into its typed
    [Device_degraded] error). A manager with an empty pool is the plain
    data-area path: its first failed program or erase degrades the
    device. The [meta] log's owner registers a compaction snapshot
    that includes {!snapshot}. *)

val recover :
  ?config:Ipl_config.t ->
  Resilience.Bbm.t ->
  first_block:int ->
  num_blocks:int ->
  txn_status:(int -> Trx_log.status) ->
  meta:Meta_log.t ->
  meta_events:Meta_log.event list ->
  unit ->
  t
(** Rebuild state after a crash from the replayed metadata events plus a
    scan of the flash region's free state, which reads no sector.
    Unreferenced half-written erase units (from a crash mid-merge) are
    erased. The manager must already have had the
    [Remap]/[Retire]/[Degraded] events replayed into it
    ({!Resilience.Bbm.recover}; they are ignored here). *)

val config : t -> Ipl_config.t

val allocate_page : t -> Storage.Page.t -> int
(** Place a new logical page, writing its initial image; returns its id.
    Durable once the system log is next forced. *)

val page_exists : t -> int -> bool
val num_pages : t -> int

val read_page : t -> int -> Storage.Page.t
(** Current version: stored image + all live log records (aborted
    transactions' records are skipped), replayed by {!Log_record.replay}.
    Raises [Log_record.Replay_failed] if a live record does not apply to
    the page. Allocates the page; {!read_page_into} is the primitive. *)

val read_page_into : t -> int -> Storage.Page.t -> unit
(** {!read_page} into an existing page of the configured page size (a
    recycled buffer-pool frame, say): the stored image is read over
    [dst]'s bytes and the live log records are applied there. Counters,
    flash operations and the result are those of {!read_page}. Raises
    [Invalid_argument] on a page of another size, and
    [Log_record.Replay_failed] as {!read_page} does. If the read or the
    replay fails, [dst] may hold the stored image with only part of its
    log applied. *)

val read_pages : t -> int list -> (int * Storage.Page.t) list
(** Batched {!read_page}: the raw page reads of the whole batch are
    submitted to the device before any is awaited, so pages on different
    channels are fetched in parallel on the simulated clock; a failed
    read is retried at its submission. Returns [(pid, page)] in argument
    order; counters and replay are identical to a sequential loop. *)

type read_batch

val read_pages_start : t -> int list -> read_batch
(** Submit the batch's raw page reads without awaiting any of them —
    execution is eager, so the data is captured here and only the
    completion times are outstanding. Intervening merges may relocate
    the pages; the captured images plus their live log records still
    reproduce the current logical content. *)

val read_pages_finish : t -> read_batch -> (int * Storage.Page.t) list
(** Await the batch and replay each page's log records; raises
    [Log_record.Replay_failed] at the first page whose records do not
    apply.
    [read_pages t pids = read_pages_finish t (read_pages_start t pids)];
    splitting the two lets the await overlap a durability barrier the
    caller issues in between (the barrier settles the reads too). *)

val flush_log : t -> Log_sector.t -> unit
(** Persist one log sector's records, for any pages of one erase unit:
    the unit hosting the first record's page. Writes a log sector in that
    unit, or — if none is free — merges the unit (consuming the records)
    when at most a tau share of its records, these included, belong to
    active transactions, and diverts the sector to an overflow area
    otherwise: the one merge rule, which {!merge_due_units} applies too.
    The sector must be non-empty and have the device's sector size; a
    record for a page of another unit raises [Invalid_argument] before
    anything is written.
    The [Log_flush] or [Overflow_diversion] event names the first
    record's page. *)

val snapshot : t -> Meta_log.event list
(** The manager's part of a system-log compaction snapshot: the mapping,
    with the bad-block manager's remap state. *)

val log_full : t -> page:int -> bool
(** Whether the unit hosting [page] has no free in-region log sector,
    so that its next flush merges it or diverts to overflow. *)

val merge_due : t -> Log_record.t list -> bool
(** Whether flushing [records] would merge their unit, the unit hosting
    the first record's page: its in-region log has no free sector and
    at most a tau share of its records, these included, belong to
    active transactions (the one merge rule). [false] for no records. *)

val merge_pair : t -> Log_record.t list -> Log_record.t list -> unit
(** [merge_pair t mine theirs] merges the unit of [mine] and the unit
    of [theirs] as one pair, each with its records as pending ones: the
    write path's answer when one flush batch would merge both units back
    to back. The caller decides with {!merge_due}: for the first unit
    on the sector that would merge it, whose unit's later sectors then
    ride along in [mine], and for the second on its whole group. The two units' pages are re-split by heat, the number of
    their records in the unit's log plus pending: the first unit's new
    block takes as many of the hottest pages as the unit held, ties
    staying in their unit and then going by slot, and the second's new
    block the rest, in the slots the traded pages left. One [Merge]
    event publishes both moves, forced before either old unit is
    erased. Raises [Invalid_argument] unless the records name two
    distinct units with full logs, each hosting all of its records'
    pages. *)

val pair_trades : int array -> (int * int) list
(** The pair merge's re-split, from [heat]: one entry per data slot, the
    first unit's slots then the second's, holding the number of records
    for the slot's page in its unit's log plus pending, or -1 for a free
    slot. The pages are ranked by heat, ties going to the first unit's
    pages and then by slot; the first unit's new block takes as many of
    the hottest as the unit held. Returns the trades [(i, j)] of the
    [Merge] event: the first unit's leaving slots and the second's
    arriving ones, each in slot order. *)

val merge_due_units : t -> max_merges:int -> int
(** Background merging: merge up to [max_merges] of the data erase units
    that {!flush_log} would merge at their next flush (in-region log
    exhausted, carry fraction at most tau), most log sectors (in-region
    plus overflow) first. A unit with a free log sector, or one
    whose records belong mostly to live transactions, is left alone.
    Returns the number merged, 0 when no unit is due. *)

val merging : t -> int
(** How many units the merge under way rewrites: 0 outside a merge, 1
    or 2 (a pair) inside one, its flash operations included — for crash
    campaigns that aim at a pair merge's operations. *)

val eu_of_page : t -> int -> int
(** Physical erase unit currently hosting a page. *)

val used_log_sectors : t -> eu:int -> int
val overflow_sectors : t -> eu:int -> int
(** Overflow log sectors currently assigned to data erase unit [eu]. *)

val free_eus : t -> int
val stats : t -> stats

module Stats : sig
  type t = stats

  val diff : t -> t -> t
  (** [diff later earlier]: field-wise difference, for interval
      measurements. *)

  val to_json : t -> Ipl_util.Json.t
  (** One-level object keyed by the record's field names. *)
end

val set_buffered : t -> (int -> Storage.Page.t option) -> unit
(** Install the lookup a merge uses to skip a page's flash read:
    [f pid] is [Some page] only when [page] is page [pid]'s stored image
    with its live log records applied, as a read would build it — a
    buffer-pool frame with an empty in-memory log, say. The merge
    programs it when no carried (active) record names the page, reads
    and replays the page otherwise, and never keeps it past the program.
    The two agree byte for byte, except that a page whose earlier merge
    carried an active record ahead of a later-committed one may hold the
    same records in another layout. Until a lookup is installed every
    merge reads every page. [f] is called once per hosted page of each
    merge and must not touch the manager. *)

val set_tracer : t -> Obs.Tracer.t option -> unit
(** Install or clear a trace sink for storage-level events:
    {!Obs.Event.Page_alloc}, [Page_read], [Log_flush],
    [Overflow_diversion] and [Merge], timestamped with the chip's
    simulated clock. Each hook site is a single option check when no
    tracer is installed. *)


val live_log_records : t -> page:int -> Log_record.t list
(** All live (non-aborted) flash log records of a page, in application
    order — for tests and the recovery demo. *)

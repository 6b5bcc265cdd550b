(** DRAM cache of decoded log records, one entry per erase unit.

    The in-page logging read path re-creates a page by applying the log
    records of the page's erase unit to the stored image; without a cache
    every page read re-fetches and re-deserializes the unit's whole log
    region (in-page sectors plus overflow chain) from flash. This module
    keeps those decoded records in device DRAM instead, exactly as the
    paper's IPL device keeps hot metadata next to the NAND: an entry
    holds a unit's records in application order plus a per-page index, so
    a page read touches only the records of that page and no flash at
    all.

    The cache is generic in the record type so it sits below [lib/core]
    in the layering (it never inspects records beyond the two accessor
    callbacks given at creation).

    Consistency contract (maintained by the caller, [Ipl_storage]):
    an entry, when present, always equals what a fresh flash scan of the
    unit's log region would decode to. Appends mirror successful log
    writes {e after} the flash program succeeds; a merge or relocation
    that rewrites the unit invalidates (and may re-install) its entry.
    The cache is pure DRAM state — a crash simply means a cold cache, so
    crash recovery is unaffected by construction.

    Entries are evicted least-recently-used once the byte budget is
    exceeded. The recency order is an {!Ipl_util.Id_list} of unit ids,
    the list mechanism the buffer pool uses for its frames, so
    refreshing an entry's recency allocates nothing. A budget of [0] disables the cache: every lookup misses,
    [install]/[append] are no-ops, and the engine behaves bit-for-bit as
    without the cache. *)

type 'r t

val create :
  budget_bytes:int ->
  record_bytes:('r -> int) ->
  page_of:('r -> int) ->
  ?on_evict:(key:int -> bytes:int -> unit) ->
  unit ->
  'r t
(** [record_bytes] is the accounted DRAM cost of one record (the caller
    typically uses the record's encoded size plus a constant per-record
    overhead); [page_of] the logical page a record belongs to.
    [on_evict] fires once per entry evicted to honour the budget;
    entries dropped by {!invalidate}, {!clear} or an {!install} that
    replaces them are not evictions and do not fire it.
    [budget_bytes < 0] is rejected. *)

val enabled : 'r t -> bool
(** [false] iff the budget is 0. *)

val mem : 'r t -> int -> bool
(** Pure membership probe: no LRU effect, no hit/miss accounting. *)

val records : 'r t -> int -> 'r list option
(** All records of a cached unit in application order (oldest first).
    [None] on a miss. Refreshes the entry's recency. *)

val records_of_page : 'r t -> int -> page:int -> keep:('r -> bool) -> 'r list option
(** The cached unit's records for one page that satisfy [keep], in
    application order, built in one pass — the per-page index makes this
    proportional to that page's records, not the unit's. [None] if the
    {e unit} is not cached (an empty list means the unit is cached and
    has no records for the page). Refreshes the entry's recency. *)

val install : 'r t -> int -> 'r list -> unit
(** [install t key records] caches the full decoded record list of a
    unit (application order), replacing any previous entry, then evicts
    LRU entries until the budget holds — possibly the new entry itself
    if it alone exceeds the budget. No-op when disabled. Unit ids are
    erase-unit numbers: a negative [key] raises [Invalid_argument]. *)

val append : 'r t -> int -> 'r list -> unit
(** Write-through: extend a cached unit's entry with records just
    persisted to its log region. No-op if the unit is not cached (the
    next miss re-reads flash and installs the complete list). *)

val invalidate : 'r t -> int -> unit
(** Drop a unit's entry (merge consumed it, or its log region was
    rewritten). No-op if absent. *)

val clear : 'r t -> unit
(** Drop everything (restart, recovery). *)

type stats = { entries : int; bytes : int }

val stats : 'r t -> stats
(** Current occupancy (hit/miss accounting lives with the caller, which
    knows what a miss costs). *)

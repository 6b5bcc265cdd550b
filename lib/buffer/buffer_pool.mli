(** Fixed-capacity buffer pool that evicts by recency or by frequency,
    whichever its own accesses favour.

    The pool caches values of any type keyed by page number; the IPL
    engine stores page images plus their in-memory log sectors in it, and
    the trace generators store placeholder frames.

    Eviction is a duel (set dueling, Qureshi et al., ISCA 2007, over
    ARC-style ghost directories, Megiddo & Modha, FAST 2003). The pool
    keeps two key-only shadow directories of its own capacity, fed by
    every {!with_page} and every inserting {!preload}:
    - an LRU shadow, which evicts its least recently used key;
    - an LFU shadow, which evicts its lowest-count key, the least recent
      of those. Counts are kept per page id for pages that are no longer
      resident too, and all halve every 50 × capacity accesses.

    Over the last 10 × capacity accesses, while the LFU shadow has missed
    less than the LRU shadow, the victim is the lowest-count unpinned
    frame that is clean and has been used since it came in (a
    {!preload}ed frame is not a candidate before its first
    {!with_page}), the least recent of those. When no frame qualifies,
    and whenever the LRU shadow misses no more, the victim is the least
    recently used unpinned frame: strict LRU. The shadows start at the
    first miss in a full pool, when they are built from the resident
    frames; before that only the counts are kept, so a pool that never
    fills pays almost nothing for the duel. Their upkeep is constant
    time per access but for the halving, which is linear in the page ids
    once per 50 × capacity accesses; a frequency eviction passes over
    pinned and dirty frames.

    Every list the pool keeps (the resident frames' recency order, the
    dirty frames, the two shadows and the frequency order) is an
    {!Ipl_util.Id_list} of page ids, linked through int arrays indexed
    by page id. A resident hit allocates nothing, and a miss allocates
    only the frame and its index entry.

    [fetch] is called on a miss; [write_back] is called with a batch of
    dirty frames to clean: an eviction passes its one frame, and
    {!flush_all} (and so {!drop_all}) passes every dirty frame in one
    call. Each frame of a batch counts as one write-back. This mirrors the
    paper's buffer manager contract: evicting a dirty page triggers the
    flush of its in-memory log sector (not a write of the whole page),
    and a commit's flush can pack the log sectors of several pages. *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; dirty_write_backs : int }

val create :
  ?adaptive:bool ->
  capacity:int ->
  fetch:(int -> 'a option -> 'a) ->
  write_back:((int * 'a) list -> unit) ->
  unit ->
  'a t
(** [capacity] must be positive. [~adaptive:false] makes a strict LRU
    pool that keeps no shadows: the paper-trace model
    ([Tpcc_layout_store]) uses it so its traces follow the paper's
    buffer manager. [fetch key evicted] loads [key] on a
    miss. [evicted] is [Some v] exactly when the miss found the pool full:
    [v] is the value just evicted (already written back, so clean), and
    [fetch] may recycle it — overwrite it in place and return it — instead
    of allocating. It is [None] on a miss in a pool with room; {!preload}
    never calls [fetch]. Because a recycled value becomes another key's
    value, nothing may keep a value past the {!with_page} callback that
    received it. [write_back frames] must persist every [(key, value)] of
    [frames] and must not call back into the pool; if it raises, none of
    the batch's frames is cleaned. *)

val with_page : 'a t -> int -> ?dirty:bool -> ('a -> 'b) -> 'b
(** [with_page t key f] pins the frame for [key] (fetching it on a miss,
    evicting an unpinned frame if full), applies [f], and unpins.
    [~dirty:true] marks the frame dirty. Nested calls are allowed; raises
    [Failure] if every frame is pinned, and [Invalid_argument] if [key]
    is negative: frames are indexed by page id. The value is the frame's only
    while it is pinned: [f] must not return it or keep it (or anything
    sharing its mutable state) after it returns, because a later miss may
    evict the frame and hand the value to [fetch] to be refilled with
    another key's contents. *)

val mark_dirty : 'a t -> int -> unit
(** Mark a cached frame dirty; raises [Invalid_argument] (naming the
    page) if it is not cached — marking an absent frame is a caller
    bug, not a lookup that may legitimately fail. *)

val clean : 'a t -> int -> unit
(** Clear the dirty flag of a cached frame without writing it back (used
    when the caller has persisted the changes through another path).
    No-op if absent. *)

val preload : 'a t -> int -> 'a -> unit
(** [preload t key value] inserts an externally fetched [value] as a
    clean resident frame (evicting if full), so a later access is a hit
    that does not call [fetch]. Counted as a miss — the value did come
    from below. No-op when [key] is already resident; raises
    [Invalid_argument] if [key] is negative. The batched
    multi-channel prefetch path installs pages read with
    {!Ipl_storage.read_pages} through this. *)

val contains : 'a t -> int -> bool

val promote : 'a t -> int -> unit
(** Bump a resident page to most-recently-used without fetching (no-op
    when absent) — protects a batch's resident members from being
    evicted by its own preloads while the pool evicts by recency. It is
    not an access: the counts and the LFU shadow do not see it. The LRU
    shadow takes the same bump when the page is a member, as a strict
    LRU pool would. *)

val find : 'a t -> int -> 'a option
(** Peek without affecting recency or pinning. *)

val is_dirty : 'a t -> int -> bool
val capacity : 'a t -> int

val evicts_by_frequency : 'a t -> bool
(** Whether the next eviction follows the frequency rule: the LFU shadow
    has missed less than the LRU shadow over the duel's window. Always
    [false] for a [~adaptive:false] pool. *)

val cached : 'a t -> int

val dirty_count : 'a t -> int
(** Number of dirty frames: the size of the dirty list, not a scan. *)

val flush_all : 'a t -> unit
(** Write back every dirty frame (keeping them cached and now clean) with
    one [write_back] call, the frames in the order they became dirty,
    oldest first. It walks the list of the dirty frames, so its
    cost does not grow with the clean resident ones. With no dirty frame
    it calls nothing. *)

val drop_all : 'a t -> unit
(** Write back every dirty frame and empty the pool. Raises [Failure] if
    any frame is pinned. *)

val iter : (int -> 'a -> dirty:bool -> unit) -> 'a t -> unit
(** Visit the resident frames, most recently used first. *)

val stats : 'a t -> stats

val set_trace : 'a t -> (Obs.Event.t -> unit) option -> unit
(** Install or clear a trace sink. The pool emits {!Obs.Event.Write_back}
    each time a dirty frame is cleaned and {!Obs.Event.Evict} on each
    eviction. The pool is clock-agnostic, so the sink (typically installed
    by the engine) supplies the timestamp. With no sink installed each
    hook site is a single option check. *)

module Stats : sig
  type t = stats

  val diff : t -> t -> t
  (** [diff later earlier]: field-wise difference, for interval
      measurements. *)

  val to_json : t -> Ipl_util.Json.t
  (** One-level object keyed by the record's field names. *)
end

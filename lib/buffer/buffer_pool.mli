(** Fixed-capacity LRU buffer pool.

    The pool caches values of any type keyed by page number; the IPL
    engine stores page images plus their in-memory log sectors in it, and
    the trace generators store placeholder frames. Replacement is strict
    LRU over unpinned frames (constant-time via an intrusive list).

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
  capacity:int ->
  fetch:(int -> 'a option -> 'a) ->
  write_back:((int * 'a) list -> unit) ->
  unit ->
  'a t
(** [capacity] must be positive. [fetch key evicted] loads [key] on a
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
    evicting the LRU unpinned frame if full), applies [f], and unpins.
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
    evicted by its own preloads. *)

val find : 'a t -> int -> 'a option
(** Peek without affecting recency or pinning. *)

val is_dirty : 'a t -> int -> bool
val capacity : 'a t -> int
val cached : 'a t -> int

val dirty_count : 'a t -> int
(** Number of dirty frames — an O(1) counter maintained at every
    dirty-flag transition, not a scan. *)

val flush_all : 'a t -> unit
(** Write back every dirty frame (keeping them cached and now clean) with
    one [write_back] call, the frames in the order they became dirty,
    oldest first. It walks an intrusive list of the dirty frames, so its
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

(** Snapshot-isolation MVCC over the IPL engine, with group commit.

    The design is {e eager-apply}: record writes go straight to the
    engine (so its physiological logging, buffer management and merges
    see exactly the serial workload), while an in-DRAM undo chain per
    record remembers each write's before-image. A transaction reads the
    engine's current image and walks the chain newest-to-oldest,
    substituting the before-image of every version committed after its
    snapshot (or not committed at all) — per-record version
    reconstruction in the spirit of the paper's on-demand log replay,
    pointed backwards.

    Write-write conflicts are detected {e eagerly}, first-updater-wins:
    writing a record whose newest version belongs to a live transaction,
    or was committed after the writer's snapshot (first-committer-wins),
    dooms the transaction — it can only abort. The eager check doubles as
    the engine's own safety invariant: no two active transactions ever
    touch the same record, which its delta replay requires. Write skew is
    allowed, as under any snapshot isolation.

    Commits are {e grouped} by the engine's commit window, which
    {!create} sets: [commit] records the transaction's commit with the
    engine, and the commit that fills the window (or an explicit
    {!flush} / {!checkpoint}) settles the whole batch with one device
    barrier. This layer keeps no batch counter of its own. Version
    chains are garbage-collected at every batch boundary against the
    watermark (the oldest live snapshot), and {!compact} folds a GC pass
    into maintenance merging. *)

type t

type txn
(** A live snapshot-isolation transaction. Single-use: dead after
    {!commit} or {!abort}. *)

type error =
  | Conflict of { page : int; slot : int }
      (** first-updater/first-committer-wins write-write conflict; the
          transaction is doomed and must be aborted *)
  | Doomed  (** operation on a transaction already doomed by a conflict *)
  | Engine_error of Ipl_core.Ipl_engine.error

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val create : ?group_window:int -> Ipl_core.Ipl_engine.t -> t
(** Wrap an engine and set its commit window to [max 1 group_window] with
    {!Ipl_core.Ipl_engine.set_group_commit} (default 1: every commit
    flushes, serial behaviour). The engine's window is the only batching
    mechanism; this layer observes its batches settle. *)

val engine : t -> Ipl_core.Ipl_engine.t
val txn_id : txn -> int

val begin_txn : t -> (txn, error) result
(** Open a transaction on a snapshot of the latest committed state. *)

val read : t -> txn -> page:int -> slot:int -> (bytes option, error) result
(** The record as of the transaction's snapshot, plus its own writes. *)

val read_committed : t -> page:int -> slot:int -> (bytes option, error) result
(** The latest committed version — a fresh snapshot's view, hiding every
    live transaction's in-flight writes. *)

val read_committed_deferred :
  t -> page:int -> slot:int -> (unit -> bytes option, error) result
(** {!read_committed} split in two: the engine read and a frozen copy of
    the chain's visibility happen at the call (on the calling domain, at
    the schedule point that defines the answer); the returned thunk is
    pure and may be forced later — including on a {!Par.Domain_pool}
    worker — yielding exactly the value [read_committed] would have
    returned at the call site. *)

val insert : t -> txn -> page:int -> bytes -> (int, error) result
val update : t -> txn -> page:int -> slot:int -> bytes -> (unit, error) result
val delete : t -> txn -> page:int -> slot:int -> (unit, error) result

val commit : t -> txn -> (unit, error) result
(** Record the commit (first-committer-wins is already guaranteed by the
    eager write checks). Durability is deferred to the group barrier; the
    commit is batched until {!flushed_commits} passes it. When this commit
    fills the engine's window the batch flush runs inside the engine's
    commit, and a device fault there is returned as [Engine_error]. *)

val abort : t -> txn -> (unit, error) result
(** Roll back: the engine de-applies the writes and the transaction's
    chain nodes are popped. Also the only way out of a doomed
    transaction. *)

val flush : t -> (unit, error) result
(** Make every batched commit durable with one device barrier, then GC
    version chains against the watermark. No-op when nothing is pending. *)

val pending : t -> int
(** Commits recorded but not yet settled by a batch barrier — the
    engine's {!Ipl_core.Ipl_engine.pending_commits}. *)

val flushed_commits : t -> int
(** Total commits made durable so far — a session scheduler compares this
    against its own commit's sequence number to know when to resume. *)

val gc : t -> int
(** Drop every version at or below the watermark (the oldest snapshot a
    live transaction still reads from); returns how many were dropped. *)

val compact : t -> max_merges:int -> (int, error) result
(** Version-chain GC folded into maintenance merging: {!gc}, then the
    engine's background merge of the fullest erase units. *)

val checkpoint : t -> (unit, error) result
(** {!flush}, then a full engine checkpoint. *)

type stats = {
  commits : int;
  aborts : int;  (** includes conflict-doomed transactions *)
  conflicts : int;  (** write-write conflicts detected (dooming events) *)
  barriers : int;  (** group-commit device barriers issued *)
  batched_commits : int;  (** commits settled by those barriers *)
  max_batch : int;
  versions_created : int;
  versions_gced : int;
  versions_live : int;
}

val stats : t -> stats

(** Model-based recovery oracle for {e concurrent} (MVCC) histories.

    Where {!Oracle} models a single active transaction, this oracle
    tracks many: each live transaction's write set, the global commit
    order, and a durable watermark (how many commits a completed group
    barrier has settled). After a crash and restart the database must
    equal the setup state plus some {e prefix} of the commit order — the
    transaction log is sequential, so a later commit record can never be
    durable without every earlier one — and the prefix must reach at
    least the watermark. Conflict-losers and voluntary aborts are absent
    from the commit order, so any surviving effect of theirs fails the
    prefix match. *)

type t

type outcome =
  | Settled  (** no transaction was mid-commit at the crash *)
  | In_doubt
      (** the crash hit inside a commit call: that transaction's record
          may or may not be durable, so it joins the commit order as an
          optional last entry *)

val create : unit -> t

val seed : t -> page:int -> slot:int -> bytes -> unit
(** Record a setup-time value that is already durable (pre-campaign). *)

val begin_txn : t -> txn:int -> unit

val note : t -> txn:int -> page:int -> slot:int -> bytes option -> unit
(** Mirror one successful MVCC write of transaction [txn]: [Some data]
    for insert/update, [None] for delete. *)

val start_commit : t -> txn:int -> unit
(** Call immediately before [Mvcc.commit]: from here until
    {!end_commit} the transaction is in doubt. *)

val end_commit : t -> txn:int -> unit
(** The commit call returned: the transaction takes the next position in
    the commit order (durability still pending the group barrier). *)

val abort : t -> txn:int -> unit
(** Voluntary abort or conflict-doomed rollback: the write set vanishes. *)

val durable : t -> int -> unit
(** Raise the durable watermark: the first [n] commits in commit order
    have been settled by a completed barrier. Monotonic; lower values are
    ignored. *)

val crash : t -> outcome
(** Resolve the model after a power loss: live transactions roll back, a
    mid-commit transaction becomes the optional tail of the commit
    order. *)

val check :
  t -> read:(page:int -> slot:int -> bytes option) -> pages:int list -> slots:int -> string list
(** Read back slots [0..slots-1] of every page through [read] (normally
    [Ipl_engine.read] on the restarted engine) and return human-readable
    violations; [[]] means the recovered state equals the setup state
    plus commits [0..k] for some [k] between the durable watermark and
    the full commit order. A [read] that raises is itself a violation. *)

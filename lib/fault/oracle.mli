(** Model-based recovery oracle over a history of transactions.

    The oracle follows a run's history ({!Ipl_txn.Session.event}): each
    live transaction's write set, the global commit order, and a durable
    watermark (how many commits a completed barrier has settled). The
    serial loop raises the watermark at every returned commit; MVCC
    sessions raise it at every group barrier. After a crash and restart
    the database must equal the setup state plus some {e prefix} of the
    commit order — the transaction log is sequential, so a later commit
    record can never be durable without every earlier one — and the
    prefix must reach at least the watermark. Rolled-back transactions
    and conflict losers are absent from the commit order, so any
    surviving effect of theirs fails the prefix match. *)

type t

type outcome =
  | Settled  (** no transaction with writes was mid-commit at the crash *)
  | In_doubt
      (** the crash hit inside the commit call of a transaction that
          wrote something: its record may or may not be durable, so it
          joins the commit order as an optional last entry *)

val create : unit -> t

val seed : t -> page:int -> slot:int -> bytes -> unit
(** Record a setup-time value that is already durable (pre-campaign). *)

val observe : t -> Ipl_txn.Session.event -> unit
(** Mirror one step of the history. [Write] must name a transaction
    opened by [Begin]; [Read] is ignored. *)

val current : t -> txn:int -> page:int -> slot:int -> bytes option
(** Transaction [txn]'s own writes overlaid on the state after every
    commit so far — what a read through the engine would return right
    now while [txn] is the only live transaction. *)

val crash : t -> outcome
(** Resolve the model after a power loss: live transactions roll back,
    a mid-commit transaction with writes becomes the optional tail of
    the commit order. *)

val check :
  t -> read:(page:int -> slot:int -> bytes option) -> pages:int list -> slots:int -> string list
(** Read back slots [0..slots-1] of every page through [read] (normally
    [Ipl_engine.read] on the restarted engine) and return human-readable
    violations: [[]] when the recovered state equals the setup state plus
    commits [0..k] for some [k] between the durable watermark and the
    full commit order, else every difference from the state at the
    watermark. A [read] that raises is itself a violation. *)

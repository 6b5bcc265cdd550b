(** A multi-client session front-end over one engine.

    Simulated client sessions execute pre-drawn transaction plans through
    the {!Mvcc} layer on a deterministic round-robin scheduler: every
    rotation advances each session by exactly one step (begin, one record
    operation, commit/abort, or one read), so the interleaving — and with
    it every conflict, batch boundary and read result — is a pure
    function of [(plans, sessions)]. One session degrades
    to the serial loop: same operation order, same logical outcome.

    Sessions park between their commit and the group barrier that makes
    it durable. When a rotation makes no progress (every live session is
    parked), the pending batch is settled even if the window isn't full —
    that is what turns N concurrent commits into one device barrier. The
    commit window is [sessions]: one full rotation of commits fills it. *)

type op =
  | Update of { page : int; slot : int; data : bytes }
  | Insert of { page : int; data : bytes }
  | Delete of { page : int; slot : int }

type plan = {
  ops : op list;
  aborting : bool;  (** voluntarily abort instead of committing *)
  reads : (int * int) list;  (** post-commit read phase: (page, slot) *)
}

(** One step of a run's history, in schedule order. Transactions are
    named by {!Mvcc.txn_id}. *)
type event =
  | Begin of int
  | Write of { txn : int; page : int; slot : int; data : bytes option }
      (** a successful write: [Some data] for an update or insert (with
          the slot the insert got), [None] for a delete *)
  | Commit_start of int  (** the commit call is about to run *)
  | Committed of int  (** the commit call returned; durability pends *)
  | Aborted of int  (** a voluntary abort or a conflict-doomed rollback *)
  | Durable of int
      (** the first [n] commits, in [Committed] order, are settled by a
          completed barrier; reported each time [n] grows *)
  | Read of bytes option  (** one post-commit read result *)

type session_stats = {
  session : int;  (** session index, [0 .. sessions-1] *)
  commits : int;  (** transactions this session saw through to durable *)
  sim_latencies : float list;
      (** begin->durable commit latency in {e simulated} device seconds,
          one per commit in completion order — a pure function of the
          schedule, identical across job counts *)
  host_latency_s : float;
      (** total begin->durable {e host} time — wall clock, machine
          dependent, reported only in machine-dependent sections *)
}

type outcome = {
  committed : int;
  aborted : int;  (** voluntary aborts (the plan said so) *)
  conflict_aborts : int;  (** transactions doomed by write-write conflicts *)
  mvcc : Mvcc.stats;
  per_session : session_stats list;  (** one entry per session, in order *)
}

val run :
  ?compact_every:int ->
  ?observe:(event -> unit) ->
  sessions:int ->
  plans:plan array ->
  Ipl_core.Ipl_engine.t ->
  outcome
(** Multiplex [plans] over [sessions] clients (plan [i] goes to session
    [i mod sessions], preserving per-session order). [compact_every] > 0
    runs a {!Mvcc.compact} with one merge after every that-many finished
    transactions, like the serial benchmark loop. [observe] sees the run's
    history as it happens. A crash campaign maps it onto its recovery
    oracle, and the benchmark digests the [Read] results. The final batch is
    flushed before returning; the engine is left checkpoint-ready. *)

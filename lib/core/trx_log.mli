(** System-wide transaction log (Section 5.1).

    Its only job — like the transaction log of the Postgres no-overwrite
    storage the paper cites — is to record the start and outcome of every
    transaction so that, after a crash, the status of any transaction whose
    physiological log records survive in flash can be decided. No per-update
    records are ever written here; those live in the in-page logs.

    The records are {!Meta_log}'s [Trx_begin], [Trx_commit] and
    [Trx_abort] events, appended to the one system log; this module keeps
    the in-memory status table and its rules. Abort records are forced
    immediately. The engine's commit records are deferred
    ({!defer_commit}) and appended only after the batch's data records
    are on flash ({!flush_deferred}); begin records are published as
    they are appended ({!log_begin}). *)

type status = Active | Committed | Aborted

type t

val create : Meta_log.t -> t
(** An empty status table appending to [log]. *)

val recover : Meta_log.t -> Meta_log.event list -> t
(** Rebuild the status table from the system log's durable events (the
    one restart scan); appends nothing. *)

val abort_active : t -> int list
(** Close every transaction the table holds as active — at restart,
    those the crash interrupted — with a forced abort record; returns
    their ids in ascending order. *)

val log_begin : t -> int -> unit
(** Append the begin record and publish it. A settle of the system log
    then makes it durable: the write-ahead wait before any of the
    transaction's in-page records is flushed. *)

val defer_commit : t -> int -> unit
(** Group commit: record the commit but keep its record out of the log
    buffer — a begin-record force or a compaction must not carry it to
    flash before the batch's data records. Until {!flush_deferred} runs,
    a crash rolls the transaction back, so {!status} keeps answering
    [Active]: merges must carry its in-page records forward, not bake
    them into home pages. *)

val reopen : t -> int -> unit
(** Undo {!defer_commit} for a transaction whose commit record is still
    deferred: it is [Active] again and can be aborted. No-op once
    {!flush_deferred} has appended the record. *)

val flush_deferred : t -> unit
(** Append every deferred commit record, in commit order. Call after the
    batch's data records have been flushed, before the system log's
    publish and the barrier. *)

val log_abort : t -> int -> unit

val status : t -> int -> status
(** Status of a transaction id. Id 0 (non-transactional work) and ids
    unknown to the log (compacted-away history) are [Committed]. *)

val active : t -> int list

val max_txid : t -> int
(** Highest transaction id the log has seen begin, compacted-away ones
    included; 0 if none. *)

val snapshot : t -> Meta_log.event list
(** The status table's part of a system-log compaction: a record for
    every transaction that is not [Committed] on flash (a deferred commit
    is written as [Active]) and the [Trx_high] mark. Forgets the
    committed ones, as the compacted log will. *)

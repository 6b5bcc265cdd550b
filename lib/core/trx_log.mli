(** System-wide transaction log (Section 5.1).

    Its only job — like the transaction log of the Postgres no-overwrite
    storage the paper cites — is to record the start and outcome of every
    transaction so that, after a crash, the status of any transaction whose
    physiological log records survive in flash can be decided. No per-update
    records are ever written here; those live in the in-page logs.

    Abort records are forced immediately. The engine's commit records
    are deferred ({!defer_commit}) and appended only after the batch's
    data records are on flash ({!flush_deferred}); begin records may ride
    along buffered. *)

type status = Active | Committed | Aborted

type t

val create : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t

val recover : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t * int list
(** Rebuild the status table from flash. Transactions that were active at
    the crash are closed with an abort record (written back to the log);
    their ids are returned. *)

val log_begin : t -> int -> unit

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
    batch's data records have been flushed, before {!publish} and the
    barrier. *)

val log_abort : t -> int -> unit

val status : t -> int -> status
(** Status of a transaction id. Id 0 (non-transactional work) and ids
    unknown to the log (compacted-away history) are [Committed]. *)

val active : t -> int list
val max_txid : t -> int
(** Highest transaction id the log remembers; 0 if none. *)

val durable_sectors : t -> int
(** Log sectors submitted to flash so far — the durable watermark a fuzzy
    checkpoint records. Deferred commit records (still outside the
    buffer) are not counted. *)

val publish : t -> unit
(** Submit the buffered partial sector without waiting (see
    {!Seq_log.publish}). *)

val force : t -> unit

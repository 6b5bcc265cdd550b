(** Persistent logical-to-physical mapping metadata.

    The paper (Section 3.3) notes that the mapping of data pages to erase
    units is "maintained as meta-data by the flash translation layer" and
    only changes on merges, so its maintenance cost is low. This module is
    that metadata store: an append-only log of mapping events in a small
    reserved flash region, compacted into a snapshot when full. Replaying
    it after a crash (together with a scan of the in-page log sectors)
    reconstructs the storage manager's state. *)

type event =
  | Page_alloc of { page : int; eu : int; idx : int }
      (** logical page placed at data slot [idx] of erase unit [eu] *)
  | Merge of { old_eu : int; new_eu : int }
      (** all pages of [old_eu] moved, same slots, to [new_eu] *)
  | Overflow_alloc of { eu : int }  (** [eu] becomes an overflow log area *)
  | Overflow_assign of { data_eu : int; sector : int }
      (** flat sector address [sector] (inside an overflow area) now holds
          log records belonging to [data_eu] *)
  | Overflow_release of { data_eu : int }
      (** [data_eu] was merged; its overflow sectors are dead *)
  | Overflow_free of { eu : int }  (** overflow area erased and freed *)
  | Remap of { virt : int; phys : int }
      (** bad-block manager: virtual erase unit [virt] is now backed by
          physical block [phys] *)
  | Retire of { block : int }  (** physical block permanently retired *)
  | Degraded  (** spare pool exhausted: device is read-only from here on *)
  | Ckpt_eu of { eu : int; used_log : int; overflow : int; counts : (int * int) list }
      (** fuzzy-checkpoint coverage of one erase unit: at checkpoint time
          [eu] had [used_log] in-region log sectors and [overflow]
          overflow sectors on flash, holding [counts] records per
          transaction ([(txid, n)] pairs; chunked — several [Ckpt_eu]
          records for one [eu] accumulate). Recovery can trust these and
          re-read only sectors written {e after} the checkpoint *)
  | Ckpt of { active : int list; trx_watermark : int }
      (** fuzzy-checkpoint footer: the active-transaction table and the
          durable transaction-log watermark (sectors written) when the
          checkpoint was taken. Its arrival promotes the [Ckpt_eu]
          records since the previous footer into the effective
          checkpoint; a torn checkpoint (footer lost) is simply ignored *)

val of_bbm_event : Resilience.Bbm.persist_event -> event
(** The metadata-log form of a bad-block manager event: [Remap],
    [Retire] or [Degraded]. *)

val to_bbm_event : event -> Resilience.Bbm.persist_event option
(** Inverse of {!of_bbm_event}; [None] for every other event. *)

type t

val create : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t

val recover : Device.Flash_device.t -> first_block:int -> num_blocks:int -> t * event list
(** Durable events in append order. *)

val log : t -> event -> unit
(** Appended buffered; see {!force}. When the region fills up the caller's
    snapshot function (set via {!set_snapshot}) provides the compacted
    state. *)

val publish : t -> unit
(** Submit the buffered partial sector without waiting (see
    {!Seq_log.publish}). *)

val force : t -> unit

val set_snapshot : t -> (unit -> event list) -> unit
(** Register the function that dumps the current state as a minimal event
    list, used for compaction. Must be set before the region can fill. *)

(** {1 Exception-safe callers}

    The merge path buffers several events before forcing them as one
    atomic step. If the merge fails part-way (an injected power loss, a
    worn-out block), the buffered events describe a merge that never
    happened; {!mark}/{!rollback} discard them. *)

type mark

val mark : t -> mark

val rollback : t -> mark -> bool
(** Discard events logged since [mark]; [false] if a sector was forced in
    between (e.g. the region compacted), in which case use {!recompact}
    once the in-memory state has been restored. *)

val recompact : t -> unit
(** Rewrite the region from the registered snapshot function — the
    recovery hammer when {!rollback} cannot undo buffered events. *)

val encode : event -> bytes
val decode : bytes -> event

(** The engine's shared record and its typed error. Private to
    {!Ipl_engine}, whose other parts — frames ([Engine_frames]),
    transactions and the commit protocol ([Engine_txn]) and record
    operations ([Engine_ops]) — read and write the record directly. *)

type frame = { page : Storage.Page.t; log : Log_sector.t }
(** A buffered page: its current image and the records it owes flash.
    The image is the stored image plus the live flash records plus
    [log]. *)

type txn_info = { dirty_pages : (int, unit) Hashtbl.t }
(** The pages an open transaction has changed. *)

type error =
  | Page_full
  | Record_too_large
  | Range_too_large
  | No_such_slot
  | Range_out_of_bounds
  | Bad_record_length
  | Device_degraded
  | Read_failed
  | Device_fault
  | Replay_failed of Log_record.replay_failure
(** See {!Ipl_engine.error}. *)

type t = {
  config : Ipl_config.t;
  dev : Device.Flash_device.t;
  store : Ipl_storage.t;
  meta : Meta_log.t;  (** the one system log *)
  bbm : Resilience.Bbm.t;
  trx : Trx_log.t;
  pool : frame Bufmgr.Buffer_pool.t;
  txns : (int, txn_info) Hashtbl.t;
  mutable next_txid : int;
  mutable pending_commits : int;
  mutable group_commit : int;  (** commit window, at least 1 *)
  mutable tracer : Obs.Tracer.t option;
}

val sector_size : t -> int
(** The device's sector size: the capacity of a frame's log. *)

val txn_info : t -> int -> txn_info
(** Raises [Invalid_argument] for a transaction that is not open. *)

val emit_txn_event : t -> Obs.Event.t -> unit
(** Stamp an event with the device clock, if a tracer is installed. *)

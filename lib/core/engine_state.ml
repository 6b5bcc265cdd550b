(* The engine's shared record: the buffer pool's frames, the live
   transactions and the commit-batch counters, over the storage manager,
   the system log, the bad-block manager and the transaction-status table; and the
   engine's typed error. *)
module Dev = Device.Flash_device
module Bbm = Resilience.Bbm
module Pool = Bufmgr.Buffer_pool

type frame = { page : Storage.Page.t; log : Log_sector.t }

type txn_info = { dirty_pages : (int, unit) Hashtbl.t }

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

type t = {
  config : Ipl_config.t;
  dev : Dev.t;
  store : Ipl_storage.t;
  meta : Meta_log.t;  (* the one system log *)
  bbm : Bbm.t;
  trx : Trx_log.t;
  pool : frame Pool.t;
  txns : (int, txn_info) Hashtbl.t;
  mutable next_txid : int;
  mutable pending_commits : int;
  mutable group_commit : int;  (* commit window, at least 1 *)
  mutable tracer : Obs.Tracer.t option;
}

let sector_size t = (Dev.config t.dev).Flash_sim.Flash_config.sector_size

let txn_info t txid =
  match Hashtbl.find_opt t.txns txid with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Ipl_engine: unknown transaction %d" txid)

let emit_txn_event t ev =
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ~time:(Dev.elapsed t.dev) ev

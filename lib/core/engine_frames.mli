(** The frame layer of {!Ipl_engine}: fetching pages into the buffer
    pool, flushing frames' in-memory logs, rebuilding a frame from flash,
    logging a record in a frame, and read-ahead. *)

open Engine_state

val flush_frames : Meta_log.t -> Ipl_storage.t -> (int * frame) list -> unit
(** The one flush path (commit batch, eviction, full log): settle the
    system log's published sectors, which hold every begin record, if a
    user transaction's records are in the batch, then hand the frames'
    logs to {!Ipl_storage.flush}, which writes them and clears each
    frame's log once its records are on flash. *)

val create_pool :
  Ipl_config.t -> Meta_log.t -> Ipl_storage.t -> sector_size:int -> frame Bufmgr.Buffer_pool.t
(** A buffer pool that fetches with read-with-apply and writes back
    through {!flush_frames}, registered with the storage manager as the
    source of pages a merge may program from memory. *)

val rebuild_frame : frame -> load:(Storage.Page.t -> unit) -> unit
(** [load] writes the page's stored image with its live flash records
    into the frame's page; the frame's buffered records are then
    replayed on top. Raises [Log_record.Replay_failed] if one no longer
    applies, with the page holding the records before it. *)

val add_record : t -> frame -> page:int -> Log_record.t -> unit
(** Append a record to the frame's log, flushing a full log first. If
    that flush fails, the frame is rebuilt from flash without the
    unlogged mutation and the flush's exception is re-raised. *)

val prefetch_start : t -> int list -> Ipl_storage.read_batch
val prefetch_finish : t -> Ipl_storage.read_batch -> unit
(** See {!Ipl_engine.prefetch_start} and {!Ipl_engine.prefetch_finish}. *)

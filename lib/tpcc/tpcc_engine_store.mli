(** TPC-C storage backed by the real IPL engine: rows live in slotted heap
    pages, every table has a B+-tree mapping its packed primary key to a
    row id (page, slot). All mutations flow through the engine's
    physiological logging, so running transactions here exercises the full
    IPL stack. *)

include Tpcc_store.S

val create : Ipl_core.Ipl_engine.t -> t
val engine : t -> Ipl_core.Ipl_engine.t

val row_count : t -> Tpcc_schema.table -> int
(** Entries in the table's index (full scan — for tests). *)
